//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! `perfbench expected` regenerates the expected-value files.

use cnfet_perfbench::expected;
use cnfet_perfbench::gen::DEFAULT_SEED;
use cnfet_perfbench::run::{run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <macro_char|immunity_lot|served_mix> [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n       perfbench expected";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::MacroChar,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        spans_out: None,
        setups: usize::MAX,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => opts.spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if opts.trace && opts.spans_out.is_none() {
        let name = format!("spans-{}-{}.tsv", opts.workload.name(), opts.seed);
        opts.spans_out = Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(name),
        );
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("expected") {
        return match expected::generate(&expected::dir()) {
            Ok(summary) => {
                eprint!("{summary}");
                eprintln!(
                    "expected values written in {:.1} s",
                    process_start.elapsed().as_secs_f64()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench expected: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts, process_start) {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("{note}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
