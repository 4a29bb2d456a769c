//! The run harness shared by the workloads: repeated set-up, the timed
//! closed loop, output checks, end-to-end metrics, and the traced run.

use crate::expected::Expected;
use crate::layers::{self, Layers};
use crate::procfs;
use crate::stats::{median, percentile, quartiles};
use crate::trace::{self, Tracer};
use crate::workloads::{Lot, MacroChar, Served};
use cnfet::Session;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold hierarchical adder macros in process.
    MacroChar,
    /// Monte Carlo, immunity sweeps and repair lots in process.
    ImmunityLot,
    /// Warm lookups and cold sweeps over loopback HTTP.
    ServedMix,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [
        Workload::MacroChar,
        Workload::ImmunityLot,
        Workload::ServedMix,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MacroChar => "macro_char",
            Workload::ImmunityLot => "immunity_lot",
            Workload::ServedMix => "served_mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("hit_p50_us", "us"),
    ("hit_p90_us", "us"),
    ("cpu_ms_per_job", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names, in report order.
pub const PER_LAYER: [&str; 27] = [
    "mna.tran_ms",
    "mna.steps_per_tran",
    "mna.factors_per_tran",
    "mna.refactors_per_tran",
    "mna.solves_per_tran",
    "dk.char_ms",
    "dk.char_repeat_frac",
    "flow.hier_ms",
    "core.generate_us",
    "immunity.mc_ms",
    "repair.die_us",
    "repair.sat_frac",
    "session.hit_ns",
    "session.hit_frac",
    "session.fast_hit_frac",
    "session.evictions_per_job",
    "session.cpu_busy_frac",
    "session.first_row_ms",
    "session.reduce_ms",
    "serve.json_parse_us",
    "serve.wire_decode_us",
    "serve.wire_encode_us",
    "serve.json_render_us",
    "serve.http_residual_us",
    "serve.stream_first_row_ms",
    "serve.stream_stall_frac",
    "trace.overhead_frac",
];

/// Run options (the command line).
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
}

/// One request of the timed phase and the timings it contributes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// A finished job, seconds: an in-process request's wall time, or a
    /// served loop iteration (its warm lookups and its cold sweep).
    pub job_s: Option<f64>,
    /// A cold request's wall time per cache-missing sub-result (slice,
    /// corner, die; a Monte Carlo request is one), or a served cold
    /// sweep's round trip, seconds.
    pub miss_s: Option<f64>,
    /// A served warm lookup's round trip, µs.
    pub hit_us: Option<f64>,
    /// Answered and passed its output check (post-run checks may clear it).
    pub ok: bool,
    /// Sent during a traced quarter.
    pub traced: bool,
}

/// Harvest instants of one composite run, fed by its observer.
#[derive(Default)]
pub struct Harvest {
    first: OnceLock<Instant>,
    last: Mutex<Option<Instant>>,
}

impl Harvest {
    /// Notes one harvested sub-result.
    pub fn mark(&self) {
        let now = Instant::now();
        let _ = self.first.set(now);
        *self.last.lock().expect("harvest clock poisoned") = Some(now);
    }

    /// (first, last) harvest, if any.
    pub fn window(&self) -> Option<(Instant, Instant)> {
        let first = *self.first.get()?;
        let last = (*self.last.lock().expect("harvest clock poisoned"))?;
        Some((first, last))
    }
}

/// Records a composite job's spans — the job, its fan-out window (start
/// to last harvested sub-result) and its reduce window (last sub-result
/// to return) — and returns the window for the per-layer metrics.
pub fn record_job(
    tracer: &Tracer,
    name: &'static str,
    job: u64,
    start: Instant,
    end: Instant,
    harvest: Option<(Instant, Instant)>,
) -> Option<(Instant, Instant, Instant, Instant)> {
    let root = tracer.record(name, start, end, None, job);
    let (first, last) = harvest?;
    tracer.record("session.fanout", start, last, Some(root), job);
    tracer.record("session.reduce", last, end, Some(root), job);
    Some((start, first, last, end))
}

/// What a workload implements for the harness.
pub trait Bench {
    /// Set-ups per untraced run.
    fn setups(&self) -> usize;
    /// Builds the engine (and server) and pays the warm-up. Called once
    /// per set-up; the last one serves the timed phase.
    fn setup(&mut self) -> Result<(), String>;
    /// Releases what the previous set-up built (not timed).
    fn teardown(&mut self) {}
    /// Sends the next request; `None` once the stream is used up.
    fn step(&mut self, tracer: Option<&Tracer>, job: u64) -> Option<Sample>;
    /// Runs the deferred output checks, clearing `ok` of failed samples;
    /// returns the failure messages.
    fn check(&mut self, samples: &mut [Sample]) -> Vec<String>;
    /// One block of in-process repeated requests on finished keys, after
    /// request number `step`: the mean µs per call, or `None` when no
    /// block is due (or the workload's own hits are the samples). The
    /// harness interleaves the blocks through the timed phase, so they
    /// see the same machine as the requests, and leaves their time out
    /// of the request metrics.
    fn hit_block(&mut self, step: usize) -> Option<f64>;
    /// The engine.
    fn session(&self) -> Session;
    /// Per-layer replays; `samples` are the timed phase's.
    fn layers(
        &mut self,
        samples: &[Sample],
        tracer: &Tracer,
        out: &mut Layers,
    ) -> Result<(), String>;
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Requests sent in the timed phase.
    pub attempted: u64,
    /// Requests that failed or failed their check.
    pub failed: u64,
    /// (name, value, unit) in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failure messages and notes for standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", number(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit (`{:?}` round-trips an f64).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn make(opts: &Options, exp: Arc<Expected>) -> Box<dyn Bench> {
    match opts.workload {
        Workload::MacroChar => Box::new(MacroChar::new(opts.seed, exp)),
        Workload::ImmunityLot => Box::new(Lot::new(opts.seed, exp)),
        Workload::ServedMix => Box::new(Served::new(opts.seed, exp)),
    }
}

/// Runs one workload. `process_start` anchors the first set-up.
pub fn run(opts: &Options, process_start: Instant) -> Result<Report, String> {
    let exp = Arc::new(Expected::load()?);
    let mut bench = make(opts, exp);
    let setups = if opts.trace {
        1
    } else {
        opts.setups.max(1).min(bench.setups())
    };
    let mut setup_s = Vec::with_capacity(setups);
    for i in 0..setups {
        bench.teardown();
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        bench.setup()?;
        setup_s.push(start.elapsed().as_secs_f64());
    }

    // The timed phase: one span of the run, or four alternating
    // untraced / traced quarters for the traced run.
    let tracer = Tracer::new();
    let quarters = if opts.trace { 4 } else { 1 };
    let quarter = Duration::from_secs_f64(opts.seconds / quarters as f64);
    let session = bench.session();
    let stats_before = session.stats();
    let cpu_before = procfs::cpu_seconds()?;
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut hit_blocks: Vec<f64> = Vec::new();
    let mut probe_s = 0.0;
    let mut per_quarter = Vec::with_capacity(quarters);
    let mut exhausted = false;
    for q in 0..quarters {
        let traced = opts.trace && q % 2 == 1;
        let q_start = Instant::now();
        let before = samples.len();
        while !exhausted && q_start.elapsed() < quarter {
            let job = samples.len() as u64;
            match bench.step(traced.then_some(&tracer), job) {
                Some(mut s) => {
                    s.traced = traced;
                    samples.push(s);
                    let probe = Instant::now();
                    if let Some(block) = bench.hit_block(samples.len()) {
                        hit_blocks.push(block);
                        probe_s += probe.elapsed().as_secs_f64();
                    }
                }
                None => exhausted = true,
            }
        }
        per_quarter.push((
            (samples.len() - before) as f64,
            q_start.elapsed().as_secs_f64(),
            traced,
        ));
    }
    // The hit blocks run on this thread alone while the pool idles: take
    // their wall time out of both the phase's wall and its CPU.
    let wall = start.elapsed().as_secs_f64() - probe_s;
    let cpu = procfs::cpu_seconds()? - cpu_before - probe_s;
    let stats_after = session.stats();
    if samples.is_empty() {
        return Err("the timed phase sent no request".into());
    }

    let mut notes = bench.check(&mut samples);
    if exhausted {
        notes.push("note: the request pool ran out before the timed phase ended".into());
    }
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let jobs = samples.len() as f64;

    let metrics = if opts.trace {
        let mut out = Layers::default();
        bench.layers(&samples, &tracer, &mut out)?;
        layers::session_stats(&stats_before, &stats_after, samples.len(), &mut out);
        out.put(
            "session.cpu_busy_frac",
            cpu / (wall * procfs::nproc() as f64),
            "ratio",
        );
        let rate = |traced: bool| {
            let (n, t) = per_quarter
                .iter()
                .filter(|q| q.2 == traced)
                .fold((0.0, 0.0), |acc, q| (acc.0 + q.0, acc.1 + q.1));
            n / t
        };
        out.put(
            "trace.overhead_frac",
            1.0 - rate(true) / rate(false),
            "ratio",
        );
        let spans = tracer.spans();
        if let Some(path) = &opts.spans_out {
            trace::write_tsv(path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
            notes.push(format!(
                "spans: {} written to {}",
                spans.len(),
                path.display()
            ));
        }
        notes.push(self_time_table(&spans));
        let mut ordered = Vec::with_capacity(PER_LAYER.len());
        for name in PER_LAYER {
            let m = out
                .0
                .iter()
                .find(|m| m.0 == name)
                .ok_or(format!("layer metric {name} missing"))?;
            ordered.push(*m);
        }
        ordered
    } else {
        let ms = |f: fn(&Sample) -> Option<f64>| -> Vec<f64> {
            samples.iter().filter_map(f).map(|v| v * 1e3).collect()
        };
        let total = ms(|s| s.job_s);
        let miss = ms(|s| s.miss_s);
        let mut hits: Vec<f64> = samples.iter().filter_map(|s| s.hit_us).collect();
        hits.extend(&hit_blocks);
        notes.push(format!(
            "samples: {} jobs (p90 has {} beyond it; quartiles {:.3?} ms), {} misses, {} hit samples, {} setups",
            total.len(),
            total.len() / 10,
            quartiles(&total).unwrap_or_default(),
            miss.len(),
            hits.len(),
            setup_s.len()
        ));
        let setup = median(&setup_s);
        vec![
            ("setup_s", setup, "s"),
            ("jobs_per_s", jobs / wall, "1/s"),
            ("job_p50_ms", percentile(&total, 50.0), "ms"),
            ("job_p90_ms", percentile(&total, 90.0), "ms"),
            ("miss_p50_ms", percentile(&miss, 50.0), "ms"),
            ("hit_p50_us", percentile(&hits, 50.0), "us"),
            ("hit_p90_us", percentile(&hits, 90.0), "us"),
            ("cpu_ms_per_job", cpu * 1e3 / jobs, "ms"),
            ("ok_frac", (jobs - failed as f64) / jobs, "ratio"),
            ("peak_rss_mb", procfs::peak_rss_mb()?, "MB"),
        ]
    };
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Self time per span name, for standard error.
fn self_time_table(spans: &[trace::Span]) -> String {
    let mut out = String::from("span self time (count, total ms, self ms):");
    for (name, (count, total, own)) in trace::totals_by_name(spans) {
        out.push_str(&format!(
            "\n  {name:<26} {count:>7} {:>11.2} {:>11.2}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).chain(PER_LAYER).collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(!valid_name("hit p50") && !valid_name("_x") && !valid_name("a/b"));
    }

    #[test]
    fn benchmark_manifest_lists_these_metrics() {
        use cnfet_serve::json::{parse, Json};
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = parse(&text).expect("BENCHMARK.json is JSON");
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(str::to_owned);
        let list = |key: &str| {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .to_vec()
        };
        for workload in list("workloads") {
            let name = field(&workload, "name").expect("name");
            assert!(Workload::parse(&name).is_some(), "{name}");
        }
        let e2e: Vec<(String, String)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").expect("name"),
                    field(m, "unit").expect("unit"),
                )
            })
            .collect();
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<String> = list("per_layer")
            .iter()
            .map(|m| field(m, "name").expect("name"))
            .collect();
        assert_eq!(layers, PER_LAYER);
    }

    #[test]
    fn report_line_is_one_json_object() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("jobs_per_s", 12.5, "1/s"), ("setup_s", f64::NAN, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"jobs_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
