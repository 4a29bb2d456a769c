//! Short runs of every workload, untraced and traced, with their output
//! checks.

use cnfet_perfbench::run::{run, Options, Workload, END_TO_END, PER_LAYER};
use std::time::Instant;

fn options(workload: Workload, trace: bool, spans: &std::path::Path) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        spans_out: trace.then(|| spans.join(format!("{}.tsv", workload.name()))),
        setups: 1,
    }
}

#[test]
fn every_workload_runs_and_passes_its_checks() {
    let spans = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    for workload in Workload::ALL {
        let report = run(&options(workload, false, &spans), Instant::now()).expect("untraced run");
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert!(report.attempted > 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0), "{}", workload.name());
        assert!(
            report.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
            "{:?}",
            report.metrics
        );
        let line = report.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );

        let traced = run(&options(workload, true, &spans), Instant::now()).expect("traced run");
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.notes);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER, "{}", workload.name());
        assert!(
            traced.metrics.iter().all(|m| m.1.is_finite()),
            "{:?}",
            traced.metrics
        );
        let file = spans.join(format!("{}.tsv", workload.name()));
        let tsv = std::fs::read_to_string(&file).expect("spans written");
        assert!(tsv.lines().count() > 10, "{}", file.display());
    }
    let _ = std::fs::remove_dir_all(&spans);
}
