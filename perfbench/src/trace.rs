//! In-memory spans recorded from outside the program, around calls into
//! each layer's public functions, and the self time derived from them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval: `parent` is the index of the span that caused it,
/// and the spans of one request share `job`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dk.char` or `session.reduce`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by the spans of one request.
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; written out once the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            job,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking run");
        spans.push(span);
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking run")
            .clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (children may overlap one another, as
/// parallel sub-jobs do, so covered time is the union of their
/// intervals clipped to the parent's).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (s, e) = (
                span.start_ns.max(parent.start_ns),
                span.end_ns.min(parent.end_ns),
            );
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(s, e) in kids.iter() {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total ns, self ns).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += own;
    }
    out
}

/// Writes spans as tab-separated `index name start_ns end_ns parent job
/// self_ns` lines.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tjob\tself_ns")?;
    for (i, (span, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
            span.name, span.start_ns, span.end_ns, span.job
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // job [0,100] ⊃ fanout [10,60] ⊃ {char [10,30], char [20,50]};
        // job ⊃ reduce [60,90]. The two chars overlap (parallel).
        let spans = vec![
            span("job", 0, 100, None),
            span("fanout", 10, 60, Some(0)),
            span("char", 10, 30, Some(1)),
            span("char", 20, 50, Some(1)),
            span("reduce", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 30, 30]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["char"], (2, 50, 50));
        assert_eq!(totals["job"], (1, 100, 20));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("job", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_records_in_order() {
        let tracer = Tracer::new();
        let start = Instant::now();
        let inner = tracer.record("inner", start, Instant::now(), None, 7);
        let outer = tracer.record("outer", start, Instant::now(), None, 7);
        assert_eq!((inner, outer), (0, 1));
        let spans = tracer.spans();
        assert_eq!(spans[0].name, "inner");
        assert!(spans[1].duration_ns() >= spans[0].duration_ns());
    }
}
