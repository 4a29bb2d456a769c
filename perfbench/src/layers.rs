//! Per-layer probes: each times calls into one layer's public functions
//! from outside, on the workload's own inputs where the workload uses
//! the layer and on a small fixed input where it does not (there the
//! prediction is no change). Every timed call is recorded as a span.

use crate::expected::{self, slice_cell};
use crate::gen::{self, Entry, Pool};
use crate::stats::{mean, median, time_blocks};
use crate::trace::Tracer;
use cnfet::core::{generate_cell, generate_from_networks, Scheme, StdCellKind};
use cnfet::device::Polarity;
use cnfet::dk::{self, CellLibrary, LibCell};
use cnfet::flow::{assemble_macro_gds, place_macro, MacroAdder};
use cnfet::immunity::{simulate, McOptions};
use cnfet::mna::{Engine, Pattern, TranSpec};
use cnfet::repair::{repair_die, DieSpec};
use cnfet::spice::{to_mna, Circuit, Waveform};
use cnfet::{
    CellRequest, ImmunityEngine, LibraryRequest, RepairRequest, RequestKind, ResponseKind, Session,
};
use cnfet_serve::json::{self, Json};
use cnfet_serve::wire;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Job id of replayed layer calls in the span file.
const REPLAY_JOB: u64 = u64::MAX;

/// The per-layer metrics, in report order.
#[derive(Clone, Debug, Default)]
pub struct Layers(pub Vec<(&'static str, f64, &'static str)>);

impl Layers {
    /// Appends one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of metric `name` (`NaN` if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

/// `mna.*`: `Engine::tran` on a characterization-shaped transient (a
/// CNFET inverter driving 2 fF: the pulse, 2 ps step and 4.4 ns stop of
/// `crates/dk/src/characterize.rs`), with the engine's counters.
pub fn mna(session: &Session, tracer: &Tracer, out: &mut Layers) -> Result<(), String> {
    let kit = session.kit();
    let vdd_v = kit.cnfet.vdd;
    let period = 4e-9;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vin = ckt.node("in");
    let vout = ckt.node("out");
    ckt.add_vsource(vdd, Circuit::GROUND, Waveform::Dc(vdd_v));
    ckt.add_vsource(
        vin,
        Circuit::GROUND,
        Waveform::Pulse {
            v0: 0.0,
            v1: vdd_v,
            delay: 0.2e-9,
            rise: 10e-12,
            fall: 10e-12,
            width: period / 2.0,
            period,
        },
    );
    let width_m = kit.base_width_lambda as f64 * 32.5e-9;
    let tubes = kit.tubes_per_4lambda.max(1);
    ckt.add_fet(
        vout,
        vin,
        Circuit::GROUND,
        Arc::new(kit.cnfet.device(Polarity::N, tubes, width_m)),
    );
    ckt.add_fet(
        vout,
        vin,
        vdd,
        Arc::new(kit.cnfet.device(Polarity::P, tubes, width_m)),
    );
    ckt.add_load(vout, 2e-15);
    let circuit = to_mna(&ckt);
    let mut engine = Engine::new(Arc::new(Pattern::analyze(&circuit)));
    let spec = TranSpec::new(2e-12, period * 1.1);
    engine.tran(&circuit, &spec).map_err(|e| e.to_string())?;
    let before = engine.stats();
    let runs = 20;
    let mut ms = Vec::with_capacity(runs);
    let mut steps = 0usize;
    for _ in 0..runs {
        let start = Instant::now();
        let wave = engine.tran(&circuit, &spec).map_err(|e| e.to_string())?;
        let end = Instant::now();
        tracer.record("mna.tran", start, end, None, REPLAY_JOB);
        ms.push((end - start).as_secs_f64() * 1e3);
        steps += wave.len();
    }
    let after = engine.stats();
    let per = |a: u64, b: u64| (a - b) as f64 / runs as f64;
    out.put("mna.tran_ms", median(&ms), "ms");
    out.put("mna.steps_per_tran", steps as f64 / runs as f64, "count");
    out.put(
        "mna.factors_per_tran",
        per(after.factorizations, before.factorizations),
        "count",
    );
    out.put(
        "mna.refactors_per_tran",
        per(after.refactorizations, before.refactorizations),
        "count",
    );
    out.put(
        "mna.solves_per_tran",
        per(after.solves, before.solves),
        "count",
    );
    Ok(())
}

/// `dk.*`: `characterize_cell_at` replayed at each slice's cells and
/// loads (slices given by wire load), within `budget`; the repeat share
/// counts every slice.
pub fn dk(
    session: &Session,
    loads: &[f64],
    budget: Duration,
    tracer: &Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let cells: Vec<LibCell> = [
        (StdCellKind::Nand(2), 2),
        (StdCellKind::Inv, 4),
        (StdCellKind::Inv, 9),
    ]
    .iter()
    .map(|(k, s)| slice_cell(session, *k, *s))
    .collect::<Result<_, _>>()?;
    let internal_cap = 2.0 * cells[0].input_cap_f;
    let calls = |load: f64| {
        [
            (0usize, internal_cap.min(load)),
            (1, internal_cap.min(load)),
            (2, load),
        ]
    };
    let mut seen = HashSet::new();
    let mut repeats = 0usize;
    for &load in loads {
        for (cell, l) in calls(load) {
            repeats += usize::from(!seen.insert((cell, l.to_bits())));
        }
    }
    let start = Instant::now();
    let mut ms = Vec::new();
    for &load in loads {
        if start.elapsed() > budget && !ms.is_empty() {
            break;
        }
        for (cell, l) in calls(load) {
            let t = Instant::now();
            expected::char_delay(session, &cells[cell], l)?;
            let end = Instant::now();
            tracer.record("dk.char", t, end, None, REPLAY_JOB);
            ms.push((end - t).as_secs_f64() * 1e3);
        }
    }
    out.put("dk.char_ms", mean(&ms), "ms");
    out.put(
        "dk.char_repeat_frac",
        repeats as f64 / (3 * loads.len()).max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// `flow.hier_ms`: hierarchy assembly (`MacroAdder::new` + `place_macro`
/// + `assemble_macro_gds` + `to_spice`) per macro shape.
pub fn flow(
    session: &Session,
    shapes: &[(&str, u32)],
    tracer: &Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let lib = session
        .run(&LibraryRequest::new(Scheme::Scheme2))
        .map_err(|e| e.to_string())?;
    let mut ms = Vec::new();
    for (kind, width) in shapes {
        let kind = gen::adder_kind(kind);
        let t = Instant::now();
        let adder = MacroAdder::new(kind, *width);
        let placement = place_macro(&adder, &lib);
        let gds = assemble_macro_gds(&adder, &placement, &lib);
        let spice = adder.to_spice();
        let end = Instant::now();
        std::hint::black_box((gds, spice));
        tracer.record("flow.hier", t, end, None, REPLAY_JOB);
        ms.push((end - t).as_secs_f64() * 1e3);
    }
    out.put("flow.hier_ms", mean(&ms), "ms");
    Ok(())
}

/// `core.generate_us`: cold layout generation of the workload's warm-up
/// cells (kind, strength; library options when `library`).
pub fn core(
    session: &Session,
    cells: &[(StdCellKind, u8)],
    library: bool,
    tracer: &Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let opts = if library {
        dk::library_options(session.kit(), Scheme::Scheme2)
    } else {
        session.defaults().clone()
    };
    let mut us = Vec::new();
    for _ in 0..3 {
        for &(kind, strength) in cells {
            let t = Instant::now();
            let cell = if strength <= 1 {
                generate_cell(kind, &opts)
            } else {
                let (pdn, pun, vars) = dk::fingered_networks(kind, strength);
                generate_from_networks(
                    CellLibrary::cell_name(kind, strength),
                    kind,
                    pdn,
                    pun,
                    vars,
                    &opts,
                )
            }
            .map_err(|e| e.to_string())?;
            let end = Instant::now();
            std::hint::black_box(cell);
            tracer.record("core.generate", t, end, None, REPLAY_JOB);
            us.push((end - t).as_secs_f64() * 1e6);
        }
    }
    out.put("core.generate_us", mean(&us), "us");
    Ok(())
}

/// `immunity.mc_ms`: `immunity::mc::simulate` on (cell, options) pairs,
/// within `budget`.
pub fn immunity(
    session: &Session,
    runs: &[(CellRequest, McOptions)],
    budget: Duration,
    tracer: &Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let start = Instant::now();
    let mut ms = Vec::new();
    for (cell, opts) in runs {
        if start.elapsed() > budget && !ms.is_empty() {
            break;
        }
        let layout = session.run(cell).map_err(|e| e.to_string())?.cell;
        let t = Instant::now();
        std::hint::black_box(simulate(&layout.semantics, opts));
        let end = Instant::now();
        tracer.record("immunity.mc", t, end, None, REPLAY_JOB);
        ms.push((end - t).as_secs_f64() * 1e3);
    }
    out.put("immunity.mc_ms", mean(&ms), "ms");
    Ok(())
}

/// The Monte Carlo runs of one pool entry: the request's own options, or
/// every corner of a sweep.
pub fn mc_runs(entry: Entry) -> Vec<(CellRequest, McOptions)> {
    match gen::parse(&entry.json()) {
        RequestKind::Immunity(r) => match r.engine {
            ImmunityEngine::MonteCarlo(opts) | ImmunityEngine::Both(opts) => vec![(r.cell, opts)],
            ImmunityEngine::Certify => Vec::new(),
        },
        RequestKind::Sweep(s) => {
            let corners = s.grid.corners();
            s.cells
                .iter()
                .flat_map(|cell| {
                    corners.iter().map(|c| {
                        let opts = McOptions {
                            seed: c.seed,
                            metallic_fraction: c.metallic_fraction,
                            ..s.mc.clone()
                        };
                        (cell.clone(), opts)
                    })
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

/// `repair.*`: `repair::repair_die` per die of the given lots (within
/// `budget`); the SAT share counts every die of `outcomes`.
pub fn repair(
    session: &Session,
    lots: &[RepairRequest],
    sat_dies: usize,
    all_dies: usize,
    budget: Duration,
    tracer: &Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let start = Instant::now();
    let mut us = Vec::new();
    'lots: for lot in lots {
        let cells: Vec<_> = lot
            .cells
            .iter()
            .map(|c| session.run(c).map(|r| r.cell))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let layouts: Vec<_> = cells.iter().map(|c| &c.semantics).collect();
        for die in 0..lot.dies {
            if start.elapsed() > budget && !us.is_empty() {
                break 'lots;
            }
            let t = Instant::now();
            std::hint::black_box(repair_die(&DieSpec {
                layouts: &layouts,
                die,
                base_seed: lot.base_seed,
                spares: lot.spares,
                params: lot.params,
                solver: lot.solver,
                adjacent: &lot.adjacent,
            }));
            let end = Instant::now();
            tracer.record("repair.die", t, end, None, REPLAY_JOB);
            us.push((end - t).as_secs_f64() * 1e6);
        }
    }
    out.put("repair.die_us", mean(&us), "us");
    out.put(
        "repair.sat_frac",
        sat_dies as f64 / all_dies.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Typed repair lots of pool entries.
pub fn repair_lots(entries: impl IntoIterator<Item = Entry>) -> Vec<RepairRequest> {
    entries
        .into_iter()
        .filter_map(|e| match gen::parse(&e.json()) {
            RequestKind::Repair(r) => Some(r),
            _ => None,
        })
        .collect()
}

/// `session.hit_ns`: in-process hits on finished keys, in blocks of
/// 10 000 calls; the median of the block means.
pub fn session_hits(keys: usize, mut hit: impl FnMut(usize), out: &mut Layers) {
    let ns = if keys == 0 {
        f64::NAN
    } else {
        median(&time_blocks(15, 10_000, |i| hit(i % keys)))
    };
    out.put("session.hit_ns", ns, "ns");
}

/// `session.{hit_frac, fast_hit_frac, evictions_per_job}` from stats
/// deltas over the timed phase, summed over request classes.
pub fn session_stats(
    before: &cnfet::SessionStats,
    after: &cnfet::SessionStats,
    jobs: usize,
    out: &mut Layers,
) {
    let (mut hits, mut fast, mut misses, mut evictions) = (0u64, 0u64, 0u64, 0u64);
    for (b, a) in classes(before).iter().zip(classes(after)) {
        hits += a.hits - b.hits;
        fast += a.fast_hits - b.fast_hits;
        misses += a.misses - b.misses;
        evictions += a.evictions - b.evictions;
    }
    out.put(
        "session.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.put(
        "session.fast_hit_frac",
        fast as f64 / hits.max(1) as f64,
        "ratio",
    );
    out.put(
        "session.evictions_per_job",
        evictions as f64 / jobs.max(1) as f64,
        "count",
    );
}

fn classes(s: &cnfet::SessionStats) -> [cnfet::RequestStats; 8] {
    [
        s.cells,
        s.libraries,
        s.immunity,
        s.flows,
        s.sweeps,
        s.repairs,
        s.optimizations,
        s.macros,
    ]
}

/// `session.first_row_ms` / `session.reduce_ms` from (start, first
/// harvest, last harvest, end) instants of composite runs.
pub fn harvest(windows: &[(Instant, Instant, Instant, Instant)], out: &mut Layers) {
    let first: Vec<f64> = windows
        .iter()
        .map(|(s, f, ..)| (*f - *s).as_secs_f64() * 1e3)
        .collect();
    let reduce: Vec<f64> = windows
        .iter()
        .map(|(.., l, e)| (*e - *l).as_secs_f64() * 1e3)
        .collect();
    out.put("session.first_row_ms", median(&first), "ms");
    out.put("session.reduce_ms", median(&reduce), "ms");
}

/// `serve.{json_parse, wire_decode, wire_encode, json_render}_us` on
/// the given request bodies and responses (cycled in the given order),
/// each in blocks; returns their sum in µs.
pub fn serve_codec(
    bodies: &[String],
    responses: &[ResponseKind],
    out: &mut Layers,
) -> Result<f64, String> {
    if bodies.is_empty() || responses.is_empty() {
        return Err("no bodies to time".into());
    }
    let parsed: Vec<Json> = bodies
        .iter()
        .map(|b| json::parse(b).map_err(|e| e.message.clone()))
        .collect::<Result<_, _>>()?;
    let encoded: Vec<Json> = responses.iter().map(wire::render_response).collect();
    let (blocks, calls) = (15, 400);
    let us = |means: Vec<f64>| median(&means) / 1e3;
    let parse_us = us(time_blocks(blocks, calls, |i| {
        std::hint::black_box(json::parse(&bodies[i % bodies.len()]).ok());
    }));
    let decode_us = us(time_blocks(blocks, calls, |i| {
        std::hint::black_box(wire::parse_request(&parsed[i % parsed.len()]).ok());
    }));
    let encode_us = us(time_blocks(blocks, calls, |i| {
        std::hint::black_box(wire::render_response(&responses[i % responses.len()]));
    }));
    let render_us = us(time_blocks(blocks, calls, |i| {
        std::hint::black_box(encoded[i % encoded.len()].render());
    }));
    out.put("serve.json_parse_us", parse_us, "us");
    out.put("serve.wire_decode_us", decode_us, "us");
    out.put("serve.wire_encode_us", encode_us, "us");
    out.put("serve.json_render_us", render_us, "us");
    Ok(parse_us + decode_us + encode_us + render_us)
}

/// Cold sweeps streamed per stream probe.
const STREAM_PROBES: usize = 40;

/// A stream whose terminal event trails its last row by more than this
/// has stalled (the handler slept through the job's settlement).
const STALL: Duration = Duration::from_millis(100);

/// `serve.stream_first_row_ms` and `serve.stream_stall_frac`: fresh cold
/// sweeps through `/v1/submit` + `/v1/jobs/{id}/stream`, timed from
/// submit to the first streamed row; the stall share counts streams
/// whose terminal event came more than [`STALL`] after their last row.
pub fn stream_probe(
    client: &mut cnfet_serve::Client,
    seed: u64,
    tracer: &Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    use cnfet_serve::{Format, StreamEvent};
    let mut draws = gen::PoolDraws::new(gen::mix(seed ^ 0x7072_6f62));
    let (mut first, mut stalls) = (Vec::new(), 0usize);
    for _ in 0..STREAM_PROBES {
        let entry = draws.draw(Pool::Sweep).ok_or("sweep pool used up")?;
        let (mut first_row, mut last_row, mut done) = (None, None, None);
        let start = Instant::now();
        client
            .submit_and_stream(&entry.json(), Format::Json, |event| match event {
                StreamEvent::Row { .. } => {
                    let now = Instant::now();
                    first_row.get_or_insert(now);
                    last_row = Some(now);
                }
                StreamEvent::Done(_) => done = Some(Instant::now()),
                _ => {}
            })
            .map_err(|e| e.to_string())?;
        let (f, l, d) = match (first_row, last_row, done) {
            (Some(f), Some(l), Some(d)) => (f, l, d),
            _ => return Err("a cold sweep stream ended without rows or result".into()),
        };
        let root = tracer.record("client.stream", start, d, None, REPLAY_JOB);
        tracer.record("serve.stream_first_row", start, f, Some(root), REPLAY_JOB);
        tracer.record("serve.stream_settle", l, d, Some(root), REPLAY_JOB);
        first.push((f - start).as_secs_f64() * 1e3);
        stalls += usize::from(d - l > STALL);
    }
    out.put("serve.stream_first_row_ms", median(&first), "ms");
    out.put(
        "serve.stream_stall_frac",
        stalls as f64 / STREAM_PROBES as f64,
        "ratio",
    );
    Ok(())
}

/// A served probe for workloads that do not serve: a fresh server on
/// loopback, hits on the warm cells and a few streamed cold sweeps.
/// Fills `serve.*` from the probe's own bodies.
pub fn served_probe(seed: u64, tracer: &Tracer, out: &mut Layers) -> Result<(), String> {
    use cnfet_serve::{Client, ServeConfig, Server};
    let server =
        Server::start(ServeConfig::default().addr("127.0.0.1:0")).map_err(|e| e.to_string())?;
    let result = (|| {
        let mut client = Client::new(server.addr());
        let bodies: Vec<Json> = gen::WARM_CELLS
            .iter()
            .map(|(k, s)| gen::cell_json(k, *s))
            .collect();
        let kinds: Vec<RequestKind> = bodies.iter().map(gen::parse).collect();
        let mut responses = Vec::new();
        for (body, kind) in bodies.iter().zip(&kinds) {
            client
                .request("POST", "/v1/run")
                .body(body)
                .send()
                .map_err(|e| e.to_string())?;
            responses.push(server.session().run(kind).map_err(|e| e.to_string())?);
        }
        let mut rtt = Vec::new();
        for i in 0..3000 {
            let t = Instant::now();
            let r = client
                .request("POST", "/v1/run")
                .body(&bodies[i % bodies.len()])
                .send()
                .map_err(|e| e.to_string())?;
            let end = Instant::now();
            if r.status != 200 {
                return Err(format!("probe hit answered {}", r.status));
            }
            tracer.record("client.hit", t, end, None, REPLAY_JOB);
            rtt.push((end - t).as_secs_f64() * 1e6);
        }
        let session = server.session().clone();
        let mut local = Layers::default();
        session_hits(
            kinds.len(),
            |i| {
                std::hint::black_box(session.run(&kinds[i]).ok());
            },
            &mut local,
        );
        let texts: Vec<String> = bodies.iter().map(Json::render).collect();
        let codec = serve_codec(&texts, &responses, out)?;
        out.put(
            "serve.http_residual_us",
            mean(&rtt) - codec - local.get("session.hit_ns") / 1e3,
            "us",
        );

        stream_probe(&mut client, seed, tracer, out)?;
        Ok(())
    })();
    server.shutdown();
    result
}
