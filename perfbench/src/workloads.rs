//! The three workloads. Each sends a seeded stream of requests from one
//! client thread in a closed loop (the next request goes out when the
//! previous one has returned); the engine pool keeps its default width,
//! one worker per CPU.

use crate::expected::{self, render, Expected};
use crate::gen::{
    self, Entry, LotRequest, LotStream, MacroSpec, MacroStream, Pool, ServedOp, ServedStream,
    WarmKey,
};
use crate::layers::{self, Layers};
use crate::procfs;
use crate::run::{record_job, Bench, Harvest, Sample};
use crate::stats::{mean, median, time_blocks};
use crate::trace::Tracer;
use cnfet::core::StdCellKind;
use cnfet::immunity::McOptions;
use cnfet::logic::AdderPlan;
use cnfet::{
    CellRequest, DieObserver, MacroReport, RequestKind, ResponseKind, RowObserver, Session,
    SliceObserver,
};
use cnfet_serve::json::Json;
use cnfet_serve::{Client, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Finished keys the repeated-request blocks cycle through.
const HIT_KEYS: usize = 64;
/// Time budget of each sampled layer replay.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// An in-process cold request of `units` cache-missing sub-results.
fn cold_sample(start: Instant, end: Instant, units: usize, ok: bool) -> Sample {
    let wall = secs(start, end);
    Sample {
        job_s: Some(wall),
        miss_s: Some(wall / units.max(1) as f64),
        ok,
        ..Sample::default()
    }
}

/// Mean µs per call of one block of `calls` repeated requests cycling
/// through `keys` finished keys (`None` before any key finished).
fn hit_block(keys: usize, calls: usize, mut hit: impl FnMut(usize)) -> Option<f64> {
    (keys > 0).then(|| time_blocks(1, calls, |i| hit(i % keys))[0] / 1e3)
}

/// Wire loads of a macro's slices, as the program derives them.
fn spec_loads(spec: &MacroSpec) -> Vec<f64> {
    let plan = AdderPlan::new(gen::adder_kind(spec.kind), spec.width);
    (0..spec.width)
        .map(|bit| expected::slice_load(spec.seed, bit, plan.fanout_of(bit) as u32))
        .collect()
}

/// Runs the reserved repair lots and counts (SAT dies, all dies).
fn reserved_lots(session: &Session) -> Result<(Vec<cnfet::RepairRequest>, usize, usize), String> {
    let lots = layers::repair_lots(gen::reserved_repairs());
    let (mut sat, mut all) = (0, 0);
    for lot in &lots {
        let report = session.run(lot).map_err(|e| e.to_string())?;
        sat += report.dies.iter().filter(|d| d.solver == "sat").count();
        all += report.dies.len();
    }
    Ok((lots, sat, all))
}

/// Monte Carlo probe runs of the AOI22 pool entries.
fn aoi22_runs() -> Vec<(CellRequest, McOptions)> {
    let cell = gen::MC_CELLS
        .iter()
        .position(|c| *c == "aoi22")
        .expect("aoi22 is pooled");
    (0..4)
        .flat_map(|slot| {
            layers::mc_runs(Entry {
                pool: Pool::Mc,
                index: cell * gen::MC_SLOTS + slot,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// macro_char
// ---------------------------------------------------------------------------

/// Cold `MacroRequest`s over {ripple, cla} × {8, 32, 64}: every bit
/// slice misses, every full-adder sub-cell hits.
pub struct MacroChar {
    seed: u64,
    exp: Arc<Expected>,
    session: Option<Session>,
    stream: MacroStream,
    runs: Vec<(MacroSpec, Result<Arc<MacroReport>, String>)>,
    keys: Vec<cnfet::MacroRequest>,
    windows: Vec<(Instant, Instant, Instant, Instant)>,
}

impl MacroChar {
    /// The workload for `seed`.
    pub fn new(seed: u64, exp: Arc<Expected>) -> MacroChar {
        MacroChar {
            seed,
            exp,
            session: None,
            stream: MacroStream::new(seed),
            runs: Vec::new(),
            keys: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Splits cold CLA-64 macros into characterization, assembly, reduce
    /// and the residual, for standard error.
    fn split(&self, session: &Session, tracer: &Tracer) -> Result<String, String> {
        let nproc = procfs::nproc() as f64;
        let mut rows: Vec<[f64; 6]> = Vec::new();
        for k in 0..3u64 {
            let spec = MacroSpec {
                kind: "cla",
                width: 64,
                seed: gen::mix(self.seed ^ 0x5311_7000 ^ k) & ((1 << 52) - 1),
            };
            let harvest = Arc::new(Harvest::default());
            let h = harvest.clone();
            let request = spec
                .request()
                .observe_slices(SliceObserver::new(move |_, _| h.mark()));
            let cpu0 = procfs::cpu_seconds()?;
            let start = Instant::now();
            let report = session.run(&request).map_err(|e| e.to_string())?;
            let end = Instant::now();
            let cpu = procfs::cpu_seconds()? - cpu0;
            self.exp.check_macro(&spec, &report)?;
            let (_, _, last, _) = record_job(
                tracer,
                "split.cla64",
                u64::MAX - 1 - k,
                start,
                end,
                harvest.window(),
            )
            .ok_or("no slice harvested")?;
            let mut replay = Layers::default();
            let loads: Vec<f64> = report.slices.iter().map(|s| s.load_f).collect();
            layers::dk(
                session,
                &loads,
                Duration::from_secs(60),
                tracer,
                &mut replay,
            )?;
            layers::flow(session, &[("cla", 64)], tracer, &mut replay)?;
            let dk_ms = replay.get("dk.char_ms") * 3.0 * loads.len() as f64;
            let hier_ms = replay.get("flow.hier_ms");
            rows.push([
                secs(start, end) * 1e3,
                secs(start, last) * 1e3,
                secs(last, end) * 1e3,
                dk_ms,
                hier_ms,
                cpu * 1e3,
            ]);
        }
        let col = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        let (wall, fanout, reduce, dk, hier, cpu) =
            (col(0), col(1), col(2), col(3), col(4), col(5));
        Ok(format!(
            "cold CLA-64 split (median of 3, {nproc} CPUs):\n  wall            {wall:8.1} ms = fan-out {fanout:.1} + reduce {reduce:.1}\n  dk+mna char     {dk:8.1} ms CPU over 192 replayed calls = {:.1} ms of wall at {nproc} CPUs\n  flow hier       {hier:8.1} ms (inside reduce)\n  session reduce  {:8.1} ms (reduce minus hier: library hit, critical path, report)\n  residual        {:8.1} ms (fan-out wall not covered by char CPU / CPUs: waiting, pool, cell hits)\n  process CPU     {cpu:8.1} ms, busy {:.2} of {nproc} CPUs",
            dk / nproc,
            reduce - hier,
            fanout - dk / nproc,
            cpu / (wall * nproc)
        ))
    }
}

impl Bench for MacroChar {
    fn setups(&self) -> usize {
        5
    }

    fn setup(&mut self) -> Result<(), String> {
        let session = Session::new();
        // The warm-up every process pays: full-adder sub-cells, the
        // library and the MNA pattern cache, through one small macro.
        let warm = MacroSpec {
            kind: "ripple",
            width: 8,
            seed: 0,
        };
        let report = session.run(&warm.request()).map_err(|e| e.to_string())?;
        self.exp.check_macro(&warm, &report)?;
        self.session = Some(session);
        Ok(())
    }

    fn step(&mut self, tracer: Option<&Tracer>, job: u64) -> Option<Sample> {
        let spec = self.stream.next()?;
        let harvest = Arc::new(Harvest::default());
        let mut request = spec.request();
        if tracer.is_some() {
            let h = harvest.clone();
            request = request.observe_slices(SliceObserver::new(move |_, _| h.mark()));
        }
        let session = self
            .session
            .as_ref()
            .expect("set up before the timed phase");
        let start = Instant::now();
        let result = session.run(&request);
        let end = Instant::now();
        if let Some(tracer) = tracer {
            self.windows.extend(record_job(
                tracer,
                "job.macro",
                job,
                start,
                end,
                harvest.window(),
            ));
        }
        let ok = result.is_ok();
        self.runs.push((spec, result.map_err(|e| e.to_string())));
        Some(cold_sample(start, end, spec.width as usize, ok))
    }

    fn check(&mut self, samples: &mut [Sample]) -> Vec<String> {
        let mut failures = Vec::new();
        for ((spec, result), sample) in self.runs.iter().zip(samples.iter_mut()) {
            let verdict = result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| self.exp.check_macro(spec, r));
            if let Err(e) = verdict {
                sample.ok = false;
                failures.push(format!("check failed: {e}"));
            }
        }
        failures
    }

    fn hit_block(&mut self, _step: usize) -> Option<f64> {
        // One block of 1000 lookups (~1 ms) after every macro.
        if self.keys.len() < HIT_KEYS {
            if let Some((spec, Ok(_))) = self.runs.last() {
                self.keys.push(spec.request());
            }
        }
        let session = self
            .session
            .as_ref()
            .expect("set up before the timed phase");
        let keys = &self.keys;
        hit_block(keys.len(), 1000, |i| {
            std::hint::black_box(session.run(&keys[i]).ok());
        })
    }

    fn session(&self) -> Session {
        self.session.clone().expect("set up before use")
    }

    fn layers(
        &mut self,
        _samples: &[Sample],
        tracer: &Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let session = self.session();
        layers::mna(&session, tracer, out)?;
        let loads: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .flat_map(|r| r.slices.iter().map(|s| s.load_f))
            .collect();
        layers::dk(&session, &loads, REPLAY_BUDGET * 2, tracer, out)?;
        let shapes: Vec<(&str, u32)> = self
            .runs
            .iter()
            .take(24)
            .map(|(s, _)| (s.kind, s.width))
            .collect();
        layers::flow(&session, &shapes, tracer, out)?;
        let fa_mix = [
            (StdCellKind::Nand(2), 2),
            (StdCellKind::Inv, 4),
            (StdCellKind::Inv, 7),
            (StdCellKind::Inv, 9),
        ];
        layers::core(&session, &fa_mix, true, tracer, out)?;
        layers::immunity(&session, &aoi22_runs(), REPLAY_BUDGET, tracer, out)?;
        let (lots, sat, all) = reserved_lots(&session)?;
        layers::repair(&session, &lots, sat, all, REPLAY_BUDGET, tracer, out)?;
        let keys = &self.keys;
        layers::session_hits(
            keys.len(),
            |i| {
                std::hint::black_box(session.run(&keys[i]).ok());
            },
            out,
        );
        layers::harvest(&self.windows, out);
        layers::served_probe(self.seed, tracer, out)?;
        eprintln!("{}", self.split(&session, tracer)?);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// immunity_lot
// ---------------------------------------------------------------------------

/// Monte Carlo immunity requests, immunity sweeps and repair lots from
/// the pinned pools, two : two : one.
pub struct Lot {
    seed: u64,
    exp: Arc<Expected>,
    session: Option<Session>,
    stream: LotStream,
    runs: Vec<(Entry, Result<ResponseKind, String>)>,
    keys: Vec<LotRequest>,
    windows: Vec<(Instant, Instant, Instant, Instant)>,
}

impl Lot {
    /// The workload for `seed`.
    pub fn new(seed: u64, exp: Arc<Expected>) -> Lot {
        Lot {
            seed,
            exp,
            session: None,
            stream: LotStream::new(seed),
            runs: Vec::new(),
            keys: Vec::new(),
            windows: Vec::new(),
        }
    }
}

/// Runs a typed lot request, optionally observed.
fn run_lot(session: &Session, request: &LotRequest) -> cnfet::Result<ResponseKind> {
    match request {
        LotRequest::Mc(r) => session.run(r).map(ResponseKind::Immunity),
        LotRequest::Sweep(r) => session.run(r).map(ResponseKind::Sweep),
        LotRequest::Repair(r) => session.run(r).map(ResponseKind::Repair),
    }
}

fn observed(request: LotRequest, harvest: &Arc<Harvest>) -> LotRequest {
    let h = harvest.clone();
    match request {
        LotRequest::Sweep(r) => {
            LotRequest::Sweep(r.observe_rows(RowObserver::new(move |_, _| h.mark())))
        }
        LotRequest::Repair(r) => {
            LotRequest::Repair(r.observe_dies(DieObserver::new(move |_, _| h.mark())))
        }
        mc => mc,
    }
}

impl Bench for Lot {
    fn setups(&self) -> usize {
        5
    }

    fn setup(&mut self) -> Result<(), String> {
        let session = Session::new();
        // The warm-up every process pays: the lot's cells, and one
        // request of each type (reserved entries and an unpooled seed).
        for kind in gen::MC_CELLS {
            session
                .run(&gen::parse(&Json::obj([
                    ("type", Json::str("cell")),
                    ("kind", Json::str(kind)),
                ])))
                .map_err(|e| e.to_string())?;
        }
        for entry in [
            gen::reserved_sweeps().next(),
            gen::reserved_repairs().next(),
        ]
        .into_iter()
        .flatten()
        {
            let response = run_lot(&session, &LotRequest::of(entry)).map_err(|e| e.to_string())?;
            self.exp.check_pool(entry, &render(&response))?;
        }
        let (cell, opts) = aoi22_runs().swap_remove(0);
        session
            .run(&cnfet::ImmunityRequest::monte_carlo(
                cell,
                McOptions { seed: 0, ..opts },
            ))
            .map_err(|e| e.to_string())?;
        self.session = Some(session);
        Ok(())
    }

    fn step(&mut self, tracer: Option<&Tracer>, job: u64) -> Option<Sample> {
        let entry = self.stream.next()?;
        let harvest = Arc::new(Harvest::default());
        let mut request = LotRequest::of(entry);
        let units = request.units();
        if tracer.is_some() {
            request = observed(request, &harvest);
        }
        let session = self
            .session
            .as_ref()
            .expect("set up before the timed phase");
        let start = Instant::now();
        let result = run_lot(session, &request);
        let end = Instant::now();
        let window = harvest.window();
        if let Some(tracer) = tracer {
            let name = match entry.pool {
                Pool::Mc => "job.mc",
                Pool::Sweep => "job.sweep",
                Pool::Repair => "job.repair",
            };
            self.windows
                .extend(record_job(tracer, name, job, start, end, window));
            if window.is_none() {
                tracer.record(name, start, end, None, job);
            }
        }
        let ok = result.is_ok();
        self.runs.push((entry, result.map_err(|e| e.to_string())));
        Some(cold_sample(start, end, units, ok))
    }

    fn check(&mut self, samples: &mut [Sample]) -> Vec<String> {
        let mut failures = Vec::new();
        for ((entry, result), sample) in self.runs.iter().zip(samples.iter_mut()) {
            let verdict = result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| self.exp.check_pool(*entry, &render(r)));
            if let Err(e) = verdict {
                sample.ok = false;
                failures.push(format!("check failed: {e}"));
            }
        }
        failures
    }

    fn hit_block(&mut self, step: usize) -> Option<f64> {
        // One block of 250 lookups (~2 ms) after every eighth request.
        if self.keys.len() < HIT_KEYS {
            if let Some((entry, Ok(_))) = self.runs.last() {
                self.keys.push(LotRequest::of(*entry));
            }
        }
        if step % 8 != 0 {
            return None;
        }
        let session = self
            .session
            .as_ref()
            .expect("set up before the timed phase");
        let keys = &self.keys;
        hit_block(keys.len(), 250, |i| {
            std::hint::black_box(run_lot(session, &keys[i]).ok());
        })
    }

    fn session(&self) -> Session {
        self.session.clone().expect("set up before use")
    }

    fn layers(
        &mut self,
        _samples: &[Sample],
        tracer: &Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let session = self.session();
        layers::mna(&session, tracer, out)?;
        let probe: Vec<f64> = ["ripple", "cla"]
            .iter()
            .flat_map(|kind| {
                spec_loads(&MacroSpec {
                    kind,
                    width: 8,
                    seed: 1,
                })
            })
            .collect();
        layers::dk(&session, &probe, REPLAY_BUDGET, tracer, out)?;
        layers::flow(&session, &[("cla", 64)], tracer, out)?;
        let cells: Vec<(StdCellKind, u8)> = gen::MC_CELLS
            .iter()
            .map(|k| {
                match gen::parse(&Json::obj([
                    ("type", Json::str("cell")),
                    ("kind", Json::str(*k)),
                ])) {
                    RequestKind::Cell(c) => (c.kind, 1),
                    _ => unreachable!("cell bodies parse to cells"),
                }
            })
            .collect();
        layers::core(&session, &cells, false, tracer, out)?;
        let mc: Vec<(CellRequest, McOptions)> = self
            .runs
            .iter()
            .filter(|(e, _)| e.pool == Pool::Mc)
            .flat_map(|(e, _)| layers::mc_runs(*e))
            .collect();
        layers::immunity(&session, &mc, REPLAY_BUDGET, tracer, out)?;
        let (mut sat, mut all) = (0, 0);
        for (_, result) in &self.runs {
            if let Ok(ResponseKind::Repair(report)) = result {
                sat += report.dies.iter().filter(|d| d.solver == "sat").count();
                all += report.dies.len();
            }
        }
        let lots = layers::repair_lots(
            self.runs
                .iter()
                .map(|(e, _)| *e)
                .filter(|e| e.pool == Pool::Repair)
                .take(8),
        );
        layers::repair(&session, &lots, sat, all, REPLAY_BUDGET, tracer, out)?;
        let keys = &self.keys;
        layers::session_hits(
            keys.len(),
            |i| {
                std::hint::black_box(run_lot(&session, &keys[i]).ok());
            },
            out,
        );
        layers::harvest(&self.windows, out);
        layers::served_probe(self.seed, tracer, out)
    }
}

// ---------------------------------------------------------------------------
// served_mix
// ---------------------------------------------------------------------------

/// Per-class cache bound of the served engine: the Sweeps class fills
/// with cold sweeps (65 entries each) after about 30 of them, so cold
/// inserts evict warm entries, while the two warm repair lots (2002
/// entries) still fit their class.
pub const SERVED_CACHE_CAPACITY: usize = 2048;

/// One cold served sweep, checked after the run.
struct Cold {
    sample: usize,
    entry: Entry,
    body: Result<String, String>,
}

/// Warm `/v1/run` lookups over one keep-alive connection, with one cold
/// immunity sweep per [`gen::SERVED_STEP`] requests. One loop iteration
/// (the warm lookups and the cold sweep) is a served job.
pub struct Served {
    seed: u64,
    exp: Arc<Expected>,
    server: Option<Server>,
    client: Option<Client>,
    warm: Vec<WarmKey>,
    bodies: Vec<Json>,
    kinds: Vec<RequestKind>,
    responses: Vec<ResponseKind>,
    reference: Vec<Vec<u8>>,
    stream: ServedStream,
    colds: Vec<Cold>,
    hit_ranks: Vec<usize>,
    iteration_start: Option<Instant>,
}

impl Served {
    /// The workload for `seed`.
    pub fn new(seed: u64, exp: Arc<Expected>) -> Served {
        let warm = gen::warm_set(seed);
        let bodies: Vec<Json> = warm.iter().map(WarmKey::json).collect();
        Served {
            seed,
            exp,
            server: None,
            client: None,
            kinds: bodies.iter().map(gen::parse).collect(),
            warm,
            bodies,
            responses: Vec::new(),
            reference: Vec::new(),
            stream: ServedStream::new(seed),
            colds: Vec::new(),
            hit_ranks: Vec::new(),
            iteration_start: None,
        }
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("set up before use")
    }

    /// Checks a warm key's in-process result against the pinned values.
    fn check_warm(&self, key: &WarmKey, response: &ResponseKind, body: &str) -> Result<(), String> {
        match (key, response) {
            (WarmKey::Cell(kind, strength), _) => self.exp.check_cell(kind, *strength, body),
            (WarmKey::Sweep(e) | WarmKey::Repair(e), _) => self.exp.check_pool(*e, body),
            (WarmKey::Macro(spec), ResponseKind::Macro(report)) => {
                self.exp.check_macro(spec, report)
            }
            (WarmKey::Macro(_), other) => Err(format!("macro answered {other:?}")),
        }
    }
}

impl Bench for Served {
    fn setups(&self) -> usize {
        5
    }

    fn teardown(&mut self) {
        self.client = None;
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    fn setup(&mut self) -> Result<(), String> {
        let config = ServeConfig::default()
            .addr("127.0.0.1:0")
            .cache_capacity(SERVED_CACHE_CAPACITY);
        let server = Server::start(config).map_err(|e| e.to_string())?;
        let mut client = Client::new(server.addr());
        let (mut responses, mut reference) = (Vec::new(), Vec::new());
        // Warm the working set over the wire; the in-process rendering
        // of each (now cached) result is what every hit must answer.
        for ((key, body), kind) in self.warm.iter().zip(&self.bodies).zip(&self.kinds) {
            let first = client
                .request("POST", "/v1/run")
                .body(body)
                .send()
                .map_err(|e| e.to_string())?;
            if first.status != 200 {
                return Err(format!("warm-up of {key:?} answered {}", first.status));
            }
            let response = server.session().run(kind).map_err(|e| e.to_string())?;
            let text = render(&response);
            self.check_warm(key, &response, &text)?;
            let hit = client
                .request("POST", "/v1/run")
                .body(body)
                .send()
                .map_err(|e| e.to_string())?;
            if hit.bytes != text.as_bytes() {
                return Err(format!(
                    "served body of {key:?} differs from the in-process run"
                ));
            }
            responses.push(response);
            reference.push(text.into_bytes());
        }
        self.responses = responses;
        self.reference = reference;
        self.client = Some(client);
        self.server = Some(server);
        Ok(())
    }

    fn step(&mut self, tracer: Option<&Tracer>, job: u64) -> Option<Sample> {
        let op = self.stream.next()?;
        let client = self.client.as_mut().expect("set up before the timed phase");
        let (body, name) = match &op {
            ServedOp::Hit(rank) => (&self.bodies[*rank], "client.hit"),
            ServedOp::Cold(entry) => (&entry.json(), "client.cold"),
        };
        let start = Instant::now();
        let answer = client.request("POST", "/v1/run").body(body).send();
        let end = Instant::now();
        if let Some(tracer) = tracer {
            tracer.record(name, start, end, None, job);
        }
        let iteration_start = *self.iteration_start.get_or_insert(start);
        let round_trip = secs(start, end);
        match op {
            ServedOp::Hit(rank) => {
                self.hit_ranks.push(rank);
                Some(Sample {
                    hit_us: Some(round_trip * 1e6),
                    ok: matches!(&answer, Ok(r) if r.status == 200 && r.bytes == self.reference[rank]),
                    ..Sample::default()
                })
            }
            ServedOp::Cold(entry) => {
                self.iteration_start = None;
                let body = match answer {
                    Ok(r) if r.status == 200 => {
                        String::from_utf8(r.bytes).map_err(|e| e.to_string())
                    }
                    Ok(r) => Err(format!("status {}", r.status)),
                    Err(e) => Err(e.to_string()),
                };
                let ok = body.is_ok();
                self.colds.push(Cold {
                    sample: job as usize,
                    entry,
                    body,
                });
                Some(Sample {
                    job_s: Some(secs(iteration_start, end)),
                    miss_s: Some(round_trip),
                    ok,
                    ..Sample::default()
                })
            }
        }
    }

    fn check(&mut self, samples: &mut [Sample]) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            if !s.ok && s.hit_us.is_some() {
                failures.push(format!(
                    "check failed: served hit #{i} answered a wrong body or status"
                ));
            }
        }
        for cold in &self.colds {
            let verdict = cold
                .body
                .clone()
                .and_then(|body| self.exp.check_pool(cold.entry, &body));
            if let Err(e) = verdict {
                samples[cold.sample].ok = false;
                failures.push(format!("check failed: cold sweep: {e}"));
            }
        }
        failures
    }

    fn hit_block(&mut self, _step: usize) -> Option<f64> {
        None
    }

    fn session(&self) -> Session {
        self.server().session().clone()
    }

    fn layers(
        &mut self,
        samples: &[Sample],
        tracer: &Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let session = self.session();
        layers::mna(&session, tracer, out)?;
        let macros: Vec<MacroSpec> = self
            .warm
            .iter()
            .filter_map(|k| match k {
                WarmKey::Macro(m) => Some(*m),
                _ => None,
            })
            .collect();
        let loads: Vec<f64> = macros.iter().flat_map(spec_loads).collect();
        layers::dk(&session, &loads, REPLAY_BUDGET, tracer, out)?;
        let shapes: Vec<(&str, u32)> = macros.iter().map(|m| (m.kind, m.width)).collect();
        layers::flow(&session, &shapes, tracer, out)?;
        let cells: Vec<(StdCellKind, u8)> = self
            .kinds
            .iter()
            .filter_map(|k| match k {
                RequestKind::Cell(c) => Some((c.kind, c.strength.max(1))),
                _ => None,
            })
            .collect();
        layers::core(&session, &cells, false, tracer, out)?;
        let mc: Vec<(CellRequest, McOptions)> = self
            .colds
            .iter()
            .take(4)
            .flat_map(|c| layers::mc_runs(c.entry))
            .collect();
        layers::immunity(&session, &mc, REPLAY_BUDGET, tracer, out)?;
        let (mut sat, mut all) = (0, 0);
        for response in &self.responses {
            if let ResponseKind::Repair(report) = response {
                sat += report.dies.iter().filter(|d| d.solver == "sat").count();
                all += report.dies.len();
            }
        }
        let lots = layers::repair_lots(self.warm.iter().filter_map(|k| match k {
            WarmKey::Repair(e) => Some(*e),
            _ => None,
        }));
        layers::repair(&session, &lots, sat, all, REPLAY_BUDGET, tracer, out)?;
        // Sub-result windows of fresh sweeps run in process on the
        // server's engine (the wire hides them).
        let mut draws = gen::PoolDraws::new(gen::mix(self.seed ^ 0x6861_7276));
        let mut windows = Vec::new();
        for _ in 0..10 {
            let entry = draws.draw(Pool::Sweep).ok_or("sweep pool used up")?;
            let harvest = Arc::new(Harvest::default());
            let request = observed(LotRequest::of(entry), &harvest);
            let start = Instant::now();
            run_lot(&session, &request).map_err(|e| e.to_string())?;
            let end = Instant::now();
            windows.extend(record_job(
                tracer,
                "job.sweep",
                u64::MAX - 10,
                start,
                end,
                harvest.window(),
            ));
        }
        layers::harvest(&windows, out);

        // Engine-hit and codec costs on the keys the stream actually
        // looked up, in its order, so they add up against the mean hit.
        let order: Vec<usize> = self.hit_ranks.iter().take(1000).copied().collect();
        let mut hit = Layers::default();
        layers::session_hits(
            order.len(),
            |i| {
                std::hint::black_box(session.run(&self.kinds[order[i]]).ok());
            },
            &mut hit,
        );
        let hit_ns = hit.get("session.hit_ns");
        out.0.extend(hit.0);
        let texts: Vec<String> = order.iter().map(|r| self.bodies[*r].render()).collect();
        let responses: Vec<ResponseKind> =
            order.iter().map(|r| self.responses[*r].clone()).collect();
        let codec = layers::serve_codec(&texts, &responses, out)?;
        let hits: Vec<f64> = samples
            .iter()
            .filter(|s| !s.traced)
            .filter_map(|s| s.hit_us)
            .collect();
        out.put(
            "serve.http_residual_us",
            mean(&hits) - codec - hit_ns / 1e3,
            "us",
        );
        let client = self.client.as_mut().expect("set up before use");
        layers::stream_probe(client, self.seed, tracer, out)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.teardown();
    }
}
