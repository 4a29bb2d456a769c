//! Seeded request generators. Every request a workload sends comes from
//! here: the same workload seed gives the same request list, and the
//! program only ever sees the generated requests.
//!
//! Requests are built as wire JSON and parsed with the server's own
//! decoder ([`cnfet_serve::wire::parse_request`]), so an in-process run
//! and a served run of one spec are the same request.

use cnfet::logic::AdderKind;
use cnfet::{ImmunityRequest, MacroRequest, RepairRequest, RequestKind, SweepRequest};
use cnfet_rng::rngs::StdRng;
use cnfet_rng::{Rng, SeedableRng};
use cnfet_serve::json::Json;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed held out of every tuning run, for checking later claims.
pub const HELD_OUT_SEED: u64 = 2;

/// Cells of the Monte Carlo pool, cycled in this order.
pub const MC_CELLS: [&str; 10] = [
    "inv", "nand2", "nand3", "nor2", "nor3", "aoi21", "aoi22", "aoi31", "oai21", "oai22",
];
/// Pinned seeds per Monte Carlo cell.
pub const MC_SLOTS: usize = 256;
/// Pinned 4-cell × 16-corner immunity sweeps (the last [`SWEEP_RESERVED`]
/// warm the served set).
pub const SWEEP_SLOTS: usize = 2048;
/// Pinned 1000-die repair lots; odd slots carry an adjacency constraint
/// (the last [`REPAIR_RESERVED`] warm the served set).
pub const REPAIR_SLOTS: usize = 1280;
/// Sweep pool entries kept out of the cold streams.
pub const SWEEP_RESERVED: usize = 4;
/// Repair pool entries kept out of the cold streams.
pub const REPAIR_RESERVED: usize = 2;

/// Monte Carlo tubes per immunity request.
pub const MC_TUBES: u64 = 2000;
/// Monte Carlo tubes per sweep corner.
pub const SWEEP_TUBES: u64 = 200;
/// Dies per repair lot.
pub const LOT_DIES: u64 = 1000;
/// Surviving-metallic share of sampled tubes, so failure counts depend
/// on the seed (immune cells never fail at 0).
pub const MC_METALLIC: f64 = 0.01;

const MC_SEED_BASE: u64 = 0x4D43_0000;
const SWEEP_SEED_BASE: u64 = 0x5357_0000;
const REPAIR_SEED_BASE: u64 = 0x5250_0000;
const SWEEP_CELLS: [&str; 4] = ["inv", "nand2", "nor2", "aoi21"];
const TUBE_COUNTS: [u64; 4] = [26, 16, 10, 6];
const METALLIC: [f64; 4] = [0.0, 0.01, 0.02, 0.04];
const REPAIR_CELLS: [&str; 3] = ["inv", "nand2", "nor2"];

/// splitmix64: a well-mixed 64-bit value from a counter.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded generator for one purpose of one workload seed.
fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(purpose)))
}

/// Fisher–Yates shuffle of `0..n`.
fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

fn cells_json(kinds: &[&str]) -> Json {
    Json::Arr(
        kinds
            .iter()
            .map(|k| Json::obj([("kind", Json::str(*k))]))
            .collect(),
    )
}

fn num(x: u64) -> Json {
    Json::Num(x as f64)
}

/// Decodes a generated body; the generator only builds valid requests.
pub fn parse(body: &Json) -> RequestKind {
    cnfet_serve::wire::parse_request(body).expect("generated requests are valid wire requests")
}

// ---------------------------------------------------------------------------
// Pools of pinned requests (immunity_lot and served_mix)
// ---------------------------------------------------------------------------

/// Which pinned pool an entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pool {
    /// 2000-tube Monte Carlo immunity requests.
    Mc,
    /// 4-cell × 16-corner immunity sweeps.
    Sweep,
    /// 1000-die repair lots.
    Repair,
}

impl Pool {
    /// Number of entries.
    pub fn size(self) -> usize {
        match self {
            Pool::Mc => MC_CELLS.len() * MC_SLOTS,
            Pool::Sweep => SWEEP_SLOTS,
            Pool::Repair => REPAIR_SLOTS,
        }
    }

    /// Section name in the expected-values file.
    pub fn name(self) -> &'static str {
        match self {
            Pool::Mc => "mc",
            Pool::Sweep => "sweep",
            Pool::Repair => "repair",
        }
    }

    /// All pools.
    pub const ALL: [Pool; 3] = [Pool::Mc, Pool::Sweep, Pool::Repair];
}

/// One pinned request: a pool and an index into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entry {
    /// The pool.
    pub pool: Pool,
    /// Index within the pool (`mc`: cell-major, `cell * MC_SLOTS + slot`).
    pub index: usize,
}

impl Entry {
    /// The entry's wire request.
    pub fn json(self) -> Json {
        let i = self.index as u64;
        match self.pool {
            Pool::Mc => {
                let cell = MC_CELLS[self.index / MC_SLOTS];
                Json::obj([
                    ("type", Json::str("immunity")),
                    ("cell", Json::obj([("kind", Json::str(cell))])),
                    ("engine", Json::str("monte_carlo")),
                    (
                        "mc",
                        Json::obj([
                            ("tubes", num(MC_TUBES)),
                            ("seed", num(MC_SEED_BASE + i % MC_SLOTS as u64)),
                            ("metallic_fraction", Json::Num(MC_METALLIC)),
                        ]),
                    ),
                ])
            }
            Pool::Sweep => Json::obj([
                ("type", Json::str("sweep")),
                ("cells", cells_json(&SWEEP_CELLS)),
                (
                    "grid",
                    Json::obj([
                        ("tube_counts", Json::Arr(TUBE_COUNTS.map(num).to_vec())),
                        (
                            "metallic_fractions",
                            Json::Arr(METALLIC.map(Json::Num).to_vec()),
                        ),
                        ("seeds", Json::Arr(vec![num(SWEEP_SEED_BASE + i)])),
                    ]),
                ),
                ("metrics", Json::str("immunity")),
                ("mc", Json::obj([("tubes", num(SWEEP_TUBES))])),
            ]),
            Pool::Repair => {
                let mut fields = vec![
                    ("type", Json::str("repair")),
                    ("cells", cells_json(&REPAIR_CELLS)),
                    ("dies", num(LOT_DIES)),
                    ("seed", num(REPAIR_SEED_BASE + i)),
                    ("spares", num(2)),
                    ("solver", Json::str("auto")),
                    (
                        "params",
                        Json::obj([
                            ("metallic_fraction", Json::Num(0.05)),
                            ("misposition_fraction", Json::Num(0.2)),
                        ]),
                    ),
                ];
                if i % 2 == 1 {
                    fields.push(("adjacent", Json::Arr(vec![Json::Arr(vec![num(0), num(1)])])));
                }
                Json::obj(fields)
            }
        }
    }
}

/// A typed request of one pinned entry.
#[derive(Clone, Debug)]
pub enum LotRequest {
    /// Monte Carlo immunity.
    Mc(ImmunityRequest),
    /// Immunity sweep.
    Sweep(SweepRequest),
    /// Repair lot.
    Repair(RepairRequest),
}

impl LotRequest {
    /// The typed request of `entry`.
    pub fn of(entry: Entry) -> LotRequest {
        match parse(&entry.json()) {
            RequestKind::Immunity(r) => LotRequest::Mc(r),
            RequestKind::Sweep(r) => LotRequest::Sweep(r),
            RequestKind::Repair(r) => LotRequest::Repair(r),
            other => unreachable!("pool entries are mc/sweep/repair, not {other:?}"),
        }
    }
}

impl LotRequest {
    /// Cache-missing sub-results of a cold run: sweep rows, repair dies,
    /// or the Monte Carlo request itself.
    pub fn units(&self) -> usize {
        match self {
            LotRequest::Mc(_) => 1,
            LotRequest::Sweep(r) => r.row_count(),
            LotRequest::Repair(r) => r.die_count(),
        }
    }
}

/// Draws pool entries in a seeded order without repeats: the k-th draw
/// of a pool is fixed by the seed, and the cell mix and adjacency share
/// are the same for every seed.
pub struct PoolDraws {
    mc: Vec<usize>,
    sweep: Vec<usize>,
    repair: Vec<usize>,
    next: [usize; 3],
}

impl PoolDraws {
    /// The draw order of `seed`.
    pub fn new(seed: u64) -> PoolDraws {
        let mut r = rng(seed, 0x9001);
        PoolDraws {
            mc: permutation(MC_SLOTS, &mut r),
            sweep: permutation(SWEEP_SLOTS - SWEEP_RESERVED, &mut r),
            repair: permutation((REPAIR_SLOTS - REPAIR_RESERVED) / 2, &mut r),
            next: [0; 3],
        }
    }

    /// The next unused entry of `pool`, or `None` once the pool is used up.
    pub fn draw(&mut self, pool: Pool) -> Option<Entry> {
        let k = self.next[pool as usize];
        let index = match pool {
            // Cells cycle in a fixed order; the seed orders the slots.
            Pool::Mc => {
                let slot = *self.mc.get(k / MC_CELLS.len())?;
                (k % MC_CELLS.len()) * MC_SLOTS + slot
            }
            Pool::Sweep => *self.sweep.get(k)?,
            // Lots alternate plain / adjacency-constrained.
            Pool::Repair => 2 * *self.repair.get(k / 2)? + k % 2,
        };
        self.next[pool as usize] += 1;
        Some(Entry { pool, index })
    }
}

/// The reserved sweep entries (never drawn by a stream).
pub fn reserved_sweeps() -> impl Iterator<Item = Entry> {
    (SWEEP_SLOTS - SWEEP_RESERVED..SWEEP_SLOTS).map(|index| Entry {
        pool: Pool::Sweep,
        index,
    })
}

/// The reserved repair entries (never drawn by a stream).
pub fn reserved_repairs() -> impl Iterator<Item = Entry> {
    (REPAIR_SLOTS - REPAIR_RESERVED..REPAIR_SLOTS).map(|index| Entry {
        pool: Pool::Repair,
        index,
    })
}

/// The immunity_lot stream: cycles of two Monte Carlo requests, two
/// sweeps and one repair lot, in a seeded order within each cycle.
pub struct LotStream {
    draws: PoolDraws,
    order: StdRng,
    cycle: Vec<Pool>,
}

impl LotStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> LotStream {
        LotStream {
            draws: PoolDraws::new(seed),
            order: rng(seed, 0x9002),
            cycle: Vec::new(),
        }
    }
}

impl Iterator for LotStream {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        if self.cycle.is_empty() {
            let pattern = [Pool::Mc, Pool::Mc, Pool::Sweep, Pool::Sweep, Pool::Repair];
            let order = permutation(pattern.len(), &mut self.order);
            self.cycle = order.into_iter().map(|i| pattern[i]).collect();
        }
        let pool = self.cycle.pop()?;
        self.draws.draw(pool)
    }
}

// ---------------------------------------------------------------------------
// Macros (macro_char)
// ---------------------------------------------------------------------------

/// One macro of the macro_char stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MacroSpec {
    /// `"ripple"` or `"cla"`.
    pub kind: &'static str,
    /// 8, 32 or 64.
    pub width: u32,
    /// Wire-load jitter seed (fresh per request).
    pub seed: u64,
}

/// The six macro shapes.
pub const SHAPES: [(&str, u32); 6] = [
    ("ripple", 8),
    ("cla", 8),
    ("ripple", 32),
    ("cla", 32),
    ("ripple", 64),
    ("cla", 64),
];

/// The carry organization of a wire adder kind (`"ripple"` / `"cla"`).
pub fn adder_kind(kind: &str) -> AdderKind {
    if kind == "cla" {
        AdderKind::Cla
    } else {
        AdderKind::Ripple
    }
}

impl MacroSpec {
    /// The wire request.
    pub fn json(&self) -> Json {
        Json::obj([
            ("type", Json::str("macro")),
            ("kind", Json::str(self.kind)),
            ("width", num(u64::from(self.width))),
            ("scheme", Json::str("s2")),
            ("seed", num(self.seed)),
        ])
    }

    /// The typed request.
    pub fn request(&self) -> MacroRequest {
        match parse(&self.json()) {
            RequestKind::Macro(m) => m,
            other => unreachable!("macro specs parse to macros, not {other:?}"),
        }
    }

    /// `ripple64`-style label.
    pub fn shape(&self) -> String {
        format!("{}{}", self.kind, self.width)
    }
}

/// A fresh per-request seed (52 bits, exact through JSON numbers).
fn fresh_seed(seed: u64, purpose: u64, k: u64) -> u64 {
    mix(mix(seed ^ mix(purpose)) ^ k) & ((1 << 52) - 1)
}

/// The macro_char stream: cycles through the six shapes in a seeded
/// order per cycle, each macro with a fresh seed.
pub struct MacroStream {
    seed: u64,
    order: StdRng,
    cycle: Vec<(&'static str, u32)>,
    k: u64,
}

impl MacroStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> MacroStream {
        MacroStream {
            seed,
            order: rng(seed, 0x9003),
            cycle: Vec::new(),
            k: 0,
        }
    }
}

impl Iterator for MacroStream {
    type Item = MacroSpec;

    fn next(&mut self) -> Option<MacroSpec> {
        if self.cycle.is_empty() {
            let order = permutation(SHAPES.len(), &mut self.order);
            self.cycle = order.into_iter().map(|i| SHAPES[i]).collect();
        }
        let (kind, width) = self.cycle.pop()?;
        self.k += 1;
        Some(MacroSpec {
            kind,
            width,
            seed: fresh_seed(self.seed, 0x9004, self.k),
        })
    }
}

// ---------------------------------------------------------------------------
// The served working set (served_mix)
// ---------------------------------------------------------------------------

/// What a rank of the served working set holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Cell,
    Sweep,
    Macro,
    Repair,
}

/// Types of the warm set by popularity rank (rank 1 first). The type of
/// each rank is fixed, so every seed serves the same body-size mix.
const WARM_RANKS: [Slot; 24] = {
    use Slot::{Cell as C, Macro as M, Repair as R, Sweep as S};
    [
        C, S, C, M, C, R, C, C, S, C, M, C, C, R, C, S, C, C, C, S, C, C, C, C,
    ]
};

/// The warm cells (kind, strength).
pub const WARM_CELLS: [(&str, u64); 16] = [
    ("inv", 1),
    ("inv", 2),
    ("inv", 4),
    ("nand2", 1),
    ("nand2", 2),
    ("nand3", 1),
    ("nand4", 1),
    ("nor2", 1),
    ("nor2", 2),
    ("nor3", 1),
    ("nor4", 1),
    ("aoi21", 1),
    ("aoi22", 1),
    ("aoi31", 1),
    ("oai21", 1),
    ("oai22", 1),
];

/// The wire request of a warm cell.
pub fn cell_json(kind: &str, strength: u64) -> Json {
    Json::obj([
        ("type", Json::str("cell")),
        ("kind", Json::str(kind)),
        ("strength", num(strength)),
    ])
}

/// One key of the served working set.
#[derive(Clone, Debug, PartialEq)]
pub enum WarmKey {
    /// A cell report.
    Cell(&'static str, u64),
    /// A reserved sweep entry.
    Sweep(Entry),
    /// A CLA-8 macro.
    Macro(MacroSpec),
    /// A reserved repair entry.
    Repair(Entry),
}

impl WarmKey {
    /// The wire request.
    pub fn json(&self) -> Json {
        match self {
            WarmKey::Cell(kind, strength) => cell_json(kind, *strength),
            WarmKey::Sweep(e) | WarmKey::Repair(e) => e.json(),
            WarmKey::Macro(m) => m.json(),
        }
    }
}

/// The served working set in popularity order, for `seed`: the seed
/// decides which key of a type sits at which of that type's ranks.
pub fn warm_set(seed: u64) -> Vec<WarmKey> {
    let mut r = rng(seed, 0x9005);
    let cells = permutation(WARM_CELLS.len(), &mut r);
    let sweeps: Vec<Entry> = reserved_sweeps().collect();
    let sweep_order = permutation(sweeps.len(), &mut r);
    let repairs: Vec<Entry> = reserved_repairs().collect();
    let repair_order = permutation(repairs.len(), &mut r);
    let mut next = [0usize; 4];
    WARM_RANKS
        .iter()
        .map(|slot| {
            let k = &mut next[*slot as usize];
            *k += 1;
            let i = *k - 1;
            match slot {
                Slot::Cell => {
                    let (kind, strength) = WARM_CELLS[cells[i]];
                    WarmKey::Cell(kind, strength)
                }
                Slot::Sweep => WarmKey::Sweep(sweeps[sweep_order[i]]),
                Slot::Repair => WarmKey::Repair(repairs[repair_order[i]]),
                Slot::Macro => WarmKey::Macro(MacroSpec {
                    kind: "cla",
                    width: 8,
                    seed: fresh_seed(seed, 0x9006, i as u64),
                }),
            }
        })
        .collect()
}

/// One step of the served stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ServedOp {
    /// `/v1/run` on the warm key at this rank (0-based).
    Hit(usize),
    /// A cold sweep through `/v1/submit` + stream.
    Cold(Entry),
}

/// Requests per served step: this many minus one warm lookups, then one
/// cold sweep.
pub const SERVED_STEP: usize = 20;

/// The served_mix stream: Zipf(1)-popular warm lookups with every
/// [`SERVED_STEP`]-th request a cold sweep.
pub struct ServedStream {
    cdf: Vec<f64>,
    pick: StdRng,
    draws: PoolDraws,
    k: usize,
}

impl ServedStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> ServedStream {
        let weights: Vec<f64> = (1..=WARM_RANKS.len()).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ServedStream {
            cdf,
            pick: rng(seed, 0x9007),
            draws: PoolDraws::new(mix(seed ^ 0x9008)),
            k: 0,
        }
    }
}

impl Iterator for ServedStream {
    type Item = ServedOp;

    fn next(&mut self) -> Option<ServedOp> {
        self.k += 1;
        if self.k % SERVED_STEP == 0 {
            return self.draws.draw(Pool::Sweep).map(ServedOp::Cold);
        }
        let u = self.pick.gen_unit();
        let rank = self
            .cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1);
        Some(ServedOp::Hit(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let render = |seed| -> Vec<String> {
            let mut out: Vec<String> = MacroStream::new(seed)
                .take(30)
                .map(|m| m.json().render())
                .collect();
            out.extend(LotStream::new(seed).take(60).map(|e| e.json().render()));
            out.extend(warm_set(seed).iter().map(|k| k.json().render()));
            out.extend(
                ServedStream::new(seed)
                    .take(200)
                    .map(|op| format!("{op:?}")),
            );
            out
        };
        assert_eq!(render(DEFAULT_SEED), render(DEFAULT_SEED));
        assert_ne!(render(DEFAULT_SEED), render(HELD_OUT_SEED));
    }

    #[test]
    fn streams_keep_fixed_proportions_and_never_repeat() {
        let lot: Vec<Entry> = LotStream::new(9).take(500).collect();
        let count = |p| lot.iter().filter(|e| e.pool == p).count();
        assert_eq!(
            (count(Pool::Mc), count(Pool::Sweep), count(Pool::Repair)),
            (200, 200, 100)
        );
        let mut unique = lot.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), lot.len());
        assert!(lot
            .iter()
            .all(|e| !reserved_sweeps().chain(reserved_repairs()).any(|r| r == *e)));
        let adjacent = lot
            .iter()
            .filter(|e| e.pool == Pool::Repair && e.index % 2 == 1)
            .count();
        assert_eq!(adjacent, 50);

        let macros: Vec<MacroSpec> = MacroStream::new(9).take(60).collect();
        for (kind, width) in SHAPES {
            assert_eq!(
                macros
                    .iter()
                    .filter(|m| (m.kind, m.width) == (kind, width))
                    .count(),
                10
            );
        }
        let mut seeds: Vec<u64> = macros.iter().map(|m| m.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 60);
    }

    #[test]
    fn pools_run_dry_instead_of_repeating() {
        let mut draws = PoolDraws::new(3);
        let n = Pool::Repair.size() - REPAIR_RESERVED;
        assert!((0..n).all(|_| draws.draw(Pool::Repair).is_some()));
        assert_eq!(draws.draw(Pool::Repair), None);
    }

    #[test]
    fn every_generated_body_parses() {
        for pool in Pool::ALL {
            for index in [0, pool.size() - 1] {
                LotRequest::of(Entry { pool, index });
            }
        }
        for key in warm_set(DEFAULT_SEED) {
            parse(&key.json());
        }
        assert_eq!(
            MacroStream::new(1).next().expect("endless").request().width % 8,
            0
        );
    }

    #[test]
    fn served_stream_mixes_one_cold_sweep_per_step() {
        let ops: Vec<ServedOp> = ServedStream::new(5).take(2000).collect();
        let cold = ops
            .iter()
            .filter(|op| matches!(op, ServedOp::Cold(_)))
            .count();
        assert_eq!(cold, 2000 / SERVED_STEP);
        let top = ops.iter().filter(|op| **op == ServedOp::Hit(0)).count();
        assert!(
            top > 400 && top < 600,
            "rank 1 holds ~26% of lookups: {top}"
        );
    }
}
