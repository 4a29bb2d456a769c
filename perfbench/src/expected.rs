//! Expected outputs, generated once at a pinned commit and kept in
//! `expected/`, and the checks that compare a run's outputs with them.
//!
//! * Deterministic outputs are compared exactly: wire-response digests
//!   of every pinned pool entry (Monte Carlo failure counts, sweep rows,
//!   repair assignments and yields), warm cell reports, and per macro
//!   shape the gate count, area, slice fan-outs, SPICE and GDS bytes.
//! * Simulated delays are compared with a stated relative tolerance,
//!   [`DELAY_REL_TOL`], against delay-versus-load curves of the three
//!   characterized sub-cells, so a change of numerics (e.g. a new step
//!   policy) passes while a wrong delay fails.

use crate::gen::{self, Entry, Pool, SHAPES, WARM_CELLS};
use cnfet::core::{Scheme, StdCellKind};
use cnfet::dk::{self, CellLibrary, CharCorner, LibCell};
use cnfet::logic::{AdderKind, AdderPlan};
use cnfet::{CellRequest, MacroReport, ResponseKind, Session};
use cnfet_rng::rngs::StdRng;
use cnfet_rng::{Rng, SeedableRng};
use cnfet_serve::wire::render_response;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Relative tolerance on simulated delays (slice arcs, critical path).
pub const DELAY_REL_TOL: f64 = 0.02;

/// Geometric spacing of the delay-versus-load curves.
const CURVE_STEP: f64 = 1.02;

/// FNV-1a, 64 bits.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a folded to 32 bits (pool digests).
pub fn fnv32(bytes: &[u8]) -> u32 {
    let h = fnv64(bytes);
    (h ^ (h >> 32)) as u32
}

/// The directory holding the expected-value files.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// A delay-versus-load curve, linearly interpolated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Curve {
    loads: Vec<f64>,
    delays: Vec<f64>,
}

impl Curve {
    /// Delay at `load`, interpolated (clamped at the ends).
    pub fn at(&self, load: f64) -> f64 {
        let i = self.loads.partition_point(|l| *l < load);
        if i == 0 {
            return self.delays[0];
        }
        if i == self.loads.len() {
            return self.delays[i - 1];
        }
        let t = (load - self.loads[i - 1]) / (self.loads[i] - self.loads[i - 1]);
        self.delays[i - 1] + t * (self.delays[i] - self.delays[i - 1])
    }
}

/// Pinned structure of one macro shape (independent of the seed).
#[derive(Clone, Debug, PartialEq)]
pub struct ShapePin {
    gates: usize,
    fa: usize,
    area_bits: u64,
    spice: u64,
    gds: u64,
    depth: u32,
    fanouts: Vec<u32>,
}

/// Everything a run checks against.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    pools: BTreeMap<Pool, Vec<u32>>,
    cells: BTreeMap<(String, u64), u64>,
    shapes: BTreeMap<String, ShapePin>,
    cin_nand_f: f64,
    curves: BTreeMap<String, Curve>,
}

/// The sub-cells a bit slice characterizes: NAND2_X2 and INV_X4 at the
/// internal load, INV_X9 at the slice's wire load.
const SLICE_CELLS: [(&str, StdCellKind, u8); 3] = [
    ("nand2_x2", StdCellKind::Nand(2), 2),
    ("inv_x4", StdCellKind::Inv, 4),
    ("inv_x9", StdCellKind::Inv, 9),
];

/// A slice's wire load, as the macro layer derives it from the seed.
pub fn slice_load(seed: u64, bit: u32, fanout: u32) -> f64 {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_add(u64::from(bit).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let jitter: f64 = rng.gen_range(-1.0..1.0);
    2.0e-15 * (1.0 + 0.25 * jitter) * (1.0 + 0.15 * f64::from(fanout))
}

impl Expected {
    /// Loads `expected/` (an error when a file is missing or malformed).
    pub fn load() -> Result<Expected, String> {
        let dir = dir();
        let mut exp = Expected::default();
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        let pools = read("pools.txt")?;
        let mut current: Option<(Pool, usize)> = None;
        for line in pools
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let mut words = line.split_whitespace();
            let head = words.next().unwrap_or_default();
            if let Some(pool) = Pool::ALL.into_iter().find(|p| p.name() == head) {
                let n: usize = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or("pools.txt: bad header")?;
                current = Some((pool, n));
                exp.pools.insert(pool, Vec::with_capacity(n));
                continue;
            }
            let (pool, _) = current.ok_or("pools.txt: digest before a header")?;
            let digest =
                u32::from_str_radix(head, 16).map_err(|e| format!("pools.txt: {line}: {e}"))?;
            exp.pools
                .get_mut(&pool)
                .expect("inserted at header")
                .push(digest);
        }
        for pool in Pool::ALL {
            let n = exp.pools.get(&pool).map_or(0, Vec::len);
            if n != pool.size() {
                return Err(format!(
                    "pools.txt: {} has {n} digests, want {}",
                    pool.name(),
                    pool.size()
                ));
            }
        }

        let macros = read("macro.txt")?;
        let mut curve: Option<String> = None;
        for line in macros
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let w: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("macro.txt: bad line `{line}`");
            let f = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let u = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let h = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            match w.as_slice() {
                ["cin_nand2_x2", v] => exp.cin_nand_f = f(v)?,
                ["shape", kind, width, "gates", g, "fa", fa, "area", a, "spice", s, "gds", d, "depth", dep, "fanouts", fans] =>
                {
                    let fanouts = fans
                        .split(',')
                        .map(|x| x.parse::<u32>().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?;
                    exp.shapes.insert(
                        format!("{kind}{width}"),
                        ShapePin {
                            gates: u(g)? as usize,
                            fa: u(fa)? as usize,
                            area_bits: h(a)?,
                            spice: h(s)?,
                            gds: h(d)?,
                            depth: u(dep)? as u32,
                            fanouts,
                        },
                    );
                }
                ["curve", name] => {
                    curve = Some(name.to_string());
                    exp.curves.insert(name.to_string(), Curve::default());
                }
                ["cell", kind, strength, digest] => {
                    exp.cells
                        .insert((kind.to_string(), u(strength)?), h(digest)?);
                }
                [load, delay] => {
                    let c = exp
                        .curves
                        .get_mut(curve.as_deref().ok_or_else(bad)?)
                        .ok_or_else(bad)?;
                    c.loads.push(f(load)?);
                    c.delays.push(f(delay)?);
                }
                _ => return Err(bad()),
            }
        }
        if exp.shapes.len() != SHAPES.len()
            || exp.cells.len() != WARM_CELLS.len()
            || SLICE_CELLS
                .iter()
                .any(|(n, ..)| exp.curves.get(*n).map_or(true, |c| c.loads.is_empty()))
            || exp.cin_nand_f <= 0.0
        {
            return Err("macro.txt: incomplete".into());
        }
        Ok(exp)
    }

    /// Checks a pool entry's wire rendering.
    pub fn check_pool(&self, entry: Entry, body: &str) -> Result<(), String> {
        let want = self.pools[&entry.pool][entry.index];
        let got = fnv32(body.as_bytes());
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{} #{}: digest {got:08x}, want {want:08x}",
                entry.pool.name(),
                entry.index
            ))
        }
    }

    /// Checks a warm cell report's wire rendering.
    pub fn check_cell(&self, kind: &str, strength: u64, body: &str) -> Result<(), String> {
        let want = self
            .cells
            .get(&(kind.to_string(), strength))
            .ok_or("unknown warm cell")?;
        let got = fnv64(body.as_bytes());
        if got == *want {
            Ok(())
        } else {
            Err(format!(
                "cell {kind} x{strength}: digest {got:016x}, want {want:016x}"
            ))
        }
    }

    /// Reference (sum, carry) arc delays of one slice at its wire load.
    fn slice_delays(&self, load: f64) -> (f64, f64) {
        let internal = (2.0 * self.cin_nand_f).min(load);
        let nand = self.curves["nand2_x2"].at(internal);
        let buffer = self.curves["inv_x4"].at(internal) + self.curves["inv_x9"].at(load);
        (6.0 * nand + buffer, 5.0 * nand + buffer)
    }

    /// Checks a macro report: structure exactly, delays within
    /// [`DELAY_REL_TOL`].
    pub fn check_macro(&self, spec: &gen::MacroSpec, report: &MacroReport) -> Result<(), String> {
        let shape = spec.shape();
        let pin = self.shapes.get(&shape).ok_or("unknown shape")?;
        let structure = [
            ("gate count", report.gate_count as u64, pin.gates as u64),
            ("fa refs", report.fa_instances as u64, pin.fa as u64),
            ("area bits", report.area_l2.to_bits(), pin.area_bits),
            ("spice digest", fnv64(report.spice.as_bytes()), pin.spice),
            ("gds digest", fnv64(&report.gds), pin.gds),
            (
                "slices",
                report.slices.len() as u64,
                pin.fanouts.len() as u64,
            ),
        ];
        for (what, got, want) in structure {
            if got != want {
                return Err(format!(
                    "{shape} seed {}: {what} {got}, want {want}",
                    spec.seed
                ));
            }
        }
        let close = |got: f64, want: f64| (got - want).abs() <= DELAY_REL_TOL * want.abs();
        let (mut worst_sum, mut worst_carry, mut chain) = (0.0f64, 0.0f64, 0.0);
        let mut last_sum = 0.0;
        for (i, (s, fanout)) in report.slices.iter().zip(&pin.fanouts).enumerate() {
            let load = slice_load(spec.seed, i as u32, *fanout);
            if s.bit != i as u32 || s.fanout != *fanout || s.load_f.to_bits() != load.to_bits() {
                return Err(format!(
                    "{shape} seed {} bit {i}: slice identity/load mismatch",
                    spec.seed
                ));
            }
            let (sum, carry) = self.slice_delays(load);
            if !close(s.sum_delay_s, sum) || !close(s.carry_delay_s, carry) {
                return Err(format!(
                    "{shape} seed {} bit {i}: delays ({:e}, {:e}), want ({sum:e}, {carry:e}) ±{DELAY_REL_TOL}",
                    spec.seed, s.sum_delay_s, s.carry_delay_s
                ));
            }
            worst_sum = worst_sum.max(sum);
            worst_carry = worst_carry.max(carry);
            chain += carry;
            last_sum = sum;
        }
        let critical = match gen::adder_kind(spec.kind) {
            AdderKind::Ripple => chain + last_sum,
            AdderKind::Cla => f64::from(pin.depth) * worst_carry + worst_sum,
        };
        if !close(report.critical_path_s, critical) {
            return Err(format!(
                "{shape} seed {}: critical path {:e}, want {critical:e} ±{DELAY_REL_TOL}",
                spec.seed, report.critical_path_s
            ));
        }
        Ok(())
    }
}

/// The wire rendering of a response, as the server would answer it.
pub fn render(response: &ResponseKind) -> String {
    render_response(response).render()
}

/// A slice sub-cell as the macro layer builds it (library options of
/// Scheme 2, nominal tube count).
pub fn slice_cell(session: &Session, kind: StdCellKind, strength: u8) -> Result<LibCell, String> {
    let kit = session.kit();
    let req = CellRequest {
        kind,
        strength,
        options: Some(dk::library_options(kit, Scheme::Scheme2)),
        name: Some(CellLibrary::cell_name(kind, strength)),
    };
    let cell = session.run(&req).map_err(|e| e.to_string())?.cell;
    Ok(LibCell::from_layout(
        kit,
        kind,
        strength,
        cell,
        kit.tubes_per_4lambda,
    ))
}

/// One nominal-corner characterization delay.
pub fn char_delay(session: &Session, cell: &LibCell, load: f64) -> Result<f64, String> {
    let kit = session.kit();
    dk::characterize_cell_at(kit, cell, &[load], CharCorner::nominal(kit))
        .map(|t| t.delay_at(load))
        .map_err(|e| e.to_string())
}

/// Regenerates `expected/` from the program as built. Returns a summary.
pub fn generate(dir: &Path) -> Result<String, String> {
    let session = Session::new();
    let mut summary = String::new();
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir).map_err(io)?;

    let mut text = String::from(
        "# Macro shapes, delay-versus-load curves of the slice sub-cells, and warm\n# cell digests. Regenerate with `perfbench expected`.\n",
    );
    let cells: Vec<LibCell> = SLICE_CELLS
        .iter()
        .map(|(_, kind, strength)| slice_cell(&session, *kind, *strength))
        .collect::<Result<_, _>>()?;
    let cin = cells[0].input_cap_f;
    let _ = writeln!(text, "cin_nand2_x2 {cin:?}");

    let mut max_fanout = 0;
    for (kind, width) in SHAPES {
        let report = |seed| {
            let spec = gen::MacroSpec { kind, width, seed };
            session.run(&spec.request()).map_err(|e| e.to_string())
        };
        let (a, b): (Arc<MacroReport>, Arc<MacroReport>) = (report(1)?, report(2)?);
        if a.spice != b.spice || a.gds != b.gds || a.area_l2 != b.area_l2 {
            return Err(format!("{kind}{width}: structure depends on the seed"));
        }
        let fanouts: Vec<String> = a.slices.iter().map(|s| s.fanout.to_string()).collect();
        max_fanout = max_fanout.max(a.slices.iter().map(|s| s.fanout).max().unwrap_or(0));
        let depth = AdderPlan::new(gen::adder_kind(kind), width).carry_depth();
        let _ = writeln!(
            text,
            "shape {kind} {width} gates {} fa {} area {:x} spice {:x} gds {:x} depth {depth} fanouts {}",
            a.gate_count,
            a.fa_instances,
            a.area_l2.to_bits(),
            fnv64(a.spice.as_bytes()),
            fnv64(&a.gds),
            fanouts.join(",")
        );
    }

    // Curves span every load a slice can see: jitter ±25 % around 2 fF
    // times the fan-out term; the internal load is capped at 2·C_in.
    let lo = 2.0e-15 * 0.75 / CURVE_STEP;
    let hi = 2.0e-15 * 1.25 * (1.0 + 0.15 * f64::from(max_fanout)) * CURVE_STEP;
    let internal_hi = (2.0 * cin).min(hi) * CURVE_STEP;
    let internal_lo = (2.0 * cin).min(lo) / CURVE_STEP;
    let mut worst = 0.0f64;
    for ((name, ..), cell) in SLICE_CELLS.iter().zip(&cells) {
        let (a, b) = if *name == "inv_x9" {
            (lo, hi)
        } else {
            (internal_lo, internal_hi)
        };
        let mut loads = vec![a];
        while *loads.last().expect("nonempty") < b {
            loads.push(loads.last().expect("nonempty") * CURVE_STEP);
        }
        let _ = writeln!(text, "curve {name}");
        let mut prev: Option<(f64, f64)> = None;
        for load in loads {
            let delay = char_delay(&session, cell, load)?;
            if let Some((pl, pd)) = prev {
                // Interpolation error at the midpoint, against a fresh run.
                let mid = (pl * load).sqrt();
                let truth = char_delay(&session, cell, mid)?;
                let interp = pd + (mid - pl) / (load - pl) * (delay - pd);
                worst = worst.max(((interp - truth) / truth).abs());
            }
            let _ = writeln!(text, "{load:?} {delay:?}");
            prev = Some((load, delay));
        }
    }
    let _ = writeln!(
        summary,
        "curves: worst midpoint interpolation error {:.3e} (tolerance {DELAY_REL_TOL})",
        worst
    );
    if worst > DELAY_REL_TOL / 10.0 {
        return Err(format!(
            "curve interpolation error {worst:e} is too close to the tolerance"
        ));
    }

    for (kind, strength) in WARM_CELLS {
        let req = gen::parse(&gen::cell_json(kind, strength));
        session.run(&req).map_err(|e| e.to_string())?;
        // The second run is a hit: warm lookups render `cached: true`.
        let body = render(&session.run(&req).map_err(|e| e.to_string())?);
        let _ = writeln!(text, "cell {kind} {strength} {:x}", fnv64(body.as_bytes()));
    }
    std::fs::write(dir.join("macro.txt"), text).map_err(io)?;

    // Pools: one digest per entry, in index order. Entries go through the
    // session's pool in chunks so both CPUs work.
    let mut pools = String::from(
        "# FNV-1a (32-bit fold) of each pinned request's wire response.\n# Regenerate with `perfbench expected`.\n",
    );
    for pool in Pool::ALL {
        let _ = writeln!(pools, "{} {}", pool.name(), pool.size());
        let entries: Vec<Entry> = (0..pool.size())
            .map(|index| Entry { pool, index })
            .collect();
        for chunk in entries.chunks(64) {
            let handles = session.submit_all(chunk.iter().map(|e| gen::parse(&e.json())));
            for handle in handles {
                let response = handle.wait().map_err(|e| e.to_string())?;
                let _ = writeln!(pools, "{:08x}", fnv32(render(&response).as_bytes()));
            }
        }
        let _ = writeln!(summary, "pool {}: {} entries", pool.name(), pool.size());
    }
    std::fs::write(dir.join("pools.txt"), pools).map_err(io)?;

    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_interpolates_and_clamps() {
        let c = Curve {
            loads: vec![1.0, 2.0, 4.0],
            delays: vec![10.0, 20.0, 30.0],
        };
        assert_eq!(c.at(0.5), 10.0);
        assert_eq!(c.at(1.5), 15.0);
        assert_eq!(c.at(3.0), 25.0);
        assert_eq!(c.at(9.0), 30.0);
    }

    #[test]
    fn digests_are_fnv1a() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv32(b"a"), fnv32(b"b"));
    }

    #[test]
    fn committed_expected_values_load() {
        let exp = Expected::load().expect("expected/ is committed");
        assert_eq!(exp.pools[&Pool::Sweep].len(), gen::SWEEP_SLOTS);
    }
}
