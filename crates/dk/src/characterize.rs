//! Spice-based cell characterization: delay vs load and switching energy.
//!
//! Measurements run on the [`cnfet_mna`] engine: every cell circuit is
//! lowered to an [`cnfet_mna::MnaCircuit`], its symbolic [`cnfet_mna::Pattern`]
//! comes from a process-wide [`PatternCache`], and one
//! [`cnfet_mna::Engine`] (with its factorization buffers and recorded
//! pivot order) is reused across the load sweep. Since variation corners
//! only change element *values*, repeated same-cell characterizations —
//! across loads, corners and sweep points — do **zero** symbolic
//! re-analysis.

use crate::kit::DesignKit;
#[cfg(test)]
use crate::libgen::build_library;
use crate::libgen::LibCell;
use cnfet_core::SizedNetwork;
use cnfet_core::Sizing;
use cnfet_device::Polarity;
use cnfet_logic::{NodeKind, PullGraph, SpNetwork};
use cnfet_mna::{measure, Engine, PatternCache, Probe, StepPolicy, TranSpec};
use cnfet_spice::{to_mna, Circuit, Edge, Node, SimError, Waveform};
use std::sync::{Arc, OnceLock};

/// Period of the characterization stimulus (s): the input pulses high for
/// half of it, after a 0.2 ns delay.
const PERIOD: f64 = 4e-9;
/// Delay of the stimulus's first edge (s).
const PULSE_DELAY: f64 = 0.2e-9;

/// The process-wide pattern cache shared by all characterization calls.
fn global_patterns() -> &'static PatternCache {
    static CACHE: OnceLock<PatternCache> = OnceLock::new();
    CACHE.get_or_init(PatternCache::new)
}

/// NLDM-style load-indexed timing data for one cell arc.
#[derive(Clone, Debug)]
pub struct TimingTable {
    /// Output loads, farads.
    pub loads_f: Vec<f64>,
    /// Average propagation delay per load, seconds.
    pub delays_s: Vec<f64>,
    /// Switching energy per full output cycle at the first load, joules.
    pub energy_j: f64,
}

impl TimingTable {
    /// Linear-interpolated delay at a load.
    pub fn delay_at(&self, load_f: f64) -> f64 {
        if self.loads_f.is_empty() {
            return 0.0;
        }
        if load_f <= self.loads_f[0] {
            return self.delays_s[0];
        }
        for i in 1..self.loads_f.len() {
            if load_f <= self.loads_f[i] {
                let t = (load_f - self.loads_f[i - 1]) / (self.loads_f[i] - self.loads_f[i - 1]);
                return self.delays_s[i - 1] + t * (self.delays_s[i] - self.delays_s[i - 1]);
            }
        }
        *self.delays_s.last().expect("nonempty")
    }
}

/// A characterization corner: process-variation overrides applied on top
/// of a kit's nominal CNT technology.
///
/// * `tubes_per_4lambda` replaces [`DesignKit::tubes_per_4lambda`] — CNT
///   *count/density* variation (fewer grown tubes mean less drive and
///   less gate capacitance, at a wider effective pitch).
/// * `pitch_scale` multiplies the effective device width seen by the
///   screening model — CNT *pitch/placement spread* variation (tubes
///   bunched tighter than drawn screen each other harder; `1.0` is the
///   evenly-pitched nominal). The drain-strip parasitic scales with it
///   too, as the strip must span the grown spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CharCorner {
    /// CNTs per 4λ of device width at this corner.
    pub tubes_per_4lambda: u32,
    /// Multiplier on the effective (screening) device width; `1.0` =
    /// nominal.
    pub pitch_scale: f64,
}

impl CharCorner {
    /// The kit's nominal technology point.
    pub fn nominal(kit: &DesignKit) -> CharCorner {
        CharCorner {
            tubes_per_4lambda: kit.tubes_per_4lambda,
            pitch_scale: 1.0,
        }
    }
}

/// Builds the transistor-level circuit of a cell and measures delay from
/// its first input pin to the output across the given loads.
///
/// Side inputs are tied to the sensitizing values that make the output
/// toggle with the probed input.
///
/// # Errors
///
/// Returns [`SimError`] when a transient fails to converge.
pub fn characterize_cell(
    kit: &DesignKit,
    cell: &LibCell,
    loads_f: &[f64],
) -> Result<TimingTable, SimError> {
    characterize_cell_at(kit, cell, loads_f, CharCorner::nominal(kit))
}

/// [`characterize_cell`] at an explicit variation corner: the same
/// transient measurement with the corner's tube count and pitch spread
/// substituted for the kit's nominal technology. The nominal corner
/// reproduces `characterize_cell` exactly.
///
/// # Errors
///
/// Returns [`SimError`] when a transient fails to converge.
pub fn characterize_cell_at(
    kit: &DesignKit,
    cell: &LibCell,
    loads_f: &[f64],
    corner: CharCorner,
) -> Result<TimingTable, SimError> {
    characterize_with_cache(
        kit,
        cell,
        loads_f,
        corner,
        global_patterns(),
        false,
        StepPolicy::Lattice,
    )
    .map(|(table, _)| table)
}

/// [`characterize_cell_at`] additionally returning the first-load
/// transient rendered as a deterministic waveform table (`time in out
/// i(vdd)`), for callers that retain waveforms alongside metrics.
///
/// # Errors
///
/// Returns [`SimError`] when a transient fails to converge.
pub fn characterize_cell_traces(
    kit: &DesignKit,
    cell: &LibCell,
    loads_f: &[f64],
    corner: CharCorner,
) -> Result<(TimingTable, Option<String>), SimError> {
    characterize_with_cache(
        kit,
        cell,
        loads_f,
        corner,
        global_patterns(),
        true,
        StepPolicy::Lattice,
    )
}

/// The characterization transient: 2 ps steps over 1.1 periods. Callers
/// use [`StepPolicy::Lattice`], which keeps `dt` wherever the cell
/// switches and steps up to 64·`dt` while it rests.
fn char_spec(policy: StepPolicy) -> TranSpec {
    TranSpec::new(2e-12, PERIOD * 1.1).policy(policy)
}

/// A cell's characterization circuit at one load: the pulse on input 0,
/// side inputs tied to sensitizing rails, both pull networks, the load.
struct CharBench {
    ckt: Circuit,
    vin: Node,
    out: Node,
    /// Index of the supply among the voltage sources.
    supply: usize,
}

fn char_bench(kit: &DesignKit, cell: &LibCell, load_f: f64, corner: CharCorner) -> CharBench {
    let (pdn, pun, vars) = cell.kind.networks();
    let n_inputs = vars.len();
    let side_mask = sensitizing_mask(&pdn, n_inputs);
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let out = ckt.node("out");
    let vin = ckt.node("in");
    let supply = ckt.add_vsource(vdd, Circuit::GROUND, Waveform::Dc(kit.cnfet.vdd));
    ckt.add_vsource(
        vin,
        Circuit::GROUND,
        Waveform::Pulse {
            v0: 0.0,
            v1: kit.cnfet.vdd,
            delay: PULSE_DELAY,
            rise: 10e-12,
            fall: 10e-12,
            width: PERIOD / 2.0,
            period: PERIOD,
        },
    );
    // Side input rails.
    let mut input_nodes = Vec::with_capacity(n_inputs);
    for i in 0..n_inputs {
        if i == 0 {
            input_nodes.push(vin);
        } else {
            let node = ckt.node(&format!("side{i}"));
            let v = if side_mask >> i & 1 == 1 {
                kit.cnfet.vdd
            } else {
                0.0
            };
            ckt.add_vsource(node, Circuit::GROUND, Waveform::Dc(v));
            input_nodes.push(node);
        }
    }
    instantiate_network(
        kit,
        &mut ckt,
        &pdn,
        Polarity::N,
        Circuit::GROUND,
        out,
        &input_nodes,
        cell.strength,
        corner,
    );
    instantiate_network(
        kit,
        &mut ckt,
        &pun,
        Polarity::P,
        vdd,
        out,
        &input_nodes,
        cell.strength,
        corner,
    );
    ckt.add_load(out, load_f);
    CharBench {
        ckt,
        vin,
        out,
        supply,
    }
}

/// The characterization engine room, parameterized over the pattern cache
/// (tests pass a local cache to observe symbolic-analysis counts) and the
/// step policy (tests compare the lattice against fixed steps).
fn characterize_with_cache(
    kit: &DesignKit,
    cell: &LibCell,
    loads_f: &[f64],
    corner: CharCorner,
    patterns: &PatternCache,
    retain_waveform: bool,
    policy: StepPolicy,
) -> Result<(TimingTable, Option<String>), SimError> {
    let mut delays = Vec::with_capacity(loads_f.len());
    let mut energy = 0.0;
    let mut waveform_table = None;
    let mut engine: Option<Engine> = None;
    for (li, &load) in loads_f.iter().enumerate() {
        let CharBench {
            ckt,
            vin,
            out,
            supply,
        } = char_bench(kit, cell, load, corner);

        // Lower once per load point; the symbolic pattern comes from the
        // cache (hit on every same-topology load/corner) and the engine —
        // buffers, pivot order — carries over whenever the pattern is the
        // same Arc.
        let mna = to_mna(&ckt);
        let pattern = patterns.get_or_analyze(&mna);
        let engine = match &mut engine {
            Some(e) if Arc::ptr_eq(e.pattern(), &pattern) => e,
            slot => slot.insert(Engine::new(pattern)),
        };
        let wave = engine.tran(&mna, &char_spec(policy))?;

        let (p_in, p_out) = (Probe::Node(vin.0), Probe::Node(out.0));
        let d1 = measure::propagation_delay(&wave, p_in, p_out, kit.cnfet.vdd, Edge::Rising, 0.0);
        let d2 = measure::propagation_delay(
            &wave,
            p_in,
            p_out,
            kit.cnfet.vdd,
            Edge::Falling,
            PULSE_DELAY + PERIOD / 2.0 - 50e-12,
        );
        let avg = match (d1, d2) {
            (Some(a), Some(b)) => (a + b) / 2.0,
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => 0.0,
        };
        delays.push(avg);
        if li == 0 {
            energy = measure::energy_from_supply(
                &wave,
                Probe::SourceCurrent(supply),
                kit.cnfet.vdd,
                0.0,
                PERIOD * 1.05,
            );
            if retain_waveform {
                waveform_table = Some(wave.render_table(&[
                    ("in", p_in),
                    ("out", p_out),
                    ("i(vdd)", Probe::SourceCurrent(supply)),
                ]));
            }
        }
    }

    Ok((
        TimingTable {
            loads_f: loads_f.to_vec(),
            delays_s: delays,
            energy_j: energy,
        },
        waveform_table,
    ))
}

/// Chooses side-input values such that the output toggles with input 0.
fn sensitizing_mask(pdn: &SpNetwork, n_inputs: usize) -> u64 {
    for m in 0..1u64 << n_inputs.saturating_sub(1) {
        let mask = m << 1;
        if pdn.conducts(mask | 1) && !pdn.conducts(mask) {
            return mask;
        }
    }
    0
}

/// Adds one pull network's FETs between `source` and `out`, sized at the
/// given variation corner.
#[allow(clippy::too_many_arguments)]
fn instantiate_network(
    kit: &DesignKit,
    ckt: &mut Circuit,
    net: &SpNetwork,
    polarity: Polarity,
    source: cnfet_spice::Node,
    out: cnfet_spice::Node,
    inputs: &[cnfet_spice::Node],
    strength: u8,
    corner: CharCorner,
) {
    let sized = SizedNetwork::from_network(
        net,
        Sizing::Matched {
            base_lambda: kit.base_width_lambda,
        },
    );
    let widths = sized.widths();
    let graph = PullGraph::from_network(net);
    let mut nodes = Vec::with_capacity(graph.node_count());
    for n in 0..graph.node_count() {
        let node = match graph.kind(cnfet_logic::NodeId(n as u32)) {
            NodeKind::Source => source,
            NodeKind::Drain => out,
            NodeKind::Internal => ckt.node(&format!("{polarity:?}_int{n}_{}", ckt.node_count())),
        };
        nodes.push(node);
    }
    for (ei, e) in graph.edges().iter().enumerate() {
        let w_lambda = widths.get(ei).copied().unwrap_or(kit.base_width_lambda);
        let width_m = w_lambda as f64 * 32.5e-9 * corner.pitch_scale;
        let tubes = (corner.tubes_per_4lambda as f64 * w_lambda as f64
            / kit.base_width_lambda as f64)
            .round()
            .max(1.0) as u32;
        let dev = kit.cnfet.device(polarity, tubes * strength as u32, width_m);
        ckt.add_fet(
            nodes[e.b.0 as usize],
            inputs[e.gate.index()],
            nodes[e.a.0 as usize],
            Arc::new(dev),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_core::Scheme;

    #[test]
    fn inverter_delay_increases_with_load() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X1").unwrap();
        let table = characterize_cell(&kit, inv, &[0.2e-15, 1e-15, 4e-15]).unwrap();
        assert!(table.delays_s[0] > 0.0);
        assert!(table.delays_s[2] > table.delays_s[1]);
        assert!(table.delays_s[1] > table.delays_s[0]);
        assert!(table.energy_j > 0.0);
    }

    #[test]
    fn nand2_characterizes() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let nand = lib.cell("NAND2_X1").unwrap();
        let table = characterize_cell(&kit, nand, &[1e-15]).unwrap();
        assert!(table.delays_s[0] > 0.0 && table.delays_s[0] < 1e-9);
    }

    #[test]
    fn corner_variation_moves_the_metrics() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X1").unwrap();
        let loads = [1e-15];
        let nominal = characterize_cell_at(&kit, inv, &loads, CharCorner::nominal(&kit)).unwrap();
        let explicit = characterize_cell(&kit, inv, &loads).unwrap();
        assert_eq!(
            nominal.delays_s, explicit.delays_s,
            "nominal corner reproduces characterize_cell"
        );

        // Fewer tubes = less drive = slower under the same external load.
        let sparse = characterize_cell_at(
            &kit,
            inv,
            &loads,
            CharCorner {
                tubes_per_4lambda: 8,
                pitch_scale: 1.0,
            },
        )
        .unwrap();
        assert!(
            sparse.delays_s[0] > nominal.delays_s[0],
            "sparse {} vs nominal {}",
            sparse.delays_s[0],
            nominal.delays_s[0]
        );

        // Tubes bunched tighter than drawn screen each other harder:
        // per-tube drive collapses, so the corner is slower as well.
        let bunched = characterize_cell_at(
            &kit,
            inv,
            &loads,
            CharCorner {
                tubes_per_4lambda: kit.tubes_per_4lambda,
                pitch_scale: 0.5,
            },
        )
        .unwrap();
        assert!(bunched.delays_s[0] > nominal.delays_s[0]);
    }

    #[test]
    fn repeated_corners_do_zero_symbolic_reanalysis() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X1").unwrap();
        let loads = [0.5e-15, 2e-15];
        let patterns = PatternCache::new();
        // Two loads, same topology: one symbolic analysis total.
        characterize_with_cache(
            &kit,
            inv,
            &loads,
            CharCorner::nominal(&kit),
            &patterns,
            false,
            StepPolicy::Lattice,
        )
        .unwrap();
        assert_eq!(patterns.symbolic_builds(), 1, "loads share one pattern");
        // Further corners only change values — still one analysis.
        for tubes in [8, 10, 12, 26] {
            let corner = CharCorner {
                tubes_per_4lambda: tubes,
                pitch_scale: 0.9,
            };
            characterize_with_cache(
                &kit,
                inv,
                &loads,
                corner,
                &patterns,
                false,
                StepPolicy::Lattice,
            )
            .unwrap();
        }
        assert_eq!(
            patterns.symbolic_builds(),
            1,
            "same-topology corners must not re-analyze"
        );
        // A different cell is a different topology: exactly one more.
        let nand = lib.cell("NAND2_X1").unwrap();
        characterize_with_cache(
            &kit,
            nand,
            &loads,
            CharCorner::nominal(&kit),
            &patterns,
            false,
            StepPolicy::Lattice,
        )
        .unwrap();
        assert_eq!(patterns.symbolic_builds(), 2);
    }

    #[test]
    fn traces_render_a_waveform_table() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X1").unwrap();
        let (table, wave) =
            characterize_cell_traces(&kit, inv, &[1e-15], CharCorner::nominal(&kit)).unwrap();
        assert!(table.delays_s[0] > 0.0);
        let wave = wave.expect("waveform retained");
        assert!(wave.starts_with("time in out i(vdd)\n"));
        // The whole transient is recorded, up to its 4.4 ns stop.
        let last = wave.lines().last().unwrap();
        assert!(last.starts_with("4.400000e-9 "), "{last}");
        assert!(wave.lines().count() > 50, "{} rows", wave.lines().count());
    }

    /// The lattice reproduces fixed 2 ps characterization on every
    /// library cell of both schemes, across loads and corners.
    #[test]
    fn lattice_matches_fixed_steps_on_every_library_cell() {
        let kit = DesignKit::cnfet65();
        let loads = [0.3e-15, 2e-15, 15e-15];
        let corners = [
            CharCorner::nominal(&kit),
            CharCorner {
                tubes_per_4lambda: 10,
                pitch_scale: 1.0,
            },
            CharCorner {
                tubes_per_4lambda: 26,
                pitch_scale: 0.8,
            },
        ];
        let (mut worst_delay, mut worst_energy) = (0.0f64, 0.0f64);
        let mut points = 0;
        for scheme in [Scheme::Scheme1, Scheme::Scheme2] {
            let lib = build_library(&kit, scheme).unwrap();
            for name in ["NAND2_X2", "INV_X4", "INV_X9"] {
                assert!(lib.cell(name).is_some(), "{name} is a library cell");
            }
            for cell in &lib.cells {
                for corner in corners {
                    let run = |policy| {
                        characterize_with_cache(
                            &kit,
                            cell,
                            &loads,
                            corner,
                            global_patterns(),
                            false,
                            policy,
                        )
                        .unwrap()
                        .0
                    };
                    let (fixed, lattice) = (run(StepPolicy::Fixed), run(StepPolicy::Lattice));
                    for (f, l) in fixed.delays_s.iter().zip(&lattice.delays_s) {
                        assert!(*f > 0.0, "{} switches", cell.name);
                        worst_delay = worst_delay.max((l - f).abs() / f);
                    }
                    worst_energy = worst_energy
                        .max((lattice.energy_j - fixed.energy_j).abs() / fixed.energy_j);
                    points += loads.len();
                }
            }
        }
        assert!(points >= 300, "{points} points");
        assert!(worst_delay < 1e-4, "worst delay deviation {worst_delay:e}");
        assert!(
            worst_energy < 5e-3,
            "worst energy deviation {worst_energy:e}"
        );
    }

    /// Timestep counts of one characterization transient (INV_X9 at
    /// 2 fF): the fixed policy takes every 2 ps step of 4.4 ns and never
    /// rejects one; the lattice keeps a small fraction of the samples.
    #[test]
    fn lattice_steps_only_where_the_cell_switches() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X9").unwrap();
        let bench = char_bench(&kit, inv, 2e-15, CharCorner::nominal(&kit));
        let mna = to_mna(&bench.ckt);
        let run = |policy| {
            let mut engine = Engine::new(Arc::new(cnfet_mna::Pattern::analyze(&mna)));
            let wave = engine.tran(&mna, &char_spec(policy)).unwrap();
            let stats = engine.stats();
            assert_eq!(stats.accepted_steps + 1, wave.len() as u64, "{policy:?}");
            (wave.len(), stats.rejected_steps)
        };
        assert_eq!(run(StepPolicy::Fixed), (2202, 0));
        let (samples, rejected) = run(StepPolicy::Lattice);
        assert!(samples <= 300, "lattice took {samples} samples");
        assert!(
            rejected < samples as u64,
            "lattice rejected {rejected} steps"
        );
    }

    #[test]
    fn delay_interpolation() {
        let t = TimingTable {
            loads_f: vec![1.0, 3.0],
            delays_s: vec![10.0, 30.0],
            energy_j: 0.0,
        };
        assert_eq!(t.delay_at(2.0), 20.0);
        assert_eq!(t.delay_at(0.5), 10.0);
        assert_eq!(t.delay_at(9.0), 30.0);
    }

    #[test]
    fn sensitizing_masks() {
        let (nand_pdn, _, _) = cnfet_core::StdCellKind::Nand(3).networks();
        let m = sensitizing_mask(&nand_pdn, 3);
        assert_eq!(m, 0b110, "NAND needs side inputs high");
        let (nor_pdn, _, _) = cnfet_core::StdCellKind::Nor(3).networks();
        assert_eq!(
            sensitizing_mask(&nor_pdn, 3),
            0,
            "NOR needs side inputs low"
        );
    }
}
