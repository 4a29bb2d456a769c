//! The analysis engine: Newton–Raphson DC, adaptive-capable transient,
//! all against one preallocated factorization working set.
//!
//! An [`Engine`] is built from an [`std::sync::Arc`]`<`[`Pattern`]`>` and
//! owns every numeric buffer the pattern's dimension implies. Each solve
//! re-stamps values and re-factors **in place** — the first factorization
//! records a pivot order that [`crate::LuFactor::refactor`] then reuses
//! across Newton iterations and timesteps, so the steady-state transient
//! loop performs no allocation and no fresh pivot search.

use crate::circuit::{MnaCircuit, MnaElement};
use crate::pattern::Pattern;
use crate::solver::{LuFactor, SolveStats};
use crate::stamp::{stamp_system, DynamicState, Dynamics, Method, StampSpec};
use crate::waveform::Waveform;
use std::fmt;
use std::sync::Arc;

/// Final conductance from every FET terminal to ground, keeping the
/// Jacobian well-conditioned when devices are off.
pub const GMIN: f64 = 1e-9;
/// Gmin-stepping ladder used to coax large circuits into their DC
/// operating point: solve with heavy shunts first, then tighten.
const GMIN_STEPS: [f64; 4] = [1e-3, 1e-5, 1e-7, GMIN];
/// Newton–Raphson convergence tolerance on node voltages (volts).
const NR_TOL: f64 = 1e-7;
/// Maximum Newton iterations per solve.
const NR_MAX_ITERS: usize = 400;
/// DC source-ramping steps (fractions of the full source values).
const SOURCE_RAMP_STEPS: usize = 4;
/// Largest node-voltage change (volts) a [`StepPolicy::Lattice`] step
/// wider than `dt` may make and still be kept.
const LATTICE_TOL: f64 = 1e-3;
/// Widest [`StepPolicy::Lattice`] step, in multiples of `dt`.
const LATTICE_MAX_MULTIPLE: usize = 64;

/// Analysis failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MnaError {
    /// Newton iteration failed to converge (even after any timestep
    /// halving the transient spec allowed).
    NoConvergence {
        /// Nominal timestep index at which convergence failed (0 for DC).
        at_step: usize,
    },
    /// The MNA matrix was singular (floating node or source loop).
    Singular,
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::NoConvergence { at_step } => {
                write!(f, "newton iteration did not converge at step {at_step}")
            }
            MnaError::Singular => write!(f, "singular MNA matrix (floating node?)"),
        }
    }
}

impl std::error::Error for MnaError {}

/// How [`Engine::tran`] sizes its steps. Both policies run the same
/// loop; they differ only in the widest step it may take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepPolicy {
    /// Every step is `dt`: the waveform holds the whole `k·dt` time axis
    /// (plus any halved sub-steps).
    Fixed,
    /// Every step is a whole multiple of `dt`, so every sample still lies
    /// on the `k·dt` axis. While an accepted step moves no node by more
    /// than 1 mV the multiple doubles, up to 64; a wider step that moves
    /// more is discarded and retried at half the multiple. The multiple
    /// drops back to 1 at every source breakpoint (pulse and PWL
    /// corners, snapped to the axis), and single-`dt` steps are exactly
    /// the [`StepPolicy::Fixed`] steps, halvings included. The samples
    /// are those of `Fixed` wherever a source or node moves, and sparse
    /// where the circuit rests.
    Lattice,
}

/// A transient-analysis request: nominal step, stop time, integration
/// method, step policy, and how far the engine may locally halve a
/// non-converging step before giving up.
#[derive(Clone, Copy, Debug)]
pub struct TranSpec {
    /// Nominal timestep (s).
    pub dt: f64,
    /// Stop time (s).
    pub t_stop: f64,
    /// Integration method for the dynamic elements.
    pub method: Method,
    /// Maximum local step-halving depth on convergence failure (0 = fixed
    /// step). Accepted sub-steps are recorded, so the waveform's time axis
    /// stays strictly monotone but need not be uniform.
    pub max_halvings: u32,
    /// How steps are sized.
    pub policy: StepPolicy,
}

impl TranSpec {
    /// Fixed-step backward-Euler transient with up to 4 local halvings.
    pub fn new(dt: f64, t_stop: f64) -> TranSpec {
        TranSpec {
            dt,
            t_stop,
            method: Method::BackwardEuler,
            max_halvings: 4,
            policy: StepPolicy::Fixed,
        }
    }

    /// Selects the step policy.
    pub fn policy(mut self, policy: StepPolicy) -> TranSpec {
        self.policy = policy;
        self
    }

    /// Selects the integration method.
    pub fn method(mut self, method: Method) -> TranSpec {
        self.method = method;
        self
    }

    /// Sets the maximum local halving depth.
    pub fn max_halvings(mut self, max_halvings: u32) -> TranSpec {
        self.max_halvings = max_halvings;
        self
    }
}

/// The numeric engine for one topology: preallocated factorization,
/// right-hand side and solution buffers, reused across every DC solve,
/// Newton iteration and timestep.
#[derive(Clone, Debug)]
pub struct Engine {
    pattern: Arc<Pattern>,
    lu: LuFactor,
    b: Vec<f64>,
    x: Vec<f64>,
    saved: Vec<f64>,
    /// The solution at the start of the current lattice step.
    start: Vec<f64>,
    accepted_steps: u64,
    rejected_steps: u64,
}

impl Engine {
    /// Creates an engine (and its buffers) for a topology.
    pub fn new(pattern: Arc<Pattern>) -> Engine {
        let dim = pattern.dim();
        Engine {
            lu: LuFactor::new(dim),
            b: vec![0.0; dim],
            x: vec![0.0; dim],
            saved: vec![0.0; dim],
            start: vec![0.0; dim],
            accepted_steps: 0,
            rejected_steps: 0,
            pattern,
        }
    }

    /// The topology this engine was built for.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// Work counters accumulated over this engine's life: factorizations
    /// and solves — `refactorizations` dominating `factorizations` is the
    /// pivot-order-reuse contract at work — and transient timesteps.
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            accepted_steps: self.accepted_steps,
            rejected_steps: self.rejected_steps,
            ..self.lu.stats()
        }
    }

    /// The largest node-voltage change since the current step started.
    fn node_change(&self) -> f64 {
        let n_nodes = self.pattern.n_nodes();
        self.x[..n_nodes]
            .iter()
            .zip(&self.start[..n_nodes])
            .fold(0.0, |max, (x, s)| f64::max(max, (x - s).abs()))
    }

    /// One Newton solve; `self.x` holds the initial guess and, on
    /// success, the converged solution.
    fn newton(
        &mut self,
        circuit: &MnaCircuit,
        t: f64,
        source_scale: f64,
        gmin: f64,
        dynamics: Dynamics<'_>,
        step: usize,
    ) -> Result<(), MnaError> {
        let dim = self.pattern.dim();
        let n_nodes = self.pattern.n_nodes();
        let linear = !self.pattern.has_fets();
        let spec = StampSpec {
            t,
            source_scale,
            gmin,
            dynamics,
        };
        for _ in 0..NR_MAX_ITERS {
            self.lu.clear();
            self.b.fill(0.0);
            stamp_system(
                &self.pattern,
                circuit,
                &self.x,
                &mut self.lu,
                &mut self.b,
                &spec,
            );
            self.lu.refactor().map_err(|_| MnaError::Singular)?;
            self.lu.solve_in_place(&mut self.b);
            if linear {
                // No nonlinear elements: the first solve is exact.
                self.x.copy_from_slice(&self.b);
                return Ok(());
            }
            let mut delta: f64 = 0.0;
            for i in 0..n_nodes {
                delta = delta.max((self.b[i] - self.x[i]).abs());
            }
            // Damped update for large steps keeps the FET linearization in
            // its region of validity.
            let relax = if delta > 0.5 { 0.5 / delta } else { 1.0 };
            for i in 0..dim {
                self.x[i] += (self.b[i] - self.x[i]) * relax;
            }
            if delta < NR_TOL {
                return Ok(());
            }
        }
        Err(MnaError::NoConvergence { at_step: step })
    }

    /// Solves the DC operating point at `t = 0` with source ramping and
    /// gmin stepping, returning node voltages indexed by node
    /// (`result[0]` is ground, 0 V).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError`] when the Newton iteration cannot converge or
    /// the system is singular.
    ///
    /// # Panics
    ///
    /// Panics when the circuit's topology does not match the engine's
    /// pattern.
    pub fn dc(&mut self, circuit: &MnaCircuit) -> Result<Vec<f64>, MnaError> {
        assert!(
            self.pattern.matches(circuit),
            "circuit topology does not match the engine's pattern"
        );
        self.x.fill(0.0);
        // Source stepping at heavy gmin, then gmin stepping at full
        // sources — no circuit cloning, scaling happens in the stamp.
        for step in 1..=SOURCE_RAMP_STEPS {
            let frac = step as f64 / SOURCE_RAMP_STEPS as f64;
            self.newton(circuit, 0.0, frac, GMIN_STEPS[0], Dynamics::Dc, 0)?;
        }
        for &gmin in &GMIN_STEPS[1..] {
            self.newton(circuit, 0.0, 1.0, gmin, Dynamics::Dc, 0)?;
        }
        let mut volts = vec![0.0; self.pattern.n_nodes() + 1];
        volts[1..].copy_from_slice(&self.x[..self.pattern.n_nodes()]);
        Ok(volts)
    }

    /// Keeps the converged solution of a step of size `dt` ending at `t`.
    fn accept(
        &mut self,
        circuit: &MnaCircuit,
        t: f64,
        dt: f64,
        method: Method,
        state: &mut DynamicState,
        wave: &mut Waveform,
    ) {
        state.accept(&self.pattern, circuit, &self.x, method, dt);
        wave.push(t, &self.x);
        self.accepted_steps += 1;
    }

    /// Advances one step of size `dt` from time `t0`; on convergence
    /// failure, locally halves the step (recording the accepted interior
    /// points) up to `halvings` deep.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        circuit: &MnaCircuit,
        t0: f64,
        dt: f64,
        method: Method,
        halvings: u32,
        step: usize,
        state: &mut DynamicState,
        wave: &mut Waveform,
    ) -> Result<(), MnaError> {
        self.saved.copy_from_slice(&self.x);
        let attempt = self.newton(
            circuit,
            t0 + dt,
            1.0,
            GMIN,
            Dynamics::Tran {
                method,
                dt,
                state: &*state,
            },
            step,
        );
        match attempt {
            Ok(()) => {
                self.accept(circuit, t0 + dt, dt, method, state, wave);
                Ok(())
            }
            Err(MnaError::NoConvergence { .. }) if halvings > 0 => {
                // Retry from the last accepted solution at half the step.
                self.rejected_steps += 1;
                self.x.copy_from_slice(&self.saved);
                let half = dt / 2.0;
                self.advance(circuit, t0, half, method, halvings - 1, step, state, wave)?;
                self.advance(
                    circuit,
                    t0 + half,
                    half,
                    method,
                    halvings - 1,
                    step,
                    state,
                    wave,
                )
            }
            Err(e) => Err(e),
        }
    }

    /// Runs a transient analysis from the DC operating point, recording a
    /// strictly monotone [`Waveform`] whose steps follow `spec.policy`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError`] on a singular system or when a step fails to
    /// converge even at the finest allowed sub-step.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` and `t_stop` are positive, or when the circuit's
    /// topology does not match the engine's pattern.
    pub fn tran(&mut self, circuit: &MnaCircuit, spec: &TranSpec) -> Result<Waveform, MnaError> {
        assert!(
            spec.dt > 0.0 && spec.t_stop > 0.0,
            "dt and t_stop must be positive"
        );
        self.dc(circuit)?; // leaves self.x at the operating point
        let mut state = DynamicState::init(&self.pattern, &self.x);
        // Nominal times come from the grid index (`k·dt`, not
        // accumulation), clamped to `t_stop` so the run ends exactly there
        // regardless of how `t_stop/dt` rounds. `k_end` is the first index
        // at or past `t_stop`.
        let mut k_end = (spec.t_stop / spec.dt).ceil() as usize;
        if (k_end as f64 * spec.dt) < spec.t_stop {
            k_end = k_end.saturating_add(1);
        }
        let (max_multiple, capacity) = match spec.policy {
            StepPolicy::Fixed => (1, k_end.saturating_add(1)),
            // The lattice's sample count depends on the circuit, not on
            // `t_stop/dt`: its waveform grows as it goes.
            StepPolicy::Lattice => (LATTICE_MAX_MULTIPLE, 0),
        };
        let lattice = max_multiple > 1;
        let mut wave = Waveform::new(&self.pattern, capacity);
        wave.push(0.0, &self.x);
        let breakpoint_after = |k: usize| {
            if lattice {
                next_breakpoint_index(circuit, spec.dt, k)
            } else {
                None
            }
        };
        let mut next_break = breakpoint_after(0);
        let mut multiple = 1;
        let mut t0 = 0.0;
        let mut k = 0usize;
        while t0 < spec.t_stop {
            let k1 = (k + multiple)
                .min(k_end)
                .min(next_break.unwrap_or(usize::MAX));
            let t1 = (k1 as f64 * spec.dt).min(spec.t_stop);
            if lattice {
                self.start.copy_from_slice(&self.x);
            }
            if k1 == k + 1 {
                self.advance(
                    circuit,
                    t0,
                    t1 - t0,
                    spec.method,
                    spec.max_halvings,
                    k1,
                    &mut state,
                    &mut wave,
                )?;
            } else {
                let solved = self.newton(
                    circuit,
                    t1,
                    1.0,
                    GMIN,
                    Dynamics::Tran {
                        method: spec.method,
                        dt: t1 - t0,
                        state: &state,
                    },
                    k1,
                );
                match solved {
                    Ok(()) if self.node_change() <= LATTICE_TOL => {
                        self.accept(circuit, t1, t1 - t0, spec.method, &mut state, &mut wave);
                    }
                    Ok(()) | Err(MnaError::NoConvergence { .. }) => {
                        self.x.copy_from_slice(&self.start);
                        self.rejected_steps += 1;
                        multiple = (k1 - k) / 2;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            if next_break == Some(k1) {
                next_break = breakpoint_after(k1);
                multiple = 1;
            } else if lattice && self.node_change() <= LATTICE_TOL {
                multiple = (2 * multiple).min(max_multiple);
            }
            k = k1;
            t0 = t1;
        }
        Ok(wave)
    }
}

/// The grid index of the first source breakpoint after grid index `k`. A
/// breakpoint within a millionth of `dt` of the grid snaps to it; one
/// between grid points maps to the index before it, so the single-`dt`
/// step that crosses it is the one the fixed policy takes.
fn next_breakpoint_index(circuit: &MnaCircuit, dt: f64, k: usize) -> Option<usize> {
    const SNAP: f64 = 1e-6;
    let after = (k as f64 + 1.0 - SNAP) * dt;
    let t = circuit
        .elements()
        .iter()
        .filter_map(|e| match e {
            MnaElement::VSource { wave, .. } => wave.next_breakpoint(after),
            _ => None,
        })
        .min_by(f64::total_cmp)?;
    let x = t / dt;
    let index = if (x - x.round()).abs() <= SNAP {
        x.round()
    } else {
        x.floor()
    };
    Some((index as usize).max(k + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;
    use crate::waveform::Probe;
    use cnfet_device::{CnfetModel, FetModel, Polarity};

    fn engine_for(c: &MnaCircuit) -> Engine {
        Engine::new(Arc::new(Pattern::analyze(c)))
    }

    #[test]
    fn resistive_divider_dc() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(2.0));
        c.resistor(1, 2, 1e3);
        c.resistor(2, 0, 3e3);
        let v = engine_for(&c).dc(&c).unwrap();
        assert!((v[2] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn inductor_is_dc_short() {
        // V — R — L to ground: all the drop is across the resistor.
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.resistor(1, 2, 1e3);
        c.inductor(2, 0, 1e-9);
        let mut e = engine_for(&c);
        let v = e.dc(&c).unwrap();
        assert!(v[2].abs() < 1e-9, "inductor node should sit at 0 V");
    }

    #[test]
    fn floating_node_is_singular() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.resistor(1, 0, 1e3);
        c.resistor(2, 3, 1e3); // island with no path to the rest
        assert_eq!(engine_for(&c).dc(&c), Err(MnaError::Singular));
    }

    #[test]
    fn parallel_source_loop_is_singular() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.vsource(1, 0, SourceWave::Dc(2.0));
        assert_eq!(engine_for(&c).dc(&c), Err(MnaError::Singular));
    }

    /// RC step response vs the analytic exponential, both methods.
    #[test]
    fn rc_step_matches_analytic() {
        for method in [Method::BackwardEuler, Method::Trapezoidal] {
            let mut c = MnaCircuit::new();
            c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
            c.resistor(1, 2, 1e3);
            c.capacitor(2, 0, 1e-12); // tau = 1 ns
            let mut e = engine_for(&c);
            let wave = e
                .tran(&c, &TranSpec::new(2e-12, 5e-9).method(method))
                .unwrap();
            for (k, &t) in wave.time().iter().enumerate() {
                if t < 1e-10 {
                    continue;
                }
                let expected = 1.0 - (-(t - 1e-12) / 1e-9).exp();
                let got = wave.voltage(2)[k];
                assert!(
                    (got - expected).abs() < 0.01,
                    "{method:?} t={t}: got {got}, expected {expected}"
                );
            }
            // Linear circuit: one full factorization, everything after
            // reuses the recorded pivot order.
            let stats = e.stats();
            assert_eq!(stats.factorizations, 1);
            assert_eq!(stats.pivot_rebuilds, 0);
            assert!(stats.refactorizations > 2000, "{stats:?}");
        }
    }

    /// Two RC stages driven by a periodic pulse and by a PWL ramp with one
    /// corner between grid points.
    fn lattice_probe() -> MnaCircuit {
        let mut c = MnaCircuit::new();
        c.vsource(
            1,
            0,
            SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 100e-12,
                rise: 2e-12,
                fall: 2e-12,
                width: 500e-12,
                period: 1e-9,
            },
        );
        c.resistor(1, 2, 1e3);
        c.capacitor(2, 0, 20e-15); // tau = 20 ps
        c.vsource(
            3,
            0,
            SourceWave::Pwl(vec![(0.0, 0.0), (1.3e-9, 0.0), (1.4001e-9, 1.0)]),
        );
        c.resistor(3, 4, 1e3);
        c.capacitor(4, 0, 20e-15);
        c
    }

    #[test]
    fn lattice_time_axis_is_a_monotone_subset_of_the_grid() {
        let c = lattice_probe();
        let (dt, t_stop) = (2e-12, 3.001e-9);
        let mut e = engine_for(&c);
        let wave = e
            .tran(&c, &TranSpec::new(dt, t_stop).policy(StepPolicy::Lattice))
            .unwrap();
        let time = wave.time();
        assert_eq!(time[0], 0.0);
        assert_eq!(*time.last().unwrap(), t_stop);
        assert!(time.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        // Every sample before `t_stop` is exactly a `k·dt` grid point.
        for &t in &time[..time.len() - 1] {
            assert_eq!(t, (t / dt).round() * dt, "{t} is off the grid");
        }
        // Every on-grid breakpoint is a sample: the pulse's four corners
        // in each of its three periods, and the PWL's first corner.
        let mut breakpoints = vec![1.3e-9];
        for n in 0..3 {
            let start = 100e-12 + n as f64 * 1e-9;
            breakpoints.extend([0.0, 2e-12, 502e-12, 504e-12].map(|c| start + c));
        }
        for b in breakpoints {
            assert!(
                time.iter().any(|&t| (t - b).abs() < 1e-6 * dt),
                "breakpoint {b} is not a sample"
            );
        }
        // The off-grid corner at 1.4001 ns is crossed by a single `dt`.
        let after = time.iter().position(|&t| t > 1.4001e-9).unwrap();
        assert!((time[after] - time[after - 1] - dt).abs() < 1e-6 * dt);
        // Far fewer samples than the grid, every one accounted for.
        let stats = e.stats();
        assert!(wave.len() * 2 < 1501, "{} samples", wave.len());
        assert_eq!(stats.accepted_steps + 1, wave.len() as u64);
    }

    /// The lattice against the RC closed form and against fixed steps.
    #[test]
    fn lattice_rc_matches_analytic_and_fixed_steps() {
        let c = lattice_probe();
        let (dt, t_stop) = (0.5e-12, 1e-9);
        let tau = 20e-12;
        // Ideal steps at the middle of the first pulse's 2 ps edges.
        let (t_on, t_off) = (101e-12, 603e-12);
        let analytic = |t: f64| {
            let rise = |t: f64| 1.0 - (-(t - t_on) / tau).exp();
            if t < t_on {
                0.0
            } else if t < t_off {
                rise(t)
            } else {
                rise(t_off) * (-(t - t_off) / tau).exp()
            }
        };
        let run = |policy| {
            engine_for(&c)
                .tran(&c, &TranSpec::new(dt, t_stop).policy(policy))
                .unwrap()
        };
        let (fixed, lattice) = (run(StepPolicy::Fixed), run(StepPolicy::Lattice));
        assert!(lattice.len() * 4 < fixed.len(), "{}", lattice.len());
        let mut worst = 0.0f64;
        for (k, &t) in lattice.time().iter().enumerate() {
            let got = lattice.voltage(2)[k];
            if (t - t_on).abs() > 10e-12 && (t - t_off).abs() > 10e-12 {
                let expected = analytic(t);
                assert!(
                    (got - expected).abs() < 0.01,
                    "t={t}: got {got}, expected {expected}"
                );
            }
            let j = fixed.time().iter().position(|&f| f == t).unwrap();
            worst = worst.max((got - fixed.voltage(2)[j]).abs());
        }
        assert!(
            worst < LATTICE_TOL,
            "worst deviation from fixed steps {worst:e} V"
        );
    }

    /// Series RLC step response against the underdamped analytic form.
    #[test]
    fn rlc_step_matches_analytic() {
        // L = 1 nH, C = 1 pF, R chosen for zeta = 0.3.
        let (l, cap) = (1e-9f64, 1e-12f64);
        let w0 = 1.0 / (l * cap).sqrt();
        let zeta = 0.3;
        let r = 2.0 * zeta * (l / cap).sqrt();
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.0), (1e-14, 1.0)]));
        c.resistor(1, 2, r);
        c.inductor(2, 3, l);
        c.capacitor(3, 0, cap);
        let mut e = engine_for(&c);
        let wave = e
            .tran(
                &c,
                &TranSpec::new(2e-13, 1.5e-9).method(Method::Trapezoidal),
            )
            .unwrap();
        let wd = w0 * (1.0 - zeta * zeta).sqrt();
        for (k, &t) in wave.time().iter().enumerate() {
            if t < 1e-12 {
                continue;
            }
            let tt = t - 1e-14;
            let env = (-zeta * w0 * tt).exp();
            let expected = 1.0 - env * ((wd * tt).cos() + zeta * w0 / wd * (wd * tt).sin());
            let got = wave.voltage(3)[k];
            assert!(
                (got - expected).abs() < 0.02,
                "t={t}: got {got}, expected {expected}"
            );
        }
        // The inductor branch current is probed and ends near DC: i = 0.
        let i_l = wave.probe(Probe::InductorCurrent(0));
        assert!(i_l.last().unwrap().abs() < 1e-3 / r);
    }

    /// Trapezoidal integration is at least second-order on the RC case:
    /// halving dt shrinks the max error by ~4x.
    #[test]
    fn trapezoidal_dt_halving_is_second_order() {
        // Ramp aligned to both grids (80 ps = 2×40 ps = 4×20 ps), so the
        // only integration error is the smooth-region truncation error.
        let ramp_end = 80e-12;
        let tau = 1e-9;
        let analytic = |t: f64| -> f64 {
            let m = 1.0 / ramp_end;
            if t <= ramp_end {
                m * (t - tau + tau * (-t / tau).exp())
            } else {
                let v_end = m * (ramp_end - tau + tau * (-ramp_end / tau).exp());
                1.0 + (v_end - 1.0) * (-(t - ramp_end) / tau).exp()
            }
        };
        let max_error = |dt: f64| -> f64 {
            let mut c = MnaCircuit::new();
            c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.0), (ramp_end, 1.0)]));
            c.resistor(1, 2, 1e3);
            c.capacitor(2, 0, 1e-12);
            let mut e = engine_for(&c);
            let wave = e
                .tran(
                    &c,
                    &TranSpec::new(dt, 2e-9)
                        .method(Method::Trapezoidal)
                        .max_halvings(0),
                )
                .unwrap();
            wave.time()
                .iter()
                .zip(wave.voltage(2))
                .map(|(&t, &v)| (v - analytic(t)).abs())
                .fold(0.0f64, f64::max)
        };
        let (coarse, fine) = (max_error(40e-12), max_error(20e-12));
        let ratio = coarse / fine;
        assert!(
            ratio > 3.5,
            "expected ~4x error reduction per dt halving, got {ratio:.2} \
             (coarse {coarse:.3e}, fine {fine:.3e})"
        );
    }

    #[test]
    fn cnfet_inverter_transient_switches() {
        let model = CnfetModel::poly_65nm();
        let nd: Arc<dyn FetModel + Send + Sync> = Arc::new(model.device(Polarity::N, 4, 130e-9));
        let pd: Arc<dyn FetModel + Send + Sync> = Arc::new(model.device(Polarity::P, 4, 130e-9));
        let mut c = MnaCircuit::new();
        let (vdd, vin, vout) = (1, 2, 3);
        c.vsource(vdd, 0, SourceWave::Dc(1.0));
        c.vsource(
            vin,
            0,
            SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 10e-12,
                rise: 2e-12,
                fall: 2e-12,
                width: 100e-12,
                period: 0.0,
            },
        );
        for (d, g, s, m) in [(vout, vin, vdd, &pd), (vout, vin, 0, &nd)] {
            let cg = m.cgate();
            c.capacitor(g, s, cg / 2.0);
            c.capacitor(g, d, cg / 2.0);
            c.capacitor(d, 0, m.cdrain());
            c.fet(d, g, s, Arc::clone(m));
        }
        c.capacitor(vout, 0, 50e-18);
        let mut e = engine_for(&c);
        let wave = e.tran(&c, &TranSpec::new(0.25e-12, 80e-12)).unwrap();
        let v = wave.voltage(vout);
        assert!(v[0] > 0.95, "initial output should be high, got {}", v[0]);
        assert!(
            *v.last().unwrap() < 0.05,
            "final output should be low, got {}",
            v.last().unwrap()
        );
        // Nonlinear circuit: Newton re-stamps every iteration, but the
        // pivot order survives nearly all of them.
        let stats = e.stats();
        assert!(
            stats.refactorizations > 10 * stats.factorizations,
            "{stats:?}"
        );
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn topology_mismatch_is_rejected() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.resistor(1, 0, 1e3);
        let mut e = engine_for(&c);
        c.resistor(1, 0, 1e3); // now a different topology
        let _ = e.dc(&c);
    }
}
