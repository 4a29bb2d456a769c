//! A small SPICE: netlists, deck parsing/rendering, and simulation over
//! the reusable-factorization [`cnfet_mna`] engine.
//!
//! This crate replaces HSPICE in the paper's design kit. It supports
//! exactly what the paper's experiments need — resistors, capacitors,
//! inductors, independent voltage sources (DC / pulse / PWL) and
//! quasi-static FETs driven by the [`cnfet_device::FetModel`] trait —
//! plus the delay and energy probes of Section V. Netlists render to a
//! deterministic SPICE dialect ([`Circuit::to_spice`]) and parse back
//! ([`Circuit::from_spice`]); simulation lowers into [`cnfet_mna`]
//! ([`lower::to_mna`]), where one symbolic analysis and one pivot order
//! are reused across timesteps and same-topology corners.
//!
//! # Example: an RC low-pass step response
//!
//! ```
//! use cnfet_spice::{Circuit, Waveform, transient};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add_vsource(vin, Circuit::GROUND, Waveform::Dc(1.0));
//! ckt.add_resistor(vin, vout, 1e3);
//! ckt.add_capacitor(vout, Circuit::GROUND, 1e-12);
//! let tran = transient(&ckt, 1e-11, 10e-9).unwrap();
//! let v_end = *tran.voltage(vout).last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 10 RC
//! ```

pub mod deck;
pub mod lower;
pub mod measure;
pub mod netlist;
pub mod sim;

pub use deck::DeckError;
pub use lower::to_mna;
pub use measure::{crossing_time, energy_from_supply, propagation_delay, Edge};
pub use netlist::{Circuit, Element, Node, Waveform};
pub use sim::{dc_operating_point, transient, SimError, Transient};
