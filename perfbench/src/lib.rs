//! The repository's benchmark: three seeded closed-loop workloads against
//! the public `cnfet::Session` and `cnfet_serve::{Server, Client}` APIs,
//! end-to-end metrics from untraced runs, and per-layer metrics from a
//! traced run that times calls into each layer from outside. See
//! `README.md` in this directory.

pub mod expected;
pub mod gen;
pub mod layers;
pub mod procfs;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
