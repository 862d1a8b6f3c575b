//! The repository benchmark: three classroom workloads timed from outside
//! the public session API, with output checks and a per-layer trace.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to run
//! it.

pub mod check;
pub mod layers;
pub mod report;
pub mod runner;
pub mod stats;
pub mod workload;
pub mod yardstick;
