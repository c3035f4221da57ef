//! The repo benchmark. See `README.md` beside this crate for the metric
//! table, the workloads and how to read the trace files.

pub mod client;
pub mod json;
pub mod layers;
pub mod ops;
pub mod report;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
