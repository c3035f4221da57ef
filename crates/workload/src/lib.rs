//! Workload generation and measurement harness for the paper's evaluation.
//!
//! The paper's experiments (§III) are throughput measurements: `T` threads
//! hammer a pre-filled tree with a fixed operation mix for a fixed wall-clock
//! interval, and each plotted point is the average of several runs. This
//! crate reproduces that methodology:
//!
//! * [`adapter`] — a single [`adapter::ConcurrentSet`] interface provided
//!   by one blanket impl over the `wft-api` trait family, so every backend
//!   in the workspace (and any future one implementing `PointMap` +
//!   `RangeRead`) slots into the experiments without adapter code;
//! * [`spec`] — declarative workload descriptions matching the paper's three
//!   benchmarks (read-heavy `contains`, insert-delete, successful-insert)
//!   plus the range-query mixes used by the additional experiments;
//! * [`harness`] — the timed multi-threaded throughput runner: prefill, `T`
//!   workers behind a barrier, one fixed interval, a sampled latency
//!   histogram and a watchdog for wedged workers.
//!
//! Repetition, aggregation and every reported number live in `benchmark/`;
//! this crate only drives traffic for tests and examples.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapter;
pub mod harness;
pub mod spec;

pub use adapter::{ConcurrentSet, TreeImpl};
pub use harness::{run_once, RunResult, WATCHDOG_GRACE};
pub use spec::{KeyDistribution, OperationMix, Prefill, WorkloadSpec};
