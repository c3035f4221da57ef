//! # `wft-obs` — unified observability for the wait-free-tree workspace
//!
//! The paper's evaluation is throughput-vs-threads, but everything grown
//! on top of it — global snapshot fronts, streaming scan cursors,
//! fast-path/fallback reads — lives and dies on **tail behaviour under
//! contention**: retry storms, helping cascades, fallback rates. This
//! crate is the single instrumentation layer every other crate threads
//! through:
//!
//! * [`Counter`] / [`Gauge`] — per-thread-sharded relaxed-atomic cells
//!   ([`cell`]): hot paths pay one uncontended `fetch_add`, readers sum
//!   the cells. They are the **only** storage of every event counter in
//!   the workspace: the trees, the store's front table, the durable
//!   journal and the persistent baseline embed cells, not atomics.
//! * [`LatencyHistogram`] — log-bucketed (power-of-~1.25 over ns),
//!   mergeable, with [`HistogramSnapshot::quantile`] for p50/p99/p999
//!   ([`hist`]).
//! * [`MetricsSnapshot`] — the flat serializable reading with
//!   **delta arithmetic** for per-window rates, exported as JSON or
//!   Prometheus text ([`snapshot`]).
//! * [`Registry`] + [`MetricsSource`] — owned instruments plus pulled
//!   sources ([`registry`]): a structure reports its cells by name through
//!   [`MetricsSource::collect_metrics`], the one way to read them. A
//!   sample name (say `store_snapshot_retries`) is the API, readable
//!   through both exporters, window deltas and [`MetricsSource::metrics`].
//! * [`TraceRing`] — a bounded lock-free ring of typed, timestamped
//!   anomaly events ([`trace`]): cheap enough to leave on, drainable as a
//!   post-mortem timeline (the stuck-worker watchdog dumps it when
//!   workers outlive the stop flag).
//!
//! The crate is a dependency leaf (it knows nothing about trees or
//! stores), so every layer — `wft-core`, `wft-store`, `wft-durable` and
//! the baselines — can depend on it without cycles.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cell;
pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use cell::{Counter, Gauge};
pub use hist::{BucketCount, HistogramSnapshot, LatencyHistogram};
pub use registry::{MetricsSource, Registry};
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
pub use trace::{TraceEvent, TraceKind, TraceRing, NO_SHARD};
