//! Spans, recorded from outside: one per timed call into a layer's public
//! functions, kept in memory while the clients run and written as JSON
//! lines when the run has ended.
//!
//! Line shapes (`*_ns` count from the run's epoch):
//!
//! ```text
//! {"span":"run","id":"run","name":"durable-mixed","start_ns":0,"end_ns":..}
//! {"span":"window","id":"w3","parent":"run","name":"window-1","traced":true,"start_ns":..,"end_ns":..}
//! {"span":"op","parent":"w3","name":"durable.replace","thread":0,"op":1234,"start_ns":..,"end_ns":..}
//! ```

use std::fmt::Write as _;
use std::path::Path;

use crate::workloads::Run;

pub fn render(run: &Run) -> String {
    let mut out = String::new();
    let end = run
        .times
        .last()
        .map_or(0, |t| t.start_ns + (t.secs * 1e9) as u64);
    let name = run.workload.name();
    let _ = writeln!(
        out,
        r#"{{"span":"run","id":"run","name":"{name}","start_ns":0,"end_ns":{end}}}"#
    );
    for (i, (phase, time)) in run.phases.iter().zip(&run.times).enumerate() {
        let _ = writeln!(
            out,
            r#"{{"span":"window","id":"w{i}","parent":"run","name":"{}","traced":{},"start_ns":{},"end_ns":{}}}"#,
            phase.name,
            phase.trace,
            time.start_ns,
            time.start_ns + (time.secs * 1e9) as u64
        );
    }
    let layer = run.workload.layer();
    for span in run.logs.iter().flat_map(|log| &log.spans) {
        let _ = writeln!(
            out,
            r#"{{"span":"op","parent":"w{}","name":"{layer}.{}","thread":{},"op":{},"start_ns":{},"end_ns":{}}}"#,
            span.phase,
            span.kind.function(),
            span.thread,
            span.op,
            span.start_ns,
            span.end_ns
        );
    }
    out
}

pub fn write(dir: &Path, run: &Run) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace-{}.jsonl", run.workload.name())),
        render(run),
    )
}
