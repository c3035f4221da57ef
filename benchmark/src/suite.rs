//! One run as the driver sees it: an untraced run of one workload gives
//! the end-to-end metrics, a traced run gives every per-layer metric.

use std::path::Path;
use std::time::Instant;

use serde::Value;

use crate::layers::{self, Tally};
use crate::ops::Kind;
use crate::report::{self, traced, Metrics};
use crate::spec::{unit_of, Workload, END_TO_END, PER_LAYER};
use crate::workloads::{self, Plan};
use crate::{json, trace};

/// The result of one run, as the driver reads it.
pub struct Outcome {
    pub workload: &'static str,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Declared metrics the run could not produce.
    pub missing: Vec<&'static str>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.missing.is_empty()
    }

    pub fn metrics_value(&self) -> Value {
        Value::Map(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = unit_of(name).expect("only declared metrics are kept");
                    (
                        name.clone(),
                        json::map([
                            ("value", Value::F64(*value)),
                            ("unit", Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line object the driver parses.
    pub fn result_line(&self) -> String {
        json::render(&json::map([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", self.metrics_value()),
        ]))
    }

    pub fn print_metrics(&self) {
        for (name, value) in &self.metrics {
            print_metric(name, *value);
        }
        println!("attempted_ops {} count", self.attempted);
        println!("failed_ops {} count", self.failed);
        for name in &self.missing {
            println!("MISSING {name}");
        }
    }
}

/// The read rotation of the store workloads, by collapse-factor label.
const READS: [(&str, Kind); 3] = [
    ("count", Kind::Count0),
    ("collect", Kind::Collect),
    ("scan", Kind::Drain),
];

fn print_metric(name: &str, value: f64) {
    println!("{name} {value} {}", unit_of(name).unwrap_or("?"));
}

/// Keeps the declared metrics, in declaration order, and notes the ones
/// that are absent or not finite.
fn keep_declared(
    declared: impl Iterator<Item = &'static str>,
    measured: Metrics,
) -> (Metrics, Vec<&'static str>) {
    let mut kept = Metrics::new();
    let mut missing = Vec::new();
    for name in declared {
        match measured.iter().find(|(n, v)| n == name && v.is_finite()) {
            Some(found) => kept.push(found.clone()),
            None => missing.push(name),
        }
    }
    (kept, missing)
}

pub fn untraced_run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let run = workloads::run(
        workload,
        seed,
        &Plan::untraced(seconds / workloads::WINDOWS as f64),
        Instant::now(),
    );
    print!("{}", report::describe(&run));
    for (name, value) in report::workload_scoped(&run, report::untraced) {
        print_metric(&name, value);
    }
    let (metrics, missing) =
        keep_declared(END_TO_END.iter().map(|e| e.name), report::end_to_end(&run));
    Outcome {
        workload: workload.name(),
        trace: false,
        attempted: run.attempted(),
        failed: run.failed(),
        metrics,
        missing,
    }
}

/// The traced pass: every workload for one untraced and two traced windows
/// (`focus` gets windows twice as long), then the layer probes. The
/// workload windows add up to about half of `seconds`; the probes, which
/// are sized from the same unit, take the rest.
pub fn traced_run(focus: Option<Workload>, seed: u64, seconds: f64, out: &Path) -> Outcome {
    let weight = |w: Workload| if Some(w) == focus { 2.0 } else { 1.0 };
    let unit = seconds / 40.0;
    let mut measured = Metrics::new();
    let mut tally = Tally::default();
    // Traced read medians of the two store workloads, for the collapse
    // factors.
    let mut read_p50 = Vec::new();
    for workload in Workload::ALL {
        let started = Instant::now();
        let run = workloads::run(
            workload,
            seed,
            &Plan::traced(unit * weight(workload)),
            started,
        );
        print!("{}", report::describe(&run));
        println!("# took {:.2} s", started.elapsed().as_secs_f64());
        if let Err(err) = trace::write(out, &run) {
            eprintln!("cannot write the trace of {}: {err}", workload.name());
            tally.failed += 1;
        }
        measured.extend(report::workload_scoped(&run, traced));
        measured.extend(report::layer_counters(&run));
        if let Some(pct) = report::trace_overhead_pct(&run) {
            measured.push((format!("obs.trace_overhead_pct.{}", workload.name()), pct));
        }
        tally.add(&run);
        if workload.layer() == "store" {
            read_p50.push(READS.map(|(_, kind)| run.samples(traced, &[kind]).us(0.5)));
        }
    }
    if let [quiet, loaded] = read_p50[..] {
        for (i, (label, _)) in READS.into_iter().enumerate() {
            if let Some((l, q)) = loaded[i].zip(quiet[i]) {
                measured.push((format!("store.loaded_over_quiet.{label}"), l / q));
            }
        }
    }

    let mut stage = Instant::now();
    let mut lap = |name: &str| {
        println!("# {name} took {:.2} s", stage.elapsed().as_secs_f64());
        stage = Instant::now();
    };
    measured.extend(layers::queue_loops(unit / 4.0));
    lap("queue loops");
    measured.extend(layers::stack_peel(seed, unit, &mut tally));
    lap("stack peel");
    measured.extend(layers::comparisons(seed, unit, &mut tally));
    lap("trie and baselines");
    measured.extend(layers::scan_chunk16_ratio(seed, 64));
    measured.extend(layers::observe_cost(unit / 4.0));
    lap("scan ratio and observe cost");
    measured.extend(layers::count_sweep(seed, unit / 4.0));
    lap("count sweep");

    let (metrics, missing) = keep_declared(PER_LAYER.iter().map(|p| p.name), measured);
    Outcome {
        workload: focus.map_or("all", Workload::name),
        trace: true,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        missing,
    }
}
