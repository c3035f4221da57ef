//! Self-tests of the benchmark: determinism of the generated inputs, and
//! agreement between what the benchmark prints and what `BENCHMARK.json`
//! declares.

use std::collections::BTreeSet;

use wft_benchmark::json;
use wft_benchmark::ops::{stream_hash, OpGen};
use wft_benchmark::spec::{Workload, END_TO_END, PER_LAYER};
use wft_benchmark::suite::untraced_run;

const DECLARED: &str = include_str!("../../BENCHMARK.json");

fn stream_hashes(workload: Workload, seed: u64) -> Vec<u64> {
    let mixes = workload.mixes();
    mixes
        .iter()
        .enumerate()
        .map(|(t, &mix)| stream_hash(&mut OpGen::new(mix, seed, t, mixes.len()), 10_000))
        .collect()
}

#[test]
fn same_seed_same_op_stream_and_other_seed_another() {
    for workload in Workload::ALL {
        let name = workload.name();
        assert_eq!(
            stream_hashes(workload, 42),
            stream_hashes(workload, 42),
            "{name}"
        );
        assert_ne!(
            stream_hashes(workload, 42),
            stream_hashes(workload, 43),
            "{name}"
        );
        let per_thread = stream_hashes(workload, 42);
        assert_ne!(
            per_thread[0], per_thread[1],
            "{name}: each thread has its own stream"
        );
    }
}

fn declared_names(section: &str) -> Vec<String> {
    let doc = json::parse(DECLARED).expect("BENCHMARK.json parses");
    json::items(doc.get(section).expect("section present"))
        .iter()
        .map(|entry| json::text(entry.get("name").expect("name")).expect("name is a string"))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn printed_names_are_the_declared_names() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared_names("workloads"), workloads);
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
    assert_eq!(declared_names("end_to_end"), end_to_end);
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|p| p.name).collect();
    assert_eq!(declared_names("per_layer"), per_layer);

    let all: Vec<&str> = [workloads, end_to_end, per_layer].concat();
    assert!(
        all.iter().all(|n| well_formed(n)),
        "names match [A-Za-z0-9_.-]+"
    );
    let unique: BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "every name is used once");
}

#[test]
fn declared_units_directions_and_reasons_match() {
    let doc = json::parse(DECLARED).expect("BENCHMARK.json parses");
    let field = |entry: &serde::Value, key: &str| json::text(entry.get(key).unwrap()).unwrap();
    for (entry, spec) in json::items(doc.get("end_to_end").unwrap())
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(field(entry, "unit"), spec.unit, "{}", spec.name);
        assert_eq!(
            field(entry, "better"),
            spec.better.as_str(),
            "{}",
            spec.name
        );
        let bound = json::number(entry.get("bound").unwrap()).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
    }
    for (entry, spec) in json::items(doc.get("per_layer").unwrap())
        .iter()
        .zip(PER_LAYER)
    {
        assert_eq!(field(entry, "unit"), spec.unit, "{}", spec.name);
        assert_eq!(
            field(entry, "better"),
            spec.better.as_str(),
            "{}",
            spec.name
        );
    }
    for (entry, workload) in json::items(doc.get("workloads").unwrap())
        .iter()
        .zip(Workload::ALL)
    {
        let why = field(entry, "why");
        assert_eq!(why, workload.why());
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn every_per_layer_metric_names_its_layer_and_what_it_should_move() {
    let layers = [
        "queue", "core", "trie", "store", "durable", "obs", "baseline",
    ];
    for spec in PER_LAYER {
        let layer = spec.layer();
        assert!(
            layers.contains(&layer) || Workload::from_name(layer).is_some(),
            "{}: unknown layer {layer}",
            spec.name
        );
        assert!(!spec.moves.is_empty(), "{} moves nothing", spec.name);
        for (metric, workload) in spec.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *metric),
                "{}: {metric} is not an end-to-end metric",
                spec.name
            );
            assert!(
                Workload::from_name(workload).is_some(),
                "{}: {workload} is not a workload",
                spec.name
            );
        }
    }
}

/// A short real run: the metrics that come out are the declared end-to-end
/// set, each finite and non-zero, and no operation fails.
#[test]
fn an_untraced_run_reports_exactly_the_end_to_end_metrics() {
    for workload in [Workload::TreeMixed, Workload::StoreReadUnderWrites] {
        let outcome = untraced_run(workload, 42, 0.6);
        assert!(outcome.correct(), "{} failed", workload.name());
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names, declared);
        assert!(outcome
            .metrics
            .iter()
            .all(|(_, v)| v.is_finite() && *v > 0.0));
        let line = json::parse(&outcome.result_line()).expect("result line is JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(line.get(key).is_ok(), "result line has {key}");
        }
    }
}
