//! Self-tests over the checked-in fixture workspaces in
//! `tests/fixtures/`: the broken fixture must trip every rule (and make
//! the binary exit nonzero), the clean fixture must pass with its
//! waivers inventoried.

use std::path::PathBuf;
use std::process::Command;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn audit(name: &str) -> wft_lint::Outcome {
    let root = fixture_root(name);
    let cfg = wft_lint::load_config(&root).expect("fixture lint.toml parses");
    wft_lint::run(&root, &cfg).expect("fixture tree scans")
}

#[test]
fn broken_fixture_trips_every_rule() {
    let outcome = audit("broken");
    assert!(!outcome.clean());
    let rules: Vec<&str> = outcome.violations.iter().map(|v| v.rule).collect();
    for expected in [
        "undocumented-unsafe",
        "undocumented-ordering",
        "seqcst",
        "forbidden-api",
        "metrics-liveness",
    ] {
        assert!(
            rules.contains(&expected),
            "rule {expected} did not fire on the broken fixture; fired: {rules:?}"
        );
    }
    for v in &outcome.violations {
        assert_eq!(v.path, "crates/bad/src/lib.rs");
    }
}

#[test]
fn broken_fixture_decoys_do_not_add_violations() {
    // One violation per seeded defect and none from the string/comment
    // decoys: unsafe, Acquire, SeqCst, sleep, dead metric, dead cell.
    let outcome = audit("broken");
    assert_eq!(
        outcome.violations.len(),
        6,
        "unexpected violation set: {:#?}",
        outcome.violations
    );
    let dead_cell = |v: &&wft_lint::Violation| v.message.contains("`dead_cell`");
    assert_eq!(outcome.violations.iter().filter(dead_cell).count(), 1);
}

#[test]
fn clean_fixture_passes_with_waivers_inventoried() {
    let outcome = audit("clean");
    assert!(
        outcome.clean(),
        "clean fixture must audit clean: {:#?}",
        outcome.violations
    );
    // Both escape hatches show up in the waiver inventory.
    let rules: Vec<&str> = outcome.waivers.iter().map(|w| w.rule.as_str()).collect();
    assert!(rules.contains(&"seqcst"));
    assert!(rules.contains(&"forbidden-api"));
    // The compliant sites are inventoried (two unsafe derefs, the
    // Acquire/Release/SeqCst lines).
    assert_eq!(outcome.unsafe_sites.len(), 2);
    assert!(outcome.ordering_sites.len() >= 3);
}

#[test]
fn binary_exits_nonzero_on_broken_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_wft-lint");
    let broken = Command::new(bin)
        .args(["--check", "--root"])
        .arg(fixture_root("broken"))
        .output()
        .expect("wft-lint runs");
    assert!(
        !broken.status.success(),
        "wft-lint must exit nonzero on the broken fixture"
    );
    let clean = Command::new(bin)
        .args(["--check", "--root"])
        .arg(fixture_root("clean"))
        .output()
        .expect("wft-lint runs");
    assert!(
        clean.status.success(),
        "wft-lint must exit zero on the clean fixture: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
}
