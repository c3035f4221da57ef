//! Rendering the generated `ANALYSIS.md` inventory.
//!
//! The report is deterministic (inputs arrive pre-sorted from
//! [`crate::run`]) so CI can regenerate it and `git diff --exit-code` —
//! any PR that changes the concurrency surface shows up as a diff of
//! this one file, reviewable next to the code change that caused it.

use crate::Outcome;

/// Renders the full `ANALYSIS.md` body for an audit outcome.
pub fn render(outcome: &Outcome) -> String {
    let mut out = String::new();
    out.push_str(
        "# Concurrency-surface analysis\n\n\
         *Generated by `cargo run -p wft-lint --release` — do not edit by hand.\n\
         CI regenerates this file and fails if it is stale.*\n\n",
    );
    let mut per_rule = std::collections::BTreeMap::<&str, usize>::new();
    for w in &outcome.waivers {
        *per_rule.entry(w.rule.as_str()).or_default() += 1;
    }
    let per_rule: Vec<String> = per_rule
        .iter()
        .map(|(rule, n)| format!("{rule}: {n}"))
        .collect();
    let per_rule = if per_rule.is_empty() {
        String::new()
    } else {
        format!(" ({})", per_rule.join(", "))
    };
    out.push_str(&format!(
        "Scanned **{}** source files: **{}** documented `unsafe` sites, \
         **{}** justified non-`Relaxed` atomic lines, **{}** waivers in force{}, \
         **{}** violations.\n\n",
        outcome.files_scanned,
        outcome.unsafe_sites.len(),
        outcome.ordering_sites.len(),
        outcome.waivers.len(),
        per_rule,
        outcome.violations.len(),
    ));

    out.push_str("## Unsafe inventory\n\n");
    out.push_str("Every `unsafe` keyword in production code, with its SAFETY argument.\n\n");
    out.push_str("| Location | Kind | SAFETY (excerpt) |\n|---|---|---|\n");
    for s in &outcome.unsafe_sites {
        out.push_str(&format!(
            "| `{}:{}` | {} | {} |\n",
            s.path, s.line, s.kind, s.justification
        ));
    }

    out.push_str("\n## Ordering inventory\n\n");
    out.push_str(
        "Every source line using a non-`Relaxed` atomic ordering, with the\n\
         pairing justification. `SeqCst` lines carry an explicit waiver.\n\n",
    );
    out.push_str("| Location | Orderings | ORDERING (excerpt) |\n|---|---|---|\n");
    for s in &outcome.ordering_sites {
        out.push_str(&format!(
            "| `{}:{}` | {} | {} |\n",
            s.path, s.line, s.kind, s.justification
        ));
    }

    out.push_str("\n## Waivers in force\n\n");
    if outcome.waivers.is_empty() {
        out.push_str("None.\n");
    } else {
        out.push_str("| Location | Rule | Reason |\n|---|---|---|\n");
        for w in &outcome.waivers {
            out.push_str(&format!(
                "| `{}:{}` | {} | {} |\n",
                w.path,
                w.line,
                w.rule,
                w.reason.replace('|', "\\|")
            ));
        }
    }

    if !outcome.violations.is_empty() {
        out.push_str("\n## Violations\n\n");
        for v in &outcome.violations {
            out.push_str(&format!(
                "- `{}:{}` [{}] {}\n",
                v.path, v.line, v.rule, v.message
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{Site, Waiver};

    #[test]
    fn render_is_deterministic_and_tabular() {
        let outcome = Outcome {
            unsafe_sites: vec![Site {
                path: "crates/x/src/a.rs".into(),
                line: 3,
                kind: "unsafe block".into(),
                justification: "SAFETY: guarded".into(),
            }],
            ordering_sites: vec![Site {
                path: "crates/x/src/a.rs".into(),
                line: 9,
                kind: "Acquire".into(),
                justification: "ORDERING: pairs with release".into(),
            }],
            waivers: ["seqcst", "forbidden-api", "seqcst"]
                .iter()
                .enumerate()
                .map(|(n, rule)| Waiver {
                    path: "crates/x/src/a.rs".into(),
                    line: 8 + n,
                    rule: (*rule).into(),
                    reason: "total order".into(),
                })
                .collect(),
            files_scanned: 1,
            ..Outcome::default()
        };
        let a = render(&outcome);
        let b = render(&outcome);
        assert_eq!(a, b);
        assert!(a.contains("| `crates/x/src/a.rs:3` | unsafe block |"));
        assert!(a.contains("**3** waivers in force (forbidden-api: 1, seqcst: 2)"));
        assert!(a.contains("## Waivers in force"));
        assert!(!a.contains("## Violations"));
    }
}
