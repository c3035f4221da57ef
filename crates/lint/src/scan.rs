//! The audit rules, applied to one lexed file at a time.
//!
//! Four rules, each with the shared waiver escape hatch
//! `// wft-lint: allow(<rule>) -- <reason>`:
//!
//! 1. **undocumented-unsafe** — every `unsafe` keyword in code must have
//!    a `SAFETY:` comment (or a `# Safety` doc section) attached to its
//!    statement.
//! 2. **undocumented-ordering** — every line using a non-`Relaxed`
//!    `Ordering::` must carry an `ORDERING:` comment naming the pairing
//!    site; **seqcst** — `Ordering::SeqCst` is additionally denied
//!    without an explicit waiver.
//! 3. **forbidden-api** — per-path deny lists from `lint.toml`.
//! 4. **metrics-liveness** — every sample a `MetricsSource` impl reports
//!    must be backed by state the crate actually mutates (or computes).
//!
//! "Attached" commentary is resolved lexically: the trailing comment on
//! the line itself, plus comments on earlier lines of the *same
//! statement* (scanning up until a line ending in `;`, `{` or `}`), plus
//! the contiguous comment/attribute run immediately above the statement.
//! A blank line breaks attachment, matching clippy's
//! `undocumented_unsafe_blocks` convention.

use crate::config::Config;
use crate::lexer::LexedFile;

/// How far attachment scanning walks upward before giving up. Real
/// comment runs in this workspace are far shorter; the cap only bounds
/// pathological files.
const ATTACH_SCAN_CAP: usize = 60;

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier as used in waivers (e.g. `undocumented-unsafe`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// An inventoried (compliant) site, for the `ANALYSIS.md` report.
#[derive(Debug, Clone)]
pub struct Site {
    pub path: String,
    pub line: usize,
    /// What the site is (`unsafe fn`, `Acquire`, `SeqCst+waiver`, …).
    pub kind: String,
    /// Excerpt of the attached justification.
    pub justification: String,
}

/// A waiver in force somewhere in the tree.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub path: String,
    pub line: usize,
    pub rule: String,
    pub reason: String,
}

/// Everything one file contributes to the audit.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub unsafe_sites: Vec<Site>,
    pub ordering_sites: Vec<Site>,
    pub waivers: Vec<Waiver>,
}

/// Runs rules 1–3 over one lexed file. `path` must be workspace-relative
/// with `/` separators (it is matched against `lint.toml` path prefixes).
pub fn scan_file(path: &str, lexed: &LexedFile, cfg: &Config) -> FileReport {
    let mut rep = FileReport::default();
    let test_mask = test_region_mask(lexed);

    collect_waivers(path, lexed, &test_mask, &mut rep);
    rule_undocumented_unsafe(path, lexed, &test_mask, &mut rep);
    rule_undocumented_ordering(path, lexed, &test_mask, &mut rep);
    rule_forbidden_api(path, lexed, &test_mask, cfg, &mut rep);
    rep
}

/// Lines covered by `#[cfg(test)] mod … { … }` regions. Test code is
/// exempt from the audit: it runs single-threaded under the harness and
/// its panics are the point.
fn test_region_mask(lexed: &LexedFile) -> Vec<bool> {
    let mut mask = vec![false; lexed.len()];
    let mut l = 0;
    while l < lexed.len() {
        let code = lexed.code[l].trim();
        let is_test_attr = code.starts_with("#[cfg(") && code.contains("test");
        if !is_test_attr {
            l += 1;
            continue;
        }
        // Find the `{` that opens the annotated item, then brace-match.
        let mut depth: i32 = 0;
        let mut opened = false;
        let start = l;
        let mut end = l;
        'outer: for (scan, code_line) in lexed.code.iter().enumerate().skip(l) {
            for c in code_line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = scan;
                            break 'outer;
                        }
                    }
                    // An item that ends before any brace opens (e.g.
                    // `#[cfg(test)] use …;`) covers just those lines.
                    ';' if !opened => {
                        end = scan;
                        break 'outer;
                    }
                    _ => {}
                }
            }
            end = scan;
        }
        for m in mask.iter_mut().take(end + 1).skip(start) {
            *m = true;
        }
        l = end + 1;
    }
    mask
}

/// The commentary attached to `line`: its own trailing comment, comments
/// on earlier lines of the same statement, and the contiguous
/// comment/attribute run immediately above the statement.
fn attached_comments(lexed: &LexedFile, line: usize) -> String {
    let mut parts: Vec<&str> = vec![lexed.comments[line].as_str()];
    let mut l = line;
    for _ in 0..ATTACH_SCAN_CAP {
        if l == 0 {
            break;
        }
        l -= 1;
        let code = lexed.code[l].trim_end();
        let trimmed = code.trim();
        let comment = lexed.comments[l].as_str();
        if trimmed.is_empty() && comment.is_empty() {
            break; // blank line severs attachment
        }
        if trimmed.is_empty() || trimmed.starts_with("#[") || trimmed.starts_with("#!") {
            parts.push(comment);
            continue;
        }
        if trimmed.ends_with(';') || trimmed.ends_with('{') || trimmed.ends_with('}') {
            // Previous statement ended here; its trailing comment does
            // not attach to ours. The pure-comment run above the current
            // statement was already collected by the branches above.
            break;
        }
        // Mid-statement code line: its trailing comment attaches.
        parts.push(comment);
    }
    parts.reverse();
    parts.join("\n")
}

/// Extracts `wft-lint: allow(<rule>) -- <reason>` pairs from commentary.
fn waivers_in(commentary: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = commentary;
    while let Some(pos) = rest.find("wft-lint: allow(") {
        let after = &rest[pos + "wft-lint: allow(".len()..];
        if let Some(close) = after.find(')') {
            let rule = after[..close].trim().to_owned();
            let tail = &after[close + 1..];
            // Placeholder syntax in prose (`allow(<rule>)`) is not a
            // waiver; real rule names are lowercase-kebab identifiers.
            let is_rule_name = !rule.is_empty()
                && rule
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
            if is_rule_name {
                let reason = tail
                    .trim_start()
                    .strip_prefix("--")
                    .map(|r| r.lines().next().unwrap_or("").trim().to_owned())
                    .unwrap_or_default();
                out.push((rule, reason));
            }
            rest = tail;
        } else {
            break;
        }
    }
    out
}

fn has_waiver(commentary: &str, rule: &str) -> Option<String> {
    waivers_in(commentary)
        .into_iter()
        .find(|(r, _)| r == rule)
        .map(|(_, reason)| reason)
}

/// Records every waiver in the file so `ANALYSIS.md` can inventory them.
fn collect_waivers(path: &str, lexed: &LexedFile, test_mask: &[bool], rep: &mut FileReport) {
    for (l, comment) in lexed.comments.iter().enumerate() {
        if test_mask[l] {
            continue;
        }
        for (rule, reason) in waivers_in(comment) {
            rep.waivers.push(Waiver {
                path: path.to_owned(),
                line: l + 1,
                rule,
                reason,
            });
        }
    }
}

/// First ~`width` chars of the justification, single-line, for tables.
fn excerpt(commentary: &str, marker: &str, width: usize) -> String {
    let text = commentary
        .find(marker)
        .map(|pos| &commentary[pos..])
        .unwrap_or(commentary);
    let one_line = text
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
        .replace('|', "\\|");
    let mut out: String = one_line.chars().take(width).collect();
    if one_line.chars().count() > width {
        out.push('…');
    }
    out
}

/// Whether `code` contains `word` as a whole word (identifier-bounded).
fn contains_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + word.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

/// A short label for what kind of unsafe site a line is.
fn unsafe_kind(code: &str) -> &'static str {
    let t = code.trim();
    if t.contains("unsafe impl") {
        "unsafe impl"
    } else if t.contains("unsafe fn") {
        "unsafe fn"
    } else if t.contains("unsafe trait") {
        "unsafe trait"
    } else {
        "unsafe block"
    }
}

fn rule_undocumented_unsafe(
    path: &str,
    lexed: &LexedFile,
    test_mask: &[bool],
    rep: &mut FileReport,
) {
    for (l, masked) in test_mask.iter().enumerate().take(lexed.len()) {
        if *masked || !contains_word(&lexed.code[l], "unsafe") {
            continue;
        }
        let commentary = attached_comments(lexed, l);
        let documented = commentary.contains("SAFETY:") || commentary.contains("# Safety");
        if documented {
            let marker = if commentary.contains("SAFETY:") {
                "SAFETY:"
            } else {
                "# Safety"
            };
            rep.unsafe_sites.push(Site {
                path: path.to_owned(),
                line: l + 1,
                kind: unsafe_kind(&lexed.code[l]).to_owned(),
                justification: excerpt(&commentary, marker, 100),
            });
        } else if let Some(reason) = has_waiver(&commentary, "undocumented-unsafe") {
            rep.unsafe_sites.push(Site {
                path: path.to_owned(),
                line: l + 1,
                kind: format!("{} (waived)", unsafe_kind(&lexed.code[l])),
                justification: reason,
            });
        } else {
            rep.violations.push(Violation {
                path: path.to_owned(),
                line: l + 1,
                rule: "undocumented-unsafe",
                message: format!(
                    "{} without an attached `// SAFETY:` comment",
                    unsafe_kind(&lexed.code[l])
                ),
            });
        }
    }
}

/// The non-`Relaxed` ordering tokens a code line mentions, in order.
///
/// `bare` lists tokens the file imports directly
/// (`use std::sync::atomic::Ordering::{Acquire, ...};`), which later appear
/// without the `Ordering::` path — e.g. `load(Acquire, guard)`.
fn ordering_tokens(code: &str, bare: &[&'static str]) -> Vec<&'static str> {
    let mut found = Vec::new();
    for tok in ["Acquire", "Release", "AcqRel", "SeqCst"] {
        let needle = format!("Ordering::{tok}");
        let mut start = 0;
        while let Some(pos) = code[start..].find(&needle) {
            found.push((start + pos, tok));
            start += pos + needle.len();
        }
        if !bare.contains(&tok) {
            continue;
        }
        let mut start = 0;
        while let Some(pos) = code[start..].find(tok) {
            let abs = start + pos;
            start = abs + tok.len();
            // Word-boundary check so `Acquired` does not count; a preceding
            // `:` means the qualified scan above already recorded this use.
            let before_ok = abs == 0
                || !code[..abs]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':');
            let after_ok = !code[start..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if before_ok && after_ok {
                found.push((abs, tok));
            }
        }
    }
    found.sort_by_key(|&(pos, _)| pos);
    found.into_iter().map(|(_, t)| t).collect()
}

/// Ordering tokens a file imports bare via `use ...::Ordering::{...}`.
fn bare_ordering_imports(lexed: &LexedFile) -> Vec<&'static str> {
    let mut out = Vec::new();
    for code in &lexed.code {
        let t = code.trim_start();
        if !(t.starts_with("use ") || t.starts_with("pub use ")) || !code.contains("Ordering::") {
            continue;
        }
        for tok in ["Acquire", "Release", "AcqRel", "SeqCst"] {
            if contains_word(code, tok) && !out.contains(&tok) {
                out.push(tok);
            }
        }
    }
    out
}

fn rule_undocumented_ordering(
    path: &str,
    lexed: &LexedFile,
    test_mask: &[bool],
    rep: &mut FileReport,
) {
    let bare = bare_ordering_imports(lexed);
    for (l, masked) in test_mask.iter().enumerate().take(lexed.len()) {
        if *masked {
            continue;
        }
        if lexed.code[l].trim_start().starts_with("use ")
            || lexed.code[l].trim_start().starts_with("pub use ")
        {
            continue;
        }
        let toks = ordering_tokens(&lexed.code[l], &bare);
        if toks.is_empty() {
            continue;
        }
        let commentary = attached_comments(lexed, l);
        let has_seqcst = toks.contains(&"SeqCst");
        let documented = commentary.contains("ORDERING:");
        let kind = toks.join("+");

        if !documented && has_waiver(&commentary, "undocumented-ordering").is_none() {
            rep.violations.push(Violation {
                path: path.to_owned(),
                line: l + 1,
                rule: "undocumented-ordering",
                message: format!(
                    "non-Relaxed atomic ordering ({kind}) without an attached \
                     `// ORDERING:` comment naming its pairing site"
                ),
            });
            continue;
        }
        if has_seqcst {
            match has_waiver(&commentary, "seqcst") {
                Some(reason) => rep.ordering_sites.push(Site {
                    path: path.to_owned(),
                    line: l + 1,
                    kind: format!("{kind} (waived)"),
                    justification: if reason.is_empty() {
                        excerpt(&commentary, "ORDERING:", 100)
                    } else {
                        reason
                    },
                }),
                None => rep.violations.push(Violation {
                    path: path.to_owned(),
                    line: l + 1,
                    rule: "seqcst",
                    message: "Ordering::SeqCst is denied by default; justify it with \
                              `// wft-lint: allow(seqcst) -- <why a total order is required>` \
                              or downgrade"
                        .to_owned(),
                }),
            }
        } else {
            rep.ordering_sites.push(Site {
                path: path.to_owned(),
                line: l + 1,
                kind,
                justification: excerpt(&commentary, "ORDERING:", 100),
            });
        }
    }
}

fn rule_forbidden_api(
    path: &str,
    lexed: &LexedFile,
    test_mask: &[bool],
    cfg: &Config,
    rep: &mut FileReport,
) {
    for rule in &cfg.forbidden {
        if !rule.paths.iter().any(|p| path.starts_with(p.as_str())) {
            continue;
        }
        for (l, masked) in test_mask.iter().enumerate().take(lexed.len()) {
            if *masked {
                continue;
            }
            let code = &lexed.code[l];
            for deny in &rule.deny {
                if !code.contains(deny.as_str()) {
                    continue;
                }
                if rule
                    .allow_within_line
                    .iter()
                    .any(|a| code.contains(a.as_str()))
                {
                    continue;
                }
                let commentary = attached_comments(lexed, l);
                if has_waiver(&commentary, "forbidden-api").is_some()
                    || has_waiver(&commentary, &rule.name).is_some()
                {
                    continue;
                }
                rep.violations.push(Violation {
                    path: path.to_owned(),
                    line: l + 1,
                    rule: "forbidden-api",
                    message: format!("`{deny}` is denied here ({}): {}", rule.name, rule.reason),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: metrics liveness. Works crate-wide, so it lives outside scan_file.
// ---------------------------------------------------------------------------

/// A sample pushed by a `MetricsSource` impl.
#[derive(Debug)]
pub struct ReportedMetric {
    pub path: String,
    /// 1-based line of the `push_*` call.
    pub line: usize,
    /// The metric name (first string literal in the call).
    pub name: String,
    /// Identifiers appearing in the value expression.
    pub idents: Vec<String>,
    /// Identifiers that are *invoked* (`ident(`) in the expression — a
    /// computed sample is inherently live.
    pub called: Vec<String>,
    /// Whether a `metrics-liveness` waiver is attached.
    pub waived: bool,
}

/// Identifiers that never name backing state on their own. The read-only
/// cell accessors (`value`, `snapshot`) are here too: reading a `wft-obs`
/// cell is not a computation, so a sample backed by a cell is live only if
/// the crate bumps that cell.
const IDENT_STOPLIST: &[&str] = &[
    "self",
    "load",
    "value",
    "snapshot",
    "Ordering",
    "Relaxed",
    "Acquire",
    "Release",
    "SeqCst",
    "AcqRel",
    "as",
    "u64",
    "i64",
    "u32",
    "i32",
    "usize",
    "isize",
    "f64",
    "String",
    "to_owned",
    "to_string",
    "clone",
    "into",
    "from",
    "out",
    "push_counter",
    "push_gauge",
    "push_histogram",
];

/// Extracts every sample reported inside `impl MetricsSource` blocks.
pub fn reported_metrics(path: &str, lexed: &LexedFile) -> Vec<ReportedMetric> {
    let mut out = Vec::new();
    let regions = metrics_source_impl_regions(lexed);
    if regions.is_empty() {
        return out;
    }
    let test_mask = test_region_mask(lexed);
    for &(start, end) in &regions {
        let stop = end.min(lexed.len().saturating_sub(1));
        for (l, masked) in test_mask.iter().enumerate().take(stop + 1).skip(start) {
            if *masked {
                continue;
            }
            let code = &lexed.code[l];
            for call in ["push_counter(", "push_gauge(", "push_histogram("] {
                let mut from = 0;
                while let Some(pos) = code[from..].find(call) {
                    let abs = from + pos;
                    from = abs + call.len();
                    // Only method calls (`out.push_counter(…)`); skip the
                    // declarations in wft-obs itself.
                    if !code[..abs].trim_end().ends_with('.') {
                        continue;
                    }
                    let (span_end, expr) = call_span(lexed, l, abs + call.len() - 1);
                    let name = lexed
                        .strings
                        .iter()
                        .find(|s| s.line >= l && s.line <= span_end)
                        .map(|s| s.text.clone())
                        .unwrap_or_default();
                    let (idents, called) = expr_idents(&expr);
                    let commentary = attached_comments(lexed, l);
                    out.push(ReportedMetric {
                        path: path.to_owned(),
                        line: l + 1,
                        name,
                        idents,
                        called,
                        waived: has_waiver(&commentary, "metrics-liveness").is_some(),
                    });
                }
            }
        }
    }
    out
}

/// `(start, end)` line ranges of `impl … MetricsSource … for … { … }`,
/// including headers rustfmt wrapped before the `for`.
fn metrics_source_impl_regions(lexed: &LexedFile) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut l = 0;
    while l < lexed.len() {
        let code = &lexed.code[l];
        let header_has_for = || {
            let end = lexed.code[l..].iter().position(|line| line.contains('{'));
            let header = &lexed.code[l..=l + end.unwrap_or(0)];
            header.iter().any(|line| line.contains("for"))
        };
        if !(code.contains("impl") && code.contains("MetricsSource") && header_has_for()) {
            l += 1;
            continue;
        }
        let mut depth: i32 = 0;
        let mut opened = false;
        let start = l;
        let mut end = l;
        'outer: for (scan, code_line) in lexed.code.iter().enumerate().skip(l) {
            for c in code_line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = scan;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
            end = scan;
        }
        regions.push((start, end));
        l = end + 1;
    }
    regions
}

/// The text of a call's argument list, from the `(` at (`line`, `col`)
/// to its matching `)`. Returns the end line and the flattened text.
fn call_span(lexed: &LexedFile, line: usize, col: usize) -> (usize, String) {
    let mut depth: i32 = 0;
    let mut text = String::new();
    for (l, code_line) in lexed.code.iter().enumerate().skip(line) {
        let chars: Box<dyn Iterator<Item = char>> = if l == line {
            Box::new(code_line.chars().skip(col))
        } else {
            Box::new(code_line.chars())
        };
        for c in chars {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return (l, text);
                    }
                }
                _ => {}
            }
            text.push(c);
        }
        text.push(' ');
    }
    (lexed.len().saturating_sub(1), text)
}

/// Splits an expression's identifiers into (state, invoked-as-call). In a
/// field path only the last field names state: `self.cells.hits.value()`
/// yields `hits`, not the containers `self` and `cells`.
fn expr_idents(expr: &str) -> (Vec<String>, Vec<String>) {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let named =
        |w: &str| w.starts_with(|c: char| !c.is_ascii_digit()) && !IDENT_STOPLIST.contains(&w);
    let (mut idents, mut called) = (Vec::new(), Vec::new());
    let mut rest = expr;
    while let Some(start) = rest.find(is_word) {
        let tail = &rest[start..];
        let (word, after) = tail.split_at(tail.find(|c| !is_word(c)).unwrap_or(tail.len()));
        rest = after;
        let field = after
            .strip_prefix('.')
            .map_or("", |f| &f[..f.find(|c| !is_word(c)).unwrap_or(f.len())]);
        if !named(word) || named(field) {
            continue;
        }
        if after.starts_with('(') {
            called.push(word.to_owned());
        }
        idents.push(word.to_owned());
    }
    (idents, called)
}

/// Mutation shapes that count as "the crate bumps this state".
const BUMP_METHODS: &[&str] = &[
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_max(",
    ".fetch_min(",
    ".store(",
    ".inc(",
    ".add(",
    ".sub(",
    ".set(",
    ".record(",
    ".observe(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
    ".fetch_update(",
];

/// Whether `crate_code` (comment-stripped lines of the whole crate)
/// mutates `ident` anywhere: `ident.fetch_add(…)`, `ident += …`,
/// `ident = …`. Neither `ident: value` inside a constructor nor a
/// `let ident = …` binding is enough — construction and local names always
/// exist; the rule wants a bump on the hot path. A method chain that
/// rustfmt broke after `ident` continues on the next line.
pub fn crate_bumps_ident(crate_code: &[String], ident: &str) -> bool {
    for (l, line) in crate_code.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = line[from..].find(ident) {
            let abs = from + pos;
            from = abs + ident.len();
            let before_ok = abs == 0
                || !line[..abs]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !before_ok || is_let_binding(&line[..abs]) {
                continue;
            }
            let mut rest = &line[abs + ident.len()..];
            if rest.trim().is_empty() {
                rest = crate_code.get(l + 1).map_or("", |next| next.trim_start());
            }
            if BUMP_METHODS.iter().any(|m| rest.starts_with(m)) {
                return true;
            }
            let rest_trim = rest.trim_start();
            if rest_trim.starts_with("+=")
                || rest_trim.starts_with("-=")
                || (rest_trim.starts_with('=')
                    && !rest_trim.starts_with("==")
                    && !rest_trim.starts_with("=>"))
            {
                return true;
            }
        }
    }
    false
}

/// Whether the text before an identifier ends in `let` or `let mut`: the
/// identifier is being declared, not assigned.
fn is_let_binding(before: &str) -> bool {
    let before = before.trim_end();
    let before = before.strip_suffix("mut").map_or(before, str::trim_end);
    before
        .strip_suffix("let")
        .is_some_and(|rest| !rest.ends_with(|c: char| c.is_alphanumeric() || c == '_'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn cfg() -> Config {
        Config::default()
    }

    #[test]
    fn unsafe_without_comment_fires() {
        let f = lex("fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
        let rep = scan_file("x.rs", &f, &cfg());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, "undocumented-unsafe");
        assert_eq!(rep.violations[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let f = lex("fn f(p: *const u8) -> u8 {\n    // SAFETY: caller upholds validity.\n    unsafe { *p }\n}\n");
        let rep = scan_file("x.rs", &f, &cfg());
        assert!(rep.violations.is_empty());
        assert_eq!(rep.unsafe_sites.len(), 1);
        assert!(rep.unsafe_sites[0].justification.contains("caller upholds"));
    }

    #[test]
    fn blank_line_severs_safety_attachment() {
        let f =
            lex("// SAFETY: too far away.\n\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
        let rep = scan_file("x.rs", &f, &cfg());
        assert_eq!(rep.violations.len(), 1);
    }

    #[test]
    fn rustdoc_safety_section_documents_an_unsafe_fn() {
        // The heading, a bare `///`, then the contract: how rustdoc wants it.
        let f = lex(
            "/// Reads.\n///\n/// # Safety\n///\n/// `p` is valid.\nunsafe fn f(p: *const u8) {}\n",
        );
        let rep = scan_file("x.rs", &f, &cfg());
        assert!(rep.violations.is_empty());
        assert_eq!(rep.unsafe_sites.len(), 1);
    }

    #[test]
    fn unsafe_in_string_or_comment_ignored() {
        let f = lex("// this mentions unsafe\nlet s = \"unsafe\";\n");
        let rep = scan_file("x.rs", &f, &cfg());
        assert!(rep.violations.is_empty());
        assert!(rep.unsafe_sites.is_empty());
    }

    #[test]
    fn test_mod_is_exempt() {
        let f = lex("#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n");
        let rep = scan_file("x.rs", &f, &cfg());
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn ordering_without_comment_fires() {
        let f = lex("fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}\n");
        let rep = scan_file("x.rs", &f, &cfg());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, "undocumented-ordering");
    }

    #[test]
    fn ordering_with_comment_passes_and_is_inventoried() {
        let f = lex(
            "fn f(a: &AtomicU64) -> u64 {\n    // ORDERING: pairs with the Release store in g().\n    a.load(Ordering::Acquire)\n}\n",
        );
        let rep = scan_file("x.rs", &f, &cfg());
        assert!(rep.violations.is_empty());
        assert_eq!(rep.ordering_sites.len(), 1);
        assert_eq!(rep.ordering_sites[0].kind, "Acquire");
    }

    #[test]
    fn seqcst_needs_waiver_even_with_ordering_comment() {
        let doc = "fn f(a: &AtomicU64) -> u64 {\n    // ORDERING: total order with g().\n    a.load(Ordering::SeqCst)\n}\n";
        let rep = scan_file("x.rs", &lex(doc), &cfg());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, "seqcst");

        let waived = "fn f(a: &AtomicU64) -> u64 {\n    // ORDERING: total order with g().\n    // wft-lint: allow(seqcst) -- cross-shard agreement needs a total order.\n    a.load(Ordering::SeqCst)\n}\n";
        let rep = scan_file("x.rs", &lex(waived), &cfg());
        assert!(rep.violations.is_empty());
        assert_eq!(rep.ordering_sites.len(), 1);
        assert!(rep.ordering_sites[0].kind.contains("waived"));
    }

    #[test]
    fn trailing_comment_attaches() {
        let f = lex("fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire) // ORDERING: pairs with release in publish().\n}\n");
        let rep = scan_file("x.rs", &f, &cfg());
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn forbidden_api_scoped_by_path() {
        let cfg = crate::config::parse(
            "[[forbidden]]\nname = \"no-blocking-sync\"\npaths = [\"crates/queue/src\"]\ndeny = [\"std::sync::Mutex\"]\nreason = \"wait-free\"\n",
        )
        .unwrap();
        let f = lex("use std::sync::Mutex;\n");
        let rep = scan_file("crates/queue/src/lib.rs", &f, &cfg);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, "forbidden-api");
        let rep = scan_file("crates/durable/src/lib.rs", &f, &cfg);
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn forbidden_api_allow_within_line_and_waiver() {
        let cfg = crate::config::parse(
            "[[forbidden]]\nname = \"no-panic-on-io\"\npaths = [\"crates/durable\"]\ndeny = [\".unwrap()\"]\nallow-within-line = [\"lock().unwrap()\"]\nreason = \"io\"\n",
        )
        .unwrap();
        let good = lex("let g = self.state.lock().unwrap();\n");
        assert!(scan_file("crates/durable/src/j.rs", &good, &cfg)
            .violations
            .is_empty());
        let waived = lex("// wft-lint: allow(forbidden-api) -- length checked above.\nlet v = io_result.unwrap();\n");
        assert!(scan_file("crates/durable/src/j.rs", &waived, &cfg)
            .violations
            .is_empty());
        let bad = lex("let v = io_result.unwrap();\n");
        assert_eq!(
            scan_file("crates/durable/src/j.rs", &bad, &cfg)
                .violations
                .len(),
            1
        );
    }

    #[test]
    fn metrics_extraction_reads_name_and_idents() {
        let f = lex(
            "impl MetricsSource for S {\n    fn collect_metrics(&self, out: &mut MetricsSnapshot) {\n        out.push_counter(\"retries\", self.retries.load(Ordering::Relaxed));\n    }\n}\n",
        );
        let ms = reported_metrics("x.rs", &f);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].name, "retries");
        assert!(ms[0].idents.contains(&"retries".to_owned()));
    }

    #[test]
    fn a_cell_read_is_not_a_computation() {
        // A wrapped impl header, as rustfmt writes long ones; in a field
        // path only the last field is state.
        let f = lex(
            "impl<K: Key> wft_obs::MetricsSource\n    for Tree<K>\n{\n    fn collect_metrics(&self, out: &mut MetricsSnapshot) {\n        out.push_counter(\"hits\", self.cells.hits.value());\n        out.push_histogram(\"lat\", self.lat.snapshot());\n        out.push_gauge(\"len\", self.len() as i64);\n    }\n}\n",
        );
        let ms = reported_metrics("x.rs", &f);
        assert_eq!(ms.len(), 3);
        assert_eq!(
            (ms[0].idents.as_slice(), ms[0].called.len()),
            (&["hits".to_owned()][..], 0)
        );
        assert!(ms[1].called.is_empty(), "{:?}", ms[1].called);
        assert_eq!(ms[2].called, vec!["len".to_owned()]);
    }

    #[test]
    fn multiline_push_call_extracted() {
        let f = lex(
            "impl MetricsSource for S {\n    fn collect_metrics(&self, out: &mut MetricsSnapshot) {\n        out.push_counter(\n            \"gate_waits\",\n            self.gate_waits.load(Ordering::Relaxed),\n        );\n    }\n}\n",
        );
        let ms = reported_metrics("x.rs", &f);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].name, "gate_waits");
        assert!(ms[0].idents.contains(&"gate_waits".to_owned()));
    }

    #[test]
    fn bump_detection() {
        let code: Vec<String> = vec![
            "self.retries.fetch_add(1, Ordering::Relaxed);".into(),
            "count += 1;".into(),
            "let x = retries == 3;".into(),
        ];
        assert!(crate_bumps_ident(&code, "retries"));
        assert!(crate_bumps_ident(&code, "count"));
        assert!(!crate_bumps_ident(&code, "ghost"));
        // A `let` binding declares a name, it does not bump state; a chain
        // broken across lines still bumps its last link.
        let code: Vec<String> = vec![
            "let front = table.value();".into(),
            "let mut seen = 0;".into(),
            "outlet = 1;".into(),
            "self.lat".into(),
            "    .record(ns);".into(),
        ];
        assert!(!crate_bumps_ident(&code, "front") && !crate_bumps_ident(&code, "seen"));
        assert!(crate_bumps_ident(&code, "outlet") && crate_bumps_ident(&code, "lat"));
    }

    #[test]
    fn waiver_parsing_extracts_reason() {
        let ws = waivers_in(" wft-lint: allow(seqcst) -- needs a total order.");
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].0, "seqcst");
        assert_eq!(ws[0].1, "needs a total order.");
    }
}
