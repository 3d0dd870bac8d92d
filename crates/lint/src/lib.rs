//! `nmcs-lint`: the workspace invariant checker.
//!
//! The determinism contracts this repo is built on (seeds from logical
//! coordinates, budget polls never touching RNG, one sanctioned spawn
//! site, one lock implementation) are easy to uphold in the
//! module that defines them and easy to erode one call site at a time
//! everywhere else. This crate freezes them as deny-by-default token
//! rules — see [`rules::RULES`] for the catalog.
//!
//! Design constraints:
//!
//! * **Self-contained.** No `syn`/`proc-macro2` in the vendor set, so
//!   [`lexer`] is a hand-rolled Rust lexer that is exact about strings,
//!   raw strings, chars, lifetimes, and nested comments — a rule must
//!   never fire on the *text* of a log message or doc comment.
//! * **Deny by default, waive with a reason.** A finding is silenced
//!   only by a same-or-previous-line comment of the form
//!   `nmcs-lint: allow(rule-id) reason="why this site is sound"`
//!   (written as a `//` comment). A waiver that no longer matches a
//!   finding is itself an error (`stale-waiver`), so waivers cannot
//!   outlive the code they excuse.
//! * **Tests are exempt.** `#[cfg(test)]` regions and test-context
//!   paths may spawn, unwrap, and read clocks freely.

pub mod hotpath;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use hotpath::HotFnInfo;
use lexer::{lex, TokKind, Token};
use rules::FileCtx;
pub use rules::{is_waivable_rule, RuleInfo, RULES};

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// One rule violation (or waiver diagnostic) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// True when an in-source waiver covers this finding.
    pub waived: bool,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}{}] {}",
            self.file,
            self.line,
            self.rule,
            if self.waived { ", waived" } else { "" },
            self.message
        )
    }
}

/// A parsed `nmcs-lint: allow(…)` comment.
struct Waiver {
    rule: String,
    line: u32,
    used: bool,
}

/// Path-level test context: anything under a test/bench/example/fixture
/// directory is allowed to break the rules.
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples" | "fixtures"))
}

fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i)?.kind {
        TokKind::Punct(c) => Some(c),
        _ => None,
    }
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match &toks.get(i)?.kind {
        TokKind::Ident(s) => Some(s),
        _ => None,
    }
}

/// Flags every token belonging to a `#[cfg(test)]`-gated item.
///
/// Conservative by construction: an attribute whose argument list
/// mentions `not` anywhere (e.g. `#[cfg(not(test))]`) is *not* treated
/// as a test gate, so release-only code stays under the rules.
pub(crate) fn test_regions(toks: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if punct_at(toks, i) != Some('#')
            || punct_at(toks, i + 1) != Some('[')
            || ident_at(toks, i + 2) != Some("cfg")
            || punct_at(toks, i + 3) != Some('(')
        {
            i += 1;
            continue;
        }
        // Walk the balanced cfg(...) argument list.
        let mut depth = 0usize;
        let mut has_test = false;
        let mut has_not = false;
        let mut close = None;
        for j in (i + 3)..toks.len() {
            match punct_at(toks, j) {
                Some('(') => depth += 1,
                Some(')') => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            match ident_at(toks, j) {
                Some("test") => has_test = true,
                Some("not") => has_not = true,
                _ => {}
            }
        }
        let Some(close) = close else { break };
        if !has_test || has_not || punct_at(toks, close + 1) != Some(']') {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between the gate and the item.
        let mut k = close + 2;
        while punct_at(toks, k) == Some('#') && punct_at(toks, k + 1) == Some('[') {
            let mut bd = 0usize;
            let mut m = k + 1;
            while m < toks.len() {
                match punct_at(toks, m) {
                    Some('[') => bd += 1,
                    Some(']') => {
                        bd -= 1;
                        if bd == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            k = m + 1;
        }
        // The gated item ends at its balanced `{…}` body, or at `;` for
        // bodiless items (`#[cfg(test)] mod tests;`).
        let mut end = toks.len().saturating_sub(1);
        let mut m = k;
        while m < toks.len() {
            match punct_at(toks, m) {
                Some(';') => {
                    end = m;
                    break;
                }
                Some('{') => {
                    let mut bd = 0usize;
                    while m < toks.len() {
                        match punct_at(toks, m) {
                            Some('{') => bd += 1,
                            Some('}') => {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    end = m.min(toks.len() - 1);
                    break;
                }
                _ => m += 1,
            }
        }
        for f in flags.iter_mut().take(end + 1).skip(i) {
            *f = true;
        }
        i = end + 1;
    }
    flags
}

/// Parses waivers out of the file's `//` comments. Malformed waivers
/// become `waiver-syntax` findings immediately.
fn parse_waivers(all_toks: &[Token], rel: &str, findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for t in all_toks {
        let TokKind::LineComment(content) = &t.kind else {
            continue;
        };
        let body = content.trim_start();
        // Doc comments (`///…` lexes as a line comment starting with
        // `/`) and ordinary prose never start with the marker.
        let Some(rest) = body.strip_prefix("nmcs-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        // `nmcs-lint: hot-entry` is the hot-path pass's entry-point
        // annotation (see `parser::HOT_ENTRY_MARKER`), not a waiver.
        if rest.starts_with(parser::HOT_ENTRY_MARKER) {
            continue;
        }
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(rule, tail)| (rule.trim().to_string(), tail.trim_start()));
        let Some((rule, tail)) = parsed else {
            findings.push(Finding {
                rule: "waiver-syntax",
                file: rel.to_string(),
                line: t.line,
                message: "malformed waiver: expected `nmcs-lint: allow(rule-id) \
                          reason=\"…\"`"
                    .to_string(),
                waived: false,
            });
            continue;
        };
        if !is_waivable_rule(&rule) {
            findings.push(Finding {
                rule: "waiver-syntax",
                file: rel.to_string(),
                line: t.line,
                message: format!("waiver names unknown or unwaivable rule `{rule}`"),
                waived: false,
            });
            continue;
        }
        let reason_ok = tail
            .strip_prefix("reason=\"")
            .and_then(|r| r.find('"'))
            .map(|end| end > 0)
            .unwrap_or(false);
        if !reason_ok {
            findings.push(Finding {
                rule: "waiver-syntax",
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "waiver for `{rule}` has no non-empty reason=\"…\" — every \
                     exception must say why the site is sound"
                ),
                waived: false,
            });
            continue;
        }
        waivers.push(Waiver {
            rule,
            line: t.line,
            used: false,
        });
    }
    waivers
}

/// One file mid-lint: rule findings gathered, waivers not yet applied.
/// Cross-file passes (hot-path) append their findings between the two
/// phases so waivers and stale-waiver detection see the full set.
struct FileAnalysis {
    rel: String,
    all_toks: Vec<Token>,
    findings: Vec<Finding>,
    parsed: parser::ParsedFile,
}

/// Phase 1: lex, run the per-file token rules, and parse items for the
/// call-graph pass.
fn analyze_source(rel: &str, src: &str) -> FileAnalysis {
    let all_toks = lex(src);
    // Rules see only significant tokens; comments carry waivers and
    // hot-entry annotations.
    let toks: Vec<Token> = all_toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment(_) | TokKind::BlockComment(_)))
        .cloned()
        .collect();
    let in_test = test_regions(&toks);
    let ctx = FileCtx {
        rel,
        toks: &toks,
        in_test: &in_test,
        is_test_path: is_test_path(rel),
    };
    let findings = rules::run_all(&ctx);
    let hot_lines = parser::hot_entry_lines(&all_toks);
    let parsed = parser::parse_file(rel, &toks, &in_test, &hot_lines, ctx.is_test_path);
    FileAnalysis {
        rel: rel.to_string(),
        all_toks,
        findings,
        parsed,
    }
}

/// Phase 2: waiver application and stale-waiver detection over the full
/// finding set for one file.
///
/// `stale_hot_ok`: in single-file mode a `hot-path` waiver may be
/// justified by an entry point in *another* file (e.g. the waived clock
/// read in `ctx.rs` is hot via `search.rs`), so an unmatched hot-path
/// waiver only counts as stale when the file declares its own entries
/// or the whole workspace was analysed.
fn apply_waivers(fa: FileAnalysis, stale_hot_ok: bool) -> Vec<Finding> {
    let FileAnalysis {
        rel,
        all_toks,
        mut findings,
        ..
    } = fa;
    // Test-context paths carry no findings, so a waiver there could
    // only ever be stale noise — the machinery skips them entirely.
    let mut waivers = if is_test_path(&rel) {
        Vec::new()
    } else {
        parse_waivers(&all_toks, &rel, &mut findings)
    };

    // A waiver on line W covers matching findings on W (trailing
    // comment) or W + 1 (comment on its own line above the site).
    for f in findings.iter_mut() {
        if f.rule == "waiver-syntax" || f.rule == "stale-waiver" {
            continue;
        }
        for w in waivers.iter_mut() {
            if w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line) {
                f.waived = true;
                w.used = true;
            }
        }
    }
    for w in &waivers {
        if !w.used && (w.rule != "hot-path" || stale_hot_ok) {
            findings.push(Finding {
                rule: "stale-waiver",
                file: rel.to_string(),
                line: w.line,
                message: format!(
                    "waiver for `{}` matches no finding on this or the next line — \
                     delete it (waivers must not outlive the code they excuse)",
                    w.rule
                ),
                waived: false,
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Lints one file's source. `rel` is the workspace-relative path with
/// forward slashes; rules use it for allowlists and test context.
///
/// The hot-path pass runs over this file alone: entry annotations and
/// their reachable callees are analysed within the file, which is the
/// whole story for fixtures and self-contained modules. Workspace-wide
/// reachability needs [`lint_workspace`].
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let mut fa = analyze_source(rel, src);
    let files = std::slice::from_ref(&fa.parsed);
    let (hot_findings, _) = hotpath::analyze(files);
    let has_local_entries = fa.parsed.fns.iter().any(|f| f.hot_entry);
    fa.findings.extend(hot_findings);
    apply_waivers(fa, has_local_entries)
}

/// Directories the walker never descends into: build output, the
/// vendored third-party set (not ours to lint), VCS metadata, hidden
/// dirs, and fixture corpora (this crate's is deliberately bad).
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.')
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(
                path.strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/"),
            );
        }
    }
    Ok(())
}

/// Reads every first-party `.rs` file under `root` in sorted order,
/// returning `(workspace-relative path, source)` pairs.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    files
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel))?;
            Ok((rel, src))
        })
        .collect()
}

/// Workspace-mode core: per-file rules, then the cross-file hot-path
/// pass, then waivers — so a waiver can cover a finding whose cause
/// (a hot entry point) lives in another file. Also returns the
/// hot-reachable function report.
fn lint_sources_full(sources: &[(String, String)]) -> (Vec<Finding>, Vec<HotFnInfo>) {
    let mut analyses: Vec<FileAnalysis> = sources
        .iter()
        .map(|(rel, src)| analyze_source(rel, src))
        .collect();
    let parsed: Vec<parser::ParsedFile> = analyses.iter().map(|fa| fa.parsed.clone()).collect();
    let (hot_findings, report) = hotpath::analyze(&parsed);
    for f in hot_findings {
        if let Some(fa) = analyses.iter_mut().find(|fa| fa.rel == f.file) {
            fa.findings.push(f);
        }
    }
    let mut findings: Vec<Finding> = Vec::new();
    for fa in analyses {
        findings.extend(apply_waivers(fa, true));
    }
    // The entry registry must be intact whenever the whole workspace is
    // on the table; these are unwaivable by construction (no source
    // line to attach a waiver to).
    findings.extend(hotpath::required_entry_findings(&parsed));
    (findings, report)
}

/// Lints a pre-read set of workspace sources (see [`workspace_sources`]).
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Finding> {
    lint_sources_full(sources).0
}

/// Lints every first-party `.rs` file under `root` in sorted order,
/// including the workspace-wide hot-path reachability pass.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_sources(&workspace_sources(root)?))
}

/// The hot-path report for `tables --lint --hot`: every hot-reachable
/// function with its provenance chain and per-function verdict
/// (unwaived/waived hot-path finding counts, resolved against the
/// in-source waivers).
pub fn hot_report(root: &Path) -> io::Result<(Vec<HotFnInfo>, Vec<Finding>)> {
    let sources = workspace_sources(root)?;
    let (findings, report) = lint_sources_full(&sources);
    let hot: Vec<Finding> = findings
        .into_iter()
        .filter(|f| f.rule == "hot-path")
        .collect();
    Ok((report, hot))
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serialises findings as a JSON array of
/// `{"file","line","rule","waived","message"}` objects — the one
/// machine-readable shape shared by `nmcs-lint --format json` and
/// `tables --lint`, so CI and the report tool cannot drift apart.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"file\":\"");
        json_escape(&f.file, &mut out);
        out.push_str("\",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"rule\":\"");
        json_escape(f.rule, &mut out);
        out.push_str("\",\"waived\":");
        out.push_str(if f.waived { "true" } else { "false" });
        out.push_str(",\"message\":\"");
        json_escape(&f.message, &mut out);
        out.push_str("\"}");
    }
    out.push_str("\n]");
    out
}

/// Per-rule `(unwaived, waived)` counts, sorted by rule id.
pub fn rule_counts(findings: &[Finding]) -> BTreeMap<&'static str, (usize, usize)> {
    let mut counts: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for f in findings {
        let e = counts.entry(f.rule).or_default();
        if f.waived {
            e.1 += 1;
        } else {
            e.0 += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwaived(fs: &[Finding]) -> Vec<&Finding> {
        fs.iter().filter(|f| !f.waived).collect()
    }

    #[test]
    fn clock_rule_fires_outside_the_allowlist_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let hits = lint_source("crates/core/src/search.rs", src);
        assert_eq!(unwaived(&hits).len(), 1);
        assert_eq!(hits[0].rule, "clock-discipline");
        assert_eq!(hits[0].line, 1);
        assert!(lint_source("crates/core/src/metrics.rs", src).is_empty());
        assert!(lint_source("crates/core/src/ctx.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/report.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt_but_not_cfg_not_test() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}\n\
                   #[cfg(not(test))]\nfn g() { let t = Instant::now(); }\n";
        let hits = lint_source("crates/core/src/search.rs", src);
        assert_eq!(unwaived(&hits).len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 6);
    }

    #[test]
    fn waiver_on_previous_or_same_line_silences_and_is_consumed() {
        let trailing = "fn f() { std::thread::spawn(|| {}); } \
                        // nmcs-lint: allow(spawn-discipline) reason=\"demo\"\n";
        let hits = lint_source("crates/core/src/search.rs", trailing);
        assert_eq!(unwaived(&hits).len(), 0, "{hits:?}");
        assert!(hits.iter().any(|f| f.waived));

        let above = "// nmcs-lint: allow(spawn-discipline) reason=\"demo\"\n\
                     fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            unwaived(&lint_source("crates/core/src/search.rs", above)).len(),
            0
        );
    }

    #[test]
    fn stale_and_malformed_waivers_are_findings() {
        let stale = "// nmcs-lint: allow(spawn-discipline) reason=\"nothing here\"\n\
                     fn f() {}\n";
        let hits = lint_source("crates/core/src/search.rs", stale);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "stale-waiver");

        let no_reason = "// nmcs-lint: allow(spawn-discipline)\nfn f() {}\n";
        let hits = lint_source("crates/core/src/search.rs", no_reason);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "waiver-syntax");

        let unknown = "// nmcs-lint: allow(made-up) reason=\"x\"\nfn f() {}\n";
        let hits = lint_source("crates/core/src/search.rs", unknown);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "waiver-syntax");
    }

    #[test]
    fn rule_counts_split_waived_from_unwaived() {
        let src = "fn f() { let a = Instant::now(); } \
                   // nmcs-lint: allow(clock-discipline) reason=\"demo\"\n\n\
                   fn g() { let b = Instant::now(); }\n";
        let counts = rule_counts(&lint_source("crates/core/src/search.rs", src));
        assert_eq!(counts.get("clock-discipline"), Some(&(1, 1)));
    }

    #[test]
    fn test_paths_are_fully_exempt() {
        let src = "fn f() { std::thread::spawn(|| Instant::now()); }\n";
        assert!(lint_source("crates/core/tests/conformance.rs", src).is_empty());
        assert!(lint_source("crates/core/benches/throughput.rs", src).is_empty());
    }
}
