//! Workspace walking and rule running: files → findings → baselined report.
//!
//! Linting is two passes. Pass 1 runs per-file: lex, compute the test
//! mask, run the lexical rules and parse items. Pass 2 runs once over the
//! whole workspace: build the symbol table and call graph, then run the
//! graph rules (`panic-reachability`, `lock-graph`, `alloc-in-hot-path`).
//! Compat stand-in crates are lexed (for `forbid-unsafe-coverage`) but
//! excluded from the symbol graph — they model external dependencies.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::LintConfig;
use crate::dataflow;
use crate::findings::{Finding, GraphStats, Report, StaleSuppression};
use crate::graph::{self, CallGraph};
use crate::lexer;
use crate::parser::{self, ParsedFile};
use crate::resolve::SymbolTable;
use crate::rules::{self, FileInput};

/// Directory names never scanned: generated output, test trees (exempt
/// from every rule), bench harnesses and fixture data.
const SKIP_DIRS: &[&str] = &[
    "target", "tests", "benches", "examples", "fixtures", ".git",
];

/// The full outcome of a lint run: the baselined report plus the
/// lock-graph DOT export for debugging deadlock findings.
pub struct Analysis {
    /// Baselined findings, stale suppressions and graph statistics.
    pub report: Report,
    /// GraphViz DOT rendering of the workspace lock graph, cycle edges
    /// highlighted in red. Empty graph renders as a valid empty digraph.
    pub lock_dot: String,
}

/// Lints every `.rs` file under `root/crates`, applying the baseline in
/// `config`. Findings are sorted by path, line, rule; suppressions that
/// match nothing are reported as stale.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn run(root: &Path, config: &LintConfig) -> io::Result<Report> {
    Ok(run_full(root, config)?.report)
}

/// Like [`run`], but also returns the lock-graph DOT export.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn run_full(root: &Path, config: &LintConfig) -> io::Result<Analysis> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        collect_rs_files(&crates_dir, &mut files)?;
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, source));
    }
    Ok(analyze_sources(&sources, config))
}

/// Runs both passes over already-read sources (`(rel_path, source)`
/// pairs, workspace-relative forward-slash paths). Fixture tests drive
/// this directly to exercise the graph rules on synthetic workspaces.
pub fn analyze_sources(sources: &[(String, String)], config: &LintConfig) -> Analysis {
    let mut findings = Vec::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    for (rel, source) in sources {
        let tokens = lexer::lex(source);
        let mask = lexer::test_mask(&tokens);
        let (crate_name, is_compat) = crate_of(rel);
        let input = FileInput {
            path: rel,
            crate_name: &crate_name,
            is_crate_root: is_crate_root(rel),
            is_compat,
            tokens: &tokens,
            test_mask: &mask,
        };
        rules::check_file(&input, &mut findings);
        if !is_compat && !crate_name.is_empty() {
            parsed.push(parser::parse_file(rel, &crate_name, &tokens, &mask));
        }
    }

    let table = SymbolTable::build(&parsed);
    let call_graph = CallGraph::build(&table, &parsed);
    let mut stats = GraphStats {
        items: table.items.len(),
        calls_resolved: call_graph.resolved,
        calls_external: call_graph.external,
        calls_unresolved: call_graph.unresolved,
        ..GraphStats::default()
    };
    graph::panic_reachability(&table, &call_graph, &mut stats, &mut findings);
    let lock_graph = graph::lock_graph(&table, &call_graph, config, &mut stats, &mut findings);
    graph::alloc_in_hot_path(&table, config, &mut stats, &mut findings);
    dataflow::dataflow_rules(&table, &call_graph, config, &mut stats, &mut findings);

    let cycle_edges: BTreeSet<(String, String)> = graph::find_cycles(&lock_graph)
        .iter()
        .flat_map(|cycle| {
            cycle
                .windows(2)
                .map(|w| (w[0].clone(), w[1].clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    let lock_dot = lock_graph.to_dot(&cycle_edges);

    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule))
    });
    let mut report = apply_baseline(findings, config, sources.len());
    report.stats = stats;
    Analysis { report, lock_dot }
}

/// Runs the lexical rules over one already-read source text (fixture
/// tests drive this directly). `rel_path` must be workspace-relative with
/// forward slashes. Graph rules need the whole workspace — see
/// [`analyze_sources`].
pub fn lint_source(rel_path: &str, source: &str, out: &mut Vec<Finding>) {
    let tokens = lexer::lex(source);
    let mask = lexer::test_mask(&tokens);
    let (crate_name, is_compat) = crate_of(rel_path);
    let input = FileInput {
        path: rel_path,
        crate_name: &crate_name,
        is_crate_root: is_crate_root(rel_path),
        is_compat,
        tokens: &tokens,
        test_mask: &mask,
    };
    rules::check_file(&input, out);
}

/// Splits raw findings into active vs. baselined and detects stale
/// suppressions. Each stale line-specific suppression carries the nearest
/// line where the same rule still fires in the same file (pre-baseline),
/// so a drifted entry can be re-pinned rather than hunted down.
pub fn apply_baseline(findings: Vec<Finding>, config: &LintConfig, files_scanned: usize) -> Report {
    let raw: Vec<(String, String, usize)> = findings
        .iter()
        .map(|f| (f.rule.clone(), f.path.clone(), f.line))
        .collect();
    let mut used = vec![false; config.suppressions.len()];
    let mut active = Vec::new();
    let mut suppressed = 0usize;
    for finding in findings {
        let matched = config.suppressions.iter().enumerate().find(|(_, s)| {
            s.rule == finding.rule
                && s.path == finding.path
                && s.line.is_none_or(|l| l == finding.line)
        });
        match matched {
            Some((idx, _)) => {
                used[idx] = true;
                suppressed += 1;
            }
            None => active.push(finding),
        }
    }
    let stale_suppressions = config
        .suppressions
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(s, _)| {
            let nearest_line = s.line.map_or(0, |stale_line| {
                raw.iter()
                    .filter(|(rule, path, _)| rule == &s.rule && path == &s.path)
                    .map(|(_, _, line)| *line)
                    .min_by_key(|line| line.abs_diff(stale_line))
                    .unwrap_or(0)
            });
            StaleSuppression {
                rule: s.rule.clone(),
                path: s.path.clone(),
                line: s.line.unwrap_or(0),
                nearest_line,
            }
        })
        .collect();
    Report {
        findings: active,
        suppressed,
        stale_suppressions,
        files_scanned,
        stats: GraphStats::default(),
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Crate directory name for a workspace-relative path, plus whether it
/// lives under `crates/compat/`.
fn crate_of(rel_path: &str) -> (String, bool) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.as_slice() {
        ["crates", "compat", name, ..] => ((*name).to_string(), true),
        ["crates", name, ..] => ((*name).to_string(), false),
        _ => (String::new(), false),
    }
}

/// True for `src/lib.rs`, `src/main.rs` and `src/bin/*.rs` within a crate.
fn is_crate_root(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let within: &[&str] = match parts.as_slice() {
        ["crates", "compat", _, rest @ ..] => rest,
        ["crates", _, rest @ ..] => rest,
        _ => return false,
    };
    matches!(within, ["src", "lib.rs" | "main.rs"] | ["src", "bin", _])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Suppression;
    use crate::findings::Severity;

    #[test]
    fn crate_identification() {
        assert_eq!(crate_of("crates/serve/src/engine.rs"), ("serve".into(), false));
        assert_eq!(crate_of("crates/compat/rand/src/lib.rs"), ("rand".into(), true));
        assert!(is_crate_root("crates/serve/src/lib.rs"));
        assert!(is_crate_root("crates/bench/src/bin/table1.rs"));
        assert!(!is_crate_root("crates/serve/src/engine.rs"));
        assert!(!is_crate_root("crates/neural/src/layers/mod.rs"));
    }

    #[test]
    fn baseline_matches_by_rule_path_and_optional_line() {
        let finding = |line: usize| Finding {
            rule: "no-float-eq".into(),
            severity: Severity::Warning,
            path: "crates/x/src/lib.rs".into(),
            line,
            message: String::new(),
        };
        let config = LintConfig {
            suppressions: vec![
                Suppression {
                    rule: "no-float-eq".into(),
                    path: "crates/x/src/lib.rs".into(),
                    line: Some(3),
                    reason: "r".into(),
                },
                Suppression {
                    rule: "no-float-eq".into(),
                    path: "crates/y/src/lib.rs".into(),
                    line: None,
                    reason: "r".into(),
                },
            ],
            ..LintConfig::default()
        };
        let report = apply_baseline(vec![finding(3), finding(9)], &config, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 9);
        assert_eq!(report.suppressed, 1);
        // The y-crate suppression matched nothing.
        assert_eq!(report.stale_suppressions.len(), 1);
        assert_eq!(report.stale_suppressions[0].path, "crates/y/src/lib.rs");
    }

    #[test]
    fn stale_line_suppression_hints_at_nearest_surviving_line() {
        let finding = |line: usize| Finding {
            rule: "panic-reachability".into(),
            severity: Severity::Error,
            path: "crates/x/src/lib.rs".into(),
            line,
            message: String::new(),
        };
        let config = LintConfig {
            suppressions: vec![Suppression {
                rule: "panic-reachability".into(),
                path: "crates/x/src/lib.rs".into(),
                line: Some(40),
                reason: "drifted".into(),
            }],
            ..LintConfig::default()
        };
        let report = apply_baseline(vec![finding(12), finding(44)], &config, 1);
        assert_eq!(report.stale_suppressions.len(), 1);
        assert_eq!(report.stale_suppressions[0].nearest_line, 44);
        let text = report.stale_suppressions[0].to_string();
        assert!(text.contains("line 44"), "{text}");
        assert!(text.contains("panic-reachability"), "{text}");
    }
}
