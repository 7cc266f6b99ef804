//! Fixture tests for the graph rules: `panic-reachability` call chains
//! and roots, the workspace `lock-graph` (including the cross-function
//! cycle the old lexical rule could not see) and `alloc-in-hot-path`.
//!
//! Fixtures are fed through [`lint::engine::analyze_sources`] as
//! synthetic multi-file workspaces, so resolution and the graph rules run
//! exactly as they do on the real tree.

use lint::engine::{analyze_sources, Analysis};
use lint::findings::Finding;
use lint::LintConfig;

/// The lock order the serve/obs crates declare in the real lint.toml,
/// trimmed to the names these fixtures use. Lock identities are
/// crate-qualified, so same-named fields in other crates never alias.
const LOCK_CONFIG: &str =
    "[lock-order]\norder = [\"serve::models\", \"serve::state\", \"serve::result\"]\n";

fn analyze(files: &[(&str, &str)], config_text: &str) -> Analysis {
    let config = LintConfig::parse(config_text).expect("fixture config parses");
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(path, source)| ((*path).to_string(), (*source).to_string()))
        .collect();
    analyze_sources(&sources, &config)
}

fn rule_findings<'a>(analysis: &'a Analysis, rule: &str) -> Vec<&'a Finding> {
    analysis
        .report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn panic_reachability_reports_the_full_cross_crate_chain() {
    let analysis = analyze(
        &[
            (
                "crates/serve/src/api.rs",
                include_str!("fixtures/panic_chain_entry.rs"),
            ),
            (
                "crates/neural/src/plan.rs",
                include_str!("fixtures/panic_chain_callee.rs"),
            ),
        ],
        "",
    );
    let findings = rule_findings(&analysis, "panic-reachability");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let finding = findings[0];
    assert_eq!(finding.path, "crates/neural/src/plan.rs");
    assert_eq!(finding.line, 15, "the unwrap in first_weight");
    assert!(
        finding.message.contains(
            "serve::api::handle → serve::api::score → \
             neural::plan::FrozenPlan::predict_one → neural::plan::first_weight"
        ),
        "chain missing: {}",
        finding.message
    );
    assert!(
        finding
            .message
            .contains("reachable from public entry point `serve::api::handle`"),
        "{}",
        finding.message
    );
    // Every library fn of serve and neural is a root, but the plain-pub
    // `handle` seeds first and reaches the other three.
    assert_eq!(analysis.report.stats.entry_points, 1, "only `handle` seeds");
    assert_eq!(analysis.report.stats.reachable_panic_fns, 1);
}

#[test]
fn panic_reachability_good_fixture_is_clean() {
    let analysis = analyze(
        &[
            (
                "crates/serve/src/api.rs",
                include_str!("fixtures/panic_chain_entry.rs"),
            ),
            (
                "crates/neural/src/plan.rs",
                include_str!("fixtures/panic_chain_good.rs"),
            ),
        ],
        "",
    );
    assert!(
        rule_findings(&analysis, "panic-reachability").is_empty(),
        "findings: {:?}",
        analysis.report.findings
    );
    assert_eq!(analysis.report.stats.reachable_panic_fns, 0);
}

#[test]
fn panic_reachability_roots_every_library_fn_not_just_the_public_api() {
    // A trait-impl method, a `pub(crate)` method and a private fn that
    // nothing calls, plus a closure inside a `pub` fn. A search rooted at
    // the public API alone sees only the closure.
    let analysis = analyze(
        &[(
            "crates/serve/src/payload.rs",
            include_str!("fixtures/panic_blind_spots.rs"),
        )],
        "",
    );
    let findings = rule_findings(&analysis, "panic-reachability");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [14, 20, 25, 29], "findings: {findings:?}");
    for (finding, root) in findings.iter().zip([
        "library fn `serve::payload::Payload::fmt`",
        "library fn `serve::payload::Payload::head`",
        "library fn `serve::payload::checksum`",
        "public entry point `serve::payload::lengths`",
    ]) {
        assert!(finding.message.contains(root), "{}", finding.message);
    }
    assert_eq!(analysis.report.stats.reachable_panic_fns, 4);
}

#[test]
fn std_debug_struct_finish_never_resolves_to_a_workspace_finish() {
    // `finish()` in a `Debug` impl is std's `DebugStruct::finish`. The
    // unique-name method fallback must not bind it to the one workspace
    // type with a `finish` method, here in a crate obs cannot even
    // depend on: that edge would be a false panic chain.
    let guard = "use std::fmt;
                 pub struct InstallGuard { depth: usize }
                 impl fmt::Debug for InstallGuard {
                     fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                         f.debug_struct(\"InstallGuard\").field(\"depth\", &self.depth).finish()
                     }
                 }
";
    let session = "pub struct TraceSession { path: Option<String> }
                   impl TraceSession {
                       pub fn finish(self) -> usize { self.path.expect(\"trace path\").len() }
                   }
";
    let analysis = analyze(
        &[
            ("crates/obs/src/install.rs", guard),
            ("crates/bench/src/lib.rs", session),
        ],
        "",
    );
    assert_eq!(analysis.report.stats.calls_resolved, 0, "no edge to TraceSession::finish");
    assert!(
        rule_findings(&analysis, "panic-reachability").is_empty(),
        "findings: {:?}",
        analysis.report.findings
    );
}

#[test]
fn lock_graph_flags_intra_function_inversion_and_reacquisition() {
    let analysis = analyze(
        &[(
            "crates/serve/src/paths.rs",
            include_str!("fixtures/lock_order_bad.rs"),
        )],
        LOCK_CONFIG,
    );
    let findings = rule_findings(&analysis, "lock-graph");
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    let inversion = findings
        .iter()
        .find(|f| f.message.contains("inverts the declared order"))
        .expect("inversion finding");
    assert_eq!(inversion.line, 6);
    let reacquire = findings
        .iter()
        .find(|f| f.message.contains("re-acquiring"))
        .expect("re-acquisition finding");
    assert_eq!(reacquire.line, 13);
}

#[test]
fn lock_graph_good_fixture_is_clean() {
    let analysis = analyze(
        &[(
            "crates/serve/src/paths.rs",
            include_str!("fixtures/lock_order_good.rs"),
        )],
        LOCK_CONFIG,
    );
    assert!(
        rule_findings(&analysis, "lock-graph").is_empty(),
        "findings: {:?}",
        analysis.report.findings
    );
    // The ordered acquisitions still populate the graph.
    assert!(analysis.report.stats.lock_edges > 0);
}

#[test]
fn lock_graph_does_not_apply_outside_the_lock_ordered_crates() {
    let analysis = analyze(
        &[(
            "crates/datastore/src/paths.rs",
            include_str!("fixtures/lock_order_bad.rs"),
        )],
        LOCK_CONFIG,
    );
    assert!(rule_findings(&analysis, "lock-graph").is_empty());
    assert_eq!(analysis.report.stats.lock_edges, 0);
}

#[test]
fn lock_graph_detects_the_cross_function_cycle_and_emits_dot() {
    let analysis = analyze(
        &[
            (
                "crates/serve/src/cycle_a.rs",
                include_str!("fixtures/lock_cycle_a.rs"),
            ),
            (
                "crates/serve/src/cycle_b.rs",
                include_str!("fixtures/lock_cycle_b.rs"),
            ),
        ],
        LOCK_CONFIG,
    );
    let findings = rule_findings(&analysis, "lock-graph");
    // One declared-order inversion (state held, models taken, via call)
    // plus the cycle itself.
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    let inversion = findings
        .iter()
        .find(|f| f.message.contains("inverts the declared order"))
        .expect("inversion finding");
    assert!(
        inversion
            .message
            .contains("via call `serve::cycle_b::backward` → `serve::cycle_b::take_models`"),
        "{}",
        inversion.message
    );
    let cycle = findings
        .iter()
        .find(|f| f.message.contains("lock cycle"))
        .expect("cycle finding");
    assert!(
        cycle
            .message
            .contains("serve::models → serve::state → serve::models"),
        "{}",
        cycle.message
    );
    assert_eq!(analysis.report.stats.lock_nodes, 2);
    assert_eq!(analysis.report.stats.lock_edges, 2);
    // Valid DOT with both edges, cycle edges highlighted.
    let dot = &analysis.lock_dot;
    assert!(dot.starts_with("digraph lock_graph {"), "{dot}");
    assert!(dot.trim_end().ends_with('}'), "{dot}");
    assert!(dot.contains("\"serve::models\" -> \"serve::state\""), "{dot}");
    assert!(dot.contains("\"serve::state\" -> \"serve::models\""), "{dot}");
    assert_eq!(dot.matches(", color=red").count(), 2, "{dot}");
}

#[test]
fn alloc_in_hot_path_flags_marked_and_configured_functions() {
    let files = [(
        "crates/serve/src/hot.rs",
        include_str!("fixtures/hot_alloc_bad.rs"),
    )];
    // Nothing is hot unless lint.toml lists it.
    let unlisted = analyze(&files, "");
    assert!(rule_findings(&unlisted, "alloc-in-hot-path").is_empty());
    assert_eq!(unlisted.report.stats.hot_fns, 0);

    // `tick` listed: hot, `cold` is not.
    let marked = analyze(&files, "[alloc-hot-path]\npaths = [\"serve::hot::tick\"]\n");
    let findings = rule_findings(&marked, "alloc-in-hot-path");
    let whats: Vec<&str> = findings
        .iter()
        .filter_map(|f| f.message.split('`').nth(1))
        .collect();
    assert_eq!(whats, ["Vec::new", "push", "to_vec", "format!"], "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("serve::hot::tick")));
    assert_eq!(marked.report.stats.hot_fns, 1);

    // A second prefix additionally pulls `cold` in.
    let configured = analyze(
        &files,
        "[alloc-hot-path]\npaths = [\"serve::hot::tick\", \"serve::hot::cold\"]\n",
    );
    let findings = rule_findings(&configured, "alloc-in-hot-path");
    assert_eq!(findings.len(), 5, "findings: {findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("serve::hot::cold") && f.message.contains("to_vec")),
        "{findings:?}"
    );
    assert_eq!(configured.report.stats.hot_fns, 2);
}

#[test]
fn alloc_hot_path_prefix_matching_no_function_is_stale() {
    let analysis = analyze(
        &[(
            "crates/serve/src/hot.rs",
            include_str!("fixtures/hot_alloc_bad.rs"),
        )],
        "[alloc-hot-path]\npaths = [\"serve::hot::\", \"serve::moved::worker_loop\"]\n",
    );
    let findings = rule_findings(&analysis, "stale-config");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].path, "lint.toml");
    assert!(
        findings[0].message.contains("`serve::moved::worker_loop`"),
        "{}",
        findings[0].message
    );
    // The live prefix still pulls `tick` and `cold` in.
    assert_eq!(analysis.report.stats.hot_fns, 2);
}

#[test]
fn lock_order_name_matching_no_acquisition_is_stale() {
    let analysis = analyze(
        &[(
            "crates/serve/src/cycle_a.rs",
            include_str!("fixtures/lock_cycle_a.rs"),
        )],
        "[lock-order]\norder = [\"serve::models\", \"serve::engine\", \"serve::state\"]\n",
    );
    let findings = rule_findings(&analysis, "stale-config");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].path, "lint.toml");
    assert!(
        findings[0].message.contains("`serve::engine`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn graph_stats_count_items_and_resolution_outcomes() {
    let analysis = analyze(
        &[
            (
                "crates/serve/src/api.rs",
                include_str!("fixtures/panic_chain_entry.rs"),
            ),
            (
                "crates/neural/src/plan.rs",
                include_str!("fixtures/panic_chain_callee.rs"),
            ),
        ],
        "",
    );
    let stats = &analysis.report.stats;
    assert_eq!(stats.items, 4, "handle, score, predict_one, first_weight");
    // handle→score, score→predict_one, predict_one→first_weight.
    assert_eq!(stats.calls_resolved, 3);
    // first/copied/unwrap are classified as external std methods.
    assert_eq!(stats.calls_external, 3);
    assert_eq!(stats.calls_unresolved, 0);
    assert_eq!(stats.resolved_pct(), 100);
}
