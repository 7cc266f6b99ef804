//! Fixture tests for the graph rules: `panic-reachability` call chains,
//! the workspace `lock-graph` (including the cross-function cycle the old
//! lexical rule could not see) and `alloc-in-hot-path`.
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
    // The lexical rule independently flags the unwrap call site.
    assert_eq!(rule_findings(&analysis, "no-unwrap-in-lib").len(), 1);
    assert_eq!(analysis.report.stats.entry_points, 1, "only `handle` is plain pub");
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
fn panic_reachability_indexing_is_config_gated() {
    let entry = "pub fn peek(xs: &[f32]) -> f32 { xs[0] }\n";
    let files = [("crates/serve/src/peek.rs", entry)];
    let off = analyze(&files, "");
    assert!(rule_findings(&off, "panic-reachability").is_empty());
    let on = analyze(&files, "[panic-reachability]\nindex-panics = true\n");
    let findings = rule_findings(&on, "panic-reachability");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert!(findings[0].message.contains("indexing"), "{}", findings[0].message);
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
    // Marker only: `tick` is hot, `cold` is not.
    let marked = analyze(&files, "");
    let findings = rule_findings(&marked, "alloc-in-hot-path");
    let whats: Vec<&str> = findings
        .iter()
        .filter_map(|f| f.message.split('`').nth(1))
        .collect();
    assert_eq!(whats, ["Vec::new", "push", "to_vec", "format!"], "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("serve::hot::tick")));
    assert_eq!(marked.report.stats.hot_fns, 1);

    // Configured prefix additionally pulls `cold` in.
    let configured = analyze(
        &files,
        "[alloc-hot-path]\npaths = [\"serve::hot::cold\"]\n",
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
        "[alloc-hot-path]\npaths = [\"serve::hot::cold\", \"serve::moved::worker_loop\"]\n",
    );
    let findings = rule_findings(&analysis, "stale-config");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].path, "lint.toml");
    assert!(
        findings[0].message.contains("`serve::moved::worker_loop`"),
        "{}",
        findings[0].message
    );
    // The live prefix still pulls `cold` in.
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
