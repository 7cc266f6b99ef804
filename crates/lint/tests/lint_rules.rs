//! Fixture tests for the lexical rules: every rule against a known-bad
//! and a known-good snippet, suppression/baseline behaviour, and JSON
//! round-tripping. The `no_unwrap_*` fixtures check panic-freedom, which
//! only the graph rule `panic-reachability` enforces; the other graph
//! rules have their own suite in `graph_rules.rs`.
//!
//! Fixtures live under `tests/fixtures/` (the workspace walker skips
//! `tests/` trees, so they never pollute a real `lint` run) and are fed
//! through [`lint::engine::lint_source`] (or, for the panic fixtures,
//! [`lint::engine::analyze_sources`]) with synthetic workspace paths
//! that place them in the crates each rule scopes to.

use lint::config::LintConfig;
use lint::engine::{analyze_sources, apply_baseline, lint_source};
use lint::findings::{Finding, Report, Severity};

fn findings_for(rel_path: &str, source: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    lint_source(rel_path, source, &mut out);
    out
}

/// Every finding of a one-file workspace, graph rules included: the
/// panic rule needs the symbol table and call graph.
fn workspace_findings_for(rel_path: &str, source: &str) -> Vec<Finding> {
    let sources = [(rel_path.to_string(), source.to_string())];
    analyze_sources(&sources, &LintConfig::default()).report.findings
}

fn rule_counts(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn no_unwrap_bad_fixture_yields_exactly_four_errors() {
    let findings = workspace_findings_for(
        "crates/serve/src/payload.rs",
        include_str!("fixtures/no_unwrap_bad.rs"),
    );
    assert_eq!(findings.len(), 4, "findings: {findings:?}");
    assert_eq!(rule_counts(&findings, "panic-reachability"), 4);
    assert!(findings.iter().all(|f| f.severity == Severity::Error));
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![4, 5, 7, 13]);
}

#[test]
fn no_unwrap_good_fixture_is_clean() {
    let findings = workspace_findings_for(
        "crates/serve/src/payload.rs",
        include_str!("fixtures/no_unwrap_good.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn no_unwrap_applies_to_chemometrics_and_chem() {
    for krate in ["chemometrics", "chem"] {
        let findings = workspace_findings_for(
            &format!("crates/{krate}/src/payload.rs"),
            include_str!("fixtures/no_unwrap_bad.rs"),
        );
        assert_eq!(
            rule_counts(&findings, "panic-reachability"),
            4,
            "{krate}: {findings:?}"
        );
    }
}

#[test]
fn no_unwrap_does_not_apply_outside_panic_free_crates() {
    // The same bad source in a non-panic-free crate is fine.
    let findings = workspace_findings_for(
        "crates/spectrum/src/payload.rs",
        include_str!("fixtures/no_unwrap_bad.rs"),
    );
    assert_eq!(rule_counts(&findings, "panic-reachability"), 0);
}

#[test]
fn wallclock_bad_fixture_yields_exactly_three_errors() {
    let findings = findings_for(
        "crates/ms-sim/src/noise.rs",
        include_str!("fixtures/wallclock_bad.rs"),
    );
    assert_eq!(findings.len(), 3, "findings: {findings:?}");
    assert_eq!(rule_counts(&findings, "no-wallclock-nondeterminism"), 3);
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![5, 6, 11]
    );
}

#[test]
fn wallclock_good_fixture_is_clean() {
    let findings = findings_for(
        "crates/nmr-sim/src/noise.rs",
        include_str!("fixtures/wallclock_good.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn float_eq_bad_fixture_yields_exactly_two_warnings() {
    let findings = findings_for(
        "crates/spectrum/src/guards.rs",
        include_str!("fixtures/float_eq_bad.rs"),
    );
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert_eq!(rule_counts(&findings, "no-float-eq"), 2);
    assert!(findings.iter().all(|f| f.severity == Severity::Warning));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![4, 8]
    );
}

#[test]
fn float_eq_good_fixture_is_clean() {
    let findings = findings_for(
        "crates/spectrum/src/guards.rs",
        include_str!("fixtures/float_eq_good.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn forbid_unsafe_bad_crate_root_yields_one_error() {
    let findings = findings_for(
        "crates/spectrum/src/lib.rs",
        include_str!("fixtures/forbid_unsafe_bad.rs"),
    );
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "forbid-unsafe-coverage");
    assert_eq!(findings[0].line, 1);
}

#[test]
fn forbid_unsafe_good_crate_root_is_clean() {
    let findings = findings_for(
        "crates/spectrum/src/lib.rs",
        include_str!("fixtures/forbid_unsafe_good.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn forbid_unsafe_only_applies_to_crate_roots() {
    let findings = findings_for(
        "crates/spectrum/src/inner.rs",
        include_str!("fixtures/forbid_unsafe_bad.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn baseline_suppresses_matches_and_reports_stale_entries() {
    let config = LintConfig::parse(
        r#"
[[suppress]]
rule = "no-float-eq"
path = "crates/spectrum/src/guards.rs"
line = 4
reason = "fixture: exact zero guard, honored"

[[suppress]]
rule = "panic-reachability"
path = "crates/serve/src/deleted_file.rs"
reason = "fixture: refers to a file that no longer exists"
"#,
    )
    .expect("baseline config parses");

    let mut findings = Vec::new();
    lint_source(
        "crates/spectrum/src/guards.rs",
        include_str!("fixtures/float_eq_bad.rs"),
        &mut findings,
    );
    let report = apply_baseline(findings, &config, 1);

    // Line 4 is suppressed, line 8 stays active.
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].line, 8);
    // The suppression pointing at a vanished file is reported stale.
    assert_eq!(report.stale_suppressions.len(), 1);
    assert_eq!(report.stale_suppressions[0].rule, "panic-reachability");
    assert_eq!(
        report.stale_suppressions[0].path,
        "crates/serve/src/deleted_file.rs"
    );
    // Whole-file stale entries have no surviving-line hint.
    assert_eq!(report.stale_suppressions[0].nearest_line, 0);
}

#[test]
fn stale_line_suppression_reports_rule_and_nearest_line() {
    let config = LintConfig::parse(
        r#"
[[suppress]]
rule = "no-float-eq"
path = "crates/spectrum/src/guards.rs"
line = 6  # drifted: the real findings are on lines 4 and 8
reason = "fixture: drifted line suppression"
"#,
    )
    .expect("config parses");
    let mut findings = Vec::new();
    lint_source(
        "crates/spectrum/src/guards.rs",
        include_str!("fixtures/float_eq_bad.rs"),
        &mut findings,
    );
    let report = apply_baseline(findings, &config, 1);
    assert_eq!(report.findings.len(), 2, "nothing matched the drifted line");
    assert_eq!(report.stale_suppressions.len(), 1);
    let stale = &report.stale_suppressions[0];
    assert_eq!(stale.line, 6);
    assert_eq!(stale.nearest_line, 4, "4 and 8 tie-break to the earlier line");
    let text = stale.to_string();
    assert!(text.contains("[no-float-eq]"), "{text}");
    assert!(text.contains("line 4"), "{text}");
}

#[test]
fn path_level_suppression_without_line_matches_every_finding_in_file() {
    let config = LintConfig::parse(
        r#"
[[suppress]]
rule = "no-float-eq"
path = "crates/spectrum/src/guards.rs"
reason = "fixture: whole-file baseline"
"#,
    )
    .expect("config parses");
    let mut findings = Vec::new();
    lint_source(
        "crates/spectrum/src/guards.rs",
        include_str!("fixtures/float_eq_bad.rs"),
        &mut findings,
    );
    let report = apply_baseline(findings, &config, 1);
    assert_eq!(report.suppressed, 2);
    assert!(report.findings.is_empty());
    assert!(report.stale_suppressions.is_empty());
}

#[test]
fn report_round_trips_through_serde_json() {
    let mut findings = Vec::new();
    lint_source(
        "crates/spectrum/src/guards.rs",
        include_str!("fixtures/float_eq_bad.rs"),
        &mut findings,
    );
    let report = apply_baseline(findings, &LintConfig::default(), 1);
    assert!(!report.findings.is_empty());

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let restored: Report = serde_json::from_str(&json).expect("deserialize report");
    assert_eq!(report, restored);
}
