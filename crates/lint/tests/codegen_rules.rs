//! Fixture suite for the codegen audit rules (DESIGN.md §16).
//!
//! Known-bad assembly (un-hoisted bounds check in the vector loop, a
//! hidden allocator call, a scalar-only loop, a libm regression) must
//! fire each rule the exact expected number of times; the known-good
//! register-tiled loop must pass clean. The suite also exercises the
//! per-symbol `[[codegen-suppress]]` baseline (including stale
//! detection) and the SARIF round-trip of codegen findings. Exact
//! kernels, which multiply and add separately and never fuse, prove
//! their vectorization with packed multiplies instead of FMAs.

use lint::codegen::{analyze, check_functions, demangle, merge_into, parse_asm, CodegenReport};
use lint::config::{CodegenConfig, CodegenSuppression, LintConfig};
use lint::findings::{GraphStats, Report};

const KNOWN_BAD: &str = include_str!("fixtures/codegen/known_bad.s");
const KNOWN_GOOD: &str = include_str!("fixtures/codegen/known_good.s");
const EXACT_PACKED: &str = include_str!("fixtures/codegen/exact_packed.s");
const EXACT_SCALAR: &str = include_str!("fixtures/codegen/exact_scalar.s");

const GEMM: &str = "neural::kernels::gemm::gemm_acc";
const CONV: &str = "neural::kernels::conv::conv1d";
const TILE: &str = "neural::layers::lstm::project_tile";

fn config(audit: &[&str], vectorized: &[&str], no_extern: &[&str]) -> CodegenConfig {
    CodegenConfig {
        package: "neural".to_string(),
        audit: audit.iter().map(|s| (*s).to_string()).collect(),
        vectorized: vectorized.iter().map(|s| (*s).to_string()).collect(),
        min_vector_fma: 16,
        no_extern: no_extern.iter().map(|s| (*s).to_string()).collect(),
        forbidden_externs: vec!["expf".to_string(), "exp".to_string()],
    }
}

fn run(asm: &str, config: &CodegenConfig, suppressions: &[CodegenSuppression]) -> CodegenReport {
    check_functions(&parse_asm(asm), config, suppressions, None)
}

fn count_rule(report: &CodegenReport, rule: &str) -> usize {
    report.findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn fixture_symbols_demangle_to_kernel_paths() {
    let functions = parse_asm(KNOWN_BAD);
    assert_eq!(functions.len(), 2);
    assert_eq!(functions[0].path, GEMM);
    assert_eq!(functions[1].path, CONV);
}

#[test]
fn known_bad_fires_every_rule_with_exact_counts() {
    let report = run(KNOWN_BAD, &config(&[GEMM, CONV], &[GEMM, CONV], &[GEMM, CONV]), &[]);
    // gemm_acc: scalar-only loop + un-hoisted bounds check + hidden
    // alloc + expf regression. conv1d: packed FMAs only outside the
    // loop + unwrap_failed + RawVec grow. 7 findings total.
    assert_eq!(count_rule(&report, "kernel-vectorized"), 2);
    assert_eq!(count_rule(&report, "kernel-no-panic"), 2);
    assert_eq!(count_rule(&report, "kernel-no-alloc"), 2);
    assert_eq!(count_rule(&report, "kernel-no-extern-call"), 1);
    assert_eq!(count_rule(&report, "codegen-symbol-coverage"), 0);
    assert_eq!(report.findings.len(), 7);
    assert!(report.stale.is_empty());
    assert_eq!(report.suppressed, 0);
}

#[test]
fn known_bad_measurements_match_the_fixture() {
    let functions = parse_asm(KNOWN_BAD);
    let gemm = analyze(&functions[0]);
    assert_eq!(gemm.packed_fma, 0);
    assert_eq!(gemm.scalar_fma, 1);
    assert!(!gemm.loop_fma);
    assert_eq!(gemm.panic_calls.len(), 1);
    assert!(gemm.panic_calls[0].contains("panic_bounds_check"));
    assert_eq!(gemm.alloc_calls.len(), 1);
    assert!(gemm.extern_calls.iter().any(|t| t == "expf"));

    let conv = analyze(&functions[1]);
    // Packed FMAs exist but only in straight-line prologue code — the
    // innermost loop is scalar, so loop_fma must be false.
    assert_eq!(conv.packed_fma, 2);
    assert_eq!(conv.scalar_fma, 1);
    assert!(!conv.loop_fma);
    assert_eq!(conv.panic_calls.len(), 1);
    assert!(conv.panic_calls[0].contains("unwrap_failed"));
    assert_eq!(conv.alloc_calls.len(), 1);
    assert!(conv.alloc_calls[0].contains("raw_vec"));
}

#[test]
fn known_good_tiled_loop_passes_clean() {
    let report = run(KNOWN_GOOD, &config(&[GEMM], &[GEMM], &[GEMM]), &[]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.symbols.len(), 1);
    let audit = &report.symbols[0].audit;
    assert_eq!(audit.packed_fma, 16);
    assert!(audit.loop_fma);
    assert!(audit.panic_calls.is_empty());
    assert!(audit.alloc_calls.is_empty());
    assert_eq!(report.vectorized_ok(), 1);
    assert_eq!(report.panic_free(), 1);
    assert_eq!(report.alloc_free(), 1);
}

#[test]
fn exact_kernel_is_proven_vectorized_by_packed_multiplies() {
    let report = run(EXACT_PACKED, &config(&[TILE], &[TILE], &[]), &[]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let audit = &report.symbols[0].audit;
    assert_eq!(audit.path, TILE);
    assert_eq!(audit.packed_fma, 0);
    assert_eq!(audit.packed_mul, 16);
    assert!(audit.loop_fma);
    assert_eq!(report.vectorized_ok(), 1);
    assert_eq!(report.packed_mul_total(), 16);
}

#[test]
fn scalarized_exact_kernel_fails_vectorized() {
    let report = run(EXACT_SCALAR, &config(&[TILE], &[TILE], &[]), &[]);
    let audit = &report.symbols[0].audit;
    assert_eq!(audit.packed_fma, 0);
    assert_eq!(audit.packed_mul, 0);
    assert_eq!(audit.scalar_fma, 0);
    assert!(!audit.loop_fma);
    assert_eq!(count_rule(&report, "kernel-vectorized"), 1);
    assert_eq!(report.findings.len(), 1);
    assert!(report.findings[0].message.contains("0 packed multiply"));
    assert_eq!(report.vectorized_ok(), 0);
}

#[test]
fn packed_multiplies_outside_the_innermost_loop_do_not_count() {
    // Sixteen packed multiplies, all in straight-line code after a scalar
    // loop: enough in total, but the hot loop itself is scalar.
    let tail = format!("{}\tvzeroupper", "\tvmulps\t%ymm4, %ymm5, %ymm9\n".repeat(16));
    let asm = EXACT_SCALAR.replace("\tvzeroupper", &tail);
    let report = run(&asm, &config(&[TILE], &[TILE], &[]), &[]);
    assert_eq!(report.symbols[0].audit.packed_mul, 16);
    assert!(!report.symbols[0].audit.loop_fma);
    assert_eq!(count_rule(&report, "kernel-vectorized"), 1);
}

#[test]
fn vanished_symbol_fails_coverage() {
    // conv1d is configured but the known-good artifact only contains
    // gemm_acc — e.g. someone removed the #[inline(never)] anchor.
    let report = run(KNOWN_GOOD, &config(&[GEMM, CONV], &[], &[]), &[]);
    assert_eq!(count_rule(&report, "codegen-symbol-coverage"), 1);
    assert_eq!(report.unmatched_patterns, vec![CONV.to_string()]);
    assert!(report.findings[0].message.contains(CONV));
}

#[test]
fn vectorized_rule_respects_min_threshold() {
    // Raising the bar above the fixture's 16 packed FMAs must flip the
    // known-good kernel to failing.
    let mut strict = config(&[GEMM], &[GEMM], &[]);
    strict.min_vector_fma = 17;
    let report = run(KNOWN_GOOD, &strict, &[]);
    assert_eq!(count_rule(&report, "kernel-vectorized"), 1);
    assert!(report.findings[0].message.contains("16 packed"));
}

#[test]
fn per_symbol_suppressions_baseline_and_go_stale() {
    let suppressions = vec![
        CodegenSuppression {
            rule: "kernel-vectorized".to_string(),
            symbol: GEMM.to_string(),
            reason: "scalar by design in this fixture".to_string(),
        },
        CodegenSuppression {
            rule: "kernel-no-panic".to_string(),
            symbol: "neural::kernels::pool::maxpool".to_string(),
            reason: "matches nothing — must surface as stale".to_string(),
        },
    ];
    let report = run(
        KNOWN_BAD,
        &config(&[GEMM, CONV], &[GEMM, CONV], &[GEMM, CONV]),
        &suppressions,
    );
    // One finding silenced, the unused entry is stale.
    assert_eq!(count_rule(&report, "kernel-vectorized"), 1);
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.stale.len(), 1);
    assert_eq!(report.stale[0].rule, "kernel-no-panic");
    assert_eq!(report.stale[0].path, "neural::kernels::pool::maxpool");
}

#[test]
fn merge_into_feeds_report_findings_stats_and_stale() {
    let codegen = run(
        KNOWN_BAD,
        &config(&[GEMM, CONV], &[GEMM, CONV], &[GEMM, CONV]),
        &[CodegenSuppression {
            rule: "kernel-no-alloc".to_string(),
            symbol: "neural::kernels::*".to_string(),
            reason: "glob suppression for the merge test".to_string(),
        }],
    );
    let mut report = Report {
        findings: Vec::new(),
        suppressed: 3,
        stale_suppressions: Vec::new(),
        files_scanned: 1,
        stats: GraphStats::default(),
    };
    merge_into(&mut report, &codegen);
    assert_eq!(report.findings.len(), 5); // 7 - 2 glob-suppressed allocs
    assert_eq!(report.suppressed, 3 + 2);
    assert_eq!(report.stats.codegen_audited, 2);
    assert_eq!(report.stats.codegen_panic_free, 0);
    assert_eq!(report.stats.codegen_alloc_free, 0);
    assert_eq!(report.stats.codegen_vectorized, 0);
    let stats_line = report.stats.to_string();
    assert!(stats_line.contains("codegen 2 audited symbol(s)"), "{stats_line}");
}

#[test]
fn codegen_findings_round_trip_through_sarif() {
    let codegen = run(KNOWN_BAD, &config(&[GEMM, CONV], &[GEMM, CONV], &[GEMM, CONV]), &[]);
    let mut report = Report {
        findings: Vec::new(),
        suppressed: 0,
        stale_suppressions: Vec::new(),
        files_scanned: 0,
        stats: GraphStats::default(),
    };
    merge_into(&mut report, &codegen);
    let text = lint::sarif::to_sarif_string(&report);
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid SARIF JSON");
    let driver = &doc["runs"][0]["tool"]["driver"];
    let rules: Vec<String> = driver["rules"]
        .as_array()
        .expect("rules array")
        .iter()
        .map(|r| r["id"].as_str().unwrap_or("").to_string())
        .collect();
    for rule in [
        "kernel-vectorized",
        "kernel-no-panic",
        "kernel-no-alloc",
        "kernel-no-extern-call",
        "codegen-symbol-coverage",
    ] {
        assert!(rules.iter().any(|r| r == rule), "missing SARIF rule {rule}");
    }
    let results = doc["runs"][0]["results"].as_array().expect("results");
    assert_eq!(results.len(), 7);
    // Every result's ruleIndex points back at its declared rule.
    for result in results {
        let idx = result["ruleIndex"].as_u64().expect("ruleIndex") as usize;
        assert_eq!(driver["rules"][idx]["id"], result["ruleId"]);
        assert_eq!(result["level"], serde_json::json!("error"));
    }
}

#[test]
fn lint_toml_codegen_section_drives_the_rules() {
    // End-to-end: config text -> parsed [codegen] -> rules.
    let toml = r#"
[codegen]
package = "neural"
audit = ["neural::kernels::gemm::gemm_acc", "neural::kernels::conv::conv1d"]
vectorized = ["neural::kernels::gemm::gemm_acc"]
min-vector-fma = 16
no-extern = ["neural::kernels::*"]
forbidden-externs = ["expf"]

[[codegen-suppress]]
rule = "kernel-vectorized"
symbol = "neural::kernels::gemm::gemm_acc"
reason = "fixture kernel is scalar on purpose"
"#;
    let parsed = LintConfig::parse(toml).expect("valid config");
    let report = check_functions(
        &parse_asm(KNOWN_BAD),
        &parsed.codegen,
        &parsed.codegen_suppressions,
        None,
    );
    // vectorized only audits gemm_acc (suppressed); extern rule applies
    // to both via the glob but only gemm_acc calls expf.
    assert_eq!(count_rule(&report, "kernel-vectorized"), 0);
    assert_eq!(report.suppressed, 1);
    assert_eq!(count_rule(&report, "kernel-no-panic"), 2);
    assert_eq!(count_rule(&report, "kernel-no-alloc"), 2);
    assert_eq!(count_rule(&report, "kernel-no-extern-call"), 1);
    assert!(report.stale.is_empty());
}

#[test]
fn demangler_handles_both_manglings_in_fixtures() {
    // The fixtures deliberately mix legacy (own-crate, core::panicking)
    // and v0 (__rustc alloc shims, alloc::raw_vec) symbols, matching
    // what rustc actually emits.
    assert_eq!(
        demangle("_ZN6neural7kernels4gemm8gemm_acc17h0123456789abcdefE"),
        GEMM
    );
    let v0 = demangle("_RNvMNtNtCs1234567890ab_5alloc7raw_vec11RawVecInner11try_reserve");
    assert!(v0.contains("alloc::raw_vec"), "{v0}");
    assert!(v0.contains("try_reserve"), "{v0}");
}
