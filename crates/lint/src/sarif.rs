//! SARIF 2.1.0 export: one run, one driver (`spectro-lint`), every rule
//! declared with a short description, one `result` per active finding.
//!
//! The output validates against the SARIF 2.1.0 schema
//! (<https://json.schemastore.org/sarif-2.1.0.json>) and is shaped for
//! `github/codeql-action/upload-sarif`, which renders each result as an
//! inline PR annotation at its `physicalLocation`.

use serde_json::{json, Value};

use crate::findings::{Report, Severity};

/// Every rule spectro-lint can emit, with the one-line description SARIF
/// viewers show next to each result.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-wallclock-nondeterminism",
        "No wall-clock reads or unseeded RNGs in deterministic crates",
    ),
    ("no-float-eq", "No ==/!= against float literals outside tests"),
    (
        "forbid-unsafe-coverage",
        "Every crate root carries #![forbid(unsafe_code)]",
    ),
    (
        "panic-reachability",
        "No panic site reachable from the library code of a panic-free crate",
    ),
    (
        "lock-graph",
        "Lock acquisitions respect the declared global order; no cycles or re-acquisitions",
    ),
    (
        "alloc-in-hot-path",
        "No allocation-family calls inside hot-path functions",
    ),
    (
        "stale-config",
        "Every lint.toml [alloc-hot-path] path and [lock-order] name still matches code",
    ),
    (
        "blocking-under-lock",
        "No blocking operation (condvar wait, join, recv, sleep, file I/O, request \
         submission) while a lock guard is live",
    ),
    (
        "atomic-ordering",
        "Every atomic field operates within its declared [[atomics]] ordering contract; \
         no Relaxed halves of publication pairs",
    ),
    (
        "condvar-protocol",
        "Condvar waits re-check their predicate in a loop; notifies hold or follow the \
         predicate's mutex",
    ),
    (
        "kernel-vectorized",
        "Audited kernels carry enough packed vector FMAs or multiplies in the emitted \
         assembly, with at least one in an innermost loop",
    ),
    (
        "kernel-no-panic",
        "Audited kernels emit zero panic-family calls (bounds checks, unwrap/expect \
         handlers) at the assembly level",
    ),
    (
        "kernel-no-alloc",
        "Audited kernels emit zero allocator-family calls at the assembly level",
    ),
    (
        "kernel-no-extern-call",
        "Fast-math kernels never regress to forbidden libm externs (expf and friends stay \
         inlined)",
    ),
    (
        "codegen-symbol-coverage",
        "Every [codegen] audit pattern matches at least one emitted symbol (audit anchors \
         stay in place)",
    ),
];

/// Builds the SARIF 2.1.0 document for a report's active findings.
pub fn to_sarif(report: &Report) -> Value {
    let rules: Vec<Value> = RULES
        .iter()
        .map(|(id, description)| {
            json!({
                "id": *id,
                "shortDescription": json!({ "text": *description })
            })
        })
        .collect();
    let results: Vec<Value> = report
        .findings
        .iter()
        .map(|finding| {
            let level = match finding.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            let mut result = json!({
                "ruleId": finding.rule,
                "level": level,
                "message": json!({ "text": finding.message }),
                "locations": json!([json!({
                    "physicalLocation": json!({
                        "artifactLocation": json!({ "uri": finding.path }),
                        "region": json!({ "startLine": finding.line.max(1) })
                    })
                })])
            });
            if let Some(index) = RULES.iter().position(|(id, _)| *id == finding.rule) {
                if let Value::Object(map) = &mut result {
                    map.insert("ruleIndex".to_string(), json!(index));
                }
            }
            result
        })
        .collect();
    json!({
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": json!([json!({
            "tool": json!({
                "driver": json!({
                    "name": "spectro-lint",
                    "version": env!("CARGO_PKG_VERSION"),
                    "informationUri": "https://example.invalid/spectro-lint",
                    "rules": rules
                })
            }),
            "results": results
        })])
    })
}

/// Renders the SARIF document as pretty-printed JSON with a trailing
/// newline.
pub fn to_sarif_string(report: &Report) -> String {
    let mut text = serde_json::to_string_pretty(&to_sarif(report)).unwrap_or_default();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::{Finding, GraphStats};

    fn report_with(findings: Vec<Finding>) -> Report {
        Report {
            findings,
            suppressed: 0,
            stale_suppressions: Vec::new(),
            files_scanned: 1,
            stats: GraphStats::default(),
        }
    }

    #[test]
    fn sarif_document_has_schema_version_driver_and_results() {
        let report = report_with(vec![Finding {
            rule: "blocking-under-lock".into(),
            severity: Severity::Error,
            path: "crates/serve/src/router.rs".into(),
            line: 42,
            message: "blocks while holding `serve::swap_gate`".into(),
        }]);
        let doc = to_sarif(&report);
        let text = to_sarif_string(&report);
        // Round-trips as valid JSON.
        let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(parsed, doc);
        assert_eq!(doc["version"], json!("2.1.0"));
        assert!(doc["$schema"]
            .as_str()
            .is_some_and(|s| s.contains("sarif-2.1.0")));
        let driver = &doc["runs"][0]["tool"]["driver"];
        assert_eq!(driver["name"], json!("spectro-lint"));
        assert_eq!(driver["rules"].as_array().map(Vec::len), Some(RULES.len()));
        let result = &doc["runs"][0]["results"][0];
        assert_eq!(result["ruleId"], json!("blocking-under-lock"));
        assert_eq!(result["level"], json!("error"));
        let region = &result["locations"][0]["physicalLocation"]["region"];
        assert_eq!(region["startLine"], json!(42));
        let uri = &result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"];
        assert_eq!(uri, &json!("crates/serve/src/router.rs"));
        // ruleIndex points back into the declared rules array.
        let idx = result["ruleIndex"].as_u64().expect("ruleIndex") as usize;
        assert_eq!(driver["rules"][idx]["id"], json!("blocking-under-lock"));
    }

    #[test]
    fn empty_report_yields_empty_results() {
        let doc = to_sarif(&report_with(Vec::new()));
        assert_eq!(doc["runs"][0]["results"].as_array().map(Vec::len), Some(0));
    }
}
