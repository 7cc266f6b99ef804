//! `lint.toml` parsing: the lock-order table and the suppression baseline.
//!
//! The parser understands exactly the TOML subset the config needs —
//! `[section]` and `[[array-of-tables]]` headers, `key = "string"`,
//! `key = integer` and `key = ["array", "of", "strings"]` on one line,
//! and `#` comments — so the crate stays free of external parser deps.

use std::path::Path;

/// One baselined finding: silenced deliberately, with a recorded reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Rule id the suppression applies to.
    pub rule: String,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Specific line, or `None` to suppress the rule for the whole file.
    pub line: Option<usize>,
    /// Why the finding is acceptable — required, so every baseline entry
    /// documents its own justification.
    pub reason: String,
}

/// One declared per-field atomic ordering contract: which `Ordering`s the
/// field's operations may use, and why that is correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicContract {
    /// Crate-qualified field name, e.g. `serve::stop`.
    pub field: String,
    /// Allowed `Ordering` names (`Relaxed`, `Acquire`, ...). An operation
    /// on the field using any other ordering is a finding.
    pub allowed: Vec<String>,
    /// Why the declared orderings are sufficient — required, so every
    /// contract documents its own correctness argument.
    pub reason: String,
}

/// The `[codegen]` section: which symbols the assembly-level audit
/// verifies, and against what thresholds (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenConfig {
    /// Cargo package whose library the audit compiles with `--emit asm`.
    pub package: String,
    /// Demangled function-path patterns to audit (exact, or prefix with
    /// a trailing `*`). Every audited symbol must emit zero panic-family
    /// and zero allocator-family calls; every pattern must match at
    /// least one emitted symbol (`codegen-symbol-coverage`).
    pub audit: Vec<String>,
    /// The subset additionally required to carry packed vector FMAs or
    /// packed multiplies (`kernel-vectorized`): at least `min_vector_fma`
    /// of them together, with at least one inside an innermost loop.
    pub vectorized: Vec<String>,
    /// Minimum packed vector FMA + packed multiply count for the
    /// `vectorized` set.
    pub min_vector_fma: usize,
    /// Patterns whose symbols must not call any `forbidden_externs`
    /// (`kernel-no-extern-call`) — the `exp_fast` users.
    pub no_extern: Vec<String>,
    /// Extern names (post-demangling, `@PLT` stripped) forbidden for the
    /// `no_extern` set, e.g. `expf`.
    pub forbidden_externs: Vec<String>,
}

impl Default for CodegenConfig {
    fn default() -> Self {
        Self {
            package: "neural".to_string(),
            audit: Vec::new(),
            vectorized: Vec::new(),
            min_vector_fma: 8,
            no_extern: Vec::new(),
            forbidden_externs: Vec::new(),
        }
    }
}

/// One baselined codegen finding, keyed by rule and demangled symbol
/// path (codegen findings live at the symbol level, not the line level:
/// instruction offsets churn with every compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenSuppression {
    /// Rule id (`kernel-vectorized`, `kernel-no-panic`, …).
    pub rule: String,
    /// Demangled symbol path, exact or trailing-`*` pattern.
    pub symbol: String,
    /// Why the deviation is acceptable — required, like every baseline
    /// entry.
    pub reason: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// Declared lock acquisition order for the `lock-graph` rule: locks
    /// earlier in the list must be acquired before locks later in it.
    pub lock_order: Vec<String>,
    /// Function-path prefixes (e.g. `neural::plan::FrozenPlan::predict`)
    /// treated as hot by `alloc-in-hot-path`: the one list of hot paths.
    pub hot_paths: Vec<String>,
    /// Per-field atomic ordering contracts for the `atomic-ordering`
    /// rule. Every atomic field in the checked crates must have one.
    pub atomics: Vec<AtomicContract>,
    /// Assembly-level audit configuration (`--codegen`).
    pub codegen: CodegenConfig,
    /// Per-symbol codegen suppressions.
    pub codegen_suppressions: Vec<CodegenSuppression>,
    /// Baseline suppressions.
    pub suppressions: Vec<Suppression>,
}

impl LintConfig {
    /// Loads and parses a `lint.toml`. A missing file is an empty config.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Parses config text.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = Self::default();
        let mut section = Section::None;
        for (lineno, line) in logical_lines(text) {
            let line = line.as_str();
            if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                match header.trim() {
                    "suppress" => {
                        flush(&mut section, &mut config, lineno)?;
                        section = Section::Suppress(PartialSuppression::default());
                    }
                    "atomics" => {
                        flush(&mut section, &mut config, lineno)?;
                        section = Section::Atomics(PartialContract::default());
                    }
                    "codegen-suppress" => {
                        flush(&mut section, &mut config, lineno)?;
                        section = Section::CodegenSuppress(PartialCodegenSuppression::default());
                    }
                    other => return Err(format!("line {lineno}: unknown table [[{other}]]")),
                }
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                match header.trim() {
                    "lock-order" => {
                        flush(&mut section, &mut config, lineno)?;
                        section = Section::LockOrder;
                    }
                    "alloc-hot-path" => {
                        flush(&mut section, &mut config, lineno)?;
                        section = Section::AllocHotPath;
                    }
                    "codegen" => {
                        flush(&mut section, &mut config, lineno)?;
                        section = Section::Codegen;
                    }
                    other => return Err(format!("line {lineno}: unknown section [{other}]")),
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            match (&mut section, key) {
                (Section::LockOrder, "order") => {
                    config.lock_order = parse_string_array(value)
                        .ok_or_else(|| format!("line {lineno}: order must be a string array"))?;
                }
                (Section::AllocHotPath, "paths") => {
                    config.hot_paths = parse_string_array(value)
                        .ok_or_else(|| format!("line {lineno}: paths must be a string array"))?;
                }
                (Section::Suppress(partial), "rule") => {
                    partial.rule = Some(parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: rule must be a quoted string")
                    })?);
                }
                (Section::Suppress(partial), "path") => {
                    partial.path = Some(parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: path must be a quoted string")
                    })?);
                }
                (Section::Suppress(partial), "reason") => {
                    partial.reason = Some(parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: reason must be a quoted string")
                    })?);
                }
                (Section::Suppress(partial), "line") => {
                    partial.line = Some(value.parse::<usize>().map_err(|_| {
                        format!("line {lineno}: line must be an integer")
                    })?);
                }
                (Section::Atomics(partial), "field") => {
                    partial.field = Some(parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: field must be a quoted string")
                    })?);
                }
                (Section::Atomics(partial), "allowed") => {
                    partial.allowed = Some(parse_string_array(value).ok_or_else(|| {
                        format!("line {lineno}: allowed must be a string array")
                    })?);
                }
                (Section::Atomics(partial), "reason") => {
                    partial.reason = Some(parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: reason must be a quoted string")
                    })?);
                }
                (Section::Codegen, "package") => {
                    config.codegen.package = parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: package must be a quoted string")
                    })?;
                }
                (Section::Codegen, "audit") => {
                    config.codegen.audit = parse_string_array(value)
                        .ok_or_else(|| format!("line {lineno}: audit must be a string array"))?;
                }
                (Section::Codegen, "vectorized") => {
                    config.codegen.vectorized = parse_string_array(value).ok_or_else(|| {
                        format!("line {lineno}: vectorized must be a string array")
                    })?;
                }
                (Section::Codegen, "min-vector-fma") => {
                    config.codegen.min_vector_fma = value.parse::<usize>().map_err(|_| {
                        format!("line {lineno}: min-vector-fma must be an integer")
                    })?;
                }
                (Section::Codegen, "no-extern") => {
                    config.codegen.no_extern = parse_string_array(value).ok_or_else(|| {
                        format!("line {lineno}: no-extern must be a string array")
                    })?;
                }
                (Section::Codegen, "forbidden-externs") => {
                    config.codegen.forbidden_externs =
                        parse_string_array(value).ok_or_else(|| {
                            format!("line {lineno}: forbidden-externs must be a string array")
                        })?;
                }
                (Section::CodegenSuppress(partial), "rule") => {
                    partial.rule = Some(parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: rule must be a quoted string")
                    })?);
                }
                (Section::CodegenSuppress(partial), "symbol") => {
                    partial.symbol = Some(parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: symbol must be a quoted string")
                    })?);
                }
                (Section::CodegenSuppress(partial), "reason") => {
                    partial.reason = Some(parse_string(value).ok_or_else(|| {
                        format!("line {lineno}: reason must be a quoted string")
                    })?);
                }
                (_, key) => {
                    return Err(format!("line {lineno}: unexpected key `{key}` here"));
                }
            }
        }
        flush(&mut section, &mut config, text.lines().count() + 1)?;
        Ok(config)
    }
}

#[derive(Debug, Default)]
struct PartialSuppression {
    rule: Option<String>,
    path: Option<String>,
    line: Option<usize>,
    reason: Option<String>,
}

#[derive(Debug, Default)]
struct PartialContract {
    field: Option<String>,
    allowed: Option<Vec<String>>,
    reason: Option<String>,
}

#[derive(Debug, Default)]
struct PartialCodegenSuppression {
    rule: Option<String>,
    symbol: Option<String>,
    reason: Option<String>,
}

enum Section {
    None,
    LockOrder,
    AllocHotPath,
    Codegen,
    Suppress(PartialSuppression),
    Atomics(PartialContract),
    CodegenSuppress(PartialCodegenSuppression),
}

/// Completes a pending `[[suppress]]` / `[[atomics]]` table when the next
/// section starts (or the file ends), enforcing the mandatory keys —
/// including the written `reason` both tables require.
fn flush(section: &mut Section, config: &mut LintConfig, lineno: usize) -> Result<(), String> {
    match std::mem::replace(section, Section::None) {
        Section::Suppress(partial) => {
            let err = |field: &str| {
                format!("line {lineno}: [[suppress]] entry ending here is missing `{field}`")
            };
            config.suppressions.push(Suppression {
                rule: partial.rule.ok_or_else(|| err("rule"))?,
                path: partial.path.ok_or_else(|| err("path"))?,
                line: partial.line,
                reason: partial.reason.ok_or_else(|| err("reason"))?,
            });
        }
        Section::Atomics(partial) => {
            let err = |field: &str| {
                format!("line {lineno}: [[atomics]] entry ending here is missing `{field}`")
            };
            let contract = AtomicContract {
                field: partial.field.ok_or_else(|| err("field"))?,
                allowed: partial.allowed.ok_or_else(|| err("allowed"))?,
                reason: partial.reason.ok_or_else(|| err("reason"))?,
            };
            if contract.allowed.is_empty() {
                return Err(format!(
                    "line {lineno}: [[atomics]] `{}` allows no orderings",
                    contract.field
                ));
            }
            config.atomics.push(contract);
        }
        Section::CodegenSuppress(partial) => {
            let err = |field: &str| {
                format!("line {lineno}: [[codegen-suppress]] entry ending here is missing `{field}`")
            };
            config.codegen_suppressions.push(CodegenSuppression {
                rule: partial.rule.ok_or_else(|| err("rule"))?,
                symbol: partial.symbol.ok_or_else(|| err("symbol"))?,
                reason: partial.reason.ok_or_else(|| err("reason"))?,
            });
        }
        _ => {}
    }
    Ok(())
}

/// Joins physical lines into logical ones: a `key = [` array may span
/// multiple lines until its closing `]`. Comments are stripped and blank
/// lines dropped; each logical line keeps the number of its first
/// physical line for error messages.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let stripped = strip_comment(raw).trim();
        if stripped.is_empty() {
            continue;
        }
        if let Some((start, buffer)) = &mut pending {
            buffer.push(' ');
            buffer.push_str(stripped);
            if stripped.contains(']') {
                out.push((*start, buffer.clone()));
                pending = None;
            }
            continue;
        }
        let opens_array = stripped
            .split_once('=')
            .is_some_and(|(_, v)| v.trim().starts_with('[') && !v.contains(']'));
        if opens_array {
            pending = Some((lineno, stripped.to_string()));
        } else {
            out.push((lineno, stripped.to_string()));
        }
    }
    // An unterminated array still surfaces as a parse error downstream.
    if let Some((start, buffer)) = pending {
        out.push((start, buffer));
    }
    out
}

/// Drops a trailing `#` comment, honouring quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_lock_order_and_suppressions() {
        let text = r#"
# project lint baseline
[lock-order]
order = ["models", "state", "result"]

[[suppress]]
rule = "no-float-eq"
path = "crates/spectrum/src/stats.rs"
line = 91
reason = "exact-zero variance guard"

[[suppress]]
rule = "panic-reachability"
path = "crates/neural/src/optim.rs"  # whole file
reason = "slot invariants"
"#;
        let config = LintConfig::parse(text).unwrap();
        assert_eq!(config.lock_order, ["models", "state", "result"]);
        assert_eq!(config.suppressions.len(), 2);
        assert_eq!(config.suppressions[0].line, Some(91));
        assert_eq!(config.suppressions[1].line, None);
        assert_eq!(config.suppressions[1].reason, "slot invariants");
    }

    #[test]
    fn parses_multi_line_arrays() {
        let text = "[alloc-hot-path]\npaths = [\n    \"a::b\", # inference\n    \"c::d\",\n]\n";
        let config = LintConfig::parse(text).unwrap();
        assert_eq!(config.hot_paths, ["a::b", "c::d"]);
    }

    #[test]
    fn parses_graph_rule_sections() {
        let text = r#"
[alloc-hot-path]
paths = ["neural::plan::FrozenPlan::predict", "serve::engine::worker_loop"]
"#;
        let config = LintConfig::parse(text).unwrap();
        assert_eq!(
            config.hot_paths,
            ["neural::plan::FrozenPlan::predict", "serve::engine::worker_loop"]
        );
        // `panic-reachability` takes no configuration, so has no section.
        assert!(LintConfig::parse("[panic-reachability]\n").is_err());
    }

    #[test]
    fn parses_atomic_contracts() {
        let text = r#"
[[atomics]]
field = "serve::stop"
allowed = ["Relaxed"]
reason = "pure shutdown flag; polled, never guards data"

[[atomics]]
field = "obs::seq"
allowed = ["Acquire", "Release"]
reason = "publishes journal slots"
"#;
        let config = LintConfig::parse(text).unwrap();
        assert_eq!(config.atomics.len(), 2);
        assert_eq!(config.atomics[0].field, "serve::stop");
        assert_eq!(config.atomics[0].allowed, ["Relaxed"]);
        assert_eq!(config.atomics[1].allowed, ["Acquire", "Release"]);
        // Missing reason / empty allowed are rejected.
        let missing = "[[atomics]]\nfield = \"x\"\nallowed = [\"Relaxed\"]\n";
        assert!(LintConfig::parse(missing).unwrap_err().contains("reason"));
        let empty = "[[atomics]]\nfield = \"x\"\nallowed = []\nreason = \"r\"\n";
        assert!(LintConfig::parse(empty).unwrap_err().contains("allows no orderings"));
    }

    #[test]
    fn parses_codegen_section_and_suppressions() {
        let text = r#"
[codegen]
package = "neural"
audit = [
    "neural::kernels::gemm::gemm_acc",
    "neural::kernels::conv::conv1d",
]
vectorized = ["neural::kernels::gemm::gemm_acc"]
min-vector-fma = 16
no-extern = ["neural::kernels::act::apply_fast"]
forbidden-externs = ["expf", "logf"]

[[codegen-suppress]]
rule = "kernel-vectorized"
symbol = "neural::kernels::pool::avgpool"
reason = "strict sequential sum by determinism contract; scalar by design"
"#;
        let config = LintConfig::parse(text).unwrap();
        assert_eq!(config.codegen.package, "neural");
        assert_eq!(config.codegen.audit.len(), 2);
        assert_eq!(config.codegen.min_vector_fma, 16);
        assert_eq!(config.codegen.no_extern.len(), 1);
        assert_eq!(config.codegen.forbidden_externs, ["expf", "logf"]);
        assert_eq!(config.codegen_suppressions.len(), 1);
        assert_eq!(config.codegen_suppressions[0].rule, "kernel-vectorized");
        // Mandatory reason, like every other baseline table.
        let missing = "[[codegen-suppress]]\nrule = \"kernel-no-panic\"\nsymbol = \"x\"\n";
        assert!(LintConfig::parse(missing).unwrap_err().contains("reason"));
        // Defaults when the section is absent.
        let empty = LintConfig::parse("").unwrap();
        assert_eq!(empty.codegen.package, "neural");
        assert_eq!(empty.codegen.min_vector_fma, 8);
        assert!(empty.codegen.audit.is_empty());
    }

    #[test]
    fn missing_reason_is_rejected() {
        let text = "[[suppress]]\nrule = \"x\"\npath = \"y\"\n";
        let err = LintConfig::parse(text).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        assert!(LintConfig::parse("[nope]\n").is_err());
        assert!(LintConfig::parse("[lock-order]\nbogus = 3\n").is_err());
    }

    #[test]
    fn empty_and_missing_config_is_default() {
        assert_eq!(LintConfig::parse("").unwrap(), LintConfig::default());
        let missing = LintConfig::load(Path::new("/nonexistent/lint.toml")).unwrap();
        assert_eq!(missing, LintConfig::default());
    }
}
