//! Codegen audit layer: machine-verify that the hot kernels stay
//! vectorized, panic-free and alloc-free **at the assembly level**
//! (DESIGN.md §16).
//!
//! The source-level rules (`panic-reachability`, `alloc-in-hot-path`)
//! prove properties of what we *wrote*; this layer proves properties of
//! what the compiler actually *emitted*. A kernel can be source-clean
//! and still regress in codegen — a slice guard that stops hoisting, a
//! closure that stops inlining and drags `core::array::try_from_fn`
//! into the hot loop, an LTO setting that leaves the rlib scalar — and
//! none of those regressions is visible to a lexer or a call graph.
//!
//! The audit drives `cargo rustc -p <package> --release -- --emit asm`
//! into a dedicated target directory, demangles every emitted symbol (legacy
//! `_ZN…E` and v0 `_R…` manglings both occur: own-crate items are
//! legacy-mangled, std callees are v0-mangled), maps the symbols named
//! in `lint.toml`'s `[codegen]` section back to their source
//! definitions, and checks four rules per audited function:
//!
//! * `kernel-vectorized` — the function carries at least
//!   `min-vector-fma` packed vector FMAs (`vfmadd*ps` on `%ymm`/`%zmm`
//!   under the workspace's pinned `x86-64-v3`) or packed multiplies
//!   (`vmulps` on `%ymm`/`%zmm`), and at least one *innermost* loop
//!   contains one of them — i.e. the hot loop itself vectorized, not just
//!   a prologue. Packed multiplies count because the exact kernels (the
//!   training layers' bit-identical tiles) multiply and add separately
//!   and so must never emit an FMA.
//! * `kernel-no-panic` — the emitted body contains **no** call into the
//!   panic family (`core::panicking::*`, bounds-check/slice-index
//!   handlers, `unwrap_failed`, …) anywhere. Strict whole-function
//!   semantics: a panic call that "looks cold" is still a branch the
//!   optimizer must keep alive, and block placement is too fragile to
//!   classify hot-vs-cold reliably from flat assembly.
//! * `kernel-no-alloc` — no call into the allocator family
//!   (`__rust_alloc`, `__rust_realloc`, `RawVec` grow paths, …).
//! * `kernel-no-extern-call` — for the configured symbols, no call to a
//!   forbidden libm extern (`expf`, …): the fast-activation kernels
//!   must keep using the inlined polynomial `exp_fast`, never the libm
//!   call it replaced.
//!
//! Findings flow through the ordinary findings/SARIF pipeline; known
//! deviations are baselined per symbol via `[[codegen-suppress]]`
//! entries (mandatory reason), and suppressions that stop matching are
//! stale and fail `--deny` exactly like source-rule suppressions.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::config::{CodegenConfig, CodegenSuppression};
use crate::findings::{Finding, Report, Severity, StaleSuppression};

/// One parsed line of a function body: a local label or an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmLine {
    /// A local label definition (`.LBB4_7:`), the target of loop
    /// back-edges.
    Label(String),
    /// One instruction: mnemonic plus its raw operand text.
    Insn {
        /// The instruction mnemonic (`vfmadd213ps`, `callq`, `jne`, …).
        mnemonic: String,
        /// Everything after the mnemonic, untokenized.
        operands: String,
    },
}

/// One function extracted from the emitted artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmFunction {
    /// The raw (mangled) symbol name.
    pub symbol: String,
    /// The demangled, hash-stripped path (`neural::kernels::gemm::gemm_acc`).
    pub path: String,
    /// Body lines in emission order.
    pub lines: Vec<AsmLine>,
}

/// Instruction-level measurements for one function, produced by
/// [`analyze`] and consumed by the rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionAudit {
    /// Demangled path.
    pub path: String,
    /// Raw symbol.
    pub symbol: String,
    /// Instruction count (labels excluded).
    pub insns: usize,
    /// Packed vector FMAs: `vfmadd*ps` on a `%ymm`/`%zmm` register.
    pub packed_fma: usize,
    /// Packed vector multiplies: `vmulps` on a `%ymm`/`%zmm` register,
    /// the vector work of an exact kernel that multiplies and adds
    /// separately.
    pub packed_mul: usize,
    /// Scalar FMAs (`vfmadd*ss`) — a high scalar count with zero packed
    /// count is the signature of a lost vectorization.
    pub scalar_fma: usize,
    /// Whether at least one *innermost* loop (a back-edge span containing
    /// no smaller back-edge span) carries a packed FMA or packed multiply.
    pub loop_fma: bool,
    /// Demangled panic-family call targets, in emission order.
    pub panic_calls: Vec<String>,
    /// Demangled allocator-family call targets, in emission order.
    pub alloc_calls: Vec<String>,
    /// Cleaned non-workspace, non-panic, non-alloc call targets
    /// (`expf`, `memcpy`, …) for the extern rule.
    pub extern_calls: Vec<String>,
}

/// Per-symbol audit outcome, surfaced by `--stats` as a coverage table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolAudit {
    /// Instruction-level measurements.
    pub audit: FunctionAudit,
    /// Whether the symbol is in the `vectorized` set (and thus the
    /// `kernel-vectorized` rule applies).
    pub vectorized_required: bool,
    /// Whether the `kernel-vectorized` requirement held (vacuously true
    /// when not required).
    pub vectorized_ok: bool,
}

/// The complete outcome of a codegen audit run.
#[derive(Debug, Clone, Default)]
pub struct CodegenReport {
    /// Findings (pre-merge; already baselined against
    /// `[[codegen-suppress]]`).
    pub findings: Vec<Finding>,
    /// Codegen suppressions that matched nothing — stale, fail `--deny`.
    pub stale: Vec<StaleSuppression>,
    /// Findings silenced by `[[codegen-suppress]]` entries.
    pub suppressed: usize,
    /// One row per audited symbol.
    pub symbols: Vec<SymbolAudit>,
    /// Audit patterns that matched no emitted symbol (each also emits a
    /// `codegen-symbol-coverage` finding).
    pub unmatched_patterns: Vec<String>,
}

impl CodegenReport {
    /// Audited symbols with zero panic-family calls.
    pub fn panic_free(&self) -> usize {
        self.symbols.iter().filter(|s| s.audit.panic_calls.is_empty()).count()
    }

    /// Audited symbols with zero allocator-family calls.
    pub fn alloc_free(&self) -> usize {
        self.symbols.iter().filter(|s| s.audit.alloc_calls.is_empty()).count()
    }

    /// Symbols in the vectorized set whose requirement held.
    pub fn vectorized_ok(&self) -> usize {
        self.symbols
            .iter()
            .filter(|s| s.vectorized_required && s.vectorized_ok)
            .count()
    }

    /// Total packed vector FMAs across audited symbols.
    pub fn packed_fma_total(&self) -> usize {
        self.symbols.iter().map(|s| s.audit.packed_fma).sum()
    }

    /// Total packed vector multiplies across audited symbols.
    pub fn packed_mul_total(&self) -> usize {
        self.symbols.iter().map(|s| s.audit.packed_mul).sum()
    }

    /// Human-readable per-symbol coverage table for `--stats`.
    pub fn summary_table(&self) -> String {
        let mut out = format!(
            "codegen audit (asm): {} symbol(s) audited, {} proven vectorized \
             (of {} required), {} panic-call-free, {} alloc-call-free, \
             {} packed vector FMA(s) and {} packed multiply(s) total\n",
            self.symbols.len(),
            self.vectorized_ok(),
            self.symbols.iter().filter(|s| s.vectorized_required).count(),
            self.panic_free(),
            self.alloc_free(),
            self.packed_fma_total(),
            self.packed_mul_total(),
        );
        for sym in &self.symbols {
            let a = &sym.audit;
            let vec_tag = if sym.vectorized_required {
                if sym.vectorized_ok { " vec=ok" } else { " vec=FAIL" }
            } else {
                ""
            };
            out.push_str(&format!(
                "  {}: {} insn(s), {} packed / {} scalar FMA, {} packed mul, loop-fma={}{}, \
                 panic-calls={}, alloc-calls={}\n",
                a.path,
                a.insns,
                a.packed_fma,
                a.scalar_fma,
                a.packed_mul,
                if a.loop_fma { "yes" } else { "no" },
                vec_tag,
                a.panic_calls.len(),
                a.alloc_calls.len(),
            ));
        }
        for pattern in &self.unmatched_patterns {
            out.push_str(&format!("  (no emitted symbol matched `{pattern}`)\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Demangling
// ---------------------------------------------------------------------------

/// Demangles a Rust symbol to a `::`-joined path, handling both the
/// legacy (`_ZN…17h<hash>E`) and v0 (`_R…`) schemes, with the trailing
/// instantiation hash stripped. Unknown shapes are returned unchanged.
pub fn demangle(symbol: &str) -> String {
    // `@PLT` / `@GOTPCREL` suffixes and `.llvm.<id>` clones first.
    let symbol = symbol.split('@').next().unwrap_or(symbol);
    let symbol = match symbol.find(".llvm.") {
        Some(idx) => &symbol[..idx],
        None => symbol,
    };
    if let Some(rest) = symbol.strip_prefix("_ZN") {
        if let Some(path) = demangle_legacy(rest) {
            return path;
        }
    }
    if let Some(rest) = symbol.strip_prefix("_R") {
        return demangle_v0(rest);
    }
    symbol.to_string()
}

/// Legacy mangling: length-prefixed segments terminated by `E`, last
/// segment a `h<16 hex>` instantiation hash.
fn demangle_legacy(rest: &str) -> Option<String> {
    let bytes = rest.as_bytes();
    let mut segments: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'E' {
            break;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            return None;
        }
        let len: usize = rest[start..i].parse().ok()?;
        if i + len > bytes.len() {
            return None;
        }
        segments.push(unescape_segment(&rest[i..i + len]));
        i += len;
    }
    // Drop the trailing instantiation hash (`h` + 16 hex digits).
    if let Some(last) = segments.last() {
        if last.len() == 17
            && last.starts_with('h')
            && last[1..].bytes().all(|b| b.is_ascii_hexdigit())
        {
            segments.pop();
        }
    }
    if segments.is_empty() {
        return None;
    }
    Some(segments.join("::"))
}

/// v0 mangling, approximately: the scheme length-prefixes every
/// identifier in plain text, so extracting the `<len><ident>` runs and
/// joining them recovers the path well enough for family classification
/// and pattern matching (disambiguator tags between them are skipped).
fn demangle_v0(rest: &str) -> String {
    let bytes = rest.as_bytes();
    let mut segments: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if let Ok(len) = rest[start..i].parse::<usize>() {
                // A `_` right after the digit run is always a separator
                // (identifiers starting with `_` or a digit get one);
                // skip exactly it, then take `len` identifier bytes.
                let ident_start = if i < bytes.len() && bytes[i] == b'_' {
                    i + 1
                } else {
                    i
                };
                if len > 0
                    && ident_start + len <= bytes.len()
                    && rest[ident_start..ident_start + len]
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    segments.push(rest[ident_start..ident_start + len].to_string());
                    i = ident_start + len;
                    continue;
                }
            }
            i = start + 1;
        } else {
            i += 1;
        }
    }
    if segments.is_empty() {
        rest.to_string()
    } else {
        segments.join("::")
    }
}

/// Decodes the legacy `$…$` escapes (`$LT$` → `<`, `$u7b$` → `{`, …)
/// and `..` → `::` inside one path segment.
fn unescape_segment(segment: &str) -> String {
    let mut out = String::with_capacity(segment.len());
    let mut rest = segment;
    while let Some(dollar) = rest.find('$') {
        out.push_str(&rest[..dollar]);
        let after = &rest[dollar + 1..];
        let Some(end) = after.find('$') else {
            out.push_str(&rest[dollar..]);
            rest = "";
            break;
        };
        let escape = &after[..end];
        match escape {
            "LT" => out.push('<'),
            "GT" => out.push('>'),
            "LP" => out.push('('),
            "RP" => out.push(')'),
            "C" => out.push(','),
            "SP" => out.push('@'),
            "BP" => out.push('*'),
            "RF" => out.push('&'),
            _ => {
                if let Some(hex) = escape.strip_prefix('u') {
                    if let Ok(code) = u32::from_str_radix(hex, 16) {
                        out.push(char::from_u32(code).unwrap_or('?'));
                    }
                } else {
                    out.push('$');
                    out.push_str(escape);
                    out.push('$');
                }
            }
        }
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    out.replace("..", "::")
}

// ---------------------------------------------------------------------------
// Artifact parsing
// ---------------------------------------------------------------------------

fn is_symbolish(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$' || b == b'.')
}

/// Parses AT&T-syntax assembly (`--emit asm`) into functions.
///
/// Function bodies start at a column-0 non-`.L` label and run until the
/// next one; column-0 `.L*` labels inside a body are recorded as local
/// labels (loop back-edge targets), indented non-directive lines as
/// instructions.
pub fn parse_asm(text: &str) -> Vec<AsmFunction> {
    let mut functions: Vec<AsmFunction> = Vec::new();
    let mut current: Option<AsmFunction> = None;
    for raw in text.lines() {
        let indented = raw.starts_with(' ') || raw.starts_with('\t');
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if !indented {
            if let Some(name) = line.strip_suffix(':') {
                if name.starts_with(".L") {
                    if let Some(function) = current.as_mut() {
                        function.lines.push(AsmLine::Label(name.to_string()));
                    }
                } else if is_symbolish(name) && !name.starts_with('.') {
                    if let Some(function) = current.take() {
                        functions.push(function);
                    }
                    current = Some(AsmFunction {
                        symbol: name.to_string(),
                        path: demangle(name),
                        lines: Vec::new(),
                    });
                }
            }
            continue;
        }
        if line.starts_with('.') || line.starts_with('#') {
            continue; // assembler directive or comment
        }
        let Some(function) = current.as_mut() else {
            continue;
        };
        let (mnemonic, operands) = match line.split_once(char::is_whitespace) {
            Some((m, o)) => (m, o.trim()),
            None => (line, ""),
        };
        function.lines.push(AsmLine::Insn {
            mnemonic: mnemonic.to_string(),
            operands: operands.to_string(),
        });
    }
    if let Some(function) = current.take() {
        functions.push(function);
    }
    functions
}

// ---------------------------------------------------------------------------
// Instruction-level analysis
// ---------------------------------------------------------------------------

/// Call targets in the Rust panic family. Matching is by substring of
/// both the demangled and raw names, which covers legacy *and* v0
/// manglings (v0 length-prefixes identifiers in plain text).
const PANIC_FAMILY: &[&str] = &[
    "core::panicking",
    "panic_bounds_check",
    "panic_fmt",
    "panic_nounwind",
    "panic_misaligned",
    "panic_const",
    "slice_index_fail",
    "slice_start_index_len_fail",
    "slice_end_index_len_fail",
    "len_mismatch_fail",
    "str_index_overflow_fail",
    "unwrap_failed",
    "expect_failed",
    "assert_failed",
    "rust_begin_unwind",
];

/// Call targets in the allocator family.
const ALLOC_FAMILY: &[&str] = &[
    "__rust_alloc",
    "__rust_dealloc",
    "__rust_realloc",
    "__rust_alloc_zeroed",
    "handle_alloc_error",
    "alloc::raw_vec",
    "alloc::alloc::exchange_malloc",
];

fn in_family(raw: &str, demangled: &str, family: &[&str]) -> bool {
    family
        .iter()
        .any(|needle| raw.contains(needle) || demangled.contains(needle))
}

fn is_packed_fma(mnemonic: &str, operands: &str) -> bool {
    mnemonic.starts_with("vfmadd")
        && mnemonic.ends_with("ps")
        && (operands.contains("%ymm") || operands.contains("%zmm"))
}

fn is_packed_mul(mnemonic: &str, operands: &str) -> bool {
    mnemonic == "vmulps" && (operands.contains("%ymm") || operands.contains("%zmm"))
}

fn is_scalar_fma(mnemonic: &str) -> bool {
    mnemonic.starts_with("vfmadd") && mnemonic.ends_with("ss")
}

/// Measures one function: FMA counts, innermost-loop vectorization, and
/// call-family classification.
pub fn analyze(function: &AsmFunction) -> FunctionAudit {
    let mut audit = FunctionAudit {
        path: function.path.clone(),
        symbol: function.symbol.clone(),
        ..FunctionAudit::default()
    };
    // First label-definition index for back-edge detection.
    let mut label_at: Vec<(&str, usize)> = Vec::new();
    for (idx, line) in function.lines.iter().enumerate() {
        if let AsmLine::Label(name) = line {
            if !label_at.iter().any(|(n, _)| n == name) {
                label_at.push((name.as_str(), idx));
            }
        }
    }
    let mut packed_at: Vec<usize> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (idx, line) in function.lines.iter().enumerate() {
        let AsmLine::Insn { mnemonic, operands } = line else {
            continue;
        };
        audit.insns += 1;
        if is_packed_fma(mnemonic, operands) {
            audit.packed_fma += 1;
            packed_at.push(idx);
        } else if is_packed_mul(mnemonic, operands) {
            audit.packed_mul += 1;
            packed_at.push(idx);
        } else if is_scalar_fma(mnemonic) {
            audit.scalar_fma += 1;
        }
        if mnemonic == "call" || mnemonic == "callq" {
            let raw = operands.trim().trim_start_matches('*');
            let target = raw.split('@').next().unwrap_or(raw).trim();
            let demangled = demangle(target);
            if in_family(target, &demangled, PANIC_FAMILY) {
                audit.panic_calls.push(demangled);
            } else if in_family(target, &demangled, ALLOC_FAMILY) {
                audit.alloc_calls.push(demangled);
            } else if !target.is_empty() {
                audit.extern_calls.push(demangled);
            }
        } else if mnemonic.starts_with('j') {
            // Back-edge: a jump to a label defined earlier in the body.
            let target = operands.trim();
            if let Some(&(_, def)) = label_at.iter().find(|(n, _)| *n == target) {
                if def < idx {
                    spans.push((def, idx));
                }
            }
        }
    }
    // Innermost spans: back-edge spans strictly containing no other span.
    audit.loop_fma = spans.iter().any(|&(lo, hi)| {
        let innermost = !spans
            .iter()
            .any(|&(lo2, hi2)| (lo2, hi2) != (lo, hi) && lo2 >= lo && hi2 <= hi);
        innermost && packed_at.iter().any(|&idx| idx > lo && idx < hi)
    });
    audit
}

// ---------------------------------------------------------------------------
// Symbol ↔ pattern ↔ source mapping
// ---------------------------------------------------------------------------

/// Matches a demangled path against a config pattern: exact, or prefix
/// when the pattern ends with `*`.
pub fn pattern_matches(pattern: &str, path: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => path.starts_with(prefix),
        None => pattern == path,
    }
}

/// Best-effort map from a demangled function path back to its source
/// definition (workspace-relative path + 1-based line), by resolving
/// the module path under `crates/<crate>/src/` and scanning for the
/// `fn` item. Falls back to `(path-as-written, 0)` so findings always
/// carry *some* location.
fn source_location(root: Option<&Path>, fn_path: &str) -> (String, usize) {
    let fallback = (fn_path.to_string(), 0);
    let Some(root) = root else {
        return fallback;
    };
    let segments: Vec<&str> = fn_path.split("::").collect();
    let [krate, middle @ .., name] = segments.as_slice() else {
        return fallback;
    };
    let mut crate_dirs = vec![(*krate).to_string()];
    if krate.contains('_') {
        crate_dirs.push(krate.replace('_', "-"));
    }
    for crate_dir in &crate_dirs {
        let src = root.join("crates").join(crate_dir).join("src");
        // Try the deepest module file first, then peel trailing segments
        // (impl-type names are path segments but not module files).
        for depth in (0..=middle.len()).rev() {
            let mods = &middle[..depth];
            let mut candidates: Vec<PathBuf> = Vec::new();
            if mods.is_empty() {
                candidates.push(src.join("lib.rs"));
            } else {
                let joined: PathBuf = mods.iter().collect();
                candidates.push(src.join(&joined).with_extension("rs"));
                candidates.push(src.join(&joined).join("mod.rs"));
            }
            for candidate in candidates {
                let Ok(text) = std::fs::read_to_string(&candidate) else {
                    continue;
                };
                let needle_paren = format!("fn {name}(");
                let needle_generic = format!("fn {name}<");
                for (idx, line) in text.lines().enumerate() {
                    if line.contains(&needle_paren) || line.contains(&needle_generic) {
                        let rel = candidate
                            .strip_prefix(root)
                            .unwrap_or(&candidate)
                            .components()
                            .map(|c| c.as_os_str().to_string_lossy())
                            .collect::<Vec<_>>()
                            .join("/");
                        return (rel, idx + 1);
                    }
                }
            }
        }
    }
    fallback
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Runs the four codegen rules over parsed functions, applies the
/// `[[codegen-suppress]]` baseline, and reports coverage.
///
/// `root` enables symbol→source mapping (pass `None` in fixture tests:
/// findings then carry the demangled path with line 0).
pub fn check_functions(
    functions: &[AsmFunction],
    config: &CodegenConfig,
    suppressions: &[CodegenSuppression],
    root: Option<&Path>,
) -> CodegenReport {
    let mut report = CodegenReport::default();
    let mut raw_findings: Vec<(String, Finding)> = Vec::new(); // (symbol path, finding)
    let mut audited_paths: Vec<String> = Vec::new();

    for function in functions {
        if !config.audit.iter().any(|p| pattern_matches(p, &function.path)) {
            continue;
        }
        let audit = analyze(function);
        audited_paths.push(audit.path.clone());
        let (src_path, src_line) = source_location(root, &audit.path);
        let finding = |rule: &str, message: String| Finding {
            rule: rule.to_string(),
            severity: Severity::Error,
            path: src_path.clone(),
            line: src_line,
            message,
        };

        let vectorized_required =
            config.vectorized.iter().any(|p| pattern_matches(p, &audit.path));
        let mut vectorized_ok = true;
        if vectorized_required {
            let enough = audit.packed_fma + audit.packed_mul >= config.min_vector_fma;
            if !enough || !audit.loop_fma {
                vectorized_ok = false;
                raw_findings.push((
                    audit.path.clone(),
                    finding(
                        "kernel-vectorized",
                        format!(
                            "`{}` lost its vectorization in the emitted asm: {} packed \
                             vector FMA(s) and {} packed multiply(s) (minimum {} together), \
                             {} scalar FMA(s), innermost loop carries a packed FMA or \
                             multiply: {}",
                            audit.path,
                            audit.packed_fma,
                            audit.packed_mul,
                            config.min_vector_fma,
                            audit.scalar_fma,
                            audit.loop_fma,
                        ),
                    ),
                ));
            }
        }
        if !audit.panic_calls.is_empty() {
            raw_findings.push((
                audit.path.clone(),
                finding(
                    "kernel-no-panic",
                    format!(
                        "`{}` emits {} panic-family call(s): {}",
                        audit.path,
                        audit.panic_calls.len(),
                        dedup_join(&audit.panic_calls),
                    ),
                ),
            ));
        }
        if !audit.alloc_calls.is_empty() {
            raw_findings.push((
                audit.path.clone(),
                finding(
                    "kernel-no-alloc",
                    format!(
                        "`{}` emits {} allocator-family call(s): {}",
                        audit.path,
                        audit.alloc_calls.len(),
                        dedup_join(&audit.alloc_calls),
                    ),
                ),
            ));
        }
        if config.no_extern.iter().any(|p| pattern_matches(p, &audit.path)) {
            let forbidden: Vec<&String> = audit
                .extern_calls
                .iter()
                .filter(|target| {
                    config
                        .forbidden_externs
                        .iter()
                        .any(|f| f == *target || target.ends_with(&format!("::{f}")))
                })
                .collect();
            if !forbidden.is_empty() {
                raw_findings.push((
                    audit.path.clone(),
                    finding(
                        "kernel-no-extern-call",
                        format!(
                            "`{}` calls forbidden extern(s): {} — the fast-math inline \
                             path regressed to a library call",
                            audit.path,
                            dedup_join(&forbidden.iter().map(|s| (*s).clone()).collect::<Vec<_>>()),
                        ),
                    ),
                ));
            }
        }
        report.symbols.push(SymbolAudit {
            audit,
            vectorized_required,
            vectorized_ok,
        });
    }

    // Coverage: every configured pattern must match at least one emitted
    // symbol — a silently-vanished kernel (renamed, fully inlined after
    // an anchor removal) is itself a finding.
    for pattern in config
        .audit
        .iter()
        .chain(&config.vectorized)
        .chain(&config.no_extern)
    {
        if !audited_paths.iter().any(|p| pattern_matches(pattern, p))
            && !report.unmatched_patterns.contains(pattern)
        {
            report.unmatched_patterns.push(pattern.clone());
            raw_findings.push((
                pattern.clone(),
                Finding {
                    rule: "codegen-symbol-coverage".to_string(),
                    severity: Severity::Error,
                    path: "lint.toml".to_string(),
                    line: 0,
                    message: format!(
                        "[codegen] pattern `{pattern}` matched no symbol in the emitted \
                         asm — was the function renamed, or its #[inline(never)] \
                         audit anchor removed?"
                    ),
                },
            ));
        }
    }

    // Baseline: per-symbol suppressions with mandatory reasons; unused
    // entries are stale and fail --deny like every other suppression.
    let mut used = vec![false; suppressions.len()];
    for (symbol_path, finding) in raw_findings {
        let matched = suppressions.iter().enumerate().find(|(_, s)| {
            s.rule == finding.rule && pattern_matches(&s.symbol, &symbol_path)
        });
        match matched {
            Some((idx, _)) => {
                used[idx] = true;
                report.suppressed += 1;
            }
            None => report.findings.push(finding),
        }
    }
    for (suppression, &was_used) in suppressions.iter().zip(&used) {
        if !was_used {
            report.stale.push(StaleSuppression {
                rule: suppression.rule.clone(),
                path: suppression.symbol.clone(),
                line: 0,
                nearest_line: 0,
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
}

fn dedup_join(targets: &[String]) -> String {
    let mut seen: Vec<&String> = Vec::new();
    for target in targets {
        if !seen.contains(&target) {
            seen.push(target);
        }
    }
    seen.iter()
        .map(|s| format!("`{s}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Build driver
// ---------------------------------------------------------------------------

/// Runs the audit end to end: drive the compiler, parse the assembly,
/// run the rules against `config.codegen` and the
/// `[[codegen-suppress]]` baseline.
///
/// # Errors
///
/// Returns a description when the host is not x86-64 (the rules read
/// x86-64 AT&T mnemonics: `callq`, `vfmadd*ps`, `%ymm`), or when the
/// audit build fails or emits no assembly.
pub fn run_audit(root: &Path, config: &crate::config::LintConfig) -> Result<CodegenReport, String> {
    if !cfg!(target_arch = "x86_64") {
        return Err(format!(
            "the codegen audit reads x86-64 assembly; this host is {}",
            std::env::consts::ARCH
        ));
    }
    let cg = &config.codegen;
    if cg.audit.is_empty() {
        return Err(
            "[codegen] section in lint.toml declares no `audit` symbols — nothing to verify"
                .to_string(),
        );
    }
    let text = emit_asm(root, &cg.package)?;
    Ok(check_functions(
        &parse_asm(&text),
        cg,
        &config.codegen_suppressions,
        Some(root),
    ))
}

/// Drives `cargo rustc … --emit asm` into a dedicated target directory
/// and returns the newest emitted `.s` file's text.
///
/// The recipe is deliberate (see DESIGN.md §16):
///
/// * `CARGO_PROFILE_RELEASE_LTO=off` — under the workspace's thin-LTO
///   release profile the rlib contains only pre-link (unvectorized)
///   code; the env var is the one switch `cargo rustc` honours here (a
///   trailing `-C lto=off` flag does not override the profile).
/// * a separate `CARGO_TARGET_DIR` — the audit build must never evict
///   or poison the real release artifacts CI just built.
/// * `-C codegen-units=1` — one `.s` file, stable symbol placement.
/// * `-C target-cpu=x86-64-v3` — pins the ISA the vectorization rule
///   asserts against, matching `.cargo/config.toml`.
fn emit_asm(root: &Path, package: &str) -> Result<String, String> {
    let target_dir = root.join("target").join("codegen-audit");
    let output = Command::new("cargo")
        .current_dir(root)
        .env("CARGO_PROFILE_RELEASE_LTO", "off")
        .env("CARGO_TARGET_DIR", &target_dir)
        .args(["rustc", "-p", package, "--release", "--lib", "--"])
        .args(["--emit", "asm", "-C", "codegen-units=1", "-C", "target-cpu=x86-64-v3"])
        .output()
        .map_err(|e| format!("running cargo rustc for the audit build: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "audit build of `{package}` failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let deps = target_dir.join("release").join("deps");
    let artifact = newest_asm(&deps, &package.replace('-', "_")).ok_or_else(|| {
        format!(
            "audit build of `{package}` produced no .s file under {}",
            deps.display()
        )
    })?;
    std::fs::read_to_string(&artifact).map_err(|e| format!("reading {}: {e}", artifact.display()))
}

/// Newest `<stem>-*.s` under `dir`, by modification time.
fn newest_asm(dir: &Path, stem: &str) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with(stem) || !name.ends_with(".s") {
            continue;
        }
        let modified = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if best.as_ref().is_none_or(|(t, _)| modified > *t) {
            best = Some((modified, path));
        }
    }
    best.map(|(_, path)| path)
}

/// Merges a codegen audit into the main report: findings (re-sorted),
/// suppression accounting, stale entries, and the `--stats` counters.
pub fn merge_into(report: &mut Report, codegen: &CodegenReport) {
    report.findings.extend(codegen.findings.iter().cloned());
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report.suppressed += codegen.suppressed;
    report
        .stale_suppressions
        .extend(codegen.stale.iter().cloned());
    report.stats.codegen_audited = codegen.symbols.len();
    report.stats.codegen_vectorized = codegen.vectorized_ok();
    report.stats.codegen_panic_free = codegen.panic_free();
    report.stats.codegen_alloc_free = codegen.alloc_free();
    report.stats.codegen_packed_fma = codegen.packed_fma_total();
    report.stats.codegen_packed_mul = codegen.packed_mul_total();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demangles_legacy_symbols_and_strips_hash() {
        assert_eq!(
            demangle("_ZN6neural7kernels4gemm8gemm_acc17h0123456789abcdefE"),
            "neural::kernels::gemm::gemm_acc"
        );
        assert_eq!(
            demangle("_ZN4core9panicking18panic_bounds_check17hdeadbeefdeadbeefE@PLT"),
            "core::panicking::panic_bounds_check"
        );
        // `$u7b$…$u7d$` closure braces unescape within a segment.
        assert_eq!(
            demangle("_ZN3std2rt10lang_start28_$u7b$$u7b$closure$u7d$$u7d$17haaaaaaaaaaaaaaaaE"),
            "std::rt::lang_start::_{{closure}}"
        );
    }

    #[test]
    fn demangles_v0_symbols_well_enough_for_classification() {
        let path = demangle("_RNvNtCsgEmfK2I1SDS_4core9panicking18panic_bounds_check");
        assert!(path.contains("core"), "{path}");
        assert!(path.contains("panic_bounds_check"), "{path}");
        let alloc = demangle("_RNvCsfLfy6EI15iL_7___rustc12___rust_alloc");
        assert!(alloc.contains("__rust_alloc") || alloc.contains("___rust_alloc"), "{alloc}");
    }

    #[test]
    fn unknown_symbols_pass_through() {
        assert_eq!(demangle("memcpy@PLT"), "memcpy");
        assert_eq!(demangle("expf"), "expf");
    }

    #[test]
    fn parses_functions_labels_and_instructions() {
        let asm = "\t.text\n\
                   my_func:\n\
                   \tpushq %rbp\n\
                   .LBB0_1:\n\
                   \tvfmadd213ps %ymm1, %ymm2, %ymm3\n\
                   \tjne .LBB0_1\n\
                   \tretq\n\
                   other_func:\n\
                   \tretq\n";
        let functions = parse_asm(asm);
        assert_eq!(functions.len(), 2);
        assert_eq!(functions[0].symbol, "my_func");
        assert_eq!(functions[0].lines.len(), 5);
        assert!(matches!(&functions[0].lines[1], AsmLine::Label(l) if l == ".LBB0_1"));
        assert_eq!(functions[1].lines.len(), 1);
    }

    #[test]
    fn analyze_counts_fma_and_detects_innermost_loop() {
        let asm = "f:\n\
                   .LBB0_outer:\n\
                   \taddq $1, %rax\n\
                   .LBB0_inner:\n\
                   \tvfmadd231ps %ymm0, %ymm1, %ymm2\n\
                   \tvfmadd231ps %ymm3, %ymm4, %ymm5\n\
                   \tjb .LBB0_inner\n\
                   \tvfmadd231ss %xmm0, %xmm1, %xmm2\n\
                   \tjne .LBB0_outer\n\
                   \tretq\n";
        let functions = parse_asm(asm);
        let audit = analyze(&functions[0]);
        assert_eq!(audit.packed_fma, 2);
        assert_eq!(audit.scalar_fma, 1);
        assert!(audit.loop_fma);
    }

    #[test]
    fn scalar_only_loop_does_not_count_as_vectorized() {
        let asm = "f:\n\
                   .LBB0_1:\n\
                   \tvfmadd231ss %xmm0, %xmm1, %xmm2\n\
                   \tjne .LBB0_1\n\
                   \tretq\n";
        let audit = analyze(&parse_asm(asm)[0]);
        assert_eq!(audit.packed_fma, 0);
        assert_eq!(audit.scalar_fma, 1);
        assert!(!audit.loop_fma);
    }

    #[test]
    fn classifies_call_families_across_manglings() {
        let asm = "f:\n\
                   \tcallq _ZN4core9panicking18panic_bounds_check17h1111111111111111E\n\
                   \tcallq _RNvCsfLfy6EI15iL_7___rustc12___rust_alloc\n\
                   \tcallq memcpy@PLT\n\
                   \tcallq expf@PLT\n\
                   \tretq\n";
        let audit = analyze(&parse_asm(asm)[0]);
        assert_eq!(audit.panic_calls.len(), 1);
        assert_eq!(audit.alloc_calls.len(), 1);
        assert_eq!(audit.extern_calls, vec!["memcpy".to_string(), "expf".to_string()]);
    }

    #[test]
    fn pattern_matching_is_exact_or_trailing_glob() {
        assert!(pattern_matches("a::b::c", "a::b::c"));
        assert!(!pattern_matches("a::b::c", "a::b::c::d"));
        assert!(pattern_matches("a::b::*", "a::b::c"));
        assert!(pattern_matches("a::b*", "a::b::c"));
        assert!(!pattern_matches("a::x::*", "a::b::c"));
    }
}
