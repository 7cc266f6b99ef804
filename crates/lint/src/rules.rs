//! The per-file (lexical) spectro-lint rules, implemented over the token
//! stream.
//!
//! Every rule works on [`FileInput`]: the lexed tokens of one `.rs` file
//! plus enough context (crate directory name, crate-root flag, test mask)
//! to scope itself. Rules are deliberately lexical — no type information —
//! so each one documents the heuristic it actually implements.
//!
//! The graph-based rules (`panic-reachability`, `lock-graph`,
//! `alloc-in-hot-path`) live in [`crate::graph`]; they run over the whole
//! workspace at once rather than file-by-file. Panic-freedom is one of
//! them: `panic-reachability` roots its search at every library fn of
//! the panic-free crates, so it flags each panic site in them along with
//! the call chain that reaches it.

use crate::findings::{Finding, Severity};
use crate::lexer::{Token, TokenKind};

/// Crates whose non-test library code must be panic-free
/// (`panic-reachability`): the serving path, the model runtime,
/// persistence, the orchestration core, the observability layer (which
/// instruments all of them and must never take a hot path down), the
/// chemometrics/chem analysis stack the paper's pipelines call from
/// batch jobs, and the closed monitoring loop (which runs unattended and
/// must degrade to accounted errors, never aborts).
pub const PANIC_FREE_CRATES: &[&str] = &[
    "serve",
    "neural",
    "datastore",
    "core",
    "obs",
    "chemometrics",
    "chem",
    "monitor",
];

/// Crates that must stay bit-deterministic (`no-wallclock-nondeterminism`):
/// the synthetic-spectra simulators, everything that trains or augments
/// from seeded RNG streams, and `obs` — whose `Clock` trait is the one
/// sanctioned time source (the `MonotonicClock` impl carries a baselined
/// suppression; everything else must take a `Clock`).
pub const DETERMINISTIC_CRATES: &[&str] = &["ms-sim", "nmr-sim", "neural", "chemometrics", "obs"];

/// The crates whose lock acquisitions the `lock-graph` rule checks.
/// `monitor` holds no locks of its own today but drives `serve`'s
/// swap/drain paths, so its acquisitions are kept in scope.
pub const LOCK_ORDER_CRATES: &[&str] = &["serve", "obs", "monitor"];

/// One file prepared for rule matching.
pub struct FileInput<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    /// Crate directory name under `crates/` (e.g. `serve`, `ms-sim`).
    pub crate_name: &'a str,
    /// True for `src/lib.rs`, `src/main.rs` and `src/bin/*.rs`.
    pub is_crate_root: bool,
    /// True for the in-workspace dependency stand-ins under
    /// `crates/compat/` (exempt from style rules, still unsafe-checked).
    pub is_compat: bool,
    /// Lexed tokens.
    pub tokens: &'a [Token],
    /// Parallel to `tokens`: true inside `#[cfg(test)]` / `#[test]` code.
    pub test_mask: &'a [bool],
}

impl FileInput<'_> {
    fn finding(&self, rule: &str, severity: Severity, line: usize, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            severity,
            path: self.path.to_string(),
            line,
            message,
        }
    }
}

/// Runs every lexical rule over one file.
pub fn check_file(file: &FileInput<'_>, out: &mut Vec<Finding>) {
    no_wallclock_nondeterminism(file, out);
    no_float_eq(file, out);
    forbid_unsafe_coverage(file, out);
}

/// `no-wallclock-nondeterminism`: forbids wall-clock reads and unseeded
/// RNG construction in the deterministic crates — `SystemTime::now`,
/// `Instant::now`, `thread_rng`, `from_entropy`, `OsRng` and
/// `rand::random` all make synthetic-data generation unrepeatable.
fn no_wallclock_nondeterminism(file: &FileInput<'_>, out: &mut Vec<Finding>) {
    if !DETERMINISTIC_CRATES.contains(&file.crate_name) || file.is_compat {
        return;
    }
    let tokens = file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if file.test_mask[i] || token.kind != TokenKind::Ident {
            continue;
        }
        let path_call_to = |target: &str| {
            tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 3).is_some_and(|t| t.is_ident(target))
        };
        let message = match token.text.as_str() {
            "SystemTime" | "Instant" if path_call_to("now") => Some(format!(
                "{}::now() reads the wall clock; thread timestamps through the caller \
                 so simulated data stays bit-reproducible",
                token.text
            )),
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => Some(format!(
                "{} draws OS entropy; construct RNGs from an explicit seed \
                 (e.g. ChaCha20Rng::seed_from_u64)",
                token.text
            )),
            "rand" if path_call_to("random") => Some(
                "rand::random() uses the thread RNG; derive values from a seeded stream".into(),
            ),
            _ => None,
        };
        if let Some(message) = message {
            out.push(file.finding(
                "no-wallclock-nondeterminism",
                Severity::Error,
                token.line,
                message,
            ));
        }
    }
}

/// `no-float-eq`: flags `==` / `!=` comparisons where either operand is a
/// float literal, outside tests. Lexical heuristic: without type inference
/// the rule cannot see `a == b` between two `f32` variables, but the
/// literal form covers the overwhelming majority of real float-equality
/// sites (`x == 0.0`, `rate != 1.0`, ...).
fn no_float_eq(file: &FileInput<'_>, out: &mut Vec<Finding>) {
    if file.is_compat || file.crate_name == "bench" {
        return;
    }
    let tokens = file.tokens;
    for i in 0..tokens.len().saturating_sub(1) {
        if file.test_mask[i] {
            continue;
        }
        let (op, op_len) = if tokens[i].is_punct('=') && tokens[i + 1].is_punct('=') {
            // Reject `<=`, `>=`, `!=`'s tail, `==`'s tail and `=>`.
            if i > 0
                && (tokens[i - 1].is_punct('=')
                    || tokens[i - 1].is_punct('!')
                    || tokens[i - 1].is_punct('<')
                    || tokens[i - 1].is_punct('>'))
            {
                continue;
            }
            ("==", 2)
        } else if tokens[i].is_punct('!') && tokens[i + 1].is_punct('=') {
            ("!=", 2)
        } else {
            continue;
        };
        let before = i.checked_sub(1).map(|j| &tokens[j]);
        let mut after = tokens.get(i + op_len);
        // Allow one unary minus: `x == -0.5`.
        if after.is_some_and(|t| t.is_punct('-')) {
            after = tokens.get(i + op_len + 1);
        }
        let float_operand = before.is_some_and(|t| t.kind == TokenKind::Float)
            || after.is_some_and(|t| t.kind == TokenKind::Float);
        if float_operand {
            out.push(file.finding(
                "no-float-eq",
                Severity::Warning,
                tokens[i].line,
                format!(
                    "`{op}` against a float literal; exact float equality is rarely meaningful — \
                     compare with a tolerance or justify via the baseline"
                ),
            ));
        }
    }
}

/// `forbid-unsafe-coverage`: every crate root (`src/lib.rs`, `src/main.rs`,
/// `src/bin/*.rs`) must carry `#![forbid(unsafe_code)]` so the guarantee
/// holds workspace-wide rather than crate-by-crate.
fn forbid_unsafe_coverage(file: &FileInput<'_>, out: &mut Vec<Finding>) {
    if !file.is_crate_root {
        return;
    }
    let tokens = file.tokens;
    let has_attr = tokens.windows(6).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
    });
    if !has_attr {
        out.push(file.finding(
            "forbid-unsafe-coverage",
            Severity::Error,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

