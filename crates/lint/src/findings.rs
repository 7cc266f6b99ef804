//! Finding and report types, serializable for `--json` output.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How severe a finding is. Severity is informational — `--deny` fails on
/// any non-baselined finding regardless of severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Should be fixed, but commonly needs a deliberate judgement call
    /// (e.g. an exact-zero float guard).
    Warning,
    /// Violates a project invariant (panic in serving code, unseeded RNG
    /// in a deterministic simulator, lock-order inversion).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Rule identifier (e.g. `panic-reachability`).
    pub rule: String,
    /// Finding severity.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.path, self.line, self.severity, self.rule, self.message
        )
    }
}

/// Size and resolution statistics for the workspace symbol graph,
/// surfaced via `--stats` (and always embedded in the JSON report) so
/// resolver regressions show up in CI logs as a shrinking resolved-call
/// ratio.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Parsed (non-test) function items in the symbol table.
    pub items: usize,
    /// Call sites resolved to a workspace item (graph edges).
    pub calls_resolved: usize,
    /// Call sites classified as std/common-method external.
    pub calls_external: usize,
    /// Call sites the best-effort resolver gave up on.
    pub calls_unresolved: usize,
    /// Roots that seeded `panic-reachability`: every plain-`pub` library
    /// fn of the panic-free crates, plus each other library fn there that
    /// no `pub` fn reaches.
    pub entry_points: usize,
    /// Reachable functions containing at least one panic source.
    pub reachable_panic_fns: usize,
    /// Distinct lock names in the lock graph.
    pub lock_nodes: usize,
    /// Distinct held→acquired edges in the lock graph.
    pub lock_edges: usize,
    /// Functions treated as hot by `alloc-in-hot-path`.
    pub hot_fns: usize,
    /// Call/wait sites evaluated by the dataflow layer with at least one
    /// live lock guard.
    pub guard_live_sites: usize,
    /// Atomic operation sites classified by `atomic-ordering`.
    pub atomic_sites: usize,
    /// Condvar wait sites seen by `condvar-protocol`.
    pub condvar_waits: usize,
    /// Kernel symbols audited at the assembly level (`--codegen`); 0
    /// when the codegen audit did not run.
    pub codegen_audited: usize,
    /// Audited symbols proven vectorized (packed FMA + multiply count and
    /// innermost-loop requirements both held).
    pub codegen_vectorized: usize,
    /// Audited symbols emitting zero panic-family calls.
    pub codegen_panic_free: usize,
    /// Audited symbols emitting zero allocator-family calls.
    pub codegen_alloc_free: usize,
    /// Total packed vector FMA instructions across audited symbols.
    pub codegen_packed_fma: usize,
    /// Total packed vector multiplies across audited symbols.
    pub codegen_packed_mul: usize,
}

impl GraphStats {
    /// Resolved-call ratio in percent (rounded down), over workspace-
    /// resolvable calls only (external std calls are excluded from the
    /// denominator — they are outside the graph by design).
    pub fn resolved_pct(&self) -> usize {
        let denominator = self.calls_resolved + self.calls_unresolved;
        if denominator == 0 {
            return 100;
        }
        self.calls_resolved * 100 / denominator
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "symbol graph: {} fn item(s); calls {} resolved / {} external / {} unresolved \
             ({}% resolved of workspace-resolvable); {} entry point(s), {} reachable \
             panicking fn(s); lock graph {} node(s) / {} edge(s); {} hot fn(s); \
             dataflow {} guard-live site(s), {} atomic site(s), {} condvar wait(s)",
            self.items,
            self.calls_resolved,
            self.calls_external,
            self.calls_unresolved,
            self.resolved_pct(),
            self.entry_points,
            self.reachable_panic_fns,
            self.lock_nodes,
            self.lock_edges,
            self.hot_fns,
            self.guard_live_sites,
            self.atomic_sites,
            self.condvar_waits,
        )?;
        if self.codegen_audited > 0 {
            write!(
                f,
                "; codegen {} audited symbol(s): {} proven vectorized, {} panic-call-free, \
                 {} alloc-call-free, {} packed vector FMA(s), {} packed multiply(s)",
                self.codegen_audited,
                self.codegen_vectorized,
                self.codegen_panic_free,
                self.codegen_alloc_free,
                self.codegen_packed_fma,
                self.codegen_packed_mul,
            )?;
        }
        Ok(())
    }
}

/// The full result of a lint run, serializable for `--json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Active (non-baselined) findings, sorted by path, line, rule.
    pub findings: Vec<Finding>,
    /// Findings matched and silenced by `lint.toml` suppressions.
    pub suppressed: usize,
    /// Suppressions in `lint.toml` that matched nothing — stale entries
    /// that must be deleted (`--deny` fails on them, so the baseline can
    /// only shrink).
    pub stale_suppressions: Vec<StaleSuppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Symbol-graph size and resolution statistics.
    pub stats: GraphStats,
}

/// A `lint.toml` suppression that matched no finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaleSuppression {
    /// The suppressed rule.
    pub rule: String,
    /// The suppressed path.
    pub path: String,
    /// The suppressed line, or 0 for a whole-file suppression.
    pub line: usize,
    /// Nearest line in the same file where the same rule still fires
    /// (pre-baseline), or 0 when the rule no longer fires in the file at
    /// all — the hint for re-pinning a drifted line suppression.
    pub nearest_line: usize,
}

impl fmt::Display for StaleSuppression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(
                f,
                "stale suppression: [{}] at {} matches nothing",
                self.rule, self.path
            )?;
        } else {
            write!(
                f,
                "stale suppression: [{}] at {}:{} matches nothing",
                self.rule, self.path, self.line
            )?;
        }
        if self.nearest_line != 0 {
            write!(
                f,
                " (nearest surviving [{}] finding in this file is line {})",
                self.rule, self.nearest_line
            )?;
        }
        Ok(())
    }
}
