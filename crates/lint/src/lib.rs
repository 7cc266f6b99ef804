//! spectro-lint: workspace static analysis for project invariants.
//!
//! The paper's provenance-tracked synthetic datasets are only trustworthy
//! if the simulators and trainers are bit-deterministic, and the serving
//! and fault-tolerance layers only keep their promises if library code
//! never panics and lock acquisition stays ordered. Clippy cannot see
//! those project-specific invariants, so this crate implements them as a
//! self-contained lint pass (DESIGN.md §9 and §11): a lightweight Rust
//! lexer ([`lexer`]), an item parser ([`parser`]) that extracts
//! `fn`/`impl`/`mod`/`use` items with per-body call, panic, allocation
//! and lock events, a workspace symbol table with best-effort call
//! resolution ([`resolve`]), and two rule layers — per-file lexical rules
//! ([`rules`]) and whole-workspace graph rules ([`graph`]) — driven by
//! the engine ([`engine`]) with findings in human and JSON output.
//!
//! The lexical rules:
//!
//! * `no-wallclock-nondeterminism` — no wall-clock reads or unseeded RNGs
//!   in `ms-sim`, `nmr-sim`, `neural`, `chemometrics` and `obs`.
//! * `no-float-eq` — no `==`/`!=` against float literals outside tests.
//! * `forbid-unsafe-coverage` — every crate root carries
//!   `#![forbid(unsafe_code)]`.
//!
//! The graph rules (interprocedural, over the resolved call graph):
//!
//! * `panic-reachability` — the one panic rule: a BFS rooted at every
//!   library fn of the panic-free crates (plain-`pub` fns first) flags
//!   each reachable `panic!`/`unwrap`/`expect` site, reporting the full
//!   root→panic call chain.
//! * `lock-graph` — builds the whole-workspace lock acquisition graph
//!   (locks held while another is taken, including one level across
//!   function calls), flags declared-order inversions, re-acquisitions
//!   and cycles, and exports GraphViz DOT.
//! * `alloc-in-hot-path` — flags allocation-family calls inside functions
//!   matching the `[alloc-hot-path]` prefixes in `lint.toml`.
//!
//! The dataflow rules (guard-liveness through bodies, one level across
//! calls — [`dataflow`], DESIGN.md §14):
//!
//! * `blocking-under-lock` — blocking primitives (condvar waits, `join`,
//!   channel `recv`, `thread::sleep`, file I/O, request submission)
//!   executed while any lock guard is live, with the guard's acquisition
//!   site and the caller→callee chain.
//! * `atomic-ordering` — every atomic site classified by crate-qualified
//!   field against a mandatory `[[atomics]]` contract in `lint.toml`;
//!   Relaxed halves of publication store/load pairs are flagged.
//! * `condvar-protocol` — waits not re-checked in a loop, and notifies
//!   that neither hold nor provably follow the predicate's mutex.
//!
//! The codegen audit layer ([`codegen`], `--codegen`, DESIGN.md §16)
//! checks a different artifact entirely: the release-mode assembly the
//! compiler actually emits for the hot kernels. It drives
//! `cargo rustc --emit asm` on x86-64 (other hosts exit with an error),
//! demangles and maps the symbols declared in `lint.toml`'s `[codegen]`
//! section, and verifies per function:
//!
//! * `kernel-vectorized` — enough packed vector FMAs or multiplies, with
//!   at least one in an innermost loop (the hot loop itself vectorized).
//! * `kernel-no-panic` — zero panic-family calls in the emitted body.
//! * `kernel-no-alloc` — zero allocator-family calls.
//! * `kernel-no-extern-call` — no forbidden libm externs in the
//!   `exp_fast`-inlined kernels.
//! * `codegen-symbol-coverage` — every configured pattern still matches
//!   an emitted symbol (a vanished `#[inline(never)]` anchor fails).
//!
//! Findings export as human text, JSON, or SARIF 2.1.0 ([`sarif`]) for
//! inline PR annotation.
//!
//! Pre-existing findings are burned down deliberately through the
//! checked-in baseline (`lint.toml`): every suppression names a rule, a
//! path and a reason. `--deny` (the CI mode) fails on any non-baselined
//! finding **and** on any stale suppression, so the baseline can only
//! shrink; stale entries carry a nearest-surviving-line hint for
//! re-pinning drifted line suppressions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod config;
pub mod dataflow;
pub mod engine;
pub mod findings;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod sarif;

pub use codegen::CodegenReport;
pub use config::{AtomicContract, CodegenConfig, CodegenSuppression, LintConfig, Suppression};
pub use engine::{analyze_sources, apply_baseline, lint_source, run, run_full, Analysis};
pub use findings::{Finding, GraphStats, Report, Severity, StaleSuppression};
