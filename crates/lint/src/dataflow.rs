//! Interprocedural concurrency dataflow: guard-liveness tracking through
//! function bodies and one level across calls, powering the three v3
//! rules `blocking-under-lock`, `atomic-ordering` and `condvar-protocol`.
//!
//! The layer replays each function's [`LockEvent`] stream (the same
//! stream the lock graph consumes) against a *guard-liveness lattice*: a
//! stack of live `let`-bound guards keyed by brace depth, with `drop(g)`
//! killing a guard early and `Condvar::wait(g)` atomically releasing the
//! passed guard for the duration of the wait. Unbound (temporary) guards
//! die at the end of their own statement and are invisible here — same
//! approximation the lock graph makes, documented in DESIGN.md §14.
//!
//! Interprocedural reach is one level deep, mirroring the lock graph: a
//! per-function summary records every *direct* blocking site, and a call
//! to a summarized function while any guard is live inherits the callee's
//! blocking sites into the caller's report. Lock and atomic-field
//! identities are crate-qualified (`serve::state`), so same-named fields
//! in different crates never alias.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::LintConfig;
use crate::findings::{Finding, GraphStats, Severity};
use crate::graph::{crate_dir_of, qualify_lock, CallGraph};
use crate::parser::{AtomicOp, CallKind, CallSite, FnItem, LockEvent};
use crate::resolve::SymbolTable;
use crate::rules::LOCK_ORDER_CRATES;

/// One direct blocking operation inside a function body.
#[derive(Debug, Clone)]
struct BlockSite {
    /// What blocks, human-readable (`.join()`, `thread::sleep`, ...).
    what: String,
    /// 1-based source line.
    line: usize,
}

/// Per-function dataflow summary: the direct blocking sites, used for the
/// one-level interprocedural expansion.
struct FnSummary {
    direct_blocks: Vec<BlockSite>,
}

/// A live lock guard during replay.
#[derive(Debug, Clone)]
struct LiveGuard {
    /// The `let` binding holding the guard.
    binding: String,
    /// Crate-qualified lock identity (`serve::state`).
    lock: String,
    /// Acquisition line.
    line: usize,
    /// Brace depth at acquisition (guards die when their block closes).
    depth: usize,
}

/// One `notify_one`/`notify_all` site, checked against the condvar's
/// associated predicate mutex after the whole workspace is replayed.
struct NotifySite {
    /// Crate-qualified condvar identity.
    condvar: String,
    /// Crate-qualified locks held at the notify.
    held: BTreeSet<String>,
    /// Crate-qualified locks acquired earlier in the same body, including
    /// temporaries — the "provably follows the critical section" case.
    acquired_before: BTreeSet<String>,
    /// Reporting location.
    file: String,
    /// 1-based source line.
    line: usize,
    /// Owning function path.
    fn_path: String,
}

/// Classifies a call site as a known blocking primitive, returning the
/// human label. `wait`/`wait_timeout` *with* arguments are condvar waits,
/// recorded as [`LockEvent::CondvarWait`] and handled by the replay, so
/// only their zero-arg namesakes (`JoinHandle::join`, `Ticket::wait`)
/// classify here.
fn classify_blocking(call: &CallSite) -> Option<String> {
    match &call.kind {
        CallKind::Method { name, .. } => match name.as_str() {
            "join" | "wait" if call.no_args => Some(format!(".{name}()")),
            "recv" | "recv_timeout" => Some(format!(".{name}(..) channel receive")),
            "submit" | "submit_with_retry" => Some(format!(".{name}(..) request submission")),
            "read_to_string" | "read_to_end" | "sync_all" => {
                Some(format!(".{name}(..) file I/O"))
            }
            _ => None,
        },
        CallKind::Path(segments) => {
            let last = segments.last().map(String::as_str).unwrap_or("");
            if last == "sleep" {
                return Some("thread::sleep".to_string());
            }
            if segments.iter().any(|s| s == "fs") {
                return Some(format!("{} file I/O", segments.join("::")));
            }
            if segments.first().is_some_and(|s| s == "File")
                && matches!(last, "open" | "create")
            {
                return Some(format!("File::{last} file I/O"));
            }
            None
        }
    }
}

/// Builds the per-function summary of direct blocking sites: classified
/// blocking calls plus condvar waits (waiting inside the callee blocks
/// the caller just the same).
fn summarize(item: &FnItem) -> FnSummary {
    let mut direct_blocks = Vec::new();
    for event in &item.lock_events {
        match event {
            LockEvent::Call { index } => {
                if let Some(call) = item.calls.get(*index) {
                    if let Some(what) = classify_blocking(call) {
                        direct_blocks.push(BlockSite {
                            what,
                            line: call.line,
                        });
                    }
                }
            }
            LockEvent::CondvarWait { field, line, .. } => {
                direct_blocks.push(BlockSite {
                    what: format!("condvar `{field}` wait"),
                    line: *line,
                });
            }
            _ => {}
        }
    }
    FnSummary { direct_blocks }
}

/// Runs the three dataflow rules over the workspace. Only the
/// concurrency crates ([`LOCK_ORDER_CRATES`]) are in scope — everything
/// else has no locks, condvars or cross-thread atomics by construction.
pub fn dataflow_rules(
    table: &SymbolTable,
    graph: &CallGraph,
    config: &LintConfig,
    stats: &mut GraphStats,
    out: &mut Vec<Finding>,
) {
    let in_scope: Vec<bool> = table
        .items
        .iter()
        .map(|i| LOCK_ORDER_CRATES.contains(&crate_dir_of(&i.file)))
        .collect();
    let summaries: Vec<Option<FnSummary>> = table
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| in_scope[i].then(|| summarize(item)))
        .collect();

    // condvar → predicate mutex(es), learned from every wait site where
    // the passed guard resolves to a live lock guard.
    let mut cv_mutexes: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut notifies: Vec<NotifySite> = Vec::new();

    for (idx, item) in table.items.iter().enumerate() {
        if !in_scope[idx] {
            continue;
        }
        replay_fn(
            idx, item, table, graph, &summaries, stats, out, &mut cv_mutexes, &mut notifies,
        );
    }

    // condvar-protocol, notify side: a notify must hold the predicate's
    // mutex or provably follow its critical section in the same body.
    for site in &notifies {
        let Some(mutexes) = cv_mutexes.get(&site.condvar) else {
            // No wait site resolved a guard for this condvar — nothing to
            // check the notify against.
            continue;
        };
        let holds = mutexes.iter().any(|m| site.held.contains(m));
        let follows = mutexes.iter().any(|m| site.acquired_before.contains(m));
        if !holds && !follows {
            let mutex_list: Vec<&str> = mutexes.iter().map(String::as_str).collect();
            out.push(Finding {
                rule: "condvar-protocol".to_string(),
                severity: Severity::Error,
                path: site.file.clone(),
                line: site.line,
                message: format!(
                    "`{}` notifies `{}` without holding or previously acquiring its \
                     predicate mutex [{}] in this body — a waiter can miss the wakeup \
                     if the predicate changes between its check and its wait",
                    site.fn_path,
                    site.condvar,
                    mutex_list.join(", "),
                ),
            });
        }
    }

    atomic_ordering(table, config, &in_scope, stats, out);
}

/// Replays one function's event stream against the guard-liveness
/// lattice, emitting `blocking-under-lock` and wait-side
/// `condvar-protocol` findings and recording condvar associations and
/// notify sites for the workspace-level notify check.
#[allow(clippy::too_many_arguments)]
fn replay_fn(
    idx: usize,
    item: &FnItem,
    table: &SymbolTable,
    graph: &CallGraph,
    summaries: &[Option<FnSummary>],
    stats: &mut GraphStats,
    out: &mut Vec<Finding>,
    cv_mutexes: &mut BTreeMap<String, BTreeSet<String>>,
    notifies: &mut Vec<NotifySite>,
) {
    let crate_prefix = crate_dir_of(&item.file);
    let mut held: Vec<LiveGuard> = Vec::new();
    let mut acquired_before: BTreeSet<String> = BTreeSet::new();
    let mut depth = 0usize;
    for event in &item.lock_events {
        match event {
            LockEvent::Open => depth += 1,
            LockEvent::Close => {
                depth = depth.saturating_sub(1);
                held.retain(|g| g.depth <= depth);
            }
            LockEvent::DropBinding { name } => {
                held.retain(|g| g.binding != *name);
            }
            LockEvent::Acquire { field, binding, line } => {
                let lock = qualify_lock(crate_prefix, field);
                acquired_before.insert(lock.clone());
                if let Some(binding) = binding {
                    // Re-binding (`state = ...lock()`) replaces the guard.
                    held.retain(|g| g.binding != *binding);
                    held.push(LiveGuard {
                        binding: binding.clone(),
                        lock,
                        line: *line,
                        depth,
                    });
                }
            }
            LockEvent::CondvarWait { field, guard, timeout, in_loop, line } => {
                let condvar = qualify_lock(crate_prefix, field);
                stats.condvar_waits += 1;
                if !held.is_empty() {
                    stats.guard_live_sites += 1;
                }
                // Associate the condvar with the mutex of the passed
                // guard (the predicate's mutex).
                let released: Option<&LiveGuard> = guard
                    .as_ref()
                    .and_then(|g| held.iter().find(|h| &h.binding == g));
                if let Some(g) = released {
                    cv_mutexes
                        .entry(condvar.clone())
                        .or_default()
                        .insert(g.lock.clone());
                }
                // Wait must re-check its predicate in a loop (spurious
                // wakeups); `wait_timeout` used as a plain timed sleep in
                // a loop is the same protocol.
                if !in_loop {
                    let op = if *timeout { "wait_timeout" } else { "wait" };
                    out.push(Finding {
                        rule: "condvar-protocol".to_string(),
                        severity: Severity::Error,
                        path: item.file.clone(),
                        line: *line,
                        message: format!(
                            "`{}` calls `{condvar}.{op}(..)` outside any loop — condvar \
                             waits wake spuriously, so the predicate must be re-checked \
                             in a `while`/`loop`",
                            item.path(),
                        ),
                    });
                }
                // The wait atomically releases the passed guard; blocking
                // is only a finding for every *other* live guard.
                for g in held
                    .iter()
                    .filter(|h| guard.as_ref() != Some(&h.binding))
                {
                    out.push(Finding {
                        rule: "blocking-under-lock".to_string(),
                        severity: Severity::Error,
                        path: item.file.clone(),
                        line: *line,
                        message: format!(
                            "`{}` waits on condvar `{condvar}` while guard `{}` on \
                             `{}` (acquired line {}) is still live — the wait only \
                             releases its own mutex, so every other waiter of `{}` \
                             stalls for the full wait",
                            item.path(),
                            g.binding,
                            g.lock,
                            g.line,
                            g.lock,
                        ),
                    });
                }
            }
            LockEvent::Notify { field, line } => {
                notifies.push(NotifySite {
                    condvar: qualify_lock(crate_prefix, field),
                    held: held.iter().map(|g| g.lock.clone()).collect(),
                    acquired_before: acquired_before.clone(),
                    file: item.file.clone(),
                    line: *line,
                    fn_path: item.path(),
                });
            }
            LockEvent::Call { index } => {
                if held.is_empty() {
                    continue;
                }
                stats.guard_live_sites += 1;
                let Some(call) = item.calls.get(*index) else { continue };
                // Direct blocking primitive under a live guard.
                if let Some(what) = classify_blocking(call) {
                    for g in &held {
                        out.push(Finding {
                            rule: "blocking-under-lock".to_string(),
                            severity: Severity::Error,
                            path: item.file.clone(),
                            line: call.line,
                            message: format!(
                                "`{}` executes blocking `{what}` while guard `{}` on \
                                 `{}` (acquired line {}) is live",
                                item.path(),
                                g.binding,
                                g.lock,
                                g.line,
                            ),
                        });
                    }
                    continue;
                }
                // One level across calls: a resolved callee whose summary
                // blocks directly inherits into this holding context.
                let Some(edge) = graph.edges[idx].iter().find(|e| e.call_index == *index)
                else {
                    continue;
                };
                let Some(Some(summary)) = summaries.get(edge.target) else { continue };
                let Some(block) = summary.direct_blocks.first() else { continue };
                let callee = &table.items[edge.target];
                let extra = if summary.direct_blocks.len() > 1 {
                    format!(" (+{} more blocking site(s))", summary.direct_blocks.len() - 1)
                } else {
                    String::new()
                };
                for g in &held {
                    out.push(Finding {
                        rule: "blocking-under-lock".to_string(),
                        severity: Severity::Error,
                        path: item.file.clone(),
                        line: call.line,
                        message: format!(
                            "`{}` calls `{}` while guard `{}` on `{}` (acquired line \
                             {}) is live, and the callee blocks: {} at {}:{}{} — chain \
                             {} → {}",
                            item.path(),
                            callee.path(),
                            g.binding,
                            g.lock,
                            g.line,
                            block.what,
                            callee.file,
                            block.line,
                            extra,
                            item.path(),
                            callee.path(),
                        ),
                    });
                }
            }
        }
    }
}

/// `atomic-ordering`: every atomic site in the concurrency crates is
/// classified by crate-qualified field; each field needs a declared
/// `[[atomics]]` contract in `lint.toml`, each site must stay inside its
/// contract's allowed orderings, and Relaxed halves of publication
/// store/load pairs are flagged regardless of contract.
fn atomic_ordering(
    table: &SymbolTable,
    config: &LintConfig,
    in_scope: &[bool],
    stats: &mut GraphStats,
    out: &mut Vec<Finding>,
) {
    /// Every observed site of one atomic field.
    #[derive(Default)]
    struct FieldSites {
        /// (op, ordering, file, line) per recorded ordering.
        sites: Vec<(AtomicOp, String, String, usize)>,
    }
    let mut fields: BTreeMap<String, FieldSites> = BTreeMap::new();
    for (idx, item) in table.items.iter().enumerate() {
        if !in_scope[idx] {
            continue;
        }
        let crate_prefix = crate_dir_of(&item.file);
        for site in &item.atomics {
            stats.atomic_sites += 1;
            let field = qualify_lock(crate_prefix, &site.field);
            let entry = fields.entry(field).or_default();
            for ordering in &site.orderings {
                entry
                    .sites
                    .push((site.op, ordering.clone(), item.file.clone(), site.line));
            }
        }
    }

    for (field, data) in &fields {
        let contract = config.atomics.iter().find(|c| &c.field == field);
        match contract {
            None => {
                // One finding per (field, file), anchored at the first
                // site in that file, so baselining stays per-file.
                let mut by_file: BTreeMap<&str, (usize, usize, BTreeSet<&str>)> = BTreeMap::new();
                for (_, ordering, file, line) in &data.sites {
                    let e = by_file.entry(file).or_insert((usize::MAX, 0, BTreeSet::new()));
                    e.0 = e.0.min(*line);
                    e.1 += 1;
                    e.2.insert(ordering.as_str());
                }
                for (file, (first_line, count, orderings)) in by_file {
                    let list: Vec<&str> = orderings.into_iter().collect();
                    out.push(Finding {
                        rule: "atomic-ordering".to_string(),
                        severity: Severity::Error,
                        path: file.to_string(),
                        line: first_line,
                        message: format!(
                            "atomic field `{field}` has {count} op site(s) here using \
                             [{}] but no [[atomics]] contract in lint.toml — declare \
                             the allowed orderings with a reason",
                            list.join(", "),
                        ),
                    });
                }
            }
            Some(contract) => {
                for (op, ordering, file, line) in &data.sites {
                    if !contract.allowed.iter().any(|a| a == ordering) {
                        out.push(Finding {
                            rule: "atomic-ordering".to_string(),
                            severity: Severity::Error,
                            path: file.clone(),
                            line: *line,
                            message: format!(
                                "{} of `{field}` uses Ordering::{ordering} but the \
                                 [[atomics]] contract allows only [{}]",
                                op.label(),
                                contract.allowed.join(", "),
                            ),
                        });
                    }
                }
            }
        }

        // Publication-pair mismatch, contract or not: a Relaxed store
        // observed by an Acquire/SeqCst load (or a Relaxed load of a
        // Release/SeqCst store) synchronizes nothing. RMW sites are
        // excluded — their pairing is declared via the contract.
        let store_orderings: BTreeSet<&str> = data
            .sites
            .iter()
            .filter(|(op, ..)| *op == AtomicOp::Store)
            .map(|(_, o, ..)| o.as_str())
            .collect();
        let load_orderings: BTreeSet<&str> = data
            .sites
            .iter()
            .filter(|(op, ..)| *op == AtomicOp::Load)
            .map(|(_, o, ..)| o.as_str())
            .collect();
        let acquiring_load = load_orderings.contains("Acquire") || load_orderings.contains("SeqCst");
        let releasing_store =
            store_orderings.contains("Release") || store_orderings.contains("SeqCst");
        for (op, ordering, file, line) in &data.sites {
            if ordering != "Relaxed" {
                continue;
            }
            let (mismatch, pair) = match op {
                AtomicOp::Store if acquiring_load => (true, "Acquire/SeqCst load"),
                AtomicOp::Load if releasing_store => (true, "Release/SeqCst store"),
                _ => (false, ""),
            };
            if mismatch {
                out.push(Finding {
                    rule: "atomic-ordering".to_string(),
                    severity: Severity::Error,
                    path: file.clone(),
                    line: *line,
                    message: format!(
                        "Relaxed {} of `{field}` is paired with a {pair} elsewhere — \
                         the Relaxed half synchronizes nothing, so the publication \
                         ordering is an illusion",
                        op.label(),
                    ),
                });
            }
        }
    }
}
