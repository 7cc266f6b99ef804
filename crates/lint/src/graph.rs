//! The workspace call graph and the three graph-based rules:
//! `panic-reachability`, `lock-graph` and `alloc-in-hot-path`.
//!
//! Everything here runs on the flattened [`SymbolTable`] built from the
//! per-file parses — the rules are interprocedural but still best-effort:
//! an unresolved call is an absent edge, so the guarantees are "no false
//! chain", not "no missed chain" (DESIGN.md §11 spells out the limits).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::config::LintConfig;
use crate::findings::{Finding, GraphStats, Severity};
use crate::parser::{FnItem, LockEvent, ParsedFile};
use crate::resolve::{Resolution, SymbolTable};
use crate::rules::{LOCK_ORDER_CRATES, PANIC_FREE_CRATES};

/// One resolved call edge in the graph.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// Callee item index.
    pub target: usize,
    /// Source line of the call site.
    pub line: usize,
    /// Index into the caller's `calls` list.
    pub call_index: usize,
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// Outgoing edges per item (parallel to `SymbolTable::items`).
    pub edges: Vec<Vec<CallEdge>>,
    /// Resolution counters for `--stats`.
    pub resolved: usize,
    /// Calls classified as std/common-method external.
    pub external: usize,
    /// Calls the resolver gave up on.
    pub unresolved: usize,
}

impl CallGraph {
    /// Resolves every call site of every item into edges.
    pub fn build(table: &SymbolTable, files: &[ParsedFile]) -> Self {
        let mut edges = vec![Vec::new(); table.items.len()];
        let (mut resolved, mut external, mut unresolved) = (0usize, 0usize, 0usize);
        for (idx, item) in table.items.iter().enumerate() {
            let file = &files[table.item_file[idx]];
            for (call_index, call) in item.calls.iter().enumerate() {
                match table.resolve(item, file, &call.kind) {
                    Resolution::Item(target) => {
                        resolved += 1;
                        edges[idx].push(CallEdge {
                            target,
                            line: call.line,
                            call_index,
                        });
                    }
                    Resolution::External => external += 1,
                    Resolution::Unresolved => unresolved += 1,
                }
            }
        }
        Self {
            edges,
            resolved,
            external,
            unresolved,
        }
    }
}

/// Root predicate for `panic-reachability`: a non-test function in a
/// panic-free crate's library code (bin targets and `main.rs` are
/// process entry points, not library code).
fn is_panic_root(item: &FnItem) -> bool {
    if item.in_test || item.file.contains("/src/bin/") || item.file.ends_with("/src/main.rs") {
        return false;
    }
    PANIC_FREE_CRATES.contains(&crate_dir_of(&item.file))
}

/// Crate directory name (`ms-sim` style) for a workspace-relative path.
pub(crate) fn crate_dir_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some("compat")) => parts.next().unwrap_or(""),
        (Some("crates"), Some(name)) => name,
        _ => "",
    }
}

/// `panic-reachability`: BFS from every library function of the
/// panic-free crates; each reachable panic site yields one finding
/// carrying the full root→panic call chain. Plain-`pub` functions seed
/// the search first, so a site the public API reaches is reported with
/// its chain from that API; the remaining roots (trait-impl methods,
/// restricted-visibility and private functions nothing calls) then pick
/// up whatever the public API does not reach.
pub fn panic_reachability(
    table: &SymbolTable,
    graph: &CallGraph,
    stats: &mut GraphStats,
    out: &mut Vec<Finding>,
) {
    let mut parent: Vec<Option<usize>> = vec![None; table.items.len()];
    let mut visited = vec![false; table.items.len()];
    for public_pass in [true, false] {
        let mut queue = VecDeque::new();
        for (idx, item) in table.items.iter().enumerate() {
            if !visited[idx] && item.is_pub == public_pass && is_panic_root(item) {
                visited[idx] = true;
                queue.push_back(idx);
                stats.entry_points += 1;
            }
        }
        while let Some(node) = queue.pop_front() {
            for edge in &graph.edges[node] {
                if !visited[edge.target] {
                    visited[edge.target] = true;
                    parent[edge.target] = Some(node);
                    queue.push_back(edge.target);
                }
            }
        }
    }
    for (idx, item) in table.items.iter().enumerate() {
        if !visited[idx] || item.panics.is_empty() {
            continue;
        }
        stats.reachable_panic_fns += 1;
        // Reconstruct the root → ... → item chain.
        let mut chain = vec![idx];
        let mut cursor = idx;
        while let Some(p) = parent[cursor] {
            chain.push(p);
            cursor = p;
        }
        chain.reverse();
        let root = &table.items[chain[0]];
        let chain_text: Vec<String> = chain.iter().map(|&i| table.items[i].path()).collect();
        let visibility = if root.is_pub { "public entry point" } else { "library fn" };
        for site in &item.panics {
            out.push(Finding {
                rule: "panic-reachability".to_string(),
                severity: Severity::Error,
                path: item.file.clone(),
                line: site.line,
                message: format!(
                    "{} at line {} is reachable from {visibility} `{}` via {}",
                    site.kind.label(),
                    site.line,
                    root.path(),
                    chain_text.join(" → "),
                ),
            });
        }
    }
}

/// Where a lock edge was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdgeSite {
    /// File of the acquisition that closed the edge.
    pub file: String,
    /// Line of that acquisition.
    pub line: usize,
    /// `Some((caller, callee))` when the edge crosses a function call
    /// (one level deep), `None` for an intra-function nesting.
    pub via: Option<(String, String)>,
}

/// The whole-workspace lock acquisition graph: an edge A→B means "B was
/// acquired while A was held" somewhere in the lock-ordered crates.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Edge → first site that produced it (deterministic: files are
    /// walked in sorted order).
    pub edges: BTreeMap<(String, String), LockEdgeSite>,
    /// Every lock name that participated in any acquisition.
    pub nodes: BTreeSet<String>,
}

impl LockGraph {
    /// Renders the graph as GraphViz DOT, cycle edges in red.
    pub fn to_dot(&self, cycle_edges: &BTreeSet<(String, String)>) -> String {
        let mut dot = String::from("digraph lock_graph {\n    rankdir=LR;\n");
        for node in &self.nodes {
            dot.push_str(&format!("    \"{node}\";\n"));
        }
        for ((from, to), site) in &self.edges {
            let label = match &site.via {
                Some((caller, callee)) => {
                    format!("{}:{} via {} → {}", site.file, site.line, caller, callee)
                }
                None => format!("{}:{}", site.file, site.line),
            };
            let color = if cycle_edges.contains(&(from.clone(), to.clone())) {
                ", color=red, fontcolor=red"
            } else {
                ""
            };
            dot.push_str(&format!(
                "    \"{from}\" -> \"{to}\" [label=\"{label}\"{color}];\n"
            ));
        }
        dot.push_str("}\n");
        dot
    }
}

/// Per-function lock facts extracted by replaying [`LockEvent`]s.
struct FnLockFacts {
    /// Locks directly acquired anywhere in the function body.
    acquires: Vec<(String, usize)>,
    /// Direct nesting edges observed inside the function.
    edges: Vec<(String, String, usize)>,
    /// Re-acquisitions of a lock already held (self-deadlock).
    reacquires: Vec<(String, usize)>,
    /// Calls made while at least one lock was held: (call index, held).
    calls_holding: Vec<(usize, Vec<String>)>,
}

/// Crate-qualified lock identity: `serve::state`, not bare `state`, so
/// same-named fields in different crates never alias in the lock graph.
pub(crate) fn qualify_lock(crate_dir: &str, field: &str) -> String {
    if crate_dir.is_empty() {
        field.to_string()
    } else {
        format!("{crate_dir}::{field}")
    }
}

/// Replays one function's lock events against the configured
/// (crate-qualified) lock names.
fn replay_lock_events(item: &FnItem, lock_names: &[String], crate_prefix: &str) -> FnLockFacts {
    struct Held {
        binding: Option<String>,
        lock: String,
        depth: usize,
    }
    let mut facts = FnLockFacts {
        acquires: Vec::new(),
        edges: Vec::new(),
        reacquires: Vec::new(),
        calls_holding: Vec::new(),
    };
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    for event in &item.lock_events {
        match event {
            LockEvent::Open => depth += 1,
            LockEvent::Close => {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
            }
            LockEvent::DropBinding { name } => {
                held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
            }
            LockEvent::Acquire { field, binding, line } => {
                let lock = qualify_lock(crate_prefix, field);
                if !lock_names.contains(&lock) {
                    continue;
                }
                facts.acquires.push((lock.clone(), *line));
                for h in &held {
                    if h.lock == lock {
                        facts.reacquires.push((lock.clone(), *line));
                    } else {
                        facts.edges.push((h.lock.clone(), lock.clone(), *line));
                    }
                }
                // Only bound guards outlive their own statement.
                if binding.is_some() {
                    held.push(Held {
                        binding: binding.clone(),
                        lock,
                        depth,
                    });
                }
            }
            LockEvent::Call { index } => {
                if !held.is_empty() {
                    let held_now: Vec<String> = held.iter().map(|h| h.lock.clone()).collect();
                    facts.calls_holding.push((*index, held_now));
                }
            }
            // Condvar traffic is the dataflow layer's concern; a `wait`
            // atomically releases and reacquires the same mutex, which
            // cannot create a new ordering edge.
            LockEvent::CondvarWait { .. } | LockEvent::Notify { .. } => {}
        }
    }
    facts
}

/// `lock-graph`: builds the workspace lock graph (intra-function nesting
/// plus one level of cross-function expansion through resolved calls),
/// flags declared-order inversions, re-acquisitions and cycles, and
/// returns the graph for DOT export.
pub fn lock_graph(
    table: &SymbolTable,
    graph: &CallGraph,
    config: &LintConfig,
    stats: &mut GraphStats,
    out: &mut Vec<Finding>,
) -> LockGraph {
    let lock_names = &config.lock_order;
    let mut lock_graph = LockGraph::default();
    if lock_names.is_empty() {
        return lock_graph;
    }
    let rank_of = |name: &str| lock_names.iter().position(|l| l == name);
    let in_scope: Vec<bool> = table
        .items
        .iter()
        .map(|i| LOCK_ORDER_CRATES.contains(&crate_dir_of(&i.file)))
        .collect();
    let facts: Vec<FnLockFacts> = table
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            if in_scope[i] {
                replay_lock_events(item, lock_names, crate_dir_of(&item.file))
            } else {
                replay_lock_events(item, &[], "")
            }
        })
        .collect();

    let add_edge = |lock_graph: &mut LockGraph,
                        from: &str,
                        to: &str,
                        site: LockEdgeSite| {
        lock_graph.nodes.insert(from.to_string());
        lock_graph.nodes.insert(to.to_string());
        lock_graph
            .edges
            .entry((from.to_string(), to.to_string()))
            .or_insert(site);
    };

    for (idx, item) in table.items.iter().enumerate() {
        if !in_scope[idx] {
            continue;
        }
        for (lock, _line) in &facts[idx].acquires {
            lock_graph.nodes.insert(lock.clone());
        }
        for (from, to, line) in &facts[idx].edges {
            add_edge(
                &mut lock_graph,
                from,
                to,
                LockEdgeSite {
                    file: item.file.clone(),
                    line: *line,
                    via: None,
                },
            );
        }
        for (lock, line) in &facts[idx].reacquires {
            out.push(Finding {
                rule: "lock-graph".to_string(),
                severity: Severity::Error,
                path: item.file.clone(),
                line: *line,
                message: format!(
                    "re-acquiring `{lock}` in `{}` while a guard for it is still held \
                     (parking_lot locks are not reentrant)",
                    item.path()
                ),
            });
        }
        // One level of cross-function expansion: locks held across a
        // resolved call meet the callee's direct acquisitions.
        for (call_index, held) in &facts[idx].calls_holding {
            let Some(edge) = graph.edges[idx].iter().find(|e| e.call_index == *call_index)
            else {
                continue;
            };
            if !in_scope[edge.target] {
                continue;
            }
            let callee = &table.items[edge.target];
            for (acquired, acq_line) in &facts[edge.target].acquires {
                for held_lock in held {
                    if held_lock == acquired {
                        out.push(Finding {
                            rule: "lock-graph".to_string(),
                            severity: Severity::Error,
                            path: callee.file.clone(),
                            line: *acq_line,
                            message: format!(
                                "`{}` re-acquires `{acquired}` already held by caller `{}` \
                                 at {}:{} (parking_lot locks are not reentrant)",
                                callee.path(),
                                item.path(),
                                item.file,
                                edge.line,
                            ),
                        });
                    } else {
                        add_edge(
                            &mut lock_graph,
                            held_lock,
                            acquired,
                            LockEdgeSite {
                                file: callee.file.clone(),
                                line: *acq_line,
                                via: Some((item.path(), callee.path())),
                            },
                        );
                    }
                }
            }
        }
    }

    // A declared name no in-scope function acquires is stale: the lock
    // was renamed or removed, and its ordering is no longer checked.
    let acquired: BTreeSet<&str> = facts
        .iter()
        .flat_map(|f| f.acquires.iter().map(|(lock, _)| lock.as_str()))
        .collect();
    for name in lock_names.iter().filter(|n| !acquired.contains(n.as_str())) {
        out.push(stale_config(format!(
            "[lock-order] name `{name}` matches no lock acquisition in {} — was the \
             lock renamed or removed?",
            LOCK_ORDER_CRATES.join("/"),
        )));
    }

    // Declared-order inversions, one finding per offending edge.
    for ((from, to), site) in &lock_graph.edges {
        let (Some(from_rank), Some(to_rank)) = (rank_of(from), rank_of(to)) else {
            continue;
        };
        if from_rank > to_rank {
            let via = match &site.via {
                Some((caller, callee)) => format!(" (via call `{caller}` → `{callee}`)"),
                None => String::new(),
            };
            out.push(Finding {
                rule: "lock-graph".to_string(),
                severity: Severity::Error,
                path: site.file.clone(),
                line: site.line,
                message: format!(
                    "acquiring `{to}` while holding `{from}` inverts the declared order [{}]{via}",
                    lock_names.join(" < "),
                ),
            });
        }
    }

    // Cycle detection over the edge set.
    let cycles = find_cycles(&lock_graph);
    for cycle in &cycles {
        let first_edge = (cycle[0].clone(), cycle[1].clone());
        let site = &lock_graph.edges[&first_edge];
        let legs: Vec<String> = cycle
            .windows(2)
            .map(|w| {
                let s = &lock_graph.edges[&(w[0].clone(), w[1].clone())];
                match &s.via {
                    Some((caller, callee)) => format!(
                        "`{}` taken holding `{}` at {}:{} via `{caller}` → `{callee}`",
                        w[1], w[0], s.file, s.line
                    ),
                    None => format!(
                        "`{}` taken holding `{}` at {}:{}",
                        w[1], w[0], s.file, s.line
                    ),
                }
            })
            .collect();
        out.push(Finding {
            rule: "lock-graph".to_string(),
            severity: Severity::Error,
            path: site.file.clone(),
            line: site.line,
            message: format!(
                "lock cycle {}: {}",
                cycle.join(" → "),
                legs.join("; "),
            ),
        });
    }

    stats.lock_nodes = lock_graph.nodes.len();
    stats.lock_edges = lock_graph.edges.len();
    lock_graph
}

/// Elementary cycles of the lock graph, each reported once in canonical
/// rotation (smallest node first), as closed node lists `[a, b, a]`.
pub fn find_cycles(graph: &LockGraph) -> Vec<Vec<String>> {
    let nodes: Vec<&String> = graph.nodes.iter().collect();
    let index_of: HashMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (from, to) in graph.edges.keys() {
        if let (Some(&f), Some(&t)) = (index_of.get(from.as_str()), index_of.get(to.as_str())) {
            adjacency[f].push(t);
        }
    }
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS from every node; a back-edge onto the current stack closes a
    // cycle. Graphs here are tiny (lock names), so this stays cheap.
    for start in 0..nodes.len() {
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path: Vec<usize> = vec![start];
        let mut on_path = vec![false; nodes.len()];
        on_path[start] = true;
        while let Some((node, next_edge)) = stack.last_mut() {
            if let Some(&target) = adjacency[*node].get(*next_edge) {
                *next_edge += 1;
                if on_path[target] {
                    // Close the cycle at `target`.
                    if let Some(pos) = path.iter().position(|&n| n == target) {
                        let mut cycle: Vec<String> =
                            path[pos..].iter().map(|&n| nodes[n].clone()).collect();
                        // Canonical rotation: smallest name first.
                        let min_pos = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, n)| n.as_str())
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        cycle.rotate_left(min_pos);
                        cycle.push(cycle[0].clone());
                        cycles.insert(cycle);
                    }
                } else {
                    on_path[target] = true;
                    path.push(target);
                    stack.push((target, 0));
                }
            } else {
                on_path[*node] = false;
                path.pop();
                stack.pop();
            }
        }
    }
    cycles.into_iter().collect()
}

/// `alloc-in-hot-path`: flags allocation-family calls inside functions
/// matching a configured `[alloc-hot-path]` prefix.
pub fn alloc_in_hot_path(
    table: &SymbolTable,
    config: &LintConfig,
    stats: &mut GraphStats,
    out: &mut Vec<Finding>,
) {
    let mut prefix_used = vec![false; config.hot_paths.len()];
    for item in &table.items {
        if item.in_test {
            continue;
        }
        let path = item.path();
        let mut hot = false;
        for (prefix, used) in config.hot_paths.iter().zip(prefix_used.iter_mut()) {
            if path.starts_with(prefix.as_str()) {
                *used = true;
                hot = true;
            }
        }
        if !hot {
            continue;
        }
        stats.hot_fns += 1;
        for alloc in &item.allocs {
            out.push(Finding {
                rule: "alloc-in-hot-path".to_string(),
                severity: Severity::Warning,
                path: item.file.clone(),
                line: alloc.line,
                message: format!(
                    "`{}` allocates inside hot path `{path}`; preallocate, reuse a \
                     scratch buffer, or baseline with a reason",
                    alloc.what,
                ),
            });
        }
    }
    for (prefix, _) in config.hot_paths.iter().zip(&prefix_used).filter(|(_, &u)| !u) {
        out.push(stale_config(format!(
            "[alloc-hot-path] path `{prefix}` matches no function — was it moved or \
             renamed?"
        )));
    }
}

/// A `stale-config` finding: a lint.toml entry that matches nothing, so
/// the coverage it declares has silently lapsed. Fails `--deny` like a
/// stale suppression.
fn stale_config(message: String) -> Finding {
    Finding {
        rule: "stale-config".to_string(),
        severity: Severity::Error,
        path: "lint.toml".to_string(),
        line: 0,
        message,
    }
}

