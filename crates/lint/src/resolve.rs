//! Workspace symbol table and best-effort call resolution.
//!
//! Resolution handles exactly three call shapes, in this order:
//!
//! 1. **same-module** — `f(..)` / `Type::method(..)` defined in the
//!    calling module (or, for `self.method(..)`, on the enclosing `impl`
//!    type anywhere in the same crate);
//! 2. **`use`-imported** — the first path segment was bound by a file
//!    `use` (including aliases and group imports);
//! 3. **fully-qualified** — the first segment is a workspace crate name,
//!    or `crate`/`super`/`self` relative to the calling module.
//!
//! Everything else is deliberately out of scope and classified as
//! *external* (known std/core/alloc territory, common container methods)
//! or *unresolved* (method calls the heuristics cannot pin down, macro
//! expansions, trait-object dispatch). One extra heuristic closes the
//! biggest practical gap: a method call whose name is defined on exactly
//! one type in the whole workspace (and is not a common std name)
//! resolves to that unique definition — this is what lets
//! `plan.predict_batch(..)` in `serve` reach `neural::plan::FrozenPlan`.

use std::collections::HashMap;

use crate::parser::{CallKind, FnItem, ParsedFile};

/// Outcome of resolving one call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Resolved to a workspace item (index into the flattened item list).
    Item(usize),
    /// A call into std/core or a common container method — outside the
    /// workspace graph by design.
    External,
    /// The heuristics could not resolve it.
    Unresolved,
}

/// Method names too generic for the unique-name fallback: resolving
/// `x.clone()` to the single workspace type with an inherent `clone`
/// would create false edges everywhere (and `f.debug_struct(..).finish()`
/// in a `Debug` impl is std's `DebugStruct::finish`, not a workspace
/// type's `finish`).
const COMMON_METHODS: &[&str] = &[
    "all", "and_then", "any", "as_bytes", "as_ref", "as_str", "abs", "chain", "clamp", "clone",
    "cloned", "cmp", "collect", "contains", "copied", "count", "default", "drain", "ends_with",
    "compare_exchange", "compare_exchange_weak", "enumerate", "eq", "extend",
    "extend_from_slice", "fetch_add", "fetch_and", "fetch_max", "fetch_min", "fetch_or",
    "fetch_sub", "fetch_update", "fetch_xor", "filter", "filter_map",
    "find", "finish", "first", "flat_map", "flatten", "fmt", "fold", "from", "get", "get_mut",
    "hash",
    "insert", "into", "into_iter", "is_empty", "is_some", "is_none", "iter", "iter_mut",
    "join", "last", "len", "load", "lock", "map", "map_err", "max", "min", "new", "next",
    "notify_all", "notify_one", "ok", "ok_or", "ok_or_else", "parse", "pop", "position",
    "product", "push", "read", "recv", "recv_timeout", "remove", "rev", "reserve", "sleep",
    "sort", "sort_by", "sort_by_key",
    "split", "starts_with", "store", "sum", "swap", "take", "to_owned", "to_string", "to_vec",
    "trim", "unwrap", "unwrap_or", "unwrap_or_default", "unwrap_or_else", "expect", "wait",
    "wait_timeout", "write", "zip",
];

/// First path segments that mark a call as external to the workspace.
const EXTERNAL_ROOTS: &[&str] = &[
    "std", "core", "alloc", "Vec", "String", "Box", "Arc", "Rc", "Option", "Result", "Some",
    "Ok", "Err", "None", "Iterator", "Duration", "Instant", "HashMap", "HashSet", "BTreeMap",
    "BTreeSet", "VecDeque", "Ordering", "PhantomData", "Cell", "RefCell", "AtomicU64",
    "AtomicU32", "AtomicUsize", "AtomicBool", "Mutex", "RwLock", "Condvar", "f32", "f64",
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "str", "char",
    "bool", "PoisonError", "Default", "Clone", "Drop", "From", "Into", "TryFrom",
];

/// The flattened workspace: every parsed item plus lookup tables.
pub struct SymbolTable {
    /// All non-test items from every parsed file, flattened.
    pub items: Vec<FnItem>,
    /// For each item, the index of its [`ParsedFile`].
    pub item_file: Vec<usize>,
    /// Fully-qualified path → item index (first definition wins).
    by_path: HashMap<String, usize>,
    /// Method name → item indices with a `self_type`.
    methods: HashMap<String, Vec<usize>>,
    /// Underscored workspace crate names.
    crate_names: Vec<String>,
}

impl SymbolTable {
    /// Builds the table from parsed files, excluding test items (their
    /// calls and panics are exempt from every graph rule).
    pub fn build(files: &[ParsedFile]) -> Self {
        let mut items = Vec::new();
        let mut item_file = Vec::new();
        let mut by_path = HashMap::new();
        let mut methods: HashMap<String, Vec<usize>> = HashMap::new();
        let mut crate_names = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            let crate_name = file.crate_dir.replace('-', "_");
            if !crate_names.contains(&crate_name) {
                crate_names.push(crate_name);
            }
            for item in &file.items {
                if item.in_test {
                    continue;
                }
                let idx = items.len();
                by_path.entry(item.path()).or_insert(idx);
                if item.self_type.is_some() {
                    methods.entry(item.name.clone()).or_default().push(idx);
                }
                items.push(item.clone());
                item_file.push(file_idx);
            }
        }
        Self {
            items,
            item_file,
            by_path,
            methods,
            crate_names,
        }
    }

    /// Looks up a fully-qualified path.
    pub fn lookup(&self, path: &str) -> Option<usize> {
        self.by_path.get(path).copied()
    }

    /// Resolves one call made from `caller` in `file`.
    pub fn resolve(&self, caller: &FnItem, file: &ParsedFile, call: &CallKind) -> Resolution {
        match call {
            CallKind::Path(segments) => self.resolve_path_call(caller, file, segments),
            CallKind::Method { name, on_self } => {
                self.resolve_method_call(caller, name, *on_self)
            }
        }
    }

    fn resolve_path_call(
        &self,
        caller: &FnItem,
        file: &ParsedFile,
        segments: &[String],
    ) -> Resolution {
        let Some(head) = segments.first() else {
            return Resolution::Unresolved;
        };
        // Same module: `f(..)` / `Type::method(..)` next to the caller.
        let mut local = caller.module.clone();
        local.extend(segments.iter().cloned());
        if let Some(idx) = self.lookup(&local.join("::")) {
            return Resolution::Item(idx);
        }
        // Same impl block: `Self::helper(..)`.
        if head == "Self" {
            if let Some(ty) = &caller.self_type {
                let mut path = caller.module.clone();
                path.push(ty.clone());
                path.extend(segments.iter().skip(1).cloned());
                if let Some(idx) = self.lookup(&path.join("::")) {
                    return Resolution::Item(idx);
                }
            }
            return Resolution::Unresolved;
        }
        // Imported head: splice the import target in, then normalize.
        if let Some(import) = file.imports.iter().find(|i| &i.name == head) {
            let mut target = import.target.clone();
            target.extend(segments.iter().skip(1).cloned());
            if let Some(idx) = self.lookup_normalized(&target, &file.base_module) {
                return Resolution::Item(idx);
            }
            if target.first().is_some_and(|h| EXTERNAL_ROOTS.contains(&h.as_str())) {
                return Resolution::External;
            }
        }
        // Fully qualified from a crate root or crate/super/self-relative.
        if let Some(idx) = self.lookup_normalized(segments, &caller.module) {
            return Resolution::Item(idx);
        }
        if EXTERNAL_ROOTS.contains(&head.as_str()) {
            return Resolution::External;
        }
        Resolution::Unresolved
    }

    /// Normalizes a path that may start with `crate`/`super`/`self` or a
    /// workspace crate name, then looks it up.
    fn lookup_normalized(&self, segments: &[String], context_module: &[String]) -> Option<usize> {
        let head = segments.first()?;
        let full: Vec<String> = match head.as_str() {
            "crate" => {
                let crate_name = context_module.first()?.clone();
                std::iter::once(crate_name)
                    .chain(segments.iter().skip(1).cloned())
                    .collect()
            }
            "self" => context_module
                .iter()
                .cloned()
                .chain(segments.iter().skip(1).cloned())
                .collect(),
            "super" => {
                let mut module = context_module.to_vec();
                let mut rest = segments;
                while rest.first().is_some_and(|s| s == "super") {
                    module.pop();
                    rest = &rest[1..];
                }
                module.into_iter().chain(rest.iter().cloned()).collect()
            }
            name if self.crate_names.iter().any(|c| c == name) => segments.to_vec(),
            _ => return None,
        };
        self.lookup(&full.join("::"))
    }

    fn resolve_method_call(&self, caller: &FnItem, name: &str, on_self: bool) -> Resolution {
        // `self.method(..)`: the enclosing impl type, same module first,
        // then the same type name anywhere in the caller's crate.
        if on_self {
            if let Some(ty) = &caller.self_type {
                let mut path = caller.module.clone();
                path.push(ty.clone());
                path.push(name.to_string());
                if let Some(idx) = self.lookup(&path.join("::")) {
                    return Resolution::Item(idx);
                }
                let crate_name = caller.module.first();
                if let Some(candidates) = self.methods.get(name) {
                    let same_type: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&i| {
                            self.items[i].self_type.as_deref() == Some(ty.as_str())
                                && self.items[i].module.first() == crate_name
                        })
                        .collect();
                    if let [only] = same_type.as_slice() {
                        return Resolution::Item(*only);
                    }
                }
            }
        }
        // Unique-definition fallback for distinctive names.
        if COMMON_METHODS.contains(&name) {
            return Resolution::External;
        }
        match self.methods.get(name).map(Vec::as_slice) {
            Some([only]) => Resolution::Item(*only),
            Some(_) => Resolution::Unresolved,
            None => Resolution::External,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser::parse_file;

    fn parse(path: &str, crate_dir: &str, src: &str) -> ParsedFile {
        let tokens = lexer::lex(src);
        let mask = lexer::test_mask(&tokens);
        parse_file(path, crate_dir, &tokens, &mask)
    }

    fn find_call(item: &FnItem, pred: impl Fn(&CallKind) -> bool) -> &CallKind {
        &item.calls.iter().find(|c| pred(&c.kind)).expect("call").kind
    }

    #[test]
    fn resolves_same_module_imported_and_qualified_calls() {
        let neural = parse(
            "crates/neural/src/plan.rs",
            "neural",
            r#"
            pub struct FrozenPlan;
            impl FrozenPlan {
                pub fn predict_batch(&self) { helper(); }
            }
            fn helper() {}
            "#,
        );
        let serve = parse(
            "crates/serve/src/engine.rs",
            "serve",
            r#"
            use neural::plan::FrozenPlan;
            fn worker(plan: &FrozenPlan) {
                plan.predict_batch();
                FrozenPlan::predict_batch(plan);
                neural::plan::FrozenPlan::predict_batch(plan);
                crate::engine::local();
            }
            fn local() {}
            "#,
        );
        let files = vec![neural, serve];
        let table = SymbolTable::build(&files);
        let worker_idx = table
            .items
            .iter()
            .position(|i| i.name == "worker")
            .expect("worker");
        let worker = table.items[worker_idx].clone();
        let file = &files[1];

        // Method call via unique-name fallback.
        let method = find_call(&worker, |k| matches!(k, CallKind::Method { .. }));
        let target = table.resolve(&worker, file, method);
        let predict = table
            .lookup("neural::plan::FrozenPlan::predict_batch")
            .expect("predict_batch indexed");
        assert_eq!(target, Resolution::Item(predict));

        // Imported `Type::method`.
        let typed = find_call(&worker, |k| {
            matches!(k, CallKind::Path(p) if p.len() == 2 && p[0] == "FrozenPlan")
        });
        assert_eq!(table.resolve(&worker, file, typed), Resolution::Item(predict));

        // Fully qualified.
        let full = find_call(&worker, |k| {
            matches!(k, CallKind::Path(p) if p.first().is_some_and(|s| s == "neural"))
        });
        assert_eq!(table.resolve(&worker, file, full), Resolution::Item(predict));

        // crate::-relative.
        let local_call = find_call(&worker, |k| {
            matches!(k, CallKind::Path(p) if p.first().is_some_and(|s| s == "crate"))
        });
        let local = table.lookup("serve::engine::local").expect("local indexed");
        assert_eq!(table.resolve(&worker, file, local_call), Resolution::Item(local));
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl_type() {
        let file = parse(
            "crates/serve/src/engine.rs",
            "serve",
            r#"
            pub struct Engine;
            impl Engine {
                pub fn submit(&self) { self.inner(); }
                fn inner(&self) {}
            }
            "#,
        );
        let files = vec![file];
        let table = SymbolTable::build(&files);
        let submit = table.items.iter().position(|i| i.name == "submit").unwrap();
        let caller = table.items[submit].clone();
        let call = find_call(&caller, |k| matches!(k, CallKind::Method { .. }));
        let inner = table.lookup("serve::engine::Engine::inner").unwrap();
        assert_eq!(table.resolve(&caller, &files[0], call), Resolution::Item(inner));
    }

    #[test]
    fn common_methods_and_std_paths_are_external() {
        let file = parse(
            "crates/serve/src/x.rs",
            "serve",
            r#"
            fn f(v: &mut Vec<u32>) {
                v.push(1);
                let _ = std::mem::take(v);
            }
            "#,
        );
        let files = vec![file];
        let table = SymbolTable::build(&files);
        let caller = table.items[0].clone();
        for call in &caller.calls {
            assert_eq!(
                table.resolve(&caller, &files[0], &call.kind),
                Resolution::External,
                "{call:?}"
            );
        }
    }
}
