//! A lightweight item parser on top of the lexer: extracts `mod`, `use`,
//! `impl`/`trait` and `fn` items with module paths, spans and per-body
//! event streams (calls, panic sites, allocation sites, lock events).
//!
//! The parser is deliberately approximate — it tracks brace nesting and a
//! scope stack rather than the full grammar — and it documents exactly
//! what it gives up: `macro_rules!` bodies are skipped wholesale, items
//! generated by macros are invisible, and imports are recorded per file
//! (not per in-file module). Everything downstream (resolution, the call
//! graph, the graph rules) is best-effort on top of this and says so.

use crate::lexer::{Token, TokenKind};

/// How a call site was written, which drives how it can be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `f(..)`, `path::to::f(..)`, `Type::method(..)` — the full segment
    /// list as written.
    Path(Vec<String>),
    /// `recv.method(..)`; `on_self` is true when the receiver is
    /// literally `self`.
    Method {
        /// The method name.
        name: String,
        /// Whether the receiver token is `self`.
        on_self: bool,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// What was called, as written.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: usize,
    /// True when the call's argument list is empty (`x.join()` vs
    /// `parts.join(", ")` — the discriminator the dataflow layer uses to
    /// tell `JoinHandle::join`/`Ticket::wait` apart from the std string
    /// methods of the same name).
    pub no_args: bool,
}

/// What kind of construct can panic at a [`PanicSite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
    Macro,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
}

impl PanicKind {
    /// Short human label used in call-chain messages.
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Macro => "panic-family macro",
            PanicKind::Unwrap => ".unwrap()",
            PanicKind::Expect => ".expect(..)",
        }
    }
}

/// One potential panic inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// What panics here.
    pub kind: PanicKind,
    /// 1-based source line.
    pub line: usize,
}

/// One allocation-family call inside a function body (`Vec::new`,
/// `.push(..)`, `.clone()`, `.to_vec()`, `format!`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// The allocating construct, as written (`push`, `format!`, ...).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
}

/// What an atomic operation does to its cell, for the `atomic-ordering`
/// contract check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `.load(..)`.
    Load,
    /// `.store(..)`.
    Store,
    /// Read-modify-write: `swap`, `fetch_*`, `compare_exchange*`.
    Rmw,
}

impl AtomicOp {
    /// Short human label.
    pub fn label(self) -> &'static str {
        match self {
            AtomicOp::Load => "load",
            AtomicOp::Store => "store",
            AtomicOp::Rmw => "rmw",
        }
    }
}

/// One atomic operation site: `recv.field.load(Ordering::Relaxed)` and
/// friends. A site is only recorded when at least one `Ordering::X`
/// argument is present, so `slice.swap(i, j)` / `map.store(k)` never
/// masquerade as atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    /// Final field name of the receiver chain (`seq`, `stop`, ...).
    pub field: String,
    /// What the operation does.
    pub op: AtomicOp,
    /// Every `Ordering::X` ident inside the argument list, in order
    /// (`compare_exchange` carries two).
    pub orderings: Vec<String>,
    /// 1-based source line.
    pub line: usize,
}

/// One event in a function body relevant to lock tracking, in source
/// order. The lock-graph rule replays these with the configured lock
/// names; the parser records them mechanically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockEvent {
    /// `{` inside the body.
    Open,
    /// `}` inside the body.
    Close,
    /// `recv.field.lock()` / `.read()` / `.write()`: the receiver's final
    /// field name, the `let` binding holding the guard (if any), and the
    /// line.
    Acquire {
        /// Final field name of the receiver chain.
        field: String,
        /// `let` binding name when the guard is bound, `None` for
        /// temporaries that die at the end of their own statement.
        binding: Option<String>,
        /// 1-based source line.
        line: usize,
    },
    /// `drop(name)` — releases a bound guard early.
    DropBinding {
        /// The dropped binding.
        name: String,
    },
    /// A call site (index into [`FnItem::calls`]) — used for the
    /// one-level cross-function lock expansion.
    Call {
        /// Index into the owning item's `calls`.
        index: usize,
    },
    /// `recv.cv.wait(guard)` / `.wait_timeout(guard, t)` — a condvar wait
    /// that atomically releases the passed guard while blocked.
    CondvarWait {
        /// Final field name of the receiver chain (the condvar).
        field: String,
        /// The guard binding passed as first argument, when it is a
        /// plain identifier — the lock it releases is exempt from
        /// `blocking-under-lock` at this site.
        guard: Option<String>,
        /// True for `wait_timeout`.
        timeout: bool,
        /// True when a `loop`/`while`/`for` block encloses the wait
        /// within the same function (the condvar-protocol loop check).
        in_loop: bool,
        /// 1-based source line.
        line: usize,
    },
    /// `recv.cv.notify_one()` / `.notify_all()`.
    Notify {
        /// Final field name of the receiver chain (the condvar).
        field: String,
        /// 1-based source line.
        line: usize,
    },
}

/// One parsed function (free function, inherent/trait method, or a trait
/// default method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub self_type: Option<String>,
    /// Module path segments including the crate name (underscored).
    pub module: Vec<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True for plain `pub` (not `pub(crate)` / `pub(super)`).
    pub is_pub: bool,
    /// True when the item sits inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Panic sites in body order.
    pub panics: Vec<PanicSite>,
    /// Allocation sites in body order.
    pub allocs: Vec<AllocSite>,
    /// Atomic operation sites in body order.
    pub atomics: Vec<AtomicSite>,
    /// Synchronization-relevant body events (lock, condvar, call) in
    /// source order.
    pub lock_events: Vec<LockEvent>,
}

impl FnItem {
    /// The fully-qualified path, e.g. `serve::engine::Engine::submit`.
    pub fn path(&self) -> String {
        let mut segments = self.module.clone();
        if let Some(ty) = &self.self_type {
            segments.push(ty.clone());
        }
        segments.push(self.name.clone());
        segments.join("::")
    }
}

/// One `use` import: a local name bound to a path (as written, so the
/// target may still start with `crate`/`super`/`self`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// The name the import binds in this file.
    pub name: String,
    /// Target path segments, unresolved.
    pub target: Vec<String>,
}

/// Everything extracted from one source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Crate directory name (`ms-sim`), used for rule scoping.
    pub crate_dir: String,
    /// Base module path of the file (underscored crate name + file
    /// modules), e.g. `["neural", "layers", "conv1d"]`.
    pub base_module: Vec<String>,
    /// File-level imports (applied to the whole file, best-effort).
    pub imports: Vec<Import>,
    /// Parsed functions.
    pub items: Vec<FnItem>,
}

/// Maps a workspace-relative path to its base module segments:
/// `crates/neural/src/layers/conv1d.rs` → `["neural", "layers", "conv1d"]`.
/// `lib.rs`, `main.rs`, `mod.rs` and `bin/*.rs` collapse onto their parent.
pub fn base_module_of(rel_path: &str, crate_dir: &str) -> Vec<String> {
    let crate_name = crate_dir.replace('-', "_");
    let mut module = vec![crate_name];
    let parts: Vec<&str> = rel_path.split('/').collect();
    // Everything after `src/`.
    let Some(src_pos) = parts.iter().position(|p| *p == "src") else {
        return module;
    };
    let within = &parts[src_pos + 1..];
    for (i, part) in within.iter().enumerate() {
        let last = i + 1 == within.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "main" && stem != "mod" {
                // `bin/x.rs` binaries also collapse onto the crate.
                if within.first() != Some(&"bin") {
                    module.push(stem.to_string());
                }
            }
        } else if *part != "bin" {
            module.push((*part).to_string());
        }
    }
    module
}

/// Parses one file into items. `tokens`/`test_mask` must come from
/// [`crate::lexer::lex`] / [`crate::lexer::test_mask`] on the file's source.
pub fn parse_file(
    rel_path: &str,
    crate_dir: &str,
    tokens: &[Token],
    test_mask: &[bool],
) -> ParsedFile {
    let mut parser = Parser {
        tokens,
        test_mask,
        scopes: Vec::new(),
        items: Vec::new(),
        imports: Vec::new(),
        base_module: base_module_of(rel_path, crate_dir),
        file: rel_path.to_string(),
        pending_loop: false,
    };
    parser.run();
    ParsedFile {
        path: rel_path.to_string(),
        crate_dir: crate_dir.to_string(),
        base_module: parser.base_module,
        imports: parser.imports,
        items: parser.items,
    }
}

/// What a `{` opened.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ScopeKind {
    /// `mod name {`.
    Mod(String),
    /// `impl Type {` / `trait Name {` — carries the type name.
    Typed(Option<String>),
    /// `fn ... {` — carries the item index.
    Fn(usize),
    /// Any other brace (blocks, match arms, struct literals, ...); true
    /// when the block is a `loop`/`while`/`for` body.
    Block(bool),
}

struct Parser<'a> {
    tokens: &'a [Token],
    test_mask: &'a [bool],
    scopes: Vec<ScopeKind>,
    items: Vec<FnItem>,
    imports: Vec<Import>,
    base_module: Vec<String>,
    file: String,
    /// A `loop`/`while`/`for` keyword was seen and its body `{` is still
    /// ahead; consumed by the next block push.
    pending_loop: bool,
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "break",
    "continue", "await", "let", "fn", "where", "impl", "dyn", "ref", "mut", "pub", "use",
    "mod", "struct", "enum", "trait", "type", "const", "static", "unsafe", "extern",
];

impl Parser<'_> {
    fn run(&mut self) {
        let mut i = 0usize;
        while i < self.tokens.len() {
            let t = &self.tokens[i];
            match () {
                // Skip attributes wholesale so their contents never read
                // as calls or items.
                _ if t.is_punct('#') && self.peek_punct(i + 1, '[') => {
                    i = self.matching(i + 1, '[', ']').map_or(i + 2, |c| c + 1);
                }
                _ if t.is_punct('#')
                    && self.peek_punct(i + 1, '!')
                    && self.peek_punct(i + 2, '[') =>
                {
                    i = self.matching(i + 2, '[', ']').map_or(i + 3, |c| c + 1);
                }
                // macro_rules! bodies are opaque.
                _ if t.is_ident("macro_rules") && self.peek_punct(i + 1, '!') => {
                    i = self.skip_macro_rules(i);
                }
                _ if t.is_ident("use") && !self.in_fn() => {
                    i = self.parse_use(i);
                }
                _ if t.is_ident("mod") => {
                    i = self.parse_mod(i);
                }
                _ if t.is_ident("impl") || t.is_ident("trait") => {
                    i = self.parse_impl_or_trait(i);
                }
                _ if t.is_ident("fn") => {
                    i = self.parse_fn(i);
                }
                _ if t.is_punct('{') => {
                    let is_loop = std::mem::take(&mut self.pending_loop);
                    self.scopes.push(ScopeKind::Block(is_loop));
                    if let Some(item) = self.current_fn() {
                        self.items[item].lock_events.push(LockEvent::Open);
                    }
                    i += 1;
                }
                _ if t.is_punct('}') => {
                    if matches!(self.scopes.last(), Some(ScopeKind::Block(_))) {
                        if let Some(item) = self.current_fn() {
                            self.items[item].lock_events.push(LockEvent::Close);
                        }
                    }
                    self.scopes.pop();
                    i += 1;
                }
                _ => {
                    if self.in_fn() {
                        self.scan_body_token(i);
                    }
                    i += 1;
                }
            }
        }
    }

    fn peek_punct(&self, i: usize, c: char) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_punct(c))
    }

    fn peek_ident(&self, i: usize) -> Option<&str> {
        self.tokens
            .get(i)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
    }

    fn matching(&self, start: usize, open: char, close: char) -> Option<usize> {
        let mut depth = 0usize;
        for (j, t) in self.tokens.iter().enumerate().skip(start) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }

    fn in_fn(&self) -> bool {
        self.current_fn().is_some()
    }

    /// Innermost enclosing fn item, if any.
    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s {
            ScopeKind::Fn(idx) => Some(*idx),
            _ => None,
        })
    }

    /// Module path at the current scope (base module + nested `mod`s).
    fn current_module(&self) -> Vec<String> {
        let mut module = self.base_module.clone();
        for scope in &self.scopes {
            if let ScopeKind::Mod(name) = scope {
                module.push(name.clone());
            }
        }
        module
    }

    /// Innermost `impl`/`trait` type, unless a `fn` (closure-like nested
    /// fn) intervenes.
    fn current_self_type(&self) -> Option<String> {
        for scope in self.scopes.iter().rev() {
            match scope {
                ScopeKind::Typed(ty) => return ty.clone(),
                ScopeKind::Fn(_) => return None,
                _ => {}
            }
        }
        None
    }

    /// `macro_rules ! name { ... }` → index just past the closing brace.
    fn skip_macro_rules(&self, start: usize) -> usize {
        let mut j = start;
        while j < self.tokens.len() && !self.tokens[j].is_punct('{') {
            j += 1;
        }
        self.matching(j, '{', '}').map_or(self.tokens.len(), |c| c + 1)
    }

    /// Parses `use ...;` recording one import per bound name.
    fn parse_use(&mut self, start: usize) -> usize {
        let mut end = start + 1;
        let mut depth = 0usize;
        while end < self.tokens.len() {
            let t = &self.tokens[end];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
            end += 1;
        }
        let tree = &self.tokens[start + 1..end.min(self.tokens.len())];
        let mut imports = Vec::new();
        parse_use_tree(tree, &[], &mut imports);
        self.imports.extend(imports);
        end + 1
    }

    /// Parses `mod name ;` / `mod name {`. Returns the index to resume at.
    fn parse_mod(&mut self, start: usize) -> usize {
        let Some(name) = self.peek_ident(start + 1).map(str::to_string) else {
            return start + 1;
        };
        if self.peek_punct(start + 2, '{') {
            self.scopes.push(ScopeKind::Mod(name));
            return start + 3;
        }
        // `mod name;` — the out-of-line file maps via `base_module_of`.
        start + 2
    }

    /// Parses an `impl`/`trait` header up to its `{` (or `;`), extracting
    /// the subject type name.
    fn parse_impl_or_trait(&mut self, start: usize) -> usize {
        let is_trait = self.tokens[start].is_ident("trait");
        let mut j = start + 1;
        let mut after_for: Option<String> = None;
        let mut last_ident: Option<String> = None;
        let mut first_ident: Option<String> = None;
        let mut angle = 0i32;
        while j < self.tokens.len() {
            let t = &self.tokens[j];
            if t.is_punct('{') && angle <= 0 {
                break;
            }
            if t.is_punct(';') && angle <= 0 {
                // `trait X: Y;`-style or parse slip: no body.
                return j + 1;
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !self.peek_prev_punct(j, '-') {
                angle -= 1;
            } else if angle <= 0 && t.kind == TokenKind::Ident {
                match t.text.as_str() {
                    "for" => after_for = None,
                    "where" => break,
                    "dyn" | "ref" | "mut" | "pub" | "unsafe" | "const" => {}
                    name => {
                        if after_for.is_none() && last_ident.is_some() {
                            // keep walking a path: a::b::C — the last
                            // segment wins below.
                        }
                        last_ident = Some(name.to_string());
                        if first_ident.is_none() {
                            first_ident = Some(name.to_string());
                        }
                        after_for = last_ident.clone();
                    }
                }
            }
            j += 1;
        }
        // For `impl Trait for Type`, `after_for` tracked the most recent
        // ident, which by construction is the last segment of the
        // implemented-on type; for `trait Name`, the first ident is the
        // name.
        let ty = if is_trait { first_ident } else { after_for.or(last_ident) };
        while j < self.tokens.len() && !self.tokens[j].is_punct('{') {
            j += 1;
        }
        if j < self.tokens.len() {
            self.scopes.push(ScopeKind::Typed(ty));
            j + 1
        } else {
            j
        }
    }

    fn peek_prev_punct(&self, i: usize, c: char) -> bool {
        i > 0 && self.tokens[i - 1].is_punct(c)
    }

    /// Parses a `fn` header; on a body `{`, registers the item and pushes
    /// its scope. Returns the index just past the body `{` (or past `;`).
    fn parse_fn(&mut self, start: usize) -> usize {
        let Some(name) = self.peek_ident(start + 1).map(str::to_string) else {
            return start + 1;
        };
        // Find the body `{` or a terminating `;`, skipping `()`/`[]`
        // groups (array types like `[u8; 4]` contain `;`).
        let mut j = start + 2;
        let mut nest = 0i32;
        loop {
            let Some(t) = self.tokens.get(j) else {
                return j;
            };
            if t.is_punct('(') || t.is_punct('[') {
                nest += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                nest -= 1;
            } else if t.is_punct(';') && nest == 0 {
                return j + 1; // bodyless signature (trait / extern)
            } else if t.is_punct('{') && nest == 0 {
                break;
            }
            j += 1;
        }
        let fn_line = self.tokens[start].line;
        let in_test = self.test_mask.get(start).copied().unwrap_or(false);
        let item = FnItem {
            name,
            self_type: self.current_self_type(),
            module: self.current_module(),
            file: self.file.clone(),
            line: fn_line,
            is_pub: self.fn_is_pub(start),
            in_test,
            calls: Vec::new(),
            panics: Vec::new(),
            allocs: Vec::new(),
            atomics: Vec::new(),
            lock_events: Vec::new(),
        };
        self.items.push(item);
        self.scopes.push(ScopeKind::Fn(self.items.len() - 1));
        self.pending_loop = false;
        j + 1
    }

    /// True when a `loop`/`while`/`for` block encloses the current
    /// position within the innermost function.
    fn in_loop(&self) -> bool {
        for scope in self.scopes.iter().rev() {
            match scope {
                ScopeKind::Block(true) => return true,
                ScopeKind::Fn(_) => return false,
                _ => {}
            }
        }
        false
    }

    /// True when the tokens just before `fn` include a bare `pub` (not
    /// `pub(crate)` / `pub(super)`).
    fn fn_is_pub(&self, fn_idx: usize) -> bool {
        let mut j = fn_idx;
        for _ in 0..6 {
            let Some(prev) = j.checked_sub(1) else { break };
            let t = &self.tokens[prev];
            match t.text.as_str() {
                "const" | "unsafe" | "async" | "extern" => j = prev,
                "pub" => return !self.peek_punct(prev + 1, '('),
                _ if t.kind == TokenKind::Str => j = prev, // extern "C"
                _ if t.is_punct(')') => {
                    // `pub(crate)` group: step over it to the `pub`.
                    let mut depth = 1usize;
                    let mut k = prev;
                    while depth > 0 {
                        let Some(p) = k.checked_sub(1) else { return false };
                        k = p;
                        if self.tokens[k].is_punct(')') {
                            depth += 1;
                        } else if self.tokens[k].is_punct('(') {
                            depth -= 1;
                        }
                    }
                    return false; // restricted visibility
                }
                _ => break,
            }
        }
        false
    }

    /// Scans one in-body token for calls, panic sites, allocation sites,
    /// atomic operations and lock/condvar events.
    fn scan_body_token(&mut self, i: usize) {
        let Some(item) = self.current_fn() else { return };
        if self.test_mask.get(i).copied().unwrap_or(false) {
            return;
        }
        let tokens = self.tokens;
        let t = &tokens[i];

        // Loop keywords arm the next `{` as a loop body.
        if matches!(t.text.as_str(), "loop" | "while" | "for") && t.kind == TokenKind::Ident {
            self.pending_loop = true;
            return;
        }

        if t.kind != TokenKind::Ident {
            return;
        }
        let next_bang = self.peek_punct(i + 1, '!') && !self.peek_punct(i + 2, '=');
        let next_paren = self.peek_punct(i + 1, '(');
        let prev_dot = i > 0 && tokens[i - 1].is_punct('.');

        // Panic-family macros.
        if next_bang
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        {
            self.items[item].panics.push(PanicSite {
                kind: PanicKind::Macro,
                line: t.line,
            });
            return;
        }
        // `format!` allocates.
        if next_bang && t.text == "format" {
            self.items[item].allocs.push(AllocSite {
                what: "format!".to_string(),
                line: t.line,
            });
            return;
        }
        if !next_paren {
            return;
        }

        if prev_dot {
            // Method call.
            match t.text.as_str() {
                "unwrap" => self.items[item].panics.push(PanicSite {
                    kind: PanicKind::Unwrap,
                    line: t.line,
                }),
                "expect" => self.items[item].panics.push(PanicSite {
                    kind: PanicKind::Expect,
                    line: t.line,
                }),
                _ => {}
            }
            if matches!(t.text.as_str(), "push" | "clone" | "to_vec") {
                self.items[item].allocs.push(AllocSite {
                    what: t.text.clone(),
                    line: t.line,
                });
            }
            // Lock acquisition: `recv.field.lock()` with no arguments.
            if matches!(t.text.as_str(), "lock" | "read" | "write")
                && self.peek_punct(i + 2, ')')
            {
                if let Some(field) = i
                    .checked_sub(2)
                    .map(|j| &tokens[j])
                    .filter(|f| f.kind == TokenKind::Ident)
                {
                    // A further method chained onto the guard (other than
                    // the unwrap family, which returns the guard itself)
                    // means the guard is a temporary dying at statement
                    // end: any `let` binds the chain's result, not the
                    // guard, e.g. `let pin = pins.read().get(k).copied()`.
                    let chained = self.peek_punct(i + 3, '.')
                        && !matches!(
                            self.peek_ident(i + 4),
                            Some("unwrap" | "expect" | "unwrap_or_else")
                        );
                    let binding = if chained {
                        None
                    } else {
                        let_binding_for(tokens, i)
                    };
                    self.items[item].lock_events.push(LockEvent::Acquire {
                        field: field.text.clone(),
                        binding,
                        line: t.line,
                    });
                }
            }
            // Atomic operation: `recv.field.load(Ordering::X)` and friends.
            // Only recorded when at least one `Ordering::X` appears in the
            // argument list, so `slice.swap(i, j)` / `map.store(..)` on
            // non-atomic receivers never register.
            if let Some(op) = atomic_op_for(t.text.as_str()) {
                let orderings = self.orderings_in_args(i + 1);
                if !orderings.is_empty() {
                    if let Some(field) = receiver_field(tokens, i) {
                        self.items[item].atomics.push(AtomicSite {
                            field,
                            op,
                            orderings,
                            line: t.line,
                        });
                    }
                }
            }
            // Condvar wait: `cv.wait(guard)` / `cv.wait_timeout(guard, d)`
            // takes the guard by value — at least one argument, unlike the
            // zero-arg Mutex `lock()` family above.
            if matches!(t.text.as_str(), "wait" | "wait_timeout")
                && !self.peek_punct(i + 2, ')')
            {
                if let Some(field) = receiver_field(tokens, i) {
                    let guard = first_arg_ident(tokens, i + 1);
                    let timeout = t.text == "wait_timeout";
                    let in_loop = self.in_loop();
                    self.items[item].lock_events.push(LockEvent::CondvarWait {
                        field,
                        guard,
                        timeout,
                        in_loop,
                        line: t.line,
                    });
                }
            }
            // Condvar notify: `cv.notify_one()` / `cv.notify_all()`.
            if matches!(t.text.as_str(), "notify_one" | "notify_all") {
                if let Some(field) = receiver_field(tokens, i) {
                    self.items[item].lock_events.push(LockEvent::Notify {
                        field,
                        line: t.line,
                    });
                }
            }
            let on_self = i >= 2 && tokens[i - 2].is_ident("self");
            let no_args = self.peek_punct(i + 2, ')');
            let call_index = self.items[item].calls.len();
            self.items[item].calls.push(CallSite {
                kind: CallKind::Method {
                    name: t.text.clone(),
                    on_self,
                },
                no_args,
                line: t.line,
            });
            self.items[item]
                .lock_events
                .push(LockEvent::Call { index: call_index });
            return;
        }

        // `drop(binding)` releases a guard early.
        if t.is_ident("drop")
            && self.tokens.get(i + 2).is_some_and(|x| x.kind == TokenKind::Ident)
            && self.peek_punct(i + 3, ')')
        {
            let name = tokens[i + 2].text.clone();
            self.items[item].lock_events.push(LockEvent::DropBinding { name });
            return;
        }

        if CALL_KEYWORDS.contains(&t.text.as_str()) {
            return;
        }

        // Free / path call: walk the `a::b::f` chain backwards.
        let mut segments = vec![t.text.clone()];
        let mut j = i;
        while j >= 2
            && tokens[j - 1].is_punct(':')
            && tokens[j - 2].is_punct(':')
            && j >= 3
            && tokens[j - 3].kind == TokenKind::Ident
        {
            segments.push(tokens[j - 3].text.clone());
            j -= 3;
        }
        segments.reverse();
        // `Vec::new` is the one path-call allocation in the rule set.
        if segments.len() == 2 && segments[0] == "Vec" && segments[1] == "new" {
            self.items[item].allocs.push(AllocSite {
                what: "Vec::new".to_string(),
                line: t.line,
            });
        }
        let no_args = self.peek_punct(i + 2, ')');
        let call_index = self.items[item].calls.len();
        self.items[item].calls.push(CallSite {
            kind: CallKind::Path(segments),
            no_args,
            line: t.line,
        });
        self.items[item]
            .lock_events
            .push(LockEvent::Call { index: call_index });
    }

    /// Collects every `Ordering::X` named inside the argument list whose
    /// opening `(` sits at `open_idx`.
    fn orderings_in_args(&self, open_idx: usize) -> Vec<String> {
        let mut out = Vec::new();
        let Some(close) = self.matching(open_idx, '(', ')') else {
            return out;
        };
        let tokens = self.tokens;
        let mut j = open_idx + 1;
        while j + 3 <= close {
            if tokens[j].is_ident("Ordering")
                && tokens[j + 1].is_punct(':')
                && tokens[j + 2].is_punct(':')
                && tokens
                    .get(j + 3)
                    .is_some_and(|t| t.kind == TokenKind::Ident)
            {
                out.push(tokens[j + 3].text.clone());
                j += 4;
            } else {
                j += 1;
            }
        }
        out
    }
}

/// Classifies an atomic method name, if it is one.
fn atomic_op_for(name: &str) -> Option<AtomicOp> {
    match name {
        "load" => Some(AtomicOp::Load),
        "store" => Some(AtomicOp::Store),
        "swap" | "fetch_add" | "fetch_sub" | "fetch_and" | "fetch_or" | "fetch_xor"
        | "fetch_max" | "fetch_min" | "fetch_update" | "compare_exchange"
        | "compare_exchange_weak" | "compare_and_swap" => Some(AtomicOp::Rmw),
        _ => None,
    }
}

/// Field ident a method is invoked on: for `a.b.field.m(..)` (method at
/// `m_idx`) returns `field`; steps back over one `[..]` index group so
/// `self.slots[i].m(..)` resolves to `slots`.
fn receiver_field(tokens: &[Token], m_idx: usize) -> Option<String> {
    let mut j = m_idx.checked_sub(2)?;
    if tokens[j].is_punct(']') {
        // Walk back over the matched `[` and land on the indexed ident.
        let mut depth = 1usize;
        loop {
            j = j.checked_sub(1)?;
            if tokens[j].is_punct(']') {
                depth += 1;
            } else if tokens[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        j = j.checked_sub(1)?;
    }
    let t = tokens.get(j)?;
    (t.kind == TokenKind::Ident && !t.is_ident("self")).then(|| t.text.clone())
}

/// First argument ident of a call whose `(` sits at `open_idx`, skipping
/// leading `&` / `mut` (`cv.wait(&mut guard)` → `guard`).
fn first_arg_ident(tokens: &[Token], open_idx: usize) -> Option<String> {
    let mut j = open_idx + 1;
    while tokens
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        j += 1;
    }
    tokens
        .get(j)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
}

/// If the acquisition at `lock_idx` (`... field . lock ( )`) is the value
/// of a `let` statement, returns the bound name (same heuristic as the
/// pre-graph lexical rule).
fn let_binding_for(tokens: &[Token], lock_idx: usize) -> Option<String> {
    let mut j = lock_idx.checked_sub(2)?;
    loop {
        let t = &tokens[j];
        let part_of_chain = t.kind == TokenKind::Ident || t.is_punct('.') || t.is_punct(':');
        if !part_of_chain || j == 0 {
            break;
        }
        j -= 1;
    }
    if !tokens[j].is_punct('=') || (j > 0 && tokens[j - 1].is_punct('=')) {
        return None;
    }
    let mut k = j.checked_sub(1)?;
    let name = if tokens[k].kind == TokenKind::Ident && !tokens[k].is_ident("mut") {
        let n = tokens[k].text.clone();
        k = k.checked_sub(1)?;
        n
    } else {
        return None;
    };
    if tokens[k].is_ident("mut") {
        k = k.checked_sub(1)?;
    }
    tokens[k].is_ident("let").then_some(name)
}

/// Recursively expands a `use` tree (`a::b::{c, d as e, f::g}`) into flat
/// imports. Globs (`*`) and `self` leaves bind the enclosing segment.
fn parse_use_tree(tokens: &[Token], prefix: &[String], out: &mut Vec<Import>) {
    let mut segments: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text != "as" {
            segments.push(t.text.clone());
            i += 1;
        } else if t.is_punct(':') {
            i += 1;
        } else if t.is_punct('{') {
            // Group: recurse per comma-separated subtree.
            let mut depth = 1usize;
            let mut start = i + 1;
            let mut j = i + 1;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[j].is_punct(',') && depth == 1 {
                    let child_prefix: Vec<String> =
                        prefix.iter().chain(segments.iter()).cloned().collect();
                    parse_use_tree(&tokens[start..j], &child_prefix, out);
                    start = j + 1;
                }
                j += 1;
            }
            let child_prefix: Vec<String> =
                prefix.iter().chain(segments.iter()).cloned().collect();
            parse_use_tree(&tokens[start..j.min(tokens.len())], &child_prefix, out);
            return;
        } else if t.is_ident("as") {
            i += 1;
        } else if t.is_punct('*') {
            return; // glob: not resolvable
        } else {
            i += 1;
        }
        // Alias: `path as name`.
        if tokens.get(i).is_some_and(|t| t.is_ident("as")) {
            if let Some(alias) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                let target: Vec<String> =
                    prefix.iter().chain(segments.iter()).cloned().collect();
                if !target.is_empty() {
                    out.push(Import {
                        name: alias.text.clone(),
                        target,
                    });
                }
            }
            return;
        }
    }
    if segments.is_empty() && prefix.is_empty() {
        return;
    }
    // `self` leaf binds the enclosing segment.
    if segments.last().is_some_and(|s| s == "self") {
        segments.pop();
    }
    let target: Vec<String> = prefix.iter().chain(segments.iter()).cloned().collect();
    let Some(name) = target.last().cloned() else {
        return;
    };
    out.push(Import { name, target });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(path: &str, crate_dir: &str, src: &str) -> ParsedFile {
        let tokens = lexer::lex(src);
        let mask = lexer::test_mask(&tokens);
        parse_file(path, crate_dir, &tokens, &mask)
    }

    #[test]
    fn extracts_fns_with_module_and_impl_paths() {
        let src = r#"
            pub fn top() {}
            mod inner {
                pub struct W;
                impl W {
                    pub fn method(&self) {}
                    fn private(&self) {}
                }
            }
            impl Display for Wide {
                fn fmt(&self) {}
            }
        "#;
        let parsed = parse("crates/serve/src/lib.rs", "serve", src);
        let paths: Vec<String> = parsed.items.iter().map(FnItem::path).collect();
        assert_eq!(
            paths,
            [
                "serve::top",
                "serve::inner::W::method",
                "serve::inner::W::private",
                "serve::Wide::fmt",
            ]
        );
        assert!(parsed.items[0].is_pub);
        assert!(!parsed.items[2].is_pub);
    }

    #[test]
    fn base_module_mapping() {
        assert_eq!(
            base_module_of("crates/neural/src/layers/conv1d.rs", "neural"),
            ["neural", "layers", "conv1d"]
        );
        assert_eq!(
            base_module_of("crates/neural/src/layers/mod.rs", "neural"),
            ["neural", "layers"]
        );
        assert_eq!(base_module_of("crates/ms-sim/src/lib.rs", "ms-sim"), ["ms_sim"]);
        assert_eq!(
            base_module_of("crates/bench/src/bin/table1.rs", "bench"),
            ["bench"]
        );
    }

    #[test]
    fn records_calls_panics_and_allocs() {
        let src = r#"
            fn f(&self, xs: &[f32]) -> Vec<f32> {
                let mut out = Vec::new();
                self.step();
                helper(1);
                chem::formula::parse("H2O");
                out.push(xs[0]);
                let s = format!("x");
                xs.to_vec();
                opt.unwrap();
                res.expect("msg");
                panic!("boom");
                out
            }
        "#;
        let parsed = parse("crates/core/src/x.rs", "core", src);
        let item = &parsed.items[0];
        let kinds: Vec<&CallKind> = item.calls.iter().map(|c| &c.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k,
            CallKind::Method { name, on_self: true } if name == "step")));
        assert!(kinds.iter().any(|k| matches!(k,
            CallKind::Path(p) if p == &vec!["helper".to_string()])));
        assert!(kinds.iter().any(|k| matches!(k,
            CallKind::Path(p) if p.join("::") == "chem::formula::parse")));
        // `xs[0]` is not a panic site: only the explicit panic family is.
        let panic_kinds: Vec<PanicKind> = item.panics.iter().map(|p| p.kind).collect();
        assert_eq!(
            panic_kinds,
            [PanicKind::Unwrap, PanicKind::Expect, PanicKind::Macro]
        );
        let allocs: Vec<&str> = item.allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(allocs, ["Vec::new", "push", "format!", "to_vec"]);
    }

    #[test]
    fn use_imports_flatten_groups_and_aliases() {
        let src = r#"
            use neural::plan::FrozenPlan;
            use crate::queue::{BoundedQueue, PendingRequest as Pending};
            use std::sync::Arc;
        "#;
        let parsed = parse("crates/serve/src/engine.rs", "serve", src);
        let find = |name: &str| {
            parsed
                .imports
                .iter()
                .find(|i| i.name == name)
                .map(|i| i.target.join("::"))
        };
        assert_eq!(find("FrozenPlan").as_deref(), Some("neural::plan::FrozenPlan"));
        assert_eq!(find("BoundedQueue").as_deref(), Some("crate::queue::BoundedQueue"));
        assert_eq!(find("Pending").as_deref(), Some("crate::queue::PendingRequest"));
        assert_eq!(find("Arc").as_deref(), Some("std::sync::Arc"));
    }

    #[test]
    fn test_code_is_excluded_from_items_graph_data() {
        let src = r#"
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn case() { y.unwrap(); }
            }
        "#;
        let parsed = parse("crates/serve/src/x.rs", "serve", src);
        assert_eq!(parsed.items.len(), 2);
        assert!(!parsed.items[0].in_test);
        assert!(parsed.items[1].in_test);
    }

    #[test]
    fn lock_events_record_acquisitions_bindings_and_drops() {
        let src = r#"
            fn f(&self) {
                let guard = self.models.lock();
                {
                    self.state.lock();
                }
                drop(guard);
            }
        "#;
        let parsed = parse("crates/serve/src/x.rs", "serve", src);
        let events = &parsed.items[0].lock_events;
        let acquires: Vec<(&str, Option<&str>)> = events
            .iter()
            .filter_map(|e| match e {
                LockEvent::Acquire { field, binding, .. } => {
                    Some((field.as_str(), binding.as_deref()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(acquires, [("models", Some("guard")), ("state", None)]);
        assert!(events.iter().any(|e| matches!(e,
            LockEvent::DropBinding { name } if name == "guard")));
        assert!(events.contains(&LockEvent::Open));
        assert!(events.contains(&LockEvent::Close));
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = r#"
            macro_rules! m {
                () => { fn phantom() { x.unwrap(); } };
            }
            fn real() {}
        "#;
        let parsed = parse("crates/obs/src/lib.rs", "obs", src);
        let names: Vec<&str> = parsed.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }
}
