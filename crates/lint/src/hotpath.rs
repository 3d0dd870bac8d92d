//! The hot-path purity pass: call-graph reachability from declared hot
//! entry points, with an allocation/lock/clock/print deny list.
//!
//! The repo's core perf claim is that the playout/rollout path is
//! allocation-free and lock-free after warm-up. This pass makes the
//! claim mechanical: functions marked `// nmcs-lint: hot-entry`
//! (`PlayoutScratch::run`/`run_undo`, `nested_scratch`,
//! `TpTree::descend`, `Game::legal_moves_into`, the domains' scratch
//! `apply`/`undo` impls) are roots; everything reachable from them over
//! the workspace call graph is *hot* and must not:
//!
//! * allocate — `Box::new`, `Vec::new`/`with_capacity`/`from`,
//!   `String::*`, `vec!`/`format!`, `.collect()`, `.to_string()`/
//!   `.to_owned()`/`.to_vec()`, or `.clone()`/`T::clone()` where the
//!   receiver is provably a non-`Copy` workspace type (`Vec::new` does
//!   not itself allocate, but constructing owned containers per call is
//!   the pattern that grows into per-playout allocation — waive it where
//!   the buffer genuinely amortises);
//! * take locks — `.lock()`/`.try_lock()` (tree-parallel descent is
//!   lock-free; only the transposition table's per-expansion lock
//!   carries a waiver);
//! * read clocks — `Instant::now()`, `SystemTime`, `monotonic_now()`
//!   (the strided deadline poll in `SearchCtx::should_stop` is the one
//!   waived exception);
//! * print — `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!`.
//!
//! Call resolution is heuristic but typed where it can be: method
//! receivers are typed from `self`, owner fields, parameters, and simple
//! `let` bindings; a receiver typed as a *non-workspace* type (`Vec`,
//! `Arc`, …) produces no edge, an unknown receiver conservatively fans
//! out to every workspace method of that name, and single-uppercase
//! quals (`G::apply`) are treated as generics that may be any impl. The
//! dynamic side (`vendor/alloc_counter` + `tests/alloc_playout.rs`)
//! keeps the static verdict honest.

use crate::parser::{Call, Callee, FnItem, ParsedFile};
use crate::Finding;
use std::collections::{HashMap, HashSet, VecDeque};

/// Global function id: (file index, fn index).
type FnId = (usize, usize);

/// The hot entry points that must exist (annotated) somewhere in the
/// workspace: `(owner, name)`. If a refactor renames or drops one, the
/// pass fails loudly instead of silently analysing an empty hot set.
const REQUIRED_ENTRIES: &[(Option<&str>, &str)] = &[
    (Some("PlayoutScratch"), "run"),
    (Some("PlayoutScratch"), "run_undo"),
    (None, "nested_scratch"),
    (Some("TpTree"), "descend"),
    (Some("Game"), "legal_moves_into"),
];

/// Where the required-entries diagnostic is reported.
const ENTRY_REGISTRY_FILE: &str = "crates/core/src/search.rs";

/// One hot-reachable function, with the chain that made it hot.
#[derive(Debug, Clone)]
pub struct HotFnInfo {
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing brace.
    pub end_line: u32,
    /// Display name (`Owner::name` or `name`).
    pub name: String,
    /// How it became hot: `entry` or `entry → callee → …`.
    pub via: String,
}

struct Index<'a> {
    files: &'a [ParsedFile],
    /// Methods (fns with an owner) by name, test fns excluded.
    methods_by_name: HashMap<&'a str, Vec<FnId>>,
    /// Fns by (owner-or-trait, name): impl owners, trait-impl traits,
    /// and trait-default owners all index here.
    by_owner: HashMap<(&'a str, &'a str), Vec<FnId>>,
    /// Free fns by name.
    free_by_name: HashMap<&'a str, Vec<FnId>>,
    /// Workspace type and trait names (impl owners, traits, decls).
    workspace_types: HashSet<&'a str>,
    /// Non-`Copy` declared workspace types.
    non_copy_types: HashSet<&'a str>,
    /// Type name → field name → head type.
    fields: HashMap<&'a str, HashMap<&'a str, &'a str>>,
}

impl<'a> Index<'a> {
    fn build(files: &'a [ParsedFile]) -> Self {
        let mut ix = Index {
            files,
            methods_by_name: HashMap::new(),
            by_owner: HashMap::new(),
            free_by_name: HashMap::new(),
            workspace_types: HashSet::new(),
            non_copy_types: HashSet::new(),
            fields: HashMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for t in &file.types {
                ix.workspace_types.insert(&t.name);
                if !t.derives_copy {
                    ix.non_copy_types.insert(&t.name);
                }
                let fm = ix.fields.entry(t.name.as_str()).or_default();
                for (f, ty) in &t.fields {
                    fm.insert(f.as_str(), ty.as_str());
                }
            }
            for (gi, f) in file.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let id = (fi, gi);
                match &f.qual {
                    Some(q) => {
                        ix.workspace_types.insert(q.as_str());
                        ix.methods_by_name
                            .entry(f.name.as_str())
                            .or_default()
                            .push(id);
                        ix.by_owner
                            .entry((q.as_str(), f.name.as_str()))
                            .or_default()
                            .push(id);
                        if let Some(tr) = &f.trait_name {
                            ix.workspace_types.insert(tr.as_str());
                            if tr != q {
                                ix.by_owner
                                    .entry((tr.as_str(), f.name.as_str()))
                                    .or_default()
                                    .push(id);
                            }
                        }
                    }
                    None => {
                        ix.free_by_name.entry(f.name.as_str()).or_default().push(id);
                    }
                }
            }
        }
        ix
    }

    fn fn_at(&self, id: FnId) -> &'a FnItem {
        &self.files[id.0].fns[id.1]
    }

    /// Single-uppercase-letter names are generic parameters (`G`, `M`):
    /// a call qualified by one may land on any impl of that method.
    fn is_generic_name(name: &str) -> bool {
        name.len() == 1 && name.chars().all(|c| c.is_ascii_uppercase())
    }

    /// The receiver type of a method call, as far as it is knowable.
    fn receiver_type(&self, caller: &'a FnItem, call: &'a Call) -> Option<&'a str> {
        let Callee::Method {
            recv,
            recv_self_field,
            ..
        } = &call.callee
        else {
            return None;
        };
        let recv = recv.as_deref()?;
        if recv == "self" {
            return caller.qual.as_deref();
        }
        if *recv_self_field {
            let owner = caller.qual.as_deref()?;
            return self.fields.get(owner)?.get(recv).copied();
        }
        if let Some(p) = caller.params.iter().find(|p| p.name == recv) {
            return Some(&p.ty);
        }
        if let Some((_, ty)) = caller.lets.iter().find(|(n, _)| n == recv) {
            return Some(ty);
        }
        None
    }

    /// Free-fn resolution: same-file definitions shadow workspace-wide
    /// ones (Rust's actual scoping, approximately).
    fn resolve_free(&self, caller_file: usize, name: &str) -> Vec<FnId> {
        let Some(all) = self.free_by_name.get(name) else {
            return Vec::new();
        };
        let local: Vec<FnId> = all
            .iter()
            .copied()
            .filter(|id| id.0 == caller_file)
            .collect();
        if local.is_empty() {
            all.clone()
        } else {
            local
        }
    }

    /// Every callee a call site may reach.
    fn resolve(&self, caller_id: FnId, call: &'a Call) -> Vec<FnId> {
        let caller = self.fn_at(caller_id);
        match &call.callee {
            Callee::Free { name } => self.resolve_free(caller_id.0, name),
            Callee::Qualified { qual, name } => match qual.as_str() {
                "Self" => match caller.qual.as_deref() {
                    Some(owner) => self
                        .by_owner
                        .get(&(owner, name.as_str()))
                        .cloned()
                        .unwrap_or_default(),
                    None => self.resolve_free(caller_id.0, name),
                },
                "self" | "crate" | "super" => self.resolve_free(caller_id.0, name),
                q if self.workspace_types.contains(q) => self
                    .by_owner
                    .get(&(q, name.as_str()))
                    .cloned()
                    .unwrap_or_default(),
                q if Self::is_generic_name(q) => self
                    .methods_by_name
                    .get(name.as_str())
                    .cloned()
                    .unwrap_or_default(),
                q if q.chars().next().is_some_and(|c| c.is_lowercase()) => {
                    // Module-qualified free call.
                    self.free_by_name
                        .get(name.as_str())
                        .cloned()
                        .unwrap_or_default()
                }
                // Unknown uppercase qualifier: a std/vendored type
                // (`Vec::new`, `Arc::new`) — not a workspace edge.
                _ => Vec::new(),
            },
            Callee::Method { name, .. } => {
                // Denied method names are std iterator/lock operations;
                // they are reported at the call site, never resolved as
                // workspace edges (`.collect()` must not drag a
                // workspace fn that happens to be called `collect` into
                // the hot set).
                if DENY_METHODS.contains(&name.as_str()) {
                    return Vec::new();
                }
                match self.receiver_type(caller, call) {
                    Some(ty) if self.workspace_types.contains(ty) => self
                        .by_owner
                        .get(&(ty, name.as_str()))
                        .cloned()
                        .unwrap_or_default(),
                    Some(ty) if Self::is_generic_name(ty) || ty == "Self" => self
                        .methods_by_name
                        .get(name.as_str())
                        .cloned()
                        .unwrap_or_default(),
                    // Typed receiver of a non-workspace type: std call.
                    Some(_) => Vec::new(),
                    // Unknown receiver: any workspace method of this name
                    // — except ubiquitous std-container names, where the
                    // fanout is overwhelmingly noise (`bufs.moves.push`
                    // must not drag `BoundedQueue::push` into the hot
                    // set). A hot call to a workspace queue still
                    // resolves when the receiver is typed.
                    None if COMMON_CONTAINER_METHODS.contains(&name.as_str()) => Vec::new(),
                    None => self
                        .methods_by_name
                        .get(name.as_str())
                        .cloned()
                        .unwrap_or_default(),
                }
            }
        }
    }
}

/// BFS over the call graph from every annotated entry; returns each hot
/// fn with its provenance chain, in deterministic (file, fn) order.
fn hot_set(ix: &Index) -> Vec<(FnId, String)> {
    let mut parent: HashMap<FnId, Option<FnId>> = HashMap::new();
    let mut queue = VecDeque::new();
    for (fi, file) in ix.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.hot_entry && !f.in_test {
                parent.insert((fi, gi), None);
                queue.push_back((fi, gi));
            }
        }
    }
    while let Some(id) = queue.pop_front() {
        let f = ix.fn_at(id);
        for call in &f.calls {
            for callee in ix.resolve(id, call) {
                if callee != id && !parent.contains_key(&callee) {
                    parent.insert(callee, Some(id));
                    queue.push_back(callee);
                }
            }
        }
    }
    let mut ids: Vec<FnId> = parent.keys().copied().collect();
    ids.sort();
    ids.into_iter()
        .map(|id| {
            // Provenance: entry → … → this fn, truncated for sanity.
            let mut chain = vec![display_name(ix.fn_at(id))];
            let mut cur = id;
            while let Some(Some(p)) = parent.get(&cur) {
                chain.push(display_name(ix.fn_at(*p)));
                cur = *p;
                if chain.len() >= 5 {
                    chain.push("…".to_string());
                    break;
                }
            }
            chain.reverse();
            (id, chain.join(" → "))
        })
        .collect()
}

fn display_name(f: &FnItem) -> String {
    match &f.qual {
        Some(q) => format!("{q}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Macros denied on the hot path.
const DENY_MACROS: &[&str] = &[
    "vec", "format", "println", "eprintln", "print", "eprint", "dbg",
];

/// `Qual::name` pairs denied on the hot path.
const DENY_QUALIFIED: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Instant", "now"),
    ("SystemTime", "now"),
];

/// Method names denied on the hot path regardless of receiver.
const DENY_METHODS: &[&str] = &[
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "lock",
    "try_lock",
];

/// Method names so common on std containers/iterators that an *untyped*
/// receiver calling them must not fan out to same-named workspace
/// methods. Typed receivers still resolve normally.
const COMMON_CONTAINER_METHODS: &[&str] = &[
    "push",
    "pop",
    "len",
    "is_empty",
    "clear",
    "extend",
    "insert",
    "remove",
    "swap_remove",
    "truncate",
    "swap",
    "get",
    "contains",
    "iter",
    "iter_mut",
    "first",
    "last",
    "drain",
    "retain",
    "next",
    "take",
];

fn deny_reason(ix: &Index, f: &FnItem, call: &Call) -> Option<String> {
    match &call.callee {
        Callee::Qualified { qual, name } => {
            if DENY_QUALIFIED.iter().any(|(q, n)| q == qual && n == name) {
                let kind = match (qual.as_str(), name.as_str()) {
                    ("Instant", "now") | ("SystemTime", _) => "clock read",
                    ("Box", _) => "heap allocation",
                    _ => "owned-container construction",
                };
                return Some(format!("{kind} `{qual}::{name}(…)`"));
            }
            if name == "monotonic_now" || qual == "SystemTime" {
                return Some(format!("clock read `{qual}::{name}(…)`"));
            }
            if name == "clone" && ix.non_copy_types.contains(qual.as_str()) {
                return Some(format!("`{qual}::clone(…)` of a non-Copy workspace type"));
            }
            None
        }
        Callee::Free { name } => {
            (name == "monotonic_now").then(|| "clock read `monotonic_now()`".to_string())
        }
        Callee::Method { name, recv, .. } => {
            if DENY_METHODS.contains(&name.as_str()) {
                let kind = if matches!(name.as_str(), "lock" | "try_lock") {
                    "lock acquisition"
                } else {
                    "allocation"
                };
                return Some(format!("{kind} `.{name}(…)`"));
            }
            if name == "clone"
                && recv.as_deref() == Some("self")
                && f.qual
                    .as_deref()
                    .is_some_and(|q| ix.non_copy_types.contains(q))
            {
                return Some(format!(
                    "`self.clone()` of non-Copy workspace type `{}`",
                    f.qual.as_deref().unwrap_or_default()
                ));
            }
            None
        }
    }
}

/// Runs the purity pass over a set of parsed files, producing hot-path
/// findings (pre-waiver) and the hot-set report.
pub fn analyze(files: &[ParsedFile]) -> (Vec<Finding>, Vec<HotFnInfo>) {
    let ix = Index::build(files);
    let hot = hot_set(&ix);
    let mut findings = Vec::new();
    let mut report = Vec::new();
    for (id, via) in &hot {
        let f = ix.fn_at(*id);
        let file = &files[id.0].rel;
        report.push(HotFnInfo {
            file: file.clone(),
            line: f.line,
            end_line: f.end_line,
            name: display_name(f),
            via: via.clone(),
        });
        for call in &f.calls {
            if let Some(what) = deny_reason(&ix, f, call) {
                findings.push(Finding {
                    rule: "hot-path",
                    file: file.clone(),
                    line: call.line,
                    message: format!(
                        "{what} in hot-path fn `{}` (hot via {via}); the playout/rollout \
                         path must stay allocation-, lock-, and clock-free",
                        display_name(f)
                    ),
                    waived: false,
                });
            }
        }
        for m in &f.macros {
            if DENY_MACROS.contains(&m.name.as_str()) {
                findings.push(Finding {
                    rule: "hot-path",
                    file: file.clone(),
                    line: m.line,
                    message: format!(
                        "`{}!` in hot-path fn `{}` (hot via {via}); the playout/rollout \
                         path must stay allocation-, lock-, and clock-free",
                        m.name,
                        display_name(f)
                    ),
                    waived: false,
                });
            }
        }
    }
    (findings, report)
}

/// Workspace-mode check that the declared entry registry is intact: a
/// missing or un-annotated required entry is a finding, so a refactor
/// cannot silently shrink the hot set to nothing.
pub fn required_entry_findings(files: &[ParsedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (qual, name) in REQUIRED_ENTRIES {
        let found = files
            .iter()
            .flat_map(|f| &f.fns)
            .any(|f| f.hot_entry && f.name == *name && f.qual.as_deref() == *qual);
        if !found {
            let disp = match qual {
                Some(q) => format!("{q}::{name}"),
                None => (*name).to_string(),
            };
            out.push(Finding {
                rule: "hot-path",
                file: ENTRY_REGISTRY_FILE.to_string(),
                line: 1,
                message: format!(
                    "required hot entry `{disp}` is missing its `nmcs-lint: hot-entry` \
                     annotation (or was renamed) — the purity pass would go blind; \
                     re-annotate it or update REQUIRED_ENTRIES in the linter"
                ),
                waived: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokKind, Token};
    use crate::parser::{hot_entry_lines, parse_file};

    fn parsed(rel: &str, src: &str) -> ParsedFile {
        let all = lex(src);
        let hot = hot_entry_lines(&all);
        let toks: Vec<Token> = all
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment(_) | TokKind::BlockComment(_)))
            .collect();
        let in_test = crate::test_regions(&toks);
        parse_file(rel, &toks, &in_test, &hot, crate::is_test_path(rel))
    }

    #[test]
    fn transitive_callee_is_denied() {
        let files = [parsed(
            "crates/core/src/x.rs",
            "// nmcs-lint: hot-entry\n\
             fn rollout(g: &mut Grid) { step(g); }\n\
             fn step(g: &mut Grid) { helper(); }\n\
             fn helper() { let b = Box::new(3); }\n\
             fn cold() { let b = Box::new(4); }\n\
             struct Grid { v: u8 }\n",
        )];
        let (findings, report) = analyze(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("rollout → step → helper"));
        assert_eq!(report.len(), 3, "{report:?}");
    }

    #[test]
    fn typed_receivers_limit_the_fanout() {
        // `seq.push` with `seq: &mut Vec<_>` must NOT edge into the
        // workspace `Queue::push`, but the untyped `q.push(…)` must.
        let files = [parsed(
            "crates/core/src/x.rs",
            "struct Queue { v: u8 }\n\
             impl Queue { fn push(&mut self) { let s = String::new(); } }\n\
             // nmcs-lint: hot-entry\n\
             fn hot_a(seq: &mut Vec<u8>) { seq.push(1); }\n\
             fn cold_b(q: &mut Queue) { q.push(); }\n",
        )];
        let (findings, report) = analyze(&files);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn method_calls_fan_out_to_trait_impls() {
        let files = [parsed(
            "crates/core/src/x.rs",
            "trait Game { fn play(&mut self); }\n\
             struct A { v: u8 }\n\
             impl Game for A { fn play(&mut self) { self.grow(); } }\n\
             impl A { fn grow(&mut self) { let v: Vec<u8> = Vec::new(); } }\n\
             // nmcs-lint: hot-entry\n\
             fn hot(g: &mut G_UNKNOWN) { g.play(); }\n",
        )];
        // `G_UNKNOWN` is not a workspace type and not single-letter; the
        // receiver type is "known non-workspace" → no edge. Use an
        // untyped receiver instead to check the fanout:
        let files2 = [parsed(
            "crates/core/src/x.rs",
            "trait Game { fn play(&mut self); }\n\
             struct A { v: u8 }\n\
             impl Game for A { fn play(&mut self) { self.grow(); } }\n\
             impl A { fn grow(&mut self) { let v: Vec<u8> = Vec::new(); } }\n\
             // nmcs-lint: hot-entry\n\
             fn hot(g: &mut G) { g.play(); }\n",
        )];
        let (f1, _) = analyze(&files);
        assert!(f1.is_empty(), "{f1:?}");
        let (f2, _) = analyze(&files2);
        assert_eq!(f2.len(), 1, "{f2:?}");
        assert!(f2[0].message.contains("Vec::new"));
    }

    #[test]
    fn clone_on_non_copy_workspace_type_is_denied_copy_is_not() {
        let files = [parsed(
            "crates/core/src/x.rs",
            "#[derive(Clone)] struct Big { v: u8 }\n\
             #[derive(Clone, Copy)] struct Small { v: u8 }\n\
             impl Big { // nmcs-lint: hot-entry\n\
               fn dup(&self) -> Big { self.clone() } }\n\
             impl Small { // nmcs-lint: hot-entry\n\
               fn dup(&self) -> Small { self.clone() } }\n",
        )];
        let (findings, _) = analyze(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Big"));
    }

    #[test]
    fn locks_clocks_and_prints_are_denied() {
        let files = [parsed(
            "crates/core/src/x.rs",
            "// nmcs-lint: hot-entry\n\
             fn hot(m: &M) { m.lock(); let t = Instant::now(); println!(\"x\"); }\n",
        )];
        let (findings, _) = analyze(&files);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("lock acquisition")));
        assert!(msgs.iter().any(|m| m.contains("clock read")));
        assert!(msgs.iter().any(|m| m.contains("println")));
    }

    #[test]
    fn required_entries_fire_when_absent() {
        let files = [parsed("crates/core/src/x.rs", "fn unrelated() {}\n")];
        let missing = required_entry_findings(&files);
        assert_eq!(missing.len(), REQUIRED_ENTRIES.len());
        assert!(missing.iter().all(|f| !f.waived));
    }

    #[test]
    fn test_fns_are_neither_entries_nor_targets() {
        let files = [parsed(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n\
               // nmcs-lint: hot-entry\n\
               fn fake_entry() { let b = Box::new(1); }\n\
             }\n\
             // nmcs-lint: hot-entry\n\
             fn hot(h: &H) { h.helper(); }\n\
             #[cfg(test)]\nmod more { struct H2; impl H2 { fn helper(&self) { let b = Box::new(2); } } }\n",
        )];
        let (findings, report) = analyze(&files);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(report.len(), 1);
    }
}
