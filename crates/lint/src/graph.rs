//! Workspace call-graph construction.
//!
//! Nodes are every parsed function in the workspace; edges are call
//! sites resolved **conservatively**: when the receiver type of a
//! method call cannot be pinned down, the edge fans out to every
//! in-workspace method of that name, and `dyn Trait` / trait-default
//! dispatch fans out to every in-workspace impl of the trait. Each edge
//! records whether its resolution was *precise* (unique receiver type
//! known) — the recursion rule only trusts precise edges, while the
//! reachability rules (purity, taint) deliberately consume the
//! over-approximation: for those, a false edge costs a sanctioned
//! finding, a missed edge costs a silent hot-path allocation.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{FileItems, FnDef, TypeHint};
use crate::tok::{Tok, TokKind};
use crate::{DetScope, TargetKind};

/// One parsed file, as handed to the graph builder.
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Crate directory name (`os`, `cache`, …; `""` for the root).
    pub crate_name: String,
    /// Determinism scope of the owning crate.
    pub det: DetScope,
    /// Target classification of the file.
    pub target: TargetKind,
    pub toks: Vec<Tok>,
    pub items: FileItems,
}

/// A function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning [`ParsedFile`].
    pub file_idx: usize,
    /// Workspace-relative file path (denormalized for findings).
    pub file: String,
    pub crate_name: String,
    pub def: FnDef,
    /// Display path: `chameleon_os::guidance::GuidanceEngine::record`.
    pub fqn: String,
    /// Allowlist scope: `file#Type::name` or `file#name`.
    pub scope: String,
}

/// One call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    pub to: usize,
    /// Call-site line in the caller's file.
    pub line: usize,
    /// Resolution was unambiguous (same-type/self/use-resolved); only
    /// these edges feed the recursion rule.
    pub precise: bool,
}

/// The workspace call graph.
pub struct Graph {
    pub nodes: Vec<FnNode>,
    pub edges: Vec<Vec<Edge>>,
    /// Crates that contributed at least one node (coverage check).
    pub crates_covered: BTreeSet<String>,
}

impl Graph {
    /// Builds the graph over all parsed files.
    pub fn build(files: &[ParsedFile]) -> Graph {
        let mut nodes: Vec<FnNode> = Vec::new();
        for (file_idx, pf) in files.iter().enumerate() {
            for def in &pf.items.fns {
                let mut path_parts: Vec<String> = vec![crate_ident(&pf.crate_name)];
                path_parts.extend(file_module(&pf.rel_path));
                path_parts.extend(def.modules.iter().cloned());
                let local = match &def.owner {
                    Some(o) => format!("{}::{}", o.type_name, def.name),
                    None => def.name.clone(),
                };
                path_parts.push(local.clone());
                nodes.push(FnNode {
                    file_idx,
                    file: pf.rel_path.clone(),
                    crate_name: pf.crate_name.clone(),
                    def: def.clone(),
                    fqn: path_parts.join("::"),
                    scope: format!("{}#{}", pf.rel_path, local),
                });
            }
        }

        let index = Index::build(files, &nodes);
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            let pf = &files[node.file_idx];
            for call in extract_calls(&pf.toks, node.def.body.clone()) {
                let (targets, precise) = index.resolve(&call, node, pf, &nodes);
                for to in targets {
                    // A name-fallback self-edge (`x.step()` resolving back
                    // to the enclosing `step` through the conservative
                    // method index) is almost always resolution noise:
                    // keep it for reachability, but never as precise, so
                    // the recursion rule ignores it.
                    let precise =
                        precise && !(to == id && matches!(call.kind, CallKind::Method(_)));
                    edges[id].push(Edge {
                        to,
                        line: call.line,
                        precise,
                    });
                }
            }
            // Dedup parallel edges to the same target, keeping the most
            // precise one (findings only need one witness line).
            edges[id].sort_by_key(|e| (e.to, std::cmp::Reverse(e.precise), e.line));
            edges[id].dedup_by_key(|e| e.to);
        }

        let crates_covered = nodes.iter().map(|n| n.crate_name.clone()).collect();
        Graph {
            nodes,
            edges,
            crates_covered,
        }
    }

    /// Total edge count (after dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// The crate ident a path would use (`chameleon_os` for `os`, plain
/// `chameleon` for the root facade).
pub fn crate_ident(crate_name: &str) -> String {
    if crate_name.is_empty() {
        "chameleon".to_string()
    } else {
        format!("chameleon_{crate_name}")
    }
}

/// Module path a file contributes (`crates/os/src/guidance.rs` →
/// `["guidance"]`; `lib.rs`/`main.rs`/`mod.rs` → `[]`).
fn file_module(rel_path: &str) -> Vec<String> {
    let mut segs: Vec<&str> = rel_path.split('/').collect();
    let Some(file) = segs.pop() else {
        return Vec::new();
    };
    let mut mods: Vec<String> = Vec::new();
    let mut seen_src = false;
    for s in segs {
        if s == "src" || s == "tests" || s == "benches" || s == "examples" {
            seen_src = true;
            mods.clear();
            continue;
        }
        if seen_src && s != "bin" {
            mods.push(s.to_string());
        }
    }
    let stem = file.trim_end_matches(".rs");
    if !matches!(stem, "lib" | "main" | "mod") {
        mods.push(stem.to_string());
    }
    mods
}

/// How a call site spelled its callee.
#[derive(Debug, Clone)]
enum CallKind {
    /// `name(…)`.
    Direct,
    /// `a::b::name(…)`, or the fn reference `a::b::name` — segments
    /// exclude the final name.
    Path(Vec<String>),
    /// `.name(…)` with the classified receiver.
    Method(Receiver),
}

#[derive(Debug, Clone)]
enum Receiver {
    /// `self.name(…)`.
    SelfDirect,
    /// `self.f1.f2….name(…)` — the field chain, outermost first.
    SelfFields(Vec<String>),
    /// Anything else (`local.name(…)`, `expr().name(…)`).
    Unknown,
}

#[derive(Debug, Clone)]
struct Call {
    name: String,
    kind: CallKind,
    line: usize,
}

/// Keywords that look like `ident (` but are not calls, plus enum-ish
/// constructors we never want edges for.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "fn", "let",
    "mut", "ref", "box", "await", "yield", "where", "impl", "dyn", "unsafe", "Some", "Ok", "Err",
    "None",
];

/// Extracts call sites from a body token range.
fn extract_calls(toks: &[Tok], body: std::ops::Range<usize>) -> Vec<Call> {
    let mut calls = Vec::new();
    let mut j = body.start;
    while j < body.end {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            j += 1;
            continue;
        }
        // Look past an optional turbofish for the opening paren:
        // `name::<T>(…)` / `name(…)`.
        let mut after = j + 1;
        if toks.get(after).is_some_and(|t| t.is_punct(':'))
            && toks.get(after + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(after + 2).is_some_and(|t| t.is_punct('<'))
        {
            after = skip_generics_from(toks, after + 2, body.end);
        }
        let is_call = toks.get(after).is_some_and(|t| t.is_punct('('));
        let prev = j.checked_sub(1).and_then(|p| toks.get(p));
        let prev2 = j.checked_sub(2).and_then(|p| toks.get(p));
        // A fn passed by path as a value (`.map(Type::f)`) is called
        // later: a lowercase last path segment with no `(`, `::` or `!`.
        let is_ref = !is_call
            && prev.is_some_and(|t| t.is_punct(':'))
            && prev2.is_some_and(|t| t.is_punct(':'))
            && t.text.starts_with(|c: char| c.is_ascii_lowercase())
            && !toks
                .get(j + 1)
                .is_some_and(|t| t.is_punct(':') || t.is_punct('!'));
        if !(is_call || is_ref) || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            j += 1;
            continue;
        }
        if prev.is_some_and(|t| t.is_ident("fn")) {
            // A nested `fn` definition's own name.
            j = after + 1;
            continue;
        }
        let call = if prev.is_some_and(|t| t.is_punct('.')) {
            Call {
                name: t.text.clone(),
                kind: CallKind::Method(classify_receiver(toks, j - 1, body.start)),
                line: t.line,
            }
        } else if prev.is_some_and(|t| t.is_punct(':')) && prev2.is_some_and(|t| t.is_punct(':')) {
            let segs = path_segments_before(toks, j - 1, body.start);
            Call {
                name: t.text.clone(),
                kind: CallKind::Path(segs),
                line: t.line,
            }
        } else {
            Call {
                name: t.text.clone(),
                kind: CallKind::Direct,
                line: t.line,
            }
        };
        calls.push(call);
        j = after + 1;
    }
    calls
}

/// Classifies the receiver ending at the `.` token index `dot`.
fn classify_receiver(toks: &[Tok], dot: usize, floor: usize) -> Receiver {
    // Walk back through `self (. ident)*`; anything else — call results,
    // index expressions, locals — is Unknown.
    let mut fields: Vec<String> = Vec::new();
    let mut i = dot;
    loop {
        let Some(prev_idx) = i.checked_sub(1).filter(|p| *p >= floor) else {
            return Receiver::Unknown;
        };
        let prev = &toks[prev_idx];
        if prev.kind != TokKind::Ident {
            return Receiver::Unknown;
        }
        if prev.is_ident("self") {
            fields.reverse();
            return if fields.is_empty() {
                Receiver::SelfDirect
            } else {
                Receiver::SelfFields(fields)
            };
        }
        fields.push(prev.text.clone());
        let Some(p2) = prev_idx.checked_sub(1).filter(|p| *p >= floor) else {
            return Receiver::Unknown;
        };
        if !toks[p2].is_punct('.') {
            return Receiver::Unknown;
        }
        i = p2;
    }
}

/// Collects `a::b::` path segments ending at the `::` whose second `:`
/// sits at `colon2` (exclusive of the callee name).
fn path_segments_before(toks: &[Tok], colon2: usize, floor: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut first_colon = colon2.saturating_sub(1);
    while let Some(prev_idx) = first_colon.checked_sub(1).filter(|p| *p >= floor) {
        let prev = &toks[prev_idx];
        if prev.kind != TokKind::Ident {
            // `<T as Trait>::f` and friends: give up on qualified paths.
            break;
        }
        segs.push(prev.text.clone());
        let Some(c2) = prev_idx.checked_sub(1).filter(|p| *p >= floor) else {
            break;
        };
        let Some(c1) = c2.checked_sub(1).filter(|p| *p >= floor) else {
            break;
        };
        if !(toks[c2].is_punct(':') && toks[c1].is_punct(':')) {
            break;
        }
        first_colon = c1;
    }
    segs.reverse();
    segs
}

fn skip_generics_from(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        let t = &toks[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('-')) {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Cross-file resolution indexes.
struct Index {
    /// Free functions by bare name.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Free functions by (file, name) — same-file resolution first.
    free_by_file: BTreeMap<(usize, String), Vec<usize>>,
    /// Impl/trait methods by bare name (non-test only).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by (type name, method name).
    methods_by_type: BTreeMap<(String, String), Vec<usize>>,
    /// Methods by (trait name, method name) over impls of that trait,
    /// plus trait-decl defaults.
    methods_by_trait: BTreeMap<(String, String), Vec<usize>>,
    /// Struct field types by (type name, field name).
    fields: BTreeMap<(String, String), TypeHint>,
    /// Traits implemented per type name.
    traits_of_type: BTreeMap<String, Vec<String>>,
}

impl Index {
    fn build(files: &[ParsedFile], nodes: &[FnNode]) -> Index {
        let mut ix = Index {
            free_by_name: BTreeMap::new(),
            free_by_file: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            methods_by_type: BTreeMap::new(),
            methods_by_trait: BTreeMap::new(),
            fields: BTreeMap::new(),
            traits_of_type: BTreeMap::new(),
        };
        for (id, n) in nodes.iter().enumerate() {
            if n.def.in_test {
                continue; // test helpers never back production edges
            }
            match &n.def.owner {
                None => {
                    ix.free_by_name
                        .entry(n.def.name.clone())
                        .or_default()
                        .push(id);
                    ix.free_by_file
                        .entry((n.file_idx, n.def.name.clone()))
                        .or_default()
                        .push(id);
                }
                Some(o) => {
                    ix.methods_by_name
                        .entry(n.def.name.clone())
                        .or_default()
                        .push(id);
                    // Trait-decl items (defaults and body-less required
                    // methods) are dispatch targets via the trait index
                    // only; putting them in the typed index would let a
                    // decl's empty body shadow the real impls.
                    if !o.in_trait_decl {
                        ix.methods_by_type
                            .entry((o.type_name.clone(), n.def.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    if let Some(tr) = &o.trait_name {
                        ix.methods_by_trait
                            .entry((tr.clone(), n.def.name.clone()))
                            .or_default()
                            .push(id);
                        if !o.in_trait_decl {
                            let ts = ix.traits_of_type.entry(o.type_name.clone()).or_default();
                            if !ts.contains(tr) {
                                ts.push(tr.clone());
                            }
                        }
                    }
                }
            }
        }
        for pf in files {
            for s in &pf.items.structs {
                for (field, hint) in &s.fields {
                    ix.fields
                        .insert((s.name.clone(), field.clone()), hint.clone());
                }
            }
        }
        ix
    }

    /// Resolves one call from `node` to target node ids plus a precision
    /// flag.
    fn resolve(
        &self,
        call: &Call,
        node: &FnNode,
        pf: &ParsedFile,
        nodes: &[FnNode],
    ) -> (Vec<usize>, bool) {
        match &call.kind {
            CallKind::Direct => {
                if let Some(ids) = self.free_by_file.get(&(node.file_idx, call.name.clone())) {
                    return (ids.clone(), ids.len() == 1);
                }
                // `use crate_x::mod::f;` then `f(…)` — match the imported
                // path against free-fn FQNs.
                for (alias, path) in &pf.items.uses {
                    if alias == &call.name && path.last().map(String::as_str) == Some(&call.name) {
                        let ids = self.free_fns_matching_path(path, nodes);
                        if !ids.is_empty() {
                            let precise = ids.len() == 1;
                            return (ids, precise);
                        }
                    }
                }
                // Same-crate free fn (sibling module, re-export).
                if let Some(ids) = self.free_by_name.get(&call.name) {
                    let in_crate: Vec<usize> = ids
                        .iter()
                        .copied()
                        .filter(|&id| nodes[id].crate_name == node.crate_name)
                        .collect();
                    if !in_crate.is_empty() {
                        let precise = in_crate.len() == 1;
                        return (in_crate, precise);
                    }
                }
                (Vec::new(), false)
            }
            CallKind::Path(segs) => self.resolve_path_call(segs, &call.name, node, pf, nodes),
            CallKind::Method(recv) => {
                let (mut ids, precise) = self.resolve_method(recv, &call.name, node);
                // `.name(…)` dispatches on a receiver, so associated
                // functions (no `self` param) can never be its target —
                // dropping them keeps iterator adapters like `.all(…)`
                // from fanning out to a workspace `Type::all()`.
                ids.retain(|&id| nodes[id].def.has_self);
                (ids, precise)
            }
        }
    }

    /// Free fns whose FQN ends with the given path (joined on `::`).
    fn free_fns_matching_path(&self, path: &[String], nodes: &[FnNode]) -> Vec<usize> {
        let Some(name) = path.last() else {
            return Vec::new();
        };
        let suffix = path.join("::");
        self.free_by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| fqn_has_suffix(&nodes[id].fqn, &suffix))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn resolve_path_call(
        &self,
        segs: &[String],
        name: &str,
        node: &FnNode,
        pf: &ParsedFile,
        nodes: &[FnNode],
    ) -> (Vec<usize>, bool) {
        // Expand a leading use-alias and strip `crate`/`self`/`super`.
        let mut segs: Vec<String> = segs.to_vec();
        while segs
            .first()
            .is_some_and(|s| s == "crate" || s == "self" || s == "super")
        {
            segs.remove(0);
        }
        if let Some(first) = segs.first().cloned() {
            for (alias, path) in &pf.items.uses {
                if *alias == first {
                    let mut expanded = path.clone();
                    expanded.extend(segs.iter().skip(1).cloned());
                    segs = expanded;
                    break;
                }
            }
        }

        // `Type::method` / `Self::method` / `Trait::method`.
        if let Some(last) = segs.last() {
            let type_name = if last == "Self" {
                node.def.owner.as_ref().map(|o| o.type_name.clone())
            } else {
                Some(last.clone())
            };
            if let Some(ty) = type_name {
                if let Some(ids) = self.methods_by_type.get(&(ty.clone(), name.to_string())) {
                    return (ids.clone(), ids.len() == 1);
                }
                if let Some(ids) = self.methods_by_trait.get(&(ty, name.to_string())) {
                    return (ids.clone(), false);
                }
            }
        }

        // Module-pathed free fn: `guidance::decay(…)`, `chameleon_os::boot(…)`.
        let mut full = segs.clone();
        full.push(name.to_string());
        let matched = self.free_fns_matching_path(&full, nodes);
        if !matched.is_empty() {
            let precise = matched.len() == 1;
            return (matched, precise);
        }
        // Fall back to any free fn of this name (re-exports or renamed
        // segments the suffix match can't see).
        if let Some(ids) = self.free_by_name.get(name) {
            return (ids.clone(), ids.len() == 1);
        }
        (Vec::new(), false)
    }

    fn resolve_method(&self, recv: &Receiver, name: &str, node: &FnNode) -> (Vec<usize>, bool) {
        match recv {
            Receiver::SelfDirect => {
                if let Some(o) = &node.def.owner {
                    if let Some(ids) = self
                        .methods_by_type
                        .get(&(o.type_name.clone(), name.to_string()))
                    {
                        return (ids.clone(), ids.len() == 1);
                    }
                    // Inside a trait decl, or an impl that inherits a
                    // default: every impl of the trait plus the default
                    // body — conservative dispatch.
                    if let Some(tr) = &o.trait_name {
                        if let Some(ids) =
                            self.methods_by_trait.get(&(tr.clone(), name.to_string()))
                        {
                            return (ids.clone(), false);
                        }
                    }
                    // A default method from some trait the type impls.
                    if let Some(traits) = self.traits_of_type.get(&o.type_name) {
                        let mut ids: Vec<usize> = Vec::new();
                        for tr in traits {
                            if let Some(m) =
                                self.methods_by_trait.get(&(tr.clone(), name.to_string()))
                            {
                                ids.extend(m.iter().copied());
                            }
                        }
                        if !ids.is_empty() {
                            ids.sort_unstable();
                            ids.dedup();
                            return (ids, false);
                        }
                    }
                }
                (Vec::new(), false)
            }
            Receiver::SelfFields(fields) => {
                let Some(owner) = node.def.owner.as_ref() else {
                    return self.all_methods(name);
                };
                // Fold the field chain through struct field types.
                let mut hint = TypeHint::Concrete(owner.type_name.clone());
                for f in fields {
                    let TypeHint::Concrete(ty) = &hint else {
                        return self.all_methods(name);
                    };
                    match self.fields.get(&(ty.clone(), f.clone())) {
                        Some(h) => hint = h.clone(),
                        None => return self.all_methods(name),
                    }
                }
                match hint {
                    TypeHint::Concrete(ty) => {
                        if let Some(ids) = self.methods_by_type.get(&(ty.clone(), name.to_string()))
                        {
                            (ids.clone(), ids.len() == 1)
                        } else if let Some(traits) = self.traits_of_type.get(&ty) {
                            // Default trait methods inherited by `ty`.
                            let mut ids: Vec<usize> = Vec::new();
                            for tr in traits {
                                if let Some(m) =
                                    self.methods_by_trait.get(&(tr.clone(), name.to_string()))
                                {
                                    ids.extend(m.iter().copied());
                                }
                            }
                            ids.sort_unstable();
                            ids.dedup();
                            (ids, false)
                        } else {
                            // A std/vendor type: no workspace edges — the
                            // precision that keeps `Vec::push` quiet.
                            (Vec::new(), true)
                        }
                    }
                    TypeHint::DynTrait(tr) => {
                        let ids = self
                            .methods_by_trait
                            .get(&(tr, name.to_string()))
                            .cloned()
                            .unwrap_or_default();
                        (ids, false)
                    }
                    TypeHint::Unknown => self.all_methods(name),
                }
            }
            Receiver::Unknown => self.all_methods(name),
        }
    }

    /// The conservative fallback: every non-test method of this name.
    fn all_methods(&self, name: &str) -> (Vec<usize>, bool) {
        (
            self.methods_by_name.get(name).cloned().unwrap_or_default(),
            false,
        )
    }
}

/// `fqn` ends with `suffix` on a `::` segment boundary.
fn fqn_has_suffix(fqn: &str, suffix: &str) -> bool {
    fqn == suffix
        || fqn
            .strip_suffix(suffix)
            .is_some_and(|head| head.ends_with("::"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::tok::tokenize;

    fn file(rel_path: &str, crate_name: &str, src: &str) -> ParsedFile {
        let toks = tokenize(src);
        let items = parse_items(&toks);
        ParsedFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            det: DetScope::Strict,
            target: TargetKind::Lib,
            toks,
            items,
        }
    }

    fn node_id(g: &Graph, fqn_suffix: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| fqn_has_suffix(&n.fqn, fqn_suffix))
            .unwrap_or_else(|| panic!("no node matching {fqn_suffix}"))
    }

    fn has_edge(g: &Graph, from: &str, to: &str) -> bool {
        let f = node_id(g, from);
        let t = node_id(g, to);
        g.edges[f].iter().any(|e| e.to == t)
    }

    #[test]
    fn direct_and_self_calls_resolve() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "fn helper() {}\n\
             struct S;\n\
             impl S {\n  fn run(&self) { helper(); self.step(); }\n  fn step(&self) {}\n}\n",
        )];
        let g = Graph::build(&files);
        assert!(has_edge(&g, "S::run", "helper"));
        assert!(has_edge(&g, "S::run", "S::step"));
        let f = node_id(&g, "S::run");
        assert!(g.edges[f].iter().all(|e| e.precise));
    }

    #[test]
    fn field_typed_receiver_resolves_precisely() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "struct Inner;\nimpl Inner { fn tick(&self) {} }\n\
             struct Outer { inner: Inner }\n\
             impl Outer { fn go(&self) { self.inner.tick(); } }\n\
             struct Other;\nimpl Other { fn tick(&self) {} }\n",
        )];
        let g = Graph::build(&files);
        assert!(has_edge(&g, "Outer::go", "Inner::tick"));
        // Typed lookup must NOT fan out to Other::tick.
        assert!(!has_edge(&g, "Outer::go", "Other::tick"));
    }

    #[test]
    fn dyn_trait_field_fans_out_to_all_impls() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "trait Plug { fn fire(&self); }\n\
             struct A;\nimpl Plug for A { fn fire(&self) {} }\n\
             struct B;\nimpl Plug for B { fn fire(&self) {} }\n\
             struct Host { plug: Box<dyn Plug> }\n\
             impl Host { fn go(&self) { self.plug.fire(); } }\n",
        )];
        let g = Graph::build(&files);
        assert!(has_edge(&g, "Host::go", "A::fire"));
        assert!(has_edge(&g, "Host::go", "B::fire"));
        let f = node_id(&g, "Host::go");
        assert!(g.edges[f].iter().all(|e| !e.precise));
    }

    #[test]
    fn cross_crate_path_call_resolves() {
        let files = [
            file(
                "crates/os/src/guidance.rs",
                "os",
                "pub fn decay(x: u64) -> u64 { x }\n",
            ),
            file(
                "src/system.rs",
                "",
                "use chameleon_os::guidance;\n\
                 pub fn step() { guidance::decay(1); }\n",
            ),
        ];
        let g = Graph::build(&files);
        assert!(has_edge(&g, "system::step", "guidance::decay"));
    }

    #[test]
    fn use_imported_fn_resolves() {
        let files = [
            file("crates/os/src/kernel.rs", "os", "pub fn boot() {}\n"),
            file(
                "src/main.rs",
                "",
                "use chameleon_os::kernel::boot;\nfn main() { boot(); }\n",
            ),
        ];
        let g = Graph::build(&files);
        assert!(has_edge(&g, "main", "kernel::boot"));
    }

    #[test]
    fn unknown_receiver_fans_out_conservatively() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "struct A;\nimpl A { fn poke(&self) {} }\n\
             struct B;\nimpl B { fn poke(&self) {} }\n\
             fn drive(v: &A) { v.poke(); }\n",
        )];
        let g = Graph::build(&files);
        // `v` is a local — conservative fan-out hits both.
        assert!(has_edge(&g, "drive", "A::poke"));
        assert!(has_edge(&g, "drive", "B::poke"));
    }

    #[test]
    fn test_fns_are_excluded_from_targets() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n  fn prod() { panic!(); }\n}\n\
             fn call() { prod(); }\n",
        )];
        let g = Graph::build(&files);
        let f = node_id(&g, "call");
        assert_eq!(g.edges[f].len(), 1);
        let tgt = &g.nodes[g.edges[f][0].to];
        assert!(!tgt.def.in_test);
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "fn assert_eq() {}\nfn f() { assert_eq!(1, 1); }\n",
        )];
        let g = Graph::build(&files);
        let f = node_id(&g, "f");
        assert!(g.edges[f].is_empty(), "macro `!` must break the call match");
    }

    #[test]
    fn turbofish_calls_resolve() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "fn conv(x: u64) -> u64 { x }\nfn f() { conv::<u32>(seed()); }\nfn seed() -> u64 { 0 }\n",
        )];
        let g = Graph::build(&files);
        assert!(has_edge(&g, "f", "conv"));
        assert!(has_edge(&g, "f", "seed"));
    }

    #[test]
    fn trait_default_method_fans_out_from_self_call() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "trait T {\n  fn leaf(&self);\n  fn outer(&self) { self.leaf(); }\n}\n\
             struct A;\nimpl T for A { fn leaf(&self) {} }\n",
        )];
        let g = Graph::build(&files);
        // The default body's self.leaf() must reach A::leaf.
        assert!(has_edge(&g, "T::outer", "A::leaf"));
    }

    #[test]
    fn recursion_self_edge_is_precise_for_direct_call() {
        let files = [file(
            "crates/x/src/lib.rs",
            "x",
            "fn walk(n: u64) -> u64 { if n == 0 { 0 } else { walk(n - 1) } }\n",
        )];
        let g = Graph::build(&files);
        let f = node_id(&g, "walk");
        assert!(g.edges[f].iter().any(|e| e.to == f && e.precise));
    }
}
