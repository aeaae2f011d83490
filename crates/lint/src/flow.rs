//! Flow analyses over the workspace call graph.
//!
//! Three passes consume [`crate::graph::Graph`]:
//!
//! * **transitive hot-path purity** — BFS from every `// lint: hot-path`
//!   root; any allocation token in a reachable (but not itself
//!   annotated) fn is a `hot-path-transitive` finding carrying the
//!   root→fn blame path. An adjacent `// INVARIANT:` comment justifies
//!   an individual allocation (cold fault paths that provably cannot
//!   run per-reference).
//! * **determinism taint** — nondeterministic sources the local rule
//!   cannot flag (leaves in non-strict crates, or uses sanctioned by a
//!   local `determinism` allowlist entry) are tainted and propagated
//!   backwards; a strict-crate fn whose call edge crosses into the
//!   tainted region gets a `determinism-taint` finding. The allowlist
//!   sanctions individual *edges* (`file.rs#Fn token`), and a sanctioned
//!   edge stops propagation — the sanction asserts the callee's
//!   nondeterminism does not leak into simulated state.
//! * **recursion** — cycles over *precisely*-resolved edges reachable
//!   from a hot root (`hot-path-recursion`): the per-reference spine
//!   must have statically bounded depth.
//!
//! * **dead public surface** — a bare-`pub` library fn with no caller
//!   but itself and tests (`dead-pub`). A name the code outside the
//!   graph (examples, benches, the perfbench harness) calls or names by
//!   path keeps every fn of that name alive.
//!
//! A graph-independent pass flags narrowing `as` casts applied to
//! address-like operands (`lossy-cast`).

use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

use crate::allowlist::AllowEntry;
use crate::graph::{Graph, ParsedFile};
use crate::tok::{Tok, TokKind};
use crate::{DetScope, Finding, Rule, TargetKind};

/// Per-fn leaf facts feeding the flow analyses.
#[derive(Debug, Default, Clone)]
pub struct Facts {
    /// Allocation tokens (token, line), excluding `INVARIANT:`-justified
    /// ones.
    pub allocs: Vec<(String, usize)>,
    /// Nondeterminism tokens (token, line).
    pub nondet: Vec<(String, usize)>,
    /// Narrowing casts on address-like operands (token, line), excluding
    /// justified ones.
    pub casts: Vec<(String, usize)>,
}

/// Result of the graph passes, merged into the workspace report.
#[derive(Debug, Default)]
pub struct GraphOutcome {
    pub findings: Vec<Finding>,
    /// Findings suppressed by fn-scoped allowlist entries.
    pub allowlisted: usize,
    pub nodes: usize,
    pub edges: usize,
    pub hot_roots: usize,
    /// Crate names with at least one graph node.
    pub crates_covered: Vec<String>,
}

/// Runs every graph pass over the parsed workspace. `external` holds
/// the names called by code outside the graph (`dead-pub`).
pub fn analyze_graph(
    files: &[ParsedFile],
    external: &BTreeSet<String>,
    allowlist: &[AllowEntry],
) -> GraphOutcome {
    let g = Graph::build(files);
    let invariants: Vec<BTreeSet<usize>> = files.iter().map(|f| invariant_lines(&f.toks)).collect();
    let facts: Vec<Facts> = g
        .nodes
        .iter()
        .map(|n| {
            extract_facts(
                &files[n.file_idx].toks,
                n.def.body.clone(),
                &invariants[n.file_idx],
            )
        })
        .collect();

    let mut out = GraphOutcome {
        nodes: g.nodes.len(),
        edges: g.edge_count(),
        crates_covered: g.crates_covered.iter().cloned().collect(),
        ..GraphOutcome::default()
    };

    hot_path_passes(&g, &facts, allowlist, &mut out);
    taint_pass(&g, files, &facts, allowlist, &mut out);
    lossy_cast_pass(&g, files, &facts, allowlist, &mut out);
    dead_pub_pass(&g, files, external, allowlist, &mut out);
    out
}

/// Lines carrying (or spanned by) an `INVARIANT:` comment; a fact on
/// such a line or up to three lines below one is [`justified`]. The
/// local panic-policy rule and the graph rules share this set.
pub(crate) fn invariant_lines(toks: &[Tok]) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    for t in toks {
        if t.kind == TokKind::Comment && t.text.contains("INVARIANT:") {
            let span = t.text.matches('\n').count();
            for l in t.line..=t.line + span {
                lines.insert(l);
            }
        }
    }
    lines
}

pub(crate) fn justified(inv: &BTreeSet<usize>, line: usize) -> bool {
    (line.saturating_sub(3)..=line).any(|l| inv.contains(&l))
}

/// Extracts leaf facts from one token range (a fn body, or a file's
/// non-test code). These are the workspace's only allocation and
/// nondeterminism token lists: the local rules in [`crate::local`] read
/// the same facts, so local and transitive findings never disagree.
pub fn extract_facts(toks: &[Tok], body: Range<usize>, inv: &BTreeSet<usize>) -> Facts {
    let mut f = Facts::default();
    let tok_at = |i: usize| -> Option<&Tok> {
        let t = toks.get(i)?;
        (i < body.end).then_some(t)
    };
    for j in body.clone() {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = tok_at(j + 1);
        let next2 = tok_at(j + 2);
        let prev = j.checked_sub(1).and_then(|p| toks.get(p));
        let path_to = |seg: &str| -> bool {
            next.is_some_and(|t| t.is_punct(':'))
                && next2.is_some_and(|t| t.is_punct(':'))
                && tok_at(j + 3).is_some_and(|t| t.is_ident(seg))
        };
        let is_macro = next.is_some_and(|t| t.is_punct('!'));
        let after_dot = prev.is_some_and(|t| t.is_punct('.'));

        // Allocation facts.
        let alloc: Option<&str> = match t.text.as_str() {
            "Vec" if path_to("new") => Some("Vec::new"),
            "vec" if is_macro => Some("vec!["),
            "Box" if path_to("new") => Some("Box::new"),
            "format" if is_macro => Some("format!"),
            "String" if path_to("from") => Some("String::from"),
            "to_vec" if after_dot => Some(".to_vec()"),
            "collect" if after_dot => Some(".collect()"),
            "HashMap" => Some("HashMap"),
            _ => None,
        };
        if let Some(tok) = alloc {
            if !justified(inv, t.line) {
                f.allocs.push((tok.to_string(), t.line));
            }
        }

        // Nondeterminism facts.
        let nondet: Option<&str> = match t.text.as_str() {
            "std" if path_to("time") => Some("std::time"),
            "std" if path_to("thread") => Some("std::thread"),
            "thread" if path_to("scope") => Some("thread::scope"),
            "Instant" => Some("Instant"),
            "SystemTime" => Some("SystemTime"),
            "thread_rng" => Some("thread_rng"),
            "rayon" => Some("rayon"),
            _ => None,
        };
        if let Some(tok) = nondet {
            f.nondet.push((tok.to_string(), t.line));
        }

        // Narrowing casts on address-like operands: `… addr … as u32`.
        if t.is_ident("as") {
            if let Some(ty) = next {
                if matches!(
                    ty.text.as_str(),
                    "u8" | "u16" | "u32" | "i8" | "i16" | "i32"
                ) && cast_operand_is_addressy(toks, j, body.start)
                    && !justified(inv, t.line)
                {
                    f.casts.push((format!("as {}", ty.text), t.line));
                }
            }
        }
    }
    f
}

/// Whether one of the few tokens before the `as` keyword names an
/// address-like quantity.
fn cast_operand_is_addressy(toks: &[Tok], as_idx: usize, floor: usize) -> bool {
    let lo = as_idx.saturating_sub(6).max(floor);
    toks[lo..as_idx].iter().any(|t| {
        t.kind == TokKind::Ident
            && (t.text.contains("addr")
                || t.text.contains("pfn")
                || t.text.contains("vpn")
                || t.text == "page"
                || t.text == "frame")
    })
}

/// Whether the allowlist sanctions a graph finding anchored at a fn.
/// Entries may name the whole file or the specific fn (`file.rs#Fn`);
/// graph rules are fn-scoped by design, but file entries still work for
/// coarse sanctions.
fn sanctioned(allowlist: &[AllowEntry], rule: Rule, file: &str, scope: &str, token: &str) -> bool {
    allowlist.iter().any(|a| {
        a.rule == rule.name()
            && (a.path == file || a.path == scope)
            && (a.token == "*" || a.token == token)
    })
}

/// Transitive purity + recursion (both keyed on hot-root reachability).
fn hot_path_passes(g: &Graph, facts: &[Facts], allowlist: &[AllowEntry], out: &mut GraphOutcome) {
    let n = g.nodes.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut reached = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();

    for (id, node) in g.nodes.iter().enumerate() {
        if node.def.is_hot && !node.def.in_test {
            reached[id] = true;
            queue.push_back(id);
            out.hot_roots += 1;
        }
    }
    while let Some(id) = queue.pop_front() {
        for e in &g.edges[id] {
            if !reached[e.to] {
                reached[e.to] = true;
                parent[e.to] = Some(id);
                queue.push_back(e.to);
            }
        }
    }

    let blame_of = |id: usize| -> Vec<String> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(p) = parent[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain.into_iter().map(|i| g.nodes[i].fqn.clone()).collect()
    };

    // Transitive allocation purity.
    for id in 0..n {
        let node = &g.nodes[id];
        if !reached[id] || node.def.is_hot {
            continue; // annotated roots are the local rule's business
        }
        for (tok, line) in &facts[id].allocs {
            if sanctioned(
                allowlist,
                Rule::HotPathTransitive,
                &node.file,
                &node.scope,
                tok,
            ) {
                out.allowlisted += 1;
                continue;
            }
            let blame = blame_of(id);
            out.findings.push(Finding::graph(
                Rule::HotPathTransitive,
                &node.file,
                *line,
                tok,
                format!(
                    "`{tok}` in `{}`, reachable from hot root via {}",
                    node.fqn,
                    blame.join(" -> ")
                ),
                blame,
            ));
        }
    }

    // Recursion over precise edges within the hot-reachable region.
    for scc in precise_sccs(g, &reached) {
        let anchor = *scc
            .iter()
            .min_by_key(|&&id| &g.nodes[id].fqn)
            // INVARIANT: Tarjan only ever emits non-empty components.
            .expect("scc is non-empty");
        let node = &g.nodes[anchor];
        if sanctioned(
            allowlist,
            Rule::HotPathRecursion,
            &node.file,
            &node.scope,
            "recursion",
        ) {
            out.allowlisted += 1;
            continue;
        }
        let mut cycle: Vec<String> = scc.iter().map(|&id| g.nodes[id].fqn.clone()).collect();
        cycle.sort();
        out.findings.push(Finding::graph(
            Rule::HotPathRecursion,
            &node.file,
            node.def.line,
            "recursion",
            format!(
                "call cycle reachable from a hot root: {} (unbounded recursion on the spine)",
                cycle.join(" -> ")
            ),
            blame_of(anchor),
        ));
    }
}

/// SCCs of size > 1 (or with a self-loop) over precise edges, restricted
/// to hot-reachable nodes. Iterative Tarjan.
fn precise_sccs(g: &Graph, reached: &[bool]) -> Vec<Vec<usize>> {
    let n = g.nodes.len();
    let succ = |id: usize| {
        g.edges[id]
            .iter()
            .filter(|e| e.precise && reached[e.to])
            .map(|e| e.to)
    };

    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, iterator position over successors).
    for start in 0..n {
        if !reached[start] || index[start] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let succs: Vec<usize> = succ(v).collect();
            if *pos < succs.len() {
                let w = succs[*pos];
                *pos += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = comp.len() == 1 && succ(comp[0]).any(|t| t == comp[0]);
                    if comp.len() > 1 || self_loop {
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                }
                // INVARIANT: this branch is only taken while the explicit
                // DFS stack is non-empty.
                let done = frames.pop().expect("frame exists").0;
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[done]);
                }
            }
        }
    }
    sccs
}

/// Determinism taint: backward propagation from sources the local rule
/// cannot see, with per-edge sanctions, reported at strict-crate
/// crossing edges.
fn taint_pass(
    g: &Graph,
    files: &[ParsedFile],
    facts: &[Facts],
    allowlist: &[AllowEntry],
    out: &mut GraphOutcome,
) {
    let n = g.nodes.len();
    // A nondet fact is a *taint source* iff the local determinism rule
    // does not already hard-fail it: the fn lives outside the strict
    // crates, or the use carries a local `determinism` allowlist entry.
    let source_tok: Vec<Option<&str>> = (0..n)
        .map(|id| {
            let node = &g.nodes[id];
            let pf = &files[node.file_idx];
            facts[id].nondet.iter().find_map(|(tok, _)| {
                let caught_locally = pf.det == DetScope::Strict
                    && matches!(pf.target, TargetKind::Lib | TargetKind::Bin)
                    && !allowlist.iter().any(|a| {
                        a.rule == "determinism"
                            && a.path == node.file
                            && (a.token == "*" || a.token == *tok)
                    });
                (!caught_locally && pf.det != DetScope::Off).then_some(tok.as_str())
            })
        })
        .collect();

    // Reverse adjacency for backward propagation.
    let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (caller, line)
    for (id, edges) in g.edges.iter().enumerate() {
        for e in edges {
            rev[e.to].push((id, e.line));
        }
    }

    // witness[id] = (token, next hop toward the source) for tainted fns.
    let mut witness: Vec<Option<(String, Option<usize>)>> = vec![None; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for id in 0..n {
        if let Some(tok) = source_tok[id] {
            witness[id] = Some((tok.to_string(), None));
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        // INVARIANT: ids enter the queue only after a witness is recorded.
        let tok = witness[id]
            .as_ref()
            .expect("queued fns are tainted")
            .0
            .clone();
        for &(caller, _line) in &rev[id] {
            if witness[caller].is_some() {
                continue;
            }
            let cn = &g.nodes[caller];
            // A sanctioned edge absorbs the taint: the caller vouches
            // that the callee's nondeterminism stays out of sim state.
            if sanctioned(allowlist, Rule::DeterminismTaint, &cn.file, &cn.scope, &tok) {
                continue;
            }
            witness[caller] = Some((tok.clone(), Some(id)));
            queue.push_back(caller);
        }
    }

    let chain_from = |mut id: usize| -> Vec<String> {
        let mut chain = vec![g.nodes[id].fqn.clone()];
        while let Some((_, Some(next))) = &witness[id] {
            id = *next;
            chain.push(g.nodes[id].fqn.clone());
        }
        chain
    };

    // Report at crossing edges: strict lib fn → tainted fn that is
    // either outside the strict crates or itself a source.
    for (id, node) in g.nodes.iter().enumerate() {
        let pf = &files[node.file_idx];
        if pf.det != DetScope::Strict || pf.target != TargetKind::Lib || node.def.in_test {
            continue;
        }
        for e in &g.edges[id] {
            let Some((tok, _)) = &witness[e.to] else {
                continue;
            };
            let callee = &g.nodes[e.to];
            let crossing =
                files[callee.file_idx].det != DetScope::Strict || source_tok[e.to].is_some();
            if !crossing {
                continue;
            }
            if sanctioned(
                allowlist,
                Rule::DeterminismTaint,
                &node.file,
                &node.scope,
                tok,
            ) {
                out.allowlisted += 1;
                continue;
            }
            let mut blame = vec![node.fqn.clone()];
            blame.extend(chain_from(e.to));
            out.findings.push(Finding::graph(
                Rule::DeterminismTaint,
                &node.file,
                e.line,
                tok,
                format!(
                    "sim code can reach `{tok}` via {} — sanction the edge \
                     (`{} {tok}`) or break the call",
                    blame.join(" -> "),
                    node.scope
                ),
                blame,
            ));
        }
    }
}

/// Narrowing casts on address arithmetic, workspace-wide for strict
/// library code.
fn lossy_cast_pass(
    g: &Graph,
    files: &[ParsedFile],
    facts: &[Facts],
    allowlist: &[AllowEntry],
    out: &mut GraphOutcome,
) {
    for (id, node) in g.nodes.iter().enumerate() {
        let pf = &files[node.file_idx];
        if pf.det != DetScope::Strict || pf.target != TargetKind::Lib || node.def.in_test {
            continue;
        }
        for (tok, line) in &facts[id].casts {
            if sanctioned(allowlist, Rule::LossyCast, &node.file, &node.scope, tok) {
                out.allowlisted += 1;
                continue;
            }
            out.findings.push(Finding::new(
                Rule::LossyCast,
                &node.file,
                *line,
                tok,
                format!(
                    "narrowing `{tok}` on an address-like value in `{}` — \
                     widen, mask explicitly, or justify with `// INVARIANT:`",
                    node.fqn
                ),
            ));
        }
    }
}

/// Bare-`pub` library fns outside trait impls that no non-test fn but
/// themselves calls. A name in `external` (an example, a bench, the
/// perfbench harness) counts as a call to every fn of that name.
fn dead_pub_pass(
    g: &Graph,
    files: &[ParsedFile],
    external: &BTreeSet<String>,
    allowlist: &[AllowEntry],
    out: &mut GraphOutcome,
) {
    let mut called = vec![false; g.nodes.len()];
    for (id, edges) in g.edges.iter().enumerate() {
        if !g.nodes[id].def.in_test {
            for e in edges.iter().filter(|e| e.to != id) {
                called[e.to] = true;
            }
        }
    }
    for (id, node) in g.nodes.iter().enumerate() {
        let d = &node.def;
        if !d.is_pub
            || d.in_test
            || called[id]
            || files[node.file_idx].target != TargetKind::Lib
            || d.owner.as_ref().is_some_and(|o| o.trait_name.is_some())
            || external.contains(&d.name)
        {
            continue;
        }
        if sanctioned(allowlist, Rule::DeadPub, &node.file, &node.scope, &d.name) {
            out.allowlisted += 1;
            continue;
        }
        out.findings.push(Finding::new(
            Rule::DeadPub,
            &node.file,
            d.line,
            &d.name,
            format!(
                "pub fn `{}` has no caller outside tests — delete it, or \
                 allowlist it with the reason it stays",
                node.fqn
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::tok::tokenize;

    fn pfile(rel_path: &str, crate_name: &str, src: &str) -> ParsedFile {
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

    fn rules(out: &GraphOutcome, rule: Rule) -> Vec<&Finding> {
        out.findings.iter().filter(|f| f.rule == rule).collect()
    }

    #[test]
    fn transitive_alloc_via_helper_is_found_with_blame() {
        let files = [pfile(
            "crates/x/src/lib.rs",
            "x",
            "// lint: hot-path\nfn hot() { helper(); }\n\
             fn helper() { deeper(); }\n\
             fn deeper() { let v = vec![1]; drop(v); }\n",
        )];
        let out = analyze_graph(&files, &BTreeSet::new(), &[]);
        let f = rules(&out, Rule::HotPathTransitive);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, "vec![");
        assert_eq!(
            f[0].blame,
            vec![
                "chameleon_x::hot",
                "chameleon_x::helper",
                "chameleon_x::deeper"
            ]
        );
    }

    #[test]
    fn invariant_justifies_transitive_alloc() {
        let files = [pfile(
            "crates/x/src/lib.rs",
            "x",
            "// lint: hot-path\nfn hot() { cold(); }\n\
             fn cold() {\n    // INVARIANT: one-time table growth, never per-reference\n    let v = vec![1];\n    drop(v);\n}\n",
        )];
        let out = analyze_graph(&files, &BTreeSet::new(), &[]);
        assert!(rules(&out, Rule::HotPathTransitive).is_empty());
    }

    #[test]
    fn recursion_cycle_reachable_from_hot_root() {
        let files = [pfile(
            "crates/x/src/lib.rs",
            "x",
            "// lint: hot-path\nfn hot() { ping(0); }\n\
             fn ping(n: u64) { pong(n); }\n\
             fn pong(n: u64) { ping(n); }\n\
             fn unrelated_cycle() { unrelated_cycle(); }\n",
        )];
        let out = analyze_graph(&files, &BTreeSet::new(), &[]);
        let f = rules(&out, Rule::HotPathRecursion);
        assert_eq!(f.len(), 1, "only the hot-reachable cycle fires");
        assert!(f[0].message.contains("ping"));
        assert!(f[0].message.contains("pong"));
    }

    #[test]
    fn taint_crossing_edge_is_reported_and_edge_sanction_silences() {
        let mk = || {
            [
                pfile(
                    "crates/core/src/machine.rs",
                    "core",
                    "pub fn drive() { chameleon_sweep::progress::tick(); }\n",
                ),
                ParsedFile {
                    det: DetScope::Allowlisted,
                    ..pfile(
                        "crates/sweep/src/progress.rs",
                        "sweep",
                        "pub fn tick() { let t = std::time::Instant::now(); drop(t); }\n",
                    )
                },
            ]
        };
        let out = analyze_graph(&mk(), &BTreeSet::new(), &[]);
        let f = rules(&out, Rule::DeterminismTaint);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "crates/core/src/machine.rs");
        assert!(f[0].blame.len() >= 2);

        let allow = [AllowEntry {
            rule: "determinism-taint".to_string(),
            path: "crates/core/src/machine.rs#drive".to_string(),
            token: "std::time".to_string(),
        }];
        let out = analyze_graph(&mk(), &BTreeSet::new(), &allow);
        assert!(rules(&out, Rule::DeterminismTaint).is_empty());
        assert_eq!(out.allowlisted, 1);
    }

    #[test]
    fn lossy_cast_on_address_fires_and_invariant_justifies() {
        let files = [pfile(
            "crates/x/src/lib.rs",
            "x",
            "pub fn bank(addr: u64) -> u32 { (addr >> 6) as u32 }\n\
             pub fn ok(addr: u64) -> u32 {\n    // INVARIANT: bank index fits 8 bits by construction\n    (addr >> 6) as u32\n}\n\
             pub fn fine(count: u64) -> u32 { count as u32 }\n",
        )];
        let out = analyze_graph(&files, &BTreeSet::new(), &[]);
        let f = rules(&out, Rule::LossyCast);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, "as u32");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn hot_root_itself_is_left_to_the_local_rule() {
        let files = [pfile(
            "crates/x/src/lib.rs",
            "x",
            "// lint: hot-path\nfn hot() { let v = vec![1]; drop(v); }\n",
        )];
        let out = analyze_graph(&files, &BTreeSet::new(), &[]);
        assert!(rules(&out, Rule::HotPathTransitive).is_empty());
    }
}
