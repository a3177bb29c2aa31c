//! Workspace-wide call-graph construction over [`crate::items`].
//!
//! Edges are name-based and kept only where the callee is certain:
//!
//! * **Path-qualified calls** (`Type::name(...)`, `Self::name(...)`)
//!   resolve against the `(self_type, name)` table.
//! * **`self.name(...)` method calls** resolve to the method of the
//!   enclosing impl's self-type when it exists.
//! * **Free calls** resolve by bare name when exactly one workspace fn
//!   carries that name.
//! * **Other method calls** (`x.name(...)`, receiver not literally
//!   `self`) yield no edge: the receiver's type is unknown, and a guess
//!   would fabricate cycles (`fn clear(&mut self) { self.entries.clear() }`
//!   would become a self-loop).
//!
//! The graph's one consumer is `recursion-bound`, where a missing edge
//! costs a missed cycle and a wrong edge costs a false finding — so
//! uncertain sites are dropped rather than over-approximated. Calls to
//! names not defined in the scanned set (std, shims, …) are external
//! and ignored.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{is_call_at, FileItems};
use crate::lexer::Tok;

/// A function's global id: index into [`CallGraph::fns`].
pub type FnId = usize;

/// Where a global fn lives: `(file index, fn index within the file)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnRef {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Index into that file's `fns`.
    pub item: usize,
}

/// The workspace call graph: non-test library fns as nodes, certain
/// call edges only.
#[derive(Debug)]
pub struct CallGraph {
    /// Global fn table, in (file, source) order — deterministic.
    pub fns: Vec<FnRef>,
    /// Callees per fn (sites where exactly one candidate matched).
    pub callees: Vec<BTreeSet<FnId>>,
}

impl CallGraph {
    /// Build the graph over every non-test fn of the given files.
    pub fn build(files: &[FileItems]) -> CallGraph {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                if !f.is_test {
                    fns.push(FnRef { file: fi, item: ii });
                }
            }
        }
        // Name tables. Bare name → candidate ids; (self_type, name) →
        // candidate ids (an impl type can span several blocks/crates).
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        for (id, r) in fns.iter().enumerate() {
            let f = &files[r.file].fns[r.item];
            by_name.entry(&f.name).or_default().push(id);
            if let Some(t) = &f.self_type {
                by_qual.entry((t, &f.name)).or_default().push(id);
            }
        }

        let mut callees = vec![BTreeSet::new(); fns.len()];
        for (id, r) in fns.iter().enumerate() {
            let file = &files[r.file];
            let f = &file.fns[r.item];
            let Some((open, close)) = f.body else {
                continue;
            };
            let toks = &file.tokens;
            for j in open + 1..close {
                if !is_call_at(toks, j) {
                    continue;
                }
                let Tok::Ident(name) = &toks[j].kind else {
                    continue;
                };
                if let Some(callee) =
                    resolve(toks, j, name, f.self_type.as_deref(), &by_name, &by_qual)
                {
                    callees[id].insert(callee);
                }
            }
        }

        CallGraph { fns, callees }
    }

    /// Strongly connected components of the graph, in a deterministic
    /// order; singleton components are included only when they carry a
    /// self-loop.
    pub fn recursive_components(&self) -> Vec<Vec<FnId>> {
        // Iterative Tarjan.
        let n = self.fns.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<FnId> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<FnId>> = Vec::new();

        // Explicit DFS stack: (node, iterator position over callees).
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut dfs: Vec<(FnId, Vec<FnId>, usize)> = Vec::new();
            let succ: Vec<FnId> = self.callees[start].iter().copied().collect();
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            dfs.push((start, succ, 0));
            while let Some((v, succs, pos)) = dfs.last_mut() {
                if *pos < succs.len() {
                    let w = succs[*pos];
                    *pos += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        let wsucc: Vec<FnId> = self.callees[w].iter().copied().collect();
                        dfs.push((w, wsucc, 0));
                    } else if on_stack[w] {
                        let v = *v;
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    let v = *v;
                    dfs.pop();
                    if let Some((parent, _, _)) = dfs.last() {
                        let p = *parent;
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        let is_cycle = comp.len() > 1
                            || (comp.len() == 1 && self.callees[comp[0]].contains(&comp[0]));
                        if is_cycle {
                            out.push(comp);
                        }
                    }
                }
            }
        }
        out.sort();
        out
    }
}

/// The callee of the call whose head ident sits at `j`, when the site
/// names exactly one workspace fn.
fn resolve(
    toks: &[crate::lexer::Token],
    j: usize,
    name: &str,
    self_type: Option<&str>,
    by_name: &BTreeMap<&str, Vec<FnId>>,
    by_qual: &BTreeMap<(&str, &str), Vec<FnId>>,
) -> Option<FnId> {
    let prev = |k: usize| toks.get(j.wrapping_sub(k)).map(|t| &t.kind);
    let unique = |ids: Option<&Vec<FnId>>| match ids.map(Vec::as_slice) {
        Some([only]) => Some(*only),
        _ => None,
    };
    // `Qual::name(...)`; a qualifier that is no workspace type is read
    // as a module path (`module::free_fn(...)`) and falls back to the
    // bare name.
    if prev(1) == Some(&Tok::Punct(':')) && prev(2) == Some(&Tok::Punct(':')) {
        let Some(Tok::Ident(q)) = prev(3) else {
            return None;
        };
        let qual: &str = if q == "Self" { self_type? } else { q };
        return unique(by_qual.get(&(qual, name)).or_else(|| by_name.get(name)));
    }
    // `recv.name(...)`: only `self.name(...)` names the enclosing
    // impl's own method; any other receiver's type is unknown.
    if prev(1) == Some(&Tok::Punct('.')) {
        let on_self = matches!(prev(2), Some(Tok::Ident(r)) if r == "self")
            && prev(3) != Some(&Tok::Punct('.'));
        if !on_self {
            return None;
        }
        return unique(by_qual.get(&(self_type?, name)));
    }
    // Free call (or an associated fn brought into scope via `use`).
    unique(by_name.get(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    fn graph(files: &[(&str, &str)]) -> (Vec<FileItems>, CallGraph) {
        let parsed: Vec<FileItems> = files.iter().map(|(p, s)| parse_items(p, s)).collect();
        let g = CallGraph::build(&parsed);
        (parsed, g)
    }

    fn id_of(files: &[FileItems], g: &CallGraph, qual: &str) -> FnId {
        g.fns
            .iter()
            .position(|r| files[r.file].fns[r.item].qual_name == qual)
            .unwrap_or_else(|| panic!("no fn {qual}"))
    }

    #[test]
    fn free_calls_resolve_uniquely() {
        let (files, g) = graph(&[(
            "crates/core/src/a.rs",
            "fn leaf() {}\nfn caller() { leaf(); }\n",
        )]);
        let caller = id_of(&files, &g, "caller");
        let leaf = id_of(&files, &g, "leaf");
        assert!(g.callees[caller].contains(&leaf));
    }

    #[test]
    fn self_method_calls_resolve_to_own_impl() {
        let (files, g) = graph(&[(
            "crates/core/src/a.rs",
            "struct A;\nimpl A {\n  fn step(&self) {}\n  fn run(&self) { self.step() }\n}\n\
             struct B;\nimpl B {\n  fn step(&self) {}\n}\n",
        )]);
        let run = id_of(&files, &g, "A::run");
        let a_step = id_of(&files, &g, "A::step");
        assert_eq!(
            g.callees[run].iter().copied().collect::<Vec<_>>(),
            vec![a_step]
        );
    }

    #[test]
    fn unknown_receivers_yield_no_edge() {
        let (files, g) = graph(&[(
            "crates/core/src/a.rs",
            "struct A;\nimpl A {\n  fn step(&self) {}\n}\n\
             fn drive(x: &A) { x.step() }\n",
        )]);
        let drive = id_of(&files, &g, "drive");
        assert!(g.callees[drive].is_empty());
    }

    #[test]
    fn field_method_of_same_name_is_not_a_self_loop() {
        // `self.entries.clear()` inside `Cache::clear` must not become
        // a self-edge — the receiver is the field, not self.
        let (files, g) = graph(&[(
            "crates/core/src/a.rs",
            "struct Cache { entries: Vec<u8> }\nimpl Cache {\n  \
             fn clear(&mut self) { self.entries.clear() }\n}\n",
        )]);
        let clear = id_of(&files, &g, "Cache::clear");
        assert!(g.callees[clear].is_empty());
        assert!(g.recursive_components().is_empty());
    }

    #[test]
    fn recursion_components_found() {
        let (files, g) = graph(&[(
            "crates/core/src/a.rs",
            "fn ping() { pong() }\nfn pong() { ping() }\nfn solo() { solo() }\nfn leaf() {}\n",
        )]);
        let comps = g.recursive_components();
        assert_eq!(comps.len(), 2);
        let ping = id_of(&files, &g, "ping");
        let pong = id_of(&files, &g, "pong");
        let solo = id_of(&files, &g, "solo");
        assert!(comps.contains(&vec![ping, pong]));
        assert!(comps.contains(&vec![solo]));
    }

    #[test]
    fn path_qualified_calls_resolve() {
        let (files, g) = graph(&[(
            "crates/core/src/a.rs",
            "struct Ring;\nimpl Ring {\n  fn build() {}\n}\n\
             fn setup() { Ring::build() }\n",
        )]);
        let setup = id_of(&files, &g, "setup");
        let build = id_of(&files, &g, "Ring::build");
        assert!(g.callees[setup].contains(&build));
    }
}
