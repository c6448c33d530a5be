//! Word-parallel transitive-closure kernels.
//!
//! Both reachability relations of the theory layer — the R-graph closure
//! ([`crate::Reachability`]) and the message-chain closures
//! ([`crate::ZigzagReachability`]) — reduce to the same problem: given a
//! digraph where the first `labelled` nodes carry a column bit, compute
//! for every node the set of labelled nodes it reaches (reflexively for
//! labelled nodes). The optimized kernel here condenses the graph into
//! strongly connected components with an iterative Tarjan pass and then
//! resolves the closure with one word-parallel row union per edge, in
//! `O(V + E·cols/64)` time — whole-row `u64` ORs instead of the per-bit
//! stack pushes of the naive per-source search.
//!
//! The naive kernel is kept as [`transitive_closure_reference`] — it is
//! the differential oracle for the proptest suite and the baseline the
//! BENCH-RDTCHECK experiment (`experiments rdtcheck`) measures the
//! speedup against.

use rdt_causality::bits::BitMatrix;

/// Tarjan's SCC algorithm, iteratively (explicit call stack, no
/// recursion). Returns `(comp, num_comps)` where `comp[u]` is the
/// component of node `u` and component ids are assigned in **reverse
/// topological order**: if any edge leads from component `a` to component
/// `b ≠ a`, then `comp id of b < comp id of a`.
fn tarjan_scc(adj: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut comp = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0usize;
    let mut num_comps = 0usize;
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some((u, ei)) = call.last_mut() {
            let u = *u;
            if let Some(&w) = adj[u].get(*ei) {
                *ei += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[u] = low[u].min(index[w]);
                }
            } else {
                call.pop();
                if let Some((p, _)) = call.last() {
                    low[*p] = low[*p].min(low[u]);
                }
                if low[u] == index[u] {
                    // `u` is the root of an SCC; every component reachable
                    // from it has already been numbered, so this id is
                    // larger than all of its successors' — reverse
                    // topological order by construction.
                    // SCC members are on the stack, ending with `u`.
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = num_comps;
                        if w == u {
                            break;
                        }
                    }
                    num_comps += 1;
                }
            }
        }
    }
    (comp, num_comps)
}

/// Computes, for every node of `adj`, the set of *labelled* nodes it
/// reaches. Nodes `0..labelled` carry their own column bit (so a labelled
/// node always reaches itself — the relations of the theory layer are
/// reflexive); nodes `labelled..` are auxiliary (interval slots, chain
/// spines) and have rows but no columns.
///
/// Returns an `adj.len() × labelled` [`BitMatrix`]; callers that only
/// query labelled rows can [`BitMatrix::truncate_rows`] the rest away.
///
/// Algorithm: SCC condensation ([`tarjan_scc`]) followed by a single
/// forward pass over the components in reverse topological order, each
/// edge contributing one word-parallel row union — `O(V + E·labelled/64)`.
///
/// # Panics
///
/// Panics (debug) if `labelled > adj.len()` or an edge target is out of
/// range.
pub fn transitive_closure(adj: &[Vec<usize>], labelled: usize) -> BitMatrix {
    debug_assert!(labelled <= adj.len());
    let n = adj.len();
    let (comp, num_comps) = tarjan_scc(adj);

    let mut comp_rows = BitMatrix::new(num_comps, labelled);
    for (u, &cu) in comp.iter().enumerate().take(labelled) {
        comp_rows.set(cu, u);
    }

    // Visit nodes grouped by component id ascending (counting sort), so
    // every inter-component edge points at an already-final row.
    let mut comp_start = vec![0usize; num_comps + 1];
    for &c in &comp {
        comp_start[c + 1] += 1;
    }
    for c in 0..num_comps {
        comp_start[c + 1] += comp_start[c];
    }
    let mut order = vec![0usize; n];
    let mut cursor = comp_start.clone();
    for u in 0..n {
        order[cursor[comp[u]]] = u;
        cursor[comp[u]] += 1;
    }
    for &u in &order {
        let cu = comp[u];
        for &w in &adj[u] {
            if comp[w] != cu {
                comp_rows.union_rows(cu, comp[w]);
            }
        }
    }

    let mut rows = BitMatrix::new(n, labelled);
    for (u, &cu) in comp.iter().enumerate() {
        rows.copy_row_from(u, &comp_rows, cu);
    }
    rows
}

/// Naive reference closure: an independent per-bit depth-first search from
/// every node, `O(V·E)` — the semantics [`transitive_closure`] must match
/// exactly.
///
/// Kept public (not `#[cfg(test)]`) because the BENCH-RDTCHECK experiment
/// (`experiments rdtcheck`) measures the optimized kernel's speedup
/// against it, and the proptest differential suite uses it as its oracle.
///
/// # Panics
///
/// Panics (debug) if `labelled > adj.len()` or an edge target is out of
/// range.
pub fn transitive_closure_reference(adj: &[Vec<usize>], labelled: usize) -> BitMatrix {
    debug_assert!(labelled <= adj.len());
    let n = adj.len();
    let mut rows = BitMatrix::new(n, labelled);
    let mut visited = vec![false; n];
    let mut stack = Vec::new();
    for start in 0..n {
        visited.fill(false);
        visited[start] = true;
        if start < labelled {
            rows.set(start, start);
        }
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &w in &adj[u] {
                if !visited[w] {
                    visited[w] = true;
                    if w < labelled {
                        rows.set(start, w);
                    }
                    stack.push(w);
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_causality::bits;

    fn reach(rows: &BitMatrix, u: usize) -> Vec<usize> {
        bits::ones(rows.row(u)).collect()
    }

    fn assert_closures_agree(adj: &[Vec<usize>], labelled: usize) {
        let fast = transitive_closure(adj, labelled);
        let slow = transitive_closure_reference(adj, labelled);
        assert_eq!(fast, slow, "adj={adj:?}, labelled={labelled}");
    }

    #[test]
    fn empty_graph() {
        assert_closures_agree(&[], 0);
        assert_closures_agree(&[vec![], vec![]], 2);
    }

    #[test]
    fn straight_line() {
        let adj = vec![vec![1], vec![2], vec![3], vec![]];
        assert_closures_agree(&adj, 4);
        let rows = transitive_closure(&adj, 4);
        assert_eq!(reach(&rows, 0), vec![0, 1, 2, 3]);
        assert_eq!(reach(&rows, 3), vec![3]);
    }

    #[test]
    fn cycle_members_reach_each_other() {
        let adj = vec![vec![1], vec![2], vec![0], vec![0]];
        assert_closures_agree(&adj, 4);
        let rows = transitive_closure(&adj, 4);
        for u in 0..3 {
            assert_eq!(reach(&rows, u), vec![0, 1, 2]);
        }
        assert_eq!(reach(&rows, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unlabelled_slots_route_but_carry_no_column() {
        // 0,1 labelled; 2,3 auxiliary: 0 → 2 → 3 → 1.
        let adj = vec![vec![2], vec![], vec![3], vec![1]];
        assert_closures_agree(&adj, 2);
        let rows = transitive_closure(&adj, 2);
        assert_eq!(rows.cols(), 2);
        assert_eq!(reach(&rows, 0), vec![0, 1]);
        assert_eq!(reach(&rows, 1), vec![1]);
        // Auxiliary rows exist and see the labelled nodes they reach but
        // never themselves.
        assert_eq!(reach(&rows, 2), vec![1]);
    }

    #[test]
    fn diamond_with_self_loops_and_parallel_edges() {
        let adj = vec![vec![1, 2, 1], vec![3, 3], vec![3], vec![3]];
        assert_closures_agree(&adj, 4);
    }

    #[test]
    fn two_tangled_cycles() {
        // {0,1} and {2,3} are SCCs, bridged 1 → 2.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        assert_closures_agree(&adj, 4);
        let rows = transitive_closure(&adj, 4);
        assert_eq!(reach(&rows, 0), vec![0, 1, 2, 3]);
        assert_eq!(reach(&rows, 2), vec![2, 3]);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // The iterative Tarjan must survive a recursion-hostile graph.
        let n = 200_000;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|u| if u + 1 < n { vec![u + 1] } else { vec![] })
            .collect();
        let rows = transitive_closure(&adj, 0);
        assert_eq!(rows.rows(), n);
        assert_eq!(rows.cols(), 0);
    }

    #[test]
    fn pseudo_random_graphs_agree() {
        // Deterministic LCG-driven sparse digraphs of varying density.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 5, 17, 64, 65, 130] {
            for density in [1usize, 3] {
                let adj: Vec<Vec<usize>> = (0..n)
                    .map(|_| {
                        let mut out = Vec::new();
                        for _ in 0..density {
                            if next() % 4 != 0 {
                                out.push((next() as usize) % n);
                            }
                        }
                        out
                    })
                    .collect();
                let labelled = n - (next() as usize) % (n / 2 + 1);
                assert_closures_agree(&adj, labelled);
            }
        }
    }
}
