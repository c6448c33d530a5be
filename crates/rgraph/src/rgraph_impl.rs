//! The rollback-dependency graph (R-graph) and its reachability relation
//! (§3.1 of the paper).

use std::fmt;

use rdt_causality::bits::{self, BitMatrix, BitRow};
use rdt_causality::{CheckpointId, ProcessId};

use crate::closure;
use crate::Pattern;

/// Dense index of a checkpoint node inside an [`RGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The **Rollback-Dependency Graph** of a pattern.
///
/// Nodes are local checkpoints; there is an edge `C_{i,x} → C_{j,y}` iff
///
/// 1. `i = j` and `y = x + 1` (successive checkpoints of a process), or
/// 2. `i ≠ j` and some message is sent in `I_{i,x}` and delivered in
///    `I_{j,y}`.
///
/// The operational meaning of an R-path `C_{i,x} → C_{j,y}`: if `P_i` has
/// to be rolled back to before `C_{i,x}`, then `P_j` has to be rolled back
/// to before `C_{j,y}`.
///
/// The explicit graph is what [`find_path`](RGraph::find_path) and the DOT
/// renderer read. Its closure is kept by the incremental core
/// ([`IncrementalAnalysis::reaches`](crate::IncrementalAnalysis::reaches));
/// [`reachability_naive`](RGraph::reachability_naive) recomputes it from
/// the edges as a test oracle.
///
/// Messages sent or delivered in an interval whose closing checkpoint does
/// not exist (an *open* interval of a non-[closed](Pattern::is_closed)
/// pattern) contribute no edge; close the pattern first if those
/// dependencies matter.
///
/// # Example
///
/// ```rust
/// use rdt_causality::{CheckpointId, ProcessId};
/// use rdt_rgraph::{PatternBuilder, RGraph};
///
/// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
/// let mut b = PatternBuilder::new(2);
/// let m = b.send(p0, p1);
/// b.deliver(m)?;
/// let pattern = b.close().build()?;
/// let graph = RGraph::new(&pattern);
/// let path = graph.find_path(CheckpointId::new(p0, 0), CheckpointId::new(p1, 1));
/// assert_eq!(path.map(|p| p.len()), Some(3)); // C_{0,0} → C_{0,1} → C_{1,1}
/// # Ok::<(), rdt_rgraph::PatternError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RGraph {
    n: usize,
    /// `offsets[i]` = node index of `C_{i,0}`.
    offsets: Vec<usize>,
    /// Checkpoint count per process (including the initial checkpoint).
    counts: Vec<u32>,
    /// Out-adjacency, deduplicated, ascending.
    adjacency: Vec<Vec<NodeId>>,
    num_edges: usize,
}

impl RGraph {
    /// Builds the R-graph of `pattern`.
    pub fn new(pattern: &Pattern) -> Self {
        let n = pattern.num_processes();
        let mut offsets = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut total = 0usize;
        for i in 0..n {
            offsets.push(total);
            let count = pattern.checkpoint_count(ProcessId::new(i));
            counts.push(count);
            total += count as usize;
        }

        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); total];
        // Rule 1: local successor edges.
        for i in 0..n {
            for x in 0..counts[i].saturating_sub(1) {
                let from = offsets[i] + x as usize;
                adjacency[from].push(NodeId(from + 1));
            }
        }
        // Rule 2: message edges between closing checkpoints.
        for (_, send_interval, deliver_interval) in pattern.delivered_messages() {
            let (i, x) = (send_interval.process, send_interval.index);
            let (j, y) = (deliver_interval.process, deliver_interval.index);
            // The edge needs the closing checkpoints C_{i,x} and C_{j,y}.
            if x >= counts[i.index()] || y >= counts[j.index()] {
                continue;
            }
            let from = offsets[i.index()] + x as usize;
            let to = NodeId(offsets[j.index()] + y as usize);
            adjacency[from].push(to);
        }
        for list in &mut adjacency {
            list.sort_unstable();
            list.dedup();
        }
        let num_edges = adjacency.iter().map(Vec::len).sum();
        RGraph {
            n,
            offsets,
            counts,
            adjacency,
            num_edges,
        }
    }

    /// Number of checkpoint nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of processes of the underlying pattern.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Node index of a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not exist in the pattern.
    pub fn node(&self, checkpoint: CheckpointId) -> NodeId {
        let i = checkpoint.process.index();
        assert!(i < self.n, "process out of range");
        assert!(
            checkpoint.index < self.counts[i],
            "checkpoint {checkpoint} does not exist (process has {} checkpoints)",
            self.counts[i]
        );
        NodeId(self.offsets[i] + checkpoint.index as usize)
    }

    /// Checkpoint of a node index.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn checkpoint(&self, node: NodeId) -> CheckpointId {
        assert!(node.0 < self.num_nodes(), "node out of range");
        // offsets is ascending; find the owning process.
        let i = self.offsets.partition_point(|&off| off <= node.0) - 1;
        CheckpointId::new(ProcessId::new(i), (node.0 - self.offsets[i]) as u32)
    }

    /// Direct successors of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.0]
    }

    /// Computes the full transitive reachability relation with the naive
    /// per-node per-bit search — `O(V·E)` time, every row including the
    /// node itself (an R-path of length 0 is a valid R-path `C → C`).
    ///
    /// Kept public as the baseline BENCH-RDTCHECK (`experiments rdtcheck`)
    /// times and the oracle the core's R-closure and untrackable pairs are
    /// held to; not meant for production callers.
    pub fn reachability_naive(&self) -> Reachability {
        let adjacency: Vec<Vec<usize>> = self
            .adjacency
            .iter()
            .map(|list| list.iter().map(|&NodeId(w)| w).collect())
            .collect();
        let rows = closure::transitive_closure_reference(&adjacency, self.num_nodes());
        Reachability {
            graph: self.clone(),
            rows,
        }
    }

    /// Finds one concrete R-path from `from` to `to`, as a checkpoint
    /// sequence, if any exists. Mainly used to render counterexamples.
    ///
    /// # Panics
    ///
    /// Panics if either checkpoint does not exist.
    pub fn find_path(&self, from: CheckpointId, to: CheckpointId) -> Option<Vec<CheckpointId>> {
        let start = self.node(from);
        let goal = self.node(to);
        let mut parent: Vec<Option<NodeId>> = vec![None; self.num_nodes()];
        let mut visited = BitRow::new(self.num_nodes());
        visited.set(start.0);
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            if u == goal {
                let mut path = vec![self.checkpoint(u)];
                let mut cur = u;
                while let Some(prev) = parent[cur.0] {
                    path.push(self.checkpoint(prev));
                    cur = prev;
                }
                path.reverse();
                return Some(path);
            }
            for &w in &self.adjacency[u.0] {
                if !visited.get(w.0) {
                    visited.set(w.0);
                    parent[w.0] = Some(u);
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

/// The transitive closure of an [`RGraph`], as the naive oracle computes
/// it: which checkpoints have an R-path to which.
#[derive(Debug, Clone)]
pub struct Reachability {
    graph: RGraph,
    rows: BitMatrix,
}

impl Reachability {
    /// Whether there is an R-path `from → to` (reflexively: every
    /// checkpoint reaches itself).
    ///
    /// # Panics
    ///
    /// Panics if either checkpoint does not exist.
    pub fn reaches(&self, from: CheckpointId, to: CheckpointId) -> bool {
        self.rows
            .get(self.graph.node(from).0, self.graph.node(to).0)
    }

    /// Iterates over every checkpoint reachable from `from` (including
    /// itself).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not exist.
    pub fn reachable_from(&self, from: CheckpointId) -> impl Iterator<Item = CheckpointId> + '_ {
        bits::ones(self.rows.row(self.graph.node(from).0))
            .map(|idx| self.graph.checkpoint(NodeId(idx)))
    }

    /// Total number of reachable (ordered) checkpoint pairs, reflexive
    /// pairs included — the popcount of the whole relation.
    pub fn total_reachable_pairs(&self) -> usize {
        self.rows.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternBuilder;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn c(i: usize, x: u32) -> CheckpointId {
        CheckpointId::new(p(i), x)
    }

    #[test]
    fn local_edges_chain_checkpoints() {
        let mut b = PatternBuilder::new(1);
        b.checkpoint(p(0));
        b.checkpoint(p(0));
        let g = RGraph::new(&b.build().unwrap());
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        let reach = g.reachability_naive();
        assert!(reach.reaches(c(0, 0), c(0, 2)));
        assert!(!reach.reaches(c(0, 2), c(0, 0)));
        assert!(reach.reaches(c(0, 1), c(0, 1)), "reflexive");
    }

    #[test]
    fn message_edge_connects_closing_checkpoints() {
        let mut b = PatternBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.deliver(m).unwrap();
        let g = RGraph::new(&b.close().build().unwrap());
        // Nodes: C00 C01 C10 C11; edges: 2 local + 1 message.
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        let reach = g.reachability_naive();
        assert!(reach.reaches(c(0, 1), c(1, 1)));
        assert!(!reach.reaches(c(1, 1), c(0, 1)));
        // C_{0,0} reaches C_{1,1} via the local edge then the message edge.
        assert!(reach.reaches(c(0, 0), c(1, 1)));
    }

    #[test]
    fn open_interval_messages_do_not_create_edges() {
        let mut b = PatternBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.deliver(m).unwrap();
        // NOT closed: C_{0,1} and C_{1,1} do not exist.
        let g = RGraph::new(&b.build().unwrap());
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn node_checkpoint_roundtrip() {
        let mut b = PatternBuilder::new(3);
        b.checkpoint(p(1));
        b.checkpoint(p(1));
        b.checkpoint(p(2));
        let g = RGraph::new(&b.build().unwrap());
        for cp in b.build().unwrap().checkpoints() {
            assert_eq!(g.checkpoint(g.node(cp)), cp);
        }
    }

    #[test]
    fn figure_1_r_graph_paths() {
        let pattern = crate::paper_figures::figure_1();
        let g = RGraph::new(&pattern);
        let reach = g.reachability_naive();
        // R-path C_{k,1} -> C_{i,2} via [m3 m2] (processes: i=0, j=1, k=2).
        assert!(reach.reaches(c(2, 1), c(0, 2)));
        // R-path C_{i,3} -> C_{k,2} via [m5 m4] / [m5 m6].
        assert!(reach.reaches(c(0, 3), c(2, 2)));
        // And a concrete path object exists for it.
        let path = g.find_path(c(2, 1), c(0, 2)).unwrap();
        assert_eq!(path.first(), Some(&c(2, 1)));
        assert_eq!(path.last(), Some(&c(0, 2)));
        // No backwards dependency.
        assert!(!reach.reaches(c(0, 2), c(2, 1)));
    }

    #[test]
    fn find_path_none_when_unreachable() {
        let b = PatternBuilder::new(2);
        let g = RGraph::new(&b.build().unwrap());
        assert_eq!(g.find_path(c(0, 0), c(1, 0)), None);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn missing_checkpoint_panics() {
        let b = PatternBuilder::new(1);
        let g = RGraph::new(&b.build().unwrap());
        let _ = g.node(c(0, 5));
    }
}
