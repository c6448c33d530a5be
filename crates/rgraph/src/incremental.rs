//! Incremental pattern analysis: the append-only twin of
//! [`PatternAnalysis`](crate::PatternAnalysis).
//!
//! Where the batch pipeline rebuilds the R-graph, the zigzag/causal chain
//! closures, and the replayed dependency vectors from scratch for every
//! (prefix of a) pattern, [`IncrementalAnalysis`] maintains all of them
//! *online* under three events:
//!
//! * [`append_send`](IncrementalAnalysis::append_send) — a message leaves
//!   its sender (snapshots the piggybacked `TDV`, extends the causal send
//!   spine);
//! * [`append_deliver`](IncrementalAnalysis::append_deliver) — a message
//!   arrives (merges the piggyback, inserts the message into both chain
//!   closures);
//! * [`append_checkpoint`](IncrementalAnalysis::append_checkpoint) — a
//!   local checkpooint is taken (new R-graph node, Rule 1 and all now
//!   completable Rule 2 edges, `TDV` snapshot).
//!
//! # Data structures
//!
//! Each of the three reachability relations (R-graph over checkpoints,
//! zigzag chains and causal chains over delivered messages) is held as a
//! square bit matrix together with its transpose, updated by the classic
//! incremental-transitive-closure rule (Italiano): inserting an edge
//! `u → v` that is not already implied unions `succ(v)` into the forward
//! row of every predecessor of `u` and `pred(u)` into the backward row of
//! every successor of `v`. The transpose twin is what keeps that cheap: it
//! yields the two *dirty sets* in one word-parallel pass each —
//! `dpred = bwd[u] & !bwd[v]`, the predecessors of `u` that do not reach
//! `v` yet, and `dsucc = fwd[v] & !fwd[u]`, the successors of `v` that `u`
//! does not reach yet — and, the closure being transitive, no other row
//! and no other column can change. An insertion therefore costs
//! `2·width + |dpred|·span(dsucc) + |dsucc|·span(dpred)` words, where
//! `span` is the distance between a set's first and last non-zero word;
//! predecessors that already reach `v` cost one cleared bit instead of a
//! row scan, and linking a fresh node costs one word per dirty row. Rows
//! never lose bits while appending. The chain
//! graphs are the same compressed O(M + C) constructions the batch
//! [`ZigzagReachability`](crate::ZigzagReachability) uses (per-interval
//! slot spines for zigzag links, per-process send spines for causal
//! links), so closure work stays proportional to new reachability, not to
//! the O(M²) direct link count.
//!
//! RDT itself is counted online: a reachable checkpoint pair becomes
//! untrackable the moment its closure bit first appears, and the verdict
//! never changes afterwards — the destination's dependency vector is
//! snapshotted when the checkpoint is appended, before any R-path can
//! reach it. [`untrackable_pairs`](IncrementalAnalysis::untrackable_pairs)
//! is therefore a running violation counter, updated per new closure bit.
//!
//! # Mark / rewind
//!
//! Every mutation is recorded in an undo journal; [`mark`]
//! (IncrementalAnalysis::mark) captures the journal length and
//! [`rewind`](IncrementalAnalysis::rewind) plays it backwards, restoring
//! the engine to the marked state bit for bit. This is what makes
//! prefix-sharing replay cheap: a verifier can keep one engine per
//! protocol, rewind to the longest common prefix with the next schedule,
//! and append only the suffix. [`with_closed`]
//! (IncrementalAnalysis::with_closed) uses the same machinery to answer
//! queries about the *closed* extension of the current pattern (the
//! paper's convention) and back the closing checkpoints out again.

use rdt_causality::bits::{self, WORD_BITS};
use rdt_causality::{CheckpointId, ProcessId};

use crate::consistency::GlobalCheckpoint;

#[path = "compaction.rs"]
mod compaction;
pub use compaction::CompactionStats;

#[path = "snapshot.rs"]
mod snapshot;
pub use snapshot::{SnapshotError, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};

const NONE_U32: u32 = u32::MAX;

/// Stack words for closure-row scratch masks (spills to heap above
/// `WORD_BITS * MASK_STACK_WORDS` closure nodes).
const MASK_STACK_WORDS: usize = 8;

/// Stack entries for global-checkpoint scratch vectors (spills to heap
/// above this many processes).
const GC_STACK_ENTRIES: usize = 16;

/// Matrix selectors for the undo journal (`md = mat * 2 + direction`).
const MAT_R: u8 = 0;
const MAT_Z: u8 = 1;
const MAT_C: u8 = 2;

/// A position in the undo journal, as returned by
/// [`IncrementalAnalysis::mark`]. Rewinding to a mark restores the engine
/// to exactly the state it had when the mark was taken.
///
/// Marks are tagged with the engine's *compaction epoch*: a mark taken
/// before a [`compact_to`](IncrementalAnalysis::compact_to) cannot be
/// rewound to afterwards — the journal below the compaction point is gone
/// — and [`try_rewind`](IncrementalAnalysis::try_rewind) reports that as
/// [`RewindError::CompactionBoundary`] instead of corrupting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Mark {
    epoch: u64,
    pos: usize,
}

/// Why a [`try_rewind`](IncrementalAnalysis::try_rewind) was refused. The
/// engine state is untouched when a rewind fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewindError {
    /// The mark predates a compaction: the journal below the compaction
    /// point was discarded, so the marked state no longer exists.
    CompactionBoundary {
        /// Epoch the mark was taken in.
        mark_epoch: u64,
        /// The engine's current compaction epoch.
        engine_epoch: u64,
    },
    /// The mark is ahead of the journal — it was taken on a state that
    /// has itself been rewound away.
    AheadOfJournal,
}

impl std::fmt::Display for RewindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewindError::CompactionBoundary {
                mark_epoch,
                engine_epoch,
            } => write!(
                f,
                "mark from compaction epoch {mark_epoch} cannot be rewound to \
                 in epoch {engine_epoch}: the journal below the compaction \
                 point was discarded"
            ),
            RewindError::AheadOfJournal => {
                write!(f, "mark is ahead of the journal")
            }
        }
    }
}

impl std::error::Error for RewindError {}

/// Why a `try_append_*` call was refused. The engine state is untouched
/// when an append fails, so a rejected event from an untrusted stream
/// cannot corrupt the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendError {
    /// The named process index is not `< n`.
    ProcessOutOfRange {
        /// The offending process index.
        process: usize,
        /// The engine's process count.
        n: usize,
    },
    /// The message handle was never returned by an append of a send.
    UnknownMessage {
        /// The offending message handle.
        mid: u32,
    },
    /// The message was already delivered once.
    AlreadyDelivered {
        /// The offending message handle.
        mid: u32,
    },
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::ProcessOutOfRange { process, n } => {
                write!(f, "process {process} out of range (engine has {n})")
            }
            AppendError::UnknownMessage { mid } => {
                write!(f, "message {mid} was never sent")
            }
            AppendError::AlreadyDelivered { mid } => {
                write!(f, "message {mid} already delivered")
            }
        }
    }
}

impl std::error::Error for AppendError {}

/// One reversible mutation; the journal is replayed backwards on rewind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Undo {
    /// A closure-matrix word changed (`md = mat * 2 + dir`, dir 1 = bwd).
    Word {
        md: u8,
        row: u32,
        word: u32,
        old: u64,
    },
    /// A node was pushed onto matrix `mat`.
    Node {
        mat: u8,
    },
    CpCount {
        p: u32,
        old: u32,
    },
    LineOpen {
        p: u32,
        old: bool,
    },
    Untrackable {
        old: u64,
    },
    CurTdv {
        slot: u32,
        old: u32,
    },
    MsgPushed,
    MsgTdvPushed,
    CpTdvPushed,
    RMetaPushed,
    CpNodePushed {
        p: u32,
    },
    ZSlotPushed {
        p: u32,
    },
    CSpinePushed {
        p: u32,
    },
    CDelivPushed {
        p: u32,
    },
    CLinked {
        p: u32,
        old: u32,
    },
    SendEvPushed {
        p: u32,
    },
    DeliverEvPushed {
        p: u32,
    },
    MsgDelivered {
        mid: u32,
    },
    /// A `drop_reach` entry changed (only after the first compaction).
    DropReach {
        slot: u32,
        old: u32,
    },
    /// A `drop_reach` row was pushed (only after the first compaction).
    DropReachPushed,
}

/// Per-message record (columns of a struct-of-arrays kept together; the
/// deliver-side fields stay [`NONE_U32`] while the message is in transit).
#[derive(Debug, Clone, Copy)]
struct MsgRec {
    from: u32,
    to: u32,
    send_iv: u32,
    deliver_iv: u32,
    /// Node of this message in the zigzag closure (set at delivery;
    /// [`NONE_U32`] again once compaction drops the node).
    znode: u32,
    /// Node of this message in the causal closure (set at delivery;
    /// [`NONE_U32`] again once compaction drops the node).
    cnode: u32,
    /// Causal send-spine node allocated for this send ([`NONE_U32`] once
    /// compaction drops it — only possible after delivery).
    spine: u32,
    /// Row of this message's piggyback snapshot in `msg_tdv`
    /// ([`NONE_U32`] once compaction reclaims the row — only possible
    /// after delivery).
    tdv_row: u32,
}

/// Scratch buffers for edge insertion (reused across insertions).
#[derive(Debug, Default)]
struct EdgeScratch {
    /// Dirty predecessors of the last inserted edge `u → v`: the nodes
    /// reaching `u` (with `u`) that did not reach `v` yet.
    dpred: Vec<u64>,
    /// Dirty successors: the nodes reached from `v` (with `v`) that `u` did
    /// not reach yet.
    dsucc: Vec<u64>,
    /// New forward closure bits `(row, col)` of the last insertion, only
    /// collected when the caller asked for them.
    pairs: Vec<(u32, u32)>,
}

/// A growable square reachability matrix with its transpose twin.
///
/// `fwd[u]` holds the successors of `u` (reflexively), `bwd[v]` the
/// predecessors of `v`; both are row slabs of `width` words. Rows only
/// ever gain bits while appending; every word change is journaled so the
/// matrix can be rewound.
#[derive(Debug, Clone)]
struct ClosureMatrix {
    nodes: usize,
    width: usize,
    fwd: Vec<u64>,
    bwd: Vec<u64>,
}

impl ClosureMatrix {
    fn new() -> Self {
        ClosureMatrix {
            nodes: 0,
            width: 1,
            fwd: Vec::new(),
            bwd: Vec::new(),
        }
    }

    fn bit(&self, bwd: bool, u: usize, v: usize) -> bool {
        // One bounds check: row `u` starts at bit `u · width · WORD_BITS`.
        let words = if bwd { &self.bwd } else { &self.fwd };
        bits::test(words, u * self.width * WORD_BITS + v)
    }

    fn row(&self, bwd: bool, u: usize) -> &[u64] {
        let words = if bwd { &self.bwd } else { &self.fwd };
        &words[u * self.width..(u + 1) * self.width]
    }

    /// Appends a fresh node with only its reflexive bit set. The caller
    /// journals the push (`Undo::Node`).
    fn push_node(&mut self) -> usize {
        if self.nodes == self.width * WORD_BITS {
            self.grow();
        }
        let id = self.nodes;
        self.nodes += 1;
        self.fwd.resize(self.nodes * self.width, 0);
        self.bwd.resize(self.nodes * self.width, 0);
        bits::set(&mut self.fwd[id * self.width..][..self.width], id);
        bits::set(&mut self.bwd[id * self.width..][..self.width], id);
        id
    }

    /// Removes the most recently pushed node (rewind path). Closure bits
    /// referring to it in surviving rows have already been undone through
    /// `Undo::Word` entries, which are newer than the node's push.
    fn pop_node(&mut self) {
        self.nodes -= 1;
        self.fwd.truncate(self.nodes * self.width);
        self.bwd.truncate(self.nodes * self.width);
    }

    /// Doubles the words-per-row. Journaled `(row, word)` addresses refer
    /// to logical positions, which relayout preserves.
    fn grow(&mut self) {
        let old_w = self.width;
        let new_w = old_w * 2;
        for slab in [&mut self.fwd, &mut self.bwd] {
            let mut wide = vec![0u64; self.nodes * new_w];
            for r in 0..self.nodes {
                wide[r * new_w..r * new_w + old_w]
                    .copy_from_slice(&slab[r * old_w..(r + 1) * old_w]);
            }
            *slab = wide;
        }
        self.width = new_w;
    }

    /// Incremental transitive-closure edge insertion (Italiano), restricted
    /// to the *dirty sets* the transpose twin gives for free. If `u → v` is
    /// not already implied,
    ///
    /// * `dpred = bwd[u] & !bwd[v]` are the nodes that reach `u` but not yet
    ///   `v` — the only rows whose forward closure can change, because a
    ///   predecessor that already reaches `v` already holds all of `fwd[v]`;
    /// * `dsucc = fwd[v] & !fwd[u]` are the nodes `v` reaches but `u` does
    ///   not yet — the only columns that can be new in those rows, because
    ///   every predecessor of `u` already holds all of `fwd[u]`
    ///
    /// (rows are reflexive, so `u ∈ dpred` and `v ∈ dsucc`). Every row of
    /// `dpred` gains `dsucc` and, in the transpose, every row of `dsucc`
    /// gains `dpred`, each over the added set's non-zero word span only and
    /// each changed word journaled, rows and words ascending. When `collect`
    /// is set, the new forward bits are reported in `scratch.pairs`. Returns
    /// whether the edge was new; `scratch.dpred` / `scratch.dsucc` are only
    /// meaningful when it was.
    fn insert_edge(
        &mut self,
        mat_id: u8,
        journal: &mut Vec<Undo>,
        scratch: &mut EdgeScratch,
        collect: bool,
        u: usize,
        v: usize,
    ) -> bool {
        scratch.pairs.clear();
        if self.bit(false, u, v) {
            return false;
        }
        debug_assert!(
            self.bit(true, u, u) && self.bit(false, v, v),
            "closure rows are reflexive"
        );
        let EdgeScratch {
            dpred,
            dsucc,
            pairs,
        } = scratch;
        let minus = |a: &[u64], b: &[u64], out: &mut Vec<u64>| {
            out.clear();
            out.extend(a.iter().zip(b).map(|(&a, &b)| a & !b));
        };
        minus(self.row(true, u), self.row(true, v), dpred);
        minus(self.row(false, v), self.row(false, u), dsucc);

        let w = self.width;
        let pairs = collect.then_some(pairs);
        or_into_rows(&mut self.fwd, w, mat_id * 2, journal, dpred, dsucc, pairs);
        or_into_rows(
            &mut self.bwd,
            w,
            mat_id * 2 + 1,
            journal,
            dsucc,
            dpred,
            None,
        );
        true
    }

    /// Full-scan insertion, the reference the kernel differential holds
    /// [`insert_edge`](ClosureMatrix::insert_edge) against: every
    /// predecessor row of `u` is scanned against all of `succ(v)` and every
    /// successor row of `v` against all of `pred(u)`.
    #[cfg(test)]
    fn insert_edge_full_scan(
        &mut self,
        mat_id: u8,
        journal: &mut Vec<Undo>,
        pairs: &mut Vec<(u32, u32)>,
        collect: bool,
        u: usize,
        v: usize,
    ) -> bool {
        pairs.clear();
        if self.bit(false, u, v) {
            return false;
        }
        let w = self.width;
        let mut succ = self.row(false, v).to_vec();
        bits::set(&mut succ, v);
        let mut pred = self.row(true, u).to_vec();
        bits::set(&mut pred, u);
        for (dir, rows, add) in [(0u8, &pred, &succ), (1, &succ, &pred)] {
            let slab = if dir == 0 {
                &mut self.fwd
            } else {
                &mut self.bwd
            };
            for x in bits::ones(rows) {
                for (wi, &add) in add.iter().enumerate() {
                    let old = slab[x * w + wi];
                    let fresh = add & !old;
                    if fresh != 0 {
                        journal.push(Undo::Word {
                            md: mat_id * 2 + dir,
                            row: x as u32,
                            word: wi as u32,
                            old,
                        });
                        if collect && dir == 0 {
                            pairs.extend(
                                bits::ones(&[fresh])
                                    .map(|b| (x as u32, (wi * WORD_BITS + b) as u32)),
                            );
                        }
                        slab[x * w + wi] = old | add;
                    }
                }
            }
        }
        true
    }
}

/// The range of word indices outside which `words` is all zero.
fn nonzero_span(words: &[u64]) -> std::ops::Range<usize> {
    let lo = words.iter().position(|&w| w != 0).unwrap_or(words.len());
    let hi = words.iter().rposition(|&w| w != 0).map_or(lo, |i| i + 1);
    lo..hi
}

/// ORs `add` into row `x` of `slab` (rows of `w` words) for every
/// `x ∈ ones(rows)`, touching only `add`'s non-zero word span. Each changed
/// word is journaled under `md` before it is written; when `pairs` is given,
/// the fresh bits are appended to it as `(row, column)`.
#[inline]
fn or_into_rows(
    slab: &mut [u64],
    w: usize,
    md: u8,
    journal: &mut Vec<Undo>,
    rows: &[u64],
    add: &[u64],
    mut pairs: Option<&mut Vec<(u32, u32)>>,
) {
    let span = nonzero_span(add);
    for x in bits::ones(rows) {
        let row = &mut slab[x * w..][..w];
        for wi in span.clone() {
            let old = row[wi];
            let fresh = add[wi] & !old;
            if fresh != 0 {
                journal.push(Undo::Word {
                    md,
                    row: x as u32,
                    word: wi as u32,
                    old,
                });
                if let Some(pairs) = pairs.as_deref_mut() {
                    let mut d = fresh;
                    while d != 0 {
                        pairs.push((x as u32, (wi * WORD_BITS) as u32 + d.trailing_zeros()));
                        d &= d - 1;
                    }
                }
                row[wi] = old | fresh;
            }
        }
    }
}

/// Append-only analysis of a growing checkpoint & communication pattern,
/// with journal-based [`mark`](IncrementalAnalysis::mark) /
/// [`rewind`](IncrementalAnalysis::rewind).
///
/// Maintains, per appended event, exactly the artifacts the batch
/// [`PatternAnalysis`](crate::PatternAnalysis) derives from scratch: the
/// R-graph transitive closure, the zigzag and causal chain closures, the
/// replayed transitive dependency vectors, and a running count of
/// untrackable R-paths. Every query answers identically to the batch
/// pipeline on the same pattern (the differential test-suite holds the
/// two against each other after every append).
///
/// Queries that the paper defines on *closed* patterns (the RDT verdict,
/// the chain-doubling characterizations, consistent-global-checkpoint
/// computations) should be asked through
/// [`with_closed`](IncrementalAnalysis::with_closed), which temporarily
/// appends the closing checkpoints exactly like
/// [`Pattern::to_closed`](crate::Pattern::to_closed).
///
/// # Example
///
/// ```rust
/// use rdt_causality::ProcessId;
/// use rdt_rgraph::IncrementalAnalysis;
///
/// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
/// let mut incr = IncrementalAnalysis::new(2);
/// let m = incr.append_send(p0, p1);
/// incr.append_deliver(m);
/// assert!(incr.with_closed(|view| view.rdt_holds()));
///
/// // Branch out, then back out of it.
/// let mark = incr.mark();
/// incr.append_checkpoint(p1);
/// incr.rewind(mark);
/// assert_eq!(incr.last_checkpoint_index(p1), 0);
/// ```
#[derive(Debug)]
pub struct IncrementalAnalysis {
    n: usize,
    journal: Vec<Undo>,
    /// Total events ever appended (monotone work counter; not rewound).
    events: usize,
    /// Running count of reachable-but-untrackable checkpoint pairs.
    untrackable: u64,
    /// Explicit checkpoints taken so far per process (== index of the last
    /// checkpoint; the implicit initial checkpoint is index 0).
    cp_count: Vec<u32>,
    /// Whether the process line is non-empty and does not end in a
    /// checkpoint (i.e. closing would append one).
    line_open: Vec<bool>,
    msgs: Vec<MsgRec>,
    /// Running `TDV` per process, flattened (`n × n`).
    cur_tdv: Vec<u32>,
    /// Per-send piggyback snapshot (`n` entries per message).
    msg_tdv: Vec<u32>,
    /// Per-R-node `TDV` snapshot at checkpoint time (`n` entries each).
    cp_tdv: Vec<u32>,
    rmat: ClosureMatrix,
    /// Per R-node `(process, checkpoint index)`.
    r_meta: Vec<(u32, u32)>,
    /// R-node of `C_{p,x}` (indexed by `x`).
    cp_nodes: Vec<Vec<u32>>,
    zmat: ClosureMatrix,
    /// Zigzag interval-slot nodes per process, dense from interval 0.
    z_slots: Vec<Vec<u32>>,
    cmat: ClosureMatrix,
    /// Causal send-spine nodes per process, in send order.
    c_spine: Vec<Vec<u32>>,
    /// Causal nodes of messages delivered at each process, delivery order.
    c_delivs: Vec<Vec<u32>>,
    /// How many of `c_delivs[p]` are already linked to a later send spine.
    c_linked: Vec<u32>,
    /// `(interval, message)` per send, per process, chronological (and so
    /// sorted by interval).
    send_events: Vec<Vec<(u32, u32)>>,
    /// `(interval, message)` per delivery, per process, chronological.
    deliver_events: Vec<Vec<(u32, u32)>>,
    scratch: EdgeScratch,

    // ---- compaction state (see `compaction.rs`) ----
    /// Compaction epoch: bumped whenever `compact_to` discards state, so
    /// stale [`Mark`]s are detected instead of misapplied.
    pub(crate) epoch: u64,
    /// Per-process consistent watermark of the last compaction (all
    /// zeros before the first). Monotone componentwise.
    pub(crate) watermark: Vec<u32>,
    /// First retained checkpoint index per process: `cp_nodes[p][k]` is
    /// the R-node of `C_{p, cp_base[p] + k}`.
    pub(crate) cp_base: Vec<u32>,
    /// First retained zigzag interval slot per process: `z_slots[p][k]`
    /// is the slot of interval `slot_base[p] + k`.
    pub(crate) slot_base: Vec<u32>,
    /// Chain-layer retention floor per process: messages sent in an
    /// interval `≤ chain_floor[p]` had their zigzag/causal closure nodes
    /// dropped; chain queries headed at or below the floor are out of the
    /// compacted engine's exact domain.
    pub(crate) chain_floor: Vec<u32>,
    /// Per retained R-node and process `p`, the largest index of a
    /// *dropped* checkpoint of `p` with an R-path to the node
    /// ([`NONE_U32`] = none). Dropped reach sets are downward closed per
    /// process (Rule 1 chains), so one index summarizes the whole set;
    /// empty until the first compaction drops an R-node.
    pub(crate) drop_reach: Vec<u32>,
    /// Number of compactions that discarded state (epoch bumps).
    pub(crate) compactions: u64,
    /// Total closure rows (R + zigzag + causal nodes) reclaimed across
    /// all compactions.
    pub(crate) reclaimed_rows: u64,
}

impl IncrementalAnalysis {
    /// Creates the empty engine for `n` processes: every process has its
    /// implicit initial checkpoint `C_{i,0}` and an all-zero dependency
    /// snapshot, exactly like an empty [`Pattern`](crate::Pattern).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        let mut rmat = ClosureMatrix::new();
        let mut r_meta = Vec::with_capacity(n);
        let mut cp_nodes = Vec::with_capacity(n);
        let mut cp_tdv = vec![0u32; 0];
        let mut cur_tdv = vec![0u32; n * n];
        for i in 0..n {
            let node = rmat.push_node();
            r_meta.push((i as u32, 0));
            cp_nodes.push(vec![node as u32]);
            cp_tdv.extend(std::iter::repeat_n(0, n));
            cur_tdv[i * n + i] = 1;
        }
        IncrementalAnalysis {
            n,
            journal: Vec::new(),
            events: 0,
            untrackable: 0,
            cp_count: vec![0; n],
            line_open: vec![false; n],
            msgs: Vec::new(),
            cur_tdv,
            msg_tdv: Vec::new(),
            cp_tdv,
            rmat,
            r_meta,
            cp_nodes,
            zmat: ClosureMatrix::new(),
            z_slots: vec![Vec::new(); n],
            cmat: ClosureMatrix::new(),
            c_spine: vec![Vec::new(); n],
            c_delivs: vec![Vec::new(); n],
            c_linked: vec![0; n],
            send_events: vec![Vec::new(); n],
            deliver_events: vec![Vec::new(); n],
            scratch: EdgeScratch::default(),
            epoch: 0,
            watermark: vec![0; n],
            cp_base: vec![0; n],
            slot_base: vec![0; n],
            chain_floor: vec![0; n],
            drop_reach: Vec::new(),
            compactions: 0,
            reclaimed_rows: 0,
        }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Index of the last checkpoint of `process` (0 = only the initial).
    pub fn last_checkpoint_index(&self, process: ProcessId) -> u32 {
        self.cp_count[process.index()]
    }

    /// Whether `checkpoint` exists in the current pattern.
    pub fn checkpoint_exists(&self, checkpoint: CheckpointId) -> bool {
        checkpoint.process.index() < self.n
            && checkpoint.index <= self.cp_count[checkpoint.process.index()]
    }

    /// Number of messages appended (delivered or in transit).
    pub fn num_messages(&self) -> usize {
        self.msgs.len()
    }

    /// Whether message `mid` has been delivered.
    pub fn message_delivered(&self, mid: u32) -> bool {
        self.msgs[mid as usize].deliver_iv != NONE_U32
    }

    /// Total events ever appended, monotone across rewinds — a work
    /// counter for throughput reporting, not part of the rewindable state.
    pub fn events_appended(&self) -> usize {
        self.events
    }

    // ------------------------------------------------------- appends ----

    /// Appends a local checkpoint of `process` and returns its id.
    ///
    /// Creates the R-graph node (with its `TDV` snapshot taken *before*
    /// the owner entry increments, matching the offline replayer), the
    /// Rule 1 edge from the previous checkpoint, and every Rule 2 message
    /// edge that this checkpoint completes — an edge `C_{i,x} → C_{j,y}`
    /// materializes exactly when the later of the two closing checkpoints
    /// appears.
    pub fn append_checkpoint(&mut self, process: ProcessId) -> CheckpointId {
        match self.try_append_checkpoint(process) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`append_checkpoint`](IncrementalAnalysis::append_checkpoint):
    /// rejects an out-of-range process with [`AppendError`] instead of
    /// panicking, leaving the engine untouched. This is the entry point
    /// for untrusted event streams.
    pub fn try_append_checkpoint(
        &mut self,
        process: ProcessId,
    ) -> Result<CheckpointId, AppendError> {
        let pi = process.index();
        if pi >= self.n {
            return Err(AppendError::ProcessOutOfRange {
                process: pi,
                n: self.n,
            });
        }
        let closing = self.cp_count[pi] + 1;
        self.journal.push(Undo::CpCount {
            p: pi as u32,
            old: self.cp_count[pi],
        });
        self.cp_count[pi] = closing;
        self.set_line_open(pi, false);

        let node = self.rmat.push_node();
        self.journal.push(Undo::Node { mat: MAT_R });
        self.r_meta.push((pi as u32, closing));
        self.journal.push(Undo::RMetaPushed);
        let base = pi * self.n;
        for k in 0..self.n {
            self.cp_tdv.push(self.cur_tdv[base + k]);
        }
        self.journal.push(Undo::CpTdvPushed);
        self.cp_nodes[pi].push(node as u32);
        self.journal.push(Undo::CpNodePushed { p: pi as u32 });
        if !self.drop_reach.is_empty() {
            self.drop_reach
                .extend(std::iter::repeat_n(NONE_U32, self.n));
            self.journal.push(Undo::DropReachPushed);
        }
        let slot = base + pi;
        self.journal.push(Undo::CurTdv {
            slot: slot as u32,
            old: self.cur_tdv[slot],
        });
        self.cur_tdv[slot] += 1;

        // Rule 1: C_{p, closing-1} -> C_{p, closing}.
        let prev = self.cp_nodes[pi][(closing - 1 - self.cp_base[pi]) as usize] as usize;
        self.insert_r_edge(prev, node);

        // Rule 2, sender side: messages sent by `p` in the interval this
        // checkpoint closes, whose delivery interval is already closed.
        // (Compaction keeps every checkpoint node a pending Rule 2 edge
        // can still name, so the base-offset lookups cannot underflow.)
        let lo = self.send_events[pi].partition_point(|&(iv, _)| iv < closing);
        for i in lo..self.send_events[pi].len() {
            let (_, mid) = self.send_events[pi][i];
            let m = self.msgs[mid as usize];
            if m.deliver_iv != NONE_U32 && m.deliver_iv <= self.cp_count[m.to as usize] {
                let ti = m.to as usize;
                let tgt = self.cp_nodes[ti][(m.deliver_iv - self.cp_base[ti]) as usize] as usize;
                self.insert_r_edge(node, tgt);
            }
        }
        // Rule 2, receiver side: messages delivered at `p` in this
        // interval whose send interval is already closed.
        let lo = self.deliver_events[pi].partition_point(|&(iv, _)| iv < closing);
        for i in lo..self.deliver_events[pi].len() {
            let (_, mid) = self.deliver_events[pi][i];
            let m = self.msgs[mid as usize];
            if m.send_iv <= self.cp_count[m.from as usize] {
                let fi = m.from as usize;
                let src = self.cp_nodes[fi][(m.send_iv - self.cp_base[fi]) as usize] as usize;
                self.insert_r_edge(src, node);
            }
        }
        self.events += 1;
        Ok(CheckpointId::new(process, closing))
    }

    /// Appends a send event and returns the engine's message handle.
    ///
    /// Handles are assigned sequentially in send order — the same
    /// numbering [`PatternBuilder::send`](crate::PatternBuilder::send)
    /// uses when events are appended in the same order.
    pub fn append_send(&mut self, from: ProcessId, to: ProcessId) -> u32 {
        match self.try_append_send(from, to) {
            Ok(mid) => mid,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`append_send`](IncrementalAnalysis::append_send): rejects
    /// out-of-range endpoints with [`AppendError`] instead of panicking,
    /// leaving the engine untouched.
    pub fn try_append_send(&mut self, from: ProcessId, to: ProcessId) -> Result<u32, AppendError> {
        let fi = from.index();
        let ti = to.index();
        if fi >= self.n {
            return Err(AppendError::ProcessOutOfRange {
                process: fi,
                n: self.n,
            });
        }
        if ti >= self.n {
            return Err(AppendError::ProcessOutOfRange {
                process: ti,
                n: self.n,
            });
        }
        let mid = self.msgs.len() as u32;
        let iv = self.cp_count[fi] + 1;

        let base = fi * self.n;
        let tdv_row = (self.msg_tdv.len() / self.n) as u32;
        let row = &self.cur_tdv[base..base + self.n];
        self.msg_tdv.extend_from_slice(row);
        self.journal.push(Undo::MsgTdvPushed);

        // Causal send spine: chain from the previous send of `from`, and
        // link every delivery at `from` that happened since.
        let spine = self.cmat.push_node() as u32;
        self.journal.push(Undo::Node { mat: MAT_C });
        if let Some(&prev) = self.c_spine[fi].last() {
            self.insert_c_edge(prev as usize, spine as usize);
        }
        self.c_spine[fi].push(spine);
        self.journal.push(Undo::CSpinePushed { p: fi as u32 });
        let linked = self.c_linked[fi] as usize;
        let total = self.c_delivs[fi].len();
        if linked < total {
            self.journal.push(Undo::CLinked {
                p: fi as u32,
                old: self.c_linked[fi],
            });
            self.c_linked[fi] = total as u32;
            for i in linked..total {
                let cn = self.c_delivs[fi][i] as usize;
                self.insert_c_edge(cn, spine as usize);
            }
        }

        self.send_events[fi].push((iv, mid));
        self.journal.push(Undo::SendEvPushed { p: fi as u32 });
        self.msgs.push(MsgRec {
            from: fi as u32,
            to: ti as u32,
            send_iv: iv,
            deliver_iv: NONE_U32,
            znode: NONE_U32,
            cnode: NONE_U32,
            spine,
            tdv_row,
        });
        self.journal.push(Undo::MsgPushed);
        self.set_line_open(fi, true);
        self.events += 1;
        Ok(mid)
    }

    /// Appends the delivery of message `mid` (as returned by
    /// [`append_send`](IncrementalAnalysis::append_send)).
    ///
    /// # Panics
    ///
    /// Panics if the message does not exist or was already delivered.
    pub fn append_deliver(&mut self, mid: u32) {
        if let Err(e) = self.try_append_deliver(mid) {
            panic!("{e}");
        }
    }

    /// Fallible [`append_deliver`](IncrementalAnalysis::append_deliver):
    /// rejects an unknown handle (deliver-before-send) or a duplicate
    /// delivery with [`AppendError`] instead of panicking, leaving the
    /// engine untouched.
    pub fn try_append_deliver(&mut self, mid: u32) -> Result<(), AppendError> {
        let m = match self.msgs.get(mid as usize) {
            Some(&m) => m,
            None => return Err(AppendError::UnknownMessage { mid }),
        };
        if m.deliver_iv != NONE_U32 {
            return Err(AppendError::AlreadyDelivered { mid });
        }
        let ti = m.to as usize;
        let fi = m.from as usize;
        let iv = self.cp_count[ti] + 1;
        self.journal.push(Undo::MsgDelivered { mid });

        // Delivery rule: TDV_to := max(TDV_to, piggyback).
        let base_m = m.tdv_row as usize * self.n;
        let base_t = ti * self.n;
        for k in 0..self.n {
            let theirs = self.msg_tdv[base_m + k];
            let mine = self.cur_tdv[base_t + k];
            if theirs > mine {
                self.journal.push(Undo::CurTdv {
                    slot: (base_t + k) as u32,
                    old: mine,
                });
                self.cur_tdv[base_t + k] = theirs;
            }
        }

        // Zigzag closure: message node between its send-interval slot and
        // its delivery-interval slot.
        let z = self.zmat.push_node() as u32;
        self.journal.push(Undo::Node { mat: MAT_Z });
        self.ensure_slots(ti, iv);
        self.ensure_slots(fi, m.send_iv);
        debug_assert!(
            iv >= self.slot_base[ti] && m.send_iv >= self.slot_base[fi],
            "the compaction watermark never outruns live intervals"
        );
        let deliver_slot = self.z_slots[ti][(iv - self.slot_base[ti]) as usize] as usize;
        self.insert_z_edge(z as usize, deliver_slot);
        let send_slot = self.z_slots[fi][(m.send_iv - self.slot_base[fi]) as usize] as usize;
        self.insert_z_edge(send_slot, z as usize);

        // Causal closure: message node fed by its own send-spine node;
        // the delivery will link to the *next* send of the receiver.
        let c = self.cmat.push_node() as u32;
        self.journal.push(Undo::Node { mat: MAT_C });
        self.insert_c_edge(m.spine as usize, c as usize);
        self.c_delivs[ti].push(c);
        self.journal.push(Undo::CDelivPushed { p: ti as u32 });

        let rec = &mut self.msgs[mid as usize];
        rec.deliver_iv = iv;
        rec.znode = z;
        rec.cnode = c;
        self.deliver_events[ti].push((iv, mid));
        self.journal.push(Undo::DeliverEvPushed { p: ti as u32 });
        self.set_line_open(ti, true);
        self.events += 1;
        Ok(())
    }

    // --------------------------------------------------- mark/rewind ----

    /// Captures the current state; pass to
    /// [`rewind`](IncrementalAnalysis::rewind) to restore it.
    pub fn mark(&self) -> Mark {
        Mark {
            epoch: self.epoch,
            pos: self.journal.len(),
        }
    }

    /// Rewinds to a previously taken [`Mark`] by replaying the undo
    /// journal backwards. Cost is proportional to the state touched since
    /// the mark, not to the total pattern size.
    ///
    /// # Panics
    ///
    /// Panics if the mark is ahead of the journal (taken on a state that
    /// has itself been rewound away) or predates a compaction — use
    /// [`try_rewind`](IncrementalAnalysis::try_rewind) to handle either
    /// as a recoverable error.
    pub fn rewind(&mut self, mark: Mark) {
        if let Err(err) = self.try_rewind(mark) {
            panic!("{err}");
        }
    }

    /// Fallible form of [`rewind`](IncrementalAnalysis::rewind): refuses
    /// (leaving the engine untouched) when the mark predates a compaction
    /// or is ahead of the journal. Rewinding *across a compaction point
    /// is a defined error, never a wrong answer* — the journal below the
    /// compaction was discarded, and the epoch tag on the mark detects
    /// exactly that case.
    pub fn try_rewind(&mut self, mark: Mark) -> Result<(), RewindError> {
        if mark.epoch != self.epoch {
            return Err(RewindError::CompactionBoundary {
                mark_epoch: mark.epoch,
                engine_epoch: self.epoch,
            });
        }
        if mark.pos > self.journal.len() {
            return Err(RewindError::AheadOfJournal);
        }
        while self.journal.len() > mark.pos {
            let entry = self.journal.pop().expect("journal length checked");
            match entry {
                Undo::Word { md, row, word, old } => {
                    let mat = match md / 2 {
                        MAT_R => &mut self.rmat,
                        MAT_Z => &mut self.zmat,
                        _ => &mut self.cmat,
                    };
                    let w = mat.width;
                    let slab = if md % 2 == 0 {
                        &mut mat.fwd
                    } else {
                        &mut mat.bwd
                    };
                    slab[row as usize * w + word as usize] = old;
                }
                Undo::Node { mat } => match mat {
                    MAT_R => self.rmat.pop_node(),
                    MAT_Z => self.zmat.pop_node(),
                    _ => self.cmat.pop_node(),
                },
                Undo::CpCount { p, old } => self.cp_count[p as usize] = old,
                Undo::LineOpen { p, old } => self.line_open[p as usize] = old,
                Undo::Untrackable { old } => self.untrackable = old,
                Undo::CurTdv { slot, old } => self.cur_tdv[slot as usize] = old,
                Undo::MsgPushed => {
                    self.msgs.pop();
                }
                Undo::MsgTdvPushed => self.msg_tdv.truncate(self.msg_tdv.len() - self.n),
                Undo::CpTdvPushed => self.cp_tdv.truncate(self.cp_tdv.len() - self.n),
                Undo::RMetaPushed => {
                    self.r_meta.pop();
                }
                Undo::CpNodePushed { p } => {
                    self.cp_nodes[p as usize].pop();
                }
                Undo::ZSlotPushed { p } => {
                    self.z_slots[p as usize].pop();
                }
                Undo::CSpinePushed { p } => {
                    self.c_spine[p as usize].pop();
                }
                Undo::CDelivPushed { p } => {
                    self.c_delivs[p as usize].pop();
                }
                Undo::CLinked { p, old } => self.c_linked[p as usize] = old,
                Undo::SendEvPushed { p } => {
                    self.send_events[p as usize].pop();
                }
                Undo::DeliverEvPushed { p } => {
                    self.deliver_events[p as usize].pop();
                }
                Undo::MsgDelivered { mid } => {
                    let rec = &mut self.msgs[mid as usize];
                    rec.deliver_iv = NONE_U32;
                    rec.znode = NONE_U32;
                    rec.cnode = NONE_U32;
                }
                Undo::DropReach { slot, old } => self.drop_reach[slot as usize] = old,
                Undo::DropReachPushed => {
                    self.drop_reach.truncate(self.drop_reach.len() - self.n);
                }
            }
        }
        Ok(())
    }

    /// Runs `f` on the **closed** extension of the current pattern — the
    /// state [`Pattern::to_closed`](crate::Pattern::to_closed) would
    /// produce (a final checkpoint appended to every non-empty line not
    /// already ending in one) — then rewinds the closing checkpoints.
    pub fn with_closed<R>(&mut self, f: impl FnOnce(&IncrementalAnalysis) -> R) -> R {
        let mark = self.mark();
        for i in 0..self.n {
            if self.line_open[i] {
                self.append_checkpoint(ProcessId::new(i));
            }
        }
        let out = f(self);
        self.rewind(mark);
        out
    }

    // ------------------------------------------------------- queries ----

    /// Running count of reachable-but-untrackable checkpoint pairs — the
    /// number of RDT violations among the checkpoints appended so far.
    /// Equals the batch checker's uncapped violation count on the same
    /// pattern.
    pub fn untrackable_pairs(&self) -> u64 {
        self.untrackable
    }

    /// Whether the current pattern satisfies RDT (no untrackable R-path).
    /// Ask through [`with_closed`](IncrementalAnalysis::with_closed) for
    /// the paper's closed-pattern verdict.
    pub fn rdt_holds(&self) -> bool {
        self.untrackable == 0
    }

    /// The number of violations a batch
    /// [`RdtChecker`](crate::RdtChecker) limited to `cap` would collect:
    /// `min(untrackable, max(cap, 1))`.
    pub fn violations_capped(&self, cap: usize) -> usize {
        (self.untrackable as usize).min(cap.max(1))
    }

    /// Popcount of the R-graph reachability closure (reflexive pairs
    /// included) — the batch checker's `pairs_checked`.
    pub fn total_reachable_pairs(&self) -> usize {
        bits::count_ones(&self.rmat.fwd)
    }

    /// Whether an R-path runs from `from` to `to` (reflexively).
    ///
    /// # Panics
    ///
    /// Panics if either checkpoint does not exist.
    pub fn reaches(&self, from: CheckpointId, to: CheckpointId) -> bool {
        let u = self.node_of(from);
        let v = self.node_of(to);
        self.rmat.bit(false, u, v)
    }

    fn node_of(&self, c: CheckpointId) -> usize {
        assert!(
            self.checkpoint_exists(c),
            "checkpoint {c} does not exist in the pattern"
        );
        let p = c.process.index();
        assert!(
            c.index >= self.cp_base[p],
            "checkpoint {c} was compacted away (retained from index {})",
            self.cp_base[p]
        );
        self.cp_nodes[p][(c.index - self.cp_base[p]) as usize] as usize
    }

    /// Entries of `send_events[p]` / `deliver_events[p]` with interval
    /// exactly `x`.
    fn interval_range(events: &[(u32, u32)], x: u32) -> &[(u32, u32)] {
        let lo = events.partition_point(|&(iv, _)| iv < x);
        let hi = events.partition_point(|&(iv, _)| iv <= x);
        &events[lo..hi]
    }

    /// Mask (in `zmat`/`cmat` column space, selected by `causal`) of
    /// messages delivered at `p` in an interval `≤ y`.
    fn deliver_mask(&self, causal: bool, p: usize, y: u32, buf: &mut [u64]) {
        buf.fill(0);
        let hi = self.deliver_events[p].partition_point(|&(iv, _)| iv <= y);
        for &(_, mid) in &self.deliver_events[p][..hi] {
            let rec = &self.msgs[mid as usize];
            let node = if causal { rec.cnode } else { rec.znode };
            // Compaction-dropped chain nodes: unreachable from any send
            // above the chain floor, so skipping them keeps live-headed
            // queries exact.
            if node != NONE_U32 {
                bits::set(buf, node as usize);
            }
        }
    }

    /// Borrows a zeroed `width`-word scratch mask, preferring `stack`
    /// and spilling to `heap` only for patterns with over
    /// `WORD_BITS * MASK_STACK_WORDS` closure nodes. The query hot paths stay
    /// allocation-free at certifiable scopes.
    fn mask_buf<'a>(
        width: usize,
        stack: &'a mut [u64; MASK_STACK_WORDS],
        heap: &'a mut Vec<u64>,
    ) -> &'a mut [u64] {
        if width <= MASK_STACK_WORDS {
            &mut stack[..width]
        } else {
            heap.resize(width, 0);
            heap
        }
    }

    /// Whether some message chain (zigzag path) runs from `from` to `to`:
    /// first send in `I_{from}`, last delivery in `I_{to}`.
    pub fn chain_exists(&self, from: CheckpointId, to: CheckpointId) -> bool {
        self.chain_query(false, from, to)
    }

    /// Whether some **causal** message chain runs from `from` to `to`.
    pub fn causal_chain_exists(&self, from: CheckpointId, to: CheckpointId) -> bool {
        self.chain_query(true, from, to)
    }

    fn chain_query(&self, causal: bool, from: CheckpointId, to: CheckpointId) -> bool {
        let sends = Self::interval_range(&self.send_events[from.process.index()], from.index);
        let delivers = Self::interval_range(&self.deliver_events[to.process.index()], to.index);
        let mat = if causal { &self.cmat } else { &self.zmat };
        sends.iter().any(|&(_, a)| {
            let ra = &self.msgs[a as usize];
            let na = if causal { ra.cnode } else { ra.znode };
            na != NONE_U32
                && delivers.iter().any(|&(_, b)| {
                    let rb = &self.msgs[b as usize];
                    let nb = if causal { rb.cnode } else { rb.znode };
                    nb != NONE_U32 && mat.bit(false, na as usize, nb as usize)
                })
        })
    }

    /// Whether a causal chain from an interval `≥ from.index` (on
    /// `from.process`) to an interval `≤ to.index` (on `to.process`)
    /// exists — the relaxed *causal doubling* sufficient for
    /// trackability.
    pub fn causal_doubling_exists(&self, from: CheckpointId, to: CheckpointId) -> bool {
        let (mut stack, mut heap) = ([0u64; MASK_STACK_WORDS], Vec::new());
        let mask = Self::mask_buf(self.cmat.width, &mut stack, &mut heap);
        self.deliver_mask(true, to.process.index(), to.index, mask);
        self.any_send_row_intersects(true, from.process.index(), from.index, mask)
    }

    /// Netzer–Xu zigzag query: a Z-path leaving strictly after `a` and
    /// arriving at or before `b`.
    pub fn z_path_after_to_before(&self, a: CheckpointId, b: CheckpointId) -> bool {
        let (mut stack, mut heap) = ([0u64; MASK_STACK_WORDS], Vec::new());
        let mask = Self::mask_buf(self.zmat.width, &mut stack, &mut heap);
        self.deliver_mask(false, b.process.index(), b.index, mask);
        self.any_send_row_intersects(false, a.process.index(), a.index + 1, mask)
    }

    /// Whether `checkpoint` lies on a Z-cycle (is *useless*).
    pub fn on_z_cycle(&self, checkpoint: CheckpointId) -> bool {
        self.z_path_after_to_before(checkpoint, checkpoint)
    }

    /// Does any delivered message sent by process `p` in an interval
    /// `≥ x` have a closure row intersecting `mask`?
    fn any_send_row_intersects(&self, causal: bool, p: usize, x: u32, mask: &[u64]) -> bool {
        let lo = self.send_events[p].partition_point(|&(iv, _)| iv < x);
        let mat = if causal { &self.cmat } else { &self.zmat };
        self.send_events[p][lo..].iter().any(|&(_, mid)| {
            let rec = &self.msgs[mid as usize];
            let node = if causal { rec.cnode } else { rec.znode };
            node != NONE_U32 && bits::intersects(mat.row(false, node as usize), mask)
        })
    }

    /// Whether message `b` is zigzag chain-reachable from message `a`
    /// (reflexively); `false` unless both are delivered.
    pub fn zigzag_closure(&self, a: u32, b: u32) -> bool {
        let (za, zb) = (self.msgs[a as usize].znode, self.msgs[b as usize].znode);
        za != NONE_U32 && zb != NONE_U32 && self.zmat.bit(false, za as usize, zb as usize)
    }

    /// Whether message `b` is causally chain-reachable from message `a`
    /// (reflexively); `false` unless both are delivered.
    pub fn causal_link_closure(&self, a: u32, b: u32) -> bool {
        let (ca, cb) = (self.msgs[a as usize].cnode, self.msgs[b as usize].cnode);
        ca != NONE_U32 && cb != NONE_U32 && self.cmat.bit(false, ca as usize, cb as usize)
    }

    /// Characterization (2): every message chain is doubled by a causal
    /// chain. Identical verdict to
    /// [`characterization::all_chains_doubled`]
    /// (crate::characterization::all_chains_doubled) on the same pattern.
    ///
    /// After a [`compact_to`](IncrementalAnalysis::compact_to) the
    /// verdict covers the chains headed strictly above the chain floors
    /// (the retained sub-pattern); chains headed in the dropped prefix
    /// are no longer examined.
    pub fn all_chains_doubled(&self) -> bool {
        let (mut stack, mut heap) = ([0u64; MASK_STACK_WORDS], Vec::new());
        let mask = Self::mask_buf(self.cmat.width, &mut stack, &mut heap);
        // Deduplicated by linear scan: patterns at certifiable scopes
        // yield a handful of distinct endpoint pairs at most.
        let mut checked: Vec<(CheckpointId, CheckpointId)> = Vec::new();
        for a in self.msgs.iter().filter(|m| m.znode != NONE_U32) {
            let from = CheckpointId::new(ProcessId::new(a.from as usize), a.send_iv);
            for b in self.msgs.iter().filter(|m| m.znode != NONE_U32) {
                if !self.zmat.bit(false, a.znode as usize, b.znode as usize) {
                    continue;
                }
                let to = CheckpointId::new(ProcessId::new(b.to as usize), b.deliver_iv);
                if trivially_trackable(from, to) || checked.contains(&(from, to)) {
                    continue;
                }
                checked.push((from, to));
                self.deliver_mask(true, to.process.index(), to.index, mask);
                if !self.any_send_row_intersects(true, from.process.index(), from.index, mask) {
                    return false;
                }
            }
        }
        true
    }

    /// Characterization (3): every CM-path (causal prefix plus one zigzag
    /// link) is doubled. Identical verdict to
    /// [`characterization::all_cm_paths_doubled`]
    /// (crate::characterization::all_cm_paths_doubled).
    ///
    /// After a [`compact_to`](IncrementalAnalysis::compact_to) the
    /// verdict covers the CM-paths over retained messages only, like
    /// [`all_chains_doubled`](IncrementalAnalysis::all_chains_doubled).
    pub fn all_cm_paths_doubled(&self) -> bool {
        let (mut stack, mut heap) = ([0u64; MASK_STACK_WORDS], Vec::new());
        let mask = Self::mask_buf(self.cmat.width, &mut stack, &mut heap);
        let delivered = |(_, m): &(usize, &MsgRec)| m.cnode != NONE_U32;
        for (mid, junction) in self.msgs.iter().enumerate().filter(delivered) {
            for (b, tail) in self.msgs.iter().enumerate().filter(delivered) {
                if mid == b {
                    continue;
                }
                // One zigzag link junction -> tail.
                if junction.to != tail.from || junction.deliver_iv > tail.send_iv {
                    continue;
                }
                let to = CheckpointId::new(ProcessId::new(tail.to as usize), tail.deliver_iv);
                self.deliver_mask(true, to.process.index(), to.index, mask);
                for (_, head) in self.msgs.iter().enumerate().filter(delivered) {
                    if !self
                        .cmat
                        .bit(false, head.cnode as usize, junction.cnode as usize)
                    {
                        continue;
                    }
                    let from = CheckpointId::new(ProcessId::new(head.from as usize), head.send_iv);
                    if trivially_trackable(from, to) {
                        continue;
                    }
                    if !self.any_send_row_intersects(true, from.process.index(), from.index, mask) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Minimum consistent global checkpoint containing `members` (least
    /// fixpoint of the orphan constraints), or `None` if none exists.
    /// Identical to [`min_max::min_consistent_containing`]
    /// (crate::min_max::min_consistent_containing).
    ///
    /// # Panics
    ///
    /// Panics if a member does not exist in the pattern.
    pub fn min_consistent_containing(&self, members: &[CheckpointId]) -> Option<GlobalCheckpoint> {
        let (mut stack, mut heap) = ([0u32; GC_STACK_ENTRIES], Vec::new());
        let gc = self.gc_buf(&mut stack, &mut heap);
        self.min_consistent_containing_into(members, gc)
            .then(|| GlobalCheckpoint::new(gc.to_vec()))
    }

    /// Allocation-free form of
    /// [`min_consistent_containing`]
    /// (IncrementalAnalysis::min_consistent_containing): writes the
    /// global checkpoint into `out` (length `n`) and returns whether one
    /// exists. `out` is unspecified on `false`.
    ///
    /// # Panics
    ///
    /// Panics if a member does not exist in the pattern or `out` has the
    /// wrong length.
    pub fn min_consistent_containing_into(
        &self,
        members: &[CheckpointId],
        out: &mut [u32],
    ) -> bool {
        let gc = out;
        self.member_floor(members, gc);
        loop {
            let mut changed = false;
            for rec in &self.msgs {
                if rec.deliver_iv == NONE_U32 {
                    continue;
                }
                if rec.deliver_iv <= gc[rec.to as usize] && rec.send_iv > gc[rec.from as usize] {
                    if rec.send_iv > self.cp_count[rec.from as usize] {
                        return false;
                    }
                    gc[rec.from as usize] = rec.send_iv;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        members.iter().all(|&m| gc[m.process.index()] == m.index)
    }

    /// Maximum consistent global checkpoint containing `members`
    /// (greatest fixpoint), or `None`. Identical to
    /// [`min_max::max_consistent_containing`]
    /// (crate::min_max::max_consistent_containing).
    ///
    /// # Panics
    ///
    /// Panics if a member does not exist in the pattern.
    pub fn max_consistent_containing(&self, members: &[CheckpointId]) -> Option<GlobalCheckpoint> {
        let (mut stack, mut heap) = ([0u32; GC_STACK_ENTRIES], Vec::new());
        let gc = self.gc_buf(&mut stack, &mut heap);
        self.max_consistent_containing_into(members, gc)
            .then(|| GlobalCheckpoint::new(gc.to_vec()))
    }

    /// Allocation-free form of
    /// [`max_consistent_containing`]
    /// (IncrementalAnalysis::max_consistent_containing): writes the
    /// global checkpoint into `out` (length `n`) and returns whether one
    /// exists. `out` is unspecified on `false`.
    ///
    /// # Panics
    ///
    /// Panics if a member does not exist in the pattern or `out` has the
    /// wrong length.
    pub fn max_consistent_containing_into(
        &self,
        members: &[CheckpointId],
        out: &mut [u32],
    ) -> bool {
        let gc = out;
        gc.copy_from_slice(&self.cp_count);
        for &member in members {
            self.assert_member(member);
            let e = &mut gc[member.process.index()];
            *e = (*e).min(member.index);
        }
        loop {
            let mut changed = false;
            for rec in &self.msgs {
                if rec.deliver_iv == NONE_U32 {
                    continue;
                }
                if rec.send_iv > gc[rec.from as usize] && rec.deliver_iv <= gc[rec.to as usize] {
                    gc[rec.to as usize] = rec.deliver_iv - 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        members.iter().all(|&m| gc[m.process.index()] == m.index)
    }

    /// Greatest consistent global checkpoint componentwise **dominated
    /// by** `caps` (each entry additionally clamped to the process's last
    /// checkpoint). This is the *recovery line* with `caps` as the
    /// failures' resume caps: unlike
    /// [`max_consistent_containing`](IncrementalAnalysis::max_consistent_containing)
    /// no exact membership is demanded of the result, so the descent is
    /// infallible — the all-initial global checkpoint is always
    /// consistent. Matches `rdt-recovery`'s `recovery_line` on the same
    /// pattern and caps.
    ///
    /// # Panics
    ///
    /// Panics if `caps` or `out` have a length other than the process
    /// count.
    pub fn max_consistent_dominated_into(&self, caps: &[u32], out: &mut [u32]) {
        assert_eq!(caps.len(), self.n, "caps length");
        let gc = out;
        gc.copy_from_slice(&self.cp_count);
        for (entry, &cap) in gc.iter_mut().zip(caps) {
            *entry = (*entry).min(cap);
        }
        loop {
            let mut changed = false;
            for rec in &self.msgs {
                if rec.deliver_iv == NONE_U32 {
                    continue;
                }
                if rec.send_iv > gc[rec.from as usize] && rec.deliver_iv <= gc[rec.to as usize] {
                    gc[rec.to as usize] = rec.deliver_iv - 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Allocating form of
    /// [`max_consistent_dominated_into`](IncrementalAnalysis::max_consistent_dominated_into).
    ///
    /// # Panics
    ///
    /// Panics if `caps` has a length other than the process count.
    pub fn max_consistent_dominated(&self, caps: &[u32]) -> GlobalCheckpoint {
        let (mut stack, mut heap) = ([0u32; GC_STACK_ENTRIES], Vec::new());
        let gc = self.gc_buf(&mut stack, &mut heap);
        self.max_consistent_dominated_into(caps, gc);
        GlobalCheckpoint::new(gc.to_vec())
    }

    /// Routing and interval placement of message `mid` (its send-order
    /// handle): origin, destination, and the 1-based intervals of its send
    /// and (if any) delivery events.
    ///
    /// # Panics
    ///
    /// Panics if `mid` is not a message of the current pattern.
    pub fn message_route(&self, mid: u32) -> MessageRoute {
        let rec = &self.msgs[mid as usize];
        MessageRoute {
            from: ProcessId::new(rec.from as usize),
            to: ProcessId::new(rec.to as usize),
            send_interval: rec.send_iv,
            deliver_interval: (rec.deliver_iv != NONE_U32).then_some(rec.deliver_iv),
        }
    }

    /// Minimum consistent global checkpoint through R-graph reachability
    /// (the independent witness formulation). Identical to
    /// [`min_max::min_consistent_via_rgraph`]
    /// (crate::min_max::min_consistent_via_rgraph) on closed patterns.
    ///
    /// # Panics
    ///
    /// Panics if a member does not exist in the pattern.
    pub fn min_consistent_via_rgraph(&self, members: &[CheckpointId]) -> Option<GlobalCheckpoint> {
        let (mut stack, mut heap) = ([0u32; GC_STACK_ENTRIES], Vec::new());
        let gc = self.gc_buf(&mut stack, &mut heap);
        self.min_consistent_via_rgraph_into(members, gc)
            .then(|| GlobalCheckpoint::new(gc.to_vec()))
    }

    /// Allocation-free form of
    /// [`min_consistent_via_rgraph`]
    /// (IncrementalAnalysis::min_consistent_via_rgraph): writes the
    /// global checkpoint into `out` (length `n`) and returns whether one
    /// exists. `out` is unspecified on `false`.
    ///
    /// # Panics
    ///
    /// Panics if a member does not exist in the pattern or `out` has the
    /// wrong length.
    pub fn min_consistent_via_rgraph_into(
        &self,
        members: &[CheckpointId],
        out: &mut [u32],
    ) -> bool {
        let gc = out;
        self.member_floor(members, gc);
        for (j, slot) in gc.iter_mut().enumerate().take(self.n) {
            let mut found = false;
            let lo = (*slot + 1).max(self.cp_base[j]);
            for z in (lo..=self.cp_count[j]).rev() {
                let from = self.cp_nodes[j][(z - self.cp_base[j]) as usize] as usize;
                if members
                    .iter()
                    .any(|&m| self.rmat.bit(false, from, self.node_of(m)))
                {
                    *slot = z;
                    found = true;
                    break;
                }
            }
            // Below the compaction base the explicit rows are gone, but
            // the drop-reach summaries hold exactly the largest dropped
            // index of `j` with an R-path to each retained node.
            if !found && !self.drop_reach.is_empty() {
                for &m in members {
                    let dr = self.drop_reach[self.node_of(m) * self.n + j];
                    if dr != NONE_U32 && dr > *slot {
                        *slot = dr;
                    }
                }
            }
        }
        members.iter().all(|&m| gc[m.process.index()] == m.index)
    }

    /// Borrows a zeroed `n`-entry global-checkpoint scratch, preferring
    /// `stack` and spilling to `heap` only above `GC_STACK_ENTRIES`
    /// processes. The oracle hot paths allocate only for `Some` results.
    fn gc_buf<'a>(
        &self,
        stack: &'a mut [u32; GC_STACK_ENTRIES],
        heap: &'a mut Vec<u32>,
    ) -> &'a mut [u32] {
        if self.n <= GC_STACK_ENTRIES {
            &mut stack[..self.n]
        } else {
            heap.resize(self.n, 0);
            heap
        }
    }

    fn member_floor(&self, members: &[CheckpointId], gc: &mut [u32]) {
        gc.fill(0);
        for &member in members {
            self.assert_member(member);
            let e = &mut gc[member.process.index()];
            *e = (*e).max(member.index);
        }
    }

    fn assert_member(&self, member: CheckpointId) {
        assert!(
            member.index <= self.cp_count[member.process.index()],
            "member {member} does not exist in the pattern"
        );
    }

    // ------------------------------------------------------ internal ----

    fn set_line_open(&mut self, p: usize, value: bool) {
        if self.line_open[p] != value {
            self.journal.push(Undo::LineOpen {
                p: p as u32,
                old: self.line_open[p],
            });
            self.line_open[p] = value;
        }
    }

    /// Dense zigzag interval slots for process `p` up to interval `upto`,
    /// chained in increasing order (dense from `slot_base[p]` once
    /// compaction has dropped a prefix).
    fn ensure_slots(&mut self, p: usize, upto: u32) {
        debug_assert!(
            upto >= self.slot_base[p],
            "slot {upto} of process {p} was compacted away"
        );
        while self.slot_base[p] as usize + self.z_slots[p].len() <= upto as usize {
            let s = self.zmat.push_node() as u32;
            self.journal.push(Undo::Node { mat: MAT_Z });
            if let Some(&prev) = self.z_slots[p].last() {
                self.insert_z_edge(prev as usize, s as usize);
            }
            self.z_slots[p].push(s);
            self.journal.push(Undo::ZSlotPushed { p: p as u32 });
        }
    }

    /// Inserts an R-graph edge, counting each *new* closure pair that is
    /// not trackable. The verdict per pair is final at insertion time:
    /// the destination's `TDV` snapshot was taken when the destination
    /// node was created, before any edge could reach it.
    fn insert_r_edge(&mut self, u: usize, v: usize) {
        if !self
            .rmat
            .insert_edge(MAT_R, &mut self.journal, &mut self.scratch, true, u, v)
        {
            return;
        }
        let pairs = self.scratch.pairs.iter();
        let mut delta = pairs
            .filter(|&&(x, y)| !self.trackable_nodes(x as usize, y as usize))
            .count() as u64;
        if !self.drop_reach.is_empty() {
            delta += self.propagate_drop_reach(u);
        }
        if delta > 0 {
            self.journal.push(Undo::Untrackable {
                old: self.untrackable,
            });
            self.untrackable += delta;
        }
    }

    /// Folds `u`'s dropped-reach summary into every node of
    /// `scratch.dsucc` (the nodes the edge just inserted at `u` made newly
    /// reachable from it) and returns the number of *new* untrackable pairs
    /// whose source checkpoint was compacted away.
    ///
    /// Exactness rests on three facts: dropped reach sets are downward
    /// closed per process (so the per-process maximum index determines
    /// the set); `drop_reach[u]` dominates `drop_reach[x]` for every
    /// retained predecessor `x` of `u` (reachability is transitive), so
    /// folding only `u`'s row covers everything newly reaching the dirty
    /// successors; and `drop_reach[y]` already dominates `drop_reach[u]`
    /// for every `y` that `u` reached before the edge, so the successors
    /// outside the dirty set have nothing to gain.
    fn propagate_drop_reach(&mut self, u: usize) -> u64 {
        let n = self.n;
        let base_u = u * n;
        if self.drop_reach[base_u..base_u + n]
            .iter()
            .all(|&d| d == NONE_U32)
        {
            return 0;
        }
        let mut delta = 0u64;
        for y in bits::ones(&self.scratch.dsucc) {
            let py = self.r_meta[y].0;
            let base_y = y * n;
            for k in 0..n {
                let du = self.drop_reach[base_u + k];
                if du == NONE_U32 {
                    continue;
                }
                let old = self.drop_reach[base_y + k];
                if old != NONE_U32 && du <= old {
                    continue;
                }
                self.journal.push(Undo::DropReach {
                    slot: (base_y + k) as u32,
                    old,
                });
                self.drop_reach[base_y + k] = du;
                if k as u32 != py {
                    // Dropped sources C_{k,i} with i in (old, du] newly
                    // reach y; of those, the ones the destination's TDV
                    // snapshot does not cover are untrackable. Index 0
                    // (and anything <= the snapshot) is always covered.
                    let o = if old == NONE_U32 { 0 } else { old };
                    let thr = o.max(self.cp_tdv[base_y + k]);
                    if du > thr {
                        delta += (du - thr) as u64;
                    }
                }
            }
        }
        delta
    }

    fn insert_z_edge(&mut self, u: usize, v: usize) {
        self.zmat
            .insert_edge(MAT_Z, &mut self.journal, &mut self.scratch, false, u, v);
    }

    fn insert_c_edge(&mut self, u: usize, v: usize) {
        self.cmat
            .insert_edge(MAT_C, &mut self.journal, &mut self.scratch, false, u, v);
    }

    /// Capacity snapshot of every growable buffer the engine owns.
    /// Rewinding truncates in place and replays refill the warmed
    /// storage, so a rewind + replay cycle must not change any entry —
    /// the branch-isolation test pins that invariant.
    #[cfg(test)]
    fn buffer_capacities(&self) -> Vec<usize> {
        let mut caps = vec![
            self.journal.capacity(),
            self.msgs.capacity(),
            self.msg_tdv.capacity(),
            self.cp_tdv.capacity(),
            self.r_meta.capacity(),
            self.drop_reach.capacity(),
            self.scratch.dpred.capacity(),
            self.scratch.dsucc.capacity(),
            self.scratch.pairs.capacity(),
            self.rmat.fwd.capacity(),
            self.rmat.bwd.capacity(),
            self.zmat.fwd.capacity(),
            self.zmat.bwd.capacity(),
            self.cmat.fwd.capacity(),
            self.cmat.bwd.capacity(),
        ];
        for p in 0..self.n {
            caps.push(self.cp_nodes[p].capacity());
            caps.push(self.z_slots[p].capacity());
            caps.push(self.c_spine[p].capacity());
            caps.push(self.c_delivs[p].capacity());
            caps.push(self.send_events[p].capacity());
            caps.push(self.deliver_events[p].capacity());
        }
        caps
    }

    /// Definition 3.3/3.4 trackability of the R-path `x → y` (both R-graph
    /// nodes): same-process forward, or the destination's snapshotted
    /// `TDV` already records an interval `≥ x`'s index.
    fn trackable_nodes(&self, x: usize, y: usize) -> bool {
        let (px, ix) = self.r_meta[x];
        let (py, iy) = self.r_meta[y];
        if px == py {
            ix <= iy
        } else {
            self.cp_tdv[y * self.n + px as usize] >= ix
        }
    }
}

/// Same-process forward dependencies need no doubling (Definition 3.3's
/// first disjunct).
fn trivially_trackable(from: CheckpointId, to: CheckpointId) -> bool {
    from.process == to.process && from.index <= to.index
}

/// Where a message sits in the pattern: who sent it, who receives it, and
/// the (1-based) intervals of its send and delivery events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageRoute {
    /// Sending process.
    pub from: ProcessId,
    /// Destination process.
    pub to: ProcessId,
    /// Interval of the send event at the sender.
    pub send_interval: u32,
    /// Interval of the delivery at the destination; `None` while the
    /// message is in transit.
    pub deliver_interval: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::{all_chains_doubled_with, all_cm_paths_doubled_with};
    use crate::{min_max, paper_figures, Pattern, PatternAnalysis, PatternBuilder, PatternEvent};

    /// One pattern-building operation, applied in lockstep to the engine
    /// and to a [`PatternBuilder`].
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Cp(usize),
        Send(usize, usize),
        /// Deliver the message with the given *send-order* number.
        Del(usize),
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Converts a pattern into an op sequence via one valid linearization
    /// (message numbers renumbered to send order).
    fn ops_of(pattern: &Pattern) -> Vec<Op> {
        let order = pattern.linearize().expect("realizable");
        let mut send_order = vec![usize::MAX; pattern.num_messages()];
        let mut next = 0usize;
        let mut ops = Vec::new();
        for (proc, idx) in order {
            match pattern.events(proc)[idx] {
                PatternEvent::Checkpoint => ops.push(Op::Cp(proc.index())),
                PatternEvent::Send(m) => {
                    send_order[m.0] = next;
                    next += 1;
                    let info = pattern.message(m);
                    ops.push(Op::Send(info.from.index(), info.to.index()));
                }
                PatternEvent::Deliver(m) => ops.push(Op::Del(send_order[m.0])),
            }
        }
        ops
    }

    struct Lockstep {
        incr: IncrementalAnalysis,
        builder: PatternBuilder,
        mids: Vec<crate::PatternMessageId>,
    }

    impl Lockstep {
        fn new(n: usize) -> Self {
            Lockstep {
                incr: IncrementalAnalysis::new(n),
                builder: PatternBuilder::new(n),
                mids: Vec::new(),
            }
        }

        fn apply(&mut self, op: Op) {
            match op {
                Op::Cp(i) => {
                    self.incr.append_checkpoint(p(i));
                    self.builder.checkpoint(p(i));
                }
                Op::Send(from, to) => {
                    let mid = self.incr.append_send(p(from), p(to));
                    assert_eq!(mid as usize, self.mids.len());
                    self.mids.push(self.builder.send(p(from), p(to)));
                }
                Op::Del(k) => {
                    self.incr.append_deliver(k as u32);
                    self.builder.deliver(self.mids[k]).expect("deliverable");
                }
            }
        }

        fn pattern(&self) -> Pattern {
            self.builder.clone().build().expect("well-formed")
        }
    }

    /// Every query of the engine must agree with the batch pipeline on
    /// the closed pattern.
    fn assert_matches_batch(incr: &mut IncrementalAnalysis, pattern: &Pattern) {
        let analysis = PatternAnalysis::new(pattern);
        let closed = analysis.pattern();
        let reach = analysis.reachability();
        let annotations = analysis.annotations().expect("realizable");
        let zz = analysis.zigzag();

        incr.with_closed(|view| {
            let mut batch_untrackable = 0u64;
            for from in closed.checkpoints() {
                for to in reach.reachable_from(from) {
                    if !annotations.trackable(from, to) {
                        batch_untrackable += 1;
                    }
                }
            }
            assert_eq!(
                view.untrackable_pairs(),
                batch_untrackable,
                "untrackable count"
            );
            assert_eq!(
                view.total_reachable_pairs(),
                reach.total_reachable_pairs(),
                "closure popcount"
            );
            let report = analysis.rdt_report();
            assert_eq!(view.rdt_holds(), report.holds());
            assert_eq!(view.violations_capped(16), report.violations().len());
            assert_eq!(
                view.all_chains_doubled(),
                all_chains_doubled_with(&analysis),
                "chains doubled"
            );
            assert_eq!(
                view.all_cm_paths_doubled(),
                all_cm_paths_doubled_with(&analysis),
                "cm paths doubled"
            );

            for from in closed.checkpoints() {
                assert_eq!(view.on_z_cycle(from), zz.on_z_cycle(from), "z-cycle {from}");
                for to in closed.checkpoints() {
                    assert_eq!(
                        view.reaches(from, to),
                        reach.reaches(from, to),
                        "reaches ({from}, {to})"
                    );
                    assert_eq!(
                        view.chain_exists(from, to),
                        zz.chain_exists(from, to),
                        "chain ({from}, {to})"
                    );
                    assert_eq!(
                        view.causal_chain_exists(from, to),
                        zz.causal_chain_exists(from, to),
                        "causal chain ({from}, {to})"
                    );
                    assert_eq!(
                        view.causal_doubling_exists(from, to),
                        zz.causal_doubling_exists(from, to),
                        "doubling ({from}, {to})"
                    );
                    assert_eq!(
                        view.z_path_after_to_before(from, to),
                        zz.z_path_after_to_before(from, to),
                        "z-path ({from}, {to})"
                    );
                }
                let member = [from];
                assert_eq!(
                    view.min_consistent_containing(&member),
                    min_max::min_consistent_containing(closed, &member),
                    "min gc {from}"
                );
                assert_eq!(
                    view.max_consistent_containing(&member),
                    min_max::max_consistent_containing(closed, &member),
                    "max gc {from}"
                );
                assert_eq!(
                    view.min_consistent_via_rgraph(&member),
                    min_max::min_consistent_via_rgraph_with(&analysis, &member),
                    "min gc via R-graph {from}"
                );
            }
        });
    }

    #[test]
    fn empty_engine_matches_empty_pattern() {
        for n in 1..4 {
            let mut incr = IncrementalAnalysis::new(n);
            let pattern = PatternBuilder::new(n).build().unwrap();
            assert_matches_batch(&mut incr, &pattern);
        }
    }

    #[test]
    fn figure_2_motif_is_detected_online() {
        // Figure 2's unbroken non-causal chain: m' sent before m races
        // ahead; the hidden dependency appears once intervals close.
        let mut incr = IncrementalAnalysis::new(3);
        let m_prime = incr.append_send(p(1), p(2));
        let m = incr.append_send(p(0), p(1));
        incr.append_deliver(m);
        incr.append_deliver(m_prime);
        assert!(incr.rdt_holds(), "open pattern has no closed intervals yet");
        assert!(!incr.with_closed(|view| view.rdt_holds()));
        // And the engine agrees with the batch checker on the details.
        let mut b = PatternBuilder::new(3);
        let bm_prime = b.send(p(1), p(2));
        let bm = b.send(p(0), p(1));
        b.deliver(bm).unwrap();
        b.deliver(bm_prime).unwrap();
        let pattern = b.build().unwrap();
        assert_matches_batch(&mut incr, &pattern);
    }

    #[test]
    fn engine_matches_batch_on_paper_figures() {
        for pattern in [
            paper_figures::figure_1(),
            paper_figures::figure_2_unbroken(),
            paper_figures::figure_2_broken(),
            paper_figures::figure_4_unbroken(),
            paper_figures::figure_4_broken(),
        ] {
            let ops = ops_of(&pattern);
            let mut lock = Lockstep::new(pattern.num_processes());
            for &op in &ops {
                lock.apply(op);
            }
            let rebuilt = lock.pattern();
            assert_matches_batch(&mut lock.incr, &rebuilt);
        }
    }

    #[test]
    fn engine_matches_batch_after_every_prefix_of_figure_1() {
        let pattern = paper_figures::figure_1();
        let ops = ops_of(&pattern);
        let mut lock = Lockstep::new(pattern.num_processes());
        for &op in &ops {
            lock.apply(op);
            let prefix = lock.pattern();
            assert_matches_batch(&mut lock.incr, &prefix);
        }
    }

    #[test]
    fn rewind_restores_marked_state() {
        let mut lock = Lockstep::new(3);
        for &op in &[Op::Send(0, 1), Op::Del(0), Op::Cp(1)] {
            lock.apply(op);
        }
        let mark = lock.incr.mark();

        // Branch A (engine only): a figure-2 motif whose closed pattern
        // violates RDT — m' (p2 to p0) races ahead of the chain p1 to p2,
        // so p0 never hears of p1's interval.
        let a1 = lock.incr.append_send(p(2), p(0));
        let a2 = lock.incr.append_send(p(1), p(2));
        lock.incr.append_deliver(a2);
        lock.incr.append_deliver(a1);
        let branch_a = lock.incr.with_closed(|v| v.untrackable_pairs());
        assert!(branch_a > 0, "branch A must violate RDT when closed");

        // Back out of branch A; the engine must match the bare prefix.
        lock.incr.rewind(mark);
        assert_eq!(lock.incr.num_messages(), 1);
        let prefix = lock.pattern();
        assert_matches_batch(&mut lock.incr, &prefix);

        // Branch B: different events — verdicts are those of prefix+B,
        // uncontaminated by the rewound branch A.
        lock.apply(Op::Cp(0));
        lock.apply(Op::Send(2, 0));
        let pattern_b = lock.pattern();
        assert_matches_batch(&mut lock.incr, &pattern_b);

        // Rewind once more and replay branch A: same observation, the
        // message handles come out identical, and — every buffer having
        // been warmed by the first pass — the whole rewind + replay cycle
        // runs in reused storage, growing no allocation.
        let warmed = lock.incr.buffer_capacities();
        lock.incr.rewind(mark);
        let b1 = lock.incr.append_send(p(2), p(0));
        let b2 = lock.incr.append_send(p(1), p(2));
        assert_eq!((a1, a2), (b1, b2));
        lock.incr.append_deliver(b2);
        lock.incr.append_deliver(b1);
        assert_eq!(lock.incr.with_closed(|v| v.untrackable_pairs()), branch_a);
        assert_eq!(
            lock.incr.buffer_capacities(),
            warmed,
            "rewind + replay must not grow any engine buffer"
        );
    }

    #[test]
    fn with_closed_is_transparent() {
        let mut incr = IncrementalAnalysis::new(2);
        let m = incr.append_send(p(0), p(1));
        incr.append_deliver(m);
        let before = incr.mark();
        let pairs = incr.with_closed(|view| view.total_reachable_pairs());
        assert!(pairs > 0);
        assert_eq!(incr.mark(), before, "closing must be fully rewound");
        assert_eq!(incr.last_checkpoint_index(p(0)), 0);
        assert_eq!(incr.last_checkpoint_index(p(1)), 0);
    }

    #[test]
    #[should_panic(expected = "already delivered")]
    fn double_delivery_panics() {
        let mut incr = IncrementalAnalysis::new(2);
        let m = incr.append_send(p(0), p(1));
        incr.append_deliver(m);
        incr.append_deliver(m);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn missing_member_panics() {
        let incr = IncrementalAnalysis::new(2);
        let _ = incr.min_consistent_containing(&[CheckpointId::new(p(0), 3)]);
    }

    #[test]
    fn dominated_descent_matches_brute_force_on_figure_1() {
        // For *every* caps vector dominated by the last checkpoints, the
        // dominated descent must return the componentwise maximum of all
        // consistent global checkpoints below the caps.
        let pattern = paper_figures::figure_1();
        let n = pattern.num_processes();
        let mut lock = Lockstep::new(n);
        for op in ops_of(&pattern) {
            lock.apply(op);
        }
        let last: Vec<u32> = (0..n)
            .map(|i| pattern.last_checkpoint_index(p(i)))
            .collect();
        let mut caps = vec![0u32; n];
        loop {
            let line = lock.incr.max_consistent_dominated(&caps);
            let mut best = vec![0u32; n];
            let mut idx = vec![0u32; n];
            loop {
                let gc = crate::GlobalCheckpoint::new(idx.clone());
                if crate::consistency::is_consistent(&pattern, &gc) {
                    for (b, &v) in best.iter_mut().zip(&idx) {
                        *b = (*b).max(v);
                    }
                }
                let mut k = 0;
                while k < n && idx[k] == caps[k] {
                    idx[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
                idx[k] += 1;
            }
            assert_eq!(line.as_slice(), &best[..], "caps {caps:?}");
            let mut k = 0;
            while k < n && caps[k] == last[k] {
                caps[k] = 0;
                k += 1;
            }
            if k == n {
                break;
            }
            caps[k] += 1;
        }
        // Uncapped, the dominated descent coincides with the greatest
        // consistent global checkpoint.
        assert_eq!(
            lock.incr.max_consistent_dominated(&last),
            lock.incr.max_consistent_containing(&[]).expect("exists")
        );
    }

    #[test]
    fn message_route_reports_placement() {
        let mut incr = IncrementalAnalysis::new(2);
        let m0 = incr.append_send(p(0), p(1));
        incr.append_checkpoint(p(0));
        let m1 = incr.append_send(p(1), p(0));
        incr.append_deliver(m0);
        let r0 = incr.message_route(m0);
        assert_eq!(r0.from, p(0));
        assert_eq!(r0.to, p(1));
        assert_eq!(r0.send_interval, 1, "send in P0's first interval");
        assert_eq!(
            r0.deliver_interval,
            Some(1),
            "delivered in P1's first interval"
        );
        let r1 = incr.message_route(m1);
        assert_eq!(r1.from, p(1));
        assert_eq!(r1.send_interval, 1);
        assert_eq!(r1.deliver_interval, None, "still in transit");
    }

    // ---------------------------------------- kernel differential ----

    /// Deterministic xorshift generator for the proptests below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 as usize) % n
        }
    }

    /// Grows two matrices to `target` nodes through the same random
    /// insertions — the dirty-set kernel on one, the full-scan reference on
    /// the other — and holds slabs, journal entries, collected pairs and
    /// the "was new" flag against each other after every insertion.
    fn assert_kernels_agree(rng: &mut Rng, target: usize, collect: bool) {
        let (mut kernel, mut reference) = (ClosureMatrix::new(), ClosureMatrix::new());
        let (mut journal_k, mut journal_r) = (Vec::new(), Vec::new());
        let (mut scratch, mut pairs_r) = (EdgeScratch::default(), Vec::new());
        let mut inserted: Vec<(usize, usize)> = Vec::new();
        let (mut fresh_edges, mut implied_edges) = (0usize, 0usize);
        for m in [&mut kernel, &mut reference] {
            m.push_node();
            m.push_node();
        }
        let mut steps = 0;
        while kernel.nodes < target || steps < 3 * target {
            steps += 1;
            let k = kernel.nodes;
            let (u, v) = match rng.below(8) {
                // An edge at a node pushed this very step (into or out of
                // it); pushes cross the 1 -> 2 -> 4 word growth.
                0 | 1 if k < target => {
                    kernel.push_node();
                    reference.push_node();
                    let old = rng.below(k);
                    if rng.below(2) == 0 {
                        (old, k)
                    } else {
                        (k, old)
                    }
                }
                2 => {
                    let x = rng.below(k);
                    (x, x)
                }
                // An edge inserted before: implied by now.
                3 if !inserted.is_empty() => inserted[rng.below(inserted.len())],
                // The reverse of one: closes a cycle.
                4 if !inserted.is_empty() => {
                    let (a, b) = inserted[rng.below(inserted.len())];
                    (b, a)
                }
                _ => {
                    let (a, b) = (rng.below(k), rng.below(k));
                    (a.min(b), a.max(b))
                }
            };
            inserted.push((u, v));
            let (at_k, at_r) = (journal_k.len(), journal_r.len());
            let new_k = kernel.insert_edge(MAT_R, &mut journal_k, &mut scratch, collect, u, v);
            let new_r =
                reference.insert_edge_full_scan(MAT_R, &mut journal_r, &mut pairs_r, collect, u, v);
            assert_eq!(new_k, new_r, "was-new flag of {u} -> {v}");
            assert_eq!(kernel.fwd, reference.fwd, "fwd after {u} -> {v}");
            assert_eq!(kernel.bwd, reference.bwd, "bwd after {u} -> {v}");
            assert_eq!(
                journal_k[at_k..],
                journal_r[at_r..],
                "journal of {u} -> {v}"
            );
            assert_eq!(scratch.pairs, pairs_r, "pairs of {u} -> {v}");
            assert_eq!(collect && new_k, !pairs_r.is_empty());
            if new_k {
                fresh_edges += 1;
            } else {
                implied_edges += 1;
            }
        }
        assert_eq!(kernel.width, bits::words_for(target).next_power_of_two());
        assert!(
            fresh_edges > 0 && implied_edges > 0,
            "both outcomes exercised"
        );
    }

    fn random_ops(
        rng: &mut Rng,
        n: usize,
        events: usize,
        in_flight: &mut Vec<usize>,
        sent: &mut usize,
    ) -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..events {
            match rng.below(4) {
                0 => ops.push(Op::Cp(rng.below(n))),
                1 | 2 => {
                    let from = rng.below(n);
                    ops.push(Op::Send(from, (from + 1 + rng.below(n - 1)) % n));
                    in_flight.push(*sent);
                    *sent += 1;
                }
                _ if !in_flight.is_empty() => {
                    let i = rng.below(in_flight.len());
                    ops.push(Op::Del(in_flight.swap_remove(i)));
                }
                _ => {}
            }
        }
        ops
    }

    fn apply_all(lock: &mut Lockstep, ops: &[Op]) {
        for &op in ops {
            lock.apply(op);
        }
    }

    /// The snapshot document, with the one field that is documented not to
    /// rewind (`events`, a monotone work counter) blanked.
    fn rewindable_state(incr: &IncrementalAnalysis) -> String {
        let mut doc = incr.snapshot_json();
        if let rdt_json::Json::Obj(fields) = &mut doc {
            fields.retain(|(key, _)| key != "events");
        }
        doc.to_string()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// `insert_edge` leaves exactly the state, journal and pair list
        /// the full-scan loop it replaced would have left.
        fn dirty_set_kernel_matches_full_scan(seed in 1u64..1_000_000) {
            let mut rng = Rng(seed | 1);
            for target in [63, 64, 65, 130] {
                for collect in [false, true] {
                    assert_kernels_agree(&mut rng, target, collect);
                }
            }
        }

        /// ROADMAP 5(c): a rewind leaves the engine bit-equal to a fresh
        /// engine fed the prefix — with the prefix compacted half-way (so
        /// the branch runs on rebuilt matrices and `drop_reach` summaries)
        /// and without.
        fn rewind_is_bit_equal_to_a_fresh_replay(
            seed in 1u64..1_000_000,
            n in 2usize..5,
            pre in 8usize..48,
            branch in 4usize..32,
        ) {
            let mut rng = Rng(seed | 1);
            let (mut in_flight, mut sent) = (Vec::new(), 0);
            let head = random_ops(&mut rng, n, pre, &mut in_flight, &mut sent);
            let tail = random_ops(&mut rng, n, pre / 2, &mut in_flight, &mut sent);
            let detour = random_ops(&mut rng, n, branch, &mut in_flight, &mut sent);
            for compact in [false, true] {
                // Only the engine half of each lockstep is looked at: the
                // pattern mirror knows neither compaction nor rewind.
                let prefix = || {
                    let mut lock = Lockstep::new(n);
                    apply_all(&mut lock, &head);
                    if compact {
                        lock.incr.compact_to_recovery_line();
                    }
                    apply_all(&mut lock, &tail);
                    lock
                };
                let mut lock = prefix();
                let mark = lock.incr.mark();
                apply_all(&mut lock, &detour);
                lock.incr.rewind(mark);
                let (incr, fresh) = (lock.incr, prefix().incr);
                assert_eq!(rewindable_state(&incr), rewindable_state(&fresh));
            }
        }
    }
}
