//! Incremental pattern analysis: the append-only twin of
//! [`PatternAnalysis`](crate::PatternAnalysis), in three layers.
//!
//! Where the batch pipeline rebuilds everything from scratch for every
//! (prefix of a) pattern, [`IncrementalAnalysis`] maintains it *online*
//! under three events: `append_send` (a message leaves its sender: snapshot
//! of the piggybacked `TDV`), `append_deliver` (it arrives: merge of the
//! piggyback) and `append_checkpoint` (new R-graph node, Rule 1 and all now
//! completable Rule 2 edges, `TDV` snapshot).
//!
//! # Layers
//!
//! The paper's result is that on an RDT pattern every rollback dependency
//! is visible on the fly: R-graph reachability is read off the `TDV` a
//! checkpoint already carries. The other two visible characterizations
//! (every message chain causally doubled, every CM-path doubled) are
//! *equivalent statements*. The CM-path one is read off the `TDV`s too;
//! only a reader that compares all three needs the chain closures. The
//! engine is therefore composed **by type**,
//! `IncrementalAnalysis<C, J>`, and a reader pays for the layers it names:
//!
//! * the **core** (this module, `compaction.rs`, `snapshot.rs`), always
//!   present: the R-graph closure, the message table, the `TDV` snapshots,
//!   the running untrackable-pair count, the CM-path check
//!   ([`visible_violations`](IncrementalAnalysis::visible_violations)),
//!   the consistency oracles, compaction and snapshots (these two on the
//!   bare core only, `IncrementalAnalysis<NoChains, NoJournal>`).
//! * the **chain layer** `C` (`chain_layer.rs`): [`Chains`] maintains the
//!   zigzag and causal chain closures for characterization 2 and is the
//!   only instantiation with the chain queries; [`NoChains`] is zero-sized
//!   and pushes no node.
//! * the **journal layer** `J` (`journal.rs`): [`UndoJournal`] records
//!   every mutation and is the only instantiation with `mark` / `rewind` /
//!   `with_closed`; [`NoJournal`] is zero-sized and records nothing. It is
//!   a type parameter rather than a flag so that the closure kernel's inner
//!   loop is compiled without the push, and so that asking a journal-free
//!   engine to rewind, or a journaled one to compact or restore, is a
//!   compile error, not a runtime failure.
//!
//! Two instantiations run in production. `rdt-serve` and the simulator's
//! crash-recovery shadow run the bare [`IncrementalAnalysis`] (core only:
//! no wire query and no crash line reads a chain closure or takes a mark;
//! a crash line lets each open interval stand as a virtual checkpoint,
//! [`max_consistent_dominated_open_into`](IncrementalAnalysis::max_consistent_dominated_open_into)),
//! the only instantiation that compacts and persists; the certifier runs
//! [`FullAnalysis`] (core + chains + journal), which rewinds. The tests
//! also run the core with the journal alone, `IncrementalAnalysis<NoChains,
//! UndoJournal>`, as the never-compacted reference they ask closed-view
//! questions of.
//!
//! # Data structures
//!
//! The R-graph closure is held as numbers, not bits: one **reach vector**
//! per R-node, `reach[y][p]` = the greatest checkpoint of `p` with an
//! R-path to `y`. Rule 1 chains every process's checkpoints, so the
//! checkpoints of `p` that reach `y` are a prefix and one index per (node,
//! process) is the whole set — `n` words a node, whatever the stream's age,
//! and indifferent to whether a compaction has since dropped the reaching
//! nodes. It is the forward closure too: `x = C_{p,i}` reaches `y` iff
//! `reach[y][p] > i`, and along a process's checkpoints each column of
//! `reach` only rises, so the checkpoints of `q` that `x` reaches are a
//! suffix, found by binary search. That is all the core keeps of the
//! closure, so its memory is linear in the resident nodes. An R-edge
//! folds its source's vector into the vectors of the nodes it newly
//! reaches, its *dirty successors* (`insert_r_edge`). For an edge into the
//! node being appended that is the one node, its row an `n`-wide `max`;
//! otherwise it is a run of each process's checkpoints, from the first the
//! target reaches (a binary search) to the first the source reaches, and
//! only the lanes that rise are written: the columns rise down the run, so
//! a lane that has caught up with the source's vector in one row stays
//! caught up in the rows after. No closure pair is ever enumerated, and
//! neither compaction nor a restore has anything to build.
//!
//! The message table is never dropped (handles stay stable), so a stream's
//! memory is linear in its resident nodes plus the messages it ever sent:
//! one 28-byte `MsgRec` each, and `n` words of piggyback until compaction
//! reclaims them. The table indexes itself. Each record links to its
//! sender's previous send and its receiver's previous delivery, and the
//! engine keeps the `2n` chain heads (`heads`), so every reader of a
//! process's sends or deliveries — the Rule 2 scans of a checkpoint, the
//! consistency fixpoints, the tail targets, the chain queries, a rewind —
//! walks its chain newest first (`Chain`) and stops at the interval it
//! needs. There is no per-process vector beside the table to grow.
//!
//! The chain closures (zigzag and causal chains over delivered messages)
//! have no such vectors. Each is a square bit matrix with a transpose twin
//! (`ClosureMatrix` in `chain_layer.rs`), updated by Italiano's
//! incremental-transitive-closure rule restricted to two *dirty sets*: the
//! nodes reaching the edge's source but not yet its target, and the nodes
//! the target reaches but the source not yet. Rows never lose bits while
//! appending.
//!
//! RDT itself is counted online, off the same vectors. The destination's
//! dependency vector is snapshotted when the checkpoint is appended, before
//! any R-path can reach it, and `C_{p,i} → y` is trackable iff that snapshot
//! has `TDV[p] ≥ i`: `reach` is stored one up, so node `y` has
//! `(reach[y][p] − 1 − TDV_y[p])⁺` untrackable sources on `p`, and
//! [`untrackable_pairs`](IncrementalAnalysis::untrackable_pairs) is the sum
//! of that over all nodes ever appended, kept running by the fold — the gap
//! between what reached a checkpoint and what its vector saw. Where it is 0
//! the two are equal and `TDV`, read as a global checkpoint, is the minimum
//! consistent one containing the checkpoint: Corollary 4.5, which
//! [`min_consistent_via_rgraph`](IncrementalAnalysis::min_consistent_via_rgraph)
//! reads off `reach` with or without RDT.
//! [`untrackable_cells`](IncrementalAnalysis::untrackable_cells) lists the
//! pairs the count sums. Every batch R-path question
//! ([`PatternAnalysis::rdt_report`](crate::PatternAnalysis::rdt_report)) is
//! a replay of the pattern into this core
//! ([`from_pattern`](IncrementalAnalysis::from_pattern)), so "untrackable"
//! has one definition.

use rdt_causality::bits::{self, WORD_BITS};
use rdt_causality::{CheckpointId, ProcessId};

use crate::consistency::GlobalCheckpoint;
use crate::{Pattern, PatternError, PatternEvent};

#[path = "journal.rs"]
mod journal;
pub use journal::{Journal, Mark, NoJournal, UndoJournal};
use journal::{Undo, MAT_C, MAT_Z, MAX_CLOSURE_NODES};

#[path = "chain_layer.rs"]
mod chain_layer;
pub use chain_layer::{ChainLayer, Chains, NoChains};

#[path = "compaction.rs"]
mod compaction;
pub use compaction::CompactionStats;

#[path = "snapshot.rs"]
mod snapshot;
pub use snapshot::{
    SnapshotError, SnapshotErrorKind, SnapshotMarks, SnapshotTables, SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
};

/// Core + chains + journal: the chain characterization beside the core's
/// two, rewindable — the certifier's engine. It neither compacts nor
/// persists.
pub type FullAnalysis = IncrementalAnalysis<Chains, UndoJournal>;

pub(crate) const NONE_U32: u32 = u32::MAX;

/// Stack words for closure-row scratch masks (spills to heap above
/// `WORD_BITS * MASK_STACK_WORDS` closure nodes).
const MASK_STACK_WORDS: usize = 8;

/// Stack entries for global-checkpoint scratch vectors (spills to heap
/// above this many processes).
const GC_STACK_ENTRIES: usize = 16;

/// Messages of one interval up to which a checkpoint's Rule 2 scans keep
/// their handles on the stack.
const EDGE_STACK_ENTRIES: usize = 32;

/// Processes up to which the sender-side fold keeps its copy of the
/// source's reach vector and its rising-lane list on the stack.
const LANE_STACK_ENTRIES: usize = 64;

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
    /// The process has taken every checkpoint its 32-bit index can name:
    /// one more would wrap an interval counter (the bound a restored
    /// document is held to as well).
    CheckpointIndexExhausted {
        /// The process that cannot checkpoint again.
        process: usize,
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
            AppendError::CheckpointIndexExhausted { process } => {
                write!(f, "process {process} has no checkpoint index left")
            }
        }
    }
}

impl std::error::Error for AppendError {}

/// Per-message record of the core (columns of a struct-of-arrays kept
/// together; `deliver_iv` stays [`NONE_U32`] while the message is in
/// transit). The table indexes itself: each record links to the sender's
/// previous send and the receiver's previous delivery, so every process's
/// sends and deliveries are a chain from the engine's `heads` (`Chain`).
#[derive(Debug, Clone, Copy)]
pub struct MsgRec {
    pub(crate) from: u32,
    pub(crate) to: u32,
    pub(crate) send_iv: u32,
    pub(crate) deliver_iv: u32,
    /// Row of this message's piggyback snapshot in `msg_tdv`
    /// ([`NONE_U32`] once compaction reclaims the row — only possible
    /// after delivery).
    pub(crate) tdv_row: u32,
    /// The sender's send before this one ([`NONE_U32`] for its first).
    pub(crate) prev_send: u32,
    /// The receiver's delivery before this one ([`NONE_U32`] for its first,
    /// and while the message is in transit).
    pub(crate) prev_delivery: u32,
}

/// One process's sends or deliveries, newest first: the message handles
/// threaded through [`MsgRec::prev_send`] or [`MsgRec::prev_delivery`] from
/// the head the engine keeps for it. Each entry comes with the interval of
/// its event on the process, and those only fall along a chain: the entries
/// in an interval or later are a prefix of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain<'a> {
    msgs: &'a [MsgRec],
    at: u32,
    deliveries: bool,
}

impl<'a> Chain<'a> {
    /// The sends threaded from `head`.
    pub(crate) fn sends(msgs: &'a [MsgRec], head: u32) -> Self {
        Chain {
            msgs,
            at: head,
            deliveries: false,
        }
    }

    /// The deliveries threaded from `head`.
    pub(crate) fn deliveries(msgs: &'a [MsgRec], head: u32) -> Self {
        Chain {
            msgs,
            at: head,
            deliveries: true,
        }
    }

    /// The interval of `m`'s event on this chain, and the entry before it.
    #[inline]
    fn step(&self, m: &MsgRec) -> (u32, u32) {
        if self.deliveries {
            (m.deliver_iv, m.prev_delivery)
        } else {
            (m.send_iv, m.prev_send)
        }
    }

    /// The chain from its first entry in interval `iv` or earlier.
    pub(crate) fn at_or_below(mut self, iv: u32) -> Self {
        while let Some(m) = self.msgs.get(self.at as usize) {
            let (at, prev) = self.step(m);
            if at <= iv {
                break;
            }
            self.at = prev;
        }
        self
    }
}

impl<'a> Iterator for Chain<'a> {
    /// Handle, interval of the event, record.
    type Item = (u32, u32, &'a MsgRec);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        // A chain ends at `NONE_U32`, which no handle reaches.
        let mid = self.at;
        let m = self.msgs.get(mid as usize)?;
        let (iv, prev) = self.step(m);
        self.at = prev;
        Some((mid, iv, m))
    }
}

/// A growable square bit matrix: `nodes` rows of `width` words, row `u`
/// holding column `v` at bit `v`. Rows only ever gain bits while appending;
/// every word change is handed to the journal layer so the slab can be
/// rewound. The chain layer's `ClosureMatrix` holds a closure and its
/// transpose in two; a version 1–3 snapshot document's `rmat.fwd` is read
/// into one.
#[derive(Debug, Clone)]
struct BitSlab {
    nodes: usize,
    width: usize,
    words: Vec<u64>,
}

impl Default for BitSlab {
    fn default() -> Self {
        BitSlab::new(0)
    }
}

impl BitSlab {
    /// `nodes` rows without a bit set, at the least width that holds them.
    fn new(nodes: usize) -> Self {
        let width = bits::words_for(nodes).max(1).next_power_of_two();
        BitSlab {
            nodes,
            width,
            words: vec![0; nodes * width],
        }
    }

    fn bit(&self, u: usize, v: usize) -> bool {
        // One bounds check: row `u` starts at bit `u · width · WORD_BITS`.
        bits::test(&self.words, u * self.width * WORD_BITS + v)
    }

    fn row(&self, u: usize) -> &[u64] {
        &self.words[u * self.width..(u + 1) * self.width]
    }

    /// Appends a fresh node with only its reflexive bit set, doubling the
    /// words per row when they are full (journaled `(row, word)` addresses
    /// are logical positions, which the relayout preserves). The caller
    /// journals the append that caused the push.
    fn push_node(&mut self) -> usize {
        assert!(
            self.nodes < MAX_CLOSURE_NODES,
            "closure matrix is at its row limit"
        );
        let (id, old_w) = (self.nodes, self.width);
        if id == old_w * WORD_BITS {
            self.width *= 2;
            let mut wide = vec![0u64; id * self.width];
            for r in 0..id {
                wide[r * self.width..][..old_w].copy_from_slice(&self.words[r * old_w..][..old_w]);
            }
            self.words = wide;
        }
        self.nodes += 1;
        self.words.resize(self.nodes * self.width, 0);
        bits::set(&mut self.words[id * self.width..][..self.width], id);
        id
    }

    /// `out ← row a & !row b`.
    fn minus_into(&self, a: usize, b: usize, out: &mut Vec<u64>) {
        let w = self.width;
        let (a, b) = (&self.words[a * w..][..w], &self.words[b * w..][..w]);
        out.clear();
        out.extend(a.iter().zip(b).map(|(&a, &b)| a & !b));
    }

    /// ORs `add` into each of the (distinct) `rows`, words ascending,
    /// touching only `add`'s non-zero word span. Each changed word is
    /// journaled under selector `sel` before it is written (on a
    /// [`NoJournal`] engine that is no code at all).
    #[inline]
    fn or_into_rows<J: Journal>(
        &mut self,
        sel: u8,
        journal: &mut J,
        rows: impl Iterator<Item = usize>,
        add: &[u64],
    ) {
        let lo = add.iter().position(|&w| w != 0).unwrap_or(add.len());
        let hi = add.iter().rposition(|&w| w != 0).map_or(lo, |i| i + 1);
        let w = self.width;
        for x in rows {
            let row = &mut self.words[x * w..][..w];
            for wi in lo..hi {
                let old = row[wi];
                let fresh = add[wi] & !old;
                if fresh != 0 {
                    journal.record(Undo::word(sel, x, wi, old));
                    row[wi] = old | fresh;
                }
            }
        }
    }
}

/// Append-only analysis of a growing checkpoint & communication pattern,
/// composed by type from the R-graph **core**, an optional **chain layer**
/// `C` and an optional **journal layer** `J` (the module documentation of
/// `incremental.rs` says who instantiates which).
///
/// The bare name is the core alone, the engine `rdt-serve` runs: the
/// R-graph transitive closure, the replayed transitive dependency vectors,
/// a running count of untrackable R-paths and the consistent
/// global-checkpoint oracles. Every query answers identically to the batch
/// [`PatternAnalysis`](crate::PatternAnalysis) pipeline on the same pattern
/// (the differential test-suite holds the two against each other after
/// every append). Queries the paper defines on *closed* patterns should be
/// asked through [`with_closed`](IncrementalAnalysis::with_closed), which
/// temporarily appends the closing checkpoints exactly like
/// [`Pattern::to_closed`](crate::Pattern::to_closed) — on an instantiation
/// that carries the journal:
///
/// ```rust
/// use rdt_causality::ProcessId;
/// use rdt_rgraph::FullAnalysis;
///
/// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
/// let mut incr = FullAnalysis::layered(2);
/// let m = incr.append_send(p0, p1);
/// incr.append_deliver(m);
/// assert!(incr.with_closed(|view| view.rdt_holds() && view.all_chains_doubled()));
///
/// // Branch out, then back out of it.
/// let mark = incr.mark();
/// incr.append_checkpoint(p1);
/// incr.rewind(mark);
/// assert_eq!(incr.last_checkpoint_index(p1), 0);
/// ```
///
/// The layers are types, not flags: the daemon's engine has no chain
/// table to query and no journal to rewind.
///
/// ```compile_fail
/// use rdt_causality::{CheckpointId, ProcessId};
/// let incr = rdt_rgraph::IncrementalAnalysis::new(2);
/// let c = CheckpointId::new(ProcessId::new(0), 0);
/// incr.chain_exists(c, c); // only on `IncrementalAnalysis<Chains, _>`
/// ```
///
/// ```compile_fail
/// let incr = rdt_rgraph::IncrementalAnalysis::new(2);
/// incr.mark(); // only on `IncrementalAnalysis<_, UndoJournal>`
/// ```
///
/// Only the journal-free core compacts; the certifier's engine never does.
///
/// ```compile_fail
/// let mut incr = rdt_rgraph::FullAnalysis::layered(2);
/// incr.compact_to_recovery_line(); // only on `IncrementalAnalysis<NoChains, NoJournal>`
/// ```
#[derive(Debug)]
pub struct IncrementalAnalysis<C = NoChains, J = NoJournal> {
    n: usize,
    chains: C,
    journal: J,
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
    /// The R-closure, one vector per R-node (`n` entries each):
    /// `reach[y][p]` is **one more than** the greatest index of a checkpoint
    /// of `p` — retained or compacted away — with an R-path to `y`, 0 when
    /// there is none. Rule 1 chains every process's checkpoints, so the
    /// checkpoints of `p` that reach `y` are the prefix `C_{p,0..reach[y][p]}`
    /// and the one entry is the whole set; against the `TDV` snapshot beside
    /// it, it is also the node's untrackable count (see `insert_r_edge`).
    /// Read by column it is the forward closure: `C_{p,i}` reaches `y` iff
    /// `reach[y][p] > i`, and the column only rises along each process's
    /// checkpoints (`first_reached`).
    reach: Vec<u32>,
    /// Least row of `reach` that may differ from what the last marked
    /// snapshot render wrote (`snapshot.rs`): within an epoch only an
    /// R-edge changes a row, and `insert_r_edge` lowers this to the least
    /// row it folds into. 0 until the first marked render.
    reach_floor: usize,
    /// `events` at the last marked render: the floor counts from that
    /// render alone, so marks any other render returned are refused.
    /// `usize::MAX` until the first marked render.
    marked_events: usize,
    /// Per R-node `(process, checkpoint index)`.
    r_meta: Vec<(u32, u32)>,
    /// R-node of `C_{p,x}` (indexed by `x`).
    cp_nodes: Vec<Vec<u32>>,
    /// Chain heads, `2n` handles: `heads[p]` is the newest send of `p`,
    /// `heads[n + p]` the newest delivery at `p` ([`NONE_U32`] while there
    /// is none). Each record links to the one before it on its process
    /// ([`Chain`]), appended in event order and so in interval order.
    heads: Vec<u32>,
    /// The least tail target per process (`tail_targets`), kept by
    /// `try_append_checkpoint`, the one append that changes the set behind
    /// it; empty while stale: after a checkpoint retired a minimum, a
    /// rewound checkpoint or a restore, until the next fit question walks
    /// once (`refresh_tails`). A compaction moves no interval and leaves
    /// them exact.
    tails: Vec<u32>,

    // ---- compaction state (see `compaction.rs`) ----
    /// Compaction epoch: bumped whenever `compact_to` discards state, so
    /// that [`SnapshotMarks`] of an earlier epoch describe nothing.
    epoch: u64,
    /// Per-process consistent watermark of the last state-discarding
    /// compaction (all zeros before the first). Monotone componentwise;
    /// `visible_violations` counts only lanes headed above it.
    watermark: Vec<u32>,
    /// First retained checkpoint index per process: `cp_nodes[p][k]` is
    /// the R-node of `C_{p, cp_base[p] + k}`.
    cp_base: Vec<u32>,
    /// Total closure rows reclaimed across all compactions.
    reclaimed_rows: u64,
    /// Settled-prefix cursor: every message below it is delivered in a
    /// closed interval and owns no piggyback row, so no compaction has
    /// anything left to do for it. A cache of what `msgs` already says —
    /// advanced by each state-discarding compaction (on an engine with no
    /// journal, so no rewind reaches below it), 0 after a restore, and
    /// therefore not part of the snapshot.
    settled: usize,
}

impl IncrementalAnalysis {
    /// Creates the empty core engine for `n` processes: every process has
    /// its implicit initial checkpoint `C_{i,0}` and an all-zero dependency
    /// snapshot, exactly like an empty [`Pattern`](crate::Pattern). Other
    /// instantiations are built with [`layered`](IncrementalAnalysis::layered).
    pub fn new(n: usize) -> Self {
        Self::layered(n)
    }

    /// Replays `pattern` as given into a fresh core engine, in
    /// [`Pattern::linearize`] order. Open intervals stay open: close the
    /// pattern first for the paper's verdicts.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Unrealizable`] if the pattern admits no
    /// execution order.
    pub fn from_pattern(pattern: &Pattern) -> Result<Self, PatternError> {
        let mut engine = Self::new(pattern.num_processes());
        // The engine names a message by its send-order handle.
        let mut handles = vec![0u32; pattern.num_messages()];
        for (process, pos) in pattern.linearize()? {
            match pattern.events(process)[pos] {
                PatternEvent::Checkpoint => {
                    engine.append_checkpoint(process);
                }
                PatternEvent::Send(m) => {
                    let info = pattern.message(m);
                    handles[m.0] = engine.append_send(info.from, info.to);
                }
                PatternEvent::Deliver(m) => engine.append_deliver(handles[m.0]),
            }
        }
        Ok(engine)
    }
}

impl<C: ChainLayer, J: Journal> IncrementalAnalysis<C, J> {
    /// Creates the empty engine of this instantiation for `n` processes
    /// (what [`new`](IncrementalAnalysis::new) is for the core alone).
    pub fn layered(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        let mut r_meta = Vec::with_capacity(n);
        let mut cp_nodes = Vec::with_capacity(n);
        let mut cur_tdv = vec![0u32; n * n];
        for i in 0..n {
            r_meta.push((i as u32, 0));
            cp_nodes.push(vec![i as u32]);
            cur_tdv[i * n + i] = 1;
        }
        // `C_{i,0}` reaches itself: index 0, stored as 1.
        let reach = cur_tdv.clone();
        IncrementalAnalysis {
            n,
            chains: C::new(n),
            journal: J::default(),
            events: 0,
            untrackable: 0,
            cp_count: vec![0; n],
            line_open: vec![false; n],
            msgs: Vec::new(),
            cur_tdv,
            msg_tdv: Vec::new(),
            cp_tdv: vec![0; n * n],
            reach,
            reach_floor: 0,
            marked_events: usize::MAX,
            r_meta,
            cp_nodes,
            heads: vec![NONE_U32; 2 * n],
            tails: Vec::new(),
            epoch: 0,
            watermark: vec![0; n],
            cp_base: vec![0; n],
            reclaimed_rows: 0,
            settled: 0,
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

    /// Appends a local checkpoint of `process` and returns its id: the
    /// R-graph node (its `TDV` snapshot taken *before* the owner entry
    /// increments, matching the offline replayer), the Rule 1 edge from the
    /// previous checkpoint, and every Rule 2 message edge this checkpoint
    /// completes — an edge `C_{i,x} → C_{j,y}` materializes exactly when
    /// the later of the two closing checkpoints appears.
    pub fn append_checkpoint(&mut self, process: ProcessId) -> CheckpointId {
        match self.try_append_checkpoint(process) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`append_checkpoint`](IncrementalAnalysis::append_checkpoint),
    /// the entry point for untrusted event streams: an out-of-range process,
    /// or one whose checkpoint index is at the top of its range, is an
    /// [`AppendError`] and leaves the engine untouched.
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
        // The checkpoint takes `cp_count + 1` as its index and leaves
        // `cp_count + 2` in `reach` and in the process's own `TDV` entry,
        // which the fold offsets by one wherever it is seen.
        if self.cp_count[pi] > NONE_U32 - 3 {
            return Err(AppendError::CheckpointIndexExhausted { process: pi });
        }
        let closing = self.cp_count[pi] + 1;
        self.journal.record(Undo::Checkpoint {
            p: pi as u32,
            open: self.line_open[pi],
        });
        self.cp_count[pi] = closing;
        self.line_open[pi] = false;

        let node = self.r_meta.len();
        self.r_meta.push((pi as u32, closing));
        let base = pi * self.n;
        for k in 0..self.n {
            self.cp_tdv.push(self.cur_tdv[base + k]);
        }
        self.cp_nodes[pi].push(node as u32);
        // Until the edges below nothing reaches the node.
        self.reach.resize(self.reach.len() + self.n, 0);
        self.cur_tdv[base + pi] += 1;

        // Incoming edges first: while the new node reaches nothing but
        // itself each of them folds one row of `reach` (its own, which is
        // what `insert_r_edge` takes it to be), and the outgoing edges then
        // push the finished row to every node they newly reach, once. The
        // other order would push it again after every incoming edge.
        // (Compaction keeps every checkpoint node a pending Rule 2 edge
        // can still name, so the base-offset lookups cannot underflow.)

        // Rule 1: C_{p, closing-1} -> C_{p, closing}, before the node's own
        // lane says it reaches itself: that lane would tell `insert_r_edge`
        // that `prev` reaches it already. Its fold adds no untrackable pair
        // (the `TDV` snapshot's own entry is `closing`).
        let prev = self.cp_nodes[pi][(closing - 1 - self.cp_base[pi]) as usize] as usize;
        self.insert_r_edge(prev, node);
        self.reach[node * self.n + pi] = closing + 1;

        // Rule 2, receiver side: messages delivered at `p` in the interval
        // this checkpoint closes, whose send interval is already closed.
        // Both sides insert their edges in event order, oldest first. A
        // message whose send interval is still open makes this checkpoint a
        // tail target instead.
        let (mut stack, mut heap) = ([0u32; EDGE_STACK_ENTRIES], Vec::new());
        let delivered = self.deliveries_at(pi);
        for &mid in since_interval(delivered, closing, &mut stack, &mut heap) {
            let m = self.msgs[mid as usize];
            if m.send_iv <= self.cp_count[m.from as usize] {
                let fi = m.from as usize;
                let src = self.cp_nodes[fi][(m.send_iv - self.cp_base[fi]) as usize] as usize;
                self.insert_r_edge(src, node);
            } else if let Some(tail) = self.tails.get_mut(pi) {
                *tail = (*tail).min(closing);
            }
        }
        // Rule 2, sender side: messages sent by `p` in this interval whose
        // delivery interval is already closed. Each was a tail target until
        // now (unless it went to `p` in this very interval), so the kept
        // minimum of its receiver goes stale if it may have held it.
        for &mid in since_interval(self.sends_of(pi), closing, &mut stack, &mut heap) {
            let m = self.msgs[mid as usize];
            if m.deliver_iv != NONE_U32 && m.deliver_iv <= self.cp_count[m.to as usize] {
                let ti = m.to as usize;
                let tgt = self.cp_nodes[ti][(m.deliver_iv - self.cp_base[ti]) as usize] as usize;
                self.insert_r_edge(node, tgt);
                if self.tails.get(ti) == Some(&m.deliver_iv) {
                    self.tails.clear();
                }
            }
        }
        self.events += 1;
        Ok(CheckpointId::new(process, closing))
    }

    /// Appends a send event and returns the engine's message handle.
    /// Handles are assigned sequentially in send order, the numbering
    /// [`PatternBuilder::send`](crate::PatternBuilder::send) uses too.
    pub fn append_send(&mut self, from: ProcessId, to: ProcessId) -> u32 {
        match self.try_append_send(from, to) {
            Ok(mid) => mid,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`append_send`](IncrementalAnalysis::append_send): an
    /// out-of-range endpoint is an [`AppendError`], the engine untouched.
    pub fn try_append_send(&mut self, from: ProcessId, to: ProcessId) -> Result<u32, AppendError> {
        let fi = from.index();
        let ti = to.index();
        if let Some(&process) = [fi, ti].iter().find(|&&p| p >= self.n) {
            return Err(AppendError::ProcessOutOfRange { process, n: self.n });
        }
        let mid = self.msgs.len() as u32;
        let iv = self.cp_count[fi] + 1;
        self.journal.record(Undo::Send {
            from: fi as u32,
            open: self.line_open[fi],
        });
        self.line_open[fi] = true;

        let base = fi * self.n;
        let tdv_row = (self.msg_tdv.len() / self.n) as u32;
        let row = &self.cur_tdv[base..base + self.n];
        self.msg_tdv.extend_from_slice(row);
        self.msgs.push(MsgRec {
            from: fi as u32,
            to: ti as u32,
            send_iv: iv,
            deliver_iv: NONE_U32,
            tdv_row,
            prev_send: self.heads[fi],
            prev_delivery: NONE_U32,
        });
        self.heads[fi] = mid;
        self.chains.on_send(&mut self.journal, fi);
        self.events += 1;
        Ok(mid)
    }

    /// Appends the delivery of message `mid` (as returned by
    /// [`append_send`](IncrementalAnalysis::append_send)).
    ///
    /// # Panics
    /// If the message does not exist or was already delivered.
    pub fn append_deliver(&mut self, mid: u32) {
        if let Err(e) = self.try_append_deliver(mid) {
            panic!("{e}");
        }
    }

    /// Fallible [`append_deliver`](IncrementalAnalysis::append_deliver): an
    /// unknown handle (deliver-before-send) or a duplicate delivery is an
    /// [`AppendError`], the engine untouched.
    pub fn try_append_deliver(&mut self, mid: u32) -> Result<(), AppendError> {
        let m = match self.msgs.get(mid as usize) {
            Some(&m) => m,
            None => return Err(AppendError::UnknownMessage { mid }),
        };
        if m.deliver_iv != NONE_U32 {
            return Err(AppendError::AlreadyDelivered { mid });
        }
        let ti = m.to as usize;
        let iv = self.cp_count[ti] + 1;
        self.journal.record(Undo::Deliver {
            mid,
            open: self.line_open[ti],
        });
        self.line_open[ti] = true;

        // Delivery rule: TDV_to := max(TDV_to, piggyback).
        let base_m = m.tdv_row as usize * self.n;
        let base_t = ti * self.n;
        for k in 0..self.n {
            let theirs = self.msg_tdv[base_m + k];
            let mine = self.cur_tdv[base_t + k];
            if theirs > mine {
                self.journal.record(Undo::CurTdv {
                    slot: (base_t + k) as u32,
                    old: mine,
                });
                self.cur_tdv[base_t + k] = theirs;
            }
        }
        let head = &mut self.heads[self.n + ti];
        let rec = &mut self.msgs[mid as usize];
        (rec.deliver_iv, rec.prev_delivery, *head) = (iv, *head, mid);
        self.chains.on_deliver(&mut self.journal, mid, &m, iv);
        self.events += 1;
        Ok(())
    }

    // ------------------------------------------------------- queries ----

    /// Running count of reachable-but-untrackable checkpoint pairs: the RDT
    /// violations among the checkpoints appended so far, equal to the batch
    /// checker's uncapped violation count on the same pattern.
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
    /// [`PatternAnalysis::rdt_report`](crate::PatternAnalysis::rdt_report)
    /// collects: `min(untrackable, 16)`.
    pub fn violations_capped(&self) -> usize {
        (self.untrackable as usize).min(crate::rdt::MAX_VIOLATIONS)
    }

    /// The untrackable pairs `(from, to)` themselves, the cells
    /// [`untrackable_pairs`](IncrementalAnalysis::untrackable_pairs) sums:
    /// `C_{p,i} → y` for `cp_tdv[y][p] < i < reach[y][p]`. Ordered by
    /// destination process, destination index, source process, source
    /// index. Destinations compacted away are not listed, sources are; on
    /// an engine never compacted there are exactly `untrackable_pairs()`.
    pub fn untrackable_cells(&self) -> impl Iterator<Item = (CheckpointId, CheckpointId)> + '_ {
        let n = self.n;
        self.cp_nodes.iter().flatten().flat_map(move |&y| {
            let row = y as usize * n;
            let (q, j) = self.r_meta[y as usize];
            let to = CheckpointId::new(ProcessId::new(q as usize), j);
            (0..n).flat_map(move |p| {
                let sources = self.cp_tdv[row + p] + 1..self.reach[row + p];
                sources.map(move |i| (CheckpointId::new(ProcessId::new(p), i), to))
            })
        })
    }

    /// `TDV_p^x`, the vector saved with `checkpoint = C_{p,x}` (owner entry
    /// `x`); `None` where the checkpoint is not taken or was compacted away.
    pub fn checkpoint_tdv(&self, checkpoint: CheckpointId) -> Option<&[u32]> {
        let p = checkpoint.process.index();
        let k = checkpoint.index.checked_sub(*self.cp_base.get(p)?)?;
        let &node = self.cp_nodes[p].get(k as usize)?;
        Some(&self.cp_tdv[node as usize * self.n..][..self.n])
    }

    /// Characterization 3 read off the `TDV`s: the `(message, lane)` pairs,
    /// by handle then lane, where a message sent in `I_{k,s}` and delivered
    /// in `I_{j,y}` has `TDV_k^s[i] > TDV_j^y[i]`. On a closed pattern there
    /// are none iff RDT holds (`docs/THEORY.md` § 2). A message in transit,
    /// in an open interval or with a closing checkpoint compacted away is
    /// skipped. After a compaction a lane-`i` pair
    /// counts only above the watermark, `TDV_k^s[i] >
    /// compaction_watermark()[i]`: its R-path is headed in the kept suffix.
    pub fn visible_violations(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        let tdv = |p: u32, x| self.checkpoint_tdv(CheckpointId::new(ProcessId::new(p as usize), x));
        (0..self.msgs.len() as u32).flat_map(move |mid| {
            let m = &self.msgs[mid as usize];
            let closed = tdv(m.from, m.send_iv).zip(tdv(m.to, m.deliver_iv));
            closed.into_iter().flat_map(move |(sent, got)| {
                let lanes = sent.iter().zip(got).zip(&self.watermark).enumerate();
                let broken = lanes.filter(|(_, ((&s, &g), &w))| s > g && s > w);
                broken.map(move |(i, _)| (mid, i))
            })
        })
    }

    /// Whether [`visible_violations`](IncrementalAnalysis::visible_violations)
    /// is empty: the certifier's CM-path verdict.
    pub fn visible_holds(&self) -> bool {
        self.visible_violations().next().is_none()
    }

    /// Popcount of the R-graph reachability closure (reflexive pairs
    /// included): the R-paths an [`RdtReport`](crate::RdtReport) counts.
    pub fn total_reachable_pairs(&self) -> usize {
        // Row `y` is reached by `reach[y][q] − cp_base[q]` retained
        // checkpoints of `q`.
        let retained = |row: &[u32]| -> usize {
            let lanes = row.iter().zip(&self.cp_base);
            lanes
                .map(|(&reach, &base)| reach.saturating_sub(base) as usize)
                .sum()
        };
        self.reach.chunks_exact(self.n).map(retained).sum()
    }

    /// Whether an R-path runs from `from` to `to` (reflexively).
    ///
    /// # Panics
    /// If either checkpoint does not exist or was compacted away.
    pub fn reaches(&self, from: CheckpointId, to: CheckpointId) -> bool {
        let u = self.node_of(from);
        let v = self.node_of(to);
        self.node_reaches(u, v)
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

    /// Minimum consistent global checkpoint containing `members` (least
    /// fixpoint of the orphan constraints), or `None` if none exists.
    /// Identical to
    /// [`min_max::min_consistent_containing`](crate::min_max::min_consistent_containing).
    ///
    /// # Panics
    /// If a member does not exist in the pattern.
    pub fn min_consistent_containing(&self, members: &[CheckpointId]) -> Option<GlobalCheckpoint> {
        self.owned_gc(|gc| self.min_consistent_containing_into(members, gc))
    }

    /// Allocation-free
    /// [`min_consistent_containing`](IncrementalAnalysis::min_consistent_containing):
    /// writes the global checkpoint into `gc` (length `n`, unspecified on
    /// `false`) and returns whether one exists. Panics like the allocating form, and on
    /// a `gc` of the wrong length.
    pub fn min_consistent_containing_into(&self, members: &[CheckpointId], gc: &mut [u32]) -> bool {
        self.member_floor(members, gc);
        ascend_to_consistent(&self.msgs, self.send_heads(), &self.cp_count, gc).0
            && members.iter().all(|&m| gc[m.process.index()] == m.index)
    }

    /// Maximum consistent global checkpoint containing `members`
    /// (greatest fixpoint), or `None`. Identical to
    /// [`min_max::max_consistent_containing`](crate::min_max::max_consistent_containing).
    ///
    /// # Panics
    /// If a member does not exist in the pattern.
    pub fn max_consistent_containing(&self, members: &[CheckpointId]) -> Option<GlobalCheckpoint> {
        self.owned_gc(|gc| self.max_consistent_containing_into(members, gc))
    }

    /// Allocation-free
    /// [`max_consistent_containing`](IncrementalAnalysis::max_consistent_containing):
    /// writes the global checkpoint into `gc` (length `n`, unspecified on
    /// `false`) and returns whether one exists. Panics like the allocating form, and on
    /// a `gc` of the wrong length.
    pub fn max_consistent_containing_into(&self, members: &[CheckpointId], gc: &mut [u32]) -> bool {
        gc.fill(u32::MAX);
        for &member in members {
            self.assert_member(member);
            let e = &mut gc[member.process.index()];
            *e = (*e).min(member.index);
        }
        self.descend_from_caps(gc);
        members.iter().all(|&m| gc[m.process.index()] == m.index)
    }

    /// Greatest consistent global checkpoint componentwise **dominated
    /// by** `caps` (each entry additionally clamped to the process's last
    /// checkpoint): the *recovery line* with `caps` as the failures' resume
    /// caps. Unlike
    /// [`max_consistent_containing`](IncrementalAnalysis::max_consistent_containing)
    /// no exact membership is demanded of the result, so the descent is
    /// infallible — the all-initial global checkpoint is always consistent.
    /// Matches `rdt-recovery`'s `recovery_line` on the same pattern and caps.
    ///
    /// # Panics
    /// If `caps` or `out` have a length other than the process count.
    pub fn max_consistent_dominated_into(&self, caps: &[u32], out: &mut [u32]) {
        out.copy_from_slice(caps);
        self.descend_from_caps(out);
    }

    /// [`max_consistent_dominated_into`](IncrementalAnalysis::max_consistent_dominated_into)
    /// with each process's open interval standing as a *virtual*
    /// checkpoint: each of `caps` is first clamped, in place, to its
    /// process's frontier — the last checkpoint, plus one while the process
    /// line does not end in a checkpoint. `out` is then the line the closed
    /// extension of the pattern gives (what a journaled engine's
    /// `with_closed` answers), with nothing appended and rewound: the orphan
    /// constraints read only the intervals sends and deliveries fall in.
    /// The simulator's crash line: a survivor's cap is `u32::MAX`, its
    /// volatile frontier; the victim's is its last checkpoint.
    ///
    /// # Panics
    /// If `caps` or `out` have a length other than the process count.
    pub fn max_consistent_dominated_open_into(&self, caps: &mut [u32], out: &mut [u32]) {
        assert_eq!(caps.len(), self.n, "caps length");
        for ((cap, &last), &open) in caps.iter_mut().zip(&self.cp_count).zip(&self.line_open) {
            *cap = (*cap).min(last + u32::from(open));
        }
        out.copy_from_slice(caps);
        descend_to_consistent(&self.msgs, self.send_heads(), out);
    }

    /// [`max_consistent_dominated_into`](IncrementalAnalysis::max_consistent_dominated_into)
    /// in place: `line` holds the caps on entry and the line on return.
    fn descend_from_caps(&self, line: &mut [u32]) {
        assert_eq!(line.len(), self.n, "caps length");
        for (entry, &last) in line.iter_mut().zip(&self.cp_count) {
            *entry = (*entry).min(last);
        }
        descend_to_consistent(&self.msgs, self.send_heads(), line);
    }

    /// Allocating form of
    /// [`max_consistent_dominated_into`](IncrementalAnalysis::max_consistent_dominated_into)
    /// (and panics like it).
    pub fn max_consistent_dominated(&self, caps: &[u32]) -> GlobalCheckpoint {
        let mut line = vec![0; self.n];
        self.max_consistent_dominated_into(caps, &mut line);
        GlobalCheckpoint::new(line)
    }

    /// Routing and interval placement of message `mid` (its send-order
    /// handle): origin, destination, and the 1-based intervals of its send
    /// and (if any) delivery events.
    ///
    /// # Panics
    /// If `mid` is not a message of the current pattern.
    pub fn message_route(&self, mid: u32) -> MessageRoute {
        let rec = &self.msgs[mid as usize];
        MessageRoute {
            from: ProcessId::new(rec.from as usize),
            to: ProcessId::new(rec.to as usize),
            send_interval: rec.send_iv,
            deliver_interval: (rec.deliver_iv != NONE_U32).then_some(rec.deliver_iv),
        }
    }

    /// The minimum consistent global checkpoint containing `members`,
    /// through **R-graph reachability** instead of the orphan fixpoint:
    /// entry `j` is the largest `z` such that some member is reachable from
    /// `C_{j,z}` in the R-graph (or the member's own index on its process).
    ///
    /// The rollback semantics of R-paths make the two formulations
    /// coincide — `C_{j,z} → C` means "rolling `P_j` below `C_{j,z}` forces
    /// rolling below `C`", i.e. any global checkpoint containing `C` must
    /// include `C_{j,z}`. This is an *independent witness* for
    /// [`min_max::min_consistent_containing`](crate::min_max::min_consistent_containing);
    /// the property tests assert they always agree.
    ///
    /// # Panics
    /// If a member does not exist in the pattern.
    pub fn min_consistent_via_rgraph(&self, members: &[CheckpointId]) -> Option<GlobalCheckpoint> {
        self.owned_gc(|gc| self.min_consistent_via_rgraph_into(members, gc))
    }

    /// Allocation-free
    /// [`min_consistent_via_rgraph`](IncrementalAnalysis::min_consistent_via_rgraph):
    /// writes the global checkpoint into `gc` (length `n`, unspecified on
    /// `false`) and returns whether one exists. Panics like the allocating form, and on
    /// a `gc` of the wrong length.
    pub fn min_consistent_via_rgraph_into(&self, members: &[CheckpointId], gc: &mut [u32]) -> bool {
        self.member_floor(members, gc);
        // The least global checkpoint no member has an R-path into from
        // above: per process, the greatest checkpoint reaching a member.
        for &m in members {
            let row = &self.reach[self.node_of(m) * self.n..][..self.n];
            for (slot, &r) in gc.iter_mut().zip(row) {
                *slot = (*slot).max(r.saturating_sub(1));
            }
        }
        members.iter().all(|&m| gc[m.process.index()] == m.index)
    }

    /// Whether `members` belong to some consistent global checkpoint of the
    /// current pattern, read off `reach` without a fixpoint: `Some(true)`
    /// exactly when
    /// [`min_consistent_containing`](IncrementalAnalysis::min_consistent_containing)
    /// and
    /// [`max_consistent_containing`](IncrementalAnalysis::max_consistent_containing)
    /// find one, and `None` when a member lies below
    /// [`retained_from`](IncrementalAnalysis::retained_from), whose row
    /// compaction dropped.
    ///
    /// This is Netzer and Xu's condition in R-graph form, with each open
    /// interval standing for the checkpoint its process has not taken yet:
    /// the members fit iff no member is R-reached from the successor of a
    /// member or from a *tail target* — the checkpoint closing the delivery
    /// of a message sent in an open interval, the only R-edges out of the
    /// frontier. Per process `r` that is `reach[m][r] ≤ s[r]` for every
    /// member `m`, with `s[r]` the least of the tail targets on `r` and the
    /// least member index on `r` plus one. It costs `n` words of kept tail
    /// targets and `n` lanes per member, and once after a checkpoint
    /// retired a kept minimum the sends in open intervals.
    ///
    /// # Panics
    /// If a member does not exist in the pattern.
    pub fn fits_frontier(&mut self, members: &[CheckpointId]) -> Option<bool> {
        for &member in members {
            self.assert_member(member);
            if member.index < self.cp_base[member.process.index()] {
                return None;
            }
        }
        self.refresh_tails();
        self.with_scratch(|seeds| {
            seeds.copy_from_slice(&self.tails);
            for &m in members {
                let s = &mut seeds[m.process.index()];
                *s = (*s).min(m.index + 1);
            }
            let fits = |&m: &CheckpointId| {
                let row = &self.reach[self.node_of(m) * self.n..][..self.n];
                row.iter().zip(&*seeds).all(|(&reach, &s)| reach <= s)
            };
            Some(members.iter().all(fits))
        })
    }

    /// Whether some checkpoint taken since the engine's frontier was
    /// `frontier` (per process, the index of its last checkpoint then)
    /// [`fits_frontier`](IncrementalAnalysis::fits_frontier) as a
    /// one-member set, or lies below `retained_from()`, where that is
    /// undecided. They are all held to the same kept tail targets.
    ///
    /// If the answer is `false`, the recovery line is what it was at
    /// `frontier`: appends beyond a frontier change no orphan below it, so
    /// the line then is still the greatest consistent global checkpoint
    /// below it, and any consistent global checkpoint not below it contains
    /// a checkpoint taken since, which would then fit.
    ///
    /// # Panics
    /// If `frontier` has a length other than the process count.
    pub fn any_fits_beyond(&mut self, frontier: &[u32]) -> bool {
        assert_eq!(frontier.len(), self.n, "frontier length");
        if (0..self.n).all(|p| frontier[p] >= self.cp_count[p]) {
            return false;
        }
        // A checkpoint taken since and compacted away is undecided.
        if (0..self.n).any(|p| frontier[p] + 1 < self.cp_base[p]) {
            return true;
        }
        self.refresh_tails();
        let taken_since = |p: &usize| frontier[*p] < self.cp_count[*p];
        (0..self.n).filter(taken_since).any(|p| {
            let first = frontier[p] + 1;
            let nodes = &self.cp_nodes[p][(first - self.cp_base[p]) as usize..];
            (first..).zip(nodes).any(|(index, &node)| {
                let row = &self.reach[node as usize * self.n..][..self.n];
                let mut lanes = row.iter().zip(&self.tails).enumerate();
                lanes.all(|(r, (&reach, &t))| reach <= t && (r != p || reach <= index + 1))
            })
        })
    }

    /// Makes the kept tail targets current: one walk (`tail_targets`) if
    /// they are stale, nothing otherwise.
    fn refresh_tails(&mut self) {
        if self.tails.is_empty() {
            let mut tails = std::mem::take(&mut self.tails);
            tails.resize(self.n, NONE_U32);
            let _examined = self.tail_targets(&mut tails);
            #[cfg(test)]
            work::TAIL_SENDS.set(work::TAIL_SENDS.get() + _examined as u64);
            self.tails = tails;
        }
    }

    /// Writes into `tails` (length `n`) the least tail target per process —
    /// the least closed delivery interval of a message sent in an interval
    /// its sender has not closed — and `u32::MAX` where there is none;
    /// returns the send records it examined, exactly the sends in open
    /// intervals (each process's newest, read back along its send chain).
    /// Only a checkpoint changes them, so the engine keeps them (`tails`)
    /// and walks only to refresh them.
    fn tail_targets(&self, tails: &mut [u32]) -> usize {
        tails.fill(NONE_U32);
        let mut examined = 0;
        for (p, &last) in self.cp_count.iter().enumerate() {
            for (_, _, rec) in self.sends_of(p).take_while(|&(_, iv, _)| iv > last) {
                examined += 1;
                let to = rec.to as usize;
                // In transit, `deliver_iv` is `NONE_U32`: no closed interval.
                if rec.deliver_iv <= self.cp_count[to] {
                    tails[to] = tails[to].min(rec.deliver_iv);
                }
            }
        }
        examined
    }

    /// The sends of process `p`, newest first.
    pub(crate) fn sends_of(&self, p: usize) -> Chain<'_> {
        Chain::sends(&self.msgs, self.heads[p])
    }

    /// The deliveries at process `p`, newest first.
    pub(crate) fn deliveries_at(&self, p: usize) -> Chain<'_> {
        Chain::deliveries(&self.msgs, self.heads[self.n + p])
    }

    /// The head of every process's send chain, by process.
    fn send_heads(&self) -> &[u32] {
        &self.heads[..self.n]
    }

    /// Runs `f` on an `n`-entry scratch — on the stack up to
    /// `GC_STACK_ENTRIES` processes.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut [u32]) -> T) -> T {
        let (mut stack, mut heap) = ([0u32; GC_STACK_ENTRIES], Vec::new());
        if self.n <= GC_STACK_ENTRIES {
            f(&mut stack[..self.n])
        } else {
            heap.resize(self.n, 0);
            f(&mut heap[..])
        }
    }

    /// Runs an `_into` oracle on an `n`-entry scratch
    /// ([`with_scratch`](IncrementalAnalysis::with_scratch)), so the oracle
    /// hot paths allocate only for `Some` results.
    fn owned_gc(&self, oracle: impl FnOnce(&mut [u32]) -> bool) -> Option<GlobalCheckpoint> {
        self.with_scratch(|gc| oracle(gc).then(|| GlobalCheckpoint::new(gc.to_vec())))
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

    /// Whether node `x` reaches node `y` (reflexively): `reach[y][p_x] > i_x`.
    fn node_reaches(&self, x: usize, y: usize) -> bool {
        let (p, i) = self.r_meta[x];
        self.reach[y * self.n + p as usize] > i
    }

    /// Where the checkpoints of `q` that node `x` reaches start in
    /// `cp_nodes[q]` (its length when there are none). They are a suffix:
    /// along a process's checkpoints the column `reach[·][p_x]` only rises
    /// (Rule 1), so the first with `reach[y][p_x] > i_x` is a binary search.
    fn first_reached(&self, x: usize, q: usize) -> usize {
        let (p, i) = self.r_meta[x];
        self.cp_nodes[q].partition_point(|&y| {
            #[cfg(test)]
            work::LANES_PROBED.set(work::LANES_PROBED.get() + 1);
            self.reach[y as usize * self.n + p as usize] <= i
        })
    }

    /// Inserts an R-graph edge `u → v` and folds `u`'s reach vector into
    /// every node the edge made newly reachable from `u`, its *dirty
    /// successors* (the nodes `v` reaches and `u` does not yet):
    /// `reach[y] ← max(reach[y], reach[u])`, lane by lane. Nothing else
    /// changes, and nothing at all when `u` reaches `v` already.
    ///
    /// The dirty successors are read off `reach` itself. An edge into the
    /// node being appended (Rule 1 and the receiver side of Rule 2) comes
    /// before any edge out of it, so that node reaches nothing but itself
    /// and is the one dirty successor, folded whole (`fold`). Otherwise (the
    /// sender side of Rule 2, out of the node being appended) the dirty
    /// successors on each process are a run of its checkpoints, and only
    /// the lanes that rise in them are written (`raise_runs`).
    ///
    /// That is the whole closure, exactly. Whatever newly reaches a dirty
    /// successor `y` does so through `u`, and `reach[u]` dominates the row of
    /// every predecessor of `u` (reachability is transitive), so `u`'s row
    /// alone covers them all, compacted-away sources included; a successor
    /// of `v` that is not dirty was reached from `u` before the edge, so its
    /// row dominates `reach[u]` already and has nothing to gain. A raised row
    /// stays at or below the next checkpoint's on its process, which `v`
    /// reached before or `u` did, so the columns still only rise.
    ///
    /// It is also the untrackable count. `C_{p,i} → y` is trackable iff
    /// `i ≤ cp_tdv[y][p]` (Definition 3.3 — on `y`'s own process the
    /// snapshot entry is `y`'s index), and the checkpoints of `p` reaching
    /// `y` are a prefix, so `y` has `(reach[y][p] − 1 − cp_tdv[y][p])⁺`
    /// untrackable sources on `p`: a lane that rises from `old` to `new`
    /// adds `max(new, t) − max(old, t)` with `t = cp_tdv[y][p] + 1`. The
    /// verdict per pair is final at insertion time: the destination's `TDV`
    /// snapshot was taken when the node was created, before any edge could
    /// reach it.
    fn insert_r_edge(&mut self, u: usize, v: usize) {
        if self.node_reaches(u, v) {
            return;
        }
        let delta = if v + 1 == self.r_meta.len() {
            // Into the node being appended, which reaches only itself yet.
            self.fold(u, v)
        } else {
            self.raise_runs(u, v)
        };
        if delta > 0 {
            self.journal.record(Undo::Untrackable {
                old: self.untrackable,
            });
            self.untrackable += delta;
        }
    }

    /// Folds row `u` of `reach` into the row of the node being appended,
    /// `v` (`fold_row`), lowering the reach floor to `v`; returns the
    /// untrackable pairs it adds. `u` is an older node, so the two rows do
    /// not overlap: `v` is the newest, and once its own lane is written it
    /// reaches itself.
    fn fold(&mut self, u: usize, v: usize) -> u64 {
        #[cfg(test)]
        work::folded(v);
        self.reach_floor = self.reach_floor.min(v);
        let n = self.n;
        let (head, into) = self.reach.split_at_mut(v * n);
        let seen = &self.cp_tdv[v * n..][..n];
        fold_row(&mut self.journal, v * n, &head[u * n..][..n], into, seen)
    }

    /// The sender-side fold of `insert_r_edge`: raises, in every dirty
    /// successor of `u → v`, the lanes where `reach[u]` is higher, each
    /// journaled; lowers the reach floor to every row it walks and returns
    /// the untrackable pairs it adds.
    ///
    /// The checkpoints of a process `q` that `v` reaches are a suffix of
    /// `cp_nodes[q]`, and so are those `u` reaches (the columns only rise,
    /// Rule 1), so the dirty successors on `q` are a run: from the first
    /// checkpoint `v` reaches (`first_reached`) to the first whose own lane
    /// `p_u` is above `i_u` already, which `u` reaches, like every one after
    /// it. Down the run each lane only rises too: a lane where the run's
    /// first row is at or above `reach[u]` has nothing to gain in any row of
    /// it, and a lane that has caught up in one row has nothing to gain in
    /// the rows after. So the walk keeps a list of the lanes still rising,
    /// taken from the first row, and drops each as it catches up; what is
    /// written is what rises. Lane `p_u` rises in every row of the run
    /// (each holds at most `i_u` there and `reach[u]` more), so every row
    /// walked is raised.
    fn raise_runs(&mut self, u: usize, v: usize) -> u64 {
        let n = self.n;
        let (p_u, i_u) = (self.r_meta[u].0 as usize, self.r_meta[u].1);
        let (mut on_stack, mut on_heap) = ([0u32; 2 * LANE_STACK_ENTRIES], Vec::new());
        let scratch = if n <= LANE_STACK_ENTRIES {
            &mut on_stack[..2 * n]
        } else {
            on_heap.resize(2 * n, 0);
            &mut on_heap[..]
        };
        let (from, lanes) = scratch.split_at_mut(n);
        from.copy_from_slice(&self.reach[u * n..][..n]);
        let mut delta = 0;
        for q in 0..n {
            let start = self.first_reached(v, q);
            // The lanes still rising are `lanes[..rising]`.
            let mut rising = 0;
            for (k, &y) in self.cp_nodes[q][start..].iter().enumerate() {
                let y = y as usize;
                let row = &mut self.reach[y * n..][..n];
                if row[p_u] > i_u {
                    break;
                }
                if k == 0 {
                    for (p, (&old, &new)) in row.iter().zip(&*from).enumerate() {
                        lanes[rising] = p as u32;
                        rising += usize::from(old < new);
                    }
                }
                #[cfg(test)]
                work::folded(y);
                self.reach_floor = self.reach_floor.min(y);
                let seen = &self.cp_tdv[y * n..][..n];
                let mut kept = 0;
                for a in 0..rising {
                    let p = lanes[a] as usize;
                    let (old, new) = (row[p], from[p]);
                    if old < new {
                        lanes[kept] = p as u32;
                        kept += 1;
                        #[cfg(test)]
                        work::LANES_RAISED.set(work::LANES_RAISED.get() + 1);
                        let slot = (y * n + p) as u32;
                        self.journal.record(Undo::Reach { slot, old });
                        row[p] = new;
                        let t = seen[p] + 1;
                        delta += u64::from(new.max(t) - old.max(t));
                    }
                }
                rising = kept;
            }
        }
        delta
    }
}

/// The handles of `chain`'s entries in interval `iv` or later, oldest
/// first: in `stack`, or in `heap` when there are more.
fn since_interval<'s>(
    chain: Chain<'_>,
    iv: u32,
    stack: &'s mut [u32; EDGE_STACK_ENTRIES],
    heap: &'s mut Vec<u32>,
) -> &'s [u32] {
    heap.clear();
    let mut len = 0;
    for (mid, _, _) in chain.take_while(|&(_, at, _)| at >= iv) {
        if len < EDGE_STACK_ENTRIES {
            stack[len] = mid;
        } else {
            if len == EDGE_STACK_ENTRIES {
                heap.extend_from_slice(stack);
            }
            heap.push(mid);
        }
        len += 1;
    }
    let found = if len <= EDGE_STACK_ENTRIES {
        &mut stack[..len]
    } else {
        &mut heap[..]
    };
    found.reverse();
    found
}

/// The R-node of each checkpoint in `r_meta`, per process: `r_meta` lists
/// the nodes in append order, so each process's in index order.
fn nodes_by_process(r_meta: &[(u32, u32)], n: usize) -> Vec<Vec<u32>> {
    let mut cp_nodes = vec![Vec::new(); n];
    for (node, &(p, _)) in r_meta.iter().enumerate() {
        cp_nodes[p as usize].push(node as u32);
    }
    cp_nodes
}

/// `into ← max(into, from)`, lane by lane, each raised lane journaled under
/// its slot (`slot0` is the row's first); returns the untrackable pairs the
/// raise adds against the `TDV` snapshot `seen` of the row's node. A
/// function of its own so that the three rows are known not to alias.
///
/// The sum is exact in 32-bit arithmetic: the lanes' differences are added
/// up 16 bits at a time, and 2¹⁶ halves stay below 2³² (hence the blocks; a
/// row is one block up to 65 536 processes). A `u64` accumulator in the
/// lane loop would halve the width the loop vectorises at, which is most
/// of what a fold costs.
#[inline]
fn fold_row<J: Journal>(
    journal: &mut J,
    slot0: usize,
    from: &[u32],
    into: &mut [u32],
    seen: &[u32],
) -> u64 {
    const BLOCK: usize = 1 << 16;
    let mut delta = 0u64;
    let blocks = into.chunks_mut(BLOCK).zip(from.chunks(BLOCK));
    for (b, ((into, from), seen)) in blocks.zip(seen.chunks(BLOCK)).enumerate() {
        let (mut low, mut high) = (0u32, 0u32);
        for (k, ((into, &from), &seen)) in into.iter_mut().zip(from).zip(seen).enumerate() {
            let (old, t) = (*into, seen + 1);
            let new = old.max(from);
            if new != old {
                journal.record(Undo::Reach {
                    slot: (slot0 + b * BLOCK + k) as u32,
                    old,
                });
            }
            *into = new;
            let added = new.max(t) - old.max(t);
            low += added & 0xffff;
            high += added >> 16;
        }
        delta += (u64::from(high) << 16) + u64::from(low);
    }
    delta
}

/// Work counters of the work-bound tests, counted where the work is done
/// and compiled into test builds only.
#[cfg(test)]
mod work {
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Rows of `reach` folded by `insert_r_edge`.
        pub static ROWS_FOLDED: Cell<u64> = const { Cell::new(0) };
        /// The nodes of those rows, in fold order, while a test keeps a
        /// list here.
        pub static FOLDED_INTO: RefCell<Option<Vec<usize>>> = const { RefCell::new(None) };
        /// `reach` lanes the dirty-run searches (`first_reached`) probed.
        pub static LANES_PROBED: Cell<u64> = const { Cell::new(0) };
        /// `reach` lanes the sender-side fold (`raise_runs`) wrote.
        pub static LANES_RAISED: Cell<u64> = const { Cell::new(0) };
        /// Send records the refreshes of the kept tail targets examined.
        pub static TAIL_SENDS: Cell<u64> = const { Cell::new(0) };
        /// Rows of the write-once snapshot tables (`msgs`, `msg_tdv`,
        /// `cp_tdv`, `r_meta`) a snapshot render wrote.
        pub static ROWS_RENDERED: Cell<u64> = const { Cell::new(0) };
        /// Rows of `reach` a snapshot render wrote.
        pub static REACH_ROWS_RENDERED: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts a fold into row `y`, and lists it if a test keeps a list.
    pub fn folded(y: usize) {
        ROWS_FOLDED.set(ROWS_FOLDED.get() + 1);
        FOLDED_INTO.with_borrow_mut(|list| list.iter_mut().for_each(|list| list.push(y)));
    }
}

/// Raises `gc` to the least consistent global checkpoint dominating it
/// (while a delivered message is an orphan, its sender steps up to the
/// send); `false` if that needs a checkpoint not yet taken. Also returns
/// the number of message records examined.
///
/// Each pass walks every sender's send chain (`send_heads[q]`, intervals
/// falling) from the newest down to `gc[q]` and stops at the first orphan:
/// being the newest it is the sender's maximum, the only one its entry has
/// to reach — and the only one that can sit in an interval the sender has
/// not closed yet. Entries only rise, so a send at or below `gc[q]` is never
/// looked at again, and a pass that changes nothing proves the fixpoint.
///
/// The two fixpoints read the message table only, so they are plain
/// functions kept out of line: every instantiation of the engine, in every
/// crate that instantiates it, runs one compiled copy.
#[inline(never)]
fn ascend_to_consistent(
    msgs: &[MsgRec],
    send_heads: &[u32],
    cp_count: &[u32],
    gc: &mut [u32],
) -> (bool, usize) {
    let mut examined = 0;
    loop {
        let mut changed = false;
        for (q, &head) in send_heads.iter().enumerate() {
            for (_, send_iv, rec) in Chain::sends(msgs, head) {
                if send_iv <= gc[q] {
                    break;
                }
                examined += 1;
                // In transit, `deliver_iv` is `NONE_U32`: above any entry.
                if rec.deliver_iv <= gc[rec.to as usize] {
                    if send_iv > cp_count[q] {
                        return (false, examined);
                    }
                    gc[q] = send_iv;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            return (true, examined);
        }
    }
}

/// Lowers `gc` to the greatest consistent global checkpoint it dominates:
/// while some delivered message is an orphan (sent above the line,
/// delivered at or below it), its receiver steps below the delivery.
/// Returns the number of message records examined, which is exactly the
/// number of sends above the returned line.
///
/// A worklist over the send chains (`send_heads`): each sender keeps a
/// cursor, a message handle, that walks down its chain from its newest send
/// while the send is above `gc[p]`, so a send is
/// examined once, when the line first drops below it. Once suffices because
/// entries only fall: a send whose delivery sits above the receiver's entry
/// when examined can never become an orphan later. A receiver whose entry
/// drops exposes more of its own sends and is queued again; each process is
/// on the work stack at most once, so cursors, queued flags and stack fit
/// `3n` entries of scratch (on the stack up to `GC_STACK_ENTRIES`
/// processes).
#[inline(never)]
pub(crate) fn descend_to_consistent(msgs: &[MsgRec], send_heads: &[u32], gc: &mut [u32]) -> usize {
    let n = gc.len();
    let (mut on_stack, mut on_heap) = ([0u32; 3 * GC_STACK_ENTRIES], Vec::new());
    let scratch = if n <= GC_STACK_ENTRIES {
        &mut on_stack[..3 * n]
    } else {
        on_heap.resize(3 * n, 0);
        &mut on_heap[..]
    };
    let (cursor, rest) = scratch.split_at_mut(n);
    let (queued, stack) = rest.split_at_mut(n);
    for p in 0..n {
        cursor[p] = send_heads[p];
        queued[p] = 1;
        stack[p] = p as u32;
    }
    let (mut top, mut examined) = (n, 0);
    while top > 0 {
        top -= 1;
        let p = stack[top] as usize;
        queued[p] = 0;
        let mut at = cursor[p];
        // The chain ends at `NONE_U32`, which no handle reaches.
        while let Some(rec) = msgs.get(at as usize) {
            if rec.send_iv <= gc[p] {
                break;
            }
            at = rec.prev_send;
            examined += 1;
            let to = rec.to as usize;
            // In transit, `deliver_iv` is `NONE_U32`: above any entry.
            if rec.deliver_iv <= gc[to] {
                gc[to] = rec.deliver_iv - 1;
                if queued[to] == 0 {
                    queued[to] = 1;
                    stack[top] = to as u32;
                    top += 1;
                }
            }
        }
        cursor[p] = at;
    }
    examined
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
    use crate::characterization::{all_chains_doubled, all_cm_paths_doubled};
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

    /// The tests run the full instantiation: they hold every layer against
    /// the batch pipeline and rewind.
    type Engine = FullAnalysis;

    impl Engine {
        /// Capacity snapshot of every growable buffer the engine owns.
        /// Rewinding truncates in place and replays refill the warmed
        /// storage, so a rewind + replay cycle must not change any entry —
        /// the branch-isolation test pins that invariant.
        fn buffer_capacities(&self) -> Vec<usize> {
            let chains = &self.chains;
            let flat = [
                self.journal.entries.capacity(),
                self.msgs.capacity(),
                chains.recs.capacity(),
                self.msg_tdv.capacity(),
                self.cp_tdv.capacity(),
                self.r_meta.capacity(),
                self.reach.capacity(),
            ];
            let (z, c) = (&chains.zmat, &chains.cmat);
            let slabs = [&z.fwd, &z.bwd, &c.fwd, &c.bwd].map(|m| m.words.capacity());
            let scratch = [&z.dpred, &z.dsucc, &c.dpred, &c.dsucc];
            let slabs = slabs.into_iter().chain(scratch.map(Vec::capacity));
            let per_process = (0..self.n).flat_map(|p| {
                let nodes = [&self.cp_nodes[p], &chains.z_slots[p], &chains.c_spine[p]];
                let nodes = nodes.into_iter().chain([&chains.c_delivs[p]]);
                nodes.map(Vec::capacity)
            });
            flat.into_iter().chain(slabs).chain(per_process).collect()
        }
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
        incr: Engine,
        builder: PatternBuilder,
        mids: Vec<crate::PatternMessageId>,
    }

    impl Lockstep {
        fn new(n: usize) -> Self {
            Lockstep {
                incr: Engine::layered(n),
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

    /// Every query of the engine must agree with the closed pattern's
    /// oracles: the naive R-closure and the replayed `TDV`s for the R-path
    /// half, the batch chain closures and fixpoints for the rest.
    fn assert_matches_batch(incr: &mut Engine, pattern: &Pattern) {
        let analysis = PatternAnalysis::new(pattern);
        let closed = analysis.pattern();
        let reach = analysis.rgraph().reachability_naive();
        let annotations = analysis.annotations().expect("realizable");
        let zz = analysis.zigzag();

        incr.with_closed(|view| {
            let mut untrackable: Vec<_> = closed
                .checkpoints()
                .flat_map(|from| reach.reachable_from(from).map(move |to| (from, to)))
                .filter(|&(from, to)| !annotations.trackable(from, to))
                .collect();
            untrackable.sort_by_key(|&(f, t)| (t.process, t.index, f.process, f.index));
            let cells: Vec<_> = view.untrackable_cells().collect();
            assert_eq!(cells, untrackable, "untrackable cells, in order");
            assert_eq!(
                view.untrackable_pairs(),
                untrackable.len() as u64,
                "untrackable count"
            );
            assert_eq!(
                view.total_reachable_pairs(),
                reach.total_reachable_pairs(),
                "closure popcount"
            );
            assert_eq!(view.rdt_holds(), untrackable.is_empty());
            assert_eq!(view.violations_capped(), untrackable.len().min(16));
            assert_eq!(
                view.all_chains_doubled(),
                all_chains_doubled(&analysis),
                "chains doubled"
            );
            assert_eq!(
                view.visible_holds(),
                all_cm_paths_doubled(&analysis),
                "cm paths doubled"
            );
            // The violating pairs themselves, off the replayed `TDV`s.
            let closing = |iv: rdt_causality::IntervalId| {
                annotations.tdv(CheckpointId::new(iv.process, iv.index))
            };
            let visible: Vec<_> = (0..closed.num_messages())
                .filter_map(|m| {
                    let id = crate::PatternMessageId(m);
                    let got = closing(closed.deliver_interval(id)?);
                    Some((m as u32, closing(closed.send_interval(id)), got))
                })
                .flat_map(|(mid, sent, got)| {
                    let lanes = (0..closed.num_processes()).map(ProcessId::new);
                    let broken = lanes.filter(move |&i| sent.get(i) > got.get(i));
                    broken.map(move |i| (mid, i.index()))
                })
                .collect();
            assert_eq!(view.visible_violations().collect::<Vec<_>>(), visible);

            for from in closed.checkpoints() {
                assert_eq!(view.on_z_cycle(from), zz.on_z_cycle(from), "z-cycle {from}");
                for to in closed.checkpoints() {
                    let ours = [
                        view.reaches(from, to),
                        view.chain_exists(from, to),
                        view.causal_chain_exists(from, to),
                        view.causal_doubling_exists(from, to),
                        view.z_path_after_to_before(from, to),
                    ];
                    let batch = [
                        reach.reaches(from, to),
                        zz.chain_exists(from, to),
                        zz.causal_chain_exists(from, to),
                        zz.causal_doubling_exists(from, to),
                        zz.z_path_after_to_before(from, to),
                    ];
                    assert_eq!(
                        ours, batch,
                        "reaches / chain / causal chain / doubling / z-path ({from}, {to})"
                    );
                }
                let member = [from];
                let ours = (
                    view.min_consistent_containing(&member),
                    view.max_consistent_containing(&member),
                    view.min_consistent_via_rgraph(&member),
                );
                let min = min_max::min_consistent_containing(closed, &member);
                let batch = (
                    min.clone(),
                    min_max::max_consistent_containing(closed, &member),
                    min,
                );
                assert_eq!(ours, batch, "min / max / min via R-graph gc {from}");
            }
        });
    }

    #[test]
    fn empty_engine_matches_empty_pattern() {
        for n in 1..4 {
            let mut incr = Engine::layered(n);
            let pattern = PatternBuilder::new(n).build().unwrap();
            assert_matches_batch(&mut incr, &pattern);
        }
    }

    #[test]
    fn figure_2_motif_is_detected_online() {
        // Figure 2's unbroken non-causal chain: m' sent before m races
        // ahead; the hidden dependency appears once intervals close.
        let mut incr = Engine::layered(3);
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
    fn visible_violations_name_the_broken_lane() {
        let closed_list = |incr: &mut IncrementalAnalysis<NoChains, UndoJournal>| {
            incr.with_closed(|view| view.visible_violations().collect::<Vec<_>>())
        };
        // Figure 2's minimal witness `s0>1#0 d1#0 s2>0#1 d0#1`: after
        // sending m0, p0 learns of I_{2,1}, which p1 never sees.
        let mut incr = IncrementalAnalysis::<NoChains, UndoJournal>::layered(3);
        let m0 = incr.append_send(p(0), p(1));
        incr.append_deliver(m0);
        let m1 = incr.append_send(p(2), p(0));
        incr.append_deliver(m1);
        assert_eq!(closed_list(&mut incr), [(m0, 2)]);

        // The receiver's own lane: p0 hears of I_{1,2} before closing the
        // interval m was sent in, and p1 delivered m in I_{1,1}.
        let mut incr = IncrementalAnalysis::<NoChains, UndoJournal>::layered(2);
        let m = incr.append_send(p(0), p(1));
        incr.append_deliver(m);
        incr.append_checkpoint(p(1));
        let back = incr.append_send(p(1), p(0));
        incr.append_deliver(back);
        // In transit, p0's lane would read 2 > 1 against p1's last `TDV`.
        incr.append_checkpoint(p(0));
        incr.append_send(p(0), p(1));
        assert_eq!(closed_list(&mut incr), [(m, 1)]);
    }

    /// After a compaction a violation counts only above the watermark.
    /// Figure 2's witness, closed and compacted to the closing checkpoints,
    /// keeps both of m0's, but its R-path is headed at the watermark:
    /// `TDV_0^1[2] = 1`.
    #[test]
    fn compacted_violations_count_above_the_chain_floor() {
        let mut incr = IncrementalAnalysis::new(3);
        let m0 = incr.append_send(p(0), p(1));
        incr.append_deliver(m0);
        let m1 = incr.append_send(p(2), p(0));
        incr.append_deliver(m1);
        for q in 0..3 {
            incr.append_checkpoint(p(q));
        }
        assert_eq!(incr.visible_violations().collect::<Vec<_>>(), [(m0, 2)]);
        assert!(incr.compact_to(&[1, 1, 1]).discarded_state());
        let sent = incr.checkpoint_tdv(CheckpointId::new(p(0), 1));
        assert_eq!(sent, Some(&[1, 0, 1][..]), "retained");
        assert!(incr.visible_holds());
        assert!(
            !incr.rdt_holds(),
            "the count still covers the whole history"
        );
    }

    /// Self-sends, which the engine accepts and `PatternBuilder` refuses,
    /// break no lane: their R-edges stay on one process, where `TDV` only
    /// rises.
    #[test]
    fn self_sends_break_no_lane() {
        let mut incr = IncrementalAnalysis::<NoChains, UndoJournal>::layered(2);
        let across = incr.append_send(p(0), p(0));
        incr.append_checkpoint(p(0));
        incr.append_deliver(across);
        let within = incr.append_send(p(0), p(0));
        incr.append_deliver(within);
        incr.append_send(p(1), p(1));
        incr.append_checkpoint(p(1));
        assert!(incr.with_closed(|view| view.visible_holds() && view.rdt_holds()));
    }

    /// Each violation `(m, i)` names the untrackable R-path `C_{i,x} →*
    /// C_{k,s} → C_{j,y}`, `x = TDV_k^s[i]` (THEORY § 2, ⇒), and there is
    /// one wherever RDT fails (⇐). Self-sends, which the engine accepts and
    /// `PatternBuilder` refuses, are in the mix (all sends at `n` = 1).
    #[test]
    fn visible_violations_witness_untrackable_paths() {
        let mut rng = Rng(0x5E1F);
        let mut self_sends = 0;
        for n in 1..5 {
            let mut incr = IncrementalAnalysis::<NoChains, UndoJournal>::layered(n);
            let mut in_flight = Vec::new();
            for _ in 0..150 {
                match rng.below(4) {
                    0 => {
                        incr.append_checkpoint(p(rng.below(n)));
                    }
                    1 | 2 => {
                        let (from, to) = (rng.below(n), rng.below(n));
                        self_sends += usize::from(from == to);
                        in_flight.push(incr.append_send(p(from), p(to)));
                    }
                    _ if !in_flight.is_empty() => {
                        let i = rng.below(in_flight.len());
                        incr.append_deliver(in_flight.swap_remove(i));
                    }
                    _ => {}
                }
                incr.with_closed(|view| {
                    let cells: Vec<_> = view.untrackable_cells().collect();
                    assert_eq!(view.visible_holds(), cells.is_empty(), "verdict");
                    for (mid, i) in view.visible_violations() {
                        let r = view.message_route(mid);
                        let sent = CheckpointId::new(r.from, r.send_interval);
                        let head = CheckpointId::new(p(i), view.checkpoint_tdv(sent).unwrap()[i]);
                        let to = CheckpointId::new(r.to, r.deliver_interval.unwrap());
                        assert!(
                            cells.contains(&(head, to)),
                            "{mid} lane {i}: {head} -> {to}"
                        );
                    }
                });
            }
        }
        assert!(self_sends > 50, "{self_sends} self-sends");
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

        // Branch A (engine only): a figure-2 motif — m' (p2 to p0) races
        // ahead of the chain p1 to p2, so p0 never hears of p1's interval.
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

        // Rewind once more and replay branch A: same observation, same
        // message handles, and — every buffer warmed by the first pass — the
        // whole rewind + replay cycle runs in reused storage.
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
        let mut incr = Engine::layered(2);
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
    #[should_panic(expected = "mark is ahead of the journal")]
    fn rewind_to_a_mark_rewound_away_panics() {
        let mut incr = Engine::layered(2);
        let before = incr.mark();
        incr.append_checkpoint(p(0));
        let ahead = incr.mark();
        incr.rewind(before);
        incr.rewind(ahead);
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

    /// Calls `f` on every vector componentwise dominated by `limit`.
    fn for_each_below(limit: &[u32], mut f: impl FnMut(&[u32])) {
        let mut idx = vec![0u32; limit.len()];
        loop {
            f(&idx);
            let Some(k) = (0..idx.len()).find(|&k| idx[k] < limit[k]) else {
                return;
            };
            idx[..k].fill(0);
            idx[k] += 1;
        }
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
        for_each_below(&last, |caps| {
            let line = lock.incr.max_consistent_dominated(caps);
            let mut best = vec![0u32; n];
            for_each_below(caps, |idx| {
                let gc = crate::GlobalCheckpoint::new(idx.to_vec());
                if crate::consistency::is_consistent(&pattern, &gc) {
                    for (b, &v) in best.iter_mut().zip(idx) {
                        *b = (*b).max(v);
                    }
                }
            });
            assert_eq!(line.as_slice(), &best[..], "caps {caps:?}");
        });
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

    /// Full-scan insertion, the reference the kernel differential holds
    /// `ClosureMatrix::insert_edge` against: every predecessor row of `u` is
    /// scanned against all of `succ(v)` and every successor row of `v`
    /// against all of `pred(u)`.
    fn insert_edge_full_scan(
        mat: &mut chain_layer::ClosureMatrix,
        journal: &mut UndoJournal,
        u: usize,
        v: usize,
    ) -> bool {
        if mat.fwd.bit(u, v) {
            return false;
        }
        let mut succ = mat.fwd.row(v).to_vec();
        bits::set(&mut succ, v);
        let mut pred = mat.bwd.row(u).to_vec();
        bits::set(&mut pred, u);
        for (dir, rows, add) in [(0u8, &pred, &succ), (1, &succ, &pred)] {
            let slab = if dir == 0 { &mut mat.fwd } else { &mut mat.bwd };
            let w = slab.width;
            for x in bits::ones(rows) {
                for (wi, &add) in add.iter().enumerate() {
                    let old = slab.words[x * w + wi];
                    let fresh = add & !old;
                    if fresh != 0 {
                        journal.record(Undo::word(MAT_Z * 2 + dir, x, wi, old));
                        slab.words[x * w + wi] = old | add;
                    }
                }
            }
        }
        true
    }

    /// Grows two matrices to `target` nodes through the same random
    /// insertions — the dirty-set kernel on one, the full-scan reference on
    /// the other — and holds slabs, journal entries and the "was new" flag
    /// against each other after every insertion.
    fn assert_kernels_agree(rng: &mut Rng, target: usize) {
        use chain_layer::ClosureMatrix;
        let (mut kernel, mut reference) = (ClosureMatrix::default(), ClosureMatrix::default());
        let (mut journal_k, mut journal_r) = (UndoJournal::default(), UndoJournal::default());
        let mut inserted: Vec<(usize, usize)> = Vec::new();
        let (mut fresh_edges, mut implied_edges) = (0usize, 0usize);
        for m in [&mut kernel, &mut reference] {
            m.push_node();
            m.push_node();
        }
        let mut steps = 0;
        while kernel.fwd.nodes < target || steps < 3 * target {
            steps += 1;
            let k = kernel.fwd.nodes;
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
            let (at_k, at_r) = (journal_k.entries.len(), journal_r.entries.len());
            let new_k = kernel.insert_edge(MAT_Z, &mut journal_k, u, v);
            let new_r = insert_edge_full_scan(&mut reference, &mut journal_r, u, v);
            assert_eq!(new_k, new_r, "was-new flag of {u} -> {v}");
            assert_eq!(
                kernel.fwd.words, reference.fwd.words,
                "fwd after {u} -> {v}"
            );
            assert_eq!(
                kernel.bwd.words, reference.bwd.words,
                "bwd after {u} -> {v}"
            );
            assert_eq!(
                journal_k.entries[at_k..],
                journal_r.entries[at_r..],
                "journal of {u} -> {v}"
            );
            if new_k {
                fresh_edges += 1;
            } else {
                implied_edges += 1;
            }
        }
        assert_eq!(
            kernel.fwd.width,
            bits::words_for(target).next_power_of_two()
        );
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

    /// Every table of the engine, chain layer and journal entries included,
    /// with the one field that is documented not to rewind (`events`, a
    /// monotone work counter) blanked, and what is not state cut out: the
    /// closure kernels' scratch sets.
    fn rewindable_state<C: ChainLayer>(mut incr: IncrementalAnalysis<C, UndoJournal>) -> String {
        incr.events = 0;
        let mut state = format!("{incr:?}");
        for field in [", dpred: ", ", dsucc: "] {
            while let Some(at) = state.find(field) {
                let value = &state[at + field.len()..];
                let len = match value.find(']') {
                    Some(end) if value.starts_with('[') => end + 1,
                    _ => value
                        .find(|c: char| !c.is_ascii_digit())
                        .expect("more follows"),
                };
                state.replace_range(at..at + field.len() + len, "");
            }
        }
        state
    }

    /// Feeds `ops` to the engine alone, with no pattern mirror.
    fn feed<C: ChainLayer>(incr: &mut IncrementalAnalysis<C, UndoJournal>, ops: &[Op]) {
        for &op in ops {
            match op {
                Op::Cp(i) => {
                    incr.append_checkpoint(p(i));
                }
                Op::Send(from, to) => {
                    incr.append_send(p(from), p(to));
                }
                Op::Del(k) => incr.append_deliver(k as u32),
            }
        }
    }

    /// Rewinding `detour` off `head` leaves the engine bit-equal to a fresh
    /// one fed the same prefix.
    fn assert_rewind_is_a_fresh_replay<C: ChainLayer>(n: usize, [head, detour]: [&[Op]; 2]) {
        let prefix = || {
            let mut incr = IncrementalAnalysis::<C, UndoJournal>::layered(n);
            feed(&mut incr, head);
            incr
        };
        let mut incr = prefix();
        let mark = incr.mark();
        feed(&mut incr, detour);
        incr.rewind(mark);
        assert_eq!(rewindable_state(incr), rewindable_state(prefix()));
    }

    // ------------------------------------------- reach differential ----

    /// Every operation that touches `reach`, each on an engine that can
    /// take it: a journal-free subject takes the appends, compactions and
    /// snapshot → restore hops; a journaled twin, never compacted and never
    /// restored, so that every checkpoint it was fed is still a node of it,
    /// takes the same appends and the marks and rewinds. Where the twin
    /// rewinds, the subject is restored from a snapshot taken with the mark.
    /// The same ops drive the kept tail targets' differential, which checks
    /// those instead of `reach`.
    struct ReachDifferential {
        subject: IncrementalAnalysis,
        twin: IncrementalAnalysis<NoChains, UndoJournal>,
        rng: Rng,
        in_flight: Vec<u32>,
        /// A mark of the twin, the subject's snapshot text and the messages
        /// in flight, all taken at once.
        marks: Vec<(Mark, Vec<u8>, Vec<u32>)>,
        /// `Some` when the checks are of the kept tail targets: how many
        /// found them kept and how many found them stale.
        tails: Option<[usize; 2]>,
    }

    /// Holds `engine`'s kept tail targets, unless they are stale, to a fresh
    /// walk, then refreshes them so that the next op has kept targets to
    /// maintain. Returns whether they were kept.
    fn assert_kept_tails<C: ChainLayer, J: Journal>(
        engine: &mut IncrementalAnalysis<C, J>,
        what: &str,
    ) -> bool {
        let mut fresh = vec![0; engine.n];
        engine.tail_targets(&mut fresh);
        let kept = !engine.tails.is_empty();
        if kept {
            assert_eq!(engine.tails, fresh, "{what}: kept tail targets");
        }
        engine.refresh_tails();
        assert_eq!(engine.tails, fresh, "{what}: refreshed tail targets");
        kept
    }

    /// `reach` of an engine that was never compacted, recomputed from the
    /// pattern alone: a search from every node over the R-graph's edges as
    /// the message table and the checkpoint counts give them — Rule 1 along
    /// each process, Rule 2 for every message whose send and delivery
    /// intervals are both closed. Nothing the kernel maintains is read.
    fn reach_by_search<C: ChainLayer, J: Journal>(engine: &IncrementalAnalysis<C, J>) -> Vec<u32> {
        let (n, nodes) = (engine.n, engine.r_meta.len());
        let mut node_of = vec![Vec::new(); n];
        for (x, &(p, index)) in engine.r_meta.iter().enumerate() {
            assert_eq!(node_of[p as usize].len(), index as usize, "node {x}");
            node_of[p as usize].push(x);
        }
        let mut edges = vec![Vec::new(); nodes];
        for (p, own) in node_of.iter().enumerate() {
            assert_eq!(own.len(), engine.cp_count[p] as usize + 1, "process {p}");
            for pair in own.windows(2) {
                edges[pair[0]].push(pair[1]);
            }
        }
        for m in &engine.msgs {
            let closed = |p: u32, iv: u32| node_of[p as usize].get(iv as usize).copied();
            let (from, to) = (closed(m.from, m.send_iv), closed(m.to, m.deliver_iv));
            if let (Some(from), Some(to)) = (from, to) {
                edges[from].push(to);
            }
        }
        let mut reach = vec![0u32; nodes * n];
        for (x, &(p, index)) in engine.r_meta.iter().enumerate() {
            let (mut seen, mut stack) = (vec![false; nodes], vec![x]);
            seen[x] = true;
            while let Some(y) = stack.pop() {
                let lane = &mut reach[y * n + p as usize];
                *lane = (*lane).max(index + 1);
                for &z in &edges[y] {
                    if !std::mem::replace(&mut seen[z], true) {
                        stack.push(z);
                    }
                }
            }
        }
        reach
    }

    impl ReachDifferential {
        fn new(n: usize, seed: u64) -> Self {
            ReachDifferential {
                subject: IncrementalAnalysis::new(n),
                twin: IncrementalAnalysis::<NoChains, UndoJournal>::layered(n),
                rng: Rng(seed | 1),
                in_flight: Vec::new(),
                marks: Vec::new(),
                tails: None,
            }
        }

        /// After an op: the kept tail targets if they are what is checked,
        /// `reach` otherwise.
        fn check(&mut self, what: &str) {
            let Some([kept, stale]) = &mut self.tails else {
                return self.check_reach(what);
            };
            for was_kept in [
                assert_kept_tails(&mut self.subject, &format!("{what}, subject")),
                assert_kept_tails(&mut self.twin, &format!("{what}, twin")),
            ] {
                *if was_kept { &mut *kept } else { &mut *stale } += 1;
            }
        }

        /// `reach` is the closure the pattern's edges give, row for row, on
        /// both engines (the subject's rows hold their compacted-away sources
        /// too), and `untrackable` is `Σ (reach − 1 − TDV)⁺`.
        fn check_reach(&self, what: &str) {
            let (subject, twin) = (&self.subject, &self.twin);
            let n = subject.n;
            let closure = reach_by_search(twin);
            let mut untrackable = 0u64;
            for (y, row) in closure.chunks_exact(n).enumerate() {
                assert_eq!(twin.reach[y * n..][..n], *row, "{what}: twin row {y}");
                for (&reach, &seen) in row.iter().zip(&twin.cp_tdv[y * n..][..n]) {
                    untrackable += u64::from(reach.saturating_sub(seen + 1));
                }
            }
            assert_eq!(twin.untrackable, untrackable, "{what}: twin count");
            assert_eq!(subject.untrackable, untrackable, "{what}: count");
            assert_eq!(
                subject.reach.len(),
                subject.r_meta.len() * n,
                "{what}: rows"
            );
            for (y, &(p, index)) in subject.r_meta.iter().enumerate() {
                let in_twin = twin.cp_nodes[p as usize][index as usize] as usize;
                assert_eq!(
                    subject.reach[y * n..][..n],
                    closure[in_twin * n..][..n],
                    "{what}: row {y}"
                );
            }
        }

        fn event(&mut self) {
            let n = self.subject.n;
            let (subject, twin) = (&mut self.subject, &mut self.twin);
            match self.rng.below(4) {
                0 => {
                    let process = p(self.rng.below(n));
                    subject.append_checkpoint(process);
                    twin.append_checkpoint(process);
                }
                1 | 2 => {
                    let from = self.rng.below(n);
                    let to = p((from + 1 + self.rng.below(n - 1)) % n);
                    self.in_flight.push(subject.append_send(p(from), to));
                    twin.append_send(p(from), to);
                }
                _ if !self.in_flight.is_empty() => {
                    let at = self.rng.below(self.in_flight.len());
                    let mid = self.in_flight.swap_remove(at);
                    subject.append_deliver(mid);
                    twin.append_deliver(mid);
                }
                _ => {}
            }
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut text = Vec::new();
            self.subject
                .write_snapshot(&mut rdt_json::JsonWriter::new(&mut text));
            text
        }

        fn step(&mut self) {
            let n = self.subject.n;
            match self.rng.below(24) {
                // Coordinated: a round, then the recovery line is the
                // frontier and every process keeps one node.
                0 => {
                    for mid in std::mem::take(&mut self.in_flight) {
                        self.subject.append_deliver(mid);
                        self.twin.append_deliver(mid);
                        self.check("round delivery");
                    }
                    for i in 0..n {
                        self.subject.append_checkpoint(p(i));
                        self.twin.append_checkpoint(p(i));
                        self.check("round checkpoint");
                    }
                    let stats = self.subject.compact_to_recovery_line();
                    assert!(stats.dropped_r_nodes > 0);
                }
                // Trailing: caps up to two checkpoints behind the frontier,
                // no round.
                1 | 2 => {
                    let lag = |c: &u32| c.saturating_sub(self.rng.below(3) as u32);
                    let caps: Vec<u32> = self.subject.cp_count.iter().map(lag).collect();
                    self.subject.compact_to(&caps);
                }
                3 => {
                    let (mark, text) = (self.twin.mark(), self.snapshot());
                    self.marks.push((mark, text, self.in_flight.clone()));
                }
                4 if !self.marks.is_empty() => {
                    self.marks.truncate(self.rng.below(self.marks.len()) + 1);
                    let (mark, text, in_flight) = self.marks.pop().expect("one is left");
                    self.twin.rewind(mark);
                    self.subject =
                        IncrementalAnalysis::from_snapshot_text(&text).expect("restores");
                    self.in_flight = in_flight;
                }
                5 => {
                    let text = self.snapshot();
                    self.subject =
                        IncrementalAnalysis::from_snapshot_text(&text).expect("restores");
                }
                _ => self.event(),
            }
        }
    }

    // ------------------------------------------------- work bound ----

    /// A core engine fed a stream of the daemon benchmark's shape: `n`
    /// processes, every 4th event a checkpoint of a random process,
    /// otherwise a send or a delivery of a random message in flight (at
    /// most `window`), and every so many events a coordinated round —
    /// everything in flight delivered, every process checkpointed —
    /// followed by a compaction to the recovery line.
    struct DaemonStream {
        core: IncrementalAnalysis,
        window: usize,
        rng: Rng,
        events: u32,
        in_flight: Vec<u32>,
        /// Messages sent before the last coordinated round.
        sent_before_round: usize,
        /// Each process's send intervals, in send order: the test's own
        /// index of what the send chains hold.
        send_ivs: Vec<Vec<u32>>,
        /// Whether, since the last fit question that walked, a checkpoint
        /// retired a send whose delivery interval was its receiver's least
        /// tail target (true until the first: nothing is kept yet).
        retired_a_minimum: bool,
    }

    /// Records examined by the costliest query of each kind, and how many
    /// fit questions were asked and how many of them walked.
    #[derive(Debug, Default)]
    struct Examined {
        recovery_line: usize,
        max_consistent: usize,
        min_consistent: usize,
        fits_frontier: usize,
        fit_questions: usize,
        refreshes: usize,
    }

    impl DaemonStream {
        /// `query-mix-tcp`: 16 processes, at most 16 messages in flight
        /// (a round every 2 000 events).
        fn query_mix(seed: u64) -> Self {
            Self::new(16, 16, seed)
        }

        /// `deep-unix`: 32 processes, at most 64 messages in flight (a round
        /// every 3 200 events).
        fn deep_unix(seed: u64) -> Self {
            Self::new(32, 64, seed)
        }

        fn new(n: usize, window: usize, seed: u64) -> Self {
            DaemonStream {
                core: IncrementalAnalysis::new(n),
                window,
                rng: Rng(seed | 1),
                events: 0,
                in_flight: Vec::new(),
                sent_before_round: 0,
                send_ivs: vec![Vec::new(); n],
                retired_a_minimum: true,
            }
        }

        /// Appends a checkpoint of process `i`, noting whether it retires a
        /// least tail target: a send of `i` in its open interval, delivered
        /// in a closed interval that is its receiver's least, by a walk
        /// taken before it.
        fn checkpoint(&mut self, i: usize) {
            let mut least = vec![0; self.core.n];
            self.core.tail_targets(&mut least);
            let core = &self.core;
            let open = |&(_, iv, _): &(u32, u32, &MsgRec)| iv > core.cp_count[i];
            let retires = core.sends_of(i).take_while(open).any(|(_, _, m)| {
                m.deliver_iv <= core.cp_count[m.to as usize] && m.deliver_iv == least[m.to as usize]
            });
            self.retired_a_minimum |= retires;
            self.core.append_checkpoint(p(i));
        }

        /// Sends of each process above `line`, counted off `send_ivs`.
        fn sends_above(&self, line: &[u32]) -> usize {
            let above =
                |(ivs, &line): (&Vec<u32>, &u32)| ivs.len() - ivs.partition_point(|&iv| iv <= line);
            self.send_ivs.iter().zip(line).map(above).sum()
        }

        fn event(&mut self) {
            self.events += 1;
            let n = self.core.n;
            if self.events.is_multiple_of(4) {
                let i = self.rng.below(n);
                self.checkpoint(i);
                return;
            }
            let (core, rng) = (&mut self.core, &mut self.rng);
            let send = match self.in_flight.len() {
                0 => true,
                k if k >= self.window => false,
                _ => rng.below(2) == 0,
            };
            if send {
                let from = rng.below(n);
                let to = (from + 1 + rng.below(n - 1)) % n;
                let mid = core.append_send(p(from), p(to));
                self.send_ivs[from].push(core.message_route(mid).send_interval);
                self.in_flight.push(mid);
            } else {
                let at = rng.below(self.in_flight.len());
                core.append_deliver(self.in_flight.swap_remove(at));
            }
        }

        /// The coordinated round and its compaction, held to its bound: the
        /// watermark is the frontier (a descent that examines nothing), and
        /// the two passes over the message table — floor and in-transit
        /// count, then the piggyback rebuild — start at the cursor the
        /// previous round left behind, so each reads the messages sent
        /// since then and no other record.
        fn round_and_compact(&mut self) {
            for mid in self.in_flight.drain(..) {
                self.core.append_deliver(mid);
            }
            for i in 0..self.core.n {
                self.checkpoint(i);
            }
            let sent = self.core.num_messages();
            assert_eq!(self.core.settled, self.sent_before_round, "cursor");
            let (stats, examined) = self.compact();
            assert!(stats.discarded_state());
            assert_eq!(examined, 2 * (sent - self.sent_before_round));
            assert_eq!(self.core.settled, sent, "every message is settled");
            self.sent_before_round = sent;
            assert!(stats.dropped_r_nodes > stats.resident_nodes);

            // Straight after, a second compaction finds nothing to reclaim
            // and examines no record at all.
            let (stats, examined) = self.compact();
            assert!(!stats.discarded_state());
            assert_eq!(examined, 0, "a settled record was examined");
        }

        /// `compact_to_recovery_line`, with the records it examined.
        fn compact(&mut self) -> (CompactionStats, usize) {
            let mut w = self.core.cp_count.clone();
            let descent = self.descend(&mut w);
            let (stats, passes) = self.core.compact_below(w);
            (stats, descent + passes)
        }

        /// One descent, held to its bound: it examines exactly the sends
        /// above the line it returns — none at or below it, and, since a
        /// correct descent has to look at every one of those, none twice.
        fn descend(&self, gc: &mut [u32]) -> usize {
            let examined = descend_to_consistent(&self.core.msgs, self.core.send_heads(), gc);
            assert_eq!(
                examined,
                self.sends_above(gc),
                "sends above the line {gc:?}"
            );
            examined
        }

        /// One fit question, held to its bound: it reads the kept tail
        /// targets and examines no send record, unless a checkpoint since
        /// the last walk retired a least target; then it walks once,
        /// examining exactly the sends in open intervals, which any correct
        /// search has to look at, and no other record. Either way the
        /// targets it read are a fresh walk's.
        fn fits_frontier(
            &mut self,
            members: &[CheckpointId],
            worst: &mut Examined,
        ) -> Option<bool> {
            let before = work::TAIL_SENDS.get();
            let fits = self.core.fits_frontier(members);
            let examined = (work::TAIL_SENDS.get() - before) as usize;
            if fits.is_none() {
                assert_eq!(examined, 0, "a question with a compacted member walked");
                return None;
            }
            worst.fit_questions += 1;
            if std::mem::take(&mut self.retired_a_minimum) {
                let in_open_intervals = self.sends_above(&self.core.cp_count);
                assert_eq!(examined, in_open_intervals, "sends in open intervals");
                worst.fits_frontier = worst.fits_frontier.max(examined);
                worst.refreshes += 1;
            } else {
                assert_eq!(examined, 0, "kept tail targets were walked again");
            }
            let mut fresh = vec![0; self.core.n];
            self.core.tail_targets(&mut fresh);
            assert_eq!(self.core.tails, fresh, "kept tail targets");
            fits
        }

        /// 1–3 members on distinct processes, each one of the last three
        /// checkpoints of its process.
        fn members(&mut self) -> Vec<CheckpointId> {
            let first = self.rng.below(self.core.n);
            (0..1 + self.rng.below(3))
                .map(|k| {
                    let process = p((first + k) % self.core.n);
                    let last = self.core.last_checkpoint_index(process);
                    let back = self.rng.below(last.min(2) as usize + 1) as u32;
                    CheckpointId::new(process, last - back)
                })
                .collect()
        }

        /// Every fixpoint query of the daemon on the current state, each
        /// counted form checked against the public one it mirrors.
        fn queries(&mut self, worst: &mut Examined) {
            let mut gc = self.core.cp_count.clone();
            let line = self.descend(&mut gc);
            worst.recovery_line = worst.recovery_line.max(line);
            let public = self.core.max_consistent_dominated(&self.core.cp_count);
            assert_eq!(gc, public.as_slice());

            let members = self.members();
            let fits = self.fits_frontier(&members, worst);
            let core = &self.core;
            gc.copy_from_slice(&core.cp_count);
            for m in &members {
                gc[m.process.index()] = m.index;
            }
            let max = self.descend(&mut gc);
            worst.max_consistent = worst.max_consistent.max(max);
            let found = members.iter().all(|m| gc[m.process.index()] == m.index);
            let found = found.then(|| GlobalCheckpoint::new(gc.clone()));
            assert_eq!(found, core.max_consistent_containing(&members));
            if let Some(fits) = fits {
                assert_eq!(fits, found.is_some(), "fit of {members:?}");
            }

            core.member_floor(&members, &mut gc);
            let (ok, min) =
                ascend_to_consistent(&core.msgs, core.send_heads(), &core.cp_count, &mut gc);
            worst.min_consistent = worst.min_consistent.max(min);
            let found = ok && members.iter().all(|m| gc[m.process.index()] == m.index);
            let found = found.then(|| GlobalCheckpoint::new(gc));
            assert_eq!(found, core.min_consistent_containing(&members));
        }
    }

    /// Queries and compactions cost the live suffix, not the stream's age.
    /// Every descent, every fit question and every compaction is held to an
    /// exact count where it runs (`descend`, `fits_frontier`,
    /// `round_and_compact`); here, over a final 4 000-event
    /// window, the costliest query of each kind examines no more message
    /// records than the window itself holds, whatever came before it. (With
    /// whole-table fixpoints and whole-table compaction passes each count
    /// would be the table — 1 500 to 77 000 records here — times the number
    /// of passes.) A fit question examines no record at all unless a
    /// checkpoint since the last walk retired a least tail target, and the
    /// share of questions that walk is pinned, 6–7 % here: without kept
    /// targets every one of them would.
    #[test]
    fn work_bound_queries_and_compaction_cost_the_live_suffix() {
        const WINDOW: u32 = 4_000;
        // Per history: fit questions answered, and how many walked.
        const PINNED: [(u32, [usize; 2]); 3] = [
            (0, [3_900, 230]),
            (20_000, [3_822, 230]),
            (200_000, [3_800, 264]),
        ];
        for (history, pinned) in PINNED {
            let mut stream = DaemonStream::query_mix(0x5eed_0017);
            let mut worst = Examined::default();
            let mut sent_before_window = 0;
            while stream.events < history + WINDOW {
                if stream.events == history {
                    sent_before_window = stream.core.num_messages();
                }
                stream.event();
                if stream.events > history {
                    stream.queries(&mut worst);
                }
                if stream.events.is_multiple_of(2_000) {
                    stream.round_and_compact();
                }
            }
            // A compaction with nothing to reclaim leaves the engine as it
            // was, epoch and watermark included.
            let state = |core: &IncrementalAnalysis| {
                let mut text = Vec::new();
                core.write_snapshot(&mut rdt_json::JsonWriter::new(&mut text));
                text
            };
            let before = state(&stream.core);
            assert!(!stream.core.compact_to_recovery_line().discarded_state());
            assert!(
                state(&stream.core) == before,
                "a no-op compaction changed the engine"
            );
            let window = stream.core.num_messages() - sent_before_window;
            assert_eq!(
                [worst.fit_questions, worst.refreshes],
                pinned,
                "fit questions and walks after {history} events"
            );
            for (what, examined) in [
                ("recovery-line", worst.recovery_line),
                ("max-consistent", worst.max_consistent),
                ("min-consistent", worst.min_consistent),
                ("fit predicate", worst.fits_frontier),
            ] {
                assert!(
                    (1..=window).contains(&examined),
                    "{what} after {history} events examined {examined} records, \
                     the window holds {window}"
                );
            }
        }
    }

    /// A checkpoint folds its finished reach row into each node it newly
    /// reaches once, finds those nodes by one binary search per process and
    /// writes only the lanes that rise: exact counts on a `deep-unix`-shaped
    /// stream (32 processes), period by period.
    /// The fold count is what the order of the Rule 2 edges in
    /// `try_append_checkpoint` decides — with the sender-side edges first
    /// the row is pushed out again after every receiver-side edge, and the
    /// same six periods fold 110 772, 64 538, 21 018, 54 255, 45 542 and
    /// 34 369 rows. The probe count is what the searches in `first_reached`
    /// read of `reach`: a second search per process for the run's end
    /// doubles it, and a scan of every retained checkpoint of each process
    /// reads 289 834, 232 660, 226 130, 222 654, 233 818 and 210 734 lanes.
    /// The raise count is the cells the sender-side fold writes; folding
    /// every row whole, `n` lanes each, visits 1 933 216, 964 032, 336 544,
    /// 828 320, 636 000 and 541 600.
    #[test]
    fn work_bound_a_checkpoint_folds_its_row_once() {
        // Per period: rows folded, lanes probed, lanes raised.
        const PINNED: [[u64; 3]; 6] = [
            [60_413, 49_635, 168_905],
            [30_126, 39_448, 132_803],
            [10_517, 37_978, 38_391],
            [25_885, 38_598, 79_793],
            [19_875, 41_585, 77_438],
            [16_925, 35_765, 52_519],
        ];
        let mut stream = DaemonStream::deep_unix(0x5eed_0020);
        let mut counted = Vec::new();
        for _ in PINNED {
            work::ROWS_FOLDED.set(0);
            work::LANES_PROBED.set(0);
            work::LANES_RAISED.set(0);
            for _ in 0..3_200 {
                stream.event();
            }
            stream.round_and_compact();
            counted.push([
                work::ROWS_FOLDED.get(),
                work::LANES_PROBED.get(),
                work::LANES_RAISED.get(),
            ]);
        }
        assert_eq!(
            counted, PINNED,
            "rows folded, lanes probed and lanes raised, period by period"
        );
    }

    /// A marked render writes what changed since the last one: on a
    /// `persist-unix`-shaped stream (8 processes, at most 16 messages in
    /// flight, a render every 1 500 events), exactly the rows of `msg_tdv`,
    /// `cp_tdv` and `r_meta` appended in between, the `msgs` rows from the
    /// first message in transit at the last render on, and the `reach` rows
    /// from the least one an R-edge changed since (or the first appended) —
    /// every row on the first render and after a state-discarding
    /// compaction. The first text folded with every delta since is the
    /// engine's whole text every time.
    #[test]
    fn work_bound_a_snapshot_renders_what_changed() {
        use rdt_json::{JsonReader, JsonWriter};
        let mut stream = DaemonStream::new(8, 16, 0x5eed_0025);
        let mut marks: Option<SnapshotMarks> = None;
        let mut file: Vec<Vec<u8>> = Vec::new();
        let mut render = |core: &mut IncrementalAnalysis| {
            work::ROWS_RENDERED.set(0);
            work::REACH_ROWS_RENDERED.set(0);
            let mut text = Vec::new();
            marks =
                Some(core.write_snapshot_since(marks.as_ref(), &mut JsonWriter::new(&mut text)));
            let rendered = (work::ROWS_RENDERED.get(), work::REACH_ROWS_RENDERED.get());
            let read = |text: &[u8]| {
                <IncrementalAnalysis>::read_snapshot(&mut JsonReader::new(text)).expect("reads")
            };
            if !read(&text).is_delta() {
                file.clear();
            }
            file.push(text);
            let mut tables = read(&file[0]);
            for delta in &file[1..] {
                tables.fold(read(delta)).expect("folds");
            }
            let folded = IncrementalAnalysis::from_snapshot_tables(tables).expect("restores");
            let whole = |engine: &IncrementalAnalysis| {
                let mut text = Vec::new();
                engine.write_snapshot(&mut JsonWriter::new(&mut text));
                text
            };
            assert!(
                whole(&folded) == whole(core),
                "the folded file is not the engine"
            );
            rendered
        };
        let rows = |core: &IncrementalAnalysis| {
            let n = core.n;
            let in_transit = core.msgs.iter().position(|m| m.deliver_iv == NONE_U32);
            let tables = core.msg_tdv.len() / n + core.cp_tdv.len() / n + core.r_meta.len();
            (
                tables,
                core.msgs.len(),
                in_transit.unwrap_or(core.msgs.len()),
            )
        };
        let every_row = |core: &IncrementalAnalysis| {
            let (tables, msgs, _) = rows(core);
            ((tables + msgs) as u64, core.r_meta.len() as u64)
        };

        for _ in 0..1_500 {
            stream.event();
        }
        assert_eq!(render(&mut stream.core), every_row(&stream.core));
        let (mut reach_rendered, mut reach_held) = (0, 0);
        for period in 0..12 {
            let (tables, _, first_in_transit) = rows(&stream.core);
            let (reach, n) = (stream.core.reach.clone(), stream.core.n);
            for _ in 0..1_500 {
                stream.event();
            }
            let (now, msgs, _) = rows(&stream.core);
            let mut changed = reach.chunks_exact(n).zip(stream.core.reach.chunks_exact(n));
            let changed = changed.position(|(was, is)| was != is);
            let reach_from = changed.unwrap_or(reach.len() / n);
            let nodes = stream.core.r_meta.len();
            let expected = (
                (now - tables + msgs - first_in_transit) as u64,
                (nodes - reach_from) as u64,
            );
            assert_eq!(
                render(&mut stream.core),
                expected,
                "rows rendered in period {period}"
            );
            reach_rendered += nodes - reach_from;
            reach_held += nodes;
        }
        assert!(
            4 * reach_rendered < reach_held,
            "{reach_rendered} of {reach_held} reach rows rendered"
        );
        stream.round_and_compact();
        assert_eq!(render(&mut stream.core), every_row(&stream.core));
    }

    /// Inserts `edges` arbitrary R-edges into `engine` and holds each
    /// insertion to the fold it replaced, which took every dirty row whole:
    /// the nodes it folds into — the binary-searched runs — are a full scan
    /// of the nodes the target reaches and the source does not, and the
    /// whole `reach` table, `untrackable` and `reach_floor` are what folding
    /// each of those rows whole (`fold_row`) leaves. `insert` inserts the
    /// edge. The edges go out of any retained node into any but the newest,
    /// and into the newest while it reaches nothing but itself, the one
    /// shape `try_append_checkpoint` inserts into it. Such an edge leaves
    /// `reach` a closure whose columns only rise, so appends can go on after
    /// it.
    fn assert_dirty_runs_are_the_full_scan<J: Journal>(
        engine: &mut IncrementalAnalysis<NoChains, J>,
        rng: &mut Rng,
        edges: usize,
        insert: fn(&mut IncrementalAnalysis<NoChains, J>, usize, usize),
    ) {
        let (n, nodes) = (engine.n, engine.r_meta.len());
        let newest = nodes - 1;
        for _ in 0..edges {
            let alone = (0..newest).all(|y| !engine.node_reaches(newest, y));
            let (u, v) = match rng.below(3) {
                0 if alone => (rng.below(nodes), newest),
                1 => (newest, rng.below(newest)),
                _ => (rng.below(nodes), rng.below(newest)),
            };
            let dirty = (0..nodes).filter(|&y| engine.node_reaches(v, y));
            let dirty: Vec<usize> = dirty.filter(|&y| !engine.node_reaches(u, y)).collect();
            let (mut reach, mut untrackable) = (engine.reach.clone(), engine.untrackable);
            let from = engine.reach[u * n..][..n].to_vec();
            for &y in &dirty {
                let (into, seen) = (&mut reach[y * n..][..n], &engine.cp_tdv[y * n..][..n]);
                untrackable += fold_row(&mut NoJournal, y * n, &from, into, seen);
            }
            let floor = rng.below(nodes + 1);
            engine.reach_floor = floor;

            work::FOLDED_INTO.set(Some(Vec::new()));
            insert(engine, u, v);
            let mut folded = work::FOLDED_INTO.take().expect("kept");
            folded.sort_unstable();
            let edge = format!("the edge {u} -> {v}");
            assert_eq!(folded, dirty, "nodes folded into by {edge}");
            let floor_after = dirty.first().map_or(floor, |&y| floor.min(y));
            assert!(engine.reach == reach, "reach after {edge}");
            assert_eq!(engine.untrackable, untrackable, "untrackable after {edge}");
            assert_eq!(engine.reach_floor, floor_after, "reach floor after {edge}");
        }
    }

    /// `insert_r_edge`, checked to be undone by a rewind past it: the engine
    /// is then bit-equal to the engine before it, and the edge goes in again.
    fn insert_and_rewind(
        engine: &mut IncrementalAnalysis<NoChains, UndoJournal>,
        u: usize,
        v: usize,
    ) {
        let (before, floor, mark) = (format!("{engine:?}"), engine.reach_floor, engine.mark());
        engine.insert_r_edge(u, v);
        engine.rewind(mark);
        engine.reach_floor = floor;
        assert!(
            format!("{engine:?}") == before,
            "rewound past the edge {u} -> {v}"
        );
        work::FOLDED_INTO.set(Some(Vec::new()));
        engine.insert_r_edge(u, v);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// `insert_edge` leaves exactly the state and journal the full-scan
        /// loop it replaced would have left.
        fn dirty_set_kernel_matches_full_scan(seed in 1u64..1_000_000) {
            let mut rng = Rng(seed | 1);
            for target in [63, 64, 65, 130] {
                assert_kernels_agree(&mut rng, target);
            }
        }

        /// `reach` is the backward closure and `untrackable` is
        /// `Σ (reach − 1 − TDV)⁺` after every operation: appends, coordinated
        /// and trailing compactions, marks and rewinds, restores.
        fn reach_is_the_closure_after_every_op(seed in 1u64..1_000_000, n in 2usize..6) {
            let mut run = ReachDifferential::new(n, seed);
            let mut epochs = 0;
            for step in 0..80 * n {
                run.step();
                run.check_reach(&format!("seed {seed}, n = {n}, step {step}"));
                epochs = epochs.max(run.subject.epoch);
            }
            assert!(epochs > 0, "no compaction discarded anything");
        }

        /// The tail targets the engine keeps are what a fresh walk finds
        /// after every op, on the subject and on the journaled twin alike:
        /// sends, deliveries, checkpoints, compactions, snapshot → restore
        /// hops and rewinds, and inside the twin's `with_closed` view. A
        /// restore, a rewound checkpoint (the closed view's, too) and a
        /// checkpoint that retires a least target leave them stale, and a
        /// stale read walks; most reads after an op find them kept.
        fn kept_tail_targets_are_a_fresh_walk(seed in 1u64..1_000_000, n in 2usize..6) {
            let mut run = ReachDifferential::new(n, seed);
            run.tails = Some([0, 0]);
            let mut closed_views_kept = 0;
            for step in 0..80 * n {
                let what = format!("seed {seed}, n = {n}, step {step}");
                run.step();
                run.check(&what);
                let closes = run.twin.line_open.contains(&true);
                closed_views_kept += run.twin.with_closed(|view| {
                    let mut fresh = vec![0; view.n];
                    view.tail_targets(&mut fresh);
                    let kept = !view.tails.is_empty();
                    assert!(!kept || view.tails == fresh, "{what}: closed view");
                    usize::from(kept)
                });
                let kept = assert_kept_tails(&mut run.twin, &format!("{what}, closed view rewound"));
                assert_eq!(kept, !closes, "{what}: kept across the closed view");
            }
            let [kept, stale] = run.tails.expect("tails checked");
            assert!(kept > 4 * stale, "{kept} reads kept, {stale} stale");
            assert!(closed_views_kept > 0, "no closed view kept its targets");
        }

        /// The dirty successors `insert_r_edge` finds by binary search are
        /// the ones a full scan finds, and the lanes it raises in them leave
        /// what folding them whole leaves, on appended, compacted and
        /// arbitrarily extended closures: the compacted ones on the
        /// journal-free core, the others on a journaled twin, where a rewind
        /// undoes each edge.
        fn dirty_runs_are_the_full_scan(seed in 1u64..1_000_000, n in 2usize..6) {
            let mut rng = Rng(seed | 1);
            let mut core = IncrementalAnalysis::new(n);
            let mut journaled = IncrementalAnalysis::<NoChains, UndoJournal>::layered(n);
            let (mut in_flight, mut sent) = (Vec::new(), 0);
            for _ in 0..6 {
                for op in random_ops(&mut rng, n, 12 * n, &mut in_flight, &mut sent) {
                    match op {
                        Op::Cp(i) => {
                            core.append_checkpoint(p(i));
                            journaled.append_checkpoint(p(i));
                        }
                        Op::Send(from, to) => {
                            core.append_send(p(from), p(to));
                            journaled.append_send(p(from), p(to));
                        }
                        Op::Del(k) => {
                            core.append_deliver(k as u32);
                            journaled.append_deliver(k as u32);
                        }
                    }
                }
                if rng.below(2) == 0 {
                    core.compact_to_recovery_line();
                }
                assert_dirty_runs_are_the_full_scan(&mut core, &mut rng, 4 * n, |e, u, v| {
                    e.insert_r_edge(u, v)
                });
                assert_dirty_runs_are_the_full_scan(&mut journaled, &mut rng, 4 * n, insert_and_rewind);
            }
        }

        /// ROADMAP 5(c): a rewind leaves the engine bit-equal to a fresh
        /// engine fed the prefix — the certifier's engine, and the core with
        /// the journal alone.
        fn rewind_is_bit_equal_to_a_fresh_replay(
            seed in 1u64..1_000_000,
            n in 2usize..5,
            pre in 8usize..48,
            branch in 4usize..32,
        ) {
            let mut rng = Rng(seed | 1);
            let (mut in_flight, mut sent) = (Vec::new(), 0);
            let head = random_ops(&mut rng, n, pre + pre / 2, &mut in_flight, &mut sent);
            let detour = random_ops(&mut rng, n, branch, &mut in_flight, &mut sent);
            let ops = [&head[..], &detour];
            assert_rewind_is_a_fresh_replay::<Chains>(n, ops);
            assert_rewind_is_a_fresh_replay::<NoChains>(n, ops);
        }
    }
}
