//! The chain layer of [`IncrementalAnalysis`]: the zigzag and causal
//! message-chain closures of characterization 2 and the chain queries (the
//! core's `TDV`s decide characterization 3). The chain graphs are the
//! compressed O(M + C) constructions of the batch
//! [`ZigzagReachability`](crate::ZigzagReachability) (per-interval slot
//! spines for zigzag links, per-process send spines for causal links), so
//! closure work stays proportional to new reachability, not to the O(M²)
//! direct link count.
//!
//! The layer never compacts: compaction is the bare core's alone
//! (`compaction.rs`, on `IncrementalAnalysis<NoChains, NoJournal>`), and
//! the one reader of the chain closures, the certifier, never compacts.
//! Every delivered message keeps its chain nodes for the life of the
//! engine.

use super::*;

/// The chain layer: what the engine maintains per message beside the
/// R-graph core. Implemented by [`NoChains`] and [`Chains`] only; the
/// default hook bodies are the absent layer's.
pub trait ChainLayer: Sized + std::fmt::Debug {
    #[doc(hidden)]
    fn new(n: usize) -> Self;
    /// A send by `from` was appended (its handle is the last one).
    #[doc(hidden)]
    fn on_send<J: Journal>(&mut self, _: &mut J, _from: usize) {}
    /// `mid` (record `m`, as it was in transit) was delivered in interval
    /// `iv` of its destination.
    #[doc(hidden)]
    fn on_deliver<J: Journal>(&mut self, _: &mut J, _mid: u32, _m: &MsgRec, _iv: u32) {}
    /// Rewinds one journal entry: the chain entries, and the chain side of
    /// `Send` / `Deliver` (`msgs` as the core has already rewound it).
    #[doc(hidden)]
    fn undo(&mut self, _entry: Undo, _msgs: &[MsgRec]) {}
}

/// The absent chain layer: an engine that tracks the R-graph core only.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoChains;

impl ChainLayer for NoChains {
    fn new(_: usize) -> Self {
        NoChains
    }
}

/// A chain closure held with its transpose twin: `fwd[u]` holds the
/// successors of `u` (reflexively), `bwd[v]` the predecessors of `v`. A
/// message has no reach vector to read its dirty predecessors off, as an
/// R-graph node has, so the transpose gives them.
#[derive(Debug, Clone, Default)]
pub(super) struct ClosureMatrix {
    pub(super) fwd: BitSlab,
    pub(super) bwd: BitSlab,
    // The dirty sets of the last inserted edge, reused across insertions.
    pub(super) dpred: Vec<u64>,
    pub(super) dsucc: Vec<u64>,
}

impl ClosureMatrix {
    pub(super) fn push_node(&mut self) -> usize {
        self.bwd.push_node();
        self.fwd.push_node()
    }

    fn pop_node(&mut self) {
        self.fwd.pop_node();
        self.bwd.pop_node();
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
    /// each changed word journaled, rows and words ascending. Returns whether
    /// the edge was new.
    pub(super) fn insert_edge<J: Journal>(
        &mut self,
        mat_id: u8,
        journal: &mut J,
        u: usize,
        v: usize,
    ) -> bool {
        if self.fwd.bit(u, v) {
            return false;
        }
        debug_assert!(
            self.bwd.bit(u, u) && self.fwd.bit(v, v),
            "closure rows are reflexive"
        );
        let (dpred, dsucc) = (&mut self.dpred, &mut self.dsucc);
        self.bwd.minus_into(u, v, dpred);
        self.fwd.minus_into(v, u, dsucc);
        self.fwd
            .or_into_rows(mat_id * 2, journal, bits::ones(dpred), dsucc);
        self.bwd
            .or_into_rows(mat_id * 2 + 1, journal, bits::ones(dsucc), dpred);
        true
    }
}

/// Chain-closure nodes of one message, [`NONE_U32`] where absent: its node
/// in the zigzag closure and in the causal closure (both set at delivery),
/// then the causal send-spine node allocated for its send.
pub(super) type ChainRec = [u32; 3];
const ZNODE: usize = 0;
const CNODE: usize = 1;
const SPINE: usize = 2;

/// The zigzag and causal chain closures over delivered messages.
#[derive(Debug)]
pub struct Chains {
    pub(super) zmat: ClosureMatrix,
    /// Zigzag interval-slot nodes per process: `z_slots[p][k]` is the slot
    /// of interval `k`.
    pub(super) z_slots: Vec<Vec<u32>>,
    pub(super) cmat: ClosureMatrix,
    /// Causal send-spine nodes per process, in send order.
    pub(super) c_spine: Vec<Vec<u32>>,
    /// Causal nodes of messages delivered at each process, delivery order.
    pub(super) c_delivs: Vec<Vec<u32>>,
    /// How many of `c_delivs[p]` are already linked to a later send spine.
    pub(super) c_linked: Vec<u32>,
    /// Per message, parallel to the core's message table.
    pub(super) recs: Vec<ChainRec>,
}

impl Chains {
    /// Dense zigzag interval slots for process `p` up to interval `upto`,
    /// chained in increasing order.
    fn ensure_slots<J: Journal>(&mut self, j: &mut J, p: usize, upto: u32) {
        while self.z_slots[p].len() <= upto as usize {
            let slot = self.zmat.push_node();
            j.record(Undo::ZSlot { p: p as u32 });
            if let Some(&prev) = self.z_slots[p].last() {
                self.zmat.insert_edge(MAT_Z, j, prev as usize, slot);
            }
            self.z_slots[p].push(slot as u32);
        }
    }
}

impl ChainLayer for Chains {
    fn new(n: usize) -> Self {
        Chains {
            zmat: ClosureMatrix::default(),
            z_slots: vec![Vec::new(); n],
            cmat: ClosureMatrix::default(),
            c_spine: vec![Vec::new(); n],
            c_delivs: vec![Vec::new(); n],
            c_linked: vec![0; n],
            recs: Vec::new(),
        }
    }

    /// Causal send spine: chain from the previous send of `from`, and link
    /// every delivery at `from` that happened since.
    fn on_send<J: Journal>(&mut self, j: &mut J, fi: usize) {
        let spine = self.cmat.push_node();
        if let Some(&prev) = self.c_spine[fi].last() {
            self.cmat.insert_edge(MAT_C, j, prev as usize, spine);
        }
        self.c_spine[fi].push(spine as u32);
        let linked = self.c_linked[fi] as usize;
        let total = self.c_delivs[fi].len();
        if linked < total {
            j.record(Undo::CLinked {
                p: fi as u32,
                old: self.c_linked[fi],
            });
            self.c_linked[fi] = total as u32;
            for i in linked..total {
                let cn = self.c_delivs[fi][i] as usize;
                self.cmat.insert_edge(MAT_C, j, cn, spine);
            }
        }
        self.recs.push([NONE_U32, NONE_U32, spine as u32]);
    }

    fn on_deliver<J: Journal>(&mut self, j: &mut J, mid: u32, m: &MsgRec, iv: u32) {
        let (fi, ti) = (m.from as usize, m.to as usize);
        // Zigzag closure: message node between its send-interval slot and
        // its delivery-interval slot.
        let z = self.zmat.push_node();
        self.ensure_slots(j, ti, iv);
        self.ensure_slots(j, fi, m.send_iv);
        let deliver_slot = self.z_slots[ti][iv as usize] as usize;
        self.zmat.insert_edge(MAT_Z, j, z, deliver_slot);
        let send_slot = self.z_slots[fi][m.send_iv as usize] as usize;
        self.zmat.insert_edge(MAT_Z, j, send_slot, z);

        // Causal closure: message node fed by its own send-spine node;
        // the delivery will link to the *next* send of the receiver.
        let c = self.cmat.push_node();
        let rec = &mut self.recs[mid as usize];
        (rec[ZNODE], rec[CNODE]) = (z as u32, c as u32);
        let spine = rec[SPINE] as usize;
        self.cmat.insert_edge(MAT_C, j, spine, c);
        self.c_delivs[ti].push(c as u32);
    }

    fn undo(&mut self, entry: Undo, msgs: &[MsgRec]) {
        match entry {
            Undo::Word(at, word, old) => {
                let mat = if Undo::mat_of(at) == MAT_Z {
                    &mut self.zmat
                } else {
                    &mut self.cmat
                };
                let slab = if Undo::transposed(at) {
                    &mut mat.bwd
                } else {
                    &mut mat.fwd
                };
                slab.undo_word(at, word, old);
            }
            Undo::ZSlot { p } => {
                self.z_slots[p as usize].pop();
                self.zmat.pop_node();
            }
            Undo::CLinked { p, old } => self.c_linked[p as usize] = old,
            Undo::Send { from, .. } => {
                self.recs.pop();
                self.c_spine[from as usize].pop();
                self.cmat.pop_node();
            }
            Undo::Deliver { mid, .. } => {
                let rec = &mut self.recs[mid as usize];
                (rec[ZNODE], rec[CNODE]) = (NONE_U32, NONE_U32);
                self.c_delivs[msgs[mid as usize].to as usize].pop();
                self.cmat.pop_node();
                self.zmat.pop_node();
            }
            core_entry => unreachable!("{core_entry:?} is not a chain-layer entry"),
        }
    }
}

/// The handles of `chain`'s entries in interval exactly `x`.
fn in_interval(chain: Chain<'_>, x: u32) -> impl Iterator<Item = u32> + Clone + '_ {
    let entries = chain.at_or_below(x).take_while(move |&(_, iv, _)| iv == x);
    entries.map(|(mid, _, _)| mid)
}

impl<J: Journal> IncrementalAnalysis<Chains, J> {
    /// The closure (`causal` selects `cmat` over `zmat`) and the message's
    /// node in it.
    fn chain_mat(&self, causal: bool) -> &ClosureMatrix {
        if causal {
            &self.chains.cmat
        } else {
            &self.chains.zmat
        }
    }

    fn chain_node(&self, causal: bool, mid: u32) -> u32 {
        self.chains.recs[mid as usize][if causal { CNODE } else { ZNODE }]
    }

    /// Messages whose zigzag node exists, with the node.
    fn delivered(&self) -> impl Iterator<Item = (&MsgRec, usize)> + '_ {
        let nodes = (0..self.msgs.len()).map(|mid| self.chain_node(false, mid as u32));
        (self.msgs.iter().zip(nodes))
            .filter(|(_, node)| *node != NONE_U32)
            .map(|(m, node)| (m, node as usize))
    }

    /// Runs `f` on the mask (in `zmat`/`cmat` column space, selected by
    /// `causal`) of messages delivered at `p` in an interval `≤ y`. The mask
    /// lives on the stack up to `WORD_BITS * MASK_STACK_WORDS` closure nodes,
    /// so the query hot paths stay allocation-free at certifiable scopes.
    fn with_deliver_mask<R>(
        &self,
        causal: bool,
        p: usize,
        y: u32,
        f: impl FnOnce(&[u64]) -> R,
    ) -> R {
        let width = self.chain_mat(causal).fwd.width;
        let (mut stack, mut heap) = ([0u64; MASK_STACK_WORDS], Vec::new());
        let mask = if width <= MASK_STACK_WORDS {
            &mut stack[..width]
        } else {
            heap.resize(width, 0);
            &mut heap[..]
        };
        for (mid, _, _) in self.deliveries_at(p).at_or_below(y) {
            bits::set(mask, self.chain_node(causal, mid) as usize);
        }
        f(mask)
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
        let mut sends = in_interval(self.sends_of(from.process.index()), from.index);
        let delivers = in_interval(self.deliveries_at(to.process.index()), to.index);
        let mat = self.chain_mat(causal);
        sends.any(|a| {
            let na = self.chain_node(causal, a);
            na != NONE_U32
                && delivers.clone().any(|b| {
                    let nb = self.chain_node(causal, b);
                    nb != NONE_U32 && mat.fwd.bit(na as usize, nb as usize)
                })
        })
    }

    /// Whether a causal chain from an interval `≥ from.index` (on
    /// `from.process`) to an interval `≤ to.index` (on `to.process`)
    /// exists — the relaxed *causal doubling* sufficient for
    /// trackability.
    pub fn causal_doubling_exists(&self, from: CheckpointId, to: CheckpointId) -> bool {
        self.with_deliver_mask(true, to.process.index(), to.index, |mask| {
            self.any_send_row_intersects(true, from.process.index(), from.index, mask)
        })
    }

    /// Netzer–Xu zigzag query: a Z-path leaving strictly after `a` and
    /// arriving at or before `b`.
    pub fn z_path_after_to_before(&self, a: CheckpointId, b: CheckpointId) -> bool {
        self.with_deliver_mask(false, b.process.index(), b.index, |mask| {
            self.any_send_row_intersects(false, a.process.index(), a.index + 1, mask)
        })
    }

    /// Whether `checkpoint` lies on a Z-cycle (is *useless*).
    pub fn on_z_cycle(&self, checkpoint: CheckpointId) -> bool {
        self.z_path_after_to_before(checkpoint, checkpoint)
    }

    /// Does any delivered message sent by process `p` in an interval
    /// `≥ x` have a closure row intersecting `mask`?
    fn any_send_row_intersects(&self, causal: bool, p: usize, x: u32, mask: &[u64]) -> bool {
        let mat = self.chain_mat(causal);
        let mut sends = self.sends_of(p).take_while(|&(_, iv, _)| iv >= x);
        sends.any(|(mid, _, _)| {
            let node = self.chain_node(causal, mid);
            node != NONE_U32 && bits::intersects(mat.fwd.row(node as usize), mask)
        })
    }

    /// Whether message `b` is zigzag chain-reachable from message `a`
    /// (reflexively); `false` unless both are delivered.
    pub fn zigzag_closure(&self, a: u32, b: u32) -> bool {
        self.link_closure(false, a, b)
    }

    /// Whether message `b` is causally chain-reachable from message `a`
    /// (reflexively); `false` unless both are delivered.
    pub fn causal_link_closure(&self, a: u32, b: u32) -> bool {
        self.link_closure(true, a, b)
    }

    fn link_closure(&self, causal: bool, a: u32, b: u32) -> bool {
        let (na, nb) = (self.chain_node(causal, a), self.chain_node(causal, b));
        na != NONE_U32 && nb != NONE_U32 && self.chain_mat(causal).fwd.bit(na as usize, nb as usize)
    }

    /// Characterization (2): every message chain is doubled by a causal
    /// chain. Identical verdict to
    /// [`characterization::all_chains_doubled`](crate::characterization::all_chains_doubled).
    pub fn all_chains_doubled(&self) -> bool {
        // Deduplicated by linear scan: patterns at certifiable scopes
        // yield a handful of distinct endpoint pairs at most.
        let mut checked: Vec<(CheckpointId, CheckpointId)> = Vec::new();
        for (a, za) in self.delivered() {
            let from = CheckpointId::new(ProcessId::new(a.from as usize), a.send_iv);
            for (b, zb) in self.delivered() {
                if !self.chains.zmat.fwd.bit(za, zb) {
                    continue;
                }
                let to = CheckpointId::new(ProcessId::new(b.to as usize), b.deliver_iv);
                // Same-process forward dependencies need no doubling
                // (Definition 3.3's first disjunct).
                let trivial = from.process == to.process && from.index <= to.index;
                if trivial || checked.contains(&(from, to)) {
                    continue;
                }
                checked.push((from, to));
                if !self.causal_doubling_exists(from, to) {
                    return false;
                }
            }
        }
        true
    }
}
