//! The chain layer of [`IncrementalAnalysis`]: the zigzag and causal
//! message-chain closures, for the readers that compare the paper's three
//! visible characterizations. The chain graphs are the compressed O(M + C)
//! constructions of the batch [`ZigzagReachability`](crate::ZigzagReachability)
//! (per-interval slot spines for zigzag links, per-process send spines for
//! causal links), so closure work stays proportional to new reachability,
//! not to the O(M²) direct link count.

use rdt_json::{JsonReader, JsonWriter};

use super::compaction::{rebuild_matrix, remap_kept};
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
    /// The chain half of a state-discarding `compact_to` at watermark `w`;
    /// returns the zigzag and causal nodes dropped.
    #[doc(hidden)]
    fn on_compact(&mut self, _w: &[u32], _msgs: &[MsgRec]) -> (usize, usize) {
        (0, 0)
    }
    /// Rewinds one journal entry: the chain entries, and the chain side of
    /// `Send` / `Deliver` (`msgs` as the core has already rewound it).
    #[doc(hidden)]
    fn undo(&mut self, _entry: Undo, _msgs: &[MsgRec]) {}
    #[doc(hidden)]
    fn resident_nodes(&self) -> usize {
        0
    }
    /// Writes the layer's tables as the snapshot document's `chains`
    /// member; the absent layer writes nothing.
    #[doc(hidden)]
    fn write_snapshot(&self, _: &mut JsonWriter<'_>) {}
    /// Reads the value of the snapshot document's `chains` key. The absent
    /// layer skips it and keeps nothing (a stray `chains` key, like the
    /// chain tables of a version 1 snapshot, is any unknown key): nothing
    /// in a chain-free engine indexes through them.
    #[doc(hidden)]
    fn read_snapshot(r: &mut JsonReader<'_>) -> Result<Option<ChainTables>, SnapshotError> {
        r.skip_value()?;
        Ok(None)
    }
    /// Builds the layer from what `read_snapshot` kept, for an engine of
    /// `n` processes and `msgs` messages.
    #[doc(hidden)]
    fn restore(_: Option<ChainTables>, n: usize, _msgs: usize) -> Result<Self, SnapshotError> {
        Ok(Self::new(n))
    }
}

/// The absent chain layer: an engine that tracks the R-graph core only.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoChains;

impl ChainLayer for NoChains {
    fn new(_: usize) -> Self {
        NoChains
    }
}

/// Chain-closure nodes of one message, [`NONE_U32`] where absent: its node
/// in the zigzag closure and in the causal closure (both set at delivery,
/// absent again once compaction drops the node), then the causal
/// send-spine node allocated for its send (dropped only after delivery).
pub(super) type ChainRec = [u32; 3];
const ZNODE: usize = 0;
const CNODE: usize = 1;
const SPINE: usize = 2;

/// The zigzag and causal chain closures over delivered messages.
#[derive(Debug)]
pub struct Chains {
    pub(super) zmat: ClosureMatrix,
    /// Zigzag interval-slot nodes per process: `z_slots[p][k]` is the slot
    /// of interval `slot_base[p] + k`.
    pub(super) z_slots: Vec<Vec<u32>>,
    /// First retained zigzag interval slot per process.
    pub(super) slot_base: Vec<u32>,
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
    /// chained in increasing order (dense from `slot_base[p]` once
    /// compaction has dropped a prefix).
    fn ensure_slots<J: Journal>(&mut self, j: &mut J, p: usize, upto: u32) {
        debug_assert!(
            upto >= self.slot_base[p],
            "slot {upto} of process {p} was compacted away"
        );
        while self.slot_base[p] as usize + self.z_slots[p].len() <= upto as usize {
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
            zmat: ClosureMatrix::new(),
            z_slots: vec![Vec::new(); n],
            slot_base: vec![0; n],
            cmat: ClosureMatrix::new(),
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
        debug_assert!(
            iv >= self.slot_base[ti] && m.send_iv >= self.slot_base[fi],
            "the compaction watermark never outruns live intervals"
        );
        let deliver_slot = self.z_slots[ti][(iv - self.slot_base[ti]) as usize] as usize;
        self.zmat.insert_edge(MAT_Z, j, z, deliver_slot);
        let send_slot = self.z_slots[fi][(m.send_iv - self.slot_base[fi]) as usize] as usize;
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

    /// Chain *nodes* are kept exactly for messages sent strictly above the
    /// watermark: consistency then keeps every message of a retained-headed
    /// chain (and of its doubling siblings) strictly live, which is what
    /// makes live-headed chain queries exact. Beside them stays what later
    /// appends link to: interval slots down to the earliest in-transit send
    /// (its delivery links its send slot), per process the last send spine
    /// and the still-unlinked deliveries (the next send chains from the one
    /// and links the others), and the spine of every in-transit message.
    fn on_compact(&mut self, w: &[u32], msgs: &[MsgRec]) -> (usize, usize) {
        let in_transit = |m: &&MsgRec| m.deliver_iv == NONE_U32;
        let mut sf: Vec<u32> = w.iter().map(|&x| x + 1).collect();
        for m in msgs.iter().filter(in_transit) {
            sf[m.from as usize] = sf[m.from as usize].min(m.send_iv);
        }
        for (p, &floor) in sf.iter().enumerate() {
            let slots = self.z_slots[p].len();
            let skip = ((floor - self.slot_base[p]) as usize).min(slots);
            self.z_slots[p].drain(..skip);
            self.slot_base[p] += skip as u32;
            let spines = self.c_spine[p].len();
            self.c_spine[p].drain(..spines.saturating_sub(1));
            self.c_delivs[p].drain(..self.c_linked[p] as usize);
            self.c_linked[p] = 0;
        }
        let mut keep_z = vec![false; self.zmat.nodes];
        let mut keep_c = vec![false; self.cmat.nodes];
        for &slot in self.z_slots.iter().flatten() {
            keep_z[slot as usize] = true;
        }
        for &node in self.c_spine.iter().chain(&self.c_delivs).flatten() {
            keep_c[node as usize] = true;
        }
        for (m, rec) in msgs.iter().zip(&self.recs) {
            if m.send_iv > w[m.from as usize] {
                for (keep, node) in [(&mut keep_z, rec[ZNODE]), (&mut keep_c, rec[CNODE])] {
                    if node != NONE_U32 {
                        keep[node as usize] = true;
                    }
                }
            }
            if in_transit(&m) {
                keep_c[rec[SPINE] as usize] = true;
            }
        }
        let (z_remap, new_z_nodes) = remap_kept(keep_z.into_iter());
        let (c_remap, new_c_nodes) = remap_kept(keep_c.into_iter());
        let dropped = (self.zmat.nodes - new_z_nodes, self.cmat.nodes - new_c_nodes);
        self.zmat = rebuild_matrix(&self.zmat, &z_remap, new_z_nodes);
        self.cmat = rebuild_matrix(&self.cmat, &c_remap, new_c_nodes);

        let slots = self.z_slots.iter_mut().flatten().map(|s| (s, &z_remap));
        let spines = self.c_spine.iter_mut().chain(&mut self.c_delivs).flatten();
        let recs = self
            .recs
            .iter_mut()
            .flat_map(|rec| rec.iter_mut().zip([&z_remap, &c_remap, &c_remap]));
        for (node, remap) in slots.chain(spines.map(|c| (c, &c_remap))).chain(recs) {
            if *node != NONE_U32 {
                *node = remap[*node as usize];
            }
        }
        dropped
    }

    fn undo(&mut self, entry: Undo, msgs: &[MsgRec]) {
        match entry {
            Undo::Word(at, word, old) => {
                let mat = if Undo::mat_of(at) == MAT_Z {
                    &mut self.zmat
                } else {
                    &mut self.cmat
                };
                mat.undo_word(at, word, old);
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

    fn resident_nodes(&self) -> usize {
        self.zmat.nodes + self.cmat.nodes
    }

    fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        snapshot::write_chains(w, self);
    }

    fn read_snapshot(r: &mut JsonReader<'_>) -> Result<Option<ChainTables>, SnapshotError> {
        snapshot::read_chains(r).map(Some)
    }

    fn restore(t: Option<ChainTables>, n: usize, msgs: usize) -> Result<Self, SnapshotError> {
        snapshot::chains_from_tables(t, n, msgs)
    }
}

/// Entries of `send_events[p]` / `deliver_events[p]` with interval
/// exactly `x`.
fn interval_range(events: &[(u32, u32)], x: u32) -> &[(u32, u32)] {
    let lo = events.partition_point(|&(iv, _)| iv < x);
    let hi = events.partition_point(|&(iv, _)| iv <= x);
    &events[lo..hi]
}

/// Same-process forward dependencies need no doubling (Definition 3.3's
/// first disjunct).
fn trivially_trackable(from: CheckpointId, to: CheckpointId) -> bool {
    from.process == to.process && from.index <= to.index
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

    /// Message pairs `(a, b)` whose chain nodes both exist, with the nodes.
    fn delivered(&self, causal: bool) -> impl Iterator<Item = (usize, &MsgRec, usize)> + '_ {
        let nodes = (0..self.msgs.len()).map(move |mid| self.chain_node(causal, mid as u32));
        (self.msgs.iter().zip(nodes).enumerate())
            .filter(|(_, (_, node))| *node != NONE_U32)
            .map(|(mid, (m, node))| (mid, m, node as usize))
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
        let width = self.chain_mat(causal).width;
        let (mut stack, mut heap) = ([0u64; MASK_STACK_WORDS], Vec::new());
        let mask = if width <= MASK_STACK_WORDS {
            &mut stack[..width]
        } else {
            heap.resize(width, 0);
            &mut heap[..]
        };
        let hi = self.deliver_events[p].partition_point(|&(iv, _)| iv <= y);
        for &(_, mid) in &self.deliver_events[p][..hi] {
            // Compaction-dropped chain nodes: unreachable from any send
            // above the chain floor, so skipping them keeps live-headed
            // queries exact.
            let node = self.chain_node(causal, mid);
            if node != NONE_U32 {
                bits::set(mask, node as usize);
            }
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
        let sends = interval_range(&self.send_events[from.process.index()], from.index);
        let delivers = interval_range(&self.deliver_events[to.process.index()], to.index);
        let mat = self.chain_mat(causal);
        sends.iter().any(|&(_, a)| {
            let na = self.chain_node(causal, a);
            na != NONE_U32
                && delivers.iter().any(|&(_, b)| {
                    let nb = self.chain_node(causal, b);
                    nb != NONE_U32 && mat.bit(false, na as usize, nb as usize)
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
        let lo = self.send_events[p].partition_point(|&(iv, _)| iv < x);
        let mat = self.chain_mat(causal);
        self.send_events[p][lo..].iter().any(|&(_, mid)| {
            let node = self.chain_node(causal, mid);
            node != NONE_U32 && bits::intersects(mat.row(false, node as usize), mask)
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
        na != NONE_U32
            && nb != NONE_U32
            && self.chain_mat(causal).bit(false, na as usize, nb as usize)
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
        // Deduplicated by linear scan: patterns at certifiable scopes
        // yield a handful of distinct endpoint pairs at most.
        let mut checked: Vec<(CheckpointId, CheckpointId)> = Vec::new();
        for (_, a, za) in self.delivered(false) {
            let from = CheckpointId::new(ProcessId::new(a.from as usize), a.send_iv);
            for (_, b, zb) in self.delivered(false) {
                if !self.chains.zmat.bit(false, za, zb) {
                    continue;
                }
                let to = CheckpointId::new(ProcessId::new(b.to as usize), b.deliver_iv);
                if trivially_trackable(from, to) || checked.contains(&(from, to)) {
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

    /// Characterization (3): every CM-path (causal prefix plus one zigzag
    /// link) is doubled. Identical verdict to
    /// [`characterization::all_cm_paths_doubled`]
    /// (crate::characterization::all_cm_paths_doubled).
    ///
    /// After a [`compact_to`](IncrementalAnalysis::compact_to) the
    /// verdict covers the CM-paths over retained messages only, like
    /// [`all_chains_doubled`](IncrementalAnalysis::all_chains_doubled).
    pub fn all_cm_paths_doubled(&self) -> bool {
        for (mid, junction, cj) in self.delivered(true) {
            for (b, tail, _) in self.delivered(true) {
                // One zigzag link junction -> tail.
                if mid == b || junction.to != tail.from || junction.deliver_iv > tail.send_iv {
                    continue;
                }
                let to = CheckpointId::new(ProcessId::new(tail.to as usize), tail.deliver_iv);
                let doubled = self.with_deliver_mask(true, to.process.index(), to.index, |mask| {
                    self.delivered(true).all(|(_, head, ch)| {
                        let from =
                            CheckpointId::new(ProcessId::new(head.from as usize), head.send_iv);
                        !self.chains.cmat.bit(false, ch, cj)
                            || trivially_trackable(from, to)
                            || self.any_send_row_intersects(
                                true,
                                head.from as usize,
                                from.index,
                                mask,
                            )
                    })
                });
                if !doubled {
                    return false;
                }
            }
        }
        true
    }

    /// Per-process chain-layer retention floor: chain queries are exact
    /// for heads in intervals strictly above it. The floor of the chain
    /// layer is the watermark of the last state-discarding compaction.
    pub fn chain_floors(&self) -> &[u32] {
        &self.watermark
    }
}
