//! Epoch compaction for [`IncrementalAnalysis`]: collapse the
//! recovery-line-dominated prefix of each process history to its boundary
//! intervals and reclaim the interior closure rows.
//!
//! # Why domination makes this sound
//!
//! The watermark of every compaction is a **consistent global
//! checkpoint** (the caller's caps are first descended through
//! [`max_consistent_dominated_into`]
//! (IncrementalAnalysis::max_consistent_dominated_into)). Consistency is
//! exactly the no-orphan property: no message is sent above the watermark
//! and delivered below it. Two structural facts follow.
//!
//! * **Dropped rows are frozen.** Every future R-edge targets a
//!   checkpoint closing a live delivery interval, which consistency
//!   places above the watermark — so checkpoints below the retention
//!   floor can never gain another edge, in or out, and their closure rows
//!   are dead weight. The floor keeps the *boundary* checkpoints alive:
//!   senders of messages whose delivery interval is still unclosed, which
//!   are precisely the nodes a pending Rule 2 edge can still name.
//! * **Dropped reach is summarizable.** A dropped checkpoint can still
//!   head *new* untrackable pairs (its R-paths extend through retained
//!   nodes), but its reach set per process is downward closed along
//!   Rule 1 chains, so one index per (retained node, process) — the
//!   `drop_reach` table — reproduces the exact count of new untrackable
//!   pairs with compacted-away sources, and the exact answers of the
//!   R-graph global-checkpoint oracle below the base.
//!
//! The message table itself is never dropped (records are plain
//! integers, and external message handles must stay stable), which keeps
//! the fixpoint-based consistency oracles exact over the *entire*
//! history. Only the quadratic state — closure and transpose rows, TDV
//! snapshots of delivered messages — is reclaimed.
//!
//! Chain-layer nodes are retained for every message sent strictly above
//! the watermark; interval slots additionally reach down to the earliest
//! in-transit send so late deliveries can still link their send slot.
//! Consistency makes every message of a chain headed above the watermark
//! — and of its doubling siblings — live, so chain queries and the
//! doubling characterizations remain exact for heads above the chain
//! floor (the watermark). Chains headed at or below it are out of the
//! compacted engine's domain, as are rewinds to marks taken before the
//! compaction (a defined [`RewindError`], not a wrong answer).

use super::*;

/// What one [`compact_to`](IncrementalAnalysis::compact_to) call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionStats {
    /// The effective (consistent) watermark of this compaction.
    pub watermark: Vec<u32>,
    /// R-graph closure nodes dropped (rows + transpose rows reclaimed).
    pub dropped_r_nodes: usize,
    /// Zigzag-closure nodes dropped (message nodes and interval slots).
    pub dropped_z_nodes: usize,
    /// Causal-closure nodes dropped (message, spine and delivery nodes).
    pub dropped_c_nodes: usize,
    /// Piggyback TDV snapshot rows reclaimed from delivered messages.
    pub freed_tdv_rows: usize,
    /// Closure nodes resident after the compaction (all three matrices).
    pub resident_nodes: usize,
}

impl CompactionStats {
    /// Total closure nodes dropped by this compaction.
    pub fn dropped_nodes(&self) -> usize {
        self.dropped_r_nodes + self.dropped_z_nodes + self.dropped_c_nodes
    }

    /// Whether the compaction discarded any state (and therefore bumped
    /// the epoch and invalidated earlier [`Mark`]s).
    pub fn discarded_state(&self) -> bool {
        self.dropped_nodes() > 0 || self.freed_tdv_rows > 0
    }
}

/// Rebuilds a closure matrix keeping only the nodes with a remap entry,
/// masking every retained row to the retained columns.
fn rebuild_matrix(mat: &ClosureMatrix, remap: &[u32], new_nodes: usize) -> ClosureMatrix {
    let width = bits::words_for(new_nodes).max(1).next_power_of_two();
    let mut fwd = vec![0u64; new_nodes * width];
    let mut bwd = vec![0u64; new_nodes * width];
    for (old, &nid) in remap.iter().enumerate() {
        if nid == NONE_U32 {
            continue;
        }
        let nid = nid as usize;
        for (slab, dir) in [(&mut fwd, false), (&mut bwd, true)] {
            for v in bits::ones(mat.row(dir, old)) {
                let nv = remap[v];
                if nv != NONE_U32 {
                    bits::set(&mut slab[nid * width..][..width], nv as usize);
                }
            }
        }
    }
    ClosureMatrix {
        nodes: new_nodes,
        width,
        fwd,
        bwd,
    }
}

impl IncrementalAnalysis {
    /// Compacts everything dominated by the consistent watermark derived
    /// from `caps`: the effective watermark is
    /// [`max_consistent_dominated`]
    /// (IncrementalAnalysis::max_consistent_dominated) of `caps` joined
    /// with the previous watermark (compaction never moves backwards),
    /// clamped to the taken checkpoints.
    ///
    /// Exact afterwards, over the whole history:
    /// [`untrackable_pairs`](IncrementalAnalysis::untrackable_pairs),
    /// [`rdt_holds`](IncrementalAnalysis::rdt_holds), the consistency
    /// oracles ([`min_consistent_containing`]
    /// (IncrementalAnalysis::min_consistent_containing),
    /// [`max_consistent_containing`]
    /// (IncrementalAnalysis::max_consistent_containing),
    /// [`max_consistent_dominated`]
    /// (IncrementalAnalysis::max_consistent_dominated)), and
    /// [`message_route`](IncrementalAnalysis::message_route). Exact on
    /// the live suffix: [`reaches`](IncrementalAnalysis::reaches) and
    /// [`min_consistent_via_rgraph`]
    /// (IncrementalAnalysis::min_consistent_via_rgraph) for retained
    /// members, chain queries for heads above the chain floor, and
    /// [`with_closed`](IncrementalAnalysis::with_closed) over all of
    /// those. Marks taken before a state-discarding compaction become
    /// invalid: [`try_rewind`](IncrementalAnalysis::try_rewind) reports
    /// [`RewindError::CompactionBoundary`].
    ///
    /// Returns what was reclaimed. When nothing is dominated (or
    /// everything dominated is already compacted) the engine — journal,
    /// marks and epoch included — is untouched and the stats report zero
    /// drops.
    ///
    /// # Panics
    ///
    /// Panics if `caps` has a length other than the process count.
    pub fn compact_to(&mut self, caps: &[u32]) -> CompactionStats {
        assert_eq!(caps.len(), self.n, "caps length");
        let n = self.n;

        // Effective watermark: consistent, monotone, within the pattern.
        let mut w = vec![0u32; n];
        let clamp: Vec<u32> = (0..n)
            .map(|p| caps[p].max(self.watermark[p]).min(self.cp_count[p]))
            .collect();
        self.max_consistent_dominated_into(&clamp, &mut w);

        // Retention floors. `rb[p]`: first R-node kept — no pending
        // Rule 2 edge may name a checkpoint below it. `sf[p]`: first
        // zigzag interval slot kept — in-transit sends pull it below
        // `w[p] + 1` so their future delivery can link its send slot.
        // Chain *nodes* are kept exactly for messages sent strictly
        // above the watermark: consistency then keeps every message of a
        // retained-headed chain (and of its doubling siblings) strictly
        // live, which is what makes live-headed chain queries exact.
        let mut rb = w.clone();
        let mut sf: Vec<u32> = w.iter().map(|&x| x + 1).collect();
        for m in &self.msgs {
            let from = m.from as usize;
            let unclosed_delivery =
                m.deliver_iv == NONE_U32 || m.deliver_iv > self.cp_count[m.to as usize];
            if unclosed_delivery && m.send_iv < rb[from] {
                rb[from] = m.send_iv;
            }
            if m.deliver_iv == NONE_U32 && m.send_iv < sf[from] {
                sf[from] = m.send_iv;
            }
        }
        for p in 0..n {
            debug_assert!(rb[p] >= self.cp_base[p], "retention floor went backwards");
            debug_assert!(w[p] >= self.chain_floor[p], "chain floor went backwards");
        }

        // ---- retained-node remaps --------------------------------------
        let r_remap: Vec<u32> = {
            let mut next = 0u32;
            self.r_meta
                .iter()
                .map(|&(p, idx)| {
                    if idx >= rb[p as usize] {
                        next += 1;
                        next - 1
                    } else {
                        NONE_U32
                    }
                })
                .collect()
        };
        let new_r_nodes = self.rmat.nodes - r_remap.iter().filter(|&&x| x == NONE_U32).count();

        let new_slot_base: Vec<u32> = (0..n)
            .map(|p| sf[p].min(self.slot_base[p] + self.z_slots[p].len() as u32))
            .collect();
        let mut keep_z = vec![false; self.zmat.nodes];
        for (p, slots) in self.z_slots.iter().enumerate().take(n) {
            for (k, &s) in slots.iter().enumerate() {
                if self.slot_base[p] + k as u32 >= new_slot_base[p] {
                    keep_z[s as usize] = true;
                }
            }
        }
        let chain_kept = |m: &MsgRec| m.send_iv > w[m.from as usize];
        for m in &self.msgs {
            if m.znode != NONE_U32 && chain_kept(m) {
                keep_z[m.znode as usize] = true;
            }
        }

        let mut keep_c = vec![false; self.cmat.nodes];
        for m in &self.msgs {
            if m.cnode != NONE_U32 && chain_kept(m) {
                keep_c[m.cnode as usize] = true;
            }
            // In-transit messages link their spine to the delivery node
            // when they eventually arrive.
            if m.deliver_iv == NONE_U32 && m.spine != NONE_U32 {
                keep_c[m.spine as usize] = true;
            }
        }
        for p in 0..n {
            // The next send of `p` chains from the last spine and links
            // every still-unlinked delivery.
            if let Some(&last) = self.c_spine[p].last() {
                keep_c[last as usize] = true;
            }
            for &cn in &self.c_delivs[p][self.c_linked[p] as usize..] {
                keep_c[cn as usize] = true;
            }
        }

        let to_remap = |keep: &[bool]| {
            let mut next = 0u32;
            keep.iter()
                .map(|&k| {
                    if k {
                        next += 1;
                        next - 1
                    } else {
                        NONE_U32
                    }
                })
                .collect::<Vec<u32>>()
        };
        let z_remap = to_remap(&keep_z);
        let c_remap = to_remap(&keep_c);
        let new_z_nodes = keep_z.iter().filter(|&&k| k).count();
        let new_c_nodes = keep_c.iter().filter(|&&k| k).count();

        let freed_tdv_rows = self.msg_tdv.len() / n
            - self
                .msgs
                .iter()
                .filter(|m| m.deliver_iv == NONE_U32)
                .count();

        let stats = CompactionStats {
            watermark: w.clone(),
            dropped_r_nodes: self.rmat.nodes - new_r_nodes,
            dropped_z_nodes: self.zmat.nodes - new_z_nodes,
            dropped_c_nodes: self.cmat.nodes - new_c_nodes,
            freed_tdv_rows,
            resident_nodes: new_r_nodes + new_z_nodes + new_c_nodes,
        };
        if !stats.discarded_state() {
            // Nothing to reclaim: leave journal and marks valid.
            self.watermark = w;
            return stats;
        }

        // ---- dropped-reach summaries (before the rows disappear) -------
        let had_dr = !self.drop_reach.is_empty();
        let mut new_dr = vec![NONE_U32; new_r_nodes * n];
        for (old, &nid) in r_remap.iter().enumerate() {
            if nid != NONE_U32 && had_dr {
                let (src, dst) = (old * n, nid as usize * n);
                new_dr[dst..dst + n].copy_from_slice(&self.drop_reach[src..src + n]);
            }
        }
        for old in 0..self.rmat.nodes {
            if r_remap[old] != NONE_U32 {
                continue;
            }
            let (p, idx) = self.r_meta[old];
            for y in bits::ones(self.rmat.row(false, old)) {
                let ny = r_remap[y];
                if ny == NONE_U32 {
                    continue;
                }
                let row = ny as usize * n;
                let slot = &mut new_dr[row + p as usize];
                if *slot == NONE_U32 || idx > *slot {
                    *slot = idx;
                }
                if had_dr {
                    // Checkpoints dropped by *earlier* compactions that
                    // reached this node keep reaching its successors.
                    for k in 0..n {
                        let d = self.drop_reach[old * n + k];
                        let slot = &mut new_dr[row + k];
                        if d != NONE_U32 && (*slot == NONE_U32 || d > *slot) {
                            *slot = d;
                        }
                    }
                }
            }
        }

        // ---- rebuild ---------------------------------------------------
        self.rmat = rebuild_matrix(&self.rmat, &r_remap, new_r_nodes);
        self.zmat = rebuild_matrix(&self.zmat, &z_remap, new_z_nodes);
        self.cmat = rebuild_matrix(&self.cmat, &c_remap, new_c_nodes);
        self.drop_reach = new_dr;

        let mut new_meta = Vec::with_capacity(new_r_nodes);
        let mut new_cp_tdv = Vec::with_capacity(new_r_nodes * n);
        for (old, &nid) in r_remap.iter().enumerate() {
            if nid == NONE_U32 {
                continue;
            }
            debug_assert_eq!(new_meta.len(), nid as usize, "remap preserves order");
            new_meta.push(self.r_meta[old]);
            new_cp_tdv.extend_from_slice(&self.cp_tdv[old * n..(old + 1) * n]);
        }
        self.r_meta = new_meta;
        self.cp_tdv = new_cp_tdv;

        for p in 0..n {
            let skip = (rb[p] - self.cp_base[p]) as usize;
            self.cp_nodes[p] = self.cp_nodes[p][skip..]
                .iter()
                .map(|&node| r_remap[node as usize])
                .collect();
            let skip = (new_slot_base[p] - self.slot_base[p]) as usize;
            self.z_slots[p] = self.z_slots[p][skip.min(self.z_slots[p].len())..]
                .iter()
                .map(|&s| z_remap[s as usize])
                .collect();
            self.c_spine[p] = self.c_spine[p]
                .last()
                .map(|&s| c_remap[s as usize])
                .into_iter()
                .collect();
            self.c_delivs[p] = self.c_delivs[p][self.c_linked[p] as usize..]
                .iter()
                .map(|&cn| c_remap[cn as usize])
                .collect();
            self.c_linked[p] = 0;
        }
        self.cp_base = rb;
        self.slot_base = new_slot_base;
        self.chain_floor = w.clone();

        let mut new_msg_tdv = Vec::new();
        for m in &mut self.msgs {
            if m.deliver_iv == NONE_U32 {
                let src = m.tdv_row as usize * n;
                let row = (new_msg_tdv.len() / n) as u32;
                new_msg_tdv.extend_from_slice(&self.msg_tdv[src..src + n]);
                m.tdv_row = row;
                m.spine = c_remap[m.spine as usize];
                debug_assert!(m.spine != NONE_U32, "in-transit spine retained");
            } else {
                m.tdv_row = NONE_U32;
                m.znode = if m.znode == NONE_U32 {
                    NONE_U32
                } else {
                    z_remap[m.znode as usize]
                };
                m.cnode = if m.cnode == NONE_U32 {
                    NONE_U32
                } else {
                    c_remap[m.cnode as usize]
                };
                m.spine = if m.spine == NONE_U32 {
                    NONE_U32
                } else {
                    c_remap[m.spine as usize]
                };
            }
        }
        self.msg_tdv = new_msg_tdv;

        // The journal below this point is gone; marks from earlier
        // epochs fail with a defined error instead of corrupting state.
        self.journal.clear();
        self.epoch += 1;
        self.watermark = w;
        self.compactions += 1;
        self.reclaimed_rows += stats.dropped_nodes() as u64;
        stats
    }

    /// Compacts to the engine's own recovery line: the greatest
    /// consistent global checkpoint of the current pattern
    /// ([`compact_to`](IncrementalAnalysis::compact_to) with the last
    /// checkpoint of every process as caps).
    pub fn compact_to_recovery_line(&mut self) -> CompactionStats {
        let caps = self.cp_count.clone();
        self.compact_to(&caps)
    }

    // ---------------------------------------------- compaction stats ----

    /// The compaction epoch: 0 until the first state-discarding
    /// compaction, bumped by each one. [`Mark`]s carry the epoch they
    /// were taken in.
    pub fn compaction_epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of state-discarding compactions so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Total closure rows reclaimed across all compactions.
    pub fn reclaimed_rows(&self) -> u64 {
        self.reclaimed_rows
    }

    /// Closure nodes currently resident across the three matrices — the
    /// quadratic part of the engine's footprint.
    pub fn resident_closure_nodes(&self) -> usize {
        self.rmat.nodes + self.zmat.nodes + self.cmat.nodes
    }

    /// The consistent watermark of the last compaction (all zeros before
    /// the first).
    pub fn compaction_watermark(&self) -> &[u32] {
        &self.watermark
    }

    /// Per-process chain-layer retention floor: chain queries are exact
    /// for heads in intervals strictly above it.
    pub fn chain_floors(&self) -> &[u32] {
        &self.chain_floor
    }

    /// First retained checkpoint index per process ([`reaches`]
    /// (IncrementalAnalysis::reaches) and R-graph oracles accept members
    /// at or above it).
    pub fn retained_from(&self) -> &[u32] {
        &self.cp_base
    }
}
