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
//! * **Dropped reach is already summarized.** A dropped checkpoint can
//!   still head *new* untrackable pairs (its R-paths extend through retained
//!   nodes), but its reach set per process is downward closed along Rule 1
//!   chains, so one index per (retained node, process) stands for it — and
//!   that is the `reach` table the engine keeps for every node anyway
//!   (`incremental.rs`): its entries are checkpoint *indices*, which do not
//!   care whether the node that carried the index still exists. A kept row
//!   is exact before the compaction and exact after it, for the count of
//!   new untrackable pairs with compacted-away sources and for the answers
//!   of the R-graph global-checkpoint oracle below the base alike.
//!
//! The message table itself is never dropped (records are plain
//! integers, and external message handles must stay stable), so the
//! fixpoint-based consistency oracles stay exact over the *entire*
//! history; they read it through the per-process send index
//! (`send_events`), newest send first, and so touch the sends above their
//! answer and not the table. Only the quadratic state — closure and
//! transpose rows, TDV snapshots of delivered messages — is reclaimed.
//!
//! # What a compaction costs
//!
//! Nothing here is linear in the stream's age, and nothing reads what it
//! drops. The watermark is one descent (the sends above it). The passes
//! over the message table — retention floor and in-transit count, then the
//! piggyback rebuild — start at the **settled-prefix cursor**: every message
//! below it is delivered in a closed interval and owns no piggyback row, so
//! it can neither hold the floor down, nor be in transit, nor have a row to
//! move. The cursor is a cache of what `msgs` already says, not state: each
//! state-discarding compaction advances it to the first message that is not
//! settled yet, a restore restarts it at 0 (the first compaction afterwards
//! walks the table once), and nothing is serialised for it. A rewind cannot
//! cross it because the journal is discarded at the very point it moves. A
//! `compact` that finds nothing to reclaim reads the live suffix once and
//! returns. Of the per-node tables (`reach`, `cp_tdv`, `r_meta`) the kept
//! rows close ranks, and of the closure the kept rows are renumbered
//! (`rebuild_matrix`): no row of a dropped node is read, in either
//! direction.
//!
//! What the chain layer keeps through a compaction, and why chain queries
//! stay exact for heads above the watermark, is told at its `on_compact`
//! hook. Rewinds to marks taken before a state-discarding compaction are a
//! defined [`RewindError`], not a wrong answer.

use super::*;

/// What one [`compact_to`](IncrementalAnalysis::compact_to) call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionStats {
    /// The effective (consistent) watermark of this compaction.
    pub watermark: Vec<u32>,
    /// R-graph closure nodes dropped (rows + transpose rows reclaimed).
    pub dropped_r_nodes: usize,
    /// Zigzag-closure nodes dropped (message nodes and interval slots); 0
    /// on a chain-free engine.
    pub dropped_z_nodes: usize,
    /// Causal-closure nodes dropped (message, spine and delivery nodes); 0
    /// on a chain-free engine.
    pub dropped_c_nodes: usize,
    /// Piggyback TDV snapshot rows reclaimed from delivered messages.
    pub freed_tdv_rows: usize,
    /// Closure nodes resident after the compaction (every layer's).
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

/// Numbers the kept entries densely, in order ([`NONE_U32`] for the
/// rest); returns the remap and the number kept.
pub(super) fn remap_kept(keep: impl Iterator<Item = bool>) -> (Vec<u32>, usize) {
    let mut next = 0u32;
    let number = |k| {
        next += u32::from(k);
        if k {
            next - 1
        } else {
            NONE_U32
        }
    };
    let remap = keep.map(number).collect();
    (remap, next as usize)
}

/// Rebuilds a closure matrix keeping only the nodes with a remap entry,
/// masking every retained row to the retained columns.
pub(super) fn rebuild_matrix(
    mat: &ClosureMatrix,
    remap: &[u32],
    new_nodes: usize,
) -> ClosureMatrix {
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
    ClosureMatrix::from_slabs(new_nodes, width, fwd, bwd)
}

impl<C: ChainLayer, J: Journal> IncrementalAnalysis<C, J> {
    /// Compacts everything dominated by the consistent watermark derived
    /// from `caps`: [`max_consistent_dominated`]
    /// (IncrementalAnalysis::max_consistent_dominated) of `caps` joined with
    /// the previous watermark (compaction never moves backwards), clamped to
    /// the taken checkpoints.
    ///
    /// Exact afterwards, over the whole history: `untrackable_pairs`,
    /// `rdt_holds`, the fixpoint consistency oracles
    /// (`min_`/`max_consistent_containing`, `max_consistent_dominated`) and
    /// `message_route`. Exact on the live suffix: `reaches` and
    /// `min_consistent_via_rgraph` for retained members, chain queries for
    /// heads above the chain floor, and `with_closed` over all of those.
    /// Marks taken before a state-discarding compaction become invalid:
    /// `try_rewind` reports [`RewindError::CompactionBoundary`].
    ///
    /// The core decides whether state is discarded — an R-graph node dropped
    /// or a piggyback row freed — and only then hands the watermark to the
    /// chain layer for its half, so an engine's epoch does not depend on the
    /// layers it carries. When nothing is dominated (or everything dominated
    /// is already compacted) the engine — journal, marks, epoch and watermark
    /// included — is untouched and the stats report zero drops.
    ///
    /// # Panics
    ///
    /// Panics if `caps` has a length other than the process count.
    pub fn compact_to(&mut self, caps: &[u32]) -> CompactionStats {
        assert_eq!(caps.len(), self.n, "caps length");
        // Effective watermark: consistent, monotone, within the pattern.
        let mut w: Vec<u32> = (0..self.n)
            .map(|p| caps[p].max(self.watermark[p]).min(self.cp_count[p]))
            .collect();
        descend_to_consistent(&self.msgs, &self.send_events, &mut w);
        self.compact_below(w).0
    }

    /// Compacts to the engine's own recovery line: the greatest
    /// consistent global checkpoint of the current pattern
    /// ([`compact_to`](IncrementalAnalysis::compact_to) with the last
    /// checkpoint of every process as caps).
    pub fn compact_to_recovery_line(&mut self) -> CompactionStats {
        let mut w = vec![0u32; self.n];
        self.recovery_line_into(&mut w);
        self.compact_below(w).0
    }

    /// [`compact_to`](IncrementalAnalysis::compact_to) below the consistent
    /// watermark `w` (which dominates the previous one). Also returns the
    /// number of message records its passes over the table examined: none
    /// below the settled-prefix cursor.
    pub(super) fn compact_below(&mut self, w: Vec<u32>) -> (CompactionStats, usize) {
        let n = self.n;
        let live = self.settled;

        // Retention floor `rb[p]`: first R-node kept — no pending Rule 2
        // edge may name a checkpoint below it. The same pass counts the
        // messages in transit and finds where the settled prefix will end.
        let mut rb = w.clone();
        let (mut in_transit, mut settled) = (0, self.msgs.len());
        for (i, m) in self.msgs[live..].iter().enumerate() {
            let from = m.from as usize;
            in_transit += usize::from(m.deliver_iv == NONE_U32);
            let unclosed_delivery =
                m.deliver_iv == NONE_U32 || m.deliver_iv > self.cp_count[m.to as usize];
            if unclosed_delivery {
                settled = settled.min(live + i);
                rb[from] = rb[from].min(m.send_iv);
            }
        }
        let mut examined = self.msgs.len() - live;
        debug_assert!(
            (0..n).all(|p| rb[p] >= self.cp_base[p] && w[p] >= self.watermark[p]),
            "retention floor or watermark went backwards"
        );

        let kept = self.r_meta.iter().map(|&(p, idx)| idx >= rb[p as usize]);
        let (r_remap, new_r_nodes) = remap_kept(kept);
        let mut stats = CompactionStats {
            watermark: w.clone(),
            dropped_r_nodes: self.rmat.nodes - new_r_nodes,
            dropped_z_nodes: 0,
            dropped_c_nodes: 0,
            freed_tdv_rows: self.msg_tdv.len() / n - in_transit,
            resident_nodes: self.resident_closure_nodes(),
        };
        if !stats.discarded_state() {
            // Nothing to reclaim: leave journal, marks, watermark and
            // cursor as they are (the next discarding compaction
            // recomputes them).
            return (stats, examined);
        }

        // The remap preserves order, so the retained rows of a per-node
        // table just close ranks.
        let kept = |old: &usize| r_remap[*old] != NONE_U32;
        let kept: Vec<usize> = (0..r_remap.len()).filter(kept).collect();
        let kept_rows = |table: &[u32]| -> Vec<u32> {
            let rows = kept.iter().flat_map(|&old| &table[old * n..][..n]);
            rows.copied().collect()
        };

        // A kept row of `reach` already counts the checkpoints about to be
        // dropped (it holds indices, not nodes), so the compaction reads no
        // closure row of a dropped node: only the kept ones, to renumber.
        self.rmat = rebuild_matrix(&self.rmat, &r_remap, new_r_nodes);
        self.reach = kept_rows(&self.reach);

        self.r_meta = kept.iter().map(|&old| self.r_meta[old]).collect();
        self.cp_tdv = kept_rows(&self.cp_tdv);
        for (p, nodes) in self.cp_nodes.iter_mut().enumerate() {
            nodes.drain(..(rb[p] - self.cp_base[p]) as usize);
            for node in nodes {
                *node = r_remap[*node as usize];
            }
        }
        self.cp_base = rb;

        let mut new_msg_tdv = Vec::new();
        for m in &mut self.msgs[live..] {
            if m.deliver_iv == NONE_U32 {
                let src = m.tdv_row as usize * n;
                m.tdv_row = (new_msg_tdv.len() / n) as u32;
                new_msg_tdv.extend_from_slice(&self.msg_tdv[src..src + n]);
            } else {
                m.tdv_row = NONE_U32;
            }
        }
        self.msg_tdv = new_msg_tdv;
        examined += self.msgs.len() - live;
        self.settled = settled;

        (stats.dropped_z_nodes, stats.dropped_c_nodes) = self.chains.on_compact(&w, &self.msgs);

        // The journal below this point is gone; marks from earlier
        // epochs fail with a defined error instead of corrupting state.
        self.journal.discard();
        self.epoch += 1;
        self.watermark = w;
        self.reclaimed_rows += stats.dropped_nodes() as u64;
        stats.resident_nodes = self.resident_closure_nodes();
        (stats, examined)
    }

    // ---------------------------------------------- compaction stats ----

    /// The compaction epoch: 0 until the first state-discarding
    /// compaction, bumped by each one. [`Mark`]s carry the epoch they
    /// were taken in.
    pub fn compaction_epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of state-discarding compactions so far (each one is an epoch).
    pub fn compactions(&self) -> u64 {
        self.epoch
    }

    /// Total closure rows reclaimed across all compactions (of the layers
    /// the engine carries: R-graph rows only on a chain-free engine).
    pub fn reclaimed_rows(&self) -> u64 {
        self.reclaimed_rows
    }

    /// Closure nodes currently resident — R-graph nodes, plus the chain
    /// layer's where there is one: the quadratic part of the footprint.
    pub fn resident_closure_nodes(&self) -> usize {
        self.rmat.nodes + self.chains.resident_nodes()
    }

    /// The consistent watermark of the last compaction (all zeros before
    /// the first).
    pub fn compaction_watermark(&self) -> &[u32] {
        &self.watermark
    }

    /// First retained checkpoint index per process ([`reaches`]
    /// (IncrementalAnalysis::reaches) and R-graph oracles accept members
    /// at or above it).
    pub fn retained_from(&self) -> &[u32] {
        &self.cp_base
    }
}
