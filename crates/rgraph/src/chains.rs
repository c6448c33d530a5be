//! Message chains (zigzag paths) and their classification (§3.2).

use std::fmt;

use rdt_causality::bits::{self, BitMatrix, BitRow};
use rdt_causality::{CheckpointId, ProcessId};

use crate::closure;
use crate::{Pattern, PatternMessageId};

/// A sequence of messages `[m_1, …, m_q]` claimed to form a message chain
/// (Definition 3.1 — called a *zigzag path* by Netzer & Xu).
///
/// Validate and classify against a pattern with [`MessageChain::is_chain`],
/// [`MessageChain::is_causal`] and [`MessageChain::is_simple`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MessageChain(pub Vec<PatternMessageId>);

impl MessageChain {
    /// Builds a chain from its messages.
    pub fn new<I: IntoIterator<Item = PatternMessageId>>(messages: I) -> Self {
        MessageChain(messages.into_iter().collect())
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the chain is empty (an empty sequence is not a valid chain).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether this message sequence satisfies Definition 3.1 in
    /// `pattern`: for each consecutive pair, `deliver(m_v) ∈ I_{k,s}`,
    /// `send(m_{v+1}) ∈ I_{k,t}` with `s ≤ t` (same process `k`), and every
    /// message but possibly the last is delivered. A single delivered
    /// message is always a chain.
    ///
    /// # Panics
    ///
    /// Panics if a message id is out of range for the pattern.
    pub fn is_chain(&self, pattern: &Pattern) -> bool {
        if self.0.is_empty() {
            return false;
        }
        // Every message must be delivered (all participate in links or in
        // the chain's destination interval).
        if self
            .0
            .iter()
            .any(|&m| pattern.message(m).deliver_pos.is_none())
        {
            return false;
        }
        self.0.windows(2).all(|w| {
            let (m, m_next) = (w[0], w[1]);
            let deliver = pattern.deliver_interval(m).expect("checked delivered");
            let send = pattern.send_interval(m_next);
            deliver.process == send.process && deliver.index <= send.index
        })
    }

    /// Whether the chain is *causal* (Definition 3.2): the delivery event
    /// of each message (but the last) occurs before the send event of the
    /// next message.
    ///
    /// # Panics
    ///
    /// Panics if a message id is out of range.
    pub fn is_causal(&self, pattern: &Pattern) -> bool {
        self.is_chain(pattern)
            && self.0.windows(2).all(|w| {
                let m = pattern.message(w[0]);
                let m_next = pattern.message(w[1]);
                m.to == m_next.from && m.deliver_pos.expect("checked delivered") < m_next.send_pos
            })
    }

    /// Whether the chain is causal and *simple* (§4.1): each delivery
    /// occurs before and **in the same checkpoint interval** as the next
    /// send — no intermediate local checkpoint sits inside the chain.
    ///
    /// # Panics
    ///
    /// Panics if a message id is out of range.
    pub fn is_simple(&self, pattern: &Pattern) -> bool {
        self.is_causal(pattern)
            && self.0.windows(2).all(|w| {
                let deliver = pattern.deliver_interval(w[0]).expect("checked delivered");
                let send = pattern.send_interval(w[1]);
                deliver.index == send.index
            })
    }

    /// The checkpoint the chain is *from*: `C_{i,x}` where
    /// `send(m_1) ∈ I_{i,x}`.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty or a message id is out of range.
    pub fn from_checkpoint(&self, pattern: &Pattern) -> CheckpointId {
        let send = pattern.send_interval(*self.0.first().expect("chain not empty"));
        CheckpointId::new(send.process, send.index)
    }

    /// The checkpoint the chain is *to*: `C_{j,y}` where
    /// `deliver(m_q) ∈ I_{j,y}`. Returns `None` if the last message is in
    /// transit.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty or a message id is out of range.
    pub fn to_checkpoint(&self, pattern: &Pattern) -> Option<CheckpointId> {
        let deliver = pattern.deliver_interval(*self.0.last().expect("chain not empty"))?;
        Some(CheckpointId::new(deliver.process, deliver.index))
    }
}

impl fmt::Display for MessageChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "]")
    }
}

/// Precomputed chain reachability over a pattern's delivered messages.
///
/// Two closures are maintained over the *message graph* (nodes = delivered
/// messages):
///
/// * **zigzag links**: `m → m'` iff `deliver(m) ∈ I_{k,s}`,
///   `send(m') ∈ I_{k,t}`, `s ≤ t`;
/// * **causal links**: additionally `deliver(m)` precedes `send(m')` in
///   `P_k`'s event order.
///
/// Both relations are closed by the word-parallel SCC kernel
/// ([`crate::closure::transitive_closure`]) over *compressed* link graphs:
/// instead of materializing the `O(M²)` direct links, each process
/// contributes a spine of per-interval slot nodes (zigzag) and a suffix
/// spine over its send events (causal), so construction is
/// `O(M + C + M·M/64)` for `C` checkpoints. Checkpoint-level queries go
/// through per-(process, interval) send/deliver indexes and prefix
/// delivery masks rather than scanning every message.
///
/// The closure relations themselves still take `O(M²)` bits for `M`
/// delivered messages — intended for analysis and testing, not for the
/// full-scale simulation sweeps (the [`RdtChecker`](crate::RdtChecker)
/// avoids it entirely).
///
/// # Example
///
/// ```rust
/// use rdt_causality::CheckpointId;
/// use rdt_rgraph::{paper_figures, ZigzagReachability};
///
/// let (pattern, f) = paper_figures::figure_1_with_handles();
/// let zz = ZigzagReachability::new(&pattern);
/// // [m3 m2] is a chain from C_(k,1) to C_(i,2) but no causal chain exists.
/// let from = CheckpointId::new(f.pk, 1);
/// let to = CheckpointId::new(f.pi, 2);
/// assert!(zz.chain_exists(from, to));
/// assert!(!zz.causal_chain_exists(from, to));
/// ```
#[derive(Debug, Clone)]
pub struct ZigzagReachability {
    /// Delivered message ids, densely renumbered.
    delivered: Vec<PatternMessageId>,
    /// Map from pattern message id to dense index (usize::MAX = in
    /// transit).
    dense: Vec<usize>,
    /// Zigzag closure: bit `(a, b)` set iff message `b` is chain-reachable
    /// from `a` (including `a` itself).
    zz: BitMatrix,
    /// Causal closure, same convention.
    causal: BitMatrix,
    /// Per message (dense): send/deliver checkpoints-of-interval.
    send_at: Vec<(ProcessId, u32)>,
    deliver_at: Vec<(ProcessId, u32)>,
    /// Per message (dense): endpoints and event positions, for O(1)
    /// single-causal-link tests.
    msg_from: Vec<ProcessId>,
    msg_to: Vec<ProcessId>,
    msg_send_pos: Vec<usize>,
    msg_deliver_pos: Vec<usize>,
    /// `send_in[p][x]` = dense messages sent by process `p` in interval
    /// `x` (interval indexes are one-based; slot 0 stays empty).
    send_in: Vec<Vec<Vec<usize>>>,
    /// `deliver_in[p][y]` = dense messages delivered at `p` in interval `y`.
    deliver_in: Vec<Vec<Vec<usize>>>,
    /// `deliver_upto[p][y]` = mask of dense messages delivered at `p` in
    /// an interval `≤ y` (prefix masks).
    deliver_upto: Vec<Vec<BitRow>>,
}

impl ZigzagReachability {
    /// Builds both closures for `pattern` with the word-parallel SCC
    /// kernel over compressed link graphs.
    pub fn new(pattern: &Pattern) -> Self {
        Self::build(pattern, false)
    }

    /// Builds the same structure with the naive per-bit reference kernel
    /// ([`crate::closure::transitive_closure_reference`]).
    ///
    /// Public as the baseline BENCH-RDTCHECK (`experiments rdtcheck`)
    /// times and the oracle of the differential kernel tests; every query
    /// answers identically to [`ZigzagReachability::new`].
    pub fn new_naive(pattern: &Pattern) -> Self {
        Self::build(pattern, true)
    }

    fn build(pattern: &Pattern, naive: bool) -> Self {
        let mut delivered = Vec::new();
        let mut dense = vec![usize::MAX; pattern.num_messages()];
        for (idx, info) in pattern.messages().iter().enumerate() {
            if info.deliver_pos.is_some() {
                dense[idx] = delivered.len();
                delivered.push(PatternMessageId(idx));
            }
        }
        let m = delivered.len();
        let n = pattern.num_processes();
        let mut send_at = Vec::with_capacity(m);
        let mut deliver_at = Vec::with_capacity(m);
        let mut msg_from = Vec::with_capacity(m);
        let mut msg_to = Vec::with_capacity(m);
        let mut msg_send_pos = Vec::with_capacity(m);
        let mut msg_deliver_pos = Vec::with_capacity(m);
        for &id in &delivered {
            let info = pattern.message(id);
            let s = pattern.send_interval(id);
            // `delivered` holds delivered messages only, so both are
            // always `Some`; skipping keeps the builder panic-free.
            let (Some(d), Some(deliver_pos)) = (pattern.deliver_interval(id), info.deliver_pos)
            else {
                continue;
            };
            send_at.push((s.process, s.index));
            deliver_at.push((d.process, d.index));
            msg_from.push(info.from);
            msg_to.push(info.to);
            msg_send_pos.push(info.send_pos);
            msg_deliver_pos.push(deliver_pos);
        }

        // Per-(process, interval) indexes. Interval indexes run
        // `1..=checkpoint_count`; slot 0 is allocated so indexes address
        // the tables directly.
        let top: Vec<usize> = (0..n)
            .map(|p| pattern.checkpoint_count(ProcessId::new(p)) as usize)
            .collect();
        let mut send_in: Vec<Vec<Vec<usize>>> =
            (0..n).map(|p| vec![Vec::new(); top[p] + 1]).collect();
        let mut deliver_in: Vec<Vec<Vec<usize>>> =
            (0..n).map(|p| vec![Vec::new(); top[p] + 1]).collect();
        for a in 0..m {
            let (sp, si) = send_at[a];
            send_in[sp.index()][si as usize].push(a);
            let (dp, di) = deliver_at[a];
            deliver_in[dp.index()][di as usize].push(a);
        }
        let deliver_upto: Vec<Vec<BitRow>> = (0..n)
            .map(|p| {
                let mut acc = BitRow::new(m);
                let mut rows = Vec::with_capacity(top[p] + 1);
                rows.push(acc.clone());
                for in_interval in deliver_in[p].iter().skip(1) {
                    for &b in in_interval {
                        acc.set(b);
                    }
                    rows.push(acc.clone());
                }
                rows
            })
            .collect();

        // Compressed zigzag graph: message `a` links into the slot of its
        // delivery interval; slots chain forward (`s ≤ t`) and fan out to
        // the messages sent in their interval. O(M + C) edges instead of
        // the O(M²) all-pairs link scan.
        let mut first_slot = vec![0usize; n];
        let mut total = m;
        for p in 0..n {
            first_slot[p] = total;
            total += top[p] + 1;
        }
        let mut zz_adj: Vec<Vec<usize>> = vec![Vec::new(); total];
        for a in 0..m {
            let (dp, di) = deliver_at[a];
            zz_adj[a].push(first_slot[dp.index()] + di as usize);
        }
        for p in 0..n {
            for (x, in_interval) in send_in[p].iter().enumerate() {
                let slot = first_slot[p] + x;
                if x < top[p] {
                    zz_adj[slot].push(slot + 1);
                }
                zz_adj[slot].extend(in_interval.iter().copied());
            }
        }

        // Compressed causal graph: per process, a suffix spine over its
        // send events; a delivery links to the first send strictly after
        // it, the spine supplies every later one.
        let mut sends_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for a in 0..m {
            sends_of[msg_from[a].index()].push(a);
        }
        for list in &mut sends_of {
            list.sort_unstable_by_key(|&a| msg_send_pos[a]);
        }
        let mut spine_base = vec![0usize; n];
        let mut total_c = m;
        for p in 0..n {
            spine_base[p] = total_c;
            total_c += sends_of[p].len();
        }
        let mut causal_adj: Vec<Vec<usize>> = vec![Vec::new(); total_c];
        for p in 0..n {
            for (i, &a) in sends_of[p].iter().enumerate() {
                let node = spine_base[p] + i;
                causal_adj[node].push(a);
                if i + 1 < sends_of[p].len() {
                    causal_adj[node].push(node + 1);
                }
            }
        }
        for a in 0..m {
            let p = msg_to[a].index();
            let i = sends_of[p].partition_point(|&b| msg_send_pos[b] <= msg_deliver_pos[a]);
            if i < sends_of[p].len() {
                causal_adj[a].push(spine_base[p] + i);
            }
        }

        let kernel: fn(&[Vec<usize>], usize) -> BitMatrix = if naive {
            closure::transitive_closure_reference
        } else {
            closure::transitive_closure
        };
        let mut zz = kernel(&zz_adj, m);
        zz.truncate_rows(m);
        let mut causal = kernel(&causal_adj, m);
        causal.truncate_rows(m);

        ZigzagReachability {
            delivered,
            dense,
            zz,
            causal,
            send_at,
            deliver_at,
            msg_from,
            msg_to,
            msg_send_pos,
            msg_deliver_pos,
            send_in,
            deliver_in,
            deliver_upto,
        }
    }

    /// Dense messages sent by `p` in exactly interval `x` (empty for
    /// out-of-range coordinates).
    fn interval_sends(&self, p: ProcessId, x: u32) -> &[usize] {
        self.send_in
            .get(p.index())
            .and_then(|v| v.get(x as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// Dense messages delivered at `p` in exactly interval `y`.
    fn interval_delivers(&self, p: ProcessId, y: u32) -> &[usize] {
        self.deliver_in
            .get(p.index())
            .and_then(|v| v.get(y as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// Mask of messages delivered at `p` in an interval `≤ y`; `None` for
    /// an unknown process. Indexes beyond the last interval saturate.
    fn deliver_mask_upto(&self, p: ProcessId, y: u32) -> Option<&BitRow> {
        let rows = self.deliver_upto.get(p.index())?;
        Some(&rows[(y as usize).min(rows.len() - 1)])
    }

    /// Dense messages sent by `p` in an interval with index `≥ x`.
    fn sends_at_or_after(&self, p: ProcessId, x: usize) -> impl Iterator<Item = usize> + '_ {
        self.send_in
            .get(p.index())
            .into_iter()
            .flat_map(move |v| v.iter().skip(x).flatten().copied())
    }

    fn chain_query(&self, rows: &BitMatrix, from: CheckpointId, to: CheckpointId) -> bool {
        // ∃ delivered m_a with send ∈ I_{from.process, from.index} and
        // m_b with deliver ∈ I_{to.process, to.index}, m_b reachable from
        // m_a (reflexively). Both candidate sets come straight from the
        // interval indexes.
        let delivers = self.interval_delivers(to.process, to.index);
        self.interval_sends(from.process, from.index)
            .iter()
            .any(|&a| delivers.iter().any(|&b| rows.get(a, b)))
    }

    /// Whether some message chain goes from `from` to `to` in the paper's
    /// sense: first send in `I_{from}`, last delivery in `I_{to}` (the
    /// checkpoint ids name the *closing* checkpoints of those intervals).
    pub fn chain_exists(&self, from: CheckpointId, to: CheckpointId) -> bool {
        self.chain_query(&self.zz, from, to)
    }

    /// Whether some **causal** message chain goes from `from` to `to`.
    pub fn causal_chain_exists(&self, from: CheckpointId, to: CheckpointId) -> bool {
        self.chain_query(&self.causal, from, to)
    }

    /// Whether a *causal sibling* exists for a (non-causal) chain from
    /// `from` to `to`, in the relaxed sense sufficient for trackability:
    /// a causal chain from `C_{i,x'}` to `C_{j,y'}` with `x' ≥ x` and
    /// `y' ≤ y` (a later origin interval and an earlier destination
    /// interval carry at least as much rollback information).
    pub fn causal_doubling_exists(&self, from: CheckpointId, to: CheckpointId) -> bool {
        // Interval indexes are one-based, so every delivery interval `di`
        // already satisfies `di ≥ 1`; the prefix mask is the whole
        // destination-side condition in one word-parallel intersection.
        let Some(mask) = self.deliver_mask_upto(to.process, to.index) else {
            return false;
        };
        self.sends_at_or_after(from.process, from.index as usize)
            .any(|a| bits::intersects(self.causal.row(a), mask.words()))
    }

    /// Netzer–Xu zigzag query: is there a Z-path that starts strictly
    /// *after* checkpoint `a` and ends at or *before* checkpoint `b`?
    /// (Send in an interval with index `> a.index`, delivery in an
    /// interval with index `≤ b.index`.)
    ///
    /// Two checkpoints on different processes can belong to a common
    /// consistent global checkpoint iff no such Z-path exists in either
    /// direction; a checkpoint is *useless* iff such a Z-path loops back to
    /// it ([`ZigzagReachability::on_z_cycle`]).
    pub fn z_path_after_to_before(&self, a: CheckpointId, b: CheckpointId) -> bool {
        let Some(mask) = self.deliver_mask_upto(b.process, b.index) else {
            return false;
        };
        self.sends_at_or_after(a.process, a.index as usize + 1)
            .any(|ma| bits::intersects(self.zz.row(ma), mask.words()))
    }

    /// Whether `checkpoint` lies on a Z-cycle (Netzer & Xu): a zigzag path
    /// leaves after it and returns at or before it. Such a checkpoint is
    /// *useless* — it belongs to no consistent global checkpoint.
    pub fn on_z_cycle(&self, checkpoint: CheckpointId) -> bool {
        self.z_path_after_to_before(checkpoint, checkpoint)
    }

    /// Netzer & Xu's theorem, as an API: two local checkpoints can belong
    /// to the **same** consistent global checkpoint iff no zigzag path runs
    /// from (after) either one to (before) the other — including the
    /// degenerate Z-cycles through each.
    ///
    /// Cross-validated against the constructive test
    /// `min_consistent_containing(&[a, b]).is_some()` in the property
    /// suite.
    pub fn can_coexist(&self, a: CheckpointId, b: CheckpointId) -> bool {
        if a.process == b.process {
            return a.index == b.index && !self.on_z_cycle(a);
        }
        !self.z_path_after_to_before(a, b)
            && !self.z_path_after_to_before(b, a)
            && !self.on_z_cycle(a)
            && !self.on_z_cycle(b)
    }

    /// Finds one concrete **causal** chain witnessing
    /// [`causal_doubling_exists`](ZigzagReachability::causal_doubling_exists):
    /// a causal chain from `C_{from.process, x'}` (`x' ≥ from.index`) to
    /// `C_{to.process, y'}` (`y' ≤ to.index`), or `None` if no doubling
    /// exists.
    ///
    /// BFS over the causal message links, shortest chain first — the
    /// diagnostic companion to the boolean query (e.g. it reconstructs
    /// `[m5 m6]` as the sibling of `[m5 m4]` in the paper's Figure 1).
    pub fn find_causal_sibling(
        &self,
        from: CheckpointId,
        to: CheckpointId,
    ) -> Option<MessageChain> {
        let m = self.delivered.len();
        // Start messages: sent by `from.process` in interval >= from.index.
        let starts: Vec<usize> = (0..m)
            .filter(|&a| {
                let (sp, si) = self.send_at[a];
                sp == from.process && si >= from.index
            })
            .collect();
        let goal = |b: usize| {
            let (dp, di) = self.deliver_at[b];
            dp == to.process && di <= to.index
        };
        // BFS with parent tracking over single causal links.
        let mut parent: Vec<Option<usize>> = vec![None; m];
        let mut visited = vec![false; m];
        let mut queue = std::collections::VecDeque::new();
        for &s in &starts {
            visited[s] = true;
            queue.push_back(s);
        }
        while let Some(u) = queue.pop_front() {
            if goal(u) {
                let mut chain = vec![self.delivered[u]];
                let mut cur = u;
                while let Some(prev) = parent[cur] {
                    chain.push(self.delivered[prev]);
                    cur = prev;
                }
                chain.reverse();
                return Some(MessageChain(chain));
            }
            for w in 0..m {
                if !visited[w] && u != w && self.causal_single_link(u, w) {
                    visited[w] = true;
                    parent[w] = Some(u);
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// Whether `[delivered[a], delivered[b]]` is a single *causal* link.
    fn causal_single_link(&self, a: usize, b: usize) -> bool {
        self.msg_to[a] == self.msg_from[b] && self.msg_deliver_pos[a] < self.msg_send_pos[b]
    }

    /// Dense index helper used by the characterization module.
    pub(crate) fn dense_index(&self, message: PatternMessageId) -> Option<usize> {
        let idx = *self.dense.get(message.0)?;
        (idx != usize::MAX).then_some(idx)
    }

    /// Whether message `b` is causally chain-reachable from message `a`
    /// (reflexively), both given as pattern message ids.
    ///
    /// Returns `false` if either message is undelivered.
    pub fn causal_link_closure(&self, a: PatternMessageId, b: PatternMessageId) -> bool {
        match (self.dense_index(a), self.dense_index(b)) {
            (Some(da), Some(db)) => self.causal.get(da, db),
            _ => false,
        }
    }

    /// Whether message `b` is zigzag chain-reachable from message `a`
    /// (reflexively), both given as pattern message ids.
    ///
    /// Returns `false` if either message is undelivered.
    pub fn zigzag_closure(&self, a: PatternMessageId, b: PatternMessageId) -> bool {
        match (self.dense_index(a), self.dense_index(b)) {
            (Some(da), Some(db)) => self.zz.get(da, db),
            _ => false,
        }
    }

    /// The delivered messages, densely ordered.
    pub fn delivered_messages(&self) -> &[PatternMessageId] {
        &self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_figures;
    use rdt_causality::CheckpointId;

    #[test]
    fn figure_1_chain_classification() {
        let (pattern, f) = paper_figures::figure_1_with_handles();

        let m3_m2 = MessageChain::new([f.m3, f.m2]);
        assert!(m3_m2.is_chain(&pattern));
        assert!(!m3_m2.is_causal(&pattern));

        let m2_m5 = MessageChain::new([f.m2, f.m5]);
        assert!(m2_m5.is_causal(&pattern));
        assert!(!m2_m5.is_simple(&pattern), "crosses C_(i,2)");

        let m5_m4 = MessageChain::new([f.m5, f.m4]);
        assert!(m5_m4.is_chain(&pattern));
        assert!(!m5_m4.is_causal(&pattern));

        let m5_m6 = MessageChain::new([f.m5, f.m6]);
        assert!(m5_m6.is_causal(&pattern));
        assert!(m5_m6.is_simple(&pattern));

        let m4_m7 = MessageChain::new([f.m4, f.m7]);
        assert!(m4_m7.is_causal(&pattern));
        assert!(!m4_m7.is_simple(&pattern), "crosses C_(k,2)");

        let long = MessageChain::new([f.m3, f.m2, f.m5, f.m4, f.m7]);
        assert!(long.is_chain(&pattern));
        assert!(!long.is_causal(&pattern));

        // Single messages are always causal chains.
        assert!(MessageChain::new([f.m3]).is_causal(&pattern));
        assert!(MessageChain::new([f.m3]).is_simple(&pattern));
    }

    #[test]
    fn figure_1_chain_endpoints() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        let m3_m2 = MessageChain::new([f.m3, f.m2]);
        assert_eq!(m3_m2.from_checkpoint(&pattern), CheckpointId::new(f.pk, 1));
        assert_eq!(
            m3_m2.to_checkpoint(&pattern),
            Some(CheckpointId::new(f.pi, 2))
        );

        let m5_m4 = MessageChain::new([f.m5, f.m4]);
        assert_eq!(m5_m4.from_checkpoint(&pattern), CheckpointId::new(f.pi, 3));
        assert_eq!(
            m5_m4.to_checkpoint(&pattern),
            Some(CheckpointId::new(f.pk, 2))
        );
    }

    #[test]
    fn non_chain_rejected() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        // m1 delivered at P_j in I_{j,1}; m3 sent by P_k — wrong process.
        let bogus = MessageChain::new([f.m1, f.m3]);
        assert!(!bogus.is_chain(&pattern));
        // Backwards interval order: deliver(m5) in I_{j,2}, send(m2) in
        // I_{j,1}: 2 > 1.
        let backwards = MessageChain::new([f.m5, f.m2]);
        assert!(!backwards.is_chain(&pattern));
        assert!(!MessageChain::new([]).is_chain(&pattern));
    }

    #[test]
    fn zigzag_reachability_matches_figure_1() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        let zz = ZigzagReachability::new(&pattern);
        let cki1 = CheckpointId::new(f.pk, 1);
        let ci2 = CheckpointId::new(f.pi, 2);
        let ci3 = CheckpointId::new(f.pi, 3);
        let ck2 = CheckpointId::new(f.pk, 2);

        assert!(zz.chain_exists(cki1, ci2));
        assert!(!zz.causal_chain_exists(cki1, ci2), "hidden dependency");
        assert!(zz.chain_exists(ci3, ck2));
        assert!(zz.causal_chain_exists(ci3, ck2), "via [m5 m6]");
    }

    #[test]
    fn find_causal_sibling_reconstructs_m5_m6() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        let zz = ZigzagReachability::new(&pattern);
        let sibling = zz
            .find_causal_sibling(CheckpointId::new(f.pi, 3), CheckpointId::new(f.pk, 2))
            .expect("[m5 m4] is doubled");
        assert_eq!(sibling, MessageChain::new([f.m5, f.m6]));
        assert!(sibling.is_causal(&pattern));
        // The undoubled chain has no sibling.
        assert_eq!(
            zz.find_causal_sibling(CheckpointId::new(f.pk, 1), CheckpointId::new(f.pi, 2)),
            None
        );
    }

    #[test]
    fn found_siblings_always_validate() {
        // Every sibling the finder returns must be a genuine causal chain
        // with endpoints at least as strong as requested.
        let (pattern, _) = paper_figures::figure_1_with_handles();
        let zz = ZigzagReachability::new(&pattern);
        for from in pattern.checkpoints() {
            for to in pattern.checkpoints() {
                let exists = zz.causal_doubling_exists(from, to);
                match zz.find_causal_sibling(from, to) {
                    Some(chain) => {
                        assert!(exists, "finder found a chain the query denies");
                        assert!(chain.is_causal(&pattern));
                        let start = chain.from_checkpoint(&pattern);
                        let end = chain.to_checkpoint(&pattern).expect("delivered");
                        assert_eq!(start.process, from.process);
                        assert!(start.index >= from.index);
                        assert_eq!(end.process, to.process);
                        assert!(end.index <= to.index);
                    }
                    None => assert!(!exists, "query says doubled but finder found nothing"),
                }
            }
        }
    }

    #[test]
    fn causal_doubling_relaxation() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        let zz = ZigzagReachability::new(&pattern);
        // [m5 m4] is doubled by [m5 m6] at exactly the same endpoints.
        assert!(zz.causal_doubling_exists(CheckpointId::new(f.pi, 3), CheckpointId::new(f.pk, 2)));
        // The [m3 m2] chain has no doubling at or beyond its endpoints.
        assert!(!zz.causal_doubling_exists(CheckpointId::new(f.pk, 1), CheckpointId::new(f.pi, 2)));
    }

    #[test]
    fn z_cycle_detection_on_figure_4() {
        // figure_4_unbroken has an R-cycle but also a genuine Z-cycle?
        // m1 sent in I_{i,1} (not after C_{i,1}); m2 delivered in I_{i,1}
        // (before C_{i,1}): the zigzag [m1 m2]... m1 leaves after C_{i,0}
        // and m2 returns before C_{i,1} — so C_{i,0}: send after it (yes,
        // interval 1 > 0) delivered before C_{i,0} (interval 1 <= 0 is
        // false). Not a cycle on C_{i,0}. For C_{k,1}: is there a chain
        // leaving after C_{k,1} (interval >= 2: m2) returning at or before
        // C_{k,1}? m2 -> m1? m1 is sent by P_i in I_{i,1}, m2 delivered at
        // P_i in I_{i,1}: link m2 -> m1 needs deliver(m2) interval <=
        // send(m1) interval: 1 <= 1 holds! Then m1 delivers at P_k in
        // I_{k,1} <= C_{k,1}. So C_{k,1} IS on a Z-cycle: it is useless.
        let pattern = paper_figures::figure_4_unbroken();
        let zz = ZigzagReachability::new(&pattern);
        assert!(zz.on_z_cycle(CheckpointId::new(ProcessId::new(1), 1)));
        assert!(!zz.on_z_cycle(CheckpointId::new(ProcessId::new(0), 1)));
    }

    #[test]
    fn consistent_pair_has_no_z_path_between() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        let zz = ZigzagReachability::new(&pattern);
        let ck1 = CheckpointId::new(f.pk, 1);
        let cj1 = CheckpointId::new(f.pj, 1);
        // (C_{k,1}, C_{j,1}) is consistent (paper): no z-path either way.
        assert!(!zz.z_path_after_to_before(ck1, cj1));
        assert!(!zz.z_path_after_to_before(cj1, ck1));
        // (C_{i,2}, C_{j,2}) inconsistent: m5 is itself such a z-path.
        let ci2 = CheckpointId::new(f.pi, 2);
        let cj2 = CheckpointId::new(f.pj, 2);
        assert!(zz.z_path_after_to_before(ci2, cj2));
    }
}
