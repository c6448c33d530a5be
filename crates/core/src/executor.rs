//! Uniform round-executor engine for the paper's CIC protocols.
//!
//! Every RDT protocol of the paper follows one shape: update a
//! `(TDV, simple, causal)` triple on send, evaluate a forced-checkpoint
//! predicate on arrival (Figure 6 and its §5 weakenings). The legacy
//! modules ([`crate::Bhmr`], [`crate::BhmrNoSimple`],
//! [`crate::BhmrCausalOnly`], [`crate::Fdas`], [`crate::Fdi`]) hand-roll
//! that shape with per-message heap-allocated piggybacks — every
//! `before_send` clones a `DependencyVector` plus bit structures — and
//! scalar per-destination predicate loops.
//!
//! This module reimplements the five protocols as *pure round-state
//! machines* over one contiguous, bit-packed arena:
//!
//! * [`ExecutorState`] owns a single slab per control structure for **all**
//!   `n` processes of a run — TDV rows (`n × n` u32s), `sent_to` /
//!   `simple` bit rows (`⌈n/64⌉` words per process) and the `causal`
//!   row-slab (`n` rows of `⌈n/64⌉` words per process).
//! * Sends write the piggyback into a slot of a recycled scratch arena:
//!   zero per-message allocation. A [`PackedPiggyback`] is an arena
//!   *offset* (plus a reference count), not an owned triple.
//! * Arrivals evaluate the Figure 6 predicates word-parallel: the
//!   `∃j: sent_to[j] ∧ ¬m.causal[k][j]` inner loop of `C1` becomes one
//!   masked `AND`/`OR` over 64 destination processes per operation, and
//!   the per-entry `simple`/`causal` merge becomes a handful of word ops
//!   driven by *greater*/*equal* classification masks.
//!
//! This module owns the slab layout (which row starts where); how bits are
//! packed into a row's words is [`rdt_causality::bits`]' decision, and every
//! single-bit access here goes through its slice kernels.
//!
//! The executor is behaviourally identical to the legacy protocols —
//! same forced-checkpoint decisions, same checkpoint records, same
//! reported piggyback bytes — which the differential suite
//! (`crates/core/tests/executor_differential.rs`) pins over random
//! schedules. The legacy modules stay exported as the oracles.
//!
//! # Sharing model
//!
//! One [`ExecutorState`] serves all processes of one run; each process
//! holds an [`ExecutorCell`] (a `Rc` handle plus its own
//! [`ProtocolStats`]) implementing [`CicProtocol`]. Use [`spawner`] to
//! get a factory closure compatible with the simulator's
//! `Fn(usize, ProcessId)` protocol constructors: consecutive cells of one
//! run share a state, and a new run (process 0 requested again) starts a
//! fresh arena.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use rdt_causality::{bits, CheckpointId, ProcessId};

use crate::{
    ArrivalOutcome, CheckpointKind, CheckpointRecord, CicProtocol, PiggybackSize, ProtocolStats,
    SendOutcome,
};

/// Which of the paper's protocols an [`ExecutorState`] runs.
///
/// The spec fixes the piggyback layout (which control structures exist)
/// and the forced-checkpoint predicate; everything else — checkpoint
/// bookkeeping, the merge rules of statement S2 — is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorSpec {
    /// Full BHMR (§4): piggybacks `(TDV, simple, causal)`, forces on
    /// `C1 ∨ C2`.
    Bhmr,
    /// The deliberately weakened control: full BHMR state but forcing on
    /// `C2` alone (matches [`crate::Bhmr::weakened_c2_only`]).
    BhmrC2Only,
    /// §5.1 first variant: piggybacks `(TDV, causal)`, forces on
    /// `C1 ∨ C2'`.
    BhmrNoSimple,
    /// §5.1 second variant: piggybacks `(TDV, causal)` with a permanently
    /// false diagonal, forces on `C1` alone.
    BhmrCausalOnly,
    /// Wang's FDAS (§5.2): piggybacks `TDV`, forces on
    /// `after_first_send ∧ ∃k fresh`.
    Fdas,
    /// Wang's FDI (§5.2): piggybacks `TDV`, forces on `∃k fresh`.
    Fdi,
}

impl ExecutorSpec {
    /// All six specs, lattice order (fewest forced checkpoints first).
    pub fn all() -> &'static [ExecutorSpec] {
        &[
            ExecutorSpec::Bhmr,
            ExecutorSpec::BhmrC2Only,
            ExecutorSpec::BhmrNoSimple,
            ExecutorSpec::BhmrCausalOnly,
            ExecutorSpec::Fdas,
            ExecutorSpec::Fdi,
        ]
    }

    /// The protocol name, identical to the legacy implementation's
    /// [`CicProtocol::name`].
    pub fn name(self) -> &'static str {
        match self {
            ExecutorSpec::Bhmr => "bhmr",
            ExecutorSpec::BhmrC2Only => "bhmr-c2only",
            ExecutorSpec::BhmrNoSimple => "bhmr-nosimple",
            ExecutorSpec::BhmrCausalOnly => "bhmr-causalonly",
            ExecutorSpec::Fdas => "fdas",
            ExecutorSpec::Fdi => "fdi",
        }
    }

    /// Whether the piggyback (and local state) carries the `simple`
    /// vector.
    pub fn has_simple(self) -> bool {
        matches!(self, ExecutorSpec::Bhmr | ExecutorSpec::BhmrC2Only)
    }

    /// Whether the piggyback (and local state) carries the `causal`
    /// matrix.
    pub fn has_causal(self) -> bool {
        !matches!(self, ExecutorSpec::Fdas | ExecutorSpec::Fdi)
    }

    /// Whether the `causal` matrix starts as the identity and keeps its
    /// diagonal across checkpoints (`false` only for the §5.1 second
    /// variant, which maintains a permanently false diagonal).
    pub fn identity_diagonal(self) -> bool {
        !matches!(self, ExecutorSpec::BhmrCausalOnly)
    }

    /// Whether predicate `C1` participates in the forcing decision.
    pub fn uses_c1(self) -> bool {
        matches!(
            self,
            ExecutorSpec::Bhmr | ExecutorSpec::BhmrNoSimple | ExecutorSpec::BhmrCausalOnly
        )
    }

    /// The *logical* piggyback size in bytes for an `n`-process run —
    /// identical to what the legacy unpacked representations report
    /// (`4n` for the TDV, `⌈n/8⌉` for a boolean vector, `⌈n²/8⌉` for the
    /// matrix), so Table 1 overhead accounting does not shift with the
    /// packed arena.
    pub fn piggyback_bytes(self, n: usize) -> usize {
        let tdv = 4 * n;
        let boolvec = n.div_ceil(8);
        let matrix = (n * n).div_ceil(8);
        match self {
            ExecutorSpec::Bhmr | ExecutorSpec::BhmrC2Only => tdv + boolvec + matrix,
            ExecutorSpec::BhmrNoSimple | ExecutorSpec::BhmrCausalOnly => tdv + matrix,
            ExecutorSpec::Fdas | ExecutorSpec::Fdi => tdv,
        }
    }
}

/// Row `r` of a slab of `w`-word rows.
#[inline]
fn row(slab: &[u64], r: usize, w: usize) -> &[u64] {
    &slab[r * w..][..w]
}

#[inline]
fn row_mut(slab: &mut [u64], r: usize, w: usize) -> &mut [u64] {
    &mut slab[r * w..][..w]
}

/// Clears `row` except bit `i`, which keeps its value when `keep`.
fn clear_all_but(row: &mut [u64], i: usize, keep: bool) {
    let kept = keep && bits::test(row, i);
    row.fill(0);
    if kept {
        bits::set(row, i);
    }
}

/// Bit-packed protocol state and piggyback arena shared by every process
/// of one run.
struct Inner {
    spec: ExecutorSpec,
    n: usize,
    /// Words per bit row: `bits::words_for(n)`.
    wpr: usize,
    /// Words of `simple` per process (0 when the spec has no `simple`).
    simple_words: usize,
    /// Words of `causal` per process (`n · wpr`, or 0 without `causal`).
    causal_words: usize,
    /// Bit words per piggyback slot: `simple_words + causal_words`.
    slot_bits: usize,
    /// `n` TDV rows of `n` entries each; row `p` starts at `p·n`.
    tdv: Vec<u32>,
    /// `n` `sent_to` bit rows of `wpr` words each.
    sent_to: Vec<u64>,
    /// `n` `simple` bit rows of `simple_words` words each.
    simple: Vec<u64>,
    /// `n` `causal` matrices of `causal_words` words each; row `k` of
    /// process `p` starts at `p·causal_words + k·wpr`, i.e. it is row
    /// `p·n + k` of the slab seen as `wpr`-word rows.
    causal: Vec<u64>,
    /// Per-process FDAS flag (maintained for every spec; only FDAS reads
    /// it).
    after_first_send: Vec<bool>,
    /// Piggyback arena, TDV part: slot `s` occupies `[s·n, (s+1)·n)`.
    pb_tdv: Vec<u32>,
    /// Piggyback arena, bit part: slot `s` occupies
    /// `[s·slot_bits, (s+1)·slot_bits)` — `simple` row first, then the
    /// `causal` row-slab.
    pb_bits: Vec<u64>,
    /// Scratch: *greater* classification mask of the arrival in progress.
    g_mask: Vec<u64>,
    /// Scratch: *equal* classification mask of the arrival in progress.
    e_mask: Vec<u64>,
}

impl Inner {
    fn new(spec: ExecutorSpec, n: usize) -> Inner {
        let wpr = bits::words_for(n);
        let simple_words = if spec.has_simple() { wpr } else { 0 };
        let causal_words = if spec.has_causal() { n * wpr } else { 0 };
        let mut inner = Inner {
            spec,
            n,
            wpr,
            simple_words,
            causal_words,
            slot_bits: simple_words + causal_words,
            tdv: vec![0; n * n],
            sent_to: vec![0; n * wpr],
            simple: vec![0; n * simple_words],
            causal: vec![0; n * causal_words],
            after_first_send: vec![false; n],
            pb_tdv: Vec::with_capacity(n * n),
            pb_bits: Vec::with_capacity(n * (simple_words + causal_words)),
            g_mask: vec![0; wpr],
            e_mask: vec![0; wpr],
        };
        for p in 0..n {
            // Statement S0: TDV_p = [0,…,0] then the initial checkpoint
            // increments the owner entry; simple_p[p] is permanently true;
            // causal_p starts as the identity (or all-false for the
            // false-diagonal variant).
            inner.tdv[p * n + p] = 1;
            if spec.has_simple() {
                bits::set(row_mut(&mut inner.simple, p, simple_words), p);
            }
            if spec.has_causal() && spec.identity_diagonal() {
                for k in 0..n {
                    bits::set(row_mut(&mut inner.causal, p * n + k, wpr), k);
                }
            }
        }
        inner
    }

    /// Procedure `take_checkpoint` of Figure 6 for process `me`.
    fn take_checkpoint(&mut self, me: usize, kind: CheckpointKind) -> CheckpointRecord {
        let n = self.n;
        let row = &self.tdv[me * n..(me + 1) * n];
        let record = CheckpointRecord {
            id: CheckpointId::new(ProcessId::new(me), row[me]),
            kind,
            min_consistent_gc: Some(row.to_vec()),
        };
        row_mut(&mut self.sent_to, me, self.wpr).fill(0);
        if self.simple_words > 0 {
            // Keep only the own bit (its value), clear every other entry.
            clear_all_but(row_mut(&mut self.simple, me, self.simple_words), me, true);
        }
        if self.causal_words > 0 {
            // causal[me][j] := false for j ≠ me; the diagonal entry keeps
            // its value, unless the spec's diagonal is permanently false.
            let own = row_mut(&mut self.causal, me * n + me, self.wpr);
            clear_all_but(own, me, self.spec.identity_diagonal());
        }
        self.after_first_send[me] = false;
        self.tdv[me * n + me] += 1;
        record
    }

    /// Statement S1: record the destination and snapshot the sender's
    /// control structures into arena slot `slot` (a straight `memcpy`, no
    /// allocation).
    fn write_send(&mut self, me: usize, dest: usize, slot: usize) {
        let n = self.n;
        self.pb_tdv[slot * n..(slot + 1) * n].copy_from_slice(&self.tdv[me * n..(me + 1) * n]);
        let base = slot * self.slot_bits;
        if self.simple_words > 0 {
            self.pb_bits[base..base + self.simple_words].copy_from_slice(
                &self.simple[me * self.simple_words..(me + 1) * self.simple_words],
            );
        }
        if self.causal_words > 0 {
            self.pb_bits[base + self.simple_words..base + self.slot_bits].copy_from_slice(
                &self.causal[me * self.causal_words..(me + 1) * self.causal_words],
            );
        }
        bits::set(row_mut(&mut self.sent_to, me, self.wpr), dest);
        self.after_first_send[me] = true;
    }

    /// `∃k: m.TDV[k] > TDV_me[k]` — a fresh dependency in the arriving
    /// piggyback.
    fn any_fresh(&self, me: usize, slot: usize) -> bool {
        let n = self.n;
        let mine = &self.tdv[me * n..(me + 1) * n];
        let theirs = &self.pb_tdv[slot * n..(slot + 1) * n];
        theirs.iter().zip(mine).any(|(&m, &t)| m > t)
    }

    /// Predicate `C1`, word-parallel over destinations: for each fresh
    /// `k`, `∃j: sent_to[j] ∧ ¬m.causal[k][j]` is one masked AND over 64
    /// processes per word.
    fn c1(&self, me: usize, slot: usize) -> bool {
        let sent = &self.sent_to[me * self.wpr..(me + 1) * self.wpr];
        if sent.iter().all(|&w| w == 0) {
            return false;
        }
        let n = self.n;
        let mine = &self.tdv[me * n..(me + 1) * n];
        let theirs = &self.pb_tdv[slot * n..(slot + 1) * n];
        let causal =
            &self.pb_bits[slot * self.slot_bits + self.simple_words..][..self.causal_words];
        if self.wpr == 1 {
            // n ≤ 64: each causal row is one word.
            let s = sent[0];
            return theirs
                .iter()
                .zip(mine)
                .zip(causal)
                .any(|((&m, &t), &row)| m > t && s & !row != 0);
        }
        for k in 0..n {
            if theirs[k] > mine[k] {
                let row = &causal[k * self.wpr..][..self.wpr];
                if sent.iter().zip(row).any(|(&s, &c)| s & !c != 0) {
                    return true;
                }
            }
        }
        false
    }

    /// Predicate `C2`: `m.TDV[me] = TDV_me[me] ∧ ¬m.simple[me]`.
    fn c2(&self, me: usize, slot: usize) -> bool {
        let n = self.n;
        if self.pb_tdv[slot * n + me] != self.tdv[me * n + me] {
            return false;
        }
        !bits::test(
            &self.pb_bits[slot * self.slot_bits..][..self.simple_words],
            me,
        )
    }

    /// Predicate `C2'`: `m.TDV[me] = TDV_me[me] ∧ ∃k fresh`.
    fn c2_prime(&self, me: usize, slot: usize) -> bool {
        let n = self.n;
        self.pb_tdv[slot * n + me] == self.tdv[me * n + me] && self.any_fresh(me, slot)
    }

    /// The spec's forced-checkpoint predicate, evaluated on the
    /// *pre-checkpoint* state (statement S2 of Figure 6).
    fn force_predicate(&self, me: usize, slot: usize) -> bool {
        match self.spec {
            ExecutorSpec::Bhmr => self.c1(me, slot) || self.c2(me, slot),
            ExecutorSpec::BhmrC2Only => self.c2(me, slot),
            ExecutorSpec::BhmrNoSimple => self.c1(me, slot) || self.c2_prime(me, slot),
            ExecutorSpec::BhmrCausalOnly => self.c1(me, slot),
            ExecutorSpec::Fdas => self.after_first_send[me] && self.any_fresh(me, slot),
            ExecutorSpec::Fdi => self.any_fresh(me, slot),
        }
    }

    /// Statement S2's control-variable update, run *after* any forced
    /// checkpoint (so the classification sees the post-checkpoint TDV,
    /// exactly like the legacy per-entry loop).
    fn apply_update(&mut self, me: usize, sender: usize, slot: usize) {
        let n = self.n;
        let wpr = self.wpr;
        let simple_words = self.simple_words;
        let causal_words = self.causal_words;
        let slot_bits = self.slot_bits;
        let identity_diagonal = self.spec.identity_diagonal();
        let Inner {
            tdv,
            simple,
            causal,
            pb_tdv,
            pb_bits,
            g_mask,
            e_mask,
            ..
        } = self;
        let mine = &mut tdv[me * n..(me + 1) * n];
        let theirs = &pb_tdv[slot * n..(slot + 1) * n];

        if slot_bits == 0 {
            // No bit-packed structures to classify for (FDAS/FDI): the
            // update is a plain pointwise max.
            for (t, &m) in mine.iter_mut().zip(theirs) {
                if m > *t {
                    *t = m;
                }
            }
            return;
        }

        // Classify every entry against the piggyback and merge the TDV in
        // the same pass: G (greater) rows are overwritten, E (equal) rows
        // are merged, the rest untouched. Chunked by 64 so each mask word
        // builds in a register.
        for (w, (my_chunk, their_chunk)) in mine
            .chunks_mut(bits::WORD_BITS)
            .zip(theirs.chunks(bits::WORD_BITS))
            .enumerate()
        {
            let mut g = 0u64;
            let mut e = 0u64;
            for (b, (t, &m)) in my_chunk.iter_mut().zip(their_chunk).enumerate() {
                if m > *t {
                    *t = m;
                    g |= 1u64 << b;
                } else if m == *t {
                    e |= 1u64 << b;
                }
            }
            g_mask[w] = g;
            e_mask[w] = e;
        }
        if simple_words > 0 {
            // Word-parallel merge of all n `simple` entries:
            //   greater: take the piggyback's bit;
            //   equal:   AND with the piggyback's bit;
            //   less:    keep ours.
            // s' = ((s & ¬G) | (ms & G)) & (¬E | ms)
            let my = &mut simple[me * simple_words..(me + 1) * simple_words];
            let pb = &pb_bits[slot * slot_bits..][..simple_words];
            for (((s, &ms), &g), &e) in my.iter_mut().zip(pb).zip(&*g_mask).zip(&*e_mask) {
                *s = ((*s & !g) | (ms & g)) & (!e | ms);
            }
        }
        if causal_words > 0 {
            let my = &mut causal[me * causal_words..(me + 1) * causal_words];
            let pb = &pb_bits[slot * slot_bits + simple_words..][..causal_words];
            if wpr == 1 {
                // n ≤ 64: one word per causal row, so the per-row
                // copy/OR selects branchlessly from the G/E bits.
                let g0 = g_mask[0];
                let e0 = e_mask[0];
                for (k, (row, &prow)) in my.iter_mut().zip(pb).enumerate() {
                    let gm = ((g0 >> k) & 1).wrapping_neg();
                    let em = ((e0 >> k) & 1).wrapping_neg();
                    *row = (gm & prow) | (!gm & (*row | (em & prow)));
                }
                // The delivered message is an on-line trackable R-path
                // from the sender's interval, and everything reaching the
                // sender now reaches us: causal[sender][me] := true, then
                // column-OR sender into me.
                my[sender] |= 1u64 << me;
                for row in my.iter_mut() {
                    *row |= ((*row >> sender) & 1) << me;
                }
                if !identity_diagonal {
                    for (k, row) in my.iter_mut().enumerate() {
                        *row &= !(1u64 << k);
                    }
                }
            } else {
                for k in 0..n {
                    let row = &mut my[k * wpr..(k + 1) * wpr];
                    let prow = &pb[k * wpr..(k + 1) * wpr];
                    if bits::test(g_mask, k) {
                        row.copy_from_slice(prow);
                    } else if bits::test(e_mask, k) {
                        bits::or_into(row, prow);
                    }
                }
                // causal[sender][me] := true, then column-OR sender into
                // me (see the one-word path above).
                bits::set(row_mut(my, sender, wpr), me);
                for (k, row) in my.chunks_exact_mut(wpr).enumerate() {
                    if bits::test(row, sender) {
                        bits::set(row, me);
                    }
                    if !identity_diagonal {
                        bits::clear(row, k);
                    }
                }
            }
        }
    }

    fn tdv_entry(&self, p: usize, k: usize) -> u32 {
        self.tdv[p * self.n + k]
    }

    fn sent_to_entry(&self, p: usize, j: usize) -> bool {
        bits::test(row(&self.sent_to, p, self.wpr), j)
    }

    fn simple_entry(&self, p: usize, k: usize) -> bool {
        self.simple_words > 0 && bits::test(row(&self.simple, p, self.simple_words), k)
    }

    fn causal_entry(&self, p: usize, k: usize, l: usize) -> bool {
        self.causal_words > 0 && bits::test(row(&self.causal, p * self.n + k, self.wpr), l)
    }

    fn pb_tdv_entry(&self, slot: usize, k: usize) -> u32 {
        self.pb_tdv[slot * self.n + k]
    }

    fn pb_simple_entry(&self, slot: usize, k: usize) -> bool {
        self.simple_words > 0
            && bits::test(
                &self.pb_bits[slot * self.slot_bits..][..self.simple_words],
                k,
            )
    }

    fn pb_causal_entry(&self, slot: usize, k: usize, l: usize) -> bool {
        let base = slot * self.slot_bits + self.simple_words + k * self.wpr;
        self.causal_words > 0 && bits::test(&self.pb_bits[base..][..self.wpr], l)
    }
}

/// Reference counts for the piggyback arena slots.
///
/// Kept in a `RefCell` separate from [`Inner`] so that
/// [`PackedPiggyback`]'s `Clone`/`Drop` never contend with a protocol
/// step borrowing the state slabs.
#[derive(Default)]
struct SlotTable {
    refcounts: Vec<u32>,
    free: Vec<u32>,
}

/// The shared bit-packed arena behind one run's [`ExecutorCell`]s.
///
/// Owns the per-process protocol state (TDV rows, `sent_to`/`simple`
/// words, `causal` row-slab) and the recycled piggyback scratch arena.
/// Create one per run with [`ExecutorState::new_shared`] and hand each
/// process an [`ExecutorCell::attach`] handle — or let [`spawner`] do
/// both.
pub struct ExecutorState {
    spec: ExecutorSpec,
    n: usize,
    /// Logical piggyback bytes per message (legacy-equivalent accounting).
    bytes: u32,
    inner: RefCell<Inner>,
    slots: RefCell<SlotTable>,
}

impl ExecutorState {
    /// Creates the shared state for an `n`-process run of `spec`, with
    /// every process at its initial checkpoint (statement S0).
    pub fn new_shared(spec: ExecutorSpec, n: usize) -> Rc<ExecutorState> {
        Rc::new(ExecutorState {
            spec,
            n,
            bytes: spec.piggyback_bytes(n) as u32,
            inner: RefCell::new(Inner::new(spec, n)),
            slots: RefCell::new(SlotTable::default()),
        })
    }

    /// The spec this state runs.
    pub fn spec(&self) -> ExecutorSpec {
        self.spec
    }

    /// Number of processes in the run.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Total piggyback arena slots ever allocated (high-water mark of
    /// simultaneously in-flight messages).
    pub fn arena_slots(&self) -> usize {
        self.slots.borrow().refcounts.len()
    }

    /// Arena slots currently on the free list (allocated but not holding
    /// a live piggyback).
    pub fn arena_free_slots(&self) -> usize {
        self.slots.borrow().free.len()
    }

    /// Capacities of every growable buffer, for no-alloc-growth
    /// assertions: once the arena has warmed up to the peak number of
    /// in-flight messages, further protocol steps must not allocate.
    pub fn buffer_capacities(&self) -> Vec<usize> {
        let inner = self.inner.borrow();
        let slots = self.slots.borrow();
        vec![
            inner.tdv.capacity(),
            inner.sent_to.capacity(),
            inner.simple.capacity(),
            inner.causal.capacity(),
            inner.after_first_send.capacity(),
            inner.pb_tdv.capacity(),
            inner.pb_bits.capacity(),
            inner.g_mask.capacity(),
            inner.e_mask.capacity(),
            slots.refcounts.capacity(),
            slots.free.capacity(),
        ]
    }

    /// Pops a recycled slot or grows the arena by one slot.
    #[inline]
    fn alloc_slot(&self) -> u32 {
        let mut slots = self.slots.borrow_mut();
        if let Some(slot) = slots.free.pop() {
            slots.refcounts[slot as usize] = 1;
            slot
        } else {
            let slot = slots.refcounts.len() as u32;
            slots.refcounts.push(1);
            let mut inner = self.inner.borrow_mut();
            let n = inner.n;
            let slot_bits = inner.slot_bits;
            inner.pb_tdv.resize((slot as usize + 1) * n, 0);
            inner.pb_bits.resize((slot as usize + 1) * slot_bits, 0);
            slot
        }
    }

    #[inline]
    fn retain_slot(&self, slot: u32) {
        self.slots.borrow_mut().refcounts[slot as usize] += 1;
    }
}

impl fmt::Debug for ExecutorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorState")
            .field("spec", &self.spec)
            .field("n", &self.n)
            .field("arena_slots", &self.arena_slots())
            .finish()
    }
}

/// A zero-copy piggyback: an arena slot reference into the run's shared
/// [`ExecutorState`].
///
/// Cloning bumps a reference count; dropping the last clone returns the
/// slot to the free list for the next send. [`PiggybackSize`] reports the
/// *logical* (legacy-equivalent) byte size, so Table 1 overhead numbers
/// are independent of the packed representation.
pub struct PackedPiggyback {
    shared: Rc<ExecutorState>,
    slot: u32,
    bytes: u32,
}

impl PackedPiggyback {
    /// The piggybacked `m.TDV[k]`.
    pub fn tdv_entry(&self, k: ProcessId) -> u32 {
        self.shared
            .inner
            .borrow()
            .pb_tdv_entry(self.slot as usize, k.index())
    }

    /// The piggybacked `m.simple[k]` (always `false` for specs without a
    /// `simple` vector).
    pub fn simple_entry(&self, k: ProcessId) -> bool {
        self.shared
            .inner
            .borrow()
            .pb_simple_entry(self.slot as usize, k.index())
    }

    /// The piggybacked `m.causal[k][l]` (always `false` for specs without
    /// a `causal` matrix).
    pub fn causal_entry(&self, k: ProcessId, l: ProcessId) -> bool {
        self.shared
            .inner
            .borrow()
            .pb_causal_entry(self.slot as usize, k.index(), l.index())
    }
}

impl Clone for PackedPiggyback {
    #[inline]
    fn clone(&self) -> PackedPiggyback {
        self.shared.retain_slot(self.slot);
        PackedPiggyback {
            shared: Rc::clone(&self.shared),
            slot: self.slot,
            bytes: self.bytes,
        }
    }
}

impl Drop for PackedPiggyback {
    #[inline]
    fn drop(&mut self) {
        // Never panic in Drop: if the slot table is unavailable (it never
        // is on the protocol paths; belt-and-braces for unwinds), leak the
        // slot instead.
        if let Ok(mut slots) = self.shared.slots.try_borrow_mut() {
            let slot = self.slot as usize;
            if slots.refcounts[slot] > 0 {
                slots.refcounts[slot] -= 1;
                if slots.refcounts[slot] == 0 {
                    slots.free.push(self.slot);
                }
            }
        }
    }
}

impl fmt::Debug for PackedPiggyback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedPiggyback")
            .field("spec", &self.shared.spec)
            .field("slot", &self.slot)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl PiggybackSize for PackedPiggyback {
    #[inline]
    fn piggyback_bytes(&self) -> usize {
        self.bytes as usize
    }
}

/// One process's handle on the shared executor: implements
/// [`CicProtocol`] over the packed arena.
///
/// The cell owns only its process identity and its [`ProtocolStats`]; all
/// protocol state lives in the shared [`ExecutorState`].
///
/// Because that arena is one `Rc` shared by all `n` processes of a run, a
/// cell cannot leave the thread that built it. The scalar machines
/// ([`crate::Bhmr`] and its siblings) are the implementation that runs one
/// process per thread:
///
/// ```compile_fail
/// fn is_send<T: Send>() {}
/// is_send::<rdt_core::ExecutorCell>();
/// ```
#[derive(Debug)]
pub struct ExecutorCell {
    shared: Rc<ExecutorState>,
    me: ProcessId,
    stats: ProtocolStats,
}

impl ExecutorCell {
    /// Attaches process `me` to a shared state.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for the state's process count.
    pub fn attach(shared: Rc<ExecutorState>, me: ProcessId) -> ExecutorCell {
        assert!(
            me.index() < shared.n,
            "process {me} out of range for {} processes",
            shared.n
        );
        ExecutorCell {
            shared,
            me,
            stats: ProtocolStats::default(),
        }
    }

    /// The shared state this cell runs on.
    pub fn state(&self) -> &Rc<ExecutorState> {
        &self.shared
    }

    /// Whether predicate `C1` participates in the forcing decision.
    pub fn uses_c1(&self) -> bool {
        self.shared.spec.uses_c1()
    }

    /// The current `TDV_me[k]`.
    pub fn tdv_entry(&self, k: ProcessId) -> u32 {
        self.shared
            .inner
            .borrow()
            .tdv_entry(self.me.index(), k.index())
    }

    /// The current checkpoint interval (`TDV_me[me]`).
    pub fn current_interval(&self) -> u32 {
        self.tdv_entry(self.me)
    }

    /// The current `sent_to[j]`.
    pub fn sent_to(&self, j: ProcessId) -> bool {
        self.shared
            .inner
            .borrow()
            .sent_to_entry(self.me.index(), j.index())
    }

    /// Whether a send has occurred in the current checkpoint interval.
    pub fn after_first_send(&self) -> bool {
        self.shared.inner.borrow().after_first_send[self.me.index()]
    }

    /// The current `simple[k]` (always `false` for specs without a
    /// `simple` vector).
    pub fn simple_entry(&self, k: ProcessId) -> bool {
        self.shared
            .inner
            .borrow()
            .simple_entry(self.me.index(), k.index())
    }

    /// The current `causal[k][l]` (always `false` for specs without a
    /// `causal` matrix).
    pub fn causal_entry(&self, k: ProcessId, l: ProcessId) -> bool {
        self.shared
            .inner
            .borrow()
            .causal_entry(self.me.index(), k.index(), l.index())
    }
}

impl CicProtocol for ExecutorCell {
    type Piggyback = PackedPiggyback;

    fn name(&self) -> &'static str {
        self.shared.spec.name()
    }

    fn process(&self) -> ProcessId {
        self.me
    }

    fn num_processes(&self) -> usize {
        self.shared.n
    }

    fn next_checkpoint_index(&self) -> u32 {
        self.current_interval()
    }

    fn take_basic_checkpoint(&mut self) -> CheckpointRecord {
        self.stats.basic_checkpoints += 1;
        self.shared
            .inner
            .borrow_mut()
            .take_checkpoint(self.me.index(), CheckpointKind::Basic)
    }

    #[inline]
    fn before_send(&mut self, dest: ProcessId) -> SendOutcome<PackedPiggyback> {
        // Statement S1, zero-allocation: reserve an arena slot and memcpy
        // the control structures into it.
        let slot = self.shared.alloc_slot();
        self.shared
            .inner
            .borrow_mut()
            .write_send(self.me.index(), dest.index(), slot as usize);
        let bytes = self.shared.bytes;
        self.stats.messages_sent += 1;
        self.stats.piggyback_bytes_sent += bytes as u64;
        SendOutcome {
            piggyback: PackedPiggyback {
                shared: Rc::clone(&self.shared),
                slot,
                bytes,
            },
            forced_after: None,
        }
    }

    #[inline]
    fn on_message_arrival(
        &mut self,
        sender: ProcessId,
        piggyback: &PackedPiggyback,
    ) -> ArrivalOutcome {
        // Statement S2: evaluate the predicate on the pre-checkpoint
        // state, then update the control variables against the
        // post-checkpoint TDV — the same order as the legacy protocols.
        let me = self.me.index();
        let slot = piggyback.slot as usize;
        let mut inner = self.shared.inner.borrow_mut();
        let forced = if inner.force_predicate(me, slot) {
            self.stats.forced_checkpoints += 1;
            Some(inner.take_checkpoint(me, CheckpointKind::Forced))
        } else {
            None
        };
        inner.apply_update(me, sender.index(), slot);
        self.stats.messages_delivered += 1;
        ArrivalOutcome { forced }
    }

    fn stats(&self) -> &ProtocolStats {
        &self.stats
    }
}

/// A protocol factory for the simulator and replay harnesses: returns a
/// closure with the `Fn(usize, ProcessId) -> ExecutorCell` shape expected
/// by `Runner::new`-style constructors.
///
/// Cells requested for processes `1..n` of the same process count share
/// the state created for process 0; requesting process 0 (or a different
/// process count) starts a fresh run with a fresh arena. This matches the
/// in-order `0, 1, …, n-1` construction used by the simulator and the
/// certifier's replayer.
pub fn spawner(spec: ExecutorSpec) -> impl Fn(usize, ProcessId) -> ExecutorCell {
    let current: RefCell<Option<Rc<ExecutorState>>> = RefCell::new(None);
    move |n, me| {
        let mut cur = current.borrow_mut();
        let state = match cur.take() {
            Some(state) if me.index() != 0 && state.num_processes() == n => state,
            _ => ExecutorState::new_shared(spec, n),
        };
        let cell = ExecutorCell::attach(Rc::clone(&state), me);
        *cur = Some(state);
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bhmr, CheckpointKind};
    use rdt_causality::CheckpointId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn cells(spec: ExecutorSpec, n: usize) -> Vec<ExecutorCell> {
        let make = spawner(spec);
        (0..n).map(|i| make(n, p(i))).collect()
    }

    #[test]
    fn initial_state_matches_s0() {
        let c = cells(ExecutorSpec::Bhmr, 3);
        assert_eq!(c[1].tdv_entry(p(0)), 0);
        assert_eq!(c[1].tdv_entry(p(1)), 1);
        assert_eq!(c[1].tdv_entry(p(2)), 0);
        assert_eq!(c[1].next_checkpoint_index(), 1);
        assert!(c[1].simple_entry(p(1)));
        assert!(!c[1].simple_entry(p(0)));
        assert!(c[1].causal_entry(p(0), p(0)));
        assert!(c[1].causal_entry(p(1), p(1)));
        assert!(!c[1].causal_entry(p(0), p(1)));
        assert!(!c[1].sent_to(p(0)));
        assert!(!c[1].sent_to(p(2)));
    }

    #[test]
    fn basic_checkpoint_advances_interval_and_resets_knowledge() {
        let mut c = cells(ExecutorSpec::Bhmr, 2);
        c[0].before_send(p(1));
        assert!(c[0].sent_to(p(1)));
        let record = c[0].take_basic_checkpoint();
        assert_eq!(record.id, CheckpointId::new(p(0), 1));
        assert_eq!(record.kind, CheckpointKind::Basic);
        assert_eq!(record.min_consistent_gc, Some(vec![1, 0]));
        assert_eq!(c[0].next_checkpoint_index(), 2);
        assert!(!c[0].sent_to(p(1)));
        assert!(!c[0].causal_entry(p(0), p(1)));
        assert!(c[0].simple_entry(p(0)), "own entry stays true");
    }

    #[test]
    fn first_arrival_never_forces() {
        let mut c = cells(ExecutorSpec::Bhmr, 2);
        let send = c[1].before_send(p(0));
        let outcome = c[0].on_message_arrival(p(1), &send.piggyback);
        assert!(!outcome.was_forced());
        assert_eq!(c[0].tdv_entry(p(0)), 1);
        assert_eq!(c[0].tdv_entry(p(1)), 1);
        assert!(c[0].causal_entry(p(1), p(0)));
    }

    #[test]
    fn c1_forces_on_breakable_chain_without_sibling() {
        let mut c = cells(ExecutorSpec::Bhmr, 3);
        let to_p1 = c[0].before_send(p(1));
        c[1].on_message_arrival(p(0), &to_p1.piggyback);
        c[2].take_basic_checkpoint();
        let m = c[2].before_send(p(0));
        let outcome = c[0].on_message_arrival(p(2), &m.piggyback);
        assert!(outcome.was_forced());
        let record = outcome.forced.unwrap();
        assert_eq!(record.kind, CheckpointKind::Forced);
        assert_eq!(record.id, CheckpointId::new(p(0), 1));
        // Forced checkpoint is taken BEFORE the delivery merges the new
        // dependency, so it lands in the next interval.
        assert_eq!(c[0].tdv_entry(p(0)), 2);
        assert_eq!(c[0].tdv_entry(p(1)), 0);
        assert_eq!(c[0].tdv_entry(p(2)), 2);
    }

    #[test]
    fn no_send_in_interval_means_no_c1() {
        let mut c = cells(ExecutorSpec::Bhmr, 3);
        c[2].take_basic_checkpoint();
        let m = c[2].before_send(p(0));
        assert!(!c[0].on_message_arrival(p(2), &m.piggyback).was_forced());
    }

    #[test]
    fn c2_forces_on_non_simple_chain_back_to_self() {
        let mut c = cells(ExecutorSpec::Bhmr, 2);
        let m1 = c[0].before_send(p(1));
        c[1].on_message_arrival(p(0), &m1.piggyback);
        c[1].take_basic_checkpoint();
        let m2 = c[1].before_send(p(0));
        assert_eq!(m2.piggyback.tdv_entry(p(0)), 1);
        assert!(!m2.piggyback.simple_entry(p(0)));
        let outcome = c[0].on_message_arrival(p(1), &m2.piggyback);
        assert!(outcome.was_forced());
        assert_eq!(c[0].stats().forced_checkpoints, 1);
    }

    #[test]
    fn simple_chain_back_to_self_does_not_force() {
        let mut c = cells(ExecutorSpec::Bhmr, 2);
        let m1 = c[0].before_send(p(1));
        c[1].on_message_arrival(p(0), &m1.piggyback);
        let m2 = c[1].before_send(p(0));
        assert!(m2.piggyback.simple_entry(p(0)));
        assert!(!c[0].on_message_arrival(p(1), &m2.piggyback).was_forced());
    }

    #[test]
    fn c2only_ignores_c1() {
        // The C1 scenario from above must NOT force under the weakened
        // spec (this is exactly what makes the certifier catch it).
        let mut c = cells(ExecutorSpec::BhmrC2Only, 3);
        let to_p1 = c[0].before_send(p(1));
        c[1].on_message_arrival(p(0), &to_p1.piggyback);
        c[2].take_basic_checkpoint();
        let m = c[2].before_send(p(0));
        assert!(!c[0].on_message_arrival(p(2), &m.piggyback).was_forced());
        assert!(!c[0].uses_c1());
    }

    #[test]
    fn nosimple_c2_prime_fires_on_new_dep_returning_chain() {
        let mut c = cells(ExecutorSpec::BhmrNoSimple, 2);
        let m1 = c[0].before_send(p(1));
        c[1].on_message_arrival(p(0), &m1.piggyback);
        c[1].take_basic_checkpoint();
        let m2 = c[1].before_send(p(0));
        assert!(c[0].on_message_arrival(p(1), &m2.piggyback).was_forced());
    }

    #[test]
    fn nosimple_is_more_conservative_than_full_bhmr_on_simple_chain() {
        let mut c = cells(ExecutorSpec::BhmrNoSimple, 2);
        let m1 = c[0].before_send(p(1));
        c[1].on_message_arrival(p(0), &m1.piggyback);
        let m2 = c[1].before_send(p(0));
        assert!(c[0].on_message_arrival(p(1), &m2.piggyback).was_forced());
    }

    #[test]
    fn causalonly_diagonal_stays_false() {
        let mut c = cells(ExecutorSpec::BhmrCausalOnly, 2);
        let m1 = c[1].before_send(p(0));
        c[0].on_message_arrival(p(1), &m1.piggyback);
        for k in 0..2 {
            assert!(!c[0].causal_entry(p(k), p(k)));
        }
        assert!(c[0].causal_entry(p(1), p(0)));
    }

    #[test]
    fn causalonly_breaks_same_process_chain_via_c1() {
        let mut c = cells(ExecutorSpec::BhmrCausalOnly, 2);
        let m1 = c[0].before_send(p(1));
        c[1].on_message_arrival(p(0), &m1.piggyback);
        c[1].take_basic_checkpoint();
        let m2 = c[1].before_send(p(0));
        assert!(c[0].on_message_arrival(p(1), &m2.piggyback).was_forced());
    }

    #[test]
    fn causalonly_no_send_no_force() {
        let mut c = cells(ExecutorSpec::BhmrCausalOnly, 2);
        c[1].take_basic_checkpoint();
        let m = c[1].before_send(p(0));
        assert!(!c[0].on_message_arrival(p(1), &m.piggyback).was_forced());
    }

    #[test]
    fn fdas_no_force_before_first_send() {
        let mut c = cells(ExecutorSpec::Fdas, 2);
        c[1].take_basic_checkpoint();
        let m = c[1].before_send(p(0));
        assert!(!c[0].on_message_arrival(p(1), &m.piggyback).was_forced());
        assert_eq!(c[0].tdv_entry(p(1)), 2);
    }

    #[test]
    fn fdas_forces_on_new_dependency_after_send() {
        let mut c = cells(ExecutorSpec::Fdas, 2);
        c[0].before_send(p(1));
        assert!(c[0].after_first_send());
        let m = c[1].before_send(p(0));
        let outcome = c[0].on_message_arrival(p(1), &m.piggyback);
        assert!(outcome.was_forced());
        assert_eq!(outcome.forced.unwrap().id, CheckpointId::new(p(0), 1));
        assert!(!c[0].after_first_send(), "interval reset by checkpoint");
    }

    #[test]
    fn fdi_forces_even_without_send() {
        let mut c = cells(ExecutorSpec::Fdi, 2);
        let m = c[1].before_send(p(0));
        assert!(c[0].on_message_arrival(p(1), &m.piggyback).was_forced());
    }

    #[test]
    fn min_gc_is_tdv_snapshot() {
        let mut c = cells(ExecutorSpec::Bhmr, 3);
        c[1].take_basic_checkpoint();
        let m = c[1].before_send(p(0));
        c[0].on_message_arrival(p(1), &m.piggyback);
        let record = c[0].take_basic_checkpoint();
        assert_eq!(record.min_consistent_gc, Some(vec![1, 2, 0]));
    }

    #[test]
    fn logical_piggyback_bytes_match_legacy_and_kind_table() {
        // Packed and legacy representations must report the same logical
        // bytes (Table 1's accounting), for every spec at every width.
        let mut legacy = Bhmr::new(4, p(0));
        let legacy_bytes = legacy.before_send(p(1)).piggyback.piggyback_bytes();
        assert_eq!(legacy_bytes, 19);
        let mut c = cells(ExecutorSpec::Bhmr, 4);
        let packed = c[0].before_send(p(1));
        assert_eq!(packed.piggyback.piggyback_bytes(), legacy_bytes);
        assert_eq!(ExecutorSpec::Bhmr.piggyback_bytes(4), legacy_bytes);

        fn sent_bytes<P: CicProtocol>(make: fn(usize, ProcessId) -> P, n: usize) -> usize {
            make(n, p(0)).before_send(p(1)).piggyback.piggyback_bytes()
        }
        for n in [2, 4, 8, 13, 64, 65] {
            for (spec, bytes) in [
                (ExecutorSpec::Bhmr, sent_bytes(Bhmr::new, n)),
                (
                    ExecutorSpec::BhmrNoSimple,
                    sent_bytes(crate::BhmrNoSimple::new, n),
                ),
                (
                    ExecutorSpec::BhmrCausalOnly,
                    sent_bytes(crate::BhmrCausalOnly::new, n),
                ),
                (ExecutorSpec::Fdas, sent_bytes(crate::Fdas::new, n)),
                (ExecutorSpec::Fdi, sent_bytes(crate::Fdi::new, n)),
            ] {
                assert_eq!(spec.piggyback_bytes(n), bytes, "{} at n={n}", spec.name());
            }
        }
        // FDAS at n=8: 32 bytes, same as the legacy unit test pins.
        assert_eq!(ExecutorSpec::Fdas.piggyback_bytes(8), 32);
    }

    #[test]
    fn piggyback_sizes_form_the_documented_lattice() {
        let n = 8;
        let full = ExecutorSpec::Bhmr.piggyback_bytes(n);
        let nosimple = ExecutorSpec::BhmrNoSimple.piggyback_bytes(n);
        let causalonly = ExecutorSpec::BhmrCausalOnly.piggyback_bytes(n);
        let fdas = ExecutorSpec::Fdas.piggyback_bytes(n);
        assert!(full > nosimple);
        assert_eq!(nosimple, causalonly);
        assert!(causalonly > fdas);
    }

    #[test]
    fn stats_track_all_events() {
        let mut c = cells(ExecutorSpec::Bhmr, 2);
        let m = c[0].before_send(p(1));
        c[1].on_message_arrival(p(0), &m.piggyback);
        c[0].take_basic_checkpoint();
        assert_eq!(c[0].stats().messages_sent, 1);
        assert_eq!(c[0].stats().basic_checkpoints, 1);
        assert_eq!(c[1].stats().messages_delivered, 1);
        assert_eq!(
            c[0].stats().piggyback_bytes_sent,
            ExecutorSpec::Bhmr.piggyback_bytes(2) as u64
        );
    }

    #[test]
    fn slots_are_recycled_once_piggybacks_drop() {
        let mut c = cells(ExecutorSpec::Bhmr, 2);
        let state = Rc::clone(c[0].state());
        {
            let m = c[0].before_send(p(1));
            assert_eq!(state.arena_slots(), 1);
            assert_eq!(state.arena_free_slots(), 0);
            // Clone bumps the refcount; dropping one clone keeps the slot.
            let extra = m.piggyback.clone();
            drop(extra);
            assert_eq!(state.arena_free_slots(), 0);
            c[1].on_message_arrival(p(0), &m.piggyback);
        }
        assert_eq!(state.arena_free_slots(), 1);
        // The next send reuses the slot instead of growing the arena.
        let _m2 = c[0].before_send(p(1));
        assert_eq!(state.arena_slots(), 1);
        assert_eq!(state.arena_free_slots(), 0);
    }

    #[test]
    fn steady_state_steps_do_not_grow_buffers() {
        // The PR 6 no-alloc-growth idiom: warm up, snapshot capacities,
        // keep working, assert nothing grew. With at most two messages in
        // flight the arena stabilises at two slots.
        let mut c = cells(ExecutorSpec::Bhmr, 3);
        let state = Rc::clone(c[0].state());
        let warm = |c: &mut Vec<ExecutorCell>| {
            for round in 0..20 {
                let a = c[0].before_send(p(1));
                let b = c[1].before_send(p(2));
                c[1].on_message_arrival(p(0), &a.piggyback);
                c[2].on_message_arrival(p(1), &b.piggyback);
                if round % 5 == 0 {
                    c[round % 3].take_basic_checkpoint();
                }
            }
        };
        warm(&mut c);
        let before = state.buffer_capacities();
        let slots_before = state.arena_slots();
        warm(&mut c);
        assert_eq!(state.buffer_capacities(), before);
        assert_eq!(state.arena_slots(), slots_before);
    }

    #[test]
    fn spawner_shares_state_within_a_run_and_resets_between_runs() {
        let make = spawner(ExecutorSpec::Fdas);
        let run1: Vec<ExecutorCell> = (0..3).map(|i| make(3, p(i))).collect();
        assert!(Rc::ptr_eq(run1[0].state(), run1[1].state()));
        assert!(Rc::ptr_eq(run1[0].state(), run1[2].state()));
        let run2: Vec<ExecutorCell> = (0..3).map(|i| make(3, p(i))).collect();
        assert!(Rc::ptr_eq(run2[0].state(), run2[1].state()));
        assert!(!Rc::ptr_eq(run1[0].state(), run2[0].state()));
    }

    #[test]
    fn word_parallel_paths_cover_multiple_words() {
        // 70 processes exercise the two-word (wpr = 2) masks: a C1 hit in
        // the second word and merges across the word boundary.
        let n = 70;
        let mut c = cells(ExecutorSpec::Bhmr, n);
        // P0 sends to P69 (bit 5 of word 1 of sent_to).
        let to_hi = c[0].before_send(p(69));
        c[69].on_message_arrival(p(0), &to_hi.piggyback);
        // P68 checkpoints and sends to P0: fresh dependency on P68 with no
        // causal path from P68's interval to P69 => C1 in word 1.
        c[68].take_basic_checkpoint();
        let m = c[68].before_send(p(0));
        assert!(c[0].on_message_arrival(p(68), &m.piggyback).was_forced());
        assert_eq!(c[0].tdv_entry(p(68)), 2);
        assert!(c[0].causal_entry(p(68), p(0)));
    }

    #[test]
    fn names_match_legacy() {
        assert_eq!(ExecutorSpec::Bhmr.name(), "bhmr");
        assert_eq!(ExecutorSpec::BhmrC2Only.name(), "bhmr-c2only");
        assert_eq!(ExecutorSpec::BhmrNoSimple.name(), "bhmr-nosimple");
        assert_eq!(ExecutorSpec::BhmrCausalOnly.name(), "bhmr-causalonly");
        assert_eq!(ExecutorSpec::Fdas.name(), "fdas");
        assert_eq!(ExecutorSpec::Fdi.name(), "fdi");
    }
}
