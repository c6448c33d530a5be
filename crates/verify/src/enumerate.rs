//! Exhaustive enumeration of checkpoint-and-communication skeletons.
//!
//! A *skeleton* is everything about an execution the driver controls:
//! each process's local sequence of basic checkpoints, sends (with
//! destination) and deliveries, plus the matching of every delivery to a
//! send. Forced checkpoints are **not** enumerated — protocols insert
//! them during replay. The enumeration is exhaustive up to a [`Scope`]:
//! every send count `0..=m`, every destination assignment, every subset
//! of messages delivered (the rest stay in transit), every interleaving
//! of deliveries with the local events, every placement of up to `b`
//! basic checkpoints.
//!
//! Two reductions keep the space tractable without losing coverage:
//!
//! * **Pattern-level, not schedule-level.** A protocol's piggyback is a
//!   function of sender-local history alone, so the replay outcome
//!   depends only on the skeleton — *which* global interleaving realizes
//!   it is irrelevant. Enumerating skeletons (and replaying one canonical
//!   linearization each) therefore covers all delivery interleavings at a
//!   fraction of the cost of a global-schedule tree
//!   (cf. `rdt::explore`, the naive ancestor of this module).
//! * **Symmetry pruning.** All protocols are process-symmetric, so of the
//!   up-to-`n!` relabelings of a skeleton only the lexicographically
//!   minimal encoding (the *canonical form*) is replayed; the rest are
//!   counted as pruned.

use rdt_causality::ProcessId;
use rdt_rgraph::{Pattern, PatternBuilder, PatternError};

use crate::Scope;

/// A layout slot: a local event whose delivery matching is not yet fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LSlot {
    /// A basic (autonomous) checkpoint.
    Basic,
    /// A send to `dest`.
    Send {
        /// Destination process index.
        dest: usize,
    },
    /// A delivery of some not-yet-chosen incoming message.
    Deliver,
}

/// Per-process event sequences with destinations but unmatched
/// deliveries; its matchings are expanded by whoever visits it.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub(crate) n: usize,
    pub(crate) lines: Vec<Vec<LSlot>>,
}

/// A fully matched slot: deliveries name their source send as
/// `(src process, ordinal among that process's sends)` — a description
/// that is stable under process relabeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    Basic,
    Send { dest: usize },
    Deliver { src: usize, ord: usize },
}

/// A complete skeleton: layout plus delivery matching.
#[derive(Debug, Clone)]
pub(crate) struct Skeleton {
    pub(crate) n: usize,
    pub(crate) lines: Vec<Vec<Slot>>,
}

/// One abstract driver event of a linearized skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverEvent {
    /// `process` takes a basic checkpoint.
    Basic {
        /// The checkpointing process.
        process: usize,
    },
    /// `from` sends message number `message` to `to`.
    Send {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
        /// Message number, in send order.
        message: usize,
    },
    /// `to` delivers message number `message`.
    Deliver {
        /// The delivering process.
        to: usize,
        /// Message number, in send order.
        message: usize,
    },
}

/// A linearized skeleton: the canonical execution order the replay driver
/// walks, with messages numbered in send order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of processes.
    pub n: usize,
    /// Events in execution order (lowest-runnable-process-first).
    pub events: Vec<DriverEvent>,
    /// `(from, to)` of every message, indexed by message number.
    pub messages: Vec<(usize, usize)>,
}

impl Schedule {
    /// Compact single-line rendering, e.g. `c0 s0>1#0 d1#0` — enough to
    /// reproduce a counterexample by hand.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            if !out.is_empty() {
                out.push(' ');
            }
            match *event {
                DriverEvent::Basic { process } => out.push_str(&format!("c{process}")),
                DriverEvent::Send { from, to, message } => {
                    out.push_str(&format!("s{from}>{to}#{message}"));
                }
                DriverEvent::Deliver { to, message } => out.push_str(&format!("d{to}#{message}")),
            }
        }
        out
    }

    /// The same schedule with every process relabeled by `perm`
    /// (`perm[old] = new`): events keep their order, messages keep their
    /// send-order numbering, only the process identities change. The
    /// result is a valid linearization of the relabeled skeleton, so it
    /// replays — tests use it to walk an orbit from its canonical
    /// representative.
    pub fn relabeled(&self, perm: &[usize]) -> Schedule {
        let events = self
            .events
            .iter()
            .map(|event| match *event {
                DriverEvent::Basic { process } => DriverEvent::Basic {
                    process: perm[process],
                },
                DriverEvent::Send { from, to, message } => DriverEvent::Send {
                    from: perm[from],
                    to: perm[to],
                    message,
                },
                DriverEvent::Deliver { to, message } => DriverEvent::Deliver {
                    to: perm[to],
                    message,
                },
            })
            .collect();
        let messages = self
            .messages
            .iter()
            .map(|&(from, to)| (perm[from], perm[to]))
            .collect();
        Schedule {
            n: self.n,
            events,
            messages,
        }
    }

    /// Builds the protocol-free pattern of this schedule (basic
    /// checkpoints only — what the enumerator guarantees about the space;
    /// protocol replays add forced checkpoints on top).
    ///
    /// # Errors
    ///
    /// Returns an error if the schedule is not a valid execution order —
    /// impossible for schedules produced by the enumerator.
    pub fn to_pattern(&self) -> Result<Pattern, PatternError> {
        let mut builder = PatternBuilder::new(self.n);
        let mut mids = Vec::with_capacity(self.messages.len());
        for event in &self.events {
            match *event {
                DriverEvent::Basic { process } => {
                    builder.checkpoint(ProcessId::new(process));
                }
                DriverEvent::Send { from, to, .. } => {
                    mids.push(builder.send(ProcessId::new(from), ProcessId::new(to)));
                }
                DriverEvent::Deliver { message, .. } => {
                    builder.deliver(mids[message])?;
                }
            }
        }
        builder.build()
    }
}

/// Tallies of one enumeration pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumerationCounts {
    /// Complete skeletons generated (layout × matching), before any
    /// reduction.
    pub structures: u64,
    /// Skeletons whose identity relabeling is the minimal encoding; only
    /// these proceed.
    pub canonical: u64,
    /// Skeletons discarded because a relabeling has a smaller encoding
    /// (an isomorphic skeleton is visited instead).
    pub pruned_symmetry: u64,
    /// Canonical skeletons admitting no execution order (e.g. cyclic
    /// delivery-before-send matchings).
    pub unrealizable: u64,
    /// Canonical, realizable skeletons handed to the visitor.
    pub replayable: u64,
}

impl EnumerationCounts {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &EnumerationCounts) {
        self.structures += other.structures;
        self.canonical += other.canonical;
        self.pruned_symmetry += other.pruned_symmetry;
        self.unrealizable += other.unrealizable;
        self.replayable += other.replayable;
    }
}

/// All permutations of `0..n` (identity first), for the canonical-form
/// check. `n <= 4` keeps this at 24 entries.
pub(crate) fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    fn heap(k: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(current.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, current, out);
            if k.is_multiple_of(2) {
                current.swap(i, k - 1);
            } else {
                current.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut current, &mut out);
    out.sort();
    out
}

/// Enumerates every layout of the scope, in a deterministic order.
fn enumerate_layouts(scope: &Scope) -> Vec<Layout> {
    let n = scope.processes;
    let mut out = Vec::new();
    for total_sends in 0..=scope.messages {
        let mut lines: Vec<Vec<LSlot>> = vec![Vec::new(); n];
        extend_process(
            n,
            0,
            total_sends,
            total_sends,
            scope.basics,
            &mut lines,
            &mut out,
        );
    }
    out
}

/// Recursively fills the word of process `i`, then moves on to `i + 1`.
/// `sends_left` must reach exactly zero over all processes (each send
/// budget is enumerated separately so no pattern is generated twice);
/// delivery and basic budgets are upper bounds.
fn extend_process(
    n: usize,
    i: usize,
    sends_left: usize,
    delivers_left: usize,
    basics_left: usize,
    lines: &mut Vec<Vec<LSlot>>,
    out: &mut Vec<Layout>,
) {
    if i == n {
        if sends_left == 0 {
            out.push(Layout {
                n,
                lines: lines.clone(),
            });
        }
        return;
    }
    // End process i's word here.
    extend_process(n, i + 1, sends_left, delivers_left, basics_left, lines, out);
    // Or grow it by one slot of each kind.
    if basics_left > 0 {
        lines[i].push(LSlot::Basic);
        extend_process(n, i, sends_left, delivers_left, basics_left - 1, lines, out);
        lines[i].pop();
    }
    if sends_left > 0 {
        for dest in 0..n {
            if dest == i {
                continue;
            }
            lines[i].push(LSlot::Send { dest });
            extend_process(n, i, sends_left - 1, delivers_left, basics_left, lines, out);
            lines[i].pop();
        }
    }
    if delivers_left > 0 {
        lines[i].push(LSlot::Deliver);
        extend_process(n, i, sends_left, delivers_left - 1, basics_left, lines, out);
        lines[i].pop();
    }
}

/// A send slot of a layout, in scan order (process-major, then position).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendSlot {
    pub(crate) process: usize,
    pub(crate) dest: usize,
    /// Ordinal among `process`'s sends (position order).
    pub(crate) ord: usize,
}

/// Reusable buffers for [`visit_layout`], reused across every layout a
/// pass expands, so the per-structure hot path allocates nothing at all.
struct LayoutScratch {
    sends: Vec<SendSlot>,
    /// Destination process of each deliver slot.
    delivers: Vec<usize>,
    used: Vec<bool>,
    chosen: Vec<usize>,
    matching: MatchScratch,
}

impl LayoutScratch {
    fn new(n: usize) -> Self {
        LayoutScratch {
            sends: Vec::new(),
            delivers: Vec::new(),
            used: Vec::new(),
            chosen: Vec::new(),
            matching: MatchScratch::new(n),
        }
    }
}

/// Reusable buffers for the per-structure hot path (skeleton build,
/// canonical-form check, linearization).
pub(crate) struct MatchScratch {
    pub(crate) skeleton: Skeleton,
    identity_perm: Vec<usize>,
    identity: Vec<u32>,
    inverse: Vec<usize>,
    cursor: Vec<usize>,
    /// `msg_of[i][ord]` = message number once send `ord` of process `i`
    /// ran.
    msg_of: Vec<Vec<Option<usize>>>,
    next_ord: Vec<usize>,
    pub(crate) schedule: Schedule,
}

impl MatchScratch {
    pub(crate) fn new(n: usize) -> Self {
        MatchScratch {
            skeleton: Skeleton {
                n,
                lines: vec![Vec::new(); n],
            },
            identity_perm: (0..n).collect(),
            identity: Vec::new(),
            inverse: vec![0; n],
            cursor: vec![0; n],
            msg_of: vec![Vec::new(); n],
            next_ord: vec![0; n],
            schedule: Schedule {
                n,
                events: Vec::new(),
                messages: Vec::new(),
            },
        }
    }
}

/// Expands all matchings of `layout`, applies symmetry pruning and the
/// realizability check, and hands each canonical realizable schedule to
/// `visit`. Returns the tallies of this layout.
fn visit_layout(
    layout: &Layout,
    perms: &[Vec<usize>],
    scratch: &mut LayoutScratch,
    visit: &mut dyn FnMut(&Schedule),
) -> EnumerationCounts {
    let mut counts = EnumerationCounts::default();
    let LayoutScratch {
        sends,
        delivers,
        used,
        chosen,
        matching,
    } = scratch;
    sends.clear();
    delivers.clear();
    for (i, line) in layout.lines.iter().enumerate() {
        let mut ord = 0;
        for slot in line {
            match *slot {
                LSlot::Send { dest } => {
                    sends.push(SendSlot {
                        process: i,
                        dest,
                        ord,
                    });
                    ord += 1;
                }
                LSlot::Deliver => delivers.push(i),
                LSlot::Basic => {}
            }
        }
    }
    // Cheap feasibility cut: a process cannot deliver more messages than
    // are addressed to it.
    for j in 0..layout.n {
        let incoming = sends.iter().filter(|s| s.dest == j).count();
        let wanted = delivers.iter().filter(|&&d| d == j).count();
        if wanted > incoming {
            return counts;
        }
    }
    used.clear();
    used.resize(sends.len(), false);
    chosen.clear();
    chosen.resize(delivers.len(), usize::MAX);
    match_delivers(
        layout,
        sends,
        delivers,
        0,
        used,
        chosen,
        perms,
        matching,
        &mut counts,
        visit,
    );
    counts
}

#[allow(clippy::too_many_arguments)] // recursive worker, all state is hot
fn match_delivers(
    layout: &Layout,
    sends: &[SendSlot],
    delivers: &[usize],
    k: usize,
    used: &mut Vec<bool>,
    chosen: &mut Vec<usize>,
    perms: &[Vec<usize>],
    scratch: &mut MatchScratch,
    counts: &mut EnumerationCounts,
    visit: &mut dyn FnMut(&Schedule),
) {
    if k == delivers.len() {
        counts.structures += 1;
        build_skeleton(layout, sends, chosen, &mut scratch.skeleton);
        if !is_canonical(scratch, perms) {
            counts.pruned_symmetry += 1;
            return;
        }
        counts.canonical += 1;
        if linearize(scratch) {
            counts.replayable += 1;
            visit(&scratch.schedule);
        } else {
            counts.unrealizable += 1;
        }
        return;
    }
    for (si, send) in sends.iter().enumerate() {
        if used[si] || send.dest != delivers[k] {
            continue;
        }
        used[si] = true;
        chosen[k] = si;
        match_delivers(
            layout,
            sends,
            delivers,
            k + 1,
            used,
            chosen,
            perms,
            scratch,
            counts,
            visit,
        );
        used[si] = false;
    }
}

pub(crate) fn build_skeleton(
    layout: &Layout,
    sends: &[SendSlot],
    chosen: &[usize],
    out: &mut Skeleton,
) {
    let mut deliver_index = 0;
    out.n = layout.n;
    for (line, out_line) in layout.lines.iter().zip(out.lines.iter_mut()) {
        out_line.clear();
        out_line.extend(line.iter().map(|slot| match *slot {
            LSlot::Basic => Slot::Basic,
            LSlot::Send { dest } => Slot::Send { dest },
            LSlot::Deliver => {
                let send = sends[chosen[deliver_index]];
                deliver_index += 1;
                Slot::Deliver {
                    src: send.process,
                    ord: send.ord,
                }
            }
        }));
    }
}

/// Packs one slot, relabeled by `perm`, into a single word whose
/// natural order equals the lexicographic order of the
/// `(kind, process-payload, ordinal)` triple. Slot counts stay far
/// below `1 << 8` at certifiable scopes, so the fields never collide,
/// and the `u32::MAX` line separator stays strictly above every slot.
#[inline]
pub(crate) fn encode_slot(slot: Slot, perm: &[usize]) -> u32 {
    match slot {
        Slot::Basic => 0,
        Slot::Send { dest } => (1 << 16) | ((perm[dest] as u32) << 8),
        Slot::Deliver { src, ord } => (2 << 16) | ((perm[src] as u32) << 8) | ord as u32,
    }
}

/// Serializes the skeleton as relabeled by `perm` (`perm[old] = new`).
/// Lines are emitted in new-process order; slot payloads are relabeled.
fn encode_relabeled(
    skeleton: &Skeleton,
    perm: &[usize],
    inverse: &mut [usize],
    buf: &mut Vec<u32>,
) {
    buf.clear();
    // inverse[j] = the old process that becomes new process j.
    for (old, &new) in perm.iter().enumerate() {
        inverse[new] = old;
    }
    for &old in inverse.iter() {
        for &slot in &skeleton.lines[old] {
            buf.push(encode_slot(slot, perm));
        }
        buf.push(u32::MAX); // line separator
    }
}

/// A skeleton is canonical iff no relabeling encodes strictly smaller
/// than the identity. Exactly one member of each isomorphism orbit is
/// canonical, so replaying canonical skeletons covers the orbit.
///
/// Non-identity relabelings are compared against the identity encoding
/// as they stream, bailing out at the first differing word — the full
/// relabeled encoding is never materialized.
fn is_canonical(scratch: &mut MatchScratch, perms: &[Vec<usize>]) -> bool {
    let MatchScratch {
        skeleton,
        identity_perm,
        identity,
        inverse,
        ..
    } = scratch;
    encode_relabeled(skeleton, identity_perm, inverse, identity);
    'perm: for perm in perms {
        if perm[..] == identity_perm[..] {
            continue;
        }
        for (old, &new) in perm.iter().enumerate() {
            inverse[new] = old;
        }
        let mut pos = 0;
        for &old in inverse.iter() {
            for &slot in &skeleton.lines[old] {
                let word = encode_slot(slot, perm);
                match word.cmp(&identity[pos]) {
                    std::cmp::Ordering::Less => return false,
                    std::cmp::Ordering::Greater => continue 'perm,
                    std::cmp::Ordering::Equal => pos += 1,
                }
            }
            match u32::MAX.cmp(&identity[pos]) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => continue 'perm,
                std::cmp::Ordering::Equal => pos += 1,
            }
        }
        // Equal length and all words equal: the relabeling is not
        // strictly smaller, so it cannot disqualify the skeleton.
    }
    true
}

/// Like [`is_canonical`], but restricted to the `undecided` subset of
/// `perms` (indices into it) and counting the skeleton's stabilizer on
/// the way: returns `None` when some undecided relabeling encodes
/// strictly smaller (non-canonical), otherwise `Some(|Stab|)` — the
/// number of relabelings (identity included) that reproduce the skeleton
/// exactly. The orbit-pruned enumerator divides `n!` by the stabilizer to
/// recover full-space structure counts without generating the orbit.
///
/// Relabelings already classified strictly-greater at the layout level
/// are sound to omit: a strictly greater encoding can neither disqualify
/// the skeleton nor equal its identity encoding.
pub(crate) fn canonical_stab(
    scratch: &mut MatchScratch,
    perms: &[Vec<usize>],
    undecided: &[usize],
) -> Option<u64> {
    let mut stab = 1u64;
    if undecided.is_empty() {
        return Some(stab);
    }
    let MatchScratch {
        skeleton,
        identity_perm,
        identity,
        inverse,
        ..
    } = scratch;
    encode_relabeled(skeleton, identity_perm, inverse, identity);
    'perm: for &pi in undecided {
        let perm = &perms[pi];
        for (old, &new) in perm.iter().enumerate() {
            inverse[new] = old;
        }
        let mut pos = 0;
        for &old in inverse.iter() {
            for &slot in &skeleton.lines[old] {
                let word = encode_slot(slot, perm);
                match word.cmp(&identity[pos]) {
                    std::cmp::Ordering::Less => return None,
                    std::cmp::Ordering::Greater => continue 'perm,
                    std::cmp::Ordering::Equal => pos += 1,
                }
            }
            match u32::MAX.cmp(&identity[pos]) {
                std::cmp::Ordering::Less => return None,
                std::cmp::Ordering::Greater => continue 'perm,
                std::cmp::Ordering::Equal => pos += 1,
            }
        }
        // Equal end to end: `perm` maps the skeleton onto itself.
        stab += 1;
    }
    Some(stab)
}

/// Streams the identity encoding of `scratch`'s skeleton word by word
/// into an FNV-1a hash — the deterministic per-orbit key behind
/// stratified sampling. The key is a pure function of the canonical
/// representative, so it is identical for every thread count and
/// work-unit split.
pub(crate) fn skeleton_key(scratch: &MatchScratch) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for line in &scratch.skeleton.lines {
        for &slot in line {
            absorb(encode_slot(slot, &scratch.identity_perm));
        }
        absorb(u32::MAX);
    }
    hash
}

/// Produces the canonical linearization (greedy lowest-index-runnable
/// process first) into `scratch.schedule`, or `false` if the matching
/// admits no execution order (some delivery transitively awaits a send
/// that never becomes ready).
pub(crate) fn linearize(scratch: &mut MatchScratch) -> bool {
    let MatchScratch {
        skeleton,
        cursor,
        msg_of,
        next_ord,
        schedule,
        ..
    } = scratch;
    let n = skeleton.n;
    cursor.iter_mut().for_each(|c| *c = 0);
    next_ord.iter_mut().for_each(|o| *o = 0);
    for (line, of) in skeleton.lines.iter().zip(msg_of.iter_mut()) {
        let sends = line
            .iter()
            .filter(|s| matches!(s, Slot::Send { .. }))
            .count();
        of.clear();
        of.resize(sends, None);
    }
    let total: usize = skeleton.lines.iter().map(Vec::len).sum();
    let events = &mut schedule.events;
    let messages = &mut schedule.messages;
    events.clear();
    messages.clear();

    loop {
        let mut progressed = false;
        for i in 0..n {
            let line = &skeleton.lines[i];
            let Some(&slot) = line.get(cursor[i]) else {
                continue;
            };
            match slot {
                Slot::Basic => events.push(DriverEvent::Basic { process: i }),
                Slot::Send { dest } => {
                    let message = messages.len();
                    messages.push((i, dest));
                    msg_of[i][next_ord[i]] = Some(message);
                    next_ord[i] += 1;
                    events.push(DriverEvent::Send {
                        from: i,
                        to: dest,
                        message,
                    });
                }
                Slot::Deliver { src, ord } => {
                    let Some(message) = msg_of[src][ord] else {
                        continue; // source send not executed yet
                    };
                    events.push(DriverEvent::Deliver { to: i, message });
                }
            }
            cursor[i] += 1;
            progressed = true;
            break; // restart the scan from process 0
        }
        if !progressed {
            break;
        }
    }
    events.len() == total
}

/// Runs the full enumeration of `scope` serially, handing every canonical
/// realizable schedule to `visit`, and returns the tallies. This is the
/// baseline (layout) enumerator: it builds every structure and filters
/// afterwards, and is the reference the orbit-pruned enumerator the
/// certifier runs on ([`crate::enumerate_schedules_orbit`]) is held to.
pub fn enumerate_schedules(scope: &Scope, mut visit: impl FnMut(&Schedule)) -> EnumerationCounts {
    let perms = permutations(scope.processes);
    let mut counts = EnumerationCounts::default();
    let mut scratch = LayoutScratch::new(scope.processes);
    for layout in enumerate_layouts(scope) {
        counts.absorb(&visit_layout(&layout, &perms, &mut scratch, &mut visit));
    }
    counts
}

/// Materializes the protocol-free pattern of every canonical realizable
/// skeleton in the scope, with the enumeration tallies. Mainly for tests:
/// the certifier streams schedules instead.
pub fn enumerate_patterns(scope: &Scope) -> (Vec<Pattern>, EnumerationCounts) {
    let mut patterns = Vec::new();
    let counts = enumerate_schedules(scope, |schedule| {
        if let Ok(pattern) = schedule.to_pattern() {
            patterns.push(pattern);
        }
    });
    (patterns, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(n: usize, m: usize, b: usize) -> EnumerationCounts {
        let scope = Scope::with_basics(n, m, b).unwrap();
        enumerate_schedules(&scope, |_| {})
    }

    #[test]
    fn permutations_are_complete_and_sorted() {
        assert_eq!(permutations(1), vec![vec![0]]);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        assert_eq!(permutations(2), vec![vec![0, 1], vec![1, 0]]);
    }

    /// n=1: no sends are possible (no self-channels); the space is just
    /// the chains of 0..=b basic checkpoints.
    #[test]
    fn single_process_counts_are_checkpoint_chains() {
        let c = counts(1, 2, 2);
        assert_eq!(c.structures, 3); // [], [c], [c,c]
        assert_eq!(c.canonical, 3);
        assert_eq!(c.pruned_symmetry, 0);
        assert_eq!(c.unrealizable, 0);
        assert_eq!(c.replayable, 3);
    }

    /// Hand count for n=2, m=1, b=0 (see doc table in VERIFICATION.md):
    /// k=0: the empty pattern. k=1: sender P0 or P1, message delivered or
    /// in transit → 4 skeletons, 5 total; orbits: {empty},
    /// {P0 sends ↔ P1 sends} undelivered, {..} delivered → 3 canonical.
    #[test]
    fn two_process_one_message_counts() {
        let c = counts(2, 1, 0);
        assert_eq!(c.structures, 5);
        assert_eq!(c.canonical, 3);
        assert_eq!(c.pruned_symmetry, 2);
        assert_eq!(c.unrealizable, 0);
        assert_eq!(c.replayable, 3);
    }

    /// Hand count for n=2, m=2, b=0.
    ///
    /// k≤1 contributes 5 structures (previous test). k=2 splits by send
    /// distribution:
    /// * (2,0) — P0 sends both: P1 delivers 0, 1 (×2 choices) or 2 (×2
    ///   orders) of them → 5; (0,2) mirrors → 5.
    /// * (1,1) — one send each: each process optionally delivers the
    ///   other's message, before or after its own send → 1 (neither
    ///   delivers) + 2 + 2 (one delivers) + 4 (both deliver) = 9,
    ///   including the deliver-before-send-on-both-sides cycle, which is
    ///   the scope's single unrealizable skeleton.
    ///
    /// Total 24 structures; orbits: 3 (k≤1) + 5 (the (2,0)/(0,2) mirror
    /// classes) + 6 ((1,1): 1 + 2 + 3) = 14 canonical, of which the cycle
    /// is unrealizable → 13 replayable.
    #[test]
    fn two_process_two_message_counts() {
        let c = counts(2, 2, 0);
        assert_eq!(c.structures, 24);
        assert_eq!(c.canonical, 14);
        assert_eq!(c.pruned_symmetry, 10);
        assert_eq!(c.unrealizable, 1);
        assert_eq!(c.replayable, 13);
    }

    /// Basic checkpoints only, n=2: ≤2 basics over two symmetric
    /// processes.
    #[test]
    fn two_process_basics_only_counts() {
        let c = counts(2, 0, 2);
        // {}, [c]/[], []/[c], [cc]/[], []/[cc], [c]/[c]
        assert_eq!(c.structures, 6);
        assert_eq!(c.canonical, 4);
        assert_eq!(c.pruned_symmetry, 2);
        assert_eq!(c.replayable, 4);
    }

    #[test]
    fn canonical_plus_pruned_covers_structures() {
        for (n, m, b) in [(2, 2, 1), (3, 2, 0), (3, 3, 1)] {
            let c = counts(n, m, b);
            assert_eq!(c.canonical + c.pruned_symmetry, c.structures, "{n},{m},{b}");
            assert_eq!(c.replayable + c.unrealizable, c.canonical, "{n},{m},{b}");
            assert!(c.replayable > 0);
        }
    }

    /// Every canonical realizable schedule builds a valid pattern, and
    /// the linearization is a real execution order (sends precede their
    /// deliveries).
    #[test]
    fn schedules_build_patterns() {
        let scope = Scope::with_basics(3, 2, 1).unwrap();
        let (patterns, c) = enumerate_patterns(&scope);
        assert_eq!(patterns.len() as u64, c.replayable);
        for pattern in &patterns {
            assert!(pattern.num_processes() == 3);
        }
    }

    /// The enumeration must contain the paper's Figure 2 skeleton shape
    /// (up to relabeling): some middle process delivers a message `a`
    /// *after* sending its own message `b` to a third process — the
    /// hidden-dependency chain `sender(a) → middle → dest(b)` that `C1`
    /// exists to break.
    #[test]
    fn figure_2_shape_is_enumerated() {
        let scope = Scope::with_basics(3, 2, 0).unwrap();
        let mut found = false;
        enumerate_schedules(&scope, |schedule| {
            if schedule.messages.len() != 2 {
                return;
            }
            let position = |wanted: &DriverEvent| schedule.events.iter().position(|e| e == wanted);
            for (a, b) in [(0, 1), (1, 0)] {
                let (a_from, a_to) = schedule.messages[a];
                let (b_from, b_to) = schedule.messages[b];
                let middle_relays = a_to == b_from && a_from != b_to && a_from != a_to;
                let deliver_a = position(&DriverEvent::Deliver {
                    to: a_to,
                    message: a,
                });
                let send_b = position(&DriverEvent::Send {
                    from: b_from,
                    to: b_to,
                    message: b,
                });
                let b_delivered = position(&DriverEvent::Deliver {
                    to: b_to,
                    message: b,
                })
                .is_some();
                if middle_relays && b_delivered && send_b < deliver_a && deliver_a.is_some() {
                    found = true;
                }
            }
        });
        assert!(found, "hidden-dependency skeleton missing from the scope");
    }

    #[test]
    fn render_is_compact_and_stable() {
        let scope = Scope::with_basics(2, 1, 0).unwrap();
        let mut renders = Vec::new();
        enumerate_schedules(&scope, |s| renders.push(s.render()));
        assert_eq!(renders, ["", "s0>1#0", "s0>1#0 d1#0"]);
    }

    #[test]
    fn relabeled_schedule_renders_with_new_process_ids() {
        let scope = Scope::with_basics(2, 1, 0).unwrap();
        let mut renders = Vec::new();
        enumerate_schedules(&scope, |s| renders.push(s.relabeled(&[1, 0]).render()));
        assert_eq!(renders, ["", "s1>0#0", "s1>0#0 d0#0"]);
    }
}
