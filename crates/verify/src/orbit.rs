//! Orbit-pruned, work-unit-streamed enumeration.
//!
//! The baseline enumerator ([`crate::enumerate`]) generates every layout,
//! expands every matching, and discards non-canonical skeletons *after*
//! building them — at scope (3,4) that is ~1M materialized layouts and
//! 260k encoded skeletons of which 86% are relabelings of one another.
//! This module moves the symmetry quotient inside the generator:
//!
//! * **Masked relabeling classification.** A layout fixes every slot
//!   kind and send destination; only delivery matchings are open. For a
//!   relabeling π, compare the π-relabeled slot stream against the
//!   identity stream word by word, treating a deliver-vs-deliver
//!   position as *unknown* (its payload depends on the matching) —
//!   every other position compares identically in the layout and in any
//!   completed skeleton. If the walk decides **less** before touching an
//!   unknown position, *every* skeleton of the layout is non-canonical:
//!   the whole layout (and, at interior line boundaries, the whole
//!   not-yet-generated subtree) is pruned. If it decides **greater**, π
//!   can never disqualify any skeleton of the layout and is dropped from
//!   the per-skeleton checks. Only relabelings still *undecided* at the
//!   first unknown position are carried into the per-skeleton streaming
//!   compare — at scope (3,4) that leaves fewer than one undecided
//!   relabeling per skeleton on average.
//! * **Orbit–stabilizer counting.** Pruned structures are never
//!   generated, so full-space tallies are recovered per canonical
//!   skeleton as `orbit = n! / |Stab|`, where the stabilizer is counted
//!   by the same streaming compare that proves canonicality
//!   ([`canonical_stab`]). Reported counts are identical to the
//!   baseline's — pinned by differential tests and the (3,4) regression.
//! * **Self-describing work units.** A [`WorkUnit`] is a send budget
//!   plus one complete first-process line: a few bytes that any worker
//!   can expand independently, in a deterministic order that reproduces
//!   the baseline's global schedule stream exactly (units are emitted in
//!   first-line DFS pre-order, the order the baseline recursion visits
//!   them). Consecutive units share long first-line prefixes, so the
//!   schedules a worker replays share long op prefixes — which is what
//!   the prefix-sharing replay sessions in [`crate::certify`] feed on.
//!
//! The independent-event commutation quotient is inherited from the
//! skeleton representation itself: schedules are canonical greedy
//! linearizations, so all interleavings that differ only by commuting
//! concurrent events collapse into one replayed schedule (see the
//! module docs of [`crate::enumerate`]).

use crate::enumerate::{
    build_skeleton, canonical_stab, linearize, permutations, skeleton_key, EnumerationCounts,
    LSlot, Layout, MatchScratch, Schedule, SendSlot,
};
use crate::Scope;

/// One self-describing unit of enumeration work: the scope-wide send
/// budget plus process 0's complete event line. Workers regrow lines
/// `1..n` and every matching behind it, so a unit stays a few bytes no
/// matter how large its subtree is.
#[derive(Debug, Clone)]
pub(crate) struct WorkUnit {
    /// Total sends of every layout in this unit's subtree.
    pub(crate) total_sends: usize,
    /// Process 0's complete line.
    pub(crate) line0: Vec<LSlot>,
}

/// Enumerates every work unit of the scope, in the exact order the
/// baseline enumerator visits the corresponding subtrees: ascending send
/// budget, then first-line DFS pre-order (a prefix is emitted before its
/// extensions). Expanding the units in order therefore reproduces the
/// baseline's schedule stream — and consecutive units share first-line
/// prefixes, which keeps replay-session prefix reuse high.
pub(crate) fn enumerate_units(scope: &Scope) -> Vec<WorkUnit> {
    let mut out = Vec::new();
    for total_sends in 0..=scope.messages {
        let mut line0 = Vec::new();
        grow_unit(
            scope.processes,
            total_sends,
            total_sends,
            total_sends,
            scope.basics,
            &mut line0,
            &mut out,
        );
    }
    out
}

fn grow_unit(
    n: usize,
    total_sends: usize,
    sends_left: usize,
    delivers_left: usize,
    basics_left: usize,
    line0: &mut Vec<LSlot>,
    out: &mut Vec<WorkUnit>,
) {
    out.push(WorkUnit {
        total_sends,
        line0: line0.clone(),
    });
    if basics_left > 0 {
        line0.push(LSlot::Basic);
        grow_unit(
            n,
            total_sends,
            sends_left,
            delivers_left,
            basics_left - 1,
            line0,
            out,
        );
        line0.pop();
    }
    if sends_left > 0 {
        for dest in 1..n {
            line0.push(LSlot::Send { dest });
            grow_unit(
                n,
                total_sends,
                sends_left - 1,
                delivers_left,
                basics_left,
                line0,
                out,
            );
            line0.pop();
        }
    }
    if delivers_left > 0 {
        line0.push(LSlot::Deliver);
        grow_unit(
            n,
            total_sends,
            sends_left,
            delivers_left - 1,
            basics_left,
            line0,
            out,
        );
        line0.pop();
    }
}

/// Per-orbit metadata handed to the schedule visitor.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleMeta {
    /// Size of the structure's isomorphism orbit (`n! / |Stab|`): how
    /// many full-space structures this canonical representative covers.
    pub orbit: u64,
    /// Deterministic FNV-1a key of the canonical encoding (all zeros
    /// unless key computation was requested) — the stratified-sampling
    /// coordinate.
    pub key: u64,
}

/// Enumeration-side work tallies of the orbit-pruned enumerator (everything
/// here is deterministic; wall-clock lives elsewhere).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrbitStats {
    /// Work units expanded.
    pub units: u64,
    /// Full layouts whose matchings were expanded.
    pub layouts: u64,
    /// Full layouts discarded whole by a masked relabeling compare.
    pub layouts_pruned: u64,
    /// Interior line-boundary prunes (each cuts an entire generation
    /// subtree before it is built).
    pub subtree_cuts: u64,
    /// Per-skeleton streaming relabeling compares actually run (the
    /// undecided residue the masked classification could not settle).
    pub perm_checks: u64,
}

impl OrbitStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &OrbitStats) {
        self.units += other.units;
        self.layouts += other.layouts;
        self.layouts_pruned += other.layouts_pruned;
        self.subtree_cuts += other.subtree_cuts;
        self.perm_checks += other.perm_checks;
    }
}

/// Masked comparison outcome of one relabeled layout stream against the
/// identity stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MaskedOrd {
    /// Strictly smaller for every matching: prune.
    Less,
    /// Strictly greater for every matching: the relabeling can never
    /// disqualify a skeleton of this layout.
    Greater,
    /// Identical streams with no deliver slots involved (a layout
    /// automorphism; only possible on deliver-free layouts).
    Equal,
    /// Decision depends on the delivery matching.
    Undecided,
}

/// Kind word of a deliver slot; its matching-dependent payload occupies
/// the low 16 bits, so deliver-vs-non-deliver comparisons are decided by
/// the kind alone.
const DELIVER_KIND: u32 = 2 << 16;

/// The masked word of a layout slot under `perm`, or `None` for a
/// deliver (payload unknown until a matching is chosen).
#[inline]
fn masked_word(slot: LSlot, perm: &[usize]) -> Option<u32> {
    match slot {
        LSlot::Basic => Some(0),
        LSlot::Send { dest } => Some((1 << 16) | ((perm[dest] as u32) << 8)),
        LSlot::Deliver => None,
    }
}

/// Shared, read-only state of the orbit-pruned enumerator: the
/// permutation tables of the scope. Build once, share across workers.
pub(crate) struct OrbitContext {
    n: usize,
    factorial: u64,
    /// All permutations of `0..n`, sorted, identity first.
    perms: Vec<Vec<usize>>,
    /// `inverses[k][new] = old` for `perms[k]`.
    inverses: Vec<Vec<usize>>,
    /// `region_perms[r]` = indices of non-identity permutations that fix
    /// every process `>= r` (i.e. the embedded `S_r`), for the boundary
    /// check after line `r - 1` completes.
    region_perms: Vec<Vec<usize>>,
    /// Whether to compute per-orbit sampling keys.
    with_keys: bool,
}

impl OrbitContext {
    pub(crate) fn new(scope: &Scope, with_keys: bool) -> Self {
        let n = scope.processes;
        let perms = permutations(n);
        let inverses: Vec<Vec<usize>> = perms
            .iter()
            .map(|perm| {
                let mut inv = vec![0; n];
                for (old, &new) in perm.iter().enumerate() {
                    inv[new] = old;
                }
                inv
            })
            .collect();
        let region_perms: Vec<Vec<usize>> = (0..=n)
            .map(|r| {
                perms
                    .iter()
                    .enumerate()
                    .skip(1) // identity sorts first
                    .filter(|(_, perm)| (r..n).all(|j| perm[j] == j))
                    .map(|(idx, _)| idx)
                    .collect()
            })
            .collect();
        OrbitContext {
            n,
            factorial: (1..=n as u64).product(),
            perms,
            inverses,
            region_perms,
            with_keys,
        }
    }

    /// Expands one work unit: regrows lines `1..n` with masked-relabeling
    /// subtree pruning at every line boundary, expands matchings of each
    /// surviving layout, proves canonicality over the undecided residue,
    /// counts orbits, and hands every canonical realizable schedule (with
    /// its orbit size and sampling key) to `emit` — in the baseline
    /// enumerator's order.
    pub(crate) fn run_unit(
        &self,
        unit: &WorkUnit,
        scratch: &mut OrbitScratch,
        counts: &mut EnumerationCounts,
        stats: &mut OrbitStats,
        emit: &mut dyn FnMut(&Schedule, ScheduleMeta),
    ) {
        stats.units += 1;
        for line in &mut scratch.lines {
            line.clear();
        }
        scratch.lines[0].extend_from_slice(&unit.line0);
        let mut sends0 = 0;
        let mut delivers0 = 0;
        let mut basics0 = 0;
        for slot in &unit.line0 {
            match slot {
                LSlot::Basic => basics0 += 1,
                LSlot::Send { .. } => sends0 += 1,
                LSlot::Deliver => delivers0 += 1,
            }
        }
        self.boundary_and_descend(
            0,
            unit.total_sends - sends0,
            unit.total_sends - delivers0,
            scratch.basics_budget - basics0,
            scratch,
            counts,
            stats,
            emit,
        );
    }

    /// Line `i` just completed: run the boundary checks over lines
    /// `0..=i` and, if the subtree survives, move on to line `i + 1` (or
    /// matching expansion once every line is placed).
    #[allow(clippy::too_many_arguments)] // recursive hot path, all state is live
    fn boundary_and_descend(
        &self,
        i: usize,
        sends_left: usize,
        delivers_left: usize,
        basics_left: usize,
        scratch: &mut OrbitScratch,
        counts: &mut EnumerationCounts,
        stats: &mut OrbitStats,
        emit: &mut dyn FnMut(&Schedule, ScheduleMeta),
    ) {
        let region = i + 1;
        if region == self.n && sends_left != 0 {
            // The budget must be spent by the last line (each budget is
            // a separate unit stream) — not a layout.
            return;
        }
        // Feasibility: every delivery already placed on a completed line
        // needs a matching send — placed, or still in the budget.
        let mut deficit = 0usize;
        for j in 0..self.n {
            let wanted = scratch.lines[j]
                .iter()
                .filter(|s| **s == LSlot::Deliver)
                .count();
            let incoming = scratch
                .lines
                .iter()
                .flatten()
                .filter(|s| matches!(s, LSlot::Send { dest } if *dest == j))
                .count();
            deficit += wanted.saturating_sub(incoming);
        }
        if deficit > sends_left {
            return;
        }
        if region == self.n {
            // Final boundary: full classification. `Less` prunes the
            // layout; `Greater` relabelings are dropped; the undecided
            // residue (plus deliver-free automorphisms) goes to the
            // per-skeleton check.
            scratch.undecided.clear();
            for &idx in &self.region_perms[region] {
                match self.masked_cmp(&scratch.lines, idx, region) {
                    MaskedOrd::Less => {
                        stats.layouts_pruned += 1;
                        return;
                    }
                    MaskedOrd::Greater => {}
                    MaskedOrd::Equal | MaskedOrd::Undecided => scratch.undecided.push(idx),
                }
            }
            self.complete_layout(scratch, counts, stats, emit);
            return;
        }
        for &idx in &self.region_perms[region] {
            if self.masked_cmp(&scratch.lines, idx, region) == MaskedOrd::Less {
                stats.subtree_cuts += 1;
                return;
            }
        }
        self.descend(
            region,
            sends_left,
            delivers_left,
            basics_left,
            scratch,
            counts,
            stats,
            emit,
        );
    }

    /// Grows line `i` slot by slot, in the baseline enumerator's order:
    /// end the line here first, then extend by a basic, a send to each
    /// destination, a delivery.
    #[allow(clippy::too_many_arguments)] // recursive hot path, all state is live
    fn descend(
        &self,
        i: usize,
        sends_left: usize,
        delivers_left: usize,
        basics_left: usize,
        scratch: &mut OrbitScratch,
        counts: &mut EnumerationCounts,
        stats: &mut OrbitStats,
        emit: &mut dyn FnMut(&Schedule, ScheduleMeta),
    ) {
        // End line i here. The send budget must be exhausted by the last
        // line (each budget is enumerated separately), so a short-circuit
        // spares the boundary walk when it cannot be.
        if i + 1 < self.n || sends_left == 0 {
            self.boundary_and_descend(
                i,
                sends_left,
                delivers_left,
                basics_left,
                scratch,
                counts,
                stats,
                emit,
            );
        }
        if basics_left > 0 {
            scratch.lines[i].push(LSlot::Basic);
            self.descend(
                i,
                sends_left,
                delivers_left,
                basics_left - 1,
                scratch,
                counts,
                stats,
                emit,
            );
            scratch.lines[i].pop();
        }
        if sends_left > 0 {
            for dest in 0..self.n {
                if dest == i {
                    continue;
                }
                scratch.lines[i].push(LSlot::Send { dest });
                self.descend(
                    i,
                    sends_left - 1,
                    delivers_left,
                    basics_left,
                    scratch,
                    counts,
                    stats,
                    emit,
                );
                scratch.lines[i].pop();
            }
        }
        if delivers_left > 0 {
            scratch.lines[i].push(LSlot::Deliver);
            self.descend(
                i,
                sends_left,
                delivers_left - 1,
                basics_left,
                scratch,
                counts,
                stats,
                emit,
            );
            scratch.lines[i].pop();
        }
    }

    /// Masked streaming compare of relabeling `idx` against the identity
    /// over lines `0..region` (both streams are the same multiset of
    /// slots, so they exhaust together). A decision reached here holds
    /// for every extension of the remaining lines and every matching.
    fn masked_cmp(&self, lines: &[Vec<LSlot>], idx: usize, region: usize) -> MaskedOrd {
        let perm = &self.perms[idx];
        let inv = &self.inverses[idx];
        let (mut a_line, mut a_slot) = (0usize, 0usize);
        let (mut b_line, mut b_slot) = (0usize, 0usize);
        while a_line < region && b_line < region {
            let relabeled = &lines[inv[a_line]];
            let wa = if a_slot < relabeled.len() {
                masked_word(relabeled[a_slot], perm)
            } else {
                Some(u32::MAX) // line separator
            };
            let original = &lines[b_line];
            let wb = if b_slot < original.len() {
                masked_word(original[b_slot], &self.perms[0])
            } else {
                Some(u32::MAX)
            };
            match (wa, wb) {
                (None, None) => return MaskedOrd::Undecided,
                (None, Some(word)) => {
                    // A deliver's word is `DELIVER_KIND | payload` with
                    // payload < 1 << 16, so the kind decides against any
                    // non-deliver word.
                    return if DELIVER_KIND < word {
                        MaskedOrd::Less
                    } else {
                        MaskedOrd::Greater
                    };
                }
                (Some(word), None) => {
                    return if word < DELIVER_KIND {
                        MaskedOrd::Less
                    } else {
                        MaskedOrd::Greater
                    };
                }
                (Some(wa), Some(wb)) => match wa.cmp(&wb) {
                    std::cmp::Ordering::Less => return MaskedOrd::Less,
                    std::cmp::Ordering::Greater => return MaskedOrd::Greater,
                    std::cmp::Ordering::Equal => {}
                },
            }
            if a_slot < relabeled.len() {
                a_slot += 1;
            } else {
                a_line += 1;
                a_slot = 0;
            }
            if b_slot < original.len() {
                b_slot += 1;
            } else {
                b_line += 1;
                b_slot = 0;
            }
        }
        MaskedOrd::Equal
    }

    /// Expands every matching of the completed layout in
    /// `scratch.lines`, proving canonicality over the undecided residue
    /// and counting orbits.
    fn complete_layout(
        &self,
        scratch: &mut OrbitScratch,
        counts: &mut EnumerationCounts,
        stats: &mut OrbitStats,
        emit: &mut dyn FnMut(&Schedule, ScheduleMeta),
    ) {
        stats.layouts += 1;
        let OrbitScratch {
            lines,
            layout,
            undecided,
            sends,
            delivers,
            used,
            chosen,
            matching,
            ..
        } = scratch;
        layout.n = self.n;
        for (into, line) in layout.lines.iter_mut().zip(lines.iter()) {
            into.clear();
            into.extend_from_slice(line);
        }
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
        used.clear();
        used.resize(sends.len(), false);
        chosen.clear();
        chosen.resize(delivers.len(), usize::MAX);
        self.match_delivers(
            0, layout, sends, delivers, used, chosen, undecided, matching, counts, stats, emit,
        );
    }

    #[allow(clippy::too_many_arguments)] // recursive worker, all state is hot
    fn match_delivers(
        &self,
        k: usize,
        layout: &Layout,
        sends: &[SendSlot],
        delivers: &[usize],
        used: &mut Vec<bool>,
        chosen: &mut Vec<usize>,
        undecided: &[usize],
        matching: &mut MatchScratch,
        counts: &mut EnumerationCounts,
        stats: &mut OrbitStats,
        emit: &mut dyn FnMut(&Schedule, ScheduleMeta),
    ) {
        if k == delivers.len() {
            build_skeleton(layout, sends, chosen, &mut matching.skeleton);
            stats.perm_checks += undecided.len() as u64;
            let Some(stab) = canonical_stab(matching, &self.perms, undecided) else {
                // An undecided relabeling encodes smaller: this skeleton
                // is a plain orbit member, already covered by the count
                // at its canonical representative.
                return;
            };
            let orbit = self.factorial / stab;
            counts.structures += orbit;
            counts.canonical += 1;
            counts.pruned_symmetry += orbit - 1;
            if linearize(matching) {
                counts.replayable += 1;
                let key = if self.with_keys {
                    skeleton_key(matching)
                } else {
                    0
                };
                emit(&matching.schedule, ScheduleMeta { orbit, key });
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
            self.match_delivers(
                k + 1,
                layout,
                sends,
                delivers,
                used,
                chosen,
                undecided,
                matching,
                counts,
                stats,
                emit,
            );
            used[si] = false;
        }
    }
}

/// Reusable per-worker buffers of the orbit-pruned enumerator; one
/// instance per worker, reused across every unit it steals, so the
/// per-structure hot path allocates nothing.
pub(crate) struct OrbitScratch {
    /// The layout under construction, line 0 loaded from the unit.
    lines: Vec<Vec<LSlot>>,
    /// Completed-layout copy handed to the matcher.
    layout: Layout,
    /// Relabeling indices the masked classification left undecided.
    undecided: Vec<usize>,
    sends: Vec<SendSlot>,
    delivers: Vec<usize>,
    used: Vec<bool>,
    chosen: Vec<usize>,
    matching: MatchScratch,
    /// The scope's basic-checkpoint budget (threaded through the unit
    /// expansion without re-deriving it per call).
    basics_budget: usize,
}

impl OrbitScratch {
    pub(crate) fn new(scope: &Scope) -> Self {
        let n = scope.processes;
        OrbitScratch {
            lines: vec![Vec::new(); n],
            layout: Layout {
                n,
                lines: vec![Vec::new(); n],
            },
            undecided: Vec::new(),
            sends: Vec::new(),
            delivers: Vec::new(),
            used: Vec::new(),
            chosen: Vec::new(),
            matching: MatchScratch::new(n),
            basics_budget: scope.basics,
        }
    }
}

/// Runs the orbit-pruned enumeration serially, handing every canonical
/// realizable schedule to `emit`. Counts and schedule stream are
/// identical to [`crate::enumerate_schedules`] — held to it by
/// differential tests — at a fraction of the generation work; this is
/// the enumeration the certifier distributes.
pub fn enumerate_schedules_orbit(
    scope: &Scope,
    mut emit: impl FnMut(&Schedule),
) -> EnumerationCounts {
    enumerate_schedules_orbit_stats(scope, |schedule, _| emit(schedule)).0
}

/// [`enumerate_schedules_orbit`] with per-orbit metadata and the
/// enumeration work tallies.
pub fn enumerate_schedules_orbit_stats(
    scope: &Scope,
    mut emit: impl FnMut(&Schedule, ScheduleMeta),
) -> (EnumerationCounts, OrbitStats) {
    let ctx = OrbitContext::new(scope, true);
    let mut scratch = OrbitScratch::new(scope);
    let mut counts = EnumerationCounts::default();
    let mut stats = OrbitStats::default();
    for unit in &enumerate_units(scope) {
        ctx.run_unit(unit, &mut scratch, &mut counts, &mut stats, &mut emit);
    }
    (counts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{encode_slot, enumerate_schedules, Slot};

    /// The canonical (identity) word of a fully matched slot, exposing
    /// the kind/payload packing the masked compare relies on.
    fn identity_word(slot: Slot, n: usize) -> u32 {
        let identity: Vec<usize> = (0..n).collect();
        encode_slot(slot, &identity)
    }

    fn orbit_counts(n: usize, m: usize, b: usize) -> EnumerationCounts {
        let scope = Scope::with_basics(n, m, b).unwrap();
        enumerate_schedules_orbit(&scope, |_| {})
    }

    /// The masked packing invariant the classifier leans on: a deliver's
    /// payload never crosses the kind boundary.
    #[test]
    fn deliver_words_stay_within_their_kind() {
        for (src, ord) in [(0, 0), (3, 15), (1, 7)] {
            let word = identity_word(Slot::Deliver { src, ord }, 4);
            assert!((DELIVER_KIND..DELIVER_KIND + (1 << 16)).contains(&word));
        }
        assert!(identity_word(Slot::Send { dest: 3 }, 4) < DELIVER_KIND);
        assert_eq!(identity_word(Slot::Basic, 4), 0);
    }

    /// Hand counts from the baseline enumerator's test table must be
    /// reproduced exactly by orbit–stabilizer counting.
    #[test]
    fn hand_counts_are_reproduced() {
        for (n, m, b, structures, canonical, unrealizable) in [
            (1, 2, 2, 3, 3, 0),
            (2, 1, 0, 5, 3, 0),
            (2, 2, 0, 24, 14, 1),
            (2, 0, 2, 6, 4, 0),
        ] {
            let c = orbit_counts(n, m, b);
            assert_eq!(c.structures, structures, "{n},{m},{b}");
            assert_eq!(c.canonical, canonical, "{n},{m},{b}");
            assert_eq!(c.unrealizable, unrealizable, "{n},{m},{b}");
            assert_eq!(c.pruned_symmetry, structures - canonical, "{n},{m},{b}");
        }
    }

    /// Differential against the baseline enumerator: identical counts
    /// AND an identical schedule stream, in order — the property the
    /// certifier's byte-identical report rests on.
    #[test]
    fn matches_baseline_stream_and_counts() {
        for (n, m, b) in [(1, 0, 2), (2, 2, 1), (3, 2, 1), (3, 3, 0), (4, 2, 1)] {
            let scope = Scope::with_basics(n, m, b).unwrap();
            let mut baseline = Vec::new();
            let base_counts = enumerate_schedules(&scope, |s| baseline.push(s.render()));
            let mut orbit = Vec::new();
            let orbit_counts = enumerate_schedules_orbit(&scope, |s| orbit.push(s.render()));
            assert_eq!(base_counts, orbit_counts, "{n},{m},{b}");
            assert_eq!(baseline, orbit, "{n},{m},{b}");
        }
    }

    /// Orbit sizes sum to the full structure count, and every orbit
    /// divides `n!`.
    #[test]
    fn orbit_sizes_sum_to_structures() {
        let scope = Scope::with_basics(3, 2, 1).unwrap();
        let mut replayed_orbit_sum = 0u64;
        let factorial = 6u64;
        let (counts, stats) = enumerate_schedules_orbit_stats(&scope, |_, meta| {
            assert!(meta.orbit >= 1 && factorial.is_multiple_of(meta.orbit));
            replayed_orbit_sum += meta.orbit;
        });
        // Replayed orbits cover every realizable structure of the space;
        // unrealizable orbits make up the rest.
        assert!(replayed_orbit_sum <= counts.structures);
        assert!(counts.structures > counts.canonical);
        assert!(stats.layouts_pruned + stats.subtree_cuts > 0);
        assert!(stats.units > 0);
    }

    /// Sampling keys are deterministic and spread: re-enumeration yields
    /// the same key per schedule, and keys differ across orbits.
    #[test]
    fn sampling_keys_are_stable_and_distinct() {
        let scope = Scope::with_basics(3, 2, 0).unwrap();
        let mut first = Vec::new();
        enumerate_schedules_orbit_stats(&scope, |_, meta| first.push(meta.key));
        let mut second = Vec::new();
        enumerate_schedules_orbit_stats(&scope, |_, meta| second.push(meta.key));
        assert_eq!(first, second);
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len(), "orbit keys must be distinct");
    }

    /// Work units are self-describing and ordered: ascending send
    /// budget, DFS pre-order on the first line (every prefix precedes
    /// its extensions).
    #[test]
    fn units_are_ordered_prefix_first() {
        let scope = Scope::with_basics(3, 2, 1).unwrap();
        let units = enumerate_units(&scope);
        assert!(units.len() > 10);
        for pair in units.windows(2) {
            assert!(pair[0].total_sends <= pair[1].total_sends);
            if pair[0].total_sends == pair[1].total_sends
                && pair[1].line0.len() > pair[0].line0.len()
            {
                // An extension directly follows one of its prefixes only
                // if the shorter line is a prefix of the longer.
                let k = pair[0].line0.len();
                if pair[1].line0.len() == k + 1 {
                    assert_eq!(&pair[1].line0[..k], &pair[0].line0[..]);
                }
            }
        }
    }
}
