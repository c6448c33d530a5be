//! The consistency oracles on what the daemon actually asks: the
//! **unclosed core** engine (`IncrementalAnalysis` bare, the one
//! `rdt-serve` runs), multi-member sets, arbitrary caps, messages left in
//! transit, and compactions interleaved with the appends.
//!
//! The engine's two fixpoints are worklists over the per-process send
//! index; every reference here rescans a whole message table instead:
//!
//! 1. **Batch oracle** — after *every* op, `min_`/`max_consistent_containing`
//!    for 1–3-member sets equal [`min_max`]'s full-rescan fixpoints on the
//!    lock-step [`Pattern`] (a table the engine never sees). Members below
//!    `retained_from()` are asked like any other, and member sets whose
//!    answer needs a send in an interval its sender has not closed must be
//!    `None` on both sides.
//! 2. **Dominated descent** — `max_consistent_dominated` for all-zero
//!    caps, caps below the compaction watermark, caps above the frontier
//!    and random caps equals a test-local full-rescan descent.
//! 3. **Self-sends** — `try_append_send` accepts them and `PatternBuilder`
//!    does not, so they get a corpus of their own, held to test-local
//!    copies of the two full-rescan loops the worklists replaced.

use proptest::prelude::*;
use rdt_causality::{CheckpointId, ProcessId};
use rdt_rgraph::{
    min_max, GlobalCheckpoint, IncrementalAnalysis, MessageRoute, Pattern, PatternBuilder,
    PatternMessageId,
};

/// Deterministic xorshift generator driving the op-sequence builder.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n
    }
}

// ------------------------------------------- full-rescan references ----

fn routes(core: &IncrementalAnalysis) -> Vec<MessageRoute> {
    (0..core.num_messages() as u32)
        .map(|mid| core.message_route(mid))
        .collect()
}

fn frontier(core: &IncrementalAnalysis) -> Vec<u32> {
    (0..core.num_processes())
        .map(|p| core.last_checkpoint_index(ProcessId::new(p)))
        .collect()
}

/// The ascent as the engine ran it before the worklists: whole passes
/// over the message table until one changes nothing.
fn ascend_full_rescan(routes: &[MessageRoute], last: &[u32], gc: &mut [u32]) -> bool {
    loop {
        let mut changed = false;
        for r in routes {
            let Some(deliver) = r.deliver_interval else {
                continue;
            };
            let (from, to) = (r.from.index(), r.to.index());
            if deliver <= gc[to] && r.send_interval > gc[from] {
                if r.send_interval > last[from] {
                    return false;
                }
                gc[from] = r.send_interval;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
}

/// The descent as the engine ran it before the worklists.
fn descend_full_rescan(routes: &[MessageRoute], gc: &mut [u32]) {
    loop {
        let mut changed = false;
        for r in routes {
            let Some(deliver) = r.deliver_interval else {
                continue;
            };
            let (from, to) = (r.from.index(), r.to.index());
            if r.send_interval > gc[from] && deliver <= gc[to] {
                gc[to] = deliver - 1;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

fn contains_all(gc: Vec<u32>, members: &[CheckpointId]) -> Option<GlobalCheckpoint> {
    members
        .iter()
        .all(|m| gc[m.process.index()] == m.index)
        .then(|| GlobalCheckpoint::new(gc))
}

/// Reference minimum; the flag says the ascent stopped at a send in an
/// open interval.
fn min_reference(
    core: &IncrementalAnalysis,
    members: &[CheckpointId],
) -> (Option<GlobalCheckpoint>, bool) {
    let mut gc = vec![0u32; core.num_processes()];
    for m in members {
        let e = &mut gc[m.process.index()];
        *e = (*e).max(m.index);
    }
    if !ascend_full_rescan(&routes(core), &frontier(core), &mut gc) {
        return (None, true);
    }
    (contains_all(gc, members), false)
}

fn max_reference(core: &IncrementalAnalysis, members: &[CheckpointId]) -> Option<GlobalCheckpoint> {
    let mut gc = frontier(core);
    for m in members {
        let e = &mut gc[m.process.index()];
        *e = (*e).min(m.index);
    }
    descend_full_rescan(&routes(core), &mut gc);
    contains_all(gc, members)
}

fn dominated_reference(core: &IncrementalAnalysis, caps: &[u32]) -> GlobalCheckpoint {
    let mut gc = frontier(core);
    for (e, &cap) in gc.iter_mut().zip(caps) {
        *e = (*e).min(cap);
    }
    descend_full_rescan(&routes(core), &mut gc);
    GlobalCheckpoint::new(gc)
}

// ------------------------------------------------------------ driver ----

/// What a run exercised, so the fixed-seed corpus can insist that it met
/// every case the module documentation names.
#[derive(Debug, Default)]
struct Coverage {
    discarding_compactions: usize,
    members_below_retention: usize,
    open_interval_answers: usize,
    in_transit_at_end: usize,
    self_sends_delivered: usize,
}

/// The core engine with, unless the run sends self-messages, a
/// [`PatternBuilder`] mirror fed the same events.
struct Lockstep {
    core: IncrementalAnalysis,
    mirror: Option<(PatternBuilder, Vec<PatternMessageId>)>,
    in_flight: Vec<u32>,
    seen: Coverage,
}

impl Lockstep {
    fn new(n: usize, self_sends: bool, seen: Coverage) -> Self {
        Lockstep {
            core: IncrementalAnalysis::new(n),
            mirror: (!self_sends).then(|| (PatternBuilder::new(n), Vec::new())),
            in_flight: Vec::new(),
            seen,
        }
    }

    fn pattern(&self) -> Option<Pattern> {
        let (builder, _) = self.mirror.as_ref()?;
        Some(builder.clone().build().expect("well-formed"))
    }

    /// One random op: a checkpoint, a send (one in six is never
    /// delivered), a delivery of a random message in flight (channels are
    /// not FIFO), or a compaction — to the recovery line or to random caps.
    fn step(&mut self, rng: &mut Rng) {
        let n = self.core.num_processes();
        match rng.below(12) {
            0..=2 => {
                let p = ProcessId::new(rng.below(n));
                self.core.append_checkpoint(p);
                if let Some((builder, _)) = &mut self.mirror {
                    builder.checkpoint(p);
                }
            }
            3..=6 => {
                let from = rng.below(n);
                let to = match &self.mirror {
                    Some(_) => (from + 1 + rng.below(n - 1)) % n,
                    None => rng.below(n),
                };
                let (from, to) = (ProcessId::new(from), ProcessId::new(to));
                let mid = self.core.append_send(from, to);
                if let Some((builder, mids)) = &mut self.mirror {
                    mids.push(builder.send(from, to));
                }
                if rng.below(6) != 0 {
                    self.in_flight.push(mid);
                }
            }
            7..=9 => {
                if !self.in_flight.is_empty() {
                    let mid = self.in_flight.swap_remove(rng.below(self.in_flight.len()));
                    self.core.append_deliver(mid);
                    if let Some((builder, mids)) = &mut self.mirror {
                        builder.deliver(mids[mid as usize]).expect("in flight");
                    }
                    let route = self.core.message_route(mid);
                    self.seen.self_sends_delivered += usize::from(route.from == route.to);
                }
            }
            10 => {
                let stats = self.core.compact_to_recovery_line();
                self.seen.discarding_compactions += usize::from(stats.discarded_state());
            }
            _ => {
                let caps: Vec<u32> = frontier(&self.core)
                    .iter()
                    .map(|&last| rng.below(last as usize + 2) as u32)
                    .collect();
                let stats = self.core.compact_to(&caps);
                self.seen.discarding_compactions += usize::from(stats.discarded_state());
            }
        }
    }

    /// 1–3 members on distinct processes, any existing index each.
    fn random_members(&self, rng: &mut Rng) -> Vec<CheckpointId> {
        let n = self.core.num_processes();
        let first = rng.below(n);
        (0..(1 + rng.below(3)).min(n))
            .map(|k| {
                let p = ProcessId::new((first + k) % n);
                let index = rng.below(self.core.last_checkpoint_index(p) as usize + 1);
                CheckpointId::new(p, index as u32)
            })
            .collect()
    }

    fn check_members(&mut self, pattern: Option<&Pattern>, members: &[CheckpointId]) {
        let core = &self.core;
        let ours = (
            core.min_consistent_containing(members),
            core.max_consistent_containing(members),
        );
        let (min_ref, open_interval) = min_reference(core, members);
        let theirs = match pattern {
            Some(pattern) => (
                min_max::min_consistent_containing(pattern, members),
                min_max::max_consistent_containing(pattern, members),
            ),
            None => (min_ref, max_reference(core, members)),
        };
        assert_eq!(ours, theirs, "min / max containing {members:?}");
        if open_interval {
            assert_eq!(ours.0, None, "open-interval answer for {members:?}");
        }
        self.seen.open_interval_answers += usize::from(open_interval);
        let retained = core.retained_from();
        let below = |m: &CheckpointId| m.index < retained[m.process.index()];
        self.seen.members_below_retention += usize::from(members.iter().any(below));
    }

    /// Everything the module documentation promises, on the current state.
    fn check(&mut self, rng: &mut Rng) {
        let n = self.core.num_processes();
        let pattern = self.pattern();
        let last = frontier(&self.core);

        // Every single checkpoint, then random larger sets.
        for (p, &last) in last.iter().enumerate() {
            for index in 0..=last {
                let member = [CheckpointId::new(ProcessId::new(p), index)];
                self.check_members(pattern.as_ref(), &member);
            }
        }
        for _ in 0..6 {
            let members = self.random_members(rng);
            self.check_members(pattern.as_ref(), &members);
        }

        let watermark = self.core.compaction_watermark();
        let mut caps_sets = vec![
            vec![0u32; n],
            watermark.iter().map(|&w| w.saturating_sub(1)).collect(),
            last.iter().map(|&l| l + 1 + rng.below(3) as u32).collect(),
        ];
        for _ in 0..3 {
            let random = last.iter().map(|&l| rng.below(l as usize + 2) as u32);
            caps_sets.push(random.collect());
        }
        for caps in &caps_sets {
            assert_eq!(
                self.core.max_consistent_dominated(caps),
                dominated_reference(&self.core, caps),
                "dominated by {caps:?}"
            );
        }
        let mut line = vec![0u32; n];
        self.core.recovery_line_into(&mut line);
        assert_eq!(
            line,
            dominated_reference(&self.core, &last).as_slice(),
            "recovery line"
        );
    }
}

/// One run, its coverage added to `seen`.
fn run(seed: u64, n: usize, events: usize, self_sends: bool, seen: Coverage) -> Coverage {
    let mut rng = Rng(seed | 1);
    let mut lock = Lockstep::new(n, self_sends, seen);
    for _ in 0..events {
        lock.step(&mut rng);
        lock.check(&mut rng);
    }
    lock.seen.in_transit_at_end += (0..lock.core.num_messages() as u32)
        .filter(|&mid| !lock.core.message_delivered(mid))
        .count();
    lock.seen
}

fn run_corpus(self_sends: bool) -> Coverage {
    let mut seen = Coverage::default();
    for seed in [5u64, 23, 404, 2025, 77_001] {
        for n in 2..=5 {
            seen = run(seed.wrapping_mul(n as u64), n, 90, self_sends, seen);
        }
    }
    seen
}

#[test]
fn oracles_match_the_batch_fixpoints_on_fixed_seeds() {
    let seen = run_corpus(false);
    assert!(seen.discarding_compactions > 0, "{seen:?}");
    assert!(seen.members_below_retention > 0, "{seen:?}");
    assert!(seen.open_interval_answers > 0, "{seen:?}");
    assert!(seen.in_transit_at_end > 0, "{seen:?}");
}

#[test]
fn oracles_match_the_full_rescan_loops_with_self_sends() {
    let seen = run_corpus(true);
    assert!(seen.self_sends_delivered > 0, "{seen:?}");
    assert!(seen.discarding_compactions > 0, "{seen:?}");
    assert!(seen.open_interval_answers > 0, "{seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both corpora on random seeds, sizes and lengths.
    fn oracles_match_after_every_op(
        seed in 1u64..1_000_000,
        n in 2usize..6,
        events in 20usize..70,
        self_sends in any::<bool>(),
    ) {
        run(seed, n, events, self_sends, Coverage::default());
    }
}
