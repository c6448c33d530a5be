//! Property tests for recovery lines on randomly generated patterns.
//!
//! Four properties pin `recovery_line`:
//!
//! 1. **Consistency** — the line is a consistent global checkpoint that
//!    respects every failure's resume cap.
//! 2. **Componentwise maximality** — against a brute-force enumeration of
//!    *all* global checkpoints dominated by the caps, the line equals the
//!    componentwise maximum of the consistent ones (consistent cuts below
//!    fixed caps form a join-closed lattice, so that maximum is itself
//!    consistent).
//! 3. **Oracle agreement** — the descent over the pattern's own message
//!    table (`min_max::max_consistent_dominated`) is held to
//!    `recovery_line_naive`, to `min_max::max_consistent_containing` and
//!    to the same descent over the table an `IncrementalAnalysis` appended.
//! 4. **Error reporting** — out-of-range failures surface as
//!    `RecoveryError`, never as a panic.

use proptest::prelude::*;
use rdt_causality::{CheckpointId, ProcessId};
use rdt_recovery::{recovery_line, recovery_line_naive, try_recovery_line, Failure, RecoveryError};
use rdt_rgraph::{
    consistency, min_max, GlobalCheckpoint, IncrementalAnalysis, Pattern, PatternBuilder,
    PatternMessageId,
};

/// Deterministic xorshift generator driving the pattern builder.
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

/// Builds a random well-formed pattern, mirrored event-for-event into an
/// [`IncrementalAnalysis`] engine so property 3 can query both.
fn random_pattern(rng: &mut Rng, n: usize, events: usize) -> (Pattern, IncrementalAnalysis) {
    let mut builder = PatternBuilder::new(n);
    let mut incr = IncrementalAnalysis::new(n);
    let mut pending: Vec<(PatternMessageId, u32)> = Vec::new();
    for _ in 0..events {
        match rng.below(4) {
            0 => {
                let p = ProcessId::new(rng.below(n));
                builder.checkpoint(p);
                incr.append_checkpoint(p);
            }
            1 | 2 => {
                let from = rng.below(n);
                let to = (from + 1 + rng.below(n - 1)) % n;
                let (from, to) = (ProcessId::new(from), ProcessId::new(to));
                pending.push((builder.send(from, to), incr.append_send(from, to)));
            }
            _ => {
                if !pending.is_empty() {
                    let i = rng.below(pending.len());
                    let (pm, em) = pending.swap_remove(i);
                    builder.deliver(pm).expect("in-flight");
                    incr.append_deliver(em);
                }
            }
        }
    }
    if rng.next().is_multiple_of(2) {
        for (pm, em) in pending.drain(..) {
            builder.deliver(pm).expect("in-flight");
            incr.append_deliver(em);
        }
    }
    (builder.build().expect("well-formed"), incr)
}

/// Random failure set: 1..=n failures with caps up to two past the last
/// checkpoints (such a cap clamps to the last one), and half the time one
/// process named a second time (the lower cap wins).
fn random_failures(rng: &mut Rng, pattern: &Pattern) -> Vec<Failure> {
    let n = pattern.num_processes();
    let mut failed: Vec<ProcessId> = (0..rng.below(n) + 1)
        .map(|_| ProcessId::new(rng.below(n)))
        .collect();
    if rng.next().is_multiple_of(2) {
        failed.push(failed[rng.below(failed.len())]);
    }
    failed
        .into_iter()
        .map(|process| {
            let last = pattern.last_checkpoint_index(process);
            Failure {
                process,
                resume_cap: (rng.next() % (last as u64 + 3)) as u32,
            }
        })
        .collect()
}

/// The caps the line must respect: last checkpoints clamped by failures.
fn caps_of(pattern: &Pattern, failures: &[Failure]) -> Vec<u32> {
    let n = pattern.num_processes();
    let mut caps: Vec<u32> = (0..n)
        .map(|i| pattern.last_checkpoint_index(ProcessId::new(i)))
        .collect();
    for f in failures {
        let entry = &mut caps[f.process.index()];
        *entry = (*entry).min(f.resume_cap);
    }
    caps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Properties 1 + 2: the line is consistent, capped, and equals the
    /// brute-force componentwise maximum of all consistent global
    /// checkpoints dominated by the caps.
    fn line_is_the_greatest_consistent_capped_checkpoint(
        seed in 1u64..1_000_000,
        n in 2usize..5,
        events in 4usize..20,
    ) {
        let mut rng = Rng(seed | 1);
        let (pattern, _) = random_pattern(&mut rng, n, events);
        let failures = random_failures(&mut rng, &pattern);
        let caps = caps_of(&pattern, &failures);
        let line = recovery_line(&pattern, &failures);

        prop_assert!(consistency::is_consistent(&pattern, &line));
        for (i, &cap) in caps.iter().enumerate() {
            prop_assert!(line.get(ProcessId::new(i)) <= cap, "cap violated at {i}");
        }

        // Brute force over the full grid below the caps.
        let mut best = vec![0u32; n];
        let mut idx = vec![0u32; n];
        loop {
            let gc = GlobalCheckpoint::new(idx.clone());
            if consistency::is_consistent(&pattern, &gc) {
                for (b, &v) in best.iter_mut().zip(&idx) {
                    *b = (*b).max(v);
                }
            }
            let mut k = 0;
            while k < n && idx[k] == caps[k] {
                idx[k] = 0;
                k += 1;
            }
            if k == n {
                break;
            }
            idx[k] += 1;
        }
        prop_assert_eq!(line.as_slice(), &best[..], "failures {:?}", failures);
    }

    /// Property 3: the descent over the pattern's table ≡ naive rescan ≡
    /// `min_max` ≡ the descent over the engine's appended table, on the
    /// same pattern and caps.
    fn line_agrees_with_all_oracles(
        seed in 1u64..1_000_000,
        n in 2usize..5,
        events in 4usize..28,
    ) {
        let mut rng = Rng(seed | 1);
        let (pattern, incr) = random_pattern(&mut rng, n, events);
        let failures = random_failures(&mut rng, &pattern);
        let caps = caps_of(&pattern, &failures);
        let line = recovery_line(&pattern, &failures);

        prop_assert_eq!(&line, &recovery_line_naive(&pattern, &failures), "naive");
        prop_assert_eq!(&line, &incr.max_consistent_dominated(&caps), "engine");

        // With no failures the line is the greatest consistent global
        // checkpoint, which `min_max` computes with an empty member set.
        let uncapped = recovery_line(&pattern, &[]);
        let batch = min_max::max_consistent_containing(&pattern, &[] as &[CheckpointId])
            .expect("vacuously exact");
        prop_assert_eq!(&uncapped, &batch, "min_max");

        // With a single failure whose cap the line sits exactly on, the
        // caps of the two computations coincide, so `min_max`'s exact
        // membership query must reproduce the line.
        if let [f] = &failures[..] {
            if line.get(f.process) == f.resume_cap {
                let member = [CheckpointId::new(f.process, f.resume_cap)];
                prop_assert_eq!(
                    Some(line.clone()),
                    min_max::max_consistent_containing(&pattern, &member),
                    "exact membership at {:?}", f
                );
            }
        }
    }

    /// Property 4: malformed failure specs are reported, not panicked.
    fn out_of_range_failures_are_errors(
        seed in 1u64..1_000_000,
        n in 2usize..5,
        events in 4usize..16,
        beyond in 0usize..4,
    ) {
        let mut rng = Rng(seed | 1);
        let (pattern, _) = random_pattern(&mut rng, n, events);
        let bad = Failure { process: ProcessId::new(n + beyond), resume_cap: 0 };
        prop_assert_eq!(
            try_recovery_line(&pattern, &[bad]),
            Err(RecoveryError::ProcessOutOfRange { process: n + beyond, num_processes: n })
        );
    }
}
