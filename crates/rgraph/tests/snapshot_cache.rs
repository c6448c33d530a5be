//! The snapshot cache against the cold render: after every operation of
//! seeded random sessions, `write_snapshot_cached` through one
//! [`SnapshotCache`] kept for the whole session writes exactly the bytes
//! `write_snapshot` writes with a fresh one.
//!
//! The sessions are what can leave a cache wrong: messages held in transit
//! for hundreds of events (the `msgs` rows behind them are delivered and
//! settle around them, and the cache has to stop at the first one),
//! compactions that discard state (a new epoch: `tdv_row`s renumbered, the
//! per-node tables closing ranks) and ones that do not (the same epoch, the
//! cache kept), appends the engine refuses, and a restore mid-session that
//! keeps the cache (a restored engine is the same tables at the same epoch).
//! They run for `n` = 1 to 6 on the core and on the chain-bearing engine,
//! and in the shape of the daemon benchmark's `persist-unix` streams.

use rdt_causality::ProcessId;
use rdt_json::JsonWriter;
use rdt_rgraph::{ChainLayer, Chains, IncrementalAnalysis, NoChains, NoJournal, SnapshotCache};

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 as usize) % n
    }
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// What a session did, so that it can be held to having done it.
#[derive(Debug, Default)]
struct Tally {
    discarding_compactions: usize,
    no_op_compactions: usize,
    restores: usize,
    rejected_appends: usize,
    /// Messages delivered at least `HOLD_MIN` events after their send.
    long_in_transit: usize,
}

/// The least number of steps a held message stays in transit.
const HOLD_MIN: usize = 200;

struct Session<C: ChainLayer> {
    engine: IncrementalAnalysis<C, NoJournal>,
    cache: SnapshotCache,
    rng: Rng,
    /// Most messages in flight at once, held ones not counted.
    window: usize,
    in_flight: Vec<u32>,
    /// Messages kept in transit until the step given with them.
    held: Vec<(u32, usize)>,
    step: usize,
    tally: Tally,
}

impl<C: ChainLayer> Session<C> {
    fn new(n: usize, window: usize, seed: u64) -> Self {
        Session {
            engine: IncrementalAnalysis::layered(n),
            cache: SnapshotCache::default(),
            rng: Rng(seed | 1),
            window,
            in_flight: Vec::new(),
            held: Vec::new(),
            step: 0,
            tally: Tally::default(),
        }
    }

    fn cold(&self) -> Vec<u8> {
        let mut text = Vec::new();
        self.engine.write_snapshot(&mut JsonWriter::new(&mut text));
        text
    }

    /// The cached render is the cold render, byte for byte.
    fn check(&mut self, what: &str) {
        let mut cached = Vec::new();
        let w = &mut JsonWriter::new(&mut cached);
        self.engine.write_snapshot_cached(&mut self.cache, w);
        let cold = self.cold();
        if cached != cold {
            let at = cached.iter().zip(&cold).position(|(a, b)| a != b);
            let at = at.unwrap_or(cached.len().min(cold.len()));
            let around = |text: &[u8]| {
                String::from_utf8_lossy(&text[at.saturating_sub(60)..])
                    .chars()
                    .take(120)
                    .collect::<String>()
            };
            panic!(
                "step {}, after {what}: the cached render differs from the cold one at byte {at}\n  cached: …{}\n  cold:   …{}",
                self.step,
                around(&cached),
                around(&cold)
            );
        }
    }

    fn event(&mut self) {
        let n = self.engine.num_processes();
        let due = self.held.iter().position(|&(_, at)| at <= self.step);
        if let Some(k) = due {
            let (mid, _) = self.held.swap_remove(k);
            self.engine.append_deliver(mid);
            self.tally.long_in_transit += 1;
            return;
        }
        if self.rng.below(4) == 0 {
            self.engine.append_checkpoint(p(self.rng.below(n)));
            return;
        }
        let send = match self.in_flight.len() {
            0 => true,
            k if k >= self.window => false,
            _ => self.rng.below(2) == 0,
        };
        if send {
            let from = self.rng.below(n);
            let to = (from + 1 + self.rng.below(n.max(2) - 1)) % n;
            let mid = self.engine.append_send(p(from), p(to));
            if self.rng.below(24) == 0 {
                let until = self.step + HOLD_MIN + self.rng.below(HOLD_MIN);
                self.held.push((mid, until));
            } else {
                self.in_flight.push(mid);
            }
        } else {
            let at = self.rng.below(self.in_flight.len());
            self.engine.append_deliver(self.in_flight.swap_remove(at));
        }
    }

    /// A compaction, then another straight after: the second finds nothing
    /// to reclaim.
    fn compact(&mut self) {
        let n = self.engine.num_processes();
        for _ in 0..2 {
            let stats = if self.rng.below(2) == 0 {
                self.engine.compact_to_recovery_line()
            } else {
                let caps: Vec<u32> = (0..n)
                    .map(|i| {
                        let last = self.engine.last_checkpoint_index(p(i));
                        last.saturating_sub(self.rng.below(3) as u32)
                    })
                    .collect();
                self.engine.compact_to(&caps)
            };
            if stats.discarded_state() {
                self.tally.discarding_compactions += 1;
            } else {
                self.tally.no_op_compactions += 1;
            }
            self.check("a compaction");
        }
    }

    /// A coordinated round: everything in flight that is not held is
    /// delivered and every process checkpoints, so the next compaction has
    /// a recovery line near the frontier to compact to.
    fn round(&mut self) {
        for mid in std::mem::take(&mut self.in_flight) {
            self.engine.append_deliver(mid);
        }
        for i in 0..self.engine.num_processes() {
            self.engine.append_checkpoint(p(i));
        }
    }

    /// One append of each kind the engine refuses, with nothing changed.
    fn rejected(&mut self) {
        let n = self.engine.num_processes();
        let unsent = self.engine.num_messages() as u32;
        assert!(self.engine.try_append_deliver(unsent).is_err());
        assert!(self.engine.try_append_checkpoint(p(n)).is_err());
        assert!(self.engine.try_append_send(p(0), p(n + 1)).is_err());
        if let Some(delivered) = (0..unsent).find(|&m| self.engine.message_delivered(m)) {
            assert!(self.engine.try_append_deliver(delivered).is_err());
        }
        self.tally.rejected_appends += 1;
    }

    fn restore(&mut self) {
        let text = self.cold();
        self.engine = IncrementalAnalysis::from_snapshot_text(&text).expect("restores");
        self.tally.restores += 1;
    }

    fn run(&mut self, steps: usize) -> &Tally {
        self.check("nothing");
        while self.step < steps {
            self.step += 1;
            match self.rng.below(96) {
                0 => {
                    self.round();
                    self.check("a round");
                    self.compact();
                }
                1 | 2 => self.compact(),
                3 => self.restore(),
                4 => self.rejected(),
                _ => self.event(),
            }
            self.check("an op");
        }
        &self.tally
    }
}

fn assert_covered(tally: &Tally, what: &str) {
    assert!(
        tally.discarding_compactions > 0
            && tally.no_op_compactions > 0
            && tally.restores > 0
            && tally.rejected_appends > 0
            && tally.long_in_transit > 0,
        "{what}: the session missed a case: {tally:?}"
    );
}

#[test]
fn cached_render_is_the_cold_render_on_the_core() {
    for n in 1..=6 {
        for seed in [0x5eed_0025, 0xc0ffee] {
            let mut session = Session::<NoChains>::new(n, 2 * n, seed + n as u64);
            assert_covered(session.run(900), &format!("n = {n}, seed {seed:#x}"));
        }
    }
}

#[test]
fn cached_render_is_the_cold_render_with_the_chain_layer() {
    for n in 1..=6 {
        let mut session = Session::<Chains>::new(n, 2 * n, 0x5eed_0026 + n as u64);
        assert_covered(session.run(700), &format!("n = {n}"));
    }
}

/// `persist-unix`'s streams: 8 processes, at most 16 messages in flight,
/// every fourth event or so a checkpoint, and a thousand events and more.
#[test]
fn cached_render_is_the_cold_render_on_persist_unix_shaped_streams() {
    for seed in [7, 0x5eed_0027] {
        let mut session = Session::<NoChains>::new(8, 16, seed);
        assert_covered(session.run(2_000), &format!("seed {seed:#x}"));
    }
}
