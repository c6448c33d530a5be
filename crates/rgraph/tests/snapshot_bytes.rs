//! The written form of a snapshot, pinned — version 3 by its goldens, and
//! version 2 by everything that was ever pinned of it.
//!
//! `golden/snapshot_v3.json` (the core engine) and
//! `golden/snapshot_v3_chains.json` ([`FullAnalysis`], the same tables plus
//! the `chains` key) were written once, by the first writer of version 3,
//! from the states that produced the version 2 goldens ([`golden_script`]:
//! xorshift seed 4 over 3 processes, 72 draws with a
//! `compact_to_recovery_line` after draw 30 and a `compact_to([6, 1, 3])`
//! after draw 55; 19 messages of which 3 are in flight, `watermark` [6, 5, 4]
//! over `cp_base` [6, 5, 2] and a populated `drop_reach`).
//!
//! `golden/snapshot_v2.json`, `golden/snapshot_v2_chains.json` and the
//! [`DIGESTS`] table were written **at the parent of the commit that
//! replaced the `Json` tree builder by `write_snapshot`** (`6e11897`), by
//! that builder's own `snapshot_json().to_string()`; [`COMPACTED_DIGESTS`]
//! at `3b4489e`, by the engine that kept `drop_reach` as a table of its own
//! (its child derives it from one reach vector per node). None of them is
//! ever regenerated: the code that wrote them no longer exists. Nothing
//! writes version 2 any more either, so they are held through
//! `common::v2_text`: the version 3 text with the tables version 3 derives
//! put back by their definitions must be the pinned version 2 bytes — which
//! says both that version 3 is version 2 less exactly those tables, and
//! that the definitions restore runs on are the right ones. The digests
//! cover what one script cannot: 24 scripts over 2 to 5 processes with both
//! compaction entry points interleaved at random, four states each and both
//! instantiations; six long-lived streams (3, 8 and 32 processes,
//! coordinated and trailing compactions, four epochs each, a text `10·n`
//! events after the last compaction and another after a restore and `20·n`
//! more events).
//!
//! Every one of those version 2 documents is then *restored* — through the
//! reader, like any other — beside its version 3 twin, and both must write
//! the uninterrupted engine's version 3 bytes at once and one stride later.
//! For the three documents that exist as files
//! ([`goldens_restore_to_the_answers_the_tree_restore_gave`]; the version 1
//! golden has the same test in `snapshot_v1.rs`) the bar is the engine the
//! retired restore built: `golden/restore_transcript_*.txt` hold every query
//! answer at once and after each op of a further stride, captured at
//! `b617060` from `from_snapshot_json` over a `Json` tree, and are never
//! regenerated.

mod common;

use common::{text, v2_text, Arrivals};
use rdt_causality::{CheckpointId, ProcessId};
use rdt_json::Json;
use rdt_rgraph::{
    ChainLayer, Chains, CompactionStats, FullAnalysis, IncrementalAnalysis, Journal, NoChains,
    NoJournal, UndoJournal,
};

const GOLDEN_V2_CORE: &str = include_str!("golden/snapshot_v2.json");
const GOLDEN_V2_CHAINS: &str = include_str!("golden/snapshot_v2_chains.json");
const GOLDEN_V3_CORE: &str = include_str!("golden/snapshot_v3.json");
const GOLDEN_V3_CHAINS: &str = include_str!("golden/snapshot_v3_chains.json");
const TRANSCRIPT_CORE: &str = include_str!("golden/restore_transcript_v2.txt");
const TRANSCRIPT_CHAINS: &str = include_str!("golden/restore_transcript_v2_chains.txt");

/// Draws per corpus state, and states per script.
const STRIDE: usize = 40;
const STATES: usize = 4;

/// Per script `(n, seed)`: FNV-1a 64 over the version 2 texts of its four
/// states, in order, of the core engine and of [`FullAnalysis`].
const DIGESTS: [(usize, u64, u64, u64); 24] = [
    (2, 1, 0xe375d3a8e8f4ecaf, 0x148be788e600f75f),
    (2, 2, 0xf188e05077f1916f, 0xf4bd7176b5c7fed8),
    (2, 3, 0xc3f5781c778c8f7a, 0xaf7c06b87a3ab7ab),
    (2, 4, 0x43407479b30d9fc1, 0x6035f3a4f72b56a3),
    (2, 5, 0x13dcca54a30d53ce, 0x527e83903af6b989),
    (2, 6, 0xbb98a33f35493122, 0x031dba49cd6d4402),
    (3, 1, 0x4e60dfc03e4bbd8c, 0x50da4188576e51d4),
    (3, 2, 0x542cf7b71e0e4495, 0xa7e9bf1c3d33341c),
    (3, 3, 0xf838cb5ee157b04f, 0x91e51c6b277089fc),
    (3, 4, 0x2e30a803bf05d95b, 0x2c00d3949f0b00ca),
    (3, 5, 0x1b57daef55f00727, 0xe83707df2acb97d8),
    (3, 6, 0xba1a913e4febee74, 0x8aeb8277e86a8eaa),
    (4, 1, 0xf6a10f512a75a5fb, 0x1b8de2b84de30e9a),
    (4, 2, 0x10cbd22d3f623531, 0xf02fc0826bab9203),
    (4, 3, 0x1e6063ce3d51b0a3, 0x48cff80153c5044a),
    (4, 4, 0x688ba31f3d2b1f89, 0xa7211658462e7ddb),
    (4, 5, 0xd5faa785714c75ba, 0x4b272b856f2cff16),
    (4, 6, 0xb82b87256789092f, 0x93932b86f0cb69f3),
    (5, 1, 0x611b34f5abd5ccff, 0x906eb10bdc938cba),
    (5, 2, 0x6fcd703610765340, 0x378244572555b447),
    (5, 3, 0xcd468c2c31de4b7d, 0x474a3101a024b716),
    (5, 4, 0xfe5933c3ac03b868, 0x9d5a7e9b58ca90f0),
    (5, 5, 0x1b92bf0c5ee487d4, 0xa357e3bdac568896),
    (5, 6, 0x4723d00bc858e72b, 0xb2a465d38390096f),
];

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 as usize) % n
    }
}

#[derive(Clone, Debug)]
enum Op {
    Cp(usize),
    Send(usize, usize),
    Del(u32),
    CompactToLine,
    CompactTo(Vec<u32>),
}

/// What a script generator carries from draw to draw.
struct Script {
    rng: Rng,
    n: usize,
    next_mid: u32,
    in_flight: Vec<u32>,
    /// Checkpoints taken per process, for caps that land inside the pattern.
    taken: Vec<u32>,
}

impl Script {
    fn new(n: usize, seed: u64) -> Script {
        Script {
            rng: Rng(seed),
            n,
            next_mid: 0,
            in_flight: Vec::new(),
            taken: vec![0; n],
        }
    }

    /// One append of the `snapshot_differential.rs` mix; a delivery leaves
    /// at least one message in flight.
    fn append(&mut self) -> Option<Op> {
        let n = self.n;
        match self.rng.below(8) {
            0..=2 => {
                let p = self.rng.below(n);
                self.taken[p] += 1;
                Some(Op::Cp(p))
            }
            3 | 4 => {
                let from = self.rng.below(n);
                self.in_flight.push(self.next_mid);
                self.next_mid += 1;
                Some(Op::Send(from, (from + 1 + self.rng.below(n - 1)) % n))
            }
            _ if self.in_flight.len() > 1 => {
                let k = self.rng.below(self.in_flight.len());
                Some(Op::Del(self.in_flight.swap_remove(k)))
            }
            _ => None,
        }
    }

    fn random_caps(&mut self) -> Vec<u32> {
        (0..self.n)
            .map(|p| self.rng.below(self.taken[p] as usize + 1) as u32)
            .collect()
    }
}

/// Draws of the goldens' script, and of the stride the restore transcripts
/// run past them.
const GOLDEN_DRAWS: usize = 72;
const NEXT_STRIDE: usize = 120;

/// The goldens' op script, then `extra` further draws of the same mix with
/// two more compactions among them.
fn golden_script(extra: usize) -> Vec<Op> {
    let mut script = Script::new(3, 4);
    let mut ops = Vec::new();
    for i in 0..GOLDEN_DRAWS + extra {
        ops.extend(script.append());
        match i {
            30 | 110 => ops.push(Op::CompactToLine),
            55 | 150 => ops.push(Op::CompactTo(script.random_caps())),
            _ => {}
        }
    }
    ops
}

/// One corpus script: `STATES × STRIDE` draws, about one in sixteen a
/// compaction, alternately to the recovery line and to random caps.
fn corpus_script(n: usize, seed: u64) -> Vec<Vec<Op>> {
    let mut script = Script::new(n, seed);
    (0..STATES)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..STRIDE {
                match script.rng.below(16) {
                    0 if script.rng.below(2) == 0 => ops.push(Op::CompactToLine),
                    0 => ops.push(Op::CompactTo(script.random_caps())),
                    _ => ops.extend(script.append()),
                }
            }
            ops
        })
        .collect()
}

fn stats(stats: CompactionStats) -> String {
    format!(
        "{:?} -{}r -{}z -{}c -{}rows",
        stats.watermark,
        stats.dropped_r_nodes,
        stats.dropped_z_nodes,
        stats.dropped_c_nodes,
        stats.freed_tdv_rows
    )
}

/// Applies `op` and returns what the engine replied.
fn apply<C: ChainLayer, J: Journal>(engine: &mut IncrementalAnalysis<C, J>, op: &Op) -> String {
    match op {
        Op::Cp(p) => engine.append_checkpoint(ProcessId::new(*p)).to_string(),
        Op::Send(from, to) => engine
            .append_send(ProcessId::new(*from), ProcessId::new(*to))
            .to_string(),
        Op::Del(mid) => {
            engine.append_deliver(*mid);
            String::new()
        }
        Op::CompactToLine => stats(engine.compact_to_recovery_line()),
        Op::CompactTo(caps) => stats(engine.compact_to(caps)),
    }
}

/// [`apply`] on an engine whose version 2 text will be asked for.
fn apply_tracked<C: ChainLayer, J: Journal>(
    engine: &mut IncrementalAnalysis<C, J>,
    arrivals: &mut Arrivals,
    op: &Op,
) {
    apply(engine, op);
    if let Op::Del(mid) = op {
        arrivals.record(engine, *mid);
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn restore<C: ChainLayer, J: Journal>(text: &str, what: &str) -> IncrementalAnalysis<C, J> {
    IncrementalAnalysis::from_snapshot_text(text.as_bytes())
        .unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Runs one corpus script on one instantiation; returns the digest of its
/// states' version 2 texts. Each state is checked for the canonical form
/// and handed, as version 2 and as version 3, to two restored twins that
/// must write the same version 3 bytes at once and one stride later.
fn run_script<C: ChainLayer, J: Journal>(n: usize, seed: u64) -> u64 {
    let mut engine = IncrementalAnalysis::<C, J>::layered(n);
    let mut arrivals = Arrivals::new(n);
    let mut twins: Vec<IncrementalAnalysis<C, J>> = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (state, ops) in corpus_script(n, seed).iter().enumerate() {
        for op in ops {
            apply_tracked(&mut engine, &mut arrivals, op);
            for twin in &mut twins {
                apply(twin, op);
            }
        }
        let written = text(&engine);
        let what = format!("n = {n}, seed {seed}, state {state}");
        for twin in &twins {
            assert_eq!(text(twin), written, "{what}: restored twin diverged");
        }
        let parsed = Json::parse_bytes(written.as_bytes()).expect("snapshot text parses");
        assert_eq!(parsed.to_string(), written, "{what}: not canonical");
        assert_eq!(engine.snapshot_json(), parsed, "{what}: wrapper");
        for key in ["bwd", "send_events", "deliver_events"] {
            assert!(!written.contains(key), "{what}: version 3 carries `{key}`");
        }
        let v2 = v2_text(&written, &arrivals);
        twins = vec![restore(&v2, &what), restore(&written, &what)];
        for twin in &twins {
            assert_eq!(text(twin), written, "{what}: re-write after restore");
        }
        digest = fnv1a(digest, v2.as_bytes());
    }
    digest
}

#[test]
fn golden_documents_are_written_byte_for_byte() {
    let mut core = IncrementalAnalysis::new(3);
    let mut full = FullAnalysis::layered(3);
    let mut arrivals = Arrivals::new(3);
    for op in &golden_script(0) {
        apply_tracked(&mut core, &mut arrivals, op);
        apply(&mut full, op);
    }
    assert_eq!(text(&core) + "\n", GOLDEN_V3_CORE);
    assert_eq!(text(&full) + "\n", GOLDEN_V3_CHAINS);
    assert_eq!(v2_text(&text(&core), &arrivals) + "\n", GOLDEN_V2_CORE);
    assert_eq!(v2_text(&text(&full), &arrivals) + "\n", GOLDEN_V2_CHAINS);

    // The golden is the document its header says it is.
    let doc = core.snapshot_json();
    let table = |key: &str| doc.get(key).map(Json::to_string).expect("core table");
    assert_eq!(table("version"), "3");
    assert_eq!(table("epoch"), "2");
    assert_eq!(table("watermark"), "[6,5,4]");
    assert_eq!(table("cp_base"), "[6,5,2]");
    assert_eq!(core.num_messages(), 19);
    let in_flight = "4294967295,";
    assert_eq!(table("msgs").matches(in_flight).count(), 3);
    assert_ne!(table("drop_reach"), "[]");
    assert!(full.snapshot_json().get("chains").is_some());
    assert!(doc.get("chains").is_none());
    // Deliveries inside one interval that did not arrive in handle order:
    // the one thing of version 2 that version 3 cannot say, and that
    // nothing reads.
    assert!(GOLDEN_V2_CORE.contains("[8,11],[8,8]"));
}

#[test]
fn corpus_digests_match_the_tree_builder() {
    let mut scripts = DIGESTS.iter();
    for n in 2..=5 {
        for seed in 1..=6 {
            let &(pinned_n, pinned_seed, core, full) = scripts.next().expect("24 rows");
            assert_eq!((pinned_n, pinned_seed), (n, seed));
            let what = format!("n = {n}, seed {seed}");
            assert_eq!(run_script::<NoChains, NoJournal>(n, seed), core, "{what}");
            let digest = run_script::<Chains, UndoJournal>(n, seed);
            assert_eq!(digest, full, "{what}: FullAnalysis");
        }
    }
}

// ------------------------------------------------ restore transcripts ----

/// Everything the daemon can be asked about a stream.
fn answers<C: ChainLayer, J: Journal>(engine: &IncrementalAnalysis<C, J>) -> String {
    let n = engine.num_processes();
    let tops: Vec<u32> = (0..n)
        .map(|p| engine.last_checkpoint_index(ProcessId::new(p)))
        .collect();
    let mut out = format!(
        "{} {:?}",
        engine.untrackable_pairs(),
        engine.max_consistent_dominated(&tops).as_slice()
    );
    for (p, &top) in tops.iter().enumerate() {
        for index in [0, top / 2, top] {
            let member = [CheckpointId::new(ProcessId::new(p), index)];
            let line = |gc: Option<rdt_rgraph::GlobalCheckpoint>| match gc {
                Some(gc) => format!("{:?}", gc.as_slice()),
                None => "-".to_string(),
            };
            out += &format!(
                " {}|{}",
                line(engine.min_consistent_containing(&member)),
                line(engine.max_consistent_containing(&member))
            );
        }
    }
    out
}

/// [`answers`], and the three characterizations on the closed pattern.
fn full_answers(engine: &mut FullAnalysis) -> String {
    let verdicts = engine.with_closed(|view| {
        format!(
            "{} {} {}",
            view.rdt_holds(),
            view.all_chains_doubled(),
            view.all_cm_paths_doubled()
        )
    });
    format!("{} {verdicts}", answers(engine))
}

/// What a restored engine answers at once, and what it replies and answers
/// after each op of `ops`.
fn transcript<C: ChainLayer, J: Journal>(
    mut engine: IncrementalAnalysis<C, J>,
    ops: &[Op],
    answers: impl Fn(&mut IncrementalAnalysis<C, J>) -> String,
) -> (String, IncrementalAnalysis<C, J>) {
    let mut out = format!("restored: {}\n", answers(&mut engine));
    for op in ops {
        let reply = apply(&mut engine, op);
        out += &format!("{op:?} = {reply}: {}\n", answers(&mut engine));
    }
    (out, engine)
}

#[test]
fn goldens_restore_to_the_answers_the_tree_restore_gave() {
    let ops = golden_script(NEXT_STRIDE);
    let (golden_ops, stride) = ops.split_at(golden_script(0).len());
    let mut core = IncrementalAnalysis::new(3);
    let mut full = FullAnalysis::layered(3);
    for op in golden_ops {
        apply(&mut core, op);
        apply(&mut full, op);
    }
    // The uninterrupted twins, asked the same questions at the same points
    // (`with_closed` appends and rewinds, which the `events` counter keeps).
    let (said, core) = transcript(core, stride, |e| answers(e));
    assert_eq!(said, TRANSCRIPT_CORE, "the uninterrupted twin");
    let (said, full) = transcript(full, stride, full_answers);
    assert_eq!(said, TRANSCRIPT_CHAINS, "the uninterrupted twin");
    assert!(stride.len() > 80 && core.compactions() == 4);

    for golden in [GOLDEN_V2_CORE, GOLDEN_V3_CORE] {
        let restored = restore::<NoChains, NoJournal>(golden.trim_end(), "core golden");
        let (said, after) = transcript(restored, stride, |e| answers(e));
        assert_eq!(said, TRANSCRIPT_CORE);
        assert_eq!(text(&after), text(&core), "an uninterrupted twin");
    }
    for golden in [GOLDEN_V2_CHAINS, GOLDEN_V3_CHAINS] {
        let restored = restore::<Chains, UndoJournal>(golden.trim_end(), "chains golden");
        let (said, after) = transcript(restored, stride, full_answers);
        assert_eq!(said, TRANSCRIPT_CHAINS);
        assert_eq!(text(&after), text(&full), "an uninterrupted twin");
    }
    // A chain-bearing document restores into a chain-free engine (the
    // `chains` key is skipped; `reclaimed_rows` is carried as stored, chain
    // rows and all), not the other way round.
    for golden in [GOLDEN_V2_CHAINS, GOLDEN_V3_CHAINS] {
        let restored = restore::<NoChains, NoJournal>(golden.trim_end(), "chains as core");
        let (said, _) = transcript(restored, stride, |e| answers(e));
        assert_eq!(said, TRANSCRIPT_CORE);
    }
    assert!(FullAnalysis::from_snapshot_text(GOLDEN_V3_CORE.as_bytes()).is_err());
}

// ------------------------------------------------ compacted streams ----

/// Per stream `(n, trailing)`: FNV-1a 64 over its two version 2 texts, as
/// the engine that kept `drop_reach` as a table wrote them (`3b4489e`).
const COMPACTED_DIGESTS: [(usize, bool, u64); 6] = [
    (3, false, 0xa973925afd3beabc),
    (3, true, 0xbd6116d214bbf75e),
    (8, false, 0xdcef3316bf4bb0b2),
    (8, true, 0x25824e1c8a87a488),
    (32, false, 0x8cd3d9238b5476b5),
    (32, true, 0x831248955a222a73),
];

/// A long-lived stream of the daemon's shape: every 4th event a checkpoint
/// of a random process, otherwise a send or a delivery of a random message
/// in flight (at most `2n`).
struct Stream {
    script: Script,
    events: usize,
}

impl Stream {
    fn event(&mut self) -> Op {
        let n = self.script.n;
        let s = &mut self.script;
        self.events += 1;
        if self.events.is_multiple_of(4) {
            let p = s.rng.below(n);
            s.taken[p] += 1;
            return Op::Cp(p);
        }
        let send = match s.in_flight.len() {
            0 => true,
            k if k >= 2 * n => false,
            _ => s.rng.below(2) == 0,
        };
        if send {
            let from = s.rng.below(n);
            s.in_flight.push(s.next_mid);
            s.next_mid += 1;
            Op::Send(from, (from + 1 + s.rng.below(n - 1)) % n)
        } else {
            let k = s.rng.below(s.in_flight.len());
            Op::Del(s.in_flight.swap_remove(k))
        }
    }

    /// A coordinated round (everything in flight delivered, every process
    /// checkpointed) and a compaction to the recovery line, which is then
    /// the frontier; or, `trailing`, no round and a compaction to caps up to
    /// three checkpoints behind each process's last, so the watermark
    /// trails and part of every history stays resident.
    fn compaction(&mut self, trailing: bool) -> Vec<Op> {
        let s = &mut self.script;
        if trailing {
            let lag = |p: usize, s: &mut Script| s.taken[p].saturating_sub(s.rng.below(4) as u32);
            return vec![Op::CompactTo((0..s.n).map(|p| lag(p, s)).collect())];
        }
        let mut ops: Vec<Op> = s.in_flight.drain(..).map(Op::Del).collect();
        for p in 0..s.n {
            s.taken[p] += 1;
            ops.push(Op::Cp(p));
        }
        ops.push(Op::CompactToLine);
        ops
    }
}

/// One stream: four periods of `100·n` events, each closed by a
/// compaction; the first text is taken `10·n` events after the last one,
/// the second after a restore — of the first's version 2 document — and
/// `20·n` more events on the restored twin (which the uninterrupted
/// original must write identically).
fn compacted_stream_digest(n: usize, trailing: bool) -> u64 {
    let what = format!("n = {n}, trailing = {trailing}");
    let mut engine = IncrementalAnalysis::new(n);
    let mut arrivals = Arrivals::new(n);
    let mut stream = Stream {
        script: Script::new(n, 0x5eed_0020 + n as u64 + u64::from(trailing)),
        events: 0,
    };
    for _ in 0..4 {
        for _ in 0..100 * n {
            apply_tracked(&mut engine, &mut arrivals, &stream.event());
        }
        for op in stream.compaction(trailing) {
            apply_tracked(&mut engine, &mut arrivals, &op);
        }
    }
    assert!(engine.compactions() >= 3, "{what}: epochs");
    assert!(
        engine.retained_from().iter().any(|&base| base > 0),
        "{what}"
    );
    for _ in 0..10 * n {
        apply_tracked(&mut engine, &mut arrivals, &stream.event());
    }
    let first = v2_text(&text(&engine), &arrivals);
    let doc = Json::parse_bytes(first.as_bytes()).expect("snapshot text parses");
    let dropped = doc
        .get("drop_reach")
        .and_then(Json::as_array)
        .expect("table");
    assert!(
        dropped.iter().any(|d| *d != Json::U64(u64::from(u32::MAX))),
        "{what}: no dropped checkpoint reaches a retained one"
    );
    let mut twin: IncrementalAnalysis = restore(&first, &what);
    assert_eq!(text(&twin), text(&engine), "{what}: re-write after restore");
    for _ in 0..20 * n {
        let op = stream.event();
        apply_tracked(&mut engine, &mut arrivals, &op);
        apply(&mut twin, &op);
    }
    assert_eq!(text(&engine), text(&twin), "{what}: restored twin diverged");
    let second = v2_text(&text(&twin), &arrivals);
    assert_ne!(first, second);
    fnv1a(
        fnv1a(0xcbf2_9ce4_8422_2325, first.as_bytes()),
        second.as_bytes(),
    )
}

#[test]
fn compacted_stream_digests_match_the_drop_reach_engine() {
    for &(n, trailing, pinned) in &COMPACTED_DIGESTS {
        let digest = compacted_stream_digest(n, trailing);
        assert_eq!(digest, pinned, "n = {n}, trailing = {trailing}");
    }
}
