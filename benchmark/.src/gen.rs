//! Seeded, deterministic frame generation and the in-line reply predictor.
//!
//! A [`Script`] is one connection's endless frame sequence for one
//! workload. It tracks, without an engine, exactly the state needed to
//! predict the daemon's reply to every frame it emits: per-stream
//! message handles are assigned `0, 1, 2, …` in send order and a
//! checkpoint reply carries the per-process count.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Frames each connection keeps in flight in a `sat` phase.
pub const SAT_WINDOW: usize = 16;

/// Socket family a workload drives the daemon over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp,
    Unix,
}

/// One traffic mix. Each field is a property the daemon's cost depends
/// on; the README's workload table says why each row exists.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub transport: Transport,
    /// Connections, one generator thread each.
    pub conns: usize,
    /// Concurrently open streams per connection, visited round-robin.
    pub streams: usize,
    /// Processes per stream.
    pub processes: usize,
    /// Every k-th event of a stream is a checkpoint.
    pub checkpoint_every: u32,
    /// Most undelivered messages per stream.
    pub inflight: usize,
    /// A stream closes after this many events and reopens under a fresh
    /// name; slots are preloaded to staggered ages.
    pub close_after: Option<u32>,
    /// A `compact` follows every k-th event of a stream.
    pub compact_every: Option<u32>,
    /// One query follows every event, rotating over the four kinds.
    pub query_each_event: bool,
    /// Every k-th event of the connection is a `crash`.
    pub crash_every: Option<u64>,
    /// A `snapshot` op replaces every k-th frame of the timed script.
    pub snapshot_every: Option<u64>,
    /// Whether timed phases end on a `compact` or `snapshot` frame. Set
    /// where those frames make the cost per frame a sawtooth whose period
    /// is a large part of a phase, so that every phase covers whole
    /// periods; the TCP workloads cannot reach such a frame within a
    /// `sat` phase and are flat enough without.
    pub align_phases: bool,
    /// Frames the traced ladder run replays.
    pub trace_frames: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fanout-tcp",
        why: "512 tiny n=4 streams over 2 TCP connections: socket, framing, json, protocol and shard hop do the work, rgraph almost none",
        transport: Transport::Tcp,
        conns: 2,
        streams: 256,
        processes: 4,
        checkpoint_every: 8,
        inflight: 16,
        close_after: Some(64),
        compact_every: None,
        query_each_event: false,
        crash_every: None,
        snapshot_every: None,
        align_phases: false,
        trace_frames: 20_000,
    },
    Workload {
        name: "deep-unix",
        why: "2 never-closing n=32 streams on different shards, compacted every 3200 events: rgraph appends and compaction are the largest layer, wire and parse the smaller part",
        transport: Transport::Unix,
        conns: 1,
        streams: 2,
        processes: 32,
        checkpoint_every: 4,
        inflight: 64,
        close_after: None,
        compact_every: Some(3_200),
        query_each_event: false,
        crash_every: None,
        snapshot_every: None,
        align_phases: true,
        trace_frames: 16_000,
    },
    Workload {
        name: "query-mix-tcp",
        why: "8 n=16 streams with one query after every event and a crash every 500: the same rgraph layer read beside written, 16-wide replies through json",
        transport: Transport::Tcp,
        conns: 1,
        streams: 8,
        processes: 16,
        checkpoint_every: 4,
        inflight: 16,
        close_after: None,
        compact_every: Some(2_000),
        query_each_event: true,
        crash_every: Some(500),
        snapshot_every: None,
        align_phases: false,
        trace_frames: 20_000,
    },
    Workload {
        name: "persist-unix",
        why: "64 n=8 streams of staggered age with a snapshot op every 1500 frames inside the timed phases: snapshot, serialise, file write and restore dominate",
        transport: Transport::Unix,
        conns: 1,
        streams: 64,
        processes: 8,
        checkpoint_every: 4,
        inflight: 16,
        close_after: Some(1_000),
        compact_every: None,
        query_each_event: false,
        crash_every: None,
        snapshot_every: Some(1_500),
        align_phases: true,
        trace_frames: 6_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// xorshift64* seeded through splitmix64, so nearby seeds diverge at once.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }
}

/// The shard `rdt-serve` routes `stream` to: its FNV-1a 64 hash modulo
/// the worker count (`crates/serve/src/shard.rs` keeps the function
/// private, so this is a copy; the ladder's `shard.busiest_share` and the
/// `deep-unix` name check rely on it).
pub fn shard_of(stream: &str, workers: usize) -> usize {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in stream.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % workers as u64) as usize
}

/// What the daemon must answer for a frame to count as served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// The whole reply line, byte for byte.
    Exact(String),
    /// Any success reply (queries, crashes, compactions, snapshots: the
    /// ladder run checks their bodies differentially).
    Ok,
}

impl Expect {
    pub fn matches(&self, reply: &[u8]) -> bool {
        match self {
            Expect::Exact(want) => reply == want.as_bytes(),
            Expect::Ok => reply.starts_with(br#"{"ok":true"#),
        }
    }
}

const SNAPSHOT: &str = r#"{"op":"snapshot"}"#;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The request line, without the trailing newline.
    pub line: String,
    pub expect: Expect,
    /// A `compact` or `snapshot` frame: where aligned phases may end.
    pub cycle_end: bool,
}

impl Frame {
    fn new(line: String, expect: Expect) -> Frame {
        Frame {
            line,
            expect,
            cycle_end: false,
        }
    }

    fn exact(line: String, reply: String) -> Frame {
        Frame::new(line, Expect::Exact(reply))
    }

    pub fn snapshot() -> Frame {
        Frame {
            line: SNAPSHOT.to_string(),
            expect: Expect::Ok,
            cycle_end: true,
        }
    }

    pub fn is_snapshot(&self) -> bool {
        self.line == SNAPSHOT
    }
}

#[derive(Debug)]
struct Slot {
    name: String,
    generation: u32,
    events: u32,
    since_compact: u32,
    checkpoints: Vec<u32>,
    next_message: u32,
    inflight: Vec<u32>,
}

impl Slot {
    fn new(workload: &Workload, conn: usize, slot: usize, generation: u32) -> Slot {
        let tag = &workload.name[..1];
        Slot {
            name: format!("{tag}{conn}-{slot:03}-g{generation}"),
            generation,
            events: 0,
            since_compact: 0,
            checkpoints: vec![0; workload.processes],
            next_message: 0,
            inflight: Vec::new(),
        }
    }
}

impl Slot {
    /// An `event` request line of this stream; `body` starts at the
    /// value of `"type"`.
    fn event(&self, body: std::fmt::Arguments<'_>) -> String {
        format!(r#"{{"op":"event","stream":"{}","type":{body}}}"#, self.name)
    }

    fn checkpoint(&mut self, process: usize) -> Frame {
        self.checkpoints[process] += 1;
        Frame::exact(
            self.event(format_args!(r#""checkpoint","process":{process}"#)),
            format!(
                r#"{{"ok":true,"checkpoint":{}}}"#,
                self.checkpoints[process]
            ),
        )
    }

    fn deliver(&self, message: u32) -> Frame {
        Frame::exact(
            self.event(format_args!(r#""deliver","message":{message}"#)),
            r#"{"ok":true}"#.to_string(),
        )
    }
}

#[derive(Debug)]
pub struct Script {
    workload: &'static Workload,
    conn: usize,
    rng: Rng,
    slots: Vec<Slot>,
    cursor: usize,
    events: u64,
    emitted: u64,
    queue: VecDeque<Frame>,
}

impl Script {
    pub fn new(workload: &'static Workload, seed: u64, conn: usize) -> Script {
        Script {
            workload,
            conn,
            rng: Rng::new(seed ^ (conn as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
            slots: (0..workload.streams)
                .map(|slot| Slot::new(workload, conn, slot, 0))
                .collect(),
            cursor: 0,
            events: 0,
            emitted: 0,
            queue: VecDeque::new(),
        }
    }

    pub fn workload(&self) -> &'static Workload {
        self.workload
    }

    /// The frames that bring a fresh daemon to the workload's stationary
    /// state: every slot opened, slot `i` aged to `i/streams` of its
    /// close or compaction period, so that closes and compactions are
    /// spread evenly over the run instead of arriving in bursts.
    pub fn preload(&mut self) -> Vec<Frame> {
        let w = self.workload;
        let period = w.close_after.or(w.compact_every).unwrap_or(0) as usize;
        for slot in 0..self.slots.len() {
            self.push_open(slot);
            for _ in 0..period * slot / self.slots.len() {
                self.push_event(slot);
            }
        }
        self.queue.drain(..).collect()
    }

    /// The next frame of the timed script.
    pub fn next_frame(&mut self) -> Frame {
        self.emitted += 1;
        if self
            .workload
            .snapshot_every
            .is_some_and(|k| self.emitted.is_multiple_of(k))
        {
            return Frame::snapshot();
        }
        loop {
            if let Some(frame) = self.queue.pop_front() {
                return frame;
            }
            let slot = self.cursor;
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.push_event(slot);
        }
    }

    /// Closing frames of the traced run: every query kind and a `compact`
    /// on each of the first eight streams, so that every layer metric has
    /// samples on every workload.
    pub fn epilogue(&mut self) -> Vec<Frame> {
        for slot in 0..self.slots.len().min(8) {
            for kind in 0..4 {
                let frame = self.query(slot, kind);
                self.queue.push_back(frame);
            }
            self.push_compact(slot);
        }
        self.queue.drain(..).collect()
    }

    /// Queries whose answers must survive a restart byte for byte: the
    /// stream list plus two queries on each of the first eight streams.
    pub fn query_set(&self) -> Vec<String> {
        let mut lines = vec![r#"{"op":"streams"}"#.to_string()];
        for slot in self.slots.iter().take(8) {
            for what in ["untrackable", "recovery-line"] {
                lines.push(format!(
                    r#"{{"op":"query","stream":"{}","what":"{what}"}}"#,
                    slot.name
                ));
            }
        }
        lines
    }

    fn push_open(&mut self, slot: usize) {
        let name = &self.slots[slot].name;
        let n = self.workload.processes;
        self.queue.push_back(Frame::exact(
            format!(r#"{{"op":"open","stream":"{name}","processes":{n}}}"#),
            format!(r#"{{"ok":true,"stream":"{name}","processes":{n}}}"#),
        ));
    }

    /// A coordinated round, then `compact`: everything in flight is
    /// delivered and every process checkpoints, so the last checkpoints
    /// form a consistent global checkpoint, the recovery line reaches the
    /// frontier and the compaction reclaims the whole prefix. Without the
    /// round the recovery line of a random pattern trails arbitrarily far
    /// behind (the domino effect), and what a compaction reclaims — and
    /// with it the cost of every later append — differs several-fold
    /// from one period to the next.
    fn push_compact(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.since_compact = 0;
        for message in std::mem::take(&mut s.inflight) {
            self.queue.push_back(s.deliver(message));
        }
        for process in 0..self.workload.processes {
            self.queue.push_back(s.checkpoint(process));
        }
        let name = &s.name;
        self.queue.push_back(Frame {
            line: format!(r#"{{"op":"compact","stream":"{name}"}}"#),
            expect: Expect::Ok,
            cycle_end: true,
        });
    }

    /// Queues one event for `slot` and every frame that follows from it
    /// (query, compact, close + reopen).
    fn push_event(&mut self, slot: usize) {
        let w = self.workload;
        self.events += 1;
        let crash = w.crash_every.is_some_and(|k| self.events.is_multiple_of(k));
        let frame = if crash {
            let process = self.rng.below(w.processes);
            let line = self.slots[slot].event(format_args!(r#""crash","process":{process}"#));
            Frame::new(line, Expect::Ok)
        } else {
            self.stream_event(slot)
        };
        self.queue.push_back(frame);
        if w.query_each_event {
            // Shift by one each round, or a stream count divisible by
            // four would pin one query kind to each stream.
            let kind = self.events + self.events / self.slots.len() as u64;
            let frame = self.query(slot, kind % 4);
            self.queue.push_back(frame);
        }
        if crash {
            return; // A crash is a marker: the stream did not age.
        }
        if w.compact_every == Some(self.slots[slot].since_compact) {
            self.push_compact(slot);
        }
        if w.close_after == Some(self.slots[slot].events) {
            let name = &self.slots[slot].name;
            self.queue.push_back(Frame::exact(
                format!(r#"{{"op":"close","stream":"{name}"}}"#),
                format!(r#"{{"ok":true,"closed":"{name}"}}"#),
            ));
            let generation = self.slots[slot].generation + 1;
            self.slots[slot] = Slot::new(w, self.conn, slot, generation);
            self.push_open(slot);
        }
    }

    /// A checkpoint on every `checkpoint_every`-th event, otherwise a
    /// send or a deliver by coin flip within the in-flight bounds;
    /// deliveries pick a random undelivered message, so channels are not
    /// FIFO and non-causal Z-paths occur.
    fn stream_event(&mut self, slot: usize) -> Frame {
        let w = self.workload;
        let rng = &mut self.rng;
        let s = &mut self.slots[slot];
        s.events += 1;
        s.since_compact += 1;
        if s.events.is_multiple_of(w.checkpoint_every) {
            return s.checkpoint(rng.below(w.processes));
        }
        let send = match s.inflight.len() {
            0 => true,
            k if k >= w.inflight => false,
            _ => rng.next_u64() & 1 == 0,
        };
        if send {
            let from = rng.below(w.processes);
            let to = (from + 1 + rng.below(w.processes - 1)) % w.processes;
            let message = s.next_message;
            s.next_message += 1;
            s.inflight.push(message);
            Frame::exact(
                s.event(format_args!(r#""send","from":{from},"to":{to}"#)),
                format!(r#"{{"ok":true,"message":{message}}}"#),
            )
        } else {
            let message = s.inflight.swap_remove(rng.below(s.inflight.len()));
            s.deliver(message)
        }
    }

    /// Query `kind` (0 untrackable, 1 recovery-line, 2 min, 3 max) on
    /// `slot`; min/max take 1–3 members on distinct processes, each one
    /// of that process's last three checkpoints.
    fn query(&mut self, slot: usize, kind: u64) -> Frame {
        let n = self.workload.processes;
        let rng = &mut self.rng;
        let s = &self.slots[slot];
        let mut line = format!(r#"{{"op":"query","stream":"{}","what":"#, s.name);
        match kind {
            0 => line.push_str(r#""untrackable"}"#),
            1 => line.push_str(r#""recovery-line"}"#),
            _ => {
                let what = if kind == 2 { "min" } else { "max" };
                let _ = write!(line, r#""{what}-consistent","members":["#);
                let first = rng.below(n);
                for k in 0..1 + rng.below(3) {
                    let process = (first + k) % n;
                    let last = s.checkpoints[process];
                    let index = last - rng.below(last.min(2) as usize + 1) as u32;
                    let sep = if k == 0 { "" } else { "," };
                    let _ = write!(line, "{sep}[{process},{index}]");
                }
                line.push_str("]}");
            }
        }
        Frame::new(line, Expect::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_serve::{handle_request, parse_request};
    use std::collections::BTreeMap;

    fn frames(workload: &'static Workload, seed: u64, count: usize) -> Vec<Frame> {
        let mut script = Script::new(workload, seed, 0);
        let mut out = script.preload();
        out.extend((0..count).map(|_| script.next_frame()));
        out
    }

    #[test]
    fn same_seed_same_frames_and_other_seed_other_frames() {
        for w in &WORKLOADS {
            assert_eq!(frames(w, 7, 2_000), frames(w, 7, 2_000), "{}", w.name);
            assert_ne!(frames(w, 7, 2_000), frames(w, 8, 2_000), "{}", w.name);
        }
    }

    /// The in-line predictor against the real shard code: every frame of
    /// every workload is accepted, and wherever the predictor commits to
    /// a whole reply it is the reply `handle_request` gives.
    #[test]
    fn predictor_agrees_with_handle_request() {
        for w in &WORKLOADS {
            let mut streams = BTreeMap::new();
            let mut script = Script::new(w, 42, 0);
            let mut all = script.preload();
            all.extend((0..10_000).map(|_| script.next_frame()));
            all.extend(script.epilogue());
            for frame in all.iter().filter(|f| !f.is_snapshot()) {
                let request = parse_request(frame.line.as_bytes()).expect("generated frame parses");
                let reply = handle_request(&mut streams, &request).to_string();
                assert!(
                    frame.expect.matches(reply.as_bytes()),
                    "{}: {} -> {reply}, expected {:?}",
                    w.name,
                    frame.line,
                    frame.expect
                );
            }
        }
    }

    #[test]
    fn deep_unix_streams_land_on_different_shards() {
        let w = workload("deep-unix").expect("workload exists");
        let script = Script::new(w, 1, 0);
        assert_eq!(script.slots.len(), 2);
        assert_ne!(
            shard_of(&script.slots[0].name, 2),
            shard_of(&script.slots[1].name, 2)
        );
    }

    #[test]
    fn workload_names_are_unique_and_why_fits_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
    }
}
