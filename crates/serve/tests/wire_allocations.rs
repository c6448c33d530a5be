//! A work bound no host can move: heap allocations per frame.
//!
//! A canonical `event` / `query` frame is scanned in place, finds its
//! stream by the name's bytes where they lie in the frame, and has its
//! typed reply rendered into the connection's buffer — so the frame itself
//! allocates nothing, and what is left is the engine's own tables growing.
//! This test counts: 512 n=4 streams (the shape of serve-bench's
//! `fanout-tcp`), round-robin, through [`PoolHandle::answer_frame`], which
//! is exactly what `serve_connection` calls per frame. When every frame
//! still became a `Json` tree and every reply another, the same frames read
//! 15.4 allocations each. A refused frame is a typed reply too: the second
//! test bounds three kinds of refusal at their error message's allocations.
//!
//! The third test pins what a consistency query allocates, the fourth what
//! opening and closing a stream allocates, the fifth what the tenants hold
//! rather than what a frame allocates: the live heap blocks and bytes of a
//! one-stripe pool of such streams at staggered ages. The sixth bounds what
//! a whole persist of the first test's pool holds at its peak: one chunk,
//! not the document.
//!
//! The allocator shim counts per thread, so the harness's own threads do
//! not show up in the numbers. The libraries stay `forbid(unsafe_code)`;
//! like `crates/bench/src/bin/experiments.rs`, the shim lives in the one
//! crate that needs it. Run it in `--release`, by name, as CI does; the
//! counts are the same in a debug build, the timings printed beside them
//! are not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::time::Instant;

use rdt_json::Json;
use rdt_serve::{EnginePool, ErrorKind, PoolHandle, ServeError, PERSIST_CHUNK};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Blocks allocated and not yet freed, and their bytes.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
    /// The most bytes live at once since it was last set.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

/// Counts an allocation of `blocks` new blocks (0 for a reallocation) and
/// `bytes` more live bytes.
fn note_allocation(blocks: i64, bytes: i64) {
    // `try_with`: a thread that is being torn down may still free and
    // allocate; it is not the thread being measured.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    note_live(blocks, bytes);
}

fn note_live(blocks: i64, bytes: i64) {
    let _ = LIVE.try_with(|live| {
        let (b, n) = live.get();
        live.set((b + blocks, n + bytes));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(n + bytes)));
    });
}

/// How many bytes more than before it `work` holds live at its peak.
fn peak_growth(work: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get).1;
    PEAK.with(|peak| peak.set(before));
    work();
    PEAK.with(Cell::get) - before
}

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counters are `const`-initialised thread-local
// `Cell`s without a destructor, so touching them never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-1, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(0, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const STREAMS: usize = 512;
const PROCESSES: usize = 4;
const WARM_UP_ROUNDS: usize = 8;
const MEASURED_FRAMES: usize = 20_000;

/// The frame stream `s` sends in round `round`: two sends, their two
/// deliveries, then a checkpoint or an `untrackable` query, over and over.
/// `spelling` goes between `{` and the first key: empty for the canonical
/// form, a space for a valid frame the scanner leaves to the tree parser.
fn frame(s: usize, round: usize, spelling: &str) -> Vec<u8> {
    let name = format!("tenant-{s:03}");
    let (cycle, step) = (round / 5, round % 5);
    let body = match step {
        0 | 1 => {
            let from = (s + cycle + step) % PROCESSES;
            let to = (from + 1 + cycle % (PROCESSES - 1)) % PROCESSES;
            format!(r#""op":"event","stream":"{name}","type":"send","from":{from},"to":{to}"#)
        }
        2 | 3 => {
            let message = 2 * cycle + step - 2;
            format!(r#""op":"event","stream":"{name}","type":"deliver","message":{message}"#)
        }
        _ if cycle % 2 == 0 => {
            let process = (s + cycle / 2) % PROCESSES;
            format!(r#""op":"event","stream":"{name}","type":"checkpoint","process":{process}"#)
        }
        _ => format!(r#""op":"query","stream":"{name}","what":"untrackable""#),
    };
    format!("{{{spelling}{body}}}").into_bytes()
}

/// Rounds `rounds` of every stream, round-robin.
fn rounds(rounds: std::ops::Range<usize>, spelling: &str) -> Vec<Vec<u8>> {
    rounds
        .flat_map(|round| (0..STREAMS).map(move |s| (s, round)))
        .map(|(s, round)| frame(s, round, spelling))
        .collect()
}

/// A pool with every stream open and warmed up.
fn warm_pool(spelling: &str, out: &mut Vec<u8>) -> PoolHandle {
    let handle = EnginePool::new(2).handle();
    for s in 0..STREAMS {
        let open = format!(r#"{{"op":"open","stream":"tenant-{s:03}","processes":{PROCESSES}}}"#);
        assert!(handle.answer_frame(open.as_bytes(), out).is_none());
    }
    run(&handle, &rounds(0..WARM_UP_ROUNDS, spelling), out);
    handle
}

/// Sends `frames` through the daemon's per-frame entry, reusing `out` the
/// way a connection does, and returns (allocations, nanoseconds) per frame.
/// Every reply must start with `{"ok":true`.
fn run(handle: &PoolHandle, frames: &[Vec<u8>], out: &mut Vec<u8>) -> (f64, f64) {
    run_expecting(handle, frames, out, br#"{"ok":true"#)
}

/// [`run`], with every reply starting with `reply`.
fn run_expecting(
    handle: &PoolHandle,
    frames: &[Vec<u8>],
    out: &mut Vec<u8>,
    reply: &[u8],
) -> (f64, f64) {
    let before = ALLOCATIONS.with(Cell::get);
    let started = Instant::now();
    for frame in frames {
        out.clear();
        assert!(handle.answer_frame(frame, out).is_none());
        assert!(out.starts_with(reply), "{:?}", String::from_utf8_lossy(out));
    }
    let nanos = started.elapsed().as_nanos() as f64;
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let count = frames.len() as f64;
    (allocations as f64 / count, nanos / count)
}

#[test]
fn canonical_frames_allocate_at_most_once_each() {
    let mut out = Vec::with_capacity(4096);
    let last_round = WARM_UP_ROUNDS + MEASURED_FRAMES.div_ceil(STREAMS);

    let handle = warm_pool("", &mut out);
    let mut frames = rounds(WARM_UP_ROUNDS..last_round, "");
    frames.truncate(MEASURED_FRAMES);
    let (allocations, nanos) = run(&handle, &frames, &mut out);
    println!("scanned in place: {allocations:.4} allocations, {nanos:.0} ns per frame");
    // 0.4880 while each process's sends and deliveries were vectors of
    // their own, growing beside the message table.
    assert!(
        allocations <= 0.3072,
        "{allocations:.4} allocations per canonical frame: something on the hot path builds again"
    );

    let lines: Vec<Vec<u8>> = (0..STREAMS)
        .map(|s| format!(r#"{{"op":"query","stream":"tenant-{s:03}","what":"recovery-line"}}"#))
        .map(String::into_bytes)
        .collect();
    let (line_allocations, line_nanos) = run(&handle, &lines, &mut out);
    println!("recovery-line:    {line_allocations:.2} allocations, {line_nanos:.0} ns per frame");
    assert!(
        line_allocations <= 2.0,
        "{line_allocations:.2} allocations per recovery-line query"
    );

    // The same requests spelled with one space after the brace: valid JSON
    // the scanner leaves to the tree parser. Reported, not bounded — it is
    // the path the other one is measured against.
    let handle = warm_pool(" ", &mut out);
    let mut frames = rounds(WARM_UP_ROUNDS..last_round, " ");
    frames.truncate(MEASURED_FRAMES);
    let (tree_allocations, tree_nanos) = run(&handle, &frames, &mut out);
    println!("through the tree: {tree_allocations:.2} allocations, {tree_nanos:.0} ns per frame");
    assert!(
        tree_allocations > 4.0 * allocations.max(0.25),
        "the non-canonical spelling was not the tree path ({tree_allocations:.2})"
    );
}

/// What a consistency query costs once its stream has answered one
/// before, exactly: on the first test's warm pool, one `min-consistent`,
/// one `max-consistent` and one `recovery-line` frame per stream, asked
/// twice, the second time counted. A `min` / `max` frame allocates its
/// scanned members and, where a global checkpoint exists, the one it
/// names (every one here does; its checkpoint ids stay on the stack, and
/// its fit question reads the tail targets the engine keeps); a
/// `recovery-line` frame allocates the line it names. While the members
/// were copied into a second `Vec` the same `min` / `max` frames made
/// 3 072 allocations.
#[test]
fn query_frames_allocate_a_pinned_count() {
    // Allocations of the 1 024 `min` / `max` frames and of the 512
    // `recovery-line` frames.
    const PINNED: [u64; 2] = [2_048, 512];
    let mut out = Vec::with_capacity(4096);
    let handle = warm_pool("", &mut out);
    let query = |s: usize, what: &str| {
        format!(r#"{{"op":"query","stream":"tenant-{s:03}","what":{what}}}"#).into_bytes()
    };
    let fits: Vec<Vec<u8>> = (0..STREAMS)
        .flat_map(|s| {
            let (own, next) = (s % PROCESSES, (s + 1) % PROCESSES);
            [
                query(s, &format!(r#""min-consistent","members":[[{own},1]]"#)),
                query(
                    s,
                    &format!(r#""max-consistent","members":[[{own},1],[{next},0]]"#),
                ),
            ]
        })
        .collect();
    let lines: Vec<Vec<u8>> = (0..STREAMS)
        .map(|s| query(s, r#""recovery-line""#))
        .collect();
    let mut counted = [0; 2];
    for (frames, count) in [&fits, &lines].into_iter().zip(&mut counted) {
        run(&handle, frames, &mut out);
        let before = ALLOCATIONS.with(Cell::get);
        let (per_frame, nanos) = run(&handle, frames, &mut out);
        *count = ALLOCATIONS.with(Cell::get) - before;
        println!("query frames: {per_frame:.2} allocations, {nanos:.0} ns per frame");
    }
    assert_eq!(
        counted, PINNED,
        "allocations of min / max and of recovery-line frames"
    );
}

/// The members of frame `s` of a kind: everything between its braces.
type Body = fn(usize) -> String;

/// A refused canonical frame builds no reply either: what it allocates is
/// its error message (and, for a query, the members it names), never a tree
/// of the reply. Before the refusals were typed the three frames below read
/// 14, 12 and 13 allocations each. The same frames spelled with a space
/// after the brace are printed beside them, for the tree parser's share.
#[test]
fn refused_canonical_frames_build_no_reply_tree() {
    let mut out = Vec::with_capacity(4096);
    let handle = warm_pool("", &mut out);
    let refusals: [(&str, Body); 3] = [
        ("deliver of an unsent message", |s| {
            format!(r#""op":"event","stream":"tenant-{s:03}","type":"deliver","message":999999"#)
        }),
        ("event on an unknown stream", |s| {
            format!(r#""op":"event","stream":"ghost-{s:03}","type":"checkpoint","process":0"#)
        }),
        ("min-consistent, missing checkpoint", |s| {
            format!(
                r#""op":"query","stream":"tenant-{s:03}","what":"min-consistent","members":[[0,4000000000]]"#
            )
        }),
    ];
    for (what, body) in refusals {
        let spelled = |spelling: &str| -> Vec<Vec<u8>> {
            (0..STREAMS)
                .map(|s| format!("{{{spelling}{}}}", body(s)).into_bytes())
                .collect()
        };
        let refused = br#"{"ok":false"#;
        let (allocations, nanos) = run_expecting(&handle, &spelled(""), &mut out, refused);
        let (tree_allocations, _) = run_expecting(&handle, &spelled(" "), &mut out, refused);
        println!(
            "refused, {what}: {allocations:.2} allocations, {nanos:.0} ns per frame \
             ({tree_allocations:.2} through the tree)"
        );
        assert!(
            allocations <= 3.0,
            "{allocations:.2} allocations per refused canonical frame ({what}): a reply tree is built again"
        );
    }
}

/// What a stream's life costs outside its events, exactly: the heap
/// allocations (a reallocation counts as one) of one canonical `open` +
/// `close` pair of an `n = 4` stream through [`PoolHandle::answer_frame`],
/// on the first test's warm pool of 512 streams, the same name opened and
/// closed again and again after a first pair. Each pair leaves the heap as
/// it found it. Scanned, the pair allocates the engine and its name and
/// nothing for the frames; while both frames took the tree parser the same
/// pair read 30. The same pair spelled with a space after the brace, which
/// still takes that path, is printed beside it.
#[test]
fn an_open_and_close_pair_allocates_a_pinned_count() {
    const PINNED: u64 = 16;
    const PAIRS: usize = 64;
    let mut out = Vec::with_capacity(4096);
    let handle = warm_pool("", &mut out);
    let pair = |spelling: &str| {
        [
            format!(r#"{{{spelling}"op":"open","stream":"churn","processes":{PROCESSES}}}"#),
            format!(r#"{{{spelling}"op":"close","stream":"churn"}}"#),
        ]
        .map(String::into_bytes)
    };
    let pairs =
        |spelling: &str| -> Vec<Vec<u8>> { (0..PAIRS).flat_map(|_| pair(spelling)).collect() };
    let (canonical, spaced) = (pairs(""), pairs(" "));
    run(&handle, &canonical[..2], &mut out);
    run(&handle, &spaced[..2], &mut out);

    let live = LIVE.with(Cell::get);
    let before = ALLOCATIONS.with(Cell::get);
    let (_, nanos) = run(&handle, &canonical, &mut out);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(LIVE.with(Cell::get), live, "a pair left blocks behind");
    let before = ALLOCATIONS.with(Cell::get);
    let (_, tree_nanos) = run(&handle, &spaced, &mut out);
    let tree_allocations = ALLOCATIONS.with(Cell::get) - before;
    let per_pair = |total: u64| total as f64 / PAIRS as f64;
    println!(
        "open + close: {:.2} allocations, {:.0} ns per pair scanned; {:.2} and {:.0} through \
         the tree",
        per_pair(allocations),
        2.0 * nanos,
        per_pair(tree_allocations),
        2.0 * tree_nanos
    );
    assert_eq!(
        allocations,
        PINNED * PAIRS as u64,
        "allocations of {PAIRS} canonical open + close pairs"
    );
}

/// What tenants cost to hold, exactly: the heap blocks and bytes a
/// one-stripe pool keeps live with the 512 streams above open, stream `s`
/// fed its first `s % 64` frames of the mix (ages 0–63, about 11 messages
/// a stream on average). It counts the stripe's map, the names and every
/// engine table, each at its allocated capacity. With each process's sends
/// and deliveries kept as vectors of their own beside the message table, and
/// the engines inline in the map's leaves, the same pool held 13 014 blocks
/// and 1 368 680 bytes; with the engines boxed in a B-tree keyed by
/// `String`, 9 286 and 1 044 264. A hash map keyed by `Box<str>` is one
/// table of 1 024 buckets where the B-tree had a node per few streams.
/// The tail targets an engine keeps are one `Vec` header in its box, 24
/// bytes a stream (1 041 136 without them): its block is allocated by the
/// stream's first fit question, and none is asked here.
#[test]
fn a_stripe_of_tenants_holds_a_pinned_footprint() {
    const PINNED: (i64, i64) = (9_203, 1_053_424);
    const AGES: usize = 64;
    let mut out = Vec::with_capacity(4096);
    let opens: Vec<Vec<u8>> = (0..STREAMS)
        .map(|s| format!(r#"{{"op":"open","stream":"tenant-{s:03}","processes":{PROCESSES}}}"#))
        .map(String::into_bytes)
        .collect();
    let frames: Vec<Vec<u8>> = (0..AGES)
        .flat_map(|round| {
            (0..STREAMS)
                .filter(move |s| round < s % AGES)
                .map(move |s| (s, round))
        })
        .map(|(s, round)| frame(s, round, ""))
        .collect();

    let before = LIVE.with(Cell::get);
    let handle = EnginePool::new(1).handle();
    for open in &opens {
        assert!(handle.answer_frame(open, &mut out).is_none());
    }
    run(&handle, &frames, &mut out);
    let after = LIVE.with(Cell::get);
    let held = (after.0 - before.0, after.1 - before.1);
    let per_stream = |total: i64| total as f64 / STREAMS as f64;
    println!(
        "held: {} blocks, {} bytes ({:.1} blocks, {:.0} bytes per stream)",
        held.0,
        held.1,
        per_stream(held.0),
        per_stream(held.1)
    );
    assert_eq!(held, PINNED, "live blocks and bytes of the pool");
    drop(handle);
}

/// A whole persist of the first test's pool (512 streams, 8 rounds each)
/// through the daemon's streamed path, [`PoolHandle::stream_persist`], into
/// `io::sink()`, grows the heap at its peak by no more than one chunk, the
/// largest entry and the name list — each name, its slot in the render's
/// name list and its place in a record's live list. The same persist
/// rendered whole into a `Vec`, as the daemon did before it streamed, is
/// measured beside it and must break that bound: the bound tells a streamed
/// persist from one that holds the document. Both run after a first persist,
/// so that the marks each stream keeps of what is on disk are already held.
#[test]
fn a_streamed_persist_holds_one_chunk_not_the_document() {
    let mut out = Vec::with_capacity(4096);
    let handle = warm_pool("", &mut out);
    let mut document = Vec::new();
    handle
        .write_persist(&mut document, true)
        .expect("the first persist");
    let parsed = Json::parse_bytes(&document).expect("the document parses");
    let entries = parsed.get("streams").and_then(Json::as_array);
    let entry_bytes = |entry: &Json| {
        let mut text = Vec::new();
        entry.write_compact(&mut text);
        text.len()
    };
    let largest_entry = entries.expect("entries").iter().map(entry_bytes).max();
    let name_list: usize = (0..STREAMS)
        .map(|s| format!("tenant-{s:03}").len())
        .map(|name| name + size_of::<(String, usize)>() + size_of::<&str>())
        .sum();
    let largest_entry = largest_entry.expect("an entry");
    let bound = PERSIST_CHUNK + largest_entry + name_list;
    drop((parsed, document));

    let mut chunk = Vec::new();
    let mut written = 0u64;
    let mut rendered = None;
    let streamed = peak_growth(|| {
        let mut sink = std::io::sink();
        let mut put = |bytes: &[u8]| {
            written += bytes.len() as u64;
            let refused = |e: std::io::Error| ServeError::new(ErrorKind::Admin, e.to_string());
            sink.write_all(bytes).map_err(refused)
        };
        let persist = handle.stream_persist(&mut chunk, true, &mut put);
        rendered = Some(persist.expect("the streamed persist"));
        put(&chunk).expect("the last chunk");
    });
    let rendered = rendered.expect("rendered");
    let mut whole = Vec::new();
    let in_memory = peak_growth(|| {
        handle
            .write_persist(&mut whole, true)
            .expect("the in-memory persist");
    });
    println!(
        "whole persist of a {} byte document: {streamed} bytes at the peak streamed, \
         {in_memory} in memory; bound {bound} (chunk {PERSIST_CHUNK}, largest entry \
         {largest_entry}, name list {name_list})",
        rendered.bytes
    );
    assert_eq!(written, rendered.bytes);
    assert_eq!(whole.len() as u64, rendered.bytes);
    assert!(
        streamed <= bound as i64,
        "a streamed persist grew the heap by {streamed} bytes, past one chunk, the largest \
         entry and the name list ({bound})"
    );
    assert!(
        in_memory > bound as i64,
        "the in-memory render ({in_memory} bytes) fits the bound: it tells nothing apart"
    );
}
