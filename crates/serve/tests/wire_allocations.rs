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
//! The allocator shim counts per thread, so the harness's own threads do
//! not show up in the numbers. The libraries stay `forbid(unsafe_code)`;
//! like `crates/bench/src/bin/experiments.rs`, the shim lives in the one
//! crate that needs it. Run it in `--release`, by name, as CI does; the
//! counts are the same in a debug build, the timings printed beside them
//! are not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use rdt_serve::{EnginePool, PoolHandle};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note_allocation() {
    // `try_with`: a thread that is being torn down may still free and
    // allocate; it is not the thread being measured.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialised thread-local
// `Cell` without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
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
    println!("scanned in place: {allocations:.2} allocations, {nanos:.0} ns per frame");
    assert!(
        allocations <= 1.0,
        "{allocations:.2} allocations per canonical frame: something on the hot path builds again"
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
