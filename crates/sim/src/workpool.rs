//! Generic work-stealing parallel map over an indexed work list.
//!
//! This is the engine behind the bench crate's sweep grids and the
//! verifier's pattern-space fan-out: the caller hands over a slice of work
//! items, a per-worker state factory (scratch buffers, caches) and a pure
//! `run` function; idle workers pull the next undone index from a shared
//! atomic cursor, so a long-running item never leaves siblings idle the
//! way static partitioning would.
//!
//! Determinism contract: `run` must be a pure function of
//! `(index, item, worker-local state)` where the worker-local state starts
//! identical on every worker (fresh from `init`) and is only ever reused
//! as *scratch* (its observable content must not leak between items).
//! Under that contract the returned vector — always in item order, never
//! in completion order — is bit-identical for every thread count,
//! including 1.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `run` over every item of `items` on up to `threads` workers and
/// returns the results in item order.
///
/// * `init` creates one worker-local state per worker thread (scratch
///   space; reused across all items that worker steals).
/// * `run(state, index, item)` produces the result of one item.
/// * `observe(done)` is called on the coordinating thread each time a
///   result arrives, with the number of items completed so far — hook for
///   progress reporting; it sees completion order, not item order.
///
/// With `threads <= 1` (or a single item) everything runs on the calling
/// thread and no worker threads are spawned.
pub fn parallel_map_indexed<T, R, S>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize, &T) -> R + Sync,
    mut observe: impl FnMut(usize),
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    parallel_map_indexed_observed(items, threads, init, run, |done, _| observe(done))
}

/// [`parallel_map_indexed`] whose observer also sees each arriving
/// result (`observe(done, &result)`, on the coordinating thread, in
/// completion order) — hook for progress reporting that accumulates
/// work tallies out of the results without waiting for the full map.
pub fn parallel_map_indexed_observed<T, R, S>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize, &T) -> R + Sync,
    mut observe: impl FnMut(usize, &R),
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let result = run(&mut state, i, item);
                observe(i + 1, &result);
                result
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut results: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let init = &init;
            let run = &run;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    if tx.send((i, run(&mut state, i, item))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut done = 0;
        for (i, result) in rx {
            done += 1;
            observe(done, &result);
            results.push((i, result));
        }
    });
    // Every index was dispatched exactly once (a worker that panicked
    // instead of sending has panicked the scope above), so sorting the
    // arrivals by index is item order.
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * v).collect();
        for threads in [1, 2, 7, 64] {
            let got = parallel_map_indexed(&items, threads, || (), |_, _, &v| v * v, |_| {});
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn observe_sees_every_completion() {
        let items: Vec<u32> = (0..37).collect();
        let mut seen = 0;
        parallel_map_indexed(&items, 4, || (), |_, _, &v| v, |done| seen = done);
        assert_eq!(seen, items.len());
    }

    #[test]
    fn worker_state_is_created_per_worker_and_reused() {
        let creations = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let results = parallel_map_indexed(
            &items,
            4,
            || {
                creations.fetch_add(1, Ordering::Relaxed);
                0u32
            },
            |count, _, &v| {
                *count += 1;
                v
            },
            |_| {},
        );
        assert_eq!(results, items);
        assert!(creations.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u8> = parallel_map_indexed(&[] as &[u8], 8, || (), |_, _, &v| v, |_| {});
        assert!(got.is_empty());
    }
}
