//! The workspace's one deterministic scoped worker pool.
//!
//! Every parallel batch in `pmor` — engine evaluation chunks, batched
//! sparse factorizations, concurrent method×analysis jobs and the serve
//! bench's client fan-out — runs through [`par_map`]: contiguous runs,
//! one per worker, each with its own state; results joined in input
//! order; a worker's panic re-raised at the caller. There is no shared
//! queue and no lock, so results never depend on the thread count.
//!
//! # Example
//!
//! ```
//! use pmor_num::par;
//!
//! let squares = par::par_map((1..=5).collect(), 2, || (), |_, x: u64| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

/// The worker count for `items` work items: `threads` (`0` = the
/// machine's available parallelism), never more than one worker per
/// item, never less than one.
pub fn workers(threads: usize, items: usize) -> usize {
    let configured = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    configured.clamp(1, items.max(1))
}

/// Maps `f` over `items` on up to `threads` scoped workers (`0` =
/// available parallelism) and returns the results in input order.
///
/// The items are split into at most [`workers`]`(threads, items.len())`
/// contiguous runs of equal length (the last may be shorter). Each
/// worker calls `state` once — the place for per-worker scratch — and
/// threads it through `f` over its run. The calling thread works the
/// first run; every other run gets a scoped thread.
///
/// # Panics
///
/// Re-raises the panic of any worker whose `f` or `state` panicked.
pub fn par_map<I, S, T>(
    items: Vec<I>,
    threads: usize,
    state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, I) -> T + Sync,
) -> Vec<T>
where
    I: Send,
    T: Send,
{
    let work = |run: Vec<I>| -> Vec<T> {
        let mut s = state();
        // pmor-lint: allow(kernel-transitive-alloc) reason="one result vector per worker run, per batch and never per item; reached from the engine's batch orchestration via map_chunked -> par_map"
        run.into_iter().map(|item| f(&mut s, item)).collect()
    };
    let n = items.len();
    let workers = workers(threads, n);
    if workers == 1 {
        return work(items);
    }
    let run = n.div_ceil(workers);
    let mut head = items;
    std::thread::scope(|scope| {
        // Split off and spawn the later runs, last first; this thread
        // works the first run itself, then joins the others in order.
        // pmor-lint: allow(kernel-transitive-alloc) reason="one join handle and one split-off run vector per spawned worker, per batch and never per item; reached from the engine's batch orchestration via map_chunked -> par_map"
        let mut handles = Vec::with_capacity(workers - 1);
        while head.len() > run {
            let tail = head.split_off((head.len() - 1) / run * run);
            handles.push(scope.spawn(move || work(tail)));
        }
        let mut out = work(head);
        for handle in handles.into_iter().rev() {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    const THREADS: [usize; 5] = [0, 1, 2, 3, 64];

    #[test]
    fn output_is_in_input_order() {
        for n in [0usize, 1, 5, 64] {
            let want: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
            for threads in THREADS {
                let out = par_map((0..n).collect(), threads, || (), |_, i| 3 * i + 1);
                assert_eq!(out, want, "{n} items, {threads} threads");
            }
        }
    }

    #[test]
    fn workers_is_at_least_one_and_at_most_the_item_count() {
        for items in [0usize, 1, 2, 5, 64, 1000] {
            for threads in THREADS {
                let w = workers(threads, items);
                assert!((1..=items.max(1)).contains(&w), "{threads}, {items}: {w}");
            }
        }
    }

    #[test]
    fn each_worker_creates_its_state_once() {
        for n in [1usize, 5, 64] {
            for threads in THREADS {
                let created = AtomicUsize::new(0);
                let new_id = || created.fetch_add(1, Ordering::Relaxed);
                let mut ids = par_map((0..n).collect(), threads, new_id, |id, _: usize| *id);
                // One state per contiguous run: deduped, every id is unique.
                ids.dedup();
                let made = created.load(Ordering::Relaxed);
                assert!(made <= workers(threads, n), "{made} states");
                ids.sort_unstable();
                assert!(ids.iter().copied().eq(0..made), "{ids:?}");
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for (threads, n) in [(1usize, 5usize), (8, 1)] {
            let on = par_map(vec![(); n], threads, || (), |_, _| thread::current().id());
            assert!(on.iter().all(|&id| id == caller));
        }
        // With two workers the caller works the first run only.
        let on = par_map(vec![0, 1], 2, || (), |_, _: i32| thread::current().id());
        assert_eq!((on[0] == caller, on[1] == caller), (true, false));
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_worker_panic_reaches_the_caller() {
        par_map(
            (0..8).collect(),
            4,
            || (),
            |_, i: u8| assert!(i != 3, "item 3 failed"),
        );
    }
}
