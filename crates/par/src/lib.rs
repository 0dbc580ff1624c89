//! Work-stealing parallel execution for the breval pipeline, backed by a
//! **persistent worker pool**.
//!
//! # Design
//!
//! The pipeline's fan-out points (per-origin route propagation, per-AS cone
//! BFS, per-group ensemble inference, per-link classification) all share one
//! shape: `n` independent index-addressed work items whose per-item cost
//! varies wildly — a Tier-1's propagation or cone BFS costs orders of
//! magnitude more than a stub's. Static chunking serialises the tail behind
//! whichever chunk drew the expensive items; this module replaces it with a
//! **range-splitting work-stealing queue**: each worker owns a contiguous
//! index range, pops from its front, and when empty steals the upper half of
//! the largest remaining victim range. Stolen ranges stay contiguous, so
//! cache locality of index-adjacent items survives stealing.
//!
//! # Pool lifecycle
//!
//! Worker threads are spawned **once**, lazily, on the first parallel call
//! that needs them, and then park on a job channel between calls — a
//! [`parallel_map`] call submits jobs to the resident workers instead of
//! spawning threads. The pool is grow-only: raising the thread cap adds
//! workers, lowering it merely idles the surplus (they stay parked). The
//! calling thread always participates as worker 0, so a cap of `k` uses the
//! caller plus at most `k - 1` resident workers. The pool is never torn
//! down; parked workers are detached at process exit and reaped by the OS.
//! [`pool_thread_count`] exposes the resident-worker count for tests.
//!
//! Nested parallel calls (a work item that itself calls [`parallel_map`],
//! e.g. TopoScope's per-VP-group fan-out inside the ensemble fan-out) run
//! **inline** on the worker that hit them. This keeps the pool deadlock-free
//! (a job never blocks waiting for pool capacity held by its own ancestors)
//! and costs nothing in coverage: the outer call already saturates the cap.
//!
//! # Determinism
//!
//! [`parallel_map`] returns results **in item-index order** regardless of
//! thread count or steal interleaving: workers tag each result with its
//! index and the caller-side assembly places them positionally. Any
//! computation that is a pure function of its index therefore produces
//! byte-identical output at 1 and N threads — the property
//! `tests/determinism.rs` locks in for the whole pipeline.
//!
//! # Thread cap
//!
//! The worker count is `min(n_items, max_threads())`. [`max_threads`]
//! resolves, in order: the programmatic override ([`set_max_threads`]), the
//! `BREVAL_THREADS` environment variable, then
//! `std::thread::available_parallelism()`. A cap of 1 runs inline on the
//! calling thread — no submission, no queue.
//!
//! # Observability
//!
//! Workers adopt the calling thread's observability span context
//! (`breval_obs::adopt_context`) for the duration of each submission, so
//! spans and counters fired inside work items attribute to the pipeline
//! stage that submitted them instead of dangling at the manifest's top
//! level. The adoption guard is scoped to the submission: a parked worker
//! carries no stale context into the next call.
//!
//! When observability is on, each worker additionally wraps its busy slice
//! in `breval_obs::journal_span("pool_worker")` (one timeline slice per
//! worker per call, wall + allocation attribution under
//! `<stage>/pool_worker`), tallies per-item runtimes into the
//! `parallel_map_item_ns` histogram (locally per worker, merged once at
//! slice end — no per-item lock), and the call flushes pool-health
//! counters on the submitting thread: steal attempts / successes / lost
//! races, items run by the caller vs in total, jobs submitted, and worker
//! park/unpark deltas. All of it is behind the `BREVAL_OBS` switch; a
//! disabled run takes the exact pre-instrumentation path. Timing uses
//! `breval_obs::clock_ns` — the sanctioned clock reader — so this crate
//! still contains no `std::time` (clippy `disallowed_types`, rule L004).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable capping worker threads (`0` or unset = hardware).
pub const ENV_THREADS: &str = "BREVAL_THREADS";

/// Programmatic override: 0 = unset (fall through to env / hardware).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads for all subsequent parallel calls.
/// `Some(n)` forces `n` (min 1); `None` clears the override so the
/// `BREVAL_THREADS` environment variable / hardware default applies again.
/// Lowering the cap idles surplus resident pool workers but never joins
/// them (the pool is grow-only).
pub fn set_max_threads(n: Option<usize>) {
    MAX_THREADS.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Runs `f` with the thread cap pinned to `cap`, restoring the previous
/// override afterwards — even if `f` panics — and **serialising** against
/// every other `with_thread_cap` call in the process under a global lock.
///
/// This is the sanctioned way for tests (and benchmarks sweeping thread
/// counts) to mutate the cap: bare [`set_max_threads`] calls from
/// concurrently running `#[test]`s race on the process-global override,
/// so one test's `Some(1)` can leak into another's timing window. Scoping
/// + locking here removes that flake class at the root.
pub fn with_thread_cap<T>(cap: Option<usize>, f: impl FnOnce() -> T) -> T {
    static CAP_LOCK: Mutex<()> = Mutex::new(());
    let _serial = lock(&CAP_LOCK);
    let prev = MAX_THREADS.swap(cap.map_or(0, |n| n.max(1)), Ordering::Relaxed);
    // Restore on unwind too: a panicking closure must not leave its cap
    // behind for whoever takes the lock next.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            MAX_THREADS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The current worker-thread cap: programmatic override, else
/// `BREVAL_THREADS`, else `available_parallelism()` (min 1).
#[must_use]
pub fn max_threads() -> usize {
    let forced = MAX_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var(ENV_THREADS) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process-wide resident pool. Spawned lazily and never dropped:
/// parked workers are detached at process exit.
static POOL: OnceLock<scoped_threadpool::Pool> = OnceLock::new();

/// Returns the resident pool, grown to at least `threads` workers.
fn resident_pool(threads: usize) -> &'static scoped_threadpool::Pool {
    let pool = POOL.get_or_init(|| scoped_threadpool::Pool::new(0));
    let want = u32::try_from(threads).unwrap_or(u32::MAX);
    pool.ensure_threads(want);
    // Grow-only invariant: the pool always covers the largest cap it has
    // ever been asked for; lowering the cap idles workers, never joins
    // them. `pool_thread_count()` therefore tracks the high-water mark,
    // not the active cap — `effective_workers` is the cap-side accounting.
    debug_assert!(
        pool.thread_count() >= want,
        "resident pool shrank below a requested cap"
    );
    pool
}

/// Number of resident pool worker threads spawned so far (the calling
/// thread, which participates as worker 0, is not counted).
///
/// Because the pool is grow-only this is a **high-water mark**: after
/// [`set_max_threads`] lowers the cap, the count stays at the largest cap
/// ever used while the surplus workers idle parked. Use
/// [`effective_workers`] for how many threads a call will actually run on.
#[must_use]
pub fn pool_thread_count() -> usize {
    POOL.get().map_or(0, |p| p.thread_count() as usize)
}

/// The number of threads (caller included) a parallel call over `n` items
/// will actually use under the current cap: `min(max_threads(), n)`, and
/// `0` for an empty call. This — not [`pool_thread_count`] — is the
/// honest per-call accounting once the cap has been lowered below the
/// pool's resident high-water mark.
#[must_use]
pub fn effective_workers(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    max_threads().min(n).max(1)
}

/// Ceiling on the chunk count [`input_scaled_chunk`] aims for: beyond it the
/// per-chunk bookkeeping (one partial result per chunk) starts to dominate.
const MAX_CHUNKS: usize = 256;

/// Items per chunk for a chunked fan-out over `len` items: `base` (the
/// caller's tuned granularity) until the input is large enough that `base`
/// would produce more than `MAX_CHUNKS` chunks, then `len / 256` so the
/// chunk count stays bounded at million-item scale. The result depends on
/// the input length only — **never** on the thread count — so chunk
/// boundaries, and with them any order-sensitive merged output, are
/// byte-identical on 1 thread and 64.
#[must_use]
pub fn input_scaled_chunk(len: usize, base: usize) -> usize {
    debug_assert!(base > 0, "chunk base must be positive");
    base.max(len / MAX_CHUNKS)
}

thread_local! {
    /// True while this thread is executing work items of a parallel call —
    /// nested calls detect it and run inline instead of re-submitting.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// RAII entry into "executing parallel work items" state; restores the
/// previous flag on drop so a worker parked after a job is clean.
struct NestedGuard {
    prev: bool,
}

impl NestedGuard {
    fn enter() -> NestedGuard {
        NestedGuard {
            prev: IN_PARALLEL.with(|c| c.replace(true)),
        }
    }
}

impl Drop for NestedGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_PARALLEL.with(|c| c.set(prev));
    }
}

fn is_nested() -> bool {
    IN_PARALLEL.with(Cell::get)
}

/// A work-stealing queue over the index range `0..n`: one contiguous
/// `[lo, hi)` range per worker; owners pop from the front, thieves split
/// the upper half of the largest remaining victim range.
struct StealQueue {
    ranges: Vec<Mutex<(usize, usize)>>,
    /// Pool-health tallies for this call (relaxed; read once at flush).
    steal_attempts: AtomicU64,
    steal_successes: AtomicU64,
    steal_lost_races: AtomicU64,
}

impl StealQueue {
    /// Partitions `0..n` into `workers` near-equal contiguous ranges.
    fn new(n: usize, workers: usize) -> Self {
        let per = n / workers;
        let extra = n % workers;
        let mut lo = 0;
        let ranges = (0..workers)
            .map(|w| {
                let len = per + usize::from(w < extra);
                let r = (lo, lo + len);
                lo += len;
                Mutex::new(r)
            })
            .collect();
        StealQueue {
            ranges,
            steal_attempts: AtomicU64::new(0),
            steal_successes: AtomicU64::new(0),
            steal_lost_races: AtomicU64::new(0),
        }
    }

    /// Pops the next index for worker `me`: front of its own range, else
    /// the first index of the upper half stolen from the largest victim.
    /// A steal always yields at least one item — with `remaining >= 1`,
    /// `mid = lo + remaining / 2 < hi`, so a thief takes a victim's last
    /// item rather than leaving it behind.
    fn next(&self, me: usize) -> Option<usize> {
        {
            let mut own = lock(&self.ranges[me]);
            if own.0 < own.1 {
                let i = own.0;
                own.0 += 1;
                return Some(i);
            }
        }
        loop {
            // Pick the victim with the most remaining work (snapshot; the
            // steal below re-checks under the victim's lock).
            let victim = self
                .ranges
                .iter()
                .enumerate()
                .filter(|(w, _)| *w != me)
                .map(|(w, r)| {
                    let r = lock(r);
                    (r.1.saturating_sub(r.0), w)
                })
                .max()
                .filter(|(remaining, _)| *remaining > 0);
            let (_, victim) = victim?;
            self.steal_attempts.fetch_add(1, Ordering::Relaxed);
            let stolen = {
                let mut v = lock(&self.ranges[victim]);
                let remaining = v.1.saturating_sub(v.0);
                if remaining == 0 {
                    None // lost the race to another thief
                } else {
                    // Keep the lower half with the victim, take the upper
                    // (non-empty: mid < hi whenever remaining >= 1).
                    let mid = v.0 + remaining / 2;
                    let stolen = (mid, v.1);
                    v.1 = mid;
                    Some(stolen)
                }
            };
            if let Some((lo, hi)) = stolen {
                debug_assert!(lo < hi, "a successful steal is never empty");
                self.steal_successes.fetch_add(1, Ordering::Relaxed);
                let mut own = lock(&self.ranges[me]);
                *own = (lo + 1, hi);
                return Some(lo);
            }
            self.steal_lost_races.fetch_add(1, Ordering::Relaxed);
            // Lost the race: another thief emptied the snapshot's largest
            // victim first. Yield before re-scanning so draining the final
            // items doesn't degenerate into hot-spinning thieves locking
            // every range per iteration.
            std::thread::yield_now();
        }
    }
}

/// Locks a mutex, ignoring poisoning (worker panics propagate via the
/// scope's panic slot).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Applies `f` to every index in `0..n` across the resident worker pool
/// and returns the results in index order. `f` must be a pure function of
/// its index for the output to be thread-count independent.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_init(n, || (), |(), i| f(i))
}

/// [`parallel_map`] with per-worker state: `init` runs once on each worker
/// that participates in this call (e.g. to build a scratch propagation
/// engine) and the state is passed mutably to every item that worker
/// processes. Results are in index order; for thread-count-independent
/// output, `f`'s result must not depend on the state's history.
pub fn parallel_map_init<S, T, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = max_threads().min(n);
    if workers <= 1 || is_nested() {
        // Single-threaded cap, or already inside a parallel work item:
        // run inline on this thread (no submission, no queue). Item
        // latencies and item counters are still tallied so the
        // `parallel_map_item_ns` histogram and `pool_items_*` counters
        // mean the same thing at every thread cap (no worker slice or
        // steal/park counters, though — there is no pool activity).
        let _nested = NestedGuard::enter();
        let mut state = init();
        if breval_obs::enabled() {
            let mut items = breval_obs::Histogram::new();
            let out = (0..n)
                .map(|i| {
                    let t0 = breval_obs::clock_ns();
                    let v = f(&mut state, i);
                    items.record(breval_obs::clock_ns().saturating_sub(t0));
                    v
                })
                .collect();
            breval_obs::histogram_merge("parallel_map_item_ns", &items);
            breval_obs::counter("pool_items_total", n as u64);
            breval_obs::counter("pool_items_caller", n as u64);
            return out;
        }
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let queue = StealQueue::new(n, workers);
    let parent = breval_obs::current_path();
    // One result bucket per worker: each worker locks only its own bucket,
    // so there is no cross-worker contention on the results.
    let buckets: Vec<Mutex<Vec<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();

    let obs_on = breval_obs::enabled();
    let run_worker = |me: usize| {
        let _nested = NestedGuard::enter();
        let _ctx = breval_obs::adopt_context(parent.as_deref());
        let mut state = init();
        let mut out = Vec::new();
        if obs_on {
            // One timeline slice per worker per call, plus per-item
            // latencies tallied locally (merged under one lock at the end
            // so the hot loop stays lock-free on the obs side).
            let _slice = breval_obs::journal_span("pool_worker");
            let mut items = breval_obs::Histogram::new();
            while let Some(i) = queue.next(me) {
                let t0 = breval_obs::clock_ns();
                out.push((i, f(&mut state, i)));
                items.record(breval_obs::clock_ns().saturating_sub(t0));
            }
            breval_obs::histogram_merge("parallel_map_item_ns", &items);
        } else {
            while let Some(i) = queue.next(me) {
                out.push((i, f(&mut state, i)));
            }
        }
        *lock(&buckets[me]) = out;
    };

    // The pool supplies `workers - 1` jobs; the caller drains worker 0's
    // range itself (and steals the rest if the pool is busy elsewhere), so
    // the call makes progress even with zero free resident workers.
    let parks0 = obs_on.then(scoped_threadpool::pool_health);
    let pool = resident_pool(workers - 1);
    pool.scoped(|scope| {
        let run_worker = &run_worker;
        for me in 1..workers {
            scope.execute(move || run_worker(me));
        }
        run_worker(0);
    });
    if let Some((parks0, unparks0, _)) = parks0 {
        // Flushed on the submitting thread, so the counters attribute to
        // the stage that ran this parallel call.
        let (parks1, unparks1, _) = scoped_threadpool::pool_health();
        breval_obs::counter("pool_items_total", n as u64);
        let caller_items = buckets.first().map_or(0, |b| lock(b).len());
        breval_obs::counter("pool_items_caller", caller_items as u64);
        breval_obs::counter("pool_jobs_submitted", (workers - 1) as u64);
        breval_obs::counter(
            "pool_steal_attempts",
            queue.steal_attempts.load(Ordering::Relaxed),
        );
        breval_obs::counter(
            "pool_steal_successes",
            queue.steal_successes.load(Ordering::Relaxed),
        );
        breval_obs::counter(
            "pool_steal_lost_races",
            queue.steal_lost_races.load(Ordering::Relaxed),
        );
        breval_obs::counter("pool_worker_parks", parks1.saturating_sub(parks0));
        breval_obs::counter("pool_worker_unparks", unparks1.saturating_sub(unparks0));
    }

    // Positional assembly restores index order independent of stealing.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, v) in lock(&bucket).drain(..) {
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index processed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// The override is process-global; tests touching it serialise here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn results_are_in_index_order() {
        let _t = locked();
        for threads in [1, 2, 3, 8] {
            set_max_threads(Some(threads));
            let out = parallel_map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        set_max_threads(None);
    }

    #[test]
    fn skewed_workloads_complete_and_stay_ordered() {
        let _t = locked();
        set_max_threads(Some(4));
        // Item 0 is very expensive: static chunking would idle three
        // workers; stealing must still return everything in order.
        let out = parallel_map(64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i as u64
        });
        assert_eq!(out, (0..64u64).collect::<Vec<_>>());
        set_max_threads(None);
    }

    #[test]
    fn init_runs_once_per_worker() {
        let _t = locked();
        set_max_threads(Some(3));
        let inits = AtomicU32::new(0);
        let out = parallel_map_init(
            30,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0u32
            },
            |scratch, i| {
                *scratch += 1;
                i
            },
        );
        assert_eq!(out.len(), 30);
        assert!(
            inits.load(Ordering::SeqCst) <= 3,
            "at most one init per worker"
        );
        set_max_threads(None);
    }

    #[test]
    fn empty_and_single_item() {
        let _t = locked();
        set_max_threads(Some(4));
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
        set_max_threads(None);
    }

    #[test]
    fn more_workers_than_items() {
        let _t = locked();
        set_max_threads(Some(16));
        assert_eq!(parallel_map(3, |i| i), vec![0, 1, 2]);
        set_max_threads(None);
    }

    #[test]
    fn cap_override_round_trips() {
        let _t = locked();
        set_max_threads(Some(2));
        assert_eq!(max_threads(), 2);
        set_max_threads(Some(0)); // clamped to 1
        assert_eq!(max_threads(), 1);
        set_max_threads(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn with_thread_cap_scopes_and_restores_the_override() {
        let _t = locked();
        set_max_threads(Some(5));
        let inner = with_thread_cap(Some(2), || {
            assert_eq!(max_threads(), 2);
            parallel_map(10, |i| i)
        });
        assert_eq!(inner, (0..10).collect::<Vec<_>>());
        assert_eq!(max_threads(), 5, "previous override restored");
        set_max_threads(None);
    }

    #[test]
    fn with_thread_cap_restores_on_panic() {
        let _t = locked();
        set_max_threads(Some(5));
        let r = std::panic::catch_unwind(|| {
            with_thread_cap(Some(1), || panic!("injected"));
        });
        assert!(r.is_err());
        assert_eq!(max_threads(), 5, "cap restored despite the panic");
        set_max_threads(None);
    }

    #[test]
    fn effective_workers_tracks_the_cap_not_the_pool() {
        let _t = locked();
        // Grow the pool high, then lower the cap: the resident count stays
        // at its high-water mark while the per-call accounting follows the
        // cap.
        set_max_threads(Some(4));
        let _ = parallel_map(32, |i| i);
        let high_water = pool_thread_count();
        assert!(high_water >= 3);
        set_max_threads(Some(2));
        assert_eq!(effective_workers(32), 2);
        assert_eq!(effective_workers(1), 1);
        assert_eq!(effective_workers(0), 0);
        assert!(
            pool_thread_count() >= high_water,
            "lowering the cap must never shrink the pool"
        );
        set_max_threads(None);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        let _t = locked();
        set_max_threads(Some(3));
        let _ = parallel_map(32, |i| i);
        let after_first = pool_thread_count();
        assert!(after_first >= 2, "cap 3 needs >= 2 resident workers");
        for _ in 0..5 {
            let _ = parallel_map(32, |i| i * 2);
        }
        assert_eq!(
            pool_thread_count(),
            after_first,
            "consecutive calls must reuse parked workers, not spawn"
        );
        set_max_threads(None);
    }

    #[test]
    fn nested_calls_run_inline_and_stay_ordered() {
        let _t = locked();
        set_max_threads(Some(4));
        let out = parallel_map(8, |i| {
            // Inner call runs inline on whichever worker owns item i.
            let inner = parallel_map(4, move |j| i * 10 + j);
            assert_eq!(inner, (0..4).map(|j| i * 10 + j).collect::<Vec<_>>());
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
        set_max_threads(None);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let _t = locked();
        set_max_threads(Some(4));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(16, |i| {
                assert!(i != 9, "injected failure");
                i
            })
        }));
        assert!(r.is_err(), "a panicking work item must fail the call");
        // The pool survives the panic and keeps serving.
        assert_eq!(parallel_map(4, |i| i), vec![0, 1, 2, 3]);
        set_max_threads(None);
    }

    #[test]
    fn pool_health_counters_flush_to_the_submitting_stage() {
        let _t = locked();
        breval_obs::set_enabled(true);
        breval_obs::reset();
        set_max_threads(Some(3));
        {
            let _outer = breval_obs::span("par_health_map");
            let _ = parallel_map(40, |i| i);
        }
        let m = breval_obs::RunManifest::capture("par-health", 0);
        let stage = m
            .stages
            .iter()
            .find(|s| s.name == "par_health_map")
            .expect("span recorded");
        assert_eq!(stage.counters.get("pool_items_total"), Some(&40));
        assert_eq!(stage.counters.get("pool_jobs_submitted"), Some(&2));
        // The caller's share can legitimately be 0 (resident workers may
        // drain everything, stealing the caller's range, before the caller
        // pops its first item on a loaded machine) — only bounded above.
        let caller = stage.counters["pool_items_caller"];
        assert!(caller <= 40, "caller ran {caller} items");
        // Worker busy slices appear as a child stage, one call per worker.
        let slices = m
            .stages
            .iter()
            .find(|s| s.name == "par_health_map/pool_worker")
            .expect("pool_worker slices recorded");
        assert_eq!(slices.calls, 3);
        // Item latencies land in the histogram with quantiles populated.
        let h = &m.histograms["parallel_map_item_ns"];
        assert_eq!(h.count, 40);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99);
        breval_obs::set_enabled(false);
        set_max_threads(None);
    }

    #[test]
    fn workers_adopt_caller_span_context() {
        let _t = locked();
        breval_obs::set_enabled(true);
        breval_obs::reset();
        set_max_threads(Some(3));
        {
            let _outer = breval_obs::span("sanitize");
            let _ = parallel_map(12, |i| {
                breval_obs::counter("paths_sanitized_kept", 1);
                i
            });
        }
        // All 12 increments attribute to the submitting span's path even
        // though they ran on worker threads.
        let m = breval_obs::RunManifest::capture("par-test", 0);
        let stage = m
            .stages
            .iter()
            .find(|s| s.name == "sanitize")
            .expect("span recorded");
        assert_eq!(stage.counters.get("paths_sanitized_kept"), Some(&12));
        breval_obs::set_enabled(false);
        set_max_threads(None);
    }

    #[test]
    fn input_scaled_chunk_scales_with_length_not_threads() {
        // Small inputs keep the caller's tuned base untouched, so existing
        // scales chunk exactly as before the re-tune.
        assert_eq!(input_scaled_chunk(0, 512), 512);
        assert_eq!(input_scaled_chunk(10_000, 512), 512);
        assert_eq!(input_scaled_chunk(512 * MAX_CHUNKS, 512), 512);
        // Past base*MAX_CHUNKS the chunk grows linearly with the input, so
        // the chunk count stays bounded by MAX_CHUNKS (+1 for the remainder).
        let big = 4_000_000;
        let chunk = input_scaled_chunk(big, 512);
        assert_eq!(chunk, big / MAX_CHUNKS);
        assert!(big.div_ceil(chunk) <= MAX_CHUNKS + 1);
        // The result is a pure function of the length — identical under any
        // thread cap, which is what keeps chunked output thread-invariant.
        let _t = locked();
        for cap in [1, 2, 7] {
            set_max_threads(Some(cap));
            assert_eq!(input_scaled_chunk(big, 512), chunk);
            assert_eq!(input_scaled_chunk(1000, 256), 256);
        }
        set_max_threads(None);
    }
}
