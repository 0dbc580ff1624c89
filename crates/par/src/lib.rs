//! Scoped parallel execution for the breval pipeline: an index-ordered
//! parallel map whose worker threads live only as long as the call.
//!
//! # Design
//!
//! The pipeline's fan-out points (per-origin route propagation, per-AS cone
//! BFS, per-classifier inference, per-link-chunk classification) share one
//! shape: `n` independent index-addressed work items whose per-item cost
//! varies wildly — a Tier-1's propagation or cone BFS costs orders of
//! magnitude more than a stub's. A static split would serialise the tail
//! behind whichever share drew the expensive items, so every thread instead
//! claims the next unclaimed index from one shared atomic counter: a thread
//! held up by an expensive item simply claims fewer of the rest.
//!
//! # Threads
//!
//! A call with more than one worker opens a [`std::thread::scope`] and
//! starts `workers - 1` scoped threads; the calling thread works too, so a
//! thread the OS refuses to start is skipped and the call still completes.
//! Each thread returns its `(index, value)` list through its join handle,
//! and no thread outlives the call. A panicking work item fails the call
//! with its own payload.
//!
//! Nested parallel calls (a work item that itself calls [`parallel_map`],
//! e.g. TopoScope's per-VP-group fan-out inside the ensemble fan-out) run
//! **inline** on the thread that hit them: the outer call already
//! saturates the cap.
//!
//! # Determinism
//!
//! [`parallel_map`] returns results **in item-index order** regardless of
//! thread count or claim interleaving: the caller places each tagged result
//! positionally. Any computation that is a pure function of its index
//! therefore produces byte-identical output at 1 and N threads — the
//! property `tests/determinism.rs` locks in for the whole pipeline.
//!
//! # Thread cap
//!
//! The worker count is `min(n_items, max_threads())`. [`max_threads`]
//! resolves, in order: the programmatic override ([`set_max_threads`]), the
//! `BREVAL_THREADS` environment variable, then
//! `std::thread::available_parallelism()`. A cap of 1 runs inline on the
//! calling thread — no thread start, no shared counter.
//!
//! # Observability
//!
//! Worker threads adopt the calling thread's observability span context
//! (`breval_obs::adopt_context`), so spans and counters fired inside work
//! items attribute to the pipeline stage that made the call instead of
//! dangling at the manifest's top level.
//!
//! When observability is on, each thread additionally wraps its busy slice
//! in `breval_obs::journal_span("pool_worker")` (one timeline slice per
//! thread per call, wall + allocation attribution under
//! `<stage>/pool_worker`), tallies per-item runtimes into the
//! `parallel_map_item_ns` histogram (locally per thread, merged once at
//! slice end — no per-item lock), and the call counts `pool_items_total`
//! and `pool_items_caller` (the items the calling thread ran) on the
//! calling thread. All of it is behind the `BREVAL_OBS` switch; a disabled
//! run takes the exact uninstrumented path. Timing uses
//! `breval_obs::clock_ns` — the sanctioned clock reader — so this crate
//! still contains no `std::time` (clippy `disallowed_types`, rule L004).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable capping worker threads (`0` or unset = hardware).
pub const ENV_THREADS: &str = "BREVAL_THREADS";

/// Programmatic override: 0 = unset (fall through to env / hardware).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads for all subsequent parallel calls.
/// `Some(n)` forces `n` (min 1); `None` clears the override so the
/// `BREVAL_THREADS` environment variable / hardware default applies again.
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
    /// nested calls detect it and run inline instead of starting threads.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// RAII entry into "executing parallel work items" state; restores the
/// previous flag on drop, so the calling thread is clean after the call.
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

/// Locks a mutex, ignoring poisoning (a panicking holder has already
/// failed its own call).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Applies `f` to every index in `0..n` on up to [`max_threads`] threads
/// and returns the results in index order. `f` must be a pure function of
/// its index for the output to be thread-count independent.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_init(n, || (), |(), i| f(i))
}

/// [`parallel_map`] with per-worker state: `init` runs once on each thread
/// that participates in this call (e.g. to build a scratch propagation
/// engine) and the state is passed mutably to every item that thread
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
        // run inline on this thread. Item latencies and item counters are
        // still tallied so the `parallel_map_item_ns` histogram and
        // `pool_items_*` counters mean the same thing at every thread cap
        // (no worker slice, though — no thread ran beside this one).
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

    // Relaxed: each `fetch_add` hands its index to exactly one thread, and
    // the results travel back through the join handles, not this counter.
    let next = AtomicUsize::new(0);
    let parent = breval_obs::current_path();
    let obs_on = breval_obs::enabled();
    let run_worker = || {
        let _nested = NestedGuard::enter();
        let _ctx = breval_obs::adopt_context(parent.as_deref());
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
        let mut state = init();
        let mut out = Vec::new();
        if obs_on {
            // One timeline slice per thread per call, plus per-item
            // latencies tallied locally (merged under one lock at the end
            // so the hot loop stays lock-free on the obs side).
            let _slice = breval_obs::journal_span("pool_worker");
            let mut items = breval_obs::Histogram::new();
            while let Some(i) = claim() {
                let t0 = breval_obs::clock_ns();
                out.push((i, f(&mut state, i)));
                items.record(breval_obs::clock_ns().saturating_sub(t0));
            }
            breval_obs::histogram_merge("parallel_map_item_ns", &items);
        } else {
            while let Some(i) = claim() {
                out.push((i, f(&mut state, i)));
            }
        }
        out
    };

    let (caller, others) = std::thread::scope(|scope| {
        let started: Vec<_> = (1..workers)
            .filter_map(|k| {
                std::thread::Builder::new()
                    .name(format!("pool-worker-{k}"))
                    .spawn_scoped(scope, run_worker)
                    .ok()
            })
            .collect();
        let caller = run_worker();
        let others: Vec<Vec<(usize, T)>> = started
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (caller, others)
    });
    if obs_on {
        // Counted on the calling thread, so they attribute to the stage
        // that made this call.
        breval_obs::counter("pool_items_total", n as u64);
        breval_obs::counter("pool_items_caller", caller.len() as u64);
    }

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in caller.into_iter().chain(others.into_iter().flatten()) {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
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
        set_max_threads(Some(2));
        // Item 0 waits until items 1..64 are all done, and the last of them
        // to finish releases it. The call completes before the timeout only
        // if the thread that does not hold item 0 takes every other item: a
        // static split leaves items behind item 0 and times out.
        let (release, wait) = std::sync::mpsc::channel();
        let wait = Mutex::new(wait);
        let done = AtomicUsize::new(0);
        let out = parallel_map(64, |i| {
            let me = std::thread::current().id();
            if i == 0 {
                let timeout = std::time::Duration::from_secs(30);
                let released = lock(&wait).recv_timeout(timeout).is_ok();
                return (i, me, released);
            }
            if done.fetch_add(1, Ordering::SeqCst) + 1 == 63 {
                release.send(()).expect("the receiver lives in this test");
            }
            (i, me, true)
        });
        set_max_threads(None);
        assert!(out.iter().enumerate().all(|(i, r)| r.0 == i), "index order");
        let (_, holder, released) = out[0];
        assert!(released, "item 0 timed out: items 1..64 were not all run");
        assert!(
            out[1..].iter().all(|r| r.1 != holder),
            "the thread holding item 0 ran another item"
        );
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
    fn nested_calls_run_inline_and_stay_ordered() {
        let _t = locked();
        set_max_threads(Some(4));
        let out = parallel_map(8, |i| {
            // Inner call runs inline on whichever thread claimed item i.
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
        // The item's own payload reaches the caller, whichever thread ran it.
        let payload = r.expect_err("a panicking work item must fail the call");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("injected failure"));
        // The next call is unaffected.
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
        // The caller's share can legitimately be 0 (the started threads may
        // claim everything before the caller claims its first item on a
        // loaded machine) — only bounded above.
        let caller = stage.counters["pool_items_caller"];
        assert!(caller <= 40, "caller ran {caller} items");
        // Worker busy slices appear as a child stage, one call per thread.
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
