//! Observability for the breval pipeline: hierarchical span timers, a
//! metrics registry (counters / gauges / histograms), and a run manifest
//! that serializes per-stage timings and artifact counts.
//!
//! # Design
//!
//! All instrumentation is gated on a single process-global switch backed by
//! one `AtomicU8`. When observability is off (the default), every entry
//! point — [`span()`], [`counter`], [`gauge_set`], [`histogram_record`] —
//! returns after a single relaxed atomic load and no allocation, so
//! instrumented hot paths cost nothing measurable. The switch is
//! initialised lazily from the `BREVAL_OBS` environment variable
//! (`1`/`true`/`on` enables) and can be forced programmatically with
//! [`set_enabled`].
//!
//! # Spans
//!
//! [`span()`] (or the [`span!`] macro) returns an RAII guard. Guards nest via
//! a thread-local stack: a span opened while another is active records
//! under the slash-joined path `parent/child`, so child wall time is
//! visible both on its own row and inside the parent's total. Dropping the
//! guard records one call and its wall time into the global registry.
//!
//! # Metrics
//!
//! [`counter`] adds to a named monotonic counter; while a span is active
//! the increment is also attributed to that span's path, which is how the
//! run manifest associates artifact counts (links inferred, paths dropped,
//! labels cleaned, …) with pipeline stages. [`gauge_set`] stores a
//! last-write-wins float. [`histogram_record`] tallies a value into
//! fixed power-of-two buckets.
//!
//! # Manifest
//!
//! [`RunManifest::capture`] snapshots the registry into a serializable
//! report (one stage record per span path, with calls, wall time,
//! allocation deltas, and the counters attributed to it) that renders to
//! JSON ([`RunManifest::to_json`]) or a human-readable table
//! ([`RunManifest::render_table`]). The manifest is **schema 2**: it
//! carries `schema`, `hardware_threads`, and `thread_cap` so baselines can
//! be compared across machines honestly.
//!
//! # Journal
//!
//! The [`journal`] module adds an opt-in second layer
//! (`BREVAL_OBS_JOURNAL`): per-thread append-only event buffers recording
//! span begin/end and counter events with timestamps and per-thread
//! allocation samples, drained at run end into a Chrome
//! `trace_event`-format timeline by [`journal::write_trace_json`]. Span
//! guards sample the vendored `counting_alloc` thread-local counters at
//! their boundaries whenever observability is on, so per-stage allocation
//! attribution works with or without the journal.

pub mod journal;
pub mod labels;

pub use journal::{
    clock_ns, journal_enabled, set_journal_enabled, trace_json, write_trace_json, JOURNAL_ENV_VAR,
};
pub use labels::{LabelRegistry, REGISTRY_TEXT};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "breval-obs owns the workspace's only clock"
)]
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

/// `STATE` values: 0 = uninitialised, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

/// Environment variable controlling the global switch.
pub const ENV_VAR: &str = "BREVAL_OBS";

/// Whether observability is currently on. This is the fast path: a single
/// relaxed atomic load once initialised.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var(ENV_VAR) {
        Ok(v) => !matches!(v.as_str(), "" | "0" | "false" | "off"),
        Err(_) => false,
    };
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces the global switch on or off, overriding `BREVAL_OBS`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Clears all recorded spans, metrics, and journaled events. The on/off
/// switches are unchanged.
pub fn reset() {
    *REGISTRY.lock() = Registry::new();
    journal::journal_reset();
}

thread_local! {
    /// Active span paths on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct Registry {
    /// Per-span-path call counts and wall time.
    spans: BTreeMap<String, SpanAccum>,
    /// Counter increments attributed to the span path active at the time.
    span_counters: BTreeMap<String, BTreeMap<String, u64>>,
    /// Global counter totals across all spans.
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            spans: BTreeMap::new(),
            span_counters: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

#[derive(Default, Clone, Copy)]
struct SpanAccum {
    calls: u64,
    total_ns: u128,
    /// Allocation events attributed to this span (thread-local deltas
    /// sampled at span boundaries; see [`SpanGuard`]).
    alloc_count: u64,
    /// Bytes requested, same attribution.
    alloc_bytes: u64,
}

/// A log-bucketed (power-of-two) histogram of `u64` values.
///
/// Public so hot loops (e.g. per-item timings in `breval-par`) can tally
/// into a local `Histogram` without taking the registry lock per value,
/// then fold it in once with [`histogram_merge`].
#[derive(Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    /// `buckets[i]` counts values with `bucket_index(v) == i`.
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Tallies one value.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Upper bound of the smallest bucket whose cumulative count reaches
    /// quantile `q` (in `[0, 1]`); `0` for an empty histogram. Quantiles
    /// are therefore conservative: the true quantile is ≤ the reported
    /// bucket bound.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(64)
    }
}

/// Bucket `0` holds zero; bucket `i >= 1` holds values in
/// `(2^(i-1) - 1, 2^i - 1]`, i.e. upper bound `2^i - 1`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Upper (inclusive) bound of bucket `i` (saturates to `u64::MAX` from
/// bucket 64 up).
#[must_use]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Live state of an open span: its path, start time, and the calling
/// thread's absolute allocation counters at entry.
#[expect(
    clippy::disallowed_types,
    reason = "breval-obs owns the workspace's only clock"
)]
struct SpanActive {
    path: String,
    start: Instant,
    allocs0: u64,
    bytes0: u64,
}

impl SpanActive {
    #[expect(
        clippy::disallowed_types,
        reason = "breval-obs owns the workspace's only clock"
    )]
    fn open(path: String) -> Self {
        let allocs0 = counting_alloc::thread_allocation_count();
        let bytes0 = counting_alloc::thread_allocated_bytes();
        if journal::journal_enabled() {
            journal::record_begin(&path, allocs0, bytes0);
        }
        SpanActive {
            path,
            start: Instant::now(),
            allocs0,
            bytes0,
        }
    }

    /// Closes the span: journals the end event and folds wall time and
    /// allocation deltas into the registry. Consumes `self` by value.
    fn close(self) {
        let elapsed = self.start.elapsed().as_nanos();
        let allocs1 = counting_alloc::thread_allocation_count();
        let bytes1 = counting_alloc::thread_allocated_bytes();
        if journal::journal_enabled() {
            journal::record_end(allocs1, bytes1);
        }
        let mut reg = REGISTRY.lock();
        let accum = reg.spans.entry(self.path).or_default();
        accum.calls += 1;
        accum.total_ns += elapsed;
        accum.alloc_count += allocs1.saturating_sub(self.allocs0);
        accum.alloc_bytes += bytes1.saturating_sub(self.bytes0);
    }
}

/// RAII guard for a timed span; records on drop. Obtained from [`span()`].
pub struct SpanGuard {
    /// `None` when observability was off at creation: drop is free.
    active: Option<SpanActive>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Pop our own frame; tolerate a foreign tail from guards
                // dropped out of order.
                if let Some(pos) = stack.iter().rposition(|p| *p == active.path) {
                    stack.remove(pos);
                }
            });
            active.close();
        }
    }
}

/// Opens a timed span named `name`, nested under any span already active on
/// this thread. No-op (single atomic load) when observability is off.
#[must_use]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let path = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_owned(),
        };
        stack.push(path.clone());
        path
    });
    SpanGuard {
        active: Some(SpanActive::open(path)),
    }
}

/// RAII guard for a worker-side journal span (see [`journal_span`]).
pub struct JournalSpanGuard {
    active: Option<SpanActive>,
}

impl Drop for JournalSpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            active.close();
        }
    }
}

/// Opens a timed span named `name` under the current span context
/// **without** entering the span stack: counters fired while it is open
/// keep attributing to the surrounding (usually adopted) context, but the
/// guard still records wall time + allocation deltas under
/// `parent/name` in the registry and emits journal begin/end events for
/// the thread timeline.
///
/// This is the instrument for pool workers: `breval-par` adopts the
/// submitting stage's context on each worker, then wraps the worker's
/// busy slice in `journal_span("pool_worker")` — the trace shows one
/// slice per worker under the stage, and the manifest gains a
/// `<stage>/pool_worker` row whose wall time is the summed worker busy
/// time, while counter attribution to the stage itself is unchanged.
#[must_use]
pub fn journal_span(name: &str) -> JournalSpanGuard {
    if !enabled() {
        return JournalSpanGuard { active: None };
    }
    let path = SPAN_STACK.with(|s| match s.borrow().last() {
        Some(parent) => format!("{parent}/{name}"),
        None => name.to_owned(),
    });
    JournalSpanGuard {
        active: Some(SpanActive::open(path)),
    }
}

/// Opens a timed span; sugar for [`span()`] so call sites read as
/// `let _g = breval_obs::span!("stage");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// The slash-joined path of the innermost span active on this thread, if
/// any. Capture this before spawning workers and hand it to
/// [`adopt_context`] on each worker so their spans and counters nest under
/// the submitting stage.
#[must_use]
pub fn current_path() -> Option<String> {
    if !enabled() {
        return None;
    }
    SPAN_STACK.with(|s| s.borrow().last().cloned())
}

/// RAII guard for an adopted span context (see [`adopt_context`]); pops the
/// adopted path from this thread's span stack on drop.
pub struct ContextGuard {
    path: Option<String>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|p| *p == path) {
                    stack.remove(pos);
                }
            });
        }
    }
}

/// Adopts `parent` — a span path captured with [`current_path`] on another
/// thread — as this thread's span context. Unlike [`span()`], adoption
/// records no timing of its own: spans opened under it path-join below
/// `parent` exactly as if they ran on the submitting thread, and counters
/// fired while it is innermost attribute to `parent`. No-op when `parent`
/// is `None` or observability is off.
#[must_use]
pub fn adopt_context(parent: Option<&str>) -> ContextGuard {
    let Some(parent) = parent else {
        return ContextGuard { path: None };
    };
    if !enabled() {
        return ContextGuard { path: None };
    }
    let path = parent.to_owned();
    SPAN_STACK.with(|s| s.borrow_mut().push(path.clone()));
    ContextGuard { path: Some(path) }
}

/// Total wall time recorded so far for the span path `path`, in
/// milliseconds (0 if the path was never recorded). Reading a delta of this
/// around a pipeline phase is the sanctioned way for binaries to report
/// wall-clock without touching `std::time` directly (clippy
/// `disallowed_types`, rule L004).
#[must_use]
pub fn span_wall_ms(path: &str) -> f64 {
    REGISTRY
        .lock()
        .spans
        .get(path)
        .map_or(0.0, |a| a.total_ns as f64 / 1e6)
}

/// Adds `delta` to the counter `name`. While a span is active on this
/// thread, the increment is also attributed to that span's path.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    if journal::journal_enabled() {
        journal::record_counter(name, delta);
    }
    let path = SPAN_STACK.with(|s| s.borrow().last().cloned());
    let mut reg = REGISTRY.lock();
    *reg.counters.entry(name.to_owned()).or_insert(0) += delta;
    if let Some(path) = path {
        *reg.span_counters
            .entry(path)
            .or_default()
            .entry(name.to_owned())
            .or_insert(0) += delta;
    }
}

/// Current global total of counter `name` (0 if never incremented).
#[must_use]
pub fn counter_value(name: &str) -> u64 {
    REGISTRY.lock().counters.get(name).copied().unwrap_or(0)
}

/// Sets gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    REGISTRY.lock().gauges.insert(name.to_owned(), value);
}

/// Records `value` into histogram `name` (power-of-two buckets).
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock();
    reg.histograms
        .entry(name.to_owned())
        .or_default()
        .record(value);
}

/// Folds a locally-tallied [`Histogram`] into the global histogram `name`
/// under one registry lock — the bulk counterpart of [`histogram_record`]
/// for per-worker tallies. No-op when observability is off or `local` is
/// empty.
pub fn histogram_merge(name: &str, local: &Histogram) {
    if !enabled() || local.count == 0 {
        return;
    }
    let mut reg = REGISTRY.lock();
    reg.histograms
        .entry(name.to_owned())
        .or_default()
        .merge(local);
}

/// One pipeline stage in a [`RunManifest`]: a span path with its call
/// count, wall time, and the counters attributed to it.
#[derive(Debug, Clone, Serialize)]
pub struct StageRecord {
    /// Slash-joined span path, e.g. `scenario_run/infer_asrank`.
    pub name: String,
    /// Number of completed span entries.
    pub calls: u64,
    /// Total wall time across all calls, in milliseconds.
    pub wall_ms: f64,
    /// Allocation events attributed to this span (0 unless the binary
    /// installs `counting_alloc` as its global allocator).
    pub alloc_count: u64,
    /// Bytes requested, same attribution and caveat.
    pub alloc_bytes: u64,
    /// Counter increments attributed while this span was innermost.
    pub counters: BTreeMap<String, u64>,
}

/// Serializable snapshot of one histogram, with conservative log-bucket
/// quantiles (each `pNN` is the inclusive upper bound of the bucket
/// containing that quantile).
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Manifest schema version emitted by this crate. History:
/// 1 — implicit/unversioned (spans + counters only);
/// 2 — adds `schema`/`hardware_threads`/`thread_cap`, per-stage
///     `alloc_count`/`alloc_bytes`, histogram quantiles.
pub const MANIFEST_SCHEMA: u32 = 2;

/// A full observability report for one run: configuration identity plus
/// per-stage timings, counters, gauges, and histograms.
#[derive(Debug, Clone, Serialize)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_SCHEMA`]).
    pub schema: u32,
    /// Human-readable run label, e.g. the scenario name.
    pub scenario: String,
    /// RNG seed the run was configured with.
    pub seed: u64,
    /// `std::thread::available_parallelism()` on the capturing machine —
    /// baselines recorded on wider machines are not comparable without it.
    pub hardware_threads: u64,
    /// Effective worker-thread cap the run was configured with
    /// ([`RunManifest::with_thread_cap`]; 0 = not recorded). When
    /// `hardware_threads < thread_cap` the run oversubscribed the machine
    /// and timings should be read accordingly.
    pub thread_cap: u64,
    /// Free-form configuration key/values recorded by the caller.
    pub config: BTreeMap<String, String>,
    /// One record per span path, sorted by path.
    pub stages: Vec<StageRecord>,
    /// Global counter totals across all stages.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last written value).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RunManifest {
    /// Snapshots the global registry into a manifest. The registry is left
    /// untouched; call [`reset`] to start a fresh run.
    #[must_use]
    pub fn capture(scenario: &str, seed: u64) -> Self {
        let reg = REGISTRY.lock();
        let mut paths: Vec<&String> = reg.spans.keys().collect();
        for p in reg.span_counters.keys() {
            if !reg.spans.contains_key(p) {
                paths.push(p);
            }
        }
        paths.sort();
        let stages = paths
            .into_iter()
            .map(|path| {
                let accum = reg.spans.get(path).copied().unwrap_or_default();
                StageRecord {
                    name: path.clone(),
                    calls: accum.calls,
                    wall_ms: accum.total_ns as f64 / 1e6,
                    alloc_count: accum.alloc_count,
                    alloc_bytes: accum.alloc_bytes,
                    counters: reg.span_counters.get(path).cloned().unwrap_or_default(),
                }
            })
            .collect();
        let histograms = reg
            .histograms
            .iter()
            .map(|(name, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (bucket_upper(i), c))
                    .collect();
                (
                    name.clone(),
                    HistogramSnapshot {
                        count: h.count,
                        sum: h.sum,
                        p50: h.quantile(0.50),
                        p90: h.quantile(0.90),
                        p99: h.quantile(0.99),
                        buckets,
                    },
                )
            })
            .collect();
        RunManifest {
            schema: MANIFEST_SCHEMA,
            scenario: scenario.to_owned(),
            seed,
            hardware_threads: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            thread_cap: 0,
            config: BTreeMap::new(),
            stages,
            counters: reg.counters.clone(),
            gauges: reg.gauges.clone(),
            histograms,
        }
    }

    /// Adds a configuration key/value to the manifest.
    pub fn with_config(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.config.insert(key.to_owned(), value.to_string());
        self
    }

    /// Records the effective worker-thread cap the run was configured with
    /// (e.g. `breval_par::max_threads()`).
    #[must_use]
    pub fn with_thread_cap(mut self, cap: u64) -> Self {
        self.thread_cap = cap;
        self
    }

    /// Pretty-printed JSON.
    ///
    /// # Panics
    /// Never in practice: the manifest contains only JSON-safe types.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Renders a fixed-width human-readable stage table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run manifest: scenario={} seed={}\n",
            self.scenario, self.seed
        ));
        for (k, v) in &self.config {
            out.push_str(&format!("  config {k} = {v}\n"));
        }
        out.push_str(&format!(
            "{:<44} {:>6} {:>12} {:>10} {:>12}  counters\n",
            "stage", "calls", "wall_ms", "allocs", "alloc_bytes"
        ));
        for stage in &self.stages {
            let counters = stage
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<44} {:>6} {:>12.3} {:>10} {:>12}  {}\n",
                stage.name,
                stage.calls,
                stage.wall_ms,
                stage.alloc_count,
                stage.alloc_bytes,
                counters
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge {name} = {value}\n"));
        }
        out
    }

    /// Writes pretty JSON to `path`, creating parent directories.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Convenience epilogue for binaries and examples: when observability is
/// enabled, captures a manifest, writes it to `results/run_manifest.json`
/// (relative to the working directory), and prints the stage table to
/// stderr. No-op when observability is off.
#[expect(
    clippy::print_stderr,
    reason = "opt-in diagnostics sink (BREVAL_OBS=1): stderr keeps stdout machine-readable, \
              and a failed manifest write must warn, not kill an experiment run"
)]
pub fn write_run_manifest(label: &str, seed: u64) {
    if !enabled() {
        return;
    }
    let manifest = RunManifest::capture(label, seed);
    let path = std::path::Path::new("results").join("run_manifest.json");
    match manifest.write_json(&path) {
        Ok(()) => {
            eprintln!("{}", manifest.render_table());
            eprintln!("run manifest written to {}", path.display());
        }
        Err(e) => eprintln!("obs: failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The registry and switch are process-global, so tests that touch them
    /// serialise on this lock (shared with `journal::tests`).
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn nested_spans_aggregate_under_parent_paths() {
        let _t = TEST_LOCK.lock();
        set_enabled(true);
        reset();
        {
            let _outer = span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
                counter("widgets", 3);
            }
            {
                let _inner = span!("inner");
                counter("widgets", 2);
            }
        }
        let m = RunManifest::capture("test", 0);
        let names: Vec<&str> = m.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "outer/inner"]);
        let outer = &m.stages[0];
        let inner = &m.stages[1];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2);
        // Parent wall time covers its children.
        assert!(outer.wall_ms >= inner.wall_ms);
        assert!(inner.wall_ms > 0.0);
        // Counters attribute to the innermost active span and to the total.
        assert_eq!(inner.counters.get("widgets"), Some(&5));
        assert_eq!(counter_value("widgets"), 5);
        set_enabled(false);
    }

    #[test]
    fn adopted_context_nests_spans_and_counters_across_threads() {
        let _t = TEST_LOCK.lock();
        set_enabled(true);
        reset();
        {
            let _outer = span!("outer");
            let parent = current_path();
            assert_eq!(parent.as_deref(), Some("outer"));
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _ctx = adopt_context(parent.as_deref());
                    let _inner = span!("inner");
                    counter("widgets", 4);
                });
            });
        }
        let m = RunManifest::capture("test", 0);
        let names: Vec<&str> = m.stages.iter().map(|s| s.name.as_str()).collect();
        // The worker's span nested under the adopted path; adoption itself
        // recorded no extra stage.
        assert_eq!(names, vec!["outer", "outer/inner"]);
        let inner = &m.stages[1];
        assert_eq!(inner.calls, 1);
        assert_eq!(inner.counters.get("widgets"), Some(&4));
        // span_wall_ms reads the recorded accumulations.
        assert!(span_wall_ms("outer") > 0.0);
        assert!(span_wall_ms("outer/inner") > 0.0);
        assert_eq!(span_wall_ms("no_such_path"), 0.0);
        set_enabled(false);
    }

    #[test]
    fn adopt_context_is_inert_when_disabled_or_parentless() {
        let _t = TEST_LOCK.lock();
        set_enabled(true);
        reset();
        {
            let _ctx = adopt_context(None);
            assert_eq!(current_path(), None);
        }
        set_enabled(false);
        {
            let _ctx = adopt_context(Some("ghost"));
            let _g = span!("ghost_child");
        }
        set_enabled(true);
        let m = RunManifest::capture("test", 0);
        assert!(m.stages.is_empty());
        set_enabled(false);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let _t = TEST_LOCK.lock();
        set_enabled(true);
        reset();
        // 0 → bucket upper 0; 1 → upper 1; 2,3 → upper 3; 4 → upper 7.
        for v in [0, 1, 2, 3, 4] {
            histogram_record("sizes", v);
        }
        let m = RunManifest::capture("test", 0);
        let h = &m.histograms["sizes"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 10);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1)]);
        set_enabled(false);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _t = TEST_LOCK.lock();
        set_enabled(false);
        reset();
        {
            let _g = span!("ghost");
            counter("ghost_counter", 7);
            gauge_set("ghost_gauge", 1.0);
            histogram_record("ghost_hist", 9);
        }
        set_enabled(true);
        let m = RunManifest::capture("test", 0);
        assert!(m.stages.is_empty());
        assert!(m.counters.is_empty());
        assert!(m.gauges.is_empty());
        assert!(m.histograms.is_empty());
        assert_eq!(counter_value("ghost_counter"), 0);
        set_enabled(false);
    }

    #[test]
    fn manifest_serializes_and_renders() {
        let _t = TEST_LOCK.lock();
        set_enabled(true);
        reset();
        {
            let _g = span!("stage_a");
            counter("items", 4);
        }
        gauge_set("ratio", 0.5);
        let m = RunManifest::capture("unit", 42).with_config("mode", "small");
        let json = m.to_json();
        assert!(json.contains("\"scenario\": \"unit\""));
        assert!(json.contains("\"stage_a\""));
        assert!(json.contains("\"items\": 4"));
        let table = m.render_table();
        assert!(table.contains("stage_a"));
        assert!(table.contains("items=4"));
        assert!(table.contains("config mode = small"));
        set_enabled(false);
    }
}
