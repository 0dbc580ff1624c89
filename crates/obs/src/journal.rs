//! Event journal: per-thread append-only buffers of span-begin / span-end /
//! counter events, drained at run end into a Chrome `trace_event`-format
//! JSON timeline (`chrome://tracing` / Perfetto).
//!
//! # Design
//!
//! The aggregate registry in the crate root answers "how much, in total?";
//! the journal answers "when, and on which thread?". Every thread that
//! records an event lazily registers one `ThreadBuf` — an append-only
//! `Vec<Event>` behind a mutex that only the owning thread and the drain
//! contend on — in a global list. Recording an event is: one relaxed
//! atomic load (the journal switch), one monotonic-clock read against the
//! process `epoch`, two thread-local allocation-counter reads, and a
//! `Vec::push`. No event is ever written when the journal is off, so the
//! aggregate-only configuration keeps its old cost.
//!
//! Timestamps exist only inside this crate (clippy `disallowed_types`,
//! rule L004): other crates read time through [`clock_ns`], which returns
//! nanoseconds since the process epoch and a constant `0` when
//! observability is off — callers therefore cannot observe wall-clock
//! without opting into observability.
//!
//! # Drain model
//!
//! Nothing is written during the run. [`write_trace_json`] snapshots every
//! thread's buffer, pairs `Begin`/`End` events (they nest LIFO per thread —
//! guards are RAII), and emits one complete (`"ph":"X"`) trace event per
//! span slice with its allocation delta in `args`, plus `"M"` metadata
//! naming each thread track. The writer hand-serialises JSON so the trace
//! format does not depend on the vendored serde's feature set.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
#[expect(
    clippy::disallowed_types,
    reason = "breval-obs owns the workspace's only clock"
)]
use std::time::Instant;

use parking_lot::Mutex;

use crate::enabled;

/// Environment variable controlling the journal switch (`1`/`true`/`on`
/// enables; requires `BREVAL_OBS` to be on as well).
pub const JOURNAL_ENV_VAR: &str = "BREVAL_OBS_JOURNAL";

/// `JOURNAL` values: 0 = uninitialised, 1 = off, 2 = on.
static JOURNAL: AtomicU8 = AtomicU8::new(0);

/// Whether the event journal is on. Always false while observability as a
/// whole is off: the journal is a refinement of the registry, not a
/// separate instrument.
#[inline]
pub fn journal_enabled() -> bool {
    if !enabled() {
        return false;
    }
    match JOURNAL.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var(JOURNAL_ENV_VAR) {
        Ok(v) => !matches!(v.as_str(), "" | "0" | "false" | "off"),
        Err(_) => false,
    };
    JOURNAL.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces the journal switch on or off, overriding `BREVAL_OBS_JOURNAL`.
pub fn set_journal_enabled(on: bool) {
    JOURNAL.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The process time origin for all journal timestamps.
#[expect(
    clippy::disallowed_types,
    reason = "breval-obs owns the workspace's only clock"
)]
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch, or `0` when observability is off.
///
/// This is the one sanctioned monotonic-clock reader for crates outside
/// `crates/obs` (clippy disallows `std::time` elsewhere, rule L004):
/// `breval-par` times `parallel_map` items through it. The
/// zero-when-disabled contract means no code path can smuggle timing into
/// outputs without `BREVAL_OBS` set.
#[must_use]
pub fn clock_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One journal record. Alloc fields are absolute per-thread samples
/// (`counting_alloc` thread-locals); the drain computes deltas.
enum Event {
    Begin {
        ts_ns: u64,
        name: String,
        allocs: u64,
        bytes: u64,
    },
    End {
        ts_ns: u64,
        allocs: u64,
        bytes: u64,
    },
    Counter {
        ts_ns: u64,
        name: String,
        delta: u64,
    },
}

/// One thread's append-only event buffer. The mutex is uncontended in the
/// steady state (only the owning thread pushes); the drain locks each
/// buffer once at run end.
struct ThreadBuf {
    tid: u64,
    name: String,
    events: Mutex<Vec<Event>>,
}

/// All buffers ever registered, in thread-registration order. Buffers are
/// kept alive past thread exit so the drain sees completed workers.
static THREAD_BUFS: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MY_BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

fn with_buf(f: impl FnOnce(&ThreadBuf)) {
    MY_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                name: std::thread::current()
                    .name()
                    .unwrap_or("unnamed")
                    .to_owned(),
                events: Mutex::new(Vec::new()),
            });
            THREAD_BUFS.lock().push(Arc::clone(&buf));
            buf
        });
        f(buf);
    });
}

/// Records a span-begin for the calling thread. `allocs`/`bytes` are the
/// thread's absolute allocation counters at entry.
pub(crate) fn record_begin(path: &str, allocs: u64, bytes: u64) {
    let ts_ns = clock_ns();
    with_buf(|buf| {
        buf.events.lock().push(Event::Begin {
            ts_ns,
            name: path.to_owned(),
            allocs,
            bytes,
        });
    });
}

/// Records a span-end for the calling thread (pairs with the most recent
/// unmatched begin on the same thread).
pub(crate) fn record_end(allocs: u64, bytes: u64) {
    let ts_ns = clock_ns();
    with_buf(|buf| {
        buf.events.lock().push(Event::End {
            ts_ns,
            allocs,
            bytes,
        });
    });
}

/// Records a counter increment as an instant event.
pub(crate) fn record_counter(name: &str, delta: u64) {
    let ts_ns = clock_ns();
    with_buf(|buf| {
        buf.events.lock().push(Event::Counter {
            ts_ns,
            name: name.to_owned(),
            delta,
        });
    });
}

/// Discards all journaled events (buffers stay registered). Called by
/// [`crate::reset`] so a fresh run starts with an empty timeline.
pub(crate) fn journal_reset() {
    for buf in THREAD_BUFS.lock().iter() {
        buf.events.lock().clear();
    }
}

/// Appends `s` JSON-escaped (without surrounding quotes) to `out`.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Microseconds with sub-microsecond precision, as Chrome's `ts`/`dur`
/// fields expect.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders the journal as a Chrome `trace_event`-format JSON document
/// (object form: `{"traceEvents": [...]}`) without consuming the buffers.
///
/// Per thread track: one `"M"` `thread_name` metadata event, one `"X"`
/// complete event per begin/end pair (with `allocs` / `alloc_bytes` deltas
/// in `args`), and one `"i"` instant event per counter increment. Open
/// spans (begin without end at drain time) are dropped.
#[must_use]
pub fn trace_json() -> String {
    let bufs: Vec<Arc<ThreadBuf>> = THREAD_BUFS.lock().clone();
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(body);
    };
    for buf in &bufs {
        let events = buf.events.lock();
        if events.is_empty() {
            continue;
        }
        let mut meta = String::new();
        meta.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
            buf.tid
        ));
        push_escaped(&mut meta, &buf.name);
        meta.push_str("\"}}");
        push_event(&mut out, &meta);
        // Begin/End pair LIFO per thread (RAII guards), so a simple stack
        // of open begins reconstructs the slices.
        let mut open: Vec<(&str, u64, u64, u64)> = Vec::new();
        for ev in events.iter() {
            match ev {
                Event::Begin {
                    ts_ns,
                    name,
                    allocs,
                    bytes,
                } => open.push((name, *ts_ns, *allocs, *bytes)),
                Event::End {
                    ts_ns,
                    allocs,
                    bytes,
                } => {
                    let Some((name, t0, a0, b0)) = open.pop() else {
                        continue; // unmatched end: guard from a pre-drain run
                    };
                    let mut e = String::new();
                    e.push_str(&format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"",
                        buf.tid,
                        us(t0),
                        us(ts_ns.saturating_sub(t0)),
                    ));
                    push_escaped(&mut e, name);
                    e.push_str(&format!(
                        "\",\"args\":{{\"allocs\":{},\"alloc_bytes\":{}}}}}",
                        allocs.saturating_sub(a0),
                        bytes.saturating_sub(b0),
                    ));
                    push_event(&mut out, &e);
                }
                Event::Counter { ts_ns, name, delta } => {
                    let mut e = String::new();
                    e.push_str(&format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":\"",
                        buf.tid,
                        us(*ts_ns),
                    ));
                    push_escaped(&mut e, name);
                    e.push_str(&format!("\",\"args\":{{\"delta\":{delta}}}}}"));
                    push_event(&mut out, &e);
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Writes [`trace_json`] to `path`, creating parent directories.
pub fn write_trace_json(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The journal, like the registry, is process-global; tests here reuse
    // the crate-level TEST_LOCK through the public API where possible.

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn clock_is_zero_when_disabled_and_monotone_when_on() {
        let _t = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(false);
        assert_eq!(clock_ns(), 0);
        crate::set_enabled(true);
        let a = clock_ns();
        let b = clock_ns();
        assert!(b >= a, "journal clock must be monotone");
        crate::set_enabled(false);
    }

    #[test]
    fn journal_records_nested_slices_and_counters() {
        let _t = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(true);
        crate::set_journal_enabled(true);
        crate::reset();
        {
            let _outer = crate::span("jouter");
            crate::counter("jwidgets", 2);
            {
                let _inner = crate::span("jinner");
            }
            {
                let _w = crate::journal_span("jworker");
            }
        }
        let json = trace_json();
        crate::set_journal_enabled(false);
        crate::set_enabled(false);
        // One complete event per span slice, full paths as names, plus the
        // counter instant event and the thread-name metadata.
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"jouter\""));
        assert!(json.contains("\"name\":\"jouter/jinner\""));
        assert!(json.contains("\"name\":\"jouter/jworker\""));
        assert!(json.contains("\"name\":\"jwidgets\""));
        assert!(json.contains("\"delta\":2"));
        assert!(json.contains("\"ph\":\"X\""));
        // Resetting clears the timeline.
        crate::reset();
        let empty = trace_json();
        assert!(!empty.contains("jouter"));
    }
}
