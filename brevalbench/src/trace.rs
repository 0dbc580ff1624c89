//! The bench's span recorder.
//!
//! Spans are recorded only from the harness's own code, around the public
//! call it makes into each layer: name, start, end and parent, plus the
//! allocation count and `VmHWM` growth over the span. The spans of one
//! request share a request id. Everything stays in memory until the run
//! ends; then [`Recorder::stage_totals`] folds the spans into per-stage
//! metrics (self time, so nested spans never count twice) and
//! [`Recorder::chrome_trace`] renders the Chrome trace-event JSON.
//!
//! A recorder made with [`Recorder::off`] runs the closures and records
//! nothing, so timed runs pay no tracing cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use xtask::report::json_str;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<stage>` for stage spans; free-form for grouping spans.
    pub name: String,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: Option<u64>,
    /// Allocations made while the span was open (all threads).
    pub allocs: u64,
    /// Growth of the process `VmHWM` while the span was open, in kB.
    pub hwm_growth_kb: u64,
}

/// A measurement taken away from the recorder (inside a closure that must be
/// `Sync`, such as a `breval_par::parallel_map` work item), to be pushed with
/// [`Recorder::push`] afterwards.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
    hwm_growth_kb: u64,
}

/// Copyable handle for taking [`Sample`]s on any thread.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
    on: bool,
}

impl Clock {
    /// Runs `f`, measuring it when tracing is on. Allocations are counted on
    /// the calling thread only, which is where a work item runs.
    pub fn measure<T>(self, f: impl FnOnce() -> T) -> (T, Option<Sample>) {
        if !self.on {
            return (f(), None);
        }
        // Reading /proc allocates, so it happens outside the counted window.
        let hwm = crate::proc_status_kb(None, "VmHWM:");
        let allocs = counting_alloc::thread_allocation_count();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let allocs = counting_alloc::thread_allocation_count().saturating_sub(allocs);
        let sample = Sample {
            start_ns,
            end_ns,
            allocs,
            hwm_growth_kb: crate::proc_status_kb(None, "VmHWM:").saturating_sub(hwm),
        };
        (out, Some(sample))
    }

    fn now_ns(self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// In-memory span recorder (see the module docs).
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<(usize, u64, u64)>,
}

impl Recorder {
    /// A recording recorder.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            clock: Clock {
                epoch: Instant::now(),
                on: true,
            },
            spans: Vec::new(),
            open: Vec::with_capacity(16),
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Recorder {
            clock: Clock {
                epoch: Instant::now(),
                on: false,
            },
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.clock.on
    }

    /// The handle for measuring on other threads.
    #[must_use]
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`, a child of the innermost span
    /// opened with [`Recorder::enter`].
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.request_span(name, None, f)
    }

    /// [`Recorder::span`] tagged with a request id.
    pub fn request_span<T>(
        &mut self,
        name: &str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.clock.on {
            return f();
        }
        let idx = self.enter_request(name, request);
        let out = f();
        self.exit(idx);
        out
    }

    /// Opens a grouping span that stays open until [`Recorder::exit`];
    /// spans recorded meanwhile become its children.
    pub fn enter(&mut self, name: &str) -> usize {
        self.enter_request(name, None)
    }

    fn enter_request(&mut self, name: &str, request: Option<u64>) -> usize {
        if !self.clock.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().map(|(i, _, _)| *i),
            request,
            allocs: 0,
            hwm_growth_kb: 0,
        });
        let hwm = crate::proc_status_kb(None, "VmHWM:");
        let allocs = counting_alloc::allocation_count();
        self.open.push((idx, allocs, hwm));
        self.spans[idx].start_ns = self.clock.now_ns();
        idx
    }

    /// Closes the span `idx` returned by [`Recorder::enter`] (and any span
    /// opened inside it and left open).
    pub fn exit(&mut self, idx: usize) {
        if !self.clock.on {
            return;
        }
        let end_ns = self.clock.now_ns();
        while let Some((open_idx, allocs, hwm)) = self.open.pop() {
            let span = &mut self.spans[open_idx];
            span.end_ns = end_ns;
            span.allocs = counting_alloc::allocation_count().saturating_sub(allocs);
            span.hwm_growth_kb = crate::proc_status_kb(None, "VmHWM:").saturating_sub(hwm);
            if open_idx == idx {
                break;
            }
        }
    }

    /// Records a [`Sample`] taken with [`Clock::measure`] as a child of the
    /// innermost open span.
    pub fn push(&mut self, name: &str, sample: Option<Sample>) {
        let Some(s) = sample else { return };
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            parent: self.open.last().map(|(i, _, _)| *i),
            request: None,
            allocs: s.allocs,
            hwm_growth_kb: s.hwm_growth_kb,
        });
    }

    /// `(self ns, self allocs, self hwm kB)` of span `idx`: its own totals
    /// minus those of its direct children.
    #[must_use]
    pub fn self_totals(&self, idx: usize) -> (u64, u64, u64) {
        let span = &self.spans[idx];
        let mut ns = span.end_ns.saturating_sub(span.start_ns);
        let (mut allocs, mut hwm) = (span.allocs, span.hwm_growth_kb);
        for child in self.spans.iter().filter(|c| c.parent == Some(idx)) {
            ns = ns.saturating_sub(child.end_ns.saturating_sub(child.start_ns));
            allocs = allocs.saturating_sub(child.allocs);
            hwm = hwm.saturating_sub(child.hwm_growth_kb);
        }
        (ns, allocs, hwm)
    }

    /// Per span name: total self time (ms), self allocations and self
    /// `VmHWM` growth (MB), summed over every span of that name.
    #[must_use]
    pub fn stage_totals(&self) -> BTreeMap<&str, (f64, f64, f64)> {
        let mut out: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new();
        for (idx, span) in self.spans.iter().enumerate() {
            let (ns, allocs, hwm) = self.self_totals(idx);
            let entry = out.entry(span.name.as_str()).or_default();
            entry.0 += ns as f64 / 1e6;
            entry.1 += allocs as f64;
            entry.2 += hwm as f64 / 1024.0;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (idx, span) in self.spans.iter().enumerate() {
            let (self_ns, self_allocs, _) = self.self_totals(idx);
            if idx > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"brevalbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"self_ms\":{},\"self_allocs\":{},\"hwm_growth_kb\":{}",
                json_str(&span.name),
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                self_ns as f64 / 1e6,
                self_allocs,
                span.hwm_growth_kb,
            );
            if let Some(parent) = span.parent.and_then(|p| self.spans.get(p)) {
                let _ = write!(out, ",\"parent\":{}", json_str(&parent.name));
            }
            if let Some(request) = span.request {
                let _ = write!(out, ",\"request\":{request}");
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}
