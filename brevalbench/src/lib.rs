//! # brevalbench — the one benchmark harness for breval
//!
//! Four workloads, each run in a fresh process so that peak RSS and
//! allocation counters belong to it alone:
//!
//! * [`paper`] — the paper's pipeline at its default scale, as a researcher
//!   runs it: `Scenario::run`, the figures, the tables, the sampling sweep
//!   and the snapshots.
//! * [`scale`] — the 100k-AS chain: generate, sim graph, sampled
//!   propagation with path extraction, ASRank, cones and PPDC.
//! * [`serve`] `serve_point` / `serve_batch` — the real `brevald` binary
//!   driven over its stdin/stdout protocol by one closed-loop client.
//!
//! A run prints every metric by name and unit on stderr and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Untraced runs report the end-to-end metrics; a traced run
//! (`--trace 1`) records spans around each layer call ([`trace`]) and
//! reports the per-layer metrics instead. Output checks compare digests
//! pinned in `expected/` at each workload's default seed, and check
//! invariants at every seed.

#![forbid(unsafe_code)]

pub mod compare;
pub mod paper;
pub mod query;
pub mod scale;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use xtask::report::json_str;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's pipeline at `ScenarioConfig::default()`.
    Paper,
    /// The 100k-AS generate → propagate → infer → cones chain.
    Scale100k,
    /// `brevald`, one query per round trip, with reloads.
    ServePoint,
    /// `brevald`, 256-query batches.
    ServeBatch,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Scale100k,
        Workload::ServePoint,
        Workload::ServeBatch,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Scale100k => "scale100k",
            Workload::ServePoint => "serve_point",
            Workload::ServeBatch => "serve_batch",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed whose output digests are pinned in `expected/`.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Paper => paper::DEFAULT_SEED,
            Workload::Scale100k => scale::DEFAULT_SEED,
            Workload::ServePoint | Workload::ServeBatch => serve::DEFAULT_SEED,
        }
    }

    /// The pinned digests (`name 0x…` lines) for the default seed.
    #[must_use]
    pub fn expected(self) -> &'static str {
        match self {
            Workload::Paper => include_str!("../expected/paper.txt"),
            Workload::Scale100k => include_str!("../expected/scale100k.txt"),
            Workload::ServePoint | Workload::ServeBatch => include_str!("../expected/serve.txt"),
        }
    }
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed phase; a run always completes at least one op.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the run's temporary files (snapshots); removed after.
    pub work_dir: PathBuf,
    /// The `brevald` server binary.
    pub brevald: PathBuf,
}

/// The end-to-end metrics: `(name, unit)`. Every untraced run of every
/// workload reports all of them. There is no end-to-end tail: a pipeline
/// run times one to four ops, and the serve tails are per-layer.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("item_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The layer stages timed in traced runs, as `<layer>.<stage>`. Each one
/// reports `_ms` (self time), `_allocs` and `_hwm_mb` (`VmHWM` growth); a
/// stage the workload never runs reports 0.
pub const STAGES: [&str; 24] = [
    "topogen.generate",
    "bgpsim.simgraph",
    "bgpsim.simulate",
    "bgpsim.to_pathset",
    "bgpsim.propagate",
    "bgpsim.path_extract",
    "asgraph.sanitize",
    "asgraph.path_stats",
    "asgraph.customer_cones",
    "asgraph.ppdc",
    "asinfer.asrank",
    "asinfer.problink",
    "asinfer.toposcope",
    "asinfer.gao",
    "valdata.compile",
    "asregistry.region_map",
    "core.clean",
    "core.link_classifier",
    "core.coverage",
    "core.heatmaps",
    "core.eval_tables",
    "core.sampling",
    "core.snapshot_save",
    "brevald.load",
];

/// Suffixes and units of the three per-stage metrics.
pub const STAGE_SUFFIXES: [(&str, &str); 3] =
    [("_ms", "ms"), ("_allocs", "count"), ("_hwm_mb", "MB")];

/// Per-layer metrics that are not stage timings: `(name, unit)`.
pub const LAYER_EXTRAS: [(&str, &str); 27] = [
    ("bgpsim.observations", "count"),
    ("bgpsim.us_per_origin", "us"),
    ("bgpsim.allocs_per_origin", "count"),
    ("asgraph.paths_kept_ratio", "ratio"),
    ("asgraph.ppdc_bytes", "bytes"),
    ("asinfer.rels_assigned", "count"),
    ("valdata.labels_compiled", "count"),
    ("core.labels_kept_ratio", "ratio"),
    ("core.snapshot_bytes", "bytes"),
    ("brevald.publish_us", "us"),
    ("brevald.parse_ns", "ns"),
    ("brevald.eval_ns.cone", "ns"),
    ("brevald.eval_ns.member", "ns"),
    ("brevald.eval_ns.class", "ns"),
    ("brevald.eval_ns.ascov", "ns"),
    ("brevald.eval_ns.slice", "ns"),
    ("brevald.eval_ns.stats", "ns"),
    ("brevald.format_ns", "ns"),
    ("brevald.answer_batch_us", "us"),
    ("brevald.transport_share", "ratio"),
    ("brevald.rss_per_generation_mb", "MB"),
    ("brevald.reload_p50_ms", "ms"),
    ("brevald.reload_p90_ms", "ms"),
    ("brevald.reload_errors", "count"),
    ("brevald.item_p90_us", "us"),
    ("brevald.item_p99_us", "us"),
    ("brevald.ok_ratio", "ratio"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for stage in STAGES {
        for (suffix, unit) in STAGE_SUFFIXES {
            out.push((format!("{stage}{suffix}"), unit));
        }
    }
    out.extend(LAYER_EXTRAS.iter().map(|(n, u)| ((*n).to_owned(), *u)));
    out
}

/// Counts attempted and failed operations and output checks.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `n` operations that succeeded.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Compares the output digests of two builds from the same inputs. At a
    /// pinned seed every digest must match. At other seeds only the
    /// `exact` ones must: ASRank resolves a link whose votes and transit
    /// degrees tie in hash-map order, so at some seeds everything downstream
    /// of it differs between two builds. Such differences are printed, not
    /// counted.
    pub fn same_outputs(
        &mut self,
        what: &str,
        a: &[(String, u64)],
        b: &[(String, u64)],
        pinned_seed: bool,
        exact: &[&str],
    ) {
        let differ: Vec<&str> = a
            .iter()
            .zip(b)
            .filter(|(x, y)| x != y)
            .map(|(x, _)| x.0.as_str())
            .collect();
        let counted: Vec<&str> = differ
            .iter()
            .copied()
            .filter(|name| pinned_seed || exact.contains(name))
            .collect();
        self.check(a.len() == b.len() && counted.is_empty(), || {
            format!("{what} differ in {counted:?}")
        });
        if counted.is_empty() && !differ.is_empty() {
            eprintln!("brevalbench: note: {what} differ in {differ:?} (ASRank vote-tie order)");
        }
    }

    /// Compares `digests` with the pinned `expected` text (`name 0x…` per
    /// line, `#` comments) and counts one check per pinned digest.
    pub fn pinned(&mut self, expected: &str, digests: &[(String, u64)]) {
        for line in expected.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let (Some(name), Some(value)) = (words.next(), words.next()) else {
                self.fail(format!("malformed expected line {line:?}"));
                continue;
            };
            let want = u64::from_str_radix(value.trim_start_matches("0x"), 16).ok();
            let got = digests.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
            self.check(want.is_some() && want == got, || match got {
                Some(d) => format!("digest {name}: expected {value}, got {d:#018x}"),
                None => format!("digest {name}: expected {value}, not computed"),
            });
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations, checks and failures.
    pub checks: Checks,
    /// Output digests, compared across runs of one seed by `compare`.
    pub digests: Vec<(String, u64)>,
}

impl Report {
    /// A report holding every per-layer metric at 0, for a traced run to
    /// fill in.
    #[must_use]
    pub fn per_layer() -> Self {
        let mut report = Report::default();
        for (name, unit) in per_layer_metrics() {
            report.metrics.insert(name, (0.0, unit));
        }
        report
    }

    /// Sets metric `name`, which must be declared in [`END_TO_END`] or
    /// [`per_layer_metrics`].
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .chain(per_layer_metrics())
            .find(|(n, _)| n == name)
            .map(|(_, u)| u);
        match unit {
            Some(unit) if value.is_finite() => {
                self.metrics.insert(name.to_owned(), (value, unit));
            }
            Some(_) => self.checks.fail(format!("metric {name} is not finite")),
            None => self.checks.fail(format!("metric {name} is not declared")),
        }
    }

    /// Checks `digests` against the pinned ones at the workload's default
    /// seed, and keeps the ones `compare` may check across runs of one seed:
    /// all of them at the default seed, elsewhere only the `exact` ones (see
    /// [`Checks::same_outputs`]).
    pub fn finish_digests(&mut self, cfg: &RunConfig, digests: Vec<(String, u64)>, exact: &[&str]) {
        let pinned = cfg.seed == cfg.workload.default_seed();
        if pinned {
            self.checks.pinned(cfg.workload.expected(), &digests);
        }
        self.digests = digests
            .into_iter()
            .filter(|(name, _)| pinned || exact.contains(&name.as_str()))
            .collect();
    }

    /// Folds a recorder's stage spans into the `_ms`/`_allocs`/`_hwm_mb`
    /// metrics of every stage in [`STAGES`].
    pub fn set_stages(&mut self, rec: &trace::Recorder) {
        let totals = rec.stage_totals();
        for stage in STAGES {
            if let Some(&(ms, allocs, hwm)) = totals.get(stage) {
                self.set(&format!("{stage}_ms"), ms);
                self.set(&format!("{stage}_allocs"), allocs);
                self.set(&format!("{stage}_hwm_mb"), hwm);
            }
        }
    }

    /// Whether every operation and check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    #[must_use]
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            self.metrics_json()
        )
    }

    /// The result file kept for `compare`: the workload, seed, trace flag
    /// and output digests, then the result line's fields.
    #[must_use]
    pub fn result_file(&self, cfg: &RunConfig) -> String {
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|(n, d)| format!("{}:\"{d:#018x}\"", json_str(n)))
            .collect();
        let line = self.result_line();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"digests\":{{{}}},{}\n",
            cfg.workload.name(),
            cfg.seed,
            cfg.trace,
            digests.join(","),
            line.strip_prefix('{').unwrap_or(&line)
        )
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push('}');
        out
    }
}

/// A `kB` field (`VmHWM:`, `VmRSS:`) of `/proc/<pid>/status`, or of this
/// process for `None`. 0 where the field is unavailable.
#[must_use]
pub fn proc_status_kb(pid: Option<u32>, field: &str) -> u64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let Ok(status) = std::fs::read_to_string(path) else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// `count` node ids evenly spaced over `0..n` (at least one, at most `n`).
#[must_use]
pub fn sample_origins(n: usize, count: usize) -> Vec<u32> {
    let count = count.min(n).max(1);
    (0..count)
        .map(|i| ((i as u64 * n as u64) / count as u64) as u32)
        .collect()
}

/// Whether another op as long as the last one (`last_s`), started now,
/// would end within `seconds` of `start`. The timed phase repeats its op
/// while this holds, so a run never outlasts `seconds` by more than its
/// first op, and a workload whose op takes about `seconds` does one.
#[must_use]
pub fn room_for_another(start: std::time::Instant, last_s: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + last_s <= seconds
}

/// Set-up cycles per run; `setup_s` is the median cycle time.
pub const SETUP_REPEATS: usize = 7;

/// The seeds of a run's set-up cycles: [`SETUP_REPEATS`] − 1 seeds mixed
/// from the run's `seed`, then `seed` itself. A cycle's cost depends on the
/// scenario its seed generates (on a 2-vCPU VM a `brevald --cold` build of
/// `small` took 0.43–0.67 s across seeds 1–6), so the median over several
/// seeds measures the set-up code rather than one input's size.
pub fn setup_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (1..SETUP_REPEATS as u64)
        .map(move |i| seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .chain(std::iter::once(seed))
}

/// Runs `op` once per seed of [`setup_seeds`]`(seed)` and returns the
/// median wall time in seconds.
pub fn setup_secs(seed: u64, mut op: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = setup_seeds(seed)
        .map(|s| {
            let t = std::time::Instant::now();
            op(s);
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Sets the item-time metric from per-request (or per-op) item times in
/// µs, in measurement order, and the peak-RSS metric from a `VmHWM` in kB.
pub fn set_item_metrics(report: &mut Report, item_us: &[f64], hwm_kb: u64) {
    report.set("item_p50_us", stats::round_quantile(item_us, 0.5));
    report.set("peak_rss_mb", hwm_kb as f64 / 1024.0);
}
