//! `brevalbench compare A/ B/`: two directories of result files, judged
//! against the bounds in `BENCHMARK.json`.
//!
//! For each (end-to-end metric, workload) pair both sides' medians and
//! quartiles are printed with a verdict. `regressed`: B's median is worse
//! than A's by more than the bound. `unresolved`: either side's quartile
//! spread (as a share of its median) is wider than the bound, unless every
//! B run beats every A run. `ok` otherwise. Runs of the same workload and
//! seed must produce identical output digests, on both sides.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use xtask::json::{self, Json};

/// One end-to-end metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B's may be worse.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the harness uses.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Length of one run's timed phase, seconds.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics: `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

impl Benchmark {
    /// Parses `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let field = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key}"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    lower_is_better: field(m, "better")? == "lower",
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("BENCHMARK.json: metric without bound")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list("per_layer")?
            .iter()
            .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| *s > 0.0)
            .ok_or("BENCHMARK.json: no positive run_seconds")?;
        Ok(Benchmark {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }
}

/// One result file.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Metric values.
    pub metrics: BTreeMap<String, f64>,
    /// Output digests.
    pub digests: BTreeMap<String, String>,
}

impl RunResult {
    /// Parses one result file written by `brevalbench run`.
    pub fn parse(text: &str) -> Result<RunResult, String> {
        let doc = json::parse(text)?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result without metrics")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        let digests = doc
            .get("digests")
            .and_then(Json::as_obj)
            .map(|d| {
                d.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                    .collect()
            })
            .unwrap_or_default();
        Ok(RunResult {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result without workload")?
                .to_owned(),
            seed: doc
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or("result without seed")? as u64,
            trace: doc.get("trace").and_then(Json::as_bool) == Some(true),
            metrics,
            digests,
        })
    }
}

/// Every `*.json` result file directly under `dir`.
pub fn load_results(dir: &Path) -> Result<Vec<RunResult>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            RunResult::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The verdict for one (metric, workload) pair.
#[must_use]
pub fn verdict(m: &Declared, a: &[f64], b: &[f64]) -> &'static str {
    let (a1, am, a3) = stats::quartiles(a);
    let (b1, bm, b3) = stats::quartiles(b);
    let spread = |q1: f64, med: f64, q3: f64| {
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    };
    let worse = if m.lower_is_better { bm - am } else { am - bm };
    let better_everywhere = if m.lower_is_better {
        b.iter().all(|x| a.iter().all(|y| x < y))
    } else {
        b.iter().all(|x| a.iter().all(|y| x > y))
    };
    if spread(a1, am, a3).max(spread(b1, bm, b3)) > m.bound && !better_everywhere {
        "unresolved"
    } else if am != 0.0 && worse / am.abs() > m.bound {
        "regressed"
    } else {
        "ok"
    }
}

/// Compares result sets `a` and `b`; returns the report text and whether
/// the comparison passed (no regression, no digest mismatch).
#[must_use]
pub fn compare(bench: &Benchmark, a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>4} {:>14} {:>24} {:>4} {:>14} {:>24}  verdict",
        "workload", "metric", "nA", "median A", "[q1, q3] A", "nB", "median B", "[q1, q3] B"
    );
    for workload in &bench.workloads {
        for m in &bench.end_to_end {
            let values = |set: &[RunResult]| -> Vec<f64> {
                set.iter()
                    .filter(|r| &r.workload == workload && !r.trace)
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (a1, am, a3) = stats::quartiles(&va);
            let (b1, bm, b3) = stats::quartiles(&vb);
            let v = verdict(m, &va, &vb);
            ok &= v != "regressed";
            let _ = writeln!(
                out,
                "{workload:<12} {:<14} {:>4} {am:>14.6} {:>24} {:>4} {bm:>14.6} {:>24}  {v}",
                m.name,
                va.len(),
                format!("[{a1:.6}, {a3:.6}]"),
                vb.len(),
                format!("[{b1:.6}, {b3:.6}]"),
            );
        }
    }
    let mut by_seed: BTreeMap<(&str, u64), &BTreeMap<String, String>> = BTreeMap::new();
    for r in a.iter().chain(b) {
        if r.digests.is_empty() {
            continue;
        }
        match by_seed.get(&(r.workload.as_str(), r.seed)) {
            None => {
                by_seed.insert((r.workload.as_str(), r.seed), &r.digests);
            }
            Some(first) if **first != r.digests => {
                ok = false;
                let _ = writeln!(
                    out,
                    "digests differ between runs of {} seed {}",
                    r.workload, r.seed
                );
            }
            Some(_) => {}
        }
    }
    (out, ok)
}
