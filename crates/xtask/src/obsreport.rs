//! `obsreport` — human-readable rendering of a run manifest
//! (`results/run_manifest.json`, written by `experiments`).
//!
//! Reads the [`RunManifest`](breval_obs::RunManifest) document through the
//! crate's own JSON reader and prints:
//!
//! * a **flame summary**: every stage path with its wall, *self* time
//!   (wall minus same-thread direct children), and journal-attributed
//!   allocation deltas, sorted by self time so the most expensive leaf
//!   work floats to the top;
//! * a **pool-utilisation table**: for every stage that ran a
//!   `parallel_map`, the summed `pool_worker` busy time against the stage
//!   wall × thread cap, i.e. how much of the pool's theoretical capacity
//!   the stage actually used;
//! * the `parallel_map` item-latency quantiles and the pool-health
//!   counters.
//!
//! `pool_worker` children accumulate busy time across *all* worker
//! threads, so they routinely exceed their parent's single-thread wall;
//! they are therefore excluded from the self-time subtraction (they are
//! concurrency, not same-thread sub-work), and self time is clamped at
//! zero for the remaining concurrent-child cases (e.g. `infer_*` spans
//! adopted onto worker threads).

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One stage row of the flame summary.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Slash-joined span path, e.g. `scenario_run/infer_all`.
    pub path: String,
    /// Total wall time attributed to the span, in milliseconds.
    pub wall_ms: f64,
    /// Wall minus same-thread direct children, clamped at zero.
    pub self_ms: f64,
    /// Allocations attributed to the span on its own thread.
    pub allocs: u64,
    /// Bytes allocated, same attribution as `allocs`.
    pub alloc_bytes: u64,
}

/// One row of the pool-utilisation table.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRow {
    /// The stage that submitted the `parallel_map`.
    pub path: String,
    /// The stage's own wall, in milliseconds.
    pub stage_wall_ms: f64,
    /// Summed busy time of every pool worker slice under the stage.
    pub worker_busy_ms: f64,
    /// `worker_busy_ms / (stage_wall_ms × thread_cap)`, in `[0, 1]`-ish
    /// (caller-as-worker overlap can nudge it past 1 on tiny stages).
    pub utilisation: f64,
}

fn num(j: Option<&Json>) -> f64 {
    match j {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// The manifest's `stages` array as `path → (wall_ms, allocs, bytes)`.
fn stage_map(doc: &Json) -> BTreeMap<String, (f64, f64, f64)> {
    doc.get("stages")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            let name = s.get("name").and_then(Json::as_str)?;
            let row = (
                num(s.get("wall_ms")),
                num(s.get("alloc_count")),
                num(s.get("alloc_bytes")),
            );
            Some((name.to_owned(), row))
        })
        .collect()
}

/// `child` is a *same-thread* direct child of `parent`: exactly one path
/// segment deeper, and not a `pool_worker` busy-time accumulator (those
/// sum across worker threads and would make self time meaningless).
fn is_serial_child(child: &str, parent: &str) -> bool {
    child
        .strip_prefix(parent)
        .and_then(|rest| rest.strip_prefix('/'))
        .is_some_and(|seg| !seg.contains('/') && seg != "pool_worker")
}

/// Extracts the flame-summary rows, sorted by self time descending
/// (ties broken by path so the order is deterministic).
#[must_use]
pub fn stage_rows(doc: &Json) -> Vec<StageRow> {
    let stages = stage_map(doc);
    let mut rows: Vec<StageRow> = stages
        .iter()
        .map(|(path, &(wall, allocs, bytes))| {
            let child_sum: f64 = stages
                .iter()
                .filter(|(c, _)| is_serial_child(c, path))
                .map(|(_, (w, _, _))| *w)
                .sum();
            StageRow {
                path: path.clone(),
                wall_ms: wall,
                self_ms: (wall - child_sum).max(0.0),
                allocs: allocs as u64,
                alloc_bytes: bytes as u64,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.self_ms
            .total_cmp(&a.self_ms)
            .then_with(|| a.path.cmp(&b.path))
    });
    rows
}

/// Extracts the pool-utilisation rows: one per stage with a recorded
/// `<stage>/pool_worker` accumulator, sorted by stage path.
#[must_use]
pub fn pool_rows(doc: &Json) -> Vec<PoolRow> {
    let stages = stage_map(doc);
    let cap = num(doc.get("thread_cap")).max(1.0);
    stages
        .iter()
        .filter_map(|(path, &(busy, _, _))| {
            let parent = path.strip_suffix("/pool_worker")?;
            let (stage_wall, _, _) = stages.get(parent).copied()?;
            Some(PoolRow {
                path: parent.to_owned(),
                stage_wall_ms: stage_wall,
                worker_busy_ms: busy,
                utilisation: if stage_wall > 0.0 {
                    busy / (stage_wall * cap)
                } else {
                    0.0
                },
            })
        })
        .collect()
}

/// Renders the full report for one parsed run manifest.
#[must_use]
pub fn render(doc: &Json) -> String {
    let mut out = String::new();
    let scenario = doc.get("scenario").and_then(Json::as_str).unwrap_or("?");
    let seed = num(doc.get("seed"));
    let hw = num(doc.get("hardware_threads"));
    let cap = num(doc.get("thread_cap"));
    let _ = writeln!(
        out,
        "obsreport: scenario={scenario} seed={seed} \
         hardware_threads={hw} thread_cap={cap}",
    );
    if hw > 0.0 && cap > hw {
        let _ = writeln!(
            out,
            "obsreport: note — pool oversubscribed ({cap} threads on {hw} \
             hardware thread(s)); walls include scheduler noise",
        );
    }

    let _ = writeln!(
        out,
        "\n{:<58} {:>10} {:>10} {:>9} {:>12}",
        "stage (self-time order)", "self ms", "wall ms", "allocs", "bytes"
    );
    for r in stage_rows(doc) {
        let _ = writeln!(
            out,
            "{:<58} {:>10.1} {:>10.1} {:>9} {:>12}",
            r.path, r.self_ms, r.wall_ms, r.allocs, r.alloc_bytes
        );
    }

    let pools = pool_rows(doc);
    if !pools.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<58} {:>10} {:>10} {:>6}",
            "pool utilisation (busy vs wall × cap)", "wall ms", "busy ms", "util"
        );
        for r in &pools {
            let _ = writeln!(
                out,
                "{:<58} {:>10.1} {:>10.1} {:>5.0}%",
                r.path,
                r.stage_wall_ms,
                r.worker_busy_ms,
                r.utilisation * 100.0
            );
        }
    }

    if let Some(lat) = doc
        .get("histograms")
        .and_then(|h| h.get("parallel_map_item_ns"))
    {
        let count = num(lat.get("count"));
        if count > 0.0 {
            let _ = writeln!(
                out,
                "\nparallel_map items: {count} \
                 (p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs)",
                num(lat.get("p50")) / 1_000.0,
                num(lat.get("p90")) / 1_000.0,
                num(lat.get("p99")) / 1_000.0,
            );
        }
    }
    if let Some(counters) = doc.get("counters").and_then(Json::as_obj) {
        let pool: Vec<String> = counters
            .iter()
            .filter(|(k, _)| k.starts_with("pool_"))
            .map(|(k, v)| format!("{k}={}", num(Some(v))))
            .collect();
        if !pool.is_empty() {
            let _ = writeln!(out, "pool health: {}", pool.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const DOC: &str = r#"{
        "schema": 2, "scenario": "small", "seed": 7,
        "hardware_threads": 1, "thread_cap": 4,
        "stages": [
            {"name": "run", "calls": 1, "wall_ms": 100.0, "alloc_count": 10, "alloc_bytes": 1000},
            {"name": "run/alpha", "calls": 1, "wall_ms": 60.0, "alloc_count": 6, "alloc_bytes": 600},
            {"name": "run/alpha/pool_worker", "calls": 3, "wall_ms": 150.0},
            {"name": "run/beta", "calls": 1, "wall_ms": 30.0, "alloc_count": 3, "alloc_bytes": 300}
        ],
        "histograms": {
            "parallel_map_item_ns": {"count": 8, "p50": 1000, "p90": 2000, "p99": 4000}
        },
        "counters": {"pool_items_total": 8, "other": 1}
    }"#;

    #[test]
    fn self_time_subtracts_serial_children_only() {
        let doc = parse(DOC).expect("valid fixture");
        let rows = stage_rows(&doc);
        let by_path = |p: &str| rows.iter().find(|r| r.path == p).expect("row");
        // run: 100 − (60 + 30) = 10; the grandchild pool_worker is not direct.
        assert!((by_path("run").self_ms - 10.0).abs() < 1e-9);
        // run/alpha keeps its full wall: pool_worker busy time is excluded.
        assert!((by_path("run/alpha").self_ms - 60.0).abs() < 1e-9);
        assert_eq!(by_path("run/beta").allocs, 3);
    }

    #[test]
    fn rows_sorted_by_self_time_descending() {
        let doc = parse(DOC).expect("valid fixture");
        let rows = stage_rows(&doc);
        for pair in rows.windows(2) {
            assert!(pair[0].self_ms >= pair[1].self_ms, "unsorted: {pair:?}");
        }
        assert_eq!(rows[0].path, "run/alpha/pool_worker"); // self 150
    }

    #[test]
    fn pool_utilisation_uses_thread_cap() {
        let doc = parse(DOC).expect("valid fixture");
        let pools = pool_rows(&doc);
        assert_eq!(pools.len(), 1);
        assert_eq!(pools[0].path, "run/alpha");
        // busy 150 / (wall 60 × cap 4) = 0.625
        assert!((pools[0].utilisation - 0.625).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_oversubscription_and_latency() {
        let doc = parse(DOC).expect("valid fixture");
        let text = render(&doc);
        assert!(text.contains("pool oversubscribed"));
        assert!(text.contains("parallel_map items: 8"));
        assert!(text.contains("pool_items_total=8"));
        assert!(!text.contains("other=1"), "non-pool counters stay out");
    }

    #[test]
    fn clamps_negative_self_time() {
        let doc = parse(
            r#"{"thread_cap": 2, "stages": [
                {"name": "a", "wall_ms": 10.0}, {"name": "a/b", "wall_ms": 15.0}]}"#,
        )
        .expect("valid");
        let rows = stage_rows(&doc);
        let a = rows.iter().find(|r| r.path == "a").expect("row");
        assert_eq!(a.self_ms, 0.0);
    }
}
