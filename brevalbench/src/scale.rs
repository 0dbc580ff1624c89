//! The `scale100k` workload: 10× the real Internet's ~70k ASes.
//!
//! One op is `TopologyConfig::scaled(100_000, seed)` → `SimGraph::build` →
//! 512 evenly spaced origins, each propagated once with `propagate_into`
//! (buffers reused) and every vantage point's path extracted → `sanitized`
//! and `stats` → ASRank → CSR customer cones → PPDC. A full-view
//! simulation at this size would propagate all 100k origins (≈8 minutes on
//! one core), so the op samples origins. The item is one AS of the
//! topology: `item_p50_us` is op wall time per AS.
//!
//! Set-up is a warm-up: the same op at 10k ASes, once per
//! [`crate::setup_seeds`] seed.

use crate::trace::Recorder;
use crate::{Report, RunConfig};
use asgraph::{cone, AsPath, ConeSizes, CsrGraph, PathSet, PpdcCones};
use asinfer::{AsRank, Classifier, Inference, PreparedPaths};
use bgpsim::{OriginRoutes, PropScratch, Propagator, SimGraph};
use std::time::Instant;
use topogen::{debug_digest, Topology, TopologyConfig};

/// The seed whose digests are pinned in `expected/scale100k.txt`.
pub const DEFAULT_SEED: u64 = 42;
/// ASes in the measured topology.
pub const ASES: usize = 100_000;
/// Origins propagated per op.
pub const ORIGINS: usize = 512;

const WARMUP_ASES: usize = 10_000;
/// Digests computed upstream of inference, equal between any two builds.
const INFERENCE_FREE: [&str; 2] = ["topology", "paths"];

/// Everything one op produces.
struct Chain {
    topology: Topology,
    raw_paths: usize,
    paths: PathSet,
    asrank: Inference,
    cones: ConeSizes,
    ppdc: PpdcCones,
}

/// One op over `total` ASes, one span per layer call (per-origin calls
/// accumulate into their stage).
fn chain(total: usize, seed: u64, rec: &mut Recorder) -> Chain {
    let topology = rec.span("topogen.generate", || {
        topogen::generate(&TopologyConfig::scaled(total, seed))
    });
    let g = rec.span("bgpsim.simgraph", || SimGraph::build(&topology));
    let vps: Vec<(asgraph::Asn, u32)> = topology
        .collector_peers
        .iter()
        .filter_map(|cp| g.node(cp.asn).map(|node| (cp.asn, node)))
        .collect();
    let prop = Propagator::new(&g);
    let mut routes = OriginRoutes::reusable();
    let mut scratch = PropScratch::new();
    let mut raw = PathSet::new();
    for origin in crate::sample_origins(g.len(), ORIGINS) {
        rec.span("bgpsim.propagate", || {
            prop.propagate_into(origin, None, &mut routes, &mut scratch);
        });
        rec.span("bgpsim.path_extract", || {
            for &(vp, node) in &vps {
                if let Some(hops) = routes.path(node, &g) {
                    raw.push(vp, AsPath::new(hops));
                }
            }
        });
    }
    drop(g);
    let paths = rec.span("asgraph.sanitize", || raw.sanitized());
    let raw_paths = raw.len();
    drop(raw);
    let stats = rec.span("asgraph.path_stats", || paths.stats());
    let asrank = rec.span("asinfer.asrank", || {
        AsRank::new().infer_prepared(PreparedPaths::new(&paths, &stats))
    });
    let cones = rec.span("asgraph.customer_cones", || {
        cone::customer_cone_sizes_csr(&CsrGraph::build(&crate::paper::graph_of(&asrank)))
    });
    let ppdc = rec.span("asgraph.ppdc", || cone::ppdc_cones(&paths, &asrank.rels));
    Chain {
        topology,
        raw_paths,
        paths,
        asrank,
        cones,
        ppdc,
    }
}

/// Digests of an op's outputs.
fn digests(c: &Chain) -> Vec<(String, u64)> {
    let cones: Vec<(asgraph::Asn, usize)> = c.cones.iter().collect();
    let ppdc: Vec<(asgraph::Asn, usize)> = c.ppdc.sizes().iter().collect();
    vec![
        ("topology".to_owned(), c.topology.digest()),
        ("paths".to_owned(), debug_digest(&c.paths)),
        ("rels.asrank".to_owned(), debug_digest(&c.asrank.rels)),
        ("cones".to_owned(), debug_digest(&cones)),
        ("ppdc".to_owned(), debug_digest(&ppdc)),
    ]
}

/// Invariants that hold at every seed.
fn check_invariants(c: &Chain, ases: usize, report: &mut Report) {
    report.checks.check(c.topology.as_count() == ases, || {
        format!("topology has {} ASes, not {ases}", c.topology.as_count())
    });
    report
        .checks
        .check(!c.paths.is_empty(), || "no paths observed".to_owned());
    let observed = c.paths.stats();
    report.checks.check(
        !c.asrank.rels.is_empty() && c.asrank.rels.keys().all(|l| observed.links().contains(l)),
        || "ASRank labelled a link no path observed".to_owned(),
    );
}

/// Times the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = measure(cfg, ASES, WARMUP_ASES);
    let digests = std::mem::take(&mut report.digests);
    report.finish_digests(cfg, digests, &INFERENCE_FREE);
    report
}

/// Warms up at `warmup_ases` for each set-up seed, then repeats the op at
/// `ases` for `cfg.seconds` (at least once).
pub fn measure(cfg: &RunConfig, ases: usize, warmup_ases: usize) -> Report {
    let mut report = Report::default();
    let mut off = Recorder::off();
    let setup_s = crate::setup_secs(cfg.seed, |seed| {
        chain(warmup_ases, seed, &mut off);
    });
    report.set("setup_s", setup_s);

    let mut item_us = Vec::new();
    let mut first: Option<Vec<(String, u64)>> = None;
    let start = Instant::now();
    let mut last_s = 0.0;
    while item_us.is_empty() || crate::room_for_another(start, last_s, cfg.seconds) {
        let t = Instant::now();
        let c = chain(ases, cfg.seed, &mut off);
        item_us.push(t.elapsed().as_secs_f64() * 1e6 / ases as f64);
        report.checks.ops(1);
        check_invariants(&c, ases, &mut report);
        let d = digests(&c);
        match &first {
            None => first = Some(d),
            Some(f) => report.checks.same_outputs(
                "repeated ops",
                f,
                &d,
                cfg.seed == DEFAULT_SEED,
                &INFERENCE_FREE,
            ),
        }
        last_s = t.elapsed().as_secs_f64();
    }
    crate::set_item_metrics(&mut report, &item_us, crate::proc_status_kb(None, "VmHWM:"));
    report.digests = first.unwrap_or_default();
    report
}

/// The traced run: one op with every layer call timed.
pub fn trace(cfg: &RunConfig, rec: &mut Recorder) -> Report {
    let mut report = Report::per_layer();
    let group = rec.enter("scale100k");
    let c = chain(ASES, cfg.seed, rec);
    rec.exit(group);
    report.checks.ops(1);
    check_invariants(&c, ASES, &mut report);
    report.set_stages(rec);
    let propagate: Vec<&crate::trace::Span> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "bgpsim.propagate")
        .collect();
    let total_ms: f64 = propagate
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
        .sum();
    // The first origin grows the reused buffers; the rest show whether
    // propagation allocates per origin.
    let steady: u64 = propagate.iter().skip(1).map(|s| s.allocs).sum();
    report.set("bgpsim.observations", c.raw_paths as f64);
    report.set(
        "bgpsim.us_per_origin",
        total_ms * 1e3 / propagate.len().max(1) as f64,
    );
    report.set(
        "bgpsim.allocs_per_origin",
        steady as f64 / propagate.len().saturating_sub(1).max(1) as f64,
    );
    report.set(
        "asgraph.paths_kept_ratio",
        c.paths.len() as f64 / c.raw_paths.max(1) as f64,
    );
    report.set(
        "asgraph.ppdc_bytes",
        c.ppdc.storage_stats().hybrid_bytes as f64,
    );
    report.set("asinfer.rels_assigned", c.asrank.rels.len() as f64);
    report.finish_digests(cfg, digests(&c), &INFERENCE_FREE);
    report
}
