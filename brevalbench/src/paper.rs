//! The `paper` workload: the paper's pipeline as a researcher runs it, with
//! the `breval_par` thread cap at the number of CPUs.
//!
//! One op is `Scenario::run` on `ScenarioConfig::default()` (10,946 ASes,
//! 240 vantage points), then Figs. 1–2, the four heatmaps (Figs. 3, 7–9),
//! Tables 1–3, the Appendix A sampling sweep on ASRank `T1-TR`, and a
//! snapshot save for all four classifiers. The op's cost grows with the
//! route observations the collectors record (≈2.5–2.8M, depending on the
//! seed), so the item is one route observation: `item_p50_us` is op wall time
//! per observation, which keeps seeds comparable.
//!
//! Set-up is a warm-up: the same op on `ScenarioConfig::small`, once per
//! [`crate::setup_seeds`] seed. The traced run replays `Scenario::run`
//! stage by stage through public functions, checks the replay's digests
//! against `Scenario::run`'s, then times the analysis calls on the returned
//! scenario.

use crate::trace::Recorder;
use crate::{Checks, Report, RunConfig};
use asgraph::{cone, AsGraph, CsrGraph, Link, PathSet};
use asinfer::{AsRank, Classifier, GaoClassifier, Inference, PreparedPaths, ProbLink, TopoScope};
use bgpsim::{RibSnapshot, SimGraph};
use breval_core::cleaning::{clean, CleanValidation};
use breval_core::heatmap::Heatmap;
use breval_core::metrics::EvalTable;
use breval_core::pipeline::{HeatmapMetric, Scenario, ScenarioConfig};
use breval_core::report;
use breval_core::sampling::{sampling_sweep, SamplePoint, SamplingConfig};
use breval_core::snapshot::{fnv1a64, ScenarioSnapshot, SnapshotError};
use breval_core::{ClassCoverage, LinkClassifier};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use topogen::{debug_digest, Topology};
use valdata::ValidationSet;

/// The seed whose digests are pinned in `expected/paper.txt`.
pub const DEFAULT_SEED: u64 = 2018;

/// Digests computed upstream of inference, equal between any two builds.
const INFERENCE_FREE: [&str; 5] = ["topology", "rib", "paths", "labels.raw", "labels.clean"];
const CLASSIFIERS: [&str; 4] = ["asrank", "problink", "toposcope", "gao"];
const HEATMAPS: [(&str, HeatmapMetric); 4] = [
    ("fig3", HeatmapMetric::TransitDegree),
    ("fig7", HeatmapMetric::Ppdc),
    ("fig8", HeatmapMetric::PpdcNoVp),
    ("fig9", HeatmapMetric::NodeDegree),
];
const TABLES: [(&str, &str); 3] = [
    ("table1", "asrank"),
    ("table2", "problink"),
    ("table3", "toposcope"),
];

/// The paper-scale configuration with the topology seeded by `seed`.
#[must_use]
fn config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::default();
    config.topology.seed = seed;
    config
}

/// What the analysis calls return; rendered and digested after timing.
struct Analysis {
    fig1: Vec<ClassCoverage>,
    fig2: Vec<ClassCoverage>,
    heatmaps: Vec<(Heatmap, Heatmap)>,
    tables: Vec<EvalTable>,
    sampling: Vec<SamplePoint>,
}

/// The analysis calls of one op on a finished scenario, saving the
/// snapshots under `dir`. Traced, the ASRank PPDC cones the PPDC heatmaps
/// read are built first as their own `asgraph.ppdc` stage.
fn analyse(s: &Scenario, dir: &Path, rec: &mut Recorder) -> Result<Analysis, SnapshotError> {
    let (fig1, fig2) = rec.span("core.coverage", || (s.fig1(), s.fig2()));
    if rec.is_on() {
        rec.span("asgraph.ppdc", || s.ppdc_cones_arc("asrank"));
    }
    let heatmaps = rec.span("core.heatmaps", || {
        HEATMAPS.iter().map(|(_, m)| s.heatmaps(*m)).collect()
    });
    let tables = rec.span("core.eval_tables", || {
        TABLES.iter().map(|(_, name)| s.eval_table(name)).collect()
    });
    let sampling = rec.span("core.sampling", || {
        let scored = s.scored_in_class("asrank", "T1-TR");
        sampling_sweep(&scored, &SamplingConfig::default())
    });
    rec.span("core.snapshot_save", || {
        CLASSIFIERS
            .iter()
            .try_for_each(|name| s.save_snapshot(dir, name).map(|_| ()))
    })?;
    Ok(Analysis {
        fig1,
        fig2,
        heatmaps,
        tables,
        sampling,
    })
}

/// The state `Scenario::run` builds, as produced by [`replay`].
struct Replay {
    topology: Topology,
    rib: RibSnapshot,
    raw_paths: usize,
    paths: PathSet,
    inferred_links: BTreeSet<Link>,
    inferences: BTreeMap<String, Inference>,
    validation_raw: ValidationSet,
    validation: CleanValidation,
    classifier: LinkClassifier,
}

/// `Scenario::run` replayed stage by stage through public functions, in its
/// order and with the same `breval_par::parallel_map` fan-out for the
/// classifier ensemble, one span per stage.
fn replay(config: &ScenarioConfig, rec: &mut Recorder) -> Replay {
    let topology = rec.span("topogen.generate", || topogen::generate(&config.topology));
    let graph = rec.span("bgpsim.simgraph", || SimGraph::build(&topology));
    let rib = rec.span("bgpsim.simulate", || {
        bgpsim::simulate_with_graph(&topology, &graph)
    });
    drop(graph);
    let raw = rec.span("bgpsim.to_pathset", || rib.to_pathset(false));
    let paths = rec.span("asgraph.sanitize", || raw.sanitized());
    let raw_paths = raw.len();
    drop(raw);
    let stats = rec.span("asgraph.path_stats", || paths.stats());
    let inferred_links = stats.links().clone();

    let prep = PreparedPaths::new(&paths, &stats);
    let asrank = rec.span("asinfer.asrank", || AsRank::new().infer_prepared(prep));
    let prep = prep.with_asrank(&asrank);
    let mut names = vec!["problink", "toposcope"];
    if config.include_gao {
        names.push("gao");
    }
    let clock = rec.clock();
    let results = breval_par::parallel_map(names.len(), |i| {
        clock.measure(|| match names[i] {
            "problink" => ProbLink::new().infer_prepared(prep),
            "toposcope" => TopoScope::new().infer_prepared(prep),
            _ => GaoClassifier::new().infer_prepared(prep),
        })
    });
    let mut inferences = BTreeMap::new();
    for (name, (inference, sample)) in names.into_iter().zip(results) {
        rec.push(&format!("asinfer.{name}"), sample);
        inferences.insert(name.to_owned(), inference);
    }

    let validation_raw = rec.span("valdata.compile", || {
        valdata::compile_all(&topology, &rib, &config.valdata)
    });
    let validation = rec.span("core.clean", || {
        let org = topology.as2org();
        let selected = if config.use_all_sources {
            validation_raw.clone()
        } else {
            validation_raw.only_source(valdata::LabelSource::Communities)
        };
        clean(&selected, &org, &config.cleaning)
    });
    let cones = rec.span("asgraph.customer_cones", || {
        let csr = CsrGraph::build(&graph_of(&asrank));
        Arc::new(cone::customer_cone_sizes_csr(&csr))
    });
    let region_map = rec.span("asregistry.region_map", || {
        asregistry::RegionMap::build(
            topology.iana_table(),
            &topology.delegation_files("20180405"),
        )
    });
    let classifier = rec.span("core.link_classifier", || {
        LinkClassifier::with_cone_sizes(
            region_map,
            cones,
            topology.tier1.clone(),
            topology.hypergiants.clone(),
        )
    });
    inferences.insert("asrank".to_owned(), asrank);
    Replay {
        topology,
        rib,
        raw_paths,
        paths,
        inferred_links,
        inferences,
        validation_raw,
        validation,
        classifier,
    }
}

/// The plain relationship graph of an inference (as `Scenario::run` builds
/// it for the link classifier's cones).
#[must_use]
pub(crate) fn graph_of(inference: &Inference) -> AsGraph {
    let mut g = AsGraph::new();
    for (link, rel) in &inference.rels {
        let _ = g.add_rel(*link, *rel);
    }
    g
}

/// Digests of everything `Scenario::run` produces: topology, RIB, paths,
/// each classifier's relationships, raw and cleaned labels, link classes.
#[allow(clippy::too_many_arguments)]
fn pipeline_digests(
    topology: &Topology,
    rib: &RibSnapshot,
    paths: &PathSet,
    inferences: &BTreeMap<String, Inference>,
    validation_raw: &ValidationSet,
    validation: &CleanValidation,
    classifier: &LinkClassifier,
    inferred_links: &BTreeSet<Link>,
) -> Vec<(String, u64)> {
    let mut out = vec![
        ("topology".to_owned(), topology.digest()),
        ("rib".to_owned(), rib.digest()),
        ("paths".to_owned(), debug_digest(paths)),
    ];
    for (name, inference) in inferences {
        out.push((format!("rels.{name}"), debug_digest(&inference.rels)));
    }
    out.push(("labels.raw".to_owned(), debug_digest(validation_raw)));
    out.push(("labels.clean".to_owned(), debug_digest(&validation.labels)));
    let classes: Vec<(Option<String>, String)> = inferred_links
        .iter()
        .map(|l| {
            (
                classifier.region_class(*l).map(|c| c.label()),
                classifier.topo_class(*l),
            )
        })
        .collect();
    out.push(("classes".to_owned(), debug_digest(&classes)));
    out
}

/// The pipeline digests (topology, RIB, paths, relationships, labels,
/// classes) of a finished scenario.
#[must_use]
pub fn scenario_digests(s: &Scenario) -> Vec<(String, u64)> {
    pipeline_digests(
        &s.topology,
        &s.snapshot,
        &s.paths,
        &s.inferences,
        &s.validation_raw,
        &s.validation,
        &s.classifier,
        &s.inferred_links,
    )
}

/// [`pipeline_digests`] of a replay.
#[must_use]
fn replay_digests(r: &Replay) -> Vec<(String, u64)> {
    pipeline_digests(
        &r.topology,
        &r.rib,
        &r.paths,
        &r.inferences,
        &r.validation_raw,
        &r.validation,
        &r.classifier,
        &r.inferred_links,
    )
}

/// Digests of the rendered figures and tables and of the saved snapshot
/// files; also checks that every saved snapshot reloads and re-encodes to
/// the same bytes.
fn analysis_digests(
    s: &Scenario,
    a: &Analysis,
    dir: &Path,
    checks: &mut Checks,
) -> Vec<(String, u64)> {
    let text = |t: String| fnv1a64(t.as_bytes());
    let mut out = vec![
        (
            "fig1".to_owned(),
            text(report::render_coverage(&a.fig1, "Fig. 1")),
        ),
        (
            "fig2".to_owned(),
            text(report::render_coverage(&a.fig2, "Fig. 2")),
        ),
    ];
    for ((fig, _), (inferred, validated)) in HEATMAPS.iter().zip(&a.heatmaps) {
        out.push((
            (*fig).to_owned(),
            text(report::render_heatmap_pair(inferred, validated, fig)),
        ));
    }
    for ((table, _), t) in TABLES.iter().zip(&a.tables) {
        out.push(((*table).to_owned(), text(report::render_eval_table(t))));
    }
    out.push((
        "fig456".to_owned(),
        text(report::render_sampling(&a.sampling, "T1-TR")),
    ));
    let share: f64 = a.fig1.iter().map(|r| r.share).sum();
    checks.check((share - 1.0).abs() < 1e-9, || {
        format!("fig1 shares sum to {share}")
    });
    for name in CLASSIFIERS {
        let key = s.snapshot_key(name);
        let bytes = std::fs::read(dir.join(key.file_name())).unwrap_or_default();
        let reloaded = ScenarioSnapshot::load(dir, &key).map(|snap| snap.to_bytes(&key));
        checks.check(
            !bytes.is_empty() && reloaded.as_deref().ok() == Some(&bytes[..]),
            || format!("snapshot {name} does not reload to the bytes saved"),
        );
        out.push((format!("snapshot.{name}"), fnv1a64(&bytes)));
    }
    out
}

/// Runs `Scenario::run` traced: first the stage-by-stage replay (so
/// each stage's `VmHWM` growth is measured from a fresh process), then
/// `Scenario::run` itself, checking that both produce the same digests.
/// Fills the bgpsim/asgraph/asinfer/valdata/core layer counts and returns
/// the scenario with its digests.
pub fn traced_pipeline(
    config: &ScenarioConfig,
    pinned: bool,
    rec: &mut Recorder,
    report: &mut Report,
) -> (Scenario, Vec<(String, u64)>) {
    let group = rec.enter("replay");
    let r = replay(config, rec);
    rec.exit(group);
    let replayed = replay_digests(&r);
    let origins = r.topology.as_count().max(1) as f64;
    let totals = rec.stage_totals();
    let (sim_ms, sim_allocs, _) = totals.get("bgpsim.simulate").copied().unwrap_or_default();
    report.set("bgpsim.observations", r.rib.observations.len() as f64);
    report.set("bgpsim.us_per_origin", sim_ms * 1e3 / origins);
    report.set("bgpsim.allocs_per_origin", sim_allocs / origins);
    report.set(
        "asgraph.paths_kept_ratio",
        r.paths.len() as f64 / r.raw_paths.max(1) as f64,
    );
    let rels: usize = r.inferences.values().map(Inference::len).sum();
    report.set("asinfer.rels_assigned", rels as f64);
    report.set("valdata.labels_compiled", r.validation_raw.len() as f64);
    report.set(
        "core.labels_kept_ratio",
        r.validation.len() as f64 / r.validation_raw.len().max(1) as f64,
    );
    drop(r);

    let group = rec.enter("scenario_run");
    let scenario = Scenario::run(config.clone());
    rec.exit(group);
    let digests = scenario_digests(&scenario);
    report.checks.same_outputs(
        "staged replay and Scenario::run",
        &replayed,
        &digests,
        pinned,
        &INFERENCE_FREE,
    );
    (scenario, digests)
}

/// Times the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = measure(cfg, &config(cfg.seed), ScenarioConfig::small);
    let digests = std::mem::take(&mut report.digests);
    report.finish_digests(cfg, digests, &INFERENCE_FREE);
    report
}

/// Warms up on `warmup(s)` for each set-up seed `s`, then repeats the op
/// on `op` for `cfg.seconds` (at least once).
pub fn measure(
    cfg: &RunConfig,
    op: &ScenarioConfig,
    warmup: impl Fn(u64) -> ScenarioConfig,
) -> Report {
    let mut report = Report::default();
    let dir = cfg.work_dir.join("snapshots");
    let mut off = Recorder::off();
    let setup_s = crate::setup_secs(cfg.seed, |seed| {
        let s = Scenario::run(warmup(seed));
        if let Err(e) = analyse(&s, &dir, &mut off) {
            report.checks.fail(format!("warm-up snapshot save: {e}"));
        }
    });
    report.set("setup_s", setup_s);

    let mut item_us = Vec::new();
    let mut first: Option<Vec<(String, u64)>> = None;
    let start = Instant::now();
    let mut last_s = 0.0;
    while item_us.is_empty() || crate::room_for_another(start, last_s, cfg.seconds) {
        let t = Instant::now();
        let s = Scenario::run(op.clone());
        let analysis = analyse(&s, &dir, &mut off);
        let secs = t.elapsed().as_secs_f64();
        item_us.push(secs * 1e6 / s.snapshot.observations.len().max(1) as f64);
        report.checks.ops(1);
        let analysis = match analysis {
            Ok(a) => a,
            Err(e) => {
                report.checks.fail(format!("snapshot save: {e}"));
                break;
            }
        };
        let mut digests = scenario_digests(&s);
        digests.extend(analysis_digests(&s, &analysis, &dir, &mut report.checks));
        match &first {
            None => first = Some(digests),
            Some(f) => report.checks.same_outputs(
                "repeated ops",
                f,
                &digests,
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

/// The traced run (see the module docs).
pub fn trace(cfg: &RunConfig, rec: &mut Recorder) -> Report {
    let mut report = Report::per_layer();
    let dir = cfg.work_dir.join("snapshots");
    let (scenario, mut digests) = traced_pipeline(
        &config(cfg.seed),
        cfg.seed == DEFAULT_SEED,
        rec,
        &mut report,
    );
    let group = rec.enter("analysis");
    let analysis = analyse(&scenario, &dir, rec);
    rec.exit(group);
    match analysis {
        Ok(a) => digests.extend(analysis_digests(&scenario, &a, &dir, &mut report.checks)),
        Err(e) => report.checks.fail(format!("snapshot save: {e}")),
    }
    report.set(
        "asgraph.ppdc_bytes",
        scenario
            .ppdc_cones_arc("asrank")
            .storage_stats()
            .hybrid_bytes as f64,
    );
    let bytes: u64 = CLASSIFIERS
        .iter()
        .filter_map(|n| std::fs::metadata(dir.join(scenario.snapshot_key(n).file_name())).ok())
        .map(|m| m.len())
        .sum();
    report.set("core.snapshot_bytes", bytes as f64);
    report.set_stages(rec);
    report.finish_digests(cfg, digests, &INFERENCE_FREE);
    report
}
