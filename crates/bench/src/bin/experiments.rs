//! Regenerates every table and figure of the paper against the simulated
//! world. `experiments --help` prints the command line ([`USAGE`]); every
//! argument is checked before the scenario runs.

use breval_core::casestudy::run_case_study;
use breval_core::pipeline::HeatmapMetric;
use breval_core::report;
use breval_core::sampling::{sampling_sweep, SamplingConfig};
use breval_core::{Scenario, ScenarioConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Count allocations so the run manifest attributes allocs + bytes to
/// pipeline stages (span guards sample the thread-local counters at their
/// boundaries). Without this installed those columns read 0.
#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

/// The command line, printed by `--help` and after a bad argument.
const USAGE: &str = "\
usage: experiments [--small] [--seed N] [--out DIR] [targets…]
targets: fig1 fig2 fig3 fig7 fig8 fig9 table1 table2 table3
         fig456 casestudy cleaning hardlinks features
         ablation_ambiguous ablation_sources ablation_legacy ablation_666
         timeline (small-scale, not in \"all\") calibration verify
         all                                  (default: all)";

/// The targets `all` (or no target) selects.
const ALL_TARGETS: [&str; 20] = [
    "fig1",
    "fig2",
    "fig3",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "table2",
    "table3",
    "fig456",
    "casestudy",
    "cleaning",
    "hardlinks",
    "features",
    "ablation_ambiguous",
    "ablation_sources",
    "ablation_legacy",
    "ablation_666",
    "calibration",
    "verify",
];

struct Args {
    small: bool,
    seed: Option<u64>,
    out: PathBuf,
    targets: BTreeSet<String>,
}

/// Parses the command line, every argument before any work: `Ok(None)` for
/// `--help`, `Err` with the reason for an argument it does not know.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        small: false,
        seed: None,
        out: PathBuf::from("results"),
        targets: BTreeSet::new(),
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--small" => args.small = true,
            "--seed" => {
                let value = it.next().ok_or("--seed needs a value")?;
                let seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a number"))?;
                args.seed = Some(seed);
            }
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            target if target == "all" || target == "timeline" || ALL_TARGETS.contains(&target) => {
                args.targets.insert(arg);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.targets.is_empty() || args.targets.contains("all") {
        args.targets = ALL_TARGETS.into_iter().map(str::to_owned).collect();
    }
    Ok(Some(args))
}

/// Writes a machine-readable JSON artefact beside the text/CSV outputs.
fn write_json<T: serde::Serialize>(out: &std::path::Path, name: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serializable");
    breval_bench::write_result(out, &format!("{name}.json"), &json).expect("write json");
}

#[expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the binary prints its usage and report to stdout and its progress to stderr"
)]
fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(reason) => {
            eprintln!("experiments: {reason}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The experiments binary is the primary observability consumer: it
    // records a run manifest and an event-journal trace by default.
    // Setting BREVAL_OBS / BREVAL_OBS_JOURNAL explicitly (e.g. =0) wins.
    if std::env::var(breval_obs::ENV_VAR).is_err() {
        breval_obs::set_enabled(true);
    }
    if std::env::var(breval_obs::JOURNAL_ENV_VAR).is_err() {
        breval_obs::set_journal_enabled(true);
    }
    let mut config = if args.small {
        ScenarioConfig::small(args.seed.unwrap_or(2018))
    } else {
        ScenarioConfig::default()
    };
    if let Some(seed) = args.seed {
        config.topology.seed = seed;
    }

    eprintln!(
        "running scenario: {} ASes, seed {} …",
        config.topology.total_ases(),
        config.topology.seed
    );
    // Wall-clock progress readout comes from the scenario_run span rather
    // than an ad-hoc timer, so the same number lands in the run manifest.
    let run_ms_before = breval_obs::span_wall_ms("scenario_run");
    let scenario = Scenario::run(config);
    let run_ms = breval_obs::span_wall_ms("scenario_run") - run_ms_before;
    let timing = if breval_obs::enabled() {
        format!("in {run_ms:.1} ms ")
    } else {
        String::new()
    };
    eprintln!(
        "scenario ready {}— {} observed links, {} validated ({} clean)",
        timing,
        scenario.inferred_links.len(),
        scenario.validation_raw.len(),
        scenario.validation.len()
    );

    let emit = |name: &str, text: String, csv: Option<(String, String)>| {
        println!("{text}");
        breval_bench::write_result(&args.out, &format!("{name}.txt"), &text).expect("write result");
        if let Some((csv_name, csv_text)) = csv {
            breval_bench::write_result(&args.out, &csv_name, &csv_text).expect("write csv");
        }
    };

    for target in &args.targets {
        match target.as_str() {
            "fig1" => {
                let rows = scenario.fig1();
                write_json(&args.out, "fig1_regional_imbalance", &rows);
                emit(
                    "fig1_regional_imbalance",
                    report::render_coverage(&rows, "Fig. 1 — regional imbalance"),
                    Some((
                        "fig1_regional_imbalance.csv".into(),
                        report::coverage_csv(&rows),
                    )),
                );
            }
            "fig2" => {
                let rows = scenario.fig2();
                write_json(&args.out, "fig2_topological_imbalance", &rows);
                emit(
                    "fig2_topological_imbalance",
                    report::render_coverage(&rows, "Fig. 2 — topological imbalance"),
                    Some((
                        "fig2_topological_imbalance.csv".into(),
                        report::coverage_csv(&rows),
                    )),
                );
            }
            "fig3" | "fig7" | "fig8" | "fig9" => {
                let (metric, title) = match target.as_str() {
                    "fig3" => (
                        HeatmapMetric::TransitDegree,
                        "Fig. 3 — transit-degree imbalance (TR° links)",
                    ),
                    "fig7" => (
                        HeatmapMetric::Ppdc,
                        "Fig. 7 — PPDC cone imbalance (TR° links)",
                    ),
                    "fig8" => (
                        HeatmapMetric::PpdcNoVp,
                        "Fig. 8 — PPDC cone imbalance (no VP links)",
                    ),
                    _ => (
                        HeatmapMetric::NodeDegree,
                        "Fig. 9 — node-degree imbalance (TR° links)",
                    ),
                };
                let (inf, val) = scenario.heatmaps(metric);
                write_json(&args.out, &format!("{target}_heatmap"), &(&inf, &val));
                emit(
                    &format!("{target}_heatmap"),
                    report::render_heatmap_pair(&inf, &val, title),
                    Some((
                        format!("{target}_heatmap_inferred.csv"),
                        report::heatmap_csv(&inf),
                    )),
                );
                breval_bench::write_result(
                    &args.out,
                    &format!("{target}_heatmap_validated.csv"),
                    &report::heatmap_csv(&val),
                )
                .expect("write csv");
            }
            "table1" | "table2" | "table3" => {
                let name = match target.as_str() {
                    "table1" => "asrank",
                    "table2" => "problink",
                    _ => "toposcope",
                };
                let table = scenario.eval_table(name);
                write_json(&args.out, &format!("{target}_{name}"), &table);
                emit(
                    &format!("{target}_{name}"),
                    report::render_eval_table(&table),
                    Some((format!("{target}_{name}.csv"), report::eval_csv(&table))),
                );
            }
            "fig456" => {
                let scored = scenario.scored_in_class("asrank", "T1-TR");
                let points = sampling_sweep(&scored, &SamplingConfig::default());
                write_json(&args.out, "fig456_sampling_t1_tr", &points);
                emit(
                    "fig456_sampling_t1_tr",
                    report::render_sampling(&points, "T1-TR"),
                    Some((
                        "fig456_sampling_t1_tr.csv".into(),
                        report::sampling_csv(&points),
                    )),
                );
            }
            "casestudy" => {
                let scored = scenario.scored_in_class("asrank", "T1-TR");
                let lg = bgpsim::LookingGlass::new(&scenario.topology);
                let asrank = scenario.inference("asrank").expect("asrank always runs");
                let cs = run_case_study(
                    &scored,
                    asrank,
                    &scenario.validation,
                    &scenario.paths,
                    &lg,
                    &scenario.topology.tier1,
                );
                write_json(&args.out, "casestudy_cogent", &cs);
                emit("casestudy_cogent", report::render_case_study(&cs), None);
            }
            "cleaning" => {
                write_json(&args.out, "cleaning_census", &scenario.validation.report);
                emit(
                    "cleaning_census",
                    report::render_cleaning(&scenario.validation.report),
                    None,
                );
            }
            "hardlinks" => {
                let asrank = scenario.inference("asrank").expect("asrank always runs");
                let flags = breval_core::hardlinks::classify_hard_links(
                    &scenario.paths,
                    &scenario.stats,
                    &asrank.clique,
                    &breval_core::hardlinks::HardLinkConfig::default(),
                );
                let validated: std::collections::BTreeSet<_> =
                    scenario.validation.labels.keys().copied().collect();
                let scored = &scenario.snapshots["asrank"].scored;
                let hl = breval_core::hardlinks::hard_link_report(&flags, &validated, scored);
                write_json(&args.out, "hardlinks", &hl);
                emit("hardlinks", report::render_hard_links(&hl), None);
            }
            "features" => {
                let asrank = &scenario.snapshots["asrank"];
                let metrics = breval_core::linkfeatures::compute_link_metrics(
                    &scenario.topology,
                    &scenario.snapshot,
                    &scenario.stats,
                    &asrank.ppdc.sizes(),
                );
                let scored = &asrank.scored;
                let mut rows = Vec::new();
                type Feature = (
                    &'static str,
                    fn(&breval_core::linkfeatures::LinkMetrics) -> f64,
                );
                let feats: [Feature; 8] = [
                    ("visibility", |m| m.visibility as f64),
                    ("prefixes_redistributed", |m| {
                        m.prefixes_redistributed as f64
                    }),
                    ("prefixes_originated", |m| m.prefixes_originated as f64),
                    ("left_ases", |m| m.left_ases as f64),
                    ("right_ases", |m| m.right_ases as f64),
                    ("transit_degree_diff", |m| m.transit_degree_diff),
                    ("ppdc_diff", |m| m.ppdc_diff),
                    ("common_ixps", |m| m.common_ixps as f64),
                ];
                for (name, f) in feats {
                    rows.extend(breval_core::linkfeatures::error_by_feature_quartile(
                        scored, &metrics, name, f,
                    ));
                }
                emit(
                    "features_appendix_c",
                    report::render_feature_errors(&rows),
                    None,
                );
            }
            "ablation_ambiguous" => {
                // §4.2: the three multi-label treatments give different
                // P2P/P2C counts — the paper used this to reverse-engineer
                // what prior works did.
                let org = scenario.topology.as2org();
                let communities = scenario
                    .validation_raw
                    .only_source(valdata::LabelSource::Communities);
                let mut text = String::from(
                    "# Ablation: ambiguous-label policy (§4.2)\npolicy          p2p    p2c   s2s  clean\n",
                );
                for (label, policy) in [
                    ("ignore", breval_core::AmbiguousPolicy::Ignore),
                    ("p2p-if-first", breval_core::AmbiguousPolicy::P2pIfFirstP2p),
                    ("always-p2c", breval_core::AmbiguousPolicy::AlwaysP2c),
                ] {
                    let clean = breval_core::cleaning::clean(
                        &communities,
                        &org,
                        &breval_core::CleaningConfig {
                            ambiguous: policy,
                            drop_siblings: true,
                        },
                    );
                    let counts = clean.class_counts();
                    let get = |c: asgraph::RelClass| counts.get(&c).copied().unwrap_or(0);
                    text.push_str(&format!(
                        "{label:<14} {:>5} {:>6} {:>5} {:>6}\n",
                        get(asgraph::RelClass::P2p),
                        get(asgraph::RelClass::P2c),
                        get(asgraph::RelClass::S2s),
                        clean.len()
                    ));
                }
                emit("ablation_ambiguous", text, None);
            }
            "ablation_sources" => {
                let org = scenario.topology.as2org();
                let mut text = String::from(
                    "# Ablation: validation sources\nsource-set         links  coverage\n",
                );
                let total = scenario.inferred_links.len().max(1);
                let sets: [(&str, valdata::ValidationSet); 4] = [
                    (
                        "communities",
                        scenario
                            .validation_raw
                            .only_source(valdata::LabelSource::Communities),
                    ),
                    (
                        "rpsl",
                        scenario
                            .validation_raw
                            .only_source(valdata::LabelSource::Rpsl),
                    ),
                    (
                        "direct",
                        scenario
                            .validation_raw
                            .only_source(valdata::LabelSource::DirectReport),
                    ),
                    ("all", scenario.validation_raw.clone()),
                ];
                for (label, set) in sets {
                    let clean = breval_core::cleaning::clean(
                        &set,
                        &org,
                        &breval_core::CleaningConfig::default(),
                    );
                    let covered = clean
                        .labels
                        .keys()
                        .filter(|l| scenario.inferred_links.contains(l))
                        .count();
                    text.push_str(&format!(
                        "{label:<18} {:>5}  {:>8.3}\n",
                        clean.len(),
                        covered as f64 / total as f64
                    ));
                }
                emit("ablation_sources", text, None);
            }
            "verify" => {
                // Self-check: every shape claim from EXPERIMENTS.md, asserted
                // programmatically at this scenario's scale.
                let mut text = String::from(
                    "# Shape verification checklist
",
                );
                let mut ok_all = true;
                let mut check = |label: &str, ok: bool| {
                    ok_all &= ok;
                    text.push_str(&format!(
                        "[{}] {label}
",
                        if ok { "PASS" } else { "FAIL" }
                    ));
                };
                let fig1 = scenario.fig1();
                let cov = |rows: &[breval_core::coverage::ClassCoverage], class: &str| {
                    rows.iter()
                        .find(|r| r.class == class)
                        .map(|r| (r.share, r.coverage))
                        .unwrap_or((0.0, 0.0))
                };
                let (l_share, l_cov) = cov(&fig1, "L°");
                let (_, ar_cov) = cov(&fig1, "AR°");
                check(
                    "fig1: L° share > 5% with ≈0 coverage",
                    l_share > 0.05 && l_cov < 0.02,
                );
                check(
                    "fig1: AR° coverage ≫ L° coverage",
                    ar_cov > 10.0 * l_cov.max(0.005),
                );
                let fig2 = scenario.fig2();
                let (s_tr_share, s_tr_cov) = cov(&fig2, "S-TR");
                let (tr_share, tr_cov) = cov(&fig2, "TR°");
                let (_, s_t1_cov) = cov(&fig2, "S-T1");
                let (_, t1_tr_cov) = cov(&fig2, "T1-TR");
                check(
                    "fig2: majority classes hold >70% of links",
                    s_tr_share + tr_share > 0.7,
                );
                check(
                    "fig2: majority classes ≤ 0.2 coverage",
                    s_tr_cov < 0.2 && tr_cov < 0.2,
                );
                check(
                    "fig2: Tier-1 classes ≥ 0.5 coverage",
                    s_t1_cov > 0.5 && t1_tr_cov > 0.5,
                );
                let (hm_inf, hm_val) = scenario.heatmaps(HeatmapMetric::TransitDegree);
                check(
                    "fig3: inferred TR° mass concentrated bottom-left",
                    hm_inf.bottom_left_mass() > 0.7,
                );
                check(
                    "fig3: validated distribution differs (TV > 0.05)",
                    hm_inf.tv_distance(&hm_val) > 0.05,
                );
                for name in ["asrank", "problink", "toposcope"] {
                    let table = scenario.eval_table(name);
                    check(
                        &format!("{name}: P2C near-perfect (PPV_C & TPR_C > 0.9)"),
                        table.total.p2c.ppv() > 0.9 && table.total.p2c.tpr() > 0.9,
                    );
                    let s_t1_ok = table
                        .rows
                        .get("S-T1")
                        .map(|r| r.p2p.tpr() < 0.5 && r.mcc < 0.6)
                        .unwrap_or(false);
                    check(&format!("{name}: S-T1 collapses"), s_t1_ok);
                    let t1_tr_ok = table
                        .rows
                        .get("T1-TR")
                        .map(|r| table.total.mcc - r.mcc > 0.05)
                        .unwrap_or(false);
                    check(&format!("{name}: T1-TR MCC drops ≥ 0.05"), t1_tr_ok);
                }
                let report = &scenario.validation.report;
                check(
                    "cleaning: AS_TRANS artefacts present",
                    report.as_trans_dropped > 0,
                );
                check(
                    "cleaning: reserved-ASN leaks present",
                    report.reserved_dropped > 0,
                );
                check(
                    "cleaning: ambiguous entries present",
                    report.ambiguous_found > 0,
                );
                let scored = scenario.scored_in_class("asrank", "T1-TR");
                let lg = bgpsim::LookingGlass::new(&scenario.topology);
                let asrank = scenario.inference("asrank").expect("asrank always runs");
                let cs = run_case_study(
                    &scored,
                    asrank,
                    &scenario.validation,
                    &scenario.paths,
                    &lg,
                    &scenario.topology.tier1,
                );
                check(
                    "casestudy: focus is the Cogent-like Tier-1",
                    cs.focus == scenario.topology.cogent,
                );
                check(
                    "casestudy: no clique triplets on any target link",
                    cs.findings.iter().all(|f| f.clique_triplets == 0),
                );
                check(
                    "casestudy: partial transit dominates the explanations",
                    cs.partial_transit > cs.inaccurate_validation,
                );
                text.push_str(&format!(
                    "
overall: {}
",
                    if ok_all {
                        "ALL CHECKS PASS"
                    } else {
                        "SOME CHECKS FAILED"
                    }
                ));
                emit("verify_checklist", text, None);
            }
            "calibration" => {
                // UNARI-style belief calibration against the cleaned
                // validation labels: does X% certainty mean X% accuracy?
                let asrank = scenario.inference("asrank").expect("asrank always runs");
                let prep = asinfer::PreparedPaths::new(&scenario.paths, &scenario.stats)
                    .with_asrank(asrank);
                let beliefs = asinfer::Unari::new().beliefs(prep);
                let bins =
                    asinfer::unari::calibration_curve(&beliefs, &scenario.validation.labels, 10);
                write_json(&args.out, "calibration_unari", &bins);
                let mut text = String::from(
                    "# UNARI-style belief calibration vs validation labels\n                     certainty-range     links  mean-cert  accuracy\n",
                );
                for b in &bins {
                    text.push_str(&format!(
                        "[{:.2}, {:.2})    {:>8} {:>10.3} {:>9.3}\n",
                        b.lo, b.hi, b.links, b.mean_certainty, b.accuracy
                    ));
                }
                emit("calibration_unari", text, None);
            }
            "timeline" => {
                // Runs at the small scale regardless of --small: 13 full
                // simulations at paper scale would take minutes.
                let base = topogen::generate(&topogen::TopologyConfig::small(
                    scenario.config.topology.seed,
                ));
                let points = breval_core::timeline::run_timeline(
                    &base,
                    &breval_core::timeline::TimelineConfig::default(),
                );
                write_json(&args.out, "timeline_resampling", &points);
                emit(
                    "timeline_resampling",
                    breval_core::timeline::render_timeline(&points),
                    None,
                );
            }
            "ablation_666" => {
                // The 3356:666 ambiguity: how much peering coverage does a
                // conservative blackhole-aware pipeline lose?
                let mut text =
                    String::from("# Ablation: skip :666 as blackhole (§3.2 ambiguity)\n");
                for skip in [false, true] {
                    let cfg = valdata::ValDataConfig {
                        skip_666_as_blackhole: skip,
                        ..scenario.config.valdata.clone()
                    };
                    let set =
                        valdata::compile_communities(&scenario.topology, &scenario.snapshot, &cfg);
                    let p2p = set
                        .entries
                        .values()
                        .flatten()
                        .filter(|r| matches!(r.rel, asgraph::Rel::P2p))
                        .count();
                    text.push_str(&format!(
                        "skip_666={skip:<5}  links={:<6} p2p_labels={}\n",
                        set.len(),
                        p2p
                    ));
                }
                emit("ablation_666", text, None);
            }
            "ablation_legacy" => {
                // AS_TRANS census with and without the legacy decoding
                // pipeline.
                let mut text = String::from("# Ablation: legacy AS4_PATH-ignorant pipeline\n");
                for legacy in [true, false] {
                    let cfg = valdata::ValDataConfig {
                        legacy_pipeline: legacy,
                        ..scenario.config.valdata.clone()
                    };
                    let set =
                        valdata::compile_communities(&scenario.topology, &scenario.snapshot, &cfg);
                    let census = valdata::compile::label_census(&scenario.topology, &set);
                    text.push_str(&format!(
                        "legacy={legacy:<5}  total={:<6} as_trans={:<4} reserved={:<4} multi={:<4} siblings={}\n",
                        census["total_links"],
                        census["as_trans_links"],
                        census["reserved_links"],
                        census["multi_label_links"],
                        census["sibling_links"],
                    ));
                }
                emit("ablation_legacy", text, None);
            }
            // `parse_args` admits only the targets above.
            other => eprintln!("unknown target {other:?} — skipping"),
        }
    }

    if breval_obs::enabled() {
        let scenario_name = if args.small { "small" } else { "default" };
        let manifest =
            breval_obs::RunManifest::capture(scenario_name, scenario.config.topology.seed)
                .with_thread_cap(breval_par::max_threads() as u64)
                .with_config("total_ases", scenario.config.topology.total_ases())
                .with_config("targets", args.targets.len())
                .with_config("observed_links", scenario.inferred_links.len())
                .with_config("validation_raw", scenario.validation_raw.len())
                .with_config("validation_clean", scenario.validation.len());
        let manifest_path = args.out.join("run_manifest.json");
        manifest
            .write_json(&manifest_path)
            .expect("write run manifest");
        eprintln!("{}", manifest.render_table());
        eprintln!("run manifest written to {}", manifest_path.display());

        if breval_obs::journal_enabled() {
            let trace_path = args.out.join("trace.json");
            breval_obs::write_trace_json(&trace_path).expect("write trace.json");
            eprintln!("event-journal trace written to {}", trace_path.display());
        }
    }
}
