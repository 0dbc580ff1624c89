//! Harness tests: the metric declarations, nearest-rank quantiles, the
//! query mix, a small smoke run of every workload, and the staged replay.

use breval_core::pipeline::{Scenario, ScenarioConfig};
use brevalbench::compare::{self, Benchmark, Declared};
use brevalbench::serve::{Client, Corpus};
use brevalbench::trace::Recorder;
use brevalbench::{paper, scale, serve, stats, Checks, Report, RunConfig, Workload};
use brevald::set::SnapshotSet;
use brevald::store::SnapshotStore;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::Arc;
use xtask::json::{self, Json};

fn benchmark() -> Benchmark {
    Benchmark::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn run_config(workload: Workload, seed: u64, name: &str) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.3,
        trace: false,
        work_dir: work_dir(name),
        brevald: PathBuf::from("brevald"),
    }
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

fn end_to_end_names(report: &Report) -> Vec<&str> {
    report.metrics.keys().map(String::as_str).collect()
}

fn declared_end_to_end() -> Vec<&'static str> {
    let mut names: Vec<&str> = brevalbench::END_TO_END.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names
}

fn assert_clean(report: &Report) {
    assert!(
        report.correct(),
        "{} of {} failed: {:?}",
        report.checks.failed,
        report.checks.attempted,
        report.checks.failures
    );
}

#[test]
fn every_metric_is_declared_and_every_declared_metric_is_emitted() {
    let bench = benchmark();
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let declared_e2e: Vec<(String, String)> = bench
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let emitted_e2e: Vec<(String, String)> = brevalbench::END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(sorted(declared_e2e), sorted(emitted_e2e));

    let emitted_layer: Vec<(String, String)> = brevalbench::per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(
        sorted(bench.per_layer.clone()),
        sorted(emitted_layer.clone())
    );
    let traced: Vec<(String, String)> = Report::per_layer()
        .metrics
        .iter()
        .map(|(n, (_, u))| (n.clone(), (*u).to_owned()))
        .collect();
    assert_eq!(sorted(traced), sorted(emitted_layer.clone()));

    for (name, _) in bench.per_layer.iter().chain(&sorted(emitted_layer)) {
        assert!(valid(name), "bad metric name {name:?}");
    }
    for m in &bench.end_to_end {
        assert!(valid(&m.name), "bad metric name {:?}", m.name);
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(bench.workloads, names);
}

#[test]
fn quantiles_are_nearest_rank() {
    assert_eq!(stats::quantile(&[], 0.5), 0.0);
    let five = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(stats::quantile(&five, 0.5), 3.0);
    assert_eq!(stats::quantile(&five, 0.2), 1.0);
    assert_eq!(stats::quantile(&five, 0.21), 2.0);
    assert_eq!(stats::quantile(&five, 0.99), 5.0);
    assert_eq!(stats::quantile(&five, 1.0), 5.0);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::quantile(&hundred, 0.5), 50.0);
    assert_eq!(stats::quantile(&hundred, 0.99), 99.0);
    let eight: Vec<f64> = (1..=8).map(f64::from).collect();
    assert_eq!(stats::quartiles(&eight), (2.0, 4.0, 6.0));
    assert_eq!(stats::median(&[7.5]), 7.5);
}

#[test]
fn compare_verdicts_follow_the_bounds() {
    let m = Declared {
        name: "item_p50_us".to_owned(),
        unit: "us".to_owned(),
        lower_is_better: true,
        bound: 0.1,
    };
    let a = [10.0, 10.1, 10.2, 9.9, 10.0];
    assert_eq!(
        compare::verdict(&m, &a, &[10.5, 10.4, 10.6, 10.5, 10.5]),
        "ok"
    );
    assert_eq!(
        compare::verdict(&m, &a, &[11.5, 11.6, 11.4, 11.5, 11.7]),
        "regressed"
    );
    assert_eq!(
        compare::verdict(&m, &a, &[8.0, 12.0, 10.0, 14.0, 6.0]),
        "unresolved"
    );
    assert_eq!(
        compare::verdict(&m, &[8.0, 12.0, 10.0], &[5.0, 5.5, 5.2]),
        "ok"
    );
}

#[test]
fn every_generated_query_parses_and_answers_ok() {
    let scenario = Scenario::run(ScenarioConfig::small(42));
    let set = SnapshotSet::from_scenario(&scenario).expect("complete snapshots");
    let corpus = Corpus::build(&set, 42, 8_192);
    assert_eq!(corpus.lines.len(), 8_192);
    for (query, reply) in corpus.lines.iter().zip(&corpus.expected) {
        assert!(brevald::parse(query).is_ok(), "{query} does not parse");
        assert!(reply.starts_with("ok "), "{query} -> {reply}");
    }
    for (kind, _) in brevalbench::query::MIX {
        assert!(
            corpus
                .lines
                .iter()
                .any(|q| q.split_whitespace().next() == Some(kind)),
            "no {kind} query"
        );
    }
}

#[test]
fn paper_workload_runs_on_the_small_scenario() {
    let cfg = run_config(Workload::Paper, 7, "paper_smoke");
    let report = paper::measure(&cfg, &ScenarioConfig::small(7), ScenarioConfig::small);
    assert_clean(&report);
    assert_eq!(end_to_end_names(&report), declared_end_to_end());
    assert!(report.digests.iter().any(|(n, _)| n == "snapshot.gao"));
}

#[test]
fn scale_workload_runs_at_two_thousand_ases() {
    let cfg = run_config(Workload::Scale100k, 42, "scale_smoke");
    let report = scale::measure(&cfg, 2_000, 1_000);
    assert_clean(&report);
    assert_eq!(end_to_end_names(&report), declared_end_to_end());
}

/// Drives an in-process `brevald::Server` over `std::io::pipe()` with the
/// same client loop the serve workloads run against the binary.
fn serve_over_pipes(workload: Workload) -> serve::Measured {
    let config = ScenarioConfig::small(42);
    let scenario = Scenario::run(config.clone());
    let dir = work_dir(workload.name());
    SnapshotSet::save_all(&scenario, &dir).expect("snapshots persist");
    let set = SnapshotSet::load(&dir, &config).expect("snapshots load");
    let corpus = Corpus::build(&set, 42, 4_096);

    let (request_reader, request_writer) = std::io::pipe().expect("pipe");
    let (reply_reader, reply_writer) = std::io::pipe().expect("pipe");
    let store = Arc::new(SnapshotStore::new(set));
    let server = std::thread::spawn(move || {
        brevald::Server::new(store, dir, config).serve(BufReader::new(request_reader), reply_writer)
    });
    let mut client = Client::over(request_writer, reply_reader);
    let mut checks = Checks::default();
    let measured =
        serve::drive(&mut client, &corpus, workload, 0.5, &mut checks).expect("transport");
    client.quit().expect("server says bye");
    server.join().expect("server thread").expect("serve loop");
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    assert!(measured.ok_replies > 0 && measured.ok_replies == measured.replies);
    measured
}

#[test]
fn serve_point_workload_runs_over_pipes() {
    let m = serve_over_pipes(Workload::ServePoint);
    assert!(!m.item_us.is_empty());
    assert!(!m.reload_ms.is_empty(), "no reload became visible");
    assert_eq!(m.reload_errors, 0);
}

#[test]
fn serve_batch_workload_runs_over_pipes() {
    let m = serve_over_pipes(Workload::ServeBatch);
    assert!(!m.item_us.is_empty());
    assert_eq!(m.replies % 256, 0);
}

#[test]
fn staged_replay_equals_scenario_run_and_traces_every_stage() {
    let mut rec = Recorder::new();
    let mut report = Report::per_layer();
    let (scenario, digests) =
        paper::traced_pipeline(&ScenarioConfig::small(7), true, &mut rec, &mut report);
    assert_clean(&report);
    assert_eq!(digests, paper::scenario_digests(&scenario));
    let traced: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
    for stage in [
        "topogen.generate",
        "bgpsim.simgraph",
        "bgpsim.simulate",
        "bgpsim.to_pathset",
        "asgraph.sanitize",
        "asgraph.path_stats",
        "asinfer.asrank",
        "asinfer.problink",
        "asinfer.toposcope",
        "asinfer.gao",
        "valdata.compile",
        "core.clean",
        "asgraph.customer_cones",
        "asregistry.region_map",
        "core.link_classifier",
    ] {
        assert!(traced.contains(&stage), "no {stage} span");
    }

    let trace = json::parse(&rec.chrome_trace()).expect("trace is JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert_eq!(events.len(), rec.spans().len());
    for event in events {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert!(event.get("ts").and_then(Json::as_f64).is_some());
        assert!(event
            .get("dur")
            .and_then(Json::as_f64)
            .is_some_and(|d| d >= 0.0));
    }
}
