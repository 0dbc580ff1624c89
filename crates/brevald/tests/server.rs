//! End-to-end serve-loop tests: a warm-loaded snapshot set must answer
//! every query kind byte-identically to the cold-built one, the line
//! protocol must survive malformed input, batches must match singles, and
//! `reload` + `drain` must advance the generation without disturbing the
//! transport.

use breval_core::pipeline::{Scenario, ScenarioConfig};
use brevald::server::Server;
use brevald::set::SnapshotSet;
use brevald::store::SnapshotStore;
use brevald::{engine, slices};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const SEED: u64 = 31;

fn config() -> ScenarioConfig {
    ScenarioConfig::small(SEED)
}

/// One scenario + persisted snapshot dir, shared by every test in this
/// binary (the pipeline run is the expensive part).
fn fixture() -> &'static (Scenario, PathBuf) {
    static FIXTURE: OnceLock<(Scenario, PathBuf)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join("brevald_server_test");
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = Scenario::run(config());
        let written = SnapshotSet::save_all(&scenario, &dir).expect("persist snapshots");
        assert_eq!(written, 5, "4 classifiers + 1 slice table");
        (scenario, dir)
    })
}

/// A query list covering every kind, derived from the scenario's own
/// links so the answers are non-trivial.
fn query_corpus(scenario: &Scenario) -> Vec<String> {
    let mut queries = vec!["stats".to_owned(), "slice * *".to_owned()];
    // Every region × topo label (and the unmapped bucket), plus wildcards.
    for region in (0..=slices::REGION_NONE).filter_map(slices::region_label_of) {
        queries.push(format!("slice {region} *"));
    }
    for code in [0u8, 1, 2, 3, 5, 6, 7, 10, 11, 15] {
        let topo = slices::topo_label_of(code).expect("valid code");
        queries.push(format!("slice * {topo}"));
        queries.push(format!("slice AR° {topo}"));
    }
    // Per-link and per-AS queries over a spread of real links…
    for link in scenario.inferred_links.iter().step_by(97).take(24) {
        let (a, b) = (link.a().0, link.b().0);
        queries.push(format!("class {a} {b}"));
        queries.push(format!("cone {a}"));
        queries.push(format!("member {a} {b}"));
        queries.push(format!("member {b} {a}"));
        queries.push(format!("ascov {a}"));
    }
    // …a validated link…
    if let Some(link) = scenario.validation.labels.keys().next() {
        queries.push(format!("class {} {}", link.a().0, link.b().0));
    }
    // …and ASNs the scenario never saw.
    queries.push("cone 4199999999".to_owned());
    queries.push("member 4199999999 1".to_owned());
    queries.push("ascov 4199999999".to_owned());
    queries
}

/// Runs the serve loop over an in-memory transport and returns its full
/// output.
fn serve_transcript(initial: SnapshotSet, dir: &std::path::Path, input: &[u8]) -> String {
    let store = Arc::new(SnapshotStore::new(initial));
    let mut server = Server::new(store, dir.to_path_buf(), config());
    let mut out = Vec::new();
    server
        .serve(Cursor::new(input.to_vec()), &mut out)
        .expect("in-memory transport never fails");
    String::from_utf8(out).expect("responses are UTF-8")
}

#[test]
fn warm_load_answers_every_query_kind_identically_to_cold_build() {
    let (scenario, dir) = fixture();
    let cold = SnapshotSet::from_scenario(scenario).expect("cold set");
    let warm = SnapshotSet::load(dir, &config()).expect("warm set");
    assert_eq!(warm.classifiers().len(), 4, "asrank problink toposcope gao");

    let queries = query_corpus(scenario);
    let mut interesting = 0usize;
    for q in &queries {
        let a = brevald::answer_line(&cold, q);
        let b = brevald::answer_line(&warm, q);
        assert_eq!(a, b, "cold and warm answers differ for '{q}'");
        assert!(a.starts_with("ok "), "'{q}' unexpectedly failed: {a}");
        if !a.contains("=-") && !a.ends_with("links=0 validated=0 coverage=0.000000") {
            interesting += 1;
        }
    }
    assert!(
        interesting >= queries.len() / 4,
        "too few queries hit real data ({interesting}/{}) — corpus is too synthetic",
        queries.len()
    );

    // The full serve-loop transcript is byte-identical too.
    let input = format!("{}\nquit\n", queries.join("\n"));
    let cold = SnapshotSet::from_scenario(scenario).expect("cold set");
    let warm = SnapshotSet::load(dir, &config()).expect("warm set");
    assert_eq!(
        serve_transcript(cold, dir, input.as_bytes()),
        serve_transcript(warm, dir, input.as_bytes()),
        "serve transcripts differ between warm and cold"
    );
}

#[test]
fn malformed_input_gets_err_lines_and_never_kills_the_loop() {
    let (_, dir) = fixture();
    let input = "bogus\ncone\ncone nope\nclass 5\nclass 5 5\nslice X *\n\n   \nstats\nquit\n";
    let out = serve_transcript(SnapshotSet::empty(), dir, input.as_bytes());
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 8, "6 errors + stats + bye: {out}");
    for err in &lines[..6] {
        assert!(err.starts_with("err "), "expected err line, got {err}");
    }
    assert!(
        lines[6].starts_with("ok stats "),
        "loop kept serving: {out}"
    );
    assert_eq!(lines[7], "ok bye");
}

#[test]
fn non_utf8_lines_get_one_err_line_each_and_never_kill_the_loop() {
    let (_, dir) = fixture();
    // A non-UTF-8 line at the top level (alone and after a control word)
    // and inside a batch; `\r\n` endings are stripped like `\n`.
    let input = b"stats\n\xffcone 1\nstats\nreload \xff\nbatch 3\ncone 1\n\xfe\xff\r\nstats\r\ncone 1\r\ndrain\nquit\n";
    let out = serve_transcript(SnapshotSet::empty(), dir, input);
    let lines: Vec<&str> = out.lines().collect();
    let expected = [
        "ok stats ",
        "err ",
        "ok stats ",
        "err ",
        "ok cone 1",
        "err ",
        "ok stats ",
        "ok cone 1",
        "ok drain gen=0", // the non-UTF-8 `reload` did not reload
        "ok bye",
    ];
    assert_eq!(lines.len(), expected.len(), "one reply per request: {out}");
    for (line, want) in lines.iter().zip(expected) {
        assert!(
            line.starts_with(want),
            "expected {want:?}…, got {line:?}: {out}"
        );
    }
}

/// Every single-token substitution and insertion into a real query of
/// each kind still answers exactly one line, `ok …` or `err …`.
#[test]
fn mutated_query_lines_answer_one_ok_or_err_line() {
    let (scenario, dir) = fixture();
    let warm = SnapshotSet::load(dir, &config()).expect("warm set");
    let corpus = query_corpus(scenario);
    let seeds: Vec<&String> = engine::QUERY_KINDS
        .iter()
        .filter_map(|kind| corpus.iter().find(|q| q.split(' ').next() == Some(kind)))
        .collect();
    assert_eq!(seeds.len(), engine::QUERY_KINDS.len(), "one seed per kind");
    let tokens = [
        " ",
        "*",
        "-1",
        "+5",
        "0",
        "4294967296",
        "é",
        "°",
        "\t",
        "\n",
        "\u{fffd}",
        "|",
    ];
    let mut mutants = Vec::new();
    for seed in seeds {
        let cuts: Vec<usize> = seed
            .char_indices()
            .map(|(i, _)| i)
            .chain([seed.len()])
            .collect();
        for tok in tokens {
            for &at in &cuts {
                mutants.push(format!("{}{tok}{}", &seed[..at], &seed[at..]));
            }
            for w in cuts.windows(2) {
                mutants.push(format!("{}{tok}{}", &seed[..w[0]], &seed[w[1]..]));
            }
        }
    }
    assert!(
        mutants.len() > 1_000,
        "only {} mutated lines",
        mutants.len()
    );
    for line in &mutants {
        let reply = brevald::answer_line(&warm, line);
        assert!(
            (reply.starts_with("ok ") || reply.starts_with("err ")) && !reply.contains('\n'),
            "{line:?} -> {reply:?}"
        );
    }
}

#[test]
fn batch_answers_match_single_query_answers() {
    let (scenario, dir) = fixture();
    let warm = SnapshotSet::load(dir, &config()).expect("warm set");
    let queries = query_corpus(scenario);

    let singles: Vec<String> = queries
        .iter()
        .map(|q| brevald::answer_line(&warm, q))
        .collect();
    let batch_input = format!("batch {}\n{}\nquit\n", queries.len(), queries.join("\n"));
    let out = serve_transcript(warm, dir, batch_input.as_bytes());
    let mut lines = out.lines();
    for (i, expected) in singles.iter().enumerate() {
        assert_eq!(lines.next(), Some(expected.as_str()), "batch line {i}");
    }
    assert_eq!(lines.next(), Some("ok bye"));
    assert_eq!(lines.next(), None);

    // Oversized and malformed batch headers are rejected, not honoured.
    let out = serve_transcript(
        SnapshotSet::empty(),
        dir,
        b"batch 999999999\nbatch x\nquit\n",
    );
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].starts_with("err batch larger"), "{out}");
    assert!(lines[1].starts_with("err batch needs"), "{out}");
}

#[test]
fn reload_swaps_in_a_new_generation_over_the_wire() {
    let (_, dir) = fixture();
    // Start from an empty generation 0; a reload warm-loads the persisted
    // snapshots and swaps them in as generation 1.
    let out = serve_transcript(
        SnapshotSet::empty(),
        dir,
        b"stats\nreload\ndrain\nstats\nquit\n",
    );
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines[0], "ok stats gen=0 classifiers=0 nodes=0 links=0 validated=0",
        "{out}"
    );
    assert_eq!(lines[1], "ok reload started", "{out}");
    assert_eq!(lines[2], "ok drain gen=1", "{out}");
    assert!(
        lines[3].starts_with("ok stats gen=1 classifiers=4 "),
        "generation 1 serves the warm-loaded snapshots: {out}"
    );
    assert_eq!(lines[4], "ok bye");
}

#[test]
fn reload_failure_keeps_the_old_generation_serving() {
    let (_, dir) = fixture();
    let missing = dir.join("no_such_subdir");
    let store = Arc::new(SnapshotStore::new(SnapshotSet::empty()));
    let mut server = Server::new(Arc::clone(&store), missing, config());
    let mut out = Vec::new();
    server
        .serve(
            Cursor::new(b"reload\ndrain\nstats\nquit\n".to_vec()),
            &mut out,
        )
        .expect("transport ok");
    let out = String::from_utf8(out).expect("UTF-8");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[0], "ok reload started", "{out}");
    assert_eq!(
        lines[1], "ok drain gen=0",
        "failed reload must not swap: {out}"
    );
    assert!(lines[2].starts_with("ok stats gen=0 "), "{out}");
}
