//! Full-pipeline determinism: identical seeds produce bit-identical analyses;
//! different seeds produce different worlds.

use breval::analysis::{Scenario, ScenarioConfig};

#[test]
fn same_seed_same_world() {
    let a = Scenario::run(ScenarioConfig::small(7));
    let b = Scenario::run(ScenarioConfig::small(7));
    assert_eq!(a.inferred_links, b.inferred_links);
    assert_eq!(a.validation.labels, b.validation.labels);
    for name in ["asrank", "problink", "toposcope"] {
        assert_eq!(
            a.inference(name).unwrap().rels,
            b.inference(name).unwrap().rels,
            "{name} inference must be deterministic"
        );
    }
    let fa = serde_json::to_string(&a.fig1()).unwrap();
    let fb = serde_json::to_string(&b.fig1()).unwrap();
    assert_eq!(fa, fb);
}

/// The work-stealing parallel layer must be invisible in the output: a
/// forced single-thread run and a forced multi-thread run of the same seed
/// must produce byte-identical route observations and identical inferences,
/// for multiple seeds.
#[test]
fn parallel_run_matches_single_thread() {
    use breval::analysis::pipeline::HeatmapMetric;
    // Fig. 1/2 coverage, heatmaps: computed while the cap is in force so
    // the newly parallel analysis stages are actually exercised at 1 vs 4
    // threads (not lazily at whatever cap is ambient later).
    let analyses = |s: &Scenario| {
        let mut out = vec![
            serde_json::to_string(&s.fig1()).unwrap(),
            serde_json::to_string(&s.fig2()).unwrap(),
        ];
        for metric in [HeatmapMetric::TransitDegree, HeatmapMetric::Ppdc] {
            out.push(serde_json::to_string(&s.heatmaps(metric)).unwrap());
        }
        out
    };
    // The dense kernels (CSR cone BFS with per-worker scratch, bitset PPDC):
    // force computation while the thread cap is in force and snapshot the
    // full (Asn, size) sequences, ordering included.
    let dense_kernels = |s: &Scenario| {
        let mut out = Vec::new();
        for name in ["asrank", "problink"] {
            out.push(s.cone_sizes_arc(name).iter().collect::<Vec<_>>());
            out.push(s.ppdc_sizes_arc(name).iter().collect::<Vec<_>>());
        }
        out
    };
    // Seed 9 has ASRank vote ties between endpoints of equal transit
    // degree, which only the lower-ASN rule decides.
    for seed in [5u64, 9, 21] {
        // `with_thread_cap` scopes + serialises the process-global cap, so
        // concurrently running tests can't observe each other's override.
        let (single, single_analyses, single_kernels) =
            breval::par::with_thread_cap(Some(1), || {
                let s = Scenario::run(ScenarioConfig::small(seed));
                let a = analyses(&s);
                let k = dense_kernels(&s);
                (s, a, k)
            });
        let (multi, multi_analyses, multi_kernels) = breval::par::with_thread_cap(Some(4), || {
            let s = Scenario::run(ScenarioConfig::small(seed));
            let a = analyses(&s);
            let k = dense_kernels(&s);
            (s, a, k)
        });

        assert_eq!(
            single.snapshot.observations, multi.snapshot.observations,
            "seed {seed}: RibSnapshot observations must be byte-identical"
        );
        for name in ["asrank", "problink", "toposcope", "gao"] {
            assert_eq!(
                single.inference(name).unwrap().rels,
                multi.inference(name).unwrap().rels,
                "seed {seed}: {name} inference must not depend on thread count"
            );
            let a = serde_json::to_string(&*single.scored_arc(name)).unwrap();
            let b = serde_json::to_string(&*multi.scored_arc(name)).unwrap();
            assert_eq!(a, b, "seed {seed}: {name} scored join must match");
        }

        // The newly parallel stages: validation compilation (chunked
        // observation decoding), coverage (chunked classification), and
        // heatmaps (chunked binning) must be byte-identical too.
        assert_eq!(
            single.validation_raw, multi.validation_raw,
            "seed {seed}: compiled validation set must not depend on thread count"
        );
        for (label, (a, b)) in ["fig1", "fig2", "heatmap_transit", "heatmap_ppdc"]
            .iter()
            .zip(single_analyses.iter().zip(&multi_analyses))
        {
            assert_eq!(
                a, b,
                "seed {seed}: {label} JSON must not depend on thread count"
            );
        }
        assert_eq!(
            single_kernels, multi_kernels,
            "seed {seed}: dense cone/PPDC sizes (values and iteration order) \
             must not depend on thread count"
        );
    }
}

#[test]
fn different_seed_different_world() {
    let a = Scenario::run(ScenarioConfig::small(7));
    let b = Scenario::run(ScenarioConfig::small(8));
    assert_ne!(a.inferred_links, b.inferred_links);
}

/// Observability must be a pure observer: enabling it may not perturb any
/// analysis output. Same seed, obs off vs on → byte-identical figure and
/// evaluation-table JSON.
#[test]
fn observability_does_not_change_outputs() {
    breval::obs::set_enabled(false);
    let off = Scenario::run(ScenarioConfig::small(11));
    let off_fig1 = serde_json::to_string(&off.fig1()).unwrap();
    let off_table = serde_json::to_string(&off.eval_table("asrank")).unwrap();

    breval::obs::set_enabled(true);
    breval::obs::reset();
    let on = Scenario::run(ScenarioConfig::small(11));
    let on_fig1 = serde_json::to_string(&on.fig1()).unwrap();
    let on_table = serde_json::to_string(&on.eval_table("asrank")).unwrap();
    breval::obs::set_enabled(false);

    assert_eq!(off_fig1, on_fig1, "fig1 JSON must not depend on BREVAL_OBS");
    assert_eq!(
        off_table, on_table,
        "eval_table JSON must not depend on BREVAL_OBS"
    );
}

/// The event journal must be a pure observer too: with obs on, toggling
/// `BREVAL_OBS_JOURNAL` may not change a single output byte — at a thread
/// cap of 1 and of 4 (the journal's per-worker buffers and span-boundary
/// allocation sampling sit directly on the pool's hot path).
#[test]
fn journal_does_not_change_outputs() {
    let run = |journal: bool, threads: usize| {
        breval::obs::set_enabled(true);
        breval::obs::set_journal_enabled(journal);
        breval::obs::reset();
        let s = breval::par::with_thread_cap(Some(threads), || {
            Scenario::run(ScenarioConfig::small(13))
        });
        breval::obs::set_journal_enabled(false);
        breval::obs::set_enabled(false);
        (
            s.snapshot.observations.clone(),
            serde_json::to_string(&s.fig1()).unwrap(),
            serde_json::to_string(&s.fig2()).unwrap(),
        )
    };
    for threads in [1usize, 4] {
        let off = run(false, threads);
        let on = run(true, threads);
        assert_eq!(
            off.0, on.0,
            "{threads} thread(s): observations must not depend on the journal"
        );
        assert_eq!(
            off.1, on.1,
            "{threads} thread(s): fig1 JSON must not depend on the journal"
        );
        assert_eq!(
            off.2, on.2,
            "{threads} thread(s): fig2 JSON must not depend on the journal"
        );
    }
    // And across thread counts, journal on: still byte-identical.
    assert_eq!(
        run(true, 1),
        run(true, 4),
        "journal-on runs must not depend on thread count"
    );
}
