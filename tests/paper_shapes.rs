//! End-to-end assertions that the paper's qualitative findings hold on the
//! simulated world: §4.2 label census, §5 bias mismatches, §6 per-class
//! correctness drops, §6.1 case study, Appendix A flatness.
//!
//! One small scenario is shared across tests (they only read it).

use breval::analysis::casestudy::{run_case_study, TargetReason};
use breval::analysis::pipeline::HeatmapMetric;
use breval::analysis::sampling::{sampling_sweep, SamplingConfig};
use breval::analysis::{Scenario, ScenarioConfig};
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| Scenario::run(ScenarioConfig::small(2018)))
}

fn coverage_of(rows: &[breval::analysis::ClassCoverage], class: &str) -> Option<(f64, f64)> {
    rows.iter()
        .find(|r| r.class == class)
        .map(|r| (r.share, r.coverage))
}

#[test]
fn fig1_lacnic_links_exist_but_are_unvalidated() {
    let rows = scenario().fig1();
    let (l_share, l_cov) = coverage_of(&rows, "L°").expect("L° class present");
    assert!(
        l_share > 0.05,
        "LACNIC-internal links should be a sizable share, got {l_share:.3}"
    );
    assert!(
        l_cov < 0.03,
        "LACNIC-internal coverage should be ≈0, got {l_cov:.3}"
    );
    let (_, ar_cov) = coverage_of(&rows, "AR°").expect("AR° class present");
    assert!(
        ar_cov > 5.0 * l_cov.max(0.01),
        "ARIN coverage ({ar_cov:.3}) must dwarf LACNIC ({l_cov:.3})"
    );
}

#[test]
fn fig1_shares_sum_to_one_and_intra_region_dominates() {
    let rows = scenario().fig1();
    let total: f64 = rows.iter().map(|r| r.share).sum();
    assert!((total - 1.0).abs() < 1e-9);
    let intra: f64 = rows
        .iter()
        .filter(|r| r.class.ends_with('°'))
        .map(|r| r.share)
        .sum();
    assert!(
        intra > 0.6,
        "most links should be region-internal (paper: ~79%), got {intra:.2}"
    );
}

#[test]
fn fig2_validation_concentrates_on_tier1_classes() {
    let rows = scenario().fig2();
    let (s_tr_share, s_tr_cov) = coverage_of(&rows, "S-TR").unwrap();
    let (tr_share, tr_cov) = coverage_of(&rows, "TR°").unwrap();
    let (_, s_t1_cov) = coverage_of(&rows, "S-T1").unwrap();
    let (_, t1_tr_cov) = coverage_of(&rows, "T1-TR").unwrap();
    // The two majority classes hold most links but little validation.
    assert!(s_tr_share + tr_share > 0.6);
    assert!(s_tr_cov < 0.35 && tr_cov < 0.4);
    // Tier-1-incident classes are heavily validated.
    assert!(
        s_t1_cov > 2.0 * s_tr_cov,
        "S-T1 {s_t1_cov:.2} vs S-TR {s_tr_cov:.2}"
    );
    assert!(
        t1_tr_cov > 2.0 * tr_cov,
        "T1-TR {t1_tr_cov:.2} vs TR° {tr_cov:.2}"
    );
}

#[test]
fn fig3_inferred_links_concentrate_on_small_transits() {
    let (inferred, validated) = scenario().heatmaps(HeatmapMetric::TransitDegree);
    assert!(inferred.links > 300);
    assert!(validated.links > 20);
    // The inferred mass concentrates between small transit ASes; the
    // validated subset is flatter (the paper's Fig. 3 mismatch).
    assert!(
        inferred.bottom_left_mass() > 0.4,
        "inferred bottom-left mass {:.2}",
        inferred.bottom_left_mass()
    );
    // At the small test scale only a few hundred TR° links exist, so the
    // distribution gap is mild; the paper-scale harness shows TV ≈ 0.15+.
    let tv = inferred.tv_distance(&validated);
    assert!(
        tv > 0.02,
        "inference and validation distributions should differ, TV={tv:.3}"
    );
}

#[test]
fn tables_p2c_is_near_perfect_for_every_classifier() {
    for name in ["asrank", "problink", "toposcope"] {
        let table = scenario().eval_table(name);
        assert!(
            table.total.p2c.tpr() > 0.9,
            "{name}: total P2C recall {:.3}",
            table.total.p2c.tpr()
        );
        // ProbLink trades some P2C precision for recall at small scale.
        assert!(
            table.total.p2c.ppv() > 0.85,
            "{name}: total P2C precision {:.3}",
            table.total.p2c.ppv()
        );
    }
}

#[test]
fn tables_s_t1_peerings_collapse() {
    for name in ["asrank", "problink", "toposcope"] {
        let table = scenario().eval_table(name);
        let Some(row) = table.rows.get("S-T1") else {
            panic!("{name}: S-T1 row missing");
        };
        // The collapse shows up as vanishing recall (the true peerings are
        // claimed as customers); precision varies by classifier.
        assert!(
            row.p2p.tpr() < 0.5,
            "{name}: S-T1 should collapse, got PPV_P {:.3} TPR_P {:.3}",
            row.p2p.ppv(),
            row.p2p.tpr()
        );
        // Paper: ASRank -0.001, TopoScope 0.041, ProbLink 0.437 — all far
        // below healthy class MCCs (> 0.85).
        assert!(row.mcc < 0.6, "{name}: S-T1 MCC {:.3}", row.mcc);
    }
}

#[test]
fn tables_t1_tr_correctness_drops_vs_total() {
    // The paper's headline: T1-TR correctness falls well below the global
    // numbers for every classifier. ASRank/TopoScope lose P2P precision
    // (partial-transit false positives); ProbLink loses recall instead —
    // either way, the class MCC craters relative to Total°.
    for name in ["asrank", "problink", "toposcope"] {
        let table = scenario().eval_table(name);
        let Some(row) = table.rows.get("T1-TR") else {
            panic!("{name}: T1-TR row missing");
        };
        let mcc_drop = table.total.mcc - row.mcc;
        // (Smaller margin at test scale; the paper-scale harness shows ≥0.09.)
        assert!(
            mcc_drop > 0.02,
            "{name}: expected an MCC drop > 0.02 on T1-TR, got {mcc_drop:.3} \
             (total {:.3}, class {:.3})",
            table.total.mcc,
            row.mcc
        );
    }
    // ASRank specifically exhibits the paper's precision drop.
    let table = scenario().eval_table("asrank");
    let row = &table.rows["T1-TR"];
    assert!(
        table.total.p2p.ppv() - row.p2p.ppv() > 0.05,
        "asrank: PPV_P should drop on T1-TR (total {:.3}, class {:.3})",
        table.total.p2p.ppv(),
        row.p2p.ppv()
    );
}

#[test]
fn cleaning_census_matches_paper_phenomena() {
    let report = &scenario().validation.report;
    assert!(report.as_trans_dropped > 0, "AS_TRANS artefacts expected");
    assert!(report.reserved_dropped > 0, "reserved-ASN leaks expected");
    assert!(report.clean_links > 0);
    assert!(report.clean_links <= report.raw_links);
}

#[test]
fn case_study_converges_on_cogent_partial_transit() {
    let s = scenario();
    let scored = s.scored_in_class("asrank", "T1-TR");
    let lg = breval::bgpsim::LookingGlass::new(&s.topology);
    let asrank = s.inference("asrank").unwrap();
    let cs = run_case_study(
        &scored,
        asrank,
        &s.validation,
        &s.paths,
        &lg,
        &s.topology.tier1,
    );
    assert_eq!(
        cs.focus, s.topology.cogent,
        "the case study must converge on the Cogent-like Tier-1"
    );
    assert!(!cs.findings.is_empty());
    // No wrongly-inferred link has the clique triplet ASRank would need.
    assert!(cs.findings.iter().all(|f| f.clique_triplets == 0));
    // The dominant explanation is partial transit (scoped export).
    assert!(
        cs.partial_transit > cs.inaccurate_validation,
        "partial transit {} vs inaccurate {}",
        cs.partial_transit,
        cs.inaccurate_validation
    );
    assert!(cs
        .findings
        .iter()
        .any(|f| f.reason == TargetReason::PartialTransit));
}

#[test]
fn appendix_a_sampling_is_flat_in_the_median() {
    let s = scenario();
    let scored = s.scored_in_class("asrank", "T1-TR");
    assert!(scored.len() > 50, "need a populated T1-TR class");
    let cfg = SamplingConfig {
        min_percent: 50,
        max_percent: 99,
        step: 7,
        trials: 30,
        seed: 7,
    };
    let points = sampling_sweep(&scored, &cfg);
    let medians: Vec<f64> = points.iter().map(|p| p.ppv_p.median).collect();
    let (lo, hi) = medians
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), m| (lo.min(*m), hi.max(*m)));
    assert!(
        hi - lo < 0.05,
        "median PPV_P should be flat across sample sizes, spread {:.3}",
        hi - lo
    );
    // Variance grows as samples shrink.
    let first = &points[0];
    let last = points.last().unwrap();
    assert!(first.ppv_p.iqr() >= last.ppv_p.iqr());
}

#[test]
fn region_classes_rely_on_registry_formats_end_to_end() {
    // The §5 classes were built through IANA + delegation text formats; spot
    // check agreement with the generator's ground truth.
    let s = scenario();
    let mut checked = 0;
    for (asn, info) in s.topology.ases.iter().take(500) {
        assert_eq!(
            s.classifier.region(*asn),
            Some(info.region),
            "{asn} region mismatch"
        );
        checked += 1;
    }
    assert_eq!(checked, 500);
}
