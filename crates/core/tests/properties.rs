//! Property tests for the analysis core: metric algebra, heatmap
//! normalisation, coverage accounting, cleaning invariants, and the hard
//! links against the hash-based pass they replaced.

use asgraph::{AsPath, Asn, Link, PathSet, PathStats, Rel, RelClass};
use breval_core::cleaning::{clean, AmbiguousPolicy, CleaningConfig};
use breval_core::hardlinks::{classify_hard_links, HardLinkConfig, HardLinkFlags};
use breval_core::heatmap::{Heatmap, HeatmapConfig};
use breval_core::metrics::{confusion, ConfusionMatrix, EvalTable, ScoredLink};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
use std::collections::{HashMap, HashSet};
use valdata::{LabelSource, ValidationSet};

/// Reference hard links: `classify_hard_links` as it ran before it moved
/// to the statistics' dense ids, with the VPs re-collected from the paths
/// and clique-pair sightings and down votes in hash containers.
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
fn classify_hard_links_hash(
    paths: &PathSet,
    stats: &PathStats,
    clique: &BTreeSet<Asn>,
    cfg: &HardLinkConfig,
) -> HashMap<Link, HardLinkFlags> {
    let vps: BTreeSet<Asn> = paths.vantage_points().into_iter().collect();
    let n_vps = vps.len().max(1);
    let band_lo = (cfg.visibility_band.0 * n_vps as f64).round() as usize;
    let band_hi = (cfg.visibility_band.1 * n_vps as f64).round() as usize;
    let mut has_clique_pair: HashSet<Link> = HashSet::new();
    let mut down_votes: HashMap<(Asn, Asn), usize> = HashMap::new();
    for (_, hops) in paths.iter() {
        let clique_pair = hops
            .windows(2)
            .any(|w| clique.contains(&w[0]) && clique.contains(&w[1]));
        let mut descending = false;
        for i in 1..hops.len() {
            let (w, u) = (hops[i - 1], hops[i]);
            if let Some(link) = Link::new(w, u) {
                if clique_pair {
                    has_clique_pair.insert(link);
                }
            }
            if !descending && clique.contains(&w) {
                descending = true;
            }
            if descending {
                if let Some(&v) = hops.get(i + 1) {
                    *down_votes.entry((u, v)).or_insert(0) += 1;
                }
            }
        }
    }
    stats
        .links()
        .iter()
        .map(|link| {
            let (a, b) = link.endpoints();
            let degree = stats.node_degree(a).min(stats.node_degree(b));
            let vis = stats.vp_count(*link);
            let a_stub = stats.transit_degree(a) == 0;
            let b_stub = stats.transit_degree(b) == 0;
            let flags = HardLinkFlags {
                low_degree: degree < cfg.degree_threshold,
                mid_visibility: vis >= band_lo && vis <= band_hi,
                remote: !vps.contains(&a)
                    && !vps.contains(&b)
                    && !clique.contains(&a)
                    && !clique.contains(&b),
                stub_without_clique_pair: (a_stub || b_stub) && !has_clique_pair.contains(link),
                conflicting_votes: down_votes.get(&(a, b)).copied().unwrap_or(0) > 0
                    && down_votes.get(&(b, a)).copied().unwrap_or(0) > 0,
            };
            (*link, flags)
        })
        .collect()
}

/// Paths over few ASes, VPs that are not always the first hop, a clique
/// over the same ASes, and thresholds that make every criterion both fire
/// and not fire.
fn arb_hard_links_input() -> impl Strategy<Value = (PathSet, BTreeSet<Asn>, HardLinkConfig)> {
    let path = (1u32..30, prop::collection::vec(1u32..30, 0..8));
    let paths = prop::collection::vec(path, 0..50);
    let clique = prop::collection::btree_set((1u32..30).prop_map(Asn), 0..5);
    let cfg =
        (0usize..8, 0.0f64..0.6, 0.0f64..0.6).prop_map(|(degree, lo, width)| HardLinkConfig {
            degree_threshold: degree,
            visibility_band: (lo, lo + width),
        });
    (paths, clique, cfg).prop_map(|(paths, clique, cfg)| {
        let mut ps = PathSet::new();
        for (vp, hops) in paths {
            ps.push(Asn(vp), AsPath::new(hops.into_iter().map(Asn).collect()));
        }
        (ps, clique, cfg)
    })
}

fn arb_rel() -> impl Strategy<Value = Rel> {
    prop_oneof![
        Just(Rel::P2p),
        Just(Rel::S2s),
        (1u32..100).prop_map(|_| Rel::P2p), // weight towards p2p
    ]
}

#[expect(
    clippy::unwrap_used,
    reason = "a strategy helper outside #[test]: the drawn endpoints are distinct by construction"
)]
fn arb_scored(n: usize) -> impl Strategy<Value = Vec<ScoredLink>> {
    prop::collection::vec(
        (
            1u32..500,
            501u32..1000,
            arb_rel(),
            arb_rel(),
            any::<bool>(),
            any::<bool>(),
        ),
        0..n,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(a, b, v, i, va, ia)| {
                let link = Link::new(Asn(a), Asn(b)).unwrap();
                let orient = |rel: Rel, flip: bool| match rel {
                    Rel::S2s if flip => Rel::P2c { provider: link.a() },
                    Rel::S2s => Rel::P2c { provider: link.b() },
                    other => other,
                };
                ScoredLink {
                    link,
                    validation: orient(v, va),
                    inferred: orient(i, ia),
                }
            })
            .collect()
    })
}

proptest! {
    /// MCC is symmetric in the positive-class choice and bounded in [-1, 1];
    /// PPV/TPR/F1/FM are in [0, 1]; the four cells always sum to the input.
    #[test]
    fn metric_bounds_and_symmetry(scored in arb_scored(60)) {
        let mp = confusion(&scored, RelClass::P2p);
        let mc = confusion(&scored, RelClass::P2c);
        prop_assert_eq!(mp.total(), scored.len());
        prop_assert_eq!(mc.total(), scored.len());
        prop_assert!((mp.mcc() - mc.mcc()).abs() < 1e-9, "MCC must not depend on the positive class");
        for m in [mp, mc] {
            prop_assert!(m.mcc() >= -1.0 - 1e-12 && m.mcc() <= 1.0 + 1e-12);
            for v in [m.ppv(), m.tpr(), m.f1(), m.fowlkes_mallows(), m.balanced_accuracy()] {
                prop_assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
            }
        }
    }

    /// A perfect inference scores 1.0 everywhere defined.
    #[test]
    fn perfect_inference_is_perfect(scored in arb_scored(60)) {
        let perfect: Vec<ScoredLink> = scored
            .iter()
            .map(|s| ScoredLink { inferred: s.validation, ..*s })
            .collect();
        let m = confusion(&perfect, RelClass::P2p);
        prop_assert_eq!(m.fp, 0);
        prop_assert_eq!(m.fn_, 0);
        if m.tp > 0 {
            prop_assert!((m.ppv() - 1.0).abs() < 1e-12);
            prop_assert!((m.tpr() - 1.0).abs() < 1e-12);
        }
        if m.tp > 0 && m.tn > 0 {
            prop_assert!((m.mcc() - 1.0).abs() < 1e-12);
        }
    }

    /// Flipping the inferred label of k distinct links (P2P to P2C and back)
    /// moves exactly k counts in each confusion matrix: a validated-positive
    /// link moves between tp and fn, a validated-negative one between fp
    /// and tn, and the total stays.
    #[test]
    fn label_flips_move_exactly_k_counts(
        scored in arb_scored(60),
        picks in prop::collection::btree_set(0usize..60, 0..20),
    ) {
        let flip: BTreeSet<usize> = picks.into_iter().filter(|&i| i < scored.len()).collect();
        let flipped: Vec<ScoredLink> = scored
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let inferred = match s.inferred {
                    _ if !flip.contains(&i) => s.inferred,
                    Rel::P2p => Rel::P2c { provider: s.link.a() },
                    _ => Rel::P2p,
                };
                ScoredLink { inferred, ..*s }
            })
            .collect();
        for positive in [RelClass::P2p, RelClass::P2c] {
            // (validated positive, inferred positive) → flipped links there.
            let mut moved: BTreeMap<(bool, bool), usize> = BTreeMap::new();
            for s in flip.iter().map(|&i| scored[i]) {
                let cell = (s.validation.class() == positive, s.inferred.class() == positive);
                *moved.entry(cell).or_default() += 1;
            }
            let n = |val: bool, inf: bool| moved.get(&(val, inf)).copied().unwrap_or(0);
            prop_assert_eq!(moved.values().sum::<usize>(), flip.len());
            let (before, after) = (confusion(&scored, positive), confusion(&flipped, positive));
            prop_assert_eq!(after.tp + n(true, true), before.tp + n(true, false));
            prop_assert_eq!(after.fn_ + n(true, false), before.fn_ + n(true, true));
            prop_assert_eq!(after.fp + n(false, true), before.fp + n(false, false));
            prop_assert_eq!(after.tn + n(false, false), before.tn + n(false, true));
            prop_assert_eq!(after.total(), before.total());
        }
    }

    /// `EvalTable::build(.., m)` keeps exactly the rows of `build(.., 0)`
    /// whose class has at least m links, each unchanged, and the same total.
    #[test]
    fn min_class_links_keeps_exactly_the_large_classes(scored in arb_scored(60)) {
        let class_of = |l: Link| Some((l.a().0 % 5).to_string());
        let mut sizes: BTreeMap<String, usize> = BTreeMap::new();
        for class in scored.iter().filter_map(|s| class_of(s.link)) {
            *sizes.entry(class).or_default() += 1;
        }
        let rows = |table: &EvalTable, min: usize| -> Vec<String> {
            table
                .rows
                .iter()
                .filter(|(class, _)| sizes.get(*class).copied().unwrap_or(0) >= min)
                .map(|(class, row)| format!("{class}: {row:?}"))
                .collect()
        };
        let full = EvalTable::build("c", &scored, class_of, 0);
        prop_assert!(full.rows.keys().eq(sizes.keys()), "every class gets a row at m = 0");
        for m in 0..=scored.len() + 1 {
            let table = EvalTable::build("c", &scored, class_of, m);
            prop_assert_eq!(rows(&table, 0), rows(&full, m), "min_class_links {}", m);
            prop_assert_eq!(format!("{:?}", table.total), format!("{:?}", full.total));
        }
    }

    /// Heatmaps are normalised distributions; TV distance is a metric-like
    /// quantity in [0, 1], zero on identical inputs.
    #[test]
    fn heatmap_normalisation(
        pairs in prop::collection::vec((1u32..2000, 2001u32..4000), 1..80),
        x_max in 10usize..200,
        y_max in 10usize..200,
    ) {
        let cfg = HeatmapConfig { x_bins: 8, y_bins: 8, x_max, y_max };
        let links: Vec<Link> = pairs
            .iter()
            .map(|(a, b)| Link::new(Asn(*a), Asn(*b)).unwrap())
            .collect();
        let hm = Heatmap::build(links.iter(), |a| a.0 as usize, cfg);
        let sum: f64 = hm.cells.iter().flatten().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(hm.tv_distance(&hm), 0.0);
        prop_assert!(hm.bottom_left_mass() >= 0.0 && hm.bottom_left_mass() <= 1.0 + 1e-12);
    }

    /// Cleaning never invents labels: every output link existed in the input,
    /// and the census adds up.
    #[test]
    fn cleaning_is_conservative(
        entries in prop::collection::vec(
            (1u32..400, 401u32..800, 0u8..4, 0u8..4),
            0..60,
        ),
        policy in prop::sample::select(vec![
            AmbiguousPolicy::Ignore,
            AmbiguousPolicy::P2pIfFirstP2p,
            AmbiguousPolicy::AlwaysP2c,
        ]),
    ) {
        let mut set = ValidationSet::new();
        for (a, b, r1, r2) in &entries {
            let link = Link::new(Asn(*a), Asn(*b)).unwrap();
            let mk = |code: u8| match code {
                0 => Rel::P2p,
                1 => Rel::P2c { provider: link.a() },
                2 => Rel::P2c { provider: link.b() },
                _ => Rel::S2s,
            };
            set.add(link, mk(*r1), LabelSource::Communities);
            set.add(link, mk(*r2), LabelSource::Rpsl);
        }
        let org = asregistry::As2Org::new();
        let cleaned = clean(&set, &org, &CleaningConfig { ambiguous: policy, drop_siblings: true });
        prop_assert!(cleaned.len() <= set.len());
        for link in cleaned.labels.keys() {
            prop_assert!(set.entries.contains_key(link), "invented link {link}");
        }
        let r = &cleaned.report;
        prop_assert_eq!(r.raw_links, set.len());
        prop_assert_eq!(r.clean_links, cleaned.len());
        // Accounting: dropped + kept == raw (no sibling/spurious links here).
        let dropped = r.ambiguous_dropped + r.as_trans_dropped + r.reserved_dropped
            + r.sibling_dropped + r.s2s_only_dropped;
        prop_assert_eq!(dropped + r.clean_links, r.raw_links);
    }

    /// The validation-set text format round-trips arbitrary label sets.
    #[test]
    fn validation_set_text_roundtrip(
        entries in prop::collection::vec((1u32..10_000, 10_001u32..20_000, 0u8..4), 0..50)
    ) {
        let mut set = ValidationSet::new();
        for (a, b, code) in &entries {
            let link = Link::new(Asn(*a), Asn(*b)).unwrap();
            let rel = match code {
                0 => Rel::P2p,
                1 => Rel::P2c { provider: link.a() },
                2 => Rel::P2c { provider: link.b() },
                _ => Rel::S2s,
            };
            set.add(link, rel, LabelSource::Communities);
        }
        let parsed = ValidationSet::parse(&set.to_text()).unwrap();
        prop_assert_eq!(set, parsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense hard-link pass flags every link as the hash oracle does.
    #[test]
    fn hard_links_match_hash_baseline((ps, clique, cfg) in arb_hard_links_input()) {
        let stats = ps.stats();
        let dense = classify_hard_links(&ps, &stats, &clique, &cfg);
        let oracle = classify_hard_links_hash(&ps, &stats, &clique, &cfg);
        prop_assert_eq!(dense.len(), oracle.len());
        for (link, flags) in &dense {
            prop_assert_eq!(flags, &oracle[link], "{}", link);
        }
    }
}

/// Degenerate confusion matrices never panic or return NaN.
#[test]
fn degenerate_matrices_are_finite() {
    for tp in [0usize, 1] {
        for fp in [0usize, 1] {
            for tn in [0usize, 1] {
                for fn_ in [0usize, 1] {
                    let m = ConfusionMatrix { tp, fp, tn, fn_ };
                    for v in [
                        m.ppv(),
                        m.tpr(),
                        m.f1(),
                        m.mcc(),
                        m.fowlkes_mallows(),
                        m.balanced_accuracy(),
                    ] {
                        assert!(v.is_finite(), "non-finite metric for {m:?}");
                    }
                }
            }
        }
    }
}
