//! Domain-invariant sanitizer — the data-hygiene counterpart of the §4.2
//! cleaning census.
//!
//! The paper's core warning is that analysis conclusions rot silently when
//! the underlying data violates *unstated* invariants (validation links that
//! were never inferred, skewed class coverage, spurious entries). This
//! module states those invariants explicitly and checks them:
//!
//! * **graph well-formedness** — no self-loops, one relationship per link,
//!   P2C providers are link endpoints;
//! * **P2C acyclicity** — no AS is (transitively) its own provider;
//! * **path hygiene** — sanitized [`PathSet`]s contain no loops, reserved
//!   ASNs, or paths detached from their vantage point;
//! * **valley-free sanity** — simulated paths that traverse only simple
//!   (non-complex) ground-truth links obey Gao-Rexford valley-freeness;
//! * **validation ⊆ inferred** — every cleaned validation label refers to a
//!   link the pipeline actually observed (the paper's central premise);
//! * **class-partition completeness** — S/TR/T1/H assignments partition the
//!   ASes and produce only the paper's label vocabulary.
//!
//! Checks run in three places: inline at pipeline stage boundaries in debug
//! builds ([`debug_assert_clean`]), standalone over a freshly-run scenario
//! (`cargo run -p xtask -- sanitize`), and in unit tests over deliberately
//! corrupted inputs.

use crate::classes::{LinkClassifier, TopoClass};
use crate::cleaning::CleanValidation;
use crate::pipeline::Scenario;
use asgraph::{check_valley_free, has_loop, Asn, Link, PathSet, Rel};
use std::collections::{BTreeMap, BTreeSet};
use topogen::Topology;

/// One failed invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable check identifier, e.g. `self_loop`, `p2c_cycle`.
    pub check: &'static str,
    /// Human-readable description with the offending data.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Aggregated result of a sanitizer run.
#[derive(Debug, Clone, Default)]
pub struct SanitizeReport {
    /// All failed invariants.
    pub violations: Vec<Violation>,
    /// Informational `(name, value)` pairs (paths checked, links skipped…).
    pub stats: Vec<(String, String)>,
}

impl SanitizeReport {
    /// `true` if every invariant held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders a human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.stats {
            out.push_str(&format!("stat  {k} = {v}\n"));
        }
        if self.violations.is_empty() {
            out.push_str("sanitize: all invariants hold\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION {v}\n"));
            }
            out.push_str(&format!(
                "sanitize: {} violation(s)\n",
                self.violations.len()
            ));
        }
        out
    }

    fn stat(&mut self, name: &str, value: impl std::fmt::Display) {
        self.stats.push((name.to_owned(), value.to_string()));
    }
}

/// Caps repeated per-item violations so a systemic failure doesn't produce
/// an unreadable wall of output; the total is always reported.
const MAX_LISTED: usize = 5;

fn push_capped(out: &mut Vec<Violation>, listed: &mut usize, check: &'static str, detail: String) {
    if *listed < MAX_LISTED {
        out.push(Violation { check, detail });
    }
    *listed += 1;
}

fn flush_capped(out: &mut Vec<Violation>, listed: usize, check: &'static str, what: &str) {
    if listed > MAX_LISTED {
        out.push(Violation {
            check,
            detail: format!("… and {} more {what}", listed - MAX_LISTED),
        });
    }
}

/// Checks a raw relationship edge list — the representation external data
/// (CAIDA-style `a|b|rel` files, deserialized results) arrives in, *before*
/// the type system can enforce anything. Detects self-loops, conflicting
/// duplicate labels, P2C providers that are not endpoints, and P2C cycles.
#[must_use]
pub fn check_edge_list(edges: &[(Asn, Asn, Rel)]) -> Vec<Violation> {
    let mut out = check_edge_list_structure(edges);
    out.extend(check_p2c_acyclic(&p2c_edges(edges)));
    out
}

/// Structural checks only (self-loops, conflicts, off-link providers) —
/// *without* P2C acyclicity. Inferred relationship graphs are heuristic
/// output where provider cycles are an inference-error symptom, not a data
/// corruption; they get this check plus a cycle *count* in the stats.
#[must_use]
pub fn check_edge_list_structure(edges: &[(Asn, Asn, Rel)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut seen: BTreeMap<(Asn, Asn), Rel> = BTreeMap::new();
    for &(a, b, rel) in edges {
        if a == b {
            out.push(Violation {
                check: "self_loop",
                detail: format!("AS{} has a relationship with itself", a.0),
            });
            continue;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(prev) = seen.get(&key) {
            if *prev != rel {
                out.push(Violation {
                    check: "conflicting_rel",
                    detail: format!(
                        "link {}–{} labelled both {prev} and {rel}",
                        key.0 .0, key.1 .0
                    ),
                });
            }
        } else {
            seen.insert(key, rel);
        }
        if let Rel::P2c { provider } = rel {
            if provider != a && provider != b {
                out.push(Violation {
                    check: "provider_not_on_link",
                    detail: format!(
                        "provider AS{} is not an endpoint of {}–{}",
                        provider.0, a.0, b.0
                    ),
                });
            }
        }
    }
    out
}

/// Extracts the well-formed provider→customer edges.
fn p2c_edges(edges: &[(Asn, Asn, Rel)]) -> Vec<(Asn, Asn)> {
    edges
        .iter()
        .filter_map(|&(a, b, rel)| match rel {
            Rel::P2c { provider } if provider == a && a != b => Some((a, b)),
            Rel::P2c { provider } if provider == b && a != b => Some((b, a)),
            _ => None,
        })
        .collect()
}

/// The number of ASes sitting on provider cycles — zero for valid ground
/// truth; for inferred graphs, a measure of inference error.
#[must_use]
pub fn p2c_cycle_as_count(edges: &[(Asn, Asn, Rel)]) -> usize {
    p2c_cycle_residue(&p2c_edges(edges)).len()
}

/// Builds the p2c-cycle violation (if any) from the Kahn residue.
fn check_p2c_acyclic(p2c: &[(Asn, Asn)]) -> Vec<Violation> {
    let residue = p2c_cycle_residue(p2c);
    if residue.is_empty() {
        return Vec::new();
    }
    let mut sample: Vec<u32> = residue.iter().map(|a| a.0).collect();
    sample.truncate(8);
    vec![Violation {
        check: "p2c_cycle",
        detail: format!(
            "{} AS(es) sit on provider cycles (e.g. {sample:?}) — an AS would be its own \
             transitive provider",
            residue.len()
        ),
    }]
}

/// Kahn's algorithm over provider→customer edges: the residue — ASes never
/// freed of providers — are exactly those on (or strictly below) a cycle.
fn p2c_cycle_residue(p2c: &[(Asn, Asn)]) -> Vec<Asn> {
    let mut indegree: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut down: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
    for &(provider, customer) in p2c {
        *indegree.entry(customer).or_insert(0) += 1;
        indegree.entry(provider).or_insert(0);
        down.entry(provider).or_default().push(customer);
    }
    let mut queue: Vec<Asn> = indegree
        .iter()
        .filter(|(_, d)| **d == 0)
        .map(|(a, _)| *a)
        .collect();
    while let Some(a) = queue.pop() {
        for c in down.get(&a).map(Vec::as_slice).unwrap_or(&[]) {
            let d = indegree
                .get_mut(c)
                .expect("every customer was given an indegree entry");
            *d -= 1;
            if *d == 0 {
                queue.push(*c);
            }
        }
    }
    indegree
        .into_iter()
        .filter(|(_, d)| *d > 0)
        .map(|(a, _)| a)
        .collect()
}

/// Checks the topology's ground truth: the edge-list invariants, provider
/// acyclicity included, over its base relationships.
#[must_use]
pub fn check_ground_truth(topo: &Topology) -> Vec<Violation> {
    let edges: Vec<(Asn, Asn, Rel)> = topo
        .links
        .iter()
        .map(|(l, gt)| (l.a(), l.b(), gt.base))
        .collect();
    check_edge_list(&edges)
}

/// Checks the hygiene invariants a sanitized [`PathSet`] must satisfy: no
/// loops, no reserved ASNs, and every path starts at its vantage point.
#[must_use]
pub fn check_pathset(ps: &PathSet) -> Vec<Violation> {
    let mut out = Vec::new();
    let (mut loops, mut reserved, mut detached) = (0usize, 0usize, 0usize);
    for (vp, hops) in ps.iter() {
        if has_loop(hops) {
            push_capped(
                &mut out,
                &mut loops,
                "path_loop",
                format!("path {hops:?} revisits an AS"),
            );
        }
        if hops.iter().any(|a| a.is_reserved()) {
            push_capped(
                &mut out,
                &mut reserved,
                "path_reserved",
                format!("path {hops:?} traverses a reserved ASN"),
            );
        }
        if hops.first() != Some(&vp) {
            push_capped(
                &mut out,
                &mut detached,
                "path_detached_vp",
                format!("path {hops:?} does not start at its VP AS{}", vp.0),
            );
        }
    }
    flush_capped(&mut out, loops, "path_loop", "looping paths");
    flush_capped(&mut out, reserved, "path_reserved", "reserved-ASN paths");
    flush_capped(&mut out, detached, "path_detached_vp", "detached paths");
    out
}

/// Valley-free sanity of simulated paths against the ground truth.
///
/// Gao-Rexford propagation over *simple* relationships provably yields
/// valley-free paths, so any violation on a path whose links are all simple
/// is a pipeline bug. Paths touching complex links (partial transit, hybrid
/// PoPs) may legitimately look valley-violating — that observability gap is
/// part of the paper's argument — so they are only counted, not flagged.
#[must_use]
pub fn check_valley(ps: &PathSet, topo: &Topology) -> (Vec<Violation>, BTreeMap<String, usize>) {
    let mut out = Vec::new();
    let mut stats: BTreeMap<String, usize> = BTreeMap::new();
    let complex: BTreeSet<Link> = topo.complex_links().into_iter().collect();
    let mut flagged = 0usize;
    for (_, hops) in ps.iter() {
        let mut links = hops.windows(2).filter_map(|w| Link::new(w[0], w[1]));
        if links.any(|l| complex.contains(&l)) {
            *stats.entry("valley_skipped_complex".into()).or_insert(0) += 1;
            continue;
        }
        match check_valley_free(|link| topo.gt_rel(link).map(|gt| gt.base), hops) {
            Ok(()) => *stats.entry("valley_free".into()).or_insert(0) += 1,
            Err(v) => {
                push_capped(
                    &mut out,
                    &mut flagged,
                    "valley_violation",
                    format!("simple-link path {hops:?} is not valley-free: {v}"),
                );
                *stats.entry("valley_violations".into()).or_insert(0) += 1;
            }
        }
    }
    flush_capped(&mut out, flagged, "valley_violation", "valley violations");
    (out, stats)
}

/// The paper's central premise: validation data can only validate links the
/// pipeline inferred. Any cleaned label outside the inferred link set means
/// the join silently shrinks and coverage numbers lie.
#[must_use]
pub fn check_validation_subset(
    validation: &CleanValidation,
    inferred: &BTreeSet<Link>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut missing = 0usize;
    for link in validation.labels.keys() {
        if !inferred.contains(link) {
            push_capped(
                &mut out,
                &mut missing,
                "validation_not_inferred",
                format!("validated link {link} was never inferred"),
            );
        }
    }
    flush_capped(
        &mut out,
        missing,
        "validation_not_inferred",
        "unmatched labels",
    );
    out
}

/// The topological classes must partition the ASes: the Tier-1 and
/// hypergiant refinement lists may not overlap (an AS in both would silently
/// classify as T1, skewing H-class coverage), every endpoint must classify,
/// and link labels must stay within the paper's vocabulary.
#[must_use]
pub fn check_class_partition(
    classifier: &LinkClassifier,
    links: &BTreeSet<Link>,
    tier1: &BTreeSet<Asn>,
    hypergiants: &BTreeSet<Asn>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let overlap: Vec<u32> = tier1.intersection(hypergiants).map(|a| a.0).collect();
    if !overlap.is_empty() {
        out.push(Violation {
            check: "class_overlap",
            detail: format!("ASes in both the Tier-1 and hypergiant lists: {overlap:?}"),
        });
    }
    // Valid pair labels, ordered H < S < T1 < TR as the classifier emits.
    let classes = [TopoClass::H, TopoClass::S, TopoClass::T1, TopoClass::TR];
    let mut vocab: BTreeSet<String> = BTreeSet::new();
    for (i, x) in classes.iter().enumerate() {
        vocab.insert(format!("{}°", x.label()));
        for y in &classes[i + 1..] {
            vocab.insert(format!("{}-{}", x.label(), y.label()));
        }
    }
    let mut bad_labels = 0usize;
    let mut counts: BTreeMap<TopoClass, usize> = BTreeMap::new();
    let mut seen: BTreeSet<Asn> = BTreeSet::new();
    for link in links {
        for asn in [link.a(), link.b()] {
            if seen.insert(asn) {
                *counts.entry(classifier.node_class(asn)).or_insert(0) += 1;
            }
        }
        let label = classifier.topo_class(*link);
        if !vocab.contains(&label) {
            push_capped(
                &mut out,
                &mut bad_labels,
                "class_label_vocabulary",
                format!("link {link} got out-of-vocabulary class label {label:?}"),
            );
        }
    }
    flush_capped(&mut out, bad_labels, "class_label_vocabulary", "bad labels");
    let classified: usize = counts.values().sum();
    if classified != seen.len() {
        out.push(Violation {
            check: "class_partition_incomplete",
            detail: format!("{} ASes seen but {} classified", seen.len(), classified),
        });
    }
    out
}

/// Runs every check over a materialised [`Scenario`] — the standalone entry
/// point behind `cargo run -p xtask -- sanitize`.
#[must_use]
pub fn sanitize_scenario(scenario: &Scenario) -> SanitizeReport {
    let _span = breval_obs::span!("sanitize_scenario");
    let mut report = SanitizeReport::default();

    // Ground-truth graph well-formedness + acyclicity.
    report
        .violations
        .extend(check_ground_truth(&scenario.topology));
    report.stat("ground_truth_links", scenario.topology.link_count());

    // Sanitized path hygiene + valley-free sanity.
    report.violations.extend(check_pathset(&scenario.paths));
    let (valley, valley_stats) = check_valley(&scenario.paths, &scenario.topology);
    report.violations.extend(valley);
    for (k, v) in valley_stats {
        report.stat(&k, v);
    }
    report.stat("paths_checked", scenario.paths.len());

    // Every inferred relationship graph must be structurally well-formed.
    // Provider *cycles* in heuristic output are an inference-error symptom,
    // not corruption — surfaced as a stat rather than a violation.
    for (name, inference) in &scenario.inferences {
        let edges: Vec<(Asn, Asn, Rel)> = inference
            .rels
            .iter()
            .map(|(l, r)| (l.a(), l.b(), *r))
            .collect();
        let before = report.violations.len();
        report.violations.extend(check_edge_list_structure(&edges));
        if report.violations.len() == before {
            report.stat(&format!("inferred_graph_ok.{name}"), edges.len());
        }
        report.stat(
            &format!("inferred_p2c_cycle_ases.{name}"),
            p2c_cycle_as_count(&edges),
        );
    }

    // Validation ⊆ inferred, class partition.
    report.violations.extend(check_validation_subset(
        &scenario.validation,
        &scenario.inferred_links,
    ));
    report.stat("validation_labels", scenario.validation.len());
    report.violations.extend(check_class_partition(
        &scenario.classifier,
        &scenario.inferred_links,
        &scenario.topology.tier1,
        &scenario.topology.hypergiants,
    ));
    report.stat("inferred_links", scenario.inferred_links.len());

    breval_obs::counter("sanitize_violations", report.violations.len() as u64);
    report
}

/// Debug-build assertion used at pipeline stage boundaries: panics with the
/// full violation list if any invariant failed. Compiled to nothing in
/// release builds, so production throughput is unaffected.
pub fn debug_assert_clean(stage: &str, violations: &[Violation]) {
    if cfg!(debug_assertions) && !violations.is_empty() {
        let list: Vec<String> = violations.iter().map(ToString::to_string).collect();
        // breval-lint: allow(L009) -- debug-build sanitizer abort by design; compiled out in release
        panic!(
            "sanitize failed at stage `{stage}` with {} violation(s):\n{}",
            violations.len(),
            list.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asn(x: u32) -> Asn {
        Asn(x)
    }

    fn p2c(p: u32) -> Rel {
        Rel::P2c { provider: Asn(p) }
    }

    #[test]
    fn corrupted_graph_reports_self_loop_and_cycle() {
        // Seeded corruption: AS7 peers with itself, and 1→2→3→1 is a
        // provider cycle. Both must be detected in one pass.
        let edges = vec![
            (asn(7), asn(7), Rel::P2p),
            (asn(1), asn(2), p2c(1)),
            (asn(2), asn(3), p2c(2)),
            (asn(3), asn(1), p2c(3)),
            (asn(1), asn(9), p2c(1)), // innocent bystander
        ];
        let violations = check_edge_list(&edges);
        let checks: Vec<&str> = violations.iter().map(|v| v.check).collect();
        assert!(checks.contains(&"self_loop"), "violations: {violations:?}");
        assert!(checks.contains(&"p2c_cycle"), "violations: {violations:?}");
        assert_eq!(checks.len(), 2, "no spurious findings: {violations:?}");
    }

    #[test]
    fn conflicting_and_offlink_providers_detected() {
        let edges = vec![
            (asn(1), asn(2), p2c(1)),
            (asn(2), asn(1), p2c(2)), // same link, reversed orientation
            (asn(3), asn(4), p2c(9)), // provider not on link
        ];
        let checks: Vec<&str> = check_edge_list(&edges).iter().map(|v| v.check).collect();
        assert!(checks.contains(&"conflicting_rel"));
        assert!(checks.contains(&"provider_not_on_link"));
    }

    #[test]
    fn clean_edge_list_passes() {
        let edges = vec![
            (asn(1), asn(2), p2c(1)),
            (asn(2), asn(3), p2c(2)),
            (asn(1), asn(3), Rel::P2p),
        ];
        assert!(check_edge_list(&edges).is_empty());
    }

    #[test]
    fn pathset_hygiene_detects_loops_reserved_and_detached() {
        let mut ps = PathSet::new();
        let path = |hops: &[u32]| asgraph::AsPath::new(hops.iter().map(|&h| Asn(h)).collect());
        ps.push(asn(1), path(&[1, 2, 3, 2])); // loop
        ps.push(asn(1), path(&[1, 64512, 3])); // reserved
        ps.push(asn(9), path(&[1, 2, 3])); // head ≠ vp
        let checks: Vec<&str> = check_pathset(&ps).iter().map(|v| v.check).collect();
        assert!(checks.contains(&"path_loop"));
        assert!(checks.contains(&"path_reserved"));
        assert!(checks.contains(&"path_detached_vp"));
    }

    #[test]
    fn validation_subset_flags_unknown_links() {
        let mut validation = CleanValidation::default();
        let known = Link::new(asn(1), asn(2)).expect("distinct");
        let unknown = Link::new(asn(8), asn(9)).expect("distinct");
        validation.labels.insert(known, Rel::P2p);
        validation.labels.insert(unknown, Rel::P2p);
        let inferred: BTreeSet<Link> = [known].into_iter().collect();
        let v = check_validation_subset(&validation, &inferred);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "validation_not_inferred");
        assert!(v[0].detail.contains('8') && v[0].detail.contains('9'));
    }
}
