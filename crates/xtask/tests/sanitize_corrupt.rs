//! The domain sanitizer must catch deliberately corrupted relationship data
//! while passing well-formed ground truth.

use asgraph::{Asn, GtRel, Rel};
use breval_core::sanitize::{check_edge_list, check_ground_truth};

fn p2c(p: u32) -> Rel {
    Rel::P2c { provider: Asn(p) }
}

#[test]
fn seeded_self_loop_and_p2c_cycle_are_both_detected() {
    // A corrupted graph: AS7 "peers with itself", and AS1→AS2→AS3→AS1 form
    // a provider cycle (each provides transit to the next).
    let corrupted = vec![
        (Asn(7), Asn(7), Rel::P2p),
        (Asn(1), Asn(2), p2c(1)),
        (Asn(2), Asn(3), p2c(2)),
        (Asn(3), Asn(1), p2c(3)),
        (Asn(4), Asn(1), p2c(1)), // a legitimate customer hanging off the cycle
        (Asn(4), Asn(5), Rel::P2p),
    ];
    let violations = check_edge_list(&corrupted);
    let checks: Vec<&str> = violations.iter().map(|v| v.check).collect();
    assert!(
        checks.contains(&"self_loop"),
        "self-loop must be detected: {violations:?}"
    );
    assert!(
        checks.contains(&"p2c_cycle"),
        "p2c cycle must be detected: {violations:?}"
    );
    assert_eq!(checks.len(), 2, "no spurious findings: {violations:?}");
}

#[test]
fn generated_ground_truth_passes_clean() {
    // The real pipeline's ground truth must sail through the same checks.
    let config = topogen::TopologyConfig::small(7);
    let mut topology = topogen::generate(&config);
    let violations = check_ground_truth(&topology);
    assert!(
        violations.is_empty(),
        "generated ground truth must be clean: {violations:?}"
    );
    // One label naming a provider off its link must not slip through.
    let (&link, _) = topology.links.iter().next().expect("links generated");
    let off_link = Rel::P2c {
        provider: Asn(u32::MAX),
    };
    topology.links.insert(link, GtRel::simple(off_link));
    let checks: Vec<&str> = check_ground_truth(&topology)
        .iter()
        .map(|v| v.check)
        .collect();
    assert_eq!(checks, ["provider_not_on_link"]);
}
