//! Quickstart: generate a small Internet, collect routes, infer
//! relationships, and check them against ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use breval::asgraph::RelClass;
use breval::asinfer::{AsRank, Classifier};
use breval::topogen::{self, TopologyConfig};

#[expect(
    clippy::print_stdout,
    reason = "an example prints its report to stdout"
)]
fn main() {
    // 1. A seeded, Internet-like topology with ground-truth relationships.
    let config = TopologyConfig::small(42);
    let topology = topogen::generate(&config);
    println!(
        "generated {} ASes, {} links ({} Tier-1s, {} hypergiants, {} vantage points)",
        topology.as_count(),
        topology.link_count(),
        topology.tier1.len(),
        topology.hypergiants.len(),
        topology.collector_peers.len()
    );

    // 2. Propagate every announcement and record what the collector sees.
    let snapshot = breval::bgpsim::simulate(&topology);
    let paths = snapshot.to_pathset(false);
    println!("collector observed {} paths", paths.len());

    // 3. Run ASRank over the observed paths.
    let inference = AsRank::new().infer(&paths);
    println!(
        "ASRank classified {} links; inferred clique: {:?}",
        inference.len(),
        inference.clique
    );

    // 4. Score against ground truth (siblings excluded).
    let mut correct = 0usize;
    let mut total = 0usize;
    for (link, rel) in &inference.rels {
        let Some(gt) = topology.gt_rel(*link) else {
            continue;
        };
        if gt.base.class() == RelClass::S2s {
            continue;
        }
        total += 1;
        if gt.base == *rel {
            correct += 1;
        }
    }
    println!(
        "accuracy vs ground truth: {:.1}% ({correct}/{total})",
        100.0 * correct as f64 / total as f64
    );

    // 5. Peek at a disagreement — usually a partial-transit or special-stub
    //    link (the paper's §6 failure classes).
    for (link, rel) in &inference.rels {
        let Some(gt) = topology.gt_rel(*link) else {
            continue;
        };
        if gt.base.class() != RelClass::S2s && gt.base != *rel {
            println!(
                "example disagreement on {link}: inferred {rel}, ground truth {} (partial transit: {})",
                gt.base, gt.partial_transit
            );
            break;
        }
    }

    breval::obs::write_run_manifest("quickstart", 42);
}
