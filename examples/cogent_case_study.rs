//! The §6.1 case study: why does the Cogent-like Tier-1 attract so many
//! wrongly-inferred-P2P links, and what does its looking glass reveal?
//!
//! ```sh
//! cargo run --release --example cogent_case_study
//! cargo run --release --example cogent_case_study -- --full
//! ```

use breval::analysis::casestudy::run_case_study;
use breval::analysis::report;
use breval::analysis::{Scenario, ScenarioConfig};
use breval::bgpsim::LookingGlass;

#[expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example prints its report to stdout and its progress to stderr"
)]
fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let config = if full {
        ScenarioConfig::default()
    } else {
        ScenarioConfig::small(2018)
    };
    eprintln!("running scenario ({} ASes)…", config.topology.total_ases());
    let scenario = Scenario::run(config);

    let scored = scenario.scored_in_class("asrank", "T1-TR");
    eprintln!("T1-TR class: {} scored links", scored.len());

    let lg = LookingGlass::new(&scenario.topology);
    let asrank = scenario.inference("asrank").expect("asrank always runs");
    let cs = run_case_study(
        &scored,
        asrank,
        &scenario.validation,
        &scenario.paths,
        &lg,
        &scenario.topology.tier1,
    );
    println!("{}", report::render_case_study(&cs));
    println!(
        "ground truth: the Cogent-like Tier-1 is {} — the case study should converge on it.",
        scenario.topology.cogent
    );

    // Show one looking-glass route in full, as the paper does with Cogent's
    // public looking glass.
    if let Some(finding) = cs
        .findings
        .iter()
        .find(|f| f.reason == breval::analysis::casestudy::TargetReason::PartialTransit)
    {
        if let Some(route) = lg.query(cs.focus, finding.neighbor) {
            println!(
                "\nlooking glass at {}: route to {} via {:?}",
                cs.focus, finding.neighbor, route.path
            );
            println!("communities on the received announcement:");
            for c in &route.communities {
                match c {
                    breval::bgpsim::communities::AnyCommunity::Classic(c) => {
                        println!("  {c}")
                    }
                    breval::bgpsim::communities::AnyCommunity::Large(lc) => {
                        println!("  {lc}")
                    }
                }
            }
            println!("(the …:990 tag is the partial-transit scoped-export request)");
        }
    }

    breval::obs::write_run_manifest("cogent_case_study", scenario.config.topology.seed);
}
