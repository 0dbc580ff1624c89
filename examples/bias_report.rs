//! Reproduces the paper's bias analysis (§5) on one scenario: regional and
//! topological link shares vs validation coverage, the §4.2 cleaning census,
//! and the transit-degree heatmap summary.
//!
//! ```sh
//! cargo run --release --example bias_report            # small scenario
//! cargo run --release --example bias_report -- --full  # paper-scale (~20 s)
//! ```

use breval::analysis::pipeline::HeatmapMetric;
use breval::analysis::report;
use breval::analysis::{Scenario, ScenarioConfig};

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

    println!("{}", report::render_cleaning(&scenario.validation.report));
    println!(
        "{}",
        report::render_coverage(&scenario.fig1(), "Fig. 1 — regional imbalance")
    );
    println!(
        "{}",
        report::render_coverage(&scenario.fig2(), "Fig. 2 — topological imbalance")
    );

    let (inferred, validated) = scenario.heatmaps(HeatmapMetric::TransitDegree);
    println!(
        "{}",
        report::render_heatmap_pair(
            &inferred,
            &validated,
            "Fig. 3 — transit-degree imbalance for TR° links"
        )
    );

    // The paper's headline: LACNIC-internal links are a sizable share of the
    // topology yet essentially absent from validation.
    if let Some(l) = scenario.fig1().iter().find(|r| r.class == "L°") {
        println!(
            "L° holds {:.0}% of inferred links but only {:.1}% validation coverage.",
            100.0 * l.share,
            100.0 * l.coverage
        );
    }

    breval::obs::write_run_manifest("bias_report", scenario.config.topology.seed);
}
