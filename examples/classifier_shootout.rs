//! Runs all four classifiers (Gao 2001, ASRank 2013, ProbLink 2019,
//! TopoScope 2020) on the same observed paths and prints per-class
//! evaluation tables against the cleaned validation data — the §6 analysis.
//!
//! ```sh
//! cargo run --release --example classifier_shootout
//! cargo run --release --example classifier_shootout -- --full
//! ```

use breval::analysis::report;
use breval::analysis::{Scenario, ScenarioConfig};

#[expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example prints its report to stdout and its progress to stderr"
)]
fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut config = if full {
        ScenarioConfig::default()
    } else {
        ScenarioConfig::small(2018)
    };
    config.include_gao = true;
    eprintln!("running scenario ({} ASes)…", config.topology.total_ases());
    let scenario = Scenario::run(config);

    for name in ["gao", "asrank", "problink", "toposcope"] {
        let table = scenario.eval_table(name);
        println!("{}", report::render_eval_table(&table));
    }

    // The paper's observation: all classifiers are near-perfect on P2C but
    // diverge sharply on the small P2P classes (S-T1, T1-TR).
    println!("headline comparison (PPV_P on T1-TR vs Total):");
    for name in ["asrank", "problink", "toposcope"] {
        let table = scenario.eval_table(name);
        let total = table.total.p2p.ppv();
        let t1tr = table.rows.get("T1-TR").map(|e| e.p2p.ppv());
        match t1tr {
            Some(v) => println!(
                "  {name:<10} total {total:.3} → T1-TR {v:.3} (Δ {:+.3})",
                v - total
            ),
            None => println!("  {name:<10} total {total:.3} → T1-TR class below row threshold"),
        }
    }

    breval::obs::write_run_manifest("classifier_shootout", scenario.config.topology.seed);
}
