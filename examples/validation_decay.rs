//! The §7 outlook, quantified: how fast does best-effort validation data go
//! stale under topology churn, and how much extra coverage does re-sampling
//! over time buy?
//!
//! ```sh
//! cargo run --release --example validation_decay
//! cargo run --release --example validation_decay -- --steps 24
//! ```

use breval::analysis::timeline::{render_timeline, run_timeline, TimelineConfig};
use breval::topogen::{self, ChurnConfig, TopologyConfig};

#[expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example prints its report to stdout and its progress to stderr"
)]
fn main() {
    let steps = std::env::args()
        .skip_while(|a| a != "--steps")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12usize);

    let base = topogen::generate(&TopologyConfig::small(2018));
    eprintln!(
        "evolving a {}-AS topology over {} monthly steps…",
        base.as_count(),
        steps
    );

    let cfg = TimelineConfig {
        steps,
        churn: ChurnConfig::default(),
        ..TimelineConfig::default()
    };
    let points = run_timeline(&base, &cfg);
    println!("{}", render_timeline(&points));

    println!(
        "Interpretation: the paper's §3.2 staleness problem is the survival\n\
         column (WHOIS/community records describing relationships that have\n\
         since changed); the §7 re-sampling opportunity is the cumulative\n\
         column (unique links validated by the union of snapshots)."
    );

    breval::obs::write_run_manifest("validation_decay", 2018);
}
