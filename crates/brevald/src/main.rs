//! `brevald` — the long-lived snapshot query server.
//!
//! ```text
//! brevald [--seed N] [--dir PATH] [--cold]
//! ```
//!
//! Startup warm-loads every classifier snapshot plus the slice table from
//! `--dir` (written by a previous run or by `Scenario::save_snapshot`).
//! If the warm load fails — first run, stale key, corrupt file — the
//! server cold-builds the scenario, persists it to `--dir` so the *next*
//! start is warm, and serves from the fresh build. `--cold` forces that
//! path. Queries arrive on stdin, one per line; responses leave on stdout
//! (see `brevald::server` for the grammar). Diagnostics go to stderr.

#![expect(
    clippy::print_stderr,
    reason = "the server writes its diagnostics to stderr; stdout carries replies"
)]

use breval_core::pipeline::{Scenario, ScenarioConfig};
use brevald::server::Server;
use brevald::set::SnapshotSet;
use brevald::store::SnapshotStore;
use std::path::PathBuf;
use std::sync::Arc;

/// Aborts with a labelled error instead of panicking (the server binary
/// is a deepcheck entry point, so its failure path must be panic-free).
fn die(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("brevald: {msg}");
    std::process::exit(1);
}

struct Options {
    seed: u64,
    dir: PathBuf,
    cold: bool,
}

fn parse_args() -> Options {
    let mut options = Options {
        seed: 42,
        dir: std::env::temp_dir().join("brevald-snapshots"),
        cold: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die(format_args!("--seed needs a u64")));
            }
            "--dir" => {
                options.dir = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die(format_args!("--dir needs a path")));
            }
            "--cold" => options.cold = true,
            "--help" | "-h" => {
                eprintln!("usage: brevald [--seed N] [--dir PATH] [--cold]");
                std::process::exit(0);
            }
            other => die(format_args!("unknown argument '{other}' (try --help)")),
        }
    }
    options
}

fn main() {
    let options = parse_args();
    let config = ScenarioConfig::small(options.seed);

    let warm = if options.cold {
        None
    } else {
        SnapshotSet::load(&options.dir, &config).ok()
    };
    let initial = match warm {
        Some(set) => {
            eprintln!(
                "brevald: warm start from {} (seed {})",
                options.dir.display(),
                options.seed
            );
            set
        }
        None => {
            eprintln!(
                "brevald: cold build (seed {}), persisting to {}…",
                options.seed,
                options.dir.display()
            );
            let scenario = Scenario::run(config.clone());
            match SnapshotSet::save_all(&scenario, &options.dir) {
                Ok(written) => eprintln!("brevald: wrote {written} snapshot files"),
                Err(e) => eprintln!("brevald: persisting snapshots failed: {e} (serving anyway)"),
            }
            SnapshotSet::from_scenario(&scenario)
                .unwrap_or_else(|e| die(format_args!("building the query set failed: {e}")))
        }
    };

    let store = Arc::new(SnapshotStore::new(initial));
    let mut server = Server::new(store, options.dir, config);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = server.serve(stdin.lock(), stdout.lock()) {
        die(format_args!("transport error: {e}"));
    }
}
