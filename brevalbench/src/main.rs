//! `brevalbench` — run the breval benchmark, or compare two sets of runs.
//!
//! ```text
//! brevalbench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
//! brevalbench compare A/ B/ [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` without `--workload` runs every workload, each in a fresh process
//! (a re-exec of this binary). Without `--seconds` the timed phase lasts
//! `run_seconds` of the `BENCHMARK.json` in the current directory. A run
//! prints its metrics on stderr, the result JSON as the last line of stdout,
//! and writes the result file (plus `trace-*.json` when traced) under
//! `--out` (default: `brevalbench/` in the Cargo target directory). It exits
//! 1 when an output check fails.

#![forbid(unsafe_code)]

use brevalbench::compare::{self, Benchmark};
use brevalbench::trace::Recorder;
use brevalbench::{paper, scale, serve, Report, RunConfig, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

/// Exits with a labelled error instead of panicking.
fn die(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("brevalbench: {msg}");
    std::process::exit(2);
}

struct RunArgs {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
}

/// `target/release/brevalbench` → `target`.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut run = RunArgs {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        out: target_dir().join("brevalbench"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format_args!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name");
                run.workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| die(format_args!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                let seed = value("a u64");
                run.seed = Some(
                    seed.parse()
                        .unwrap_or_else(|_| die(format_args!("bad seed {seed:?}"))),
                );
            }
            "--seconds" => {
                let secs = value("a number of seconds");
                run.seconds = Some(
                    secs.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| die(format_args!("bad --seconds {secs:?}"))),
                );
            }
            "--out" => run.out = PathBuf::from(value("a directory")),
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => die(format_args!("unknown argument {other:?} (see --help)")),
        }
    }
    run
}

/// `BENCHMARK.json` at `path`, parsed.
fn benchmark(path: &Path) -> Benchmark {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format_args!("{}: {e}", path.display())));
    Benchmark::parse(&text).unwrap_or_else(|e| die(format_args!("{e}")))
}

/// Runs one workload in this process and reports it.
fn run_one(args: &RunArgs, workload: Workload) -> bool {
    // In-process work fans out over every CPU, as it does for a researcher
    // running the pipeline; the serve workloads pin themselves to one CPU
    // (see `serve`).
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    breval_par::set_max_threads(Some(nproc));
    breval_obs::set_enabled(false);
    let brevald = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("brevald")))
        .unwrap_or_else(|| PathBuf::from("brevald"));
    if matches!(workload, Workload::ServePoint | Workload::ServeBatch) && !brevald.is_file() {
        die(format_args!(
            "no brevald binary at {} (build it with `cargo build --release -p brevald` into the same target directory)",
            brevald.display()
        ));
    }
    let cfg = RunConfig {
        workload,
        seed: args.seed.unwrap_or(workload.default_seed()),
        seconds: args
            .seconds
            .unwrap_or_else(|| benchmark(Path::new("BENCHMARK.json")).run_seconds),
        trace: args.trace,
        work_dir: args.out.join(format!("tmp-{}", std::process::id())),
        brevald,
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        die(format_args!("creating {}: {e}", cfg.work_dir.display()));
    }
    eprintln!(
        "brevalbench: {} seed {}{} ({} s, thread cap {nproc})",
        workload.name(),
        cfg.seed,
        if cfg.trace { " traced" } else { "" },
        cfg.seconds
    );
    let mut rec = if cfg.trace {
        Recorder::new()
    } else {
        Recorder::off()
    };
    let report: Report = match (workload, cfg.trace) {
        (Workload::Paper, false) => paper::run(&cfg),
        (Workload::Paper, true) => paper::trace(&cfg, &mut rec),
        (Workload::Scale100k, false) => scale::run(&cfg),
        (Workload::Scale100k, true) => scale::trace(&cfg, &mut rec),
        (_, false) => serve::run(&cfg),
        (_, true) => serve::trace(&cfg, &mut rec),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);

    for (name, (value, unit)) in &report.metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    for (name, digest) in &report.digests {
        eprintln!("  digest {name} {digest:#018x}");
    }
    for failure in &report.checks.failures {
        eprintln!("  FAILED: {failure}");
    }
    eprintln!(
        "  {} of {} operations and checks failed",
        report.checks.failed, report.checks.attempted
    );
    let stem = format!(
        "{}-s{}-{}-{}",
        workload.name(),
        cfg.seed,
        if cfg.trace { "trace" } else { "timed" },
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    );
    let written = std::fs::write(
        args.out.join(format!("{stem}.json")),
        report.result_file(&cfg),
    )
    .and_then(|()| {
        if cfg.trace {
            std::fs::write(
                args.out.join(format!("trace-{stem}.json")),
                rec.chrome_trace(),
            )
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!(
            "brevalbench: writing results under {}: {e}",
            args.out.display()
        );
    }
    println!("{}", report.result_line());
    report.correct()
}

/// Runs every workload, each in a fresh process.
fn run_all(raw: &[String]) -> bool {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(format_args!("locating myself: {e}")));
    let mut all_ok = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .arg("run")
            .args(raw)
            .args(["--workload", workload.name()])
            .status()
            .unwrap_or_else(|e| die(format_args!("starting {}: {e}", workload.name())));
        all_ok &= status.success();
    }
    all_ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let raw = &args[1..];
            let run = parse_run_args(raw);
            let ok = match run.workload {
                Some(w) => run_one(&run, w),
                None => run_all(raw),
            };
            std::process::exit(if ok { 0 } else { 1 });
        }
        Some("compare") => {
            let mut dirs = Vec::new();
            let mut bench_path = PathBuf::from("BENCHMARK.json");
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                if arg == "--benchmark" {
                    bench_path = it
                        .next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die(format_args!("--benchmark needs a path")));
                } else {
                    dirs.push(PathBuf::from(arg));
                }
            }
            let [a, b] = &dirs[..] else {
                die(format_args!("compare needs two result directories"));
            };
            let bench = benchmark(&bench_path);
            let load =
                |d: &PathBuf| compare::load_results(d).unwrap_or_else(|e| die(format_args!("{e}")));
            let (report, ok) = compare::compare(&bench, &load(a), &load(b));
            print!("{report}");
            std::process::exit(if ok { 0 } else { 1 });
        }
        _ => {
            eprintln!("usage: brevalbench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]");
            eprintln!("       brevalbench compare A/ B/ [--benchmark BENCHMARK.json]");
            std::process::exit(2);
        }
    }
}
