//! The `experiments` command line is checked before any work: `--help`
//! prints the usage and exits 0, a bad argument prints it to stderr and
//! exits 2, and neither runs a scenario or writes a file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty working directory of its own for one test.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "breval-experiments-cli-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch working directory");
    dir
}

fn experiments(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("start experiments")
}

fn assert_nothing_written(dir: &Path, args: &[&str]) {
    let entries = std::fs::read_dir(dir)
        .expect("read the working directory")
        .count();
    assert_eq!(
        entries, 0,
        "experiments {args:?} wrote into its working directory"
    );
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    let dir = empty_dir("help");
    for args in [&["--help"][..], &["fig1", "--help"]] {
        let out = experiments(&dir, args);
        assert_eq!(out.status.code(), Some(0), "experiments {args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: experiments"));
        assert!(!String::from_utf8_lossy(&out.stderr).contains("running scenario"));
        assert_nothing_written(&dir, args);
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}

#[test]
fn bad_arguments_exit_2_and_run_nothing() {
    let dir = empty_dir("bad");
    let cases: [&[&str]; 6] = [
        &["--bogus"],
        &["fig1", "fig99"],
        &["--seed", "x"],
        &["--small", "--seed"],
        &["--out"],
        &["fig1", "--out"],
    ];
    for args in cases {
        let out = experiments(&dir, args);
        assert_eq!(out.status.code(), Some(2), "experiments {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(!stderr.contains("running scenario"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_nothing_written(&dir, args);
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
