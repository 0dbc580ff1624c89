//! The `serve_point` and `serve_batch` workloads: the real `brevald`
//! binary (`--seed 42`, 1,244 ASes) driven over its line protocol by one
//! closed-loop client thread. `brevald` runs with `BREVAL_THREADS=1`, and
//! the harness pins itself, and so every server it starts, to one CPU (see
//! [`pin_to_one_cpu`]): client and server take turns on that CPU.
//!
//! Set-up, once per [`crate::setup_seeds`] seed: start `brevald --cold`
//! (build the scenario, persist its snapshots) until its first `stats`
//! reply, quit it, then start it warm from those snapshots until its first
//! `stats` reply. The last cycle is at the run's seed, and its warm server
//! is the one measured.
//!
//! The query stream cycles over a seeded corpus of 65,536 valid queries in
//! `qpsbench`'s mix. Every reply is checked against the answer the engine
//! gives in-process over the same snapshots (`gen=` masked), and the cold
//! server's answers to the first 4,096 queries must equal the warm ones.
//!
//! * `serve_point`: one query per round trip; the item is one query. 48
//!   `reload`s are spread evenly over the timed phase; after each, a
//!   `stats` poll follows every query until the new generation shows, and
//!   the polls are left out of the item times.
//! * `serve_batch`: `batch 256` requests after 500 untimed warm-up
//!   batches; the item is one query, timed as batch time / 256.

use crate::trace::Recorder;
use crate::{stats, Checks, Report, RunConfig, Workload};
use breval_core::pipeline::ScenarioConfig;
use breval_core::snapshot::fnv1a64;
use brevald::engine::{self, format_reply, Query};
use brevald::set::SnapshotSet;
use brevald::store::SnapshotStore;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// The seed whose digests are pinned in `expected/serve_*.txt`.
pub const DEFAULT_SEED: u64 = 42;

const CORPUS: usize = 65_536;
const PROBE: usize = 4_096;
const BATCH: usize = 256;
const BATCH_WARMUP: usize = 500;
const RELOADS: usize = 48;
const RELOAD_TIMEOUT_S: f64 = 10.0;
const PUBLISHES: usize = 32;
const TRACED_REQUESTS: u64 = 64;

/// A `brevald` at the other end of a pair of pipes: the real binary, or in
/// tests an in-process `brevald::Server`.
pub struct Client {
    input: BufWriter<Box<dyn Write + Send>>,
    output: BufReader<Box<dyn Read + Send>>,
    reply: String,
    child: Option<Child>,
}

impl Client {
    /// Starts `bin --seed <seed> --dir <dir> [--cold]` with one worker thread.
    fn spawn(bin: &Path, seed: u64, dir: &Path, cold: bool) -> io::Result<Client> {
        let mut cmd = Command::new(bin);
        cmd.arg("--seed")
            .arg(seed.to_string())
            .arg("--dir")
            .arg(dir)
            .env("BREVAL_THREADS", "1")
            .env_remove("BREVAL_OBS")
            .env_remove("BREVAL_OBS_JOURNAL")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if cold {
            cmd.arg("--cold");
        }
        let mut child = cmd.spawn()?;
        let (Some(input), Some(output)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("brevald pipes missing"));
        };
        let mut client = Client::over(input, output);
        client.child = Some(child);
        Ok(client)
    }

    /// A client writing requests to `input` and reading replies from `output`.
    pub fn over(input: impl Write + Send + 'static, output: impl Read + Send + 'static) -> Client {
        Client {
            input: BufWriter::new(Box::new(input)),
            output: BufReader::new(Box::new(output)),
            reply: String::new(),
            child: None,
        }
    }

    /// Sends `text` (whole lines) and flushes.
    fn send(&mut self, text: &str) -> io::Result<()> {
        self.input.write_all(text.as_bytes())?;
        self.input.flush()
    }

    /// Reads one reply line (without its newline).
    fn read_reply(&mut self) -> io::Result<&str> {
        self.reply.clear();
        if self.output.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "brevald closed its output",
            ));
        }
        Ok(self.reply.trim_end_matches('\n'))
    }

    /// One request line, one reply line.
    fn ask(&mut self, line: &str) -> io::Result<&str> {
        self.input.write_all(line.as_bytes())?;
        self.input.write_all(b"\n")?;
        self.input.flush()?;
        self.read_reply()
    }

    /// Answers `lines` as one `batch` request.
    fn batch(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        self.send(&batch_request(lines))?;
        (0..lines.len())
            .map(|_| self.read_reply().map(str::to_owned))
            .collect()
    }

    /// The server process's `kB` status field (`VmHWM:`, `VmRSS:`); 0 for
    /// an in-process server.
    fn status_kb(&self, field: &str) -> u64 {
        self.child
            .as_ref()
            .map_or(0, |c| crate::proc_status_kb(Some(c.id()), field))
    }

    /// Sends `quit` and waits for the server process to exit.
    pub fn quit(mut self) -> io::Result<()> {
        let bye = self.ask("quit")?.to_owned();
        let status = match &mut self.child {
            Some(child) => Some(child.wait()?),
            None => None,
        };
        if bye != "ok bye" || status.is_some_and(|s| !s.success()) {
            return Err(io::Error::other(format!(
                "brevald quit with {bye:?} ({status:?})"
            )));
        }
        Ok(())
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The request text of one `batch` of `lines`.
fn batch_request(lines: &[String]) -> String {
    let mut text = format!("batch {}\n", lines.len());
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    text
}

/// `reply` with the number after `gen=` replaced by `*`: replies are a pure
/// function of (generation, query), and every generation here serves the
/// same snapshots.
#[must_use]
fn mask_gen(reply: &str) -> String {
    match reply.find("gen=") {
        Some(pos) => {
            let (head, tail) = reply.split_at(pos + 4);
            format!(
                "{head}*{}",
                tail.trim_start_matches(|c: char| c.is_ascii_digit())
            )
        }
        None => reply.to_owned(),
    }
}

fn same_reply(reply: &str, expected: &str) -> bool {
    if expected.contains("gen=") {
        mask_gen(reply) == expected
    } else {
        reply == expected
    }
}

/// The generation a `stats` reply reports.
fn generation(reply: &str) -> Option<u64> {
    let rest = reply.strip_prefix("ok stats gen=")?;
    rest.split_whitespace().next()?.parse().ok()
}

/// The corpus and the in-process engine's (masked) answers to it.
pub struct Corpus {
    /// The query lines.
    pub lines: Vec<String>,
    /// The expected reply to each line, `gen=` masked.
    pub expected: Vec<String>,
}

impl Corpus {
    /// `n` queries from `seed` over the AS population of `set`, with the
    /// set's own answers.
    #[must_use]
    pub fn build(set: &SnapshotSet, seed: u64, n: usize) -> Corpus {
        let asns: Vec<u32> = set
            .classifiers()
            .first()
            .map_or_else(Vec::new, |v| v.cones.iter().map(|(asn, _)| asn.0).collect());
        let lines = crate::query::corpus(seed, &asns, n);
        let expected = lines
            .iter()
            .map(|q| mask_gen(&engine::answer_line(set, q)))
            .collect();
        Corpus { lines, expected }
    }

    /// Digest of the expected reply stream.
    fn digest(&self) -> u64 {
        fnv1a64(self.expected.join("\n").as_bytes())
    }
}

/// Digest over every file in `dir`, by name order (names and bytes).
fn dir_digest(dir: &Path) -> u64 {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map(|it| it.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    entries.sort();
    let mut bytes = Vec::new();
    for path in entries {
        bytes.extend(
            path.file_name()
                .map_or_else(Vec::new, |n| n.as_encoded_bytes().to_vec()),
        );
        bytes.extend(std::fs::read(&path).unwrap_or_default());
    }
    fnv1a64(&bytes)
}

/// What the timed phase measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Time per item (query) of each request, µs.
    pub item_us: Vec<f64>,
    /// Time from each `reload` until a `stats` reply showed it, ms.
    pub reload_ms: Vec<f64>,
    /// Query replies read.
    pub replies: u64,
    /// Replies starting with `ok `.
    pub ok_replies: u64,
    /// Reloads refused or never visible.
    pub reload_errors: u64,
    /// The server's `VmHWM` after the timed phase, kB.
    pub hwm_kb: u64,
    /// Growth of the server's `VmRSS` over the timed phase, kB.
    pub rss_growth_kb: u64,
}

/// Set-up (see the module docs). Returns the warm server to measure, the
/// median cycle time, the corpus with the answers the last cold build's
/// snapshots give in-process, and that cold server's answers to the probe.
fn start(
    cfg: &RunConfig,
    dir: &Path,
    checks: &mut Checks,
) -> io::Result<(Client, f64, Corpus, Vec<String>)> {
    let mut samples = Vec::new();
    for seed in crate::setup_seeds(cfg.seed) {
        // Each cycle builds into an empty directory; the last one, at the
        // run's own seed, leaves the snapshots the measured server serves.
        match std::fs::remove_dir_all(dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let t = Instant::now();
        let mut cold = Client::spawn(&cfg.brevald, seed, dir, true)?;
        let first = cold.ask("stats")?.to_owned();
        let cold_s = t.elapsed().as_secs_f64();
        checks.check(first.starts_with("ok stats "), || {
            format!("cold stats reply {first:?}")
        });
        let last = if seed == cfg.seed {
            let set = SnapshotSet::load(dir, &ScenarioConfig::small(cfg.seed))
                .map_err(|e| io::Error::other(format!("loading the snapshots in-process: {e}")))?;
            let corpus = Corpus::build(&set, cfg.seed, CORPUS);
            let probe = cold.batch(&corpus.lines[..PROBE])?;
            Some((corpus, probe))
        } else {
            None
        };
        cold.quit()?;
        let t = Instant::now();
        let mut warm = Client::spawn(&cfg.brevald, seed, dir, false)?;
        let first = warm.ask("stats")?.to_owned();
        samples.push(cold_s + t.elapsed().as_secs_f64());
        checks.check(first.starts_with("ok stats "), || {
            format!("warm stats reply {first:?}")
        });
        if let Some((corpus, probe)) = last {
            return Ok((warm, stats::median(&samples), corpus, probe));
        }
        warm.quit()?;
    }
    Err(io::Error::other("no set-up cycle ran"))
}

/// Runs the timed phase of `workload` (`serve_point` or `serve_batch`)
/// against `client` for `seconds`, checking every reply against `corpus`.
pub fn drive(
    client: &mut Client,
    corpus: &Corpus,
    workload: Workload,
    seconds: f64,
    checks: &mut Checks,
) -> io::Result<Measured> {
    match workload {
        Workload::ServeBatch => batch_loop(client, corpus, seconds, checks),
        _ => point_loop(client, corpus, seconds, checks),
    }
}

/// `serve_point`'s timed phase.
fn point_loop(
    client: &mut Client,
    corpus: &Corpus,
    seconds: f64,
    checks: &mut Checks,
) -> io::Result<Measured> {
    let mut m = Measured::default();
    let rss_before = client.status_kb("VmRSS:");
    let gap = seconds / (RELOADS + 1) as f64;
    let mut next_reload = gap;
    let mut reloads = 0u64;
    let mut pending: Option<(Instant, u64)> = None;
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && pending.is_none() {
            break;
        }
        if pending.is_none() && (reloads as usize) < RELOADS && elapsed >= next_reload {
            next_reload += gap;
            let sent = Instant::now();
            let reply = client.ask("reload")?;
            if reply == "ok reload started" {
                reloads += 1;
                pending = Some((sent, reloads));
            } else {
                m.reload_errors += 1;
                checks.fail(format!("reload answered {reply:?}"));
            }
        }
        let k = i % corpus.lines.len();
        let t = Instant::now();
        let reply = client.ask(&corpus.lines[k])?;
        m.item_us.push(t.elapsed().as_secs_f64() * 1e6);
        m.replies += 1;
        m.ok_replies += u64::from(reply.starts_with("ok "));
        if !same_reply(reply, &corpus.expected[k]) {
            checks.fail(format!("query {:?} answered {reply:?}", corpus.lines[k]));
        }
        i += 1;
        if let Some((sent, target)) = pending {
            let reply = client.ask("stats")?;
            if generation(reply).is_some_and(|g| g >= target) {
                m.reload_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                pending = None;
            } else if sent.elapsed().as_secs_f64() > RELOAD_TIMEOUT_S {
                m.reload_errors += 1;
                checks.fail(format!("reload {target} never became visible"));
                pending = None;
            }
        }
    }
    checks.ops(m.replies + reloads);
    m.hwm_kb = client.status_kb("VmHWM:");
    m.rss_growth_kb = client.status_kb("VmRSS:").saturating_sub(rss_before);
    Ok(m)
}

/// `serve_batch`'s timed phase.
fn batch_loop(
    client: &mut Client,
    corpus: &Corpus,
    seconds: f64,
    checks: &mut Checks,
) -> io::Result<Measured> {
    let mut m = Measured::default();
    let windows: Vec<(usize, String)> = (0..corpus.lines.len() / BATCH)
        .map(|w| {
            (
                w * BATCH,
                batch_request(&corpus.lines[w * BATCH..(w + 1) * BATCH]),
            )
        })
        .collect();
    let mut one_batch = |client: &mut Client, j: usize, m: &mut Measured| -> io::Result<f64> {
        let (offset, request) = &windows[j % windows.len()];
        let t = Instant::now();
        client.send(request)?;
        for k in *offset..offset + BATCH {
            let reply = client.read_reply()?;
            m.ok_replies += u64::from(reply.starts_with("ok "));
            if !same_reply(reply, &corpus.expected[k]) {
                checks.fail(format!("query {:?} answered {reply:?}", corpus.lines[k]));
            }
        }
        m.replies += BATCH as u64;
        Ok(t.elapsed().as_secs_f64())
    };
    for j in 0..BATCH_WARMUP {
        one_batch(client, j, &mut m)?;
    }
    let start = Instant::now();
    let mut j = BATCH_WARMUP;
    while m.item_us.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let secs = one_batch(client, j, &mut m)?;
        m.item_us.push(secs * 1e6 / BATCH as f64);
        j += 1;
    }
    checks.ops(m.replies);
    m.hwm_kb = client.status_kb("VmHWM:");
    Ok(m)
}

/// Pins this process, every thread of it and so every process it starts
/// afterwards, to the last CPU it may run on, with `taskset`. Unpinned on a
/// 2-vCPU VM, a cross-CPU wake-up per round trip put `serve_point`'s median
/// at either ≈4 µs or ≈11 µs, depending on where the scheduler placed the
/// client and the server. Without `taskset` the run goes on unpinned.
fn pin_to_one_cpu() {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpu = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().rsplit([',', '-']).next())
        .map(str::to_owned);
    let pinned = cpu.is_some_and(|cpu| {
        Command::new("taskset")
            .args(["-a", "-p", "-c", &cpu, &std::process::id().to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    });
    if !pinned {
        eprintln!("brevalbench: note: could not pin to one CPU; round trips may be bimodal");
    }
}

/// Set-up plus the timed phase against the real server, with the output
/// checks. Returns the measurements, the set-up time and the corpus.
fn serve(cfg: &RunConfig, report: &mut Report) -> io::Result<(Measured, f64, Corpus)> {
    pin_to_one_cpu();
    let dir = cfg.work_dir.join("snapshots");
    let checks = &mut report.checks;
    let (mut client, setup_s, corpus, cold_probe) = start(cfg, &dir, checks)?;
    let expected = &corpus.expected[..PROBE];
    let cold_same = cold_probe
        .iter()
        .map(|r| mask_gen(r))
        .eq(expected.iter().cloned());
    checks.check(cold_same, || {
        "cold server answers differ from its snapshots".to_owned()
    });
    let warm_probe = client.batch(&corpus.lines[..PROBE])?;
    let warm_same = warm_probe
        .iter()
        .map(|r| mask_gen(r))
        .eq(expected.iter().cloned());
    checks.check(warm_same, || {
        "warm server answers differ from the cold server".to_owned()
    });
    let measured = drive(&mut client, &corpus, cfg.workload, cfg.seconds, checks)?;
    client.quit()?;
    let digests = vec![
        ("replies".to_owned(), corpus.digest()),
        ("snapshots".to_owned(), dir_digest(&dir)),
    ];
    report.finish_digests(cfg, digests, &[]);
    Ok((measured, setup_s, corpus))
}

/// Times the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    match serve(cfg, &mut report) {
        Ok((m, setup_s, _)) => {
            report.set("setup_s", setup_s);
            crate::set_item_metrics(&mut report, &m.item_us, m.hwm_kb);
        }
        Err(e) => report.checks.fail(format!("brevald: {e}")),
    }
    report
}

/// The traced run: the same server run for the server-side metrics, then
/// the engine's calls timed in-process over the same corpus, then the cold
/// build `brevald --cold` performs, replayed stage by stage.
pub fn trace(cfg: &RunConfig, rec: &mut Recorder) -> Report {
    let mut report = Report::per_layer();
    let (m, corpus) = match serve(cfg, &mut report) {
        Ok((m, _, corpus)) => (m, corpus),
        Err(e) => {
            report.checks.fail(format!("brevald: {e}"));
            return report;
        }
    };
    if !m.reload_ms.is_empty() {
        report.set("brevald.reload_p50_ms", stats::quantile(&m.reload_ms, 0.5));
        report.set("brevald.reload_p90_ms", stats::quantile(&m.reload_ms, 0.9));
        report.set(
            "brevald.rss_per_generation_mb",
            m.rss_growth_kb as f64 / 1024.0 / m.reload_ms.len() as f64,
        );
    }
    report.set("brevald.reload_errors", m.reload_errors as f64);
    report.set(
        "brevald.item_p90_us",
        stats::round_quantile(&m.item_us, 0.9),
    );
    report.set("brevald.item_p99_us", stats::quantile(&m.item_us, 0.99));
    report.set(
        "brevald.ok_ratio",
        m.ok_replies as f64 / m.replies.max(1) as f64,
    );

    let dir = cfg.work_dir.join("snapshots");
    let config = ScenarioConfig::small(cfg.seed);
    let group = rec.enter("engine");
    match rec.span("brevald.load", || SnapshotSet::load(&dir, &config)) {
        Ok(set) => {
            let in_process_us = profile_engine(&set, &corpus, cfg.workload, rec, &mut report);
            let served_us = stats::quantile(&m.item_us, 0.5);
            report.set(
                "brevald.transport_share",
                1.0 - in_process_us / served_us.max(1e-9),
            );
        }
        Err(e) => report.checks.fail(format!("in-process load: {e}")),
    }
    rec.exit(group);

    // At brevald's thread cap, as `brevald --cold` builds it.
    let cold_dir = cfg.work_dir.join("cold");
    let (scenario, _) = breval_par::with_thread_cap(Some(1), || {
        crate::paper::traced_pipeline(&config, cfg.seed == DEFAULT_SEED, rec, &mut report)
    });
    match rec.span("core.snapshot_save", || {
        SnapshotSet::save_all(&scenario, &cold_dir)
    }) {
        Ok(_) => {
            let bytes: u64 = std::fs::read_dir(&cold_dir)
                .map(|it| {
                    it.filter_map(Result::ok)
                        .filter_map(|e| e.metadata().ok())
                        .map(|m| m.len())
                        .sum()
                })
                .unwrap_or(0);
            report.set("core.snapshot_bytes", bytes as f64);
            report.checks.same_outputs(
                "in-process and brevald cold builds",
                &[("snapshots".to_owned(), dir_digest(&cold_dir))],
                &[("snapshots".to_owned(), dir_digest(&dir))],
                cfg.seed == DEFAULT_SEED,
                &[],
            );
        }
        Err(e) => report.checks.fail(format!("in-process snapshot save: {e}")),
    }
    report.set(
        "asgraph.ppdc_bytes",
        scenario
            .ppdc_cones_arc("asrank")
            .storage_stats()
            .hybrid_bytes as f64,
    );
    report.set_stages(rec);
    report
}

/// Times `publish`, `parse`, `eval` per kind, `format_reply` and
/// `answer_batch` in-process; returns the in-process time per item
/// (per query for `serve_point`, per batched query for `serve_batch`) in µs.
fn profile_engine(
    set: &SnapshotSet,
    corpus: &Corpus,
    workload: Workload,
    rec: &mut Recorder,
    report: &mut Report,
) -> f64 {
    let store = SnapshotStore::new(set.clone());
    let publish_us: Vec<f64> = (0..PUBLISHES)
        .map(|_| {
            let next = set.clone();
            let t = Instant::now();
            let published = store.publish(next);
            let us = t.elapsed().as_secs_f64() * 1e6;
            report
                .checks
                .check(published.is_ok(), || "publish failed".to_owned());
            us
        })
        .collect();
    report.set("brevald.publish_us", stats::median(&publish_us));

    let n = corpus.lines.len().max(1) as f64;
    let t = Instant::now();
    let parsed: Vec<Query> = corpus
        .lines
        .iter()
        .filter_map(|q| black_box(engine::parse(q)).ok())
        .collect();
    report.set("brevald.parse_ns", t.elapsed().as_secs_f64() * 1e9 / n);
    report.checks.check(parsed.len() == corpus.lines.len(), || {
        "a generated query does not parse".to_owned()
    });

    for kind in engine::QUERY_KINDS {
        let of_kind: Vec<Query> = parsed
            .iter()
            .copied()
            .filter(|q| q.kind() == kind)
            .collect();
        let t = Instant::now();
        for q in &of_kind {
            black_box(engine::eval(set, *q));
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / of_kind.len().max(1) as f64;
        report.set(&format!("brevald.eval_ns.{kind}"), ns);
    }

    let replies: Vec<_> = parsed.iter().map(|q| engine::eval(set, *q)).collect();
    let t = Instant::now();
    for r in &replies {
        black_box(format_reply(set, r));
    }
    report.set("brevald.format_ns", t.elapsed().as_secs_f64() * 1e9 / n);

    let windows = corpus.lines.len() / BATCH;
    let t = Instant::now();
    breval_par::with_thread_cap(Some(1), || {
        for w in 0..windows {
            black_box(engine::answer_batch(
                set,
                &corpus.lines[w * BATCH..(w + 1) * BATCH],
            ));
        }
    });
    let batch_us = t.elapsed().as_secs_f64() * 1e6 / windows.max(1) as f64;
    report.set("brevald.answer_batch_us", batch_us);

    for (i, q) in corpus
        .lines
        .iter()
        .take(TRACED_REQUESTS as usize)
        .enumerate()
    {
        let id = Some(i as u64);
        if let Ok(query) = rec.request_span("request.parse", id, || engine::parse(q)) {
            let reply = rec.request_span("request.eval", id, || engine::eval(set, query));
            rec.request_span("request.format", id, || format_reply(set, &reply));
        }
    }

    match workload {
        Workload::ServeBatch => batch_us / BATCH as f64,
        _ => {
            let per_query: Vec<f64> = corpus
                .lines
                .iter()
                .map(|q| {
                    let t = Instant::now();
                    black_box(engine::answer_line(set, q));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            stats::median(&per_query)
        }
    }
}
