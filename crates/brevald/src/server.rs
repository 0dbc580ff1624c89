//! The long-lived serve loop: a line protocol over any `BufRead`/`Write`
//! pair (stdin/stdout in the binary, in-memory buffers in tests).
//!
//! # Protocol
//!
//! One request per line, one response line per request, answered in order:
//!
//! ```text
//! cone <asn>                  → ok cone <asn> <name>=<cone>/<ppdc> …
//! member <asn> <asn>          → ok member <a> <m> <name>=0|1|- …
//! class <asn> <asn>           → ok class <a> <b> <name>=<rel> … val=<rel|-> vote=<rel> agree=<v>/<t>
//! ascov <asn>                 → ok ascov <asn> links=… validated=… coverage=…
//! slice <region|*> <topo|*>   → ok slice <region> <topo> links=… validated=… coverage=…
//! stats                       → ok stats gen=… classifiers=… nodes=… links=… validated=…
//! batch <n>                   → the next n lines are queries, fanned out
//!                               over the worker pool against ONE generation
//! reload                      → ok reload started (build + swap off-thread)
//! drain                       → ok drain gen=<g> (join any pending reload)
//! quit                        → ok bye (EOF works too)
//! ```
//!
//! Malformed input gets an `err <hint>` line; the loop never panics and
//! never exits on bad input. A line that is not UTF-8 gets exactly one
//! `err` line too, inside or outside a batch. Every single query resolves
//! the store's current generation once; a batch resolves it once for the
//! *whole* batch, so a concurrent reload can never split a batch across
//! generations.

use crate::engine;
use crate::set::SnapshotSet;
use crate::store::SnapshotStore;
use breval_core::pipeline::ScenarioConfig;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Ceiling on `batch <n>` so a malformed count cannot make the loop
/// buffer unbounded input.
pub const MAX_BATCH: usize = 65_536;

/// The serve loop state: the generation store plus what a reload needs to
/// rebuild a generation (the snapshot directory and the scenario config).
pub struct Server {
    store: Arc<SnapshotStore>,
    dir: PathBuf,
    config: ScenarioConfig,
    /// The last reload thread, with the generation active when it started.
    pending_reload: Option<(JoinHandle<()>, u64)>,
}

impl Server {
    /// A server answering from `store`, reloading from `dir` for `config`.
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, dir: PathBuf, config: ScenarioConfig) -> Self {
        Server {
            store,
            dir,
            config,
            pending_reload: None,
        }
    }

    /// The shared store (tests publish into it directly).
    #[must_use]
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Kicks off an off-thread warm reload: load every snapshot part plus
    /// the slice table from disk, then publish the new generation. The
    /// serve loop (and every in-flight reader) keeps answering from the old
    /// generation until the swap lands. A failed load bumps
    /// `brevald_reload_errors` and leaves the old generation active.
    ///
    /// A reload is in progress until its generation is visible. After the
    /// swap its thread only frees the generation it replaced, so a new
    /// reload waits for that instead of being refused.
    fn start_reload(&mut self) -> Result<(), &'static str> {
        let active = self.store.current().generation();
        if let Some((handle, from)) = &self.pending_reload {
            if !handle.is_finished() && *from == active {
                return Err("reload already in progress");
            }
            self.join_reload();
        }
        let store = Arc::clone(&self.store);
        let dir = self.dir.clone();
        let config = self.config.clone();
        let handle = std::thread::Builder::new()
            .name("brevald-reload".into())
            .spawn(move || {
                let _span = breval_obs::span!("brevald_reload");
                match SnapshotSet::load(&dir, &config) {
                    Ok(set) => {
                        let _ = store.publish(set);
                    }
                    Err(_) => breval_obs::counter("brevald_reload_errors", 1),
                }
            });
        match handle {
            Ok(handle) => {
                self.pending_reload = Some((handle, active));
                Ok(())
            }
            Err(_) => Err("spawning the reload thread failed"),
        }
    }

    /// Joins any pending reload thread (completed or not).
    fn join_reload(&mut self) {
        if let Some((handle, _)) = self.pending_reload.take() {
            if handle.join().is_err() {
                breval_obs::counter("brevald_reload_errors", 1);
            }
        }
    }

    /// Runs the line protocol until EOF or `quit`. Responses go to `out`
    /// in request order; protocol errors (a non-UTF-8 line among them) are
    /// `err` lines, I/O errors on the transport itself end the loop.
    pub fn serve<R: BufRead, W: Write>(&mut self, mut input: R, mut out: W) -> io::Result<()> {
        let _span = breval_obs::span!("brevald_serve");
        let (mut request, mut query) = (Vec::new(), Vec::new());
        while read_line(&mut input, &mut request)? {
            let Ok(line) = std::str::from_utf8(&request) else {
                breval_obs::counter("brevald_queries_malformed", 1);
                writeln!(out, "err request is not UTF-8")?;
                out.flush()?;
                continue;
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let mut words = trimmed.split_whitespace();
            match words.next() {
                Some("quit") => {
                    writeln!(out, "ok bye")?;
                    break;
                }
                Some("reload") => match self.start_reload() {
                    Ok(()) => writeln!(out, "ok reload started")?,
                    Err(msg) => writeln!(out, "err {msg}")?,
                },
                Some("drain") => {
                    self.join_reload();
                    writeln!(out, "ok drain gen={}", self.store.current().generation())?;
                }
                Some("batch") => {
                    let count = words.next().and_then(|w| w.parse::<usize>().ok());
                    match count {
                        Some(n) if n <= MAX_BATCH => {
                            let mut queries = Vec::with_capacity(n);
                            // EOF mid-batch: answer what arrived. A query
                            // that is not UTF-8 decodes with U+FFFD, which
                            // no token accepts, so it answers one `err`.
                            while queries.len() < n && read_line(&mut input, &mut query)? {
                                queries.push(String::from_utf8_lossy(&query).into_owned());
                            }
                            // One generation for the whole batch.
                            let set = self.store.current();
                            for reply in engine::answer_batch(&set, &queries) {
                                writeln!(out, "{reply}")?;
                            }
                        }
                        Some(_) => writeln!(out, "err batch larger than {MAX_BATCH}")?,
                        None => writeln!(out, "err batch needs a line count")?,
                    }
                }
                _ => {
                    let set = self.store.current();
                    writeln!(out, "{}", engine::answer_line(&set, trimmed))?;
                }
            }
            out.flush()?;
        }
        self.join_reload();
        out.flush()
    }
}

/// Reads the next line into `buf` without its `\n` or `\r\n` ending, as
/// `BufRead::lines` would, but as bytes, so a line that is not UTF-8 is an
/// answerable request rather than a transport error. `false` at EOF.
fn read_line<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    if input.read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(true)
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_reload();
    }
}
