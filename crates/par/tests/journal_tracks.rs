//! The event journal keeps one track per worker slot: each call above a
//! cap of 1 starts its own worker threads, and a worker that exits hands
//! its buffer to the next thread of its name, so repeated calls append to
//! one `pool-worker-1` track instead of adding a track per call.
//!
//! The journal is process-global, so this file holds a single test.

#[test]
fn repeated_calls_share_one_track_per_worker_slot() {
    breval_obs::set_enabled(true);
    breval_obs::set_journal_enabled(true);
    breval_obs::reset();
    breval_par::with_thread_cap(Some(2), || {
        for _ in 0..20 {
            assert_eq!(
                breval_par::parallel_map(8, |i| i),
                (0..8).collect::<Vec<_>>()
            );
        }
    });
    let trace = breval_obs::trace_json();
    breval_obs::set_journal_enabled(false);
    breval_obs::set_enabled(false);

    // One `"M"` event names each track: `…"tid":<n>,"name":"thread_name",
    // "args":{"name":"<thread>"}}`.
    let tids: Vec<&str> = trace
        .lines()
        .filter(|line| line.contains(r#""args":{"name":"pool-worker-1"}"#))
        .filter_map(|line| line.split(r#""tid":"#).nth(1)?.split(',').next())
        .collect();
    assert_eq!(tids.len(), 1, "pool-worker-1 tracks: {tids:?}");
    let tid = format!(r#""tid":{},"#, tids[0]);
    let slices = trace
        .lines()
        .filter(|line| line.contains(&tid) && line.contains(r#""name":"pool_worker""#))
        .count();
    assert_eq!(slices, 20, "pool_worker slices on the pool-worker-1 track");
}
