//! Concurrent read-during-reload stress: readers racing a publisher must
//! never observe a torn generation — within one generation every reply is
//! byte-identical, across threads and across thread caps.

use breval_core::snapshot::{build_snapshot, ScenarioSnapshot, SnapshotKey};
use brevald::set::{ClassifierView, SnapshotSet};
use brevald::slices::SliceTable;
use brevald::store::SnapshotStore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cheap one-classifier set whose answers depend on `tag`: a provider
/// chain `1 → 2 → … → tag+3`, so `cone 1` reports a cone of `tag + 3`.
/// Round-tripping through the codec materialises every snapshot part.
fn tiny_set(tag: u32) -> SnapshotSet {
    let rels: BTreeMap<_, _> = (1..=(tag + 2))
        .map(|i| {
            let link = asgraph::Link::new(asgraph::Asn(i), asgraph::Asn(i + 1)).expect("distinct");
            let rel = asgraph::Rel::P2c {
                provider: asgraph::Asn(i),
            };
            (link, rel)
        })
        .collect();
    let snap = build_snapshot("asrank", &rels);
    let key = SnapshotKey {
        config_hash: u64::from(tag),
        seed: 0,
        name: "asrank".to_owned(),
    };
    let (_, full) = ScenarioSnapshot::from_bytes(&snap.to_bytes(&key)).expect("round trip");
    let view = ClassifierView::resolve(&full).expect("codec materialises every part");
    SnapshotSet::new(vec![view], &SliceTable::empty())
}

const PROBES: [&str; 4] = ["cone 1", "member 1 3", "class 1 2", "ascov 1"];

/// The serial ground truth: what generation `tag` answers for the probes.
fn truth(tag: u32) -> Vec<String> {
    let set = tiny_set(tag);
    PROBES
        .iter()
        .map(|q| brevald::answer_line(&set, q))
        .collect()
}

#[test]
fn concurrent_readers_see_consistent_generations_during_reloads() {
    const GENERATIONS: u32 = 24;
    const READERS: usize = 4;

    let store = Arc::new(SnapshotStore::new(tiny_set(0)));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen: BTreeMap<u64, Vec<String>> = BTreeMap::new();
                while !stop.load(Ordering::Relaxed) {
                    // One resolve per iteration: every probe in this round
                    // answers against the same immutable generation.
                    let set = store.current();
                    let replies: Vec<String> = PROBES
                        .iter()
                        .map(|q| brevald::answer_line(&set, q))
                        .collect();
                    match seen.get(&set.generation()) {
                        None => {
                            seen.insert(set.generation(), replies);
                        }
                        Some(prev) => assert_eq!(
                            prev,
                            &replies,
                            "generation {} answered differently on a re-read",
                            set.generation()
                        ),
                    }
                }
                seen
            })
        })
        .collect();

    // Publish new generations while the readers hammer the store. The
    // publisher never waits for readers; readers never lock.
    for tag in 1..=GENERATIONS {
        store
            .publish(tiny_set(tag))
            .expect("well under generation capacity");
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);

    let mut observed: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for reader in readers {
        for (generation, replies) in reader.join().expect("reader thread panicked") {
            // Cross-thread: two threads that saw the same generation must
            // have byte-identical replies.
            match observed.get(&generation) {
                None => {
                    observed.insert(generation, replies);
                }
                Some(prev) => assert_eq!(
                    prev, &replies,
                    "generation {generation} differed across reader threads"
                ),
            }
        }
    }

    // Every observed generation matches the serial ground truth (tag ==
    // generation number by publish order), so no reader ever saw a torn
    // or half-swapped set.
    assert!(!observed.is_empty(), "readers observed no generations");
    for (generation, replies) in &observed {
        let tag = u32::try_from(*generation).expect("small generation");
        assert_eq!(
            replies,
            &truth(tag),
            "generation {generation} does not match its serial ground truth"
        );
    }
    // The final generation is the active one.
    assert_eq!(store.current().generation(), u64::from(GENERATIONS));
}

#[test]
fn replies_are_byte_identical_at_one_and_four_threads() {
    let set = tiny_set(5);
    let queries: Vec<String> = (0..64)
        .flat_map(|i| {
            [
                format!("cone {}", i % 9 + 1),
                format!("member 1 {}", i % 9 + 2),
                format!("class {} {}", i % 8 + 1, i % 8 + 2),
                format!("ascov {}", i % 9 + 1),
                "slice * *".to_owned(),
                "stats".to_owned(),
            ]
        })
        .collect();
    let one = breval_par::with_thread_cap(Some(1), || brevald::answer_batch(&set, &queries));
    let four = breval_par::with_thread_cap(Some(4), || brevald::answer_batch(&set, &queries));
    assert_eq!(one, four, "batch answers depend on the thread cap");
}
