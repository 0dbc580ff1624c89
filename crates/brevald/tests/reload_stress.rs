//! Concurrent read-during-reload stress: readers racing a publisher must
//! never observe a torn generation or a generation going backwards, every
//! reply must match its generation's serial ground truth, and a replaced
//! generation must drop once no reader holds it.

use breval_core::snapshot::ScenarioSnapshot;
use brevald::set::SnapshotSet;
use brevald::slices::SliceTable;
use brevald::store::SnapshotStore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// A cheap one-classifier set whose answers depend on `tag`: a provider
/// chain `1 → 2 → … → tag+3`, so `cone 1` reports a cone of `tag + 3`.
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
    let csr = asgraph::CsrGraph::build(&rels);
    let snap = ScenarioSnapshot {
        name: "asrank".to_owned(),
        cones: Arc::new(asgraph::cone::customer_cone_sizes_csr(&csr)),
        csr: Arc::new(csr),
        ..ScenarioSnapshot::default()
    };
    SnapshotSet::new(vec![Arc::new(snap)], &SliceTable::empty())
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
fn readers_race_a_thousand_reloads_and_only_the_last_generation_survives() {
    const GENERATIONS: u64 = 1_000;
    const READERS: usize = 4;
    // Generation g serves tiny_set(g % TAGS): a few fixed sets, cloned per
    // publish, keep the test's cost flat in the generation count.
    const TAGS: u64 = 8;

    let sets: Vec<SnapshotSet> = (0..TAGS as u32).map(tiny_set).collect();
    let truths: Arc<Vec<Vec<String>>> = Arc::new((0..TAGS as u32).map(truth).collect());
    let store = Arc::new(SnapshotStore::new(sets[0].clone()));
    let stop = Arc::new(AtomicBool::new(false));
    // Every reader is running before the first publish.
    let start = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (store, stop, truths) =
                (Arc::clone(&store), Arc::clone(&stop), Arc::clone(&truths));
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let (mut last, mut reads) = (0u64, 0u64);
                loop {
                    // One resolve per round: every probe in this round
                    // answers against the same immutable generation.
                    let set = store.current();
                    let generation = set.generation();
                    assert!(
                        generation >= last,
                        "generation went backwards: {last} -> {generation}"
                    );
                    last = generation;
                    let replies: Vec<String> = PROBES
                        .iter()
                        .map(|q| brevald::answer_line(&set, q))
                        .collect();
                    assert_eq!(
                        replies,
                        truths[(generation % TAGS) as usize],
                        "generation {generation} does not match its serial ground truth"
                    );
                    reads += 1;
                    if stop.load(Ordering::Relaxed) {
                        return reads;
                    }
                }
            })
        })
        .collect();

    // Publish while the readers hammer the store, keeping a weak handle on
    // every generation to see which ones are still alive at the end.
    let mut published = vec![Arc::downgrade(&store.current())];
    start.wait();
    for generation in 1..=GENERATIONS {
        let assigned = store
            .publish(sets[(generation % TAGS) as usize].clone())
            .expect("publishing is infallible");
        assert_eq!(assigned, generation, "generations number in publish order");
        published.push(Arc::downgrade(&store.current()));
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let reads = reader.join().expect("reader thread panicked");
        assert!(reads > 0, "a reader never read");
    }

    let alive: Vec<u64> = published
        .iter()
        .filter_map(|g| g.upgrade().map(|set| set.generation()))
        .collect();
    assert_eq!(
        alive,
        [GENERATIONS],
        "only the active generation may outlive its readers"
    );
    assert_eq!(store.generations(), GENERATIONS as usize + 1);
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
