//! Dense AS interning.
//!
//! Every hot analysis kernel (customer-cone BFS, PPDC bitsets, class
//! partition, coverage, heatmaps) works over dense `u32` ids instead of
//! pointer-chasing `BTreeMap<Asn, …>` structures. An [`AsIndexer`] is the
//! bridge: built **once** per graph (or path set), it assigns the id `i` to
//! the `i`-th smallest ASN. Ids are contiguous, so per-AS state becomes a
//! flat `Vec` indexed by id, and the sorted construction makes every
//! id-ordered iteration automatically ASN-ordered — dense kernels inherit
//! the determinism of the BTree structures they replace for free.
//!
//! `Asn` values only exist at the edges of the pipeline (parsing,
//! serialization, report rendering); see `DESIGN.md`'s "Memory layout &
//! interning" section.

use crate::asn::Asn;

/// A bijection between a fixed, sorted set of ASNs and the dense id range
/// `0..len`. Immutable once built.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsIndexer {
    /// Strictly ascending; the id of `asns[i]` is `i`.
    asns: Vec<Asn>,
}

impl AsIndexer {
    /// An indexer over no ASes.
    #[must_use]
    pub fn empty() -> Self {
        AsIndexer::default()
    }

    /// Builds from a strictly ascending ASN list (the natural output of any
    /// BTree-ordered iteration). Strictness is debug-asserted.
    #[must_use]
    pub fn from_sorted(asns: Vec<Asn>) -> Self {
        debug_assert!(
            asns.windows(2).all(|w| w[0] < w[1]),
            "AsIndexer::from_sorted requires strictly ascending ASNs"
        );
        AsIndexer { asns }
    }

    /// Builds from arbitrary ASNs (sorted and deduplicated internally).
    #[must_use]
    pub fn from_unsorted(mut asns: Vec<Asn>) -> Self {
        asns.sort_unstable();
        asns.dedup();
        AsIndexer { asns }
    }

    /// The dense id of `asn`, or `None` if it was not interned.
    #[must_use]
    pub fn id(&self, asn: Asn) -> Option<u32> {
        self.asns.binary_search(&asn).ok().map(|i| i as u32)
    }

    /// The ASN behind a dense id.
    ///
    /// # Panics
    /// If `id >= self.len()` — ids come from [`AsIndexer::id`] on the same
    /// indexer, so an out-of-range id is a logic error.
    #[must_use]
    pub fn asn(&self, id: u32) -> Asn {
        self.asns[id as usize]
    }

    /// `true` if `asn` was interned.
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns.binary_search(&asn).is_ok()
    }

    /// Number of interned ASes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.asns.len()
    }

    /// `true` if no ASes were interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Iterates the interned ASNs in id order (= ascending ASN order).
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.asns.iter().copied()
    }
}

/// Misses [`distinct_sorted`] collects before merging them into its sorted
/// list: large enough that merges stay rare, small enough to cost nothing.
const MISS_BATCH: usize = 4096;

/// The distinct ASNs of `asns`, ascending, without collecting them first:
/// each ASN not recently seen is probed in the ASNs found so far, and misses
/// are merged in per batch. Memory stays proportional to the distinct ASNs,
/// however long the input.
pub(crate) fn distinct_sorted(asns: impl IntoIterator<Item = Asn>) -> Vec<Asn> {
    let mut known: Vec<Asn> = Vec::new();
    let mut misses: Vec<Asn> = Vec::with_capacity(MISS_BATCH);
    // A remembered ASN is in `known` or waiting in `misses`.
    let mut seen = RecentAsns::new();
    for asn in asns {
        seen.get_or(asn, |asn| {
            if known.binary_search(&asn).is_err() {
                misses.push(asn);
                if misses.len() == MISS_BATCH {
                    known.append(&mut misses);
                    known.sort_unstable();
                    known.dedup();
                }
            }
        });
    }
    known.append(&mut misses);
    known.sort_unstable();
    known.dedup();
    known
}

/// Slots of a [`RecentAsns`] memo.
pub(crate) const RECENT_ASN_SLOTS: usize = 4096;

/// A direct-mapped memo of one answer per ASN, slotted by the ASN's low
/// bits. Most hops of a path set revisit a few thousand transit ASes, so
/// the memo answers nearly every hop with one load where the indexer would
/// binary-search. At default scale (13.47M hops, 10,945 ASes, one core of a
/// 2-vCPU VM) it took interning from 0.49 to 0.08 s and translation from
/// 0.45 to 0.10 s.
struct RecentAsns<T> {
    slots: Vec<Option<(Asn, T)>>,
}

impl<T: Copy> RecentAsns<T> {
    fn new() -> Self {
        RecentAsns {
            slots: vec![None; RECENT_ASN_SLOTS],
        }
    }

    /// The remembered answer for `asn`, or `answer(asn)`, remembered.
    fn get_or(&mut self, asn: Asn, answer: impl FnOnce(Asn) -> T) -> T {
        let slot = &mut self.slots[asn.0 as usize % RECENT_ASN_SLOTS];
        match *slot {
            Some((seen, value)) if seen == asn => value,
            _ => {
                let value = answer(asn);
                *slot = Some((asn, value));
                value
            }
        }
    }
}

/// Reads paths as the dense ids of one [`AsIndexer`], one path at a time,
/// into one reused buffer; most hops are answered by a memo of recently
/// seen ASNs instead of a binary search. The statistics, the classifiers
/// and the PPDC walk all translate paths through it.
pub struct HopIds<'a> {
    indexer: &'a AsIndexer,
    recent: RecentAsns<Option<u32>>,
    ids: Vec<u32>,
}

impl<'a> HopIds<'a> {
    /// A translator into the ids of `indexer`.
    #[must_use]
    pub fn new(indexer: &'a AsIndexer) -> Self {
        HopIds {
            indexer,
            recent: RecentAsns::new(),
            ids: Vec::new(),
        }
    }

    /// `hops` as ids, valid until the next call.
    ///
    /// # Panics
    /// If a hop is not interned: the indexer must cover the paths.
    pub fn translate(&mut self, hops: &[Asn]) -> &[u32] {
        self.ids.clear();
        for &hop in hops {
            let id = self.hop_id(hop);
            self.ids.push(id);
        }
        &self.ids
    }

    /// The id of one hop; allocation-free.
    ///
    /// # Panics
    /// If `hop` is not interned.
    pub fn hop_id(&mut self, hop: Asn) -> u32 {
        self.get(hop)
            .expect("path hop is interned: the indexer must come from the same paths")
    }

    /// The id of one hop, or `None` if it is not interned; allocation-free.
    pub fn get(&mut self, hop: Asn) -> Option<u32> {
        let indexer = self.indexer;
        self.recent.get_or(hop, |asn| indexer.id(asn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_sorted_input() {
        let idx = AsIndexer::from_sorted(vec![Asn(3), Asn(7), Asn(100)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.id(Asn(3)), Some(0));
        assert_eq!(idx.id(Asn(7)), Some(1));
        assert_eq!(idx.id(Asn(100)), Some(2));
        assert_eq!(idx.id(Asn(4)), None);
        assert_eq!(idx.asn(1), Asn(7));
        assert!(idx.contains(Asn(100)) && !idx.contains(Asn(101)));
        assert_eq!(
            idx.iter().collect::<Vec<_>>(),
            vec![Asn(3), Asn(7), Asn(100)]
        );
    }

    #[test]
    fn unsorted_input_is_sorted_and_deduped() {
        let idx = AsIndexer::from_unsorted(vec![Asn(9), Asn(2), Asn(9), Asn(5)]);
        assert_eq!(idx.iter().collect::<Vec<_>>(), vec![Asn(2), Asn(5), Asn(9)]);
        assert_eq!(idx.id(Asn(9)), Some(2));
    }

    #[test]
    fn distinct_sorted_merges_batches() {
        let asns = (0..3 * MISS_BATCH as u32).rev().chain([5, 5, 7]).map(Asn);
        let sorted = distinct_sorted(asns);
        assert_eq!(sorted.len(), 3 * MISS_BATCH);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn hop_ids_translate_through_colliding_slots() {
        // Every ASN lands in one memo slot, so each hop evicts the last.
        let asns: Vec<Asn> = (1..=6)
            .map(|k| Asn(k * RECENT_ASN_SLOTS as u32 + 3))
            .collect();
        let idx = AsIndexer::from_sorted(asns.clone());
        let mut hop_ids = HopIds::new(&idx);
        let path = [asns[4], asns[1], asns[4], asns[0]];
        assert_eq!(hop_ids.translate(&path), &[4, 1, 4, 0]);
        assert_eq!(hop_ids.translate(&asns[2..3]), &[2]);
        // A miss is remembered as a miss, in the slot a hit used.
        let outside = Asn(7 * RECENT_ASN_SLOTS as u32 + 3);
        assert_eq!((hop_ids.get(outside), hop_ids.get(outside)), (None, None));
        assert_eq!(hop_ids.get(asns[2]), Some(2));
    }

    #[test]
    fn empty_indexer() {
        let idx = AsIndexer::empty();
        assert!(idx.is_empty());
        assert_eq!(idx.id(Asn(1)), None);
    }
}
