//! Customer-cone computations.
//!
//! Two variants are used by the paper:
//!
//! * the **graph customer cone** — everything reachable by following
//!   provider→customer edges from an AS (CAIDA's recursive cone), used to
//!   split ASes into Stub/Transit for §5's topological classes, and
//! * the **provider/peer observed customer cone (PPDC)** — derived from paths:
//!   an AS's cone contains every AS that appears *behind* it on a path where it
//!   was reached from a provider or peer (Luckie et al. 2013). The paper's
//!   Appendix B heatmaps (Figs. 7–8) bin transit links by PPDC size.
//!
//! Both hot kernels run over the dense core ([`crate::index::AsIndexer`] /
//! [`crate::csr::CsrGraph`]): cone sizes come from an allocation-free BFS
//! with per-worker [`ConeScratch`] state, and PPDC cones are per-AS hybrid
//! rows (a sorted id list while sparse, a bitset once dense), built for
//! every labelling of a path set in one walk ([`ppdc_cones_each`]). The
//! BTree/hash implementations they replaced live on as the oracle of
//! `tests/csr_equivalence.rs`.

use crate::asn::Asn;
use crate::csr::{ConeScratch, CsrGraph};
use crate::index::{AsIndexer, HopIds};
use crate::link::Link;
use crate::paths::PathSet;
use crate::rel::Rel;
use std::collections::{BTreeMap, BTreeSet};

/// Per-AS cone sizes in dense form: a `Vec<usize>` indexed by the dense id
/// of an [`AsIndexer`]. Iteration is always in ascending ASN order, so no
/// hash-map ordering can leak into downstream output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConeSizes {
    pub(crate) indexer: AsIndexer,
    pub(crate) sizes: Vec<usize>,
}

impl ConeSizes {
    /// Sizes over no ASes (used as the stand-in for unknown scenarios).
    #[must_use]
    pub fn empty() -> Self {
        ConeSizes::default()
    }

    /// Builds from an indexer and its id-aligned size vector.
    ///
    /// # Panics
    /// If `sizes.len() != indexer.len()`.
    #[must_use]
    pub fn from_parts(indexer: AsIndexer, sizes: Vec<usize>) -> Self {
        assert_eq!(
            indexer.len(),
            sizes.len(),
            "ConeSizes requires one size per interned AS"
        );
        ConeSizes { indexer, sizes }
    }

    /// The indexer the sizes are aligned to.
    #[must_use]
    pub fn indexer(&self) -> &AsIndexer {
        &self.indexer
    }

    /// The cone size of `asn`, or `None` if it was not observed.
    #[must_use]
    pub fn get(&self, asn: Asn) -> Option<usize> {
        self.indexer.id(asn).map(|id| self.sizes[id as usize])
    }

    /// The cone size behind a dense id.
    ///
    /// # Panics
    /// If `id` is out of range for the indexer.
    #[must_use]
    pub fn by_id(&self, id: u32) -> usize {
        self.sizes[id as usize]
    }

    /// Number of ASes with a recorded size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` if no sizes are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Iterates `(asn, size)` pairs in ascending ASN order.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, usize)> + '_ {
        self.indexer.iter().zip(self.sizes.iter().copied())
    }
}

/// Customer-cone sizes for every AS of a prebuilt [`CsrGraph`] (self
/// included).
///
/// Fans the per-AS BFS walks out over `breval_par`'s threads with one
/// reusable [`ConeScratch`] per thread, so the steady state allocates
/// nothing. Results are identical at any thread count. `Scenario::run`
/// computes them once per inference, into its snapshot.
#[must_use]
pub fn customer_cone_sizes_csr(csr: &CsrGraph) -> ConeSizes {
    let n = csr.node_count();
    let sizes = breval_par::parallel_map_init(n, ConeScratch::new, |scratch, i| {
        csr.customer_cone_size(i as u32, scratch)
    });
    breval_obs::counter("cone_sizes_computed", n as u64);
    ConeSizes::from_parts(csr.indexer().clone(), sizes)
}

/// The number of members below which a PPDC row is stored sparse. A sparse
/// row costs `4·m` bytes against `n/8` for a bitset row, so the break-even
/// density is `m = n/32`; the floor keeps tiny graphs from paying the
/// binary-search path for rows a single word could hold.
#[must_use]
pub(crate) fn sparse_cutoff(n: usize) -> usize {
    (n / 32).max(8)
}

/// One AS's explicit PPDC cone row. The representation is a deterministic
/// function of the member count: below [`sparse_cutoff`] the row is a sorted
/// id list, at or above it a fixed-width bitset — so equal cones always
/// serialize byte-identically regardless of insertion history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PpdcRow {
    /// Strictly ascending dense ids, the owner's own id included.
    Sparse(Box<[u32]>),
    /// One bit per observed AS (`n.div_ceil(64)` words, tail bits clear).
    Dense(Box<[u64]>),
}

/// Provider/peer observed customer cones in hybrid compressed form: one
/// lazily allocated row per AS that was actually reached from a provider or
/// peer — a sorted-id list while the cone is sparse, a dense bitset once it
/// holds at least `max(n/32, 8)` of the `n` observed ASes. ASes never
/// reached that way still own the implicit self-cone `{asn}` (size 1)
/// without allocating a row. At million-AS scale almost every cone is
/// sparse, which is what keeps the table `O(total members)` instead of
/// `O(n²/8)` bytes.
#[derive(Debug, Clone, Default)]
pub struct PpdcCones {
    pub(crate) indexer: AsIndexer,
    /// Per-AS row; `None` means the implicit self-only cone.
    pub(crate) rows: Vec<Option<PpdcRow>>,
}

impl PpdcCones {
    /// The indexer over all path-observed ASes.
    #[must_use]
    pub fn indexer(&self) -> &AsIndexer {
        &self.indexer
    }

    /// Cone size behind a dense id (list length or popcount of the row;
    /// 1 without a row).
    ///
    /// # Panics
    /// If `id` is out of range for the indexer.
    #[must_use]
    pub fn size_by_id(&self, id: u32) -> usize {
        match &self.rows[id as usize] {
            None => 1,
            Some(PpdcRow::Sparse(ids)) => ids.len(),
            Some(PpdcRow::Dense(words)) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// The cone size of `asn`, or `None` if it was never observed on a path.
    #[must_use]
    pub fn size(&self, asn: Asn) -> Option<usize> {
        self.indexer.id(asn).map(|id| self.size_by_id(id))
    }

    /// Whether `member` is in the PPDC cone of `asn`, or `None` if `asn`
    /// itself was never observed on a path. Allocation-free — a binary
    /// search on sparse rows, a bit probe on dense ones (rows carry the
    /// self entry; a rowless AS owns the implicit `{asn}` cone) — so it is
    /// safe on the server's per-query path.
    #[must_use]
    pub fn contains(&self, asn: Asn, member: Asn) -> Option<bool> {
        let id = self.indexer.id(asn)?;
        let row = self.rows.get(id as usize)?;
        Some(match (row, self.indexer.id(member)) {
            (None, _) => member == asn,
            (Some(PpdcRow::Sparse(ids)), Some(m)) => ids.binary_search(&m).is_ok(),
            (Some(PpdcRow::Dense(words)), Some(m)) => words
                .get(m as usize / 64)
                .is_some_and(|word| word & (1u64 << (m % 64)) != 0),
            (Some(_), None) => false,
        })
    }

    /// The cone members of `asn` (self included), or `None` if unobserved.
    #[must_use]
    pub fn members(&self, asn: Asn) -> Option<BTreeSet<Asn>> {
        let id = self.indexer.id(asn)?;
        Some(match &self.rows[id as usize] {
            None => BTreeSet::from([asn]),
            Some(PpdcRow::Sparse(ids)) => ids.iter().map(|&m| self.indexer.asn(m)).collect(),
            Some(PpdcRow::Dense(words)) => {
                let mut out = BTreeSet::new();
                for (word_idx, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let bit = bits.trailing_zeros();
                        out.insert(self.indexer.asn((word_idx * 64) as u32 + bit));
                        bits &= bits - 1;
                    }
                }
                out
            }
        })
    }

    /// Collapses the cones into their sizes (popcount per row).
    #[must_use]
    pub fn sizes(&self) -> ConeSizes {
        let sizes = (0..self.rows.len() as u32)
            .map(|id| self.size_by_id(id))
            .collect();
        ConeSizes::from_parts(self.indexer.clone(), sizes)
    }

    /// Storage accounting for the hybrid representation: how many rows
    /// landed on each form and what they cost against the all-bitset
    /// layout this replaced (brevalbench reports the hybrid bytes as
    /// `asgraph.ppdc_bytes`).
    #[must_use]
    pub fn storage_stats(&self) -> PpdcStorageStats {
        let words_per_row = self.indexer.len().div_ceil(64);
        let mut stats = PpdcStorageStats::default();
        for row in &self.rows {
            match row {
                None => {}
                Some(PpdcRow::Sparse(ids)) => {
                    stats.sparse_rows += 1;
                    stats.sparse_members += ids.len();
                }
                Some(PpdcRow::Dense(_)) => stats.dense_rows += 1,
            }
        }
        stats.hybrid_bytes = stats.sparse_members * 4 + stats.dense_rows * words_per_row * 8;
        stats.flat_bytes = (stats.sparse_rows + stats.dense_rows) * words_per_row * 8;
        stats
    }
}

/// What the hybrid PPDC rows cost on the heap, against the flat all-bitset
/// layout (see [`PpdcCones::storage_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PpdcStorageStats {
    /// Rows stored as sorted id lists (below the density cutoff).
    pub sparse_rows: usize,
    /// Rows stored as fixed-width bitsets (at or above the cutoff).
    pub dense_rows: usize,
    /// Total member entries across all sparse rows.
    pub sparse_members: usize,
    /// Heap bytes behind the hybrid rows (`4·sparse_members + 8·words·dense_rows`).
    pub hybrid_bytes: usize,
    /// What the same rows would cost as all-dense bitsets (`8·words·rows`).
    pub flat_bytes: usize,
}

/// Computes the provider/peer observed customer cones (PPDC) from observed
/// paths and a relationship labelling.
///
/// For each path `… u x d1 d2 …` where `u` is a provider or peer of `x`
/// according to `rels`, every `di` is placed into `x`'s cone. The AS itself is
/// always a member of its own cone. This is the one-labelling case of
/// [`ppdc_cones_each`].
#[must_use]
pub fn ppdc_cones(paths: &PathSet, rels: &BTreeMap<Link, Rel>) -> PpdcCones {
    ppdc_cones_each(paths, &[rels])
        .into_iter()
        .next()
        .expect("one table per labelling")
}

/// The PPDC cones (see [`ppdc_cones`]) of every labelling in `labellings`,
/// from one walk over `paths`, in the labellings' order.
///
/// The walk interns the path ASes once, translates each path's hops to
/// dense ids once ([`HopIds`]), and tests every hop pair against
/// each labelling's [`CsrGraph`]: `u` reaches `x` from a provider or peer
/// iff `u` is among `x`'s providers or peers. That equals a lookup of the
/// pair's link in `rels` for every relationship valid for its link
/// ([`Rel::is_valid_for`]). Nothing is allocated per path or per hop.
#[must_use]
pub fn ppdc_cones_each(paths: &PathSet, labellings: &[&BTreeMap<Link, Rel>]) -> Vec<PpdcCones> {
    let _span = breval_obs::span!("ppdc");
    breval_obs::counter("ppdc_labellings", labellings.len() as u64);
    if labellings.is_empty() {
        return Vec::new();
    }
    let indexer = paths.observed_indexer();
    let n = indexer.len();
    let words = n.div_ceil(64);
    let cutoff = sparse_cutoff(n);
    let graphs: Vec<CsrGraph> = labellings
        .iter()
        .map(|rels| CsrGraph::from_links(indexer.clone(), rels.iter().map(|(l, r)| (*l, *r))))
        .collect();
    let mut tables: Vec<Vec<Option<BuildRow>>> = vec![vec![None; n]; labellings.len()];
    let mut hop_ids = HopIds::new(&indexer);
    for (_, c) in paths.iter().filter(|(_, c)| c.len() >= 2) {
        let ids = hop_ids.translate(c);
        for i in 1..ids.len() {
            let (upstream, x) = (ids[i - 1], ids[i]);
            for (graph, rows) in graphs.iter().zip(&mut tables) {
                let reached_from_provider_or_peer =
                    graph.providers(x).binary_search(&upstream).is_ok()
                        || graph.peers(x).binary_search(&upstream).is_ok();
                if reached_from_provider_or_peer {
                    // Self-membership: every observed AS is in its own cone.
                    let row = rows[x as usize].get_or_insert_with(|| BuildRow::Sparse(vec![x]));
                    for &d in &ids[i + 1..] {
                        row.insert(d, cutoff, words);
                    }
                }
            }
        }
    }
    tables
        .into_iter()
        .map(|rows| PpdcCones {
            indexer: indexer.clone(),
            rows: rows
                .into_iter()
                .map(|row| row.map(|r| r.finish(cutoff, words)))
                .collect(),
        })
        .collect()
}

/// Build-time accumulator behind one PPDC row. Starts as an unsorted id
/// list (duplicates allowed), compacts in place when it doubles past the
/// density cutoff, and converts to a bitset once the *unique* member count
/// reaches the cutoff — so the peak build footprint of a sparse row is
/// `O(cutoff)` and inserts stay amortized `O(1)` either way.
#[derive(Debug, Clone)]
enum BuildRow {
    /// Unsorted dense ids, possibly with duplicates; self id always present.
    Sparse(Vec<u32>),
    /// Fixed-width bitset, identical to the final dense form.
    Dense(Box<[u64]>),
}

impl BuildRow {
    fn insert(&mut self, id: u32, cutoff: usize, words: usize) {
        match self {
            BuildRow::Sparse(ids) => {
                ids.push(id);
                if ids.len() >= 2 * cutoff {
                    ids.sort_unstable();
                    ids.dedup();
                    if ids.len() >= cutoff {
                        *self = BuildRow::Dense(to_bitset(ids, words));
                    }
                }
            }
            BuildRow::Dense(bits) => bits[id as usize / 64] |= 1u64 << (id % 64),
        }
    }

    /// Seals the accumulator into the canonical [`PpdcRow`] form: dense iff
    /// the unique member count reached `cutoff`. A row that went dense
    /// during the build stays dense — membership only ever grows, so its
    /// final count is necessarily at or above the cutoff too.
    fn finish(self, cutoff: usize, words: usize) -> PpdcRow {
        match self {
            BuildRow::Sparse(mut ids) => {
                ids.sort_unstable();
                ids.dedup();
                if ids.len() >= cutoff {
                    PpdcRow::Dense(to_bitset(&ids, words))
                } else {
                    PpdcRow::Sparse(ids.into_boxed_slice())
                }
            }
            BuildRow::Dense(bits) => PpdcRow::Dense(bits),
        }
    }
}

fn to_bitset(ids: &[u32], words: usize) -> Box<[u64]> {
    let mut bits = vec![0u64; words].into_boxed_slice();
    for &id in ids {
        bits[id as usize / 64] |= 1u64 << (id % 64);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::AsPath;

    fn l(a: u32, b: u32) -> Link {
        Link::new(Asn(a), Asn(b)).unwrap()
    }

    fn p2c(provider: u32) -> Rel {
        Rel::P2c {
            provider: Asn(provider),
        }
    }

    #[test]
    fn cone_follows_customers_transitively() {
        let rels = BTreeMap::from([
            (l(1, 2), p2c(1)),
            (l(2, 3), p2c(2)),
            (l(2, 4), p2c(2)),
            (l(1, 5), Rel::P2p), // peers do not extend the cone
        ]);
        let csr = CsrGraph::build(&rels);
        let mut scratch = ConeScratch::new();
        let id = |asn: u32| csr.indexer().id(Asn(asn)).unwrap();
        let mut cone: Vec<Asn> = csr
            .customer_cone_ids(id(1), &mut scratch)
            .iter()
            .map(|&i| csr.indexer().asn(i))
            .collect();
        cone.sort();
        assert_eq!(cone, vec![Asn(1), Asn(2), Asn(3), Asn(4)]);
        assert_eq!(csr.customer_cone_ids(id(3), &mut scratch), &[id(3)]);
        let sizes = customer_cone_sizes_csr(&csr);
        assert_eq!(sizes.get(Asn(1)), Some(4));
        assert_eq!(sizes.get(Asn(2)), Some(3));
        assert_eq!(sizes.get(Asn(5)), Some(1));
        assert_eq!(sizes.get(Asn(99)), None);
    }

    #[test]
    fn cone_handles_multihoming_without_double_count() {
        let rels = BTreeMap::from([
            (l(1, 2), p2c(1)),
            (l(1, 3), p2c(1)),
            (l(2, 4), p2c(2)),
            (l(3, 4), p2c(3)), // 4 multihomes to 2 and 3
        ]);
        let sizes = customer_cone_sizes_csr(&CsrGraph::build(&rels));
        assert_eq!(sizes.get(Asn(1)), Some(4));
    }

    #[test]
    fn cone_sizes_iterate_in_ascending_asn_order() {
        // Regression for the old HashMap return type: iteration order must be
        // the ASN order, never a hash order.
        let rels = BTreeMap::from([
            (l(30, 2), p2c(30)),
            (l(2, 17), p2c(2)),
            (l(9, 17), Rel::P2p),
        ]);
        let sizes = customer_cone_sizes_csr(&CsrGraph::build(&rels));
        let order: Vec<Asn> = sizes.iter().map(|(a, _)| a).collect();
        assert_eq!(order, vec![Asn(2), Asn(9), Asn(17), Asn(30)]);
        let as_map: Vec<(Asn, usize)> = sizes.iter().collect();
        assert_eq!(
            as_map,
            vec![(Asn(2), 2), (Asn(9), 1), (Asn(17), 1), (Asn(30), 3)]
        );
    }

    #[test]
    fn ppdc_counts_only_provider_or_peer_upstream() {
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), p2c(1)); // 1 provider of 2
        rels.insert(l(2, 3), p2c(2)); // 2 provider of 3
        rels.insert(l(4, 2), p2c(2)); // 2 provider of 4 → upstream 4→2 is customer side

        let mut ps = PathSet::new();
        // VP 1: 1 (provider of 2) → 2 → 3 puts 3 into 2's PPDC.
        ps.push(Asn(1), AsPath::new(vec![Asn(1), Asn(2), Asn(3)]));
        // VP 4: 4 (customer of 2) → 2 → 3 must NOT grow 2's PPDC.
        ps.push(Asn(4), AsPath::new(vec![Asn(4), Asn(2), Asn(3)]));

        let cones = ppdc_cones(&ps, &rels);
        let cone2 = cones.members(Asn(2)).unwrap();
        assert_eq!(cone2.into_iter().collect::<Vec<_>>(), vec![Asn(2), Asn(3)]);
        // AS3 observed only at path tails still has the self cone.
        assert_eq!(cones.members(Asn(3)).unwrap().len(), 1);
        let sizes = ppdc_cones(&ps, &rels).sizes();
        assert_eq!(sizes.get(Asn(2)), Some(2));
    }

    #[test]
    fn ppdc_peer_upstream_counts() {
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), Rel::P2p);
        rels.insert(l(2, 3), p2c(2));
        let mut ps = PathSet::new();
        ps.push(Asn(1), AsPath::new(vec![Asn(1), Asn(2), Asn(3)]));
        let sizes = ppdc_cones(&ps, &rels).sizes();
        assert_eq!(sizes.get(Asn(2)), Some(2));
    }

    #[test]
    fn hybrid_rows_pick_representation_by_density() {
        // One long provider chain 1→2→…→12: AS2's cone holds 11 members
        // (itself plus everything behind it). With 12 observed ASes the
        // cutoff floor of 8 applies, so the big cones go dense while the
        // short tail cones stay sparse.
        let chain: Vec<u32> = (1..=12).collect();
        let mut rels = BTreeMap::new();
        for w in chain.windows(2) {
            rels.insert(l(w[0], w[1]), p2c(w[0]));
        }
        let mut ps = PathSet::new();
        ps.push(Asn(1), AsPath::new(chain.iter().map(|&a| Asn(a)).collect()));
        let cones = ppdc_cones(&ps, &rels);
        assert_eq!(sparse_cutoff(cones.indexer().len()), 8);
        let id = |a: u32| cones.indexer().id(Asn(a)).unwrap() as usize;
        assert!(matches!(cones.rows[id(2)], Some(PpdcRow::Dense(_))));
        assert!(matches!(cones.rows[id(11)], Some(PpdcRow::Sparse(_))));
        assert_eq!(cones.size(Asn(2)), Some(11));
        assert_eq!(cones.size(Asn(11)), Some(2));
        assert_eq!(cones.contains(Asn(2), Asn(12)), Some(true));
        assert_eq!(cones.contains(Asn(11), Asn(12)), Some(true));
        assert_eq!(cones.contains(Asn(11), Asn(3)), Some(false));
    }

    #[test]
    fn memo_collisions_keep_cones_exact() {
        // Every ASN of the colliding chain lands in one memo slot, so each
        // hop evicts the one before it; its cones must match those of the
        // same chain over ASNs that never share a slot.
        let cone_sizes = |asns: &[u32]| {
            let mut rels = BTreeMap::new();
            for w in asns.windows(2) {
                rels.insert(l(w[0], w[1]), p2c(w[0]));
            }
            let mut ps = PathSet::new();
            for start in 0..asns.len() {
                let hops = asns[start..].iter().map(|&a| Asn(a)).collect();
                ps.push(Asn(asns[start]), AsPath::new(hops));
            }
            let cones = ppdc_cones(&ps, &rels);
            asns.iter().map(|&a| cones.size(Asn(a))).collect::<Vec<_>>()
        };
        let plain: Vec<u32> = (1..=12).collect();
        let colliding: Vec<u32> = (1..=12)
            .map(|k| k * crate::index::RECENT_ASN_SLOTS as u32 + 7)
            .collect();
        assert_eq!(cone_sizes(&plain)[1], Some(11));
        assert_eq!(cone_sizes(&colliding), cone_sizes(&plain));
    }

    #[test]
    fn repeated_paths_compact_without_going_dense() {
        // The same short path over and over pushes far past the 2×cutoff
        // compaction trigger with only three unique members — the row must
        // dedup in place and stay sparse.
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), p2c(1));
        let mut ps = PathSet::new();
        for _ in 0..40 {
            ps.push(Asn(1), AsPath::new(vec![Asn(1), Asn(2), Asn(3), Asn(4)]));
        }
        let cones = ppdc_cones(&ps, &rels);
        let id2 = cones.indexer().id(Asn(2)).unwrap() as usize;
        match &cones.rows[id2] {
            Some(PpdcRow::Sparse(ids)) => assert_eq!(ids.len(), 3),
            other => panic!("expected a sparse row, got {other:?}"),
        }
        assert_eq!(
            cones.members(Asn(2)).unwrap(),
            BTreeSet::from([Asn(2), Asn(3), Asn(4)])
        );
    }
}
