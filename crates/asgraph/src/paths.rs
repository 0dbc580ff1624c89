//! Observed BGP AS paths and the statistics derived from them.
//!
//! Relationship-inference algorithms never see the real graph — they see AS
//! paths collected at vantage points (route-collector peers). This module
//! provides the path store plus the derived quantities the paper's
//! algorithms rely on: node degree, *transit degree* (Luckie et al. 2013),
//! per-link vantage-point visibility, and AS triplets. The statistics are
//! keyed by dense ids: ASes by an [`AsIndexer`] over the observed ASes, and
//! links by their rank in `Link` order.

use crate::asn::Asn;
use crate::index::{distinct_sorted, AsIndexer, HopIds};
use crate::link::Link;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A raw AS path as observed in a BGP update / RIB entry, nearest AS first
/// (index 0 is the collector-adjacent AS, the last element is the origin).
/// May contain prepending (consecutive repeats); [`PathSet::push`] stores it
/// prepend-compressed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsPath(Vec<Asn>);

impl AsPath {
    /// Wraps a hop sequence.
    #[must_use]
    pub fn new(hops: Vec<Asn>) -> Self {
        AsPath(hops)
    }
}

/// `true` if an AS re-appears non-consecutively on `hops` (a routing loop
/// artefact); prepending is not a loop. Such paths are discarded by every
/// sanitisation stage in the paper's algorithms. Quadratic, which is cheap
/// on paths of a few hops, and allocation-free.
#[must_use]
pub fn has_loop(hops: &[Asn]) -> bool {
    hops.iter().enumerate().any(|(i, hop)| {
        hops[i + 1..]
            .iter()
            .skip_while(|next| *next == hop)
            .any(|later| later == hop)
    })
}

/// The collection of all paths observed across all vantage points — the input
/// to every inference algorithm — in one flat store.
///
/// Every path is kept once, prepend-compressed, as a slice of one shared hop
/// array; [`PathSet::iter`] walks them as `(vantage point, &[Asn])` pairs.
/// Prepending survives only as a sparse side list, which
/// [`PathSet::iter_raw`] reads to restore each path as it was pushed.
#[derive(Clone, Default)]
pub struct PathSet {
    /// The compressed hops of every path, concatenated in push order.
    hops: Vec<Asn>,
    /// `ends[i]` is where path `i` ends in `hops`; it starts at `ends[i - 1]`
    /// (or 0).
    ends: Vec<u32>,
    /// `vps[i]` is the vantage point that observed path `i`.
    vps: Vec<Asn>,
    /// `(index into hops, extra copies)` of every prepended hop, ascending.
    prepends: Vec<(u32, u32)>,
}

impl PathSet {
    /// An empty path set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observed path.
    pub fn push(&mut self, vp: Asn, path: AsPath) {
        self.push_hops(vp, path.0);
    }

    /// Adds one observed path given as raw hops (VP first, origin last,
    /// prepending allowed), compressing it on the way in.
    pub fn push_hops(&mut self, vp: Asn, hops: impl IntoIterator<Item = Asn>) {
        let start = self.hops.len();
        for hop in hops {
            if self.hops.len() > start && self.hops.last() == Some(&hop) {
                let at = store_index(self.hops.len() - 1);
                match self.prepends.last_mut() {
                    Some((last, extra)) if *last == at => *extra += 1,
                    _ => self.prepends.push((at, 1)),
                }
            } else {
                self.hops.push(hop);
            }
        }
        self.ends.push(store_index(self.hops.len()));
        self.vps.push(vp);
    }

    /// Appends every path of `other`, in its order.
    pub fn append(&mut self, other: &PathSet) {
        for (vp, span) in other.spans() {
            self.push_span(other, vp, span);
        }
    }

    /// Copies the path of `src` at `span`, prepending included.
    fn push_span(&mut self, src: &PathSet, vp: Asn, span: Range<usize>) {
        let (from, to) = (store_index(span.start), store_index(self.hops.len()));
        let moved = src.prepends_in(&span).iter();
        self.prepends
            .extend(moved.map(|&(at, extra)| (at - from + to, extra)));
        self.hops.extend_from_slice(&src.hops[span]);
        self.ends.push(store_index(self.hops.len()));
        self.vps.push(vp);
    }

    /// Every path as `(vantage point, compressed hops)`, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, &[Asn])> + '_ {
        self.spans().map(|(vp, span)| (vp, &self.hops[span]))
    }

    /// Path `i` as `(vantage point, compressed hops)`.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<(Asn, &[Asn])> {
        let start = if i == 0 { 0 } else { *self.ends.get(i - 1)? };
        let hops = self.hops.get(start as usize..*self.ends.get(i)? as usize)?;
        Some((*self.vps.get(i)?, hops))
    }

    /// Every path as `(vantage point, hops as pushed)`, prepending
    /// restored, in push order.
    pub fn iter_raw(&self) -> impl Iterator<Item = (Asn, RawHops<'_>)> + '_ {
        self.spans()
            .map(|(vp, span)| (vp, RawHops { set: self, span }))
    }

    /// Every path as `(vantage point, range in hops)`, in push order.
    fn spans(&self) -> impl Iterator<Item = (Asn, Range<usize>)> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.vps
            .iter()
            .zip(starts.zip(&self.ends))
            .map(|(&vp, (start, &end))| (vp, start as usize..end as usize))
    }

    /// The prepend entries of the hops in `span`.
    fn prepends_in(&self, span: &Range<usize>) -> &[(u32, u32)] {
        let below = |end: usize| {
            self.prepends
                .partition_point(|&(at, _)| (at as usize) < end)
        };
        &self.prepends[below(span.start)..below(span.end)]
    }

    /// Number of observed paths.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if no paths were observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The distinct vantage points, sorted.
    #[must_use]
    pub fn vantage_points(&self) -> Vec<Asn> {
        distinct_sorted(self.vps.iter().copied())
    }

    /// Interns every AS observed on a multi-hop compressed path: exactly
    /// the ASes on some link, the key set of [`PathStats::ases`].
    pub(crate) fn observed_indexer(&self) -> AsIndexer {
        let hops = self
            .iter()
            .filter(|(_, c)| c.len() >= 2)
            .flat_map(|(_, c)| c.iter().copied());
        AsIndexer::from_sorted(distinct_sorted(hops))
    }

    /// Retains only loop-free paths without reserved ASNs — the common
    /// sanitisation prefix of all three classifiers. The kept paths are
    /// copied into a store sized for all of them, in O(1) allocations.
    #[must_use]
    pub fn sanitized(&self) -> PathSet {
        let _span = breval_obs::span!("sanitize");
        let out = self.kept_copy();
        count_sanitized(self.len(), out.len());
        out
    }

    /// The paths [`PathSet::sanitized`] keeps, as a shared store: `paths`
    /// itself when every path passes, so nothing is copied, else a new
    /// store with the kept paths. Checking that every path passes reads
    /// each path once and allocates nothing.
    #[must_use]
    pub fn sanitized_shared(paths: &Arc<PathSet>) -> Arc<PathSet> {
        let _span = breval_obs::span!("sanitize");
        let out = if paths.spans().all(|(_, span)| paths.keeps(&span)) {
            Arc::clone(paths)
        } else {
            Arc::new(paths.kept_copy())
        };
        count_sanitized(paths.len(), out.len());
        out
    }

    /// The sanitisation rule: the path at `span` has no loop and no
    /// reserved ASN.
    fn keeps(&self, span: &Range<usize>) -> bool {
        let hops = &self.hops[span.clone()];
        !has_loop(hops) && !hops.iter().any(|a| a.is_reserved())
    }

    /// A copy of the paths that pass [`PathSet::keeps`].
    fn kept_copy(&self) -> PathSet {
        let mut out = PathSet {
            hops: Vec::with_capacity(self.hops.len()),
            ends: Vec::with_capacity(self.ends.len()),
            vps: Vec::with_capacity(self.vps.len()),
            prepends: Vec::with_capacity(self.prepends.len()),
        };
        for (vp, span) in self.spans() {
            if self.keeps(&span) {
                out.push_span(self, vp, span);
            }
        }
        out
    }

    /// Computes the derived statistics (see [`PathStats`]) in two passes
    /// over the paths, allocating nothing per path or per hop.
    #[must_use]
    pub fn stats(&self) -> PathStats {
        let (indexer, link_ends) = self.observed_links();
        let vantage_points = AsIndexer::from_sorted(self.vantage_points());
        let adjacency = Adjacency::from_links(indexer.len(), &link_ends);

        // Pass 2: each hop pair's entry in both rows. An interior hop marks
        // its entries for both path neighbours as transit; every hop pair
        // sets its path's VP bit on its link.
        let entries = adjacency.neighbors.len();
        let words = vantage_points.len().div_ceil(64).max(1);
        let mut vp_bits = vec![0u64; link_ends.len() * words];
        let mut transit = vec![false; entries];
        let mut vp_ids = HopIds::new(&vantage_points);
        let mut hop_ids = HopIds::new(&indexer);
        let mut recent = RecentPairs::new();
        for (vp, c) in self.iter().filter(|(_, c)| c.len() >= 2) {
            let vp = vp_ids.hop_id(vp) as usize;
            let (word, bit) = (vp / 64, 1u64 << (vp % 64));
            // The entry of the previous hop in the current hop's row.
            let mut back: Option<usize> = None;
            for w in c.windows(2) {
                // Keyed by ASNs, so a hop pair seen recently needs no ids.
                let fwd = recent.get_or(w[0].0, w[1].0, || {
                    let (a, b) = (hop_ids.hop_id(w[0]), hop_ids.hop_id(w[1]));
                    let at = entry_of(&adjacency.offsets, &adjacency.neighbors, a, b);
                    store_index(at.expect("the first pass collected every hop pair"))
                }) as usize;
                vp_bits[adjacency.links[fwd] as usize * words + word] |= bit;
                if let Some(back) = back {
                    transit[back] = true;
                    transit[fwd] = true;
                }
                back = Some(adjacency.twins[fwd] as usize);
            }
        }
        let transit_degree = adjacency
            .offsets
            .windows(2)
            .map(|w| {
                let row = &transit[w[0] as usize..w[1] as usize];
                store_index(row.iter().filter(|&&t| t).count())
            })
            .collect();
        let link_vp_count = vp_bits
            .chunks_exact(words)
            .map(|bits| bits.iter().map(|b| b.count_ones()).sum())
            .collect();
        let links = link_ends
            .iter()
            .map(|&[a, b]| {
                Link::new(indexer.asn(a), indexer.asn(b)).expect("compressed hops differ")
            })
            .collect();
        PathStats {
            indexer,
            offsets: adjacency.offsets,
            neighbors: adjacency.neighbors,
            entry_links: adjacency.links,
            link_ends,
            transit_degree,
            link_vp_count,
            links,
            vantage_points,
            source: (self.len(), self.hops.len()),
        }
    }

    /// Pass 1 of [`PathSet::stats`]: the ASes on some link, and the
    /// `[lower id, higher id]` of every link, ascending. Compressed paths
    /// never repeat a hop, so every hop pair is a link. Pairs seen recently
    /// are skipped; the rest are collected and sorted and deduplicated each
    /// time their count doubles, so memory stays proportional to the links.
    /// The links' endpoints are exactly the ASes of
    /// [`PathSet::observed_indexer`], so the statistics get their indexer
    /// without a pass of their own over the hops.
    fn observed_links(&self) -> (AsIndexer, Vec<[u32; 2]>) {
        let mut recent = RecentPairs::new();
        let mut pairs: Vec<u64> = Vec::new();
        let mut merge_at = PAIR_BATCH;
        for (_, c) in self.iter() {
            for w in c.windows(2) {
                let (a, b) = (w[0].0.min(w[1].0), w[0].0.max(w[1].0));
                recent.get_or(a, b, || {
                    pairs.push((u64::from(a) << 32) | u64::from(b));
                    if pairs.len() == merge_at {
                        pairs.sort_unstable();
                        pairs.dedup();
                        merge_at = 2 * pairs.len() + PAIR_BATCH;
                    }
                    0
                });
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let ends = |key: u64| [Asn((key >> 32) as u32), Asn(key as u32)];
        let indexer =
            AsIndexer::from_sorted(distinct_sorted(pairs.iter().flat_map(|&key| ends(key))));
        // Ids follow ASN order, so the links stay ascending.
        let link_ends = pairs
            .iter()
            .map(|&key| ends(key).map(|asn| indexer.id(asn).expect("link ends are interned")))
            .collect();
        (indexer, link_ends)
    }
}

/// Counts what a sanitisation of `total` paths kept and dropped.
fn count_sanitized(total: usize, kept: usize) {
    breval_obs::counter("paths_sanitized_dropped", (total - kept) as u64);
    breval_obs::counter("paths_sanitized_kept", kept as u64);
}

/// Hop pairs [`PathSet::stats`] collects before its first dedup.
const PAIR_BATCH: usize = 1 << 16;

/// log2 of the slots of a [`RecentPairs`] memo.
const PAIR_SLOT_BITS: u32 = 14;

/// A direct-mapped memo of one answer per ordered pair, slotted by a
/// multiplicative hash: of ids, or of ASNs. Paths repeat their hop pairs
/// heavily: at default scale 10.7M hop pairs run over 34,921 links, and
/// about 98 % of them hit a memo of 2^14 slots, where a lookup would
/// binary-search a row. Unlike `index::RecentAsns`, which slots an ASN by
/// its low bits, a pair needs the hash: its low bits are one endpoint's.
pub(crate) struct RecentPairs {
    slots: Vec<(u64, u32)>,
}

impl RecentPairs {
    pub(crate) fn new() -> Self {
        RecentPairs {
            slots: vec![(u64::MAX, 0); 1 << PAIR_SLOT_BITS],
        }
    }

    /// The remembered answer for `(a, b)`, or `answer()`, remembered.
    pub(crate) fn get_or(&mut self, a: u32, b: u32, answer: impl FnOnce() -> u32) -> u32 {
        let key = (u64::from(a) << 32) | u64::from(b);
        let slot = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - PAIR_SLOT_BITS);
        let slot = &mut self.slots[slot as usize];
        if slot.0 != key {
            *slot = (key, answer());
        }
        slot.1
    }
}

/// The observed adjacency as a CSR holding both directions of every link,
/// with each row's neighbour ids ascending.
struct Adjacency {
    /// Row `a` is `neighbors[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    /// The link id of each entry.
    links: Vec<u32>,
    /// The entry of the same link in the other endpoint's row.
    twins: Vec<u32>,
}

impl Adjacency {
    /// Counting-sorts `link_ends` (ascending) into rows over `n` ids. Rows
    /// come out sorted: row `x` receives its lower neighbours from the
    /// links before `x`'s own, in order, then its higher ones.
    fn from_links(n: usize, link_ends: &[[u32; 2]]) -> Adjacency {
        let mut offsets = vec![0u32; n + 1];
        for &[a, b] in link_ends {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let entries = 2 * link_ends.len();
        let mut cursor = offsets.clone();
        let mut adjacency = Adjacency {
            offsets,
            neighbors: vec![0; entries],
            links: vec![0; entries],
            twins: vec![0; entries],
        };
        for (link, &[a, b]) in link_ends.iter().enumerate() {
            let link = store_index(link);
            let (at_a, at_b) = (cursor[a as usize], cursor[b as usize]);
            cursor[a as usize] += 1;
            cursor[b as usize] += 1;
            for (at, other, twin) in [(at_a, b, at_b), (at_b, a, at_a)] {
                adjacency.neighbors[at as usize] = other;
                adjacency.links[at as usize] = link;
                adjacency.twins[at as usize] = twin;
            }
        }
        adjacency
    }
}

/// The position of `b` in row `a` of a CSR; allocation-free.
fn entry_of(offsets: &[u32], neighbors: &[u32], a: u32, b: u32) -> Option<usize> {
    let start = *offsets.get(a as usize)? as usize;
    let end = *offsets.get(a as usize + 1)? as usize;
    let at = neighbors.get(start..end)?.binary_search(&b).ok()?;
    Some(start + at)
}

/// A hop count as a store index: the store addresses its hops with `u32`.
fn store_index(n: usize) -> u32 {
    u32::try_from(n).expect("a path set holds at most u32::MAX hops")
}

/// One path's hops as pushed, prepending restored, read straight from the
/// store; `Debug` prints them as a list.
#[derive(Clone)]
pub struct RawHops<'a> {
    set: &'a PathSet,
    /// The path's range in the store's hops.
    span: Range<usize>,
}

impl<'a> RawHops<'a> {
    /// The hops, each as many times as it was pushed; allocation-free.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + 'a {
        let set = self.set;
        let mut prepends = set.prepends_in(&self.span).iter().peekable();
        self.span.clone().flat_map(move |at| {
            let extra = prepends.next_if(|p| p.0 as usize == at).map_or(0, |p| p.1);
            std::iter::repeat_n(set.hops[at], 1 + extra as usize)
        })
    }
}

impl fmt::Debug for RawHops<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Prints what the derived `Debug` of the former
/// `PathSet { paths: Vec<ObservedPath { vp, path: AsPath }> }` printed,
/// prepending included, so digests of a path set's `Debug` stay put. Each
/// path renders straight from the store, one at a time.
impl fmt::Debug for PathSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let paths = DebugFn(|f: &mut fmt::Formatter<'_>| {
            let path = self.iter_raw().map(|(vp, raw)| {
                DebugFn(move |f: &mut fmt::Formatter<'_>| {
                    let path = DebugFn(|f: &mut fmt::Formatter<'_>| {
                        f.debug_tuple("AsPath").field(&raw).finish()
                    });
                    f.debug_struct("ObservedPath")
                        .field("vp", &vp)
                        .field("path", &path)
                        .finish()
                })
            });
            f.debug_list().entries(path).finish()
        });
        f.debug_struct("PathSet").field("paths", &paths).finish()
    }
}

/// Renders through a closure, so nested `Debug` builders need no
/// intermediate values.
struct DebugFn<F>(F);

impl<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result> fmt::Debug for DebugFn<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.0)(f)
    }
}

/// Statistics derived from a [`PathSet`], keyed by dense ids.
///
/// The ASes on some link get ids in ASN order ([`PathStats::indexer`]), and
/// each link gets the id of its rank in `Link` order ([`PathStats::links`],
/// [`PathStats::link_ends`]), so walks in id order visit ASes and links in
/// the order of the `BTree` collections they replace. The observed
/// adjacency is one CSR over both directions: a node's degree is its row
/// length, its transit degree the number of row entries marked transit,
/// and [`PathStats::link_id`] finds a link by one binary search in a row.
/// Per link, the statistics keep the number of distinct VPs that saw it.
#[derive(Debug, Clone, Default)]
pub struct PathStats {
    indexer: AsIndexer,
    /// Row `a` of the adjacency is `neighbors[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<u32>,
    /// Neighbour ids, ascending within each row.
    neighbors: Vec<u32>,
    /// The link id of each adjacency entry.
    entry_links: Vec<u32>,
    /// `[lower id, higher id]` per link id.
    link_ends: Vec<[u32; 2]>,
    /// Transit degree per AS id.
    transit_degree: Vec<u32>,
    /// Distinct VPs per link id.
    link_vp_count: Vec<u32>,
    links: BTreeSet<Link>,
    /// The VPs of all paths, multi-hop or not.
    vantage_points: AsIndexer,
    /// `(paths, stored hops)` of the path set these statistics describe.
    source: (usize, usize),
}

impl PathStats {
    /// Node degree of `asn` (distinct path neighbors).
    #[must_use]
    pub fn node_degree(&self, asn: Asn) -> usize {
        self.indexer
            .id(asn)
            .map_or(0, |id| self.node_degree_by_id(id))
    }

    /// Node degree behind a dense id of [`PathStats::indexer`].
    ///
    /// # Panics
    /// If `id` is out of range for the indexer.
    #[must_use]
    pub fn node_degree_by_id(&self, id: u32) -> usize {
        self.neighbors_by_id(id).len()
    }

    /// Transit degree of `asn`: the number of distinct neighbors adjacent to
    /// `asn` in paths where `asn` occupies a transit (interior) position
    /// (Luckie et al. 2013, §5).
    #[must_use]
    pub fn transit_degree(&self, asn: Asn) -> usize {
        self.indexer
            .id(asn)
            .map_or(0, |id| self.transit_degree_by_id(id))
    }

    /// Transit degree behind a dense id of [`PathStats::indexer`].
    ///
    /// # Panics
    /// If `id` is out of range for the indexer.
    #[must_use]
    pub fn transit_degree_by_id(&self, id: u32) -> usize {
        self.transit_degree[id as usize] as usize
    }

    /// Number of distinct vantage points that observed `link`.
    #[must_use]
    pub fn vp_count(&self, link: Link) -> usize {
        self.link_id_of(link)
            .map_or(0, |id| self.vp_count_by_id(id))
    }

    /// Number of distinct vantage points that observed the link with id
    /// `link`.
    ///
    /// # Panics
    /// If `link` is out of range for [`PathStats::link_ends`].
    #[must_use]
    pub fn vp_count_by_id(&self, link: u32) -> usize {
        self.link_vp_count[link as usize] as usize
    }

    /// All observed links, sorted; a link's id is its rank here.
    #[must_use]
    pub fn links(&self) -> &BTreeSet<Link> {
        &self.links
    }

    /// The dense endpoint ids `[lower, higher]` of every link, by link id.
    #[must_use]
    pub fn link_ends(&self) -> &[[u32; 2]] {
        &self.link_ends
    }

    /// The id of the link between the ASes with ids `a` and `b`, in either
    /// order, or `None` if no path joins them. One binary search in `a`'s
    /// row; allocation-free.
    #[must_use]
    pub fn link_id(&self, a: u32, b: u32) -> Option<u32> {
        entry_of(&self.offsets, &self.neighbors, a, b).map(|at| self.entry_links[at])
    }

    /// The id of `link`, or `None` if no path joins its endpoints.
    #[must_use]
    pub fn link_id_of(&self, link: Link) -> Option<u32> {
        let ids = self.indexer.id(link.a()).zip(self.indexer.id(link.b()));
        ids.and_then(|(a, b)| self.link_id(a, b))
    }

    /// The ids of the path neighbours of the AS with id `id`, ascending:
    /// its row of the adjacency.
    ///
    /// # Panics
    /// If `id` is out of range for the indexer.
    #[must_use]
    pub fn neighbors_by_id(&self, id: u32) -> &[u32] {
        &self.neighbors[self.offsets[id as usize] as usize..self.offsets[id as usize + 1] as usize]
    }

    /// The ids of the observed ASes: the ASes on some link, in ASN order.
    #[must_use]
    pub fn indexer(&self) -> &AsIndexer {
        &self.indexer
    }

    /// The vantage points of all paths, multi-hop or not, in ASN order.
    #[must_use]
    pub fn vantage_points(&self) -> &AsIndexer {
        &self.vantage_points
    }

    /// ASes ranked by descending transit degree (ties by ascending ASN).
    #[must_use]
    pub fn transit_degree_ranking(&self) -> Vec<Asn> {
        let mut ids: Vec<u32> = (0..store_index(self.transit_degree.len()))
            .filter(|&id| self.transit_degree_by_id(id) > 0)
            .collect();
        ids.sort_by_key(|&id| (std::cmp::Reverse(self.transit_degree_by_id(id)), id));
        ids.into_iter().map(|id| self.indexer.asn(id)).collect()
    }

    /// All ASes with a nonzero node degree, sorted by ASN.
    #[must_use]
    pub fn ases(&self) -> Vec<Asn> {
        self.indexer.iter().collect()
    }

    /// Whether these can be the statistics of `paths`: a cheap check that
    /// both count the same paths and stored hops. Readers that look paths
    /// up through these statistics' ids assert it first.
    #[must_use]
    pub fn describes(&self, paths: &PathSet) -> bool {
        self.source == (paths.len(), paths.hops.len())
    }
}

/// Finds the link ids of hop pairs in one [`PathStats`], answering pairs
/// seen recently from a memo instead of a binary search.
pub struct LinkIds<'a> {
    stats: &'a PathStats,
    recent: RecentPairs,
}

impl<'a> LinkIds<'a> {
    /// A lookup into the links of `stats`.
    #[must_use]
    pub fn new(stats: &'a PathStats) -> Self {
        LinkIds {
            stats,
            recent: RecentPairs::new(),
        }
    }

    /// The id of the link between the ASes with ids `a` and `b`;
    /// allocation-free.
    ///
    /// # Panics
    /// If no path of the statistics joins `a` and `b`: hop pairs must come
    /// from the paths the statistics were derived from.
    pub fn hop_link(&mut self, a: u32, b: u32) -> u32 {
        let stats = self.stats;
        self.recent.get_or(a, b, || {
            stats
                .link_id(a, b)
                .expect("every hop pair of the paths is a link of their statistics")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().map(|&h| Asn(h)).collect())
    }

    fn asns(hops: &[u32]) -> Vec<Asn> {
        hops.iter().map(|&h| Asn(h)).collect()
    }

    #[test]
    fn push_compresses_prepending() {
        let mut ps = PathSet::new();
        ps.push(Asn(1), path(&[1, 2, 2, 2, 3]));
        ps.push(Asn(4), path(&[4, 3, 3]));
        ps.push(Asn(5), path(&[]));
        let paths: Vec<(Asn, &[Asn])> = ps.iter().collect();
        assert_eq!(paths[0], (Asn(1), &asns(&[1, 2, 3])[..]));
        assert_eq!(paths[1], (Asn(4), &asns(&[4, 3])[..]));
        assert_eq!(paths[2], (Asn(5), &[][..]));
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn debug_restores_prepending() {
        let mut ps = PathSet::new();
        assert_eq!(format!("{ps:?}"), "PathSet { paths: [] }");
        ps.push(Asn(1), path(&[1, 2, 2]));
        assert_eq!(
            format!("{ps:?}"),
            "PathSet { paths: [ObservedPath { vp: Asn(1), \
             path: AsPath([Asn(1), Asn(2), Asn(2)]) }] }"
        );
    }

    #[test]
    fn append_get_and_iter_raw_read_what_was_pushed() {
        let raw_paths = [(1, &[1, 2, 2, 3][..]), (4, &[4, 4, 5]), (6, &[6, 7, 7, 7])];
        let mut expected = PathSet::new();
        for (vp, hops) in raw_paths {
            expected.push(Asn(vp), path(hops));
        }
        let mut ps = PathSet::new();
        ps.push(Asn(1), path(raw_paths[0].1));
        let mut tail = PathSet::new();
        for (vp, hops) in &raw_paths[1..] {
            tail.push(Asn(*vp), path(hops));
        }
        ps.append(&tail);
        assert_eq!(format!("{ps:?}"), format!("{expected:?}"));
        assert_eq!(ps.get(1), Some((Asn(4), &asns(&[4, 5])[..])));
        assert_eq!(ps.get(3), None);
        let raw: Vec<(Asn, Vec<Asn>)> = ps
            .iter_raw()
            .map(|(vp, hops)| (vp, hops.iter().collect()))
            .collect();
        for ((vp, hops), (want_vp, want)) in raw.iter().zip(raw_paths) {
            assert_eq!((*vp, hops.clone()), (Asn(want_vp), asns(want)));
        }
    }

    #[test]
    fn loop_detection_ignores_prepending() {
        assert!(!has_loop(&asns(&[1, 2, 2, 3])));
        assert!(has_loop(&asns(&[1, 2, 3, 2])));
        assert!(has_loop(&asns(&[1, 2, 1])));
        assert!(has_loop(&asns(&[1, 1, 2, 1])));
        assert!(!has_loop(&[]));
    }

    #[test]
    fn sanitized_drops_bad_paths() {
        let mut ps = PathSet::new();
        ps.push(Asn(1), path(&[1, 2, 1])); // loop
        ps.push(Asn(1), path(&[1, 2, 2, 3]));
        ps.push(Asn(1), path(&[1, 23456, 3])); // AS_TRANS
        ps.push(Asn(1), path(&[1, 64512, 3])); // private use
        ps.push(Asn(7), path(&[7, 7, 8, 9, 9, 9]));
        let clean = ps.sanitized();
        let mut expected = PathSet::new();
        expected.push(Asn(1), path(&[1, 2, 2, 3]));
        expected.push(Asn(7), path(&[7, 7, 8, 9, 9, 9]));
        assert_eq!(format!("{clean:?}"), format!("{expected:?}"));
    }

    #[test]
    fn sanitized_shared_shares_a_clean_store_and_copies_otherwise() {
        let mut clean = PathSet::new();
        clean.push(Asn(1), path(&[1, 2, 2, 3]));
        clean.push(Asn(7), path(&[7, 8]));
        let clean = Arc::new(clean);
        assert!(Arc::ptr_eq(&PathSet::sanitized_shared(&clean), &clean));
        for bad in [&[1, 2, 1][..], &[1, 23456, 3], &[1, 64512, 3]] {
            let mut dirty = (*clean).clone();
            dirty.push(Asn(1), path(bad));
            let dirty = Arc::new(dirty);
            let shared = PathSet::sanitized_shared(&dirty);
            assert!(!Arc::ptr_eq(&shared, &dirty));
            assert_eq!(format!("{shared:?}"), format!("{:?}", dirty.sanitized()));
            assert_eq!(format!("{shared:?}"), format!("{clean:?}"));
        }
    }

    #[test]
    fn stats_node_and_transit_degree() {
        let mut ps = PathSet::new();
        // 1-2-3 and 4-2-5: AS2 transits for {1,3,4,5}.
        ps.push(Asn(1), path(&[1, 2, 3]));
        ps.push(Asn(4), path(&[4, 2, 5]));
        let st = ps.stats();
        assert_eq!(st.node_degree(Asn(2)), 4);
        assert_eq!(st.transit_degree(Asn(2)), 4);
        assert_eq!(st.transit_degree(Asn(1)), 0);
        assert_eq!(st.node_degree(Asn(1)), 1);
        assert_eq!(st.vp_count(Link::new(Asn(1), Asn(2)).unwrap()), 1);
        assert_eq!(st.links().len(), 4);
        assert_eq!(st.transit_degree_ranking()[0], Asn(2));
    }

    #[test]
    fn stats_read_compressed_paths() {
        let mut ps = PathSet::new();
        ps.push(Asn(1), path(&[1, 2, 2, 3]));
        let st = ps.stats();
        // Prepending adds neither a self-link nor a transit neighbour.
        assert_eq!(st.links().len(), 2);
        assert_eq!(st.transit_degree(Asn(2)), 2);
    }

    #[test]
    fn vp_counts_fill_whole_bitset_words() {
        // 128 VPs fill exactly two bitset words per link: all of them see
        // link 1–2, and each sees its own link to AS 1 alone.
        let vps: Vec<u32> = (1_000..1_128).collect();
        let mut ps = PathSet::new();
        for &vp in &vps {
            ps.push(Asn(vp), path(&[vp, 1, 2]));
        }
        let st = ps.stats();
        assert_eq!(st.vantage_points().len(), 128);
        assert_eq!(st.vp_count(Link::new(Asn(1), Asn(2)).unwrap()), 128);
        for &vp in &vps {
            assert_eq!(st.vp_count(Link::new(Asn(1), Asn(vp)).unwrap()), 1);
        }
        assert!(st.describes(&ps) && !st.describes(&PathSet::new()));
    }

    #[test]
    fn vp_count_distinct() {
        let mut ps = PathSet::new();
        ps.push(Asn(1), path(&[1, 2, 3]));
        ps.push(Asn(1), path(&[1, 2, 4]));
        ps.push(Asn(9), path(&[9, 1, 2]));
        let st = ps.stats();
        assert_eq!(st.vp_count(Link::new(Asn(1), Asn(2)).unwrap()), 2);
        assert_eq!(ps.vantage_points(), vec![Asn(1), Asn(9)]);
    }
}
