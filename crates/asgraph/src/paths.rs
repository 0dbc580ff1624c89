//! Observed BGP AS paths and the statistics derived from them.
//!
//! Relationship-inference algorithms never see the real graph — they see AS
//! paths collected at vantage points (route-collector peers). This module
//! provides the path store plus the derived quantities the paper's
//! algorithms rely on: node degree, *transit degree* (Luckie et al. 2013),
//! per-link vantage-point visibility, and AS triplets.

use crate::asn::Asn;
use crate::link::Link;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::Range;

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
        let set: BTreeSet<Asn> = self.vps.iter().copied().collect();
        set.into_iter().collect()
    }

    /// Retains only loop-free paths without reserved ASNs — the common
    /// sanitisation prefix of all three classifiers. The kept paths are
    /// copied into a store sized for all of them, in O(1) allocations.
    #[must_use]
    pub fn sanitized(&self) -> PathSet {
        let _span = breval_obs::span!("sanitize");
        let mut out = PathSet {
            hops: Vec::with_capacity(self.hops.len()),
            ends: Vec::with_capacity(self.ends.len()),
            vps: Vec::with_capacity(self.vps.len()),
            prepends: Vec::with_capacity(self.prepends.len()),
        };
        for (vp, span) in self.spans() {
            let hops = &self.hops[span.clone()];
            if !has_loop(hops) && !hops.iter().any(|a| a.is_reserved()) {
                out.push_span(self, vp, span);
            }
        }
        breval_obs::counter("paths_sanitized_dropped", (self.len() - out.len()) as u64);
        breval_obs::counter("paths_sanitized_kept", out.len() as u64);
        out
    }

    /// Computes the derived statistics in one pass.
    #[must_use]
    pub fn stats(&self) -> PathStats {
        let mut neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
        let mut transit: HashMap<Asn, HashSet<Asn>> = HashMap::new();
        let mut link_vps: HashMap<Link, HashSet<Asn>> = HashMap::new();
        for (vp, c) in self.iter() {
            for w in c.windows(2) {
                if let Some(link) = Link::new(w[0], w[1]) {
                    neighbors.entry(w[0]).or_default().insert(w[1]);
                    neighbors.entry(w[1]).or_default().insert(w[0]);
                    link_vps.entry(link).or_default().insert(vp);
                }
            }
            for w in c.windows(3) {
                let t = transit.entry(w[1]).or_default();
                t.insert(w[0]);
                t.insert(w[2]);
            }
        }
        PathStats {
            node_degree: neighbors.iter().map(|(a, s)| (*a, s.len())).collect(),
            transit_degree: transit.iter().map(|(a, s)| (*a, s.len())).collect(),
            link_vp_count: link_vps.iter().map(|(l, s)| (*l, s.len())).collect(),
            links: link_vps.keys().copied().collect(),
        }
    }
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

/// Statistics derived from a [`PathSet`] in a single pass.
#[derive(Debug, Clone, Default)]
pub struct PathStats {
    node_degree: HashMap<Asn, usize>,
    transit_degree: HashMap<Asn, usize>,
    link_vp_count: HashMap<Link, usize>,
    links: BTreeSet<Link>,
}

impl PathStats {
    /// Node degree of `asn` (distinct path neighbors).
    #[must_use]
    pub fn node_degree(&self, asn: Asn) -> usize {
        self.node_degree.get(&asn).copied().unwrap_or(0)
    }

    /// Transit degree of `asn`: the number of distinct neighbors adjacent to
    /// `asn` in paths where `asn` occupies a transit (interior) position
    /// (Luckie et al. 2013, §5).
    #[must_use]
    pub fn transit_degree(&self, asn: Asn) -> usize {
        self.transit_degree.get(&asn).copied().unwrap_or(0)
    }

    /// Number of distinct vantage points that observed `link`.
    #[must_use]
    pub fn vp_count(&self, link: Link) -> usize {
        self.link_vp_count.get(&link).copied().unwrap_or(0)
    }

    /// All observed links, sorted.
    #[must_use]
    pub fn links(&self) -> &BTreeSet<Link> {
        &self.links
    }

    /// ASes ranked by descending transit degree (ties by ascending ASN).
    #[must_use]
    pub fn transit_degree_ranking(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.transit_degree.keys().copied().collect();
        v.sort_by_key(|a| (std::cmp::Reverse(self.transit_degree(*a)), a.0));
        v
    }

    /// All ASes with a nonzero node degree, sorted by ASN.
    #[must_use]
    pub fn ases(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.node_degree.keys().copied().collect();
        v.sort();
        v
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
