//! Full-mesh simulation: propagate every origin toward the vantage points,
//! record what each one exports to the collector, and serialise to real MRT
//! bytes.

use crate::communities::{collector_communities, AnyCommunity};
use crate::propagate::{OriginRoutes, PropScratch, Propagator, RouteClass, Scope};
use crate::simgraph::SimGraph;
use asgraph::{Asn, PathSet, RawHops};
use bgpwire::{
    attrs::{flatten_segments, AsPathSegment, PathAttribute},
    mrt, Community, LargeCommunity, WireError,
};
use std::fmt;
use std::sync::Arc;
use topogen::Topology;

/// Snapshot timestamp: 2018-04-01 00:00:00 UTC (the paper's snapshot month).
pub const SNAPSHOT_TIME: u32 = 1_522_540_800;

/// One route exported by a vantage point to the collector. Its AS path is
/// the path with the same index in [`RibSnapshot::paths`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteObservation {
    /// The vantage-point AS.
    pub vp: Asn,
    /// The origin AS.
    pub origin: Asn,
    /// The announced prefix.
    pub prefix: bgpwire::Ipv4Prefix,
    /// How the VP learned the route.
    pub class: RouteClass,
}

/// The collector's view of the simulated Internet.
#[derive(Debug, Clone)]
pub struct RibSnapshot {
    /// All observations, ordered by (origin, vp).
    pub observations: Vec<RouteObservation>,
    /// Path `i` is observation `i`'s best path at its VP: VP first, origin
    /// last, prepending kept in the store's side list. Shared, so the
    /// sanitized paths of a scenario can be this very store.
    pub paths: Arc<PathSet>,
    /// The collector peer sessions (copied from the topology).
    pub collector_peers: Vec<topogen::CollectorPeer>,
}

/// Runs the full simulation: one propagation per origin AS, observations
/// recorded at every collector peer. Parallel across origins; deterministic
/// output order.
#[must_use]
pub fn simulate(topology: &Topology) -> RibSnapshot {
    let graph = SimGraph::build(topology);
    simulate_with_graph(topology, &graph)
}

/// Origins per parallel call: peak intermediate memory is one chunk's
/// per-origin results instead of the whole world's, while each call still
/// has enough origins to keep every thread busy.
const ORIGIN_CHUNK: usize = 2048;

/// [`simulate`] reusing a pre-built graph.
///
/// Per-origin propagation cost is wildly skewed (Tier-1s reach everywhere,
/// stubs almost nowhere), so each `breval-par` thread claims the next
/// origin as it finishes the last, `ORIGIN_CHUNK` origins per call. Only
/// the vantage points' routes are read, so every propagation is narrowed
/// to the [`Scope`] of the collector peers, built once per run and
/// borrowed by every worker. Each worker reuses one [`Propagator`], a
/// `(OriginRoutes, PropScratch)` buffer pair and one hop buffer, so
/// steady-state propagation allocates only each origin's observation list
/// and path store, which are appended to the RIB in origin order. The
/// result is byte-identical at any thread count (`tests/byteident.rs` pins
/// its digest).
#[must_use]
pub fn simulate_with_graph(topology: &Topology, graph: &SimGraph) -> RibSnapshot {
    let _span = breval_obs::span!("simulate");
    let vps: Vec<(u32, topogen::CollectorPeer)> = topology
        .collector_peers
        .iter()
        .filter_map(|cp| graph.node(cp.asn).map(|n| (n, *cp)))
        .collect();
    let scope = Scope::new(graph, vps.iter().map(|(node, _)| *node));
    breval_obs::counter("simulate_scope_nodes", scope.len() as u64);

    // Sub-span around the parallel fan-out so the trace/manifest separate
    // the per-origin export from the sequential graph/VP setup above.
    let _export = breval_obs::span!("simulate_export");
    let (mut all_observations, mut all_paths) = (Vec::new(), PathSet::new());
    let mut start = 0usize;
    while start < graph.len() {
        let end = (start + ORIGIN_CHUNK).min(graph.len());
        let per_origin: Vec<(Vec<RouteObservation>, PathSet)> = breval_par::parallel_map_init(
            end - start,
            || {
                (
                    Propagator::with_scope(&scope),
                    OriginRoutes::reusable(),
                    PropScratch::new(),
                    Vec::new(),
                )
            },
            |(engine, routes, scratch, hops), chunk_idx| {
                let origin = (start + chunk_idx) as u32;
                let asn = graph.asn(origin);
                let (mut observations, mut paths) = (Vec::new(), PathSet::new());
                let Some(info) = topology.info(asn) else {
                    return (observations, paths);
                };
                // Group this origin's prefixes by their TE mask so each
                // distinct announcement scope propagates once.
                let providers = graph.csr().providers(origin);
                let mut by_mask: Vec<(Option<u32>, Vec<bgpwire::Ipv4Prefix>)> = Vec::new();
                for (i, prefix) in info.prefixes.iter().enumerate() {
                    let mask = info
                        .prefix_te
                        .get(i)
                        .copied()
                        .flatten()
                        .filter(|_| !providers.is_empty())
                        .map(|k| providers[usize::from(k) % providers.len()]);
                    match by_mask.iter_mut().find(|(m, _)| *m == mask) {
                        Some((_, list)) => list.push(*prefix),
                        None => by_mask.push((mask, vec![*prefix])),
                    }
                }
                if by_mask.is_empty() {
                    by_mask.push((None, Vec::new()));
                }
                for (mask, prefixes) in by_mask {
                    engine.propagate_into(origin, mask, routes, scratch);
                    for (vp_node, cp) in &vps {
                        let Some(class) = routes.class(*vp_node) else {
                            continue;
                        };
                        // Partial feeds export customer routes only.
                        if !cp.full_feed && class != RouteClass::Customer {
                            continue;
                        }
                        if !routes.path_into(*vp_node, graph, hops) {
                            continue;
                        }
                        for prefix in &prefixes {
                            observations.push(RouteObservation {
                                vp: cp.asn,
                                origin: asn,
                                prefix: *prefix,
                                class,
                            });
                            paths.push_hops(cp.asn, hops.iter().copied());
                        }
                    }
                }
                (observations, paths)
            },
        );
        for (observations, paths) in per_origin {
            all_observations.extend(observations);
            all_paths.append(&paths);
        }
        start = end;
    }
    breval_obs::counter("route_observations", all_observations.len() as u64);
    RibSnapshot {
        observations: all_observations,
        paths: Arc::new(all_paths),
        collector_peers: topology.collector_peers.clone(),
    }
}

impl RibSnapshot {
    /// FNV-1a 64 digest of every observation with its path (order-sensitive)
    /// plus the collector-peer list. It hashes the `Debug` text the RIB
    /// printed when each observation owned its path, streamed from the
    /// store row by row, so the pinned digests stay put.
    #[must_use]
    pub fn digest(&self) -> u64 {
        topogen::debug_digest(&(Rows(self), &self.collector_peers))
    }

    /// Converts to the [`PathSet`] consumed by inference algorithms.
    ///
    /// With `legacy_as4: false` (the default pipeline), this is a copy of
    /// [`RibSnapshot::paths`], with true 4-byte ASNs. With
    /// `legacy_as4: true`, paths exported over 16-bit-only collector
    /// sessions have their 4-byte hops replaced by `AS_TRANS` — what a tool
    /// that ignores `AS4_PATH` would extract.
    #[must_use]
    pub fn to_pathset(&self, legacy_as4: bool) -> PathSet {
        let _span = breval_obs::span!("to_pathset");
        let ps = if legacy_as4 {
            let two_byte: std::collections::BTreeSet<Asn> = self
                .collector_peers
                .iter()
                .filter(|cp| cp.two_byte_only)
                .map(|cp| cp.asn)
                .collect();
            let mut ps = PathSet::new();
            for (vp, raw) in self.paths.iter_raw() {
                let mangle = two_byte.contains(&vp);
                ps.push_hops(
                    vp,
                    raw.iter().map(|a| if mangle { a.to_two_byte() } else { a }),
                );
            }
            ps
        } else {
            PathSet::clone(&self.paths)
        };
        breval_obs::counter("paths_exported", ps.len() as u64);
        ps
    }

    /// Serialises the snapshot to MRT `TABLE_DUMP_V2` bytes: a peer index
    /// table followed by one `RIB_IPV4_UNICAST` record per announced prefix.
    /// Entries from 16-bit-only sessions store the `AS_TRANS`-substituted
    /// `AS_PATH` plus the true `AS4_PATH` (as real collectors do).
    #[must_use]
    pub fn to_mrt(&self, topology: &Topology) -> Vec<u8> {
        let table = mrt::PeerIndexTable {
            collector_id: 0x0A0A_0A0A,
            view_name: "breval-sim".into(),
            peers: self
                .collector_peers
                .iter()
                .enumerate()
                .map(|(i, cp)| mrt::PeerEntry {
                    bgp_id: i as u32 + 1,
                    addr: 0x0A00_0000 + i as u32,
                    asn: cp.asn,
                    two_byte_only: cp.two_byte_only,
                })
                .collect(),
        };
        let peer_index: std::collections::BTreeMap<Asn, u16> = self
            .collector_peers
            .iter()
            .enumerate()
            .map(|(i, cp)| (cp.asn, i as u16))
            .collect();

        // One entry per observation from a known peer, grouped per
        // announced prefix in observation order.
        let mut by_prefix: std::collections::BTreeMap<bgpwire::Ipv4Prefix, Vec<mrt::RibEntry>> =
            std::collections::BTreeMap::new();
        for (obs, (_, raw)) in self.observations.iter().zip(self.paths.iter_raw()) {
            let Some(&idx) = peer_index.get(&obs.vp) else {
                continue;
            };
            let two_byte = self.collector_peers[usize::from(idx)].two_byte_only;
            by_prefix
                .entry(obs.prefix)
                .or_default()
                .push(mrt::RibEntry {
                    peer_index: idx,
                    originated: SNAPSHOT_TIME,
                    attributes: path_attributes(topology, raw.iter().collect(), two_byte),
                });
        }

        let ribs: Vec<mrt::RibIpv4Unicast> = by_prefix
            .into_iter()
            .zip(0u32..)
            .map(|((prefix, entries), sequence)| mrt::RibIpv4Unicast {
                sequence,
                prefix,
                entries,
            })
            .collect();
        mrt::write_dump(&table, &ribs, SNAPSHOT_TIME)
    }
}

/// The observations as the rows of the former `Vec<RouteObservation>`,
/// each of which owned its path: `Debug` prints every row as
/// `RouteObservation { vp, origin, prefix, path, class }`, reading the path
/// from the store.
struct Rows<'a>(&'a RibSnapshot);

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self.0.observations.iter().zip(self.0.paths.iter_raw());
        f.debug_list()
            .entries(rows.map(|(obs, (_, path))| Row(obs, path)))
            .finish()
    }
}

/// One row of [`Rows`].
struct Row<'a>(&'a RouteObservation, RawHops<'a>);

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Row(obs, path) = self;
        f.debug_struct("RouteObservation")
            .field("vp", &obs.vp)
            .field("origin", &obs.origin)
            .field("prefix", &obs.prefix)
            .field("path", path)
            .field("class", &obs.class)
            .finish()
    }
}

/// Builds the path-attribute list for one RIB entry from its raw path.
fn path_attributes(
    topology: &Topology,
    path: Vec<Asn>,
    two_byte_session: bool,
) -> Vec<PathAttribute> {
    let mut classic: Vec<Community> = Vec::new();
    let mut large: Vec<LargeCommunity> = Vec::new();
    for c in collector_communities(topology, &path) {
        match c {
            AnyCommunity::Classic(c) => classic.push(c),
            AnyCommunity::Large(lc) => large.push(lc),
        }
    }
    let mut attrs = vec![PathAttribute::Origin(0)];
    if two_byte_session && path.iter().any(|a| a.is_four_byte()) {
        let legacy: Vec<Asn> = path.iter().map(|a| a.to_two_byte()).collect();
        attrs.push(PathAttribute::AsPath(vec![AsPathSegment::sequence(legacy)]));
        attrs.push(PathAttribute::As4Path(vec![AsPathSegment::sequence(path)]));
    } else {
        attrs.push(PathAttribute::AsPath(vec![AsPathSegment::sequence(path)]));
    }
    attrs.push(PathAttribute::NextHop(0x0A00_0001));
    if !classic.is_empty() {
        attrs.push(PathAttribute::Communities(classic));
    }
    if !large.is_empty() {
        attrs.push(PathAttribute::LargeCommunities(large));
    }
    attrs
}

/// Rebuilds a [`PathSet`] from MRT bytes. With `reconstruct_as4: true` the
/// modern `AS4_PATH` merge is applied; with `false` the legacy view (literal
/// `AS_TRANS` hops) is extracted.
pub fn pathset_from_mrt(bytes: &[u8], reconstruct_as4: bool) -> Result<PathSet, WireError> {
    let (table, ribs) = mrt::read_dump(bytes)?;
    let mut ps = PathSet::new();
    for rib in &ribs {
        for entry in &rib.entries {
            let vp = table.peers[usize::from(entry.peer_index)].asn;
            let as_path = entry.attributes.iter().find_map(|a| match a {
                PathAttribute::AsPath(s) => Some(flatten_segments(s)),
                _ => None,
            });
            let as4_path = entry.attributes.iter().find_map(|a| match a {
                PathAttribute::As4Path(s) => Some(flatten_segments(s)),
                _ => None,
            });
            let Some(as_path) = as_path else { continue };
            let hops = if reconstruct_as4 {
                match as4_path {
                    Some(as4) => bgpwire::attrs::reconstruct_as4(&as_path, &as4),
                    None => as_path,
                }
            } else {
                as_path
            };
            ps.push_hops(vp, hops);
        }
    }
    Ok(ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::asn::AS_TRANS;
    use topogen::TopologyConfig;

    fn snapshot() -> (Topology, RibSnapshot) {
        let topo = topogen::generate(&TopologyConfig::small(16));
        let snap = simulate(&topo);
        (topo, snap)
    }

    #[test]
    fn simulation_is_deterministic() {
        let topo = topogen::generate(&TopologyConfig::small(16));
        let a = simulate(&topo);
        let b = simulate(&topo);
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn full_feed_vps_see_nearly_everything() {
        let (topo, snap) = snapshot();
        let full: Vec<Asn> = topo
            .collector_peers
            .iter()
            .filter(|cp| cp.full_feed)
            .map(|cp| cp.asn)
            .collect();
        let n_origins = topo.as_count();
        for vp in full.iter().take(5) {
            let count = snap.observations.iter().filter(|o| o.vp == *vp).count();
            // Not 100 %: origins single-homed behind a partial-transit
            // provider are legitimately invisible outside that provider's
            // customer cone (the §6.1 mechanism).
            assert!(
                count as f64 > 0.90 * n_origins as f64,
                "full-feed VP {vp} sees only {count}/{n_origins}"
            );
        }
    }

    #[test]
    fn partial_feed_vps_export_customer_routes_only() {
        let (topo, snap) = snapshot();
        let partial: Vec<Asn> = topo
            .collector_peers
            .iter()
            .filter(|cp| !cp.full_feed)
            .map(|cp| cp.asn)
            .collect();
        assert!(!partial.is_empty());
        for obs in &snap.observations {
            if partial.contains(&obs.vp) {
                assert_eq!(obs.class, RouteClass::Customer);
            }
        }
    }

    #[test]
    fn pathset_views_differ_only_on_two_byte_vps() {
        let (topo, snap) = snapshot();
        let modern = snap.to_pathset(false);
        let legacy = snap.to_pathset(true);
        assert_eq!(modern.len(), legacy.len());
        let two_byte: Vec<Asn> = topo
            .collector_peers
            .iter()
            .filter(|cp| cp.two_byte_only)
            .map(|cp| cp.asn)
            .collect();
        let mut saw_as_trans = false;
        for ((m_vp, m), (l_vp, l)) in modern.iter().zip(legacy.iter()) {
            assert_eq!(m_vp, l_vp);
            if m != l {
                assert!(two_byte.contains(&m_vp));
                assert!(l.contains(&AS_TRANS));
                saw_as_trans = true;
            }
        }
        assert!(
            saw_as_trans,
            "expected at least one AS_TRANS-mangled path (two-byte VPs exist)"
        );
    }

    #[test]
    fn mrt_roundtrip_preserves_paths() {
        let (topo, snap) = snapshot();
        let bytes = snap.to_mrt(&topo);
        assert!(!bytes.is_empty());
        let modern = pathset_from_mrt(&bytes, true).unwrap();
        let legacy = pathset_from_mrt(&bytes, false).unwrap();
        // Every observation appears (possibly repeated per prefix).
        assert!(modern.len() >= snap.observations.len());
        // Modern reconstruction never contains AS_TRANS.
        assert!(modern.iter().all(|(_, hops)| !hops.contains(&AS_TRANS)));
        // Legacy view does, somewhere.
        assert!(legacy.iter().any(|(_, hops)| hops.contains(&AS_TRANS)));
    }

    #[test]
    fn observations_start_at_vp_and_end_at_origin() {
        let (_, snap) = snapshot();
        assert_eq!(snap.paths.len(), snap.observations.len());
        for (obs, (vp, path)) in snap.observations.iter().zip(snap.paths.iter()).take(500) {
            assert_eq!(vp, obs.vp);
            assert_eq!(path.first(), Some(&obs.vp));
            assert_eq!(path.last(), Some(&obs.origin));
        }
    }
}
