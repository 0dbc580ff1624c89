//! Memory bounds of the scale path on a 10k-AS topology: propagation reuses
//! its buffers across origins, and hybrid PPDC rows never cost more than the
//! flat all-bitset layout.

use asgraph::{cone, AsPath, Link, PathSet, Rel};
use bgpsim::{OriginRoutes, PropScratch, Propagator, SimGraph};
use std::collections::BTreeMap;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

/// Origins sampled evenly over the node ids.
const ORIGINS: usize = 16;
/// Steady-state allocation ceiling per origin: buffer reuse leaves only a
/// few bucket-queue stragglers, never a per-node cost.
const MAX_STEADY_ALLOCS_PER_ORIGIN: u64 = 64;

#[test]
fn propagation_and_ppdc_stay_bounded_at_10k() {
    let topology = topogen::generate(&topogen::TopologyConfig::scaled(10_000, 42));
    let g = SimGraph::build(&topology);
    let origins: Vec<u32> = (0..ORIGINS)
        .map(|i| (i * g.len() / ORIGINS) as u32)
        .collect();
    let vps: Vec<_> = topology
        .collector_peers
        .iter()
        .filter_map(|cp| g.node(cp.asn).map(|node| (cp.asn, node)))
        .collect();

    let prop = Propagator::new(&g);
    let mut routes = OriginRoutes::reusable();
    let mut scratch = PropScratch::new();
    let mut paths = PathSet::new();
    let mut steady_allocs = 0;
    for (i, &origin) in origins.iter().enumerate() {
        // Only the propagation itself is counted; path extraction below
        // allocates by design.
        let before = counting_alloc::thread_allocation_count();
        prop.propagate_into(origin, None, &mut routes, &mut scratch);
        if i > 0 {
            steady_allocs += counting_alloc::thread_allocation_count() - before;
        }
        assert!(routes.reached() > 0, "origin {origin} reached nothing");
        for &(vp, node) in &vps {
            if let Some(hops) = routes.path(node, &g) {
                paths.push(vp, AsPath::new(hops));
            }
        }
    }
    let per_origin = steady_allocs / (ORIGINS as u64 - 1);
    assert!(
        per_origin <= MAX_STEADY_ALLOCS_PER_ORIGIN,
        "steady-state propagation allocates {per_origin} times per origin \
         (ceiling {MAX_STEADY_ALLOCS_PER_ORIGIN}): buffer reuse is broken"
    );

    let rels: BTreeMap<Link, Rel> = topology.links.iter().map(|(l, r)| (*l, r.base)).collect();
    let stats = cone::ppdc_cones(&paths.sanitized(), &rels).storage_stats();
    assert!(
        stats.sparse_rows + stats.dense_rows > 0,
        "no PPDC rows: {stats:?}"
    );
    assert!(
        stats.hybrid_bytes <= stats.flat_bytes,
        "hybrid PPDC rows cost more than the flat layout: {stats:?}"
    );
}
