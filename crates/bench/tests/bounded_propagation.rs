//! Memory bounds of the scale path on a 10k-AS topology: the sim graph is
//! built in a constant number of allocations, propagation reuses its buffers
//! across origins, scoped to the vantage points or not (and the scoped one
//! gives them the same paths), and hybrid PPDC rows never cost more than the flat
//! all-bitset layout. The path store imports and sanitises paths in a
//! constant number of allocations too, neither the simulation nor the
//! community-label compiler allocates per route observation, the PPDC
//! build allocates no bytes per hop, neither the path statistics nor
//! Gao's votes allocate per observed link, and a cone scratch sizes itself
//! once, on its first cone.

use asgraph::{cone, io, AsIndexer, AsPath, Asn, ConeScratch, CsrGraph, Link, PathSet, Rel};
use asinfer::{Classifier, PreparedPaths};
use bgpsim::{OriginRoutes, PropScratch, Propagator, Scope, SimGraph};
use std::collections::BTreeMap;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

/// Origins sampled evenly over the node ids.
const ORIGINS: usize = 16;
/// Steady-state allocation ceiling per origin: buffer reuse leaves only a
/// few bucket-queue stragglers, never a per-node cost.
const MAX_STEADY_ALLOCS_PER_ORIGIN: u64 = 64;
/// Allocation ceiling of `SimGraph::build`: the counting-sort CSR build
/// allocates per role and per array, never per node or per link.
const MAX_SIMGRAPH_ALLOCS: u64 = 64;
/// Allocation ceiling of filling a path store (`to_pathset`) or copying one
/// (`sanitized`): the store grows a few flat arrays, never one allocation
/// per path.
const MAX_PATH_STORE_ALLOCS: u64 = 128;
/// Allocation ceiling of a whole simulation, per origin: each worker reuses
/// its propagation and hop buffers, so an origin costs its observation list
/// and its path store, never one allocation per observation.
const MAX_SIMULATE_ALLOCS_PER_ORIGIN: u64 = 64;
/// Route observations per allocation that compiling the community labels
/// must at least reach: the decoder reads each path as a slice of the RIB's
/// path store and each route's communities from an iterator.
const MIN_OBSERVATIONS_PER_COMPILE_ALLOC: u64 = 16;
/// How much more the PPDC build may allocate, in bytes, over a path store
/// with every hop twice: its rows and graphs depend on the ASes, not on
/// how often they were seen.
const MAX_PPDC_BYTES_GROWTH_ON_DOUBLED_HOPS: f64 = 1.1;
/// Observed links per allocation that `PathSet::stats` must at least
/// reach: it fills flat id arrays and one CSR, so only the `BTreeSet` of
/// links it returns grows with the links, by one node per few links.
const MIN_LINKS_PER_STATS_ALLOC: u64 = 4;
/// Observed links per allocation that Gao must at least reach: it counts
/// votes in link-id arrays and repairs cycles over reused id arrays, so
/// only its `BTreeMap` output and the P2C edge set grow with the links.
const MIN_LINKS_PER_GAO_ALLOC: u64 = 2;
/// Allocation ceiling of a fresh scratch's first cone: its visited array
/// and its queue, each sized once for the whole graph.
const MAX_FIRST_CONE_ALLOCS: u64 = 2;

#[test]
fn propagation_and_ppdc_stay_bounded_at_10k() {
    let topology = topogen::generate(&topogen::TopologyConfig::scaled(10_000, 42));
    let before = counting_alloc::thread_allocation_count();
    let g = SimGraph::build(&topology);
    let build_allocs = counting_alloc::thread_allocation_count() - before;
    assert!(
        build_allocs <= MAX_SIMGRAPH_ALLOCS,
        "SimGraph::build allocates {build_allocs} times at {} ASes \
         (ceiling {MAX_SIMGRAPH_ALLOCS}): the build is no longer O(1) in allocations",
        g.len()
    );
    let origins: Vec<u32> = (0..ORIGINS)
        .map(|i| (i * g.len() / ORIGINS) as u32)
        .collect();
    let vps: Vec<_> = topology
        .collector_peers
        .iter()
        .filter_map(|cp| g.node(cp.asn).map(|node| (cp.asn, node)))
        .collect();

    let scope = Scope::new(&g, vps.iter().map(|&(_, node)| node));
    let full = Propagator::new(&g);
    let scoped = Propagator::with_scope(&scope);
    let mut routes = OriginRoutes::reusable();
    let mut scoped_routes = OriginRoutes::reusable();
    let mut scratch = PropScratch::new();
    let mut scoped_scratch = PropScratch::new();
    let mut paths = PathSet::new();
    let (mut steady_allocs, mut scoped_steady_allocs) = (0, 0);
    for (i, &origin) in origins.iter().enumerate() {
        // Only the propagations themselves are counted; path extraction
        // below allocates by design.
        let before = counting_alloc::thread_allocation_count();
        full.propagate_into(origin, None, &mut routes, &mut scratch);
        let between = counting_alloc::thread_allocation_count();
        scoped.propagate_into(origin, None, &mut scoped_routes, &mut scoped_scratch);
        if i > 0 {
            steady_allocs += between - before;
            scoped_steady_allocs += counting_alloc::thread_allocation_count() - between;
        }
        assert!(routes.reached() > 0, "origin {origin} reached nothing");
        for &(vp, node) in &vps {
            let hops = routes.path(node, &g);
            assert_eq!(
                scoped_routes.path(node, &g),
                hops,
                "origin {origin}: the VP-scoped propagator gives VP {vp} another path"
            );
            if let Some(hops) = hops {
                paths.push(vp, AsPath::new(hops));
            }
        }
    }
    for (what, allocs) in [("full", steady_allocs), ("VP-scoped", scoped_steady_allocs)] {
        let per_origin = allocs / (ORIGINS as u64 - 1);
        assert!(
            per_origin <= MAX_STEADY_ALLOCS_PER_ORIGIN,
            "steady-state {what} propagation allocates {per_origin} times per origin \
             (ceiling {MAX_STEADY_ALLOCS_PER_ORIGIN}): buffer reuse is broken"
        );
    }

    let before = counting_alloc::thread_allocation_count();
    let clean = paths.sanitized();
    let sanitize_allocs = counting_alloc::thread_allocation_count() - before;
    assert!(
        sanitize_allocs <= MAX_PATH_STORE_ALLOCS,
        "sanitized() allocates {sanitize_allocs} times for {} paths \
         (ceiling {MAX_PATH_STORE_ALLOCS}): it copies per path",
        paths.len()
    );

    let rels: BTreeMap<Link, Rel> = topology.links.iter().map(|(l, r)| (*l, r.base)).collect();
    let stats = cone::ppdc_cones(&clean, &rels).storage_stats();
    assert!(
        stats.sparse_rows + stats.dense_rows > 0,
        "no PPDC rows: {stats:?}"
    );
    assert!(
        stats.hybrid_bytes <= stats.flat_bytes,
        "hybrid PPDC rows cost more than the flat layout: {stats:?}"
    );
}

#[test]
fn path_import_allocates_o1_times() {
    let topology = topogen::generate(&topogen::TopologyConfig::small(7));
    let rib = bgpsim::simulate(&topology);
    let before = counting_alloc::thread_allocation_count();
    let paths = rib.to_pathset(false);
    let allocs = counting_alloc::thread_allocation_count() - before;
    assert_eq!(paths.len(), rib.observations.len());
    assert!(
        allocs <= MAX_PATH_STORE_ALLOCS,
        "to_pathset allocates {allocs} times for {} observations \
         (ceiling {MAX_PATH_STORE_ALLOCS}): it builds a Vec per path",
        rib.observations.len()
    );
}

/// Runs `f` at a thread cap of 1, so every allocation it makes lands on
/// this thread's counter; returns its result and that count.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    breval_par::with_thread_cap(Some(1), || {
        let before = counting_alloc::thread_allocation_count();
        let out = f();
        (out, counting_alloc::thread_allocation_count() - before)
    })
}

#[test]
fn simulation_allocates_per_origin_not_per_observation() {
    let topology = topogen::generate(&topogen::TopologyConfig::small(7));
    let (rib, allocs) = allocations_of(|| bgpsim::simulate(&topology));
    let ceiling = MAX_SIMULATE_ALLOCS_PER_ORIGIN * topology.as_count() as u64;
    assert!(
        allocs <= ceiling,
        "simulate allocates {allocs} times for {} origins and {} observations \
         (ceiling {ceiling}): it allocates per observation",
        topology.as_count(),
        rib.observations.len()
    );
}

#[test]
fn label_compile_allocates_less_than_once_per_observation() {
    let topology = topogen::generate(&topogen::TopologyConfig::small(7));
    let rib = bgpsim::simulate(&topology);
    let cfg = valdata::ValDataConfig::default();
    let (labels, allocs) = allocations_of(|| valdata::compile_communities(&topology, &rib, &cfg));
    assert!(!labels.is_empty());
    let ceiling = rib.observations.len() as u64 / MIN_OBSERVATIONS_PER_COMPILE_ALLOC;
    assert!(
        allocs <= ceiling,
        "compile_communities allocates {allocs} times for {} observations \
         (ceiling {ceiling}): it allocates per observation",
        rib.observations.len()
    );
}

#[test]
fn ppdc_allocation_does_not_grow_with_the_hop_count() {
    let topology = topogen::generate(&topogen::TopologyConfig::small(7));
    let clean = bgpsim::simulate(&topology).paths.sanitized();
    let asrank = asinfer::AsRank::new().infer(&clean);
    let mut doubled = clean.clone();
    doubled.append(&clean);
    let bytes_of = |paths: &PathSet| {
        breval_par::with_thread_cap(Some(1), || {
            let before = counting_alloc::thread_allocated_bytes();
            let cones = cone::ppdc_cones(paths, &asrank.rels);
            (cones, counting_alloc::thread_allocated_bytes() - before)
        })
    };
    let (once, once_bytes) = bytes_of(&clean);
    let (twice, twice_bytes) = bytes_of(&doubled);
    let encode = |cones: &asgraph::PpdcCones| {
        let mut w = io::ByteWriter::new();
        io::write_ppdc_cones(&mut w, cones);
        w.into_bytes()
    };
    assert_eq!(
        encode(&once),
        encode(&twice),
        "repeating every path changed the cones"
    );
    assert!(
        (twice_bytes as f64) < once_bytes as f64 * MAX_PPDC_BYTES_GROWTH_ON_DOUBLED_HOPS,
        "ppdc_cones allocates {once_bytes} bytes over {} paths but {twice_bytes} bytes \
         over the same paths twice: it allocates per hop",
        clean.len()
    );
}

#[test]
fn path_stats_and_gao_allocate_less_than_once_per_link() {
    let topology = topogen::generate(&topogen::TopologyConfig::small(7));
    let clean = bgpsim::simulate(&topology).paths.sanitized();
    let (stats, stats_allocs) = allocations_of(|| clean.stats());
    let links = stats.links().len() as u64;
    assert!(
        stats_allocs * MIN_LINKS_PER_STATS_ALLOC < links,
        "PathSet::stats allocates {stats_allocs} times for {links} observed links \
         (at most one per {MIN_LINKS_PER_STATS_ALLOC}): it allocates per AS or per link"
    );
    let gao = asinfer::GaoClassifier::new();
    let (inference, gao_allocs) =
        allocations_of(|| gao.infer_prepared(PreparedPaths::new(&clean, &stats)));
    assert_eq!(inference.rels.len() as u64, links);
    assert!(
        gao_allocs * MIN_LINKS_PER_GAO_ALLOC < links,
        "Gao allocates {gao_allocs} times for {links} observed links \
         (at most one per {MIN_LINKS_PER_GAO_ALLOC}): it allocates per vote or per cycle edge"
    );
}

#[test]
fn cone_scratch_sizes_itself_once() {
    // A provider chain 1 → 2 → … → 1000: AS 1's cone is every AS, so the
    // BFS queue ends up holding the whole graph.
    const CHAIN: u32 = 1_000;
    let indexer = AsIndexer::from_sorted((1..=CHAIN).map(Asn).collect());
    let links = (1..CHAIN).map(|a| {
        let link = Link::new(Asn(a), Asn(a + 1)).expect("distinct endpoints");
        (link, Rel::P2c { provider: Asn(a) })
    });
    let csr = CsrGraph::from_links(indexer, links);
    let mut scratch = ConeScratch::new();
    let (size, first) = allocations_of(|| csr.customer_cone_size(0, &mut scratch));
    assert_eq!(size, CHAIN as usize);
    assert!(
        first <= MAX_FIRST_CONE_ALLOCS,
        "the first cone over {CHAIN} ASes allocates {first} times \
         (ceiling {MAX_FIRST_CONE_ALLOCS}): the scratch grows its queue per cone"
    );
    let (_, next) = allocations_of(|| csr.customer_cone_size(0, &mut scratch));
    assert_eq!(next, 0, "a warm scratch allocated");
}
