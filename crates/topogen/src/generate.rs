//! The topology generator.
//!
//! Construction order guarantees an acyclic provider hierarchy: Tier-1s first,
//! then large transits, small transits, hypergiants, special stubs, stubs —
//! every customer only ever selects providers created before it.
//!
//! The builder is **streaming**: links are emitted into the output map as
//! they are decided, provider candidates live in resident weighted pools
//! (`picker::PoolSet`) instead of per-AS cloned candidate vectors,
//! and the relationship post-passes (partial transit, hybrid links) rewrite
//! the link map in place instead of materialising O(E) snapshots. Output is
//! byte-identical to the pre-streaming builder at every seed and size the
//! shipped configs reach (`tests/byteident.rs` pins the digests).

use crate::alloc::AsnAllocator;
use crate::config::{per_region, TopologyConfig};
use crate::model::{AsInfo, CollectorPeer, SpecialRole, TierClass, Topology};
use crate::picker::{
    pool_stub_region, pool_transit_region, PoolSet, POOL_ALL_TRANSIT, POOL_LARGE_TRANSIT,
};
use asgraph::{Asn, GtRel, Link, Rel};
use asregistry::{org::OrgId, RirRegion};
use bgpwire::Ipv4Prefix;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Well-known Tier-1 ASNs used for the first clique members (flavour +
/// stable case-study targets; AS174 is the Cogent-like partial-transit AS).
const KNOWN_TIER1: [(u32, RirRegion); 12] = [
    (174, RirRegion::Arin),
    (701, RirRegion::Arin),
    (1299, RirRegion::RipeNcc),
    (2914, RirRegion::Arin),
    (3257, RirRegion::RipeNcc),
    (3320, RirRegion::RipeNcc),
    (3356, RirRegion::Arin),
    (3491, RirRegion::Arin),
    (5511, RirRegion::RipeNcc),
    (6453, RirRegion::Arin),
    (6461, RirRegion::Arin),
    (7018, RirRegion::Arin),
];

/// Well-known hypergiant ASNs (content networks).
const KNOWN_HYPERGIANTS: [(u32, RirRegion); 12] = [
    (15169, RirRegion::Arin),
    (16509, RirRegion::Arin),
    (8075, RirRegion::Arin),
    (20940, RirRegion::RipeNcc),
    (13335, RirRegion::Arin),
    (2906, RirRegion::Arin),
    (22822, RirRegion::Arin),
    (54113, RirRegion::Arin),
    (32934, RirRegion::Arin),
    (16276, RirRegion::RipeNcc),
    (714, RirRegion::Arin),
    (46489, RirRegion::Arin),
];

fn region_idx(region: RirRegion) -> usize {
    RirRegion::ALL
        .iter()
        .position(|r| *r == region)
        .expect("RirRegion::ALL is exhaustive")
}

/// Reusable DFS scratch for the sibling-stage provider-cycle check: the
/// `ConeScratch` epoch trick — bumping the epoch invalidates the whole
/// visited array in O(1), so thousands of reachability queries share one
/// allocation.
struct ReachScratch {
    visited: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl ReachScratch {
    fn new(n: usize) -> Self {
        ReachScratch {
            visited: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// `true` if `to` is reachable from `from` over `adj` (provider→customer
    /// edges). Same answer as an exhaustive set-based DFS; consumes no RNG.
    fn reaches(&mut self, adj: &[Vec<u32>], from: u32, to: u32) -> bool {
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
        self.stack.push(from);
        while let Some(cur) = self.stack.pop() {
            if cur == to {
                return true;
            }
            let i = cur as usize;
            if self.visited[i] == self.epoch {
                continue;
            }
            self.visited[i] = self.epoch;
            self.stack.extend(&adj[i]);
        }
        false
    }
}

struct Builder<'c> {
    cfg: &'c TopologyConfig,
    rng: ChaCha8Rng,
    alloc: AsnAllocator,
    ases: BTreeMap<Asn, AsInfo>,
    links: BTreeMap<Link, GtRel>,
    customer_count: BTreeMap<Asn, usize>,
    pools: PoolSet,
    prefix_counter: u32,
    org_counter: u32,
    // Populated by the stages, consumed by the finish step.
    tier1: Vec<Asn>,
    cogent: Asn,
    n_large_transit: usize,
    hypergiants: Vec<Asn>,
    all_stubs: Vec<Asn>,
    ixps: Vec<crate::model::Ixp>,
}

impl<'c> Builder<'c> {
    fn new(cfg: &'c TopologyConfig) -> Self {
        let reserved: Vec<Asn> = KNOWN_TIER1
            .iter()
            .chain(KNOWN_HYPERGIANTS.iter())
            .map(|(a, _)| Asn(*a))
            .collect();
        Builder {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            alloc: AsnAllocator::new(&reserved),
            ases: BTreeMap::new(),
            links: BTreeMap::new(),
            customer_count: BTreeMap::new(),
            pools: PoolSet::new(),
            prefix_counter: 0,
            org_counter: 0,
            tier1: Vec::new(),
            cogent: Asn(0),
            n_large_transit: 0,
            hypergiants: Vec::new(),
            all_stubs: Vec::new(),
            ixps: Vec::new(),
        }
    }

    /// Poisson-ish count: Knuth for small means, normal approximation above.
    fn sample_count(&mut self, mean: f64) -> usize {
        if mean <= 0.0 {
            return 0;
        }
        if mean < 25.0 {
            let l = (-mean).exp();
            let mut k = 0usize;
            let mut p = 1.0;
            loop {
                p *= self.rng.random::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
                if k > 1000 {
                    return k;
                }
            }
        } else {
            // Box–Muller normal approximation.
            let u1: f64 = self.rng.random::<f64>().max(1e-12);
            let u2: f64 = self.rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (mean + mean.sqrt() * z).round().max(0.0) as usize
        }
    }

    fn sample_region(&mut self) -> RirRegion {
        let x: f64 = self.rng.random();
        let mut acc = 0.0;
        for (i, r) in RirRegion::ALL.into_iter().enumerate() {
            acc += self.cfg.region_weights[i];
            if x < acc {
                return r;
            }
        }
        RirRegion::RipeNcc
    }

    fn sample_vp_region(&mut self) -> RirRegion {
        let x: f64 = self.rng.random();
        let mut acc = 0.0;
        for (i, r) in RirRegion::ALL.into_iter().enumerate() {
            acc += self.cfg.vp_region_weights[i];
            if x < acc {
                return r;
            }
        }
        RirRegion::RipeNcc
    }

    fn sample_country(&mut self, region: RirRegion) -> String {
        let codes = region.country_codes();
        codes[self.rng.random_range(0..codes.len())].to_owned()
    }

    fn next_org(&mut self) -> OrgId {
        self.org_counter += 1;
        OrgId(format!("@org-{:05}", self.org_counter))
    }

    fn next_prefixes(&mut self, mean: f64) -> Vec<Ipv4Prefix> {
        let n = (1 + self.sample_count((mean - 1.0).max(0.0))).min(8);
        (0..n)
            .map(|_| {
                self.prefix_counter += 1;
                // Lay prefixes out as /24s starting at 1.0.0.0.
                Ipv4Prefix::new(0x0100_0000 + self.prefix_counter * 256, 24).expect("24 ≤ 32")
            })
            .collect()
    }

    /// Publication probability given the AS's final size — run as a
    /// post-pass once customer counts are known: community documentation is
    /// a big-carrier habit.
    fn publish_probability(&self, region: RirRegion, tier: TierClass, customers: usize) -> f64 {
        let mult = match tier {
            TierClass::Tier1 => return self.cfg.publish_prob_tier1.clamp(0.0, 1.0),
            TierClass::Transit => {
                if customers >= self.cfg.publish_large_customer_threshold {
                    self.cfg.publish_mult_large_transit
                } else {
                    self.cfg.publish_mult_transit
                }
            }
            TierClass::Stub => self.cfg.publish_mult_stub,
            TierClass::Hypergiant => self.cfg.publish_mult_hypergiant,
        };
        (per_region(&self.cfg.publish_prob_region, region) * mult).clamp(0.0, 1.0)
    }

    /// Creates an AS. `fixed_asn` pins a well-known number; otherwise the
    /// allocator draws from the regional pools (possibly in a *different*
    /// region when the ASN was transferred).
    fn create_as(
        &mut self,
        region: RirRegion,
        tier: TierClass,
        special: Option<SpecialRole>,
        fixed_asn: Option<Asn>,
    ) -> Asn {
        // Inter-RIR transfer: the ASN was originally allocated elsewhere.
        let allocated_region =
            if fixed_asn.is_none() && self.rng.random_bool(self.cfg.transfer_prob) {
                let others: Vec<RirRegion> = RirRegion::ALL
                    .into_iter()
                    .filter(|r| *r != region)
                    .collect();
                others[self.rng.random_range(0..others.len())]
            } else {
                region
            };
        let asn = match fixed_asn {
            Some(a) => a,
            None => {
                let p4 = per_region(&self.cfg.four_byte_asn_prob, allocated_region);
                self.alloc
                    .allocate(allocated_region, p4, &mut self.rng)
                    .expect("ASN pools sized for the configured population")
            }
        };
        let country = self.sample_country(region);
        let org = self.next_org();
        // Decided by the post-pass once sizes are known.
        let publishes_communities = false;
        let prepend_p = if region == RirRegion::Lacnic {
            self.cfg.lacnic_prepend_prob
        } else {
            self.cfg.base_prepend_prob
        };
        // Path prepending is an edge-network TE habit; Tier-1s never prepend
        // (a prepending Tier-1 would systematically hide its customer links
        // from every lateral best path).
        let prepends = tier != TierClass::Tier1 && self.rng.random_bool(prepend_p);
        let mean_prefixes = match tier {
            TierClass::Transit | TierClass::Tier1 => self.cfg.transit_mean_prefixes,
            _ => self.cfg.mean_prefixes_per_as,
        };
        let prefixes = self.next_prefixes(mean_prefixes);
        // Routing-hygiene behaviour flags (Appendix C feature 12): MANRS
        // membership correlates with running a documented NOC; serial
        // hijacking is rare and concentrated among small networks.
        let manrs = self.rng.random_bool(match tier {
            TierClass::Tier1 => 0.6,
            TierClass::Transit => 0.18,
            TierClass::Hypergiant => 0.5,
            TierClass::Stub => 0.05,
        });
        let hijacker = tier == TierClass::Stub && self.rng.random_bool(0.004);
        self.ases.insert(
            asn,
            AsInfo {
                asn,
                region,
                allocated_region,
                country,
                org,
                tier,
                special,
                prefix_te: vec![None; prefixes.len()],
                prefixes,
                publishes_communities,
                prepends,
                manrs,
                hijacker,
            },
        );
        asn
    }

    /// The preferential-attachment weight of `asn` — the exact expression
    /// the pre-streaming builder evaluated per candidate on every pick; now
    /// evaluated once per customer-count change and cached in the pools.
    fn weight_of(&self, asn: Asn) -> f64 {
        let count = self.customer_count.get(&asn).copied().unwrap_or(0);
        ((count + 1) as f64).powf(self.cfg.pa_exponent)
    }

    /// Adds a link unless it already exists (first relationship wins).
    fn add_link(&mut self, a: Asn, b: Asn, rel: GtRel) -> bool {
        let Some(link) = Link::new(a, b) else {
            return false;
        };
        if self.links.contains_key(&link) {
            return false;
        }
        if let Rel::P2c { provider } = rel.base {
            if link.other(provider).is_some() {
                *self.customer_count.entry(provider).or_insert(0) += 1;
                let w = self.weight_of(provider);
                self.pools.set_weight(provider, w);
            }
        }
        self.links.insert(link, rel);
        true
    }

    fn p2c(&mut self, provider: Asn, customer: Asn) -> bool {
        self.add_link(provider, customer, GtRel::simple(Rel::P2c { provider }))
    }

    fn p2p(&mut self, a: Asn, b: Asn) -> bool {
        self.add_link(a, b, GtRel::simple(Rel::P2p))
    }

    /// Registers `asn` in pool `pool` with its current weight.
    fn enroll(&mut self, pool: usize, asn: Asn) {
        let w = self.weight_of(asn);
        self.pools.push(pool, asn, w);
    }

    /// Emits a full settlement-free mesh over `members` — bounded by the
    /// member count (used for the Tier-1 clique only).
    fn emit_clique(&mut self, members: &[Asn]) {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                self.p2p(members[i], members[j]);
            }
        }
    }

    /// Emits a sparse Poisson mesh: each member draws ~`degree` random
    /// partners. Link count is O(members × degree), never the full mesh.
    fn emit_poisson_mesh(&mut self, members: &[Asn], degree: f64) {
        let m = members.len();
        for i in 0..m {
            let k = self.sample_count(degree).min(m - 1);
            for _ in 0..k {
                let j = self.rng.random_range(0..m);
                if i != j {
                    self.p2p(members[i], members[j]);
                }
            }
        }
    }

    // ---- 1. Tier-1 clique ---------------------------------------------------
    fn stage_tier1(&mut self) {
        for i in 0..self.cfg.n_tier1 {
            let asn = if let Some(&(num, region)) = KNOWN_TIER1.get(i) {
                self.create_as(region, TierClass::Tier1, None, Some(Asn(num)))
            } else {
                let region = if i % 2 == 0 {
                    RirRegion::Arin
                } else {
                    RirRegion::RipeNcc
                };
                self.create_as(region, TierClass::Tier1, None, None)
            };
            self.tier1.push(asn);
        }
        self.cogent = *self
            .tier1
            .first()
            .expect("TopologyConfig::n_tier1 is at least 1");
        let clique = self.tier1.clone();
        self.emit_clique(&clique);
    }

    // ---- 2. Transit hierarchy -----------------------------------------------
    fn stage_transits(&mut self) {
        let n_large = ((self.cfg.n_transit as f64) * self.cfg.large_transit_share).round() as usize;
        self.n_large_transit = n_large;
        for i in 0..self.cfg.n_transit {
            let region = self.sample_region();
            let asn = self.create_as(region, TierClass::Transit, None, None);
            if i < n_large {
                // Large transit: 2–3 Tier-1 providers, chosen uniformly.
                let n_prov = 2 + usize::from(self.rng.random_bool(0.5));
                let mut t1_pool = self.tier1.clone();
                t1_pool.shuffle(&mut self.rng);
                for provider in t1_pool.into_iter().take(n_prov) {
                    self.p2c(provider, asn);
                }
                // Many large transits additionally *peer* with Tier-1s they do
                // not buy from (regional incumbents, settlement-free).
                if self.rng.random_bool(0.85) {
                    let n_peerings = 2 + self.sample_count(0.9);
                    for _ in 0..n_peerings {
                        let t1 = self.tier1[self.rng.random_range(0..self.tier1.len())];
                        self.p2p(t1, asn);
                    }
                }
                self.enroll(POOL_LARGE_TRANSIT, asn);
            } else {
                // Small transit: providers among earlier transits (same region
                // preferred) and occasionally a Tier-1 directly.
                let n_prov = (1 + self
                    .sample_count((self.cfg.transit_mean_providers - 1.0).max(0.0)))
                .min(4);
                for _ in 0..n_prov {
                    if self.rng.random_bool(self.cfg.transit_direct_t1_prob) {
                        let t1 = self.tier1[self.rng.random_range(0..self.tier1.len())];
                        self.p2c(t1, asn);
                        continue;
                    }
                    let cross = self.rng.random_bool(self.cfg.cross_region_provider_prob);
                    let pool = if cross {
                        POOL_ALL_TRANSIT
                    } else {
                        pool_transit_region(region_idx(region))
                    };
                    let pool = if self.pools.is_empty(pool) {
                        POOL_LARGE_TRANSIT
                    } else {
                        pool
                    };
                    if let Some(provider) = self.pools.pick(pool, &mut self.rng) {
                        if provider != asn {
                            self.p2c(provider, asn);
                        }
                    }
                }
            }
            self.enroll(pool_transit_region(region_idx(region)), asn);
            self.enroll(POOL_ALL_TRANSIT, asn);
        }
    }

    // ---- 2b. Global peering among transits ----------------------------------
    // Large transits interconnect globally (transatlantic private peering);
    // smaller transits do so occasionally.
    fn stage_transit_peering(&mut self) {
        let n_large = self.n_large_transit;
        for i in 0..n_large {
            let k = self.sample_count(self.cfg.large_transit_peering);
            for _ in 0..k {
                let j = self.rng.random_range(0..n_large);
                if i != j {
                    let (a, b) = (
                        self.pools.items(POOL_LARGE_TRANSIT)[i],
                        self.pools.items(POOL_LARGE_TRANSIT)[j],
                    );
                    self.p2p(a, b);
                }
            }
        }
        // The small transits are exactly the tail of the all-transit pool
        // (large ones were created first), so no O(n²) membership filter.
        let n_all = self.pools.items(POOL_ALL_TRANSIT).len();
        for si in n_large..n_all {
            let s = self.pools.items(POOL_ALL_TRANSIT)[si];
            let k = self.sample_count(self.cfg.small_transit_peering);
            for _ in 0..k {
                let peer = self.pools.items(POOL_ALL_TRANSIT)[self.rng.random_range(0..n_all)];
                if peer != s {
                    self.p2p(s, peer);
                }
            }
        }
    }

    // ---- 3. Hypergiants -----------------------------------------------------
    fn stage_hypergiants(&mut self) {
        for i in 0..self.cfg.n_hypergiant {
            let (region, fixed) = if let Some(&(num, region)) = KNOWN_HYPERGIANTS.get(i) {
                (region, Some(Asn(num)))
            } else {
                (self.sample_region(), None)
            };
            let asn = self.create_as(region, TierClass::Hypergiant, Some(SpecialRole::Cdn), fixed);
            // 1–2 Tier-1 transit providers for global reachability.
            let n_prov = 1 + usize::from(self.rng.random_bool(0.4));
            let mut t1_pool = self.tier1.clone();
            t1_pool.shuffle(&mut self.rng);
            for provider in t1_pool.iter().take(n_prov) {
                self.p2c(*provider, asn);
            }
            // Occasional settlement-free peering with remaining Tier-1s.
            for t1 in &t1_pool[n_prov..] {
                if self.rng.random_bool(self.cfg.hypergiant_t1_peer_prob) {
                    self.p2p(*t1, asn);
                }
            }
            // Dense peering with transits.
            let n_all = self.pools.items(POOL_ALL_TRANSIT).len();
            let n_tr = self
                .sample_count(self.cfg.hypergiant_transit_peers)
                .min(n_all);
            let mut pool = self.pools.items(POOL_ALL_TRANSIT).to_vec();
            pool.shuffle(&mut self.rng);
            for peer in pool.into_iter().take(n_tr) {
                self.p2p(peer, asn);
            }
            self.hypergiants.push(asn);
        }
    }

    // ---- 4. Special stubs (peer with Tier-1s; ground-truth P2P) -------------
    fn stage_special_stubs(&mut self) {
        let roles = [
            SpecialRole::AnycastDns,
            SpecialRole::Research,
            SpecialRole::Cloud,
            SpecialRole::Cdn,
        ];
        for i in 0..self.cfg.n_special_stub {
            let region = self.sample_region();
            let role = roles[i % roles.len()];
            let asn = self.create_as(region, TierClass::Stub, Some(role), None);
            let n_peers = (2 + self.sample_count(1.0)).min(self.tier1.len());
            let mut t1_pool = self.tier1.clone();
            t1_pool.shuffle(&mut self.rng);
            for t1 in t1_pool.iter().take(n_peers) {
                self.p2p(*t1, asn);
            }
            // One transit provider keeps them multi-connected.
            if let Some(provider) = self.pools.pick(POOL_LARGE_TRANSIT, &mut self.rng) {
                self.p2c(provider, asn);
            }
        }
    }

    // ---- 5. Stubs -----------------------------------------------------------
    fn stage_stubs(&mut self) {
        for _ in 0..self.cfg.n_stub {
            let region = self.sample_region();
            let asn = self.create_as(region, TierClass::Stub, None, None);
            let n_prov =
                (1 + self.sample_count((self.cfg.stub_mean_providers - 1.0).max(0.0))).min(4);
            for k in 0..n_prov {
                if k == 0 && self.rng.random_bool(self.cfg.stub_direct_t1_prob) {
                    let t1 = self.tier1[self.rng.random_range(0..self.tier1.len())];
                    self.p2c(t1, asn);
                    continue;
                }
                let cross = self.rng.random_bool(self.cfg.cross_region_provider_prob);
                let pool = if cross {
                    POOL_ALL_TRANSIT
                } else {
                    pool_transit_region(region_idx(region))
                };
                let pool = if self.pools.is_empty(pool) {
                    POOL_ALL_TRANSIT
                } else {
                    pool
                };
                if let Some(provider) = self.pools.pick(pool, &mut self.rng) {
                    self.p2c(provider, asn);
                }
            }
            self.enroll(pool_stub_region(region_idx(region)), asn);
            self.all_stubs.push(asn);
        }
    }

    // ---- 5b. Hypergiant–stub peering (stubs exist only now) ------------------
    fn stage_hypergiant_stub_peering(&mut self) {
        for hi in 0..self.hypergiants.len() {
            let hg = self.hypergiants[hi];
            let k = self
                .sample_count(self.cfg.hypergiant_stub_peers)
                .min(self.all_stubs.len());
            let mut pool = self.all_stubs.clone();
            pool.shuffle(&mut self.rng);
            for stub in pool.into_iter().take(k) {
                self.p2p(hg, stub);
            }
        }
    }

    // ---- 6. IXP peering meshes ----------------------------------------------
    fn stage_ixps(&mut self) {
        for (ri, region) in RirRegion::ALL.into_iter().enumerate() {
            let n_ixps = self.cfg.ixps_per_region[ri];
            if n_ixps == 0 {
                continue;
            }
            let degree = self.cfg.ixp_peering_degree[ri];
            for _ in 0..n_ixps {
                // Membership: most regional transits, a slice of regional
                // stubs.
                let mut members: Vec<Asn> = Vec::new();
                let p = (2.2 / n_ixps as f64).min(1.0);
                let n_transits = self.pools.items(pool_transit_region(ri)).len();
                for ti in 0..n_transits {
                    if self.rng.random_bool(p) {
                        members.push(self.pools.items(pool_transit_region(ri))[ti]);
                    }
                }
                let stub_target = ((members.len() as f64) * self.cfg.ixp_stub_share
                    / (1.0 - self.cfg.ixp_stub_share))
                    .round() as usize;
                let mut stub_pool = self.pools.items(pool_stub_region(ri)).to_vec();
                stub_pool.shuffle(&mut self.rng);
                members.extend(stub_pool.into_iter().take(stub_target));
                if members.len() < 3 {
                    continue;
                }
                self.ixps.push(crate::model::Ixp {
                    region,
                    members: members.iter().copied().collect(),
                });
                // Each member peers with ~Poisson(degree) random other
                // members — a bounded emitter, never the full mesh.
                self.emit_poisson_mesh(&members, degree);
            }
        }
    }

    // ---- 7. Partial-transit programs (§6.1 mechanism) ------------------------
    // Rewrites relationships in place: no O(E) link snapshot.
    fn stage_partial_transit(&mut self) {
        let cfg = self.cfg;
        let cogent = self.cogent;
        let tier1: BTreeSet<Asn> = self.tier1.iter().copied().collect();
        let Builder {
            links, ases, rng, ..
        } = self;
        for (link, rel) in links.iter_mut() {
            let Rel::P2c { provider } = rel.base else {
                continue;
            };
            let Some(customer) = link.other(provider) else {
                continue;
            };
            let customer_tier = ases.get(&customer).map(|i| i.tier);
            let customer_region = ases.get(&customer).map(|i| i.region);
            let provider_region = ases.get(&provider).map(|i| i.region);
            let provider_is_t1 = tier1.contains(&provider);

            let mut p = 0.0;
            if provider == cogent && customer_tier == Some(TierClass::Transit) {
                p = cfg.cogent_partial_transit_share;
            } else if provider_is_t1 && customer_tier == Some(TierClass::Transit) {
                p = cfg.t1_partial_transit_share;
            }
            // LACNIC customers of out-of-region providers often buy partial
            // transit (the AR-L degradation mechanism).
            if customer_region == Some(RirRegion::Lacnic)
                && provider_region.is_some()
                && provider_region != Some(RirRegion::Lacnic)
            {
                let extra = if customer_tier == Some(TierClass::Transit) {
                    cfg.lacnic_partial_transit_share
                } else {
                    cfg.lacnic_partial_transit_share / 2.0
                };
                p = p.max(extra);
            }
            if p > 0.0 && rng.random_bool(p.min(1.0)) {
                *rel = GtRel::partial(provider);
            }
        }
    }

    // ---- 8. Hybrid links (per-PoP differing relationships) -------------------
    // Also an in-place rewrite over the transit-transit links.
    fn stage_hybrid_links(&mut self) {
        let share = self.cfg.hybrid_link_share;
        let Builder {
            links, ases, rng, ..
        } = self;
        for (link, rel) in links.iter_mut() {
            let transit_transit = ases.get(&link.a()).map(|i| i.tier) == Some(TierClass::Transit)
                && ases.get(&link.b()).map(|i| i.tier) == Some(TierClass::Transit);
            if !transit_transit {
                continue;
            }
            match rel.base {
                // P2P at most PoPs, P2C at a minority PoP (the a-side
                // provides).
                Rel::P2p if rng.random_bool(share) => {
                    let provider = link.a();
                    *rel = GtRel::hybrid(Rel::P2p, Rel::P2c { provider });
                }
                // P2C contract at most PoPs, settlement-free at one (Giotsas
                // et al. 2014 report both mixes).
                Rel::P2c { provider } if rng.random_bool(share / 2.0) => {
                    *rel = GtRel::hybrid(Rel::P2c { provider }, Rel::P2p);
                }
                _ => {}
            }
        }
    }

    // ---- 9. Sibling organisations --------------------------------------------
    // Multi-AS organisations are carrier families first (Verizon runs
    // 701/702/703), enterprises second: draw two thirds of the sibling pool
    // from transits, the rest from stubs.
    fn stage_siblings(&mut self) {
        let n_all_transit = self.pools.items(POOL_ALL_TRANSIT).len();
        let n_sibling_ases = (((n_all_transit + self.all_stubs.len()) as f64)
            * self.cfg.sibling_as_share)
            .round() as usize;
        let mut transit_pool = self.pools.items(POOL_ALL_TRANSIT).to_vec();
        transit_pool.shuffle(&mut self.rng);
        let mut stub_pool = self.all_stubs.clone();
        stub_pool.shuffle(&mut self.rng);
        let mut sibling_candidates: Vec<Asn> = transit_pool
            .into_iter()
            .take(n_sibling_ases * 2 / 3)
            .chain(stub_pool.into_iter().take(n_sibling_ases / 3))
            .collect();
        sibling_candidates.shuffle(&mut self.rng);
        let mut pool = sibling_candidates.into_iter();
        // Dense-id provider→customer adjacency so far, for cycle checks on
        // the intra-org transit links added below.
        let index: BTreeMap<Asn, u32> = self
            .ases
            .keys()
            .enumerate()
            .map(|(i, a)| (*a, i as u32))
            .collect();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); index.len()];
        for (link, rel) in &self.links {
            if let Rel::P2c { provider } = rel.base {
                if let Some(customer) = link.other(provider) {
                    adj[index[&provider] as usize].push(index[&customer]);
                }
            }
        }
        let mut scratch = ReachScratch::new(index.len());
        loop {
            let group: Vec<Asn> = (&mut pool)
                .take(2 + self.rng.random_range(0..3usize))
                .collect();
            if group.len() < 2 {
                break;
            }
            // Merge organisations: everyone takes the first member's org.
            let org = group
                .first()
                .and_then(|asn| self.ases.get(asn))
                .map(|i| i.org.clone());
            if let Some(org) = org {
                for asn in &group[1..] {
                    if let Some(info) = self.ases.get_mut(asn) {
                        info.org = org.clone();
                    }
                }
            }
            // Links between consecutive members: half are plain S2S, half are
            // intra-org *transit* (parent AS provides to the subsidiary) — the
            // latter get tagged and validated like any P2C link, which is how
            // sibling relationships end up inside validation data (§4.2). An
            // intra-org transit link may only point "downhill": if the
            // would-be customer already (transitively) provides to the
            // would-be provider, the P2C direction would close a provider
            // cycle — fall back to S2S.
            for w in group.windows(2) {
                if self.rng.random_bool(0.6) {
                    let wants_transit = self.rng.random_bool(0.5);
                    let (pi, ci) = (index[&w[0]], index[&w[1]]);
                    let rel = if wants_transit && !scratch.reaches(&adj, ci, pi) {
                        adj[pi as usize].push(ci);
                        GtRel::simple(Rel::P2c { provider: w[0] })
                    } else {
                        GtRel::simple(Rel::S2s)
                    };
                    self.add_link(w[0], w[1], rel);
                }
            }
        }
    }

    // ---- 10. Community-dictionary publication (post-pass; sizes known) -------
    fn stage_publication(&mut self) {
        let meta: Vec<(Asn, RirRegion, TierClass)> = self
            .ases
            .values()
            .map(|info| (info.asn, info.region, info.tier))
            .collect();
        for (asn, region, tier) in meta {
            let customers = self.customer_count.get(&asn).copied().unwrap_or(0);
            let p = self.publish_probability(region, tier, customers);
            let decision = self.rng.random_bool(p);
            // The Cogent-like Tier-1 always documents its communities — the
            // §6.1 mechanism depends on its customer tags being decodable
            // (the real AS174's dictionary is in RADB).
            let publishes = decision || asn == self.cogent;
            if let Some(info) = self.ases.get_mut(&asn) {
                info.publishes_communities = publishes;
            }
        }
    }

    // ---- 10b. Per-prefix traffic engineering (needs final provider counts) ---
    fn stage_traffic_engineering(&mut self) {
        let provider_counts: BTreeMap<Asn, usize> = {
            let mut counts: BTreeMap<Asn, usize> = BTreeMap::new();
            for (link, rel) in &self.links {
                if let Rel::P2c { provider } = rel.base {
                    if let Some(customer) = link.other(provider) {
                        *counts.entry(customer).or_insert(0) += 1;
                    }
                }
            }
            counts
        };
        let meta: Vec<(Asn, usize)> = self
            .ases
            .values()
            .map(|i| (i.asn, i.prefixes.len()))
            .collect();
        for (asn, n_prefixes) in meta {
            let n_providers = provider_counts.get(&asn).copied().unwrap_or(0);
            let te: Vec<Option<u8>> = (0..n_prefixes)
                .map(|_| {
                    if n_providers >= 2
                        && n_prefixes >= 2
                        && self.rng.random_bool(self.cfg.te_pin_prob)
                    {
                        Some(self.rng.random_range(0..n_providers) as u8)
                    } else {
                        None
                    }
                })
                .collect();
            if let Some(info) = self.ases.get_mut(&asn) {
                info.prefix_te = te;
            }
        }
    }

    // ---- 11. Vantage points --------------------------------------------------
    fn stage_vantage_points(&mut self) -> Vec<CollectorPeer> {
        let mut collector_peers: Vec<CollectorPeer> = Vec::with_capacity(self.cfg.n_vantage_points);
        let mut vp_set: BTreeSet<Asn> = BTreeSet::new();
        // Route collectors peer with every Tier-1 (as RouteViews + RIS
        // combined do) and a couple of hypergiants.
        let seeds: Vec<Asn> = self
            .tier1
            .iter()
            .chain(self.hypergiants.iter().take(self.cfg.vp_hypergiants))
            .copied()
            .collect();
        for asn in seeds {
            vp_set.insert(asn);
            collector_peers.push(CollectorPeer {
                asn,
                full_feed: true,
                two_byte_only: false,
            });
        }
        let mut guard = 0;
        while collector_peers.len() < self.cfg.n_vantage_points
            && guard < self.cfg.n_vantage_points * 50
        {
            guard += 1;
            let region = self.sample_vp_region();
            let want_stub = self.rng.random_bool(self.cfg.vp_stub_share);
            let pool = if want_stub {
                pool_stub_region(region_idx(region))
            } else {
                pool_transit_region(region_idx(region))
            };
            if self.pools.is_empty(pool) {
                continue;
            }
            // Collectors attract big networks: preferential attachment again.
            let Some(asn) = self.pools.pick(pool, &mut self.rng) else {
                continue;
            };
            if !vp_set.insert(asn) {
                continue;
            }
            let two_byte_only =
                !asn.is_four_byte() && self.rng.random_bool(self.cfg.vp_two_byte_share);
            collector_peers.push(CollectorPeer {
                asn,
                full_feed: self.rng.random_bool(self.cfg.vp_full_feed_share),
                two_byte_only,
            });
        }
        collector_peers
    }
}

/// Generates a topology from `cfg`. Deterministic under `cfg.seed`.
#[must_use]
pub fn generate(cfg: &TopologyConfig) -> Topology {
    let _span = breval_obs::span!("generate");
    let mut b = Builder::new(cfg);
    b.stage_tier1();
    b.stage_transits();
    b.stage_transit_peering();
    b.stage_hypergiants();
    b.stage_special_stubs();
    b.stage_stubs();
    b.stage_hypergiant_stub_peering();
    b.stage_ixps();
    b.stage_partial_transit();
    b.stage_hybrid_links();
    b.stage_siblings();
    b.stage_publication();
    b.stage_traffic_engineering();
    let collector_peers = b.stage_vantage_points();

    breval_obs::counter("topology_ases", b.ases.len() as u64);
    breval_obs::counter("topology_links", b.links.len() as u64);
    breval_obs::counter("topology_collector_peers", collector_peers.len() as u64);
    Topology {
        ases: b.ases,
        links: b.links,
        tier1: b.tier1.into_iter().collect(),
        hypergiants: b.hypergiants.into_iter().collect(),
        cogent: b.cogent,
        collector_peers,
        ixps: b.ixps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Topology {
        generate(&TopologyConfig::small(42))
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(&TopologyConfig::small(7));
        let b = generate(&TopologyConfig::small(7));
        assert_eq!(a.as_count(), b.as_count());
        assert_eq!(a.link_count(), b.link_count());
        let la: Vec<_> = a.links.keys().collect();
        let lb: Vec<_> = b.links.keys().collect();
        assert_eq!(la, lb);
        let c = generate(&TopologyConfig::small(8));
        assert_ne!(
            a.links.keys().collect::<Vec<_>>(),
            c.links.keys().collect::<Vec<_>>(),
            "different seeds should differ"
        );
    }

    #[test]
    fn population_matches_config() {
        let cfg = TopologyConfig::small(42);
        let t = generate(&cfg);
        assert_eq!(t.as_count(), cfg.total_ases());
        assert_eq!(t.tier1.len(), cfg.n_tier1);
        assert_eq!(t.hypergiants.len(), cfg.n_hypergiant);
        assert_eq!(t.ases_of_tier(TierClass::Transit).len(), cfg.n_transit);
    }

    #[test]
    fn tier1_forms_p2p_clique() {
        let t = small();
        let t1: Vec<Asn> = t.tier1.iter().copied().collect();
        for i in 0..t1.len() {
            for j in (i + 1)..t1.len() {
                let link = Link::new(t1[i], t1[j]).unwrap();
                let rel = t.gt_rel(link).expect("clique link missing");
                assert_eq!(rel.base, Rel::P2p);
            }
        }
    }

    #[test]
    fn provider_hierarchy_is_acyclic() {
        let graph = small().ground_truth_graph();
        assert!(
            crate::provider_cycle_free(&graph),
            "provider cycle detected"
        );
    }

    #[test]
    fn every_as_is_connected_upward() {
        let t = small();
        let graph = t.ground_truth_graph();
        // Every non-Tier-1 AS must have at least one provider or peer
        // (reachability precondition for propagation). Ids follow `ases`.
        for (id, (asn, info)) in (0u32..).zip(&t.ases) {
            if info.tier == TierClass::Tier1 {
                continue;
            }
            assert!(
                !graph.providers(id).is_empty() || !graph.peers(id).is_empty(),
                "{asn} has no upstream"
            );
        }
    }

    #[test]
    fn cogent_runs_partial_transit() {
        let t = small();
        let partial: Vec<_> = t.links.iter().filter(|(_, r)| r.partial_transit).collect();
        assert!(!partial.is_empty(), "no partial-transit links generated");
        let cogent_partial = partial
            .iter()
            .filter(|(l, r)| r.base.provider() == Some(t.cogent) && l.contains(t.cogent))
            .count();
        assert!(
            cogent_partial > 0,
            "cogent has no partial-transit customers"
        );
    }

    #[test]
    fn special_stubs_peer_with_tier1() {
        let t = small();
        let special: Vec<&AsInfo> = t
            .ases
            .values()
            .filter(|i| i.tier == TierClass::Stub && i.special.is_some())
            .collect();
        assert!(!special.is_empty());
        let mut peered = 0;
        for info in &special {
            for t1 in &t.tier1 {
                if let Some(link) = Link::new(info.asn, *t1) {
                    if t.gt_rel(link).map(|r| r.base) == Some(Rel::P2p) {
                        peered += 1;
                    }
                }
            }
        }
        assert!(
            peered >= special.len(),
            "special stubs should peer with T1s"
        );
    }

    #[test]
    fn lacnic_region_has_population_and_low_publication() {
        let t = generate(&TopologyConfig::small(3));
        let lacnic: Vec<&AsInfo> = t
            .ases
            .values()
            .filter(|i| i.region == RirRegion::Lacnic)
            .collect();
        let arin: Vec<&AsInfo> = t
            .ases
            .values()
            .filter(|i| i.region == RirRegion::Arin)
            .collect();
        assert!(lacnic.len() > 50);
        let l_pub =
            lacnic.iter().filter(|i| i.publishes_communities).count() as f64 / lacnic.len() as f64;
        let ar_pub =
            arin.iter().filter(|i| i.publishes_communities).count() as f64 / arin.len() as f64;
        assert!(
            l_pub < ar_pub / 5.0,
            "LACNIC publication rate ({l_pub:.3}) must be far below ARIN ({ar_pub:.3})"
        );
    }

    #[test]
    fn registry_artifacts_reconstruct_regions() {
        let t = small();
        let iana = t.iana_table();
        let files = t.delegation_files("20180405");
        let map = asregistry::RegionMap::build(iana, &files);
        let mut checked = 0;
        for info in t.ases.values() {
            assert_eq!(
                map.region(info.asn),
                Some(info.region),
                "{} region mismatch",
                info.asn
            );
            checked += 1;
        }
        assert!(checked > 1000);
        // Transfers exist and the delegation refinement handles them.
        assert!(!t.transferred_asns().is_empty());
    }

    #[test]
    fn as2org_identifies_siblings() {
        let t = small();
        let org = t.as2org();
        let sibling_links: Vec<Link> = t
            .links
            .iter()
            .filter(|(_, r)| r.base == Rel::S2s)
            .map(|(l, _)| *l)
            .collect();
        assert!(!sibling_links.is_empty(), "no sibling links generated");
        for link in sibling_links {
            assert!(org.is_sibling_link(link), "{link} not detected as sibling");
        }
    }

    #[test]
    fn vantage_points_are_valid_ases() {
        let t = small();
        assert!(t.collector_peers.len() >= 50);
        for vp in &t.collector_peers {
            assert!(t.ases.contains_key(&vp.asn), "VP {} unknown", vp.asn);
            if vp.two_byte_only {
                assert!(!vp.asn.is_four_byte());
            }
        }
        // Some of each flavour.
        assert!(t.collector_peers.iter().any(|v| v.full_feed));
        assert!(t.collector_peers.iter().any(|v| !v.full_feed));
    }

    #[test]
    fn four_byte_asns_exist() {
        let t = small();
        let four = t.ases.keys().filter(|a| a.is_four_byte()).count();
        assert!(
            four > t.as_count() / 10,
            "need a sizable 32-bit population, got {four}"
        );
    }

    #[test]
    fn hybrid_links_exist_and_are_complex() {
        let t = generate(&TopologyConfig {
            hybrid_link_share: 0.05,
            ..TopologyConfig::small(42)
        });
        let hybrid = t.links.values().filter(|r| r.hybrid_alt.is_some()).count();
        assert!(hybrid > 0);
        assert!(t.complex_links().len() >= hybrid);
    }

    #[test]
    fn scaled_config_generates_and_stays_acyclic() {
        // A scale tier beyond the shipped configs: exercises the Fenwick
        // pick path end-to-end (pools larger than the exact-path cutoff are
        // exercised by the benchmark's 100k-AS tier; here we check the scaled
        // constructor's population plumbing at a size unit tests can afford).
        let cfg = TopologyConfig::scaled(4_000, 5);
        let t = generate(&cfg);
        assert_eq!(t.as_count(), cfg.total_ases());
        assert!(t.link_count() > t.as_count());
        assert!(
            t.links.iter().all(|(link, gt)| gt.base.is_valid_for(*link)),
            "a provider is not on its link"
        );
        assert!(crate::provider_cycle_free(&t.ground_truth_graph()));
    }
}
