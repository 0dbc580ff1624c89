//! Byte-identity regression pins for the simulated RIB and the byte streams
//! derived from it.
//!
//! The RIB digest was captured when every observation still owned its path
//! as a `Vec`; the RIB that keeps its paths in one path store must print the
//! identical rows (same routes, same paths, same order) at this seed. The
//! MRT dump and both path-set views read the RIB's paths back with their
//! prepending, and are pinned beside it. A digest change means simulation
//! output changed for existing users.

use topogen::{debug_digest, generate, Topology, TopologyConfig};

/// Digest of the RIB rows; see module docs.
const SMALL_16_RIB: u64 = 0xb36c_2a56_3e1b_afc9;
/// Digest of the MRT `TABLE_DUMP_V2` bytes (5,716,620 of them).
const SMALL_16_MRT: u64 = 0x5786_87bc_921a_0604;
/// Digest of the legacy (`AS_TRANS`-substituted) path-set view.
const SMALL_16_PATHS_LEGACY: u64 = 0x5b46_655f_2dc2_9508;
/// Digest of the modern path-set view.
const SMALL_16_PATHS: u64 = 0x29fd_4b27_7710_ac91;

fn world() -> (Topology, bgpsim::RibSnapshot) {
    let topo = generate(&TopologyConfig::small(16));
    let snap = bgpsim::simulate(&topo);
    (topo, snap)
}

#[test]
fn small_seed_16_rib_is_byte_identical() {
    let (_, snap) = world();
    assert_eq!(snap.digest(), SMALL_16_RIB, "got {:#018x}", snap.digest());
}

#[test]
fn small_seed_16_mrt_and_path_views_are_byte_identical() {
    let (topo, snap) = world();
    let mrt = snap.to_mrt(&topo);
    assert_eq!(mrt.len(), 5_716_620);
    let digest = debug_digest(&mrt);
    assert_eq!(digest, SMALL_16_MRT, "mrt: got {digest:#018x}");
    let digest = debug_digest(&snap.to_pathset(true));
    assert_eq!(digest, SMALL_16_PATHS_LEGACY, "legacy: got {digest:#018x}");
    let digest = debug_digest(&snap.to_pathset(false));
    assert_eq!(digest, SMALL_16_PATHS, "modern: got {digest:#018x}");
}
