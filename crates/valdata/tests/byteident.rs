//! Byte-identity pin of the RPSL validation source: the aut-num objects
//! generated over a fixed topology must not change when the way they read
//! the ground truth does.

use topogen::{debug_digest, generate, TopologyConfig};
use valdata::{rpsl, ValDataConfig};

/// `debug_digest` of the aut-num objects at `small(7)` and the default
/// validation config.
const AUTNUMS_SMALL_7: u64 = 0x3a3d_8dca_a2b1_69e5;

#[test]
fn rpsl_autnums_small_seed_7_are_byte_identical() {
    let topology = generate(&TopologyConfig::small(7));
    let objects = rpsl::generate_autnums(
        &topology,
        &topology.ground_truth_graph(),
        &ValDataConfig::default(),
    );
    let lines: usize = objects.iter().map(|o| o.policies.len()).sum();
    assert_eq!((objects.len(), lines), (13, 635));
    let digest = debug_digest(&objects);
    assert_eq!(digest, AUTNUMS_SMALL_7, "got {digest:#018x}");
}
