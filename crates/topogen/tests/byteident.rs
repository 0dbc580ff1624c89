//! Byte-identity regression snapshot for the streaming generator.
//!
//! The digests below were captured from the pre-streaming (fully
//! materialising) builder. The streaming rewrite must reproduce the exact
//! same topology — every AS record, link, relationship, vantage point and
//! IXP — at these seeds and sizes. If a digest changes, the generator's
//! output changed for existing users; that is a bug, not a baseline refresh.

use topogen::{debug_digest, evolve_steps, generate, ChurnConfig, TopologyConfig};

/// Captured from the pre-streaming builder; see module docs.
const SMALL_42: u64 = 0x5b1b_9a00_a8c6_5629;
const SMALL_7: u64 = 0xb91e_f879_3dcb_4305;
const DEFAULT_2018: u64 = 0x3b62_beaf_670e_27e1;

#[test]
fn small_seed_42_is_byte_identical() {
    let topo = generate(&TopologyConfig::small(42));
    assert_eq!(topo.digest(), SMALL_42, "got {:#018x}", topo.digest());
}

#[test]
fn small_seed_7_is_byte_identical() {
    let topo = generate(&TopologyConfig::small(7));
    assert_eq!(topo.digest(), SMALL_7, "got {:#018x}", topo.digest());
}

#[test]
fn default_config_is_byte_identical() {
    let topo = generate(&TopologyConfig::default());
    assert_eq!(topo.digest(), DEFAULT_2018, "got {:#018x}", topo.digest());
}

/// Captured at the same seed before churn read its neighbours from the
/// ground truth's CSR rows: the topology after five steps of default churn
/// and the `Debug` digest of the five step reports.
const CHURN_SMALL_7_FINAL: u64 = 0x19e6_4056_673c_9432;
const CHURN_SMALL_7_REPORTS: u64 = 0xe4e2_2a11_178a_984c;

#[test]
fn churn_small_seed_7_is_byte_identical() {
    let (snapshots, reports) = evolve_steps(
        &generate(&TopologyConfig::small(7)),
        &ChurnConfig::default(),
        5,
    );
    // Every step switches providers, so the providers-by-role read runs.
    let switches: Vec<usize> = reports.iter().map(|r| r.provider_switches).collect();
    assert_eq!(switches, [9, 8, 10, 5, 5]);
    let last = snapshots.last().expect("initial topology included");
    assert_eq!(
        last.digest(),
        CHURN_SMALL_7_FINAL,
        "got {:#018x}",
        last.digest()
    );
    let digest = debug_digest(&reports);
    assert_eq!(digest, CHURN_SMALL_7_REPORTS, "got {digest:#018x}");
}
