//! Wire-format demo: export the simulated collector state to real MRT
//! `TABLE_DUMP_V2` bytes, read it back two ways, and show how a legacy
//! decoder (ignoring `AS4_PATH`) manufactures the spurious `AS_TRANS`
//! relationships that §4.2 cleans away.
//!
//! ```sh
//! cargo run --release --example mrt_roundtrip
//! ```

use breval::asgraph::asn::AS_TRANS;
use breval::bgpsim::snapshot::pathset_from_mrt;
use breval::bgpwire::{AsnEncoding, Community, Ipv4Prefix, UpdateMessage};
use breval::topogen::{self, TopologyConfig};

fn main() {
    // --- single UPDATE message over a 16-bit session --------------------------
    let prefix: Ipv4Prefix = "203.0.113.0/24".parse().expect("valid prefix");
    let update = UpdateMessage::announcement(
        vec![prefix],
        vec![
            breval::asgraph::Asn(3356),
            breval::asgraph::Asn(200_100), // 4-byte ASN
        ],
        vec![Community::new(3356, 100)],
    );
    let bytes = update.encode(AsnEncoding::TwoByte);
    println!("UPDATE encoded for a 16-bit peer: {} bytes", bytes.len());
    let mut slice = &bytes[..];
    let decoded = UpdateMessage::decode(&mut slice, AsnEncoding::TwoByte).expect("decodes");
    println!(
        "  legacy AS_PATH view: {:?}",
        decoded.as_path_legacy().unwrap()
    );
    println!("  AS4-reconstructed:   {:?}", decoded.as_path().unwrap());

    // --- full RIB dump --------------------------------------------------------
    let topology = topogen::generate(&TopologyConfig::small(7));
    let snapshot = breval::bgpsim::simulate(&topology);
    let mrt = snapshot.to_mrt(&topology);
    println!(
        "\nMRT TABLE_DUMP_V2 dump: {:.1} MiB for {} observations",
        mrt.len() as f64 / (1024.0 * 1024.0),
        snapshot.observations.len()
    );

    let modern = pathset_from_mrt(&mrt, true).expect("modern read");
    let legacy = pathset_from_mrt(&mrt, false).expect("legacy read");
    let legacy_as_trans = legacy
        .iter()
        .filter(|(_, hops)| hops.contains(&AS_TRANS))
        .count();
    let modern_as_trans = modern
        .iter()
        .filter(|(_, hops)| hops.contains(&AS_TRANS))
        .count();
    println!("paths containing AS23456 (AS_TRANS):");
    println!("  legacy decoder (ignores AS4_PATH): {legacy_as_trans}");
    println!("  modern decoder (reconstructs):     {modern_as_trans}");
    println!(
        "\nEvery legacy AS_TRANS path is a potential spurious validation label —\n\
         the paper found 15 such relationships in the 2018 validation data (§4.2)."
    );

    breval::obs::write_run_manifest("mrt_roundtrip", 7);
}
