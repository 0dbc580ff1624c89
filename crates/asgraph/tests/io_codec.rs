//! Property tests for the flat typed-array codec (`asgraph::io`): every
//! dense structure round-trips byte-identically, and corrupt streams —
//! truncations at any cut point, arbitrary byte flips, oversized length
//! prefixes — produce `Err`, never a panic or an attacker-sized allocation.

use asgraph::io::{
    read_cone_sizes, read_csr_graph, read_ppdc_cones, write_cone_sizes, write_csr_graph,
    write_ppdc_cones, ByteReader, ByteWriter, IoError,
};
use asgraph::{cone, AsPath, Asn, CsrGraph, Link, PathSet, Rel};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small random relationship labelling: edges over a bounded ASN space
/// with random role labels; self edges are skipped and the first label of a
/// link wins.
fn arb_graph() -> impl Strategy<Value = BTreeMap<Link, Rel>> {
    proptest::collection::vec(((1u32..40), (1u32..40), (0u8..3)), 0..60).prop_map(|edges| {
        let mut rels = BTreeMap::new();
        for (a, b, kind) in edges {
            let Some(link) = Link::new(Asn(a), Asn(b)) else {
                continue;
            };
            let rel = match kind {
                0 => Rel::P2c { provider: Asn(a) },
                1 => Rel::P2p,
                _ => Rel::S2s,
            };
            rels.entry(link).or_insert(rel);
        }
        rels
    })
}

/// Random observed paths over the same ASN space, long enough that some
/// PPDC rows cross the sparse/dense cutoff and both row encodings appear.
fn arb_paths() -> impl Strategy<Value = PathSet> {
    proptest::collection::vec(proptest::collection::vec(1u32..40, 2..16), 0..30).prop_map(|paths| {
        let mut ps = PathSet::new();
        for hops in paths {
            let hops: Vec<Asn> = hops.into_iter().map(Asn).collect();
            ps.push(hops[0], AsPath::new(hops));
        }
        ps
    })
}

fn encode(rels: &BTreeMap<Link, Rel>, paths: &PathSet) -> (Vec<u8>, CsrGraph) {
    let csr = CsrGraph::build(rels);
    let cones = cone::customer_cone_sizes_csr(&csr);
    let ppdc = cone::ppdc_cones(paths, rels);
    let mut w = ByteWriter::new();
    write_csr_graph(&mut w, &csr);
    write_cone_sizes(&mut w, &cones);
    write_ppdc_cones(&mut w, &ppdc);
    (w.into_bytes(), csr)
}

fn decode_all(bytes: &[u8]) -> Result<(), IoError> {
    let mut r = ByteReader::new(bytes);
    let _ = read_csr_graph(&mut r)?;
    let _ = read_cone_sizes(&mut r)?;
    let _ = read_ppdc_cones(&mut r)?;
    r.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_is_byte_identical(graph in arb_graph(), paths in arb_paths()) {
        let (bytes, csr) = encode(&graph, &paths);
        let mut r = ByteReader::new(&bytes);
        let csr2 = read_csr_graph(&mut r).expect("csr decodes");
        let cones2 = read_cone_sizes(&mut r).expect("cones decode");
        let ppdc2 = read_ppdc_cones(&mut r).expect("ppdc decodes");
        r.finish().expect("stream fully consumed");

        // The decoded CSR answers neighbor queries identically.
        prop_assert_eq!(csr.node_count(), csr2.node_count());
        for id in 0..csr.node_count() as u32 {
            prop_assert_eq!(csr.customers(id), csr2.customers(id));
            prop_assert_eq!(csr.providers(id), csr2.providers(id));
            prop_assert_eq!(csr.peers(id), csr2.peers(id));
            prop_assert_eq!(csr.siblings(id), csr2.siblings(id));
        }
        // Derived analyses agree, and re-encoding is byte-identical.
        prop_assert_eq!(&cone::customer_cone_sizes_csr(&csr2), &cones2);
        let mut w = ByteWriter::new();
        write_csr_graph(&mut w, &csr2);
        write_cone_sizes(&mut w, &cones2);
        write_ppdc_cones(&mut w, &ppdc2);
        prop_assert_eq!(w.into_bytes(), bytes);
    }

    #[test]
    fn truncation_errors_never_panic(
        graph in arb_graph(),
        paths in arb_paths(),
        frac in 0.0f64..1.0,
    ) {
        let (bytes, _) = encode(&graph, &paths);
        // The stream is never empty (it always holds length prefixes), so a
        // strict prefix always exists.
        let cut = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        prop_assert!(decode_all(&bytes[..cut]).is_err());
    }

    #[test]
    fn byte_flips_never_panic(
        graph in arb_graph(),
        paths in arb_paths(),
        pos in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let (mut bytes, _) = encode(&graph, &paths);
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        // A flipped byte may still decode (payload bits) — it just must
        // never panic or allocate from an unvalidated length.
        let _ = decode_all(&bytes);
    }
}

#[test]
fn hybrid_ppdc_round_trips_both_row_forms() {
    // A 12-AS provider chain: AS2's cone (11 members) is dense at the
    // cutoff floor of 8, the tail cones are sparse — so one stream carries
    // both encodings and must round-trip byte-identically.
    let chain: Vec<Asn> = (1..=12).map(Asn).collect();
    let rels: BTreeMap<Link, Rel> = chain
        .windows(2)
        .map(|w| {
            let link = Link::new(w[0], w[1]).expect("distinct");
            (link, Rel::P2c { provider: w[0] })
        })
        .collect();
    let mut ps = PathSet::new();
    ps.push(chain[0], AsPath::new(chain));
    let ppdc = cone::ppdc_cones(&ps, &rels);
    // Sizes witness the split: 11 >= cutoff (dense), 2 < cutoff (sparse).
    assert_eq!(ppdc.size(Asn(2)), Some(11));
    assert_eq!(ppdc.size(Asn(11)), Some(2));

    let mut w = ByteWriter::new();
    write_ppdc_cones(&mut w, &ppdc);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let ppdc2 = read_ppdc_cones(&mut r).expect("hybrid ppdc decodes");
    r.finish().expect("stream fully consumed");
    for asn in (1..=12).map(Asn) {
        assert_eq!(ppdc2.members(asn), ppdc.members(asn));
        assert_eq!(ppdc2.size(asn), ppdc.size(asn));
    }
    let mut w = ByteWriter::new();
    write_ppdc_cones(&mut w, &ppdc2);
    assert_eq!(w.into_bytes(), bytes);
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let link = Link::new(Asn(1), Asn(2)).expect("distinct");
    let csr = CsrGraph::build(&BTreeMap::from([(link, Rel::P2c { provider: Asn(1) })]));
    let mut w = ByteWriter::new();
    write_csr_graph(&mut w, &csr);
    let mut bytes = w.into_bytes();
    // The stream starts with the indexer's u64 element count: claim 2^61
    // elements. The reader must refuse before reserving memory for them.
    bytes[..8].copy_from_slice(&(1u64 << 61).to_le_bytes());
    let mut r = ByteReader::new(&bytes);
    assert!(matches!(
        read_csr_graph(&mut r),
        Err(IoError::OversizedLength { .. })
    ));
}
