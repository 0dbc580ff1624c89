//! Property-based tests for the log-bucketed [`Histogram`] and its bucket
//! arithmetic — the quantiles reported in `run_manifest.json` lean on these
//! invariants.

use breval_obs::{bucket_index, bucket_upper, Histogram};
use proptest::prelude::*;

#[test]
fn bucket_edges_at_zero_and_max() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_upper(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(u64::MAX), 64);
    assert_eq!(bucket_upper(64), u64::MAX);
    assert_eq!(bucket_upper(65), u64::MAX, "saturates past the last bucket");
    // Power-of-two boundaries: 2^i − 1 closes bucket i, 2^i opens i + 1.
    for i in 1..64usize {
        assert_eq!(bucket_index((1u64 << i) - 1), i);
        assert_eq!(bucket_index(1u64 << i), i + 1);
    }
}

#[test]
fn empty_histogram_is_all_zero() {
    let h = Histogram::new();
    assert_eq!(h.count(), 0);
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(h.quantile(q), 0);
    }
}

proptest! {
    /// Every value lands in a bucket whose bounds contain it.
    #[test]
    fn value_within_its_bucket_bounds(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(v <= bucket_upper(i));
        if i > 0 {
            prop_assert!(v > bucket_upper(i - 1));
        }
    }

    /// `bucket_index` is monotone: a larger value never maps to a smaller
    /// bucket.
    #[test]
    fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
    }

    /// Recorded counts round-trip exactly, and each reported quantile is a
    /// conservative (upper) bound on the true quantile value.
    #[test]
    fn count_roundtrip_and_conservative_quantiles(
        mut values in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil().max(1.0) as usize).min(values.len());
            let true_q = values[rank - 1];
            prop_assert!(
                h.quantile(q) >= true_q,
                "q={} reported {} < true {}", q, h.quantile(q), true_q
            );
        }
        // The maximum is bounded by its own bucket.
        let max = *values.last().expect("non-empty");
        prop_assert_eq!(h.quantile(1.0), bucket_upper(bucket_index(max)));
    }

    /// Quantiles are monotone in `q`.
    #[test]
    fn quantiles_monotone_in_q(values in prop::collection::vec(any::<u64>(), 0..100)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for pair in qs.windows(2) {
            prop_assert!(h.quantile(pair[0]) <= h.quantile(pair[1]));
        }
    }

    /// Merging equals recording the concatenation, and quantiles never
    /// shrink under merge (monotone merge).
    #[test]
    fn merge_matches_concatenation(
        a in prop::collection::vec(any::<u64>(), 0..100),
        b in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut ha = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = Histogram::new();
        for &v in &b {
            hb.record(v);
        }
        let mut concat = Histogram::new();
        for &v in a.iter().chain(&b) {
            concat.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), concat.count());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), concat.quantile(q));
            // Monotone: folding more data in can only hold or raise the max.
            prop_assert!(merged.quantile(1.0) >= ha.quantile(1.0));
            prop_assert!(merged.quantile(1.0) >= hb.quantile(1.0));
        }
    }
}
