//! Nearest-rank quantiles: every reported percentile is one of the measured
//! samples, never an interpolation between two.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`: the smallest
/// sample with at least `q·n` samples at or below it. `0.0` for no samples.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over already-sorted samples (no copy).
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(q1, median, q3)` by nearest rank.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile_sorted(&sorted, 0.25),
        quantile_sorted(&sorted, 0.5),
        quantile_sorted(&sorted, 0.75),
    )
}

/// The median over rounds of each round's nearest-rank `q`-quantile:
/// `values`, in the order they were measured, split into up to 20
/// consecutive rounds of at least 10 samples (one round below 20 samples).
/// Interference from outside the measured system that lasts less than half
/// the rounds does not move the result.
#[must_use]
pub fn round_quantile(values: &[f64], q: f64) -> f64 {
    let rounds = (values.len() / 10).clamp(1, 20);
    let per_round = values.len().div_ceil(rounds).max(1);
    let per: Vec<f64> = values.chunks(per_round).map(|c| quantile(c, q)).collect();
    median(&per)
}
