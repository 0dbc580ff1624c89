//! Figs. 3 and 7–9 — 2D binned link distributions.
//!
//! For transit-transit (`TR°`) links, bin each link by a per-AS metric of its
//! two endpoints — (smaller, larger) — and compare the mass distribution of
//! *inferred* links against *validated* links. The top row / right column
//! clamp everything beyond the axis limits, exactly as the paper's figures do
//! ("the row above 150 … catch all transit degree equal or larger").

use asgraph::{Asn, Link};
use serde::{Deserialize, Serialize};

/// Heatmap axes configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeatmapConfig {
    /// Number of bins along the larger-metric (x) axis.
    pub x_bins: usize,
    /// Number of bins along the smaller-metric (y) axis.
    pub y_bins: usize,
    /// Clamp limit for the larger metric (values ≥ go to the last column).
    pub x_max: usize,
    /// Clamp limit for the smaller metric.
    pub y_max: usize,
}

impl HeatmapConfig {
    /// Fig. 3's axes: transit degree, 1500 × 150, 10×10 bins.
    #[must_use]
    pub fn transit_degree() -> Self {
        HeatmapConfig {
            x_bins: 10,
            y_bins: 10,
            x_max: 1500,
            y_max: 150,
        }
    }

    /// Figs. 7–8's axes: PPDC cone size, 750 × 45.
    #[must_use]
    pub fn ppdc() -> Self {
        HeatmapConfig {
            x_bins: 10,
            y_bins: 10,
            x_max: 750,
            y_max: 45,
        }
    }

    /// Fig. 9's axes: node degree, 1500 × 150.
    #[must_use]
    pub fn node_degree() -> Self {
        HeatmapConfig {
            x_bins: 10,
            y_bins: 10,
            x_max: 1500,
            y_max: 150,
        }
    }

    /// A defensively usable copy: every dimension clamped to at least 1.
    /// Zero bins would underflow the clamp index (`bins - 1`) and zero max
    /// would divide by zero in `bin`; a degenerate axis collapses to a
    /// single catch-all bin instead of panicking.
    #[must_use]
    pub fn sanitized(self) -> Self {
        HeatmapConfig {
            x_bins: self.x_bins.max(1),
            y_bins: self.y_bins.max(1),
            x_max: self.x_max.max(1),
            y_max: self.y_max.max(1),
        }
    }
}

/// A normalised 2D histogram of links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    /// Configuration used.
    pub config: HeatmapConfig,
    /// `cells[y][x]` = fraction of links in that bin (rows: smaller metric).
    pub cells: Vec<Vec<f64>>,
    /// Number of links binned.
    pub links: usize,
}

/// Base links per parallel work item in [`Heatmap::build`]. The effective
/// chunk is `breval_par::input_scaled_chunk(len, LINK_CHUNK)` — a function
/// of the link count only (never the thread count), so chunk boundaries are
/// thread-count invariant while the per-chunk bin buffers stay bounded at
/// million-link scale.
const LINK_CHUNK: usize = 512;

impl Heatmap {
    /// Builds a heatmap over `links`, reading each endpoint's metric through
    /// `metric`. The config is [`HeatmapConfig::sanitized`] first, so
    /// degenerate axes (zero bins / zero max) yield a 1-bin catch-all axis
    /// instead of panicking; the stored `config` is the sanitized one.
    ///
    /// Binning is sharded across the worker pool in fixed-size link chunks;
    /// per-chunk bin counts are merged by summation (order-independent), so
    /// the result is byte-identical at any thread count.
    #[must_use]
    pub fn build<'a, I, F>(links: I, metric: F, config: HeatmapConfig) -> Self
    where
        I: IntoIterator<Item = &'a Link>,
        F: Fn(Asn) -> usize + Sync,
    {
        let _span = breval_obs::span!("heatmap_build");
        let config = config.sanitized();
        let links: Vec<Link> = links.into_iter().copied().collect();
        let link_chunk = breval_par::input_scaled_chunk(links.len(), LINK_CHUNK);
        let chunks = links.len().div_ceil(link_chunk);
        // Per-chunk counts are one flat row-major array (y * x_bins + x)
        // instead of a Vec-of-Vecs: one allocation per chunk.
        let partials = breval_par::parallel_map(chunks, |c| {
            let lo = c * link_chunk;
            let hi = (lo + link_chunk).min(links.len());
            let mut counts = vec![0usize; config.x_bins * config.y_bins];
            for link in &links[lo..hi] {
                let (ma, mb) = (metric(link.a()), metric(link.b()));
                let (small, large) = (ma.min(mb), ma.max(mb));
                let x = bin(large, config.x_max, config.x_bins);
                let y = bin(small, config.y_max, config.y_bins);
                counts[y * config.x_bins + x] += 1;
            }
            counts
        });
        let mut counts = vec![0usize; config.x_bins * config.y_bins];
        for partial in partials {
            for (cell, pcell) in counts.iter_mut().zip(partial) {
                *cell += pcell;
            }
        }
        let total = links.len();
        breval_obs::counter("heatmap_links_binned", total as u64);
        let cells = counts
            .chunks(config.x_bins)
            .map(|row| {
                row.iter()
                    .map(|&c| c as f64 / total.max(1) as f64)
                    .collect()
            })
            .collect();
        Heatmap {
            config,
            cells,
            links: total,
        }
    }

    /// The fraction of mass in the lowest-left quadrant (both metrics in the
    /// bottom 30 % of their axes) — the paper's "vast majority of TR° links
    /// are between relatively small transit ASes" summary statistic.
    #[must_use]
    pub fn bottom_left_mass(&self) -> f64 {
        let yq = (self.config.y_bins as f64 * 0.3).ceil() as usize;
        let xq = (self.config.x_bins as f64 * 0.3).ceil() as usize;
        self.cells
            .iter()
            .take(yq)
            .flat_map(|row| row.iter().take(xq))
            .sum()
    }

    /// Total variation distance to another heatmap with the same shape
    /// (0 = identical distributions, 1 = disjoint).
    #[must_use]
    pub fn tv_distance(&self, other: &Heatmap) -> f64 {
        let mut d = 0.0;
        for (ra, rb) in self.cells.iter().zip(&other.cells) {
            for (a, b) in ra.iter().zip(rb) {
                d += (a - b).abs();
            }
        }
        d / 2.0
    }
}

/// Maps `value` into `0..bins`. Values `>= max` clamp into the last bin —
/// including the degenerate `max = 0` axis, where every value clamps.
/// `bins = 0` saturates to bin 0 rather than underflowing (callers go
/// through [`HeatmapConfig::sanitized`], so both degeneracies are belt-and-
/// braces here). The product is widened to 128 bits so a pathological
/// metric near `usize::MAX` cannot overflow `value * bins`.
fn bin(value: usize, max: usize, bins: usize) -> usize {
    let last = bins.saturating_sub(1);
    if value >= max {
        return last;
    }
    // value < max, so value * bins / max < bins; the cast cannot truncate.
    let idx = (value as u128 * bins as u128) / max.max(1) as u128;
    (idx as usize).min(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(a: u32, b: u32) -> Link {
        Link::new(Asn(a), Asn(b)).unwrap()
    }

    #[test]
    fn bins_clamp_and_normalise() {
        let cfg = HeatmapConfig {
            x_bins: 4,
            y_bins: 4,
            x_max: 40,
            y_max: 40,
        };
        // Metric = ASN value.
        let links = [link(5, 15), link(5, 100), link(39, 390)];
        let hm = Heatmap::build(links.iter(), |a| a.0 as usize, cfg);
        assert_eq!(hm.links, 3);
        let sum: f64 = hm.cells.iter().flatten().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // link(5, 100): larger=100 clamps to last column, smaller=5 → bin 0.
        assert!(hm.cells[0][3] > 0.0);
    }

    #[test]
    fn scaled_chunks_stay_thread_invariant_past_the_base() {
        // Enough links that `input_scaled_chunk` grows past the 512 base
        // (140k / 256 = 546): the scaled chunking must still bin exactly
        // like the 1-thread run — the chunk size is a function of the input
        // length only, so boundaries cannot move with the thread count.
        let cfg = HeatmapConfig {
            x_bins: 7,
            y_bins: 5,
            x_max: 5_000,
            y_max: 900,
        };
        let links: Vec<Link> = (0..140_000u32)
            .map(|i| link(i * 2 + 1, i * 2 + 2))
            .collect();
        let metric = |a: Asn| (a.0 as usize).wrapping_mul(37) % 7_001;
        let one =
            breval_par::with_thread_cap(Some(1), || Heatmap::build(links.iter(), metric, cfg));
        let four =
            breval_par::with_thread_cap(Some(4), || Heatmap::build(links.iter(), metric, cfg));
        assert_eq!(one, four);
        assert_eq!(one.links, 140_000);
    }

    #[test]
    fn bottom_left_mass_detects_concentration() {
        let cfg = HeatmapConfig {
            x_bins: 10,
            y_bins: 10,
            x_max: 100,
            y_max: 100,
        };
        let small: Vec<Link> = (0..20).map(|i| link(2 + i, 30 + i)).collect();
        let hm_small = Heatmap::build(small.iter(), |a| (a.0 % 10) as usize, cfg);
        assert!(hm_small.bottom_left_mass() > 0.9);
    }

    #[test]
    fn tv_distance_zero_for_identical() {
        let cfg = HeatmapConfig {
            x_bins: 3,
            y_bins: 3,
            x_max: 30,
            y_max: 30,
        };
        let links = [link(1, 2), link(5, 25)];
        let a = Heatmap::build(links.iter(), |x| x.0 as usize, cfg);
        let b = Heatmap::build(links.iter(), |x| x.0 as usize, cfg);
        assert_eq!(a.tv_distance(&b), 0.0);
        // Disjoint distributions → distance 1.
        let c = Heatmap::build([link(29, 299)].iter(), |x| x.0 as usize, cfg);
        assert!(a.tv_distance(&c) > 0.49);
    }

    #[test]
    fn empty_input_is_all_zero() {
        let hm = Heatmap::build(std::iter::empty(), |_| 0, HeatmapConfig::transit_degree());
        assert_eq!(hm.links, 0);
        assert!(hm.cells.iter().flatten().all(|c| *c == 0.0));
    }

    #[test]
    fn zero_bins_config_collapses_instead_of_panicking() {
        let cfg = HeatmapConfig {
            x_bins: 0,
            y_bins: 0,
            x_max: 100,
            y_max: 100,
        };
        let links = [link(1, 2), link(5, 25)];
        let hm = Heatmap::build(links.iter(), |a| a.0 as usize, cfg);
        // Sanitization collapses each zero-bin axis to one catch-all bin.
        assert_eq!((hm.config.x_bins, hm.config.y_bins), (1, 1));
        assert_eq!(hm.cells.len(), 1);
        assert_eq!(hm.cells[0].len(), 1);
        assert!((hm.cells[0][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_max_config_clamps_everything_to_the_last_bin() {
        let cfg = HeatmapConfig {
            x_bins: 4,
            y_bins: 4,
            x_max: 0,
            y_max: 0,
        };
        let links = [link(1, 2), link(5, 25), link(7, 9)];
        let hm = Heatmap::build(links.iter(), |a| a.0 as usize, cfg);
        // max sanitizes to 1, so every metric >= 1 lands in the top bin;
        // no divide-by-zero either way.
        assert_eq!(hm.links, 3);
        let sum: f64 = hm.cells.iter().flatten().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((hm.cells[3][3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn huge_metric_values_do_not_overflow_binning() {
        let cfg = HeatmapConfig {
            x_bins: 10,
            y_bins: 10,
            x_max: usize::MAX,
            y_max: usize::MAX,
        };
        let links = [link(1, 2)];
        // value * bins would overflow usize; the widened arithmetic must
        // still place usize::MAX - 1 in the top decile.
        let hm = Heatmap::build(links.iter(), |_| usize::MAX - 1, cfg);
        assert!((hm.cells[9][9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_is_total_and_in_range() {
        for (value, max, bins) in [
            (0, 0, 0),
            (5, 0, 4),
            (5, 10, 0),
            (usize::MAX, usize::MAX, usize::MAX),
            (usize::MAX - 1, usize::MAX, 10),
            (3, 10, 10),
        ] {
            let b = bin(value, max, bins);
            assert!(b <= bins.saturating_sub(1), "bin({value},{max},{bins})={b}");
        }
        assert_eq!(bin(3, 10, 10), 3);
        assert_eq!(bin(9, 10, 10), 9);
        assert_eq!(bin(10, 10, 10), 9);
    }
}
