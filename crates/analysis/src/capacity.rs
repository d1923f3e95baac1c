//! Probability distribution of cache capacity under block-disabling (Eq. 3, Fig. 4).
//!
//! For a cache with `d` blocks where each block independently contains at least one
//! fault with probability `pbf = 1 - (1 - pfail)^k`, the number of *fault-free*
//! blocks follows `Binomial(d, 1 - pbf)`. The paper uses this distribution to show
//! that at `pfail = 0.001` a 32 KB / 64 B-block cache has a 99.9% probability of
//! retaining more than 50% of its capacity, i.e. block-disabling virtually always
//! beats word-disabling's fixed 50%.

use crate::block_faults::block_fault_probability;
use crate::combinatorics::{binomial_mean, binomial_pmf, binomial_sf, binomial_std_dev};
use crate::geometry::ArrayGeometry;

/// The probability distribution of the number of fault-free blocks in an array.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityDistribution {
    blocks: u64,
    block_fault_probability: f64,
    pmf: Vec<f64>,
}

impl CapacityDistribution {
    /// Builds the capacity distribution for `geometry` at per-cell failure
    /// probability `pfail` (Eq. 3 of the paper).
    #[must_use]
    pub fn new(geometry: &ArrayGeometry, pfail: f64) -> Self {
        let d = geometry.blocks();
        let pbf = block_fault_probability(geometry, pfail);
        let p_ok = 1.0 - pbf;
        let pmf = (0..=d).map(|x| binomial_pmf(d, x, p_ok)).collect();
        Self {
            blocks: d,
            block_fault_probability: pbf,
            pmf,
        }
    }

    /// Total number of blocks `d`.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Probability that an individual block contains at least one fault (`pbf`).
    #[must_use]
    pub fn block_fault_probability(&self) -> f64 {
        self.block_fault_probability
    }

    /// `P[exactly x blocks are fault free]`.
    #[must_use]
    pub fn prob_fault_free_blocks(&self, x: u64) -> f64 {
        self.pmf.get(x as usize).copied().unwrap_or(0.0)
    }

    /// `P[capacity > fraction]`, i.e. the probability that strictly more than
    /// `fraction * d` blocks are fault free.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn prob_capacity_above(&self, fraction: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&fraction));
        let threshold = (fraction * self.blocks as f64).floor() as u64;
        binomial_sf(self.blocks, threshold, 1.0 - self.block_fault_probability)
    }

    /// Mean number of fault-free blocks.
    #[must_use]
    pub fn mean_fault_free_blocks(&self) -> f64 {
        binomial_mean(self.blocks, 1.0 - self.block_fault_probability)
    }

    /// Mean capacity as a fraction of the full cache.
    #[must_use]
    pub fn mean_capacity(&self) -> f64 {
        self.mean_fault_free_blocks() / self.blocks as f64
    }

    /// Standard deviation of the number of fault-free blocks.
    #[must_use]
    pub fn std_dev_fault_free_blocks(&self) -> f64 {
        binomial_std_dev(self.blocks, 1.0 - self.block_fault_probability)
    }

    /// The full probability mass function indexed by number of fault-free blocks
    /// (`0..=d`), i.e. the series plotted in Fig. 4 of the paper (x-axis rescaled to
    /// a capacity percentage).
    #[must_use]
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// Returns the Fig. 4 series as `(capacity_fraction, probability)` pairs.
    #[must_use]
    pub fn capacity_series(&self) -> Vec<(f64, f64)> {
        self.pmf
            .iter()
            .enumerate()
            .map(|(x, &p)| (x as f64 / self.blocks as f64, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_distribution() -> CapacityDistribution {
        CapacityDistribution::new(&ArrayGeometry::ispass2010_l1(), 0.001)
    }

    #[test]
    fn pmf_sums_to_one() {
        let dist = paper_distribution();
        let total: f64 = dist.pmf().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "pmf sums to {total}");
    }

    #[test]
    fn paper_mean_and_std_dev() {
        // "This is a normal distribution with mean at 58% and standard deviation of 2.02."
        let dist = paper_distribution();
        let mean_frac = dist.mean_capacity();
        assert!(
            (0.57..0.60).contains(&mean_frac),
            "mean capacity should be ~58%, got {mean_frac}"
        );
        // The paper quotes the standard deviation in capacity percentage points (2.02%).
        let sd_fraction = dist.std_dev_fault_free_blocks() / dist.blocks() as f64;
        assert!(
            (0.018..0.023).contains(&sd_fraction),
            "std dev should be ~2% of capacity, got {sd_fraction}"
        );
    }

    #[test]
    fn paper_probability_of_more_than_half_capacity() {
        // "there is a 99.9% probability for a block-disable cache to have more than
        //  50% capacity"
        let dist = paper_distribution();
        let p = dist.prob_capacity_above(0.5);
        assert!(p > 0.999, "P[capacity > 50%] should exceed 0.999, got {p}");
    }

    #[test]
    fn zero_pfail_gives_full_capacity_with_certainty() {
        let dist = CapacityDistribution::new(&ArrayGeometry::ispass2010_l1(), 0.0);
        assert_eq!(dist.prob_fault_free_blocks(512), 1.0);
        assert_eq!(dist.mean_capacity(), 1.0);
        assert_eq!(dist.prob_capacity_above(0.99), 1.0);
        assert_eq!(dist.block_fault_probability(), 0.0);
    }

    #[test]
    fn certain_failure_gives_zero_capacity() {
        let dist = CapacityDistribution::new(&ArrayGeometry::ispass2010_l1(), 1.0);
        assert_eq!(dist.prob_fault_free_blocks(0), 1.0);
        assert_eq!(dist.mean_capacity(), 0.0);
        assert_eq!(dist.prob_capacity_above(0.0), 0.0);
    }

    #[test]
    fn out_of_range_block_count_has_zero_probability() {
        let dist = paper_distribution();
        assert_eq!(dist.prob_fault_free_blocks(10_000), 0.0);
    }

    #[test]
    fn capacity_series_covers_zero_to_one() {
        let dist = paper_distribution();
        let series = dist.capacity_series();
        assert_eq!(series.len(), 513);
        assert_eq!(series[0].0, 0.0);
        assert!((series.last().unwrap().0 - 1.0).abs() < 1e-12);
        // The mode should sit near 58% capacity.
        let (mode_cap, _) = series
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!((0.55..0.62).contains(&mode_cap), "mode at {mode_cap}");
    }

    #[test]
    fn higher_pfail_shifts_distribution_left() {
        let geom = ArrayGeometry::ispass2010_l1();
        let low = CapacityDistribution::new(&geom, 0.0005);
        let high = CapacityDistribution::new(&geom, 0.002);
        assert!(low.mean_capacity() > high.mean_capacity());
        assert!(low.prob_capacity_above(0.5) > high.prob_capacity_above(0.5));
    }
}
