//! Analysis of a bit-fix-style repair scheme (after Wilkerson et al., ISCA 2008).
//!
//! Bit-fix sacrifices one way per set to store repair patterns for the defective
//! cells of the *other* ways in the set. This module analyses a set-adaptive
//! variant of the idea:
//!
//! * a set whose blocks are all fault free keeps its full associativity (the
//!   repair-pattern way is only claimed when the set actually contains a fault);
//! * in a faulty set, one way is sacrificed for pattern storage and every other
//!   block is *repaired* — usable despite its faults — as long as its tag cells
//!   are clean and it has at most [`BitFixParams::repair_word_budget`] faulty
//!   words (the pattern storage carved out of the sacrificed way is finite);
//! * a block that exceeds the repair budget, or whose tag is faulty, is disabled
//!   exactly as under block-disabling.
//!
//! The sacrificed way is chosen to absorb an unrepairable block whenever one
//! exists, so the per-set number of unusable blocks is `max(u, 1)` in a faulty
//! set, where `u` is the number of unrepairable blocks in the set. With blocks
//! failing independently this gives the exact expected capacity
//!
//! ```text
//! E[capacity] = 1 - q - ((1 - q)^a - c^a) / a
//! ```
//!
//! where `a` is the associativity, `c` the probability that a block is fault
//! free and `q` the probability that a block is unrepairable.

use crate::block_faults::{block_fault_probability, prob_at_least_one_fault};
use crate::combinatorics::binomial_pmf;
use crate::geometry::ArrayGeometry;

/// Parameters of the bit-fix repair organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFixParams {
    /// Word size in bits (32 in the paper's machine model).
    pub word_bits: u64,
    /// Maximum number of faulty words a single block may have and still be
    /// repaired from the patterns stored in the sacrificed way.
    pub repair_word_budget: u64,
}

impl BitFixParams {
    /// The configuration matching the paper's 64 B / 16-word blocks: 32-bit
    /// words, up to a quarter of the words (4) repairable per block.
    #[must_use]
    pub fn ispass2010() -> Self {
        Self {
            word_bits: 32,
            repair_word_budget: 4,
        }
    }

    /// Parameters for an arbitrary block: a quarter of the words (at least one)
    /// may be repaired.
    #[must_use]
    pub fn for_block(word_bits: u64, words_per_block: u64) -> Self {
        Self {
            word_bits,
            repair_word_budget: (words_per_block / 4).max(1),
        }
    }
}

impl Default for BitFixParams {
    fn default() -> Self {
        Self::ispass2010()
    }
}

/// Number of data words per block for this geometry.
#[must_use]
pub fn words_per_block(geometry: &ArrayGeometry, params: &BitFixParams) -> u64 {
    (geometry.data_bits_per_block() / params.word_bits).max(1)
}

/// Probability that a block is faulty *and* repairable: its tag/metadata cells
/// are clean and it has between 1 and `repair_word_budget` faulty words.
#[must_use]
pub fn repairable_block_probability(
    geometry: &ArrayGeometry,
    params: &BitFixParams,
    pfail: f64,
) -> f64 {
    let w = words_per_block(geometry, params);
    let pwf = prob_at_least_one_fault(params.word_bits, pfail);
    let tag_clean = 1.0
        - prob_at_least_one_fault(
            geometry.tag_bits_per_block() + geometry.meta_bits_per_block(),
            pfail,
        );
    let budget = params.repair_word_budget.min(w);
    let repair_words: f64 = (1..=budget).map(|j| binomial_pmf(w, j, pwf)).sum();
    tag_clean * repair_words
}

/// Probability that a block is *unrepairable*: faulty, and either its tag is
/// faulty or it has more faulty words than the repair budget.
#[must_use]
pub fn unrepairable_block_probability(
    geometry: &ArrayGeometry,
    params: &BitFixParams,
    pfail: f64,
) -> f64 {
    (block_fault_probability(geometry, pfail) - repairable_block_probability(geometry, params, pfail))
        .max(0.0)
}

/// Exact expected capacity of the set-adaptive bit-fix scheme at low voltage,
/// as a fraction of the fault-free cache.
///
/// Per set of associativity `a`: a fault-free set keeps all `a` blocks; a
/// faulty set loses its unrepairable blocks, plus one sacrificed way when every
/// faulty block happened to be repairable (`max(u, 1)` unusable blocks). Taking
/// expectations over independent blocks yields the closed form documented at
/// the module level.
///
/// # Panics
///
/// Panics if `associativity` is zero.
#[must_use]
pub fn expected_capacity(
    geometry: &ArrayGeometry,
    associativity: u64,
    params: &BitFixParams,
    pfail: f64,
) -> f64 {
    assert!(associativity > 0, "associativity must be non-zero");
    let a = associativity as f64;
    let c = 1.0 - block_fault_probability(geometry, pfail);
    let q = unrepairable_block_probability(geometry, params, pfail);
    let ai = associativity as i32;
    (1.0 - q - ((1.0 - q).powi(ai) - c.powi(ai)) / a).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_faults::mean_capacity;

    fn l1() -> ArrayGeometry {
        ArrayGeometry::ispass2010_l1()
    }

    #[test]
    fn zero_pfail_keeps_full_capacity() {
        let p = BitFixParams::ispass2010();
        assert_eq!(expected_capacity(&l1(), 8, &p, 0.0), 1.0);
        assert_eq!(repairable_block_probability(&l1(), &p, 0.0), 0.0);
        assert_eq!(unrepairable_block_probability(&l1(), &p, 0.0), 0.0);
    }

    #[test]
    fn certain_cell_failure_loses_everything() {
        let p = BitFixParams::ispass2010();
        // Every tag is faulty, so nothing is repairable.
        assert!(expected_capacity(&l1(), 8, &p, 1.0) < 1e-12);
    }

    #[test]
    fn paper_pfail_keeps_most_of_the_cache() {
        // At pfail = 0.001 the vast majority of faulty blocks have a handful of
        // faulty words and clean tags, so bit-fix retains far more capacity than
        // block-disabling (~87% vs ~58%).
        let p = BitFixParams::ispass2010();
        let cap = expected_capacity(&l1(), 8, &p, 0.001);
        assert!((0.80..0.95).contains(&cap), "bit-fix capacity {cap}");
    }

    #[test]
    fn bit_fix_dominates_block_disabling_analytically() {
        let p = BitFixParams::ispass2010();
        for &pfail in &[0.0, 0.0005, 0.001, 0.002, 0.005, 0.01] {
            let bitfix = expected_capacity(&l1(), 8, &p, pfail);
            let block = mean_capacity(&l1(), pfail);
            assert!(
                bitfix >= block - 1e-12,
                "pfail={pfail}: bit-fix {bitfix} below block-disable {block}"
            );
        }
    }

    #[test]
    fn capacity_is_monotone_in_pfail() {
        let p = BitFixParams::ispass2010();
        let caps: Vec<f64> = (0..40)
            .map(|i| expected_capacity(&l1(), 8, &p, i as f64 * 0.0005))
            .collect();
        for pair in caps.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "{} -> {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn larger_repair_budget_never_hurts() {
        let small = BitFixParams {
            word_bits: 32,
            repair_word_budget: 2,
        };
        let large = BitFixParams {
            word_bits: 32,
            repair_word_budget: 8,
        };
        for &pfail in &[0.001, 0.003, 0.01] {
            assert!(
                expected_capacity(&l1(), 8, &large, pfail)
                    >= expected_capacity(&l1(), 8, &small, pfail)
            );
        }
    }

    #[test]
    fn default_budget_is_a_quarter_of_the_block() {
        assert_eq!(BitFixParams::for_block(32, 16).repair_word_budget, 4);
        assert_eq!(BitFixParams::for_block(32, 2).repair_word_budget, 1);
        assert_eq!(BitFixParams::default(), BitFixParams::ispass2010());
        assert_eq!(words_per_block(&l1(), &BitFixParams::ispass2010()), 16);
    }
}
