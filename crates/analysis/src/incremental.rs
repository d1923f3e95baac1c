//! Capacity analysis of the *incremental word-disabling* variant (Section IV.C,
//! Eq. 6, Fig. 7).
//!
//! Incremental word-disabling refines plain word-disabling: a pair of physical
//! blocks that is completely fault free keeps operating at full capacity even below
//! Vcc-min; a pair containing a subblock with more than four faulty words is
//! disabled outright (instead of condemning the whole cache); all remaining pairs
//! operate at half capacity exactly like plain word-disabling.

use crate::geometry::ArrayGeometry;
use crate::word_disable::{subblock_failure_probability, WordDisableParams};

/// Breakdown of block-pair states under incremental word-disabling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStateProbabilities {
    /// Probability that a block pair is completely fault free (full capacity).
    pub fault_free: f64,
    /// Probability that a block pair must be disabled (zero capacity).
    pub disabled: f64,
    /// Probability that a block pair operates at half capacity.
    pub half_capacity: f64,
}

impl PairStateProbabilities {
    /// Computes the three pair-state probabilities for a geometry at `pfail`.
    ///
    /// Following the paper, only data bits count here (`k` = data bits per block):
    /// the tag array of a word-disabled cache is built from robust 10T cells.
    #[must_use]
    pub fn new(geometry: &ArrayGeometry, params: &WordDisableParams, pfail: f64) -> Self {
        let k_data = geometry.data_cells_per_block() as f64;
        // pbpff = (1 - pfail)^(2k): both blocks of the pair are fault free.
        let fault_free = if pfail >= 1.0 {
            0.0
        } else {
            f64::exp(2.0 * k_data * f64::ln_1p(-pfail))
        };
        // pbpd = 1 - (1 - phbf)^4: any of the pair's 4 subblocks exceeds its budget.
        let phbf = subblock_failure_probability(params, pfail);
        let subblocks_per_pair = 2 * (geometry.data_bits_per_block()
            / (params.word_bits * params.words_per_subblock))
            .max(1);
        let disabled = if phbf <= 0.0 {
            0.0
        } else {
            -f64::exp_m1(subblocks_per_pair as f64 * f64::ln_1p(-phbf))
        };
        let half_capacity = (1.0 - fault_free - disabled).max(0.0);
        Self {
            fault_free,
            disabled,
            half_capacity,
        }
    }
}

/// Expected capacity of the incremental word-disabling scheme (Eq. 6):
/// `capacity = pbpff + (1 - pbpff - pbpd) / 2`.
#[must_use]
pub fn expected_capacity(geometry: &ArrayGeometry, params: &WordDisableParams, pfail: f64) -> f64 {
    let s = PairStateProbabilities::new(geometry, params, pfail);
    s.fault_free + s.half_capacity / 2.0
}

/// One point of the Fig. 7 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalSweepPoint {
    /// Per-cell probability of failure.
    pub pfail: f64,
    /// Expected capacity of the incremental word-disabling scheme.
    pub capacity: f64,
    /// Pair-state probability breakdown at this `pfail`.
    pub states: PairStateProbabilities,
}

/// Sweeps `pfail` from 0 to `max_pfail` and returns the capacity series of Fig. 7.
#[must_use]
pub fn sweep_capacity(
    geometry: &ArrayGeometry,
    params: &WordDisableParams,
    max_pfail: f64,
    steps: usize,
) -> Vec<IncrementalSweepPoint> {
    assert!(steps >= 2, "a sweep needs at least two points");
    (0..steps)
        .map(|i| {
            let pfail = max_pfail * i as f64 / (steps - 1) as f64;
            let states = PairStateProbabilities::new(geometry, params, pfail);
            IncrementalSweepPoint {
                pfail,
                capacity: states.fault_free + states.half_capacity / 2.0,
                states,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_setup() -> (ArrayGeometry, WordDisableParams) {
        (ArrayGeometry::ispass2010_l1(), WordDisableParams::ispass2010())
    }

    #[test]
    fn zero_pfail_gives_full_capacity() {
        let (geom, params) = paper_setup();
        assert!((expected_capacity(&geom, &params, 0.0) - 1.0).abs() < 1e-12);
        let s = PairStateProbabilities::new(&geom, &params, 0.0);
        assert_eq!(s.fault_free, 1.0);
        assert_eq!(s.disabled, 0.0);
        assert_eq!(s.half_capacity, 0.0);
    }

    #[test]
    fn pair_state_probabilities_sum_to_one() {
        let (geom, params) = paper_setup();
        for &p in &[0.0, 0.0001, 0.0005, 0.001, 0.003, 0.01, 0.5, 1.0] {
            let s = PairStateProbabilities::new(&geom, &params, p);
            let total = s.fault_free + s.disabled + s.half_capacity;
            assert!(
                (total - 1.0).abs() < 1e-9,
                "pfail={p}: states sum to {total}"
            );
            assert!(s.fault_free >= 0.0 && s.disabled >= 0.0 && s.half_capacity >= 0.0);
        }
    }

    #[test]
    fn capacity_starts_above_half_then_saturates_near_half_then_drops() {
        // Fig. 7 narrative: >50% at low pfail, ~50% in the middle, <50% at high pfail.
        let (geom, params) = paper_setup();
        let low = expected_capacity(&geom, &params, 0.0002);
        let mid = expected_capacity(&geom, &params, 0.004);
        let high = expected_capacity(&geom, &params, 0.01);
        assert!(low > 0.5, "low-pfail capacity should exceed 50%, got {low}");
        assert!(
            (0.40..=0.55).contains(&mid),
            "mid-pfail capacity should hover near 50%, got {mid}"
        );
        assert!(high < mid, "capacity should keep dropping, got {high} >= {mid}");
    }

    #[test]
    fn incremental_never_exceeds_one_or_goes_negative() {
        let (geom, params) = paper_setup();
        for point in sweep_capacity(&geom, &params, 0.02, 51) {
            assert!(point.capacity >= 0.0 && point.capacity <= 1.0);
        }
    }

    #[test]
    fn incremental_avoids_whole_cache_failure() {
        // Even at pfail where plain word-disable would almost surely be unusable, the
        // incremental scheme retains some capacity.
        let (geom, params) = paper_setup();
        let cap = expected_capacity(&geom, &params, 0.005);
        assert!(cap > 0.0);
    }

    #[test]
    fn capacity_is_monotone_nonincreasing_in_pfail() {
        let (geom, params) = paper_setup();
        let sweep = sweep_capacity(&geom, &params, 0.01, 101);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].capacity <= pair[0].capacity + 1e-12,
                "capacity increased from {} to {}",
                pair[0].capacity,
                pair[1].capacity
            );
        }
    }
}
