//! Low-voltage survival analysis of a victim cache (Section III.A / Section V).
//!
//! The paper attaches a small fully-associative victim cache to the block-disabled
//! L1. Two implementations are considered:
//!
//! * **10T cells**: every entry is reliable below Vcc-min — full victim capacity.
//! * **6T cells + one 10T disable bit per entry**: entries containing a fault are
//!   disabled at low voltage. The paper conservatively evaluates this option with
//!   half of the 16 entries usable, noting that the analytical mean at
//!   `pfail = 0.001` is ~6.5 faulty entries.

use crate::block_faults::block_fault_probability;
use crate::combinatorics::{binomial_mean, binomial_pmf};
use crate::geometry::ArrayGeometry;

/// Cell technology used to build a structure that must survive below Vcc-min.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellTechnology {
    /// Standard 6-transistor SRAM cell — unreliable below Vcc-min.
    SixT,
    /// 10-transistor Schmitt-trigger cell — reliable below Vcc-min at ~2x area.
    TenT,
}

impl CellTechnology {
    /// Relative area of one cell of this technology versus a 6T cell.
    #[must_use]
    pub fn relative_area(self) -> f64 {
        match self {
            Self::SixT => 1.0,
            Self::TenT => 2.0,
        }
    }

    /// Transistors per cell.
    #[must_use]
    pub fn transistors(self) -> u64 {
        match self {
            Self::SixT => 6,
            Self::TenT => 10,
        }
    }

    /// Whether a cell of this technology can fail below Vcc-min.
    #[must_use]
    pub fn fails_below_vccmin(self) -> bool {
        matches!(self, Self::SixT)
    }
}

/// Expected number of faulty victim-cache entries at low voltage for a 6T victim
/// cache with per-entry disable bits.
#[must_use]
pub fn expected_faulty_entries(victim_geometry: &ArrayGeometry, pfail: f64) -> f64 {
    binomial_mean(
        victim_geometry.blocks(),
        block_fault_probability(victim_geometry, pfail),
    )
}

/// Expected number of *usable* victim-cache entries at low voltage.
#[must_use]
pub fn expected_usable_entries(
    victim_geometry: &ArrayGeometry,
    technology: CellTechnology,
    pfail: f64,
) -> f64 {
    match technology {
        CellTechnology::TenT => victim_geometry.blocks() as f64,
        CellTechnology::SixT => {
            victim_geometry.blocks() as f64 - expected_faulty_entries(victim_geometry, pfail)
        }
    }
}

/// Probability that exactly `usable` entries survive at low voltage for a 6T victim
/// cache with per-entry disable bits.
#[must_use]
pub fn prob_usable_entries(victim_geometry: &ArrayGeometry, pfail: f64, usable: u64) -> f64 {
    let pbf = block_fault_probability(victim_geometry, pfail);
    binomial_pmf(victim_geometry.blocks(), usable, 1.0 - pbf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mean_faulty_victim_entries_is_about_six_and_a_half() {
        // "analysis with pfail of 0.001 reveals that the mean number of faulty victim
        //  cache blocks is 6.5"
        let vc = ArrayGeometry::ispass2010_victim_cache();
        let faulty = expected_faulty_entries(&vc, 0.001);
        assert!(
            (6.0..7.2).contains(&faulty),
            "expected ~6.5 faulty victim entries, got {faulty}"
        );
    }

    #[test]
    fn ten_t_victim_cache_keeps_every_entry() {
        let vc = ArrayGeometry::ispass2010_victim_cache();
        assert_eq!(
            expected_usable_entries(&vc, CellTechnology::TenT, 0.001),
            16.0
        );
    }

    #[test]
    fn six_t_victim_cache_loses_entries_with_pfail() {
        let vc = ArrayGeometry::ispass2010_victim_cache();
        let at_low = expected_usable_entries(&vc, CellTechnology::SixT, 0.0005);
        let at_high = expected_usable_entries(&vc, CellTechnology::SixT, 0.002);
        assert!(at_low > at_high);
        assert!(at_high > 0.0);
        assert_eq!(expected_usable_entries(&vc, CellTechnology::SixT, 0.0), 16.0);
    }

    #[test]
    fn usable_entry_distribution_sums_to_one() {
        let vc = ArrayGeometry::ispass2010_victim_cache();
        let total: f64 = (0..=16).map(|u| prob_usable_entries(&vc, 0.001, u)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cell_technology_properties() {
        assert_eq!(CellTechnology::SixT.transistors(), 6);
        assert_eq!(CellTechnology::TenT.transistors(), 10);
        assert!(CellTechnology::SixT.fails_below_vccmin());
        assert!(!CellTechnology::TenT.fails_below_vccmin());
        assert!(CellTechnology::TenT.relative_area() > CellTechnology::SixT.relative_area());
    }
}
