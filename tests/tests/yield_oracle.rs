//! Pins the yield executor, `FleetStudy`, to the linear-scan oracle of
//! `vccmin_tests::yield_oracle`, which rebuilds every die from public calls:
//!
//! * the executor's histograms, dead counts and population size equal the
//!   oracle's tally, and every yield-curve cell equals the fraction of
//!   oracle dies operational at that voltage — with the L2 floor off and on,
//!   over proptest-drawn populations, grids, shard sizes and seeds;
//! * the oracle's per-die flags show the structure the executor's binary
//!   search relies on: each scheme's flags are a run of operational voltages
//!   from the top of the grid, and the L2 floor only ever clears flags.

use proptest::prelude::*;

use vccmin_core::experiments::fleet::{FleetParams, FleetStudy};
use vccmin_core::experiments::yield_study::YieldParams;
use vccmin_tests::yield_oracle;

fn tiny() -> YieldParams {
    YieldParams {
        dies: 8,
        steps: 5,
        ..YieldParams::smoke()
    }
}

/// Runs the executor and the oracle over the same campaign and asserts they
/// agree on the histograms, dead counts and population size, and on every
/// yield-curve cell.
fn assert_fleet_matches_the_oracle(params: &FleetParams) {
    let fleet = FleetStudy::run_parallel(params);
    let dies = yield_oracle::scan(&params.yields);
    let oracle = yield_oracle::tally(params, &dies);
    assert_eq!(fleet.hist, oracle.hist, "{params:?}");
    assert_eq!(fleet.dead, oracle.dead, "{params:?}");
    assert_eq!(fleet.dies, oracle.dies, "{params:?}");
    let cells = yield_oracle::yield_cells(&dies, fleet.grid.len());
    let curve = fleet.yield_curve();
    assert_eq!(curve.rows.len(), cells.len());
    for ((voltage, row), expected) in curve.rows.iter().zip(&cells) {
        assert_eq!(row, expected, "yield at {voltage}: {params:?}");
    }
}

#[test]
fn fleet_matches_the_oracle_with_and_without_the_l2_floor() {
    for include_l2 in [false, true] {
        assert_fleet_matches_the_oracle(&FleetParams {
            yields: YieldParams {
                include_l2,
                ..YieldParams::smoke()
            },
            shard_dies: 5,
        });
    }
}

#[test]
fn operational_flags_form_a_prefix_and_yield_is_monotone() {
    for include_l2 in [false, true] {
        let params = YieldParams {
            include_l2,
            ..tiny()
        };
        let dies = yield_oracle::scan(&params);
        for die in &dies {
            for flags in die {
                let usable = flags.iter().take_while(|&&ok| ok).count();
                assert!(
                    flags[usable..].iter().all(|&ok| !ok),
                    "operational flags must be a true-prefix: {flags:?}"
                );
            }
        }
        let cells = yield_oracle::yield_cells(&dies, params.steps);
        for pair in cells.windows(2) {
            for (lower, higher) in pair[1].iter().zip(&pair[0]) {
                assert!(lower <= higher, "yield must not grow as voltage drops");
            }
        }
    }
}

#[test]
fn histogram_recovers_the_per_die_minimum_voltages() {
    let params = FleetParams::new(tiny());
    let fleet = FleetStudy::run_parallel(&params);
    let minima: Vec<Vec<Option<usize>>> = yield_oracle::scan(&params.yields)
        .iter()
        .map(yield_oracle::min_voltage_indices)
        .collect();
    for (i, (counts, &dead)) in fleet.hist.iter().zip(&fleet.dead).enumerate() {
        assert_eq!(counts.iter().sum::<u64>() + dead, fleet.dies);
        for (k, &count) in counts.iter().enumerate() {
            let expected = minima.iter().filter(|die| die[i] == Some(k)).count() as u64;
            assert_eq!(count, expected, "scheme {i} at grid index {k}");
        }
        let expected_dead = minima.iter().filter(|die| die[i].is_none()).count() as u64;
        assert_eq!(dead, expected_dead, "scheme {i} dead dies");
    }
}

#[test]
fn the_l2_floor_never_revives_a_die() {
    // Same seeds with and without the L2 floor: the pass rule is a
    // conjunction, so a die operational with the L2 included is operational
    // without it, and the idealized baseline ignores faults on both arrays.
    let l1_only = yield_oracle::scan(&tiny());
    let both = yield_oracle::scan(&YieldParams {
        include_l2: true,
        ..tiny()
    });
    for (a, b) in l1_only.iter().zip(&both) {
        for (fa, fb) in a.iter().zip(b) {
            for (&l1, &l2) in fa.iter().zip(fb) {
                assert!(!l2 || l1, "the L2 floor cannot revive a die");
            }
        }
        assert!(
            b[0].iter().all(|&ok| ok),
            "the baseline runs at every voltage"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The executor's core soundness claim: binary-searching each die's
    /// operational true-prefix over the nested voltage grid, shard by shard,
    /// finds exactly what a linear scan finds, for every scheme in the
    /// registry, whatever the campaign parameters.
    #[test]
    fn binary_search_equals_linear_scan_for_every_registry_scheme(
        dies in 1usize..14,
        steps in 2usize..9,
        v_low_milli in 440u64..520,
        span_milli in 20u64..240,
        master_seed in 0u64..1_000_000,
        shard_dies in 1usize..6,
        include_l2 in any::<bool>(),
    ) {
        let v_low = v_low_milli as f64 / 1000.0;
        let params = FleetParams {
            yields: YieldParams {
                dies,
                steps,
                v_low,
                v_high: v_low + span_milli as f64 / 1000.0,
                master_seed,
                include_l2,
                ..YieldParams::quick()
            },
            shard_dies,
        };
        assert_fleet_matches_the_oracle(&params);
    }
}
