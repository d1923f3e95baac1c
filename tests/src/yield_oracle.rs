//! The yield campaign's test-only oracle: every die probed at every grid
//! voltage by a linear scan, built from public calls only.
//!
//! The library has one yield executor, `FleetStudy`, which binary-searches
//! each die's operational prefix inside shards. This oracle shares none of
//! its private code: it draws each die's seeds from
//! `YieldParams::{die_seeds_range, l2_die_seeds_range}`, samples the arrays
//! with `DieVariation::sample`, generates fault maps with
//! `FaultMap::generate_at_voltage` and judges them with
//! `RepairScheme::meets_capacity_floor`, one die after another on the calling
//! thread. `tests/tests/yield_oracle.rs` pins the executor to it.

use vccmin_core::cache::repair::registry;
use vccmin_core::experiments::fleet::{FleetParams, FleetStudy};
use vccmin_core::experiments::yield_study::{YieldParams, YieldStudy};
use vccmin_core::{DieVariation, FaultMap};

/// One die's verdicts: per registry scheme, per grid voltage (highest
/// first), whether the die is operational.
pub type DieFlags = Vec<Vec<bool>>;

/// Every die of the campaign, in population order, judged by every registry
/// scheme at every grid voltage: a scheme passes when it holds the capacity
/// floor on the die's L1 map, and on its L2 map when the L2 floor is on.
#[must_use]
pub fn scan(params: &YieldParams) -> Vec<DieFlags> {
    let grid = params.voltage_grid();
    let schemes = registry();
    let l2_seeds = if params.include_l2 {
        params
            .l2_die_seeds_range(0, params.dies)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None; params.dies]
    };
    params
        .die_seeds_range(0, params.dies)
        .into_iter()
        .zip(l2_seeds)
        .map(|((die_seed, map_seed), l2)| {
            let die = DieVariation::sample(&YieldStudy::geometry(), &params.variation, die_seed);
            let l2_die = l2.map(|(l2_die_seed, l2_map_seed)| {
                let die = DieVariation::sample(
                    &YieldStudy::l2_geometry(),
                    &params.variation,
                    l2_die_seed,
                );
                (die, l2_map_seed)
            });
            let mut flags = vec![Vec::with_capacity(grid.len()); schemes.len()];
            for &v in &grid {
                let map = FaultMap::generate_at_voltage(&die, v, map_seed);
                let l2_map = l2_die
                    .as_ref()
                    .map(|(die, seed)| FaultMap::generate_at_voltage(die, v, *seed));
                for (scheme_flags, scheme) in flags.iter_mut().zip(schemes) {
                    let holds = |m: &FaultMap| scheme.meets_capacity_floor(m, params.min_capacity);
                    scheme_flags.push(holds(&map) && l2_map.as_ref().is_none_or(holds));
                }
            }
            flags
        })
        .collect()
}

/// Per scheme, the grid index of the die's minimum operational voltage: the
/// end of its run of operational voltages from the top of the grid, or
/// `None` when the die fails even there.
#[must_use]
pub fn min_voltage_indices(die: &DieFlags) -> Vec<Option<usize>> {
    die.iter()
        .map(|flags| flags.iter().take_while(|&&ok| ok).count().checked_sub(1))
        .collect()
}

/// The campaign aggregate the executor must reproduce, tallied from
/// [`scan`]'s flags.
#[must_use]
pub fn study(params: &FleetParams) -> FleetStudy {
    tally(params, &scan(&params.yields))
}

/// The campaign aggregate of already scanned dies: per scheme, how many
/// dies have their minimum operational voltage at each grid index, and how
/// many are dead.
#[must_use]
pub fn tally(params: &FleetParams, dies: &[DieFlags]) -> FleetStudy {
    let grid = params.yields.voltage_grid();
    let schemes = registry().len();
    let mut hist = vec![vec![0u64; grid.len()]; schemes];
    let mut dead = vec![0u64; schemes];
    for die in dies {
        for (i, index) in min_voltage_indices(die).into_iter().enumerate() {
            match index {
                Some(k) => hist[i][k] += 1,
                None => dead[i] += 1,
            }
        }
    }
    FleetStudy {
        params: params.clone(),
        grid,
        dies: dies.len() as u64,
        hist,
        dead,
    }
}

/// The yield-curve cells counted straight from the flags: per grid voltage
/// (highest first), per scheme, the fraction of dies operational there, or
/// `None` for an empty population.
#[must_use]
pub fn yield_cells(dies: &[DieFlags], grid_len: usize) -> Vec<Vec<Option<f64>>> {
    (0..grid_len)
        .map(|k| {
            (0..registry().len())
                .map(|i| {
                    let ok = dies.iter().filter(|die| die[i][k]).count();
                    (!dies.is_empty()).then(|| ok as f64 / dies.len() as f64)
                })
                .collect()
        })
        .collect()
}
