//! The `fleet-l2` workload: the fleet yield campaign with the L2 capacity
//! floor, on the quick-scale grid and variation model.
//!
//! The untraced path runs `FleetStudy::run_parallel`. The traced path repeats
//! the fleet's per-die public-call sequence — `DieVariation::sample` for the
//! L1 and L2 arrays, a binary search over the nested voltage grid with
//! memoized `FaultMap::generate_at_voltage` calls, and
//! `RepairScheme::meets_capacity_floor` per probe — one die per unit of work,
//! and checks that it reproduces the library's histograms.

use std::time::Instant;

use vccmin_cache::repair::{registry, RepairScheme};
use vccmin_experiments::{FleetParams, FleetStudy, YieldParams, YieldStudy};
use vccmin_fault::{DieVariation, FaultMap};

use crate::check::{csv_rows, Fnv, Row};
use crate::spans::{run_queue, Recorder, Trace};

/// Dies in the population.
const DIES: usize = 300;

/// Dies per shard: small enough that every worker has shards to take.
const SHARD_DIES: usize = 10;

/// The fleet's set-up: its parameters, voltage grid and scheme registry.
pub struct Setup {
    pub params: FleetParams,
    pub grid: Vec<f64>,
    pub schemes: [&'static dyn RepairScheme; 5],
}

impl Setup {
    pub fn new(master_seed: u64) -> Self {
        let params = FleetParams {
            yields: YieldParams {
                dies: DIES,
                include_l2: true,
                master_seed,
                ..YieldParams::quick()
            },
            shard_dies: SHARD_DIES,
        };
        let grid = params.yields.voltage_grid();
        Self {
            params,
            grid,
            schemes: registry(),
        }
    }

    pub fn dies(&self) -> usize {
        self.params.yields.dies
    }
}

/// One repetition of the campaign through the library's parallel executor.
pub fn library_rep(setup: &Setup) -> FleetStudy {
    FleetStudy::run_parallel(&setup.params)
}

/// One checked row per repair scheme: the Vcc-min summary CSV line and a
/// digest of the scheme's exact histogram.
pub fn rows(study: &FleetStudy) -> Vec<Row> {
    let csv = csv_rows(&study.vccmin_summary().to_csv());
    csv.into_iter()
        .enumerate()
        .map(|(i, (key, csv))| {
            let mut h = Fnv::new()
                .word(study.dies)
                .word(study.dead.get(i).copied().unwrap_or(u64::MAX));
            for (&v, &c) in study
                .grid
                .iter()
                .zip(study.hist.get(i).into_iter().flatten())
            {
                h = h.word(v.to_bits()).word(c);
            }
            Row {
                key,
                csv,
                digest: h.finish(),
            }
        })
        .collect()
}

/// Per scheme, the length of the die's operational prefix over the
/// descending grid, probed by binary search with one map generation per
/// probed voltage and array, shared by all schemes.
fn traced_die(
    rec: &mut Recorder,
    setup: &Setup,
    (die_seed, map_seed): (u64, u64),
    (l2_die_seed, l2_map_seed): (u64, u64),
) -> Vec<usize> {
    let yields = &setup.params.yields;
    let grid = &setup.grid;
    let die = rec.time("fault.l1_die_sample", 1, || {
        DieVariation::sample(&YieldStudy::geometry(), &yields.variation, die_seed)
    });
    let l2_die = rec.time("fault.l2_die_sample", 1, || {
        DieVariation::sample(&YieldStudy::l2_geometry(), &yields.variation, l2_die_seed)
    });
    let mut maps: Vec<Option<(FaultMap, FaultMap)>> = (0..grid.len()).map(|_| None).collect();
    setup
        .schemes
        .iter()
        .map(|scheme| {
            let (mut lo, mut hi) = (0usize, grid.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if maps[mid].is_none() {
                    let l1 = rec.time("fault.l1_map_at_voltage", 1, || {
                        FaultMap::generate_at_voltage(&die, grid[mid], map_seed)
                    });
                    let l2 = rec.time("fault.l2_map_at_voltage", 1, || {
                        FaultMap::generate_at_voltage(&l2_die, grid[mid], l2_map_seed)
                    });
                    maps[mid] = Some((l1, l2));
                }
                let (l1, l2) = maps[mid].as_ref().expect("probed map was just generated");
                let ok = rec.time("cache.capacity_check", 1, || {
                    scheme.meets_capacity_floor(l1, yields.min_capacity)
                }) && rec.time("cache.capacity_check", 1, || {
                    scheme.meets_capacity_floor(l2, yields.min_capacity)
                });
                if ok {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect()
}

/// The traced replica of one campaign repetition (or of its first `limit`
/// dies), one die per job, on `workers` threads. Returns the aggregate
/// histograms when the whole population ran.
pub fn traced_rep(
    setup: &Setup,
    origin: Instant,
    workers: usize,
    unit_base: u64,
    limit: Option<usize>,
    trace: &mut Trace,
) -> Option<FleetStudy> {
    let count = limit.unwrap_or(setup.dies()).min(setup.dies());
    let seeds = setup.params.yields.die_seeds_range(0, count);
    let l2_seeds = setup.params.yields.l2_die_seeds_range(0, count);
    let jobs: Vec<_> = seeds.into_iter().zip(l2_seeds).collect();
    let prefixes = run_queue(
        &jobs,
        workers,
        origin,
        unit_base,
        trace,
        |rec, &(l1, l2)| {
            let span = rec.enter("experiments.die");
            let prefixes = traced_die(rec, setup, l1, l2);
            rec.exit(span, 1);
            prefixes
        },
    );
    if count < setup.dies() {
        return None;
    }

    let mut hist = vec![vec![0u64; setup.grid.len()]; setup.schemes.len()];
    let mut dead = vec![0u64; setup.schemes.len()];
    for die in prefixes {
        for (i, len) in die.into_iter().enumerate() {
            match len.checked_sub(1) {
                Some(k) => hist[i][k] += 1,
                None => dead[i] += 1,
            }
        }
    }
    Some(FleetStudy {
        params: setup.params.clone(),
        grid: setup.grid.clone(),
        dies: count as u64,
        hist,
        dead,
    })
}
