//! The yield campaign's executor: the [`crate::yield_study`] campaign run
//! over any population — from the quick-scale golden to millions of dies —
//! with flat memory and a checkpointable, resumable work queue.
//!
//! Each die is probed through three private steps: its seed pairs
//! ([`YieldParams::die_seeds_range`], plus the L2 pairs when the L2 floor is
//! on), its fault maps as a function of the supply, and the pass rule (every
//! sampled array holds the capacity floor). The campaign is then:
//!
//! * **Sharding** — the population is split into fixed runs of
//!   [`FleetParams::shard_dies`] consecutive dies. Each shard draws its seed
//!   pairs from [`YieldParams::die_seeds_range`], which is bit-identical to
//!   the corresponding window of the full `die_seeds()` sequence, so shard
//!   boundaries can never change any die's randomness.
//! * **Streaming aggregation** — a shard reduces to per-scheme histograms of
//!   minimum-operational-voltage grid indices plus dead-die counts
//!   ([`ShardRecord`]). Histogram counts are integers and addition commutes,
//!   so shards merge in any order into the same aggregate; campaign memory is
//!   `O(schemes x grid)` regardless of population size.
//! * **Binary-searched probing** — per die and scheme, fault maps are nested
//!   across the descending voltage grid, so the operational flags form a
//!   true-prefix. The executor binary-searches the prefix length instead of
//!   scanning the grid, generating ~log2(steps) fault maps per die (memoized
//!   across the schemes of one die) instead of `steps`.
//! * **Checkpointing** — with a [`CheckpointStore`], every finished shard is
//!   persisted atomically. A killed campaign resumes by recomputing only the
//!   missing or invalid shards; because the on-disk payload *is* the in-memory
//!   aggregate, a resumed run's reports are byte-identical to an
//!   uninterrupted run's.
//!
//! The per-scheme Vcc-min distribution is additionally exposed as an exact
//! [`GridQuantileSketch`]. The workspace test `tests/tests/yield_oracle.rs`
//! rebuilds every die by a linear scan over public calls and pins the
//! histograms and every yield-curve cell to it.

use std::io;
use std::path::Path;

use vccmin_analysis::quantile::GridQuantileSketch;
use vccmin_cache::repair::{registry, RepairScheme};
use vccmin_fault::{DieVariation, FaultMap};

use crate::checkpoint::{fnv1a64, CheckpointStore, ShardRecord};
use crate::map_jobs;
use crate::report::FigureTable;
use crate::yield_study::{YieldParams, YieldStudy};

/// Parameters of a fleet campaign: a yield campaign plus its shard size.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetParams {
    /// The underlying yield campaign (population size, variation model,
    /// voltage grid, capacity floor, master seed).
    pub yields: YieldParams,
    /// Dies per shard: the unit of checkpointing and of parallel scheduling.
    pub shard_dies: usize,
}

impl FleetParams {
    /// Wraps a yield campaign with the default shard size (2048 dies): large
    /// enough that checkpoint I/O is negligible, small enough that a killed
    /// campaign loses at most a second or two of work.
    #[must_use]
    pub fn new(yields: YieldParams) -> Self {
        Self {
            yields,
            shard_dies: 2048,
        }
    }

    /// Number of shards the population splits into.
    ///
    /// # Panics
    ///
    /// Panics if `shard_dies` is zero.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        assert!(self.shard_dies > 0, "a shard must hold at least one die");
        self.yields.dies.div_ceil(self.shard_dies)
    }

    /// The die range `[start, start + count)` of shard `shard_index`; the
    /// final shard may be short.
    #[must_use]
    pub fn shard_bounds(&self, shard_index: u64) -> (usize, usize) {
        let start = (shard_index as usize) * self.shard_dies;
        let count = self.shard_dies.min(self.yields.dies.saturating_sub(start));
        (start, count)
    }

    /// An FNV-1a fingerprint of everything that determines a shard's bytes:
    /// the yield parameters (including the master seed), the exact grid
    /// voltages (as IEEE-754 bits), the registry's scheme labels and the
    /// shard size. Two campaigns share checkpoint records only if they would
    /// compute identical shards.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut desc = format!("{:?}|shard_dies={}", self.yields, self.shard_dies);
        for v in self.yields.voltage_grid() {
            desc.push_str(&format!("|{:016x}", v.to_bits()));
        }
        for label in YieldStudy::scheme_labels() {
            desc.push('|');
            desc.push_str(&label);
        }
        fnv1a64(desc.as_bytes())
    }
}

impl Default for FleetParams {
    fn default() -> Self {
        Self::new(YieldParams::quick())
    }
}

/// The streaming aggregate of a fleet campaign: the complete per-scheme
/// Vcc-min accounting of the population in `O(schemes x grid)` memory.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStudy {
    /// The parameters the campaign ran with.
    pub params: FleetParams,
    /// The probed voltage grid, highest first.
    pub grid: Vec<f64>,
    /// Number of dies aggregated (equals `params.yields.dies` when complete).
    pub dies: u64,
    /// Per scheme (registry order), per grid index: dies whose minimum
    /// operational voltage is that grid voltage.
    pub hist: Vec<Vec<u64>>,
    /// Per scheme: dies not operational even at the top of the grid.
    pub dead: Vec<u64>,
}

impl FleetStudy {
    /// Runs the campaign on the rayon pool, one job per shard. Every shard's
    /// seeds are derived from its die range alone, and integer histogram
    /// merging is order-independent, so the worker count never changes a bit.
    #[must_use]
    pub fn run_parallel(params: &FleetParams) -> Self {
        let Ok(study) = Self::run(params, None) else {
            unreachable!("a campaign without a checkpoint store does no I/O");
        };
        study
    }

    /// Runs the campaign against a checkpoint directory: shards already
    /// persisted (by any earlier run with the same parameters) are loaded
    /// instead of recomputed, freshly computed shards are persisted before the
    /// campaign aggregates, and the final aggregate is byte-identical to an
    /// uninterrupted run's. Invalid, truncated or foreign-parameter shard
    /// files are treated as missing and recomputed.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or writing the checkpoint directory.
    pub fn run_checkpointed(params: &FleetParams, dir: &Path) -> io::Result<Self> {
        let store = CheckpointStore::open(dir, params.fingerprint())?;
        Self::run(params, Some(&store))
    }

    /// The one campaign body: every shard on the rayon pool, each loaded
    /// from `store` when a valid record is there and computed otherwise.
    fn run(params: &FleetParams, store: Option<&CheckpointStore>) -> io::Result<Self> {
        let grid = params.yields.voltage_grid();
        let schemes = registry();
        let indices: Vec<u64> = (0..params.shard_count() as u64).collect();
        // Persist each shard the moment it finishes — from inside the worker,
        // not after the whole batch — so a killed campaign keeps everything it
        // completed and a resume recomputes only the remainder.
        let shard = |s: u64| -> io::Result<ShardRecord> {
            let Some(store) = store else {
                return Ok(compute_shard(params, &grid, &schemes, s));
            };
            let (start, count) = params.shard_bounds(s);
            let saved = store
                .load(s, schemes.len(), grid.len())?
                .filter(|r| r.die_start == start as u64 && r.die_count == count as u64);
            if let Some(record) = saved {
                return Ok(record);
            }
            let fresh = compute_shard(params, &grid, &schemes, s);
            store.save(&fresh)?;
            Ok(fresh)
        };
        let records = map_jobs(indices, false, shard)
            .into_iter()
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self::aggregate(params, grid, records))
    }

    /// Merges shard records (any order — integer addition commutes) into the
    /// campaign aggregate.
    fn aggregate(params: &FleetParams, grid: Vec<f64>, records: Vec<ShardRecord>) -> Self {
        let schemes = registry().len();
        let mut hist = vec![vec![0u64; grid.len()]; schemes];
        let mut dead = vec![0u64; schemes];
        let mut dies = 0u64;
        for record in records {
            dies += record.die_count;
            for (into, from) in hist.iter_mut().zip(&record.hist) {
                for (c, &f) in into.iter_mut().zip(from) {
                    *c += f;
                }
            }
            for (d, &f) in dead.iter_mut().zip(&record.dead) {
                *d += f;
            }
        }
        Self {
            params: params.clone(),
            grid,
            dies,
            hist,
            dead,
        }
    }

    /// The yield-vs-voltage curves: one row per grid voltage (highest
    /// first), one column per repair scheme, each cell the fraction of dies
    /// operational at that voltage (empty for an empty population). A die is
    /// operational at grid index `k` exactly when its minimum-voltage index is
    /// `>= k` (the true-prefix structure), so the operational counts are
    /// suffix sums of the histogram.
    #[must_use]
    pub fn yield_curve(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Yield study: fraction of dies operational vs supply voltage",
            "voltage",
            YieldStudy::scheme_labels(),
        );
        let ok_counts: Vec<Vec<u64>> = self
            .hist
            .iter()
            .map(|counts| {
                let mut suffix = vec![0u64; counts.len()];
                let mut running = 0u64;
                for k in (0..counts.len()).rev() {
                    running += counts[k];
                    suffix[k] = running;
                }
                suffix
            })
            .collect();
        for (k, &v) in self.grid.iter().enumerate() {
            let values = ok_counts
                .iter()
                .map(|counts| self.fraction_of_dies(counts[k]))
                .collect();
            table.push_optional_row(format!("{v:.3}"), values);
        }
        table
    }

    /// The per-scheme Vcc-min distribution over the die population: mean,
    /// best (lowest) and worst (highest) minimum operational voltage among
    /// dies that run at all, plus the fraction of dead dies (not operational
    /// even at the top of the grid). A scheme with zero live dies has *no*
    /// Vcc-min — its mean/best/worst cells are empty ([`None`]), not a
    /// too-good-to-be-true `0.0`, and they are excluded from the CSV `mean`
    /// footer; an empty population has no dead fraction either. All
    /// statistics are computed from the histogram in ascending grid-index
    /// order, so the same integer counts always render the same bytes.
    #[must_use]
    pub fn vccmin_summary(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Yield study: die Vcc-min distribution per repair scheme",
            "scheme",
            vec![
                "mean Vcc-min".into(),
                "best Vcc-min".into(),
                "worst Vcc-min".into(),
                "dead fraction".into(),
            ],
        );
        for (i, (label, counts)) in YieldStudy::scheme_labels()
            .into_iter()
            .zip(&self.hist)
            .enumerate()
        {
            let alive: u64 = counts.iter().sum();
            let stats = if alive == 0 {
                [None, None, None]
            } else {
                let sum: f64 = self
                    .grid
                    .iter()
                    .zip(counts)
                    .map(|(&v, &c)| v * c as f64)
                    .sum();
                // The grid is highest-first, so the *best* (lowest) Vcc-min
                // sits at the largest populated index and the worst at the
                // smallest.
                let best = counts.iter().rposition(|&c| c > 0).map(|k| self.grid[k]);
                let worst = counts.iter().position(|&c| c > 0).map(|k| self.grid[k]);
                [Some(sum / alive as f64), best, worst]
            };
            table.push_optional_row(
                label,
                vec![stats[0], stats[1], stats[2], self.dead_fraction(i)],
            );
        }
        table
    }

    /// The exact quantile sketch of scheme `scheme_index`'s Vcc-min
    /// distribution over the live dies (dead dies have no Vcc-min and are
    /// reported by [`FleetStudy::dead_fraction`] instead). Bins are the grid
    /// voltages in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `scheme_index` is out of range.
    #[must_use]
    pub fn sketch(&self, scheme_index: usize) -> GridQuantileSketch {
        assert!(
            scheme_index < self.hist.len(),
            "scheme index {scheme_index} out of range"
        );
        let bins: Vec<f64> = self.grid.iter().rev().copied().collect();
        let mut sketch = GridQuantileSketch::new(bins);
        let last = self.grid.len() - 1;
        for (k, &count) in self.hist[scheme_index].iter().enumerate() {
            if count > 0 {
                sketch.record(last - k, count);
            }
        }
        sketch
    }

    /// Fraction of dies dead under scheme `scheme_index`, or [`None`] for an
    /// empty population.
    #[must_use]
    pub fn dead_fraction(&self, scheme_index: usize) -> Option<f64> {
        self.fraction_of_dies(self.dead[scheme_index])
    }

    /// `count` as a fraction of the population; [`None`] when it is empty.
    fn fraction_of_dies(&self, count: u64) -> Option<f64> {
        (self.dies > 0).then(|| count as f64 / self.dies as f64)
    }
}

/// One die's unit of work: its (variation, map) seed pair for the L1 plus the
/// pair for the L2 when the L2 floor is on.
type DieJob = ((u64, u64), Option<(u64, u64)>);

/// One die's fault maps at one voltage: the L1 map, plus the L2 map when the
/// L2 floor is on.
type DieMaps = (FaultMap, Option<FaultMap>);

/// The jobs of dies `[start, start + count)`: each die's L1 seed pair, plus
/// its L2 seed pair when [`YieldParams::include_l2`] is set.
fn die_jobs(params: &YieldParams, start: usize, count: usize) -> Vec<DieJob> {
    let l2_seeds: Vec<Option<(u64, u64)>> = if params.include_l2 {
        params
            .l2_die_seeds_range(start, count)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None; count]
    };
    params
        .die_seeds_range(start, count)
        .into_iter()
        .zip(l2_seeds)
        .collect()
}

/// Samples one die's variation (on the L1, and on the L2 when the job carries
/// L2 seeds) and returns the die's fault maps as a function of the supply
/// voltage. Each array's map seed is fixed per die, so the maps are nested
/// across voltages.
fn die_maps(
    params: &YieldParams,
    ((die_seed, map_seed), l2_seeds): DieJob,
) -> impl Fn(f64) -> DieMaps {
    let die = DieVariation::sample(&YieldStudy::geometry(), &params.variation, die_seed);
    let l2_die = l2_seeds.map(|(l2_die_seed, l2_map_seed)| {
        (
            DieVariation::sample(&YieldStudy::l2_geometry(), &params.variation, l2_die_seed),
            l2_map_seed,
        )
    });
    move |v| {
        (
            FaultMap::generate_at_voltage(&die, v, map_seed),
            l2_die
                .as_ref()
                .map(|(d, seed)| FaultMap::generate_at_voltage(d, v, *seed)),
        )
    }
}

/// The pass rule: `scheme` holds the capacity floor on the die's L1 map, and
/// on its L2 map when one was sampled.
fn operational_with(
    params: &YieldParams,
    scheme: &dyn RepairScheme,
    (map, l2_map): &DieMaps,
) -> bool {
    scheme.meets_capacity_floor(map, params.min_capacity)
        && l2_map
            .as_ref()
            .is_none_or(|m| scheme.meets_capacity_floor(m, params.min_capacity))
}

/// Reduces one shard of consecutive dies to its histogram aggregate.
fn compute_shard(
    params: &FleetParams,
    grid: &[f64],
    schemes: &[&'static dyn RepairScheme],
    shard_index: u64,
) -> ShardRecord {
    let (start, count) = params.shard_bounds(shard_index);
    let mut hist = vec![vec![0u64; grid.len()]; schemes.len()];
    let mut dead = vec![0u64; schemes.len()];
    for job in die_jobs(&params.yields, start, count) {
        let prefixes = die_prefix_lengths(&params.yields, grid, schemes, job);
        for (i, len) in prefixes.into_iter().enumerate() {
            match len.checked_sub(1) {
                Some(k) => hist[i][k] += 1,
                None => dead[i] += 1,
            }
        }
    }
    ShardRecord {
        shard_index,
        die_start: start as u64,
        die_count: count as u64,
        hist,
        dead,
    }
}

/// Per scheme, the length of the die's operational true-prefix over the
/// descending grid (0 = dead; `len - 1` indexes the minimum operational
/// voltage), by binary search: fault maps are nested across voltages and no
/// scheme gains capacity from extra faults, so the flags are a true-prefix.
/// Each probed grid index generates its fault map(s) once, memoized across
/// all schemes of the die, for ~log2(steps) map generations per die instead
/// of `steps`.
fn die_prefix_lengths(
    params: &YieldParams,
    grid: &[f64],
    schemes: &[&'static dyn RepairScheme],
    job: DieJob,
) -> Vec<usize> {
    let maps_at = die_maps(params, job);
    let mut maps: Vec<Option<DieMaps>> = (0..grid.len()).map(|_| None).collect();
    schemes
        .iter()
        .map(|&scheme| {
            let (mut lo, mut hi) = (0usize, grid.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let probe = maps[mid].get_or_insert_with(|| maps_at(grid[mid]));
                if operational_with(params, scheme, probe) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetParams {
        FleetParams {
            yields: YieldParams {
                dies: 30,
                steps: 5,
                ..YieldParams::smoke()
            },
            shard_dies: 8,
        }
    }

    /// Per die (population order), per scheme: the operational prefix length
    /// found by probing every grid voltage with the same maps and pass rule,
    /// on the calling thread. It pins the binary search alone; the workspace
    /// test `tests/tests/yield_oracle.rs` rebuilds the whole campaign from
    /// public calls.
    fn scanned_prefix_lengths(params: &YieldParams) -> Vec<Vec<usize>> {
        let grid = params.voltage_grid();
        die_jobs(params, 0, params.dies)
            .into_iter()
            .map(|job| {
                let maps_at = die_maps(params, job);
                let maps: Vec<DieMaps> = grid.iter().map(|&v| maps_at(v)).collect();
                registry()
                    .iter()
                    .map(|&scheme| {
                        maps.iter()
                            .take_while(|m| operational_with(params, scheme, m))
                            .count()
                    })
                    .collect()
            })
            .collect()
    }

    /// The campaign aggregated from [`scanned_prefix_lengths`].
    fn scanned(params: &FleetParams) -> FleetStudy {
        let grid = params.yields.voltage_grid();
        let mut hist = vec![vec![0u64; grid.len()]; registry().len()];
        let mut dead = vec![0u64; registry().len()];
        for die in scanned_prefix_lengths(&params.yields) {
            for (i, len) in die.into_iter().enumerate() {
                match len.checked_sub(1) {
                    Some(k) => hist[i][k] += 1,
                    None => dead[i] += 1,
                }
            }
        }
        FleetStudy {
            params: params.clone(),
            grid,
            dies: params.yields.dies as u64,
            hist,
            dead,
        }
    }

    #[test]
    fn shard_bounds_cover_the_population_exactly_once() {
        let params = tiny();
        assert_eq!(params.shard_count(), 4);
        let mut next = 0;
        for s in 0..params.shard_count() as u64 {
            let (start, count) = params.shard_bounds(s);
            assert_eq!(start, next);
            assert!(count > 0);
            next = start + count;
        }
        assert_eq!(next, params.yields.dies);
    }

    #[test]
    fn fleet_histogram_matches_the_materializing_study() {
        // Binary-searched, sharded, streaming aggregation reproduces the
        // scan, which materializes every die's maps at every grid voltage.
        let params = tiny();
        let fleet = FleetStudy::run_parallel(&params);
        let scan = scanned(&params);
        assert_eq!(fleet.hist, scan.hist);
        assert_eq!(fleet.dead, scan.dead);
        assert_eq!(fleet.dies, params.yields.dies as u64);
    }

    #[test]
    fn fleet_reports_are_byte_identical_to_the_study_reports() {
        // Every yield-curve cell is the fraction of scanned dies operational
        // at that voltage, which the suffix sums must reproduce.
        let params = tiny();
        let fleet = FleetStudy::run_parallel(&params);
        let dies = scanned_prefix_lengths(&params.yields);
        for (k, (_, cells)) in fleet.yield_curve().rows.iter().enumerate() {
            for (i, &cell) in cells.iter().enumerate() {
                let ok = dies.iter().filter(|d| d[i] > k).count();
                assert_eq!(
                    cell,
                    Some(ok as f64 / dies.len() as f64),
                    "scheme {i} at {k}"
                );
            }
        }
        let scan = scanned(&params);
        assert_eq!(fleet.yield_curve().to_csv(), scan.yield_curve().to_csv());
        assert_eq!(
            fleet.vccmin_summary().to_csv(),
            scan.vccmin_summary().to_csv()
        );
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // The scan probes every die in order on the calling thread.
        let params = tiny();
        assert_eq!(FleetStudy::run_parallel(&params), scanned(&params));
    }

    #[test]
    fn shard_size_never_changes_the_aggregate() {
        let base = tiny();
        let reference = FleetStudy::run_parallel(&base);
        for shard_dies in [1, 7, 30, 1000] {
            let params = FleetParams {
                shard_dies,
                ..base.clone()
            };
            let study = FleetStudy::run_parallel(&params);
            assert_eq!(study.hist, reference.hist, "shard_dies={shard_dies}");
            assert_eq!(study.dead, reference.dead, "shard_dies={shard_dies}");
        }
    }

    #[test]
    fn l2_floor_flows_through_the_fleet_path() {
        let mut params = tiny();
        params.yields.include_l2 = true;
        assert_eq!(FleetStudy::run_parallel(&params), scanned(&params));
        // The criterion is a conjunction: per die and scheme, the L2 floor
        // can only shorten the operational prefix.
        let l1_only = scanned_prefix_lengths(&tiny().yields);
        let both = scanned_prefix_lengths(&params.yields);
        for (a, b) in l1_only.iter().zip(&both) {
            for (&l1, &l2) in a.iter().zip(b) {
                assert!(l2 <= l1, "the L2 floor cannot revive a die");
            }
        }
    }

    #[test]
    fn sketch_reports_the_distribution_exactly() {
        let params = tiny();
        let fleet = FleetStudy::run_parallel(&params);
        let dies = scanned_prefix_lengths(&params.yields);
        for (i, _) in YieldStudy::scheme_labels().iter().enumerate() {
            let sketch = fleet.sketch(i);
            let alive: u64 = fleet.hist[i].iter().sum();
            assert_eq!(sketch.total(), alive);
            // Sketch stats agree with the per-die scanned values.
            let mut mins: Vec<f64> = dies
                .iter()
                .filter_map(|d| d[i].checked_sub(1).map(|k| fleet.grid[k]))
                .collect();
            mins.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(sketch.min(), mins.first().copied());
            assert_eq!(sketch.max(), mins.last().copied());
            if let Some(mean) = sketch.mean() {
                let direct: f64 = mins.iter().sum::<f64>() / mins.len() as f64;
                assert!((mean - direct).abs() < 1e-12);
            }
            if let Some(median) = sketch.quantile(0.5) {
                let direct = mins[(mins.len() - 1) / 2];
                assert_eq!(median, direct);
            }
        }
    }

    #[test]
    fn fingerprint_separates_campaigns_and_shard_sizes() {
        let a = tiny();
        let mut b = tiny();
        b.yields.master_seed ^= 1;
        let mut c = tiny();
        c.shard_dies += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), tiny().fingerprint());
    }

    #[test]
    fn checkpointed_run_is_identical_and_resumes_from_partial_state() {
        let params = tiny();
        let dir = std::env::temp_dir().join(format!("vccmin-fleet-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A cold checkpointed run matches the plain run.
        let cold = FleetStudy::run_checkpointed(&params, &dir).unwrap();
        let plain = FleetStudy::run_parallel(&params);
        assert_eq!(cold, plain);

        // Simulate an interruption: delete two shards, corrupt one.
        let store = CheckpointStore::open(&dir, params.fingerprint()).unwrap();
        std::fs::remove_file(store.shard_path(1)).unwrap();
        std::fs::remove_file(store.shard_path(3)).unwrap();
        let path = store.shard_path(0);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        // The resumed run recomputes exactly the damaged shards and reaches
        // the same aggregate.
        let resumed = FleetStudy::run_checkpointed(&params, &dir).unwrap();
        assert_eq!(resumed, cold);
        assert_eq!(
            resumed.vccmin_summary().to_csv(),
            plain.vccmin_summary().to_csv()
        );

        // A different campaign refuses the leftover records instead of
        // silently merging foreign results.
        let mut other = params.clone();
        other.yields.master_seed ^= 0xdead;
        let fresh = FleetStudy::run_checkpointed(&other, &dir).unwrap();
        assert_eq!(fresh.hist, FleetStudy::run_parallel(&other).hist);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_population_is_well_defined() {
        // No dies means no fraction of them: every yield cell and dead
        // fraction is empty, never a silent `0.0`.
        let mut params = tiny();
        params.yields.dies = 0;
        let fleet = FleetStudy::run_parallel(&params);
        assert_eq!(fleet.dies, 0);
        assert_eq!(fleet.dead_fraction(0), None);
        assert_eq!(fleet.sketch(0).total(), 0);
        for (_, values) in &fleet.yield_curve().rows {
            assert!(values.iter().all(Option::is_none));
        }
        let summary = fleet.vccmin_summary();
        for (_, values) in &summary.rows {
            assert_eq!(values[0], None);
            assert_eq!(values[3], None);
        }
    }
}
