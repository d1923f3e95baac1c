//! The die-population yield campaign: "at what voltage can each die run, and
//! what fraction of dies meets a target Vcc-min under each repair scheme?"
//!
//! The paper evaluates its schemes at a handful of fixed `pfail` points; this
//! study asks the designer's actual question. It samples a population of dies
//! from the process-variation model of `vccmin-fault` (spatially-correlated
//! systematic Vcc-min offsets plus the calibrated `pfail(V)` random
//! component), generates each die's fault map at every voltage of a grid, and
//! computes — per repair scheme in the [`vccmin_cache::repair::registry`] —
//! the die's *minimum operational voltage*: the lowest supply at which the
//! scheme can still repair the map and retain at least
//! [`YieldParams::min_capacity`] of the cache.
//!
//! Two structural invariants make the study well posed:
//!
//! * per die and seed, fault maps are **nested across voltages**
//!   ([`FaultMap::generate_at_voltage`]), and no scheme gains capacity from
//!   extra faults, so a die's operational range is a contiguous voltage
//!   interval and every yield curve is monotone non-increasing as the supply
//!   drops;
//! * all randomness derives from [`YieldParams::master_seed`] through
//!   [`SeedSequence`], and each die is an independent unit of work, so
//!   [`YieldStudy::run_parallel`] gives the same bits on any worker count.
//!
//! In the i.i.d. limit (zero systematic variance) the Monte-Carlo yield
//! converges to the closed forms of `vccmin_analysis::yield_model`; the
//! workspace integration tests cross-validate the two.
//!
//! `YieldStudy` materializes a [`DieResult`] per die, which is the right shape
//! for the quick-scale golden snapshots and the property tests but caps honest
//! populations at thousands of dies. The fleet-scale streaming executor in
//! [`crate::fleet`] holds memory flat at millions of dies. Both executors take
//! each die's seeds, fault maps and pass rule from the same three
//! [`YieldParams`] helpers (`die_jobs`, `die_maps`, `operational_with`); this
//! study scans the whole grid per die, the fleet binary-searches it, and the
//! workspace tests pin that the two agree bit for bit.

use vccmin_cache::repair::{registry, RepairScheme};
use vccmin_fault::{CacheGeometry, DieVariation, FaultMap, SeedSequence, VariationModel};

use crate::map_jobs;
use crate::report::FigureTable;

/// Parameters of a yield campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldParams {
    /// Number of dies in the sampled population.
    pub dies: usize,
    /// The process-variation model dies are sampled from.
    pub variation: VariationModel,
    /// Top of the voltage grid (normalized; inclusive).
    pub v_high: f64,
    /// Bottom of the voltage grid (normalized; inclusive).
    pub v_low: f64,
    /// Number of grid voltages between `v_high` and `v_low` (>= 2).
    pub steps: usize,
    /// Fraction of the fault-free cache a die must retain to count as
    /// operational (0.5 matches the paper's "more than 50% capacity" framing
    /// and word-disabling's halved organization).
    pub min_capacity: f64,
    /// Whether the per-die pass criterion also covers the unified L2: when
    /// set, each die additionally samples an L2 variation + fault map per
    /// voltage and a scheme must hold the capacity floor on *both* arrays for
    /// the die to count as operational. Off by default (the paper's perfect
    /// L2), which leaves every existing result bit-identical.
    pub include_l2: bool,
    /// Master seed from which every die and fault map derives.
    pub master_seed: u64,
}

impl YieldParams {
    /// A quick campaign: 200 dies over an 11-point grid from Vcc-min (0.70)
    /// down to below the paper's half-nominal floor. Finishes in well under a
    /// second; the scale the golden snapshot is pinned at.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            dies: 200,
            variation: VariationModel::ispass2010(),
            v_high: 0.70,
            v_low: 0.45,
            steps: 11,
            min_capacity: 0.5,
            include_l2: false,
            master_seed: 0x15_2A55_2010,
        }
    }

    /// A smoke-test campaign: a couple dozen dies on a coarse grid.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            dies: 24,
            steps: 6,
            master_seed: 7,
            ..Self::quick()
        }
    }

    /// The voltage grid, highest voltage first (the order dies are probed in).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate: fewer than two steps, a
    /// non-finite or inverted voltage range, or a capacity floor outside
    /// `[0, 1]`.
    #[must_use]
    pub fn voltage_grid(&self) -> Vec<f64> {
        assert!(self.steps >= 2, "a voltage grid needs at least two points");
        assert!(
            self.v_high.is_finite() && self.v_low.is_finite() && self.v_high > self.v_low,
            "voltage grid must run downward from v_high ({}) to v_low ({})",
            self.v_high,
            self.v_low
        );
        assert!(
            (0.0..=1.0).contains(&self.min_capacity),
            "min_capacity must be a fraction, got {}",
            self.min_capacity
        );
        let span = self.v_high - self.v_low;
        (0..self.steps)
            .map(|i| self.v_high - span * i as f64 / (self.steps - 1) as f64)
            .collect()
    }

    /// Per-die (variation seed, fault-map seed) pairs, derived from the master
    /// seed. Exposed so tests can replay an individual die.
    #[must_use]
    pub fn die_seeds(&self) -> Vec<(u64, u64)> {
        self.die_seeds_range(0, self.dies)
    }

    /// The contiguous sub-range `[start, start + count)` of
    /// [`YieldParams::die_seeds`], without materializing the whole population:
    /// the seed stream is fast-forwarded past the first `start` dies. This is
    /// the unit the sharded fleet executor draws its work from —
    /// `die_seeds_range(s, c)` equals `die_seeds()[s..s + c]` bit for bit for
    /// any shard boundary.
    #[must_use]
    pub fn die_seeds_range(&self, start: usize, count: usize) -> Vec<(u64, u64)> {
        seed_pair_range(self.master_seed, "yield-dies", start, count)
    }

    /// Per-die (variation seed, fault-map seed) pairs for the L2 array, from a
    /// seed fork of their own: enabling the L2 floor never changes the L1
    /// side of any die.
    #[must_use]
    pub fn l2_die_seeds(&self) -> Vec<(u64, u64)> {
        self.l2_die_seeds_range(0, self.dies)
    }

    /// The contiguous sub-range `[start, start + count)` of
    /// [`YieldParams::l2_die_seeds`], mirroring
    /// [`YieldParams::die_seeds_range`].
    #[must_use]
    pub fn l2_die_seeds_range(&self, start: usize, count: usize) -> Vec<(u64, u64)> {
        seed_pair_range(self.master_seed, "yield-l2-dies", start, count)
    }
}

/// Seed pairs `[start, start + count)` of the stream forked from `master` as
/// `label`. Skipping consumes two seeds per die, exactly like taking them.
fn seed_pair_range(master: u64, label: &str, start: usize, count: usize) -> Vec<(u64, u64)> {
    let mut seeds = SeedSequence::new(master).fork(label);
    for _ in 0..start {
        let _ = seeds.next_seed();
        let _ = seeds.next_seed();
    }
    (0..count)
        .map(|_| {
            let die = seeds.next_seed();
            let map = seeds.next_seed();
            (die, map)
        })
        .collect()
}

impl Default for YieldParams {
    fn default() -> Self {
        Self::quick()
    }
}

/// One die's unit of work: its (variation, map) seed pair for the L1 plus the
/// pair for the L2 when the L2 floor is on.
pub(crate) type DieJob = ((u64, u64), Option<(u64, u64)>);

/// One die's fault maps at one voltage: the L1 map, plus the L2 map when the
/// L2 floor is on.
pub(crate) type DieMaps = (FaultMap, Option<FaultMap>);

impl YieldParams {
    /// The jobs of dies `[start, start + count)`: each die's L1 seed pair,
    /// plus its L2 seed pair when [`YieldParams::include_l2`] is set.
    pub(crate) fn die_jobs(&self, start: usize, count: usize) -> Vec<DieJob> {
        let l2_seeds: Vec<Option<(u64, u64)>> = if self.include_l2 {
            self.l2_die_seeds_range(start, count)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None; count]
        };
        self.die_seeds_range(start, count)
            .into_iter()
            .zip(l2_seeds)
            .collect()
    }

    /// Samples one die's variation (on the L1, and on the L2 when the job
    /// carries L2 seeds) and returns the die's fault maps as a function of
    /// the supply voltage. Each array's map seed is fixed per die, so the
    /// maps are nested across voltages.
    pub(crate) fn die_maps(&self, ((die_seed, map_seed), l2_seeds): DieJob) -> impl Fn(f64) -> DieMaps {
        let die = DieVariation::sample(&YieldStudy::geometry(), &self.variation, die_seed);
        let l2_die = l2_seeds.map(|(l2_die_seed, l2_map_seed)| {
            (
                DieVariation::sample(&YieldStudy::l2_geometry(), &self.variation, l2_die_seed),
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

    /// The pass rule: `scheme` holds the capacity floor on the die's L1 map,
    /// and on its L2 map when one was sampled.
    pub(crate) fn operational_with(&self, scheme: &dyn RepairScheme, (map, l2_map): &DieMaps) -> bool {
        scheme.meets_capacity_floor(map, self.min_capacity)
            && l2_map
                .as_ref()
                .is_none_or(|m| scheme.meets_capacity_floor(m, self.min_capacity))
    }
}

/// The outcome of one die: per repair scheme (registry order), whether the die
/// is operational at each grid voltage and the resulting minimum operational
/// voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct DieResult {
    /// Per scheme, per grid voltage (highest first): is the die operational?
    pub operational: Vec<Vec<bool>>,
    /// Per scheme: the lowest grid voltage the die runs at, or `None` if the
    /// die fails the scheme even at the top of the grid.
    pub min_voltage: Vec<Option<f64>>,
}

/// The die-population yield study over every scheme in the repair registry.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldStudy {
    /// The parameters the study ran with.
    pub params: YieldParams,
    /// The probed voltage grid, highest first.
    pub grid: Vec<f64>,
    /// One result per die, in population order.
    pub dies: Vec<DieResult>,
}

impl YieldStudy {
    /// The cache array the die population is sampled for: the paper's L1.
    #[must_use]
    pub fn geometry() -> CacheGeometry {
        CacheGeometry::ispass2010_l1()
    }

    /// The second array the pass criterion covers when
    /// [`YieldParams::include_l2`] is set: the paper's unified L2.
    #[must_use]
    pub fn l2_geometry() -> CacheGeometry {
        CacheGeometry::ispass2010_l2()
    }

    /// Evaluates one die by a linear scan: its fault maps at every grid
    /// voltage ([`YieldParams::die_maps`]) against every repair scheme's pass
    /// rule ([`YieldParams::operational_with`]). The fleet executor probes
    /// the same maps with the same rule by binary search. The scheme registry
    /// is resolved once per campaign and threaded in, not rebuilt per die.
    fn run_die(
        params: &YieldParams,
        grid: &[f64],
        schemes: &[&'static dyn RepairScheme],
        job: DieJob,
    ) -> DieResult {
        let maps_at = params.die_maps(job);
        let mut operational = vec![Vec::with_capacity(grid.len()); schemes.len()];
        for &v in grid {
            let maps = maps_at(v);
            for (flags, &scheme) in operational.iter_mut().zip(schemes) {
                flags.push(params.operational_with(scheme, &maps));
            }
        }
        // Fault maps are nested across the descending grid and capacity is
        // monotone in the faults, so each scheme's flags are a prefix of
        // `true`s: the minimum operational voltage is the end of that prefix.
        let min_voltage = operational
            .iter()
            .map(|flags| {
                let usable = flags.iter().take_while(|&&ok| ok).count();
                usable.checked_sub(1).map(|k| grid[k])
            })
            .collect();
        DieResult {
            operational,
            min_voltage,
        }
    }

    /// Runs the campaign on the rayon pool, one job per die, scanning every
    /// grid voltage per die. Every seed is derived up front and results are
    /// reassembled in die order, so the worker count never changes a bit.
    #[must_use]
    pub fn run_parallel(params: &YieldParams) -> Self {
        let grid = params.voltage_grid();
        let schemes = registry();
        let dies = map_jobs(params.die_jobs(0, params.dies), false, |job| {
            Self::run_die(params, &grid, &schemes, job)
        });
        Self {
            params: params.clone(),
            grid,
            dies,
        }
    }

    /// The scheme labels of the study's columns, in registry order.
    #[must_use]
    pub fn scheme_labels() -> Vec<String> {
        registry().iter().map(|s| s.label().to_string()).collect()
    }

    /// Fraction of dies operational under scheme `scheme_index` at grid
    /// voltage `grid_index`.
    #[must_use]
    pub fn yield_at(&self, scheme_index: usize, grid_index: usize) -> f64 {
        if self.dies.is_empty() {
            return 0.0;
        }
        let ok = self
            .dies
            .iter()
            .filter(|d| d.operational[scheme_index][grid_index])
            .count();
        ok as f64 / self.dies.len() as f64
    }

    /// Per scheme (registry order), the histogram of minimum-operational-
    /// voltage grid indices plus the count of dead dies: exactly the streaming
    /// aggregate the fleet executor accumulates, derived here from the stored
    /// per-die results so both paths render their reports through the same
    /// code.
    #[must_use]
    pub fn min_voltage_histogram(&self) -> (Vec<Vec<u64>>, Vec<u64>) {
        let schemes = registry().len();
        let mut hist = vec![vec![0u64; self.grid.len()]; schemes];
        let mut dead = vec![0u64; schemes];
        for die in &self.dies {
            for (i, flags) in die.operational.iter().enumerate() {
                let usable = flags.iter().take_while(|&&ok| ok).count();
                match usable.checked_sub(1) {
                    Some(k) => hist[i][k] += 1,
                    None => dead[i] += 1,
                }
            }
        }
        (hist, dead)
    }

    /// The yield-vs-voltage curves: one row per grid voltage (highest first),
    /// one column per repair scheme, each cell the fraction of dies
    /// operational at that voltage.
    #[must_use]
    pub fn yield_curve(&self) -> FigureTable {
        let schemes = registry().len();
        let mut ok_counts = vec![vec![0u64; self.grid.len()]; schemes];
        for die in &self.dies {
            for (i, flags) in die.operational.iter().enumerate() {
                for (k, &ok) in flags.iter().enumerate() {
                    if ok {
                        ok_counts[i][k] += 1;
                    }
                }
            }
        }
        yield_curve_table(&self.grid, &ok_counts, self.dies.len() as u64)
    }

    /// The per-scheme Vcc-min distribution over the die population: mean,
    /// best (lowest) and worst (highest) minimum operational voltage among
    /// dies that run at all, plus the fraction of dead dies (not operational
    /// even at the top of the grid). A scheme with zero live dies has *no*
    /// Vcc-min — its mean/best/worst cells are empty ([`None`]), not a
    /// too-good-to-be-true `0.0`, and they are excluded from the CSV `mean`
    /// footer.
    #[must_use]
    pub fn vccmin_summary(&self) -> FigureTable {
        let (hist, dead) = self.min_voltage_histogram();
        vccmin_summary_table(&self.grid, &hist, &dead, self.dies.len() as u64)
    }
}

/// Renders the yield-vs-voltage curve table from per-scheme/per-voltage
/// operational counts. Shared by [`YieldStudy`] and the fleet executor so the
/// two paths produce byte-identical reports.
pub(crate) fn yield_curve_table(grid: &[f64], ok_counts: &[Vec<u64>], dies: u64) -> FigureTable {
    let mut table = FigureTable::new(
        "Yield study: fraction of dies operational vs supply voltage",
        "voltage",
        YieldStudy::scheme_labels(),
    );
    for (k, &v) in grid.iter().enumerate() {
        let values = ok_counts
            .iter()
            .map(|counts| {
                if dies == 0 {
                    0.0
                } else {
                    counts[k] as f64 / dies as f64
                }
            })
            .collect();
        table.push_row(format!("{v:.3}"), values);
    }
    table
}

/// Renders the per-scheme Vcc-min summary table from the minimum-voltage
/// histogram (per scheme: count of dies per grid index, plus dead-die count).
/// Shared by [`YieldStudy`] and the fleet executor. All statistics are
/// computed from the histogram in ascending grid-index order, so any executor
/// that produces the same integer counts produces the same bytes.
pub(crate) fn vccmin_summary_table(
    grid: &[f64],
    hist: &[Vec<u64>],
    dead: &[u64],
    dies: u64,
) -> FigureTable {
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
    for (label, (counts, &dead_count)) in YieldStudy::scheme_labels()
        .into_iter()
        .zip(hist.iter().zip(dead))
    {
        let alive: u64 = counts.iter().sum();
        let stats = if alive == 0 {
            [None, None, None]
        } else {
            let sum: f64 = grid
                .iter()
                .zip(counts)
                .map(|(&v, &c)| v * c as f64)
                .sum();
            // The grid is highest-first, so the *best* (lowest) Vcc-min sits at
            // the largest populated index and the worst at the smallest.
            let best = counts.iter().rposition(|&c| c > 0).map(|k| grid[k]);
            let worst = counts.iter().position(|&c| c > 0).map(|k| grid[k]);
            [Some(sum / alive as f64), best, worst]
        };
        let dead_fraction = if dies == 0 {
            0.0
        } else {
            dead_count as f64 / dies as f64
        };
        table.push_optional_row(
            label,
            vec![stats[0], stats[1], stats[2], Some(dead_fraction)],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_fault::PfailVoltageModel;

    fn tiny() -> YieldParams {
        YieldParams {
            dies: 8,
            steps: 5,
            ..YieldParams::smoke()
        }
    }

    #[test]
    fn voltage_grid_is_descending_and_inclusive() {
        let grid = YieldParams::quick().voltage_grid();
        assert_eq!(grid.len(), 11);
        assert!((grid[0] - 0.70).abs() < 1e-12);
        assert!((grid[10] - 0.45).abs() < 1e-12);
        for pair in grid.windows(2) {
            assert!(pair[1] < pair[0]);
        }
    }

    #[test]
    fn die_seeds_are_deterministic_and_distinct() {
        let params = tiny();
        let a = params.die_seeds();
        assert_eq!(a, params.die_seeds());
        assert_eq!(a.len(), params.dies);
        let unique: std::collections::HashSet<u64> =
            a.iter().flat_map(|&(d, m)| [d, m]).collect();
        assert_eq!(unique.len(), 2 * params.dies);
    }

    #[test]
    fn seed_ranges_are_windows_of_the_full_sequence() {
        let params = YieldParams {
            dies: 23,
            ..tiny()
        };
        let all = params.die_seeds();
        let l2_all = params.l2_die_seeds();
        for (start, count) in [(0, 23), (0, 5), (7, 9), (22, 1), (23, 0), (5, 0)] {
            assert_eq!(params.die_seeds_range(start, count), all[start..start + count]);
            assert_eq!(
                params.l2_die_seeds_range(start, count),
                l2_all[start..start + count]
            );
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Reference: every die probed in order on the calling thread.
        let params = tiny();
        let grid = params.voltage_grid();
        let schemes = registry();
        let dies = params
            .die_jobs(0, params.dies)
            .into_iter()
            .map(|job| YieldStudy::run_die(&params, &grid, &schemes, job))
            .collect();
        let serial = YieldStudy {
            params: params.clone(),
            grid,
            dies,
        };
        let parallel = YieldStudy::run_parallel(&params);
        assert_eq!(serial, parallel);
        assert_eq!(serial.yield_curve(), parallel.yield_curve());
        assert_eq!(serial.vccmin_summary(), parallel.vccmin_summary());
    }

    #[test]
    fn operational_flags_form_a_prefix_and_yield_is_monotone() {
        let study = YieldStudy::run_parallel(&tiny());
        for die in &study.dies {
            for flags in &die.operational {
                let first_false = flags.iter().take_while(|&&ok| ok).count();
                assert!(
                    flags[first_false..].iter().all(|&ok| !ok),
                    "operational flags must be a true-prefix: {flags:?}"
                );
            }
        }
        for i in 0..YieldStudy::scheme_labels().len() {
            for k in 1..study.grid.len() {
                assert!(
                    study.yield_at(i, k) <= study.yield_at(i, k - 1) + 1e-12,
                    "yield must not grow as voltage drops"
                );
            }
        }
    }

    #[test]
    fn baseline_runs_every_die_to_the_bottom_of_the_grid() {
        let study = YieldStudy::run_parallel(&tiny());
        let bottom = *study.grid.last().unwrap();
        for die in &study.dies {
            // Registry order puts the idealized baseline first.
            assert_eq!(die.min_voltage[0], Some(bottom));
        }
        assert_eq!(study.yield_at(0, study.grid.len() - 1), 1.0);
    }

    #[test]
    fn schemes_order_their_vccmin_as_their_capacity_models_predict() {
        // At the top of the grid (pfail ~ 1e-7) every scheme should be alive;
        // bit-fix must never have a worse Vcc-min than block-disabling on the
        // same die (it dominates block-disabling on every fault map).
        let study = YieldStudy::run_parallel(&YieldParams::smoke());
        let labels = YieldStudy::scheme_labels();
        let block = labels.iter().position(|l| l == "block disabling").unwrap();
        let bitfix = labels.iter().position(|l| l == "bit fix").unwrap();
        for die in &study.dies {
            assert!(die.min_voltage[block].is_some(), "die dead at pfail ~ 1e-7");
            let (b, f) = (die.min_voltage[block].unwrap(), die.min_voltage[bitfix].unwrap());
            assert!(f <= b + 1e-12, "bit-fix Vcc-min {f} worse than block-disabling {b}");
        }
    }

    #[test]
    fn yield_curve_and_summary_have_the_expected_shape() {
        let study = YieldStudy::run_parallel(&tiny());
        let curve = study.yield_curve();
        assert_eq!(curve.rows.len(), study.grid.len());
        assert_eq!(curve.series_labels.len(), 5);
        for (_, values) in &curve.rows {
            for v in values {
                assert!((0.0..=1.0).contains(&v.unwrap()));
            }
        }
        let summary = study.vccmin_summary();
        assert_eq!(summary.rows.len(), 5);
        for (_, values) in &summary.rows {
            // best <= mean <= worst for live schemes.
            let (mean, best, worst) =
                (values[0].unwrap(), values[1].unwrap(), values[2].unwrap());
            assert!(best <= mean + 1e-12);
            assert!(mean <= worst + 1e-12);
        }
    }

    #[test]
    fn histogram_recovers_the_per_die_minimum_voltages() {
        let study = YieldStudy::run_parallel(&tiny());
        let (hist, dead) = study.min_voltage_histogram();
        for (i, (counts, &dead_count)) in hist.iter().zip(&dead).enumerate() {
            let total: u64 = counts.iter().sum::<u64>() + dead_count;
            assert_eq!(total, study.dies.len() as u64);
            for (k, &count) in counts.iter().enumerate() {
                let expected = study
                    .dies
                    .iter()
                    .filter(|d| d.min_voltage[i] == Some(study.grid[k]))
                    .count() as u64;
                assert_eq!(count, expected);
            }
        }
    }

    #[test]
    fn dead_scheme_reports_empty_cells_not_zero() {
        // A grid entirely below every non-ideal scheme's floor: at 0.46 V
        // (pfail ~ 6e-3) block-disabling cannot hold half capacity on any die,
        // so it must report *no* Vcc-min — empty mean/best/worst cells and a
        // dead fraction of 1 — instead of a "best Vcc-min 0.000" that reads
        // better than any live scheme.
        let params = YieldParams {
            v_high: 0.46,
            v_low: 0.44,
            steps: 2,
            ..tiny()
        };
        let study = YieldStudy::run_parallel(&params);
        let summary = study.vccmin_summary();
        let labels = YieldStudy::scheme_labels();
        let block = labels.iter().position(|l| l == "block disabling").unwrap();
        let (label, values) = &summary.rows[block];
        assert_eq!(label, "block disabling");
        assert_eq!(values[0], None, "a dead scheme has no mean Vcc-min");
        assert_eq!(values[1], None, "a dead scheme has no best Vcc-min");
        assert_eq!(values[2], None, "a dead scheme has no worst Vcc-min");
        assert_eq!(values[3], Some(1.0));
        // The baseline ignores faults and stays alive, so the mean footer is
        // computed over live schemes only — and stays a real voltage, not a
        // value dragged toward zero by the dead row.
        let means = summary.series_means();
        assert!(means[0].unwrap() >= params.v_low);
        // The CSV encodes the dead cells as empty fields.
        let csv = summary.to_csv();
        assert!(
            csv.lines().any(|l| l.starts_with("block disabling,,,,")),
            "dead scheme must render empty Vcc-min cells: {csv}"
        );
    }

    #[test]
    fn l2_floor_never_helps_and_only_tightens_the_criterion() {
        // Same seeds with and without the L2 floor: a die operational with the
        // L2 included must be operational without it (the criterion is a
        // conjunction), and the L1-only study is bit-identical to before.
        let base = tiny();
        let with_l2 = YieldParams {
            include_l2: true,
            ..base.clone()
        };
        let a = YieldStudy::run_parallel(&base);
        let b = YieldStudy::run_parallel(&with_l2);
        assert_eq!(a.dies.len(), b.dies.len());
        for (da, db) in a.dies.iter().zip(&b.dies) {
            for (fa, fb) in da.operational.iter().zip(&db.operational) {
                for (&l1_only, &both) in fa.iter().zip(fb) {
                    assert!(!both || l1_only, "the L2 floor cannot revive a die");
                }
            }
            for (va, vb) in da.min_voltage.iter().zip(&db.min_voltage) {
                match (va, vb) {
                    (Some(l1_only), Some(both)) => assert!(both >= l1_only),
                    (None, Some(_)) => panic!("the L2 floor cannot revive a die"),
                    _ => {}
                }
            }
        }
        // Parallel stays bit-identical with the L2 floor enabled, and the
        // monotone prefix structure survives (nested maps on both arrays).
        assert_eq!(b, YieldStudy::run_parallel(&with_l2));
        for die in &b.dies {
            for flags in &die.operational {
                let first_false = flags.iter().take_while(|&&ok| ok).count();
                assert!(flags[first_false..].iter().all(|&ok| !ok));
            }
        }
        // The idealized baseline ignores faults on both arrays.
        let bottom = *b.grid.last().unwrap();
        for die in &b.dies {
            assert_eq!(die.min_voltage[0], Some(bottom));
        }
    }

    #[test]
    fn l2_seeds_are_disjoint_from_l1_seeds() {
        let params = tiny();
        let l1: std::collections::HashSet<u64> =
            params.die_seeds().iter().flat_map(|&(d, m)| [d, m]).collect();
        let l2: std::collections::HashSet<u64> =
            params.l2_die_seeds().iter().flat_map(|&(d, m)| [d, m]).collect();
        assert_eq!(l2.len(), 2 * params.dies);
        assert!(l1.is_disjoint(&l2), "L1 and L2 arrays must fault independently");
    }

    #[test]
    fn empty_population_yields_zero_not_nan() {
        let params = YieldParams { dies: 0, ..tiny() };
        let study = YieldStudy::run_parallel(&params);
        assert_eq!(study.yield_at(0, 0), 0.0);
        let summary = study.vccmin_summary();
        for (_, values) in &summary.rows {
            // No dies means no Vcc-min statistics (empty cells, never NaN) and
            // a well-defined dead fraction of zero.
            assert_eq!(values[0], None);
            assert_eq!(values[1], None);
            assert_eq!(values[2], None);
            assert_eq!(values[3], Some(0.0));
        }
    }

    #[test]
    fn iid_population_is_statistically_flat_across_dies() {
        // Without systematic variation every die sees the same per-word
        // probabilities; at the paper's operating point (~0.5 V, pfail 1e-3)
        // block-disabling should keep essentially every die above half
        // capacity (the paper's 99.9% claim).
        let params = YieldParams {
            dies: 64,
            variation: VariationModel::iid(PfailVoltageModel::ispass2010()),
            ..YieldParams::quick()
        };
        let study = YieldStudy::run_parallel(&params);
        let labels = YieldStudy::scheme_labels();
        let block = labels.iter().position(|l| l == "block disabling").unwrap();
        let half_volt = study
            .grid
            .iter()
            .position(|&v| (v - 0.5).abs() < 1e-9)
            .expect("0.5 is on the quick grid");
        assert!(study.yield_at(block, half_volt) > 0.95);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn degenerate_grid_is_rejected() {
        let params = YieldParams { steps: 1, ..tiny() };
        let _ = params.voltage_grid();
    }
}
