//! The die-population yield campaign's parameters: "at what voltage can each
//! die run, and what fraction of dies meets a target Vcc-min under each repair
//! scheme?"
//!
//! The paper evaluates its schemes at a handful of fixed `pfail` points; this
//! campaign asks the designer's actual question. It samples a population of
//! dies from the process-variation model of `vccmin-fault` (spatially
//! correlated systematic Vcc-min offsets plus the calibrated `pfail(V)` random
//! component), generates each die's fault map at the voltages of a grid, and
//! computes — per repair scheme in the [`vccmin_cache::repair::registry`] —
//! the die's *minimum operational voltage*: the lowest supply at which the
//! scheme can still repair the map and retain at least
//! [`YieldParams::min_capacity`] of the cache.
//!
//! Two structural invariants make the campaign well posed:
//!
//! * per die and seed, fault maps are **nested across voltages**
//!   ([`FaultMap::generate_at_voltage`](vccmin_fault::FaultMap::generate_at_voltage)),
//!   and no scheme gains capacity from extra faults, so a die's operational
//!   range is a contiguous voltage interval and every yield curve is monotone
//!   non-increasing as the supply drops;
//! * all randomness derives from [`YieldParams::master_seed`] through
//!   [`SeedSequence`], one seed pair per die, so any split of the population
//!   into work units gives the same bits on any worker count.
//!
//! [`FleetStudy`](crate::fleet::FleetStudy) is the campaign's one executor.
//! [`YieldStudy`] names its fixed inputs: the two cache arrays and the scheme
//! columns. The workspace tests rebuild the campaign by a linear scan over
//! public calls and pin the executor to it; in the i.i.d. limit (zero
//! systematic variance) they also cross-validate the Monte-Carlo yield
//! against the closed forms of `vccmin_analysis::yield_model`.

use vccmin_cache::repair::registry;
use vccmin_fault::{CacheGeometry, SeedSequence, VariationModel};

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

/// The die-population yield study's fixed inputs: the cache arrays dies are
/// sampled for and the repair schemes they are judged under. The campaign
/// itself runs through [`FleetStudy`](crate::fleet::FleetStudy).
#[derive(Debug, Clone, Copy)]
pub struct YieldStudy;

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

    /// The scheme labels of the study's columns, in registry order.
    #[must_use]
    pub fn scheme_labels() -> Vec<String> {
        registry().iter().map(|s| s.label().to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetParams, FleetStudy};
    use vccmin_fault::PfailVoltageModel;

    fn tiny() -> YieldParams {
        YieldParams {
            dies: 8,
            steps: 5,
            ..YieldParams::smoke()
        }
    }

    fn run(params: &YieldParams) -> FleetStudy {
        FleetStudy::run_parallel(&FleetParams::new(params.clone()))
    }

    /// Yield-curve cell of scheme `scheme` at grid index `k`.
    fn yield_cell(study: &FleetStudy, scheme: usize, k: usize) -> f64 {
        study.yield_curve().rows[k].1[scheme].expect("a populated campaign has every cell")
    }

    fn scheme_index(label: &str) -> usize {
        YieldStudy::scheme_labels()
            .iter()
            .position(|l| l == label)
            .expect("scheme in registry")
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
        // One die per shard spreads the population over the pool; a single
        // shard holding every die is one job, run die by die on one worker.
        let params = tiny();
        let spread = FleetStudy::run_parallel(&FleetParams {
            yields: params.clone(),
            shard_dies: 1,
        });
        let one_job = FleetStudy::run_parallel(&FleetParams {
            yields: params.clone(),
            shard_dies: params.dies,
        });
        assert_eq!(
            (&spread.hist, &spread.dead, spread.dies),
            (&one_job.hist, &one_job.dead, one_job.dies)
        );
        assert_eq!(spread.yield_curve(), one_job.yield_curve());
        assert_eq!(spread.vccmin_summary(), one_job.vccmin_summary());
    }

    #[test]
    fn baseline_runs_every_die_to_the_bottom_of_the_grid() {
        let study = run(&tiny());
        let bottom = study.grid.len() - 1;
        // Registry order puts the idealized baseline first.
        assert_eq!(study.hist[0][bottom], study.dies);
        assert_eq!(yield_cell(&study, 0, bottom), 1.0);
    }

    #[test]
    fn schemes_order_their_vccmin_as_their_capacity_models_predict() {
        // At the top of the grid (pfail ~ 1e-7) every scheme should be alive;
        // bit-fix dominates block-disabling on every fault map, so on every
        // die its Vcc-min is no worse — and at every voltage it keeps at
        // least as many dies operational.
        let study = run(&YieldParams::smoke());
        let (block, bitfix) = (scheme_index("block disabling"), scheme_index("bit fix"));
        assert_eq!(study.dead[block], 0, "die dead at pfail ~ 1e-7");
        assert_eq!(study.dead[bitfix], 0, "die dead at pfail ~ 1e-7");
        for k in 0..study.grid.len() {
            assert!(yield_cell(&study, bitfix, k) >= yield_cell(&study, block, k));
        }
        let summary = study.vccmin_summary();
        for stat in 0..3 {
            let (b, f) = (
                summary.rows[block].1[stat].unwrap(),
                summary.rows[bitfix].1[stat].unwrap(),
            );
            assert!(f <= b + 1e-12, "bit-fix Vcc-min {f} worse than block-disabling {b}");
        }
    }

    #[test]
    fn yield_curve_and_summary_have_the_expected_shape() {
        let study = run(&tiny());
        let curve = study.yield_curve();
        assert_eq!(curve.rows.len(), study.grid.len());
        assert_eq!(curve.series_labels.len(), 5);
        for (_, values) in &curve.rows {
            for v in values {
                assert!((0.0..=1.0).contains(&v.unwrap()));
            }
        }
        // Yield never grows as the voltage drops.
        for pair in curve.rows.windows(2) {
            for (lower, higher) in pair[1].1.iter().zip(&pair[0].1) {
                assert!(lower.unwrap() <= higher.unwrap() + 1e-12);
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
        let summary = run(&params).vccmin_summary();
        let block = scheme_index("block disabling");
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
        // Same seeds with and without the L2 floor: the criterion is a
        // conjunction, so at every voltage no more dies are operational with
        // the L2 included, and no fewer are dead.
        let base = tiny();
        let with_l2 = YieldParams {
            include_l2: true,
            ..base.clone()
        };
        let a = run(&base);
        let b = run(&with_l2);
        assert_eq!(a.dies, b.dies);
        for k in 0..a.grid.len() {
            for i in 0..a.hist.len() {
                assert!(yield_cell(&b, i, k) <= yield_cell(&a, i, k), "the L2 floor cannot revive a die");
            }
        }
        for (&l1_only, &both) in a.dead.iter().zip(&b.dead) {
            assert!(both >= l1_only);
        }
        // The L1-only campaign is unchanged by the L2 seed fork, the L2 one
        // is reproducible, and the idealized baseline ignores faults on both
        // arrays.
        assert_eq!(a, run(&base));
        assert_eq!(b, run(&with_l2));
        assert_eq!(b.hist[0][b.grid.len() - 1], b.dies);
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
        // No dies means no fraction of them: every yield cell, Vcc-min
        // statistic and dead fraction is an empty cell — never NaN, and never
        // a silent `0.0`.
        let params = YieldParams { dies: 0, ..tiny() };
        let study = run(&params);
        for (_, values) in &study.yield_curve().rows {
            assert!(values.iter().all(Option::is_none));
        }
        for (_, values) in &study.vccmin_summary().rows {
            assert!(values.iter().all(Option::is_none));
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
        let study = run(&params);
        let half_volt = study
            .grid
            .iter()
            .position(|&v| (v - 0.5).abs() < 1e-9)
            .expect("0.5 is on the quick grid");
        assert!(yield_cell(&study, scheme_index("block disabling"), half_volt) > 0.95);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn degenerate_grid_is_rejected() {
        let params = YieldParams { steps: 1, ..tiny() };
        let _ = params.voltage_grid();
    }
}
