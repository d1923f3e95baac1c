//! The simulation campaigns behind Figures 8–12 of the paper.
//!
//! A campaign runs every workload on every cache configuration. Configurations
//! whose behavior depends on the random fault map (the block-disabling variants) are
//! evaluated over several independently sampled fault-map *pairs* (one map for the
//! instruction cache, one for the data cache) and reported as the mean and minimum
//! normalized performance — exactly how the paper presents its results (50 pairs at
//! `pfail = 0.001`).
//!
//! Campaigns additionally carry an **L2-faulty axis**
//! ([`SimulationParams::l2`], an [`L2Protection`]): with anything but the
//! default perfect L2, each fault-map pair is extended by an L2 fault map
//! (sampled from a seed fork of its own, so the L1 maps never change) and the
//! chosen scheme's effective L2 organization — including whole-cache failure
//! on the L2 — feeds the same accounting as the L1 schemes.
//!
//! Every study in this module takes its fault maps from one [`FaultMapPool`]
//! and runs through one executor: each (workload, configuration) or
//! (workload, governor policy) cell becomes one job per independent fault-map
//! pair, or one job for the whole cell; the jobs run on the calling thread or
//! the rayon pool, and their outputs are regrouped per cell and tallied into
//! runs and whole-cache failures. Every performance table renders through one
//! builder from a list of `(label, scheme, mean or min)` columns. A value that
//! does not exist — a scheme none of whose fault maps could be repaired — is
//! `None` and renders as an empty cell, never as `0.0`.

use std::sync::OnceLock;

use vccmin_analysis::voltage::VoltageScalingModel;
use vccmin_cache::{
    CacheGeometry, CacheHierarchy, DisablingScheme, FaultMap, VoltageMode,
};
use vccmin_cpu::{CoreModel, SimResult};
use vccmin_fault::SeedSequence;
use vccmin_workloads::{Benchmark, PhaseSchedule};

use crate::config::{L2Protection, SchemeConfig};
use crate::governor::{
    run_governed, GovernedRun, GovernedRunSpec, GovernorMetrics, GovernorPolicy,
    TransitionCostModel,
};
use crate::map_jobs;
use crate::report::FigureTable;
use crate::workload::Workload;

/// Parameters of a simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationParams {
    /// Instructions simulated per run (the paper uses 100 M; the default is scaled
    /// down so a full campaign finishes in minutes on a laptop).
    pub instructions: u64,
    /// Number of fault-map pairs per fault-dependent configuration (the paper uses 50).
    pub fault_map_pairs: usize,
    /// Per-cell probability of failure below Vcc-min (0.001 in the paper).
    pub pfail: f64,
    /// Master seed from which every fault map and trace seed is derived.
    pub master_seed: u64,
    /// Workloads to simulate — synthetic profiles and/or RISC-V kernels.
    pub workloads: Vec<Workload>,
    /// How the unified L2 is protected below Vcc-min. The default
    /// ([`L2Protection::Perfect`]) reproduces the paper's fault-free L2 bit
    /// for bit; any other choice samples one L2 fault map per fault-map pair
    /// and resolves the chosen scheme's effective L2 organization.
    pub l2: L2Protection,
    /// Which CPU backend simulates the traces. The default
    /// ([`CoreModel::OutOfOrder`]) is the paper's core, so every pre-existing
    /// golden is untouched; [`CoreModel::InOrder`] re-runs the same campaign
    /// on the scalar stall-on-use core. The trace seed derivation does not
    /// depend on this axis, so both cores replay identical instruction
    /// streams against identical fault maps.
    pub core: CoreModel,
}

impl SimulationParams {
    /// A quick campaign: every workload, scaled-down instruction counts and fault
    /// map counts. Finishes in a few minutes; suitable for the example binaries.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            instructions: 60_000,
            fault_map_pairs: 5,
            pfail: 0.001,
            master_seed: 0x15_2A55_2010,
            workloads: Workload::all_synthetic(),
            l2: L2Protection::Perfect,
            core: CoreModel::OutOfOrder,
        }
    }

    /// A smoke-test campaign: four representative workloads, tiny traces. Used by
    /// unit/integration tests and the CLI's `--smoke` flag.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            instructions: 15_000,
            fault_map_pairs: 2,
            pfail: 0.001,
            master_seed: 7,
            workloads: vec![
                Benchmark::Crafty.into(),
                Benchmark::Mcf.into(),
                Benchmark::Swim.into(),
                Benchmark::Gzip.into(),
            ],
            l2: L2Protection::Perfect,
            core: CoreModel::OutOfOrder,
        }
    }

    /// A quick campaign over the real RISC-V kernels only: the four RV32IM
    /// kernels executed on the interpreter. The instruction budget is higher
    /// than [`Self::quick`] because every kernel starts with a sequential,
    /// data-independent fill loop (~75 k instructions at the default working
    /// set) that must be retired before the cache-sensitive, data-dependent
    /// body phases are reached. This is the configuration pinned by the
    /// `riscv_schemes` golden.
    #[must_use]
    pub fn riscv_quick() -> Self {
        Self {
            instructions: 250_000,
            workloads: Workload::all_riscv(),
            ..Self::quick()
        }
    }

    /// The quick-scale two-core matrix campaign pinned by the `core_matrix`
    /// golden: a representative synthetic subset plus one RISC-V kernel, with
    /// an instruction budget high enough that the kernel's sequential fill
    /// prefix (~75 k instructions) is retired and its data-dependent body is
    /// reached, and a reduced pair count so the doubled (two-core) campaign
    /// stays quick.
    #[must_use]
    pub fn core_matrix_quick() -> Self {
        Self {
            instructions: 120_000,
            fault_map_pairs: 3,
            workloads: vec![
                Benchmark::Crafty.into(),
                Benchmark::Mcf.into(),
                Benchmark::Swim.into(),
                Benchmark::Gzip.into(),
                vccmin_riscv::RvKernel::Quicksort.into(),
            ],
            ..Self::quick()
        }
    }

    /// The paper-scale campaign: 100 M instructions, 50 fault-map pairs, all 26
    /// workloads. This takes many CPU-hours; use it only for a full reproduction.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            instructions: 100_000_000,
            fault_map_pairs: 50,
            pfail: 0.001,
            master_seed: 2010,
            workloads: Workload::all_synthetic(),
            l2: L2Protection::Perfect,
            core: CoreModel::OutOfOrder,
        }
    }

    /// The trace seed every campaign in this module uses for `workload`,
    /// derived from the master seed so every configuration of a workload (on
    /// either core) replays the identical instruction stream. Public so
    /// equivalence tests can replay the same stream.
    #[must_use]
    pub fn trace_seed(&self, workload: Workload) -> u64 {
        SeedSequence::new(self.master_seed)
            .fork(workload.name())
            .next_seed()
    }
}

impl Default for SimulationParams {
    fn default() -> Self {
        Self::quick()
    }
}

/// Result of one configuration on one workload: one [`SimResult`] per fault-map
/// pair (a single entry for fault-independent configurations).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// The configuration that was simulated.
    pub scheme: SchemeConfig,
    /// One result per evaluated fault-map pair.
    pub runs: Vec<SimResult>,
    /// Fault-map pairs skipped because the repair scheme could not repair them
    /// (whole-cache failure).
    pub whole_cache_failures: usize,
}

impl ConfigResult {
    /// Mean IPC over the evaluated fault maps, or `None` when no fault map
    /// could be evaluated.
    #[must_use]
    pub fn mean_ipc(&self) -> Option<f64> {
        if self.runs.is_empty() {
            return None;
        }
        Some(self.runs.iter().map(SimResult::ipc).sum::<f64>() / self.runs.len() as f64)
    }

    /// Minimum (worst fault map) IPC, or `None` when no fault map could be
    /// evaluated.
    #[must_use]
    pub fn min_ipc(&self) -> Option<f64> {
        self.runs.iter().map(SimResult::ipc).reduce(f64::min)
    }
}

/// Which statistic of a configuration's runs a table column reports.
#[derive(Debug, Clone, Copy)]
enum Stat {
    /// The mean over the evaluated fault maps.
    Mean,
    /// The worst evaluated fault map.
    Min,
}

/// All configuration results for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// The workload.
    pub workload: Workload,
    /// Results per configuration.
    pub configs: Vec<ConfigResult>,
}

impl BenchmarkResult {
    /// The result for a specific configuration.
    #[must_use]
    pub fn config(&self, scheme: SchemeConfig) -> Option<&ConfigResult> {
        self.configs.iter().find(|c| c.scheme == scheme)
    }

    /// Mean performance of `scheme` normalized to the mean performance of
    /// `baseline`, or `None` when either was not simulated or has no
    /// evaluated run.
    #[must_use]
    pub fn normalized_mean(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> Option<f64> {
        self.normalized(scheme, Stat::Mean, baseline)
    }

    /// Minimum (worst fault map) performance of `scheme` normalized to the mean
    /// performance of `baseline`, or `None` as for [`Self::normalized_mean`].
    #[must_use]
    pub fn normalized_min(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> Option<f64> {
        self.normalized(scheme, Stat::Min, baseline)
    }

    fn normalized(&self, scheme: SchemeConfig, stat: Stat, baseline: SchemeConfig) -> Option<f64> {
        let base = self.config(baseline)?.mean_ipc().filter(|&b| b > 0.0)?;
        let runs = self.config(scheme)?;
        let value = match stat {
            Stat::Mean => runs.mean_ipc(),
            Stat::Min => runs.min_ipc(),
        }?;
        Some(value / base)
    }
}

/// One column of a normalized performance table: its label, the scheme it
/// reports and which statistic of that scheme's runs.
type Column<L> = (L, SchemeConfig, Stat);

/// The `avg` and `min` columns of each scheme, labelled
/// `"{prefix}{scheme} avg"` and `"{prefix}{scheme} min"`.
fn avg_min_columns(prefix: &str, schemes: &[SchemeConfig]) -> Vec<Column<String>> {
    schemes
        .iter()
        .flat_map(|&scheme| {
            [
                (format!("{prefix}{} avg", scheme.label()), scheme, Stat::Mean),
                (format!("{prefix}{} min", scheme.label()), scheme, Stat::Min),
            ]
        })
        .collect()
}

/// One workload's cells: each column's statistic normalized to the mean
/// performance of `baseline`, `None` where it is undefined.
fn normalized_cells<L>(
    b: &BenchmarkResult,
    baseline: SchemeConfig,
    columns: &[Column<L>],
) -> Vec<Option<f64>> {
    columns
        .iter()
        .map(|&(_, scheme, stat)| b.normalized(scheme, stat, baseline))
        .collect()
}

/// A performance table with one row per workload and one cell per column,
/// normalized to `baseline`.
fn normalized_table<L: AsRef<str>>(
    title: &str,
    workloads: &[BenchmarkResult],
    baseline: SchemeConfig,
    columns: &[Column<L>],
) -> FigureTable {
    let labels = columns
        .iter()
        .map(|(label, ..)| label.as_ref().to_string())
        .collect();
    let mut table = FigureTable::new(title, "benchmark", labels);
    for b in workloads {
        table.push_optional_row(b.workload.name(), normalized_cells(b, baseline, columns));
    }
    table
}

/// Average over `workloads` of the mean performance of `scheme` normalized to
/// `baseline`, over the workloads where it is defined (the rule of a table's
/// `mean` footer); `None` when no workload defines it.
fn average_normalized(
    workloads: &[BenchmarkResult],
    scheme: SchemeConfig,
    baseline: SchemeConfig,
) -> Option<f64> {
    let defined: Vec<f64> = workloads
        .iter()
        .filter_map(|b| b.normalized_mean(scheme, baseline))
        .collect();
    (!defined.is_empty()).then(|| defined.iter().sum::<f64>() / defined.len() as f64)
}

/// Runs one workload on one hierarchy with the campaign's CPU backend, trace
/// seed and instruction budget, and returns the result. Core construction
/// goes through [`CoreModel::build`] — the same factory path the governor
/// uses — so every campaign executor builds cores identically.
fn simulate(params: &SimulationParams, workload: Workload, hierarchy: CacheHierarchy) -> SimResult {
    let mut cpu = params.core.build(hierarchy);
    let mut trace = workload.source(params.trace_seed(workload));
    cpu.run(&mut trace, Some(params.instructions))
}

/// The fault maps of one campaign parameter set, generated once and shared.
///
/// This is the only source of campaign fault maps. Every study over one
/// parameter set needs the same fault-map pairs and L2 maps, derived from
/// `params.master_seed`. A pool derives them from the same [`SeedSequence`]
/// forks exactly once, lazily per cache level (a high-voltage-only campaign
/// never generates L1 pairs; a perfect-L2 campaign never generates L2 maps),
/// and hands out shared slices, so campaigns that run several studies over
/// one parameter set (`vccmin-repro all`) reuse one set of maps
/// bit-identically.
#[derive(Debug)]
pub struct FaultMapPool {
    master_seed: u64,
    pfail: f64,
    pair_count: usize,
    pairs: OnceLock<Vec<(FaultMap, FaultMap)>>,
    l2: OnceLock<Vec<FaultMap>>,
}

impl FaultMapPool {
    /// A pool for `params`. Nothing is generated until first use.
    #[must_use]
    pub fn new(params: &SimulationParams) -> Self {
        Self {
            master_seed: params.master_seed,
            pfail: params.pfail,
            pair_count: params.fault_map_pairs,
            pairs: OnceLock::new(),
            l2: OnceLock::new(),
        }
    }

    /// Whether this pool was built from fault-map-equivalent parameters
    /// (same master seed, failure probability and pair count).
    #[must_use]
    pub fn matches(&self, params: &SimulationParams) -> bool {
        self.master_seed == params.master_seed
            && self.pfail == params.pfail
            && self.pair_count == params.fault_map_pairs
    }

    /// The campaign's L1 fault-map pairs (instruction cache, data cache).
    #[must_use]
    pub fn pairs(&self) -> &[(FaultMap, FaultMap)] {
        self.pairs.get_or_init(|| {
            let geom = CacheGeometry::ispass2010_l1();
            let mut seeds = SeedSequence::new(self.master_seed).fork("fault-maps");
            (0..self.pair_count)
                .map(|_| {
                    let si = seeds.next_seed();
                    let sd = seeds.next_seed();
                    (
                        FaultMap::generate(&geom, self.pfail, si),
                        FaultMap::generate(&geom, self.pfail, sd),
                    )
                })
                .collect()
        })
    }

    /// The campaign's L2 fault maps, one per fault-map pair, from a seed fork
    /// of their own: the L1 pairs are bit-identical whether or not the L2
    /// axis is enabled.
    #[must_use]
    pub fn l2_maps(&self) -> &[FaultMap] {
        self.l2.get_or_init(|| {
            let geom = CacheGeometry::ispass2010_l2();
            let mut seeds = SeedSequence::new(self.master_seed).fork("l2-fault-maps");
            (0..self.pair_count)
                .map(|_| FaultMap::generate(&geom, self.pfail, seeds.next_seed()))
                .collect()
        })
    }

    /// The campaign's L2 fault maps if `l2` actually needs them for any of
    /// `schemes`, an empty slice otherwise (nothing is generated in that case).
    #[must_use]
    pub fn l2_maps_if_needed(&self, l2: L2Protection, schemes: &[SchemeConfig]) -> &[FaultMap] {
        if l2.needs_fault_maps(schemes) {
            self.l2_maps()
        } else {
            &[]
        }
    }
}

/// Runs a study's cells and returns each cell's outputs, in cell order.
///
/// `fan_out(cell)` is `Some(n)` when the cell's `n` fault-map pairs are
/// independent units of work: the cell becomes `n` jobs, `run(cell, Some(i))`
/// for pair `i`. Otherwise (`None`) the cell is one job, `run(cell, None)`.
/// A cell's outputs are its jobs' outputs concatenated in pair order.
///
/// Determinism: every fault map and trace seed is derived up front from the
/// master seed, and [`map_jobs`] returns the outputs in job order (on the
/// calling thread when `serial`, on the rayon pool otherwise), so the result
/// does not depend on the worker count or on how the jobs are scheduled.
fn run_cells<C: Sync, O: Send>(
    cells: &[C],
    fan_out: impl Fn(&C) -> Option<usize>,
    run: impl Fn(&C, Option<usize>) -> Vec<O> + Sync + Send,
    serial: bool,
) -> Vec<Vec<O>> {
    let mut jobs = Vec::new();
    for (index, cell) in cells.iter().enumerate() {
        match fan_out(cell) {
            Some(pairs) => jobs.extend((0..pairs).map(|pair| (index, Some(pair)))),
            None => jobs.push((index, None)),
        }
    }
    let mut outputs: Vec<Vec<O>> = cells.iter().map(|_| Vec::new()).collect();
    for (index, out) in map_jobs(jobs, serial, |(index, pair)| (index, run(&cells[index], pair))) {
        outputs[index].extend(out);
    }
    outputs
}

/// Splits a cell's outcomes into the evaluated runs and the number of
/// fault-map pairs the repair scheme could not repair (`None` outcomes:
/// whole-cache failures).
fn split_failures<T>(outcomes: Vec<Option<T>>) -> (Vec<T>, usize) {
    let total = outcomes.len();
    let runs: Vec<T> = outcomes.into_iter().flatten().collect();
    let failures = total - runs.len();
    (runs, failures)
}

/// Whether `scheme` at `voltage` is evaluated once per fault-map pair: the L1
/// scheme or the campaign's L2 protection depends on the sampled faults.
fn map_dependent(params: &SimulationParams, scheme: SchemeConfig, voltage: VoltageMode) -> bool {
    voltage == VoltageMode::Low
        && (scheme.fault_dependent()
            || params.l2.scheme_for(scheme).repair().needs_fault_map())
}

/// Whether each fault-map pair of a map-dependent configuration is an
/// independent unit of work. Configurations whose repaired organization is
/// identical for every usable map — word-disabling's always-halved cache, on
/// *both* the L1s and the L2 — are the exception: the first usable pair
/// stands for all of them, so the cell stops there, which makes later pairs
/// depend on the earlier outcomes.
fn pairs_independent(params: &SimulationParams, scheme: SchemeConfig) -> bool {
    !(scheme.scheme().repair().performance_uniform_across_maps()
        && params
            .l2
            .scheme_for(scheme)
            .repair()
            .performance_uniform_across_maps())
}

/// Runs a campaign over every (workload, configuration) cell at `voltage`.
/// A map-dependent cell with independent pairs runs one job per fault-map
/// pair; every other cell runs as one job: a fault-free run, or the pairs in
/// order up to the first usable one.
fn run_campaign(
    params: &SimulationParams,
    pool: &FaultMapPool,
    schemes: &[SchemeConfig],
    voltage: VoltageMode,
    serial: bool,
) -> Vec<BenchmarkResult> {
    debug_assert!(pool.matches(params), "fault-map pool built from different parameters");
    let (pairs, l2_maps): (&[(FaultMap, FaultMap)], &[FaultMap]) = if voltage == VoltageMode::Low
    {
        (pool.pairs(), pool.l2_maps_if_needed(params.l2, schemes))
    } else {
        (&[], &[])
    };
    // One fault-map pair of one cell, or `None` when a repair scheme cannot
    // repair one of the maps (whole-cache failure, on the L1s or the L2).
    let on_pair = |workload: Workload, scheme: SchemeConfig, i: usize| {
        let cfg = scheme.hierarchy_config_with_l2(voltage, params.l2);
        let (map_i, map_d) = &pairs[i];
        CacheHierarchy::with_all_fault_maps(cfg, Some(map_i), Some(map_d), l2_maps.get(i))
            .ok()
            .map(|hierarchy| simulate(params, workload, hierarchy))
    };
    let cells: Vec<(Workload, SchemeConfig)> = params
        .workloads
        .iter()
        .flat_map(|&workload| schemes.iter().map(move |&scheme| (workload, scheme)))
        .collect();
    let outputs = run_cells(
        &cells,
        |&(_, scheme)| {
            (map_dependent(params, scheme, voltage) && pairs_independent(params, scheme))
                .then_some(pairs.len())
        },
        |&(workload, scheme), pair| match pair {
            Some(i) => vec![on_pair(workload, scheme, i)],
            None if map_dependent(params, scheme, voltage) => {
                let mut outcomes = Vec::new();
                for i in 0..pairs.len() {
                    let outcome = on_pair(workload, scheme, i);
                    let usable = outcome.is_some();
                    outcomes.push(outcome);
                    if usable {
                        break;
                    }
                }
                outcomes
            }
            None => {
                let cfg = scheme.hierarchy_config_with_l2(voltage, params.l2);
                vec![Some(simulate(params, workload, CacheHierarchy::new(cfg)))]
            }
        },
        serial,
    );
    let mut configs = cells.iter().zip(outputs).map(|(&(_, scheme), outcomes)| {
        let (runs, whole_cache_failures) = split_failures(outcomes);
        ConfigResult {
            scheme,
            runs,
            whole_cache_failures,
        }
    });
    params
        .workloads
        .iter()
        .map(|&workload| BenchmarkResult {
            workload,
            configs: configs.by_ref().take(schemes.len()).collect(),
        })
        .collect()
}

/// The low-voltage campaign behind Figures 8, 9 and 10.
#[derive(Debug, Clone, PartialEq)]
pub struct LowVoltageStudy {
    /// Per-workload results.
    pub workloads: Vec<BenchmarkResult>,
}

impl LowVoltageStudy {
    /// The configurations this study evaluates.
    pub const SCHEMES: [SchemeConfig; 6] = [
        SchemeConfig::Baseline,
        SchemeConfig::BaselineVictim,
        SchemeConfig::WordDisabling,
        SchemeConfig::BlockDisabling,
        SchemeConfig::BlockDisablingVictim10T,
        SchemeConfig::BlockDisablingVictim6T,
    ];

    /// Runs the campaign on the rayon pool, fanning out over
    /// workload × configuration × fault-map pair. All randomness is derived
    /// up front from `params.master_seed` via [`SeedSequence`] and results are
    /// reassembled in job order, so the worker count never changes a bit.
    #[must_use]
    pub fn run_parallel(params: &SimulationParams) -> Self {
        Self::run_with_pool(params, &FaultMapPool::new(params), false)
    }

    /// Runs the campaign against a shared [`FaultMapPool`], reusing maps
    /// already generated for another study instead of regenerating them.
    /// `serial` runs the same job list on the calling thread instead of the
    /// pool; the result is identical either way.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        Self {
            workloads: run_campaign(params, pool, &Self::SCHEMES, VoltageMode::Low, serial),
        }
    }

    /// Figure 8: performance normalized to the baseline *without* victim cache —
    /// word-disabling, block-disabling (avg), block-disabling+V$ 10T (avg),
    /// block-disabling (min), block-disabling+V$ 10T (min).
    #[must_use]
    pub fn figure8(&self) -> FigureTable {
        use SchemeConfig::{BlockDisabling, BlockDisablingVictim10T, WordDisabling};
        use Stat::{Mean, Min};
        normalized_table(
            "Figure 8: below Vcc-min, normalized to baseline without victim cache",
            &self.workloads,
            SchemeConfig::Baseline,
            &[
                ("word disabling", WordDisabling, Mean),
                ("block disabling avg", BlockDisabling, Mean),
                ("block disabling avg+V$ 10T", BlockDisablingVictim10T, Mean),
                ("block disabling min", BlockDisabling, Min),
                ("block disabling min+V$ 10T", BlockDisablingVictim10T, Min),
            ],
        )
    }

    /// Figure 9: every configuration (including the baseline) has a 10T victim
    /// cache; normalized to that baseline.
    #[must_use]
    pub fn figure9(&self) -> FigureTable {
        use SchemeConfig::{BlockDisablingVictim10T, WordDisabling};
        use Stat::{Mean, Min};
        normalized_table(
            "Figure 9: below Vcc-min, normalized to baseline with 10T victim cache",
            &self.workloads,
            SchemeConfig::BaselineVictim,
            &[
                ("word disabling", WordDisabling, Mean),
                ("block disabling avg", BlockDisablingVictim10T, Mean),
                ("block disabling min", BlockDisablingVictim10T, Min),
            ],
        )
    }

    /// Figure 10: 10T versus 6T victim cells for the block-disabled cache,
    /// normalized to the baseline without victim cache.
    #[must_use]
    pub fn figure10(&self) -> FigureTable {
        use SchemeConfig::{BlockDisablingVictim10T, BlockDisablingVictim6T, WordDisabling};
        use Stat::{Mean, Min};
        normalized_table(
            "Figure 10: 16-entry victim cache, 10T vs 6T cells (below Vcc-min)",
            &self.workloads,
            SchemeConfig::Baseline,
            &[
                ("word disabling", WordDisabling, Mean),
                ("block disabling avg+V$ 10T", BlockDisablingVictim10T, Mean),
                ("block disabling avg+V$ 6T", BlockDisablingVictim6T, Mean),
                ("block disabling min+V$ 10T", BlockDisablingVictim10T, Min),
                ("block disabling min+V$ 6T", BlockDisablingVictim6T, Min),
            ],
        )
    }

    /// Average (over workloads) of the mean performance of `scheme` normalized to
    /// `baseline` — the numbers quoted in the paper's abstract and Section VI.A.
    /// Workloads on which the value is undefined are left out, as in a table's
    /// `mean` footer; `None` when no workload defines it.
    #[must_use]
    pub fn average_normalized(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> Option<f64> {
        average_normalized(&self.workloads, scheme, baseline)
    }
}

/// The high-voltage campaign behind Figures 11 and 12.
#[derive(Debug, Clone, PartialEq)]
pub struct HighVoltageStudy {
    /// Per-workload results.
    pub workloads: Vec<BenchmarkResult>,
}

impl HighVoltageStudy {
    /// The configurations this study evaluates.
    pub const SCHEMES: [SchemeConfig; 6] = [
        SchemeConfig::Baseline,
        SchemeConfig::BaselineVictim,
        SchemeConfig::WordDisabling,
        SchemeConfig::WordDisablingVictim,
        SchemeConfig::BlockDisabling,
        SchemeConfig::BlockDisablingVictim10T,
    ];

    /// Runs the campaign on the rayon pool, one job per
    /// workload × configuration cell (no fault maps are needed at high
    /// voltage).
    #[must_use]
    pub fn run_parallel(params: &SimulationParams) -> Self {
        Self::run_with_pool(params, &FaultMapPool::new(params), false)
    }

    /// Runs the campaign against a shared [`FaultMapPool`] (on the calling
    /// thread when `serial`). The high-voltage campaign needs no fault maps,
    /// so the pool is only consulted, never populated — the signature exists
    /// so every study in a multi-study session threads the same pool through.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        Self {
            workloads: run_campaign(params, pool, &Self::SCHEMES, VoltageMode::High, serial),
        }
    }

    /// Figure 11: high-voltage performance normalized to the baseline without victim
    /// cache.
    #[must_use]
    pub fn figure11(&self) -> FigureTable {
        use SchemeConfig::{BlockDisabling, BlockDisablingVictim10T, WordDisabling};
        normalized_table(
            "Figure 11: high voltage, normalized to baseline without victim cache",
            &self.workloads,
            SchemeConfig::Baseline,
            &[
                ("word disabling", WordDisabling, Stat::Mean),
                ("block disabling", BlockDisabling, Stat::Mean),
                ("block disabling+V$ 10T", BlockDisablingVictim10T, Stat::Mean),
            ],
        )
    }

    /// Figure 12: word vs block disabling when both (and the baseline) have victim
    /// caches, at high voltage.
    #[must_use]
    pub fn figure12(&self) -> FigureTable {
        use SchemeConfig::{BlockDisablingVictim10T, WordDisablingVictim};
        normalized_table(
            "Figure 12: high voltage, all configurations with victim caches",
            &self.workloads,
            SchemeConfig::BaselineVictim,
            &[
                ("word disabling", WordDisablingVictim, Stat::Mean),
                ("block disabling", BlockDisablingVictim10T, Stat::Mean),
            ],
        )
    }
}

/// A low-voltage campaign over the repair-scheme matrix: every base scheme
/// (no victim caches) against the fault-free baseline. This is the study behind
/// `vccmin-repro schemes` / `--scheme`, and the natural home for schemes that
/// are not part of the paper's original figures.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeMatrixStudy {
    /// Per-workload results.
    pub workloads: Vec<BenchmarkResult>,
    /// The configurations that were evaluated (baseline first).
    schemes: Vec<SchemeConfig>,
}

impl SchemeMatrixStudy {
    /// The full matrix: one victim-cache-less configuration per scheme in the
    /// repair registry, in registry order — a scheme added to the registry
    /// joins this study (and its figure table) automatically.
    #[must_use]
    pub fn matrix_schemes() -> [SchemeConfig; DisablingScheme::ALL.len()] {
        DisablingScheme::ALL.map(SchemeConfig::for_scheme)
    }

    /// Runs the full scheme matrix on the rayon pool.
    #[must_use]
    pub fn run_parallel(params: &SimulationParams) -> Self {
        Self::run_with_pool(params, &FaultMapPool::new(params), false)
    }

    /// Runs the full scheme matrix against a shared [`FaultMapPool`] (on the
    /// calling thread when `serial`; the result is identical either way).
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        let schemes = Self::matrix_schemes().to_vec();
        let workloads = run_campaign(params, pool, &schemes, VoltageMode::Low, serial);
        Self { workloads, schemes }
    }

    /// Runs a single scheme (plus the baseline it is normalized to) against a
    /// shared [`FaultMapPool`].
    #[must_use]
    pub fn run_single_with_pool(
        params: &SimulationParams,
        pool: &FaultMapPool,
        scheme: SchemeConfig,
        serial: bool,
    ) -> Self {
        let mut schemes = vec![SchemeConfig::Baseline];
        if scheme != SchemeConfig::Baseline {
            schemes.push(scheme);
        }
        let workloads = run_campaign(params, pool, &schemes, VoltageMode::Low, serial);
        Self { workloads, schemes }
    }

    /// The configurations this study evaluated, baseline first.
    #[must_use]
    pub fn schemes(&self) -> &[SchemeConfig] {
        &self.schemes
    }

    /// The schemes the table reports: every evaluated scheme but the
    /// baseline. A baseline-only run still gets a (trivially 1.0) column
    /// rather than a degenerate zero-column table.
    fn table_schemes(&self) -> Vec<SchemeConfig> {
        let schemes: Vec<SchemeConfig> = self
            .schemes
            .iter()
            .copied()
            .filter(|&s| s != SchemeConfig::Baseline)
            .collect();
        if schemes.is_empty() {
            vec![SchemeConfig::Baseline]
        } else {
            schemes
        }
    }

    /// The scheme-matrix table: per workload, the mean and worst-fault-map
    /// performance of every evaluated scheme, normalized to the fault-free
    /// baseline.
    #[must_use]
    pub fn table(&self) -> FigureTable {
        normalized_table(
            "Scheme matrix: below Vcc-min, normalized to the fault-free baseline",
            &self.workloads,
            SchemeConfig::Baseline,
            &avg_min_columns("", &self.table_schemes()),
        )
    }
}

/// One CPU backend's scheme matrix within a [`CoreMatrixStudy`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreMatrixEntry {
    /// The CPU backend this matrix was simulated on.
    pub core: CoreModel,
    /// The full scheme matrix on that backend.
    pub study: SchemeMatrixStudy,
}

/// The headline cross-backend study: the paper's repair-scheme matrix re-run
/// on every [`CoreModel`], each normalized to *that backend's* fault-free
/// baseline. The out-of-order columns reproduce the paper's numbers; the
/// in-order columns show each scheme's latency/capacity penalty with no
/// memory-level parallelism left to hide it.
///
/// Both backends replay identical instruction streams (the trace seed does
/// not depend on the core) against identical fault maps (shared
/// [`FaultMapPool`]), so any per-column difference is purely the core model.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreMatrixStudy {
    /// One scheme matrix per backend, in [`CoreModel::ALL`] order.
    pub cores: Vec<CoreMatrixEntry>,
}

impl CoreMatrixStudy {
    /// Runs the matrix on every backend on the rayon pool.
    #[must_use]
    pub fn run_parallel(params: &SimulationParams) -> Self {
        Self::run_with_pool(params, &FaultMapPool::new(params), false)
    }

    /// Runs the matrix on every backend against a shared [`FaultMapPool`]
    /// (on the calling thread when `serial`). `params.core` is ignored — the
    /// study sweeps the core axis itself, in [`CoreModel::ALL`] order.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        let cores = CoreModel::ALL
            .iter()
            .map(|&core| {
                let core_params = SimulationParams {
                    core,
                    ..params.clone()
                };
                CoreMatrixEntry {
                    core,
                    study: SchemeMatrixStudy::run_with_pool(&core_params, pool, serial),
                }
            })
            .collect();
        Self { cores }
    }

    /// The core-matrix table: per workload, every backend's per-scheme mean
    /// and worst-fault-map performance, normalized to the same backend's
    /// fault-free baseline. Column labels are prefixed with the core name
    /// (`"ooo: bit-fix avg"`, `"in-order: bit-fix avg"`, ...).
    #[must_use]
    pub fn table(&self) -> FigureTable {
        let columns: Vec<Vec<Column<String>>> = self
            .cores
            .iter()
            .map(|entry| avg_min_columns(&format!("{}: ", entry.core), &entry.study.table_schemes()))
            .collect();
        let labels = columns.iter().flatten().map(|(label, ..)| label.clone()).collect();
        let mut table = FigureTable::new(
            "Core matrix: below Vcc-min, per CPU backend, normalized to that backend's fault-free baseline",
            "benchmark",
            labels,
        );
        let Some(first) = self.cores.first() else {
            return table;
        };
        for (row, reference) in first.study.workloads.iter().enumerate() {
            let cells = self
                .cores
                .iter()
                .zip(&columns)
                .flat_map(|(entry, columns)| {
                    let b = &entry.study.workloads[row];
                    debug_assert_eq!(b.workload, reference.workload, "entries share workload order");
                    normalized_cells(b, SchemeConfig::Baseline, columns)
                })
                .collect();
            table.push_optional_row(reference.workload.name(), cells);
        }
        table
    }

    /// Average (over workloads) of how much of `scheme`'s normalized-mean
    /// performance loss the out-of-order core's MLP was hiding: the in-order
    /// loss minus the out-of-order loss. Positive means the scheme looks
    /// cheaper on the paper's core than it is on a core that cannot overlap
    /// misses. Returns `None` unless both backends define the scheme's
    /// average.
    #[must_use]
    pub fn mlp_hidden_loss(&self, scheme: SchemeConfig) -> Option<f64> {
        let losses = self
            .cores
            .iter()
            .map(|entry| {
                average_normalized(&entry.study.workloads, scheme, SchemeConfig::Baseline)
                    .map(|mean| 1.0 - mean)
            })
            .collect::<Option<Vec<f64>>>()?;
        match losses.as_slice() {
            [ooo_loss, inorder_loss, ..] => Some(inorder_loss - ooo_loss),
            _ => None,
        }
    }
}

/// Labels of the governor policies, in study order. The first policy (pinned
/// nominal) is the normalization reference of the figure table.
pub const GOVERNOR_POLICY_LABELS: [&str; 4] = ["nominal", "low", "interval", "reactive"];

/// Results of one governor policy on one workload: one governed run per
/// evaluated fault-map pair (a single entry for policies that never leave the
/// nominal mode).
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorPolicyResult {
    /// The policy that was simulated.
    pub policy: GovernorPolicy,
    /// One governed run per evaluated fault-map pair.
    pub runs: Vec<GovernedRun>,
    /// Fault-map pairs skipped because the repair scheme could not repair them
    /// below Vcc-min (whole-cache failure).
    pub whole_cache_failures: usize,
}

impl GovernorPolicyResult {
    /// Mean normalized metrics over the evaluated fault maps, or `None` when
    /// no fault map could be evaluated — the explicit empty case, so no NaN
    /// ever reaches a figure table.
    #[must_use]
    pub fn mean_metrics(&self, model: &VoltageScalingModel) -> Option<GovernorMetrics> {
        if self.runs.is_empty() {
            return None;
        }
        let n = self.runs.len() as f64;
        let mut acc = GovernorMetrics {
            time: 0.0,
            energy: 0.0,
            edp: 0.0,
            low_residency: 0.0,
        };
        for run in &self.runs {
            let m = run.metrics(model);
            acc.time += m.time;
            acc.energy += m.energy;
            acc.edp += m.edp;
            acc.low_residency += m.low_residency;
        }
        Some(GovernorMetrics {
            time: acc.time / n,
            energy: acc.energy / n,
            edp: acc.edp / n,
            low_residency: acc.low_residency / n,
        })
    }

    /// Mean number of mode transitions over the evaluated fault maps.
    #[must_use]
    pub fn mean_transitions(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.transitions as f64).sum::<f64>() / self.runs.len() as f64
    }
}

/// All governor-policy results for one workload, in
/// [`GovernorStudy::policies`] order (reference policy first).
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorBenchmarkResult {
    /// The workload.
    pub workload: Workload,
    /// One result per policy.
    pub policies: Vec<GovernorPolicyResult>,
}

/// The voltage-mode governor campaign: every workload executed under a set of
/// runtime mode-switching policies (pinned nominal, pinned low, fixed
/// interval, phase-reactive) on phase-annotated traces, with modeled pipeline
/// drain + cache-reconfiguration transition costs, reported as performance,
/// energy and EDP relative to the pinned-nominal reference.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorStudy {
    /// Per-workload results.
    pub workloads: Vec<GovernorBenchmarkResult>,
}

impl GovernorStudy {
    /// The cache configuration the governor runs on: block-disabling, the
    /// paper's scheme, whose low-voltage behavior is fault-map dependent.
    pub const SCHEME: SchemeConfig = SchemeConfig::BlockDisabling;

    /// The governor's decision epoch (and interval-policy segment length) for
    /// a campaign: an eighth of the run, floored so smoke-scale runs still
    /// transition.
    #[must_use]
    pub fn quantum(params: &SimulationParams) -> u64 {
        (params.instructions / 8).max(512)
    }

    /// The workload-phase schedule of a campaign: a compute/memory square wave
    /// aligned to the governor quantum (three compute quanta, two memory
    /// quanta), so the reactive policy can act exactly at phase boundaries.
    #[must_use]
    pub fn phase_schedule(params: &SimulationParams) -> PhaseSchedule {
        let q = Self::quantum(params);
        PhaseSchedule::alternating(3 * q, 2 * q)
    }

    /// The policies this study evaluates, in [`GOVERNOR_POLICY_LABELS`] order
    /// with the pinned-nominal reference first.
    #[must_use]
    pub fn policies(params: &SimulationParams) -> [GovernorPolicy; 4] {
        let q = Self::quantum(params);
        [
            GovernorPolicy::pinned(VoltageMode::High),
            GovernorPolicy::pinned(VoltageMode::Low),
            GovernorPolicy::Interval { nominal: q, low: q },
            GovernorPolicy::Reactive { quantum: q },
        ]
    }

    /// The scaling model used for the study's time/energy accounting: the
    /// Table III operating points (3 GHz nominal, 600 MHz below Vcc-min),
    /// consistent with the simulator's per-mode memory latencies.
    #[must_use]
    pub fn scaling_model() -> VoltageScalingModel {
        VoltageScalingModel::ispass2010_operating_points()
    }

    /// Runs the campaign on the rayon pool, fanning out over
    /// workload × policy × fault-map pair. All randomness derives from the
    /// master seed and results are reassembled in job order.
    #[must_use]
    pub fn run_parallel(params: &SimulationParams) -> Self {
        Self::run_with_pool(params, &FaultMapPool::new(params), false)
    }

    /// Runs the campaign against a shared [`FaultMapPool`] (on the calling
    /// thread when `serial`; the result is identical either way). A policy
    /// that uses the low-voltage mode runs once per fault-map pair; the
    /// pinned-nominal reference runs once, without maps.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        debug_assert!(pool.matches(params), "fault-map pool built from different parameters");
        let pairs = pool.pairs();
        let l2_maps = pool.l2_maps_if_needed(params.l2, &[Self::SCHEME]);
        let phases = Self::phase_schedule(params);
        let policies = Self::policies(params);
        let cells: Vec<(Workload, &GovernorPolicy)> = params
            .workloads
            .iter()
            .flat_map(|&workload| policies.iter().map(move |policy| (workload, policy)))
            .collect();
        let outputs = run_cells(
            &cells,
            |&(_, policy)| {
                (policy.uses_low_voltage() && Self::SCHEME.fault_dependent()).then_some(pairs.len())
            },
            |&(workload, policy), pair| {
                vec![run_governed(&GovernedRunSpec {
                    workload,
                    core: params.core,
                    scheme: Self::SCHEME,
                    l2_scheme: params.l2.scheme_for(Self::SCHEME),
                    policy,
                    maps: pair.map(|i| &pairs[i]),
                    l2_map: pair.and_then(|i| l2_maps.get(i)),
                    trace_seed: params.trace_seed(workload),
                    instructions: params.instructions,
                    phases: Some(&phases),
                    cost: TransitionCostModel::Modeled,
                })]
            },
            serial,
        );
        let mut results = cells.iter().zip(outputs).map(|(&(_, policy), outcomes)| {
            let (runs, whole_cache_failures) = split_failures(outcomes);
            GovernorPolicyResult {
                policy: policy.clone(),
                runs,
                whole_cache_failures,
            }
        });
        let workloads = params
            .workloads
            .iter()
            .map(|&workload| GovernorBenchmarkResult {
                workload,
                policies: results.by_ref().take(policies.len()).collect(),
            })
            .collect();
        Self { workloads }
    }

    /// The governor figure table: per workload, each non-reference policy's
    /// relative performance (reference time / policy time), relative energy
    /// and relative EDP against the pinned-nominal reference. Cells whose
    /// reference or policy could not be evaluated are empty — never 0 or NaN.
    #[must_use]
    pub fn table(&self) -> FigureTable {
        let model = Self::scaling_model();
        let mut labels = Vec::new();
        for label in &GOVERNOR_POLICY_LABELS[1..] {
            labels.push(format!("{label} perf"));
            labels.push(format!("{label} energy"));
            labels.push(format!("{label} EDP"));
        }
        let mut table = FigureTable::new(
            "Governor study: runtime voltage-mode switching vs pinned nominal (block disabling)",
            "benchmark",
            labels,
        );
        for b in &self.workloads {
            let reference = b.policies.first().and_then(|p| p.mean_metrics(&model));
            let mut values = Vec::new();
            for policy in &b.policies[1..] {
                let metrics = policy.mean_metrics(&model);
                match (reference, metrics) {
                    (Some(r), Some(m)) if m.time > 0.0 && r.energy > 0.0 && r.edp > 0.0 => {
                        values.extend([r.time / m.time, m.energy / r.energy, m.edp / r.edp].map(Some));
                    }
                    _ => values.extend([None; 3]),
                }
            }
            table.push_optional_row(b.workload.name(), values);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_result_statistics() {
        let make = |ipc_cycles: &[(u64, u64)]| ConfigResult {
            scheme: SchemeConfig::BlockDisabling,
            runs: ipc_cycles
                .iter()
                .map(|&(instructions, cycles)| SimResult {
                    instructions,
                    cycles,
                    loads: 0,
                    stores: 0,
                    conditional_branches: 0,
                    branch_mispredictions: 0,
                    hierarchy: Default::default(),
                })
                .collect(),
            whole_cache_failures: 0,
        };
        let r = make(&[(100, 100), (100, 200)]);
        assert!((r.mean_ipc().unwrap() - 0.75).abs() < 1e-12);
        assert!((r.min_ipc().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(make(&[]).mean_ipc(), None);
    }

    #[test]
    fn empty_config_results_yield_zero_statistics_not_nan() {
        let empty = ConfigResult {
            scheme: SchemeConfig::WordDisabling,
            runs: Vec::new(),
            whole_cache_failures: 3,
        };
        // No evaluated fault map: the statistics do not exist, rather than
        // reading as a zero (or NaN) IPC.
        assert_eq!(empty.mean_ipc(), None);
        assert_eq!(empty.min_ipc(), None);
    }

    #[test]
    fn normalization_against_empty_or_missing_configs_is_zero_not_nan() {
        let run = SimResult {
            instructions: 100,
            cycles: 100,
            loads: 0,
            stores: 0,
            conditional_branches: 0,
            branch_mispredictions: 0,
            hierarchy: Default::default(),
        };
        let b = BenchmarkResult {
            workload: Benchmark::Gzip.into(),
            configs: vec![
                ConfigResult {
                    scheme: SchemeConfig::Baseline,
                    runs: Vec::new(), // every fault map failed
                    whole_cache_failures: 5,
                },
                ConfigResult {
                    scheme: SchemeConfig::BlockDisabling,
                    runs: vec![run],
                    whole_cache_failures: 0,
                },
            ],
        };
        // Empty baseline: the ratio does not exist (not 0, NaN or inf).
        for v in [
            b.normalized_mean(SchemeConfig::BlockDisabling, SchemeConfig::Baseline),
            b.normalized_min(SchemeConfig::BlockDisabling, SchemeConfig::Baseline),
            // Empty numerator over a usable baseline.
            b.normalized_mean(SchemeConfig::Baseline, SchemeConfig::BlockDisabling),
            b.normalized_min(SchemeConfig::Baseline, SchemeConfig::BlockDisabling),
            // Configurations that were never simulated at all.
            b.normalized_mean(SchemeConfig::BitFix, SchemeConfig::BlockDisabling),
            b.normalized_min(SchemeConfig::BlockDisabling, SchemeConfig::BitFix),
        ] {
            assert_eq!(v, None, "degenerate normalization must be undefined");
        }
        // The average leaves undefined workloads out, like a table's mean
        // footer, and a study with no defined workload has no average.
        let defined = BenchmarkResult {
            workload: Benchmark::Mcf.into(),
            configs: vec![
                ConfigResult {
                    scheme: SchemeConfig::Baseline,
                    runs: vec![run],
                    whole_cache_failures: 0,
                },
                ConfigResult {
                    scheme: SchemeConfig::BlockDisabling,
                    runs: vec![run],
                    whole_cache_failures: 0,
                },
            ],
        };
        let study = LowVoltageStudy {
            workloads: vec![b, defined],
        };
        assert_eq!(
            study.average_normalized(SchemeConfig::BlockDisabling, SchemeConfig::Baseline),
            Some(1.0)
        );
        let figure8 = study.figure8();
        assert_eq!(figure8.rows[0].1[1], None, "an undefined cell renders empty");
        assert_eq!(figure8.rows[1].1[1], Some(1.0));
        let study = LowVoltageStudy { workloads: Vec::new() };
        assert_eq!(
            study.average_normalized(SchemeConfig::BlockDisabling, SchemeConfig::Baseline),
            None
        );
    }

    #[test]
    fn governor_study_parallel_is_bit_identical_to_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into(), Benchmark::Mcf.into()];
        params.instructions = 5_000;
        let serial = GovernorStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
        let parallel = GovernorStudy::run_parallel(&params);
        assert_eq!(serial, parallel);
        assert_eq!(serial.table(), parallel.table());
    }

    #[test]
    fn governor_study_produces_sane_relative_metrics() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Crafty.into()];
        params.instructions = 8_000;
        let study = GovernorStudy::run_parallel(&params);
        let table = study.table();
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.series_labels.len(), 9);
        let b = &study.workloads[0];
        assert_eq!(b.policies.len(), 4);
        // The nominal reference never leaves high voltage.
        assert_eq!(b.policies[0].runs.len(), 1);
        assert_eq!(b.policies[0].mean_transitions(), 0.0);
        // Low-using policies run once per fault-map pair.
        for policy in &b.policies[1..] {
            assert_eq!(
                policy.runs.len() + policy.whole_cache_failures,
                params.fault_map_pairs
            );
        }
        // The interval policy transitions; pinned-low does not.
        assert_eq!(b.policies[1].mean_transitions(), 0.0);
        assert!(b.policies[2].mean_transitions() >= 1.0);
        let model = GovernorStudy::scaling_model();
        let nominal = b.policies[0].mean_metrics(&model).unwrap();
        let low = b.policies[1].mean_metrics(&model).unwrap();
        // Pinned-low runs slower but burns far less energy.
        assert!(low.time > nominal.time);
        assert!(low.energy < nominal.energy);
        assert_eq!(low.low_residency, 1.0);
        assert_eq!(nominal.low_residency, 0.0);
        for v in &table.rows[0].1 {
            let v = v.unwrap();
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn governor_policy_result_with_no_runs_reports_none_metrics() {
        let empty = GovernorPolicyResult {
            policy: GovernorPolicy::pinned(VoltageMode::Low),
            runs: Vec::new(),
            whole_cache_failures: 2,
        };
        assert!(empty.mean_metrics(&GovernorStudy::scaling_model()).is_none());
        assert_eq!(empty.mean_transitions(), 0.0);
    }

    #[test]
    fn fault_map_pairs_are_deterministic_and_distinct() {
        let params = SimulationParams::smoke();
        let a = FaultMapPool::new(&params).pairs().to_vec();
        let b = FaultMapPool::new(&params).pairs().to_vec();
        assert_eq!(a.len(), params.fault_map_pairs);
        assert_eq!(a, b);
        assert_ne!(a[0].0, a[0].1, "instruction and data maps differ");
        assert_ne!(a[0].0, a[1].0, "pairs are independent");
    }

    #[test]
    fn fault_map_pool_matches_the_derived_maps() {
        let mut params = SimulationParams::smoke();
        params.l2 = L2Protection::Matched;
        let pool = FaultMapPool::new(&params);
        assert!(pool.matches(&params));
        // The maps are derived from the master seed's own forks: L1 pairs
        // from "fault-maps", L2 maps from "l2-fault-maps".
        let mut seeds = SeedSequence::new(params.master_seed).fork("fault-maps");
        let l1 = CacheGeometry::ispass2010_l1();
        let first = (
            FaultMap::generate(&l1, params.pfail, seeds.next_seed()),
            FaultMap::generate(&l1, params.pfail, seeds.next_seed()),
        );
        assert_eq!(pool.pairs()[0], first);
        let mut l2_seeds = SeedSequence::new(params.master_seed).fork("l2-fault-maps");
        let l2_map =
            FaultMap::generate(&CacheGeometry::ispass2010_l2(), params.pfail, l2_seeds.next_seed());
        let l2_maps = pool.l2_maps_if_needed(L2Protection::Matched, &[SchemeConfig::BlockDisabling]);
        assert_eq!(l2_maps.len(), params.fault_map_pairs);
        assert_eq!(l2_maps[0], l2_map);
        // A perfect L2 needs no maps and must not generate any.
        assert!(pool
            .l2_maps_if_needed(L2Protection::Perfect, &[SchemeConfig::BlockDisabling])
            .is_empty());
        let mut other = params.clone();
        other.master_seed ^= 1;
        assert!(!pool.matches(&other));
    }

    #[test]
    fn pooled_studies_match_their_unpooled_reference() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into()];
        params.instructions = 4_000;
        // One pool shared across every study of the session, exactly like the
        // CLI's `all` target.
        let pool = FaultMapPool::new(&params);
        let low = LowVoltageStudy::run_with_pool(&params, &pool, false);
        assert_eq!(low, LowVoltageStudy::run_parallel(&params));
        let high = HighVoltageStudy::run_with_pool(&params, &pool, false);
        assert_eq!(high, HighVoltageStudy::run_parallel(&params));
        let gov = GovernorStudy::run_with_pool(&params, &pool, false);
        assert_eq!(gov, GovernorStudy::run_parallel(&params));
        let single =
            SchemeMatrixStudy::run_single_with_pool(&params, &pool, SchemeConfig::WordDisabling, false);
        let unpooled = FaultMapPool::new(&params);
        assert_eq!(
            single,
            SchemeMatrixStudy::run_single_with_pool(&params, &unpooled, SchemeConfig::WordDisabling, true)
        );
    }

    #[test]
    fn trace_seeds_differ_per_benchmark_but_not_per_call() {
        let params = SimulationParams::smoke();
        assert_eq!(
            params.trace_seed(Benchmark::Crafty.into()),
            params.trace_seed(Benchmark::Crafty.into())
        );
        assert_ne!(
            params.trace_seed(Benchmark::Crafty.into()),
            params.trace_seed(Benchmark::Mcf.into())
        );
    }

    #[test]
    fn parallel_low_voltage_campaign_is_bit_identical_to_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Crafty.into(), Benchmark::Gzip.into()];
        params.instructions = 5_000;
        let serial = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
        let parallel = LowVoltageStudy::run_parallel(&params);
        assert_eq!(serial, parallel);
        assert_eq!(serial.figure8(), parallel.figure8());
    }

    #[test]
    fn parallel_high_voltage_campaign_is_bit_identical_to_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Mcf.into()];
        params.instructions = 5_000;
        let serial = HighVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
        let parallel = HighVoltageStudy::run_parallel(&params);
        assert_eq!(serial, parallel);
        assert_eq!(serial.figure11(), parallel.figure11());
    }

    #[test]
    fn parallel_campaign_matches_serial_when_fault_maps_are_unusable() {
        // At a very high pfail some fault-map pairs cannot be repaired, so the
        // whole-cache-failure accounting and word-disabling's first-usable-pair
        // early exit both come into play.
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Swim.into()];
        params.instructions = 3_000;
        params.pfail = 0.08;
        params.fault_map_pairs = 4;
        let serial = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
        let parallel = LowVoltageStudy::run_parallel(&params);
        assert_eq!(serial, parallel);
        let failures: usize = serial
            .workloads
            .iter()
            .flat_map(|b| b.configs.iter())
            .map(|c| c.whole_cache_failures)
            .sum();
        assert!(
            failures > 0,
            "expected at least one whole-cache failure at pfail = {}",
            params.pfail
        );
    }

    #[test]
    fn scheme_matrix_parallel_is_bit_identical_to_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into()];
        params.instructions = 5_000;
        let serial = SchemeMatrixStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
        let parallel = SchemeMatrixStudy::run_parallel(&params);
        assert_eq!(serial, parallel);
        let table = serial.table();
        assert_eq!(table.rows.len(), 1);
        // Four non-baseline schemes, two columns (avg, min) each.
        assert_eq!(table.series_labels.len(), 8);
        for v in &table.rows[0].1 {
            let v = v.unwrap();
            assert!((0.1..=1.2).contains(&v), "normalized value {v} out of range");
        }
    }

    #[test]
    fn core_matrix_study_sweeps_both_backends_and_parallel_matches_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into()];
        params.instructions = 3_000;
        let serial = CoreMatrixStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
        let parallel = CoreMatrixStudy::run_parallel(&params);
        assert_eq!(serial, parallel);
        assert_eq!(serial.cores.len(), CoreModel::ALL.len());
        assert_eq!(serial.cores[0].core, CoreModel::OutOfOrder);
        assert_eq!(serial.cores[1].core, CoreModel::InOrder);
        // The out-of-order entry is exactly the plain scheme matrix (the
        // params' default core), so the new axis cannot drift from the
        // pre-existing study.
        assert_eq!(serial.cores[0].study, SchemeMatrixStudy::run_parallel(&params));
        let table = serial.table();
        assert_eq!(table.rows.len(), 1);
        // Two backends x four non-baseline schemes x (avg, min).
        assert_eq!(table.series_labels.len(), 16);
        assert!(table.series_labels[0].starts_with("ooo: "));
        assert!(table.series_labels[8].starts_with("in-order: "));
        for v in &table.rows[0].1 {
            let v = v.unwrap();
            assert!(v.is_finite() && v > 0.0, "normalized value {v} out of range");
        }
        let hidden = serial.mlp_hidden_loss(SchemeConfig::BitFix).unwrap();
        assert!(hidden.is_finite());
        assert!(serial.mlp_hidden_loss(SchemeConfig::BlockDisablingVictim10T).is_none());
    }

    #[test]
    fn in_order_campaign_params_change_results_but_not_structure() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Crafty.into()];
        params.instructions = 3_000;
        let ooo = SchemeMatrixStudy::run_parallel(&params);
        params.core = CoreModel::InOrder;
        let inorder = SchemeMatrixStudy::run_parallel(&params);
        assert_eq!(ooo.schemes(), inorder.schemes());
        for (a, b) in ooo.workloads.iter().zip(&inorder.workloads) {
            assert_eq!(a.workload, b.workload);
            for (ca, cb) in a.configs.iter().zip(&b.configs) {
                assert_eq!(ca.runs.len(), cb.runs.len());
                for (ra, rb) in ca.runs.iter().zip(&cb.runs) {
                    assert_eq!(ra.instructions, rb.instructions, "identical committed streams");
                    assert!(rb.cycles > ra.cycles, "the scalar core is never faster");
                }
            }
        }
    }

    #[test]
    fn single_scheme_run_evaluates_only_that_scheme_and_its_baseline() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Mcf.into()];
        params.instructions = 5_000;
        let pool = FaultMapPool::new(&params);
        let study =
            SchemeMatrixStudy::run_single_with_pool(&params, &pool, SchemeConfig::WaySacrifice, false);
        assert_eq!(
            study.schemes(),
            &[SchemeConfig::Baseline, SchemeConfig::WaySacrifice]
        );
        let table = study.table();
        assert_eq!(table.series_labels.len(), 2);
        let avg = table.rows[0].1[0].unwrap();
        let min = table.rows[0].1[1].unwrap();
        assert!(avg > 0.0 && min <= avg + 1e-9);
        let serial =
            SchemeMatrixStudy::run_single_with_pool(&params, &pool, SchemeConfig::WaySacrifice, true);
        assert_eq!(study, serial, "serial and parallel single-scheme runs agree");
    }

    // The end-to-end campaign tests live in the workspace-level integration tests
    // (tests/), where the longer runtime is acceptable; a minimal high-voltage run
    // is checked here because it needs no fault maps and is fast.
    #[test]
    fn high_voltage_study_produces_sane_normalized_results() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into()];
        params.instructions = 8_000;
        let study = HighVoltageStudy::run_parallel(&params);
        let fig11 = study.figure11();
        assert_eq!(fig11.rows.len(), 1);
        let values = &fig11.rows[0].1;
        // Word disabling pays its extra cycle even at high voltage; block disabling
        // matches the baseline exactly.
        assert!(values[0].unwrap() < 1.0, "word disabling should lose performance");
        assert!(
            (values[1].unwrap() - 1.0).abs() < 1e-9,
            "block disabling must match the baseline at high voltage, got {:?}",
            values[1]
        );
        assert!(values[2].unwrap() >= values[1].unwrap() - 1e-9, "a victim cache never hurts");
    }
}
