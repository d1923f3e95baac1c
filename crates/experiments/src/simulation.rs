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

use std::sync::OnceLock;

use vccmin_analysis::voltage::VoltageScalingModel;
use vccmin_cache::{
    CacheGeometry, CacheHierarchy, DisablingScheme, FaultMap, HierarchyConfig, VoltageMode,
};
use vccmin_cpu::{CoreModel, SimResult};
use vccmin_fault::SeedSequence;
use vccmin_workloads::{Benchmark, PhaseSchedule};

use crate::config::{L2Protection, SchemeConfig};
use crate::map_jobs;
use crate::governor::{
    run_governed, GovernedRun, GovernedRunSpec, GovernorMetrics, GovernorPolicy,
    TransitionCostModel,
};
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

    /// The trace seed every campaign in this module uses for `workload`
    /// (public so equivalence tests can replay the identical stream).
    #[must_use]
    pub fn trace_seed(&self, workload: Workload) -> u64 {
        trace_seed(self, workload)
    }

    /// The campaign's fault-map pairs (instruction cache, data cache), derived
    /// from the master seed (public for the same reason).
    #[must_use]
    pub fn derived_fault_map_pairs(&self) -> Vec<(FaultMap, FaultMap)> {
        fault_map_pairs(self)
    }

    /// The campaign's L2 fault maps, one per fault-map pair, derived from the
    /// master seed through a fork of their own (so enabling the L2 axis never
    /// changes the L1 maps). Empty when the L2 protection needs no maps.
    #[must_use]
    pub fn derived_l2_fault_maps(&self, schemes: &[SchemeConfig]) -> Vec<FaultMap> {
        if !self.l2.needs_fault_maps(schemes) {
            return Vec::new();
        }
        l2_fault_maps(self)
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
    /// Fault-map pairs skipped because word-disabling could not repair them
    /// (whole-cache failure).
    pub whole_cache_failures: usize,
}

impl ConfigResult {
    /// Mean IPC over the evaluated fault maps.
    #[must_use]
    pub fn mean_ipc(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(SimResult::ipc).sum::<f64>() / self.runs.len() as f64
    }

    /// Minimum (worst fault map) IPC, or 0 when no fault map could be evaluated.
    #[must_use]
    pub fn min_ipc(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .map(SimResult::ipc)
            .fold(f64::INFINITY, f64::min)
    }
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
    /// `baseline`.
    #[must_use]
    pub fn normalized_mean(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> f64 {
        match (self.config(scheme), self.config(baseline)) {
            (Some(s), Some(b)) if b.mean_ipc() > 0.0 => s.mean_ipc() / b.mean_ipc(),
            _ => 0.0,
        }
    }

    /// Minimum (worst fault map) performance of `scheme` normalized to the mean
    /// performance of `baseline`.
    #[must_use]
    pub fn normalized_min(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> f64 {
        match (self.config(scheme), self.config(baseline)) {
            (Some(s), Some(b)) if b.mean_ipc() > 0.0 => s.min_ipc() / b.mean_ipc(),
            _ => 0.0,
        }
    }
}

/// Runs one workload on one hierarchy with the selected CPU backend and
/// returns the result. Core construction goes through [`CoreModel::build`] —
/// the same factory path the governor uses — so every campaign executor
/// builds cores identically.
fn simulate(
    workload: Workload,
    core: CoreModel,
    hierarchy: CacheHierarchy,
    trace_seed: u64,
    instructions: u64,
) -> SimResult {
    let mut cpu = core.build(hierarchy);
    let mut trace = workload.source(trace_seed);
    cpu.run(&mut trace, Some(instructions))
}

/// Generates the campaign's fault-map pairs (instruction cache, data cache).
fn fault_map_pairs(params: &SimulationParams) -> Vec<(FaultMap, FaultMap)> {
    generate_fault_map_pairs(params.master_seed, params.pfail, params.fault_map_pairs)
}

fn generate_fault_map_pairs(master_seed: u64, pfail: f64, count: usize) -> Vec<(FaultMap, FaultMap)> {
    let geom = CacheGeometry::ispass2010_l1();
    let mut seeds = SeedSequence::new(master_seed).fork("fault-maps");
    (0..count)
        .map(|_| {
            let si = seeds.next_seed();
            let sd = seeds.next_seed();
            (
                FaultMap::generate(&geom, pfail, si),
                FaultMap::generate(&geom, pfail, sd),
            )
        })
        .collect()
}

/// Generates the campaign's L2 fault maps, one per fault-map pair, from a seed
/// fork of their own: the L1 pairs are bit-identical whether or not the L2 axis
/// is enabled.
fn l2_fault_maps(params: &SimulationParams) -> Vec<FaultMap> {
    generate_l2_fault_maps(params.master_seed, params.pfail, params.fault_map_pairs)
}

fn generate_l2_fault_maps(master_seed: u64, pfail: f64, count: usize) -> Vec<FaultMap> {
    let geom = CacheGeometry::ispass2010_l2();
    let mut seeds = SeedSequence::new(master_seed).fork("l2-fault-maps");
    (0..count)
        .map(|_| FaultMap::generate(&geom, pfail, seeds.next_seed()))
        .collect()
}

/// The fault maps of one campaign parameter set, generated once and shared.
///
/// Every study over one parameter set needs the same fault-map pairs and L2
/// maps, derived from `params.master_seed`. A pool derives them from the same
/// [`SeedSequence`] forks exactly once, lazily per cache level (a
/// high-voltage-only campaign never generates L1 pairs; a perfect-L2 campaign
/// never generates L2 maps), and hands out shared slices, so campaigns that
/// run several studies over one parameter set (`vccmin-repro all`) reuse one
/// set of maps bit-identically.
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

    /// The campaign's L1 fault-map pairs (instruction cache, data cache),
    /// bit-identical to [`SimulationParams::derived_fault_map_pairs`].
    #[must_use]
    pub fn pairs(&self) -> &[(FaultMap, FaultMap)] {
        self.pairs
            .get_or_init(|| generate_fault_map_pairs(self.master_seed, self.pfail, self.pair_count))
    }

    /// The campaign's L2 fault maps, one per pair, bit-identical to the maps
    /// [`SimulationParams::derived_l2_fault_maps`] returns when needed.
    #[must_use]
    pub fn l2_maps(&self) -> &[FaultMap] {
        self.l2
            .get_or_init(|| generate_l2_fault_maps(self.master_seed, self.pfail, self.pair_count))
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

/// Trace seed for a workload, derived from the master seed so every configuration
/// of a workload replays the identical instruction stream.
fn trace_seed(params: &SimulationParams, workload: Workload) -> u64 {
    SeedSequence::new(params.master_seed)
        .fork(workload.name())
        .next_seed()
}

/// Simulates one fault-map pair for one (workload, configuration), or `None`
/// when a repair scheme cannot repair one of the maps (whole-cache failure, on
/// the L1s or the L2). Every fault-map evaluation of a campaign, as a pair
/// job or inside a whole-cell job, runs through this single function.
fn run_fault_pair(
    params: &SimulationParams,
    cfg: HierarchyConfig,
    workload: Workload,
    trace_seed: u64,
    (map_i, map_d): &(FaultMap, FaultMap),
    l2_map: Option<&FaultMap>,
) -> Option<SimResult> {
    CacheHierarchy::with_all_fault_maps(cfg, Some(map_i), Some(map_d), l2_map)
        .ok()
        .map(|hierarchy| simulate(workload, params.core, hierarchy, trace_seed, params.instructions))
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
/// *both* the L1s and the L2 — are the exception: [`run_config`] stops after
/// the first usable pair, which makes later pairs depend on the earlier
/// outcomes.
fn pairs_independent(params: &SimulationParams, scheme: SchemeConfig) -> bool {
    !(scheme.scheme().repair().performance_uniform_across_maps()
        && params
            .l2
            .scheme_for(scheme)
            .repair()
            .performance_uniform_across_maps())
}

/// Runs one (workload, configuration) pair at the given voltage over the campaign's
/// fault maps.
fn run_config(
    params: &SimulationParams,
    pairs: &[(FaultMap, FaultMap)],
    l2_maps: &[FaultMap],
    workload: Workload,
    scheme: SchemeConfig,
    voltage: VoltageMode,
) -> ConfigResult {
    let seed = trace_seed(params, workload);
    let cfg = scheme.hierarchy_config_with_l2(voltage, params.l2);
    let mut runs = Vec::new();
    let mut whole_cache_failures = 0;

    if map_dependent(params, scheme, voltage) {
        for (i, pair) in pairs.iter().enumerate() {
            match run_fault_pair(params, cfg, workload, seed, pair, l2_maps.get(i)) {
                Some(result) => {
                    runs.push(result);
                    // Word-disabling's performance does not depend on *which* usable
                    // map was drawn (capacity is always halved), so one run suffices.
                    if !pairs_independent(params, scheme) {
                        break;
                    }
                }
                None => whole_cache_failures += 1,
            }
        }
    } else {
        let hierarchy = CacheHierarchy::new(cfg);
        runs.push(simulate(workload, params.core, hierarchy, seed, params.instructions));
    }
    ConfigResult {
        scheme,
        runs,
        whole_cache_failures,
    }
}

/// One unit of campaign work: either a whole (workload, configuration) cell —
/// used for fault-independent configurations and for word-disabling, whose
/// early-exit over fault maps is inherently sequential — or a single fault-map
/// pair of a block-disabling configuration.
#[derive(Debug, Clone, Copy)]
enum JobSpec {
    /// Run `run_config` for the whole cell.
    Whole {
        /// Benchmark to simulate.
        workload: Workload,
        /// Configuration to simulate.
        scheme: SchemeConfig,
    },
    /// Run one fault-map pair of a map-dependent cell.
    Pair {
        /// Benchmark to simulate.
        workload: Workload,
        /// Configuration to simulate.
        scheme: SchemeConfig,
        /// Index into the campaign's fault-map pair list.
        pair_index: usize,
    },
}

/// Output of one [`JobSpec`], in the same order as the job list.
enum JobOutput {
    Whole(ConfigResult),
    Pair(Option<Box<SimResult>>),
}

/// Splits a campaign into independent jobs: one per fault-map pair where pairs
/// are independent, one per (workload, configuration) cell otherwise.
fn campaign_jobs(
    params: &SimulationParams,
    schemes: &[SchemeConfig],
    voltage: VoltageMode,
    pair_count: usize,
) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for &workload in &params.workloads {
        for &scheme in schemes {
            if map_dependent(params, scheme, voltage) && pairs_independent(params, scheme) {
                jobs.extend(
                    (0..pair_count).map(|pair_index| JobSpec::Pair {
                        workload,
                        scheme,
                        pair_index,
                    }),
                );
            } else {
                jobs.push(JobSpec::Whole { workload, scheme });
            }
        }
    }
    jobs
}

/// Runs a campaign over every (workload, configuration) cell, fanning out over
/// workload × configuration × fault-map pair — on the calling thread when
/// `serial`, on the rayon pool otherwise.
///
/// Determinism: the fault-map pairs and trace seeds are derived up front from
/// `params.master_seed` through [`SeedSequence`], and [`map_jobs`] returns the
/// outputs in job order, so the result does not depend on the worker count or
/// on how the jobs are scheduled.
fn run_campaign(
    params: &SimulationParams,
    pool: &FaultMapPool,
    schemes: &[SchemeConfig],
    voltage: VoltageMode,
    serial: bool,
) -> Vec<BenchmarkResult> {
    debug_assert!(pool.matches(params), "fault-map pool built from different parameters");
    let pairs: &[(FaultMap, FaultMap)] = if voltage == VoltageMode::Low {
        pool.pairs()
    } else {
        &[]
    };
    let l2_maps: &[FaultMap] = if voltage == VoltageMode::Low {
        pool.l2_maps_if_needed(params.l2, schemes)
    } else {
        &[]
    };
    let jobs = campaign_jobs(params, schemes, voltage, pairs.len());
    let outputs = map_jobs(jobs, serial, |job| match job {
        JobSpec::Whole { workload, scheme } => JobOutput::Whole(run_config(
            params, pairs, l2_maps, workload, scheme, voltage,
        )),
        JobSpec::Pair {
            workload,
            scheme,
            pair_index,
        } => JobOutput::Pair(
            run_fault_pair(
                params,
                scheme.hierarchy_config_with_l2(voltage, params.l2),
                workload,
                trace_seed(params, workload),
                &pairs[pair_index],
                l2_maps.get(pair_index),
            )
            .map(Box::new),
        ),
    });

    // Reassemble in the same workload × scheme × pair order the jobs were
    // emitted in.
    let mut cursor = outputs.into_iter();
    params
        .workloads
        .iter()
        .map(|&workload| BenchmarkResult {
            workload,
            configs: schemes
                .iter()
                .map(|&scheme| {
                    if map_dependent(params, scheme, voltage) && pairs_independent(params, scheme) {
                        let mut runs = Vec::new();
                        let mut whole_cache_failures = 0;
                        for _ in 0..pairs.len() {
                            match cursor.next() {
                                Some(JobOutput::Pair(Some(result))) => runs.push(*result),
                                Some(JobOutput::Pair(None)) => whole_cache_failures += 1,
                                _ => unreachable!("job list and output list diverged"),
                            }
                        }
                        ConfigResult {
                            scheme,
                            runs,
                            whole_cache_failures,
                        }
                    } else {
                        match cursor.next() {
                            Some(JobOutput::Whole(result)) => result,
                            _ => unreachable!("job list and output list diverged"),
                        }
                    }
                })
                .collect(),
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
        let mut table = FigureTable::new(
            "Figure 8: below Vcc-min, normalized to baseline without victim cache",
            "benchmark",
            vec![
                "word disabling".into(),
                "block disabling avg".into(),
                "block disabling avg+V$ 10T".into(),
                "block disabling min".into(),
                "block disabling min+V$ 10T".into(),
            ],
        );
        for b in &self.workloads {
            let base = SchemeConfig::Baseline;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                    b.normalized_min(SchemeConfig::BlockDisabling, base),
                    b.normalized_min(SchemeConfig::BlockDisablingVictim10T, base),
                ],
            );
        }
        table
    }

    /// Figure 9: every configuration (including the baseline) has a 10T victim
    /// cache; normalized to that baseline.
    #[must_use]
    pub fn figure9(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Figure 9: below Vcc-min, normalized to baseline with 10T victim cache",
            "benchmark",
            vec![
                "word disabling".into(),
                "block disabling avg".into(),
                "block disabling min".into(),
            ],
        );
        for b in &self.workloads {
            let base = SchemeConfig::BaselineVictim;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                    b.normalized_min(SchemeConfig::BlockDisablingVictim10T, base),
                ],
            );
        }
        table
    }

    /// Figure 10: 10T versus 6T victim cells for the block-disabled cache,
    /// normalized to the baseline without victim cache.
    #[must_use]
    pub fn figure10(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Figure 10: 16-entry victim cache, 10T vs 6T cells (below Vcc-min)",
            "benchmark",
            vec![
                "word disabling".into(),
                "block disabling avg+V$ 10T".into(),
                "block disabling avg+V$ 6T".into(),
                "block disabling min+V$ 10T".into(),
                "block disabling min+V$ 6T".into(),
            ],
        );
        for b in &self.workloads {
            let base = SchemeConfig::Baseline;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim6T, base),
                    b.normalized_min(SchemeConfig::BlockDisablingVictim10T, base),
                    b.normalized_min(SchemeConfig::BlockDisablingVictim6T, base),
                ],
            );
        }
        table
    }

    /// Average (over workloads) of the mean performance of `scheme` normalized to
    /// `baseline` — the numbers quoted in the paper's abstract and Section VI.A.
    #[must_use]
    pub fn average_normalized(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> f64 {
        if self.workloads.is_empty() {
            return 0.0;
        }
        self.workloads
            .iter()
            .map(|b| b.normalized_mean(scheme, baseline))
            .sum::<f64>()
            / self.workloads.len() as f64
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
        let mut table = FigureTable::new(
            "Figure 11: high voltage, normalized to baseline without victim cache",
            "benchmark",
            vec![
                "word disabling".into(),
                "block disabling".into(),
                "block disabling+V$ 10T".into(),
            ],
        );
        for b in &self.workloads {
            let base = SchemeConfig::Baseline;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                ],
            );
        }
        table
    }

    /// Figure 12: word vs block disabling when both (and the baseline) have victim
    /// caches, at high voltage.
    #[must_use]
    pub fn figure12(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Figure 12: high voltage, all configurations with victim caches",
            "benchmark",
            vec!["word disabling".into(), "block disabling".into()],
        );
        for b in &self.workloads {
            let base = SchemeConfig::BaselineVictim;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisablingVictim, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                ],
            );
        }
        table
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

    /// The scheme-matrix table: per workload, the mean and worst-fault-map
    /// performance of every evaluated scheme, normalized to the fault-free
    /// baseline.
    #[must_use]
    pub fn table(&self) -> FigureTable {
        let mut columns: Vec<SchemeConfig> = self
            .schemes
            .iter()
            .copied()
            .filter(|&s| s != SchemeConfig::Baseline)
            .collect();
        if columns.is_empty() {
            // A baseline-only run still gets a (trivially 1.0) column rather
            // than a degenerate zero-column table.
            columns.push(SchemeConfig::Baseline);
        }
        let mut labels = Vec::new();
        for &scheme in &columns {
            labels.push(format!("{} avg", scheme.label()));
            labels.push(format!("{} min", scheme.label()));
        }
        let mut table = FigureTable::new(
            "Scheme matrix: below Vcc-min, normalized to the fault-free baseline",
            "benchmark",
            labels,
        );
        for b in &self.workloads {
            let mut values = Vec::new();
            for &scheme in &columns {
                values.push(b.normalized_mean(scheme, SchemeConfig::Baseline));
                values.push(b.normalized_min(scheme, SchemeConfig::Baseline));
            }
            table.push_row(b.workload.name(), values);
        }
        table
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

    /// The evaluated (non-baseline) scheme columns of one entry's matrix.
    fn scheme_columns(entry: &CoreMatrixEntry) -> Vec<SchemeConfig> {
        entry
            .study
            .schemes()
            .iter()
            .copied()
            .filter(|&s| s != SchemeConfig::Baseline)
            .collect()
    }

    /// The core-matrix table: per workload, every backend's per-scheme mean
    /// and worst-fault-map performance, normalized to the same backend's
    /// fault-free baseline. Column labels are prefixed with the core name
    /// (`"ooo: bit-fix avg"`, `"in-order: bit-fix avg"`, ...).
    #[must_use]
    pub fn table(&self) -> FigureTable {
        let mut labels = Vec::new();
        for entry in &self.cores {
            for scheme in Self::scheme_columns(entry) {
                labels.push(format!("{}: {} avg", entry.core, scheme.label()));
                labels.push(format!("{}: {} min", entry.core, scheme.label()));
            }
        }
        let mut table = FigureTable::new(
            "Core matrix: below Vcc-min, per CPU backend, normalized to that backend's fault-free baseline",
            "benchmark",
            labels,
        );
        let Some(first) = self.cores.first() else {
            return table;
        };
        for (row, reference) in first.study.workloads.iter().enumerate() {
            let mut values = Vec::new();
            for entry in &self.cores {
                let b = &entry.study.workloads[row];
                debug_assert_eq!(b.workload, reference.workload, "entries share workload order");
                for scheme in Self::scheme_columns(entry) {
                    values.push(b.normalized_mean(scheme, SchemeConfig::Baseline));
                    values.push(b.normalized_min(scheme, SchemeConfig::Baseline));
                }
            }
            table.push_row(reference.workload.name(), values);
        }
        table
    }

    /// Average (over workloads) of how much of `scheme`'s normalized-mean
    /// performance loss the out-of-order core's MLP was hiding: the in-order
    /// loss minus the out-of-order loss. Positive means the scheme looks
    /// cheaper on the paper's core than it is on a core that cannot overlap
    /// misses. Returns `None` unless both backends evaluated the scheme.
    #[must_use]
    pub fn mlp_hidden_loss(&self, scheme: SchemeConfig) -> Option<f64> {
        let per_core: Vec<f64> = self
            .cores
            .iter()
            .map(|entry| {
                let study = &entry.study;
                if study.workloads.is_empty() || !study.schemes().contains(&scheme) {
                    return None;
                }
                let mean = study
                    .workloads
                    .iter()
                    .map(|b| b.normalized_mean(scheme, SchemeConfig::Baseline))
                    .sum::<f64>()
                    / study.workloads.len() as f64;
                Some(1.0 - mean)
            })
            .collect::<Option<Vec<f64>>>()?;
        match per_core.as_slice() {
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

/// One unit of governor work.
#[derive(Debug, Clone, Copy)]
struct GovernorJob {
    workload: Workload,
    policy_index: usize,
    /// Fault-map pair to evaluate, or `None` for a mapless (nominal-only) run.
    pair_index: Option<usize>,
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

    /// Runs one governed cell: one (workload, policy, fault-map pair).
    fn run_cell(
        params: &SimulationParams,
        phases: &PhaseSchedule,
        workload: Workload,
        policy: &GovernorPolicy,
        maps: Option<&(FaultMap, FaultMap)>,
        l2_map: Option<&FaultMap>,
    ) -> Option<GovernedRun> {
        run_governed(&GovernedRunSpec {
            workload,
            core: params.core,
            scheme: Self::SCHEME,
            l2_scheme: params.l2.scheme_for(Self::SCHEME),
            policy,
            maps,
            l2_map,
            trace_seed: trace_seed(params, workload),
            instructions: params.instructions,
            phases: Some(phases),
            cost: TransitionCostModel::Modeled,
        })
    }

    /// Whether a policy is evaluated once per fault-map pair.
    fn policy_map_dependent(policy: &GovernorPolicy) -> bool {
        policy.uses_low_voltage() && Self::SCHEME.fault_dependent()
    }

    fn collect(policy: GovernorPolicy, outputs: Vec<Option<GovernedRun>>) -> GovernorPolicyResult {
        let mut runs = Vec::new();
        let mut whole_cache_failures = 0;
        for output in outputs {
            match output {
                Some(run) => runs.push(run),
                None => whole_cache_failures += 1,
            }
        }
        GovernorPolicyResult {
            policy,
            runs,
            whole_cache_failures,
        }
    }

    /// Runs the campaign on the rayon pool, fanning out over
    /// workload × policy × fault-map pair. All randomness derives from the
    /// master seed and results are reassembled in job order.
    #[must_use]
    pub fn run_parallel(params: &SimulationParams) -> Self {
        Self::run_with_pool(params, &FaultMapPool::new(params), false)
    }

    /// Runs the campaign against a shared [`FaultMapPool`] (on the calling
    /// thread when `serial`; the result is identical either way).
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        debug_assert!(pool.matches(params), "fault-map pool built from different parameters");
        let pairs = pool.pairs();
        let l2_maps = pool.l2_maps_if_needed(params.l2, &[Self::SCHEME]);
        let phases = Self::phase_schedule(params);
        let policies = Self::policies(params);

        let mut jobs = Vec::new();
        for &workload in &params.workloads {
            for (policy_index, policy) in policies.iter().enumerate() {
                if Self::policy_map_dependent(policy) {
                    jobs.extend((0..pairs.len()).map(|pair_index| GovernorJob {
                        workload,
                        policy_index,
                        pair_index: Some(pair_index),
                    }));
                } else {
                    jobs.push(GovernorJob {
                        workload,
                        policy_index,
                        pair_index: None,
                    });
                }
            }
        }
        let outputs = map_jobs(jobs, serial, |job| {
            Self::run_cell(
                params,
                &phases,
                job.workload,
                &policies[job.policy_index],
                job.pair_index.map(|i| &pairs[i]),
                job.pair_index.and_then(|i| l2_maps.get(i)),
            )
        });

        // Reassemble in the same workload × policy × pair order the jobs were
        // emitted in.
        let mut cursor = outputs.into_iter();
        let workloads = params
            .workloads
            .iter()
            .map(|&workload| GovernorBenchmarkResult {
                workload,
                policies: policies
                    .iter()
                    .map(|policy| {
                        let count = if Self::policy_map_dependent(policy) {
                            pairs.len()
                        } else {
                            1
                        };
                        let outputs: Vec<Option<GovernedRun>> = (0..count)
                            .map(|_| {
                                cursor
                                    .next()
                                    // simlint::allow(panic-path, "outputs has exactly one slot per job by construction; a silent default would corrupt results")
                                    .expect("job list and output list stay in sync")
                            })
                            .collect();
                        Self::collect(policy.clone(), outputs)
                    })
                    .collect(),
            })
            .collect();
        Self { workloads }
    }

    /// The governor figure table: per workload, each non-reference policy's
    /// relative performance (reference time / policy time), relative energy
    /// and relative EDP against the pinned-nominal reference. Cells whose
    /// reference or policy could not be evaluated report 0 — never NaN.
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
                        values.push(r.time / m.time);
                        values.push(m.energy / r.energy);
                        values.push(m.edp / r.edp);
                    }
                    _ => values.extend([0.0, 0.0, 0.0]),
                }
            }
            table.push_row(b.workload.name(), values);
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
        assert!((r.mean_ipc() - 0.75).abs() < 1e-12);
        assert!((r.min_ipc() - 0.5).abs() < 1e-12);
        assert_eq!(make(&[]).mean_ipc(), 0.0);
    }

    #[test]
    fn empty_config_results_yield_zero_statistics_not_nan() {
        let empty = ConfigResult {
            scheme: SchemeConfig::WordDisabling,
            runs: Vec::new(),
            whole_cache_failures: 3,
        };
        assert_eq!(empty.mean_ipc(), 0.0);
        assert_eq!(empty.min_ipc(), 0.0);
        assert!(empty.mean_ipc().is_finite() && empty.min_ipc().is_finite());
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
        // Empty baseline: the ratio is defined as 0, not NaN/inf.
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
            assert_eq!(v, 0.0, "degenerate normalization must be exactly 0");
        }
        // A study with no workloads averages to 0 as well.
        let study = LowVoltageStudy { workloads: Vec::new() };
        assert_eq!(
            study.average_normalized(SchemeConfig::BlockDisabling, SchemeConfig::Baseline),
            0.0
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
        let a = fault_map_pairs(&params);
        let b = fault_map_pairs(&params);
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
        assert_eq!(pool.pairs(), params.derived_fault_map_pairs());
        assert_eq!(
            pool.l2_maps_if_needed(L2Protection::Matched, &[SchemeConfig::BlockDisabling]),
            params.derived_l2_fault_maps(&[SchemeConfig::BlockDisabling]).as_slice()
        );
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
            trace_seed(&params, Benchmark::Crafty.into()),
            trace_seed(&params, Benchmark::Crafty.into())
        );
        assert_ne!(
            trace_seed(&params, Benchmark::Crafty.into()),
            trace_seed(&params, Benchmark::Mcf.into())
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
