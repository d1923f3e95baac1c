//! The two scheme-matrix campaign workloads: `ooo-synthetic` and
//! `inorder-riscv`.
//!
//! The untraced path runs the library's own executor
//! (`SchemeMatrixStudy::run_with_pool`). The traced path replays the same
//! campaign unit by unit through the layers' public calls — hierarchy build,
//! trace generation into a buffer, `CoreModel::build(..).run(..)` over the
//! buffer, and a replay of the run's own data and fetch streams on a fresh
//! identical hierarchy — on as many workers as the library uses, and checks
//! that it reproduces the library's results bit for bit.

use std::time::Instant;

use vccmin_cache::{CacheHierarchy, FaultMap, VoltageMode};
use vccmin_cpu::{CoreModel, OpClass, SimResult, TraceInstruction};
use vccmin_experiments::simulation::ConfigResult;
use vccmin_experiments::{
    BenchmarkResult, FaultMapPool, SchemeConfig, SchemeMatrixStudy, SimulationParams, Workload,
};
use vccmin_riscv::RvKernel;
use vccmin_workloads::Benchmark;

use crate::check::{csv_rows, Fnv, Row};
use crate::spans::{run_queue, Recorder, Trace};

/// Instructions a traced unit buffers beyond its budget, so the out-of-order
/// core never sees the buffer run dry while its window is still full (which
/// would change its timing against the streaming run).
const TRACE_SLACK: u64 = 4096;

/// `ooo-synthetic`: the full scheme matrix on the out-of-order core, at
/// quick scale, over four synthetic profiles (mcf, swim, crafty, gzip).
pub fn ooo_params(master_seed: u64) -> SimulationParams {
    SimulationParams {
        master_seed,
        workloads: vec![
            Benchmark::Mcf.into(),
            Benchmark::Swim.into(),
            Benchmark::Crafty.into(),
            Benchmark::Gzip.into(),
        ],
        ..SimulationParams::quick()
    }
}

/// `inorder-riscv`: the same matrix on the in-order core over the four
/// RV32IM kernels, at twice the quick-scale instruction budget so the kernels
/// spend most of each run past their fill prefix.
pub fn inorder_params(master_seed: u64) -> SimulationParams {
    SimulationParams {
        master_seed,
        instructions: 500_000,
        core: CoreModel::InOrder,
        workloads: RvKernel::ALL.into_iter().map(Workload::from).collect(),
        ..SimulationParams::riscv_quick()
    }
}

/// The campaign's set-up: its parameters and a fault-map pool whose maps are
/// already generated.
pub struct Setup {
    pub params: SimulationParams,
    pub pool: FaultMapPool,
}

impl Setup {
    pub fn new(params: SimulationParams) -> Self {
        let pool = FaultMapPool::new(&params);
        let _ = pool.pairs();
        let _ = pool.l2_maps_if_needed(params.l2, &SchemeMatrixStudy::matrix_schemes());
        Self { params, pool }
    }

    fn l2_maps(&self) -> &[FaultMap] {
        self.pool
            .l2_maps_if_needed(self.params.l2, &SchemeMatrixStudy::matrix_schemes())
    }
}

/// One unit of campaign work, mirroring the library executor's split: one
/// job per fault-map pair where pairs are independent, one per (workload,
/// scheme) cell otherwise.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    Whole {
        workload: Workload,
        scheme: SchemeConfig,
    },
    Pair {
        workload: Workload,
        scheme: SchemeConfig,
        pair: usize,
    },
}

impl Job {
    pub fn workload(self) -> Workload {
        match self {
            Self::Whole { workload, .. } | Self::Pair { workload, .. } => workload,
        }
    }
}

fn map_dependent(params: &SimulationParams, scheme: SchemeConfig) -> bool {
    scheme.fault_dependent() || params.l2.scheme_for(scheme).repair().needs_fault_map()
}

fn pairs_independent(params: &SimulationParams, scheme: SchemeConfig) -> bool {
    !(scheme.scheme().repair().performance_uniform_across_maps()
        && params
            .l2
            .scheme_for(scheme)
            .repair()
            .performance_uniform_across_maps())
}

pub fn jobs(params: &SimulationParams) -> Vec<Job> {
    let mut jobs = Vec::new();
    for &workload in &params.workloads {
        for scheme in SchemeMatrixStudy::matrix_schemes() {
            if map_dependent(params, scheme) && pairs_independent(params, scheme) {
                jobs.extend((0..params.fault_map_pairs).map(|pair| Job::Pair {
                    workload,
                    scheme,
                    pair,
                }));
            } else {
                jobs.push(Job::Whole { workload, scheme });
            }
        }
    }
    jobs
}

/// Committed simulated instructions of a campaign's results.
pub fn instructions(results: &[BenchmarkResult]) -> u64 {
    results
        .iter()
        .flat_map(|b| &b.configs)
        .flat_map(|c| &c.runs)
        .map(|r| r.instructions)
        .sum()
}

fn digest_result(h: Fnv, r: &SimResult) -> Fnv {
    let s = &r.hierarchy;
    let mut h = h
        .word(r.instructions)
        .word(r.cycles)
        .word(r.loads)
        .word(r.stores)
        .word(r.conditional_branches)
        .word(r.branch_mispredictions)
        .word(s.memory_accesses)
        .word(s.writebacks)
        .word(s.memory_writebacks);
    for c in [&s.l1i, &s.l1d, &s.l1i_victim, &s.l1d_victim, &s.l2] {
        h = h
            .word(c.accesses)
            .word(c.hits)
            .word(c.misses)
            .word(c.evictions)
            .word(c.unallocated_fills);
    }
    h
}

fn digest_benchmark(b: &BenchmarkResult) -> u64 {
    let mut h = Fnv::new().bytes(b.workload.name().as_bytes());
    for c in &b.configs {
        h = h
            .bytes(c.scheme.label().as_bytes())
            .word(c.whole_cache_failures as u64);
        for r in &c.runs {
            h = digest_result(h, r);
        }
    }
    h.finish()
}

/// One checked row per workload: the scheme-matrix CSV line and the digest of
/// every simulated counter behind it.
pub fn rows(study: &SchemeMatrixStudy) -> Vec<Row> {
    let csv = csv_rows(&study.table().to_csv());
    study
        .workloads
        .iter()
        .zip(csv)
        .map(|(b, (key, csv))| Row {
            key,
            csv,
            digest: digest_benchmark(b),
        })
        .collect()
}

/// One repetition of the campaign through the library's parallel executor.
pub fn library_rep(setup: &Setup) -> SchemeMatrixStudy {
    SchemeMatrixStudy::run_with_pool(&setup.params, &setup.pool, false)
}

enum JobOut {
    Whole(ConfigResult),
    Pair(Option<Box<SimResult>>),
}

/// Simulates one fault-map pair (or the fault-free hierarchy) of a cell,
/// timing each layer call. `None` is a whole-cache failure.
fn traced_sim(
    rec: &mut Recorder,
    setup: &Setup,
    workload: Workload,
    scheme: SchemeConfig,
    pair: Option<usize>,
) -> Option<SimResult> {
    let params = &setup.params;
    let cfg = scheme.hierarchy_config_with_l2(VoltageMode::Low, params.l2);
    let hierarchy = match pair {
        Some(i) => {
            let (map_i, map_d) = &setup.pool.pairs()[i];
            let l2 = setup.l2_maps().get(i);
            rec.time("cache.build", 1, || {
                CacheHierarchy::with_all_fault_maps(cfg, Some(map_i), Some(map_d), l2).ok()
            })?
        }
        None => rec.time("cache.build", 1, || CacheHierarchy::new(cfg)),
    };
    let replay_data = hierarchy.clone();
    let replay_instr = hierarchy.clone();

    let source_span = match workload {
        Workload::Synthetic(_) => "workloads.source",
        Workload::Riscv(_) => "riscv.source",
    };
    let run_span = match params.core {
        CoreModel::OutOfOrder => "cpu.ooo.run",
        CoreModel::InOrder => "cpu.inorder.run",
    };
    let seed = params.trace_seed(workload);
    let want = usize::try_from(params.instructions + TRACE_SLACK).expect("trace budget fits usize");
    let span = rec.enter(source_span);
    let buffer: Vec<TraceInstruction> = workload.source(seed).take(want).collect();
    rec.exit(span, buffer.len() as u64);

    let span = rec.enter(run_span);
    let result = params
        .core
        .build(hierarchy)
        .run(&mut buffer.iter().copied(), Some(params.instructions));
    rec.exit(span, result.instructions);

    replay(rec, &buffer, &result, replay_data, replay_instr);
    Some(result)
}

/// Replays the run's committed data accesses and fetch-block changes, in
/// program order, through the batched hierarchy entry points.
fn replay(
    rec: &mut Recorder,
    buffer: &[TraceInstruction],
    result: &SimResult,
    mut data_side: CacheHierarchy,
    mut instr_side: CacheHierarchy,
) {
    let committed = &buffer[..buffer.len().min(result.instructions as usize)];
    let data: Vec<(u64, bool)> = committed
        .iter()
        .filter_map(|i| i.mem_addr.map(|a| (a, i.op == OpClass::Store)))
        .collect();
    let mut fetch = Vec::new();
    let mut block = None;
    for i in committed {
        if block != Some(i.pc & !63) {
            block = Some(i.pc & !63);
            fetch.push(i.pc);
        }
    }
    let mut out = Vec::with_capacity(data.len().max(fetch.len()));
    rec.time("cache.replay_data", data.len() as u64, || {
        data_side.access_data_batch(&data, &mut out);
    });
    std::hint::black_box(&out);
    out.clear();
    rec.time("cache.replay_instr", fetch.len() as u64, || {
        instr_side.access_instr_batch(&fetch, &mut out);
    });
    std::hint::black_box(&out);
}

fn run_job(rec: &mut Recorder, setup: &Setup, job: Job) -> JobOut {
    let params = &setup.params;
    let span = rec.enter("experiments.unit");
    let out = match job {
        Job::Pair {
            workload,
            scheme,
            pair,
        } => JobOut::Pair(traced_sim(rec, setup, workload, scheme, Some(pair)).map(Box::new)),
        Job::Whole { workload, scheme } => {
            let mut runs = Vec::new();
            let mut whole_cache_failures = 0;
            if map_dependent(params, scheme) {
                for i in 0..setup.pool.pairs().len() {
                    match traced_sim(rec, setup, workload, scheme, Some(i)) {
                        Some(r) => {
                            runs.push(r);
                            if !pairs_independent(params, scheme) {
                                break;
                            }
                        }
                        None => whole_cache_failures += 1,
                    }
                }
            } else {
                runs.extend(traced_sim(rec, setup, workload, scheme, None));
            }
            JobOut::Whole(ConfigResult {
                scheme,
                runs,
                whole_cache_failures,
            })
        }
    };
    rec.exit(span, 1);
    out
}

/// Regenerates every pooled L1 map from its own recorded parameters, timing
/// `FaultMap::generate`, and reports whether each equals the pool's.
pub fn traced_fault_maps(rec: &mut Recorder, setup: &Setup) -> bool {
    let mut identical = true;
    for (map_i, map_d) in setup.pool.pairs() {
        for map in [map_i, map_d] {
            let again = rec.time("fault.l1_map", 1, || {
                FaultMap::generate(map.geometry(), map.pfail(), map.seed())
            });
            identical &= again == *map;
        }
    }
    identical
}

/// What a traced repetition produced.
pub struct TracedRep {
    /// Every simulated run, in job order.
    pub runs: Vec<SimResult>,
    /// The reassembled campaign results, when every job ran.
    pub results: Option<Vec<BenchmarkResult>>,
}

/// The traced replica of one campaign repetition (or of its first `limit`
/// jobs), run on `workers` threads pulling jobs from a shared queue the way
/// the library executor does.
pub fn traced_rep(
    setup: &Setup,
    origin: Instant,
    workers: usize,
    unit_base: u64,
    limit: Option<usize>,
    trace: &mut Trace,
) -> TracedRep {
    let all = jobs(&setup.params);
    let list = &all[..limit.unwrap_or(all.len()).min(all.len())];
    let outs = run_queue(list, workers, origin, unit_base, trace, |rec, &job| {
        run_job(rec, setup, job)
    });
    let runs = outs
        .iter()
        .flat_map(|o| match o {
            JobOut::Whole(c) => c.runs.clone(),
            JobOut::Pair(r) => r.iter().map(|r| **r).collect(),
        })
        .collect();
    let results = (list.len() == all.len()).then(|| reassemble(&setup.params, outs));
    TracedRep { runs, results }
}

/// Reassembles job outputs, in job order, into per-workload results.
fn reassemble(params: &SimulationParams, outs: Vec<JobOut>) -> Vec<BenchmarkResult> {
    let mut outs = outs.into_iter();
    params
        .workloads
        .iter()
        .map(|&workload| BenchmarkResult {
            workload,
            configs: SchemeMatrixStudy::matrix_schemes()
                .into_iter()
                .map(|scheme| {
                    if map_dependent(params, scheme) && pairs_independent(params, scheme) {
                        let mut runs = Vec::new();
                        let mut whole_cache_failures = 0;
                        for _ in 0..params.fault_map_pairs {
                            match outs.next() {
                                Some(JobOut::Pair(Some(r))) => runs.push(*r),
                                Some(JobOut::Pair(None)) => whole_cache_failures += 1,
                                _ => unreachable!("job list and outputs diverged"),
                            }
                        }
                        ConfigResult {
                            scheme,
                            runs,
                            whole_cache_failures,
                        }
                    } else {
                        match outs.next() {
                            Some(JobOut::Whole(c)) => c,
                            _ => unreachable!("job list and outputs diverged"),
                        }
                    }
                })
                .collect(),
        })
        .collect()
}

/// Whether the replica's results are the library's, counter for counter.
pub fn same_results(a: &[BenchmarkResult], b: &[BenchmarkResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.workload == y.workload && digest_benchmark(x) == digest_benchmark(y))
}
