//! A test-only oracle for the study executors: small campaigns rebuilt with
//! plain nested loops over the layers' public calls, compared with `==`
//! against the library's one executor.
//!
//! * The scheme matrix is rebuilt from `FaultMapPool::pairs`,
//!   `CacheHierarchy::with_all_fault_maps`, `CoreModel::build(..).run(..)` and
//!   `SimulationParams::trace_seed`. The cases cover every registry scheme,
//!   word disabling's stop after the first usable map, whole-cache failures at
//!   a high `pfail`, and faulty L2s (fixed and matched).
//! * The governor study is rebuilt cell by cell through `run_governed`, which
//!   pins its workload × policy × fault-map pair order.
//!
//! The executor splits each campaign into jobs and reassembles the outputs;
//! the oracle never splits anything, so a reassembly that puts any run in the
//! wrong cell, the wrong pair slot or the wrong failure count fails here.

use vccmin_core::cache::{CacheHierarchy, DisablingScheme, VoltageMode};
use vccmin_core::cpu::CoreModel;
use vccmin_core::experiments::simulation::{
    BenchmarkResult, ConfigResult, FaultMapPool, GovernorBenchmarkResult, GovernorPolicyResult,
    GovernorStudy, SchemeMatrixStudy, SimulationParams,
};
use vccmin_core::experiments::{
    run_governed, GovernedRunSpec, L2Protection, SchemeConfig, TransitionCostModel,
};
use vccmin_core::Benchmark;

/// Whether `scheme` needs a sampled fault map below Vcc-min.
fn needs_map(scheme: DisablingScheme) -> bool {
    scheme != DisablingScheme::Baseline
}

/// Whether `scheme` repairs every usable map into the same organization, so
/// one usable map stands for all of them: the fault-free baseline and word
/// disabling's always-halved cache.
fn same_on_every_usable_map(scheme: DisablingScheme) -> bool {
    matches!(scheme, DisablingScheme::Baseline | DisablingScheme::WordDisabling)
}

/// The scheme matrix rebuilt cell by cell, in workload × scheme × pair order.
fn oracle_matrix(params: &SimulationParams, pool: &FaultMapPool) -> Vec<BenchmarkResult> {
    let schemes = SchemeMatrixStudy::matrix_schemes();
    let pairs = pool.pairs();
    let l2_maps = pool.l2_maps_if_needed(params.l2, &schemes);
    let mut results = Vec::new();
    for &workload in &params.workloads {
        let seed = params.trace_seed(workload);
        let simulate = |hierarchy| {
            params
                .core
                .build(hierarchy)
                .run(&mut workload.source(seed), Some(params.instructions))
        };
        let mut configs = Vec::new();
        for &scheme in &schemes {
            let l1 = scheme.scheme();
            let l2 = params.l2.scheme_for(scheme);
            let cfg = scheme.hierarchy_config_with_l2(VoltageMode::Low, params.l2);
            let mut runs = Vec::new();
            let mut whole_cache_failures = 0;
            if needs_map(l1) || needs_map(l2) {
                for (i, (map_i, map_d)) in pairs.iter().enumerate() {
                    match CacheHierarchy::with_all_fault_maps(
                        cfg,
                        Some(map_i),
                        Some(map_d),
                        l2_maps.get(i),
                    ) {
                        Ok(hierarchy) => {
                            runs.push(simulate(hierarchy));
                            if same_on_every_usable_map(l1) && same_on_every_usable_map(l2) {
                                break;
                            }
                        }
                        Err(_) => whole_cache_failures += 1,
                    }
                }
            } else {
                runs.push(simulate(CacheHierarchy::new(cfg)));
            }
            configs.push(ConfigResult {
                scheme,
                runs,
                whole_cache_failures,
            });
        }
        results.push(BenchmarkResult { workload, configs });
    }
    results
}

fn small_params(l2: L2Protection, pfail: f64, pairs: usize) -> SimulationParams {
    SimulationParams {
        instructions: 3_000,
        fault_map_pairs: pairs,
        pfail,
        l2,
        workloads: vec![Benchmark::Gzip.into(), Benchmark::Mcf.into()],
        ..SimulationParams::smoke()
    }
}

/// Runs the oracle and the executor on one parameter set and requires equal
/// results; returns them for case-specific checks.
fn assert_matrix_matches_oracle(params: &SimulationParams) -> Vec<BenchmarkResult> {
    let pool = FaultMapPool::new(params);
    let expected = oracle_matrix(params, &pool);
    let study = SchemeMatrixStudy::run_with_pool(params, &pool, false);
    assert_eq!(study.schemes(), SchemeMatrixStudy::matrix_schemes());
    assert_eq!(study.workloads, expected, "L2 {:?}, pfail {}", params.l2, params.pfail);
    expected
}

fn config(results: &[BenchmarkResult], scheme: SchemeConfig) -> Vec<&ConfigResult> {
    results
        .iter()
        .map(|b| b.config(scheme).expect("every matrix scheme is evaluated"))
        .collect()
}

#[test]
fn scheme_matrix_matches_the_oracle_for_every_scheme() {
    let params = small_params(L2Protection::Perfect, 0.001, 3);
    let results = assert_matrix_matches_oracle(&params);
    for b in &results {
        for c in &b.configs {
            let expected_runs = match c.scheme {
                // Fault-free baseline: one mapless run.
                SchemeConfig::Baseline => 1,
                // Word disabling stops after the first usable map.
                SchemeConfig::WordDisabling => 1,
                _ => params.fault_map_pairs,
            };
            assert_eq!(c.runs.len() + c.whole_cache_failures, expected_runs, "{:?}", c.scheme);
        }
    }
}

#[test]
fn scheme_matrix_matches_the_oracle_with_whole_cache_failures() {
    // At pfail 0.003 the first L1 pair defeats word disabling; the cell
    // counts that failure, runs the second pair and stops there.
    let results = assert_matrix_matches_oracle(&small_params(L2Protection::Perfect, 0.003, 6));
    for c in config(&results, SchemeConfig::WordDisabling) {
        assert_eq!((c.runs.len(), c.whole_cache_failures), (1, 1));
    }
    // At pfail 0.08 every pair defeats word disabling: no runs at all.
    let results = assert_matrix_matches_oracle(&small_params(L2Protection::Perfect, 0.08, 4));
    for c in config(&results, SchemeConfig::WordDisabling) {
        assert_eq!((c.runs.len(), c.whole_cache_failures), (0, 4));
    }
}

#[test]
fn scheme_matrix_matches_the_oracle_with_a_faulty_l2() {
    for l2 in [
        L2Protection::Fixed(DisablingScheme::BlockDisabling),
        L2Protection::Fixed(DisablingScheme::BitFix),
        L2Protection::Matched,
    ] {
        let results = assert_matrix_matches_oracle(&small_params(l2, 0.001, 3));
        // A block-disabled or bit-fixed L2 makes every pair of the word
        // disabling cell count; a matched L2 keeps the early stop.
        let word_runs: Vec<usize> = config(&results, SchemeConfig::WordDisabling)
            .iter()
            .map(|c| c.runs.len() + c.whole_cache_failures)
            .collect();
        let expected = if l2 == L2Protection::Matched { 1 } else { 3 };
        assert!(word_runs.iter().all(|&n| n == expected), "L2 {l2:?}: {word_runs:?}");
    }
    // A word-disabled L2 fails outright at this pfail, on the L2 path.
    let l2_failures = small_params(L2Protection::Fixed(DisablingScheme::WordDisabling), 0.005, 3);
    let results = assert_matrix_matches_oracle(&l2_failures);
    for c in config(&results, SchemeConfig::Baseline) {
        assert_eq!(c.whole_cache_failures, 3, "expected L2 whole-cache failures at pfail 0.005");
    }
}

#[test]
fn scheme_matrix_matches_the_oracle_on_the_in_order_core() {
    let params = SimulationParams {
        core: CoreModel::InOrder,
        ..small_params(L2Protection::Perfect, 0.001, 2)
    };
    assert_matrix_matches_oracle(&params);
}

/// The governor study rebuilt cell by cell through `run_governed`, in
/// workload × policy × pair order.
fn oracle_governor(params: &SimulationParams, pool: &FaultMapPool) -> Vec<GovernorBenchmarkResult> {
    let scheme = GovernorStudy::SCHEME;
    let phases = GovernorStudy::phase_schedule(params);
    let pairs = pool.pairs();
    let l2_maps = pool.l2_maps_if_needed(params.l2, &[scheme]);
    let mut results = Vec::new();
    for &workload in &params.workloads {
        let mut policies = Vec::new();
        for policy in GovernorStudy::policies(params) {
            // Policies that never leave nominal voltage run once, mapless.
            let cells: Vec<Option<usize>> = if policy.uses_low_voltage() {
                (0..pairs.len()).map(Some).collect()
            } else {
                vec![None]
            };
            let mut runs = Vec::new();
            let mut whole_cache_failures = 0;
            for cell in cells {
                let run = run_governed(&GovernedRunSpec {
                    workload,
                    core: params.core,
                    scheme,
                    l2_scheme: params.l2.scheme_for(scheme),
                    policy: &policy,
                    maps: cell.map(|i| &pairs[i]),
                    l2_map: cell.and_then(|i| l2_maps.get(i)),
                    trace_seed: params.trace_seed(workload),
                    instructions: params.instructions,
                    phases: Some(&phases),
                    cost: TransitionCostModel::Modeled,
                });
                match run {
                    Some(run) => runs.push(run),
                    None => whole_cache_failures += 1,
                }
            }
            policies.push(GovernorPolicyResult {
                policy,
                runs,
                whole_cache_failures,
            });
        }
        results.push(GovernorBenchmarkResult { workload, policies });
    }
    results
}

#[test]
fn governor_study_matches_the_oracle_cell_order() {
    for l2 in [
        L2Protection::Perfect,
        L2Protection::Fixed(DisablingScheme::BlockDisabling),
    ] {
        let params = SimulationParams {
            instructions: 4_000,
            ..small_params(l2, 0.001, 2)
        };
        let pool = FaultMapPool::new(&params);
        let study = GovernorStudy::run_with_pool(&params, &pool, false);
        assert_eq!(study.workloads, oracle_governor(&params, &pool), "L2 {l2:?}");
    }
}
