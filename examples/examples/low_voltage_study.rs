//! A scaled-down version of the paper's main experiment (Figs. 8–10): every
//! SPEC-like benchmark, below Vcc-min, comparing word-disabling against
//! block-disabling with and without victim caches.
//!
//! The default run uses a handful of benchmarks, small traces and a few fault-map
//! pairs so it finishes in well under a minute. Pass `--full` to run all 26
//! benchmarks with the quick-campaign defaults (a few minutes).
//!
//! Run with: `cargo run --release -p vccmin-examples --example low_voltage_study [-- --full]`

use vccmin_core::experiments::simulation::{LowVoltageStudy, SimulationParams};
use vccmin_core::{Benchmark, SchemeConfig};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let params = if full {
        SimulationParams::quick()
    } else {
        SimulationParams {
            instructions: 40_000,
            fault_map_pairs: 3,
            workloads: vec![
                Benchmark::Crafty.into(),
                Benchmark::Gzip.into(),
                Benchmark::Mesa.into(),
                Benchmark::Sixtrack.into(),
                Benchmark::Mcf.into(),
                Benchmark::Swim.into(),
            ],
            ..SimulationParams::quick()
        }
    };
    eprintln!(
        "running {} workloads x {} fault-map pairs x {} instructions ...",
        params.workloads.len(),
        params.fault_map_pairs,
        params.instructions
    );
    let study = LowVoltageStudy::run_parallel(&params);

    println!("{}", study.figure8());
    println!("{}", study.figure9());
    println!("{}", study.figure10());

    let word = study.average_normalized(SchemeConfig::WordDisabling, SchemeConfig::Baseline);
    let block = study.average_normalized(SchemeConfig::BlockDisabling, SchemeConfig::Baseline);
    let block_vc =
        study.average_normalized(SchemeConfig::BlockDisablingVictim10T, SchemeConfig::Baseline);
    // An average is `None` when no fault map of the scheme could be repaired.
    let percent = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| format!("{:.1}%", 100.0 * v));
    println!("== headline comparison (paper: word 88.8%, block 91.7%, block+V$ 94.7%) ==");
    println!("word disabling        : {} of baseline", percent(word));
    println!("block disabling       : {} of baseline", percent(block));
    println!("block disabling + V$  : {} of baseline", percent(block_vc));
    println!(
        "block disabling + V$ outperforms word disabling by {} on average",
        percent(word.zip(block_vc).map(|(word, block_vc)| block_vc / word - 1.0))
    );
}
