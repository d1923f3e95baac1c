//! `vccmin-repro` — command-line reproduction driver.
//!
//! Regenerates any table or figure of *Performance-Effective Operation below
//! Vcc-min* (ISPASS 2010). Analytical figures (1, 3–7) and the overhead table are
//! instantaneous; the simulation figures (8–12) run a scaled-down campaign by
//! default (override with `--instructions` and `--pairs`).
//!
//! ```text
//! vccmin-repro <target> [--workload W[,W...]] [--core C] [--scheme S] [--l2-scheme L] [--instructions N] [--pairs K] [--dies D] [--seed S] [--pfail P] [--smoke] [--csv] [--out PATH] [--checkpoint DIR]
//!     target: fig1 fig3 fig4 fig5 fig6 fig7 table1 fig8 fig9 fig10 fig11 fig12
//!             analysis (figs 1,3-7 + table1)   lowvolt (figs 8-10)
//!             highvolt (figs 11-12)            schemes (repair-scheme matrix)
//!             governor (runtime voltage-mode governor study)
//!             yield (die-population process-variation yield study)
//!             core-matrix (scheme matrix on every CPU backend side by side)
//!             workloads (list every workload; also `--list-workloads`)
//!             cores (list every CPU backend; also `--list-cores`)
//!             all
//!     --workload: restrict a simulation campaign to a comma-separated list of
//!               workloads — synthetic benchmark names (`gzip`) and/or real
//!               RISC-V kernels (`riscv:matmul`); see `vccmin-repro workloads`
//!     --core:   which CPU backend a trace-driven campaign simulates
//!               (ooo | in-order); the default `ooo` is the paper's out-of-order
//!               core and reproduces every pinned snapshot bit for bit. Not
//!               accepted by `core-matrix` (which sweeps every backend itself)
//!               or `yield` (whose per-die pass criterion is capacity-based and
//!               core-independent)
//!     --scheme: restrict the `schemes` campaign to one repair scheme
//!               (baseline | block-disable | word-disable | bit-fix | way-sacrifice);
//!               implies the `schemes` target when no target is given
//!     --l2-scheme: how the unified L2 is protected below Vcc-min
//!               (perfect-l2 | matched | baseline | block-disable | word-disable |
//!               bit-fix | way-sacrifice); the default `perfect-l2` reproduces the
//!               paper's fault-free L2 bit for bit, `matched` gives the L2 the same
//!               scheme as the L1s under test, and a scheme name fixes it for every
//!               configuration. Applies to the simulation campaigns (schemes,
//!               lowvolt, highvolt, governor, figs 8-12); for `yield` — whose
//!               scheme axis is the registry itself, matched on both arrays —
//!               `matched` or a fault-dependent scheme name adds the L2 capacity
//!               floor to the per-die pass criterion (`baseline` stays fault free,
//!               like everywhere else)
//!     --dies:   die population size of the `yield` study; the study streams
//!               shard by shard (the fleet executor of
//!               `vccmin_experiments::fleet`), so memory stays flat even at
//!               `--dies 1000000` and beyond
//!     --checkpoint: directory for the `yield` study's shard checkpoints; a
//!               killed campaign re-run with the same parameters and directory
//!               resumes from the finished shards and produces byte-identical
//!               output (shards from different parameters are ignored)
//!     --smoke:  start from the smoke-test campaign scale (4 benchmarks, tiny
//!               traces; 24 dies for `yield`) instead of the quick() scale;
//!               explicit --instructions / --pairs / --dies / --seed / --pfail
//!               still override it
//!     --out:    write the emitted tables/CSV to a file instead of stdout
//!               (progress and summaries stay on stderr either way)
//! ```
//!
//! A target rejects (exit 1, naming the flag) every target-specific flag it
//! does not read, e.g. `yield --pairs 3` or `highvolt --pfail 0.01`; the
//! applicability table is `FLAG_TARGETS`. `--instructions`, `--pairs` and
//! `--dies` must be at least 1.
//!
//! Simulation campaigns run on the rayon pool: all cores by default, one
//! worker on the calling thread with `RAYON_NUM_THREADS=1`. The output is
//! byte-identical for every worker count.

use std::env;
use std::fs::File;
use std::io::Write;
use std::process::ExitCode;

use vccmin_experiments::analysis_figures as af;
use vccmin_experiments::report::FigureTable;
use vccmin_experiments::simulation::{
    CoreMatrixStudy, FaultMapPool, GovernorStudy, HighVoltageStudy, LowVoltageStudy,
    SchemeMatrixStudy, SimulationParams,
};
use vccmin_cpu::CoreModel;
use vccmin_experiments::fleet::{FleetParams, FleetStudy};
use vccmin_experiments::yield_study::YieldParams;
use vccmin_experiments::{L2Protection, OverheadTable, SchemeConfig, Workload};
use vccmin_cache::DisablingScheme;

/// The trace-driven simulation campaigns.
const TRACE_DRIVEN: &[&str] = &[
    "schemes", "lowvolt", "highvolt", "governor", "core-matrix", "all", "fig8", "fig9", "fig10",
    "fig11", "fig12",
];
/// The campaigns that simulate one backend: `core-matrix` sweeps every backend
/// itself.
const SINGLE_BACKEND: &[&str] = &[
    "schemes", "lowvolt", "highvolt", "governor", "all", "fig8", "fig9", "fig10", "fig11", "fig12",
];
/// The campaigns that run below Vcc-min on fault maps; the high-voltage
/// campaign (`highvolt`, `fig11`, `fig12`) generates none.
const FAULT_MAPPED: &[&str] =
    &["schemes", "lowvolt", "governor", "core-matrix", "all", "fig8", "fig9", "fig10"];
/// Every simulation study: the trace-driven campaigns and the `yield` fleet.
const STUDIES: &[&str] = &[
    "schemes", "lowvolt", "highvolt", "governor", "core-matrix", "yield", "all", "fig8", "fig9",
    "fig10", "fig11", "fig12",
];
/// The die-population study.
const FLEET: &[&str] = &["yield", "all"];

/// Which targets read each target-specific flag; every other target rejects
/// it. `yield`'s per-die pass criterion is capacity-based and runs no trace,
/// so it reads none of the trace-driven flags. `--csv`, `--out` and `--smoke`
/// are read by every target that prints a table.
const FLAG_TARGETS: [(&str, &[&str]); 10] = [
    ("--workload", TRACE_DRIVEN),
    ("--instructions", TRACE_DRIVEN),
    ("--core", SINGLE_BACKEND),
    ("--pairs", FAULT_MAPPED),
    ("--pfail", FAULT_MAPPED),
    ("--scheme", &["schemes"]),
    ("--l2-scheme", STUDIES),
    ("--seed", STUDIES),
    ("--dies", FLEET),
    ("--checkpoint", FLEET),
];

/// Parses the value of a count flag (`--instructions`, `--pairs`, `--dies`).
/// Zero is rejected: a campaign with nothing to simulate would print all-zero
/// tables that read as real results.
fn parse_count<T>(flag: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    let n: T = v.parse().map_err(|e| format!("{flag}: bad count {v}: {e}"))?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1, got {v}"));
    }
    Ok(n)
}

struct Options {
    target: String,
    params: SimulationParams,
    yield_params: YieldParams,
    scheme: Option<SchemeConfig>,
    csv: bool,
    out: Option<String>,
    checkpoint: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = env::args().skip(1).peekable();
    // `vccmin-repro --scheme bit-fix` is shorthand for the `schemes` target.
    // Only `--scheme` implies the target; any other leading option is still the
    // usage error it always was.
    let target = match args.peek() {
        Some(first) if first == "--scheme" => "schemes".to_string(),
        Some(first) if first == "--list-workloads" => {
            args.next();
            "workloads".to_string()
        }
        Some(first) if first == "--list-cores" => {
            args.next();
            "cores".to_string()
        }
        _ => args.next().ok_or_else(usage)?,
    };
    let mut scheme = None;
    let mut core: Option<CoreModel> = None;
    let mut l2: Option<L2Protection> = None;
    let mut csv = false;
    let mut smoke = false;
    let mut instructions: Option<u64> = None;
    let mut pairs: Option<usize> = None;
    let mut dies: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut pfail: Option<f64> = None;
    let mut out: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut workloads: Option<Vec<Workload>> = None;
    let mut given = Vec::new();
    while let Some(arg) = args.next() {
        given.push(arg.clone());
        match arg.as_str() {
            "--workload" => {
                let v = args.next().ok_or("--workload needs a value")?;
                let parsed = v
                    .split(',')
                    .map(|name| {
                        Workload::parse(name.trim()).ok_or_else(|| {
                            format!(
                                "unknown workload {name}; run `vccmin-repro workloads` for the \
                                 full list (synthetic names like `gzip`, kernels like \
                                 `riscv:matmul`)"
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if parsed.is_empty() {
                    return Err("--workload needs at least one name".to_string());
                }
                workloads = Some(parsed);
            }
            "--instructions" => {
                let v = args.next().ok_or("--instructions needs a value")?;
                instructions = Some(parse_count("--instructions", &v)?);
            }
            "--pairs" => {
                let v = args.next().ok_or("--pairs needs a value")?;
                pairs = Some(parse_count("--pairs", &v)?);
            }
            "--dies" => {
                let v = args.next().ok_or("--dies needs a value")?;
                dies = Some(parse_count("--dies", &v)?);
            }
            "--out" => {
                out = Some(args.next().ok_or("--out needs a path")?);
            }
            "--checkpoint" => {
                checkpoint = Some(args.next().ok_or("--checkpoint needs a directory")?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e| format!("bad seed: {e}"))?);
            }
            "--pfail" => {
                let v = args.next().ok_or("--pfail needs a value")?;
                let p: f64 = v.parse().map_err(|e| format!("bad pfail: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("--pfail must be a probability in [0, 1], got {v}"));
                }
                pfail = Some(p);
            }
            "--core" => {
                let v = args.next().ok_or("--core needs a value")?;
                core = Some(CoreModel::from_name(&v).ok_or_else(|| {
                    format!(
                        "unknown core {v}; expected one of {}",
                        CoreModel::ALL.map(|c| c.name()).join(" | ")
                    )
                })?);
            }
            "--scheme" => {
                let v = args.next().ok_or("--scheme needs a value")?;
                let parsed = DisablingScheme::from_name(&v).ok_or_else(|| {
                    format!(
                        "unknown scheme {v}; expected one of {}",
                        DisablingScheme::ALL.map(|s| s.name()).join(" | ")
                    )
                })?;
                scheme = Some(SchemeConfig::for_scheme(parsed));
            }
            "--l2-scheme" => {
                let v = args.next().ok_or("--l2-scheme needs a value")?;
                l2 = Some(L2Protection::from_name(&v).ok_or_else(|| {
                    format!(
                        "unknown L2 protection {v}; expected {} | {} | {}",
                        L2Protection::PERFECT_NAME,
                        L2Protection::MATCHED_NAME,
                        DisablingScheme::ALL.map(|s| s.name()).join(" | ")
                    )
                })?);
            }
            "--csv" => csv = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    let mut params = if target == "core-matrix" {
        // The core matrix defaults to its pinned quick-scale campaign
        // (synthetic + riscv workloads); `--smoke` keeps those workloads but
        // drops to smoke-scale traces.
        if smoke {
            SimulationParams {
                workloads: SimulationParams::core_matrix_quick().workloads,
                ..SimulationParams::smoke()
            }
        } else {
            SimulationParams::core_matrix_quick()
        }
    } else if smoke {
        SimulationParams::smoke()
    } else {
        SimulationParams::quick()
    };
    if let Some(v) = instructions {
        params.instructions = v;
    }
    if let Some(v) = pairs {
        params.fault_map_pairs = v;
    }
    if let Some(v) = seed {
        params.master_seed = v;
    }
    if let Some(v) = pfail {
        params.pfail = v;
    }
    if let Some(v) = l2 {
        params.l2 = v;
    }
    if let Some(v) = workloads.clone() {
        params.workloads = v;
    }
    if let Some(v) = core {
        params.core = v;
    }
    let mut yield_params = if smoke {
        YieldParams::smoke()
    } else {
        YieldParams::quick()
    };
    if let Some(v) = dies {
        yield_params.dies = v;
    }
    if let Some(v) = l2 {
        // The yield study evaluates every registry scheme matched on both
        // arrays, so the flag only switches the L2 floor on — and only for
        // values that actually imply a faulty L2 (`baseline` is the fault-free
        // L2 everywhere else, so it must stay equivalent to the default here).
        yield_params.include_l2 = match v {
            L2Protection::Perfect => false,
            L2Protection::Matched => true,
            L2Protection::Fixed(scheme) => scheme.repair().needs_fault_map(),
        };
    }
    if let Some(v) = seed {
        yield_params.master_seed = v;
    }
    for flag in &given {
        let Some((_, targets)) = FLAG_TARGETS.iter().find(|(f, _)| f == flag) else {
            continue;
        };
        if !targets.contains(&target.as_str()) {
            return Err(format!(
                "{flag} does not apply to the `{target}` target; it applies to: {}\n{}",
                targets.join(" "),
                usage()
            ));
        }
    }
    Ok(Options {
        target,
        params,
        yield_params,
        scheme,
        csv,
        out,
        checkpoint,
    })
}

fn usage() -> String {
    "usage: vccmin-repro <fig1|fig3|fig4|fig5|fig6|fig7|table1|fig8|fig9|fig10|fig11|fig12|analysis|lowvolt|highvolt|schemes|governor|yield|core-matrix|workloads|cores|all> [--workload W[,W...]] [--core ooo|in-order] [--scheme baseline|block-disable|word-disable|bit-fix|way-sacrifice] [--l2-scheme perfect-l2|matched|<scheme>] [--instructions N] [--pairs K] [--dies D] [--seed S] [--pfail P] [--smoke] [--csv] [--out PATH] [--checkpoint DIR]".to_string()
}

fn emit(out: &mut dyn Write, table: &FigureTable, csv: bool) {
    let result = if csv {
        write!(out, "{}", table.to_csv())
    } else {
        writeln!(out, "{table}")
    };
    result.expect("failed to write output");
}

fn print_table1(out: &mut dyn Write) {
    let table = OverheadTable::ispass2010();
    let mut render = || -> std::io::Result<()> {
        writeln!(out, "Table I: overhead comparison of the disabling schemes")?;
        writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>12} {:>10} {:>12}",
            "scheme", "tag", "disable", "victim $", "align net", "total"
        )?;
        for row in table.rows() {
            writeln!(
                out,
                "{:<24} {:>12} {:>12} {:>12} {:>10} {:>12}",
                row.scheme,
                row.tag_transistors,
                row.disable_transistors,
                row.victim_transistors,
                if row.alignment_network { "yes" } else { "no" },
                row.total_transistors
            )?;
        }
        writeln!(out)
    };
    render().expect("failed to write output");
}

fn print_workloads(out: &mut dyn Write) {
    let mut render = || -> std::io::Result<()> {
        writeln!(
            out,
            "available workloads (pass to --workload, comma-separated):"
        )?;
        for workload in Workload::all() {
            writeln!(out, "  {:<16} {}", workload.name(), workload.description())?;
        }
        Ok(())
    };
    render().expect("failed to write output");
}

fn print_cores(out: &mut dyn Write) {
    let mut render = || -> std::io::Result<()> {
        writeln!(out, "available CPU backends (pass to --core):")?;
        for core in CoreModel::ALL {
            writeln!(out, "  {:<10} {}", core.name(), core.description())?;
        }
        Ok(())
    };
    render().expect("failed to write output");
}

fn run_analysis(out: &mut dyn Write, csv: bool) {
    emit(out, &af::figure1(af::DEFAULT_STEPS), csv);
    emit(out, &af::figure3(af::DEFAULT_STEPS), csv);
    emit(out, &af::figure4(), csv);
    emit(out, &af::figure5(af::DEFAULT_STEPS), csv);
    emit(out, &af::figure6(af::DEFAULT_STEPS), csv);
    emit(out, &af::figure7(af::DEFAULT_STEPS), csv);
    emit(out, &af::scheme_capacity_figure(af::DEFAULT_STEPS), csv);
    emit(out, &af::l2_scheme_capacity_figure(af::DEFAULT_STEPS), csv);
    print_table1(out);
}

fn run_lowvolt(out: &mut dyn Write, params: &SimulationParams, pool: &FaultMapPool, csv: bool) {
    eprintln!(
        "running low-voltage campaign: {} workloads x {} fault-map pairs x {} instructions ({})",
        params.workloads.len(),
        params.fault_map_pairs,
        params.instructions,
        executor_label(),
    );
    let study = LowVoltageStudy::run_with_pool(params, pool, false);
    emit(out, &study.figure8(), csv);
    emit(out, &study.figure9(), csv);
    emit(out, &study.figure10(), csv);
    let average = |scheme| study.average_normalized(scheme, SchemeConfig::Baseline);
    let word = average(SchemeConfig::WordDisabling);
    let block_vc = average(SchemeConfig::BlockDisablingVictim10T);
    let gain = word.zip(block_vc).map(|(word, block_vc)| block_vc / word - 1.0);
    // Diagnostics go to stderr so `--csv` stdout stays machine-parseable.
    eprintln!(
        "summary: avg normalized performance  word={}  block={}  block+V$={}  (block+V$ improves on word by {})",
        percent(word),
        percent(average(SchemeConfig::BlockDisabling)),
        percent(block_vc),
        percent(gain),
    );
}

/// A fraction as a percentage with one decimal, or `n/a` when it does not
/// exist.
fn percent(value: Option<f64>) -> String {
    value.map_or_else(|| "n/a".to_string(), |v| format!("{:.1}%", 100.0 * v))
}

fn run_schemes(
    out: &mut dyn Write,
    params: &SimulationParams,
    pool: &FaultMapPool,
    csv: bool,
    scheme: Option<SchemeConfig>,
) {
    let described = match scheme {
        Some(s) => format!("scheme {}", s.scheme().name()),
        None => "full scheme matrix".to_string(),
    };
    eprintln!(
        "running {described}: {} workloads x {} fault-map pairs x {} instructions, core {}, L2 {} ({})",
        params.workloads.len(),
        params.fault_map_pairs,
        params.instructions,
        params.core,
        params.l2,
        executor_label(),
    );
    let study = match scheme {
        Some(s) => SchemeMatrixStudy::run_single_with_pool(params, pool, s, false),
        None => SchemeMatrixStudy::run_with_pool(params, pool, false),
    };
    emit(out, &study.table(), csv);
}

fn run_core_matrix(out: &mut dyn Write, params: &SimulationParams, pool: &FaultMapPool, csv: bool) {
    eprintln!(
        "running core matrix: {} backends x {} workloads x {} fault-map pairs x {} instructions, L2 {} ({})",
        CoreModel::ALL.len(),
        params.workloads.len(),
        params.fault_map_pairs,
        params.instructions,
        params.l2,
        executor_label(),
    );
    let study = CoreMatrixStudy::run_with_pool(params, pool, false);
    emit(out, &study.table(), csv);
    // Diagnostics go to stderr so `--csv` stdout stays machine-parseable.
    if let Some(first) = study.cores.first() {
        for &scheme in first.study.schemes() {
            if scheme == SchemeConfig::Baseline {
                continue;
            }
            if let Some(delta) = study.mlp_hidden_loss(scheme) {
                eprintln!(
                    "summary: {:<24} out-of-order MLP was hiding {:+.1}% of the normalized performance loss",
                    scheme.label(),
                    100.0 * delta
                );
            }
        }
    }
}

fn run_governor(out: &mut dyn Write, params: &SimulationParams, pool: &FaultMapPool, csv: bool) {
    eprintln!(
        "running governor campaign: {} workloads x {} policies x {} fault-map pairs x {} instructions ({})",
        params.workloads.len(),
        vccmin_experiments::GOVERNOR_POLICY_LABELS.len(),
        params.fault_map_pairs,
        params.instructions,
        executor_label(),
    );
    let study = GovernorStudy::run_with_pool(params, pool, false);
    let table = study.table();
    emit(out, &table, csv);
    let means = table.series_means();
    let mean_of = |label: &str| {
        percent(
            table
                .series_labels
                .iter()
                .position(|l| l == label)
                .and_then(|i| means[i]),
        )
    };
    // Diagnostics go to stderr so `--csv` stdout stays machine-parseable.
    eprintln!(
        "summary: vs pinned nominal  low: perf={} energy={}  interval: perf={} energy={}  reactive: perf={} energy={}",
        mean_of("low perf"),
        mean_of("low energy"),
        mean_of("interval perf"),
        mean_of("interval energy"),
        mean_of("reactive perf"),
        mean_of("reactive energy"),
    );
}

fn run_highvolt(out: &mut dyn Write, params: &SimulationParams, pool: &FaultMapPool, csv: bool) {
    eprintln!(
        "running high-voltage campaign: {} workloads x {} instructions ({})",
        params.workloads.len(),
        params.instructions,
        executor_label(),
    );
    let study = HighVoltageStudy::run_with_pool(params, pool, false);
    emit(out, &study.figure11(), csv);
    emit(out, &study.figure12(), csv);
}

fn run_yield(
    out: &mut dyn Write,
    params: &YieldParams,
    checkpoint: Option<&str>,
    csv: bool,
) -> Result<(), String> {
    // Every scale runs through the fleet executor, the campaign's only one:
    // it holds memory flat at millions of dies and can resume from a
    // `--checkpoint` directory (the workspace tests pin it to a linear-scan
    // oracle and to `tests/golden/yield.csv`).
    let fleet = FleetParams::new(params.clone());
    eprintln!(
        "running yield study: {} dies x {} grid voltages ({:.3} down to {:.3}), capacity floor {:.0}%, {} shards of {} dies ({})",
        params.dies,
        params.steps,
        params.v_high,
        params.v_low,
        100.0 * params.min_capacity,
        fleet.shard_count(),
        fleet.shard_dies,
        executor_label(),
    );
    let study = match checkpoint {
        Some(dir) => {
            eprintln!("checkpointing shards to {dir} (fingerprint {:016x})", fleet.fingerprint());
            FleetStudy::run_checkpointed(&fleet, std::path::Path::new(dir))
                .map_err(|e| format!("checkpoint directory {dir}: {e}"))?
        }
        None => FleetStudy::run_parallel(&fleet),
    };
    let summary = study.vccmin_summary();
    emit(out, &study.yield_curve(), csv);
    emit(out, &summary, csv);
    print_summary_diagnostics(&summary);
    Ok(())
}

/// Per-scheme Vcc-min stderr diagnostics; a scheme with zero live dies has no
/// Vcc-min cells and prints as dead, and a missing dead fraction prints `n/a`.
fn print_summary_diagnostics(summary: &FigureTable) {
    // Diagnostics go to stderr so `--csv` stdout stays machine-parseable.
    for (scheme, values) in &summary.rows {
        let dead = percent(values[3]);
        match (values[0], values[1], values[2]) {
            (Some(mean), Some(best), Some(worst)) => eprintln!(
                "summary: {scheme:<24} mean Vcc-min {mean:.3}  best {best:.3}  worst {worst:.3}  dead {dead}"
            ),
            _ => eprintln!(
                "summary: {scheme:<24} dead at every grid voltage ({dead} of dies)"
            ),
        }
    }
}

fn executor_label() -> String {
    format!("{} worker thread(s)", rayon::current_num_threads())
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let p = &options.params;
    let csv = options.csv;
    let mut sink: Box<dyn Write> = match &options.out {
        Some(path) => match File::create(path) {
            Ok(file) => Box::new(std::io::BufWriter::new(file)),
            Err(e) => {
                eprintln!("cannot open --out {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::stdout()),
    };
    let out = sink.as_mut();
    match options.target.as_str() {
        "fig1" => emit(out, &af::figure1(af::DEFAULT_STEPS), csv),
        "fig3" => emit(out, &af::figure3(af::DEFAULT_STEPS), csv),
        "fig4" => emit(out, &af::figure4(), csv),
        "fig5" => emit(out, &af::figure5(af::DEFAULT_STEPS), csv),
        "fig6" => emit(out, &af::figure6(af::DEFAULT_STEPS), csv),
        "fig7" => emit(out, &af::figure7(af::DEFAULT_STEPS), csv),
        "table1" => print_table1(out),
        "workloads" => print_workloads(out),
        "cores" => print_cores(out),
        "analysis" => run_analysis(out, csv),
        "fig8" | "fig9" | "fig10" | "lowvolt" => {
            run_lowvolt(out, p, &FaultMapPool::new(p), csv);
        }
        "fig11" | "fig12" | "highvolt" => {
            run_highvolt(out, p, &FaultMapPool::new(p), csv);
        }
        "schemes" => run_schemes(out, p, &FaultMapPool::new(p), csv, options.scheme),
        "governor" => run_governor(out, p, &FaultMapPool::new(p), csv),
        "core-matrix" => run_core_matrix(out, p, &FaultMapPool::new(p), csv),
        "yield" => {
            if let Err(e) = run_yield(out, &options.yield_params, options.checkpoint.as_deref(), csv) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            // One pool for the whole session: the four simulation campaigns
            // share identical master-seed-derived fault maps, so they are
            // generated once here instead of once per campaign.
            let pool = FaultMapPool::new(p);
            run_analysis(out, csv);
            run_lowvolt(out, p, &pool, csv);
            run_highvolt(out, p, &pool, csv);
            run_schemes(out, p, &pool, csv, None);
            run_governor(out, p, &pool, csv);
            if let Err(e) = run_yield(out, &options.yield_params, options.checkpoint.as_deref(), csv) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        other => {
            eprintln!("unknown target {other}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    sink.flush().expect("failed to flush output");
    ExitCode::SUCCESS
}
