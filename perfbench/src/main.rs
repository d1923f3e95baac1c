//! Campaign-level benchmark of the vccmin workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ooo-synthetic|inorder-riscv|fleet-l2> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the benchmark runs the workload's campaign through the
//! library's own parallel executor for `--seconds` and prints the end-to-end
//! metrics. With `--trace 1` it alternates untraced library repetitions with
//! a traced replica that times every call into each layer, and prints the
//! per-layer metrics. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the metric definitions.

mod campaign;
mod check;
mod fleet;
mod metrics;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Row;
use metrics::{median, KindTrace, PER_LAYER};
use spans::{Recorder, Trace};
use vccmin_experiments::{SimulationParams, YieldParams};

const USAGE: &str = "usage: perfbench --workload <ooo-synthetic|inorder-riscv|fleet-l2> \
                     [--seed N] [--seconds S] [--trace 0|1] [--print-expected] [--spans PATH]";

/// Units of work each other workload kind contributes to a traced run, for
/// the per-layer metrics of layers the traced workload does not use.
const SAMPLE_UNITS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OooSynthetic,
    InorderRiscv,
    FleetL2,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::OooSynthetic, Kind::InorderRiscv, Kind::FleetL2];

    fn name(self) -> &'static str {
        match self {
            Kind::OooSynthetic => "ooo-synthetic",
            Kind::InorderRiscv => "inorder-riscv",
            Kind::FleetL2 => "fleet-l2",
        }
    }

    /// The master seed for `--seed`: 0 selects the golden quick-scale seed,
    /// any other value is used as the master seed itself.
    fn master_seed(self, seed: u64) -> u64 {
        match (seed, self) {
            (0, Kind::FleetL2) => YieldParams::quick().master_seed,
            (0, _) => SimulationParams::quick().master_seed,
            (s, _) => s,
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_expected: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: Kind::OooSynthetic,
        seed: 0,
        seconds: 10.0,
        trace: false,
        print_expected: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-expected" {
            args.print_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    Ok(args)
}

/// A workload's set-up, ready for its first unit of work.
enum Prepared {
    Campaign(campaign::Setup),
    Fleet(fleet::Setup),
}

impl Prepared {
    fn new(kind: Kind, seed: u64) -> Self {
        let master = kind.master_seed(seed);
        match kind {
            Kind::OooSynthetic => {
                Self::Campaign(campaign::Setup::new(campaign::ooo_params(master)))
            }
            Kind::InorderRiscv => {
                Self::Campaign(campaign::Setup::new(campaign::inorder_params(master)))
            }
            Kind::FleetL2 => Self::Fleet(fleet::Setup::new(master)),
        }
    }

    /// Units of work per repetition, per output row key. A fleet die feeds
    /// every scheme row, so each row stands for the whole population.
    fn units_by_key(&self) -> Vec<(String, u64)> {
        match self {
            Self::Campaign(s) => {
                let jobs = campaign::jobs(&s.params);
                s.params
                    .workloads
                    .iter()
                    .map(|w| {
                        let n = jobs.iter().filter(|j| j.workload() == *w).count();
                        (w.name().to_string(), n as u64)
                    })
                    .collect()
            }
            Self::Fleet(s) => vec![(String::new(), s.dies() as u64)],
        }
    }

    fn units(&self) -> u64 {
        self.units_by_key().iter().map(|(_, n)| n).sum()
    }

    /// One repetition through the library executor: the work done
    /// (million simulated instructions, or dies) and the checked rows.
    fn library_rep(&self) -> (f64, Rows) {
        match self {
            Self::Campaign(s) => {
                let study = campaign::library_rep(s);
                let minstr = campaign::instructions(&study.workloads) as f64 / 1e6;
                (
                    minstr,
                    Rows::Campaign(campaign::rows(&study), study.workloads),
                )
            }
            Self::Fleet(s) => {
                let study = fleet::library_rep(s);
                (study.dies as f64, Rows::Fleet(fleet::rows(&study), study))
            }
        }
    }
}

/// A repetition's checked rows, plus the raw output the traced replica is
/// compared against.
enum Rows {
    Campaign(Vec<Row>, Vec<vccmin_experiments::BenchmarkResult>),
    Fleet(Vec<Row>, vccmin_experiments::FleetStudy),
}

impl Rows {
    fn rows(&self) -> &[Row] {
        match self {
            Rows::Campaign(r, _) | Rows::Fleet(r, _) => r,
        }
    }
}

/// Attempted and failed units, plus what the check saw.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one library repetition: a panic, or output that differs from
    /// the first repetition's, fails every unit; with pinned expectations,
    /// every unit of a wrong row fails.
    fn library(&mut self, args: &Args, prepared: &Prepared, outcome: Result<&Rows, String>) {
        let units = prepared.units();
        self.attempted += units;
        let rows = match outcome {
            Ok(rows) => rows.rows(),
            Err(msg) => {
                self.failed += units;
                self.notes.push(format!("repetition panicked: {msg}"));
                return;
            }
        };
        let digest = check::output_digest(rows);
        if *self.digest.get_or_insert(digest) != digest {
            self.failed += units;
            self.notes
                .push("output differs from the first repetition's".into());
            return;
        }
        let Some(expected) = check::expected(args.kind, args.seed) else {
            return;
        };
        let bad = check::failed_keys(args.kind, args.seed, &expected, rows);
        if bad.is_empty() {
            return;
        }
        self.notes
            .push(format!("rows failed the check: {}", bad.join("; ")));
        // A row with no units of its own (a fleet scheme row) fails them all.
        let failed: u64 = prepared
            .units_by_key()
            .iter()
            .filter(|(k, _)| bad.contains(k))
            .map(|(_, n)| n)
            .sum();
        self.failed += if failed == 0 { units } else { failed };
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn run_library(prepared: &Prepared) -> (Duration, Result<(f64, Rows), String>) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| prepared.library_rep()))
        .map_err(|p| panic_message(p.as_ref()));
    (t0.elapsed(), out)
}

/// Whether another repetition, as long as the mean so far, fits in the
/// budget. The first always runs.
fn another(started: Instant, seconds: f64, reps: usize) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    reps == 0 || elapsed + elapsed / reps as f64 <= seconds
}

/// Times batches of repeated set-ups. Each batch is long enough to time
/// reliably, and the batches are spread over the whole run, between
/// repetitions, so that `setup_s` sees the same host conditions as the
/// throughput.
struct SetupTimer {
    kind: Kind,
    seed: u64,
    per_batch: u32,
    samples: Vec<f64>,
}

impl SetupTimer {
    const BATCH: Duration = Duration::from_millis(25);
    const BATCHES_PER_GAP: usize = 3;

    fn new(kind: Kind, seed: u64) -> Self {
        let mut timer = Self {
            kind,
            seed,
            per_batch: 1,
            samples: Vec::new(),
        };
        while timer.batch() < Self::BATCH {
            timer.per_batch *= 2;
        }
        timer
    }

    fn batch(&self) -> Duration {
        let t0 = Instant::now();
        for _ in 0..self.per_batch {
            std::hint::black_box(Prepared::new(self.kind, self.seed));
        }
        t0.elapsed()
    }

    fn sample(&mut self) {
        for _ in 0..Self::BATCHES_PER_GAP {
            let per = self.batch().as_secs_f64() / f64::from(self.per_batch);
            self.samples.push(per);
        }
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Report {
    tally: Tally,
    /// Name, value, unit, and where the value came from.
    metrics: Vec<(String, f64, String, String)>,
}

fn untraced(args: &Args) -> Result<Report, String> {
    let mut setup = SetupTimer::new(args.kind, args.seed);
    let prepared = Prepared::new(args.kind, args.seed);
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let measured = Instant::now();
    while another(measured, args.seconds, rates.len()) {
        setup.sample();
        let (wall, out) = run_library(&prepared);
        let (work, rows) = match &out {
            Ok((work, rows)) => (*work, Ok(rows)),
            Err(msg) => (0.0, Err(msg.clone())),
        };
        tally.library(args, &prepared, rows);
        rates.push(work / wall.as_secs_f64());
    }
    setup.sample();
    let setup_s = median(&setup.samples);
    let rss = peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
    let throughput = median(&rates);
    let (rate_name, rate_unit) = match args.kind {
        Kind::FleetL2 => ("dies_per_s", "dies/s"),
        _ => ("sim_minstr_per_s", "Minstr/s"),
    };
    println!(
        "{rate_name} = {throughput} {rate_unit} (median of {} repetitions)",
        rates.len()
    );
    println!("repetition rates: {rates:?}");
    let source = args.kind.name().to_string();
    let metrics = [
        ("throughput", throughput, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", rss, "MB"),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u.to_string(), source.clone()))
    .collect();
    Ok(Report { tally, metrics })
}

/// Traces one kind: its own workload in full (alternating with untraced
/// library repetitions) or, for a sample, only its first units.
fn trace_kind(args: &Args, kind: Kind, own: bool, origin: Instant, tally: &mut Tally) -> KindTrace {
    let workers = rayon::current_num_threads();
    let mut kt = KindTrace {
        workers,
        ..KindTrace::default()
    };
    let mut rec = Recorder::new(origin, 0);
    let prepared = match kind {
        Kind::FleetL2 => rec.time("experiments.fleet_setup", 1, || {
            Prepared::new(kind, args.seed)
        }),
        _ => rec.time("experiments.pool", 1, || Prepared::new(kind, args.seed)),
    };
    if let Prepared::Campaign(s) = &prepared {
        if !campaign::traced_fault_maps(&mut rec, s) && own {
            tally
                .notes
                .push("regenerated L1 fault maps differ from the pool's".into());
            tally.failed += 1;
        }
    }
    kt.trace.absorb(rec);

    if !own {
        match &prepared {
            Prepared::Campaign(s) => {
                let rep =
                    campaign::traced_rep(s, origin, workers, 0, Some(SAMPLE_UNITS), &mut kt.trace);
                kt.runs = rep.runs;
            }
            Prepared::Fleet(s) => {
                fleet::traced_rep(s, origin, workers, 0, Some(SAMPLE_UNITS), &mut kt.trace);
            }
        }
        return kt;
    }

    let measured = Instant::now();
    let units = prepared.units();
    let mut reps = 0;
    while another(measured, args.seconds, reps) {
        let (wall, out) = run_library(&prepared);
        kt.untraced_wall_ns += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let library = match out {
            Ok((_, rows)) => {
                tally.library(args, &prepared, Ok(&rows));
                Some(rows)
            }
            Err(msg) => {
                tally.library(args, &prepared, Err(msg));
                None
            }
        };

        let t0 = Instant::now();
        let base = reps as u64 * units;
        let replica = catch_unwind(AssertUnwindSafe(|| match &prepared {
            Prepared::Campaign(s) => {
                let rep = campaign::traced_rep(s, origin, workers, base, None, &mut kt.trace);
                kt.runs.extend(rep.runs);
                matches!((&rep.results, &library), (Some(r), Some(Rows::Campaign(_, lib)))
                    if campaign::same_results(r, lib))
            }
            Prepared::Fleet(s) => {
                let rep = fleet::traced_rep(s, origin, workers, base, None, &mut kt.trace);
                matches!((&rep, &library), (Some(r), Some(Rows::Fleet(_, lib))) if r == lib)
            }
        }));
        kt.traced_wall_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        kt.traced_reps += 1;
        tally.attempted += units;
        if !matches!(replica, Ok(true)) {
            tally.failed += units;
            tally
                .notes
                .push("traced replica disagrees with the library run".into());
        }
        reps += 1;
    }
    kt
}

fn traced(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tally = Tally::default();
    let mut kinds: Vec<(Kind, KindTrace)> = vec![(
        args.kind,
        trace_kind(args, args.kind, true, origin, &mut tally),
    )];
    for kind in Kind::ALL.into_iter().filter(|&k| k != args.kind) {
        kinds.push((kind, trace_kind(args, kind, false, origin, &mut tally)));
    }

    let computed: Vec<(Kind, BTreeMap<&str, f64>)> = kinds
        .iter()
        .map(|(k, kt)| (*k, metrics::layer_metrics(kt)))
        .collect();
    let mut out = Vec::new();
    for &(name, unit, _) in PER_LAYER {
        let found = computed
            .iter()
            .find_map(|(k, m)| m.get(name).map(|&v| (*k, v)));
        let Some((kind, value)) = found else {
            return Err(format!("no traced data defines {name}"));
        };
        let source = if kind == args.kind {
            kind.name().to_string()
        } else {
            format!("sample of {}", kind.name())
        };
        out.push((name.to_string(), value, unit.to_string(), source));
    }

    let path = args.spans.clone().unwrap_or_else(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        dir.join("perfbench-spans")
            .join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed))
    });
    let traces: Vec<(&str, &Trace)> = kinds.iter().map(|(k, kt)| (k.name(), &kt.trace)).collect();
    spans::write_jsonl(&path, &traces).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(Report {
        tally,
        metrics: out,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.print_expected {
        let prepared = Prepared::new(args.kind, args.seed);
        let (_, rows) = prepared.library_rep();
        print!("{}", check::pinned_lines(args.seed, rows.rows()));
        return ExitCode::SUCCESS;
    }

    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let tally = &report.tally;
    let pinned = check::expected(args.kind, args.seed).is_some();
    println!(
        "workload {} seed {} (master seed {:#x}): {}",
        args.kind.name(),
        args.seed,
        args.kind.master_seed(args.seed),
        if pinned {
            "output checked against pinned rows"
        } else {
            "seed not pinned: only panics, errors and repetition mismatches fail"
        }
    );
    if let Some(d) = tally.digest {
        println!("output_digest = {d:016x}");
    }
    for note in &tally.notes {
        println!("check: {note}");
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ({} of {} units)",
        tally.failed, tally.attempted
    );
    for (name, value, unit, source) in &report.metrics {
        println!("{name} = {value} {unit} [{source}]");
    }

    let correct = tally.failed == 0
        && tally.attempted > 0
        && report.metrics.iter().all(|(_, v, _, _)| v.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
