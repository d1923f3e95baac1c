//! Per-layer metrics computed from a traced run's spans and simulated counts.

use std::collections::BTreeMap;

use vccmin_cpu::SimResult;

use crate::spans::Trace;

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.ns_per_instr", "ns", "lower"),
    ("workloads.instr", "count", "higher"),
    ("riscv.ns_per_instr", "ns", "lower"),
    ("riscv.instr", "count", "higher"),
    ("cpu.ooo_ns_per_cycle", "ns", "lower"),
    ("cpu.ooo_ns_per_instr", "ns", "lower"),
    ("cpu.inorder_ns_per_instr", "ns", "lower"),
    ("cpu.self_ns_per_instr", "ns", "lower"),
    ("cpu.sim_cycles", "count", "lower"),
    ("cpu.ipc", "instr/cycle", "higher"),
    ("cpu.mispredict_rate", "ratio", "lower"),
    ("cpu.mem_ops_per_instr", "ratio", "lower"),
    ("cache.data_ns_per_access", "ns", "lower"),
    ("cache.instr_ns_per_access", "ns", "lower"),
    ("cache.build_us", "us", "lower"),
    ("cache.capacity_check_us", "us", "lower"),
    ("cache.l1d_miss_rate", "ratio", "lower"),
    ("cache.l1d_mpki", "1/kinstr", "lower"),
    ("cache.l2_miss_rate", "ratio", "lower"),
    ("cache.writebacks", "count", "lower"),
    ("fault.l1_map_us", "us", "lower"),
    ("fault.l2_map_ms", "ms", "lower"),
    ("fault.l2_die_sample_ms", "ms", "lower"),
    ("fault.maps_per_die", "count", "lower"),
    ("experiments.pool_ms", "ms", "lower"),
    ("experiments.units", "count", "higher"),
    ("experiments.unit_ms_p50", "ms", "lower"),
    ("experiments.unit_ms_tail", "ms", "lower"),
    ("experiments.unit_tail_pct", "%", "higher"),
    ("experiments.busy_frac", "ratio", "higher"),
    ("trace.overhead_ratio", "x", "lower"),
    ("trace.spans", "count", "lower"),
];

/// The traced data of one workload kind.
#[derive(Debug, Default)]
pub struct KindTrace {
    pub trace: Trace,
    /// Simulated runs of the traced campaign units.
    pub runs: Vec<SimResult>,
    /// Whole-campaign traced repetitions (0 for a sample).
    pub traced_reps: u64,
    /// Summed wall time of the untraced library repetitions paired with them.
    pub untraced_wall_ns: u64,
    /// Summed wall time of the traced repetitions.
    pub traced_wall_ns: u64,
    /// Worker threads of both executors.
    pub workers: usize,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples above it, and the
/// nearest-rank sample at that percentile.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pct = (100 * (n - 10) / n) as f64;
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    Some((pct, v[rank.clamp(1, n) - 1]))
}

fn per(numerator: f64, denominator: f64) -> Option<f64> {
    (denominator > 0.0).then(|| numerator / denominator)
}

/// The per-layer metrics this kind's spans and runs define.
pub fn layer_metrics(k: &KindTrace) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            m.insert(name, v);
        }
    };
    let t = |name: &str| k.trace.total(name);
    let reps = k.traced_reps.max(1) as f64;

    for (source, ns_name, instr_name) in [
        (
            "workloads.source",
            "workloads.ns_per_instr",
            "workloads.instr",
        ),
        ("riscv.source", "riscv.ns_per_instr", "riscv.instr"),
    ] {
        let s = t(source);
        put(ns_name, per(s.ns as f64, s.count as f64));
        put(instr_name, (s.calls > 0).then(|| s.count as f64 / reps));
    }

    let instr: u64 = k.runs.iter().map(|r| r.instructions).sum();
    let cycles: u64 = k.runs.iter().map(|r| r.cycles).sum();
    let ooo = t("cpu.ooo.run");
    let inorder = t("cpu.inorder.run");
    put("cpu.ooo_ns_per_instr", per(ooo.ns as f64, ooo.count as f64));
    put(
        "cpu.ooo_ns_per_cycle",
        (ooo.calls > 0).then(|| ooo.ns as f64 / cycles as f64),
    );
    put(
        "cpu.inorder_ns_per_instr",
        per(inorder.ns as f64, inorder.count as f64),
    );

    let data = t("cache.replay_data");
    let fetch = t("cache.replay_instr");
    let run_ns = (ooo.ns + inorder.ns) as f64;
    let run_instr = (ooo.count + inorder.count) as f64;
    put(
        "cpu.self_ns_per_instr",
        per(run_ns - (data.ns + fetch.ns) as f64, run_instr),
    );
    put(
        "cache.data_ns_per_access",
        per(data.ns as f64, data.count as f64),
    );
    put(
        "cache.instr_ns_per_access",
        per(fetch.ns as f64, fetch.count as f64),
    );

    if !k.runs.is_empty() {
        let sum = |f: fn(&SimResult) -> u64| k.runs.iter().map(f).sum::<u64>() as f64;
        put("cpu.sim_cycles", Some(cycles as f64 / reps));
        put("cpu.ipc", per(instr as f64, cycles as f64));
        put(
            "cpu.mispredict_rate",
            per(
                sum(|r| r.branch_mispredictions),
                sum(|r| r.conditional_branches),
            ),
        );
        put(
            "cpu.mem_ops_per_instr",
            per(sum(|r| r.loads + r.stores), instr as f64),
        );
        let l1d_misses = sum(|r| r.hierarchy.l1d.misses);
        put(
            "cache.l1d_miss_rate",
            per(l1d_misses, sum(|r| r.hierarchy.l1d.accesses)),
        );
        put("cache.l1d_mpki", per(1000.0 * l1d_misses, instr as f64));
        put(
            "cache.l2_miss_rate",
            per(
                sum(|r| r.hierarchy.l2.misses),
                sum(|r| r.hierarchy.l2.accesses),
            ),
        );
        put(
            "cache.writebacks",
            Some(sum(|r| r.hierarchy.writebacks) / reps),
        );
    }

    let mean_of = |name: &str, scale: f64| {
        let s = t(name);
        per(s.ns as f64 / scale, s.calls as f64)
    };
    put("cache.build_us", mean_of("cache.build", 1e3));
    put(
        "cache.capacity_check_us",
        mean_of("cache.capacity_check", 1e3),
    );
    put("fault.l1_map_us", mean_of("fault.l1_map", 1e3));
    put("fault.l2_map_ms", mean_of("fault.l2_map_at_voltage", 1e6));
    put(
        "fault.l2_die_sample_ms",
        mean_of("fault.l2_die_sample", 1e6),
    );
    put("experiments.pool_ms", mean_of("experiments.pool", 1e6));
    let dies = t("experiments.die").calls as f64;
    let maps = (t("fault.l1_map_at_voltage").calls + t("fault.l2_map_at_voltage").calls) as f64;
    put("fault.maps_per_die", per(maps, dies));

    if k.untraced_wall_ns > 0 {
        let mut units = k.trace.self_durations(
            "experiments.unit",
            &["cache.replay_data", "cache.replay_instr"],
        );
        units.extend(k.trace.self_durations("experiments.die", &[]));
        let units_ms: Vec<f64> = units.iter().map(|&ns| ns as f64 / 1e6).collect();
        put("experiments.units", Some(units_ms.len() as f64));
        put("experiments.unit_ms_p50", Some(median(&units_ms)));
        if let Some((pct, value)) = tail(&units_ms) {
            put("experiments.unit_tail_pct", Some(pct));
            put("experiments.unit_ms_tail", Some(value));
        }
        let busy = t("experiments.unit").ns + t("experiments.die").ns;
        put(
            "experiments.busy_frac",
            per(busy as f64, (k.workers as u64 * k.traced_wall_ns) as f64),
        );
        put(
            "trace.overhead_ratio",
            per(k.traced_wall_ns as f64, k.untraced_wall_ns as f64),
        );
        put("trace.spans", Some(k.trace.spans.len() as f64));
    }
    m
}
