//! Synthetic trace generation from a benchmark profile.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use vccmin_cpu::{BranchInfo, BranchKind, OpClass, Reg, TraceInstruction};

use crate::phase::{PhaseSchedule, WorkloadPhase};
use crate::profile::BenchmarkProfile;

/// Base address of the synthetic code region.
const CODE_BASE: u64 = 0x0040_0000;
/// Base address of the hot data region (stack / hot globals).
const HOT_BASE: u64 = 0x1000_0000;
/// Base address of the main data working set (heap / arrays).
const DATA_BASE: u64 = 0x2000_0000;

/// Integer registers handed out as destinations (leave a few registers never
/// written so "no dependence" sources exist).
const INT_DEST_REGS: std::ops::Range<u8> = 1..28;
/// Floating-point registers handed out as destinations.
const FP_DEST_REGS: std::ops::Range<u8> = 33..60;

/// An infinite, seeded generator of [`TraceInstruction`]s imitating one benchmark.
///
/// The generator maintains a program counter walking a code region of the profile's
/// footprint (with biased and random conditional branches, mostly looping backward),
/// a streaming pointer and a hot region for data accesses, and a short history of
/// recently written registers used to create dependence chains of the configured
/// density.
///
/// The iterator never terminates; callers bound the trace length themselves (the
/// pipeline's `max_instructions`, or [`Iterator::take`]).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    rng: SmallRng,
    pc: u64,
    stream_ptr: u64,
    recent_int: [Reg; 4],
    recent_fp: [Reg; 4],
    next_int_dest: u8,
    next_fp_dest: u8,
    instructions_generated: u64,
    phases: Option<PhaseSchedule>,
}

/// During a memory-bound phase the hot-region reuse probability is multiplied
/// by this factor (most accesses leave the cache-resident region).
const MEMORY_PHASE_HOT_SCALE: f64 = 0.25;
/// During a memory-bound phase the streaming probability of non-hot accesses is
/// raised at least to this value (large-array sweeps dominate).
const MEMORY_PHASE_STREAMING_FLOOR: f64 = 0.75;

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate (see [`BenchmarkProfile::validate`]).
    #[must_use]
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        if let Err(msg) = profile.validate() {
            // simlint::allow(panic-path, "documented `# Panics` constructor; the 26 shipped profiles are validated by tests")
            panic!("invalid benchmark profile {}: {msg}", profile.name);
        }
        Self {
            profile: profile.clone(),
            rng: SmallRng::seed_from_u64(seed),
            pc: CODE_BASE,
            stream_ptr: DATA_BASE,
            recent_int: [1, 2, 3, 4],
            recent_fp: [33, 34, 35, 36],
            next_int_dest: INT_DEST_REGS.start,
            next_fp_dest: FP_DEST_REGS.start,
            instructions_generated: 0,
            phases: None,
        }
    }

    /// Creates a *phase-annotated* generator: the instruction stream walks the
    /// given cyclic [`PhaseSchedule`], and during
    /// [`WorkloadPhase::MemoryBound`] segments the profile's memory locality is
    /// modulated (less hot-region reuse, more streaming) so memory-bound
    /// stretches genuinely behave memory bound. Compute-bound segments apply
    /// the profile verbatim, so an all-compute schedule reproduces
    /// [`TraceGenerator::new`]'s stream exactly.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate.
    #[must_use]
    pub fn with_phases(profile: &BenchmarkProfile, seed: u64, phases: PhaseSchedule) -> Self {
        let mut generator = Self::new(profile, seed);
        generator.phases = Some(phases);
        generator
    }

    /// The profile this generator imitates.
    #[must_use]
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// The phase the *next* generated instruction will belong to. Un-phased
    /// generators report [`WorkloadPhase::ComputeBound`] (the profile applies
    /// verbatim). This is the signal a reactive voltage-mode governor samples
    /// between execution quanta.
    #[must_use]
    pub fn current_phase(&self) -> WorkloadPhase {
        match &self.phases {
            Some(schedule) => schedule.phase_at(self.instructions_generated),
            None => WorkloadPhase::ComputeBound,
        }
    }

    /// The phase schedule, if this generator is phase annotated.
    #[must_use]
    pub fn phases(&self) -> Option<&PhaseSchedule> {
        self.phases.as_ref()
    }

    /// Number of instructions generated so far.
    #[must_use]
    pub fn instructions_generated(&self) -> u64 {
        self.instructions_generated
    }

    fn pick_op(&mut self) -> OpClass {
        let p = &self.profile;
        let r: f64 = self.rng.gen();
        let mut acc = p.load_fraction;
        if r < acc {
            return OpClass::Load;
        }
        acc += p.store_fraction;
        if r < acc {
            return OpClass::Store;
        }
        acc += p.branch_fraction;
        if r < acc {
            return OpClass::Branch;
        }
        acc += p.int_mul_fraction;
        if r < acc {
            return OpClass::IntMul;
        }
        acc += p.fp_alu_fraction;
        if r < acc {
            return OpClass::FpAlu;
        }
        acc += p.fp_mul_fraction;
        if r < acc {
            return OpClass::FpMul;
        }
        OpClass::IntAlu
    }

    /// The hot-region and streaming probabilities in effect for the next
    /// access, after phase modulation.
    fn locality_probabilities(&self) -> (f64, f64) {
        let p = &self.profile;
        match self.current_phase() {
            WorkloadPhase::ComputeBound => (p.hot_access_probability, p.streaming_probability),
            WorkloadPhase::MemoryBound => (
                p.hot_access_probability * MEMORY_PHASE_HOT_SCALE,
                p.streaming_probability.max(MEMORY_PHASE_STREAMING_FLOOR),
            ),
        }
    }

    fn data_address(&mut self) -> u64 {
        let (hot_probability, streaming_probability) = self.locality_probabilities();
        let p = &self.profile;
        if self.rng.gen_bool(hot_probability) {
            // Hot region: reuse is strongly skewed towards the start of the region
            // (stack frames, hot globals, recently allocated objects), modeled with a
            // truncated exponential over the region. The head of the region is reused
            // at very short distances and stays cache resident; the tail provides the
            // capacity sensitivity that the disabling schemes expose.
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let depth = (-u.ln() / 3.0).min(1.0);
            let hot_words = p.hot_data_bytes / 8;
            let word = ((depth * hot_words as f64) as u64).min(hot_words - 1);
            HOT_BASE + word * 8
        } else if self.rng.gen_bool(streaming_probability) {
            // Streaming: march through the working set one block at a time.
            self.stream_ptr += 64;
            if self.stream_ptr >= DATA_BASE + p.data_working_set_bytes {
                self.stream_ptr = DATA_BASE;
            }
            self.stream_ptr
        } else {
            // Irregular: skewed over the full working set (real heaps are touched with
            // a strong recency/frequency bias, not uniformly). A truncated exponential
            // keeps most irregular accesses within a cacheable fraction of the set
            // while its tail still sweeps the whole footprint.
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let depth = (-u.ln() / 2.0).min(1.0);
            let ws_words = p.data_working_set_bytes / 8;
            let word = ((depth * ws_words as f64) as u64).min(ws_words - 1);
            DATA_BASE + word * 8
        }
    }

    fn alloc_dest(&mut self, fp: bool) -> Reg {
        if fp {
            let reg = self.next_fp_dest;
            self.next_fp_dest += 1;
            if self.next_fp_dest >= FP_DEST_REGS.end {
                self.next_fp_dest = FP_DEST_REGS.start;
            }
            self.recent_fp.rotate_right(1);
            self.recent_fp[0] = reg;
            reg
        } else {
            let reg = self.next_int_dest;
            self.next_int_dest += 1;
            if self.next_int_dest >= INT_DEST_REGS.end {
                self.next_int_dest = INT_DEST_REGS.start;
            }
            self.recent_int.rotate_right(1);
            self.recent_int[0] = reg;
            reg
        }
    }

    fn pick_src(&mut self, fp: bool) -> Option<Reg> {
        if self.rng.gen_bool(self.profile.dependence_density) {
            // Depend on a recently produced value.
            let idx = self.rng.gen_range(0..4);
            Some(if fp { self.recent_fp[idx] } else { self.recent_int[idx] })
        } else {
            // Registers 30/62 are never allocated as destinations, so naming them
            // creates no dependence.
            Some(if fp { 62 } else { 30 })
        }
    }

    fn branch_info(&mut self, pc: u64) -> (BranchInfo, u64) {
        // A static branch (identified by its PC) is either strongly biased or
        // essentially random, per the profile's randomness fraction.
        let hash = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let is_random = (hash & 0xff) as f64 / 255.0 < self.profile.branch_randomness;
        let taken = if is_random {
            self.rng.gen_bool(0.5)
        } else {
            // Strongly biased: taken ~90% of the time (loop back-edges).
            self.rng.gen_bool(0.9)
        };
        let code_end = CODE_BASE + self.profile.code_bytes;
        let target = if self.rng.gen_bool(0.75) {
            // Loop back-edge: jump backwards by a bounded distance.
            let back = self.rng.gen_range(16..2048).min(pc - CODE_BASE + 4);
            pc - back + 4
        } else if self.rng.gen_bool(0.85) {
            // Call into hot code: most dynamic control transfers land in a small set
            // of hot functions (the 90/10 rule), here the first 8 KB of the region.
            let hot_code = self.profile.code_bytes.min(8 * 1024);
            CODE_BASE + self.rng.gen_range(0..hot_code / 4) * 4
        } else {
            // Cold cross-function jump anywhere in the footprint.
            CODE_BASE + self.rng.gen_range(0..self.profile.code_bytes / 4) * 4
        };
        let target = target.clamp(CODE_BASE, code_end - 4);
        let next_pc = if taken { target } else { pc + 4 };
        (
            BranchInfo {
                kind: BranchKind::Conditional,
                taken,
                target,
            },
            next_pc,
        )
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceInstruction;

    fn next(&mut self) -> Option<Self::Item> {
        let pc = self.pc;
        let code_end = CODE_BASE + self.profile.code_bytes;
        let op = self.pick_op();
        let instr = match op {
            OpClass::Load => {
                let addr = self.data_address();
                let addr_src = self.pick_src(false);
                let dest = self.alloc_dest(false);
                self.pc = pc + 4;
                TraceInstruction {
                    pc,
                    op,
                    dest: Some(dest),
                    srcs: [addr_src, None],
                    mem_addr: Some(addr),
                    branch: None,
                }
            }
            OpClass::Store => {
                let addr = self.data_address();
                let value_src = self.pick_src(false);
                self.pc = pc + 4;
                TraceInstruction {
                    pc,
                    op,
                    dest: None,
                    srcs: [value_src, None],
                    mem_addr: Some(addr),
                    branch: None,
                }
            }
            OpClass::Branch => {
                let src = self.pick_src(false);
                let (info, next_pc) = self.branch_info(pc);
                self.pc = next_pc;
                TraceInstruction {
                    pc,
                    op,
                    dest: None,
                    srcs: [src, None],
                    mem_addr: None,
                    branch: Some(info),
                }
            }
            OpClass::IntAlu | OpClass::IntMul => {
                let a = self.pick_src(false);
                let b = self.pick_src(false);
                let dest = self.alloc_dest(false);
                self.pc = pc + 4;
                TraceInstruction {
                    pc,
                    op,
                    dest: Some(dest),
                    srcs: [a, b],
                    mem_addr: None,
                    branch: None,
                }
            }
            OpClass::FpAlu | OpClass::FpMul => {
                let a = self.pick_src(true);
                let b = self.pick_src(true);
                let dest = self.alloc_dest(true);
                self.pc = pc + 4;
                TraceInstruction {
                    pc,
                    op,
                    dest: Some(dest),
                    srcs: [a, b],
                    mem_addr: None,
                    branch: None,
                }
            }
        };
        // Wrap the program counter at the end of the code region (the outermost loop).
        if self.pc >= code_end {
            self.pc = CODE_BASE;
        }
        self.instructions_generated += 1;
        Some(instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Benchmark;
    use std::collections::HashSet;

    fn generate(bench: Benchmark, n: usize, seed: u64) -> Vec<TraceInstruction> {
        TraceGenerator::new(&bench.profile(), seed).take(n).collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(Benchmark::Gzip, 5_000, 7);
        let b = generate(Benchmark::Gzip, 5_000, 7);
        let c = generate(Benchmark::Gzip, 5_000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn instruction_mix_matches_the_profile() {
        let profile = Benchmark::Crafty.profile();
        let n = 200_000;
        let trace = generate(Benchmark::Crafty, n, 1);
        let loads = trace.iter().filter(|i| i.op == OpClass::Load).count() as f64 / n as f64;
        let stores = trace.iter().filter(|i| i.op == OpClass::Store).count() as f64 / n as f64;
        let branches = trace.iter().filter(|i| i.op == OpClass::Branch).count() as f64 / n as f64;
        assert!((loads - profile.load_fraction).abs() < 0.01, "loads {loads}");
        assert!((stores - profile.store_fraction).abs() < 0.01, "stores {stores}");
        assert!(
            (branches - profile.branch_fraction).abs() < 0.01,
            "branches {branches}"
        );
    }

    #[test]
    fn fp_benchmarks_contain_fp_operations_and_int_ones_do_not() {
        let fp_trace = generate(Benchmark::Swim, 20_000, 2);
        let int_trace = generate(Benchmark::Gcc, 20_000, 2);
        assert!(fp_trace.iter().any(|i| i.op.is_fp()));
        assert!(int_trace.iter().all(|i| !i.op.is_fp()));
    }

    #[test]
    fn program_counters_stay_within_the_code_footprint() {
        for bench in [Benchmark::Crafty, Benchmark::Swim, Benchmark::Mcf] {
            let profile = bench.profile();
            let trace = generate(bench, 50_000, 3);
            for i in &trace {
                assert!(i.pc >= CODE_BASE && i.pc < CODE_BASE + profile.code_bytes);
            }
        }
    }

    #[test]
    fn code_footprint_scales_with_the_profile() {
        let small = generate(Benchmark::Swim, 100_000, 4);
        let large = generate(Benchmark::Gcc, 100_000, 4);
        let blocks = |t: &[TraceInstruction]| -> usize {
            t.iter().map(|i| i.pc & !63).collect::<HashSet<_>>().len()
        };
        assert!(
            blocks(&large) > blocks(&small) * 3,
            "gcc should touch far more instruction blocks than swim ({} vs {})",
            blocks(&large),
            blocks(&small)
        );
    }

    #[test]
    fn data_addresses_stay_within_the_working_set() {
        for bench in [Benchmark::Mcf, Benchmark::Gzip] {
            let profile = bench.profile();
            let trace = generate(bench, 50_000, 5);
            for i in trace.iter().filter(|i| i.is_mem()) {
                let addr = i.mem_addr.unwrap();
                let in_hot = (HOT_BASE..HOT_BASE + profile.hot_data_bytes).contains(&addr);
                let in_ws =
                    (DATA_BASE..DATA_BASE + profile.data_working_set_bytes + 64).contains(&addr);
                assert!(in_hot || in_ws, "address {addr:#x} outside both regions");
            }
        }
    }

    #[test]
    fn memory_bound_benchmarks_touch_far_more_data_blocks() {
        let blocks = |bench: Benchmark| -> usize {
            generate(bench, 100_000, 6)
                .iter()
                .filter_map(|i| i.mem_addr)
                .map(|a| a & !63)
                .collect::<HashSet<_>>()
                .len()
        };
        let mcf = blocks(Benchmark::Mcf);
        let sixtrack = blocks(Benchmark::Sixtrack);
        assert!(
            mcf > sixtrack * 5,
            "mcf should touch many more distinct blocks ({mcf} vs {sixtrack})"
        );
    }

    #[test]
    fn branch_targets_are_consistent_with_the_next_pc() {
        let trace = generate(Benchmark::Vpr, 20_000, 9);
        for pair in trace.windows(2) {
            if let Some(branch) = &pair[0].branch {
                let expected = if branch.taken { branch.target } else { pair[0].pc + 4 };
                // The next PC may have wrapped at the end of the code region.
                let profile = Benchmark::Vpr.profile();
                let wrapped = if expected >= CODE_BASE + profile.code_bytes {
                    CODE_BASE
                } else {
                    expected
                };
                assert_eq!(pair[1].pc, wrapped);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid benchmark profile gzip: load fraction 2 is not in [0, 1]")]
    fn invalid_profiles_are_rejected_at_construction() {
        let mut p = Benchmark::Gzip.profile();
        p.load_fraction = 2.0;
        let _ = TraceGenerator::new(&p, 0);
    }

    #[test]
    fn generated_count_is_tracked() {
        let mut g = TraceGenerator::new(&Benchmark::Eon.profile(), 0);
        let _ = (&mut g).take(123).count();
        assert_eq!(g.instructions_generated(), 123);
    }

    #[test]
    fn all_compute_phase_schedule_reproduces_the_unphased_stream() {
        use crate::phase::{PhaseSchedule, WorkloadPhase};
        let profile = Benchmark::Crafty.profile();
        let plain: Vec<_> = TraceGenerator::new(&profile, 11).take(20_000).collect();
        let phased: Vec<_> = TraceGenerator::with_phases(
            &profile,
            11,
            PhaseSchedule::pinned(WorkloadPhase::ComputeBound),
        )
        .take(20_000)
        .collect();
        assert_eq!(plain, phased, "compute phases must apply the profile verbatim");
    }

    #[test]
    fn current_phase_follows_the_schedule() {
        use crate::phase::{PhaseSchedule, WorkloadPhase};
        let profile = Benchmark::Gzip.profile();
        let schedule = PhaseSchedule::alternating(1_000, 500);
        let mut g = TraceGenerator::with_phases(&profile, 3, schedule);
        assert_eq!(g.current_phase(), WorkloadPhase::ComputeBound);
        let _ = (&mut g).take(1_000).count();
        assert_eq!(g.current_phase(), WorkloadPhase::MemoryBound);
        let _ = (&mut g).take(500).count();
        assert_eq!(g.current_phase(), WorkloadPhase::ComputeBound);
        assert!(g.phases().is_some());
        assert!(TraceGenerator::new(&profile, 3).phases().is_none());
    }

    #[test]
    fn memory_bound_phases_abandon_the_hot_region() {
        use crate::phase::{PhaseSchedule, WorkloadPhase};
        let profile = Benchmark::Crafty.profile();
        let n = 50_000;
        let hot_fraction = |phase: WorkloadPhase| -> f64 {
            let accesses: Vec<u64> =
                TraceGenerator::with_phases(&profile, 5, PhaseSchedule::pinned(phase))
                    .take(n)
                    .filter_map(|i| i.mem_addr)
                    .collect();
            let hot = accesses
                .iter()
                .filter(|&&a| (HOT_BASE..HOT_BASE + profile.hot_data_bytes).contains(&a))
                .count();
            hot as f64 / accesses.len() as f64
        };
        let compute = hot_fraction(WorkloadPhase::ComputeBound);
        let memory = hot_fraction(WorkloadPhase::MemoryBound);
        assert!(
            (compute - profile.hot_access_probability).abs() < 0.02,
            "compute phases keep the profile's hot-access rate ({compute})"
        );
        assert!(
            (memory - profile.hot_access_probability * MEMORY_PHASE_HOT_SCALE).abs() < 0.02,
            "memory phases must mostly leave the hot region ({memory} vs {compute})"
        );
    }
}
