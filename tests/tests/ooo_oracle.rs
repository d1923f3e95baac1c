//! Differential tests of the event-driven out-of-order cycle loop against a
//! faithful port of the cycle-stepping loop it replaced.
//!
//! [`Pipeline::run`] keeps the ROB in a ring of sequence-indexed slots, pushes
//! operand readiness to each consumer once (per-producer consumer lists and a
//! ready bitset walked oldest first), files each issued entry in a completion
//! timing wheel keyed by its completion cycle, and skips idle cycles to the
//! wheel's next busy bucket. Every observable must be *bit-identical* to the old loop,
//! which stepped one cycle at a time, swept the rename table on every commit,
//! and still uses the two mechanisms the new loop replaced: a ROB-wide scan for
//! completion and issue, and a per-cycle readiness check of every waiting
//! entry's operands against a completion table rebuilt each cycle. The
//! reference below is that loop, line for line; each case compares the two
//! [`SimResult`]s with `==`.

use std::collections::VecDeque;
use std::sync::OnceLock;

use proptest::prelude::*;

use vccmin_core::cache::{
    CacheHierarchy, DisablingScheme, FaultMap, HierarchyConfig, VictimCacheConfig, VoltageMode,
};
use vccmin_core::cpu::branch::{BranchPredictor, FrontEndPredictor};
use vccmin_core::cpu::instruction::NUM_REGS;
use vccmin_core::cpu::{
    BranchInfo, BranchKind, CpuConfig, OpClass, Pipeline, SimResult, TraceInstruction,
};
use vccmin_core::CacheGeometry;

// ---------------------------------------------------------------------------
// Reference implementation: a line-for-line port of the cycle-stepping loop.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued,
    Completed,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    op: OpClass,
    mem_addr: Option<u64>,
    mispredicted_branch: bool,
    deps: [Option<u64>; 2],
    state: EntryState,
    complete_cycle: u64,
}

#[derive(Debug, Clone)]
struct FetchedInstr {
    seq: u64,
    instr: TraceInstruction,
    ready_at: u64,
    mispredicted: bool,
}

/// Port of the old `Pipeline`: same fields, same `reset_stats`, and a `run`
/// that steps every cycle and scans the whole ROB.
struct RefPipeline {
    config: CpuConfig,
    hierarchy: CacheHierarchy,
    predictor: FrontEndPredictor,
}

impl RefPipeline {
    fn new(config: CpuConfig, hierarchy: CacheHierarchy) -> Self {
        let predictor = FrontEndPredictor::new(config.gshare_history_bits, config.ras_entries);
        Self {
            config,
            hierarchy,
            predictor,
        }
    }

    fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.predictor.conditional_branches = 0;
        self.predictor.mispredictions = 0;
    }

    fn run(
        &mut self,
        trace: &mut dyn Iterator<Item = TraceInstruction>,
        max_instructions: Option<u64>,
    ) -> SimResult {
        let cfg = self.config;
        let l1i_hit_latency = {
            let hcfg = self.hierarchy.config();
            hcfg.l1i.hit_latency(hcfg.voltage)
        };
        let fetch_limit = max_instructions.unwrap_or(u64::MAX);

        let mut cycle: u64 = 0;
        let mut committed: u64 = 0;
        let mut fetched: u64 = 0;
        let mut loads: u64 = 0;
        let mut stores: u64 = 0;

        let mut rob: VecDeque<RobEntry> = VecDeque::with_capacity(cfg.rob_entries);
        let mut fetch_queue: VecDeque<FetchedInstr> = VecDeque::new();
        let mut pending_fetch: Option<TraceInstruction> = None;
        let mut trace_done = false;

        let mut reg_producer: [Option<u64>; NUM_REGS] = [None; NUM_REGS];

        let mut int_iq = 0usize;
        let mut fp_iq = 0usize;
        let mut lsq = 0usize;

        let mut next_seq: u64 = 0;
        let mut oldest_inflight_seq: u64 = 0;

        let mut fetch_stall_until: u64 = 0;
        let mut waiting_branch: Option<u64> = None;
        let mut current_fetch_block: Option<u64> = None;
        let fetch_buffer_capacity = (cfg.fetch_width * (cfg.front_end_depth + 4)) as usize;

        let mut last_progress_cycle: u64 = 0;
        let mut last_committed: u64 = 0;

        let mut store_batch: Vec<(u64, bool)> = Vec::with_capacity(cfg.commit_width as usize);
        let mut store_results = Vec::with_capacity(cfg.commit_width as usize);

        loop {
            // 1. Commit.
            let mut commits = 0;
            store_batch.clear();
            while commits < cfg.commit_width {
                match rob.front() {
                    Some(head)
                        if head.state == EntryState::Completed && head.complete_cycle <= cycle => {}
                    _ => break,
                }
                let Some(head) = rob.pop_front() else { break };
                if head.op.is_mem() {
                    lsq -= 1;
                    if head.op == OpClass::Store {
                        if let Some(addr) = head.mem_addr {
                            store_batch.push((addr, true));
                        }
                        stores += 1;
                    } else {
                        loads += 1;
                    }
                }
                for r in &mut reg_producer {
                    if *r == Some(head.seq) {
                        *r = None;
                    }
                }
                oldest_inflight_seq = head.seq + 1;
                committed += 1;
                commits += 1;
            }
            if !store_batch.is_empty() {
                store_results.clear();
                self.hierarchy.access_data_batch(&store_batch, &mut store_results);
            }

            // 2. Completion.
            for entry in &mut rob {
                if entry.state == EntryState::Issued && entry.complete_cycle <= cycle {
                    entry.state = EntryState::Completed;
                    if entry.mispredicted_branch && waiting_branch == Some(entry.seq) {
                        waiting_branch = None;
                        fetch_stall_until = fetch_stall_until.max(cycle + 1);
                    }
                }
            }

            // 3. Issue.
            let mut issued_this_cycle = 0u32;
            let mut int_alu_used = 0u32;
            let mut int_mul_used = 0u32;
            let mut fp_alu_used = 0u32;
            let mut fp_mul_used = 0u32;
            let mut mem_ports_used = 0u32;
            let completed_flags: Vec<(u64, bool)> = rob
                .iter()
                .map(|e| (e.seq, e.state == EntryState::Completed && e.complete_cycle <= cycle))
                .collect();
            let is_ready = |dep: u64, oldest: u64, flags: &[(u64, bool)]| -> bool {
                if dep < oldest {
                    return true;
                }
                flags
                    .iter()
                    .find(|(s, _)| *s == dep)
                    .is_none_or(|(_, done)| *done)
            };

            for entry in &mut rob {
                if issued_this_cycle >= cfg.issue_width {
                    break;
                }
                if entry.state != EntryState::Waiting {
                    continue;
                }
                let deps_ready = entry.deps.iter().all(|d| match d {
                    Some(dep) => is_ready(*dep, oldest_inflight_seq, &completed_flags),
                    None => true,
                });
                if !deps_ready {
                    continue;
                }
                let (used, limit): (&mut u32, u32) = match entry.op {
                    OpClass::IntAlu | OpClass::Branch => (&mut int_alu_used, cfg.int_alus),
                    OpClass::IntMul => (&mut int_mul_used, cfg.int_muls),
                    OpClass::FpAlu => (&mut fp_alu_used, cfg.fp_alus),
                    OpClass::FpMul => (&mut fp_mul_used, cfg.fp_muls),
                    OpClass::Load | OpClass::Store => (&mut mem_ports_used, cfg.mem_ports),
                };
                if *used >= limit {
                    continue;
                }
                *used += 1;
                issued_this_cycle += 1;

                let latency = match entry.op {
                    OpClass::Load => {
                        let addr = entry.mem_addr.expect("loads carry an address");
                        let access = self.hierarchy.access_data(addr, false);
                        access.latency
                    }
                    other => cfg.exec_latency(other),
                };
                entry.state = EntryState::Issued;
                entry.complete_cycle = cycle + u64::from(latency.max(1));
                if entry.op.is_fp() {
                    fp_iq -= 1;
                } else {
                    int_iq -= 1;
                }
            }

            // 4. Dispatch.
            let mut dispatched = 0;
            while dispatched < cfg.decode_width {
                let Some(front) = fetch_queue.front() else { break };
                if front.ready_at > cycle || rob.len() >= cfg.rob_entries {
                    break;
                }
                let needs_fp = front.instr.op.is_fp();
                if needs_fp && fp_iq >= cfg.fp_iq_entries {
                    break;
                }
                if !needs_fp && int_iq >= cfg.int_iq_entries {
                    break;
                }
                if front.instr.is_mem() && lsq >= cfg.lsq_entries {
                    break;
                }
                let Some(fetched_instr) = fetch_queue.pop_front() else { break };
                let instr = fetched_instr.instr;
                let mut deps = [None, None];
                for (slot, src) in instr.srcs.iter().enumerate() {
                    if let Some(reg) = src {
                        deps[slot] = reg_producer[*reg as usize];
                    }
                }
                if let Some(dest) = instr.dest {
                    reg_producer[dest as usize] = Some(fetched_instr.seq);
                }
                if needs_fp {
                    fp_iq += 1;
                } else {
                    int_iq += 1;
                }
                if instr.is_mem() {
                    lsq += 1;
                }
                rob.push_back(RobEntry {
                    seq: fetched_instr.seq,
                    op: instr.op,
                    mem_addr: instr.mem_addr,
                    mispredicted_branch: fetched_instr.mispredicted,
                    deps,
                    state: EntryState::Waiting,
                    complete_cycle: u64::MAX,
                });
                dispatched += 1;
            }

            // 5. Fetch.
            if waiting_branch.is_none() && cycle >= fetch_stall_until && !trace_done {
                let mut fetched_this_cycle = 0;
                while fetched_this_cycle < cfg.fetch_width
                    && fetch_queue.len() < fetch_buffer_capacity
                    && fetched < fetch_limit
                {
                    let instr = match pending_fetch.take() {
                        Some(i) => i,
                        None => match trace.next() {
                            Some(i) => i,
                            None => {
                                trace_done = true;
                                break;
                            }
                        },
                    };
                    let block = instr.pc & !63;
                    if current_fetch_block != Some(block) {
                        let access = self.hierarchy.access_instr(instr.pc);
                        current_fetch_block = Some(block);
                        let extra = access.latency.saturating_sub(l1i_hit_latency);
                        if extra > 0 {
                            pending_fetch = Some(instr);
                            fetch_stall_until = cycle + u64::from(extra);
                            break;
                        }
                    }

                    let seq = next_seq;
                    next_seq += 1;
                    fetched += 1;
                    fetched_this_cycle += 1;

                    let mut mispredicted = false;
                    let mut taken = false;
                    if let Some(branch) = &instr.branch {
                        let correct = self.predictor.predict_and_update(instr.pc, branch);
                        mispredicted = !correct;
                        taken = branch.taken;
                        if taken {
                            current_fetch_block = None;
                        }
                    }
                    fetch_queue.push_back(FetchedInstr {
                        seq,
                        instr,
                        ready_at: cycle + u64::from(cfg.front_end_depth),
                        mispredicted,
                    });
                    if mispredicted {
                        waiting_branch = Some(seq);
                        break;
                    }
                    if taken {
                        break;
                    }
                }
                if fetched >= fetch_limit {
                    trace_done = true;
                }
            }

            // Termination and watchdog.
            if trace_done && rob.is_empty() && fetch_queue.is_empty() && pending_fetch.is_none() {
                break;
            }
            if committed > last_committed {
                last_committed = committed;
                last_progress_cycle = cycle;
            }
            assert!(
                cycle - last_progress_cycle < 1_000_000,
                "pipeline made no forward progress for 1M cycles (deadlock?)"
            );
            cycle += 1;
        }

        SimResult {
            instructions: committed,
            cycles: cycle.max(1),
            loads,
            stores,
            conditional_branches: self.predictor.conditional_branches,
            branch_mispredictions: self.predictor.mispredictions,
            hierarchy: self.hierarchy.stats(),
        }
    }
}

// ---------------------------------------------------------------------------
// Trace generation.
// ---------------------------------------------------------------------------

/// Where a memory operation's address falls.
#[derive(Debug, Clone, Copy)]
enum Reach {
    /// A few blocks that stay L1-resident.
    L1,
    /// A strided walk over 512 KB: L1 misses that hit the L2.
    L2,
    /// A far stride through memory: misses at every level.
    Memory,
}

/// One step of a generated trace.
#[derive(Debug, Clone)]
enum Step {
    /// An arithmetic op writing `dest` from `src` (a dependence chain when the
    /// registers repeat).
    Alu { op: OpClass, dest: u8, src: u8 },
    /// An arithmetic op reading two registers, which may be the same one: then
    /// one producer has the consumer on its list twice.
    Alu2 { op: OpClass, dest: u8, srcs: [u8; 2] },
    /// A load into `dest` whose address depends on `base`.
    Load { dest: u8, base: u8, reach: Reach, slot: u16 },
    /// A store of `src`.
    Store { src: u8, reach: Reach, slot: u16 },
    /// A conditional branch with a random outcome (often mispredicted).
    Branch { taken: bool },
    /// A call, one instruction in the callee, and the matching return.
    CallReturn,
}

/// One step from six uniform draws: a kind selector, three registers, a slot
/// and a flag. Weights (out of 16): 4 integer ALU/multiply, 2 FP, 2
/// two-source ALU (integer or FP), 3 loads, 2 stores, 2 conditional branches,
/// 1 call/return pair.
fn step() -> impl Strategy<Value = Step> {
    let draws = (0u8..16, (0u8..7, 0u8..7, 0u8..7), any::<u16>(), any::<bool>());
    draws.prop_map(|(kind, (a, b, c), slot, flag)| {
        // Integer registers 1..8 and FP registers 40..44: few enough that
        // dependence chains form, and that two sources often coincide.
        let (int_a, int_b, int_c) = (1 + a, 1 + b, 1 + c);
        let (fp_a, fp_b, fp_c) = (40 + a % 4, 40 + b % 4, 40 + c % 4);
        let reach = match slot % 3 {
            0 => Reach::L1,
            1 => Reach::L2,
            _ => Reach::Memory,
        };
        let op = |int, wide| match (int, wide) {
            (true, false) => OpClass::IntAlu,
            (true, true) => OpClass::IntMul,
            (false, false) => OpClass::FpAlu,
            (false, true) => OpClass::FpMul,
        };
        match kind {
            0..=3 => Step::Alu {
                op: op(true, flag),
                dest: int_a,
                src: int_b,
            },
            4..=5 => Step::Alu {
                op: op(false, flag),
                dest: fp_a,
                src: fp_b,
            },
            6..=8 => Step::Load {
                dest: int_a,
                base: int_b,
                reach,
                slot,
            },
            9..=10 => Step::Store {
                src: int_a,
                reach,
                slot,
            },
            11..=12 => Step::Branch { taken: flag },
            13 => Step::CallReturn,
            _ if slot % 2 == 0 => Step::Alu2 {
                op: op(true, flag),
                dest: int_a,
                srcs: [int_b, int_c],
            },
            _ => Step::Alu2 {
                op: op(false, flag),
                dest: fp_a,
                srcs: [fp_b, fp_c],
            },
        }
    })
}

fn address(reach: Reach, slot: u16) -> u64 {
    let slot = u64::from(slot);
    match reach {
        Reach::L1 => 0x10_0000 + (slot % 16) * 64,
        Reach::L2 => 0x200_0000 + (slot % 8192) * 64,
        Reach::Memory => 0x4000_0000 + slot * 4096,
    }
}

/// Lays the steps out as a trace. Code runs through `code_blocks` 64-byte
/// blocks before wrapping, so a large footprint also misses in the I-cache.
fn build_trace(steps: &[Step], code_blocks: u64) -> Vec<TraceInstruction> {
    let code_bytes = code_blocks * 64;
    let mut trace = Vec::with_capacity(steps.len() * 3);
    for (i, step) in steps.iter().enumerate() {
        let pc = 0x1_0000 + (i as u64 * 4) % code_bytes;
        match *step {
            Step::Alu { op, dest, src } => trace.push(
                TraceInstruction::alu(pc, op)
                    .with_dest(dest)
                    .with_srcs(Some(src), None),
            ),
            Step::Alu2 { op, dest, srcs } => trace.push(
                TraceInstruction::alu(pc, op)
                    .with_dest(dest)
                    .with_srcs(Some(srcs[0]), Some(srcs[1])),
            ),
            Step::Load {
                dest,
                base,
                reach,
                slot,
            } => trace.push(
                TraceInstruction::load(pc, address(reach, slot), dest).with_srcs(Some(base), None),
            ),
            Step::Store { src, reach, slot } => {
                trace.push(TraceInstruction::store(pc, address(reach, slot), src));
            }
            Step::Branch { taken } => {
                trace.push(TraceInstruction::conditional_branch(pc, taken, pc + 4));
            }
            Step::CallReturn => {
                let callee = 0xf_0000 + (i as u64 % 4) * 64;
                let call = |kind, target| TraceInstruction {
                    pc,
                    op: OpClass::Branch,
                    dest: None,
                    srcs: [None, None],
                    mem_addr: None,
                    branch: Some(BranchInfo {
                        kind,
                        taken: true,
                        target,
                    }),
                };
                trace.push(call(BranchKind::Call, callee));
                trace.push(TraceInstruction::alu(callee, OpClass::IntAlu).with_dest(1));
                trace.push(TraceInstruction {
                    pc: callee + 4,
                    ..call(BranchKind::Return, pc + 4)
                });
            }
        }
    }
    trace
}

// ---------------------------------------------------------------------------
// Machines: core configurations × hierarchies.
// ---------------------------------------------------------------------------

/// A deliberately narrow core: a small ROB, issue queues and LSQ fill up
/// quickly, so every structural dispatch stall is exercised.
fn narrow_core() -> CpuConfig {
    CpuConfig {
        fetch_width: 2,
        decode_width: 2,
        issue_width: 2,
        commit_width: 2,
        rob_entries: 16,
        int_iq_entries: 6,
        fp_iq_entries: 3,
        lsq_entries: 4,
        int_alus: 1,
        int_muls: 1,
        fp_alus: 1,
        fp_muls: 1,
        mem_ports: 1,
        front_end_depth: 3,
        ..CpuConfig::ispass2010()
    }
}

/// A wide core whose ROB (100 entries) is not a power of two and spans two
/// 64-slot words of the ready bitset, so the oldest-first walk starts inside a
/// word and wraps around the ring. The issue queues and LSQ are large enough
/// for the ROB to fill first.
fn wide_core() -> CpuConfig {
    CpuConfig {
        fetch_width: 8,
        decode_width: 8,
        issue_width: 8,
        commit_width: 8,
        rob_entries: 100,
        int_iq_entries: 100,
        fp_iq_entries: 100,
        lsq_entries: 100,
        ..CpuConfig::ispass2010()
    }
}

/// The narrow, the paper's and the wide core, equally likely.
fn core() -> impl Strategy<Value = CpuConfig> {
    (0usize..3).prop_map(|i| [narrow_core(), CpuConfig::ispass2010(), wide_core()][i])
}

struct FaultMaps {
    l1i: FaultMap,
    l1d: FaultMap,
    l2: FaultMap,
}

fn fault_maps() -> &'static FaultMaps {
    static MAPS: OnceLock<FaultMaps> = OnceLock::new();
    MAPS.get_or_init(|| {
        let l1 = CacheGeometry::ispass2010_l1();
        FaultMaps {
            l1i: FaultMap::generate(&l1, 0.001, 0x00C0_FFEE),
            l1d: FaultMap::generate(&l1, 0.001, 0x0BAD_CAFE),
            l2: FaultMap::generate(&CacheGeometry::ispass2010_l2(), 0.001, 0x0001_2C2C),
        }
    })
}

/// Every hierarchy a trace runs on: each repair scheme at high voltage, and
/// at low voltage with a perfect and with a faulty (repaired) L2. Scheme and
/// map combinations a scheme cannot repair are skipped, as a campaign would.
/// Then victim caches of both cell technologies, and memory latencies that
/// move the completion wheel off the paper's 128 and 512 buckets: a worst-case
/// load of 3 + 20 + 9 = 32 cycles, a power of two, sizes it at 64 buckets, and
/// one of 1023 cycles at 1024 buckets, one cycle short of a full lap.
fn hierarchies() -> Vec<(String, CacheHierarchy)> {
    let maps = fault_maps();
    let (l1i, l1d, l2) = (Some(&maps.l1i), Some(&maps.l1d), Some(&maps.l2));
    let mut out = Vec::new();
    for scheme in DisablingScheme::ALL {
        let high = HierarchyConfig::ispass2010(scheme, VoltageMode::High);
        out.push((format!("{scheme:?}/high"), CacheHierarchy::new(high)));
        let low = HierarchyConfig::ispass2010(scheme, VoltageMode::Low);
        let faulty_l2 = if scheme == DisablingScheme::Baseline {
            DisablingScheme::BlockDisabling
        } else {
            scheme
        };
        for (label, cfg) in [("perfect L2", low), ("faulty L2", low.with_l2_scheme(faulty_l2))] {
            if let Ok(h) = CacheHierarchy::with_all_fault_maps(cfg, l1i, l1d, l2) {
                out.push((format!("{scheme:?}/low/{label}"), h));
            }
        }
    }
    let baseline = HierarchyConfig::ispass2010_baseline_high_voltage();
    for victim in [VictimCacheConfig::ispass2010_10t(), VictimCacheConfig::ispass2010_6t()] {
        let tech = victim.technology;
        let high = baseline.with_victim_caches(victim);
        out.push((format!("Baseline/high/{tech:?} victim"), CacheHierarchy::new(high)));
        let low = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low)
            .with_victim_caches(victim);
        let h = CacheHierarchy::with_all_fault_maps(low, l1i, l1d, l2)
            .expect("block disabling repairs the oracle's fault maps");
        out.push((format!("BlockDisabling/low/{tech:?} victim"), h));
    }
    for memory_latency in [9, 1000] {
        let cfg = HierarchyConfig {
            memory_latency,
            ..baseline
        };
        out.push((format!("Baseline/high/memory {memory_latency}"), CacheHierarchy::new(cfg)));
    }
    out
}

/// Runs `trace` in consecutive segments of `caps` on the production pipeline
/// and on the reference, resetting statistics between segments as the
/// governor does. Returns the first segment whose results differ.
fn first_divergence(
    core: CpuConfig,
    trace: &[TraceInstruction],
    caps: &[Option<u64>],
) -> Option<String> {
    for (label, hierarchy) in hierarchies() {
        let mut pipeline = Pipeline::new(core, hierarchy.clone());
        let mut reference = RefPipeline::new(core, hierarchy);
        let mut ours = trace.iter().copied();
        let mut theirs = trace.iter().copied();
        for (segment, &cap) in caps.iter().enumerate() {
            if segment > 0 {
                pipeline.reset_stats();
                reference.reset_stats();
            }
            let expected = reference.run(&mut theirs, cap);
            let got = pipeline.run(&mut ours, cap);
            if got != expected {
                return Some(format!(
                    "{label}, segment {segment} (cap {cap:?}):\n got: {got:?}\nwant: {expected:?}"
                ));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn event_driven_loop_matches_the_cycle_stepping_reference(
        steps in prop::collection::vec(step(), 1..250),
        core in core(),
        large_code in any::<bool>(),
    ) {
        let trace = build_trace(&steps, if large_code { 4096 } else { 16 });
        prop_assert_eq!(first_divergence(core, &trace, &[None]), None);
    }

    #[test]
    fn capped_back_to_back_segments_match_the_reference(
        steps in prop::collection::vec(step(), 1..250),
        first in 0u64..200,
        second in 0u64..200,
        core in core(),
    ) {
        let trace = build_trace(&steps, 64);
        prop_assert_eq!(first_divergence(core, &trace, &[Some(first), Some(second), None]), None);
    }
}

/// A pointer chase through memory interleaved with independent work: long
/// idle stretches between completions, the shape idle-cycle skipping targets.
/// Each chase step has a consumer reading its value twice.
fn pointer_chase(len: u16) -> Vec<TraceInstruction> {
    let steps: Vec<Step> = (0..len)
        .map(|i| match i % 5 {
            0 => Step::Load {
                dest: 2,
                base: 2,
                reach: Reach::Memory,
                slot: i,
            },
            1 => Step::Alu {
                op: OpClass::FpMul,
                dest: 41,
                src: 41,
            },
            2 => Step::Branch { taken: i % 3 == 0 },
            3 => Step::Store {
                src: 2,
                reach: Reach::L2,
                slot: i.wrapping_mul(7),
            },
            _ => Step::Alu2 {
                op: OpClass::IntAlu,
                dest: 3,
                srcs: [2, 2],
            },
        })
        .collect();
    build_trace(&steps, 512)
}

#[test]
fn long_memory_bound_trace_matches_the_reference() {
    let trace = pointer_chase(1_500);
    assert_eq!(first_divergence(CpuConfig::ispass2010(), &trace, &[Some(700), None]), None);
}

#[test]
fn wide_core_with_a_full_rob_matches_the_reference() {
    // The ROB fills behind every chase load, and its head walks across both
    // words of the ready bitset.
    let trace = pointer_chase(500);
    assert_eq!(first_divergence(wide_core(), &trace, &[Some(230), None]), None);
}
