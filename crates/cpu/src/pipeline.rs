//! The cycle-level out-of-order pipeline model.
//!
//! Each simulated cycle performs, in back-to-front order: commit, completion,
//! issue, dispatch and fetch. The model tracks the reorder buffer, the integer and
//! floating-point issue queues, the load/store queue, per-class functional-unit
//! availability, register dependences through a rename table, the gshare/RAS front
//! end, and the instruction- and data-side cache hierarchies.
//!
//! Branch mispredictions stall the front end until the branch resolves (issues and
//! executes); the subsequent pipeline-refill delay is modeled by the front-end depth
//! every fetched instruction must traverse before dispatch. Wrong-path instructions
//! themselves are not simulated — their primary performance effect (the refill
//! bubble) is captured, which is sufficient for the relative cache-organization
//! comparisons the paper makes.
//!
//! # Host cost
//!
//! The host work per simulated cycle scales with what the cycle does, not with
//! the size of the reorder buffer or with how many entries wait for operands or
//! on execution:
//!
//! - **Slot ring.** Fetch numbers instructions contiguously and the ROB is a fixed
//!   ring of `rob_entries.next_power_of_two()` slots, so sequence `s` lives in
//!   slot `s & mask` from dispatch to commit and never moves. Occupancy is still
//!   capped at `rob_entries`. Commit reads the head slot in place; each entry
//!   records its destination register, so commit clears only that rename slot.
//!   A ROB entry, which keeps no completion cycle, and a fetch-queue entry,
//!   which keeps no sequence number (dispatch gives the queue's head
//!   `rob_tail`), each fit in 64 bytes, one host cache line.
//! - **Consumer lists (wakeup).** Each entry counts its `pending` operands and
//!   heads an intrusive list of the entries that wait on it: `first_consumer`,
//!   then one `next_link` per source of each consumer, a link being
//!   `slot << 1 | src`. Dispatch links a source onto its producer's list when the
//!   producer is in flight and not yet completed. Completion walks the completing
//!   entry's list once and decrements each consumer's count. Nothing is polled
//!   and nothing is allocated per cycle.
//! - **Ready bitset (select).** An entry whose count reaches zero sets its slot's
//!   bit in `ready`, one `u64` per 64 slots. Issue walks the set bits oldest
//!   first — from the head slot to the end of the ring, then from slot 0 up to
//!   the head — with `trailing_zeros`, skips an entry whose functional-unit class
//!   is full and stops at `issue_width`: the global age order and per-class
//!   limits of a scan over every waiting entry, at the cost of the ready ones.
//! - **Completion wheel.** Issue pushes a slot onto the bucket of its completion
//!   cycle, `cycle & mask`, in a ring of `(max_latency + 1).next_power_of_two()` buckets, an intrusive
//!   list through `next_done`. `max_latency` bounds every execution and
//!   data-access latency ([`CacheHierarchy::max_data_latency`]), so a bucket
//!   only ever holds one cycle's completions, and completion pops the current
//!   cycle's bucket alone. Completions within a cycle commute, since issue runs
//!   after all of them, so the order within a bucket does not matter. Loads
//!   waiting hundreds of cycles on memory cost nothing until their cycle comes.
//! - **Idle-cycle skipping.** A cycle that commits, completes, issues, dispatches
//!   and fetches nothing leaves the machine unchanged, so the cycles after it stay
//!   idle until a time threshold passes: the next completion, the fetch-queue
//!   head's `ready_at`, or a future `fetch_stall_until`. The next completion is
//!   the first set bit of the wheel's occupancy bitset (one bit per bucket) in
//!   ring order after the current cycle's bucket, found with `trailing_zeros`.
//!   The loop jumps to the earliest threshold. Skipped cycles count toward the
//!   cycle total and the forward-progress watchdog, so every result equals that
//!   of stepping one cycle at a time.

use std::collections::VecDeque;

use vccmin_cache::CacheHierarchy;

use crate::branch::{BranchPredictor, FrontEndPredictor};
use crate::config::{unit_class, CpuConfig, UNIT_CLASSES};
use crate::instruction::{OpClass, Reg, TraceInstruction, NUM_REGS};
use crate::result::SimResult;

/// A source of trace instructions for the pipeline.
///
/// Implemented for every iterator over [`TraceInstruction`], so a `Vec`'s iterator
/// or a lazily generating workload both work.
pub trait TraceSource {
    /// Returns the next instruction of the trace, or `None` when it is exhausted.
    fn next_instruction(&mut self) -> Option<TraceInstruction>;
}

impl<I> TraceSource for I
where
    I: Iterator<Item = TraceInstruction>,
{
    fn next_instruction(&mut self) -> Option<TraceInstruction> {
        self.next()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Dispatched into the ROB / issue queue, waiting for operands or resources.
    Waiting,
    /// Issued to a functional unit, executing.
    Issued,
    /// Execution finished; waiting to commit in order.
    Completed,
}

/// The end of a consumer list or of a completion-wheel bucket.
const NO_LINK: usize = usize::MAX;

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    op: OpClass,
    dest: Option<Reg>,
    mem_addr: Option<u64>,
    mispredicted_branch: bool,
    state: EntryState,
    /// The next slot in this entry's completion-wheel bucket.
    next_done: usize,
    /// Source operands whose producers have not completed yet.
    pending: u8,
    /// The first consumer waiting on this entry, as `slot << 1 | src`.
    first_consumer: usize,
    /// For each source, the next consumer on its producer's list.
    next_link: [usize; 2],
}

#[derive(Debug, Clone)]
struct FetchedInstr {
    instr: TraceInstruction,
    ready_at: u64,
    mispredicted: bool,
}

/// The pipeline model: configuration, branch predictor and cache hierarchy.
#[derive(Debug)]
pub struct Pipeline {
    config: CpuConfig,
    hierarchy: CacheHierarchy,
    predictor: FrontEndPredictor,
}

impl Pipeline {
    /// Creates a pipeline with the given core configuration and cache hierarchy.
    #[must_use]
    pub fn new(config: CpuConfig, hierarchy: CacheHierarchy) -> Self {
        let predictor = FrontEndPredictor::new(config.gshare_history_bits, config.ras_entries);
        Self {
            config,
            hierarchy,
            predictor,
        }
    }

    /// The cache hierarchy (e.g. to inspect statistics after a run).
    #[must_use]
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Mutable access to the cache hierarchy.
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// Resets every statistics counter (cache hierarchy, branch predictor)
    /// while preserving cache contents and predictor training state. Callers
    /// that issue multiple [`Pipeline::run`] calls on one pipeline (e.g. a
    /// voltage-mode governor executing consecutive same-mode segments) use
    /// this between calls so each [`SimResult`] reports *that segment's*
    /// counters instead of pipeline-lifetime cumulative ones.
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.predictor.conditional_branches = 0;
        self.predictor.mispredictions = 0;
    }

    /// Worst-case cycles to drain the machine before a voltage-mode transition:
    /// stop fetching, let every in-flight instruction (up to a full ROB,
    /// retiring `commit_width` per cycle) complete — including one outstanding
    /// access that missed all the way to memory — and discard the front-end
    /// stages. This is the pipeline-side component of a governor's transition
    /// cost; the cache-side component is
    /// [`RepairScheme::reconfiguration_cycles`](vccmin_cache::RepairScheme::reconfiguration_cycles).
    #[must_use]
    pub fn drain_cycles(&self) -> u64 {
        let cfg = &self.config;
        let rob_drain = (cfg.rob_entries as u64).div_ceil(u64::from(cfg.commit_width.max(1)));
        // The L2 hit latency includes any repair-scheme overhead, so a
        // repair-protected L2 stretches the drain bound like it stretches the
        // in-flight accesses it covers.
        let worst_memory_access = u64::from(
            self.hierarchy.l2_hit_latency() + self.hierarchy.config().memory_latency,
        );
        u64::from(cfg.front_end_depth) + rob_drain + worst_memory_access
    }

    /// Simulates the trace until it is exhausted or `max_instructions` have been
    /// committed, and returns the aggregate result.
    ///
    /// # Panics
    ///
    /// Panics if the simulation commits nothing for 1M consecutive cycles (an
    /// internal invariant violation: the machine has deadlocked). Idle cycles are
    /// skipped, so a deadlock reaches the panic quickly rather than after a
    /// million stepped cycles.
    pub fn run(
        &mut self,
        trace: &mut dyn TraceSource,
        max_instructions: Option<u64>,
    ) -> SimResult {
        const WATCHDOG_CYCLES: u64 = 1_000_000;
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

        // Sequence `s` occupies slot `s & mask` of the ring; the occupied slots
        // hold sequences `oldest_inflight_seq..rob_tail`. The first lap of
        // dispatches grows the ring to its full size.
        let slots = cfg.rob_entries.next_power_of_two();
        let mask = (slots - 1) as u64;
        let mut rob: Vec<RobEntry> = Vec::with_capacity(slots);
        let mut rob_tail: u64 = 0;
        let mut fetch_queue: VecDeque<FetchedInstr> = VecDeque::new();
        let mut pending_fetch: Option<TraceInstruction> = None;
        let mut trace_done = false;

        // Slots whose operands are all available and that have not issued, one
        // bit each.
        let mut ready: Vec<u64> = vec![0; slots.div_ceil(64)];

        // Completion wheel: `wheel[b]` heads the list (through `next_done`) of the
        // slots completing in the cycles `c` with `c & wheel_mask == b`, and bit
        // `b` of `wheel_busy` is set iff that list is non-empty. Every latency is
        // below the ring's length, so a bucket holds a single cycle's completions.
        let max_latency = cfg.max_exec_latency().max(self.hierarchy.max_data_latency());
        let wheel_len = (max_latency as usize + 1).next_power_of_two();
        let wheel_mask = (wheel_len - 1) as u64;
        let mut wheel: Vec<usize> = vec![NO_LINK; wheel_len];
        let mut wheel_busy: Vec<u64> = vec![0; wheel_len.div_ceil(64)];
        // Each issued slot's completion cycle, for a debug assertion; kept out
        // of `RobEntry` so an entry still fits in 64 bytes.
        #[cfg(debug_assertions)]
        let mut complete_at: Vec<u64> = vec![0; slots];

        // Rename table: architectural register -> seq of the in-flight producer.
        let mut reg_producer: [Option<u64>; NUM_REGS] = [None; NUM_REGS];

        let mut int_iq = 0usize;
        let mut fp_iq = 0usize;
        let mut lsq = 0usize;

        let mut oldest_inflight_seq: u64 = 0; // sequences below this have committed

        // Front-end state.
        let mut fetch_stall_until: u64 = 0;
        let mut waiting_branch: Option<u64> = None;
        let mut current_fetch_block: Option<u64> = None;
        // The fetch queue models every front-end stage between fetch and dispatch, so
        // it must hold front_end_depth cycles' worth of fetch bandwidth (plus slack)
        // or it would artificially throttle the pipeline.
        let fetch_buffer_capacity = (cfg.fetch_width * (cfg.front_end_depth + 4)) as usize;

        // Progress watchdog.
        let mut last_progress_cycle: u64 = 0;
        let mut last_committed: u64 = 0;

        // Stores retiring in one cycle update the data cache as a single batch
        // (in commit order); both buffers are reused across cycles. The store
        // results are latency-irrelevant (retirement is off the critical path)
        // but the accesses themselves mutate the cache state, so they must
        // happen here, in program order.
        let mut store_batch: Vec<(u64, bool)> = Vec::with_capacity(cfg.commit_width as usize);
        let mut store_results = Vec::with_capacity(cfg.commit_width as usize);

        loop {
            // ------------------------------------------------------------------
            // 1. Commit: retire completed instructions in order.
            // ------------------------------------------------------------------
            let mut commits = 0;
            store_batch.clear();
            while commits < cfg.commit_width && oldest_inflight_seq < rob_tail {
                let head = &rob[(oldest_inflight_seq & mask) as usize];
                if head.state != EntryState::Completed {
                    break;
                }
                debug_assert_eq!(head.seq, oldest_inflight_seq, "the ROB head is the oldest");
                if head.op.is_mem() {
                    lsq -= 1;
                    if head.op == OpClass::Store {
                        // Stores update the data cache at retirement; the access
                        // latency is off the critical path of the pipeline.
                        if let Some(addr) = head.mem_addr {
                            store_batch.push((addr, true));
                        }
                        stores += 1;
                    } else {
                        loads += 1;
                    }
                }
                // Clear the rename slot if this instruction is still the newest
                // producer of its destination register.
                if let Some(dest) = head.dest {
                    let producer = &mut reg_producer[dest as usize];
                    if *producer == Some(head.seq) {
                        *producer = None;
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

            // ------------------------------------------------------------------
            // 2. Completion: mark issued instructions whose execution finished.
            // ------------------------------------------------------------------
            let bucket = (cycle & wheel_mask) as usize;
            let completing = wheel[bucket] != NO_LINK;
            debug_assert_eq!(
                completing,
                wheel_busy[bucket / 64] & 1 << (bucket % 64) != 0,
                "a bucket's occupancy bit is set iff the bucket is non-empty"
            );
            if completing {
                wheel_busy[bucket / 64] &= !(1 << (bucket % 64));
                let mut slot = std::mem::replace(&mut wheel[bucket], NO_LINK);
                while slot != NO_LINK {
                    let entry = &mut rob[slot];
                    debug_assert!(entry.state == EntryState::Issued);
                    #[cfg(debug_assertions)]
                    assert_eq!(complete_at[slot], cycle, "every popped entry completes this cycle");
                    slot = entry.next_done;
                    entry.state = EntryState::Completed;
                    if entry.mispredicted_branch && waiting_branch == Some(entry.seq) {
                        // The branch resolved: the front end may restart next cycle.
                        waiting_branch = None;
                        fetch_stall_until = fetch_stall_until.max(cycle + 1);
                    }
                    // Wake up every consumer; the last operand makes it ready.
                    let mut link = std::mem::replace(&mut entry.first_consumer, NO_LINK);
                    while link != NO_LINK {
                        let consumer_slot = link >> 1;
                        let consumer = &mut rob[consumer_slot];
                        debug_assert!(
                            consumer.state == EntryState::Waiting && consumer.pending > 0
                        );
                        consumer.pending -= 1;
                        if consumer.pending == 0 {
                            ready[consumer_slot / 64] |= 1 << (consumer_slot % 64);
                        }
                        link = consumer.next_link[link & 1];
                    }
                }
            }

            // ------------------------------------------------------------------
            // 3. Issue: select ready instructions, oldest first.
            // ------------------------------------------------------------------
            let mut issued_this_cycle = 0u32;
            let mut units_used = [0u32; UNIT_CLASSES];
            let head = (oldest_inflight_seq & mask) as usize;
            'select: for (word, lap) in ring_words(ready.len(), head) {
                let mut bits = ready[word] & lap;
                while bits != 0 {
                    let slot = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let entry = &mut rob[slot];
                    debug_assert!(entry.state == EntryState::Waiting && entry.pending == 0);
                    // Functional-unit availability.
                    let used = &mut units_used[unit_class(entry.op)];
                    if *used >= cfg.units_for(entry.op) {
                        continue;
                    }
                    *used += 1;
                    issued_this_cycle += 1;
                    ready[word] &= !(1 << (slot % 64));

                    // Execution latency.
                    let latency = match entry.op {
                        OpClass::Load => {
                            // simlint::allow(panic-path, "dispatch stores an address for every memory op before it reaches issue")
                            let addr = entry.mem_addr.expect("loads carry an address");
                            let access = self.hierarchy.access_data(addr, false);
                            access.latency
                        }
                        other => cfg.exec_latency(other),
                    };
                    let latency = u64::from(latency.max(1));
                    debug_assert!(
                        latency < wheel_len as u64,
                        "latency {latency} laps the {wheel_len}-bucket wheel"
                    );
                    entry.state = EntryState::Issued;
                    let done = ((cycle + latency) & wheel_mask) as usize;
                    #[cfg(debug_assertions)]
                    {
                        complete_at[slot] = cycle + latency;
                    }
                    entry.next_done = wheel[done];
                    wheel[done] = slot;
                    wheel_busy[done / 64] |= 1 << (done % 64);
                    // Leaving the issue queue frees its entry.
                    if entry.op.is_fp() {
                        fp_iq -= 1;
                    } else {
                        int_iq -= 1;
                    }
                    if issued_this_cycle >= cfg.issue_width {
                        break 'select;
                    }
                }
            }

            // ------------------------------------------------------------------
            // 4. Dispatch: move fetched instructions into the ROB / issue queues.
            // ------------------------------------------------------------------
            let mut dispatched = 0;
            while dispatched < cfg.decode_width {
                let Some(front) = fetch_queue.front() else { break };
                if front.ready_at > cycle
                    || (rob_tail - oldest_inflight_seq) as usize >= cfg.rob_entries
                {
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
                let seq = rob_tail;
                let slot = (seq & mask) as usize;
                let mut entry = RobEntry {
                    seq,
                    op: instr.op,
                    dest: instr.dest,
                    mem_addr: instr.mem_addr,
                    mispredicted_branch: fetched_instr.mispredicted,
                    state: EntryState::Waiting,
                    next_done: NO_LINK,
                    pending: 0,
                    first_consumer: NO_LINK,
                    next_link: [NO_LINK; 2],
                };
                // A source waits on its newest producer until that completes;
                // a committed or completed producer is already available.
                for (src, reg) in instr.srcs.iter().enumerate() {
                    let Some(producer_seq) = reg.and_then(|r| reg_producer[r as usize]) else {
                        continue;
                    };
                    let producer = &mut rob[(producer_seq & mask) as usize];
                    debug_assert_eq!(producer.seq, producer_seq, "a named producer is in flight");
                    if producer.state != EntryState::Completed {
                        entry.next_link[src] = producer.first_consumer;
                        producer.first_consumer = slot << 1 | src;
                        entry.pending += 1;
                    }
                }
                if entry.pending == 0 {
                    ready[slot / 64] |= 1 << (slot % 64);
                }
                if slot < rob.len() {
                    rob[slot] = entry;
                } else {
                    rob.push(entry);
                }
                rob_tail += 1;
                if let Some(dest) = instr.dest {
                    reg_producer[dest as usize] = Some(seq);
                }
                if needs_fp {
                    fp_iq += 1;
                } else {
                    int_iq += 1;
                }
                if instr.is_mem() {
                    lsq += 1;
                }
                dispatched += 1;
            }

            // ------------------------------------------------------------------
            // 5. Fetch: pull new instructions from the trace.
            // ------------------------------------------------------------------
            let mut fetch_active = false;
            if waiting_branch.is_none() && cycle >= fetch_stall_until && !trace_done {
                let mut fetched_this_cycle = 0;
                while fetched_this_cycle < cfg.fetch_width
                    && fetch_queue.len() < fetch_buffer_capacity
                    && fetched < fetch_limit
                {
                    fetch_active = true;
                    let instr = match pending_fetch.take() {
                        Some(i) => i,
                        None => match trace.next_instruction() {
                            Some(i) => i,
                            None => {
                                trace_done = true;
                                break;
                            }
                        },
                    };
                    // Instruction-cache access on a fetch-block change.
                    let block = instr.pc & !63;
                    if current_fetch_block != Some(block) {
                        let access = self.hierarchy.access_instr(instr.pc);
                        current_fetch_block = Some(block);
                        let extra = access.latency.saturating_sub(l1i_hit_latency);
                        if extra > 0 {
                            // The block is not available yet: stall the front end and
                            // retry this instruction when it arrives.
                            pending_fetch = Some(instr);
                            fetch_stall_until = cycle + u64::from(extra);
                            break;
                        }
                    }

                    let seq = fetched;
                    fetched += 1;
                    fetched_this_cycle += 1;

                    let mut mispredicted = false;
                    let mut taken = false;
                    if let Some(branch) = &instr.branch {
                        let correct = self.predictor.predict_and_update(instr.pc, branch);
                        mispredicted = !correct;
                        taken = branch.taken;
                        if taken {
                            // A taken branch redirects fetch to a new block.
                            current_fetch_block = None;
                        }
                    }
                    fetch_queue.push_back(FetchedInstr {
                        instr,
                        ready_at: cycle + u64::from(cfg.front_end_depth),
                        mispredicted,
                    });
                    if mispredicted {
                        waiting_branch = Some(seq);
                        break;
                    }
                    if taken {
                        // At most one taken branch per fetch cycle.
                        break;
                    }
                }
                if fetched >= fetch_limit {
                    fetch_active |= !trace_done;
                    trace_done = true;
                }
            }

            // Cheap structural invariants of the structures above.
            debug_assert_eq!(
                rob_tail + fetch_queue.len() as u64,
                fetched,
                "fetch numbers instructions contiguously and dispatch takes them in order"
            );
            debug_assert!(
                ready.iter().map(|w| w.count_ones() as usize).sum::<usize>() <= int_iq + fp_iq,
                "every ready entry holds an IQ slot"
            );

            // ------------------------------------------------------------------
            // Termination and watchdog.
            // ------------------------------------------------------------------
            if trace_done
                && rob_tail == oldest_inflight_seq
                && fetch_queue.is_empty()
                && pending_fetch.is_none()
            {
                break;
            }
            if committed > last_committed {
                last_committed = committed;
                last_progress_cycle = cycle;
            }
            assert!(
                cycle - last_progress_cycle < WATCHDOG_CYCLES,
                "pipeline made no forward progress for 1M cycles (deadlock?) at cycle {cycle}"
            );

            let idle = commits == 0
                && !completing
                && issued_this_cycle == 0
                && dispatched == 0
                && !fetch_active;
            cycle = if idle {
                // Nothing changed, so nothing will until the next completion, the
                // fetch-queue head reaching dispatch, or the front-end stall
                // ending. Jump there, but no further than the watchdog's bound.
                let mut next = next_completion(&wheel_busy, wheel_mask, cycle)
                    .unwrap_or(u64::MAX)
                    .min(last_progress_cycle + WATCHDOG_CYCLES);
                if let Some(front) = fetch_queue.front().filter(|f| f.ready_at > cycle) {
                    next = next.min(front.ready_at);
                }
                if fetch_stall_until > cycle {
                    next = next.min(fetch_stall_until);
                }
                next
            } else {
                cycle + 1
            };
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

/// The words of a ring bitset of `words` words in ring order from bit `start`,
/// each with the mask of its bits in that lap: the start word from `start` up,
/// the other words whole, then the start word again below `start`.
fn ring_words(words: usize, start: usize) -> impl Iterator<Item = (usize, u64)> {
    let first = start / 64;
    let from_start = u64::MAX << (start % 64);
    (0..=words).map(move |i| {
        let lap = match i {
            0 => from_start,
            _ if i == words => !from_start,
            _ => u64::MAX,
        };
        ((first + i) % words, lap)
    })
}

/// The earliest cycle after `cycle` whose completion-wheel bucket is busy, if
/// any. Every pending completion lies less than one lap after `cycle`, so the
/// first busy bucket in ring order from `cycle + 1` is the next one.
fn next_completion(busy: &[u64], wheel_mask: u64, cycle: u64) -> Option<u64> {
    let start = (cycle + 1) & wheel_mask;
    ring_words(busy.len(), start as usize).find_map(|(word, lap)| {
        let bits = busy[word] & lap;
        (bits != 0).then(|| {
            let bucket = (word * 64 + bits.trailing_zeros() as usize) as u64;
            cycle + 1 + (bucket.wrapping_sub(start) & wheel_mask)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{BranchInfo, BranchKind};
    use vccmin_cache::{DisablingScheme, HierarchyConfig, VoltageMode};

    fn baseline_pipeline() -> Pipeline {
        Pipeline::new(
            CpuConfig::ispass2010(),
            CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage()),
        )
    }

    fn run(trace: Vec<TraceInstruction>) -> SimResult {
        baseline_pipeline().run(&mut trace.into_iter(), None)
    }

    #[test]
    fn empty_trace_produces_empty_result() {
        let r = run(vec![]);
        assert_eq!(r.instructions, 0);
        assert!(r.cycles >= 1);
    }

    #[test]
    fn committed_instruction_count_equals_trace_length() {
        let trace: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::alu(0x1000 + i * 4, OpClass::IntAlu))
            .collect();
        let r = run(trace);
        assert_eq!(r.instructions, 5_000);
    }

    #[test]
    fn independent_alu_ops_reach_multi_issue_ipc() {
        let trace: Vec<_> = (0..20_000)
            .map(|i| TraceInstruction::alu(0x1000 + (i % 256) * 4, OpClass::IntAlu))
            .collect();
        let r = run(trace);
        assert!(
            r.ipc() > 2.0,
            "independent single-cycle ops should exceed IPC 2, got {}",
            r.ipc()
        );
        assert!(r.ipc() <= 4.0 + 1e-9, "IPC cannot exceed the commit width");
    }

    #[test]
    fn ipc_never_exceeds_commit_width() {
        let trace: Vec<_> = (0..10_000)
            .map(|i| TraceInstruction::alu(0x2000 + (i % 64) * 4, OpClass::IntAlu))
            .collect();
        let r = run(trace);
        assert!(r.ipc() <= 4.0 + 1e-9);
        assert!(r.cycles >= 10_000 / 4);
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        // Every instruction depends on the previous one through register 1.
        let trace: Vec<_> = (0..5_000)
            .map(|i| {
                TraceInstruction::alu(0x3000 + (i % 64) * 4, OpClass::IntAlu)
                    .with_dest(1)
                    .with_srcs(Some(1), None)
            })
            .collect();
        let r = run(trace);
        assert!(
            r.ipc() <= 1.05,
            "a serial dependence chain cannot exceed IPC 1, got {}",
            r.ipc()
        );
    }

    #[test]
    fn fp_heavy_code_is_limited_by_the_single_fp_alu() {
        let fp_trace: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::alu(0x4000 + (i % 64) * 4, OpClass::FpAlu).with_dest(40))
            .collect();
        let int_trace: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::alu(0x4000 + (i % 64) * 4, OpClass::IntAlu).with_dest(4))
            .collect();
        let fp = run(fp_trace);
        let int = run(int_trace);
        assert!(fp.ipc() <= 1.05, "1 FP ALU bounds FP IPC at 1, got {}", fp.ipc());
        assert!(int.ipc() > fp.ipc());
    }

    #[test]
    fn cache_missing_loads_are_slower_than_hitting_loads() {
        // Hitting loads: a tiny working set. Missing loads: a huge stride.
        let hits: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::load(0x5000 + (i % 16) * 4, 0x100_0000 + (i % 64) * 4, 2))
            .collect();
        let misses: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::load(0x5000 + (i % 16) * 4, 0x100_0000 + i * 4096, 2))
            .collect();
        let fast = run(hits);
        let slow = run(misses);
        assert!(
            fast.ipc() > slow.ipc() * 1.5,
            "missing loads should be much slower: {} vs {}",
            fast.ipc(),
            slow.ipc()
        );
        assert!(slow.hierarchy.l1d.miss_rate() > 0.9);
        assert!(fast.hierarchy.l1d.miss_rate() < 0.1);
    }

    #[test]
    fn mispredicted_branches_cost_pipeline_refills() {
        // Alternating taken/not-taken is learned by gshare; a pseudo-random pattern
        // is not. The random pattern must run slower.
        let mut state = 0x9e3779b97f4a7c15u64;
        let random: Vec<_> = (0..20_000)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                TraceInstruction::conditional_branch(0x6000 + (i % 512) * 4, state & 1 == 1, 0x7000)
            })
            .collect();
        let predictable: Vec<_> = (0..20_000)
            .map(|i| TraceInstruction::conditional_branch(0x6000 + (i % 512) * 4, true, 0x7000))
            .collect();
        let r_random = run(random);
        let r_predictable = run(predictable);
        assert!(r_random.branch_mispredict_rate() > 0.3);
        assert!(r_predictable.branch_mispredict_rate() < 0.05);
        assert!(
            r_predictable.ipc() > r_random.ipc() * 1.5,
            "mispredictions should hurt: {} vs {}",
            r_predictable.ipc(),
            r_random.ipc()
        );
    }

    #[test]
    fn max_instructions_caps_the_run() {
        let trace: Vec<_> = (0..10_000)
            .map(|i| TraceInstruction::alu(0x1000 + i * 4, OpClass::IntAlu))
            .collect();
        let r = baseline_pipeline().run(&mut trace.into_iter(), Some(1_000));
        assert_eq!(r.instructions, 1_000);
    }

    #[test]
    fn stores_update_the_data_cache_at_commit() {
        let trace: Vec<_> = (0..1_000)
            .map(|i| TraceInstruction::store(0x8000 + (i % 16) * 4, 0x20_0000 + (i % 8) * 64, 3))
            .collect();
        let r = run(trace);
        assert_eq!(r.stores, 1_000);
        assert!(r.hierarchy.l1d.accesses >= 1_000);
    }

    #[test]
    fn calls_and_returns_use_the_ras() {
        let mut trace = Vec::new();
        for i in 0..500u64 {
            let call_pc = 0x9000 + i * 16;
            trace.push(TraceInstruction {
                pc: call_pc,
                op: OpClass::Branch,
                dest: None,
                srcs: [None, None],
                mem_addr: None,
                branch: Some(BranchInfo {
                    kind: BranchKind::Call,
                    taken: true,
                    target: 0xf000,
                }),
            });
            trace.push(TraceInstruction::alu(0xf000, OpClass::IntAlu));
            trace.push(TraceInstruction {
                pc: 0xf004,
                op: OpClass::Branch,
                dest: None,
                srcs: [None, None],
                mem_addr: None,
                branch: Some(BranchInfo {
                    kind: BranchKind::Return,
                    taken: true,
                    target: call_pc + 4,
                }),
            });
        }
        let r = run(trace);
        assert_eq!(r.instructions, 1_500);
        // Well-nested call/return pairs should be predicted almost perfectly.
        assert!(r.branch_mispredictions < 10);
    }

    #[test]
    #[should_panic(
        expected = "pipeline made no forward progress for 1M cycles (deadlock?) at cycle 1000000"
    )]
    fn a_machine_that_can_never_dispatch_trips_the_watchdog_at_its_bound() {
        // With no load/store-queue entries the first load can never dispatch,
        // so nothing ever commits. The idle cycles are skipped, yet the
        // watchdog still fires exactly 1M cycles after the last progress.
        let config = CpuConfig {
            lsq_entries: 0,
            ..CpuConfig::ispass2010()
        };
        let trace: Vec<_> = (0..100)
            .map(|i| TraceInstruction::load(0x1000 + i * 4, 0x10_0000 + i * 64, 2))
            .collect();
        let hierarchy = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        Pipeline::new(config, hierarchy).run(&mut trace.into_iter(), None);
    }

    #[test]
    fn rob_and_fetch_queue_entries_fit_in_a_cache_line() {
        assert_eq!(std::mem::size_of::<RobEntry>(), 64);
        assert!(std::mem::size_of::<FetchedInstr>() <= 64);
    }

    #[test]
    fn dependent_misses_lap_a_small_completion_wheel() {
        // With an 8-cycle memory every miss takes 3 + 20 + 8 = 31 cycles, one
        // short of the 32-bucket wheel: each load of the chase completes in the
        // bucket just behind the one it issued in, so the idle skip to it scans
        // across the ring's wrap, and 200 of them lap the wheel ~190 times.
        let config = HierarchyConfig {
            memory_latency: 8,
            ..HierarchyConfig::ispass2010_baseline_high_voltage()
        };
        let chase = |loads: u64| {
            let trace: Vec<_> = (0..loads)
                .map(|i| {
                    TraceInstruction::load(0x1000 + (i % 16) * 4, 0x100_0000 + i * 4096, 2)
                        .with_srcs(Some(2), None)
                })
                .collect();
            let mut pipeline = Pipeline::new(CpuConfig::ispass2010(), CacheHierarchy::new(config));
            assert_eq!(pipeline.hierarchy().max_data_latency(), 31);
            let r = pipeline.run(&mut trace.into_iter(), None);
            assert_eq!(r.instructions, loads);
            let data_misses = r.hierarchy.memory_accesses - r.hierarchy.l1i.misses;
            assert_eq!(data_misses, loads, "every load misses to memory");
            r.cycles
        };
        // Each further load issues the cycle its producer completes and adds
        // exactly one miss latency: no completion is early, late or lost.
        assert_eq!(chase(400) - chase(200), 200 * 31);
    }

    #[test]
    fn drain_cycles_cover_rob_front_end_and_one_memory_round_trip() {
        let p = baseline_pipeline();
        // front_end_depth (10) + rob/commit (128/4 = 32) + L2 (20) + memory (255).
        assert_eq!(p.drain_cycles(), 10 + 32 + 20 + 255);
        // At low voltage memory is closer in cycles, so the drain bound shrinks.
        let low = Pipeline::new(
            CpuConfig::ispass2010(),
            CacheHierarchy::new(HierarchyConfig::ispass2010(
                DisablingScheme::Baseline,
                VoltageMode::Low,
            )),
        );
        assert!(low.drain_cycles() < p.drain_cycles());
    }

    #[test]
    fn word_disabled_hierarchy_is_slower_for_l1_resident_loads() {
        // A load-heavy loop whose working set fits in the L1: the extra cycle of
        // word-disabling shows up directly in the load-use latency.
        let make_trace = || -> Vec<TraceInstruction> {
            (0..20_000)
                .map(|i| {
                    TraceInstruction::load(0x5000 + (i % 16) * 4, 0x40_0000 + (i % 128) * 64, 2)
                        .with_srcs(Some(2), None)
                })
                .collect()
        };
        let baseline = run(make_trace());
        let mut word_pipeline = Pipeline::new(
            CpuConfig::ispass2010(),
            CacheHierarchy::new(HierarchyConfig::ispass2010(
                DisablingScheme::WordDisabling,
                VoltageMode::High,
            )),
        );
        let word = word_pipeline.run(&mut make_trace().into_iter(), None);
        assert!(
            word.ipc() < baseline.ipc(),
            "word-disabling's extra L1 cycle must cost performance: {} vs {}",
            word.ipc(),
            baseline.ipc()
        );
    }
}
