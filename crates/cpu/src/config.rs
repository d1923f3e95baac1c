//! Processor configuration (Table II of the paper).

use crate::instruction::OpClass;

/// Structural parameters of the out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions fetched per cycle (4 in the paper).
    pub fetch_width: u32,
    /// Instructions decoded/dispatched per cycle (4).
    pub decode_width: u32,
    /// Instructions issued to functional units per cycle (6).
    pub issue_width: u32,
    /// Instructions committed per cycle (4).
    pub commit_width: u32,
    /// Reorder-buffer entries (128).
    pub rob_entries: usize,
    /// Integer issue-queue entries (40).
    pub int_iq_entries: usize,
    /// Floating-point issue-queue entries (20).
    pub fp_iq_entries: usize,
    /// Load/store-queue entries.
    pub lsq_entries: usize,
    /// Integer ALUs (4).
    pub int_alus: u32,
    /// Integer multiplier/dividers (4).
    pub int_muls: u32,
    /// Floating-point ALUs (1).
    pub fp_alus: u32,
    /// Floating-point multiplier/dividers (1).
    pub fp_muls: u32,
    /// Data-cache ports (loads/stores issued per cycle).
    pub mem_ports: u32,
    /// Cycles from fetch to dispatch (front-end depth); together with execution this
    /// yields the ~15-stage pipeline of the paper and sets the branch-misprediction
    /// refill penalty.
    pub front_end_depth: u32,
    /// Return-address-stack entries (16).
    pub ras_entries: usize,
    /// log2 of gshare pattern-history-table entries (15 bits of history → 32K
    /// two-bit counters ≈ 8 KB).
    pub gshare_history_bits: u32,
}

impl CpuConfig {
    /// The configuration of Table II of the paper (Alpha-21264-like core).
    #[must_use]
    pub fn ispass2010() -> Self {
        Self {
            fetch_width: 4,
            decode_width: 4,
            issue_width: 6,
            commit_width: 4,
            rob_entries: 128,
            int_iq_entries: 40,
            fp_iq_entries: 20,
            lsq_entries: 64,
            int_alus: 4,
            int_muls: 4,
            fp_alus: 1,
            fp_muls: 1,
            mem_ports: 2,
            front_end_depth: 10,
            ras_entries: 16,
            gshare_history_bits: 15,
        }
    }

    /// Execution latency of an operation class, excluding any memory latency.
    #[must_use]
    pub fn exec_latency(&self, op: OpClass) -> u32 {
        match op {
            OpClass::IntAlu | OpClass::Branch | OpClass::Store => 1,
            OpClass::Load => 1,
            OpClass::IntMul => 7,
            OpClass::FpAlu => 4,
            OpClass::FpMul => 4,
        }
    }

    /// Number of functional units able to execute the operation class.
    #[must_use]
    pub fn units_for(&self, op: OpClass) -> u32 {
        match op {
            OpClass::IntAlu | OpClass::Branch => self.int_alus,
            OpClass::IntMul => self.int_muls,
            OpClass::FpAlu => self.fp_alus,
            OpClass::FpMul => self.fp_muls,
            OpClass::Load | OpClass::Store => self.mem_ports,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::ispass2010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_table_two() {
        let c = CpuConfig::ispass2010();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.decode_width, 4);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.int_iq_entries, 40);
        assert_eq!(c.fp_iq_entries, 20);
        assert_eq!(c.int_alus, 4);
        assert_eq!(c.fp_alus, 1);
        assert_eq!(c.ras_entries, 16);
        assert_eq!(c.gshare_history_bits, 15);
    }

    #[test]
    fn latencies_and_units_are_sensible() {
        let c = CpuConfig::ispass2010();
        assert_eq!(c.exec_latency(OpClass::IntAlu), 1);
        assert!(c.exec_latency(OpClass::IntMul) > c.exec_latency(OpClass::IntAlu));
        assert_eq!(c.units_for(OpClass::IntAlu), 4);
        assert_eq!(c.units_for(OpClass::FpMul), 1);
        assert_eq!(c.units_for(OpClass::Load), c.mem_ports);
    }

    #[test]
    fn default_is_the_paper_configuration() {
        assert_eq!(CpuConfig::default(), CpuConfig::ispass2010());
    }
}
