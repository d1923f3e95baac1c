//! Simulation results.

use vccmin_cache::HierarchyStats;

/// Outcome of simulating a trace on the pipeline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Instructions committed.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Conditional branches committed.
    pub conditional_branches: u64,
    /// Branch mispredictions (conditional + return mispredictions).
    pub branch_mispredictions: u64,
    /// Cache-hierarchy counters at the end of the run.
    pub hierarchy: HierarchyStats,
}

impl SimResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Performance of this run normalized to a `baseline` run of the same trace
    /// (the y-axis of Figs. 8–12 of the paper): `IPC / IPC_baseline`.
    #[must_use]
    pub fn normalized_to(&self, baseline: &SimResult) -> f64 {
        if baseline.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / baseline.ipc()
        }
    }

    /// L1 data-cache miss rate of the run.
    #[must_use]
    pub fn l1d_miss_rate(&self) -> f64 {
        self.hierarchy.l1d.miss_rate()
    }

    /// Branch misprediction rate over conditional branches.
    #[must_use]
    pub fn branch_mispredict_rate(&self) -> f64 {
        if self.conditional_branches == 0 {
            0.0
        } else {
            self.branch_mispredictions as f64 / self.conditional_branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(instructions: u64, cycles: u64) -> SimResult {
        SimResult {
            instructions,
            cycles,
            loads: 0,
            stores: 0,
            conditional_branches: 0,
            branch_mispredictions: 0,
            hierarchy: HierarchyStats::default(),
        }
    }

    #[test]
    fn ipc_and_cpi_are_reciprocal() {
        let r = result(1000, 500);
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert!((r.cpi() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_or_instructions_do_not_divide_by_zero() {
        assert_eq!(result(0, 0).ipc(), 0.0);
        assert_eq!(result(0, 0).cpi(), 0.0);
        assert_eq!(result(10, 0).ipc(), 0.0);
        assert_eq!(result(0, 10).cpi(), 0.0);
    }

    #[test]
    fn normalization_compares_ipc() {
        let fast = result(1000, 500);
        let slow = result(1000, 1000);
        assert!((slow.normalized_to(&fast) - 0.5).abs() < 1e-12);
        assert!((fast.normalized_to(&slow) - 2.0).abs() < 1e-12);
        assert_eq!(fast.normalized_to(&result(0, 0)), 0.0);
    }
}
