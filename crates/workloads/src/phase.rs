//! Workload phases: coarse-grained program behavior changes over time.
//!
//! Real programs alternate between *compute-bound* stretches (tight loops over
//! cache-resident data, high ILP) and *memory-bound* stretches (pointer chasing
//! and streaming over working sets far larger than the L1). A runtime
//! voltage-mode governor exploits exactly this structure: during memory-bound
//! phases the core mostly waits on the memory system, so dropping below Vcc-min
//! (lower frequency, reduced cache capacity) costs little performance while the
//! cubic power reduction still applies in full.
//!
//! A [`PhaseSchedule`] is a deterministic, cyclic sequence of
//! [`PhaseSegment`]s measured in instructions. The
//! [`TraceGenerator`](crate::TraceGenerator) can be built with a schedule
//! ([`TraceGenerator::with_phases`](crate::TraceGenerator::with_phases)); the
//! generator then *annotates* its stream — every emitted instruction belongs to
//! the phase active at its index — and *modulates* the memory-locality knobs of
//! the profile during [`WorkloadPhase::MemoryBound`] segments. The
//! [`WorkloadPhase::ComputeBound`] phase applies the profile verbatim, so a
//! schedule consisting only of compute segments reproduces the un-phased stream
//! bit for bit (see the crate tests).

/// The coarse behavior class of a stretch of execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadPhase {
    /// Cache-resident, ILP-rich execution: the profile's locality parameters
    /// apply unmodified.
    ComputeBound,
    /// Streaming / pointer-chasing execution: hot-region reuse drops and
    /// streaming dominates, so the core spends most of its time waiting on the
    /// L2 and memory.
    MemoryBound,
}

/// One segment of a [`PhaseSchedule`]: a phase held for a number of
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSegment {
    /// The phase active during this segment.
    pub phase: WorkloadPhase,
    /// Segment length in instructions (must be non-zero).
    pub instructions: u64,
}

/// A deterministic, cyclic phase schedule: the segments repeat forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSchedule {
    segments: Vec<PhaseSegment>,
    period: u64,
}

impl PhaseSchedule {
    /// Builds a schedule from its segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or any segment has zero length.
    #[must_use]
    pub fn new(segments: Vec<PhaseSegment>) -> Self {
        assert!(!segments.is_empty(), "a phase schedule needs segments");
        assert!(
            segments.iter().all(|s| s.instructions > 0),
            "phase segments must be non-empty"
        );
        let period = segments.iter().map(|s| s.instructions).sum();
        Self { segments, period }
    }

    /// A single-phase schedule: the given phase, forever.
    #[must_use]
    pub fn pinned(phase: WorkloadPhase) -> Self {
        Self::new(vec![PhaseSegment {
            phase,
            instructions: u64::MAX / 2,
        }])
    }

    /// A square-wave schedule alternating compute- and memory-bound segments.
    ///
    /// # Panics
    ///
    /// Panics if either length is zero.
    #[must_use]
    pub fn alternating(compute_instructions: u64, memory_instructions: u64) -> Self {
        Self::new(vec![
            PhaseSegment {
                phase: WorkloadPhase::ComputeBound,
                instructions: compute_instructions,
            },
            PhaseSegment {
                phase: WorkloadPhase::MemoryBound,
                instructions: memory_instructions,
            },
        ])
    }

    /// The segments of one period.
    #[must_use]
    pub fn segments(&self) -> &[PhaseSegment] {
        &self.segments
    }

    /// Instructions in one full period of the schedule.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The phase active at the given instruction index (cyclic).
    #[must_use]
    pub fn phase_at(&self, instruction_index: u64) -> WorkloadPhase {
        let mut offset = instruction_index % self.period;
        for segment in &self.segments {
            if offset < segment.instructions {
                return segment.phase;
            }
            offset -= segment.instructions;
        }
        unreachable!("offset is reduced modulo the period")
    }

    /// Fraction of a period spent memory bound.
    #[must_use]
    pub fn memory_bound_fraction(&self) -> f64 {
        let memory: u64 = self
            .segments
            .iter()
            .filter(|s| s.phase == WorkloadPhase::MemoryBound)
            .map(|s| s.instructions)
            .sum();
        memory as f64 / self.period as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_at_walks_the_segments_cyclically() {
        let s = PhaseSchedule::alternating(100, 50);
        assert_eq!(s.period(), 150);
        assert_eq!(s.phase_at(0), WorkloadPhase::ComputeBound);
        assert_eq!(s.phase_at(99), WorkloadPhase::ComputeBound);
        assert_eq!(s.phase_at(100), WorkloadPhase::MemoryBound);
        assert_eq!(s.phase_at(149), WorkloadPhase::MemoryBound);
        assert_eq!(s.phase_at(150), WorkloadPhase::ComputeBound);
        assert_eq!(s.phase_at(150 * 7 + 120), WorkloadPhase::MemoryBound);
    }

    #[test]
    fn pinned_schedule_never_changes_phase() {
        let s = PhaseSchedule::pinned(WorkloadPhase::MemoryBound);
        for i in [0, 1, 1_000_000, u64::MAX / 4] {
            assert_eq!(s.phase_at(i), WorkloadPhase::MemoryBound);
        }
        assert!((s.memory_bound_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_fraction_matches_the_segment_lengths() {
        let s = PhaseSchedule::alternating(300, 100);
        assert!((s.memory_bound_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_segments_are_rejected() {
        let _ = PhaseSchedule::new(vec![PhaseSegment {
            phase: WorkloadPhase::ComputeBound,
            instructions: 0,
        }]);
    }

    #[test]
    #[should_panic(expected = "needs segments")]
    fn empty_schedules_are_rejected() {
        let _ = PhaseSchedule::new(Vec::new());
    }
}
