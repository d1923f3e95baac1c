//! Benchmark profile: the knobs of a synthetic workload.

/// Which half of SPEC CPU2000 a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECint 2000.
    Int,
    /// SPECfp 2000.
    Fp,
}

/// Parameters of a synthetic benchmark trace.
///
/// Fractions are of all instructions and must sum to at most 1; the remainder are
/// plain integer ALU operations.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (SPEC CPU2000 program the profile imitates).
    pub name: &'static str,
    /// Integer or floating-point suite.
    pub suite: Suite,
    /// Fraction of loads.
    pub load_fraction: f64,
    /// Fraction of stores.
    pub store_fraction: f64,
    /// Fraction of conditional branches.
    pub branch_fraction: f64,
    /// Fraction of integer multiplies.
    pub int_mul_fraction: f64,
    /// Fraction of floating-point ALU operations.
    pub fp_alu_fraction: f64,
    /// Fraction of floating-point multiplies.
    pub fp_mul_fraction: f64,
    /// Bytes of the *hot* data region (stack/globals with strong temporal locality).
    pub hot_data_bytes: u64,
    /// Bytes of the full data working set.
    pub data_working_set_bytes: u64,
    /// Probability that a memory access goes to the hot region.
    pub hot_access_probability: f64,
    /// Probability that a non-hot access is sequential/strided (otherwise uniform
    /// random over the working set).
    pub streaming_probability: f64,
    /// Bytes of code the benchmark loops over (the instruction working set).
    pub code_bytes: u64,
    /// Fraction of conditional branches whose direction is essentially random
    /// (unpredictable); the rest follow a strongly biased pattern.
    pub branch_randomness: f64,
    /// Probability that an instruction's source registers name a recently produced
    /// value (higher = denser dependence chains = lower ILP).
    pub dependence_density: f64,
}

impl BenchmarkProfile {
    /// Fraction of plain integer ALU instructions (whatever is left over).
    #[must_use]
    pub fn int_alu_fraction(&self) -> f64 {
        1.0 - self.load_fraction
            - self.store_fraction
            - self.branch_fraction
            - self.int_mul_fraction
            - self.fp_alu_fraction
            - self.fp_mul_fraction
    }

    /// Validates that the fractions form a sensible distribution.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let fractions = [
            ("load", self.load_fraction),
            ("store", self.store_fraction),
            ("branch", self.branch_fraction),
            ("int_mul", self.int_mul_fraction),
            ("fp_alu", self.fp_alu_fraction),
            ("fp_mul", self.fp_mul_fraction),
            ("hot_access", self.hot_access_probability),
            ("streaming", self.streaming_probability),
            ("branch_randomness", self.branch_randomness),
            ("dependence_density", self.dependence_density),
        ];
        for (name, f) in fractions {
            if !(0.0..=1.0).contains(&f) || !f.is_finite() {
                return Err(format!("{name} fraction {f} is not in [0, 1]"));
            }
        }
        if self.int_alu_fraction() < -1e-9 {
            return Err(format!(
                "instruction-mix fractions of {} sum to more than 1",
                self.name
            ));
        }
        if self.hot_data_bytes == 0 || self.data_working_set_bytes < self.hot_data_bytes {
            return Err("data working set must contain the hot region".into());
        }
        if self.code_bytes < 256 {
            return Err("code footprint must be at least 256 bytes".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchmarkProfile {
        BenchmarkProfile {
            name: "sample",
            suite: Suite::Int,
            load_fraction: 0.25,
            store_fraction: 0.1,
            branch_fraction: 0.15,
            int_mul_fraction: 0.02,
            fp_alu_fraction: 0.0,
            fp_mul_fraction: 0.0,
            hot_data_bytes: 4 * 1024,
            data_working_set_bytes: 64 * 1024,
            hot_access_probability: 0.6,
            streaming_probability: 0.3,
            code_bytes: 16 * 1024,
            branch_randomness: 0.1,
            dependence_density: 0.4,
        }
    }

    #[test]
    fn int_alu_fraction_is_the_remainder() {
        let p = sample();
        assert!((p.int_alu_fraction() - 0.48).abs() < 1e-12);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn over_unity_mix_is_rejected() {
        let mut p = sample();
        p.load_fraction = 0.9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        let mut p = sample();
        p.branch_randomness = 1.5;
        assert!(p.validate().is_err());
        let mut p = sample();
        p.hot_access_probability = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn working_set_must_contain_hot_region() {
        let mut p = sample();
        p.data_working_set_bytes = 1024;
        assert!(p.validate().is_err());
        let mut p = sample();
        p.hot_data_bytes = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn tiny_code_footprint_is_rejected() {
        let mut p = sample();
        p.code_bytes = 64;
        assert!(p.validate().is_err());
    }
}
