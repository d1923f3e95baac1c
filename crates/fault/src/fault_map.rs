//! Fault maps: which words and tags of a cache contain low-voltage faults.
//!
//! A fault map is the information a boot-time low-voltage memory test produces and
//! that the disabling hardware consumes: for every block, which of its words contain
//! at least one faulty cell, and whether its tag/metadata cells contain a fault.
//!
//! Fault maps are sampled assuming independent uniform cell faults with probability
//! `pfail`, the paper's fault model. Sampling happens at word/tag granularity with
//! the exact derived probabilities (`1 - (1 - pfail)^bits`), which is statistically
//! identical to cell-level sampling for every question the disabling schemes ask.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::geometry::CacheGeometry;
use crate::variation::DieVariation;

/// Fault status of one cache block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFaults {
    /// Bit `w` set means word `w` of the block contains at least one faulty cell.
    faulty_words: u64,
    /// Whether the tag or per-block metadata contains at least one faulty cell.
    tag_faulty: bool,
    /// Number of words in the block (for bounds checking and iteration).
    words: u8,
}

impl BlockFaults {
    /// Creates a fault record for a block with `words` words.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds 64 (the bitmask width).
    #[must_use]
    pub fn new(words: u8, faulty_words: u64, tag_faulty: bool) -> Self {
        assert!(words as usize <= 64, "at most 64 words per block supported");
        let mask = if words == 64 {
            u64::MAX
        } else {
            (1u64 << words) - 1
        };
        Self {
            faulty_words: faulty_words & mask,
            tag_faulty,
            words,
        }
    }

    /// A completely fault-free block.
    #[must_use]
    pub fn fault_free(words: u8) -> Self {
        Self::new(words, 0, false)
    }

    /// Whether word `w` of the block is faulty.
    #[must_use]
    pub fn word_is_faulty(&self, w: u8) -> bool {
        w < self.words && (self.faulty_words >> w) & 1 == 1
    }

    /// Whether the tag (or metadata) of the block is faulty.
    #[must_use]
    pub fn tag_is_faulty(&self) -> bool {
        self.tag_faulty
    }

    /// Number of faulty words in the block.
    #[must_use]
    pub fn faulty_word_count(&self) -> u32 {
        self.faulty_words.count_ones()
    }

    /// Number of faulty words within a subblock `[start, start + len)`.
    #[must_use]
    pub fn faulty_words_in_range(&self, start: u8, len: u8) -> u32 {
        let end = (start + len).min(self.words);
        (start..end).filter(|&w| self.word_is_faulty(w)).count() as u32
    }

    /// Whether the block contains any fault at all (data, tag or metadata) — the
    /// condition under which block-disabling turns the block off at low voltage.
    #[must_use]
    pub fn has_any_fault(&self) -> bool {
        self.tag_faulty || self.faulty_words != 0
    }

    /// Number of words tracked by this record.
    #[must_use]
    pub fn words(&self) -> u8 {
        self.words
    }

    /// Raw bitmask of faulty words.
    #[must_use]
    pub fn faulty_word_mask(&self) -> u64 {
        self.faulty_words
    }
}

/// Aggregate statistics of a fault map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMapStats {
    /// Total number of blocks in the cache.
    pub total_blocks: u64,
    /// Blocks containing at least one fault (data or tag).
    pub faulty_blocks: u64,
    /// Total number of faulty words across all blocks.
    pub faulty_words: u64,
    /// Blocks whose tag/metadata cells contain a fault.
    pub faulty_tags: u64,
}

/// A sampled fault map for one cache array.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    geometry: CacheGeometry,
    pfail: f64,
    seed: u64,
    blocks: Vec<BlockFaults>,
}

impl FaultMap {
    /// Samples a fault map for `geometry` with per-cell failure probability `pfail`,
    /// using `seed` for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `pfail` is not a finite value in `[0, 1]`.
    #[must_use]
    pub fn generate(geometry: &CacheGeometry, pfail: f64, seed: u64) -> Self {
        assert!(
            pfail.is_finite() && (0.0..=1.0).contains(&pfail),
            "pfail must be a probability, got {pfail}"
        );
        let blocks = sample_blocks(geometry, seed, |_, _| pfail);
        Self {
            geometry: *geometry,
            pfail,
            seed,
            blocks,
        }
    }

    /// Samples the fault map of a concrete die at a given supply voltage: each
    /// block's cells fail with the block's own probability
    /// [`DieVariation::cell_pfail_at`] (the calibrated `pfail(V)` bridge
    /// shifted by the block's systematic Vcc-min offset), sampled at word/tag
    /// granularity exactly like [`FaultMap::generate`].
    ///
    /// Two invariants make this the backbone of the yield studies:
    ///
    /// * **Voltage nesting** — for the same `die` and `seed`, the faults at a
    ///   lower voltage are a superset of the faults at any higher voltage
    ///   (each word/tag compares the *same* uniform draw against a threshold
    ///   that only grows as the supply drops), so a die's minimum operational
    ///   voltage is well defined and yield curves are monotone.
    /// * **i.i.d. degeneracy** — for a die with zero systematic variance this
    ///   is bit-for-bit identical to `FaultMap::generate(geom, pfail(V), seed)`:
    ///   same per-word probabilities, same RNG consumption order.
    ///
    /// The map's `pfail` metadata records the i.i.d.-bridge failure
    /// probability `pfail(voltage)` (the die-average including systematic
    /// offsets is available as [`DieVariation::mean_cell_pfail_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `voltage` is NaN.
    #[must_use]
    pub fn generate_at_voltage(die: &DieVariation, voltage: f64, seed: u64) -> Self {
        assert!(!voltage.is_nan(), "voltage must not be NaN");
        let geometry = *die.geometry();
        let blocks = sample_blocks(&geometry, seed, |set, way| {
            die.cell_pfail_at(set, way, voltage)
        });
        Self {
            geometry,
            pfail: die.model().pfail_voltage.pfail(voltage),
            seed,
            blocks,
        }
    }

    /// A fault map with no faults at all (what the cache sees at or above Vcc-min).
    #[must_use]
    pub fn fault_free(geometry: &CacheGeometry) -> Self {
        let words = geometry.words_per_block() as u8;
        Self {
            geometry: *geometry,
            pfail: 0.0,
            seed: 0,
            blocks: (0..geometry.blocks())
                .map(|_| BlockFaults::fault_free(words))
                .collect(),
        }
    }

    /// The cache geometry this fault map describes.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The per-cell failure probability the map was sampled at.
    #[must_use]
    pub fn pfail(&self) -> f64 {
        self.pfail
    }

    /// The RNG seed the map was sampled with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fault record of the block in `set`, `way`.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` are out of range.
    #[must_use]
    pub fn block(&self, set: u64, way: u64) -> &BlockFaults {
        assert!(set < self.geometry.sets(), "set {set} out of range");
        assert!(way < self.geometry.associativity(), "way {way} out of range");
        &self.blocks[(set * self.geometry.associativity() + way) as usize]
    }

    /// Iterates over all block fault records in (set-major, way-minor) order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = &BlockFaults> {
        self.blocks.iter()
    }

    /// Whether the block in `set`, `way` would be disabled by block-disabling
    /// (i.e. contains any data, tag or metadata fault).
    #[must_use]
    pub fn block_is_faulty(&self, set: u64, way: u64) -> bool {
        self.block(set, way).has_any_fault()
    }

    /// Number of fault-free ways in a set — the usable associativity of that set
    /// under block-disabling at low voltage.
    #[must_use]
    pub fn usable_ways_in_set(&self, set: u64) -> u64 {
        (0..self.geometry.associativity())
            .filter(|&w| !self.block_is_faulty(set, w))
            .count() as u64
    }

    /// Number of fault-free blocks in the whole cache.
    #[must_use]
    pub fn fault_free_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| !b.has_any_fault()).count() as u64
    }

    /// Fraction of fault-free blocks — the capacity retained under block-disabling.
    #[must_use]
    pub fn fault_free_block_fraction(&self) -> f64 {
        self.fault_free_blocks() as f64 / self.geometry.blocks() as f64
    }

    /// Whether a word-disabled cache built from this array is usable at low voltage:
    /// every subblock of `subblock_words` words must contain at most
    /// `subblock_words / 2` faulty words. (Tag cells don't count: word-disabling
    /// stores them in robust 10T cells.)
    #[must_use]
    pub fn word_disable_usable(&self, subblock_words: u8) -> bool {
        let budget = u32::from(subblock_words / 2);
        self.blocks.iter().all(|b| {
            (0..b.words())
                .step_by(subblock_words as usize)
                .all(|start| b.faulty_words_in_range(start, subblock_words) <= budget)
        })
    }

    /// The union of two fault maps: a block's word is faulty (and a tag is
    /// faulty) if it is faulty in *either* map. The result is a fault superset
    /// of both inputs, which is what the repair-scheme monotonicity properties
    /// quantify over ("more faults never increase capacity").
    ///
    /// The resulting map keeps `self`'s seed and the larger of the two `pfail`
    /// values as metadata.
    ///
    /// # Panics
    ///
    /// Panics if the two maps were generated for different geometries.
    #[must_use]
    pub fn union(&self, other: &FaultMap) -> FaultMap {
        assert_eq!(
            self.geometry, other.geometry,
            "fault maps must share a geometry to be merged"
        );
        let blocks = self
            .blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| {
                BlockFaults::new(
                    a.words(),
                    a.faulty_word_mask() | b.faulty_word_mask(),
                    a.tag_is_faulty() || b.tag_is_faulty(),
                )
            })
            .collect();
        FaultMap {
            geometry: self.geometry,
            pfail: self.pfail.max(other.pfail),
            seed: self.seed,
            blocks,
        }
    }

    /// Aggregate statistics of the map.
    #[must_use]
    pub fn stats(&self) -> FaultMapStats {
        FaultMapStats {
            total_blocks: self.geometry.blocks(),
            faulty_blocks: self.blocks.iter().filter(|b| b.has_any_fault()).count() as u64,
            faulty_words: self
                .blocks
                .iter()
                .map(|b| u64::from(b.faulty_word_count()))
                .sum(),
            faulty_tags: self.blocks.iter().filter(|b| b.tag_is_faulty()).count() as u64,
        }
    }
}

/// The one sampling loop behind both [`FaultMap::generate`] (constant
/// `p_cell`) and [`FaultMap::generate_at_voltage`] (per-block `p_cell`):
/// blocks in (set-major, way-minor) order, each drawing one uniform per word
/// then one for the tag. Sharing the loop makes the documented invariant —
/// zero-systematic voltage sampling is bit-identical to i.i.d. sampling at the
/// same probability — structural rather than merely test-enforced.
fn sample_blocks(
    geometry: &CacheGeometry,
    seed: u64,
    mut p_cell: impl FnMut(u64, u64) -> f64,
) -> Vec<BlockFaults> {
    let words_per_block = geometry.words_per_block() as u8;
    let word_bits = geometry.word_bytes() * 8;
    let tag_bits = geometry.tag_bits() + geometry.meta_bits();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut blocks = Vec::with_capacity(geometry.blocks() as usize);
    for set in 0..geometry.sets() {
        for way in 0..geometry.associativity() {
            let p = p_cell(set, way);
            let p_word = prob_any_fault(word_bits, p);
            let p_tag = prob_any_fault(tag_bits, p);
            let mut mask = 0u64;
            for w in 0..words_per_block {
                if rng.gen_bool(p_word) {
                    mask |= 1 << w;
                }
            }
            let tag_faulty = rng.gen_bool(p_tag);
            blocks.push(BlockFaults::new(words_per_block, mask, tag_faulty));
        }
    }
    blocks
}

/// Probability that a group of `bits` cells contains at least one fault.
fn prob_any_fault(bits: u64, pfail: f64) -> f64 {
    if pfail <= 0.0 {
        0.0
    } else if pfail >= 1.0 {
        1.0
    } else {
        -f64::exp_m1(bits as f64 * f64::ln_1p(-pfail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_analysis::block_faults;

    fn l1() -> CacheGeometry {
        CacheGeometry::ispass2010_l1()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = FaultMap::generate(&l1(), 0.001, 123);
        let b = FaultMap::generate(&l1(), 0.001, 123);
        let c = FaultMap::generate(&l1(), 0.001, 124);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fault_free_map_has_full_capacity() {
        let m = FaultMap::fault_free(&l1());
        assert_eq!(m.fault_free_blocks(), 512);
        assert_eq!(m.fault_free_block_fraction(), 1.0);
        assert!(m.word_disable_usable(8));
        let stats = m.stats();
        assert_eq!(stats.faulty_blocks, 0);
        assert_eq!(stats.faulty_words, 0);
        assert_eq!(stats.faulty_tags, 0);
    }

    #[test]
    fn zero_pfail_generates_no_faults() {
        let m = FaultMap::generate(&l1(), 0.0, 7);
        assert_eq!(m.stats().faulty_blocks, 0);
    }

    #[test]
    fn pfail_one_faults_every_block() {
        let m = FaultMap::generate(&l1(), 1.0, 7);
        assert_eq!(m.fault_free_blocks(), 0);
        assert!(!m.word_disable_usable(8));
        for set in 0..m.geometry().sets() {
            assert_eq!(m.usable_ways_in_set(set), 0);
        }
    }

    #[test]
    fn capacity_matches_analytical_mean_over_many_maps() {
        // Average the empirical capacity over several maps and compare against the
        // analytical mean capacity (1 - pfail)^k from the analysis crate.
        let geom = l1();
        let pfail = 0.001;
        let n = 40;
        let mean_cap: f64 = (0..n)
            .map(|s| FaultMap::generate(&geom, pfail, s).fault_free_block_fraction())
            .sum::<f64>()
            / f64::from(n as u32);
        let analytical = block_faults::mean_capacity(&geom.to_array_geometry(), pfail);
        assert!(
            (mean_cap - analytical).abs() < 0.03,
            "empirical {mean_cap} vs analytical {analytical}"
        );
    }

    #[test]
    fn usable_ways_sum_equals_fault_free_blocks() {
        let m = FaultMap::generate(&l1(), 0.002, 99);
        let sum: u64 = (0..m.geometry().sets()).map(|s| m.usable_ways_in_set(s)).sum();
        assert_eq!(sum, m.fault_free_blocks());
    }

    #[test]
    fn stats_are_internally_consistent() {
        let m = FaultMap::generate(&l1(), 0.003, 5);
        let stats = m.stats();
        assert_eq!(stats.total_blocks, 512);
        assert!(stats.faulty_blocks <= stats.total_blocks);
        // Every block with a faulty tag or faulty word counts as a faulty block.
        let recount = m
            .iter_blocks()
            .filter(|b| b.tag_is_faulty() || b.faulty_word_count() > 0)
            .count() as u64;
        assert_eq!(stats.faulty_blocks, recount);
    }

    #[test]
    fn word_disable_usability_depends_on_subblock_budget() {
        // Construct a map by hand: a block with 5 faulty words in the first subblock
        // makes the cache unusable for 8-word subblocks.
        let geom = l1();
        let mut m = FaultMap::fault_free(&geom);
        m.blocks[0] = BlockFaults::new(16, 0b0001_1111, false);
        assert!(!m.word_disable_usable(8));
        // 4 faulty words are within budget.
        m.blocks[0] = BlockFaults::new(16, 0b0000_1111, false);
        assert!(m.word_disable_usable(8));
        // Faulty tags do not matter for word-disable usability.
        m.blocks[1] = BlockFaults::new(16, 0, true);
        assert!(m.word_disable_usable(8));
    }

    #[test]
    fn block_faults_accessors() {
        let b = BlockFaults::new(16, 0b1010, true);
        assert!(b.word_is_faulty(1));
        assert!(!b.word_is_faulty(0));
        assert!(!b.word_is_faulty(63));
        assert_eq!(b.faulty_word_count(), 2);
        assert_eq!(b.faulty_words_in_range(0, 8), 2);
        assert_eq!(b.faulty_words_in_range(8, 8), 0);
        assert!(b.tag_is_faulty());
        assert!(b.has_any_fault());
        assert_eq!(b.words(), 16);
        assert_eq!(b.faulty_word_mask(), 0b1010);
        assert!(!BlockFaults::fault_free(16).has_any_fault());
    }

    #[test]
    fn union_is_a_superset_of_both_operands() {
        let a = FaultMap::generate(&l1(), 0.002, 1);
        let b = FaultMap::generate(&l1(), 0.002, 2);
        let u = a.union(&b);
        for set in 0..l1().sets() {
            for way in 0..l1().associativity() {
                let (ba, bb, bu) = (a.block(set, way), b.block(set, way), u.block(set, way));
                assert_eq!(
                    bu.faulty_word_mask(),
                    ba.faulty_word_mask() | bb.faulty_word_mask()
                );
                assert_eq!(bu.tag_is_faulty(), ba.tag_is_faulty() || bb.tag_is_faulty());
            }
        }
        assert!(u.fault_free_blocks() <= a.fault_free_blocks().min(b.fault_free_blocks()));
        // Union with itself (or a fault-free map) is the identity on the faults.
        assert_eq!(a.union(&a).stats(), a.stats());
        assert_eq!(a.union(&FaultMap::fault_free(&l1())).stats(), a.stats());
    }

    #[test]
    #[should_panic(expected = "share a geometry")]
    fn union_rejects_mismatched_geometries() {
        let a = FaultMap::generate(&l1(), 0.001, 1);
        let b = FaultMap::generate(&CacheGeometry::ispass2010_l2(), 0.001, 1);
        let _ = a.union(&b);
    }

    #[test]
    #[should_panic(expected = "pfail must be a probability")]
    fn invalid_pfail_panics() {
        let _ = FaultMap::generate(&l1(), 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_access_panics() {
        let m = FaultMap::fault_free(&l1());
        let _ = m.block(64, 0);
    }

    #[test]
    fn zero_systematic_variance_sampling_is_bit_identical_to_iid_generate() {
        use crate::variation::{DieVariation, VariationModel};
        use vccmin_analysis::yield_model::PfailVoltageModel;

        let bridge = PfailVoltageModel::ispass2010();
        let die = DieVariation::sample(&l1(), &VariationModel::iid(bridge), 1);
        for &(voltage, seed) in &[(0.50, 7u64), (0.55, 8), (0.47, 1234)] {
            let at_voltage = FaultMap::generate_at_voltage(&die, voltage, seed);
            let iid = FaultMap::generate(&l1(), bridge.pfail(voltage), seed);
            assert_eq!(
                at_voltage, iid,
                "zero-systematic sampling at V={voltage} must degenerate to i.i.d."
            );
        }
    }

    #[test]
    fn faults_are_nested_across_voltages_for_the_same_die_and_seed() {
        use crate::variation::{DieVariation, VariationModel};

        let die = DieVariation::sample(&l1(), &VariationModel::ispass2010(), 99);
        let voltages = [0.65, 0.60, 0.55, 0.50, 0.45];
        let maps: Vec<FaultMap> = voltages
            .iter()
            .map(|&v| FaultMap::generate_at_voltage(&die, v, 5))
            .collect();
        for pair in maps.windows(2) {
            let (higher, lower) = (&pair[0], &pair[1]);
            for set in 0..l1().sets() {
                for way in 0..l1().associativity() {
                    let h = higher.block(set, way);
                    let l = lower.block(set, way);
                    assert_eq!(
                        h.faulty_word_mask() & l.faulty_word_mask(),
                        h.faulty_word_mask(),
                        "a word faulty at a higher voltage must stay faulty below"
                    );
                    assert!(!h.tag_is_faulty() || l.tag_is_faulty());
                }
            }
            assert!(lower.stats().faulty_words >= higher.stats().faulty_words);
        }
    }

    #[test]
    fn systematic_offsets_skew_faults_toward_slow_blocks() {
        use crate::variation::{DieVariation, VariationModel};
        use vccmin_analysis::yield_model::PfailVoltageModel;

        // A strongly varying die: blocks with a positive systematic offset
        // (higher Vcc-min) must accumulate more word faults than blocks with a
        // negative one, aggregated over many sampling seeds.
        let model = VariationModel::new(PfailVoltageModel::ispass2010(), 0.05, 4);
        let die = DieVariation::sample(&l1(), &model, 4);
        let mut slow = (0.0f64, 0.0f64); // (faulty words, blocks) with offset > 0
        let mut fast = (0.0f64, 0.0f64); // with offset < 0
        for seed in 0..30 {
            let map = FaultMap::generate_at_voltage(&die, 0.5, seed);
            for set in 0..l1().sets() {
                for way in 0..l1().associativity() {
                    let faults = f64::from(map.block(set, way).faulty_word_count());
                    if die.systematic_offset(set, way) > 0.0 {
                        slow = (slow.0 + faults, slow.1 + 1.0);
                    } else {
                        fast = (fast.0 + faults, fast.1 + 1.0);
                    }
                }
            }
        }
        assert!(slow.1 > 0.0 && fast.1 > 0.0, "the die should have both kinds of blocks");
        assert!(
            slow.0 / slow.1 > fast.0 / fast.1,
            "slow blocks ({}) must fault more than fast blocks ({})",
            slow.0 / slow.1,
            fast.0 / fast.1
        );
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_voltage_is_rejected_by_generate_at_voltage() {
        use crate::variation::{DieVariation, VariationModel};
        let die = DieVariation::sample(&l1(), &VariationModel::ispass2010(), 0);
        let _ = FaultMap::generate_at_voltage(&die, f64::NAN, 0);
    }

    #[test]
    fn word_level_sampling_matches_word_fault_probability() {
        // The empirical fraction of faulty words should approach 1-(1-p)^32.
        let geom = l1();
        let pfail = 0.002;
        let total_words = geom.blocks() * geom.words_per_block();
        let mut faulty = 0u64;
        let n_maps = 20;
        for s in 0..n_maps {
            faulty += FaultMap::generate(&geom, pfail, s).stats().faulty_words;
        }
        let frac = faulty as f64 / (total_words * n_maps) as f64;
        let expected = 1.0 - (1.0 - pfail).powi(32);
        assert!(
            (frac - expected).abs() < 0.01,
            "empirical {frac} vs expected {expected}"
        );
    }
}
