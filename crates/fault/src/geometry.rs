//! Physical cache organization.

use vccmin_analysis::ArrayGeometry;

/// Errors produced when constructing a [`CacheGeometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// A parameter was zero or not a power of two where one is required.
    Invalid(String),
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(msg) => write!(f, "invalid cache geometry: {msg}"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Organization of a set-associative cache: total size, block size, associativity
/// and per-block tag/metadata widths.
///
/// All sizes are powers of two, matching real cache indexing hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    block_bytes: u64,
    associativity: u64,
    tag_bits: u64,
    meta_bits: u64,
    word_bytes: u64,
}

impl CacheGeometry {
    /// Creates a new cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::Invalid`] if any parameter is zero, the size is not
    /// divisible by `block_bytes * associativity`, or sizes are not powers of two.
    pub fn new(
        size_bytes: u64,
        block_bytes: u64,
        associativity: u64,
        tag_bits: u64,
    ) -> Result<Self, GeometryError> {
        if size_bytes == 0 || block_bytes == 0 || associativity == 0 {
            return Err(GeometryError::Invalid(
                "size, block size and associativity must be non-zero".into(),
            ));
        }
        if !size_bytes.is_power_of_two() || !block_bytes.is_power_of_two() {
            return Err(GeometryError::Invalid(
                "cache size and block size must be powers of two".into(),
            ));
        }
        if !size_bytes.is_multiple_of(block_bytes * associativity) {
            return Err(GeometryError::Invalid(format!(
                "size {size_bytes} not divisible by block_bytes*associativity ({})",
                block_bytes * associativity
            )));
        }
        Ok(Self {
            size_bytes,
            block_bytes,
            associativity,
            tag_bits,
            meta_bits: 1,
            word_bytes: 4,
        })
    }

    /// The paper's L1 instruction/data cache: 32 KB, 8-way, 64 B blocks, 24-bit tag.
    #[must_use]
    pub fn ispass2010_l1() -> Self {
        // simlint::allow(panic-path, "fixed paper constant; validated by unit tests")
        Self::new(32 * 1024, 64, 8, 24).expect("paper L1 geometry is valid")
    }

    /// The paper's word-disabled low-voltage L1: 16 KB, 4-way, 64 B blocks.
    #[must_use]
    pub fn ispass2010_l1_word_disabled() -> Self {
        // simlint::allow(panic-path, "fixed paper constant; validated by unit tests")
        Self::new(16 * 1024, 64, 4, 24).expect("halved L1 geometry is valid")
    }

    /// The paper's unified L2: 2 MB, 8-way, 64 B blocks.
    #[must_use]
    pub fn ispass2010_l2() -> Self {
        // simlint::allow(panic-path, "fixed paper constant; validated by unit tests")
        Self::new(2 * 1024 * 1024, 64, 8, 18).expect("paper L2 geometry is valid")
    }

    /// The paper's 16-entry fully-associative victim cache with 64 B blocks.
    #[must_use]
    pub fn ispass2010_victim_cache() -> Self {
        // simlint::allow(panic-path, "fixed paper constant; validated by unit tests")
        Self::new(16 * 64, 64, 16, 30).expect("victim cache geometry is valid")
    }

    /// Total data capacity in bytes.
    #[inline]
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Block (line) size in bytes.
    #[inline]
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Number of ways per set.
    #[inline]
    #[must_use]
    pub fn associativity(&self) -> u64 {
        self.associativity
    }

    /// Tag width in bits.
    #[inline]
    #[must_use]
    pub fn tag_bits(&self) -> u64 {
        self.tag_bits
    }

    /// Per-block metadata bits protected along with the block (valid bit).
    #[inline]
    #[must_use]
    pub fn meta_bits(&self) -> u64 {
        self.meta_bits
    }

    /// Machine word size in bytes (4 in the paper: 32-bit words).
    #[inline]
    #[must_use]
    pub fn word_bytes(&self) -> u64 {
        self.word_bytes
    }

    /// Number of sets.
    #[inline]
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.block_bytes * self.associativity)
    }

    /// Total number of blocks.
    #[inline]
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }

    /// Number of words per block.
    #[inline]
    #[must_use]
    pub fn words_per_block(&self) -> u64 {
        self.block_bytes / self.word_bytes
    }

    /// Number of block-offset bits.
    #[inline]
    #[must_use]
    pub fn offset_bits(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// Number of set-index bits.
    #[inline]
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.sets().trailing_zeros()
    }

    /// Set index for a byte address.
    #[inline]
    #[must_use]
    pub fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.offset_bits()) & (self.sets() - 1)
    }

    /// Tag value for a byte address.
    #[inline]
    #[must_use]
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.offset_bits() + self.index_bits())
    }

    /// Block-aligned address reconstructed from a tag and set index.
    #[inline]
    #[must_use]
    pub fn block_address(&self, tag: u64, set: u64) -> u64 {
        (tag << (self.offset_bits() + self.index_bits())) | (set << self.offset_bits())
    }

    /// The per-block cell-count view of this cache used by the probability analysis.
    #[must_use]
    pub fn to_array_geometry(&self) -> ArrayGeometry {
        ArrayGeometry::new(
            self.blocks(),
            self.block_bytes * 8,
            self.tag_bits,
            self.meta_bits,
        )
        // simlint::allow(panic-path, "CacheGeometry::new validated the same invariants ArrayGeometry::new checks")
        .expect("a valid CacheGeometry always maps to a valid ArrayGeometry")
    }

    /// A copy with half the size and half the associativity, i.e. the shape a
    /// word-disabled cache presents at low voltage.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::Invalid`] if the associativity is 1 (cannot be halved).
    pub fn halved(&self) -> Result<Self, GeometryError> {
        if self.associativity < 2 {
            return Err(GeometryError::Invalid(
                "cannot halve a direct-mapped cache".into(),
            ));
        }
        Self::new(
            self.size_bytes / 2,
            self.block_bytes,
            self.associativity / 2,
            self.tag_bits,
        )
    }
}

impl std::fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} KB, {}-way, {} B/block ({} sets)",
            self.size_bytes / 1024,
            self.associativity,
            self.block_bytes,
            self.sets()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_has_64_sets_and_512_blocks() {
        let g = CacheGeometry::ispass2010_l1();
        assert_eq!(g.sets(), 64);
        assert_eq!(g.blocks(), 512);
        assert_eq!(g.words_per_block(), 16);
        assert_eq!(g.offset_bits(), 6);
        assert_eq!(g.index_bits(), 6);
    }

    #[test]
    fn paper_l2_shape() {
        let g = CacheGeometry::ispass2010_l2();
        assert_eq!(g.sets(), 4096);
        assert_eq!(g.blocks(), 32 * 1024);
    }

    #[test]
    fn victim_cache_is_fully_associative() {
        let g = CacheGeometry::ispass2010_victim_cache();
        assert_eq!(g.sets(), 1);
        assert_eq!(g.blocks(), 16);
        assert_eq!(g.associativity(), 16);
    }

    #[test]
    fn address_decomposition_round_trips() {
        let g = CacheGeometry::ispass2010_l1();
        for addr in [0u64, 0x40, 0x1000, 0xdead_bee0, 0xffff_ffff_ffc0] {
            let block_addr = addr & !(g.block_bytes() - 1);
            let set = g.set_of(addr);
            let tag = g.tag_of(addr);
            assert!(set < g.sets());
            assert_eq!(g.block_address(tag, set), block_addr);
        }
    }

    #[test]
    fn distinct_blocks_map_to_distinct_tag_set_pairs() {
        let g = CacheGeometry::ispass2010_l1();
        let a = 0x0000_1000u64;
        let b = a + g.block_bytes();
        assert!(g.set_of(a) != g.set_of(b) || g.tag_of(a) != g.tag_of(b));
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        assert!(CacheGeometry::new(0, 64, 8, 24).is_err());
        assert!(CacheGeometry::new(32 * 1024, 0, 8, 24).is_err());
        assert!(CacheGeometry::new(32 * 1024, 64, 0, 24).is_err());
        assert!(CacheGeometry::new(32 * 1024 + 1, 64, 8, 24).is_err());
        assert!(CacheGeometry::new(48 * 1024, 96, 8, 24).is_err());
    }

    #[test]
    fn halved_matches_word_disable_low_voltage_shape() {
        let g = CacheGeometry::ispass2010_l1();
        let h = g.halved().unwrap();
        assert_eq!(h, CacheGeometry::ispass2010_l1_word_disabled());
        assert_eq!(h.sets(), g.sets());
        assert!(CacheGeometry::new(1024, 64, 1, 24).unwrap().halved().is_err());
    }

    #[test]
    fn array_geometry_matches_analysis_running_example() {
        let g = CacheGeometry::ispass2010_l1().to_array_geometry();
        assert_eq!(g.blocks(), 512);
        assert_eq!(g.cells_per_block(), 537);
    }

    #[test]
    fn display_summarizes_shape() {
        let s = CacheGeometry::ispass2010_l1().to_string();
        assert!(s.contains("32 KB"));
        assert!(s.contains("8-way"));
    }
}
