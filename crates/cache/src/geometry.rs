//! Cache geometry: size, associativity and derived set count.

use dcl1_common::{ConfigError, LineAddr};

/// How line addresses map to sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetIndexing {
    /// Plain modulo (low line bits). Strided address patterns conflict.
    Modulo,
    /// Hashed (bit-mixed) indexing, as real GPU caches use to spread
    /// power-of-two strides across sets. With hashing, pathological
    /// workload strides camp only on *home/slice* interleaving — the
    /// paper's partition camping — rather than on cache sets.
    Hashed,
}

/// The physical shape of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    size_bytes: usize,
    assoc: usize,
    line_size: usize,
    sets: usize,
    indexing: SetIndexing,
}

impl CacheGeometry {
    /// Creates a geometry from total size, associativity and line size.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is zero or the size is not
    /// an exact multiple of `assoc * line_size`. Set counts need not be a
    /// power of two: indexing falls back to modulo for the odd geometries
    /// the aggregation studies produce (e.g. one 1.28 MB 4-way cache).
    ///
    /// # Examples
    ///
    /// ```
    /// use dcl1_cache::CacheGeometry;
    /// let g = CacheGeometry::new(16 * 1024, 4, 128)?;
    /// assert_eq!(g.sets(), 32);
    /// # Ok::<(), dcl1_common::ConfigError>(())
    /// ```
    pub fn new(size_bytes: usize, assoc: usize, line_size: usize) -> Result<Self, ConfigError> {
        if size_bytes == 0 || assoc == 0 || line_size == 0 {
            return Err(ConfigError::new("cache size, associativity and line size must be nonzero"));
        }
        let way_bytes = assoc * line_size;
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(ConfigError::new(format!(
                "cache size {size_bytes} is not a multiple of assoc*line ({way_bytes})"
            )));
        }
        let sets = size_bytes / way_bytes;
        Ok(CacheGeometry { size_bytes, assoc, line_size, sets, indexing: SetIndexing::Modulo })
    }

    /// Returns this geometry with the given set-indexing function.
    pub fn with_indexing(mut self, indexing: SetIndexing) -> Self {
        self.indexing = indexing;
        self
    }

    /// The active set-indexing function.
    pub fn indexing(&self) -> SetIndexing {
        self.indexing
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of lines the cache can hold.
    pub fn lines(&self) -> usize {
        self.sets * self.assoc
    }

    /// Returns the set index for a line address.
    #[inline]
    // Set index is masked/reduced mod `sets` (< usize) either way.
    #[expect(clippy::cast_possible_truncation)]
    pub fn set_of(&self, line: LineAddr) -> usize {
        let v = match self.indexing {
            SetIndexing::Modulo => line.raw(),
            SetIndexing::Hashed => mix(line.raw()),
        };
        if self.sets.is_power_of_two() {
            (v as usize) & (self.sets - 1)
        } else {
            (v % self.sets as u64) as usize
        }
    }

    /// Returns the tag for a line address.
    ///
    /// Hashed indexing stores the full line number as the tag (the set
    /// index is not recoverable from a hash), trading a few tag bits for
    /// conflict resistance, as hashed-index hardware does.
    #[inline]
    pub(crate) fn tag_of(&self, line: LineAddr) -> u64 {
        match self.indexing {
            SetIndexing::Modulo => line.raw() / self.sets as u64,
            SetIndexing::Hashed => line.raw(),
        }
    }

    /// Reconstructs a line address from its tag and set index.
    #[inline]
    pub(crate) fn line_of(&self, tag: u64, set: usize) -> LineAddr {
        match self.indexing {
            SetIndexing::Modulo => LineAddr::new(tag * self.sets as u64 + set as u64),
            SetIndexing::Hashed => LineAddr::new(tag),
        }
    }

    /// Returns a geometry with `factor`× the capacity at the same
    /// associativity and line size (used when aggregating DC-L1s and for the
    /// paper's 16×-capacity motivation study).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] if the scaled size is invalid.
    pub fn scaled(&self, factor: usize) -> Result<Self, ConfigError> {
        CacheGeometry::new(self.size_bytes * factor, self.assoc, self.line_size)
    }
}

/// SplitMix-style bit mixer for hashed set indexing.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_sets_tags() {
        let g = CacheGeometry::new(16 * 1024, 4, 128).unwrap();
        assert_eq!(g.sets(), 32);
        assert_eq!(g.lines(), 128);
        let line = LineAddr::new(0b1011_00101);
        assert_eq!(g.set_of(line), 0b00101);
        assert_eq!(g.tag_of(line), 0b1011);
    }

    #[test]
    fn rejects_zero_params() {
        assert!(CacheGeometry::new(0, 4, 128).is_err());
        assert!(CacheGeometry::new(1024, 0, 128).is_err());
        assert!(CacheGeometry::new(1024, 4, 0).is_err());
    }

    #[test]
    fn rejects_non_multiple_size() {
        assert!(CacheGeometry::new(1000, 4, 128).is_err());
    }

    #[test]
    fn non_power_of_two_sets_index_by_modulo() {
        // 3 sets of 4 ways x 128 B.
        let g = CacheGeometry::new(3 * 4 * 128, 4, 128).unwrap();
        assert_eq!(g.sets(), 3);
        for i in 0..30u64 {
            let l = LineAddr::new(i);
            assert_eq!(g.set_of(l), (i % 3) as usize);
            assert_eq!(g.line_of(g.tag_of(l), g.set_of(l)), l, "round trip {i}");
        }
    }

    #[test]
    fn scaled_multiplies_capacity() {
        let g = CacheGeometry::new(16 * 1024, 4, 128).unwrap();
        let big = g.scaled(16).unwrap();
        assert_eq!(big.size_bytes(), 256 * 1024);
        assert_eq!(big.assoc(), 4);
        assert_eq!(big.sets(), 512);
    }

    #[test]
    fn hashed_indexing_round_trips_and_spreads_strides() {
        let g = CacheGeometry::new(16 * 1024, 4, 128)
            .unwrap()
            .with_indexing(SetIndexing::Hashed);
        // Round trip.
        for i in 0..100u64 {
            let l = LineAddr::new(i * 320 + 7);
            assert_eq!(g.line_of(g.tag_of(l), g.set_of(l)), l);
        }
        // A stride-320 pattern (multiple of the 32-set modulus) lands in
        // one set under modulo indexing but spreads under hashing.
        let modulo = CacheGeometry::new(16 * 1024, 4, 128).unwrap();
        let mod_sets: std::collections::BTreeSet<usize> =
            (0..64u64).map(|i| modulo.set_of(LineAddr::new(i * 320 + 7))).collect();
        assert_eq!(mod_sets.len(), 1, "stride 320 camps one modulo set");
        let hash_sets: std::collections::BTreeSet<usize> =
            (0..64u64).map(|i| g.set_of(LineAddr::new(i * 320 + 7))).collect();
        assert!(hash_sets.len() > 16, "hashing must spread sets, got {}", hash_sets.len());
    }

    #[test]
    fn distinct_lines_same_set_have_distinct_tags() {
        let g = CacheGeometry::new(16 * 1024, 4, 128).unwrap();
        let a = LineAddr::new(5);
        let b = LineAddr::new(5 + g.sets() as u64);
        assert_eq!(g.set_of(a), g.set_of(b));
        assert_ne!(g.tag_of(a), g.tag_of(b));
    }
}
