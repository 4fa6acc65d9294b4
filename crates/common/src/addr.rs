//! Byte addresses, cache-line addresses and sector arithmetic.
//!
//! The simulated GPU uses 128-byte cache lines (paper Table II) and 32-byte
//! NoC flits, so a line decomposes into four 32-byte *sectors*.

use std::fmt;

/// Size of a cache line in bytes (paper Table II: 128 B).
pub const LINE_SIZE: usize = 128;
/// Size of a NoC flit / memory sector in bytes (paper Table II: 32 B).
pub const SECTOR_SIZE: usize = 32;

const LINE_SHIFT: u32 = LINE_SIZE.trailing_zeros();

/// A byte address in the simulated global address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte offset.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcl1_common::addr::Address;
    /// let a = Address::new(640);
    /// assert_eq!(a.raw(), 640);
    /// ```
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte offset.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Returns the sector index (0..4) of this address within its line.
    #[inline]
    // Truncation keeps the low bits, which fully determine the
    // power-of-two `% LINE_SIZE` below.
    #[expect(clippy::cast_possible_truncation)]
    pub const fn sector(self) -> usize {
        ((self.0 as usize) % LINE_SIZE) / SECTOR_SIZE
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line address: a byte address with the line-offset bits removed.
///
/// All caches, presence maps and NoC payloads in the simulator operate on
/// `LineAddr` rather than raw byte addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte in this line.
    #[inline]
    pub const fn base(self) -> Address {
        Address(self.0 << LINE_SHIFT)
    }

    /// Selects an interleaved *home* out of `n` targets using low line bits.
    ///
    /// This implements the paper's home-bit selection (Section V-A): the
    /// `⌈log2 n⌉` bits directly above the line offset choose which DC-L1
    /// (or L2 slice, at a coarser granularity) owns the line. For `n` that
    /// is not a power of two a modulo is used, which the paper's crossbar
    /// configurations never require but keeps this total.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcl1_common::addr::LineAddr;
    /// assert_eq!(LineAddr::new(5).interleave(4), 1);
    /// assert_eq!(LineAddr::new(8).interleave(4), 0);
    /// ```
    #[inline]
    // Result is reduced mod `n` (< usize); 64-bit hosts lose nothing.
    #[expect(clippy::cast_possible_truncation)]
    pub fn interleave(self, n: usize) -> usize {
        assert!(n > 0, "interleave target count must be nonzero");
        if n.is_power_of_two() {
            (self.0 as usize) & (n - 1)
        } else {
            (self.0 as usize) % n
        }
    }
}

impl From<Address> for LineAddr {
    fn from(a: Address) -> Self {
        a.line()
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test values are tiny
mod tests {
    use super::*;

    #[test]
    fn line_of_address_strips_offset() {
        let a = Address::new(3 * LINE_SIZE as u64 + 17);
        assert_eq!(a.line(), LineAddr::new(3));
        assert_eq!(a.line().base(), Address::new(3 * LINE_SIZE as u64));
    }

    #[test]
    fn sectors_cover_line() {
        for off in 0..LINE_SIZE as u64 {
            let s = Address::new(1000 * LINE_SIZE as u64 + off).sector();
            assert_eq!(s, off as usize / SECTOR_SIZE);
            assert!(s < LINE_SIZE / SECTOR_SIZE);
        }
    }

    #[test]
    fn interleave_power_of_two_uses_low_bits() {
        for i in 0..64u64 {
            assert_eq!(LineAddr::new(i).interleave(8), (i % 8) as usize);
        }
    }

    #[test]
    fn interleave_non_power_of_two_is_modulo() {
        for i in 0..100u64 {
            assert_eq!(LineAddr::new(i).interleave(10), (i % 10) as usize);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn interleave_zero_targets_panics() {
        LineAddr::new(1).interleave(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Address::new(255).to_string(), "0xff");
        assert_eq!(LineAddr::new(255).to_string(), "L0xff");
    }
}
