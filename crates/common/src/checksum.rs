//! Content checksums for crash-safe persistence.
//!
//! Cached simulation results and checkpoint-journal entries survive process
//! kills, disk-full truncation, and concurrent writers only if a reader can
//! tell a complete payload from a torn one. This module provides the 64-bit
//! FNV-1a digest those readers verify: not cryptographic, but stable across
//! processes and Rust releases (unlike `DefaultHasher`), cheap, and
//! sensitive to truncation, bit flips, and reordering.

/// 64-bit FNV-1a offset basis: the digest of the empty input, and the
/// state a chunked digest starts from.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV-1a digest of `bytes`.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_from(FNV64_OFFSET, bytes)
}

/// Continues a 64-bit FNV-1a digest from `state` over `bytes`, so that
/// `fnv64_from(fnv64(a), b) == fnv64(a ++ b)`.
#[must_use]
pub fn fnv64_from(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(PRIME);
    }
    state
}

/// A fixed byte block whose FNV-1a continuation costs one multiply-add
/// once memoised, for digests that hash the same block many times.
///
/// A step `h' = (h ^ c)·P` XORs only the low byte, and a multiple of 256
/// stays one under `·P`, so the part of `h` above its low byte rides
/// through a block `C` of length `m` linearly:
/// `fnv(h, C) = h·P^m + K[h & 0xff] (mod 2^64)` with
/// `K[l] = fnv(l, C) - l·P^m`. `K` is filled one plain pass per first-seen
/// low byte, and only after [`FnvBlock::memoise`] allocated it.
#[derive(Debug, Clone)]
pub struct FnvBlock<B> {
    block: B,
    /// `P^m`.
    pow: u64,
    /// `K`, an entry filled the first time its low byte arrives.
    memo: Option<Box<[Option<u64>; 256]>>,
}

impl<B: AsRef<[u8]>> FnvBlock<B> {
    /// Wraps `block`; allocates nothing.
    #[must_use]
    pub fn new(block: B) -> FnvBlock<B> {
        let pow = block.as_ref().iter().fold(1u64, |p, _| p.wrapping_mul(PRIME));
        FnvBlock { block, pow, memo: None }
    }

    /// The wrapped block.
    #[must_use]
    pub fn block(&self) -> &B {
        &self.block
    }

    /// Allocates the 4 KiB `K` table; until then [`FnvBlock::apply`] is
    /// the plain byte loop and the block costs nothing beyond its bytes.
    pub fn memoise(&mut self) {
        self.memo.get_or_insert_with(|| Box::new([None; 256]));
    }

    /// Whether [`FnvBlock::memoise`] has run.
    #[must_use]
    pub fn is_memoised(&self) -> bool {
        self.memo.is_some()
    }

    /// Exactly [`fnv64_from`]`(h, block)`.
    #[must_use]
    pub fn apply(&mut self, h: u64) -> u64 {
        let (block, pow) = (self.block.as_ref(), self.pow);
        let Some(k) = &mut self.memo else { return fnv64_from(h, block) };
        let low = h & 0xff;
        let k = k[low as usize]
            .get_or_insert_with(|| fnv64_from(low, block).wrapping_sub(low.wrapping_mul(pow)));
        h.wrapping_mul(pow).wrapping_add(*k)
    }
}

/// [`fnv64`] rendered as the fixed-width lowercase hex used in cache
/// entries and journal lines.
#[must_use]
pub fn fnv64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Verifies a payload against its recorded hex digest. Returns `false` on
/// a malformed digest string as well as a mismatch — a corrupt header is
/// just as disqualifying as corrupt content.
#[must_use]
pub fn verify_hex(bytes: &[u8], digest_hex: &str) -> bool {
    matches!(u64::from_str_radix(digest_hex, 16), Ok(d) if d == fnv64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn block_apply_equals_the_byte_loop_for_every_low_byte() {
        let mut rng = crate::rng::SplitMix64::new(0xdc11);
        for round in 0..64u64 {
            let len = if round == 0 { 0 } else { (rng.next_u64() % 2049) as usize };
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64().to_le_bytes()[0]).collect();
            let mut plain = FnvBlock::new(bytes.clone());
            let mut memoised = FnvBlock::new(bytes.clone());
            memoised.memoise();
            // Each low byte twice, under different high bits: the second
            // visit reads the table the first one filled.
            for i in 0..512u64 {
                let h = (rng.next_u64() & !0xff) | (i & 0xff);
                let want = fnv64_from(h, &bytes);
                assert_eq!(plain.apply(h), want, "plain, len {len}, h {h:016x}");
                assert_eq!(memoised.apply(h), want, "memoised, len {len}, h {h:016x}");
                if len == 0 {
                    assert_eq!(want, h, "the empty block is the identity");
                }
            }
            assert!(!plain.is_memoised(), "apply alone must not allocate the table");
        }
    }

    #[test]
    fn continuation_composes() {
        assert_eq!(fnv64_from(fnv64(b"foo"), b"bar"), fnv64(b"foobar"));
    }

    #[test]
    fn hex_roundtrip_verifies() {
        let payload = b"cycles 123\ninstructions 456\n";
        let digest = fnv64_hex(payload);
        assert_eq!(digest.len(), 16);
        assert!(verify_hex(payload, &digest));
    }

    #[test]
    fn corruption_is_detected() {
        let payload = b"cycles 123\n";
        let digest = fnv64_hex(payload);
        assert!(!verify_hex(b"cycles 124\n", &digest), "bit flip");
        assert!(!verify_hex(&payload[..5], &digest), "truncation");
        assert!(!verify_hex(payload, "not-hex"), "malformed digest");
        assert!(!verify_hex(payload, ""), "empty digest");
    }
}
