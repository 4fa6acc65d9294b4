//! Deterministic open-addressed map over `u64` keys.
//!
//! The simulator's hot per-transaction paths (MSHR lookups, the
//! cross-cache presence map) and the result store's memory-tier index
//! need associative state that is both *flat* — index arithmetic instead
//! of pointer-chasing a tree — and *deterministic* — no `RandomState`, so
//! iteration and layout are a pure function of the operation sequence and
//! the on-disk result memo stays byte-stable (clippy.toml bans `HashMap`
//! and `HashSet`).
//!
//! [`FlatMap`] is a linear-probing open-addressed table keyed by a
//! deterministic FNV-seeded multiplicative mixer:
//!
//! * probes are O(1) expected at the ≤7/8 load factor the table maintains;
//! * removal uses backward-shift deletion, so there are no tombstones and
//!   lookups never degrade over time;
//! * the raw slot layout depends only on the keys present and the
//!   insertion history — byte-reproducible across processes and Rust
//!   releases. Where callers need *address-ordered* output (per-line
//!   reports), [`FlatMap::sorted_keys`] materializes the ≤len live keys
//!   and sorts them, preserving the ordered-iteration guarantee the old
//!   `BTreeMap` structures promised;
//! * a slot is a bare `(key, value)` pair: one key value, `u64::MAX`,
//!   marks an empty slot, and the map keeps that key's entry outside the
//!   table, so it still accepts every `u64`.
//!
//! # Examples
//!
//! ```
//! use dcl1_common::flat::FlatMap;
//!
//! let mut m: FlatMap<u32> = FlatMap::new();
//! m.insert(9, 1);
//! *m.get_mut(9).unwrap() += 1;
//! assert_eq!(m.get(9), Some(&2));
//! assert_eq!(m.remove(9), Some(2));
//! assert!(m.is_empty());
//! ```

/// Deterministic key mixer: the key is whitened with the 64-bit FNV-1a
/// offset basis, spread by a Fibonacci (golden-ratio) multiply, and
/// xor-folded so the power-of-two mask keeps well-diffused bits. Stable
/// across processes and Rust releases — layout is a pure function of the
/// operation history, never of a hasher seed.
///
/// Measured alternatives on the 112-point smoke sweep: the classic
/// byte-at-a-time FNV-1a chain is 8 *dependent* multiplies and cost ~10%
/// end-to-end sim throughput; a word-at-a-time FNV multiply (the sparse
/// FNV prime) clusters sequential line addresses into long probe chains
/// and cost ~6%. This mixer matched the pre-slab baseline.
#[inline]
fn mix_key(key: u64) -> u64 {
    const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = (key ^ crate::checksum::FNV64_OFFSET).wrapping_mul(FIB);
    h ^ (h >> 29)
}

/// Smallest power-of-two table length that holds `entries` below the 7/8
/// load-factor ceiling (minimum 8 slots, so probes always terminate).
fn table_len_for(entries: usize) -> usize {
    let needed = entries.saturating_mul(8) / 7 + 1;
    needed.next_power_of_two().max(8)
}

/// The key an empty table slot holds. The map still accepts it: its entry
/// lives outside the table, in [`FlatMap::reserved`].
const EMPTY: u64 = u64::MAX;

/// A deterministic open-addressed hash map from `u64` keys to `V`.
///
/// A slot is a bare `(key, value)` pair, with no `Option` around it: an
/// empty slot holds [`EMPTY`] and `V::default()`. So a `FlatMap<u32>` or a
/// `FlatMap<usize>` costs 16 bytes a slot.
///
/// See the [module docs](self) for the design constraints it satisfies.
#[derive(Debug, Clone)]
pub struct FlatMap<V> {
    /// Power-of-two slot array; a slot keyed [`EMPTY`] is empty.
    slots: Vec<(u64, V)>,
    /// The value of key [`EMPTY`], which the table cannot hold.
    reserved: Option<V>,
    /// Live entries in `slots` (`reserved` not included).
    len: usize,
}

impl<V: Default> Default for FlatMap<V> {
    fn default() -> Self {
        FlatMap::new()
    }
}

impl<V: Default> FlatMap<V> {
    /// Creates an empty map with the minimum table size.
    pub fn new() -> Self {
        FlatMap::with_capacity(0)
    }

    /// Creates an empty map pre-sized so `entries` insertions never
    /// re-hash — the allocation-free steady state the hot paths rely on.
    pub fn with_capacity(entries: usize) -> Self {
        FlatMap {
            slots: empty_slots(table_len_for(entries)),
            reserved: None,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.reserved.is_some())
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Home slot of `key`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        #[expect(clippy::cast_possible_truncation)] // masked to table range
        let i = mix_key(key) as usize & self.mask();
        i
    }

    /// Slot index holding `key` (never [`EMPTY`]), if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].0;
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if key == EMPTY {
            return self.reserved.as_ref();
        }
        self.find(key).map(|i| &self.slots[i].1)
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if key == EMPTY {
            return self.reserved.as_mut();
        }
        let i = self.find(key)?;
        Some(&mut self.slots[i].1)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key` → `value`, returning the previous value if the key
    /// was already present. Re-hashes (the only allocating operation) when
    /// the 7/8 load factor would be exceeded; a map built by
    /// [`with_capacity`](FlatMap::with_capacity) for its worst-case
    /// occupancy never re-hashes.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if key == EMPTY {
            return self.reserved.replace(value);
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == key {
                return Some(std::mem::replace(&mut slot.1, value));
            }
            if slot.0 == EMPTY {
                *slot = (key, value);
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `key`, returning its value if it was present. Uses
    /// backward-shift deletion: every entry displaced past the vacated
    /// slot is shifted back, so no tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if key == EMPTY {
            return self.reserved.take();
        }
        let mut hole = self.find(key)?;
        let (_, value) = std::mem::replace(&mut self.slots[hole], (EMPTY, V::default()));
        self.len -= 1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j].0;
            if k == EMPTY {
                break;
            }
            let home = self.home(k);
            // The entry at `j` may move into the hole iff the hole lies on
            // its probe path, i.e. the cyclic distance home→j covers the
            // distance hole→j.
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots.swap(hole, j);
                hole = j;
            }
        }
        Some(value)
    }

    /// Doubles the table and re-inserts every entry.
    fn grow(&mut self) {
        let bigger = empty_slots(self.slots.len() * 2);
        let old = std::mem::replace(&mut self.slots, bigger);
        let mask = self.mask();
        for slot in old.into_iter().filter(|s| s.0 != EMPTY) {
            let mut i = self.home(slot.0);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Iterates over `(key, &value)` in slot order, then the [`EMPTY`]
    /// key's entry — deterministic for a given operation history, but
    /// *not* key-ordered. Use [`sorted_keys`](FlatMap::sorted_keys) when
    /// output order matters.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let table = self
            .slots
            .iter()
            .filter(|s| s.0 != EMPTY)
            .map(|(k, v)| (*k, v));
        table.chain(self.reserved.as_ref().map(|v| (EMPTY, v)))
    }

    /// All live keys in ascending order (the ordered-iteration guarantee
    /// for reports). Allocates the returned vector; not for per-cycle use.
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }
}

/// `n` empty slots.
fn empty_slots<V: Default>(n: usize) -> Vec<(u64, V)> {
    let mut slots = Vec::with_capacity(n);
    slots.resize_with(n, || (EMPTY, V::default()));
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: FlatMap<u64> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(1), Some(&11));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn with_capacity_never_grows() {
        let mut m: FlatMap<usize> = FlatMap::with_capacity(64);
        let table = m.slots.len();
        for k in 0..64 {
            m.insert(k, 0);
        }
        assert_eq!(m.slots.len(), table, "pre-sized table re-hashed");
    }

    #[test]
    fn grows_past_load_factor_and_keeps_entries() {
        let mut m: FlatMap<u64> = FlatMap::new();
        for k in 0..1000 {
            m.insert(k * 3, k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000 {
            assert_eq!(m.get(k * 3), Some(&k), "key {k} lost in growth");
        }
    }

    #[test]
    fn backward_shift_keeps_probe_chains_intact() {
        // Dense sequential keys maximize displacement; removing from the
        // middle of chains must not orphan later entries.
        let mut m: FlatMap<u64> = FlatMap::with_capacity(32);
        for k in 0..28 {
            m.insert(k, k);
        }
        for k in (0..28).step_by(2) {
            assert_eq!(m.remove(k), Some(k));
        }
        for k in 0..28 {
            let expect = if k % 2 == 0 { None } else { Some(&k) };
            assert_eq!(m.get(k), expect, "probe chain broken at key {k}");
        }
    }

    #[test]
    fn sorted_keys_is_address_ordered() {
        let mut m: FlatMap<()> = FlatMap::new();
        for k in [9, 2, 77, 4, 0] {
            m.insert(k, ());
        }
        assert_eq!(m.sorted_keys(), vec![0, 2, 4, 9, 77]);
    }

    #[test]
    fn extreme_keys_round_trip() {
        let mut m: FlatMap<u32> = FlatMap::with_capacity(4);
        for (i, k) in (0..).zip([0, u64::MAX, 1, u64::MAX - 1]) {
            assert_eq!(m.insert(k, i), None);
        }
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(0), Some(&0));
        assert_eq!(m.get(u64::MAX), Some(&1));
        assert_eq!(m.insert(u64::MAX, 9), Some(1));
        *m.get_mut(u64::MAX).unwrap() += 1;
        assert_eq!(m.sorted_keys(), vec![0, 1, u64::MAX - 1, u64::MAX]);
        assert_eq!(m.iter().count(), 4);
        assert_eq!(m.remove(u64::MAX), Some(10));
        assert!(!m.contains_key(u64::MAX));
        assert_eq!(m.remove(0), Some(0));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(u64::MAX - 1), Some(&3));
    }

    #[test]
    fn slots_are_sixteen_bytes() {
        // What the simulator's maps (MSHR index, presence counts, the
        // store index) pay per slot: a key and a value, no `Option` tag.
        assert_eq!(std::mem::size_of::<(u64, u32)>(), 16);
        assert_eq!(std::mem::size_of::<(u64, usize)>(), 16);
        let m: FlatMap<u32> = FlatMap::with_capacity(1000);
        assert_eq!(
            std::mem::size_of_val(m.slots.as_slice()),
            16 * m.slots.len()
        );
        let m: FlatMap<usize> = FlatMap::with_capacity(1000);
        assert_eq!(
            std::mem::size_of_val(m.slots.as_slice()),
            16 * m.slots.len()
        );
    }

    #[test]
    fn layout_is_reproducible_for_same_history() {
        let build = || {
            let mut m: FlatMap<u64> = FlatMap::new();
            for k in 0..200 {
                m.insert(k * 7 % 251, k);
            }
            for k in 0..100 {
                m.remove(k * 13 % 251);
            }
            m
        };
        let (a, b) = (build(), build());
        let av: Vec<_> = a.iter().map(|(k, v)| (k, *v)).collect();
        let bv: Vec<_> = b.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(av, bv, "slot layout must be a pure function of history");
    }
}
