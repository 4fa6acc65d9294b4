//! Occupancy sets for the cycle kernel: which components can act.
//!
//! A per-cycle walk over every core, node or slice costs O(machine) even
//! when almost nothing can act. An [`ActiveSet`] holds the indices that
//! can: whoever hands a component work inserts it, the walk drops it when
//! a visit finds nothing pending, and the walk visits members only — in
//! ascending order, so it is the full scan minus the do-nothing visits.

/// A fixed-capacity set of component indices, walked in ascending order.
///
/// ```
/// use dcl1_common::ActiveSet;
///
/// let mut live = ActiveSet::new(130);
/// live.insert(3);
/// live.insert(129);
/// live.retain(|i| i != 3); // visit each member; 3 has nothing left to do
/// assert_eq!(live.iter().collect::<Vec<_>>(), [129]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// An empty set over indices `0..len`.
    pub fn new(len: usize) -> Self {
        ActiveSet { words: vec![0; len.div_ceil(64)] }
    }

    /// The set of every index in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut set = ActiveSet { words: vec![!0; len.div_ceil(64)] };
        if let Some(last) = set.words.last_mut() {
            *last >>= (64 - len % 64) % 64;
        }
        set
    }

    /// Adds `i`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let absent = *w & bit == 0;
        *w |= bit;
        absent
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Whether no index is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of indices in the set.
    #[inline]
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The members in ascending order (a walk that leaves the set alone).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let i = (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(i)
            })
        })
    }

    /// Visits the members in ascending order and keeps those for which
    /// `keep` returns true — a walk whose visits decide who sleeps.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                if !keep(w * 64 + bit.trailing_zeros() as usize) {
                    *word ^= bit;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_covers_exactly_the_range() {
        for len in [0, 1, 63, 64, 65, 80, 128, 130] {
            let set = ActiveSet::full(len);
            assert_eq!(set.count(), len as u64, "len {len}");
            assert_eq!(set.iter().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
            assert_eq!(set.is_empty(), len == 0);
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut set = ActiveSet::new(200);
        assert!(set.is_empty());
        assert!(set.insert(64));
        assert!(!set.insert(64), "second insert reports present");
        assert!(set.insert(0));
        assert!(set.insert(199));
        assert!(set.contains(64) && !set.contains(65));
        set.remove(64);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 199]);
        assert_eq!(set.count(), 2);
    }

    #[test]
    fn retain_visits_in_order_and_drops_the_refused() {
        let mut set = ActiveSet::new(200);
        [5, 63, 64, 130, 199].iter().for_each(|&i| assert!(set.insert(i)));
        let mut seen = Vec::new();
        set.retain(|i| {
            seen.push(i);
            i % 2 == 1
        });
        assert_eq!(seen, [5, 63, 64, 130, 199]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [5, 63, 199]);
    }
}
