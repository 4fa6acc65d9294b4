//! Miss status holding registers (MSHRs).
//!
//! An MSHR file tracks outstanding misses. Concurrent misses to the same
//! line *merge* into one entry so only a single fill request is sent down
//! the hierarchy; when the fill returns, every merged requester is woken.
//! The paper's lite cores drop the per-core L1 **and its MSHRs** — in the
//! DC-L1 designs the MSHR file lives in the DC-L1 node instead.
//!
//! # Representation
//!
//! The file is a *slab*: a flat `Vec` of `max_entries` slots allocated
//! once at construction, a free-list of slot indices, and a deterministic
//! FNV-keyed open-addressed index ([`dcl1_common::FlatMap`]) from line
//! address to slot. The per-transaction operations (`try_allocate`,
//! `is_pending`, `can_accept`, `complete_into`) are O(1) expected and
//! allocation-free in steady state: waiter vectors live inside their slot
//! and are drained, never dropped, so their capacity is reused across
//! allocations. Where ordered iteration over outstanding entries is
//! needed, [`lines_sorted`](Mshr::lines_sorted) sorts the ≤`max_entries`
//! live lines by address — the same guarantee the previous `BTreeMap`
//! representation provided implicitly, now paid for only on demand.

use dcl1_common::invariant::{InvariantError, InvariantResult};
use dcl1_common::stats::Counter;
use dcl1_common::{FlatMap, LineAddr};

/// Outcome of a successful MSHR allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAllocation {
    /// A new entry was created: the caller must send a fill request.
    Allocated,
    /// The miss merged into an existing entry: no new fill request needed.
    Merged,
}

/// One slab slot. A slot is live iff its waiter list is non-empty (a live
/// MSHR entry always holds at least its first requester).
#[derive(Debug, Clone)]
struct Slot<T> {
    line: LineAddr,
    waiters: Vec<T>,
}

/// A file of miss status holding registers, generic over the requester
/// token type `T` (the simulator uses transaction ids).
///
/// # Examples
///
/// ```
/// use dcl1_cache::{Mshr, MshrAllocation};
/// use dcl1_common::LineAddr;
///
/// let mut mshr: Mshr<u32> = Mshr::new(2, 4);
/// let line = LineAddr::new(9);
/// assert_eq!(mshr.try_allocate(line, 100), Ok(MshrAllocation::Allocated));
/// assert_eq!(mshr.try_allocate(line, 101), Ok(MshrAllocation::Merged));
/// // Hot paths reuse a caller-owned scratch buffer…
/// let mut woken: Vec<u32> = Vec::new();
/// assert_eq!(mshr.complete_into(line, &mut woken), 2);
/// assert_eq!(woken, vec![100, 101]);
/// // …while the allocating convenience wrapper stays available.
/// assert_eq!(mshr.try_allocate(line, 102), Ok(MshrAllocation::Allocated));
/// assert_eq!(mshr.complete(line), vec![102]);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<T> {
    /// `max_entries` slots, allocated once; never grows.
    slots: Vec<Slot<T>>,
    /// Free slot indices (LIFO — recently drained slots, whose waiter
    /// vectors have warmed-up capacity, are reused first).
    free: Vec<usize>,
    /// Deterministic line→slot index; pre-sized so it never re-hashes.
    index: FlatMap<usize>,
    max_entries: usize,
    max_merges: usize,
    /// Lifetime entry allocations (first miss on a line).
    allocs: u64,
    /// Lifetime entry frees (fills completed for a live entry).
    frees: u64,
    /// Lifetime requester tokens parked (first miss + merges).
    waiters_in: u64,
    /// Lifetime requester tokens released by `complete`.
    waiters_out: u64,
    /// Allocation attempts rejected because all entries were in use.
    pub entry_stalls: Counter,
    /// Allocation attempts rejected because the target entry was merge-full.
    pub merge_stalls: Counter,
    /// Successful merges.
    pub merges: Counter,
}

impl<T> Mshr<T> {
    /// Creates an MSHR file with `max_entries` entries, each accepting up
    /// to `max_merges` requesters (including the first).
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(max_entries: usize, max_merges: usize) -> Self {
        assert!(max_entries > 0, "MSHR entry count must be nonzero");
        assert!(max_merges > 0, "MSHR merge limit must be nonzero");
        let mut slots = Vec::with_capacity(max_entries);
        slots.resize_with(max_entries, || Slot { line: LineAddr::new(0), waiters: Vec::new() });
        // LIFO free list popping from the back: seed it reversed so the
        // very first allocations hand out slots 0, 1, 2, …
        let free: Vec<usize> = (0..max_entries).rev().collect();
        Mshr {
            slots,
            free,
            index: FlatMap::with_capacity(max_entries),
            max_entries,
            max_merges,
            allocs: 0,
            frees: 0,
            waiters_in: 0,
            waiters_out: 0,
            entry_stalls: Counter::default(),
            merge_stalls: Counter::default(),
            merges: Counter::default(),
        }
    }

    /// Attempts to record a miss on `line` for requester `token`.
    ///
    /// # Errors
    ///
    /// Returns `Err(token)` — a structural stall, handing the token back —
    /// when no entry is free (new line) or the entry's merge list is full.
    pub fn try_allocate(&mut self, line: LineAddr, token: T) -> Result<MshrAllocation, T> {
        if let Some(&slot) = self.index.get(line.raw()) {
            let waiters = &mut self.slots[slot].waiters;
            if waiters.len() >= self.max_merges {
                self.merge_stalls.inc();
                return Err(token);
            }
            waiters.push(token);
            self.merges.inc();
            self.waiters_in += 1;
            return Ok(MshrAllocation::Merged);
        }
        let Some(slot) = self.free.pop() else {
            self.entry_stalls.inc();
            return Err(token);
        };
        debug_assert!(self.slots[slot].waiters.is_empty(), "free slot held waiters");
        self.slots[slot].line = line;
        self.slots[slot].waiters.push(token);
        self.index.insert(line.raw(), slot);
        self.allocs += 1;
        self.waiters_in += 1;
        Ok(MshrAllocation::Allocated)
    }

    /// Whether a fill for `line` is already outstanding.
    pub fn is_pending(&self, line: LineAddr) -> bool {
        self.index.contains_key(line.raw())
    }

    /// Whether `try_allocate(line, …)` would succeed right now — i.e. the
    /// line's entry has merge room, or a free entry exists. Callers that
    /// cannot afford to lose a request (FIFO heads) must check this
    /// *before* dequeuing it.
    pub fn can_accept(&self, line: LineAddr) -> bool {
        match self.index.get(line.raw()) {
            Some(&slot) => self.slots[slot].waiters.len() < self.max_merges,
            None => !self.free.is_empty(),
        }
    }

    /// Completes the fill for `line`, appending all waiting tokens to
    /// `out` in arrival order and returning how many were appended (zero
    /// if the line had no entry). The freed slot keeps its waiter
    /// vector's capacity, so a warmed-up file never allocates here.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<T>) -> usize {
        let Some(slot) = self.index.remove(line.raw()) else {
            return 0;
        };
        debug_assert_eq!(self.slots[slot].line, line, "MSHR index points at wrong slot");
        let waiters = &mut self.slots[slot].waiters;
        let n = waiters.len();
        debug_assert!(n > 0, "indexed MSHR slot had no waiters");
        out.append(waiters);
        self.free.push(slot);
        self.frees += 1;
        self.waiters_out += n as u64;
        debug_assert!(self.frees <= self.allocs, "MSHR free without alloc");
        n
    }

    /// Completes the fill for `line`, returning all waiting tokens in
    /// arrival order (empty if the line had no entry). Convenience
    /// wrapper over [`complete_into`](Mshr::complete_into) that allocates
    /// the returned vector — hot paths should pass their own scratch
    /// buffer to `complete_into` instead.
    pub fn complete(&mut self, line: LineAddr) -> Vec<T> {
        let mut out = Vec::new();
        self.complete_into(line, &mut out);
        out
    }

    /// Number of entries currently in use.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entries are in use.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether every entry is in use.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Total requesters waiting across all entries (each entry counts its
    /// first requester plus merges) — the metrics sampler's occupancy
    /// gauge, finer-grained than [`len`](Mshr::len). Derived from the
    /// lifetime conservation counters, so it is O(1).
    pub fn total_waiters(&self) -> usize {
        #[expect(clippy::cast_possible_truncation)] // bounded by entries×merges
        let waiting = (self.waiters_in - self.waiters_out) as usize;
        waiting
    }

    /// Lines with outstanding fills, in ascending address order — the
    /// ordered-iteration guarantee the slab representation preserves from
    /// the previous `BTreeMap`. Allocates the returned vector; intended
    /// for reports and debugging, not per-cycle use.
    pub fn lines_sorted(&self) -> Vec<LineAddr> {
        self.index.sorted_keys().into_iter().map(LineAddr::new).collect()
    }

    /// Lifetime entry allocations.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Lifetime entry frees.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Checks the MSHR conservation laws: every allocated entry is either
    /// live or was freed exactly once (`allocs == frees + len`), every
    /// parked requester is either waiting or was released
    /// (`waiters_in == waiters_out + total_waiters`), and occupancy is
    /// within the configured entry bound. `site` names this MSHR file in
    /// the error report.
    ///
    /// # Errors
    ///
    /// Returns the first violated law with its counter values.
    pub fn check_conservation(&self, site: &str) -> InvariantResult {
        let live = self.index.len() as u64;
        if self.index.len() > self.max_entries {
            return Err(InvariantError::new(
                site,
                format!("{} live entries exceed capacity {}", live, self.max_entries),
            ));
        }
        if self.allocs != self.frees + live {
            return Err(InvariantError::new(
                site,
                format!(
                    "entry leak: allocs {} != frees {} + live {}",
                    self.allocs, self.frees, live
                ),
            ));
        }
        // Recount waiters from the slots themselves rather than trusting
        // the O(1) derived gauge — this is the checker, after all.
        let waiting: u64 = self.slots.iter().map(|s| s.waiters.len() as u64).sum();
        if self.waiters_in != self.waiters_out + waiting {
            return Err(InvariantError::new(
                site,
                format!(
                    "waiter leak: parked {} != released {} + waiting {}",
                    self.waiters_in, self.waiters_out, waiting
                ),
            ));
        }
        if self.index.len() + self.free.len() != self.max_entries {
            return Err(InvariantError::new(
                site,
                format!(
                    "slot leak: {} live + {} free != {} slots",
                    self.index.len(),
                    self.free.len(),
                    self.max_entries
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge_then_complete() {
        let mut m: Mshr<u32> = Mshr::new(4, 4);
        let l = LineAddr::new(1);
        assert_eq!(m.try_allocate(l, 1), Ok(MshrAllocation::Allocated));
        assert!(m.is_pending(l));
        assert_eq!(m.try_allocate(l, 2), Ok(MshrAllocation::Merged));
        assert_eq!(m.total_waiters(), 2);
        assert_eq!(m.complete(l), vec![1, 2]);
        assert!(!m.is_pending(l));
        assert_eq!(m.total_waiters(), 0);
        assert_eq!(m.merges.get(), 1);
    }

    #[test]
    fn entry_exhaustion_stalls() {
        let mut m: Mshr<u8> = Mshr::new(2, 4);
        m.try_allocate(LineAddr::new(1), 0).unwrap();
        m.try_allocate(LineAddr::new(2), 0).unwrap();
        assert!(m.is_full());
        assert_eq!(m.try_allocate(LineAddr::new(3), 9), Err(9));
        assert_eq!(m.entry_stalls.get(), 1);
        // A merge to an existing line still succeeds when full.
        assert_eq!(m.try_allocate(LineAddr::new(1), 7), Ok(MshrAllocation::Merged));
    }

    #[test]
    fn merge_limit_stalls() {
        let mut m: Mshr<u8> = Mshr::new(4, 2);
        let l = LineAddr::new(5);
        m.try_allocate(l, 0).unwrap();
        m.try_allocate(l, 1).unwrap();
        assert_eq!(m.try_allocate(l, 2), Err(2));
        assert_eq!(m.merge_stalls.get(), 1);
        assert_eq!(m.complete(l), vec![0, 1]);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m: Mshr<u8> = Mshr::new(2, 2);
        assert!(m.complete(LineAddr::new(42)).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn complete_into_appends_and_reuses_scratch() {
        let mut m: Mshr<u8> = Mshr::new(2, 2);
        let (a, b) = (LineAddr::new(1), LineAddr::new(2));
        m.try_allocate(a, 1).unwrap();
        m.try_allocate(b, 2).unwrap();
        let mut scratch = Vec::new();
        assert_eq!(m.complete_into(a, &mut scratch), 1);
        assert_eq!(m.complete_into(b, &mut scratch), 1);
        assert_eq!(scratch, vec![1, 2], "tokens append, not overwrite");
        assert_eq!(m.complete_into(a, &mut scratch), 0, "unknown line appends nothing");
    }

    #[test]
    fn freed_entry_is_reusable() {
        let mut m: Mshr<u8> = Mshr::new(1, 1);
        let (a, b) = (LineAddr::new(1), LineAddr::new(2));
        m.try_allocate(a, 0).unwrap();
        assert_eq!(m.try_allocate(b, 1), Err(1));
        m.complete(a);
        assert_eq!(m.try_allocate(b, 1), Ok(MshrAllocation::Allocated));
    }

    #[test]
    fn lines_sorted_is_address_ordered() {
        let mut m: Mshr<u8> = Mshr::new(4, 1);
        for raw in [7, 3, 11, 5] {
            m.try_allocate(LineAddr::new(raw), 0).unwrap();
        }
        let lines: Vec<u64> = m.lines_sorted().iter().map(|l| l.raw()).collect();
        assert_eq!(lines, vec![3, 5, 7, 11]);
    }
}
