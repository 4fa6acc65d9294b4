//! A wake wheel: which sleeper's timer expires at which tick.
//!
//! A component whose only pending thing is a fixed-latency timer — a hit
//! maturing in a node's pipe, an L2 reply brewing out its access latency, a
//! DRAM burst — need not be polled until the timer fires. Its owner parks
//! it here under the tick it must next be visited at, and asks once per
//! tick who is due.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ticks ahead the ring reaches; later alarms wait in the overflow heap.
const SLOTS: usize = 64;
/// Ids a ring slot holds; more alarms for one tick overflow to the heap.
const ROW: usize = 8;

/// The ring slot of tick `at`.
#[expect(clippy::cast_possible_truncation)] // below `SLOTS`
fn slot(at: u64) -> usize {
    (at % SLOTS as u64) as usize
}

/// Alarms keyed by the tick they ring at. The owner must ask
/// [`pop_due`](WakeWheel::pop_due) until `None` at every tick some alarm is
/// set for, and may jump its clock only as far as
/// [`next_due`](WakeWheel::next_due) allows.
///
/// An alarm cannot be cancelled: a sleeper woken early by something else
/// leaves its alarm behind, and is rung once for nothing.
///
/// ```
/// use dcl1_common::WakeWheel;
///
/// let mut wheel = WakeWheel::new();
/// wheel.schedule(10, 12, 7);
/// wheel.schedule(10, 500, 8);
/// assert_eq!(wheel.pop_due(11), None);
/// assert_eq!(wheel.pop_due(12), Some(7));
/// assert_eq!(wheel.pop_due(12), None);
/// assert_eq!(wheel.next_due(12), Some(500));
/// ```
#[derive(Debug, Clone)]
pub struct WakeWheel {
    /// Row `t % 64`: the first `len[t % 64]` ids are due at tick `t`, set
    /// less than 64 ticks ahead. Fixed storage, allocated by the first
    /// alarm: an unused wheel owns no memory and a used one never grows.
    ring: Vec<[u32; ROW]>,
    len: [u8; SLOTS],
    /// Entries in `ring`.
    near: usize,
    /// Alarms set 64 or more ticks ahead, or for a tick whose row was full.
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Default for WakeWheel {
    fn default() -> Self {
        WakeWheel::new()
    }
}

impl WakeWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        WakeWheel {
            ring: Vec::new(),
            len: [0; SLOTS],
            near: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Sets an alarm for `id` at tick `at`, later than the current tick `now`.
    #[inline]
    pub fn schedule(&mut self, now: u64, at: u64, id: u32) {
        debug_assert!(at > now, "alarm at {at} is not after {now}");
        let row = slot(at);
        let held = usize::from(self.len[row]);
        if at - now < SLOTS as u64 && held < ROW {
            if self.ring.is_empty() {
                self.ring.resize(SLOTS, [0; ROW]);
            }
            self.ring[row][held] = id;
            self.len[row] += 1;
            self.near += 1;
        } else {
            self.far.push(Reverse((at, id)));
        }
    }

    /// One id whose alarm rings at `at`, if any is left.
    #[inline]
    pub fn pop_due(&mut self, at: u64) -> Option<u32> {
        let row = slot(at);
        if self.len[row] > 0 {
            self.len[row] -= 1;
            self.near -= 1;
            return Some(self.ring[row][usize::from(self.len[row])]);
        }
        match self.far.peek() {
            Some(&Reverse((t, id))) if t <= at => {
                debug_assert_eq!(t, at, "the clock jumped over an alarm");
                self.far.pop();
                Some(id)
            }
            _ => None,
        }
    }

    /// The earliest tick after `now` an alarm is set for.
    pub fn next_due(&self, now: u64) -> Option<u64> {
        let near = (now + 1..now + SLOTS as u64)
            .take_while(|_| self.near > 0)
            .find(|t| self.len[slot(*t)] > 0);
        let far = self.far.peek().map(|&Reverse((t, _))| t);
        near.into_iter().chain(far).min()
    }

    /// Whether `id` has an alarm set for tick `at`, after `now` (invariant
    /// checks only: O(alarms)).
    pub fn is_set(&self, now: u64, at: u64, id: u32) -> bool {
        let held = usize::from(self.len[slot(at)]);
        (at > now && at - now < SLOTS as u64 && held > 0 && self.ring[slot(at)][..held].contains(&id))
            || self.far.iter().any(|&Reverse(alarm)| alarm == (at, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alarms_ring_at_their_tick_near_and_far() {
        let mut wheel = WakeWheel::new();
        let alarms = [(3u64, 1u32), (3, 2), (63, 3), (64, 4), (65, 5), (200, 6), (130, 7)];
        for (at, id) in alarms {
            wheel.schedule(0, at, id);
            assert!(wheel.is_set(0, at, id));
        }
        assert!(!wheel.is_set(0, 4, 1));
        let mut rung = Vec::new();
        for now in 1..=200 {
            while let Some(id) = wheel.pop_due(now) {
                rung.push((now, id));
            }
        }
        rung.sort_unstable();
        let mut want = alarms.to_vec();
        want.sort_unstable();
        assert_eq!(rung, want);
        assert_eq!(wheel.next_due(200), None);
    }

    #[test]
    fn a_full_row_overflows_without_losing_alarms() {
        let mut wheel = WakeWheel::new();
        for id in 0..20 {
            wheel.schedule(1, 9, id);
            assert!(wheel.is_set(1, 9, id));
        }
        assert_eq!(wheel.next_due(1), Some(9));
        let mut rung: Vec<u32> = std::iter::from_fn(|| wheel.pop_due(9)).collect();
        rung.sort_unstable();
        assert_eq!(rung, (0..20).collect::<Vec<_>>());
        assert_eq!(wheel.next_due(9), None);
    }

    #[test]
    fn next_due_bounds_a_clock_jump() {
        let mut wheel = WakeWheel::new();
        assert_eq!(wheel.next_due(5), None);
        wheel.schedule(5, 40, 1);
        wheel.schedule(5, 300, 2);
        assert_eq!(wheel.next_due(5), Some(40));
        // Jump to the tick before the alarm, step onto it.
        assert_eq!(wheel.pop_due(40), Some(1));
        assert_eq!(wheel.next_due(40), Some(300));
        // Slots are reused once the clock has passed them.
        wheel.schedule(299, 300 + 63, 3);
        assert_eq!(wheel.pop_due(300), Some(2));
        assert_eq!(wheel.pop_due(300), None);
        assert_eq!(wheel.next_due(300), Some(363));
    }
}
