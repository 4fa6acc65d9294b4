//! Bounded FIFO queues with backpressure statistics.
//!
//! Every buffering point in the simulator — the four queues of a DC-L1 node
//! (Q1..Q4 in paper Fig. 3), NoC injection/ejection buffers, MSHR-to-NoC
//! staging — is a [`BoundedQueue`]. Besides FIFO semantics it records how
//! often a producer found the queue full, which is the signal the paper's
//! partition-camping analysis relies on.

use crate::invariant::{InvariantError, InvariantResult};
use std::collections::VecDeque;

/// A fixed-capacity FIFO queue.
///
/// # Examples
///
/// ```
/// use dcl1_common::queue::BoundedQueue;
///
/// let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
/// assert!(q.try_push(1).is_ok());
/// assert!(q.try_push(2).is_ok());
/// assert_eq!(q.try_push(3), Err(3)); // full: item handed back
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// Number of `try_push` calls rejected because the queue was full.
    rejected: u64,
    /// Number of items ever accepted.
    accepted: u64,
    /// Number of items ever removed (via `pop` or `remove_at`).
    popped: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            rejected: 0,
            accepted: 0,
            popped: 0,
        }
    }

    /// Attempts to enqueue `item`.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` (handing the item back to the caller) if the
    /// queue is full, and counts the rejection as backpressure.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            self.rejected += 1;
            Err(item)
        } else {
            self.items.push_back(item);
            self.accepted += 1;
            Ok(())
        }
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.popped += 1;
            debug_assert!(self.popped <= self.accepted, "queue pop/accept skew");
        }
        item
    }

    /// Returns a reference to the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over queued items from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes and returns the item at `index` (0 = oldest), shifting the
    /// rest. Used by virtual-channel-style arbitration that may serve a
    /// non-head packet.
    pub fn remove_at(&mut self, index: usize) -> Option<T> {
        let item = self.items.remove(index);
        if item.is_some() {
            self.popped += 1;
            debug_assert!(self.popped <= self.accepted, "queue pop/accept skew");
        }
        item
    }

    /// Number of rejected (backpressured) push attempts.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of accepted pushes.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of items removed over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Checks the queue's conservation law: every accepted item is either
    /// still queued or was removed exactly once, and occupancy never
    /// exceeds capacity. `site` names the queue in the error report.
    ///
    /// # Errors
    ///
    /// Returns the imbalance when `accepted != popped + len` or the queue
    /// holds more than its capacity.
    pub fn check_conservation(&self, site: &str) -> InvariantResult {
        let len = self.items.len() as u64;
        if self.items.len() > self.capacity {
            return Err(InvariantError::new(
                site,
                format!("occupancy {} exceeds capacity {}", self.items.len(), self.capacity),
            ));
        }
        if self.accepted != self.popped + len {
            return Err(InvariantError::new(
                site,
                format!(
                    "accepted {} != popped {} + queued {}",
                    self.accepted, self.popped, len
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
    fn fifo_order_preserved() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn backpressure_counts_rejections() {
        let mut q = BoundedQueue::new(1);
        q.try_push('a').unwrap();
        assert_eq!(q.try_push('b'), Err('b'));
        assert_eq!(q.try_push('c'), Err('c'));
        assert_eq!(q.rejected(), 2);
        assert_eq!(q.accepted(), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        BoundedQueue::<u8>::new(0);
    }
}
