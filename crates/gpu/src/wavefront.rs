//! A single wavefront (warp) context.

use crate::instr::WavefrontInstr;
use crate::trace::TraceSource;
use dcl1_common::Cycle;

/// Scheduling state of a wavefront.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WavefrontState {
    /// Can issue its next instruction.
    Ready,
    /// Executing an ALU instruction until the given cycle.
    Busy {
        /// Core cycle at which the wavefront becomes ready again.
        until: Cycle,
    },
    /// Blocked on memory with this many accesses outstanding.
    WaitingMem {
        /// Transactions still in flight.
        outstanding: u32,
    },
    /// The trace is exhausted.
    Finished,
}

/// One wavefront: a trace plus scheduling state.
#[derive(Debug)]
pub struct Wavefront {
    trace: Box<dyn TraceSource>,
    state: WavefrontState,
    /// The next instruction, pre-fetched so the scheduler can peek.
    next: Option<WavefrontInstr>,
}

impl Wavefront {
    /// Creates a ready wavefront over `trace`.
    pub fn new(trace: Box<dyn TraceSource>) -> Self {
        Wavefront { trace, state: WavefrontState::Ready, next: None }
    }

    /// Current state, resolving `Busy` expiry against `now`.
    pub fn state(&mut self, now: Cycle) -> WavefrontState {
        if let WavefrontState::Busy { until } = self.state {
            if now >= until {
                self.state = WavefrontState::Ready;
            }
        }
        self.state
    }

    /// Peeks the next instruction without consuming it.
    pub fn peek(&mut self) -> &WavefrontInstr {
        if self.next.is_none() {
            self.next = Some(self.trace.next_instr());
        }
        self.next.as_ref().expect("just filled")
    }

    /// Consumes the peeked instruction.
    ///
    /// # Panics
    ///
    /// Panics if nothing was peeked (internal contract of the core issue
    /// logic).
    pub fn take(&mut self) -> WavefrontInstr {
        self.next.take().expect("take() without peek()")
    }

    /// Marks the wavefront busy until `until`.
    pub(crate) fn set_busy(&mut self, until: Cycle) {
        self.state = WavefrontState::Busy { until };
    }

    /// Marks the wavefront blocked on `outstanding` memory transactions.
    pub(crate) fn set_waiting(&mut self, outstanding: u32) {
        debug_assert!(outstanding > 0);
        self.state = WavefrontState::WaitingMem { outstanding };
    }

    /// Marks the wavefront finished.
    pub(crate) fn set_finished(&mut self) {
        self.state = WavefrontState::Finished;
    }

    /// Whether the wavefront is blocked on memory. A non-resolving query
    /// (unlike [`state`](Wavefront::state), never mutates `Busy` expiry),
    /// so schedulers can use it for bookkeeping checks.
    #[cfg(debug_assertions)]
    pub(crate) fn is_waiting_mem(&self) -> bool {
        matches!(self.state, WavefrontState::WaitingMem { .. })
    }

    /// Signals completion of one outstanding memory transaction.
    ///
    /// Returns `true` if the wavefront became ready.
    ///
    /// # Panics
    ///
    /// Panics if the wavefront was not waiting on memory.
    pub fn complete_access(&mut self) -> bool {
        match &mut self.state {
            WavefrontState::WaitingMem { outstanding } => {
                *outstanding -= 1;
                if *outstanding == 0 {
                    self.state = WavefrontState::Ready;
                    true
                } else {
                    false
                }
            }
            other => panic!("complete_access on non-waiting wavefront ({other:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{MemAccess, MemInstr, MemKind};
    use crate::trace::VecTrace;
    use dcl1_common::LineAddr;

    fn mem(n: usize) -> WavefrontInstr {
        WavefrontInstr::Mem(MemInstr {
            kind: MemKind::Load,
            accesses: (0..n).map(|i| MemAccess { line: LineAddr::new(i as u64), bytes: 32 }).collect(),
        })
    }

    #[test]
    fn busy_expires_with_time() {
        let mut wf = Wavefront::new(Box::new(VecTrace::new(vec![])));
        wf.set_busy(5);
        assert_eq!(wf.state(4), WavefrontState::Busy { until: 5 });
        assert_eq!(wf.state(5), WavefrontState::Ready);
    }

    #[test]
    fn waiting_mem_counts_down() {
        let mut wf = Wavefront::new(Box::new(VecTrace::new(vec![mem(2)])));
        wf.set_waiting(2);
        assert!(!wf.complete_access());
        assert!(wf.complete_access());
        assert_eq!(wf.state(0), WavefrontState::Ready);
    }

    #[test]
    #[should_panic(expected = "non-waiting")]
    fn complete_on_ready_panics() {
        let mut wf = Wavefront::new(Box::new(VecTrace::new(vec![])));
        wf.complete_access();
    }

    #[test]
    fn peek_take_round_trip() {
        let mut wf = Wavefront::new(Box::new(VecTrace::new(vec![mem(1)])));
        assert!(matches!(wf.peek(), WavefrontInstr::Mem(_)));
        assert!(matches!(wf.take(), WavefrontInstr::Mem(_)));
        assert!(matches!(wf.peek(), WavefrontInstr::Done));
    }
}
