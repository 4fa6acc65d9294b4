//! A GPU core (compute unit).
//!
//! In the baseline each core owns a private L1; in the paper's designs the
//! same core becomes a **lite core** — no L1 data cache, no MSHRs — and
//! every memory instruction leaves through NoC#1. Both variants share this
//! model: the distinction lives entirely in where the enclosing simulator
//! routes [`IssuedMem`] transactions, which is the point of the paper's
//! decoupling.

use crate::instr::{MemInstr, WavefrontInstr};
use crate::trace::TraceSource;
use crate::wavefront::{Wavefront, WavefrontState};
use dcl1_common::stats::Counter;
use dcl1_common::{CoreId, Cycle, WavefrontId};

/// Wavefront issue-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum IssuePolicy {
    /// Greedy round-robin: resume scanning after the last issuer.
    #[default]
    GreedyRoundRobin,
    /// Greedy-then-oldest (GPGPU-Sim's default "GTO"): keep issuing from
    /// the same wavefront while it is ready, otherwise pick the oldest
    /// ready wavefront. Concentrates locality in few wavefronts.
    GreedyThenOldest,
}

/// Static configuration of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Maximum resident wavefronts (paper Table II: 48).
    pub max_wavefronts: usize,
    /// Maximum concurrently resident CTAs.
    pub max_ctas: usize,
    /// Wavefront selection policy.
    pub issue_policy: IssuePolicy,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            max_wavefronts: 48,
            max_ctas: 6,
            issue_policy: IssuePolicy::GreedyRoundRobin,
        }
    }
}

/// Why a core's memory port refused an instruction this cycle.
///
/// Reported by the enclosing simulator (which owns the port) so the core
/// can attribute the stall to the right structural resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemBlock {
    /// The per-core outbox still holds transactions from an earlier
    /// instruction (port busy draining).
    OutboxDrain,
    /// The outbox head could not enter the local L1 input queue.
    L1Queue,
    /// The outbox head could not inject into the network.
    Noc,
}

/// Classification of every non-issuing core cycle.
///
/// Exhaustive by construction: each core tick that issues nothing lands in
/// exactly one bucket, so `total()` equals `idle_cycles + mem_stall_cycles`
/// and, together with `instructions`, accounts for every elapsed cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallBreakdown {
    /// No wavefronts resident (core drained or not yet dispatched to).
    pub drained: Counter,
    /// Wavefronts resident but all ALU-busy (or finished), none waiting
    /// on memory.
    pub alu_busy: Counter,
    /// At least one wavefront blocked waiting for a memory reply.
    pub fill_wait: Counter,
    /// A memory instruction was ready but the outbox was still draining.
    pub mem_outbox: Counter,
    /// A memory instruction was ready but the L1 input queue was full.
    pub mem_l1_queue: Counter,
    /// A memory instruction was ready but NoC injection was backpressured.
    pub mem_noc: Counter,
}

impl StallBreakdown {
    /// Total classified non-issue cycles.
    pub fn total(&self) -> u64 {
        self.drained.get()
            + self.alu_busy.get()
            + self.fill_wait.get()
            + self.mem_outbox.get()
            + self.mem_l1_queue.get()
            + self.mem_noc.get()
    }
}

/// Per-core statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Wavefront instructions issued.
    pub instructions: Counter,
    /// Memory instructions among them.
    pub mem_instructions: Counter,
    /// Cycles where nothing could issue.
    pub idle_cycles: Counter,
    /// Cycles where a memory instruction was ready but the memory port
    /// was backpressured.
    pub mem_stall_cycles: Counter,
    /// Per-cause classification of every non-issuing cycle;
    /// `stall.total() == idle_cycles + mem_stall_cycles` always.
    pub stall: StallBreakdown,
}

/// A memory instruction leaving the core this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssuedMem {
    /// Issuing core.
    pub core: CoreId,
    /// Issuing wavefront (index within the core).
    pub wavefront: WavefrontId,
    /// The coalesced instruction.
    pub instr: MemInstr,
}

/// The most wavefront slots a core can have: one bit each in its slot
/// masks.
pub const MAX_WAVEFRONTS: usize = 64;

/// One GPU core: wavefront contexts plus a greedy round-robin issue stage.
///
/// Which slots can issue is kept exact on every event that changes it —
/// issue, retirement, a fill, a CTA's arrival and an ALU latency running
/// out — so a tick visits only the ready slots, and a tick with none (or
/// with only memory instructions ready behind a closed port) visits no
/// slot at all.
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    config: CoreConfig,
    /// Slot-indexed wavefronts; `None` = free slot.
    slots: Vec<Option<Wavefront>>,
    /// CTA id owning each slot (for accounting).
    slot_cta: Vec<Option<u32>>,
    /// Assignment age per slot (monotone counter; GTO picks the oldest).
    slot_age: Vec<u64>,
    age_counter: u64,
    /// Slot that issued most recently (GTO greediness).
    last_issued: Option<usize>,
    resident_ctas: usize,
    /// Occupied wavefront slots (kept in sync with `slots` for an O(1)
    /// drained check).
    resident_wavefronts: usize,
    /// Wavefronts currently in `WaitingMem` (kept in sync for O(1) stall
    /// classification: any waiter makes an idle cycle a fill-wait).
    waiting_wavefronts: usize,
    rr: usize,
    /// Slots whose wavefront can issue (stored `Ready`). Bit `i` is slot
    /// `i`; every occupied slot is in exactly one of `ready`, `busy` or
    /// waiting on memory.
    ready: u64,
    /// The ready slots whose next instruction is a memory instruction a
    /// closed port has already turned away: a tick behind a closed port
    /// need not look at them again.
    mem_ready: u64,
    /// Slots whose wavefront executes an ALU instruction (stored `Busy`).
    busy: u64,
    /// The earliest cycle a `busy` wavefront becomes ready (`Cycle::MAX`
    /// if none): exact, so nothing expires before it.
    next_busy_expiry: Cycle,
    /// Reusable scratch buffer for GTO ordering (avoids per-tick allocs).
    order_buf: Vec<usize>,
    stats: CoreStats,
}

impl Core {
    /// Creates an empty core.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_wavefronts` exceeds [`MAX_WAVEFRONTS`]
    /// (`GpuConfig::validate` refuses such a machine first).
    pub fn new(id: CoreId, config: CoreConfig) -> Self {
        assert!(
            config.max_wavefronts <= MAX_WAVEFRONTS,
            "more than {MAX_WAVEFRONTS} wavefront slots"
        );
        Core {
            id,
            config,
            slots: (0..config.max_wavefronts).map(|_| None).collect(),
            slot_cta: vec![None; config.max_wavefronts],
            slot_age: vec![0; config.max_wavefronts],
            age_counter: 0,
            last_issued: None,
            resident_ctas: 0,
            resident_wavefronts: 0,
            waiting_wavefronts: 0,
            rr: 0,
            ready: 0,
            mem_ready: 0,
            busy: 0,
            next_busy_expiry: Cycle::MAX,
            order_buf: Vec::with_capacity(config.max_wavefronts),
            stats: CoreStats::default(),
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Zeroes the statistics (end-of-warmup measurement reset).
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Whether another CTA of `wavefronts` wavefronts fits. O(1): free
    /// slots are `max_wavefronts - resident_wavefronts` by construction.
    pub fn can_host_cta(&self, wavefronts: usize) -> bool {
        self.resident_ctas < self.config.max_ctas
            && self.slots.len() - self.resident_wavefronts >= wavefronts
    }

    /// Debug-build check that the slot masks mirror the stored states.
    #[cfg(debug_assertions)]
    fn debug_assert_masks(&self) {
        for (i, slot) in self.slots.iter().enumerate() {
            let bit = 1u64 << i;
            let want = match slot.as_ref().map(Wavefront::stored_state) {
                Some(WavefrontState::Ready) => (true, false),
                Some(WavefrontState::Busy { .. }) => (false, true),
                _ => (false, false),
            };
            let got = (self.ready & bit != 0, self.busy & bit != 0);
            assert_eq!(got, want, "slot masks out of sync at slot {i}");
        }
        assert_eq!(
            self.mem_ready & !self.ready,
            0,
            "a memory-blocked slot that is not ready"
        );
    }

    /// Installs a CTA's wavefronts into free slots.
    ///
    /// # Panics
    ///
    /// Panics if the CTA does not fit (callers check
    /// [`can_host_cta`](Core::can_host_cta) first).
    pub fn add_cta(&mut self, cta: u32, traces: Vec<Box<dyn TraceSource>>) {
        assert!(self.can_host_cta(traces.len()), "CTA does not fit");
        self.resident_ctas += 1;
        let mut traces = traces.into_iter();
        for (i, (slot, owner)) in self.slots.iter_mut().zip(&mut self.slot_cta).enumerate() {
            if slot.is_none() {
                match traces.next() {
                    Some(t) => {
                        *slot = Some(Wavefront::new(t));
                        *owner = Some(cta);
                        self.resident_wavefronts += 1;
                        self.ready |= 1 << i;
                        self.age_counter += 1;
                        self.slot_age[i] = self.age_counter;
                    }
                    None => break,
                }
            }
        }
        assert!(traces.next().is_none(), "ran out of slots mid-CTA");
    }

    /// Number of resident CTAs.
    pub fn resident_ctas(&self) -> usize {
        self.resident_ctas
    }

    /// Whether every slot is empty. O(1).
    pub fn is_drained(&self) -> bool {
        debug_assert_eq!(
            self.resident_wavefronts == 0,
            self.slots.iter().all(|s| s.is_none()),
        );
        self.resident_wavefronts == 0
    }

    /// Records `cycles` cycles where the core had nothing to issue, without
    /// scanning the slots. A [`tick`](Core::tick) on a drained or fully
    /// blocked core does exactly this, so callers that already know the
    /// core is inert can account for skipped cycles with this instead.
    pub fn add_idle_cycles(&mut self, cycles: u64) {
        self.count_idle(cycles);
    }

    /// Classifies and records `cycles` idle (nothing-to-issue) cycles:
    /// drained core, fill-wait (some wavefront awaiting a memory reply) or
    /// ALU-busy. Exactly one breakdown bucket gets the cycles.
    #[inline]
    fn count_idle(&mut self, cycles: u64) {
        self.stats.idle_cycles.add(cycles);
        // `waiting > 0` implies wavefronts are resident, so testing the
        // (typically most common) fill-wait class first is equivalent.
        if self.waiting_wavefronts > 0 {
            self.stats.stall.fill_wait.add(cycles);
        } else if self.resident_wavefronts == 0 {
            self.stats.stall.drained.add(cycles);
        } else {
            self.stats.stall.alu_busy.add(cycles);
        }
    }

    /// Records `cycles` memory-port stall cycles, attributed to `block`.
    #[inline]
    fn count_mem_stall(&mut self, block: MemBlock, cycles: u64) {
        self.stats.mem_stall_cycles.add(cycles);
        match block {
            MemBlock::OutboxDrain => self.stats.stall.mem_outbox.add(cycles),
            MemBlock::L1Queue => self.stats.stall.mem_l1_queue.add(cycles),
            MemBlock::Noc => self.stats.stall.mem_noc.add(cycles),
        }
    }

    /// Whether every tick's outcome is known until the next
    /// [`complete_access`](Core::complete_access), [`add_cta`](Core::add_cta)
    /// or [`next_busy_expiry`](Core::next_busy_expiry), whichever comes
    /// first. The owner may then stop clocking the core and settle later
    /// with [`add_inert_cycles`](Core::add_inert_cycles).
    /// `Some(false)`: nothing is ready — each tick is an idle cycle.
    /// `Some(true)`: only memory instructions are ready — each tick behind
    /// a closed port is a memory-port stall; an open port ends the inertia.
    pub fn inert(&self) -> Option<bool> {
        (self.ready == self.mem_ready).then_some(self.ready != 0)
    }

    /// The earliest cycle an ALU-busy wavefront becomes ready on its own
    /// (`Cycle::MAX` if none is busy).
    pub fn next_busy_expiry(&self) -> Cycle {
        self.next_busy_expiry
    }

    /// Records what `cycles` calls of [`tick_blocked`](Core::tick_blocked)
    /// with this `block` would have, on a core [`inert`](Core::inert)
    /// throughout (if port-blocked: behind that one cause throughout).
    ///
    /// # Panics
    ///
    /// Panics if the core is not inert, or is port-blocked with no `block`.
    pub fn add_inert_cycles(&mut self, cycles: u64, block: Option<MemBlock>) {
        match (self.inert(), block) {
            (Some(false), _) => self.count_idle(cycles),
            (Some(true), Some(cause)) => self.count_mem_stall(cause, cycles),
            _ => unreachable!("skipped ticks on a core whose ticks were not predetermined"),
        }
    }

    /// Occupied wavefront slots.
    pub fn resident_wavefronts(&self) -> usize {
        self.resident_wavefronts
    }

    /// Wavefronts currently blocked on outstanding memory accesses.
    pub fn waiting_wavefronts(&self) -> usize {
        self.waiting_wavefronts
    }

    /// Makes ready every busy wavefront whose ALU latency has run out by
    /// `now`.
    #[inline]
    fn expire_busy(&mut self, now: Cycle) {
        if now < self.next_busy_expiry {
            return;
        }
        let mut next = Cycle::MAX;
        let mut m = self.busy;
        while m != 0 {
            let idx = m.trailing_zeros() as usize;
            m &= m - 1;
            match self.slots[idx]
                .as_mut()
                .expect("busy slot is occupied")
                .state(now)
            {
                WavefrontState::Busy { until } => next = next.min(until),
                _ => {
                    self.busy &= !(1 << idx);
                    self.ready |= 1 << idx;
                }
            }
        }
        self.next_busy_expiry = next;
    }

    /// If no resident wavefront can issue at `now`, returns the earliest
    /// cycle at which one could become ready *on its own* — the soonest
    /// ALU-busy expiry — or `u64::MAX` when all are blocked on memory (or
    /// the core is drained). Returns `None` when some wavefront is ready
    /// now, i.e. the core is not inert.
    pub fn blocked_until(&mut self, now: Cycle) -> Option<Cycle> {
        self.expire_busy(now);
        (self.ready == 0).then_some(self.next_busy_expiry)
    }

    /// Advances one cycle. `mem_ready` tells the core whether its memory
    /// port (local L1 queue or NoC#1 injection port) can accept an
    /// instruction this cycle.
    ///
    /// Returns the memory instruction issued this cycle, if any. At most
    /// one instruction (ALU or memory) issues per cycle.
    ///
    /// A closed port (`mem_ready == false`) is attributed to
    /// [`MemBlock::OutboxDrain`]; callers that know the precise cause
    /// should use [`tick_blocked`](Core::tick_blocked) instead.
    pub fn tick(&mut self, now: Cycle, mem_ready: bool) -> Option<IssuedMem> {
        let block = if mem_ready { None } else { Some(MemBlock::OutboxDrain) };
        self.tick_blocked(now, block)
    }

    /// Advances one cycle. `block` is `None` when the memory port can
    /// accept an instruction this cycle, or the structural reason it
    /// cannot — which is charged to the stall breakdown if a memory
    /// instruction was ready behind the closed port.
    ///
    /// The slots visited are the ready ones, in policy order; behind a
    /// closed port, only those not already known to hold a memory
    /// instruction. Any other slot's visit would have found it busy or
    /// waiting and moved on, so skipping it changes nothing.
    pub fn tick_blocked(&mut self, now: Cycle, block: Option<MemBlock>) -> Option<IssuedMem> {
        self.expire_busy(now);
        let candidates = if block.is_some() {
            self.ready & !self.mem_ready
        } else {
            self.ready
        };
        if candidates != 0 {
            match self.config.issue_policy {
                IssuePolicy::GreedyRoundRobin => {
                    // Rotated round robin: set bits at indices `rr..n` in
                    // ascending order, then `0..rr` — the order of
                    // `(rr + k) % n`. `rr < n <= 64`, so the shift is in
                    // range.
                    let high = candidates & (!0u64 << self.rr);
                    for mut m in [high, candidates & !high] {
                        while m != 0 {
                            let idx = m.trailing_zeros() as usize;
                            m &= m - 1;
                            if let Some(issued) = self.visit_slot(idx, now, block.is_some()) {
                                return issued;
                            }
                        }
                    }
                }
                IssuePolicy::GreedyThenOldest => {
                    // Last issuer first (greediness), then the remaining
                    // candidates oldest-first. Built in `order_buf` and
                    // sorted in place — no per-scan allocation; ages are
                    // unique, so the order is total.
                    self.order_buf.clear();
                    let last = self.last_issued.filter(|&l| candidates & (1 << l) != 0);
                    self.order_buf.extend(last);
                    let tail = self.order_buf.len();
                    let mut m = candidates & !last.map_or(0, |l| 1u64 << l);
                    while m != 0 {
                        self.order_buf.push(m.trailing_zeros() as usize);
                        m &= m - 1;
                    }
                    let ages = &self.slot_age;
                    self.order_buf[tail..].sort_unstable_by_key(|&i| ages[i]);
                    for k in 0..self.order_buf.len() {
                        if let Some(issued) =
                            self.visit_slot(self.order_buf[k], now, block.is_some())
                        {
                            return issued;
                        }
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.debug_assert_masks();
        // Nothing issued: every ready slot left holds a memory instruction
        // the closed port turned away, if any is left.
        match block {
            Some(cause) if self.mem_ready != 0 => self.count_mem_stall(cause, 1),
            _ => self.count_idle(1),
        }
        None
    }

    /// Visits ready slot `idx` during an issue scan: retires a finished
    /// wavefront, or issues its next instruction — `Some` ends the scan,
    /// with the memory instruction if it was one — unless a closed port
    /// (`blocked`) turns a memory instruction away.
    #[inline]
    fn visit_slot(&mut self, idx: usize, now: Cycle, blocked: bool) -> Option<Option<IssuedMem>> {
        let wf = self.slots[idx].as_mut().expect("ready slot is occupied");
        let issued = match wf.peek() {
            WavefrontInstr::Done => {
                wf.set_finished();
                self.retire_slot(idx);
                return None;
            }
            WavefrontInstr::Mem(_) if blocked => {
                self.mem_ready |= 1 << idx;
                return None;
            }
            WavefrontInstr::Alu { .. } => {
                let WavefrontInstr::Alu { latency } = wf.take() else { unreachable!() };
                let until = now + 1 + latency as Cycle;
                wf.set_busy(until);
                self.busy |= 1 << idx;
                self.next_busy_expiry = self.next_busy_expiry.min(until);
                None
            }
            WavefrontInstr::Mem(_) => {
                let WavefrontInstr::Mem(instr) = wf.take() else { unreachable!() };
                debug_assert!(!instr.accesses.is_empty(), "memory instruction with no accesses");
                wf.set_waiting(u32::try_from(instr.accesses.len()).expect("coalesced count"));
                self.waiting_wavefronts += 1;
                self.stats.mem_instructions.inc();
                Some(IssuedMem {
                    core: self.id,
                    wavefront: WavefrontId::new(idx),
                    instr,
                })
            }
        };
        self.ready &= !(1 << idx);
        self.mem_ready &= !(1 << idx);
        self.stats.instructions.inc();
        self.rr = (idx + 1) % self.slots.len();
        self.last_issued = Some(idx);
        Some(issued)
    }

    fn retire_slot(&mut self, idx: usize) {
        self.slots[idx] = None;
        self.ready &= !(1 << idx);
        self.resident_wavefronts -= 1;
        if self.last_issued == Some(idx) {
            self.last_issued = None;
        }
        let cta = self.slot_cta[idx].take();
        // When the last wavefront of a CTA retires, free the CTA slot.
        if let Some(cta) = cta {
            if !self.slot_cta.contains(&Some(cta)) {
                self.resident_ctas -= 1;
            }
        }
    }

    /// Completes one memory transaction for `wavefront`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty or not waiting on memory (a routing bug
    /// in the enclosing simulator).
    pub fn complete_access(&mut self, wavefront: WavefrontId) {
        let wf = self.slots[wavefront.index()]
            .as_mut()
            .expect("memory completion for an empty wavefront slot");
        if wf.complete_access() {
            // `WaitingMem → Ready`.
            self.waiting_wavefronts -= 1;
            self.ready |= 1 << wavefront.index();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{MemAccess, MemInstr, MemKind};
    use crate::trace::VecTrace;
    use dcl1_common::LineAddr;

    fn load(lines: &[u64]) -> WavefrontInstr {
        WavefrontInstr::Mem(MemInstr {
            kind: MemKind::Load,
            accesses: lines.iter().map(|&l| MemAccess { line: LineAddr::new(l), bytes: 128 }).collect(),
        })
    }

    fn core_with(traces: Vec<Vec<WavefrontInstr>>) -> Core {
        let mut c = Core::new(CoreId::new(0), CoreConfig { max_wavefronts: 8, max_ctas: 4, ..CoreConfig::default() });
        c.add_cta(
            0,
            traces.into_iter().map(|t| Box::new(VecTrace::new(t)) as Box<dyn TraceSource>).collect(),
        );
        c
    }

    #[test]
    fn issues_one_instr_per_cycle() {
        let mut c = core_with(vec![vec![
            WavefrontInstr::Alu { latency: 0 },
            WavefrontInstr::Alu { latency: 0 },
        ]]);
        assert!(c.tick(0, true).is_none());
        assert_eq!(c.stats().instructions.get(), 1);
        assert!(c.tick(1, true).is_none());
        assert_eq!(c.stats().instructions.get(), 2);
    }

    #[test]
    fn alu_latency_blocks_wavefront() {
        let mut c = core_with(vec![vec![
            WavefrontInstr::Alu { latency: 3 },
            WavefrontInstr::Alu { latency: 0 },
        ]]);
        c.tick(0, true);
        // Busy until cycle 4: nothing to issue at 1..3.
        for now in 1..4 {
            c.tick(now, true);
        }
        assert_eq!(c.stats().instructions.get(), 1);
        assert_eq!(c.stats().idle_cycles.get(), 3);
        c.tick(4, true);
        assert_eq!(c.stats().instructions.get(), 2);
    }

    #[test]
    fn mem_blocks_until_completion() {
        let mut c = core_with(vec![vec![load(&[1, 2]), WavefrontInstr::Alu { latency: 0 }]]);
        let m = c.tick(0, true).expect("mem issues");
        assert_eq!(m.instr.accesses.len(), 2);
        let wf = m.wavefront;
        assert!(c.tick(1, true).is_none());
        c.complete_access(wf);
        assert!(c.tick(2, true).is_none(), "still one access outstanding");
        c.complete_access(wf);
        c.tick(3, true);
        assert_eq!(c.stats().instructions.get(), 2);
    }

    #[test]
    fn latency_hiding_across_wavefronts() {
        // Two wavefronts: while one waits on memory the other issues ALU.
        let mut c = core_with(vec![
            vec![load(&[1])],
            vec![WavefrontInstr::Alu { latency: 0 }, WavefrontInstr::Alu { latency: 0 }],
        ]);
        let m = c.tick(0, true).expect("wf0 mem");
        assert!(c.tick(1, true).is_none()); // wf1 ALU issues
        assert_eq!(c.stats().instructions.get(), 2);
        c.complete_access(m.wavefront);
        c.tick(2, true);
        assert_eq!(c.stats().instructions.get(), 3);
        assert_eq!(c.stats().idle_cycles.get(), 0);
    }

    #[test]
    fn mem_backpressure_counts_stall_and_tries_alu() {
        let mut c = core_with(vec![vec![load(&[1])], vec![WavefrontInstr::Alu { latency: 0 }]]);
        // Port blocked: the load can't go, the ALU wavefront must issue.
        assert!(c.tick(0, false).is_none());
        assert_eq!(c.stats().instructions.get(), 1);
        // Next cycle only the load remains and the port is still blocked.
        assert!(c.tick(1, false).is_none());
        assert_eq!(c.stats().mem_stall_cycles.get(), 1);
        // Port opens.
        assert!(c.tick(2, true).is_some());
    }

    #[test]
    fn cta_accounting_frees_slots() {
        let mut c = Core::new(CoreId::new(1), CoreConfig { max_wavefronts: 4, max_ctas: 2, ..CoreConfig::default() });
        assert!(c.can_host_cta(2));
        c.add_cta(7, vec![
            Box::new(VecTrace::new(vec![])) as Box<dyn TraceSource>,
            Box::new(VecTrace::new(vec![])) as Box<dyn TraceSource>,
        ]);
        assert_eq!(c.resident_ctas(), 1);
        // Both wavefronts retire on first tick (empty traces).
        c.tick(0, true);
        assert_eq!(c.resident_ctas(), 0);
        assert!(c.is_drained());
    }

    #[test]
    fn gto_sticks_with_the_same_wavefront() {
        // Two wavefronts with ALU work: GTO should drain the first one
        // completely before touching the second.
        let mut c = Core::new(
            CoreId::new(0),
            CoreConfig {
                max_wavefronts: 4,
                max_ctas: 2,
                issue_policy: IssuePolicy::GreedyThenOldest,
            },
        );
        c.add_cta(
            0,
            vec![
                Box::new(VecTrace::new(vec![load(&[1]), WavefrontInstr::Alu { latency: 0 }]))
                    as Box<dyn TraceSource>,
                Box::new(VecTrace::new(vec![WavefrontInstr::Alu { latency: 0 }; 3]))
                    as Box<dyn TraceSource>,
            ],
        );
        // wf0 issues its load first (oldest), then blocks; wf1 runs.
        let m = c.tick(0, true).expect("wf0 load");
        assert_eq!(m.wavefront.index(), 0);
        for now in 1..4 {
            assert!(c.tick(now, true).is_none()); // wf1 ALU
        }
        assert_eq!(c.stats().instructions.get(), 4);
        // Completing wf0 makes it ready; GTO picks it by age.
        c.complete_access(m.wavefront);
        c.tick(5, true);
        assert_eq!(c.stats().instructions.get(), 5);
    }

    #[test]
    fn gto_and_rr_issue_the_same_total_work() {
        for policy in [IssuePolicy::GreedyRoundRobin, IssuePolicy::GreedyThenOldest] {
            let mut c = Core::new(
                CoreId::new(0),
                CoreConfig { max_wavefronts: 8, max_ctas: 4, issue_policy: policy },
            );
            c.add_cta(
                0,
                (0..4)
                    .map(|_| {
                        Box::new(VecTrace::new(vec![WavefrontInstr::Alu { latency: 1 }; 5]))
                            as Box<dyn TraceSource>
                    })
                    .collect(),
            );
            let mut now = 0;
            while !c.is_drained() {
                now += 1;
                c.tick(now, true);
                assert!(now < 10_000);
            }
            assert_eq!(c.stats().instructions.get(), 20, "{policy:?}");
        }
    }

    #[test]
    fn stall_breakdown_accounts_every_non_issue_cycle() {
        let mut c = core_with(vec![vec![
            WavefrontInstr::Alu { latency: 2 },
            load(&[1]),
            WavefrontInstr::Alu { latency: 0 },
        ]]);
        let mut issued_mem = None;
        for now in 0..12u64 {
            // The load reaches the head at cycle 3 (after the latency-2
            // ALU shadow); keep the port closed for its first two tries.
            let blocked = (3..5).contains(&now);
            let block = if blocked { Some(MemBlock::Noc) } else { None };
            if let Some(m) = c.tick_blocked(now, block) {
                issued_mem = Some(m);
            }
            if now == 8 {
                c.complete_access(issued_mem.take().expect("load issued by now").wavefront);
                assert_eq!(c.waiting_wavefronts(), 0);
            }
            let s = c.stats();
            // Every elapsed cycle is exactly one of issue/idle/mem-stall,
            // and the breakdown tiles the non-issue cycles.
            assert_eq!(
                s.instructions.get() + s.idle_cycles.get() + s.mem_stall_cycles.get(),
                now + 1,
                "cycle {now}"
            );
            assert_eq!(
                s.stall.total(),
                s.idle_cycles.get() + s.mem_stall_cycles.get(),
                "cycle {now}"
            );
        }
        let s = *c.stats();
        assert!(c.is_drained());
        assert_eq!(s.instructions.get(), 3);
        assert_eq!(s.stall.alu_busy.get(), 2, "ALU latency-2 shadow");
        assert_eq!(s.stall.mem_noc.get(), 2, "cycles 3-4 port closed");
        assert!(s.stall.fill_wait.get() >= 2, "load outstanding 6..=8");
        assert!(s.stall.drained.get() >= 1, "tail after wavefront retires");
        assert_eq!(s.stall.mem_outbox.get(), 0);
        assert_eq!(s.stall.mem_l1_queue.get(), 0);
    }

    #[test]
    fn add_idle_cycles_classifies_like_tick() {
        // Drained core: skipped cycles land in `drained`.
        let mut c = core_with(vec![vec![]]);
        c.tick(0, true); // retires the empty wavefront (1 drained cycle)
        c.add_idle_cycles(10);
        assert_eq!(c.stats().stall.drained.get(), 11);
        // Core with a memory waiter: skipped cycles land in `fill_wait`.
        let mut c = core_with(vec![vec![load(&[1])]]);
        c.tick(0, true).expect("load issues");
        c.add_idle_cycles(5);
        assert_eq!(c.stats().stall.fill_wait.get(), 5);
        assert_eq!(c.waiting_wavefronts(), 1);
        assert_eq!(c.resident_wavefronts(), 1);
        let s = c.stats();
        assert_eq!(s.stall.total(), s.idle_cycles.get() + s.mem_stall_cycles.get());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overfull_cta_panics() {
        let mut c = Core::new(CoreId::new(0), CoreConfig { max_wavefronts: 1, max_ctas: 1, ..CoreConfig::default() });
        c.add_cta(0, vec![
            Box::new(VecTrace::new(vec![])) as Box<dyn TraceSource>,
            Box::new(VecTrace::new(vec![])) as Box<dyn TraceSource>,
        ]);
    }
}
