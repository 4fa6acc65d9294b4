//! Who sleeps, and who wakes whom (DESIGN.md "Who wakes whom").
//!
//! A per-cycle walk visits only the components in its occupancy set. A
//! component leaves when every further visit is a foregone conclusion — it
//! holds nothing, only a timer, or only work something refused — and the
//! one event that can end that is armed: a push, a crossbar grant, a
//! controller dequeue, Q1 room, or an alarm in the domain's wake wheel.
//! Whoever causes the event puts the component back, first clocking it
//! through the cycles it slept and crediting what their ticks would have
//! counted. An L2 slice has one such set per walk (tick, reply inject,
//! L2 → DRAM), each holding the slices with something for that walk, and
//! is clocked only when a walk needs its clock. This module is
//! [`ShardDomain`]'s half of that protocol — the wakes, the settling of
//! every sleeper for a reader of statistics, the node's park decision, the
//! invariant that no sleeper is left without a wake — and the visit
//! census that measures what the walks cost.

use crate::design::Attachment;
use crate::shard::{MachineCtx, ShardDomain};
use crate::txn::Txn;
use dcl1_common::{ActiveSet, Cycle, InvariantError, InvariantResult, WakeWheel};
use dcl1_mem::L2Slice;
use dcl1_noc::Crossbar;

/// The invariant error of a component with something to offer off the
/// walk that would take it.
pub(crate) fn off_walk(site: String) -> InvariantError {
    InvariantError::new(site, "has something to offer off its walk")
}

/// Component classes of the per-cycle visit tally (`debug_snapshot`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Visit {
    Cores,
    Outboxes,
    Xbars,
    Nodes,
    Slices,
    Channels,
}

/// Visits the walks made, by [`Visit`] class; how many of them moved
/// anything (the rest advanced a clock and at most counted a stall); and
/// how often a walk let a component that still held something go to sleep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Census {
    pub made: [u64; 6],
    pub acted: [u64; 6],
    pub parked: [u64; 6],
}

impl Census {
    #[inline]
    pub(crate) fn visit(&mut self, class: Visit, acted: bool) {
        self.made[class as usize] += 1;
        self.acted[class as usize] += u64::from(acted);
    }

    /// Whether a component sleeps, counting it if it sleeps on something.
    #[inline]
    pub(crate) fn park(&mut self, class: Visit, sleeps: bool, idle: bool) -> bool {
        self.parked[class as usize] += u64::from(sleeps && !idle);
        sleeps
    }

    pub(crate) fn merge(&mut self, other: &Census) {
        for class in 0..6 {
            self.made[class] += other.made[class];
            self.acted[class] += other.acted[class];
            self.parked[class] += other.parked[class];
        }
    }
}

/// A component index as a wake-wheel id.
#[expect(clippy::cast_possible_truncation)] // a machine holds far fewer than 2^31 of anything
pub(crate) fn wheel_id(i: usize) -> u32 {
    i as u32
}

/// Whose alarm a domain's wake wheel rings.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Alarm {
    /// An L2 slice's brewing reply.
    Slice,
    /// A DC-L1 node's maturing hit.
    Node,
    /// A core's earliest ALU-busy expiry.
    Core,
}

/// The id, in its domain's wake wheel, of the alarm of the `kind`
/// component with local index `i`.
pub(crate) fn alarm_id(kind: Alarm, i: usize) -> u32 {
    wheel_id(i) << 2 | kind as u32
}

/// The three slice walks' offer sets (local indices). A slice is on each
/// walk it has something for, and asleep when on none; whatever gives it
/// something puts it back. A walk takes its own set out while it runs, so
/// [`on_no_walk`](SliceOffers::on_no_walk) then asks about the other two.
#[derive(Debug)]
pub(crate) struct SliceOffers {
    /// Slices whose input a tick serves from (not
    /// [`L2Slice::input_blocked`]). A slice off this walk is clocked when
    /// a walk or a reader next needs its clock
    /// ([`ShardDomain::clock_slice`]).
    pub tick: ActiveSet,
    /// Slices with a reply to offer NoC#2: a head reply that pops at this
    /// cycle's inject, or a stashed one the fabric has not refused since
    /// its input's grant. Whatever changes the head arms it
    /// ([`head_reply_due`]): at once, or by the alarm of the cycle it pops.
    pub reply: ActiveSet,
    /// Slices with a DRAM access to offer: one queued with none stashed,
    /// or a stashed one the controller has not refused since its last
    /// dequeue.
    pub dram: ActiveSet,
}

impl SliceOffers {
    /// Every one of `slices` on every walk.
    pub(crate) fn full(slices: usize) -> Self {
        let all = ActiveSet::full(slices);
        SliceOffers {
            tick: all.clone(),
            reply: all.clone(),
            dram: all,
        }
    }

    /// Whether slice `i` is on no walk (but the one running, if any).
    pub(crate) fn on_no_walk(&self, i: usize) -> bool {
        !(self.tick.contains(i) || self.reply.contains(i) || self.dram.contains(i))
    }

    /// After a tick or a DRAM fill changed slice `i` in cycle `now`: puts
    /// it on the reply walk if it queued a reply behind none (`brewing`:
    /// one was queued before) that pops at the next inject — else arms
    /// the reply's alarm — and on the L2 → DRAM walk if it has an access
    /// queued. Returns whether its input has a head a tick serves.
    pub(crate) fn after_change(
        &mut self,
        l2: &L2Slice<Txn>,
        wheel: &mut WakeWheel,
        i: usize,
        brewing: bool,
        now: Cycle,
    ) -> bool {
        if !brewing && head_reply_due(l2, wheel, i, now) {
            self.reply.insert(i);
        }
        if l2.dram_out_len() > 0 {
            self.dram.insert(i);
        }
        !l2.input_blocked()
    }
}

/// Whether slice `i`'s head reply, with none stashed, pops at the next
/// inject — that of cycle `now + 1`, which sees the slice clocked through
/// `now` — and so belongs on the reply walk. If it brews longer, the
/// alarm for the cycle after it is ready is set instead. Called wherever
/// the head can change with nothing stashed: after an inject visit, and
/// when a tick or a fill queues a reply behind none.
pub(crate) fn head_reply_due(
    l2: &L2Slice<Txn>,
    wheel: &mut WakeWheel,
    i: usize,
    now: Cycle,
) -> bool {
    let Some(h) = l2.next_reply_in() else {
        return false;
    };
    let ready = l2.now() + h;
    if ready > now {
        wheel.schedule(now, ready + 1, alarm_id(Alarm::Slice, i));
    }
    ready <= now
}

impl ShardDomain {
    /// Puts core `i` back on the issue walk, first crediting the ticks it
    /// slept through `through`, the last cycle whose issue slot has passed.
    /// Call *before* the event that ends the core's inertia.
    pub(crate) fn wake_core(&mut self, i: usize, through: Cycle) {
        if self.cores_live.insert(i) {
            self.credit_parked(i, through);
        }
    }

    /// Clocks every sleeper through `now`, crediting what it is owed (it
    /// stays asleep): what a reader of statistics needs.
    pub(crate) fn settle(&mut self, now: Cycle, ctx: &MachineCtx) {
        for i in 0..self.cores.len() {
            if !self.cores_live.contains(i) {
                self.credit_parked(i, now);
            }
        }
        for (ni, node) in self.nodes.iter_mut().enumerate() {
            if !self.nodes_live.contains(ni) {
                node.skip_cycles(now - node.now());
            }
        }
        for i in 0..self.l2.len() {
            self.clock_slice(i, now);
        }
        let ticks = now * ctx.topo.noc1_ticks_per_cycle();
        for xi in 0..2 * self.noc1_req.len() {
            if !self.xbars_live.contains(xi) {
                let x = self.noc1(xi);
                x.skip_idle_ticks(ticks - x.now());
            }
        }
    }

    /// Idle cycles, or stalls behind the port its waiting head found closed.
    pub(crate) fn credit_parked(&mut self, i: usize, through: Cycle) {
        let block = self.outbox[i].front().map(|_| self.outbox_cause[i]);
        self.cores[i].add_inert_cycles(through - self.parked_at[i], block);
        self.parked_at[i] = through;
    }

    /// Puts node `ni` back on the node walks, clocked through `through`:
    /// `now - 1` from every producer (outbox heads, NoC#1 and NoC#2
    /// ejection all precede the cycle's node ticks).
    pub(crate) fn wake_node(&mut self, ni: usize, through: Cycle) {
        if self.nodes_live.insert(ni) {
            let node = &mut self.nodes[ni];
            node.skip_cycles(through - node.now());
        }
    }

    /// Clocks slice `i` through `through`, crediting the ticks the tick
    /// walk skipped (its input served nothing): `now - 1` for a request
    /// (NoC#2 ejection precedes the cycle's slice ticks) and for the
    /// reply inject (it precedes them too), `now` for a DRAM fill (it
    /// follows them).
    pub(crate) fn clock_slice(&mut self, i: usize, through: Cycle) {
        let l2 = &mut self.l2[i];
        if l2.now() < through {
            l2.skip_cycles(through - l2.now());
        }
    }

    /// NoC#1 crossbar `xi` of [`xbars_live`](ShardDomain::xbars_live).
    pub(crate) fn noc1(&mut self, xi: usize) -> &mut Crossbar<Txn> {
        if xi.is_multiple_of(2) { &mut self.noc1_req[xi / 2] } else { &mut self.noc1_rep[xi / 2] }
    }

    /// Puts NoC#1 crossbar `xi` back on the NoC#1 walk, clocked through
    /// cycle `through`'s ticks: `now - 1` for a request (outbox heads
    /// precede the cycle's NoC#1 ticks), `now` for a reply (the node drain
    /// follows them).
    pub(crate) fn wake_xbar(&mut self, xi: usize, through: Cycle, ctx: &MachineCtx) {
        if self.xbars_live.insert(xi) {
            self.xbars_wait.remove(xi);
            let x = self.noc1(xi);
            x.skip_idle_ticks(through * ctx.topo.noc1_ticks_per_cycle() - x.now());
        }
    }

    /// Wakes every component, each clocked (and credited) through `now`,
    /// and puts each on every walk that offers: the next step visits them
    /// all, as a machine with neither sleepers nor offer sets would.
    pub(crate) fn wake_all(&mut self, now: Cycle, ctx: &MachineCtx) {
        (0..self.cores.len()).for_each(|i| self.wake_core(i, now));
        (0..self.nodes.len()).for_each(|ni| self.wake_node(ni, now));
        (0..self.l2.len()).for_each(|i| self.clock_slice(i, now));
        (0..2 * self.noc1_req.len()).for_each(|xi| self.wake_xbar(xi, now, ctx));
        self.slices = SliceOffers::full(self.l2.len());
        self.q3_offer = ActiveSet::full(self.nodes.len());
        self.q3_wait.iter().for_each(|ni| self.q3_offer.remove(ni));
    }

    /// The port outbox `i`'s head waits on freed a slot: visit the core
    /// again, to offer the head (its stall cause may now change).
    pub(crate) fn retry_outbox(&mut self, i: usize, now: Cycle) {
        if self.outbox_wait.contains(i) {
            self.outbox_wait.remove(i);
            self.wake_core(i, now);
        }
    }

    /// Wakes the cores and nodes whose alarm rings in cycle `now`, ahead of
    /// its first pass, and puts the slices whose head reply it rings for
    /// on the reply walk.
    pub(crate) fn ring_alarms(&mut self, now: Cycle) {
        while let Some(id) = self.wheel.pop_due(now) {
            let i = (id >> 2) as usize;
            match id & 3 {
                1 => self.wake_node(i, now - 1),
                2 => self.wake_core(i, now - 1),
                _ => {
                    self.slices.reply.insert(i);
                }
            }
        }
    }

    /// Whether the head of each non-empty output queue of node `ni` waits
    /// for a grant: Q3's of its NoC#2 input, Q2's of its NoC#1 reply input
    /// (never, direct-attached: a reply leaves every cycle).
    fn outputs_wait(&self, ni: usize, ctx: &MachineCtx) -> bool {
        let (n, node) = (self.node0 + ni, &self.nodes[ni]);
        let q2_waits = || {
            matches!(ctx.topo.attachment, Attachment::Noc1 { .. })
                && self.noc1_rep[n / ctx.m - self.cluster0].awaits(n % ctx.m)
        };
        (node.q3_len() == 0 || self.q3_wait.contains(ni)) && (node.q2_len() == 0 || q2_waits())
    }

    /// Whether node `ni`, whose tick moved nothing, can leave the walks:
    /// it holds nothing; or only hits maturing, the first two or more
    /// cycles away (an alarm is set for that cycle); or it is
    /// [`blocked`](crate::node::Dcl1Node::blocked) with the head of each
    /// non-empty output queue waiting for a grant.
    pub(crate) fn node_sleeps(&mut self, ni: usize, now: Cycle, ctx: &MachineCtx) -> bool {
        let node = &self.nodes[ni];
        let horizon = node.quiescent_horizon();
        let sleeps = match horizon {
            Some(h) if h >= 2 => {
                if h != u64::MAX {
                    self.wheel
                        .schedule(now, node.now() + h, alarm_id(Alarm::Node, ni));
                }
                true
            }
            Some(_) => false,
            None => node.blocked() && self.outputs_wait(ni, ctx),
        };
        self.visits.park(Visit::Nodes, sleeps, horizon == Some(u64::MAX))
    }

    /// What the offer walks skip has nothing for them: a node outside
    /// `q3_offer` has an empty Q3, or its head awaits a grant; a slice
    /// off the tick walk has an input a tick serves nothing from.
    /// (The DRAM and reply offers are the coordinator's:
    /// `GpuSystem::check_slices`.)
    ///
    /// # Errors
    ///
    /// Returns the first component found with something to offer off its
    /// walk.
    pub(crate) fn check_offers(&self) -> InvariantResult {
        for (ni, node) in self.nodes.iter().enumerate() {
            if !self.q3_offer.contains(ni) && node.q3_len() > 0 && !self.q3_wait.contains(ni) {
                return Err(off_walk(format!("node{}", self.node0 + ni)));
            }
        }
        for (i, l2) in self.l2.iter().enumerate() {
            if !self.slices.tick.contains(i) && !l2.input_blocked() {
                return Err(off_walk(format!("l2_{}", self.slice0 + i)));
            }
        }
        Ok(())
    }

    /// Everything outside a set can do nothing, and what ends that is
    /// armed: a parked core is inert with no head to offer (a waiting one,
    /// if port-blocked), with an alarm at its earliest ALU expiry, and
    /// only non-empty outboxes wait; a sleeping node
    /// holds nothing, or only maturing hits with an alarm set, or is
    /// blocked behind grants it awaits; a sleeping NoC#1 crossbar is
    /// empty, or waits for the Q1 room of nodes that all refuse what it
    /// has parked for them; and no sleeper's clock — nor any slice's,
    /// clocked only when a walk needs it — is ahead of `now`. (What a
    /// slice off its walks waits on is the coordinator's:
    /// `GpuSystem::check_slices`.)
    ///
    /// # Errors
    ///
    /// Returns the first sleeper found with work pending or no wake armed.
    pub(crate) fn check_sleepers(&self, now: Cycle, ctx: &MachineCtx) -> InvariantResult {
        let fail = |site: String| Err(InvariantError::new(site, "asleep with work pending"));
        for (i, core) in self.cores.iter().enumerate() {
            let (empty, waits) = (self.outbox[i].is_empty(), self.outbox_wait.contains(i));
            let parked = !self.cores_live.contains(i);
            let inert = core.inert().is_some_and(|port_blocked| !port_blocked || waits);
            if (waits && empty) || (parked && !(inert && (empty || waits) && self.parked_at[i] <= now)) {
                return fail(format!("core{}", self.core0 + i));
            }
            let expiry = core.next_busy_expiry();
            let alarm = || self.wheel.is_set(now, expiry, alarm_id(Alarm::Core, i));
            if parked && expiry != Cycle::MAX && !alarm() {
                let site = format!("core{}", self.core0 + i);
                return Err(InvariantError::new(site, "asleep with no wake armed"));
            }
        }
        for (ni, node) in self.nodes.iter().enumerate() {
            let site = || format!("node{}", self.node0 + ni);
            if self.q3_wait.contains(ni) && node.q3_len() == 0 {
                return Err(InvariantError::new(site(), "awaits a grant with nothing to offer"));
            }
            if self.nodes_live.contains(ni) {
                continue;
            }
            let armed = match node.quiescent_horizon() {
                Some(u64::MAX) => true,
                Some(h) => self
                    .wheel
                    .is_set(now, node.now() + h, alarm_id(Alarm::Node, ni)),
                None if !node.blocked() => return fail(site()),
                None => self.outputs_wait(ni, ctx),
            };
            if node.now() > now {
                return fail(site());
            } else if !armed {
                return Err(InvariantError::new(site(), "asleep with no wake armed"));
            }
        }
        for (i, l2) in self.l2.iter().enumerate() {
            if l2.now() > now {
                return fail(format!("l2_{}", self.slice0 + i));
            }
        }
        let ticks = now * ctx.topo.noc1_ticks_per_cycle();
        for (xi, x) in self.noc1_req.iter().zip(&self.noc1_rep).flat_map(|(q, p)| [q, p]).enumerate() {
            let site = || format!("noc1_{}{}", ["req", "rep"][xi % 2], self.cluster0 + xi / 2);
            let (live, waits) = (self.xbars_live.contains(xi), self.xbars_wait.contains(xi));
            // Awake with a packet, waiting with every parked packet
            // refused, or empty.
            let node = |slot| &self.nodes[(self.cluster0 + xi / 2) * ctx.m + slot - self.node0];
            let refused = xi.is_multiple_of(2)
                && x.waits_on_ejection()
                && (0..ctx.m).all(|slot| x.peek_output(slot).is_none() || !node(slot).can_accept_request());
            if (waits && (live || !refused)) || x.now() > ticks {
                return fail(site());
            } else if !(live || waits || x.is_idle()) {
                return Err(InvariantError::new(site(), "asleep with no wake armed"));
            }
        }
        Ok(())
    }
}
