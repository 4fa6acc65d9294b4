//! Execution domains of the cycle-level machine.
//!
//! [`crate::machine::GpuSystem`] partitions its cores, DC-L1 nodes, NoC#1
//! crossbars and L2 slices into [`ShardDomain`]s, always on cluster
//! boundaries: a core, the NoC#1 crossbars it injects into and every DC-L1
//! node it can reach share one domain, so no core↔DC-L1 flit ever crosses
//! a domain. Each simulated cycle is a sequence of *regions* — per-domain
//! work that touches only one domain's state — with the all-to-all
//! structures (NoC#2, DRAM, presence replay) stepped in global component
//! order between them. The machine runs every region on its own thread,
//! domain after domain in domain order.
//!
//! The partition is semantics-neutral by construction — see
//! `GpuSystem::set_shards` for the determinism argument.

use crate::design::{Attachment, Topology};
use crate::node::Dcl1Node;
use crate::presence::{PresenceLog, PresenceMap, PresenceSession};
use crate::sleep::{alarm_id, Alarm, Census, SliceOffers, Visit};
use crate::txn::Txn;
use dcl1_common::stats::RunningMean;
use dcl1_common::{ActiveSet, Cycle, FlowMeter, Histogram, LineAddr, WakeWheel};
use dcl1_gpu::{Core, MemBlock, MemKind};
use dcl1_mem::L2Slice;
use dcl1_noc::{Crossbar, Packet};
use dcl1_obs::profiler::Phase;
use dcl1_obs::Observer;
use std::collections::VecDeque;

/// Static name of a transaction kind for trace span args.
pub(crate) fn kind_str(kind: MemKind) -> &'static str {
    match kind {
        MemKind::Load => "load",
        MemKind::Store => "store",
        MemKind::Atomic => "atomic",
        MemKind::Aux => "aux",
    }
}

/// Request data bytes on NoC#1/NoC#2 toward the memory side.
pub(crate) fn down_bytes(txn: &Txn) -> u32 {
    match txn.kind {
        MemKind::Load | MemKind::Aux => 0,
        MemKind::Store | MemKind::Atomic => txn.bytes,
    }
}

/// Reply data bytes toward the core.
pub(crate) fn up_bytes(txn: &Txn) -> u32 {
    match txn.kind {
        MemKind::Load | MemKind::Aux | MemKind::Atomic => txn.bytes,
        MemKind::Store => 0,
    }
}

/// Immutable machine facts shared by every domain.
#[derive(Debug)]
pub(crate) struct MachineCtx {
    /// The resolved topology (routing, cluster shapes, tick ratios).
    pub topo: Topology,
    /// Total cores in the machine (transaction-id construction).
    pub cores_total: u64,
    /// Effective flit width (config flit bytes × topology multiplier).
    pub flit_bytes: u32,
    /// `topo.cores_per_cluster()` and `topo.nodes_per_cluster()`: read per
    /// transaction, so divided once.
    pub cpc: usize,
    pub m: usize,
}

impl MachineCtx {
    /// Builds a packet using the effective flit width.
    pub(crate) fn packet(&self, src: usize, dst: usize, data_bytes: u32, txn: Txn) -> Packet<Txn> {
        Packet { src, dst, flits: 1 + data_bytes.div_ceil(self.flit_bytes), payload: txn }
    }
}

/// Per-core round-trip-time meters.
///
/// Kept per core (not per machine) so completions recorded by different
/// domains merge into machine-level means in a fixed order — global core
/// order — independent of the shard count.
#[derive(Debug, Default, Clone)]
pub(crate) struct CoreMeter {
    pub load_rtt: RunningMean,
    pub hit_rtt: RunningMean,
    pub miss_rtt: RunningMean,
    pub rtt_hist: Histogram,
}

/// One per-domain slice of a simulated cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Region {
    /// Core issue, then outbox heads into this domain's NoC#1 request
    /// crossbars / node Q1.
    Issue,
    /// NoC#1 ticks with domain-local ejection/completion.
    Noc1,
    /// L2 slice ticks, DC-L1 node ticks (presence via session log) and
    /// the node-reply drain.
    Mem,
}

impl Region {
    /// The profiler phase this region's time is attributed to.
    pub(crate) fn phase(self) -> Phase {
        match self {
            Region::Issue => Phase::Issue,
            Region::Noc1 => Phase::Noc1,
            Region::Mem => Phase::Mem,
        }
    }
}

/// One shard's slice of the machine: a contiguous range of cores (with
/// their outboxes, meters and transaction sequencers), DC-L1 nodes, NoC#1
/// cluster crossbars and L2 slices, plus the presence log replayed after
/// the cycle's Mem region.
///
/// The per-cycle walks visit only the components in the `*_live` sets
/// (local indices). A walk takes a component out when every further visit
/// is a foregone conclusion — it holds nothing, only a timer, or only
/// work something refused — with the one event that can end that armed;
/// whoever causes the event puts it back, first clocking it through the
/// cycles it slept and crediting what their ticks would have counted
/// (DESIGN.md "Who wakes whom").
#[derive(Debug)]
pub(crate) struct ShardDomain {
    /// First global core index in this domain.
    pub core0: usize,
    /// First global node index.
    pub node0: usize,
    /// First global NoC#1 cluster index.
    pub cluster0: usize,
    /// First global L2 slice index.
    pub slice0: usize,

    pub cores: Vec<Core>,
    /// Cores to visit: the next tick is not predetermined, or the outbox
    /// has a head to offer. A core outside is [`Core::inert`] and owes the
    /// ticks since `parked_at` (its last accounted cycle), paid on wake.
    pub cores_live: ActiveSet,
    pub parked_at: Vec<Cycle>,
    /// Per-core coalesced transactions awaiting injection.
    pub outbox: Vec<VecDeque<Txn>>,
    /// Outboxes whose head found its port full: offered again only once
    /// that port frees a slot.
    pub outbox_wait: ActiveSet,
    /// Outcome of each core's most recent outbox-drain attempt (memoized
    /// stall attribution; meaningful only while the outbox is non-empty).
    pub outbox_cause: Vec<MemBlock>,
    /// Per-core issue counters: core `c`'s `k`-th transaction gets id
    /// `k * cores_total + c + 1`, globally unique and independent of the
    /// partition.
    pub txn_seq: Vec<u64>,
    /// Per-core RTT meters (merged in global core order at collection).
    pub meters: Vec<CoreMeter>,
    pub nodes: Vec<Dcl1Node>,
    /// Nodes a tick or an offer can move something in.
    pub nodes_live: ActiveSet,
    /// Nodes whose Q3 head NoC#2 refused: offered again only once the
    /// input it awaits is granted.
    pub q3_wait: ActiveSet,
    /// Nodes with a Q3 head on offer to NoC#2: Q3 non-empty and not
    /// waiting. Set at the node's visit of the Mem region, the cycle's
    /// last; the Q3 walk visits only these.
    pub q3_offer: ActiveSet,
    pub noc1_req: Vec<Crossbar<Txn>>,
    pub noc1_rep: Vec<Crossbar<Txn>>,
    /// NoC#1 crossbars a tick or an ejection can move a packet in: cluster
    /// `k`'s request crossbar is `2k`, its reply crossbar `2k + 1`.
    pub xbars_live: ActiveSet,
    /// Request crossbars whose every packet is parked at a node with a full
    /// Q1: ticked again once a node of the cluster has room.
    pub xbars_wait: ActiveSet,
    pub l2: Vec<L2Slice<Txn>>,
    /// The slice walks' offer sets: a slice on none of them sleeps.
    pub slices: SliceOffers,
    /// Alarms, by cycle, of the cores, nodes and slices waiting on a
    /// timer.
    pub wheel: WakeWheel,

    /// Presence deltas accumulated by this domain's node ticks, replayed
    /// into the machine's map after the Mem region (in domain order).
    pub plog: PresenceLog,
    /// Transaction conservation: produced at issue, consumed at
    /// completion. A transaction issues and completes at the same core,
    /// so the meter is domain-local.
    pub flow: FlowMeter,
    pub visits: Census,
}

impl ShardDomain {
    /// A domain over the given components, every one of them awake.
    pub(crate) fn new(
        (core0, node0, cluster0, slice0): (usize, usize, usize, usize),
        cores: Vec<Core>,
        nodes: Vec<Dcl1Node>,
        noc1_req: Vec<Crossbar<Txn>>,
        noc1_rep: Vec<Crossbar<Txn>>,
        l2: Vec<L2Slice<Txn>>,
        flow: FlowMeter,
    ) -> Self {
        let n = cores.len();
        ShardDomain {
            core0,
            node0,
            cluster0,
            slice0,
            cores_live: ActiveSet::full(n),
            parked_at: vec![0; n],
            outbox: (0..n).map(|_| VecDeque::new()).collect(),
            outbox_wait: ActiveSet::new(n),
            outbox_cause: vec![MemBlock::OutboxDrain; n],
            txn_seq: vec![0; n],
            meters: vec![CoreMeter::default(); n],
            cores,
            nodes_live: ActiveSet::full(nodes.len()),
            q3_wait: ActiveSet::new(nodes.len()),
            q3_offer: ActiveSet::full(nodes.len()),
            nodes,
            xbars_live: ActiveSet::full(2 * noc1_req.len()),
            xbars_wait: ActiveSet::new(2 * noc1_req.len()),
            noc1_req,
            noc1_rep,
            slices: SliceOffers::full(l2.len()),
            l2,
            wheel: WakeWheel::new(),
            plog: PresenceLog::new(),
            flow,
            visits: Census::default(),
        }
    }

    /// Executes one region against this domain only.
    pub(crate) fn run_region(
        &mut self,
        region: Region,
        now: Cycle,
        ctx: &MachineCtx,
        presence: &PresenceMap,
        obs: &mut Observer,
    ) {
        match region {
            Region::Issue => self.region_issue(now, ctx, obs),
            Region::Noc1 => self.region_noc1(now, ctx, obs),
            Region::Mem => self.region_mem(now, ctx, presence, obs),
        }
    }

    /// One pass over the cores that can act: core issue (one instruction
    /// per core per cycle) into the core's outbox, then that outbox's head
    /// into this domain's NoC#1 / node Q1. Core `j`'s issue never reads
    /// core `i`'s injection, so the fused pass orders every shared port's
    /// arrivals exactly as issue-all-then-inject-all did.
    fn region_issue(&mut self, now: Cycle, ctx: &MachineCtx, obs: &mut Observer) {
        // The cycle's first pass: the timers that expire in it ring here.
        self.ring_alarms(now);
        debug_assert_eq!(self.check_sleepers(now, ctx), Ok(()));
        debug_assert_eq!(self.check_offers(), Ok(()));
        // Nothing wakes a core during the pass: the set can leave `self`.
        let mut live = std::mem::take(&mut self.cores_live);
        live.retain(|i| {
            let retired = self.cores[i].stats().instructions.get();
            self.issue(i, now, ctx, obs);
            self.visits.visit(Visit::Cores, self.cores[i].stats().instructions.get() != retired);
            if !self.outbox[i].is_empty() && !self.outbox_wait.contains(i) {
                self.inject_outbox_head(i, now, ctx, obs);
            }
            // Park a core with no head left to offer whose ticks are
            // predetermined: nothing ready, or only memory instructions
            // ready behind a head that waits, until an alarm at its
            // earliest ALU expiry — unless that is the next cycle anyway.
            let (core, waits) = (&self.cores[i], self.outbox_wait.contains(i));
            let expiry = core.next_busy_expiry();
            let parks = (waits || self.outbox[i].is_empty())
                && core
                    .inert()
                    .is_some_and(|port_blocked| !port_blocked || waits)
                && expiry > now + 1;
            if self.visits.park(Visit::Cores, parks, core.is_drained()) {
                self.parked_at[i] = now;
                if expiry != Cycle::MAX {
                    self.wheel.schedule(now, expiry, alarm_id(Alarm::Core, i));
                }
            }
            !parks
        });
        self.cores_live = live;
    }

    /// Ticks core `i`; a memory instruction it issues lands in its outbox.
    fn issue(&mut self, i: usize, now: Cycle, ctx: &MachineCtx, obs: &mut Observer) {
        // The memory port is closed exactly when the outbox is non-empty;
        // the cause was memoized by the last injection attempt.
        let block = self.outbox[i].front().map(|_| self.outbox_cause[i]);
        let Some(issued) = self.cores[i].tick_blocked(now, block) else { return };
        let c = self.core0 + i;
        for a in &issued.instr.accesses {
            let id = self.txn_seq[i] * ctx.cores_total + c as u64 + 1;
            self.txn_seq[i] += 1;
            let txn = Txn {
                id,
                core: issued.core,
                wavefront: issued.wavefront,
                line: a.line,
                bytes: a.bytes,
                kind: issued.instr.kind,
                issued_at: now,
                l1_hit: false,
            };
            if obs.tracing() {
                obs.trace_begin(txn.id, now, c as u64, kind_str(txn.kind), txn.line.raw());
            }
            self.flow.produce(1);
            self.outbox[i].push_back(txn);
        }
    }

    /// Offers outbox `i`'s head to its cluster's NoC#1 request crossbar or
    /// directly to node Q1, memoizing why it could not (or could only
    /// just) move so issue can attribute the next port stall without
    /// re-probing the network. Both targets are in this domain. A refused
    /// head waits for its port to free a slot; nothing else lets it move.
    fn inject_outbox_head(&mut self, i: usize, now: Cycle, ctx: &MachineCtx, obs: &mut Observer) {
        let txn = *self.outbox[i].front().expect("an outbox on the walk has a head");
        let c = self.core0 + i;
        let (k, src) = (c / ctx.cpc, c % ctx.cpc);
        let cause = match ctx.topo.attachment {
            Attachment::Direct => {
                let ni = k * ctx.m + txn.line.interleave(ctx.m) - self.node0;
                if self.nodes[ni].can_accept_request() {
                    obs.trace_hop(txn.id, "l1_queue", now);
                    self.wake_node(ni, now - 1);
                    self.nodes[ni]
                        .try_push_request(txn)
                        .unwrap_or_else(|_| unreachable!("checked room"));
                    MemBlock::OutboxDrain
                } else {
                    MemBlock::L1Queue
                }
            }
            Attachment::Noc1 { .. } => {
                // Room before route: a refused head never pays for its
                // home-node lookup.
                let ki = k - self.cluster0;
                if self.noc1_req[ki].can_inject(src) {
                    let slot = txn.line.interleave(ctx.m);
                    obs.trace_hop(txn.id, "noc1_req", now);
                    self.wake_xbar(2 * ki, now - 1, ctx);
                    self.noc1_req[ki]
                        .try_inject(ctx.packet(src, slot, down_bytes(&txn), txn))
                        .unwrap_or_else(|_| unreachable!("checked room"));
                    MemBlock::OutboxDrain
                } else {
                    self.noc1_req[ki].await_grant(src);
                    MemBlock::Noc
                }
            }
        };
        if cause == MemBlock::OutboxDrain {
            self.outbox[i].pop_front();
        } else {
            self.outbox_wait.insert(i);
        }
        self.visits.visit(Visit::Outboxes, cause == MemBlock::OutboxDrain);
        self.outbox_cause[i] = cause;
    }

    /// NoC#1 ticks for this domain's crossbars that hold a packet, with
    /// request ejection into this domain's nodes and reply completion at
    /// this domain's cores. A grant frees an injection slot: the outbox
    /// head or the node's Q2 head waiting at that input can move. A
    /// crossbar left empty, or with nothing but packets its nodes have no
    /// room for, goes to sleep.
    fn region_noc1(&mut self, now: Cycle, ctx: &MachineCtx, obs: &mut Observer) {
        let (m, cpc) = (ctx.m, ctx.cpc);
        for _ in 0..ctx.topo.noc1_ticks_per_cycle() {
            // Nothing injects during the pass: the set can leave `self`.
            let mut live = std::mem::take(&mut self.xbars_live);
            live.retain(|xi| {
                let (ki, k) = (xi / 2, self.cluster0 + xi / 2);
                let flits = self.noc1(xi).lifetime_moved_flits();
                self.noc1(xi).tick();
                let mut acted = self.noc1(xi).lifetime_moved_flits() != flits;
                let mut at = 0;
                if xi.is_multiple_of(2) {
                    for src in self.noc1_req[ki].take_granted() {
                        self.retry_outbox(k * cpc + src - self.core0, now);
                    }
                    // Eject requests into node Q1 (respecting Q1 room),
                    // from the ports that hold any.
                    while let Some(slot) = self.noc1_req[ki].next_parked(at) {
                        at = slot + 1;
                        let ni = k * m + slot - self.node0;
                        while self.nodes[ni].can_accept_request() {
                            let Some(pkt) = self.noc1_req[ki].pop_output(slot) else { break };
                            obs.trace_hop(pkt.payload.id, "l1_queue", now);
                            self.wake_node(ni, now - 1);
                            self.nodes[ni]
                                .try_push_request(pkt.payload)
                                .unwrap_or_else(|_| unreachable!("checked room"));
                            acted = true;
                        }
                    }
                } else {
                    for src in self.noc1_rep[ki].take_granted() {
                        self.wake_node(k * m + src - self.node0, now - 1);
                    }
                    while let Some(port) = self.noc1_rep[ki].next_parked(at) {
                        at = port + 1;
                        while let Some(pkt) = self.noc1_rep[ki].pop_output(port) {
                            self.complete_at_core(pkt.payload, now, obs);
                            acted = true;
                        }
                    }
                }
                self.visits.visit(Visit::Xbars, acted);
                // Every node just refused what is parked for it, and no
                // tick can move anything else: `drain_replies` sees the
                // Q1 room that ends that.
                let waits = !acted && self.noc1(xi).waits_on_ejection();
                if self.visits.park(Visit::Xbars, waits, false) {
                    self.xbars_wait.insert(xi);
                }
                !(waits || self.noc1(xi).is_idle())
            });
            self.xbars_live = live;
        }
    }

    /// Ticks of the slices whose input has a head to serve (a reply queued
    /// behind none, or a DRAM access, puts the slice on that walk), then one pass
    /// over the nodes with work: the node's tick (presence reads from the
    /// cycle-start snapshot, writes to the domain log) and its reply drain
    /// — node `j`'s tick never reads what node `i`'s drain wrote. The
    /// cycle's last visit to a node: one that can do nothing more goes to
    /// sleep ([`node_sleeps`]), and whether its Q3 head is on offer is set.
    ///
    /// [`node_sleeps`]: ShardDomain::node_sleeps
    fn region_mem(
        &mut self,
        now: Cycle,
        ctx: &MachineCtx,
        presence: &PresenceMap,
        obs: &mut Observer,
    ) {
        let mut ticking = std::mem::take(&mut self.slices.tick);
        ticking.retain(|i| {
            let l2 = &mut self.l2[i];
            let brewing = l2.replies_pending() > 0;
            let served = l2.tick();
            self.visits.visit(Visit::Slices, served);
            let serves = self
                .slices
                .after_change(l2, &mut self.wheel, i, brewing, now);
            self.visits.park(
                Visit::Slices,
                !serves && self.slices.on_no_walk(i),
                l2.is_idle(),
            );
            serves
        });
        self.slices.tick = ticking;
        // Nothing wakes a node during the pass: the set can leave `self`.
        let mut live = std::mem::take(&mut self.nodes_live);
        live.retain(|ni| {
            let moved =
                self.nodes[ni].tick(&mut PresenceSession::new(presence, &mut self.plog), obs);
            let drained = self.drain_replies(ni, now, ctx, obs);
            self.visits.visit(Visit::Nodes, moved || drained);
            // Only a node whose tick moved nothing can have nothing to do.
            let awake = moved || !self.node_sleeps(ni, now, ctx);
            if self.nodes[ni].q3_len() > 0 && !self.q3_wait.contains(ni) {
                self.q3_offer.insert(ni);
            } else {
                self.q3_offer.remove(ni);
            }
            awake
        });
        self.nodes_live = live;
    }

    /// Node `ni`'s Q2 → core (direct) or NoC#1 reply injection,
    /// domain-local; whether a reply left. A head NoC#1 refuses waits for
    /// a grant of its input.
    fn drain_replies(
        &mut self,
        ni: usize,
        now: Cycle,
        ctx: &MachineCtx,
        obs: &mut Observer,
    ) -> bool {
        let n = self.node0 + ni;
        let (m, cpc) = (ctx.m, ctx.cpc);
        let mut drained = false;
        match ctx.topo.attachment {
            Attachment::Direct => {
                // A direct-attached L1 returns one reply per cycle at full
                // width; the ideal single L1 has one reply port per core.
                let pops = if ctx.topo.ideal_ports { ctx.cores_total } else { 1 };
                for _ in 0..pops {
                    let Some(txn) = self.nodes[ni].pop_reply() else { break };
                    self.complete_at_core(txn, now, obs);
                    drained = true;
                }
                // Q1 room (only the tick just run makes any) is what the
                // heads of cluster `n`'s cores wait for.
                if !self.outbox_wait.is_empty() && self.nodes[ni].can_accept_request() {
                    let c0 = n * cpc - self.core0;
                    for i in c0..c0 + cpc {
                        self.retry_outbox(i, now);
                    }
                }
            }
            Attachment::Noc1 { .. } => {
                let (ki, src) = (n / m - self.cluster0, n % m);
                // Q1 room (only the tick just run makes any) is what the
                // cluster's request crossbar waits for, if it holds a
                // packet for this node: after this cycle's NoC#1 ticks.
                let room = self.xbars_wait.contains(2 * ki) && self.nodes[ni].can_accept_request();
                if room && self.noc1_req[ki].peek_output(src).is_some() {
                    self.wake_xbar(2 * ki, now, ctx);
                }
                match self.nodes[ni].peek_reply() {
                    None => {}
                    Some(_) if self.noc1_rep[ki].can_inject(src) => {
                        let txn = self.nodes[ni].pop_reply().expect("peeked Some");
                        obs.trace_hop(txn.id, "noc1_rep", now);
                        let pkt = ctx.packet(src, txn.core.index() % cpc, up_bytes(&txn), txn);
                        self.wake_xbar(2 * ki + 1, now, ctx);
                        self.noc1_rep[ki]
                            .try_inject(pkt)
                            .unwrap_or_else(|_| unreachable!("checked room"));
                        drained = true;
                    }
                    Some(_) => self.noc1_rep[ki].await_grant(src),
                }
            }
        }
        drained
    }

    /// Retires a transaction at its issuing core (always in this domain:
    /// a transaction issues and completes at the same core).
    pub(crate) fn complete_at_core(&mut self, txn: Txn, now: Cycle, obs: &mut Observer) {
        self.flow.consume(1);
        obs.trace_end(txn.id, now);
        let ci = txn.core.index() - self.core0;
        if txn.kind == MemKind::Load {
            let rtt = (now - txn.issued_at) as f64;
            let meter = &mut self.meters[ci];
            meter.load_rtt.record(rtt);
            meter.rtt_hist.record(now - txn.issued_at);
            if txn.l1_hit {
                meter.hit_rtt.record(rtt);
            } else {
                meter.miss_rtt.record(rtt);
            }
        }
        // Completions arrive after the cycle's issue pass.
        self.wake_core(ci, now);
        self.cores[ci].complete_access(txn.wavefront);
    }
}

// ---------------------------------------------------------------------
// Cross-domain accessors
// ---------------------------------------------------------------------
//
// Free functions (not methods) so a caller holding a disjoint borrow of
// another machine field can still reach into the domain vector. Linear
// scans over ≤ a handful of domains are cheaper than any index map.

/// The domain owning global core `c`.
pub(crate) fn domain_of_core(shards: &mut [ShardDomain], c: usize) -> &mut ShardDomain {
    shards
        .iter_mut()
        .find(|d| c >= d.core0 && c < d.core0 + d.cores.len())
        .unwrap_or_else(|| unreachable!("core {c} outside every domain"))
}

/// The domain owning global node `n`, and `n`'s index in it.
fn domain_of_node(shards: &mut [ShardDomain], n: usize) -> (&mut ShardDomain, usize) {
    let d = shards
        .iter_mut()
        .find(|d| n >= d.node0 && n < d.node0 + d.nodes.len())
        .unwrap_or_else(|| unreachable!("node {n} outside every domain"));
    let i = n - d.node0;
    (d, i)
}

/// Global node `n`, awake ([`ShardDomain::wake_node`]).
pub(crate) fn node_awake(shards: &mut [ShardDomain], n: usize, through: Cycle) -> &mut Dcl1Node {
    let (d, i) = domain_of_node(shards, n);
    d.wake_node(i, through);
    &mut d.nodes[i]
}

/// NoC#2 granted the input global node `n`'s Q3 head waited at: the head
/// is on offer again, the node awake.
pub(crate) fn retry_q3(shards: &mut [ShardDomain], n: usize, through: Cycle) {
    let (d, i) = domain_of_node(shards, n);
    d.q3_wait.remove(i);
    d.q3_offer.insert(i);
    d.wake_node(i, through);
}

/// The domain owning global L2 slice `s`, and `s`'s index in it.
pub(crate) fn domain_of_slice(shards: &mut [ShardDomain], s: usize) -> (&mut ShardDomain, usize) {
    let d = shards
        .iter_mut()
        .find(|d| s >= d.slice0 && s < d.slice0 + d.l2.len())
        .unwrap_or_else(|| unreachable!("slice {s} outside every domain"));
    let i = s - d.slice0;
    (d, i)
}

/// NoC#2 granted the input global L2 slice `s`'s stashed reply waited
/// at: the reply is on offer again.
pub(crate) fn retry_reply(shards: &mut [ShardDomain], s: usize) {
    let (d, i) = domain_of_slice(shards, s);
    d.slices.reply.insert(i);
}

/// DRAM returned `line` to global L2 slice `s` in cycle `now`, after the
/// cycle's slice walks: clocked through `now`, the slice takes the fill,
/// and whatever the fill gives it to offer is on offer — the input head
/// it unblocks, the reply it queues behind none, the dirty line it
/// evicts.
pub(crate) fn slice_filled(shards: &mut [ShardDomain], s: usize, line: LineAddr, now: Cycle) {
    let (d, i) = domain_of_slice(shards, s);
    d.clock_slice(i, now);
    let l2 = &mut d.l2[i];
    let brewing = l2.replies_pending() > 0;
    l2.dram_fill(line);
    if d.slices.after_change(l2, &mut d.wheel, i, brewing, now) {
        d.slices.tick.insert(i);
    }
}

/// The controller that refused global L2 slice `s`'s stashed DRAM access
/// dequeued: the access is on offer again.
pub(crate) fn retry_dram(shards: &mut [ShardDomain], s: usize) {
    let (d, i) = domain_of_slice(shards, s);
    d.slices.dram.insert(i);
}
