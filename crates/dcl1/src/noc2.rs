//! NoC#2: the fabric between the DC-L1 nodes and the L2 slices.
//!
//! This module owns one decision — *which shape NoC#2 takes for a design
//! and how a flit is routed through it*. The machine builds a [`Noc2`],
//! walks its crossbars for gauges and invariants, injects into it and
//! ticks it; it never learns the shape.
//!
//! ## Shapes
//!
//! | [`Noc2Kind`] | designs that resolve to it | first stage | second stage |
//! |---|---|---|---|
//! | `Single` | `Baseline` (and its boosts), `IdealSingleL1`, `ShY`/`ShY+CZ` whose nodes per cluster do not divide the slices (`Sh40`, `Sh80`) | one `sources × slices` crossbar; `sources` = nodes, or cores with ideal ports | — |
//! | `Sliced { groups: m }` | `PrY` (`m = 1`), every `ShY`/`ShY+CZ` whose `m` nodes per cluster divide the slices (`Sh16`, `Sh40+C10`, the flagship) | `m` crossbars `clusters × slices/m`, one per home slot (paper Fig 10) | — |
//! | `TwoStage` | `CDXBar`, `CDXBar+2xNoC1`, `CDXBar+2xNoC` (Fig 19a) | `groups` concentrators `cores/groups × uplinks` | one `groups·uplinks × slices` crossbar |
//!
//! Sizes are for the request direction; the reply direction mirrors them.
//! A request enters at the first stage and leaves, toward the L2, from the
//! last; a reply enters at the last stage and leaves, toward the nodes,
//! from the first.
//!
//! ## Ownership
//!
//! [`Noc2`] owns both directions, the NoC#2 clocks (first stage at
//! `noc_mhz × noc2_freq_mult`, or `× stage1_mult` under CDXBar, whose
//! second stage has its own) and the per-slice reply stash: a reply popped
//! from an L2 slice waits there until the fabric has room, ahead of that
//! slice's newer replies.
//!
//! ## Who is clocked
//!
//! Only a crossbar holding a packet is ticked (`live`); an injection puts
//! one back, first clocking it through the ticks it slept. A producer the
//! fabric refuses is not offered again until the fabric reports the grant
//! of its input ([`Crossbar::await_grant`] / `take_granted`): a node's Q3
//! head waits in its domain's `q3_wait`, off `q3_offer`; a slice's stashed
//! reply on the crossbar's own awaited mask ([`Noc2::stash_offers`]), off
//! the reply walk's offer set.
//!
//! ## Never sharded
//!
//! NoC#2 is the machine's one all-to-all structure: every node reaches
//! every slice, so both ends of each crossbar span shard domains. The
//! coordinator therefore steps it between the regions, in global component
//! order, which is what keeps statistics independent of the partition.

use crate::config::GpuConfig;
use crate::design::{Noc2Kind, Topology};
use crate::shard::{self, MachineCtx, ShardDomain};
use crate::sleep::{head_reply_due, Visit};
use crate::txn::Txn;
use dcl1_common::{ActiveSet, ClockDomain, Cycle, InvariantError, InvariantResult};
use dcl1_gpu::MemKind;
use dcl1_mem::{L2Request, MemAccessKind};
use dcl1_noc::{Crossbar, Packet};
use dcl1_obs::Observer;
use std::sync::Arc;

/// The CDXBar comparator's slice-side stage.
#[derive(Debug)]
struct Stage2 {
    req: Crossbar<Txn>,
    rep: Crossbar<Txn>,
    clock: ClockDomain,
}

/// Both directions of NoC#2, with their clocks and the reply stash.
#[derive(Debug)]
pub(crate) struct Noc2 {
    ctx: Arc<MachineCtx>,
    slices: usize,
    /// Reply data bytes of a load: a full line fill.
    line_bytes: u32,
    /// Node-side request crossbars: the whole fabric for `Single` (one)
    /// and `Sliced` (one per home slot), the concentrators for `TwoStage`.
    req: Vec<Crossbar<Txn>>,
    /// Their reply-direction mirrors.
    rep: Vec<Crossbar<Txn>>,
    /// First-stage clock.
    clock: ClockDomain,
    stage2: Option<Stage2>,
    /// Per node, where its requests enter ([`request_port`]): a refused
    /// Q3 head retries without re-deriving it.
    req_port: Vec<(usize, usize)>,
    /// Reply popped from a slice but not yet injected, already routed:
    /// `(first-stage crossbar, packet)`.
    stash: Vec<Option<(usize, Packet<Txn>)>>,
    /// Crossbars holding a packet, numbered `req`, then `rep`, then the
    /// second stage's request and reply crossbars.
    live: ActiveSet,
}

/// Puts crossbar `x`, number `idx` of `live`, back on the tick walks,
/// clocked through `ticks` — its stage's ticks before the current cycle's:
/// every injection precedes the cycle's ticks of the crossbar it enters.
fn wake(live: &mut ActiveSet, idx: usize, x: &mut Crossbar<Txn>, ticks: u64) {
    if live.insert(idx) {
        x.skip_idle_ticks(ticks - x.now());
    }
}

/// Where node `n`'s requests enter: `(first-stage crossbar, input port)`.
/// (The ideal single L1 enters at the issuing core's port instead.)
fn request_port(topo: &Topology, n: usize) -> (usize, usize) {
    match topo.noc2 {
        Noc2Kind::Single => (0, n),
        Noc2Kind::Sliced { .. } => {
            let m = topo.nodes_per_cluster();
            (n % m, n / m)
        }
        // CDXBar sits over the baseline machine: node index == core index.
        Noc2Kind::TwoStage { groups, .. } => {
            let cpg = topo.cores / groups;
            (n / cpg, n % cpg)
        }
    }
}

/// The first-stage output port `txn`'s request leaves by, entering at
/// crossbar `slot` (see [`request_port`]).
fn request_dst(topo: &Topology, slices: usize, slot: usize, txn: &Txn) -> usize {
    let slice = txn.line.interleave(slices);
    match topo.noc2 {
        Noc2Kind::Single => slice,
        Noc2Kind::Sliced { groups } => {
            debug_assert_eq!(
                slice % groups,
                slot % groups,
                "home-slot / slice interleaving mismatch"
            );
            slice / groups
        }
        Noc2Kind::TwoStage { uplinks, .. } => slice % uplinks,
    }
}

/// Reply route of `txn` leaving slice `s`: `(first-stage crossbar, input
/// port, output port)`, or the ports of the second stage when there is
/// one (the crossbar index is then moot).
fn reply_route(topo: &Topology, s: usize, txn: &Txn) -> (usize, usize, usize) {
    // The core's own L1 on baseline machines, node 0 for the ideal single
    // L1, the home DC-L1 that issued the fill otherwise.
    let node = topo.home_node(txn.core.index(), txn.line);
    match topo.noc2 {
        Noc2Kind::Single => (0, s, if topo.ideal_ports { txn.core.index() } else { node }),
        Noc2Kind::Sliced { groups } => {
            let m = topo.nodes_per_cluster();
            let slot = node % m;
            debug_assert_eq!(s % groups, slot % groups, "slice / home-slot interleaving mismatch");
            (slot, s / groups, node / m)
        }
        Noc2Kind::TwoStage { groups, uplinks, .. } => {
            let g = node / (topo.cores / groups);
            (0, s, g * uplinks + s % uplinks)
        }
    }
}

/// The node fed by output `port` of reply first-stage crossbar `i`.
fn node_at(topo: &Topology, i: usize, port: usize) -> usize {
    match topo.noc2 {
        Noc2Kind::Single if topo.ideal_ports => 0,
        Noc2Kind::Single => port,
        Noc2Kind::Sliced { .. } => port * topo.nodes_per_cluster() + i,
        Noc2Kind::TwoStage { groups, .. } => i * (topo.cores / groups) + port,
    }
}

/// Ticks crossbar `x`, number `idx` of `live`, if it is awake: its count
/// of flits moved before the tick, if so.
fn tick_awake(live: &ActiveSet, idx: usize, x: &mut Crossbar<Txn>) -> Option<u64> {
    live.contains(idx).then(|| {
        let flits = x.lifetime_moved_flits();
        x.tick();
        flits
    })
}

/// Ends the visit [`tick_awake`] began, after the ejection that followed
/// the tick: counts it, and lets a crossbar left empty sleep.
fn end_visit(
    live: &mut ActiveSet,
    idx: usize,
    x: &Crossbar<Txn>,
    shards: &mut [ShardDomain],
    flits: u64,
    ejected: bool,
) {
    shards[0].visits.visit(Visit::Xbars, ejected || x.lifetime_moved_flits() != flits);
    if x.is_idle() {
        live.remove(idx);
    }
}

/// The crossbar a slice's reply enters by when routed through first-stage
/// reply crossbar `i` — the second stage's, when there is one — with its
/// number in `live` and its stage's ticks so far.
fn reply_entry<'a>(
    rep: &'a mut [Crossbar<Txn>],
    clock: &ClockDomain,
    stage2: &'a mut Option<Stage2>,
    i: usize,
) -> (usize, &'a mut Crossbar<Txn>, u64) {
    let n = rep.len();
    match stage2 {
        Some(stage2) => (2 * n + 1, &mut stage2.rep, stage2.clock.total_ticks()),
        None => (n + i, &mut rep[i], clock.total_ticks()),
    }
}

/// Stage → stage: moves packets waiting at `from`'s output `port` into
/// `to`'s input `src`, re-addressed by `dst`, while `to` has room; whether
/// any moved. `wake_to` puts `to` back on its walk.
fn forward(
    from: &mut Crossbar<Txn>,
    port: usize,
    to: &mut Crossbar<Txn>,
    src: usize,
    dst: impl Fn(&Txn) -> usize,
    mut wake_to: impl FnMut(&mut Crossbar<Txn>),
) -> bool {
    let mut moved = false;
    while from.peek_output(port).is_some() && to.can_inject(src) {
        let pkt = from.pop_output(port).expect("peeked Some");
        let fwd = Packet { src, dst: dst(&pkt.payload), flits: pkt.flits, payload: pkt.payload };
        wake_to(to);
        to.try_inject(fwd).unwrap_or_else(|_| unreachable!("checked room"));
        moved = true;
    }
    moved
}

/// Drains request crossbar `x`'s ejection ports into the L2 slices; whether
/// any packet left. Output `port` feeds slice `port * stride + slot`:
/// `stride` first-stage crossbars interleave the slices between them, a
/// lone crossbar (`slot` 0 of 1) reaches them all.
fn eject_into_l2(
    x: &mut Crossbar<Txn>,
    slot: usize,
    stride: usize,
    shards: &mut [ShardDomain],
    obs: &mut Observer,
    now: Cycle,
) -> bool {
    let (mut at, mut moved) = (0, false);
    while let Some(port) = x.next_parked(at) {
        at = port + 1;
        if x.peek_output(port).is_none() {
            continue; // still in the router pipeline
        }
        // Room before waking: a full input queue leaves its slice asleep.
        let (d, li) = shard::domain_of_slice(shards, port * stride + slot);
        while d.l2[li].can_accept() {
            let Some(Packet { payload: txn, .. }) = x.pop_output(port) else { break };
            // Ejection precedes the cycle's slice ticks.
            d.clock_slice(li, now - 1);
            d.slices.tick.insert(li);
            let l2 = &mut d.l2[li];
            moved = true;
            obs.trace_hop(txn.id, "l2", now);
            let kind = match txn.kind {
                MemKind::Load | MemKind::Aux => MemAccessKind::Read,
                MemKind::Store => MemAccessKind::Write,
                MemKind::Atomic => MemAccessKind::Atomic,
            };
            l2.try_enqueue(L2Request { line: txn.line, kind, payload: txn })
                .unwrap_or_else(|_| unreachable!("checked room"));
        }
    }
    moved
}

impl Noc2 {
    /// Instantiates the shape `ctx.topo.noc2` names.
    pub(crate) fn build(cfg: &GpuConfig, ctx: &Arc<MachineCtx>) -> Self {
        let topo = &ctx.topo;
        let l = cfg.l2_slices;
        // First stage: crossbar count, node-side and slice-side ports and
        // clock multiplier; second stage: node-side ports and multiplier.
        let (count, ins, outs, mult, stage2) = match topo.noc2 {
            Noc2Kind::Single => {
                // The ideal single-L1 hypothetical keeps full memory-side
                // bandwidth (paper §II-A): one NoC#2 port per core.
                let sources = if topo.ideal_ports { topo.cores } else { topo.nodes };
                (1, sources, l, topo.noc2_freq_mult, None)
            }
            Noc2Kind::Sliced { groups } => {
                (groups, topo.clusters, l / groups, topo.noc2_freq_mult, None)
            }
            Noc2Kind::TwoStage { groups, uplinks, stage1_mult, stage2_mult } => {
                let stage2 = Some((groups * uplinks, stage2_mult));
                (groups, topo.cores / groups, uplinks, stage1_mult, stage2)
            }
        };
        let make = |i: usize, o: usize| Crossbar::new(cfg.xbar_config(i, o));
        let clock = |mult: u64| ClockDomain::new(cfg.noc_mhz * mult, cfg.core_mhz);
        Noc2 {
            ctx: Arc::clone(ctx),
            slices: l,
            line_bytes: u32::try_from(cfg.line_bytes).expect("line_bytes fits u32"),
            req: (0..count).map(|_| make(ins, outs)).collect(),
            rep: (0..count).map(|_| make(outs, ins)).collect(),
            clock: clock(mult),
            stage2: stage2.map(|(ports, mult)| Stage2 {
                req: make(ports, l),
                rep: make(l, ports),
                clock: clock(mult),
            }),
            req_port: (0..topo.nodes).map(|n| request_port(topo, n)).collect(),
            stash: (0..l).map(|_| None).collect(),
            live: ActiveSet::full(2 * count + if stage2.is_some() { 2 } else { 0 }),
        }
    }

    /// Request-direction crossbars, first stage then second.
    pub(crate) fn req_xbars(&self) -> impl Iterator<Item = &Crossbar<Txn>> {
        self.req.iter().chain(self.stage2.as_ref().map(|s| &s.req))
    }

    /// Reply-direction crossbars, first stage then second.
    pub(crate) fn rep_xbars(&self) -> impl Iterator<Item = &Crossbar<Txn>> {
        self.rep.iter().chain(self.stage2.as_ref().map(|s| &s.rep))
    }

    /// Every crossbar of the fabric.
    pub(crate) fn xbars(&self) -> impl Iterator<Item = &Crossbar<Txn>> {
        self.req_xbars().chain(self.rep_xbars())
    }

    /// Zeroes every crossbar's statistics; flits in flight stay.
    pub(crate) fn reset_stats(&mut self) {
        let stage2 = self.stage2.iter_mut().flat_map(|s| [&mut s.req, &mut s.rep]);
        self.req.iter_mut().chain(&mut self.rep).chain(stage2).for_each(Crossbar::reset_stats);
    }

    /// Replies waiting in the per-slice stash.
    pub(crate) fn stashed_replies(&self) -> usize {
        self.stash.iter().flatten().count()
    }

    /// No flit in any crossbar and no stashed reply.
    pub(crate) fn is_idle(&self) -> bool {
        self.xbars().all(Crossbar::is_idle) && self.stash.iter().all(Option::is_none)
    }

    /// Whether any crossbar is on the tick walks: every one holding a
    /// packet is, so every one a sleeper awaits a grant from.
    pub(crate) fn awake(&self) -> bool {
        !self.live.is_empty()
    }

    /// Whether slice `s`'s stashed reply, if it has one, is on offer: the
    /// fabric has room for it, or its refusal has yet to await the grant
    /// (once it does, only the grant lets it move).
    pub(crate) fn stash_offers(&self, s: usize) -> Option<bool> {
        self.stash[s].as_ref().map(|(i, pkt)| {
            let x = self
                .stage2
                .as_ref()
                .map_or(&self.rep[*i], |stage2| &stage2.rep);
            x.can_inject(pkt.src) || !x.awaits(pkt.src)
        })
    }

    /// Node Q3 → request injection: one head per node with one to offer
    /// per cycle (one per core port on the ideal single L1), in node
    /// order, over the nodes in `q3_offer`. A refused head waits in
    /// `q3_wait` for a grant of its input.
    pub(crate) fn inject_requests(
        &mut self,
        shards: &mut [ShardDomain],
        obs: &mut Observer,
        now: Cycle,
    ) {
        let topo = &self.ctx.topo;
        let pops = if topo.ideal_ports { topo.cores } else { 1 };
        let ticks = self.clock.total_ticks();
        for d in shards {
            let ShardDomain {
                q3_offer,
                q3_wait,
                nodes,
                visits,
                node0,
                ..
            } = d;
            for ni in q3_offer.iter() {
                let node = &mut nodes[ni];
                let (i, port) = self.req_port[*node0 + ni];
                let mut sent = false;
                for _ in 0..pops {
                    let Some(&txn) = node.peek_l2_request() else { break };
                    let src = if topo.ideal_ports { txn.core.index() } else { port };
                    // Room before route: a refused head derives nothing.
                    if !self.req[i].can_inject(src) {
                        self.req[i].await_grant(src);
                        q3_wait.insert(ni);
                        break;
                    }
                    let dst = request_dst(topo, self.slices, i, &txn);
                    obs.trace_hop(txn.id, "noc2_req", now);
                    wake(&mut self.live, i, &mut self.req[i], ticks);
                    self.req[i]
                        .try_inject(self.ctx.packet(src, dst, shard::down_bytes(&txn), txn))
                        .unwrap_or_else(|_| unreachable!("checked room"));
                    node.pop_l2_request();
                    sent = true;
                }
                visits.visit(Visit::Nodes, sent);
            }
        }
    }

    /// L2 replies → reply injection through the per-slice stash, in slice
    /// order over the slices with a reply on offer (`SliceOffers::reply`), which
    /// this visit clocks through the cycle before (the inject precedes the
    /// cycle's slice ticks). A reply is routed once, when it enters the
    /// stash; a refused one awaits a grant of its input with the packet it
    /// has. The visit leaves a slice on the walk while it has more to
    /// offer, and arms the next head otherwise.
    pub(crate) fn inject_replies(
        &mut self,
        shards: &mut [ShardDomain],
        obs: &mut Observer,
        now: Cycle,
    ) {
        let Noc2 { ctx, line_bytes, rep, clock, stage2, stash, live, .. } = self;
        for d in shards {
            let slice0 = d.slice0;
            let mut offering = std::mem::take(&mut d.slices.reply);
            offering.retain(|li| {
                let s = slice0 + li;
                d.clock_slice(li, now - 1);
                let ShardDomain {
                    l2,
                    wheel,
                    visits,
                    slices,
                    ..
                } = &mut *d;
                let l2 = &mut l2[li];
                let mut moved = false;
                if stash[s].is_none() {
                    stash[s] = l2.pop_reply().map(|reply| {
                        let txn = reply.payload;
                        // Full-line fills for loads; acks/small data otherwise.
                        let data = match txn.kind {
                            MemKind::Load => *line_bytes,
                            MemKind::Aux | MemKind::Atomic => txn.bytes,
                            MemKind::Store => 0,
                        };
                        let (i, src, dst) = reply_route(&ctx.topo, s, &txn);
                        (i, ctx.packet(src, dst, data, txn))
                    });
                    moved = stash[s].is_some();
                }
                if let Some((i, pkt)) = &stash[s] {
                    let (idx, x, ticks) = reply_entry(rep, clock, stage2, *i);
                    if x.can_inject(pkt.src) {
                        obs.trace_hop(pkt.payload.id, "noc2_rep", now);
                        let (_, pkt) = stash[s].take().expect("matched Some");
                        wake(live, idx, x, ticks);
                        x.try_inject(pkt).unwrap_or_else(|_| unreachable!("checked room"));
                        moved = true;
                    } else {
                        x.await_grant(pkt.src);
                    }
                }
                visits.visit(Visit::Slices, moved);
                // A refused reply waits for its grant; with none stashed,
                // the next head is armed.
                let offers = stash[s].is_none() && head_reply_due(l2, wheel, li, now);
                let idle = l2.is_idle() && stash[s].is_none();
                visits.park(Visit::Slices, !offers && slices.on_no_walk(li), idle);
                offers
            });
            d.slices.reply = offering;
        }
    }

    /// One core cycle of both directions: each stage's crossbars that hold
    /// a packet tick at the stage's clock; requests eject into L2 input
    /// queues, replies into node Q4. A grant frees an injection slot: the
    /// node or slice waiting at that input wakes to offer again. A crossbar
    /// left empty goes to sleep.
    pub(crate) fn tick(&mut self, shards: &mut [ShardDomain], obs: &mut Observer, now: Cycle) {
        let slices = self.slices;
        let Noc2 { ctx, req, rep, clock, stage2, live, .. } = self;
        let n = req.len();
        // Ticks before this cycle's: what a crossbar woken by a forward is
        // clocked through.
        let (ticks1, t1) = (clock.total_ticks(), clock.advance());
        let (ticks2, t2) =
            stage2.as_mut().map_or((0, 0), |s| (s.clock.total_ticks(), s.clock.advance()));
        // Requests: node side first, then (CDXBar) the slice side.
        for _ in 0..t1 {
            for (i, x) in req.iter_mut().enumerate() {
                let Some(flits) = tick_awake(live, i, x) else { continue };
                for src in x.take_granted() {
                    shard::retry_q3(shards, node_at(&ctx.topo, i, src), now - 1);
                }
                let ejected = match stage2 {
                    None => eject_into_l2(x, i, n, shards, obs, now),
                    Some(Stage2 { req: to, .. }) => {
                        let (uplinks, mut at, mut moved) = (x.config().outputs, 0, false);
                        while let Some(u) = x.next_parked(at) {
                            at = u + 1;
                            let dst = |t: &Txn| t.line.interleave(slices);
                            moved |= forward(x, u, to, i * uplinks + u, dst, |to| {
                                wake(live, 2 * n, to, ticks2);
                            });
                        }
                        moved
                    }
                };
                end_visit(live, i, x, shards, flits, ejected);
            }
        }
        if let Some(Stage2 { req: x, .. }) = stage2 {
            for _ in 0..t2 {
                let Some(flits) = tick_awake(live, 2 * n, x) else { break };
                let ejected = eject_into_l2(x, 0, 1, shards, obs, now);
                end_visit(live, 2 * n, x, shards, flits, ejected);
            }
        }
        // Replies: (CDXBar) slice side first, then the node side. Slices
        // inject into — and wait for grants of — the first crossbar their
        // replies meet.
        let entry = stage2.is_none();
        if let Some(Stage2 { rep: x, .. }) = stage2 {
            let (uplinks, cpg) = (rep[0].config().inputs, rep[0].config().outputs);
            for _ in 0..t2 {
                let Some(flits) = tick_awake(live, 2 * n + 1, x) else { break };
                for s in x.take_granted() {
                    shard::retry_reply(shards, s);
                }
                let (mut at, mut moved) = (0, false);
                while let Some(port) = x.next_parked(at) {
                    at = port + 1;
                    let (g, dst) = (port / uplinks, |t: &Txn| t.core.index() % cpg);
                    moved |= forward(x, port, &mut rep[g], port % uplinks, dst, |to| {
                        wake(live, n + g, to, ticks1);
                    });
                }
                end_visit(live, 2 * n + 1, x, shards, flits, moved);
            }
        }
        for _ in 0..t1 {
            for (i, x) in rep.iter_mut().enumerate() {
                let Some(flits) = tick_awake(live, n + i, x) else { continue };
                for src in x.take_granted().filter(|_| entry) {
                    shard::retry_reply(shards, src * n + i);
                }
                let (mut at, mut moved) = (0, false);
                while let Some(port) = x.next_parked(at) {
                    at = port + 1;
                    if x.peek_output(port).is_none() {
                        continue; // still in the router pipeline
                    }
                    let node = shard::node_awake(shards, node_at(&ctx.topo, i, port), now - 1);
                    while node.can_accept_l2_reply() {
                        let Some(pkt) = x.pop_output(port) else { break };
                        node.try_push_l2_reply(pkt.payload)
                            .unwrap_or_else(|_| unreachable!("checked room"));
                        moved = true;
                    }
                }
                end_visit(live, n + i, x, shards, flits, moved);
            }
        }
    }

    /// Advances the clocks by `cycles` quiescent core cycles; the
    /// crossbars, all empty and asleep, catch up when woken.
    pub(crate) fn skip_idle_cycles(&mut self, cycles: u64) {
        debug_assert!(!self.awake(), "skip_idle_cycles with a crossbar awake");
        self.clock.advance_by(cycles);
        if let Some(stage2) = &mut self.stage2 {
            stage2.clock.advance_by(cycles);
        }
    }

    /// Puts every crossbar back on the tick walks, clocked through its
    /// stage's ticks so far.
    pub(crate) fn wake_all(&mut self) {
        self.settle();
        self.live = ActiveSet::full(self.xbars().count());
    }

    /// Clocks every sleeping crossbar through its stage's ticks so far (it
    /// stays asleep): what a reader of `ticks` needs.
    pub(crate) fn settle(&mut self) {
        let Noc2 { req, rep, clock, stage2, live, .. } = self;
        let stage1 = req.iter_mut().chain(rep).map(|x| (x, clock.total_ticks()));
        let stage2 = stage2.iter_mut().flat_map(|Stage2 { req, rep, clock }| {
            [(req, clock.total_ticks()), (rep, clock.total_ticks())]
        });
        for (idx, (x, ticks)) in stage1.chain(stage2).enumerate() {
            if !live.contains(idx) {
                x.skip_idle_ticks(ticks - x.now());
            }
        }
    }

    /// The coordinator's half of `ShardDomain::check_sleepers`: a crossbar
    /// off the tick walks is empty, no crossbar's clock is ahead of its
    /// stage's, and a node whose Q3 head waits does so on an input that is
    /// still awaited.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub(crate) fn check_sleepers(&self, shards: &[ShardDomain]) -> InvariantResult {
        let stage1 = self.req.iter().chain(&self.rep).map(|x| (x, self.clock.total_ticks()));
        let stage2 = self.stage2.iter().flat_map(|s| [&s.req, &s.rep].map(|x| (x, s.clock.total_ticks())));
        for (idx, (x, ticks)) in stage1.chain(stage2).enumerate() {
            if !(self.live.contains(idx) || x.is_idle()) || x.now() > ticks {
                let site = format!("noc2_xbar{idx}");
                return Err(InvariantError::new(site, "asleep with work pending"));
            }
        }
        let ideal = self.ctx.topo.ideal_ports;
        for d in shards {
            for ni in d.q3_wait.iter() {
                let (i, port) = self.req_port[d.node0 + ni];
                let head = d.nodes[ni].peek_l2_request();
                let src = head.filter(|_| ideal).map_or(port, |txn| txn.core.index());
                if !self.req[i].awaits(src) {
                    let site = format!("node{}", d.node0 + ni);
                    return Err(InvariantError::new(site, "asleep with no wake armed"));
                }
            }
        }
        Ok(())
    }

    /// Flits moved, both directions summed, one entry per NoC#2 entry of
    /// `Topology::noc_spec`: the first stage, then the second if any.
    pub(crate) fn flits_per_spec_entry(&self) -> Vec<u64> {
        let flits = |x: &Crossbar<Txn>| x.stats().total_flits();
        let mut per_entry = vec![self.req.iter().chain(&self.rep).map(flits).sum()];
        if let Some(stage2) = &self.stage2 {
            per_entry.push(flits(&stage2.req) + flits(&stage2.rep));
        }
        per_entry
    }

    /// Highest utilization of any reply link into the L1 level (Fig 2 /
    /// Fig 17).
    pub(crate) fn max_reply_link_utilization(&self) -> f64 {
        self.rep.iter().map(|x| x.stats().max_link_utilization()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use crate::node::{Dcl1Node, NodeConfig};
    use crate::presence::PresenceMap;
    use crate::shard::Region;
    use dcl1_common::{CoreId, FlowMeter, LineAddr, WavefrontId};
    use dcl1_mem::L2Slice;

    /// The baseline test machine's memory side: its L1s and L2 slices in
    /// one domain, NoC#2 between them; no cores.
    fn memory_side() -> (Arc<MachineCtx>, Noc2, Vec<ShardDomain>) {
        let cfg = GpuConfig::small_test();
        let topo = Design::Baseline.topology(&cfg).unwrap();
        let node = NodeConfig {
            size_bytes: topo.node_bytes(&cfg),
            assoc: cfg.l1_assoc,
            line_bytes: cfg.line_bytes,
            latency: topo.node_latency(&cfg),
            mshr_entries: cfg.l1_mshr_entries,
            mshr_merges: cfg.l1_mshr_merges,
            queue_entries: cfg.node_queue_entries,
            ports: 1,
            perfect: false,
        };
        let nodes = (0..topo.nodes).map(|_| Dcl1Node::new(node).unwrap()).collect();
        let l2 = (0..cfg.l2_slices).map(|_| L2Slice::new(cfg.l2).unwrap()).collect();
        let ctx = Arc::new(MachineCtx {
            cpc: topo.cores_per_cluster(),
            m: topo.nodes_per_cluster(),
            cores_total: cfg.cores as u64,
            flit_bytes: cfg.flit_bytes,
            topo,
        });
        let flow = FlowMeter::new("txns");
        let domain = ShardDomain::new((0, 0, 0, 0), vec![], nodes, vec![], vec![], l2, flow);
        (Arc::clone(&ctx), Noc2::build(&cfg, &ctx), vec![domain])
    }

    /// Offers node 0 a store (two flits on NoC#2) or a bypassing fetch
    /// (one), as a core would ahead of cycle `now`'s injection phase.
    fn feed(shards: &mut [ShardDomain], now: Cycle, kind: MemKind) {
        let txn = Txn {
            id: now,
            core: CoreId::new(0),
            wavefront: WavefrontId::new(0),
            line: LineAddr::new(now),
            bytes: 32,
            kind,
            issued_at: now,
            l1_hit: false,
        };
        if shards[0].nodes[0].can_accept_request() {
            shard::node_awake(shards, 0, now - 1).try_push_request(txn).unwrap();
        }
    }

    /// Feeds node 0, never ticking the fabric, until NoC#2 refuses the head
    /// of its Q3; returns the cycle that happened in, its injection phase
    /// just done.
    fn until_refused(
        ctx: &MachineCtx,
        noc2: &mut Noc2,
        shards: &mut [ShardDomain],
        kind: MemKind,
    ) -> Cycle {
        let (presence, mut obs) = (PresenceMap::new(), Observer::disabled());
        for now in 1..100 {
            feed(shards, now, kind);
            noc2.inject_requests(shards, &mut obs, now);
            if shards[0].q3_wait.contains(0) {
                return now;
            }
            shards[0].run_region(Region::Mem, now, ctx, &presence, &mut obs);
        }
        panic!("NoC#2 never refused node 0");
    }

    #[test]
    fn a_refused_q3_head_parks_its_node_until_the_grant() {
        let (ctx, mut noc2, mut shards) = memory_side();
        let (presence, mut obs) = (PresenceMap::new(), Observer::disabled());
        let mut now = until_refused(&ctx, &mut noc2, &mut shards, MemKind::Store);
        assert!(noc2.req[0].awaits(0));
        // Q1 drains into Q3 until the store at its head finds Q3 full; once
        // Q1 is full too nothing can move, and the node leaves the walks.
        while shards[0].nodes_live.contains(0) {
            shards[0].run_region(Region::Mem, now, &ctx, &presence, &mut obs);
            now += 1;
            feed(&mut shards, now, MemKind::Store);
            noc2.inject_requests(&mut shards, &mut obs, now);
            assert!(now < 100, "node 0 never parked");
        }
        let held = shards[0].nodes[0].q3_len();
        assert_eq!(shards[0].check_sleepers(now, &ctx), Ok(()));
        assert_eq!(noc2.check_sleepers(&shards), Ok(()));
        // A sleeper with no alarm is what the checks exist to catch.
        shards[0].q3_wait.remove(0);
        let lost = shards[0].check_sleepers(now, &ctx).unwrap_err();
        assert_eq!(lost.detail, "asleep with no wake armed", "{lost}");
        shards[0].q3_wait.insert(0);
        // The grant wakes it, owed the stalls of the cycles it slept.
        let stalls = shards[0].nodes[0].stats().stall_cycles.get();
        while !shards[0].nodes_live.contains(0) {
            now += 1;
            noc2.inject_requests(&mut shards, &mut obs, now);
            noc2.tick(&mut shards, &mut obs, now);
            assert!(now < 200, "the grant never woke node 0");
        }
        assert!(!shards[0].q3_wait.contains(0) && !noc2.req[0].awaits(0));
        assert_eq!(shards[0].nodes[0].now(), now - 1);
        assert!(shards[0].nodes[0].stats().stall_cycles.get() > stalls);
        noc2.inject_requests(&mut shards, &mut obs, now + 1);
        assert_eq!(shards[0].nodes[0].q3_len(), held - 1);
    }

    /// The lost wake-up: the grant lands between the refusal and the node's
    /// own walk of the same step, with the node otherwise blocked. Parking
    /// on the refusal alone would leave it asleep with nothing to wake it.
    #[test]
    fn a_grant_in_the_step_of_the_refusal_keeps_the_node_awake() {
        let (ctx, mut noc2, mut shards) = memory_side();
        let (presence, mut obs) = (PresenceMap::new(), Observer::disabled());
        // One-flit packets: an input is granted every fabric tick, so a
        // refusal and the grant that answers it can share a step.
        let mut now = until_refused(&ctx, &mut noc2, &mut shards, MemKind::Aux);
        // Keep the node fed and the fabric ticking until a step refuses the
        // Q3 head, grants its input, and leaves the node nothing to move.
        let mut refused = true;
        loop {
            noc2.tick(&mut shards, &mut obs, now);
            let granted = refused && !shards[0].q3_wait.contains(0);
            shards[0].run_region(Region::Mem, now, &ctx, &presence, &mut obs);
            let node = &shards[0].nodes[0];
            if granted && node.q1_len() > 0 && node.blocked() {
                break; // its tick stalled the head of Q1 and moved nothing
            }
            now += 1;
            assert!(now < 500, "no step refused and granted the head of a blocked node");
            feed(&mut shards, now, MemKind::Aux);
            let waited = shards[0].q3_wait.contains(0);
            noc2.inject_requests(&mut shards, &mut obs, now);
            refused = !waited && shards[0].q3_wait.contains(0);
        }
        assert!(shards[0].nodes_live.contains(0), "parked after its input was granted");
        assert_eq!(shards[0].check_sleepers(now, &ctx), Ok(()));
        let held = shards[0].nodes[0].q3_len();
        noc2.inject_requests(&mut shards, &mut obs, now + 1);
        assert_eq!(shards[0].nodes[0].q3_len(), held - 1, "the head was not offered again");
    }
}
