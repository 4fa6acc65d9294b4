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
//! ## Never sharded
//!
//! NoC#2 is the machine's one all-to-all structure: every node reaches
//! every slice, so both ends of each crossbar span shard domains. The
//! coordinator therefore steps it between the regions, in global component
//! order, which is what keeps statistics independent of the partition.

use crate::config::GpuConfig;
use crate::design::{Noc2Kind, Topology};
use crate::shard::{self, MachineCtx, ShardDomain, Visit};
use crate::txn::Txn;
use dcl1_common::{ClockDomain, Cycle};
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
    /// `(first-stage crossbar, packet)`. A slice with a stashed reply
    /// stays in its domain's `slices_live`.
    stash: Vec<Option<(usize, Packet<Txn>)>>,
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

/// Stage → stage: moves packets waiting at `from`'s output `port` into
/// `to`'s input `src`, re-addressed by `dst`, while `to` has room.
fn forward(
    from: &mut Crossbar<Txn>,
    port: usize,
    to: &mut Crossbar<Txn>,
    src: usize,
    dst: impl Fn(&Txn) -> usize,
) {
    while from.peek_output(port).is_some() && to.can_inject(src) {
        let pkt = from.pop_output(port).expect("peeked Some");
        let fwd = Packet { src, dst: dst(&pkt.payload), flits: pkt.flits, payload: pkt.payload };
        // simcheck: allow(epoch_order): NoC#2 is stepped by the coordinator only, never inside a region; both stages belong to the one `Noc2`
        to.try_inject(fwd).unwrap_or_else(|_| unreachable!("checked room"));
    }
}

/// Drains request crossbar `x`'s ejection ports into the L2 slices. Output
/// `port` feeds slice `port * stride + slot`: `stride` first-stage
/// crossbars interleave the slices between them, a lone crossbar (`slot`
/// 0 of 1) reaches them all.
fn eject_into_l2(
    x: &mut Crossbar<Txn>,
    slot: usize,
    stride: usize,
    shards: &mut [ShardDomain],
    obs: &mut Observer,
    now: Cycle,
) {
    let mut at = 0;
    while let Some(port) = x.next_parked(at) {
        at = port + 1;
        if x.peek_output(port).is_none() {
            continue; // still in the router pipeline
        }
        // Ejection precedes the cycle's slice ticks.
        let l2 = shard::slice_awake(shards, port * stride + slot, now - 1);
        while l2.can_accept() {
            let Some(Packet { payload: txn, .. }) = x.pop_output(port) else { break };
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
}

impl Noc2 {
    /// Instantiates the shape `ctx.topo.noc2` names.
    pub fn build(cfg: &GpuConfig, ctx: &Arc<MachineCtx>) -> Self {
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
        }
    }

    /// Request-direction crossbars, first stage then second.
    pub fn req_xbars(&self) -> impl Iterator<Item = &Crossbar<Txn>> {
        self.req.iter().chain(self.stage2.as_ref().map(|s| &s.req))
    }

    /// Reply-direction crossbars, first stage then second.
    pub fn rep_xbars(&self) -> impl Iterator<Item = &Crossbar<Txn>> {
        self.rep.iter().chain(self.stage2.as_ref().map(|s| &s.rep))
    }

    /// Every crossbar of the fabric.
    pub fn xbars(&self) -> impl Iterator<Item = &Crossbar<Txn>> {
        self.req_xbars().chain(self.rep_xbars())
    }

    /// Zeroes every crossbar's statistics; flits in flight stay.
    pub fn reset_stats(&mut self) {
        let stage2 = self.stage2.iter_mut().flat_map(|s| [&mut s.req, &mut s.rep]);
        self.req.iter_mut().chain(&mut self.rep).chain(stage2).for_each(Crossbar::reset_stats);
    }

    /// Replies waiting in the per-slice stash.
    pub fn stashed_replies(&self) -> usize {
        self.stash.iter().flatten().count()
    }

    /// Whether slice `s` has a reply waiting in the stash.
    pub fn has_stashed(&self, s: usize) -> bool {
        self.stash[s].is_some()
    }

    /// No flit in any crossbar and no stashed reply.
    pub fn is_idle(&self) -> bool {
        self.xbars().all(Crossbar::is_idle) && self.stash.iter().all(Option::is_none)
    }

    /// Node Q3 → request injection: one head per node with work per cycle
    /// (one per core port on the ideal single L1), in node order.
    pub fn inject_requests(&mut self, shards: &mut [ShardDomain], obs: &mut Observer, now: Cycle) {
        let topo = &self.ctx.topo;
        let pops = if topo.ideal_ports { topo.cores } else { 1 };
        for d in shards {
            d.visits[Visit::Nodes as usize] += d.nodes_live.count();
            for ni in d.nodes_live.iter() {
                let node = &mut d.nodes[ni];
                let (i, port) = self.req_port[d.node0 + ni];
                for _ in 0..pops {
                    let Some(&txn) = node.peek_l2_request() else { break };
                    let src = if topo.ideal_ports { txn.core.index() } else { port };
                    // Room before route: a refused head derives nothing.
                    if !self.req[i].can_inject(src) {
                        break;
                    }
                    let dst = request_dst(topo, self.slices, i, &txn);
                    obs.trace_hop(txn.id, "noc2_req", now);
                    self.req[i]
                        .try_inject(self.ctx.packet(src, dst, shard::down_bytes(&txn), txn))
                        .unwrap_or_else(|_| unreachable!("checked room"));
                    node.pop_l2_request();
                }
            }
        }
    }

    /// L2 replies → reply injection through the per-slice stash, in slice
    /// order over the slices with work. A reply is routed once, when it
    /// enters the stash; a refused one retries with the packet it has.
    pub fn inject_replies(&mut self, shards: &mut [ShardDomain], obs: &mut Observer, now: Cycle) {
        for d in shards {
            d.visits[Visit::Slices as usize] += d.slices_live.count();
            for li in d.slices_live.iter() {
                let s = d.slice0 + li;
                if self.stash[s].is_none() {
                    self.stash[s] = d.l2[li].pop_reply().map(|reply| {
                        let txn = reply.payload;
                        // Full-line fills for loads; acks/small data otherwise.
                        let data = match txn.kind {
                            MemKind::Load => self.line_bytes,
                            MemKind::Aux | MemKind::Atomic => txn.bytes,
                            MemKind::Store => 0,
                        };
                        let (i, src, dst) = reply_route(&self.ctx.topo, s, &txn);
                        (i, self.ctx.packet(src, dst, data, txn))
                    });
                }
                let Some((i, pkt)) = &self.stash[s] else { continue };
                // Every slice feeds the second stage when there is one.
                let x = match &mut self.stage2 {
                    Some(stage2) => &mut stage2.rep,
                    None => &mut self.rep[*i],
                };
                if x.can_inject(pkt.src) {
                    obs.trace_hop(pkt.payload.id, "noc2_rep", now);
                    let (_, pkt) = self.stash[s].take().expect("matched Some");
                    x.try_inject(pkt).unwrap_or_else(|_| unreachable!("checked room"));
                }
            }
        }
    }

    /// One core cycle of both directions: each stage ticks at its own
    /// clock; requests eject into L2 input queues, replies into node Q4.
    pub fn tick(&mut self, shards: &mut [ShardDomain], obs: &mut Observer, now: Cycle) {
        let slices = self.slices;
        let Noc2 { ctx, req, rep, clock, stage2, .. } = self;
        let t1 = clock.advance();
        let t2 = stage2.as_mut().map_or(0, |s| s.clock.advance());
        shards[0].visits[Visit::Xbars as usize] +=
            2 * (u64::from(t1) * req.len() as u64 + u64::from(t2));
        // Requests: node side first, then (CDXBar) the slice side.
        let stride = req.len();
        for _ in 0..t1 {
            for (i, x) in req.iter_mut().enumerate() {
                x.tick();
                match stage2 {
                    None => eject_into_l2(x, i, stride, shards, obs, now),
                    Some(Stage2 { req: to, .. }) => {
                        let (uplinks, mut at) = (x.config().outputs, 0);
                        while let Some(u) = x.next_parked(at) {
                            at = u + 1;
                            forward(x, u, to, i * uplinks + u, |t| t.line.interleave(slices));
                        }
                    }
                }
            }
        }
        if let Some(Stage2 { req: x, .. }) = stage2 {
            for _ in 0..t2 {
                x.tick();
                eject_into_l2(x, 0, 1, shards, obs, now);
            }
        }
        // Replies: (CDXBar) slice side first, then the node side.
        if let Some(Stage2 { rep: x, .. }) = stage2 {
            let (uplinks, cpg) = (rep[0].config().inputs, rep[0].config().outputs);
            for _ in 0..t2 {
                x.tick();
                let mut at = 0;
                while let Some(port) = x.next_parked(at) {
                    at = port + 1;
                    let to = &mut rep[port / uplinks];
                    forward(x, port, to, port % uplinks, |t| t.core.index() % cpg);
                }
            }
        }
        for _ in 0..t1 {
            for (i, x) in rep.iter_mut().enumerate() {
                x.tick();
                let mut at = 0;
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
                    }
                }
            }
        }
    }

    /// Advances the clocks by `cycles` quiescent core cycles, exactly as
    /// that many [`tick`](Noc2::tick)s of an idle fabric would.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        let t1 = self.clock.advance_by(cycles);
        self.req.iter_mut().chain(&mut self.rep).for_each(|x| x.skip_idle_ticks(t1));
        if let Some(Stage2 { req, rep, clock }) = &mut self.stage2 {
            let t2 = clock.advance_by(cycles);
            req.skip_idle_ticks(t2);
            rep.skip_idle_ticks(t2);
        }
    }

    /// Flits moved, both directions summed, one entry per NoC#2 entry of
    /// `Topology::noc_spec`: the first stage, then the second if any.
    pub fn flits_per_spec_entry(&self) -> Vec<u64> {
        let flits = |x: &Crossbar<Txn>| x.stats().total_flits();
        let mut per_entry = vec![self.req.iter().chain(&self.rep).map(flits).sum()];
        if let Some(stage2) = &self.stage2 {
            per_entry.push(flits(&stage2.req) + flits(&stage2.rep));
        }
        per_entry
    }

    /// Highest utilization of any reply link into the L1 level (Fig 2 /
    /// Fig 17).
    pub fn max_reply_link_utilization(&self) -> f64 {
        self.rep.iter().map(|x| x.stats().max_link_utilization()).fold(0.0, f64::max)
    }
}
