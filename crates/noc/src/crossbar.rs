//! Input-queued crossbar switch with round-robin output arbitration.

use crate::Packet;
use dcl1_common::invariant::{InvariantError, InvariantResult};
use dcl1_common::{BoundedQueue, ConfigError};
use std::collections::VecDeque;

/// Structural parameters of a crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossbarConfig {
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
    /// Capacity of each input (injection) queue, in packets.
    ///
    /// The paper's routers have 4 VCs × 4 flit buffers per port; this model
    /// abstracts them into one input FIFO per port.
    pub input_queue_capacity: usize,
    /// Router pipeline latency in ticks added to every traversal.
    pub router_latency: u32,
    /// Maximum packets parked in an ejection buffer before the switch stops
    /// scheduling new transfers to that output (downstream backpressure).
    pub eject_capacity: usize,
    /// How deep into each input queue the allocator looks for a packet to
    /// a free output. 1 = pure FIFO (full head-of-line blocking); the
    /// paper's 4-VC routers are modelled as a lookahead of 4. Packets of
    /// the same (src, dst) flow can never reorder: the scan takes the
    /// first match.
    pub vc_lookahead: usize,
}

impl CrossbarConfig {
    /// Creates a config with the simulator's default buffering (4-packet
    /// input queues, 2-tick router latency, 8-packet ejection buffers).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `inputs` or `outputs` is zero.
    pub fn new(inputs: usize, outputs: usize) -> Result<Self, ConfigError> {
        if inputs == 0 || outputs == 0 {
            return Err(ConfigError::new("crossbar must have nonzero ports"));
        }
        Ok(CrossbarConfig {
            inputs,
            outputs,
            input_queue_capacity: 8,
            router_latency: 2,
            eject_capacity: 8,
            vc_lookahead: 4,
        })
    }
}

/// Per-crossbar statistics used for utilization figures and dynamic power.
#[derive(Debug, Clone, Default)]
pub struct CrossbarStats {
    /// Ticks this crossbar has executed.
    pub ticks: u64,
    /// Flits transferred per output link.
    pub output_flits: Vec<u64>,
    /// Flits injected per input port.
    pub input_flits: Vec<u64>,
    /// Packets delivered.
    pub packets: u64,
}

impl CrossbarStats {
    /// Utilization of output link `port`: flits transferred / ticks.
    pub fn link_utilization(&self, port: usize) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.output_flits[port] as f64 / self.ticks as f64
        }
    }

    /// The highest output-link utilization across the crossbar.
    pub fn max_link_utilization(&self) -> f64 {
        (0..self.output_flits.len())
            .map(|p| self.link_utilization(p))
            .fold(0.0, f64::max)
    }

    /// Total flits moved through the switch (for dynamic power).
    pub fn total_flits(&self) -> u64 {
        self.output_flits.iter().sum()
    }
}

/// A set of port indices below 128, as two words so that flipping one
/// port touches one of them (a `u128` shift-and-or costs twice as much,
/// and these sets change several times per packet).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ports([u64; 2]);

impl Ports {
    #[inline]
    fn insert(&mut self, port: usize) {
        self.0[(port >> 6) & 1] |= 1 << (port & 63);
    }

    #[inline]
    fn remove(&mut self, port: usize) {
        self.0[(port >> 6) & 1] &= !(1 << (port & 63));
    }

    #[inline]
    fn bits(self) -> u128 {
        u128::from(self.0[0]) | u128::from(self.0[1]) << 64
    }

    /// The set of the ports whose flag is set.
    fn of(flags: impl Iterator<Item = bool>) -> Ports {
        let mut set = Ports::default();
        flags.enumerate().filter(|&(_, on)| on).for_each(|(port, _)| set.insert(port));
        set
    }
}

/// An in-progress packet transfer from one input to one output.
#[derive(Debug)]
struct Transfer<T> {
    packet: Packet<T>,
    remaining_flits: u32,
}

/// An input-queued crossbar switch.
///
/// Call [`try_inject`](Crossbar::try_inject) to enqueue packets,
/// [`tick`](Crossbar::tick) once per clock of the crossbar's frequency
/// domain, and [`pop_output`](Crossbar::pop_output) to drain delivered
/// packets.
///
/// # Examples
///
/// ```
/// use dcl1_noc::{Crossbar, CrossbarConfig, Packet};
///
/// let mut xbar: Crossbar<&str> = Crossbar::new(CrossbarConfig::new(2, 2)?);
/// xbar.try_inject(Packet::new(0, 1, 0, "hello")).unwrap();
/// for _ in 0..8 { xbar.tick(); }
/// assert_eq!(xbar.pop_output(1).map(|p| p.payload), Some("hello"));
/// # Ok::<(), dcl1_common::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Crossbar<T> {
    config: CrossbarConfig,
    inputs: Vec<BoundedQueue<Packet<T>>>,
    /// Active transfer per input, if any (locks the input).
    active: Vec<Option<Transfer<T>>>,
    /// Indices of inputs with an active transfer, unordered. Iteration
    /// order does not matter: every active transfer owns a distinct
    /// output, so per-output effects never interleave.
    active_inputs: Vec<usize>,
    /// Which input each output is currently receiving from.
    output_busy: Vec<Option<usize>>,
    /// Delivered packets waiting behind the router pipeline:
    /// (ready_tick, packet), in ready order per output.
    eject: Vec<VecDeque<(u64, Packet<T>)>>,
    /// Round-robin arbiter pointer per output.
    rr: Vec<usize>,
    /// Queued (not yet granted) packets per destination output, so
    /// arbitration can skip outputs nobody is requesting.
    pending: Vec<usize>,
    /// Per-input bitset of the destinations present in the first
    /// `vc_lookahead` queue entries — the only packets arbitration can
    /// see. Lets the allocator reject an (output, input) pair in O(1)
    /// instead of scanning the window. All-ones when the switch has more
    /// than 128 outputs (scan always runs; correctness is unaffected).
    window_dsts: Vec<u128>,
    /// Transpose of `window_dsts`: per-output bitset of inputs with a
    /// packet for that output inside the lookahead window. Maintained
    /// only when [`exact`](Crossbar::exact) — it turns the
    /// round-robin input scan into two bit operations.
    requesters: Vec<u128>,
    /// Bitset of inputs with an active transfer (only meaningful when
    /// [`exact`](Crossbar::exact)).
    active_mask: Ports,
    /// Whether the port counts fit the 128-bit masks, making
    /// `window_dsts`/`requesters` exact rather than conservative and the
    /// four port masks below meaningful. Wider switches (and the test
    /// oracle) scan ports instead.
    exact: bool,
    /// Outputs with `pending > 0`: the only ones arbitration can grant.
    pending_mask: Ports,
    /// Outputs currently receiving a transfer (`output_busy` is `Some`).
    busy_mask: Ports,
    /// Outputs holding at least one parked packet (non-empty `eject`).
    parked_mask: Ports,
    /// Inputs whose producer found them full and awaits a grant — the
    /// only event that frees an injection slot — and the awaited inputs
    /// granted since the last [`take_granted`](Crossbar::take_granted).
    /// On a switch that is not `exact`, nonzero means "some input".
    awaited: u128,
    granted: u128,
    /// The last arbitration granted nothing with no transfer in flight:
    /// every packet arbitration can see wants an output whose ejection
    /// buffer is full. Only an injection or a freed ejection slot changes
    /// that, so ticks skip arbitration until one happens.
    stuck: bool,
    /// Total packets across the input queues (Σ `pending`).
    queued: usize,
    /// Inputs with an active transfer.
    active_count: usize,
    /// Packets parked across the ejection buffers.
    ejected: usize,
    /// The tick the newest parked packet clears the router pipeline at:
    /// from then on every parked packet is deliverable.
    last_ready: u64,
    now: u64,
    stats: CrossbarStats,
    /// Lifetime packets accepted by `try_inject`. Unlike `stats`, the
    /// lifetime counters survive `reset_stats` — they exist to prove
    /// conservation over the whole run, not to measure a window.
    lifetime_injected_packets: u64,
    /// Lifetime packets handed out by `pop_output`.
    lifetime_delivered_packets: u64,
    /// Lifetime flits accepted at the inputs.
    lifetime_injected_flits: u64,
    /// Lifetime flits moved across the switch fabric.
    lifetime_moved_flits: u64,
}

impl<T> Crossbar<T> {
    /// Creates an idle crossbar.
    pub fn new(config: CrossbarConfig) -> Self {
        Crossbar {
            inputs: (0..config.inputs)
                .map(|_| BoundedQueue::new(config.input_queue_capacity))
                .collect(),
            active: (0..config.inputs).map(|_| None).collect(),
            active_inputs: Vec::with_capacity(config.inputs),
            output_busy: vec![None; config.outputs],
            eject: (0..config.outputs).map(|_| VecDeque::new()).collect(),
            rr: vec![0; config.outputs],
            pending: vec![0; config.outputs],
            window_dsts: vec![0; config.inputs],
            requesters: vec![0; config.outputs],
            active_mask: Ports::default(),
            exact: config.inputs <= 128 && config.outputs <= 128,
            pending_mask: Ports::default(),
            busy_mask: Ports::default(),
            parked_mask: Ports::default(),
            awaited: 0,
            granted: 0,
            stuck: false,
            queued: 0,
            active_count: 0,
            ejected: 0,
            last_ready: 0,
            now: 0,
            stats: CrossbarStats {
                ticks: 0,
                output_flits: vec![0; config.outputs],
                input_flits: vec![0; config.inputs],
                packets: 0,
            },
            lifetime_injected_packets: 0,
            lifetime_delivered_packets: 0,
            lifetime_injected_flits: 0,
            lifetime_moved_flits: 0,
            config,
        }
    }

    /// A crossbar that arbitrates and ejects by port scan whatever its
    /// size — the path switches too wide for the masks take, and the
    /// oracle the mask path is tested against.
    #[cfg(test)]
    fn scanning(config: CrossbarConfig) -> Self {
        Crossbar { exact: false, ..Crossbar::new(config) }
    }

    /// Returns the structural configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &CrossbarStats {
        &self.stats
    }

    /// Zeroes the statistics (end-of-warmup measurement reset); in-flight
    /// packets and queue contents are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = CrossbarStats {
            ticks: 0,
            output_flits: vec![0; self.config.outputs],
            input_flits: vec![0; self.config.inputs],
            packets: 0,
        };
    }

    /// Attempts to enqueue `packet` at its input port.
    ///
    /// # Errors
    ///
    /// Returns `Err(packet)` when the input queue is full (backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `packet.src` or `packet.dst` is out of range.
    pub fn try_inject(&mut self, packet: Packet<T>) -> Result<(), Packet<T>> {
        assert!(packet.src < self.config.inputs, "input port out of range");
        assert!(packet.dst < self.config.outputs, "output port out of range");
        let flits = packet.flits as u64;
        let src = packet.src;
        let dst = packet.dst;
        let pos = self.inputs[src].len();
        self.inputs[src].try_push(packet)?;
        if pos < self.config.vc_lookahead {
            self.set_window(src, self.window_dsts[src] | Self::dst_bit(dst));
        }
        self.stats.input_flits[src] += flits;
        self.lifetime_injected_packets += 1;
        self.lifetime_injected_flits += flits;
        self.pending[dst] += 1;
        if self.exact {
            self.pending_mask.insert(dst);
        }
        self.queued += 1;
        self.stuck = false;
        Ok(())
    }

    /// Bit for `dst` in a [`window_dsts`](Crossbar::window_dsts) mask; the
    /// all-ones fallback for >128-output switches only forces the precise
    /// scan, never skips it.
    fn dst_bit(dst: usize) -> u128 {
        if dst < 128 {
            1u128 << dst
        } else {
            u128::MAX
        }
    }

    /// Updates input `port`'s window bitset and, when the masks are exact,
    /// mirrors the change into the per-output `requesters` transpose.
    fn set_window(&mut self, port: usize, new: u128) {
        let old = self.window_dsts[port];
        self.window_dsts[port] = new;
        if old == new || !self.exact {
            return;
        }
        let bit = 1u128 << port;
        let mut added = new & !old;
        while added != 0 {
            self.requesters[added.trailing_zeros() as usize] |= bit;
            added &= added - 1;
        }
        let mut removed = old & !new;
        while removed != 0 {
            self.requesters[removed.trailing_zeros() as usize] &= !bit;
            removed &= removed - 1;
        }
    }

    /// Recomputes input `port`'s lookahead-window destination bitset after
    /// a removal shifted the window.
    fn recompute_window(&mut self, port: usize) {
        let mut mask = 0u128;
        for p in self.inputs[port].iter().take(self.config.vc_lookahead) {
            mask |= Self::dst_bit(p.dst);
        }
        self.set_window(port, mask);
    }

    /// Whether input `port`'s injection queue has room.
    pub fn can_inject(&self, port: usize) -> bool {
        !self.inputs[port].is_full()
    }

    /// Advances the switch by one tick of its clock domain: transfers one
    /// flit on every active link, completes transfers, and arbitrates new
    /// ones.
    pub fn tick(&mut self) {
        self.now += 1;
        self.stats.ticks += 1;

        // Fast path: nothing queued and nothing in flight means arbitration
        // and flit movement are both no-ops (ejection buffers only wait for
        // `now` to advance), and neither can happen while arbitration is
        // `stuck`. `ticks` still counts — it is the denominator of every
        // link-utilization figure.
        if (self.queued == 0 && self.active_count == 0) || self.stuck {
            return;
        }

        // Arbitration first: each free output picks the next requesting
        // input in round-robin order, so a granted packet moves its first
        // flit this very tick. An input with an active transfer can't start
        // another (head-of-line blocking). Only outputs somebody is
        // requesting (`pending`) and nobody is sending to can be granted;
        // with exact masks those are one bit-and away, in the same
        // ascending order the port scan visits them.
        if self.queued > 0 && self.exact {
            let mut free = self.pending_mask.bits() & !self.busy_mask.bits();
            let mut active = self.active_mask.bits();
            while free != 0 {
                let out = free.trailing_zeros() as usize;
                free &= free - 1;
                if self.eject[out].len() >= self.config.eject_capacity {
                    continue; // downstream backpressure
                }
                // The free inputs requesting `out`; the round-robin pick
                // from `start` is a pair of trailing-zeros scans.
                let mask = self.requesters[out] & !active;
                if mask == 0 {
                    continue;
                }
                let start = self.rr[out];
                let above = mask >> start;
                let input = if above != 0 {
                    start + above.trailing_zeros() as usize
                } else {
                    mask.trailing_zeros() as usize
                };
                self.grant(out, input);
                active |= 1u128 << input;
            }
        } else if self.queued > 0 {
            for out in 0..self.config.outputs {
                if self.pending[out] == 0
                    || self.output_busy[out].is_some()
                    || self.eject[out].len() >= self.config.eject_capacity
                {
                    continue;
                }
                let start = self.rr[out];
                for k in 0..self.config.inputs {
                    let input = (start + k) % self.config.inputs;
                    if self.active[input].is_some() {
                        continue;
                    }
                    // Conservative pre-filter: on a wide switch the window
                    // bitset can have false positives, so the position
                    // scan stays authoritative.
                    if self.window_dsts[input] & Self::dst_bit(out) == 0 {
                        continue;
                    }
                    let windowed = self.inputs[input]
                        .iter()
                        .take(self.config.vc_lookahead)
                        .any(|p| p.dst == out);
                    if windowed {
                        self.grant(out, input);
                        break;
                    }
                }
            }
        }

        // (The port-scan path always arbitrates: it is the oracle.)
        self.stuck = self.exact && self.active_count == 0;
        self.move_flits();
    }

    /// Starts the transfer of input `input`'s oldest windowed packet for
    /// output `out` (VC-style allocation: the first match in the lookahead
    /// window wins, so same-flow packets never reorder).
    fn grant(&mut self, out: usize, input: usize) {
        let pos = self.inputs[input]
            .iter()
            .take(self.config.vc_lookahead)
            .position(|p| p.dst == out)
            .expect("granted input has a windowed packet for the output");
        let packet = self.inputs[input].remove_at(pos).expect("position from scan");
        let flits = packet.flits;
        self.active[input] = Some(Transfer { packet, remaining_flits: flits });
        self.output_busy[out] = Some(input);
        self.rr[out] = if input + 1 == self.config.inputs { 0 } else { input + 1 };
        self.pending[out] -= 1;
        self.queued -= 1;
        self.active_count += 1;
        self.active_inputs.push(input);
        if self.awaited != 0 {
            let input_bit = 1u128 << (input & 127);
            if !self.exact || self.awaited & input_bit != 0 {
                self.awaited &= !input_bit;
                self.granted |= input_bit;
            }
        }
        if self.exact {
            self.active_mask.insert(input);
            self.busy_mask.insert(out);
            if self.pending[out] == 0 {
                self.pending_mask.remove(out);
            }
        }
        self.recompute_window(input);
    }

    fn move_flits(&mut self) {
        // Move one flit per active transfer; complete finished ones. Only
        // the inputs on the active list are touched (each owns a distinct
        // output, so visiting them out of input order changes nothing).
        let mut i = 0;
        while i < self.active_inputs.len() {
            let input = self.active_inputs[i];
            let tr = self.active[input].as_mut().expect("active list entry has a transfer");
            let dst = tr.packet.dst;
            tr.remaining_flits -= 1;
            self.stats.output_flits[dst] += 1;
            self.lifetime_moved_flits += 1;
            if tr.remaining_flits == 0 {
                let tr = self.active[input].take().expect("just matched Some");
                self.output_busy[dst] = None;
                let ready = self.now + self.config.router_latency as u64;
                self.last_ready = ready;
                self.eject[dst].push_back((ready, tr.packet));
                self.stats.packets += 1;
                self.active_count -= 1;
                self.ejected += 1;
                if self.exact {
                    self.active_mask.remove(input);
                    self.busy_mask.remove(dst);
                    self.parked_mask.insert(dst);
                }
                self.active_inputs.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Whether nothing can move until a consumer drains an ejection
    /// buffer: no transfer in flight, nothing queued that arbitration can
    /// grant, and every parked packet deliverable already. If the consumers
    /// have just refused them all, ticks do nothing until one has room.
    pub fn waits_on_ejection(&self) -> bool {
        self.active_count == 0
            && (self.queued == 0 || self.stuck)
            && self.ejected > 0
            && self.now >= self.last_ready
    }

    /// Advances the clock by `n` ticks at once — exactly equivalent to `n`
    /// calls to [`tick`](Crossbar::tick) on a switch that is empty or
    /// [`waits_on_ejection`](Crossbar::waits_on_ejection), in O(1): what a
    /// switch nobody ticked while it slept is owed when it wakes.
    ///
    /// # Panics
    ///
    /// Debug-panics if a tick could have moved anything.
    pub fn skip_idle_ticks(&mut self, n: u64) {
        debug_assert!(
            self.is_idle() || self.waits_on_ejection(),
            "skip_idle_ticks on a crossbar with packets to move"
        );
        self.now += n;
        self.stats.ticks += n;
    }

    /// Removes and returns the oldest packet delivered at output `port`, if
    /// its router-pipeline delay has elapsed.
    pub fn pop_output(&mut self, port: usize) -> Option<Packet<T>> {
        match self.eject[port].front() {
            Some((ready, _)) if *ready <= self.now => {
                self.ejected -= 1;
                self.stuck = false;
                self.lifetime_delivered_packets += 1;
                debug_assert!(
                    self.lifetime_delivered_packets <= self.lifetime_injected_packets,
                    "crossbar delivered a packet it never accepted"
                );
                let packet = self.eject[port].pop_front().map(|(_, p)| p);
                if self.exact && self.eject[port].is_empty() {
                    self.parked_mask.remove(port);
                }
                packet
            }
            _ => None,
        }
    }

    /// Peeks the oldest deliverable packet at output `port` without
    /// removing it.
    pub fn peek_output(&self, port: usize) -> Option<&Packet<T>> {
        match self.eject[port].front() {
            Some((ready, p)) if *ready <= self.now => Some(p),
            _ => None,
        }
    }

    /// The lowest output port `>= from` holding a parked packet (delivered,
    /// possibly still behind the router pipeline), if any. Ejection loops
    /// walk these instead of probing every port:
    /// `while let Some(port) = x.next_parked(at) { at = port + 1; .. }`.
    pub fn next_parked(&self, from: usize) -> Option<usize> {
        if self.ejected == 0 {
            None
        } else if self.exact {
            let rest = if from < 128 { self.parked_mask.bits() >> from } else { 0 };
            (rest != 0).then(|| from + rest.trailing_zeros() as usize)
        } else {
            (from..self.config.outputs).find(|&port| !self.eject[port].is_empty())
        }
    }

    /// Asks for input `port`'s next grant to be reported by
    /// [`take_granted`](Crossbar::take_granted). A producer that found
    /// [`can_inject`](Crossbar::can_inject) false calls this and need not
    /// look again until its port is reported: a grant is the only event
    /// that frees an injection slot.
    pub fn await_grant(&mut self, port: usize) {
        self.awaited |= 1u128 << (port & 127);
    }

    /// Whether input `port`'s producer still awaits its grant: the input
    /// has been full ever since [`await_grant`](Crossbar::await_grant). On a
    /// switch too wide for exact masks, whether any producer does.
    pub fn awaits(&self, port: usize) -> bool {
        if self.exact { self.awaited & (1u128 << port) != 0 } else { self.awaited != 0 }
    }

    /// The awaited input ports granted since the last call, in ascending
    /// order (each is reported once; await it again to hear of the next).
    /// A switch too wide for exact masks reports every port once any
    /// awaited one may have been granted.
    pub fn take_granted(&mut self) -> impl Iterator<Item = usize> {
        let granted = std::mem::take(&mut self.granted);
        let every = if self.exact || granted == 0 { 0 } else { self.config.inputs };
        if every != 0 {
            self.awaited = 0;
        }
        let mut bits = if self.exact { granted } else { 0 };
        let exact = std::iter::from_fn(move || {
            let port = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
            Some(port)
        });
        exact.chain(0..every)
    }

    /// Ticks this switch has been clocked through (ticked or skipped).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether any packet is queued, in flight, or awaiting ejection. O(1).
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.active_count == 0 && self.ejected == 0
    }

    /// Total packets currently inside the switch. O(1).
    pub fn in_flight(&self) -> usize {
        self.queued + self.active_count + self.ejected
    }

    /// Lifetime packets accepted at the inputs (survives `reset_stats`).
    pub fn lifetime_injected_packets(&self) -> u64 {
        self.lifetime_injected_packets
    }

    /// Lifetime packets handed out by `pop_output` (survives `reset_stats`).
    pub fn lifetime_delivered_packets(&self) -> u64 {
        self.lifetime_delivered_packets
    }

    /// Lifetime flits moved across the switch fabric (survives `reset_stats`).
    pub fn lifetime_moved_flits(&self) -> u64 {
        self.lifetime_moved_flits
    }

    /// Checks every conservation law the switch must obey, recomputing the
    /// O(1) occupancy counters from the ground truth they summarize:
    ///
    /// * `queued`/`active_count`/`ejected`/`pending` and the active /
    ///   pending / busy / parked port masks match the queues they mirror,
    ///   each input queue conserves its own items, and arbitration is
    ///   `stuck` only over queued packets with no transfer in flight;
    /// * packets: lifetime injected == lifetime delivered + in flight;
    /// * flits: lifetime injected == lifetime moved + flits still held in
    ///   input queues and partial transfers.
    ///
    /// `site` names this crossbar in the error report. O(ports + queued),
    /// intended for per-epoch checked-sim use, not the per-tick hot path.
    ///
    /// # Errors
    ///
    /// Returns the first violated law with its counter values.
    pub fn check_conservation(&self, site: &str) -> InvariantResult {
        let mut queued = 0usize;
        let mut held_flits = 0u64;
        let mut pending = vec![0usize; self.config.outputs];
        for (port, q) in self.inputs.iter().enumerate() {
            q.check_conservation(&format!("{site}.input{port}"))?;
            queued += q.len();
            for p in q.iter() {
                pending[p.dst] += 1;
                held_flits += p.flits as u64;
            }
        }
        if queued != self.queued {
            return Err(InvariantError::new(
                site,
                format!("queued counter {} != recount {}", self.queued, queued),
            ));
        }
        if pending != self.pending {
            return Err(InvariantError::new(
                site,
                format!("pending counters {:?} != recount {:?}", self.pending, pending),
            ));
        }
        let active = self.active.iter().flatten().count();
        if active != self.active_count || active != self.active_inputs.len() {
            return Err(InvariantError::new(
                site,
                format!(
                    "active counter {} / list {} != recount {}",
                    self.active_count,
                    self.active_inputs.len(),
                    active
                ),
            ));
        }
        for tr in self.active.iter().flatten() {
            held_flits += tr.remaining_flits as u64;
        }
        let ejected: usize = self.eject.iter().map(VecDeque::len).sum();
        if ejected != self.ejected {
            return Err(InvariantError::new(
                site,
                format!("ejected counter {} != recount {}", self.ejected, ejected),
            ));
        }
        if self.exact {
            let recount = [
                ("active", self.active_mask, Ports::of(self.active.iter().map(Option::is_some))),
                ("pending", self.pending_mask, Ports::of(pending.iter().map(|&n| n > 0))),
                ("busy", self.busy_mask, Ports::of(self.output_busy.iter().map(Option::is_some))),
                ("parked", self.parked_mask, Ports::of(self.eject.iter().map(|q| !q.is_empty()))),
            ];
            for (name, have, want) in recount {
                if have != want {
                    return Err(InvariantError::new(
                        site,
                        format!("{name} mask {have:x?} != recount {want:x?}"),
                    ));
                }
            }
        }
        if self.stuck && (self.active_count > 0 || self.queued == 0) {
            return Err(InvariantError::new(site, "arbitration stuck with nothing to arbitrate"));
        }
        let in_flight = self.in_flight() as u64;
        if self.lifetime_injected_packets != self.lifetime_delivered_packets + in_flight {
            return Err(InvariantError::new(
                site,
                format!(
                    "packet leak: injected {} != delivered {} + in-flight {}",
                    self.lifetime_injected_packets, self.lifetime_delivered_packets, in_flight
                ),
            ));
        }
        if self.lifetime_injected_flits != self.lifetime_moved_flits + held_flits {
            return Err(InvariantError::new(
                site,
                format!(
                    "flit leak: injected {} != moved {} + held {}",
                    self.lifetime_injected_flits, self.lifetime_moved_flits, held_flits
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test values are tiny
mod tests {
    use super::*;

    fn cfg(i: usize, o: usize) -> CrossbarConfig {
        CrossbarConfig::new(i, o).unwrap()
    }

    #[test]
    fn single_packet_traverses_with_latency() {
        let mut x: Crossbar<u32> = Crossbar::new(cfg(1, 1));
        x.try_inject(Packet::new(0, 0, 0, 7)).unwrap();
        // 1 flit + 2-cycle router latency: arbitrated on tick 1 and
        // transferred, ready at tick 3.
        x.tick();
        assert!(x.pop_output(0).is_none());
        x.tick();
        assert!(x.pop_output(0).is_none());
        x.tick();
        assert_eq!(x.pop_output(0).map(|p| p.payload), Some(7));
        assert!(x.is_idle());
    }

    #[test]
    fn multi_flit_packet_serializes() {
        let mut x: Crossbar<()> = Crossbar::new(cfg(1, 1));
        // 128 B data → 5 flits; ready at tick 5 + 2 latency.
        x.try_inject(Packet::new(0, 0, 128, ())).unwrap();
        for t in 1..=6 {
            x.tick();
            assert!(x.pop_output(0).is_none(), "delivered too early at tick {t}");
        }
        x.tick();
        assert!(x.pop_output(0).is_some());
        assert_eq!(x.stats().output_flits[0], 5);
    }

    #[test]
    fn output_contention_is_round_robin_fair() {
        let mut x: Crossbar<usize> = Crossbar::new(cfg(4, 1));
        for src in 0..4 {
            x.try_inject(Packet::new(src, 0, 0, src)).unwrap();
            x.try_inject(Packet::new(src, 0, 0, src)).unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..40 {
            x.tick();
            if let Some(p) = x.pop_output(0) {
                order.push(p.payload);
            }
        }
        assert_eq!(order.len(), 8);
        // Every input served once before any is served twice.
        let first_four: std::collections::BTreeSet<_> = order[..4].iter().copied().collect();
        assert_eq!(first_four.len(), 4, "unfair arbitration: {order:?}");
    }

    #[test]
    fn injection_backpressure() {
        let mut x: Crossbar<u8> = Crossbar::new(cfg(1, 1));
        let cap = x.config().input_queue_capacity as u8;
        for i in 0..cap {
            x.try_inject(Packet::new(0, 0, 0, i)).unwrap();
        }
        assert!(!x.can_inject(0));
        let p = Packet::new(0, 0, 0, 99);
        assert!(x.try_inject(p).is_err());
    }

    #[test]
    fn head_of_line_blocking() {
        // With pure FIFO inputs (lookahead 1): input 0 has a packet for
        // output 0 (busy) in front of one for output 1 (free): the second
        // must wait.
        let mut x: Crossbar<char> =
            Crossbar::new(CrossbarConfig { vc_lookahead: 1, ..cfg(2, 2) });
        x.try_inject(Packet::new(1, 0, 128, 'a')).unwrap(); // long transfer on out 0
        x.tick(); // 'a' wins output 0
        x.try_inject(Packet::new(0, 0, 0, 'b')).unwrap();
        x.try_inject(Packet::new(0, 1, 0, 'c')).unwrap();
        for _ in 0..3 {
            x.tick();
            assert!(x.pop_output(1).is_none(), "'c' must be HoL-blocked behind 'b'");
        }
    }

    #[test]
    fn vc_lookahead_bypasses_blocked_head() {
        // Same scenario as the HoL test, but with the default lookahead
        // the packet to the free output proceeds past the blocked head.
        let mut x: Crossbar<char> = Crossbar::new(cfg(2, 2));
        x.try_inject(Packet::new(1, 0, 128, 'a')).unwrap(); // long transfer on out 0
        x.tick(); // 'a' wins output 0
        x.try_inject(Packet::new(0, 0, 0, 'b')).unwrap();
        x.try_inject(Packet::new(0, 1, 0, 'c')).unwrap();
        let mut got_c = false;
        for _ in 0..4 {
            x.tick();
            if x.pop_output(1).map(|p| p.payload) == Some('c') {
                got_c = true;
            }
        }
        assert!(got_c, "'c' must bypass the blocked head via VC lookahead");
    }

    #[test]
    fn same_flow_packets_never_reorder_past_lookahead() {
        // Two packets of the same (src,dst) flow: the scan must always
        // pick the older one first.
        let mut x: Crossbar<u8> = Crossbar::new(cfg(1, 1));
        x.try_inject(Packet::new(0, 0, 0, 1)).unwrap();
        x.try_inject(Packet::new(0, 0, 0, 2)).unwrap();
        let mut order = Vec::new();
        for _ in 0..10 {
            x.tick();
            while let Some(p) = x.pop_output(0) {
                order.push(p.payload);
            }
        }
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn distinct_outputs_transfer_in_parallel() {
        let mut x: Crossbar<u8> = Crossbar::new(cfg(2, 2));
        x.try_inject(Packet::new(0, 0, 0, 1)).unwrap();
        x.try_inject(Packet::new(1, 1, 0, 2)).unwrap();
        for _ in 0..4 {
            x.tick();
        }
        assert!(x.pop_output(0).is_some());
        assert!(x.pop_output(1).is_some());
    }

    #[test]
    fn utilization_statistics() {
        let mut x: Crossbar<()> = Crossbar::new(cfg(1, 1));
        x.try_inject(Packet::new(0, 0, 96, ())).unwrap(); // 4 flits
        for _ in 0..8 {
            x.tick();
        }
        assert_eq!(x.stats().ticks, 8);
        assert!((x.stats().link_utilization(0) - 0.5).abs() < 1e-12);
        assert!((x.stats().max_link_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(x.stats().total_flits(), 4);
        assert_eq!(x.stats().packets, 1);
    }

    #[test]
    fn ejection_backpressure_stalls_switch() {
        let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig {
            eject_capacity: 1,
            ..cfg(1, 1)
        });
        x.try_inject(Packet::new(0, 0, 0, 1)).unwrap();
        x.try_inject(Packet::new(0, 0, 0, 2)).unwrap();
        for _ in 0..10 {
            x.tick();
        }
        // The first packet sits in the full ejection buffer; the second is
        // stalled in the input queue behind the backpressure.
        assert_eq!(x.in_flight(), 2);
        assert_eq!(x.pop_output(0).map(|p| p.payload), Some(1));
        for _ in 0..5 {
            x.tick();
        }
        assert_eq!(x.pop_output(0).map(|p| p.payload), Some(2));
    }

    #[test]
    #[should_panic(expected = "output port out of range")]
    fn inject_invalid_port_panics() {
        let mut x: Crossbar<()> = Crossbar::new(cfg(2, 2));
        let _ = x.try_inject(Packet::new(0, 5, 0, ()));
    }

    #[test]
    fn idle_tick_changes_nothing_but_ticks() {
        let mut x: Crossbar<u32> = Crossbar::new(cfg(4, 3));
        // Exercise the switch first so the stats are non-trivial.
        x.try_inject(Packet::new(2, 1, 64, 5)).unwrap();
        for _ in 0..10 {
            x.tick();
        }
        assert_eq!(x.pop_output(1).map(|p| p.payload), Some(5));
        assert!(x.is_idle());

        let stats_before = x.stats().clone();
        let rr_before = x.rr.clone();
        let pending_before = x.pending.clone();
        for _ in 0..1000 {
            x.tick();
        }
        let stats_after = x.stats();
        assert_eq!(stats_after.ticks, stats_before.ticks + 1000);
        assert_eq!(stats_after.output_flits, stats_before.output_flits);
        assert_eq!(stats_after.input_flits, stats_before.input_flits);
        assert_eq!(stats_after.packets, stats_before.packets);
        assert_eq!(x.rr, rr_before);
        assert_eq!(x.pending, pending_before);
        assert!(x.is_idle());
        assert_eq!(x.in_flight(), 0);
    }

    #[test]
    fn skip_idle_ticks_matches_repeated_ticks() {
        let mut a: Crossbar<u8> = Crossbar::new(cfg(2, 2));
        let mut b: Crossbar<u8> = Crossbar::new(cfg(2, 2));
        for _ in 0..37 {
            a.tick();
        }
        b.skip_idle_ticks(37);
        assert_eq!(a.now, b.now);
        assert_eq!(a.stats().ticks, b.stats().ticks);
        // Behaviour after the skip is identical too.
        a.try_inject(Packet::new(0, 1, 0, 9)).unwrap();
        b.try_inject(Packet::new(0, 1, 0, 9)).unwrap();
        for _ in 0..5 {
            a.tick();
            b.tick();
            assert_eq!(
                a.pop_output(1).map(|p| p.payload),
                b.pop_output(1).map(|p| p.payload)
            );
        }
    }

    #[test]
    fn skipping_a_switch_that_waits_on_ejection_matches_ticking_it() {
        let backed_up = || {
            let mut x: Crossbar<u8> = Crossbar::new(CrossbarConfig { eject_capacity: 1, ..cfg(2, 1) });
            for (src, id) in [(0, 1), (1, 2), (0, 3)] {
                x.try_inject(Packet::new(src, 0, 0, id)).unwrap();
            }
            assert!(!x.waits_on_ejection(), "packets to move");
            for _ in 0..2 {
                x.tick(); // the first is delivered; nobody pops it
            }
            assert!(!x.waits_on_ejection(), "still behind the router pipeline");
            x.tick();
            x.tick();
            assert!(x.waits_on_ejection() && x.stuck);
            x
        };
        let (mut ticked, mut skipped) = (backed_up(), backed_up());
        for _ in 0..9 {
            ticked.tick();
        }
        skipped.skip_idle_ticks(9);
        assert_eq!((ticked.now, ticked.stats().ticks), (skipped.now, skipped.stats().ticks));
        // A freed ejection slot ends the wait, identically.
        for _ in 0..12 {
            let got = (ticked.pop_output(0).map(|p| p.payload), skipped.pop_output(0).map(|p| p.payload));
            assert_eq!(got.0, got.1);
            ticked.tick();
            skipped.tick();
        }
        assert!(ticked.is_idle() && skipped.is_idle());
    }

    #[test]
    fn occupancy_counters_track_packet_lifecycle() {
        let mut x: Crossbar<u8> = Crossbar::new(cfg(2, 2));
        assert!(x.is_idle());
        x.try_inject(Packet::new(0, 1, 0, 1)).unwrap();
        assert!(!x.is_idle());
        assert_eq!(x.in_flight(), 1);
        for _ in 0..5 {
            x.tick();
        }
        assert_eq!(x.in_flight(), 1); // parked in the ejection buffer
        assert!(!x.is_idle());
        assert!(x.pop_output(1).is_some());
        assert!(x.is_idle());
        assert_eq!(x.in_flight(), 0);
    }

    /// Mask arbitration, the parked-output walk and the grant report
    /// against the port-scan oracle: random traffic with multi-flit
    /// packets, injection backpressure and ejection that stalls for
    /// stretches, compared tick by tick.
    #[test]
    fn mask_path_matches_the_port_scan_oracle() {
        use dcl1_common::SplitMix64;
        let mut stuck_ticks = 0u32;
        for (seed, i, o) in [(1u64, 8, 4), (2, 80, 40), (3, 3, 128), (4, 128, 2), (5, 1, 1)] {
            let config = CrossbarConfig { eject_capacity: 2, ..cfg(i, o) };
            let mut x: Crossbar<u64> = Crossbar::new(config);
            let mut oracle: Crossbar<u64> = Crossbar::scanning(config);
            assert!(x.exact && !oracle.exact);
            let mut rng = SplitMix64::new(seed);
            let mut id = 0u64;
            for tick in 0..4000u32 {
                // Bursty injection: sometimes nothing, sometimes a flood
                // that fills input queues (both switches refuse alike).
                for _ in 0..rng.next_below(if tick % 97 < 30 { 3 * i as u64 } else { 3 }) {
                    id += 1;
                    let (src, dst) = (rng.next_below(i as u64), rng.next_below(o as u64));
                    let bytes = [0, 32, 128][rng.next_below(3) as usize];
                    let pkt = || Packet::new(src as usize, dst as usize, bytes, id);
                    assert_eq!(x.try_inject(pkt()).is_ok(), oracle.try_inject(pkt()).is_ok());
                }
                // Producers at a random few inputs await their next grant.
                for _ in 0..rng.next_below(4) {
                    let port = rng.next_below(i as u64) as usize;
                    x.await_grant(port);
                    oracle.await_grant(port);
                }
                let awaited = x.awaited;
                let before: Vec<usize> = x.inputs.iter().map(BoundedQueue::len).collect();
                // The scan path arbitrates every tick; the mask path skips
                // the ticks it knows can grant nothing.
                stuck_ticks += u32::from(x.stuck);
                assert!(!oracle.stuck && (0..i).all(|p| x.awaits(p) == (awaited & (1 << p) != 0)));
                x.tick();
                oracle.tick();
                let ctx = format!("seed {seed} tick {tick}");
                // Same grants in the same order (the active list is in
                // grant order), same arbiter state.
                assert_eq!(x.active_inputs, oracle.active_inputs, "{ctx}");
                assert_eq!(x.output_busy, oracle.output_busy, "{ctx}");
                assert_eq!(x.rr, oracle.rr, "{ctx}");
                // The grant report is exactly the awaited inputs that lost
                // a packet, and they are awaited no longer.
                let granted: Vec<usize> = x.take_granted().collect();
                let shrunk: Vec<usize> = (0..i)
                    .filter(|&p| awaited & (1 << p) != 0 && x.inputs[p].len() < before[p])
                    .collect();
                assert_eq!(granted, shrunk, "{ctx}");
                assert!(granted.iter().all(|&p| x.awaited & (1 << p) == 0), "{ctx}");
                // The scan path over-reports; a producer woken for nothing
                // finds its port still full and awaits again.
                let conservative: Vec<usize> = oracle.take_granted().collect();
                assert!(granted.iter().all(|p| conservative.contains(p)), "{ctx}");
                (0..i).filter(|&p| x.awaited & (1 << p) != 0).for_each(|p| oracle.await_grant(p));
                // Ejection stalls for stretches, so eject buffers fill and
                // backpressure reaches arbitration.
                if tick % 61 >= 20 {
                    let (mut at, mut walked) = (0, Vec::new());
                    while let Some(port) = x.next_parked(at) {
                        at = port + 1;
                        walked.push(port);
                        assert_eq!(oracle.next_parked(port), Some(port), "{ctx}");
                        while let Some(p) = x.pop_output(port) {
                            assert_eq!(oracle.pop_output(port).map(|q| q.payload), Some(p.payload));
                        }
                        assert!(oracle.pop_output(port).is_none(), "{ctx}");
                    }
                    assert!(walked.is_sorted(), "{ctx}");
                }
                assert_eq!(x.stats().ticks, oracle.stats().ticks, "{ctx}");
                assert_eq!(x.stats().output_flits, oracle.stats().output_flits, "{ctx}");
                assert_eq!(x.stats().input_flits, oracle.stats().input_flits, "{ctx}");
                assert_eq!(x.stats().packets, oracle.stats().packets, "{ctx}");
                assert_eq!(x.in_flight(), oracle.in_flight(), "{ctx}");
                assert_eq!(
                    (x.lifetime_injected_packets, x.lifetime_delivered_packets),
                    (oracle.lifetime_injected_packets, oracle.lifetime_delivered_packets),
                    "{ctx}"
                );
                assert_eq!(
                    (x.lifetime_injected_flits, x.lifetime_moved_flits),
                    (oracle.lifetime_injected_flits, oracle.lifetime_moved_flits),
                    "{ctx}"
                );
                x.check_conservation("mask").unwrap();
                oracle.check_conservation("scan").unwrap();
            }
            assert!(x.stats().packets > 500, "seed {seed}: traffic too thin to prove anything");
        }
        assert!(stuck_ticks > 100, "arbitration hardly ever stuck: {stuck_ticks} ticks");
    }
}
