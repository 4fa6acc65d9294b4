//! Workspace-wide typed metric registry: counters, gauges, and log2
//! histograms, registered once per subsystem under `subsystem.name`
//! namespaces and updated through integer-indexed ids.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every value is a `u64` (float-derived statistics
//!    enter as fixed-point micros via [`f64_to_micros`]), snapshots render
//!    in sorted name order, and [`Registry::absorb`] combines registries
//!    with commutative, associative per-kind semantics (counters and
//!    histogram buckets sum; gauges take the maximum) — so a sweep-level
//!    registry built from per-point registries is independent of the order
//!    points complete in, and a machine-level registry populated by a
//!    global-component-order walk is independent of the shard partition.
//! 2. **Zero steady-state allocations.** Registration allocates; `add` /
//!    `set` / `observe` are array index operations, and
//!    [`Registry::render_into`] reuses the caller's buffer. The
//!    `alloc-probe` binary gates this.
//! 3. **Pull, not push.** The simulator's hot loops never carry metric
//!    ids; subsystem `record` functions copy already-maintained component
//!    statistics into the registry at epoch boundaries. The registry can
//!    therefore never perturb simulation results.
//!
//! Metric names must be unique, snake_case, and `subsystem.name`-shaped —
//! enforced at registration (panic). The runner's
//! `memo_names_collide_with_no_machine_namespace` test registers every
//! namespace into one registry, so a name shared across registries panics
//! there too.

use std::fmt::Write as _;

/// Buckets per histogram: bucket `i` counts values `v` with
/// `floor(log2(v)) + 1 == i` (bucket 0 holds zeros), saturating at the
/// last bucket.
pub const HIST_BUCKETS: usize = 32;

/// Handle to a registered counter (monotonic within one collection window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge (point-in-time level; merges by maximum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered log2 histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// The kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count; [`Registry::absorb`] sums.
    Counter,
    /// Level; [`Registry::absorb`] takes the maximum.
    Gauge,
    /// Log2-bucketed distribution; [`Registry::absorb`] sums buckets.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Marker for a scalar slot's absent histogram storage.
const NO_HIST: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot {
    name: &'static str,
    kind: MetricKind,
    /// Counter/gauge value; for histograms, the total observation count.
    value: u64,
    /// Index into `hists`, or [`NO_HIST`] for scalar slots.
    hist: u32,
}

/// A typed metric registry. See the module docs for the contract.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    slots: Vec<Slot>,
    hists: Vec<[u64; HIST_BUCKETS]>,
    /// Slot indices in ascending name order (maintained at registration).
    order: Vec<u32>,
}

/// True when `name` is a legal metric name: exactly one `.`, both
/// segments nonempty snake_case starting with a lowercase letter.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let Some((subsystem, metric)) = name.split_once('.') else { return false };
    let seg_ok = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    seg_ok(subsystem) && seg_ok(metric) && !metric.contains('.')
}

/// Converts a non-negative finite float statistic to fixed-point micros
/// (rounded), the registry's representation for float-derived values.
/// Non-finite or negative inputs map to 0.
#[must_use]
pub fn f64_to_micros(x: f64) -> u64 {
    if !x.is_finite() || x <= 0.0 {
        return 0;
    }
    let scaled = (x * 1e6).round();
    // Bounded above before the cast, so the truncation is unreachable.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

/// The bucket index for one observed value.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn register(&mut self, name: &'static str, kind: MetricKind, hist: u32) -> u32 {
        assert!(
            valid_name(name),
            "metric name {name:?} must be snake_case subsystem.name"
        );
        let pos = match self.order.binary_search_by(|&i| self.slots[i as usize].name.cmp(name)) {
            Ok(_) => panic!("metric {name:?} registered twice"),
            Err(pos) => pos,
        };
        let id = u32::try_from(self.slots.len()).expect("metric count fits u32");
        self.slots.push(Slot { name, kind, value: 0, hist });
        self.order.insert(pos, id);
        id
    }

    /// Registers a counter. Panics on a duplicate or malformed name.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        CounterId(self.register(name, MetricKind::Counter, NO_HIST))
    }

    /// Registers a gauge. Panics on a duplicate or malformed name.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        GaugeId(self.register(name, MetricKind::Gauge, NO_HIST))
    }

    /// Registers a histogram. Panics on a duplicate or malformed name.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        let hist = u32::try_from(self.hists.len()).expect("histogram count fits u32");
        self.hists.push([0; HIST_BUCKETS]);
        HistogramId(self.register(name, MetricKind::Histogram, hist))
    }

    /// Adds `v` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: u64) {
        self.slots[id.0 as usize].value += v;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Overwrites a counter with a snapshot of an externally-maintained
    /// cumulative count (the pull-model `record` path).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.slots[id.0 as usize].value = v;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: u64) {
        self.slots[id.0 as usize].value = v;
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        let slot = &mut self.slots[id.0 as usize];
        slot.value += 1;
        self.hists[slot.hist as usize][bucket_of(v)] += 1;
    }

    /// Zeroes a histogram's buckets and count, keeping the registration
    /// (pull-model `record` paths rebuild distributions from scratch).
    pub fn clear_histogram(&mut self, id: HistogramId) {
        let slot = &mut self.slots[id.0 as usize];
        slot.value = 0;
        self.hists[slot.hist as usize] = [0; HIST_BUCKETS];
    }

    /// Zeroes every value, keeping all registrations.
    pub fn reset_values(&mut self) {
        for s in &mut self.slots {
            s.value = 0;
        }
        for h in &mut self.hists {
            *h = [0; HIST_BUCKETS];
        }
    }

    /// The scalar value (or histogram observation count) of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.order
            .binary_search_by(|&i| self.slots[i as usize].name.cmp(name))
            .ok()
            .map(|pos| self.slots[self.order[pos] as usize].value)
    }

    /// The bucket array of histogram `name`.
    #[must_use]
    pub fn buckets(&self, name: &str) -> Option<&[u64; HIST_BUCKETS]> {
        let pos = self
            .order
            .binary_search_by(|&i| self.slots[i as usize].name.cmp(name))
            .ok()?;
        let slot = &self.slots[self.order[pos] as usize];
        (slot.hist != NO_HIST).then(|| &self.hists[slot.hist as usize])
    }

    /// Registered names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.order.iter().map(|&i| self.slots[i as usize].name)
    }

    /// Renders a deterministic plain-text snapshot into `out` (reused
    /// buffer: allocation-free once `out` has grown to the working size).
    /// One `name kind value` line per metric in sorted name order;
    /// histograms append their bucket array.
    pub fn render_into(&self, out: &mut String) {
        out.clear();
        for &i in &self.order {
            let s = &self.slots[i as usize];
            let _ = write!(out, "{} {} {}", s.name, s.kind.as_str(), s.value);
            if s.hist != NO_HIST {
                out.push_str(" [");
                for (b, v) in self.hists[s.hist as usize].iter().enumerate() {
                    if b > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
            out.push('\n');
        }
    }

    /// Renders the snapshot as a JSON object fragment: sorted
    /// `"name": value` members (histograms become
    /// `{"count": N, "buckets": [...]}` with trailing zero buckets kept
    /// for a stable shape). No surrounding braces.
    pub fn render_json_into(&self, out: &mut String) {
        for (k, &i) in self.order.iter().enumerate() {
            let s = &self.slots[i as usize];
            if k > 0 {
                out.push_str(", ");
            }
            if s.hist == NO_HIST {
                let _ = write!(out, "\"{}\": {}", s.name, s.value);
            } else {
                let _ = write!(out, "\"{}\": {{\"count\": {}, \"buckets\": [", s.name, s.value);
                for (b, v) in self.hists[s.hist as usize].iter().enumerate() {
                    if b > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push_str("]}");
            }
        }
    }

    /// Renders the snapshot as a complete JSON object — braces included —
    /// for embedding as a member value (`dcl1d` per-tenant counter
    /// fragments in status replies).
    pub fn render_json_object_into(&self, out: &mut String) {
        out.push('{');
        self.render_json_into(out);
        out.push('}');
    }

    /// Merges `other` into `self` by name with commutative semantics:
    /// counters and histogram buckets sum, gauges take the maximum. Names
    /// absent from `self` are registered with `other`'s kind; a name
    /// present in both with different kinds panics (a registration bug).
    pub fn absorb(&mut self, other: &Registry) {
        for &oi in &other.order {
            let os = &other.slots[oi as usize];
            let pos =
                self.order.binary_search_by(|&i| self.slots[i as usize].name.cmp(os.name));
            let id = match pos {
                Ok(p) => {
                    let id = self.order[p] as usize;
                    assert_eq!(
                        self.slots[id].kind, os.kind,
                        "metric {:?} registered with two kinds",
                        os.name
                    );
                    id
                }
                Err(_) => {
                    let hist = if os.hist == NO_HIST {
                        NO_HIST
                    } else {
                        let h = u32::try_from(self.hists.len()).expect("hist count fits u32");
                        self.hists.push([0; HIST_BUCKETS]);
                        h
                    };
                    self.register(os.name, os.kind, hist) as usize
                }
            };
            let slot = &mut self.slots[id];
            match slot.kind {
                MetricKind::Counter | MetricKind::Histogram => slot.value += os.value,
                MetricKind::Gauge => slot.value = slot.value.max(os.value),
            }
            if slot.hist != NO_HIST {
                let dst = slot.hist as usize;
                let src = &other.hists[os.hist as usize];
                for (d, s) in self.hists[dst].iter_mut().zip(src.iter()) {
                    *d += s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(valid_name("gpu.instructions"));
        assert!(valid_name("memo.disk_hits"));
        assert!(valid_name("shard.busy2"));
        assert!(!valid_name("instructions"), "missing namespace");
        assert!(!valid_name("gpu.l1.hits"), "two dots");
        assert!(!valid_name("Gpu.hits"), "uppercase");
        assert!(!valid_name("gpu.Hits"), "uppercase metric");
        assert!(!valid_name("gpu."), "empty metric");
        assert!(!valid_name(".hits"), "empty subsystem");
        assert!(!valid_name("gpu.2hits"), "digit-leading metric");
        assert!(!valid_name("gpu.hit-rate"), "dash");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut r = Registry::new();
        r.counter("a.dup");
        r.counter("a.dup");
    }

    #[test]
    #[should_panic(expected = "snake_case")]
    fn malformed_name_panics() {
        let mut r = Registry::new();
        r.counter("NotSnake");
    }

    #[test]
    fn scalar_ops_and_lookup() {
        let mut r = Registry::new();
        let c = r.counter("a.count");
        let g = r.gauge("a.level");
        r.add(c, 5);
        r.inc(c);
        r.set(g, 9);
        assert_eq!(r.get("a.count"), Some(6));
        assert_eq!(r.get("a.level"), Some(9));
        assert_eq!(r.get("a.missing"), None);
        r.set_counter(c, 100);
        assert_eq!(r.get("a.count"), Some(100));
        r.reset_values();
        assert_eq!(r.get("a.count"), Some(0));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut r = Registry::new();
        let h = r.histogram("a.dist");
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            r.observe(h, v);
        }
        let b = r.buckets("a.dist").unwrap();
        assert_eq!(r.get("a.dist"), Some(8), "count tracks observations");
        assert_eq!(b[0], 1, "zeros");
        assert_eq!(b[1], 1, "v=1");
        assert_eq!(b[2], 2, "v=2,3");
        assert_eq!(b[3], 2, "v=4,7");
        assert_eq!(b[4], 1, "v=8");
        assert_eq!(b[HIST_BUCKETS - 1], 1, "saturates at the top bucket");
        r.clear_histogram(h);
        assert_eq!(r.get("a.dist"), Some(0));
        assert!(r.buckets("a.dist").unwrap().iter().all(|&v| v == 0));
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let mut r = Registry::new();
        let b = r.counter("z.beta");
        let a = r.counter("a.alpha");
        r.add(a, 1);
        r.add(b, 2);
        let mut out = String::new();
        r.render_into(&mut out);
        assert_eq!(out, "a.alpha counter 1\nz.beta counter 2\n");
        let mut again = String::new();
        r.render_into(&mut again);
        assert_eq!(out, again);
    }

    #[test]
    fn render_json_fragment_parses() {
        let mut r = Registry::new();
        let c = r.counter("a.count");
        let h = r.histogram("a.dist");
        r.add(c, 3);
        r.observe(h, 5);
        let mut out = String::from("{");
        r.render_json_into(&mut out);
        out.push('}');
        let doc = crate::json::Json::parse(&out).unwrap();
        assert_eq!(doc.get("a.count").unwrap().as_f64(), Some(3.0));
        let dist = doc.get("a.dist").unwrap();
        assert_eq!(dist.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(dist.get("buckets").unwrap().as_arr().unwrap().len(), HIST_BUCKETS);
    }

    #[test]
    fn absorb_is_commutative() {
        let build = |c1: u64, g1: u64, hv: u64| {
            let mut r = Registry::new();
            let c = r.counter("s.count");
            let g = r.gauge("s.level");
            let h = r.histogram("s.dist");
            r.add(c, c1);
            r.set(g, g1);
            r.observe(h, hv);
            r
        };
        let a = build(3, 10, 4);
        let b = build(5, 7, 100);
        let mut ab = Registry::new();
        ab.absorb(&a);
        ab.absorb(&b);
        let mut ba = Registry::new();
        ba.absorb(&b);
        ba.absorb(&a);
        let (mut ra, mut rb) = (String::new(), String::new());
        ab.render_into(&mut ra);
        ba.render_into(&mut rb);
        assert_eq!(ra, rb, "absorb order changed the merged snapshot");
        assert_eq!(ab.get("s.count"), Some(8), "counters sum");
        assert_eq!(ab.get("s.level"), Some(10), "gauges take the max");
        assert_eq!(ab.get("s.dist"), Some(2), "histogram counts sum");
    }

    #[test]
    fn absorb_registers_missing_names() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let c = b.counter("late.arrival");
        b.add(c, 7);
        a.absorb(&b);
        assert_eq!(a.get("late.arrival"), Some(7));
    }

    #[test]
    fn fixed_point_micros() {
        assert_eq!(f64_to_micros(0.0), 0);
        assert_eq!(f64_to_micros(1.5), 1_500_000);
        assert_eq!(f64_to_micros(f64::NAN), 0);
        assert_eq!(f64_to_micros(-2.0), 0);
        assert_eq!(f64_to_micros(1e300), u64::MAX);
    }

    #[test]
    fn render_into_reuses_buffer_without_growth() {
        let mut r = Registry::new();
        let c = r.counter("a.count");
        r.add(c, u64::MAX);
        let mut out = String::new();
        r.render_into(&mut out);
        let cap = out.capacity();
        for v in 0..100 {
            r.set_counter(c, v);
            r.render_into(&mut out);
        }
        assert_eq!(out.capacity(), cap, "steady-state render must not grow the buffer");
    }
}
