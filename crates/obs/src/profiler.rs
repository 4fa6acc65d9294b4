//! Hierarchical phase profiler: wall-time attribution for the machine's
//! per-cycle regions (Issue / NoC#1 / Mem / memory exchange) and the
//! runner's memo-cache IO.
//!
//! The profiler is a plain accumulator — a fixed array of nanosecond
//! totals and lap counts indexed by [`Phase`] — so enabling it costs two
//! monotonic-clock reads per timed region and zero allocations. It is
//! diagnostic-only: phase times never feed back into simulation state,
//! so profiled and unprofiled runs produce byte-identical statistics.
//! [`PhaseProfiler::absorb`] folds per-point profiles into a sweep-level
//! breakdown for `BENCH_sweep.json` and the `benchmark/` ledger's phase shares.

use std::fmt::Write as _;

/// A timed region of the simulate-one-point pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// CTA dispatch plus the core-side Issue region.
    Issue,
    /// NoC#1 / NoC#2 region: cluster crossbars, slice networks, DRAM clocks.
    Noc1,
    /// Memory region: DC-L1 node ticks, L2, DRAM, reply drains.
    Mem,
    /// Machine-wide memory work: presence replay, L2 ↔ DRAM moves, DRAM
    /// ticks.
    Exchange,
    /// Always 0: a machine steps its domains on its own thread, so nothing
    /// waits at a barrier. Kept only because the `benchmark/` ledger reads
    /// its share.
    BarrierWait,
    /// Memo-cache disk IO (load, store, checksum verification).
    CacheIo,
    /// Always 0: a finished point's only checkpoint is the store's disk
    /// tier, timed under [`Phase::CacheIo`]. Kept only because the
    /// `benchmark/` ledger reads it as `bench.journal_write_s`.
    JournalWrite,
}

/// Number of [`Phase`] variants (array dimension for the accumulator).
pub(crate) const PHASE_COUNT: usize = 7;

impl Phase {
    /// Every phase, in rendering order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Issue,
        Phase::Noc1,
        Phase::Mem,
        Phase::Exchange,
        Phase::BarrierWait,
        Phase::CacheIo,
        Phase::JournalWrite,
    ];

    /// Stable snake_case name used in JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Issue => "issue",
            Phase::Noc1 => "noc1",
            Phase::Mem => "mem",
            Phase::Exchange => "exchange",
            Phase::BarrierWait => "barrier_wait",
            Phase::CacheIo => "cache_io",
            Phase::JournalWrite => "journal_write",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Phase::Issue => 0,
            Phase::Noc1 => 1,
            Phase::Mem => 2,
            Phase::Exchange => 3,
            Phase::BarrierWait => 4,
            Phase::CacheIo => 5,
            Phase::JournalWrite => 6,
        }
    }
}

/// Fixed-size per-phase accumulator of elapsed nanoseconds and lap counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfiler {
    nanos: [u64; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
}

impl PhaseProfiler {
    /// An empty profile.
    #[must_use]
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    /// Adds one lap of `nanos` to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] += nanos;
        self.counts[phase.index()] += 1;
    }

    /// Total nanoseconds attributed to `phase`.
    #[must_use]
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Number of laps recorded for `phase`.
    #[must_use]
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Sum of all phase totals.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `phase`'s fraction of the profiled total, or 0 for an empty profile.
    #[must_use]
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            // Phase totals are bounded by the run's wall time; the
            // precision loss of u64→f64 is irrelevant for a share.
            #[allow(clippy::cast_precision_loss)]
            {
                self.nanos(phase) as f64 / total as f64
            }
        }
    }

    /// Folds another profile into this one (sums nanos and counts).
    pub fn absorb(&mut self, other: &PhaseProfiler) {
        for i in 0..PHASE_COUNT {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// Zeroes the profile.
    pub fn reset(&mut self) {
        *self = PhaseProfiler::default();
    }

    /// Appends the profile as a JSON array of
    /// `{"phase": name, "nanos": N, "count": N}` objects in
    /// [`Phase::ALL`] order.
    pub fn render_json_into(&self, out: &mut String) {
        out.push('[');
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"phase\": \"{}\", \"nanos\": {}, \"count\": {}}}",
                p.name(),
                self.nanos(*p),
                self.count(*p)
            );
        }
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "Phase::ALL and index() disagree at {i}");
        }
    }

    #[test]
    fn add_and_share() {
        let mut p = PhaseProfiler::new();
        p.add(Phase::Issue, 300);
        p.add(Phase::Mem, 100);
        p.add(Phase::Mem, 100);
        assert_eq!(p.nanos(Phase::Issue), 300);
        assert_eq!(p.count(Phase::Mem), 2);
        assert_eq!(p.total_nanos(), 500);
        assert!((p.share(Phase::Issue) - 0.6).abs() < 1e-12);
        assert!((p.share(Phase::Noc1)).abs() < 1e-12);
        assert!(PhaseProfiler::new().share(Phase::Issue).abs() < 1e-12, "empty profile");
    }

    #[test]
    fn absorb_sums() {
        let mut a = PhaseProfiler::new();
        a.add(Phase::CacheIo, 10);
        let mut b = PhaseProfiler::new();
        b.add(Phase::CacheIo, 5);
        b.add(Phase::JournalWrite, 7);
        a.absorb(&b);
        assert_eq!(a.nanos(Phase::CacheIo), 15);
        assert_eq!(a.count(Phase::CacheIo), 2);
        assert_eq!(a.nanos(Phase::JournalWrite), 7);
        a.reset();
        assert_eq!(a.total_nanos(), 0);
    }

    #[test]
    fn json_lists_every_phase() {
        let mut p = PhaseProfiler::new();
        p.add(Phase::JournalWrite, 42);
        let mut out = String::new();
        p.render_json_into(&mut out);
        let doc = crate::json::Json::parse(&out).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), PHASE_COUNT);
        let bw = arr
            .iter()
            .find(|e| e.get("phase").and_then(crate::json::Json::as_str) == Some("journal_write"))
            .expect("journal_write present");
        assert_eq!(bw.get("nanos").unwrap().as_f64(), Some(42.0));
        assert_eq!(bw.get("count").unwrap().as_f64(), Some(1.0));
    }
}
