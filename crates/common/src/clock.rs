//! Cycle counting and rational frequency-domain ticking.
//!
//! The simulator advances in *core cycles* (1400 MHz in the default
//! configuration). Slower or faster components — the 700 MHz interconnect,
//! the 924 MHz GDDR5 command clock, or the frequency-boosted NoC#1 — are
//! driven through a [`ClockDomain`], which converts the core-cycle stream
//! into the right number of component ticks using an error accumulator
//! (a Bresenham-style rational divider), so no long-run drift accumulates.


/// A point in simulated time, measured in core clock cycles.
pub type Cycle = u64;

/// A frequency domain derived from the core clock.
///
/// `ClockDomain` answers, per core cycle, *how many ticks* the component
/// should execute. A 700 MHz NoC under a 1400 MHz core ticks once every two
/// core cycles; a 2× boosted NoC#1 ticks twice per core cycle; the 924 MHz
/// DRAM ticks 0.66 times per core cycle on average.
///
/// # Examples
///
/// ```
/// use dcl1_common::clock::ClockDomain;
///
/// // 700 MHz component under a 1400 MHz core clock.
/// let mut noc = ClockDomain::new(700, 1400);
/// let ticks: u32 = (0..4).map(|_| noc.advance()).sum();
/// assert_eq!(ticks, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockDomain {
    /// Component frequency in MHz (numerator of the tick ratio).
    freq_mhz: u64,
    /// Core frequency in MHz (denominator of the tick ratio).
    core_mhz: u64,
    /// Error accumulator in units of `core_mhz`.
    acc: u64,
    /// Total ticks issued so far.
    ticks: u64,
}

impl ClockDomain {
    /// Creates a domain running at `freq_mhz` under a core clock of
    /// `core_mhz`.
    ///
    /// # Panics
    ///
    /// Panics if either frequency is zero.
    pub fn new(freq_mhz: u64, core_mhz: u64) -> Self {
        assert!(freq_mhz > 0, "component frequency must be nonzero");
        assert!(core_mhz > 0, "core frequency must be nonzero");
        ClockDomain { freq_mhz, core_mhz, acc: 0, ticks: 0 }
    }

    /// Returns the component frequency in MHz.
    pub fn freq_mhz(&self) -> u64 {
        self.freq_mhz
    }

    /// Returns the core frequency in MHz.
    pub fn core_mhz(&self) -> u64 {
        self.core_mhz
    }

    /// Advances simulated time by one core cycle and returns how many
    /// component ticks elapse during it (0, 1, or more for boosted domains).
    #[inline]
    // Ticks per core cycle = freq ratio (< 3 in every config) fits u32.
    #[expect(clippy::cast_possible_truncation)]
    pub fn advance(&mut self) -> u32 {
        self.acc += self.freq_mhz;
        let t = self.acc / self.core_mhz;
        self.acc -= t * self.core_mhz;
        self.ticks += t;
        t as u32
    }

    /// Advances simulated time by `cycles` core cycles at once and returns
    /// how many component ticks elapse in total.
    ///
    /// Exactly equivalent to calling [`advance`](ClockDomain::advance)
    /// `cycles` times: the accumulator invariant `acc < core_mhz` makes the
    /// batched division distribute over the per-cycle ones.
    pub fn advance_by(&mut self, cycles: u64) -> u64 {
        self.acc += cycles * self.freq_mhz;
        let t = self.acc / self.core_mhz;
        self.acc -= t * self.core_mhz;
        self.ticks += t;
        t
    }

    /// The smallest number of core cycles after which `ticks` more
    /// component ticks will have been issued (0 when `ticks` is 0).
    pub fn cycles_until_ticks(&self, ticks: u64) -> u64 {
        if ticks == 0 {
            return 0;
        }
        // Need acc + s * freq >= ticks * core; acc < core <= ticks * core.
        let needed = ticks * self.core_mhz - self.acc;
        needed.div_ceil(self.freq_mhz)
    }

    /// Total component ticks issued since construction.
    pub fn total_ticks(&self) -> u64 {
        self.ticks
    }

    /// Multiplies the component frequency by `factor` (used by the paper's
    /// `+Boost` designs, which double NoC#1 frequency).
    pub fn boost(&mut self, factor: u64) {
        assert!(factor > 0, "boost factor must be nonzero");
        self.freq_mhz *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_rate_ticks_every_other_cycle() {
        let mut d = ClockDomain::new(700, 1400);
        let pattern: Vec<u32> = (0..6).map(|_| d.advance()).collect();
        assert_eq!(pattern.iter().sum::<u32>(), 3);
        assert_eq!(d.total_ticks(), 3);
    }

    #[test]
    fn same_rate_ticks_every_cycle() {
        let mut d = ClockDomain::new(1400, 1400);
        for _ in 0..10 {
            assert_eq!(d.advance(), 1);
        }
    }

    #[test]
    fn double_rate_ticks_twice_per_cycle() {
        let mut d = ClockDomain::new(2800, 1400);
        for _ in 0..10 {
            assert_eq!(d.advance(), 2);
        }
    }

    #[test]
    fn dram_ratio_has_no_drift() {
        // 924 MHz under 1400 MHz: after 1400 core cycles exactly 924 ticks.
        let mut d = ClockDomain::new(924, 1400);
        let total: u32 = (0..1400).map(|_| d.advance()).sum();
        assert_eq!(total, 924);
    }

    #[test]
    fn boost_doubles_tick_rate() {
        let mut d = ClockDomain::new(700, 1400);
        d.boost(4);
        assert_eq!(d.freq_mhz(), 2800);
        for _ in 0..5 {
            assert_eq!(d.advance(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_frequency_panics() {
        ClockDomain::new(0, 1400);
    }

    #[test]
    fn advance_by_matches_repeated_advance() {
        for (f, c) in [(700, 1400), (924, 1400), (2800, 1400), (1400, 1400), (3, 7)] {
            let mut step = ClockDomain::new(f, c);
            let mut batch = ClockDomain::new(f, c);
            let mut total = 0u64;
            for n in [1u64, 2, 3, 5, 17, 64, 1000] {
                let stepped: u64 = (0..n).map(|_| u64::from(step.advance())).sum();
                let batched = batch.advance_by(n);
                assert_eq!(stepped, batched, "{f}/{c} over {n}");
                total += n;
                assert_eq!(step.total_ticks(), batch.total_ticks());
                assert_eq!(step, batch, "accumulator state diverged after {total}");
            }
        }
    }

    #[test]
    fn cycles_until_ticks_is_tight() {
        for (f, c) in [(700, 1400), (924, 1400), (2800, 1400), (3, 7)] {
            let mut d = ClockDomain::new(f, c);
            // Desynchronize the accumulator.
            d.advance_by(13);
            for k in [1u64, 2, 5, 40] {
                let s = d.cycles_until_ticks(k);
                let mut probe = d.clone();
                assert!(probe.advance_by(s) >= k, "{f}/{c}: {s} cycles too few for {k}");
                if s > 0 {
                    let mut short = d.clone();
                    assert!(short.advance_by(s - 1) < k, "{f}/{c}: {s} not minimal for {k}");
                }
            }
            assert_eq!(d.cycles_until_ticks(0), 0);
        }
    }
}
