//! Trace generation: [`AppSpec`] → deterministic per-wavefront
//! instruction streams.

use crate::spec::{AppSpec, STRIPE_LINES};
use dcl1_common::{LineAddr, SplitMix64};
use dcl1_gpu::{MemAccess, MemInstr, MemKind, TraceFactory, TraceSource, WavefrontInstr};
use std::sync::Arc;

/// Line-number bases for the synthetic address-space layout. Regions are
/// far apart so they can never alias.
const SHARED_BASE: u64 = 0;
const ATOMIC_BASE: u64 = 1 << 22;
const AUX_BASE: u64 = 1 << 23;
/// Stripe-aligned so camped hot lines keep their residue class.
const HOT_BASE: u64 = 60_000 * STRIPE_LINES;
const STREAM_BASE: u64 = 1 << 28;

/// Residue class of the camped hot stripe.
const STRIPE_RESIDUE: u64 = 7;

/// One wavefront's instruction stream for an [`AppSpec`].
///
/// The spec is shared, not copied: every trace a [`SharedSpec`] creates
/// points at the one spec of its point.
#[derive(Debug)]
pub struct AppTrace {
    spec: Arc<AppSpec>,
    rng: SplitMix64,
    cta: u32,
    remaining: u32,
    wf_uid: u64,
    stream_cursor: u64,
}

impl AppTrace {
    /// Creates the trace of wavefront `wf` of CTA `cta`.
    pub fn new(spec: AppSpec, cta: u32, wf: u32) -> Self {
        AppTrace::shared(Arc::new(spec), cta, wf)
    }

    /// Creates the trace of wavefront `wf` of CTA `cta` over a shared spec.
    fn shared(spec: Arc<AppSpec>, cta: u32, wf: u32) -> Self {
        let wf_uid = cta as u64 * spec.wavefronts_per_cta as u64 + wf as u64;
        AppTrace {
            rng: SplitMix64::new(0xA99_5EED).split(wf_uid),
            remaining: spec.instrs_for_cta(cta),
            spec,
            cta,
            wf_uid,
            stream_cursor: 0,
        }
    }

    fn shared_line(&mut self) -> u64 {
        let s = &self.spec;
        if s.home_skew > 0.0 && self.rng.chance(s.home_skew) {
            // Camped accesses: confined to one residue class mod STRIPE.
            // Few enough stripes that the camped set fits in every cache
            // (private L1s hit on their replicas; under the shared design
            // all cores hammer the single home node's port — the paper's
            // partition camping).
            const CAMPED_STRIPES: u64 = 16;
            SHARED_BASE + self.rng.next_below(CAMPED_STRIPES) * STRIPE_LINES + STRIPE_RESIDUE
        } else {
            SHARED_BASE + self.rng.next_below(s.shared_lines.max(1))
        }
    }

    fn private_hot_line(&mut self) -> u64 {
        let s = &self.spec;
        let idx = self.rng.next_below(s.private_hot_lines.max(1));
        // For striped apps, `home_skew` is the fraction of hot accesses
        // that land on the camped stripe; the rest use packed per-CTA
        // tiles (real kernels mix camped column walks with well-spread
        // row accesses).
        if s.striped_private && self.rng.chance(s.home_skew) {
            HOT_BASE + (self.cta as u64 * s.private_hot_lines + idx) * STRIPE_LINES + STRIPE_RESIDUE
        } else {
            HOT_BASE + self.cta as u64 * s.private_hot_lines + idx
        }
    }

    fn stream_line(&mut self) -> u64 {
        // Per-wavefront stream stride: prime, so stream bases spread over
        // every L2 slice and home-node residue instead of camping on the
        // aligned slot a power-of-two stride would hit.
        const STREAM_STRIDE: u64 = 8209;
        let line = STREAM_BASE + self.wf_uid * STREAM_STRIDE + self.stream_cursor;
        self.stream_cursor += 1;
        line
    }

    fn data_line(&mut self) -> u64 {
        let s = &self.spec;
        let r = self.rng.next_f64();
        if r < s.shared_fraction {
            self.shared_line()
        } else if r < s.shared_fraction + s.private_hot_fraction {
            self.private_hot_line()
        } else {
            self.stream_line()
        }
    }

    /// Stores target output data: the uncamped shared region (in place)
    /// or the write stream — never the camped/striped read tiles, which
    /// in the modelled kernels (GEMM operands, BVH nodes, weights) are
    /// read-only.
    fn store_line(&mut self) -> u64 {
        let s = &self.spec;
        if s.shared_fraction > 0.0 && self.rng.chance(s.shared_fraction) {
            SHARED_BASE + self.rng.next_below(s.shared_lines.max(1))
        } else {
            self.stream_line()
        }
    }
}

impl TraceSource for AppTrace {
    // access_span is a single-digit spec constant; the draw fits u32.
    #[expect(clippy::cast_possible_truncation)]
    fn next_instr(&mut self) -> WavefrontInstr {
        if self.remaining == 0 {
            return WavefrontInstr::Done;
        }
        self.remaining -= 1;

        if !self.rng.chance(self.spec.mem_fraction) {
            return WavefrontInstr::Alu { latency: self.spec.alu_latency };
        }

        // Pick the memory-instruction kind.
        let s = &*self.spec;
        let (aux, atomic, store) = (s.aux_fraction, s.atomic_fraction, s.store_fraction);
        let (span, bytes) = (s.access_span, s.bytes_per_txn);
        let k = self.rng.next_f64();
        let (kind, line0) = if k < aux {
            (MemKind::Aux, AUX_BASE + self.rng.next_below(512))
        } else if k < aux + atomic {
            (MemKind::Atomic, ATOMIC_BASE + self.rng.next_below(64))
        } else if k < aux + atomic + store {
            (MemKind::Store, self.store_line())
        } else {
            (MemKind::Load, self.data_line())
        };

        // Fan out into 1..=access_span coalesced transactions. Regular
        // apps stay at one; irregular ones draw extra independent lines
        // from the same stream.
        let n = if span > 1 && kind == MemKind::Load {
            1 + self.rng.next_below(span as u64) as u32
        } else {
            1
        };
        let mut accesses = Vec::with_capacity(n as usize);
        accesses.push(MemAccess {
            line: LineAddr::new(line0),
            bytes,
        });
        for _ in 1..n {
            accesses.push(MemAccess {
                line: LineAddr::new(self.data_line()),
                bytes,
            });
        }
        WavefrontInstr::Mem(MemInstr { kind, accesses })
    }
}

/// An [`AppSpec`] as a [`TraceFactory`] whose traces share it: each
/// wavefront holds a pointer to the one spec instead of its own copy.
/// What a point builds its machine from.
#[derive(Debug, Clone)]
pub struct SharedSpec(Arc<AppSpec>);

impl SharedSpec {
    /// Shares `spec` among the traces this factory creates.
    pub fn new(spec: AppSpec) -> Self {
        SharedSpec(Arc::new(spec))
    }

    /// The shared spec.
    pub fn spec(&self) -> &AppSpec {
        &self.0
    }
}

impl TraceFactory for SharedSpec {
    fn wavefront_trace(&self, cta: u32, wf: u32) -> Box<dyn TraceSource> {
        Box::new(AppTrace::shared(Arc::clone(&self.0), cta, wf))
    }

    fn total_ctas(&self) -> u32 {
        self.0.ctas
    }

    fn wavefronts_per_cta(&self) -> u32 {
        self.0.wavefronts_per_cta
    }
}

/// Each trace gets its own copy of the spec; [`SharedSpec`] shares one.
impl TraceFactory for AppSpec {
    fn wavefront_trace(&self, cta: u32, wf: u32) -> Box<dyn TraceSource> {
        Box::new(AppTrace::new(*self, cta, wf))
    }

    fn total_ctas(&self) -> u32 {
        self.ctas
    }

    fn wavefronts_per_cta(&self) -> u32 {
        self.wavefronts_per_cta
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test values are tiny
mod tests {
    use super::*;
    use crate::spec::catalog;

    fn drain(t: &mut AppTrace) -> Vec<WavefrontInstr> {
        let mut v = Vec::new();
        loop {
            match t.next_instr() {
                WavefrontInstr::Done => break,
                i => v.push(i),
            }
        }
        v
    }

    #[test]
    fn traces_are_deterministic_per_wavefront() {
        let spec = catalog()[1]; // C-BFS
        let a = drain(&mut AppTrace::new(spec, 3, 1));
        let b = drain(&mut AppTrace::new(spec, 3, 1));
        assert_eq!(a, b);
        let c = drain(&mut AppTrace::new(spec, 3, 2));
        assert_ne!(a, c, "different wavefronts should differ");
    }

    #[test]
    fn shared_spec_traces_match_copied_ones() {
        for spec in catalog() {
            let shared = SharedSpec::new(spec);
            assert_eq!(shared.total_ctas(), spec.total_ctas(), "{}", spec.name);
            assert_eq!(
                shared.wavefronts_per_cta(),
                spec.wavefronts_per_cta(),
                "{}",
                spec.name
            );
            for (cta, wf) in [(0, 0), (3, 1)] {
                let a = drain(&mut AppTrace::new(spec, cta, wf));
                let mut t = shared.wavefront_trace(cta, wf);
                let b: Vec<_> = std::iter::from_fn(|| Some(t.next_instr()))
                    .take_while(|i| *i != WavefrontInstr::Done)
                    .collect();
                assert_eq!(a, b, "{} cta {cta} wf {wf}", spec.name);
            }
        }
    }

    #[test]
    fn a_trace_holds_no_copy_of_its_spec() {
        assert!(std::mem::size_of::<AppTrace>() <= 40);
    }

    #[test]
    fn trace_length_matches_spec() {
        for spec in catalog() {
            let n = drain(&mut AppTrace::new(spec, 0, 0)).len();
            assert_eq!(n as u32, spec.instrs_for_cta(0), "{}", spec.name);
        }
    }

    #[test]
    fn mem_fraction_roughly_respected() {
        let spec = catalog()[0]; // C-BLK, mem 0.45
        let instrs = drain(&mut AppTrace::new(spec, 0, 0));
        let mem = instrs.iter().filter(|i| matches!(i, WavefrontInstr::Mem(_))).count();
        let frac = mem as f64 / instrs.len() as f64;
        assert!((frac - spec.mem_fraction).abs() < 0.15, "mem fraction {frac}");
    }

    #[test]
    fn shared_apps_emit_shared_lines_across_ctas() {
        let spec = catalog().into_iter().find(|a| a.name == "T-AlexNet").unwrap();
        let lines = |cta| {
            let mut t = AppTrace::new(spec, cta, 0);
            let mut set = std::collections::BTreeSet::new();
            for i in drain(&mut t) {
                if let WavefrontInstr::Mem(m) = i {
                    for a in m.accesses {
                        if a.line.raw() < 1 << 20 {
                            set.insert(a.line.raw());
                        }
                    }
                }
            }
            set
        };
        let a = lines(0);
        let b = lines(17);
        let inter = a.intersection(&b).count();
        assert!(inter > 0, "CTAs of a shared app must touch common lines");
        // All shared lines fall inside the declared region.
        assert!(a.iter().all(|&l| l < spec.shared_lines));
    }

    #[test]
    fn striped_private_lines_share_a_home_residue() {
        let spec = catalog().into_iter().find(|a| a.name == "P-GEMM").unwrap();
        let mut t = AppTrace::new(spec, 5, 0);
        let (mut striped, mut packed) = (0usize, 0usize);
        for i in drain(&mut t) {
            if let WavefrontInstr::Mem(m) = i {
                for a in m.accesses {
                    let l = a.line.raw();
                    if (HOT_BASE..STREAM_BASE).contains(&l) {
                        if l % STRIPE_LINES == STRIPE_RESIDUE {
                            striped += 1;
                        } else {
                            packed += 1;
                        }
                    }
                }
            }
        }
        // `home_skew` of the hot accesses camp on the stripe; the rest
        // are packed per-CTA tiles.
        assert!(striped > 0, "no camped hot lines");
        assert!(packed > 0, "no packed hot lines");
        let frac = striped as f64 / (striped + packed) as f64;
        assert!((frac - spec.home_skew).abs() < 0.2, "striped fraction {frac}");
    }

    #[test]
    fn skewed_shared_lines_prefer_the_stripe() {
        let spec = catalog().into_iter().find(|a| a.name == "P-2MM").unwrap();
        let mut t = AppTrace::new(spec, 1, 0);
        let mut on_stripe = 0usize;
        let mut total = 0usize;
        // Camped lines live in the 48-stripe span; plain shared lines in
        // the declared region. Stores never camp, so count loads only.
        let shared_span = spec.shared_lines.max(16 * STRIPE_LINES);
        for i in drain(&mut t) {
            if let WavefrontInstr::Mem(m) = i {
                if m.kind != MemKind::Load {
                    continue;
                }
                for a in m.accesses {
                    let l = a.line.raw();
                    if l < shared_span {
                        total += 1;
                        if l % STRIPE_LINES == STRIPE_RESIDUE {
                            on_stripe += 1;
                        }
                    }
                }
            }
        }
        assert!(total > 0);
        let frac = on_stripe as f64 / total as f64;
        assert!(
            frac > 0.6 * spec.home_skew,
            "camped fraction {frac} too low for skew {}",
            spec.home_skew
        );
    }

    #[test]
    fn streaming_never_reuses_lines() {
        let spec = catalog()[0]; // C-BLK: pure streaming
        let mut t = AppTrace::new(spec, 0, 0);
        let mut seen = std::collections::BTreeSet::new();
        for i in drain(&mut t) {
            if let WavefrontInstr::Mem(m) = i {
                if m.kind == MemKind::Load || m.kind == MemKind::Store {
                    for a in m.accesses {
                        if a.line.raw() >= STREAM_BASE {
                            assert!(seen.insert(a.line.raw()), "stream reuse at {}", a.line);
                        }
                    }
                }
            }
        }
    }
}
