//! Shared machinery for the machine-level integration tests: seeded random
//! kernels plus the design points the paper sweeps.

// Test fixture: seeded-random trace math uses small, in-range casts.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use dcl1::{Design, GpuConfig};
use dcl1_common::{LineAddr, SplitMix64};
use dcl1_gpu::{MemAccess, MemInstr, MemKind, TraceFactory, TraceSource, WavefrontInstr};

#[derive(Debug, Clone)]
pub struct KernelParams {
    pub ctas: u32,
    pub wf_per_cta: u32,
    pub instrs: u32,
    pub mem_fraction: f64,
    pub store_fraction: f64,
    pub atomic_fraction: f64,
    pub shared_lines: u64,
    pub span: u32,
    pub seed: u64,
}

impl KernelParams {
    /// Draws a parameter point from the same ranges the old proptest
    /// strategy used.
    pub fn draw(rng: &mut SplitMix64) -> Self {
        KernelParams {
            ctas: 1 + rng.next_below(11) as u32,
            wf_per_cta: 1 + rng.next_below(3) as u32,
            instrs: 1 + rng.next_below(47) as u32,
            mem_fraction: 0.1 + 0.8 * rng.next_f64(),
            store_fraction: 0.3 * rng.next_f64(),
            atomic_fraction: 0.1 * rng.next_f64(),
            shared_lines: 8 + rng.next_below(248),
            span: 1 + rng.next_below(3) as u32,
            seed: rng.next_u64(),
        }
    }
}

#[derive(Debug)]
pub struct RandomKernel(pub KernelParams);

#[derive(Debug)]
struct RandomTrace {
    p: KernelParams,
    rng: SplitMix64,
    uid: u64,
    left: u32,
    cursor: u64,
}

impl TraceSource for RandomTrace {
    fn next_instr(&mut self) -> WavefrontInstr {
        if self.left == 0 {
            return WavefrontInstr::Done;
        }
        self.left -= 1;
        if !self.rng.chance(self.p.mem_fraction) {
            return WavefrontInstr::Alu { latency: (self.rng.next_below(4)) as u32 };
        }
        let r = self.rng.next_f64();
        let kind = if r < self.p.atomic_fraction {
            MemKind::Atomic
        } else if r < self.p.atomic_fraction + self.p.store_fraction {
            MemKind::Store
        } else if r < self.p.atomic_fraction + self.p.store_fraction + 0.03 {
            MemKind::Aux
        } else {
            MemKind::Load
        };
        let n = if kind == MemKind::Load { 1 + self.rng.next_below(self.p.span as u64) } else { 1 };
        let accesses = (0..n)
            .map(|_| {
                let line = if self.rng.chance(0.5) {
                    self.rng.next_below(self.p.shared_lines)
                } else {
                    self.cursor += 1;
                    1 << 20 | (self.uid * 131 + self.cursor)
                };
                MemAccess {
                    line: LineAddr::new(line),
                    bytes: 32 * (1 + self.rng.next_below(4) as u32),
                }
            })
            .collect();
        WavefrontInstr::Mem(MemInstr { kind, accesses })
    }
}

impl TraceFactory for RandomKernel {
    fn wavefront_trace(&self, cta: u32, wf: u32) -> Box<dyn TraceSource> {
        let uid = cta as u64 * self.0.wf_per_cta as u64 + wf as u64;
        Box::new(RandomTrace {
            rng: SplitMix64::new(self.0.seed).split(uid),
            p: self.0.clone(),
            uid,
            left: self.0.instrs,
            cursor: 0,
        })
    }
    fn total_ctas(&self) -> u32 {
        self.0.ctas
    }
    fn wavefronts_per_cta(&self) -> u32 {
        self.0.wf_per_cta
    }
}

pub const DESIGNS: [Design; 9] = [
    Design::Baseline,
    Design::IdealSingleL1,
    Design::Private { nodes: 8 },
    Design::Private { nodes: 4 },
    Design::Shared { nodes: 8 },
    Design::Shared { nodes: 4 },
    Design::Clustered { nodes: 4, clusters: 2, boost: false },
    Design::Clustered { nodes: 8, clusters: 2, boost: true },
    Design::Clustered { nodes: 8, clusters: 4, boost: true },
];

/// A drawn kernel made heavy enough to back the memory system up into the
/// cores, so cores park behind closed ports as well as on outstanding
/// fills.
#[allow(dead_code)] // the sleeper tests only
pub fn congested() -> RandomKernel {
    let drawn = KernelParams::draw(&mut SplitMix64::new(0x1A2_7C4E));
    RandomKernel(KernelParams {
        ctas: 32,
        wf_per_cta: 4,
        instrs: 48,
        mem_fraction: 0.9,
        store_fraction: 0.3,
        span: 8,
        ..drawn
    })
}

/// Every machine the test drives: the 8-core test machine under every
/// design the paper sweeps, and the 10-core one CDXBar needs.
#[allow(dead_code)] // the sleeper tests only
pub fn machines() -> Vec<(GpuConfig, Design)> {
    let ten = GpuConfig { cores: 10, ..GpuConfig::small_test() };
    let mut all: Vec<_> = DESIGNS.iter().map(|&d| (GpuConfig::small_test(), d)).collect();
    all.push((ten.clone(), Design::CdXbar { stage1_mult: 1, stage2_mult: 1 }));
    all.push((ten, Design::Baseline));
    all
}
