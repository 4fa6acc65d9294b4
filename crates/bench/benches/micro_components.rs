//! Micro-benchmarks for the hot structures the performance ledger
//! (`benchmark/src/micro.rs`) has no leg for: sparse crossbar arbitration,
//! MSHR allocate/complete, the O(1) replica mean, a loaded and a sparse
//! machine step, and the result ledger. Everything else is a declared
//! per-layer metric of `benchmark/` and is measured only there.
//!
//! Hand-rolled timing harness (no external bench framework): each
//! benchmark is warmed up, then run in batches until ~0.5 s of samples
//! accumulate, reporting the median per-iteration time.

// Bench harness: panicking on a broken setup is the right failure mode.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
#![expect(clippy::disallowed_types, reason = "a timing harness")]

use dcl1::{Design, GpuConfig, GpuSystem, SimOptions};
use dcl1_common::LineAddr;
use dcl1_gpu::TraceSource;
use dcl1_noc::{Crossbar, CrossbarConfig, Packet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `f` repeatedly in timed batches and prints the median ns/iter.
fn bench(name: &str, mut f: impl FnMut()) {
    const BATCH: u32 = 10_000;
    // Warm-up: one batch, untimed.
    for _ in 0..BATCH {
        f();
    }
    let mut samples: Vec<f64> = Vec::new();
    let budget = Duration::from_millis(500);
    let start = Instant::now();
    while start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    let (lo, hi) = (samples[0], samples[samples.len() - 1]);
    println!("{name:<36} {median:>10.1} ns/iter   (min {lo:.1}, max {hi:.1}, n={})", samples.len());
}

fn bench_crossbar_sparse() {
    // An 80x40 switch (Sh40's NoC#1) with two requesters: arbitration and
    // ejection should cost what two packets cost, not what 40 ports do.
    let mut x: Crossbar<u64> = Crossbar::new(CrossbarConfig::new(80, 40).unwrap());
    let mut n = 0u64;
    bench("xbar_arbitrate_sparse_80x40_2req", || {
        for (src, dst) in [(3, 7), (50, 31)] {
            if x.can_inject(src) {
                n += 1;
                let _ = x.try_inject(Packet::new(src, dst, 32, n));
            }
        }
        x.tick();
        let mut at = 0;
        while let Some(out) = x.next_parked(at) {
            at = out + 1;
            while x.pop_output(out).is_some() {}
        }
    });
}

fn bench_mshr() {
    use dcl1_cache::Mshr;
    let mut mshr: Mshr<u64> = Mshr::new(64, 8);
    let mut i = 0u64;
    bench("mshr_allocate_complete", || {
        i += 1;
        let line = LineAddr::new(i % 64);
        if mshr.try_allocate(black_box(line), i).is_err() || i.is_multiple_of(8) {
            black_box(mshr.complete(line));
        }
    });
}

fn bench_presence_mean() {
    use dcl1::PresenceMap;
    // `mean_replicas` runs every replica-sampling interval; with the
    // incrementally maintained aggregates it must be O(1) in the number
    // of resident lines, not a walk over them.
    let mut p = PresenceMap::with_capacity(10_000);
    for i in 0..10_000u64 {
        p.on_fill(LineAddr::new(i));
        if i.is_multiple_of(3) {
            p.on_fill(LineAddr::new(i)); // some replication
        }
    }
    bench("presence_mean_replicas_10k_lines", || {
        black_box(p.mean_replicas());
    });
}

/// `ctas` CTAs of `wavefronts` wavefronts that never finish: a load, then
/// ALU work, forever — the machine stays as loaded as it starts.
#[derive(Debug)]
struct Endless {
    ctas: u32,
    wavefronts: u32,
}

#[derive(Debug)]
struct EndlessTrace(u64);

impl TraceSource for EndlessTrace {
    fn next_instr(&mut self) -> dcl1_gpu::WavefrontInstr {
        use dcl1_gpu::{MemAccess, MemInstr, MemKind, WavefrontInstr};
        self.0 += 1;
        if self.0.is_multiple_of(2) {
            return WavefrontInstr::Alu { latency: 2 };
        }
        WavefrontInstr::Mem(MemInstr {
            kind: MemKind::Load,
            accesses: vec![MemAccess { line: LineAddr::new(self.0 * 97 % 65_536), bytes: 128 }],
        })
    }
}

impl dcl1_gpu::TraceFactory for Endless {
    fn wavefront_trace(&self, cta: u32, wf: u32) -> Box<dyn TraceSource> {
        Box::new(EndlessTrace(u64::from(cta) * 1_000 + u64::from(wf) * 10))
    }
    fn total_ctas(&self) -> u32 {
        self.ctas
    }
    fn wavefronts_per_cta(&self) -> u32 {
        self.wavefronts
    }
}

fn bench_system_step_sparse() {
    // Cost follows activity: the 80-core Sh40 machine with every
    // wavefront slot of every core busy, then with one busy wavefront on
    // one core and the other 79 cores asleep.
    let cfg = GpuConfig::default();
    let sh40 = Design::Shared { nodes: 40 };
    let full = Endless { ctas: 80 * 6, wavefronts: 8 };
    let mut loaded = GpuSystem::build(&cfg, &sh40, &full, SimOptions::default()).unwrap();
    bench("step_loaded_sh40_80core", || {
        loaded.step();
    });
    let one = Endless { ctas: 1, wavefronts: 1 };
    let mut sparse = GpuSystem::build(&cfg, &sh40, &one, SimOptions::default()).unwrap();
    bench("step_sparse_sh40_one_busy_core", || {
        sparse.step();
    });
}

fn bench_ledger() {
    use dcl1_bench::ledger::ResultLedger;
    use std::sync::Arc;
    // One `daemon_warm` tenant: 28 labels, each completed 5 600 times
    // with the store's one `Arc` of its stats, then a `status` digest over
    // all of them.
    // Reported per completed job, since that is what a tenant accumulates.
    const LABELS: u64 = 28;
    const COPIES: u64 = 5_600;
    let points: Vec<(String, Arc<dcl1::RunStats>)> = (0..LABELS)
        .map(|i| {
            let stats = dcl1::RunStats {
                design: "Sh40+C10+Boost".to_string(),
                cycles: 10_000 + i,
                noc_flits: (0..40).map(|n| n * 1_000 + i).collect(),
                per_node_accesses: (0..40).map(|n| n * 777 + i).collect(),
                ..dcl1::RunStats::default()
            };
            (format!("APP-{i:02}/Sh40+C10+Boost"), Arc::new(stats))
        })
        .collect();
    let jobs = (LABELS * COPIES) as f64;
    let mut ledger = ResultLedger::default();
    let t0 = Instant::now();
    for _ in 0..COPIES {
        for (label, stats) in &points {
            ledger.push(black_box(label), black_box(stats));
        }
    }
    let push_ns = t0.elapsed().as_nanos() as f64 / jobs;
    let mut samples: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            black_box(ledger.digest());
            t0.elapsed().as_nanos() as f64 / jobs
        })
        .collect();
    let first = samples[0];
    samples.sort_by(|a, b| a.total_cmp(b));
    println!("{:<36} {push_ns:>10.1} ns/job    (serialise once per label + coalesce)", "ledger_push");
    println!(
        "{:<36} {:>10.2} ns/job    (first call, filling block tables: {first:.2}; n={})",
        "ledger_digest_156800_completed",
        samples[samples.len() / 2],
        samples.len()
    );
}

fn main() {
    println!("micro-component benchmarks (median of ~0.5s batched samples)\n");
    bench_crossbar_sparse();
    bench_mshr();
    bench_presence_mean();
    bench_system_step_sparse();
    bench_ledger();
}
