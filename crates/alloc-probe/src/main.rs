//! Allocation smoke test for the simulator's hot paths.
//!
//! Installs a counting global allocator, warms each structure up, then
//! drives its steady-state loop with counting enabled:
//!
//! * **Component probes** — the slab MSHR (allocate / merge /
//!   `complete_into` with a caller scratch buffer), the open-addressed
//!   `PresenceMap` (fill / probe / evict / `mean_replicas`), and the
//!   `FlatMap` index behind both (insert / probe / remove at stable
//!   capacity). These must perform **exactly zero** heap allocations in
//!   steady state: that is the contract the allocation-free refactor
//!   established, and this binary is the tripwire that keeps it.
//!
//! * **System probe** — steps a full `GpuSystem` and reports allocations
//!   per cycle. The end-to-end loop is *not* zero-alloc by design (CTA
//!   dispatch boxes new wavefront traces; every generated memory
//!   instruction carries its coalesced-access `Vec`), so this probe
//!   asserts a generous per-cycle bound instead — enough headroom for
//!   trace generation, little enough that reintroducing a per-event
//!   tree-node or per-completion `Vec` trips it.
//!
//! Exits nonzero on any violation, so CI can run it as a plain step.
//! `--json=PATH` additionally writes the measurements as a JSON fragment
//! (`{"probes": [{"name", "allocs", "bytes"}...], "system": {"per_step"}}`),
//! the source of a PR's allocations-per-step figure.

use dcl1::{Design, GpuConfig, GpuSystem, PresenceMap, SimOptions};
use dcl1_obs::registry::Registry;
use dcl1_cache::Mshr;
use dcl1_common::{FlatMap, LineAddr};
use dcl1_workloads::by_name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Global toggle: the shim only counts while a probe window is open, so
/// setup and reporting don't pollute the numbers.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator shim that counts allocations while enabled. Only
/// `alloc` and `dealloc` are implemented: the default `realloc` /
/// `alloc_zeroed` route through `alloc`, so growth is counted too.
struct CountingAlloc;

// The only unsafe in the workspace: two direct delegations to the system
// allocator, with the same layout contract the caller already upheld.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled; returns (allocs, bytes).
fn count<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed), r)
}

/// Accumulated measurements, for the human report and the `--json` dump.
#[derive(Default)]
struct Report {
    failed: bool,
    /// `(slug, allocs, bytes)` per zero-alloc component probe.
    probes: Vec<(&'static str, u64, u64)>,
    /// Allocations per cycle for the system probes (worst of the two).
    per_step: f64,
}

impl Report {
    fn to_json(&self) -> String {
        let mut out = String::from("{\"probes\": [");
        for (i, (slug, allocs, bytes)) in self.probes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{slug}\", \"allocs\": {allocs}, \"bytes\": {bytes}}}"
            ));
        }
        out.push_str(&format!("], \"system\": {{\"per_step\": {:.4}}}}}\n", self.per_step));
        out
    }
}

/// Asserts a probe window allocated nothing; reports and flips `failed`
/// otherwise. `slug` is the stable machine name the `--json` dump keys
/// the probe by.
fn expect_zero(slug: &'static str, name: &str, allocs: u64, bytes: u64, report: &mut Report) {
    report.probes.push((slug, allocs, bytes));
    if allocs == 0 {
        println!("{name:<44} OK   (0 allocations)");
    } else {
        println!("{name:<44} FAIL ({allocs} allocations, {bytes} bytes)");
        report.failed = true;
    }
}

const STEADY_OPS: u64 = 1_000_000;

fn probe_mshr(report: &mut Report) {
    let mut mshr: Mshr<u64> = Mshr::new(64, 8);
    let mut scratch: Vec<u64> = Vec::new();
    let drive = |mshr: &mut Mshr<u64>, scratch: &mut Vec<u64>, iters: u64| {
        for i in 0..iters {
            let line = LineAddr::new(i % 48);
            let _ = mshr.try_allocate(line, i);
            let _ = mshr.try_allocate(line, i + 1);
            if i % 3 == 0 {
                scratch.clear();
                mshr.complete_into(line, scratch);
            }
        }
    };
    // Warm up: first-touch growth of waiter vectors and the scratch.
    drive(&mut mshr, &mut scratch, 10_000);
    let (allocs, bytes, ()) = count(|| drive(&mut mshr, &mut scratch, STEADY_OPS));
    expect_zero("mshr", "mshr slab (alloc/merge/complete_into)", allocs, bytes, report);
}

fn probe_presence(report: &mut Report) {
    const LINES: u64 = 4096;
    let mut p = PresenceMap::with_capacity(LINES as usize);
    let drive = |p: &mut PresenceMap, iters: u64| {
        let mut mean = 0.0;
        for i in 0..iters {
            let line = LineAddr::new(i % LINES);
            p.on_fill(line);
            if i % 2 == 0 {
                p.on_evict(line);
            }
            if i % 64 == 0 {
                mean = p.mean_replicas();
            }
        }
        mean
    };
    drive(&mut p, 2 * LINES);
    let (allocs, bytes, mean) = count(|| drive(&mut p, STEADY_OPS));
    assert!(mean >= 0.0, "mean_replicas must be defined");
    expect_zero("presence", "presence map (fill/evict/mean_replicas)", allocs, bytes, report);
}

fn probe_flatmap(report: &mut Report) {
    const KEYS: u64 = 4096;
    let mut map: FlatMap<u64> = FlatMap::with_capacity(KEYS as usize);
    let drive = |map: &mut FlatMap<u64>, iters: u64| {
        for i in 0..iters {
            let key = i % KEYS;
            map.insert(key, i);
            std::hint::black_box(map.get(key));
            if i % 2 == 1 {
                map.remove(key);
            }
        }
    };
    drive(&mut map, 2 * KEYS);
    let (allocs, bytes, ()) = count(|| drive(&mut map, STEADY_OPS));
    expect_zero("flatmap", "flat map (insert/probe/remove at capacity)", allocs, bytes, report);
}

fn probe_epoch_exchange(report: &mut Report) {
    use dcl1_noc::{Crossbar, CrossbarConfig, EpochBatch, EpochKey, Packet};
    // `dcl1_noc::epoch`'s staged ingress (no longer on the machine's
    // cycle path — domains inject into their own crossbars — but still
    // public API the `benchmark/` harness times): stage in key order,
    // seal, inject into a crossbar, clear keeping the allocation. After
    // the first cycle grows the batch to its working set, the loop must
    // be allocation-free.
    let mut x: Crossbar<u64> = Crossbar::new(CrossbarConfig::new(8, 4).expect("valid shape"));
    let mut batch: EpochBatch<Packet<u64>> = EpochBatch::with_capacity(8);
    let drive = |x: &mut Crossbar<u64>, batch: &mut EpochBatch<Packet<u64>>, iters: u64| {
        for cycle in 1..=iters {
            for src in 0..8u64 {
                batch.stage(
                    EpochKey { cycle, source: src, seq: cycle * 8 + src },
                    Packet::new(src as usize, (src % 4) as usize, 2, src),
                );
            }
            batch.seal();
            x.inject_batch(batch, |_, _| {});
            batch.clear();
            x.tick();
            for out in 0..4 {
                while x.pop_output(out).is_some() {}
            }
        }
    };
    drive(&mut x, &mut batch, 10_000);
    let (allocs, bytes, ()) = count(|| drive(&mut x, &mut batch, STEADY_OPS / 8));
    expect_zero("epoch_exchange", "epoch exchange (stage/seal/inject/clear)", allocs, bytes, report);
}

fn probe_registry(report: &mut Report) {
    // The obs counter registry sits inside the measured cycle loop when
    // `--metrics`/the sweep enables it: every mutation must be index
    // arithmetic on preallocated slots, and a text snapshot into a reused
    // buffer must not grow it. Registration (the only allocating phase)
    // happens outside the counted window, as it does in the machine.
    let mut reg = Registry::new();
    let c = reg.counter("probe.events");
    let g = reg.gauge("probe.level");
    let h = reg.histogram("probe.latency");
    let mut out = String::new();
    let drive = |reg: &mut Registry, out: &mut String, iters: u64| {
        for i in 0..iters {
            reg.add(c, 3);
            reg.set(g, i % 4096);
            reg.observe(h, i % 100_000);
            if i % 1024 == 0 {
                out.clear();
                reg.render_into(out);
            }
        }
    };
    // Warm: drives values into their steady digit range and grows the
    // render buffer once; headroom for the counted loop's extra digits.
    drive(&mut reg, &mut out, STEADY_OPS);
    out.reserve(1024);
    let (allocs, bytes, ()) = count(|| drive(&mut reg, &mut out, STEADY_OPS));
    assert!(!out.is_empty(), "render must produce a snapshot");
    expect_zero("registry", "counter registry (add/set/observe/render)", allocs, bytes, report);
}

fn probe_store_mem_hit(report: &mut Report) {
    use dcl1_store::{Codec, ResultStore, StoreConfig};
    struct NumCodec;
    impl Codec<u64> for NumCodec {
        fn encode(&self, v: &u64) -> String {
            v.to_string()
        }
        fn decode(&self, body: &str) -> Option<u64> {
            body.parse().ok()
        }
    }
    // Memory-only store: the probe drives the production lookup path that
    // serves every warm-sweep point — shard lock, FlatMap probe, full-key
    // verify, LRU relink, Arc clone. The tiered-store contract is that
    // this path is allocation-free in steady state.
    let store: ResultStore<u64> = ResultStore::open(
        &StoreConfig {
            mem_budget_bytes: 1 << 20,
            mem_shards: 8,
            disk: None,
            shared: None,
            shared_writeback: false,
        },
        NumCodec,
    );
    const KEYS: u64 = 512;
    for k in 0..KEYS {
        // Spread the leading byte so every shard participates.
        let key = (u128::from(k) << 120) | u128::from(k);
        store.insert_mem_only(key, &k);
    }
    let mut corruptions = Vec::new();
    let drive = |store: &ResultStore<u64>, corr: &mut Vec<dcl1_store::Corruption>, iters: u64| {
        for i in 0..iters {
            let k = i % KEYS;
            let key = (u128::from(k) << 120) | u128::from(k);
            let l = store.lookup(key, corr);
            assert!(l.hit.is_some(), "probe key must stay resident");
        }
    };
    drive(&store, &mut corruptions, 10_000);
    let (allocs, bytes, ()) = count(|| drive(&store, &mut corruptions, STEADY_OPS));
    expect_zero("store_mem_hit", "result store (mem-tier lookup hit)", allocs, bytes, report);
}

fn probe_system(report: &mut Report) {
    // Generous tripwire, not a zero-alloc claim: trace generation
    // legitimately allocates (one access `Vec` per memory instruction,
    // CTA dispatch boxes wavefront traces). Reintroducing per-event heap
    // structures on the completion paths multiplies this figure.
    const MAX_ALLOCS_PER_STEP: f64 = 8.0;
    const WARMUP_STEPS: u64 = 20_000;
    const PROBE_STEPS: u64 = 20_000;
    let cfg = GpuConfig::default();
    let app = by_name("T-AlexNet").expect("known workload");
    let mut sys = GpuSystem::build(&cfg, &Design::flagship(&cfg), &app, SimOptions::default())
        .expect("flagship design builds");
    for _ in 0..WARMUP_STEPS {
        sys.step();
    }
    let (allocs, bytes, ()) = count(|| {
        for _ in 0..PROBE_STEPS {
            sys.step();
        }
    });
    let per_step = allocs as f64 / PROBE_STEPS as f64;
    let ok = per_step <= MAX_ALLOCS_PER_STEP;
    println!(
        "system step loop (bound {MAX_ALLOCS_PER_STEP}/cycle)          {} ({per_step:.2} allocs/cycle, {bytes} bytes over {PROBE_STEPS} cycles)",
        if ok { "OK  " } else { "FAIL" },
    );
    report.per_step = report.per_step.max(per_step);
    if !ok {
        report.failed = true;
    }
}

fn probe_sharded_system(report: &mut Report) {
    // The sharded step loop (worker pool off, so the probe measures the
    // partitioning machinery itself: the per-domain region loop and
    // presence-log replay) is held to the same per-cycle bound as the
    // sequential loop — sharding must not reintroduce per-event heap
    // traffic.
    const MAX_ALLOCS_PER_STEP: f64 = 8.0;
    const WARMUP_STEPS: u64 = 20_000;
    const PROBE_STEPS: u64 = 20_000;
    let cfg = GpuConfig::default();
    let app = by_name("T-AlexNet").expect("known workload");
    let mut sys = GpuSystem::build(&cfg, &Design::flagship(&cfg), &app, SimOptions::default())
        .expect("flagship design builds");
    sys.set_shards(2);
    sys.set_shard_threads(false);
    for _ in 0..WARMUP_STEPS {
        sys.step();
    }
    let (allocs, bytes, ()) = count(|| {
        for _ in 0..PROBE_STEPS {
            sys.step();
        }
    });
    let per_step = allocs as f64 / PROBE_STEPS as f64;
    let ok = per_step <= MAX_ALLOCS_PER_STEP;
    println!(
        "sharded step loop (bound {MAX_ALLOCS_PER_STEP}/cycle)         {} ({per_step:.2} allocs/cycle, {bytes} bytes over {PROBE_STEPS} cycles)",
        if ok { "OK  " } else { "FAIL" },
    );
    report.per_step = report.per_step.max(per_step);
    if !ok {
        report.failed = true;
    }
}

fn main() {
    let json_path = std::env::args().skip(1).find_map(|a| {
        a.strip_prefix("--json=").map(std::path::PathBuf::from)
    });
    println!("alloc-probe: steady-state allocation audit ({STEADY_OPS} ops per component)\n");
    let mut report = Report::default();
    probe_mshr(&mut report);
    probe_presence(&mut report);
    probe_flatmap(&mut report);
    probe_epoch_exchange(&mut report);
    probe_registry(&mut report);
    probe_store_mem_hit(&mut report);
    probe_system(&mut report);
    probe_sharded_system(&mut report);
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("alloc-probe: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("\nalloc-probe: measurements written to {}", path.display());
    }
    if report.failed {
        println!("\nalloc-probe: FAILED — a hot path allocated in steady state");
        std::process::exit(1);
    }
    println!("\nalloc-probe: all probes passed");
}
