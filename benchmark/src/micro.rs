//! Fixed-operation micro legs: one hot structure per leg, driven through
//! its public interface for a pinned number of operations, so the leg
//! costs the same wall time on every run and its per-operation cost can
//! be set next to the layer's share of a whole sweep. The access patterns
//! follow `crates/bench/benches/micro_components.rs`.

use crate::layers::Metrics;
use dcl1::{Design, GpuConfig, GpuSystem, SimOptions};
use dcl1_bench::runner::{self, RunRequest, Scale};
use dcl1_common::LineAddr;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Batches per leg; the leg reports the median batch.
const BATCHES: usize = 5;

/// Median nanoseconds per call of `f` over [`BATCHES`] timed batches of
/// `ops` calls, after one untimed batch.
fn ns_per_op(ops: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..ops {
        f();
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ops {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(ops)
        })
        .collect();
    crate::stats::median(&samples)
}

fn flagship_system(app: &dcl1_workloads::AppSpec, shards: usize) -> GpuSystem<'_> {
    let cfg = GpuConfig::default();
    let mut sys = GpuSystem::build(&cfg, &Design::flagship(&cfg), app, SimOptions::default())
        .expect("the flagship design resolves on the default machine");
    if shards > 1 {
        sys.set_shards(shards);
        sys.set_shard_threads(false);
    }
    sys
}

fn kernel_legs(out: &mut Metrics) {
    use dcl1_cache::{CacheGeometry, LookupResult, Mshr, SetAssocCache};
    use dcl1_common::FlatMap;
    use dcl1_gpu::{TraceSource, WavefrontInstr};
    use dcl1_mem::{DramConfig, MemoryController};
    use dcl1_noc::{Crossbar, CrossbarConfig, EpochBatch, EpochKey, Packet};
    use dcl1_workloads::AppTrace;

    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    let spec = dcl1_workloads::by_name("T-AlexNet").expect("T-AlexNet is in the catalog");
    let mut trace = AppTrace::new(spec, 0, 0);
    put(
        "workloads.trace_next_ns",
        ns_per_op(200_000, || {
            if matches!(trace.next_instr(), WavefrontInstr::Done) {
                trace = AppTrace::new(spec, 0, 0);
            }
        }),
    );

    let xbar_cfg = || CrossbarConfig::new(8, 4).expect("8x4 is a valid crossbar");
    let mut x: Crossbar<u64> = Crossbar::new(xbar_cfg());
    let mut n = 0u64;
    put(
        "noc.xbar_tick_saturated_ns",
        ns_per_op(50_000, || {
            for src in 0..8 {
                if x.can_inject(src) {
                    n += 1;
                    let _ = x.try_inject(Packet::new(src, (n % 4) as usize, 32, n));
                }
            }
            x.tick();
            for port in 0..4 {
                while x.pop_output(port).is_some() {}
            }
        }),
    );
    let mut idle: Crossbar<u64> = Crossbar::new(xbar_cfg());
    put("noc.xbar_tick_idle_ns", ns_per_op(200_000, || idle.tick()));

    let mut ex: Crossbar<u64> = Crossbar::new(xbar_cfg());
    let mut batch: EpochBatch<Packet<u64>> = EpochBatch::with_capacity(8);
    let mut cycle = 0u64;
    put(
        "noc.epoch_batch_ns",
        ns_per_op(50_000, || {
            cycle += 1;
            for src in 0..8u64 {
                batch.stage(
                    EpochKey {
                        cycle,
                        source: src,
                        seq: cycle * 8 + src,
                    },
                    Packet::new(src as usize, (src % 4) as usize, 2, src),
                );
            }
            batch.seal();
            ex.inject_batch(&mut batch, |_, _| {});
            batch.clear();
            ex.tick();
            for port in 0..4 {
                while ex.pop_output(port).is_some() {}
            }
        }),
    );

    let mut mc: MemoryController<u32> = MemoryController::new(DramConfig::default());
    let mut i = 0u64;
    put(
        "mem.dram_tick_loaded_ns",
        ns_per_op(100_000, || {
            i += 1;
            if mc.can_accept() {
                let _ = mc.try_enqueue(LineAddr::new(i * 17 % 4096), false, Some(i as u32));
            }
            mc.tick();
            while mc.pop_reply().is_some() {}
        }),
    );

    let geom = CacheGeometry::new(16 * 1024, 4, 128).expect("16 KiB 4-way is a valid geometry");
    let mut cache = SetAssocCache::new(geom);
    let mut i = 0u64;
    put(
        "cache.lookup_fill_ns",
        ns_per_op(200_000, || {
            i = i.wrapping_add(0x9E37_79B9);
            let line = LineAddr::new(i % 4096);
            if cache.lookup(black_box(line)) == LookupResult::Miss {
                cache.fill(line);
            }
        }),
    );

    let mut mshr: Mshr<u64> = Mshr::new(64, 8);
    let mut scratch: Vec<u64> = Vec::new();
    let mut i = 0u64;
    put(
        "cache.mshr_merge_complete_ns",
        ns_per_op(200_000, || {
            i += 1;
            let line = LineAddr::new(i % 32);
            let _ = mshr.try_allocate(black_box(line), i);
            let _ = mshr.try_allocate(line, i + 1);
            if i.is_multiple_of(4) {
                scratch.clear();
                black_box(mshr.complete_into(line, &mut scratch));
            }
        }),
    );

    let mut map: FlatMap<u64> = FlatMap::with_capacity(4096);
    let mut i = 0u64;
    put(
        "common.flatmap_churn_ns",
        ns_per_op(200_000, || {
            i += 1;
            let key = i % 4096;
            map.insert(black_box(key), i);
            black_box(map.get(key));
            if i.is_multiple_of(2) {
                map.remove(key.wrapping_sub(7) % 4096);
            }
        }),
    );

    let mut presence = dcl1::PresenceMap::new();
    let mut i = 0u64;
    put(
        "dcl1.presence_churn_ns",
        ns_per_op(200_000, || {
            i += 1;
            let line = LineAddr::new(i % 10_000);
            presence.on_fill(line);
            black_box(presence.copies(line));
            if i.is_multiple_of(2) {
                presence.on_evict(line);
            }
        }),
    );

    let mut seq = flagship_system(&spec, 1);
    put("dcl1.step_inline_ns", ns_per_op(4_000, || seq.step()));
    let mut sharded = flagship_system(&spec, 4);
    put(
        "dcl1.step_sharded4_inline_ns",
        ns_per_op(4_000, || sharded.step()),
    );

    let builds: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            black_box(flagship_system(&spec, 1));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    put("dcl1.build_ms_p50", crate::stats::median(&builds));
}

/// A codec for the store legs: the value is its own encoding.
struct TextCodec;

impl dcl1_store::Codec<String> for TextCodec {
    fn encode(&self, value: &String) -> String {
        value.clone()
    }

    fn decode(&self, body: &str) -> Option<String> {
        Some(body.to_string())
    }
}

fn service_legs(out: &mut Metrics, scratch: &Path) -> Result<(), String> {
    use dcl1_common::journal::JournalWriter;
    use dcl1_resilience::{supervise, RetryPolicy, SimError};
    use dcl1_store::{DiskTierConfig, ResultStore, StoreConfig};
    use dcl1d::qjournal::{QueueJournal, QueueOp};
    use dcl1d::queue::{JobQueue, JobSpec, Quotas};

    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    let req = crate::points::PointSet::Probe.requests().remove(0);
    put(
        "bench.memo_key_ns",
        ns_per_op(20_000, || {
            black_box(runner::memo_key_hex(black_box(&req), Scale::Smoke));
        }),
    );

    let policy = RetryPolicy {
        max_attempts: 3,
        backoff: std::time::Duration::ZERO,
    };
    put(
        "resilience.supervise_noop_ns",
        ns_per_op(200_000, || {
            let r = supervise(
                "noop",
                &policy,
                |_| Ok::<u64, SimError>(black_box(1)),
                |_| {},
            );
            black_box(r.is_ok());
        }),
    );

    // A payload the size of one serialized smoke-scale `RunStats`.
    let payload = "x".repeat(850);
    let mut journal = JournalWriter::open(&scratch.join("journal.jsonl"))
        .map_err(|e| format!("open journal leg: {e}"))?;
    let mut key = 0u128;
    put(
        "common.journal_append_us",
        ns_per_op(2_000, || {
            key += 1;
            let _ = journal.append(key, "P-GEMM/Sh40", &payload);
        }) / 1e3,
    );

    let store: ResultStore<String> = ResultStore::open(
        &StoreConfig {
            mem_budget_bytes: 64 << 20,
            mem_shards: 8,
            disk: Some(DiskTierConfig {
                root: scratch.join("store").join("v0"),
                budget_bytes: None,
                migrate_flat: false,
                purge_stale_siblings: false,
            }),
            shared: None,
            shared_writeback: false,
        },
        TextCodec,
    );
    let mut key = 0u128;
    put(
        "store.insert_us",
        ns_per_op(300, || {
            // Spread keys over the 256-way fan-out as content hashes do.
            key = key.wrapping_add(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
            black_box(store.insert(key, &payload));
        }) / 1e3,
    );
    let resident = key;
    let mut corruptions = Vec::new();
    put(
        "store.mem_hit_ns",
        ns_per_op(200_000, || {
            black_box(
                store
                    .lookup(black_box(resident), &mut corruptions)
                    .hit
                    .is_some(),
            );
        }),
    );
    put(
        "store.disk_hit_us",
        ns_per_op(1_000, || {
            black_box(matches!(
                store.reload_disk(black_box(resident), &mut corruptions),
                dcl1_store::DiskReload::Ok(_)
            ));
        }) / 1e3,
    );
    if !corruptions.is_empty() {
        return Err(format!(
            "store legs hit {} corrupt entries",
            corruptions.len()
        ));
    }

    // Offer/take against a standing backlog of 512 jobs: the depth a
    // saturated daemon queue sits at under the default quotas.
    let quotas = Quotas {
        max_queued: 4096,
        tenant_queued: 4096,
        tenant_inflight: 2,
    };
    let spec = |n: u64| JobSpec {
        tenant: format!("t{}", n % 4),
        app: "P-GEMM".to_string(),
        design: "Sh40".to_string(),
        priority: 2,
        deadline_secs: None,
        chaos: None,
    };
    let mut queue = JobQueue::fresh();
    for n in 0..512 {
        let _ = queue.offer(spec(n), &quotas);
    }
    let mut n = 512u64;
    put(
        "dcl1d.queue_offer_take_ns",
        ns_per_op(2_000, || {
            n += 1;
            let _ = queue.offer(spec(n), &quotas);
            black_box(queue.take_next_job(|_| true));
        }),
    );

    let line = crate::client::submit_line(
        "alpha",
        2,
        &crate::points::PointSet::Grid
            .requests()
            .iter()
            .take(28)
            .map(crate::client::wire_point)
            .collect::<Vec<_>>(),
    );
    put(
        "dcl1d.proto_parse_us",
        ns_per_op(500, || {
            black_box(dcl1d::proto::parse_request(black_box(&line)).is_ok());
        }) / 1e3,
    );

    let mut qj = QueueJournal::open_append(&scratch.join("queue.jsonl"))
        .map_err(|e| format!("open queue-journal leg: {e}"))?;
    let encoded = spec(0).encode();
    let mut id = 0u64;
    put(
        "dcl1d.qjournal_append_us",
        ns_per_op(2_000, || {
            id += 1;
            let _ = qj.append_record(QueueOp::Accept, id, &encoded);
        }) / 1e3,
    );

    let reg = runner::sweep_registry_snapshot();
    let mut buf = String::new();
    put(
        "obs.registry_render_us",
        ns_per_op(500, || {
            buf.clear();
            reg.render_json_into(&mut buf);
            black_box(buf.len());
        }) / 1e3,
    );
    Ok(())
}

/// Runs every cheap leg (about a second in total).
pub fn run_legs(out: &mut Metrics, scratch: &Path) -> Result<(), String> {
    kernel_legs(out);
    service_legs(out, scratch)
}

/// `bench.point_overhead_us_p50`: `run_point_supervised` timed from
/// outside on a point the process's mem tier already holds — supervision,
/// memo key, lookup, progress events and journal hook, with no simulation.
pub fn point_overhead_us_p50(req: &RunRequest) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(400);
    for _ in 0..400 {
        let t = Instant::now();
        let out = runner::run_point_supervised(req, Scale::Smoke);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if out.is_err() {
            return Err("point-overhead leg: a stored point was quarantined".to_string());
        }
    }
    if runner::take_last_source() != Some("memo") {
        return Err("point-overhead leg: the point was not served by the mem tier".to_string());
    }
    Ok(crate::stats::median(&samples))
}

/// `obs.instrument_overhead_pct`: `P-GEMM/Sh40` run directly on
/// `GpuSystem`, counter registry and phase profiler on versus off, three
/// alternating pairs; the median relative slowdown, in percent. Also
/// checks that the instruments do not change the statistics.
pub fn instrument_overhead_pct() -> Result<f64, String> {
    let cfg = GpuConfig::default();
    let (num, den) = Scale::Smoke.ratio();
    let app = dcl1_workloads::by_name("P-GEMM")
        .expect("P-GEMM is in the catalog")
        .scaled(num, den);
    let opts = SimOptions {
        warmup_instructions: app.total_instructions() / 3,
        ..SimOptions::default()
    };
    let run = |instrumented: bool| -> Result<(f64, u64), String> {
        let mut sys = GpuSystem::build(&cfg, &Design::Shared { nodes: 40 }, &app, opts)
            .map_err(|e| format!("Sh40 does not resolve: {e}"))?;
        sys.set_shards(1);
        if instrumented {
            sys.enable_registry();
            sys.enable_profiler();
        }
        let t = Instant::now();
        let stats = sys
            .run_result()
            .map_err(|e| format!("instrument leg: {e}"))?;
        Ok((t.elapsed().as_secs_f64(), stats.cycles))
    };
    let mut pct = Vec::new();
    for pair in 0..3 {
        // Alternate which side runs first so drift does not favour one.
        let (on, off) = if pair % 2 == 0 {
            let on = run(true)?;
            (on, run(false)?)
        } else {
            let off = run(false)?;
            (run(true)?, off)
        };
        if on.1 != off.1 {
            return Err(format!(
                "instruments changed the cycle count: {} vs {}",
                on.1, off.1
            ));
        }
        pct.push(100.0 * (on.0 - off.0) / off.0);
    }
    Ok(crate::stats::median(&pct))
}
