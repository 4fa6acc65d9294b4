//! Host description and thread hygiene. Every wall-clock number the
//! benchmark prints depends on how many cores ran it, so the core count
//! is checked, recorded, and never assumed.

use crate::json::{num, obj, text, Json};

/// How long [`Host::warm_up`] keeps every core busy.
const WARM_UP: std::time::Duration = std::time::Duration::from_secs(2);

/// What the results file records about the machine.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub loadavg: [f64; 3],
}

impl Host {
    /// Reads the host description. Fails on a single-core host: the
    /// sharded workload needs two cores, and a one-core number is not
    /// comparable with anything this ledger records.
    pub fn probe() -> Result<Host, String> {
        let nproc = std::thread::available_parallelism()
            .map_err(|e| format!("cannot determine core count: {e}"))?
            .get();
        if nproc < 2 {
            return Err(format!(
                "refusing to run on {nproc} core: every workload is sized for >= 2 \
                 (shard_pair needs two shard domains on two cores)"
            ));
        }
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut loadavg = [0.0; 3];
        if let Ok(t) = std::fs::read_to_string("/proc/loadavg") {
            for (slot, field) in loadavg.iter_mut().zip(t.split_whitespace()) {
                *slot = field.parse().unwrap_or(0.0);
            }
        }
        Ok(Host {
            nproc,
            cpu_model,
            loadavg,
        })
    }

    /// Fails if a run would keep more threads runnable than there are
    /// cores: `point_threads` concurrent machines, each stepping on
    /// `shards` threads (coordinator plus `shards - 1` pool workers, all
    /// of which spin at the epoch barrier).
    pub fn check_threads(
        &self,
        what: &str,
        point_threads: usize,
        shards: usize,
    ) -> Result<(), String> {
        let runnable = point_threads * shards;
        if runnable > self.nproc {
            return Err(format!(
                "{what}: {point_threads} point thread(s) x {shards} shard thread(s) = {runnable} \
                 runnable threads on {} cores; the timing would measure the scheduler",
                self.nproc
            ));
        }
        Ok(())
    }

    /// Keeps every core busy for [`WARM_UP`] before anything is timed. On
    /// the 2-vCPU microVMs this ledger is recorded on, the first ~1.2 s of
    /// load after ~10 idle seconds runs at half speed (measured with a
    /// fixed arithmetic loop: 0.18-0.20 s per chunk, then 0.09 s); without
    /// this, the first round of every run pays that ramp and the second
    /// does not.
    pub fn warm_up(&self) {
        let until = std::time::Instant::now() + WARM_UP;
        std::thread::scope(|s| {
            for _ in 0..self.nproc {
                s.spawn(|| {
                    let mut x = 1u64;
                    while std::time::Instant::now() < until {
                        for i in 0..100_000u64 {
                            x = std::hint::black_box(
                                x.wrapping_mul(6364136223846793005).wrapping_add(i),
                            );
                        }
                    }
                });
            }
        });
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("nproc", num(self.nproc as f64)),
            ("cpu_model", text(&self.cpu_model)),
            (
                "loadavg",
                Json::Arr(self.loadavg.iter().map(|v| num(*v)).collect()),
            ),
        ])
    }
}

/// Peak resident set of the calling process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
