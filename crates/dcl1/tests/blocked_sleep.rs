//! Sleeping while blocked is exact: a node, slice or crossbar that can do
//! nothing until a grant, a fill, a dequeue or a timer leaves its walk, and
//! is credited on waking what the ticks it skipped would have counted. So a
//! run that sleeps all it can and is read once, at its end, must agree to
//! the last counter with a run in which every sleeper is woken every cycle
//! — every component polled, as before anything slept — and, since a
//! reader settles every sleeper first, with a run that is read every cycle;
//! with idle fast-forward or without; on every design, at queue depths and
//! MSHR sizes small enough that blocking is the common case.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

mod util;

use dcl1::{GpuSystem, SimOptions};
use util::{congested, machines};

/// Runs `sys` to its end and returns everything a reader can then see, one
/// item a line.
fn everything(sys: &mut GpuSystem<'_>) -> String {
    let stats = sys.run();
    let mut registry = String::new();
    sys.registry().unwrap().render_into(&mut registry);
    let per_component = format!("{:?}\n{:?}", sys.core_stats(), sys.component_stats());
    format!("{stats:?}\n{}\n{registry}", per_component.replace("}, ", "},\n"))
}

/// Fails on the first line two [`everything`]s differ in.
fn assert_same(got: &str, want: &str, ctx: &str) {
    if let Some((g, w)) = got.lines().zip(want.lines()).find(|(g, w)| g != w) {
        panic!("{ctx}:\n  got {g}\n want {w}");
    }
    assert_eq!(got.len(), want.len(), "{ctx}");
}

/// One counter of `debug_snapshot`'s census line.
fn census(snapshot: &str, key: &str) -> u64 {
    let line = snapshot.lines().last().unwrap();
    let field = line.split_whitespace().find_map(|f| f.strip_prefix(key)?.strip_prefix('='));
    field.unwrap_or_else(|| panic!("no {key} in {line:?}")).parse().unwrap()
}

#[test]
fn reading_every_cycle_matches_reading_once_with_and_without_fast_forward() {
    let kernel = congested();
    for (base, design) in machines() {
        let (mut nodes_parked, mut slices_parked, mut xbars_slept) = (0, 0, 0);
        for queue in [1, 2, base.node_queue_entries] {
            for mshr in [1, base.l1_mshr_entries] {
                let cfg = dcl1::GpuConfig {
                    node_queue_entries: queue,
                    l1_mshr_entries: mshr,
                    ..base.clone()
                };
                let ctx = format!("{design:?} on {} cores, queues {queue}, MSHRs {mshr}", cfg.cores);
                let build = |opts| {
                    let mut sys = GpuSystem::build(&cfg, &design, &kernel, opts).unwrap();
                    sys.enable_registry();
                    sys
                };
                // Read once: the run skips and sleeps all it can.
                let opts = SimOptions { max_cycles: 400_000, ..SimOptions::default() };
                let mut lazy = build(opts);
                let want = everything(&mut lazy);
                let cycles = lazy.now();
                assert!(cycles < opts.max_cycles, "{ctx}: did not drain");

                let mut stepped = build(SimOptions { fast_forward: false, ..opts });
                assert_same(&everything(&mut stepped), &want, &format!("{ctx}, no fast-forward"));

                // Read every cycle: each read clocks every sleeper through.
                // (At its cycle cap, `run` only collects.)
                let mut eager = build(SimOptions { max_cycles: cycles, ..opts });
                // Poll every component every cycle: the counters are
                // counted by the ticks themselves, never credited.
                let mut polled = build(SimOptions { max_cycles: cycles, ..opts });
                for _ in 0..cycles {
                    eager.step();
                    eager.core_stats();
                    eager.component_stats();
                    eager.record_registry();
                    polled.step();
                    polled.wake_all();
                }
                assert_same(&everything(&mut eager), &want, &format!("{ctx}, read every cycle"));
                assert_same(&everything(&mut polled), &want, &format!("{ctx}, polled"));

                // Settling wakes nobody: stepped and read every cycle made
                // the same visits. Polling visits far more.
                let visits = |sys: &mut GpuSystem<'_>| census(&sys.debug_snapshot(), "visits");
                assert_eq!(visits(&mut eager), visits(&mut stepped), "{ctx}");
                assert!(visits(&mut polled) > visits(&mut stepped), "{ctx}");
                let snapshot = lazy.debug_snapshot();
                nodes_parked += census(&snapshot, "parked_nodes");
                slices_parked += census(&snapshot, "parked_slices");
                // A crossbar used to be visited at every one of its ticks.
                let ticks: u64 = lazy.component_stats().1.iter().sum();
                xbars_slept += ticks - census(&snapshot, "visit_xbars");
            }
        }
        // The machine did sleep on refusals and timers, or nothing was proved.
        assert!(
            nodes_parked > 0 && slices_parked > 0 && xbars_slept > 0,
            "{design:?}: parked nodes {nodes_parked}, slices {slices_parked}; \
             crossbar ticks slept {xbars_slept}"
        );
    }
}

/// The cheap-step class: on the 12 heavy points, at two domains, cores
/// sleep on ALU latencies too, and the offer walks skip whatever has
/// nothing for them. Read once, a run agrees with one whose every
/// component is polled — woken and put on every walk — every cycle.
#[test]
fn heavy_points_at_two_domains_read_once_match_polled() {
    let cfg = dcl1::GpuConfig::default();
    let mut cores_parked = 0;
    for (label, kernel, design) in util::heavy_points() {
        let build = |opts| {
            let mut sys = GpuSystem::build(&cfg, &design, &kernel, opts).unwrap();
            sys.set_shards(2);
            sys.enable_registry();
            sys
        };
        let opts = SimOptions::default();
        let mut lazy = build(opts);
        let want = everything(&mut lazy);
        let cycles = lazy.now();
        assert!(cycles < opts.max_cycles, "{label}: did not drain");
        let mut polled = build(SimOptions {
            max_cycles: cycles,
            ..opts
        });
        for _ in 0..cycles {
            polled.step();
            polled.wake_all();
        }
        assert_same(&everything(&mut polled), &want, &format!("{label}, polled"));
        cores_parked += census(&lazy.debug_snapshot(), "parked_cores");
    }
    assert!(cores_parked > 0, "no heavy point parked a core");
}
