//! The modeled clock is a pure function of the data, ε, the configuration
//! and the device spec: kernels are priced from their counted bytes and
//! host stages from the bytes they stream, so the same inputs give
//! bit-identical modeled reports run after run — also while other joins
//! execute concurrently on the same host cores, which is what lets the
//! simulated devices run without any lock serializing their kernels.

use gpu_self_join::prelude::*;
use gpu_self_join::SelfJoinSession;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The modeled fields of a sharded report that must reproduce exactly.
#[derive(Debug, PartialEq)]
struct ShardedClock {
    modeled_total: Duration,
    prelude_time: Duration,
    shard_modeled: Vec<Duration>,
    candidate_makespans: Vec<(usize, Duration)>,
}

fn sharded_clock(data: &Dataset, eps: f64) -> ShardedClock {
    let r = ShardedSelfJoin::titan_x(4).run(data, eps).unwrap().report;
    ShardedClock {
        modeled_total: r.modeled_total,
        prelude_time: r.prelude_time,
        shard_modeled: r.shards.iter().map(|s| s.modeled).collect(),
        candidate_makespans: r.candidate_makespans,
    }
}

/// Modeled figures of a one-device join and of a fresh session's build
/// query followed by a reuse query.
fn single_and_session_clock(data: &Dataset, eps: f64) -> [Duration; 5] {
    let join = GpuSelfJoin::default_device().run(data, eps).unwrap().report;
    let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1));
    let built = session.query(eps).unwrap().report;
    let reused = session.query(0.8 * eps).unwrap().report;
    [
        join.modeled_total,
        join.batching.modeled_kernel_time,
        built.modeled_total,
        reused.modeled_total,
        session.projected_cost(eps).unwrap().modeled,
    ]
}

fn workload() -> (Dataset, f64) {
    (clustered(2, 6_000, 4, 2.0, 0.2, 91), 0.35)
}

#[test]
fn sharded_modeled_report_is_bit_identical_across_runs() {
    let (data, eps) = workload();
    let first = sharded_clock(&data, eps);
    assert!(first.modeled_total > Duration::ZERO);
    assert!(!first.candidate_makespans.is_empty());
    for run in 1..3 {
        assert_eq!(sharded_clock(&data, eps), first, "run {run}");
    }
}

#[test]
fn modeled_clock_ignores_concurrent_host_load() {
    // A second sharded join runs on another thread throughout, competing
    // for the same host cores: every modeled figure must match the
    // figures of the same joins measured alone.
    let (data, eps) = workload();
    let other = uniform(3, 5_000, 17);
    let sharded_alone = sharded_clock(&data, eps);
    let single_alone = single_and_session_clock(&data, eps);
    let busy = AtomicBool::new(true);
    // Collect under load first and assert after the rival has stopped, so
    // a mismatch fails the test instead of leaving the rival spinning.
    let loaded: Vec<_> = std::thread::scope(|s| {
        s.spawn(|| {
            while busy.load(Ordering::Relaxed) {
                ShardedSelfJoin::titan_x(4).run(&other, 6.0).unwrap();
            }
        });
        let loaded = (0..3)
            .map(|_| {
                (
                    sharded_clock(&data, eps),
                    single_and_session_clock(&data, eps),
                )
            })
            .collect();
        busy.store(false, Ordering::Relaxed);
        loaded
    });
    for (run, (sharded, single)) in loaded.into_iter().enumerate() {
        assert_eq!(sharded, sharded_alone, "sharded run {run}");
        assert_eq!(single, single_alone, "single-device/session run {run}");
    }
}

/// One rendered record's id, parent, name, lane and modeled interval.
type Placed = (u64, u64, &'static str, u64, Option<(u64, u64)>);

/// The render-order ids, lanes and modeled intervals of a forest.
fn layout(forest: &[sj_obs::Stage]) -> Vec<Placed> {
    sj_obs::render(forest)
        .into_iter()
        .map(|r| (r.id, r.parent, r.name, r.thread, r.modeled_ns))
        .collect()
}

#[test]
fn rendering_outputs_twice_gives_identical_ids_and_modeled_intervals() {
    let (data, eps) = workload();
    let forest = |data: &Dataset| {
        vec![
            GpuSelfJoin::default_device()
                .run(data, eps)
                .unwrap()
                .report
                .stages(),
            ShardedSelfJoin::titan_x(4)
                .run(data, eps)
                .unwrap()
                .report
                .stages(),
        ]
    };
    let first = forest(&data);
    assert_eq!(layout(&first), layout(&first));
    // The modeled clock is deterministic, so a second run of the same
    // joins lays out the same modeled timeline.
    assert_eq!(layout(&forest(&data)), layout(&first));
}
