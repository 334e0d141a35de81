//! Session-equivalence properties: a dataset-resident [`SelfJoinSession`]
//! must be an invisible optimization — every answer identical to a fresh
//! [`GpuSelfJoin::run`] at the same ε, under index reuse (including
//! ε′ < ε_built), concurrent sessions on a shared pool, and
//! rebuild-triggering ε sequences.

use gpu_self_join::prelude::*;
use gpu_self_join::DevicePool;
use proptest::prelude::*;

/// Random small dataset plus a base ε exercising varied cell geometry.
fn workload_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (
        1usize..=5,
        20usize..200,
        1u64..10_000,
        0.03f64..0.25,
        0usize..2,
    )
        .prop_map(|(dim, n, seed, eps_frac, family)| {
            let data = match family {
                0 => uniform(dim, n, seed),
                _ => clustered(dim, n, 3, 4.0, 0.3, seed),
            };
            let eps = (100.0 * eps_frac).max(2.0);
            (data, eps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// (a) Resident-index queries ≡ fresh `GpuSelfJoin::run`,
    /// pair-for-pair, including in-band reuse at ε′ < ε_built.
    #[test]
    fn resident_queries_match_fresh_runs(
        (data, eps) in workload_strategy(),
        fracs in collection::vec(0.5f64..1.0, 1..4),
        devices in 1usize..=2,
    ) {
        let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(devices));
        let join = GpuSelfJoin::default_device();

        // First query builds the index at eps.
        let first = session.query(eps).unwrap();
        prop_assert!(!first.reused_index);
        prop_assert_eq!(&first.table, &join.run(&data, eps).unwrap().table);

        // In-band shrunk queries reuse it and still answer exactly.
        for frac in fracs {
            let eps_q = eps * frac;
            let out = session.query(eps_q).unwrap();
            prop_assert!(out.reused_index, "frac {} must be in band", frac);
            prop_assert_eq!(
                &out.table,
                &join.run(&data, eps_q).unwrap().table,
                "frac {}", frac
            );
        }
    }

    /// (a′) Repeating the same ε must hit the estimate cache and stay
    /// exact (the cached count feeds buffer sizing, not the answer).
    #[test]
    fn repeated_epsilon_queries_stay_exact(
        (data, eps) in workload_strategy(),
    ) {
        let session = SelfJoinSession::single_device(data.clone());
        let first = session.query(eps).unwrap();
        let second = session.query(eps).unwrap();
        let third = session.query(eps).unwrap();
        prop_assert_eq!(&first.table, &second.table);
        prop_assert_eq!(&first.table, &third.table);
        let stats = session.stats();
        prop_assert_eq!(stats.estimate_hits, 2);
        prop_assert_eq!(stats.index_builds, 1);
    }

    /// (b) Concurrent sessions on a shared `DevicePool` each match their
    /// serial result — interleaving across the pool's devices never leaks
    /// between sessions.
    #[test]
    fn concurrent_sessions_match_serial_results(
        workloads in collection::vec(workload_strategy(), 2..=3),
        devices in 1usize..=3,
    ) {
        // Serial expectation per session, computed up front.
        let expected: Vec<NeighborTable> = workloads
            .iter()
            .map(|(data, eps)| {
                GpuSelfJoin::default_device().run(data, *eps).unwrap().table
            })
            .collect();

        let pool = DevicePool::titan_x(devices);
        let tables = std::thread::scope(|scope| {
            let handles: Vec<_> = workloads
                .iter()
                .map(|(data, eps)| {
                    let session = SelfJoinSession::new(data.clone(), pool.clone());
                    let eps = *eps;
                    scope.spawn(move || {
                        // Two queries each: a build and an in-band reuse.
                        let a = session.query(eps).unwrap().table;
                        let b = session.query(eps * 0.8).unwrap().table;
                        let c = session.query(eps).unwrap().table;
                        (a, b, c)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect::<Vec<_>>()
        });

        for (i, ((data, eps), (a, b, c))) in workloads.iter().zip(&tables).enumerate() {
            prop_assert_eq!(a, &expected[i], "session {} first query", i);
            prop_assert_eq!(c, &expected[i], "session {} repeat query", i);
            let shrunk = GpuSelfJoin::default_device().run(data, eps * 0.8).unwrap();
            prop_assert_eq!(b, &shrunk.table, "session {} shrunk query", i);
        }
        // Sessions dropped → all memory released.
        prop_assert_eq!(pool.total_used_bytes(), 0);
    }

    /// (c) The rebuild trigger is exactly the validity band: reuse iff
    /// `floor · ε_built ≤ ε′ ≤ ε_built`, tracked across an arbitrary ε
    /// sequence (each rebuild starts a new band).
    #[test]
    fn rebuild_triggers_exactly_on_band_exit(
        (data, eps) in workload_strategy(),
        steps in collection::vec((0.3f64..1.6, 0usize..=1), 1..6),
        floor in 0.4f64..0.9,
    ) {
        let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1))
            .with_config(SessionConfig {
                reuse_floor: floor,
                ..SessionConfig::default()
            });
        let mut built: Option<f64> = None;
        let mut eps_q = eps;
        for (factor, reset) in steps {
            eps_q = if reset == 1 { eps * factor } else { eps_q * factor };
            let expect_reuse = built
                .map(|b| eps_q <= b && eps_q >= b * floor)
                .unwrap_or(false);
            prop_assert_eq!(session.would_reuse(eps_q), expect_reuse);
            let out = session.query(eps_q).unwrap();
            prop_assert_eq!(
                out.reused_index, expect_reuse,
                "eps_q {} built {:?} floor {}", eps_q, built, floor
            );
            if !expect_reuse {
                built = Some(eps_q);
            }
            prop_assert_eq!(session.epsilon_built(), built);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// (d) Snapshot eviction is an invisible optimization too: random
    /// evict/re-upload interleavings under concurrent sessions on a
    /// *budgeted* pool answer pair-for-pair like fresh joins, and the
    /// pool's snapshot ledger never exceeds the configured budget.
    #[test]
    fn eviction_interleavings_stay_exact_and_under_budget(
        seeds in collection::vec(1u64..10_000, 3),
        evict_pattern in collection::vec((0usize..3, 0usize..2), 4..10),
    ) {
        // Two devices, and same-sized workloads so snapshot footprints
        // are comparable: the budget below must cover the worst-case
        // concurrently-in-use set (one snapshot per running query) while
        // staying far under the full working set.
        let devices = 2usize;
        let workloads: Vec<(Dataset, f64)> = seeds
            .iter()
            .map(|&seed| (uniform(2, 400, seed), 4.0))
            .collect();

        // Measure the unbudgeted working set (every session resident on
        // every device), then budget 60% of it — enough for the three
        // in-flight queries (≤ 3 of 6 snapshots), too little for every
        // session to stay resident on every device.
        let probe = DevicePool::titan_x(devices);
        let full = {
            let sessions: Vec<_> = workloads
                .iter()
                .map(|(data, _)| SelfJoinSession::new(data.clone(), probe.clone()))
                .collect();
            for session in &sessions {
                for d in 0..devices {
                    session.query_on(4.0, d).unwrap();
                }
            }
            probe.memory_ledger().total()
        };
        prop_assert!(full > 0);
        let budget = full * 3 / 5;

        let expected: Vec<NeighborTable> = workloads
            .iter()
            .map(|(data, eps)| {
                GpuSelfJoin::default_device().run(data, *eps).unwrap().table
            })
            .collect();

        let pool = DevicePool::titan_x(devices);
        pool.memory_ledger().set_budget(Some(budget));
        let sessions: Vec<_> = workloads
            .iter()
            .map(|(data, _)| SelfJoinSession::new(data.clone(), pool.clone()))
            .collect();

        std::thread::scope(|scope| {
            for (i, session) in sessions.iter().enumerate() {
                let pattern = evict_pattern.clone();
                let pool = pool.clone();
                let eps = workloads[i].1;
                let expected = &expected[i];
                scope.spawn(move || {
                    for (round, &(victim_offset, device)) in pattern.iter().enumerate() {
                        let out = session.query(eps).unwrap();
                        assert_eq!(&out.table, expected, "session {i} round {round}");
                        assert!(
                            pool.memory_ledger().total() <= budget,
                            "session {i} round {round}: ledger {} over budget {budget}",
                            pool.memory_ledger().total()
                        );
                        // Manual eviction mixed into the stream: evict
                        // this session's snapshot on a pseudo-random
                        // device (no-op when the offset lands elsewhere
                        // or a query holds it).
                        if victim_offset == i % 3 {
                            session.evict_snapshot(device.min(devices - 1));
                        }
                    }
                });
            }
        });

        // Every session still answers exactly after the churn, and the
        // budget held to the end.
        for (i, session) in sessions.iter().enumerate() {
            let out = session.query(workloads[i].1).unwrap();
            prop_assert_eq!(&out.table, &expected[i], "session {} final", i);
        }
        prop_assert!(pool.memory_ledger().total() <= budget);
        prop_assert!(pool.total_used_bytes() <= budget, "resident snapshots are the only steady-state device memory");
    }
}

/// kNN on a resident session reuses the cached snapshot and matches the
/// rebuild-per-call `gpu_knn` exactly.
#[test]
fn session_knn_matches_fresh_gpu_knn() {
    let data = uniform(2, 400, 101);
    let eps = 6.0;
    let k = 7;
    let session = SelfJoinSession::single_device(data.clone());
    session.query(eps).unwrap();
    let uploads_before = session.stats().snapshot_uploads;
    let out = session.knn(eps, k).unwrap();
    assert!(out.reused_index);
    assert_eq!(
        session.stats().snapshot_uploads,
        uploads_before,
        "knn must ride the resident snapshot"
    );
    let device = Device::new(DeviceSpec::titan_x_pascal());
    let fresh = gpu_self_join::join::gpu_knn(&device, &data, eps, k).unwrap();
    assert_eq!(out.hits.len(), fresh.len());
    for (got, want) in out.hits.iter().zip(&fresh) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g.dist_sq - w.dist_sq).abs() < 1e-12);
        }
    }
}

/// Sessions hold device memory while resident and release everything on
/// drop — the leak check for the residency layer.
#[test]
fn session_memory_lifecycle() {
    let pool = DevicePool::titan_x(2);
    {
        let session = SelfJoinSession::new(uniform(2, 1500, 102), pool.clone());
        session.query(2.0).unwrap();
        session.query(2.0).unwrap();
        assert!(pool.total_used_bytes() > 0, "snapshots resident");
        // A rebuild replaces the generation; the old snapshots free.
        let used_one_generation = pool.total_used_bytes();
        session.query(5.0).unwrap();
        assert!(
            pool.total_used_bytes() <= used_one_generation * 2,
            "old generation must not leak"
        );
    }
    assert_eq!(pool.total_used_bytes(), 0, "drop releases everything");
}
