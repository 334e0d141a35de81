//! Property and integration tests of the sharded multi-device engine:
//! the halo-ownership invariant must make the merged result pair-for-pair
//! identical to the single-device join, for any dataset, ε, shard count
//! and pool size.

use gpu_self_join::prelude::*;
use gpu_self_join::shard::partition;
use proptest::prelude::*;

/// Random dataset: dimension 1..=4, mixed uniform/clustered, with an ε
/// spanning sparse to dense neighbourhoods.
fn workload_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (
        1usize..=4,
        30usize..250,
        1u64..10_000,
        0.02f64..0.25,
        0usize..3,
    )
        .prop_map(|(dim, n, seed, eps_frac, family)| {
            let data = match family {
                0 => uniform(dim, n, seed),
                1 => clustered(dim, n, 3, 5.0, 0.2, seed),
                _ => clustered(dim, n, 2, 1.0, 0.05, seed),
            };
            let eps = (100.0 * eps_frac).max(2.0);
            (data, eps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The satellite property: for random datasets, ε and shard counts
    /// 1–4, the sharded neighbour table equals the single-device table
    /// pair-for-pair (NeighborTable construction canonically sorts both
    /// sides, so equality is exact pair equality).
    #[test]
    fn sharded_equals_single_device(
        (data, eps) in workload_strategy(),
        shards in 1usize..=4,
        devices in 1usize..=3,
    ) {
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        let sharded = ShardedSelfJoin::titan_x(devices)
            .with_shards(shards)
            .run(&data, eps)
            .unwrap();
        prop_assert_eq!(&sharded.table, &single.table);
        prop_assert_eq!(sharded.report.duplicates_merged, 0);
        prop_assert_eq!(
            sharded.report.shards.iter().map(|s| s.owned).sum::<usize>(),
            data.len()
        );
    }

    /// kd-partition invariants, over random dimensions 2–6 and shard
    /// counts 1–16:
    ///
    /// 1. the shard boxes tile the domain — every point is *owned* by
    ///    exactly one shard's box (pairwise-disjoint ownership regions
    ///    and exhaustive coverage in one check);
    /// 2. each shard's owned prefix is exactly the set of points its box
    ///    owns;
    /// 3. ghost bands are ε-correct — for every pair within ε, the owner
    ///    shard of each endpoint carries the other endpoint (owned or
    ///    ghost), so no cross-box neighbour is ever lost.
    #[test]
    fn kd_partition_invariants(
        dim in 2usize..=6,
        n in 20usize..120,
        seed in 1u64..10_000,
        family in 0usize..3,
        eps in 2.0f64..30.0,
        shards in 1usize..=16,
    ) {
        let data = match family {
            0 => uniform(dim, n, seed),
            1 => clustered(dim, n, 3, 5.0, 0.2, seed),
            _ => clustered(dim, n, 2, 1.0, 0.05, seed),
        };
        let part = partition::partition_par(&data, eps, shards, 1).unwrap();

        // (1) Exclusive, exhaustive box ownership.
        let mut owner = vec![usize::MAX; data.len()];
        for (g, p) in data.iter().enumerate() {
            let owners: Vec<usize> = part
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.owns(p))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(owners.len(), 1, "point {} owned by {:?}", g, &owners);
            owner[g] = owners[0];
        }

        // (2) Owned prefixes match box membership.
        for (i, s) in part.shards.iter().enumerate() {
            let mut from_box: Vec<u32> = (0..data.len() as u32)
                .filter(|&g| owner[g as usize] == i)
                .collect();
            from_box.sort_unstable();
            let mut prefix: Vec<u32> = s.global_ids[..s.owned].to_vec();
            prefix.sort_unstable();
            prop_assert_eq!(prefix, from_box, "shard {} owned prefix", i);
        }

        // (3) ε-halo completeness: the owner of either endpoint of a
        // close pair carries both endpoints.
        let present: Vec<std::collections::HashSet<u32>> = part
            .shards
            .iter()
            .map(|s| s.global_ids.iter().copied().collect())
            .collect();
        for a in 0..data.len() {
            for b in (a + 1)..data.len() {
                let d2: f64 = data
                    .point(a)
                    .iter()
                    .zip(data.point(b))
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                if d2 <= eps * eps {
                    prop_assert!(
                        present[owner[a]].contains(&(b as u32)),
                        "pair ({a},{b}) within eps but {b} absent from {a}'s shard"
                    );
                    prop_assert!(
                        present[owner[b]].contains(&(a as u32)),
                        "pair ({a},{b}) within eps but {a} absent from {b}'s shard"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The parallel-prelude property: fanning the kd recursion across
    /// host lanes is a *charging* change, never a *structural* one. For
    /// random datasets over dimensions 2–6 and shard counts 1–32, the
    /// lane-parallel partition must equal the serial one exactly — same
    /// cut dimensions, same owned boxes, same owned prefixes, same
    /// ghost sets, same local point order — for any lane count.
    #[test]
    fn parallel_partition_equals_serial(
        dim in 2usize..=6,
        n in 20usize..160,
        seed in 1u64..10_000,
        family in 0usize..3,
        eps in 2.0f64..30.0,
        (shards, lanes) in (1usize..=32, 2usize..=8),
    ) {
        let data = match family {
            0 => uniform(dim, n, seed),
            1 => clustered(dim, n, 3, 5.0, 0.2, seed),
            _ => clustered(dim, n, 2, 1.0, 0.05, seed),
        };
        let serial = partition::partition_par(&data, eps, shards, 1).unwrap();
        let par = partition::partition_par(&data, eps, shards, lanes).unwrap();
        prop_assert_eq!(&par.cut_dims, &serial.cut_dims);
        prop_assert_eq!(par.shards.len(), serial.shards.len());
        for (a, b) in par.shards.iter().zip(&serial.shards) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.lo, &b.lo, "shard {} lower bounds", a.id);
            prop_assert_eq!(&a.hi, &b.hi, "shard {} upper bounds", a.id);
            prop_assert_eq!(a.owned, b.owned, "shard {} owned count", a.id);
            prop_assert_eq!(
                &a.global_ids, &b.global_ids,
                "shard {} local id order", a.id
            );
        }
    }

    /// The lane-invariance property of the fused prelude: calibrating
    /// from the partitioner's shared sample pass gives the same model for
    /// any lane count as the one-lane `calibrate` — same sample, same
    /// neighbor/candidate/shell counts and the same priced calibration
    /// cost.
    #[test]
    fn calibration_is_lane_invariant(
        dim in 1usize..=4,
        n in 30usize..250,
        seed in 1u64..10_000,
        eps in 2.0f64..20.0,
        lanes in 2usize..=8,
    ) {
        use gpu_self_join::shard::cost::{calibrate, calibrate_from_sample};
        let data = uniform(dim, n, seed);
        let one_lane = calibrate(&data, eps).unwrap();
        let sp = partition::sample_pass(&data, lanes).unwrap();
        let laned = calibrate_from_sample(&sp, eps).unwrap();
        prop_assert_eq!(laned.len, one_lane.len);
        prop_assert_eq!(laned.sample_data.coords(), one_lane.sample_data.coords());
        prop_assert_eq!(&laned.sample_neighbors, &one_lane.sample_neighbors);
        prop_assert_eq!(&laned.sample_candidates, &one_lane.sample_candidates);
        prop_assert_eq!(&laned.sample_shells, &one_lane.sample_shells);
        prop_assert_eq!(laned.build_time, one_lane.build_time);
    }

    /// The staged API composes to the one-shot entry point: sample pass →
    /// cut build → materialize yields the same partition `partition_par`
    /// returns, and the sample pass itself is lane-invariant.
    #[test]
    fn staged_prelude_composes(
        dim in 2usize..=4,
        n in 20usize..120,
        seed in 1u64..10_000,
        eps in 2.0f64..20.0,
        shards in 1usize..=8,
        lanes in 1usize..=4,
    ) {
        let data = uniform(dim, n, seed);
        let sp = partition::sample_pass(&data, lanes).unwrap();
        let sp1 = partition::sample_pass(&data, 1).unwrap();
        prop_assert_eq!(&sp.ids, &sp1.ids, "sample set depends on lane count");
        let cuts = partition::build_cuts(&sp, eps, shards, lanes).unwrap();
        let staged = partition::materialize(&data, &cuts, lanes).unwrap();
        let oneshot = partition::partition_par(&data, eps, shards, lanes).unwrap();
        prop_assert_eq!(staged.shards.len(), oneshot.shards.len());
        prop_assert_eq!(cuts.num_leaves(), oneshot.shards.len());
        for (a, b) in staged.shards.iter().zip(&oneshot.shards) {
            prop_assert_eq!(&a.global_ids, &b.global_ids, "shard {}", a.id);
            prop_assert_eq!(a.owned, b.owned);
        }
        // The cut tree's point→leaf assignment agrees with box ownership.
        for p in data.iter() {
            let leaf = cuts.leaf_of(p);
            prop_assert!(staged.shards[leaf].owns(p));
        }
    }
}

/// Small inputs on many lanes: whenever `(lanes − 1)·⌈n/lanes⌉ > n` the
/// trailing lanes hold no points, and the partition must still equal the
/// one-lane partition exactly.
#[test]
fn small_inputs_partition_alike_on_any_lane_count() {
    for n in 1..=40 {
        let data = uniform(2, n, n as u64);
        for k in [2, 8] {
            let serial = partition::partition_par(&data, 5.0, k, 1).unwrap();
            for lanes in 1..=16 {
                let par = partition::partition_par(&data, 5.0, k, lanes).unwrap();
                assert_eq!(par.cut_dims, serial.cut_dims, "n {n} k {k} lanes {lanes}");
                assert_eq!(par.shards.len(), serial.shards.len());
                for (a, b) in par.shards.iter().zip(&serial.shards) {
                    assert_eq!((&a.lo, &a.hi), (&b.lo, &b.hi), "n {n} k {k} lanes {lanes}");
                    assert_eq!(a.owned, b.owned, "n {n} k {k} lanes {lanes}");
                    assert_eq!(a.global_ids, b.global_ids, "n {n} k {k} lanes {lanes}");
                }
            }
        }
    }
}

/// The engine runs one lane per device, so small inputs on large pools
/// leave lanes empty too: every pool of up to 8 devices must still join
/// up to 16 points exactly.
#[test]
fn small_inputs_join_exactly_on_any_pool() {
    for n in 1..=16 {
        let data = uniform(2, n, 3);
        let single = GpuSelfJoin::default_device().run(&data, 5.0).unwrap();
        for devices in 1..=8 {
            let out = ShardedSelfJoin::titan_x(devices).run(&data, 5.0).unwrap();
            assert_eq!(out.table, single.table, "n {n} devices {devices}");
        }
    }
}

/// Satellite pin: both hot paths run the fused ownership window and the
/// engine concatenates shard results — the merged table must hold no
/// duplicate even at aggressive shard counts, on uniform and skewed data
/// alike.
#[test]
fn fused_path_merges_without_duplicates() {
    for (data, eps) in [
        (uniform(2, 4000, 11), 2.0),
        (clustered(3, 3000, 4, 2.0, 0.1, 12), 6.0),
    ] {
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        for hot_path in [HotPath::CellMajor, HotPath::PerThread] {
            let out = ShardedSelfJoin::titan_x(4)
                .with_shards(8)
                .with_hot_path(hot_path)
                .run(&data, eps)
                .unwrap();
            assert!(out.report.shards.len() > 1, "want a multi-shard run");
            assert_eq!(out.report.duplicates_merged, 0, "{hot_path:?}");
            assert_eq!(out.table, single.table, "{hot_path:?}");
        }
    }
}

#[test]
fn sharded_matches_on_table_one_surrogates() {
    use gpu_self_join::datasets::{sdss, sw};
    let cases: Vec<(Dataset, f64)> = vec![
        (sdss::sdss2d(3000, 10), 1.2),
        (sw::sw2d(3000, 8), 2.0),
        (sw::sw3d(2000, 9), 6.0),
    ];
    for (i, (data, eps)) in cases.into_iter().enumerate() {
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        let sharded = ShardedSelfJoin::titan_x(2 + i).run(&data, eps).unwrap();
        assert_eq!(sharded.table, single.table, "case {i}");
        assert_eq!(sharded.report.duplicates_merged, 0);
    }
}

#[test]
fn cost_scheduler_balances_skewed_clusters() {
    // Two dense clusters and a sparse background: equal-count shards have
    // very unequal pair counts, so a count-based assignment would load one
    // device far above the other. The cost-based LPT keeps the modeled
    // busy times within a reasonable band.
    let data = clustered(2, 20_000, 2, 1.0, 0.1, 77);
    let out = ShardedSelfJoin::titan_x(2).run(&data, 0.5).unwrap();
    let busy: Vec<f64> = out
        .report
        .devices
        .iter()
        .map(|t| t.busy.as_secs_f64())
        .collect();
    let (hi, lo) = (busy[0].max(busy[1]), busy[0].min(busy[1]));
    assert!(lo > 0.0, "one device sat idle: {busy:?}");
    assert!(
        hi / lo < 3.0,
        "cost-based schedule badly imbalanced: {busy:?}"
    );
    // And the predicted loads the scheduler balanced were indeed skewed
    // relative to the owned-point counts.
    assert_eq!(out.report.predicted_load.len(), 2);
}

#[test]
fn facade_exposes_sharded_engine() {
    use gpu_self_join::{DevicePool, ShardedConfig, ShardedSelfJoin};
    let pool = DevicePool::titan_x(2);
    let engine = ShardedSelfJoin::new(pool).with_config(ShardedConfig::default());
    let data = uniform(2, 1000, 5);
    let out = engine.run(&data, 3.0).unwrap();
    assert!(out.table.is_symmetric());
    assert!(out.table.is_irreflexive());
}
