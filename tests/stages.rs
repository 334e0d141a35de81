//! Every join path's output renders a stage tree that adds up.
//!
//! The rules, checked on every stage of every tree:
//!
//! * wall clock — a stage's sequential children take at most its time
//!   together, and side-by-side children each take at most its time;
//! * modeled clock — sequential children sum to their parent to the
//!   nanosecond, the largest of side-by-side children equals it, and the
//!   pipeline's engine busy times only bound it from below. A served
//!   query's run reads its session query's modeled total within 1 ns,
//!   because the service keeps its virtual clock in `f64` seconds.
//!
//! The root reads the output's end-to-end modeled figure, and every path
//! that builds a table shows a `table` stage (the merge on the sharded
//! path).

use gpu_self_join::gpu::{FaultEvent, FaultKind, FaultPlan};
use gpu_self_join::join::JoinReport;
use gpu_self_join::prelude::*;
use gpu_self_join::serve::{AdmissionConfig, ServeOutput};
use gpu_self_join::ShardedOutput;
use sj_obs::Stage;
use std::time::Duration;

/// The pipeline stage, whose side-by-side children are overlapping engine
/// busy times.
const PIPELINE: &str = "gpu.pipeline";

fn modeled(stage: &Stage) -> Duration {
    stage.modeled.unwrap_or_default()
}

/// Asserts the adding-up rules on `stage` and every stage below it.
fn assert_adds_up(stage: &Stage) {
    let name = stage.name;
    if !stage.children.is_empty() {
        let parent = stage
            .modeled
            .unwrap_or_else(|| panic!("{name} has children but no modeled time"));
        let walls = stage.children.iter().map(|c| c.wall);
        let times = stage.children.iter().map(modeled);
        if stage.side_by_side {
            let widest = walls.max().unwrap();
            assert!(
                widest <= stage.wall,
                "{name}: child wall {widest:?} > {:?}",
                stage.wall
            );
            let largest = times.max().unwrap();
            if name == PIPELINE {
                assert!(
                    largest <= parent + Duration::from_nanos(1),
                    "{name}: engine {largest:?} exceeds the pipeline {parent:?}"
                );
            } else {
                assert_eq!(largest, parent, "{name}: largest side-by-side child");
            }
        } else {
            let wall: Duration = walls.sum();
            assert!(
                wall <= stage.wall,
                "{name}: children's wall {wall:?} > {:?}",
                stage.wall
            );
            let sum: Duration = times.sum();
            let slack = if name == "serve.run" { 1 } else { 0 };
            assert!(
                sum.abs_diff(parent) <= Duration::from_nanos(slack),
                "{name}: children sum to {sum:?}, parent reads {parent:?}"
            );
        }
    }
    for child in &stage.children {
        assert_adds_up(child);
    }
}

/// The first stage named `name`, depth first.
fn find<'a>(stage: &'a Stage, name: &str) -> Option<&'a Stage> {
    if stage.name == name {
        return Some(stage);
    }
    stage.children.iter().find_map(|c| find(c, name))
}

fn names(stage: &Stage) -> Vec<&'static str> {
    let mut out = vec![stage.name];
    for c in &stage.children {
        out.extend(names(c));
    }
    out
}

/// The rules of a single join's tree, plus what it shares with its
/// report: the root reads `modeled_total`, the engines sum to the
/// timeline's serial total, and the table is there.
fn assert_join_tree(report: &JoinReport) -> Stage {
    let tree = report.stages();
    assert_adds_up(&tree);
    assert_eq!(tree.modeled, Some(report.modeled_total));
    assert_eq!(tree.wall, report.total + report.table_build);
    let pipeline = find(&tree, PIPELINE).expect("a pipeline stage");
    let engines: Duration = pipeline.children.iter().map(modeled).sum();
    assert_eq!(engines, report.batching.timeline.serial_total);
    assert!(find(&tree, "gpu.kernels").is_some());
    assert!(find(&tree, "table").is_some(), "{:?}", names(&tree));
    tree
}

#[test]
fn one_shot_joins_add_up_with_and_without_unicomp() {
    let data = uniform(3, 1500, 21);
    for unicomp in [true, false] {
        let join = GpuSelfJoin::default_device().unicomp(unicomp);
        let out = join.run(&data, 6.0).unwrap();
        let tree = assert_join_tree(&out.report);
        assert_eq!(
            find(&tree, "index.build").and_then(|s| s.modeled),
            Some(out.report.modeled_grid_build)
        );
        assert!(out.report.modeled_grid_build > Duration::ZERO);
        assert!(find(&tree, "gpu.estimate").is_some(), "unicomp={unicomp}");
        assert!(
            find(&tree, "gpu.hoist").is_some(),
            "the default path hoists"
        );

        let grid = GridIndex::build(&data, 6.0).unwrap();
        let out = join.run_on_grid(&data, &grid).unwrap();
        let tree = assert_join_tree(&out.report);
        assert!(
            find(&tree, "index.build").is_none(),
            "prebuilt: no build stage"
        );
    }
}

#[test]
fn a_stragglers_stretch_is_the_pipelines_self_time() {
    let data = uniform(2, 1200, 22);
    let pool = DevicePool::titan_x(1);
    let plain = GpuSelfJoin::new(pool.device(0).clone())
        .run(&data, 2.0)
        .unwrap();
    pool.inject_faults(&FaultPlan::new(vec![FaultEvent {
        device: 0,
        after_ops: 0,
        kind: FaultKind::Straggler {
            factor: 4.0,
            ops: 1000,
        },
    }]));
    let slow = GpuSelfJoin::new(pool.device(0).clone())
        .run(&data, 2.0)
        .unwrap();
    let tree = assert_join_tree(&slow.report);
    let pipeline = find(&tree, PIPELINE).unwrap();
    let busiest = pipeline.children.iter().map(modeled).max().unwrap();
    let timeline = slow.report.batching.timeline.total;
    assert!(busiest <= timeline);
    // The engines ran as they would have; only the pipeline stretched.
    assert_eq!(timeline, plain.report.batching.timeline.total);
    assert!(modeled(pipeline) > timeline * 3, "{pipeline:?}");
}

#[test]
fn session_queries_add_up_cold_and_warm() {
    let data = uniform(2, 1500, 23);
    let session = SelfJoinSession::new(data, DevicePool::titan_x(2));
    // Cold: the session builds the index, uploads the snapshot and runs
    // the estimate.
    let cold = session.query_on(2.0, 0).unwrap();
    let tree = assert_join_tree(&cold.report);
    for stage in ["index.build", "session.upload", "gpu.estimate"] {
        assert!(find(&tree, stage).is_some(), "cold query lacks {stage}");
    }
    assert_eq!(
        find(&tree, "session.upload").unwrap().modeled,
        Some(cold.report.modeled_upload)
    );
    // Warm repeat: resident index and snapshot, cached estimate.
    let warm = session.query_on(2.0, 0).unwrap();
    let tree = assert_join_tree(&warm.report);
    for stage in ["index.build", "session.upload", "gpu.estimate", "gpu.hoist"] {
        assert!(find(&tree, stage).is_none(), "warm repeat has {stage}");
    }
    assert_eq!(
        find(&tree, "plan.execute").unwrap().modeled,
        Some(warm.report.modeled_total)
    );
}

fn assert_sharded_tree(out: &ShardedOutput) -> Stage {
    let r = &out.report;
    let tree = r.stages();
    assert_adds_up(&tree);
    assert_eq!(tree.modeled, Some(r.modeled_total));
    assert_eq!(tree.wall, r.total);
    assert!(find(&tree, "shard.merge").is_some());
    let execute = find(&tree, "shard.execute").unwrap();
    assert_eq!(execute.children.len(), r.streams.len());
    for (device, stream) in execute.children.iter().zip(&r.streams) {
        assert_eq!(device.modeled, Some(*stream));
    }
    let shards = names(&tree).iter().filter(|&&n| n == "shard.shard").count();
    assert_eq!(shards, r.shards.len(), "one stage per shard run");
    tree
}

#[test]
fn sharded_joins_add_up_on_one_and_four_devices() {
    let data = uniform(2, 4000, 24);
    for devices in [1, 4] {
        let out = ShardedSelfJoin::titan_x(devices).run(&data, 2.0).unwrap();
        let tree = assert_sharded_tree(&out);
        let speculate = find(&tree, "shard.speculate").unwrap();
        assert_eq!(speculate.side_by_side, devices >= 2);
        assert!(find(&tree, "shard.choose").is_some(), "the chooser ran");
    }
    // Over-decomposed: more shards than devices, so streams pipeline
    // grid builds behind device stages.
    let out = ShardedSelfJoin::titan_x(2)
        .with_shards(6)
        .run(&data, 2.0)
        .unwrap();
    let tree = assert_sharded_tree(&out);
    assert!(
        find(&tree, "shard.choose").is_none(),
        "explicit shard count"
    );
}

#[test]
fn a_reexecuted_shard_joins_its_new_stream_and_still_adds_up() {
    let data = uniform(2, 2500, 41);
    let engine = ShardedSelfJoin::titan_x(2).with_shards(6);
    engine
        .pool()
        .inject_faults(&FaultPlan::new(vec![FaultEvent {
            device: 0,
            after_ops: 2,
            kind: FaultKind::Transient,
        }]));
    let out = engine.run(&data, 2.2).unwrap();
    assert!(out.report.reexecuted_shards >= 1);
    assert_sharded_tree(&out);
}

fn quick_service(devices: usize) -> SelfJoinService {
    SelfJoinService::new(
        DevicePool::titan_x(devices),
        ServiceConfig {
            admission: AdmissionConfig {
                slo: Duration::from_secs(60),
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
}

fn assert_served_tree(out: &ServeOutput) -> Stage {
    let tree = out.stages();
    assert_adds_up(&tree);
    assert_eq!(tree.modeled, Some(out.latency));
    assert_eq!(tree.start, out.completion - out.latency);
    let session = find(&tree, "session.query").unwrap();
    assert_eq!(session.modeled, Some(out.report.modeled_total));
    for stage in ["serve.admission", "serve.queue", "plan.execute", "table"] {
        assert!(find(&tree, stage).is_some(), "served tree lacks {stage}");
    }
    tree
}

#[test]
fn served_queries_add_up_plain_and_retried() {
    let service = quick_service(1);
    let id = service.register_dataset("demo", uniform(2, 800, 25));
    service.warm(id, &[2.0]).unwrap();
    let plain = service
        .submit(QueryRequest::new("alice", id, 2.0))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(plain.attempts, 0);
    assert_served_tree(&plain);

    service
        .pool()
        .inject_faults(&FaultPlan::new(vec![FaultEvent {
            device: 0,
            after_ops: 0,
            kind: FaultKind::Transient,
        }]));
    let retried = service
        .submit(QueryRequest::new("alice", id, 2.0))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(retried.attempts, 1);
    let tree = assert_served_tree(&retried);
    let run = find(&tree, "serve.run").unwrap();
    assert!(run.labels.contains(&("attempts", 1u64.into())));
}
