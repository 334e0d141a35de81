//! Batching-scheme microbenchmarks: estimation cost, batch-count
//! sensitivity (the paper fixes ≥3 batches; this quantifies what more
//! batches cost), and the stream-timeline scheduler itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grid_join::batching::{estimate_result_size, run_batched_on, BatchingConfig, ExecOptions};
use grid_join::{DeviceGrid, GridIndex, HotPath};
use sim_gpu::{BatchCost, Device, DeviceSpec, LaunchConfig, StreamTimeline, TransferModel};
use sj_datasets::synthetic::uniform;
use std::hint::black_box;
use std::time::Duration;

fn bench_estimation(c: &mut Criterion) {
    let data = uniform(2, 40_000, 7);
    let grid = GridIndex::build(&data, 0.8).unwrap();
    let device = Device::new(DeviceSpec::titan_x_pascal());
    let dg = DeviceGrid::upload(&device, &data, &grid).unwrap();
    let cfg = BatchingConfig::default();
    c.bench_function("estimate_result_size_40k", |b| {
        b.iter(|| estimate_result_size(&device, black_box(&dg), &cfg, None).unwrap())
    });
}

fn bench_batch_counts(c: &mut Criterion) {
    let data = uniform(2, 20_000, 8);
    let grid = GridIndex::build(&data, 1.0).unwrap();
    let device = Device::new(DeviceSpec::titan_x_pascal());
    let dg = DeviceGrid::upload(&device, &data, &grid).unwrap();
    let mut g = c.benchmark_group("batch_count_sensitivity");
    g.sample_size(10);
    for batches in [3usize, 8, 32] {
        let cfg = BatchingConfig {
            min_batches: batches,
            ..BatchingConfig::default()
        };
        let opts = ExecOptions {
            unicomp: true,
            cell_order: false,
            hot_path: HotPath::PerThread,
            ..ExecOptions::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(batches), &cfg, |b, cfg| {
            b.iter(|| {
                run_batched_on(
                    &device,
                    black_box(&dg),
                    LaunchConfig::default(),
                    opts,
                    cfg,
                    None,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_timeline(c: &mut Criterion) {
    let model = TransferModel::new(11.5, 10.0);
    let batches: Vec<BatchCost> = (0..64)
        .map(|i| BatchCost {
            h2d_bytes: 1 << 20,
            kernel: Duration::from_micros(500 + (i % 7) * 100),
            d2h_bytes: 8 << 20,
        })
        .collect();
    c.bench_function("stream_timeline_64_batches", |b| {
        let tl = StreamTimeline::new(model, 3);
        b.iter(|| tl.schedule(black_box(&batches)))
    });
}

criterion_group!(
    benches,
    bench_estimation,
    bench_batch_counts,
    bench_timeline
);
criterion_main!(benches);
