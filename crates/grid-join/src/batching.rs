//! Result-set batching (paper §V-A).
//!
//! Low-dimensional self-joins can produce result sets far larger than the
//! GPU's global memory. The paper's scheme — adopted from Gowanlock et
//! al. 2017 \[29\] — estimates the total result size, splits the query
//! points into at least three batches, and pipelines kernel execution with
//! bidirectional transfers across CUDA streams so transfer time hides
//! behind compute. This module implements all three parts against the
//! simulated device:
//!
//! 1. **Estimation** — the [`crate::kernels::CountKernel`]
//!    counts neighbours for a deterministic sample of query points; the
//!    scaled sum (with a safety factor) predicts the total.
//! 2. **Planning** — the batch count is
//!    `max(3, ceil(estimate / buffer_capacity))` where the buffer capacity
//!    is bounded by a configurable fraction of *free* device memory.
//! 3. **Execution** — one reusable device result buffer; per batch: launch
//!    the join kernel over a contiguous query range, detect overflow (the
//!    estimate is probabilistic, not a guarantee), retry with a doubled
//!    buffer when it happens, then drain to the host. Per-batch costs feed
//!    the [`StreamTimeline`] overlap model.

use crate::cell_major::{CellMajorPlan, CellMajorSelfJoinKernel, HotPath, PlanBuildStats};
use crate::device_grid::DeviceGrid;
use crate::error::SelfJoinError;
use crate::kernels::{CountKernel, SelfJoinKernel};
use crate::result::{Ownership, Pair};
use sim_gpu::append::AppendBuffer;
use sim_gpu::{launch, BatchCost, Device, LaunchConfig, StreamTimeline, TimelineReport};
use std::time::Duration;

/// Execution options of one batched join (which kernel variant runs, how
/// queries are ordered, and how the run relates to resident device state).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Apply the UNICOMP work-avoidance pattern.
    pub unicomp: bool,
    /// Per-thread path only: process queries in `A`-order (the cell-major
    /// path is always cell-ordered by construction).
    pub cell_order: bool,
    /// Which hot path executes the join kernels.
    pub hot_path: HotPath,
    /// Distance threshold ε′ for this execution when it differs from the
    /// grid's cell width (resident-index reuse; callers guarantee
    /// ε′ ≤ ε_built — the plan executor validates). `None` uses the
    /// grid's ε.
    pub query_epsilon: Option<f64>,
    /// The snapshot (and any hoisted plan passed in) was resident on the
    /// device before this call: the modeled timeline omits the leading
    /// upload batch — the session that owns the residency accounts for the
    /// one-time upload instead.
    pub resident: bool,
    /// Emit-time ownership window (shard subplans): both hot paths' kernels
    /// drop pairs whose key falls outside `[0, owned)` with one comparison
    /// *before* the result-buffer reservation, so ghost-keyed pairs are
    /// never materialized. `None` emits everything.
    pub ownership: Option<Ownership>,
}

/// Tunables of the batching scheme.
#[derive(Clone, Copy, Debug)]
pub struct BatchingConfig {
    /// Minimum number of batches; the paper fixes this at 3 so transfers
    /// always have neighbouring kernels to hide behind.
    pub min_batches: usize,
    /// Fraction of points sampled by the estimation kernel.
    pub sample_fraction: f64,
    /// Sample-size floor.
    pub min_sample: usize,
    /// Multiplier applied to the estimate before sizing buffers.
    pub safety_factor: f64,
    /// Fraction of *free* device memory the result buffer may occupy.
    pub result_mem_fraction: f64,
    /// Simulated CUDA streams for the overlap model.
    pub streams: usize,
    /// Externally supplied result-size estimate (directed pairs, already
    /// including any safety factor). When set, the estimation kernel is
    /// skipped — the sharded engine estimates every shard up front for its
    /// cost-based scheduler and passes the prediction through here so the
    /// work isn't done twice.
    pub precomputed_estimate: Option<u64>,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        Self {
            min_batches: 3,
            sample_fraction: 0.01,
            min_sample: 1024,
            safety_factor: 1.25,
            result_mem_fraction: 0.5,
            streams: 3,
            precomputed_estimate: None,
        }
    }
}

/// Execution report of a batched join.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Number of batches executed.
    pub batches: usize,
    /// Estimated total directed pairs (post safety factor).
    pub estimated_pairs: u64,
    /// Actual directed pairs produced.
    pub actual_pairs: u64,
    /// Batches that overflowed their buffer and were retried.
    pub overflow_retries: usize,
    /// Sum of host-measured kernel wall times (estimation kernel excluded).
    pub kernel_time: Duration,
    /// Sum of modeled device-kernel times (see
    /// [`sim_gpu::LaunchStats::modeled_wall`]).
    pub modeled_kernel_time: Duration,
    /// Wall time of the estimation kernel (host-measured).
    pub estimate_time: Duration,
    /// Modeled device time of the estimation kernel.
    pub modeled_estimate_time: Duration,
    /// Host wall time of the cell-major hoisting precompute (zero on the
    /// per-thread path).
    pub hoist_time: Duration,
    /// Modeled device time of the hoisting kernels (zero on the
    /// per-thread path); also scheduled into [`Self::timeline`].
    pub modeled_hoist_time: Duration,
    /// Modeled pipelined timeline (kernel + transfers on `streams`).
    pub timeline: TimelineReport,
    /// Result-buffer capacity in pairs.
    pub buffer_capacity: usize,
}

/// The id stride of the estimation kernel's sample over `n` points:
/// `sample_fraction` of them, at least `min_sample`, at most all.
pub(crate) fn sample_stride(n: usize, cfg: &BatchingConfig) -> usize {
    let sample = ((n as f64 * cfg.sample_fraction) as usize)
        .max(cfg.min_sample)
        .min(n);
    n.div_ceil(sample.max(1)).max(1)
}

/// The batch count and result-buffer pair budget of a join over `n` slots
/// estimated at `estimated` pairs, on a device with `free_bytes` free: at
/// least `min_batches`, more when the estimate overflows the budget, a
/// share of free memory floored so tiny datasets still get a useful
/// buffer. The executor runs this split; cost projections price it.
pub(crate) fn batch_split(
    n: usize,
    estimated: u64,
    free_bytes: usize,
    cfg: &BatchingConfig,
) -> (usize, usize) {
    let budget_pairs =
        ((free_bytes as f64 * cfg.result_mem_fraction) as usize / size_of::<Pair>()).max(4096);
    let batches = cfg
        .min_batches
        .max((estimated as usize).div_ceil(budget_pairs))
        .min(n.max(1));
    (batches, budget_pairs)
}

/// Estimates the total number of directed result pairs by sampling.
///
/// `query_epsilon` overrides the distance threshold (resident-index reuse
/// with ε′ ≤ ε_built); `None` estimates at the grid's own ε.
///
/// Returns `(estimate_after_safety, sample_size, host_wall, modeled_wall)`.
pub fn estimate_result_size(
    device: &Device,
    grid: &DeviceGrid,
    cfg: &BatchingConfig,
    query_epsilon: Option<f64>,
) -> Result<(u64, usize, Duration, Duration), SelfJoinError> {
    let n = grid.num_points;
    if n == 0 {
        return Ok((0, 0, Duration::ZERO, Duration::ZERO));
    }
    let mut span = sj_obs::Span::enter("gpu.estimate");
    let eps = query_epsilon.unwrap_or(grid.epsilon);
    // Deterministic stratified sample: every stride-th point. A is grouped
    // by cell, but ids are assigned in input order, so striding ids
    // samples space roughly uniformly for any input order.
    let ids: Vec<u32> = (0..n)
        .step_by(sample_stride(n, cfg))
        .map(|i| i as u32)
        .collect();
    let sample_ids = device.alloc_from_host(&ids)?;
    let counts = AppendBuffer::<u32>::new(device.pool(), ids.len())?;
    let kernel = CountKernel {
        grid,
        eps_sq: eps * eps,
        sample_ids: &sample_ids,
        counts: &counts,
    };
    let stats = launch(device, LaunchConfig::default(), ids.len(), &kernel);
    let mut counts = counts;
    let total: u64 = counts.drain_to_host().iter().map(|&c| c as u64).sum();
    let avg = total as f64 / ids.len() as f64;
    let estimate = (avg * n as f64 * cfg.safety_factor).ceil() as u64;
    span.label("sample", ids.len());
    span.label("estimate", estimate);
    Ok((estimate, ids.len(), stats.wall, stats.modeled_wall))
}

/// Runs the batched self-join and returns all directed pairs plus the
/// execution report. `prebuilt` is optionally pre-hoisted device state: a
/// resident session passes the [`CellMajorPlan`] it cached with the
/// snapshot so the hoisting pass runs once per index build, not once per
/// query. The prebuilt plan must target `grid` and match `opts.unicomp`;
/// its build cost is charged by whoever built it, so the report's hoist
/// fields stay zero here.
pub fn run_batched_on(
    device: &Device,
    grid: &DeviceGrid,
    launch_cfg: LaunchConfig,
    opts: ExecOptions,
    cfg: &BatchingConfig,
    prebuilt: Option<&CellMajorPlan>,
) -> Result<(Vec<Pair>, BatchReport), SelfJoinError> {
    // One fault-injection checkpoint covers the whole kernel-launch
    // sequence: a launch fault (or a crashed device) fails the join here,
    // before any batch allocates, so retries re-enter with clean state.
    device.fault_check(sim_gpu::FaultOp::Launch)?;
    let n = grid.num_points;
    let eps = opts.query_epsilon.unwrap_or(grid.epsilon);
    if eps > grid.epsilon {
        // The one-cell adjacent shell only covers radii up to the cell
        // width; a silent under-count would be far worse than an error.
        return Err(SelfJoinError::EpsilonExceedsIndex {
            query: eps,
            built: grid.epsilon,
        });
    }
    let eps_sq = eps * eps;
    let (estimated, _sample, estimate_time, modeled_estimate_time) = match cfg.precomputed_estimate
    {
        Some(est) => (est, 0, Duration::ZERO, Duration::ZERO),
        None => estimate_result_size(device, grid, cfg, opts.query_epsilon)?,
    };

    // Cell-major path: hoist the per-cell neighbor searches once, before
    // any batch runs (and before the free-memory budget is measured, so
    // the plan's buffers are accounted for) — unless the caller already
    // holds a resident hoisted plan for this grid.
    let (built_plan, plan_stats) = match (opts.hot_path, prebuilt) {
        (HotPath::CellMajor, Some(p)) => {
            assert_eq!(
                p.unicomp, opts.unicomp,
                "prebuilt cell-major plan does not match the UNICOMP setting"
            );
            (None, PlanBuildStats::default())
        }
        (HotPath::CellMajor, None) => {
            let mut hspan = sj_obs::Span::enter("gpu.hoist");
            let (plan, stats) = CellMajorPlan::build(device, grid, opts.unicomp, launch_cfg)?;
            hspan.label("h2d_bytes", stats.h2d_bytes);
            hspan.label("d2h_bytes", stats.d2h_bytes);
            (Some(plan), stats)
        }
        (HotPath::PerThread, _) => (None, Default::default()),
    };
    let plan = match opts.hot_path {
        HotPath::CellMajor => built_plan.as_ref().or(prebuilt),
        HotPath::PerThread => None,
    };

    let (batches, budget_pairs) = batch_split(n, estimated, device.free_bytes(), cfg);
    // Expected pairs per batch, with headroom for skew between batches.
    let per_batch_estimate = (estimated as usize).div_ceil(batches);
    let mut capacity = (per_batch_estimate * 2).clamp(4096, budget_pairs);
    let pair_size = size_of::<Pair>();

    let mut results = AppendBuffer::<Pair>::new(device.pool(), capacity)?;
    let mut all_pairs: Vec<Pair> = Vec::with_capacity(estimated as usize);
    let mut kernel_time = Duration::ZERO;
    let mut modeled_kernel_time = Duration::ZERO;
    let mut overflow_retries = 0usize;
    let mut costs: Vec<BatchCost> = Vec::with_capacity(batches + 1);

    // The grid + data upload precedes the pipeline; model it as a leading
    // H2D-only batch — unless the snapshot was already resident, in which
    // case its one-time upload was charged when residency was established.
    if !opts.resident {
        costs.push(BatchCost {
            h2d_bytes: grid.h2d_bytes(),
            kernel: Duration::ZERO,
            d2h_bytes: 0,
        });
    }
    // The hoisting pass (when it ran in this call) comes next: its
    // kernels, drains and CSR upload are real pipeline work, never free.
    // A prebuilt resident plan contributes nothing here for the same
    // reason the upload doesn't.
    if built_plan.is_some() {
        costs.push(BatchCost {
            h2d_bytes: plan_stats.h2d_bytes,
            kernel: plan_stats.modeled,
            d2h_bytes: plan_stats.d2h_bytes,
        });
    }

    let per_batch_queries = n.div_ceil(batches.max(1)).max(1);
    let mut offset = 0usize;
    let mut batch_idx = 0usize;
    while offset < n {
        let count = per_batch_queries.min(n - offset);
        let mut bspan = sj_obs::Span::enter("gpu.batch");
        bspan.label("batch", batch_idx);
        bspan.label("queries", count);
        loop {
            let stats = match plan {
                Some(plan) => {
                    let kernel = CellMajorSelfJoinKernel {
                        grid,
                        eps_sq,
                        plan,
                        results: &results,
                        slot_offset: offset,
                        slot_count: count,
                        ownership: opts.ownership,
                    };
                    launch(device, launch_cfg, count, &kernel)
                }
                None => {
                    let kernel = SelfJoinKernel {
                        grid,
                        eps_sq,
                        results: &results,
                        query_offset: offset,
                        query_count: count,
                        unicomp: opts.unicomp,
                        cell_order: opts.cell_order,
                        ownership: opts.ownership,
                    };
                    launch(device, launch_cfg, count, &kernel)
                }
            };
            if results.overflowed() {
                // The estimate undershot: grow the buffer and retry this
                // batch (a real implementation re-splits; doubling is the
                // simplest convergent policy).
                overflow_retries += 1;
                capacity *= 2;
                drop(results);
                results = AppendBuffer::<Pair>::new(device.pool(), capacity)?;
                continue;
            }
            kernel_time += stats.wall;
            modeled_kernel_time += stats.modeled_wall;
            let produced = results.len();
            let mut dspan = sj_obs::Span::enter("gpu.download");
            if dspan.id() != 0 {
                let bytes = produced * pair_size;
                dspan.label("bytes", bytes);
                dspan.set_modeled_dur(device.spec().transfer_model().time(bytes).as_secs_f64());
            }
            all_pairs.extend_from_slice(results.as_slice());
            results.clear();
            drop(dspan);
            // The overlap timeline schedules *device* work, so it is fed
            // modeled kernel durations.
            costs.push(BatchCost {
                h2d_bytes: 0,
                kernel: stats.modeled_wall,
                d2h_bytes: produced * pair_size,
            });
            break;
        }
        if overflow_retries > 0 {
            bspan.label("retries_so_far", overflow_retries);
        }
        drop(bspan);
        offset += count;
        batch_idx += 1;
    }

    let timeline =
        StreamTimeline::new(device.spec().transfer_model(), cfg.streams).schedule(&costs);
    let report = BatchReport {
        batches,
        estimated_pairs: estimated,
        actual_pairs: all_pairs.len() as u64,
        overflow_retries,
        kernel_time,
        modeled_kernel_time,
        estimate_time,
        modeled_estimate_time,
        hoist_time: plan_stats.wall,
        modeled_hoist_time: plan_stats.modeled,
        timeline,
        buffer_capacity: capacity,
    };
    Ok((all_pairs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::host_join::host_self_join;
    use crate::result::NeighborTable;
    use sim_gpu::DeviceSpec;
    use sj_datasets::synthetic::{clustered, uniform};

    fn setup(
        dim: usize,
        n: usize,
        eps: f64,
        seed: u64,
        device: &Device,
    ) -> (sj_datasets::Dataset, GridIndex, DeviceGrid) {
        let data = uniform(dim, n, seed);
        let grid = GridIndex::build(&data, eps).unwrap();
        let dg = DeviceGrid::upload(device, &data, &grid).unwrap();
        (data, grid, dg)
    }

    #[test]
    fn estimate_close_to_truth_on_uniform_data() {
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let (data, grid, dg) = setup(2, 5000, 3.0, 41, &dev);
        let cfg = BatchingConfig::default();
        let (est, sample, _, _) = estimate_result_size(&dev, &dg, &cfg, None).unwrap();
        let truth = host_self_join(&data, &grid).total_pairs() as f64;
        assert!(sample >= 900, "sample {sample}");
        // Estimate carries a 1.25 safety factor; require truth ≤ est ≤ 2×truth.
        assert!(est as f64 >= truth * 0.9, "est {est} truth {truth}");
        assert!(est as f64 <= truth * 2.0, "est {est} truth {truth}");
    }

    #[test]
    fn estimate_equals_host_count_at_the_same_sample() {
        // The estimate's cells come from the run walk; the host join
        // searches every adjacent coordinate. Same cells, same counts: the
        // estimate recomputed from the host table's row lengths at the
        // same stride sample must match exactly.
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        for (dim, n, eps, seed) in [(2, 5000, 3.0, 45), (6, 3000, 30.0, 46)] {
            let (data, grid, dg) = setup(dim, n, eps, seed, &dev);
            let cfg = BatchingConfig::default();
            let (est, sample, _, _) = estimate_result_size(&dev, &dg, &cfg, None).unwrap();
            let table = host_self_join(&data, &grid);
            let stride = n.div_ceil(sample);
            let ids: Vec<usize> = (0..n).step_by(stride).collect();
            assert_eq!(ids.len(), sample, "dim {dim}");
            let total: usize = ids.iter().map(|&i| table.neighbors(i).len()).sum();
            let avg = total as f64 / ids.len() as f64;
            let expected = (avg * n as f64 * cfg.safety_factor).ceil() as u64;
            assert!(total > 0, "dim {dim}: degenerate sample");
            assert_eq!(est, expected, "dim {dim}");
        }
    }

    fn exec(unicomp: bool, hot_path: HotPath) -> ExecOptions {
        ExecOptions {
            unicomp,
            cell_order: false,
            hot_path,
            ..ExecOptions::default()
        }
    }

    #[test]
    fn batched_join_matches_host_reference() {
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let (data, grid, dg) = setup(2, 3000, 2.5, 42, &dev);
        for hot_path in [HotPath::PerThread, HotPath::CellMajor] {
            for unicomp in [false, true] {
                let (pairs, report) = run_batched_on(
                    &dev,
                    &dg,
                    LaunchConfig::default(),
                    exec(unicomp, hot_path),
                    &BatchingConfig::default(),
                    None,
                )
                .unwrap();
                assert!(report.batches >= 3, "paper mandates ≥3 batches");
                let got = NeighborTable::from_pairs(data.len(), &pairs);
                assert_eq!(
                    got,
                    host_self_join(&data, &grid),
                    "unicomp={unicomp}, {hot_path:?}"
                );
                assert_eq!(report.actual_pairs as usize, got.total_pairs());
                match hot_path {
                    HotPath::CellMajor => assert!(report.modeled_hoist_time > Duration::ZERO),
                    HotPath::PerThread => assert_eq!(report.modeled_hoist_time, Duration::ZERO),
                }
            }
        }
    }

    #[test]
    fn tiny_buffer_forces_many_batches_and_still_correct() {
        // Deny the result buffer almost all memory so the planner must use
        // many batches (and possibly retries) — correctness must hold.
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let (data, grid, dg) = setup(2, 2000, 4.0, 43, &dev);
        let cfg = BatchingConfig {
            result_mem_fraction: 1e-7, // ≈ floor of 4096 pairs
            ..BatchingConfig::default()
        };
        for hot_path in [HotPath::PerThread, HotPath::CellMajor] {
            let (pairs, report) = run_batched_on(
                &dev,
                &dg,
                LaunchConfig::default(),
                exec(false, hot_path),
                &cfg,
                None,
            )
            .unwrap();
            assert!(
                report.batches > 3,
                "expected many batches, got {}",
                report.batches
            );
            let got = NeighborTable::from_pairs(data.len(), &pairs);
            assert_eq!(got, host_self_join(&data, &grid), "{hot_path:?}");
        }
    }

    #[test]
    fn overflow_retry_recovers() {
        // A clustered dataset breaks the uniform-sample assumption enough
        // to occasionally overflow; force it with a hostile safety factor.
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let data = clustered(2, 3000, 3, 0.8, 0.05, 44);
        let grid = GridIndex::build(&data, 1.5).unwrap();
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let cfg = BatchingConfig {
            safety_factor: 0.05, // deliberate massive underestimate
            ..BatchingConfig::default()
        };
        for hot_path in [HotPath::PerThread, HotPath::CellMajor] {
            let (pairs, report) = run_batched_on(
                &dev,
                &dg,
                LaunchConfig::default(),
                exec(false, hot_path),
                &cfg,
                None,
            )
            .unwrap();
            assert!(
                report.overflow_retries > 0,
                "test should have provoked a retry ({hot_path:?})"
            );
            let got = NeighborTable::from_pairs(data.len(), &pairs);
            assert_eq!(got, host_self_join(&data, &grid), "{hot_path:?}");
        }
    }

    #[test]
    fn precomputed_estimate_skips_estimation_kernel() {
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let (data, grid, dg) = setup(2, 2500, 2.5, 47, &dev);
        let truth = host_self_join(&data, &grid).total_pairs() as u64;
        let cfg = BatchingConfig {
            precomputed_estimate: Some(truth),
            ..BatchingConfig::default()
        };
        let (pairs, report) = run_batched_on(
            &dev,
            &dg,
            LaunchConfig::default(),
            exec(true, HotPath::CellMajor),
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(report.estimated_pairs, truth);
        assert_eq!(report.estimate_time, Duration::ZERO);
        assert_eq!(report.modeled_estimate_time, Duration::ZERO);
        let got = NeighborTable::from_pairs(data.len(), &pairs);
        assert_eq!(got, host_self_join(&data, &grid));
    }

    #[test]
    fn empty_dataset_runs() {
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let data = sj_datasets::Dataset::new(2);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        for hot_path in [HotPath::PerThread, HotPath::CellMajor] {
            let (pairs, report) = run_batched_on(
                &dev,
                &dg,
                LaunchConfig::default(),
                exec(false, hot_path),
                &BatchingConfig::default(),
                None,
            )
            .unwrap();
            assert!(pairs.is_empty());
            assert_eq!(report.actual_pairs, 0);
        }
    }

    #[test]
    fn timeline_reports_overlap() {
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let (_, _, dg) = setup(2, 4000, 3.0, 45, &dev);
        let (_, report) = run_batched_on(
            &dev,
            &dg,
            LaunchConfig::default(),
            exec(false, HotPath::CellMajor),
            &BatchingConfig::default(),
            None,
        )
        .unwrap();
        // Pipelined total can never exceed the serialized total.
        assert!(report.timeline.total <= report.timeline.serial_total);
    }

    #[test]
    fn memory_released_after_join() {
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        {
            let (_, _, dg) = setup(2, 1000, 2.0, 46, &dev);
            let _ = run_batched_on(
                &dev,
                &dg,
                LaunchConfig::default(),
                exec(true, HotPath::CellMajor),
                &BatchingConfig::default(),
                None,
            )
            .unwrap();
            drop(dg);
        }
        assert_eq!(dev.used_bytes(), 0);
    }
}
