//! The join-plan IR and its executor — one description of the paper's
//! device pipeline for every GPU join path.
//!
//! Every device join in this workspace runs the same four conceptual
//! stages (paper §V-A, Algorithm 1): obtain an ε-grid index, materialize a
//! device snapshot, estimate the result size, and execute the batched
//! kernels. Each entry point *builds* a [`JoinPlan`] and hands it, with
//! the device to run on, to [`execute`]:
//!
//! * [`crate::GpuSelfJoin`] — `Build`/`Prebuilt` index.
//! * `sj-shard`'s `ShardedSelfJoin` — a plan *rewrite*: the partition pass
//!   turns one logical join into per-shard subplans (`Prebuilt` index,
//!   precomputed estimate, an [`ExecOptions::ownership`] window so the
//!   kernels of either hot path drop ghost-keyed pairs at emit time),
//!   executed on the scheduled device; the engine lifts the pairs to
//!   global ids and builds the table from the per-device pair segments
//!   ([`crate::NeighborTable::from_segments`]) — the ownership windows are
//!   disjoint, so no dedup pass is needed.
//! * [`crate::SelfJoinSession`] — `Resident` index: the session pins the
//!   dataset, caches the built [`GridIndex`] plus per-device
//!   [`DeviceGrid`] snapshots (and the hoisted [`CellMajorPlan`]), and
//!   issues plans whose query ε′ may *undershoot* the built cell width.
//!
//! The host grid joins ([`crate::host_self_join`],
//! [`crate::host_self_join_parallel`]) are the reference the executor is
//! checked against, so they scan the grid on their own and share no code
//! with it.
//!
//! ## Stage semantics
//!
//! **Index** ([`IndexStage`]): build fresh, borrow a prebuilt index, or
//! reuse a resident index + snapshot. A resident index built at ε_built
//! may serve any query radius ε′ ≤ ε_built — the one-cell adjacent shell
//! covers every radius up to the cell width, so only the distance
//! threshold changes ([`ExecOptions::query_epsilon`]). The executor
//! rejects ε′ > ε_built with [`SelfJoinError::EpsilonExceedsIndex`].
//!
//! **Estimate** ([`BatchingConfig::precomputed_estimate`]): run the
//! sampling kernel, or inject a prediction computed elsewhere
//! ([`JoinPlan::estimated`]: the shard engine estimates every shard up
//! front for its cost-based scheduler, a session reuses the exact count
//! of an ε it has served).

use crate::batching::{run_batched_on, BatchReport, BatchingConfig, ExecOptions};
use crate::cell_major::CellMajorPlan;
use crate::device_grid::DeviceGrid;
use crate::error::SelfJoinError;
use crate::grid::GridIndex;
use crate::kernels::kernel_registers;
use crate::result::{Ownership, Pair};
use sim_gpu::occupancy::KernelResources;
use sim_gpu::{host_core_time, occupancy, Device, LaunchConfig, OccupancyResult};
use sj_datasets::Dataset;
use sj_obs::Stage;
use std::time::{Duration, Instant};

/// How a plan obtains its ε-grid index.
#[derive(Clone, Copy, Debug)]
pub enum IndexStage<'a> {
    /// Build the index from the dataset at query time; its cost lands in
    /// [`JoinReport::grid_build`].
    Build {
        /// Cell width / search radius ε.
        epsilon: f64,
    },
    /// Borrow an index the caller already built (ε comes from the grid;
    /// `grid_build` is reported as zero — the build happened outside).
    Prebuilt(&'a GridIndex),
    /// Reuse an index *and* its device snapshot that are resident from an
    /// earlier query (session layer). The executor skips the upload and —
    /// when a hoisted plan is supplied — the cell-major hoisting pass;
    /// whoever established residency charged those one-time costs.
    ///
    /// Must execute on the device holding `snapshot` (sessions pick the
    /// device themselves).
    Resident {
        /// The resident host index (`snapshot` mirrors it).
        grid: &'a GridIndex,
        /// The device-resident snapshot of `grid`.
        snapshot: &'a DeviceGrid,
        /// The hoisted per-cell neighbor table cached with the snapshot
        /// (cell-major hot path; `None` forces a rebuild of the hoist).
        hoist: Option<&'a CellMajorPlan>,
    },
}

/// One self-join described as data: which index, which kernels, which
/// batching (the estimate included). Built by every device entry point
/// and run by [`execute`] — the single owner of the pipeline's control
/// flow.
#[derive(Clone, Copy, Debug)]
pub struct JoinPlan<'a> {
    /// The dataset being joined (the index must describe exactly it).
    pub data: &'a Dataset,
    /// Index acquisition.
    pub index: IndexStage<'a>,
    /// Kernel-level options (hot path, UNICOMP, query ε′). The executor
    /// owns [`ExecOptions::resident`] — it is derived from the index
    /// stage, not from what the builder set.
    pub exec: ExecOptions,
    /// Kernel launch geometry.
    pub launch: LaunchConfig,
    /// Batching-scheme tunables (§V-A), the result-size estimate input
    /// among them.
    pub batching: BatchingConfig,
}

impl<'a> JoinPlan<'a> {
    /// A default-configured plan that builds its index at `epsilon`.
    pub fn build_index(data: &'a Dataset, epsilon: f64) -> Self {
        Self {
            data,
            index: IndexStage::Build { epsilon },
            exec: ExecOptions::default(),
            launch: LaunchConfig::default(),
            batching: BatchingConfig::default(),
        }
    }

    /// A default-configured plan over a prebuilt index.
    pub fn on_grid(data: &'a Dataset, grid: &'a GridIndex) -> Self {
        Self {
            index: IndexStage::Prebuilt(grid),
            ..Self::build_index(data, grid.epsilon())
        }
    }

    /// Fuses an ownership window over the owned *prefix* `[0, owned)`
    /// into execution: the kernels drop non-owned-keyed pairs at emit
    /// time (one comparison before the `AppendBuffer` reservation), so
    /// the ghost pairs are never materialized. The emitted pairs are
    /// exactly the owned-keyed pairs of the full join.
    pub fn owned_prefix(mut self, owned: usize) -> Self {
        self.exec.ownership = Some(Ownership::prefix(owned));
        self
    }

    /// Injects an externally computed result-size estimate (directed
    /// pairs, safety factor included) into
    /// [`BatchingConfig::precomputed_estimate`]; the estimation kernel is
    /// skipped.
    pub fn estimated(mut self, pairs: u64) -> Self {
        self.batching.precomputed_estimate = Some(pairs);
        self
    }

    /// Sets the query radius ε′ (resident-index reuse; ε′ ≤ ε_built).
    pub fn query_epsilon(mut self, epsilon: f64) -> Self {
        self.exec.query_epsilon = Some(epsilon);
        self
    }
}

/// Timing/shape report of one executed plan.
#[derive(Clone, Debug)]
pub struct JoinReport {
    /// Host-side grid construction time (zero for prebuilt/resident).
    pub grid_build: Duration,
    /// Modeled cost of the build [`Self::grid_build`] timed: the bytes it
    /// streams ([`GridIndex::build_bytes`]) at the host-core rate; zero
    /// when no index was built for this join.
    pub modeled_grid_build: Duration,
    /// Wall time of the device pipeline: estimate + kernels + drains.
    pub device_pipeline: Duration,
    /// Wall time of the first-touch upload (and hoist) a session query
    /// paid for its device snapshot; zero when the snapshot was resident.
    /// A plan that uploads its own snapshot does so inside the pipeline's
    /// timeline instead.
    pub upload: Duration,
    /// Modeled cost of [`Self::upload`]: the snapshot's transfer plus its
    /// hoist.
    pub modeled_upload: Duration,
    /// End-to-end wall time of the plan (index + execution).
    pub total: Duration,
    /// Wall time of building the neighbour table from the pairs, which
    /// [`Self::total`] excludes. Set by the callers that build one
    /// ([`crate::GpuSelfJoin::run`], [`crate::GpuSelfJoin::run_on_grid`],
    /// [`crate::SelfJoinSession::query_on`]); zero otherwise.
    pub table_build: Duration,
    /// Modeled response time on the simulated device: the host grid
    /// build priced from the bytes it streams
    /// ([`GridIndex::build_bytes`] at the host-core rate, zero for
    /// prebuilt/resident indexes) + the estimation kernel + the pipelined
    /// (3-stream) timeline of uploads, kernels and result downloads, every
    /// kernel priced from its counted bytes (`DeviceSpec::kernel_time`).
    /// A pure function of the data, ε, the plan and the device spec; this
    /// is the number the evaluation harness reports for GPU-SJ.
    pub modeled_total: Duration,
    /// Non-empty cell count `|B|`.
    pub non_empty_cells: usize,
    /// Host-side index footprint in bytes.
    pub index_bytes: usize,
    /// Theoretical occupancy of the join kernel used.
    pub occupancy: OccupancyResult,
    /// Batching execution details.
    pub batching: BatchReport,
}

impl JoinReport {
    /// The join's stage tree, built from this report's fields:
    ///
    /// ```text
    /// join                  modeled_total; wall total + table_build
    /// ├─ index.build        when an index was built for this join
    /// ├─ session.upload     a session query's first-touch upload
    /// ├─ plan.execute       the rest of the modeled and wall totals
    /// │  ├─ gpu.estimate    when the estimate was not cached
    /// │  └─ gpu.pipeline    the rest; its engines side by side:
    /// │     └─ gpu.upload, gpu.hoist (when it ran), gpu.kernels, gpu.download
    /// └─ table              wall only, when the caller built one
    /// ```
    ///
    /// On the modeled clock the children of `join` and `plan.execute` sum
    /// to their parent. The engines' busy times overlap, so they only
    /// bound `gpu.pipeline` from below and sum to the timeline's
    /// `serial_total`; a straggler's stretch is the pipeline's self time.
    pub fn stages(&self) -> Stage {
        let b = &self.batching;
        let tl = &b.timeline;
        let ran = |wall: Duration, modeled: Duration| !(wall.is_zero() && modeled.is_zero());
        let plan_modeled = self
            .modeled_total
            .saturating_sub(self.modeled_grid_build + self.modeled_upload);
        let pipeline = Stage::new(
            "gpu.pipeline",
            self.device_pipeline.saturating_sub(b.estimate_time),
            plan_modeled.saturating_sub(b.modeled_estimate_time),
        )
        .side_by_side()
        .child(Stage::new("gpu.upload", Duration::ZERO, tl.h2d_busy))
        .child(
            ran(b.hoist_time, b.modeled_hoist_time)
                .then(|| Stage::new("gpu.hoist", b.hoist_time, b.modeled_hoist_time)),
        )
        .child(Stage::new(
            "gpu.kernels",
            b.kernel_time,
            tl.serial_total
                .saturating_sub(tl.h2d_busy + tl.d2h_busy + b.modeled_hoist_time),
        ))
        .child(
            Stage::new("gpu.download", Duration::ZERO, tl.d2h_busy)
                .label("bytes", b.actual_pairs * size_of::<Pair>() as u64),
        );
        let plan = Stage::new(
            "plan.execute",
            self.total.saturating_sub(self.grid_build + self.upload),
            plan_modeled,
        )
        .label("batches", b.batches)
        .label("pairs", b.actual_pairs)
        .child(
            ran(b.estimate_time, b.modeled_estimate_time)
                .then(|| Stage::new("gpu.estimate", b.estimate_time, b.modeled_estimate_time)),
        )
        .child(pipeline);
        Stage::new("join", self.total + self.table_build, self.modeled_total)
            .child(
                ran(self.grid_build, self.modeled_grid_build)
                    .then(|| Stage::new("index.build", self.grid_build, self.modeled_grid_build)),
            )
            .child(
                ran(self.upload, self.modeled_upload)
                    .then(|| Stage::new("session.upload", self.upload, self.modeled_upload)),
            )
            .child(plan)
            .child(
                (!self.table_build.is_zero()).then(|| Stage::new("table", self.table_build, None)),
            )
    }
}

/// Output of one executed plan: the raw pair stream plus the report.
/// Callers build whatever result shape they need from it —
/// [`crate::NeighborTable`] for the public joins, a merge stream for the
/// shard engine.
#[derive(Clone, Debug)]
pub struct PlanOutput {
    /// Directed result pairs (owned-keyed only under an ownership
    /// window).
    pub pairs: Vec<Pair>,
    /// Timings and counters.
    pub report: JoinReport,
}

/// Runs a [`JoinPlan`] on `device`. The single owner of the pipeline's
/// control flow: index acquisition → snapshot (upload or resident) →
/// estimate → batched kernels.
///
/// # Panics
///
/// Panics if [`ExecOptions::ownership`] exceeds the dataset size (the
/// shard contract passes an owned *prefix*).
pub fn execute(plan: &JoinPlan<'_>, device: &Device) -> Result<PlanOutput, SelfJoinError> {
    let t0 = Instant::now();

    // Index stage: the build's wall time for the report, its streamed
    // bytes for the modeled clock.
    let built;
    let (grid, grid_build, grid_modeled): (&GridIndex, Duration, Duration) = match &plan.index {
        IndexStage::Build { epsilon } => {
            let tb = Instant::now();
            built = GridIndex::build(plan.data, *epsilon)?;
            let modeled = host_core_time(GridIndex::build_bytes(plan.data.len(), plan.data.dim()));
            (&built, tb.elapsed(), modeled)
        }
        IndexStage::Prebuilt(grid) => (*grid, Duration::ZERO, Duration::ZERO),
        IndexStage::Resident { grid, .. } => (*grid, Duration::ZERO, Duration::ZERO),
    };
    debug_assert_eq!(grid.a().len(), plan.data.len(), "grid/data mismatch");

    // Ownership-window validation: the window addresses dataset ids.
    if let Some(o) = plan.exec.ownership {
        assert!(
            o.owned as usize <= plan.data.len(),
            "ownership window [0, {}) exceeds dataset size {}",
            o.owned,
            plan.data.len()
        );
    }

    // ε′ validation: a reused index can only *shrink* the query radius.
    if let Some(eps) = plan.exec.query_epsilon {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(SelfJoinError::Grid(
                crate::error::GridBuildError::InvalidEpsilon(eps),
            ));
        }
        if eps > grid.epsilon() {
            return Err(SelfJoinError::EpsilonExceedsIndex {
                query: eps,
                built: grid.epsilon(),
            });
        }
    }

    // Snapshot stage: upload, or reuse the resident one.
    let uploaded;
    let (dg, hoist, resident): (&DeviceGrid, Option<&CellMajorPlan>, bool) = match &plan.index {
        IndexStage::Resident {
            snapshot, hoist, ..
        } => (*snapshot, *hoist, true),
        _ => {
            device.fault_check(sim_gpu::FaultOp::Upload)?;
            uploaded = DeviceGrid::upload(device, plan.data, grid)?;
            (&uploaded, None, false)
        }
    };

    // Estimate and batched kernels.
    let opts = ExecOptions {
        resident,
        ..plan.exec
    };
    let t1 = Instant::now();
    let (pairs, batching) = run_batched_on(device, dg, plan.launch, opts, &plan.batching, hoist)?;
    let device_pipeline = t1.elapsed();

    let occupancy = occupancy(
        device.spec(),
        KernelResources {
            registers_per_thread: kernel_registers(grid.dim().max(1), opts.unicomp),
            shared_mem_per_block: 0,
        },
        plan.launch.block_threads,
    );
    // An open straggler window inflates the modeled device time — the
    // answer is exact, the device is just slow. Host-side grid build is
    // unaffected.
    let device_modeled = batching.modeled_estimate_time + batching.timeline.total;
    let modeled_total = grid_modeled + device_modeled.mul_f64(device.slowdown());
    let report = JoinReport {
        grid_build,
        modeled_grid_build: grid_modeled,
        device_pipeline,
        upload: Duration::ZERO,
        modeled_upload: Duration::ZERO,
        total: t0.elapsed(),
        table_build: Duration::ZERO,
        modeled_total,
        non_empty_cells: grid.non_empty_cells(),
        index_bytes: grid.size_bytes(),
        occupancy,
        batching,
    };
    Ok(PlanOutput { pairs, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_major::HotPath;
    use crate::host_join::{host_self_join, host_self_join_parallel};
    use crate::result::NeighborTable;
    use proptest::prelude::*;
    use sim_gpu::DeviceSpec;
    use sj_datasets::synthetic::{clustered, uniform};

    fn table(data: &Dataset, out: &PlanOutput) -> NeighborTable {
        NeighborTable::from_pairs(data.len(), &out.pairs)
    }

    #[test]
    fn device_join_matches_both_host_references() {
        let data = uniform(3, 900, 91);
        let eps = 6.0;
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let dev = execute(&JoinPlan::build_index(&data, eps), &device).unwrap();
        let grid = GridIndex::build(&data, eps).unwrap();
        assert_eq!(table(&data, &dev), host_self_join(&data, &grid));
        assert_eq!(table(&data, &dev), host_self_join_parallel(&data, &grid));
        assert!(dev.report.batching.batches >= 3);
        assert!(dev.report.grid_build > Duration::ZERO);
    }

    #[test]
    fn prebuilt_index_reports_zero_build() {
        let data = uniform(2, 600, 92);
        let grid = GridIndex::build(&data, 3.0).unwrap();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let out = execute(&JoinPlan::on_grid(&data, &grid), &device).unwrap();
        assert_eq!(out.report.grid_build, Duration::ZERO);
        let fresh = execute(&JoinPlan::build_index(&data, 3.0), &device).unwrap();
        assert_eq!(table(&data, &out), table(&data, &fresh));
    }

    #[test]
    fn query_epsilon_shrinks_the_radius_on_every_backend() {
        let data = clustered(2, 800, 4, 1.0, 0.1, 93);
        let built = 2.0;
        let eps_q = 1.1;
        let grid = GridIndex::build(&data, built).unwrap();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let reused = JoinPlan::on_grid(&data, &grid).query_epsilon(eps_q);
        let dev = execute(&reused, &device).unwrap();
        let fresh = execute(&JoinPlan::build_index(&data, eps_q), &device).unwrap();
        assert_eq!(table(&data, &dev), table(&data, &fresh));
    }

    #[test]
    fn oversized_query_epsilon_is_rejected() {
        let data = uniform(2, 200, 94);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let plan = JoinPlan::on_grid(&data, &grid).query_epsilon(1.5);
        let err = execute(&plan, &device).unwrap_err();
        assert!(matches!(err, SelfJoinError::EpsilonExceedsIndex { .. }));
    }

    #[test]
    fn invalid_query_epsilon_is_rejected() {
        let data = uniform(2, 100, 95);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let plan = JoinPlan::on_grid(&data, &grid).query_epsilon(-0.5);
        let err = execute(&plan, &device).unwrap_err();
        assert!(matches!(err, SelfJoinError::Grid(_)));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The emit-time ownership window produces exactly the owned-keyed
        /// pairs of the unrestricted join, at every window from empty to
        /// the whole dataset, for both hot paths, with and without
        /// UNICOMP (whose duplicate-search removal may leave a ghost query
        /// as the only producer of an owned-keyed pair), so the shard
        /// engine can run either kernel.
        #[test]
        fn owned_prefix_keeps_exactly_the_owned_keys_of_a_full_join(
            dim in 1usize..=6,
            owned in 0usize..=160,
            eps in 12.0f64..34.0,
            seed in 0u64..10_000,
        ) {
            let n = 160;
            let data = clustered(dim, n, 3, 4.0, 0.2, seed);
            let device = Device::new(DeviceSpec::titan_x_pascal());
            let sorted = |mut pairs: Vec<Pair>| {
                pairs.sort_unstable();
                pairs
            };
            for hot_path in [HotPath::PerThread, HotPath::CellMajor] {
                for unicomp in [false, true] {
                    let mut plan = JoinPlan::build_index(&data, eps);
                    plan.exec.hot_path = hot_path;
                    plan.exec.unicomp = unicomp;
                    let full = sorted(execute(&plan, &device).unwrap().pairs);
                    prop_assert!(!full.is_empty());
                    for owned in [0, owned, n] {
                        let windowed = execute(&plan.owned_prefix(owned), &device).unwrap();
                        let expected: Vec<Pair> = full
                            .iter()
                            .copied()
                            .filter(|p| (p.key as usize) < owned)
                            .collect();
                        prop_assert_eq!(
                            sorted(windowed.pairs),
                            expected,
                            "dim={} owned={} hot_path={:?} unicomp={}",
                            dim,
                            owned,
                            hot_path,
                            unicomp
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ownership window")]
    fn oversized_ownership_window_panics() {
        let data = uniform(2, 50, 100);
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let plan = JoinPlan::build_index(&data, 3.0).owned_prefix(51);
        let _ = execute(&plan, &device);
    }

    #[test]
    fn precomputed_estimate_skips_the_sampling_kernel() {
        let data = uniform(2, 1000, 97);
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let plan = JoinPlan::build_index(&data, 3.0).estimated(50_000);
        let out = execute(&plan, &device).unwrap();
        assert_eq!(out.report.batching.estimated_pairs, 50_000);
        assert_eq!(out.report.batching.estimate_time, Duration::ZERO);
    }

    #[test]
    fn empty_dataset_runs_on_all_backends() {
        let data = Dataset::new(3);
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let out = execute(&JoinPlan::build_index(&data, 1.0), &device).unwrap();
        assert!(out.pairs.is_empty());
    }
}
