//! High-level GPU self-join API (the paper's GPU-SJ).
//!
//! This is the entry point downstream users call:
//!
//! ```
//! use grid_join::GpuSelfJoin;
//! use sj_datasets::synthetic::uniform;
//!
//! let data = uniform(2, 2_000, 7);
//! let join = GpuSelfJoin::default_device();
//! let out = join.run(&data, 2.0).unwrap();
//! println!(
//!     "{} pairs in {} batches, avg {:.1} neighbors/point",
//!     out.table.total_pairs(),
//!     out.report.batching.batches,
//!     out.table.avg_neighbors()
//! );
//! # assert!(out.table.is_symmetric());
//! ```
//!
//! The pipeline is: build the ε-grid on the host → upload → estimate the
//! result size → batched kernel execution (UNICOMP on by default, as in
//! the paper's best configuration) → sort pairs → neighbour table.

use crate::batching::{BatchingConfig, ExecOptions};
use crate::cell_major::HotPath;
use crate::error::SelfJoinError;
use crate::grid::GridIndex;
use crate::plan::{execute, IndexStage, JoinPlan};
use crate::result::NeighborTable;
use sim_gpu::{Device, DeviceSpec, LaunchConfig};
use sj_datasets::Dataset;

pub use crate::plan::JoinReport;

/// Configuration of a GPU self-join run.
#[derive(Clone, Copy, Debug)]
pub struct SelfJoinConfig {
    /// Apply the UNICOMP work-avoidance optimization (§V-B). Default on.
    pub unicomp: bool,
    /// Per-thread path only: process queries in grid-cell order (an
    /// extension beyond the paper: consecutive threads handle same-cell
    /// points, improving L1 locality and warp regularity on skewed data;
    /// results are unchanged). The cell-major path is inherently
    /// cell-ordered.
    pub cell_order_queries: bool,
    /// Which join hot path runs (see [`crate::cell_major`]). Default
    /// [`HotPath::CellMajor`]: reordered point layout, per-cell neighbor
    /// hoisting and batched result reservation — pair-for-pair identical
    /// to [`HotPath::PerThread`], measurably faster.
    pub hot_path: HotPath,
    /// Kernel launch geometry (default 256 threads/block as in §VI-B).
    pub launch: LaunchConfig,
    /// Batching-scheme tunables (§V-A).
    pub batching: BatchingConfig,
}

impl SelfJoinConfig {
    /// The kernel-level execution options this configuration describes —
    /// the one place the mapping lives; every plan builder (GPU operator,
    /// shard subplans, sessions) routes through it so the entry points
    /// cannot drift.
    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            unicomp: self.unicomp,
            cell_order: self.cell_order_queries,
            hot_path: self.hot_path,
            ..ExecOptions::default()
        }
    }
}

impl Default for SelfJoinConfig {
    fn default() -> Self {
        Self {
            unicomp: true,
            cell_order_queries: false,
            hot_path: HotPath::CellMajor,
            launch: LaunchConfig::default(),
            batching: BatchingConfig::default(),
        }
    }
}

/// Output of a self-join: the neighbour table plus the execution report.
#[derive(Clone, Debug)]
pub struct SelfJoinOutput {
    /// Directed, self-excluded neighbour lists.
    pub table: NeighborTable,
    /// Timings and counters.
    pub report: JoinReport,
}

/// The GPU self-join operator (paper: GPU-SJ).
#[derive(Clone, Debug)]
pub struct GpuSelfJoin {
    device: Device,
    config: SelfJoinConfig,
}

impl GpuSelfJoin {
    /// Creates the operator on a device with default configuration
    /// (UNICOMP enabled, 256-thread blocks, ≥3 batches).
    pub fn new(device: Device) -> Self {
        Self {
            device,
            config: SelfJoinConfig::default(),
        }
    }

    /// Creates the operator on a simulated TITAN X with defaults.
    pub fn default_device() -> Self {
        Self::new(Device::new(DeviceSpec::titan_x_pascal()))
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: SelfJoinConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables or disables UNICOMP.
    pub fn unicomp(mut self, on: bool) -> Self {
        self.config.unicomp = on;
        self
    }

    /// Selects the join hot path (default [`HotPath::CellMajor`]).
    pub fn hot_path(mut self, path: HotPath) -> Self {
        self.config.hot_path = path;
        self
    }

    /// The device handle.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The active configuration.
    pub fn config(&self) -> &SelfJoinConfig {
        &self.config
    }

    /// The [`JoinPlan`] this operator's configuration describes for
    /// `data` with the given index stage — `run*` entry points are thin
    /// wrappers that refine this plan and hand it to the shared executor.
    pub fn plan<'a>(&self, data: &'a Dataset, index: IndexStage<'a>) -> JoinPlan<'a> {
        JoinPlan {
            data,
            index,
            exec: self.config.exec_options(),
            launch: self.config.launch,
            batching: self.config.batching,
        }
    }

    /// Runs the self-join: all ordered pairs `(p, q)`, `p ≠ q`, with
    /// `dist(p, q) ≤ epsilon`.
    pub fn run(&self, data: &Dataset, epsilon: f64) -> Result<SelfJoinOutput, SelfJoinError> {
        let plan = self.plan(data, IndexStage::Build { epsilon });
        let out = execute(&plan, &self.device)?;
        Ok(SelfJoinOutput {
            table: NeighborTable::from_pairs(data.len(), &out.pairs),
            report: out.report,
        })
    }

    /// Runs the self-join against a prebuilt index (ε comes from the grid).
    ///
    /// The caller guarantees `grid` was built from `data`.
    /// `report.grid_build` is zero — the build happened outside this
    /// call.
    pub fn run_on_grid(
        &self,
        data: &Dataset,
        grid: &GridIndex,
    ) -> Result<SelfJoinOutput, SelfJoinError> {
        let plan = self.plan(data, IndexStage::Prebuilt(grid));
        let out = execute(&plan, &self.device)?;
        Ok(SelfJoinOutput {
            table: NeighborTable::from_pairs(data.len(), &out.pairs),
            report: out.report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_join::host_self_join;
    use crate::linearize::MAX_DIM;
    use sj_datasets::synthetic::{clustered, uniform};
    use std::time::Duration;

    #[test]
    fn end_to_end_matches_host_join() {
        let data = uniform(3, 2000, 51);
        let eps = 7.0;
        let join = GpuSelfJoin::default_device();
        let out = join.run(&data, eps).unwrap();
        let grid = GridIndex::build(&data, eps).unwrap();
        assert_eq!(out.table, host_self_join(&data, &grid));
        assert!(out.report.batching.batches >= 3);
        assert!(out.report.non_empty_cells > 0);
        assert!(out.report.occupancy.occupancy > 0.0);
    }

    #[test]
    fn hot_paths_agree_end_to_end() {
        let data = clustered(3, 1500, 5, 1.2, 0.1, 60);
        let eps = 1.6;
        for unicomp in [false, true] {
            let cm = GpuSelfJoin::default_device()
                .unicomp(unicomp)
                .hot_path(HotPath::CellMajor)
                .run(&data, eps)
                .unwrap();
            let pt = GpuSelfJoin::default_device()
                .unicomp(unicomp)
                .hot_path(HotPath::PerThread)
                .run(&data, eps)
                .unwrap();
            assert_eq!(cm.table, pt.table, "unicomp={unicomp}");
            assert!(cm.report.batching.modeled_hoist_time > Duration::ZERO);
            assert_eq!(pt.report.batching.modeled_hoist_time, Duration::ZERO);
        }
    }

    #[test]
    fn unicomp_and_full_agree() {
        let data = clustered(2, 1500, 4, 1.0, 0.1, 52);
        let with = GpuSelfJoin::default_device()
            .unicomp(true)
            .run(&data, 1.5)
            .unwrap();
        let without = GpuSelfJoin::default_device()
            .unicomp(false)
            .run(&data, 1.5)
            .unwrap();
        assert_eq!(with.table, without.table);
    }

    #[test]
    fn epsilon_monotonicity() {
        let data = uniform(2, 1000, 53);
        let join = GpuSelfJoin::default_device();
        let small = join.run(&data, 1.0).unwrap().table.total_pairs();
        let large = join.run(&data, 3.0).unwrap().table.total_pairs();
        assert!(large > small);
    }

    #[test]
    fn invalid_epsilon_surfaces_error() {
        let data = uniform(2, 100, 54);
        let err = GpuSelfJoin::default_device().run(&data, -1.0).unwrap_err();
        assert!(matches!(err, SelfJoinError::Grid(_)));
    }

    #[test]
    fn occupancy_reflects_unicomp_register_pressure() {
        let data = uniform(5, 1200, 55);
        let base = GpuSelfJoin::default_device()
            .unicomp(false)
            .run(&data, 25.0)
            .unwrap();
        let uni = GpuSelfJoin::default_device()
            .unicomp(true)
            .run(&data, 25.0)
            .unwrap();
        assert_eq!(base.report.occupancy.occupancy, 0.625);
        assert_eq!(uni.report.occupancy.occupancy, 0.5);
    }

    #[test]
    fn run_on_grid_matches_run() {
        let data = uniform(2, 1200, 56);
        let eps = 2.5;
        let join = GpuSelfJoin::default_device();
        let grid = GridIndex::build(&data, eps).unwrap();
        let prepared = join.run_on_grid(&data, &grid).unwrap();
        let fresh = join.run(&data, eps).unwrap();
        assert_eq!(prepared.table, fresh.table);
        assert_eq!(prepared.report.grid_build, Duration::ZERO);
    }

    #[test]
    fn doc_example_runs() {
        let data = uniform(2, 500, 7);
        let out = GpuSelfJoin::default_device().run(&data, 2.0).unwrap();
        assert!(out.table.is_symmetric());
        assert!(out.table.is_irreflexive());
    }
    /// Every supported dimension runs its own compiled kernel bodies, so
    /// each is checked: both hot paths, UNICOMP on and off, equal the
    /// host join, and the modeled estimate, hoist and kernel times stay
    /// the nanoseconds recorded when every dimension shared one
    /// runtime-dimension loop. The recorded values are the same in debug
    /// and release builds.
    #[test]
    fn every_dimension_matches_host_join_on_a_pinned_modeled_clock() {
        const EPS: [f64; MAX_DIM] = [1.0, 8.0, 15.0, 22.0, 28.0, 35.0, 40.0, 45.0];
        // Per dimension, for (cell-major, per-thread) × (UNICOMP on, off):
        // [modeled estimate, hoist, kernel] ns.
        const PINNED: [[[u64; 3]; 4]; MAX_DIM] = [
            [
                [7568, 784, 4577],
                [7568, 1112, 6637],
                [7568, 0, 9664],
                [7568, 0, 12711],
            ],
            [
                [19757, 2225, 8428],
                [19757, 3742, 14354],
                [19757, 0, 17357],
                [19757, 0, 28266],
            ],
            [
                [34924, 7080, 12154],
                [34924, 12481, 22445],
                [34924, 0, 29585],
                [34924, 0, 53321],
            ],
            [
                [68007, 16138, 22509],
                [68007, 30708, 43517],
                [68007, 0, 59107],
                [68007, 0, 120373],
            ],
            [
                [107606, 31360, 35251],
                [107606, 56388, 68428],
                [107606, 0, 126866],
                [107606, 0, 229448],
            ],
            [
                [209433, 41996, 76326],
                [209433, 80511, 150645],
                [209433, 0, 199413],
                [209433, 0, 398515],
            ],
            [
                [294525, 81989, 97748],
                [294525, 167804, 193778],
                [294525, 0, 390762],
                [294525, 0, 843648],
            ],
            [
                [626002, 144726, 203138],
                [626002, 333063, 406194],
                [626002, 0, 921966],
                [626002, 0, 2315360],
            ],
        ];
        for dim in 1..=MAX_DIM {
            let data = uniform(dim, 600, 70 + dim as u64);
            let eps = EPS[dim - 1];
            let expected = host_self_join(&data, &GridIndex::build(&data, eps).unwrap());
            assert!(expected.total_pairs() > 0, "dim {dim}");
            let runs = [HotPath::CellMajor, HotPath::PerThread]
                .into_iter()
                .flat_map(|path| [(path, true), (path, false)]);
            for ((path, unicomp), pinned) in runs.zip(PINNED[dim - 1]) {
                let out = GpuSelfJoin::default_device()
                    .unicomp(unicomp)
                    .hot_path(path)
                    .run(&data, eps)
                    .unwrap();
                let case = format!("dim {dim}, {path:?}, unicomp={unicomp}");
                assert_eq!(out.table, expected, "{case}");
                let b = &out.report.batching;
                let clock = [
                    b.modeled_estimate_time,
                    b.modeled_hoist_time,
                    b.modeled_kernel_time,
                ]
                .map(|d| d.as_nanos() as u64);
                assert_eq!(clock, pinned, "{case}");
            }
        }
    }
}
