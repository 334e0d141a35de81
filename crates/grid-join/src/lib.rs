//! **GPU-SJ**: the GPU-accelerated distance-similarity self-join of
//! Gowanlock & Karsin (2018), reproduced in Rust on a software SIMT
//! device model.
//!
//! Given a dataset `D` of n-dimensional points and a radius ε, the
//! self-join finds every ordered pair `(p, q)`, `p ≠ q`, with Euclidean
//! distance `dist(p, q) ≤ ε`. The algorithm combines:
//!
//! * a GPU-friendly **ε-grid index** storing only non-empty cells in
//!   `O(|D|)` space ([`grid`]),
//! * the one-thread-per-point **`GPUSELFJOINGLOBAL` kernel** with bounded,
//!   mask-filtered adjacent-cell searches ([`kernels`]),
//! * the **UNICOMP** parity-based work-avoidance pattern that halves cell
//!   visits and distance computations ([`unicomp`]),
//! * the **cell-major hot path** — reordered point layout, per-cell
//!   neighbor hoisting, batched result reservation ([`cell_major`]; the
//!   default execution path),
//! * a **result-set batching** pipeline that bounds device memory use and
//!   overlaps transfers with compute ([`batching`]),
//! * **cost projection** from predicted work counts, priced like executed
//!   work ([`cost`]), and
//! * a **brute-force** GPU baseline for the evaluation ([`brute_force`]).
//!
//! Start with [`GpuSelfJoin`]:
//!
//! ```
//! use grid_join::GpuSelfJoin;
//! use sj_datasets::synthetic::uniform;
//!
//! let data = uniform(3, 1_000, 42);
//! let out = GpuSelfJoin::default_device().run(&data, 6.0).unwrap();
//! assert!(out.table.is_symmetric());
//! ```

pub mod batching;
pub mod brute_force;
pub mod cell_major;
pub mod cost;
pub mod device_grid;
pub mod error;
pub mod grid;
pub mod host_join;
pub mod kernels;
pub mod knn;
pub mod linearize;
pub mod plan;
pub mod result;
pub mod selfjoin;
pub mod session;
pub mod unicomp;

pub use batching::{BatchReport, BatchingConfig, ExecOptions};
pub use brute_force::{gpu_brute_force, BruteForceResult};
pub use cell_major::{CellMajorPlan, CellMajorSelfJoinKernel, HotPath};
pub use device_grid::DeviceGrid;
pub use error::{GridBuildError, SelfJoinError};
pub use grid::{CellRange, GridIndex};
pub use host_join::{host_self_join, host_self_join_parallel, query_neighbors_within};
pub use knn::{gpu_knn, gpu_knn_on, host_knn, KnnHit};
pub use plan::{IndexStage, JoinPlan, JoinReport, PlanOutput};
pub use result::{remap_pairs, NeighborTable, Ownership, Pair};
pub use selfjoin::{GpuSelfJoin, SelfJoinConfig, SelfJoinOutput};
pub use session::{
    ProjectedCost, SelfJoinSession, SessionConfig, SessionKnnOutput, SessionQueryOutput,
    SessionStats,
};
