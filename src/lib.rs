//! # gpu-self-join
//!
//! A complete Rust reproduction of *GPU Accelerated Self-Join for the
//! Distance Similarity Metric* (Gowanlock & Karsin, 2018): the GPU-SJ
//! algorithm — ε-grid index, `GPUSELFJOINGLOBAL` kernel, UNICOMP work
//! avoidance, result-set batching — running on a software SIMT device
//! model, together with the paper's baselines (sequential R-tree
//! search-and-refine, multi-threaded Super-EGO, GPU brute force) and its
//! full evaluation harness.
//!
//! This crate is a facade: it re-exports the workspace's five libraries
//! so applications can depend on a single crate.
//!
//! ```
//! use gpu_self_join::prelude::*;
//!
//! let data = uniform(2, 1_000, 42);
//! let out = GpuSelfJoin::default_device().run(&data, 2.0).unwrap();
//! println!("avg neighbors: {:.2}", out.table.avg_neighbors());
//! # assert!(out.table.is_symmetric());
//! ```
//!
//! ## Crate map
//!
//! * [`join`] (`grid-join`) — the paper's contribution: [`GpuSelfJoin`],
//!   plus the join-plan IR every path executes through
//!   ([`join::plan`]) and the dataset-resident query session layer
//!   ([`SelfJoinSession`]).
//! * [`gpu`] (`sim-gpu`) — the simulated device substrate.
//! * [`shard`] (`sj-shard`) — the sharded multi-device engine:
//!   [`ShardedSelfJoin`].
//! * [`serve`] (`sj-serve`) — the multi-tenant query service:
//!   [`SelfJoinService`] (admission control, fair-share scheduling, LRU
//!   snapshot eviction over a shared pool).
//! * [`baseline_rtree`] (`rtree`) — CPU-RTREE.
//! * [`baseline_superego`] (`superego`) — Super-EGO.
//! * [`datasets`] (`sj-datasets`) — workload generators (Table I).
//! * [`clustering`] (`sj-clustering`) — DBSCAN over the neighbour table.

pub use grid_join as join;
pub use rtree as baseline_rtree;
pub use sim_gpu as gpu;
pub use sj_clustering as clustering;
pub use sj_datasets as datasets;
pub use sj_serve as serve;
pub use sj_shard as shard;
pub use superego as baseline_superego;

pub use grid_join::{
    GpuSelfJoin, GridIndex, HotPath, JoinPlan, NeighborTable, Pair, ProjectedCost, SelfJoinConfig,
    SelfJoinError, SelfJoinOutput, SelfJoinSession, SessionConfig, SessionStats,
};
pub use sim_gpu::{Device, DeviceLease, DevicePool, DeviceSpec, MemoryLedger, PoolPressure};
pub use sj_serve::{
    AdmissionConfig, QueryRequest, SelfJoinService, ServeError, ServiceConfig, ServiceMetrics,
};
pub use sj_shard::{ShardedConfig, ShardedOutput, ShardedSelfJoin};

/// Convenience re-exports for examples and quick starts.
pub mod prelude {
    pub use grid_join::{
        gpu_brute_force, host_self_join, GpuSelfJoin, GridIndex, HotPath, NeighborTable, Pair,
        SelfJoinConfig, SelfJoinSession, SessionConfig,
    };
    pub use rtree::rtree_self_join;
    pub use sim_gpu::{Device, DevicePool, DeviceSpec};
    pub use sj_datasets::synthetic::{clustered, lattice, uniform};
    pub use sj_datasets::{euclidean, euclidean_sq, Dataset};
    pub use sj_serve::{QueryRequest, SelfJoinService, ServiceConfig};
    pub use sj_shard::{ShardedConfig, ShardedSelfJoin};
    pub use superego::SuperEgo;
}
