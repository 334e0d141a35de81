//! **sj-shard**: a sharded multi-device self-join engine.
//!
//! The paper's GPU-SJ (Gowanlock & Karsin 2018) runs on one device; its
//! result-set batching exists precisely because a single GPU's memory
//! bounds the join. This crate scales *out*: the dataset is spatially
//! sharded across a pool of simulated devices and the ε-grid join runs on
//! all of them concurrently — the trajectory the authors took in their
//! later multi-GPU self-join work. Four pieces compose the engine:
//!
//! * [`partition`] — recursive kd-style splits: each sub-region is cut
//!   along its widest remaining dimension at a grid-aligned boundary,
//!   yielding compact **boxes** instead of thin slabs. Each box carries an
//!   ε-wide ghost/halo band per face (the halo-ownership invariant
//!   below); compact boxes have far less ε-surface per owned point than
//!   slabs, so the ghost tax stays flat as shard counts grow.
//! * [`cost`] — ghost-aware per-shard projections over
//!   [`grid_join::cost`]'s model, calibrated from the partition prelude's
//!   shared sample ([`calibrate_from_sample`]): each shard's sampled
//!   census counts the ghost-band join work and the ghost upload bytes,
//!   priced like executed work, so the scheduler — and the shard-count
//!   chooser — see *cost*, not point count.
//! * [`schedule`] — longest-processing-time assignment of shards to
//!   devices by projected cost, [`stream_end`], the one rule that prices
//!   a device stream (projected or executed), and [`modeled_makespan`],
//!   the busiest-device bound the engine minimizes when choosing how many
//!   shards to cut at all.
//! * [`engine`] — [`ShardedSelfJoin`]: prices each candidate shard
//!   count's own cut tree over the calibration sample, materializes the
//!   modeled-response argmin, then runs one executor task per device.
//!   Ownership is **fused into the kernels** of both hot paths as an
//!   emit-time window over each shard's owned-prefix ids, so ghost-keyed
//!   pairs are never materialized and the merge builds the table straight
//!   from the per-device pair segments, with nothing to deduplicate.
//!
//! ```
//! use sj_shard::ShardedSelfJoin;
//! use sj_datasets::synthetic::uniform;
//!
//! let data = uniform(2, 2_000, 7);
//! let out = ShardedSelfJoin::titan_x(4).run(&data, 2.0).unwrap();
//! assert!(out.table.is_symmetric());
//! assert_eq!(out.report.duplicates_merged, 0); // exclusive ownership
//! ```
//!
//! # The halo-ownership invariant
//!
//! Every shard owns an axis-aligned box `∏ⱼ [loⱼ, hiⱼ)` of space (bounds
//! lie on global ε-grid cell boundaries, so shards are grid-aligned), and
//! additionally carries **ghost** copies of every foreign point within
//! the ε-widened box `∏ⱼ [loⱼ − ε, hiⱼ + ε]`. Two facts make the merged
//! result exact:
//!
//! 1. **Completeness.** If `p` is owned by shard `s` and
//!    `dist(p, q) ≤ ε`, then `q`'s coordinate differs from `p`'s by at
//!    most ε in *every* dimension, so `q` lies inside `s`'s ε-widened box
//!    and is present (owned or ghost) in `s`'s local dataset. The local
//!    join therefore finds every neighbour of every owned point. (The
//!    halo is widened by a ~1 ppb relative guard so floating-point
//!    rounding at cell boundaries can never exclude a true neighbour.)
//! 2. **Exclusivity.** The boxes partition space, so every point is owned
//!    by exactly one shard, and a shard only emits pairs whose *key* is
//!    an owned point: each shard orders its local ids owned-first, and
//!    the kernels carry an `Ownership` window that drops ghost-keyed
//!    pairs at emit time — one comparison before the result-buffer
//!    reservation, no ghost pair ever materialized. Hence each directed
//!    pair `(p, q)` is reported by exactly one shard — the owner of `p` —
//!    and the merge needs no deduplication (every run counts the merged
//!    table's duplicates and reports the count, which stays 0).
//!
//! Together: the union of per-shard results equals the single-device
//! result pair-for-pair, which the workspace's property tests assert for
//! random datasets, dimensions, ε values and shard counts.

pub mod cost;
pub mod engine;
pub mod partition;
pub mod schedule;

pub use cost::{
    calibrate, calibrate_from_sample, project_partition, project_scaled, CostModel, ShardCost,
};
pub use engine::{ShardRunReport, ShardedConfig, ShardedOutput, ShardedReport, ShardedSelfJoin};
pub use partition::{build_cuts, materialize, sample_pass, CutTree, Partition, SamplePass, Shard};
pub use schedule::{argmin_shard_count, lpt_schedule, modeled_makespan, stream_end, Assignment};
