//! Ghost-aware per-shard work projection for the scheduler and the
//! shard-count chooser.
//!
//! The model is [`grid_join::cost`]'s: one calibration over the partition
//! prelude's stride sample ([`calibrate_from_sample`]) yields a
//! [`CostModel`], and [`project_partition`] prices any candidate
//! partition *without touching a device*. For each shard it takes the
//! calibration samples the shard owns, builds the sampled
//! [`Census`] of a join over its owned **and ghost** points — grid build,
//! upload, hoisting and join kernels, result download — and prices it
//! with [`grid_join::cost::price`], the function a session's admission
//! projection uses too. Transfers are priced by their bytes alone (a
//! bandwidth-only [`TransferModel`]): the fixed per-transfer PCIe latency
//! is the same few transfers for every shard and carries no information
//! about its work. A projection's error is therefore the error of its
//! predicted counts — nothing in it reads a clock.
//!
//! The engine minimizes the LPT makespan of these projections over a
//! candidate set of shard counts ([`project_scaled`] prices candidates on
//! the calibration sample, so the chooser costs microseconds), and the
//! winning projection both schedules the shards and seeds each subplan's
//! result-size estimate — no per-shard estimation kernels run at all.

use crate::partition::{materialize_bytes, sample_pass, Partition, SamplePass};
use grid_join::cost::{bytes_per_point, price, Census, Density};
use grid_join::error::GridBuildError;
use grid_join::SelfJoinConfig;
use sim_gpu::{host_core_time, DeviceSpec, TransferModel};
use sj_datasets::Dataset;
use std::time::Duration;

pub use grid_join::cost::CostModel;

/// Safety factor applied to projected pair counts before they seed the
/// batching scheme's buffer sizing (mirrors its own 1.25 estimator
/// margin; underestimates only cost an overflow-retry, not correctness).
pub const PAIR_SAFETY: f64 = 1.3;

/// Calibrates a cost model for `data` at `epsilon`: [`calibrate_from_sample`]
/// over a one-lane [`sample_pass`]. The engine's prelude calls
/// [`calibrate_from_sample`] directly so the dataset is streamed once for
/// partitioning and calibration together.
pub fn calibrate(data: &Dataset, epsilon: f64) -> Result<CostModel, GridBuildError> {
    calibrate_from_sample(&sample_pass(data, 1)?, epsilon)
}

/// Calibrates from the partition prelude's [`SamplePass`] instead of
/// re-reading the dataset: [`grid_join::cost::calibrate`] over the pass's
/// bounds and its sample's rows. [`CostModel::build_time`] prices only
/// the calibration — the caller accounts the shared sample pass once.
pub fn calibrate_from_sample(sp: &SamplePass, epsilon: f64) -> Result<CostModel, GridBuildError> {
    let rows: Vec<f64> = (0..sp.ids.len())
        .flat_map(|slot| sp.cols.iter().map(move |col| col[slot]))
        .collect();
    grid_join::cost::calibrate(sp.len, &sp.dmin, &sp.dmax, &rows, epsilon)
}

/// Projected execution cost of one shard, ghost work included.
#[derive(Clone, Copy, Debug)]
pub struct ShardCost {
    /// Shard index within the partition.
    pub shard: usize,
    /// Owned points.
    pub owned: usize,
    /// Halo ghost points.
    pub ghosts: usize,
    /// Projected directed result pairs over the full local dataset
    /// (safety factor included) — seeds the batching buffer sizing.
    pub predicted_pairs: u64,
    /// Projected H2D bytes of the shard upload (owned + ghosts).
    pub upload_bytes: usize,
    /// The ghost share of [`Self::upload_bytes`] — the replication tax.
    pub ghost_upload_bytes: usize,
    /// Projected **host-stage** time: the shard's grid build
    /// ([`grid_join::GridIndex::build_bytes`] at the host-core rate), done
    /// on the host by the device's executor task. In a queue, a shard's
    /// host stage overlaps the *previous* shard's device stage.
    pub grid_time: Duration,
    /// Projected **device-stage** time: upload, hoisting and join kernels
    /// and result download, scheduled on the executor's stream timeline
    /// (transfers priced by bytes, without the fixed per-transfer
    /// latency).
    pub device_time: Duration,
    /// Total isolated time (`grid_time + device_time`) — the LPT
    /// scheduling weight.
    pub modeled: Duration,
}

impl ShardCost {
    /// Scalar scheduling cost: modeled nanoseconds (≥ 1 so empty shards
    /// still round-robin instead of all piling onto device 0).
    pub fn cost(&self) -> u64 {
        (self.modeled.as_nanos() as u64).max(1)
    }
}

/// Prices every shard of a *full* partition: per-shard densities come
/// from the calibration samples falling inside the shard's box (global
/// fallback when too few land there).
pub fn project_partition(
    model: &CostModel,
    part: &Partition,
    spec: &DeviceSpec,
    join: &SelfJoinConfig,
) -> Vec<ShardCost> {
    part.shards
        .iter()
        .map(|s| {
            let inside = model
                .sample_data
                .iter()
                .enumerate()
                .filter(|(_, p)| s.owns(p))
                .map(|(i, _)| i);
            let density = Density::of(model, inside);
            project_shard(model, s.id, s.owned, s.ghosts(), density, spec, join)
        })
        .collect()
}

/// Prices a partition of the calibration *sample* as a stand-in for the
/// full dataset: per-shard owned/ghost counts scale by `scale` (≈ n /
/// sample size), densities come from the sample points directly (their
/// `global_ids` index the model's sample arrays). This is what lets the
/// shard-count chooser evaluate many candidate `k` without partitioning
/// the full dataset once per candidate.
pub fn project_scaled(
    model: &CostModel,
    sample_part: &Partition,
    scale: f64,
    spec: &DeviceSpec,
    join: &SelfJoinConfig,
) -> Vec<ShardCost> {
    sample_part
        .shards
        .iter()
        .map(|s| {
            let owned_samples = s.global_ids[..s.owned].iter().map(|&i| i as usize);
            let density = Density::of(model, owned_samples);
            let owned = (s.owned as f64 * scale).round() as usize;
            let ghosts = (s.ghosts() as f64 * scale).round() as usize;
            project_shard(model, s.id, owned, ghosts, density, spec, join)
        })
        .collect()
}

/// Bytes [`project_scaled`] streams per sample point and candidate: each
/// owned sample's id and its three calibration counts. The chooser
/// charges this alongside each candidate's sample materialize.
pub(crate) fn projection_bytes(model: &CostModel) -> u64 {
    16 * model.sample_data.len() as u64
}

/// Models the cost of *making* a candidate partition, the term the
/// shard-count chooser folds into its objective so the argmin stops
/// pretending shards are free: the speculative cut-tree build plus the
/// bytes the materialize passes would stream on their slowest lanes (the
/// count [`crate::partition::materialize`] charges, with the ghosts spread
/// evenly over the lanes), priced at the host-core rate. `ghosts_scaled` is the
/// candidate's projected ghost-point total (from the scaled sample
/// projection).
pub fn modeled_partition_cost(
    sp: &SamplePass,
    cut_build: Duration,
    num_shards: usize,
    lanes: usize,
    ghosts_scaled: f64,
) -> Duration {
    let ghosts = ghosts_scaled.max(0.0).round() as usize;
    let bytes = materialize_bytes(sp.len, sp.dim, num_shards, lanes, ghosts);
    let cuts = if num_shards <= 1 {
        Duration::ZERO
    } else {
        cut_build
    };
    cuts + host_core_time(bytes)
}

/// Prices one shard: the sampled [`Census`] of a join over its `owned +
/// ghosts` points that stores the owned-keyed pairs (the ownership
/// window), split evenly over the executor's `min_batches` launches, with
/// no estimation kernel (the projection seeds the estimate).
fn project_shard(
    model: &CostModel,
    shard: usize,
    owned: usize,
    ghosts: usize,
    density: Density,
    spec: &DeviceSpec,
    join: &SelfJoinConfig,
) -> ShardCost {
    let dim = model.sample_data.dim();
    let local = owned + ghosts;
    let batches = join.batching.min_batches.clamp(1, local.max(1));
    let census = Census::sampled(model, &density, local, owned, join.unicomp, batches, 0);
    let bandwidth = TransferModel::new(spec.pcie_gib_per_s, 0.0);
    let priced = price(&census, spec, bandwidth, join.batching.streams);
    ShardCost {
        shard,
        owned,
        ghosts,
        predicted_pairs: (density.neighbors * local as f64 * PAIR_SAFETY).ceil() as u64,
        upload_bytes: local * bytes_per_point(dim),
        ghost_upload_bytes: ghosts * bytes_per_point(dim),
        grid_time: priced.host,
        device_time: priced.device,
        modeled: priced.total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{build_cuts, materialize, partition_par};
    use grid_join::GridIndex;
    use sj_datasets::synthetic::{clustered, uniform};

    fn join() -> SelfJoinConfig {
        SelfJoinConfig::default()
    }

    #[test]
    fn projection_close_to_truth_on_uniform_data() {
        let data = uniform(2, 4000, 22);
        let eps = 3.0;
        let spec = DeviceSpec::titan_x_pascal();
        let model = calibrate(&data, eps).unwrap();
        let part = partition_par(&data, eps, 2, 1).unwrap();
        let costs = project_partition(&model, &part, &spec, &join());
        for (c, s) in costs.iter().zip(&part.shards) {
            let grid = GridIndex::build(&s.data, eps).unwrap();
            let truth = grid_join::host_self_join(&s.data, &grid).total_pairs() as f64;
            assert!(
                c.predicted_pairs as f64 >= truth * 0.6,
                "under: {c:?} truth {truth}"
            );
            assert!(
                c.predicted_pairs as f64 <= truth * 3.0,
                "over: {c:?} truth {truth}"
            );
            assert_eq!(c.owned, s.owned);
            assert_eq!(c.ghosts, s.ghosts());
            assert!(c.modeled > Duration::ZERO);
        }
    }

    #[test]
    fn cost_tracks_density_not_count() {
        // Tight clusters: equal-count shards, wildly different pair
        // counts. The projected cost must see the difference without any
        // device kernel running.
        let data = clustered(2, 3000, 3, 1.0, 0.04, 21);
        let eps = 0.4;
        let spec = DeviceSpec::titan_x_pascal();
        let model = calibrate(&data, eps).unwrap();
        let part = partition_par(&data, eps, 3, 1).unwrap();
        let costs = project_partition(&model, &part, &spec, &join());
        assert_eq!(costs.len(), part.shards.len());
        // Density shows up in the device stage (the join scan); the host
        // grid build scales with point count and is balanced here by
        // construction.
        let dev = |c: &ShardCost| c.device_time.as_nanos().max(1);
        let max = costs.iter().map(dev).max().unwrap();
        let min = costs.iter().map(dev).min().unwrap();
        assert!(
            max as f64 / min as f64 > 1.2,
            "projection blind to density: {costs:?}"
        );
    }

    #[test]
    fn ghost_bytes_counted_separately() {
        let data = uniform(2, 3000, 23);
        let eps = 2.0;
        let spec = DeviceSpec::titan_x_pascal();
        let model = calibrate(&data, eps).unwrap();
        let part = partition_par(&data, eps, 4, 1).unwrap();
        let costs = project_partition(&model, &part, &spec, &join());
        assert!(part.ghost_points() > 0, "4 shards must replicate");
        for (c, s) in costs.iter().zip(&part.shards) {
            assert_eq!(c.ghost_upload_bytes, s.ghosts() * bytes_per_point(2));
            assert!(c.upload_bytes >= c.ghost_upload_bytes);
        }
    }

    #[test]
    fn scaled_projection_tracks_full_projection() {
        // Pricing one cut tree materialized over the calibration sample
        // at scale must land in the same ballpark as pricing the same
        // tree materialized over the real data — it drives the shard-
        // count chooser, so a gross disagreement would mis-size the run.
        let data = uniform(2, 8000, 24);
        let eps = 1.5;
        let spec = DeviceSpec::titan_x_pascal();
        let sp = sample_pass(&data, 1).unwrap();
        let model = calibrate_from_sample(&sp, eps).unwrap();
        let scale = data.len() as f64 / model.sample_data.len() as f64;
        let tree = build_cuts(&sp, eps, 4, 1).unwrap();
        let sample_part = materialize(&model.sample_data, &tree, 1).unwrap();
        assert_eq!(sample_part.shards.len(), 4);
        let scaled = project_scaled(&model, &sample_part, scale, &spec, &join());
        let full = project_partition(
            &model,
            &materialize(&data, &tree, 1).unwrap(),
            &spec,
            &join(),
        );
        let sum = |cs: &[ShardCost]| cs.iter().map(|c| c.modeled).sum::<Duration>();
        let (a, b) = (sum(&scaled).as_secs_f64(), sum(&full).as_secs_f64());
        assert!(
            a / b < 4.0 && b / a < 4.0,
            "scaled {a:.6}s vs full {b:.6}s disagree grossly"
        );
    }

    #[test]
    fn empty_dataset_calibrates_to_zero() {
        let model = calibrate(&Dataset::new(2), 1.0).unwrap();
        assert_eq!(model.len, 0);
        assert!(model.sample_neighbors.is_empty());
        assert_eq!(model.build_time, Duration::ZERO);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let data = uniform(2, 10, 25);
        assert!(matches!(
            calibrate(&data, -1.0),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
        let sp = sample_pass(&data, 1).unwrap();
        assert!(matches!(
            calibrate_from_sample(&sp, f64::NAN),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn fused_calibration_is_lane_invariant() {
        // The sample pass strides by global id, so every lane count hands
        // calibration the identical point set: every derived statistic —
        // and the priced calibration cost — must equal the one-lane
        // `calibrate`'s exactly.
        for (data, eps) in [
            (uniform(2, 5000, 27), 1.5),
            (clustered(3, 3000, 4, 2.0, 0.1, 26), 0.5),
        ] {
            let base = calibrate(&data, eps).unwrap();
            for lanes in [2, 4, 5, 16] {
                let m = calibrate_from_sample(&sample_pass(&data, lanes).unwrap(), eps).unwrap();
                assert_eq!(m.len, base.len, "lanes = {lanes}");
                assert_eq!(m.sample_neighbors, base.sample_neighbors);
                assert_eq!(m.sample_candidates, base.sample_candidates);
                assert_eq!(m.sample_shells, base.sample_shells);
                assert_eq!(m.sample_data.coords(), base.sample_data.coords());
                assert_eq!(m.build_time, base.build_time);
            }
        }
    }

    #[test]
    fn partition_cost_prices_what_materialize_charges() {
        // The chooser's partition-cost model and the executed materialize
        // share one byte count; with the real ghost count and one lane
        // they agree exactly, so the `shard_partition` audit measures
        // only ghost-count and lane-balance prediction error.
        let data = uniform(2, 6000, 28);
        let eps = 1.2;
        let sp = sample_pass(&data, 1).unwrap();
        for k in [1, 4, 8] {
            let tree = build_cuts(&sp, eps, k, 1).unwrap();
            let part = materialize(&data, &tree, 1).unwrap();
            let projected = modeled_partition_cost(
                &sp,
                tree.build_time,
                tree.num_leaves(),
                1,
                part.ghost_points() as f64,
            );
            let cuts = if tree.num_leaves() > 1 {
                tree.build_time
            } else {
                Duration::ZERO
            };
            assert_eq!(projected, cuts + part.build_time, "k = {k}");
        }
    }
}
