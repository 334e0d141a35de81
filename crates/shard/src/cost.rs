//! Ghost-aware per-shard work projection for the scheduler and the
//! shard-count chooser.
//!
//! One cheap host-side **calibration** over the partition prelude's
//! stride sample — a counting-grid binning plus an exact neighbor scan of
//! a smaller sub-sample — yields a [`CostModel`]: per-sample neighbor,
//! candidate and adjacent-cell counts. From the model, [`project_partition`]
//! prices any candidate partition *without touching a device*: it predicts
//! each shard's work **counts** — the bytes of its grid build, of its
//! upload, of its hoisting and join kernels and of its result download —
//! over owned **and ghost** points, and prices them with the same two
//! functions that price executed work: [`sim_gpu::host_core_time`] for the
//! host grid build and [`DeviceSpec::kernel_time`] for the kernels, with
//! the transfers scheduled on the same three-stream [`StreamTimeline`] the
//! batching executor uses (priced by bytes, without the fixed
//! per-transfer latency). A projection's error is therefore the error of
//! its predicted counts — nothing in it reads a clock.
//!
//! The engine minimizes the LPT makespan of these projections over a
//! candidate set of shard counts ([`project_scaled`] prices candidates on
//! the calibration sample, so the chooser costs microseconds), and the
//! winning projection both schedules the shards and seeds each subplan's
//! result-size estimate — no per-shard estimation kernels run at all.

use crate::partition::{materialize_bytes, sample_pass, Partition, SamplePass};
use grid_join::error::GridBuildError;
use grid_join::{GridIndex, SelfJoinConfig};
use sim_gpu::{host_core_time, BatchCost, DeviceSpec, StreamTimeline, TransferModel};
use sj_datasets::{euclidean_sq, Dataset};
use std::collections::HashMap;
use std::time::Duration;

/// Safety factor applied to projected pair counts before they seed the
/// batching scheme's buffer sizing (mirrors its own 1.25 estimator
/// margin; underestimates only cost an overflow-retry, not correctness).
pub const PAIR_SAFETY: f64 = 1.3;

/// UNICOMP scans roughly this fraction of the full 3^d candidate set
/// (half the neighbor cells plus the id-ordered half of the home cell).
pub const UNICOMP_WORK_FACTOR: f64 = 0.55;

/// Below this many calibration samples inside a shard's box, the
/// projection falls back to the global densities.
const MIN_SAMPLES_PER_SHARD: usize = 8;

/// Cap on the points the calibration pass bins into its counting grid.
/// Beyond this, a stride sample is binned instead and per-cell counts are
/// inflated by the sampling ratio — calibration cost stays bounded while
/// the join work it prices keeps growing with n, so the serial prelude
/// never swamps the parallel speedup it exists to enable.
const BIN_SAMPLE_CAP: usize = 4_096;

/// Approximate H2D bytes per uploaded point: coordinates (8·dim), the
/// reordered snapshot (8·dim), the `A` remap (4) and the amortized
/// `B`/`G`/mask share (~24).
pub fn bytes_per_point(dim: usize) -> usize {
    16 * dim + 28
}

/// Calibration of one (dataset, ε) pair: per-point neighbor statistics of
/// a stride sample. All projections for every candidate shard count
/// derive from this one pass.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// The search radius the model was calibrated for.
    pub epsilon: f64,
    /// Points in the calibrated dataset.
    pub len: usize,
    /// Exact ε-neighbor count per sample.
    pub sample_neighbors: Vec<u32>,
    /// Candidate (3^d shell population) count per sample.
    pub sample_candidates: Vec<u32>,
    /// Adjacent-cell coordinates per sample that lie inside the dataset's
    /// bounding box (the 3^d shell after the grid's mask clip at the
    /// data's edges).
    pub sample_shells: Vec<u32>,
    /// The sample's coordinates — a dataset small enough to materialize
    /// every candidate shard count's cut tree over in microseconds.
    pub sample_data: Dataset,
    /// Modeled time of the calibration pass itself: the bytes its binning
    /// and neighbor scan stream, priced at the host-core rate.
    pub build_time: Duration,
}

/// Calibrates a cost model for `data` at `epsilon`: [`calibrate_from_sample`]
/// over a one-lane [`sample_pass`]. The engine's prelude calls
/// [`calibrate_from_sample`] directly so the dataset is streamed once for
/// partitioning and calibration together.
pub fn calibrate(data: &Dataset, epsilon: f64) -> Result<CostModel, GridBuildError> {
    calibrate_from_sample(&sample_pass(data, 1)?, epsilon)
}

/// Calibrates from the partition prelude's [`SamplePass`] instead of
/// re-reading the dataset: the binned sample is a stride of the sample
/// pass's slots, then an exact 3^d-shell neighbor scan of a ≤512-point
/// stride of the binned sample counts each sample's neighbors, candidates
/// and in-bounds shell cells. Calibration costs O(sample) after the one
/// shared streaming read; [`CostModel::build_time`] prices only the work
/// done here — the caller accounts the shared sample pass once.
pub fn calibrate_from_sample(sp: &SamplePass, epsilon: f64) -> Result<CostModel, GridBuildError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(GridBuildError::InvalidEpsilon(epsilon));
    }
    if sp.len == 0 {
        return Ok(empty_model(epsilon, sp.dim));
    }
    let dim = sp.dim;
    let row = 8 * dim as u64;
    let slot_stride = sp.ids.len().div_ceil(BIN_SAMPLE_CAP).max(1);
    let slots: Vec<usize> = (0..sp.ids.len()).step_by(slot_stride).collect();
    let mut rows = Vec::with_capacity(slots.len() * dim);
    for &s in &slots {
        for col in &sp.cols {
            rows.push(col[s]);
        }
    }
    let n = sp.len;
    // Counting-grid anchor from the *binned sample's* minima, not a full
    // O(n) min pass: the origin only anchors integer cell coordinates,
    // and points below a sampled min simply land in negative cells —
    // equally hashable. Keeps calibration strictly o(n).
    let mut mins = vec![f64::INFINITY; dim];
    for row in rows.chunks_exact(dim) {
        for (j, &x) in row.iter().enumerate() {
            mins[j] = mins[j].min(x);
        }
    }
    let cell_of = |p: &[f64], out: &mut [i64]| {
        for j in 0..dim {
            out[j] = ((p[j] - mins[j]) / epsilon).floor() as i64;
        }
    };
    // The dataset's cell extent per dimension (the sample pass saw the
    // full bounds): adjacent coordinates outside it are clipped by the
    // grid's masks, so the hoisting pass never searches them.
    let mut extent_lo = vec![0i64; dim];
    let mut extent_hi = vec![0i64; dim];
    cell_of(&sp.dmin, &mut extent_lo);
    cell_of(&sp.dmax, &mut extent_hi);
    // FNV-style combination of the integer cell coordinates. A hash
    // collision merges two cells' candidate lists — harmless for the
    // neighbor counts (exact distance check) and a rounding error on the
    // candidate counts.
    let key_of = |c: &[i64]| -> u64 {
        let mut k: u64 = 0xcbf2_9ce4_8422_2325;
        for &x in c {
            k = (k ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        k
    };

    // Binning pass. Large datasets bin a stride sample (see
    // [`BIN_SAMPLE_CAP`]); the sampled cell populations estimate true
    // populations after inflation by the sampling ratio. Bins hold sample
    // *slots* (row indices).
    let binned = slots.len();
    let inflate = n as f64 / binned as f64;
    let mut bins: HashMap<u64, Vec<u32>> = HashMap::with_capacity(binned / 2 + 16);
    let mut cbuf = vec![0i64; dim];
    for (slot, row) in rows.chunks_exact(dim).enumerate() {
        cell_of(row, &mut cbuf);
        bins.entry(key_of(&cbuf)).or_default().push(slot as u32);
    }
    // Gathering the rows (id + coordinates in, coordinates out), the
    // minima pass, and the binning pass (coordinates in, a slot and a
    // hashed key out).
    let mut bytes =
        binned as u64 * (4 + 2 * row) + binned as u64 * row + binned as u64 * (row + 12);

    // Exact-neighbor scan of a stride sample: for each sample, the 3^d
    // adjacent shell through the counting grid, exact distance tests for
    // the neighbor count, shell population for the candidate count.
    // Counts observed on the sampled grid are inflated back to full-
    // density estimates.
    let sample_count = binned.min(512);
    let stride = (binned / sample_count).max(1);
    let eps_sq = epsilon * epsilon;
    let shells = 3usize.pow(dim as u32);
    let mut sample_neighbors = Vec::with_capacity(sample_count);
    let mut sample_candidates = Vec::with_capacity(sample_count);
    let mut sample_shells = Vec::with_capacity(sample_count);
    let mut sample_data = Dataset::new(dim);
    let mut nbuf = vec![0i64; dim];
    let mut raw_candidates = 0u64;
    for s in 0..sample_count {
        let slot = s * stride;
        let p = &rows[slot * dim..(slot + 1) * dim];
        cell_of(p, &mut cbuf);
        let mut cand = 0u64;
        let mut nb = 0u32;
        for m in 0..shells {
            let mut rem = m;
            for j in 0..dim {
                nbuf[j] = cbuf[j] + (rem % 3) as i64 - 1;
                rem /= 3;
            }
            if let Some(list) = bins.get(&key_of(&nbuf)) {
                cand += list.len() as u64;
                for &o in list {
                    let o = o as usize;
                    if o != slot && euclidean_sq(p, &rows[o * dim..(o + 1) * dim]) <= eps_sq {
                        nb += 1;
                    }
                }
            }
        }
        let shell: u64 = (0..dim)
            .map(|j| {
                (cbuf[j] - 1..=cbuf[j] + 1)
                    .filter(|c| (extent_lo[j]..=extent_hi[j]).contains(c))
                    .count() as u64
            })
            .product();
        raw_candidates += cand;
        let cand = (cand as f64 * inflate).round() as u64;
        let nb = (nb as f64 * inflate).round() as u64;
        sample_neighbors.push(nb.min(u32::MAX as u64) as u32);
        sample_candidates.push(cand.min(u32::MAX as u64) as u32);
        sample_shells.push(shell as u32);
        sample_data.push(p);
    }
    // The scan: each sample's row, one hashed probe per shell cell, and a
    // slot plus a row per scanned candidate.
    bytes += sample_count as u64 * (row + 16 * shells as u64) + raw_candidates * (4 + row);

    Ok(CostModel {
        epsilon,
        len: n,
        sample_neighbors,
        sample_candidates,
        sample_shells,
        sample_data,
        build_time: host_core_time(bytes),
    })
}

fn empty_model(epsilon: f64, dim: usize) -> CostModel {
    CostModel {
        epsilon,
        len: 0,
        sample_neighbors: Vec::new(),
        sample_candidates: Vec::new(),
        sample_shells: Vec::new(),
        sample_data: Dataset::new(dim),
        build_time: Duration::ZERO,
    }
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
    /// ([`GridIndex::build_bytes`] at the host-core rate), done on the
    /// host by the device's executor task. In a queue, a shard's host
    /// stage overlaps the *previous* shard's device stage.
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

/// Per-point calibration statistics averaged over the samples a shard
/// owns: neighbors, candidates and in-bounds shell cells.
#[derive(Clone, Copy, Debug)]
struct Density {
    neighbors: f64,
    candidates: f64,
    shell: f64,
}

impl Density {
    /// Means over the given samples, or over every sample when fewer than
    /// [`MIN_SAMPLES_PER_SHARD`] land in the shard.
    fn of(model: &CostModel, samples: impl Iterator<Item = usize>) -> Self {
        match Self::mean(model, samples) {
            (cnt, density) if cnt >= MIN_SAMPLES_PER_SHARD => density,
            _ => Self::mean(model, 0..model.sample_neighbors.len()).1,
        }
    }

    fn mean(model: &CostModel, samples: impl Iterator<Item = usize>) -> (usize, Self) {
        let (mut cnt, mut nb, mut cand, mut shell) = (0usize, 0.0, 0.0, 0.0);
        for i in samples {
            cnt += 1;
            nb += model.sample_neighbors[i] as f64;
            cand += model.sample_candidates[i] as f64;
            shell += model.sample_shells[i] as f64;
        }
        let c = cnt.max(1) as f64;
        let density = Self {
            neighbors: nb / c,
            candidates: cand / c,
            shell: shell / c,
        };
        (cnt, density)
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

/// Mean `B` reads per run of the hoist's ascending walk over a grid of
/// `cells` non-empty cells whose data spans `span` cells per dimension,
/// for the full box of `3^(dim−1)` runs: the first run binary-searches
/// `B`; every later one gallops — about `1 + 2·log2(1 + gap)` probes for
/// an answer `gap` positions past the previous run's end — and ends with
/// one read past the run. A step of the run odometer in dimension `k`
/// skips `cpd^k · (cpd − 3) / (cpd − 1)` ids, of which `cells / cpd^dim`
/// are non-empty, where `cpd = span + 2` counts the grid's ε margin.
fn walk_reads_per_run(dim: usize, cells: f64, span: f64) -> f64 {
    let cpd = span.max(1.0) + 2.0;
    let density = cells / cpd.powi(dim as i32);
    let runs = 3f64.powi(dim as i32 - 1);
    let mut probes = cells.max(2.0).log2();
    for k in 1..dim {
        let steps = 2.0 * 3f64.powi((dim - 1 - k) as i32);
        let gap = density * cpd.powi(k as i32) * (cpd - 3.0) / (cpd - 1.0);
        probes += steps * (1.0 + 2.0 * (1.0 + gap).log2());
    }
    probes / runs + 1.0
}

/// Predicted work counts of one shard, priced like executed work.
///
/// The counts follow the cell-major kernels' traced accesses (the default
/// hot path; the per-thread ablation is priced the same way): a grid of
/// `cells ≈ points / occupancy` non-empty cells, where the occupancy of a
/// non-empty cell is the Poisson mean `λ / (1 − e^{−λ})` of the sampled
/// shell population `λ = candidates / shell`. The hoisting pass walks `B`
/// once per cell in each of its two kernels (count, then fill): one run of
/// dimension-0 neighbors per combination of the other dimensions' shell
/// coordinates, [`walk_reads_per_run`] reads per run and one more per
/// listed cell; the count kernel appends one record per cell, the fill
/// kernel one 4-byte entry per listed cell plus one reservation and one
/// start record per cell. The join kernel reads each query's slot,
/// coordinates and neighbor-cell list, one coordinate row per scanned
/// candidate, and an id plus stored pairs per hit.
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
    let row = 8.0 * dim as f64;
    let local = owned + ghosts;
    let n = local as f64;
    let predicted_pairs = (density.neighbors * n * PAIR_SAFETY).ceil() as u64;
    let unicomp = join.unicomp;
    let work_factor = if unicomp { UNICOMP_WORK_FACTOR } else { 1.0 };
    let scan_work = n * density.candidates * work_factor;
    let upload_bytes = local * bytes_per_point(dim);
    let ghost_upload_bytes = ghosts * bytes_per_point(dim);
    let grid_time = host_core_time(GridIndex::build_bytes(local, dim));

    // Grid shape: non-empty cells and how many of each cell's in-bounds
    // shell coordinates hold points.
    let shell = density.shell.max(1.0);
    let lambda = (density.candidates / shell).max(1e-9);
    let filled = 1.0 - (-lambda).exp();
    let cells = (n * filled / lambda).clamp(n.min(1.0), n);
    // UNICOMP visits the parity half of the shell (home cell excluded),
    // in about (full runs + 1) / 2 runs.
    let visited = if unicomp { (shell - 1.0) / 2.0 } else { shell };
    let listed = visited * filled;
    let full_runs = shell.powf((dim as f64 - 1.0) / dim as f64);
    let runs = if unicomp {
        (full_runs + 1.0) / 2.0
    } else {
        full_runs
    };
    let span = (n / lambda).max(1.0).powf(1.0 / dim as f64);
    let walk = 8.0 * (runs * walk_reads_per_run(dim, cells, span) + listed);
    let hoist_bytes = cells * (2.0 * (8.0 + dim as f64 * 40.0 + walk) + 48.0 + 4.0 * listed);
    // Stored pairs are owned-keyed only (the ownership window).
    let stored = density.neighbors * owned as f64;
    let hits = if unicomp {
        density.neighbors * n / 2.0
    } else {
        stored
    };
    let join_bytes =
        n * (row + 24.0 + 12.0 * listed + 8.0) + scan_work * row + hits * 4.0 + stored * 8.5;

    // The device stage on the executor's stream timeline: the snapshot
    // upload, the hoisting pass (CSR upload, count/fill records back) and
    // the join batches with their result downloads. Transfers are priced
    // by their bytes alone: the fixed per-transfer PCIe latency (a few
    // transfers per shard, the same for every shard) carries no
    // information about the shard's work and is left out.
    let batches = join.batching.min_batches.clamp(1, local.max(1));
    // Count records and fill start records (8 bytes per cell each), and
    // the 4-byte neighbor entries.
    let cell_records = cells * (16.0 + 4.0 * listed);
    let mut stages = vec![
        BatchCost {
            h2d_bytes: upload_bytes,
            kernel: Duration::ZERO,
            d2h_bytes: 0,
        },
        BatchCost {
            h2d_bytes: (4.0 * (n + cells + cells * listed)) as usize,
            kernel: spec.kernel_time(hoist_bytes as u64),
            d2h_bytes: cell_records as usize,
        },
    ];
    let per_batch = BatchCost {
        h2d_bytes: 0,
        kernel: spec.kernel_time((join_bytes / batches as f64) as u64),
        d2h_bytes: (stored * 8.0 / batches as f64) as usize,
    };
    stages.extend(std::iter::repeat_n(per_batch, batches));
    let bandwidth = TransferModel::new(spec.pcie_gib_per_s, 0.0);
    let device_time = StreamTimeline::new(bandwidth, join.batching.streams.max(1))
        .schedule(&stages)
        .total;
    ShardCost {
        shard,
        owned,
        ghosts,
        predicted_pairs,
        upload_bytes,
        ghost_upload_bytes,
        grid_time,
        device_time,
        modeled: grid_time + device_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{build_cuts, materialize, partition_par};
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
