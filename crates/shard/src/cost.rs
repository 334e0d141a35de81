//! Ghost-aware per-shard work projection for the scheduler and the
//! shard-count chooser.
//!
//! One cheap host-side **calibration** over the partition prelude's
//! stride sample — a counting-grid binning plus an exact neighbor scan of
//! a smaller sub-sample — yields a [`CostModel`]: measured per-candidate
//! evaluation cost, per-point grid-build cost, and per-sample neighbor /
//! candidate densities. From the model, [`project_partition`] prices any
//! candidate partition *without touching a device*: each shard's modeled
//! time covers its upload (owned + ghost bytes through the PCIe model),
//! its grid build, and its join scan over owned **and ghost** points —
//! the ghost-band join cost slabs hid from the old count-based estimate.
//!
//! The engine minimizes the LPT makespan of these projections over a
//! candidate set of shard counts ([`project_scaled`] prices candidates on
//! the calibration sample, so the chooser costs microseconds), and the
//! winning projection both schedules the shards and seeds each subplan's
//! result-size estimate — no per-shard estimation kernels run at all.

use crate::partition::{sample_pass, Partition, SamplePass};
use grid_join::error::GridBuildError;
use sim_gpu::{DeviceSpec, TransferModel};
use sj_datasets::{euclidean_sq, Dataset};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Measured host cost of one candidate evaluation is multiplied by this
/// factor to approximate the executed kernel's per-candidate cost (the
/// batched cell-major kernel amortizes far better than the calibration
/// scan's pointer-chasing shell walk), before division by
/// `DeviceSpec::throughput_vs_host_core` yields modeled device time.
///
/// Re-pinned against the cost-model audit: the original value of `10.0`
/// assumed the per-access tracing overhead of the pre-batching kernels,
/// and the audit's `shard_chooser` histogram measured projections 20–80×
/// over the modeled kernel stream. The closed-loop fit (see
/// [`eval_correction`] and the audit's unclamped log-ratio track) puts
/// the batched kernel's effective per-candidate cost at a fraction of
/// one calibration-scan evaluation on this class of host.
pub const TRACED_EVAL_OVERHEAD: f64 = 0.25;

/// Per-observation gain of the [`EvalCorrection`] geometric EWMA: each
/// measured run moves the correction this fraction of the remaining
/// (log-space) gap. One observation halves the error; a handful converge.
const EVAL_CORRECTION_GAIN: f64 = 0.5;

/// The correction factor and each observed ratio are clamped to
/// [1/this, this] — a single pathological measurement (timer glitch,
/// de-scheduled lane) cannot poison the model.
const EVAL_CORRECTION_CLAMP: f64 = 32.0;

/// A closed-loop multiplier on one cost-model component: after every
/// run the engine feeds a (projected, measured) pair for the component
/// into this geometric EWMA, and subsequent calibrations scale that
/// component by the accumulated factor. Two instances exist — one on
/// the eval cost ([`eval_correction`], the multiplier on
/// [`TRACED_EVAL_OVERHEAD`], observed against the executed batches'
/// modeled upload+kernel busy time) and one on the host grid-build rate
/// ([`grid_correction`], the multiplier on [`GRID_BUILD_FACTOR`],
/// observed against the measured per-shard index-build walls). The
/// static constants pin the model to this host class; the corrections
/// track the residual drift the audit observes (dataset shape, cache
/// behavior, load) so projections stay within the audited error band
/// instead of re-diverging. Steering each component with its own
/// measurement matters: a makespan-level loop on the eval knob alone
/// cannot fix a drifting host stage, it just drives the eval factor to
/// its clamp while the aggregate error persists.
///
/// Process-global, like the audit registry it mirrors: corrections
/// learned by one engine benefit the next, and `cargo test`'s concurrent
/// observers all push toward the same host-true ratio.
/// The correction is tracked **per dimensionality** (dimensions above
/// [`EVAL_CORRECTION_DIMS`] share the last slot): the audit shows the
/// drift is strongly dimension-dependent — the 2-D workloads' candidate
/// scans over-project while 6-D under-projects, because the
/// calibration's raw candidate inflation and the kernels' short-circuit
/// distance culling both scale with dimension. A single scalar would
/// converge to the geometric mean of the two and satisfy neither.
pub struct EvalCorrection {
    /// `f64` bits of the current factor, one slot per dimensionality.
    bits: [AtomicU64; EVAL_CORRECTION_DIMS],
}

/// Dimensionalities tracked separately; higher dims share the last slot.
const EVAL_CORRECTION_DIMS: usize = 8;

/// Bits of `1.0f64` — the identity correction.
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// `const` item so the atomic can seed an array repeat expression.
#[allow(clippy::declare_interior_mutable_const)]
const IDENTITY: AtomicU64 = AtomicU64::new(ONE_BITS);

static EVAL_CORRECTION: EvalCorrection = EvalCorrection {
    bits: [IDENTITY; EVAL_CORRECTION_DIMS],
};

static GRID_CORRECTION: EvalCorrection = EvalCorrection {
    bits: [IDENTITY; EVAL_CORRECTION_DIMS],
};

/// The process-wide correction on the modeled device-stage eval cost.
pub fn eval_correction() -> &'static EvalCorrection {
    &EVAL_CORRECTION
}

/// The process-wide correction on the projected host grid-build rate.
pub fn grid_correction() -> &'static EvalCorrection {
    &GRID_CORRECTION
}

impl Default for EvalCorrection {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCorrection {
    /// A fresh identity correction (the global one is what calibration
    /// reads; locals exist for tests and offline fits).
    pub fn new() -> Self {
        EvalCorrection {
            bits: [IDENTITY; EVAL_CORRECTION_DIMS],
        }
    }

    fn slot(dim: usize) -> usize {
        dim.clamp(1, EVAL_CORRECTION_DIMS) - 1
    }

    /// Current multiplier applied to freshly calibrated `eval_cost`s for
    /// `dim`-dimensional data.
    pub fn factor(&self, dim: usize) -> f64 {
        f64::from_bits(self.bits[Self::slot(dim)].load(Ordering::Relaxed))
    }

    /// Folds one (projected, measured) pair into the correction:
    /// `factor ← factor · (measured/projected)^gain`, everything clamped.
    /// Non-positive or non-finite inputs are ignored.
    pub fn observe(&self, dim: usize, projected: Duration, measured: Duration) {
        let (p, m) = (projected.as_secs_f64(), measured.as_secs_f64());
        if !(p > 0.0 && m > 0.0 && p.is_finite() && m.is_finite()) {
            return;
        }
        let ratio = (m / p).clamp(1.0 / EVAL_CORRECTION_CLAMP, EVAL_CORRECTION_CLAMP);
        let step = ratio.powf(EVAL_CORRECTION_GAIN);
        let bits = &self.bits[Self::slot(dim)];
        let mut cur = bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) * step)
                .clamp(1.0 / EVAL_CORRECTION_CLAMP, EVAL_CORRECTION_CLAMP)
                .to_bits();
            match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Resets every dimension's correction to the identity (tests;
    /// fresh hosts).
    pub fn reset(&self) {
        for b in &self.bits {
            b.store(ONE_BITS, Ordering::Relaxed);
        }
    }
}

/// The per-shard `GridIndex::build` costs roughly this multiple of the
/// calibration pass's raw binning (sorting, masks, reordered snapshot).
pub const GRID_BUILD_FACTOR: f64 = 3.0;

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

/// Calibration of one (dataset, ε) pair: measured costs plus a stride
/// sample with exact per-point neighbor statistics. All projections for
/// every candidate shard count derive from this one pass.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// The search radius the model was calibrated for.
    pub epsilon: f64,
    /// Points in the calibrated dataset.
    pub len: usize,
    /// Mean exact ε-neighbors per sampled point.
    pub avg_neighbors: f64,
    /// Mean candidate evaluations (3^d shell population) per sampled
    /// point.
    pub avg_candidates: f64,
    /// Global ids of the stride sample, in sample order.
    pub sample_ids: Vec<u32>,
    /// Exact ε-neighbor count per sample.
    pub sample_neighbors: Vec<u32>,
    /// Candidate (shell) count per sample.
    pub sample_candidates: Vec<u32>,
    /// The sample's coordinates — a dataset small enough to materialize
    /// every candidate shard count's cut tree over in microseconds.
    pub sample_data: Dataset,
    /// Modeled device time per candidate evaluation.
    pub eval_cost: Duration,
    /// Modeled per-point cost of the shard's host grid build.
    pub grid_build_per_point: Duration,
    /// Non-empty counting-grid cells observed during binning.
    pub non_empty_cells: usize,
    /// Wall time of the calibration pass itself.
    pub build_time: Duration,
}

/// Calibrates a cost model for `data` at `epsilon` on a device described
/// by `spec`: [`calibrate_from_sample`] over a one-lane [`sample_pass`].
/// The engine's prelude calls [`calibrate_from_sample`] directly so the
/// dataset is streamed once for partitioning and calibration together.
pub fn calibrate(
    data: &Dataset,
    epsilon: f64,
    spec: &DeviceSpec,
) -> Result<CostModel, GridBuildError> {
    calibrate_from_sample(&sample_pass(data, 1)?, epsilon, spec)
}

/// Calibrates from the partition prelude's [`SamplePass`] instead of
/// re-reading the dataset: the binned sample is a stride of the sample
/// pass's slots (timed binning → grid-build cost), then an exact
/// 3^d-shell neighbor scan of a ≤512-point stride of the binned sample
/// (timed → per-candidate evaluation cost). Calibration costs O(sample)
/// after the one shared streaming read; [`CostModel::build_time`] covers
/// only the work done here — the caller accounts the shared sample pass
/// once.
pub fn calibrate_from_sample(
    sp: &SamplePass,
    epsilon: f64,
    spec: &DeviceSpec,
) -> Result<CostModel, GridBuildError> {
    let t0 = Instant::now();
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(GridBuildError::InvalidEpsilon(epsilon));
    }
    if sp.len == 0 {
        return Ok(empty_model(epsilon, sp.dim, t0));
    }
    let dim = sp.dim;
    let slot_stride = sp.ids.len().div_ceil(BIN_SAMPLE_CAP).max(1);
    let slots: Vec<usize> = (0..sp.ids.len()).step_by(slot_stride).collect();
    let gids: Vec<u32> = slots.iter().map(|&s| sp.ids[s]).collect();
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

    // Timed binning pass — the raw ingredient of the grid-build cost.
    // Large datasets bin a stride sample (see [`BIN_SAMPLE_CAP`]); the
    // sampled cell populations estimate true populations after inflation
    // by the sampling ratio. Bins hold sample *slots* (row indices).
    let binned = gids.len();
    let inflate = n as f64 / binned as f64;
    let tb = Instant::now();
    let mut bins: HashMap<u64, Vec<u32>> = HashMap::with_capacity(binned / 2 + 16);
    let mut cbuf = vec![0i64; dim];
    for (slot, row) in rows.chunks_exact(dim).enumerate() {
        cell_of(row, &mut cbuf);
        bins.entry(key_of(&cbuf)).or_default().push(slot as u32);
    }
    let bin_wall = tb.elapsed();
    let non_empty_cells = bins.len();
    let grid_build_per_point =
        bin_wall.mul_f64(GRID_BUILD_FACTOR * grid_correction().factor(dim) / binned as f64);

    // Timed exact-neighbor scan of a stride sample: for each sample, the
    // 3^d adjacent shell through the counting grid, exact distance tests
    // for the neighbor count, shell population for the candidate count.
    // Counts observed on the sampled grid are inflated back to full-
    // density estimates.
    let sample_count = binned.min(512);
    let stride = (binned / sample_count).max(1);
    let eps_sq = epsilon * epsilon;
    let shells = 3usize.pow(dim as u32);
    let mut sample_ids = Vec::with_capacity(sample_count);
    let mut sample_neighbors = Vec::with_capacity(sample_count);
    let mut sample_candidates = Vec::with_capacity(sample_count);
    let mut sample_data = Dataset::new(dim);
    let mut total_candidates = 0u64;
    let mut total_neighbors = 0u64;
    let te = Instant::now();
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
        raw_candidates += cand;
        let cand = (cand as f64 * inflate).round() as u64;
        let nb = (nb as f64 * inflate).round() as u64;
        total_candidates += cand;
        total_neighbors += nb;
        sample_ids.push(gids[slot]);
        sample_neighbors.push(nb.min(u32::MAX as u64) as u32);
        sample_candidates.push(cand.min(u32::MAX as u64) as u32);
        sample_data.push(p);
    }
    let eval_wall = te.elapsed();
    // Per-evaluation cost from the *raw* (scanned) candidate count — the
    // inflated counts estimate full-density work, not work done here.
    // The audit-fed closed-loop correction rides on top of the static
    // overhead constant (see [`eval_correction`]).
    let host_per_eval = eval_wall.div_f64(raw_candidates.max(1) as f64);
    let eval_cost = host_per_eval.mul_f64(
        TRACED_EVAL_OVERHEAD * eval_correction().factor(dim) / spec.throughput_vs_host_core,
    );

    Ok(CostModel {
        epsilon,
        len: n,
        avg_neighbors: total_neighbors as f64 / sample_count as f64,
        avg_candidates: total_candidates as f64 / sample_count as f64,
        sample_ids,
        sample_neighbors,
        sample_candidates,
        sample_data,
        eval_cost,
        grid_build_per_point,
        non_empty_cells,
        build_time: t0.elapsed(),
    })
}

fn empty_model(epsilon: f64, dim: usize, t0: Instant) -> CostModel {
    CostModel {
        epsilon,
        len: 0,
        avg_neighbors: 0.0,
        avg_candidates: 0.0,
        sample_ids: Vec::new(),
        sample_neighbors: Vec::new(),
        sample_candidates: Vec::new(),
        sample_data: Dataset::new(dim),
        eval_cost: Duration::ZERO,
        grid_build_per_point: Duration::ZERO,
        non_empty_cells: 0,
        build_time: t0.elapsed(),
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
    /// Projected candidate evaluations of the shard's join scan (owned
    /// and ghost queries both scan).
    pub scan_work: f64,
    /// Projected H2D bytes of the shard upload (owned + ghosts).
    pub upload_bytes: usize,
    /// The ghost share of [`Self::upload_bytes`] — the replication tax.
    pub ghost_upload_bytes: usize,
    /// Projected **host-stage** time: the shard's grid build, done on the
    /// host by the device's executor task. In a queue, a shard's host
    /// stage overlaps the *previous* shard's device stage.
    pub grid_time: Duration,
    /// Projected **device-stage** time: upload + join scan, modeled.
    pub device_time: Duration,
    /// Total isolated time (`grid_time + device_time`) — the LPT
    /// scheduling weight.
    pub modeled: Duration,
}

impl ShardCost {
    /// Points in the shard-local dataset (owned + ghosts).
    pub fn points(&self) -> usize {
        self.owned + self.ghosts
    }

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
    unicomp: bool,
) -> Vec<ShardCost> {
    let transfer = spec.transfer_model();
    part.shards
        .iter()
        .map(|s| {
            let mut cnt = 0usize;
            let mut nb = 0.0;
            let mut cand = 0.0;
            for (i, p) in model.sample_data.iter().enumerate() {
                if s.owns(p) {
                    cnt += 1;
                    nb += model.sample_neighbors[i] as f64;
                    cand += model.sample_candidates[i] as f64;
                }
            }
            let (mu_n, mu_c) = if cnt >= MIN_SAMPLES_PER_SHARD {
                (nb / cnt as f64, cand / cnt as f64)
            } else {
                (model.avg_neighbors, model.avg_candidates)
            };
            project_shard(
                model,
                s.id,
                s.owned,
                s.ghosts(),
                mu_n,
                mu_c,
                unicomp,
                &transfer,
            )
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
    unicomp: bool,
) -> Vec<ShardCost> {
    let transfer = spec.transfer_model();
    sample_part
        .shards
        .iter()
        .map(|s| {
            let mut nb = 0.0;
            let mut cand = 0.0;
            for &i in &s.global_ids[..s.owned] {
                nb += model.sample_neighbors[i as usize] as f64;
                cand += model.sample_candidates[i as usize] as f64;
            }
            let (mu_n, mu_c) = if s.owned >= MIN_SAMPLES_PER_SHARD {
                (nb / s.owned as f64, cand / s.owned as f64)
            } else {
                (model.avg_neighbors, model.avg_candidates)
            };
            let owned = (s.owned as f64 * scale).round() as usize;
            let ghosts = (s.ghosts() as f64 * scale).round() as usize;
            project_shard(model, s.id, owned, ghosts, mu_n, mu_c, unicomp, &transfer)
        })
        .collect()
}

/// Per-point cost of the materialize passes relative to the sample
/// pass's streaming read: the classify pass walks the cut tree and
/// band-tests every point, the gather re-streams and scatters rows —
/// both heavier than a min/max scan. Pinned against measured
/// materialize walls; the `shard_partition` audit tracks residual drift.
pub const MATERIALIZE_PASS_FACTOR: f64 = 2.0;

/// A single-shard "partition" is a whole-dataset clone: one sequential
/// memcpy, cheaper per point than the streaming scan.
pub const WHOLE_COPY_FACTOR: f64 = 0.5;

/// Models the cost of *making* a candidate partition, the term the
/// shard-count chooser folds into its objective so the argmin stops
/// pretending shards are free: the measured speculative cut-tree build
/// plus the two chunked materialize passes (and the projected ghost
/// tail) priced at the sample pass's measured per-point streaming rate,
/// per lane. `ghosts_scaled` is the candidate's projected ghost-point
/// total (from the scaled sample projection).
pub fn modeled_partition_cost(
    sp: &SamplePass,
    cut_build: Duration,
    num_shards: usize,
    lanes: usize,
    ghosts_scaled: f64,
) -> Duration {
    if num_shards <= 1 {
        return sp.per_point.mul_f64(sp.len as f64 * WHOLE_COPY_FACTOR);
    }
    let lanes = lanes.max(1) as f64;
    let per_lane = (sp.len as f64 / lanes).ceil();
    let pass_points = 2.0 * per_lane + ghosts_scaled.max(0.0) / lanes;
    cut_build + sp.per_point.mul_f64(pass_points * MATERIALIZE_PASS_FACTOR)
}

#[allow(clippy::too_many_arguments)]
fn project_shard(
    model: &CostModel,
    shard: usize,
    owned: usize,
    ghosts: usize,
    mu_neighbors: f64,
    mu_candidates: f64,
    unicomp: bool,
    transfer: &TransferModel,
) -> ShardCost {
    let dim = model.sample_data.dim();
    let local = owned + ghosts;
    let predicted_pairs = (mu_neighbors * local as f64 * PAIR_SAFETY).ceil() as u64;
    let work_factor = if unicomp { UNICOMP_WORK_FACTOR } else { 1.0 };
    let scan_work = local as f64 * mu_candidates * work_factor;
    let upload_bytes = local * bytes_per_point(dim);
    let ghost_upload_bytes = ghosts * bytes_per_point(dim);
    let grid_time = model.grid_build_per_point.mul_f64(local as f64);
    let device_time = transfer.time(upload_bytes) + model.eval_cost.mul_f64(scan_work);
    ShardCost {
        shard,
        owned,
        ghosts,
        predicted_pairs,
        scan_work,
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
    use grid_join::GridIndex;
    use sj_datasets::synthetic::{clustered, uniform};

    #[test]
    fn projection_close_to_truth_on_uniform_data() {
        let data = uniform(2, 4000, 22);
        let eps = 3.0;
        let spec = DeviceSpec::titan_x_pascal();
        let model = calibrate(&data, eps, &spec).unwrap();
        let part = partition_par(&data, eps, 2, 1).unwrap();
        let costs = project_partition(&model, &part, &spec, true);
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
        let model = calibrate(&data, eps, &spec).unwrap();
        let part = partition_par(&data, eps, 3, 1).unwrap();
        let costs = project_partition(&model, &part, &spec, true);
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
        let model = calibrate(&data, eps, &spec).unwrap();
        let part = partition_par(&data, eps, 4, 1).unwrap();
        let costs = project_partition(&model, &part, &spec, true);
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
        let model = calibrate_from_sample(&sp, eps, &spec).unwrap();
        let scale = data.len() as f64 / model.sample_data.len() as f64;
        let tree = build_cuts(&sp, eps, 4, 1).unwrap();
        let sample_part = materialize(&model.sample_data, &tree, 1).unwrap();
        assert_eq!(sample_part.shards.len(), 4);
        let scaled = project_scaled(&model, &sample_part, scale, &spec, true);
        let full = project_partition(&model, &materialize(&data, &tree, 1).unwrap(), &spec, true);
        let sum = |cs: &[ShardCost]| cs.iter().map(|c| c.modeled).sum::<Duration>();
        let (a, b) = (sum(&scaled).as_secs_f64(), sum(&full).as_secs_f64());
        assert!(
            a / b < 4.0 && b / a < 4.0,
            "scaled {a:.6}s vs full {b:.6}s disagree grossly"
        );
    }

    #[test]
    fn empty_dataset_calibrates_to_zero() {
        let spec = DeviceSpec::titan_x_pascal();
        let model = calibrate(&Dataset::new(2), 1.0, &spec).unwrap();
        assert_eq!(model.len, 0);
        assert_eq!(model.avg_neighbors, 0.0);
        assert_eq!(model.eval_cost, Duration::ZERO);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let spec = DeviceSpec::titan_x_pascal();
        let data = uniform(2, 10, 25);
        assert!(matches!(
            calibrate(&data, -1.0, &spec),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
        let sp = sample_pass(&data, 1).unwrap();
        assert!(matches!(
            calibrate_from_sample(&sp, f64::NAN, &spec),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn fused_calibration_is_lane_invariant() {
        // The sample pass strides by global id, so every lane count hands
        // calibration the identical point set: every derived statistic
        // must equal the one-lane `calibrate`'s exactly; only the timed
        // costs may differ.
        let spec = DeviceSpec::titan_x_pascal();
        for (data, eps) in [
            (uniform(2, 5000, 27), 1.5),
            (clustered(3, 3000, 4, 2.0, 0.1, 26), 0.5),
        ] {
            let base = calibrate(&data, eps, &spec).unwrap();
            for lanes in [2, 4, 5, 16] {
                let m =
                    calibrate_from_sample(&sample_pass(&data, lanes).unwrap(), eps, &spec).unwrap();
                assert_eq!(m.len, base.len, "lanes = {lanes}");
                assert_eq!(m.sample_ids, base.sample_ids, "lanes = {lanes}");
                assert_eq!(m.sample_neighbors, base.sample_neighbors);
                assert_eq!(m.sample_candidates, base.sample_candidates);
                assert_eq!(m.avg_neighbors, base.avg_neighbors);
                assert_eq!(m.avg_candidates, base.avg_candidates);
                assert_eq!(m.non_empty_cells, base.non_empty_cells);
                assert_eq!(m.sample_data.coords(), base.sample_data.coords());
            }
        }
    }

    #[test]
    fn correction_converges_geometrically() {
        // A local instance (the global one is shared with concurrently
        // running engine tests). The correction lives in a feedback
        // loop: each projection already embeds the current factor, so
        // emulate that — a raw 4× under-projection must walk the factor
        // to ≈4 (the loop's fixed point), and reset restores 1.
        let c = EvalCorrection::new();
        assert_eq!(c.factor(2), 1.0);
        let raw = Duration::from_millis(25);
        let measured = Duration::from_millis(100);
        for _ in 0..12 {
            c.observe(2, raw.mul_f64(c.factor(2)), measured);
        }
        assert!((c.factor(2) - 4.0).abs() < 0.1, "factor {}", c.factor(2));
        // Slots are independent: 6-D never observed anything.
        assert_eq!(c.factor(6), 1.0);
        let settled = c.factor(2);
        c.observe(2, Duration::ZERO, Duration::from_millis(1)); // ignored
        assert_eq!(c.factor(2), settled);
        c.reset();
        assert_eq!(c.factor(2), 1.0);
    }

    #[test]
    fn correction_is_clamped() {
        let c = EvalCorrection::new();
        for _ in 0..64 {
            c.observe(3, Duration::from_nanos(1), Duration::from_secs(10));
        }
        assert_eq!(c.factor(3), EVAL_CORRECTION_CLAMP);
        for _ in 0..128 {
            c.observe(3, Duration::from_secs(10), Duration::from_nanos(1));
        }
        assert_eq!(c.factor(3), 1.0 / EVAL_CORRECTION_CLAMP);
        // Out-of-range dims share the clamped end slots rather than
        // panicking.
        assert_eq!(c.factor(0), 1.0);
        assert_eq!(c.factor(64), 1.0);
        c.observe(64, Duration::from_nanos(1), Duration::from_secs(10));
        assert!(c.factor(64) > 1.0);
        assert_eq!(c.factor(64), c.factor(EVAL_CORRECTION_DIMS));
    }
}
