//! Cost projection from counted work: one model for every join path.
//!
//! Every modeled figure is priced from counted bytes, so a projection
//! predicts the counts a join will touch — a [`Census`], sampled from a
//! [`CostModel`] calibrated on a stride sample ([`calibrate`]) — and
//! [`price`] turns them into modeled time with the executor's own
//! functions ([`DeviceSpec::kernel_time`], [`sim_gpu::host_core_time`],
//! the [`StreamTimeline`]). A projection's error is the error of its
//! counts. The shard chooser prices each candidate shard this way, and a
//! session every query that does not repeat an ε it has served.

use crate::cell_major::PAIR_STAGE;
use crate::error::GridBuildError;
use crate::grid::GridIndex;
use sim_gpu::{host_core_time, BatchCost, DeviceSpec, StreamTimeline, TransferModel};
use sj_datasets::{euclidean_sq, Dataset};
use std::collections::HashMap;
use std::time::Duration;

/// UNICOMP scans roughly this fraction of the full 3^d candidate set
/// (half the neighbor cells plus the id-ordered half of the home cell).
const UNICOMP_WORK_FACTOR: f64 = 0.55;

/// Below this many calibration samples in a region, [`Density::of`] falls
/// back to the global densities.
const MIN_SAMPLES: usize = 8;

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
/// a stride sample. Every sampled census of the dataset at ε derives from
/// this one pass.
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

/// Calibrates a cost model at `epsilon` for a dataset of `len` points
/// bounded by `dmin`/`dmax` (one entry per dimension), from a row-major
/// stride `sample` of it (the dataset itself is the stride-1 sample). The
/// binned sample is a stride of `sample`'s rows, at most
/// `BIN_SAMPLE_CAP`; an exact 3^d-shell neighbor scan of a ≤512-point
/// stride of the binned sample counts each sample's neighbors,
/// candidates and in-bounds shell cells. Calibration costs O(sample);
/// [`CostModel::build_time`] prices the work done here, not the caller's
/// pass that produced the sample.
pub fn calibrate(
    len: usize,
    dmin: &[f64],
    dmax: &[f64],
    sample: &[f64],
    epsilon: f64,
) -> Result<CostModel, GridBuildError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(GridBuildError::InvalidEpsilon(epsilon));
    }
    let dim = dmin.len();
    if len == 0 {
        return Ok(empty_model(epsilon, dim));
    }
    let row = 8 * dim as u64;
    let sampled = sample.len() / dim.max(1);
    let slot_stride = sampled.div_ceil(BIN_SAMPLE_CAP).max(1);
    let mut rows = Vec::with_capacity(sampled.div_ceil(slot_stride) * dim);
    for s in (0..sampled).step_by(slot_stride) {
        rows.extend_from_slice(&sample[s * dim..(s + 1) * dim]);
    }
    let n = len;
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
    // The dataset's cell extent per dimension (the bounds cover the full
    // dataset): adjacent coordinates outside it are clipped by the grid's
    // masks, so the hoisting pass never searches them.
    let mut extent_lo = vec![0i64; dim];
    let mut extent_hi = vec![0i64; dim];
    cell_of(dmin, &mut extent_lo);
    cell_of(dmax, &mut extent_hi);
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
    let binned = rows.len() / dim.max(1);
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
    // density estimates: each binned point other than the sample stands
    // for `inflate` points, the sample itself for one.
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
        let cand = (1.0 + cand.saturating_sub(1) as f64 * inflate).round() as u64;
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

/// Per-point calibration statistics averaged over a set of samples:
/// neighbors, candidates and in-bounds shell cells.
#[derive(Clone, Copy, Debug)]
pub struct Density {
    /// Mean ε-neighbors per point.
    pub neighbors: f64,
    /// Mean candidates (3^d shell population) per point.
    pub candidates: f64,
    /// Mean in-bounds shell cells per point.
    pub shell: f64,
}

impl Density {
    /// Means over the given samples, or over every sample when fewer than
    /// `MIN_SAMPLES` are given.
    pub fn of(model: &CostModel, samples: impl Iterator<Item = usize>) -> Self {
        match Self::mean(model, samples) {
            (cnt, density) if cnt >= MIN_SAMPLES => density,
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

/// Bytes a cell walk reads before its runs: its cell's `B` entry and the
/// clip of its adjacent ranges against the masks (about ten 4-byte reads
/// per dimension).
fn clip_bytes(dim: usize) -> f64 {
    8.0 + 40.0 * dim as f64
}

/// Bytes the estimation kernel traces over `samples` threads, each
/// walking the full adjacent box (`walk_reads` `B` reads) and scanning
/// `candidates` rows in `cells` cells, its own row included: its id and
/// point, the clip and walk, a `G` range per cell, an id per candidate, a
/// row per candidate but itself, and its count appended.
fn estimate_bytes(dim: usize, samples: f64, candidates: f64, cells: f64, walk_reads: f64) -> f64 {
    let row = 8.0 * dim as f64;
    let per_sample = 16.0 + row + clip_bytes(dim) + 8.0 * (walk_reads + cells);
    samples * (per_sample + 4.0 * candidates + row * (candidates - 1.0).max(0.0))
}

/// What one join-kernel launch touches, summed over its query slots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct LaunchCensus {
    /// Query slots (one thread each).
    pub(crate) points: f64,
    /// Neighbor-cell list entries read.
    pub(crate) entries: f64,
    /// Candidate rows scanned.
    pub(crate) scanned: f64,
    /// Distance tests passed (one `A` read each).
    pub(crate) hits: f64,
    /// Result pairs stored.
    pub(crate) stored: f64,
}

impl LaunchCensus {
    /// Bytes the cell-major join kernel traces: per slot its cell,
    /// coordinates, id and list bounds (and its home cell's `G` range
    /// under UNICOMP); a list position and a `G` range per entry; a row
    /// per scanned candidate; an id per hit; and per stored pair the pair
    /// and a sixteenth of a stage flush, plus a final partial flush for
    /// about half the slots that store anything.
    pub(crate) fn bytes(&self, dim: usize, unicomp: bool) -> f64 {
        let row = 8.0 * dim as f64;
        let per_slot = 16.0 + row + if unicomp { 8.0 } else { 0.0 };
        let flushes = self.stored / PAIR_STAGE as f64 + 0.5 * self.points.min(self.stored);
        self.points * per_slot
            + 12.0 * self.entries
            + row * self.scanned
            + 4.0 * self.hits
            + 8.0 * (self.stored + flushes)
    }
}

/// What one join touches, stage by stage: the counts [`price`] turns into
/// modeled time.
#[derive(Clone, Debug)]
pub struct Census {
    /// Dimensionality of the joined points.
    pub(crate) dim: usize,
    /// Whether the kernels run UNICOMP.
    pub(crate) unicomp: bool,
    /// Points of the joined dataset.
    pub(crate) points: usize,
    /// Whether the join builds its grid, uploads its snapshot and hoists
    /// its neighbor lists (false when all three are resident).
    pub(crate) builds: bool,
    /// Non-empty cells the hoisting pass runs a thread for.
    pub(crate) cells: f64,
    /// Neighbor-cell list entries the hoisting pass writes.
    pub(crate) entries: f64,
    /// `B` reads of one hoisting kernel's run walks, over all cells.
    pub(crate) walk_reads: f64,
    /// Bytes of the estimation kernel (zero when the estimate is given).
    pub(crate) estimate_bytes: f64,
    /// Join-kernel launches, one per batch, each over an equal share of
    /// the slots.
    pub(crate) launches: usize,
    /// What each launch touches.
    pub(crate) launch: LaunchCensus,
}

impl Census {
    /// The census a [`CostModel`] predicts for a join over `points` points
    /// whose first `owned` store their pairs (the ownership window), at the
    /// model's ε with per-point statistics `density`. The grid has
    /// `cells ≈ points / occupancy` non-empty cells, where the occupancy
    /// of a non-empty cell is the Poisson mean `λ / (1 − e^{−λ})` of the
    /// sampled shell population `λ = candidates / shell`. Each hoisting
    /// kernel walks `B` once per cell: one run of dimension-0 neighbors per
    /// combination of the other dimensions' shell coordinates,
    /// `walk_reads_per_run` reads per run and one more per listed cell.
    /// The join runs in `launches` equal launches, and `estimate_samples`
    /// sampled points run the estimation kernel.
    pub fn sampled(
        model: &CostModel,
        density: &Density,
        points: usize,
        owned: usize,
        unicomp: bool,
        launches: usize,
        estimate_samples: usize,
    ) -> Self {
        let dim = model.sample_data.dim();
        let launches = launches.max(1);
        let share = 1.0 / launches as f64;
        let n = points as f64;
        let work_factor = if unicomp { UNICOMP_WORK_FACTOR } else { 1.0 };
        // Grid shape: non-empty cells and how many of each cell's
        // in-bounds shell coordinates hold points.
        let shell = density.shell.max(1.0);
        let lambda = (density.candidates / shell).max(1e-9);
        let filled = 1.0 - (-lambda).exp();
        let cells = (n * filled / lambda).clamp(n.min(1.0), n);
        // UNICOMP visits the parity half of the shell (home cell
        // excluded), in about (full runs + 1) / 2 runs.
        let visited = if unicomp { (shell - 1.0) / 2.0 } else { shell };
        let listed = visited * filled;
        let full_runs = shell.powf((dim as f64 - 1.0) / dim as f64);
        let runs = if unicomp {
            (full_runs + 1.0) / 2.0
        } else {
            full_runs
        };
        let span = (n / lambda).max(1.0).powf(1.0 / dim as f64);
        let reads_per_run = walk_reads_per_run(dim, cells, span);
        // Stored pairs are owned-keyed only (the ownership window).
        let stored = density.neighbors * owned as f64;
        let hits = if unicomp {
            density.neighbors * n / 2.0
        } else {
            stored
        };
        let scanned = n * density.candidates * work_factor;
        Self {
            dim,
            unicomp,
            points,
            builds: true,
            cells,
            entries: cells * listed,
            walk_reads: cells * (runs * reads_per_run + listed),
            estimate_bytes: estimate_bytes(
                dim,
                estimate_samples as f64,
                density.candidates,
                shell * filled,
                full_runs * reads_per_run + shell * filled,
            ),
            launches,
            launch: LaunchCensus {
                points: n * share,
                entries: n * listed * share,
                scanned: scanned * share,
                hits: hits * share,
                stored: stored * share,
            },
        }
    }
}

/// A join's modeled time by stage, as the executor charges it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Priced {
    /// The host grid build.
    pub host: Duration,
    /// The device stage: the estimation kernel, then the pipelined
    /// snapshot upload, hoisting pass and join launches with their result
    /// downloads.
    pub device: Duration,
}

impl Priced {
    /// The modeled response time: the stages in sequence.
    pub fn total(&self) -> Duration {
        self.host + self.device
    }
}

/// Prices a census the way the executor prices executed work: the grid
/// build's streamed bytes ([`GridIndex::build_bytes`]) at the host-core
/// rate, every kernel's bytes at [`DeviceSpec::kernel_time`], and the
/// upload, hoisting pass and join launches on a `streams`-stream
/// [`StreamTimeline`] under `transfer` — the executor's own
/// ([`DeviceSpec::transfer_model`]) or a bandwidth-only one.
pub fn price(
    census: &Census,
    spec: &DeviceSpec,
    transfer: TransferModel,
    streams: usize,
) -> Priced {
    let (dim, n) = (census.dim, census.points);
    let mut stages = Vec::with_capacity(census.launches + 2);
    let mut host = Duration::ZERO;
    if census.builds {
        host = host_core_time(GridIndex::build_bytes(n, dim));
        // The hoisting kernels clip and walk per cell; the count kernel
        // appends a record per cell, the fill kernel reads its offsets,
        // reserves and writes its list and appends a start record. The
        // host uploads the slot→cell map, offsets and lists, and drains
        // the records and entries.
        let (cells, entries) = (census.cells, census.entries);
        let hoist = 2.0 * (cells * clip_bytes(dim) + 8.0 * census.walk_reads)
            + 48.0 * cells
            + 4.0 * entries;
        stages.push(BatchCost {
            h2d_bytes: n * bytes_per_point(dim),
            ..BatchCost::default()
        });
        stages.push(BatchCost {
            h2d_bytes: (4.0 * (n as f64 + cells + entries)) as usize,
            kernel: spec.kernel_time(hoist as u64),
            d2h_bytes: (16.0 * cells + 4.0 * entries) as usize,
        });
    }
    let launch = BatchCost {
        h2d_bytes: 0,
        kernel: spec.kernel_time(census.launch.bytes(dim, census.unicomp) as u64),
        d2h_bytes: (8.0 * census.launch.stored) as usize,
    };
    stages.extend(std::iter::repeat_n(launch, census.launches));
    let pipeline = StreamTimeline::new(transfer, streams.max(1)).schedule(&stages);
    Priced {
        host,
        device: spec.kernel_time(census.estimate_bytes as u64) + pipeline.total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_major::{CellMajorPlan, CellMajorSelfJoinKernel};
    use crate::device_grid::DeviceGrid;
    use crate::linearize::linearize;
    use crate::result::Pair;
    use sim_gpu::append::AppendBuffer;
    use sim_gpu::{launch, Device, LaunchConfig};
    use sj_datasets::sdss::sdss2d;
    use sj_datasets::synthetic::uniform;

    #[test]
    fn exact_census_predicts_join_kernel_bytes() {
        // The join-kernel byte count, fed the exact counts of a launch over
        // every slot (read off the hoisted lists and `G` slot by slot),
        // against the bytes the launch traces.
        for (name, data, eps) in [
            ("uniform 2-D", uniform(2, 4_000, 31), 3.6),
            ("SDSS 2-D", sdss2d(4_000, 32), 0.35),
            ("uniform 6-D", uniform(6, 2_000, 33), 38.0),
        ] {
            let n = data.len();
            let grid = GridIndex::build(&data, eps).unwrap();
            let g = grid.g();
            let dev = Device::new(DeviceSpec::titan_x_pascal());
            let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
            for unicomp in [false, true] {
                let (plan, _) =
                    CellMajorPlan::build(&dev, &dg, unicomp, LaunchConfig::default()).unwrap();
                let results = AppendBuffer::<Pair>::new(dev.pool(), n * 256).unwrap();
                let kernel = CellMajorSelfJoinKernel {
                    grid: &dg,
                    eps_sq: eps * eps,
                    plan: &plan,
                    results: &results,
                    slot_offset: 0,
                    slot_count: n,
                    ownership: None,
                };
                let traced = launch(&dev, LaunchConfig::default(), n, &kernel).bytes;
                assert!(!results.overflowed());
                let pairs = results.len() as f64;
                assert!(pairs > n as f64, "{name}: too few pairs ({pairs})");
                // Every listed cell's points; in full mode the list holds
                // the home cell, less the slot itself, and under UNICOMP
                // each slot also scans the home slots above its own.
                let (offsets, lists) = (plan.nbr_offsets.as_slice(), plan.nbr_cells.as_slice());
                let (mut entries, mut scanned) = (0usize, 0usize);
                for (slot, &h) in plan.cell_of_slot.as_slice().iter().enumerate() {
                    let h = h as usize;
                    let list = &lists[offsets[h] as usize..offsets[h + 1] as usize];
                    entries += list.len();
                    scanned += list.iter().map(|&c| g[c as usize].len()).sum::<usize>();
                    scanned = if unicomp {
                        scanned + g[h].end as usize - slot - 1
                    } else {
                        scanned - 1
                    };
                }
                let census = LaunchCensus {
                    points: n as f64,
                    entries: entries as f64,
                    scanned: scanned as f64,
                    hits: if unicomp { pairs / 2.0 } else { pairs },
                    stored: pairs,
                };
                let predicted = census.bytes(data.dim(), unicomp);
                let err = predicted / traced as f64 - 1.0;
                assert!(
                    err.abs() < 0.01,
                    "{name} unicomp={unicomp}: predicted {predicted:.0} B, traced {traced} B"
                );
            }
        }
    }

    /// Points in the 3^d cells around `p`'s cell of `grid`: what the
    /// join scans for `p`, itself included.
    fn shell_population(grid: &GridIndex, p: &[f64]) -> usize {
        let dim = grid.dim();
        let mut home = vec![0u32; dim];
        grid.cell_of(p, &mut home);
        let mut coords = vec![0u32; dim];
        (0..3usize.pow(dim as u32))
            .filter_map(|m| {
                let mut rem = m;
                for j in 0..dim {
                    coords[j] = (home[j] + (rem % 3) as u32).checked_sub(1)?;
                    rem /= 3;
                    if coords[j] as u64 >= grid.cells_per_dim()[j] {
                        return None;
                    }
                }
                grid.find_cell(linearize(&coords, grid.cells_per_dim()))
            })
            .map(|h| grid.cell_points(h).len())
            .sum()
    }

    #[test]
    fn binned_calibration_counts_candidates_near_the_exact_shell() {
        // 100k uniform 2-D points (density 10 per unit area) at ε for about
        // 16 neighbours per point: calibration bins a 4,000-point stride,
        // so every binned point stands for 25 — except the sample point
        // itself, which is one point of its own shell.
        let data = uniform(2, 100_000, 35);
        let eps = (16.0 / (std::f64::consts::PI * 10.0)).sqrt();
        let (dmin, dmax) = (data.min_per_dim().unwrap(), data.max_per_dim().unwrap());
        let model = calibrate(data.len(), &dmin, &dmax, data.coords(), eps).unwrap();
        let grid = GridIndex::build(&data, eps).unwrap();
        let samples = model.sample_data.len() as f64;
        let exact = model
            .sample_data
            .iter()
            .map(|p| shell_population(&grid, p))
            .sum::<usize>() as f64
            / samples;
        let predicted = model
            .sample_candidates
            .iter()
            .map(|&c| c as f64)
            .sum::<f64>()
            / samples;
        let err = predicted / exact - 1.0;
        assert!(
            err.abs() < 0.10,
            "mean candidates {predicted:.1} against an exact shell of {exact:.1} ({:+.1}%)",
            100.0 * err
        );
    }
}
