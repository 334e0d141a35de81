//! Recursive kd-style partitioning into grid-aligned boxes with ε halos.
//!
//! Shards are axis-aligned boxes produced by recursive binary splits:
//! each sub-region is cut along its widest remaining dimension (by its
//! data-clipped box span), at an ε-grid cell boundary closest to the
//! region's point-count quantile. Versus 1-D slabs, boxes shrink the
//! surface-to-volume ratio — and with it the ε-halo ghost fraction — as
//! the shard count grows: 8 slabs share 14 internal faces all cutting the
//! same dimension, while a 4×2 kd split exposes far less internal surface
//! per shard.
//!
//! See the crate docs for the halo-ownership invariant this module
//! establishes. Assignment is by *coordinate* test (`x < b` against each
//! cut), so [`Shard::owns`] box membership is exactly the recursion's
//! assignment — no floating-point disagreement between the two is
//! possible.
//!
//! ## Staged build and cost structure
//!
//! The partition sits on the engine's critical path before any device
//! stream starts, so the build is exposed as three separately-priced
//! stages the engine can schedule (and overlap with calibration) instead
//! of one opaque call:
//!
//! 1. [`sample_pass`] — one chunked streaming read of the full dataset
//!    yielding per-dimension bounds *and* the stride sample. The sample
//!    feeds both the kd recursion and the cost-model calibration
//!    ([`crate::cost::calibrate_from_sample`]), so the data is read once
//!    for both.
//! 2. [`build_cuts`] — the recursion over the sample. Left/right
//!    subtrees are independent, so the build is charged at the critical
//!    path of a `lanes`-way fan-out (a subtree's children split the
//!    remaining lane budget; a budget of one serializes). Execution is
//!    sequential — on the simulated-device host every "lane" is a host
//!    thread the engine charges, not spawns, exactly like the
//!    materialize charge below — which also keeps the cut tree
//!    bit-identical for every lane count.
//! 3. [`materialize`] — one pass per stage over the full data:
//!    ownership/ghost classification, then the shard buffers (owned
//!    prefix, ghost tail). The charge is that of contiguous chunks, one
//!    per host lane: the slowest lane of each stage (classify, ghost-tail
//!    copy, gather), computed from the counts the passes record.
//!
//! [`partition_par`] composes the three stages; [`Partition::build_time`]
//! charges the sample pass's slowest lane, the recursion's critical path
//! and the slowest lane of each materialize stage — the same host-parallel
//! convention the engine applies to its per-device streams. Every charge
//! is modeled, not measured: a lane's (or a region's) charge is the bytes
//! it streams, priced at the host-core rate
//! ([`sim_gpu::host_core_time`]), so the same data and ε always cost the
//! same. Because the sample's points are real points, a cut that leaves
//! sample points on both sides leaves real points on both sides — every
//! leaf owns at least one point by construction.

use grid_join::error::GridBuildError;
use sim_gpu::host_core_time;
use sj_datasets::Dataset;
use std::ops::Range;
use std::time::Duration;

/// Relative widening of the ε halo band guarding against floating-point
/// rounding at cell boundaries (see crate docs, invariant 1).
pub const HALO_SLACK: f64 = 1e-9;

/// One spatial shard: an owned axis-aligned box plus its ε-halo ghosts.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Shard index within the partition.
    pub id: usize,
    /// Per-dimension owned-box lower bounds (inclusive; grid-cell
    /// boundaries, or −∞ on un-cut faces).
    pub lo: Vec<f64>,
    /// Per-dimension owned-box upper bounds (exclusive, or +∞).
    pub hi: Vec<f64>,
    /// Shard-local dataset: owned points first, then halo ghosts.
    pub data: Dataset,
    /// Number of owned points (the prefix of `data`).
    pub owned: usize,
    /// Local→global point-id map (`global_ids[local] = global`).
    pub global_ids: Vec<u32>,
}

impl Shard {
    /// Number of ghost points carried for the halo.
    pub fn ghosts(&self) -> usize {
        self.data.len() - self.owned
    }

    /// Whether `p` lies inside the owned box (`lo[j] ≤ p[j] < hi[j]` in
    /// every dimension) — exactly the partitioner's assignment test, so
    /// ownership regions tile space and are pairwise disjoint.
    pub fn owns(&self, p: &[f64]) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((&lo, &hi), &x)| lo <= x && x < hi)
    }

    /// Whether `p` lies inside the box widened by `halo` on every face —
    /// the ghost-band membership test.
    pub fn in_halo(&self, p: &[f64], halo: f64) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((&lo, &hi), &x)| x >= lo - halo && x <= hi + halo)
    }
}

/// A complete spatial partition of a dataset.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Dimensions the recursion cut across, in cut order (empty for a
    /// single shard).
    pub cut_dims: Vec<usize>,
    /// The search radius the halos were sized for.
    pub epsilon: f64,
    /// The shards, sorted by box lower bounds. Never empty; every shard
    /// owns at least one point (the requested count is an upper bound)
    /// when the cut tree was sampled from the partitioned data — see
    /// [`materialize`] for a tree applied to other points.
    pub shards: Vec<Shard>,
    /// Modeled build time, priced from streamed bytes. From
    /// [`partition_par`]: the sample pass's slowest lane + the recursion's
    /// lane-budgeted critical path + the slowest lane of each materialize
    /// stage. From [`materialize`]: the materialize passes only
    /// (the caller owns the sample and recursion stages and their
    /// accounting).
    pub build_time: Duration,
}

impl Partition {
    /// Total ghost points across shards (the replication overhead).
    pub fn ghost_points(&self) -> usize {
        self.shards.iter().map(Shard::ghosts).sum()
    }

    /// Total owned points (equals the input size).
    pub fn owned_points(&self) -> usize {
        self.shards.iter().map(|s| s.owned).sum()
    }

    /// Ghost points as a fraction of owned points (0.0 for empty input).
    pub fn ghost_fraction(&self) -> f64 {
        let owned = self.owned_points();
        if owned == 0 {
            0.0
        } else {
            self.ghost_points() as f64 / owned as f64
        }
    }
}

/// Cap on the stride sample the kd recursion runs over. Cuts derived
/// from sample quantiles cost O(sample · log k) instead of O(n · log k);
/// below the cap the "sample" is the whole dataset and behavior is
/// exact.
pub const SPLIT_SAMPLE_CAP: usize = 8_192;

/// Output of the fused bounds-and-sample pass over the full dataset: the
/// one streaming read shared by the kd recursion ([`build_cuts`]) and the
/// cost-model calibration ([`crate::cost::calibrate_from_sample`]).
#[derive(Clone, Debug)]
pub struct SamplePass {
    /// Points in the scanned dataset.
    pub len: usize,
    /// Dimensionality of the scanned dataset.
    pub dim: usize,
    /// Per-dimension minima over the *full* dataset.
    pub dmin: Vec<f64>,
    /// Per-dimension maxima over the full dataset.
    pub dmax: Vec<f64>,
    /// Global-id stride of the sample (`ids` are the multiples of this).
    pub stride: usize,
    /// Sampled global ids, ascending.
    pub ids: Vec<u32>,
    /// Sample coordinates, column-major: `cols[j][slot]` is dimension `j`
    /// of sample `slot` (the point with global id `ids[slot]`).
    pub cols: Vec<Vec<f64>>,
    /// Modeled pass time: the bytes the slowest lane streams (its chunk's
    /// coordinates in, its samples out), priced at the host-core rate.
    pub modeled: Duration,
}

impl SamplePass {
    /// Row-major coordinates of sample `slot`.
    pub fn point(&self, slot: usize) -> Vec<f64> {
        self.cols.iter().map(|c| c[slot]).collect()
    }
}

/// Streams the full dataset once, in `lanes` contiguous chunks, and
/// returns per-dimension bounds plus the kd recursion's stride sample.
///
/// The sample is strided by *global* id, so each lane contributes a
/// disjoint in-order segment and the assembled sample is bit-identical
/// for every lane count. Each lane's streamed bytes are counted and
/// [`SamplePass::modeled`] charges the slowest — the host-parallel
/// convention shared with [`materialize`] and the engine's per-device
/// streams.
pub fn sample_pass(data: &Dataset, lanes: usize) -> Result<SamplePass, GridBuildError> {
    if data.len() > u32::MAX as usize {
        return Err(GridBuildError::TooManyPoints(data.len()));
    }
    let n = data.len();
    let dim = data.dim();
    if n == 0 {
        return Ok(SamplePass {
            len: 0,
            dim,
            dmin: vec![f64::INFINITY; dim],
            dmax: vec![f64::NEG_INFINITY; dim],
            stride: 1,
            ids: Vec::new(),
            cols: vec![Vec::new(); dim],
            modeled: Duration::ZERO,
        });
    }
    let lanes = lanes.clamp(1, n);
    let flat = data.coords();
    let sstride = n.div_ceil(SPLIT_SAMPLE_CAP);
    let mut dmin = vec![f64::INFINITY; dim];
    let mut dmax = vec![f64::NEG_INFINITY; dim];
    let mut ids: Vec<u32> = Vec::with_capacity(n.div_ceil(sstride));
    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n.div_ceil(sstride)); dim];
    // The slowest lane's streamed bytes: its chunk's rows in, its samples
    // (id + row) out.
    let row_bytes = 8 * dim as u64;
    let mut slowest = 0u64;
    for lane in 0..lanes {
        let Range { start, end } = lane_range(n, lanes, lane);
        let sampled_before = ids.len();
        let mut next_sample = start.next_multiple_of(sstride);
        for (i, row) in flat[start * dim..end * dim].chunks_exact(dim).enumerate() {
            for j in 0..dim {
                dmin[j] = dmin[j].min(row[j]);
                dmax[j] = dmax[j].max(row[j]);
            }
            if start + i == next_sample {
                next_sample += sstride;
                ids.push((start + i) as u32);
                for j in 0..dim {
                    cols[j].push(row[j]);
                }
            }
        }
        slowest = slowest.max(
            (end - start) as u64 * row_bytes
                + (ids.len() - sampled_before) as u64 * (row_bytes + 4),
        );
    }
    Ok(SamplePass {
        len: n,
        dim,
        dmin,
        dmax,
        stride: sstride,
        ids,
        cols,
        modeled: host_core_time(slowest),
    })
}

/// The ids of lane `l` when `n` points are cut into `lanes` contiguous
/// chunks of `⌈n / lanes⌉`. Both ends are clamped to `n`, so trailing
/// lanes may be empty: 5 points over 4 lanes are chunks of 2, 2, 1 and 0.
fn lane_range(n: usize, lanes: usize, l: usize) -> Range<usize> {
    let len = n.div_ceil(lanes);
    (l * len).min(n)..((l + 1) * len).min(n)
}

// Bytes one lane of each materialize pass streams (`row` = the bytes of
// one coordinate row): classify reads each row and writes its 2-byte
// owner, plus an id + row copy of every ghost it gathers; the ghost-tail
// pass reads and writes those copies again; gather reads row + owner and
// writes row + id; the single-shard clone reads and writes every row plus
// the identity ids.
fn classify_bytes(points: u64, ghosts: u64, row: u64) -> u64 {
    points * (row + 2) + ghosts * (row + 4)
}

fn tail_bytes(ghosts: u64, row: u64) -> u64 {
    2 * ghosts * (row + 4)
}

fn gather_bytes(points: u64, row: u64) -> u64 {
    points * (2 * row + 6)
}

fn copy_bytes(points: u64, row: u64) -> u64 {
    points * (2 * row + 4)
}

/// Bytes [`materialize`] streams on its critical path (the slowest lane of
/// each pass) for `n` points of `dim` dimensions cut into `leaves` boxes
/// with `ghosts` ghost copies in total, across `lanes` lanes — assuming
/// points and ghosts spread evenly over the lanes. The shard-count chooser
/// prices its predicted partitions with this; [`materialize`] charges the
/// same per-lane byte counts from the lanes' actual contents.
pub(crate) fn materialize_bytes(
    n: usize,
    dim: usize,
    leaves: usize,
    lanes: usize,
    ghosts: usize,
) -> u64 {
    let row = 8 * dim as u64;
    if n == 0 || leaves <= 1 {
        return copy_bytes(n as u64, row);
    }
    let lanes = lanes.clamp(1, n);
    let per_lane = n.div_ceil(lanes) as u64;
    classify_bytes(per_lane, ghosts.div_ceil(lanes) as u64, row)
        + tail_bytes(ghosts.div_ceil(lanes.min(leaves)) as u64, row)
        + gather_bytes(per_lane, row)
}

/// High bit of a cut-tree child link marks a leaf; the rest is the leaf
/// slot.
const LEAF_BIT: u32 = 1 << 31;

/// One interior node of the cut tree the assignment pass walks: points
/// with `p[dim] < b` descend left. Children are node indices, or leaf
/// slots tagged with [`LEAF_BIT`].
struct CutNode {
    dim: u32,
    b: f64,
    kids: [u32; 2],
}

/// A settled leaf box of the recursion.
struct Leaf {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Data-clipped span (box ∩ dataset bounding box) — a superset of the
    /// leaf's true point extent, safe for adjacency pruning.
    smin: Vec<f64>,
    smax: Vec<f64>,
}

/// The settled cut tree of one kd recursion: the leaves (in final shard
/// order — lexicographic by box lower bounds), the interior nodes the
/// assignment pass walks, and the recursion's modeled build time.
pub struct CutTree {
    /// The search radius the recursion aligned its cuts to.
    pub epsilon: f64,
    /// Dimensions cut, in pre-order (this region's cut, then the left
    /// subtree's, then the right's).
    pub cut_dims: Vec<usize>,
    /// Modeled build time of the recursion: each region's cut search is
    /// charged the bytes it streams at the host-core rate, children charge
    /// `max` while the lane budget splits and `+` once it is down to one
    /// lane.
    pub build_time: Duration,
    leaves: Vec<Leaf>,
    nodes: Vec<CutNode>,
    root: u32,
}

impl CutTree {
    /// Number of leaf boxes (= shards a materialize will produce).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The leaf (shard) a point falls in: the branchless cut-tree walk
    /// used by the materialize classification pass.
    pub fn leaf_of(&self, p: &[f64]) -> usize {
        let mut link = self.root;
        loop {
            if link & LEAF_BIT != 0 {
                return (link & !LEAF_BIT) as usize;
            }
            let node = &self.nodes[link as usize];
            link = node.kids[(p[node.dim as usize] >= node.b) as usize];
        }
    }
}

/// Runs the sample-guided kd recursion: at most `num_shards` leaves,
/// every cut on an ε-grid cell boundary, charged at the critical path of
/// a `lanes`-way subtree fan-out.
///
/// Independent subtrees fan out across host lanes: a region's two
/// children split its remaining lane budget (⌈b/2⌉ / ⌊b/2⌋) and are
/// charged `max(left, right)` while the budget exceeds one, `left +
/// right` after. Execution is sequential — the lanes are the *simulated*
/// host threads the engine accounts, exactly like [`materialize`]'s lane
/// charges — so the tree (cuts, leaves, node order) is
/// bit-identical for every lane count; only [`CutTree::build_time`]
/// changes.
pub fn build_cuts(
    sp: &SamplePass,
    epsilon: f64,
    num_shards: usize,
    lanes: usize,
) -> Result<CutTree, GridBuildError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(GridBuildError::InvalidEpsilon(epsilon));
    }
    let num_shards = num_shards.max(1);
    let lanes = lanes.max(1);
    let dim = sp.dim;
    let nsample = sp.ids.len();
    let single = |build_time: Duration| CutTree {
        epsilon,
        cut_dims: Vec::new(),
        build_time,
        leaves: vec![Leaf {
            lo: vec![f64::NEG_INFINITY; dim],
            hi: vec![f64::INFINITY; dim],
            smin: sp.dmin.clone(),
            smax: sp.dmax.clone(),
        }],
        nodes: Vec::new(),
        root: LEAF_BIT,
    };
    if nsample == 0 || num_shards == 1 {
        return Ok(single(Duration::ZERO));
    }

    // Cell-boundary geometry identical to `GridIndex` per dimension:
    // origin min − ε, cell side ε — every cut lands on a global grid-cell
    // boundary, so shard faces align with index cells on both sides.
    let gmin: Vec<f64> = sp.dmin.iter().map(|&m| m - epsilon).collect();
    let root_region = Region {
        slots: (0..nsample as u32).collect(),
        lo: vec![f64::NEG_INFINITY; dim],
        hi: vec![f64::INFINITY; dim],
        smin: sp.dmin.clone(),
        smax: sp.dmax.clone(),
        k: num_shards,
    };
    let mut spl = Splitter {
        cols: &sp.cols,
        gmin,
        epsilon,
        leaves: Vec::new(),
        cut_dims: Vec::new(),
        nodes: Vec::new(),
    };
    let (root, bytes) = spl.split(root_region, lanes);
    let build_time = host_core_time(bytes);
    let Splitter {
        mut leaves,
        cut_dims,
        mut nodes,
        ..
    } = spl;

    // Deterministic shard order: lexicographic by box lower bounds. The
    // cut tree's leaf links are re-pointed through the permutation.
    let nshards = leaves.len();
    let mut order: Vec<usize> = (0..nshards).collect();
    order.sort_by(|&a, &b| {
        leaves[a]
            .lo
            .iter()
            .zip(&leaves[b].lo)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut leaf_to_shard = vec![0u32; nshards];
    for (shard, &slot) in order.iter().enumerate() {
        leaf_to_shard[slot] = shard as u32;
    }
    for node in &mut nodes {
        for kid in &mut node.kids {
            if *kid & LEAF_BIT != 0 {
                *kid = LEAF_BIT | leaf_to_shard[(*kid & !LEAF_BIT) as usize];
            }
        }
    }
    {
        let mut permuted: Vec<Option<Leaf>> = leaves.drain(..).map(Some).collect();
        leaves = order
            .iter()
            .map(|&slot| permuted[slot].take().expect("permutation is a bijection"))
            .collect();
    }
    Ok(CutTree {
        epsilon,
        cut_dims,
        build_time,
        leaves,
        nodes,
        root,
    })
}

/// Splits `data` into at most `num_shards` grid-aligned kd boxes with
/// ε-wide halos, modeling the build across `lanes` host threads:
/// [`sample_pass`] → [`build_cuts`] → [`materialize`], with
/// [`Partition::build_time`] charging all three stages. The partition
/// produced is bit-identical for every lane count; requesting one shard
/// (or data too narrow to cut) yields a single ghost-free shard.
pub fn partition_par(
    data: &Dataset,
    epsilon: f64,
    num_shards: usize,
    lanes: usize,
) -> Result<Partition, GridBuildError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(GridBuildError::InvalidEpsilon(epsilon));
    }
    let sp = sample_pass(data, lanes)?;
    let cuts = build_cuts(&sp, epsilon, num_shards, lanes)?;
    let mut part = materialize(data, &cuts, lanes)?;
    part.build_time += sp.modeled + cuts.build_time;
    Ok(part)
}

/// Executes the full-data passes of a settled cut tree: one pass
/// classifies every point (owner, ghost copies), one fills the shard
/// buffers (owned prefix, then ghost tail).
///
/// The returned [`Partition::build_time`] charges what `lanes`
/// contiguous chunks of the points would stream on their critical path
/// (the slowest lane of each stage, computed from the counts the passes
/// record), and *only* the materialize stages — the caller composes the
/// sample and recursion stages' accounting (see [`partition_par`]). A
/// single-leaf tree degenerates to one ghost-free whole-dataset shard.
/// The tree may come from another point set's sample — the shard-count
/// chooser applies each candidate's tree to the calibration sample — in
/// which case a leaf may own no points.
pub fn materialize(
    data: &Dataset,
    cuts: &CutTree,
    lanes: usize,
) -> Result<Partition, GridBuildError> {
    if data.len() > u32::MAX as usize {
        return Err(GridBuildError::TooManyPoints(data.len()));
    }
    let epsilon = cuts.epsilon;
    if data.is_empty() || cuts.num_leaves() == 1 {
        return Ok(Partition {
            cut_dims: cuts.cut_dims.clone(),
            epsilon,
            shards: vec![whole_shard(data)],
            build_time: host_core_time(copy_bytes(data.len() as u64, 8 * data.dim() as u64)),
        });
    }
    let dim = data.dim();
    let flat = data.coords();
    let n = data.len();
    let lanes = lanes.clamp(1, n);
    let leaves = &cuts.leaves;
    let nshards = leaves.len();

    // Halo-band geometry per shard, flattened `[s * dim + j]` so the hot
    // pass below chases no per-shard Vec pointers: the widened
    // (ghost-membership) box, the shrunk interior box, and the adjacency
    // list used to prune the per-point band tests.
    let halo = epsilon * (1.0 + HALO_SLACK);
    let mut wlo = vec![0.0f64; nshards * dim];
    let mut whi = vec![0.0f64; nshards * dim];
    let mut ilo = vec![0.0f64; nshards * dim];
    let mut ihi = vec![0.0f64; nshards * dim];
    for (s, l) in leaves.iter().enumerate() {
        for j in 0..dim {
            wlo[s * dim + j] = l.lo[j] - halo;
            whi[s * dim + j] = l.hi[j] + halo;
            ilo[s * dim + j] = l.lo[j] + halo;
            ihi[s * dim + j] = l.hi[j] - halo;
        }
    }
    // takers[t]: shards whose halo band reaches into shard t's points
    // (the data-clipped span bounds t's extent from above, so pruning
    // never misses a ghost).
    let takers: Vec<Vec<u32>> = (0..nshards)
        .map(|t| {
            (0..nshards)
                .filter(|&s| {
                    s != t
                        && (0..dim).all(|j| {
                            leaves[t].smin[j] <= whi[s * dim + j]
                                && leaves[t].smax[j] >= wlo[s * dim + j]
                        })
                })
                .map(|s| s as u32)
                .collect()
        })
        .collect();

    // Pass 1: classify every point, in id order. The cut-tree walk yields
    // the owner; a point strictly farther than the halo from every face of
    // its own box cannot lie in any other shard's halo (disjoint axis-
    // aligned boxes always have a separating axis), and away from the cut
    // surfaces that is almost every point — one box test retires it.
    // Boundary-band points test only the adjacent shards, and ghosts are
    // gathered right here (they are the rare case), counted against the
    // lane that holds them for the charge. Leaf count is capped by the
    // sample size, so owners fit u16.
    let lane_len = lane_range(n, lanes, 0).len();
    let mut owners = vec![0u16; n];
    let mut owned_of = vec![0usize; nshards];
    let mut ghost_ids: Vec<Vec<u32>> = vec![Vec::new(); nshards];
    let mut ghost_coords: Vec<Vec<f64>> = vec![Vec::new(); nshards];
    let mut lane_ghosts = vec![0u64; lanes];
    for (g, p) in flat.chunks_exact(dim).enumerate() {
        let t = cuts.leaf_of(p);
        owners[g] = t as u16;
        owned_of[t] += 1;
        let interior = p
            .iter()
            .zip(&ilo[t * dim..t * dim + dim])
            .zip(&ihi[t * dim..t * dim + dim])
            .all(|((&x, &l), &h)| x > l && x < h);
        if interior {
            continue;
        }
        for &s in &takers[t] {
            let s = s as usize;
            let in_band = p
                .iter()
                .zip(&wlo[s * dim..s * dim + dim])
                .zip(&whi[s * dim..s * dim + dim])
                .all(|((&x, &l), &h)| x >= l && x <= h);
            if in_band {
                ghost_ids[s].push(g as u32);
                ghost_coords[s].extend_from_slice(p);
                lane_ghosts[g / lane_len] += 1;
            }
        }
    }

    // Pass 2: exact-size shard buffers, owned points first (pushed in id
    // order), then the shard's ghost tail.
    let mut ids: Vec<Vec<u32>> = (0..nshards)
        .map(|s| Vec::with_capacity(owned_of[s] + ghost_ids[s].len()))
        .collect();
    let mut coords: Vec<Vec<f64>> = (0..nshards)
        .map(|s| Vec::with_capacity((owned_of[s] + ghost_ids[s].len()) * dim))
        .collect();
    for (g, p) in flat.chunks_exact(dim).enumerate() {
        let s = owners[g] as usize;
        ids[s].push(g as u32);
        coords[s].extend_from_slice(p);
    }

    // The charge, from the counts: per lane, classification streams the
    // lane's points and gathers its ghosts; the ghost tails are copied by
    // shard, round-robin over lanes; the gather re-streams each lane's
    // points, the first lane holding the most.
    let row = 8 * dim as u64;
    let classify = (0..lanes)
        .map(|l| classify_bytes(lane_range(n, lanes, l).len() as u64, lane_ghosts[l], row))
        .max()
        .unwrap_or(0);
    let tails = (0..lanes.min(nshards))
        .map(|l| {
            let copied = (l..nshards).step_by(lanes).map(|s| ghost_ids[s].len());
            tail_bytes(copied.sum::<usize>() as u64, row)
        })
        .max()
        .unwrap_or(0);
    let gather = gather_bytes(lane_len as u64, row);

    let shards: Vec<Shard> = ids
        .into_iter()
        .zip(coords)
        .zip(ghost_ids.into_iter().zip(ghost_coords))
        .zip(leaves)
        .enumerate()
        .map(|(s, (((mut ids, mut coords), (gids, gcoords)), leaf))| {
            ids.extend_from_slice(&gids);
            coords.extend_from_slice(&gcoords);
            Shard {
                id: s,
                lo: leaf.lo.clone(),
                hi: leaf.hi.clone(),
                data: Dataset::from_flat(dim, coords),
                owned: owned_of[s],
                global_ids: ids,
            }
        })
        .collect();

    Ok(Partition {
        cut_dims: cuts.cut_dims.clone(),
        epsilon,
        shards,
        build_time: host_core_time(classify + tails + gather),
    })
}

/// One open sub-region of the kd recursion (sample slots, not global
/// ids).
struct Region {
    slots: Vec<u32>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Data-clipped box spans (the box intersected with the dataset's
    /// bounding box): cheap per-dimension width estimates maintained
    /// incrementally at each cut instead of rescanned from the points.
    smin: Vec<f64>,
    smax: Vec<f64>,
    /// Shards this region should still split into.
    k: usize,
}

/// The sample-guided kd recursion state: sample columns in, leaves +
/// pre-order cut dims + the cut tree out.
struct Splitter<'a> {
    /// Sample coordinates, column-major: `cols[j][slot]`.
    cols: &'a [Vec<f64>],
    gmin: Vec<f64>,
    epsilon: f64,
    leaves: Vec<Leaf>,
    cut_dims: Vec<usize>,
    nodes: Vec<CutNode>,
}

impl Splitter<'_> {
    /// Recursively splits one region, appending settled leaves, pre-order
    /// cut dimensions (this region's cut, then the left subtree's, then
    /// the right's) and cut-tree nodes; returns the subtree's child link
    /// plus its critical-path bytes under `budget` fan-out lanes: the
    /// bytes this region's cut search streamed, plus `max(left, right)`
    /// while the budget splits across children, `left + right` once it is
    /// one.
    fn split(&mut self, r: Region, budget: usize) -> (u32, u64) {
        if r.k <= 1 || r.slots.len() <= 1 {
            return (self.leaf(r), 0);
        }
        let (cut, cut_bytes) = self.cut_region(&r);
        let Some((j, b, left_slots, right_slots)) = cut else {
            // No dimension offers a cut with both sides non-empty (all
            // sample points share one ε-cell in every dimension): leaf.
            return (self.leaf(r), cut_bytes);
        };
        let kl = r.k / 2;
        let kr = r.k - kl;
        let mut left_hi = r.hi.clone();
        left_hi[j] = b;
        let mut right_lo = r.lo.clone();
        right_lo[j] = b;
        let mut left_smax = r.smax.clone();
        left_smax[j] = left_smax[j].min(b);
        let mut right_smin = r.smin.clone();
        right_smin[j] = right_smin[j].max(b);
        let left = Region {
            slots: left_slots,
            lo: r.lo,
            hi: left_hi,
            smin: r.smin,
            smax: left_smax,
            k: kl,
        };
        let right = Region {
            slots: right_slots,
            lo: right_lo,
            hi: r.hi,
            smin: right_smin,
            smax: r.smax,
            k: kr,
        };
        self.cut_dims.push(j);
        let node = self.nodes.len();
        self.nodes.push(CutNode {
            dim: j as u32,
            b,
            kids: [u32::MAX, u32::MAX],
        });
        let (bl, br) = (budget.div_ceil(2), budget / 2);
        let (lkid, lt) = self.split(left, bl.max(1));
        let (rkid, rt) = self.split(right, br.max(1));
        self.nodes[node].kids = [lkid, rkid];
        let children = if budget > 1 { lt.max(rt) } else { lt + rt };
        (node as u32, cut_bytes + children)
    }

    fn leaf(&mut self, r: Region) -> u32 {
        self.leaves.push(Leaf {
            lo: r.lo,
            hi: r.hi,
            smin: r.smin,
            smax: r.smax,
        });
        LEAF_BIT | (self.leaves.len() - 1) as u32
    }

    /// Finds the best cut of one region: dimensions in descending span
    /// order (data-clipped box spans), each probed at the two grid
    /// boundaries bracketing the region's balance quantile; the first
    /// boundary with both sides non-empty wins. Returns `(dim, boundary,
    /// left_slots, right_slots)` with the coordinate test `x < boundary`
    /// deciding sides, plus the bytes the search streamed: per probed
    /// dimension the quantile sample (slot and coordinate gathered, value
    /// written, one select pass), per probed boundary the count pass (slot
    /// and coordinate per point), and for the winner the fill pass (slot
    /// and coordinate in, slot out) and the right half's split-off copy.
    #[allow(clippy::type_complexity)]
    fn cut_region(&self, r: &Region) -> (Option<(usize, f64, Vec<u32>, Vec<u32>)>, u64) {
        let dim = self.cols.len();
        let n = r.slots.len();
        let mut bytes = 0u64;
        let mut dims: Vec<usize> = (0..dim).collect();
        dims.sort_by(|&a, &b| (r.smax[b] - r.smin[b]).total_cmp(&(r.smax[a] - r.smin[a])));

        // Left child's share of the region's points under the ⌊k/2⌋
        // budget.
        let kl = r.k / 2;
        let stride = n.div_ceil(QUANTILE_SAMPLE);
        for &j in &dims {
            let col = &self.cols[j];
            let mut vals: Vec<f64> = r
                .slots
                .iter()
                .step_by(stride)
                .map(|&g| col[g as usize])
                .collect();
            bytes += 36 * vals.len() as u64;
            let target = (vals.len() * kl / r.k).clamp(1, vals.len() - 1);
            let (_, &mut v, _) = vals.select_nth_unstable_by(target, f64::total_cmp);
            // The two cell boundaries bracketing the quantile value v:
            // the upper one keeps v (a real point of the region) on the
            // left, so the left side is non-empty by construction; the
            // lower one keeps v on the right, so the right side is. Only
            // a region whose points all share one ε-column in dimension j
            // rejects both.
            let c = ((v - self.gmin[j]) / self.epsilon).floor();
            for b in [
                self.gmin[j] + (c + 1.0) * self.epsilon,
                self.gmin[j] + c * self.epsilon,
            ] {
                // Count first (a branch-free reduction the compiler can
                // vectorize), fill only once the boundary is known good:
                // the coordinate test is a coin flip near the quantile,
                // and a predicted branch per point costs more than the
                // whole count.
                let lcnt: usize = r
                    .slots
                    .iter()
                    .map(|&g| (col[g as usize] < b) as usize)
                    .sum();
                bytes += 12 * n as u64;
                if lcnt == 0 || lcnt == n {
                    continue;
                }
                // Single output buffer, branch-free cursor select: left
                // side fills from the front, right side from `lcnt`.
                // Point order (ascending global id) is preserved on both
                // sides.
                let mut buf = vec![0u32; n];
                let (mut li, mut ri) = (0usize, lcnt);
                for &g in &r.slots {
                    let is_left = (col[g as usize] < b) as usize;
                    let idx = if is_left == 1 { li } else { ri };
                    buf[idx] = g;
                    li += is_left;
                    ri += 1 - is_left;
                }
                let right = buf.split_off(lcnt);
                bytes += 16 * n as u64 + 8 * right.len() as u64;
                return (Some((j, b, buf, right)), bytes);
            }
        }
        (None, bytes)
    }
}

/// Sample cap for the balance-quantile estimate: larger regions stride-
/// sample this many coordinates instead of selecting over all of them.
/// The cut snaps to an ε-grid boundary anyway, so quantile precision
/// beyond a fraction of a percent buys nothing.
const QUANTILE_SAMPLE: usize = 4_096;

fn whole_shard(data: &Dataset) -> Shard {
    Shard {
        id: 0,
        lo: vec![f64::NEG_INFINITY; data.dim()],
        hi: vec![f64::INFINITY; data.dim()],
        data: data.clone(),
        owned: data.len(),
        global_ids: (0..data.len() as u32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_datasets::synthetic::{clustered, uniform};

    #[test]
    fn ownership_partitions_the_dataset() {
        let data = uniform(3, 3000, 11);
        let part = partition_par(&data, 5.0, 4, 1).unwrap();
        assert!(part.shards.len() >= 2, "uniform 3-D data should cut");
        let mut owned: Vec<u32> = part
            .shards
            .iter()
            .flat_map(|s| s.global_ids[..s.owned].iter().copied())
            .collect();
        owned.sort_unstable();
        assert_eq!(owned, (0..3000u32).collect::<Vec<_>>());
        assert_eq!(part.owned_points(), 3000);
    }

    #[test]
    fn owns_matches_the_assignment() {
        let data = uniform(2, 2000, 12);
        let part = partition_par(&data, 2.0, 6, 1).unwrap();
        for (g, p) in data.iter().enumerate() {
            let owners: Vec<usize> = part
                .shards
                .iter()
                .filter(|s| s.owns(p))
                .map(|s| s.id)
                .collect();
            assert_eq!(owners.len(), 1, "point {g} owned by {owners:?}");
            let s = &part.shards[owners[0]];
            assert!(s.global_ids[..s.owned].contains(&(g as u32)));
        }
    }

    #[test]
    fn shard_data_matches_global_coordinates() {
        let data = uniform(2, 800, 12);
        let part = partition_par(&data, 4.0, 3, 1).unwrap();
        for s in &part.shards {
            assert_eq!(s.data.len(), s.global_ids.len());
            for (local, &g) in s.global_ids.iter().enumerate() {
                assert_eq!(s.data.point(local), data.point(g as usize));
            }
        }
    }

    #[test]
    fn halo_contains_every_near_boundary_foreign_point() {
        // For every shard, every foreign point inside the ε-widened box
        // must appear as a ghost.
        let data = uniform(2, 2000, 13);
        let eps = 3.0;
        let part = partition_par(&data, eps, 4, 1).unwrap();
        for s in &part.shards {
            let present: std::collections::HashSet<u32> = s.global_ids.iter().copied().collect();
            for (g, p) in data.iter().enumerate() {
                if s.in_halo(p, eps) {
                    assert!(
                        present.contains(&(g as u32)),
                        "point {g} missing from halo of shard {}",
                        s.id
                    );
                }
            }
        }
    }

    #[test]
    fn owned_points_lie_inside_their_box() {
        let data = uniform(2, 1500, 14);
        let part = partition_par(&data, 2.0, 5, 1).unwrap();
        for s in &part.shards {
            for local in 0..s.owned {
                assert!(s.owns(s.data.point(local)), "shard {} box violated", s.id);
            }
        }
    }

    #[test]
    fn cuts_are_grid_aligned_in_every_dimension() {
        let data = uniform(2, 2000, 15);
        let eps = 2.5;
        let part = partition_par(&data, eps, 4, 1).unwrap();
        let mins = data.min_per_dim().unwrap();
        for s in &part.shards {
            for (j, &m) in mins.iter().enumerate() {
                for b in [s.lo[j], s.hi[j]] {
                    if b.is_finite() {
                        let k = (b - (m - eps)) / eps;
                        assert!(
                            (k - k.round()).abs() < 1e-9,
                            "bound {b} (dim {j}) is not a cell boundary (k = {k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kd_cuts_use_multiple_dimensions() {
        // A square uniform cloud split 4 ways should cut both dimensions
        // (2×2 boxes), not stack 4 slabs along one axis.
        let data = uniform(2, 4000, 20);
        let part = partition_par(&data, 1.0, 4, 1).unwrap();
        assert_eq!(part.shards.len(), 4);
        let mut dims = part.cut_dims.clone();
        dims.sort_unstable();
        dims.dedup();
        assert_eq!(dims, vec![0, 1], "cuts: {:?}", part.cut_dims);
    }

    #[test]
    fn boxes_ghost_less_than_slabs_at_high_shard_counts() {
        // The tentpole claim in miniature: at 8 shards on square data the
        // kd boxes (4×2) replicate far less than 8 slabs would. The slab
        // ghost fraction for width-w slabs is ~2ε/w per internal face;
        // assert the kd partition stays under the slab bound.
        let data = uniform(2, 20_000, 21);
        let eps = 1.0;
        let part = partition_par(&data, eps, 8, 1).unwrap();
        assert_eq!(part.shards.len(), 8);
        // 8 slabs over a 100-unit extent: width 12.5, interior slabs see
        // two ε bands ≈ 2·1/12.5 = 16% each ⇒ ~14% overall. The 4×2 kd
        // grid halves one direction's face count; expect clearly less.
        assert!(
            part.ghost_fraction() < 0.14,
            "kd ghost fraction {:.3} not better than slabs",
            part.ghost_fraction()
        );
    }

    #[test]
    fn single_shard_has_no_ghosts() {
        let data = uniform(2, 500, 16);
        let part = partition_par(&data, 1.0, 1, 1).unwrap();
        assert_eq!(part.shards.len(), 1);
        assert_eq!(part.shards[0].ghosts(), 0);
        assert_eq!(part.shards[0].owned, 500);
        assert!(part.cut_dims.is_empty());
    }

    #[test]
    fn empty_dataset_yields_one_empty_shard() {
        let part = partition_par(&Dataset::new(3), 1.0, 4, 1).unwrap();
        assert_eq!(part.shards.len(), 1);
        assert_eq!(part.shards[0].data.len(), 0);
        assert_eq!(part.ghost_points(), 0);
        assert_eq!(part.ghost_fraction(), 0.0);
    }

    #[test]
    fn narrow_data_degrades_to_fewer_shards() {
        // All points inside one ε cell in every dimension: no valid cut.
        let mut d = Dataset::new(2);
        for i in 0..100 {
            d.push(&[5.0 + (i as f64) * 1e-4, 5.0 + (i as f64) * 1e-4]);
        }
        let part = partition_par(&d, 10.0, 8, 1).unwrap();
        assert_eq!(part.shards.len(), 1);
    }

    #[test]
    fn equal_count_cuts_balance_owned_points() {
        let data = uniform(2, 4000, 17);
        let part = partition_par(&data, 1.0, 4, 1).unwrap();
        assert_eq!(part.shards.len(), 4);
        for s in &part.shards {
            assert!(
                s.owned >= 500 && s.owned <= 2000,
                "shard owns {} of 4000",
                s.owned
            );
        }
    }

    #[test]
    fn skewed_data_still_partitions_exhaustively() {
        let data = clustered(2, 3000, 3, 1.0, 0.05, 18);
        let part = partition_par(&data, 0.5, 4, 1).unwrap();
        assert_eq!(part.owned_points(), 3000);
        assert!(!part.shards.is_empty());
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let data = uniform(2, 10, 19);
        assert!(matches!(
            partition_par(&data, 0.0, 2, 1),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            partition_par(&data, f64::NAN, 2, 1),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn sample_pass_is_lane_invariant() {
        let data = uniform(3, 5000, 50);
        let base = sample_pass(&data, 1).unwrap();
        for lanes in [2, 3, 7, 16] {
            let sp = sample_pass(&data, lanes).unwrap();
            assert_eq!(sp.ids, base.ids, "lanes = {lanes}");
            assert_eq!(sp.cols, base.cols, "lanes = {lanes}");
            assert_eq!(sp.dmin, base.dmin);
            assert_eq!(sp.dmax, base.dmax);
        }
        assert_eq!(base.dmin, data.min_per_dim().unwrap());
    }

    #[test]
    fn staged_build_equals_partition_par() {
        // The wrapper and the staged calls must produce the same shards.
        let data = clustered(2, 4000, 3, 1.0, 0.07, 51);
        let eps = 0.6;
        let whole = partition_par(&data, eps, 6, 4).unwrap();
        let sp = sample_pass(&data, 4).unwrap();
        let cuts = build_cuts(&sp, eps, 6, 4).unwrap();
        let staged = materialize(&data, &cuts, 4).unwrap();
        assert_eq!(staged.cut_dims, whole.cut_dims);
        assert_eq!(staged.shards.len(), whole.shards.len());
        for (a, b) in staged.shards.iter().zip(&whole.shards) {
            assert_eq!(a.global_ids, b.global_ids);
            assert_eq!(a.owned, b.owned);
            assert_eq!(a.lo, b.lo);
            assert_eq!(a.hi, b.hi);
        }
    }

    #[test]
    fn cut_tree_assignment_matches_shard_boxes() {
        let data = uniform(2, 3000, 52);
        let sp = sample_pass(&data, 2).unwrap();
        let cuts = build_cuts(&sp, 1.5, 8, 2).unwrap();
        let part = materialize(&data, &cuts, 2).unwrap();
        for p in data.iter() {
            let leaf = cuts.leaf_of(p);
            assert!(part.shards[leaf].owns(p));
        }
    }

    #[test]
    fn lane_budget_only_changes_the_charge() {
        // The recursion's fan-out budget must not change the tree, and a
        // wider budget must never be charged more than the serial build
        // of the same streamed bytes.
        let data = uniform(4, 6000, 53);
        let sp = sample_pass(&data, 1).unwrap();
        let serial = build_cuts(&sp, 8.0, 16, 1).unwrap();
        let fanned = build_cuts(&sp, 8.0, 16, 8).unwrap();
        assert_eq!(serial.cut_dims, fanned.cut_dims);
        assert_eq!(serial.num_leaves(), fanned.num_leaves());
        assert!(fanned.build_time < serial.build_time);
        assert_eq!(
            build_cuts(&sp, 8.0, 16, 8).unwrap().build_time,
            fanned.build_time
        );
    }
}
