//! The GPU self-join kernels (paper Algorithm 1 and its UNICOMP variant).
//!
//! `GPUSELFJOINGLOBAL` assigns one thread per query point. Each thread:
//!
//! 1. loads its point into registers,
//! 2. computes the adjacent-cell index ranges in every dimension,
//! 3. clips them against the mask arrays `M_j`,
//! 4. enumerates the surviving cells, binary-searching `B` for each
//!    linearized id,
//! 5. for every existing cell, walks its `A` range and evaluates the
//!    Euclidean distance, and
//! 6. atomically appends `(query, neighbour)` key/value pairs to the
//!    result buffer.
//!
//! The UNICOMP variant restricts step 4 to the parity-selected half of the
//! neighbour cells (see [`crate::unicomp`]), handles same-cell pairs with
//! an id-ordering rule, and appends **both** directed pairs on success.
//!
//! Every global-memory access (point loads, mask probes, `B` binary-search
//! probes, `G`/`A` reads, result stores) is routed through the thread
//! context so the profiled mode drives the L1 cache simulator with the
//! kernel's true access stream.
//!
//! The distance-testing kernels (these two and
//! [`crate::cell_major::CellMajorSelfJoinKernel`]) are compiled once per
//! point dimension, as a CUDA kernel templated on it would be: each thread
//! dispatches once on the grid's dimension (`dispatch_dim`) to a body
//! generic over `const D`, whose query point is a `[f64; D]` and whose
//! candidate rows are `&[f64; D]`. The body traces the same accesses and
//! sums each distance in the same order as a loop over a runtime
//! dimension, so traced bytes and answers do not depend on it.

use crate::cell_major::for_each_adjacent_cell;
use crate::device_grid::DeviceGrid;
use crate::grid::cell_coords;
use crate::linearize::{linearize, MAX_DIM};
use crate::result::{Ownership, Pair};
use crate::unicomp::{adjacent_ranges, for_each_full, for_each_unicomp, DimRange};
use sim_gpu::append::AppendBuffer;
use sim_gpu::occupancy::KernelResources;
use sim_gpu::{DeviceBuffer, Kernel, ThreadCtx, Tracer};

/// Register-footprint model of the "compiled" kernels.
///
/// Calibrated so the occupancy calculator reproduces the paper's Table II:
/// 32 regs (2-D base) → 100%, 40 (2-D UNICOMP) → 75%, 44/48 (5-/6-D base)
/// → 62.5%, 60/64 (5-/6-D UNICOMP) → 50%, at 256-thread blocks. The base
/// cost grows with dimensionality (coordinate registers, loop state);
/// UNICOMP adds parity bookkeeping and the second result register set,
/// saturating at +16.
pub fn kernel_registers(dim: usize, unicomp: bool) -> usize {
    let base = 24 + 4 * dim;
    if unicomp {
        base + (4 * dim).min(16)
    } else {
        base
    }
}

/// Binary search over a traced device buffer: returns the first index in
/// `[lo, hi)` whose element does not satisfy `pred` (i.e.
/// `partition_point`), tracing every probe.
#[inline]
pub(crate) fn traced_partition_point<E, T, P>(
    ctx: &mut ThreadCtx<'_, T>,
    buf: &DeviceBuffer<E>,
    mut lo: usize,
    mut hi: usize,
    mut pred: P,
) -> usize
where
    E: Copy,
    T: Tracer,
    P: FnMut(E) -> bool,
{
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let v = ctx.read(buf, mid);
        if pred(v) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Clips the adjacent range `[lo, hi]` of dimension `j` against `M_j`
/// using traced binary searches. Returns `None` when the mask eliminates
/// the whole range.
#[inline]
fn traced_mask_range<T: Tracer>(
    ctx: &mut ThreadCtx<'_, T>,
    grid: &DeviceGrid,
    j: usize,
    lo: u32,
    hi: u32,
) -> Option<DimRange> {
    let (mlo, mhi) = grid.mask_bounds(j);
    let start = traced_partition_point(ctx, &grid.m_values, mlo, mhi, |c| c < lo);
    if start == mhi {
        return None;
    }
    let first = ctx.read(&grid.m_values, start);
    if first > hi {
        return None;
    }
    let end = traced_partition_point(ctx, &grid.m_values, start, mhi, |c| c <= hi);
    let last = ctx.read(&grid.m_values, end - 1);
    Some((first, last))
}

/// The adjacent ranges of `cell` in every dimension, clipped against the
/// masks `M_j` (traced).
#[inline]
pub(crate) fn traced_clipped_ranges<T: Tracer>(
    ctx: &mut ThreadCtx<'_, T>,
    grid: &DeviceGrid,
    cell: &[u32],
) -> [DimRange; MAX_DIM] {
    let dim = grid.dim;
    let mut adj = [(0u32, 0u32); MAX_DIM];
    adjacent_ranges(cell, &grid.cells_per_dim[..dim], &mut adj[..dim]);
    let mut clipped = [(0u32, 0u32); MAX_DIM];
    for j in 0..dim {
        clipped[j] = traced_mask_range(ctx, grid, j, adj[j].0, adj[j].1)
            // The cell is non-empty, so every dimension's mask contains at
            // least its coordinate.
            .expect("mask cannot eliminate a non-empty cell's own coordinate");
    }
    clipped
}

/// Binary-searches `B` for a linear cell id (traced). Returns the cell's
/// position in `B`/`G` if present.
#[inline]
pub(crate) fn traced_find_cell<T: Tracer>(
    ctx: &mut ThreadCtx<'_, T>,
    grid: &DeviceGrid,
    linear_id: u64,
) -> Option<usize> {
    let n = grid.b.len();
    let pos = traced_partition_point(ctx, &grid.b, 0, n, |c| c < linear_id);
    if pos < n && ctx.read(&grid.b, pos) == linear_id {
        Some(pos)
    } else {
        None
    }
}

/// A kernel thread body compiled for one point dimension `D`; the kernel's
/// [`Kernel::thread`] runs it through [`dispatch_dim`].
pub(crate) trait DimThread {
    /// The thread body for a grid of dimension `D`.
    fn thread_dim<const D: usize, T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>);
}

// `dispatch_dim` has one arm per supported dimension.
const _: () = assert!(MAX_DIM == 8);

/// Runs `body`'s thread compiled for dimension `dim`: the one runtime
/// branch on the dimension a distance-testing thread takes.
#[inline(always)]
pub(crate) fn dispatch_dim<B: DimThread, T: Tracer>(
    dim: usize,
    body: &B,
    ctx: &mut ThreadCtx<'_, T>,
) {
    match dim {
        1 => body.thread_dim::<1, T>(ctx),
        2 => body.thread_dim::<2, T>(ctx),
        3 => body.thread_dim::<3, T>(ctx),
        4 => body.thread_dim::<4, T>(ctx),
        5 => body.thread_dim::<5, T>(ctx),
        6 => body.thread_dim::<6, T>(ctx),
        7 => body.thread_dim::<7, T>(ctx),
        8 => body.thread_dim::<8, T>(ctx),
        _ => unreachable!("a grid has 1..={MAX_DIM} dimensions, not {dim}"),
    }
}

/// Row `row` of a `D`-strided coordinate buffer, read with one wide traced
/// access (a point load into "registers", or a candidate's coordinates).
#[inline(always)]
pub(crate) fn read_row<'b, const D: usize, T: Tracer>(
    ctx: &mut ThreadCtx<'_, T>,
    coords: &'b DeviceBuffer<f64>,
    row: usize,
) -> &'b [f64; D] {
    ctx.read_range(coords, row * D, D)
        .try_into()
        .expect("a range of D coordinates is a row")
}

/// Squared Euclidean distance, summed in dimension order.
#[inline(always)]
pub(crate) fn dist_sq<const D: usize>(p: &[f64; D], q: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for j in 0..D {
        let d = p[j] - q[j];
        acc += d * d;
    }
    acc
}

/// Evaluates all points of the cell at position `h` in `B`/`G` against the
/// register point, invoking `emit` for every candidate within ε
/// (self-pairs excluded by the caller's filter).
#[inline]
#[allow(clippy::too_many_arguments)]
fn scan_cell<const D: usize, T: Tracer, F: FnMut(&mut ThreadCtx<'_, T>, u32)>(
    ctx: &mut ThreadCtx<'_, T>,
    grid: &DeviceGrid,
    h: usize,
    p: &[f64; D],
    eps_sq: f64,
    filter_min_exclusive: Option<u32>,
    skip_id: Option<u32>,
    emit: &mut F,
) {
    let range = ctx.read(&grid.g, h);
    for ai in range.begin..range.end {
        let cand = ctx.read(&grid.a, ai as usize);
        if let Some(min) = filter_min_exclusive {
            if cand <= min {
                continue;
            }
        }
        if skip_id == Some(cand) {
            continue;
        }
        if dist_sq(p, read_row(ctx, &grid.coords, cand as usize)) <= eps_sq {
            emit(ctx, cand);
        }
    }
}

/// Pushes a result pair with access tracing (atomic cursor bump + store).
#[inline]
fn push_pair<T: Tracer>(
    ctx: &mut ThreadCtx<'_, T>,
    results: &AppendBuffer<Pair>,
    key: u32,
    value: u32,
) {
    ctx.trace_atomic(results.cursor_addr(), 8);
    if let Some(addr) = results.push(Pair::new(key, value)) {
        ctx.trace_store(addr, std::mem::size_of::<Pair>());
    }
}

/// The `GPUSELFJOINGLOBAL` kernel (Algorithm 1), optionally with UNICOMP.
///
/// One logical thread per query point in
/// `query_offset .. query_offset + query_count` — the batching executor
/// launches it once per batch over a sub-range of the point ids.
pub struct SelfJoinKernel<'a> {
    /// Device-resident grid and data.
    pub grid: &'a DeviceGrid,
    /// Squared distance threshold ε′². Usually the grid's own ε²; a
    /// *smaller* value when a resident index built at a larger ε serves
    /// this query (session reuse) — the grid's adjacent-cell shell covers
    /// any radius up to its cell width, so only the threshold changes.
    pub eps_sq: f64,
    /// Result pair sink.
    pub results: &'a AppendBuffer<Pair>,
    /// First query slot handled by this launch.
    pub query_offset: usize,
    /// Number of query points in this launch.
    pub query_count: usize,
    /// Whether to apply the UNICOMP work-avoidance pattern.
    pub unicomp: bool,
    /// Query-ordering optimization: when set, thread `t` processes point
    /// `A[query_offset + t]` instead of point id `query_offset + t`, so
    /// consecutive threads (and hence warps) handle points of the *same
    /// grid cell*. Same-cell queries visit the same neighbour cells and
    /// perform similar work, which raises L1 temporal locality and lowers
    /// warp divergence on skewed data. Results are identical either way
    /// (the query set is a permutation).
    pub cell_order: bool,
    /// Emit-time ownership window: only pairs keyed by a local id in the
    /// owned prefix `[0, owned)` are appended — one register comparison ahead of the
    /// result reservation. Without UNICOMP a non-owned query thread
    /// returns immediately (every pair it could emit is ghost-keyed);
    /// with UNICOMP ghost threads still run — the parity rule may make
    /// them the sole producer of an owned-keyed reverse pair — and the
    /// window is tested per direction.
    pub ownership: Option<Ownership>,
}

impl Kernel for SelfJoinKernel<'_> {
    fn resources(&self) -> KernelResources {
        KernelResources {
            registers_per_thread: kernel_registers(self.grid.dim, self.unicomp),
            shared_mem_per_block: 0,
        }
    }

    #[inline(always)] // keeps the launch's per-block byte counter in a register
    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        dispatch_dim(self.grid.dim, self, ctx);
    }
}

impl DimThread for SelfJoinKernel<'_> {
    #[inline(always)]
    fn thread_dim<const D: usize, T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        if ctx.global_id >= self.query_count {
            return;
        }
        let q = if self.cell_order {
            ctx.read(&self.grid.a, self.query_offset + ctx.global_id) as usize
        } else {
            self.query_offset + ctx.global_id
        };
        let qid = q as u32;
        let owns_query = self.ownership.is_none_or(|o| o.keeps(qid));
        if !self.unicomp && !owns_query {
            // Every pair this thread could emit would be keyed by its own
            // (non-owned) query id: skip the whole traversal.
            return;
        }
        let grid = self.grid;
        let dim = D;
        let eps_sq = self.eps_sq;

        // Load the query point and compute its cell (registers).
        let p: [f64; D] = *read_row(ctx, &grid.coords, q);
        let mut cell = [0u32; MAX_DIM];
        cell_coords(
            &p,
            &grid.gmin[..dim],
            grid.epsilon,
            &grid.cells_per_dim[..dim],
            &mut cell[..dim],
        );

        // Adjacent ranges, clipped against the masks M_j.
        let filtered = traced_clipped_ranges(ctx, grid, &cell[..dim]);

        if !self.unicomp {
            // Full traversal: visit every surviving adjacent cell
            // (including our own) and report one directed pair per hit.
            for_each_full(dim, &filtered[..dim], |coords| {
                let lin = linearize(coords, &grid.cells_per_dim[..dim]);
                if let Some(h) = traced_find_cell(ctx, grid, lin) {
                    scan_cell(
                        ctx,
                        grid,
                        h,
                        &p,
                        eps_sq,
                        None,
                        Some(qid),
                        &mut |ctx, cand| {
                            push_pair(ctx, self.results, qid, cand);
                        },
                    );
                }
            });
        } else {
            // UNICOMP: own cell via the id-ordering rule …
            let ownership = self.ownership;
            let owns = |id: u32| ownership.is_none_or(|o| o.keeps(id));
            let own_lin = linearize(&cell[..dim], &grid.cells_per_dim[..dim]);
            let own =
                traced_find_cell(ctx, grid, own_lin).expect("query point's cell must exist in B");
            scan_cell(
                ctx,
                grid,
                own,
                &p,
                eps_sq,
                Some(qid),
                None,
                &mut |ctx, cand| {
                    if owns_query {
                        push_pair(ctx, self.results, qid, cand);
                    }
                    if owns(cand) {
                        push_pair(ctx, self.results, cand, qid);
                    }
                },
            );
            // … and the parity-selected half of the neighbour cells,
            // reporting both directions for every hit.
            for_each_unicomp(dim, &cell[..dim], &filtered[..dim], |coords| {
                let lin = linearize(coords, &grid.cells_per_dim[..dim]);
                if let Some(h) = traced_find_cell(ctx, grid, lin) {
                    scan_cell(ctx, grid, h, &p, eps_sq, None, None, &mut |ctx, cand| {
                        if owns_query {
                            push_pair(ctx, self.results, qid, cand);
                        }
                        if owns(cand) {
                            push_pair(ctx, self.results, cand, qid);
                        }
                    });
                }
            });
        }
    }
}

/// Result-size estimation kernel (batching support, §V-A).
///
/// Visits the same cells as the full join traversal for a *sample* of
/// query points, but only counts neighbours. The cells are found by the
/// ascending run walk of the [`crate::cell_major`] hoist, which visits
/// exactly the cells the join kernel searches for one by one. One thread
/// per sample; each thread appends its count to `counts`.
pub struct CountKernel<'a> {
    /// Device-resident grid and data.
    pub grid: &'a DeviceGrid,
    /// Squared distance threshold ε′² (see [`SelfJoinKernel::eps_sq`]).
    pub eps_sq: f64,
    /// Sampled query point ids.
    pub sample_ids: &'a DeviceBuffer<u32>,
    /// Per-sample neighbour counts (append order is irrelevant; only the
    /// sum is used).
    pub counts: &'a AppendBuffer<u32>,
}

impl Kernel for CountKernel<'_> {
    fn resources(&self) -> KernelResources {
        KernelResources {
            registers_per_thread: kernel_registers(self.grid.dim, false),
            shared_mem_per_block: 0,
        }
    }

    #[inline(always)] // keeps the launch's per-block byte counter in a register
    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        dispatch_dim(self.grid.dim, self, ctx);
    }
}

impl DimThread for CountKernel<'_> {
    #[inline(always)]
    fn thread_dim<const D: usize, T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        if ctx.global_id >= self.sample_ids.len() {
            return;
        }
        let qid = ctx.read(self.sample_ids, ctx.global_id);
        let q = qid as usize;
        let grid = self.grid;
        let dim = D;
        let eps_sq = self.eps_sq;

        let p: [f64; D] = *read_row(ctx, &grid.coords, q);
        let mut cell = [0u32; MAX_DIM];
        cell_coords(
            &p,
            &grid.gmin[..dim],
            grid.epsilon,
            &grid.cells_per_dim[..dim],
            &mut cell[..dim],
        );
        let filtered = traced_clipped_ranges(ctx, grid, &cell[..dim]);
        let mut count = 0u32;
        for_each_adjacent_cell(ctx, grid, &filtered[..dim], |ctx, h| {
            scan_cell(ctx, grid, h, &p, eps_sq, None, Some(qid), &mut |_, _| {
                count += 1;
            });
        });
        ctx.trace_atomic(self.counts.cursor_addr(), 8);
        if let Some(addr) = self.counts.push(count) {
            ctx.trace_store(addr, std::mem::size_of::<u32>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::result::NeighborTable;
    use sim_gpu::{launch, Device, DeviceSpec, LaunchConfig};
    use sj_datasets::synthetic::{clustered, uniform};
    use sj_datasets::{euclidean_sq, Dataset};

    fn brute_pairs(data: &Dataset, eps: f64) -> Vec<Pair> {
        let eps_sq = eps * eps;
        let mut out = Vec::new();
        for i in 0..data.len() {
            for j in 0..data.len() {
                if i != j && euclidean_sq(data.point(i), data.point(j)) <= eps_sq {
                    out.push(Pair::new(i as u32, j as u32));
                }
            }
        }
        out
    }

    fn run_kernel(data: &Dataset, eps: f64, unicomp: bool) -> Vec<Pair> {
        let grid = GridIndex::build(data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, data, &grid).unwrap();
        let mut results =
            AppendBuffer::<Pair>::new(dev.pool(), data.len() * data.len() + 16).unwrap();
        let kernel = SelfJoinKernel {
            grid: &dg,
            eps_sq: eps * eps,
            results: &results,
            query_offset: 0,
            query_count: data.len(),
            unicomp,
            cell_order: false,
            ownership: None,
        };
        launch(&dev, LaunchConfig::default(), data.len(), &kernel);
        assert!(!results.overflowed());
        results.drain_to_host()
    }

    fn assert_matches_brute(data: &Dataset, eps: f64, unicomp: bool) {
        let expected = NeighborTable::from_pairs(data.len(), &brute_pairs(data, eps));
        let got = NeighborTable::from_pairs(data.len(), &run_kernel(data, eps, unicomp));
        assert_eq!(got, expected, "unicomp={unicomp}, eps={eps}");
    }

    #[test]
    fn kernel_matches_brute_force_2d() {
        let data = uniform(2, 400, 11);
        assert_matches_brute(&data, 5.0, false);
        assert_matches_brute(&data, 5.0, true);
    }

    #[test]
    fn kernel_matches_brute_force_3d() {
        let data = uniform(3, 300, 12);
        assert_matches_brute(&data, 12.0, false);
        assert_matches_brute(&data, 12.0, true);
    }

    #[test]
    fn kernel_matches_brute_force_6d() {
        let data = uniform(6, 200, 13);
        assert_matches_brute(&data, 35.0, false);
        assert_matches_brute(&data, 35.0, true);
    }

    #[test]
    fn kernel_matches_on_clustered_data() {
        let data = clustered(3, 400, 5, 1.0, 0.1, 14);
        assert_matches_brute(&data, 2.0, false);
        assert_matches_brute(&data, 2.0, true);
    }

    #[test]
    fn tiny_epsilon_yields_no_pairs() {
        let data = uniform(2, 200, 15);
        assert!(run_kernel(&data, 1e-3, false).is_empty());
        assert!(run_kernel(&data, 1e-3, true).is_empty());
    }

    #[test]
    fn degenerate_epsilon_overflows_cell_space() {
        // ε so small the virtual grid exceeds u64 linear ids must be
        // rejected at build time, not wrap silently.
        let data = uniform(2, 50, 15);
        assert!(matches!(
            GridIndex::build(&data, 1e-9),
            Err(crate::error::GridBuildError::CellSpaceOverflow { .. })
        ));
    }

    #[test]
    fn duplicate_points_handled() {
        // Coincident points are within any ε of each other but must not
        // produce self-pairs.
        let mut data = Dataset::new(2);
        for _ in 0..5 {
            data.push(&[1.0, 1.0]);
        }
        for unicomp in [false, true] {
            let pairs = run_kernel(&data, 0.5, unicomp);
            let t = NeighborTable::from_pairs(5, &pairs);
            assert!(t.is_irreflexive());
            assert_eq!(t.total_pairs(), 20, "unicomp={unicomp}"); // 5×4 directed
        }
    }

    #[test]
    fn batched_query_ranges_partition_results() {
        let data = uniform(2, 500, 16);
        let eps = 4.0;
        let grid = GridIndex::build(&data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let mut all = Vec::new();
        for (off, cnt) in [(0usize, 200usize), (200, 200), (400, 100)] {
            let mut results = AppendBuffer::<Pair>::new(dev.pool(), 500 * 500).unwrap();
            let kernel = SelfJoinKernel {
                grid: &dg,
                eps_sq: eps * eps,
                results: &results,
                query_offset: off,
                query_count: cnt,
                unicomp: false,
                cell_order: false,
                ownership: None,
            };
            launch(&dev, LaunchConfig::default(), cnt, &kernel);
            all.extend(results.drain_to_host());
        }
        let expected = NeighborTable::from_pairs(500, &brute_pairs(&data, eps));
        assert_eq!(NeighborTable::from_pairs(500, &all), expected);
    }

    #[test]
    fn count_kernel_estimates_exactly_on_full_sample() {
        let data = uniform(2, 300, 17);
        let eps = 6.0;
        let grid = GridIndex::build(&data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let ids: Vec<u32> = (0..300u32).collect();
        let sample = dev.alloc_from_host(&ids).unwrap();
        let mut counts = AppendBuffer::<u32>::new(dev.pool(), 300).unwrap();
        let kernel = CountKernel {
            grid: &dg,
            eps_sq: eps * eps,
            sample_ids: &sample,
            counts: &counts,
        };
        launch(&dev, LaunchConfig::default(), 300, &kernel);
        let total: u64 = counts.drain_to_host().iter().map(|&c| c as u64).sum();
        assert_eq!(total as usize, brute_pairs(&data, eps).len());
    }

    #[test]
    fn register_model_matches_table_two() {
        assert_eq!(kernel_registers(2, false), 32);
        assert_eq!(kernel_registers(2, true), 40);
        assert_eq!(kernel_registers(5, false), 44);
        assert_eq!(kernel_registers(6, false), 48);
        assert_eq!(kernel_registers(5, true), 60);
        assert_eq!(kernel_registers(6, true), 64);
    }

    #[test]
    fn overflow_is_detected_not_ub() {
        let data = uniform(2, 300, 18);
        let grid = GridIndex::build(&data, 20.0).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let results = AppendBuffer::<Pair>::new(dev.pool(), 10).unwrap();
        let kernel = SelfJoinKernel {
            grid: &dg,
            eps_sq: 20.0 * 20.0,
            results: &results,
            query_offset: 0,
            query_count: 300,
            unicomp: false,
            cell_order: false,
            ownership: None,
        };
        launch(&dev, LaunchConfig::default(), 300, &kernel);
        assert!(results.overflowed());
        assert_eq!(results.len(), 10);
    }
}
