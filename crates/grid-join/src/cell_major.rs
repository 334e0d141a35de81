//! The cell-major hot path: reordered point layout, per-cell neighbor
//! hoisting, and batched result reservation.
//!
//! The baseline [`crate::kernels::SelfJoinKernel`] pays three costs per
//! *thread* even though every point of a home cell performs byte-identical
//! traversal work: adjacent-range mask clipping, `3^d` binary searches of
//! `B`, and scattered point loads through the `A` indirection. This module
//! restructures the join around the *cell*:
//!
//! 1. **Cell-major data layout** — threads read coordinates from the
//!    grid's reordered snapshot ([`crate::GridIndex::reordered_coords`]): a
//!    cell's points are one contiguous `dim`-strided scan, and original
//!    ids are recovered through the `A` remap only when a pair is emitted.
//! 2. **Per-cell neighbor hoisting** — [`CellMajorPlan`] runs two small
//!    one-thread-per-*cell* kernels (count, then fill) that clip the
//!    adjacent ranges **once per non-empty home cell** and materialize a
//!    CSR neighbor-offset table keyed by `G` index; the join kernel then
//!    walks precomputed cell positions. Each kernel finds a cell's
//!    neighbors with one **ascending run walk** of `B`: dimension 0 varies
//!    fastest in [`linearize`], so with dimensions `1..d` fixed the clipped
//!    dimension-0 range is one run of at most 3 consecutive ids, whose
//!    existing cells sit at consecutive positions of `B`. The walk visits
//!    the runs in ascending id order and finds each with a galloping
//!    search bounded below by where the previous run ended, so a cell
//!    costs `3^(d−1)` short searches instead of `3^d` binary searches of
//!    all of `B`, and its list comes out sorted. The fill kernel writes
//!    each list into one reservation of its counted length. Against the
//!    per-thread `O(|D| · 3^d · log |B|)`, the search work is
//!    `O(|B| · 3^(d−1) · log gap)`, where `gap` is the distance in `B`
//!    between consecutive runs. The estimate's
//!    [`crate::kernels::CountKernel`] finds its sampled points' cells with
//!    the same walk.
//! 3. **Batched result reservation** — threads stage candidate pairs in a
//!    small fixed local buffer (`PairStage`) and flush with **one**
//!    atomic cursor reservation per batch
//!    ([`sim_gpu::append::AppendBuffer::reserve`]) instead of one atomic
//!    per pair.
//!
//! The pair set produced is identical to the per-thread kernels' —
//! asserted pair-for-pair by the equivalence suites and the `validate`
//! release gate. Every global-memory access still flows through the
//! [`ThreadCtx`] tracer, so the profiled mode drives the cache simulator
//! with the *new* true access stream.

use crate::device_grid::DeviceGrid;
use crate::kernels::{kernel_registers, traced_clipped_ranges, traced_partition_point};
use crate::linearize::{delinearize, linearize, MAX_DIM};
use crate::result::{Ownership, Pair};
use crate::unicomp::DimRange;
use sim_gpu::append::AppendBuffer;
use sim_gpu::occupancy::KernelResources;
use sim_gpu::{launch, Device, DeviceBuffer, Kernel, LaunchConfig, OutOfMemory, ThreadCtx, Tracer};
use std::time::{Duration, Instant};

/// Slots in the per-thread result staging buffer. Small enough to live in
/// registers/local memory on a real GPU; every flush replaces that many
/// result atomics with one.
pub const PAIR_STAGE: usize = 16;

/// Which join hot path the executor runs. Results are pair-for-pair
/// identical; only the work distribution differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HotPath {
    /// The paper's Algorithm 1 as written: every thread clips, searches
    /// and gathers for itself (kept as the baseline for ablation).
    PerThread,
    /// The cell-major path of this module: reordered layout, per-cell
    /// neighbor hoisting, batched result reservation. Default.
    #[default]
    CellMajor,
}

/// A fixed local staging buffer for result pairs, flushed to the global
/// [`AppendBuffer`] with one atomic reservation per batch.
struct PairStage {
    buf: [Pair; PAIR_STAGE],
    len: usize,
}

impl PairStage {
    #[inline]
    fn new() -> Self {
        Self {
            buf: [Pair::default(); PAIR_STAGE],
            len: 0,
        }
    }

    /// Stages one pair, flushing first when the buffer is full.
    #[inline]
    fn push<T: Tracer>(
        &mut self,
        ctx: &mut ThreadCtx<'_, T>,
        results: &AppendBuffer<Pair>,
        pair: Pair,
    ) {
        if self.len == PAIR_STAGE {
            self.flush(ctx, results);
        }
        self.buf[self.len] = pair;
        self.len += 1;
    }

    /// Reserves `len` slots with a single atomic and stores the staged
    /// pairs (stores past capacity are discarded and surface as overflow,
    /// like per-pair pushes).
    #[inline]
    fn flush<T: Tracer>(&mut self, ctx: &mut ThreadCtx<'_, T>, results: &AppendBuffer<Pair>) {
        if self.len == 0 {
            return;
        }
        ctx.trace_atomic(results.cursor_addr(), 8);
        let r = results.reserve(self.len);
        for (i, &p) in self.buf[..self.len].iter().enumerate() {
            if let Some(addr) = results.write_reserved(&r, i, p) {
                ctx.trace_store(addr, std::mem::size_of::<Pair>());
            }
        }
        self.len = 0;
    }
}

/// An ascending walk over `B`. The caller hands it runs of consecutive
/// linear ids in ascending order; the walk lower-bounds each run's first
/// id with a galloping search that starts where the previous run ended,
/// then reports the run's existing cells by walking forward. Reported
/// positions therefore come out strictly ascending.
struct RunWalk {
    /// Where the next run's search starts: every position of the walk's
    /// range below it holds an id below the next run.
    cursor: usize,
    /// Exclusive bound on the positions the walk searches and reports.
    end: usize,
    /// Whether `cursor` is a previous run's end to gallop from; the first
    /// run of a walk binary-searches `[cursor, end)` instead.
    galloping: bool,
}

impl RunWalk {
    /// Reports the existing cells with ids in `[first, last]`, which must
    /// lie above every id of the runs already walked.
    #[inline]
    fn run<T: Tracer, F: FnMut(&mut ThreadCtx<'_, T>, usize)>(
        &mut self,
        ctx: &mut ThreadCtx<'_, T>,
        b: &DeviceBuffer<u64>,
        first: u64,
        last: u64,
        found: &mut F,
    ) {
        let mut pos = if self.galloping {
            traced_gallop(ctx, b, self.cursor, self.end, first)
        } else {
            traced_partition_point(ctx, b, self.cursor, self.end, |c| c < first)
        };
        self.galloping = true;
        while pos < self.end && ctx.read(b, pos) <= last {
            found(ctx, pos);
            pos += 1;
        }
        self.cursor = pos;
    }

    /// Walks the runs of the box of cells whose dimension `k` spans
    /// `ranges[k]`, in ascending id order: dimensions `1..` step as an
    /// odometer with the highest outermost, and each run spans
    /// `ranges[0]`, whose consecutive coordinates are consecutive ids.
    #[inline]
    fn walk_box<T: Tracer, F: FnMut(&mut ThreadCtx<'_, T>, usize)>(
        &mut self,
        ctx: &mut ThreadCtx<'_, T>,
        grid: &DeviceGrid,
        ranges: &[DimRange],
        found: &mut F,
    ) {
        let dim = grid.dim;
        let mut coords = [0u32; MAX_DIM];
        for k in 0..dim {
            coords[k] = ranges[k].0;
        }
        let width = u64::from(ranges[0].1 - ranges[0].0);
        loop {
            let first = linearize(&coords[..dim], &grid.cells_per_dim[..dim]);
            self.run(ctx, &grid.b, first, first + width, found);
            let mut k = 1;
            while k < dim && coords[k] == ranges[k].1 {
                coords[k] = ranges[k].0;
                k += 1;
            }
            if k == dim {
                return;
            }
            coords[k] += 1;
        }
    }
}

/// Lower bound of `id` in the sorted `b[lo..hi)`, galloping from `lo`: it
/// probes `lo, lo+1, lo+3, lo+7, …` until a probe reaches `id`, then
/// binary-searches the last bracket, so it costs `O(log gap)` probes for
/// an answer `gap` positions past `lo` (every probe traced).
#[inline]
fn traced_gallop<T: Tracer>(
    ctx: &mut ThreadCtx<'_, T>,
    b: &DeviceBuffer<u64>,
    lo: usize,
    hi: usize,
    id: u64,
) -> usize {
    let (mut below, mut probe, mut step) = (lo, lo, 1);
    while probe < hi {
        if ctx.read(b, probe) >= id {
            return traced_partition_point(ctx, b, below, probe, |c| c < id);
        }
        below = probe + 1;
        probe += step;
        step *= 2;
    }
    traced_partition_point(ctx, b, below, hi, |c| c < id)
}

/// Visits the existing cells of the full adjacency box `ranges` (the
/// clipped adjacent ranges of some cell, own cell included) in ascending
/// `B`/`G` position order: one run per combination of dimensions `1..`,
/// each found by the ascending walk. Shared by the hoist's full mode and
/// the estimate's [`crate::kernels::CountKernel`].
#[inline]
pub(crate) fn for_each_adjacent_cell<T: Tracer, F: FnMut(&mut ThreadCtx<'_, T>, usize)>(
    ctx: &mut ThreadCtx<'_, T>,
    grid: &DeviceGrid,
    ranges: &[DimRange],
    mut found: F,
) {
    let mut walk = RunWalk {
        cursor: 0,
        end: grid.b.len(),
        galloping: false,
    };
    walk.walk_box(ctx, grid, ranges, &mut found);
}

/// Visits the existing cells of the UNICOMP subset of the home cell at
/// position `h` (coordinates `cell`, clipped adjacent ranges `ranges`) in
/// ascending position order — the same cell set as
/// [`crate::unicomp::for_each_unicomp`], reordered. Dimension `j` with an
/// odd coordinate contributes the box at `c_j − 1` (the minus half) and
/// the box at `c_j + 1` (the plus half) — see [`unicomp_half`]. Every
/// minus-half id lies below the home cell's and every plus-half id above
/// it; within each half the most significant differing dimension orders
/// the ids. So the minus halves are walked for `j = d−1 … 0` inside
/// `[0, h)`, and the plus halves for `j = 0 … d−1` galloping from `h + 1`.
#[inline]
fn for_each_unicomp_cell<T: Tracer, F: FnMut(&mut ThreadCtx<'_, T>, usize)>(
    ctx: &mut ThreadCtx<'_, T>,
    grid: &DeviceGrid,
    h: usize,
    cell: &[u32],
    ranges: &[DimRange],
    found: &mut F,
) {
    let dim = grid.dim;
    let mut minus = RunWalk {
        cursor: 0,
        end: h,
        galloping: false,
    };
    for j in (0..dim).rev() {
        if cell[j] % 2 == 1 && cell[j] > ranges[j].0 {
            let half = unicomp_half(cell, ranges, j, cell[j] - 1);
            minus.walk_box(ctx, grid, &half[..dim], found);
        }
    }
    let mut plus = RunWalk {
        cursor: h + 1,
        end: grid.b.len(),
        galloping: true,
    };
    for j in 0..dim {
        if cell[j] % 2 == 1 && cell[j] < ranges[j].1 {
            let half = unicomp_half(cell, ranges, j, cell[j] + 1);
            plus.walk_box(ctx, grid, &half[..dim], found);
        }
    }
}

/// The box of one UNICOMP half: coordinate `x` in dimension `j`,
/// dimensions below `j` spanning their `ranges`, dimensions above pinned
/// to the home `cell`.
#[inline]
fn unicomp_half(cell: &[u32], ranges: &[DimRange], j: usize, x: u32) -> [DimRange; MAX_DIM] {
    let mut half = [(0u32, 0u32); MAX_DIM];
    half[..j].copy_from_slice(&ranges[..j]);
    half[j] = (x, x);
    for (r, &c) in half[j + 1..].iter_mut().zip(&cell[j + 1..]) {
        *r = (c, c);
    }
    half
}

/// Per-cell hoisting pass shared by the count and fill kernels: computes
/// the home cell's clipped adjacent ranges and enumerates the *existing*
/// neighbor cells (positions in `B`/`G`) in ascending order, invoking
/// `found` for each.
///
/// In full mode the home cell itself is included; in UNICOMP mode only
/// the parity-selected neighbor subset is visited — the home cell is
/// handled by the join kernel's id-ordering rule.
#[inline]
fn for_each_existing_neighbor<T: Tracer, F: FnMut(&mut ThreadCtx<'_, T>, u32)>(
    ctx: &mut ThreadCtx<'_, T>,
    grid: &DeviceGrid,
    h: usize,
    unicomp: bool,
    mut found: F,
) {
    let dim = grid.dim;
    let lin = ctx.read(&grid.b, h);
    let mut cell = [0u32; MAX_DIM];
    delinearize(lin, &grid.cells_per_dim[..dim], &mut cell[..dim]);
    let ranges = traced_clipped_ranges(ctx, grid, &cell[..dim]);
    let mut found = |ctx: &mut ThreadCtx<'_, T>, nh: usize| found(ctx, nh as u32);
    if unicomp {
        for_each_unicomp_cell(ctx, grid, h, &cell[..dim], &ranges[..dim], &mut found);
    } else {
        for_each_adjacent_cell(ctx, grid, &ranges[..dim], found);
    }
}

/// Pass 1 of the hoisting precompute: one thread per non-empty cell,
/// counting its existing neighbor cells. Appends `(h, count)`.
struct CellNeighborCountKernel<'a> {
    grid: &'a DeviceGrid,
    unicomp: bool,
    counts: &'a AppendBuffer<(u32, u32)>,
}

impl Kernel for CellNeighborCountKernel<'_> {
    fn resources(&self) -> KernelResources {
        KernelResources {
            registers_per_thread: kernel_registers(self.grid.dim, self.unicomp),
            shared_mem_per_block: 0,
        }
    }

    #[inline(always)] // keeps the launch's per-block byte counter in a register
    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        let h = ctx.global_id;
        if h >= self.grid.b.len() {
            return;
        }
        let mut count = 0u32;
        for_each_existing_neighbor(ctx, self.grid, h, self.unicomp, |_, _| count += 1);
        ctx.trace_atomic(self.counts.cursor_addr(), 8);
        if let Some(addr) = self.counts.push((h as u32, count)) {
            ctx.trace_store(addr, 8);
        }
    }
}

/// Pass 2: re-runs the walk and writes the cell's sorted neighbor list
/// into **one** reservation of its counted length (read from the uploaded
/// CSR offsets), then records `(h, reservation start)` so the host can
/// copy the list to its CSR slot.
struct CellNeighborFillKernel<'a> {
    grid: &'a DeviceGrid,
    unicomp: bool,
    offsets: &'a DeviceBuffer<u32>,
    entries: &'a AppendBuffer<u32>,
    starts: &'a AppendBuffer<(u32, u32)>,
}

impl Kernel for CellNeighborFillKernel<'_> {
    fn resources(&self) -> KernelResources {
        KernelResources {
            registers_per_thread: kernel_registers(self.grid.dim, self.unicomp),
            shared_mem_per_block: 0,
        }
    }

    #[inline(always)] // keeps the launch's per-block byte counter in a register
    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        let h = ctx.global_id;
        if h >= self.grid.b.len() {
            return;
        }
        let count = (ctx.read(self.offsets, h + 1) - ctx.read(self.offsets, h)) as usize;
        ctx.trace_atomic(self.entries.cursor_addr(), 8);
        let r = self.entries.reserve(count);
        let mut written = 0;
        // `write_reserved` panics past the reservation: the fill can never
        // list more cells than the count pass counted.
        for_each_existing_neighbor(ctx, self.grid, h, self.unicomp, |ctx, nh| {
            if let Some(addr) = self.entries.write_reserved(&r, written, nh) {
                ctx.trace_store(addr, 4);
            }
            written += 1;
        });
        // Nor fewer: its unwritten slots would list cell 0 in the table.
        assert_eq!(
            written, count,
            "cell {h}: the fill pass listed {written} neighbor cells, the count pass {count}"
        );
        ctx.trace_atomic(self.starts.cursor_addr(), 8);
        if let Some(addr) = self.starts.push((h as u32, r.start() as u32)) {
            ctx.trace_store(addr, 8);
        }
    }
}

/// Cost accounting of a [`CellMajorPlan`] build, fed into the batching
/// report/timeline so the hoisting pass is never free in either host wall
/// or modeled device time.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanBuildStats {
    /// Host wall time of the whole build: both kernels, the transfers and
    /// the host's copy of each cell's list into its CSR slot.
    pub wall: Duration,
    /// Modeled device time of the two hoisting kernels (count and fill).
    pub modeled: Duration,
    /// Bytes uploaded: the CSR offsets (before the fill pass, which reads
    /// them), the CSR neighbor lists and the slot→cell map.
    pub h2d_bytes: usize,
    /// Bytes drained back to the host: the count pass's `(h, count)`
    /// records, and the fill pass's 4-byte neighbor entries plus one
    /// `(h, reservation start)` record per cell.
    pub d2h_bytes: usize,
}

/// The device-resident per-cell neighbor table plus the slot→cell map —
/// everything the cell-major join kernel shares across a home cell's
/// threads.
#[derive(Debug)]
pub struct CellMajorPlan {
    /// Whether the neighbor lists are the UNICOMP parity subset (home
    /// cell excluded) or the full adjacency (home cell included).
    pub unicomp: bool,
    /// `A`-slot → position of its cell in `B`/`G`.
    pub cell_of_slot: DeviceBuffer<u32>,
    /// CSR offsets into [`Self::nbr_cells`] (`|B| + 1` entries).
    pub nbr_offsets: DeviceBuffer<u32>,
    /// CSR values: existing neighbor-cell positions in `B`/`G`, strictly
    /// ascending per home cell (the walk finds them in that order).
    pub nbr_cells: DeviceBuffer<u32>,
}

impl CellMajorPlan {
    /// Device bytes this plan keeps resident (the CSR table plus the
    /// slot→cell map) — what a session's snapshot ledger accounts for.
    pub fn resident_bytes(&self) -> usize {
        self.cell_of_slot.size_bytes() + self.nbr_offsets.size_bytes() + self.nbr_cells.size_bytes()
    }

    /// Upper bound on [`Self::resident_bytes`] for a plan over `grid`,
    /// computable before the hoisting kernels run: every cell has at most
    /// `min(3^dim, |B|)` existing neighbor cells in the CSR table.
    pub fn projected_bytes_upper(grid: &DeviceGrid) -> usize {
        let nb = grid.b.len();
        let shell = 3usize.saturating_pow(grid.dim as u32).min(nb.max(1));
        let u32s = std::mem::size_of::<u32>();
        grid.num_points * u32s + (nb + 1) * u32s + nb.saturating_mul(shell) * u32s
    }

    /// Builds the plan on the device: two one-thread-per-cell kernel
    /// passes (count, then fill) clip the adjacent ranges and walk `B`
    /// once per pass. The host prefix-sums the counts into CSR offsets and
    /// uploads them; each fill thread writes its sorted list into one
    /// reservation, and the host copies the lists into the CSR table and
    /// uploads it together with the slot→cell map.
    pub fn build(
        device: &Device,
        grid: &DeviceGrid,
        unicomp: bool,
        launch_cfg: LaunchConfig,
    ) -> Result<(Self, PlanBuildStats), OutOfMemory> {
        let t0 = Instant::now();
        let nb = grid.b.len();
        let mut stats = PlanBuildStats::default();

        // Pass 1: per-cell neighbor counts.
        let mut counts = AppendBuffer::<(u32, u32)>::new(device.pool(), nb)?;
        let s1 = launch(
            device,
            launch_cfg,
            nb,
            &CellNeighborCountKernel {
                grid,
                unicomp,
                counts: &counts,
            },
        );
        let count_records = counts.drain_to_host();
        drop(counts);
        stats.modeled += s1.modeled_wall;
        stats.d2h_bytes += count_records.len() * 8;

        let mut offsets = vec![0u32; nb + 1];
        let mut total = 0u64;
        for &(h, c) in &count_records {
            offsets[h as usize + 1] = c;
        }
        for off in offsets.iter_mut().skip(1) {
            total += *off as u64;
            assert!(
                total <= u32::MAX as u64,
                "neighbor table exceeds u32 offsets ({total} entries)"
            );
            *off = total as u32;
        }
        let nbr_offsets = device.alloc_from_host(&offsets)?;

        // Pass 2: each cell's list, in one reservation per cell.
        let mut entries = AppendBuffer::<u32>::new(device.pool(), total as usize)?;
        let mut starts = AppendBuffer::<(u32, u32)>::new(device.pool(), nb)?;
        let s2 = launch(
            device,
            launch_cfg,
            nb,
            &CellNeighborFillKernel {
                grid,
                unicomp,
                offsets: &nbr_offsets,
                entries: &entries,
                starts: &starts,
            },
        );
        let entries_host = entries.drain_to_host();
        let start_records = starts.drain_to_host();
        drop((entries, starts));
        stats.modeled += s2.modeled_wall;
        stats.d2h_bytes += entries_host.len() * 4 + start_records.len() * 8;

        // Reservation order is nondeterministic across blocks; each list
        // is already sorted, so copying it to its CSR slot is all the
        // host does.
        let mut values = vec![0u32; total as usize];
        for &(h, start) in &start_records {
            let (h, start) = (h as usize, start as usize);
            let (lo, hi) = (offsets[h] as usize, offsets[h + 1] as usize);
            values[lo..hi].copy_from_slice(&entries_host[start..start + hi - lo]);
        }
        drop(entries_host);

        // Slot→cell map, derived from G (pure host metadata, like A).
        let g_host = grid.g.as_slice();
        let mut cell_of_slot = vec![0u32; grid.num_points];
        for (h, r) in g_host.iter().enumerate() {
            cell_of_slot[r.begin as usize..r.end as usize].fill(h as u32);
        }

        let plan = Self {
            unicomp,
            cell_of_slot: device.alloc_from_host(&cell_of_slot)?,
            nbr_offsets,
            nbr_cells: device.alloc_from_host(&values)?,
        };
        stats.h2d_bytes = plan.cell_of_slot.size_bytes()
            + plan.nbr_offsets.size_bytes()
            + plan.nbr_cells.size_bytes();
        stats.wall = t0.elapsed();
        Ok((plan, stats))
    }
}

/// The cell-major self-join kernel: one logical thread per `A`-slot in
/// `slot_offset .. slot_offset + slot_count` (consecutive threads handle
/// points of the same grid cell by construction). Per thread it performs
/// **zero** mask clips and **zero** `B` searches — the plan hoisted them
/// per cell — and scans each neighbor cell's points as one contiguous
/// read stream from the reordered snapshot, reading the `A` remap only
/// when a pair is emitted. Results flush through the staged reservation
/// path (one atomic per [`PAIR_STAGE`] pairs).
pub struct CellMajorSelfJoinKernel<'a> {
    /// Device-resident grid and data (must carry the reordered snapshot).
    pub grid: &'a DeviceGrid,
    /// Squared distance threshold ε′² (see
    /// [`crate::kernels::SelfJoinKernel::eps_sq`]): usually the grid's own
    /// ε², smaller under resident-index reuse. The hoisted neighbor table
    /// is ε′-independent — it enumerates adjacent *cells*, which cover any
    /// radius up to the cell width — so one plan serves every in-band ε′.
    pub eps_sq: f64,
    /// Hoisted per-cell neighbor table (must match `unicomp`).
    pub plan: &'a CellMajorPlan,
    /// Result pair sink.
    pub results: &'a AppendBuffer<Pair>,
    /// First `A`-slot handled by this launch.
    pub slot_offset: usize,
    /// Number of slots in this launch.
    pub slot_count: usize,
    /// Optional emit-time ownership window: pairs whose key falls outside
    /// the owned prefix `[0, owned)` are dropped *before* staging, so a sharded subplan never
    /// materializes ghost-keyed pairs (see
    /// [`crate::kernels::SelfJoinKernel::ownership`]).
    pub ownership: Option<Ownership>,
}

impl Kernel for CellMajorSelfJoinKernel<'_> {
    fn resources(&self) -> KernelResources {
        // Same register model as the per-thread kernel: hoisting removes
        // the traversal bookkeeping (adjacent ranges, odometer state,
        // search cursors) but the staging buffer and CSR cursors consume
        // the savings, so occupancy — and Table II — are unchanged.
        KernelResources {
            registers_per_thread: kernel_registers(self.grid.dim, self.plan.unicomp),
            shared_mem_per_block: 0,
        }
    }

    #[inline(always)] // keeps the launch's per-block byte counter in a register
    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        if ctx.global_id >= self.slot_count {
            return;
        }
        let slot = self.slot_offset + ctx.global_id;
        let grid = self.grid;
        let dim = grid.dim;
        let eps_sq = self.eps_sq;

        // Home cell and query point: the slot→cell read replaces the
        // per-thread cell computation + mask clip + own-cell search.
        let h = ctx.read(&self.plan.cell_of_slot, slot) as usize;
        let mut p = [0.0f64; MAX_DIM];
        p[..dim].copy_from_slice(ctx.read_range(&grid.reordered, slot * dim, dim));
        let qid = ctx.read(&grid.a, slot);
        let owns_query = self.ownership.is_none_or(|o| o.keeps(qid));
        if !self.plan.unicomp && !owns_query {
            // Full mode emits only query-keyed pairs; a ghost query's
            // whole traversal would be filtered, so skip it entirely.
            return;
        }
        let owns = |id: u32| self.ownership.is_none_or(|o| o.keeps(id));

        let mut stage = PairStage::new();
        let lo = ctx.read(&self.plan.nbr_offsets, h) as usize;
        let hi = ctx.read(&self.plan.nbr_offsets, h + 1) as usize;

        if self.plan.unicomp {
            // Home cell via the id-ordering rule on slots (slots are a
            // bijection with ids, so "each unordered pair once" holds and
            // no candidate id read is needed below the diagonal). Under
            // UNICOMP a ghost query may be the sole producer of an owned
            // candidate's pair, so filtering is per direction, never a
            // whole-thread skip.
            let own = ctx.read(&grid.g, h);
            for s in (slot as u32 + 1)..own.end {
                let q = ctx.read_range(&grid.reordered, s as usize * dim, dim);
                if dist_sq(&p[..dim], q) <= eps_sq {
                    let cand = ctx.read(&grid.a, s as usize);
                    if owns_query {
                        stage.push(ctx, self.results, Pair::new(qid, cand));
                    }
                    if owns(cand) {
                        stage.push(ctx, self.results, Pair::new(cand, qid));
                    }
                }
            }
            // Parity-selected neighbor cells: both directions per hit.
            for k in lo..hi {
                let nh = ctx.read(&self.plan.nbr_cells, k) as usize;
                let r = ctx.read(&grid.g, nh);
                for s in r.begin..r.end {
                    let q = ctx.read_range(&grid.reordered, s as usize * dim, dim);
                    if dist_sq(&p[..dim], q) <= eps_sq {
                        let cand = ctx.read(&grid.a, s as usize);
                        if owns_query {
                            stage.push(ctx, self.results, Pair::new(qid, cand));
                        }
                        if owns(cand) {
                            stage.push(ctx, self.results, Pair::new(cand, qid));
                        }
                    }
                }
            }
        } else {
            // Full traversal: the list includes the home cell; the slot
            // comparison excludes exactly the query point itself.
            for k in lo..hi {
                let nh = ctx.read(&self.plan.nbr_cells, k) as usize;
                let r = ctx.read(&grid.g, nh);
                for s in r.begin..r.end {
                    if s as usize == slot {
                        continue;
                    }
                    let q = ctx.read_range(&grid.reordered, s as usize * dim, dim);
                    if dist_sq(&p[..dim], q) <= eps_sq {
                        let cand = ctx.read(&grid.a, s as usize);
                        stage.push(ctx, self.results, Pair::new(qid, cand));
                    }
                }
            }
        }
        stage.flush(ctx, self.results);
    }
}

/// Squared Euclidean distance between two register/cache-resident slices.
#[inline]
fn dist_sq(p: &[f64], q: &[f64]) -> f64 {
    let mut acc = 0.0;
    for j in 0..p.len() {
        let d = p[j] - q[j];
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::result::NeighborTable;
    use crate::unicomp::{adjacent_ranges, for_each_full, for_each_unicomp};
    use proptest::prelude::*;
    use sim_gpu::{Device, DeviceSpec};
    use sj_datasets::synthetic::{clustered, lattice, uniform};
    use sj_datasets::Dataset;

    fn run_cell_major(data: &Dataset, eps: f64, unicomp: bool) -> Vec<Pair> {
        let grid = GridIndex::build(data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, data, &grid).unwrap();
        let (plan, stats) =
            CellMajorPlan::build(&dev, &dg, unicomp, LaunchConfig::default()).unwrap();
        assert!(stats.h2d_bytes > 0 || data.is_empty());
        let mut results =
            AppendBuffer::<Pair>::new(dev.pool(), data.len() * data.len() + 64).unwrap();
        let kernel = CellMajorSelfJoinKernel {
            grid: &dg,
            eps_sq: eps * eps,
            plan: &plan,
            results: &results,
            slot_offset: 0,
            slot_count: data.len(),
            ownership: None,
        };
        launch(&dev, LaunchConfig::default(), data.len(), &kernel);
        assert!(!results.overflowed());
        results.drain_to_host()
    }

    fn run_per_thread(data: &Dataset, eps: f64, unicomp: bool) -> Vec<Pair> {
        let grid = GridIndex::build(data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, data, &grid).unwrap();
        let mut results =
            AppendBuffer::<Pair>::new(dev.pool(), data.len() * data.len() + 64).unwrap();
        let kernel = crate::kernels::SelfJoinKernel {
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

    fn assert_paths_agree(data: &Dataset, eps: f64) {
        for unicomp in [false, true] {
            let cm = NeighborTable::from_pairs(data.len(), &run_cell_major(data, eps, unicomp));
            let pt = NeighborTable::from_pairs(data.len(), &run_per_thread(data, eps, unicomp));
            assert_eq!(cm, pt, "unicomp={unicomp}, eps={eps}");
        }
    }

    #[test]
    fn matches_per_thread_kernel_2d() {
        assert_paths_agree(&uniform(2, 500, 61), 4.0);
    }

    #[test]
    fn matches_per_thread_kernel_3d_clustered() {
        assert_paths_agree(&clustered(3, 450, 5, 1.0, 0.1, 62), 1.8);
    }

    #[test]
    fn matches_per_thread_kernel_6d() {
        assert_paths_agree(&uniform(6, 220, 63), 35.0);
    }

    #[test]
    fn duplicate_points_handled() {
        let mut data = Dataset::new(2);
        for _ in 0..7 {
            data.push(&[3.0, 3.0]);
        }
        for unicomp in [false, true] {
            let t = NeighborTable::from_pairs(7, &run_cell_major(&data, 0.5, unicomp));
            assert!(t.is_irreflexive());
            assert_eq!(t.total_pairs(), 42, "unicomp={unicomp}"); // 7×6 directed
        }
    }

    #[test]
    fn slot_batches_partition_results() {
        let data = uniform(2, 500, 64);
        let eps = 4.0;
        let grid = GridIndex::build(&data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let (plan, _) = CellMajorPlan::build(&dev, &dg, true, LaunchConfig::default()).unwrap();
        let mut all = Vec::new();
        for (off, cnt) in [(0usize, 180usize), (180, 180), (360, 140)] {
            let mut results = AppendBuffer::<Pair>::new(dev.pool(), 500 * 500).unwrap();
            let kernel = CellMajorSelfJoinKernel {
                grid: &dg,
                eps_sq: eps * eps,
                plan: &plan,
                results: &results,
                slot_offset: off,
                slot_count: cnt,
                ownership: None,
            };
            launch(&dev, LaunchConfig::default(), cnt, &kernel);
            all.extend(results.drain_to_host());
        }
        let expected = NeighborTable::from_pairs(500, &run_per_thread(&data, eps, false));
        assert_eq!(NeighborTable::from_pairs(500, &all), expected);
    }

    /// The hoisted lists of every home cell, checked against the host
    /// grid's enumeration: the clipped adjacent box (full mode) or its
    /// UNICOMP subset, searched cell by cell with
    /// [`GridIndex::find_cell`], sorted.
    fn assert_lists_match_host(data: &Dataset, eps: f64) {
        let dim = data.dim();
        let grid = GridIndex::build(data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, data, &grid).unwrap();
        for unicomp in [false, true] {
            let (plan, _) =
                CellMajorPlan::build(&dev, &dg, unicomp, LaunchConfig::default()).unwrap();
            let offsets = plan.nbr_offsets.as_slice();
            let values = plan.nbr_cells.as_slice();
            assert_eq!(offsets.len(), grid.b().len() + 1);
            let mut cell = [0u32; MAX_DIM];
            for (h, &lin) in grid.b().iter().enumerate() {
                delinearize(lin, grid.cells_per_dim(), &mut cell[..dim]);
                let mut adj = [(0u32, 0u32); MAX_DIM];
                adjacent_ranges(&cell[..dim], grid.cells_per_dim(), &mut adj[..dim]);
                let mut ranges = [(0u32, 0u32); MAX_DIM];
                for j in 0..dim {
                    ranges[j] = grid.mask_range(j, adj[j].0, adj[j].1).unwrap();
                }
                let mut expected = Vec::new();
                let visit = |coords: &[u32]| {
                    if let Some(nh) = grid.find_cell(linearize(coords, grid.cells_per_dim())) {
                        expected.push(nh as u32);
                    }
                };
                if unicomp {
                    for_each_unicomp(dim, &cell[..dim], &ranges[..dim], visit);
                } else {
                    for_each_full(dim, &ranges[..dim], visit);
                }
                expected.sort_unstable();
                let list = &values[offsets[h] as usize..offsets[h + 1] as usize];
                assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "cell {h} (unicomp={unicomp}): list not strictly ascending: {list:?}"
                );
                assert_eq!(list, &expected[..], "cell {h} (unicomp={unicomp})");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Dims 1–6 on uniform, clustered and duplicate-heavy data; when
        /// `flat < dim`, every point shares one coordinate in dimension
        /// `flat`, so the grid is one non-empty cell wide there.
        #[test]
        fn plan_neighbor_lists_match_host_enumeration(
            dim in 1usize..=6,
            kind in 0u32..3,
            flat in 0usize..8,
            eps in 12.0f64..34.0,
            seed in 0u64..10_000,
        ) {
            let n = 320;
            let mut data = match kind {
                0 => uniform(dim, n, seed),
                1 => clustered(dim, n, 3, 4.0, 0.2, seed),
                _ => {
                    // 40 distinct points, each repeated 8 times.
                    let base = uniform(dim, n / 8, seed);
                    let mut d = Dataset::new(dim);
                    for i in 0..n {
                        d.push(base.point(i % base.len()));
                    }
                    d
                }
            };
            if flat < dim {
                let mut coords = data.coords().to_vec();
                for p in coords.chunks_exact_mut(dim) {
                    p[flat] = 50.0;
                }
                data = Dataset::from_flat(dim, coords);
            }
            assert_lists_match_host(&data, eps);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = Dataset::new(2);
        assert!(run_cell_major(&empty, 1.0, false).is_empty());
        assert!(run_cell_major(&empty, 1.0, true).is_empty());
        let one = lattice(2, 1, 1.0);
        assert!(run_cell_major(&one, 1.0, true).is_empty());
    }

    #[test]
    fn overflow_is_detected_not_ub() {
        let data = uniform(2, 300, 66);
        let grid = GridIndex::build(&data, 20.0).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let (plan, _) = CellMajorPlan::build(&dev, &dg, false, LaunchConfig::default()).unwrap();
        let results = AppendBuffer::<Pair>::new(dev.pool(), 10).unwrap();
        let kernel = CellMajorSelfJoinKernel {
            grid: &dg,
            eps_sq: 20.0 * 20.0,
            plan: &plan,
            results: &results,
            slot_offset: 0,
            slot_count: 300,
            ownership: None,
        };
        launch(&dev, LaunchConfig::default(), 300, &kernel);
        assert!(results.overflowed());
        assert_eq!(results.len(), 10);
    }
}
