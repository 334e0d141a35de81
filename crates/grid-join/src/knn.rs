//! k-nearest-neighbour search on the ε-grid index — the paper's stated
//! future work ("applying this work to other spatial searches, such as
//! kNN", §VII).
//!
//! The self-join's bounded adjacent-cell search generalizes to kNN by
//! expanding the search shell ring by ring: ring `r` visits the cells
//! whose Chebyshev distance to the query cell is exactly `r`. After
//! scanning ring `r`, every unvisited point is at Euclidean distance
//! `> r·ε` from the query cell's boundary, so once `k` candidates are
//! found *and* the k-th best distance is `≤ r·ε`, the search is complete.
//! The same mask arrays `M_j` prune empty stripes of each ring.
//!
//! A [`KnnKernel`] runs one query per simulated-GPU thread; a host
//! implementation ([`host_knn`]) provides the validation oracle.

use crate::device_grid::DeviceGrid;
use crate::grid::{cell_coords, GridIndex};
use crate::linearize::{linearize, MAX_DIM};
use sim_gpu::append::AppendBuffer;
use sim_gpu::occupancy::KernelResources;
use sim_gpu::{launch, Device, Kernel, LaunchConfig, ThreadCtx, Tracer};
use sj_datasets::{euclidean_sq, Dataset};

/// One kNN result record: `(query, neighbour, squared distance)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KnnHit {
    /// Query point id.
    pub query: u32,
    /// Neighbour point id.
    pub neighbor: u32,
    /// Squared Euclidean distance.
    pub dist_sq: f64,
}

/// Bounded max-heap of the best k candidates (arrays, not allocations —
/// this runs inside kernel threads).
struct BestK {
    k: usize,
    len: usize,
    // (dist_sq, id) max-heap by dist_sq, array-backed.
    heap: Vec<(f64, u32)>,
}

impl BestK {
    fn new(k: usize) -> Self {
        Self {
            k,
            len: 0,
            heap: vec![(f64::INFINITY, u32::MAX); k],
        }
    }

    #[inline]
    fn worst(&self) -> f64 {
        if self.len < self.k {
            f64::INFINITY
        } else {
            self.heap[0].0
        }
    }

    #[inline]
    fn push(&mut self, dist_sq: f64, id: u32) {
        if self.len < self.k {
            // Insert and sift up.
            let mut i = self.len;
            self.heap[i] = (dist_sq, id);
            self.len += 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.heap[parent].0 < self.heap[i].0 {
                    self.heap.swap(parent, i);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if dist_sq < self.heap[0].0 {
            // Replace the root and sift down.
            self.heap[0] = (dist_sq, id);
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut largest = i;
                if l < self.len && self.heap[l].0 > self.heap[largest].0 {
                    largest = l;
                }
                if r < self.len && self.heap[r].0 > self.heap[largest].0 {
                    largest = r;
                }
                if largest == i {
                    break;
                }
                self.heap.swap(i, largest);
                i = largest;
            }
        }
    }

    fn into_sorted(mut self) -> Vec<(f64, u32)> {
        self.heap.truncate(self.len);
        self.heap
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        self.heap
    }
}

/// Host-side kNN for one query over the grid (self excluded). Returns up
/// to `k` `(dist_sq, id)` pairs sorted by distance — the oracle the GPU
/// kernel is tested against, and a useful CPU API in its own right.
pub fn host_knn(data: &Dataset, grid: &GridIndex, q: usize, k: usize) -> Vec<(f64, u32)> {
    let dim = grid.dim();
    let eps = grid.epsilon();
    let p = data.point(q);
    let mut cell = [0u32; MAX_DIM];
    grid.cell_of(p, &mut cell[..dim]);
    let mut best = BestK::new(k);

    let max_ring = grid
        .cells_per_dim()
        .iter()
        .map(|&c| c as u32)
        .max()
        .unwrap_or(0);
    for ring in 0..=max_ring as i64 {
        // Completion test: every unvisited point is farther than
        // (ring − 1)·ε (points in rings ≥ ring are at least that far from
        // the query, which sits inside its own cell).
        if best.len == k {
            let safe = (ring - 1).max(0) as f64 * eps;
            if best.worst() <= safe * safe {
                break;
            }
        }
        for_each_ring_cell(dim, &cell[..dim], grid.cells_per_dim(), ring, |coords| {
            let lin = linearize(coords, grid.cells_per_dim());
            if let Some(h) = grid.find_cell(lin) {
                for &cand in grid.cell_points(h) {
                    if cand as usize != q {
                        best.push(euclidean_sq(p, data.point(cand as usize)), cand);
                    }
                }
            }
        });
    }
    best.into_sorted()
}

/// Visits every cell at Chebyshev distance exactly `ring` from `center`,
/// clamped to the grid.
fn for_each_ring_cell<F: FnMut(&[u32])>(
    dim: usize,
    center: &[u32],
    cells_per_dim: &[u64],
    ring: i64,
    mut visit: F,
) {
    let mut coords = [0u32; MAX_DIM];
    ring_rec(
        dim,
        center,
        cells_per_dim,
        ring,
        0,
        false,
        &mut coords,
        &mut visit,
    );
}

#[allow(clippy::too_many_arguments)]
fn ring_rec<F: FnMut(&[u32])>(
    dim: usize,
    center: &[u32],
    cells_per_dim: &[u64],
    ring: i64,
    j: usize,
    on_shell: bool,
    coords: &mut [u32; MAX_DIM],
    visit: &mut F,
) {
    if j == dim {
        if on_shell || ring == 0 {
            visit(&coords[..dim]);
        }
        return;
    }
    let c = center[j] as i64;
    let lo = (c - ring).max(0);
    let hi = (c + ring).min(cells_per_dim[j] as i64 - 1);
    for v in lo..=hi {
        coords[j] = v as u32;
        let at_edge = (v - c).abs() == ring;
        // If no later dimension can put us on the shell, this one must.
        ring_rec(
            dim,
            center,
            cells_per_dim,
            ring,
            j + 1,
            on_shell || at_edge,
            coords,
            visit,
        );
    }
}

/// The GPU kNN kernel: one thread per query point; each thread expands
/// rings until its k-th best distance is covered, then appends its k hits.
pub struct KnnKernel<'a> {
    /// Device-resident grid and data.
    pub grid: &'a DeviceGrid,
    /// Neighbours per query.
    pub k: usize,
    /// Result sink (`k` hits per query, any order).
    pub results: &'a AppendBuffer<KnnHit>,
}

impl Kernel for KnnKernel<'_> {
    fn resources(&self) -> KernelResources {
        KernelResources {
            // The ring state and heap cursor cost a few registers beyond
            // the self-join kernel.
            registers_per_thread: 32 + 4 * self.grid.dim,
            shared_mem_per_block: 0,
        }
    }

    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        let grid = self.grid;
        let q = ctx.global_id;
        if q >= grid.num_points {
            return;
        }
        let dim = grid.dim;
        let eps = grid.epsilon;
        let mut p = [0.0; MAX_DIM];
        p[..dim].copy_from_slice(ctx.read_range(&grid.coords, q * dim, dim));
        let mut cell = [0u32; MAX_DIM];
        cell_coords(
            &p[..dim],
            &grid.gmin[..dim],
            eps,
            &grid.cells_per_dim[..dim],
            &mut cell[..dim],
        );
        let mut best = BestK::new(self.k);
        let max_ring = grid.cells_per_dim[..dim]
            .iter()
            .map(|&c| c as u32)
            .max()
            .unwrap_or(0);
        for ring in 0..=max_ring as i64 {
            if best.len == self.k {
                let safe = (ring - 1).max(0) as f64 * eps;
                if best.worst() <= safe * safe {
                    break;
                }
            }
            for_each_ring_cell(
                dim,
                &cell[..dim],
                &grid.cells_per_dim[..dim],
                ring,
                |coords| {
                    let lin = linearize(coords, &grid.cells_per_dim[..dim]);
                    // Binary-search B (untraced here would hide work; trace it).
                    let n = grid.b.len();
                    let (mut lo, mut hi) = (0usize, n);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if ctx.read(&grid.b, mid) < lin {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    if lo < n && ctx.read(&grid.b, lo) == lin {
                        let range = ctx.read(&grid.g, lo);
                        for ai in range.begin..range.end {
                            let cand = ctx.read(&grid.a, ai as usize);
                            if cand as usize == q {
                                continue;
                            }
                            let cp = ctx.read_range(&grid.coords, cand as usize * dim, dim);
                            let mut acc = 0.0;
                            for d in 0..dim {
                                let diff = p[d] - cp[d];
                                acc += diff * diff;
                            }
                            best.push(acc, cand);
                        }
                    }
                },
            );
        }
        for (dist_sq, id) in best.into_sorted() {
            ctx.trace_atomic(self.results.cursor_addr(), 8);
            if let Some(addr) = self.results.push(KnnHit {
                query: q as u32,
                neighbor: id,
                dist_sq,
            }) {
                ctx.trace_store(addr, std::mem::size_of::<KnnHit>());
            }
        }
    }
}

/// Runs kNN for every point on the simulated device. Cell width is the
/// provided `epsilon` (a tuning knob: smaller cells mean more rings but
/// fewer scans per ring). Returns hits grouped per query, each sorted by
/// distance.
///
/// Builds and uploads a fresh index per call; a resident
/// [`crate::SelfJoinSession`] instead routes kNN through [`gpu_knn_on`]
/// against its cached snapshot.
pub fn gpu_knn(
    device: &Device,
    data: &Dataset,
    epsilon: f64,
    k: usize,
) -> Result<Vec<Vec<KnnHit>>, crate::error::SelfJoinError> {
    let grid = GridIndex::build(data, epsilon)?;
    let dg = DeviceGrid::upload(device, data, &grid)?;
    gpu_knn_on(device, &dg, k)
}

/// [`gpu_knn`] against an already-resident device snapshot: the ring
/// search runs at the snapshot's cell width, so any grid over the dataset
/// serves (cell width only trades rings against per-ring scan size —
/// results are exact either way). The launch is a device operation of the
/// fault model, so a crashed device fails it.
pub fn gpu_knn_on(
    device: &Device,
    dg: &DeviceGrid,
    k: usize,
) -> Result<Vec<Vec<KnnHit>>, crate::error::SelfJoinError> {
    device.fault_check(sim_gpu::FaultOp::Launch)?;
    let n = dg.num_points;
    let mut results = AppendBuffer::<KnnHit>::new(device.pool(), n * k)?;
    let kernel = KnnKernel {
        grid: dg,
        k,
        results: &results,
    };
    launch(device, LaunchConfig::default(), n, &kernel);
    debug_assert!(!results.overflowed());
    let mut grouped: Vec<Vec<KnnHit>> = vec![Vec::new(); n];
    for hit in results.drain_to_host() {
        grouped[hit.query as usize].push(hit);
    }
    for g in &mut grouped {
        g.sort_unstable_by(|a, b| {
            a.dist_sq
                .partial_cmp(&b.dist_sq)
                .expect("finite")
                .then(a.neighbor.cmp(&b.neighbor))
        });
    }
    Ok(grouped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_gpu::DeviceSpec;
    use sj_datasets::synthetic::{clustered, lattice, uniform};

    fn brute_knn(data: &Dataset, q: usize, k: usize) -> Vec<(f64, u32)> {
        let mut all: Vec<(f64, u32)> = (0..data.len())
            .filter(|&j| j != q)
            .map(|j| (euclidean_sq(data.point(q), data.point(j)), j as u32))
            .collect();
        all.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        all.truncate(k);
        all
    }

    /// Distances must match the oracle exactly; ids may differ on ties.
    fn assert_distances_match(got: &[(f64, u32)], want: &[(f64, u32)], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}: wrong k");
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g.0 - w.0).abs() < 1e-12,
                "{label}: distance mismatch {g:?} vs {w:?}"
            );
        }
    }

    #[test]
    fn host_knn_matches_brute_force() {
        let data = uniform(2, 800, 61);
        let grid = GridIndex::build(&data, 3.0).unwrap();
        for q in [0usize, 17, 399, 799] {
            for k in [1usize, 5, 20] {
                let got = host_knn(&data, &grid, q, k);
                let want = brute_knn(&data, q, k);
                assert_distances_match(&got, &want, &format!("q={q},k={k}"));
            }
        }
    }

    #[test]
    fn host_knn_3d_clustered() {
        let data = clustered(3, 600, 4, 1.5, 0.1, 62);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        for q in [3usize, 100, 500] {
            let got = host_knn(&data, &grid, q, 8);
            assert_distances_match(&got, &brute_knn(&data, q, 8), &format!("q={q}"));
        }
    }

    #[test]
    fn gpu_knn_matches_host() {
        let data = uniform(2, 500, 63);
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let grouped = gpu_knn(&device, &data, 5.0, 6).unwrap();
        let grid = GridIndex::build(&data, 5.0).unwrap();
        for (q, hits) in grouped.iter().enumerate() {
            let host: Vec<(f64, u32)> = host_knn(&data, &grid, q, 6);
            assert_eq!(hits.len(), host.len(), "q={q}");
            for (g, h) in hits.iter().zip(&host) {
                assert!((g.dist_sq - h.0).abs() < 1e-12, "q={q}");
            }
        }
    }

    #[test]
    fn k_larger_than_dataset() {
        let data = uniform(2, 10, 64);
        let grid = GridIndex::build(&data, 50.0).unwrap();
        let got = host_knn(&data, &grid, 0, 50);
        assert_eq!(got.len(), 9, "can only return |D|-1 neighbours");
    }

    #[test]
    fn lattice_nearest_are_axis_neighbors() {
        let data = lattice(2, 5, 1.0);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        // Interior point: 4 axis neighbours at distance 1, then diagonals √2.
        let center = 12; // (2, 2)
        let got = host_knn(&data, &grid, center, 8);
        for (d, _) in &got[..4] {
            assert!((d - 1.0).abs() < 1e-12);
        }
        for (d, _) in &got[4..8] {
            assert!((d - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ring_enumeration_counts() {
        // Ring r in 2-D (unclamped) has (2r+1)² − (2r−1)² = 8r cells.
        let cells = [100u64, 100];
        for ring in 1..4i64 {
            let mut n = 0;
            for_each_ring_cell(2, &[50, 50], &cells, ring, |_| n += 1);
            assert_eq!(n, 8 * ring, "ring {ring}");
        }
        let mut n = 0;
        for_each_ring_cell(2, &[50, 50], &cells, 0, |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn bestk_heap_is_correct() {
        let mut b = BestK::new(3);
        for (d, id) in [(5.0, 1u32), (1.0, 2), (3.0, 3), (0.5, 4), (4.0, 5)] {
            b.push(d, id);
        }
        let sorted = b.into_sorted();
        assert_eq!(
            sorted,
            vec![(0.5, 4), (1.0, 2), (3.0, 3)],
            "keeps the 3 smallest"
        );
    }
}
