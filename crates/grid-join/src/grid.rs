//! The ε-grid index (paper §IV-B..D).
//!
//! Space is overlaid with a virtual grid of cells of side length ε,
//! covering `[min_j − ε, max_j + ε]` in every dimension `j`. Only
//! **non-empty** cells are materialized; the index is four arrays:
//!
//! * `B` — sorted linearized ids of the non-empty cells. Existence of a
//!   neighbour cell is decided by binary-searching `B` (paper Fig. 2a).
//! * `G` — for each entry of `B`, the range `[Amin, Amax)` of `A` holding
//!   the cell's points (`|G| = |B|`).
//! * `A` — point ids grouped by cell (`|A| = |D|`).
//! * `M_j` — per-dimension sorted list of cell coordinates that contain at
//!   least one non-empty cell; adjacent-cell ranges are clipped against it
//!   before any binary search of `B` (the paper's masking array).
//!
//! Total space is `O(|B| + |G| + |A|) = O(|D|)` regardless of how sparse
//! the virtual grid is — the property that makes the structure viable in
//! 6-D where materializing `∏|g_j|` cells would be intractable.

use crate::error::GridBuildError;
use crate::linearize::{linearize, total_cells, MAX_DIM};
use rayon::prelude::*;
use sj_datasets::Dataset;

/// Range of `A` belonging to one non-empty cell: `[begin, end)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellRange {
    /// First index into `A`.
    pub begin: u32,
    /// One past the last index into `A`.
    pub end: u32,
}

impl CellRange {
    /// Number of points in the cell.
    pub fn len(&self) -> usize {
        (self.end - self.begin) as usize
    }

    /// Whether the range is empty (never true for materialized cells).
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }
}

/// The host-side ε-grid index over a dataset.
///
/// # The reordered-snapshot invariant (cell-major layout)
///
/// Besides the paper's four arrays, the index materializes a **cell-major
/// coordinate snapshot**: `reordered_coords()` holds every point's
/// coordinates permuted into `A`-order, so that *slot* `s` (a position in
/// `A`) stores point `A[s]`'s coordinates at
/// `reordered_coords()[s * dim .. (s + 1) * dim]`. A cell's points are
/// therefore one contiguous `dim`-strided scan — no `data[A[s]]` gather —
/// and `A` doubles as the **id remap**: kernels that traverse slots emit
/// original point ids by reading `A[s]`. The snapshot is immutable after
/// `build` and always consistent with `A`/`G` (the cell-major kernels and
/// their exact-equality tests rely on this contract).
#[derive(Clone, Debug)]
pub struct GridIndex {
    dim: usize,
    epsilon: f64,
    /// `gmin_j`: grid origin per dimension (dataset min − ε).
    gmin: Vec<f64>,
    /// `|g_j|`: cell count per dimension.
    cells_per_dim: Vec<u64>,
    /// Sorted linear ids of non-empty cells.
    b: Vec<u64>,
    /// Point ranges per non-empty cell, aligned with `b`.
    g: Vec<CellRange>,
    /// Point ids grouped by cell.
    a: Vec<u32>,
    /// Per-dimension sorted non-empty cell coordinates (mask arrays).
    m: Vec<Vec<u32>>,
    /// Cell-major coordinate snapshot: point `a[s]`'s coordinates live at
    /// `reordered[s * dim .. (s + 1) * dim]` (see struct docs).
    reordered: Vec<f64>,
}

impl GridIndex {
    /// Builds the index for `data` at search radius `epsilon`.
    pub fn build(data: &Dataset, epsilon: f64) -> Result<Self, GridBuildError> {
        let dim = data.dim();
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(GridBuildError::InvalidEpsilon(epsilon));
        }
        if dim > MAX_DIM {
            return Err(GridBuildError::TooManyDimensions { dim, max: MAX_DIM });
        }
        if data.is_empty() {
            return Ok(Self {
                dim,
                epsilon,
                gmin: vec![0.0; dim],
                cells_per_dim: vec![1; dim],
                b: Vec::new(),
                g: Vec::new(),
                a: Vec::new(),
                m: vec![Vec::new(); dim],
                reordered: Vec::new(),
            });
        }
        if data.len() > u32::MAX as usize {
            return Err(GridBuildError::TooManyPoints(data.len()));
        }
        // Reject non-finite coordinates up front: NaN would poison the
        // min/max fold and the floor-based cell mapping silently.
        for (i, p) in data.iter().enumerate() {
            for (j, &x) in p.iter().enumerate() {
                if !x.is_finite() {
                    return Err(GridBuildError::NonFiniteCoordinate { point: i, dim: j });
                }
            }
        }
        let mins = data.min_per_dim().expect("non-empty");
        let maxs = data.max_per_dim().expect("non-empty");

        // Extend the range by ε on both sides so adjacent-cell lookups of
        // boundary points never leave the grid (paper §IV-B).
        let gmin: Vec<f64> = mins.iter().map(|&m| m - epsilon).collect();
        let mut cells_per_dim = Vec::with_capacity(dim);
        for j in 0..dim {
            let span = (maxs[j] + epsilon) - gmin[j];
            let cells = (span / epsilon).floor() as u64 + 1;
            cells_per_dim.push(cells);
        }
        if total_cells(&cells_per_dim).is_none() {
            return Err(GridBuildError::CellSpaceOverflow {
                cells_per_dim: cells_per_dim.clone(),
            });
        }

        // Assign each point its cell's linear id.
        let n = data.len();
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n);
        let mut coords_buf = [0u32; MAX_DIM];
        for (i, p) in data.iter().enumerate() {
            let c = &mut coords_buf[..dim];
            cell_coords(p, &gmin, epsilon, &cells_per_dim, c);
            keyed.push((linearize(c, &cells_per_dim), i as u32));
        }
        // Grouping sort: the dominant build cost; parallel and stable
        // output (ids are unique, so unstable parallel sort is
        // deterministic here).
        keyed.par_sort_unstable();

        // Cell-major snapshot: coordinates permuted into A-order so each
        // cell's points are contiguous (see struct docs).
        let mut reordered = Vec::with_capacity(n * dim);
        for &(_, pid) in &keyed {
            reordered.extend_from_slice(data.point(pid as usize));
        }

        // Group into the B/G/A arrays.
        let mut b = Vec::new();
        let mut g: Vec<CellRange> = Vec::new();
        let mut a = Vec::with_capacity(n);
        for (idx, &(cell, pid)) in keyed.iter().enumerate() {
            if b.last() != Some(&cell) {
                if let Some(last) = g.last_mut() {
                    last.end = idx as u32;
                }
                b.push(cell);
                g.push(CellRange {
                    begin: idx as u32,
                    end: idx as u32,
                });
            }
            a.push(pid);
        }
        if let Some(last) = g.last_mut() {
            last.end = n as u32;
        }

        // Mask arrays: per-dimension sorted unique coordinates of
        // non-empty cells.
        let mut m: Vec<Vec<u32>> = vec![Vec::new(); dim];
        let mut cbuf = [0u32; MAX_DIM];
        for &cell in &b {
            crate::linearize::delinearize(cell, &cells_per_dim, &mut cbuf[..dim]);
            for j in 0..dim {
                m[j].push(cbuf[j]);
            }
        }
        for mj in &mut m {
            mj.sort_unstable();
            mj.dedup();
        }

        Ok(Self {
            dim,
            epsilon,
            gmin,
            cells_per_dim,
            b,
            g,
            a,
            m,
            reordered,
        })
    }

    /// Dimensionality of the indexed data.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The cell side length (= the search radius ε).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Grid origin per dimension.
    pub fn gmin(&self) -> &[f64] {
        &self.gmin
    }

    /// Cell count `|g_j|` per dimension.
    pub fn cells_per_dim(&self) -> &[u64] {
        &self.cells_per_dim
    }

    /// The sorted non-empty-cell id array `B`.
    pub fn b(&self) -> &[u64] {
        &self.b
    }

    /// The per-cell point ranges `G`.
    pub fn g(&self) -> &[CellRange] {
        &self.g
    }

    /// The grouped point-id array `A`.
    pub fn a(&self) -> &[u32] {
        &self.a
    }

    /// The mask array `M_j` for dimension `j`.
    pub fn m(&self, j: usize) -> &[u32] {
        &self.m[j]
    }

    /// The cell-major coordinate snapshot: slot `s` of `A` has its point's
    /// coordinates at `[s * dim, (s + 1) * dim)`. See the struct docs for
    /// the invariant and the id-remap contract (`A` maps slot → original
    /// id).
    pub fn reordered_coords(&self) -> &[f64] {
        &self.reordered
    }

    /// Number of non-empty cells `|G| = |B|`.
    pub fn non_empty_cells(&self) -> usize {
        self.b.len()
    }

    /// Bytes a [`Self::build`] over `n` points in `dim` dimensions
    /// streams — the count its modeled host time is priced from
    /// ([`sim_gpu::host_core_time`]). Per point: five reads of the
    /// coordinates (finiteness check, min, max, cell keying, cell-major
    /// gather) plus the snapshot write, and the 16-byte `(cell, id)` key
    /// written by the keying pass, read and written once by the grouping
    /// sort, and read by the gather and grouping passes, plus its 4-byte
    /// `A` entry. The per-cell arrays are bounded by `n` and left out, so
    /// the count depends on `n` and `dim` alone and a cost projection
    /// predicts it exactly from a predicted point count.
    pub fn build_bytes(n: usize, dim: usize) -> u64 {
        n as u64 * (48 * dim as u64 + 84)
    }

    /// Index size in bytes (B + G + A + M plus the cell-major coordinate
    /// snapshot), the quantity the paper argues stays `O(|D|)` — the
    /// snapshot adds `8 · dim` bytes per point but no dependence on the
    /// virtual cell count.
    pub fn size_bytes(&self) -> usize {
        self.b.len() * 8
            + self.g.len() * 8
            + self.a.len() * 4
            + self.m.iter().map(|mj| mj.len() * 4).sum::<usize>()
            + self.reordered.len() * 8
    }

    /// Computes the cell coordinates of a point.
    pub fn cell_of(&self, p: &[f64], out: &mut [u32]) {
        cell_coords(p, &self.gmin, self.epsilon, &self.cells_per_dim, out);
    }

    /// Binary-searches `B` for a linear cell id; returns the index into
    /// `G` when the cell exists.
    #[inline]
    pub fn find_cell(&self, linear_id: u64) -> Option<usize> {
        self.b.binary_search(&linear_id).ok()
    }

    /// The points of the cell at position `h` in `B`/`G`.
    pub fn cell_points(&self, h: usize) -> &[u32] {
        let r = self.g[h];
        &self.a[r.begin as usize..r.end as usize]
    }

    /// Clips the adjacent-cell range `[lo, hi]` in dimension `j` against
    /// the mask `M_j` (the paper's `O_j ∩ M_j`). Returns `None` when no
    /// non-empty coordinate falls inside.
    #[inline]
    pub fn mask_range(&self, j: usize, lo: u32, hi: u32) -> Option<(u32, u32)> {
        mask_range(&self.m[j], lo, hi)
    }
}

/// Computes cell coordinates for a point given grid geometry. Coordinates
/// are clamped to the grid (the ±ε padding guarantees interior placement
/// for all indexed points; clamping only guards against float edge cases).
#[inline]
pub fn cell_coords(p: &[f64], gmin: &[f64], epsilon: f64, cells_per_dim: &[u64], out: &mut [u32]) {
    for j in 0..p.len() {
        let c = ((p[j] - gmin[j]) / epsilon).floor();
        let c = if c < 0.0 { 0 } else { c as u64 };
        out[j] = c.min(cells_per_dim[j] - 1) as u32;
    }
}

/// Standalone mask clip used by both host and kernel code paths.
#[inline]
pub fn mask_range(mask: &[u32], lo: u32, hi: u32) -> Option<(u32, u32)> {
    // Smallest masked coord ≥ lo.
    let start = mask.partition_point(|&c| c < lo);
    if start == mask.len() || mask[start] > hi {
        return None;
    }
    // Largest masked coord ≤ hi.
    let end = mask.partition_point(|&c| c <= hi);
    Some((mask[start], mask[end - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_datasets::synthetic::{lattice, uniform};

    #[test]
    fn build_on_empty_dataset() {
        let g = GridIndex::build(&Dataset::new(3), 1.0).unwrap();
        assert_eq!(g.non_empty_cells(), 0);
        assert_eq!(g.a().len(), 0);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let d = uniform(2, 10, 0);
        assert!(matches!(
            GridIndex::build(&d, 0.0),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            GridIndex::build(&d, f64::NAN),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            GridIndex::build(&d, -1.0),
            Err(GridBuildError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn every_point_appears_exactly_once_in_a() {
        let d = uniform(3, 2000, 5);
        let g = GridIndex::build(&d, 5.0).unwrap();
        let mut ids: Vec<u32> = g.a().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (0..2000u32).collect::<Vec<_>>());
    }

    #[test]
    fn g_ranges_partition_a() {
        let d = uniform(2, 1000, 6);
        let g = GridIndex::build(&d, 2.0).unwrap();
        let mut cursor = 0u32;
        for r in g.g() {
            assert_eq!(r.begin, cursor, "ranges must tile A contiguously");
            assert!(r.end > r.begin, "materialized cells are non-empty");
            cursor = r.end;
        }
        assert_eq!(cursor as usize, g.a().len());
    }

    #[test]
    fn b_is_sorted_and_unique() {
        let d = uniform(4, 3000, 7);
        let g = GridIndex::build(&d, 10.0).unwrap();
        assert!(g.b().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(g.b().len(), g.g().len());
    }

    #[test]
    fn points_fall_in_their_assigned_cell() {
        let d = uniform(3, 500, 8);
        let g = GridIndex::build(&d, 3.0).unwrap();
        let mut coords = [0u32; MAX_DIM];
        for (h, &cell_id) in g.b().iter().enumerate() {
            for &pid in g.cell_points(h) {
                g.cell_of(d.point(pid as usize), &mut coords[..3]);
                assert_eq!(
                    linearize(&coords[..3], g.cells_per_dim()),
                    cell_id,
                    "point {pid} stored in wrong cell"
                );
            }
        }
    }

    #[test]
    fn lattice_points_one_per_cell() {
        // Points spaced 2.0 apart with ε = 1.0 land in distinct cells.
        let d = lattice(2, 4, 2.0);
        let g = GridIndex::build(&d, 1.0).unwrap();
        assert_eq!(g.non_empty_cells(), 16);
        for r in g.g() {
            assert_eq!(r.len(), 1);
        }
    }

    #[test]
    fn dense_cluster_single_cell() {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[5.0 + i as f64 * 0.01, 5.0]);
        }
        let g = GridIndex::build(&d, 1.0).unwrap();
        assert_eq!(g.non_empty_cells(), 1);
        assert_eq!(g.g()[0].len(), 10);
    }

    #[test]
    fn mask_arrays_cover_cell_coords() {
        let d = uniform(3, 400, 9);
        let g = GridIndex::build(&d, 8.0).unwrap();
        let mut cbuf = [0u32; MAX_DIM];
        for &cell in g.b() {
            crate::linearize::delinearize(cell, g.cells_per_dim(), &mut cbuf[..3]);
            for (j, &c) in cbuf[..3].iter().enumerate() {
                assert!(g.m(j).binary_search(&c).is_ok());
            }
        }
        for j in 0..3 {
            assert!(g.m(j).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn mask_range_clips() {
        let mask = vec![1u32, 2, 5, 9];
        assert_eq!(mask_range(&mask, 0, 3), Some((1, 2)));
        assert_eq!(mask_range(&mask, 3, 4), None);
        assert_eq!(mask_range(&mask, 2, 9), Some((2, 9)));
        assert_eq!(mask_range(&mask, 10, 20), None);
        assert_eq!(mask_range(&mask, 0, 0), None);
        assert_eq!(mask_range(&mask, 9, 9), Some((9, 9)));
        assert_eq!(mask_range(&[], 0, 10), None);
    }

    #[test]
    fn find_cell_hits_and_misses() {
        let d = lattice(2, 3, 2.0);
        let g = GridIndex::build(&d, 1.0).unwrap();
        for &cell in g.b() {
            assert!(g.find_cell(cell).is_some());
        }
        let max_id = *g.b().last().unwrap();
        assert!(g.find_cell(max_id + 1_000_000).is_none());
    }

    #[test]
    fn reordered_snapshot_matches_a_order() {
        // The invariant the cell-major kernels rely on: slot s of A holds
        // point a[s], and its coordinates are at reordered[s*dim..].
        for dim in [2usize, 3, 6] {
            let d = uniform(dim, 700, 77);
            let g = GridIndex::build(&d, 12.0 * dim as f64).unwrap();
            let r = g.reordered_coords();
            assert_eq!(r.len(), d.len() * dim);
            for (s, &pid) in g.a().iter().enumerate() {
                assert_eq!(
                    &r[s * dim..(s + 1) * dim],
                    d.point(pid as usize),
                    "slot {s} (dim {dim})"
                );
            }
        }
        let empty = GridIndex::build(&Dataset::new(3), 1.0).unwrap();
        assert!(empty.reordered_coords().is_empty());
    }

    #[test]
    fn size_is_linear_in_points() {
        // Index size must not blow up with dimension (only with |D|).
        let d2 = uniform(2, 4000, 1);
        let d6 = uniform(6, 4000, 1);
        let g2 = GridIndex::build(&d2, 1.0).unwrap();
        let g6 = GridIndex::build(&d6, 20.0).unwrap();
        // Both are O(|D|): within a small constant factor of each other.
        assert!(g6.size_bytes() < 4 * g2.size_bytes());
    }

    #[test]
    fn boundary_points_have_interior_cells() {
        // Points at the exact data min/max must not land in the outermost
        // (padding) cell layer.
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0]);
        d.push(&[10.0, 10.0]);
        let g = GridIndex::build(&d, 1.0).unwrap();
        let mut c = [0u32; MAX_DIM];
        g.cell_of(&[0.0, 0.0], &mut c[..2]);
        assert!(c[0] >= 1 && c[1] >= 1, "min point in padding layer: {c:?}");
        g.cell_of(&[10.0, 10.0], &mut c[..2]);
        assert!(
            (c[0] as u64) < g.cells_per_dim()[0] - 1,
            "max point in padding layer"
        );
    }

    #[test]
    fn non_finite_coordinates_rejected() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 2.0]);
        d.push(&[f64::NAN, 0.0]);
        assert!(matches!(
            GridIndex::build(&d, 1.0),
            Err(GridBuildError::NonFiniteCoordinate { point: 1, dim: 0 })
        ));
        let mut d = Dataset::new(2);
        d.push(&[1.0, f64::INFINITY]);
        assert!(matches!(
            GridIndex::build(&d, 1.0),
            Err(GridBuildError::NonFiniteCoordinate { point: 0, dim: 1 })
        ));
    }

    #[test]
    fn too_many_dimensions_rejected() {
        let d = uniform(MAX_DIM + 1, 10, 0);
        assert!(matches!(
            GridIndex::build(&d, 1.0),
            Err(GridBuildError::TooManyDimensions { .. })
        ));
    }
}
