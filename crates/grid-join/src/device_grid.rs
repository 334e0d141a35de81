//! Device-resident copy of the grid index.
//!
//! Mirrors the paper's kernel inputs (`D`, `A`, `G`, `B`, `M`, ε) as
//! capacity-accounted device buffers plus small scalars that a CUDA kernel
//! would receive by value. The mask arrays `M_j` are flattened into one
//! buffer with per-dimension offsets.

use crate::grid::{CellRange, GridIndex};
use crate::linearize::MAX_DIM;
use sim_gpu::{Device, DeviceBuffer, OutOfMemory};
use sj_datasets::Dataset;

/// The grid index and point data uploaded to the simulated device.
#[derive(Debug)]
pub struct DeviceGrid {
    /// Dimensionality `n`.
    pub dim: usize,
    /// Search radius / cell width ε.
    pub epsilon: f64,
    /// Number of indexed points `|D|`.
    pub num_points: usize,
    /// Grid origin per dimension.
    pub gmin: [f64; MAX_DIM],
    /// Cell counts `|g_j]` per dimension.
    pub cells_per_dim: [u64; MAX_DIM],
    /// Flat row-major point coordinates (`D`), indexed by original id.
    pub coords: DeviceBuffer<f64>,
    /// Cell-major coordinate snapshot, indexed by `A`-slot: slot `s`'s
    /// point (`A[s]`) has its coordinates at `[s * dim, (s + 1) * dim)`,
    /// so a cell's points are one contiguous scan (see
    /// [`GridIndex::reordered_coords`]).
    pub reordered: DeviceBuffer<f64>,
    /// Point ids grouped by cell (`A`).
    pub a: DeviceBuffer<u32>,
    /// Sorted non-empty-cell linear ids (`B`).
    pub b: DeviceBuffer<u64>,
    /// Per-cell point ranges (`G`).
    pub g: DeviceBuffer<CellRange>,
    /// Flattened mask arrays (`M_1 ‖ M_2 ‖ …`).
    pub m_values: DeviceBuffer<u32>,
    /// `m_offsets[j]..m_offsets[j+1]` slices `m_values` for dimension `j`.
    pub m_offsets: [usize; MAX_DIM + 1],
}

impl DeviceGrid {
    /// Uploads a host grid index and its dataset to the device.
    pub fn upload(device: &Device, data: &Dataset, grid: &GridIndex) -> Result<Self, OutOfMemory> {
        let dim = grid.dim();
        assert_eq!(data.dim(), dim, "dataset/grid dimensionality mismatch");
        let mut gmin = [0.0; MAX_DIM];
        gmin[..dim].copy_from_slice(grid.gmin());
        let mut cells_per_dim = [1u64; MAX_DIM];
        cells_per_dim[..dim].copy_from_slice(grid.cells_per_dim());

        let mut m_flat = Vec::new();
        let mut m_offsets = [0usize; MAX_DIM + 1];
        for (j, off) in m_offsets.iter_mut().enumerate().take(dim) {
            *off = m_flat.len();
            m_flat.extend_from_slice(grid.m(j));
        }
        for off in m_offsets.iter_mut().skip(dim) {
            *off = m_flat.len();
        }

        Ok(Self {
            dim,
            epsilon: grid.epsilon(),
            num_points: data.len(),
            gmin,
            cells_per_dim,
            coords: device.alloc_from_host(data.coords())?,
            reordered: device.alloc_from_host(grid.reordered_coords())?,
            a: device.alloc_from_host(grid.a())?,
            b: device.alloc_from_host(grid.b())?,
            g: device.alloc_from_host(grid.g())?,
            m_values: device.alloc_from_host(&m_flat)?,
            m_offsets,
        })
    }

    /// Bytes uploaded host→device (for the transfer-overlap model).
    pub fn h2d_bytes(&self) -> usize {
        self.coords.size_bytes()
            + self.reordered.size_bytes()
            + self.a.size_bytes()
            + self.b.size_bytes()
            + self.g.size_bytes()
            + self.m_values.size_bytes()
    }

    /// The mask slice bounds for dimension `j`.
    #[inline]
    pub fn mask_bounds(&self, j: usize) -> (usize, usize) {
        (self.m_offsets[j], self.m_offsets[j + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_gpu::DeviceSpec;
    use sj_datasets::synthetic::uniform;

    #[test]
    fn upload_mirrors_host_grid() {
        let data = uniform(3, 500, 3);
        let grid = GridIndex::build(&data, 10.0).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        assert_eq!(dg.dim, 3);
        assert_eq!(dg.num_points, 500);
        assert_eq!(dg.b.as_slice(), grid.b());
        assert_eq!(dg.a.as_slice(), grid.a());
        assert_eq!(dg.g.as_slice(), grid.g());
        assert_eq!(dg.coords.as_slice(), data.coords());
        assert_eq!(dg.reordered.as_slice(), grid.reordered_coords());
        for j in 0..3 {
            let (lo, hi) = dg.mask_bounds(j);
            assert_eq!(&dg.m_values.as_slice()[lo..hi], grid.m(j));
        }
        assert!(dg.h2d_bytes() > 0);
        assert_eq!(
            dev.used_bytes(),
            dg.h2d_bytes(),
            "device accounting must match uploaded bytes"
        );
    }

    #[test]
    fn upload_fails_on_tiny_device() {
        let data = uniform(2, 100_000, 4);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        let dev = Device::new(DeviceSpec::small_test_device());
        // 100k points × 2 dims × 8 bytes = 1.6 MB coords alone; the small
        // test device has 8 MiB so this fits — shrink further.
        let tiny = Device::new(DeviceSpec::titan_x_with_memory(1024 * 1024));
        assert!(DeviceGrid::upload(&tiny, &data, &grid).is_err());
        assert!(DeviceGrid::upload(&dev, &data, &grid).is_ok());
    }
}
