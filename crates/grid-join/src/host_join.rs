//! Host-side grid joins: a sequential reference and a rayon-parallel
//! variant.
//!
//! These are *independent* implementations of the ε-grid self-join: they
//! touch neither the device model nor the plan executor, and share no
//! code with either. They serve two purposes: the reference the GPU
//! kernels are checked against (two implementations agreeing on random
//! inputs is the repo's strongest correctness signal — the paper's host
//! grid join plays the same role) and the "multi-core CPU" comparison
//! point of some ablation benches.
//!
//! Every host path — sequential, parallel and the single-point
//! [`query_neighbors`] — funnels through one adjacent-cell scan,
//! [`query_neighbors_within`]. The `_within` form takes an explicit query
//! radius ε′ ≤ ε_built, so a coarse grid answers a smaller-ε query
//! exactly, without a rebuild.

use crate::grid::GridIndex;
use crate::linearize::{linearize, MAX_DIM};
use crate::result::{NeighborTable, Pair};
use crate::unicomp::{adjacent_ranges, for_each_full};
use rayon::prelude::*;
use sj_datasets::{euclidean_sq, Dataset};

/// Sequential host self-join over the grid index at the grid's ε.
/// Returns the directed, self-excluded neighbour table.
pub fn host_self_join(data: &Dataset, grid: &GridIndex) -> NeighborTable {
    let pairs = host_pairs_for_range_within(data, grid, grid.epsilon(), 0, data.len());
    NeighborTable::from_pairs(data.len(), &pairs)
}

/// Parallel host self-join: the same scan, rayon over query chunks.
pub fn host_self_join_parallel(data: &Dataset, grid: &GridIndex) -> NeighborTable {
    let n = data.len();
    // ~8 chunks per thread for load balance; `div_ceil` keeps the chunk
    // size ≥ 1 for any `n`, and the cap bounds per-chunk scratch growth
    // on huge inputs.
    let threads = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(threads * 8).clamp(1, 1 << 16);
    let pairs: Vec<Pair> = (0..n.div_ceil(chunk))
        .into_par_iter()
        .flat_map_iter(|ci| {
            let lo = ci * chunk;
            host_pairs_for_range_within(data, grid, grid.epsilon(), lo, chunk.min(n - lo))
        })
        .collect();
    NeighborTable::from_pairs(n, &pairs)
}

/// Directed pairs for queries in `[offset, offset + count)` at query
/// radius `query_epsilon` (≤ the grid's cell width; see
/// [`query_neighbors_within`]).
pub fn host_pairs_for_range_within(
    data: &Dataset,
    grid: &GridIndex,
    query_epsilon: f64,
    offset: usize,
    count: usize,
) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for q in offset..offset + count {
        query_neighbors_within(data, grid, q, query_epsilon, |cand| {
            pairs.push(Pair::new(q as u32, cand));
        });
    }
    pairs
}

/// Runs one ε-range query through the grid at the grid's own ε, invoking
/// `emit` for every neighbour of point `q` (self excluded).
pub fn query_neighbors<F: FnMut(u32)>(data: &Dataset, grid: &GridIndex, q: usize, emit: F) {
    query_neighbors_within(data, grid, q, grid.epsilon(), emit)
}

/// The one adjacent-cell neighbour scan every host path uses: runs a
/// range query for point `q` at radius `query_epsilon`, invoking `emit`
/// for every neighbour (self excluded).
///
/// `query_epsilon` must not exceed the grid's cell width — the one-cell
/// adjacent shell covers any radius up to ε_built, which is what lets a
/// resident index serve smaller-ε queries without a rebuild.
///
/// # Panics
///
/// Panics if `query_epsilon` exceeds the grid's cell width (the scan
/// would silently miss neighbours; a release-mode under-count is worse
/// than a panic).
pub fn query_neighbors_within<F: FnMut(u32)>(
    data: &Dataset,
    grid: &GridIndex,
    q: usize,
    query_epsilon: f64,
    mut emit: F,
) {
    assert!(
        query_epsilon <= grid.epsilon(),
        "query epsilon {query_epsilon} exceeds the grid cell width {}",
        grid.epsilon()
    );
    let dim = grid.dim();
    let eps_sq = query_epsilon * query_epsilon;
    let p = data.point(q);
    let mut cell = [0u32; MAX_DIM];
    grid.cell_of(p, &mut cell[..dim]);
    let mut adj = [(0u32, 0u32); MAX_DIM];
    adjacent_ranges(&cell[..dim], grid.cells_per_dim(), &mut adj[..dim]);
    let mut filtered = [(0u32, 0u32); MAX_DIM];
    for j in 0..dim {
        match grid.mask_range(j, adj[j].0, adj[j].1) {
            Some(r) => filtered[j] = r,
            None => return, // cannot happen for indexed points
        }
    }
    for_each_full(dim, &filtered[..dim], |coords| {
        let lin = linearize(coords, grid.cells_per_dim());
        if let Some(h) = grid.find_cell(lin) {
            for &cand in grid.cell_points(h) {
                if cand as usize != q && euclidean_sq(p, data.point(cand as usize)) <= eps_sq {
                    emit(cand);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_datasets::synthetic::{clustered, lattice, uniform};

    fn brute(data: &Dataset, eps: f64) -> NeighborTable {
        let eps_sq = eps * eps;
        let mut pairs = Vec::new();
        for i in 0..data.len() {
            for j in 0..data.len() {
                if i != j && euclidean_sq(data.point(i), data.point(j)) <= eps_sq {
                    pairs.push(Pair::new(i as u32, j as u32));
                }
            }
        }
        NeighborTable::from_pairs(data.len(), &pairs)
    }

    #[test]
    fn sequential_matches_brute_2d() {
        let data = uniform(2, 400, 21);
        let grid = GridIndex::build(&data, 4.0).unwrap();
        assert_eq!(host_self_join(&data, &grid), brute(&data, 4.0));
    }

    #[test]
    fn sequential_matches_brute_5d() {
        let data = uniform(5, 250, 22);
        let grid = GridIndex::build(&data, 25.0).unwrap();
        assert_eq!(host_self_join(&data, &grid), brute(&data, 25.0));
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = clustered(3, 600, 6, 1.5, 0.1, 23);
        let grid = GridIndex::build(&data, 2.0).unwrap();
        assert_eq!(
            host_self_join_parallel(&data, &grid),
            host_self_join(&data, &grid)
        );
    }

    #[test]
    fn parallel_handles_tiny_inputs() {
        // Chunk sizing must not degenerate when n ≪ threads × 8.
        for n in [0usize, 1, 3, 17] {
            let data = uniform(2, n.max(1), 26);
            let data = if n == 0 { Dataset::new(2) } else { data };
            let grid = GridIndex::build(&data, 5.0).unwrap();
            assert_eq!(
                host_self_join_parallel(&data, &grid),
                host_self_join(&data, &grid),
                "n={n}"
            );
        }
    }

    #[test]
    fn shrunk_query_epsilon_matches_fresh_grid() {
        // The reuse property the session layer relies on, at host level:
        // scanning a coarse grid with ε′ < ε_built equals a fresh build at
        // ε′ exactly.
        let data = uniform(2, 500, 27);
        let built = 5.0;
        let grid = GridIndex::build(&data, built).unwrap();
        for frac in [0.3, 0.5, 0.8, 1.0] {
            let eps_q = built * frac;
            let pairs = host_pairs_for_range_within(&data, &grid, eps_q, 0, data.len());
            let got = NeighborTable::from_pairs(data.len(), &pairs);
            assert_eq!(got, brute(&data, eps_q), "frac={frac}");
        }
    }

    #[test]
    fn lattice_neighbor_counts() {
        // ε = spacing: each interior lattice point has exactly 4 axis
        // neighbours in 2-D (diagonal distance √2 > 1).
        let data = lattice(2, 6, 1.0);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        let t = host_self_join(&data, &grid);
        let mut counts: Vec<usize> = (0..36).map(|i| t.neighbors(i).len()).collect();
        counts.sort_unstable();
        // 4 corners with 2, 16 edge points with 3, 16 interior with 4.
        assert_eq!(&counts[..4], &[2, 2, 2, 2]);
        assert_eq!(counts.iter().filter(|&&c| c == 3).count(), 16);
        assert_eq!(counts.iter().filter(|&&c| c == 4).count(), 16);
    }

    #[test]
    fn range_partition_reassembles() {
        let data = uniform(2, 300, 24);
        let grid = GridIndex::build(&data, 5.0).unwrap();
        let eps = grid.epsilon();
        let mut all = host_pairs_for_range_within(&data, &grid, eps, 0, 150);
        all.extend(host_pairs_for_range_within(&data, &grid, eps, 150, 150));
        assert_eq!(
            NeighborTable::from_pairs(300, &all),
            host_self_join(&data, &grid)
        );
    }

    #[test]
    fn table_invariants_hold() {
        let data = uniform(4, 300, 25);
        let grid = GridIndex::build(&data, 15.0).unwrap();
        let t = host_self_join(&data, &grid);
        assert!(t.is_symmetric());
        assert!(t.is_irreflexive());
    }
}
