//! Result-set representation.
//!
//! The paper's kernels emit `(key, value)` pairs — key = query point id,
//! value = the point found within ε — into a device buffer, then sort by
//! key and transfer to the host (Algorithm 1). [`Pair`] is that record;
//! [`NeighborTable`] is the host-side CSR-style adjacency built from the
//! sorted pairs, which is what downstream consumers (e.g. DBSCAN) use.
//!
//! Semantics: pairs are *directed* and **exclude self-pairs** — every
//! unordered neighbour pair `{p, q}` with `dist(p, q) ≤ ε`, `p ≠ q`
//! appears as both `(p, q)` and `(q, p)`. All five algorithms in this
//! workspace produce identical tables, which the integration tests assert.

/// One self-join result record (matches the paper's key/value pair).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pair {
    /// Query point id.
    pub key: u32,
    /// Neighbor point id.
    pub value: u32,
}

impl Pair {
    /// Convenience constructor.
    #[inline]
    pub fn new(key: u32, value: u32) -> Self {
        Self { key, value }
    }
}

/// CSR-style neighbor lists for every point of the dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborTable {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl NeighborTable {
    /// Builds the table from result pairs for a dataset of `num_points`
    /// points. Pairs need not be sorted; each adjacency list ends up
    /// sorted ascending (deterministic regardless of producer schedule).
    ///
    /// # Panics
    ///
    /// Panics if any pair references a point id `>= num_points`.
    pub fn from_pairs(num_points: usize, pairs: &[Pair]) -> Self {
        let mut counts = vec![0usize; num_points + 1];
        for p in pairs {
            assert!(
                (p.key as usize) < num_points && (p.value as usize) < num_points,
                "pair ({}, {}) out of range {num_points}",
                p.key,
                p.value
            );
            counts[p.key as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; pairs.len()];
        for p in pairs {
            let k = p.key as usize;
            neighbors[cursor[k]] = p.value;
            cursor[k] += 1;
        }
        for w in offsets.windows(2) {
            neighbors[w[0]..w[1]].sort_unstable();
        }
        Self { offsets, neighbors }
    }

    /// Number of points the table covers.
    pub fn num_points(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted neighbor list of point `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total number of directed pairs.
    pub fn total_pairs(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of duplicate directed pairs: every list is sorted, so a
    /// repeat is an adjacent equal entry, counted in one linear pass. A
    /// join that emits each pair exactly once yields 0.
    pub fn duplicate_pairs(&self) -> u64 {
        self.offsets
            .windows(2)
            .map(|w| {
                self.neighbors[w[0]..w[1]]
                    .windows(2)
                    .filter(|v| v[0] == v[1])
                    .count() as u64
            })
            .sum()
    }

    /// Average neighbors per point (the paper's selectivity measure).
    pub fn avg_neighbors(&self) -> f64 {
        if self.num_points() == 0 {
            0.0
        } else {
            self.total_pairs() as f64 / self.num_points() as f64
        }
    }

    /// Checks the reflexivity invariant: `q ∈ N(p) ⇔ p ∈ N(q)`.
    pub fn is_symmetric(&self) -> bool {
        for p in 0..self.num_points() {
            for &q in self.neighbors(p) {
                if self
                    .neighbors(q as usize)
                    .binary_search(&(p as u32))
                    .is_err()
                {
                    return false;
                }
            }
        }
        true
    }

    /// Checks that no point lists itself.
    pub fn is_irreflexive(&self) -> bool {
        (0..self.num_points()).all(|p| self.neighbors(p).binary_search(&(p as u32)).is_err())
    }
}

/// Emit-time ownership window of a shard-scoped join: the owned prefix
/// `[0, owned)` of local ids. Shard-local datasets are laid out
/// owned-points-first, so one comparison per candidate pair's key —
/// made **before** reserving result-buffer space — keeps ghost-keyed
/// pairs from ever being materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ownership {
    /// One past the last owned local id.
    pub owned: u32,
}

impl Ownership {
    /// The owned-points-first prefix window `[0, owned)` of a shard.
    pub fn prefix(owned: usize) -> Self {
        Self {
            owned: owned as u32,
        }
    }

    /// Whether a pair keyed by `key` belongs to this execution.
    #[inline]
    pub fn keeps(&self, key: u32) -> bool {
        key < self.owned
    }
}

/// Rewrites shard-local point ids to global ids through `global_ids`
/// (index = local id, value = global id).
///
/// # Panics
///
/// Panics if any pair references a local id outside `global_ids`.
pub fn remap_pairs(pairs: &mut [Pair], global_ids: &[u32]) {
    for p in pairs {
        p.key = global_ids[p.key as usize];
        p.value = global_ids[p.value as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pairs() -> Vec<Pair> {
        vec![
            Pair::new(2, 0),
            Pair::new(0, 2),
            Pair::new(0, 1),
            Pair::new(1, 0),
        ]
    }

    #[test]
    fn table_from_unsorted_pairs() {
        let t = NeighborTable::from_pairs(3, &sample_pairs());
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.total_pairs(), 4);
        assert!((t.avg_neighbors() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_pairs_counts_repeats_the_table_keeps() {
        let mut pairs = sample_pairs();
        pairs.push(Pair::new(0, 2)); // duplicate
        pairs.push(Pair::new(2, 0)); // duplicate
        pairs.push(Pair::new(0, 2)); // triplicate
        let t = NeighborTable::from_pairs(3, &pairs);
        assert_eq!(t.duplicate_pairs(), 3);
        assert_eq!(t.total_pairs(), pairs.len());
        assert_eq!(t.neighbors(0), &[1, 2, 2, 2]);
        // Reference count: full sort, then adjacent repeats.
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        let repeats = sorted.windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(t.duplicate_pairs(), repeats as u64);
        // Equal values under different keys are not duplicates.
        let clean = NeighborTable::from_pairs(3, &sample_pairs());
        assert_eq!(clean.duplicate_pairs(), 0);
        assert_eq!(NeighborTable::from_pairs(4, &[]).duplicate_pairs(), 0);
    }

    #[test]
    fn symmetry_check() {
        let t = NeighborTable::from_pairs(3, &sample_pairs());
        assert!(t.is_symmetric());
        let broken = NeighborTable::from_pairs(3, &[Pair::new(0, 1)]);
        assert!(!broken.is_symmetric());
    }

    #[test]
    fn irreflexivity_check() {
        let t = NeighborTable::from_pairs(3, &sample_pairs());
        assert!(t.is_irreflexive());
        let selfish = NeighborTable::from_pairs(2, &[Pair::new(1, 1)]);
        assert!(!selfish.is_irreflexive());
    }

    #[test]
    fn empty_table() {
        let t = NeighborTable::from_pairs(0, &[]);
        assert_eq!(t.num_points(), 0);
        assert_eq!(t.avg_neighbors(), 0.0);
        assert!(t.is_symmetric());
        let t5 = NeighborTable::from_pairs(5, &[]);
        assert_eq!(t5.neighbors(3), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_rejected() {
        let _ = NeighborTable::from_pairs(2, &[Pair::new(0, 5)]);
    }

    #[test]
    fn ownership_window_semantics() {
        let own = Ownership::prefix(3);
        assert!(own.keeps(0) && own.keeps(2));
        assert!(!own.keeps(3));
        assert!(!Ownership::prefix(0).keeps(0));
    }

    #[test]
    fn remap_translates_both_sides() {
        let ids = [10u32, 20, 30];
        let mut pairs = vec![Pair::new(0, 2), Pair::new(2, 1)];
        remap_pairs(&mut pairs, &ids);
        assert_eq!(pairs, vec![Pair::new(10, 30), Pair::new(30, 20)]);
    }

    #[test]
    #[should_panic]
    fn remap_rejects_out_of_range_local_ids() {
        let mut pairs = vec![Pair::new(0, 9)];
        remap_pairs(&mut pairs, &[1, 2]);
    }

    #[test]
    fn deterministic_under_permutation() {
        let p1 = sample_pairs();
        let p2 = {
            let mut v = p1.clone();
            v.reverse();
            v
        };
        let t1 = NeighborTable::from_pairs(3, &p1);
        let t2 = NeighborTable::from_pairs(3, &p2);
        assert_eq!(t1, t2);
    }
}
