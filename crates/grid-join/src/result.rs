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

use std::sync::atomic::{AtomicU32, Ordering};

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
    /// points: the one-segment case of [`Self::from_segments`].
    ///
    /// # Panics
    ///
    /// Panics if any pair references a point id `>= num_points`.
    pub fn from_pairs(num_points: usize, pairs: &[Pair]) -> Self {
        Self::from_segments(num_points, &[pairs])
    }

    /// Builds the table from result pairs held in several segments (the
    /// sharded engine passes one per device) for a dataset of
    /// `num_points` points, without concatenating them. Pairs need not be
    /// sorted, and a key's pairs may span segments; each adjacency list
    /// ends up sorted ascending, so the table does not depend on how the
    /// pairs were split or in which order they were produced.
    ///
    /// The build runs on every core in four steps. The pairs are cut,
    /// across segment boundaries, into up to one contiguous part per
    /// thread, each holding at least 4096 pairs and at least as many pairs
    /// as there are keys, since every part counts all keys. Each part
    /// counts a key histogram; one prefix sum turns the histograms into a
    /// cursor per part and key, so a key's row takes its parts' pairs in
    /// part order; each part scatters its pairs into its own slots; and
    /// the rows are sorted in runs of consecutive rows holding about equal
    /// pair counts.
    ///
    /// # Panics
    ///
    /// Panics if any pair references a point id `>= num_points`.
    pub fn from_segments(num_points: usize, segments: &[&[Pair]]) -> Self {
        let total: usize = segments.iter().map(|s| s.len()).sum();
        let n_parts = rayon::current_num_threads()
            .min(total / num_points.max(MIN_PART_PAIRS))
            .max(1);
        Self::assemble(num_points, segments, n_parts)
    }

    /// [`Self::from_segments`] with the pairs cut into at most `n_parts`
    /// parts.
    fn assemble(num_points: usize, segments: &[&[Pair]], n_parts: usize) -> Self {
        let total: usize = segments.iter().map(|s| s.len()).sum();
        let mut parts = cut_parts(segments, total.div_ceil(n_parts));

        // 1. A key histogram per part.
        par_each_mut(&mut parts, &|part| {
            part.cursor = vec![0usize; num_points];
            for p in part.pieces.iter().copied().flatten() {
                assert!(
                    (p.key as usize) < num_points && (p.value as usize) < num_points,
                    "pair ({}, {}) out of range {num_points}",
                    p.key,
                    p.value
                );
                part.cursor[p.key as usize] += 1;
            }
        });

        // 2. One prefix sum over (key, part): each part's cursor for a key
        // starts where the previous part's rows of that key end.
        let mut offsets = Vec::with_capacity(num_points + 1);
        let mut at = 0usize;
        for k in 0..num_points {
            offsets.push(at);
            for part in &mut parts {
                let count = part.cursor[k];
                part.cursor[k] = at;
                at += count;
            }
        }
        offsets.push(at);

        // 3. Each part scatters into its own slots; no two parts' cursors
        // ever hand out the same slot.
        let slots: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
        par_each_mut(&mut parts, &|part| {
            for p in part.pieces.iter().copied().flatten() {
                let slot = &mut part.cursor[p.key as usize];
                slots[*slot].store(p.value, Ordering::Relaxed);
                *slot += 1;
            }
        });
        drop(parts);
        let mut neighbors: Vec<u32> = slots.into_iter().map(AtomicU32::into_inner).collect();

        // 4. Row sorts, over runs of rows with about equal pair counts.
        let mut runs = row_runs(&offsets, &mut neighbors, n_parts);
        par_each_mut(&mut runs, &|(bounds, rows)| {
            let base = bounds[0];
            for w in bounds.windows(2) {
                rows[w[0] - base..w[1] - base].sort_unstable();
            }
        });
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

/// Fewest pairs [`NeighborTable::from_segments`] gives a part of its
/// build: below it, one thread builds the table.
const MIN_PART_PAIRS: usize = 1 << 12;

/// A contiguous run of a table build's pairs, which may span segments,
/// and the part's cursor per key (first its key histogram).
#[derive(Default)]
struct Part<'a> {
    pieces: Vec<&'a [Pair]>,
    cursor: Vec<usize>,
}

/// Cuts the concatenation of `segments` into contiguous parts of `len`
/// pairs (the last may be shorter), without copying a pair.
fn cut_parts<'a>(segments: &[&'a [Pair]], len: usize) -> Vec<Part<'a>> {
    let mut parts = vec![];
    let mut part = Part::default();
    let mut room = len;
    for &segment in segments {
        let mut rest = segment;
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(room.min(rest.len()));
            part.pieces.push(piece);
            room -= piece.len();
            rest = tail;
            if room == 0 {
                parts.push(std::mem::take(&mut part));
                room = len;
            }
        }
    }
    if !part.pieces.is_empty() || parts.is_empty() {
        parts.push(part);
    }
    parts
}

/// Cuts the rows of a table (CSR `offsets` over `neighbors`) into `n` runs
/// of consecutive rows holding about equal pair counts: each run's row
/// bounds, and its rows' pairs.
fn row_runs<'a>(
    offsets: &'a [usize],
    mut neighbors: &'a mut [u32],
    n: usize,
) -> Vec<(&'a [usize], &'a mut [u32])> {
    let total = neighbors.len();
    let mut runs = Vec::with_capacity(n);
    let mut first = 0;
    for i in 1..=n {
        let last = if i == n {
            offsets.len() - 1
        } else {
            offsets.partition_point(|&o| o < total * i / n).max(first)
        };
        let (rows, rest) =
            std::mem::take(&mut neighbors).split_at_mut(offsets[last] - offsets[first]);
        runs.push((&offsets[first..=last], rows));
        neighbors = rest;
        first = last;
    }
    runs
}

/// Runs `f` on every item, forking the halves of the slice through
/// [`rayon::join`] until each holds one item.
fn par_each_mut<T: Send>(items: &mut [T], f: &(impl Fn(&mut T) + Sync)) {
    match items {
        [] => {}
        [item] => f(item),
        _ => {
            let (a, b) = items.split_at_mut(items.len() / 2);
            rayon::join(|| par_each_mut(a, f), || par_each_mut(b, f));
        }
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random pairs (repeats allowed) cut into 0–8 segments at random
        /// points, some cuts repeated so segments come out empty: the
        /// table equals an independent per-key reference and the table of
        /// the uncut pairs, whether one thread builds it or the machine's
        /// threads do, and with the pairs cut into 1–6 parts.
        #[test]
        fn table_from_random_segmentations(
            n in 0usize..300,
            raw in proptest::collection::vec((0usize..1 << 20, 0usize..1 << 20), 0..20_000),
            few in 0u32..4,
            n_segments in 0usize..=8,
            cuts in proptest::collection::vec((0u32..3, 0usize..1 << 20), 8),
            n_parts in 1usize..=6,
        ) {
            // Fewer pairs than threads in a quarter of the cases.
            let len = if n == 0 || n_segments == 0 {
                0
            } else if few == 0 {
                raw.len() % 3
            } else {
                raw.len()
            };
            let pairs: Vec<Pair> = raw[..len]
                .iter()
                .map(|&(k, v)| Pair::new((k % n) as u32, (v % n) as u32))
                .collect();
            let mut bounds = vec![0];
            for &(repeat, at) in &cuts[..n_segments.saturating_sub(1)] {
                let prev = *bounds.last().unwrap();
                bounds.push(if repeat == 0 { prev } else { at % (len + 1) });
            }
            bounds.push(len);
            bounds.sort_unstable();
            let segments: Vec<&[Pair]> = if n_segments == 0 {
                vec![]
            } else {
                bounds.windows(2).map(|w| &pairs[w[0]..w[1]]).collect()
            };

            let mut rows: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for p in &pairs {
                rows.entry(p.key).or_default().push(p.value);
            }
            let table = NeighborTable::from_segments(n, &segments);
            prop_assert_eq!(table.num_points(), n);
            prop_assert_eq!(table.total_pairs(), len);
            for i in 0..n {
                let mut expected = rows.remove(&(i as u32)).unwrap_or_default();
                expected.sort_unstable();
                prop_assert_eq!(table.neighbors(i), &expected[..], "row {}", i);
            }
            prop_assert_eq!(&table, &NeighborTable::from_pairs(n, &pairs));
            prop_assert_eq!(
                &NeighborTable::assemble(n, &segments, n_parts),
                &table
            );
        }
    }

    #[test]
    fn parts_tile_the_pairs_across_segments() {
        let pairs: Vec<Pair> = (0..10).map(|i| Pair::new(i, i)).collect();
        let segments = [&pairs[..3], &pairs[3..3], &pairs[3..10]];
        for len in 1..=11 {
            let parts = cut_parts(&segments, len);
            assert_eq!(parts.len(), 10usize.div_ceil(len), "len {len}");
            let flat: Vec<Pair> = parts
                .iter()
                .flat_map(|p| p.pieces.iter().copied().flatten().copied())
                .collect();
            assert_eq!(flat, pairs, "len {len}");
            assert!(parts[..parts.len() - 1].iter().all(|p| p
                .pieces
                .iter()
                .map(|s| s.len())
                .sum::<usize>()
                == len));
        }
        assert_eq!(cut_parts(&[], 1).len(), 1);
    }

    #[test]
    fn segments_build_the_table_of_their_concatenation() {
        // Keys spread over several segments (key 0 in all three), an
        // empty segment in the middle, and unsorted rows.
        let pairs = [
            Pair::new(0, 3),
            Pair::new(2, 1),
            Pair::new(0, 1),
            Pair::new(3, 0),
            Pair::new(1, 2),
            Pair::new(0, 2),
            Pair::new(1, 0),
            Pair::new(2, 0),
        ];
        let whole = NeighborTable::from_pairs(4, &pairs);
        for cut in [(0, 0), (2, 5), (3, 3), (1, 7), (8, 8)] {
            let segments = [&pairs[..cut.0], &pairs[cut.0..cut.1], &pairs[cut.1..]];
            assert_eq!(NeighborTable::from_segments(4, &segments), whole, "{cut:?}");
        }
        assert_eq!(
            NeighborTable::from_segments(4, &[]),
            NeighborTable::from_pairs(4, &[])
        );
    }
}
