//! Reproduction harness for the paper's evaluation (§VI).
//!
//! One binary per table/figure (see `src/bin/`), sharing this library:
//!
//! * [`cli`] — `--scale`, `--trials`, `--quick` flag parsing shared by all
//!   binaries.
//! * [`runner`] — runs the five evaluated algorithms (GPU brute force,
//!   CPU-RTREE, Super-EGO, GPU-SJ, GPU-SJ + UNICOMP) on a dataset/ε and
//!   cross-validates their result counts.
//! * [`table`] — fixed-width table printing in the layout of the paper's
//!   figures.
//!
//! Scaling: the paper's datasets (2–15.2M points) are scaled down by
//! `--scale` (default 0.002) with a selectivity-preserving ε stretch (see
//! `sj_datasets::catalog`), so every experiment runs in the same
//! average-neighbors regime as the paper — the regime that determines who
//! wins and by how much — at laptop-friendly sizes. Pass `--scale 1.0` for
//! paper-scale runs on serious hardware.

pub mod cli;
pub mod runner;
pub mod sweep;
pub mod table;

pub use cli::Args;
pub use runner::{run_algorithms, Algo, Measurement};

/// The figure binaries' output directory (`bench_results/`), created on
/// first use. Every writer resolves its paths through this, so a binary
/// can never fail on a missing directory regardless of which output
/// paths a run exercises.
pub fn output_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("bench_results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// ε that lands a workload at roughly `target` average neighbours per
/// point under its mean density (clustered data comes out denser —
/// fine: that is the regime where cost-based scheduling matters).
/// Dimension-general: inverts `density × V_dim(ε) = target` with the
/// exact n-ball volume, so the 4-D/6-D scaling workloads sit in the same
/// selectivity regime as the 2-D tiers (where it reduces to the familiar
/// `√(target / (π·density))`). Shared by the `scaling_devices` and
/// `kernel_hotpath` binaries so their "~24 neighbors/point" tiers stay
/// comparable.
pub fn eps_for_selectivity(data: &sj_datasets::Dataset, target: f64) -> f64 {
    let ext = sj_datasets::stats::extent(data).expect("non-empty workload");
    let dim = data.dim();
    let unit_ball = sj_datasets::stats::n_ball_volume(dim, 1.0);
    (target / (ext.density * unit_ball)).powf(1.0 / dim as f64)
}

/// Sampled average neighbour count at `eps` (host scan over a stride
/// sample — cheap and device-free).
fn realized_selectivity(data: &sj_datasets::Dataset, eps: f64) -> f64 {
    let grid = grid_join::GridIndex::build(data, eps).expect("calibration grid");
    let n = data.len().max(1);
    let stride = n.div_ceil(512);
    let mut total = 0u64;
    let mut samples = 0u64;
    for q in (0..n).step_by(stride) {
        grid_join::host_join::query_neighbors(data, &grid, q, |_| total += 1);
        samples += 1;
    }
    total as f64 / samples as f64
}

/// Calibrates ε until the *realized* average neighbour count lands near
/// `target`. The closed-form [`eps_for_selectivity`] assumes uniform
/// density; on the clustered SDSS surrogate it overshoots by an order of
/// magnitude (dense galaxy cores), which would turn query streams
/// result-download-bound. In 2-D the pair count grows ~ε², so a √-ratio
/// update converges in a few steps. Shared by the serving-path binaries
/// (`query_throughput`, `serve_slo`, `eps_sweep`).
pub fn eps_for_realized(data: &sj_datasets::Dataset, target: f64) -> f64 {
    let mut eps = eps_for_selectivity(data, target);
    for _ in 0..6 {
        let realized = realized_selectivity(data, eps).max(1e-3);
        let ratio = realized / target;
        if (0.8..=1.25).contains(&ratio) {
            break;
        }
        eps *= (target / realized).sqrt().clamp(0.3, 3.0);
    }
    eps
}
