//! Shared ε-sweep driver used by the response-time and derived figures.

use crate::cli::Args;
use crate::runner::{run_algorithms, Algo, Measurement};
use sj_datasets::catalog::DatasetSpec;

/// Whether the sweep includes the ε-independent brute-force baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrutePolicy {
    /// Run it at the first ε only, as the paper does ("we only run the
    /// brute force algorithm for a single value of ε").
    FirstEpsOnly,
    /// Skip it (derived figures don't need it).
    Skip,
}

/// All measurements at one ε of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// ε as labeled in the paper's figure.
    pub paper_eps: f64,
    /// ε actually used after the selectivity-preserving stretch.
    pub actual_eps: f64,
    /// Measurements in `Algo::ALL` order (brute present only per policy).
    pub results: Vec<Measurement>,
}

/// Measures the full ε sweep of one dataset. Every point is measured
/// afresh, so every row is cross-checked by [`run_algorithms`].
pub fn sweep_dataset(
    spec: &DatasetSpec,
    args: &Args,
    algos: &[Algo],
    brute: BrutePolicy,
) -> Vec<SweepPoint> {
    let data = spec.generate(args.scale);
    spec.paper_epsilons
        .iter()
        .zip(spec.scaled_epsilons(args.scale))
        .enumerate()
        .map(|(i, (&pe, ae))| {
            let mut wanted: Vec<Algo> = algos.to_vec();
            if brute == BrutePolicy::FirstEpsOnly && i == 0 && !wanted.contains(&Algo::GpuBrute) {
                wanted.insert(0, Algo::GpuBrute);
            }
            wanted.retain(|a| brute != BrutePolicy::Skip || *a != Algo::GpuBrute);
            eprintln!(
                "  measuring {} eps={pe} ({} pts, actual eps {ae:.4}): {wanted:?}",
                spec.name,
                data.len(),
            );
            SweepPoint {
                paper_eps: pe,
                actual_eps: ae,
                results: run_algorithms(&data, ae, &wanted, args.trials),
            }
        })
        .collect()
}

/// The four indexed algorithms (everything except brute force).
pub const INDEXED: [Algo; 4] = [Algo::CpuRtree, Algo::SuperEgo, Algo::Gpu, Algo::GpuUnicomp];

/// Convenience: extracts one algorithm's seconds from a sweep point.
pub fn seconds_of(p: &SweepPoint, algo: Algo) -> Option<f64> {
    p.results.iter().find(|m| m.algo == algo).map(|m| m.seconds)
}

/// Runs and prints one response-time panel (a dataset of Figures 4–6):
/// rows are ε values, columns the five algorithms. `figure` names the
/// JSON export written when `--json` is on.
pub fn print_response_time_panel(figure: &str, spec: &DatasetSpec, args: &Args) {
    use crate::table::{emit_table, fmt_secs};
    let points = sweep_dataset(spec, args, &INDEXED, BrutePolicy::FirstEpsOnly);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![format!("{:.3}", p.paper_eps)];
            for algo in Algo::ALL {
                row.push(match seconds_of(p, algo) {
                    Some(s) => fmt_secs(s),
                    None => "-".to_string(),
                });
            }
            let pairs = p
                .results
                .iter()
                .find(|m| m.algo != Algo::GpuBrute)
                .map(|m| m.pairs)
                .unwrap_or(0);
            row.push(format!("{pairs}"));
            row
        })
        .collect();
    emit_table(
        args,
        figure,
        &format!(
            "{} (|D| scaled to {}, scale {})",
            spec.name,
            spec.scaled_count(args.scale),
            args.scale
        ),
        &[
            "eps",
            "GPU: Brute Force",
            "R-Tree",
            "SuperEGO",
            "GPU",
            "GPU: unicomp",
            "pairs",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_datasets::catalog::{sweep, DatasetSpec, Family};

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            name: "TinyTest",
            family: Family::Synthetic,
            dim: 2,
            paper_count: 1_000_000,
            paper_epsilons: sweep(0.2, 1.0),
            seed: 7,
        }
    }

    #[test]
    fn sweep_runs_brute_once_and_repeats_modeled_times() {
        let args = Args {
            scale: 0.001,
            ..Args::default()
        };
        let spec = tiny_spec();
        let pts = sweep_dataset(&spec, &args, &INDEXED, BrutePolicy::FirstEpsOnly);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].results.len(), 5, "first point includes brute");
        assert!(pts[1..].iter().all(|p| p.results.len() == 4));
        // Nothing is cached: a second sweep measures afresh, and the
        // modeled GPU times come out the same.
        let again = sweep_dataset(&spec, &args, &INDEXED, BrutePolicy::FirstEpsOnly);
        for (p, q) in pts.iter().zip(&again) {
            for algo in [Algo::Gpu, Algo::GpuUnicomp] {
                assert_eq!(seconds_of(p, algo), seconds_of(q, algo));
            }
        }
        assert_eq!(
            seconds_of(&pts[0], Algo::GpuBrute),
            seconds_of(&again[0], Algo::GpuBrute)
        );
    }

    #[test]
    fn skip_policy_omits_brute() {
        let args = Args {
            scale: 0.001,
            ..Args::default()
        };
        let pts = sweep_dataset(&tiny_spec(), &args, &[Algo::Gpu], BrutePolicy::Skip);
        assert!(pts.iter().all(|p| p.results.len() == 1));
    }
}
