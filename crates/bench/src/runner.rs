//! Runs the paper's five evaluated algorithms on one (dataset, ε) pair.

use grid_join::{gpu_brute_force, GpuSelfJoin, SelfJoinConfig};
use rtree::rtree_self_join;
use sim_gpu::{Device, DeviceSpec};
use sj_datasets::Dataset;
use superego::SuperEgo;

/// The algorithms of the paper's evaluation, in legend order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// GPU brute-force nested-loop join (lower bound, ε-independent).
    GpuBrute,
    /// Sequential R-tree search-and-refine (the reference implementation).
    CpuRtree,
    /// Multi-threaded Super-EGO (state of the art on the CPU).
    SuperEgo,
    /// GPU-SJ without UNICOMP.
    Gpu,
    /// GPU-SJ with UNICOMP (the paper's headline configuration).
    GpuUnicomp,
}

impl Algo {
    /// All five, in the paper's legend order.
    pub const ALL: [Algo; 5] = [
        Algo::GpuBrute,
        Algo::CpuRtree,
        Algo::SuperEgo,
        Algo::Gpu,
        Algo::GpuUnicomp,
    ];

    /// Legend label as printed in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::GpuBrute => "GPU: Brute Force",
            Algo::CpuRtree => "R-Tree",
            Algo::SuperEgo => "SuperEGO",
            Algo::Gpu => "GPU",
            Algo::GpuUnicomp => "GPU: unicomp",
        }
    }
}

/// One timed run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Which algorithm.
    pub algo: Algo,
    /// Response time in seconds: modeled for the GPU variants, the best
    /// of `trials` wall-clock runs for the CPU baselines.
    pub seconds: f64,
    /// Directed result pairs (self excluded).
    pub pairs: u64,
}

/// Runs the requested algorithms, cross-validating that every exact
/// algorithm reports the same pair count (a mismatch panics: the harness
/// must never silently publish numbers from disagreeing implementations).
///
/// Timing follows the paper's methodology: CPU-RTREE reports query time
/// only (index construction excluded, §VI-B); Super-EGO reports
/// ego-sort + join; GPU variants report the **modeled device response
/// time** — grid construction plus the pipelined timeline of uploads,
/// kernels and result downloads, every kernel priced from its counted
/// bytes (`sim_gpu::DeviceSpec::kernel_time`); brute force reports a
/// single modeled kernel invocation. The R-tree and Super-EGO baselines
/// report host *wall* time, so comparisons against GPU variants mix the
/// two clocks.
///
/// Only the wall-clock baselines take the best of `trials` runs. A
/// modeled time is a pure function of the data, ε and device spec, so
/// the GPU variants run once.
pub fn run_algorithms(
    data: &Dataset,
    epsilon: f64,
    algos: &[Algo],
    trials: usize,
) -> Vec<Measurement> {
    let trials = trials.max(1);
    let mut out = Vec::with_capacity(algos.len());
    let mut reference_pairs: Option<u64> = None;
    for &algo in algos {
        let runs = match algo {
            Algo::CpuRtree | Algo::SuperEgo => trials,
            Algo::GpuBrute | Algo::Gpu | Algo::GpuUnicomp => 1,
        };
        let mut best = f64::INFINITY;
        let mut pairs = 0u64;
        for _ in 0..runs {
            let (secs, p) = run_once(data, epsilon, algo);
            best = best.min(secs);
            pairs = p;
        }
        match reference_pairs {
            None => reference_pairs = Some(pairs),
            Some(r) => assert_eq!(
                r,
                pairs,
                "result mismatch: {} found {pairs} pairs, expected {r}",
                algo.label()
            ),
        }
        out.push(Measurement {
            algo,
            seconds: best,
            pairs,
        });
    }
    out
}

fn run_once(data: &Dataset, epsilon: f64, algo: Algo) -> (f64, u64) {
    match algo {
        Algo::GpuBrute => {
            let device = Device::new(DeviceSpec::titan_x_pascal());
            let r = gpu_brute_force(&device, data, epsilon).expect("brute force OOM");
            (r.modeled_wall.as_secs_f64(), r.pairs)
        }
        Algo::CpuRtree => {
            let (table, report) = rtree_self_join(data, epsilon);
            (report.query.as_secs_f64(), table.total_pairs() as u64)
        }
        Algo::SuperEgo => {
            let (table, report) = SuperEgo::default().self_join(data, epsilon);
            (
                (report.sort_time + report.join_time).as_secs_f64(),
                table.total_pairs() as u64,
            )
        }
        Algo::Gpu | Algo::GpuUnicomp => {
            let device = Device::new(DeviceSpec::titan_x_pascal());
            let join = GpuSelfJoin::new(device).with_config(SelfJoinConfig {
                unicomp: algo == Algo::GpuUnicomp,
                ..SelfJoinConfig::default()
            });
            let out = join.run(data, epsilon).expect("GPU self-join failed");
            (
                out.report.modeled_total.as_secs_f64(),
                out.table.total_pairs() as u64,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_datasets::synthetic::uniform;

    #[test]
    fn all_algorithms_agree() {
        let data = uniform(2, 1500, 101);
        let ms = run_algorithms(&data, 2.0, &Algo::ALL, 1);
        assert_eq!(ms.len(), 5);
        let counts: Vec<u64> = ms.iter().map(|m| m.pairs).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert!(ms.iter().all(|m| m.seconds >= 0.0));
    }

    #[test]
    fn trials_take_best() {
        let data = uniform(2, 500, 102);
        let ms = run_algorithms(&data, 2.0, &[Algo::SuperEgo], 2);
        assert_eq!(ms.len(), 1);
    }
}
