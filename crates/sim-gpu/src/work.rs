//! Per-thread work accounting and warp-imbalance analysis.
//!
//! The paper's case for a grid index over index-trees is *regularity*:
//! bounded adjacent-cell searches keep threads in a warp on similar
//! control paths, where tree traversals diverge (§IV-A, citing Han &
//! Abdelrahman on branch divergence). The simulator cannot execute warps
//! in lockstep, but it can measure the quantity that matters: how evenly
//! traced work is distributed across the threads of each warp. A warp
//! whose threads perform very different amounts of work serializes on a
//! real SIMD machine; the max/mean work ratio per warp is the standard
//! first-order divergence proxy.

use crate::device::Device;
use crate::kernel::{Kernel, LaunchConfig, LaunchStats, Tracer};
use crate::occupancy::occupancy;
use rayon::prelude::*;
use std::time::Instant;

/// Tracer that counts traced operations and bytes per thread.
#[derive(Debug, Default)]
pub struct WorkTracer {
    current: usize,
    /// Traced accesses per thread (indexed by thread-in-block).
    pub ops: Vec<u64>,
    /// Traced bytes per thread.
    pub bytes: Vec<u64>,
}

impl Tracer for WorkTracer {
    #[inline]
    fn load(&mut self, _addr: u64, bytes: usize) {
        self.ops[self.current] += 1;
        self.bytes[self.current] += bytes as u64;
    }

    #[inline]
    fn begin_thread(&mut self, _global_id: usize, thread_in_block: usize) {
        if thread_in_block >= self.ops.len() {
            self.ops.resize(thread_in_block + 1, 0);
            self.bytes.resize(thread_in_block + 1, 0);
        }
        self.current = thread_in_block;
    }
}

/// Aggregated per-thread work of one launch.
#[derive(Clone, Debug)]
pub struct WorkProfile {
    /// Traced accesses per logical thread (global id order).
    pub ops: Vec<u64>,
    /// Traced bytes per logical thread.
    pub bytes: Vec<u64>,
    warp_size: usize,
}

impl WorkProfile {
    /// Total traced accesses.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Total traced bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Per-warp imbalance factors: `max(ops) / mean(ops)` over each
    /// 32-thread warp (1.0 = perfectly regular; warp_size = fully
    /// serialized single-thread work). Warps with no work are skipped.
    pub fn warp_imbalance(&self) -> Vec<f64> {
        self.ops
            .chunks(self.warp_size)
            .filter_map(|warp| {
                let max = *warp.iter().max()? as f64;
                let sum: u64 = warp.iter().sum();
                if sum == 0 {
                    None
                } else {
                    Some(max * warp.len() as f64 / sum as f64)
                }
            })
            .collect()
    }

    /// Mean warp imbalance (the headline divergence proxy).
    pub fn mean_warp_imbalance(&self) -> f64 {
        let v = self.warp_imbalance();
        if v.is_empty() {
            1.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Modeled SIMD efficiency in `(0, 1]`: useful lanes ÷ issued lanes
    /// when every warp serializes to its slowest thread.
    pub fn simd_efficiency(&self) -> f64 {
        let mut useful = 0u64;
        let mut issued = 0u64;
        for warp in self.ops.chunks(self.warp_size) {
            let max = warp.iter().copied().max().unwrap_or(0);
            useful += warp.iter().sum::<u64>();
            issued += max * warp.len() as u64;
        }
        if issued == 0 {
            1.0
        } else {
            useful as f64 / issued as f64
        }
    }
}

/// Runs a kernel with per-thread work tracing. Blocks execute in
/// parallel, each with its own [`WorkTracer`]; the per-block counters are
/// stitched into a launch-wide [`WorkProfile`].
pub fn launch_work_profiled<K: Kernel>(
    device: &Device,
    cfg: LaunchConfig,
    total_threads: usize,
    kernel: &K,
) -> (LaunchStats, WorkProfile) {
    let occ = occupancy(device.spec(), kernel.resources(), cfg.block_threads);
    let blocks = total_threads.div_ceil(cfg.block_threads.max(1));
    let start = Instant::now();
    let per_block: Vec<(usize, WorkTracer)> = (0..blocks)
        .into_par_iter()
        .map(|block_id| {
            let mut tracer = WorkTracer::default();
            crate::kernel::run_block(kernel, cfg, total_threads, block_id, &mut tracer);
            (block_id, tracer)
        })
        .collect();
    let wall = start.elapsed();
    let mut ops = vec![0u64; total_threads];
    let mut bytes = vec![0u64; total_threads];
    for (block_id, tracer) in per_block {
        let base = block_id * cfg.block_threads;
        for (i, (&o, &b)) in tracer.ops.iter().zip(&tracer.bytes).enumerate() {
            if base + i < total_threads {
                ops[base + i] = o;
                bytes[base + i] = b;
            }
        }
    }
    let profile = WorkProfile {
        ops,
        bytes,
        warp_size: device.spec().warp_size,
    };
    let bytes = profile.total_bytes();
    let stats = LaunchStats {
        wall,
        bytes,
        modeled_wall: device.spec().kernel_time(bytes),
        blocks,
        threads: total_threads,
        occupancy: occ,
    };
    (stats, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::kernel::ThreadCtx;
    use crate::memory::DeviceBuffer;
    use crate::occupancy::KernelResources;

    /// Thread i performs i % 4 + 1 traced reads — known imbalance.
    struct SkewKernel<'a>(&'a DeviceBuffer<f64>);

    impl Kernel for SkewKernel<'_> {
        fn resources(&self) -> KernelResources {
            KernelResources {
                registers_per_thread: 8,
                shared_mem_per_block: 0,
            }
        }
        fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
            let reps = ctx.global_id % 4 + 1;
            for r in 0..reps {
                let _ = ctx.read(self.0, r);
            }
        }
    }

    #[test]
    fn per_thread_counts_are_exact() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let buf = dev.alloc_from_host(&[0.0f64; 8]).unwrap();
        let (_stats, profile) = launch_work_profiled(
            &dev,
            LaunchConfig { block_threads: 64 },
            200,
            &SkewKernel(&buf),
        );
        for (i, &o) in profile.ops.iter().enumerate() {
            assert_eq!(o, (i % 4 + 1) as u64, "thread {i}");
        }
        assert_eq!(
            profile.total_ops(),
            (0..200).map(|i| (i % 4 + 1) as u64).sum()
        );
        assert_eq!(profile.total_bytes(), profile.total_ops() * 8);
    }

    #[test]
    fn imbalance_matches_hand_computation() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let buf = dev.alloc_from_host(&[0.0f64; 8]).unwrap();
        // Full warps of the repeating 1,2,3,4 pattern: max 4, mean 2.5.
        let (_s, profile) = launch_work_profiled(
            &dev,
            LaunchConfig { block_threads: 64 },
            64,
            &SkewKernel(&buf),
        );
        let imb = profile.mean_warp_imbalance();
        assert!((imb - 4.0 / 2.5).abs() < 1e-9, "imbalance {imb}");
        let eff = profile.simd_efficiency();
        assert!((eff - 2.5 / 4.0).abs() < 1e-9, "efficiency {eff}");
    }

    #[test]
    fn uniform_kernel_is_perfectly_regular() {
        struct Regular<'a>(&'a DeviceBuffer<f64>);
        impl Kernel for Regular<'_> {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    registers_per_thread: 8,
                    shared_mem_per_block: 0,
                }
            }
            fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
                let _ = ctx.read(self.0, 0);
            }
        }
        let dev = Device::new(DeviceSpec::small_test_device());
        let buf = dev.alloc_from_host(&[0.0f64; 1]).unwrap();
        let (_s, profile) =
            launch_work_profiled(&dev, LaunchConfig::default(), 512, &Regular(&buf));
        assert_eq!(profile.mean_warp_imbalance(), 1.0);
        assert_eq!(profile.simd_efficiency(), 1.0);
    }

    #[test]
    fn empty_launch_profile() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let buf = dev.alloc_from_host(&[0.0f64; 1]).unwrap();
        let (_s, profile) =
            launch_work_profiled(&dev, LaunchConfig::default(), 0, &SkewKernel(&buf));
        assert_eq!(profile.total_ops(), 0);
        assert_eq!(profile.mean_warp_imbalance(), 1.0);
    }
}
