//! Profiler-style metric reports (the simulator's "nvprof").
//!
//! The paper collects two metrics with the NVIDIA Visual Profiler to
//! explain UNICOMP's behaviour (Table II): *theoretical occupancy* and
//! *unified cache bandwidth utilization*. [`ProfiledLaunch`] packages the
//! simulator's equivalents: the occupancy calculation plus the cache
//! simulator's statistics, with bandwidth figures derived from the fast-run
//! wall time (profiled runs pay simulation overhead, so throughput is
//! always computed against the fast execution of the same kernel). These
//! GB/s figures are host measurements for Table II's ratios; the modeled
//! clock itself never reads a wall time — both runs report the same
//! counted bytes and hence the same [`LaunchStats::modeled_wall`].

use crate::cache::CacheStats;
use crate::device::Device;
use crate::kernel::{launch, launch_profiled, Kernel, LaunchConfig, LaunchStats};
use std::time::Duration;

/// Combined metrics for one kernel, mirroring the paper's Table II columns.
#[derive(Clone, Debug)]
pub struct KernelMetrics {
    /// Wall time of the *fast* (untraced) execution.
    pub wall: Duration,
    /// Theoretical occupancy in `[0, 1]`.
    pub occupancy: f64,
    /// Which resource limited occupancy.
    pub occupancy_limiter: &'static str,
    /// Merged L1 cache statistics across SMs.
    pub cache: CacheStats,
    /// Unified-cache bandwidth utilization in GB/s: bytes served from cache
    /// per second of fast-run wall time. The paper's absolute numbers
    /// depend on its hardware; what Table II interprets are the *ratios*
    /// between kernel variants, which this metric preserves.
    pub unified_cache_gbs: f64,
    /// DRAM traffic in GB/s by the same construction.
    pub dram_gbs: f64,
}

impl KernelMetrics {
    /// L1 hit rate convenience accessor.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

/// Runs a kernel twice — once untraced for timing, once traced for cache
/// statistics — and combines the results.
pub struct ProfiledLaunch;

impl ProfiledLaunch {
    /// Profiles `kernel` over `total_threads` threads.
    pub fn run<K: Kernel>(
        device: &Device,
        cfg: LaunchConfig,
        total_threads: usize,
        kernel: &K,
    ) -> (LaunchStats, KernelMetrics) {
        let fast = launch(device, cfg, total_threads, kernel);
        let (traced, cache) = launch_profiled(device, cfg, total_threads, kernel);
        debug_assert_eq!(traced.bytes, fast.bytes, "drivers disagree on traced bytes");
        let secs = fast.wall.as_secs_f64().max(1e-12);
        let metrics = KernelMetrics {
            wall: fast.wall,
            occupancy: fast.occupancy.occupancy,
            occupancy_limiter: fast.occupancy.limiter,
            unified_cache_gbs: cache.bytes_from_cache as f64 / secs / 1e9,
            dram_gbs: cache.bytes_from_dram as f64 / secs / 1e9,
            cache,
        };
        (fast, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::kernel::{ThreadCtx, Tracer};
    use crate::memory::DeviceBuffer;
    use crate::occupancy::KernelResources;

    struct SumKernel<'a> {
        data: &'a DeviceBuffer<f64>,
        regs: usize,
    }

    impl Kernel for SumKernel<'_> {
        fn resources(&self) -> KernelResources {
            KernelResources {
                registers_per_thread: self.regs,
                shared_mem_per_block: 0,
            }
        }
        fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
            if ctx.global_id < self.data.len() {
                let v = ctx.read(self.data, ctx.global_id);
                std::hint::black_box(v);
            }
        }
    }

    #[test]
    fn profiled_launch_reports_consistent_metrics() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let data = dev.alloc_from_host(&vec![1.0f64; 10_000]).unwrap();
        let (stats, metrics) = ProfiledLaunch::run(
            &dev,
            LaunchConfig::default(),
            10_000,
            &SumKernel {
                data: &data,
                regs: 32,
            },
        );
        assert_eq!(stats.threads, 10_000);
        assert_eq!(metrics.occupancy, 1.0);
        assert_eq!(metrics.cache.bytes_requested, 80_000);
        assert!(metrics.unified_cache_gbs >= 0.0);
        assert!(metrics.hit_rate() > 0.5); // sequential 8B stride → 75%
    }

    #[test]
    fn higher_register_usage_lowers_reported_occupancy() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let data = dev.alloc_from_host(&vec![1.0f64; 1000]).unwrap();
        let (_, light) = ProfiledLaunch::run(
            &dev,
            LaunchConfig::default(),
            1000,
            &SumKernel {
                data: &data,
                regs: 32,
            },
        );
        let (_, heavy) = ProfiledLaunch::run(
            &dev,
            LaunchConfig::default(),
            1000,
            &SumKernel {
                data: &data,
                regs: 64,
            },
        );
        assert!(heavy.occupancy < light.occupancy);
        assert_eq!(heavy.occupancy_limiter, "registers");
    }
}
