//! Kernel abstraction and the block-parallel execution engine.
//!
//! A [`Kernel`] is written exactly like the paper's CUDA kernels: a
//! `thread` body parameterized by a global thread id, launched over a grid
//! of fixed-size thread blocks. The engine executes whole blocks as
//! parallel tasks on the host's cores (rayon), dealt to the workers as
//! they free up, as a GPU hands each block to whichever SM frees up
//! first, so blocks of unequal work do not leave a core idle behind a
//! fixed share. That preserves the SIMT programming model — one logical
//! thread per data element, atomics for result aggregation — while
//! running on CPU cores. Which worker runs a block changes no count: a
//! launch's traced bytes are the sum over its blocks.
//!
//! Every global-memory access in a kernel body goes through the
//! [`ThreadCtx`], which is generic over a [`Tracer`]. The fast path counts
//! the traced bytes of each block in one register-resident counter; the
//! profiled path uses a cache-simulating tracer to produce the Table II
//! metrics. One kernel implementation serves both modes, and every launch
//! driver prices the same byte count into modeled device time
//! ([`DeviceSpec::kernel_time`](crate::DeviceSpec::kernel_time)).

use crate::cache::{CacheSim, CacheStats};
use crate::device::Device;
use crate::memory::DeviceBuffer;
use crate::occupancy::{occupancy, KernelResources, OccupancyResult};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Receives every traced global-memory access of a kernel thread.
pub trait Tracer {
    /// A global-memory load of `bytes` at virtual address `addr`.
    fn load(&mut self, addr: u64, bytes: usize);

    /// A global-memory store (defaults to the load path: the unified cache
    /// on Pascal is write-through, stores still allocate lines).
    #[inline]
    fn store(&mut self, addr: u64, bytes: usize) {
        self.load(addr, bytes);
    }

    /// An atomic read-modify-write (defaults to the store path).
    #[inline]
    fn atomic(&mut self, addr: u64, bytes: usize) {
        self.store(addr, bytes);
    }

    /// Called before each logical thread's body runs (per-thread tracers
    /// use it to switch accumulation slots). Default: no-op.
    #[inline]
    fn begin_thread(&mut self, _global_id: usize, _thread_in_block: usize) {}
}

/// The fast path's tracer: one counter of the traced bytes of a block
/// (loads, stores and atomics alike, as every tracer's defaults route
/// them).
#[derive(Clone, Copy, Debug, Default)]
struct ByteCounter {
    bytes: u64,
}

impl Tracer for ByteCounter {
    #[inline(always)]
    fn load(&mut self, _addr: u64, bytes: usize) {
        self.bytes += bytes as u64;
    }
}

/// A tracer that drives the L1 cache simulator (one per simulated SM).
#[derive(Debug)]
pub struct CacheTracer {
    /// The SM's unified cache.
    pub cache: CacheSim,
}

impl Tracer for CacheTracer {
    #[inline]
    fn load(&mut self, addr: u64, bytes: usize) {
        self.cache.access(addr, bytes);
    }
}

/// Per-thread execution context handed to the kernel body.
pub struct ThreadCtx<'t, T: Tracer> {
    /// Global thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub global_id: usize,
    /// Block index within the grid.
    pub block_id: usize,
    /// Thread index within the block.
    pub thread_in_block: usize,
    tracer: &'t mut T,
}

impl<'t, T: Tracer> ThreadCtx<'t, T> {
    /// Reads element `i` of a device buffer, tracing the access.
    #[inline(always)]
    pub fn read<E: Copy>(&mut self, buf: &DeviceBuffer<E>, i: usize) -> E {
        self.tracer.load(buf.addr_of(i), std::mem::size_of::<E>());
        buf.as_slice()[i]
    }

    /// Reads a contiguous range of a device buffer (e.g. one point's
    /// coordinates), tracing it as a single wide access.
    #[inline(always)]
    pub fn read_range<'b, E: Copy>(
        &mut self,
        buf: &'b DeviceBuffer<E>,
        start: usize,
        len: usize,
    ) -> &'b [E] {
        self.tracer
            .load(buf.addr_of(start), len * std::mem::size_of::<E>());
        &buf.as_slice()[start..start + len]
    }

    /// Records an atomic RMW on address `addr` (used by append buffers).
    #[inline(always)]
    pub fn trace_atomic(&mut self, addr: u64, bytes: usize) {
        self.tracer.atomic(addr, bytes);
    }

    /// Records a plain store.
    #[inline(always)]
    pub fn trace_store(&mut self, addr: u64, bytes: usize) {
        self.tracer.store(addr, bytes);
    }

    /// Direct access to the tracer (for custom instrumentation).
    #[inline(always)]
    pub fn tracer(&mut self) -> &mut T {
        self.tracer
    }
}

/// A GPU kernel: a per-thread body plus its resource footprint.
///
/// `thread` is generic over the tracer so one implementation serves both
/// the fast and profiled modes (the trait is deliberately not object-safe).
pub trait Kernel: Sync {
    /// Registers/thread and shared memory the "compiled" kernel would use;
    /// feeds the occupancy calculator.
    fn resources(&self) -> KernelResources;

    /// The per-thread body. Called once for every global thread id in
    /// `0..total_threads` of the launch.
    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>);
}

/// Launch configuration (the paper uses 256 threads per block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Threads per block.
    pub block_threads: usize,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        // Paper §VI-B: "configured to run with 256 threads per block".
        Self { block_threads: 256 }
    }
}

/// Timing and configuration facts about one kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchStats {
    /// Wall-clock execution time of the launch on the **host** pool.
    pub wall: Duration,
    /// Global-memory bytes the launch's threads traced: every load, store
    /// and atomic, summed over all blocks. A pure function of the kernel's
    /// work — identical for every launch driver, host and interleaving.
    pub bytes: u64,
    /// Modeled execution time on the simulated device: [`Self::bytes`]
    /// priced at the device's traced-byte rate
    /// ([`DeviceSpec::kernel_time`](crate::DeviceSpec::kernel_time)). The
    /// same kernel over the same data always models the same time.
    pub modeled_wall: Duration,
    /// Number of thread blocks executed.
    pub blocks: usize,
    /// Total logical threads.
    pub threads: usize,
    /// Theoretical occupancy for this kernel/config on this device.
    pub occupancy: OccupancyResult,
}

/// Executes `kernel` over `total_threads` logical threads in fast mode.
///
/// Blocks are independent parallel tasks, dealt to the host's workers as
/// they free up, mirroring how a GPU schedules blocks onto SMs in any
/// order. Within a block, threads run sequentially (a valid SIMT
/// interleaving since the paper's kernels have no intra-block
/// synchronization).
pub fn launch<K: Kernel>(
    device: &Device,
    cfg: LaunchConfig,
    total_threads: usize,
    kernel: &K,
) -> LaunchStats {
    let occ = occupancy(device.spec(), kernel.resources(), cfg.block_threads);
    let blocks = total_threads.div_ceil(cfg.block_threads.max(1));
    let start = Instant::now();
    let bytes = AtomicU64::new(0);
    (0..blocks).into_par_iter().for_each(|block_id| {
        let mut counter = ByteCounter::default();
        run_block(kernel, cfg, total_threads, block_id, &mut counter);
        bytes.fetch_add(counter.bytes, Ordering::Relaxed);
    });
    let bytes = bytes.into_inner();
    LaunchStats {
        wall: start.elapsed(),
        bytes,
        modeled_wall: device.spec().kernel_time(bytes),
        blocks,
        threads: total_threads,
        occupancy: occ,
    }
}

/// Executes `kernel` in profiled mode: blocks are assigned round-robin to
/// the device's SMs, each SM owns a cold L1 cache simulator and executes
/// its blocks sequentially (SMs in parallel). Returns launch stats plus the
/// merged cache statistics.
pub fn launch_profiled<K: Kernel>(
    device: &Device,
    cfg: LaunchConfig,
    total_threads: usize,
    kernel: &K,
) -> (LaunchStats, CacheStats) {
    let spec = device.spec();
    let occ = occupancy(spec, kernel.resources(), cfg.block_threads);
    let blocks = total_threads.div_ceil(cfg.block_threads.max(1));
    let sm_count = spec.sm_count;
    let cache_cfg = crate::cache::CacheConfig {
        capacity_bytes: spec.l1_bytes_per_sm,
        line_bytes: spec.l1_line_bytes,
        associativity: spec.l1_associativity,
    };
    let start = Instant::now();
    let per_sm: Vec<CacheStats> = (0..sm_count)
        .into_par_iter()
        .map(|sm| {
            let mut tracer = CacheTracer {
                cache: CacheSim::new(cache_cfg),
            };
            let mut block_id = sm;
            while block_id < blocks {
                run_block(kernel, cfg, total_threads, block_id, &mut tracer);
                block_id += sm_count;
            }
            *tracer.cache.stats()
        })
        .collect();
    let mut merged = CacheStats::default();
    for s in &per_sm {
        merged.merge(s);
    }
    let stats = LaunchStats {
        wall: start.elapsed(),
        bytes: merged.bytes_requested,
        modeled_wall: spec.kernel_time(merged.bytes_requested),
        blocks,
        threads: total_threads,
        occupancy: occ,
    };
    (stats, merged)
}

/// Runs one block's threads in order, each through `tracer` (shared by
/// every launch driver, work profiling in [`crate::work`] included).
#[inline]
pub(crate) fn run_block<K: Kernel, T: Tracer>(
    kernel: &K,
    cfg: LaunchConfig,
    total_threads: usize,
    block_id: usize,
    tracer: &mut T,
) {
    let base = block_id * cfg.block_threads;
    let end = (base + cfg.block_threads).min(total_threads);
    for global_id in base..end {
        tracer.begin_thread(global_id, global_id - base);
        let mut ctx = ThreadCtx {
            global_id,
            block_id,
            thread_in_block: global_id - base,
            tracer,
        };
        kernel.thread(&mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Doubles every element: out[i] = 2 * in[i].
    struct DoubleKernel<'a> {
        input: &'a DeviceBuffer<f64>,
        output: &'a [AtomicU64],
    }

    impl Kernel for DoubleKernel<'_> {
        fn resources(&self) -> KernelResources {
            KernelResources {
                registers_per_thread: 16,
                shared_mem_per_block: 0,
            }
        }

        fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
            let i = ctx.global_id;
            if i >= self.input.len() {
                return;
            }
            let x = ctx.read(self.input, i);
            self.output[i].store((2.0 * x).to_bits(), Ordering::Relaxed);
        }
    }

    /// Thread i reads `i % 5` elements, then appends one result (atomic
    /// cursor bump + store) when its last element is odd: loads, stores
    /// and atomics of uneven per-thread volume.
    struct MixedKernel<'a> {
        input: &'a DeviceBuffer<f64>,
        results: &'a crate::AppendBuffer<u64>,
    }

    impl Kernel for MixedKernel<'_> {
        fn resources(&self) -> KernelResources {
            KernelResources {
                registers_per_thread: 24,
                shared_mem_per_block: 0,
            }
        }

        fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
            let mut last = 0.0;
            for r in 0..ctx.global_id % 5 {
                last = ctx.read(self.input, (ctx.global_id + r) % self.input.len());
            }
            if last as u64 % 2 == 1 {
                ctx.trace_atomic(self.results.cursor_addr(), 8);
                if let Some(addr) = self.results.push(ctx.global_id as u64) {
                    ctx.trace_store(addr, 8);
                }
            }
        }
    }

    #[test]
    fn every_driver_counts_and_prices_the_same_bytes() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let input_data: Vec<f64> = (0..777).map(|i| i as f64).collect();
        let input = dev.alloc_from_host(&input_data).unwrap();
        let cfg = LaunchConfig { block_threads: 64 };
        let n = 1500;
        let run = |driver: usize| {
            let results = crate::AppendBuffer::<u64>::new(dev.pool(), n).unwrap();
            let k = MixedKernel {
                input: &input,
                results: &results,
            };
            match driver {
                0 => launch(&dev, cfg, n, &k),
                1 => launch_profiled(&dev, cfg, n, &k).0,
                _ => crate::work::launch_work_profiled(&dev, cfg, n, &k).0,
            }
        };
        let fast = run(0);
        assert!(fast.bytes > 0);
        assert_eq!(fast.modeled_wall, dev.spec().kernel_time(fast.bytes));
        for driver in [1, 2] {
            let other = run(driver);
            assert_eq!(other.bytes, fast.bytes, "driver {driver}");
            assert_eq!(other.modeled_wall, fast.modeled_wall, "driver {driver}");
        }
        // Repeat launches count identically, whatever the interleaving.
        assert_eq!(run(0).bytes, fast.bytes);
    }

    #[test]
    fn launch_covers_every_thread_exactly_once() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let n = 1000;
        let counter = AtomicUsize::new(0);
        struct CountKernel<'a>(&'a AtomicUsize);
        impl Kernel for CountKernel<'_> {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    registers_per_thread: 8,
                    shared_mem_per_block: 0,
                }
            }
            fn thread<T: Tracer>(&self, _ctx: &mut ThreadCtx<'_, T>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stats = launch(&dev, LaunchConfig::default(), n, &CountKernel(&counter));
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert_eq!(stats.blocks, 4); // ceil(1000/256)
        assert_eq!(stats.threads, n);
    }

    #[test]
    fn kernel_computes_correct_results() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let input_data: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let input = dev.alloc_from_host(&input_data).unwrap();
        let output: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        let k = DoubleKernel {
            input: &input,
            output: &output,
        };
        launch(&dev, LaunchConfig::default(), 500, &k);
        for (i, o) in output.iter().enumerate() {
            assert_eq!(f64::from_bits(o.load(Ordering::Relaxed)), 2.0 * i as f64);
        }
    }

    #[test]
    fn profiled_mode_matches_fast_mode_results() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let input_data: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        let input = dev.alloc_from_host(&input_data).unwrap();
        let fast: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(0)).collect();
        let prof: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(0)).collect();
        launch(
            &dev,
            LaunchConfig::default(),
            300,
            &DoubleKernel {
                input: &input,
                output: &fast,
            },
        );
        let (_stats, cache) = launch_profiled(
            &dev,
            LaunchConfig::default(),
            300,
            &DoubleKernel {
                input: &input,
                output: &prof,
            },
        );
        for (a, b) in fast.iter().zip(&prof) {
            assert_eq!(a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
        }
        // 300 8-byte loads = 2400 bytes requested.
        assert_eq!(cache.bytes_requested, 2400);
        assert!(cache.hits + cache.misses >= 300);
    }

    #[test]
    fn sequential_scan_has_good_cache_behaviour() {
        // A sequential 8-byte-stride scan touches each 32-byte line 4 times:
        // 1 miss + 3 hits → 75% hit rate.
        let dev = Device::new(DeviceSpec::small_test_device());
        let input_data: Vec<f64> = vec![1.0; 4096];
        let input = dev.alloc_from_host(&input_data).unwrap();
        struct ScanKernel<'a>(&'a DeviceBuffer<f64>);
        impl Kernel for ScanKernel<'_> {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    registers_per_thread: 8,
                    shared_mem_per_block: 0,
                }
            }
            fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
                if ctx.global_id < self.0.len() {
                    let _ = ctx.read(self.0, ctx.global_id);
                }
            }
        }
        let (_s, cache) = launch_profiled(&dev, LaunchConfig::default(), 4096, &ScanKernel(&input));
        let rate = cache.hit_rate();
        assert!(
            (rate - 0.75).abs() < 0.02,
            "sequential scan hit rate {rate}, expected ~0.75"
        );
    }

    #[test]
    fn empty_launch_is_fine() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let counter = AtomicUsize::new(0);
        struct CountKernel<'a>(&'a AtomicUsize);
        impl Kernel for CountKernel<'_> {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    registers_per_thread: 8,
                    shared_mem_per_block: 0,
                }
            }
            fn thread<T: Tracer>(&self, _ctx: &mut ThreadCtx<'_, T>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stats = launch(&dev, LaunchConfig::default(), 0, &CountKernel(&counter));
        assert_eq!(stats.blocks, 0);
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn block_and_thread_ids_are_consistent() {
        let dev = Device::new(DeviceSpec::small_test_device());
        struct CheckKernel;
        impl Kernel for CheckKernel {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    registers_per_thread: 8,
                    shared_mem_per_block: 0,
                }
            }
            fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
                assert_eq!(ctx.global_id, ctx.block_id * 64 + ctx.thread_in_block);
                assert!(ctx.thread_in_block < 64);
            }
        }
        launch(&dev, LaunchConfig { block_threads: 64 }, 1000, &CheckKernel);
    }
}
