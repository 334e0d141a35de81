//! Device specifications and the device handle.

use crate::fault::{DeviceFault, FaultInjector, FaultOp};
use crate::memory::{DeviceBuffer, MemoryPool, OutOfMemory};
use crate::transfer::TransferModel;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Traced bytes one host CPU core streams per second — the single rate of
/// the modeled clock. Pinned so cell-major magnitudes stay where the
/// wall-derived clock it replaced had them: the median device-side rate
/// of the `kernel_hotpath --quick` cell-major kernels (six runs each of
/// syn-2M and SDSS-2M on a 2-vCPU x86-64 VM) was ≈ 32.7 GB/s, i.e.
/// ≈ 1.3 GB/s per core at [`DeviceSpec::throughput_vs_host_core`] = 25.
/// The rate includes the arithmetic around each traced access, hence an
/// order of magnitude below a core's raw DRAM bandwidth.
pub const HOST_CORE_BYTES_PER_SEC: f64 = 1.3e9;

/// Modeled time for one host core to stream `bytes` at
/// [`HOST_CORE_BYTES_PER_SEC`]: the price of every host stage a modeled
/// total charges (grid builds, the shard prelude's passes, calibration).
pub fn host_core_time(bytes: u64) -> Duration {
    Duration::from_secs_f64(bytes as f64 / HOST_CORE_BYTES_PER_SEC)
}

/// Static hardware parameters of a simulated device.
///
/// Defaults mirror the paper's evaluation platform, an NVIDIA TITAN X
/// (Pascal, GP102): 28 SMs, 12 GiB global memory, 64K 32-bit registers and
/// up to 2048 resident threads per SM, 48 KiB unified (L1) cache per SM.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Threads per warp (32 on every NVIDIA architecture).
    pub warp_size: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Register allocation granularity (registers are allocated per warp in
    /// multiples of this).
    pub register_alloc_granularity: usize,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: usize,
    /// Unified (L1) cache size per SM in bytes.
    pub l1_bytes_per_sm: usize,
    /// Cache line (sector) size in bytes.
    pub l1_line_bytes: usize,
    /// L1 associativity.
    pub l1_associativity: usize,
    /// Host↔device interconnect bandwidth in GiB/s (PCIe 3.0 x16 effective).
    pub pcie_gib_per_s: f64,
    /// Per-transfer fixed latency in microseconds.
    pub pcie_latency_us: f64,
    /// Modeled device throughput relative to **one host CPU core** for the
    /// memory-bound FP64 kernels this workspace runs.
    ///
    /// A kernel's traced bytes are priced at
    /// [`HOST_CORE_BYTES_PER_SEC`]` × throughput_vs_host_core` bytes per
    /// second of modeled device time ([`Self::kernel_time`]). The TITAN X
    /// default of 25 sits between the FP64-compute ratio (≈342 GFLOP/s
    /// GPU vs ≈34 GFLOP/s for one 2.1 GHz AVX2 core ⇒ ~10×) and the
    /// memory-bandwidth ratio (≈480 GB/s GDDR5X vs ≈15 GB/s per-core ⇒
    /// ~32×); the paper's kernels are bandwidth-bound, and its own
    /// measured average speedup over one CPU core (26.9×) falls in the
    /// same band. This single parameter scales *absolute* modeled kernel
    /// times only — every relative comparison between kernel variants, ε
    /// values, datasets and dimensionalities comes from counted bytes.
    pub throughput_vs_host_core: f64,
}

impl DeviceSpec {
    /// The paper's evaluation GPU.
    pub fn titan_x_pascal() -> Self {
        Self {
            name: "SIM TITAN X (Pascal)",
            sm_count: 28,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            registers_per_sm: 65_536,
            register_alloc_granularity: 256,
            shared_mem_per_sm: 96 * 1024,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            l1_bytes_per_sm: 48 * 1024,
            l1_line_bytes: 32,
            l1_associativity: 4,
            pcie_gib_per_s: 11.5,
            pcie_latency_us: 10.0,
            throughput_vs_host_core: 25.0,
        }
    }

    /// A tiny device for tests: 2 SMs, small memory, so out-of-memory paths
    /// and batching are exercised without gigabyte allocations.
    pub fn small_test_device() -> Self {
        Self {
            name: "SIM test device",
            sm_count: 2,
            global_mem_bytes: 8 * 1024 * 1024,
            l1_bytes_per_sm: 4 * 1024,
            ..Self::titan_x_pascal()
        }
    }

    /// Same compute configuration as the TITAN X but with a custom global
    /// memory capacity — used to force batching at reproduction scale.
    pub fn titan_x_with_memory(global_mem_bytes: usize) -> Self {
        Self {
            global_mem_bytes,
            ..Self::titan_x_pascal()
        }
    }

    /// The host↔device transfer model implied by the PCIe parameters.
    pub fn transfer_model(&self) -> TransferModel {
        TransferModel::new(self.pcie_gib_per_s, self.pcie_latency_us)
    }

    /// Modeled device time of kernels that trace `bytes`: the bytes
    /// priced at [`HOST_CORE_BYTES_PER_SEC`]` ×
    /// `[`Self::throughput_vs_host_core`]. Every launch driver reports
    /// this as [`crate::LaunchStats::modeled_wall`], and cost projections
    /// price their predicted bytes with it.
    pub fn kernel_time(&self, bytes: u64) -> Duration {
        let rate = HOST_CORE_BYTES_PER_SEC * self.throughput_vs_host_core.max(1e-9);
        Duration::from_secs_f64(bytes as f64 / rate)
    }
}

/// A handle to a simulated device: a spec plus its global-memory pool.
///
/// Cloning the handle shares the pool (as multiple host threads share one
/// physical GPU).
#[derive(Clone, Debug)]
pub struct Device {
    spec: Arc<DeviceSpec>,
    pool: MemoryPool,
    /// Armed at most once per device (shared across clones, like the
    /// memory pool): the fault injector this device consults at its
    /// upload/launch boundaries, plus the device's pool index. Empty on
    /// standalone devices and on pools that never arm a [`FaultPlan`] —
    /// the fault-free fast path is a single `OnceLock` read.
    ///
    /// [`FaultPlan`]: crate::fault::FaultPlan
    faults: Arc<OnceLock<FaultHandle>>,
}

#[derive(Debug)]
struct FaultHandle {
    injector: Arc<FaultInjector>,
    index: usize,
}

impl Device {
    /// Brings up a device with the given spec.
    pub fn new(spec: DeviceSpec) -> Self {
        let pool = MemoryPool::new(spec.global_mem_bytes);
        Self {
            spec: Arc::new(spec),
            pool,
            faults: Arc::new(OnceLock::new()),
        }
    }

    /// The device's static parameters.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Bytes of global memory currently allocated.
    pub fn used_bytes(&self) -> usize {
        self.pool.used()
    }

    /// Bytes of global memory still available.
    pub fn free_bytes(&self) -> usize {
        self.spec.global_mem_bytes - self.pool.used()
    }

    /// Allocates a zero-initialized buffer of `len` elements in global
    /// memory. Fails with [`OutOfMemory`] if capacity would be exceeded —
    /// exactly the constraint that motivates the paper's batching scheme.
    pub fn alloc_zeroed<T: Copy + Default>(
        &self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OutOfMemory> {
        DeviceBuffer::zeroed(&self.pool, len)
    }

    /// Allocates a buffer and copies `data` into it (a host→device upload;
    /// the transfer time is modeled separately via
    /// [`DeviceSpec::transfer_model`]).
    pub fn alloc_from_host<T: Copy>(&self, data: &[T]) -> Result<DeviceBuffer<T>, OutOfMemory> {
        DeviceBuffer::from_host(&self.pool, data)
    }

    /// The memory pool (for advanced allocation patterns in tests).
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// Installs the pool's armed fault injector on this device. Called by
    /// [`crate::DevicePool::inject_faults`]; every clone of the device
    /// (snapshots, sessions) shares the installed handle.
    ///
    /// # Panics
    ///
    /// Panics if an injector is already installed.
    pub(crate) fn arm_faults(&self, injector: Arc<FaultInjector>, index: usize) {
        if self.faults.set(FaultHandle { injector, index }).is_err() {
            panic!("device {index} already has a fault injector armed");
        }
    }

    /// Counts one device operation against the armed fault injector and
    /// fails it if a fault fires (or the device is down). A no-op
    /// returning `Ok` on devices with no injector armed.
    ///
    /// Execution paths call this at the two boundaries the fault model
    /// covers: before a host→device snapshot upload ([`FaultOp::Upload`])
    /// and before a batched kernel-launch sequence ([`FaultOp::Launch`]).
    pub fn fault_check(&self, op: FaultOp) -> Result<(), DeviceFault> {
        match self.faults.get() {
            Some(h) => h.injector.check(h.index, op),
            None => Ok(()),
        }
    }

    /// Modeled-time inflation factor from an open straggler window (1.0
    /// when healthy or no injector is armed). Execution paths multiply
    /// their modeled device times by this — a straggling device answers
    /// exactly, just late.
    pub fn slowdown(&self) -> f64 {
        match self.faults.get() {
            Some(h) => h.injector.slowdown(h.index),
            None => 1.0,
        }
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::new(DeviceSpec::titan_x_pascal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_x_parameters() {
        let s = DeviceSpec::titan_x_pascal();
        assert_eq!(s.sm_count, 28);
        assert_eq!(s.warp_size, 32);
        assert_eq!(s.global_mem_bytes, 12 * 1024 * 1024 * 1024);
        assert_eq!(s.registers_per_sm, 65_536);
    }

    #[test]
    fn allocation_accounting() {
        let dev = Device::new(DeviceSpec::small_test_device());
        assert_eq!(dev.used_bytes(), 0);
        let buf = dev.alloc_zeroed::<f64>(1024).unwrap();
        assert_eq!(dev.used_bytes(), 8 * 1024);
        drop(buf);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let cap = dev.spec().global_mem_bytes;
        let err = dev.alloc_zeroed::<u8>(cap + 1).unwrap_err();
        assert!(err.requested > err.available);
        // An allocation that exactly fits succeeds.
        let buf = dev.alloc_zeroed::<u8>(cap).unwrap();
        assert_eq!(dev.free_bytes(), 0);
        drop(buf);
    }

    #[test]
    fn cloned_handles_share_the_pool() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let dev2 = dev.clone();
        let _buf = dev.alloc_zeroed::<u64>(100).unwrap();
        assert_eq!(dev2.used_bytes(), 800);
    }

    #[test]
    fn upload_roundtrip() {
        let dev = Device::new(DeviceSpec::small_test_device());
        let buf = dev.alloc_from_host(&[1.0f64, 2.0, 3.0]).unwrap();
        assert_eq!(buf.as_slice(), &[1.0, 2.0, 3.0]);
    }
}
