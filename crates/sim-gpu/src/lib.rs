//! A software SIMT device model — the substrate that stands in for the
//! paper's NVIDIA TITAN X (Pascal).
//!
//! The container this reproduction runs in has no GPU, and Rust GPU-kernel
//! authoring remains immature, so the paper's CUDA device is replaced by a
//! simulator that preserves every property the paper's *arguments* rely on:
//!
//! * **Massive data parallelism** — kernels are written one-thread-per-point
//!   exactly as in the paper (Algorithm 1) and executed block-by-block on a
//!   thread pool ([`kernel`]).
//! * **Bounded global memory** — allocations are accounted against the
//!   device capacity and fail when exhausted ([`memory`]), which is what
//!   forces the result-set batching scheme of §V-A to exist.
//! * **Occupancy arithmetic** — a CUDA-style theoretical-occupancy
//!   calculator driven by registers/thread and block size ([`mod@occupancy`]),
//!   reproducing Table II's occupancy column.
//! * **Unified (L1) cache behaviour** — a per-SM set-associative cache
//!   simulator fed by traced kernel loads ([`cache`]), reproducing Table
//!   II's cache-utilization column.
//! * **Host↔device transfer cost** — a PCIe bandwidth/latency model with
//!   multi-stream overlap accounting ([`transfer`]), used by the batching
//!   executor to model computation/communication overlap.
//! * **Multi-device pools** — several devices with independent memory
//!   pools plus per-device usage aggregation ([`pool`]), the substrate of
//!   the sharded multi-device engine.
//! * **Fault injection** — seeded, reproducible schedules of device
//!   crashes, transient upload/launch failures and straggler slowdowns
//!   ([`fault`]), with a per-device health ledger (probation, and one
//!   reinstatement probe per health read) the pool consults when it picks
//!   a device, and which counts the pool's own faults — the adversarial
//!   substrate the layers above prove their failover against.
//!
//! Kernels run in two modes sharing one code path: a **fast mode** (a
//! per-block counter of traced bytes) used for timing figures, and a
//! **profiled mode** (cache-simulating tracer) used for Table II.
//!
//! ## The modeled clock
//!
//! Modeled time is priced from counted bytes, never from host wall time:
//! a launch's traced bytes cost
//! [`HOST_CORE_BYTES_PER_SEC`]` × `[`DeviceSpec::throughput_vs_host_core`]
//! per second ([`DeviceSpec::kernel_time`]), and a host stage that a
//! modeled total charges costs the bytes it streams at the host-core rate
//! ([`host_core_time`]). PCIe transfers stay analytic ([`transfer`]). Every
//! modeled duration is therefore a pure function of the data, ε, the
//! configuration and the [`DeviceSpec`] — the same on any host, at any
//! load, with any number of simulated devices running concurrently.

pub mod append;
pub mod cache;
pub mod device;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod occupancy;
pub mod pool;
pub mod profiler;
pub mod transfer;
pub mod work;

pub use append::{AppendBuffer, Reservation};
pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use device::{host_core_time, Device, DeviceSpec, HOST_CORE_BYTES_PER_SEC};
pub use fault::{
    DeviceFault, DeviceHealth, FaultCounts, FaultEvent, FaultKind, FaultOp, FaultPlan, StormConfig,
};
pub use kernel::{launch, launch_profiled, Kernel, LaunchConfig, LaunchStats, ThreadCtx, Tracer};
pub use memory::{DeviceBuffer, Evictor, LedgerEntry, MemoryLedger, MemoryPool, OutOfMemory};
pub use occupancy::{occupancy, KernelResources, OccupancyResult};
pub use pool::{DevicePool, DeviceTally};
pub use profiler::{KernelMetrics, ProfiledLaunch};
pub use transfer::{BatchCost, StreamTimeline, TimelineReport, TransferModel};
pub use work::{launch_work_profiled, WorkProfile, WorkTracer};
