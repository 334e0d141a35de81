//! Multi-device pools and per-device usage tallies.
//!
//! The paper's system runs on a single TITAN X; scaling *out* means a host
//! driving several devices at once. [`DevicePool`] brings up `n` simulated
//! devices (each with its own global-memory pool, as physical GPUs have),
//! and [`DeviceTally`] is one device's usage — launches, modeled busy
//! time, transfer bytes — the way a multi-GPU profiler attributes work to
//! each card. The sharded self-join engine (`sj-shard`) runs on the pool
//! and reports a tally per device, folded from its shards' runs; its
//! modeled response time comes from its own stream rule
//! (`sj_shard::schedule::stream_end`), not from the tallies.

use crate::device::{Device, DeviceSpec};
use crate::fault::{DeviceHealth, FaultCounts, FaultInjector, FaultPlan, HealthLedger};
use crate::memory::MemoryLedger;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A pool of simulated devices sharing one host.
///
/// Devices are homogeneous in the common case (the constructor clones one
/// spec) but the pool accepts any device list, so heterogeneous setups can
/// be modeled too.
///
/// Besides indexed access ([`Self::device`]), callers that pin no device
/// take [`Self::next_healthy`], a rotation over the healthy devices that
/// every clone of the pool shares.
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<Device>,
    /// Rotation cursor of [`Self::next_healthy`], shared across clones.
    cursor: Arc<Mutex<usize>>,
    /// Resident-snapshot LRU ledger, shared across clones (see
    /// [`MemoryLedger`]); sessions register their device snapshots here
    /// and a configured budget drives LRU eviction.
    memory_ledger: MemoryLedger,
    /// Per-device health (probation state machine) and fault counts,
    /// shared across clones.
    health: Arc<HealthLedger>,
}

impl DevicePool {
    /// Brings up `count` devices, each with a fresh copy of `spec` (and
    /// therefore its own global-memory pool).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` — a pool must have at least one device.
    pub fn homogeneous(spec: DeviceSpec, count: usize) -> Self {
        assert!(count > 0, "device pool needs at least one device");
        Self {
            cursor: Arc::new(Mutex::new(0)),
            memory_ledger: MemoryLedger::new(),
            health: Arc::new(HealthLedger::new(count)),
            devices: (0..count).map(|_| Device::new(spec.clone())).collect(),
        }
    }

    /// A pool of `count` simulated TITAN X (Pascal) devices — the paper's
    /// evaluation GPU replicated.
    pub fn titan_x(count: usize) -> Self {
        Self::homogeneous(DeviceSpec::titan_x_pascal(), count)
    }

    /// Arms a [`FaultPlan`] on this pool: from here on, every device
    /// operation (snapshot upload, kernel-launch sequence) counts against
    /// the plan's schedule, crash events move devices into probation in
    /// the pool's shared health ledger, and [`Self::next_healthy`] and
    /// [`Self::health_mask`] reflect only healthy capacity. Operation
    /// counters start at zero *now* — arm after warmup to aim a storm at
    /// the measured window.
    ///
    /// # Panics
    ///
    /// Panics if a plan is already armed on this pool (or on any clone).
    pub fn inject_faults(&self, plan: &FaultPlan) {
        let injector = FaultInjector::new(plan, self.devices.len(), Arc::clone(&self.health));
        for (i, device) in self.devices.iter().enumerate() {
            device.arm_faults(Arc::clone(&injector), i);
        }
    }

    /// Healthy flag per device, in index order, after one reinstatement
    /// probe of every downed device. This is the pool's one probing health
    /// read: device picks, admission and fault re-placement all go through
    /// it, so a crashed device heals after a set number of reads, not
    /// after a span of host time.
    pub fn health_mask(&self) -> Vec<bool> {
        self.health.probe()
    }

    /// Whether device `i` is currently healthy (not in probation).
    pub fn is_healthy(&self, i: usize) -> bool {
        self.health.is_healthy(i)
    }

    /// Public health snapshot per device.
    pub fn health_snapshot(&self) -> Vec<DeviceHealth> {
        self.health.snapshot()
    }

    /// Faults fired on this pool and the devices they downed and that
    /// probes reinstated, since the pool was built. Every clone reads the
    /// same counts.
    pub fn fault_counts(&self) -> FaultCounts {
        self.health.counts()
    }

    /// Picks a device for a caller that does not pin one: the first
    /// healthy device at or after the rotation cursor, which then moves
    /// past it. Reads [`Self::health_mask`], so each pick probes every
    /// downed device once. If *every* device is down the pick rotates over
    /// the full pool rather than fail — the caller's first operation
    /// surfaces the fault.
    pub fn next_healthy(&self) -> usize {
        let mask = self.health_mask();
        let all_down = !mask.contains(&true);
        let mut cursor = self.cursor.lock();
        let n = mask.len();
        let index = (0..n)
            .map(|o| (*cursor + o) % n)
            .find(|&i| mask[i] || all_down)
            .expect("pool is never empty");
        *cursor = (index + 1) % n;
        index
    }

    /// The pool-wide resident-snapshot ledger, shared by every clone of
    /// this pool. Budget it (`memory_ledger().set_budget(..)`) to turn on
    /// LRU snapshot eviction for all sessions serving from the pool.
    pub fn memory_ledger(&self) -> &MemoryLedger {
        &self.memory_ledger
    }

    /// Number of devices in the pool.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty (never true for constructed pools).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device at index `i`.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Global memory currently allocated across all devices.
    pub fn total_used_bytes(&self) -> usize {
        self.devices.iter().map(Device::used_bytes).sum()
    }
}

/// Aggregated usage of one device over a multi-kernel workload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceTally {
    /// Work items (e.g. shards) attributed to this device.
    pub items: usize,
    /// Kernel launches attributed to this device.
    pub launches: usize,
    /// Host-measured wall time of those launches.
    pub wall: Duration,
    /// Modeled device-busy time (kernels + pipelined transfers).
    pub busy: Duration,
    /// Host→device bytes attributed to this device.
    pub h2d_bytes: usize,
    /// The share of [`Self::h2d_bytes`] spent uploading halo ghost
    /// points — replicated data a perfect partition would not move.
    pub ghost_h2d_bytes: usize,
    /// Device→host bytes attributed to this device.
    pub d2h_bytes: usize,
}

impl DeviceTally {
    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &DeviceTally) {
        self.items += other.items;
        self.launches += other.launches;
        self.wall += other.wall;
        self.busy += other.busy;
        self.h2d_bytes += other.h2d_bytes;
        self.ghost_h2d_bytes += other.ghost_h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind, FaultOp};

    /// A pool whose listed devices crash on their first operation.
    fn crashing(count: usize, down: &[usize], heal_after_probes: u32) -> DevicePool {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), count);
        pool.inject_faults(&FaultPlan::new(
            down.iter()
                .map(|&device| FaultEvent {
                    device,
                    after_ops: 1,
                    kind: FaultKind::Crash { heal_after_probes },
                })
                .collect(),
        ));
        for &i in down {
            assert!(pool.device(i).fault_check(FaultOp::Launch).is_err());
        }
        pool
    }

    #[test]
    fn pool_devices_have_independent_memory() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 3);
        assert_eq!(pool.len(), 3);
        let _buf = pool.device(0).alloc_zeroed::<u64>(100).unwrap();
        assert_eq!(pool.device(0).used_bytes(), 800);
        assert_eq!(pool.device(1).used_bytes(), 0);
        assert_eq!(pool.total_used_bytes(), 800);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_rejected() {
        let _ = DevicePool::titan_x(0);
    }

    #[test]
    fn next_healthy_rotates_over_healthy_devices() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 3);
        let picks: Vec<usize> = (0..7).map(|_| pool.next_healthy()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn pool_clones_share_the_pick_cursor() {
        // A clone continues the rotation the original started.
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 3);
        let clone = pool.clone();
        assert_eq!(pool.next_healthy(), 0);
        assert_eq!(clone.next_healthy(), 1);
        assert_eq!(pool.next_healthy(), 2);
        assert_eq!(clone.clone().next_healthy(), 0);
    }

    #[test]
    fn next_healthy_skips_devices_in_probation() {
        // A downed device is skipped for as long as it stays down.
        let pool = crashing(3, &[1], u32::MAX);
        let picks: Vec<usize> = (0..6).map(|_| pool.next_healthy()).collect();
        assert_eq!(picks, vec![0, 2, 0, 2, 0, 2]);
        assert_eq!(pool.health_mask(), vec![true, false, true]);
    }

    #[test]
    fn all_devices_down_falls_back_to_the_full_pool() {
        // Total loss: picks rotate over every device instead of failing;
        // callers surface the fault on first use.
        let pool = crashing(2, &[0, 1], u32::MAX);
        assert_eq!(pool.next_healthy(), 0);
        assert_eq!(pool.next_healthy(), 1);
        assert_eq!(pool.health_mask(), vec![false, false]);
    }

    #[test]
    fn crash_heals_on_the_read_after_its_failed_probes() {
        // Each health read probes once: with heal_after_probes = k the
        // device reads down k times, then healthy, with no clock involved.
        for k in 0..4 {
            let pool = crashing(2, &[1], k);
            for read in 0..k {
                assert_eq!(pool.health_mask(), vec![true, false], "k={k} read {read}");
            }
            assert_eq!(pool.health_mask(), vec![true, true], "k={k}");
            assert!(pool.is_healthy(1));
        }
    }

    #[test]
    fn fault_counts_belong_to_their_pool() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        pool.inject_faults(&FaultPlan::new(vec![
            FaultEvent {
                device: 0,
                after_ops: 1,
                kind: FaultKind::Transient,
            },
            FaultEvent {
                device: 0,
                after_ops: 2,
                kind: FaultKind::Straggler {
                    factor: 2.0,
                    ops: 1,
                },
            },
            FaultEvent {
                device: 1,
                after_ops: 1,
                kind: FaultKind::Crash {
                    heal_after_probes: 0,
                },
            },
        ]));
        let other = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        let launches: Vec<bool> = (0..3)
            .map(|_| pool.device(0).fault_check(FaultOp::Launch).is_ok())
            .collect();
        assert_eq!(launches, vec![false, true, true]);
        // The crash downs device 1; the second upload fails on the downed
        // device without firing anything.
        assert!(pool.device(1).fault_check(FaultOp::Upload).is_err());
        assert!(pool.device(1).fault_check(FaultOp::Upload).is_err());
        assert_eq!(pool.health_mask(), vec![true, true]);
        let expected = FaultCounts {
            crashes: 1,
            transients: 1,
            stragglers: 1,
            downed: 1,
            reinstated: 1,
        };
        assert_eq!(pool.fault_counts(), expected);
        assert_eq!(pool.clone().fault_counts(), expected);
        assert_eq!(other.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn memory_ledger_is_shared_across_clones() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        pool.memory_ledger().set_budget(Some(1 << 20));
        assert_eq!(pool.clone().memory_ledger().budget(), Some(1 << 20));
    }

    #[test]
    fn tally_merge_sums_fields() {
        let mut a = DeviceTally {
            items: 1,
            launches: 2,
            wall: Duration::from_millis(5),
            busy: Duration::from_millis(7),
            h2d_bytes: 100,
            ghost_h2d_bytes: 30,
            d2h_bytes: 200,
        };
        a.merge(&a.clone());
        assert_eq!(a.items, 2);
        assert_eq!(a.h2d_bytes, 200);
        assert_eq!(a.ghost_h2d_bytes, 60);
        assert_eq!(a.busy, Duration::from_millis(14));
    }
}
