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
use crate::fault::{DeviceHealth, FaultInjector, FaultPlan, HealthConfig, HealthLedger};
use crate::memory::MemoryLedger;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A pool of simulated devices sharing one host.
///
/// Devices are homogeneous in the common case (the constructor clones one
/// spec) but the pool accepts any device list, so heterogeneous setups can
/// be modeled too.
///
/// Besides indexed access ([`Self::device`]), the pool hands out
/// [`DeviceLease`]s: lightweight claims that steer concurrent clients
/// (sessions, query streams) toward the least-loaded device. Clones of a
/// pool share the lease ledger, so every clone sees the same load picture.
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<Device>,
    /// Lease ledger, shared across clones.
    leases: Arc<Mutex<LeaseLedger>>,
    /// Resident-snapshot LRU ledger, shared across clones (see
    /// [`MemoryLedger`]); sessions register their device snapshots here
    /// and a configured budget drives LRU eviction.
    memory_ledger: MemoryLedger,
    /// Per-device health (probation state machine), shared across clones.
    health: Arc<HealthLedger>,
    /// The armed fault injector, if [`Self::inject_faults`] ran (shared
    /// across clones; armed at most once per pool).
    injector: Arc<OnceLock<Arc<FaultInjector>>>,
}

/// Shared lease state: per-device active counts plus a rotation cursor
/// that breaks ties round-robin, so a *serial* stream of short-lived
/// leases still spreads across devices (a serving frontend dispatching
/// query after query) instead of pinning device 0 forever.
#[derive(Debug)]
struct LeaseLedger {
    counts: Vec<usize>,
    cursor: usize,
    gauges: PoolGauges,
}

impl LeaseLedger {
    fn new(count: usize) -> Self {
        Self {
            counts: vec![0; count],
            cursor: 0,
            gauges: PoolGauges::register(count),
        }
    }

    /// Publishes device `i`'s lease count and the pool total to the
    /// metrics registry. Called at every lease and release, so the gauges
    /// track load *over time*, not just when something polls
    /// [`DevicePool::active_leases`].
    fn sample(&self, i: usize) {
        self.gauges.active[i].set(self.counts[i] as f64);
        self.gauges
            .active_total
            .set(self.counts.iter().sum::<usize>() as f64);
    }
}

/// Registry gauges of one pool's lease ledger. Each pool instance gets a
/// distinct `pool` label so concurrently live pools (tests, nested
/// engines) don't overwrite each other's series.
#[derive(Debug)]
struct PoolGauges {
    /// `sj_pool_active_leases{pool,device}` per device.
    active: Vec<sj_obs::Gauge>,
    /// `sj_pool_active_leases_total{pool}`.
    active_total: sj_obs::Gauge,
}

impl PoolGauges {
    fn register(count: usize) -> Self {
        static NEXT_POOL: AtomicU64 = AtomicU64::new(0);
        let pool = NEXT_POOL.fetch_add(1, Ordering::Relaxed).to_string();
        let reg = sj_obs::registry();
        Self {
            active: (0..count)
                .map(|i| {
                    reg.gauge(
                        "sj_pool_active_leases",
                        &[("pool", &pool), ("device", &i.to_string())],
                    )
                })
                .collect(),
            active_total: reg.gauge("sj_pool_active_leases_total", &[("pool", &pool)]),
        }
    }
}

/// A claim on one pool device, released on drop.
///
/// Leases are advisory load-balancing state, not mutual exclusion: the
/// simulated substrate timeshares the host freely, and several leases may
/// target the same device once every device carries load. What a lease
/// guarantees is that [`DevicePool::lease`] spreads concurrent holders
/// across devices (fewest active leases first), so resident sessions
/// sharing a pool interleave instead of piling onto device 0.
#[derive(Debug)]
pub struct DeviceLease {
    device: Device,
    index: usize,
    /// Taken on release, so the ledger decrements exactly once no matter
    /// which path (explicit [`Self::release`] or drop) runs — the ledger
    /// is shared across pool clones, where a double decrement would
    /// corrupt every clone's load picture at once.
    leases: Option<Arc<Mutex<LeaseLedger>>>,
}

impl DeviceLease {
    /// The leased device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The leased device's index within the pool.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Returns the lease to the ledger now (equivalent to dropping it).
    pub fn release(self) {}

    fn return_to_ledger(&mut self) {
        if let Some(leases) = self.leases.take() {
            let mut ledger = leases.lock();
            debug_assert!(ledger.counts[self.index] > 0, "lease count underflow");
            ledger.counts[self.index] = ledger.counts[self.index].saturating_sub(1);
            ledger.sample(self.index);
        }
    }
}

impl Drop for DeviceLease {
    fn drop(&mut self) {
        self.return_to_ledger();
    }
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
            leases: Arc::new(Mutex::new(LeaseLedger::new(count))),
            memory_ledger: MemoryLedger::new(),
            health: Arc::new(HealthLedger::new(count, HealthConfig::default())),
            injector: Arc::new(OnceLock::new()),
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
    /// the shared [`HealthLedger`], and [`Self::lease`] and
    /// [`Self::health_mask`] reflect only healthy capacity. Operation
    /// counters start at zero *now* — arm after warmup to aim a storm at
    /// the measured window.
    ///
    /// # Panics
    ///
    /// Panics if a plan is already armed on this pool (or on any clone).
    pub fn inject_faults(&self, plan: &FaultPlan) {
        let injector = FaultInjector::new(plan, self.devices.len(), Arc::clone(&self.health));
        assert!(
            self.injector.set(Arc::clone(&injector)).is_ok(),
            "fault plan already armed on this pool"
        );
        for (i, device) in self.devices.iter().enumerate() {
            device.arm_faults(Arc::clone(&injector), i);
        }
    }

    /// The armed fault injector, if any.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.get()
    }

    /// Healthy flag per device, in index order, after running any due
    /// reinstatement probes. This is the pool's one probing health read:
    /// leasing, admission and fault re-placement all go through it.
    pub fn health_mask(&self) -> Vec<bool> {
        self.health.probe_due();
        self.health.mask()
    }

    /// Whether device `i` is currently healthy (not in probation).
    pub fn is_healthy(&self, i: usize) -> bool {
        self.health.is_healthy(i)
    }

    /// Public health snapshot per device.
    pub fn health_snapshot(&self) -> Vec<DeviceHealth> {
        self.health.snapshot()
    }

    /// Moves device `i` into probation by hand — supervisors quarantine a
    /// device whose worker panicked the same way a crash fault would. The
    /// device reinstates after `heal_after_probes` failed probes.
    pub fn quarantine(&self, i: usize, heal_after_probes: u32) {
        self.health.mark_down(i, heal_after_probes);
    }

    /// Modeled-time inflation factor of device `i` from an open straggler
    /// window (1.0 when no injector is armed or the window closed).
    pub fn slowdown(&self, i: usize) -> f64 {
        self.devices[i].slowdown()
    }

    /// Leases the least-loaded *healthy* device (fewest active leases;
    /// ties break round-robin from a rotating cursor, so serial
    /// short-lived leases spread across devices too). Never blocks — the
    /// lease is a load-balancing claim, not a lock (see [`DeviceLease`]).
    ///
    /// Devices in probation are skipped, which is how a crashed device's
    /// active leases drain: existing holders finish (or fail) and release,
    /// and no new lease lands until reinstatement probes heal it. If
    /// *every* device is down the lease falls back to the full pool
    /// rather than deadlock — the caller's first operation surfaces the
    /// fault.
    pub fn lease(&self) -> DeviceLease {
        let mask = self.health_mask();
        let all_down = mask.iter().all(|h| !h);
        let eligible = |i: usize| mask[i] || all_down;
        let mut ledger = self.leases.lock();
        let n = ledger.counts.len();
        let min = (0..n)
            .filter(|&i| eligible(i))
            .map(|i| ledger.counts[i])
            .min()
            .expect("pool is never empty");
        let index = (0..n)
            .map(|o| (ledger.cursor + o) % n)
            .find(|&i| eligible(i) && ledger.counts[i] == min)
            .expect("some eligible device holds the minimum");
        ledger.counts[index] += 1;
        ledger.cursor = (index + 1) % n;
        ledger.sample(index);
        DeviceLease {
            device: self.devices[index].clone(),
            index,
            leases: Some(Arc::clone(&self.leases)),
        }
    }

    /// Leases a *specific* device — the worker-per-device executors of a
    /// serving frontend pin their queries to the device whose snapshot
    /// cache they manage, rather than taking whatever is least loaded.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the pool.
    pub fn lease_device(&self, index: usize) -> DeviceLease {
        assert!(index < self.devices.len(), "device index out of range");
        {
            let mut ledger = self.leases.lock();
            ledger.counts[index] += 1;
            ledger.sample(index);
        }
        DeviceLease {
            device: self.devices[index].clone(),
            index,
            leases: Some(Arc::clone(&self.leases)),
        }
    }

    /// Active lease count per device, in device-index order.
    pub fn active_leases(&self) -> Vec<usize> {
        self.leases.lock().counts.clone()
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

    /// All devices in index order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Global memory currently allocated across all devices.
    pub fn total_used_bytes(&self) -> usize {
        self.devices.iter().map(Device::used_bytes).sum()
    }

    /// Global memory still free across all devices.
    pub fn total_free_bytes(&self) -> usize {
        self.devices.iter().map(Device::free_bytes).sum()
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

    #[test]
    fn pool_devices_have_independent_memory() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 3);
        assert_eq!(pool.len(), 3);
        let _buf = pool.device(0).alloc_zeroed::<u64>(100).unwrap();
        assert_eq!(pool.device(0).used_bytes(), 800);
        assert_eq!(pool.device(1).used_bytes(), 0);
        assert_eq!(pool.total_used_bytes(), 800);
        assert!(pool.total_free_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_rejected() {
        let _ = DevicePool::titan_x(0);
    }

    #[test]
    fn leases_spread_across_devices_and_release_on_drop() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 3);
        let a = pool.lease();
        let b = pool.lease();
        let c = pool.lease();
        // Three concurrent leases land on three distinct devices.
        let mut picked = vec![a.index(), b.index(), c.index()];
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 1, 2]);
        assert_eq!(pool.active_leases(), vec![1, 1, 1]);
        // A fourth lease doubles up on the least-loaded (lowest index).
        let d = pool.lease();
        assert_eq!(d.index(), 0);
        drop(b);
        assert_eq!(pool.active_leases(), vec![2, 0, 1]);
        // Released capacity is reused before doubling further.
        let e = pool.lease();
        assert_eq!(e.index(), 1);
        drop((a, c, d, e));
        assert_eq!(pool.active_leases(), vec![0, 0, 0]);
    }

    #[test]
    fn lease_release_is_exactly_once_across_clones() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        let clone = pool.clone();
        // Lease taken from the clone, dropped normally: both views agree
        // and the shared ledger decrements exactly once.
        let a = clone.lease();
        assert_eq!(pool.active_leases(), vec![1, 0]);
        drop(a);
        assert_eq!(pool.active_leases(), vec![0, 0]);
        assert_eq!(clone.active_leases(), vec![0, 0]);
        // Explicit release consumes the lease; the drop that follows it
        // internally must not decrement a second time.
        let b = pool.lease();
        let c = pool.lease();
        let c_index = c.index();
        b.release();
        let counts = pool.active_leases();
        assert_eq!(counts.iter().sum::<usize>(), 1, "b released exactly once");
        assert_eq!(counts[c_index], 1, "c still held");
        drop(c);
        assert_eq!(pool.active_leases(), vec![0, 0]);
    }

    #[test]
    fn targeted_lease_pins_its_device() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 3);
        let a = pool.lease_device(2);
        assert_eq!(a.index(), 2);
        assert_eq!(pool.active_leases(), vec![0, 0, 1]);
        // The balancing lease avoids the pinned device.
        let b = pool.lease();
        assert_ne!(b.index(), 2);
        drop((a, b));
        assert_eq!(pool.active_leases(), vec![0, 0, 0]);
    }

    #[test]
    fn lease_transitions_sample_gauges() {
        use sj_obs::MetricValue;
        let read = |name: &str, labels: &[(&str, &str)]| -> Option<f64> {
            sj_obs::registry().snapshot().into_iter().find_map(|m| {
                let matches = m.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| m.labels.iter().any(|(mk, mv)| mk == k && mv == v));
                match (matches, m.value) {
                    (true, MetricValue::Gauge(g)) => Some(g),
                    _ => None,
                }
            })
        };
        let pools_with = |name: &str, want: f64| -> Vec<String> {
            sj_obs::registry()
                .snapshot()
                .into_iter()
                .filter(|m| m.name == name && matches!(m.value, MetricValue::Gauge(g) if g == want))
                .filter_map(|m| {
                    m.labels
                        .iter()
                        .find(|(k, _)| k == "pool")
                        .map(|(_, v)| v.clone())
                })
                .collect()
        };
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        // A distinctive signature — three pinned leases on device 1 —
        // identifies this pool's series among any other pools live in
        // the test process.
        let a = pool.lease_device(1);
        let b = pool.lease_device(1);
        let c = pool.lease_device(1);
        let candidates = pools_with("sj_pool_active_leases_total", 3.0);
        let id = candidates
            .into_iter()
            .find(|id| read("sj_pool_active_leases", &[("pool", id), ("device", "1")]) == Some(3.0))
            .expect("gauges sampled at lease time");
        let labels: &[(&str, &str)] = &[("pool", &id)];
        drop((a, b));
        assert_eq!(read("sj_pool_active_leases_total", labels), Some(1.0));
        drop(c);
        assert_eq!(read("sj_pool_active_leases_total", labels), Some(0.0));
        assert_eq!(
            read("sj_pool_active_leases", &[("pool", &id), ("device", "1")]),
            Some(0.0)
        );
    }

    #[test]
    fn lease_skips_devices_in_probation() {
        use crate::fault::{FaultEvent, FaultKind, FaultOp, FaultPlan};
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 3);
        pool.inject_faults(&FaultPlan::new(vec![FaultEvent {
            device: 1,
            after_ops: 1,
            kind: FaultKind::Crash {
                heal_after_probes: u32::MAX,
            },
        }]));
        assert!(pool.device(1).fault_check(FaultOp::Launch).is_err());
        assert!(!pool.is_healthy(1));
        // Six serial leases all avoid the downed device.
        for _ in 0..6 {
            assert_ne!(pool.lease().index(), 1);
        }
        assert_eq!(pool.health_mask(), vec![true, false, true]);
    }

    #[test]
    fn quarantine_and_reinstatement_round_trip() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        pool.quarantine(1, 0);
        assert_eq!(pool.health_mask(), vec![true, false]);
        // heal_after_probes = 0 with the default ~200µs backoff: the
        // first due probe reinstates it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.health_mask() != vec![true, true] {
            assert!(
                std::time::Instant::now() < deadline,
                "probe never reinstated the device"
            );
            std::thread::yield_now();
        }
        assert!(pool.is_healthy(1));
    }

    #[test]
    fn all_devices_down_still_leases() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        pool.quarantine(0, u32::MAX);
        pool.quarantine(1, u32::MAX);
        // Total loss: lease falls back to the full pool instead of
        // deadlocking; callers surface the fault on first use.
        let lease = pool.lease();
        assert!(lease.index() < 2);
        assert_eq!(pool.health_mask(), vec![false, false]);
    }

    #[test]
    fn lease_outlives_pool_and_releases_cleanly() {
        // Release-after-pool-drain ordering: every pool clone is dropped
        // while leases are still live. The ledger is kept alive by the
        // leases' own Arcs, so late releases must neither panic nor
        // corrupt shared state.
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        let clone = pool.clone();
        let lease_a = pool.lease();
        let lease_b = clone.lease();
        assert_eq!(pool.active_leases(), vec![1, 1]);
        drop(pool);
        drop(clone);
        // The devices (and their memory pools) stay usable through the
        // lease after every pool handle is gone.
        let buf = lease_a.device().alloc_zeroed::<u64>(8).unwrap();
        assert_eq!(lease_a.device().used_bytes(), 64);
        drop(buf);
        drop(lease_b);
        lease_a.release();
    }

    #[test]
    fn memory_ledger_is_shared_across_clones() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        pool.memory_ledger().set_budget(Some(1 << 20));
        assert_eq!(pool.clone().memory_ledger().budget(), Some(1 << 20));
    }

    #[test]
    fn pool_clones_share_the_lease_ledger() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 2);
        let clone = pool.clone();
        let _a = pool.lease();
        // The clone sees the original's lease and avoids device 0.
        let b = clone.lease();
        assert_eq!(b.index(), 1);
        assert_eq!(pool.active_leases(), vec![1, 1]);
    }

    #[test]
    fn lease_device_shares_the_pool_device_memory() {
        let pool = DevicePool::homogeneous(DeviceSpec::small_test_device(), 1);
        let lease = pool.lease();
        let buf = lease.device().alloc_zeroed::<u64>(10).unwrap();
        // The lease hands out the same simulated device, not a copy.
        assert_eq!(pool.device(0).used_bytes(), 80);
        drop(buf);
        assert_eq!(pool.device(0).used_bytes(), 0);
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
