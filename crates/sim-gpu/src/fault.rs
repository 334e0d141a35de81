//! Deterministic fault injection for the simulated substrate.
//!
//! The paper's evaluation assumes a cooperative GPU: every upload lands,
//! every kernel completes. A serving system at fleet scale cannot — so
//! this module gives the simulator an *adversarial* mode in which devices
//! crash, transfers fail transiently and kernels straggle, all on a
//! **seeded, reproducible schedule** so a chaos run is an ordinary test.
//!
//! Faults arrive as an inhomogeneous Poisson process (IPPP — the
//! rate-shaped arrival model of Hohmann 2019, arXiv:1901.10754) over each
//! device's *operation axis*: the injector counts device operations
//! (uploads, kernel launches) and fires an event when a device's counter
//! crosses the event's threshold. Counting operations instead of wall
//! time makes the fault *schedule* reproducible regardless of host speed,
//! and no clock decides recovery either: a crashed device heals after a
//! set number of health reads (below). What still keeps a concurrent
//! run's *outcome* from replaying is thread timing: which worker reaches
//! a device's operation counter, or a health read, first.
//!
//! Three fault kinds model the failure classes the layers above must
//! survive:
//!
//! | kind | effect | recovery path |
//! |---|---|---|
//! | [`FaultKind::Crash`] | device marked down; every op fails until reinstated | pool probation probes, one per health read |
//! | [`FaultKind::Transient`] | exactly one op fails; device stays healthy | caller retries (same or another device) |
//! | [`FaultKind::Straggler`] | modeled time inflated by a factor for a window of ops | none needed — results stay exact, only latency degrades |
//!
//! Device health lives in a `HealthLedger` shared by every clone of a
//! pool. A crashed device sits in *probation*: every
//! [`DevicePool::health_mask`](crate::DevicePool::health_mask) read probes
//! it once, and after the event's `heal_after_probes` failed probes the
//! next probe reinstates it (modeling a device reset or reattach
//! completing). The same ledger counts the faults fired and the devices
//! downed and reinstated ([`FaultCounts`], read with
//! [`DevicePool::fault_counts`](crate::DevicePool::fault_counts)): the
//! counts belong to the pool and drop with it.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// The device-side operation classes the injector can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// A host→device transfer (index snapshot upload).
    Upload,
    /// A kernel-launch sequence (one batched-join execution).
    Launch,
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOp::Upload => write!(f, "upload"),
            FaultOp::Launch => write!(f, "launch"),
        }
    }
}

/// An injected device failure, surfaced to callers as an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceFault {
    /// The device is down (crash fired, not yet reinstated). Everything
    /// resident on it — snapshots included — is lost.
    Crashed {
        /// Pool index of the crashed device.
        device: usize,
    },
    /// A single operation failed; the device itself stays healthy and the
    /// very next attempt may succeed.
    Transient {
        /// Pool index of the affected device.
        device: usize,
        /// Which operation class failed.
        op: FaultOp,
    },
}

impl DeviceFault {
    /// Pool index of the device the fault hit.
    pub fn device(&self) -> usize {
        match *self {
            DeviceFault::Crashed { device } | DeviceFault::Transient { device, .. } => device,
        }
    }

    /// Whether the fault left the device down (crash) rather than a
    /// one-shot failure.
    pub fn is_crash(&self) -> bool {
        matches!(self, DeviceFault::Crashed { .. })
    }
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFault::Crashed { device } => write!(f, "device {device} crashed"),
            DeviceFault::Transient { device, op } => {
                write!(f, "transient {op} failure on device {device}")
            }
        }
    }
}

impl std::error::Error for DeviceFault {}

/// What one scheduled fault event does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The device goes down and stays down through `heal_after_probes`
    /// failed reinstatement probes; the probe after that heals it.
    Crash {
        /// Failed probes required before reinstatement; `u32::MAX` never
        /// heals within any realistic run.
        heal_after_probes: u32,
    },
    /// The next operation fails once; health is unaffected.
    Transient,
    /// Modeled execution time is inflated by `factor` (clamped to ≥ 1)
    /// for the next `ops` operations. Exactness is untouched — a slow
    /// device still answers correctly.
    Straggler {
        /// Modeled-time multiplier while the window is open.
        factor: f64,
        /// Number of operations the slowdown window covers.
        ops: u64,
    },
}

/// One scheduled fault: fires when `device`'s operation counter reaches
/// `after_ops`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Pool index of the target device.
    pub device: usize,
    /// Operation count (per device, counted from arming) at which the
    /// event fires. `after_ops == 1` fires on the device's first op.
    pub after_ops: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Shape of a seeded fault storm generated by [`FaultPlan::storm`].
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// RNG seed — same seed, same storm.
    pub seed: u64,
    /// Number of pool devices the storm targets.
    pub devices: usize,
    /// Length of the per-device operation axis the storm spans.
    pub horizon_ops: u64,
    /// Peak fault intensity, in faults per device-operation, reached at
    /// the middle of the horizon (the IPPP rate is `peak_rate ·
    /// sin²(π·t/horizon)` — quiet edges, stormy middle).
    pub peak_rate: f64,
    /// Relative weight of crash events in the kind mix.
    pub crash_weight: f64,
    /// Relative weight of transient events.
    pub transient_weight: f64,
    /// Relative weight of straggler events.
    pub straggler_weight: f64,
    /// Crashes are confined to at most this many distinct devices, and
    /// never to device 0, so at least one survivor always exists (set to
    /// `devices` only if you want total-loss storms).
    pub max_crash_devices: usize,
    /// `heal_after_probes` stamped on generated crash events.
    pub heal_after_probes: u32,
    /// Straggler slowdown factor on generated straggler events.
    pub straggler_factor: f64,
}

impl Default for StormConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            devices: 4,
            horizon_ops: 64,
            peak_rate: 0.08,
            crash_weight: 1.0,
            transient_weight: 2.0,
            straggler_weight: 1.0,
            max_crash_devices: 1,
            heal_after_probes: 2,
            straggler_factor: 3.0,
        }
    }
}

/// A seeded schedule of device faults, armed on a pool with
/// [`crate::DevicePool::inject_faults`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from an explicit event list (events are sorted per device by
    /// firing threshold; relative order of same-threshold events is kept).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.device, e.after_ops));
        Self { events }
    }

    /// Generates a storm by thinning: candidate arrivals are drawn from a
    /// homogeneous Poisson process at `peak_rate` (exponential gaps), and
    /// each is accepted with probability `λ(t)/peak_rate` where `λ(t) =
    /// peak_rate · sin²(π·t/horizon)` — an inhomogeneous Poisson process
    /// whose intensity ramps up to mid-run and back down. Everything is
    /// driven by `cfg.seed`; the same config always yields the same plan.
    pub fn storm(cfg: &StormConfig) -> Self {
        assert!(cfg.devices > 0, "storm needs at least one device");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let total_weight = cfg.crash_weight + cfg.transient_weight + cfg.straggler_weight;
        assert!(total_weight > 0.0, "storm needs a positive kind weight");
        // Crashes stay off device 0 so a survivor always exists.
        let crashable = cfg.max_crash_devices.min(cfg.devices.saturating_sub(1));
        let mut crash_set: Vec<usize> = Vec::new();
        let mut events = Vec::new();
        if cfg.peak_rate > 0.0 && cfg.horizon_ops > 0 {
            let horizon = cfg.horizon_ops as f64;
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival gap at the envelope rate.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                t += -u.ln() / cfg.peak_rate;
                if t >= horizon {
                    break;
                }
                let intensity = (std::f64::consts::PI * t / horizon).sin().powi(2);
                if !rng.gen_bool(intensity) {
                    continue;
                }
                let after_ops = (t as u64).max(1);
                let mut kind_draw = rng.gen_range(0.0..total_weight);
                let device = rng.gen_range(0..cfg.devices);
                if kind_draw < cfg.crash_weight {
                    if crashable == 0 {
                        // Nothing may crash (single-device pool or
                        // max_crash_devices = 0): demote to transient.
                        events.push(FaultEvent {
                            device,
                            after_ops,
                            kind: FaultKind::Transient,
                        });
                        continue;
                    }
                    // Confine crashes to a bounded set of non-zero devices.
                    let candidate = rng.gen_range(1..cfg.devices);
                    let device = if crash_set.contains(&candidate) {
                        candidate
                    } else if crash_set.len() < crashable {
                        crash_set.push(candidate);
                        candidate
                    } else {
                        crash_set[rng.gen_range(0..crash_set.len())]
                    };
                    events.push(FaultEvent {
                        device,
                        after_ops,
                        kind: FaultKind::Crash {
                            heal_after_probes: cfg.heal_after_probes,
                        },
                    });
                    continue;
                }
                kind_draw -= cfg.crash_weight;
                let kind = if kind_draw < cfg.transient_weight {
                    FaultKind::Transient
                } else {
                    FaultKind::Straggler {
                        factor: cfg.straggler_factor,
                        ops: (cfg.horizon_ops / 4).max(1),
                    }
                };
                events.push(FaultEvent {
                    device,
                    after_ops,
                    kind,
                });
            }
        }
        Self::new(events)
    }

    /// The scheduled events, sorted by `(device, after_ops)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Public snapshot of one device's health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Serving normally.
    Healthy,
    /// Down, in probation: each health read probes it once.
    Down {
        /// Probes that have already failed.
        failed_probes: u32,
    },
}

#[derive(Clone, Debug)]
enum HealthState {
    Healthy,
    Down { failed_probes: u32, heal_after: u32 },
}

/// Faults fired on one pool and the health transitions they caused,
/// counted since the pool was built and read with
/// [`DevicePool::fault_counts`](crate::DevicePool::fault_counts). Clones
/// of a pool share one set of counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Crash events fired.
    pub crashes: u64,
    /// Transient failures fired.
    pub transients: u64,
    /// Straggler windows opened.
    pub stragglers: u64,
    /// Devices moved into probation (a crash on a device already down
    /// moves nothing).
    pub downed: u64,
    /// Devices reinstated by a health probe.
    pub reinstated: u64,
}

/// Per-device health shared by every clone of a pool.
///
/// State machine per device:
///
/// ```text
///            crash fault
///   Healthy ───────────────────────────▶ Down(probation)
///      ▲                                     │
///      │   probe #k succeeds                 │ probe #j fails
///      │   (k > heal_after_probes)           │ (j ≤ heal_after_probes)
///      └─────────────────────────────────────┤ re-probe at the next read
/// ```
///
/// Probes are driven by reads, not by a clock: every
/// [`DevicePool::health_mask`](crate::DevicePool::health_mask) call probes
/// each downed device once before reading health.
#[derive(Debug)]
pub(crate) struct HealthLedger {
    states: Mutex<Vec<HealthState>>,
    counts: Mutex<FaultCounts>,
}

impl HealthLedger {
    /// A ledger with every device healthy.
    pub(crate) fn new(devices: usize) -> Self {
        Self {
            states: Mutex::new(vec![HealthState::Healthy; devices]),
            counts: Mutex::new(FaultCounts::default()),
        }
    }

    /// The pool's fault counts so far.
    pub(crate) fn counts(&self) -> FaultCounts {
        *self.counts.lock()
    }

    /// Whether device `i` is currently serving (not in probation).
    pub(crate) fn is_healthy(&self, i: usize) -> bool {
        matches!(self.states.lock()[i], HealthState::Healthy)
    }

    /// Public health snapshot per device.
    pub(crate) fn snapshot(&self) -> Vec<DeviceHealth> {
        self.states
            .lock()
            .iter()
            .map(|s| match s {
                HealthState::Healthy => DeviceHealth::Healthy,
                HealthState::Down { failed_probes, .. } => DeviceHealth::Down {
                    failed_probes: *failed_probes,
                },
            })
            .collect()
    }

    /// Marks device `i` down (into probation). The device reinstates
    /// after `heal_after_probes` failed probes. Idempotent while down —
    /// repeated faults on a downed device don't reset its probe progress.
    pub(crate) fn mark_down(&self, i: usize, heal_after_probes: u32) {
        let mut states = self.states.lock();
        if matches!(states[i], HealthState::Down { .. }) {
            return;
        }
        states[i] = HealthState::Down {
            failed_probes: 0,
            heal_after: heal_after_probes,
        };
        self.counts.lock().downed += 1;
    }

    /// Probes every downed device once, then returns the healthy flag per
    /// device in index order. A probe fails while the crash's
    /// `heal_after_probes` budget is unspent (the modeled device reset
    /// hasn't completed); the first probe past the budget heals the device.
    pub(crate) fn probe(&self) -> Vec<bool> {
        let mut states = self.states.lock();
        let mut reinstated = 0;
        for state in states.iter_mut() {
            if let HealthState::Down {
                failed_probes,
                heal_after,
            } = state
            {
                if *failed_probes >= *heal_after {
                    *state = HealthState::Healthy;
                    reinstated += 1;
                } else {
                    *failed_probes += 1;
                }
            }
        }
        if reinstated > 0 {
            self.counts.lock().reinstated += reinstated;
        }
        states
            .iter()
            .map(|s| matches!(s, HealthState::Healthy))
            .collect()
    }
}

struct DeviceFaultState {
    ops: u64,
    pending: VecDeque<(u64, FaultKind)>,
    slow_factor: f64,
    slow_until: u64,
}

impl fmt::Debug for DeviceFaultState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceFaultState")
            .field("ops", &self.ops)
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// The armed runtime of a [`FaultPlan`]: per-device operation counters
/// plus the shared `HealthLedger` crash events mark.
///
/// Installed into every device of a pool by
/// [`crate::DevicePool::inject_faults`]; devices consult it through
/// [`crate::Device::fault_check`] at their upload/launch boundaries.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    state: Mutex<Vec<DeviceFaultState>>,
    health: Arc<HealthLedger>,
}

impl FaultInjector {
    /// Arms `plan` over `devices` devices against the shared `health`
    /// ledger.
    pub(crate) fn new(plan: &FaultPlan, devices: usize, health: Arc<HealthLedger>) -> Arc<Self> {
        let mut state: Vec<DeviceFaultState> = (0..devices)
            .map(|_| DeviceFaultState {
                ops: 0,
                pending: VecDeque::new(),
                slow_factor: 1.0,
                slow_until: 0,
            })
            .collect();
        for ev in plan.events() {
            assert!(
                ev.device < devices,
                "fault event targets device {} of a {devices}-device pool",
                ev.device
            );
            state[ev.device].pending.push_back((ev.after_ops, ev.kind));
        }
        Arc::new(Self {
            state: Mutex::new(state),
            health,
        })
    }

    /// Counts one operation on `device` and fires any event whose
    /// threshold it crossed. A downed device fails every operation until
    /// the health ledger reinstates it.
    pub(crate) fn check(&self, device: usize, op: FaultOp) -> Result<(), DeviceFault> {
        if !self.health.is_healthy(device) {
            return Err(DeviceFault::Crashed { device });
        }
        let mut state = self.state.lock();
        let s = &mut state[device];
        s.ops += 1;
        let ops = s.ops;
        while let Some(&(after, kind)) = s.pending.front() {
            if after > ops {
                break;
            }
            s.pending.pop_front();
            match kind {
                FaultKind::Crash { heal_after_probes } => {
                    drop(state);
                    self.health.counts.lock().crashes += 1;
                    self.health.mark_down(device, heal_after_probes);
                    return Err(DeviceFault::Crashed { device });
                }
                FaultKind::Transient => {
                    self.health.counts.lock().transients += 1;
                    return Err(DeviceFault::Transient { device, op });
                }
                FaultKind::Straggler { factor, ops: span } => {
                    self.health.counts.lock().stragglers += 1;
                    s.slow_factor = factor.max(1.0);
                    s.slow_until = ops + span;
                }
            }
        }
        Ok(())
    }

    /// Current modeled-time inflation factor of `device` (1.0 when no
    /// straggler window is open).
    pub(crate) fn slowdown(&self, device: usize) -> f64 {
        let state = self.state.lock();
        let s = &state[device];
        if s.ops < s.slow_until {
            s.slow_factor
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(devices: usize) -> Arc<HealthLedger> {
        Arc::new(HealthLedger::new(devices))
    }

    #[test]
    fn storm_is_deterministic_and_spares_device_zero() {
        let cfg = StormConfig {
            seed: 42,
            devices: 4,
            horizon_ops: 256,
            peak_rate: 0.2,
            ..StormConfig::default()
        };
        let a = FaultPlan::storm(&cfg);
        let b = FaultPlan::storm(&cfg);
        assert_eq!(a.events(), b.events());
        assert!(!a.is_empty(), "a 0.2-peak storm over 256 ops fires");
        let crash_devices: Vec<usize> = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
            .map(|e| e.device)
            .collect();
        assert!(crash_devices.iter().all(|&d| d != 0));
        let mut distinct = crash_devices.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= cfg.max_crash_devices);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            FaultPlan::storm(&StormConfig {
                seed,
                devices: 4,
                horizon_ops: 512,
                peak_rate: 0.2,
                ..StormConfig::default()
            })
        };
        assert_ne!(mk(1).events(), mk(2).events());
    }

    #[test]
    fn single_device_storm_never_crashes() {
        let plan = FaultPlan::storm(&StormConfig {
            seed: 7,
            devices: 1,
            horizon_ops: 512,
            peak_rate: 0.3,
            crash_weight: 10.0,
            ..StormConfig::default()
        });
        assert!(plan
            .events()
            .iter()
            .all(|e| !matches!(e.kind, FaultKind::Crash { .. })));
    }

    #[test]
    fn transient_fails_exactly_once() {
        let plan = FaultPlan::new(vec![FaultEvent {
            device: 0,
            after_ops: 2,
            kind: FaultKind::Transient,
        }]);
        let inj = FaultInjector::new(&plan, 1, health(1));
        assert!(inj.check(0, FaultOp::Launch).is_ok());
        assert_eq!(
            inj.check(0, FaultOp::Upload),
            Err(DeviceFault::Transient {
                device: 0,
                op: FaultOp::Upload
            })
        );
        assert!(inj.check(0, FaultOp::Upload).is_ok());
        assert!(inj.check(0, FaultOp::Launch).is_ok());
    }

    #[test]
    fn crash_downs_device_until_probes_heal_it() {
        let plan = FaultPlan::new(vec![FaultEvent {
            device: 1,
            after_ops: 1,
            kind: FaultKind::Crash {
                heal_after_probes: 2,
            },
        }]);
        let health = health(2);
        let inj = FaultInjector::new(&plan, 2, Arc::clone(&health));
        assert_eq!(
            inj.check(1, FaultOp::Launch),
            Err(DeviceFault::Crashed { device: 1 })
        );
        assert!(!health.is_healthy(1));
        assert!(health.is_healthy(0));
        // Still down: every op fails without consuming further events.
        assert_eq!(
            inj.check(1, FaultOp::Upload),
            Err(DeviceFault::Crashed { device: 1 })
        );
        // Each read probes device 1 once: two probes fail, the third heals.
        assert_eq!(health.probe(), vec![true, false]);
        assert_eq!(health.probe(), vec![true, false]);
        assert_eq!(health.probe(), vec![true, true]);
        assert!(inj.check(1, FaultOp::Launch).is_ok());
    }

    #[test]
    fn straggler_inflates_then_expires() {
        let plan = FaultPlan::new(vec![FaultEvent {
            device: 0,
            after_ops: 1,
            kind: FaultKind::Straggler {
                factor: 4.0,
                ops: 2,
            },
        }]);
        let inj = FaultInjector::new(&plan, 1, health(1));
        assert!((inj.slowdown(0) - 1.0).abs() < 1e-12);
        assert!(
            inj.check(0, FaultOp::Launch).is_ok(),
            "stragglers don't fail ops"
        );
        assert!((inj.slowdown(0) - 4.0).abs() < 1e-12);
        assert!(inj.check(0, FaultOp::Launch).is_ok());
        assert!((inj.slowdown(0) - 4.0).abs() < 1e-12);
        assert!(inj.check(0, FaultOp::Launch).is_ok());
        assert!((inj.slowdown(0) - 1.0).abs() < 1e-12, "window expired");
    }

    #[test]
    fn mark_down_is_idempotent_while_down() {
        let health = health(1);
        health.mark_down(0, 5);
        health.probe();
        let before = health.snapshot();
        health.mark_down(0, 0); // must not reset the heal budget
        assert_eq!(health.snapshot(), before);
        assert_eq!(health.probe(), vec![false], "budget of 5 still unspent");
    }

    #[test]
    fn health_snapshot_reports_probation() {
        let health = health(2);
        health.mark_down(1, 3);
        assert_eq!(
            health.snapshot(),
            vec![
                DeviceHealth::Healthy,
                DeviceHealth::Down { failed_probes: 0 }
            ]
        );
        // One read probes once: the failure is counted, nothing heals.
        assert_eq!(health.probe(), vec![true, false]);
        assert_eq!(
            health.snapshot()[1],
            DeviceHealth::Down { failed_probes: 1 }
        );
    }
}
