//! Dataset-resident query sessions: build the index once, serve many
//! queries.
//!
//! The paper amortizes *transfers* across batches (§V-A); a serving
//! deployment must also amortize the *index*. Every [`crate::GpuSelfJoin`]
//! call rebuilds the ε-coupled grid and re-uploads the device snapshot —
//! fine for a one-shot figure, fatal for sustained query traffic where
//! the same dataset answers query after query. [`SelfJoinSession`] pins a
//! dataset and keeps three things resident across queries:
//!
//! 1. the built [`GridIndex`] (host),
//! 2. one [`DeviceGrid`] snapshot per pool device it has touched, and
//! 3. the hoisted [`CellMajorPlan`] cached alongside each snapshot (the
//!    per-cell neighbor CSR is ε′-independent, so one hoist serves every
//!    in-band query).
//!
//! A plan depends only on the grid, so the hoisting kernels run once per
//! generation: each further snapshot of it gets a copy of a live sibling's
//! plan ([`CellMajorPlan::copy_to`]), and the kernels run again only when
//! no live snapshot holds one. A copy is charged the modeled cost of the
//! build it stands for, so a snapshot's modeled charge and its ledger
//! bytes do not depend on which device built the plan.
//! [`SelfJoinSession::warm`] establishes all of it before serving: the
//! index, every device's snapshot and each ε's exact count.
//!
//! ## The validity band
//!
//! A grid built at ε_built serves any query radius ε′ ≤ ε_built exactly:
//! the one-cell adjacent shell covers every radius up to the cell width,
//! and only the kernels' distance threshold changes
//! ([`ExecOptions::query_epsilon`]). Serving ε′ ≪ ε_built is *correct*
//! but wasteful — candidate cells grow as `(ε_built/ε′)ᵈ` relative to a
//! right-sized grid — so the session rebuilds once ε′ falls below
//! `reuse_floor · ε_built` (default 0.5). Queries above ε_built always
//! rebuild (the shell would miss neighbours). Together:
//!
//! ```text
//! reuse  ⇔  reuse_floor · ε_built ≤ ε′ ≤ ε_built
//! ```
//!
//! ## Concurrency
//!
//! Sessions are `Send + Sync`; queries take `&self`. An unpinned query
//! runs on the pool's next healthy device ([`DevicePool::next_healthy`]),
//! so a stream of queries — from one session or from several sharing the
//! pool — rotates across devices. Result correctness is untouched by
//! interleaving: every query runs against an immutable `Arc`'d index
//! generation, and a concurrent rebuild simply installs a new generation
//! while in-flight queries finish on the old one (device memory is freed
//! when the last query drops its `Arc`).

use crate::batching::{batch_split, sample_stride, ExecOptions};
use crate::cell_major::{CellMajorPlan, HotPath};
use crate::cost::{calibrate, price, Census, Density};
use crate::device_grid::DeviceGrid;
use crate::error::{GridBuildError, SelfJoinError};
use crate::grid::GridIndex;
use crate::knn::{gpu_knn_on, KnnHit};
use crate::plan::{execute, IndexStage, JoinPlan, JoinReport, PlanOutput};
use crate::result::NeighborTable;
use crate::selfjoin::SelfJoinConfig;
use parking_lot::Mutex;
use sim_gpu::{host_core_time, DevicePool, Evictor, LedgerEntry};
use sj_datasets::Dataset;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide session id source (see [`SelfJoinSession::id`]).
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// Configuration of a resident session.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Per-query join configuration (hot path, UNICOMP, launch geometry,
    /// batching tunables).
    pub join: SelfJoinConfig,
    /// Lower edge of the validity band as a fraction of ε_built: a
    /// resident index is reused while
    /// `reuse_floor · ε_built ≤ ε′ ≤ ε_built`. Must lie in `(0, 1]`;
    /// `1.0` disables reuse for any ε′ ≠ ε_built.
    pub reuse_floor: f64,
    /// Headroom factor applied when (re)building: the index is built at
    /// `ε · build_headroom` (≥ 1), so an ε-sweep ascending toward the
    /// headroom ceiling keeps hitting the band instead of rebuilding
    /// every step. Default 1.0 (build exactly at the queried ε).
    pub build_headroom: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            join: SelfJoinConfig::default(),
            reuse_floor: 0.5,
            build_headroom: 1.0,
        }
    }
}

/// Cumulative counters of one session (all queries since creation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Self-join queries served, [`SelfJoinSession::warm`]'s one join per
    /// ε included (it builds no table, but pays and counts like a query).
    pub queries: u64,
    /// kNN queries served.
    pub knn_queries: u64,
    /// Self-join queries that reused the resident index (counted once
    /// per served query, however many device faults it retried through).
    pub index_reuses: u64,
    /// Queries whose result-size estimate came from the exact count of an
    /// earlier same-ε query (the sampling kernel was skipped).
    pub estimate_hits: u64,
    /// Index (re)builds — the first query plus every out-of-band ε.
    pub index_builds: u64,
    /// Device snapshot uploads (once per device per index generation,
    /// plus one per re-upload after an eviction).
    pub snapshot_uploads: u64,
    /// Resident snapshots dropped under memory pressure (LRU ledger
    /// eviction or [`SelfJoinSession::evict_snapshot`]).
    pub snapshot_evictions: u64,
    /// Snapshot uploads that re-established residency a *previous* upload
    /// of the same generation had already paid for — the price of an
    /// eviction on a device the session still queries.
    pub snapshot_reuploads: u64,
    /// Snapshots force-dropped after a device fault: the device's copy is
    /// lost with it, and the next query touching the device transparently
    /// re-uploads (counted there as a re-upload).
    pub snapshot_invalidations: u64,
    /// Attempts that unpinned queries (self-join or kNN) re-ran on the
    /// pool's next healthy device after a device fault.
    pub fault_retries: u64,
}

/// One device's resident copy of the current index generation.
struct DeviceSnapshot {
    dg: DeviceGrid,
    /// Hoisted cell-major plan (when the session runs that hot path):
    /// built on the generation's first snapshot, copied to the others.
    hoist: Option<CellMajorPlan>,
    /// Modeled cost of the hoist `hoist` stands for: the hoisting kernels
    /// plus their transfers, whether the plan was built here or copied
    /// from a sibling (zero on the per-thread path).
    hoist_modeled: Duration,
    /// Modeled one-time cost of establishing this residency: snapshot
    /// upload + [`Self::hoist_modeled`]. Charged to the first query that
    /// touches the device, then amortized away.
    upload_modeled: Duration,
    /// Registration in the pool's snapshot ledger; unregisters (exactly
    /// once) when the snapshot drops, whether by eviction, generation
    /// replacement or session drop.
    ledger_entry: LedgerEntry,
}

/// One index generation: the host grid plus per-device snapshots.
struct Resident {
    grid: Arc<GridIndex>,
    /// Device index → snapshot, populated lazily on first touch.
    snapshots: Mutex<HashMap<usize, Arc<DeviceSnapshot>>>,
    /// Devices that have uploaded this generation at least once — a
    /// second upload on such a device is a *re-upload* (post-eviction).
    uploaded_devices: Mutex<HashSet<usize>>,
    /// ε′ bits → the exact directed pair count of an already-served query
    /// and the modeled time of its join launches with their downloads
    /// (the pipeline a repeat query runs: no estimate, build or upload).
    /// Query streams repeat ε values; a hit replaces the sampling
    /// estimate kernel with the exact count from the previous answer, and
    /// prices the repeat at what the previous answer cost (invalidated
    /// with the generation — a rebuild changes the grid, not the answer,
    /// but the cache rides the generation's lifetime anyway).
    estimates: Mutex<HashMap<u64, (u64, Duration)>>,
}

struct SessionState {
    resident: Option<Arc<Resident>>,
    stats: SessionStats,
}

/// Projected modeled cost of a prospective query (see
/// [`SelfJoinSession::projected_cost`]) — the admission signal a serving
/// frontend reads *without* touching a device.
#[derive(Clone, Copy, Debug)]
pub struct ProjectedCost {
    /// Projected modeled response time (build included when needed).
    pub modeled: Duration,
    /// Projected directed result pairs the query will produce.
    pub expected_pairs: u64,
    /// Whether the query would fall outside the validity band and force
    /// an index rebuild.
    pub needs_build: bool,
}

/// Output of one session self-join query.
#[derive(Clone, Debug)]
pub struct SessionQueryOutput {
    /// Directed, self-excluded neighbour lists at the queried ε′.
    pub table: NeighborTable,
    /// Timings and counters. `grid_build` / `modeled_grid_build` and
    /// `upload` / `modeled_upload` hold the session-level index build and
    /// first-touch upload when this query paid them, and `total` /
    /// `modeled_total` include them; on reuse they are zero and the totals
    /// shrink to the pure query cost — the amortization the
    /// `query_throughput` bench measures.
    pub report: JoinReport,
    /// Whether the resident index served this query (false = rebuilt).
    pub reused_index: bool,
    /// Pool device that executed the query.
    pub device: usize,
}

/// Output of one session kNN query.
#[derive(Clone, Debug)]
pub struct SessionKnnOutput {
    /// Per-query hits, each sorted by distance (ties by id).
    pub hits: Vec<Vec<KnnHit>>,
    /// Whether the resident index served this query (false = rebuilt).
    pub reused_index: bool,
    /// Pool device that executed the query.
    pub device: usize,
}

/// A dataset-resident self-join/kNN session over a device pool.
///
/// See the [module docs](self) for the residency and validity-band
/// semantics. Dropping the session releases every resident snapshot
/// (device memory returns to the pool).
pub struct SelfJoinSession {
    /// Process-unique id (see [`Self::id`]).
    id: u64,
    data: Dataset,
    pool: DevicePool,
    config: SessionConfig,
    state: Mutex<SessionState>,
    /// Snapshot evictions (LRU or manual). Kept outside `state` because
    /// ledger evictors fire without a session handle — they share this
    /// counter through an `Arc`.
    evictions: Arc<AtomicU64>,
}

impl SelfJoinSession {
    /// Pins `data` to a session over `pool` with default configuration.
    pub fn new(data: Dataset, pool: DevicePool) -> Self {
        Self {
            id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
            data,
            pool,
            config: SessionConfig::default(),
            state: Mutex::new(SessionState {
                resident: None,
                stats: SessionStats::default(),
            }),
            evictions: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A session over a single simulated TITAN X.
    pub fn single_device(data: Dataset) -> Self {
        Self::new(data, DevicePool::titan_x(1))
    }

    /// Overrides the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `reuse_floor` is outside `(0, 1]` or `build_headroom`
    /// is below 1.
    pub fn with_config(mut self, config: SessionConfig) -> Self {
        assert!(
            config.reuse_floor > 0.0 && config.reuse_floor <= 1.0,
            "reuse_floor must be in (0, 1], got {}",
            config.reuse_floor
        );
        assert!(
            config.build_headroom >= 1.0,
            "build_headroom must be >= 1, got {}",
            config.build_headroom
        );
        self.config = config;
        self
    }

    /// The pinned dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The device pool queries run on.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// The active configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Process-unique session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.state.lock().stats;
        stats.snapshot_evictions = self.evictions.load(Ordering::Relaxed);
        stats
    }

    /// The ε the resident index was built with, if one is resident.
    pub fn epsilon_built(&self) -> Option<f64> {
        self.state
            .lock()
            .resident
            .as_ref()
            .map(|r| r.grid.epsilon())
    }

    /// Whether a query at `epsilon` would reuse the resident index (the
    /// validity-band predicate; false when nothing is resident).
    pub fn would_reuse(&self, epsilon: f64) -> bool {
        self.epsilon_built()
            .is_some_and(|built| in_band(built, epsilon, self.config.reuse_floor))
    }

    /// Drops the resident index and every device snapshot. The next query
    /// rebuilds. In-flight queries finish on the old generation.
    pub fn evict(&self) {
        self.state.lock().resident = None;
    }

    /// Serves one self-join query at radius `epsilon`: all ordered pairs
    /// `(p, q)`, `p ≠ q`, with `dist(p, q) ≤ epsilon` — pair-for-pair
    /// identical to a fresh [`crate::GpuSelfJoin::run`] at the same ε,
    /// whether the resident index was reused or rebuilt.
    ///
    /// Device faults are absorbed here: on an injected crash or transient
    /// failure the query retries on the pool's next healthy device (picks
    /// skip devices in probation), up to one attempt past the pool size,
    /// so callers of the unpinned path see faults only when every device
    /// is failing.
    pub fn query(&self, epsilon: f64) -> Result<SessionQueryOutput, SelfJoinError> {
        self.on_healthy_device(|device_index| self.query_on(epsilon, device_index))
    }

    /// Prepares the session to serve `epsilons`, in any order, with none
    /// of the one-time costs a query would otherwise pay: the index build,
    /// the sampling estimate and each device's first-touch upload.
    ///
    /// Each distinct ε runs one join, largest first so that ε sharing a
    /// validity band share one index generation, on the pool's next
    /// healthy device with [`Self::query`]'s fault retries. The join
    /// caches ε's exact pair count, which later queries at ε use as their
    /// estimate and [`Self::projected_cost`] prices them by; it builds no
    /// table, but counts in [`SessionStats::queries`]. Then every pool
    /// device without a snapshot of the resident generation uploads one,
    /// copying the generation's hoisted plan instead of hoisting again.
    ///
    /// # Errors
    ///
    /// [`SelfJoinError::Grid`] when any ε is not finite and positive
    /// (before any work runs), and the first device error that the
    /// retries could not absorb.
    pub fn warm(&self, epsilons: &[f64]) -> Result<(), SelfJoinError> {
        for &epsilon in epsilons {
            check_epsilon(epsilon)?;
        }
        let mut distinct = epsilons.to_vec();
        distinct.sort_by(|a, b| b.total_cmp(a));
        distinct.dedup();
        for &epsilon in &distinct {
            self.on_healthy_device(|device_index| self.join_on(epsilon, device_index))?;
        }
        // The guard must drop before `snapshot_on` re-locks.
        let resident = self.state.lock().resident.clone();
        if let Some(resident) = resident {
            // In device order, so the ledger's LRU order is what a query
            // on each device would leave.
            for device_index in 0..self.pool.len() {
                let (snap, _first_touch) = self.snapshot_on(&resident, device_index)?;
                snap.ledger_entry.touch();
            }
        }
        Ok(())
    }

    /// Runs `attempt` on the pool's next healthy device, and again on the
    /// next one after each device fault, up to one attempt past the pool
    /// size. Returns the first outcome that is not a fault, or the last
    /// fault.
    fn on_healthy_device<T>(
        &self,
        mut attempt: impl FnMut(usize) -> Result<T, SelfJoinError>,
    ) -> Result<T, SelfJoinError> {
        let mut last = None;
        for retry in 0..=self.pool.len() {
            if retry > 0 {
                self.state.lock().stats.fault_retries += 1;
            }
            match attempt(self.pool.next_healthy()) {
                Err(e) if e.is_fault() => last = Some(e),
                other => return other,
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// [`Self::query`] pinned to a specific pool device — serving
    /// frontends with a worker thread per device dispatch through this so
    /// each worker drives exactly the snapshot cache it owns.
    pub fn query_on(
        &self,
        epsilon: f64,
        device_index: usize,
    ) -> Result<SessionQueryOutput, SelfJoinError> {
        let (out, reused_index) = self.join_on(epsilon, device_index)?;
        let t = Instant::now();
        let table = NeighborTable::from_pairs(self.data.len(), &out.pairs);
        let mut report = out.report;
        report.table_build = t.elapsed();
        Ok(SessionQueryOutput {
            table,
            report,
            reused_index,
            device: device_index,
        })
    }

    /// The join behind [`Self::query_on`] and [`Self::warm`], short of the
    /// table: runs ε on `device_index` against the generation serving it,
    /// folds in whatever build and first-touch upload the run paid, caches
    /// ε's exact count and counts the query. Returns the raw output and
    /// whether the resident index served it.
    fn join_on(
        &self,
        epsilon: f64,
        device_index: usize,
    ) -> Result<(PlanOutput, bool), SelfJoinError> {
        let device = self.pool.device(device_index);
        let (resident, reused, build_wall) = self.resident_for(epsilon)?;
        let build_modeled = if reused {
            Duration::ZERO
        } else {
            host_core_time(GridIndex::build_bytes(self.data.len(), self.data.dim()))
        };
        let t_touch = Instant::now();
        let (snap, first_touch) = self.snapshot_on(&resident, device_index)?;
        let touch_wall = t_touch.elapsed();
        snap.ledger_entry.touch();

        // Repeat-ε queries inject the exact pair count of the earlier
        // answer (scaled by the safety factor for batch-buffer headroom)
        // instead of re-running the sampling kernel.
        let cached_count = resident
            .estimates
            .lock()
            .get(&epsilon.to_bits())
            .map(|&(pairs, _)| pairs);
        let mut plan = JoinPlan {
            data: &self.data,
            index: IndexStage::Resident {
                grid: &resident.grid,
                snapshot: &snap.dg,
                hoist: snap.hoist.as_ref(),
            },
            exec: ExecOptions {
                query_epsilon: Some(epsilon),
                ..self.config.join.exec_options()
            },
            launch: self.config.join.launch,
            batching: self.config.join.batching,
        };
        if let Some(pairs) = cached_count {
            let safety = self.config.join.batching.safety_factor;
            plan = plan.estimated(((pairs as f64) * safety).ceil() as u64);
        }
        let mut out = match execute(&plan, device) {
            Ok(out) => out,
            Err(e) => {
                if e.is_fault() {
                    // Whatever was resident on that device is gone with it
                    // (a crash wipes device memory; even a transient leaves
                    // the snapshot's liveness unproven). Drop the snapshot
                    // so the next query touching the device re-uploads
                    // through the ordinary eviction/re-upload path.
                    self.invalidate_snapshot(&resident, device_index);
                }
                return Err(e);
            }
        };

        // Fold the session-level one-time costs into this query's report:
        // the executor saw a resident index, so it charged neither the
        // build nor the upload — whichever of those this query actually
        // triggered belongs to it.
        out.report.grid_build = build_wall;
        out.report.modeled_grid_build = build_modeled;
        if first_touch {
            out.report.upload = touch_wall;
            out.report.modeled_upload = snap.upload_modeled;
        }
        out.report.total += build_wall + out.report.upload;
        out.report.modeled_total += build_modeled + out.report.modeled_upload;
        resident.estimates.lock().insert(
            epsilon.to_bits(),
            (
                out.report.batching.actual_pairs,
                out.report.batching.timeline.total,
            ),
        );

        {
            let mut state = self.state.lock();
            state.stats.queries += 1;
            if reused {
                state.stats.index_reuses += 1;
            }
            if cached_count.is_some() {
                state.stats.estimate_hits += 1;
            }
        }
        Ok((out, reused))
    }

    /// Serves one kNN query (`k` nearest neighbours of every point)
    /// through the resident index, skipping the grid build and upload
    /// that a fresh [`crate::gpu_knn`] would pay.
    ///
    /// Unlike self-joins, kNN is **exact on any cell width** — the ring
    /// search expands until the k-th best distance is covered, so the
    /// validity band does not apply: whatever generation is resident
    /// serves the query (no rebuild thrash when kNN hints interleave
    /// with out-of-band join ε values). `epsilon` is only the cell-width
    /// hint used when nothing is resident yet.
    ///
    /// Device faults are absorbed as in [`Self::query`]: a fault drops the
    /// device's snapshot and the query retries on the next healthy device.
    pub fn knn(&self, epsilon: f64, k: usize) -> Result<SessionKnnOutput, SelfJoinError> {
        // The lock guard must drop before resident_for re-locks.
        let existing = self.state.lock().resident.as_ref().map(Arc::clone);
        let (resident, reused) = match existing {
            Some(resident) => (resident, true),
            None => {
                let (resident, _, _) = self.resident_for(epsilon)?;
                (resident, false)
            }
        };
        let (hits, device_index) = self.on_healthy_device(|device_index| {
            let (snap, _first_touch) = self.snapshot_on(&resident, device_index)?;
            snap.ledger_entry.touch();
            let device = self.pool.device(device_index);
            let hits = gpu_knn_on(device, &snap.dg, k).inspect_err(|e| {
                if e.is_fault() {
                    self.invalidate_snapshot(&resident, device_index);
                }
            })?;
            Ok((hits, device_index))
        })?;
        self.state.lock().stats.knn_queries += 1;
        Ok(SessionKnnOutput {
            hits,
            reused_index: reused,
            device: device_index,
        })
    }

    /// Returns the index generation serving `epsilon`, building a new one
    /// when ε is outside the resident band. Returns `(generation,
    /// reused, build_wall)`.
    fn resident_for(&self, epsilon: f64) -> Result<(Arc<Resident>, bool, Duration), SelfJoinError> {
        check_epsilon(epsilon)?;
        {
            let state = self.state.lock();
            let reusable = state.resident.as_ref().filter(|resident| {
                in_band(resident.grid.epsilon(), epsilon, self.config.reuse_floor)
            });
            if let Some(resident) = reusable {
                return Ok((Arc::clone(resident), true, Duration::ZERO));
            }
        }
        // Build outside the state lock: a concurrent in-band query keeps
        // serving the old generation meanwhile. Racing rebuilds are
        // correct (each query uses the generation it built; last install
        // wins) — just wasted work in a pathological interleaving.
        let t0 = Instant::now();
        let grid = GridIndex::build(&self.data, epsilon * self.config.build_headroom)?;
        let build_wall = t0.elapsed();
        let resident = Arc::new(Resident {
            grid: Arc::new(grid),
            snapshots: Mutex::new(HashMap::new()),
            uploaded_devices: Mutex::new(HashSet::new()),
            estimates: Mutex::new(HashMap::new()),
        });
        let mut state = self.state.lock();
        state.stats.index_builds += 1;
        state.resident = Some(Arc::clone(&resident));
        Ok((resident, false, build_wall))
    }

    /// Returns pool device `device_index`'s snapshot of this generation,
    /// uploading on first touch (on the cell-major path also copying a
    /// live sibling's hoisted plan, or hoisting when none holds one), then
    /// registering the bytes it allocated with the pool's snapshot
    /// ledger — which makes room under its budget first, and can evict the
    /// snapshot later. Returns `(snapshot, first_touch)`.
    fn snapshot_on(
        &self,
        resident: &Arc<Resident>,
        device_index: usize,
    ) -> Result<(Arc<DeviceSnapshot>, bool), SelfJoinError> {
        let device = self.pool.device(device_index);
        if let Some(snap) = resident.snapshots.lock().get(&device_index) {
            return Ok((Arc::clone(snap), false));
        }
        // Upload and hoist OUTSIDE the map lock: a first touch on one
        // device must not stall concurrent queries on devices whose
        // snapshot is already cached (or is being built in parallel). Two
        // racing first touches both upload; the loser's copy is dropped
        // below and its device memory freed — wasted work only in a
        // pathological interleaving, never a stall.
        device.fault_check(sim_gpu::FaultOp::Upload)?;
        let dg = DeviceGrid::upload(device, &self.data, &resident.grid)?;
        let tm = device.spec().transfer_model();
        let (hoist, hoist_modeled) = match self.config.join.hot_path {
            HotPath::CellMajor => {
                // The sibling `Arc` drops with this block, before the
                // ledger registration below may need to evict it.
                let sibling = resident
                    .snapshots
                    .lock()
                    .values()
                    .find(|snap| snap.hoist.is_some())
                    .map(Arc::clone);
                let (plan, modeled) = match sibling.as_deref() {
                    Some(DeviceSnapshot {
                        hoist: Some(plan),
                        hoist_modeled,
                        ..
                    }) => (plan.copy_to(device)?, *hoist_modeled),
                    _ => {
                        let join = &self.config.join;
                        let (plan, stats) =
                            CellMajorPlan::build(device, &dg, join.unicomp, join.launch)?;
                        let modeled = stats.modeled + tm.time(stats.h2d_bytes + stats.d2h_bytes);
                        (plan, modeled)
                    }
                };
                (Some(plan), modeled)
            }
            HotPath::PerThread => (None, Duration::ZERO),
        };
        let upload_modeled = tm.time(dg.h2d_bytes()) + hoist_modeled;
        let resident_bytes =
            dg.h2d_bytes() + hoist.as_ref().map_or(0, CellMajorPlan::resident_bytes);
        // The evictor the ledger will call under memory pressure (shares
        // the idle-check-then-remove rule with `evict_snapshot`).
        let weak = Arc::downgrade(resident);
        let evictions = Arc::clone(&self.evictions);
        let evict: Evictor = Arc::new(move || {
            let Some(resident) = weak.upgrade() else {
                return false;
            };
            try_evict_snapshot(&resident, device_index, &evictions)
        });
        let ledger_entry = self.pool.memory_ledger().register(resident_bytes, evict);
        let snap = Arc::new(DeviceSnapshot {
            dg,
            hoist,
            hoist_modeled,
            upload_modeled,
            ledger_entry,
        });
        {
            let mut snapshots = resident.snapshots.lock();
            if let Some(existing) = snapshots.get(&device_index) {
                // Lost a first-touch race; serve the winner's snapshot.
                return Ok((Arc::clone(existing), false));
            }
            snapshots.insert(device_index, Arc::clone(&snap));
        }
        let reupload = !resident.uploaded_devices.lock().insert(device_index);
        {
            let mut state = self.state.lock();
            state.stats.snapshot_uploads += 1;
            if reupload {
                state.stats.snapshot_reuploads += 1;
            }
        }
        Ok((snap, true))
    }

    /// Evicts one device's resident snapshot, freeing its device memory;
    /// the next query touching that device transparently re-uploads.
    /// Returns `false` when there is nothing resident on the device or a
    /// running query still uses the snapshot (evicting it would free no
    /// memory until the query finished anyway).
    pub fn evict_snapshot(&self, device_index: usize) -> bool {
        let resident = self.state.lock().resident.as_ref().map(Arc::clone);
        let Some(resident) = resident else {
            return false;
        };
        try_evict_snapshot(&resident, device_index, &self.evictions)
    }

    /// Force-drops `device_index`'s snapshot after a device fault. Unlike
    /// [`try_evict_snapshot`], in-flight use does not block removal — the
    /// fault already invalidated the device's copy, and any live `Arc`s
    /// keep the (simulated) buffers alive only until their queries unwind.
    fn invalidate_snapshot(&self, resident: &Resident, device_index: usize) {
        let removed = resident.snapshots.lock().remove(&device_index).is_some();
        if removed {
            self.state.lock().stats.snapshot_invalidations += 1;
        }
    }

    /// Projects the modeled cost of a query at `epsilon` without touching
    /// a device — serving frontends admit on it. A repeat of an ε the
    /// resident generation has served costs what that query's launches
    /// and downloads did. Any other ε is priced from a census sampled at
    /// the width of the grid that would serve it ([`crate::cost`], on pool
    /// device 0's spec): the estimate kernel and the join launches, plus
    /// the grid build, upload and hoist when no resident generation serves
    /// ε. First-touch uploads are not priced: the device is not known
    /// until placement.
    ///
    /// # Errors
    ///
    /// [`SelfJoinError::Grid`] when `epsilon` is not finite and positive.
    pub fn projected_cost(&self, epsilon: f64) -> Result<ProjectedCost, SelfJoinError> {
        check_epsilon(epsilon)?;
        let serves =
            |r: &Arc<Resident>| in_band(r.grid.epsilon(), epsilon, self.config.reuse_floor);
        let resident = self.state.lock().resident.clone().filter(serves);
        if let Some(resident) = &resident {
            if let Some(&(pairs, modeled)) = resident.estimates.lock().get(&epsilon.to_bits()) {
                return Ok(ProjectedCost {
                    modeled,
                    expected_pairs: pairs,
                    needs_build: false,
                });
            }
        }
        // Calibrated at the serving grid's width; neighbor counts scale to
        // ε by the volume ratio.
        let (n, dim, join) = (self.data.len(), self.data.dim(), &self.config.join);
        let built = resident
            .as_ref()
            .map_or(epsilon * self.config.build_headroom, |r| r.grid.epsilon());
        let dmin = self.data.min_per_dim().unwrap_or_else(|| vec![0.0; dim]);
        let dmax = self.data.max_per_dim().unwrap_or_else(|| vec![0.0; dim]);
        let model = calibrate(n, &dmin, &dmax, self.data.coords(), built)?;
        let mut density = Density::of(&model, 0..model.sample_neighbors.len());
        density.neighbors *= (epsilon / built).powi(dim as i32);
        let pairs = (density.neighbors * n as f64).round() as u64;
        let device = self.pool.device(0);
        let estimated = (pairs as f64 * join.batching.safety_factor).ceil() as u64;
        let (batches, _) = batch_split(n, estimated, device.free_bytes(), &join.batching);
        let samples = n.div_ceil(sample_stride(n, &join.batching));
        let mut census = Census::sampled(&model, &density, n, n, join.unicomp, batches, samples);
        census.builds = resident.is_none();
        let spec = device.spec();
        Ok(ProjectedCost {
            modeled: price(&census, spec, spec.transfer_model(), join.batching.streams).total(),
            expected_pairs: pairs,
            needs_build: resident.is_none(),
        })
    }
}

impl std::fmt::Debug for SelfJoinSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfJoinSession")
            .field("points", &self.data.len())
            .field("dim", &self.data.dim())
            .field("devices", &self.pool.len())
            .field("epsilon_built", &self.epsilon_built())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Rejects a query radius that is not finite and positive.
fn check_epsilon(epsilon: f64) -> Result<(), SelfJoinError> {
    if epsilon.is_finite() && epsilon > 0.0 {
        Ok(())
    } else {
        Err(SelfJoinError::Grid(GridBuildError::InvalidEpsilon(epsilon)))
    }
}

/// The validity-band predicate (see the module docs).
fn in_band(built: f64, query: f64, reuse_floor: f64) -> bool {
    query <= built && query >= built * reuse_floor
}

/// The one eviction rule, shared by the ledger's LRU evictor and
/// [`SelfJoinSession::evict_snapshot`]: drop `device_index`'s snapshot
/// from the generation's map unless a running query still holds it (the
/// map's `Arc` is then not the only one, and evicting would free no
/// memory anyway). Returns whether a snapshot was evicted.
fn try_evict_snapshot(resident: &Resident, device_index: usize, evictions: &AtomicU64) -> bool {
    let mut snapshots = resident.snapshots.lock();
    let in_use = match snapshots.get(&device_index) {
        Some(snap) => Arc::strong_count(snap) > 1,
        None => return false,
    };
    if in_use {
        return false;
    }
    snapshots.remove(&device_index);
    evictions.fetch_add(1, Ordering::Relaxed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selfjoin::GpuSelfJoin;
    use sj_datasets::synthetic::{clustered, uniform};

    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SelfJoinSession>()
    };

    #[test]
    fn first_query_builds_then_reuses_in_band() {
        let data = uniform(2, 1200, 71);
        let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1));
        let eps = 3.0;
        let first = session.query(eps).unwrap();
        assert!(!first.reused_index);
        assert!(first.report.grid_build > Duration::ZERO);
        let second = session.query(eps).unwrap();
        assert!(second.reused_index);
        assert_eq!(second.report.grid_build, Duration::ZERO);
        assert_eq!(first.table, second.table);
        // Reuse is strictly cheaper on the modeled clock: no build, no
        // upload, no hoist.
        assert!(second.report.modeled_total < first.report.modeled_total);
        let stats = session.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.index_reuses, 1);
        assert_eq!(stats.snapshot_uploads, 1);
    }

    #[test]
    fn in_band_shrunk_epsilon_matches_fresh_join() {
        let data = clustered(2, 1000, 4, 1.0, 0.1, 72);
        let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1));
        let built = 2.0;
        session.query(built).unwrap();
        for frac in [0.5, 0.7, 0.95] {
            let eps_q = built * frac;
            let out = session.query(eps_q).unwrap();
            assert!(out.reused_index, "frac={frac} should be in band");
            let fresh = GpuSelfJoin::default_device().run(&data, eps_q).unwrap();
            assert_eq!(out.table, fresh.table, "frac={frac}");
        }
    }

    #[test]
    fn out_of_band_epsilon_rebuilds() {
        let data = uniform(2, 800, 73);
        let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1));
        session.query(2.0).unwrap();
        // Above the built ε: the shell would miss neighbours — rebuild.
        let grown = session.query(3.0).unwrap();
        assert!(!grown.reused_index);
        assert_eq!(session.epsilon_built(), Some(3.0));
        let fresh = GpuSelfJoin::default_device().run(&data, 3.0).unwrap();
        assert_eq!(grown.table, fresh.table);
        // Far below the floor: correct but wasteful — rebuild.
        let shrunk = session.query(1.0).unwrap();
        assert!(!shrunk.reused_index);
        assert_eq!(session.epsilon_built(), Some(1.0));
        assert_eq!(session.stats().index_builds, 3);
    }

    #[test]
    fn band_boundaries_are_inclusive() {
        let data = uniform(2, 600, 74);
        let session = SelfJoinSession::new(data, DevicePool::titan_x(1));
        let built = 4.0;
        session.query(built).unwrap();
        assert!(session.would_reuse(built));
        assert!(session.would_reuse(built * 0.5));
        assert!(!session.would_reuse(built * 0.5 - 1e-9));
        assert!(!session.would_reuse(built + 1e-9));
    }

    #[test]
    fn build_headroom_overbuilds_for_ascending_sweeps() {
        let data = uniform(2, 700, 75);
        let session =
            SelfJoinSession::new(data.clone(), DevicePool::titan_x(1)).with_config(SessionConfig {
                build_headroom: 1.5,
                ..SessionConfig::default()
            });
        let out = session.query(2.0).unwrap();
        assert_eq!(session.epsilon_built(), Some(3.0));
        // The overbuilt grid still answers at the queried ε exactly.
        let fresh = GpuSelfJoin::default_device().run(&data, 2.0).unwrap();
        assert_eq!(out.table, fresh.table);
        // An ascending sweep under the ceiling keeps reusing.
        assert!(session.query(2.5).unwrap().reused_index);
        assert!(session.query(3.0).unwrap().reused_index);
        assert!(!session.query(3.1).unwrap().reused_index);
    }

    #[test]
    fn snapshots_upload_once_per_device_generation() {
        let data = uniform(2, 900, 76);
        let session = SelfJoinSession::new(data, DevicePool::titan_x(2));
        let eps = 2.5;
        let mut devices_seen = std::collections::HashSet::new();
        for _ in 0..6 {
            devices_seen.insert(session.query(eps).unwrap().device);
        }
        // Picks alternate across both devices; each uploaded exactly once.
        assert_eq!(devices_seen.len(), 2);
        let stats = session.stats();
        assert_eq!(stats.snapshot_uploads, 2);
        assert_eq!(stats.index_builds, 1);
    }

    #[test]
    fn knn_reuses_the_resident_snapshot() {
        let data = uniform(2, 500, 77);
        let device = sim_gpu::Device::new(sim_gpu::DeviceSpec::titan_x_pascal());
        let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1));
        let eps = 5.0;
        session.query(eps).unwrap();
        let out = session.knn(eps, 6).unwrap();
        assert!(out.reused_index);
        assert_eq!(
            session.stats().snapshot_uploads,
            1,
            "knn re-used the upload"
        );
        let fresh = crate::knn::gpu_knn(&device, &data, eps, 6).unwrap();
        assert_eq!(out.hits.len(), fresh.len());
        for (got, want) in out.hits.iter().zip(&fresh) {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert!((g.dist_sq - w.dist_sq).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn knn_never_triggers_rebuild_thrash() {
        // kNN is exact on any resident cell width, so interleaving kNN
        // hints far outside the join band must not rebuild the index.
        let data = uniform(2, 600, 82);
        let session = SelfJoinSession::single_device(data);
        session.query(2.0).unwrap();
        let out = session.knn(8.0, 4).unwrap();
        assert!(out.reused_index, "resident grid serves any kNN hint");
        assert_eq!(session.epsilon_built(), Some(2.0), "no rebuild");
        assert!(session.query(2.0).unwrap().reused_index, "band intact");
        assert_eq!(session.stats().index_builds, 1);
        // With nothing resident, the hint seeds the first build.
        session.evict();
        let cold = session.knn(3.0, 4).unwrap();
        assert!(!cold.reused_index);
        assert_eq!(session.epsilon_built(), Some(3.0));
    }

    #[test]
    fn eviction_frees_device_memory() {
        let data = uniform(2, 1000, 78);
        let pool = DevicePool::titan_x(2);
        let session = SelfJoinSession::new(data, pool.clone());
        session.query(2.0).unwrap();
        session.query(2.0).unwrap();
        assert!(pool.total_used_bytes() > 0, "snapshots are resident");
        session.evict();
        assert_eq!(pool.total_used_bytes(), 0, "eviction frees all snapshots");
    }

    #[test]
    fn drop_frees_device_memory() {
        let data = uniform(2, 800, 79);
        let pool = DevicePool::titan_x(1);
        {
            let session = SelfJoinSession::new(data, pool.clone());
            session.query(2.0).unwrap();
            assert!(pool.total_used_bytes() > 0);
        }
        assert_eq!(pool.total_used_bytes(), 0);
    }

    #[test]
    fn invalid_epsilon_surfaces_error() {
        let session = SelfJoinSession::single_device(uniform(2, 50, 80));
        let invalid = |e| matches!(e, SelfJoinError::Grid(GridBuildError::InvalidEpsilon(_)));
        for eps in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            assert!(session.query(eps).is_err_and(invalid), "query at {eps}");
            assert!(
                session.projected_cost(eps).is_err_and(invalid),
                "projection at {eps}"
            );
            assert!(
                session.warm(&[2.0, eps]).is_err_and(invalid),
                "warm-up at {eps}"
            );
        }
        assert_eq!(session.stats().queries, 0, "refused before any join ran");
    }

    #[test]
    fn a_copied_plan_equals_a_built_one() {
        let data = uniform(2, 1000, 96);
        let pool = DevicePool::titan_x(3);
        let session = SelfJoinSession::new(data, pool.clone());
        let eps = 2.0;
        // Checks device `d`'s resident plan against one the kernels build
        // there, and returns the snapshot's modeled charge.
        let plan_matches_a_build = |d: usize| {
            let resident = session.state.lock().resident.clone().unwrap();
            let snap = Arc::clone(&resident.snapshots.lock()[&d]);
            let plan = snap
                .hoist
                .as_ref()
                .expect("cell-major snapshots hold a plan");
            let join = session.config().join;
            let (built, _) =
                CellMajorPlan::build(pool.device(d), &snap.dg, join.unicomp, join.launch).unwrap();
            assert_eq!(plan.unicomp, built.unicomp);
            assert_eq!(plan.cell_of_slot.as_slice(), built.cell_of_slot.as_slice());
            assert_eq!(plan.nbr_offsets.as_slice(), built.nbr_offsets.as_slice());
            assert_eq!(plan.nbr_cells.as_slice(), built.nbr_cells.as_slice());
            snap.upload_modeled
        };
        session.query_on(eps, 0).unwrap();
        let one_snapshot = pool.memory_ledger().total();
        // Device 1's first touch copies device 0's plan.
        session.query_on(eps, 1).unwrap();
        let built = plan_matches_a_build(0);
        assert_eq!(plan_matches_a_build(1), built, "a copy costs the build");
        assert_eq!(pool.memory_ledger().total(), 2 * one_snapshot);
        // With no live sibling holding a plan, device 2's first touch
        // runs the hoisting kernels.
        assert!(session.evict_snapshot(0) && session.evict_snapshot(1));
        session.query_on(eps, 2).unwrap();
        assert_eq!(plan_matches_a_build(2), built);
        assert_eq!(pool.memory_ledger().total(), one_snapshot);
    }

    #[test]
    fn evict_snapshot_frees_and_reupload_is_transparent() {
        let data = uniform(2, 900, 83);
        let pool = DevicePool::titan_x(1);
        let session = SelfJoinSession::new(data.clone(), pool.clone());
        let eps = 2.5;
        let first = session.query(eps).unwrap();
        assert!(pool.total_used_bytes() > 0);
        assert_eq!(pool.memory_ledger().len(), 1, "snapshot registered");
        assert!(session.evict_snapshot(0));
        assert_eq!(pool.total_used_bytes(), 0, "eviction frees device memory");
        assert_eq!(pool.memory_ledger().len(), 0, "ledger entry unregistered");
        assert!(!session.evict_snapshot(0), "nothing left to evict");
        // The next query transparently re-uploads and answers identically.
        let again = session.query(eps).unwrap();
        assert_eq!(first.table, again.table);
        assert!(again.reused_index, "eviction must not invalidate the index");
        let stats = session.stats();
        assert_eq!(stats.snapshot_evictions, 1);
        assert_eq!(stats.snapshot_reuploads, 1);
        assert_eq!(stats.snapshot_uploads, 2);
        assert_eq!(stats.index_builds, 1, "no rebuild, just re-residency");
    }

    #[test]
    fn budgeted_pool_evicts_lru_session_snapshots() {
        let data_a = uniform(2, 1000, 84);
        let data_b = uniform(2, 1000, 85);
        let pool = DevicePool::titan_x(1);
        let a = SelfJoinSession::new(data_a.clone(), pool.clone());
        let b = SelfJoinSession::new(data_b, pool.clone());
        let out_a = a.query(2.0).unwrap();
        let one_snapshot = pool.memory_ledger().total();
        assert!(one_snapshot > 0);
        // Budget fits roughly one snapshot: serving b must evict a's.
        pool.memory_ledger()
            .set_budget(Some(one_snapshot + one_snapshot / 2));
        b.query(2.0).unwrap();
        assert!(pool.memory_ledger().total() <= one_snapshot + one_snapshot / 2);
        assert_eq!(a.stats().snapshot_evictions, 1, "a's snapshot was LRU");
        assert_eq!(pool.memory_ledger().evictions(), 1);
        // a still answers exactly, re-uploading (and evicting b in turn).
        let again = a.query(2.0).unwrap();
        assert_eq!(out_a.table, again.table);
        assert_eq!(a.stats().snapshot_reuploads, 1);
    }

    #[test]
    fn query_on_pins_the_device() {
        let data = uniform(2, 700, 86);
        let pool = DevicePool::titan_x(3);
        let session = SelfJoinSession::new(data.clone(), pool.clone());
        let out = session.query_on(2.0, 2).unwrap();
        assert_eq!(out.device, 2);
        assert!(pool.device(2).used_bytes() > 0, "snapshot on device 2");
        assert_eq!(pool.device(0).used_bytes(), 0);
        let fresh = GpuSelfJoin::default_device().run(&data, 2.0).unwrap();
        assert_eq!(out.table, fresh.table);
    }

    /// The workloads the projection tests price (about 16 neighbors per
    /// point), each with a fresh session.
    fn projection_workloads() -> [(&'static str, SelfJoinSession, f64); 3] {
        [
            ("uniform 2-D", uniform(2, 4_000, 87), 3.6),
            ("SDSS 2-D", sj_datasets::sdss::sdss2d(4_000, 92), 0.35),
            ("uniform 6-D", uniform(6, 2_000, 93), 38.0),
        ]
        .map(|(name, data, eps)| (name, SelfJoinSession::single_device(data), eps))
    }

    /// Projected over measured modeled time.
    fn ratio(cost: &ProjectedCost, out: &SessionQueryOutput) -> f64 {
        cost.modeled.as_secs_f64() / out.report.modeled_total.as_secs_f64()
    }

    #[test]
    fn projected_cost_calibrates_from_served_queries() {
        for (name, session, eps) in projection_workloads() {
            session.query(eps).unwrap();
            // A repeat of a served ε costs what its launches did.
            let warm = session.projected_cost(eps).unwrap();
            assert!(!warm.needs_build);
            let out = session.query(eps).unwrap();
            assert!(out.reused_index);
            assert_eq!(warm.expected_pairs, out.report.batching.actual_pairs);
            let r = ratio(&warm, &out);
            assert!((r - 1.0).abs() <= 0.02, "{name}: projected/measured {r}");
            // An in-band ε′ nobody has served prices a census sampled on
            // the resident grid: the estimate and the launches, no build.
            let shrunk = session.projected_cost(eps * 0.8).unwrap();
            assert!(!shrunk.needs_build);
            assert!(shrunk.expected_pairs < warm.expected_pairs, "{name}");
            let r = ratio(&shrunk, &session.query(eps * 0.8).unwrap());
            assert!(
                (2.0 / 3.0..=1.5).contains(&r),
                "{name} at 0.8ε: projected/measured {r}"
            );
            // An out-of-band ε prices a rebuild.
            let grown = session.projected_cost(eps * 4.0).unwrap();
            assert!(grown.needs_build);
            assert!(grown.modeled > warm.modeled, "{name}");
        }
    }

    #[test]
    fn cold_projection_brackets_the_first_query() {
        // A never-queried session prices its first (build) query from a
        // sampled census: within the shard chooser's ±50% bar.
        for (name, session, eps) in projection_workloads() {
            let cold = session.projected_cost(eps).unwrap();
            assert!(cold.needs_build);
            let r = ratio(&cold, &session.query(eps).unwrap());
            assert!(
                (2.0 / 3.0..=1.5).contains(&r),
                "{name}: projected/measured {r}"
            );
        }
    }

    #[test]
    fn session_ids_are_unique() {
        let a = SelfJoinSession::single_device(uniform(2, 10, 88));
        let b = SelfJoinSession::single_device(uniform(2, 10, 89));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    #[should_panic(expected = "reuse_floor")]
    fn bad_reuse_floor_rejected() {
        let _ = SelfJoinSession::single_device(uniform(2, 10, 81)).with_config(SessionConfig {
            reuse_floor: 0.0,
            ..SessionConfig::default()
        });
    }

    #[test]
    fn unpinned_query_retries_through_transient_fault() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let data = uniform(2, 600, 90);
        let pool = DevicePool::titan_x(1);
        // Launch op 1 = warm query; op 3 fails the second query's launch
        // once (op 2 is its estimate... ops count uploads too, so place
        // the transient on every op in a window to be sure it fires).
        pool.inject_faults(&FaultPlan::new(vec![FaultEvent {
            device: 0,
            after_ops: 3,
            kind: FaultKind::Transient,
        }]));
        let session = SelfJoinSession::new(data.clone(), pool);
        let eps = 2.5;
        let warm = session.query(eps).unwrap();
        // The transient fires somewhere in the next queries; all of them
        // must still answer, exactly.
        let fresh = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        for _ in 0..3 {
            let out = session.query(eps).unwrap();
            assert_eq!(out.table, fresh.table);
        }
        assert_eq!(warm.table, fresh.table);
    }

    #[test]
    fn crash_invalidates_snapshot_and_fails_over() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let data = uniform(2, 800, 91);
        let pool = DevicePool::titan_x(2);
        let session = SelfJoinSession::new(data.clone(), pool.clone());
        let eps = 2.0;
        let fresh = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        // Warm both devices fault-free.
        session.query_on(eps, 0).unwrap();
        session.query_on(eps, 1).unwrap();
        assert_eq!(session.stats().snapshot_uploads, 2);
        // Crash device 1 on its next op; it never heals.
        pool.inject_faults(&FaultPlan::new(vec![FaultEvent {
            device: 1,
            after_ops: 1,
            kind: FaultKind::Crash {
                heal_after_probes: u32::MAX,
            },
        }]));
        // The pinned path surfaces the fault and invalidates the snapshot.
        let err = session.query_on(eps, 1).unwrap_err();
        assert!(err.is_fault());
        let stats = session.stats();
        assert_eq!(stats.snapshot_invalidations, 1);
        // The unpinned path fails over to the survivor transparently.
        let out = session.query(eps).unwrap();
        assert_eq!(out.device, 0);
        assert_eq!(out.table, fresh.table);
        assert!(!pool.is_healthy(1));
    }

    #[test]
    fn knn_faults_like_query_and_retries_onto_a_healthy_device() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let crash_on_next_op = |device| {
            FaultPlan::new(vec![FaultEvent {
                device,
                after_ops: 1,
                kind: FaultKind::Crash {
                    heal_after_probes: u32::MAX,
                },
            }])
        };
        let data = uniform(2, 600, 95);
        let (eps, k) = (2.0, 5);

        // One device, crashed by another session's join while this
        // session's snapshot stays resident: kNN is a device operation
        // too, so it fails like a join does.
        let pool = DevicePool::titan_x(1);
        let session = SelfJoinSession::new(data.clone(), pool.clone());
        session.query(eps).unwrap();
        pool.inject_faults(&crash_on_next_op(0));
        let other = SelfJoinSession::new(data.clone(), pool.clone());
        assert!(other.query(eps).unwrap_err().is_fault());
        assert!(session.knn(eps, k).unwrap_err().is_fault());
        assert!(session.query(eps).unwrap_err().is_fault());

        // Two devices: the crash fires on the kNN launch itself, which
        // drops that device's snapshot and retries on the survivor.
        let pool = DevicePool::titan_x(2);
        let session = SelfJoinSession::new(data.clone(), pool.clone());
        session.query_on(eps, 0).unwrap();
        session.query_on(eps, 1).unwrap();
        assert_eq!(pool.next_healthy(), 0, "the kNN picks device 1 first");
        pool.inject_faults(&crash_on_next_op(1));
        let out = session.knn(eps, k).unwrap();
        assert_eq!(out.device, 0);
        assert_eq!(session.stats().snapshot_invalidations, 1);
        assert!(!pool.is_healthy(1));
        let device = sim_gpu::Device::new(sim_gpu::DeviceSpec::titan_x_pascal());
        let fresh = crate::knn::gpu_knn(&device, &data, eps, k).unwrap();
        assert_eq!(out.hits, fresh);
    }

    #[test]
    fn unpinned_queries_return_to_a_device_once_it_heals() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let data = uniform(2, 700, 94);
        let pool = DevicePool::titan_x(2);
        // Device 1 crashes on its first op and heals on the second health
        // read after it (one failed probe, then the healing one).
        pool.inject_faults(&FaultPlan::new(vec![FaultEvent {
            device: 1,
            after_ops: 1,
            kind: FaultKind::Crash {
                heal_after_probes: 1,
            },
        }]));
        let session = SelfJoinSession::new(data.clone(), pool.clone());
        let eps = 2.0;
        let fresh = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        // Query 1 runs on device 0. Query 2 picks device 1, which
        // crashes; its retry's pick probes device 1 once (a failure) and
        // lands on device 0. Query 3's pick probes again and heals it.
        let devices: Vec<usize> = (0..3)
            .map(|_| {
                let out = session.query(eps).unwrap();
                assert_eq!(out.table, fresh.table);
                out.device
            })
            .collect();
        assert_eq!(devices, vec![0, 0, 1]);
        assert!(pool.is_healthy(1));
        // One reuse per served query, not per attempt: query 2's faulted
        // attempt on device 1 counts as a retry only.
        let stats = session.stats();
        assert_eq!(
            (
                stats.queries,
                stats.index_builds,
                stats.index_reuses,
                stats.fault_retries
            ),
            (3, 1, 2, 1)
        );
        let faults = pool.fault_counts();
        assert_eq!(
            (faults.crashes, faults.downed, faults.reinstated),
            (1, 1, 1)
        );
    }
}
