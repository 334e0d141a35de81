//! The service: sessions + admission + scheduler + a device-wide
//! executor pool, behind one `submit` call.
//!
//! Construction spawns one executor thread per pool device (sizing the
//! pool's real parallelism to its device count — the threads themselves
//! are interchangeable; a job's *device* is fixed at admission-time
//! placement, and whichever thread pops the job runs it on that
//! device). A submitted query flows: intern tenant → look up the
//! dataset's resident [`SelfJoinSession`] → project its cost
//! ([`SelfJoinSession::projected_cost`]) → admission decision against
//! the scheduler's busy horizons, its queue depth and the pool's health
//! mask → virtual placement → an executor runs it through
//! `session.query_on` (exact answer, resident snapshots, transparent
//! re-upload after eviction) → the submitter's [`QueryTicket`] resolves.
//!
//! Time is virtual: arrivals are seconds since the service epoch
//! (callers replaying an open-loop trace pass them explicitly; live
//! callers default to the epoch clock), execution advances per-device
//! busy horizons by *modeled* response time, and a query's latency is
//! `completion − arrival` on that clock.

use crate::admission::{self, AdmissionConfig, Decision};
use crate::metrics::{ServiceMetrics, TenantCounters};
use crate::scheduler::{wfq_order, FairItem, Job, Scheduler};
use grid_join::{JoinReport, NeighborTable, SelfJoinError, SelfJoinSession, SessionConfig};
use sim_gpu::DevicePool;
use sj_datasets::Dataset;
use sj_obs::Stage;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Workers run queries under `catch_unwind` and keep every shared
/// structure consistent before anything that can panic, so the poison
/// flag carries no information here — propagating it would cascade one
/// failed query into a service-wide outage (every later `lock()` on the
/// same mutex panicking in turn).
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceConfig {
    /// Admission-controller knobs (SLO, delay window, caps).
    pub admission: AdmissionConfig,
    /// Configuration for the sessions the service creates per dataset.
    pub session: SessionConfig,
}

/// Handle to a registered dataset (index into the service's session set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetId(usize);

/// One query submission.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Tenant name (metrics and fair-share are keyed by it).
    pub tenant: String,
    /// Which registered dataset to join.
    pub dataset: DatasetId,
    /// Query radius ε.
    pub epsilon: f64,
    /// Virtual arrival time; `None` stamps the submission with the
    /// service epoch clock.
    pub arrival: Option<Duration>,
    /// Absolute virtual deadline; `None` defaults to `arrival + slo`.
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A live-clock request with default deadline.
    pub fn new(tenant: impl Into<String>, dataset: DatasetId, epsilon: f64) -> Self {
        Self {
            tenant: tenant.into(),
            dataset,
            epsilon,
            arrival: None,
            deadline: None,
        }
    }

    /// Sets the virtual arrival time (open-loop trace replay).
    pub fn at(mut self, arrival: Duration) -> Self {
        self.arrival = Some(arrival);
        self
    }
}

/// Why a submission did not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Admission shed the query; retry no sooner than `retry_after`.
    Overloaded {
        /// Projected time until enough backlog has drained.
        retry_after: Duration,
    },
    /// The dataset id does not name a registered dataset.
    UnknownDataset,
    /// The service is shutting down.
    ShuttingDown,
    /// The join itself failed on the device.
    Join(SelfJoinError),
    /// The service broke its own contract — an executor panicked
    /// mid-query or a ticket wait timed out. The query may be retried;
    /// the message is diagnostic, not programmatic.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { retry_after } => {
                write!(f, "overloaded; retry after {retry_after:?}")
            }
            Self::UnknownDataset => write!(f, "unknown dataset"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::Join(e) => write!(f, "join failed: {e}"),
            Self::Internal(msg) => write!(f, "internal service error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed query as the submitter sees it.
#[derive(Clone, Debug)]
pub struct ServeOutput {
    /// Directed, self-excluded neighbour lists at the queried ε —
    /// pair-for-pair identical to a fresh join.
    pub table: NeighborTable,
    /// Virtual latency: completion − arrival.
    pub latency: Duration,
    /// Virtual time spent queued before a device picked the query.
    pub queue_wait: Duration,
    /// Virtual completion time (seconds since the service epoch).
    pub completion: Duration,
    /// Pool device that executed the query.
    pub device: usize,
    /// Whether the resident index served it (false = rebuilt).
    pub reused_index: bool,
    /// Whether admission flagged it delayed (projected past the SLO).
    pub delayed: bool,
    /// Admission's projected modeled response time
    /// ([`grid_join::ProjectedCost::modeled`]), which placement reserved
    /// on the device; the cost audit pairs it with the report's
    /// `modeled_total`.
    pub projected: Duration,
    /// Times the query was re-placed after a device fault; 0 when none.
    pub attempts: u32,
    /// Wall time admission spent on the query: from the `submit` call
    /// until it was placed in the queue.
    pub admission_wall: Duration,
    /// Wall time the query waited in the queue, from its placement until
    /// a worker took it.
    pub queue_wall: Duration,
    /// Timing/shape report of the underlying join.
    pub report: JoinReport,
}

impl ServeOutput {
    /// The served query's stage tree, built from this output's fields and
    /// its report's ([`JoinReport::stages`], renamed `session.query`):
    ///
    /// ```text
    /// serve.query          latency, from the arrival; on the device's lane
    /// ├─ serve.admission   instant on the virtual clock
    /// ├─ serve.queue       queue_wait
    /// └─ serve.run         the rest of latency: the modeled run
    ///    └─ session.query  the report's modeled_total
    /// ```
    ///
    /// A fault retry's failed attempts leave only their count
    /// ([`Self::attempts`]); the run is the attempt that answered.
    pub fn stages(&self) -> Stage {
        let session = Stage {
            name: "session.query",
            ..self.report.stages()
        }
        .label("reused", u64::from(self.reused_index));
        let run = Stage::new(
            "serve.run",
            session.wall,
            self.latency.saturating_sub(self.queue_wait),
        )
        .label("attempts", self.attempts)
        .child(session);
        Stage {
            start: self.completion.saturating_sub(self.latency),
            ..Stage::new(
                "serve.query",
                self.admission_wall + self.queue_wall + run.wall,
                self.latency,
            )
            .label("device", self.device)
            .child(Stage::new(
                "serve.admission",
                self.admission_wall,
                Duration::ZERO,
            ))
            .child(Stage::new("serve.queue", self.queue_wall, self.queue_wait))
            .child(run)
        }
    }
}

/// Completion slot a worker fills and a submitter waits on.
pub(crate) struct TicketInner {
    slot: Mutex<Option<Result<ServeOutput, ServeError>>>,
    cv: Condvar,
}

pub(crate) type TicketShared = Arc<TicketInner>;

pub(crate) fn new_ticket() -> TicketShared {
    Arc::new(TicketInner {
        slot: Mutex::new(None),
        cv: Condvar::new(),
    })
}

fn fulfill(ticket: &TicketShared, outcome: Result<ServeOutput, ServeError>) {
    *lock_clean(&ticket.slot) = Some(outcome);
    ticket.cv.notify_all();
}

/// Default bound on [`QueryTicket::wait`]: generous enough that no live
/// service comes near it, finite so a lost outcome (a bug, not a device
/// fault — those are retried or reported) cannot hang the submitter
/// forever.
const DEFAULT_WAIT: Duration = Duration::from_secs(300);

/// Handle to one admitted query; blocks on [`Self::wait`] until a device
/// worker completes it.
pub struct QueryTicket {
    inner: TicketShared,
}

impl QueryTicket {
    /// Blocks until the query completes and returns its outcome, bounded
    /// by a generous default timeout (see [`Self::wait_for`]).
    pub fn wait(self) -> Result<ServeOutput, ServeError> {
        self.wait_for(DEFAULT_WAIT)
    }

    /// Blocks until the query completes or `timeout` elapses, whichever
    /// comes first. Workers post an outcome even when the executing
    /// query panics (a drop guard posts [`ServeError::Internal`]), so a
    /// timeout here indicates a scheduler bug, not a slow query — it
    /// returns `Internal` rather than blocking the caller forever.
    pub fn wait_for(self, timeout: Duration) -> Result<ServeOutput, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_clean(&self.inner.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::Internal(format!(
                    "query outcome not posted within {timeout:?}"
                )));
            }
            slot = self
                .inner
                .cv
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

struct MetricsState {
    /// Tenant name → interned index (stable across resets).
    ids: HashMap<String, usize>,
    names: Vec<String>,
    counters: Vec<TenantCounters>,
    /// Eviction/re-upload counts already consumed by a metrics reset.
    evictions_base: u64,
    reuploads_base: u64,
}

struct Inner {
    pool: DevicePool,
    config: ServiceConfig,
    /// Registered datasets: name + their resident session.
    sessions: Mutex<Vec<(String, Arc<SelfJoinSession>)>>,
    sched: Scheduler,
    metrics: Mutex<MetricsState>,
    epoch: Mutex<Instant>,
}

impl Inner {
    /// Sums eviction/re-upload counters over every session.
    fn eviction_totals(&self) -> (u64, u64) {
        let sessions = lock_clean(&self.sessions);
        let mut evictions = 0;
        let mut reuploads = 0;
        for (_, session) in sessions.iter() {
            let stats = session.stats();
            evictions += stats.snapshot_evictions;
            reuploads += stats.snapshot_reuploads;
        }
        (evictions, reuploads)
    }
}

/// The multi-tenant self-join query service. See the [module
/// docs](self); dropping the service drains the queue and joins its
/// workers.
pub struct SelfJoinService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl SelfJoinService {
    /// Brings the service up over `pool`, spawning one worker per device.
    /// Resident snapshots live under the pool's own snapshot budget
    /// ([`sim_gpu::MemoryLedger::set_budget`] on
    /// [`DevicePool::memory_ledger`]).
    pub fn new(pool: DevicePool, config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            sched: Scheduler::new(pool.len()),
            sessions: Mutex::new(Vec::new()),
            metrics: Mutex::new(MetricsState {
                ids: HashMap::new(),
                names: Vec::new(),
                counters: Vec::new(),
                evictions_base: 0,
                reuploads_base: 0,
            }),
            epoch: Mutex::new(Instant::now()),
            pool,
            config,
        });
        let workers = (0..inner.pool.len())
            .map(|device| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner, device))
            })
            .collect();
        Self { inner, workers }
    }

    /// The pool the service executes on.
    pub fn pool(&self) -> &DevicePool {
        &self.inner.pool
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Registers (and pins) a dataset, creating its resident session.
    pub fn register_dataset(&self, name: impl Into<String>, data: Dataset) -> DatasetId {
        let session = Arc::new(
            SelfJoinSession::new(data, self.inner.pool.clone())
                .with_config(self.inner.config.session),
        );
        let mut sessions = lock_clean(&self.inner.sessions);
        sessions.push((name.into(), session));
        DatasetId(sessions.len() - 1)
    }

    /// The resident session behind a registered dataset.
    pub fn session(&self, dataset: DatasetId) -> Option<Arc<SelfJoinSession>> {
        lock_clean(&self.inner.sessions)
            .get(dataset.0)
            .map(|(_, s)| Arc::clone(s))
    }

    /// Warms a dataset's session ([`SelfJoinSession::warm`]) so serving
    /// traffic at `epsilons`, in any order, pays no index build, estimate
    /// or first-touch upload. It costs one join per distinct ε, which
    /// seeds the exact result-size cache that both the estimate stage and
    /// the cost projection read and builds no table, plus one upload per
    /// pool device that holds no snapshot yet.
    pub fn warm(&self, dataset: DatasetId, epsilons: &[f64]) -> Result<(), ServeError> {
        let session = self.session(dataset).ok_or(ServeError::UnknownDataset)?;
        session.warm(epsilons).map_err(ServeError::Join)
    }

    /// Submits one query. Returns a ticket to wait on, or the admission
    /// rejection.
    pub fn submit(&self, req: QueryRequest) -> Result<QueryTicket, ServeError> {
        self.submit_batch(vec![req])
            .pop()
            .expect("one request, one outcome")
    }

    /// Submits a burst of queries atomically: the whole batch is decided
    /// and placed on the virtual timeline under one scheduler lock hold,
    /// in fair-share tag order (`scheduler::wfq_order`) — exactly what
    /// a trace replayer wants when many virtual arrivals share one real
    /// instant, and the only point where cross-tenant fairness can
    /// reorder anything (a lone streamed submission is placed the moment
    /// it arrives). Outcomes are returned in request order; each request
    /// sees the horizons its tag-predecessors created.
    pub fn submit_batch(&self, reqs: Vec<QueryRequest>) -> Vec<Result<QueryTicket, ServeError>> {
        let submitted = Instant::now();
        // Phase 1 — per-request prep without scheduler locks: session
        // lookup, cost projection (which refuses an invalid ε here, before
        // anything is placed or counted), tenant interning.
        struct Prep {
            req: QueryRequest,
            tenant: usize,
            cost: grid_join::ProjectedCost,
        }
        let preps: Vec<Result<Prep, ServeError>> = reqs
            .into_iter()
            .map(|req| {
                let session = self
                    .session(req.dataset)
                    .ok_or(ServeError::UnknownDataset)?;
                let cost = session
                    .projected_cost(req.epsilon)
                    .map_err(ServeError::Join)?;
                let tenant = self.intern_tenant(&req.tenant);
                Ok(Prep { req, tenant, cost })
            })
            .collect();
        let slo = self.inner.config.admission.slo.as_secs_f64();

        // Phase 2 — one scheduler lock hold: order the batch by fair
        // tags, then decide + place each request.
        // (admitted tenant/arrival/delayed for metrics, per request)
        let mut admits: Vec<(usize, f64, bool)> = Vec::new();
        let mut rejects: Vec<usize> = Vec::new();
        let mut outcomes: Vec<Option<Result<QueryTicket, ServeError>>> =
            preps.iter().map(|_| None).collect();
        {
            let mut st = lock_clean(&self.inner.sched.state);
            // Health is sampled once per batch: placement, the projected
            // waits and the healthy-device count admission reads all skip
            // devices in probation, so a downed device's horizon cannot
            // admit (or stall) anything while it heals.
            let healthy = self.inner.pool.health_mask();
            let healthy_devices = healthy.iter().filter(|&&h| h).count();
            let now = lock_clean(&self.inner.epoch).elapsed().as_secs_f64();
            // Resolve prep errors first; build the fair-ordering items
            // for the rest.
            let mut pending: Vec<(usize, Prep)> = Vec::new();
            for (i, prep) in preps.into_iter().enumerate() {
                match prep {
                    Ok(prep) => {
                        st.ensure_tenant(prep.tenant);
                        pending.push((i, prep));
                    }
                    Err(e) => outcomes[i] = Some(Err(e)),
                }
            }
            let items: Vec<FairItem> = pending
                .iter()
                .map(|(_, prep)| {
                    let arrival = prep.req.arrival.map(|a| a.as_secs_f64()).unwrap_or(now);
                    FairItem {
                        tenant: prep.tenant,
                        arrival,
                        deadline: prep
                            .req
                            .deadline
                            .map(|d| d.as_secs_f64())
                            .unwrap_or(arrival + slo),
                        projected: prep.cost.modeled.as_secs_f64(),
                    }
                })
                .collect();
            for k in wfq_order(&items, &mut st.tenant_tag) {
                let (i, prep) = &pending[k];
                let item = items[k];
                if st.shutdown {
                    outcomes[*i] = Some(Err(ServeError::ShuttingDown));
                    continue;
                }
                let wait = Duration::from_secs_f64(st.projected_wait(item.arrival, &healthy));
                // The queue depth is read live under the scheduler lock,
                // so it counts this batch's own admissions too — a cold
                // 10k-request batch cannot slip past `max_queue_depth`.
                let decision = admission::decide(
                    &self.inner.config.admission,
                    wait,
                    &prep.cost,
                    st.tenant_inflight[prep.tenant],
                    st.queue.len(),
                    healthy_devices,
                );
                outcomes[*i] = Some(match decision {
                    Decision::Admit { delayed } => {
                        let seq = st.next_seq;
                        st.next_seq += 1;
                        let (device, start) = st.place(item.arrival, item.projected, &healthy);
                        let queued = Instant::now();
                        let ticket = new_ticket();
                        st.queue.push(Job {
                            seq,
                            tenant: prep.tenant,
                            dataset: prep.req.dataset.0,
                            epsilon: prep.req.epsilon,
                            arrival: item.arrival,
                            projected: item.projected,
                            device,
                            start,
                            deadline: item.deadline,
                            attempts: 0,
                            delayed,
                            ticket: Arc::clone(&ticket),
                            admission: queued - submitted,
                            queued,
                        });
                        st.tenant_inflight[prep.tenant] += 1;
                        admits.push((prep.tenant, item.arrival, delayed));
                        Ok(QueryTicket { inner: ticket })
                    }
                    Decision::Reject { retry_after } => {
                        rejects.push(prep.tenant);
                        Err(ServeError::Overloaded { retry_after })
                    }
                });
            }
        }
        self.inner.sched.cv.notify_all();

        // Phase 3 — the service's own counters, outside the scheduler
        // lock.
        {
            let counters = &mut lock_clean(&self.inner.metrics).counters;
            for (tenant, arrival, delayed) in admits {
                let c = &mut counters[tenant];
                c.submitted += 1;
                c.admitted += 1;
                if delayed {
                    c.delayed += 1;
                }
                c.first_arrival = Some(match c.first_arrival {
                    Some(first) => first.min(arrival),
                    None => arrival,
                });
            }
            for tenant in rejects {
                let c = &mut counters[tenant];
                c.submitted += 1;
                c.rejected += 1;
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every request decided"))
            .collect()
    }

    fn intern_tenant(&self, name: &str) -> usize {
        let mut ms = lock_clean(&self.inner.metrics);
        match ms.ids.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = ms.names.len();
                ms.ids.insert(name.to_string(), idx);
                ms.names.push(name.to_string());
                ms.counters.push(TenantCounters::default());
                idx
            }
        }
    }

    /// Snapshot of the service metrics (see [`ServiceMetrics`]).
    pub fn metrics(&self) -> ServiceMetrics {
        let (evictions, reuploads) = self.inner.eviction_totals();
        let ms = lock_clean(&self.inner.metrics);
        let counters: HashMap<String, TenantCounters> = ms
            .names
            .iter()
            .cloned()
            .zip(ms.counters.iter().cloned())
            .collect();
        let ledger = self.inner.pool.memory_ledger();
        ServiceMetrics::build(
            &counters,
            evictions.saturating_sub(ms.evictions_base),
            reuploads.saturating_sub(ms.reuploads_base),
            ledger.total(),
            ledger.budget(),
            self.inner.config.admission.slo.as_secs_f64(),
        )
    }

    /// Zeroes traffic counters and virtual clocks (warmup → measurement
    /// boundary). Call only while no queries are queued or running;
    /// resident sessions and their snapshots are untouched.
    pub fn reset_metrics(&self) {
        let (evictions, reuploads) = self.inner.eviction_totals();
        {
            let mut ms = lock_clean(&self.inner.metrics);
            for c in ms.counters.iter_mut() {
                *c = TenantCounters::default();
            }
            ms.evictions_base = evictions;
            ms.reuploads_base = reuploads;
        }
        {
            let mut st = lock_clean(&self.inner.sched.state);
            debug_assert!(st.queue.is_empty(), "reset_metrics with queued queries");
            for b in st.busy_until.iter_mut() {
                *b = 0.0;
            }
            // Fair-share tags are stamped in the old epoch's virtual
            // time; left alone they would order every pre-reset tenant
            // behind fresh ones until arrivals caught up.
            for tag in st.tenant_tag.iter_mut() {
                *tag = 0.0;
            }
        }
        *lock_clean(&self.inner.epoch) = Instant::now();
    }
}

impl Drop for SelfJoinService {
    fn drop(&mut self) {
        {
            let mut st = lock_clean(&self.inner.sched.state);
            st.shutdown = true;
        }
        self.inner.sched.cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for SelfJoinService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfJoinService")
            .field("devices", &self.inner.pool.len())
            .field("datasets", &lock_clean(&self.inner.sessions).len())
            .field("config", &self.inner.config)
            .finish()
    }
}

/// Posts [`ServeError::Internal`] if the executor unwinds before
/// resolving the ticket — the submitter must never block on a query the
/// service dropped. Disarmed on every deliberate exit (fulfill, retry).
struct OutcomeGuard {
    ticket: Option<TicketShared>,
}

impl OutcomeGuard {
    fn arm(ticket: TicketShared) -> Self {
        Self {
            ticket: Some(ticket),
        }
    }

    fn disarm(&mut self) {
        self.ticket = None;
    }
}

impl Drop for OutcomeGuard {
    fn drop(&mut self) {
        if let Some(t) = self.ticket.take() {
            fulfill(
                &t,
                Err(ServeError::Internal(
                    "executor dropped the query without posting an outcome".into(),
                )),
            );
        }
    }
}

/// One executor thread (the pool spawns one per device for parallelism):
/// pop the next placed job in virtual-start order, run it for real on
/// its assigned device, correct the device's horizon by the measured
/// modeled cost (placement reserved the projection), and resolve the
/// ticket. Execution is supervised: the query runs under `catch_unwind`
/// behind an [`OutcomeGuard`], so a panicking join resolves the ticket
/// with [`ServeError::Internal`] instead of hanging the submitter, and a
/// device fault re-places the job on a healthy device (bounded attempts,
/// only while the retry can still meet the query's deadline).
fn worker_loop(inner: Arc<Inner>, _worker: usize) {
    loop {
        let job = {
            let mut st = lock_clean(&inner.sched.state);
            loop {
                if let Some(job) = st.pop_next() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner
                    .sched
                    .cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(&inner, job);
    }
}

/// Executes one popped job to resolution: success, terminal error, or a
/// bounded sequence of fault retries on healthy devices.
fn run_job(inner: &Arc<Inner>, mut job: Job) {
    let queue_wall = job.queued.elapsed();
    loop {
        let mut guard = OutcomeGuard::arm(Arc::clone(&job.ticket));
        let session = {
            let sessions = lock_clean(&inner.sessions);
            Arc::clone(&sessions[job.dataset].1)
        };
        let device = job.device;
        // The join itself is the only stage that executes foreign-ish
        // code (kernels, allocators); everything after it is our own
        // bookkeeping. A panic here must cost one query, not the worker
        // thread (and with it a device's entire executor).
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.query_on(job.epsilon, device)
        }));
        let result = match caught {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                sj_obs::registry()
                    .counter("sj_serve_worker_panics_total", &[])
                    .inc();
                finish_job(
                    inner,
                    &job,
                    queue_wall,
                    Err(ServeError::Internal(format!(
                        "executor panicked during query: {msg}"
                    ))),
                );
                guard.disarm();
                return;
            }
        };
        // Degraded-mode retry: a device fault is retryable by
        // construction (re-running the query on a healthy device yields
        // the exact same table), so re-place the job instead of failing
        // it — while attempts remain and the retry can still meet the
        // query's deadline.
        if let Err(e) = &result {
            if e.is_fault() && (job.attempts as usize) < inner.pool.len() {
                let healthy = inner.pool.health_mask();
                let mut st = lock_clean(&inner.sched.state);
                // Return the unused reservation on the faulted device;
                // later placements stacked on top of it, so shift, never
                // overwrite.
                st.busy_until[device] = (st.busy_until[device] - job.projected).max(0.0);
                let wait = st.projected_wait(job.arrival, &healthy);
                // This worker re-runs the job at once, so it counts as
                // running, not queued.
                if job.arrival + wait + job.projected <= job.deadline {
                    let (nd, nstart) = st.place(job.arrival, job.projected, &healthy);
                    job.device = nd;
                    job.start = nstart;
                    job.attempts += 1;
                    drop(st);
                    sj_obs::registry()
                        .counter("sj_serve_retries_total", &[])
                        .inc();
                    guard.disarm();
                    continue;
                }
                // Deadline unreachable even on a healthy device: the
                // fault surfaces. The reservation was already returned;
                // re-reserve nothing and fall through to fail the query.
                st.busy_until[device] += job.projected;
            }
        }

        finish_job(inner, &job, queue_wall, result.map_err(ServeError::Join));
        guard.disarm();
        return;
    }
}

/// Terminal bookkeeping for one job: horizon correction, in-flight
/// decrement, metrics, and the ticket resolution itself.
fn finish_job(
    inner: &Arc<Inner>,
    job: &Job,
    queue_wall: Duration,
    result: Result<grid_join::SessionQueryOutput, ServeError>,
) {
    let actual = match &result {
        Ok(out) => out.report.modeled_total.as_secs_f64(),
        Err(_) => 0.0,
    };
    let completion = job.start + actual;
    {
        let mut st = lock_clean(&inner.sched.state);
        // Correct by delta: placement reserved the projected cost,
        // and later placements stacked on top of it — shift the
        // horizon by the projection error, never overwrite it.
        st.busy_until[job.device] = (st.busy_until[job.device] + (actual - job.projected)).max(0.0);
        st.tenant_inflight[job.tenant] -= 1;
    }
    // A finished job may have unblocked shutdown draining.
    inner.sched.cv.notify_all();
    let latency = (completion - job.arrival).max(0.0);
    {
        let c = &mut lock_clean(&inner.metrics).counters[job.tenant];
        match &result {
            Ok(_) => {
                c.completed += 1;
                c.record_latency(latency);
                c.last_completion = c.last_completion.max(completion);
            }
            Err(_) => c.failed += 1,
        }
    }
    let outcome = result.map(|out| ServeOutput {
        table: out.table,
        latency: Duration::from_secs_f64(latency),
        queue_wait: Duration::from_secs_f64((job.start - job.arrival).max(0.0)),
        completion: Duration::from_secs_f64(completion.max(0.0)),
        device: job.device,
        reused_index: out.reused_index,
        delayed: job.delayed,
        projected: Duration::from_secs_f64(job.projected),
        attempts: job.attempts,
        admission_wall: job.admission,
        queue_wall,
        report: out.report,
    });
    fulfill(&job.ticket, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_datasets::synthetic::uniform;

    fn quick_service(devices: usize) -> (SelfJoinService, DatasetId) {
        let service = SelfJoinService::new(
            DevicePool::titan_x(devices),
            ServiceConfig {
                admission: AdmissionConfig {
                    slo: Duration::from_secs(60),
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let id = service.register_dataset("demo", uniform(2, 800, 120));
        (service, id)
    }

    #[test]
    fn submit_executes_and_matches_fresh_join() {
        let (service, id) = quick_service(2);
        let data = service.session(id).unwrap().data().clone();
        let cold = service.session(id).unwrap().projected_cost(2.0).unwrap();
        let out = service
            .submit(QueryRequest::new("alice", id, 2.0))
            .unwrap()
            .wait()
            .unwrap();
        let fresh = grid_join::GpuSelfJoin::default_device()
            .run(&data, 2.0)
            .unwrap();
        assert_eq!(out.table, fresh.table);
        assert!(out.latency >= out.queue_wait);
        // The output carries the projection admission placed it by.
        assert_eq!(out.projected, cold.modeled);
        let m = service.metrics();
        assert_eq!(m.total.submitted, 1);
        assert_eq!(m.total.completed, 1);
        assert_eq!(m.tenants[0].tenant, "alice");
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let (service, _) = quick_service(1);
        let err = service
            .submit(QueryRequest::new("alice", DatasetId(99), 2.0))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownDataset);
    }

    #[test]
    fn many_concurrent_queries_all_complete_exactly() {
        let (service, id) = quick_service(2);
        let data = service.session(id).unwrap().data().clone();
        let eps = 2.5;
        let fresh = grid_join::GpuSelfJoin::default_device()
            .run(&data, eps)
            .unwrap();
        let tickets: Vec<_> = (0..12)
            .map(|i| {
                let tenant = if i % 2 == 0 { "alice" } else { "bob" };
                service
                    .submit(QueryRequest::new(tenant, id, eps).at(Duration::from_millis(i as u64)))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap().table, fresh.table);
        }
        let m = service.metrics();
        assert_eq!(m.total.completed, 12);
        assert_eq!(m.tenants.len(), 2);
        assert_eq!(m.tenants[0].completed + m.tenants[1].completed, 12);
        assert!(m.total.latency.p99 > 0.0);
    }

    #[test]
    fn overload_rejects_with_retry_after() {
        let service = SelfJoinService::new(
            DevicePool::titan_x(1),
            ServiceConfig {
                admission: AdmissionConfig {
                    // SLO so tight that a projected queue of a few
                    // queries must overflow it.
                    slo: Duration::from_nanos(100),
                    delay_factor: 1.0,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let id = service.register_dataset("demo", uniform(2, 1200, 121));
        // Warm, so admission prices each repeat of the served ε at what
        // serving it cost.
        service.warm(id, &[3.0]).unwrap();
        // Saturate: same virtual arrival for a burst → projected waits
        // stack up and later submissions must shed.
        let mut rejected = 0;
        let mut tickets = Vec::new();
        for _ in 0..24 {
            match service.submit(QueryRequest::new("flood", id, 3.0).at(Duration::ZERO)) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { retry_after }) => {
                    rejected += 1;
                    assert!(retry_after > Duration::ZERO);
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(rejected > 0, "tight SLO must shed some of the burst");
        for t in tickets {
            t.wait().unwrap();
        }
        let m = service.metrics();
        assert_eq!(m.total.rejected, rejected);
    }

    #[test]
    fn fair_share_interleaves_tenants() {
        // Two devices with a fair-share cap of one running query per
        // tenant: a flooding tenant can occupy at most one device, so a
        // light tenant's query runs concurrently on the other.
        let service = SelfJoinService::new(
            DevicePool::titan_x(2),
            ServiceConfig {
                admission: AdmissionConfig {
                    slo: Duration::from_secs(60),
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let id = service.register_dataset("demo", uniform(2, 800, 122));
        service.warm(id, &[2.0]).unwrap();
        service.reset_metrics();
        // One flooding tenant and one light tenant arrive as one burst
        // (atomic batch, so the scheduler sees the contention): the
        // fair-share tags must let the light tenant overtake the flood.
        let mut reqs: Vec<_> = (0..6)
            .map(|i| QueryRequest::new("flood", id, 2.0).at(Duration::from_nanos(i as u64)))
            .collect();
        reqs.push(QueryRequest::new("light", id, 2.0).at(Duration::from_nanos(6)));
        let mut tickets: Vec<_> = service
            .submit_batch(reqs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let light_out = tickets.pop().expect("light ticket").wait().unwrap();
        let flood_outs: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let worst_flood = flood_outs
            .iter()
            .map(|o| o.completion)
            .max()
            .expect("non-empty");
        assert!(
            light_out.completion < worst_flood,
            "fair share: light tenant must finish before the flood drains \
             (light {:?} vs worst {:?})",
            light_out.completion,
            worst_flood
        );
    }

    #[test]
    fn queue_depth_backstop_sees_its_own_batch() {
        // Under a generous SLO, projected latency admits a whole cold
        // burst; the queue-depth backstop must still bound a single huge
        // batch.
        let service = SelfJoinService::new(
            DevicePool::titan_x(1),
            ServiceConfig {
                admission: AdmissionConfig {
                    slo: Duration::from_secs(60),
                    max_queue_depth: 8,
                    tenant_max_inflight: usize::MAX,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let id = service.register_dataset("d", uniform(2, 300, 123));
        let reqs: Vec<_> = (0..32)
            .map(|_| QueryRequest::new("cold", id, 2.0).at(Duration::ZERO))
            .collect();
        let outcomes = service.submit_batch(reqs);
        let admitted = outcomes.iter().filter(|o| o.is_ok()).count();
        assert!(admitted <= 8, "backstop ignored: {admitted} admitted");
        assert!(admitted > 0);
        for ticket in outcomes.into_iter().flatten() {
            ticket.wait().unwrap();
        }
    }

    #[test]
    fn queue_depth_frees_as_workers_dispatch() {
        // The depth bound counts queries no worker has picked up yet, so
        // it frees as workers dispatch: once a bounded batch has run, the
        // next batch is admitted up to the bound again.
        let service = SelfJoinService::new(
            DevicePool::titan_x(1),
            ServiceConfig {
                admission: AdmissionConfig {
                    slo: Duration::from_secs(60),
                    max_queue_depth: 8,
                    tenant_max_inflight: usize::MAX,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let id = service.register_dataset("d", uniform(2, 300, 124));
        for round in 0..2 {
            let reqs: Vec<_> = (0..32)
                .map(|_| QueryRequest::new("cold", id, 2.0).at(Duration::ZERO))
                .collect();
            let outcomes = service.submit_batch(reqs);
            let admitted = outcomes.iter().filter(|o| o.is_ok()).count();
            assert!(
                (1..=8).contains(&admitted),
                "batch {round}: {admitted} admitted"
            );
            for ticket in outcomes.into_iter().flatten() {
                ticket.wait().unwrap();
            }
        }
    }

    #[test]
    fn warm_primes_its_epsilons_largest_first() {
        // Ascending input: priming 1.5 first would build a generation that
        // 2.0 falls outside, and 1.5's cached count would go with it.
        let (service, _) = quick_service(1);
        let id = service.register_dataset("d", uniform(2, 1500, 125));
        service.warm(id, &[1.5, 2.0]).unwrap();
        let session = service.session(id).unwrap();
        let warmed = session.stats();
        assert!(session.query(1.5).unwrap().reused_index);
        let stats = session.stats();
        assert_eq!(stats.estimate_hits, warmed.estimate_hits + 1);
        assert_eq!(stats.index_builds, 1);
    }

    #[test]
    fn warm_leaves_every_device_serving_each_epsilon_from_cache() {
        let (service, id) = quick_service(2);
        service.warm(id, &[2.0, 1.5]).unwrap();
        let session = service.session(id).unwrap();
        let join = grid_join::GpuSelfJoin::default_device();
        for eps in [2.0, 1.5] {
            let fresh = join.run(session.data(), eps).unwrap();
            for device in 0..2 {
                let before = session.stats();
                let out = session.query_on(eps, device).unwrap();
                assert!(out.reused_index, "ε {eps} on device {device}");
                assert_eq!(out.table, fresh.table, "ε {eps} on device {device}");
                let after = session.stats();
                assert_eq!(after.estimate_hits, before.estimate_hits + 1);
                assert_eq!((after.index_builds, after.snapshot_uploads), (1, 2));
            }
        }

        // One ε joins on one device; the other becomes resident by upload
        // alone.
        let (service, id) = quick_service(2);
        service.warm(id, &[2.0]).unwrap();
        let stats = service.session(id).unwrap().stats();
        assert_eq!((stats.queries, stats.snapshot_uploads), (1, 2));
        for device in 0..2 {
            assert!(service.pool().device(device).used_bytes() > 0);
        }
    }

    #[test]
    fn ticket_wait_for_times_out_with_internal_error() {
        // A ticket nobody ever fulfills must resolve with a clean
        // Internal error, not block the submitter forever.
        let ticket = QueryTicket {
            inner: new_ticket(),
        };
        let err = ticket
            .wait_for(Duration::from_millis(30))
            .expect_err("unfulfilled ticket must time out");
        assert!(matches!(err, ServeError::Internal(_)), "got {err:?}");
    }

    #[test]
    fn transient_fault_retries_transparently() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let (service, id) = quick_service(1);
        let data = service.session(id).unwrap().data().clone();
        service.warm(id, &[2.0]).unwrap();
        let fresh = grid_join::GpuSelfJoin::default_device()
            .run(&data, 2.0)
            .unwrap();
        // Injector op counters start at arming, so the transient lands
        // squarely inside the serving traffic below.
        service
            .pool()
            .inject_faults(&FaultPlan::new(vec![FaultEvent {
                device: 0,
                after_ops: 1,
                kind: FaultKind::Transient,
            }]));
        let mut attempts = 0;
        for _ in 0..3 {
            let out = service
                .submit(QueryRequest::new("alice", id, 2.0))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(out.table, fresh.table);
            attempts += out.attempts;
        }
        // The one armed transient fires on the first serving op, and the
        // query it hit says so itself.
        assert_eq!(attempts, 1, "the transient fault must surface one retry");
        let m = service.metrics();
        assert_eq!(m.total.completed, 3);
        assert_eq!(m.total.failed, 0);
    }

    #[test]
    fn crashed_device_fails_over_and_queries_complete() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let (service, id) = quick_service(2);
        let data = service.session(id).unwrap().data().clone();
        service.warm(id, &[2.0]).unwrap();
        let fresh = grid_join::GpuSelfJoin::default_device()
            .run(&data, 2.0)
            .unwrap();
        // Device 1 dies on its first serving op and never heals: every
        // query it was placed on must fail over to device 0.
        service
            .pool()
            .inject_faults(&FaultPlan::new(vec![FaultEvent {
                device: 1,
                after_ops: 0,
                kind: FaultKind::Crash {
                    heal_after_probes: u32::MAX,
                },
            }]));
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                service
                    .submit(QueryRequest::new("alice", id, 2.0).at(Duration::from_millis(i)))
                    .unwrap()
            })
            .collect();
        let mut retried = 0;
        for t in tickets {
            let out = t.wait().unwrap();
            assert_eq!(out.table, fresh.table);
            if out.attempts >= 1 {
                retried += 1;
                assert_eq!(out.device, 0, "a retried query fails over to device 0");
            }
        }
        assert!(retried >= 1, "a query placed on the crashed device retries");
        let m = service.metrics();
        assert_eq!(m.total.completed, 6);
        assert_eq!(m.total.failed, 0);
        assert!(
            !service.pool().is_healthy(1),
            "the crashed device must be in probation"
        );
    }

    #[test]
    fn crashed_device_heals_and_serves_again() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let (service, id) = quick_service(2);
        let session = service.session(id).unwrap();
        service.warm(id, &[2.0]).unwrap();
        let fresh = grid_join::GpuSelfJoin::default_device()
            .run(session.data(), 2.0)
            .unwrap();
        // Device 1 crashes on its first serving op and heals on the second
        // health read after it (one failed probe, then the healing one).
        service
            .pool()
            .inject_faults(&FaultPlan::new(vec![FaultEvent {
                device: 1,
                after_ops: 1,
                kind: FaultKind::Crash {
                    heal_after_probes: 1,
                },
            }]));
        // Closed loop: each query is submitted once the last one answered.
        let devices: Vec<usize> = (0..6u64)
            .map(|i| {
                let out = service
                    .submit(QueryRequest::new("alice", id, 2.0).at(Duration::from_millis(100 * i)))
                    .unwrap()
                    .wait()
                    .unwrap();
                assert_eq!(out.table, fresh.table, "query {i}");
                out.device
            })
            .collect();
        // Query 2 is placed on device 1, crashes it and retries on device
        // 0; the retry's health read is the failed probe. Query 3's
        // submission reads health again, which heals device 1: it takes
        // work again, re-uploading the snapshot the crash invalidated.
        assert_eq!(devices, vec![0, 0, 1, 0, 1, 0]);
        let stats = session.stats();
        assert_eq!(stats.snapshot_invalidations, 1);
        assert_eq!(stats.snapshot_reuploads, 1);
        assert!(service.pool().is_healthy(1));
        let m = service.metrics();
        assert_eq!((m.total.completed, m.total.failed), (6, 0));
    }

    #[test]
    fn metrics_json_exports() {
        let (service, id) = quick_service(1);
        service
            .submit(QueryRequest::new("alice", id, 2.0))
            .unwrap()
            .wait()
            .unwrap();
        let json = service.metrics().to_json();
        assert!(json.contains("\"tenant\": \"alice\""));
        assert!(json.contains("\"p99_secs\""));
    }
}
