//! The cost-aware scheduler: virtual placement at admission, fair-share
//! ordering across tenants, and the horizons the whole service keeps
//! time with.
//!
//! Everything here is bookkeeping in *modeled* seconds since the service
//! epoch. The key design decision is that a query's device and virtual
//! start are fixed **at admission** (`SchedState::place`): the job goes
//! to the device whose busy horizon ends soonest (LPT over the pool),
//! starting when both it and the device are ready. Admission therefore
//! reads exact horizons — there is no separately-estimated "queued
//! backlog" that drifts when real worker threads lag the virtual clock
//! (executor threads run joins in real milliseconds while virtual costs
//! are modeled microseconds; any estimate tied to real dispatch would
//! systematically mis-see the virtual queue). Workers later execute the
//! placed jobs and *correct* the horizon by the difference between the
//! measured modeled cost and the projection, so placement errors do not
//! accumulate.
//!
//! Fairness is weighted fair queueing over the same virtual clock: each
//! tenant chains service tags `tag = max(arrival, tenant's last tag) +
//! projected`, and a batch of simultaneously-submitted requests is
//! admitted and placed in ascending tag order (`wfq_order`) — a tenant
//! flooding one burst gets successively later tags, so a light tenant's
//! query overtakes the flood's backlog. Per-tenant in-flight caps (the
//! admission half of fair share) live in [`crate::admission`].

use crate::service::TicketShared;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One admitted query, placed on the virtual timeline and awaiting
/// execution.
pub(crate) struct Job {
    /// Monotonic admission sequence (execution-order tie-break).
    pub seq: u64,
    /// Interned tenant index.
    pub tenant: usize,
    /// Registered dataset index.
    pub dataset: usize,
    /// Query radius ε.
    pub epsilon: f64,
    /// Virtual arrival time (seconds since the service epoch).
    pub arrival: f64,
    /// Projected modeled cost in seconds (reserved at placement).
    pub projected: f64,
    /// Device the job was placed on.
    pub device: usize,
    /// Virtual start time assigned at placement.
    pub start: f64,
    /// Absolute virtual deadline — the bound fault retries are checked
    /// against (a retry that can no longer finish in time surfaces the
    /// fault instead of burning a device on a dead query).
    pub deadline: f64,
    /// Fault-retry count so far (0 on first placement).
    pub attempts: u32,
    /// Admitted past the SLO inside the delay window.
    pub delayed: bool,
    /// Completion slot the submitter waits on.
    pub ticket: TicketShared,
    /// Wall time admission spent on the job before queueing it.
    pub admission: Duration,
    /// When the job was queued (wall clock).
    pub queued: Instant,
}

/// Mutable scheduler state, all under one lock.
pub(crate) struct SchedState {
    /// Placed, not-yet-executed jobs; its length is the queue depth
    /// admission bounds.
    pub queue: Vec<Job>,
    /// Per-device busy horizon in virtual seconds.
    pub busy_until: Vec<f64>,
    /// Per-tenant queued + running counts (the admission cap's input).
    pub tenant_inflight: Vec<usize>,
    /// Per-tenant last fair-share service tag (virtual seconds).
    pub tenant_tag: Vec<f64>,
    pub next_seq: u64,
    pub shutdown: bool,
}

/// The queue plus its wakeup — workers block on `cv` until a job is
/// placed or the service shuts down.
pub(crate) struct Scheduler {
    pub state: Mutex<SchedState>,
    pub cv: Condvar,
}

impl Scheduler {
    pub fn new(devices: usize) -> Self {
        Self {
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                busy_until: vec![0.0; devices],
                tenant_inflight: Vec::new(),
                tenant_tag: Vec::new(),
                next_seq: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }
}

impl SchedState {
    /// Grows the per-tenant vectors to cover tenant index `t`.
    pub fn ensure_tenant(&mut self, t: usize) {
        if t >= self.tenant_inflight.len() {
            self.tenant_inflight.resize(t + 1, 0);
            self.tenant_tag.resize(t + 1, 0.0);
        }
    }

    /// Seconds a query arriving at `arrival` would wait before its
    /// placement device frees up — exact for the placement
    /// [`Self::place`] would perform next. `healthy` masks out devices
    /// in probation; an all-false mask falls back to the whole pool
    /// (matching [`Self::place`], which must put the job *somewhere* —
    /// execution-time failover handles a pool that is truly dead).
    pub fn projected_wait(&self, arrival: f64, healthy: &[bool]) -> f64 {
        let any_healthy = healthy.iter().any(|&h| h);
        let soonest = self
            .busy_until
            .iter()
            .enumerate()
            .filter(|&(d, _)| !any_healthy || healthy[d])
            .map(|(_, &b)| b)
            .fold(f64::INFINITY, f64::min);
        (soonest - arrival).max(0.0)
    }

    /// Places a job on the virtual timeline: the *healthy* device whose
    /// horizon ends soonest runs it, starting when both are ready.
    /// Returns `(device, start)` and advances the horizon by
    /// `projected`. An all-false mask falls back to the whole pool.
    pub fn place(&mut self, arrival: f64, projected: f64, healthy: &[bool]) -> (usize, f64) {
        let any_healthy = healthy.iter().any(|&h| h);
        let device = self
            .busy_until
            .iter()
            .enumerate()
            .filter(|&(d, _)| !any_healthy || healthy[d])
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite horizons"))
            .map(|(d, _)| d)
            .expect("pool is never empty");
        let start = self.busy_until[device].max(arrival);
        self.busy_until[device] = start + projected;
        (device, start)
    }

    /// Pops the placed job with the earliest virtual start (ties by
    /// admission order) for execution.
    pub fn pop_next(&mut self) -> Option<Job> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (a.start, a.seq)
                    .partial_cmp(&(b.start, b.seq))
                    .expect("starts are finite")
            })
            .map(|(i, _)| i)?;
        Some(self.queue.swap_remove(best))
    }
}

/// One batch candidate for [`wfq_order`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct FairItem {
    pub tenant: usize,
    pub arrival: f64,
    pub deadline: f64,
    pub projected: f64,
}

/// Heap key for [`wfq_order`]: min by (service tag, deadline, position).
struct TagKey {
    tag: f64,
    deadline: f64,
    idx: usize,
}

impl PartialEq for TagKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for TagKey {}
impl PartialOrd for TagKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TagKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the minimum.
        other
            .tag
            .total_cmp(&self.tag)
            .then(other.deadline.total_cmp(&self.deadline))
            .then(other.idx.cmp(&self.idx))
    }
}

/// Orders a burst of simultaneously-submitted requests by fair-share
/// service tags: repeatedly take each tenant's earliest-deadline pending
/// item, tag it `max(arrival, tenant's last tag) + projected`, and emit
/// the minimum tag (ties by deadline, then position). `tags` is the
/// live per-tenant tag state and is advanced as items are emitted.
///
/// Runs in `O(B log B)` (per-tenant deadline sort + one heap of tenant
/// heads): popping an item only changes *its own tenant's* tag, so the
/// heap entry pushed for that tenant's next item carries the updated tag
/// and every other entry stays valid. This runs under the scheduler
/// lock, so the bound matters for large bursts.
pub(crate) fn wfq_order(items: &[FairItem], tags: &mut [f64]) -> Vec<usize> {
    // Per-tenant item queues, earliest (deadline, position) last so the
    // head pops from the back.
    let mut per_tenant: Vec<Vec<usize>> = vec![Vec::new(); tags.len()];
    for (i, item) in items.iter().enumerate() {
        per_tenant[item.tenant].push(i);
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(per_tenant.len());
    for queue in &mut per_tenant {
        queue.sort_by(|&a, &b| {
            items[b]
                .deadline
                .total_cmp(&items[a].deadline)
                .then(b.cmp(&a))
        });
        if let Some(&head) = queue.last() {
            heap.push(TagKey {
                tag: items[head].arrival.max(tags[items[head].tenant]) + items[head].projected,
                deadline: items[head].deadline,
                idx: head,
            });
        }
    }
    let mut order = Vec::with_capacity(items.len());
    while let Some(TagKey { tag, idx, .. }) = heap.pop() {
        let tenant = items[idx].tenant;
        tags[tenant] = tag;
        order.push(idx);
        let queue = &mut per_tenant[tenant];
        queue.pop();
        if let Some(&head) = queue.last() {
            heap.push(TagKey {
                tag: items[head].arrival.max(tags[tenant]) + items[head].projected,
                deadline: items[head].deadline,
                idx: head,
            });
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::new_ticket;

    fn job(seq: u64, tenant: usize, start: f64) -> Job {
        Job {
            seq,
            tenant,
            dataset: 0,
            epsilon: 1.0,
            arrival: 0.0,
            projected: 1.0,
            device: 0,
            start,
            deadline: f64::INFINITY,
            attempts: 0,
            delayed: false,
            ticket: new_ticket(),
            admission: Duration::ZERO,
            queued: Instant::now(),
        }
    }

    fn state(devices: usize, tenants: usize) -> SchedState {
        let mut st = SchedState {
            queue: Vec::new(),
            busy_until: vec![0.0; devices],
            tenant_inflight: Vec::new(),
            tenant_tag: Vec::new(),
            next_seq: 0,
            shutdown: false,
        };
        st.ensure_tenant(tenants.saturating_sub(1));
        st
    }

    #[test]
    fn placement_is_lpt_and_respects_arrival() {
        let mut st = state(2, 1);
        let all = [true, true];
        // Two jobs at arrival 0 land on distinct devices.
        assert_eq!(st.place(0.0, 3.0, &all), (0, 0.0));
        assert_eq!(st.place(0.0, 1.0, &all), (1, 0.0));
        // Device 1 frees soonest (t=1): the next job queues behind it.
        assert_eq!(st.place(0.0, 2.0, &all), (1, 1.0));
        // An arrival after every horizon starts exactly at its arrival.
        assert_eq!(st.place(10.0, 1.0, &all), (0, 10.0));
        assert_eq!(st.busy_until, vec![11.0, 3.0]);
    }

    #[test]
    fn projected_wait_is_the_soonest_horizon() {
        let mut st = state(2, 1);
        st.busy_until = vec![3.0, 7.0];
        let all = [true, true];
        assert!((st.projected_wait(1.0, &all) - 2.0).abs() < 1e-12);
        // Arrival after both horizons: no wait.
        assert_eq!(st.projected_wait(10.0, &all), 0.0);
    }

    #[test]
    fn placement_avoids_unhealthy_devices() {
        let mut st = state(2, 1);
        st.busy_until = vec![0.0, 5.0];
        // Device 0 frees soonest but is down: placement (and the wait
        // admission reads) must go through the healthy device 1.
        let mask = [false, true];
        assert!((st.projected_wait(0.0, &mask) - 5.0).abs() < 1e-12);
        assert_eq!(st.place(0.0, 1.0, &mask), (1, 5.0));
        // A fully-down pool falls back to every device rather than
        // refusing to place (execution-time failover takes over there).
        let none = [false, false];
        assert_eq!(st.place(0.0, 1.0, &none), (0, 0.0));
    }

    #[test]
    fn pop_next_follows_virtual_start_order() {
        let mut st = state(1, 2);
        st.queue.push(job(0, 0, 5.0));
        st.queue.push(job(1, 1, 2.0));
        st.queue.push(job(2, 0, 5.0));
        assert_eq!(st.pop_next().unwrap().seq, 1);
        // Equal starts tie-break by admission order.
        assert_eq!(st.pop_next().unwrap().seq, 0);
        assert_eq!(st.pop_next().unwrap().seq, 2);
        assert!(st.pop_next().is_none());
    }

    #[test]
    fn wfq_order_interleaves_a_flood_with_a_light_tenant() {
        // Tenant 0 floods three items (earlier deadlines); tenant 1 has
        // one. The flood's chained tags push its later items behind the
        // light tenant's first, whatever the deadlines say.
        let items = vec![
            FairItem {
                tenant: 0,
                arrival: 0.0,
                deadline: 1.0,
                projected: 1.0,
            },
            FairItem {
                tenant: 0,
                arrival: 0.0,
                deadline: 2.0,
                projected: 1.0,
            },
            FairItem {
                tenant: 0,
                arrival: 0.0,
                deadline: 3.0,
                projected: 1.0,
            },
            FairItem {
                tenant: 1,
                arrival: 0.0,
                deadline: 10.0,
                projected: 1.0,
            },
        ];
        let mut tags = vec![0.0; 2];
        assert_eq!(wfq_order(&items, &mut tags), vec![0, 3, 1, 2]);
        assert_eq!(tags, vec![3.0, 1.0]);
    }

    #[test]
    fn wfq_order_respects_deadlines_within_a_tenant() {
        let items = vec![
            FairItem {
                tenant: 0,
                arrival: 0.0,
                deadline: 9.0,
                projected: 1.0,
            },
            FairItem {
                tenant: 0,
                arrival: 0.0,
                deadline: 2.0,
                projected: 1.0,
            },
        ];
        let mut tags = vec![0.0];
        assert_eq!(wfq_order(&items, &mut tags), vec![1, 0]);
    }
}
