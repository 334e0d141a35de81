//! Cost-based shard→device assignment.
//!
//! Longest-processing-time (LPT) greedy: shards are placed heaviest-first
//! onto the currently least-loaded device. LPT's makespan is within 4/3
//! of optimal, which is ample here — prediction error dominates. The
//! partitioner over-decomposes (more shards than devices) precisely so
//! this stage has freedom to balance skewed costs.

use std::time::Duration;

/// The result of scheduling shards onto a device pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Per-device shard queues (`queues[d]` lists shard indices, in
    /// descending cost order).
    pub queues: Vec<Vec<usize>>,
    /// Per-device predicted load (sum of assigned costs).
    pub predicted_load: Vec<u64>,
}

impl Assignment {
    /// Device assigned to shard `s`.
    pub fn device_of(&self, s: usize) -> Option<usize> {
        self.queues.iter().position(|q| q.contains(&s))
    }

    /// Ratio of the heaviest to the mean device load (1.0 = perfectly
    /// balanced). Empty loads count as balanced.
    pub fn imbalance(&self) -> f64 {
        let max = self.predicted_load.iter().copied().max().unwrap_or(0);
        let sum: u64 = self.predicted_load.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        max as f64 * self.predicted_load.len() as f64 / sum as f64
    }
}

/// Assigns `costs.len()` shards to `devices` devices by LPT. Deterministic:
/// ties break toward the lower shard index and the lower device index.
///
/// # Panics
///
/// Panics if `devices == 0`.
pub fn lpt_schedule(costs: &[u64], devices: usize) -> Assignment {
    assert!(devices > 0, "need at least one device");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(costs[s]), s));
    let mut queues = vec![Vec::new(); devices];
    let mut load = vec![0u64; devices];
    for s in order {
        let d = (0..devices).min_by_key(|&d| (load[d], d)).unwrap();
        queues[d].push(s);
        load[d] += costs[s];
    }
    Assignment {
        queues,
        predicted_load: load,
    }
}

/// Modeled end of one device stream. `stages` are the `(host, device)`
/// stage pairs of the shards the stream runs, in queue order: the host
/// stage (grid build, done by the executor task's thread) and the
/// modeled device stage (upload + join). The two resources pipeline,
/// exactly like the batching scheme's transfer/kernel overlap: the host
/// builds shard `i+1`'s grid while the device crunches shard `i`, so the
/// stream finishes at
///
/// ```text
/// host_i = Σ_{j≤i} host_j;   dev_i = max(host_i, dev_{i−1}) + device_i
/// ```
///
/// The one stream rule: the chooser's projection ([`modeled_makespan`]),
/// the executed streams and their re-executed shards are all priced by
/// it.
pub fn stream_end(stages: impl IntoIterator<Item = (Duration, Duration)>) -> Duration {
    let mut host = Duration::ZERO;
    let mut dev = Duration::ZERO;
    for (h, d) in stages {
        host += h;
        dev = host.max(dev) + d;
    }
    dev
}

/// Modeled completion time of an assignment — the quantity the
/// shard-count chooser minimizes. `stages[s]` is shard `s`'s
/// `(host, device)` stage pair; each queue is one [`stream_end`] and
/// queues run concurrently across devices, so the busiest bounds the
/// whole. Over-decomposing (more shards than devices) therefore *hides*
/// grid-build time behind device work — one of the reasons the chooser
/// often prefers it.
pub fn modeled_makespan(assign: &Assignment, stages: &[(Duration, Duration)]) -> Duration {
    assign
        .queues
        .iter()
        .map(|q| stream_end(q.iter().map(|&s| stages[s])))
        .max()
        .unwrap_or(Duration::ZERO)
}

/// Picks the winning shard count from the chooser's candidate table
/// (`(shard_count, modeled objective)` pairs): the minimum objective,
/// with exact ties broken toward the **smaller** shard count — fewer
/// shards mean less ghost surface and a smaller partition to build, so
/// when the model can't tell candidates apart the cheaper-to-make one
/// wins. Deterministic for any input order; `None` on an empty table.
pub fn argmin_shard_count(candidates: &[(usize, Duration)]) -> Option<usize> {
    candidates
        .iter()
        .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|&(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_is_the_busiest_queue() {
        // Pure device stages (no host stage): the pipeline degenerates to
        // per-queue sums and the makespan is the busiest queue.
        let stages: Vec<(Duration, Duration)> = [5u64, 3, 8, 1]
            .iter()
            .map(|&m| (Duration::ZERO, Duration::from_millis(m)))
            .collect();
        let a = lpt_schedule(&[5, 3, 8, 1], 2);
        // LPT: 8 alone (8ms), then 5+3+1 on the other (9ms).
        assert_eq!(modeled_makespan(&a, &stages), Duration::from_millis(9));
        let serial = lpt_schedule(&[5, 3, 8, 1], 1);
        assert_eq!(
            modeled_makespan(&serial, &stages),
            Duration::from_millis(17)
        );
    }

    #[test]
    fn makespan_overlaps_host_and_device_stages() {
        let ms = Duration::from_millis;
        // One queue of two identical shards (host 4, device 6): shard 1's
        // grid build (done at t=8) hides entirely under shard 0's device
        // stage (runs 4..10), so the queue finishes at 16, not 20.
        let stages = vec![(ms(4), ms(6)), (ms(4), ms(6))];
        let a = lpt_schedule(&[10, 10], 1);
        assert_eq!(modeled_makespan(&a, &stages), ms(16));
        // Host-bound queue: device stages (1) hide under grid builds (4);
        // the last join starts when its grid lands at 8 and ends at 9.
        let stages = vec![(ms(4), ms(1)), (ms(4), ms(1))];
        assert_eq!(modeled_makespan(&a, &stages), ms(9));
        // A one-queue makespan is that queue's stream end.
        assert_eq!(stream_end(stages), ms(9));
    }

    #[test]
    fn every_shard_assigned_exactly_once() {
        let a = lpt_schedule(&[5, 3, 8, 1, 9, 2], 3);
        let mut all: Vec<usize> = a.queues.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(a.predicted_load.iter().sum::<u64>(), 28);
    }

    #[test]
    fn skewed_costs_balance_better_than_count() {
        // One giant shard and seven tiny ones on two devices: count-based
        // round-robin would put 4 shards on each (loads 103 vs 4); LPT
        // isolates the giant.
        let costs = [100, 1, 1, 1, 1, 1, 1, 1];
        let a = lpt_schedule(&costs, 2);
        assert_eq!(a.predicted_load.iter().copied().max().unwrap(), 100);
        assert_eq!(a.predicted_load.iter().copied().min().unwrap(), 7);
        assert_eq!(a.device_of(0), Some(0));
    }

    #[test]
    fn single_device_takes_everything() {
        let a = lpt_schedule(&[4, 2, 6], 1);
        assert_eq!(a.queues.len(), 1);
        assert_eq!(a.queues[0], vec![2, 0, 1]); // descending cost order
        assert_eq!(a.predicted_load, vec![12]);
    }

    #[test]
    fn more_devices_than_shards_leaves_idle_devices() {
        let a = lpt_schedule(&[7, 3], 4);
        assert_eq!(a.queues.iter().filter(|q| q.is_empty()).count(), 2);
        assert_eq!(a.imbalance(), 7.0 * 4.0 / 10.0);
    }

    #[test]
    fn deterministic_under_ties() {
        let a = lpt_schedule(&[5, 5, 5, 5], 2);
        let b = lpt_schedule(&[5, 5, 5, 5], 2);
        assert_eq!(a, b);
        assert_eq!(a.imbalance(), 1.0);
    }

    #[test]
    fn empty_shard_list_is_fine() {
        let a = lpt_schedule(&[], 2);
        assert!(a.queues.iter().all(Vec::is_empty));
        assert_eq!(a.imbalance(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = lpt_schedule(&[1], 0);
    }

    #[test]
    fn argmin_prefers_smaller_count_on_ties() {
        let ms = Duration::from_millis;
        // Strict minimum wins regardless of position…
        assert_eq!(
            argmin_shard_count(&[(1, ms(9)), (4, ms(7)), (8, ms(8))]),
            Some(4)
        );
        // …and an exact tie goes to the smaller shard count, whatever
        // the table order.
        assert_eq!(
            argmin_shard_count(&[(8, ms(7)), (2, ms(7)), (4, ms(9))]),
            Some(2)
        );
        assert_eq!(
            argmin_shard_count(&[(2, ms(7)), (8, ms(7)), (4, ms(9))]),
            Some(2)
        );
        assert_eq!(argmin_shard_count(&[]), None);
    }
}
