//! The sharded multi-device self-join engine.
//!
//! The engine is a **plan rewrite** over the shared join-plan IR
//! ([`grid_join::JoinPlan`]): the partition pass turns one logical join
//! into per-shard *subplans* — prebuilt shard index, precomputed cost
//! estimate, an emit-time ownership window — and the rest of the pipeline
//! is scheduling and merging:
//!
//! fused sample pass → calibration ∥ speculative cut-tree builds →
//! choose shard count (modeled-response argmin) → materialize the chosen
//! partition → LPT scheduling → one executor task per device (rayon)
//! running its queue of subplans (shard grid build + join) through
//! [`grid_join::plan::execute`] and lifting the pairs to global ids →
//! concatenating merge into the global [`NeighborTable`].
//!
//! ## The parallel prelude
//!
//! Everything before the device streams used to be a fixed serial floor;
//! it now shrinks as devices are added. One streaming
//! [`crate::partition::sample_pass`] feeds *both* the kd recursion and
//! the cost calibration ([`crate::cost::calibrate_from_sample`]) — the
//! dataset is read once, chunked one lane per device. The candidate cut
//! trees are then built speculatively while calibration runs: with ≥ 2
//! devices the prelude charges `max(calibration, cut builds)` — the
//! calibration occupies one host lane and the recursion fans its
//! independent subtrees over the remaining `devices − 1`
//! ([`crate::partition::build_cuts`]) — instead of their sum. Only the
//! chosen tree is materialized against the full dataset.
//!
//! ## Shard-count choice
//!
//! More shards mean more devices busy but also more ε-halo replication
//! (every ghost point is uploaded, indexed and scanned twice) *and* a
//! more expensive partition to build. The engine prices the whole
//! trade-off instead of guessing: every candidate count (1, the powers of
//! two up to `devices × shards_per_device`, and the device count itself)
//! has its speculative cut tree, and that same tree is materialized over
//! the calibration sample, so the chooser prices exactly the boxes a win
//! would execute. Each candidate's sample shards are cost-projected
//! ghost-inclusive ([`crate::cost::project_scaled`]) and LPT-scheduled,
//! and the modeled device makespan is summed with the candidate's
//! cut-tree build, its modeled materialize cost
//! ([`crate::cost::modeled_partition_cost`]) and the calibration cost.
//! The candidate with the smallest modeled *response* wins, exact ties
//! breaking toward fewer shards
//! ([`crate::schedule::argmin_shard_count`]) — so 8 devices are only
//! *used* when the ghost-plus-build tax is worth it. An explicit
//! [`ShardedConfig::num_shards`] bypasses the chooser.
//!
//! Every run records its (projected, measured) stream-makespan pair with
//! the cost-model audit. Both sides are priced by the same functions from
//! counts — predicted for the projection, counted for the run — so the
//! audited error is count-prediction error (the projection also leaves
//! out the fixed per-transfer PCIe latency).
//!
//! ## Ownership fusion
//!
//! Shard-local point ids place the owned points first, so the ownership
//! filter is the window `[0, owned)` — fused into the kernels via
//! [`grid_join::plan::JoinPlan::owned_prefix`], which drops ghost-keyed
//! pairs at emit time (one comparison before the result reservation).
//! Both hot paths honour the window, so [`HotPath`] selects only the
//! kernel. Ghost pairs are never materialized or downloaded, and since
//! the ownership windows of different shards cover disjoint global id
//! sets, the merge degenerates to concatenation. Every build counts the
//! merged table's duplicate pairs ([`NeighborTable::duplicate_pairs`])
//! into [`ShardedReport::duplicates_merged`], which disjoint windows
//! keep at 0.
//!
//! ## Timing model
//!
//! Every modeled duration is priced from counts, never from a host clock:
//! kernels from their traced bytes (`DeviceSpec::kernel_time`), host
//! stages — the prelude's passes, calibration, the chooser loop and each
//! shard's grid build — from the bytes they stream at the host-core rate
//! (`sim_gpu::host_core_time`). The simulated devices therefore execute
//! concurrently on the host's cores without disturbing each other's
//! modeled time. Each device's modeled stream accumulates independently,
//! and the engine's modeled response time takes the **maximum** over
//! devices — the busiest device bounds completion, just as a real
//! multi-GPU driver would observe. The same seed gives the same modeled
//! report on any host, at any load.

use crate::cost::{
    calibrate_from_sample, modeled_partition_cost, project_partition, project_scaled,
    projection_bytes, CostModel, ShardCost,
};
use crate::partition::{build_cuts, materialize, partition_par, CutTree, Partition, SamplePass};
use crate::schedule::{argmin_shard_count, lpt_schedule, modeled_makespan, Assignment};
use grid_join::plan::{execute, JoinPlan};
use grid_join::{
    remap_pairs, GridIndex, HotPath, NeighborTable, Pair, SelfJoinConfig, SelfJoinError,
};
use parking_lot::Mutex;
use rayon::prelude::*;
use sim_gpu::{host_core_time, DevicePool, DeviceTally, PoolProfiler};
use sj_datasets::Dataset;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Chooser verdict: the winning shard count, its projected partition
/// build cost (for the `shard_partition` audit), the modeled time of the
/// pricing loop itself, and the full `(candidate, modeled response)`
/// table for the report.
type ChosenShards = (usize, Duration, Duration, Vec<(usize, Duration)>);

/// Upper bound on re-execution rounds after device faults: each round
/// re-runs every still-failed shard on the least-loaded surviving device,
/// so `devices + 1` rounds tolerate a cascade that downs every device but
/// one, plus one round of transient flake on the survivor.
fn max_reexec_rounds(ndev: usize) -> usize {
    ndev + 1
}

/// Configuration of the sharded engine.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Upper bound on shards per device for the shard-count chooser
    /// (default 2): candidates range over 1 ..= devices × this. Over-
    /// decomposition gives the cost-based scheduler freedom to balance
    /// skew at the price of more halo replication — the chooser decides
    /// whether that price pays.
    pub shards_per_device: usize,
    /// Explicit total shard count (disables the chooser).
    pub num_shards: Option<usize>,
    /// Per-shard join configuration (UNICOMP on by default, as in the
    /// paper's best configuration).
    pub join: SelfJoinConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards_per_device: 2,
            num_shards: None,
            join: SelfJoinConfig::default(),
        }
    }
}

/// Execution record of one shard.
#[derive(Clone, Debug)]
pub struct ShardRunReport {
    /// Shard index within the partition.
    pub shard: usize,
    /// Device that executed it.
    pub device: usize,
    /// Owned points.
    pub owned: usize,
    /// Halo ghost points.
    pub ghosts: usize,
    /// Scheduler's projected cost (modeled nanoseconds).
    pub predicted_cost: u64,
    /// Directed pairs this shard contributed (ownership applied).
    pub actual_pairs: u64,
    /// Result batches the shard's join executed.
    pub batches: usize,
    /// H2D bytes attributable to uploading this shard's ghost points.
    pub ghost_h2d_bytes: usize,
    /// Modeled device time of the shard's pipeline (grid build + upload +
    /// kernels + drains, pipelined).
    pub modeled: Duration,
    /// Modeled H2D engine busy time of the shard (the upload phase of
    /// the per-phase breakdown).
    pub modeled_upload: Duration,
    /// Modeled kernel-engine busy time of the shard: estimation, hoist
    /// and join kernels.
    pub modeled_kernel: Duration,
    /// Host wall time of the shard's pipeline.
    pub wall: Duration,
}

/// Execution report of a sharded join.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// Dimensions the kd partitioner cut across, in cut order.
    pub cut_dims: Vec<usize>,
    /// Per-shard execution records, in shard order.
    pub shards: Vec<ShardRunReport>,
    /// Per-device aggregated usage (kernel launches, modeled busy time,
    /// transfer bytes incl. the ghost share), in device order.
    pub devices: Vec<DeviceTally>,
    /// Predicted per-device load the scheduler balanced.
    pub predicted_load: Vec<u64>,
    /// `(shard count, modeled response objective)` for every candidate
    /// the chooser priced (empty when `num_shards` was explicit). The
    /// objective is the candidate's LPT device makespan plus its
    /// partition build cost (cut tree + materialize, both priced from
    /// streamed bytes) plus the calibration cost — see the module docs.
    pub candidate_makespans: Vec<(usize, Duration)>,
    /// Total halo ghost points (replication overhead).
    pub ghost_points: usize,
    /// Modeled time of the fused bounds/sample streaming pass (the bytes
    /// its slowest per-device lane streams, at the host-core rate) —
    /// shared by partitioning and calibration.
    pub sample_time: Duration,
    /// Modeled time of the cost-model calibration (the bytes its binning
    /// and neighbor scan stream, at the host-core rate), *excluding* the
    /// shared sample pass.
    pub calibrate_time: Duration,
    /// Modeled time of the speculative candidate cut-tree builds (each
    /// tree's lane-budgeted critical path of streamed bytes, summed over
    /// candidates) that run overlapped with calibration when ≥ 2 devices
    /// are present.
    pub cut_time: Duration,
    /// Modeled time of the shard-count chooser's pricing loop: each
    /// candidate's materialize over the calibration sample plus its
    /// projection pass, priced from streamed bytes (zero when
    /// `num_shards` was explicit).
    pub choose_time: Duration,
    /// Modeled time of the chosen partition's build, priced from streamed
    /// bytes: the sample pass, its cut tree and the chunked materialize
    /// passes, one lane per device (see `sj_shard::partition`).
    pub partition_time: Duration,
    /// Modeled end-to-end prelude ahead of the device streams: sample
    /// pass + (calibration overlapped with the cut builds) + chooser +
    /// materialize. This is what `modeled_total` charges before the
    /// busiest stream; it *shrinks* as devices are added.
    pub prelude_time: Duration,
    /// The scheduler's projected busiest-stream makespan for the
    /// executed partition (what the cost-model audit compares against
    /// [`Self::measured_stream`]).
    pub projected_stream: Duration,
    /// The executed run's busiest device stream, priced from its counted
    /// bytes — the outcome the audit compares the projection with.
    pub measured_stream: Duration,
    /// Wall time of the per-shard host index builds (summed across
    /// device tasks; they overlap in wall time). The modeled streams
    /// charge each build its streamed bytes instead
    /// (`GridIndex::build_bytes`).
    pub index_build_time: Duration,
    /// Wall time of the parallel execution phase.
    pub execute_time: Duration,
    /// Wall time of the merge: the global table build over the
    /// concatenated shard pairs plus the duplicate count.
    pub merge_time: Duration,
    /// End-to-end host wall time.
    pub total: Duration,
    /// Modeled multi-device response time: the parallel prelude
    /// ([`Self::prelude_time`]) plus the busiest device stream
    /// (per-shard priced grid build + pipelined join timeline; devices
    /// run concurrently so the maximum bounds completion). A pure
    /// function of the data, ε, the configuration and the device spec.
    /// Matches the single-device `JoinReport::modeled_total` convention,
    /// which likewise excludes host-side table/merge construction.
    pub modeled_total: Duration,
    /// Duplicate pairs the merge found in the global table (counted, not
    /// removed, in every build). Exclusive pair ownership makes this 0.
    pub duplicates_merged: u64,
    /// Device-fault events that interrupted a shard during this run
    /// (injected crashes and transient upload/launch failures).
    pub device_faults: u64,
    /// Shard executions re-run on a surviving device after a fault. Every
    /// pair still comes from exactly one *successful* shard execution —
    /// failed attempts contribute nothing to the merge, and the disjoint
    /// ownership windows make the re-run bit-identical to what the failed
    /// device would have produced.
    pub reexecuted_shards: usize,
}

impl ShardedReport {
    /// Ghost points as a fraction of owned points.
    pub fn ghost_fraction(&self) -> f64 {
        let owned: usize = self.shards.iter().map(|s| s.owned).sum();
        if owned == 0 {
            0.0
        } else {
            self.ghost_points as f64 / owned as f64
        }
    }

    /// Total H2D bytes spent uploading ghost points, across devices.
    pub fn ghost_h2d_bytes(&self) -> usize {
        self.devices.iter().map(|t| t.ghost_h2d_bytes).sum()
    }
}

/// Output of a sharded self-join.
#[derive(Clone, Debug)]
pub struct ShardedOutput {
    /// Directed, self-excluded neighbour lists over the *global* point
    /// ids — pair-for-pair identical to a single-device join.
    pub table: NeighborTable,
    /// Timings, per-shard and per-device accounting.
    pub report: ShardedReport,
}

/// The sharded multi-device self-join operator.
#[derive(Clone, Debug)]
pub struct ShardedSelfJoin {
    pool: DevicePool,
    config: ShardedConfig,
}

impl ShardedSelfJoin {
    /// Creates the engine over an existing device pool.
    pub fn new(pool: DevicePool) -> Self {
        Self {
            pool,
            config: ShardedConfig::default(),
        }
    }

    /// Creates the engine over `devices` simulated TITAN X devices.
    pub fn titan_x(devices: usize) -> Self {
        Self::new(DevicePool::titan_x(devices))
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: ShardedConfig) -> Self {
        self.config = config;
        self
    }

    /// Fixes the total shard count (disables the makespan chooser).
    pub fn with_shards(mut self, num_shards: usize) -> Self {
        self.config.num_shards = Some(num_shards);
        self
    }

    /// Overrides the per-shard join configuration (hot path, UNICOMP,
    /// launch geometry, batching tunables).
    pub fn with_join_config(mut self, join: SelfJoinConfig) -> Self {
        self.config.join = join;
        self
    }

    /// Selects the join kernel every shard runs (default
    /// [`HotPath::CellMajor`]). Ownership and merge are the same on both
    /// paths.
    pub fn with_hot_path(mut self, path: HotPath) -> Self {
        self.config.join.hot_path = path;
        self
    }

    /// The device pool.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Shard-count candidates: 1, the powers of two up to the cap, plus
    /// the device count and the cap themselves.
    fn shard_candidates(&self, ndev: usize) -> BTreeSet<usize> {
        let cap = (ndev * self.config.shards_per_device).max(1);
        let mut c: BTreeSet<usize> = [1, ndev.min(cap), cap].into();
        let mut k = 2;
        while k <= cap {
            c.insert(k);
            k *= 2;
        }
        c
    }

    /// Prices every candidate shard count by materializing its own
    /// speculative cut tree over the calibration sample — modeled device
    /// makespan *plus* the cost of making the partition
    /// (the candidate's speculative cut-tree build, its modeled
    /// materialize passes, and the calibration) — and returns the
    /// modeled-response argmin (exact ties break toward fewer shards via
    /// [`argmin_shard_count`]), the winner's projected partition build
    /// cost (for the `shard_partition` audit), the loop's own modeled
    /// time and the full candidate table for the report.
    fn choose_shard_count(
        &self,
        model: &CostModel,
        sp: &SamplePass,
        trees: &[(usize, CutTree)],
        ndev: usize,
    ) -> Result<ChosenShards, SelfJoinError> {
        let spec = self.pool.device(0).spec();
        let scale = model.len as f64 / model.sample_data.len().max(1) as f64;
        let mut table = Vec::new();
        let mut build_costs = Vec::new();
        let mut choose_time = Duration::ZERO;
        for (k, tree) in trees {
            let k = *k;
            let sample_part = materialize(&model.sample_data, tree, 1)?;
            choose_time += sample_part.build_time + host_core_time(projection_bytes(model));
            let costs = project_scaled(model, &sample_part, scale, spec, &self.config.join);
            let assign = lpt_schedule(&costs.iter().map(ShardCost::cost).collect::<Vec<_>>(), ndev);
            let stages: Vec<(Duration, Duration)> =
                costs.iter().map(|c| (c.grid_time, c.device_time)).collect();
            let mk = modeled_makespan(&assign, &stages);
            let ghosts_scaled: f64 = costs.iter().map(|c| c.ghosts as f64).sum();
            let build = modeled_partition_cost(sp, tree.build_time, k, ndev, ghosts_scaled);
            table.push((k, mk + build + model.build_time));
            build_costs.push((k, build));
        }
        let chosen = argmin_shard_count(&table).unwrap_or(1);
        let chosen_build = build_costs
            .iter()
            .find(|&&(k, _)| k == chosen)
            .map(|&(_, b)| b)
            .unwrap_or(Duration::ZERO);
        Ok((chosen, chosen_build, choose_time, table))
    }

    /// Runs the sharded self-join: all ordered pairs `(p, q)`, `p ≠ q`,
    /// with `dist(p, q) ≤ epsilon`, merged across all devices.
    pub fn run(&self, data: &Dataset, epsilon: f64) -> Result<ShardedOutput, SelfJoinError> {
        let t0 = Instant::now();
        let mut span = sj_obs::Span::enter("shard.run");
        span.label("n", data.len());
        span.label("epsilon", epsilon);
        let root_id = span.id();
        let modeled_start = if root_id != 0 {
            let c = sj_obs::trace::modeled_cursor();
            if c.is_nan() {
                0.0
            } else {
                c
            }
        } else {
            0.0
        };
        let ndev = self.pool.len();
        span.label("devices", ndev);
        let spec = self.pool.device(0).spec();

        // Fused prelude, stage 1: one chunked streaming read of the
        // dataset yields the kd recursion's stride sample *and* the
        // calibration's binned sample (one lane per device).
        let sp = crate::partition::sample_pass(data, ndev)?;
        let sample_time = sp.modeled;

        // Stage 2, overlapped: the ghost-aware cost model calibrates
        // from the shared sample while the candidate cut trees build
        // speculatively on the remaining host lanes. Sequentially
        // executed (simulated lanes, like every host-parallel pass
        // here); with ≥ 2 devices the prelude charges the slower of the
        // two sides instead of their sum.
        let model = {
            let _cspan = sj_obs::Span::enter("shard.calibrate");
            calibrate_from_sample(&sp, epsilon)?
        };
        let calibrate_time = model.build_time;

        let candidate_counts: Vec<usize> = match self.config.num_shards {
            Some(k) => vec![k.max(1)],
            None => self.shard_candidates(ndev).into_iter().collect(),
        };
        let cut_lanes = ndev.saturating_sub(1).max(1);
        let trees: Vec<(usize, CutTree)> = {
            let mut tspan = sj_obs::Span::enter("shard.cuts");
            tspan.label("candidates", candidate_counts.len());
            candidate_counts
                .iter()
                .map(|&k| Ok((k, build_cuts(&sp, epsilon, k, cut_lanes)?)))
                .collect::<Result<_, SelfJoinError>>()?
        };
        let cut_time: Duration = trees.iter().map(|(_, t)| t.build_time).sum();
        let overlap_time = if ndev >= 2 {
            calibrate_time.max(cut_time)
        } else {
            calibrate_time + cut_time
        };

        let mut chspan = sj_obs::Span::enter("shard.choose");
        let (num_shards, projected_build, choose_time, candidate_makespans) =
            match self.config.num_shards {
                Some(k) => (k.max(1), Duration::ZERO, Duration::ZERO, Vec::new()),
                None => self.choose_shard_count(&model, &sp, &trees, ndev)?,
            };
        chspan.label("chosen", num_shards);
        chspan.label("candidates", candidate_makespans.len());
        drop(chspan);

        // Stage 3: materialize only the winning tree against the full
        // dataset — the chunked passes are charged at their per-lane
        // makespan, one lane per device, matching the engine's
        // per-device stream convention.
        let chosen_tree = trees
            .into_iter()
            .find(|(k, _)| *k == num_shards)
            .map(|(_, t)| t)
            .expect("the chosen count came from the candidate list");
        let mut part = materialize(data, &chosen_tree, ndev)?;
        let materialize_time = part.build_time;
        // `Partition::build_time` keeps its historical meaning (the
        // whole partition build) for `partition_time` and downstream
        // consumers; the prelude accounting charges the shared sample
        // pass only once.
        part.build_time += sample_time + chosen_tree.build_time;
        let part = part;
        if self.config.num_shards.is_none() {
            // Closed loop on the partition-cost model: the chooser's
            // projected build cost vs what building the winner took.
            sj_obs::audit::record(
                "shard_partition",
                projected_build.as_secs_f64(),
                (chosen_tree.build_time + materialize_time).as_secs_f64(),
            );
        }
        let prelude_time = sample_time + overlap_time + choose_time + materialize_time;
        let costs = project_partition(&model, &part, spec, &self.config.join);

        let assignment: Assignment = {
            let mut sspan = sj_obs::Span::enter("shard.schedule");
            sspan.label("shards", costs.len());
            lpt_schedule(&costs.iter().map(ShardCost::cost).collect::<Vec<_>>(), ndev)
        };
        // The schedule's own makespan projection over the *actual*
        // partition — paired with the measured stream makespan below for
        // the cost-model audit.
        let projected_makespan = {
            let stages: Vec<(Duration, Duration)> =
                costs.iter().map(|c| (c.grid_time, c.device_time)).collect();
            modeled_makespan(&assignment, &stages)
        };

        // Parallel execution: one rayon task per device drains its queue
        // — building each shard's grid, then running the subplan — and
        // streams globally-remapped pairs into the shared merge
        // accumulator. Devices run concurrently (see module docs).
        let t2 = Instant::now();
        let profiler = PoolProfiler::new(ndev);
        let merged: Mutex<Vec<Pair>> = Mutex::new(Vec::new());
        let shard_reports: Mutex<Vec<Option<ShardRunReport>>> =
            Mutex::new(vec![None; part.shards.len()]);
        let index_build: Mutex<Duration> = Mutex::new(Duration::ZERO);
        let streams: Mutex<Vec<Duration>> = Mutex::new(vec![Duration::ZERO; ndev]);
        let device_faults = AtomicU64::new(0);
        let failed_shards: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let last_fault: Mutex<Option<SelfJoinError>> = Mutex::new(None);
        // Device streams start on the modeled clock after the (now
        // lane-parallel) prelude.
        let prelude_secs = modeled_start + prelude_time.as_secs_f64();

        // One shard's full pipeline on one device — grid build, subplan
        // rewrite, batched execution, accounting, merge append. Shared by
        // the primary per-device pass and the fault re-execution rounds;
        // pairs reach the merge only on success, so a failed attempt
        // contributes nothing and a re-run can never duplicate. Returns
        // `(modeled grid build, device modeled time)`.
        let run_shard = |d: usize, s: usize| -> Result<(Duration, Duration), SelfJoinError> {
            let shard = &part.shards[s];
            let mut shspan = sj_obs::Span::enter("shard.shard");
            shspan.label("shard", s);
            shspan.label("owned", shard.owned);
            shspan.label("ghosts", shard.ghosts());
            let shard_cursor = if shspan.id() != 0 {
                sj_obs::trace::modeled_cursor()
            } else {
                f64::NAN
            };
            // The partition is the source of truth for the halo
            // geometry; index at its ε.
            let tg = Instant::now();
            let grid = GridIndex::build(&shard.data, part.epsilon)?;
            *index_build.lock() += tg.elapsed();
            let grid_build =
                host_core_time(GridIndex::build_bytes(shard.data.len(), shard.data.dim()));
            // The shard's host grid build occupies the stream
            // before the device pipeline starts.
            if !shard_cursor.is_nan() {
                sj_obs::trace::set_modeled_cursor(shard_cursor + grid_build.as_secs_f64());
            }

            // The shard's subplan: the rewrite of the logical
            // join restricted to this shard. Owned points are the
            // local prefix, so the ownership window is [0, owned),
            // fused into the kernels. Ids lift back to global.
            let subplan = self
                .subplan(&shard.data, &grid, costs[s].predicted_pairs)
                .owned_prefix(shard.owned);
            let out = execute(&subplan, self.pool.device(d))?;
            let mut pairs = out.pairs;
            remap_pairs(&mut pairs, &shard.global_ids);
            let h2d = out.report.index_bytes + shard.data.len() * shard.data.dim() * 8;
            // Ghost share of the upload, attributed by point
            // count (ghosts and owned points cost the same bytes
            // in both the coordinates and the index).
            let ghost_h2d =
                ((h2d as f64 * shard.ghosts() as f64) / shard.data.len().max(1) as f64) as usize;
            profiler.record(
                d,
                &DeviceTally {
                    items: 1,
                    launches: out.report.batching.batches,
                    wall: out.report.device_pipeline,
                    // The host grid build is charged to the
                    // device stream that consumes it, matching
                    // the single-device modeled_total convention.
                    busy: grid_build + out.report.modeled_total,
                    h2d_bytes: h2d,
                    ghost_h2d_bytes: ghost_h2d,
                    d2h_bytes: out.report.batching.actual_pairs as usize
                        * std::mem::size_of::<Pair>(),
                },
            );
            shard_reports.lock()[s] = Some(ShardRunReport {
                shard: s,
                device: d,
                owned: shard.owned,
                ghosts: shard.ghosts(),
                predicted_cost: costs[s].cost(),
                actual_pairs: pairs.len() as u64,
                batches: out.report.batching.batches,
                ghost_h2d_bytes: ghost_h2d,
                modeled: grid_build + out.report.modeled_total,
                modeled_upload: out.report.batching.timeline.h2d_busy,
                modeled_kernel: out.report.batching.modeled_estimate_time
                    + out.report.batching.modeled_hoist_time
                    + out.report.batching.modeled_kernel_time,
                wall: out.report.total,
            });
            if !shard_cursor.is_nan() {
                shspan.set_modeled(
                    shard_cursor,
                    (grid_build + out.report.modeled_total).as_secs_f64(),
                );
            }
            merged.lock().append(&mut pairs);
            Ok((grid_build, out.report.modeled_total))
        };

        let device_runs: Vec<Result<(), SelfJoinError>> = (0..ndev)
            .into_par_iter()
            .map(|d| -> Result<(), SelfJoinError> {
                let mut dspan = sj_obs::Span::child_of(root_id, "shard.device");
                dspan.label("device", d);
                dspan.label("queue", assignment.queues[d].len());
                if dspan.id() != 0 {
                    sj_obs::trace::set_modeled_cursor(prelude_secs);
                }
                // Modeled device-stream clock: the executor thread's host
                // work (grid builds) and the device's modeled work
                // pipeline exactly as `modeled_makespan` prices them.
                let mut host_t = Duration::ZERO;
                let mut dev_t = Duration::ZERO;
                for (qi, &s) in assignment.queues[d].iter().enumerate() {
                    match run_shard(d, s) {
                        Ok((grid_build, modeled)) => {
                            host_t += grid_build;
                            dev_t = host_t.max(dev_t) + modeled;
                        }
                        Err(SelfJoinError::Fault(f)) => {
                            device_faults.fetch_add(1, Ordering::Relaxed);
                            *last_fault.lock() = Some(SelfJoinError::Fault(f));
                            let mut failed = failed_shards.lock();
                            if f.is_crash() {
                                // The device is down: its entire remaining
                                // queue moves to the survivors.
                                failed.extend(assignment.queues[d][qi..].iter().copied());
                                drop(failed);
                                break;
                            }
                            // Transient: only this shard failed; the rest
                            // of the queue keeps running here.
                            failed.push(s);
                        }
                        Err(e) => return Err(e),
                    }
                }
                dspan.set_modeled(prelude_secs, dev_t.as_secs_f64());
                streams.lock()[d] = dev_t;
                Ok(())
            })
            .collect();
        for r in device_runs {
            r?;
        }

        // Re-execution rounds: every failed shard re-runs on the
        // least-loaded *surviving* stream, bounded by `max_reexec_rounds`
        // — enough for a crash cascade that downs all devices but one.
        // The ownership windows make each re-run bit-identical to what
        // the failed device would have produced, so exactness is
        // untouched; only the stream makespan (and thus the modeled
        // response time) grows.
        let mut streams = streams.into_inner();
        let mut failed = {
            let mut f = failed_shards.into_inner();
            f.sort_unstable();
            f.dedup();
            f
        };
        let mut reexecuted = 0usize;
        let mut round = 0usize;
        while !failed.is_empty() {
            round += 1;
            self.pool.tick_health();
            let mask = self.pool.health_mask();
            let survivors: Vec<usize> = (0..ndev).filter(|&i| mask[i]).collect();
            if round > max_reexec_rounds(ndev) || survivors.is_empty() {
                // Out of retry budget (or out of devices): surface the
                // fault rather than loop forever on a dying pool.
                return Err(last_fault
                    .into_inner()
                    .expect("a shard only fails via a fault"));
            }
            let mut rspan = sj_obs::Span::enter("fault.reexec");
            rspan.label("round", round);
            rspan.label("shards", failed.len());
            let mut still_failed = Vec::new();
            for s in failed.drain(..) {
                let d = survivors
                    .iter()
                    .copied()
                    .min_by_key(|&i| streams[i])
                    .expect("survivors is non-empty");
                match run_shard(d, s) {
                    Ok((grid_build, modeled)) => {
                        streams[d] += grid_build + modeled;
                        reexecuted += 1;
                    }
                    Err(SelfJoinError::Fault(f)) => {
                        device_faults.fetch_add(1, Ordering::Relaxed);
                        *last_fault.lock() = Some(SelfJoinError::Fault(f));
                        still_failed.push(s);
                    }
                    Err(e) => return Err(e),
                }
            }
            failed = still_failed;
        }
        if reexecuted > 0 {
            sj_obs::registry()
                .counter("sj_shard_reexecutions_total", &[])
                .add(reexecuted as u64);
        }
        let execute_time = t2.elapsed();

        // Merge: the per-shard ownership windows cover disjoint global id
        // sets, so concatenation is already the union. The duplicate
        // count checks that invariant in every build.
        let t3 = Instant::now();
        let table = NeighborTable::from_pairs(data.len(), &merged.into_inner());
        let duplicates_merged = table.duplicate_pairs();
        let merge_time = t3.elapsed();

        let devices = profiler.snapshot();
        // Response-time convention matches the single-device
        // `JoinReport::modeled_total` (grid build + estimate + pipelined
        // device timeline): the serial prelude (calibration, chooser,
        // partition) plus the busiest device *stream* — per stream, grid
        // builds (host) pipeline with modeled device work exactly as the
        // chooser priced them. Host-side table construction is excluded
        // there and the host-side merge is excluded here (reported as
        // `merge_time`).
        let stream_makespan = streams.iter().copied().max().unwrap_or(Duration::ZERO);
        let modeled_total = prelude_time + stream_makespan;
        let index_build_time = index_build.into_inner();
        let shards: Vec<ShardRunReport> =
            shard_reports.into_inner().into_iter().flatten().collect();

        // Cost-model audit: the scheduler's projected makespan vs the
        // measured busiest-stream makespan of the run it scheduled.
        sj_obs::audit::record(
            "shard_chooser",
            projected_makespan.as_secs_f64(),
            stream_makespan.as_secs_f64(),
        );
        // Balance/replication gauges: busiest stream over mean busy
        // stream (1.0 = perfectly balanced), and halo replication as a
        // fraction of owned points.
        {
            let busy: Vec<f64> = streams
                .iter()
                .map(|s| s.as_secs_f64())
                .filter(|&s| s > 0.0)
                .collect();
            if !busy.is_empty() {
                let mean = busy.iter().sum::<f64>() / busy.len() as f64;
                let max = busy.iter().cloned().fold(0.0, f64::max);
                sj_obs::registry()
                    .gauge("sj_shard_stream_balance", &[])
                    .set(if mean > 0.0 { max / mean } else { 1.0 });
            }
            sj_obs::registry()
                .gauge("sj_shard_ghost_fraction", &[])
                .set(part.ghost_fraction());
        }
        span.label("shards", shards.len());
        span.set_modeled(modeled_start, modeled_total.as_secs_f64());
        Ok(ShardedOutput {
            table,
            report: ShardedReport {
                cut_dims: part.cut_dims.clone(),
                shards,
                devices,
                predicted_load: assignment.predicted_load,
                candidate_makespans,
                ghost_points: part.ghost_points(),
                sample_time,
                calibrate_time,
                cut_time,
                choose_time,
                partition_time: part.build_time,
                prelude_time,
                projected_stream: projected_makespan,
                measured_stream: stream_makespan,
                index_build_time,
                execute_time,
                merge_time,
                total: t0.elapsed(),
                modeled_total,
                duplicates_merged,
                device_faults: device_faults.into_inner(),
                reexecuted_shards: reexecuted,
            },
        })
    }

    /// The per-shard subplan of the rewrite: the configured join over the
    /// shard's prebuilt index with its model-projected result estimate.
    /// `run` further applies the ownership window and remaps the output
    /// ids to the global space.
    fn subplan<'a>(
        &self,
        shard_data: &'a Dataset,
        grid: &'a GridIndex,
        predicted_pairs: u64,
    ) -> JoinPlan<'a> {
        JoinPlan {
            exec: self.config.join.exec_options(),
            launch: self.config.join.launch,
            batching: self.config.join.batching,
            ..JoinPlan::on_grid(shard_data, grid)
        }
        .estimated(predicted_pairs)
    }

    /// Partitions without executing — exposed for inspection and tests.
    /// Uses the explicit shard count if set, else the chooser's cap
    /// (`devices × shards_per_device`) as an upper bound.
    pub fn plan(&self, data: &Dataset, epsilon: f64) -> Result<Partition, SelfJoinError> {
        let num_shards = self
            .config
            .num_shards
            .unwrap_or(self.pool.len() * self.config.shards_per_device)
            .max(1);
        Ok(partition_par(data, epsilon, num_shards, self.pool.len())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_join::{host_self_join, GpuSelfJoin};
    use sj_datasets::synthetic::{clustered, uniform};

    #[test]
    fn matches_single_device_join_on_uniform_data() {
        let data = uniform(2, 3000, 31);
        let eps = 2.5;
        let sharded = ShardedSelfJoin::titan_x(4).run(&data, eps).unwrap();
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        assert_eq!(sharded.table, single.table);
        assert_eq!(sharded.report.duplicates_merged, 0);
        assert_eq!(
            sharded.report.shards.iter().map(|s| s.owned).sum::<usize>(),
            data.len()
        );
    }

    #[test]
    fn matches_single_device_join_on_skewed_data() {
        let data = clustered(2, 2500, 4, 1.0, 0.08, 32);
        let eps = 0.9;
        let sharded = ShardedSelfJoin::titan_x(2).run(&data, eps).unwrap();
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        assert_eq!(sharded.table, single.table);
        assert_eq!(sharded.report.duplicates_merged, 0);
    }

    #[test]
    fn matches_host_reference_in_higher_dimensions() {
        let data = uniform(4, 1500, 33);
        let eps = 16.0;
        let sharded = ShardedSelfJoin::titan_x(3).run(&data, eps).unwrap();
        let grid = GridIndex::build(&data, eps).unwrap();
        assert_eq!(sharded.table, host_self_join(&data, &grid));
    }

    #[test]
    fn work_spreads_across_devices() {
        let data = uniform(2, 4000, 34);
        let out = ShardedSelfJoin::titan_x(4)
            .with_shards(8)
            .run(&data, 2.0)
            .unwrap();
        let busy_devices = out.report.devices.iter().filter(|t| t.items > 0).count();
        assert!(busy_devices >= 2, "only {busy_devices} devices used");
        // With work spread over ≥2 devices, the busiest device's modeled
        // time is strictly below the serial sum.
        let total: Duration = out.report.devices.iter().map(|t| t.busy).sum();
        let makespan = out.report.devices.iter().map(|t| t.busy).max().unwrap();
        assert!(makespan < total);
        assert_eq!(
            out.report.shards.len(),
            out.report.devices.iter().map(|t| t.items).sum::<usize>()
        );
    }

    #[test]
    fn hot_paths_agree_through_sharding() {
        let data = clustered(2, 2200, 3, 1.0, 0.1, 40);
        let eps = 1.1;
        let cm = ShardedSelfJoin::titan_x(3)
            .with_hot_path(HotPath::CellMajor)
            .run(&data, eps)
            .unwrap();
        let pt = ShardedSelfJoin::titan_x(3)
            .with_hot_path(HotPath::PerThread)
            .run(&data, eps)
            .unwrap();
        assert_eq!(cm.table, pt.table);
        assert_eq!(cm.report.duplicates_merged, 0);
        assert_eq!(pt.report.duplicates_merged, 0);
        let grid = GridIndex::build(&data, eps).unwrap();
        assert_eq!(pt.table, host_self_join(&data, &grid));
    }

    #[test]
    fn chooser_records_candidates_and_picks_min_makespan() {
        let data = uniform(2, 3000, 41);
        let out = ShardedSelfJoin::titan_x(4).run(&data, 2.0).unwrap();
        let cands = &out.report.candidate_makespans;
        assert!(!cands.is_empty(), "default config must run the chooser");
        assert!(cands.iter().any(|&(k, _)| k == 1));
        assert!(cands.iter().any(|&(k, _)| k == 8), "cap = 4 × 2 missing");
        let best = cands.iter().map(|&(_, m)| m).min().unwrap();
        let chosen = cands
            .iter()
            .find(|&&(k, _)| k == out.report.shards.len())
            .map(|&(_, m)| m);
        // The executed shard count may be below the chosen k only if the
        // partitioner degraded (narrow data) — not on uniform 2-D data.
        assert_eq!(chosen, Some(best), "did not execute the argmin: {cands:?}");
    }

    #[test]
    fn single_device_choice_beats_or_matches_no_sharding() {
        // On one device extra shards buy no device parallelism — only
        // grid-build/device overlap can justify them. Whatever the
        // chooser picks, its modeled makespan must not exceed the k = 1
        // candidate's (the degenerate "don't shard" option is always on
        // the table).
        let data = uniform(2, 3000, 42);
        let out = ShardedSelfJoin::titan_x(1).run(&data, 2.0).unwrap();
        let cands = &out.report.candidate_makespans;
        let k1 = cands.iter().find(|&&(k, _)| k == 1).map(|&(_, m)| m);
        let best = cands.iter().map(|&(_, m)| m).min();
        assert!(best <= k1, "chooser worse than not sharding: {cands:?}");
        let single = GpuSelfJoin::default_device().run(&data, 2.0).unwrap();
        assert_eq!(out.table, single.table);
    }

    #[test]
    fn explicit_shard_count_is_honored() {
        let data = uniform(2, 2000, 35);
        let out = ShardedSelfJoin::titan_x(2)
            .with_shards(3)
            .run(&data, 2.0)
            .unwrap();
        assert!(out.report.shards.len() <= 3);
        assert!(out.report.candidate_makespans.is_empty());
        let single = GpuSelfJoin::default_device().run(&data, 2.0).unwrap();
        assert_eq!(out.table, single.table);
    }

    #[test]
    fn one_device_one_shard_degenerates_to_plain_join() {
        let data = uniform(3, 1000, 36);
        let out = ShardedSelfJoin::titan_x(1)
            .with_shards(1)
            .run(&data, 7.0)
            .unwrap();
        let single = GpuSelfJoin::default_device().run(&data, 7.0).unwrap();
        assert_eq!(out.table, single.table);
        assert_eq!(out.report.ghost_points, 0);
        assert_eq!(out.report.shards.len(), 1);
        assert_eq!(out.report.ghost_h2d_bytes(), 0);
    }

    #[test]
    fn empty_dataset_runs() {
        let out = ShardedSelfJoin::titan_x(2)
            .run(&Dataset::new(2), 1.0)
            .unwrap();
        assert_eq!(out.table.num_points(), 0);
        assert_eq!(out.report.duplicates_merged, 0);
    }

    #[test]
    fn invalid_epsilon_surfaces_error() {
        let data = uniform(2, 100, 37);
        let err = ShardedSelfJoin::titan_x(2).run(&data, -2.0).unwrap_err();
        assert!(matches!(err, SelfJoinError::Grid(_)));
    }

    #[test]
    fn device_memory_released_after_run() {
        let data = uniform(2, 1500, 38);
        let engine = ShardedSelfJoin::titan_x(3);
        let _ = engine.run(&data, 2.0).unwrap();
        assert_eq!(engine.pool().total_used_bytes(), 0);
    }

    #[test]
    fn plan_exposes_partition() {
        let data = uniform(2, 2000, 39);
        let plan = ShardedSelfJoin::titan_x(2).plan(&data, 2.0).unwrap();
        assert!(plan.shards.len() >= 2);
        assert_eq!(plan.owned_points(), 2000);
    }

    #[test]
    fn chooser_projection_converges_within_band() {
        // The audit acceptance bar: the projected stream makespan lies
        // within ±50% of the measured one (the audit's histogram used to
        // sit at its +800% clamp). Both sides are priced from counts, so
        // one run is the whole story.
        let data = uniform(2, 6000, 45);
        let out = ShardedSelfJoin::titan_x(4).run(&data, 2.0).unwrap();
        let p = out.report.projected_stream.as_secs_f64();
        let m = out.report.measured_stream.as_secs_f64();
        assert!(m > 0.0 && p > 0.0);
        let err = (p - m) / m;
        assert!(err.abs() <= 0.5, "relative error {err:+.2} outside ±50%");
    }

    #[test]
    fn report_prelude_accounting_is_consistent() {
        let data = uniform(2, 4000, 46);
        let out = ShardedSelfJoin::titan_x(4).run(&data, 2.0).unwrap();
        let r = &out.report;
        // The prelude charges the shared sample pass once and overlaps
        // calibration with the speculative cut builds; it can never
        // exceed the fully serial sum of its parts.
        assert!(r.prelude_time >= r.sample_time);
        let serial_sum =
            r.sample_time + r.calibrate_time + r.cut_time + r.choose_time + r.partition_time;
        assert!(
            r.prelude_time <= serial_sum,
            "prelude {:?} exceeds serial sum {:?}",
            r.prelude_time,
            serial_sum
        );
        assert_eq!(r.modeled_total, r.prelude_time + r.measured_stream);
        // The partition's own build (sample + chosen cuts + materialize)
        // includes the sample pass.
        assert!(r.partition_time >= r.sample_time);
        // Per-shard phase breakdown is populated on real shards.
        for s in &r.shards {
            assert!(s.modeled_upload > Duration::ZERO, "shard {}", s.shard);
            assert!(s.modeled_kernel > Duration::ZERO, "shard {}", s.shard);
        }
    }

    #[test]
    fn transient_fault_reexecutes_shard_exactly() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let data = uniform(2, 2500, 41);
        let eps = 2.2;
        let engine = ShardedSelfJoin::titan_x(2).with_shards(6);
        // One transient early on each device: both streams lose a shard
        // attempt, both shards re-run and the union is unchanged.
        engine.pool().inject_faults(&FaultPlan::new(vec![
            FaultEvent {
                device: 0,
                after_ops: 2,
                kind: FaultKind::Transient,
            },
            FaultEvent {
                device: 1,
                after_ops: 2,
                kind: FaultKind::Transient,
            },
        ]));
        let out = engine.run(&data, eps).unwrap();
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        assert_eq!(out.table, single.table);
        assert_eq!(out.report.duplicates_merged, 0);
        assert!(out.report.device_faults >= 1);
        assert!(out.report.reexecuted_shards >= 1);
    }

    #[test]
    fn device_crash_fails_over_to_survivors() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let data = clustered(2, 2200, 3, 1.0, 0.1, 42);
        let eps = 0.9;
        let engine = ShardedSelfJoin::titan_x(4).with_shards(8);
        // Device 2 dies almost immediately and never heals: its whole
        // queue must drain onto the three survivors.
        engine
            .pool()
            .inject_faults(&FaultPlan::new(vec![FaultEvent {
                device: 2,
                after_ops: 1,
                kind: FaultKind::Crash {
                    heal_after_probes: u32::MAX,
                },
            }]));
        let out = engine.run(&data, eps).unwrap();
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        assert_eq!(out.table, single.table);
        assert_eq!(out.report.duplicates_merged, 0);
        assert!(out.report.device_faults >= 1);
        assert!(out.report.reexecuted_shards >= 1);
        assert!(!engine.pool().is_healthy(2));
        // No re-executed shard landed back on the dead device.
        for s in &out.report.shards {
            assert_ne!(
                s.device, 2,
                "shard {} reported on the crashed device",
                s.shard
            );
        }
    }

    #[test]
    fn pool_wide_crash_surfaces_fault_error() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let data = uniform(2, 1200, 43);
        let engine = ShardedSelfJoin::titan_x(1).with_shards(4);
        engine
            .pool()
            .inject_faults(&FaultPlan::new(vec![FaultEvent {
                device: 0,
                after_ops: 1,
                kind: FaultKind::Crash {
                    heal_after_probes: u32::MAX,
                },
            }]));
        let err = engine.run(&data, 2.0).unwrap_err();
        assert!(err.is_fault(), "expected a fault error, got {err}");
    }

    #[test]
    fn straggler_slows_stream_without_changing_pairs() {
        use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
        let data = uniform(2, 2000, 44);
        let eps = 2.0;
        let baseline = ShardedSelfJoin::titan_x(2)
            .with_shards(4)
            .run(&data, eps)
            .unwrap();
        let engine = ShardedSelfJoin::titan_x(2).with_shards(4);
        engine
            .pool()
            .inject_faults(&FaultPlan::new(vec![FaultEvent {
                device: 1,
                after_ops: 1,
                kind: FaultKind::Straggler {
                    factor: 50.0,
                    ops: 1000,
                },
            }]));
        let out = engine.run(&data, eps).unwrap();
        assert_eq!(out.table, baseline.table);
        assert_eq!(out.report.device_faults, 0);
        assert_eq!(out.report.reexecuted_shards, 0);
        assert!(
            out.report.modeled_total > baseline.report.modeled_total,
            "straggler should inflate the modeled makespan ({:?} vs {:?})",
            out.report.modeled_total,
            baseline.report.modeled_total
        );
    }
}
