//! `shard-syn4d`: the sharded multi-device join, the only path through
//! `sj_shard`.
//!
//! One op is `ShardedSelfJoin::titan_x(8).run` (default configuration,
//! shard-count chooser on) on 200,000 uniform 4-D points at ε for about
//! 24 neighbours per point. The engine partitions, builds one index per
//! shard, joins every shard and merges the tables on every op.

use crate::counts::CountCheck;
use crate::trace::{Agg, Tracer};
use crate::{check, Op, Workload};
use grid_join::{host_self_join_parallel, GridIndex, NeighborTable};
use sj_bench::eps_for_selectivity;
use sj_datasets::synthetic::uniform;
use sj_datasets::Dataset;
use sj_shard::{ShardedOutput, ShardedSelfJoin};
use std::collections::BTreeMap;
use std::time::Instant;

const DIM: usize = 4;
const POINTS: usize = 200_000;
const NEIGHBORS: f64 = 24.0;
const DEVICES: usize = 8;

pub struct ShardSyn4d {
    data: Dataset,
    eps: f64,
    reference: NeighborTable,
    engine: Option<ShardedSelfJoin>,
    /// Shard count the chooser picked → ops that ran with it.
    shards_per_op: BTreeMap<usize, usize>,
}

impl ShardSyn4d {
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let data = uniform(DIM, POINTS, seed);
        let eps = eps_for_selectivity(&data, NEIGHBORS);
        let grid = GridIndex::build(&data, eps).map_err(|e| e.to_string())?;
        let reference = host_self_join_parallel(&data, &grid);
        Ok(Self {
            data,
            eps,
            reference,
            engine: None,
            shards_per_op: BTreeMap::new(),
        })
    }

    fn engine(&self) -> &ShardedSelfJoin {
        self.engine
            .as_ref()
            .expect("the harness sets the workload up first")
    }

    /// The ghost share and batch count depend on how many shards the
    /// chooser cut, so they are keyed by it; the pair count is not.
    fn record(&mut self, counts: &mut CountCheck, out: &ShardedOutput) {
        let shards = out.report.shards.len();
        *self.shards_per_op.entry(shards).or_default() += 1;
        let batches: usize = out.report.shards.iter().map(|s| s.batches).sum();
        counts.observe("result.pairs", out.table.total_pairs() as f64);
        counts.observe(
            &format!("shard.ghost_frac.shards{shards}"),
            out.report.ghost_fraction(),
        );
        counts.observe(&format!("batching.batches.shards{shards}"), batches as f64);
    }

    fn finish(
        &mut self,
        secs: f64,
        res: Result<ShardedOutput, grid_join::SelfJoinError>,
        counts: &mut CountCheck,
    ) -> (Op, Option<ShardedOutput>) {
        match res {
            Ok(out) => {
                self.record(counts, &out);
                let op = Op {
                    secs,
                    outcome: check(&out.table, &self.reference),
                };
                (op, Some(out))
            }
            Err(e) => (Op::failed(secs, e), None),
        }
    }
}

impl Workload for ShardSyn4d {
    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        let engine = ShardedSelfJoin::titan_x(DEVICES);
        let out = engine
            .run(&self.data, self.eps)
            .map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        if let crate::Outcome::Mismatch(m) = check(&out.table, &self.reference) {
            return Err(format!("warm-up op answered wrongly: {m}"));
        }
        self.engine = Some(engine);
        Ok(secs)
    }

    fn op(&mut self, _i: usize, counts: &mut CountCheck) -> Op {
        let t0 = Instant::now();
        let res = self.engine().run(&self.data, self.eps);
        let secs = t0.elapsed().as_secs_f64();
        self.finish(secs, res, counts).0
    }

    /// One span around `run`; its children are the phases the report
    /// returns, laid end to end: the prelude (partition, calibration,
    /// chooser, schedule — the report's wall total less the execute and
    /// merge phases), the execute phase and the merge.
    fn traced_op(&mut self, _i: usize, counts: &mut CountCheck, t: &mut Tracer) -> Op {
        let t0 = Instant::now();
        let op = t.begin_op();
        let res = self.engine().run(&self.data, self.eps);
        t.end_op(op);
        let secs = t0.elapsed().as_secs_f64();
        let (result, out) = self.finish(secs, res, counts);
        if let Some(out) = out {
            let r = &out.report;
            let prelude = r.total.saturating_sub(r.execute_time + r.merge_time);
            t.place(op, "shard.prelude", prelude);
            t.place(op, "shard.execute", r.execute_time);
            t.place(op, "shard.merge", r.merge_time);
            t.value(
                "shard.index_build_s",
                r.index_build_time.as_secs_f64(),
                Agg::Median,
            );
            t.value("shard.shards", r.shards.len() as f64, Agg::Median);
            t.value("shard.ghost_frac", r.ghost_fraction(), Agg::Median);
            t.value("shard.reexecuted", r.reexecuted_shards as f64, Agg::Sum);
            let h2d: usize = r.devices.iter().map(|d| d.h2d_bytes).sum();
            t.value("device_grid.h2d_bytes", h2d as f64, Agg::Median);
            let batches: usize = r.shards.iter().map(|s| s.batches).sum();
            t.value("batching.batches", batches as f64, Agg::Median);
            t.value("result.pairs", out.table.total_pairs() as f64, Agg::Median);
        }
        result
    }

    fn summary(&self) -> String {
        format!("shard counts picked per op: {:?}", self.shards_per_op)
    }
}
