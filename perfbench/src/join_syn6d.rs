//! `join-syn6d`: the paper's one-shot GPU-SJ at its high-dimension end.
//!
//! One op is `GpuSelfJoin::default_device().run` on 25,000 uniform 6-D
//! points at ε for about 24 neighbours per point. Every op builds the
//! index, uploads it, estimates the result size, hoists the 3⁶-cell
//! neighbour searches and runs the batched kernels, so this is the
//! workload where the index "write" path runs on every op.

use crate::counts::CountCheck;
use crate::trace::{Agg, Tracer};
use crate::{check, Op, Outcome, Workload};
use grid_join::batching::{estimate_result_size, run_batched_on};
use grid_join::{
    host_self_join_parallel, CellMajorPlan, DeviceGrid, GpuSelfJoin, GridIndex, HotPath,
    NeighborTable,
};
use sj_bench::eps_for_selectivity;
use sj_datasets::synthetic::uniform;
use sj_datasets::Dataset;
use std::time::Instant;

const DIM: usize = 6;
const POINTS: usize = 25_000;
const NEIGHBORS: f64 = 24.0;

pub struct JoinSyn6d {
    data: Dataset,
    eps: f64,
    reference: NeighborTable,
    join: Option<GpuSelfJoin>,
}

impl JoinSyn6d {
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let data = uniform(DIM, POINTS, seed);
        let eps = eps_for_selectivity(&data, NEIGHBORS);
        let grid = GridIndex::build(&data, eps).map_err(|e| e.to_string())?;
        let reference = host_self_join_parallel(&data, &grid);
        Ok(Self {
            data,
            eps,
            reference,
            join: None,
        })
    }

    fn join(&self) -> &GpuSelfJoin {
        self.join
            .as_ref()
            .expect("the harness sets the workload up first")
    }

    fn record(&self, counts: &mut CountCheck, table: &NeighborTable, cells: usize, batches: usize) {
        counts.observe("result.pairs", table.total_pairs() as f64);
        counts.observe("grid.cells", cells as f64);
        counts.observe("batching.batches", batches as f64);
    }

    /// The steps `GpuSelfJoin::run` takes, as separate public calls with
    /// the operator's own configuration, each inside its layer's span.
    fn traced_pipeline(
        &self,
        t: &mut Tracer,
        op: usize,
    ) -> Result<(NeighborTable, usize, usize), String> {
        let join = self.join();
        let (device, cfg) = (join.device(), join.config());

        let s = t.open(op, "grid.build");
        let grid = GridIndex::build(&self.data, self.eps).map_err(|e| e.to_string())?;
        t.close(s);

        let s = t.open(op, "device_grid.upload");
        let dg = DeviceGrid::upload(device, &self.data, &grid).map_err(|e| e.to_string())?;
        t.close(s);

        let s = t.open(op, "batching.estimate");
        let (estimate, ..) =
            estimate_result_size(device, &dg, &cfg.batching, None).map_err(|e| e.to_string())?;
        t.close(s);

        let hoist = match cfg.hot_path {
            HotPath::CellMajor => {
                let s = t.open(op, "cell_major.hoist");
                let (plan, _) = CellMajorPlan::build(device, &dg, cfg.unicomp, cfg.launch)
                    .map_err(|e| e.to_string())?;
                t.close(s);
                Some(plan)
            }
            HotPath::PerThread => None,
        };

        let mut batching = cfg.batching;
        batching.precomputed_estimate = Some(estimate);
        let s = t.open(op, "batching.kernels");
        let (pairs, report) = run_batched_on(
            device,
            &dg,
            cfg.launch,
            cfg.exec_options(),
            &batching,
            hoist.as_ref(),
        )
        .map_err(|e| e.to_string())?;
        t.close(s);

        let s = t.open(op, "result.table");
        let table = NeighborTable::from_pairs(self.data.len(), &pairs);
        t.close(s);

        t.value("grid.cells", grid.non_empty_cells() as f64, Agg::Median);
        t.value("device_grid.h2d_bytes", dg.h2d_bytes() as f64, Agg::Median);
        t.value("batching.batches", report.batches as f64, Agg::Median);
        t.value(
            "batching.overflow_retries",
            report.overflow_retries as f64,
            Agg::Sum,
        );
        t.value(
            "batching.estimate_ratio",
            estimate as f64 / (pairs.len() as f64).max(1.0),
            Agg::Median,
        );
        t.value("result.pairs", pairs.len() as f64, Agg::Median);
        Ok((table, grid.non_empty_cells(), report.batches))
    }
}

impl Workload for JoinSyn6d {
    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        let join = GpuSelfJoin::default_device();
        let out = join.run(&self.data, self.eps).map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        if let Outcome::Mismatch(m) = check(&out.table, &self.reference) {
            return Err(format!("warm-up op answered wrongly: {m}"));
        }
        self.join = Some(join);
        Ok(secs)
    }

    fn op(&mut self, _i: usize, counts: &mut CountCheck) -> Op {
        let t0 = Instant::now();
        let res = self.join().run(&self.data, self.eps);
        let secs = t0.elapsed().as_secs_f64();
        match res {
            Ok(out) => {
                self.record(
                    counts,
                    &out.table,
                    out.report.non_empty_cells,
                    out.report.batching.batches,
                );
                Op {
                    secs,
                    outcome: check(&out.table, &self.reference),
                }
            }
            Err(e) => Op::failed(secs, e),
        }
    }

    fn traced_op(&mut self, _i: usize, counts: &mut CountCheck, t: &mut Tracer) -> Op {
        let t0 = Instant::now();
        let op = t.begin_op();
        let res = self.traced_pipeline(t, op);
        t.end_op(op);
        let secs = t0.elapsed().as_secs_f64();
        match res {
            Ok((table, cells, batches)) => {
                self.record(counts, &table, cells, batches);
                Op {
                    secs,
                    outcome: check(&table, &self.reference),
                }
            }
            Err(e) => Op::failed(secs, e),
        }
    }
}
