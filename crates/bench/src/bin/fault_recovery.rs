//! Serving through a fault storm: exactness and goodput under device
//! failures.
//!
//! An open-loop query stream is offered to [`sj_serve`]'s
//! `SelfJoinService` on 4 simulated TITAN X devices at ~70% of modeled
//! pool capacity, twice over the identical stream:
//!
//! * **fault-free** — the reference run; its completed-query throughput
//!   (virtual QPS) is the goodput baseline.
//! * **fault storm** — a seeded IPPP storm of transient upload/launch
//!   failures and stragglers ([`sim_gpu::FaultPlan::storm`]) plus a
//!   pinned crash that takes one of the four devices down for the rest
//!   of the run. The service must degrade, not collapse: health-aware
//!   placement routes around the dead device, in-flight queries retry on
//!   survivors while their deadline still allows, and admission sheds
//!   with capacity-aware `retry_after` hints.
//!
//! The acceptance bar, asserted at the end:
//!
//! * every completed answer is pair-for-pair identical to a fresh
//!   `GpuSelfJoin` run at the same ε — faults never corrupt a result;
//! * goodput under the storm stays ≥ 60% of the fault-free goodput
//!   (one device of four is gone, so ~75% is the structural ceiling);
//! * p99 latency of completed queries stays under the SLO in both runs
//!   (admission keeps its promise for the queries it admits, even while
//!   the pool is degraded);
//! * the recovery machinery demonstrably fired: serve-level retries > 0
//!   and the crashed device is in probation when the stream drains.
//!
//! Latencies and throughput are virtual (modeled) seconds. A full run's
//! tables land in `bench_results/fault_recovery.json`.

use grid_join::{GpuSelfJoin, NeighborTable, SelfJoinSession};
use sim_gpu::{DevicePool, FaultEvent, FaultKind, FaultPlan, StormConfig};
use sj_bench::cli::Args;
use sj_bench::eps_for_realized;
use sj_bench::table::emit_table;
use sj_datasets::synthetic;
use sj_serve::{AdmissionConfig, QueryRequest, SelfJoinService, ServeError, ServiceConfig};
use std::collections::HashMap;
use std::time::Duration;

/// In-band ε cycle (fractions of the base ε; everything ≥ 0.55 reuses
/// the resident index).
const CYCLE: [f64; 3] = [1.0, 0.8, 0.6];

const DEVICES: usize = 4;

/// Offered load as a fraction of modeled 4-device capacity: below 1.0 so
/// the fault-free run is comfortably inside the SLO and the storm run's
/// degradation is attributable to the faults, not to overload.
const LOAD: f64 = 0.7;

/// SLO as a multiple of the mean steady-state query cost.
const SLO_FACTOR: f64 = 12.0;

/// Internal admission target under the SLO (see `serve_slo`): projection
/// noise and retry detours must not push completed tails over the bar.
const GUARD_BAND: f64 = 0.65;
const DELAY_FACTOR: f64 = 1.2;

/// Minimum storm-run goodput as a fraction of fault-free goodput.
const GOODPUT_FLOOR: f64 = 0.6;

fn main() {
    let mut args = Args::parse();
    // The full run's table is committed; a `--quick` smoke run leaves it
    // alone unless `--json` is passed.
    args.json |= !args.quick;

    let floor = if args.quick { 4_000 } else { 12_000 };
    let n = ((1_000_000.0 * args.scale) as usize).clamp(floor, 1_000_000);
    let data = synthetic::uniform(2, n, 97);
    let base = eps_for_realized(&data, 16.0);
    let eps_set: Vec<f64> = CYCLE.iter().map(|f| base * f).collect();
    let queries = if args.quick { 60 } else { 240 };

    // Fresh-join reference tables for the exactness check.
    let join = GpuSelfJoin::default_device();
    let mut reference: HashMap<u64, NeighborTable> = HashMap::new();
    for &eps in &eps_set {
        let out = join.run(&data, eps).expect("reference join failed");
        reference.insert(eps.to_bits(), out.table);
    }

    // Pool capacity (same recipe as serve_slo): the measured modeled cost
    // of each ε served again by a warm throwaway session.
    let mean_cost = {
        let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1));
        for &eps in &eps_set {
            session.query(eps).expect("calibration query failed");
        }
        let mut total = 0.0;
        for &eps in &eps_set {
            let out = session.query(eps).expect("calibration query failed");
            total += out.report.modeled_total.as_secs_f64();
        }
        total / eps_set.len() as f64
    };
    let slo = Duration::from_secs_f64(SLO_FACTOR * mean_cost);
    let offered_qps = LOAD * DEVICES as f64 / mean_cost;
    let stream: Vec<(f64, f64)> = (0..queries)
        .map(|i| (eps_set[i % eps_set.len()], i as f64 / offered_qps))
        .collect();

    // The seeded storm: transients and stragglers across the pool, plus
    // a pinned crash that permanently downs device 3 early in the run.
    // (Storm crashes are disabled so exactly one device is lost; the op
    // axis starts counting when the plan is armed, after warmup.)
    let storm = {
        let mut events = FaultPlan::storm(&StormConfig {
            seed: 1018,
            devices: DEVICES,
            horizon_ops: 2 * queries as u64,
            peak_rate: 0.15,
            crash_weight: 0.0,
            ..StormConfig::default()
        })
        .events()
        .to_vec();
        events.push(FaultEvent {
            device: DEVICES - 1,
            after_ops: 4,
            kind: FaultKind::Crash {
                heal_after_probes: u32::MAX,
            },
        });
        FaultPlan::new(events)
    };

    let mut rows = Vec::new();
    let mut goodput = [0.0f64; 2];
    let mut p99 = [0.0f64; 2];
    for (run, faults) in [(0usize, None), (1usize, Some(&storm))] {
        let service = SelfJoinService::new(
            DevicePool::titan_x(DEVICES),
            ServiceConfig {
                admission: AdmissionConfig {
                    slo: Duration::from_secs_f64(slo.as_secs_f64() * GUARD_BAND),
                    delay_factor: DELAY_FACTOR,
                    // One tenant offers the whole stream; the fair-share
                    // in-flight cap would turn a below-capacity run into
                    // artificial shedding.
                    tenant_max_inflight: usize::MAX,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let id = service.register_dataset("syn", data.clone());
        // Resident snapshots on every device and every ε's exact count
        // cached before any fault can fire.
        service.warm(id, &eps_set).expect("warm failed");
        service.reset_metrics();
        let retries_before = sj_obs::registry()
            .counter("sj_serve_retries_total", &[])
            .get();
        if let Some(plan) = faults {
            service.pool().inject_faults(plan);
        }

        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for &(eps, arrival) in &stream {
            let req = QueryRequest::new("survivor", id, eps).at(Duration::from_secs_f64(arrival));
            match service.submit(req) {
                Ok(ticket) => tickets.push((eps, ticket)),
                Err(ServeError::Overloaded { retry_after }) => {
                    assert!(retry_after > Duration::ZERO);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        let mut failed = 0u64;
        for (eps, ticket) in tickets {
            match ticket.wait() {
                Ok(out) => assert_eq!(
                    &out.table,
                    &reference[&eps.to_bits()],
                    "served answer diverged from a fresh join (eps {eps:.4})"
                ),
                // A fault surfacing after the retry budget (or past the
                // query's deadline) is a legitimate degraded outcome —
                // a wrong answer never is.
                Err(ServeError::Join(e)) if faults.is_some() => {
                    assert!(e.is_fault(), "non-fault join error under storm: {e}");
                    failed += 1;
                }
                Err(e) => panic!("query failed: {e}"),
            }
        }
        let retries = sj_obs::registry()
            .counter("sj_serve_retries_total", &[])
            .get()
            - retries_before;

        let m = service.metrics();
        assert_eq!(m.total.failed, failed, "metrics disagree on failures");
        goodput[run] = m.total.qps;
        p99[run] = m.total.latency.p99;
        rows.push(vec![
            if run == 0 {
                "fault-free"
            } else {
                "fault storm"
            }
            .to_string(),
            format!("{}", m.total.completed),
            format!("{failed}"),
            format!("{rejected}"),
            format!("{retries}"),
            format!("{:.1}", m.total.qps),
            format!("{:.2}", m.total.latency.p99 * 1e3),
        ]);

        if faults.is_some() {
            assert!(retries > 0, "the storm must surface serve-level retries");
            assert!(
                !service.pool().is_healthy(DEVICES - 1),
                "the crashed device must still be in probation"
            );
            let snapshot = service.pool().health_snapshot();
            println!(
                "  storm: {} faults planned, health at drain: {snapshot:?}",
                storm.len()
            );
        }
        assert!(
            p99[run] <= slo.as_secs_f64(),
            "completed p99 {:.2}ms broke the {:.2}ms SLO ({} run)",
            p99[run] * 1e3,
            slo.as_secs_f64() * 1e3,
            if run == 0 { "fault-free" } else { "storm" }
        );
    }

    emit_table(
        &args,
        "fault_recovery",
        &format!(
            "Serving through a 1-of-{DEVICES}-device crash + transient storm \
             (|D| = {n}, {queries} queries at {LOAD}x capacity = {:.1} offered QPS, \
             SLO = {:.2}ms modeled)",
            offered_qps,
            slo.as_secs_f64() * 1e3
        ),
        &[
            "run",
            "completed",
            "failed",
            "rejected",
            "retries",
            "goodput QPS",
            "p99 ms",
        ],
        &rows,
    );

    let ratio = goodput[1] / goodput[0].max(f64::MIN_POSITIVE);
    assert!(
        ratio >= GOODPUT_FLOOR,
        "goodput collapsed under the storm: {:.1} vs {:.1} fault-free QPS \
         ({:.0}% < {:.0}% floor)",
        goodput[1],
        goodput[0],
        ratio * 100.0,
        GOODPUT_FLOOR * 100.0
    );
    println!(
        "\nacceptance bar: storm goodput {:.1} QPS >= {:.0}% of fault-free {:.1} QPS, \
         p99 under SLO in both runs, all completed answers exact — passed",
        goodput[1],
        GOODPUT_FLOOR * 100.0,
        goodput[0]
    );
}
