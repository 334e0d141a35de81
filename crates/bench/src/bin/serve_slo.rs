//! Serving under overload: admission control vs admit-everything.
//!
//! An open-loop, mixed-tenant query stream is offered to [`sj_serve`]'s
//! `SelfJoinService` at ~2× the pool's modeled capacity, on 1/2/4
//! simulated TITAN X devices. Three tenants share two datasets (two
//! astronomy tenants on the SDSS surrogate, one on uniform Syn) with
//! in-band ε cycles, so resident sessions serve every query without
//! rebuilds and the *only* variable is what the front door does with the
//! backlog:
//!
//! * **baseline** — admission disabled: every query is queued. Under a
//!   sustained 2× overload the queue grows linearly and tail latency
//!   collapses to the stream length (p99 ≥ 3× the SLO is asserted — the
//!   collapse the controller exists to prevent).
//! * **admission** — projected completion (scheduler backlog + the
//!   session's count-priced cost projection) is checked against the SLO
//!   with a 20% guard band; queries that would break it are rejected
//!   with `Overloaded { retry_after }`. The assertion: **p99 of completed
//!   queries stays under the SLO**, with the shed fraction reported.
//!
//! Latencies are virtual (modeled) seconds — identical semantics to the
//! admission controller's own arithmetic. Every completed answer is
//! checked pair-for-pair against a fresh `GpuSelfJoin` run at the same ε.
//! All tables land in `bench_results/serve_slo.json`.

use grid_join::{GpuSelfJoin, NeighborTable, SelfJoinSession};
use sim_gpu::DevicePool;
use sj_bench::cli::Args;
use sj_bench::eps_for_realized;
use sj_bench::table::{emit_table, fmt_speedup};
use sj_datasets::{sdss, synthetic, Dataset};
use sj_obs::audit::AuditReport;
use sj_serve::{AdmissionConfig, QueryRequest, SelfJoinService, ServeError, ServiceConfig};
use std::collections::HashMap;
use std::time::Duration;

/// In-band ε cycle per tenant (fractions of the dataset's base ε; the
/// session's default reuse floor is 0.5, so everything ≥ 0.55 reuses).
const CYCLE: [f64; 4] = [1.0, 0.85, 0.7, 0.55];

/// Tenant mix: name + dataset index. Two astronomy tenants share the
/// SDSS session; the sky-survey tenant drives the uniform surrogate.
const TENANTS: [(&str, usize); 3] = [("astro-a", 0), ("sky", 1), ("astro-b", 0)];

/// Offered load as a multiple of modeled pool capacity.
const OVERLOAD: f64 = 2.0;

/// SLO as a multiple of the mean projected query cost (a queue depth
/// allowance of ~8 per device).
const SLO_FACTOR: f64 = 8.0;

/// The admission controller aims under the SLO so projection error (a
/// placement reserves the projected cost; the device's horizon then moves
/// by the measured one) cannot push completed tails over it: the internal
/// target is `GUARD_BAND × SLO` and the delay window ends at
/// `GUARD_BAND × DELAY_FACTOR × SLO` = 0.78 × SLO.
const GUARD_BAND: f64 = 0.65;
const DELAY_FACTOR: f64 = 1.2;

fn main() {
    let mut args = Args::parse();
    // This binary is a perf tracker: always persist its tables.
    args.json = true;

    let floor = if args.quick { 5_000 } else { 16_000 };
    let n = ((2_000_000.0 * args.scale) as usize).clamp(floor, 2_000_000);
    let datasets: Vec<(&str, Dataset)> = vec![
        ("SDSS-2M", sdss::sdss2d(n, 305)),
        ("syn-2M", synthetic::uniform(2, n, 42)),
    ];
    let bases: Vec<f64> = datasets
        .iter()
        .map(|(_, data)| eps_for_realized(data, 16.0))
        .collect();
    // Distinct ε set per dataset, largest first (warm order).
    let eps_sets: Vec<Vec<f64>> = bases
        .iter()
        .map(|base| CYCLE.iter().map(|f| base * f).collect())
        .collect();

    // Fresh-join reference tables for the exactness check, one per
    // (dataset, ε).
    let join = GpuSelfJoin::default_device();
    let mut reference: HashMap<(usize, u64), NeighborTable> = HashMap::new();
    for (d, (_, data)) in datasets.iter().enumerate() {
        for &eps in &eps_sets[d] {
            let out = join.run(data, eps).expect("reference join failed");
            reference.insert((d, eps.to_bits()), out.table);
        }
    }

    // Calibration pass: a throwaway resident session per dataset serves
    // each ε twice — the second pass is the steady state the stream will
    // run in (resident snapshot, cached exact estimate) and its measured
    // modeled cost defines the pool's capacity, hence the SLO and the
    // offered overload.
    let mean_cost = {
        let mut total = 0.0;
        let mut count = 0usize;
        for (d, (_, data)) in datasets.iter().enumerate() {
            let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1));
            for &eps in &eps_sets[d] {
                session.query(eps).expect("calibration query failed");
            }
            for &eps in &eps_sets[d] {
                let out = session.query(eps).expect("calibration query failed");
                total += out.report.modeled_total.as_secs_f64();
                count += 1;
            }
        }
        total / count as f64
    };
    let slo = Duration::from_secs_f64(SLO_FACTOR * mean_cost);

    let mut rows = Vec::new();
    // Admission's (projected, measured) pair of every completed query,
    // audited after the sweep.
    let mut audit_pairs = Vec::new();
    // The first traced run's spans, exported after the sweep.
    let mut trace_records: Option<Vec<sj_obs::SpanRecord>> = None;
    for devices in [1usize, 2, 4] {
        let queries = (80 * devices).max(160);
        let offered_qps = OVERLOAD * devices as f64 / mean_cost;
        let stream: Vec<(usize, usize, f64, f64)> = (0..queries)
            .map(|i| {
                let (_, dataset) = TENANTS[i % TENANTS.len()];
                let eps = bases[dataset] * CYCLE[i % CYCLE.len()];
                (i % TENANTS.len(), dataset, eps, i as f64 / offered_qps)
            })
            .collect();

        let mut measured: Vec<(bool, f64, f64, u64)> = Vec::new(); // (admission, p99, rejected_frac, delayed)
        for admission_on in [false, true] {
            // Trace only the admission-controlled stream: that is the
            // serving path the span taxonomy documents, and keeping the
            // baseline untraced keeps the ring buffers comfortably
            // within one run's spans.
            let tracing = args.trace && admission_on;
            if tracing {
                sj_obs::trace::clear();
                sj_obs::set_enabled(true);
            }
            let service = SelfJoinService::new(
                DevicePool::titan_x(devices),
                ServiceConfig {
                    admission: AdmissionConfig {
                        enabled: admission_on,
                        slo: Duration::from_secs_f64(slo.as_secs_f64() * GUARD_BAND),
                        delay_factor: DELAY_FACTOR,
                        ..AdmissionConfig::default()
                    },
                    ..ServiceConfig::default()
                },
            );
            let ids: Vec<_> = datasets
                .iter()
                .map(|(name, data)| service.register_dataset(*name, data.clone()))
                .collect();
            for (d, set) in eps_sets.iter().enumerate() {
                service.warm(ids[d], set).expect("warm failed");
            }
            service.reset_metrics();

            let mut tickets = Vec::new();
            for &(tenant, dataset, eps, arrival) in &stream {
                let req = QueryRequest::new(TENANTS[tenant].0, ids[dataset], eps)
                    .at(Duration::from_secs_f64(arrival));
                match service.submit(req) {
                    Ok(ticket) => tickets.push((dataset, eps, ticket)),
                    Err(ServeError::Overloaded { .. }) => {
                        assert!(admission_on, "baseline must admit everything");
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            for (dataset, eps, ticket) in tickets {
                let out = ticket.wait().expect("admitted query failed");
                assert_eq!(
                    &out.table,
                    &reference[&(dataset, eps.to_bits())],
                    "served answer diverged from a fresh join (eps {eps:.4})"
                );
                audit_pairs.push((out.projected, out.report.modeled_total));
            }
            let m = service.metrics();
            assert_eq!(m.total.failed, 0);
            if tracing {
                sj_obs::set_enabled(false);
                let records = sj_obs::drain();
                let stats = sj_obs::validate(&records).expect("trace must be well-formed");
                let roots = records.iter().filter(|r| r.name == "serve.query").count() as u64;
                assert_eq!(
                    roots, m.total.admitted,
                    "one serve.query root per admitted query"
                );
                println!(
                    "  trace[{devices} dev]: {} spans, {} roots, depth {}, {} threads",
                    stats.spans, stats.roots, stats.max_depth, stats.threads
                );
                if trace_records.is_none() {
                    trace_records = Some(records);
                }
            }
            let rejected_frac = m.total.rejected as f64 / m.total.submitted.max(1) as f64;
            measured.push((
                admission_on,
                m.total.latency.p99,
                rejected_frac,
                m.total.delayed,
            ));
        }

        let (_, p99_base, _, _) = measured[0];
        let (_, p99_adm, rejected_frac, delayed) = measured[1];
        let slo_secs = slo.as_secs_f64();
        rows.push(vec![
            format!("{devices}"),
            format!("{queries}"),
            format!("{offered_qps:.1}"),
            format!("{:.2}", slo_secs * 1e3),
            format!("{:.2}", p99_base * 1e3),
            format!("{:.2}", p99_adm * 1e3),
            fmt_speedup(p99_base / slo_secs),
            format!("{:.0}%", rejected_frac * 100.0),
            format!("{delayed}"),
        ]);

        assert!(
            p99_adm <= slo_secs,
            "admission p99 {:.1}ms broke the {:.1}ms SLO at {devices} device(s)",
            p99_adm * 1e3,
            slo_secs * 1e3
        );
        assert!(
            p99_base >= 3.0 * slo_secs,
            "baseline p99 {:.1}ms is under 3x the {:.1}ms SLO at {devices} device(s) — \
             the offered load is not an overload",
            p99_base * 1e3,
            slo_secs * 1e3
        );
        assert!(
            rejected_frac > 0.0,
            "admission survived a 2x overload without shedding — implausible"
        );
    }

    emit_table(
        &args,
        "serve_slo",
        &format!(
            "Serving under 2x overload: admission control vs admit-everything \
             (|D| = {n} per dataset, 3 tenants, SLO = {:.1}ms modeled)",
            slo.as_secs_f64() * 1e3
        ),
        &[
            "devices",
            "queries",
            "offered QPS",
            "SLO ms",
            "baseline p99 ms",
            "admission p99 ms",
            "baseline p99 / SLO",
            "rejected",
            "delayed",
        ],
        &rows,
    );

    if let Some(records) = trace_records {
        let dir = sj_bench::output_dir();
        let full = sj_obs::chrome_trace(&records);
        sj_obs::json::parse(&full).expect("chrome trace must be valid JSON");
        let full_path = dir.join("serve_slo_trace.json");
        std::fs::write(&full_path, &full).expect("write trace");
        println!(
            "\ntrace: {} ({} spans) — load in chrome://tracing",
            full_path.display(),
            records.len()
        );
        // A small committed sample: the complete span trees of the first
        // few admitted queries, so the repo carries a loadable example
        // without megabytes of trace. A `--quick` smoke run validates it
        // but leaves the committed file alone.
        let sample = sample_trees(&records, 3);
        sj_obs::validate(&sample).expect("sample trees stay connected");
        let sample_json = sj_obs::chrome_trace(&sample);
        sj_obs::json::parse(&sample_json).expect("trace sample must be valid JSON");
        if !args.quick {
            let sample_path = dir.join("trace_sample.json");
            std::fs::write(&sample_path, &sample_json).expect("write trace sample");
            println!("sample: {} ({} spans)", sample_path.display(), sample.len());
        }
    }

    // Calibration audit: admission's projected cost vs the measured
    // modeled cost of every executed query in this run. Every query
    // repeats an ε the warm pass served, so it is priced at what serving
    // that ε cost: on the geometric mean it must land within ±5%.
    let audit = AuditReport::of("admission", audit_pairs).expect("admitted queries were audited");
    println!("\n{}", audit.summary());
    assert!(
        (0.95..=1.05).contains(&audit.geo_mean_ratio()),
        "admission audit geo-mean x{:.3} is outside [0.95, 1.05]",
        audit.geo_mean_ratio()
    );

    println!(
        "\nacceptance bar: admission p99 <= SLO while baseline p99 >= 3x SLO, \
         all completed answers exact, admission audit geo-mean within ±5% — passed"
    );
}

/// The complete span trees of the first `k` `serve.query` roots (in
/// record order): each record whose ancestor chain reaches one of them.
fn sample_trees(records: &[sj_obs::SpanRecord], k: usize) -> Vec<sj_obs::SpanRecord> {
    use std::collections::{HashMap, HashSet};
    let parent: HashMap<u64, u64> = records.iter().map(|r| (r.id, r.parent)).collect();
    let roots: HashSet<u64> = records
        .iter()
        .filter(|r| r.name == "serve.query")
        .take(k)
        .map(|r| r.id)
        .collect();
    records
        .iter()
        .filter(|r| {
            let mut cur = r.id;
            loop {
                if roots.contains(&cur) {
                    return true;
                }
                match parent.get(&cur) {
                    Some(&p) if p != 0 => cur = p,
                    _ => return false,
                }
            }
        })
        .cloned()
        .collect()
}
