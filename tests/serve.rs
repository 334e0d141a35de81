//! Service-level properties of `sj-serve`: whatever admission, fair-share
//! scheduling and snapshot eviction do to *when and where* a query runs,
//! every completed answer must stay pair-for-pair identical to a fresh
//! join, and the control loops must respect their configured bounds.

use gpu_self_join::join::GridBuildError;
use gpu_self_join::prelude::*;
use gpu_self_join::serve::AdmissionConfig;
use gpu_self_join::{GpuSelfJoin, SelfJoinError, ServeError};
use std::time::Duration;

fn lenient_config() -> ServiceConfig {
    ServiceConfig {
        admission: AdmissionConfig {
            slo: Duration::from_secs(60),
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Multi-tenant, multi-dataset traffic across a pool: every completed
/// answer equals the fresh join at its (dataset, ε).
#[test]
fn mixed_tenant_traffic_is_exact() {
    let service = SelfJoinService::new(DevicePool::titan_x(2), lenient_config());
    let data_a = uniform(2, 900, 501);
    let data_b = clustered(2, 700, 3, 2.0, 0.3, 502);
    let id_a = service.register_dataset("syn", data_a.clone());
    let id_b = service.register_dataset("clustered", data_b.clone());
    let join = GpuSelfJoin::default_device();
    let eps_a = [2.0, 1.5, 1.8];
    let eps_b = [1.0, 0.8];

    let mut expected = Vec::new();
    let mut reqs = Vec::new();
    for (i, &eps) in eps_a.iter().enumerate() {
        expected.push(join.run(&data_a, eps).unwrap().table);
        reqs.push(
            QueryRequest::new(["alice", "bob"][i % 2], id_a, eps)
                .at(Duration::from_micros(i as u64)),
        );
    }
    for (i, &eps) in eps_b.iter().enumerate() {
        expected.push(join.run(&data_b, eps).unwrap().table);
        reqs.push(QueryRequest::new("carol", id_b, eps).at(Duration::from_micros(i as u64)));
    }
    let outcomes = service.submit_batch(reqs);
    for (outcome, want) in outcomes.into_iter().zip(&expected) {
        let out = outcome
            .expect("lenient SLO admits everything")
            .wait()
            .unwrap();
        assert_eq!(&out.table, want);
    }
    let m = service.metrics();
    assert_eq!(m.total.completed, 5);
    assert_eq!(m.total.rejected, 0);
    assert_eq!(m.tenants.len(), 3);
}

/// A snapshot budget below the working set forces evictions, the service
/// keeps the ledger under budget, and answers stay exact through the
/// evict/re-upload churn.
#[test]
fn snapshot_budget_evicts_and_stays_exact() {
    // First measure an unbudgeted working set: two datasets resident on
    // one device.
    let probe_pool = DevicePool::titan_x(1);
    let data_a = uniform(2, 1200, 503);
    let data_b = uniform(2, 1200, 504);
    let full = {
        let sa = SelfJoinSession::new(data_a.clone(), probe_pool.clone());
        let sb = SelfJoinSession::new(data_b.clone(), probe_pool.clone());
        sa.query(2.0).unwrap();
        sb.query(2.0).unwrap();
        probe_pool.memory_ledger().total()
    };
    assert!(full > 0);

    // Budget fits one-and-a-half snapshots: alternating datasets must
    // evict each other.
    let budget = full * 3 / 4;
    let pool = DevicePool::titan_x(1);
    pool.memory_ledger().set_budget(Some(budget));
    let service = SelfJoinService::new(pool.clone(), lenient_config());
    let id_a = service.register_dataset("a", data_a.clone());
    let id_b = service.register_dataset("b", data_b.clone());
    let join = GpuSelfJoin::default_device();
    let want_a = join.run(&data_a, 2.0).unwrap().table;
    let want_b = join.run(&data_b, 2.0).unwrap().table;

    for round in 0..3 {
        for (id, want) in [(id_a, &want_a), (id_b, &want_b)] {
            let out = service
                .submit(QueryRequest::new("t", id, 2.0).at(Duration::from_millis(round)))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(&out.table, want, "round {round}");
            assert!(
                pool.memory_ledger().total() <= budget,
                "ledger over budget in round {round}"
            );
        }
    }
    let m = service.metrics();
    assert!(m.snapshot_evictions > 0, "budget never triggered eviction");
    assert!(m.snapshot_reuploads > 0, "evicted snapshots re-uploaded");
    assert!(m.resident_bytes <= budget);
    assert_eq!(m.snapshot_budget, Some(budget));
}

/// Under a burst far beyond the SLO budget, admission sheds load with a
/// positive retry hint, everything admitted completes within the delay
/// window, and the baseline (admission off) admits the identical burst
/// whole.
#[test]
fn overload_is_shed_and_the_rest_meets_the_window() {
    let data = uniform(2, 1500, 505);
    let burst = 30usize;
    let mk = |enabled: bool, slo_us: u64| {
        let service = SelfJoinService::new(
            DevicePool::titan_x(1),
            ServiceConfig {
                admission: AdmissionConfig {
                    enabled,
                    slo: Duration::from_micros(slo_us),
                    delay_factor: 1.5,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let id = service.register_dataset("d", data.clone());
        // Warm, so admission prices each repeat of the served ε at what
        // serving it cost.
        service.warm(id, &[2.5]).unwrap();
        service.reset_metrics();
        (service, id)
    };

    // Tight SLO, about two queries' modeled cost (~45 µs each): part of
    // the burst must shed.
    let (service, id) = mk(true, 100);
    let window =
        service.config().admission.slo.as_secs_f64() * service.config().admission.delay_factor;
    let reqs: Vec<_> = (0..burst)
        .map(|_| QueryRequest::new("flood", id, 2.5).at(Duration::ZERO))
        .collect();
    let outcomes = service.submit_batch(reqs);
    let mut admitted = 0;
    let mut rejected = 0;
    for outcome in outcomes {
        match outcome {
            Ok(ticket) => {
                admitted += 1;
                let out = ticket.wait().unwrap();
                // The delay window bounds the *projected* completion; the
                // realized one gets slack for single-query projection
                // error.
                assert!(
                    out.latency.as_secs_f64() <= window * 1.5,
                    "latency {:?} far beyond the window {window}",
                    out.latency
                );
            }
            Err(ServeError::Overloaded { retry_after }) => {
                rejected += 1;
                assert!(retry_after > Duration::ZERO);
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(admitted > 0, "some of the burst must fit the SLO budget");
    assert!(rejected > 0, "a 30-deep burst cannot fit a ~1-query SLO");

    // Admission off: the same burst is admitted whole.
    let (baseline, id) = mk(false, 100);
    let reqs: Vec<_> = (0..burst)
        .map(|_| QueryRequest::new("flood", id, 2.5).at(Duration::ZERO))
        .collect();
    for outcome in baseline.submit_batch(reqs) {
        outcome.expect("baseline admits everything").wait().unwrap();
    }
    assert_eq!(baseline.metrics().total.completed, burst as u64);
}

/// The tenant in-flight cap rejects a single tenant's flood without
/// touching other tenants.
#[test]
fn tenant_inflight_cap_is_per_tenant() {
    let data = uniform(2, 600, 506);
    let service = SelfJoinService::new(
        DevicePool::titan_x(1),
        ServiceConfig {
            admission: AdmissionConfig {
                slo: Duration::from_secs(60),
                tenant_max_inflight: 3,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    let id = service.register_dataset("d", data);
    let mut reqs: Vec<_> = (0..6)
        .map(|_| QueryRequest::new("flood", id, 2.0).at(Duration::ZERO))
        .collect();
    reqs.push(QueryRequest::new("light", id, 2.0).at(Duration::ZERO));
    let outcomes = service.submit_batch(reqs);
    let flood_rejected = outcomes[..6]
        .iter()
        .filter(|o| matches!(o, Err(ServeError::Overloaded { .. })))
        .count();
    assert!(flood_rejected >= 3, "cap 3 must shed the deep flood");
    assert!(outcomes[6].is_ok(), "the light tenant is untouched");
    for ticket in outcomes.into_iter().flatten() {
        ticket.wait().unwrap();
    }
}

/// Garbage ε is refused at submit with the grid's invalid-ε error —
/// never a panic in the submit path, never an admitted query that fails
/// in the worker — even with result-size estimates already cached.
#[test]
fn invalid_epsilon_errors_cleanly() {
    let service = SelfJoinService::new(DevicePool::titan_x(1), lenient_config());
    let id = service.register_dataset("d", uniform(2, 300, 508));
    // Cache two estimates so a resident generation serves nearby ε.
    service.warm(id, &[2.0, 1.5]).unwrap();
    for bad in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
        let outcome = service.submit(QueryRequest::new("t", id, bad)).map(|_| ());
        assert!(
            matches!(
                outcome,
                Err(ServeError::Join(SelfJoinError::Grid(
                    GridBuildError::InvalidEpsilon(_)
                )))
            ),
            "eps {bad}: expected an invalid-ε refusal, got {outcome:?}"
        );
    }
    let m = service.metrics();
    assert_eq!(m.total.admitted, 0);
    assert_eq!(m.total.failed, 0);
}

/// Metrics JSON exports what the report consumers need.
#[test]
fn metrics_json_has_the_service_counters() {
    let service = SelfJoinService::new(DevicePool::titan_x(1), lenient_config());
    let id = service.register_dataset("d", uniform(2, 400, 507));
    service
        .submit(QueryRequest::new("alice", id, 2.0))
        .unwrap()
        .wait()
        .unwrap();
    let json = service.metrics().to_json();
    for key in [
        "\"slo_secs\"",
        "\"snapshot_evictions\"",
        "\"resident_bytes\"",
        "\"qps\"",
        "\"p99_secs\"",
        "\"tenant\": \"alice\"",
        "\"_total\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
