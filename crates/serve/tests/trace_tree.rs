//! Serve-level trace test: every answered query's output renders one
//! stage tree — admission → queue → run → session → plan → device stages
//! → table — on both the wall and the modeled clock.
//!
//! Two services run at once on two threads. Each renders only its own
//! outputs, so neither takes a lock or sees the other's queries, and
//! each query carries its own retry count.

use sj_obs::{SpanRecord, Stage};
use sj_serve::{
    AdmissionConfig, DevicePool, QueryRequest, SelfJoinService, ServeOutput, ServiceConfig,
};
use std::collections::HashMap;
use std::time::Duration;

/// Serves `queries` queries on a warmed two-device service, with one
/// transient fault armed on device 0 when `fault` is set.
fn serve(seed: u64, queries: u64, fault: bool) -> Vec<ServeOutput> {
    use sim_gpu::{FaultEvent, FaultKind, FaultPlan};
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
    let id = service.register_dataset("demo", sj_datasets::synthetic::uniform(2, 900, seed));
    service.warm(id, &[2.0]).unwrap();
    if fault {
        service
            .pool()
            .inject_faults(&FaultPlan::new(vec![FaultEvent {
                device: 0,
                after_ops: 1,
                kind: FaultKind::Transient,
            }]));
    }
    let tickets: Vec<_> = (0..queries)
        .map(|i| {
            let tenant = if i % 2 == 0 { "alice" } else { "bob" };
            service
                .submit(QueryRequest::new(tenant, id, 2.0).at(Duration::from_millis(i)))
                .unwrap()
        })
        .collect();
    tickets.into_iter().map(|t| t.wait().unwrap()).collect()
}

/// Renders one service's outputs and checks the forest.
fn check_forest(outputs: &[ServeOutput]) {
    let forest: Vec<Stage> = outputs.iter().map(ServeOutput::stages).collect();
    let records = sj_obs::render(&forest);
    let stats = sj_obs::validate(&records).expect("well-formed trace");
    assert_eq!(stats.roots, outputs.len(), "one root per answered query");

    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for r in &records {
        children.entry(r.parent).or_default().push(r);
    }
    let roots = &children[&0];
    for (root, out) in roots.iter().zip(outputs) {
        assert_eq!(root.name, "serve.query");
        let (root_start, _) = root.modeled_ns.expect("root carries the modeled latency");
        assert_eq!(
            root_start,
            (out.completion - out.latency).as_nanos() as u64,
            "the root starts at the arrival"
        );

        // Every stage of the pipeline appears somewhere under the root.
        let mut names = Vec::new();
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            for k in children.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                names.push(k.name);
                stack.push(k.id);
            }
        }
        for expected in [
            "serve.admission",
            "serve.queue",
            "serve.run",
            "session.query",
            "plan.execute",
            "gpu.kernels",
            "table",
        ] {
            assert!(
                names.contains(&expected),
                "missing {expected} under serve.query (got {names:?})"
            );
        }

        // Queue and run abut on the virtual timeline: the wait ends where
        // execution starts.
        let direct = &children[&root.id];
        let queue = direct.iter().find(|r| r.name == "serve.queue").unwrap();
        let run = direct.iter().find(|r| r.name == "serve.run").unwrap();
        let (queue_start, queue_dur) = queue.modeled_ns.expect("queue modeled interval");
        let (run_start, run_dur) = run.modeled_ns.expect("run modeled interval");
        assert!(run_dur > 0, "the run measures the modeled join cost");
        assert!(queue_start >= root_start.saturating_sub(2));
        assert!(
            (queue_start + queue_dur).abs_diff(run_start) <= 2,
            "queue wait must end at the virtual start ({queue_start} + {queue_dur} vs {run_start})"
        );
        assert!(queue.wall_start_ns <= run.wall_start_ns);
        assert_eq!(
            root.thread, out.device as u64,
            "a query's lane is its device"
        );
    }

    // The Chrome export of the forest parses with the shared reader.
    let chrome = sj_obs::chrome_trace(&records);
    let doc = sj_obs::json::parse(&chrome).expect("chrome trace parses");
    let events = doc.get("traceEvents").expect("traceEvents array");
    assert!(
        events.items().len() > records.len(),
        "wall + modeled events"
    );
}

#[test]
fn admitted_queries_form_connected_span_trees() {
    let faulty = std::thread::spawn(|| serve(7, 6, true));
    let healthy = std::thread::spawn(|| serve(8, 4, false));
    let faulty = faulty.join().unwrap();
    let healthy = healthy.join().unwrap();
    assert_eq!((faulty.len(), healthy.len()), (6, 4));
    check_forest(&faulty);
    check_forest(&healthy);
    // Retry counts are the outputs' own: the armed transient shows up in
    // the service it was armed on and nowhere else.
    let attempts = |outs: &[ServeOutput]| outs.iter().map(|o| o.attempts).sum::<u32>();
    assert_eq!(attempts(&faulty), 1);
    assert_eq!(attempts(&healthy), 0);
}
