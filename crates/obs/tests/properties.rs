//! Property tests for the observability primitives: rendered stage
//! forests stay well-formed under arbitrary nesting.

use proptest::collection::vec;
use proptest::prelude::*;
use sj_obs::trace::{self, Stage};
use std::time::Duration;

/// Interprets an op stream as open/close/leaf/side-by-side against a
/// stack of open stages under one root — arbitrary nesting shapes, all
/// closed at the end.
fn build(ops: &[u8]) -> (Stage, usize) {
    let stage = |name, i: usize| {
        let d = Duration::from_nanos(i as u64 + 1);
        Stage::new(name, d, d).label("k", 1u64)
    };
    let mut stack = vec![stage("root", 0)];
    let mut count = 1;
    for (i, op) in ops.iter().enumerate() {
        match op {
            0 => {
                stack.push(stage("push", i));
                count += 1;
            }
            1 if stack.len() > 1 => {
                let done = stack.pop().unwrap();
                let top = stack.pop().unwrap().child(done);
                stack.push(top);
            }
            2 => {
                let top = stack.pop().unwrap().child(stage("leaf", i));
                stack.push(top);
                count += 1;
            }
            3 => {
                let top = stack.pop().unwrap().side_by_side();
                stack.push(top);
            }
            _ => {}
        }
    }
    while stack.len() > 1 {
        let done = stack.pop().unwrap();
        let top = stack.pop().unwrap().child(done);
        stack.push(top);
    }
    (stack.pop().unwrap(), count)
}

proptest! {
    #[test]
    fn span_trees_stay_well_formed(ops in vec(0u8..4, 1..120), roots in 1usize..4) {
        let (tree, count) = build(&ops);
        let forest = vec![tree; roots];
        let records = trace::render(&forest);
        let stats = trace::validate(&records).expect("arbitrary nesting stays well-formed");
        prop_assert_eq!(stats.spans, count * roots);
        prop_assert_eq!(stats.roots, roots);
        // Ids follow render order.
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64 + 1);
        }
        // Every exported trace event keeps a live parent: re-check via
        // the Chrome export round-trip.
        let doc = sj_obs::json::parse(&trace::chrome_trace(&records)).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        let ids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(sj_obs::Json::as_str) == Some("X"))
            .map(|e| e.get("args").unwrap().get("id").unwrap().as_f64().unwrap())
            .collect();
        for e in events {
            if e.get("ph").and_then(sj_obs::Json::as_str) != Some("X") {
                continue;
            }
            let parent = e.get("args").unwrap().get("parent").unwrap().as_f64().unwrap();
            prop_assert!(
                parent == 0.0 || ids.contains(&parent),
                "exported event has dead parent {}", parent
            );
        }
    }
}
