//! Property tests for the observability primitives: span-tree
//! well-formedness under arbitrary nesting.

use proptest::collection::vec;
use proptest::prelude::*;
use sj_obs::trace::{self, Span};

proptest! {
    #[test]
    fn span_trees_stay_well_formed(ops in vec(0u8..3, 1..120)) {
        // Serialize: tracing state is process-global.
        let _guard = TRACE_GATE.lock().unwrap();
        trace::set_enabled(true);
        trace::clear();
        // Interpret the op stream as push/pop/leaf against a guard stack
        // — arbitrary nesting shapes, always balanced by scope exit.
        {
            let mut stack: Vec<sj_obs::SpanGuard> = Vec::new();
            for op in &ops {
                match op {
                    0 => stack.push(Span::enter("push")),
                    1 => {
                        stack.pop();
                    }
                    _ => {
                        let mut leaf = Span::enter("leaf");
                        leaf.label("k", 1u64);
                    }
                }
            }
        }
        trace::set_enabled(false);
        let records = trace::drain();
        let stats = trace::validate(&records).expect("arbitrary nesting stays well-formed");
        prop_assert_eq!(stats.spans, records.len());
        prop_assert!(stats.spans >= ops.iter().filter(|&&o| o == 2).count());
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

static TRACE_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
