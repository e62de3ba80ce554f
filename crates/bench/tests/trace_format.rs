//! Well-formedness of the `--trace` export: the document a real
//! experiment run produces must parse as JSON (chrome://tracing rejects
//! anything else silently) and carry the span structure the acceptance
//! contract names — experiment, round and rank-reduction spans.
//!
//! The validator is the workspace's JSON parser (`ksa_obs::json`),
//! which accepts exactly the RFC 8259 grammar, so a stray comma or an
//! unescaped quote in a span name fails the test the same way it would
//! fail the trace viewer.

use std::sync::{Mutex, MutexGuard};

/// Asserts `s` is exactly one JSON document.
fn assert_valid_json(s: &str) {
    if let Err(e) = ksa_obs::json::parse(s.as_bytes()) {
        panic!("{e}\n---\n{s}");
    }
}

/// The trace buffer is process-global: `trace_stop` in one test empties
/// the trace another test is still recording, so the tests take turns.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`TRACE_LOCK`], surviving a poisoned lock from a failed test.
fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn trace_of_a_real_run_is_wellformed_trace_event_json() {
    let _guard = trace_lock();
    ksa_obs::trace_start();
    let results = ksa_bench::run_experiments(&["rounds"]);
    let doc = ksa_obs::trace_stop();
    assert!(results[0].0.as_ref().is_ok_and(|o| o.passed));

    assert_valid_json(&doc);
    assert!(doc.contains("\"traceEvents\""), "missing traceEvents array");
    if cfg!(feature = "obs") {
        // The acceptance contract's three span layers, all exercised by
        // the rounds experiment.
        for needle in [
            "\"cat\": \"experiment\"",
            "\"name\": \"round\"",
            "\"name\": \"rank_reduce\"",
        ] {
            assert!(doc.contains(needle), "trace lacks {needle}:\n{doc}");
        }
    }
}

#[test]
fn empty_trace_is_wellformed_too() {
    // Without trace_start (or with obs compiled out) the export is still
    // a valid, loadable document.
    let _guard = trace_lock();
    assert_valid_json(&ksa_obs::trace_stop());
}
