//! Well-formedness of the `--trace` export: the document a real
//! experiment run produces must parse as JSON (chrome://tracing rejects
//! anything else silently) and carry the span structure the acceptance
//! contract names — experiment, round and rank-reduction spans.
//!
//! The validator is the workspace's JSON parser (`ksa_obs::json`),
//! which accepts exactly the RFC 8259 grammar, so a stray comma or an
//! unescaped quote in a span name fails the test the same way it would
//! fail the trace viewer.

/// Asserts `s` is exactly one JSON document.
fn assert_valid_json(s: &str) {
    if let Err(e) = ksa_obs::json::parse(s.as_bytes()) {
        panic!("{e}\n---\n{s}");
    }
}

#[test]
fn trace_of_a_real_run_is_wellformed_trace_event_json() {
    // Each test traces its own scope, so concurrent tests stay out.
    let scope = ksa_obs::Scope::traced();
    let results = scope.enter(|| ksa_bench::run_experiments(&["rounds"]));
    let doc = scope.trace();
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
    // A traced scope that recorded nothing (or obs compiled out) still
    // exports a valid, loadable document.
    let doc = ksa_obs::Scope::traced().trace();
    assert_valid_json(&doc);
    assert!(
        !doc.contains("\"ph\": \"X\""),
        "no spans were opened:\n{doc}"
    );
}
