//! End-to-end tests against an in-process server: the happy paths, the
//! cache byte-identity guarantee, deadlines, overload shedding, and
//! mid-stream disconnects.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use ksa_server::client;
use ksa_server::framing::write_frame;
use ksa_server::json::{parse, Value};
use ksa_server::server::{start, Config, Handle};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksa-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn(name: &str, queue_cap: usize, workers: usize) -> (Handle, PathBuf) {
    let dir = scratch(name);
    let handle = start(Config {
        socket: dir.join("sock"),
        cache_dir: dir.join("cache"),
        queue_cap,
        workers,
    })
    .unwrap();
    (handle, dir)
}

fn terminal(frames: &[Vec<u8>]) -> &[u8] {
    frames.last().expect("at least one response frame")
}

fn event_of(frame: &[u8]) -> String {
    parse(frame)
        .unwrap()
        .get("event")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn ping_and_shutdown() {
    let (handle, dir) = spawn("ping", 8, 1);
    let frames = client::request(handle.socket(), br#"{"query":"ping"}"#).unwrap();
    assert_eq!(
        frames,
        vec![br#"{"event":"result","query":"ping"}"#.to_vec()]
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn solv_cold_then_cached_byte_identical() {
    let (handle, dir) = spawn("solv-cache", 8, 1);
    let req = br#"{"query":"solv","model":"ring{n=3}","k_max":3}"#;
    let cold = client::request(handle.socket(), req).unwrap();
    assert!(
        cold.len() > 1,
        "cold run streams progress before the result"
    );
    for frame in &cold[..cold.len() - 1] {
        assert_eq!(event_of(frame), "progress");
    }
    assert_eq!(event_of(terminal(&cold)), "result");

    let cached = client::request(handle.socket(), req).unwrap();
    assert_eq!(
        cached.len(),
        1,
        "cache hits replay the result with no progress"
    );
    assert_eq!(
        terminal(&cold),
        terminal(&cached),
        "cold and cached results are byte-identical"
    );

    // Bypassing the cache recomputes, and the bytes still match.
    let no_cache = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":3,"no_cache":true}"#,
    )
    .unwrap();
    assert_eq!(terminal(&cold), terminal(&no_cache));

    // Sanity on the payload itself.
    let result = parse(terminal(&cold)).unwrap();
    assert_eq!(
        result.get("model").and_then(Value::as_str),
        Some("ring{n=3}")
    );
    let Some(Value::Arr(verdicts)) = result.get("verdicts") else {
        panic!("verdicts array");
    };
    assert_eq!(verdicts.len(), 3);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rounds_cold_then_cached_byte_identical() {
    let (handle, dir) = spawn("rounds-cache", 8, 1);
    let req = br#"{"query":"rounds","model":"ring{n=3}","value_max":1,"rounds":2}"#;
    let cold = client::request(handle.socket(), req).unwrap();
    assert_eq!(event_of(terminal(&cold)), "result");
    let cached = client::request(handle.socket(), req).unwrap();
    assert_eq!(terminal(&cold), terminal(&cached));
    let result = parse(terminal(&cold)).unwrap();
    assert_eq!(
        result.get("consistent").and_then(Value::as_bool),
        Some(true)
    );
    let Some(Value::Arr(per_round)) = result.get("per_round") else {
        panic!("per_round array");
    };
    assert_eq!(per_round.len(), 2);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_requests_get_structured_errors() {
    let (handle, dir) = spawn("bad-req", 8, 1);
    for (payload, expect_kind) in [
        (&br#"not json at all"#[..], "bad_request"),
        (br#"{"query":"frobnicate"}"#, "bad_request"),
        (
            br#"{"query":"solv","model":"ring{n=3}","k_max":0}"#,
            "bad_request",
        ),
        (
            br#"{"query":"solv","model":"no such model","k_max":2}"#,
            "bad_request",
        ),
    ] {
        let frames = client::request(handle.socket(), payload).unwrap();
        assert_eq!(frames.len(), 1);
        let v = parse(terminal(&frames)).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("kind").and_then(Value::as_str),
            Some(expect_kind),
            "payload: {}",
            String::from_utf8_lossy(payload)
        );
    }
    // The server is still healthy after all of that.
    let frames = client::request(handle.socket(), br#"{"query":"ping"}"#).unwrap();
    assert_eq!(event_of(terminal(&frames)), "result");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn expired_deadline_trips_deterministically() {
    let (handle, dir) = spawn("deadline", 8, 1);
    // deadline_ms 0 is already past when the token is created, so the
    // very first checkpoint fires regardless of machine speed.
    let frames = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":3,"deadline_ms":0}"#,
    )
    .unwrap();
    let v = parse(terminal(&frames)).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("deadline"));
    // A deadline failure never poisons the cache: the same query
    // without a deadline computes fresh and succeeds.
    let frames = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":3}"#,
    )
    .unwrap();
    assert_eq!(event_of(terminal(&frames)), "result");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn full_queue_sheds_with_overloaded() {
    // No workers: nothing drains the queue, so filling it is
    // deterministic.
    let (handle, dir) = spawn("overload", 2, 0);
    let mut parked = Vec::new();
    for i in 0..2 {
        let mut stream = UnixStream::connect(handle.socket()).unwrap();
        write_frame(&mut stream, br#"{"query":"ping"}"#).unwrap();
        parked.push(stream);
        // Wait until the connection thread has actually enqueued it.
        while handle.queue_len() < i + 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let frames = client::request(handle.socket(), br#"{"query":"ping"}"#).unwrap();
    assert_eq!(frames.len(), 1);
    let v = parse(terminal(&frames)).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("overloaded"));
    assert!(v.get("retry_after_ms").and_then(Value::as_i64).unwrap() > 0);
    drop(parked);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn mid_stream_disconnect_leaves_server_healthy() {
    let (handle, dir) = spawn("disconnect", 8, 1);
    {
        let mut stream = UnixStream::connect(handle.socket()).unwrap();
        write_frame(
            &mut stream,
            br#"{"query":"solv","model":"ring{n=4}","k_max":4,"no_cache":true}"#,
        )
        .unwrap();
        // Hang up without reading anything: the worker discovers the
        // dead stream at its next progress write and cancels the
        // computation instead of finishing it for nobody.
    }
    // The server keeps serving; a full query still completes.
    let frames = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":2}"#,
    )
    .unwrap();
    assert_eq!(event_of(terminal(&frames)), "result");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shutdown_request_stops_the_server() {
    let (handle, dir) = spawn("shutdown-req", 8, 1);
    let frames = client::request(handle.socket(), br#"{"query":"shutdown"}"#).unwrap();
    let v = parse(terminal(&frames)).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("result"));
    // wait() returns because the accept loop observed the stop flag.
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}
