//! Hostile-wire tests: torn prefixes, absurd declared lengths, garbage
//! payloads, and half-closed sockets, each followed by a health probe —
//! a broken client must never take the server down.

use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use ksa_server::client;
use ksa_server::framing::write_frame;
use ksa_server::json::{parse, Value};
use ksa_server::server::{start, Config, Handle};

fn spawn(name: &str) -> (Handle, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ksa-fr-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let handle = start(Config {
        socket: dir.join("sock"),
        cache_dir: dir.join("cache"),
        queue_cap: 8,
        workers: 1,
    })
    .unwrap();
    (handle, dir)
}

fn assert_healthy(handle: &Handle) {
    let frames = client::request(handle.socket(), br#"{"query":"ping"}"#).unwrap();
    let v = parse(frames.last().unwrap()).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("result"));
}

fn read_all(stream: &mut UnixStream) -> Vec<u8> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

#[test]
fn truncated_length_prefix() {
    let (handle, dir) = spawn("torn-prefix");
    let mut stream = UnixStream::connect(handle.socket()).unwrap();
    stream.write_all(&[0u8, 0]).unwrap(); // 2 of 4 prefix bytes
    stream.shutdown(Shutdown::Write).unwrap();
    let response = read_all(&mut stream);
    // The server answers the framing error with a structured frame.
    assert!(!response.is_empty(), "torn prefix gets an error response");
    let v = parse(&response[4..]).unwrap();
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("bad_request"));
    assert_healthy(&handle);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn absurd_declared_length_is_rejected() {
    let (handle, dir) = spawn("absurd-len");
    let mut stream = UnixStream::connect(handle.socket()).unwrap();
    // Declare a 4 GiB frame; send only a few bytes. The server must
    // reject on the prefix alone (before allocating), not wait for the
    // payload.
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.write_all(b"tiny").unwrap();
    let response = read_all(&mut stream);
    assert!(!response.is_empty());
    let v = parse(&response[4..]).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("bad_request"));
    assert_healthy(&handle);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn garbage_payload_is_a_bad_request() {
    let (handle, dir) = spawn("garbage");
    for payload in [
        &b"\xff\xfe\x00\x01 not utf-8"[..],
        b"[[[[[[[[[[[[[[[[[[[[",
        b"{\"query\":42}",
    ] {
        let mut stream = UnixStream::connect(handle.socket()).unwrap();
        write_frame(&mut stream, payload).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let response = read_all(&mut stream);
        assert!(!response.is_empty(), "garbage gets a response");
        let v = parse(&response[4..]).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("bad_request"));
    }
    assert_healthy(&handle);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deeply_nested_request_is_rejected_not_overflowed() {
    let (handle, dir) = spawn("deep-nest");
    let deep = vec![b'['; 100_000];
    let frames = client::request(handle.socket(), &deep).unwrap();
    let v = parse(frames.last().unwrap()).unwrap();
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("bad_request"));
    assert_healthy(&handle);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn half_closed_silent_connection_is_dropped_cleanly() {
    let (handle, dir) = spawn("half-closed");
    // Connect, send nothing, half-close the write side: the server
    // sees a clean EOF at a frame boundary and just drops the
    // connection — no response, no error, no stuck thread.
    let mut stream = UnixStream::connect(handle.socket()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let response = read_all(&mut stream);
    assert!(response.is_empty(), "silent close draws no response");
    // Abrupt full drop mid-handshake is equally harmless.
    drop(UnixStream::connect(handle.socket()).unwrap());
    assert_healthy(&handle);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
