//! `serve-*`: `ksa_server::server::start` in-process with a fresh cache
//! directory and `KSA_THREADS` workers, driven by a closed loop of
//! `KSA_THREADS` connections, one request per connection. Each workload holds one kind of request so
//! its latency is not a blend:
//!
//! * `serve-rounds` — cold `rounds` requests (distinct keys; stratified
//!   n = 3 models, 2 rounds): complex build and the uncertified chain
//!   sweep, then a cache write;
//! * `serve-solv` — cold `solv` requests (distinct keys; n = 3,
//!   `k_max` 3): the CSP, then a cache write;
//! * `serve-cached` — replays of keys filled during set-up: cache read,
//!   framing and the hand-off to a worker.
//!
//! Cold workloads replay every key once after the window (untimed) and
//! require the cached bytes to equal the cold ones; `serve-cached`
//! compares every replay with the bytes of the fill.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use ksa_core::budget::CancelToken;
use ksa_models::spec::ModelSpec;
use ksa_server::cache::Cache;
use ksa_server::json::{obj, parse, Value};
use ksa_server::server::{self, Config, Handle, EXEC_LIMIT, NODE_BUDGET};

use crate::inputs::{self, Rng};
use crate::layers::{self, K_MAX, ROUNDS, VALUE_MAX};
use crate::trace::{Ledger, Tracer};
use crate::{closed_loop, ms_since, repeated_setup, stats, sys, Args, Measured, Traced};

/// The three request mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold `rounds`.
    Rounds,
    /// Cold `solv`.
    Solv,
    /// Cached replays.
    Cached,
}

impl Kind {
    /// The kind a workload name selects.
    ///
    /// # Errors
    ///
    /// Unknown workload names.
    pub fn from_workload(w: &str) -> Result<Kind, String> {
        match w {
            "serve-rounds" => Ok(Kind::Rounds),
            "serve-solv" => Ok(Kind::Solv),
            "serve-cached" => Ok(Kind::Cached),
            _ => Err(format!("unknown workload {w}")),
        }
    }
}

/// Requests generated per second of run (more than a run can send).
const ROUNDS_PATTERNS_PER_S: f64 = 25.0;
const SOLV_PER_S: f64 = 600.0;
/// Small-band models whose `rounds` and `solv` replies `serve-cached`
/// fills at set-up, so replies of both shapes are replayed. One band
/// keeps the cost of the fill, part of `setup_s`, the same for every
/// seed.
const CACHED_MODELS: usize = 12;
/// Ops after which a traced run stops even if time remains: bounds the
/// span dump of the fast `serve-cached` ops.
const MAX_TRACED_OPS: usize = 4000;

/// One request and what the probes need to repeat it.
struct Req {
    spec: ModelSpec,
    rounds: bool,
    payload: Vec<u8>,
}

impl Req {
    fn rounds(spec: ModelSpec) -> Req {
        let payload = obj(vec![
            ("query", Value::Str("rounds".to_string())),
            ("model", Value::Str(spec.name())),
            ("value_max", Value::Int(VALUE_MAX as i64)),
            ("rounds", Value::Int(ROUNDS as i64)),
        ]);
        Req {
            spec,
            rounds: true,
            payload: payload.to_json().into_bytes(),
        }
    }

    fn solv(spec: ModelSpec) -> Req {
        let payload = obj(vec![
            ("query", Value::Str("solv".to_string())),
            ("model", Value::Str(spec.name())),
            ("k_max", Value::Int(K_MAX as i64)),
        ]);
        Req {
            spec,
            rounds: false,
            payload: payload.to_json().into_bytes(),
        }
    }

    /// The server's cache key for this request.
    fn key(&self) -> String {
        if self.rounds {
            format!(
                "rounds|{}|value_max={VALUE_MAX}|rounds={ROUNDS}|exec={EXEC_LIMIT}",
                self.spec.name()
            )
        } else {
            format!(
                "solv|{}|k_max={K_MAX}|exec={EXEC_LIMIT}|node={NODE_BUDGET}",
                self.spec.name()
            )
        }
    }
}

fn requests(kind: Kind, args: &Args) -> Vec<Req> {
    let mut rng = Rng::new(args.seed, &format!("{kind:?}"));
    match kind {
        Kind::Rounds => {
            let repeats = (args.seconds * ROUNDS_PATTERNS_PER_S).ceil() as usize;
            inputs::stratified_models(&mut rng, repeats)
                .into_iter()
                .map(Req::rounds)
                .collect()
        }
        Kind::Solv => inputs::solv_models(&mut rng, (args.seconds * SOLV_PER_S).ceil() as usize)
            .into_iter()
            .map(Req::solv)
            .collect(),
        Kind::Cached => {
            let small: Vec<ModelSpec> = inputs::stratified_models(&mut rng, CACHED_MODELS)
                .into_iter()
                .step_by(inputs::BAND_PATTERN.len())
                .collect();
            let rounds: Vec<Req> = small.iter().cloned().map(Req::rounds).collect();
            rounds
                .into_iter()
                .chain(small.into_iter().map(Req::solv))
                .collect()
        }
    }
}

/// A running server and its scratch directory.
struct Running {
    handle: Handle,
    dir: PathBuf,
}

impl Running {
    fn start(out: &Path, tag: usize) -> Result<Running, String> {
        let dir = out.join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let handle = server::start(Config {
            socket: dir.join("s.sock"),
            cache_dir: dir.join("cache"),
            queue_cap: 64,
            workers: ksa_exec::configured_threads(),
        })
        .map_err(|e| format!("server start: {e}"))?;
        let running = Running { handle, dir };
        let ping = obj(vec![("query", Value::Str("ping".to_string()))]).to_json();
        let stream = ksa_server::client::connect_with_retry(running.socket(), 50, 2)
            .map_err(|e| format!("server never answered: {e}"))?;
        ksa_server::client::roundtrip(stream, ping.as_bytes()).map_err(|e| format!("ping: {e}"))?;
        Ok(running)
    }

    fn socket(&self) -> &Path {
        self.handle.socket()
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One request on a fresh connection: latency in ms and the terminal
/// frame. A refused connection, an `error` or an `overloaded` frame is
/// a failure — never a retry hidden inside the sample.
fn send(socket: &Path, payload: &[u8]) -> Result<(f64, Vec<u8>), String> {
    let t = Instant::now();
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let mut frames = ksa_server::client::roundtrip(stream, payload).map_err(|e| e.to_string())?;
    let ms = ms_since(t);
    let last = frames.pop().ok_or("no response frame")?;
    let v = parse(&last)?;
    match v.get("event").and_then(Value::as_str) {
        Some("result") => Ok((ms, last)),
        _ => Err(format!("terminal frame {}", String::from_utf8_lossy(&last))),
    }
}

/// A server ready to measure.
struct Ready {
    running: Running,
    /// `serve-cached`: the reply bytes of the fill, per request.
    fill: Vec<Vec<u8>>,
}

/// Set-up: a fresh server answering a first ping, then a warm-up
/// request, or for `serve-cached` the cold fill, which also plays the
/// warm-up's part and whose bytes every replay must match.
fn set_up(kind: Kind, reqs: &[Req], out: &Path, tag: usize) -> Result<Ready, String> {
    let running = Running::start(out, tag)?;
    let mut fill = Vec::new();
    match kind {
        Kind::Rounds => {
            send(
                running.socket(),
                &Req::rounds(inputs::named(inputs::WARM_UP_ROUNDS)?).payload,
            )?;
        }
        Kind::Solv => {
            send(
                running.socket(),
                &Req::solv(inputs::named(inputs::WARM_UP_SOLV)?).payload,
            )?;
        }
        Kind::Cached => {
            for r in reqs {
                fill.push(send(running.socket(), &r.payload)?.1);
            }
        }
    }
    Ok(Ready { running, fill })
}

/// The end-to-end run.
///
/// The requests are generated before set-up, so `setup_s` times only
/// calls into the program.
pub fn run(args: &Args, kind: Kind) -> Result<Measured, String> {
    let reqs = requests(kind, args);
    let (setup, Ready { running, fill }) =
        repeated_setup(|i| set_up(kind, &reqs, &args.out, i), |r| r.running.stop())?;
    let socket = running.socket().to_path_buf();
    let clients = ksa_exec::configured_threads();
    let cold: Mutex<Vec<Option<Vec<u8>>>> = Mutex::new(vec![None; reqs.len()]);
    let before = sys::own();
    let (window_s, samples) = if kind == Kind::Cached {
        closed_loop(clients, args.seconds, usize::MAX, |i| {
            let j = i % reqs.len();
            let (ms, bytes) = send(&socket, &reqs[j].payload)?;
            if bytes != fill[j] {
                return Err(format!(
                    "{}: cached bytes differ from the fill",
                    reqs[j].spec.name()
                ));
            }
            Ok(Some(ms))
        })
    } else {
        closed_loop(clients, args.seconds, reqs.len(), |i| {
            let (ms, bytes) = send(&socket, &reqs[i].payload)?;
            cold.lock().expect("no panics under the lock")[i] = Some(bytes);
            Ok(Some(ms))
        })
    };
    let after = sys::own();
    let mut m = Measured {
        setup,
        window_s,
        cpu_ms: after.cpu_ms - before.cpu_ms,
        peak_rss_mib: after.maxrss_mib,
        ..Measured::default()
    };
    if kind != Kind::Cached && samples.len() == reqs.len() {
        m.report.push(("inputs_exhausted", Value::Bool(true)));
    }
    m.absorb(samples);
    let cold = cold.into_inner().expect("no panics under the lock");
    let mut replayed = 0;
    let mut violations = 0;
    for (r, bytes) in reqs.iter().zip(&cold) {
        let Some(bytes) = bytes else { continue };
        replayed += 1;
        let consistent = parse(bytes)
            .ok()
            .and_then(|v| v.get("consistent").and_then(Value::as_bool));
        if r.rounds && consistent == Some(false) {
            violations += 1;
        }
        match send(&socket, &r.payload) {
            Ok((_, cached)) if cached == *bytes => {}
            Ok(_) => m.fail(format!("{}: cached bytes differ from cold", r.spec.name())),
            Err(e) => m.fail(format!("{}: replay: {e}", r.spec.name())),
        }
    }
    running.stop();
    m.report.push(("replays_checked", Value::Int(replayed)));
    m.report.push(("bound_violations", Value::Int(violations)));
    Ok(m)
}

/// What a traced op's probes measured, ms.
#[derive(Default)]
struct Probe {
    compute: f64,
    cache: f64,
    json: f64,
}

/// Direct calls on the request's key and payload after it was served:
/// the compute entry point with a never-firing token, the same work
/// split into layers, the JSON round trip and the cache access the
/// server made. Checks the response against the direct results.
fn probe(
    t: &mut Tracer,
    r: &Req,
    bytes: &[u8],
    cold: bool,
    cache: &Cache,
    monotone: &mut Vec<f64>,
) -> Result<Probe, String> {
    let mut p = Probe::default();
    let response = {
        let s = Instant::now();
        let v = t.span("server.json", |_| {
            let v = parse(bytes)?;
            let again = v.to_json();
            Ok::<_, String>((v, again))
        })?;
        p.json = ms_since(s);
        if v.1.as_bytes() != bytes {
            return Err("JSON round trip changed the response".to_string());
        }
        v.0
    };
    let key = r.key();
    let payload = String::from_utf8_lossy(bytes).into_owned();
    if cold {
        let model = layers::materialize(t, &r.spec, EXEC_LIMIT as u128)?;
        let name = r.spec.name();
        let token = CancelToken::new();
        if r.rounds {
            let rows = layers::plain_rounds(t, &model, ROUNDS, EXEC_LIMIT as u128)?;
            let s = Instant::now();
            let direct = t.span("server.compute", |_| {
                ksa_core::bounds::cross_check::cross_check_round_sweep_by_name_cancellable(
                    &name,
                    VALUE_MAX,
                    ROUNDS,
                    EXEC_LIMIT as u128,
                    &token,
                )
                .map_err(|e| e.to_string())
            })?;
            p.compute = ms_since(s);
            if direct.per_round != rows {
                return Err("layer calls disagree with the compute entry point".to_string());
            }
            let served: Vec<Vec<i64>> = match response.get("per_round") {
                Some(Value::Arr(rounds)) => rounds
                    .iter()
                    .map(|row| match row.get("betti") {
                        Some(Value::Arr(b)) => b.iter().filter_map(Value::as_i64).collect(),
                        _ => Vec::new(),
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let direct_betti: Vec<Vec<i64>> = rows
                .iter()
                .map(|row| row.betti.iter().map(|&b| b as i64).collect())
                .collect();
            if served != direct_betti {
                return Err("served Betti numbers disagree with the library".to_string());
            }
        } else {
            let sweep = layers::csp_sweep(t, &model, K_MAX)?;
            monotone.push((sweep.seeded + sweep.pruned) as f64 / K_MAX as f64);
            let s = Instant::now();
            let direct = t.span("server.compute", |_| {
                ksa_core::solvability::decide_one_round_sweep_cancellable(
                    &model,
                    K_MAX,
                    EXEC_LIMIT,
                    NODE_BUDGET,
                    &token,
                    &mut |_| {},
                )
                .map_err(|e| e.to_string())
            })?;
            p.compute = ms_since(s);
            let verdict = |v: &ksa_core::solvability::Solvability| match v {
                ksa_core::solvability::Solvability::Solvable(_) => "solvable",
                ksa_core::solvability::Solvability::Unsolvable => "unsolvable",
                ksa_core::solvability::Solvability::Unknown => "unknown",
            };
            let served: Vec<&str> = match response.get("verdicts") {
                Some(Value::Arr(vs)) => vs
                    .iter()
                    .filter_map(|v| v.get("verdict").and_then(Value::as_str))
                    .collect(),
                _ => Vec::new(),
            };
            let direct: Vec<&str> = direct.verdicts.iter().map(verdict).collect();
            if served != direct || direct != sweep.verdicts.iter().map(verdict).collect::<Vec<_>>()
            {
                return Err("served verdicts disagree with the library".to_string());
            }
        }
        // The server looked the key up (a miss), then wrote the entry.
        let s = Instant::now();
        t.span("server.cache_get", |_| cache.get(&key));
        t.span("server.cache_put", |_| cache.put(&key, &payload))
            .map_err(|e| format!("cache put: {e}"))?;
        p.cache = ms_since(s);
    } else {
        let s = Instant::now();
        let got = t.span("server.cache_get", |_| cache.get(&key));
        p.cache = ms_since(s);
        if got.as_deref() != Some(payload.as_str()) {
            return Err("probe cache lost the entry".to_string());
        }
    }
    Ok(p)
}

/// The traced run: one connection, alternate ops untraced (the
/// overhead reference) and traced with probes.
pub fn traced(args: &Args, kind: Kind, t: &mut Tracer) -> Result<Traced, String> {
    let reqs = requests(kind, args);
    let Ready { running, fill } = set_up(kind, &reqs, &args.out, 0)?;
    let cache = Cache::open(running.dir.join("probe-cache")).map_err(|e| e.to_string())?;
    if kind == Kind::Cached {
        for (r, bytes) in reqs.iter().zip(&fill) {
            cache
                .put(&r.key(), &String::from_utf8_lossy(bytes))
                .map_err(|e| e.to_string())?;
        }
    }
    let mut out = Traced::default();
    let (mut untraced_ms, mut traced_ms, mut service_ms) = (Vec::new(), Vec::new(), 0.0);
    let mut monotone = Vec::new();
    // Untraced and traced ops alternate in blocks of one input cycle, so
    // both halves see the same mix of request shapes.
    let block = match kind {
        Kind::Rounds => inputs::BAND_PATTERN.len(),
        Kind::Solv => 1,
        Kind::Cached => reqs.len(),
    };
    let start = Instant::now();
    let mut i = 0;
    while traced_ms.is_empty()
        || (i < MAX_TRACED_OPS && start.elapsed().as_secs_f64() < args.seconds)
    {
        let r = match kind {
            Kind::Cached => &reqs[i % reqs.len()],
            _ if i < reqs.len() => &reqs[i],
            _ => break,
        };
        out.attempted += 1;
        if (i / block).is_multiple_of(2) {
            match send(running.socket(), &r.payload) {
                Ok((ms, _)) => untraced_ms.push(ms),
                Err(e) => out.fail(e),
            }
        } else {
            t.set_op(i as u64);
            let sent = t.counted("op", |_| send(running.socket(), &r.payload));
            let probed = sent.and_then(|(ms, bytes)| {
                let p = probe(t, r, &bytes, kind != Kind::Cached, &cache, &mut monotone)?;
                Ok((ms, p))
            });
            match probed {
                Ok((ms, p)) => {
                    traced_ms.push(ms);
                    service_ms += ms - p.compute - p.cache - p.json;
                }
                Err(e) => out.fail(format!("{}: {e}", r.spec.name())),
            }
        }
        i += 1;
    }
    running.stop();
    let ledger = Ledger::of(t.spans());
    let per = (traced_ms.len() as f64).max(1.0);
    layers::ledger_metrics(&ledger, per, &mut out);
    let count = |c: &str| ledger.count("op", c) as f64;
    let lookups = count("cache_hits") + count("cache_misses");
    out.set(
        "server.cache_hit_ratio",
        if lookups > 0.0 {
            count("cache_hits") / lookups
        } else {
            0.0
        },
    );
    out.set("server.cache_writes", count("cache_writes") / per);
    out.set("server.shed", count("requests_shed") / per);
    out.set("server.compute_ms", ledger.ms("server.compute") / per);
    out.set("server.cache_get_ms", ledger.ms("server.cache_get") / per);
    out.set("server.cache_put_ms", ledger.ms("server.cache_put") / per);
    out.set("server.json_ms", ledger.ms("server.json") / per);
    out.set("server.service_ms", service_ms / per);
    if !monotone.is_empty() {
        out.set(
            "core.csp_monotone_ratio",
            monotone.iter().sum::<f64>() / monotone.len() as f64,
        );
    }
    // The part of the compute call no layer owns: registry resolution,
    // result assembly, glue.
    let layered: f64 = [
        "models.materialize",
        "topology.rounds",
        "topology.homology_sweep",
        "core.lower_bound",
        "core.csp",
    ]
    .iter()
    .map(|s| ledger.ms(s))
    .sum();
    out.set(
        "bench.unattributed_ms",
        (ledger.ms("server.compute") - layered) / per,
    );
    let (traced_p50, untraced_p50) = (
        stats::median(&traced_ms).unwrap_or(0.0),
        stats::median(&untraced_ms).unwrap_or(0.0),
    );
    out.set(
        "bench.trace_overhead_pct",
        if untraced_p50 > 0.0 {
            (traced_p50 / untraced_p50 - 1.0) * 100.0
        } else {
            0.0
        },
    );
    Ok(out)
}
