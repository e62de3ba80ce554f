//! `paper`: the released `experiments all` binary, a fresh process per
//! pass — what a reader reproducing the paper runs. Its input is the
//! paper's fixed experiment set, so the seed changes nothing here.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use ksa_bench::ALL_EXPERIMENTS;
use ksa_models::spec::ModelSpec;
use ksa_server::json::{parse, Value};

use crate::layers;
use crate::trace::{Ledger, Tracer};
use crate::{closed_loop, ms_since, repeated_setup, sys, Args, Measured, Traced};

/// The `rounds` experiment's models and round counts, decomposed in the
/// traced run (the experiment's own table).
const ROUNDS_MODELS: [(&str, usize); 4] = [
    ("ring{n=3}", 3),
    ("ring{n=3,sym}", 2),
    ("stars{n=3,s=1}", 2),
    ("stars{n=3,s=2}", 2),
];
/// The `rounds` experiment's budget.
const ROUNDS_BUDGET: u128 = 100_000_000;
/// The `hunt` experiment's default selection.
const HUNT_GLOB: &str = "random{n=3,p=0.5*";

fn binary(args: &Args) -> Result<&Path, String> {
    args.experiments
        .as_deref()
        .ok_or_else(|| "the paper workload needs --experiments <path>".to_string())
}

/// The experiment set-up runs alone: a short one, so that the binary's
/// first-run costs stay out of the window.
const WARM_UP: &str = "thm54";

/// Set-up: the binary starts and lists exactly the paper's experiments,
/// then runs [`WARM_UP`] alone.
fn set_up(bin: &Path) -> Result<(), String> {
    let out = Command::new(bin)
        .arg("--list")
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let listed = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() || !listed.lines().eq(ALL_EXPERIMENTS.iter().copied()) {
        return Err(format!("`experiments --list` printed {listed:?}"));
    }
    let status = Command::new(bin)
        .arg(WARM_UP)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !status.success() {
        return Err(format!("`experiments {WARM_UP}` exited with {status}"));
    }
    Ok(())
}

/// One pass: the process wall in ms and its `--json` payload.
fn pass(bin: &Path, json: &Path) -> Result<(f64, Value), String> {
    let t = Instant::now();
    let status = Command::new(bin)
        .arg("all")
        .arg("--json")
        .arg(json)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let ms = ms_since(t);
    if !status.success() {
        return Err(format!("`experiments all` exited with {status}"));
    }
    let bytes = std::fs::read(json).map_err(|e| format!("{}: {e}", json.display()))?;
    Ok((ms, parse(&bytes)?))
}

fn without(v: &Value, keys: &[&str]) -> Value {
    match v {
        Value::Obj(members) => Value::Obj(
            members
                .iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Checks one pass's payload and returns its deterministic part: the
/// payload minus thread count, perf counters and timings, as the CI
/// determinism job strips it.
fn deterministic_payload(v: &Value) -> Result<String, String> {
    let Some(Value::Arr(exps)) = v.get("experiments") else {
        return Err("payload has no experiments".to_string());
    };
    let ids: Vec<&str> = exps.iter().filter_map(|e| e.get("id")?.as_str()).collect();
    if ids != ALL_EXPERIMENTS {
        return Err(format!("ran {ids:?}"));
    }
    for e in exps {
        let id = e.get("id").and_then(Value::as_str).unwrap_or("?");
        if e.get("passed").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{id} did not pass"));
        }
        if e.get("checks_failed").and_then(Value::as_i64) != Some(0) {
            return Err(format!("{id} has failed checks"));
        }
        if e.get("certified").and_then(Value::as_bool) == Some(false) {
            return Err(format!("{id} has a rejected certificate"));
        }
    }
    let mut stripped = without(v, &["ksa_threads"]);
    if let Value::Obj(members) = &mut stripped {
        for (k, member) in members.iter_mut() {
            match k.as_str() {
                "metrics" => *member = without(member, &["perf"]),
                "experiments" => {
                    if let Value::Arr(exps) = member {
                        for e in exps.iter_mut() {
                            *e = without(e, &["wall_ms", "queued_ms", "exclusive_ms"]);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Ok(stripped.to_json())
}

/// A checked pass: its wall time, with the deterministic payload
/// compared against the first pass's.
fn checked_pass(bin: &Path, json: &Path, first: &Mutex<Option<String>>) -> Result<f64, String> {
    let (ms, v) = pass(bin, json)?;
    let payload = deterministic_payload(&v)?;
    let mut first = first
        .lock()
        .expect("no check panics while holding the lock");
    match first.as_ref() {
        None => *first = Some(payload),
        Some(f) if *f != payload => return Err("deterministic payload differs from pass 1".into()),
        Some(_) => {}
    }
    Ok(ms)
}

/// The end-to-end run.
pub fn run(args: &Args) -> Result<Measured, String> {
    let bin = binary(args)?;
    let (setup, ()) = repeated_setup(|_| set_up(bin), drop)?;
    let json = args.out.join("paper-pass.json");
    let first = Mutex::new(None);
    let before = sys::children();
    let (window_s, samples) = closed_loop(1, args.seconds, usize::MAX, |_| {
        checked_pass(bin, &json, &first).map(Some)
    });
    let after = sys::children();
    let mut m = Measured {
        setup,
        window_s,
        cpu_ms: after.cpu_ms - before.cpu_ms,
        peak_rss_mib: after.maxrss_mib,
        ..Measured::default()
    };
    m.absorb(samples);
    Ok(m)
}

/// The traced run: every experiment alone in-process (`bench.exp.*`),
/// then the two experiments that dominate the pass — `rounds` and
/// `hunt` — re-driven model by model through the layer calls.
pub fn traced(args: &Args, t: &mut Tracer) -> Result<Traced, String> {
    let bin = binary(args)?;
    let json = args.out.join("paper-pass.json");
    let mut out = Traced::default();
    // The untraced reference: one pass of the fan-out binary.
    let untraced_ms = checked_pass(bin, &json, &Mutex::new(None))?;
    let hunt: Vec<ModelSpec> = ksa_models::registry::builtin()
        .select(HUNT_GLOB)
        .iter()
        .map(|name| name.parse().map_err(|e| format!("{name}: {e}")))
        .collect::<Result<_, String>>()?;
    let mut passes = 0u64;
    let mut helped_ms = 0.0;
    let mut cert_bytes = 0usize;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        t.set_op(passes);
        for id in ALL_EXPERIMENTS {
            let mut results = t.counted(format!("bench.exp.{id}"), |_| {
                ksa_bench::run_experiments(&[id])
            });
            let (outcome, timing) = results.pop().expect("one result per id");
            out.attempted += 1;
            match outcome {
                Ok(o) if o.passed && o.certified != Some(false) => {}
                Ok(_) => out.fail(format!("{id} failed in-process")),
                Err(e) => out.fail(format!("{id}: {e}")),
            }
            helped_ms += timing.wall_ms - timing.exclusive_ms;
        }
        for (name, rounds) in ROUNDS_MODELS {
            let spec: ModelSpec = name.parse().map_err(|e| format!("{name}: {e}"))?;
            out.attempted += 1;
            let sweep = t.counted("op", |t| {
                layers::certified_rounds(t, &spec, rounds, ROUNDS_BUDGET)
            });
            match sweep.and_then(|s| layers::certified_probes(t, &s, ROUNDS_BUDGET)) {
                Ok(bytes) => cert_bytes += bytes,
                Err(e) => out.fail(format!("{name}: {e}")),
            }
        }
        for spec in &hunt {
            out.attempted += 1;
            let scanned = t.counted("op", |t| {
                let model = layers::materialize(t, spec, crate::inputs::BUDGET)?;
                layers::plain_rounds(t, &model, layers::ROUNDS, crate::inputs::BUDGET)?;
                layers::csp_sweep(t, &model, layers::K_MAX)?;
                layers::lower_bounds(t, &model, 1)
            });
            if let Err(e) = scanned {
                out.fail(format!("{}: {e}", spec.name()));
            }
        }
        passes += 1;
    }
    let ledger = Ledger::of(t.spans());
    let per = passes as f64;
    layers::ledger_metrics(&ledger, per, &mut out);
    let mut alone_ms = 0.0;
    for id in ALL_EXPERIMENTS {
        let ms = ledger.total(&format!("bench.exp.{id}")) / per;
        alone_ms += ms;
        out.set(format!("bench.exp.{id}_ms"), ms);
    }
    out.set("exec.helped_ms", helped_ms / per);
    out.set("cert.bytes", cert_bytes as f64 / per);
    // Layer time inside the re-driven models: op time minus op self time.
    let attributed = (ledger.total("op") - ledger.ms("op")) / per;
    out.set("bench.unattributed_ms", alone_ms - attributed);
    // Experiments run one at a time against the concurrent fan-out of
    // the untraced pass: fan-out difference plus tracing overhead.
    out.set(
        "bench.trace_overhead_pct",
        (alone_ms / untraced_ms - 1.0) * 100.0,
    );
    Ok(out)
}
