//! `sweep`: the certified multi-round cross-check over a seeded,
//! size-stratified ensemble of n = 3 random closed-above models, each
//! op one model as the `rounds` experiment handles it — certified round
//! sweep, then every certificate checked.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ksa_cert::Cert;
use ksa_core::bounds::cross_check::{cross_check_round_sweep_certified, RoundSweepReport};
use ksa_models::spec::ModelSpec;
use ksa_models::ClosedAboveModel;
use ksa_server::json::Value;

use crate::inputs::{self, Rng, BUDGET};
use crate::layers::{self, ROUNDS, VALUE_MAX};
use crate::trace::{Ledger, Tracer};
use crate::{closed_loop, ms_since, repeated_setup, sys, Args, Measured, Traced};

/// Band patterns to generate per second of run: more than a run can
/// process, so the stream never runs dry.
const PATTERNS_PER_S: f64 = 8.0;

fn ensemble(args: &Args) -> Vec<ModelSpec> {
    let repeats = (args.seconds * PATTERNS_PER_S).ceil() as usize;
    inputs::stratified_models(&mut Rng::new(args.seed, "sweep"), repeats)
}

/// One op on a model resolved at set-up: `Ok(None)` when admission
/// skips it.
fn op(spec: &ModelSpec, model: &ClosedAboveModel) -> Result<Option<RoundSweepReport>, String> {
    if spec.estimated_work() > BUDGET {
        return Ok(None);
    }
    let (report, certs) =
        cross_check_round_sweep_certified(model, VALUE_MAX, ROUNDS, BUDGET, &spec.name())
            .map_err(|e| e.to_string())?;
    for cert in certs {
        let cert = Cert::Homology(cert);
        cert.check()
            .map_err(|e| format!("certificate {} rejected: {e}", cert.label()))?;
    }
    Ok(Some(report))
}

fn violations(report: &RoundSweepReport) -> usize {
    report
        .per_round
        .iter()
        .filter(|r| !r.is_consistent())
        .count()
}

/// Set-up: one warm-up op on [`inputs::WARM_UP_ROUNDS`], then every
/// model of the ensemble resolved through the model registry.
fn set_up(specs: &[ModelSpec]) -> Result<Vec<ClosedAboveModel>, String> {
    let warm = inputs::named(inputs::WARM_UP_ROUNDS)?;
    op(&warm, &inputs::materialize(&warm, BUDGET)?)?
        .ok_or("admission skipped the warm-up model")?;
    specs
        .iter()
        .map(|spec| inputs::materialize(spec, BUDGET))
        .collect()
}

/// The end-to-end run. The inputs are generated before set-up, so
/// `setup_s` times only calls into the program; the ops run on the
/// models set-up resolved.
pub fn run(args: &Args) -> Result<Measured, String> {
    let specs = ensemble(args);
    let (setup, models) = repeated_setup(|_| set_up(&specs), drop)?;
    let found = AtomicUsize::new(0);
    let before = sys::own();
    let (window_s, samples) = closed_loop(1, args.seconds, specs.len(), |i| {
        let t = Instant::now();
        Ok(op(&specs[i], &models[i])?.map(|report| {
            let ms = ms_since(t);
            found.fetch_add(violations(&report), Ordering::SeqCst);
            ms
        }))
    });
    let after = sys::own();
    let mut m = Measured {
        setup,
        window_s,
        cpu_ms: after.cpu_ms - before.cpu_ms,
        peak_rss_mib: after.maxrss_mib,
        ..Measured::default()
    };
    if samples.len() == specs.len() {
        m.report.push(("inputs_exhausted", Value::Bool(true)));
    }
    m.absorb(samples);
    // Bound violations are findings about the paper, not failures.
    m.report.push((
        "bound_violations",
        Value::Int(found.load(Ordering::SeqCst) as i64),
    ));
    Ok(m)
}

/// The traced run: each model once untraced (the overhead reference)
/// and once through the layer calls.
pub fn traced(args: &Args, t: &mut Tracer) -> Result<Traced, String> {
    let specs = ensemble(args);
    let mut out = Traced::default();
    let (mut ops, mut untraced_ms, mut cert_bytes) = (0usize, 0.0, 0usize);
    let start = Instant::now();
    while ops < specs.len() && (ops == 0 || start.elapsed().as_secs_f64() < args.seconds) {
        let spec = &specs[ops];
        let name = spec.name();
        out.attempted += 1;
        // Timed with its materialization, as the `op` span is.
        let untraced = || {
            let t = Instant::now();
            let model = inputs::materialize(spec, BUDGET)?;
            let report = op(spec, &model)?.expect("stratified models are admitted");
            Ok::<_, String>((ms_since(t), report))
        };
        // Which twin goes first alternates per band-pattern cycle, so
        // both orders see every band.
        let first = (ops / inputs::BAND_PATTERN.len()).is_multiple_of(2);
        let twin = if first { Some(untraced()) } else { None };
        t.set_op(ops as u64);
        let sweep = t.counted("op", |t| layers::certified_rounds(t, spec, ROUNDS, BUDGET));
        let twin = twin.unwrap_or_else(untraced);
        ops += 1;
        let checked = sweep.and_then(|sweep| {
            let (ms, report) = twin?;
            untraced_ms += ms;
            if report.per_round != sweep.rows {
                return Err("layer-by-layer rows differ from the one-call sweep".to_string());
            }
            layers::certified_probes(t, &sweep, BUDGET)
        });
        match checked {
            Ok(bytes) => cert_bytes += bytes,
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    }
    let ledger = Ledger::of(t.spans());
    let per = ops as f64;
    layers::ledger_metrics(&ledger, per, &mut out);
    out.set("cert.bytes", cert_bytes as f64 / per);
    out.set("bench.unattributed_ms", ledger.ms("op") / per);
    out.set(
        "bench.trace_overhead_pct",
        (ledger.total("op") / untraced_ms - 1.0) * 100.0,
    );
    Ok(out)
}
