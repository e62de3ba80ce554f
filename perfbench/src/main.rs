//! The benchmark harness: runs one workload against the release build,
//! checks its outputs, and prints the result as one JSON line.
//!
//! ```text
//! ksa-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--experiments <path>] [--out <dir>]
//! ```
//!
//! `perfbench/run.py` builds this binary and the repository's
//! `experiments` binary, runs it, and reduces its output to the metrics
//! `BENCHMARK.json` names. With `--trace 0` the last line carries the
//! end-to-end metrics; with `--trace 1` the per-layer ledger, from a
//! separate run that records spans around every layer call.

mod inputs;
mod layers;
mod paper;
mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ksa_server::json::{obj, Value};

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// The repository's `experiments` binary (the `paper` workload).
    pub experiments: Option<PathBuf>,
    /// Directory for scratch files and the span dump.
    pub out: PathBuf,
}

/// How many times each workload's set-up is repeated; `setup_s` is the
/// median of their CPU times.
pub const SETUP_REPEATS: usize = 11;

/// An end-to-end run's raw measurements.
#[derive(Default)]
pub struct Measured {
    /// Cost of each set-up repetition.
    pub setup: SetupTimes,
    /// Wall time of the measured window, s.
    pub window_s: f64,
    /// Latency of every successful op, ms.
    pub ok_ms: Vec<f64>,
    /// Ops started.
    pub attempted: usize,
    /// Ops that failed a check or returned an error.
    pub failed: usize,
    /// Inputs skipped by budget admission (not ops).
    pub skipped: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// CPU time spent during the window, ms.
    pub cpu_ms: f64,
    /// Peak resident memory, MiB.
    pub peak_rss_mib: f64,
    /// Workload-specific counts for the report.
    pub report: Fields,
}

impl Measured {
    /// Folds a closed loop's samples in.
    pub fn absorb(&mut self, samples: Vec<Sample>) {
        for s in samples {
            match s.result {
                Ok(None) => self.skipped += 1,
                Ok(Some(ms)) => {
                    self.attempted += 1;
                    self.ok_ms.push(ms);
                }
                Err(e) => {
                    self.attempted += 1;
                    self.fail(e);
                }
            }
        }
    }

    /// Records a failed op.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }
}

/// A traced run's per-layer metrics plus report fields.
#[derive(Default)]
pub struct Traced {
    /// `(metric, value)` pairs; layers a workload never calls are absent.
    pub metrics: Vec<(String, f64)>,
    /// Ops run.
    pub attempted: usize,
    /// Failed checks.
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Traced {
    /// Records a failed check.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }
}

/// An op's latency in ms, `None` for an input skipped by admission, or
/// the failure.
pub type OpResult = Result<Option<f64>, String>;

/// One op of a closed loop.
pub struct Sample {
    /// Index of the op's input.
    pub index: usize,
    /// What the op returned.
    pub result: OpResult,
}

/// Runs `op(i)` for `i = 0, 1, …` on `clients` closed-loop threads
/// until `seconds` have passed or `len` ops were started. Each op
/// returns its own latency in ms, so checks it makes after the timed
/// part stay out of the sample. Returns the window length in seconds and
/// the samples in op order.
pub fn closed_loop(
    clients: usize,
    seconds: f64,
    len: usize,
    op: impl Fn(usize) -> OpResult + Sync,
) -> (f64, Vec<Sample>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= len {
                            break;
                        }
                        mine.push(Sample {
                            index: i,
                            result: op(i),
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.index);
    (window, samples)
}

/// Set-up costs of the repetitions, s.
#[derive(Default)]
pub struct SetupTimes {
    /// CPU time of each repetition: this process's threads plus the
    /// children it waited for.
    pub cpu: Vec<f64>,
    /// Wall time of each repetition.
    pub wall: Vec<f64>,
}

/// Runs `set_up(i)` `SETUP_REPEATS` times and keeps the last result;
/// each earlier one goes to `tear_down`, outside the measured part.
pub fn repeated_setup<T>(
    mut set_up: impl FnMut(usize) -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<(SetupTimes, T), String> {
    let cpu_ms = || sys::own().cpu_ms + sys::children().cpu_ms;
    let mut times = SetupTimes::default();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let (t, cpu) = (Instant::now(), cpu_ms());
        last = Some(set_up(i)?);
        times.cpu.push((cpu_ms() - cpu) / 1e3);
        times.wall.push(t.elapsed().as_secs_f64());
    }
    Ok((times, last.expect("SETUP_REPEATS > 0")))
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        experiments: None,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--experiments" => args.experiments = Some(PathBuf::from(value)),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Named JSON fields, in output order.
type Fields = Vec<(&'static str, Value)>;

fn end_to_end(m: &Measured) -> (Fields, Fields) {
    let ok = m.ok_ms.len() as f64;
    let num = |x: Option<f64>| x.map_or(Value::Null, Value::Float);
    let metrics = vec![
        ("setup_s", num(stats::median(&m.setup.cpu))),
        ("cpu_ms_per_op", Value::Float(m.cpu_ms / ok)),
        ("peak_rss_mib", Value::Float(m.peak_rss_mib)),
    ];
    let mut report = vec![
        ("samples", Value::Int(m.ok_ms.len() as i64)),
        ("op_ms_p50", num(stats::median(&m.ok_ms))),
        ("op_ms_p90", num(stats::p90_if_supported(&m.ok_ms))),
        ("op_ms_q1", num(stats::quartiles(&m.ok_ms).map(|q| q.0))),
        ("op_ms_q3", num(stats::quartiles(&m.ok_ms).map(|q| q.1))),
        ("ops_per_s", Value::Float(ok / m.window_s)),
        ("setup_wall_s", num(stats::median(&m.setup.wall))),
        (
            "failed_ratio",
            Value::Float(m.failed as f64 / m.attempted.max(1) as f64),
        ),
        ("skipped_by_admission", Value::Int(m.skipped as i64)),
        ("window_s", Value::Float(m.window_s)),
        ("errors", strings(&m.errors)),
    ];
    report.extend(m.report.iter().cloned());
    (metrics, report)
}

fn strings(xs: &[String]) -> Value {
    Value::Arr(xs.iter().map(|e| Value::Str(e.clone())).collect())
}

fn metadata(args: &Args) -> Fields {
    let obs_on = !ksa_obs::snapshot().det.is_empty();
    vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Int(args.seed as i64)),
        ("confirm_seed", Value::Int(inputs::CONFIRM_SEED as i64)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        (
            "nproc",
            Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        (
            "ksa_threads",
            Value::Int(ksa_exec::configured_threads() as i64),
        ),
        (
            "features",
            Value::Str(if obs_on { "parallel,obs" } else { "parallel" }.to_string()),
        ),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
    ]
}

fn run(args: &Args) -> Result<Value, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let (correct, attempted, failed, metrics, report) = if args.trace {
        let mut tracer = trace::Tracer::default();
        let t = match args.workload.as_str() {
            "paper" => paper::traced(args, &mut tracer)?,
            "sweep" => sweep::traced(args, &mut tracer)?,
            w => serve::traced(args, serve::Kind::from_workload(w)?, &mut tracer)?,
        };
        let path = args
            .out
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.to_json().to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = t
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect();
        let report = vec![
            ("errors", strings(&t.errors)),
            ("spans_file", Value::Str(path.display().to_string())),
        ];
        (t.failed == 0, t.attempted, t.failed, metrics, report)
    } else {
        let m = match args.workload.as_str() {
            "paper" => paper::run(args)?,
            "sweep" => sweep::run(args)?,
            w => serve::run(args, serve::Kind::from_workload(w)?)?,
        };
        let (metrics, report) = end_to_end(&m);
        let metrics = metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        (
            m.failed == 0 && !m.ok_ms.is_empty(),
            m.attempted,
            m.failed,
            metrics,
            report,
        )
    };
    let mut report_fields = metadata(args);
    report_fields.extend(report);
    Ok(obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", Value::Obj(metrics)),
        ("report", obj(report_fields)),
    ]))
}

fn main() -> std::process::ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(v) => {
            println!("{}", v.to_json());
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ksa-perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
