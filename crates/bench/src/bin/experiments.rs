//! The experiment harness: regenerates every figure and in-text numerical
//! claim of the paper (see EXPERIMENTS.md for the index).
//!
//! Usage:
//!
//! ```text
//! experiments all            # run everything
//! experiments fig1 stars …   # run selected experiments
//! experiments --list         # list experiment ids
//! experiments --list-models  # list the builtin model registry
//! experiments --list-models --models 'stars*,ring*'
//!                            # list a registry selection
//! experiments hunt --models 'random{n=3*'
//!                            # hunt over a registry selection
//! experiments all --json BENCH_results.json
//!                            # also write machine-readable results
//! experiments all --certs certs/
//!                            # export every emitted certificate for an
//!                            # out-of-process `cert-check` pass
//! ```
//!
//! `--json <path>` writes per-experiment timings, every shape assertion,
//! a per-experiment check-count summary (`counts`) and the run's
//! instrumentation counters (`metrics`, see DESIGN.md §9) as JSON, so
//! the perf trajectory is tracked across PRs (`BENCH_results.json` at
//! the repo root is the committed baseline) and CI can diff the
//! deterministic payload across thread counts. Of the three per-
//! experiment times, `wall_ms` (on-task elapsed) is the one the
//! committed baseline tracks; `queued_ms` and `exclusive_ms` qualify it
//! (see `ksa_bench::ExperimentTiming`).
//!
//! `--trace <path>` records a chrome://tracing-compatible trace of the
//! run (experiment, round, rank-reduction, CSP spans): open the file via
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! `--certs <dir>` writes every certificate the experiments emitted
//! (shelling / homology / solvability verdicts, DESIGN.md §11) as
//! `<experiment>-<idx>-<label>.cert` files under `<dir>`, so the
//! standalone `cert-check` binary can re-verify the whole run without
//! sharing a process — the CI determinism job does exactly that.
//!
//! `--models <glob>` selects models from the builtin registry by
//! canonical name (`*`/`?` wildcards; comma-separated patterns respect
//! braces). Repeatable — occurrences are joined with `,`. It filters
//! `--list-models` and overrides the default ensemble of the
//! registry-driven experiments (`hunt`).
//!
//! Exit code 0 iff every executed experiment's shape assertions held.

use ksa_bench::{
    run_experiments_with_models, ExperimentOutcome, ExperimentTiming, ALL_EXPERIMENTS,
};
use ksa_obs::json::{obj, Value};
use std::process::ExitCode;

/// Filesystem-safe slug of a certificate label (`--certs` file names).
fn cert_slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// A time in ms as JSON, rounded to 0.1 ms.
fn ms(t: f64) -> Value {
    Value::Float((t * 10.0).round() / 10.0)
}

/// The run as the `BENCH_results.json` document (schema 2: three timing
/// fields per experiment, the folded `counts` summary and the `metrics`
/// section).
fn results_json(results: &[(ExperimentOutcome, ExperimentTiming)]) -> Value {
    let experiments = results
        .iter()
        .map(|(outcome, timing)| {
            let checks_failed = outcome.checks.iter().filter(|(_, ok)| !ok).count();
            obj(vec![
                ("id", Value::Str(outcome.id.to_string())),
                ("passed", Value::Bool(outcome.passed)),
                // Deterministic at any KSA_THREADS (part of the CI diff):
                // null ⇔ the experiment emits no certificates.
                (
                    "certified",
                    outcome.certified.map_or(Value::Null, Value::Bool),
                ),
                // `wall_ms` (on-task elapsed) is the tracked series; the
                // other two qualify it (see ksa_bench::ExperimentTiming).
                ("wall_ms", ms(timing.wall_ms)),
                ("queued_ms", ms(timing.queued_ms)),
                ("exclusive_ms", ms(timing.exclusive_ms)),
                (
                    "checks_passed",
                    Value::Int((outcome.checks.len() - checks_failed) as i64),
                ),
                ("checks_failed", Value::Int(checks_failed as i64)),
                (
                    "skipped_models",
                    Value::Arr(
                        outcome
                            .skipped_models
                            .iter()
                            .map(|m| Value::Str(m.clone()))
                            .collect(),
                    ),
                ),
                (
                    "checks",
                    Value::Arr(
                        outcome
                            .checks
                            .iter()
                            .map(|(what, ok)| {
                                obj(vec![
                                    ("what", Value::Str(what.clone())),
                                    ("ok", Value::Bool(*ok)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    // The per-experiment check-count summary (the former
    // `BENCH_results.json.counts` side file, folded in).
    let counts = results
        .iter()
        .map(|(outcome, _)| {
            let failed = outcome.checks.iter().filter(|(_, ok)| !ok).count();
            let total = outcome.checks.len();
            (
                outcome.id.to_string(),
                Value::Str(format!("{}/{total}", total - failed)),
            )
        })
        .collect();
    // Instrumentation counters for the whole run (DESIGN.md §9). The
    // deterministic tier is part of the cross-thread determinism
    // contract and is diffed by CI; everything under "perf" is
    // scheduling-dependent and must be stripped first.
    let metrics = ksa_obs::snapshot();
    let tier = |counters: &[(&str, u64)]| {
        Value::Obj(
            counters
                .iter()
                .map(|&(name, value)| (name.to_string(), Value::Int(value as i64)))
                .collect(),
        )
    };
    let workers = metrics
        .workers
        .iter()
        .map(|w| {
            obj(vec![
                ("label", Value::Str(w.label.clone())),
                ("steals", Value::Int(w.steals as i64)),
                ("parks", Value::Int(w.parks as i64)),
                ("spawns", Value::Int(w.spawns as i64)),
            ])
        })
        .collect();
    obj(vec![
        ("schema", Value::Str("ksa-bench-results/2".into())),
        (
            "ksa_threads",
            Value::Str(std::env::var("KSA_THREADS").unwrap_or_else(|_| "auto".into())),
        ),
        ("experiments", Value::Arr(experiments)),
        ("counts", Value::Obj(counts)),
        (
            "metrics",
            obj(vec![
                ("deterministic", tier(&metrics.det)),
                (
                    "perf",
                    obj(vec![
                        ("counters", tier(&metrics.perf)),
                        ("workers", Value::Arr(workers)),
                    ]),
                ),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    // Pull out `--json <path>` / `--trace <path>` / `--models <glob>` /
    // `--list-models` before interpreting the rest as ids.
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut certs_dir: Option<String> = None;
    let mut model_globs: Vec<String> = Vec::new();
    let mut list_models = false;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            match it.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path argument");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--certs" {
            match it.next() {
                Some(dir) => certs_dir = Some(dir),
                None => {
                    eprintln!("--certs requires a directory argument");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--trace" {
            match it.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace requires a path argument");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--models" {
            match it.next() {
                Some(glob) => model_globs.push(glob),
                None => {
                    eprintln!("--models requires a glob argument (e.g. 'stars*,ring*')");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--list-models" {
            list_models = true;
        } else {
            selected.push(arg);
        }
    }
    let models: Option<String> = if model_globs.is_empty() {
        None
    } else {
        Some(model_globs.join(","))
    };

    if list_models {
        let reg = ksa_models::registry::builtin();
        let names: Vec<&str> = match &models {
            Some(glob) => reg.select(glob),
            None => reg.names().collect(),
        };
        for name in &names {
            println!("{name}");
        }
        eprintln!("{} of {} builtin models", names.len(), reg.len());
        return ExitCode::SUCCESS;
    }

    let ids: Vec<&str> = if selected.is_empty() || selected.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        selected.iter().map(|s| s.as_str()).collect()
    };

    if trace_path.is_some() {
        ksa_obs::trace_start();
    }

    // Whole experiments fan out as `ksa-exec` tasks; results come back
    // in input order, so the printed reports and the JSON payload are
    // independent of the thread count.
    let mut all_ok = true;
    let mut results: Vec<(ExperimentOutcome, ExperimentTiming)> = Vec::new();
    for (id, (result, timing)) in ids
        .iter()
        .zip(run_experiments_with_models(&ids, models.as_deref()))
    {
        match result {
            Ok(outcome) => {
                println!("================================================================");
                println!(
                    "experiment: {} ({:.0} ms on-task, {:.0} ms exclusive)",
                    outcome.id, timing.wall_ms, timing.exclusive_ms
                );
                println!("================================================================");
                println!("{}", outcome.report);
                println!(
                    "result: {}\n",
                    if outcome.passed { "PASSED" } else { "FAILED" }
                );
                all_ok &= outcome.passed;
                results.push((outcome, timing));
            }
            Err(e) => {
                eprintln!("experiment {id}: error: {e}");
                all_ok = false;
            }
        }
    }

    if let Some(dir) = certs_dir {
        let dir = std::path::Path::new(&dir);
        match std::fs::create_dir_all(dir) {
            Err(e) => {
                eprintln!("failed to create {}: {e}", dir.display());
                all_ok = false;
            }
            Ok(()) => {
                let mut written = 0usize;
                for (outcome, _) in &results {
                    for (i, (label, text)) in outcome.certs.iter().enumerate() {
                        let path =
                            dir.join(format!("{}-{i:02}-{}.cert", outcome.id, cert_slug(label)));
                        if let Err(e) = std::fs::write(&path, text) {
                            eprintln!("failed to write {}: {e}", path.display());
                            all_ok = false;
                        } else {
                            written += 1;
                        }
                    }
                }
                println!("wrote {written} certificate(s) to {}", dir.display());
            }
        }
    }

    if let Some(path) = trace_path {
        let doc = ksa_obs::trace_stop();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            all_ok = false;
        } else {
            println!("wrote chrome://tracing trace to {path}");
        }
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, results_json(&results).to_json_pretty()) {
            eprintln!("failed to write {path}: {e}");
            all_ok = false;
        } else {
            println!("wrote {} experiment results to {path}", results.len());
        }
    }

    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--json` document parses with the shared parser and keeps the
    /// types the benchmark harness reads from it.
    #[test]
    fn json_document_parses_and_keeps_the_read_types() {
        let outcome = |id, certified, checks: Vec<(String, bool)>| ExperimentOutcome {
            id,
            report: String::new(),
            passed: checks.iter().all(|(_, ok)| *ok),
            checks,
            skipped_models: vec!["stars{n=5,s=2}".into()],
            certified,
            certs: Vec::new(),
        };
        let timing = ExperimentTiming {
            queued_ms: 2.26,
            wall_ms: 1.04,
            exclusive_ms: 0.96,
        };
        let results = [
            (
                outcome("fig1", None, vec![("γ_eq = \"4\"\n".into(), true)]),
                timing,
            ),
            (
                outcome(
                    "rounds",
                    Some(true),
                    vec![("a".into(), true), ("b".into(), false)],
                ),
                timing,
            ),
        ];
        let text = results_json(&results).to_json_pretty();
        let doc = ksa_obs::json::parse(text.as_bytes()).expect("valid JSON");
        let Some(Value::Arr(exps)) = doc.get("experiments") else {
            panic!("no experiments array in {text}");
        };
        assert_eq!(exps.len(), 2);
        for (e, (passed, failed, certified)) in exps
            .iter()
            .zip([(true, 0, Value::Null), (false, 1, Value::Bool(true))])
        {
            assert_eq!(e.get("passed"), Some(&Value::Bool(passed)));
            assert_eq!(e.get("checks_failed"), Some(&Value::Int(failed)));
            assert_eq!(e.get("certified"), Some(&certified));
            assert_eq!(e.get("wall_ms"), Some(&Value::Float(1.0)));
        }
        let first_check = match exps[0].get("checks") {
            Some(Value::Arr(checks)) => checks[0].get("what").and_then(Value::as_str),
            _ => None,
        };
        assert_eq!(first_check, Some("γ_eq = \"4\"\n"));
        assert_eq!(
            doc.get("counts").and_then(|c| c.get("rounds")),
            Some(&Value::Str("1/2".into()))
        );
        assert!(matches!(
            doc.get("metrics").and_then(|m| m.get("deterministic")),
            Some(Value::Obj(_))
        ));
        assert!(text.lines().count() > 10, "the document stays multi-line");
    }
}
