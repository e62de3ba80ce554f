//! Exhaustive model checking of k-set agreement on small instances.
//!
//! For a closed-above model, an algorithm and a round count, the checker
//! enumerates **every generator schedule** and **every input assignment**
//! over a value range, runs the execution, and reports:
//!
//! * the worst-case number of distinct decisions (the empirical `k` the
//!   algorithm achieves — it must not exceed the theorem that justifies
//!   the algorithm), and
//! * any validity violation (would indicate an implementation bug),
//! * a witness trace of the worst execution.
//!
//! Playing only generator schedules is sound for these *monotone*
//! min-style algorithms (more edges only merge more views and lower
//! worst-case distinctness is checked separately by
//! [`check_with_supersets`], which additionally samples random
//! supersets to exercise the full closed-above set).

use crate::error::RuntimeError;
use crate::execution::{execute_schedule, ExecutionTrace};
use ksa_core::algorithms::ObliviousAlgorithm;
use ksa_core::task::Value;
use ksa_exec::prelude::*;
use ksa_graphs::budget::RunBudget;
use ksa_models::adversary::generator_schedules;
use ksa_models::ClosedAboveModel;
use ksa_models::ObliviousModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generator schedules pulled per parallel round: bounds the memory
/// held in cloned schedules while keeping every core busy (each
/// schedule expands to `values^n` executions of work).
const SCHEDULE_BATCH: usize = 256;

/// Outcome of an exhaustive (or sampled) check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Executions explored.
    pub executions: usize,
    /// The worst (largest) number of distinct decisions observed.
    pub worst_distinct: usize,
    /// Whether every decision was some process's input.
    pub validity_ok: bool,
    /// A witness achieving `worst_distinct`.
    pub witness: Option<ExecutionTrace>,
}

impl CheckReport {
    fn empty() -> Self {
        CheckReport {
            executions: 0,
            worst_distinct: 0,
            validity_ok: true,
            witness: None,
        }
    }

    /// Folds `other` into `self`. Merging reports in schedule order
    /// reproduces exactly the sequential scan: the witness is the first
    /// trace (in enumeration order) achieving the global worst.
    fn merge(&mut self, other: CheckReport) {
        self.executions += other.executions;
        self.validity_ok &= other.validity_ok;
        if other.worst_distinct > self.worst_distinct {
            self.worst_distinct = other.worst_distinct;
            self.witness = other.witness;
        }
    }
}

/// Enumerates all input assignments over `values` for `n` processes
/// (odometer), applying `f` to each.
fn for_all_inputs(
    n: usize,
    values: usize,
    mut f: impl FnMut(&[Value]) -> Result<(), RuntimeError>,
) -> Result<(), RuntimeError> {
    let mut assignment = vec![0 as Value; n];
    loop {
        f(&assignment)?;
        let mut pos = 0;
        loop {
            if pos == n {
                return Ok(());
            }
            assignment[pos] += 1;
            if (assignment[pos] as usize) < values {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
        }
    }
}

/// Exhaustively checks `algorithm` on `model` for `rounds` rounds over all
/// input assignments from `{0, …, values−1}`, playing **generator
/// schedules only**.
///
/// # Errors
///
/// [`RuntimeError::TooLarge`] when `|generators|^rounds · values^n`
/// exceeds `budget`; [`RuntimeError::BadParameter`] for zero
/// rounds/values.
pub fn check_exhaustive<A: ObliviousAlgorithm + Sync + ?Sized>(
    algorithm: &A,
    model: &ClosedAboveModel,
    values: usize,
    rounds: usize,
    budget: impl Into<RunBudget>,
) -> Result<CheckReport, RuntimeError> {
    let budget = budget.into();
    if values == 0 {
        return Err(RuntimeError::BadParameter {
            name: "values",
            value: 0,
            domain: "[1, ∞)",
        });
    }
    if rounds == 0 {
        return Err(RuntimeError::BadParameter {
            name: "rounds",
            value: 0,
            domain: "[1, ∞)",
        });
    }
    let n = model.n();
    let g = model.generators().len() as u128;
    let total = g
        .checked_pow(rounds as u32)
        .and_then(|s| {
            (values as u128)
                .checked_pow(n as u32)
                .map(|i| s.saturating_mul(i))
        })
        .unwrap_or(u128::MAX);
    budget.admit("exhaustive check", total)?;
    let _span = ksa_obs::span("runtime", || "check_exhaustive").arg("rounds", rounds as u64);

    // One independent sub-report per generator schedule; merged in
    // schedule order, so the report is byte-identical at any pool size.
    let per_schedule = |schedule: &[ksa_graphs::Digraph]| -> Result<CheckReport, RuntimeError> {
        let mut local = CheckReport::empty();
        for_all_inputs(n, values, |inputs| {
            let trace = execute_schedule(algorithm, schedule, inputs)?;
            record(&mut local, trace);
            Ok(())
        })?;
        Ok(local)
    };

    let mut report = CheckReport::empty();
    // Stream schedules in bounded batches (a schedule clones `rounds`
    // digraphs, so a full up-front collect could dwarf the execution
    // count in memory) and merge in schedule order.
    let mut schedules = generator_schedules(model, rounds);
    loop {
        let batch: Vec<Vec<ksa_graphs::Digraph>> =
            schedules.by_ref().take(SCHEDULE_BATCH).collect();
        if batch.is_empty() {
            break;
        }
        let partials: Vec<Result<CheckReport, RuntimeError>> = batch
            .par_iter()
            .map(|schedule| per_schedule(schedule))
            .collect();
        for partial in partials {
            report.merge(partial?);
        }
    }
    ksa_obs::count(
        ksa_obs::Counter::CheckerExecutions,
        report.executions as u64,
    );
    Ok(report)
}

/// Like [`check_exhaustive`], but each enumerated schedule is additionally
/// perturbed with `samples` random superset schedules (seeded), to
/// exercise non-minimal graphs of the closed-above model.
///
/// # Errors
///
/// Same conditions as [`check_exhaustive`].
pub fn check_with_supersets<A: ObliviousAlgorithm + Sync + ?Sized>(
    algorithm: &A,
    model: &ClosedAboveModel,
    values: usize,
    rounds: usize,
    samples: usize,
    seed: u64,
    budget: impl Into<RunBudget>,
) -> Result<CheckReport, RuntimeError> {
    let mut base = check_exhaustive(algorithm, model, values, rounds, budget)?;
    // The exhaustive prefix already counted its executions above; only
    // the superset samples below are new.
    let exhaustive_executions = base.executions;
    let n = model.n();

    // Each schedule perturbs with its own generator, derived from
    // (seed, schedule index) — schedules are independent streams, so the
    // sample is identical at any pool size.
    let per_schedule =
        |(idx, schedule): (usize, &[ksa_graphs::Digraph])| -> Result<CheckReport, RuntimeError> {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut local = CheckReport::empty();
            for _ in 0..samples {
                let lifted: Vec<ksa_graphs::Digraph> = schedule
                    .iter()
                    .map(|g| ksa_graphs::random::random_superset(g, &mut rng))
                    .collect::<Result<_, _>>()?;
                for_all_inputs(n, values, |inputs| {
                    let trace = execute_schedule(algorithm, &lifted, inputs)?;
                    record(&mut local, trace);
                    Ok(())
                })?;
            }
            Ok(local)
        };

    let mut schedules = generator_schedules(model, rounds).enumerate();
    loop {
        let batch: Vec<(usize, Vec<ksa_graphs::Digraph>)> =
            schedules.by_ref().take(SCHEDULE_BATCH).collect();
        if batch.is_empty() {
            break;
        }
        let partials: Vec<Result<CheckReport, RuntimeError>> = batch
            .par_iter()
            .map(|(idx, schedule)| per_schedule((*idx, schedule.as_slice())))
            .collect();
        for partial in partials {
            base.merge(partial?);
        }
    }
    ksa_obs::count(
        ksa_obs::Counter::CheckerExecutions,
        (base.executions - exhaustive_executions) as u64,
    );
    Ok(base)
}

fn record(report: &mut CheckReport, trace: ExecutionTrace) {
    report.executions += 1;
    for d in &trace.decisions {
        if !trace.inputs.contains(d) {
            report.validity_ok = false;
        }
    }
    let distinct = trace.distinct_decisions();
    if distinct > report.worst_distinct {
        report.worst_distinct = distinct;
        report.witness = Some(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_core::algorithms::{MinOfAll, MinOfDominatingSet};
    use ksa_core::bounds::report::BoundsReport;
    use ksa_models::named;

    #[test]
    fn min_of_all_respects_gamma_eq_on_kernel_model() {
        // Thm 3.4: γ_eq(kernel n=4) = 4... the min algorithm never exceeds
        // it (trivially ≤ n); more interesting below with stars where the
        // bound is n − s + 1.
        let m = named::star_unions(4, 2).unwrap(); // γ_eq = 3
        let rep = check_exhaustive(&MinOfAll::new(), &m, 3, 1, 10_000_000).unwrap();
        assert!(rep.validity_ok);
        assert!(rep.worst_distinct <= 3, "worst = {}", rep.worst_distinct);
        assert!(rep.executions > 0);
    }

    #[test]
    fn min_of_all_achieves_the_lower_bound_on_stars() {
        // Thm 6.13: (n−s)-set agreement impossible. The min algorithm must
        // actually exhibit n−s+1 distinct decisions somewhere (tightness).
        let (n, s) = (4, 2);
        let m = named::star_unions(n, s).unwrap();
        let rep = check_exhaustive(&MinOfAll::new(), &m, n, 1, 100_000_000).unwrap();
        assert_eq!(rep.worst_distinct, n - s + 1);
        let w = rep.witness.expect("worst witness recorded");
        assert_eq!(w.distinct_decisions(), n - s + 1);
    }

    #[test]
    fn dominating_set_algorithm_meets_gamma_on_simple_ring() {
        // Thm 3.2: γ(C4) = 2; the dominating-set algorithm decides ≤ 2
        // values on every graph of ↑C4 (generator + sampled supersets).
        let m = named::simple_ring(4).unwrap();
        let alg = MinOfDominatingSet::for_graph(&m.generators()[0]);
        let rep = check_with_supersets(&alg, &m, 3, 1, 5, 0xBEEF, 100_000_000).unwrap();
        assert!(rep.validity_ok);
        assert!(rep.worst_distinct <= 2, "worst = {}", rep.worst_distinct);
        // And 2 is achieved (the bound is tight, Thm 5.1).
        assert_eq!(rep.worst_distinct, 2);
    }

    #[test]
    fn min_of_all_matches_report_upper_bound_across_zoo() {
        // The flood-and-min algorithm realizes the γ_eq and sequence
        // upper bounds; its worst case must stay within the best
        // *min-algorithm-realizable* bound (γ_eq / covering / sequences).
        for m in [
            named::star_unions(3, 1).unwrap(),
            named::star_unions(4, 3).unwrap(),
            named::symmetric_ring(4).unwrap(),
        ] {
            for rounds in 1..=2 {
                let report = BoundsReport::compute(&m, rounds).unwrap();
                // Thm 3.2's dominating-set bound needs knowledge of the
                // generator; the flooding algorithm realizes the others.
                let realizable = report
                    .uppers
                    .iter()
                    .filter(|u| u.theorem != "Thm 3.2" && u.theorem != "Thm 6.3")
                    .map(|u| u.k)
                    .min()
                    .expect("γ_eq bound always present");
                let chk = check_exhaustive(&MinOfAll::new(), &m, 3, rounds, 100_000_000).unwrap();
                assert!(
                    chk.worst_distinct <= realizable,
                    "{m:?} r={rounds}: worst {} > bound {realizable}",
                    chk.worst_distinct
                );
                assert!(chk.validity_ok);
            }
        }
    }

    #[test]
    fn multi_round_improves_observed_agreement() {
        let m = named::simple_ring(4).unwrap();
        let r1 = check_exhaustive(&MinOfAll::new(), &m, 2, 1, 10_000_000).unwrap();
        let r3 = check_exhaustive(&MinOfAll::new(), &m, 2, 3, 10_000_000).unwrap();
        assert!(r3.worst_distinct <= r1.worst_distinct);
        assert_eq!(r3.worst_distinct, 1, "C4^3 is complete: consensus");
    }

    #[test]
    fn budget_enforced() {
        let m = named::symmetric_ring(5).unwrap();
        assert!(check_exhaustive(&MinOfAll::new(), &m, 5, 3, 1000).is_err());
    }

    #[test]
    fn parameters_validated() {
        let m = named::simple_ring(3).unwrap();
        assert!(check_exhaustive(&MinOfAll::new(), &m, 0, 1, 1000).is_err());
        assert!(check_exhaustive(&MinOfAll::new(), &m, 2, 0, 1000).is_err());
    }

    #[test]
    fn witness_is_reproducible() {
        let m = named::star_unions(3, 1).unwrap();
        let rep = check_exhaustive(&MinOfAll::new(), &m, 3, 1, 1_000_000).unwrap();
        let w = rep.witness.expect("nonempty exploration");
        // Re-running the witness schedule yields the same decisions.
        let again = execute_schedule(&MinOfAll::new(), &w.graphs, &w.inputs).unwrap();
        assert_eq!(again.decisions, w.decisions);
    }
}
