//! Homology-backed cross-check of the multi-round lower bounds
//! (Thm 5.1/5.4 at one round, Thm 6.10/6.11 at `r` rounds).
//!
//! The combinatorial multi-round lower bounds say: `k`-set agreement is
//! impossible in `r` rounds because the `r`-round protocol complex is
//! `(k−1)`-connected. [`crate::verify`] checks that claim topologically
//! at one round; this module extends the confrontation to a **round
//! sweep** — it builds the iterated-interpretation complexes of
//! [`ksa_topology::rounds`] for `r = 1, 2, …` over the chromatic input
//! complex and compares each round's measured homological connectivity
//! (DESIGN.md §2.2) with the `l` implied by
//! [`simple_multi_round_lower`](crate::bounds::lower::simple_multi_round_lower)
//! / [`general_multi_round_lower`](crate::bounds::lower::general_multi_round_lower)
//! on the product generators. The `rounds` experiment (EXPERIMENTS.md)
//! tabulates the sweep for the model zoo.
//!
//! The protocol complexes grow exponentially with the round count, so
//! the sweep is budget-guarded end to end ([`RunBudget`]) and intended
//! for the small zoo (`n ≤ 3`, a couple of rounds) — exactly the sizes
//! where the paper's worked examples live.

use crate::bounds::lower::best_lower_bound;
use crate::bounds::LowerBound;
use crate::budget::{CancelToken, RunBudget};
use crate::error::CoreError;
use crate::task::{input_complex, Value};
use ksa_models::ClosedAboveModel;
use ksa_topology::connectivity::Connectivity;
use ksa_topology::rounds::{
    protocol_complex_rounds, protocol_complex_rounds_cancellable, RoundsComplex,
};
use std::fmt;

/// One round of the sweep: the topological measurement next to the
/// combinatorial prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundCrossCheck {
    /// The round count this row is about (1-based).
    pub round: usize,
    /// The strongest combinatorial lower bound at this round, if any
    /// (`None` when no non-trivial impossibility is proved).
    pub lower: Option<LowerBound>,
    /// The connectivity the lower-bound machinery implies for the
    /// protocol complex: `impossible_k − 1`, or `−1` when no bound
    /// applies (every non-void complex is `(−1)`-connected).
    pub predicted_l: isize,
    /// The measured homological connectivity of the round's complex.
    pub measured_connectivity: isize,
    /// The reduced Z/2 Betti numbers of the round's complex.
    pub betti: Vec<usize>,
    /// Facet count of the round's complex (size indicator).
    pub facets: usize,
    /// Distinct views interned at this round (arena footprint).
    pub interned_views: usize,
}

impl RoundCrossCheck {
    /// The theory requires the measured connectivity to reach the
    /// prediction: a violation would refute the combinatorial bound.
    pub fn is_consistent(&self) -> bool {
        self.measured_connectivity >= self.predicted_l
    }
}

/// The full round sweep for one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSweepReport {
    /// Number of processes.
    pub n: usize,
    /// Input values ranged over `{0, …, value_max}`.
    pub value_max: usize,
    /// One row per round, round 1 first.
    pub per_round: Vec<RoundCrossCheck>,
}

impl RoundSweepReport {
    /// Whether every round's measurement supports its prediction.
    pub fn is_consistent(&self) -> bool {
        self.per_round.iter().all(RoundCrossCheck::is_consistent)
    }
}

impl fmt::Display for RoundSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "round sweep for n = {}, values ≤ {}:",
            self.n, self.value_max
        )?;
        for row in &self.per_round {
            writeln!(
                f,
                "  r = {}: facets {:>6}, conn {} (predicted ≥ {}), betti {:?}{}",
                row.round,
                row.facets,
                row.measured_connectivity,
                row.predicted_l,
                row.betti,
                if row.is_consistent() {
                    ""
                } else {
                    "  ← VIOLATION"
                }
            )?;
        }
        Ok(())
    }
}

/// Builds the `rounds`-round iterated protocol complexes of `model` over
/// `Ψ(Π, [0, value_max])` and confronts each round's homological
/// connectivity with the combinatorial multi-round lower bound
/// ([`best_lower_bound`], i.e. Thm 5.1/6.10 on simple models and
/// Thm 5.4/6.11 on general ones, with the scoping of DESIGN.md §5.3).
///
/// # Errors
///
/// [`CoreError::Topology`] when `budget` is exceeded (the input complex
/// and every round's facet product are admitted against it) and for
/// `rounds = 0`; graph-layer errors otherwise.
pub fn cross_check_round_sweep(
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    budget: impl Into<RunBudget>,
) -> Result<RoundSweepReport, CoreError> {
    round_sweep_impl(model, value_max, rounds, budget.into(), None)
}

/// The shared sweep body: builds the round complexes (polling `cancel`
/// per round), sweeps their homology (polling it per rank reduction)
/// and assembles one row per round.
fn round_sweep_impl(
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    budget: RunBudget,
    cancel: Option<&CancelToken>,
) -> Result<RoundSweepReport, CoreError> {
    let rc = build_rounds(model, value_max, rounds, budget, cancel)?;
    // One chain-engine pass per round: each round's Betti numbers and
    // connectivity share a single closure/rank pass (DESIGN.md §7.3).
    let homology = match cancel {
        Some(token) => rc.homology_sweep_cancellable(token)?,
        None => rc.homology_sweep(),
    };
    let per_round = (1..=rounds)
        .zip(homology)
        .map(|(r, step)| {
            let measured_connectivity = match step.connectivity {
                Connectivity::Empty => -2,
                Connectivity::Exactly(k) | Connectivity::AtLeast(k) => k,
            };
            round_row(model, &rc, r, measured_connectivity, step.betti)
        })
        .collect::<Result<_, _>>()?;
    Ok(RoundSweepReport {
        n: ksa_models::ObliviousModel::n(model),
        value_max,
        per_round,
    })
}

/// The `rounds`-round iterated protocol complexes of `model` over
/// `Ψ(Π, [0, value_max])`, admitted against `budget`.
fn build_rounds(
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    budget: RunBudget,
    cancel: Option<&CancelToken>,
) -> Result<RoundsComplex<Value>, CoreError> {
    let n = ksa_models::ObliviousModel::n(model);
    let input = input_complex(n, value_max, budget.max_executions)?;
    Ok(match cancel {
        Some(token) => {
            protocol_complex_rounds_cancellable(model.generators(), &input, rounds, budget, token)?
        }
        None => protocol_complex_rounds(model.generators(), &input, rounds, budget)?,
    })
}

/// One row of the sweep: the round's measured homology next to the
/// lower bound and size indicators — shared by the plain and the
/// certified sweep.
fn round_row(
    model: &ClosedAboveModel,
    rc: &RoundsComplex<Value>,
    round: usize,
    measured_connectivity: isize,
    betti: Vec<usize>,
) -> Result<RoundCrossCheck, CoreError> {
    let lower = best_lower_bound(model, round)?;
    let predicted_l = lower
        .as_ref()
        .map(|b| b.impossible_k as isize - 1)
        .unwrap_or(-1);
    Ok(RoundCrossCheck {
        round,
        lower,
        predicted_l,
        measured_connectivity,
        betti,
        facets: rc
            .complex_at(round)
            .expect("round was materialized")
            .facet_count(),
        interned_views: rc.table_at(round).expect("round was materialized").len(),
    })
}

/// [`cross_check_round_sweep`] plus one machine-checkable
/// [`ksa_cert::HomologyCert`] per round (DESIGN.md §11): every row of
/// the returned report is re-derived through the *certified* Betti
/// path ([`ksa_topology::chain::reduced_betti_certified`]), whose
/// witness a standalone checker can re-verify from the facet list
/// alone. The report is bit-identical to the uncertified sweep — the
/// certified path runs the same engine in the same canonical order and
/// additionally records per-round witnesses.
///
/// Certificates are labelled `"<label> r=<round>"`, round 1 first.
///
/// # Errors
///
/// Same conditions as [`cross_check_round_sweep`].
pub fn cross_check_round_sweep_certified(
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    budget: impl Into<RunBudget>,
    label: &str,
) -> Result<(RoundSweepReport, Vec<ksa_cert::HomologyCert>), CoreError> {
    let rc = build_rounds(model, value_max, rounds, budget.into(), None)?;
    let mut per_round = Vec::with_capacity(rounds);
    let mut certs = Vec::with_capacity(rounds);
    for r in 1..=rounds {
        let complex = rc.complex_at(r).expect("round was materialized");
        let (betti, cert) =
            ksa_topology::chain::reduced_betti_certified(complex, &format!("{label} r={r}"))
                .expect("protocol complexes are never void");
        // `HomologyCert::connectivity` uses the same convention as
        // `Connectivity::from_reduced_betti`: first nonzero index minus
        // one, or the dimension when the table vanishes.
        per_round.push(round_row(model, &rc, r, cert.connectivity as isize, betti)?);
        certs.push(cert);
    }
    Ok((
        RoundSweepReport {
            n: ksa_models::ObliviousModel::n(model),
            value_max,
            per_round,
        },
        certs,
    ))
}

/// [`cross_check_round_sweep`] with the model resolved from the builtin
/// registry by name (any canonical spec string works:
/// `"stars{n=3,s=1}"`, `"random{n=3,p=0.5,seed=7,count=4}"`, …). The
/// same `budget` guards materialization and the sweep, so one ceiling
/// covers the whole confrontation — this is the entry point the `hunt`
/// experiment drives over random ensembles.
///
/// # Errors
///
/// [`CoreError::Model`] for unknown names, admission refusals, and
/// models that are not closed-above (the sweep needs generators); the
/// [`cross_check_round_sweep`] errors otherwise.
pub fn cross_check_round_sweep_by_name(
    name: &str,
    value_max: usize,
    rounds: usize,
    budget: impl Into<RunBudget>,
) -> Result<RoundSweepReport, CoreError> {
    let budget = budget.into();
    let resolved = ksa_models::registry::builtin().resolve(name, budget)?;
    let model = resolved
        .as_closed_above()
        .ok_or_else(|| ksa_models::ModelError::Spec {
            message: format!("{name} is not closed-above; the round sweep needs generators"),
        })?;
    cross_check_round_sweep(model, value_max, rounds, budget)
}

/// [`cross_check_round_sweep_by_name`] with a cooperative
/// [`CancelToken`] — the entry point the analysis server's `rounds`
/// query drives, so client deadlines reach every stage of the pipeline.
/// The token is polled per round in the complex construction and per
/// rank reduction in the homology sweep, and a fired token surfaces as
/// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`]. A token
/// that never fires leaves the report bit-identical to
/// [`cross_check_round_sweep_by_name`] at any `KSA_THREADS`.
///
/// # Errors
///
/// Same conditions as [`cross_check_round_sweep_by_name`], plus the two
/// token variants.
pub fn cross_check_round_sweep_by_name_cancellable(
    name: &str,
    value_max: usize,
    rounds: usize,
    budget: impl Into<RunBudget>,
    cancel: &CancelToken,
) -> Result<RoundSweepReport, CoreError> {
    let budget = budget.into();
    cancel.checkpoint()?;
    let resolved = ksa_models::registry::builtin().resolve(name, budget)?;
    let model = resolved
        .as_closed_above()
        .ok_or_else(|| ksa_models::ModelError::Spec {
            message: format!("{name} is not closed-above; the round sweep needs generators"),
        })?;
    round_sweep_impl(model, value_max, rounds, budget, Some(cancel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_models::named;

    #[test]
    fn by_name_matches_direct_call() {
        let direct =
            cross_check_round_sweep(&named::simple_ring(3).unwrap(), 1, 2, 1_000_000u128).unwrap();
        let by_name = cross_check_round_sweep_by_name("ring{n=3}", 1, 2, 1_000_000u128).unwrap();
        assert_eq!(direct, by_name);
        assert!(cross_check_round_sweep_by_name("no such model", 1, 1, 1_000u128).is_err());
        // Explicit models are rejected with a model error, not a panic.
        assert!(cross_check_round_sweep_by_name("nonsplit{n=3}", 1, 1, 1_000_000u128).is_err());
    }

    #[test]
    fn silent_token_matches_plain_sweep() {
        let plain =
            cross_check_round_sweep(&named::simple_ring(3).unwrap(), 1, 2, 1_000_000u128).unwrap();
        let token = CancelToken::new();
        let by_name =
            cross_check_round_sweep_by_name_cancellable("ring{n=3}", 1, 2, 1_000_000u128, &token)
                .unwrap();
        assert_eq!(plain, by_name);
    }

    #[test]
    fn fired_token_interrupts_the_sweep() {
        let token = CancelToken::new();
        token.cancel();
        let err =
            cross_check_round_sweep_by_name_cancellable("ring{n=3}", 1, 2, 1_000_000u128, &token)
                .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled));
        // Past the by-name entry poll, the pipeline's own polls stop it.
        let model = named::simple_ring(3).unwrap();
        let err =
            round_sweep_impl(&model, 1, 2, RunBudget::new(1_000_000), Some(&token)).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled));
    }

    #[test]
    fn certified_sweep_matches_and_certs_check() {
        let m = named::simple_ring(3).unwrap();
        let plain = cross_check_round_sweep(&m, 1, 2, 1_000_000u128).unwrap();
        let (certified, certs) =
            cross_check_round_sweep_certified(&m, 1, 2, 1_000_000u128, "ring{n=3}").unwrap();
        // The certified path must reproduce the sweep bit-identically.
        assert_eq!(plain, certified);
        assert_eq!(certs.len(), 2);
        for (r, cert) in (1..=2usize).zip(&certs) {
            assert_eq!(cert.label, format!("ring{{n=3}} r={r}"));
            ksa_cert::check_homology(cert).unwrap();
            // Round-trip through the textual format.
            let text = ksa_cert::Cert::Homology(cert.clone()).to_text();
            ksa_cert::Cert::parse(&text).unwrap().check().unwrap();
        }
    }

    #[test]
    fn simple_ring_sweep_is_consistent() {
        // ↑C3: γ(C3) = 2 ⇒ consensus impossible at r = 1 (predicted
        // l = 0); γ(C3²) = 1 ⇒ no bound at r = 2 (predicted l = −1).
        let m = named::simple_ring(3).unwrap();
        let sweep = cross_check_round_sweep(&m, 1, 2, 1_000_000u128).unwrap();
        assert_eq!(sweep.per_round.len(), 2);
        assert_eq!(sweep.per_round[0].predicted_l, 0);
        assert!(sweep.is_consistent(), "{sweep}");
        // The display names violations only when they happen.
        assert!(!sweep.to_string().contains("VIOLATION"));
    }

    #[test]
    fn star_unions_sweep_is_consistent() {
        // Stars n = 3, s = 1: the bound refuses to weaken with rounds
        // (Thm 6.13) — predicted l = 1 at both rounds.
        let m = named::star_unions(3, 1).unwrap();
        let sweep = cross_check_round_sweep(&m, 1, 2, 10_000_000u128).unwrap();
        assert_eq!(sweep.per_round[0].predicted_l, 1);
        assert_eq!(sweep.per_round[1].predicted_l, 1);
        assert!(sweep.is_consistent(), "{sweep}");
        // Facets grow with the round count; the arena keeps the views
        // interned rather than nested.
        assert!(sweep.per_round[1].facets >= sweep.per_round[0].facets);
        assert!(sweep.per_round[1].interned_views > 0);
    }

    #[test]
    fn budget_and_rounds_validated() {
        let m = named::simple_ring(3).unwrap();
        assert!(cross_check_round_sweep(&m, 1, 1, 5u128).is_err());
        assert!(cross_check_round_sweep(&m, 1, 0, 1_000u128).is_err());
    }
}
