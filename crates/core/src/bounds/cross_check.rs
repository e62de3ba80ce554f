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
use crate::error::CoreError;
use crate::task::input_complex;
use ksa_graphs::budget::RunBudget;
use ksa_graphs::cancel::CancelToken;
use ksa_graphs::ctx::Ctx;
use ksa_models::ClosedAboveModel;
use ksa_topology::connectivity::Connectivity;
use ksa_topology::rounds::protocol_complex_rounds;
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
/// `ctx.budget` admits the input complex and every round's facet
/// product; `ctx.cancel` is polled per round in the construction and
/// per rank reduction in the homology sweep. With `ctx.certs` set, every
/// round's Betti numbers go through the witnessed kernel and one
/// [`ksa_cert::HomologyCert`] per round lands in the sink, labelled
/// `"<sink label> r=<round>"`, round 1 first (DESIGN.md §11). The report
/// is bit-identical with or without a sink, and with a token that never
/// fires, at any `KSA_THREADS`.
///
/// To sweep a builtin registry model by name, resolve it first with
/// [`ksa_models::registry::Registry::resolve_closed_above`] under the
/// same budget (the `hunt` experiment and the analysis server do).
///
/// # Errors
///
/// [`CoreError::Topology`] when the budget is exceeded and for
/// `rounds = 0`; [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`]
/// when the token fires; graph-layer errors otherwise.
pub fn cross_check_round_sweep<'a>(
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    ctx: impl Into<Ctx<'a>>,
) -> Result<RoundSweepReport, CoreError> {
    let ctx = ctx.into();
    ctx.cancel.checkpoint()?;
    let n = ksa_models::ObliviousModel::n(model);
    let input = input_complex(n, value_max, ctx.budget.max_executions)?;
    let rc = protocol_complex_rounds(model.generators(), &input, rounds, ctx.clone())?;
    // One chain-engine pass per round: each round's Betti numbers and
    // connectivity share a single closure/rank pass (DESIGN.md §7.3).
    let per_round = (1..=rounds)
        .zip(rc.homology_sweep(ctx)?)
        .map(|(round, step)| {
            let lower = best_lower_bound(model, round)?;
            Ok(RoundCrossCheck {
                round,
                predicted_l: lower.as_ref().map_or(-1, |b| b.impossible_k as isize - 1),
                lower,
                measured_connectivity: match step.connectivity {
                    Connectivity::Empty => -2,
                    Connectivity::Exactly(k) | Connectivity::AtLeast(k) => k,
                },
                betti: step.betti,
                facets: rc
                    .complex_at(round)
                    .expect("round was materialized")
                    .facet_count(),
                interned_views: rc.table_at(round).expect("round was materialized").len(),
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(RoundSweepReport {
        n,
        value_max,
        per_round,
    })
}

/// [`cross_check_round_sweep`] with its homology certificates. Kept
/// only for `perfbench`; removed when the benchmark harness moves onto `Ctx`.
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
    let sink = ksa_cert::CertSink::new(label);
    let report = cross_check_round_sweep(
        model,
        value_max,
        rounds,
        Ctx {
            certs: Some(&sink),
            ..Ctx::from(budget.into())
        },
    )?;
    Ok((
        report,
        sink.into_certs()
            .into_iter()
            .filter_map(ksa_cert::Cert::into_homology)
            .collect(),
    ))
}

/// [`cross_check_round_sweep`] on a builtin registry model, with a
/// token. Kept only for `perfbench`; removed when the benchmark harness moves onto `Ctx`.
///
/// # Errors
///
/// [`CoreError::Model`] for unknown names, admission refusals and
/// models that are not closed-above; the [`cross_check_round_sweep`]
/// errors otherwise.
pub fn cross_check_round_sweep_by_name_cancellable(
    name: &str,
    value_max: usize,
    rounds: usize,
    budget: impl Into<RunBudget>,
    cancel: &CancelToken,
) -> Result<RoundSweepReport, CoreError> {
    let budget = budget.into();
    let model = ksa_models::registry::builtin().resolve_closed_above(name, budget)?;
    cross_check_round_sweep(
        &model,
        value_max,
        rounds,
        Ctx {
            cancel: cancel.clone(),
            ..Ctx::from(budget)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_models::named;

    #[test]
    fn by_name_matches_direct_call() {
        let direct =
            cross_check_round_sweep(&named::simple_ring(3).unwrap(), 1, 2, 1_000_000u128).unwrap();
        let reg = ksa_models::registry::builtin();
        let resolved = reg
            .resolve_closed_above("ring{n=3}", 1_000_000u128)
            .unwrap();
        assert_eq!(
            cross_check_round_sweep(&resolved, 1, 2, 1_000_000u128).unwrap(),
            direct
        );
        assert!(reg
            .resolve_closed_above("no such model", 1_000u128)
            .is_err());
        // Explicit models are rejected with a model error, not a panic.
        assert!(reg
            .resolve_closed_above("nonsplit{n=3}", 1_000_000u128)
            .is_err());
    }

    #[test]
    fn silent_token_matches_plain_sweep() {
        let m = named::simple_ring(3).unwrap();
        let plain = cross_check_round_sweep(&m, 1, 2, 1_000_000u128).unwrap();
        let token = CancelToken::new();
        let ctx = Ctx {
            cancel: token,
            ..Ctx::from(1_000_000u128)
        };
        assert_eq!(cross_check_round_sweep(&m, 1, 2, ctx).unwrap(), plain);
    }

    #[test]
    fn fired_token_interrupts_the_sweep() {
        let ctx = Ctx::from(1_000_000u128);
        ctx.cancel.cancel();
        let m = named::simple_ring(3).unwrap();
        let err = cross_check_round_sweep(&m, 1, 2, ctx).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled));
    }

    #[test]
    fn certified_sweep_matches_and_certs_check() {
        let m = named::simple_ring(3).unwrap();
        let plain = cross_check_round_sweep(&m, 1, 2, 1_000_000u128).unwrap();
        let sink = ksa_cert::CertSink::new("ring{n=3}");
        let ctx = Ctx {
            certs: Some(&sink),
            ..Ctx::from(1_000_000u128)
        };
        // The certified path must reproduce the sweep bit-identically.
        assert_eq!(cross_check_round_sweep(&m, 1, 2, ctx).unwrap(), plain);
        let certs = sink.into_certs();
        assert_eq!(certs.len(), 2);
        for (r, cert) in (1..=2usize).zip(&certs) {
            assert_eq!(cert.kind(), "homology");
            assert_eq!(cert.label(), format!("ring{{n=3}} r={r}"));
            cert.check().unwrap();
            // Round-trip through the textual format.
            ksa_cert::Cert::parse(&cert.to_text())
                .unwrap()
                .check()
                .unwrap();
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
