//! An exact decision procedure for **one-round oblivious solvability** of
//! k-set agreement on a closed-above model (extension beyond the paper).
//!
//! The paper sandwiches solvability between algorithmic upper bounds and
//! topological lower bounds. For small models we can do better: decide it
//! outright. A one-round oblivious algorithm (Def 2.5) *is* a map
//! `δ : flat view → value`, and (for inputs ranging over all assignments
//! of a finite value set) validity forces `δ(V) ∈ values(V)` — deciding a
//! value not heard is invalid in some compatible execution. So:
//!
//! > k-set agreement is solvable in one round by an oblivious algorithm
//! > with inputs from `{0..v}` **iff** there is an assignment of a heard
//! > value to every reachable flat view such that every execution (input
//! > assignment × allowed graph) sees at most `k` distinct values.
//!
//! The executions of a closed-above model factor exactly through the
//! per-process superset choices (Lemma 4.8), so the search space is finite
//! and complete. This module enumerates it and decides the CSP with a
//! **pruned search** built from three mutually-reinforcing reductions
//! (DESIGN.md §10):
//!
//! * **Unit propagation** — domains are value bitmasks; each ≤-k-distinct
//!   constraint runs generalized arc consistency to fixpoint (once an
//!   execution has `k` forced values, every other view in it must repeat
//!   one). The paper's hard refutations (the star-union kernels) collapse
//!   at the root under propagation alone.
//! * **Orbit symmetry breaking** — the instance inherits a symmetry group
//!   from the model: process permutations stabilizing the generator set
//!   ([`ksa_graphs::perm::stabilizing_permutations`]) × permutations of
//!   the value set. Partial assignments are keyed by the lex-least image
//!   of their decision set under the group; sibling branches with equal
//!   canonical keys are orbit duplicates and explored once.
//! * **A monotone no-good table** — refuted canonical decision sets are
//!   published to a shared, lock-sharded [`NoGoodTable`]. Every entry
//!   is a fact about the *instance* ("no solution extends this orbit"),
//!   never about one strategy's schedule, so lookups only skip work and
//!   can never flip a verdict: determinism at any `KSA_THREADS` holds by
//!   construction.
//!
//! Strategy variants (value-iteration direction, tie-breaking rule)
//! race on the `ksa-exec` work-stealing pool sharing one table; the
//! first to complete cancels the rest.
//! Verdicts are intrinsic to the instance, hence identical at any thread
//! count (only the synthesized witness map may differ — any witness
//! returned is valid). [`decide_one_round_seq`] keeps the historical
//! forward-checking search, untouched, as the differential-test oracle.
//! The up-front [`RunBudget`] guard makes oversized instances fail fast
//! instead of enumerating unbounded superset spaces.
//!
//! Across `k`, verdicts are **monotone**: a witness for `k` (values
//! `{0..k}`) lifts to a witness for `k+1` (values `{0..k+1}`), and an
//! impossibility at `k` implies impossibility at `k−1`.
//! [`decide_one_round_sweep`] exploits both directions, binary-searching
//! the solvability boundary instead of deciding every `(model, k)` pair
//! from scratch.
//!
//! `Unsolvable` verdicts over the value range `{0, …, k}` imply general
//! unsolvability (an adversary can always restrict inputs), making this an
//! independent, non-topological check of Thm 5.4's impossibilities — see
//! the `solv` experiment.

use crate::error::CoreError;
use crate::task::Value;
use ksa_exec::prelude::*;
use ksa_graphs::budget::RunBudget;
use ksa_graphs::cancel::CancelToken;
use ksa_graphs::ctx::Ctx;
use ksa_graphs::Digraph;
use ksa_models::ClosedAboveModel;
use ksa_models::ObliviousModel;
use ksa_topology::interpretation::FlatView;
use std::collections::{HashMap, HashSet};

/// How many input assignments each parallel batch spans. Batches are
/// enumerated in odometer order and merged in order, so the view/exec
/// numbering is identical to the sequential scan.
const INPUT_BATCH: usize = 512;

/// Iterator over all input assignments of `n` processes over
/// `{0, …, values − 1}`, in odometer order (process 0 fastest). Shared
/// with [`crate::verify::verify_decision_map`]'s replay.
pub(crate) fn input_assignments(n: usize, values: Value) -> impl Iterator<Item = Vec<Value>> {
    let mut next: Option<Vec<Value>> = Some(vec![0 as Value; n]);
    std::iter::from_fn(move || {
        let current = next.take()?;
        let mut succ = current.clone();
        let mut p = 0;
        loop {
            if p == n {
                break;
            }
            succ[p] += 1;
            if succ[p] < values {
                next = Some(succ);
                break;
            }
            succ[p] = 0;
            p += 1;
        }
        Some(current)
    })
}

/// The views and executions reachable from one input assignment —
/// views are locally numbered; [`EnumerationMerger`] renumbers them
/// globally.
struct LocalEnumeration {
    views: Vec<FlatView<Value>>,
    /// Executions as sorted, deduplicated local view-id sets.
    executions: Vec<Vec<u32>>,
}

/// Accumulates [`LocalEnumeration`]s (in input order) into the global
/// view table and execution set, enforcing `exec_limit`.
struct EnumerationMerger {
    view_ids: HashMap<FlatView<Value>, u32>,
    views: Vec<FlatView<Value>>,
    executions: Vec<Vec<u32>>,
    seen_exec: std::collections::HashSet<Vec<u32>>,
    exec_limit: usize,
}

impl EnumerationMerger {
    fn new(exec_limit: usize) -> Self {
        EnumerationMerger {
            view_ids: HashMap::new(),
            views: Vec::new(),
            executions: Vec::new(),
            seen_exec: std::collections::HashSet::new(),
            exec_limit,
        }
    }

    fn absorb(&mut self, local: LocalEnumeration) -> Result<(), CoreError> {
        let remap: Vec<u32> = local
            .views
            .into_iter()
            .map(|view| {
                let next_id = self.views.len() as u32;
                *self.view_ids.entry(view.clone()).or_insert_with(|| {
                    self.views.push(view);
                    next_id
                })
            })
            .collect();
        for exec in local.executions {
            let mut mapped: Vec<u32> = exec.into_iter().map(|v| remap[v as usize]).collect();
            mapped.sort_unstable();
            mapped.dedup();
            if self.seen_exec.insert(mapped.clone()) {
                self.executions.push(mapped);
                if self.executions.len() > self.exec_limit {
                    return Err(CoreError::Topology(ksa_topology::TopologyError::TooLarge {
                        what: "solvability executions",
                        estimated: self.executions.len() as u128,
                        limit: self.exec_limit as u128,
                    }));
                }
            }
        }
        Ok(())
    }
}

/// Verdict of the decision procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solvability {
    /// A decision map exists; the witness maps each reachable flat view to
    /// its decision.
    Solvable(DecisionMap),
    /// No decision map exists: k-set agreement is not solvable in one
    /// round by any oblivious algorithm, for inputs over the given values.
    Unsolvable,
    /// The node budget was exhausted before the search completed.
    Unknown,
}

impl Solvability {
    /// Whether the verdict is `Solvable`.
    pub fn is_solvable(&self) -> bool {
        matches!(self, Solvability::Solvable(_))
    }
}

/// A witnessing oblivious decision map (flat view → decided value).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionMap {
    entries: Vec<(FlatView<Value>, Value)>,
}

impl DecisionMap {
    /// The decision for a flat view, if the view was reachable in the
    /// analyzed model.
    pub fn decide(&self, view: &FlatView<Value>) -> Option<Value> {
        self.entries
            .binary_search_by(|(v, _)| v.cmp(view))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of distinct reachable views.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(flat view, decision)` entries in canonical sorted order —
    /// the raw material of a [`ksa_cert::SolvabilityCert`]. The map
    /// itself stays sealed; this is a read-only window.
    pub fn entries(&self) -> impl Iterator<Item = &(FlatView<Value>, Value)> {
        self.entries.iter()
    }
}

impl crate::algorithms::ObliviousAlgorithm for DecisionMap {
    fn name(&self) -> &'static str {
        "synthesized-decision-map"
    }

    fn decide(&self, _me: usize, view: &FlatView<Value>) -> Value {
        DecisionMap::decide(self, view).unwrap_or_else(|| {
            // Unreachable views (shouldn't occur on the analyzed model):
            // fall back to the minimum heard value.
            view.iter().map(|&(_, v)| v).min().expect("non-empty view")
        })
    }
}

/// The views and executions reachable from one input assignment of the
/// one-round decider: every generator, every per-process superset choice
/// (the odometer over "free bits" — processes not already heard).
fn one_round_enumerate_input(
    model: &ClosedAboveModel,
    n: usize,
    inputs: &[Value],
) -> LocalEnumeration {
    let mut local_ids: HashMap<FlatView<Value>, u32> = HashMap::new();
    let mut local_seen: std::collections::HashSet<Vec<u32>> = std::collections::HashSet::new();
    let mut local = LocalEnumeration {
        views: Vec::new(),
        executions: Vec::new(),
    };
    for g in model.generators() {
        // Per-process free bits (processes not already heard).
        let bases: Vec<ksa_graphs::ProcSet> = (0..n).map(|p| g.in_set(p)).collect();
        let frees: Vec<Vec<usize>> = bases
            .iter()
            .map(|b| b.complement(n).iter().collect())
            .collect();
        // Odometer over all per-process superset choices.
        let mut choice: Vec<u64> = vec![0; n];
        loop {
            let mut exec: Vec<u32> = Vec::with_capacity(n);
            for p in 0..n {
                let mut senders = bases[p];
                for (bit, &q) in frees[p].iter().enumerate() {
                    if (choice[p] >> bit) & 1 == 1 {
                        senders.insert(q);
                    }
                }
                let view: FlatView<Value> = senders.iter().map(|q| (q, inputs[q])).collect();
                let next_id = local.views.len() as u32;
                let id = *local_ids.entry(view.clone()).or_insert_with(|| {
                    local.views.push(view);
                    next_id
                });
                exec.push(id);
            }
            exec.sort_unstable();
            exec.dedup();
            if local_seen.insert(exec.clone()) {
                local.executions.push(exec);
            }
            // Advance the odometer.
            let mut p = 0;
            loop {
                if p == n {
                    break;
                }
                choice[p] += 1;
                if choice[p] < (1u64 << frees[p].len()) {
                    break;
                }
                choice[p] = 0;
                p += 1;
            }
            if p == n {
                break;
            }
        }
    }
    local
}

/// Merges every input assignment's local enumeration sequentially, in
/// odometer order.
fn merge_all_seq<F>(
    n: usize,
    values: Value,
    exec_limit: usize,
    enumerate: F,
) -> Result<EnumerationMerger, CoreError>
where
    F: Fn(&[Value]) -> LocalEnumeration,
{
    let mut merger = EnumerationMerger::new(exec_limit);
    for inputs in input_assignments(n, values) {
        merger.absorb(enumerate(&inputs))?;
    }
    Ok(merger)
}

/// Merges every input assignment's local enumeration, fanning the
/// assignments out on the work-stealing pool in bounded batches. Local
/// enumerations merge in odometer order, so the view and execution
/// numbering is identical to [`merge_all_seq`].
fn merge_all<F>(
    n: usize,
    values: Value,
    exec_limit: usize,
    enumerate: F,
) -> Result<EnumerationMerger, CoreError>
where
    F: Fn(&[Value]) -> LocalEnumeration + Sync,
{
    let mut merger = EnumerationMerger::new(exec_limit);
    let mut assignments = input_assignments(n, values);
    loop {
        let batch: Vec<Vec<Value>> = assignments.by_ref().take(INPUT_BATCH).collect();
        if batch.is_empty() {
            break;
        }
        let locals: Vec<LocalEnumeration> =
            batch.par_iter().map(|inputs| enumerate(inputs)).collect();
        for local in locals {
            merger.absorb(local)?;
        }
    }
    Ok(merger)
}

/// Upper bound on the raw superset-odometer space the one-round decider
/// scans: `values^n` input assignments × `Σ_g 2^{free bits of g}`
/// superset choices. This is what actually bounds the *work* (distinct
/// executions after dedup can be far fewer), so it is what the
/// [`RunBudget`] admits up front.
fn one_round_raw_estimate(model: &ClosedAboveModel, n: usize, values: Value) -> u128 {
    let inputs = (values as u128).checked_pow(n as u32).unwrap_or(u128::MAX);
    let mut per_input: u128 = 0;
    for g in model.generators() {
        let free_bits: u32 = (0..n)
            .map(|p| g.in_set(p).complement(n).iter().count() as u32)
            .sum();
        let supersets = if free_bits >= 127 {
            u128::MAX
        } else {
            1u128 << free_bits
        };
        per_input = per_input.saturating_add(supersets);
    }
    inputs.saturating_mul(per_input)
}

fn validate_k(k: usize) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::BadParameter {
            name: "k",
            value: 0,
            domain: "[1, n]",
        });
    }
    Ok(())
}

/// Decides one-round oblivious solvability of k-set agreement on `model`
/// with inputs from `{0, …, value_max}`.
///
/// `exec_limit` is the [`RunBudget`] of the search: it bounds both the
/// raw superset space scanned by the enumeration (checked **up front**,
/// so oversized instances fail fast instead of running unbounded) and
/// the number of distinct executions retained. `node_budget` bounds the
/// backtracking nodes per search strategy (exceeding it returns
/// [`Solvability::Unknown`]).
///
/// The CSP runs the pruned search (propagation, orbit symmetry breaking
/// and a no-good table, racing strategy variants on the work-stealing
/// pool — see the module docs). Decided verdicts
/// (`Solvable`/`Unsolvable`) are intrinsic to the instance and
/// therefore identical to [`decide_one_round_seq`] at any thread count;
/// at the `node_budget` boundary, however, the pruned search may decide
/// an instance the sequential scan gives up on (it returns a verdict
/// where the reference returns [`Solvability::Unknown`] — never a
/// *different* decided verdict).
///
/// # Errors
///
/// [`CoreError::BadParameter`] for `k = 0`; [`CoreError::Budget`] when
/// the superset space exceeds `exec_limit`; [`CoreError::Topology`]
/// (budget) when the distinct-execution count exceeds `exec_limit`.
pub fn decide_one_round(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    exec_limit: usize,
    node_budget: usize,
) -> Result<Solvability, CoreError> {
    decide_in(
        model,
        k,
        value_max,
        node_budget,
        &Ctx::from(exec_limit as u128),
    )
}

/// [`decide_one_round`] under `ctx`, whose budget is the exec limit:
/// the racing portfolio polls a *child* of `ctx.cancel` at every
/// decision node, so an external cancellation (or deadline) stops all
/// strategies and surfaces as [`CoreError::Cancelled`] /
/// [`CoreError::DeadlineExceeded`] instead of a verdict. A token that
/// never fires is side-effect-free: verdicts stay bit-identical at any
/// `KSA_THREADS`.
fn decide_in(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    node_budget: usize,
    ctx: &Ctx<'_>,
) -> Result<Solvability, CoreError> {
    validate_k(k)?;
    ctx.cancel.checkpoint()?;
    let n = model.n();
    let values = value_max as Value + 1;
    ctx.budget.admit(
        "solvability superset enumeration",
        one_round_raw_estimate(model, n, values),
    )?;
    // The executions of one input assignment are independent of every
    // other assignment's, so assignments are the parallel work unit.
    let merger = merge_all(n, values, exec_limit(ctx), |inputs: &[Value]| {
        one_round_enumerate_input(model, n, inputs)
    })?;
    let verdict = solve_csp(
        model.generators(),
        values,
        merger.views,
        merger.executions,
        k,
        node_budget,
        &ctx.cancel,
    )?;
    // A fired token degrades the search to `Unknown` (abandoned
    // subtrees publish nothing); report the interruption instead.
    ctx.cancel.checkpoint()?;
    Ok(verdict)
}

/// The retained-execution cap of a search under `ctx`: its budget.
fn exec_limit(ctx: &Ctx<'_>) -> usize {
    usize::try_from(ctx.budget.max_executions).unwrap_or(usize::MAX)
}

/// The sequential reference implementation of [`decide_one_round`]:
/// single-threaded enumeration and the canonical most-constrained-first
/// backtracking search.
///
/// Exists so tests (and skeptical users) can cross-check that the
/// portfolio search returns the same verdicts.
///
/// # Errors
///
/// Same conditions as [`decide_one_round`].
pub fn decide_one_round_seq(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    exec_limit: usize,
    node_budget: usize,
) -> Result<Solvability, CoreError> {
    validate_k(k)?;
    let n = model.n();
    let values = value_max as Value + 1;
    RunBudget::new(exec_limit as u128).admit(
        "solvability superset enumeration",
        one_round_raw_estimate(model, n, values),
    )?;
    let merger = merge_all_seq(n, values, exec_limit, |inputs: &[Value]| {
        one_round_enumerate_input(model, n, inputs)
    })?;
    solve_csp_seq(
        CspInstance::new(merger.views, merger.executions, k),
        node_budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_models::named;

    const EXECS: usize = 2_000_000;
    const NODES: usize = 50_000_000;

    #[test]
    fn kernel_n3_boundary() {
        // Stars s=1, n=3: Thm 5.4 says 2-set impossible; γ_eq = 3 says
        // 3-set solvable. The decision procedure finds exactly that
        // boundary.
        let m = named::star_unions(3, 1).unwrap();
        let s2 = decide_one_round(&m, 2, 2, EXECS, NODES).unwrap();
        assert_eq!(s2, Solvability::Unsolvable);
        let s3 = decide_one_round(&m, 3, 3, EXECS, NODES).unwrap();
        assert!(s3.is_solvable());
    }

    #[test]
    fn ring_n3_boundary() {
        // Sym(C3): γ_eq(C3) = 2 upper; Thm 5.4 l+1 = 1: consensus
        // impossible; 2-set solvable.
        let m = named::symmetric_ring(3).unwrap();
        let s1 = decide_one_round(&m, 1, 1, EXECS, NODES).unwrap();
        assert_eq!(s1, Solvability::Unsolvable);
        let s2 = decide_one_round(&m, 2, 2, EXECS, NODES).unwrap();
        assert!(s2.is_solvable());
    }

    #[test]
    fn stars_n3_s2_solves_2set() {
        // n=3, s=2: upper n−s+1 = 2, lower n−s = 1 impossible.
        let m = named::star_unions(3, 2).unwrap();
        assert_eq!(
            decide_one_round(&m, 1, 1, EXECS, NODES).unwrap(),
            Solvability::Unsolvable
        );
        assert!(decide_one_round(&m, 2, 2, EXECS, NODES)
            .unwrap()
            .is_solvable());
    }

    #[test]
    fn witness_is_a_working_algorithm() {
        use ksa_graphs::closure::enumerate_closure;
        let m = named::star_unions(3, 2).unwrap();
        let Solvability::Solvable(map) = decide_one_round(&m, 2, 2, EXECS, NODES).unwrap() else {
            panic!("solvable");
        };
        assert!(!map.is_empty());
        // Replay the witness over the whole model: never more than 2
        // distinct decisions, always valid.
        let mut graphs = Vec::new();
        for g in m.generators() {
            graphs.extend(enumerate_closure(g, 1 << 10).unwrap());
        }
        graphs.sort();
        graphs.dedup();
        for a in 0..3u32 {
            for b in 0..3u32 {
                for c in 0..3u32 {
                    let inputs = [a, b, c];
                    for g in &graphs {
                        let mut decs: Vec<Value> = Vec::new();
                        for p in 0..3 {
                            let view: Vec<(usize, Value)> =
                                g.in_set(p).iter().map(|q| (q, inputs[q])).collect();
                            let d = map.decide(&view).expect("reachable view");
                            assert!(inputs.contains(&d), "validity");
                            decs.push(d);
                        }
                        decs.sort_unstable();
                        decs.dedup();
                        assert!(decs.len() <= 2, "agreement");
                    }
                }
            }
        }
    }

    #[test]
    fn clique_solves_consensus() {
        let m = ksa_models::ClosedAboveModel::new(vec![ksa_graphs::Digraph::complete(3).unwrap()])
            .unwrap();
        assert!(decide_one_round(&m, 1, 1, EXECS, NODES)
            .unwrap()
            .is_solvable());
    }

    #[test]
    fn simple_ring_matches_thm_5_1() {
        // ↑C3: γ(C3) = 2; 1-set impossible, 2-set solvable — including by
        // the synthesized map.
        let m = named::simple_ring(3).unwrap();
        assert_eq!(
            decide_one_round(&m, 1, 1, EXECS, NODES).unwrap(),
            Solvability::Unsolvable
        );
        assert!(decide_one_round(&m, 2, 2, EXECS, NODES)
            .unwrap()
            .is_solvable());
    }

    #[test]
    fn parameters_validated() {
        let m = named::simple_ring(3).unwrap();
        assert!(decide_one_round(&m, 0, 1, EXECS, NODES).is_err());
        // Tiny execution budget trips the guard.
        assert!(decide_one_round(&m, 2, 2, 1, NODES).is_err());
    }

    #[test]
    fn oversized_instance_fails_fast() {
        // n = 6 star unions: the raw superset odometer is ~2^25 choices
        // per graph × 64 inputs — far past any reasonable exec budget.
        // The up-front RunBudget admit must reject it immediately
        // (previously the enumeration scanned the whole raw space and
        // only the distinct-execution limit could stop it, maybe never).
        let m = named::star_unions(6, 1).unwrap();
        let err = decide_one_round(&m, 2, 1, 100_000, NODES).unwrap_err();
        assert!(matches!(err, crate::CoreError::Budget(_)), "{err:?}");
        // The sequential reference enforces the same guard.
        assert!(decide_one_round_seq(&m, 2, 1, 100_000, NODES).is_err());
    }

    #[test]
    fn portfolio_agrees_with_sequential_reference() {
        // The racing portfolio must return bit-identical verdicts to the
        // sequential most-constrained-first scan on the whole small zoo.
        // One solvable and one unsolvable case from two different model
        // families (the randomized breadth lives in the
        // `solvability_parallel` proptest suite).
        for (model, k) in [
            (named::star_unions(3, 1).unwrap(), 2),
            (named::star_unions(3, 1).unwrap(), 3),
            (named::symmetric_ring(3).unwrap(), 1),
            (named::simple_ring(3).unwrap(), 2),
        ] {
            let par = decide_one_round(&model, k, k, EXECS, NODES).unwrap();
            let seq = decide_one_round_seq(&model, k, k, EXECS, NODES).unwrap();
            assert_eq!(
                std::mem::discriminant(&par),
                std::mem::discriminant(&seq),
                "verdicts diverge at k = {k}"
            );
            // Either witness must cover the same reachable views.
            if let (Solvability::Solvable(a), Solvability::Solvable(b)) = (&par, &seq) {
                assert_eq!(a.len(), b.len());
            }
        }
    }
}

/// Multi-round exact solvability over an **explicit** graph set: the model
/// plays any graph of `graphs` each round; an `r`-round oblivious
/// algorithm decides from the flat view after `r` rounds. Enumerates all
/// `|graphs|^r` schedules (budgeted) — exact for explicit models, and for
/// closed-above models when `graphs` enumerates the closure(s)
/// (small `n`).
///
/// # Errors
///
/// [`CoreError::BadParameter`] for zero `k`/`r`/empty graphs;
/// [`CoreError::Budget`] when the schedule × input space exceeds
/// `exec_limit`; [`CoreError::Topology`] (budget) when the
/// distinct-execution count exceeds it.
pub fn decide_rounds_explicit(
    graphs: &[ksa_graphs::Digraph],
    k: usize,
    value_max: usize,
    rounds: usize,
    exec_limit: usize,
    node_budget: usize,
) -> Result<Solvability, CoreError> {
    if k == 0 || rounds == 0 || graphs.is_empty() {
        return Err(CoreError::BadParameter {
            name: "k/rounds/graphs",
            value: 0,
            domain: "non-zero / non-empty",
        });
    }
    let n = graphs[0].n();
    let values = value_max as Value + 1;
    let schedules = (graphs.len() as u128)
        .checked_pow(rounds as u32)
        .unwrap_or(u128::MAX);
    let inputs_count = (values as u128).checked_pow(n as u32).unwrap_or(u128::MAX);
    RunBudget::new(exec_limit as u128).admit(
        "multi-round solvability executions",
        schedules.saturating_mul(inputs_count),
    )?;

    // Precompute the product graph of every schedule (who heard whom after
    // r rounds), deduplicated — flat views only depend on the product.
    let mut products: Vec<ksa_graphs::Digraph> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        let mut idx = vec![0usize; rounds];
        loop {
            let mut acc = ksa_graphs::Digraph::empty(n)?;
            for &i in &idx {
                acc = ksa_graphs::product::product(&acc, &graphs[i])?;
            }
            if seen.insert(acc.encode()) {
                products.push(acc);
            }
            let mut p = 0;
            loop {
                if p == rounds {
                    break;
                }
                idx[p] += 1;
                if idx[p] < graphs.len() {
                    break;
                }
                idx[p] = 0;
                p += 1;
            }
            if p == rounds {
                break;
            }
        }
    }

    // Views and executions over the deduplicated products; input
    // assignments are the parallel work unit, merged in odometer order
    // (identical numbering to the sequential scan).
    let enumerate_input = |inputs: &[Value]| -> LocalEnumeration {
        let mut local_ids: HashMap<FlatView<Value>, u32> = HashMap::new();
        let mut local = LocalEnumeration {
            views: Vec::new(),
            executions: Vec::new(),
        };
        for g in &products {
            let mut exec: Vec<u32> = Vec::with_capacity(n);
            for p in 0..n {
                let view: FlatView<Value> = g.in_set(p).iter().map(|q| (q, inputs[q])).collect();
                let next_id = local.views.len() as u32;
                let id = *local_ids.entry(view.clone()).or_insert_with(|| {
                    local.views.push(view);
                    next_id
                });
                exec.push(id);
            }
            exec.sort_unstable();
            exec.dedup();
            local.executions.push(exec);
        }
        local
    };

    // The enumeration is within `exec_limit` (checked above), so the
    // merger's limit only needs to catch the distinct-execution
    // overflow, like the sequential scan (which never errored here).
    let merger = merge_all(n, values, exec_limit, enumerate_input)?;
    // The instance's process symmetries are the permutations stabilizing
    // the (deduplicated) set of r-round products — executions are
    // per-product, so any such relabeling maps executions to executions.
    solve_csp(
        &products,
        values,
        merger.views,
        merger.executions,
        k,
        node_budget,
        &CancelToken::new(),
    )
}

// --- The CSP core ----------------------------------------------------------

/// A preprocessed solvability CSP: one variable per reachable view, its
/// domain the values heard in that view, one ≤-k-distinct constraint per
/// execution. Shared by the sequential and portfolio searches.
struct CspInstance {
    views: Vec<FlatView<Value>>,
    /// Per-view candidate decisions (heard values, sorted ascending).
    candidates: Vec<Vec<Value>>,
    /// For each view, the executions watching it.
    exec_of_view: Vec<Vec<u32>>,
    executions: Vec<Vec<u32>>,
    k: usize,
}

impl CspInstance {
    fn new(views: Vec<FlatView<Value>>, executions: Vec<Vec<u32>>, k: usize) -> Self {
        let candidates: Vec<Vec<Value>> = views
            .iter()
            .map(|v| {
                let mut vals: Vec<Value> = v.iter().map(|&(_, val)| val).collect();
                vals.sort_unstable();
                vals.dedup();
                vals
            })
            .collect();
        let mut exec_of_view: Vec<Vec<u32>> = vec![Vec::new(); views.len()];
        for (ei, e) in executions.iter().enumerate() {
            for &v in e {
                exec_of_view[v as usize].push(ei as u32);
            }
        }
        CspInstance {
            views,
            candidates,
            exec_of_view,
            executions,
            k,
        }
    }

    /// The canonical variable ordering: fewest candidates first
    /// (most-constrained), most-watched first on ties. Identical to the
    /// historical sequential scan.
    fn order_most_constrained(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.views.len()).collect();
        order.sort_by_key(|&v| {
            (
                self.candidates[v].len(),
                std::cmp::Reverse(self.exec_of_view[v].len()),
            )
        });
        order
    }

    /// Initial bitmask domains (bit `v` set ⇔ value `v` is a candidate).
    /// Only valid when every value fits a `u32` mask (`values ≤ 32`),
    /// which the pruned-search entry points guard.
    fn masks(&self) -> Vec<u32> {
        self.candidates
            .iter()
            .map(|vals| vals.iter().fold(0u32, |m, &v| m | (1 << v)))
            .collect()
    }

    /// Packages a complete assignment as the `Solvable` witness.
    fn into_solvable(self, assignment: Vec<Option<Value>>) -> Solvability {
        let mut entries: Vec<(FlatView<Value>, Value)> = self
            .views
            .into_iter()
            .zip(assignment)
            .map(|(v, a)| (v, a.expect("complete assignment")))
            .collect();
        entries.sort();
        Solvability::Solvable(DecisionMap { entries })
    }
}

/// Whether execution `e` can still see ≤ k distinct decisions: the
/// assigned views must not exceed k values already, and once k values
/// are reached every unassigned view of `e` must be able to repeat one.
fn exec_ok(e: &[u32], assignment: &[Option<Value>], candidates: &[Vec<Value>], k: usize) -> bool {
    let mut seen: Vec<Value> = Vec::with_capacity(k + 1);
    let mut unassigned: Vec<u32> = Vec::new();
    for &v in e {
        match assignment[v as usize] {
            Some(val) => {
                if !seen.contains(&val) {
                    seen.push(val);
                }
            }
            None => unassigned.push(v),
        }
    }
    if seen.len() > k {
        return false;
    }
    if seen.len() == k {
        for v in unassigned {
            if !candidates[v as usize].iter().any(|c| seen.contains(c)) {
                return false;
            }
        }
    }
    true
}

/// Whether assigning view `v` (already written into `assignment`) keeps
/// every execution watching `v` satisfiable.
fn view_consistent(csp: &CspInstance, v: usize, assignment: &[Option<Value>]) -> bool {
    csp.exec_of_view[v].iter().all(|&ei| {
        exec_ok(
            &csp.executions[ei as usize],
            assignment,
            &csp.candidates,
            csp.k,
        )
    })
}

/// Decides a solvability CSP with the pruned search (propagation +
/// orbit symmetry breaking + no-good table), racing strategy variants
/// on the pool. `sym_graphs` is the graph set whose stabilizer is the
/// instance's process-symmetry group (the model generators for one
/// round, the deduplicated schedule products for explicit rounds).
/// Falls back to the sequential forward-checking reference when the
/// value range exceeds the bitmask-domain width.
fn solve_csp(
    sym_graphs: &[Digraph],
    values: Value,
    views: Vec<FlatView<Value>>,
    executions: Vec<Vec<u32>>,
    k: usize,
    node_budget: usize,
    cancel: &CancelToken,
) -> Result<Solvability, CoreError> {
    let instance = CspInstance::new(views, executions, k);
    let _span = ksa_obs::span("core", || "csp_decide").arg("views", instance.views.len() as u64);
    if values > MAX_MASK_VALUES {
        // The sequential fallback has no per-node poll point; honor the
        // token at its boundary so a fired token still short-circuits.
        cancel.checkpoint()?;
        return solve_csp_seq(instance, node_budget);
    }
    let sym = CspSymmetry::detect(sym_graphs, &instance.views, values);
    record_pruned_entry(&instance, &sym);
    let table = NoGoodTable::new();
    Ok(solve_csp_pruned_portfolio(
        instance,
        &sym,
        &table,
        node_budget,
        cancel,
    ))
}

/// Deterministic observability for one pruned-search entry: the verdict
/// tick, the symmetry-group order, and the (pre-race, scheduling-free)
/// count of orbit-duplicate branches at the root. Emitted once per
/// decided instance regardless of thread count, so the deterministic
/// counter stream is bit-identical at any `KSA_THREADS`.
fn record_pruned_entry(csp: &CspInstance, sym: &CspSymmetry) {
    ksa_obs::count(ksa_obs::Counter::CspVerdicts, 1);
    ksa_obs::count(ksa_obs::Counter::CspSymmetries, sym.order() as u64);
    let mut doms = csp.masks();
    let root_prunes = if propagate(csp, &mut doms) {
        match pick_var(csp, &doms, false) {
            Some(v) => {
                let mut seen: HashSet<NoGoodKey> = HashSet::new();
                let mut dups = 0u64;
                for val in mask_values(doms[v], false) {
                    if !seen.insert(sym.canonical_signature(&[(v as u32, val)])) {
                        dups += 1;
                    }
                }
                dups
            }
            None => 0,
        }
    } else {
        0
    };
    ksa_obs::count(ksa_obs::Counter::CspOrbitRootPrunes, root_prunes);
}

/// The sequential most-constrained-first backtracking search (the
/// deterministic reference semantics).
fn solve_csp_seq(instance: CspInstance, node_budget: usize) -> Result<Solvability, CoreError> {
    let order = instance.order_most_constrained();

    fn dfs(
        csp: &CspInstance,
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<Option<Value>>,
        nodes: &mut usize,
        budget: usize,
    ) -> Option<bool> {
        if depth == order.len() {
            return Some(true);
        }
        *nodes += 1;
        if *nodes > budget {
            return None;
        }
        let v = order[depth];
        for i in 0..csp.candidates[v].len() {
            let val = csp.candidates[v][i];
            assignment[v] = Some(val);
            if view_consistent(csp, v, assignment) {
                match dfs(csp, order, depth + 1, assignment, nodes, budget) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => {
                        assignment[v] = None;
                        return None;
                    }
                }
            }
            assignment[v] = None;
        }
        Some(false)
    }

    let mut assignment: Vec<Option<Value>> = vec![None; instance.views.len()];
    let mut nodes = 0usize;
    ksa_obs::count(ksa_obs::Counter::CspVerdicts, 1);
    match dfs(
        &instance,
        &order,
        0,
        &mut assignment,
        &mut nodes,
        node_budget,
    ) {
        None => Ok(Solvability::Unknown),
        Some(false) => Ok(Solvability::Unsolvable),
        Some(true) => Ok(instance.into_solvable(assignment)),
    }
}

// --- The pruned search: propagation + orbits + no-goods --------------------

/// Widest value range the bitmask-domain search handles; beyond it the
/// sequential forward-checking reference decides the instance.
const MAX_MASK_VALUES: Value = 32;

/// Largest symmetry-group order worth enumerating per canonical-key
/// computation: past this, canonicalization costs more than the pruning
/// it buys, so detection falls back to a subgroup (or the trivial group).
const SYM_ORDER_CAP: usize = 1024;

/// Canonical signature of a partial decision set: the lex-least image of
/// the sorted `(view, value)` pairs under the instance's symmetry group.
/// Strategy-independent — the no-good table keys entries by it.
pub type NoGoodKey = Box<[(u32, Value)]>;

/// One non-identity symmetry of a CSP instance: a relabeling of view ids
/// together with the value relabeling that induced it.
struct SymElem {
    view_map: Vec<u32>,
    value_map: Vec<Value>,
}

/// The symmetry group of a solvability CSP: process permutations
/// stabilizing the generating graph set × permutations of the value set
/// (inputs range over *all* assignments, so every value relabeling is a
/// symmetry). Soundness of orbit pruning needs a genuine group — closed
/// under inverse and composition — which each fallback below preserves:
/// the full direct product, either factor alone, or the trivial group.
struct CspSymmetry {
    /// Non-identity elements; the identity is implicit.
    elems: Vec<SymElem>,
}

impl CspSymmetry {
    /// Group order (including the identity).
    fn order(&self) -> usize {
        self.elems.len() + 1
    }

    fn trivial() -> CspSymmetry {
        CspSymmetry { elems: Vec::new() }
    }

    /// Detects the instance symmetries. `sym_graphs` generates the
    /// process-permutation factor (its stabilizer in `S_n`); the value
    /// factor is all of `S_values`. Conservative: any anomaly (a view
    /// image outside the reachable set, an over-cap group) degrades to a
    /// smaller subgroup rather than a non-group subset.
    fn detect(sym_graphs: &[Digraph], views: &[FlatView<Value>], values: Value) -> CspSymmetry {
        use ksa_graphs::perm::{all_permutations, stabilizing_permutations, Permutation};
        let Some(first) = sym_graphs.first() else {
            return CspSymmetry::trivial();
        };
        let n = first.n();
        let Ok(proc_perms) = stabilizing_permutations(sym_graphs) else {
            return CspSymmetry::trivial();
        };
        let value_count = values as usize;
        let vperm_order: usize = (1..=value_count).product();
        // The direct product when it fits, else the bigger factor that
        // does, else nothing. Each choice is a subgroup.
        let full = proc_perms.len().saturating_mul(vperm_order);
        let (use_procs, use_values) = if full <= SYM_ORDER_CAP {
            (true, true)
        } else if proc_perms.len() >= vperm_order && proc_perms.len() <= SYM_ORDER_CAP {
            (true, false)
        } else if vperm_order <= SYM_ORDER_CAP {
            (false, true)
        } else if proc_perms.len() <= SYM_ORDER_CAP {
            (true, false)
        } else {
            return CspSymmetry::trivial();
        };
        let proc_perms = if use_procs {
            proc_perms
        } else {
            vec![Permutation::identity(n)]
        };
        let value_maps: Vec<Vec<Value>> = if use_values {
            all_permutations(value_count)
                .map(|p| (0..value_count).map(|v| p.apply(v) as Value).collect())
                .collect()
        } else {
            vec![(0..values).collect()]
        };
        let view_ids: HashMap<&FlatView<Value>, u32> = views
            .iter()
            .enumerate()
            .map(|(i, v)| (v, i as u32))
            .collect();
        let mut elems = Vec::new();
        for pi in &proc_perms {
            let pi_identity = *pi == Permutation::identity(n);
            for vm in &value_maps {
                if pi_identity && vm.iter().enumerate().all(|(i, &v)| v as usize == i) {
                    continue;
                }
                let mut view_map = vec![0u32; views.len()];
                for (i, view) in views.iter().enumerate() {
                    let mut image: FlatView<Value> = view
                        .iter()
                        .map(|&(p, val)| (pi.apply(p), vm[val as usize]))
                        .collect();
                    image.sort_unstable();
                    match view_ids.get(&image) {
                        Some(&id) => view_map[i] = id,
                        None => {
                            // A genuine symmetry maps reachable views to
                            // reachable views; an unmapped image means
                            // `sym_graphs` over-approximates the instance.
                            // Dropping single elements would break the
                            // group property, so drop the whole group.
                            debug_assert!(false, "stabilizer element is not an instance symmetry");
                            return CspSymmetry::trivial();
                        }
                    }
                }
                elems.push(SymElem {
                    view_map,
                    value_map: vm.clone(),
                });
            }
        }
        CspSymmetry { elems }
    }

    /// The lex-least image of `decisions` (as a sorted set) under the
    /// group — equal keys ⇔ orbit-equivalent decision sets.
    fn canonical_signature(&self, decisions: &[(u32, Value)]) -> NoGoodKey {
        let mut best: Vec<(u32, Value)> = decisions.to_vec();
        best.sort_unstable();
        let mut buf: Vec<(u32, Value)> = Vec::with_capacity(decisions.len());
        for e in &self.elems {
            buf.clear();
            buf.extend(
                decisions
                    .iter()
                    .map(|&(v, val)| (e.view_map[v as usize], e.value_map[val as usize])),
            );
            buf.sort_unstable();
            if buf < best {
                std::mem::swap(&mut best, &mut buf);
            }
        }
        best.into_boxed_slice()
    }
}

/// A shared table of refuted canonical decision sets — a **monotone
/// pruning oracle** (see `ksa_exec::ShardedSet` for the contract).
///
/// Entries are published only for subtrees the search *proved* empty
/// (exhausted or propagation-refuted) — never for subtrees abandoned to
/// the node budget or a cancellation — and keyed by strategy-independent
/// canonical signatures. A hit therefore only skips work whose outcome
/// is already decided; verdicts are unaffected by construction, at any
/// thread count and under any seeding. Seeding entries that are not
/// genuine no-goods of the *same* instance is safe exactly when they can
/// never match a probed signature (e.g. out-of-range view ids); seeding
/// a false matching entry would violate the contract.
///
/// Lock-sharded so racing strategies share one table.
pub struct NoGoodTable {
    inner: ksa_exec::ShardedSet<NoGoodKey>,
}

impl NoGoodTable {
    /// An empty table.
    pub fn new() -> Self {
        NoGoodTable {
            inner: ksa_exec::ShardedSet::new(),
        }
    }

    /// Number of published no-goods.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes an externally-supplied entry (normalized to sorted
    /// order). Intended for re-seeding a table from [`Self::snapshot`] of
    /// an earlier search of the **same** instance; see the type docs for
    /// what seeding may never do.
    pub fn seed(&self, entry: &[(u32, Value)]) {
        let mut key: Vec<(u32, Value)> = entry.to_vec();
        key.sort_unstable();
        self.insert(key.into_boxed_slice());
    }

    /// All published entries, in unspecified order — for harvesting a
    /// finished search's facts to [`Self::seed`] a later one.
    pub fn snapshot(&self) -> Vec<NoGoodKey> {
        self.inner.snapshot()
    }

    fn contains(&self, key: &NoGoodKey) -> bool {
        self.inner.contains(key)
    }

    fn insert(&self, key: NoGoodKey) -> bool {
        self.inner.insert(key)
    }
}

impl Default for NoGoodTable {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for NoGoodTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoGoodTable")
            .field("len", &self.len())
            .finish()
    }
}

/// Work accounting of one pruned-search strategy. `nodes` is the hard
/// determinism anchor of the differential tests: with an empty table and
/// one strategy it is a pure function of the instance; with a seeded or
/// shared table it can only shrink, never grow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Decision nodes expanded.
    pub nodes: u64,
    /// Branches skipped because their canonical signature was already
    /// published as a no-good.
    pub nogood_hits: u64,
    /// No-goods this strategy published first.
    pub nogood_inserts: u64,
    /// Sibling branches skipped as orbit duplicates of an explored one.
    pub orbit_prunes: u64,
    /// Order of the detected symmetry group (1 = no symmetry used).
    pub symmetry_order: u64,
}

/// Strategy knobs of the pruned search. All variants share the table;
/// verdicts are knob-independent.
#[derive(Debug, Clone, Copy)]
struct PrunedKnobs {
    /// Iterate candidate values high-to-low instead of low-to-high.
    value_reverse: bool,
    /// Break MRV ties by constraint degree (most-watched view first)
    /// instead of lowest view id.
    tie_degree: bool,
}

impl PrunedKnobs {
    /// The canonical (deterministic-reference) variant.
    const CANONICAL: PrunedKnobs = PrunedKnobs {
        value_reverse: false,
        tie_degree: false,
    };
}

/// Outcome of one pruned-search strategy.
enum PrunedOutcome {
    /// All domains singleton — `doms` encodes the witness.
    Solved(Vec<u32>),
    /// The (sub)tree holds no solution.
    Exhausted,
    /// Node budget ran out first.
    OutOfBudget,
    /// Another strategy completed first.
    Cancelled,
}

/// The candidate values of a domain mask in strategy order.
fn mask_values(mask: u32, reverse: bool) -> impl Iterator<Item = Value> {
    let mut vals: Vec<Value> = (0..32).filter(|&b| mask >> b & 1 == 1).collect();
    if reverse {
        vals.reverse();
    }
    vals.into_iter()
}

/// Generalized arc consistency on the ≤-k-distinct constraints, to
/// fixpoint: per execution, the union of singleton domains is the forced
/// value set; more than `k` forced values is a wipeout, exactly `k`
/// restricts every undecided view of the execution to repeat a forced
/// value. Returns `false` on wipeout. Order-independent (the GAC
/// fixpoint is unique), so the propagated state is a function of the
/// decision *set* — which is what makes orbit keys sound.
fn propagate(csp: &CspInstance, doms: &mut [u32]) -> bool {
    loop {
        let mut changed = false;
        for e in &csp.executions {
            let mut forced: u32 = 0;
            let mut forced_count = 0usize;
            for &v in e {
                let d = doms[v as usize];
                if d == 0 {
                    return false;
                }
                if d & (d - 1) == 0 && forced & d == 0 {
                    forced_count += 1;
                    forced |= d;
                }
            }
            if forced_count > csp.k {
                return false;
            }
            if forced_count == csp.k {
                for &v in e {
                    let d = doms[v as usize];
                    if d & (d - 1) != 0 {
                        let nd = d & forced;
                        if nd == 0 {
                            return false;
                        }
                        if nd != d {
                            doms[v as usize] = nd;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            return true;
        }
    }
}

/// The MRV branch variable: smallest non-singleton domain, ties broken
/// per the strategy (lowest id, or highest constraint degree then lowest
/// id). `None` means every domain is singleton — solved.
fn pick_var(csp: &CspInstance, doms: &[u32], tie_degree: bool) -> Option<usize> {
    let mut best: Option<(u32, usize, usize)> = None;
    for (v, &d) in doms.iter().enumerate() {
        let c = d.count_ones();
        if c < 2 {
            continue;
        }
        let tie = if tie_degree {
            usize::MAX - csp.exec_of_view[v].len()
        } else {
            0
        };
        let key = (c, tie, v);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best.map(|(_, _, v)| v)
}

/// Whether a fully-singleton domain vector satisfies every execution —
/// guaranteed by the last successful propagation; kept as a debug check.
fn complete_assignment_ok(csp: &CspInstance, doms: &[u32]) -> bool {
    doms.iter().all(|d| d.count_ones() == 1)
        && csp.executions.iter().all(|e| {
            let mut seen = 0u32;
            for &v in e {
                seen |= doms[v as usize];
            }
            seen.count_ones() as usize <= csp.k
        })
}

/// Per-strategy context of the pruned search.
struct PrunedCtx<'a> {
    csp: &'a CspInstance,
    sym: &'a CspSymmetry,
    table: &'a NoGoodTable,
    cancel: &'a CancelToken,
    knobs: PrunedKnobs,
    budget: u64,
}

/// Propagating DFS with orbit and no-good pruning. `doms` is the
/// propagated state reached by `decisions`; each candidate branch is
/// keyed by the canonical signature of its extended decision set, probed
/// against sibling orbits and the shared table, and — once *proved*
/// empty (propagation wipeout or exhausted recursion) — published.
/// Subtrees abandoned to the budget or a cancellation are never
/// published, which is the monotonicity half of the table contract.
fn pruned_dfs(
    ctx: &PrunedCtx<'_>,
    doms: &[u32],
    decisions: &mut Vec<(u32, Value)>,
    stats: &mut SearchStats,
) -> PrunedOutcome {
    if ctx.cancel.is_cancelled() {
        return PrunedOutcome::Cancelled;
    }
    let Some(v) = pick_var(ctx.csp, doms, ctx.knobs.tie_degree) else {
        debug_assert!(complete_assignment_ok(ctx.csp, doms));
        return PrunedOutcome::Solved(doms.to_vec());
    };
    stats.nodes += 1;
    if stats.nodes > ctx.budget {
        return PrunedOutcome::OutOfBudget;
    }
    // Every signature in here is a *proved* dead branch (wipeout,
    // exhausted recursion, or an earlier table hit), so any later
    // sibling in the same orbit is dead too.
    let mut dead_sigs: Vec<NoGoodKey> = Vec::new();
    for val in mask_values(doms[v], ctx.knobs.value_reverse) {
        decisions.push((v as u32, val));
        let sig = ctx.sym.canonical_signature(decisions);
        decisions.pop();
        if dead_sigs.contains(&sig) {
            stats.orbit_prunes += 1;
            continue;
        }
        if ctx.table.contains(&sig) {
            stats.nogood_hits += 1;
            dead_sigs.push(sig);
            continue;
        }
        let mut child = doms.to_vec();
        child[v] = 1u32 << val;
        if propagate(ctx.csp, &mut child) {
            decisions.push((v as u32, val));
            let out = pruned_dfs(ctx, &child, decisions, stats);
            decisions.pop();
            match out {
                PrunedOutcome::Exhausted => {
                    if ctx.table.insert(sig.clone()) {
                        stats.nogood_inserts += 1;
                    }
                    dead_sigs.push(sig);
                }
                other => return other,
            }
        } else {
            if ctx.table.insert(sig.clone()) {
                stats.nogood_inserts += 1;
            }
            dead_sigs.push(sig);
        }
    }
    PrunedOutcome::Exhausted
}

/// Runs one strategy of the pruned search from the root.
fn run_pruned_strategy(
    csp: &CspInstance,
    sym: &CspSymmetry,
    table: &NoGoodTable,
    cancel: &CancelToken,
    knobs: PrunedKnobs,
    node_budget: usize,
) -> (PrunedOutcome, SearchStats) {
    let mut stats = SearchStats {
        symmetry_order: sym.order() as u64,
        ..SearchStats::default()
    };
    let mut doms = csp.masks();
    if !propagate(csp, &mut doms) {
        return (PrunedOutcome::Exhausted, stats);
    }
    let ctx = PrunedCtx {
        csp,
        sym,
        table,
        cancel,
        knobs,
        budget: node_budget as u64,
    };
    let mut decisions = Vec::new();
    let out = pruned_dfs(&ctx, &doms, &mut decisions, &mut stats);
    (out, stats)
}

/// Flushes one strategy's work counters to the perf (scheduling-
/// dependent) observability tier.
fn flush_pruned_perf(stats: &SearchStats) {
    ksa_obs::perf_count(ksa_obs::PerfCounter::PortfolioNodes, stats.nodes);
    ksa_obs::perf_count(ksa_obs::PerfCounter::NoGoodHits, stats.nogood_hits);
    ksa_obs::perf_count(ksa_obs::PerfCounter::NoGoodInserts, stats.nogood_inserts);
}

/// Maps a strategy outcome to the public verdict, synthesizing the
/// witness map from singleton domains.
fn finish_pruned(instance: CspInstance, outcome: PrunedOutcome) -> Solvability {
    match outcome {
        PrunedOutcome::Solved(doms) => {
            let assignment: Vec<Option<Value>> = doms
                .iter()
                .map(|&d| Some(d.trailing_zeros() as Value))
                .collect();
            instance.into_solvable(assignment)
        }
        PrunedOutcome::Exhausted => Solvability::Unsolvable,
        PrunedOutcome::OutOfBudget | PrunedOutcome::Cancelled => Solvability::Unknown,
    }
}

/// Races the strategy variants of the pruned search on the pool, all
/// sharing one no-good table; the first to complete (either verdict)
/// cancels the rest. Spawn order puts the canonical variant last: the
/// scope's worker pops its deque LIFO, so a lone worker runs canonical
/// first and only then the alternates (which immediately observe the
/// cancellation), while idle workers steal the alternates FIFO.
///
/// The race flag is a *child* [`CancelToken`] of the caller's token
/// (when one is supplied): the winner cancels only the child, so
/// siblings stop, while an external cancellation or deadline on the
/// parent reaches every strategy through the same poll — one
/// cancellation idiom for both uses (DESIGN.md §12.2).
///
/// Verdicts are intrinsic to the instance — identical at any thread
/// count. At the node-budget boundary a strategy helped by the shared
/// table may decide an instance the lone canonical variant would give up
/// on; that can only upgrade `Unknown` to a decided verdict, never flip
/// a decided one.
fn solve_csp_pruned_portfolio(
    instance: CspInstance,
    sym: &CspSymmetry,
    table: &NoGoodTable,
    node_budget: usize,
    external: &CancelToken,
) -> Solvability {
    use std::sync::Mutex;

    let alternates = [
        PrunedKnobs {
            value_reverse: true,
            tie_degree: false,
        },
        PrunedKnobs {
            value_reverse: false,
            tie_degree: true,
        },
    ];
    let race = external.child();
    let winner: Mutex<Option<PrunedOutcome>> = Mutex::new(None);
    let csp = &instance;
    let report = |outcome: PrunedOutcome| -> bool {
        let mut slot = winner.lock().expect("winner slot poisoned");
        if slot.is_none() {
            *slot = Some(outcome);
            race.cancel();
            true
        } else {
            false
        }
    };
    ksa_exec::scope(|s| {
        for knobs in alternates {
            let (race, report) = (&race, &report);
            s.spawn(move |_| {
                let (out, stats) = run_pruned_strategy(csp, sym, table, race, knobs, node_budget);
                flush_pruned_perf(&stats);
                if matches!(out, PrunedOutcome::Solved(_) | PrunedOutcome::Exhausted) && report(out)
                {
                    ksa_obs::perf_count(ksa_obs::PerfCounter::PortfolioAlternateWins, 1);
                }
            });
        }
        {
            let (race, report) = (&race, &report);
            s.spawn(move |_| {
                let (out, stats) =
                    run_pruned_strategy(csp, sym, table, race, PrunedKnobs::CANONICAL, node_budget);
                flush_pruned_perf(&stats);
                if matches!(out, PrunedOutcome::Solved(_) | PrunedOutcome::Exhausted) && report(out)
                {
                    ksa_obs::perf_count(ksa_obs::PerfCounter::PortfolioCanonicalWins, 1);
                }
            });
        }
    });
    match winner.into_inner().expect("winner slot poisoned") {
        Some(outcome) => finish_pruned(instance, outcome),
        // No strategy completed: every one was cancelled (external
        // token) or ran out of budget without reporting.
        None => Solvability::Unknown,
    }
}

/// [`decide_one_round`] against a caller-supplied [`NoGoodTable`],
/// running the single canonical strategy — the deterministic surface of
/// the differential tests, the incremental-reuse path and the
/// certified decision. `ctx.budget` is the exec limit (as in
/// [`decide_one_round`]); `ctx.cancel` is polled at every node.
///
/// With an empty fresh table the returned [`SearchStats`] (in
/// particular `nodes`) are a pure function of the instance; seeding the
/// table with facts harvested from an earlier search of the same
/// instance can only shrink the work counters. Verdicts are identical to
/// [`decide_one_round`] away from the node-budget boundary (the racing
/// variants can only upgrade `Unknown`).
///
/// With `ctx.certs` set, a decided verdict is also emitted as a
/// [`ksa_cert::SolvabilityCert`] (DESIGN.md §11): `Solvable` carries the
/// full decision map, `Unsolvable` an exhaustion attestation built from
/// the [`SearchStats`]; `Unknown` yields no certificate. The
/// certificate's closure graphs are enumerated independently of the
/// search (the same [`ksa_graphs::closure::enumerate_closure`] surface
/// the replay verifier uses, capped by the budget), so the standalone
/// checker replays decisions against a graph set the producer did not
/// hand-pick.
///
/// Instances whose value range exceeds the bitmask width fall back to
/// the sequential reference and report default stats.
///
/// # Errors
///
/// Same conditions as [`decide_one_round`], plus the two token
/// variants and, with a sink, graph-layer errors when the closure
/// enumeration overruns the budget.
pub fn decide_one_round_with_table<'a>(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    ctx: impl Into<Ctx<'a>>,
    node_budget: usize,
    table: &NoGoodTable,
) -> Result<(Solvability, SearchStats), CoreError> {
    let ctx = ctx.into();
    validate_k(k)?;
    ctx.cancel.checkpoint()?;
    let n = model.n();
    let values = value_max as Value + 1;
    ctx.budget.admit(
        "solvability superset enumeration",
        one_round_raw_estimate(model, n, values),
    )?;
    let merger = merge_all_seq(n, values, exec_limit(&ctx), |inputs: &[Value]| {
        one_round_enumerate_input(model, n, inputs)
    })?;
    let instance = CspInstance::new(merger.views, merger.executions, k);
    let (verdict, stats) = if values > MAX_MASK_VALUES {
        (
            solve_csp_seq(instance, node_budget)?,
            SearchStats::default(),
        )
    } else {
        let sym = CspSymmetry::detect(model.generators(), &instance.views, values);
        record_pruned_entry(&instance, &sym);
        let (outcome, stats) = run_pruned_strategy(
            &instance,
            &sym,
            table,
            &ctx.cancel,
            PrunedKnobs::CANONICAL,
            node_budget,
        );
        flush_pruned_perf(&stats);
        (finish_pruned(instance, outcome), stats)
    };
    ctx.cancel.checkpoint()?;
    if let Some(sink) = ctx.certs {
        if let Some(cert) =
            solvability_cert(model, k, value_max, &verdict, &stats, &ctx, sink.label())?
        {
            ksa_obs::count(ksa_obs::Counter::CertsEmitted, 1);
            sink.push(ksa_cert::Cert::Solvability(cert));
        }
    }
    Ok((verdict, stats))
}

/// The certificate of a decided verdict (`None` for `Unknown`).
fn solvability_cert(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    verdict: &Solvability,
    stats: &SearchStats,
    ctx: &Ctx<'_>,
    label: &str,
) -> Result<Option<ksa_cert::SolvabilityCert>, CoreError> {
    let verdict = match verdict {
        Solvability::Solvable(map) => ksa_cert::SolvVerdict::Map(
            map.entries()
                .map(|(view, d)| (view.iter().map(|&(p, v)| (p as u32, v)).collect(), *d))
                .collect(),
        ),
        // A search that terminates examines at least the root, and the
        // fallback paths that report default stats still did so: clamp
        // the attestation to the checker's "did any work" floor. The
        // trivial symmetry group has order 1, never 0.
        Solvability::Unsolvable => ksa_cert::SolvVerdict::Exhausted {
            nodes: stats.nodes.max(1),
            symmetry_order: stats.symmetry_order.max(1),
        },
        Solvability::Unknown => return Ok(None),
    };
    let n = model.n();
    let mut graphs = Vec::new();
    for g in model.generators() {
        graphs.extend(ksa_graphs::closure::enumerate_closure(g, exec_limit(ctx))?);
    }
    graphs.sort();
    graphs.dedup();
    let graphs = graphs
        .iter()
        .map(|g| {
            (0..n)
                .map(|p| {
                    let mut in_set: Vec<u32> = g.in_set(p).iter().map(|q| q as u32).collect();
                    in_set.sort_unstable();
                    in_set
                })
                .collect()
        })
        .collect();
    Ok(Some(ksa_cert::SolvabilityCert {
        label: label.to_string(),
        n: n as u32,
        k: k as u32,
        value_max: value_max as u32,
        graphs,
        verdict,
    }))
}

// --- Incremental k-sweeps --------------------------------------------------

/// Result of [`decide_one_round_sweep`]: the verdict for every
/// `k ∈ {1, …, k_max}` plus an accounting of how much of the vector was
/// decided monotonically instead of searched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KSweep {
    /// `verdicts[k − 1]` is the verdict for `k`-set agreement with
    /// inputs over `{0, …, k}`. Seeded entries carry genuine (lifted)
    /// witness maps.
    pub verdicts: Vec<Solvability>,
    /// Instances decided by full search.
    pub searched: usize,
    /// Solvable verdicts filled by lifting a smaller-k witness.
    pub seeded: usize,
    /// Unsolvable verdicts filled by downward monotonicity.
    pub pruned: usize,
}

/// Decides one-round solvability for every `k ∈ {1, …, k_max}` (with the
/// per-k value range `{0, …, k}`, matching the `solv` experiment's
/// convention) by **binary-searching the solvability boundary** instead
/// of deciding each `k` from scratch:
///
/// * a `Solvable` verdict at `k` seeds every `k' > k` by lifting the
///   witness (cap inputs at `k`; views deciding the capped class decide
///   their smallest heard value `≥ k` — at most one value splits in two,
///   so `≤ k + 1` distinct decisions);
/// * an `Unsolvable` verdict at `k` prunes every `k' < k` (an adversary
///   restricting inputs to `{0, …, k'}` inherits the impossibility).
///
/// The sweep vector is identical to deciding every `k` from scratch —
/// monotonicity is a theorem, not a heuristic — which
/// `solvability_sweep` pins differentially. An `Unknown` (node-budget)
/// verdict stops the monotone reasoning and the remaining entries are
/// searched individually.
///
/// `ctx.budget` is the exec limit of every searched or lifted instance.
/// `ctx.cancel` is polled between instances *and* threaded into every
/// search's portfolio (per-node granularity), so a deadline fires
/// mid-search; a token that never fires leaves the sweep bit-identical
/// at any `KSA_THREADS`. The sweep emits no certificates (`ctx.certs`
/// is not read): certify a single verdict with
/// [`decide_one_round_with_table`]. `progress` is called after each
/// instance decided by full search (the analysis server streams it).
///
/// # Errors
///
/// [`CoreError::BadParameter`] for `k_max = 0`; otherwise the same
/// budget conditions as [`decide_one_round`], for any searched or
/// lifted instance; [`CoreError::Cancelled`] /
/// [`CoreError::DeadlineExceeded`] when the token fires.
pub fn decide_one_round_sweep<'a>(
    model: &ClosedAboveModel,
    k_max: usize,
    ctx: impl Into<Ctx<'a>>,
    node_budget: usize,
    progress: &mut dyn FnMut(SweepProgress),
) -> Result<KSweep, CoreError> {
    let ctx = ctx.into();
    validate_k(k_max)?;
    let mut verdicts: Vec<Option<Solvability>> = vec![None; k_max];
    let (mut searched, mut seeded, mut pruned) = (0usize, 0usize, 0usize);
    let (mut lo, mut hi) = (1usize, k_max);
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        searched += 1;
        match decide_in(model, mid, mid, node_budget, &ctx)? {
            Solvability::Solvable(witness) => {
                verdicts[mid - 1] = Some(Solvability::Solvable(witness.clone()));
                let mut lifted = witness;
                for k in mid + 1..=k_max {
                    if verdicts[k - 1].is_some() {
                        break;
                    }
                    lifted = lift_decision_map(model, k - 1, &lifted, &ctx)?;
                    verdicts[k - 1] = Some(Solvability::Solvable(lifted.clone()));
                    seeded += 1;
                }
                hi = mid - 1;
            }
            Solvability::Unsolvable => {
                verdicts[mid - 1] = Some(Solvability::Unsolvable);
                for k in 1..mid {
                    if verdicts[k - 1].is_none() {
                        verdicts[k - 1] = Some(Solvability::Unsolvable);
                        pruned += 1;
                    }
                }
                lo = mid + 1;
            }
            Solvability::Unknown => {
                verdicts[mid - 1] = Some(Solvability::Unknown);
                report_sweep_progress(progress, mid, &verdicts);
                break;
            }
        }
        report_sweep_progress(progress, mid, &verdicts);
    }
    // Only reachable after an `Unknown`: no monotone fact covers the
    // remaining entries, so decide them individually.
    for k in 1..=k_max {
        if verdicts[k - 1].is_none() {
            searched += 1;
            verdicts[k - 1] = Some(decide_in(model, k, k, node_budget, &ctx)?);
            report_sweep_progress(progress, k, &verdicts);
        }
    }
    ksa_obs::count(ksa_obs::Counter::CspSweepSeeded, seeded as u64);
    ksa_obs::count(ksa_obs::Counter::CspSweepPruned, pruned as u64);
    Ok(KSweep {
        verdicts: verdicts
            .into_iter()
            .map(|v| v.expect("every k decided"))
            .collect(),
        searched,
        seeded,
        pruned,
    })
}

/// Progress of a k-sweep, reported after each instance decided by full
/// search (monotone fills are instantaneous and ride along in
/// `decided`). This is what the analysis server streams to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// The `k` the search just decided.
    pub k: usize,
    /// Sweep entries filled so far (searched + seeded + pruned).
    pub decided: usize,
    /// Total entries (`k_max`).
    pub total: usize,
}

/// [`decide_one_round_sweep`] with a token. Kept only for `perfbench`;
/// removed when the benchmark harness moves onto `Ctx`.
///
/// # Errors
///
/// Same conditions as [`decide_one_round_sweep`].
pub fn decide_one_round_sweep_cancellable(
    model: &ClosedAboveModel,
    k_max: usize,
    exec_limit: usize,
    node_budget: usize,
    cancel: &CancelToken,
    progress: &mut dyn FnMut(SweepProgress),
) -> Result<KSweep, CoreError> {
    decide_one_round_sweep(
        model,
        k_max,
        Ctx {
            cancel: cancel.clone(),
            ..Ctx::from(exec_limit as u128)
        },
        node_budget,
        progress,
    )
}

fn report_sweep_progress(
    progress: &mut dyn FnMut(SweepProgress),
    k: usize,
    verdicts: &[Option<Solvability>],
) {
    progress(SweepProgress {
        k,
        decided: verdicts.iter().filter(|v| v.is_some()).count(),
        total: verdicts.len(),
    });
}

/// Lifts a witness for `k_from`-set agreement (inputs `{0, …, k_from}`)
/// to one for `k_from + 1` (inputs `{0, …, k_from + 1}`).
///
/// Construction: cap every heard value at `cap = k_from`; the capped
/// view is reachable in the smaller instance, so the witness decides it.
/// A decision `< cap` is heard uncapped and is kept; a decision `= cap`
/// becomes the smallest heard value `≥ cap` (one exists — some process
/// in the view capped to `cap`). Per execution the `< cap` decisions are
/// a subset of the capped execution's (≤ `k_from`, and ≤ `k_from − 1`
/// when any view decided `cap` there), and the `≥ cap` decisions take at
/// most two values — ≤ `k_from + 1` distinct in all.
fn lift_decision_map(
    model: &ClosedAboveModel,
    k_from: usize,
    map: &DecisionMap,
    ctx: &Ctx<'_>,
) -> Result<DecisionMap, CoreError> {
    let n = model.n();
    let cap = k_from as Value;
    let values_to = cap + 2;
    ctx.budget.admit(
        "solvability sweep lift enumeration",
        one_round_raw_estimate(model, n, values_to),
    )?;
    let merger = merge_all_seq(n, values_to, exec_limit(ctx), |inputs: &[Value]| {
        one_round_enumerate_input(model, n, inputs)
    })?;
    let mut entries: Vec<(FlatView<Value>, Value)> = Vec::with_capacity(merger.views.len());
    for view in merger.views {
        let capped: FlatView<Value> = view.iter().map(|&(p, v)| (p, v.min(cap))).collect();
        let decided = map
            .decide(&capped)
            .expect("capped view is reachable in the k_from instance");
        let lifted = if decided < cap {
            decided
        } else {
            view.iter()
                .map(|&(_, v)| v)
                .filter(|&v| v >= cap)
                .min()
                .expect("a capped-to-cap process heard a value >= cap")
        };
        entries.push((view, lifted));
    }
    entries.sort();
    Ok(DecisionMap { entries })
}

#[cfg(test)]
mod pruned_tests {
    use super::*;
    use ksa_models::named;

    const EXECS: usize = 2_000_000;
    const NODES: usize = 50_000_000;

    #[test]
    fn star_kernel_symmetry_group_order() {
        // stars{n=3, s=1}: 6 process permutations stabilize the generator
        // set, × 3! value permutations at values = 3.
        let m = named::star_unions(3, 1).unwrap();
        let values: Value = 3;
        let merger = merge_all_seq(3, values, EXECS, |inputs: &[Value]| {
            one_round_enumerate_input(&m, 3, inputs)
        })
        .unwrap();
        let sym = CspSymmetry::detect(m.generators(), &merger.views, values);
        assert_eq!(sym.order(), 36);
    }

    #[test]
    fn canonical_signature_is_orbit_invariant_under_elements() {
        let m = named::star_unions(3, 1).unwrap();
        let values: Value = 3;
        let merger = merge_all_seq(3, values, EXECS, |inputs: &[Value]| {
            one_round_enumerate_input(&m, 3, inputs)
        })
        .unwrap();
        let sym = CspSymmetry::detect(m.generators(), &merger.views, values);
        // Mapping a decision set through any group element must not
        // change its canonical signature.
        let decisions = [(0u32, 0 as Value), (5u32, 2 as Value)];
        let base = sym.canonical_signature(&decisions);
        for e in &sym.elems {
            let mapped: Vec<(u32, Value)> = decisions
                .iter()
                .map(|&(v, val)| (e.view_map[v as usize], e.value_map[val as usize]))
                .collect();
            assert_eq!(sym.canonical_signature(&mapped), base);
        }
    }

    #[test]
    fn star_kernel_refutes_at_the_root() {
        // The historical `solv` wall: stars{n=3, s=1} at k = 2 took tens
        // of millions of backtracking nodes. Propagation alone must now
        // refute it at the root (zero or one decision nodes).
        let m = named::star_unions(3, 1).unwrap();
        let table = NoGoodTable::new();
        let (verdict, stats) =
            decide_one_round_with_table(&m, 2, 2, EXECS as u128, NODES, &table).unwrap();
        assert_eq!(verdict, Solvability::Unsolvable);
        assert!(stats.nodes <= 1, "nodes = {}", stats.nodes);
    }

    #[test]
    fn table_reuse_only_shrinks_work() {
        let m = named::symmetric_ring(3).unwrap();
        let table = NoGoodTable::new();
        let (v1, s1) = decide_one_round_with_table(&m, 1, 1, EXECS as u128, NODES, &table).unwrap();
        let published = table.len();
        let (v2, s2) = decide_one_round_with_table(&m, 1, 1, EXECS as u128, NODES, &table).unwrap();
        assert_eq!(v1, v2);
        assert!(s2.nodes <= s1.nodes);
        assert!(s2.nogood_inserts == 0, "everything already published");
        assert!(table.len() == published);
    }

    #[test]
    fn certified_decide_emits_checkable_certs() {
        let m = named::star_unions(3, 1).unwrap();
        let certified = |k: usize, label: &str| {
            let sink = ksa_cert::CertSink::new(label);
            let ctx = Ctx {
                certs: Some(&sink),
                ..Ctx::from(EXECS as u128)
            };
            let (verdict, _) =
                decide_one_round_with_table(&m, k, k, ctx, NODES, &NoGoodTable::new()).unwrap();
            let [cert] = <[_; 1]>::try_from(sink.into_certs()).expect("one certificate");
            (verdict, cert)
        };
        // k = 3 is solvable: the certificate carries the decision map
        // and the standalone checker replays every execution.
        let (verdict, cert) = certified(3, "s31 k=3");
        assert!(verdict.is_solvable());
        assert_eq!(cert.label(), "s31 k=3");
        cert.check().unwrap();
        ksa_cert::Cert::parse(&cert.to_text())
            .unwrap()
            .check()
            .unwrap();

        // k = 2 is unsolvable: the certificate is an exhaustion
        // attestation with sane statistics.
        let (verdict, cert) = certified(2, "s31 k=2");
        assert_eq!(verdict, Solvability::Unsolvable);
        assert!(matches!(
            &cert,
            ksa_cert::Cert::Solvability(c)
                if matches!(c.verdict, ksa_cert::SolvVerdict::Exhausted { .. })
        ));
        cert.check().unwrap();

        // The sink must not perturb the plain verdict.
        let table = NoGoodTable::new();
        let (plain, _) =
            decide_one_round_with_table(&m, 3, 3, EXECS as u128, NODES, &table).unwrap();
        assert_eq!(plain, certified(3, "x").0);
    }

    #[test]
    fn sweep_matches_scratch_on_the_kernel() {
        let m = named::star_unions(3, 1).unwrap();
        let sweep = decide_one_round_sweep(&m, 3, EXECS as u128, NODES, &mut |_| {}).unwrap();
        assert_eq!(sweep.verdicts.len(), 3);
        assert_eq!(sweep.verdicts[0], Solvability::Unsolvable);
        assert_eq!(sweep.verdicts[1], Solvability::Unsolvable);
        assert!(sweep.verdicts[2].is_solvable());
        // The boundary search needs ≤ 2 probes for k_max = 3; the rest
        // comes from monotone facts.
        assert!(sweep.searched <= 2, "searched = {}", sweep.searched);
        assert_eq!(sweep.searched + sweep.seeded + sweep.pruned, 3);
        for (i, v) in sweep.verdicts.iter().enumerate() {
            let scratch = decide_one_round(&m, i + 1, i + 1, EXECS, NODES).unwrap();
            assert_eq!(
                std::mem::discriminant(v),
                std::mem::discriminant(&scratch),
                "k = {}",
                i + 1
            );
        }
    }

    #[test]
    fn sweep_lifted_witnesses_are_complete_maps() {
        let m = named::simple_ring(3).unwrap();
        let sweep = decide_one_round_sweep(&m, 3, EXECS as u128, NODES, &mut |_| {}).unwrap();
        for (i, v) in sweep.verdicts.iter().enumerate() {
            if let Solvability::Solvable(map) = v {
                let scratch = decide_one_round(&m, i + 1, i + 1, EXECS, NODES).unwrap();
                let Solvability::Solvable(scratch_map) = scratch else {
                    panic!("sweep says solvable at k = {}", i + 1);
                };
                // Same reachable-view set, whatever the decisions.
                assert_eq!(map.len(), scratch_map.len(), "k = {}", i + 1);
            }
        }
    }

    #[test]
    fn sweep_rejects_zero_k_max() {
        let m = named::simple_ring(3).unwrap();
        assert!(decide_one_round_sweep(&m, 0, EXECS as u128, NODES, &mut |_| {}).is_err());
    }
}

#[cfg(test)]
mod multi_round_tests {
    use super::*;
    use ksa_graphs::closure::enumerate_closure;
    use ksa_graphs::families;
    use ksa_models::named;

    const EXECS: usize = 5_000_000;
    const NODES: usize = 50_000_000;

    fn closure_of(model: &ksa_models::ClosedAboveModel) -> Vec<ksa_graphs::Digraph> {
        let mut graphs = Vec::new();
        for g in model.generators() {
            graphs.extend(enumerate_closure(g, 1 << 12).unwrap());
        }
        graphs.sort();
        graphs.dedup();
        graphs
    }

    #[test]
    fn simple_ring_two_rounds_consensus() {
        // γ(C3²) = γ(K3) = 1: consensus solvable in two rounds on ↑C3
        // (Thm 6.3); and still impossible in one (Thm 5.1).
        let m = named::simple_ring(3).unwrap();
        let graphs = closure_of(&m);
        let one = decide_rounds_explicit(&graphs, 1, 1, 1, EXECS, NODES).unwrap();
        assert_eq!(one, Solvability::Unsolvable);
        let two = decide_rounds_explicit(&graphs, 1, 1, 2, EXECS, NODES).unwrap();
        assert!(two.is_solvable());
    }

    #[test]
    fn one_round_agrees_with_dedicated_decider() {
        // The explicit-path decider must agree with the factorized
        // one-round decider.
        let m = named::star_unions(3, 2).unwrap();
        let graphs = closure_of(&m);
        let explicit = decide_rounds_explicit(&graphs, 2, 2, 1, EXECS, NODES).unwrap();
        let direct = decide_one_round(&m, 2, 2, EXECS, NODES).unwrap();
        assert_eq!(explicit.is_solvable(), direct.is_solvable());
        assert!(explicit.is_solvable());
        let explicit1 = decide_rounds_explicit(&graphs, 1, 1, 1, EXECS, NODES).unwrap();
        let direct1 = decide_one_round(&m, 1, 1, EXECS, NODES).unwrap();
        assert_eq!(explicit1, Solvability::Unsolvable);
        assert_eq!(direct1, Solvability::Unsolvable);
    }

    #[test]
    fn kernel_stays_hard_with_more_rounds() {
        // Star unions: (n−s)-set agreement impossible at any round count
        // (Thm 6.13) — machine-checked at r = 2 for n = 3, s = 1.
        let m = named::star_unions(3, 1).unwrap();
        let graphs = closure_of(&m);
        let r2 = decide_rounds_explicit(&graphs, 2, 2, 2, EXECS, NODES).unwrap();
        assert_eq!(r2, Solvability::Unsolvable);
    }

    #[test]
    fn loops_only_never_agrees() {
        // The one-graph model with loops only: every process is isolated;
        // k < n impossible at any r, k = n trivially solvable.
        let g = families::clique(1).unwrap();
        let _ = g;
        let lonely = vec![ksa_graphs::Digraph::empty(3).unwrap()];
        for r in 1..=2 {
            assert_eq!(
                decide_rounds_explicit(&lonely, 2, 2, r, EXECS, NODES).unwrap(),
                Solvability::Unsolvable,
                "r = {r}"
            );
            assert!(decide_rounds_explicit(&lonely, 3, 3, r, EXECS, NODES)
                .unwrap()
                .is_solvable());
        }
    }

    #[test]
    fn budgets_and_parameters() {
        let g = vec![ksa_graphs::Digraph::complete(3).unwrap()];
        assert!(decide_rounds_explicit(&g, 0, 1, 1, EXECS, NODES).is_err());
        assert!(decide_rounds_explicit(&g, 1, 1, 0, EXECS, NODES).is_err());
        assert!(decide_rounds_explicit(&[], 1, 1, 1, EXECS, NODES).is_err());
        assert!(decide_rounds_explicit(&g, 1, 3, 1, 2, NODES).is_err());
    }
}
