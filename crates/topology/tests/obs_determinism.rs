//! Proptests pinning the **deterministic tier** of the `ksa-obs`
//! instrumentation (DESIGN.md §9): the work counters advance by
//! bit-identical deltas for one workload regardless of how the work is
//! scheduled —
//!
//! * across `ksa-exec` pool sizes 1/2/8 (inline fast paths vs real
//!   stealing vs oversubscription), and
//! * between the parallel entry points and their sequential references.
//!
//! The perf tier (steals, parks, portfolio ordering) is deliberately
//! *not* compared — it is scheduling-dependent by design; only the
//! namespace split makes the deterministic diff meaningful.
//!
//! Every measured section runs under its own `ksa_obs::Scope`, so the
//! counts of tests running concurrently in this binary stay out of it;
//! [`scopes_are_exact_under_steals`] pins that scopes are exact.

#![cfg(feature = "obs")]

use ksa_exec::ThreadPool;
use ksa_graphs::ctx::Ctx;
use ksa_graphs::Digraph;
use ksa_obs::{MetricsSnapshot, Scope};
use ksa_topology::chain::reduced_betti_certified;
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::{connectivity, connectivity_seq};
use ksa_topology::homology::{reduced_betti_numbers, reduced_betti_numbers_seq};
use ksa_topology::nerve::nerve_complex;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::{protocol_complex_rounds, protocol_complex_rounds_seq};
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;
use std::sync::{mpsc, OnceLock};

const BUDGET: u128 = 10_000_000;

/// The shared pools (1/2/8 workers), started once for the whole test
/// binary so proptest cases don't churn threads.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].into_iter().map(ThreadPool::new).collect())
}

/// The deterministic-tier counts of `work`, run under its own scope.
fn det_delta(work: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let scope = Scope::new();
    scope.enter(work);
    scope.snapshot().det
}

/// Strategy: a small complex over colors 0..5 with u8 views.
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let simplex = prop::collection::btree_map(0usize..5, 0u8..3, 1..=4).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    prop::collection::vec(simplex, 1..6).prop_map(Complex::from_facets)
}

/// Strategy: up to two generator digraphs on 3 processes.
fn random_generators() -> impl Strategy<Value = Vec<Digraph>> {
    let graph = prop::collection::btree_set((0usize..3, 0usize..3), 0..7)
        .prop_map(|edges| Digraph::from_edges(3, &edges.into_iter().collect::<Vec<_>>()).unwrap());
    prop::collection::vec(graph, 1..=2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Homology + connectivity through the chain engine: identical
    /// counter deltas at every pool size. (The `_seq` references are a
    /// *different algorithm* — dense scalar GF(2) with its own counting
    /// sites — so they pin verdicts elsewhere, not counters here; the
    /// shared-site parallel-vs-sequential pin lives in the rounds and
    /// GF(2) tests below.)
    #[test]
    fn homology_counters_identical_across_pool_sizes(c in small_complex()) {
        let mut reference: Option<Vec<(&'static str, u64)>> = None;
        for pool in pools() {
            let delta = det_delta(|| {
                pool.install(|| {
                    reduced_betti_numbers(&c);
                    connectivity(&c);
                });
            });
            match &reference {
                None => reference = Some(delta),
                Some(r) => prop_assert_eq!(
                    &delta, r,
                    "deterministic tier diverged on a {}-worker pool",
                    pool.num_threads()
                ),
            }
        }
        // The different algorithm still reaches the same verdicts.
        let seq = (reduced_betti_numbers_seq(&c), connectivity_seq(&c));
        prop_assert_eq!(seq.0, reduced_betti_numbers(&c));
        prop_assert_eq!(seq.1, connectivity(&c));
    }

    /// Pseudosphere materialization + nerve expansion: the facet
    /// enumeration counters don't depend on the fan-out.
    #[test]
    fn enumeration_counters_identical_across_pool_sizes(
        views in prop::collection::vec(prop::collection::btree_set(0u32..4, 1..=3), 3..=4),
    ) {
        let ps = Pseudosphere::new(
            views
                .into_iter()
                .enumerate()
                .map(|(p, vs)| (p, vs.into_iter().collect()))
                .collect(),
        )
        .unwrap();
        let mut reference: Option<Vec<(&'static str, u64)>> = None;
        for pool in pools() {
            let delta = det_delta(|| {
                pool.install(|| {
                    let c = ps.to_complex();
                    nerve_complex(&[c.clone(), c]);
                });
            });
            match &reference {
                None => reference = Some(delta),
                Some(r) => prop_assert_eq!(
                    &delta, r,
                    "deterministic tier diverged on a {}-worker pool",
                    pool.num_threads()
                ),
            }
        }
    }

    /// The multi-round pipeline (view interning, facet materialization,
    /// budget admissions): parallel == sequential == every pool size.
    #[test]
    fn rounds_counters_identical_across_pool_sizes(gens in random_generators()) {
        let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
            .unwrap()
            .to_complex();
        let reference = det_delta(|| {
            protocol_complex_rounds_seq(&gens, &input, 2, BUDGET).unwrap();
        });
        for pool in pools() {
            let delta = det_delta(|| {
                pool.install(|| {
                    protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap();
                });
            });
            prop_assert_eq!(
                &delta, &reference,
                "deterministic tier diverged on a {}-worker pool",
                pool.num_threads()
            );
        }
    }
}

/// Oversubscribed repetition: the same pool, invoked repeatedly, keeps
/// producing the same deterministic delta even as steal races land
/// differently run to run.
#[test]
fn repeated_runs_on_one_pool_are_stable() {
    let gens = vec![ksa_graphs::families::cycle(3).unwrap()];
    let pool = &pools()[2]; // 8 workers on a smaller CI box
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let mut reference: Option<Vec<(&'static str, u64)>> = None;
    for _ in 0..5 {
        let delta = det_delta(|| {
            pool.install(|| {
                let rc = protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap();
                connectivity(rc.complexes().last().unwrap());
            });
        });
        match &reference {
            None => reference = Some(delta),
            Some(r) => assert_eq!(&delta, r, "deterministic tier unstable across reruns"),
        }
    }
}

/// Workload A: a 2-round protocol complex of ↑C3 over binary inputs,
/// with its homology sweep run under a nested scope. Returns the outer
/// and the nested scope's counts.
fn rounds_and_sweep(pool: &ThreadPool) -> (MetricsSnapshot, MetricsSnapshot) {
    let gens = vec![ksa_graphs::families::cycle(3).unwrap()];
    let outer = Scope::new();
    let inner = outer.enter(|| {
        let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
            .unwrap()
            .to_complex();
        let rc = pool.install(|| protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap());
        // Opened under `outer`, so nested in it.
        let inner = Scope::new();
        inner.enter(|| pool.install(|| rc.homology_sweep(Ctx::default()).unwrap()));
        inner
    });
    (outer.snapshot(), inner.snapshot())
}

/// Workload B: a certified Betti computation, handed to the pool as a
/// fire-and-forget job (a heap job, picked up by whichever worker is
/// free).
fn certified_betti(pool: &ThreadPool, complex: &Complex<u32>) -> MetricsSnapshot {
    let scope = Scope::new();
    let complex = complex.clone();
    scope.enter(|| {
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || {
            let certified = reduced_betti_certified(&complex, "steals").is_some();
            tx.send(certified).unwrap();
        });
        assert!(rx.recv().unwrap(), "the complex is not void");
    });
    scope.snapshot()
}

/// Componentwise sum of two deterministic tiers.
fn sum(a: &[(&'static str, u64)], b: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    a.iter()
        .zip(b)
        .map(|(&(n, x), &(_, y))| (n, x + y))
        .collect()
}

/// Set in the child process [`scopes_are_exact_under_steals`] reruns
/// itself in.
const ALONE: &str = "KSA_OBS_SCOPES_ALONE";

/// Two threads, each in its own scope, run different workloads at once
/// on one shared pool (sizes 1/2/8): each scope's deterministic tier
/// equals its workload's counts measured alone on a 1-worker pool; the
/// nested scope's counts also land in its parent; and the process
/// totals grow by exactly the sum of the two scopes.
///
/// The process totals include every concurrently running test of this
/// binary, so the test reruns itself alone in a child process.
#[test]
fn scopes_are_exact_under_steals() {
    if std::env::var_os(ALONE).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "scopes_are_exact_under_steals",
                "--exact",
                "--test-threads=1",
            ])
            .env(ALONE, "1")
            .output()
            .expect("rerun the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let path3 = vec![ksa_graphs::families::path(3).unwrap()];
    let unary = Pseudosphere::new((0..3).map(|p| (p, vec![0u32])).collect())
        .unwrap()
        .to_complex();
    let rc = protocol_complex_rounds(&path3, &unary, 2, BUDGET).unwrap();
    let complex = rc.final_complex().clone();

    // References: each workload alone on a 1-worker pool, measured by
    // the process totals.
    let alone = |work: &dyn Fn()| {
        let before = ksa_obs::snapshot();
        work();
        ksa_obs::snapshot().det_delta(&before)
    };
    let one = &pools()[0];
    let ref_a = alone(&|| drop(rounds_and_sweep(one)));
    let ref_b = alone(&|| drop(certified_betti(one, &complex)));
    let (a_outer, a_inner) = rounds_and_sweep(one);
    let ref_sweep = a_inner.det;
    assert_eq!(a_outer.det, ref_a, "a scope alone = the process delta");
    assert!(ref_sweep.iter().any(|&(_, v)| v > 0) && ref_sweep != ref_a);

    for pool in pools() {
        let threads = pool.num_threads();
        let before = ksa_obs::snapshot();
        let ((a, inner), b) = std::thread::scope(|s| {
            let a = s.spawn(|| rounds_and_sweep(pool));
            let b = s.spawn(|| certified_betti(pool, &complex));
            (a.join().unwrap(), b.join().unwrap())
        });
        let process = ksa_obs::snapshot().det_delta(&before);
        assert_eq!(a.det, ref_a, "rounds + sweep scope, pool size {threads}");
        assert_eq!(
            inner.det, ref_sweep,
            "nested sweep scope, pool size {threads}"
        );
        assert!(inner.det.iter().zip(&a.det).all(|(i, o)| i.1 <= o.1));
        assert_eq!(b.det, ref_b, "certified scope, pool size {threads}");
        assert_eq!(
            process,
            sum(&a.det, &b.det),
            "process delta, pool size {threads}"
        );
    }
}
