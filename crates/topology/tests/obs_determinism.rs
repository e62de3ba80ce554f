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
//! The counters are process-global, so every measured section takes a
//! test-binary-wide lock: a concurrent test's counts bleeding into a
//! delta would be indistinguishable from a real determinism bug.

#![cfg(all(feature = "parallel", feature = "obs"))]

use ksa_exec::ThreadPool;
use ksa_graphs::Digraph;
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::{connectivity, connectivity_seq};
use ksa_topology::homology::{reduced_betti_numbers, reduced_betti_numbers_seq};
use ksa_topology::nerve::nerve_complex;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::{protocol_complex_rounds, protocol_complex_rounds_seq};
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

const BUDGET: u128 = 10_000_000;

/// The shared pools (1/2/8 workers), started once for the whole test
/// binary so proptest cases don't churn threads.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].into_iter().map(ThreadPool::new).collect())
}

/// Serializes measured sections (see module docs).
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("counter lock")
}

/// The deterministic-tier delta produced by `work`.
fn det_delta(work: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let before = ksa_obs::snapshot();
    work();
    ksa_obs::snapshot().det_delta(&before)
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
        let _guard = counter_lock();
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
        let _guard = counter_lock();
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
        // Building the input enumerates facets, so it must happen under
        // the lock too or it lands in a concurrent test's delta.
        let _guard = counter_lock();
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
                            // The input build counts enumerated facets: keep it under the lock.
    let _guard = counter_lock();
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
