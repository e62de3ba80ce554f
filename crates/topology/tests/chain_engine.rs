//! Proptests pinning the flat chain-complex engine (`ksa_topology::chain`)
//! to the behavior of the engine-free references, across `ksa-exec` pool
//! sizes 1/2/8 (DESIGN.md §4, §7):
//!
//! * chain-engine Betti numbers == `reduced_betti_numbers_seq`;
//! * `connectivity_up_to(c, k)` == the truncation of the full
//!   `connectivity(c)` verdict;
//! * skeleton-reuse queries == homology of the materialized
//!   `c.skeleton(k)`;
//! * every round of `RoundsComplex::homology_sweep` == the references
//!   on that round's complex, over small random closed-above models;
//! * a closure spanning many fan-out blocks yields the same arenas,
//!   Betti numbers and homology certificate at every pool size.

use ksa_exec::ThreadPool;
use ksa_graphs::cancel::CancelToken;
use ksa_graphs::Digraph;
use ksa_topology::chain::{reduced_betti_certified, ChainComplex};
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::{
    connectivity, connectivity_seq, connectivity_up_to, Connectivity,
};
use ksa_topology::homology::reduced_betti_numbers_seq;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::protocol_complex_rounds_seq;
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The shared pools (1/2/8 workers), started once for the whole test
/// binary so proptest cases don't churn threads.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].into_iter().map(ThreadPool::new).collect())
}

/// Strategy: a small complex over colors 0..6 with u8 views.
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let simplex = prop::collection::btree_map(0usize..6, 0u8..3, 1..=5).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    prop::collection::vec(simplex, 1..7).prop_map(Complex::from_facets)
}

/// Strategy: the generators of a closed-above model on 3 processes.
fn random_generators() -> impl Strategy<Value = Vec<Digraph>> {
    let graph = prop::collection::btree_set((0usize..3, 0usize..3), 0..7)
        .prop_map(|edges| Digraph::from_edges(3, &edges.into_iter().collect::<Vec<_>>()).unwrap());
    prop::collection::vec(graph, 1..=2)
}

/// Strategy: a chromatic input pseudosphere on 3 processes.
fn random_input() -> impl Strategy<Value = Complex<u32>> {
    prop::collection::vec(prop::collection::btree_set(0u32..3, 1..=2), 3..=3).prop_map(|views| {
        Pseudosphere::new(
            views
                .into_iter()
                .enumerate()
                .map(|(p, vs)| (p, vs.into_iter().collect()))
                .collect(),
        )
        .unwrap()
        .to_complex()
    })
}

/// The truncation of a full connectivity verdict at `k`: what
/// `connectivity_up_to` promises to return (its documented semantics).
fn truncate(full: Connectivity, k: isize, dim: isize) -> Connectivity {
    let cap = k.min(dim);
    match full {
        Connectivity::Empty => Connectivity::Empty,
        Connectivity::Exactly(c) if c < cap => Connectivity::Exactly(c),
        Connectivity::Exactly(_) | Connectivity::AtLeast(_) => Connectivity::AtLeast(cap),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chain_betti_matches_seq_reference(c in small_complex()) {
        let reference = reduced_betti_numbers_seq(&c);
        for pool in pools() {
            let betti = pool.install(|| ChainComplex::from_complex(&c).reduced_betti());
            prop_assert_eq!(&betti, &reference, "pool size {}", pool.num_threads());
        }
    }

    #[test]
    fn connectivity_matches_seq_reference(c in small_complex()) {
        let reference = connectivity_seq(&c);
        for pool in pools() {
            let verdict = pool.install(|| connectivity(&c));
            prop_assert_eq!(verdict, reference, "pool size {}", pool.num_threads());
        }
    }

    #[test]
    fn connectivity_up_to_agrees_with_truncation(c in small_complex(), k in -1isize..5) {
        let full = connectivity_seq(&c);
        let expected = truncate(full, k, c.dim());
        for pool in pools() {
            let verdict = pool.install(|| connectivity_up_to(&c, k));
            prop_assert_eq!(verdict, expected, "pool size {}, k = {k}", pool.num_threads());
        }
    }

    #[test]
    fn skeleton_queries_match_materialized_skeleta(c in small_complex(), k in 0isize..5) {
        let sk = c.skeleton(k);
        let betti_ref = reduced_betti_numbers_seq(&sk);
        let conn_ref = connectivity_seq(&sk);
        for pool in pools() {
            let (betti, conn) = pool.install(|| {
                let mut chain = c.chain();
                (chain.skeleton_betti(k), chain.skeleton_connectivity(k))
            });
            prop_assert_eq!(&betti, &betti_ref, "pool size {}, k = {k}", pool.num_threads());
            prop_assert_eq!(conn, conn_ref, "pool size {}, k = {k}", pool.num_threads());
        }
    }

    /// Each round of the sweep reproduces the engine-free references on
    /// that round's complex; a silent token changes nothing. The facet
    /// budget keeps the dense reference cheap: larger models are skipped.
    #[test]
    fn round_sweep_matches_seq_reference(
        gens in random_generators(),
        input in random_input(),
        rounds in 1usize..=2,
    ) {
        let rc = protocol_complex_rounds_seq(&gens, &input, rounds, 2_000u128);
        prop_assume!(rc.is_ok());
        let rc = rc.unwrap();
        let reference: Vec<_> = rc
            .complexes()
            .iter()
            .map(|c| (reduced_betti_numbers_seq(c), connectivity_seq(c)))
            .collect();
        for pool in pools() {
            let (steps, cancellable) = pool.install(|| {
                (rc.homology_sweep(), rc.homology_sweep_cancellable(&CancelToken::new()))
            });
            prop_assert_eq!(cancellable.as_ref(), Ok(&steps), "pool size {}", pool.num_threads());
            prop_assert_eq!(steps.len(), rounds);
            for (t, (step, (betti, conn))) in steps.iter().zip(&reference).enumerate() {
                prop_assert_eq!(&step.betti, betti, "pool size {}, round {}", pool.num_threads(), t + 1);
                prop_assert_eq!(step.connectivity, *conn, "pool size {}, round {}", pool.num_threads(), t + 1);
            }
        }
    }
}

/// A closure spanning many fan-out blocks (the engine enumerates faces
/// over blocks of 16 facets; the proptest complexes above fit in one):
/// the 2-round protocol complex of the closed-above model generated by
/// the directed 3-path over unary inputs has 256 facets and reduced
/// Betti numbers `[0, 17, 48]`. Arenas, Betti numbers and the homology
/// certificate must not depend on the pool size.
#[test]
fn multi_block_closure_identical_across_pool_sizes() {
    let gens = vec![ksa_graphs::families::path(3).unwrap()];
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32])).collect())
        .unwrap()
        .to_complex();
    let rc = protocol_complex_rounds_seq(&gens, &input, 2, 1_000_000u128).unwrap();
    let c = &rc.complexes()[1];
    assert!(c.facet_count() >= 8 * 16, "{} facets", c.facet_count());
    let all = c.all_simplexes();
    let expected_counts: Vec<usize> = (0..=c.dim())
        .map(|k| all.iter().filter(|s| s.dim() == k).count())
        .collect();
    let betti_ref = reduced_betti_numbers_seq(c);
    let mut certs = Vec::new();
    for pool in pools() {
        let threads = pool.num_threads();
        let (counts, betti, certified) = pool.install(|| {
            let mut chain = ChainComplex::from_complex(c);
            let counts: Vec<usize> = (0..=c.dim() as usize)
                .map(|k| chain.simplex_count(k))
                .collect();
            let certified = reduced_betti_certified(c, "path3-round2").unwrap();
            (counts, chain.reduced_betti(), certified)
        });
        assert_eq!(counts, expected_counts, "pool size {threads}");
        assert_eq!(betti, betti_ref, "pool size {threads}");
        let (certified_betti, cert) = certified;
        assert_eq!(certified_betti, betti_ref, "pool size {threads}");
        assert_eq!(
            ksa_cert::check_homology(&cert),
            Ok(()),
            "pool size {threads}"
        );
        certs.push(cert);
    }
    assert!(certs.windows(2).all(|w| w[0] == w[1]));
}
