//! Criterion benches of the topology substrate: pseudosphere
//! materialization, homology (the chain engine's tracked microbench),
//! protocol-complex construction and connectivity verification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ksa_core::task::input_complex;
use ksa_core::verify::verify_protocol_connectivity;
use ksa_graphs::families;
use ksa_models::named;
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::{connectivity, connectivity_up_to, homological_connectivity};
use ksa_topology::homology::reduced_betti_numbers;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::protocol_complex_rounds;
use ksa_topology::shelling::find_shelling_order;
use ksa_topology::uninterpreted::{closed_above_pseudosphere, closed_above_uninterpreted_complex};
use std::hint::black_box;

fn bench_pseudosphere_materialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("pseudosphere_to_complex");
    for n in [3usize, 4, 5] {
        let ps = Pseudosphere::new((0..n).map(|p| (p, vec![0u32, 1, 2])).collect())
            .expect("distinct colors");
        group.bench_with_input(BenchmarkId::new("ternary_views", n), &ps, |b, ps| {
            b.iter(|| ps.to_complex().facet_count())
        });
    }
    group.finish();
}

fn bench_homology(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduced_betti");
    for n in [3usize, 4] {
        let complex = Pseudosphere::new((0..n).map(|p| (p, vec![0u32, 1])).collect())
            .expect("distinct colors")
            .to_complex();
        group.bench_with_input(BenchmarkId::new("cross_polytope", n), &complex, |b, cx| {
            b.iter(|| reduced_betti_numbers(black_box(cx)))
        });
    }
    // A closed-above uninterpreted complex (union of pseudospheres).
    let un = closed_above_pseudosphere(&families::cycle(4).expect("valid")).to_complex();
    group.bench_function("uninterpreted_C4_closure", |b| {
        b.iter(|| homological_connectivity(black_box(&un)))
    });
    group.finish();
}

/// The chain engine's tracked microbench (DESIGN.md §7): Betti numbers,
/// full connectivity and early-exit `connectivity_up_to` on the n=3–4
/// zoo's uninterpreted complexes and on a 2-round iterated protocol
/// complex — the shapes that dominate the `rounds`/`thm412`/`thm54`
/// experiment wall times.
fn bench_homology_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("homology");
    group.sample_size(20);
    let zoo: Vec<(&str, Complex<ksa_graphs::ProcSet>)> = vec![
        (
            "stars_n3_s1",
            closed_above_uninterpreted_complex(
                named::star_unions(3, 1).expect("valid").generators(),
                2_000_000,
            )
            .expect("in budget"),
        ),
        (
            "ring_n4",
            closed_above_uninterpreted_complex(
                named::symmetric_ring(4).expect("valid").generators(),
                2_000_000,
            )
            .expect("in budget"),
        ),
    ];
    for (name, complex) in &zoo {
        group.bench_with_input(BenchmarkId::new("betti", name), complex, |b, cx| {
            b.iter(|| reduced_betti_numbers(black_box(cx)))
        });
        group.bench_with_input(BenchmarkId::new("connectivity", name), complex, |b, cx| {
            b.iter(|| connectivity(black_box(cx)))
        });
        group.bench_with_input(
            BenchmarkId::new("connectivity_up_to_1", name),
            complex,
            |b, cx| b.iter(|| connectivity_up_to(black_box(cx), 1)),
        );
    }
    // A 2-round iterated-interpretation complex (the round sweep's shape).
    let model = named::star_unions(3, 1).expect("valid");
    let input = input_complex(3, 1, 100_000_000).expect("in budget");
    let rc =
        protocol_complex_rounds(model.generators(), &input, 2, 100_000_000u128).expect("in budget");
    let round2 = rc.complex_at(2).expect("materialized").clone();
    group.bench_function("betti/stars_n3_s1_round2", |b| {
        b.iter(|| reduced_betti_numbers(black_box(&round2)))
    });
    group.bench_function("connectivity_up_to_1/stars_n3_s1_round2", |b| {
        b.iter(|| connectivity_up_to(black_box(&round2), 1))
    });
    group.finish();
}

fn bench_protocol_complex(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_complex");
    group.sample_size(10);
    for (name, model, vmax) in [
        (
            "stars_n3_v2",
            named::star_unions(3, 1).expect("valid"),
            1usize,
        ),
        ("ring_n3_v2", named::symmetric_ring(3).expect("valid"), 1),
        ("stars_n3_v3", named::star_unions(3, 1).expect("valid"), 2),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| verify_protocol_connectivity(black_box(&model), vmax, 500_000))
        });
    }
    group.finish();
}

fn bench_input_complex(c: &mut Criterion) {
    let mut group = c.benchmark_group("input_complex");
    for (n, k) in [(3usize, 2usize), (4, 2), (4, 3)] {
        group.bench_with_input(
            BenchmarkId::new("psi", format!("n{n}_k{k}")),
            &(n, k),
            |b, &(n, k)| b.iter(|| input_complex(n, k, 10_000_000)),
        );
    }
    group.finish();
}

/// The shelling portfolio vs the pinned sequential oracle (DESIGN.md
/// §11): the Fig 4 exemplars (tiny accept/reject pair), the octahedron
/// (cross-polytope n = 3, the largest shellable zoo complex) and the
/// n = 4 cross-polytope, each through both search paths plus the
/// certified producer.
fn bench_shelling(c: &mut Criterion) {
    use ksa_graphs::ctx::Ctx;
    use ksa_topology::shelling::find_shelling_order_seq;
    use ksa_topology::simplex::{Simplex, Vertex};

    let mut group = c.benchmark_group("shelling");
    group.sample_size(10);
    let tri = |a: usize, b: usize, c: usize| {
        Simplex::new(vec![
            Vertex::new(a, 0u32),
            Vertex::new(b, 0),
            Vertex::new(c, 0),
        ])
        .expect("distinct colors")
    };
    let mut cases: Vec<(String, Complex<u32>)> = vec![
        (
            "fig4a".into(),
            Complex::from_facets(vec![tri(0, 1, 2), tri(0, 2, 3)]),
        ),
        (
            "fig4b".into(),
            Complex::from_facets(vec![tri(0, 1, 2), tri(2, 3, 4)]),
        ),
    ];
    // Cross-polytopes: n = 3 is the octahedron.
    for n in [3usize, 4] {
        let complex = Pseudosphere::new((0..n).map(|p| (p, vec![0u32, 1])).collect())
            .expect("distinct colors")
            .to_complex();
        cases.push((format!("cross_polytope_{n}"), complex));
    }
    for (name, complex) in &cases {
        group.bench_with_input(BenchmarkId::new("portfolio", name), complex, |b, cx| {
            b.iter(|| find_shelling_order(black_box(cx), Ctx::default()))
        });
        group.bench_with_input(BenchmarkId::new("seq_oracle", name), complex, |b, cx| {
            b.iter(|| find_shelling_order_seq(black_box(cx)))
        });
        group.bench_with_input(BenchmarkId::new("certified", name), complex, |b, cx| {
            b.iter(|| {
                let sink = ksa_cert::CertSink::new("bench");
                find_shelling_order(black_box(cx), &sink).map(|order| (order, sink.into_certs()))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pseudosphere_materialization,
    bench_homology,
    bench_homology_engine,
    bench_protocol_complex,
    bench_input_complex,
    bench_shelling
);
criterion_main!(benches);
