//! Producer-to-checker round trip for homology certificates: every
//! certificate `reduced_betti_certified` emits on a random small complex
//! passes the independent `ksa_cert::check_homology`, both as built and
//! after a trip through the `ksa-cert/1` text format, and flipping any
//! single claim (a rank, a basis column, a combo index, a Betti entry)
//! gets it rejected.

use ksa_cert::{check_homology, Cert, CertError, HomologyCert};
use ksa_topology::chain::reduced_betti_certified;
use ksa_topology::complex::Complex;
use ksa_topology::homology::reduced_betti_numbers;
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;

/// Strategy: a small complex over colors 0..6 with u8 views, facets of
/// up to five vertices (so witnesses reach ∂₄).
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let simplex = prop::collection::btree_map(0usize..6, 0u8..3, 1..=5).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    prop::collection::vec(simplex, 1..8).prop_map(Complex::from_facets)
}

fn certify(c: &Complex<u8>) -> HomologyCert {
    let (betti, cert) = reduced_betti_certified(c, "roundtrip").expect("complex is not void");
    assert_eq!(
        betti,
        reduced_betti_numbers(c),
        "certified path changed the Betti table"
    );
    cert
}

fn rejected(cert: &HomologyCert) -> bool {
    matches!(check_homology(cert), Err(CertError::Reject(_)))
}

/// Indices of the rank witnesses with at least one basis row.
fn nonzero_witnesses(cert: &HomologyCert) -> Vec<usize> {
    (0..cert.ranks.len())
        .filter(|&i| cert.ranks[i].rank > 0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emitted_certificates_check_directly_and_through_text(c in small_complex()) {
        let cert = certify(&c);
        prop_assert_eq!(check_homology(&cert), Ok(()));
        let text = Cert::Homology(cert.clone()).to_text();
        let parsed = Cert::parse(&text).expect("emitted text parses");
        prop_assert_eq!(&parsed, &Cert::Homology(cert));
        prop_assert_eq!(parsed.check(), Ok(()));
    }

    #[test]
    fn one_flipped_claim_is_rejected(
        c in small_complex(),
        picks in (any::<usize>(), any::<usize>(), any::<usize>()),
    ) {
        let good = certify(&c);
        let (a, b, d) = picks;

        // A Betti entry.
        let mut bad = good.clone();
        let i = a % bad.betti.len();
        bad.betti[i] ^= 1;
        prop_assert!(rejected(&bad), "flipped b̃_{} accepted", i);

        let live = nonzero_witnesses(&good);
        if !live.is_empty() {
            let wi = live[a % live.len()];
            let rank = good.ranks[wi].rank as usize;
            let row = b % rank;

            // The rank field alone.
            let mut bad = good.clone();
            bad.ranks[wi].rank ^= 1;
            prop_assert!(rejected(&bad), "flipped rank of ∂_{} accepted", wi + 1);

            // A basis column.
            let mut bad = good.clone();
            let cols = &mut bad.ranks[wi].basis[row];
            let j = d % cols.len();
            cols[j] ^= 1;
            prop_assert!(rejected(&bad), "flipped basis column of ∂_{} accepted", wi + 1);

            // A combo index.
            let mut bad = good.clone();
            let combo = &mut bad.ranks[wi].combo[row];
            let j = d % combo.len();
            combo[j] ^= 1;
            prop_assert!(rejected(&bad), "flipped combo index of ∂_{} accepted", wi + 1);
        }
    }
}
