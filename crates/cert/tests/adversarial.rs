//! Adversarial integration tests: every checker must reject a mutated
//! certificate (ISSUE: ≥ 1 rejection test per cert kind), and each
//! reject path is paired with the accept path it perturbs, so a checker
//! that rejects everything cannot pass either. All mutations go through
//! the public textual surface where possible — the same bytes
//! `cert-check` consumes.

use ksa_cert::{
    check_homology, check_shelling, check_solvability, Cert, CertError, HomologyCert, RankWitness,
    ShellingCert, ShellingVerdict, SolvVerdict, SolvabilityCert,
};

/// The 4-facet path graph (as a 1-dimensional complex): shellable in
/// index order, and order-sensitive enough that prefix permutations
/// break the step condition.
fn path_cert() -> ShellingCert {
    ShellingCert {
        label: "path-4".into(),
        facets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
        verdict: ShellingVerdict::Order(vec![0, 1, 2, 3]),
    }
}

/// The circle (empty triangle): b̃ = (0, 1), connectivity 0, with the
/// full GF(2) witness for rank ∂₁ = 2.
fn circle_cert() -> HomologyCert {
    HomologyCert {
        label: "circle".into(),
        facets: vec![vec![0, 1], vec![0, 2], vec![1, 2]],
        betti: vec![0, 1],
        connectivity: 0,
        ranks: vec![RankWitness {
            k: 1,
            rank: 2,
            basis: vec![vec![0, 1], vec![1, 2]],
            combo: vec![vec![0], vec![2]],
        }],
    }
}

/// Binary consensus on 2 processes over the complete graph: decide the
/// minimum heard value.
fn consensus_cert() -> SolvabilityCert {
    SolvabilityCert {
        label: "consensus".into(),
        n: 2,
        k: 1,
        value_max: 1,
        graphs: vec![vec![vec![0, 1], vec![0, 1]]],
        verdict: SolvVerdict::Map(vec![
            (vec![(0, 0), (1, 0)], 0),
            (vec![(0, 0), (1, 1)], 0),
            (vec![(0, 1), (1, 0)], 0),
            (vec![(0, 1), (1, 1)], 1),
        ]),
    }
}

fn rejected(result: Result<(), CertError>) -> bool {
    matches!(result, Err(CertError::Reject(_)))
}

#[test]
fn shelling_accepts_then_rejects_permuted_prefix() {
    let good = path_cert();
    assert_eq!(check_shelling(&good), Ok(()));
    // Permute the prefix so a later facet arrives before its neighbor:
    // [1,2] ∩ ([2,3] ∪ …) at position where the union misses vertex 1.
    let mut bad = good.clone();
    bad.verdict = ShellingVerdict::Order(vec![0, 2, 1, 3]);
    assert!(rejected(check_shelling(&bad)), "permuted prefix must fail");
    // A non-permutation (duplicate index) is rejected structurally.
    let mut dup = good.clone();
    dup.verdict = ShellingVerdict::Order(vec![0, 0, 2, 3]);
    assert!(rejected(check_shelling(&dup)));
    // A false exhaustion claim on the same (shellable) facets is
    // refuted by the checker's own brute force.
    let mut lie = good;
    lie.verdict = ShellingVerdict::Exhausted { states: 7 };
    assert!(rejected(check_shelling(&lie)));
}

#[test]
fn homology_accepts_then_rejects_rank_off_by_one() {
    let good = circle_cert();
    assert_eq!(check_homology(&good), Ok(()));
    // Claim rank 1 with a single basis row: the reduction test finds
    // an original row that does not vanish against the basis.
    let mut bad = good.clone();
    bad.ranks[0] = RankWitness {
        k: 1,
        rank: 1,
        basis: vec![vec![0, 1]],
        combo: vec![vec![0]],
    };
    // Make the Betti/connectivity arithmetic agree with the lie, so
    // only the witness verification itself can catch it.
    bad.betti = vec![1, 2];
    bad.connectivity = -1;
    assert!(rejected(check_homology(&bad)), "rank off by one must fail");
    // Lie about the Betti table while keeping the witness honest.
    let mut betti_lie = good.clone();
    betti_lie.betti = vec![1, 1];
    assert!(rejected(check_homology(&betti_lie)));
    // Lie about connectivity only.
    let mut conn_lie = good;
    conn_lie.connectivity = 1;
    assert!(rejected(check_homology(&conn_lie)));
}

#[test]
fn solvability_accepts_then_rejects_flipped_decision() {
    let good = consensus_cert();
    assert_eq!(check_solvability(&good), Ok(()));
    // Flip one decided value to something nobody holds in that view.
    let mut bad = good.clone();
    let SolvVerdict::Map(entries) = &mut bad.verdict else {
        unreachable!()
    };
    entries[0].1 = 1; // view {p0=0, p1=0} deciding 1: validity violation
    assert!(
        rejected(check_solvability(&bad)),
        "flipped decision must fail"
    );
    // Drop an entry: replay hits an uncovered view.
    let mut missing = good.clone();
    let SolvVerdict::Map(entries) = &mut missing.verdict else {
        unreachable!()
    };
    entries.remove(2);
    assert!(rejected(check_solvability(&missing)));
    // An exhaustion attestation at k ≥ n is impossible on its face.
    let mut absurd = good;
    absurd.k = 2;
    absurd.verdict = SolvVerdict::Exhausted {
        nodes: 5,
        symmetry_order: 2,
    };
    assert!(rejected(check_solvability(&absurd)));
}

#[test]
fn textual_mutations_are_rejected_end_to_end() {
    // Round-trip each kind through text, then corrupt the bytes the way
    // a broken (or malicious) producer would.
    for cert in [
        Cert::Shelling(path_cert()),
        Cert::Homology(circle_cert()),
        Cert::Solvability(consensus_cert()),
    ] {
        let text = cert.to_text();
        // The pristine text parses and checks.
        Cert::parse(&text).unwrap().check().unwrap();
        // Truncation (drop the final `done` sentinel and last line).
        let truncated: String = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.truncate(lines.len().saturating_sub(2));
            lines.join("\n")
        };
        assert!(
            Cert::parse(&truncated).is_err(),
            "truncated {} cert must not parse",
            cert.kind()
        );
        // Header tampering: an unknown kind is a parse error.
        let bad_header = text.replacen(cert.kind(), "nonsense", 1);
        assert!(Cert::parse(&bad_header).is_err());
    }
    // A numeric field corrupted in place: bump the claimed rank inside
    // the homology text (parse survives, the checker must not).
    let text = Cert::Homology(circle_cert()).to_text();
    let tampered = text.replacen("rank 1 2", "rank 1 3", 1);
    assert_ne!(text, tampered, "fixture text changed; update the tamper");
    // A stricter parser may refuse outright (rank > rows); if it
    // parses, the checker must reject.
    if let Ok(cert) = Cert::parse(&tampered) {
        assert!(cert.check().is_err(), "tampered rank must be rejected");
    }
}

/// The rejection message of `result`, or a panic naming what happened
/// instead.
fn reject_reason(result: Result<(), CertError>) -> String {
    match result {
        Err(CertError::Reject(msg)) => msg,
        other => panic!("expected a rejection, got {other:?}"),
    }
}

/// The 4-cycle 0–1–2–3–0: edges sorted [01], [03], [12], [23] give the
/// ∂₁ rows [0,1], [0,3], [1,2], [2,3]; rank 3, b̃ = (0, 1).
fn square_cert() -> HomologyCert {
    HomologyCert {
        label: "square".into(),
        facets: vec![vec![0, 1], vec![0, 3], vec![1, 2], vec![2, 3]],
        betti: vec![0, 1],
        connectivity: 0,
        ranks: vec![RankWitness {
            k: 1,
            rank: 3,
            basis: vec![vec![0, 1], vec![1, 2], vec![2, 3]],
            combo: vec![vec![0], vec![2], vec![3]],
        }],
    }
}

#[test]
fn homology_rejects_two_basis_rows_with_one_leading_column() {
    assert_eq!(check_homology(&circle_cert()), Ok(()));
    // Both rows are honest XORs of their combos and the rank arithmetic
    // is unchanged, so only the echelon (pivot) check can object.
    let mut bad = circle_cert();
    bad.ranks[0].basis = vec![vec![0, 1], vec![0, 2]];
    bad.ranks[0].combo = vec![vec![0], vec![1]];
    let msg = reject_reason(check_homology(&bad));
    assert!(msg.contains("share leading column 0"), "{msg}");
}

#[test]
fn homology_rejects_basis_column_out_of_range() {
    let mut bad = circle_cert();
    // The circle has three vertices, so column 3 does not exist.
    bad.ranks[0].basis[1] = vec![1, 3];
    let msg = reject_reason(check_homology(&bad));
    assert!(
        msg.contains("basis row 1") && msg.contains("below 3"),
        "{msg}"
    );
}

#[test]
fn homology_rejects_row_stuck_after_elimination_steps() {
    let good = square_cert();
    assert_eq!(check_homology(&good), Ok(()));
    // Drop the [2,3] pivot and make Betti/connectivity agree with rank 2.
    // Row 1 = [0,3] starts on a covered column and only strands on
    // column 2 after eliminating [0,1] and then [1,2].
    let mut bad = good;
    bad.ranks[0].rank = 2;
    bad.ranks[0].basis.pop();
    bad.ranks[0].combo.pop();
    bad.betti = vec![1, 2];
    bad.connectivity = -1;
    let msg = reject_reason(check_homology(&bad));
    assert!(
        msg.contains("row 1 ") && msg.contains("leading column 2 uncovered"),
        "{msg}"
    );
}

#[test]
fn homology_rejects_empty_combo() {
    let mut bad = circle_cert();
    bad.ranks[0].combo[0] = Vec::new();
    let msg = reject_reason(check_homology(&bad));
    assert!(msg.contains("combo 0"), "{msg}");
}
