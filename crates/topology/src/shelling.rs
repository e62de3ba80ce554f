//! Shellability (§4.4, Figure 4).
//!
//! A pure `d`-complex is **shellable** when its facets can be ordered
//! `φ_1, …, φ_r` so that each `(⋃_{i≤t} φ_i) ∩ φ_{t+1}` is a pure
//! `(d−1)`-dimensional subcomplex of `∂φ_{t+1}`. Shellable complexes are
//! the scaffolding of the paper's main technical Lemma 4.17 (the input
//! pseudosphere is shelled facet by facet, and the interpreted images are
//! glued with Cor 4.16).
//!
//! This module verifies candidate shelling orders exactly, and decides
//! shellability by memoized search over facet subsets (exact, exponential:
//! fine for the ≤ 20-facet complexes in the paper's figures and our
//! experiments).
//!
//! # The racing portfolio (DESIGN.md §11)
//!
//! [`find_shelling_order`] races three facet-ordering heuristics
//! (canonical index order, descending `(d−1)`-ridge degree, descending
//! intersection count) as work-stealing DFS tasks on the `ksa-exec`
//! pool, sharing a [`ksa_exec::ShardedSet`] of proved-dead facet
//! subsets and cancelling on first success — the same shape as the
//! solvability CSP portfolio (DESIGN.md §10.2). Whether an order exists
//! is intrinsic to the complex and every strategy's search is complete,
//! so the *verdict* is bit-identical at any `KSA_THREADS`; the winning
//! *witness order* may legitimately differ across schedules (any
//! witness re-verifies through [`is_shelling_order`] and the `ksa-cert`
//! checker). The memoized sequential search stays available as
//! [`find_shelling_order_seq`], the pinned oracle of the determinism
//! contract (DESIGN.md §4): the canonical strategy is spawned last, so
//! a lone worker pops it first (LIFO) and explores exactly the oracle's
//! node order.
//!
//! Dead-subset publication follows the monotone no-good contract
//! (DESIGN.md §10.3): a subtree publishes its used-set only after a
//! *complete, unaborted* exploration proved no extension shells — never
//! on cancellation — so every table entry is an instance fact, valid
//! for every strategy.

use crate::complex::Complex;
use crate::error::TopologyError;
use crate::simplex::{Simplex, View};
use ksa_graphs::ctx::Ctx;
use std::collections::HashMap;

/// Whether adding `new` after the facets in `prior` satisfies the shelling
/// condition: `(⋃ prior) ∩ new` is non-void, pure of dimension
/// `dim(new) − 1`.
fn step_ok<V: View>(prior: &[Simplex<V>], new: &Simplex<V>) -> bool {
    let d = new.dim();
    // Maximal intersections with earlier facets.
    let mut inters: Vec<Simplex<V>> = prior
        .iter()
        .map(|p| p.intersection(new))
        .filter(|s| !s.is_empty())
        .collect();
    if inters.is_empty() {
        return false;
    }
    // Keep only maximal ones.
    inters.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let mut maximal: Vec<Simplex<V>> = Vec::new();
    'outer: for s in inters {
        for m in &maximal {
            if m.contains(&s) {
                continue 'outer;
            }
        }
        maximal.push(s);
    }
    // Pure of dimension d − 1: every maximal intersection is a (d−1)-face.
    maximal.iter().all(|s| s.dim() == d - 1)
}

/// Verifies that `order` is a shelling order of the pure complex it spans.
///
/// # Errors
///
/// [`TopologyError::EmptyComplex`] for an empty order;
/// [`TopologyError::NotPure`] if the facets have mixed dimensions.
pub fn is_shelling_order<V: View>(order: &[Simplex<V>]) -> Result<bool, TopologyError> {
    let first = order.first().ok_or(TopologyError::EmptyComplex)?;
    let d = first.dim();
    if order.iter().any(|s| s.dim() != d) {
        return Err(TopologyError::NotPure);
    }
    for t in 1..order.len() {
        if !step_ok(&order[..t], &order[t]) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Validates the complex and collects its facets for a shellability
/// search (`r ≤ 63` enforced for the `u64` used-set bitmask).
fn search_facets<V: View>(complex: &Complex<V>) -> Result<Vec<Simplex<V>>, TopologyError> {
    complex.require_pure()?;
    let facets: Vec<Simplex<V>> = complex.facets().cloned().collect();
    if facets.len() > 63 {
        return Err(TopologyError::TooLarge {
            what: "facets for shellability search",
            estimated: facets.len() as u128,
            limit: 63,
        });
    }
    Ok(facets)
}

/// Sequential memoized subset search. Returns the picked facet indices
/// (or `None`) plus the number of dead used-sets recorded — the
/// exhaustion statistic carried by negative certificates.
fn search_seq<V: View>(facets: &[Simplex<V>]) -> (Option<Vec<usize>>, u64) {
    let r = facets.len();
    // step_ok depends only on (used-set, next); `false` is cached per
    // used-set, `true` is never cached for incomplete states (we return
    // on first success).
    let mut memo: HashMap<u64, bool> = HashMap::new();
    fn dfs<V: View>(
        facets: &[Simplex<V>],
        used: u64,
        picked: &mut Vec<usize>,
        memo: &mut HashMap<u64, bool>,
    ) -> bool {
        let r = facets.len();
        if picked.len() == r {
            return true;
        }
        if let Some(&ok) = memo.get(&used) {
            if !ok {
                return false;
            }
        }
        let prior: Vec<Simplex<V>> = picked.iter().map(|&i| facets[i].clone()).collect();
        for next in 0..r {
            if used >> next & 1 == 1 {
                continue;
            }
            if step_ok(&prior, &facets[next]) {
                picked.push(next);
                if dfs(facets, used | (1 << next), picked, memo) {
                    return true;
                }
                picked.pop();
            }
        }
        memo.insert(used, false);
        false
    }

    // Any facet can start.
    for start in 0..r {
        let mut picked = vec![start];
        if dfs(facets, 1u64 << start, &mut picked, &mut memo) {
            return (Some(picked), memo.len() as u64);
        }
    }
    (None, memo.len() as u64)
}

mod portfolio {
    //! The racing shelling portfolio (module docs above; mirrors the
    //! solvability CSP portfolio of DESIGN.md §10.2).

    use super::{step_ok, Simplex, View};
    use ksa_exec::ShardedSet;
    use ksa_graphs::cancel::{CancelToken, Interrupted};
    use std::sync::Mutex;

    enum Search {
        Found,
        Dead,
        Aborted,
    }

    /// DFS over facet subsets trying candidates in `ord`'s priority.
    /// Publishes `used` into the shared dead table only after a
    /// complete, unaborted exploration (the monotone contract).
    fn dfs<V: View>(
        facets: &[Simplex<V>],
        ord: &[usize],
        used: u64,
        picked: &mut Vec<usize>,
        dead: &ShardedSet<u64>,
        cancel: &CancelToken,
    ) -> Search {
        if picked.len() == facets.len() {
            return Search::Found;
        }
        if cancel.is_cancelled() {
            return Search::Aborted;
        }
        if dead.contains(&used) {
            ksa_obs::perf_count(ksa_obs::PerfCounter::NoGoodHits, 1);
            return Search::Dead;
        }
        ksa_obs::perf_count(ksa_obs::PerfCounter::PortfolioNodes, 1);
        let prior: Vec<Simplex<V>> = picked.iter().map(|&i| facets[i].clone()).collect();
        for &next in ord {
            if used >> next & 1 == 1 {
                continue;
            }
            if step_ok(&prior, &facets[next]) {
                picked.push(next);
                match dfs(facets, ord, used | (1 << next), picked, dead, cancel) {
                    Search::Found => return Search::Found,
                    Search::Dead => {
                        picked.pop();
                    }
                    Search::Aborted => {
                        picked.pop();
                        return Search::Aborted;
                    }
                }
            }
        }
        // Every extension was explored to a proved-dead end (no aborts
        // on this path), so `used` is dead for *every* strategy — safe
        // to publish even if a cancellation just arrived.
        if dead.insert(used) {
            ksa_obs::perf_count(ksa_obs::PerfCounter::NoGoodInserts, 1);
        }
        Search::Dead
    }

    /// One strategy: try every start facet in `ord`'s priority.
    /// `None` means the race was cancelled before this strategy could
    /// finish; `Some(verdict)` is a complete search result.
    fn run_strategy<V: View>(
        facets: &[Simplex<V>],
        ord: &[usize],
        dead: &ShardedSet<u64>,
        cancel: &CancelToken,
    ) -> Option<Option<Vec<usize>>> {
        for &start in ord {
            if cancel.is_cancelled() {
                return None;
            }
            let mut picked = vec![start];
            match dfs(facets, ord, 1u64 << start, &mut picked, dead, cancel) {
                Search::Found => return Some(Some(picked)),
                Search::Dead => {}
                Search::Aborted => return None,
            }
        }
        Some(None)
    }

    /// Index order sorted by descending score, ties by ascending index.
    fn by_desc_score(scores: &[usize]) -> Vec<usize> {
        let mut ord: Vec<usize> = (0..scores.len()).collect();
        ord.sort_by_key(|&i| (std::cmp::Reverse(scores[i]), i));
        ord
    }

    /// Race the ordering heuristics; first complete search wins and
    /// cancels the rest. Returns the winning verdict plus the shared
    /// dead-table size (the exhaustion statistic for certificates).
    /// The race flag is a child of `external`, so firing it stops every
    /// strategy.
    pub(super) fn search<V: View>(
        facets: &[Simplex<V>],
        external: &CancelToken,
    ) -> Result<(Option<Vec<usize>>, u64), Interrupted> {
        let r = facets.len();
        let width = facets[0].len();
        // Pairwise intersection sizes drive both heuristics: ridge
        // degree counts (d−1)-intersections, touch counts nonempty ones.
        let mut inter_len = vec![0usize; r * r];
        for i in 0..r {
            for j in (i + 1)..r {
                let l = facets[i].intersection(&facets[j]).len();
                inter_len[i * r + j] = l;
                inter_len[j * r + i] = l;
            }
        }
        let ridge: Vec<usize> = (0..r)
            .map(|i| {
                (0..r)
                    .filter(|&j| j != i && inter_len[i * r + j] == width - 1)
                    .count()
            })
            .collect();
        let touch: Vec<usize> = (0..r)
            .map(|i| {
                (0..r)
                    .filter(|&j| j != i && inter_len[i * r + j] > 0)
                    .count()
            })
            .collect();
        let canonical: Vec<usize> = (0..r).collect();
        let mut alternates = vec![by_desc_score(&ridge), by_desc_score(&touch)];
        alternates.dedup();
        alternates.retain(|ord| *ord != canonical);

        let dead: ShardedSet<u64> = ShardedSet::new();
        let cancel = external.child();
        let winner: Mutex<Option<Option<Vec<usize>>>> = Mutex::new(None);
        let report = |verdict: Option<Vec<usize>>| -> bool {
            let mut slot = winner.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some(verdict);
                cancel.cancel();
                true
            } else {
                false
            }
        };

        ksa_exec::scope(|s| {
            for ord in &alternates {
                let (dead, cancel, report) = (&dead, &cancel, &report);
                s.spawn(move |_| {
                    if let Some(verdict) = run_strategy(facets, ord, dead, cancel) {
                        if report(verdict) {
                            ksa_obs::perf_count(ksa_obs::PerfCounter::PortfolioAlternateWins, 1);
                        }
                    }
                });
            }
            // Canonical last: scope workers pop LIFO, so a lone worker
            // runs it first and walks exactly the sequential oracle's
            // node order (bit-reproducible single-thread behavior).
            {
                let (canonical, dead, cancel, report) = (&canonical, &dead, &cancel, &report);
                s.spawn(move |_| {
                    if let Some(verdict) = run_strategy(facets, canonical, dead, cancel) {
                        if report(verdict) {
                            ksa_obs::perf_count(ksa_obs::PerfCounter::PortfolioCanonicalWins, 1);
                        }
                    }
                });
            }
        });

        let states = dead.len() as u64;
        match winner.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(verdict) => Ok((verdict, states)),
            // No winner: the external token fired. (Otherwise the race
            // flag only fires after a winner reported, so fall back to
            // the oracle rather than panic.)
            None => external.checkpoint().map(|()| super::search_seq(facets)),
        }
    }
}

/// Searches for a shelling order of a pure complex. Returns `None` when the
/// complex is not shellable.
///
/// Races the ordering-heuristic portfolio on the `ksa-exec` pool (see
/// the module docs); the verdict (`Some` vs `None`) is bit-identical to
/// [`find_shelling_order_seq`] at any `KSA_THREADS`, while the witness
/// order may differ across schedules (any witness passes
/// [`is_shelling_order`]). `ctx.cancel` is polled at every search node;
/// the budget is not read (the 63-facet cap bounds the search).
///
/// With `ctx.certs` set, the verdict is also emitted as a
/// [`ksa_cert::ShellingCert`]: the witness order for a shellable
/// complex, the exhaustion statistics otherwise. Vertices are interned
/// to `u32` by their rank in the complex's sorted vertex list; the
/// standalone checker re-verifies the verdict from the certificate
/// alone (DESIGN.md §11).
///
/// # Errors
///
/// [`TopologyError::EmptyComplex`] / [`TopologyError::NotPure`] as in
/// [`is_shelling_order`]; [`TopologyError::TooLarge`] beyond 63 facets;
/// [`TopologyError::Cancelled`] / [`TopologyError::DeadlineExceeded`]
/// when the token fires.
pub fn find_shelling_order<'a, V: View>(
    complex: &Complex<V>,
    ctx: impl Into<Ctx<'a>>,
) -> Result<Option<Vec<Simplex<V>>>, TopologyError> {
    let ctx = ctx.into();
    ctx.cancel.checkpoint()?;
    let facets = search_facets(complex)?;
    let (picked, states) = if facets.len() == 1 {
        (Some(vec![0]), 0)
    } else {
        portfolio::search(&facets, &ctx.cancel)?
    };
    if let Some(sink) = ctx.certs {
        let verdict = match &picked {
            Some(p) => ksa_cert::ShellingVerdict::Order(p.iter().map(|&i| i as u32).collect()),
            None => ksa_cert::ShellingVerdict::Exhausted { states },
        };
        ksa_obs::count(ksa_obs::Counter::CertsEmitted, 1);
        sink.push(ksa_cert::Cert::Shelling(ksa_cert::ShellingCert {
            label: sink.label().to_string(),
            facets: intern_facets(complex, &facets),
            verdict,
        }));
    }
    Ok(picked.map(|p| p.into_iter().map(|i| facets[i].clone()).collect()))
}

/// Each facet as the ascending ranks of its vertices in the complex's
/// sorted vertex list (the certificate's vertex ids).
fn intern_facets<V: View>(complex: &Complex<V>, facets: &[Simplex<V>]) -> Vec<Vec<u32>> {
    let verts = complex.vertices();
    facets
        .iter()
        .map(|f| {
            let mut ids: Vec<u32> = f
                .vertices()
                .iter()
                .map(|v| {
                    verts
                        .binary_search(v)
                        .expect("facet vertex is in the complex's vertex list")
                        as u32
                })
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// The sequential memoized search, kept verbatim as the pinned oracle
/// of the determinism contract (DESIGN.md §4): portfolio verdicts are
/// proptest-pinned bit-identical to this at pool sizes 1/2/8
/// (`crates/topology/tests/shelling_portfolio.rs`).
///
/// Memoized subset search: `O(2^r · r²)` pair checks for `r` facets.
///
/// # Errors
///
/// Same conditions as [`find_shelling_order`].
pub fn find_shelling_order_seq<V: View>(
    complex: &Complex<V>,
) -> Result<Option<Vec<Simplex<V>>>, TopologyError> {
    let facets = search_facets(complex)?;
    if facets.len() == 1 {
        return Ok(Some(facets));
    }
    let (picked, _states) = search_seq(&facets);
    Ok(picked.map(|p| p.into_iter().map(|i| facets[i].clone()).collect()))
}

/// Whether a pure complex is shellable.
///
/// # Errors
///
/// Same conditions as [`find_shelling_order`].
pub fn is_shellable<V: View>(complex: &Complex<V>) -> Result<bool, TopologyError> {
    Ok(find_shelling_order(complex, Ctx::default())?.is_some())
}

/// Lemma 4.15 sanity helper: for a pure `(d−1)`-dimensional subcomplex of
/// the boundary of a `d`-simplex, *every* facet order is a shelling order.
/// Returns true when that holds for the given complex (used by tests and
/// the Lemma 4.17 experiment).
pub fn every_order_shells<V: View>(complex: &Complex<V>) -> Result<bool, TopologyError> {
    complex.require_pure()?;
    let facets: Vec<Simplex<V>> = complex.facets().cloned().collect();
    if facets.len() > 8 {
        return Err(TopologyError::TooLarge {
            what: "facets for exhaustive order check",
            estimated: facets.len() as u128,
            limit: 8,
        });
    }
    let mut idx: Vec<usize> = (0..facets.len()).collect();
    // Heap's algorithm over indices.
    fn rec<V: View>(k: usize, idx: &mut Vec<usize>, facets: &[Simplex<V>]) -> bool {
        if k <= 1 {
            let order: Vec<Simplex<V>> = idx.iter().map(|&i| facets[i].clone()).collect();
            return is_shelling_order(&order).unwrap_or(false);
        }
        for i in 0..k {
            if !rec(k - 1, idx, facets) {
                return false;
            }
            if k.is_multiple_of(2) {
                idx.swap(i, k - 1);
            } else {
                idx.swap(0, k - 1);
            }
        }
        rec(k - 1, idx, facets)
    }
    let n = idx.len();
    Ok(rec(n, &mut idx, &facets))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shellability verdict with its certificate, through the sink.
    fn certified(c: &Complex<u32>, label: &str) -> Result<(bool, ksa_cert::Cert), TopologyError> {
        let sink = ksa_cert::CertSink::new(label);
        let order = find_shelling_order(c, &sink)?;
        let [cert] = <[_; 1]>::try_from(sink.into_certs()).expect("one certificate");
        Ok((order.is_some(), cert))
    }
    use crate::simplex::Vertex;

    fn simplex(colors: &[usize]) -> Simplex<u32> {
        Simplex::new(colors.iter().map(|&c| Vertex::new(c, 0u32)).collect()).unwrap()
    }

    #[test]
    fn figure_4a_is_shellable() {
        // Two triangles sharing an edge (the paper's shellable exemplar).
        let c = Complex::from_facets(vec![simplex(&[0, 1, 2]), simplex(&[0, 2, 3])]);
        assert!(is_shellable(&c).unwrap());
        let order = find_shelling_order(&c, Ctx::default()).unwrap().unwrap();
        assert!(is_shelling_order(&order).unwrap());
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn figure_4b_is_not_shellable() {
        // Two triangles sharing only a vertex (the paper's non-shellable
        // exemplar): the second facet meets the first in dimension 0 ≠ 1.
        let c = Complex::from_facets(vec![simplex(&[0, 1, 2]), simplex(&[2, 3, 4])]);
        assert!(!is_shellable(&c).unwrap());
    }

    #[test]
    fn single_facet_is_shellable() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2]));
        assert!(is_shellable(&c).unwrap());
    }

    #[test]
    fn boundary_of_simplex_is_shellable_any_order() {
        // Lemma 4.15: the full boundary complex of a simplex shells in any
        // facet order.
        for d in 2..5 {
            let s = simplex(&(0..=d).collect::<Vec<_>>());
            let b = Complex::boundary_of(&s);
            assert!(every_order_shells(&b).unwrap(), "d = {d}");
        }
    }

    #[test]
    fn sub_boundary_complexes_shell_any_order() {
        // Lemma 4.15 proper: any pure (d−1)-subcomplex of ∂(d-simplex).
        let s = simplex(&[0, 1, 2, 3]);
        let all_faces: Vec<Simplex<u32>> = Complex::boundary_of(&s).facets().cloned().collect();
        // Every subset of the 4 triangles.
        for mask in 1u32..16 {
            let sub: Vec<Simplex<u32>> = all_faces
                .iter()
                .enumerate()
                .filter(|&(i, _)| (mask >> i) & 1 == 1)
                .map(|(_, f)| f.clone())
                .collect();
            let c = Complex::from_facets(sub);
            assert!(every_order_shells(&c).unwrap(), "mask = {mask}");
        }
    }

    #[test]
    fn disconnected_pure_complex_not_shellable() {
        let c = Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[2, 3])]);
        assert!(!is_shellable(&c).unwrap());
    }

    #[test]
    fn path_of_edges_is_shellable() {
        let c = Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[1, 2]), simplex(&[2, 3])]);
        assert!(is_shellable(&c).unwrap());
    }

    #[test]
    fn specific_order_verification() {
        let t1 = simplex(&[0, 1, 2]);
        let t2 = simplex(&[0, 2, 3]);
        let t3 = simplex(&[3, 4, 5]); // far away
        assert!(is_shelling_order(&[t1.clone(), t2.clone()]).unwrap());
        assert!(!is_shelling_order(&[t1.clone(), t3.clone()]).unwrap());
        assert!(is_shelling_order(std::slice::from_ref(&t1)).unwrap());
        assert!(is_shelling_order::<u32>(&[]).is_err());
        assert!(is_shelling_order(&[t1, simplex(&[8, 9])]).is_err());
    }

    #[test]
    fn impure_complex_rejected() {
        let c = Complex::from_facets(vec![simplex(&[0, 1, 2]), simplex(&[5, 6])]);
        assert_eq!(is_shellable(&c), Err(TopologyError::NotPure));
    }

    // ------------------------------------------------------------------
    // step_ok edge cases: the exact shelling condition, beyond the happy
    // paths of Figure 4.
    // ------------------------------------------------------------------

    #[test]
    fn step_ok_rejects_empty_prior() {
        // The first facet has no condition to satisfy — but step_ok on an
        // empty prior must say "no" (nothing to glue to), which is why
        // is_shelling_order starts checking at t = 1.
        assert!(!step_ok::<u32>(&[], &simplex(&[0, 1, 2])));
    }

    #[test]
    fn step_ok_zero_dimensional_facets() {
        // A pure 0-complex: d − 1 = −1, but intersections of distinct
        // vertices are empty and get filtered — never shellable beyond
        // one facet.
        let v0 = simplex(&[0]);
        let v1 = simplex(&[1]);
        assert!(!step_ok(std::slice::from_ref(&v0), &v1));
        // A repeated facet meets itself in dimension 0 ≠ −1: also no.
        assert!(!step_ok(std::slice::from_ref(&v0), &v0));
        // And through the public API: two isolated vertices are not a
        // shelling order, one vertex alone is.
        assert!(!is_shelling_order(&[v0.clone(), v1]).unwrap());
        assert!(is_shelling_order(std::slice::from_ref(&v0)).unwrap());
    }

    #[test]
    fn step_ok_duplicate_maximal_intersections() {
        // Two prior facets meeting the new one in the *same* (d−1)-face:
        // the duplicate must collapse (containment check), leaving one
        // maximal intersection of the right dimension — accepted.
        let t1 = simplex(&[0, 1, 2]);
        let t2 = simplex(&[0, 1, 3]);
        let new = simplex(&[0, 1, 4]);
        assert!(step_ok(&[t1.clone(), t2.clone()], &new));
        // The full order verifies too.
        assert!(is_shelling_order(&[t1, t2, new]).unwrap());
    }

    #[test]
    fn step_ok_pure_but_wrong_dimensional_intersection() {
        // The intersection complex can be pure and non-empty yet of
        // dimension d − 2 instead of d − 1: a single shared vertex
        // between triangles (Figure 4b's failure, isolated here at the
        // step level).
        let prior = simplex(&[0, 3, 4]);
        let new = simplex(&[0, 1, 2]);
        assert!(!step_ok(std::slice::from_ref(&prior), &new));
    }

    #[test]
    fn step_ok_mixed_dimensional_intersections() {
        // One prior facet meets new in a (d−1)-face, another in a lone
        // vertex not contained in that face: the intersection is impure —
        // rejected even though a full-dimensional glue exists.
        let good = simplex(&[0, 1, 5]);
        let bad = simplex(&[2, 6, 7]);
        let new = simplex(&[0, 1, 2]);
        assert!(step_ok(std::slice::from_ref(&good), &new));
        assert!(!step_ok(&[good, bad], &new));
    }

    #[test]
    fn step_ok_containment_is_not_commutative_confusion() {
        // The maximality filter must keep the larger of nested
        // intersections: prior facets meeting new in an edge and in a
        // vertex *of that edge* still shell (the vertex intersection is
        // dominated, not impure).
        let edge_glue = simplex(&[0, 1, 5]);
        let vertex_of_edge = simplex(&[1, 6, 7]);
        let new = simplex(&[0, 1, 2]);
        assert!(step_ok(&[edge_glue, vertex_of_edge], &new));
    }

    // ------------------------------------------------------------------
    // Search-level edge cases: the degenerate complexes the figures
    // never exercise.
    // ------------------------------------------------------------------

    #[test]
    fn empty_complex_is_rejected_everywhere() {
        let c: Complex<u32> = Complex::void();
        assert_eq!(
            find_shelling_order(&c, Ctx::default()),
            Err(TopologyError::EmptyComplex)
        );
        assert_eq!(
            find_shelling_order_seq(&c),
            Err(TopologyError::EmptyComplex)
        );
        assert_eq!(is_shellable(&c), Err(TopologyError::EmptyComplex));
        assert_eq!(every_order_shells(&c), Err(TopologyError::EmptyComplex));
        assert!(certified(&c, "void").is_err());
    }

    #[test]
    fn single_facet_order_is_the_facet() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2]));
        let order = find_shelling_order(&c, Ctx::default()).unwrap().unwrap();
        assert_eq!(order, vec![simplex(&[0, 1, 2])]);
        assert_eq!(find_shelling_order_seq(&c).unwrap().unwrap(), order);
        let (shellable, cert) = certified(&c, "single").unwrap();
        assert!(shellable);
        assert_eq!(cert.check(), Ok(()));
    }

    #[test]
    fn zero_dimensional_complexes() {
        // One vertex: shellable (trivially). Two isolated vertices: the
        // step condition has nothing to glue — not shellable.
        let point = Complex::of_simplex(simplex(&[0]));
        assert!(is_shellable(&point).unwrap());
        let two = Complex::from_facets(vec![simplex(&[0]), simplex(&[1])]);
        assert!(!is_shellable(&two).unwrap());
        assert!(find_shelling_order(&two, Ctx::default()).unwrap().is_none());
        assert!(find_shelling_order_seq(&two).unwrap().is_none());
        let (shellable, cert) = certified(&two, "two-points").unwrap();
        assert!(!shellable);
        assert_eq!(cert.check(), Ok(()));
    }

    #[test]
    fn pinned_counterexample_some_but_not_all_orders_shell() {
        // The path of three edges shells in path order but not when the
        // two end edges come first: [01], [23] are disjoint at step 2.
        let e01 = simplex(&[0, 1]);
        let e12 = simplex(&[1, 2]);
        let e23 = simplex(&[2, 3]);
        let c = Complex::from_facets(vec![e01.clone(), e12.clone(), e23.clone()]);
        assert!(is_shellable(&c).unwrap());
        assert!(is_shelling_order(&[e01.clone(), e12.clone(), e23.clone()]).unwrap());
        assert!(!is_shelling_order(&[e01, e23, e12]).unwrap());
        assert!(!every_order_shells(&c).unwrap());
    }

    #[test]
    fn certified_verdicts_round_trip_and_check() {
        for (facets, label) in [
            (vec![simplex(&[0, 1, 2]), simplex(&[0, 2, 3])], "fig4a"),
            (vec![simplex(&[0, 1, 2]), simplex(&[2, 3, 4])], "fig4b"),
        ] {
            let c = Complex::from_facets(facets);
            let (shellable, cert) = certified(&c, label).unwrap();
            assert_eq!(shellable, is_shellable(&c).unwrap(), "{label}");
            assert_eq!(cert.check(), Ok(()), "{label}");
            assert_eq!(cert.label(), label);
            let parsed = ksa_cert::Cert::parse(&cert.to_text()).unwrap();
            assert_eq!(parsed, cert, "{label}");
        }
    }

    #[test]
    fn octahedron_boundary_is_shellable() {
        // Pseudosphere with binary views: the octahedron (2-sphere), a
        // classic shellable complex with 8 facets.
        use crate::pseudosphere::Pseudosphere;
        let ps = Pseudosphere::new((0..3).map(|c| (c, vec![0u32, 1])).collect()).unwrap();
        let c = ps.to_complex();
        assert_eq!(c.facet_count(), 8);
        assert!(is_shellable(&c).unwrap());
    }
}
