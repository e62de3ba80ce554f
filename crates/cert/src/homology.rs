//! GF(2) homology certificates: a reduced Betti table carried with an
//! explicit per-dimension rank witness.
//!
//! The witness makes both rank inequalities checkable without redoing
//! elimination blindly:
//!
//! - **rank ≥ r**: the certificate lists `r` basis rows with pairwise
//!   distinct leading columns (echelon shape ⇒ linearly independent)
//!   and, for each, the set of original boundary-row indices whose XOR
//!   reproduces it (⇒ each basis row really lies in the row space).
//! - **rank ≤ r**: the checker reduces *every* original boundary row
//!   against the basis, finding each pivot in a leading-column table;
//!   all of them must vanish.
//!
//! The original boundary rows themselves are **not** trusted from the
//! certificate: the checker rebuilds the face closure and the boundary
//! maps from the facet list with its own code (simple subset
//! enumeration + binary search), independent of the arena/echelon
//! machinery in `ksa_topology::chain`.

use crate::text::{push_label, push_nums, Cursor};
use crate::{strictly_ascending, symm_diff_into, CertError};

/// Hard cap on closure size the checker will rebuild (faces across all
/// dimensions). Way above anything the experiments emit; guards the
/// offline checker against adversarial blowup.
const MAX_CLOSURE_FACES: usize = 5_000_000;

/// An echelon basis + row-combination witness for `rank ∂_k = rank`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankWitness {
    /// Boundary dimension (`k ≥ 1`; the `k = 0` augmentation rank is
    /// always 1 for a nonempty complex and carried implicitly).
    pub k: u32,
    /// The certified rank.
    pub rank: u32,
    /// `rank` sparse rows (strictly ascending column indices into the
    /// sorted `(k−1)`-simplex list) with pairwise distinct leading
    /// columns.
    pub basis: Vec<Vec<u32>>,
    /// For each basis row, the strictly ascending indices (into the
    /// sorted `k`-simplex list) of the original boundary rows whose
    /// XOR equals it.
    pub combo: Vec<Vec<u32>>,
}

/// A reduced GF(2) Betti table for the complex spanned by `facets`,
/// certified by one [`RankWitness`] per boundary dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomologyCert {
    /// Producer-assigned origin (model / round).
    pub label: String,
    /// Facets as strictly ascending vertex lists (mixed dimensions
    /// allowed; the checker closes them downward itself).
    pub facets: Vec<Vec<u32>>,
    /// Claimed reduced Betti numbers `b̃_0 … b̃_dim`.
    pub betti: Vec<u64>,
    /// Claimed connectivity in the `rounds` convention: the largest `c`
    /// with `b̃_0 = … = b̃_c = 0` minus nothing — concretely, first
    /// nonzero Betti index − 1, or `dim` when the whole table is zero
    /// (`−2` is reserved for empty complexes, which are never emitted).
    pub connectivity: i64,
    /// One witness per `k` in `1..=dim`, in order.
    pub ranks: Vec<RankWitness>,
}

impl HomologyCert {
    pub(crate) fn to_text_body(&self, out: &mut String) {
        push_label(out, &self.label);
        out.push_str(&format!("facets {}\n", self.facets.len()));
        for f in &self.facets {
            push_nums(out, f.iter().copied());
        }
        out.push_str("betti ");
        push_nums(out, self.betti.iter().copied());
        out.push_str(&format!("connectivity {}\n", self.connectivity));
        for w in &self.ranks {
            out.push_str(&format!("rank {} {}\n", w.k, w.rank));
            for (basis, combo) in w.basis.iter().zip(&w.combo) {
                out.push_str("basis ");
                push_nums(out, basis.iter().copied());
                out.push_str("combo ");
                push_nums(out, combo.iter().copied());
            }
        }
    }

    pub(crate) fn parse_body(cur: &mut Cursor<'_>) -> Result<Self, CertError> {
        let label = cur.tagged("label")?.to_string();
        let counts: Vec<usize> = crate::text::parse_nums(cur.tagged("facets")?)
            .map_err(|tok| cur.err(format!("bad facet count `{tok}`")))?;
        let [count] = counts[..] else {
            return Err(cur.err("expected `facets <count>`"));
        };
        let mut facets = Vec::with_capacity(count);
        for _ in 0..count {
            facets.push(cur.num_line::<u32>("a facet vertex line")?);
        }
        let betti: Vec<u64> = crate::text::parse_nums(cur.tagged("betti")?)
            .map_err(|tok| cur.err(format!("bad betti number `{tok}`")))?;
        let conns: Vec<i64> = crate::text::parse_nums(cur.tagged("connectivity")?)
            .map_err(|tok| cur.err(format!("bad connectivity `{tok}`")))?;
        let [connectivity] = conns[..] else {
            return Err(cur.err("expected `connectivity <c>`"));
        };
        let mut ranks = Vec::new();
        // One `rank k r` block per remaining dimension, each followed by
        // exactly r basis/combo line pairs. Betti length fixes how many
        // boundary dimensions there are.
        let dims = betti.len().saturating_sub(1);
        for _ in 0..dims {
            let header: Vec<u64> = crate::text::parse_nums(cur.tagged("rank")?)
                .map_err(|tok| cur.err(format!("bad rank header `{tok}`")))?;
            let [k, rank] = header[..] else {
                return Err(cur.err("expected `rank <k> <rank>`"));
            };
            let mut basis = Vec::with_capacity(rank as usize);
            let mut combo = Vec::with_capacity(rank as usize);
            for _ in 0..rank {
                let b = crate::text::parse_nums(cur.tagged("basis")?)
                    .map_err(|tok| cur.err(format!("bad basis column `{tok}`")))?;
                let c = crate::text::parse_nums(cur.tagged("combo")?)
                    .map_err(|tok| cur.err(format!("bad combo index `{tok}`")))?;
                basis.push(b);
                combo.push(c);
            }
            ranks.push(RankWitness {
                k: k as u32,
                rank: rank as u32,
                basis,
                combo,
            });
        }
        Ok(HomologyCert {
            label,
            facets,
            betti,
            connectivity,
            ranks,
        })
    }
}

/// One dimension of the checker's rebuilt closure (or one boundary
/// map): fixed-stride chunks stored back to back in a single buffer.
/// Once sorted, a chunk's position is its row / column index, and
/// lookups are binary searches over whole chunks.
struct FlatFaces {
    stride: usize,
    data: Vec<u32>,
}

impl FlatFaces {
    fn new(stride: usize) -> Self {
        FlatFaces {
            stride,
            data: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.data.len() / self.stride
    }

    fn get(&self, i: usize) -> &[u32] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, u32> {
        self.data.chunks_exact(self.stride)
    }

    /// Sort the chunks lexicographically and drop duplicates.
    fn sort_dedup(&mut self) {
        let mut chunks: Vec<&[u32]> = self.data.chunks_exact(self.stride).collect();
        chunks.sort_unstable();
        chunks.dedup();
        self.data = chunks.concat();
    }

    /// Index of `face` among the (sorted) chunks.
    fn position(&self, face: &[u32]) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(face) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

/// Sort and dedup every dimension; the closure so far must stay within
/// [`MAX_CLOSURE_FACES`] distinct simplexes.
fn compact(by_dim: &mut [FlatFaces]) -> Result<(), CertError> {
    let mut total = 0usize;
    for faces in by_dim.iter_mut() {
        faces.sort_dedup();
        total += faces.len();
    }
    if total > MAX_CLOSURE_FACES {
        return Err(CertError::TooLarge(format!(
            "face closure exceeds {MAX_CLOSURE_FACES} simplexes"
        )));
    }
    Ok(())
}

/// Rebuild the face closure of `facets`, sorted per dimension. Returns
/// `closure[d]` = the strictly sorted list of `d`-simplexes.
///
/// Faces are appended per dimension and compacted whenever the pending
/// (not yet deduplicated) ones pass [`MAX_CLOSURE_FACES`], so the
/// buffers stay within a fixed multiple of the cap and `TooLarge` fires
/// exactly when the distinct closure exceeds it.
fn face_closure(facets: &[Vec<u32>]) -> Result<Vec<FlatFaces>, CertError> {
    let dim = facets.iter().map(|f| f.len() - 1).max().unwrap_or(0);
    let mut by_dim: Vec<FlatFaces> = (1..=dim + 1).map(FlatFaces::new).collect();
    let mut pending = 0usize;
    for f in facets {
        // A facet whose own subsets exceed the cap is rejected before
        // any of them is enumerated.
        let subsets = u32::try_from(f.len())
            .ok()
            .and_then(|m| 1usize.checked_shl(m))
            .map(|p| p - 1)
            .filter(|&s| s <= MAX_CLOSURE_FACES);
        let Some(subsets) = subsets else {
            return Err(CertError::TooLarge(format!(
                "facet with {} vertices (subset closure would blow up)",
                f.len()
            )));
        };
        for mask in 1..=subsets {
            let faces = &mut by_dim[mask.count_ones() as usize - 1].data;
            let mut bits = mask;
            while bits != 0 {
                faces.push(f[bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        pending += subsets;
        if pending > MAX_CLOSURE_FACES {
            compact(&mut by_dim)?;
            pending = 0;
        }
    }
    compact(&mut by_dim)?;
    Ok(by_dim)
}

/// Assemble the sparse GF(2) boundary rows `∂_k`: one row per
/// `k`-simplex (a chunk of stride `k+1`), listing the indices of its
/// `k+1` facets in the sorted `(k−1)`-simplex list.
fn boundary_rows(k_simplexes: &FlatFaces, km1_simplexes: &FlatFaces) -> FlatFaces {
    let stride = k_simplexes.stride;
    let mut rows = FlatFaces {
        stride,
        data: Vec::with_capacity(k_simplexes.data.len()),
    };
    let mut face = Vec::with_capacity(stride - 1);
    for s in k_simplexes.iter() {
        // Dropping a later vertex gives a lexicographically smaller
        // face, so descending drop positions yield ascending columns.
        for drop in (0..stride).rev() {
            face.clear();
            face.extend_from_slice(&s[..drop]);
            face.extend_from_slice(&s[drop + 1..]);
            let col = km1_simplexes
                .position(&face)
                .expect("closure contains every face");
            rows.data.push(col as u32);
        }
    }
    rows
}

/// Marks a column with no basis row in the pivot table.
const NO_PIVOT: u32 = u32::MAX;

/// Verify one [`RankWitness`] against independently rebuilt rows.
fn verify_witness(w: &RankWitness, rows: &FlatFaces, ncols: usize) -> Result<(), CertError> {
    let k = w.k;
    if w.basis.len() != w.rank as usize || w.combo.len() != w.rank as usize {
        return Err(CertError::Reject(format!(
            "rank witness for ∂_{k} claims rank {} but carries {} basis / {} combo rows",
            w.rank,
            w.basis.len(),
            w.combo.len()
        )));
    }
    // Each basis row: well-formed, reproduced by its combo, leading
    // columns pairwise distinct (echelon shape ⇒ independence). The
    // pivot table maps each leading column to its basis row.
    let mut pivot = vec![NO_PIVOT; ncols];
    let (mut acc, mut next) = (Vec::new(), Vec::new());
    for (i, (basis, combo)) in w.basis.iter().zip(&w.combo).enumerate() {
        if basis.is_empty()
            || !strictly_ascending(basis)
            || basis.iter().any(|&c| c as usize >= ncols)
        {
            return Err(CertError::Reject(format!(
                "∂_{k} basis row {i} is not a nonempty ascending column list below {ncols}"
            )));
        }
        if combo.is_empty()
            || !strictly_ascending(combo)
            || combo.iter().any(|&r| r as usize >= rows.len())
        {
            return Err(CertError::Reject(format!(
                "∂_{k} combo {i} is not a nonempty ascending row-index list below {}",
                rows.len()
            )));
        }
        acc.clear();
        for &r in combo {
            symm_diff_into(&acc, rows.get(r as usize), &mut next);
            std::mem::swap(&mut acc, &mut next);
        }
        if acc != *basis {
            return Err(CertError::Reject(format!(
                "∂_{k} basis row {i} is not the XOR of its cited boundary rows"
            )));
        }
        let slot = &mut pivot[basis[0] as usize];
        if *slot != NO_PIVOT {
            return Err(CertError::Reject(format!(
                "∂_{k} basis rows share leading column {} (not echelon)",
                basis[0]
            )));
        }
        *slot = i as u32;
    }
    // Every original row must reduce to zero against the basis, which
    // bounds the rank from above by the witnessed value. Each step
    // removes the leading column, so the loop ends.
    for (ri, row) in rows.iter().enumerate() {
        acc.clear();
        acc.extend_from_slice(row);
        while let Some(&lead) = acc.first() {
            let bi = pivot[lead as usize];
            if bi == NO_PIVOT {
                return Err(CertError::Reject(format!(
                    "∂_{k} row {ri} does not reduce to zero against the basis \
                     (leading column {lead} uncovered): rank is higher than claimed"
                )));
            }
            symm_diff_into(&acc, &w.basis[bi as usize], &mut next);
            std::mem::swap(&mut acc, &mut next);
        }
    }
    Ok(())
}

/// Standalone checker for [`HomologyCert`].
///
/// Rebuilds the face closure and boundary maps from the facet list,
/// verifies every rank witness (independence + row-space membership +
/// full-row reduction), then recomputes the reduced Betti table
/// `b̃_k = c_k − rank ∂_k − rank ∂_{k+1}` (with the augmentation rank
/// `rank ∂_0 = 1`) and the connectivity, and compares both against the
/// certificate's claims.
///
/// # Errors
///
/// [`CertError::Reject`] with the refuting reason; [`CertError::TooLarge`]
/// if the closure exceeds the checker's replay cap.
pub fn check_homology(cert: &HomologyCert) -> Result<(), CertError> {
    ksa_obs::count(ksa_obs::Counter::CertsChecked, 1);
    if cert.facets.is_empty() {
        return Err(CertError::Reject("certificate has no facets".into()));
    }
    for (i, f) in cert.facets.iter().enumerate() {
        if f.is_empty() || !strictly_ascending(f) {
            return Err(CertError::Reject(format!(
                "facet {i} is not a strictly ascending nonempty vertex list"
            )));
        }
    }
    let closure = face_closure(&cert.facets)?;
    let dim = closure.len() - 1;
    if cert.betti.len() != dim + 1 {
        return Err(CertError::Reject(format!(
            "betti table has {} entries for a {dim}-dimensional complex",
            cert.betti.len()
        )));
    }
    if cert.ranks.len() != dim {
        return Err(CertError::Reject(format!(
            "expected one rank witness per dimension 1..={dim}, found {}",
            cert.ranks.len()
        )));
    }
    // rank ∂_0 (augmentation) = 1, rank ∂_{dim+1} = 0.
    let mut rank = vec![0u64; dim + 2];
    rank[0] = 1;
    for (i, w) in cert.ranks.iter().enumerate() {
        let k = i + 1;
        if w.k as usize != k {
            return Err(CertError::Reject(format!(
                "rank witness {i} is for ∂_{} but ∂_{k} was expected",
                w.k
            )));
        }
        let rows = boundary_rows(&closure[k], &closure[k - 1]);
        verify_witness(w, &rows, closure[k - 1].len())?;
        rank[k] = w.rank as u64;
    }
    for k in 0..=dim {
        let c_k = closure[k].len() as u64;
        let expect = c_k
            .checked_sub(rank[k] + rank[k + 1])
            .ok_or_else(|| CertError::Reject(format!("ranks exceed chain dimension at k = {k}")))?;
        if cert.betti[k] != expect {
            return Err(CertError::Reject(format!(
                "claimed b̃_{k} = {} but certified ranks give {expect}",
                cert.betti[k]
            )));
        }
    }
    let conn = connectivity_from_betti(&cert.betti, dim);
    if cert.connectivity != conn {
        return Err(CertError::Reject(format!(
            "claimed connectivity {} but the betti table gives {conn}",
            cert.connectivity
        )));
    }
    Ok(())
}

/// Connectivity in the `rounds` convention (first nonzero reduced Betti
/// index − 1; `dim` when the table vanishes entirely).
pub(crate) fn connectivity_from_betti(betti: &[u64], dim: usize) -> i64 {
    betti
        .iter()
        .position(|&b| b != 0)
        .map(|k| k as i64 - 1)
        .unwrap_or(dim as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hollow triangle: b̃ = (0, 1), rank ∂_1 = 2.
    fn circle() -> HomologyCert {
        HomologyCert {
            label: "circle".into(),
            facets: vec![vec![0, 1], vec![0, 2], vec![1, 2]],
            betti: vec![0, 1],
            connectivity: 0,
            ranks: vec![RankWitness {
                k: 1,
                rank: 2,
                // Rows of ∂_1 (edges sorted [01],[02],[12] over vertices
                // 0,1,2): [0,1], [0,2], [1,2].
                basis: vec![vec![0, 1], vec![1, 2]],
                combo: vec![vec![0], vec![2]],
            }],
        }
    }

    #[test]
    fn accepts_circle() {
        assert_eq!(check_homology(&circle()), Ok(()));
    }

    #[test]
    fn rejects_rank_off_by_one() {
        let mut cert = circle();
        cert.ranks[0].rank = 1;
        cert.ranks[0].basis.pop();
        cert.ranks[0].combo.pop();
        // Rank 1 can't reduce all three rows to zero.
        assert!(matches!(check_homology(&cert), Err(CertError::Reject(_))));
    }

    #[test]
    fn rejects_wrong_betti_or_connectivity() {
        let mut cert = circle();
        cert.betti = vec![0, 0];
        assert!(matches!(check_homology(&cert), Err(CertError::Reject(_))));
        let mut cert = circle();
        cert.connectivity = 1;
        assert!(matches!(check_homology(&cert), Err(CertError::Reject(_))));
    }

    #[test]
    fn rejects_fabricated_basis_row() {
        let mut cert = circle();
        // [0, 2] is in the row space, but not the XOR of rows {0}.
        cert.ranks[0].basis[1] = vec![0, 2];
        cert.ranks[0].combo[1] = vec![0];
        assert!(matches!(check_homology(&cert), Err(CertError::Reject(_))));
    }

    #[test]
    fn oversized_facet_is_too_large_before_enumeration() {
        // 2^23 − 1 subsets already exceed the cap on their own; the
        // checker must refuse without materializing any of them.
        let cert = HomologyCert {
            label: "huge".into(),
            facets: vec![(0..23).collect()],
            betti: vec![0; 23],
            connectivity: 22,
            ranks: Vec::new(),
        };
        assert!(matches!(
            check_homology(&cert),
            Err(CertError::TooLarge(msg)) if msg.contains("23 vertices")
        ));
    }

    #[test]
    fn filled_triangle_is_a_disk() {
        // Solid triangle: contractible, b̃ = (0, 0, 0).
        let cert = HomologyCert {
            label: "disk".into(),
            facets: vec![vec![0, 1, 2]],
            betti: vec![0, 0, 0],
            connectivity: 2,
            ranks: vec![
                RankWitness {
                    k: 1,
                    rank: 2,
                    basis: vec![vec![0, 1], vec![1, 2]],
                    combo: vec![vec![0], vec![2]],
                },
                RankWitness {
                    k: 2,
                    rank: 1,
                    basis: vec![vec![0, 1, 2]],
                    combo: vec![vec![0]],
                },
            ],
        };
        assert_eq!(check_homology(&cert), Ok(()));
    }
}
