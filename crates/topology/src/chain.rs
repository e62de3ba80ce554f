//! The flat chain-complex engine: integer-id simplex arenas, sparse
//! boundary reduction, early-exit connectivity, and rank reuse across
//! skeleta (DESIGN.md §7).
//!
//! [`crate::homology`] and [`crate::connectivity`] used to re-derive the
//! face closure per query, index simplexes through
//! `HashMap<&Simplex, usize>`, and always rank every boundary operator up
//! to the top dimension. This module replaces that substrate:
//!
//! * **Arenas** — [`ChainComplex::from_complex`] enumerates the face
//!   closure once into per-dimension arenas: vertices are interned to
//!   `u32` ids (positions in the sorted vertex table), a `k`-simplex is a
//!   `(k+1)`-chunk of ascending ids, and each arena is the canonically
//!   sorted, deduplicated flat `Vec<u32>` of its dimension's chunks. No
//!   per-simplex hashing anywhere — faces are resolved by binary search
//!   over the sorted bucket below.
//! * **Sparse boundary reduction** — boundary operators are assembled as
//!   sparse rows (the `k+1` face column ids of each `k`-simplex) and
//!   ranked by an echelon-basis elimination (`Echelon`). The matrices are
//!   ultra-sparse (`k+1` entries per row) with low fill-in on the
//!   protocol complexes of the experiments, which makes this an order of
//!   magnitude faster than dense bit-packed elimination
//!   ([`crate::gf2::Gf2Matrix`] remains as the dense cross-check
//!   oracle).
//! * **Laziness** — ranks are computed per dimension on demand and
//!   cached, so [`ChainComplex::connectivity_up_to`] reduces `∂_1, ∂_2,
//!   …` dimension by dimension and stops at the first non-zero Betti
//!   number (or at `k+1`), and a Betti query after a connectivity query
//!   pays only for the dimensions not yet reduced.
//! * **Skeleton reuse** — `∂_j` of the `k`-skeleton *is* `∂_j` of the
//!   parent for `j ≤ k`, so [`ChainComplex::skeleton_betti`] and
//!   [`ChainComplex::skeleton_connectivity`] answer skeleton queries from
//!   the parent's cached ranks without re-closing any faces.
//!
//! Determinism (DESIGN.md §4): the closure enumeration fans out over
//! blocks of facets and full-Betti queries fan out per dimension on
//! `ksa-exec`; arenas are canonically sorted at the merge and ranks are
//! properties of the matrices, so every verdict is bit-identical to the
//! engine-free references
//! ([`crate::homology::reduced_betti_numbers_seq`] and the scalar
//! [`crate::gf2::Gf2Matrix::rank_seq`]) at any `KSA_THREADS` —
//! proptest-pinned at pool sizes 1/2/8 in `tests/chain_engine.rs`.

use crate::complex::Complex;
use crate::connectivity::Connectivity;
use crate::error::TopologyError;
use crate::simplex::{Vertex, View};
use ksa_graphs::cancel::{CancelToken, Interrupted};
use ksa_graphs::ctx::Ctx;
use ksa_obs::Counter;

use ksa_exec::prelude::*;

/// Facets per block of the closure enumeration's fan-out (mirrors
/// `complex.rs`: tiny complexes dominate the call profile and forking
/// them costs more than enumerating them).
const PAR_FACET_GRAIN: usize = 16;

/// A flat, canonically sorted bucket of same-dimension simplexes:
/// `data` holds `count` consecutive `stride`-length chunks of ascending
/// vertex ids, the chunks themselves in lexicographic order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Arena {
    stride: usize,
    data: Vec<u32>,
}

impl Arena {
    fn count(&self) -> usize {
        if self.stride == 0 {
            return 0; // the empty placeholder arena
        }
        debug_assert!(self.data.len().is_multiple_of(self.stride));
        self.data.len() / self.stride
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Binary search for the row equal to `chunk` with element `skip`
    /// removed (the face lookup of the boundary assembly).
    fn position_skipping(&self, chunk: &[u32], skip: usize) -> Option<usize> {
        debug_assert_eq!(chunk.len(), self.stride + 1);
        let (mut lo, mut hi) = (0usize, self.count());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let row = self.row(mid);
            let mut ord = std::cmp::Ordering::Equal;
            for (m, &r) in row.iter().enumerate() {
                let c = chunk[m + usize::from(m >= skip)];
                ord = r.cmp(&c);
                if ord != std::cmp::Ordering::Equal {
                    break;
                }
            }
            match ord {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

/// Sorts a flat chunk vector lexicographically and removes duplicate
/// chunks. The result depends only on the chunk *set*, which is what
/// makes the block fan-out of the closure enumeration schedule-free.
/// Sorting `u32` start offsets, not borrowed row slices, keeps the
/// sort's scratch at 4 bytes per chunk rather than 16 (DESIGN.md §6.4).
fn sort_dedup_chunks(data: Vec<u32>, stride: usize) -> Vec<u32> {
    let row = |start: u32| &data[start as usize..start as usize + stride];
    let mut starts: Vec<u32> = (0..data.len() as u32).step_by(stride).collect();
    starts.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    starts.dedup_by(|a, b| row(*a) == row(*b));
    let mut out = Vec::with_capacity(starts.len() * stride);
    for &s in &starts {
        out.extend_from_slice(row(s));
    }
    out
}

/// A GF(2) row-echelon basis over sparse rows (ascending `u32` column
/// ids), the rank kernel of [`ChainComplex`].
///
/// `absorb` reduces an incoming row against the basis by its
/// leading column and either inserts it (rank grows) or cancels it to
/// zero (dependent). The basis size is the rank of everything absorbed —
/// a value independent of absorption order, though the engine always
/// absorbs in canonical arena order so intermediate bases are
/// reproducible too.
#[derive(Debug, Clone, Default)]
struct Echelon {
    rows: Vec<Vec<u32>>,
    /// `pivot_of[col]`: index into `rows` of the basis row leading with
    /// `col`, or `u32::MAX`. Grows on demand.
    pivot_of: Vec<u32>,
}

impl Echelon {
    /// Absorbs one sparse row; returns whether the rank grew.
    fn absorb(&mut self, mut row: Vec<u32>) -> bool {
        loop {
            let Some(&lead) = row.first() else {
                return false;
            };
            if self.pivot_of.len() <= lead as usize {
                self.pivot_of.resize(lead as usize + 1, u32::MAX);
            }
            let p = self.pivot_of[lead as usize];
            if p == u32::MAX {
                self.pivot_of[lead as usize] = self.rows.len() as u32;
                self.rows.push(row);
                return true;
            }
            row = symm_diff(&row, &self.rows[p as usize]);
        }
    }

    fn rank(&self) -> usize {
        self.rows.len()
    }
}

/// Echelon reduction that additionally records, for every basis row,
/// the set of original row indices whose XOR reproduces it — the rank
/// witness carried by homology certificates (DESIGN.md §11). The
/// standalone checker re-derives both rank bounds from this: distinct
/// leading columns give independence (rank ≥ r), re-reducing every
/// original row to zero gives the ceiling (rank ≤ r), and the recorded
/// combinations prove each basis row lies in the row space.
#[derive(Debug, Clone, Default)]
struct WitnessEchelon {
    ech: Echelon,
    /// `combos[i]`: ascending original-row indices XOR-summing to
    /// `ech.rows[i]`.
    combos: Vec<Vec<u32>>,
}

impl WitnessEchelon {
    /// Absorbs the `idx`-th original row, tracking its combination.
    fn absorb(&mut self, mut row: Vec<u32>, idx: u32) {
        let mut combo = vec![idx];
        loop {
            let Some(&lead) = row.first() else {
                return;
            };
            if self.ech.pivot_of.len() <= lead as usize {
                self.ech.pivot_of.resize(lead as usize + 1, u32::MAX);
            }
            let p = self.ech.pivot_of[lead as usize];
            if p == u32::MAX {
                self.ech.pivot_of[lead as usize] = self.ech.rows.len() as u32;
                self.ech.rows.push(row);
                self.combos.push(combo);
                return;
            }
            row = symm_diff(&row, &self.ech.rows[p as usize]);
            combo = symm_diff(&combo, &self.combos[p as usize]);
        }
    }
}

/// The symmetric difference of two ascending id lists (GF(2) row XOR).
fn symm_diff(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// A simplicial complex flattened for homology: per-dimension integer-id
/// arenas plus lazily computed, cached boundary ranks.
///
/// Build one with [`ChainComplex::from_complex`] (or
/// [`Complex::chain`]) and ask it for Betti numbers and connectivity;
/// every query over the same complex shares the arenas and the rank
/// cache, so e.g. a full [`ChainComplex::reduced_betti`] after a
/// [`ChainComplex::connectivity`] costs only the dimensions the
/// early-exit scan never reached.
///
/// # Examples
///
/// ```
/// use ksa_topology::chain::ChainComplex;
/// use ksa_topology::complex::Complex;
/// use ksa_topology::connectivity::Connectivity;
/// use ksa_topology::simplex::{Simplex, Vertex};
///
/// let tet = Simplex::new((0..4).map(|c| Vertex::new(c, ())).collect()).unwrap();
/// let mut sphere = ChainComplex::from_complex(&Complex::boundary_of(&tet));
/// assert_eq!(sphere.reduced_betti(), vec![0, 0, 1]);
/// assert_eq!(sphere.connectivity(), Connectivity::Exactly(1));
/// // The 1-skeleton (the K4 graph) answers from the same arenas:
/// assert_eq!(sphere.skeleton_betti(1), vec![0, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct ChainComplex {
    /// `arenas[k]`: the k-simplexes. Empty vector ⇔ void complex.
    arenas: Vec<Arena>,
    /// `ranks[k]`: cached rank of `∂_k` (`∂_0` = augmentation,
    /// `∂_{dim+1}` = 0); length `dim + 2` for a non-void complex.
    ranks: Vec<Option<usize>>,
}

impl ChainComplex {
    /// Flattens a complex: interns its vertices, enumerates the face
    /// closure once into per-dimension arenas (fanned out over blocks of
    /// facets, a lone block inline; the canonical sort at the merge makes
    /// the result independent of the schedule).
    pub fn from_complex<V: View>(complex: &Complex<V>) -> Self {
        Self::build(complex).0
    }

    /// [`ChainComplex::from_complex`], also returning the interned facets
    /// (ascending vertex ids, in facet order) that certificates carry.
    fn build<V: View>(complex: &Complex<V>) -> (Self, Vec<Vec<u32>>) {
        if complex.is_void() {
            let void = ChainComplex {
                arenas: Vec::new(),
                ranks: Vec::new(),
            };
            return (void, Vec::new());
        }
        let verts: Vec<Vertex<V>> = complex.vertices();
        let dim = complex.dim() as usize;
        // Facet vertices are sorted and ids are sorted positions, so each
        // id list is ascending.
        let facet_ids: Vec<Vec<u32>> = complex
            .facets()
            .map(|f| {
                f.vertices()
                    .iter()
                    .map(|v| verts.binary_search(v).expect("facet vertex is interned") as u32)
                    .collect()
            })
            .collect();

        let blocks: Vec<Vec<Vec<u32>>> = facet_ids
            .chunks(PAR_FACET_GRAIN)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|block| closure_block(block, dim))
            .collect();
        let mut raw: Vec<Vec<u32>> = vec![Vec::new(); dim + 1];
        for block in blocks {
            for (acc, chunks) in raw.iter_mut().zip(block) {
                acc.extend(chunks);
            }
        }

        let arenas: Vec<Arena> = raw
            .into_iter()
            .enumerate()
            .map(|(k, data)| Arena {
                stride: k + 1,
                data: sort_dedup_chunks(data, k + 1),
            })
            .collect();
        ksa_obs::count(
            Counter::FacesClosed,
            arenas.iter().map(|a| a.count() as u64).sum(),
        );
        let mut ranks = vec![None; dim + 2];
        ranks[0] = Some(1); // augmentation on a non-void complex
        ranks[dim + 1] = Some(0);
        (ChainComplex { arenas, ranks }, facet_ids)
    }

    /// Whether the underlying complex was void.
    pub fn is_void(&self) -> bool {
        self.arenas.is_empty()
    }

    /// The complex's dimension (`−1` when void).
    pub fn dim(&self) -> isize {
        self.arenas.len() as isize - 1
    }

    /// Number of `k`-simplexes in the closure (0 outside `0..=dim`).
    pub fn simplex_count(&self, k: usize) -> usize {
        self.arenas.get(k).map_or(0, Arena::count)
    }

    /// The sparse boundary rows of `∂_k`: row `r` holds the ascending
    /// arena positions (in dimension `k−1`) of the faces of the `r`-th
    /// `k`-simplex.
    fn boundary_rows(&self, k: usize) -> Vec<Vec<u32>> {
        let (upper, lower) = (&self.arenas[k], &self.arenas[k - 1]);
        let rows: Vec<Vec<u32>> = (0..upper.count())
            .map(|r| {
                let chunk = upper.row(r);
                let mut row: Vec<u32> = (0..chunk.len())
                    .map(|skip| {
                        lower
                            .position_skipping(chunk, skip)
                            .expect("closure contains every face") as u32
                    })
                    .collect();
                row.sort_unstable();
                row
            })
            .collect();
        ksa_obs::count(Counter::BoundaryRows, rows.len() as u64);
        ksa_obs::count(
            Counter::BoundaryNnz,
            rows.iter().map(|r| r.len() as u64).sum(),
        );
        rows
    }

    /// Computes the rank of `∂_k` without touching the cache (pure, so
    /// the parallel Betti fan-out can share `&self`).
    fn compute_rank(&self, k: usize) -> usize {
        let _span = ksa_obs::span("chain", || "rank_reduce").arg("dim", k as u64);
        let mut ech = Echelon::default();
        for row in self.boundary_rows(k) {
            ech.absorb(row);
        }
        ksa_obs::count(Counter::RanksComputed, 1);
        ech.rank()
    }

    /// Reduces `∂_k` like [`ChainComplex::compute_rank`] while
    /// recording the rank witness for certification. Absorption runs in
    /// canonical arena order, so the witness is schedule-invariant.
    fn compute_rank_witnessed(&self, k: usize) -> ksa_cert::RankWitness {
        // Same span name as the plain reduction — the trace contract
        // names `rank_reduce` as *the* rank-reduction span; the
        // `witnessed` arg distinguishes the certified producer.
        let _span = ksa_obs::span("chain", || "rank_reduce")
            .arg("dim", k as u64)
            .arg("witnessed", 1);
        let mut ech = WitnessEchelon::default();
        for (i, row) in self.boundary_rows(k).into_iter().enumerate() {
            ech.absorb(row, i as u32);
        }
        ksa_obs::count(Counter::RanksComputed, 1);
        ksa_cert::RankWitness {
            k: k as u32,
            rank: ech.ech.rank() as u32,
            basis: ech.ech.rows,
            combo: ech.combos,
        }
    }

    /// The cached rank of `∂_k`, reducing it on first use.
    pub(crate) fn rank_boundary(&mut self, k: usize) -> usize {
        if let Some(r) = self.ranks[k] {
            return r;
        }
        let r = self.compute_rank(k);
        self.ranks[k] = Some(r);
        r
    }

    /// The reduced Betti number `b̃_k = c_k − rank ∂_k − rank ∂_{k+1}`.
    fn betti_at(&mut self, k: usize) -> usize {
        self.simplex_count(k) - self.rank_boundary(k) - self.rank_boundary(k + 1)
    }

    /// The full reduced Z/2 Betti vector `b̃_0, …, b̃_dim` (empty for the
    /// void complex). The not-yet-cached boundary reductions fan out per
    /// dimension on `ksa-exec`.
    pub fn reduced_betti(&mut self) -> Vec<usize> {
        self.reduced_betti_polled(&CancelToken::new())
            .expect("a fresh token never fires")
    }

    /// [`ChainComplex::reduced_betti`], polling `cancel` before each
    /// dimension's reduction in the fan-out.
    fn reduced_betti_polled(&mut self, cancel: &CancelToken) -> Result<Vec<usize>, Interrupted> {
        if self.is_void() {
            return Ok(Vec::new());
        }
        let dim = self.arenas.len() - 1;
        let missing: Vec<usize> = (1..=dim).filter(|&k| self.ranks[k].is_none()).collect();
        let this: &Self = self;
        let computed: Vec<Result<usize, Interrupted>> = missing
            .par_iter()
            .map(|&k| cancel.checkpoint().map(|()| this.compute_rank(k)))
            .collect();
        for (&k, r) in missing.iter().zip(computed) {
            self.ranks[k] = Some(r?);
        }
        Ok((0..=dim).map(|k| self.betti_at(k)).collect())
    }

    /// The homological [`Connectivity`] verdict, reducing boundaries
    /// dimension by dimension and stopping at the first non-zero Betti
    /// number.
    pub fn connectivity(&mut self) -> Connectivity {
        self.connectivity_up_to(self.dim())
    }

    /// Early-exit connectivity: decides the verdict *up to* `k`. Reduces
    /// `∂_1, ∂_2, …` lazily and returns
    ///
    /// * [`Connectivity::Empty`] for the void complex;
    /// * `Exactly(c)` with `c < min(k, dim)` — exact, agrees with the
    ///   full [`ChainComplex::connectivity`];
    /// * `AtLeast(min(k, dim))` when every reduced Betti number through
    ///   `min(k, dim)` vanishes — the reduction stopped there, so higher
    ///   homology is deliberately left unexamined (DESIGN.md §7).
    ///
    /// The cross-checks only ever need `measured ≥ predicted l` for
    /// small `l`, which is exactly the query this answers without paying
    /// for the top-dimension ranks.
    pub fn connectivity_up_to(&mut self, k: isize) -> Connectivity {
        if self.is_void() {
            return Connectivity::Empty;
        }
        // Clamp below at −1: any non-void complex is (−1)-connected, and
        // `AtLeast(c)` with `c < −1` is outside the verdict's domain.
        let cap = k.min(self.dim()).max(-1);
        for j in 0..=cap {
            if self.betti_at(j as usize) != 0 {
                // The scan decided before reaching its cap: dimensions
                // above j were never reduced.
                ksa_obs::count(Counter::ConnectivityEarlyExits, 1);
                return Connectivity::Exactly(j - 1);
            }
        }
        Connectivity::AtLeast(cap)
    }

    /// The reduced Betti vector of the `k`-skeleton, answered from the
    /// parent's arenas and rank cache: `∂_j` of the skeleton *is* `∂_j`
    /// of the parent for `j ≤ k`, and the skeleton's top dimension has no
    /// `(k+1)`-simplexes, so `b̃_k = c_k − rank ∂_k`. No face re-closure,
    /// no new matrices — agrees with
    /// `reduced_betti_numbers(&complex.skeleton(k))` bit for bit.
    pub fn skeleton_betti(&mut self, k: isize) -> Vec<usize> {
        if self.is_void() || k < 0 {
            return Vec::new();
        }
        if k >= self.dim() {
            return self.reduced_betti();
        }
        let kk = k as usize;
        let mut betti: Vec<usize> = (0..kk).map(|j| self.betti_at(j)).collect();
        betti.push(self.simplex_count(kk) - self.rank_boundary(kk));
        betti
    }

    /// The connectivity verdict of the `k`-skeleton, from the parent's
    /// cached ranks (see [`ChainComplex::skeleton_betti`]). Agrees with
    /// `connectivity(&complex.skeleton(k))`.
    pub fn skeleton_connectivity(&mut self, k: isize) -> Connectivity {
        if self.is_void() || k < 0 {
            return Connectivity::Empty;
        }
        let cap = k.min(self.dim());
        for j in 0..cap {
            if self.betti_at(j as usize) != 0 {
                return Connectivity::Exactly(j - 1);
            }
        }
        // Top skeleton dimension: kernel dimension only.
        if self.simplex_count(cap as usize) - self.rank_boundary(cap as usize) != 0 {
            return Connectivity::Exactly(cap - 1);
        }
        Connectivity::AtLeast(cap)
    }
}

/// The homology of one complex: its reduced Z/2 Betti numbers and
/// connectivity verdict, from one closure and one rank pass.
///
/// `ctx.cancel` is polled on entry and before each dimension's rank
/// reduction. When `ctx.certs` is set, the ranks go through the
/// witnessed kernel instead and a [`ksa_cert::HomologyCert`] labelled
/// with the sink's label is pushed to the sink; its standalone checker
/// re-derives every rank bound from the facet list alone (DESIGN.md
/// §11). The certificate's connectivity field uses the cross-check
/// convention: first nonzero reduced Betti index minus one, or the
/// dimension when the whole table vanishes. The void complex has
/// nothing to certify and emits nothing.
///
/// Each dimension absorbs its rows sequentially in canonical arena
/// order, so the verdict and the certificate are schedule-invariant.
///
/// # Errors
///
/// [`TopologyError::Cancelled`] / [`TopologyError::DeadlineExceeded`]
/// when the token fires.
pub fn homology_of<'a, V: View>(
    complex: &Complex<V>,
    ctx: impl Into<Ctx<'a>>,
) -> Result<SweepStep, TopologyError> {
    let ctx = ctx.into();
    homology_step(complex, &ctx, || {
        ctx.certs
            .map_or_else(String::new, |s| s.label().to_string())
    })
}

/// [`homology_of`] with the certificate label supplied by the caller
/// (the round sweep appends the round).
pub(crate) fn homology_step<V: View>(
    complex: &Complex<V>,
    ctx: &Ctx<'_>,
    label: impl FnOnce() -> String,
) -> Result<SweepStep, TopologyError> {
    ctx.cancel.checkpoint()?;
    let (mut cc, facets) = ChainComplex::build(complex);
    let sink = ctx.certs.filter(|_| !cc.is_void());
    let mut ranks = Vec::new();
    if sink.is_some() {
        let dims: Vec<usize> = (1..cc.arenas.len()).collect();
        let witnessed: Vec<Result<ksa_cert::RankWitness, Interrupted>> = dims
            .par_iter()
            .map(|&k| {
                ctx.cancel
                    .checkpoint()
                    .map(|()| cc.compute_rank_witnessed(k))
            })
            .collect();
        ranks = witnessed.into_iter().collect::<Result<_, _>>()?;
        for w in &ranks {
            cc.ranks[w.k as usize] = Some(w.rank as usize);
        }
    }
    let betti = cc.reduced_betti_polled(&ctx.cancel)?;
    if let Some(sink) = sink {
        ksa_obs::count(Counter::CertsEmitted, 1);
        sink.push(ksa_cert::Cert::Homology(ksa_cert::HomologyCert {
            label: label(),
            facets,
            betti: betti.iter().map(|&b| b as u64).collect(),
            connectivity: betti
                .iter()
                .position(|&b| b != 0)
                .map_or(betti.len() as i64 - 1, |k| k as i64 - 1),
            ranks,
        }));
    }
    Ok(SweepStep {
        connectivity: Connectivity::from_reduced_betti(&betti),
        betti,
    })
}

/// The Betti vector of `complex` and its homology certificate (`None`
/// for the void complex). Kept only for `perfbench`; removed when the
/// benchmark harness moves onto `Ctx`.
pub fn reduced_betti_certified<V: View>(
    complex: &Complex<V>,
    label: &str,
) -> Option<(Vec<usize>, ksa_cert::HomologyCert)> {
    let sink = ksa_cert::CertSink::new(label);
    let step = homology_of(complex, &sink).ok()?;
    Some((step.betti, sink.into_certs().pop()?.into_homology()?))
}

/// The per-dimension subset chunks a block of facets contributes to the
/// closure, flat: `out[k]` holds `(k+1)`-chunks of ascending ids.
fn closure_block(facet_ids: &[Vec<u32>], dim: usize) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); dim + 1];
    for ids in facet_ids {
        for mask in 1u64..(1u64 << ids.len()) {
            let bucket = &mut out[mask.count_ones() as usize - 1];
            for (i, &id) in ids.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    bucket.push(id);
                }
            }
        }
    }
    out
}

/// One round of [`crate::rounds::RoundsComplex::homology_sweep`]: the
/// round complex's homology verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStep {
    /// The reduced Z/2 Betti numbers of this step's complex.
    pub betti: Vec<usize>,
    /// The homological connectivity verdict (derived from `betti`, so
    /// identical to [`crate::connectivity::connectivity`] on the same
    /// complex).
    pub connectivity: Connectivity,
}

/// Maps a complex straight to its chain engine — sugar for
/// [`ChainComplex::from_complex`].
impl<V: View> From<&Complex<V>> for ChainComplex {
    fn from(complex: &Complex<V>) -> Self {
        ChainComplex::from_complex(complex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homology::reduced_betti_numbers_seq;
    use crate::simplex::Simplex;

    fn simplex(colors: &[usize]) -> Simplex<u32> {
        Simplex::new(colors.iter().map(|&c| Vertex::new(c, 0u32)).collect()).unwrap()
    }

    #[test]
    fn arenas_enumerate_the_closure() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2]));
        let chain = ChainComplex::from_complex(&c);
        assert_eq!(chain.dim(), 2);
        assert_eq!(chain.simplex_count(0), 3);
        assert_eq!(chain.simplex_count(1), 3);
        assert_eq!(chain.simplex_count(2), 1);
        assert_eq!(chain.simplex_count(3), 0);
    }

    #[test]
    fn betti_matches_the_seq_reference() {
        let cases = vec![
            Complex::of_simplex(simplex(&[0])),
            Complex::boundary_of(&simplex(&[0, 1, 2])),
            Complex::boundary_of(&simplex(&[0, 1, 2, 3])),
            Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[2, 3])]),
            Complex::boundary_of(&simplex(&[0, 1, 2]))
                .union(&Complex::boundary_of(&simplex(&[0, 3, 4]))),
            // Faces of up to 10 vertices: long rows through the arena sort.
            Complex::boundary_of(&simplex(&(0..10).collect::<Vec<_>>())),
        ];
        for c in cases {
            let mut chain = ChainComplex::from_complex(&c);
            assert_eq!(
                chain.reduced_betti(),
                reduced_betti_numbers_seq(&c),
                "{c:?}"
            );
        }
    }

    #[test]
    fn certified_betti_matches_and_checks() {
        let tet = simplex(&[0, 1, 2, 3]);
        for (complex, label) in [
            (Complex::boundary_of(&tet), "sphere"),
            (Complex::of_simplex(tet.clone()), "ball"),
            (
                Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[0, 2]), simplex(&[1, 2])]),
                "circle",
            ),
            (
                Complex::from_facets(vec![simplex(&[0]), simplex(&[1]), simplex(&[2])]),
                "three-points",
            ),
        ] {
            let sink = ksa_cert::CertSink::new(label);
            let certified = homology_of(&complex, &sink);
            let plain = homology_of(&complex, Ctx::default()).unwrap();
            assert_eq!(certified.unwrap(), plain, "{label}");
            let [cert] = &sink.into_certs()[..] else {
                panic!("{label}: one certificate");
            };
            assert_eq!(cert.label(), label);
            assert_eq!(cert.check(), Ok(()), "{label}");
            assert_eq!(
                ksa_cert::Cert::parse(&cert.to_text()).as_ref(),
                Ok(cert),
                "{label}"
            );
        }
        let sink = ksa_cert::CertSink::new("void");
        let void = homology_of(&Complex::<u32>::void(), &sink);
        assert_eq!(void.unwrap().connectivity, Connectivity::Empty);
        assert!(sink.into_certs().is_empty());
        // A fired token stops the pass, certified or not.
        let fired = Ctx::default();
        fired.cancel.cancel();
        let ball = Complex::of_simplex(tet);
        assert_eq!(
            homology_of(&ball, fired.clone()),
            Err(TopologyError::Cancelled)
        );
        let sink = ksa_cert::CertSink::new("ball");
        let certs = Ctx {
            certs: Some(&sink),
            ..fired
        };
        assert_eq!(homology_of(&ball, certs), Err(TopologyError::Cancelled));
    }

    #[test]
    fn void_complex() {
        let mut chain = ChainComplex::from_complex(&Complex::<u32>::void());
        assert!(chain.is_void());
        assert_eq!(chain.dim(), -1);
        assert_eq!(chain.reduced_betti(), Vec::<usize>::new());
        assert_eq!(chain.connectivity(), Connectivity::Empty);
        assert_eq!(chain.skeleton_betti(1), Vec::<usize>::new());
        assert_eq!(chain.skeleton_connectivity(1), Connectivity::Empty);
    }

    #[test]
    fn early_exit_stops_at_the_first_hole() {
        // Wedge of a circle and a 3-sphere: b̃ = [0, 1, 0, 1].
        let circle = Complex::boundary_of(&simplex(&[0, 1, 2]));
        let sphere = Complex::boundary_of(&simplex(&[2, 3, 4, 5, 6]));
        let wedge = circle.union(&sphere);
        let mut chain = ChainComplex::from_complex(&wedge);
        assert_eq!(chain.connectivity_up_to(0), Connectivity::AtLeast(0));
        assert_eq!(chain.connectivity_up_to(1), Connectivity::Exactly(0));
        // The scan stopped at b̃_1 ≠ 0: ∂_3 was never reduced.
        assert_eq!(chain.ranks[3], None);
        assert_eq!(chain.connectivity(), Connectivity::Exactly(0));
        assert_eq!(chain.reduced_betti(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn connectivity_up_to_caps_at_the_dimension() {
        let solid = Complex::of_simplex(simplex(&[0, 1, 2]));
        let mut chain = ChainComplex::from_complex(&solid);
        assert_eq!(chain.connectivity_up_to(100), Connectivity::AtLeast(2));
        assert_eq!(chain.connectivity_up_to(-1), Connectivity::AtLeast(-1));
        // Below −1 the verdict clamps: AtLeast(−2) would leave the
        // enum's domain (and read as "void" to numeric consumers).
        assert_eq!(chain.connectivity_up_to(-7), Connectivity::AtLeast(-1));
    }

    #[test]
    fn skeleton_queries_match_materialized_skeleta() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2, 3]));
        let mut chain = ChainComplex::from_complex(&c);
        for k in 0..=4 {
            let sk = c.skeleton(k);
            assert_eq!(
                chain.skeleton_betti(k),
                reduced_betti_numbers_seq(&sk),
                "k = {k}"
            );
            assert_eq!(
                chain.skeleton_connectivity(k),
                crate::connectivity::connectivity(&sk),
                "k = {k}"
            );
        }
    }
}
