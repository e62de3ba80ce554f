//! Seed → workload inputs. The program under test only ever sees the
//! model names and requests generated here.
//!
//! Every model is `random{n=3,p,seed,count=4}`: four random digraphs on
//! three processes and the closed-above model they generate. Complex
//! size, and with it the cost of every topology and certificate call,
//! is fixed by the model's closure size |G| (the number of graphs in
//! the model; the round-r complex has 8·|G|^r facets over binary
//! inputs). Drawn freely, |G| ranges from 1 to 64 and per-model cost
//! over three orders of magnitude, so a run of a few dozen models would
//! measure which models the seed drew rather than the code. The rounds
//! inputs are therefore stratified: models from three narrow |G| bands
//! in the fixed pattern small, medium, large, medium, so any prefix of
//! the stream has the same mix whatever the seed. The medium band holds
//! half the models, so the median op is a medium model and rests on
//! many samples; even so, models of one |G| differ in cost by up to 2×.

use std::collections::{BTreeSet, HashSet};

use ksa_models::spec::ModelSpec;
use ksa_models::ClosedAboveModel;

/// Admission budget of every rounds computation, as in the `hunt`
/// experiment (facets per model).
pub const BUDGET: u128 = 100_000;

/// A seed that tuning never uses: a claim measured on the tuning seeds
/// is confirmed on this one.
pub const CONFIRM_SEED: u64 = 20_201;

/// Models of the warm-up op or request that ends the set-up of `sweep`
/// and `serve-rounds` (`rounds` work) and of `serve-solv` (`solv`
/// work), from the paper's `rounds` table: fixed work, the same for
/// every seed, that keeps first-use costs out of the window.
pub const WARM_UP_ROUNDS: &str = "stars{n=3,s=2}";
/// See [`WARM_UP_ROUNDS`].
pub const WARM_UP_SOLV: &str = "stars{n=3,s=1}";

/// Closure-size bands of the stratified rounds inputs (inclusive).
pub const SIZE_BANDS: [(usize, usize); 3] = [(8, 11), (14, 17), (20, 24)];

/// The order in which the stratified stream visits [`SIZE_BANDS`].
pub const BAND_PATTERN: [usize; 4] = [0, 1, 2, 1];

/// SplitMix64: a small deterministic generator, independent of any
/// library the program under test uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` (one per input list) under `seed`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ tag)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn random_spec(&mut self, densities: &[f64]) -> ModelSpec {
        let p = densities[self.below(densities.len() as u64) as usize];
        ModelSpec::random(3, p, self.below(1 << 32), 4)
    }
}

/// Materializes a spec as a closed-above model within `budget`.
///
/// # Errors
///
/// The registry's message when the spec does not build.
pub fn materialize(spec: &ModelSpec, budget: u128) -> Result<ClosedAboveModel, String> {
    spec.materialize(budget)
        .and_then(ksa_models::spec::ResolvedModel::into_closed_above)
        .map_err(|e| e.to_string())
}

/// Parses a fixed model name such as [`WARM_UP_ROUNDS`].
///
/// # Errors
///
/// The parser's message.
pub fn named(name: &str) -> Result<ModelSpec, String> {
    name.parse().map_err(|e| format!("{name}: {e}"))
}

/// |G|: the number of graphs in the model's closure.
pub fn closure_size(model: &ClosedAboveModel) -> usize {
    let mut graphs = BTreeSet::new();
    for g in model.generators() {
        graphs.extend(
            ksa_graphs::closure::enumerate_closure(g, 1 << 12)
                .expect("an n = 3 closure has at most 64 graphs"),
        );
    }
    graphs.len()
}

/// `repeats` rounds of [`BAND_PATTERN`]: distinct models whose closure
/// sizes follow the pattern's bands.
pub fn stratified_models(rng: &mut Rng, repeats: usize) -> Vec<ModelSpec> {
    let wanted: Vec<usize> = (0..SIZE_BANDS.len())
        .map(|b| repeats * BAND_PATTERN.iter().filter(|&&p| p == b).count())
        .collect();
    let mut bands: Vec<Vec<ModelSpec>> = vec![Vec::new(); SIZE_BANDS.len()];
    let mut seen = HashSet::new();
    while bands.iter().zip(&wanted).any(|(b, &w)| b.len() < w) {
        let spec = rng.random_spec(&[0.25, 0.5, 0.75]);
        let model = materialize(&spec, BUDGET).expect("random n = 3 specs always build");
        let size = closure_size(&model);
        let Some(band) = SIZE_BANDS
            .iter()
            .position(|&(lo, hi)| (lo..=hi).contains(&size))
        else {
            continue;
        };
        if bands[band].len() < wanted[band] && seen.insert(spec.name()) {
            bands[band].push(spec);
        }
    }
    let mut next = vec![0; SIZE_BANDS.len()];
    (0..repeats)
        .flat_map(|_| BAND_PATTERN)
        .map(|b| {
            next[b] += 1;
            bands[b][next[b] - 1].clone()
        })
        .collect()
}

/// `count` distinct solvability models (no stratification: `solv`
/// requests are short, so a run holds thousands of them).
pub fn solv_models(rng: &mut Rng, count: usize) -> Vec<ModelSpec> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let spec = rng.random_spec(&[0.25, 0.5]);
        if seen.insert(spec.name()) {
            out.push(spec);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(specs: &[ModelSpec]) -> Vec<String> {
        specs.iter().map(ModelSpec::name).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = stratified_models(&mut Rng::new(3, "sweep"), 4);
        let b = stratified_models(&mut Rng::new(3, "sweep"), 4);
        let c = stratified_models(&mut Rng::new(4, "sweep"), 4);
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
        let s = solv_models(&mut Rng::new(3, "solv"), 50);
        assert_eq!(names(&s), names(&solv_models(&mut Rng::new(3, "solv"), 50)));
        // Streams are independent under one seed.
        assert_ne!(Rng::new(3, "a").next_u64(), Rng::new(3, "b").next_u64());
    }

    #[test]
    fn stratified_stream_interleaves_the_bands_with_distinct_models() {
        let specs = stratified_models(&mut Rng::new(11, "sweep"), 5);
        assert_eq!(specs.len(), 5 * BAND_PATTERN.len());
        for (i, spec) in specs.iter().enumerate() {
            let (lo, hi) = SIZE_BANDS[BAND_PATTERN[i % BAND_PATTERN.len()]];
            let size = closure_size(&materialize(spec, BUDGET).unwrap());
            assert!(
                (lo..=hi).contains(&size),
                "{} has |G| = {size}",
                spec.name()
            );
        }
        let distinct: HashSet<String> = names(&specs).into_iter().collect();
        assert_eq!(distinct.len(), specs.len());
    }

    #[test]
    fn closure_size_counts_the_up_closure() {
        // Round-1 facet counts 512 and 16 over binary inputs (8·|G|).
        for (name, size) in [
            ("random{n=3,p=0.5,seed=1011,count=4}", 64),
            ("random{n=3,p=0.75,seed=1006,count=4}", 2),
        ] {
            let spec: ModelSpec = name.parse().unwrap();
            assert_eq!(
                closure_size(&materialize(&spec, BUDGET).unwrap()),
                size,
                "{name}"
            );
        }
    }
}
