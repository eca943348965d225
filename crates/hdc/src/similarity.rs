//! Similarity metrics between hypervectors.
//!
//! RegHD uses two families of similarity:
//!
//! * **Cosine similarity** (Eq. 5) over real/integer hypervectors — used by
//!   the full-precision multi-model search and by the model-confidence
//!   computation.
//! * **Hamming similarity** over bit-packed binary hypervectors — the cheap
//!   substitute enabled by the quantized-clustering framework (§3.1).
//!
//! The mapping between the two: for vectors drawn from `{±1}^D`,
//! `cos(a,b) = 1 − 2·hamming(a,b)/D`, so a Hamming search ranks candidates
//! identically to a cosine search over the corresponding bipolar vectors.

use crate::{BinaryHv, RealHv};

/// Cosine similarity `a·b / (‖a‖‖b‖)` between two real hypervectors.
///
/// Returns `0.0` when either vector has zero norm (the convention used by
/// RegHD's cluster search: an untrained zero model matches nothing).
///
/// # Panics
///
/// Panics if the dimensionalities differ.
///
/// # Examples
///
/// ```
/// use hdc::{RealHv, similarity};
///
/// let a = RealHv::from_vec(vec![1.0, 0.0]);
/// let b = RealHv::from_vec(vec![0.0, 1.0]);
/// assert_eq!(similarity::cosine(&a, &b), 0.0);
/// assert!((similarity::cosine(&a, &a) - 1.0).abs() < 1e-6);
/// ```
pub fn cosine(a: &RealHv, b: &RealHv) -> f32 {
    assert_eq!(
        a.dim(),
        b.dim(),
        "cosine: dimension mismatch ({} vs {})",
        a.dim(),
        b.dim()
    );
    cosine_from_dot(a.dot(b), a.norm(), b.norm())
}

/// [`cosine`] from its parts: `dot == a.dot(b)`, `na == a.norm()`,
/// `nb == b.norm()`. The Eq. 5 cluster search caches each cluster's norm,
/// computes the query's once per row and all `k` dots in one kernel call;
/// this applies the same zero-norm rule, the same `dot / (na·nb)` and the
/// same clamp, so the result is bit-identical to `cosine(a, b)`.
pub fn cosine_from_dot(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let c = dot / (na * nb);
    c.clamp(-1.0, 1.0)
}

/// Plain dot product between two real hypervectors. See
/// [`RealHv::dot`] — re-exported here so all metrics live in one module.
///
/// # Panics
///
/// Panics if the dimensionalities differ.
pub fn dot(a: &RealHv, b: &RealHv) -> f32 {
    a.dot(b)
}

/// Hamming distance (number of differing bits) between two binary
/// hypervectors, computed with XOR + popcount over packed words.
///
/// # Panics
///
/// Panics if the dimensionalities differ.
///
/// # Examples
///
/// ```
/// use hdc::{BinaryHv, similarity};
///
/// let a = BinaryHv::from_bits(3, [true, true, false]);
/// let b = BinaryHv::from_bits(3, [true, false, true]);
/// assert_eq!(similarity::hamming_distance(&a, &b), 2);
/// ```
pub fn hamming_distance(a: &BinaryHv, b: &BinaryHv) -> usize {
    assert_eq!(
        a.dim(),
        b.dim(),
        "hamming: dimension mismatch ({} vs {})",
        a.dim(),
        b.dim()
    );
    crate::simd::hamming_words(a.as_words(), b.as_words())
}

/// Normalised Hamming **similarity** in `[-1, 1]`:
/// `1 − 2·hamming(a,b)/D`. Equals the cosine similarity of the corresponding
/// bipolar (±1) vectors, which is what makes it a drop-in replacement for
/// Eq. 5 in the quantized cluster search.
///
/// Returns `0.0` for zero-width vectors.
///
/// # Panics
///
/// Panics if the dimensionalities differ.
pub fn hamming_similarity(a: &BinaryHv, b: &BinaryHv) -> f32 {
    if a.dim() == 0 {
        assert_eq!(b.dim(), 0, "hamming: dimension mismatch (0 vs {})", b.dim());
        return 0.0;
    }
    1.0 - 2.0 * hamming_distance(a, b) as f32 / a.dim() as f32
}

/// Squared Euclidean distance between two real hypervectors.
///
/// # Panics
///
/// Panics if the dimensionalities differ.
pub fn squared_euclidean(a: &RealHv, b: &RealHv) -> f32 {
    assert_eq!(
        a.dim(),
        b.dim(),
        "euclidean: dimension mismatch ({} vs {})",
        a.dim(),
        b.dim()
    );
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>() as f32
}

/// Softmax normalisation of raw similarity scores into confidences
/// (`δ′` in the paper, step ③ of Fig. 4). `beta` is an inverse-temperature
/// hyper-parameter: larger values sharpen the distribution toward the argmax
/// cluster.
///
/// Uses the max-subtraction trick for numerical stability. An empty slice
/// yields an empty output; non-finite inputs are clamped before
/// exponentiation.
///
/// # Examples
///
/// ```
/// use hdc::similarity::softmax;
///
/// let conf = softmax(&[1.0, 1.0], 1.0);
/// assert!((conf[0] - 0.5).abs() < 1e-6);
/// assert!((conf.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// ```
pub fn softmax(scores: &[f32], beta: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(scores.len());
    softmax_into(scores, beta, &mut out);
    out
}

/// Allocation-free variant of [`softmax`]: clears `out` and fills it with
/// the confidences. Batched prediction paths call this once per row with a
/// reused buffer.
pub fn softmax_into(scores: &[f32], beta: f32, out: &mut Vec<f32>) {
    out.clear();
    if scores.is_empty() {
        return;
    }
    let max = scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .fold(f32::NEG_INFINITY, f32::max);
    let max = if max.is_finite() { max } else { 0.0 };
    // Two passes recomputing the exponentials keeps the arithmetic (and
    // therefore every seeded training trajectory) bit-identical to the
    // allocating version while needing no f64 scratch buffer; the doubled
    // exp cost over k ≈ 8 scores is noise next to the D-wide dot products
    // that produced them.
    let exp = |s: f32| {
        let s = if s.is_finite() { s } else { max };
        ((s - max) as f64 * beta as f64).exp()
    };
    let sum: f64 = scores.iter().map(|&s| exp(s)).sum();
    if sum <= 0.0 || !sum.is_finite() {
        // Degenerate case: fall back to uniform confidences.
        out.extend(std::iter::repeat_n(1.0 / scores.len() as f32, scores.len()));
        return;
    }
    out.extend(scores.iter().map(|&s| (exp(s) / sum) as f32));
}

/// Index of the maximum score, breaking ties toward the lower index.
/// Returns `None` for an empty slice. Non-finite scores lose to any finite
/// score.
pub fn argmax(scores: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &s) in scores.iter().enumerate() {
        let key = if s.is_finite() { s } else { f32::NEG_INFINITY };
        match best {
            None => best = Some((i, key)),
            Some((_, b)) if key > b => best = Some((i, key)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::HdRng;
    use crate::BipolarHv;

    #[test]
    fn cosine_self_is_one() {
        let mut rng = HdRng::seed_from(1);
        let v = RealHv::random_gaussian(512, &mut rng);
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_negation_is_minus_one() {
        let v = RealHv::from_vec(vec![1.0, -2.0, 3.0]);
        let mut n = v.clone();
        n.scale(-1.0);
        assert!((cosine(&v, &n) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let z = RealHv::zeros(8);
        let v = RealHv::from_vec(vec![1.0; 8]);
        assert_eq!(cosine(&z, &v), 0.0);
        assert_eq!(cosine(&v, &z), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let mut rng = HdRng::seed_from(2);
        let a = RealHv::random_gaussian(256, &mut rng);
        let b = RealHv::random_gaussian(256, &mut rng);
        let mut b10 = b.clone();
        b10.scale(10.0);
        assert!((cosine(&a, &b) - cosine(&a, &b10)).abs() < 1e-5);
    }

    #[test]
    fn hamming_identity_and_symmetry() {
        let mut rng = HdRng::seed_from(3);
        let a = BinaryHv::random(1000, &mut rng);
        let b = BinaryHv::random(1000, &mut rng);
        assert_eq!(hamming_distance(&a, &a), 0);
        assert_eq!(hamming_distance(&a, &b), hamming_distance(&b, &a));
    }

    #[test]
    fn hamming_similarity_matches_bipolar_cosine() {
        // The key identity justifying §3.1's Hamming substitution.
        let mut rng = HdRng::seed_from(4);
        let a = BipolarHv::random(4096, &mut rng);
        let b = BipolarHv::random(4096, &mut rng);
        let cos = cosine(&a.to_real(), &b.to_real());
        let ham = hamming_similarity(&a.to_binary(), &b.to_binary());
        assert!((cos - ham).abs() < 1e-4, "cos={cos} ham={ham}");
    }

    #[test]
    fn hamming_similarity_bounds() {
        let mut rng = HdRng::seed_from(5);
        for _ in 0..10 {
            let a = BinaryHv::random(512, &mut rng);
            let b = BinaryHv::random(512, &mut rng);
            let s = hamming_similarity(&a, &b);
            assert!((-1.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn hamming_similarity_empty_is_zero() {
        assert_eq!(
            hamming_similarity(&BinaryHv::zeros(0), &BinaryHv::zeros(0)),
            0.0
        );
    }

    #[test]
    fn squared_euclidean_reference() {
        let a = RealHv::from_vec(vec![1.0, 2.0]);
        let b = RealHv::from_vec(vec![4.0, 6.0]);
        assert_eq!(squared_euclidean(&a, &b), 9.0 + 16.0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let conf = softmax(&[0.1, 0.9, -0.5, 0.3], 4.0);
        let sum: f32 = conf.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(conf.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn softmax_monotone_in_scores() {
        let conf = softmax(&[0.2, 0.8], 2.0);
        assert!(conf[1] > conf[0]);
    }

    #[test]
    fn softmax_beta_sharpens() {
        let soft = softmax(&[0.0, 1.0], 1.0);
        let sharp = softmax(&[0.0, 1.0], 10.0);
        assert!(sharp[1] > soft[1]);
    }

    #[test]
    fn softmax_empty_is_empty() {
        assert!(softmax(&[], 1.0).is_empty());
    }

    #[test]
    fn softmax_handles_nan_scores() {
        let conf = softmax(&[f32::NAN, 1.0], 1.0);
        assert!((conf.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(conf.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn softmax_extreme_scores_stable() {
        let conf = softmax(&[1e30, -1e30], 1.0);
        assert!(conf.iter().all(|c| c.is_finite()));
        assert!((conf.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_uniform_when_equal() {
        let conf = softmax(&[0.5; 5], 3.0);
        for &c in &conf {
            assert!((c - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[3.0]), Some(0));
        assert_eq!(argmax(&[1.0, 5.0, 2.0]), Some(1));
        // Tie breaks low.
        assert_eq!(argmax(&[5.0, 5.0]), Some(0));
        // NaN loses.
        assert_eq!(argmax(&[f32::NAN, 1.0]), Some(1));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cosine_mismatch_panics() {
        cosine(&RealHv::zeros(4), &RealHv::zeros(5));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn hamming_mismatch_panics() {
        hamming_distance(&BinaryHv::zeros(4), &BinaryHv::zeros(5));
    }
}
