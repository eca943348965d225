//! Dense real-valued hypervectors.
//!
//! [`RealHv`] is the workhorse representation of the RegHD pipeline: encoded
//! data points, integer-precision cluster centroids and regression model
//! hypervectors are all accumulated in `f32`. (The paper calls these
//! "integer" models because after encoding to ±1 the accumulations are
//! integer-valued; `f32` holds those exactly up to 2²⁴ and also supports the
//! fractional learning-rate updates of Eq. 2/7.)

use crate::error::DimensionMismatchError;
use crate::rng::HdRng;

/// A dense real-valued hypervector of fixed dimensionality.
///
/// # Examples
///
/// ```
/// use hdc::RealHv;
///
/// let mut m = RealHv::zeros(4);
/// let s = RealHv::from_vec(vec![1.0, -1.0, 1.0, -1.0]);
/// m.add_scaled(&s, 0.5);
/// assert_eq!(m.as_slice(), &[0.5, -0.5, 0.5, -0.5]);
/// assert_eq!(m.dot(&s), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RealHv {
    data: Vec<f32>,
}

impl RealHv {
    /// Creates an all-zero hypervector of width `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            data: vec![0.0; dim],
        }
    }

    /// Wraps an existing buffer as a hypervector.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self { data }
    }

    /// Creates a hypervector with i.i.d. standard normal entries.
    pub fn random_gaussian(dim: usize, rng: &mut HdRng) -> Self {
        Self {
            data: (0..dim).map(|_| rng.next_gaussian() as f32).collect(),
        }
    }

    /// Creates a hypervector with i.i.d. uniform entries in `[lo, hi)`.
    pub fn random_uniform(dim: usize, lo: f32, hi: f32, rng: &mut HdRng) -> Self {
        Self {
            data: (0..dim).map(|_| lo + (hi - lo) * rng.next_f32()).collect(),
        }
    }

    /// The dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero width.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the components.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the components.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the hypervector, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Resets the vector to `dim` zeros, reusing the existing allocation
    /// when it is large enough — the zero-allocation building block of the
    /// `kernels` batch paths and the prediction scratch buffers.
    pub fn reset(&mut self, dim: usize) {
        self.data.clear();
        self.data.resize(dim, 0.0);
    }

    /// Dot product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn dot(&self, other: &RealHv) -> f32 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dot: dimension mismatch ({} vs {})",
            self.dim(),
            other.dim()
        );
        // Accumulate in f64: with D of several thousand, f32 accumulation
        // error is visible in the regression error metrics. The kernel's
        // four fixed lanes break the serial add-latency chain, and their
        // combine order is fixed, so every SIMD level returns the same bits
        // (see the lane contract in `crate::simd`).
        crate::simd::dot_f64(&self.data, &other.data) as f32
    }

    /// Clears `out` and pushes `self · o` for every `o` in `others`, each
    /// bit-identical to [`RealHv::dot`]. The kernel streams `self` once per
    /// group of rows, so `k` dots against one query cost far less than `k`
    /// separate calls.
    ///
    /// # Panics
    ///
    /// Panics if any dimensionality differs from `self`'s.
    pub fn dots_into(&self, others: &[RealHv], out: &mut Vec<f32>) {
        out.clear();
        crate::simd::dots_f64(&self.data, others, |d| out.push(d as f32));
    }

    /// Euclidean norm `‖self‖₂`, accumulated like [`RealHv::dot`].
    pub fn norm(&self) -> f32 {
        crate::simd::dot_f64(&self.data, &self.data).sqrt() as f32
    }

    /// In-place `self += alpha * other` — the core RegHD model update
    /// (Eq. 2 and Eq. 7 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn add_scaled(&mut self, other: &RealHv, alpha: f32) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "add_scaled: dimension mismatch ({} vs {})",
            self.dim(),
            other.dim()
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Fallible element-wise addition returning a new hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the widths differ.
    pub fn checked_add(&self, other: &RealHv) -> Result<RealHv, DimensionMismatchError> {
        if self.dim() != other.dim() {
            return Err(DimensionMismatchError::new(self.dim(), other.dim()));
        }
        Ok(RealHv::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        ))
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Scales the vector to unit Euclidean norm. A zero vector is left
    /// unchanged.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Element-wise product (the HD *binding* operator for real vectors).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn hadamard(&self, other: &RealHv) -> RealHv {
        assert_eq!(
            self.dim(),
            other.dim(),
            "hadamard: dimension mismatch ({} vs {})",
            self.dim(),
            other.dim()
        );
        RealHv::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a * b)
                .collect(),
        )
    }

    /// Quantises each component to a sign bit: component > 0 maps to `1`,
    /// otherwise `0`. This is the single-comparison binarisation used by the
    /// quantized-clustering framework (§3.1).
    pub fn binarize(&self) -> crate::BinaryHv {
        let mut words = vec![0u64; self.dim().div_ceil(64)];
        crate::simd::pack_signs(&self.data, &mut words);
        crate::BinaryHv::from_words(self.dim(), words)
    }

    /// Maps each component to `+1`/`-1` by sign (ties at 0 map to `-1`),
    /// yielding a bipolar hypervector.
    pub fn to_bipolar(&self) -> crate::BipolarHv {
        crate::BipolarHv::from_signs(self.data.iter().map(|&a| a > 0.0))
    }

    /// Mean of the components.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        (self.data.iter().map(|&a| a as f64).sum::<f64>() / self.data.len() as f64) as f32
    }

    /// Largest absolute component value.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &a| m.max(a.abs()))
    }
}

impl FromIterator<f32> for RealHv {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        RealHv::from_vec(iter.into_iter().collect())
    }
}

impl From<Vec<f32>> for RealHv {
    fn from(v: Vec<f32>) -> Self {
        RealHv::from_vec(v)
    }
}

impl AsRef<[f32]> for RealHv {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::Add for &RealHv {
    type Output = RealHv;

    /// Element-wise addition (the HD bundling operator).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ; use
    /// [`RealHv::checked_add`] for a fallible variant.
    fn add(self, rhs: &RealHv) -> RealHv {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "add: dimension mismatch ({} vs {})",
            self.dim(),
            rhs.dim()
        );
        RealHv::from_vec(
            self.as_slice()
                .iter()
                .zip(rhs.as_slice())
                .map(|(&a, &b)| a + b)
                .collect(),
        )
    }
}

impl std::ops::Sub for &RealHv {
    type Output = RealHv;

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    fn sub(self, rhs: &RealHv) -> RealHv {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "sub: dimension mismatch ({} vs {})",
            self.dim(),
            rhs.dim()
        );
        RealHv::from_vec(
            self.as_slice()
                .iter()
                .zip(rhs.as_slice())
                .map(|(&a, &b)| a - b)
                .collect(),
        )
    }
}

impl std::ops::Neg for &RealHv {
    type Output = RealHv;

    fn neg(self) -> RealHv {
        RealHv::from_vec(self.as_slice().iter().map(|&a| -a).collect())
    }
}

impl std::fmt::Display for RealHv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RealHv(dim={}, ‖·‖={:.3})", self.dim(), self.norm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_zero() {
        let z = RealHv::zeros(16);
        assert_eq!(z.dim(), 16);
        assert!(z.as_slice().iter().all(|&a| a == 0.0));
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn dot_matches_manual() {
        let a = RealHv::from_vec(vec![1.0, 2.0, 3.0]);
        let b = RealHv::from_vec(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_is_symmetric() {
        let mut rng = HdRng::seed_from(1);
        let a = RealHv::random_gaussian(256, &mut rng);
        let b = RealHv::random_gaussian(256, &mut rng);
        assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-3);
    }

    #[test]
    fn unrolled_dot_and_norm_match_f64_reference() {
        // Widths straddling the 4-way unroll boundary, including the
        // remainder lanes. The f64 accumulation keeps the unrolled result
        // within one f32 ulp of the sequential f64 reference.
        let mut rng = HdRng::seed_from(9);
        for dim in [1usize, 2, 3, 4, 5, 7, 8, 257, 1023] {
            let a = RealHv::random_gaussian(dim, &mut rng);
            let b = RealHv::random_gaussian(dim, &mut rng);
            let want_dot = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum::<f64>();
            let got = f64::from(a.dot(&b));
            assert!(
                (got - want_dot).abs() <= 1e-4 * (1.0 + want_dot.abs()),
                "dim={dim}: dot {got} vs {want_dot}"
            );
            let want_norm = a
                .as_slice()
                .iter()
                .map(|&x| f64::from(x) * f64::from(x))
                .sum::<f64>()
                .sqrt();
            let got = f64::from(a.norm());
            assert!(
                (got - want_norm).abs() <= 1e-4 * (1.0 + want_norm),
                "dim={dim}: norm {got} vs {want_norm}"
            );
        }
    }

    #[test]
    fn reset_reuses_allocation_and_zeroes() {
        let mut v = RealHv::from_vec(vec![3.0; 64]);
        let ptr = v.as_slice().as_ptr();
        v.reset(32);
        assert_eq!(v.dim(), 32);
        assert!(v.as_slice().iter().all(|&a| a == 0.0));
        assert_eq!(v.as_slice().as_ptr(), ptr, "shrinking must not realloc");
        v.reset(64);
        assert_eq!(v.dim(), 64);
        assert!(v.as_slice().iter().all(|&a| a == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatched_panics() {
        RealHv::zeros(4).dot(&RealHv::zeros(8));
    }

    #[test]
    fn checked_add_errors_on_mismatch() {
        let e = RealHv::zeros(4).checked_add(&RealHv::zeros(8)).unwrap_err();
        assert_eq!(e.expected(), 4);
        assert_eq!(e.actual(), 8);
    }

    #[test]
    fn checked_add_adds() {
        let a = RealHv::from_vec(vec![1.0, 2.0]);
        let b = RealHv::from_vec(vec![3.0, -1.0]);
        assert_eq!(a.checked_add(&b).unwrap().as_slice(), &[4.0, 1.0]);
    }

    #[test]
    fn add_scaled_is_fma() {
        let mut m = RealHv::from_vec(vec![1.0, 1.0]);
        m.add_scaled(&RealHv::from_vec(vec![2.0, -2.0]), 0.25);
        assert_eq!(m.as_slice(), &[1.5, 0.5]);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut rng = HdRng::seed_from(3);
        let mut v = RealHv::random_gaussian(512, &mut rng);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalize_zero_is_noop() {
        let mut z = RealHv::zeros(8);
        z.normalize();
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn hadamard_componentwise() {
        let a = RealHv::from_vec(vec![2.0, 3.0]);
        let b = RealHv::from_vec(vec![-1.0, 0.5]);
        assert_eq!(a.hadamard(&b).as_slice(), &[-2.0, 1.5]);
    }

    #[test]
    fn binarize_thresholds_at_zero() {
        let v = RealHv::from_vec(vec![0.1, -0.1, 0.0, 5.0]);
        let b = v.binarize();
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(!b.get(2));
        assert!(b.get(3));
    }

    #[test]
    fn to_bipolar_signs() {
        let v = RealHv::from_vec(vec![0.5, -2.0]);
        let b = v.to_bipolar();
        assert_eq!(b.as_slice(), &[1, -1]);
    }

    #[test]
    fn gaussian_vectors_nearly_orthogonal() {
        let mut rng = HdRng::seed_from(7);
        let a = RealHv::random_gaussian(4096, &mut rng);
        let b = RealHv::random_gaussian(4096, &mut rng);
        let cos = a.dot(&b) / (a.norm() * b.norm());
        assert!(cos.abs() < 0.06, "cos = {cos}");
    }

    #[test]
    fn mean_and_max_abs() {
        let v = RealHv::from_vec(vec![1.0, -3.0, 2.0]);
        assert!((v.mean() - 0.0).abs() < 1e-6);
        assert_eq!(v.max_abs(), 3.0);
        assert_eq!(RealHv::zeros(0).mean(), 0.0);
    }

    #[test]
    fn from_iterator_collects() {
        let v: RealHv = (0..4).map(|i| i as f32).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn uniform_respects_range() {
        let mut rng = HdRng::seed_from(13);
        let v = RealHv::random_uniform(1000, -2.0, 3.0, &mut rng);
        assert!(v.as_slice().iter().all(|&a| (-2.0..3.0).contains(&a)));
    }

    #[test]
    fn display_mentions_dim() {
        let v = RealHv::zeros(42);
        assert!(v.to_string().contains("42"));
    }

    #[test]
    fn operator_add_sub_neg() {
        let a = RealHv::from_vec(vec![1.0, 2.0]);
        let b = RealHv::from_vec(vec![0.5, -1.0]);
        assert_eq!((&a + &b).as_slice(), &[1.5, 1.0]);
        assert_eq!((&a - &b).as_slice(), &[0.5, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        // a − b == a + (−b)
        assert_eq!(&a - &b, &a + &(-&b));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn operator_add_mismatch_panics() {
        let _ = &RealHv::zeros(2) + &RealHv::zeros(3);
    }
}
