//! Discrete Fourier Transform primitives.
//!
//! The comparator in the paper assumes the *direct* DFT (its complexity
//! analysis and Figures 5b/5d hinge on `O(B·n)` multiply-adds per window for
//! `n` kept coefficients of `B` samples). The sketching paths run it as a
//! planned transform, [`DftPlanner::direct`]: the twiddles are computed once
//! per plan instead of one `sin`/`cos` pair per term, only the kept
//! coefficients are computed ([`DftPlanner::coefficients_into`]), and every
//! coefficient is bit-identical to the unplanned [`naive_dft`], which stays
//! as the test oracle. A radix-2 FFT is provided as an ablation
//! ([`radix2_fft`], planned by [`DftPlanner::new`]) to quantify how much of
//! the comparator's disadvantage is the transform itself.

use serde::{Deserialize, Serialize};
use tsubasa_core::stats::WindowStats;

/// A minimal complex number. We intentionally avoid pulling in an external
/// complex/FFT crate: the comparator only needs addition, multiplication by a
//  twiddle factor, and magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The complex number `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Multiply by a real scalar.
    pub fn scale(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }
}

/// The unitary DFT of `x` computed naively in `O(k²)` — paper Equation 2,
/// including the `1/√k` factor so that Parseval's theorem holds exactly
/// (`Σ|X_f|² = Σ|x_i|²`) and Euclidean distances are preserved.
///
/// Unplanned: every term evaluates its own `sin`/`cos` pair. The sketching
/// paths run [`DftPlanner::direct`], which reproduces this function bit for
/// bit; it stays as their test oracle.
pub fn naive_dft(x: &[f64]) -> Vec<Complex> {
    let k = x.len();
    if k == 0 {
        return Vec::new();
    }
    let scale = 1.0 / (k as f64).sqrt();
    let base = -2.0 * std::f64::consts::PI / k as f64;
    (0..k)
        .map(|f| {
            let mut acc = Complex::default();
            for (i, &v) in x.iter().enumerate() {
                let angle = base * (f as f64) * (i as f64);
                acc = acc + Complex::from_angle(angle).scale(v);
            }
            acc.scale(scale)
        })
        .collect()
}

/// Unitary radix-2 FFT. Falls back to [`naive_dft`] when the length is not a
/// power of two (the sketching path never depends on power-of-two basic
/// windows). Provided for the `dft_vs_fft` ablation benchmark.
pub fn radix2_fft(x: &[f64]) -> Vec<Complex> {
    let k = x.len();
    if k == 0 {
        return Vec::new();
    }
    if !k.is_power_of_two() || k == 1 {
        return naive_dft(x);
    }
    let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();

    // Bit-reversal permutation.
    let bits = k.trailing_zeros();
    for i in 0..k {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            buf.swap(i, j);
        }
    }

    // Iterative Cooley–Tukey butterflies.
    let mut len = 2;
    while len <= k {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(angle);
        for start in (0..k).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for off in 0..len / 2 {
                let a = buf[start + off];
                let b = buf[start + off + len / 2] * w;
                buf[start + off] = a + b;
                buf[start + off + len / 2] = a - b;
                w = w * wlen;
            }
        }
        len <<= 1;
    }

    let scale = 1.0 / (k as f64).sqrt();
    buf.iter_mut().for_each(|c| *c = c.scale(scale));
    buf
}

/// A reusable transform plan for windows of one length `B`: either the
/// iterative radix-2 FFT with its bit-reversal permutation and per-stage
/// twiddle factors, or the table-driven direct DFT, precomputed once per
/// plan.
///
/// The sketching paths transform *every basic window of every series* at the
/// same length `B`, so a plan amortizes its table setup across the whole
/// sweep:
///
/// * [`DftPlanner::new`] plans the radix-2 FFT for power-of-two `B`
///   (`O(B log B)` per window, table lookups instead of the `w ← w·w_len`
///   recurrence of [`radix2_fft`]) and the direct DFT otherwise;
/// * [`DftPlanner::direct`] plans the direct DFT at any `B`.
///
/// The direct plan keeps the paper's `O(B·n)` multiply-adds per window (`n`
/// coefficients of `B` samples) but computes its twiddles once per plan —
/// with the same expression [`naive_dft`] evaluates per term — and sums each
/// coefficient's terms in the same sample order, so every coefficient it
/// produces is bit-identical to [`naive_dft`]'s. The FFT agrees with
/// [`naive_dft`] within rounding only.
#[derive(Debug, Clone, PartialEq)]
pub struct DftPlanner {
    size: usize,
    kernel: Kernel,
}

#[derive(Debug, Clone, PartialEq)]
enum Kernel {
    Radix2 {
        /// Bit-reversal permutation of `0..size`.
        bitrev: Vec<usize>,
        /// `twiddles[s][off] = e^{-2πi·off/len}` for stage `len = 2^(s+1)`.
        twiddles: Vec<Vec<Complex>>,
    },
    Direct {
        /// Sample-major interleaved twiddles: `table[2·(i·size + f)..][..2]`
        /// is `(re, im)` of `e^{-2πi·f·i/size}`, so one sample's terms for
        /// consecutive frequencies are contiguous and the per-sample update
        /// of every accumulator vectorizes.
        table: Vec<f64>,
    },
}

impl DftPlanner {
    /// Plan transforms of length `size`: the radix-2 FFT when `size` is a
    /// power of two (at least 2), the direct DFT ([`DftPlanner::direct`])
    /// otherwise.
    pub fn new(size: usize) -> Self {
        if !size.is_power_of_two() || size < 2 {
            return Self::direct(size);
        }
        let bits = size.trailing_zeros();
        let bitrev = (0..size)
            .map(|i| ((i as u32).reverse_bits() >> (32 - bits)) as usize)
            .collect();
        let mut twiddles = Vec::with_capacity(bits as usize);
        let mut len = 2;
        while len <= size {
            let angle = -2.0 * std::f64::consts::PI / len as f64;
            twiddles.push(
                (0..len / 2)
                    .map(|off| Complex::from_angle(angle * off as f64))
                    .collect(),
            );
            len <<= 1;
        }
        Self {
            size,
            kernel: Kernel::Radix2 { bitrev, twiddles },
        }
    }

    /// Plan the direct DFT of length `size`, whatever its parity: the
    /// `size × size` twiddle table is computed once here, and every
    /// coefficient the plan produces is bit-identical to [`naive_dft`]'s.
    pub fn direct(size: usize) -> Self {
        let base = -2.0 * std::f64::consts::PI / size as f64;
        let mut table = Vec::with_capacity(2 * size * size);
        for i in 0..size {
            for f in 0..size {
                // The angle expression of `naive_dft`, term for term.
                let w = Complex::from_angle(base * (f as f64) * (i as f64));
                table.push(w.re);
                table.push(w.im);
            }
        }
        Self {
            size,
            kernel: Kernel::Direct { table },
        }
    }

    /// The window size this plan was built for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True when the plan runs the radix-2 FFT (power-of-two size); false
    /// when it runs the direct DFT.
    pub fn uses_fft(&self) -> bool {
        matches!(self.kernel, Kernel::Radix2 { .. })
    }

    /// Transform one window into all of its coefficients. Inputs of a
    /// different length than the planned size take the unplanned path of the
    /// same kind ([`radix2_fft`] or [`naive_dft`]).
    pub fn transform(&self, x: &[f64]) -> Vec<Complex> {
        if x.len() != self.size {
            return match self.kernel {
                Kernel::Radix2 { .. } => radix2_fft(x),
                Kernel::Direct { .. } => naive_dft(x),
            };
        }
        let k = self.size;
        match &self.kernel {
            Kernel::Radix2 { bitrev, twiddles } => {
                let mut buf: Vec<Complex> =
                    bitrev.iter().map(|&j| Complex::new(x[j], 0.0)).collect();
                let mut len = 2;
                for tw in twiddles {
                    for start in (0..k).step_by(len) {
                        for (off, &w) in tw.iter().enumerate() {
                            let a = buf[start + off];
                            let b = buf[start + off + len / 2] * w;
                            buf[start + off] = a + b;
                            buf[start + off + len / 2] = a - b;
                        }
                    }
                    len <<= 1;
                }
                let scale = 1.0 / (k as f64).sqrt();
                buf.iter_mut().for_each(|c| *c = c.scale(scale));
                buf
            }
            Kernel::Direct { table } => {
                let mut acc = vec![0.0f64; 2 * k];
                direct_accumulate(table, k, x.iter().copied(), &mut acc);
                acc.chunks_exact(2)
                    .map(|c| Complex::new(c[0], c[1]))
                    .collect()
            }
        }
    }

    /// The first `n_coeff` coefficients of the unit-normalized window,
    /// written as one interleaved row `[re₀, im₀, re₁, im₁, …]` of
    /// `2·n_coeff` values — the coefficient-major layout the tiled distance
    /// sweep reads.
    ///
    /// Fuses [`normalize_unit_with_stats`](crate::normalize::normalize_unit_with_stats)
    /// (same expression, so a constant or empty window yields a zero row),
    /// the transform and the flattening. The direct plan computes only the
    /// `n_coeff` kept frequencies and allocates nothing; the result equals
    /// the first `n_coeff` coefficients of
    /// `naive_dft(&normalize_unit_with_stats(values, stats))` bit for bit.
    /// The FFT plan transforms the whole window and keeps the prefix.
    ///
    /// # Panics
    ///
    /// Panics when `values.len()` differs from the planned size, when
    /// `n_coeff` exceeds it, or when `row.len() != 2·n_coeff`.
    pub fn coefficients_into(
        &self,
        values: &[f64],
        stats: &WindowStats,
        n_coeff: usize,
        row: &mut [f64],
    ) {
        let k = self.size;
        assert_eq!(values.len(), k, "window length differs from the plan");
        assert!(n_coeff <= k, "{n_coeff} coefficients of a {k}-point window");
        assert_eq!(row.len(), 2 * n_coeff, "row holds 2·n_coeff values");
        row.fill(0.0);
        if stats.std == 0.0 || values.is_empty() {
            return;
        }
        let denom = stats.std * (k as f64).sqrt();
        let normalized = values.iter().map(|&v| (v - stats.mean) / denom);
        match &self.kernel {
            Kernel::Radix2 { .. } => {
                let coeffs = self.transform(&normalized.collect::<Vec<f64>>());
                for (slot, c) in row.chunks_exact_mut(2).zip(&coeffs) {
                    slot[0] = c.re;
                    slot[1] = c.im;
                }
            }
            Kernel::Direct { table } => direct_accumulate(table, k, normalized, row),
        }
    }
}

/// The direct DFT kernel: `acc` (zeroed, `2·n` interleaved accumulators for
/// the first `n` frequencies) receives `Σᵢ wᵢ_f·xᵢ` in ascending `i`, then
/// the unitary `1/√k` scale — the arithmetic of [`naive_dft`], term for
/// term, so the result is bit-identical to it.
fn direct_accumulate(table: &[f64], k: usize, x: impl Iterator<Item = f64>, acc: &mut [f64]) {
    if k == 0 {
        return;
    }
    let n = acc.len();
    for (v, twiddles) in x.zip(table.chunks_exact(2 * k)) {
        for (a, &w) in acc.iter_mut().zip(&twiddles[..n]) {
            *a += w * v;
        }
    }
    let scale = 1.0 / (k as f64).sqrt();
    acc.iter_mut().for_each(|a| *a *= scale);
}

/// Euclidean distance between the first `n` coefficients of two DFT
/// coefficient vectors — the paper's `Dist_n(X̂, Ŷ)`.
///
/// When `n` equals the full length this is the exact distance of the
/// underlying (normalized) windows by Parseval's theorem.
pub fn coefficient_distance(x: &[Complex], y: &[Complex], n: usize) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = n.min(x.len());
    x.iter()
        .zip(y)
        .take(n)
        .map(|(a, b)| (*a - *b).norm_sq())
        .sum::<f64>()
        .sqrt()
}

/// [`coefficient_distance`] over two interleaved coefficient rows (the
/// layout [`DftPlanner::coefficients_into`] writes): the same per-frequency
/// `Δre² + Δim²` terms summed in the same order, so the two agree bit for
/// bit on the same coefficients.
pub fn interleaved_distance(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.chunks_exact(2)
        .zip(y.chunks_exact(2))
        .map(|(a, b)| (Complex::new(a[0], a[1]) - Complex::new(b[0], b[1])).norm_sq())
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn euclid(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dft_of_constant_concentrates_in_dc() {
        let x = vec![2.0; 8];
        let coeffs = naive_dft(&x);
        // DC coefficient = sum / sqrt(k) = 16 / sqrt(8).
        assert!((coeffs[0].re - 16.0 / 8f64.sqrt()).abs() < 1e-9);
        for c in &coeffs[1..] {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_holds_for_naive_dft() {
        let x: Vec<f64> = (0..13).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let energy_time: f64 = x.iter().map(|v| v * v).sum();
        let energy_freq: f64 = naive_dft(&x).iter().map(|c| c.norm_sq()).sum();
        assert!((energy_time - energy_freq).abs() < 1e-9);
    }

    #[test]
    fn fft_matches_naive_dft_on_power_of_two() {
        let x: Vec<f64> = (0..16)
            .map(|i| (i as f64 * 0.7).sin() + 0.3 * i as f64)
            .collect();
        let a = naive_dft(&x);
        let b = radix2_fft(&x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u.re - v.re).abs() < 1e-9 && (u.im - v.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_falls_back_on_non_power_of_two() {
        let x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let a = naive_dft(&x);
        let b = radix2_fft(&x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u.re - v.re).abs() < 1e-9);
        }
    }

    #[test]
    fn full_coefficient_distance_equals_time_domain_distance() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).cos()).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.31).sin() * 1.2).collect();
        let dx = naive_dft(&x);
        let dy = naive_dft(&y);
        let d_freq = coefficient_distance(&dx, &dy, 20);
        assert!((d_freq - euclid(&x, &y)).abs() < 1e-9);
    }

    #[test]
    fn partial_coefficient_distance_is_monotone_in_n() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.25).sin() + 0.1).collect();
        let dx = naive_dft(&x);
        let dy = naive_dft(&y);
        let mut last = 0.0;
        for n in 1..=32 {
            let d = coefficient_distance(&dx, &dy, n);
            assert!(
                d + 1e-12 >= last,
                "distance must grow with more coefficients"
            );
            last = d;
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(naive_dft(&[]).is_empty());
        assert!(radix2_fft(&[]).is_empty());
        assert!(DftPlanner::new(0).transform(&[]).is_empty());
    }

    #[test]
    fn planner_matches_naive_dft_on_power_of_two() {
        for k in [2usize, 8, 32, 128] {
            let plan = DftPlanner::new(k);
            assert!(plan.uses_fft());
            assert_eq!(plan.size(), k);
            let x: Vec<f64> = (0..k)
                .map(|i| (i as f64 * 0.37).sin() * 2.0 + 0.1 * i as f64)
                .collect();
            let fast = plan.transform(&x);
            let reference = naive_dft(&x);
            for (u, v) in fast.iter().zip(&reference) {
                assert!(
                    (u.re - v.re).abs() < 1e-9 && (u.im - v.im).abs() < 1e-9,
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn planner_falls_back_to_naive_on_other_sizes() {
        for k in [1usize, 3, 12, 50] {
            let plan = DftPlanner::new(k);
            assert!(!plan.uses_fft());
            let x: Vec<f64> = (0..k).map(|i| i as f64 * 0.5 - 1.0).collect();
            let fast = plan.transform(&x);
            let reference = naive_dft(&x);
            for (u, v) in fast.iter().zip(&reference) {
                assert!((u.re - v.re).abs() < 1e-9 && (u.im - v.im).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn planner_handles_mismatched_input_length() {
        let plan = DftPlanner::new(16);
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let fast = plan.transform(&x); // falls back to the unplanned path
        let reference = naive_dft(&x);
        for (u, v) in fast.iter().zip(&reference) {
            assert!((u.re - v.re).abs() < 1e-9);
        }
    }

    fn complex_bits(c: &[Complex]) -> Vec<(u64, u64)> {
        c.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    fn flat_bits(c: &[Complex]) -> Vec<u64> {
        c.iter()
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    #[test]
    fn constant_windows_produce_zero_rows() {
        for k in [1usize, 7, 16, 48] {
            let x = vec![3.25; k];
            let stats = WindowStats::from_values(&x);
            for plan in [DftPlanner::new(k), DftPlanner::direct(k)] {
                let mut row = vec![f64::NAN; 2 * k];
                plan.coefficients_into(&x, &stats, k, &mut row);
                assert!(row.iter().all(|v| v.to_bits() == 0), "k={k}");
            }
        }
        let empty = WindowStats::from_values(&[]);
        DftPlanner::direct(0).coefficients_into(&[], &empty, 0, &mut []);
        assert!(DftPlanner::direct(0).transform(&[]).is_empty());
    }

    #[test]
    fn interleaved_distance_matches_coefficient_distance_bits() {
        let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.41).sin()).collect();
        let y: Vec<f64> = (0..24).map(|i| (i as f64 * 0.17).cos() - 0.2).collect();
        let (cx, cy) = (naive_dft(&x), naive_dft(&y));
        let interleave =
            |c: &[Complex]| -> Vec<f64> { c.iter().flat_map(|c| [c.re, c.im]).collect() };
        for n in 0..=24 {
            let (rx, ry) = (interleave(&cx[..n]), interleave(&cy[..n]));
            assert_eq!(
                interleaved_distance(&rx, &ry).to_bits(),
                coefficient_distance(&cx, &cy, n).to_bits(),
                "n={n}"
            );
        }
    }

    proptest! {
        /// The direct plan reproduces `naive_dft` bit for bit at every
        /// length, power-of-two lengths included.
        #[test]
        fn prop_direct_plan_is_bit_identical_to_naive(
            x in proptest::collection::vec(-100.0f64..100.0, 1..130),
        ) {
            let plan = DftPlanner::direct(x.len());
            prop_assert!(!plan.uses_fft());
            prop_assert_eq!(complex_bits(&plan.transform(&x)), complex_bits(&naive_dft(&x)));
        }

        /// The fused normalize + truncated transform + flatten row equals the
        /// prefix of `naive_dft` over the normalized window bit for bit, at
        /// every coefficient count.
        #[test]
        fn prop_coefficients_into_is_bit_identical_to_naive(
            x in proptest::collection::vec(-100.0f64..100.0, 1..130),
        ) {
            let k = x.len();
            let stats = WindowStats::from_values(&x);
            let reference = flat_bits(&naive_dft(&crate::normalize::normalize_unit_with_stats(
                &x, &stats,
            )));
            let plan = DftPlanner::direct(k);
            for n_coeff in 0..=k {
                let mut row = vec![f64::NAN; 2 * n_coeff];
                plan.coefficients_into(&x, &stats, n_coeff, &mut row);
                let row: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                prop_assert!(row[..] == reference[..2 * n_coeff], "n_coeff={}", n_coeff);
            }
        }

        #[test]
        fn prop_planner_equals_naive(
            x in proptest::collection::vec(-100.0f64..100.0, 1..130),
        ) {
            let plan = DftPlanner::new(x.len());
            let a = naive_dft(&x);
            let b = plan.transform(&x);
            for (u, v) in a.iter().zip(&b) {
                prop_assert!((u.re - v.re).abs() < 1e-6);
                prop_assert!((u.im - v.im).abs() < 1e-6);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_fft_equals_naive(
            x in proptest::collection::vec(-100.0f64..100.0, 1..65),
        ) {
            let a = naive_dft(&x);
            let b = radix2_fft(&x);
            for (u, v) in a.iter().zip(&b) {
                prop_assert!((u.re - v.re).abs() < 1e-6);
                prop_assert!((u.im - v.im).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_parseval(
            x in proptest::collection::vec(-50.0f64..50.0, 1..50),
        ) {
            let energy_time: f64 = x.iter().map(|v| v * v).sum();
            let energy_freq: f64 = naive_dft(&x).iter().map(|c| c.norm_sq()).sum();
            prop_assert!((energy_time - energy_freq).abs() < 1e-6);
        }
    }
}
