//! BLAS-1 style kernels over plain slices, and the prefetch hint for the
//! loops that gather factor rows by index.
//!
//! Every SGD-family solver in this workspace spends essentially all of its
//! arithmetic in the rank-1 update of Eqs. (9)–(10) of the paper, which
//! decomposes into a dot product and two `axpy`-like passes over
//! `k`-dimensional factor rows.  The two hot kernels, [`dot`] and
//! [`sgd_pair_update`], are unrolled four ways over `chunks_exact`: the
//! constant chunk length lets the compiler drop every bounds check and keep
//! four independent lanes in flight, and the fixed association of the four
//! partial sums keeps results deterministic (the workspace's bit-identity
//! anchors all go through these two functions).  The remaining kernels
//! (`axpy`, `scale`, …) are plain loops that auto-vectorize as written.
//!
//! With both rows in L1 that arithmetic is the whole cost.  Over a factor
//! matrix larger than the caches it is not: a loop that visits rows in a
//! data-dependent order (the NOMAD sweep over `w_i`, the IVF probe over
//! `h_j`) takes a demand miss per row unless it says early which row comes
//! next.  [`prefetch_row`] is that hint, and [`prefetch_rows_ahead`] is how
//! far ahead to give it.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar abstraction so kernels work for both `f32`
/// (single-precision runs, Section 5.2 of the paper) and `f64`.
pub trait Real:
    Copy
    + Debug
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Default
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Lossy conversion from `f64` (used for step sizes and constants).
    fn from_f64(x: f64) -> Self;
    /// Lossless widening to `f64` (used when accumulating metrics).
    fn to_f64(self) -> f64;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

/// Euclidean inner product `⟨x, y⟩`.
///
/// Unrolled into four independent accumulators: a single-accumulator loop
/// is a serial chain of floating-point adds (4–5 cycles each), which the
/// autovectorizer must preserve because FP addition is not associative.
/// Four independent partial sums break the chain, so the compiler emits
/// SIMD adds and the loop runs at load bandwidth instead of add latency.
/// The partial sums are combined as `(s0 + s1) + (s2 + s3)` — a fixed
/// association, so results stay deterministic (every engine uses this same
/// kernel, preserving the workspace's bit-identity invariants).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot<T: Real>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // `chunks_exact` (rather than manual indexing) is what lets LLVM elide
    // every bounds check: the chunk length is a compile-time constant, so
    // the four lanes compile to packed loads/multiplies/adds.
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    let mut s0 = T::ZERO;
    let mut s1 = T::ZERO;
    let mut s2 = T::ZERO;
    let mut s3 = T::ZERO;
    for (a, b) in (&mut cx).zip(&mut cy) {
        s0 += a[0] * b[0];
        s1 += a[1] * b[1];
        s2 += a[2] * b[2];
        s3 += a[3] * b[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for (a, b) in cx.remainder().iter().zip(cy.remainder()) {
        acc += *a * *b;
    }
    acc
}

/// `y ← y + alpha * x` (the classic `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

/// `x ← alpha * x`.
#[inline]
pub fn scale<T: Real>(alpha: T, x: &mut [T]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn nrm2<T: Real>(x: &[T]) -> T {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`; avoids the square root when the caller
/// only needs the regularizer value.
#[inline]
pub fn nrm2_sq<T: Real>(x: &[T]) -> T {
    dot(x, x)
}

/// Copies `src` into `dst`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn copy_from<T: Real>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "copy_from: length mismatch");
    dst.copy_from_slice(src);
}

/// The fused SGD step used by every stochastic solver in the workspace:
///
/// ```text
/// w ← w − s · [ (⟨w, h⟩ − a) · h + λ · w ]
/// h ← h − s · [ (⟨w, h⟩ − a) · w + λ · h ]
/// ```
///
/// which is exactly Eqs. (9)–(10) of the paper written with the residual
/// `e = ⟨w, h⟩ − a = −(A_ij − ⟨w_i, h_j⟩)`.  Both vectors are updated from
/// the *same* inner product, matching the paper's pseudo-code (Algorithm 1,
/// lines 19–20) where `h_j` on the right-hand side of the `w_i` update is
/// the value *before* the step.
///
/// Returns the pre-update residual `e`, which callers use to track the
/// training loss without recomputing the inner product.
///
/// The inner product reuses the 4-way-unrolled [`dot`]; the update loop is
/// unrolled the same way so the compiler keeps four independent `(w, h)`
/// lane pairs in flight and vectorizes both stores.  Unlike the dot
/// product, the update is purely element-wise, so unrolling cannot change
/// its results.
#[inline]
pub fn sgd_pair_update<T: Real>(w: &mut [T], h: &mut [T], rating: T, step: T, lambda: T) -> T {
    debug_assert_eq!(w.len(), h.len());
    let e = dot(w, h) - rating;
    #[inline(always)]
    fn lane<T: Real>(w: &mut T, h: &mut T, e: T, step: T, lambda: T) {
        let wl = *w;
        let hl = *h;
        *w = wl - step * (e * hl + lambda * wl);
        *h = hl - step * (e * wl + lambda * hl);
    }
    let mut cw = w.chunks_exact_mut(4);
    let mut ch = h.chunks_exact_mut(4);
    for (a, b) in (&mut cw).zip(&mut ch) {
        lane(&mut a[0], &mut b[0], e, step, lambda);
        lane(&mut a[1], &mut b[1], e, step, lambda);
        lane(&mut a[2], &mut b[2], e, step, lambda);
        lane(&mut a[3], &mut b[3], e, step, lambda);
    }
    for (a, b) in cw
        .into_remainder()
        .iter_mut()
        .zip(ch.into_remainder().iter_mut())
    {
        lane(a, b, e, step, lambda);
    }
    e
}

/// Bytes of one cache line, the unit a prefetch hint fetches.
const CACHE_LINE: usize = 64;

/// How far ahead of the row being worked on a gathering loop prefetches,
/// in bytes of factor rows.
///
/// Bytes rather than rows because the work done per row grows with the
/// row's length, so a fixed number of bytes ahead is a roughly fixed lead
/// time whatever `k` is.  The value sits on the plateau measured for both
/// callers; DESIGN.md ("Memory behaviour of the hop") has the table.
pub const PREFETCH_BYTES_AHEAD: usize = 3072;

/// [`PREFETCH_BYTES_AHEAD`] in rows of `k` `f64`s, at least one.
#[inline]
pub fn prefetch_rows_ahead(k: usize) -> usize {
    (PREFETCH_BYTES_AHEAD / (k * size_of::<f64>()).max(1)).max(1)
}

/// The address of every cache line that the `bytes` bytes starting at
/// `addr` touch, ascending: from the line holding the first byte to the
/// line holding the last, so a row that starts mid-line is covered to its
/// end.  Nothing for `bytes == 0`.
#[inline]
fn cache_lines(addr: usize, bytes: usize) -> impl Iterator<Item = usize> {
    let first = addr & !(CACHE_LINE - 1);
    let end = if bytes == 0 { first } else { addr + bytes };
    (first..end).step_by(CACHE_LINE)
}

/// Hints that `row` is about to be read or written: one prefetch into all
/// cache levels per line the slice touches.
///
/// A hint only.  It never faults, never changes a value and is not ordered
/// with any load or store, so a program with the calls removed computes
/// the same bits — which is also what targets other than `x86_64` compile
/// this to.
#[inline]
pub fn prefetch_row(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64 as arch;
        let start = row.as_ptr().cast::<i8>();
        for line in cache_lines(start.addr(), size_of_val(row)) {
            // SAFETY: the instruction is baseline SSE on `x86_64` and does
            // not access memory architecturally.  The pointer is derived
            // from the live slice `row` and addresses a line that holds at
            // least one of its bytes.
            unsafe { arch::_mm_prefetch::<{ arch::_MM_HINT_T0 }>(start.with_addr(line)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_computation() {
        let x = [1.0_f64, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
    }

    #[test]
    fn dot_matches_documented_association_for_all_lengths() {
        // The unrolled kernel must compute exactly
        // `(s0 + s1) + (s2 + s3) + tail` — the workspace's bit-identity
        // tests depend on every engine agreeing on this association, so
        // pin it against a straightforward reference.
        for n in 0..35usize {
            let x: Vec<f64> = (0..n).map(|i| 0.1 * (i as f64) - 1.0).collect();
            let y: Vec<f64> = (0..n).map(|i| 0.3 * (i as f64 + 1.0).sin()).collect();
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
            let mut i = 0;
            while i + 4 <= n {
                s0 += x[i] * y[i];
                s1 += x[i + 1] * y[i + 1];
                s2 += x[i + 2] * y[i + 2];
                s3 += x[i + 3] * y[i + 3];
                i += 4;
            }
            let mut expect = (s0 + s1) + (s2 + s3);
            while i < n {
                expect += x[i] * y[i];
                i += 1;
            }
            assert_eq!(dot(&x, &y), expect, "association drifted at n={n}");
        }
    }

    #[test]
    fn dot_empty_is_zero() {
        let x: [f64; 0] = [];
        let y: [f64; 0] = [];
        assert_eq!(dot(&x, &y), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0_f64], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0_f64, -2.0, 0.5];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 6.0, 11.0]);
    }

    #[test]
    fn scale_and_norm() {
        let mut x = [3.0_f64, 4.0];
        assert_eq!(nrm2(&x), 5.0);
        scale(2.0, &mut x);
        assert_eq!(x, [6.0, 8.0]);
        assert_eq!(nrm2_sq(&x), 100.0);
    }

    #[test]
    fn copy_from_copies() {
        let src = [1.0_f32, 2.0, 3.0];
        let mut dst = [0.0; 3];
        copy_from(&mut dst, &src);
        assert_eq!(dst, src);
    }

    #[test]
    fn f32_real_roundtrip() {
        assert_eq!(f32::from_f64(0.5).to_f64(), 0.5);
        assert_eq!(<f32 as Real>::ONE + <f32 as Real>::ZERO, 1.0);
    }

    #[test]
    fn sgd_pair_update_matches_manual_formula() {
        // One update with k = 2, checked against the formula evaluated by hand.
        let mut w = [0.5_f64, -0.25];
        let mut h = [1.0_f64, 2.0];
        let w0 = w;
        let h0 = h;
        let a = 3.0;
        let s = 0.1;
        let lambda = 0.05;
        let e = sgd_pair_update(&mut w, &mut h, a, s, lambda);
        let expected_e = w0[0] * h0[0] + w0[1] * h0[1] - a;
        assert!((e - expected_e).abs() < 1e-15);
        for l in 0..2 {
            let ew = w0[l] - s * (expected_e * h0[l] + lambda * w0[l]);
            let eh = h0[l] - s * (expected_e * w0[l] + lambda * h0[l]);
            assert!((w[l] - ew).abs() < 1e-15);
            assert!((h[l] - eh).abs() < 1e-15);
        }
    }

    #[test]
    fn sgd_pair_update_descends_on_single_rating() {
        // Repeatedly applying the update on a single observation must drive
        // the prediction towards the rating (with tiny regularization).
        let mut w = vec![0.1_f64; 8];
        let mut h = vec![0.1_f64; 8];
        let a = 2.0;
        for _ in 0..2000 {
            sgd_pair_update(&mut w, &mut h, a, 0.05, 1e-6);
        }
        let pred = dot(&w, &h);
        assert!(
            (pred - a).abs() < 1e-3,
            "prediction {pred} should approach {a}"
        );
    }

    /// `cache_lines` for `len` `f64`s starting `offset` bytes into a line.
    fn lines_of_row(offset: usize, len: usize) -> Vec<usize> {
        const BASE: usize = 0x7f00_0000_1000;
        cache_lines(BASE + offset, len * size_of::<f64>())
            .map(|line| line - BASE)
            .collect()
    }

    #[test]
    fn cache_lines_of_an_empty_slice_is_nothing() {
        for offset in [0, 8, 56] {
            assert!(lines_of_row(offset, 0).is_empty());
        }
        // A real empty slice (dangling pointer) issues no hint and does no
        // arithmetic on its pointer.
        prefetch_row(&[]);
    }

    #[test]
    fn cache_lines_of_one_element_is_its_line() {
        assert_eq!(lines_of_row(0, 1), [0]);
        assert_eq!(lines_of_row(8, 1), [0]);
        assert_eq!(lines_of_row(56, 1), [0]);
        assert_eq!(lines_of_row(64, 1), [64]);
    }

    #[test]
    fn cache_lines_of_an_aligned_k8_row_is_one_line() {
        assert_eq!(lines_of_row(0, 8), [0]);
        // ... and two as soon as it is not aligned.
        assert_eq!(lines_of_row(8, 8), [0, 64]);
    }

    #[test]
    fn cache_lines_of_a_k100_row_include_the_last_elements_line() {
        // 800 bytes = 12.5 lines: 13 lines from an offset of up to 32
        // bytes, 14 beyond — stepping 64 bytes from the *start* of the row
        // would stop one line short there.
        for (offset, expect) in [(0, 13), (8, 13), (32, 13), (56, 14)] {
            let lines = lines_of_row(offset, 100);
            assert_eq!(lines.len(), expect, "offset {offset}");
            assert_eq!(lines[0], 0);
            assert!(lines.windows(2).all(|w| w[1] == w[0] + CACHE_LINE));
            let last_byte = offset + 100 * size_of::<f64>() - 1;
            assert_eq!(*lines.last().unwrap(), last_byte & !(CACHE_LINE - 1));
        }
    }

    #[test]
    fn prefetch_distance_is_constant_in_bytes_and_at_least_one_row() {
        assert_eq!(prefetch_rows_ahead(8) * 8 * 8, PREFETCH_BYTES_AHEAD);
        assert_eq!(prefetch_rows_ahead(32) * 32 * 8, PREFETCH_BYTES_AHEAD);
        assert_eq!(prefetch_rows_ahead(100), PREFETCH_BYTES_AHEAD / 800);
        // Rows longer than the distance still look one row ahead, and an
        // empty row does not divide by zero.
        assert_eq!(prefetch_rows_ahead(PREFETCH_BYTES_AHEAD), 1);
        assert!(prefetch_rows_ahead(0) >= 1);
    }

    #[test]
    fn prefetch_row_changes_nothing() {
        let rows: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        let before = rows.clone();
        for start in 0..8 {
            prefetch_row(&rows[start..start + 100]);
            prefetch_row(&rows[start..start + 1]);
            prefetch_row(&rows[start..start]);
        }
        prefetch_row(&rows[200..]);
        assert_eq!(rows, before);
    }
}
