//! The vector kernels over plain `f64` slices, in two forms, and the
//! prefetch hint for the loops that gather factor rows by index.
//!
//! Every SGD-family solver in this workspace spends essentially all of its
//! arithmetic in the rank-1 update of Eqs. (9)–(10) of the paper: one inner
//! product and two scaled row updates over `k`-dimensional factor rows.
//! [`dot`] and [`sgd_pair_update`] are that arithmetic and its *definition*:
//! four partial sums `s0..s3` over `chunks_exact(4)`, combined as
//! `(s0 + s1) + (s2 + s3)`, then a scalar tail.  The association is fixed
//! because every bit-identity anchor of the workspace (p=1 ≡ serial, the
//! golden factor hashes, full-probe IVF ≡ exact scan) goes through it.
//!
//! # Two forms, one association
//!
//! Built for baseline `x86_64` those two functions compile to 128-bit SSE2,
//! two lanes at a time, on CPUs that have four.  So each kernel has a second
//! *form*, written with AVX2 intrinsics, that computes the same IEEE
//! operations in the same order and therefore the same bits: one `__m256d`
//! accumulator *is* `s0..s3`, the reduction extracts the lanes and adds them
//! as `(s0 + s1) + (s2 + s3)`, the tail is the same scalar loop.  Two wider
//! things the hardware offers are deliberately not used.  **No FMA**: a
//! fused multiply-add rounds once where `a * b + c` rounds twice, so it
//! changes bits.  **No AVX-512**: eight lanes are eight partial sums, a
//! different association, and every golden hash would have to be re-pinned.
//!
//! [`Kernels`] is the choice of form: [`Portable`] calls the functions
//! above, [`Avx2`] the intrinsic ones.  `Avx2` is a zero-sized *proof
//! token* whose only constructor is [`Avx2::detect`], so the `unsafe` of
//! every call into code compiled with AVX2 enabled, here and in the loops
//! that use it, rests on one fact: an `Avx2` value exists.
//!
//! A hot loop does not choose per call.  It is written once as an
//! `#[inline(always)]` body generic over `K: Kernels`, and its public entry
//! point detects once, then runs the body instantiated with the token inside
//! a small wrapper that enables the feature (where the wide kernel inlines
//! into the loop) or with `Portable`: one branch per hop, query or build —
//! `nomad_core::hop::sweep`, `nomad_serve`'s exact scan, IVF probe and
//! k-means assignment.  Everything else (RMSE evaluation, `predict`, ALS,
//! the baselines) calls the portable functions; the bits are the same
//! either way.  Targets other than `x86_64` have only the portable form.
//!
//! # Gathered rows
//!
//! With both rows in L1 that arithmetic is the whole cost.  Over a factor
//! matrix larger than the caches it is not: a loop that visits rows in a
//! data-dependent order (the NOMAD sweep over `w_i`, the IVF probe over
//! `h_j`) takes a demand miss per row unless it says early which row comes
//! next.  [`prefetch_row`] is that hint, and [`prefetch_rows_ahead`] is how
//! far ahead to give it.

/// Euclidean inner product `⟨x, y⟩`.
///
/// Unrolled into four independent accumulators: a single-accumulator loop
/// is a serial chain of floating-point adds (4–5 cycles each), which the
/// autovectorizer must preserve because FP addition is not associative.
/// Four independent partial sums break the chain, so the compiler emits
/// SIMD adds and the loop runs at load bandwidth instead of add latency.
/// The partial sums are combined as `(s0 + s1) + (s2 + s3)` — a fixed
/// association, so results stay deterministic (every engine uses this
/// arithmetic, in this form or the [`Avx2`] one, preserving the workspace's
/// bit-identity invariants).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // `chunks_exact` (rather than manual indexing) is what lets LLVM elide
    // every bounds check: the chunk length is a compile-time constant, so
    // the four lanes compile to packed loads/multiplies/adds.
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut s3 = 0.0;
    for (a, b) in (&mut cx).zip(&mut cy) {
        s0 += a[0] * b[0];
        s1 += a[1] * b[1];
        s2 += a[2] * b[2];
        s3 += a[3] * b[3];
    }
    dot_tail((s0 + s1) + (s2 + s3), cx.remainder(), cy.remainder())
}

/// The last `len % 4` terms of a dot product, added one at a time to the
/// reduced partial sums — scalar in both forms.
#[inline(always)]
fn dot_tail(mut acc: f64, x: &[f64], y: &[f64]) -> f64 {
    for (a, b) in x.iter().zip(y) {
        acc += *a * *b;
    }
    acc
}

/// `y ← y + alpha * x` (the classic `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

/// Squared Euclidean norm `‖x‖₂²`; avoids the square root when the caller
/// only needs the regularizer value.
#[inline]
pub fn nrm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
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
pub fn sgd_pair_update(w: &mut [f64], h: &mut [f64], rating: f64, step: f64, lambda: f64) -> f64 {
    debug_assert_eq!(w.len(), h.len());
    let e = dot(w, h) - rating;
    let mut cw = w.chunks_exact_mut(4);
    let mut ch = h.chunks_exact_mut(4);
    for (a, b) in (&mut cw).zip(&mut ch) {
        sgd_lane(&mut a[0], &mut b[0], e, step, lambda);
        sgd_lane(&mut a[1], &mut b[1], e, step, lambda);
        sgd_lane(&mut a[2], &mut b[2], e, step, lambda);
        sgd_lane(&mut a[3], &mut b[3], e, step, lambda);
    }
    sgd_tail(cw.into_remainder(), ch.into_remainder(), e, step, lambda);
    e
}

/// One coordinate of the SGD step, both rows updated from their old values.
#[inline(always)]
fn sgd_lane(w: &mut f64, h: &mut f64, e: f64, step: f64, lambda: f64) {
    let wl = *w;
    let hl = *h;
    *w = wl - step * (e * hl + lambda * wl);
    *h = hl - step * (e * wl + lambda * hl);
}

/// The last `len % 4` coordinates of the SGD step — scalar in both forms.
#[inline(always)]
fn sgd_tail(w: &mut [f64], h: &mut [f64], e: f64, step: f64, lambda: f64) {
    for (a, b) in w.iter_mut().zip(h) {
        sgd_lane(a, b, e, step, lambda);
    }
}

/// One instruction-set form of the two hot kernels.  Every implementation
/// returns the bits [`dot`] and [`sgd_pair_update`] return; a loop generic
/// over `K: Kernels` is therefore one algorithm, whichever form it runs in.
pub trait Kernels: Copy {
    /// [`dot`] in this form.
    fn dot(self, x: &[f64], y: &[f64]) -> f64;

    /// [`sgd_pair_update`] in this form.
    fn sgd_pair_update(
        self,
        w: &mut [f64],
        h: &mut [f64],
        rating: f64,
        step: f64,
        lambda: f64,
    ) -> f64;
}

/// The form every target has: [`dot`] and [`sgd_pair_update`] as written.
#[derive(Debug, Clone, Copy)]
pub struct Portable;

impl Kernels for Portable {
    #[inline(always)]
    fn dot(self, x: &[f64], y: &[f64]) -> f64 {
        dot(x, y)
    }

    #[inline(always)]
    fn sgd_pair_update(
        self,
        w: &mut [f64],
        h: &mut [f64],
        rating: f64,
        step: f64,
        lambda: f64,
    ) -> f64 {
        sgd_pair_update(w, h, rating, step, lambda)
    }
}

/// Proof that this CPU executes AVX2, and with it the 256-bit form of the
/// kernels.  Zero-sized; [`Avx2::detect`] is the only way to get one.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// The token, if the CPU this runs on has AVX2.  The standard library
    /// caches the `cpuid` answer, so this is one relaxed load and a branch —
    /// cheap enough to ask once per hop or per query, which is where the
    /// callers ask it.
    #[inline]
    pub fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Self(()))
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernels for Avx2 {
    #[inline(always)]
    fn dot(self, x: &[f64], y: &[f64]) -> f64 {
        // SAFETY: `self` exists, so `Avx2::detect` saw the feature.
        unsafe { dot_avx2(x, y) }
    }

    #[inline(always)]
    fn sgd_pair_update(
        self,
        w: &mut [f64],
        h: &mut [f64],
        rating: f64,
        step: f64,
        lambda: f64,
    ) -> f64 {
        // SAFETY: `self` exists, so `Avx2::detect` saw the feature.
        unsafe { sgd_pair_update_avx2(w, h, rating, step, lambda) }
    }
}

/// [`dot`] four lanes at a time: the accumulator's lanes are `s0..s3`.
///
/// # Safety
/// The CPU must support AVX2 — hold an [`Avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    let mut s = _mm256_setzero_pd();
    for (a, b) in (&mut cx).zip(&mut cy) {
        // SAFETY: `a` and `b` are four `f64`s each, and an unaligned load
        // asks nothing of the address.
        let (a, b) = unsafe { (_mm256_loadu_pd(a.as_ptr()), _mm256_loadu_pd(b.as_ptr())) };
        // A multiply, then an add: two roundings, as in `s0 += a[0] * b[0]`.
        s = _mm256_add_pd(s, _mm256_mul_pd(a, b));
    }
    let mut lanes = [0.0; 4];
    // SAFETY: `lanes` is four `f64`s, the width of the store.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), s) };
    let [s0, s1, s2, s3] = lanes;
    dot_tail((s0 + s1) + (s2 + s3), cx.remainder(), cy.remainder())
}

/// [`sgd_pair_update`] four lanes at a time; per coordinate the same five
/// multiplies, adds and subtracts in the same order as the scalar lane.
///
/// # Safety
/// The CPU must support AVX2 — hold an [`Avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sgd_pair_update_avx2(
    w: &mut [f64],
    h: &mut [f64],
    rating: f64,
    step: f64,
    lambda: f64,
) -> f64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(w.len(), h.len());
    // SAFETY: the caller's guarantee is this function's own.
    let e = unsafe { dot_avx2(w, h) } - rating;
    let ve = _mm256_set1_pd(e);
    let vstep = _mm256_set1_pd(step);
    let vlambda = _mm256_set1_pd(lambda);
    let mut cw = w.chunks_exact_mut(4);
    let mut ch = h.chunks_exact_mut(4);
    for (a, b) in (&mut cw).zip(&mut ch) {
        // SAFETY: `a` and `b` are four `f64`s each, distinct slices, and
        // unaligned loads and stores ask nothing of the address.
        unsafe {
            let (wl, hl) = (_mm256_loadu_pd(a.as_ptr()), _mm256_loadu_pd(b.as_ptr()));
            let gw = _mm256_add_pd(_mm256_mul_pd(ve, hl), _mm256_mul_pd(vlambda, wl));
            let gh = _mm256_add_pd(_mm256_mul_pd(ve, wl), _mm256_mul_pd(vlambda, hl));
            _mm256_storeu_pd(a.as_mut_ptr(), _mm256_sub_pd(wl, _mm256_mul_pd(vstep, gw)));
            _mm256_storeu_pd(b.as_mut_ptr(), _mm256_sub_pd(hl, _mm256_mul_pd(vstep, gh)));
        }
    }
    sgd_tail(cw.into_remainder(), ch.into_remainder(), e, step, lambda);
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
    fn nrm2_sq_is_the_dot_with_itself() {
        assert_eq!(nrm2_sq(&[3.0, 4.0]), 25.0);
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

    /// The same bits — or both NaN, whose sign and payload follow operand
    /// order, which neither form promises.
    #[cfg(target_arch = "x86_64")]
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `dot` and one `sgd_pair_update` on `(x, y)` through both forms.
    #[cfg(target_arch = "x86_64")]
    fn check_forms_agree(avx2: Avx2, x: &[f64], y: &[f64], rating: f64) {
        let n = x.len();
        let (wide, portable) = (avx2.dot(x, y), Portable.dot(x, y));
        assert!(
            same_bits(wide, portable),
            "dot, n={n}: {wide:e} vs {portable:e}"
        );
        let (mut w, mut h) = (x.to_vec(), y.to_vec());
        let (mut ref_w, mut ref_h) = (x.to_vec(), y.to_vec());
        let e = avx2.sgd_pair_update(&mut w, &mut h, rating, 0.01, 0.05);
        let ref_e = Portable.sgd_pair_update(&mut ref_w, &mut ref_h, rating, 0.01, 0.05);
        assert!(same_bits(e, ref_e), "e, n={n}: {e:e} vs {ref_e:e}");
        for l in 0..n {
            assert!(same_bits(w[l], ref_w[l]), "w[{l}], n={n}");
            assert!(same_bits(h[l], ref_h[l]), "h[{l}], n={n}");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_and_portable_forms_return_the_same_bits() {
        let Some(avx2) = Avx2::detect() else {
            println!("NOTICE: this CPU has no AVX2 — only the portable form can be tested here");
            return;
        };
        // Values where a different rounding, order or flush-to-zero mode
        // would show: signed zeros, subnormals, infinities, near-overflow.
        let special = [
            0.0,
            -0.0,
            5e-324,
            -f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX / 2.0,
            f64::NAN,
        ];
        let mut rng = crate::SmallRng64::new(0xA5A5);
        // Every length up to 130: all-tail rows, every `len % 4`, and more
        // chunks than k=100 has.
        for n in 0..=130usize {
            let row = |rng: &mut crate::SmallRng64| -> Vec<f64> {
                (0..n).map(|_| rng.next_range(-2.0, 2.0)).collect()
            };
            for _ in 0..20 {
                let (x, y) = (row(&mut rng), row(&mut rng));
                check_forms_agree(avx2, &x, &y, rng.next_range(0.5, 5.0));
            }
            // One special value in an otherwise ordinary row, in either
            // operand, so most of these stay finite and compare exactly ...
            for &v in &special {
                if n == 0 {
                    break; // nowhere to put it
                }
                let (mut x, y) = (row(&mut rng), row(&mut rng));
                x[rng.next_below(n)] = v;
                check_forms_agree(avx2, &x, &y, 3.0);
                check_forms_agree(avx2, &y, &x, 3.0);
            }
            // ... and rows where a quarter of the coordinates are special.
            let (mut x, mut y) = (row(&mut rng), row(&mut rng));
            for v in x.iter_mut().chain(&mut y) {
                if rng.next_below(4) == 0 {
                    *v = special[rng.next_below(special.len())];
                }
            }
            check_forms_agree(avx2, &x, &y, 3.0);
        }
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
