//! The one Lp block kernel behind every vector metric of the crate.
//!
//! A distance over a component range is a fold of per-component terms
//! (`|d|`, `d²`, `|d|^p`) under `+` or `max`. Written as a single serial
//! accumulator that fold is bound by floating-point *latency* — each add
//! waits for the previous one (282 dependent adds for a CoPhIR object).
//! [`fold_lanes`] keeps [`LANES`] independent `f64` accumulators over
//! `chunks_exact(LANES)` instead, so the adds overlap and the loop
//! auto-vectorises on the baseline target (no `unsafe`, no target
//! features, no indexing), then joins the lanes in one fixed tree and
//! folds the `< LANES` remainder in last.
//!
//! The kernel is generic over the element types, which is what makes the
//! per-pair entry (`f32` object × `f32` pivot) and the table entry
//! (object widened to `f64` once × `f64` table row, see
//! [`crate::PivotTable`]) *the same code*: `f32 → f64` widening is exact,
//! the lane assignment and the join order depend only on the length, so
//! both entries return bit-identical values.
//!
//! Accumulation stays in `f64`: MPEG-7 descriptors and `cophir_like` data
//! are small integers stored as `f32`, so every term and every partial sum
//! is an integer far below 2⁵³ and the reassociated sum is *exact* — equal
//! bit for bit to the serial loop it replaced. On arbitrary finite `f32`
//! input the two differ by ordinary reassociation rounding (≤ 1e-12
//! relative; pinned by the tests below against the serial references).

/// Independent accumulators per fold.
const LANES: usize = 8;

/// Folds `term(x − y)` over two equally long component ranges under
/// `join`, starting every lane at `0.0` (the identity of both `+` and of
/// `max` over non-negative terms).
#[inline(always)]
fn fold_lanes<A, B>(
    xs: &[A],
    ys: &[B],
    term: impl Fn(f64) -> f64,
    join: impl Fn(f64, f64) -> f64,
) -> f64
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    debug_assert_eq!(xs.len(), ys.len());
    let mut acc = [0.0f64; LANES];
    let mut xc = xs.chunks_exact(LANES);
    let mut yc = ys.chunks_exact(LANES);
    for (x, y) in (&mut xc).zip(&mut yc) {
        for ((a, x), y) in acc.iter_mut().zip(x).zip(y) {
            *a = join(*a, term((*x).into() - (*y).into()));
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in xc.remainder().iter().zip(yc.remainder()) {
        tail = join(tail, term((*x).into() - (*y).into()));
    }
    let [a0, a1, a2, a3, a4, a5, a6, a7] = acc;
    let even = join(join(a0, a4), join(a2, a6));
    let odd = join(join(a1, a5), join(a3, a7));
    join(join(even, odd), tail)
}

/// `Σ |x_i − y_i|`.
#[inline]
pub(crate) fn sum_abs<A, B>(xs: &[A], ys: &[B]) -> f64
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    fold_lanes(xs, ys, f64::abs, |a, b| a + b)
}

/// `Σ (x_i − y_i)²`.
#[inline]
pub(crate) fn sum_sq<A, B>(xs: &[A], ys: &[B]) -> f64
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    fold_lanes(xs, ys, |d| d * d, |a, b| a + b)
}

/// `max |x_i − y_i|`.
#[inline]
pub(crate) fn max_abs<A, B>(xs: &[A], ys: &[B]) -> f64
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    fold_lanes(xs, ys, f64::abs, f64::max)
}

/// Minkowski distance of order `p` over one component range:
/// `(Σ |x_i − y_i|^p)^(1/p)`, with the `p = 1` and `p = 2` members on
/// their cheap terms.
#[inline]
pub(crate) fn lp<A, B>(xs: &[A], ys: &[B], p: f64) -> f64
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    if p == 1.0 {
        sum_abs(xs, ys)
    } else if p == 2.0 {
        sum_sq(xs, ys).sqrt()
    } else {
        fold_lanes(xs, ys, |d| d.abs().powf(p), |a, b| a + b).powf(1.0 / p)
    }
}

/// The serial loops the lane kernel replaced, kept as the references the
/// exactness contract is tested against.
#[cfg(test)]
pub(crate) mod reference {
    pub(crate) fn sum_abs(xs: &[f32], ys: &[f32]) -> f64 {
        let mut sum = 0.0f64;
        for (x, y) in xs.iter().zip(ys) {
            sum += (*x as f64 - *y as f64).abs();
        }
        sum
    }

    pub(crate) fn sum_sq(xs: &[f32], ys: &[f32]) -> f64 {
        let mut sum = 0.0f64;
        for (x, y) in xs.iter().zip(ys) {
            let d = *x as f64 - *y as f64;
            sum += d * d;
        }
        sum
    }

    pub(crate) fn max_abs(xs: &[f32], ys: &[f32]) -> f64 {
        let mut m = 0.0f64;
        for (x, y) in xs.iter().zip(ys) {
            m = m.max((*x as f64 - *y as f64).abs());
        }
        m
    }

    pub(crate) fn lp(xs: &[f32], ys: &[f32], p: f64) -> f64 {
        if p == 1.0 {
            sum_abs(xs, ys)
        } else if p == 2.0 {
            sum_sq(xs, ys).sqrt()
        } else {
            let mut sum = 0.0f64;
            for (x, y) in xs.iter().zip(ys) {
                sum += (*x as f64 - *y as f64).abs().powf(p);
            }
            sum.powf(1.0 / p)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Any finite `f32` (non-finite bit patterns fold onto small integers).
    pub(crate) fn finite_f32() -> impl Strategy<Value = f32> {
        any::<u32>().prop_map(|bits| {
            let x = f32::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                (bits % 1024) as f32
            }
        })
    }

    fn close(new: f64, old: f64) -> bool {
        (new - old).abs() <= 1e-12 * old.abs()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Integer-grid components: every term and partial sum is an exact
        /// integer, so the lanes equal the serial loop bit for bit.
        #[test]
        fn integer_grid_is_bit_identical(
            a in proptest::collection::vec(0u32..256, 300),
            b in proptest::collection::vec(0u32..256, 300),
            len in 0usize..301,
            p in prop_oneof![Just(1.0f64), Just(2.0f64)],
        ) {
            let a: Vec<f32> = a.iter().take(len).map(|&x| x as f32).collect();
            let b: Vec<f32> = b.iter().take(len).map(|&x| x as f32).collect();
            prop_assert_eq!(sum_abs(&a, &b).to_bits(), reference::sum_abs(&a, &b).to_bits());
            prop_assert_eq!(sum_sq(&a, &b).to_bits(), reference::sum_sq(&a, &b).to_bits());
            prop_assert_eq!(max_abs(&a, &b).to_bits(), reference::max_abs(&a, &b).to_bits());
            prop_assert_eq!(lp(&a, &b, p).to_bits(), reference::lp(&a, &b, p).to_bits());
        }

        /// Arbitrary finite components: reassociation rounding only. The
        /// maximum is order-free and stays bit-identical.
        #[test]
        fn finite_input_is_within_reassociation_rounding(
            a in proptest::collection::vec(finite_f32(), 300),
            b in proptest::collection::vec(finite_f32(), 300),
            len in 0usize..301,
            p in prop_oneof![Just(1.0f64), Just(2.0f64), Just(3.0f64), Just(1.5f64)],
        ) {
            let (a, b) = (&a[..len], &b[..len]);
            prop_assert!(close(sum_abs(a, b), reference::sum_abs(a, b)));
            prop_assert!(close(sum_sq(a, b), reference::sum_sq(a, b)));
            prop_assert_eq!(max_abs(a, b).to_bits(), reference::max_abs(a, b).to_bits());
            prop_assert!(close(lp(a, b, p), reference::lp(a, b, p)), "p {}", p);
        }
    }

    /// Deterministic integer-grid components in `0..=255` (what MPEG-7
    /// descriptors and `cophir_like` produce).
    fn grid(len: usize, salt: u64) -> Vec<f32> {
        (0..len as u64)
            .map(|i| ((i * 2_654_435_761 + salt * 40_503) % 256) as f32)
            .collect()
    }

    #[test]
    fn widened_operands_take_the_same_lanes() {
        for len in [0usize, 1, 7, 8, 9, 62, 64, 282] {
            let (a, b) = (grid(len, 3), grid(len, 4));
            let aw: Vec<f64> = a.iter().map(|&x| f64::from(x)).collect();
            let bw: Vec<f64> = b.iter().map(|&x| f64::from(x)).collect();
            for p in [1.0, 2.0, 3.0] {
                assert_eq!(lp(&a, &b, p).to_bits(), lp(&aw, &bw, p).to_bits());
            }
            assert_eq!(max_abs(&a, &b).to_bits(), max_abs(&aw, &bw).to_bits());
        }
    }

    #[test]
    fn empty_ranges_are_zero() {
        let none: [f32; 0] = [];
        assert_eq!(sum_abs(&none, &none), 0.0);
        assert_eq!(max_abs(&none, &none), 0.0);
        assert_eq!(lp(&none, &none, 3.0), 0.0);
    }
}
