//! Metric pruning rules for precise range search (paper Alg. 3 and §4.1).
//!
//! All three rules are consequences of the triangle inequality and are
//! therefore *safe*: they never discard a true result. The property tests in
//! `tests/` verify this against brute force on random data.
//!
//! 1. **Double-pivot (hyperplane) constraint** — an object assigned to pivot
//!    `p_i` at some level satisfies `d(o, p_i) ≤ d(o, p_j)` for every pivot
//!    `p_j` still available at that level. If
//!    `d(q, p_i) > min_j d(q, p_j) + 2r`, the query ball cannot reach the
//!    cell.
//! 2. **Range-pivot constraint** — a leaf stores `[r_min, r_max]` of
//!    `d(o, p_{i_k})` per prefix level; the ball misses the leaf if
//!    `d(q, p_{i_k}) − r > r_max` or `d(q, p_{i_k}) + r < r_min`.
//! 3. **Object pivot filtering** (Alg. 3 lines 5–7) — with stored distance
//!    vectors, `max_i |d(q,p_i) − d(o,p_i)|` lower-bounds `d(q,o)`; objects
//!    whose bound exceeds `r` are dropped without a distance computation.

/// Slack absorbing the `f32` quantization of *stored* distances so rules
/// comparing against them stay conservative. Stored values carry relative
/// error ≤ 2⁻²⁴ ≈ 6e-8; the term `1e-6·|x|` over-covers it 16×, and the
/// absolute `1e-4` floor handles tiny magnitudes. Query-side distances are
/// full `f64` and need no slack.
#[inline]
fn f32_slack(x: f64) -> f64 {
    1e-4 + 1e-6 * x.abs()
}

/// Double-pivot constraint: can a cell keyed by `pivot` (at a level where
/// `available_min` = min distance from the query to any pivot still
/// available at that level, including `pivot` itself) intersect the ball
/// `B(q, r)`? Returns `false` when the cell is safely prunable.
///
/// Both inputs are query-side `f64` values, but the *cell assignment* of
/// stored objects compared `f32`-quantized distances: an object whose true
/// closest pivot loses a near-tie after rounding sits in the "wrong" cell
/// by up to the quantization error, so the rule needs the same slack —
/// without it a boundary query (e.g. radius 0 at an indexed point whose
/// two nearest pivots almost tie) prunes the cell holding its answer.
#[inline]
pub fn hyperplane_may_intersect(d_q_pivot: f64, available_min: f64, radius: f64) -> bool {
    d_q_pivot <= available_min + 2.0 * radius + f32_slack(d_q_pivot.max(available_min))
}

/// Range-pivot constraint over a leaf's stored per-level bounds: `bounds`
/// are the `(r_min, r_max)` pairs of the leaf's `prefix` pivots, whose
/// query–pivot distances are read from `query_distances`. Returns `false`
/// when prunable.
///
/// Bounds were folded from `f32`-quantized stored distances, so the
/// comparison is padded by a small `f32`-aware slack — without it, a query at an exact
/// boundary radius (e.g. the precise-k-NN completion radius `ρ_k`) can
/// prune the leaf holding the true neighbor.
#[inline]
pub fn range_pivot_may_intersect(
    prefix: &[u16],
    query_distances: &[f64],
    bounds: &[(f64, f64)],
    radius: f64,
) -> bool {
    for (&pivot, (lo, hi)) in prefix.iter().zip(bounds) {
        let Some(d) = query_distances.get(usize::from(pivot)) else {
            continue;
        };
        if d - radius > *hi + f32_slack(*hi) || d + radius < *lo - f32_slack(*lo) {
            return false;
        }
    }
    true
}

/// A stored object–pivot distance as the filters read it: an `f32`, or the
/// four little-endian bytes of one inside an encoded record — so a scan
/// can bound a record straight from its routing bytes, without
/// materialising a `Vec<f32>` first.
pub trait StoredDistance: Copy {
    /// The stored value, widened (exactly) to `f64`.
    fn widen(self) -> f64;
}

impl StoredDistance for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        f64::from(self)
    }
}

impl StoredDistance for [u8; 4] {
    #[inline(always)]
    fn widen(self) -> f64 {
        f64::from(f32::from_le_bytes(self))
    }
}

/// Independent accumulators per reduction (see [`max_lanes`]).
const LANES: usize = 8;

/// `max(0, max_i term(q_i, o_i))` over the first `min(len)` coordinates,
/// as [`LANES`] independent running maxima over `chunks_exact(LANES)`
/// joined at the end. A serial running maximum is one dependent
/// compare-select per coordinate; the lanes overlap and vectorise. `max`
/// is order-free, so the value is bit-identical to the serial loop's
/// (a NaN term is skipped by either, and no term is `-0.0`).
#[inline(always)]
fn max_lanes<O: StoredDistance>(
    query_ds: &[f64],
    object_ds: &[O],
    term: impl Fn(f64, f64) -> f64,
) -> f64 {
    let n = query_ds.len().min(object_ds.len());
    let (Some(qs), Some(os)) = (query_ds.get(..n), object_ds.get(..n)) else {
        return 0.0;
    };
    let keep_max = |m: f64, t: f64| if t > m { t } else { m };
    let mut acc = [0.0f64; LANES];
    let mut qc = qs.chunks_exact(LANES);
    let mut oc = os.chunks_exact(LANES);
    for (q, o) in (&mut qc).zip(&mut oc) {
        for ((a, q), o) in acc.iter_mut().zip(q).zip(o) {
            *a = keep_max(*a, term(*q, o.widen()));
        }
    }
    let mut lb = 0.0f64;
    for (q, o) in qc.remainder().iter().zip(oc.remainder()) {
        lb = keep_max(lb, term(*q, o.widen()));
    }
    acc.iter().fold(lb, |m, a| keep_max(m, *a))
}

/// Object pivot filtering: lower bound on `d(q, o)` from the shared pivot
/// distances. Only the first `min(len)` coordinates participate.
#[inline]
pub fn pivot_filter_lower_bound<O: StoredDistance>(query_ds: &[f64], object_ds: &[O]) -> f64 {
    max_lanes(query_ds, object_ds, |q, o| (q - o).abs())
}

/// Wire-safe variant of [`pivot_filter_lower_bound`]: each coordinate's
/// contribution is reduced by the `f32` quantization slack of the *stored*
/// distance, so the result is guaranteed `≤ d(q, o)` even though the stored
/// `d(o, p_i)` were rounded. This is the bound the server may ship to
/// clients that stop refining once the bound alone proves an object cannot
/// enter the result (lazy decrypt-on-demand refinement): an unsafe bound
/// there would not merely cost recall, it would *change answers*.
#[inline]
pub fn pivot_filter_safe_lower_bound<O: StoredDistance>(query_ds: &[f64], object_ds: &[O]) -> f64 {
    max_lanes(query_ds, object_ds, |q, o| {
        (q - o).abs() - f32_slack(q.abs().max(o.abs()))
    })
}

/// Convenience: should the object be kept (lower bound within radius)?
///
/// The slack absorbs the f32 quantization of *stored* distances and must
/// therefore scale with the magnitude of the coordinates being compared —
/// not with `lb` or `radius`, which can both be ~0 (a zero-radius query at
/// an indexed point) while the stored values, and hence their rounding
/// error, are large.
///
/// This is an early-exit test, not a reduction: an object that is going to
/// be filtered usually fails within the first few pivots, so the first
/// `LANES` coordinates are tested one by one; one that survives them is
/// usually kept, so the rest is tested `LANES` at a time with the exit
/// between chunks. The answer is the serial loop's either way.
#[inline]
pub fn pivot_filter_keep<O: StoredDistance>(
    query_ds: &[f64],
    object_ds: &[O],
    radius: f64,
) -> bool {
    let n = query_ds.len().min(object_ds.len());
    let (Some(qs), Some(os)) = (query_ds.get(..n), object_ds.get(..n)) else {
        return true;
    };
    let beyond = |q: f64, o: f64| (q - o).abs() > radius + f32_slack(q.abs().max(o.abs()));
    let (q_head, q_rest) = qs.split_at(LANES.min(n));
    let (o_head, o_rest) = os.split_at(LANES.min(n));
    if q_head
        .iter()
        .zip(o_head)
        .any(|(q, o)| beyond(*q, o.widen()))
    {
        return false;
    }
    let mut qc = q_rest.chunks_exact(LANES);
    let mut oc = o_rest.chunks_exact(LANES);
    for (q, o) in (&mut qc).zip(&mut oc) {
        let mut any = false;
        for (q, o) in q.iter().zip(o) {
            any |= beyond(*q, o.widen());
        }
        if any {
            return false;
        }
    }
    !qc.remainder()
        .iter()
        .zip(oc.remainder())
        .any(|(q, o)| beyond(*q, o.widen()))
}

/// The serial loops the lane reductions replaced, kept as the references
/// the bit-identity tests compare against.
#[cfg(test)]
mod reference {
    use super::f32_slack;

    pub(super) fn lower_bound(query_ds: &[f64], object_ds: &[f32]) -> f64 {
        let mut lb = 0.0f64;
        for (q, o) in query_ds.iter().zip(object_ds) {
            let diff = (q - *o as f64).abs();
            if diff > lb {
                lb = diff;
            }
        }
        lb
    }

    pub(super) fn safe_lower_bound(query_ds: &[f64], object_ds: &[f32]) -> f64 {
        let mut lb = 0.0f64;
        for (q, o) in query_ds.iter().zip(object_ds) {
            let o = *o as f64;
            let diff = (q - o).abs() - f32_slack(q.abs().max(o.abs()));
            if diff > lb {
                lb = diff;
            }
        }
        lb
    }

    pub(super) fn keep(query_ds: &[f64], object_ds: &[f32], radius: f64) -> bool {
        for (q, o) in query_ds.iter().zip(object_ds) {
            let o = *o as f64;
            if (q - o).abs() > radius + f32_slack(q.abs().max(o.abs())) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn le_bytes(ds: &[f32]) -> Vec<[u8; 4]> {
        ds.iter().map(|d| d.to_le_bytes()).collect()
    }

    /// All three filters, both stored representations, against the serial
    /// references — bit for bit.
    fn assert_matches_reference(q: &[f64], o: &[f32], radius: f64) {
        let bytes = le_bytes(o);
        let lb = reference::lower_bound(q, o).to_bits();
        assert_eq!(pivot_filter_lower_bound(q, o).to_bits(), lb);
        assert_eq!(pivot_filter_lower_bound(q, &bytes).to_bits(), lb);
        let safe = reference::safe_lower_bound(q, o).to_bits();
        assert_eq!(pivot_filter_safe_lower_bound(q, o).to_bits(), safe);
        assert_eq!(pivot_filter_safe_lower_bound(q, &bytes).to_bits(), safe);
        let keep = reference::keep(q, o, radius);
        assert_eq!(pivot_filter_keep(q, o, radius), keep);
        assert_eq!(pivot_filter_keep(q, &bytes, radius), keep);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every length (all lane remainders), either side shorter
        /// (truncation to the common prefix), stored values both near the
        /// query's and far from them, radii from zero up.
        #[test]
        fn lanes_and_bytes_are_bit_identical_to_the_serial_filters(
            q in proptest::collection::vec(0.0f64..500.0, 120),
            noise in proptest::collection::vec(-1.0f64..1.0, 120),
            q_len in 0usize..121,
            o_len in 0usize..121,
            spread in prop_oneof![Just(0.0f64), Just(1e-5f64), Just(3.0f64), Just(400.0f64)],
            radius in prop_oneof![Just(0.0f64), Just(2.0f64), Just(250.0f64)],
        ) {
            let o: Vec<f32> = q
                .iter()
                .zip(&noise)
                .take(o_len)
                .map(|(q, n)| (q + n * spread) as f32)
                .collect();
            assert_matches_reference(&q[..q_len], &o, radius);
        }
    }

    /// Zero radius at an indexed point: the query's distances are the
    /// `f64` values whose `f32` roundings were stored. Kept, bound 0 — from
    /// floats and from bytes alike.
    #[test]
    fn zero_radius_at_an_indexed_point_from_bytes() {
        let q: Vec<f64> = (0..100).map(|i| 1234.5678 * (i as f64 + 0.37)).collect();
        let o: Vec<f32> = q.iter().map(|&d| d as f32).collect();
        assert_matches_reference(&q, &o, 0.0);
        let bytes = le_bytes(&o);
        assert!(pivot_filter_keep(&q, &bytes, 0.0));
        assert_eq!(pivot_filter_safe_lower_bound(&q, &bytes), 0.0);
    }

    /// A non-finite query coordinate (a hostile request) is skipped by the
    /// lanes exactly as the serial loop skipped it.
    #[test]
    fn nan_query_coordinates_are_skipped_like_the_serial_loop() {
        let mut q: Vec<f64> = (0..40).map(f64::from).collect();
        q[3] = f64::NAN;
        q[17] = f64::NAN;
        let o: Vec<f32> = (0..40).map(|i| (i as f32) * 1.5).collect();
        assert_matches_reference(&q, &o, 5.0);
    }

    #[test]
    fn hyperplane_prunes_far_cells() {
        // q is 1.0 from the best pivot; a cell keyed by a pivot 5.0 away
        // cannot contain anything within r = 1.0.
        assert!(!hyperplane_may_intersect(5.0, 1.0, 1.0));
        assert!(hyperplane_may_intersect(2.9, 1.0, 1.0));
        // boundary: d = min + 2r exactly → may intersect
        assert!(hyperplane_may_intersect(3.0, 1.0, 1.0));
    }

    #[test]
    fn range_pivot_prunes_annulus_misses() {
        let bounds = [(2.0, 4.0)];
        let may = |d: f64, r| range_pivot_may_intersect(&[1], &[9.0, d], &bounds, r);
        assert!(!may(6.0, 1.0)); // 5 > 4
        assert!(!may(0.5, 1.0)); // 1.5 < 2
        assert!(may(4.5, 1.0));
        assert!(may(3.0, 0.0));
    }

    #[test]
    fn range_pivot_multi_level_any_miss_prunes() {
        let bounds = [(0.0, 10.0), (2.0, 3.0)];
        // prefix (2, 0): level 1 reads pivot 2, level 2 pivot 0
        let may = |ds: &[f64]| range_pivot_may_intersect(&[2, 0], ds, &bounds, 0.1);
        assert!(may(&[2.5, 0.0, 5.0]));
        assert!(!may(&[9.0, 0.0, 5.0]));
    }

    #[test]
    fn pivot_filter_bound_examples() {
        let q = [1.0, 5.0, 3.0];
        let o = [2.0f32, 5.0, 0.5];
        assert!((pivot_filter_lower_bound(&q, &o) - 2.5).abs() < 1e-9);
        assert!(pivot_filter_keep(&q, &o, 2.5));
        assert!(!pivot_filter_keep(&q, &o, 2.0));
    }

    #[test]
    fn pivot_filter_handles_length_mismatch() {
        // Query knows all pivots; object stored fewer — zip stops early.
        let q = [1.0, 2.0, 3.0];
        let o = [1.0f32];
        assert_eq!(pivot_filter_lower_bound(&q, &o), 0.0);
    }

    #[test]
    fn zero_radius_keeps_exact_match() {
        let q = [4.0, 2.0];
        let o = [4.0f32, 2.0];
        assert!(pivot_filter_keep(&q, &o, 0.0));
    }

    /// The wire-safe bound must stay below the *true* (pre-quantization)
    /// pivot difference, which itself lower-bounds `d(q, o)` — across
    /// magnitudes where `f32` rounding error is both absolute- and
    /// relative-dominated.
    #[test]
    fn safe_lower_bound_is_safe_under_f32_quantization() {
        let mut worst = 0.0f64;
        for i in 0..10_000u64 {
            // deterministic pseudo-random magnitudes over 8 decades
            let x = (i as f64 * 0.7391 + 0.13).fract();
            let scale = 10f64.powi((i % 8) as i32 - 2);
            let true_obj = (1.0 + x) * scale;
            let q = true_obj + (x - 0.5) * scale; // query distance nearby
            let stored = true_obj as f32; // what the server kept
            let safe = pivot_filter_safe_lower_bound(&[q], &[stored]);
            let true_diff = (q - true_obj).abs();
            assert!(
                safe <= true_diff + 1e-12,
                "unsafe bound {safe} > true diff {true_diff} at magnitude {scale}"
            );
            worst = worst.max(safe - true_diff);
        }
        assert!(worst <= 0.0, "bound exceeded a true difference by {worst}");
        // and it is not uselessly loose: far objects keep a positive bound
        assert!(pivot_filter_safe_lower_bound(&[10.0], &[2.0f32]) > 7.9);
    }

    /// The safe bound is the raw bound minus slack — never larger, never
    /// negative.
    #[test]
    fn safe_lower_bound_below_raw_bound() {
        for (q, o) in [
            (vec![1.0, 5.0, 3.0], vec![2.0f32, 5.0, 0.5]),
            (vec![0.0, 0.0], vec![0.0f32, 0.0]),
            (vec![1e6, 2.0], vec![1e6f32, 2.5]),
        ] {
            let raw = pivot_filter_lower_bound(&q, &o);
            let safe = pivot_filter_safe_lower_bound(&q, &o);
            assert!(safe <= raw, "safe {safe} > raw {raw}");
            assert!(safe >= 0.0);
        }
    }
}
