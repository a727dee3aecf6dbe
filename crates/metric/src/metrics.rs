//! Distance functions (metrics) over [`Vector`]s.
//!
//! The paper treats the data space as a metric space `(D, d)` with `d`
//! satisfying non-negativity, identity, symmetry and the triangle inequality
//! (§1). The evaluation uses:
//!
//! * `L1` for the YEAST and HUMAN gene-expression matrices,
//! * a weighted **combination of Lp distances** over five MPEG-7 descriptor
//!   blocks for CoPhIR ([`CombinedMetric`]).
//!
//! Nothing in the index is specific to vectors: [`Metric`] is generic over
//! the object type, and the server only ever sees the distances or
//! permutations a metric produces.

use std::borrow::Borrow;

use crate::kernel;
use crate::table::{PivotTable, TableScratch};
use crate::vector::Vector;

/// A metric distance function over objects of type `T`.
///
/// Implementations must satisfy the metric postulates; the crate's property
/// tests (`tests/metric_postulates.rs`) check them on random inputs for every
/// shipped metric.
pub trait Metric<T: ?Sized>: Send + Sync {
    /// Distance between `a` and `b`. Must be finite and `>= 0`.
    fn distance(&self, a: &T, b: &T) -> f64;

    /// Distances from `o` to every pivot of `table`, in pivot order, left
    /// in `scratch` ([`TableScratch::distances`]) — the batch entry every
    /// insert and query set-up goes through.
    ///
    /// The provided body evaluates pair by pair through
    /// [`Metric::distance`], so an implementor that defines only
    /// `distance` (a counting or tracing wrapper, say) still observes
    /// every pair. The crate's Lp metrics override it with one pass over
    /// the table's contiguous rows — dimension check, dispatch and the
    /// object's `f32 → f64` widening paid once per object instead of once
    /// per pivot — through the same kernel as `distance`, so both entries
    /// return bit-identical values. Wrappers that override must forward
    /// it to keep the wrapped metric's pass.
    fn distances_to_table(&self, o: &T, table: &PivotTable, scratch: &mut TableScratch)
    where
        Vector: Borrow<T>,
    {
        let out = scratch.start();
        out.extend(table.pivots().iter().map(|p| self.distance(o, p.borrow())));
    }

    /// An upper bound on any distance this metric can produce over its
    /// intended domain, if one is known.
    ///
    /// The M-Index normalizes distances into `[0, 1)` when building scalar
    /// keys; callers fall back to an empirical maximum when `None`.
    fn max_distance(&self) -> Option<f64> {
        None
    }

    /// Short human-readable name used in experiment reports.
    fn name(&self) -> String;
}

/// Blanket impl so `&M`, `Box<M>`, `Arc<M>` can be used wherever a metric is
/// expected.
impl<T: ?Sized, M: Metric<T> + ?Sized> Metric<T> for &M {
    fn distance(&self, a: &T, b: &T) -> f64 {
        (**self).distance(a, b)
    }
    fn distances_to_table(&self, o: &T, table: &PivotTable, scratch: &mut TableScratch)
    where
        Vector: Borrow<T>,
    {
        (**self).distances_to_table(o, table, scratch);
    }
    fn max_distance(&self) -> Option<f64> {
        (**self).max_distance()
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

impl<T: ?Sized, M: Metric<T> + ?Sized> Metric<T> for std::sync::Arc<M> {
    fn distance(&self, a: &T, b: &T) -> f64 {
        (**self).distance(a, b)
    }
    fn distances_to_table(&self, o: &T, table: &PivotTable, scratch: &mut TableScratch)
    where
        Vector: Borrow<T>,
    {
        (**self).distances_to_table(o, table, scratch);
    }
    fn max_distance(&self) -> Option<f64> {
        (**self).max_distance()
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

fn check_dims(a: usize, b: usize) {
    assert_eq!(
        a, b,
        "metric applied to vectors of different dimensionality ({a} vs {b})"
    );
}

/// One pass of `o` over `table`: `o` is widened once, then
/// `row_distance(widened o, row)` is evaluated per pivot into `scratch`.
fn table_pass(
    o: &Vector,
    table: &PivotTable,
    scratch: &mut TableScratch,
    row_distance: impl Fn(&[f64], &[f64]) -> f64,
) {
    let (wide, out) = scratch.start_widened(o.as_slice());
    out.extend(table.rows().map(|row| {
        check_dims(wide.len(), row.len());
        row_distance(wide, row)
    }));
}

/// Manhattan distance `Σ |a_i − b_i|` — the metric of the YEAST and HUMAN
/// datasets (paper Table 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct L1;

impl Metric<Vector> for L1 {
    #[inline]
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        check_dims(a.dim(), b.dim());
        kernel::sum_abs(a.as_slice(), b.as_slice())
    }
    fn distances_to_table(&self, o: &Vector, table: &PivotTable, scratch: &mut TableScratch) {
        table_pass(o, table, scratch, kernel::sum_abs);
    }
    fn name(&self) -> String {
        "L1".into()
    }
}

/// Euclidean distance `sqrt(Σ (a_i − b_i)^2)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2;

impl Metric<Vector> for L2 {
    #[inline]
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        check_dims(a.dim(), b.dim());
        kernel::sum_sq(a.as_slice(), b.as_slice()).sqrt()
    }
    fn distances_to_table(&self, o: &Vector, table: &PivotTable, scratch: &mut TableScratch) {
        table_pass(o, table, scratch, |x, y| kernel::sum_sq(x, y).sqrt());
    }
    fn name(&self) -> String {
        "L2".into()
    }
}

/// Chebyshev distance `max |a_i − b_i|` (the `p → ∞` member of the Lp family).
#[derive(Debug, Clone, Copy, Default)]
pub struct Linf;

impl Metric<Vector> for Linf {
    #[inline]
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        check_dims(a.dim(), b.dim());
        kernel::max_abs(a.as_slice(), b.as_slice())
    }
    fn distances_to_table(&self, o: &Vector, table: &PivotTable, scratch: &mut TableScratch) {
        table_pass(o, table, scratch, kernel::max_abs);
    }
    fn name(&self) -> String {
        "Linf".into()
    }
}

/// Minkowski distance of order `p >= 1`: `(Σ |a_i − b_i|^p)^(1/p)`.
///
/// `p < 1` does not satisfy the triangle inequality and is rejected.
#[derive(Debug, Clone, Copy)]
pub struct Lp {
    p: f64,
}

impl Lp {
    /// Creates an Lp metric. Panics if `p < 1` (not a metric).
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0, "Lp with p = {p} violates the triangle inequality");
        Self { p }
    }

    /// The order `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Metric<Vector> for Lp {
    #[inline]
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        check_dims(a.dim(), b.dim());
        kernel::lp(a.as_slice(), b.as_slice(), self.p)
    }
    fn distances_to_table(&self, o: &Vector, table: &PivotTable, scratch: &mut TableScratch) {
        table_pass(o, table, scratch, |x, y| kernel::lp(x, y, self.p));
    }
    fn name(&self) -> String {
        format!("L{}", self.p)
    }
}

/// One descriptor block inside a [`CombinedMetric`]: a contiguous component
/// range compared by its own Lp order and scaled by a weight.
#[derive(Debug, Clone, Copy)]
pub struct DescriptorBlock {
    /// First component index of the block.
    pub start: usize,
    /// Number of components in the block.
    pub len: usize,
    /// Minkowski order used inside the block (`1.0` or `2.0` typically).
    pub p: f64,
    /// Weight multiplying the block distance in the aggregate.
    pub weight: f64,
}

/// CoPhIR-style aggregate metric: "five MPEG-7 visual descriptors were
/// extracted and the distance combines them" (paper §5.1).
///
/// The aggregate is a weighted sum of per-block Lp distances. A weighted sum
/// of metrics is again a metric, so all pruning rules remain valid.
/// Evaluating it is deliberately expensive — the paper's CoPhIR results are
/// dominated by this cost, which is what makes the client-side refinement
/// visible in Tables 3 and 6.
#[derive(Debug, Clone)]
pub struct CombinedMetric {
    blocks: Vec<DescriptorBlock>,
    total_dim: usize,
}

impl CombinedMetric {
    /// Builds a combined metric; blocks must tile `[0, total_dim)` without
    /// overlap (checked).
    pub fn new(blocks: Vec<DescriptorBlock>) -> Self {
        assert!(
            !blocks.is_empty(),
            "combined metric needs at least one block"
        );
        let mut covered = 0usize;
        for b in &blocks {
            assert_eq!(
                b.start, covered,
                "descriptor blocks must be contiguous and ordered"
            );
            assert!(b.len > 0, "empty descriptor block");
            assert!(b.p >= 1.0, "block Lp order must be >= 1");
            assert!(b.weight > 0.0, "block weight must be positive");
            covered += b.len;
        }
        Self {
            blocks,
            total_dim: covered,
        }
    }

    /// The MPEG-7 layout used by the CoPhIR evaluation stand-in:
    /// ScalableColor(64, L1), ColorStructure(64, L1), ColorLayout(12, L2),
    /// EdgeHistogram(80, L1), HomogeneousTexture(62, L2) — 282 dims total,
    /// with weights resembling the CoPhIR aggregate.
    pub fn cophir_default() -> Self {
        let spec: [(usize, f64, f64); 5] = [
            (64, 1.0, 2.0), // ScalableColor
            (64, 1.0, 3.0), // ColorStructure
            (12, 2.0, 2.0), // ColorLayout
            (80, 1.0, 4.0), // EdgeHistogram
            (62, 2.0, 0.5), // HomogeneousTexture
        ];
        let mut blocks = Vec::with_capacity(spec.len());
        let mut start = 0;
        for (len, p, weight) in spec {
            blocks.push(DescriptorBlock {
                start,
                len,
                p,
                weight,
            });
            start += len;
        }
        Self::new(blocks)
    }

    /// Total dimensionality the metric expects.
    pub fn dim(&self) -> usize {
        self.total_dim
    }

    /// The configured blocks.
    pub fn blocks(&self) -> &[DescriptorBlock] {
        &self.blocks
    }

    fn check_layout(&self, v: &Vector) {
        assert_eq!(
            v.dim(),
            self.total_dim,
            "vector does not match metric layout"
        );
    }

    /// The weighted sum of per-block Lp distances over two component
    /// ranges of `total_dim` elements each (checked by the callers). The
    /// blocks tile the range in order, so they are peeled off the front.
    fn blocks_distance<A, B>(&self, xs: &[A], ys: &[B]) -> f64
    where
        A: Copy + Into<f64>,
        B: Copy + Into<f64>,
    {
        let (mut xs, mut ys) = (xs, ys);
        let mut total = 0.0f64;
        for blk in &self.blocks {
            let (xr, x_rest) = xs.split_at(blk.len);
            let (yr, y_rest) = ys.split_at(blk.len);
            total += blk.weight * kernel::lp(xr, yr, blk.p);
            (xs, ys) = (x_rest, y_rest);
        }
        total
    }
}

impl Metric<Vector> for CombinedMetric {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        self.check_layout(a);
        check_dims(a.dim(), b.dim());
        self.blocks_distance(a.as_slice(), b.as_slice())
    }

    fn distances_to_table(&self, o: &Vector, table: &PivotTable, scratch: &mut TableScratch) {
        self.check_layout(o);
        table_pass(o, table, scratch, |x, y| self.blocks_distance(x, y));
    }

    fn name(&self) -> String {
        format!("Combined({} blocks)", self.blocks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::reference;
    use crate::kernel::tests::finite_f32;
    use proptest::prelude::*;

    fn v(c: &[f32]) -> Vector {
        Vector::from(c)
    }

    /// The serial block loop `CombinedMetric::distance` used to be.
    fn reference_combined(m: &CombinedMetric, a: &Vector, b: &Vector) -> f64 {
        let mut total = 0.0f64;
        for blk in m.blocks() {
            let xr = &a.as_slice()[blk.start..blk.start + blk.len];
            let yr = &b.as_slice()[blk.start..blk.start + blk.len];
            total += blk.weight * reference::lp(xr, yr, blk.p);
        }
        total
    }

    #[test]
    fn every_length_matches_the_serial_reference_through_the_metrics() {
        for len in 0..=300usize {
            let a = Vector::new((0..len).map(|i| ((i * 37 + 11) % 256) as f32).collect());
            let b = Vector::new((0..len).map(|i| ((i * 101 + 3) % 256) as f32).collect());
            let (xs, ys) = (a.as_slice(), b.as_slice());
            assert_eq!(L1.distance(&a, &b), reference::sum_abs(xs, ys));
            assert_eq!(L2.distance(&a, &b), reference::sum_sq(xs, ys).sqrt());
            assert_eq!(Linf.distance(&a, &b), reference::max_abs(xs, ys));
            for p in [1.0, 2.0] {
                assert_eq!(Lp::new(p).distance(&a, &b), reference::lp(xs, ys, p));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The CoPhIR layout on integer-grid descriptors (what
        /// `cophir_like` generates): bit-identical to the serial loop, so
        /// recall, wire bytes and every stored routing byte are unchanged.
        #[test]
        fn cophir_layout_is_bit_identical_on_the_integer_grid(
            a in proptest::collection::vec(0u32..256, 282),
            b in proptest::collection::vec(0u32..256, 282),
        ) {
            let m = CombinedMetric::cophir_default();
            let a = Vector::new(a.iter().map(|&x| x as f32).collect());
            let b = Vector::new(b.iter().map(|&x| x as f32).collect());
            prop_assert_eq!(
                m.distance(&a, &b).to_bits(),
                reference_combined(&m, &a, &b).to_bits()
            );
        }

        #[test]
        fn cophir_layout_is_within_rounding_on_finite_input(
            a in proptest::collection::vec(finite_f32(), 282),
            b in proptest::collection::vec(finite_f32(), 282),
        ) {
            let m = CombinedMetric::cophir_default();
            let (a, b) = (Vector::new(a), Vector::new(b));
            let (new, old) = (m.distance(&a, &b), reference_combined(&m, &a, &b));
            prop_assert!((new - old).abs() <= 1e-12 * old.abs(), "{} vs {}", new, old);
        }
    }

    #[test]
    fn l1_known_values() {
        assert_eq!(L1.distance(&v(&[0.0, 0.0]), &v(&[3.0, 4.0])), 7.0);
        assert_eq!(L1.distance(&v(&[1.0]), &v(&[1.0])), 0.0);
    }

    #[test]
    fn l2_known_values() {
        assert_eq!(L2.distance(&v(&[0.0, 0.0]), &v(&[3.0, 4.0])), 5.0);
    }

    #[test]
    fn linf_known_values() {
        assert_eq!(Linf.distance(&v(&[0.0, 0.0]), &v(&[3.0, 4.0])), 4.0);
    }

    #[test]
    fn lp_specializes_to_l1_l2() {
        let a = v(&[1.0, -2.0, 0.5]);
        let b = v(&[0.0, 3.0, 2.5]);
        assert_eq!(Lp::new(1.0).distance(&a, &b), L1.distance(&a, &b));
        assert_eq!(Lp::new(2.0).distance(&a, &b), L2.distance(&a, &b));
        let d3 = Lp::new(3.0).distance(&a, &b);
        assert!(d3 > Linf.distance(&a, &b));
        assert!(d3 < L1.distance(&a, &b));
    }

    #[test]
    #[should_panic(expected = "triangle inequality")]
    fn lp_rejects_sub_one() {
        let _ = Lp::new(0.5);
    }

    #[test]
    #[should_panic(expected = "different dimensionality")]
    fn dim_mismatch_panics() {
        let _ = L1.distance(&v(&[1.0]), &v(&[1.0, 2.0]));
    }

    #[test]
    fn combined_metric_matches_manual_sum() {
        let m = CombinedMetric::new(vec![
            DescriptorBlock {
                start: 0,
                len: 2,
                p: 1.0,
                weight: 2.0,
            },
            DescriptorBlock {
                start: 2,
                len: 2,
                p: 2.0,
                weight: 0.5,
            },
        ]);
        let a = v(&[0.0, 0.0, 0.0, 0.0]);
        let b = v(&[1.0, 2.0, 3.0, 4.0]);
        let expect = 2.0 * 3.0 + 0.5 * 5.0;
        assert!((m.distance(&a, &b) - expect).abs() < 1e-12);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    fn cophir_default_layout() {
        let m = CombinedMetric::cophir_default();
        assert_eq!(m.dim(), 64 + 64 + 12 + 80 + 62);
        assert_eq!(m.blocks().len(), 5);
        let a = Vector::zeros(m.dim());
        assert_eq!(m.distance(&a, &a), 0.0);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn combined_rejects_gaps() {
        let _ = CombinedMetric::new(vec![DescriptorBlock {
            start: 1,
            len: 2,
            p: 1.0,
            weight: 1.0,
        }]);
    }

    #[test]
    fn metric_usable_through_references() {
        let m = L1;
        let r: &dyn Metric<Vector> = &m;
        assert_eq!(r.distance(&v(&[1.0]), &v(&[4.0])), 3.0);
        let arc = std::sync::Arc::new(L2);
        assert_eq!(arc.distance(&v(&[0.0]), &v(&[2.0])), 2.0);
        assert_eq!(arc.name(), "L2");
    }
}
