//! The batch entry's contract: for every shipped metric,
//! `Metric::distances_to_table` returns exactly — bit for bit — what
//! `Metric::distance` returns pivot by pivot. The Lp metrics override the
//! entry with one pass over the table's widened rows; they are only allowed
//! to because both entries run the same kernel. A benchmark run that wraps
//! the metric in a tracer (provided body, pair by pair) and one that does
//! not (override) must not be able to disagree on a single stored routing
//! byte.

use proptest::prelude::*;
use simcloud_metric::{
    CombinedMetric, CountingMetric, DescriptorBlock, Linf, Lp, Metric, PivotTable, TableScratch,
    Vector, L1, L2,
};

/// Any finite `f32` (non-finite bit patterns fold onto small integers).
fn finite_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(|bits| {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            (bits % 1024) as f32
        }
    })
}

/// A metric that defines only `distance` and `name` — the shape of a
/// tracing wrapper outside this repository. It takes the provided body.
struct DistanceOnly<M>(M);

impl<M: Metric<Vector>> Metric<Vector> for DistanceOnly<M> {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        self.0.distance(a, b)
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

fn assert_pass_equals_pairs<M: Metric<Vector>>(
    m: &M,
    o: &Vector,
    table: &PivotTable,
    scratch: &mut TableScratch,
) -> Result<(), TestCaseError> {
    m.distances_to_table(o, table, scratch);
    prop_assert_eq!(scratch.distances().len(), table.len());
    for (batch, p) in scratch.distances().iter().zip(table.pivots()) {
        prop_assert!(
            batch.to_bits() == m.distance(o, p).to_bits(),
            "{}: table pass {} != per-pair {}",
            m.name(),
            batch,
            m.distance(o, p)
        );
    }
    Ok(())
}

/// Two blocks with a general-p one, so the `powf` branch is covered too.
fn small_combined(dim: usize) -> Option<CombinedMetric> {
    (dim >= 2).then(|| {
        CombinedMetric::new(vec![
            DescriptorBlock {
                start: 0,
                len: dim / 2,
                p: 2.0,
                weight: 1.5,
            },
            DescriptorBlock {
                start: dim / 2,
                len: dim - dim / 2,
                p: 3.0,
                weight: 0.25,
            },
        ])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn table_pass_is_bit_identical_to_per_pair_distances(
        values in proptest::collection::vec(finite_f32(), 9 * 40),
        dim in 0usize..41,
        pivots in 0usize..9,
    ) {
        let mut rows = values.chunks(40).map(|r| Vector::from(&r[..dim]));
        let o = rows.next().expect("nine rows generated");
        let table = PivotTable::new(rows.take(pivots).collect());
        // One scratch across every metric: a pass must not depend on what
        // the previous one left behind.
        let mut s = TableScratch::default();
        assert_pass_equals_pairs(&L1, &o, &table, &mut s)?;
        assert_pass_equals_pairs(&L2, &o, &table, &mut s)?;
        assert_pass_equals_pairs(&Linf, &o, &table, &mut s)?;
        assert_pass_equals_pairs(&Lp::new(1.0), &o, &table, &mut s)?;
        assert_pass_equals_pairs(&Lp::new(2.0), &o, &table, &mut s)?;
        assert_pass_equals_pairs(&Lp::new(3.0), &o, &table, &mut s)?;
        assert_pass_equals_pairs(&CountingMetric::new(L1), &o, &table, &mut s)?;
        assert_pass_equals_pairs(&DistanceOnly(L2), &o, &table, &mut s)?;
        assert_pass_equals_pairs(&std::sync::Arc::new(L1), &o, &table, &mut s)?;
        if let Some(m) = small_combined(dim) {
            assert_pass_equals_pairs(&m, &o, &table, &mut s)?;
        }
    }

    #[test]
    fn cophir_table_pass_is_bit_identical_to_per_pair_distances(
        values in proptest::collection::vec(finite_f32(), 5 * 282),
        grid in proptest::collection::vec(0u32..256, 5 * 282),
    ) {
        let m = CombinedMetric::cophir_default();
        let grid: Vec<f32> = grid.iter().map(|&x| x as f32).collect();
        let mut s = TableScratch::default();
        for data in [&values, &grid] {
            let mut rows = data.chunks(282).map(Vector::from);
            let o = rows.next().expect("five rows generated");
            let table = PivotTable::new(rows.collect());
            assert_pass_equals_pairs(&m, &o, &table, &mut s)?;
            assert_pass_equals_pairs(&DistanceOnly(m.clone()), &o, &table, &mut s)?;
        }
    }
}

#[test]
#[should_panic(expected = "different dimensionality")]
fn table_pass_rejects_a_mismatched_object_like_distance_does() {
    let table = PivotTable::new(vec![Vector::new(vec![1.0, 2.0])]);
    L1.distances_to_table(
        &Vector::new(vec![1.0]),
        &table,
        &mut TableScratch::default(),
    );
}
