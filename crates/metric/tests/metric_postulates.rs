//! Property tests: every shipped metric satisfies the metric postulates the
//! paper relies on (§1): non-negativity, identity of indiscernibles,
//! symmetry, triangle inequality. Pruning rules in the M-Index are *only*
//! correct if these hold, so they are the foundational invariants.
//!
//! Case counts are pinned via `ProptestConfig::with_cases` and the proptest
//! harness seeds each test from a fixed constant hashed with the test name
//! (crates/shims/README.md), so CI runs are bit-identical to local runs.

use proptest::prelude::*;
use simcloud_metric::{
    permutation_from_distances, CombinedMetric, Linf, Lp, Metric, Vector, L1, L2,
};

const EPS: f64 = 1e-9;

fn vec_strategy(dim: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-1000.0f32..1000.0, dim).prop_map(Vector::new)
}

fn check_postulates<M: Metric<Vector>>(
    m: &M,
    a: &Vector,
    b: &Vector,
    c: &Vector,
) -> Result<(), TestCaseError> {
    let dab = m.distance(a, b);
    let dba = m.distance(b, a);
    let dac = m.distance(a, c);
    let dcb = m.distance(c, b);
    // non-negativity
    prop_assert!(dab >= 0.0);
    // symmetry
    prop_assert!((dab - dba).abs() <= EPS * (1.0 + dab.abs()));
    // identity
    prop_assert!(m.distance(a, a) <= EPS);
    // triangle inequality (allow fp slack proportional to magnitude)
    let slack = EPS * (1.0 + dac.abs() + dcb.abs());
    prop_assert!(dab <= dac + dcb + slack);
    Ok(())
}

macro_rules! postulate_tests {
    ($name:ident, $metric:expr, $dim:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn $name(a in vec_strategy($dim), b in vec_strategy($dim), c in vec_strategy($dim)) {
                check_postulates(&$metric, &a, &b, &c)?;
            }
        }
    };
}

postulate_tests!(l1_is_a_metric, L1, 17);
postulate_tests!(l2_is_a_metric, L2, 8);
postulate_tests!(linf_is_a_metric, Linf, 5);
postulate_tests!(l3_is_a_metric, Lp::new(3.0), 6);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn combined_is_a_metric(
        a in vec_strategy(10),
        b in vec_strategy(10),
        c in vec_strategy(10),
    ) {
        let m = CombinedMetric::new(vec![
            simcloud_metric::DescriptorBlock { start: 0, len: 4, p: 1.0, weight: 2.0 },
            simcloud_metric::DescriptorBlock { start: 4, len: 3, p: 2.0, weight: 1.5 },
            simcloud_metric::DescriptorBlock { start: 7, len: 3, p: 1.0, weight: 0.25 },
        ]);
        check_postulates(&m, &a, &b, &c)?;
    }

    /// The permutation derived from distances must order pivots so that
    /// distances along the permutation are non-decreasing, and must be a
    /// valid permutation of indexes.
    #[test]
    fn permutation_is_sorted_and_complete(ds in proptest::collection::vec(0.0f64..100.0, 1..40)) {
        let p = permutation_from_distances(&ds);
        prop_assert_eq!(p.len(), ds.len());
        let mut seen = vec![false; ds.len()];
        for w in p.order().windows(2) {
            let (i, j) = (w[0] as usize, w[1] as usize);
            prop_assert!(ds[i] < ds[j] || (ds[i] == ds[j] && w[0] < w[1]));
        }
        for &i in p.order() {
            prop_assert!(!seen[i as usize], "duplicate index in permutation");
            seen[i as usize] = true;
        }
    }

    /// Lower-bound property that pivot filtering relies on (Alg. 3 line 6):
    /// for any pivot p, |d(q,p) − d(o,p)| ≤ d(q,o).
    #[test]
    fn pivot_filtering_lower_bound_holds(
        q in vec_strategy(9),
        o in vec_strategy(9),
        p in vec_strategy(9),
    ) {
        for m in [&L1 as &dyn Metric<Vector>, &L2, &Linf] {
            let lb = (m.distance(&q, &p) - m.distance(&o, &p)).abs();
            let d = m.distance(&q, &o);
            prop_assert!(lb <= d + EPS * (1.0 + d.abs()));
        }
    }
}
