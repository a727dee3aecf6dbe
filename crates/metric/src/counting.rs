//! Distance-computation counting.
//!
//! The paper reports "Dist. comp. time" as a separate cost component in every
//! table. [`CountingMetric`] wraps any [`Metric`] and counts invocations with
//! a relaxed atomic, so both the client and server sides can report how many
//! distance evaluations a phase performed (and, scaled by a measured
//! per-distance cost, the time attributable to them).

use std::sync::atomic::{AtomicU64, Ordering};

use std::borrow::Borrow;

use crate::metrics::Metric;
use crate::table::{PivotTable, TableScratch};
use crate::vector::Vector;

/// Wraps a metric and counts every distance it evaluates, pair by pair or
/// through a table pass.
///
/// Cloning is intentionally not provided: share via `Arc` to keep a single
/// counter, or create separate wrappers for separate phases.
#[derive(Debug, Default)]
pub struct CountingMetric<M> {
    inner: M,
    count: AtomicU64,
}

impl<M> CountingMetric<M> {
    /// Wraps `inner` with a fresh zero counter.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            count: AtomicU64::new(0),
        }
    }

    /// Number of distance computations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn reset(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }

    /// Access to the wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<T: ?Sized, M: Metric<T>> Metric<T> for CountingMetric<M> {
    #[inline]
    fn distance(&self, a: &T, b: &T) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b)
    }
    /// Forwards the wrapped metric's table pass and counts one distance
    /// per pivot.
    fn distances_to_table(&self, o: &T, table: &PivotTable, scratch: &mut TableScratch)
    where
        Vector: Borrow<T>,
    {
        self.count.fetch_add(table.len() as u64, Ordering::Relaxed);
        self.inner.distances_to_table(o, table, scratch);
    }
    fn max_distance(&self) -> Option<f64> {
        self.inner.max_distance()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::L1;

    #[test]
    fn counts_and_resets() {
        let m = CountingMetric::new(L1);
        let a = Vector::from(&[1.0f32, 2.0][..]);
        let b = Vector::from(&[0.0f32, 0.0][..]);
        assert_eq!(m.count(), 0);
        let _ = m.distance(&a, &b);
        let _ = m.distance(&a, &b);
        assert_eq!(m.count(), 2);
        assert_eq!(m.reset(), 2);
        assert_eq!(m.count(), 0);
        assert_eq!(m.name(), "L1");
    }

    #[test]
    fn table_pass_counts_one_distance_per_pivot() {
        let m = CountingMetric::new(L1);
        let table = PivotTable::new(vec![
            Vector::from(&[0.0f32, 0.0][..]),
            Vector::from(&[1.0f32, 5.0][..]),
            Vector::from(&[2.0f32, 2.0][..]),
        ]);
        let mut scratch = TableScratch::default();
        m.distances_to_table(&Vector::from(&[1.0f32, 2.0][..]), &table, &mut scratch);
        assert_eq!(scratch.distances(), &[3.0, 3.0, 1.0]);
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn counting_is_thread_safe() {
        use std::sync::Arc;
        let m = Arc::new(CountingMetric::new(L1));
        let a = Vector::from(&[1.0f32][..]);
        let b = Vector::from(&[3.0f32][..]);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                let (a, b) = (a.clone(), b.clone());
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _ = m.distance(&a, &b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.count(), 400);
    }
}
