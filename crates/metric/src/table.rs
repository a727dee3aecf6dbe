//! The pivot table: a pivot set laid out for one-pass evaluation.
//!
//! Every insert and every query starts with the distances from one object
//! to *all* pivots (Alg. 1 line 1, Alg. 2 line 1). Evaluated pair by pair
//! that is `n` dimension checks, `n` dispatches and `2n` `f32 → f64`
//! widenings of vectors scattered over the heap. [`PivotTable`] stores the
//! pivots a second time as contiguous row-major `f64` rows, so
//! [`Metric::distances_to_table`](crate::Metric::distances_to_table) can
//! check and widen the object once and stream it against the rows.

use crate::vector::Vector;

/// A pivot set plus its widened, contiguous copy (row `i` = pivot `i`,
/// rows back to back).
#[derive(Debug, Clone, PartialEq)]
pub struct PivotTable {
    pivots: Vec<Vector>,
    rows: Vec<f64>,
}

impl PivotTable {
    /// Lays `pivots` out as a table.
    pub fn new(pivots: Vec<Vector>) -> Self {
        let rows = pivots
            .iter()
            .flat_map(|p| p.as_slice().iter().map(|&c| f64::from(c)))
            .collect();
        Self { pivots, rows }
    }

    /// The pivots as the objects they were given as.
    pub fn pivots(&self) -> &[Vector] {
        &self.pivots
    }

    /// Number of pivots.
    pub fn len(&self) -> usize {
        self.pivots.len()
    }

    /// `true` for a table without pivots.
    pub fn is_empty(&self) -> bool {
        self.pivots.is_empty()
    }

    /// The widened rows, in pivot order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        let mut rest = self.rows.as_slice();
        self.pivots.iter().map(move |p| {
            let (row, tail) = rest.split_at(p.dim());
            rest = tail;
            row
        })
    }
}

/// Reusable buffers of a table pass: the widened object and the resulting
/// distances. One scratch serves a whole bulk of objects, so the pass
/// allocates nothing per object.
#[derive(Debug, Clone, Default)]
pub struct TableScratch {
    widened: Vec<f64>,
    distances: Vec<f64>,
}

impl TableScratch {
    /// The distances the last pass left, in pivot order.
    pub fn distances(&self) -> &[f64] {
        &self.distances
    }

    /// Gives the distances away.
    pub fn into_distances(self) -> Vec<f64> {
        self.distances
    }

    /// Starts a pass: the emptied output buffer.
    pub fn start(&mut self) -> &mut Vec<f64> {
        self.distances.clear();
        &mut self.distances
    }

    /// Starts a pass over `object`: its components widened to `f64`, and
    /// the emptied output buffer.
    pub fn start_widened(&mut self, object: &[f32]) -> (&[f64], &mut Vec<f64>) {
        self.widened.clear();
        self.widened.extend(object.iter().map(|&c| f64::from(c)));
        self.distances.clear();
        (&self.widened, &mut self.distances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_the_widened_pivots_in_order() {
        let table = PivotTable::new(vec![
            Vector::new(vec![1.5, -2.0]),
            Vector::new(vec![0.25, 8.0]),
        ]);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        let rows: Vec<&[f64]> = table.rows().collect();
        assert_eq!(rows, vec![&[1.5, -2.0][..], &[0.25, 8.0][..]]);
        assert_eq!(table.pivots()[1].as_slice(), &[0.25, 8.0]);
    }

    #[test]
    fn scratch_is_reusable_across_passes() {
        let mut scratch = TableScratch::default();
        let (wide, out) = scratch.start_widened(&[1.0, 2.0, 3.0]);
        assert_eq!(wide, &[1.0, 2.0, 3.0]);
        out.push(9.0);
        let (wide, out) = scratch.start_widened(&[4.0]);
        assert_eq!(wide, &[4.0]);
        assert!(out.is_empty(), "a pass starts from no distances");
        out.push(7.0);
        assert_eq!(scratch.distances(), &[7.0]);
        assert_eq!(scratch.into_distances(), vec![7.0]);
    }
}
