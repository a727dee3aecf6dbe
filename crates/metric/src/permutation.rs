//! Pivot permutations — the only indexing information the server ever sees.
//!
//! For an object `o` and pivots `p_1 … p_n`, the pivot permutation orders
//! pivot *indexes* by increasing distance `d(p_i, o)`, breaking ties by the
//! smaller index (paper §4.1):
//!
//! ```text
//! (i)_o < (j)_o  ⇔  d(p_(i)_o, o) < d(p_(j)_o, o)
//!                    ∨ (d(p_(i)_o, o) = d(p_(j)_o, o) ∧ i < j)
//! ```
//!
//! The M-Index uses *prefixes* of this permutation for routing; the Encrypted
//! M-Index sends exactly this permutation (or the raw distances) to the
//! untrusted server.

use serde::{Deserialize, Serialize};

/// A (prefix of a) pivot permutation: `order[k]` is the index of the
/// `(k+1)`-th closest pivot.
///
/// Pivot indexes are stored as `u16` — pivot sets above 65 535 pivots are far
/// beyond any permutation index in the literature (the paper uses 30–100).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PivotPermutation {
    order: Vec<u16>,
}

impl PivotPermutation {
    /// Creates a permutation from an explicit order. Validates that entries
    /// are unique.
    pub fn new(order: Vec<u16>) -> Self {
        debug_assert!(
            {
                let mut s = order.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "pivot permutation contains duplicate indexes"
        );
        Self { order }
    }

    /// The full stored order.
    #[inline]
    pub fn order(&self) -> &[u16] {
        &self.order
    }

    /// Length of the stored (possibly truncated) permutation.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no pivots are recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The index of the closest pivot, if any.
    #[inline]
    pub fn closest(&self) -> Option<u16> {
        self.order.first().copied()
    }

    /// The first `l` entries (or fewer if the permutation is shorter) — the
    /// prefix the M-Index routes on.
    #[inline]
    pub fn prefix(&self, l: usize) -> &[u16] {
        &self.order[..l.min(self.order.len())]
    }

    /// Truncates in place to at most `l` entries; used when the client only
    /// ships the routing prefix to reduce leakage and bytes.
    pub fn truncate(&mut self, l: usize) {
        self.order.truncate(l);
    }

    /// Position of pivot `pivot` in this permutation (its rank), if present.
    pub fn rank_of(&self, pivot: u16) -> Option<usize> {
        self.order.iter().position(|&p| p == pivot)
    }

    /// Spearman footrule distance between two permutations of equal length:
    /// `Σ_p |rank_a(p) − rank_b(p)|`. A standard measure of how different two
    /// pivot views are; used by permutation-based candidate ranking.
    pub fn footrule(&self, other: &Self) -> u64 {
        assert_eq!(self.len(), other.len(), "footrule needs equal lengths");
        let n = self.len();
        let mut rank_other = vec![u16::MAX; n.max(1)];
        // rank_other indexed by pivot id requires max pivot id < n for full
        // permutations; build a map for the general case.
        let mut map = std::collections::HashMap::with_capacity(n);
        for (r, &p) in other.order.iter().enumerate() {
            map.insert(p, r);
        }
        let _ = &mut rank_other;
        let mut sum = 0u64;
        for (r, &p) in self.order.iter().enumerate() {
            let ro = *map.get(&p).expect("permutations over different pivot sets");
            sum += (r as i64 - ro as i64).unsigned_abs();
        }
        sum
    }

    /// Compact byte encoding: `u16` length + big-endian `u16` entries.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.order.len() as u16).to_le_bytes());
        for &p in &self.order {
            out.extend_from_slice(&p.to_le_bytes());
        }
    }

    /// Size of [`PivotPermutation::encode`] output in bytes.
    pub fn encoded_len(&self) -> usize {
        2 + 2 * self.order.len()
    }

    /// Decodes a permutation; returns it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        let (len_bytes, rest) = buf.split_first_chunk::<2>()?;
        let n = u16::from_le_bytes(*len_bytes) as usize;
        let (le, _) = rest.get(..2 * n)?.as_chunks::<2>();
        Some((Self::from_le(le), 2 + 2 * n))
    }

    /// The permutation whose entries are `le`, two little-endian bytes
    /// each — the body [`PivotPermutation::encode`] writes after the count.
    /// Like [`PivotPermutation::decode`], it takes the entries as they are.
    pub fn from_le(le: &[[u8; 2]]) -> Self {
        Self {
            order: le.iter().map(|c| u16::from_le_bytes(*c)).collect(),
        }
    }
}

/// Computes the pivot permutation from a vector of object–pivot distances,
/// with the paper's tie-break (equal distances ⇒ smaller pivot index first).
pub fn permutation_from_distances(distances: &[f64]) -> PivotPermutation {
    assert!(
        distances.len() <= u16::MAX as usize,
        "too many pivots for u16 permutation entries"
    );
    let mut idx: Vec<u16> = (0..distances.len() as u16).collect();
    // `total_cmp` keeps the sort well-defined even for NaN distances, which
    // can arrive over the wire inside `Routing::Distances` — a malformed
    // float must not abort the server.
    idx.sort_by(|&a, &b| {
        distances[a as usize]
            .total_cmp(&distances[b as usize])
            .then(a.cmp(&b))
    });
    PivotPermutation::new(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_orders_by_distance() {
        let p = permutation_from_distances(&[0.5, 0.1, 0.9, 0.3]);
        assert_eq!(p.order(), &[1, 3, 0, 2]);
        assert_eq!(p.closest(), Some(1));
    }

    #[test]
    fn ties_break_by_smaller_index() {
        let p = permutation_from_distances(&[0.7, 0.2, 0.2, 0.2]);
        assert_eq!(p.order(), &[1, 2, 3, 0]);
    }

    #[test]
    fn prefix_and_truncate() {
        let mut p = permutation_from_distances(&[3.0, 1.0, 2.0]);
        assert_eq!(p.prefix(2), &[1, 2]);
        assert_eq!(p.prefix(10), &[1, 2, 0]);
        p.truncate(1);
        assert_eq!(p.order(), &[1]);
        assert!(!p.is_empty());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn rank_of_finds_positions() {
        let p = permutation_from_distances(&[0.5, 0.1, 0.9]);
        assert_eq!(p.rank_of(1), Some(0));
        assert_eq!(p.rank_of(0), Some(1));
        assert_eq!(p.rank_of(2), Some(2));
        assert_eq!(p.rank_of(9), None);
    }

    #[test]
    fn footrule_distance() {
        let a = PivotPermutation::new(vec![0, 1, 2, 3]);
        let b = PivotPermutation::new(vec![3, 2, 1, 0]);
        // displacements: 3+1+1+3 = 8
        assert_eq!(a.footrule(&b), 8);
        assert_eq!(a.footrule(&a), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = permutation_from_distances(&[0.4, 0.2, 0.6, 0.1, 0.5]);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), p.encoded_len());
        let (back, used) = PivotPermutation::decode(&buf).unwrap();
        assert_eq!(back, p);
        assert_eq!(used, buf.len());
        assert!(PivotPermutation::decode(&buf[..buf.len() - 1]).is_none());
    }

    #[test]
    fn empty_permutation() {
        let p = permutation_from_distances(&[]);
        assert!(p.is_empty());
        assert_eq!(p.closest(), None);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let (back, _) = PivotPermutation::decode(&buf).unwrap();
        assert!(back.is_empty());
    }
}
