//! Shard routing: which shard owns which entry.
//!
//! Routing is pluggable so deployments can trade balance against locality:
//!
//! * [`HashRouter`] — uniform hash of the external id. Best load balance,
//!   no locality: a query's candidates are spread over all shards, so
//!   every search fans out usefully.
//! * [`PivotRouter`] — the entry's nearest *global* pivot, i.e. the first
//!   element of its pivot permutation, modulo the shard count. This is a
//!   coarse Voronoi partition of the metric space (DIMS-style): objects in
//!   one level-1 cell share a shard, so a query with a tight candidate set
//!   touches few shards, at the cost of pivot-popularity skew.
//!
//! Routers see only what the untrusted server already sees — ids and
//! routing information — so sharding adds no leakage.

use simcloud_mindex::entry::RoutingView;

/// Assigns records to shards. Implementations must be **pure functions of
/// the record's id and routing**: a re-inserted record with identical
/// routing must land on the same shard (the ownership map assumes it), and
/// routing must not depend on mutable state (it runs outside the shard
/// locks).
pub trait ShardRouter: Send + Sync {
    /// Shard index in `0..shards` that must hold the record with external
    /// id `id` and routing header `routing`. `shards` is always ≥ 1.
    fn route(&self, id: u64, routing: &RoutingView<'_>, shards: usize) -> usize;

    /// Human-readable router name (appears in benches and reports).
    fn name(&self) -> &'static str;
}

/// Uniform id-hash routing (Fibonacci multiplicative hash — splits
/// sequential external ids, the common case, evenly).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashRouter;

impl ShardRouter for HashRouter {
    fn route(&self, id: u64, _routing: &RoutingView<'_>, shards: usize) -> usize {
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % shards
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Nearest-global-pivot (Voronoi) routing: shard = first permutation
/// element mod shard count. Records whose routing information is too short
/// to name a nearest pivot fall back to shard 0 — the shard's own index
/// then rejects them with its usual validation error.
#[derive(Debug, Clone, Copy, Default)]
pub struct PivotRouter;

impl ShardRouter for PivotRouter {
    fn route(&self, _id: u64, routing: &RoutingView<'_>, shards: usize) -> usize {
        match routing.permutation().closest() {
            Some(p) => p as usize % shards,
            None => 0,
        }
    }

    fn name(&self) -> &'static str {
        "pivot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud_mindex::{IndexEntry, Routing};

    fn entry(id: u64, ds: &[f64]) -> IndexEntry {
        IndexEntry::new(id, Routing::from_distances(ds), vec![])
    }

    /// Where `router` puts `entry` among `shards`, routed by its encoded
    /// header.
    fn route(router: &dyn ShardRouter, entry: &IndexEntry, shards: usize) -> usize {
        let mut header = Vec::new();
        entry.routing.encode(&mut header);
        let (routing, _) = RoutingView::decode(&header).unwrap();
        router.route(entry.id, &routing, shards)
    }

    #[test]
    fn hash_router_spreads_sequential_ids() {
        let r = HashRouter;
        let mut counts = [0usize; 4];
        for id in 0..400u64 {
            counts[route(&r, &entry(id, &[0.0]), 4)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (60..=140).contains(&c),
                "shard {shard} got {c} of 400 sequential ids: {counts:?}"
            );
        }
    }

    #[test]
    fn hash_router_is_deterministic() {
        let r = HashRouter;
        let e = entry(17, &[0.5]);
        assert_eq!(route(&r, &e, 4), route(&r, &e, 4));
        assert!(route(&r, &e, 1) == 0);
    }

    #[test]
    fn pivot_router_follows_nearest_pivot() {
        let r = PivotRouter;
        // Nearest pivot = index of the smallest distance.
        assert_eq!(route(&r, &entry(1, &[0.9, 0.1, 0.5]), 4), 1);
        assert_eq!(route(&r, &entry(2, &[0.1, 0.9, 0.5]), 4), 0);
        assert_eq!(route(&r, &entry(3, &[0.9, 0.5, 0.1]), 4), 2);
        // Modulo wraps pivot indexes beyond the shard count.
        assert_eq!(route(&r, &entry(3, &[0.9, 0.5, 0.1]), 2), 0);
    }

    #[test]
    fn pivot_router_handles_permutation_routing_and_empty() {
        let r = PivotRouter;
        let p = IndexEntry::new(
            4,
            simcloud_mindex::Routing::permutation_prefix(&[0.4, 0.2, 0.9], 2),
            vec![],
        );
        assert_eq!(route(&r, &p, 4), 1);
        let empty = IndexEntry::new(5, Routing::from_distances(&[]), vec![]);
        assert_eq!(route(&r, &empty, 4), 0, "short routing falls back to 0");
    }
}
