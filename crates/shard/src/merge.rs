//! K-way frontier merge over per-shard candidate cursors.
//!
//! Every shard answers a search by *opening* a [`CandidateCursor`]: an
//! owned, lock-free stream of `(entry, lower_bound)` pairs in nondecreasing
//! bound order (the contract of `MIndex::knn_cursor` / `range_cursor`).
//! The coordinator pulls the globally smallest bound from whichever
//! cursor holds it — an argmin over each cursor's next view — and stops
//! the moment `cap` candidates are merged. What it pulls are borrowed
//! [`CandidateView`]s: no entry is decoded and no payload moves until the
//! request engine writes the merged views into its response frame (or an
//! owned adapter asks for entries).
//!
//! **Exactness argument.** The pull sequence equals the old
//! gather-everything merge wire for wire: each cursor yields exactly the
//! (stably sorted) sequence the eager per-shard list contained, the heap
//! uses the same min-bound-first, lower-shard-tie-break ordering, and a
//! shard's eager trim to `cand_size` can never matter because the global
//! cap bounds how deep any one cursor is pulled. For range queries each
//! shard streams *every* entry of its partition that survives pivot
//! filtering, so the uncapped drain is exactly the union — a superset of
//! the true results over the whole collection, and client refinement
//! makes the final answer identical to a single index's. For k-NN,
//! keeping the `cand_size` smallest bounds of the union yields at least
//! as promising a candidate set as any single enumeration of the same
//! cells (see the README's sharded-deployment section for when the sets
//! coincide).

use std::cmp::Ordering;

use simcloud_mindex::{CandidateCursor, CandidateView, SearchStats};
use simcloud_telemetry::{Histogram, SpanTimer};

/// One shard's frontier head: the bound its cursor would yield next.
#[derive(Clone, Copy)]
struct Head {
    bound: f64,
    shard: usize,
}

/// The frontier's total order: lowest bound first, ties broken by shard
/// index for a deterministic merge (earlier shards win).
fn precedes(a: &Head, b: &Head) -> bool {
    a.bound
        .total_cmp(&b.bound)
        .then_with(|| a.shard.cmp(&b.shard))
        == Ordering::Less
}

/// How often the merge loop samples a pull run into the `shard.pull`
/// histogram. Runs are the hottest unit on the gather path (dozens per
/// query), and two clock reads per run shows up as whole percents of
/// query throughput — sampling every 8th run keeps the latency
/// distribution representative while staying inside the ≤ 5 % telemetry
/// budget asserted by `--bench obs`. The first run is always sampled, so
/// any timed merge lands at least one record.
const PULL_SAMPLE_EVERY: u32 = 8;

/// Merges the per-shard cursors' frontiers into one ascending list of at
/// most `cap` candidate views (`None` = everything), borrowed from the
/// cursors' arenas — no entry is decoded and no payload copied. Within
/// equal bounds, earlier shards win — deterministic for a fixed shard
/// layout.
///
/// The coordinator never holds a shard guard: cursors are owned values,
/// so this loop runs entirely lock-free after the fan-out that opened
/// them (the lock-discipline lint enforces that no pull happens with
/// shard guards live).
///
/// Returns the merged views plus the fan-out stats: per-shard cost
/// counters sum via [`SearchStats::merge_from`], and `candidates` /
/// `candidates_generated` report the merged (capped) list — the set the
/// client receives.
///
/// When `pull` is bound, every `PULL_SAMPLE_EVERY`-th uninterrupted run
/// against the winning cursor records its duration (one histogram sample
/// per sampled run, amortized over the run's entries — never per
/// candidate).
pub fn merge_frontier<'a>(
    cursors: &'a [CandidateCursor],
    cap: Option<usize>,
    pull: Option<&Histogram>,
) -> (Vec<CandidateView<'a>>, SearchStats) {
    let total: usize = cursors.iter().map(CandidateCursor::remaining).sum();
    let want = cap.map_or(total, |c| c.min(total));
    let mut out = Vec::with_capacity(want);
    let mut streams: Vec<_> = cursors.iter().map(|c| c.views().peekable()).collect();
    // Live frontier heads, one per non-empty cursor. A deployment has a
    // handful of shards, so an argmin scan over a flat vec beats a binary
    // heap's per-pull pop/sift/push — and the run-length inner loop below
    // keeps pulling from the winning cursor without touching the other
    // heads at all while it still holds the global minimum.
    let mut heads: Vec<Head> = streams
        .iter_mut()
        .enumerate()
        .filter_map(|(shard, s)| {
            s.peek().map(|v| Head {
                bound: v.bound,
                shard,
            })
        })
        .collect();
    let mut run_no: u32 = 0;
    while out.len() < want {
        // Argmin by (bound, shard) over the live heads, tracking the
        // runner-up for the run-length pull below.
        let mut best: Option<(usize, Head)> = None;
        let mut runner_up: Option<Head> = None;
        for (slot, &head) in heads.iter().enumerate() {
            match best {
                Some((_, b)) if !precedes(&head, &b) => {
                    if runner_up.is_none_or(|r| precedes(&head, &r)) {
                        runner_up = Some(head);
                    }
                }
                prev => {
                    // A new minimum demotes the previous one to runner-up
                    // (it preceded every other head seen so far).
                    runner_up = prev.map(|(_, b)| b);
                    best = Some((slot, head));
                }
            }
        }
        let Some((slot, head)) = best else { break };
        let Some(stream) = streams.get_mut(head.shard) else {
            // Every head was built from a live cursor; a missing slot means
            // the heads and cursors diverged — stop rather than index past
            // the end.
            break;
        };
        // Pull the whole run: the winning cursor stays the frontier
        // minimum until its next bound passes the runner-up's head (or
        // ties it from a later shard), which is exactly when a k-way heap
        // would have switched cursors.
        {
            let _run = pull
                .filter(|_| run_no.is_multiple_of(PULL_SAMPLE_EVERY))
                .map(|h| SpanTimer::new(h, true));
            run_no = run_no.wrapping_add(1);
            while let Some(view) = stream.next() {
                out.push(view);
                if out.len() >= want {
                    break;
                }
                let run_continues = stream.peek().is_some_and(|v| {
                    let next = Head {
                        bound: v.bound,
                        shard: head.shard,
                    };
                    runner_up.is_none_or(|r| precedes(&next, &r))
                });
                if !run_continues {
                    break;
                }
            }
        }
        match stream.peek() {
            Some(v) => match heads.get_mut(slot) {
                Some(h) => h.bound = v.bound,
                None => break,
            },
            None => {
                heads.swap_remove(slot);
            }
        }
    }
    let mut stats = SearchStats::default();
    for cursor in cursors {
        stats.merge_from(&cursor.stats());
    }
    stats.candidates_generated += out.len() as u64;
    stats.candidates = out.len() as u64;
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud_mindex::{
        owned_entries, IndexEntry, MIndex, MIndexConfig, MIndexError, PromiseEvaluator, Routing,
        RoutingStrategy,
    };
    use simcloud_storage::MemoryStore;

    /// [`merge_frontier`] as owned entries — the eager list shape the
    /// assertions below read.
    fn drain_frontier(
        cursors: Vec<CandidateCursor>,
        cap: Option<usize>,
    ) -> Result<(Vec<(IndexEntry, f64)>, SearchStats), MIndexError> {
        let (views, stats) = merge_frontier(&cursors, cap, None);
        Ok((owned_entries(&views)?, stats))
    }

    /// A one-cell index whose entries carry the given bounds (1-pivot
    /// world: the wire bound for query distance 0 is |d| minus slack, so
    /// ordering follows the inserted distances).
    fn cursor_over(points: &[(u64, f64)]) -> CandidateCursor {
        let mut idx = MIndex::new(
            MIndexConfig {
                num_pivots: 1,
                max_level: 1,
                bucket_capacity: 1000,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap();
        for &(id, d) in points {
            idx.insert(IndexEntry::new(
                id,
                Routing::from_distances(&[d]),
                vec![id as u8],
            ))
            .unwrap();
        }
        idx.knn_cursor(&PromiseEvaluator::from_distances(vec![0.0]), points.len())
            .unwrap()
    }

    fn ids(list: &[(IndexEntry, f64)]) -> Vec<u64> {
        list.iter().map(|(e, _)| e.id).collect()
    }

    #[test]
    fn merges_cursor_frontiers_ascending() {
        let cursors = vec![
            cursor_over(&[(1, 1.0), (2, 5.0), (3, 9.0)]),
            cursor_over(&[(4, 2.0), (5, 6.0)]),
            cursor_over(&[]),
            cursor_over(&[(6, 0.5)]),
        ];
        let (merged, stats) = drain_frontier(cursors, None).unwrap();
        assert_eq!(ids(&merged), vec![6, 1, 4, 2, 5, 3]);
        assert!(merged.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(stats.candidates, 6);
    }

    #[test]
    fn cap_keeps_globally_smallest_bounds() {
        let cursors = vec![
            cursor_over(&[(1, 3.0), (2, 4.0)]),
            cursor_over(&[(3, 1.0), (4, 2.0), (5, 2.5)]),
        ];
        let (merged, stats) = drain_frontier(cursors, Some(3)).unwrap();
        assert_eq!(ids(&merged), vec![3, 4, 5]);
        assert_eq!(stats.candidates, 3);
    }

    #[test]
    fn ties_resolve_by_shard_order_deterministically() {
        let make = || vec![cursor_over(&[(1, 0.5)]), cursor_over(&[(2, 0.5)])];
        let (a, _) = drain_frontier(make(), None).unwrap();
        let (b, _) = drain_frontier(make(), None).unwrap();
        assert_eq!(a[0].0.id, 1, "earlier shard wins the tie");
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn empty_and_zero_cap() {
        let (merged, _) = drain_frontier(vec![], Some(5)).unwrap();
        assert!(merged.is_empty());
        let (merged, stats) = drain_frontier(vec![cursor_over(&[(1, 0.1)])], Some(0)).unwrap();
        assert!(merged.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    /// The whole point of the frontier: a capped drain decodes little
    /// more than `cap` entries in total, not `shards × cap`.
    #[test]
    fn capped_drain_generates_sublinearly() {
        let big: Vec<(u64, f64)> = (0..200).map(|i| (i, i as f64)).collect();
        let cursors = vec![
            cursor_over(&big),
            cursor_over(
                &big.iter()
                    .map(|&(i, d)| (1000 + i, d + 0.5))
                    .collect::<Vec<_>>(),
            ),
            cursor_over(
                &big.iter()
                    .map(|&(i, d)| (2000 + i, d + 0.7))
                    .collect::<Vec<_>>(),
            ),
            cursor_over(
                &big.iter()
                    .map(|&(i, d)| (3000 + i, d + 0.9))
                    .collect::<Vec<_>>(),
            ),
        ];
        let (merged, stats) = drain_frontier(cursors, Some(100)).unwrap();
        assert_eq!(merged.len(), 100);
        assert!(
            stats.candidates_generated < 2 * 100,
            "generated {} for a cap of 100 over 4 shards — the frontier \
             must not materialize every shard's full list",
            stats.candidates_generated
        );
    }
}
