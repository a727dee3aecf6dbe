//! Search statistics.
//!
//! [`SearchStats`] is a plain value: a cursor or a fan-out reports one per
//! search, and the server adds it to its `search.*` telemetry counters.
//! There is no per-request slot on the server; a request's own stats are
//! the [`SearchStats::since`] delta of the server's totals around it.

/// Per-query search statistics — the server-side cost drivers the paper's
/// analysis discusses (cells accessed, filtering effectiveness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Leaf cells whose buckets were read.
    pub cells_visited: u64,
    /// Cells (subtrees) pruned by the double-pivot constraint.
    pub pruned_hyperplane: u64,
    /// Leaves pruned by the range-pivot constraint.
    pub pruned_range_pivot: u64,
    /// Entries read from visited buckets.
    pub entries_scanned: u64,
    /// Entries discarded by object pivot filtering (Alg. 3 lines 5–7).
    pub entries_filtered: u64,
    /// Entries returned in the candidate set.
    pub candidates: u64,
    /// Entries a selection took from the candidate cursors. Every search
    /// answers with its selection, single or sharded, so this always
    /// equals `candidates`; it measures no per-shard work (per-shard
    /// staging work is `entries_scanned`). Kept only because the
    /// benchmark package still reads it.
    pub candidates_generated: u64,
}

impl SearchStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.cells_visited += other.cells_visited;
        self.pruned_hyperplane += other.pruned_hyperplane;
        self.pruned_range_pivot += other.pruned_range_pivot;
        self.entries_scanned += other.entries_scanned;
        self.entries_filtered += other.entries_filtered;
        self.candidates += other.candidates;
        self.candidates_generated += other.candidates_generated;
    }

    /// Difference since an earlier snapshot of the same totals — the
    /// stats of whatever ran in between (per-request accounting).
    pub fn since(&self, earlier: &SearchStats) -> SearchStats {
        SearchStats {
            cells_visited: self.cells_visited - earlier.cells_visited,
            pruned_hyperplane: self.pruned_hyperplane - earlier.pruned_hyperplane,
            pruned_range_pivot: self.pruned_range_pivot - earlier.pruned_range_pivot,
            entries_scanned: self.entries_scanned - earlier.entries_scanned,
            entries_filtered: self.entries_filtered - earlier.entries_filtered,
            candidates: self.candidates - earlier.candidates,
            candidates_generated: self.candidates_generated - earlier.candidates_generated,
        }
    }
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells visited ({} pruned hyperplane, {} pruned range), {} scanned, {} filtered, {} candidates ({} generated)",
            self.cells_visited,
            self.pruned_hyperplane,
            self.pruned_range_pivot,
            self.entries_scanned,
            self.entries_filtered,
            self.candidates,
            self.candidates_generated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let mut a = SearchStats {
            cells_visited: 1,
            pruned_hyperplane: 2,
            pruned_range_pivot: 3,
            entries_scanned: 4,
            entries_filtered: 5,
            candidates: 6,
            candidates_generated: 7,
        };
        let one = a;
        a.merge(&a.clone());
        assert_eq!(a.cells_visited, 2);
        assert_eq!(a.candidates, 12);
        assert_eq!(a.candidates_generated, 14);
        assert!(a.to_string().contains("2 cells visited"));
        assert_eq!(a.since(&one), one, "since undoes merge");
    }
}
