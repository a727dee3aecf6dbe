//! M-Index configuration.

use serde::{Deserialize, Serialize};

use crate::entry::RoutingView;
use crate::index::MIndexError;

/// Which routing information records and queries carry (paper Alg. 1 lines
/// 3–7): the *precise* strategy stores full object–pivot distance vectors,
/// the *approximate* strategy stores only the pivot-permutation prefix.
///
/// The choice is a privacy/efficiency trade-off (§4.2–4.3): distances enable
/// server-side pivot filtering and precise range queries but leak more about
/// the data distribution; permutations leak only an ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingStrategy {
    /// Store object–pivot distances (enables precise range + pivot
    /// filtering).
    Distances,
    /// Store only the permutation prefix (approximate k-NN only).
    Permutation,
}

impl std::fmt::Display for RoutingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingStrategy::Distances => f.write_str("distances"),
            RoutingStrategy::Permutation => f.write_str("permutation"),
        }
    }
}

/// Parameters of an M-Index instance (paper Table 2 lists the evaluation's
/// values: bucket capacity 200/250/1000, 30/50/100 pivots).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MIndexConfig {
    /// Number of pivots `n`.
    pub num_pivots: usize,
    /// Maximum depth of the dynamic cell tree (maximum permutation-prefix
    /// length used for partitioning). The paper's M-Index uses small depths
    /// (2–3) because cell counts grow as n!/(n−l)!.
    pub max_level: usize,
    /// Leaf bucket capacity before a split is attempted.
    pub bucket_capacity: usize,
    /// Routing information stored in records.
    pub strategy: RoutingStrategy,
}

impl MIndexConfig {
    /// Sanity-checks the configuration; called by the index constructor.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_pivots == 0 {
            return Err("num_pivots must be positive".into());
        }
        if self.num_pivots > u16::MAX as usize {
            return Err("num_pivots exceeds u16 routing entries".into());
        }
        if self.max_level == 0 {
            return Err("max_level must be at least 1".into());
        }
        if self.max_level > self.num_pivots {
            return Err("max_level cannot exceed num_pivots".into());
        }
        if self.bucket_capacity == 0 {
            return Err("bucket_capacity must be positive".into());
        }
        Ok(())
    }

    /// Validates a record's routing header against this configuration
    /// **without** an index instance — the check is a pure function of the
    /// config (strategy, pivot count, max level). The index's insert path
    /// delegates here, and a sharded deployment validates records lock-free
    /// before reserving them in its shard-ownership map, with the same
    /// error precedence a direct insert has (shape errors are reported
    /// ahead of duplicate-id errors).
    pub fn validate_routing(&self, routing: &RoutingView<'_>) -> Result<(), MIndexError> {
        match (routing, self.strategy) {
            (RoutingView::Distances(d), RoutingStrategy::Distances) => {
                if d.len() != self.num_pivots {
                    return Err(MIndexError::DimensionMismatch {
                        expected: self.num_pivots,
                        got: d.len(),
                    });
                }
            }
            (RoutingView::Permutation(p), RoutingStrategy::Permutation) => {
                if p.len() < self.max_level {
                    return Err(MIndexError::PrefixTooShort {
                        required: self.max_level,
                        got: p.len(),
                    });
                }
            }
            (_, configured) => {
                return Err(MIndexError::WrongStrategy {
                    required: configured,
                    configured,
                });
            }
        }
        Ok(())
    }

    /// The paper's YEAST configuration (Table 2): 30 pivots, capacity 200.
    pub fn yeast() -> Self {
        Self {
            num_pivots: 30,
            max_level: 3,
            bucket_capacity: 200,
            strategy: RoutingStrategy::Distances,
        }
    }

    /// The paper's HUMAN configuration (Table 2): 50 pivots, capacity 250.
    pub fn human() -> Self {
        Self {
            num_pivots: 50,
            max_level: 3,
            bucket_capacity: 250,
            strategy: RoutingStrategy::Distances,
        }
    }

    /// The paper's CoPhIR configuration (Table 2): 100 pivots, capacity 1000.
    pub fn cophir() -> Self {
        Self {
            num_pivots: 100,
            max_level: 4,
            bucket_capacity: 1000,
            strategy: RoutingStrategy::Distances,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_match_table2() {
        for (cfg, pivots, cap) in [
            (MIndexConfig::yeast(), 30, 200),
            (MIndexConfig::human(), 50, 250),
            (MIndexConfig::cophir(), 100, 1000),
        ] {
            cfg.validate().unwrap();
            assert_eq!(cfg.num_pivots, pivots);
            assert_eq!(cfg.bucket_capacity, cap);
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = MIndexConfig::yeast();
        c.num_pivots = 0;
        assert!(c.validate().is_err());
        let mut c = MIndexConfig::yeast();
        c.max_level = 0;
        assert!(c.validate().is_err());
        let mut c = MIndexConfig::yeast();
        c.max_level = 31;
        assert!(c.validate().is_err());
        let mut c = MIndexConfig::yeast();
        c.bucket_capacity = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn strategy_display() {
        assert_eq!(RoutingStrategy::Distances.to_string(), "distances");
        assert_eq!(RoutingStrategy::Permutation.to_string(), "permutation");
    }
}
