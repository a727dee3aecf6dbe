//! Shard-layer timing: the one open of a sharded search, bound into a
//! [`Registry`] under the `shard` component.
//!
//! The sharded server binds one of these against its server registry
//! (`ShardedMIndex::bind_telemetry`), so a `MetricsSnapshot` answer from
//! the sharded server carries the `shard.open` histogram alongside the
//! `server.*` request-path metrics. Timing follows the registry's enabled
//! switch: disabled telemetry reads no clocks on the open path.

use std::sync::Arc;

use simcloud_telemetry::{Histogram, Registry, SpanTimer};

/// The shard-layer histogram, bound to one registry.
///
/// * `shard.open` — one record per search (per query of a batch): taking
///   every shard's read guard, walking each shard's tree and staging and
///   ranking every picked cell into the search's one cursor.
#[derive(Debug, Clone)]
pub struct ShardTiming {
    registry: Registry,
    open: Arc<Histogram>,
}

impl ShardTiming {
    /// Registers the shard histogram on `registry` and binds to its
    /// enabled switch.
    pub fn bind(registry: &Registry) -> Self {
        ShardTiming {
            registry: registry.clone(),
            open: registry.histogram("shard", "open"),
        }
    }

    /// RAII timer for one search's open (free when disabled).
    pub(crate) fn open_timer(&self) -> SpanTimer<'_> {
        SpanTimer::new(&self.open, self.registry.enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_stops_timing() {
        let registry = Registry::new();
        let timing = ShardTiming::bind(&registry);
        {
            let _t = timing.open_timer();
        }
        registry.set_enabled(false);
        {
            let _t = timing.open_timer();
        }
        let text = registry.render();
        assert!(text.contains("histogram shard.open count=1"), "{text}");
        assert!(!text.contains("shard.pull"), "{text}");
        assert!(!text.contains("shard.merge"), "{text}");
    }
}
