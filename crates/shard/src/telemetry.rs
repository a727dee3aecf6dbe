//! Shard-layer timing: per-shard cursor opens, frontier pulls and the
//! coordinator's merge, bound into a [`Registry`] under the `shard`
//! component.
//!
//! The sharded server binds one of these against its server registry
//! (`ShardedMIndex::bind_telemetry`), so a `MetricsSnapshot` answer from
//! the sharded server carries `shard.open` / `shard.pull` / `shard.merge`
//! histograms alongside the `server.*` request-path metrics. Timing
//! follows the registry's enabled switch: disabled telemetry reads no
//! clocks on the fan-out path.

use std::sync::Arc;

use simcloud_telemetry::{Histogram, Registry, SpanTimer};

/// Histograms for the scatter-gather lifecycle, bound to one registry.
///
/// * `shard.open` — one record per **shard** per search: that shard's
///   cursor-open time (tree walk + promise staging under its read guard).
/// * `shard.pull` — one record per **sampled** frontier *run* (every 8th;
///   the first run of a drain always records): an uninterrupted pull from
///   the cursor currently holding the global minimum bound. Runs are the
///   drain's hottest unit, so timing them all costs whole percents of
///   query throughput — sampling keeps the distribution without the tax.
/// * `shard.merge` — one record per search: the coordinator's whole
///   lock-free drain of the merged frontier.
#[derive(Debug, Clone)]
pub struct ShardTiming {
    registry: Registry,
    open: Arc<Histogram>,
    pull: Arc<Histogram>,
    merge: Arc<Histogram>,
}

impl ShardTiming {
    /// Registers the shard histograms on `registry` and binds to its
    /// enabled switch.
    pub fn bind(registry: &Registry) -> Self {
        ShardTiming {
            registry: registry.clone(),
            open: registry.histogram("shard", "open"),
            pull: registry.histogram("shard", "pull"),
            merge: registry.histogram("shard", "merge"),
        }
    }

    /// RAII timer for one shard's cursor open (free when disabled).
    pub(crate) fn open_timer(&self) -> SpanTimer<'_> {
        SpanTimer::new(&self.open, self.registry.enabled())
    }

    /// RAII timer for one coordinator drain (free when disabled).
    pub(crate) fn merge_timer(&self) -> SpanTimer<'_> {
        SpanTimer::new(&self.merge, self.registry.enabled())
    }

    /// The pull-run histogram, `None` when telemetry is disabled (the
    /// drain loop then skips its per-run clock reads entirely).
    pub(crate) fn pull_hist(&self) -> Option<&Histogram> {
        self.registry.enabled().then_some(&*self.pull)
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
            let _m = timing.merge_timer();
        }
        assert!(timing.pull_hist().is_some());
        registry.set_enabled(false);
        {
            let _t = timing.open_timer();
        }
        assert!(timing.pull_hist().is_none());
        let text = registry.render();
        assert!(text.contains("histogram shard.open count=1"), "{text}");
        assert!(text.contains("histogram shard.merge count=1"), "{text}");
        assert!(text.contains("histogram shard.pull count=0"), "{text}");
    }
}
