//! The trivial scheme (paper §3): perfect privacy, no server-side work.
//!
//! The data owner ships sealed objects with no routing information at all;
//! a query downloads the entire collection, decrypts it and scans. It is
//! the privacy optimum and the communication-cost pessimum — the paper uses
//! it to motivate why *some* structural leakage (permutations) is the price
//! of a usable system.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use simcloud_core::{costs::timed, CostReport, SecretKey};
use simcloud_metric::{Metric, ObjectId, Vector};
use simcloud_transport::InProcessTransport;

use crate::kv::{wire, KvServer};
use crate::{costed_round_trip, Neighbor, SchemeError, SecureScheme};

/// Trivial download-everything scheme.
pub struct TrivialScheme<M: Metric<Vector>> {
    key: SecretKey,
    metric: M,
    transport: InProcessTransport<KvServer>,
    rng: StdRng,
}

impl<M: Metric<Vector>> std::fmt::Debug for TrivialScheme<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrivialScheme").finish_non_exhaustive()
    }
}

impl<M: Metric<Vector>> TrivialScheme<M> {
    /// Creates the scheme with an in-process blob server.
    pub fn new(key: SecretKey, metric: M, seed: u64) -> Self {
        Self {
            key,
            metric,
            transport: InProcessTransport::new(KvServer::new()),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<M: Metric<Vector>> SecureScheme for TrivialScheme<M> {
    fn name(&self) -> &'static str {
        "Trivial"
    }

    fn build(&mut self, data: &[(ObjectId, Vector)]) -> Result<CostReport, SchemeError> {
        let mut costs = CostReport::default();
        let start = Instant::now();
        for (id, o) in data {
            let sealed = timed(&mut costs.encryption, || {
                let mut plain = Vec::with_capacity(o.encoded_len());
                o.encode(&mut plain);
                self.key
                    .cipher()
                    .seal(&plain, self.key.mode(), &mut self.rng)
            });
            let resp =
                costed_round_trip(&mut self.transport, &wire::put(id.0, &sealed), &mut costs)?;
            if !wire::is_put_ok(&resp) {
                return Err(SchemeError::Protocol("put rejected".into()));
            }
        }
        costs.client = start.elapsed().saturating_sub(costs.server);
        Ok(costs)
    }

    fn knn(&mut self, q: &Vector, k: usize) -> Result<(Vec<Neighbor>, CostReport), SchemeError> {
        let mut costs = CostReport::default();
        let start = Instant::now();
        let resp = costed_round_trip(&mut self.transport, &wire::get_all(), &mut costs)?;
        let blobs =
            wire::decode_all(&resp).ok_or_else(|| SchemeError::Protocol("bad get_all".into()))?;
        costs.candidates = blobs.len() as u64;
        let mut scored = Vec::with_capacity(blobs.len());
        for (id, sealed) in blobs {
            let plain = timed(&mut costs.decryption, || self.key.cipher().unseal(&sealed))?;
            let (o, _) = Vector::decode(&plain)
                .map_err(|_| SchemeError::Protocol(format!("object {id} undecodable")))?;
            let d = timed(&mut costs.distance, || self.metric.distance(q, &o));
            scored.push((ObjectId(id), d));
        }
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        scored.truncate(k);
        costs.distance_computations = costs.candidates;
        costs.client = start.elapsed().saturating_sub(costs.server);
        Ok((scored, costs))
    }

    fn is_exact(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud_metric::{PivotSelection, L2};

    fn data(n: usize) -> Vec<(ObjectId, Vector)> {
        (0..n)
            .map(|i| {
                (
                    ObjectId(i as u64),
                    Vector::new(vec![i as f32, (i % 7) as f32]),
                )
            })
            .collect()
    }

    #[test]
    fn trivial_knn_is_exact_and_downloads_everything() {
        let d = data(60);
        let vectors: Vec<Vector> = d.iter().map(|(_, v)| v.clone()).collect();
        let (key, _) = SecretKey::generate(&vectors, 2, &L2, PivotSelection::Random, 1);
        let mut scheme = TrivialScheme::new(key, L2, 2);
        let build = scheme.build(&d).unwrap();
        assert!(build.encryption > std::time::Duration::ZERO);
        let q = Vector::new(vec![10.2, 3.0]);
        let (res, costs) = scheme.knn(&q, 3).unwrap();
        assert_eq!(res[0].0, ObjectId(10));
        assert_eq!(costs.candidates, 60, "downloads the entire collection");
        assert_eq!(costs.distance_computations, 60);
        assert!(scheme.is_exact());
        assert_eq!(scheme.name(), "Trivial");
    }
}
