//! Flexible Distance-based Hashing — FDH (Yiu et al. \[4\]).
//!
//! Each object is reduced to an `m`-bit signature: bit `i` says whether
//! `d(o, a_i) ≤ r_i` for anchor `a_i` with threshold radius `r_i` (fitted to
//! the median anchor distance so bits are balanced). Objects live in
//! buckets keyed by signature; a query fetches buckets in increasing
//! Hamming distance from its own signature until enough candidates are
//! gathered, then refines client-side.
//!
//! FDH is *approximate* (like the Encrypted M-Index's k-NN strategy): the
//! true neighbor may hash far away. The paper's Table 9 comparison notes
//! the Encrypted M-Index beats FDH in CPU time at comparable recall.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use simcloud_core::{CostReport, SecretKey};
use simcloud_metric::{Metric, ObjectId, Vector};
use simcloud_transport::{InProcessTransport, SharedRequestHandler, Stopwatch};

use crate::{costed_round_trip, error_frame, Neighbor, SchemeError, SecureScheme};

/// Server half: buckets of sealed objects keyed by signature.
///
/// Protocol:
/// ```text
/// request  := 0x01 u64 id u64 sig u32 len bytes      INSERT
///           | 0x02 u64 sig u32 min_candidates        PROBE
/// response := 0x01                                    insert ok
///           | 0x02 u32 n { u64 id; u32 len; bytes }*n candidates
///           | 0x04 u16 len utf8                       error
/// ```
///
/// PROBE returns whole buckets in increasing Hamming distance from `sig`
/// until at least `min_candidates` objects are collected (or the store is
/// exhausted).
#[derive(Debug, Default)]
pub struct FdhServer {
    buckets: Mutex<HashMap<u64, Bucket>>,
}

/// One signature's objects: `(id, sealed object)` in insertion order.
type Bucket = Vec<(u64, Vec<u8>)>;

impl FdhServer {
    /// The bucket map; a poisoned lock is taken as is (each insert is one
    /// push, so a panicked holder leaves no half-written bucket).
    fn buckets(&self) -> MutexGuard<'_, HashMap<u64, Bucket>> {
        self.buckets.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl SharedRequestHandler for FdhServer {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        match request.first() {
            Some(0x01) => {
                if request.len() < 21 {
                    return error_frame("short insert");
                }
                let id = u64::from_le_bytes(request[1..9].try_into().unwrap());
                let sig = u64::from_le_bytes(request[9..17].try_into().unwrap());
                let len = u32::from_le_bytes(request[17..21].try_into().unwrap()) as usize;
                if request.len() != 21 + len {
                    return error_frame("insert size mismatch");
                }
                self.buckets()
                    .entry(sig)
                    .or_default()
                    .push((id, request[21..].to_vec()));
                vec![0x01]
            }
            Some(0x02) => {
                if request.len() != 13 {
                    return error_frame("short probe");
                }
                let sig = u64::from_le_bytes(request[1..9].try_into().unwrap());
                let min = u32::from_le_bytes(request[9..13].try_into().unwrap()) as usize;
                // Buckets ordered by Hamming distance to the query signature
                // (stable tiebreak on the signature value).
                let buckets = self.buckets();
                let mut keys: Vec<u64> = buckets.keys().copied().collect();
                keys.sort_by_key(|k| ((k ^ sig).count_ones(), *k));
                let mut out = vec![0x02];
                let mut count = 0u32;
                let mut body = Vec::new();
                for k in keys {
                    if count as usize >= min {
                        break;
                    }
                    for (id, sealed) in &buckets[&k] {
                        body.extend_from_slice(&id.to_le_bytes());
                        body.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
                        body.extend_from_slice(sealed);
                        count += 1;
                    }
                }
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&body);
                out
            }
            _ => error_frame("unknown op"),
        }
    }
}

/// FDH configuration.
#[derive(Debug, Clone, Copy)]
pub struct FdhConfig {
    /// Number of anchor bits (≤ 64).
    pub bits: usize,
    /// Candidates requested per query (the accuracy/efficiency dial,
    /// like the M-Index CandSize).
    pub min_candidates: usize,
}

impl Default for FdhConfig {
    fn default() -> Self {
        Self {
            bits: 16,
            min_candidates: 48,
        }
    }
}

/// The FDH scheme.
pub struct FdhScheme<M: Metric<Vector>> {
    key: SecretKey,
    metric: M,
    config: FdhConfig,
    anchors: Vec<Vector>,
    radii: Vec<f64>,
    transport: InProcessTransport<FdhServer>,
    rng: StdRng,
}

impl<M: Metric<Vector>> std::fmt::Debug for FdhScheme<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FdhScheme").finish_non_exhaustive()
    }
}

impl<M: Metric<Vector>> FdhScheme<M> {
    /// Creates the scheme (anchors/radii fitted in `build`).
    pub fn new(key: SecretKey, metric: M, config: FdhConfig, seed: u64) -> Self {
        assert!(config.bits >= 1 && config.bits <= 64);
        Self {
            key,
            metric,
            config,
            anchors: Vec::new(),
            radii: Vec::new(),
            transport: InProcessTransport::new(FdhServer::default()),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn signature(&self, o: &Vector) -> u64 {
        let mut sig = 0u64;
        for (i, (a, r)) in self.anchors.iter().zip(&self.radii).enumerate() {
            if self.metric.distance(o, a) <= *r {
                sig |= 1 << i;
            }
        }
        sig
    }
}

impl<M: Metric<Vector>> SecureScheme for FdhScheme<M> {
    fn name(&self) -> &'static str {
        "FDH"
    }

    fn build(&mut self, data: &[(ObjectId, Vector)]) -> Result<CostReport, SchemeError> {
        let mut costs = CostReport::default();
        let start = Instant::now();
        let vectors: Vec<Vector> = data.iter().map(|(_, v)| v.clone()).collect();
        let mut dist = Stopwatch::new();
        self.anchors = simcloud_metric::select_pivots(
            &vectors,
            self.config.bits.min(vectors.len()),
            &self.metric,
            simcloud_metric::PivotSelection::Random,
            0xFD4,
        );
        // Balanced radii: median distance from a sample to each anchor.
        dist.time(|| {
            let step = (vectors.len() / 64).max(1);
            self.radii = self
                .anchors
                .iter()
                .map(|a| {
                    let mut ds: Vec<f64> = vectors
                        .iter()
                        .step_by(step)
                        .map(|v| self.metric.distance(v, a))
                        .collect();
                    ds.sort_by(|x, y| x.partial_cmp(y).unwrap());
                    ds[ds.len() / 2]
                })
                .collect();
        });
        let mut enc = Stopwatch::new();
        for (id, o) in data {
            let sig = dist.time(|| self.signature(o));
            costs.distance_computations += self.anchors.len() as u64;
            let sealed = enc.time(|| {
                let mut plain = Vec::with_capacity(o.encoded_len());
                o.encode(&mut plain);
                self.key
                    .cipher()
                    .seal(&plain, self.key.mode(), &mut self.rng)
            });
            let mut req = Vec::with_capacity(21 + sealed.len());
            req.push(0x01);
            req.extend_from_slice(&id.0.to_le_bytes());
            req.extend_from_slice(&sig.to_le_bytes());
            req.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
            req.extend_from_slice(&sealed);
            let resp = costed_round_trip(&mut self.transport, &req, &mut costs)?;
            if resp != [0x01] {
                return Err(SchemeError::Protocol("insert rejected".into()));
            }
        }
        costs.encryption = enc.total();
        costs.distance = dist.total();
        costs.client = start.elapsed().saturating_sub(costs.server);
        Ok(costs)
    }

    fn knn(&mut self, q: &Vector, k: usize) -> Result<(Vec<Neighbor>, CostReport), SchemeError> {
        assert!(!self.anchors.is_empty(), "build() must run before knn()");
        let mut costs = CostReport::default();
        let start = Instant::now();
        let mut dist = Stopwatch::new();
        let sig = dist.time(|| self.signature(q));
        costs.distance_computations += self.anchors.len() as u64;

        let mut req = vec![0x02];
        req.extend_from_slice(&sig.to_le_bytes());
        req.extend_from_slice(&(self.config.min_candidates.max(k) as u32).to_le_bytes());
        let resp = costed_round_trip(&mut self.transport, &req, &mut costs)?;
        if resp.first() != Some(&0x02) || resp.len() < 5 {
            return Err(SchemeError::Protocol("bad probe response".into()));
        }
        let n = u32::from_le_bytes(resp[1..5].try_into().unwrap()) as usize;
        costs.candidates = n as u64;
        let mut off = 5;
        let mut dec = Stopwatch::new();
        let mut result = Vec::with_capacity(n);
        for _ in 0..n {
            if resp.len() < off + 12 {
                return Err(SchemeError::Protocol("candidate truncated".into()));
            }
            let id = u64::from_le_bytes(resp[off..off + 8].try_into().unwrap());
            let len = u32::from_le_bytes(resp[off + 8..off + 12].try_into().unwrap()) as usize;
            off += 12;
            let sealed = &resp[off..off + len];
            off += len;
            let plain = dec.time(|| self.key.cipher().unseal(sealed))?;
            let (o, _) = Vector::decode(&plain)
                .map_err(|_| SchemeError::Protocol(format!("object {id} undecodable")))?;
            let d = dist.time(|| self.metric.distance(q, &o));
            costs.distance_computations += 1;
            result.push((ObjectId(id), d));
        }
        result.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        result.truncate(k);
        costs.decryption = dec.total();
        costs.distance = dist.total();
        costs.client = start.elapsed().saturating_sub(costs.server);
        Ok((result, costs))
    }

    fn is_exact(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use simcloud_metric::{PivotSelection, L2};

    fn data(n: usize, seed: u64) -> Vec<(ObjectId, Vector)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    ObjectId(i as u64),
                    Vector::new(vec![rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)]),
                )
            })
            .collect()
    }

    #[test]
    fn fdh_returns_k_results_with_reasonable_quality() {
        let d = data(400, 1);
        let vectors: Vec<Vector> = d.iter().map(|(_, v)| v.clone()).collect();
        let (key, _) = SecretKey::generate(&vectors, 2, &L2, PivotSelection::Random, 2);
        let mut scheme = FdhScheme::new(key, L2, FdhConfig::default(), 3);
        scheme.build(&d).unwrap();
        // self-queries: the exact object hashes into the probed bucket, so
        // 1-NN recall on member queries should be high
        let mut hits = 0;
        for qi in (0..400).step_by(40) {
            let (res, costs) = scheme.knn(&d[qi].1, 1).unwrap();
            assert!(!res.is_empty());
            assert!(costs.candidates >= 1);
            if res[0].0 == d[qi].0 && res[0].1 == 0.0 {
                hits += 1;
            }
        }
        assert!(hits >= 9, "member 1-NN hits only {hits}/10");
        assert!(!scheme.is_exact());
    }

    #[test]
    fn fdh_candidates_bounded_by_request() {
        let d = data(500, 5);
        let vectors: Vec<Vector> = d.iter().map(|(_, v)| v.clone()).collect();
        let (key, _) = SecretKey::generate(&vectors, 2, &L2, PivotSelection::Random, 6);
        let cfg = FdhConfig {
            bits: 12,
            min_candidates: 40,
        };
        let mut scheme = FdhScheme::new(key, L2, cfg, 7);
        scheme.build(&d).unwrap();
        let (_, costs) = scheme.knn(&d[3].1, 1).unwrap();
        assert!(
            costs.candidates < 500,
            "probe returned {} of 500",
            costs.candidates
        );
    }

    #[test]
    fn server_probe_orders_by_hamming() {
        let s = FdhServer::default();
        let put = |s: &FdhServer, id: u64, sig: u64| {
            let mut req = vec![0x01];
            req.extend_from_slice(&id.to_le_bytes());
            req.extend_from_slice(&sig.to_le_bytes());
            req.extend_from_slice(&1u32.to_le_bytes());
            req.push(0xAB);
            assert_eq!(s.handle_shared(&req), vec![0x01]);
        };
        put(&s, 1, 0b0000);
        put(&s, 2, 0b0001);
        put(&s, 3, 0b1111);
        let mut probe = vec![0x02];
        probe.extend_from_slice(&0b0000u64.to_le_bytes());
        probe.extend_from_slice(&2u32.to_le_bytes());
        let resp = s.handle_shared(&probe);
        let n = u32::from_le_bytes(resp[1..5].try_into().unwrap());
        assert_eq!(n, 2);
        // first candidate must be from the exact bucket (id 1)
        let first_id = u64::from_le_bytes(resp[5..13].try_into().unwrap());
        assert_eq!(first_id, 1);
    }
}
