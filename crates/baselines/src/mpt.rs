//! Metric-Preserving Transformation — MPT (paper §3.2, after Yiu et al. \[4\]).
//!
//! Objects are represented server-side by their distances to `m` public
//! anchor objects, each distance encrypted with an **order-preserving
//! encryption** (OPE). The OPE must be built from "a representative sample
//! of the data collection before the indexing structure is built" (the
//! paper's §3.2 criticism — reproduced here: the OPE is fitted to sample
//! quantiles). The server can compare encrypted distances, so it filters
//! candidates by interval containment without learning true distances; the
//! client refines after decryption.
//!
//! * Range query `R(q, r)`: a true match satisfies `|d(o,a_i) − d(q,a_i)| ≤
//!   r` for every anchor, so `E(d(o,a_i)) ∈ [E(d(q,a_i)−r), E(d(q,a_i)+r)]`
//!   by order preservation. The client (which owns the OPE key) sends the
//!   `m` encrypted intervals; the server returns objects inside all of
//!   them. Complete (no false dismissals), with false positives.
//! * k-NN: radius expansion — start from a radius estimated from the OPE
//!   sample, double until ≥ k results, exact refinement on the client.
//!
//! This scheme hides distance values *and* the distribution (privacy
//! level 4 of §2.3) — at the cost the paper observes: weaker server-side
//! pruning than the Encrypted M-Index's cell structure.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use simcloud_core::{CostReport, DistanceTransform, SecretKey};
use simcloud_metric::{Metric, ObjectId, Vector};
use simcloud_transport::{InProcessTransport, SharedRequestHandler, Stopwatch};

use crate::{costed_round_trip, error_frame, Neighbor, SchemeError, SecureScheme};

/// Server half: stores `(id, encrypted anchor distances, sealed object)`
/// rows and filters by encrypted-interval containment.
///
/// Protocol:
/// ```text
/// request  := 0x01 u64 id u16 m { f64 }*m u32 len bytes     INSERT row
///           | 0x02 u16 m { f64 lo; f64 hi }*m               FILTER
/// response := 0x01                                           insert ok
///           | 0x02 u32 n { u64 id; u32 len; bytes }*n        candidates
///           | 0x04 u16 len utf8                              error
/// ```
#[derive(Debug, Default)]
pub struct MptServer {
    rows: Mutex<Vec<MptRow>>,
}

/// One stored row: id, encrypted anchor distances, sealed object.
type MptRow = (u64, Vec<f64>, Vec<u8>);

impl MptServer {
    /// The stored rows; a poisoned lock is taken as is (each insert is one
    /// push, so a panicked holder leaves no half-written row).
    fn rows(&self) -> MutexGuard<'_, Vec<MptRow>> {
        self.rows.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl SharedRequestHandler for MptServer {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        match request.first() {
            Some(0x01) => {
                if request.len() < 11 {
                    return error_frame("short insert");
                }
                let id = u64::from_le_bytes(request[1..9].try_into().unwrap());
                let m = u16::from_le_bytes([request[9], request[10]]) as usize;
                let mut off = 11;
                if request.len() < off + 8 * m + 4 {
                    return error_frame("insert truncated");
                }
                let mut enc_ds = Vec::with_capacity(m);
                for _ in 0..m {
                    enc_ds.push(f64::from_le_bytes(
                        request[off..off + 8].try_into().unwrap(),
                    ));
                    off += 8;
                }
                let len = u32::from_le_bytes(request[off..off + 4].try_into().unwrap()) as usize;
                off += 4;
                if request.len() != off + len {
                    return error_frame("insert payload mismatch");
                }
                self.rows().push((id, enc_ds, request[off..].to_vec()));
                vec![0x01]
            }
            Some(0x02) => {
                if request.len() < 3 {
                    return error_frame("short filter");
                }
                let m = u16::from_le_bytes([request[1], request[2]]) as usize;
                if request.len() != 3 + 16 * m {
                    return error_frame("filter size mismatch");
                }
                let mut intervals = Vec::with_capacity(m);
                for i in 0..m {
                    let off = 3 + 16 * i;
                    let lo = f64::from_le_bytes(request[off..off + 8].try_into().unwrap());
                    let hi = f64::from_le_bytes(request[off + 8..off + 16].try_into().unwrap());
                    intervals.push((lo, hi));
                }
                let mut out = vec![0x02];
                let mut count = 0u32;
                let mut body = Vec::new();
                for (id, enc_ds, sealed) in self.rows().iter() {
                    if enc_ds.len() == m
                        && enc_ds
                            .iter()
                            .zip(&intervals)
                            .all(|(d, (lo, hi))| d >= lo && d <= hi)
                    {
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

/// MPT configuration.
#[derive(Debug, Clone, Copy)]
pub struct MptConfig {
    /// Number of anchors `m`.
    pub anchors: usize,
    /// OPE segments (irregularity of the order-preserving function).
    pub ope_segments: usize,
}

impl Default for MptConfig {
    fn default() -> Self {
        Self {
            anchors: 8,
            ope_segments: 12,
        }
    }
}

/// The MPT scheme.
pub struct MptScheme<M: Metric<Vector>> {
    key: SecretKey,
    metric: M,
    config: MptConfig,
    anchors: Vec<Vector>,
    ope: Option<DistanceTransform>,
    /// Median pairwise distance of the fitting sample — the k-NN radius
    /// expansion seed.
    seed_radius: f64,
    transport: InProcessTransport<MptServer>,
    rng: StdRng,
}

impl<M: Metric<Vector>> std::fmt::Debug for MptScheme<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MptScheme").finish_non_exhaustive()
    }
}

impl<M: Metric<Vector>> MptScheme<M> {
    /// Creates the scheme; anchors and the OPE are fitted during
    /// [`SecureScheme::build`] from the data (the sample-dependence the
    /// paper criticizes).
    pub fn new(key: SecretKey, metric: M, config: MptConfig, seed: u64) -> Self {
        Self {
            key,
            metric,
            config,
            anchors: Vec::new(),
            ope: None,
            seed_radius: 1.0,
            transport: InProcessTransport::new(MptServer::default()),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn filter_request(&self, enc_intervals: &[(f64, f64)]) -> Vec<u8> {
        let mut req = vec![0x02];
        req.extend_from_slice(&(enc_intervals.len() as u16).to_le_bytes());
        for (lo, hi) in enc_intervals {
            req.extend_from_slice(&lo.to_le_bytes());
            req.extend_from_slice(&hi.to_le_bytes());
        }
        req
    }

    fn decode_candidates(resp: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, SchemeError> {
        if resp.first() != Some(&0x02) || resp.len() < 5 {
            return Err(SchemeError::Protocol("bad filter response".into()));
        }
        let n = u32::from_le_bytes(resp[1..5].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(n);
        let mut off = 5;
        for _ in 0..n {
            if resp.len() < off + 12 {
                return Err(SchemeError::Protocol("candidate truncated".into()));
            }
            let id = u64::from_le_bytes(resp[off..off + 8].try_into().unwrap());
            let len = u32::from_le_bytes(resp[off + 8..off + 12].try_into().unwrap()) as usize;
            off += 12;
            if resp.len() < off + len {
                return Err(SchemeError::Protocol("candidate payload truncated".into()));
            }
            out.push((id, resp[off..off + len].to_vec()));
            off += len;
        }
        Ok(out)
    }

    /// One filtered range pass; returns refined in-radius results.
    fn range_pass(
        &mut self,
        q: &Vector,
        q_anchor_ds: &[f64],
        radius: f64,
        costs: &mut CostReport,
    ) -> Result<Vec<Neighbor>, SchemeError> {
        let ope = self.ope.as_ref().expect("built");
        let intervals: Vec<(f64, f64)> = q_anchor_ds
            .iter()
            .map(|&d| {
                let lo = (d - radius).max(0.0);
                let hi = d + radius;
                (ope.apply(lo), ope.apply(hi))
            })
            .collect();
        let req = self.filter_request(&intervals);
        let resp = costed_round_trip(&mut self.transport, &req, costs)?;
        let cands = Self::decode_candidates(&resp)?;
        costs.candidates += cands.len() as u64;
        let mut dec = Stopwatch::new();
        let mut dist = Stopwatch::new();
        let mut result = Vec::new();
        for (id, sealed) in cands {
            let plain = dec.time(|| self.key.cipher().unseal(&sealed))?;
            let (o, _) = Vector::decode(&plain)
                .map_err(|_| SchemeError::Protocol(format!("object {id} undecodable")))?;
            let d = dist.time(|| self.metric.distance(q, &o));
            costs.distance_computations += 1;
            if d <= radius {
                result.push((ObjectId(id), d));
            }
        }
        costs.decryption += dec.total();
        costs.distance += dist.total();
        result.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        Ok(result)
    }
}

impl<M: Metric<Vector>> SecureScheme for MptScheme<M> {
    fn name(&self) -> &'static str {
        "MPT"
    }

    fn build(&mut self, data: &[(ObjectId, Vector)]) -> Result<CostReport, SchemeError> {
        let mut costs = CostReport::default();
        let start = Instant::now();
        let vectors: Vec<Vector> = data.iter().map(|(_, v)| v.clone()).collect();
        // Fit anchors + OPE from the collection sample (requirement §3.2).
        let mut dist = Stopwatch::new();
        self.anchors = simcloud_metric::select_pivots(
            &vectors,
            self.config.anchors.min(vectors.len()),
            &self.metric,
            simcloud_metric::PivotSelection::Random,
            0xA2C40,
        );
        // Sample pairwise distances for d_max and the radius seed.
        let mut sample_ds = Vec::new();
        dist.time(|| {
            let step = (vectors.len() / 64).max(1);
            for i in (0..vectors.len()).step_by(step) {
                for a in &self.anchors {
                    sample_ds.push(self.metric.distance(&vectors[i], a));
                }
            }
        });
        sample_ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let d_max = sample_ds.last().copied().unwrap_or(1.0).max(1e-9) * 1.5;
        self.seed_radius = sample_ds
            .get(sample_ds.len() / 16)
            .copied()
            .unwrap_or(1.0)
            .max(1e-9);
        self.ope = Some(DistanceTransform::from_seed(
            0x09E5EED,
            d_max,
            self.config.ope_segments,
        ));

        let mut enc = Stopwatch::new();
        for (id, o) in data {
            let anchor_ds: Vec<f64> = dist.time(|| {
                self.anchors
                    .iter()
                    .map(|a| self.metric.distance(o, a))
                    .collect()
            });
            costs.distance_computations += self.anchors.len() as u64;
            let ope = self.ope.as_ref().unwrap();
            let enc_ds: Vec<f64> = anchor_ds.iter().map(|&d| ope.apply(d)).collect();
            let sealed = enc.time(|| {
                let mut plain = Vec::with_capacity(o.encoded_len());
                o.encode(&mut plain);
                self.key
                    .cipher()
                    .seal(&plain, self.key.mode(), &mut self.rng)
            });
            let mut req = Vec::with_capacity(11 + 8 * enc_ds.len() + 4 + sealed.len());
            req.push(0x01);
            req.extend_from_slice(&id.0.to_le_bytes());
            req.extend_from_slice(&(enc_ds.len() as u16).to_le_bytes());
            for d in &enc_ds {
                req.extend_from_slice(&d.to_le_bytes());
            }
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
        assert!(self.ope.is_some(), "build() must run before knn()");
        let mut costs = CostReport::default();
        let start = Instant::now();
        let mut dist = Stopwatch::new();
        let q_anchor_ds: Vec<f64> = dist.time(|| {
            self.anchors
                .iter()
                .map(|a| self.metric.distance(q, a))
                .collect()
        });
        costs.distance_computations += self.anchors.len() as u64;
        costs.distance += dist.total();

        // Radius expansion until k results (exact: the final pass's range
        // filter is complete for its radius, and we only stop once k are
        // inside the radius — their distances certify correctness).
        let mut radius = self.seed_radius;
        let mut result = Vec::new();
        for _ in 0..32 {
            result = self.range_pass(q, &q_anchor_ds, radius, &mut costs)?;
            if result.len() >= k {
                break;
            }
            radius *= 2.0;
        }
        result.truncate(k);
        costs.client = start.elapsed().saturating_sub(costs.server);
        Ok((result, costs))
    }

    fn is_exact(&self) -> bool {
        true
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
                    Vector::new(vec![
                        rng.gen_range(-4.0..4.0),
                        rng.gen_range(-4.0..4.0),
                        rng.gen_range(-4.0..4.0),
                    ]),
                )
            })
            .collect()
    }

    fn brute(data: &[(ObjectId, Vector)], q: &Vector, k: usize) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = data
            .iter()
            .map(|(id, o)| (*id, simcloud_metric::Metric::distance(&L2, q, o)))
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn mpt_knn_is_exact() {
        let d = data(150, 5);
        let vectors: Vec<Vector> = d.iter().map(|(_, v)| v.clone()).collect();
        let (key, _) = SecretKey::generate(&vectors, 2, &L2, PivotSelection::Random, 6);
        let mut scheme = MptScheme::new(key, L2, MptConfig::default(), 7);
        scheme.build(&d).unwrap();
        for qi in [0usize, 60, 120] {
            let q = &d[qi].1;
            let (got, _) = scheme.knn(q, 4).unwrap();
            let want = brute(&d, q, 4);
            assert_eq!(got.len(), 4, "query {qi}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9, "query {qi}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn mpt_filters_candidates() {
        let d = data(300, 9);
        let vectors: Vec<Vector> = d.iter().map(|(_, v)| v.clone()).collect();
        let (key, _) = SecretKey::generate(&vectors, 2, &L2, PivotSelection::Random, 10);
        let mut scheme = MptScheme::new(key, L2, MptConfig::default(), 11);
        scheme.build(&d).unwrap();
        let q = &d[0].1;
        let (_, costs) = scheme.knn(q, 1).unwrap();
        assert!(
            costs.candidates < 300,
            "anchor filtering should prune: {} candidates",
            costs.candidates
        );
    }

    #[test]
    fn server_interval_filter_logic() {
        let server = MptServer::default();
        // insert row with enc distances [5.0, 10.0]
        let mut req = vec![0x01];
        req.extend_from_slice(&1u64.to_le_bytes());
        req.extend_from_slice(&2u16.to_le_bytes());
        req.extend_from_slice(&5.0f64.to_le_bytes());
        req.extend_from_slice(&10.0f64.to_le_bytes());
        req.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(server.handle_shared(&req), vec![0x01]);
        // filter matching
        let mk_filter = |lo1: f64, hi1: f64, lo2: f64, hi2: f64| {
            let mut f = vec![0x02];
            f.extend_from_slice(&2u16.to_le_bytes());
            f.extend_from_slice(&lo1.to_le_bytes());
            f.extend_from_slice(&hi1.to_le_bytes());
            f.extend_from_slice(&lo2.to_le_bytes());
            f.extend_from_slice(&hi2.to_le_bytes());
            f
        };
        let hit = server.handle_shared(&mk_filter(4.0, 6.0, 9.0, 11.0));
        assert_eq!(u32::from_le_bytes(hit[1..5].try_into().unwrap()), 1);
        let miss = server.handle_shared(&mk_filter(4.0, 6.0, 11.0, 12.0));
        assert_eq!(u32::from_le_bytes(miss[1..5].try_into().unwrap()), 0);
    }
}
