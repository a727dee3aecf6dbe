//! Encrypted Hierarchical Index — EHI (paper §3.1, after Yiu et al. \[4\]).
//!
//! A ball-tree-like metric tree is built client-side; every node is sealed
//! into an individually encrypted blob and PUT to a dumb blob store. Search
//! logic runs entirely on the client: best-first traversal, one round trip
//! per visited node, decrypting each node to decide where to descend.
//! Exact k-NN via the standard lower-bound argument
//! `lb(node) = max(0, d(q, center) − radius)`.
//!
//! The paper's critique, reproduced measurably here: "a lot of traffic is
//! between client and the server … the client has to perform a lot of
//! encryption/decryption operations" — compare the round-trip and byte
//! counts with the Encrypted M-Index in Table 9.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use simcloud_core::{CostReport, SecretKey};
use simcloud_metric::{Metric, ObjectId, Vector};
use simcloud_transport::{InProcessTransport, Stopwatch, Transport};

use crate::kv::{wire, KvServer};
use crate::{costed_round_trip, Neighbor, SchemeError, SecureScheme};

const ROOT_KEY: u64 = 0;

/// Plaintext node structure (sealed as one blob per node).
enum PlainNode {
    Internal(Vec<ChildRef>),
    Leaf(Vec<(u64, Vector)>),
}

struct ChildRef {
    node_key: u64,
    center: Vector,
    radius: f64,
}

fn encode_node(node: &PlainNode) -> Vec<u8> {
    let mut out = Vec::new();
    match node {
        PlainNode::Internal(children) => {
            out.push(1);
            out.extend_from_slice(&(children.len() as u32).to_le_bytes());
            for c in children {
                out.extend_from_slice(&c.node_key.to_le_bytes());
                out.extend_from_slice(&c.radius.to_le_bytes());
                c.center.encode(&mut out);
            }
        }
        PlainNode::Leaf(objs) => {
            out.push(2);
            out.extend_from_slice(&(objs.len() as u32).to_le_bytes());
            for (id, v) in objs {
                out.extend_from_slice(&id.to_le_bytes());
                v.encode(&mut out);
            }
        }
    }
    out
}

fn decode_node(buf: &[u8]) -> Option<PlainNode> {
    match buf.first()? {
        1 => {
            let n = u32::from_le_bytes(buf.get(1..5)?.try_into().ok()?) as usize;
            let mut off = 5;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                let node_key = u64::from_le_bytes(buf.get(off..off + 8)?.try_into().ok()?);
                let radius = f64::from_le_bytes(buf.get(off + 8..off + 16)?.try_into().ok()?);
                off += 16;
                let (center, used) = Vector::decode(&buf[off..]).ok()?;
                off += used;
                children.push(ChildRef {
                    node_key,
                    center,
                    radius,
                });
            }
            Some(PlainNode::Internal(children))
        }
        2 => {
            let n = u32::from_le_bytes(buf.get(1..5)?.try_into().ok()?) as usize;
            let mut off = 5;
            let mut objs = Vec::with_capacity(n);
            for _ in 0..n {
                let id = u64::from_le_bytes(buf.get(off..off + 8)?.try_into().ok()?);
                off += 8;
                let (v, used) = Vector::decode(&buf[off..]).ok()?;
                off += used;
                objs.push((id, v));
            }
            Some(PlainNode::Leaf(objs))
        }
        _ => None,
    }
}

/// EHI configuration.
#[derive(Debug, Clone, Copy)]
pub struct EhiConfig {
    /// Fan-out of internal nodes.
    pub fanout: usize,
    /// Maximum leaf size.
    pub leaf_size: usize,
}

impl Default for EhiConfig {
    fn default() -> Self {
        Self {
            fanout: 8,
            leaf_size: 16,
        }
    }
}

/// The EHI scheme.
pub struct EhiScheme<M: Metric<Vector>> {
    key: SecretKey,
    metric: M,
    config: EhiConfig,
    transport: InProcessTransport<KvServer>,
    rng: StdRng,
    next_key: u64,
}

impl<M: Metric<Vector>> std::fmt::Debug for EhiScheme<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EhiScheme").finish_non_exhaustive()
    }
}

impl<M: Metric<Vector>> EhiScheme<M> {
    /// Creates the scheme with an in-process blob server.
    pub fn new(key: SecretKey, metric: M, config: EhiConfig, seed: u64) -> Self {
        Self {
            key,
            metric,
            config,
            transport: InProcessTransport::new(KvServer::new()),
            rng: StdRng::seed_from_u64(seed),
            next_key: 1,
        }
    }

    fn alloc_key(&mut self) -> u64 {
        let k = self.next_key;
        self.next_key += 1;
        k
    }

    /// Recursive balanced clustering: pick `fanout` spread-out centers,
    /// assign objects to the closest, recurse.
    fn build_tree(
        &mut self,
        node_key: u64,
        objs: Vec<(u64, Vector)>,
        out: &mut Vec<(u64, PlainNode)>,
    ) {
        if objs.len() <= self.config.leaf_size {
            out.push((node_key, PlainNode::Leaf(objs)));
            return;
        }
        // Farthest-first centers for spread (deterministic from first obj).
        let mut centers: Vec<Vector> = vec![objs[0].1.clone()];
        while centers.len() < self.config.fanout.min(objs.len()) {
            let far = objs
                .iter()
                .max_by(|a, b| {
                    let da = centers
                        .iter()
                        .map(|c| self.metric.distance(&a.1, c))
                        .fold(f64::INFINITY, f64::min);
                    let db = centers
                        .iter()
                        .map(|c| self.metric.distance(&b.1, c))
                        .fold(f64::INFINITY, f64::min);
                    da.partial_cmp(&db).unwrap_or(Ordering::Equal)
                })
                .unwrap()
                .1
                .clone();
            centers.push(far);
        }
        let mut groups: Vec<Vec<(u64, Vector)>> = vec![Vec::new(); centers.len()];
        for (id, v) in objs {
            let (gi, _) = centers
                .iter()
                .enumerate()
                .map(|(i, c)| (i, self.metric.distance(&v, c)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
                .unwrap();
            groups[gi].push((id, v));
        }
        let mut children = Vec::new();
        for (gi, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Degenerate split (all in one group): force a leaf to end the
            // recursion even above leaf_size.
            let child_key = self.alloc_key();
            let radius = group
                .iter()
                .map(|(_, v)| self.metric.distance(v, &centers[gi]))
                .fold(0.0f64, f64::max);
            children.push(ChildRef {
                node_key: child_key,
                center: centers[gi].clone(),
                radius,
            });
            self.build_tree_or_leaf(child_key, group, out);
        }
        out.push((node_key, PlainNode::Internal(children)));
    }

    fn build_tree_or_leaf(
        &mut self,
        node_key: u64,
        group: Vec<(u64, Vector)>,
        out: &mut Vec<(u64, PlainNode)>,
    ) {
        // Guard against non-progress: if clustering cannot split (all
        // identical objects), emit a leaf regardless of size.
        let all_same = group.windows(2).all(|w| w[0].1 == w[1].1);
        if all_same || group.len() <= self.config.leaf_size {
            out.push((node_key, PlainNode::Leaf(group)));
        } else {
            self.build_tree(node_key, group, out);
        }
    }

    /// Round trips performed so far (Table 9 discussion point).
    pub fn round_trips(&self) -> u64 {
        self.transport.stats().requests
    }
}

impl<M: Metric<Vector>> SecureScheme for EhiScheme<M> {
    fn name(&self) -> &'static str {
        "EHI"
    }

    fn build(&mut self, data: &[(ObjectId, Vector)]) -> Result<CostReport, SchemeError> {
        let mut costs = CostReport::default();
        let start = Instant::now();
        let objs: Vec<(u64, Vector)> = data.iter().map(|(id, v)| (id.0, v.clone())).collect();
        let mut nodes = Vec::new();
        let mut dist = Stopwatch::new();
        dist.time(|| self.build_tree_or_leaf(ROOT_KEY, objs, &mut nodes));
        let mut enc = Stopwatch::new();
        for (key, node) in nodes {
            let plain = encode_node(&node);
            let sealed = enc.time(|| {
                self.key
                    .cipher()
                    .seal(&plain, self.key.mode(), &mut self.rng)
            });
            let resp =
                costed_round_trip(&mut self.transport, &wire::put(key, &sealed), &mut costs)?;
            if !wire::is_put_ok(&resp) {
                return Err(SchemeError::Protocol("put rejected".into()));
            }
        }
        costs.encryption = enc.total();
        costs.distance = dist.total();
        costs.client = start.elapsed().saturating_sub(costs.server);
        Ok(costs)
    }

    fn knn(&mut self, q: &Vector, k: usize) -> Result<(Vec<Neighbor>, CostReport), SchemeError> {
        let mut costs = CostReport::default();
        let start = Instant::now();
        let mut dec = Stopwatch::new();
        let mut dist = Stopwatch::new();
        let mut dc = 0u64;

        // Best-first search over (lower_bound, node_key).
        struct Q(f64, u64);
        impl PartialEq for Q {
            fn eq(&self, o: &Self) -> bool {
                self.0 == o.0 && self.1 == o.1
            }
        }
        impl Eq for Q {}
        impl PartialOrd for Q {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Q {
            fn cmp(&self, o: &Self) -> Ordering {
                o.0.partial_cmp(&self.0)
                    .unwrap_or(Ordering::Equal)
                    .then(o.1.cmp(&self.1))
            }
        }
        let mut heap = BinaryHeap::new();
        heap.push(Q(0.0, ROOT_KEY));
        let mut result: Vec<Neighbor> = Vec::new();
        let kth = |r: &Vec<Neighbor>| {
            if r.len() < k {
                f64::INFINITY
            } else {
                r[k - 1].1
            }
        };
        while let Some(Q(lb, node_key)) = heap.pop() {
            if lb > kth(&result) {
                break; // no node can improve the answer
            }
            let resp = costed_round_trip(&mut self.transport, &wire::get(node_key), &mut costs)?;
            let sealed =
                wire::decode_blob(&resp).ok_or_else(|| SchemeError::Protocol("bad blob".into()))?;
            let plain = dec.time(|| self.key.cipher().unseal(&sealed))?;
            let node = decode_node(&plain)
                .ok_or_else(|| SchemeError::Protocol("node undecodable".into()))?;
            match node {
                PlainNode::Internal(children) => {
                    for c in children {
                        let d = dist.time(|| self.metric.distance(q, &c.center));
                        dc += 1;
                        let lb = (d - c.radius).max(0.0);
                        if lb <= kth(&result) {
                            heap.push(Q(lb, c.node_key));
                        }
                    }
                }
                PlainNode::Leaf(objs) => {
                    for (id, v) in objs {
                        let d = dist.time(|| self.metric.distance(q, &v));
                        dc += 1;
                        result.push((ObjectId(id), d));
                    }
                    result.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
                    result.truncate(k);
                }
            }
        }
        costs.decryption = dec.total();
        costs.distance = dist.total();
        costs.distance_computations = dc;
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
                    Vector::new(vec![rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)]),
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
    fn ehi_knn_is_exact() {
        let d = data(200, 1);
        let vectors: Vec<Vector> = d.iter().map(|(_, v)| v.clone()).collect();
        let (key, _) = SecretKey::generate(&vectors, 2, &L2, PivotSelection::Random, 2);
        let mut scheme = EhiScheme::new(key, L2, EhiConfig::default(), 3);
        scheme.build(&d).unwrap();
        for qi in [0usize, 50, 150] {
            let q = &d[qi].1;
            let (got, _) = scheme.knn(q, 5).unwrap();
            let want = brute(&d, q, 5);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9, "query {qi}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn ehi_visits_fewer_nodes_than_trivial_bytes() {
        let d = data(400, 7);
        let vectors: Vec<Vector> = d.iter().map(|(_, v)| v.clone()).collect();
        let (key, _) = SecretKey::generate(&vectors, 2, &L2, PivotSelection::Random, 8);
        let mut scheme = EhiScheme::new(key, L2, EhiConfig::default(), 9);
        scheme.build(&d).unwrap();
        let build_rts = scheme.round_trips();
        let q = &d[10].1;
        let (res, costs) = scheme.knn(q, 1).unwrap();
        assert_eq!(res[0].0, d[10].0);
        let query_rts = scheme.round_trips() - build_rts;
        assert!(query_rts > 1, "EHI must do multiple round trips");
        assert!(
            costs.bytes_received < 400 * 2 * 4, // far less than all vectors
            "EHI should not download everything: {} bytes",
            costs.bytes_received
        );
    }

    #[test]
    fn ehi_handles_duplicates() {
        let v = Vector::new(vec![1.0, 1.0]);
        let d: Vec<(ObjectId, Vector)> = (0..50).map(|i| (ObjectId(i), v.clone())).collect();
        let (key, _) =
            SecretKey::generate(std::slice::from_ref(&v), 1, &L2, PivotSelection::Random, 1);
        let mut scheme = EhiScheme::new(key, L2, EhiConfig::default(), 2);
        scheme.build(&d).unwrap();
        let (got, _) = scheme.knn(&v, 10).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|(_, dd)| *dd == 0.0));
    }
}
