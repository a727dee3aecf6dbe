//! Layer costs measured on their own, outside any request: each layer's
//! public function called directly, over the data the run itself moved.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::decorators::{Exchange, RequestTags};
use crate::deploy::{connect, set_up, Deployment, Plain, Sut, Wiring};
use crate::sut::{
    serve_tcp_shared, CloudServer, IndexEntry, MIndexConfig, MemoryStore, Request, Response,
    Routing, SecretKey, SharedRequestHandler, TcpTransport, Transport, Vector,
};
use crate::{Env, Res};

fn encode(object: &Vector) -> Vec<u8> {
    let mut plain = Vec::with_capacity(object.encoded_len());
    object.encode(&mut plain);
    plain
}

/// Mean microseconds of `f` over `reps` calls.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Bytes one object of this collection seals to (they all have one size).
pub fn sealed_len(env: &Env, key: &SecretKey) -> usize {
    let mut rng = StdRng::seed_from_u64(env.seed);
    key.cipher()
        .seal_with_aad(
            &encode(&env.data[0]),
            &0u64.to_le_bytes(),
            key.mode(),
            &mut rng,
        )
        .len()
}

#[derive(Debug, Default)]
pub struct ClientSide {
    /// Mean `Metric::distance` between a collection object and a pivot.
    pub dist_ns: f64,
    pub seal_us: f64,
    pub unseal_us: f64,
    /// `Request::decode` of one 1000-object insert request.
    pub insert_decode_us: f64,
}

/// What a client does to one bulk of the collection (Alg. 1), step by
/// step: pivot distances, seal; then unseal of the very same payloads, and
/// the server's decode of the request they travel in.
pub fn client_side(env: &Env, key: &SecretKey) -> Res<ClientSide> {
    let objects = &env.data[..crate::deploy::BUILD_BULK.min(env.data.len())];
    let mut rng = StdRng::seed_from_u64(env.seed);
    let count = objects.len() as f64;

    let start = Instant::now();
    let distances: Vec<Vec<f64>> = objects
        .iter()
        .map(|o| key.pivot_distances(&env.metric, o))
        .collect();
    let dist_ns = start.elapsed().as_nanos() as f64 / (count * key.num_pivots() as f64);

    let plain: Vec<Vec<u8>> = objects.iter().map(encode).collect();
    let start = Instant::now();
    let sealed: Vec<Vec<u8>> = plain
        .iter()
        .enumerate()
        .map(|(id, p)| {
            key.cipher()
                .seal_with_aad(p, &(id as u64).to_le_bytes(), key.mode(), &mut rng)
        })
        .collect();
    let seal_us = start.elapsed().as_secs_f64() * 1e6 / count;

    let start = Instant::now();
    for (id, s) in sealed.iter().enumerate() {
        black_box(
            key.cipher()
                .unseal_with_aad(s, &(id as u64).to_le_bytes())?,
        );
    }
    let unseal_us = start.elapsed().as_secs_f64() * 1e6 / count;

    let entries = sealed
        .into_iter()
        .zip(&distances)
        .enumerate()
        .map(|(id, (payload, ds))| IndexEntry::new(id as u64, Routing::from_distances(ds), payload))
        .collect();
    let request = Request::Insert(entries).encode();
    let insert_decode_us = time_us(5, || Request::decode(&request).is_ok());
    Ok(ClientSide {
        dist_ns,
        seal_us,
        unseal_us,
        insert_decode_us,
    })
}

#[derive(Debug, Default)]
pub struct Codec {
    pub req_encode_us: f64,
    pub req_decode_us: f64,
    pub resp_encode_us: f64,
    pub resp_decode_us: f64,
    pub req_bytes: f64,
    pub resp_bytes: f64,
}

/// `Request`/`Response` encode and decode on a recorded kNN exchange.
pub fn codec(tape: &[Exchange], sample_response: Option<&[u8]>) -> Codec {
    let tags = RequestTags::default();
    let mut out = Codec::default();
    if let Some(exchange) = tape.iter().find(|e| tags.is_knn(&e.request)) {
        out.req_bytes = exchange.request.len() as f64;
        out.req_decode_us = time_us(200, || Request::decode(&exchange.request).is_ok());
        if let Ok(request) = Request::decode(&exchange.request) {
            out.req_encode_us = time_us(200, || request.encode());
        }
    }
    if let Some(bytes) = sample_response {
        out.resp_bytes = bytes.len() as f64;
        out.resp_decode_us = time_us(20, || Response::decode(bytes).is_ok());
        if let Ok(response) = Response::decode(bytes) {
            out.resp_encode_us = time_us(20, || response.encode());
        }
    }
    out
}

struct Echo;

impl SharedRequestHandler for Echo {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        request.to_vec()
    }
}

/// `TcpTransport` against an echo handler: the per-message cost (64 B) and
/// the per-byte cost (4 MB) of the transport alone. Mean round trip, µs.
pub fn echo_rtt() -> Res<(f64, f64)> {
    let handle = serve_tcp_shared(Arc::new(Echo))?;
    let mut transport = TcpTransport::connect(handle.addr())?;
    let mut rtt = |bytes: usize, reps: usize| -> Res<f64> {
        let message = vec![0xa5u8; bytes];
        transport.round_trip(&message)?;
        let start = Instant::now();
        for _ in 0..reps {
            black_box(transport.round_trip(&message)?);
        }
        Ok(start.elapsed().as_secs_f64() * 1e6 / reps as f64)
    };
    let small = rtt(64, 500)?;
    let large = rtt(4 << 20, 10)?;
    drop(transport);
    handle.shutdown();
    Ok((small, large))
}

/// One `MetricsSnapshot` round trip through a client, µs.
pub fn snapshot_us<H: Sut, W: Wiring>(w: &W, env: &Env, dep: &Deployment<H>) -> Res<f64> {
    let mut client = connect(w, env, &dep.key, dep.addr())?;
    client.metrics_text()?;
    let reps = 20;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(client.metrics_text()?);
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / f64::from(reps))
}

/// The sharded deployment against a single `CloudServer<MemoryStore>` built
/// from the same seed, both handed the identical request bytes in-process:
/// (mean handle time sharded ÷ single, entries generated sharded ÷ single).
pub fn sharded_vs_single<H: Sut>(
    env: &Env,
    sharded: &Deployment<H>,
    requests: &[&[u8]],
) -> Res<(f64, f64)> {
    let (single, _) = set_up(&Plain, env, &|| {
        Ok((
            Arc::new(CloudServer::new(
                MIndexConfig::cophir(),
                MemoryStore::new(),
            )?),
            None,
        ))
    })?;
    let time_all = |server: &dyn SharedRequestHandler| {
        let start = Instant::now();
        for request in requests {
            black_box(server.handle_shared(request));
        }
        start.elapsed().as_secs_f64()
    };
    // Warm both, then measure.
    time_all(&*sharded.server);
    time_all(&*single.server);
    let before = sharded.server.search_totals().candidates_generated;
    let sharded_s = time_all(&*sharded.server);
    let gen_sharded = (sharded.server.search_totals().candidates_generated - before) as f64;
    let before = single.server.search_totals().candidates_generated;
    let single_s = time_all(&*single.server);
    let gen_single = (single.server.search_totals().candidates_generated - before) as f64;
    if single_s == 0.0 || gen_single == 0.0 {
        return Err("single-server comparison did no work".into());
    }
    Ok((sharded_s / single_s, gen_sharded / gen_single))
}
