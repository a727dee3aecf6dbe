//! Two-process deployment over real TCP — the paper's prototype setup
//! (§4.4: "Both client and server are … processes communicating via
//! TCP/IP"; §5.1: both on one machine, loopback interface) — extended with
//! the concurrent serving mode: one shared `CloudServer` accepts any number
//! of connections and processes their requests in parallel (searches share
//! the index read lock), and the batch API ships many k-NN queries in one
//! round trip.
//!
//! The server thread owns the M-Index and no key material; the clients own
//! the secret key. Costs are attributed from measured wall time: the server
//! stamps its processing time into each response, the client assigns the
//! rest of the round trip to communication.
//!
//! ```sh
//! cargo run --release --example tcp_deployment
//! ```

use std::sync::Arc;
use std::time::Duration;

use simcloud::prelude::*;
use simcloud::transport::{serve_tcp_shared_with, Transport};

fn main() {
    let dataset = simcloud::datasets::yeast_like(17, Some(1200));
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, 30, &L1, PivotSelection::Random, 3);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 30;

    // Concurrent serving mode: the server is shared, the accept loop puts
    // no lock around it — request processing from different connections
    // overlaps.
    // Production-shaped serving: per-connection read deadline, an idle
    // timeout that reaps silent connections, a connection cap that sheds
    // excess load with a typed refusal instead of queueing it.
    let server = Arc::new(CloudServer::new(cfg, MemoryStore::new()).expect("valid config"));
    let handle = serve_tcp_shared_with(
        Arc::clone(&server),
        ServeOptions {
            read_timeout: Some(Duration::from_secs(10)),
            idle_timeout: Some(Duration::from_secs(60)),
            max_connections: Some(64),
            ..ServeOptions::default()
        },
    )
    .expect("tcp server");
    println!(
        "similarity cloud listening on {} (concurrent mode)",
        handle.addr()
    );

    // Data owner connection, fault-tolerant: socket timeouts, a hard
    // per-request deadline, retry/reconnect with capped backoff for
    // idempotent requests. Inserts are never auto-retried — an interrupted
    // bulk surfaces as ClientError::InsertInterrupted and would be resumed
    // with insert_bulk_resume.
    let tcp_config = TcpClientConfig {
        read_timeout: Some(Duration::from_secs(10)),
        request_deadline: Some(Duration::from_secs(30)),
        retry: RetryPolicy::default(),
        ..TcpClientConfig::default()
    };
    let mut owner = EncryptedClient::new(
        key.clone(),
        L1,
        TcpTransport::connect_with(handle.addr(), tcp_config).expect("connect"),
        ClientConfig::distances(),
    )
    .with_rng_seed(4);
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    let mut build = CostReport::default();
    for chunk in objects.chunks(1000) {
        build.merge(&owner.insert_bulk(chunk).expect("insert"));
    }
    println!("\n— construction over TCP ({} objects) —", objects.len());
    println!("{build}");

    // Three authorized clients query concurrently, each over its own
    // connection — the paper's "independent clients" setting.
    println!("\n— 3 concurrent clients × 10 queries, approximate 30-NN, CandSize 600 —");
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for c in 0..3usize {
            let key = key.clone();
            scope.spawn(move || {
                let mut client = EncryptedClient::new(
                    key,
                    L1,
                    TcpTransport::connect(addr).expect("connect"),
                    ClientConfig::distances(),
                )
                .with_rng_seed(5 + c as u64);
                let mut total = CostReport::default();
                for qi in 0..10 {
                    let (_, costs) = client
                        .knn_approx(&data[(c * 409 + qi * 31) % data.len()], 30, 600)
                        .expect("knn");
                    total.merge(&costs);
                }
                println!("client {c}: {}", total.averaged(10));
            });
        }
    });
    println!(
        "server processed {} candidates across all connections",
        server.total_search_stats().candidates
    );

    // Batch API: the same 10 queries in ONE round trip — per-message
    // latency is paid once instead of ten times.
    println!("\n— batch API: 10 queries in one round trip —");
    let queries: Vec<Vector> = (0..10)
        .map(|qi| data[qi * 31 % data.len()].clone())
        .collect();
    let before = owner.transport().stats().requests;
    let (answers, costs) = owner.knn_approx_batch(&queries, 30, 600).expect("batch");
    let answered = answers.iter().filter(|r| r.is_ok()).count();
    println!(
        "{answered} of {} queries answered in {} round trip(s); avg per query: {}",
        answers.len(),
        owner.transport().stats().requests - before,
        costs.averaged(answers.len() as u32)
    );
    let stats = owner.transport().stats();
    println!(
        "owner transport: {} requests, {} retries, {} reconnects (clean wire)",
        stats.requests, stats.retries, stats.reconnects
    );

    drop(owner);
    handle.shutdown();
}
