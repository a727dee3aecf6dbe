//! Deployment helpers: wire a client to a server in one call.
//!
//! Reproduces the two deployments of the paper's prototype (§4.4): both
//! processes on one machine. [`in_process`] keeps the server in the caller's
//! process with a modelled network (deterministic measurements);
//! [`over_tcp`] runs the server on a real TCP loopback socket in its own
//! thread, like the original MESSIF prototype.
//!
//! Every server answers through the transport's one `&self` handler
//! trait, so one `Arc`'d server is shared among any number of clients:
//! [`client_for`] wires additional in-process clients (each thread gets
//! its own) to any handler, single or sharded server alike;
//! [`serve_tcp_shared`] accepts TCP connections without serializing
//! requests; and [`connect_tcp`] attaches further authorized clients to a
//! running server.

use std::sync::Arc;

use simcloud_metric::{Metric, Vector};
use simcloud_mindex::{MIndexConfig, MIndexError};
use simcloud_storage::BucketStore;
use simcloud_transport::{
    serve_tcp_shared, InProcessTransport, NetworkModel, SharedRequestHandler, TcpClientConfig,
    TcpTransport,
};

use crate::client::{ClientConfig, EncryptedClient};
use crate::key::SecretKey;
use crate::server::{CloudServer, ServerConfig};

/// In-process similarity cloud: client + embedded server over a modelled
/// network.
pub type InProcessCloud<M, S> = EncryptedClient<M, InProcessTransport<CloudServer<S>>>;

/// Builds an in-process deployment with the default loopback model.
pub fn in_process<M, S>(
    key: SecretKey,
    metric: M,
    index_config: MIndexConfig,
    store: S,
    client_config: ClientConfig,
) -> Result<InProcessCloud<M, S>, MIndexError>
where
    M: Metric<Vector>,
    S: BucketStore,
{
    in_process_with_model(
        key,
        metric,
        index_config,
        store,
        client_config,
        NetworkModel::loopback(),
    )
}

/// Builds an in-process deployment with an explicit network model (the WAN
/// ablation uses this).
pub fn in_process_with_model<M, S>(
    key: SecretKey,
    metric: M,
    index_config: MIndexConfig,
    store: S,
    client_config: ClientConfig,
    model: NetworkModel,
) -> Result<InProcessCloud<M, S>, MIndexError>
where
    M: Metric<Vector>,
    S: BucketStore,
{
    let server = CloudServer::new(index_config, store)?;
    let transport = InProcessTransport::with_model(server, model);
    Ok(EncryptedClient::new(key, metric, transport, client_config))
}

/// Re-attaches an in-process deployment to a store that already holds
/// sealed records — the restart / crash-recovery path. The server rebuilds
/// its cell tree from the stored entries ([`CloudServer::rebuilt`]) and
/// keeps serving under `server_config`; the client must present the same
/// [`SecretKey`] that sealed them, or every later decryption fails
/// authentication.
pub fn in_process_rebuilt<M, S>(
    key: SecretKey,
    metric: M,
    index_config: MIndexConfig,
    server_config: ServerConfig,
    store: S,
    client_config: ClientConfig,
) -> Result<InProcessCloud<M, S>, MIndexError>
where
    M: Metric<Vector>,
    S: BucketStore,
{
    let server = CloudServer::rebuilt(index_config, server_config, store)?;
    let transport = InProcessTransport::with_model(server, NetworkModel::loopback());
    Ok(EncryptedClient::new(key, metric, transport, client_config))
}

/// A client sharing an `Arc`'d in-process server `H` — a [`CloudServer`],
/// a sharded server, any shared-read handler — with other clients
/// (typically one such client per query thread).
pub type SharedCloud<M, H> = EncryptedClient<M, InProcessTransport<Arc<H>>>;

/// Wires an in-process client to an *existing shared* server with the
/// default loopback model. Every thread of a concurrent workload builds its
/// own client this way; queries hit the server's `&self` path in parallel.
pub fn client_for<M, H>(
    key: SecretKey,
    metric: M,
    server: Arc<H>,
    client_config: ClientConfig,
) -> SharedCloud<M, H>
where
    M: Metric<Vector>,
    H: SharedRequestHandler,
{
    let transport = InProcessTransport::with_model(server, NetworkModel::loopback());
    EncryptedClient::new(key, metric, transport, client_config)
}

/// Connects one more authorized client to a running TCP server (started
/// with [`over_tcp`] or [`serve_tcp_shared`]).
pub fn connect_tcp<M>(
    key: SecretKey,
    metric: M,
    addr: std::net::SocketAddr,
    client_config: ClientConfig,
) -> std::io::Result<EncryptedClient<M, TcpTransport>>
where
    M: Metric<Vector>,
{
    let transport = TcpTransport::connect(addr)?;
    Ok(EncryptedClient::new(key, metric, transport, client_config))
}

/// [`connect_tcp`] with an explicit [`TcpClientConfig`]: socket timeouts, the
/// whole-request deadline, and the retry/reconnect policy the transport
/// applies to idempotent requests.
pub fn connect_tcp_with<M>(
    key: SecretKey,
    metric: M,
    addr: std::net::SocketAddr,
    client_config: ClientConfig,
    tcp_config: TcpClientConfig,
) -> std::io::Result<EncryptedClient<M, TcpTransport>>
where
    M: Metric<Vector>,
{
    let transport = TcpTransport::connect_with(addr, tcp_config)?;
    Ok(EncryptedClient::new(key, metric, transport, client_config))
}

/// TCP deployment: spawns the (concurrent) server, connects a client.
/// Returns the client and the server handle (shut it down when done);
/// further clients attached with [`connect_tcp`] are served in parallel.
pub fn over_tcp<M, S>(
    key: SecretKey,
    metric: M,
    index_config: MIndexConfig,
    store: S,
    client_config: ClientConfig,
) -> Result<
    (
        EncryptedClient<M, TcpTransport>,
        simcloud_transport::tcp::TcpServerHandle,
    ),
    Box<dyn std::error::Error>,
>
where
    M: Metric<Vector>,
    S: BucketStore + 'static,
{
    let server = CloudServer::new(index_config, store)?;
    let handle = serve_tcp_shared(Arc::new(server))?;
    let transport = TcpTransport::connect(handle.addr())?;
    Ok((
        EncryptedClient::new(key, metric, transport, client_config),
        handle,
    ))
}
