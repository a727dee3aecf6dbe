//! Construction helpers for the sharded cloud. Only *building* a sharded
//! server differs from the single one (a router and N stores); everything
//! after that — `simcloud_core::client_for`, `connect_tcp`,
//! `simcloud_transport::serve_tcp_shared` — takes either server, so
//! switching a deployment from one index to N shards is a one-line change
//! on the construction site and a no-op everywhere else.

use std::sync::Arc;

use simcloud_core::{ClientConfig, EncryptedClient, SecretKey};
use simcloud_metric::{Metric, Vector};
use simcloud_mindex::{MIndexConfig, MIndexError};
use simcloud_storage::{BucketStore, MemoryStore};
use simcloud_transport::{serve_tcp_shared, InProcessTransport, NetworkModel, TcpTransport};

use crate::router::ShardRouter;
use crate::server::ShardedCloudServer;

/// In-process sharded similarity cloud: client + embedded sharded server
/// over a modelled network.
pub type ShardedInProcessCloud<M, S> =
    EncryptedClient<M, InProcessTransport<ShardedCloudServer<S>>>;

/// Builds an in-process sharded deployment with the default loopback model
/// and the default server configuration.
pub fn sharded_in_process<M, S>(
    key: SecretKey,
    metric: M,
    index_config: MIndexConfig,
    router: Box<dyn ShardRouter>,
    stores: Vec<S>,
    client_config: ClientConfig,
) -> Result<ShardedInProcessCloud<M, S>, MIndexError>
where
    M: Metric<Vector>,
    S: BucketStore,
{
    let server = ShardedCloudServer::new(index_config, router, stores)?;
    Ok(EncryptedClient::new(
        key,
        metric,
        InProcessTransport::with_model(server, NetworkModel::loopback()),
        client_config,
    ))
}

/// TCP sharded deployment in one call: spawns the (concurrent) server,
/// connects one client. Returns client and server handle.
#[allow(clippy::type_complexity)]
pub fn over_tcp_sharded<M, S>(
    key: SecretKey,
    metric: M,
    index_config: MIndexConfig,
    router: Box<dyn ShardRouter>,
    stores: Vec<S>,
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
    let server = Arc::new(ShardedCloudServer::new(index_config, router, stores)?);
    let handle = serve_tcp_shared(server)?;
    let transport = TcpTransport::connect(handle.addr())?;
    Ok((
        EncryptedClient::new(key, metric, transport, client_config),
        handle,
    ))
}

/// Convenience: `n` fresh in-memory stores (the common sharded test and
/// bench deployment).
pub fn memory_stores(n: usize) -> Vec<MemoryStore> {
    (0..n).map(|_| MemoryStore::new()).collect()
}
