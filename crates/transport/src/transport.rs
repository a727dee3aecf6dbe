//! Transport abstraction and the in-process deployment.
//!
//! The experiment harness needs the three cost components the paper reports
//! separately — client, server, communication. The in-process transport
//! yields them exactly: server time is measured around the handler call and
//! communication time is computed from exact byte counts through a
//! [`NetworkModel`]. This removes scheduler noise from the shape of the
//! results while keeping byte counts honest (they come from real encoded
//! frames, the same ones [`crate::tcp`] puts on a socket).

use std::time::{Duration, Instant};

use crate::{TransportError, TransportStats};

/// Server side of the protocol: consumes a request payload, produces a
/// response payload. Processing needs only `&self`, so one instance behind
/// an [`std::sync::Arc`] serves any number of connections and threads
/// concurrently (cf. [`crate::tcp::serve_tcp_shared`]); a handler with
/// state keeps it behind its own locks or atomics.
///
/// Implemented by the M-Index servers, the baselines' servers, and — via
/// the blanket impl — any `Fn(&[u8]) -> Vec<u8>` closure (test echo
/// servers, tampering wrappers).
pub trait SharedRequestHandler: Send + Sync {
    /// Handles one request without exclusive access.
    fn handle_shared(&self, request: &[u8]) -> Vec<u8>;
}

impl<H: SharedRequestHandler + ?Sized> SharedRequestHandler for std::sync::Arc<H> {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        (**self).handle_shared(request)
    }
}

impl<F: Fn(&[u8]) -> Vec<u8> + Send + Sync> SharedRequestHandler for F {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// Whether a request may be transparently retried after a transport
/// failure whose outcome is unknown (connection cut after the request was
/// sent, deadline expired mid-read, …).
///
/// The encrypted client classifies every protocol request: kNN / Range /
/// BatchKnn / FetchObjects / ExportAll are read-only and replay-safe
/// ([`RequestClass::Idempotent`]); `Insert` is not — the server rejects
/// duplicate ids, so a blind replay of a request that *was* applied turns
/// into a spurious error, and the client must instead surface a typed
/// error carrying what is known about the acked prefix
/// ([`RequestClass::NonIdempotent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Replay-safe: the transport may retry/reconnect transparently.
    Idempotent,
    /// Replay-unsafe: retried only when the request provably never
    /// reached the server (dial failure, typed load-shed refusal).
    NonIdempotent,
}

/// Client side: a byte-level request/response channel with cost accounting.
pub trait Transport {
    /// Sends a request and waits for the response.
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError>;

    /// [`Transport::round_trip`] with a retry class and an optional
    /// whole-request deadline (spanning every attempt, backoff included).
    ///
    /// The default implementation ignores both and delegates — correct
    /// for in-process transports, which cannot lose a connection.
    /// Fault-tolerant transports (TCP) override it.
    fn round_trip_with(
        &mut self,
        request: &[u8],
        class: RequestClass,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, TransportError> {
        let _ = (class, deadline);
        self.round_trip(request)
    }

    /// Cumulative statistics.
    fn stats(&self) -> TransportStats;
}

/// Analytic network model: `time(bytes) = latency + bytes / bandwidth`,
/// applied per direction of every round trip.
///
/// The default models the loopback interface of the paper's testbed
/// (both processes on one machine): 25 µs one-way latency, 1 GiB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way latency per message.
    pub latency: Duration,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::loopback()
    }
}

impl NetworkModel {
    /// Loopback interface (paper's setting: client and server on the same
    /// machine).
    pub fn loopback() -> Self {
        Self {
            latency: Duration::from_micros(25),
            bandwidth: 1.0 * 1024.0 * 1024.0 * 1024.0,
        }
    }

    /// A typical 2012 LAN: 0.3 ms latency, 1 Gb/s.
    pub fn lan() -> Self {
        Self {
            latency: Duration::from_micros(300),
            bandwidth: 125.0 * 1000.0 * 1000.0,
        }
    }

    /// A WAN link to a remote cloud region: 20 ms latency, 100 Mb/s —
    /// used by the ablation that shows how the trade-off shifts when the
    /// similarity cloud is actually remote.
    pub fn wan() -> Self {
        Self {
            latency: Duration::from_millis(20),
            bandwidth: 12.5 * 1000.0 * 1000.0,
        }
    }

    /// Transfer time of `bytes` in one direction.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// Frame header size: `u32` length prefix.
pub const FRAME_HEADER: usize = 4;

/// In-process deployment: the handler runs in the caller's process; the
/// communication component is modelled, the server component is measured.
pub struct InProcessTransport<H> {
    handler: H,
    model: NetworkModel,
    stats: TransportStats,
}

impl<H> std::fmt::Debug for InProcessTransport<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcessTransport").finish_non_exhaustive()
    }
}

impl<H: SharedRequestHandler> InProcessTransport<H> {
    /// Wraps `handler` with the default loopback model.
    pub fn new(handler: H) -> Self {
        Self::with_model(handler, NetworkModel::default())
    }

    /// Wraps `handler` with an explicit network model.
    pub fn with_model(handler: H, model: NetworkModel) -> Self {
        Self {
            handler,
            model,
            stats: TransportStats::default(),
        }
    }

    /// The configured network model.
    pub fn model(&self) -> NetworkModel {
        self.model
    }
}

impl<H: SharedRequestHandler> Transport for InProcessTransport<H> {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let sent = (request.len() + FRAME_HEADER) as u64;
        let start = Instant::now();
        let response = self.handler.handle_shared(request);
        let server_time = start.elapsed();
        let received = (response.len() + FRAME_HEADER) as u64;
        self.stats.requests += 1;
        self.stats.bytes_sent += sent;
        self.stats.bytes_received += received;
        self.stats.server_time += server_time;
        self.stats.comm_time += self.model.transfer_time(sent) + self.model.transfer_time(received);
        Ok(response)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl SharedRequestHandler for Echo {
        fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
            let mut out = request.to_vec();
            out.reverse();
            out
        }
    }

    #[test]
    fn round_trip_returns_response_and_counts_bytes() {
        let mut t = InProcessTransport::new(Echo);
        let resp = t.round_trip(b"abc").unwrap();
        assert_eq!(resp, b"cba");
        let s = t.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.bytes_sent, 3 + FRAME_HEADER as u64);
        assert_eq!(s.bytes_received, 3 + FRAME_HEADER as u64);
        assert!(s.comm_time > Duration::ZERO);
    }

    #[test]
    fn closure_handlers_work() {
        let mut t = InProcessTransport::new(|req: &[u8]| req.to_vec());
        assert_eq!(t.round_trip(b"hi").unwrap(), b"hi");
    }

    #[test]
    fn network_model_times() {
        let m = NetworkModel {
            latency: Duration::from_millis(1),
            bandwidth: 1000.0, // 1000 B/s
        };
        // 500 bytes at 1000 B/s = 0.5 s + 1 ms latency
        let t = m.transfer_time(500);
        assert!((t.as_secs_f64() - 0.501).abs() < 1e-9);
        // WAN slower than loopback for same bytes
        assert!(
            NetworkModel::wan().transfer_time(10_000)
                > NetworkModel::loopback().transfer_time(10_000)
        );
    }

    #[test]
    fn server_time_accumulates() {
        let mut t = InProcessTransport::new(|_req: &[u8]| {
            std::thread::sleep(Duration::from_millis(2));
            vec![1]
        });
        t.round_trip(b"x").unwrap();
        t.round_trip(b"y").unwrap();
        assert!(t.stats().server_time >= Duration::from_millis(4));
        assert_eq!(t.stats().requests, 2);
    }

    /// Server-side state stays reachable through the caller's `Arc` clone
    /// while the transport drives the handler.
    #[test]
    fn handler_access() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        struct Counting(AtomicU32);
        impl SharedRequestHandler for Counting {
            fn handle_shared(&self, _r: &[u8]) -> Vec<u8> {
                self.0.fetch_add(1, Ordering::SeqCst);
                vec![]
            }
        }
        let handler = Arc::new(Counting(AtomicU32::new(0)));
        let mut t = InProcessTransport::new(Arc::clone(&handler));
        t.round_trip(b"a").unwrap();
        t.round_trip(b"b").unwrap();
        assert_eq!(handler.0.load(Ordering::SeqCst), 2);
    }
}
