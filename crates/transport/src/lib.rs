//! # simcloud-transport — client/server substrate with cost accounting
//!
//! The paper runs the encryption client and the M-Index server as separate
//! processes "communicating via TCP/IP" on a loopback interface (§4.4, §5.1)
//! and reports three separate cost components per operation: client time,
//! server time and communication time/cost. This crate reproduces that
//! substrate:
//!
//! * [`SharedRequestHandler`] — the one server-side trait: a byte-level
//!   request→response function over `&self` (the protocol crates encode
//!   messages on top), so one `Arc`'d instance answers every client;
//! * [`InProcessTransport`] — calls the handler directly; communication
//!   *time* is computed from exact byte counts through a configurable
//!   [`NetworkModel`] (default calibrated to a loopback interface), while
//!   server time is the measured wall time inside the handler;
//! * [`TcpTransport`] / [`serve_tcp_shared`] — a real TCP loopback
//!   deployment serving connections concurrently, with no handler lock:
//!   the server prefixes each response with its measured processing time
//!   so the client can attribute elapsed = server + communication;
//! * [`TransportStats`] — requests, exact bytes in both directions,
//!   accumulated server and communication time (client-side timings are
//!   booked by the client into its own cost report, not here);
//! * [`fault`] — a network fault-injection harness ([`FaultScript`] /
//!   [`FaultStream`] / [`FaultTransport`]), the counterpart to the storage
//!   crate's `FaultEnv`: scripted cuts, delays, truncations, drops and bit
//!   flips at operation N in either direction, usable in-process and around
//!   real TCP streams.
//!
//! Frame format (both transports): `u32 LE length || payload`. Frames are
//! capped at [`MAX_FRAME_BYTES`] (plus the 8-byte server-time header on
//! responses), matching the protocol layer's decode cap, so a hostile
//! length prefix cannot force a huge allocation.
//!
//! The TCP client is fault tolerant: per-socket read/write timeouts, a
//! whole-request deadline ([`TcpClientConfig::request_deadline`]), and — for
//! requests the caller declares [`RequestClass::Idempotent`] — transparent
//! reconnect + retry with capped exponential backoff and deterministic
//! jitter ([`RetryPolicy`]). The server protects itself with idle/read
//! deadlines, a connection limit with typed load-shedding refusal
//! ([`TransportError::Rejected`]) and a graceful bounded drain on shutdown
//! ([`ServeOptions`]).

#![warn(missing_docs)]

pub mod fault;
pub mod stats;
pub mod tcp;
pub mod telemetry;
pub mod transport;

pub use fault::{Direction, FaultAction, FaultRule, FaultScript, FaultStream, FaultTransport};
pub use stats::TransportStats;
pub use tcp::{
    serve_tcp_shared, serve_tcp_shared_with, RetryPolicy, ServeOptions, TcpClientConfig,
    TcpTransport,
};
pub use telemetry::TransportTiming;
pub use transport::{
    InProcessTransport, NetworkModel, RequestClass, SharedRequestHandler, Transport,
};

/// Largest accepted frame payload, aligned with the protocol layer's
/// 64 MiB decode cap (`MAX_DECODE_BYTES` re-exports this constant), so the
/// transport rejects a hostile length prefix before allocating.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Transport-level errors.
#[derive(Debug)]
pub enum TransportError {
    /// Underlying socket/I/O failure.
    Io(std::io::Error),
    /// Peer sent a malformed frame.
    BadFrame(String),
    /// The connection was closed mid-exchange.
    Disconnected,
    /// A read, write or whole-request deadline expired.
    TimedOut,
    /// The server refused the request before reading it (load shedding at
    /// the connection limit). Always safe to retry — the request was never
    /// processed — which the TCP client does automatically for every
    /// request class.
    Rejected(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::BadFrame(s) => write!(f, "bad frame: {s}"),
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::TimedOut => write!(f, "request deadline exceeded"),
            TransportError::Rejected(s) => write!(f, "server refused request: {s}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(TransportError::Disconnected
            .to_string()
            .contains("disconnected"));
        assert!(TransportError::BadFrame("x".into())
            .to_string()
            .contains("x"));
        let e: TransportError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(TransportError::TimedOut.to_string().contains("deadline"));
        assert!(TransportError::Rejected("limit".into())
            .to_string()
            .contains("limit"));
    }
}
