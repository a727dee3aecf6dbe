//! Real TCP loopback deployment, fault tolerant end to end.
//!
//! The paper's prototype runs "both client and server … communicating via
//! TCP/IP" on one machine (§4.4). [`serve_tcp_shared`] spawns an accept
//! thread serving one `Arc`'d [`SharedRequestHandler`]; [`TcpTransport`] is
//! the client side.
//!
//! Each accepted connection is served by its own worker thread, which calls
//! the handler with **no lock**: connections are served fully concurrently,
//! which is how the shared-read `CloudServer` scales query throughput with
//! client count. A handler with state guards it itself.
//!
//! Wire format per message: `u32 LE payload length || payload`. Responses
//! additionally carry a leading `u64 LE` with the server's measured
//! processing time in nanoseconds, so the client can attribute the elapsed
//! round-trip time between the "server" and "communication" components the
//! way the paper's tables do. The reserved value `u64::MAX` in that slot
//! marks a *control frame* — currently only the load-shedding refusal a
//! server at its connection limit sends before closing — which the client
//! surfaces as [`TransportError::Rejected`].
//!
//! ## Fault tolerance
//!
//! The client ([`TcpClientConfig`]) enforces per-socket read/write
//! timeouts and an optional whole-request deadline, and retries
//! [`RequestClass::Idempotent`] requests with capped exponential backoff,
//! deterministic jitter and automatic reconnect ([`RetryPolicy`]).
//! Non-idempotent requests (`Insert`) are retried only when the failure
//! provably preceded the first request byte (dial failure, load-shed
//! refusal); any later failure is surfaced so the caller can recover
//! without risking a duplicate insert.
//!
//! The server ([`ServeOptions`]) bounds idle connections and mid-frame
//! stalls, refuses connections beyond a limit with a typed control frame
//! instead of an opaque hang, and drains in-flight requests at shutdown:
//! workers observe the stop flag at frame boundaries (never mid-request)
//! and [`TcpServerHandle::shutdown`] joins them within a bounded drain
//! window.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use simcloud_telemetry::Registry;

use crate::fault::{FaultScript, FaultStream};
use crate::telemetry::TransportTiming;
use crate::transport::{RequestClass, SharedRequestHandler, Transport, FRAME_HEADER};
use crate::{TransportError, TransportStats, MAX_FRAME_BYTES};

/// Reserved server-time value marking a transport control frame (load-shed
/// refusal); real measurements saturate just below it.
const CONTROL_FRAME: u64 = u64::MAX;

/// Granularity at which idle server workers re-check the stop flag.
const POLL_TICK: Duration = Duration::from_millis(20);

/// Granularity of the non-blocking accept poll. Finer than [`POLL_TICK`]
/// because it bounds the latency of every *first* request on a fresh
/// connection, not just shutdown observation.
const ACCEPT_TICK: Duration = Duration::from_millis(1);

/// Smallest socket timeout we ever set (`set_read_timeout(Some(ZERO))` is
/// an error in std).
const MIN_TIMEOUT: Duration = Duration::from_millis(1);

/// A byte stream whose read/write stalls can be bounded. Implemented by
/// `TcpStream` (socket timeouts) and forwarded through [`FaultStream`].
pub trait DeadlineStream: Read + Write {
    /// Bounds how long a single `read` may block (`None` = forever).
    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Bounds how long a single `write` may block (`None` = forever).
    fn set_write_deadline(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl DeadlineStream for TcpStream {
    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout.map(|t| t.max(MIN_TIMEOUT)))
    }
    fn set_write_deadline(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_write_timeout(timeout.map(|t| t.max(MIN_TIMEOUT)))
    }
}

impl<S: DeadlineStream> DeadlineStream for FaultStream<S> {
    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.note_read_timeout(timeout);
        self.inner_mut().set_read_deadline(timeout)
    }
    fn set_write_deadline(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.note_write_timeout(timeout);
        self.inner_mut().set_write_deadline(timeout)
    }
}

fn is_stall(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Time left until `deadline`, or `Err(TimedOut)` if it already passed.
fn remaining(deadline: Option<Instant>) -> Result<Option<Duration>, TransportError> {
    match deadline {
        None => Ok(None),
        Some(d) => match d.checked_duration_since(Instant::now()) {
            Some(left) if left > Duration::ZERO => Ok(Some(left)),
            _ => Err(TransportError::TimedOut),
        },
    }
}

fn min_timeout(a: Option<Duration>, b: Option<Duration>) -> Option<Duration> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// How far a bounded `read_exact` got.
enum ReadOutcome {
    /// Buffer completely filled.
    Full,
    /// The peer closed before the buffer filled (cleanly at 0 bytes,
    /// torn otherwise — both mean the frame stream is over).
    Eof,
}

/// One `read` into `buf`, bounded by `stall` and by `deadline`: the bytes
/// it delivered (0 when interrupted), or `None` once the peer has closed.
/// A stall past either bound yields `TransportError::TimedOut`.
fn read_some_deadline<S: DeadlineStream>(
    stream: &mut S,
    buf: &mut [u8],
    deadline: Option<Instant>,
    stall: Option<Duration>,
) -> Result<Option<usize>, TransportError> {
    let timeout = min_timeout(remaining(deadline)?, stall);
    stream
        .set_read_deadline(timeout)
        .map_err(TransportError::Io)?;
    match stream.read(buf) {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(e) if is_stall(e.kind()) => Err(TransportError::TimedOut),
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(Some(0)),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(TransportError::Io(e)),
    }
}

/// Fills `buf`, bounding each individual read by `stall` and the whole
/// operation by `deadline`. A peer close yields `ReadOutcome::Eof`; a
/// stall past either bound yields `TransportError::TimedOut`.
fn read_exact_deadline<S: DeadlineStream>(
    stream: &mut S,
    buf: &mut [u8],
    deadline: Option<Instant>,
    stall: Option<Duration>,
) -> Result<ReadOutcome, TransportError> {
    let mut filled = 0usize;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match read_some_deadline(stream, rest, deadline, stall)? {
            Some(n) => filled += n,
            None => return Ok(ReadOutcome::Eof),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Reads one response frame, `u32 LE length ‖ server_ns ‖ response`, as
/// its 12-byte prefix and then `response` straight into the buffer the
/// caller keeps — the mirror of [`write_response_deadline`], so the
/// server-time header never has to be stripped out of a megabyte answer.
/// The length is judged as soon as its four bytes are in: an oversized
/// frame or one too short to hold the header is refused without waiting
/// for bytes that may never come.
fn read_response_deadline<S: DeadlineStream>(
    stream: &mut S,
    deadline: Option<Instant>,
    stall: Option<Duration>,
) -> Result<(u64, Vec<u8>), TransportError> {
    let mut prefix = [0u8; 12];
    let mut filled = 0usize;
    let mut body_len = None;
    while let Some(rest) = prefix.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match read_some_deadline(stream, rest, deadline, stall)? {
            Some(n) => filled += n,
            // A close before or inside the prefix is a disconnect (clean
            // between frames, torn within one — callers can't tell which,
            // and both mean "resynchronize").
            None => return Err(TransportError::Disconnected),
        }
        if body_len.is_none() && filled >= 4 {
            let [l0, l1, l2, l3, ..] = prefix;
            let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            if len > MAX_FRAME_BYTES + 8 {
                return Err(TransportError::BadFrame(format!(
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )));
            }
            body_len =
                Some(len.checked_sub(8).ok_or_else(|| {
                    TransportError::BadFrame("missing server-time header".into())
                })?);
        }
    }
    let [_, _, _, _, server_ns @ ..] = prefix;
    let mut body = vec![0u8; body_len.unwrap_or(0)];
    match read_exact_deadline(stream, &mut body, deadline, stall)? {
        ReadOutcome::Full => Ok((u64::from_le_bytes(server_ns), body)),
        ReadOutcome::Eof => Err(TransportError::Disconnected),
    }
}

/// Writes one frame, bounding the write by `deadline` via the socket
/// write timeout.
fn write_frame_deadline<S: DeadlineStream>(
    stream: &mut S,
    payload: &[u8],
    deadline: Option<Instant>,
    stall: Option<Duration>,
) -> Result<(), TransportError> {
    let len = frame_len(payload.len())?;
    write_parts_deadline(stream, &len.to_le_bytes(), payload, deadline, stall)
}

/// Writes one response frame, `u32 LE length ‖ server_ns ‖ response`, as
/// its 12-byte prefix and then `response` itself — the same two socket
/// writes and the same byte stream as framing a concatenated
/// `server_ns ‖ response` buffer, without building that buffer.
fn write_response_deadline<S: DeadlineStream>(
    stream: &mut S,
    server_ns: u64,
    response: &[u8],
    stall: Option<Duration>,
) -> Result<(), TransportError> {
    let len = frame_len(response.len().saturating_add(8))?;
    let mut prefix = [0u8; 12];
    let (len_bytes, ns_bytes) = prefix.split_at_mut(4);
    len_bytes.copy_from_slice(&len.to_le_bytes());
    ns_bytes.copy_from_slice(&server_ns.to_le_bytes());
    write_parts_deadline(stream, &prefix, response, None, stall)
}

fn frame_len(bytes: usize) -> Result<u32, TransportError> {
    u32::try_from(bytes)
        .map_err(|_| TransportError::BadFrame("frame exceeds u32::MAX bytes".into()))
}

/// Writes a frame already split into its `prefix` and `body`.
fn write_parts_deadline<S: DeadlineStream>(
    stream: &mut S,
    prefix: &[u8],
    body: &[u8],
    deadline: Option<Instant>,
    stall: Option<Duration>,
) -> Result<(), TransportError> {
    let timeout = min_timeout(remaining(deadline)?, stall);
    stream
        .set_write_deadline(timeout)
        .map_err(TransportError::Io)?;
    let io = |e: std::io::Error| {
        if is_stall(e.kind()) {
            TransportError::TimedOut
        } else {
            TransportError::Io(e)
        }
    };
    stream.write_all(prefix).map_err(io)?;
    stream.write_all(body).map_err(io)?;
    stream.flush().map_err(io)
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Capped exponential backoff with deterministic jitter, governing the
/// TCP client's retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, first included (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
    /// Ceiling for the exponential backoff.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter (attempts sleep between 50% and
    /// 100% of the computed backoff, pseudo-randomized by this seed).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x5ca1_ab1e,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every transport failure surfaces immediately.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Backoff to sleep before attempt `attempt` (2-based: the first
    /// retry). Deterministic for a given (`jitter_seed`, `attempt`).
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(2).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX));
        let capped = raw.min(self.max_backoff);
        let h = splitmix64(self.jitter_seed ^ u64::from(attempt));
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        capped.mul_f64(0.5 + 0.5 * frac)
    }
}

/// SplitMix64 — the standard 64-bit mix, used for deterministic jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Client-side fault-tolerance knobs for [`TcpTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpClientConfig {
    /// Bound on establishing a connection.
    pub connect_timeout: Option<Duration>,
    /// Bound on any single socket read stalling (per read, not per frame).
    pub read_timeout: Option<Duration>,
    /// Bound on any single socket write stalling.
    pub write_timeout: Option<Duration>,
    /// The whole-request deadline (every attempt + backoff), applied to
    /// every round trip; a breach surfaces as [`TransportError::TimedOut`].
    /// A per-call deadline via [`Transport::round_trip_with`] can only
    /// tighten it.
    pub request_deadline: Option<Duration>,
    /// Retry/backoff schedule for idempotent requests.
    pub retry: RetryPolicy,
}

impl Default for TcpClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            request_deadline: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Client side of the TCP deployment: deadline-aware framing, automatic
/// reconnect, and class-gated retry per [`TcpClientConfig`].
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    config: TcpClientConfig,
    fault: Option<Arc<FaultScript>>,
    conn: Option<FaultStream<TcpStream>>,
    ever_connected: bool,
    stats: TransportStats,
    telemetry: Option<TransportTiming>,
}

impl TcpTransport {
    /// Connects to a server started with [`serve_tcp_shared`] using default
    /// fault-tolerance settings.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with(addr, TcpClientConfig::default())
    }

    /// Connects with explicit timeouts and retry policy.
    pub fn connect_with(addr: SocketAddr, config: TcpClientConfig) -> std::io::Result<Self> {
        Self::build(addr, config, None)
    }

    /// Connects with a [`FaultScript`] armed on the client's socket ops —
    /// the network fault-injection entry point. The script is shared, so
    /// op counters persist across automatic reconnects.
    pub fn connect_faulty(
        addr: SocketAddr,
        config: TcpClientConfig,
        script: Arc<FaultScript>,
    ) -> std::io::Result<Self> {
        Self::build(addr, config, Some(script))
    }

    fn build(
        addr: SocketAddr,
        config: TcpClientConfig,
        fault: Option<Arc<FaultScript>>,
    ) -> std::io::Result<Self> {
        let mut t = Self {
            addr,
            config,
            fault,
            conn: None,
            ever_connected: false,
            stats: TransportStats::default(),
            telemetry: None,
        };
        let stream = t.dial()?;
        t.conn = Some(stream);
        t.ever_connected = true;
        Ok(t)
    }

    /// The active configuration.
    pub fn config(&self) -> TcpClientConfig {
        self.config
    }

    /// Binds the client's fault-tolerance metrics (`transport.dial` /
    /// `transport.backoff` histograms, `transport.retries` /
    /// `transport.reconnects` counters) into `registry`, so a front end
    /// can expose its outbound-connection health next to the server-side
    /// request metrics.
    pub fn bind_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(TransportTiming::bind(registry));
    }

    fn dial(&self) -> std::io::Result<FaultStream<TcpStream>> {
        let _dial = self.telemetry.as_ref().map(TransportTiming::dial_timer);
        let stream = match self.config.connect_timeout {
            Some(t) => TcpStream::connect_timeout(&self.addr, t.max(MIN_TIMEOUT))?,
            None => TcpStream::connect(self.addr)?,
        };
        stream.set_nodelay(true)?;
        Ok(FaultStream::wrap(stream, self.fault.clone()))
    }

    /// One attempt: ensure a connection, send the request, read the
    /// response. On failure, reports whether the server may have seen the
    /// request (`true` once the first request byte could have left).
    fn attempt(
        &mut self,
        request: &[u8],
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, (TransportError, bool)> {
        if self.conn.is_none() {
            match self.dial() {
                Ok(c) => {
                    self.conn = Some(c);
                    if self.ever_connected {
                        self.stats.reconnects += 1;
                        if let Some(t) = &self.telemetry {
                            t.count_reconnect();
                        }
                    }
                    self.ever_connected = true;
                }
                // Nothing was sent: even an Insert is safe to retry here.
                Err(e) => return Err((TransportError::Io(e), false)),
            }
        }
        let (read_stall, write_stall) = (self.config.read_timeout, self.config.write_timeout);
        let Some(stream) = self.conn.as_mut() else {
            return Err((TransportError::Disconnected, false));
        };
        let start = Instant::now();
        write_frame_deadline(stream, request, deadline, write_stall).map_err(|e| (e, true))?;
        let (server_ns, response) =
            read_response_deadline(stream, deadline, read_stall).map_err(|e| (e, true))?;
        let elapsed = start.elapsed();
        if server_ns == CONTROL_FRAME {
            // Load-shed refusal: the server closed without reading the
            // request, so a replay is safe for every request class.
            return Err((
                TransportError::Rejected(String::from_utf8_lossy(&response).into_owned()),
                false,
            ));
        }
        let server_time = Duration::from_nanos(server_ns);
        self.stats.requests += 1;
        self.stats.bytes_sent += (request.len() + FRAME_HEADER) as u64;
        // The 8-byte server-time header is measurement apparatus, not
        // protocol payload; excluded from communication cost.
        self.stats.bytes_received += (response.len() + FRAME_HEADER) as u64;
        self.stats.server_time += server_time;
        self.stats.comm_time += elapsed.saturating_sub(server_time);
        Ok(response)
    }
}

impl Transport for TcpTransport {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.round_trip_with(request, RequestClass::Idempotent, None)
    }

    fn round_trip_with(
        &mut self,
        request: &[u8],
        class: RequestClass,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, TransportError> {
        let budget = min_timeout(deadline, self.config.request_deadline);
        let deadline = budget.map(|d| Instant::now() + d);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if attempt > 1 {
                let mut pause = self.config.retry.backoff_before(attempt);
                if let Some(left) = remaining(deadline)? {
                    pause = pause.min(left);
                }
                {
                    let _backoff = self.telemetry.as_ref().map(TransportTiming::backoff_timer);
                    std::thread::sleep(pause);
                }
                self.stats.retries += 1;
                if let Some(t) = &self.telemetry {
                    t.count_retry();
                }
            }
            let (err, maybe_processed) = match self.attempt(request, deadline) {
                Ok(response) => return Ok(response),
                Err(pair) => pair,
            };
            // Any failure poisons frame sync; reconnect on the next try.
            self.conn = None;
            let replay_safe = !maybe_processed || class == RequestClass::Idempotent;
            let retriable = replay_safe
                && matches!(
                    err,
                    TransportError::Io(_)
                        | TransportError::Disconnected
                        | TransportError::TimedOut
                        | TransportError::Rejected(_)
                );
            let out_of_budget =
                attempt >= self.config.retry.max_attempts.max(1) || remaining(deadline).is_err();
            if !retriable || out_of_budget {
                return Err(err);
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Server self-protection knobs for [`serve_tcp_shared_with`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Close a connection with no complete request for this long
    /// (`None` = idle forever, bounded only by shutdown).
    pub idle_timeout: Option<Duration>,
    /// Bound on a single mid-frame read stalling (slow-loris cap).
    pub read_timeout: Option<Duration>,
    /// Bound on a single response write stalling.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served connections; beyond it, new
    /// connections get a typed refusal control frame and are closed
    /// (`None` = unlimited).
    pub max_connections: Option<usize>,
    /// How long [`TcpServerHandle::shutdown`] waits for in-flight
    /// requests to finish before detaching stragglers.
    pub drain_timeout: Duration,
    /// Fault script armed on every accepted connection's socket ops
    /// (server-side fault injection for tests and benches).
    pub fault: Option<Arc<FaultScript>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            idle_timeout: None,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: None,
            drain_timeout: Duration::from_secs(5),
            fault: None,
        }
    }
}

#[derive(Debug)]
struct ServerState {
    stop: AtomicBool,
    active: AtomicUsize,
    shed: AtomicU64,
    opts: ServeOptions,
}

/// Handle to a running TCP server; dropping it stops the accept loop and
/// drains workers (bounded by [`ServeOptions::drain_timeout`]).
#[derive(Debug)]
pub struct TcpServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpServerHandle {
    /// Address the server listens on (connect [`TcpTransport`] here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.state.active.load(Ordering::SeqCst)
    }

    /// Connections refused so far at the [`ServeOptions::max_connections`]
    /// limit.
    pub fn shed_connections(&self) -> u64 {
        self.state.shed.load(Ordering::SeqCst)
    }

    /// Signals shutdown, waits for the accept loop to exit, then drains
    /// worker threads: each finishes its in-flight request (workers check
    /// the stop flag only at frame boundaries, so responses are never
    /// truncated) and is joined, bounded by
    /// [`ServeOptions::drain_timeout`].
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
        let deadline = Instant::now() + self.state.opts.drain_timeout;
        while self.state.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut ws = self.workers.lock();
            let (done, live): (Vec<_>, Vec<_>) =
                ws.drain(..).partition(std::thread::JoinHandle::is_finished);
            *ws = live; // stragglers past the drain window stay detached
            done
        };
        for handle in drained {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        self.stop_and_drain();
    }
}

/// Starts a TCP server on `127.0.0.1` (ephemeral port) serving a *shared*
/// handler with **no lock**: every accepted connection gets a worker thread
/// that calls `handler.handle_shared` directly, so independent clients'
/// requests are processed concurrently.
///
/// The caller keeps a clone of the `Arc` for server-side inspection
/// (statistics, index shape) while the server runs.
pub fn serve_tcp_shared<H: SharedRequestHandler + 'static>(
    handler: Arc<H>,
) -> std::io::Result<TcpServerHandle> {
    serve_tcp_shared_with(handler, ServeOptions::default())
}

/// [`serve_tcp_shared`] with explicit [`ServeOptions`].
///
/// The accept loop binds, polls non-blockingly (so shutdown is observed
/// within one poll tick, not on the next connection), sheds
/// connections beyond the limit with a typed control frame, and registers
/// worker threads for the bounded shutdown drain.
pub fn serve_tcp_shared_with<H: SharedRequestHandler + 'static>(
    handler: Arc<H>,
    options: ServeOptions,
) -> std::io::Result<TcpServerHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        stop: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        shed: AtomicU64::new(0),
        opts: options,
    });
    let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let state2 = Arc::clone(&state);
    let workers2 = Arc::clone(&workers);
    let accept = std::thread::Builder::new()
        .name("simcloud-tcp-accept".into())
        .spawn(move || loop {
            if state2.stop.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if is_stall(e.kind()) => {
                    std::thread::sleep(ACCEPT_TICK);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            // Accepted sockets must not inherit the listener's
            // non-blocking mode (platform-dependent) — workers rely on
            // socket timeouts.
            if stream.set_nonblocking(false).is_err() {
                continue;
            }
            // Responses are written as separate length/payload writes;
            // without TCP_NODELAY, Nagle holds the second write for the
            // peer's delayed ACK (~40 ms per response on loopback).
            let _ = stream.set_nodelay(true);
            let at_limit = state2
                .opts
                .max_connections
                .is_some_and(|cap| state2.active.load(Ordering::SeqCst) >= cap);
            if at_limit {
                state2.shed.fetch_add(1, Ordering::SeqCst);
                shed_connection(stream, &state2);
                continue;
            }
            state2.active.fetch_add(1, Ordering::SeqCst);
            let worker_state = Arc::clone(&state2);
            let worker_handler = Arc::clone(&handler);
            let fault = state2.opts.fault.clone();
            let spawned = std::thread::Builder::new()
                .name("simcloud-tcp-conn".into())
                .spawn(move || {
                    serve_connection(
                        FaultStream::wrap(stream, fault),
                        &worker_state,
                        worker_handler.as_ref(),
                    );
                });
            match spawned {
                Ok(handle) => {
                    let mut ws = workers2.lock();
                    // Opportunistically reap finished workers so the
                    // registry doesn't grow with total connections served.
                    let (done, live): (Vec<_>, Vec<_>) =
                        ws.drain(..).partition(std::thread::JoinHandle::is_finished);
                    *ws = live;
                    ws.push(handle);
                    drop(ws);
                    for h in done {
                        let _ = h.join();
                    }
                }
                Err(_) => {
                    state2.active.fetch_sub(1, Ordering::SeqCst);
                }
            }
        })?;
    Ok(TcpServerHandle {
        addr,
        state,
        accept: Some(accept),
        workers,
    })
}

/// Writes the load-shedding refusal control frame, half-closes, then
/// briefly drains whatever the client already sent before dropping the
/// socket — closing with unread data would send an RST that could discard
/// the refusal from the client's receive buffer. Runs in a short-lived
/// detached thread so a slow client can't stall the accept loop.
fn shed_connection(mut stream: TcpStream, state: &ServerState) {
    let msg = format!(
        "connection limit of {} reached",
        state.opts.max_connections.unwrap_or(0)
    );
    let _ = std::thread::Builder::new()
        .name("simcloud-tcp-shed".into())
        .spawn(move || {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let mut framed = Vec::with_capacity(8 + msg.len());
            framed.extend_from_slice(&CONTROL_FRAME.to_le_bytes());
            framed.extend_from_slice(msg.as_bytes());
            if let Ok(len) = u32::try_from(framed.len()) {
                let _ = stream.write_all(&len.to_le_bytes());
                let _ = stream.write_all(&framed);
                let _ = stream.flush();
            }
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
            let mut scratch = [0u8; 4096];
            let deadline = Instant::now() + Duration::from_secs(1);
            while Instant::now() < deadline {
                match stream.read(&mut scratch) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        });
}

/// Waits for the next request frame, polling in [`POLL_TICK`] slices so
/// the stop flag and idle deadline are observed *between* frames only.
/// Returns `None` when the connection should close (client gone, idle
/// timeout, shutdown, torn frame, oversized frame, I/O error).
fn await_request<S: DeadlineStream>(stream: &mut S, state: &ServerState) -> Option<Vec<u8>> {
    let idle_deadline = state.opts.idle_timeout.map(|t| Instant::now() + t);
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        if filled == 0 {
            if state.stop.load(Ordering::SeqCst) {
                return None; // frame boundary: safe drain point
            }
            if idle_deadline.is_some_and(|d| Instant::now() >= d) {
                return None; // idle kick
            }
        }
        if stream.set_read_deadline(Some(POLL_TICK)).is_err() {
            return None;
        }
        let rest = len_buf.get_mut(filled..)?;
        match stream.read(rest) {
            Ok(0) => return None, // client closed (cleanly or mid-prefix)
            Ok(n) => filled += n,
            Err(e) if is_stall(e.kind()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES + 8 {
        return None; // hostile length prefix: close without allocating
    }
    let mut payload = vec![0u8; len];
    // Mid-frame: the sender has committed, so a plain stall cap applies
    // (a slow-loris peer is cut after read_timeout, not kept forever).
    match read_exact_deadline(stream, &mut payload, None, state.opts.read_timeout) {
        Ok(ReadOutcome::Full) => Some(payload),
        _ => None, // torn frame, stall, or I/O error
    }
}

fn serve_connection<S: DeadlineStream, H: SharedRequestHandler>(
    mut stream: FaultStream<S>,
    state: &ServerState,
    handler: &H,
) {
    while let Some(request) = await_request(&mut stream, state) {
        let start = Instant::now();
        let response = handler.handle_shared(&request);
        let server_ns = u64::try_from(start.elapsed().as_nanos())
            .unwrap_or(CONTROL_FRAME)
            .min(CONTROL_FRAME - 1); // u64::MAX is reserved for control frames
        if write_response_deadline(&mut stream, server_ns, &response, state.opts.write_timeout)
            .is_err()
        {
            break;
        }
    }
    state.active.fetch_sub(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_round_trip() {
        let server = serve_tcp_shared(Arc::new(|req: &[u8]| {
            let mut out = req.to_vec();
            out.reverse();
            out
        }))
        .unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        assert_eq!(client.round_trip(b"hello").unwrap(), b"olleh");
        assert_eq!(client.round_trip(b"x").unwrap(), b"x");
        let s = client.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes_sent, (5 + 4) as u64 + (1 + 4) as u64);
        assert_eq!(s.bytes_received, s.bytes_sent);
        assert_eq!(s.retries, 0);
        assert_eq!(s.reconnects, 0);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn shutdown_with_client_still_connected_does_not_hang() {
        let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        assert_eq!(client.round_trip(b"ping").unwrap(), b"ping");
        // Client intentionally kept alive across shutdown.
        server.shutdown();
        drop(client);
    }

    #[test]
    fn shutdown_is_prompt_and_drains_workers() {
        let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        assert_eq!(client.round_trip(b"a").unwrap(), b"a");
        assert_eq!(server.active_connections(), 1);
        let start = Instant::now();
        server.shutdown();
        // Prompt: one poll tick for accept + one for the worker, not "on
        // the next incoming connection".
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            start.elapsed()
        );
        // The drained worker closed the connection; the next request
        // cannot succeed (it errors after exhausting quick retries).
        let cfg = TcpClientConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            connect_timeout: Some(Duration::from_millis(200)),
            ..TcpClientConfig::default()
        };
        client.config = cfg;
        assert!(client.round_trip(b"b").is_err());
    }

    #[test]
    fn tcp_server_time_attribution() {
        let server = serve_tcp_shared(Arc::new(|_req: &[u8]| {
            std::thread::sleep(Duration::from_millis(10));
            vec![0u8; 8]
        }))
        .unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        client.round_trip(b"q").unwrap();
        let s = client.stats();
        assert!(
            s.server_time >= Duration::from_millis(10),
            "server time {:?} should include the sleep",
            s.server_time
        );
        assert!(
            s.comm_time < Duration::from_millis(10),
            "comm time {:?} should exclude the server sleep",
            s.comm_time
        );
        drop(client);
        server.shutdown();
    }

    #[test]
    fn tcp_large_payload() {
        let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        let big = vec![0xabu8; 1_000_000];
        let resp = client.round_trip(&big).unwrap();
        assert_eq!(resp, big);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        // Raw stream poke: claim a frame bigger than the cap. The server
        // must close (BadFrame territory), not allocate 1 GiB.
        let huge = u32::try_from(MAX_FRAME_BYTES + 9).unwrap();
        let stream = client.conn.as_mut().unwrap();
        stream.write_all(&huge.to_le_bytes()).unwrap();
        stream.flush().unwrap();
        let mut probe = [0u8; 1];
        stream
            .set_read_deadline(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            stream.read(&mut probe).unwrap(),
            0,
            "server must close on an oversized length prefix"
        );
        server.shutdown();
    }

    #[test]
    fn idle_timeout_closes_silent_connections() {
        let server = serve_tcp_shared_with(
            Arc::new(|req: &[u8]| req.to_vec()),
            ServeOptions {
                idle_timeout: Some(Duration::from_millis(60)),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut client = TcpTransport::connect_with(
            server.addr(),
            TcpClientConfig {
                retry: RetryPolicy::none(),
                ..TcpClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(client.round_trip(b"live").unwrap(), b"live");
        std::thread::sleep(Duration::from_millis(200));
        // The server kicked us while idle; without retries the failure
        // surfaces, with the default policy a reconnect would hide it.
        assert!(client.round_trip(b"late").is_err());
        assert_eq!(server.active_connections(), 0);
        server.shutdown();
    }

    #[test]
    fn reconnect_hides_idle_kick_with_retries_enabled() {
        let server = serve_tcp_shared_with(
            Arc::new(|req: &[u8]| req.to_vec()),
            ServeOptions {
                idle_timeout: Some(Duration::from_millis(60)),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        assert_eq!(client.round_trip(b"one").unwrap(), b"one");
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(client.round_trip(b"two").unwrap(), b"two");
        let s = client.stats();
        assert!(s.reconnects >= 1, "expected a reconnect, stats: {s}");
        server.shutdown();
    }

    #[test]
    fn connection_limit_sheds_with_typed_refusal() {
        let server = serve_tcp_shared_with(
            Arc::new(|req: &[u8]| req.to_vec()),
            ServeOptions {
                max_connections: Some(1),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut first = TcpTransport::connect(server.addr()).unwrap();
        assert_eq!(first.round_trip(b"a").unwrap(), b"a");
        // Second client: every attempt is shed while the first holds the
        // only slot, so the typed refusal surfaces after retries.
        let mut second = TcpTransport::connect_with(
            server.addr(),
            TcpClientConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff: Duration::from_millis(1),
                    ..RetryPolicy::default()
                },
                ..TcpClientConfig::default()
            },
        )
        .unwrap();
        match second.round_trip(b"b") {
            Err(TransportError::Rejected(msg)) => {
                assert!(msg.contains("limit"), "unexpected refusal message: {msg}");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert!(server.shed_connections() >= 1);
        // Free the slot; the shed client recovers by reconnecting.
        drop(first);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(second.round_trip(b"c").unwrap(), b"c");
        server.shutdown();
    }

    #[test]
    fn request_deadline_bounds_a_stalled_server() {
        // Handler sleeps far past the client's deadline.
        let server = serve_tcp_shared(Arc::new(|_req: &[u8]| {
            std::thread::sleep(Duration::from_millis(500));
            vec![1]
        }))
        .unwrap();
        let mut client = TcpTransport::connect_with(
            server.addr(),
            TcpClientConfig {
                request_deadline: Some(Duration::from_millis(80)),
                retry: RetryPolicy::none(),
                ..TcpClientConfig::default()
            },
        )
        .unwrap();
        let start = Instant::now();
        match client.round_trip(b"slow") {
            Err(TransportError::TimedOut) => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "deadline not enforced: {:?}",
            start.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn per_read_timeout_bounds_a_stalled_server() {
        let server = serve_tcp_shared(Arc::new(|_req: &[u8]| {
            std::thread::sleep(Duration::from_millis(500));
            vec![1]
        }))
        .unwrap();
        let mut client = TcpTransport::connect_with(
            server.addr(),
            TcpClientConfig {
                read_timeout: Some(Duration::from_millis(50)),
                retry: RetryPolicy::none(),
                ..TcpClientConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            client.round_trip(b"slow"),
            Err(TransportError::TimedOut)
        ));
        server.shutdown();
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 42,
        };
        // Deterministic: same inputs, same outputs.
        assert_eq!(p.backoff_before(2), p.backoff_before(2));
        for attempt in 2..10 {
            let b = p.backoff_before(attempt);
            // Jitter keeps every backoff in [cap/2, cap].
            assert!(b <= p.max_backoff, "attempt {attempt}: {b:?}");
            assert!(b >= Duration::from_millis(5), "attempt {attempt}: {b:?}");
        }
        // Different seeds give different jitter (overwhelmingly likely).
        let q = RetryPolicy {
            jitter_seed: 43,
            ..p
        };
        assert_ne!(p.backoff_before(3), q.backoff_before(3));
    }

    #[test]
    fn tcp_concurrent_clients_share_handler_state() {
        struct Counter(std::sync::atomic::AtomicU32);
        impl SharedRequestHandler for Counter {
            fn handle_shared(&self, _r: &[u8]) -> Vec<u8> {
                let n = self.0.fetch_add(1, Ordering::SeqCst) + 1;
                n.to_le_bytes().to_vec()
            }
        }
        let server = serve_tcp_shared(Arc::new(Counter(Default::default()))).unwrap();
        let mut c1 = TcpTransport::connect(server.addr()).unwrap();
        let mut c2 = TcpTransport::connect(server.addr()).unwrap();
        let r1 = u32::from_le_bytes(c1.round_trip(b"a").unwrap().try_into().unwrap());
        let r2 = u32::from_le_bytes(c2.round_trip(b"b").unwrap().try_into().unwrap());
        let r3 = u32::from_le_bytes(c1.round_trip(b"c").unwrap().try_into().unwrap());
        assert_eq!(
            {
                let mut v = vec![r1, r2, r3];
                v.sort_unstable();
                v
            },
            vec![1, 2, 3],
            "all clients hit one shared handler"
        );
        drop(c1);
        drop(c2);
        server.shutdown();
    }

    #[test]
    fn tcp_shared_handler_serves_concurrent_clients_without_lock() {
        use std::sync::atomic::AtomicU64;

        // A shared handler that records the number of requests in flight at
        // once; with serve_tcp_shared two stalled requests must overlap.
        struct SlowCounter {
            in_flight: AtomicU64,
            max_in_flight: AtomicU64,
            served: AtomicU64,
        }
        impl SharedRequestHandler for SlowCounter {
            fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
                let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                self.max_in_flight.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                self.served.fetch_add(1, Ordering::SeqCst);
                request.to_vec()
            }
        }

        let handler = Arc::new(SlowCounter {
            in_flight: AtomicU64::new(0),
            max_in_flight: AtomicU64::new(0),
            served: AtomicU64::new(0),
        });
        let server = serve_tcp_shared(Arc::clone(&handler)).unwrap();
        let addr = server.addr();
        std::thread::scope(|s| {
            for i in 0u8..3 {
                s.spawn(move || {
                    let mut client = TcpTransport::connect(addr).unwrap();
                    assert_eq!(client.round_trip(&[i]).unwrap(), vec![i]);
                });
            }
        });
        assert_eq!(handler.served.load(Ordering::SeqCst), 3);
        assert!(
            handler.max_in_flight.load(Ordering::SeqCst) >= 2,
            "shared serving must overlap requests, max in flight was {}",
            handler.max_in_flight.load(Ordering::SeqCst)
        );
        server.shutdown();
    }

    #[test]
    fn shared_adapter_drives_request_handler_apis() {
        // The Arc'd handler a TCP server shares also drives the in-process
        // transport directly, with no adapter in between.
        struct Echo;
        impl SharedRequestHandler for Echo {
            fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
                request.to_vec()
            }
        }
        let mut t = crate::InProcessTransport::new(Arc::new(Echo));
        assert_eq!(t.round_trip(b"hi").unwrap(), b"hi");
    }

    #[test]
    fn tcp_sequential_clients() {
        let server = serve_tcp_shared(Arc::new(|req: &[u8]| vec![req.len() as u8])).unwrap();
        for i in 1..4usize {
            let mut client = TcpTransport::connect(server.addr()).unwrap();
            let resp = client.round_trip(&vec![0u8; i]).unwrap();
            assert_eq!(resp, vec![i as u8]);
            // client dropped here; server accepts the next one
        }
        server.shutdown();
    }
}
