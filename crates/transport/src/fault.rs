//! Network fault injection — the transport counterpart to the storage
//! crate's `FaultEnv`.
//!
//! A [`FaultScript`] is a shared, thread-safe schedule of [`FaultRule`]s
//! keyed by *operation index* per [`Direction`]: every read from the peer
//! is one `Recv` op, every write toward the peer is one `Send` op. Rules
//! fire once ([`FaultRule::once`]) or periodically ([`FaultRule::every`]),
//! injecting a [`FaultAction`]:
//!
//! * `Cut` — hard disconnect: sends fail with `ConnectionReset`, reads
//!   return EOF, and the stream stays dead (the peer sees a close);
//! * `Delay` — stall the op (exercises read/write timeouts);
//! * `Truncate` — deliver/emit only a prefix of the op, then die mid-frame
//!   (the torn-frame case);
//! * `CorruptBit` — flip one bit in the bytes that pass through (exercises
//!   MAC verification and decode hardening);
//! * `Drop` — swallow the op: a send pretends success, a recv consumes
//!   nothing and times out (exercises deadlines, not disconnect handling).
//!
//! The same script drives both layers of injection:
//!
//! * [`FaultStream`] wraps any `Read + Write` byte stream (a real
//!   `TcpStream` via `TcpTransport::connect_faulty`, or served connections
//!   via `ServeOptions::fault`), counting raw socket ops;
//! * [`FaultTransport`] wraps a whole [`Transport`] in-process, counting
//!   round trips (one `Send` + one `Recv` op per call).
//!
//! Because the script is shared via `Arc` and op counters live inside it,
//! the schedule survives reconnects — "cut the 7th socket write" means the
//! 7th across all connections the client opens, which is what a
//! disconnect-at-every-op sweep needs.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::transport::RequestClass;
use crate::{Transport, TransportError, TransportStats};

/// Which direction of the byte flow a rule applies to, from the wrapped
/// endpoint's point of view: `Send` = bytes written toward the peer,
/// `Recv` = bytes read from the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Writes toward the peer.
    Send,
    /// Reads from the peer.
    Recv,
}

/// The injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Hard disconnect: the op fails, the stream is dead from now on.
    Cut,
    /// Stall the op for the given duration, then perform it normally.
    Delay(Duration),
    /// Flip one bit of the data passing through (at `offset` modulo the
    /// op's byte count).
    CorruptBit {
        /// Byte offset whose lowest bit is flipped (taken modulo the
        /// number of bytes the op actually moves).
        offset: usize,
    },
    /// Perform only a `keep`-byte prefix of the op, then kill the stream —
    /// the peer observes a torn frame.
    Truncate {
        /// Bytes allowed through before the stream dies.
        keep: usize,
    },
    /// Swallow the op: a send pretends success without transmitting, a
    /// recv consumes the peer's bytes but delivers a timeout.
    Drop,
}

/// One scheduled fault: fire `action` on `dir` ops, starting at op
/// `at_op` (0-based), once or every `period` ops thereafter.
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// Direction the rule watches.
    pub dir: Direction,
    /// First op index (0-based) the rule fires at.
    pub at_op: u64,
    /// `None` = fire once; `Some(p)` = fire at `at_op`, `at_op + p`, ….
    pub period: Option<u64>,
    /// What to inject.
    pub action: FaultAction,
}

impl FaultRule {
    /// A one-shot rule: fire `action` exactly once, at op `at_op`.
    pub fn once(dir: Direction, at_op: u64, action: FaultAction) -> Self {
        Self {
            dir,
            at_op,
            period: None,
            action,
        }
    }

    /// A periodic rule: fire `action` every `period` ops (first at op
    /// `period - 1`, i.e. on every `period`-th op). A `period` of 0 is
    /// treated as 1 (every op).
    pub fn every(dir: Direction, period: u64, action: FaultAction) -> Self {
        let period = period.max(1);
        Self {
            dir,
            at_op: period - 1,
            period: Some(period),
            action,
        }
    }
}

#[derive(Debug, Default)]
struct ScriptState {
    rules: Vec<FaultRule>,
    fired: Vec<bool>,
    send_ops: u64,
    recv_ops: u64,
    injected: u64,
}

/// A shared, thread-safe fault schedule. Clone the `Arc` into as many
/// [`FaultStream`]s / [`FaultTransport`]s as needed; op counters are
/// global across all of them (and thus across reconnects).
#[derive(Debug, Default)]
pub struct FaultScript {
    state: Mutex<ScriptState>,
}

impl FaultScript {
    /// Builds a script from a rule list.
    pub fn new(rules: Vec<FaultRule>) -> Arc<Self> {
        let fired = vec![false; rules.len()];
        Arc::new(Self {
            state: Mutex::new(ScriptState {
                rules,
                fired,
                send_ops: 0,
                recv_ops: 0,
                injected: 0,
            }),
        })
    }

    /// A script with no rules — useful to *count* ops on a healthy run
    /// before scripting faults at each counted index.
    pub fn quiet() -> Arc<Self> {
        Self::new(Vec::new())
    }

    /// Consumes the next op in `dir`: advances the counter and returns the
    /// action to inject, if any rule matches. First matching rule wins.
    fn next(&self, dir: Direction) -> Option<FaultAction> {
        let mut st = self.state.lock();
        let op = match dir {
            Direction::Send => {
                let op = st.send_ops;
                st.send_ops += 1;
                op
            }
            Direction::Recv => {
                let op = st.recv_ops;
                st.recv_ops += 1;
                op
            }
        };
        let mut hit: Option<(usize, FaultAction)> = None;
        for (i, rule) in st.rules.iter().enumerate() {
            if rule.dir != dir {
                continue;
            }
            let already = st.fired.get(i).copied().unwrap_or(true);
            let matches = match rule.period {
                None => !already && op == rule.at_op,
                Some(p) => op >= rule.at_op && (op - rule.at_op) % p.max(1) == 0,
            };
            if matches {
                hit = Some((i, rule.action));
                break;
            }
        }
        if let Some((i, action)) = hit {
            if let Some(f) = st.fired.get_mut(i) {
                *f = true;
            }
            st.injected += 1;
            return Some(action);
        }
        None
    }

    /// Ops counted so far in `dir`.
    pub fn ops(&self, dir: Direction) -> u64 {
        let st = self.state.lock();
        match dir {
            Direction::Send => st.send_ops,
            Direction::Recv => st.recv_ops,
        }
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().injected
    }
}

/// A `Read + Write` wrapper that consults a [`FaultScript`] on every
/// socket op. `script = None` is a zero-overhead passthrough, which lets
/// the TCP client hold one stream type whether or not faults are armed.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    script: Option<Arc<FaultScript>>,
    dead: bool,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`; `script = None` means transparent passthrough.
    pub fn wrap(inner: S, script: Option<Arc<FaultScript>>) -> Self {
        Self {
            inner,
            script,
            dead: false,
            read_timeout: None,
            write_timeout: None,
        }
    }

    /// Records the read timeout currently armed on the wrapped socket, so
    /// an injected `Delay` can faithfully emulate a stalled peer: a delay
    /// longer than the timeout yields `TimedOut` *without* consuming data,
    /// exactly as the real socket would behave.
    pub fn note_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    /// Write-direction counterpart of [`FaultStream::note_read_timeout`].
    pub fn note_write_timeout(&mut self, timeout: Option<Duration>) {
        self.write_timeout = timeout;
    }

    /// Emulates a peer stalling for `delay` against `timeout`: sleeps the
    /// smaller of the two and reports whether the timeout fired first.
    fn stall(delay: Duration, timeout: Option<Duration>) -> bool {
        match timeout {
            Some(t) if t < delay => {
                std::thread::sleep(t);
                true
            }
            _ => {
                std::thread::sleep(delay);
                false
            }
        }
    }

    /// Mutable access to the wrapped stream (socket timeouts etc.).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Whether an injected `Cut`/`Truncate` has killed this stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn consult(&self, dir: Direction) -> Option<FaultAction> {
        self.script.as_ref().and_then(|s| s.next(dir))
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Ok(0); // a killed stream looks like a clean close
        }
        match self.consult(Direction::Recv) {
            None => self.inner.read(buf),
            Some(FaultAction::Delay(d)) => {
                if Self::stall(d, self.read_timeout) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "injected recv delay past the read timeout",
                    ));
                }
                self.inner.read(buf)
            }
            Some(FaultAction::Cut) => {
                self.dead = true;
                Ok(0)
            }
            Some(FaultAction::CorruptBit { offset }) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    if let Some(b) = buf.get_mut(offset % n) {
                        *b ^= 1;
                    }
                }
                Ok(n)
            }
            Some(FaultAction::Truncate { keep }) => {
                self.dead = true;
                let cap = keep.min(buf.len());
                match buf.get_mut(..cap) {
                    Some(prefix) if cap > 0 => self.inner.read(prefix),
                    _ => Ok(0),
                }
            }
            Some(FaultAction::Drop) => {
                // Swallow whatever the peer sent without delivering it;
                // the caller observes a stall, i.e. a timeout.
                let mut scratch = [0u8; 4096];
                let _ = self.inner.read(&mut scratch);
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "injected recv drop",
                ))
            }
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "stream killed by injected fault",
            ));
        }
        match self.consult(Direction::Send) {
            None => self.inner.write(buf),
            Some(FaultAction::Delay(d)) => {
                if Self::stall(d, self.write_timeout) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "injected send delay past the write timeout",
                    ));
                }
                self.inner.write(buf)
            }
            Some(FaultAction::Cut) => {
                self.dead = true;
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected send cut",
                ))
            }
            Some(FaultAction::CorruptBit { offset }) => {
                let mut copy = buf.to_vec();
                let at = offset % copy.len().max(1);
                if let Some(b) = copy.get_mut(at) {
                    *b ^= 1;
                }
                self.inner.write_all(&copy)?;
                Ok(buf.len())
            }
            Some(FaultAction::Truncate { keep }) => {
                let cap = keep.min(buf.len());
                if let Some(prefix) = buf.get(..cap) {
                    if cap > 0 {
                        self.inner.write_all(prefix)?;
                        let _ = self.inner.flush();
                    }
                }
                self.dead = true;
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected send truncation",
                ))
            }
            Some(FaultAction::Drop) => Ok(buf.len()), // pretend success
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Ok(());
        }
        self.inner.flush()
    }
}

/// In-process fault injection at round-trip granularity: each
/// [`Transport::round_trip`] counts one `Send` op (the request) and one
/// `Recv` op (the response), and the scripted action applies to the whole
/// message.
pub struct FaultTransport<T> {
    inner: T,
    script: Arc<FaultScript>,
}

impl<T> std::fmt::Debug for FaultTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultTransport").finish_non_exhaustive()
    }
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, injecting faults per `script`.
    pub fn new(inner: T, script: Arc<FaultScript>) -> Self {
        Self { inner, script }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The shared script (for op counts / injected totals).
    pub fn script(&self) -> &Arc<FaultScript> {
        &self.script
    }

    /// Applies a request-direction action; `Ok(Some(bytes))` carries the
    /// (possibly corrupted) request through, `Ok(None)` keeps the
    /// original, `Err` aborts the round trip.
    fn apply_send(&self, request: &[u8]) -> Result<Option<Vec<u8>>, TransportError> {
        match self.script.next(Direction::Send) {
            None => Ok(None),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(None)
            }
            Some(FaultAction::Cut) | Some(FaultAction::Truncate { .. }) => {
                Err(TransportError::Disconnected)
            }
            Some(FaultAction::Drop) => Err(TransportError::TimedOut),
            Some(FaultAction::CorruptBit { offset }) => {
                let mut copy = request.to_vec();
                let at = offset % copy.len().max(1);
                if let Some(b) = copy.get_mut(at) {
                    *b ^= 1;
                }
                Ok(Some(copy))
            }
        }
    }

    /// Applies a response-direction action to `response`.
    fn apply_recv(&self, mut response: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        match self.script.next(Direction::Recv) {
            None => Ok(response),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(response)
            }
            Some(FaultAction::Cut) | Some(FaultAction::Truncate { .. }) => {
                Err(TransportError::Disconnected)
            }
            Some(FaultAction::Drop) => Err(TransportError::TimedOut),
            Some(FaultAction::CorruptBit { offset }) => {
                let len = response.len().max(1);
                if let Some(b) = response.get_mut(offset % len) {
                    *b ^= 1;
                }
                Ok(response)
            }
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.round_trip_with(request, RequestClass::Idempotent, None)
    }

    fn round_trip_with(
        &mut self,
        request: &[u8],
        class: RequestClass,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, TransportError> {
        let sent = self.apply_send(request)?;
        let effective = sent.as_deref().unwrap_or(request);
        let response = self.inner.round_trip_with(effective, class, deadline)?;
        self.apply_recv(response)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InProcessTransport;

    #[test]
    fn one_shot_rule_fires_once_at_index() {
        let script = FaultScript::new(vec![FaultRule::once(Direction::Send, 1, FaultAction::Cut)]);
        assert_eq!(script.next(Direction::Send), None); // op 0
        assert_eq!(script.next(Direction::Recv), None); // other direction
        assert_eq!(script.next(Direction::Send), Some(FaultAction::Cut)); // op 1
        assert_eq!(script.next(Direction::Send), None); // fired already
        assert_eq!(script.ops(Direction::Send), 3);
        assert_eq!(script.ops(Direction::Recv), 1);
        assert_eq!(script.injected(), 1);
    }

    #[test]
    fn periodic_rule_fires_every_n() {
        let script = FaultScript::new(vec![FaultRule::every(
            Direction::Recv,
            3,
            FaultAction::Drop,
        )]);
        let hits: Vec<bool> = (0..9)
            .map(|_| script.next(Direction::Recv).is_some())
            .collect();
        assert_eq!(
            hits,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn fault_stream_cut_reads_eof_and_write_errors() {
        let script = FaultScript::new(vec![FaultRule::once(Direction::Send, 0, FaultAction::Cut)]);
        let mut s = FaultStream::wrap(std::io::Cursor::new(vec![1u8, 2, 3]), Some(script));
        assert!(s.write(b"x").is_err());
        assert!(s.is_dead());
        let mut buf = [0u8; 3];
        assert_eq!(s.read(&mut buf).unwrap(), 0); // dead = EOF
        assert!(s.write(b"y").is_err()); // stays dead
    }

    #[test]
    fn fault_stream_truncate_delivers_prefix_then_eof() {
        let script = FaultScript::new(vec![FaultRule::once(
            Direction::Recv,
            0,
            FaultAction::Truncate { keep: 2 },
        )]);
        let mut s = FaultStream::wrap(std::io::Cursor::new(vec![9u8, 8, 7, 6]), Some(script));
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], &[9, 8]);
        assert_eq!(s.read(&mut buf).unwrap(), 0); // dead after the torn read
    }

    #[test]
    fn fault_stream_corrupt_flips_one_bit() {
        let script = FaultScript::new(vec![FaultRule::once(
            Direction::Recv,
            0,
            FaultAction::CorruptBit { offset: 1 },
        )]);
        let mut s = FaultStream::wrap(std::io::Cursor::new(vec![0u8, 0, 0]), Some(script));
        let mut buf = [0u8; 3];
        assert_eq!(s.read(&mut buf).unwrap(), 3);
        assert_eq!(buf, [0, 1, 0]);
    }

    #[test]
    fn passthrough_when_no_script() {
        let mut s = FaultStream::wrap(std::io::Cursor::new(vec![5u8, 6]), None);
        let mut buf = [0u8; 2];
        assert_eq!(s.read(&mut buf).unwrap(), 2);
        assert_eq!(buf, [5, 6]);
    }

    #[test]
    fn fault_transport_injects_at_round_trip_granularity() {
        let script = FaultScript::new(vec![FaultRule::once(Direction::Recv, 1, FaultAction::Cut)]);
        let inner = InProcessTransport::new(|req: &[u8]| req.to_vec());
        let mut t = FaultTransport::new(inner, Arc::clone(&script));
        assert_eq!(t.round_trip(b"ok").unwrap(), b"ok"); // round trip 0 clean
        assert!(matches!(
            t.round_trip(b"boom"),
            Err(TransportError::Disconnected)
        ));
        assert_eq!(t.stats().requests, 2, "inner transport saw both");
        assert_eq!(script.injected(), 1);
    }

    #[test]
    fn fault_transport_corrupts_response_bytes() {
        let script = FaultScript::new(vec![FaultRule::once(
            Direction::Recv,
            0,
            FaultAction::CorruptBit { offset: 0 },
        )]);
        let inner = InProcessTransport::new(|_: &[u8]| vec![0u8, 0]);
        let mut t = FaultTransport::new(inner, script);
        assert_eq!(t.round_trip(b"q").unwrap(), vec![1u8, 0]);
    }
}
