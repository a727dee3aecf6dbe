//! Torn-frame coverage: a peer that writes a partial length prefix or a
//! partial payload and then closes (or stalls) must surface a typed error
//! — `Disconnected`, `BadFrame` or `TimedOut` — on both the client and the
//! server side. Never a hang, never a panic.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simcloud_transport::{
    serve_tcp_shared, serve_tcp_shared_with, Direction, FaultAction, FaultRule, FaultScript,
    RetryPolicy, TcpClientConfig, TcpTransport, Transport, TransportError,
};

/// A client config that fails fast and never retries, so the typed error
/// of the *first* failure surfaces.
fn strict() -> TcpClientConfig {
    TcpClientConfig {
        read_timeout: Some(Duration::from_millis(300)),
        write_timeout: Some(Duration::from_millis(300)),
        request_deadline: Some(Duration::from_secs(2)),
        retry: RetryPolicy::none(),
        ..TcpClientConfig::default()
    }
}

/// Spawns a raw fake server: accepts one connection, hands the stream to
/// `script`, exits. Returns the address.
fn fake_server(script: impl FnOnce(TcpStream) + Send + 'static) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            script(stream);
        }
    });
    addr
}

/// Reads and discards one well-formed frame (the client's request).
fn drain_request(stream: &mut TcpStream) {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).unwrap();
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
}

// ---------------------------------------------------------------------------
// Client side: the server tears the response
// ---------------------------------------------------------------------------

#[test]
fn client_survives_partial_length_prefix_then_close() {
    let addr = fake_server(|mut stream| {
        drain_request(&mut stream);
        stream.write_all(&[0x07, 0x00]).unwrap(); // 2 of 4 length bytes
        stream.flush().unwrap();
        // stream dropped: close mid-prefix
    });
    let mut client = TcpTransport::connect_with(addr, strict()).unwrap();
    let start = Instant::now();
    match client.round_trip(b"req") {
        Err(TransportError::Disconnected) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(2), "no hang allowed");
}

#[test]
fn client_survives_partial_payload_then_close() {
    let addr = fake_server(|mut stream| {
        drain_request(&mut stream);
        // Claim a 100-byte frame, deliver only 10 bytes of it.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0xEE; 10]).unwrap();
        stream.flush().unwrap();
    });
    let mut client = TcpTransport::connect_with(addr, strict()).unwrap();
    match client.round_trip(b"req") {
        Err(TransportError::Disconnected) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

#[test]
fn client_survives_partial_payload_then_stall() {
    let addr = fake_server(|mut stream| {
        drain_request(&mut stream);
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0xEE; 10]).unwrap();
        stream.flush().unwrap();
        // Keep the socket open but silent, well past the read timeout.
        std::thread::sleep(Duration::from_secs(2));
    });
    let mut client = TcpTransport::connect_with(addr, strict()).unwrap();
    let start = Instant::now();
    match client.round_trip(b"req") {
        Err(TransportError::TimedOut) => {}
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "read timeout must cut the stall, took {:?}",
        start.elapsed()
    );
}

#[test]
fn client_rejects_hostile_length_prefix() {
    let addr = fake_server(|mut stream| {
        drain_request(&mut stream);
        // Claim a frame just past the cap + response-header allowance.
        let huge = u32::try_from(simcloud_transport::MAX_FRAME_BYTES + 9).unwrap();
        stream.write_all(&huge.to_le_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(500));
    });
    let mut client = TcpTransport::connect_with(addr, strict()).unwrap();
    match client.round_trip(b"req") {
        Err(TransportError::BadFrame(msg)) => {
            assert!(msg.contains("cap"), "unexpected message: {msg}");
        }
        other => panic!("expected BadFrame, got {other:?}"),
    }
}

#[test]
fn client_survives_response_missing_server_time_header() {
    let addr = fake_server(|mut stream| {
        drain_request(&mut stream);
        // A complete frame, but shorter than the mandatory 8-byte header.
        stream.write_all(&3u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300));
    });
    let mut client = TcpTransport::connect_with(addr, strict()).unwrap();
    match client.round_trip(b"req") {
        Err(TransportError::BadFrame(msg)) => {
            assert!(msg.contains("server-time"), "unexpected message: {msg}");
        }
        other => panic!("expected BadFrame, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Server side: the client tears the request
// ---------------------------------------------------------------------------

/// Connects raw, sends `bytes`, closes, then proves the server is still
/// healthy by running a real request through a real client.
fn poke_then_verify_server_alive(bytes: &[u8]) {
    let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(bytes).unwrap();
        raw.flush().unwrap();
        // Dropped here: close mid-frame.
    }
    // Give the worker a moment to observe the torn frame and exit.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = TcpTransport::connect_with(server.addr(), strict()).unwrap();
    assert_eq!(client.round_trip(b"still alive").unwrap(), b"still alive");
    assert_eq!(
        server.active_connections(),
        1,
        "the torn connection's worker must have exited"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn server_survives_partial_length_prefix_then_close() {
    poke_then_verify_server_alive(&[0x01]);
}

#[test]
fn server_survives_partial_payload_then_close() {
    let mut bytes = 64u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0xAB; 16]); // 16 of the promised 64
    poke_then_verify_server_alive(&bytes);
}

#[test]
fn server_cuts_a_slow_loris_after_read_timeout() {
    use simcloud_transport::ServeOptions;
    let server = serve_tcp_shared_with(
        Arc::new(|req: &[u8]| req.to_vec()),
        ServeOptions {
            read_timeout: Some(Duration::from_millis(100)),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // Commit to a 64-byte frame but trickle only 4 bytes, then stall.
    raw.write_all(&64u32.to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 4]).unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    // The server must have cut us: the socket sees EOF (or reset).
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut probe = [0u8; 1];
    match raw.read(&mut probe) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server kept a slow-loris alive and sent {n} bytes"),
    }
    assert_eq!(server.active_connections(), 0);
    server.shutdown();
}

#[test]
fn server_rejects_hostile_length_prefix_without_allocating() {
    // 0xFFFF_FFFF length prefix = a 4 GiB allocation if unchecked.
    poke_then_verify_server_alive(&0xFFFF_FFFFu32.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Injected truncation through the fault harness (both layers agree)
// ---------------------------------------------------------------------------

#[test]
fn injected_send_truncation_yields_typed_error_without_retries() {
    let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    let script = FaultScript::new(vec![FaultRule::once(
        Direction::Send,
        0,
        FaultAction::Truncate { keep: 2 },
    )]);
    let mut client =
        TcpTransport::connect_faulty(server.addr(), strict(), Arc::clone(&script)).unwrap();
    assert!(client.round_trip(b"payload").is_err());
    assert_eq!(client.stats().retries, 0, "RetryPolicy::none must hold");
    assert_eq!(script.injected(), 1);
    server.shutdown();
}

#[test]
fn injected_truncation_recovers_with_retries_enabled() {
    let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    let script = FaultScript::new(vec![FaultRule::once(
        Direction::Send,
        0,
        FaultAction::Truncate { keep: 2 },
    )]);
    let config = TcpClientConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        ..strict()
    };
    let mut client = TcpTransport::connect_faulty(server.addr(), config, script).unwrap();
    assert_eq!(client.round_trip(b"payload").unwrap(), b"payload");
    let s = client.stats();
    assert!(s.retries >= 1 && s.reconnects >= 1, "stats: {s}");
    server.shutdown();
}
