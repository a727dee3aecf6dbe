//! The fault harness driving real TCP streams: drops, delays, cuts and
//! periodic fault profiles, and the retry/reconnect machinery recovering
//! from each — or surfacing typed errors when retries are disabled.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simcloud_transport::{
    serve_tcp_shared, serve_tcp_shared_with, Direction, FaultAction, FaultRule, FaultScript,
    RequestClass, RetryPolicy, ServeOptions, TcpClientConfig, TcpTransport, Transport,
    TransportError,
};

fn quick_retries(max_attempts: u32) -> TcpClientConfig {
    TcpClientConfig {
        read_timeout: Some(Duration::from_millis(200)),
        request_deadline: Some(Duration::from_secs(5)),
        retry: RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 7,
        },
        ..TcpClientConfig::default()
    }
}

#[test]
fn dropped_send_times_out_then_recovers() {
    let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    // Drop the first socket write: the request never leaves, the read
    // stalls, the per-read timeout fires, the retry reconnects.
    let script = FaultScript::new(vec![FaultRule::once(Direction::Send, 0, FaultAction::Drop)]);
    let mut client =
        TcpTransport::connect_faulty(server.addr(), quick_retries(3), Arc::clone(&script)).unwrap();
    assert_eq!(client.round_trip(b"there").unwrap(), b"there");
    let s = client.stats();
    assert!(s.retries >= 1, "a retry must have happened: {s}");
    assert_eq!(script.injected(), 1);
    server.shutdown();
}

#[test]
fn dropped_response_times_out_then_recovers() {
    let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    let script = FaultScript::new(vec![FaultRule::once(Direction::Recv, 0, FaultAction::Drop)]);
    let mut client = TcpTransport::connect_faulty(server.addr(), quick_retries(3), script).unwrap();
    assert_eq!(client.round_trip(b"echo").unwrap(), b"echo");
    assert!(client.stats().retries >= 1);
    server.shutdown();
}

#[test]
fn short_delay_passes_without_retry() {
    let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    // 50 ms delay on the response read, under the 200 ms read timeout.
    let script = FaultScript::new(vec![FaultRule::once(
        Direction::Recv,
        0,
        FaultAction::Delay(Duration::from_millis(50)),
    )]);
    let mut client = TcpTransport::connect_faulty(server.addr(), quick_retries(3), script).unwrap();
    assert_eq!(client.round_trip(b"patience").unwrap(), b"patience");
    assert_eq!(client.stats().retries, 0, "a tolerable delay is no fault");
    server.shutdown();
}

#[test]
fn long_delay_breaches_deadline_with_typed_error() {
    let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    // Every recv stalls past the read timeout; with retries exhausted the
    // typed timeout surfaces, within the whole-request deadline.
    let script = FaultScript::new(vec![FaultRule::every(
        Direction::Recv,
        1,
        FaultAction::Delay(Duration::from_millis(400)),
    )]);
    let config = TcpClientConfig {
        request_deadline: Some(Duration::from_secs(2)),
        ..quick_retries(2)
    };
    let mut client = TcpTransport::connect_faulty(server.addr(), config, script).unwrap();
    let start = Instant::now();
    match client.round_trip(b"doomed") {
        Err(TransportError::TimedOut) => {}
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(3), "bounded failure");
    server.shutdown();
}

#[test]
fn cut_at_every_early_op_recovers_or_fails_typed() {
    // Mini chaos sweep at the pure-transport level (the full protocol
    // sweep lives in simcloud-core's chaos_rpc test): cut the connection
    // at each of the first several ops in each direction; with generous
    // retries the echo must still come back, byte-identical.
    for dir in [Direction::Send, Direction::Recv] {
        for at in 0..4u64 {
            let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
            let script = FaultScript::new(vec![FaultRule::once(dir, at, FaultAction::Cut)]);
            let mut client =
                TcpTransport::connect_faulty(server.addr(), quick_retries(4), Arc::clone(&script))
                    .unwrap();
            let payload = format!("sweep-{dir:?}-{at}");
            let got = client
                .round_trip(payload.as_bytes())
                .unwrap_or_else(|e| panic!("cut at {dir:?} op {at} did not recover: {e}"));
            assert_eq!(got, payload.as_bytes(), "cut at {dir:?} op {at}");
            server.shutdown();
        }
    }
}

#[test]
fn non_idempotent_requests_fail_fast_after_send_started() {
    let server = serve_tcp_shared(Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    // Cut on the second socket write — mid-request, after bytes left.
    let script = FaultScript::new(vec![FaultRule::once(Direction::Send, 1, FaultAction::Cut)]);
    let mut client = TcpTransport::connect_faulty(server.addr(), quick_retries(5), script).unwrap();
    let err = client
        .round_trip_with(b"insert!", RequestClass::NonIdempotent, None)
        .expect_err("a mid-send cut must not be retried for NonIdempotent");
    assert!(
        matches!(
            err,
            TransportError::Io(_) | TransportError::Disconnected | TransportError::TimedOut
        ),
        "typed transport error expected, got {err:?}"
    );
    assert_eq!(client.stats().retries, 0, "no blind replay of inserts");
    server.shutdown();
}

#[test]
fn periodic_drop_profile_all_requests_eventually_succeed() {
    // Short server read timeout: a dropped request payload leaves the
    // worker mid-frame, and it must free itself quickly.
    let server = serve_tcp_shared_with(
        Arc::new(|req: &[u8]| req.to_vec()),
        ServeOptions {
            read_timeout: Some(Duration::from_millis(200)),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    // Every 5th socket op in each direction is dropped — a lossy-network
    // profile. With retries, every request must still succeed.
    let script = FaultScript::new(vec![
        FaultRule::every(Direction::Send, 5, FaultAction::Drop),
        FaultRule::every(Direction::Recv, 5, FaultAction::Drop),
    ]);
    let config = TcpClientConfig {
        read_timeout: Some(Duration::from_millis(100)),
        ..quick_retries(6)
    };
    let mut client =
        TcpTransport::connect_faulty(server.addr(), config, Arc::clone(&script)).unwrap();
    for i in 0..20u32 {
        let payload = i.to_le_bytes();
        assert_eq!(client.round_trip(&payload).unwrap(), payload, "request {i}");
    }
    assert!(
        script.injected() > 0,
        "the profile must actually have fired"
    );
    server.shutdown();
}

#[test]
fn server_side_faults_are_survivable_too() {
    // Arm the script on the *server's* accepted connections: its response
    // writes get cut; the client reconnects and retries.
    let script = FaultScript::new(vec![FaultRule::once(Direction::Send, 1, FaultAction::Cut)]);
    let server = serve_tcp_shared_with(
        Arc::new(|req: &[u8]| req.to_vec()),
        ServeOptions {
            fault: Some(Arc::clone(&script)),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut client = TcpTransport::connect_with(server.addr(), quick_retries(4)).unwrap();
    assert_eq!(client.round_trip(b"first").unwrap(), b"first");
    assert_eq!(client.round_trip(b"second").unwrap(), b"second");
    assert!(script.injected() >= 1);
    server.shutdown();
}
