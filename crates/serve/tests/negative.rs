//! Negative-path coverage for the HTTP front-end and the typed client:
//! malformed bodies, oversized requests, truncated headers, stalled
//! connections, and partial responses. The server must answer (or drop)
//! every one of these cleanly and keep serving afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ssdrec_models::{BackboneKind, SeqRec};
use ssdrec_serve::{serve_with, Engine, EngineConfig, ServeConfig, ServerStats};
use ssdrec_testkit::client::{self, ClientError};

const NUM_ITEMS: usize = 20;

fn start_server(read_timeout: Duration) -> ssdrec_serve::ServerHandle {
    let model = SeqRec::new(BackboneKind::SasRec, NUM_ITEMS, 8, 10, 7);
    let engine = Engine::new(
        model.into(),
        EngineConfig {
            workers: 1,
            max_len: 10,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    serve_with(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            read_timeout,
            write_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Write raw bytes on a fresh connection and return whatever the server
/// sends back (empty if it just closes).
fn raw_roundtrip(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).expect("write");
    // Half-close the write side so the server sees EOF mid-request.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn malformed_json_body_is_400_and_server_survives() {
    let handle = start_server(Duration::from_secs(5));
    let addr = handle.addr();
    for bad in [
        "{not json",
        "[]",
        "{\"user\":\"x\",\"seq\":[1]}",
        "{\"seq\":[1]}",
    ] {
        let (status, body) = client::post(addr, "/recommend", bad).expect("response");
        assert_eq!(status, 400, "body {bad:?} gave {status}: {body}");
        assert!(body.contains("error"), "{body}");
    }
    // Server still answers a good request afterwards.
    let (status, _) =
        client::post(addr, "/recommend", "{\"user\":0,\"seq\":[1,2],\"k\":3}").expect("response");
    assert_eq!(status, 200);
}

#[test]
fn deeply_nested_body_is_400_and_server_survives() {
    let handle = start_server(Duration::from_secs(5));
    let addr = handle.addr();
    // One recursion per `[` would run a connection thread off its stack and
    // abort the process; past the parser's depth bound it is a typed error.
    let (status, body) = client::post(addr, "/recommend", &"[".repeat(10_000)).expect("response");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    let (status, _) = client::get(addr, "/health").expect("health");
    assert_eq!(status, 200);
}

#[test]
fn oversized_declared_body_is_rejected() {
    let handle = start_server(Duration::from_secs(5));
    let addr = handle.addr();
    // Declares 2 MiB (over the 1 MiB bound) but never sends it; the server
    // must reject from the header alone rather than try to allocate/read.
    let payload = format!(
        "POST /recommend HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        2 * 1024 * 1024
    );
    let response = raw_roundtrip(addr, payload.as_bytes());
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "expected 400, got {response:?}"
    );
    assert!(response.contains("body too large"), "{response:?}");
}

#[test]
fn truncated_headers_get_a_clean_400() {
    let handle = start_server(Duration::from_secs(5));
    let addr = handle.addr();
    let response = raw_roundtrip(addr, b"GET /health HTTP/1.1\r\nHost: tru");
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "expected 400, got {response:?}"
    );
    assert!(response.contains("mid-headers"), "{response:?}");
    // And the listener is still alive.
    let (status, _) = client::get(addr, "/health").expect("health");
    assert_eq!(status, 200);
}

#[test]
fn stalled_connection_times_out_without_pinning_the_server() {
    let handle = start_server(Duration::from_millis(200));
    let addr = handle.addr();
    // Connect and send nothing: the per-connection read timeout must fire.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    let response = String::from_utf8_lossy(&out);
    assert!(
        response.is_empty() || response.starts_with("HTTP/1.1 500"),
        "unexpected response {response:?}"
    );
    assert!(
        handle.engine().stats().io_faults.load(Ordering::Relaxed) >= 1,
        "timeout not counted as an io fault"
    );
    // The server thread is free again.
    let (status, _) = client::get(addr, "/health").expect("health");
    assert_eq!(status, 200);
}

#[test]
fn client_types_partial_responses_from_a_dying_server() {
    // A fake "server" that sends half a response and slams the connection.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        for partial in [
            &b"HTTP/1.1 200 OK\r\nContent-"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"trunc"[..],
        ] {
            let (mut conn, _) = listener.accept().expect("accept");
            // Swallow the whole request before hanging up: closing while the
            // client is still mid-write would RST the socket and surface as
            // an Io error instead of the truncation we're testing.
            let mut req = Vec::new();
            let mut buf = [0u8; 1024];
            while !req.windows(4).any(|w| w == b"\r\n\r\n") {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => req.extend_from_slice(&buf[..n]),
                }
            }
            conn.write_all(partial).expect("partial write");
            drop(conn);
        }
    });

    match client::get(addr, "/health") {
        Err(ClientError::Truncated { what, .. }) => assert_eq!(what, "header terminator"),
        other => panic!("expected truncated headers, got {other:?}"),
    }
    match client::get(addr, "/health") {
        Err(ClientError::Truncated { what, .. }) => assert_eq!(what, "response body"),
        other => panic!("expected truncated body, got {other:?}"),
    }
    fake.join().unwrap();
}
