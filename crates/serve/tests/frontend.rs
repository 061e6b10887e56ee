//! Walls for the acceptor front-end: a silent client pins only the thread
//! that accepted it, never another client's request or the server's
//! shutdown.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssdrec_models::{BackboneKind, SeqRec};
use ssdrec_serve::{client, serve, Engine, EngineConfig, ServerHandle, ServerStats};

/// A server with the default 30 s read timeout, so a silent connection
/// holds its acceptor for far longer than any assertion below waits.
fn start_server() -> ServerHandle {
    let model = SeqRec::new(BackboneKind::SasRec, 20, 8, 10, 3);
    let engine = Engine::new(
        model.into(),
        EngineConfig {
            workers: 1,
            max_len: 10,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    serve(engine, "127.0.0.1:0").expect("bind ephemeral port")
}

/// Connect and send nothing; give the server time to accept it.
fn silent_connection(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    std::thread::sleep(Duration::from_millis(50));
    stream
}

#[test]
fn a_silent_connection_does_not_delay_another_clients_health() {
    let mut handle = start_server();
    let _silent = silent_connection(&handle);
    let start = Instant::now();
    let (status, body) = client::get(handle.addr(), "/health").expect("health");
    let took = start.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(took < Duration::from_secs(2), "/health took {took:?}");
    handle.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_a_silent_connection_open_and_closes_the_port() {
    let mut handle = start_server();
    let addr = handle.addr();
    let _silent = silent_connection(&handle);
    let start = Instant::now();
    handle.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert!(
        TcpStream::connect(addr).is_err(),
        "the port still accepts connections after shutdown"
    );
}
