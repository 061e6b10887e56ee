//! A minimal blocking HTTP client over `std::net` — the workspace has no
//! `curl` dependency. Its users are the serve and root integration tests;
//! the benchmark's load generator and probes use the driver's own `http`
//! module, and the CI smoke uses bash's `/dev/tcp`.
//!
//! Failures are **typed** ([`ClientError`]): connect vs. transport I/O vs.
//! a truncated response vs. a malformed one, so a caller can tell a
//! retryable fault from a broken request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why an HTTP request failed, separated by phase so callers can decide
/// what is retryable (everything here is transport-level; HTTP error
/// statuses are returned as `Ok((status, body))`).
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed (server not up yet, port closed).
    Connect(std::io::Error),
    /// The socket failed mid-request or mid-response (reset, timeout).
    Io(std::io::Error),
    /// The connection closed before a complete response arrived: either no
    /// `\r\n\r\n` header terminator, or fewer body bytes than the response's
    /// `Content-Length` declared.
    Truncated {
        /// Bytes received before the peer closed the connection.
        bytes_read: usize,
        /// What was missing when the stream ended.
        what: &'static str,
    },
    /// A complete response arrived but could not be parsed.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Truncated { bytes_read, what } => {
                write!(f, "truncated response: connection closed after {bytes_read} byte(s), missing {what}")
            }
            ClientError::BadResponse(m) => write!(f, "malformed response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect(e) | ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Issue one `Connection: close` request and return `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), ClientError> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(ClientError::Connect)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(ClientError::Io)?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(ClientError::Io)?;
    stream.flush().map_err(ClientError::Io)?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(ClientError::Io)?;
    parse_response(&raw)
}

/// Parse a complete `Connection: close` response buffer. Split out of
/// [`request`] so the truncation paths are unit-testable without sockets.
fn parse_response(raw: &[u8]) -> Result<(u16, String), ClientError> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| ClientError::BadResponse("non-UTF-8 response".into()))?;
    let Some((head, response_body)) = text.split_once("\r\n\r\n") else {
        // EOF before the header block finished: the server died or a write
        // fault cut the response short. Distinct from BadResponse — this
        // one is retryable.
        return Err(ClientError::Truncated {
            bytes_read: raw.len(),
            what: "header terminator",
        });
    };
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::BadResponse(format!("bad status line {status_line:?}")))?;
    // `Connection: close` responses end at EOF, but the declared
    // Content-Length still lets us detect a partial body.
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let want: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::BadResponse("bad Content-Length".into()))?;
                if response_body.len() < want {
                    return Err(ClientError::Truncated {
                        bytes_read: raw.len(),
                        what: "response body",
                    });
                }
            }
        }
    }
    Ok((status, response_body.to_string()))
}

/// `GET path` on a running server.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), ClientError> {
    request(addr, "GET", path, None)
}

/// `POST path` with a JSON body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), ClientError> {
    request(addr, "POST", path, Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_headers_are_typed() {
        let e = parse_response(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap_err();
        match e {
            ClientError::Truncated { bytes_read, what } => {
                assert_eq!(bytes_read, b"HTTP/1.1 200 OK\r\nContent-Le".len());
                assert_eq!(what, "header terminator");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_typed() {
        let e = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(
            e,
            ClientError::Truncated {
                what: "response body",
                ..
            }
        ));
    }

    #[test]
    fn complete_response_parses() {
        let (status, body) =
            parse_response(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\nhi")
                .unwrap();
        assert_eq!(status, 503);
        assert_eq!(body, "hi");
    }

    #[test]
    fn bad_status_line_is_not_truncation() {
        let e = parse_response(b"garbage\r\n\r\nbody").unwrap_err();
        assert!(matches!(e, ClientError::BadResponse(_)));
    }

    #[test]
    fn connect_refused_is_typed() {
        // Port 1 on localhost is essentially never listening.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        match request(addr, "GET", "/health", None) {
            Err(ClientError::Connect(_)) => {}
            other => panic!("expected Connect error, got {other:?}"),
        }
    }
}
