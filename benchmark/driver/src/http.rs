//! A `Connection: close` HTTP/1.1 client on `std::net`: one request per
//! connection, which is the only mode the server speaks.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connect, read and write deadline for one request.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// Send one request and return `(status, body)`. Any transport failure,
/// timeout or malformed response is an `Err` naming what went wrong.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // One write for head and body: the server reads the head a byte at a
    // time and should not wait on a second segment.
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body.as_bytes());
    stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::with_capacity(512);
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

/// Split a complete response into status and body, checking the declared
/// `Content-Length` against what arrived.
pub fn parse_response(raw: &[u8]) -> Result<(u16, String), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("truncated response ({} bytes, no header end)", raw.len()))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let want: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad Content-Length".to_string())?;
                if body.len() != want {
                    return Err(format!(
                        "body is {} bytes, Content-Length says {want}",
                        body.len()
                    ));
                }
            }
        }
    }
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: close\r\n\r\n{\"ok\":true}";
        assert_eq!(parse_response(raw), Ok((200, "{\"ok\":true}".to_string())));
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_response(raw), Ok((503, String::new())));
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Le").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        assert!(parse_response(b"").is_err());
    }

    #[test]
    fn talks_to_a_socket() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let mut got = Vec::new();
            while !got.ends_with(b"{\"k\":1}") {
                let n = s.read(&mut buf).unwrap();
                got.extend_from_slice(&buf[..n]);
            }
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi")
                .unwrap();
            String::from_utf8(got).unwrap()
        });
        let (status, body) = request(addr, "POST", "/recommend", "{\"k\":1}").unwrap();
        assert_eq!((status, body.as_str()), (200, "hi"));
        let seen = server.join().unwrap();
        assert!(seen.starts_with("POST /recommend HTTP/1.1\r\n"));
        assert!(seen.contains("Content-Length: 7\r\n"));
    }
}
