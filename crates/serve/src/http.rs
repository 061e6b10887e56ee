//! A deliberately minimal HTTP/1.1 implementation over `std::net` — just
//! enough protocol for the serving endpoints: request-line + headers + body
//! parsing (honouring `Content-Length`), query-string decoding, and
//! `Connection: close` responses.
//!
//! I/O is by the block: [`read_request`] pulls [`CHUNK`]-sized reads until it
//! has seen the blank line (a typical request is one `read`), and
//! [`write_json`] hands the whole response to the socket in one `write`. The
//! server answers one request per connection, so bytes past the declared
//! body are read at most by accident and ignored.

use std::collections::HashMap;
use std::io::{self, Read, Write};

/// Cap on header block + body, to bound memory per connection.
const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 1024 * 1024;
/// Bytes asked of the stream per `read` while looking for the end of the
/// head; at most `MAX_HEAD + CHUNK` are ever buffered before the body.
const CHUNK: usize = 4096;
const HEAD_END: &[u8] = b"\r\n\r\n";

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/recommend`.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Raw request body.
    pub body: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Minimal percent-decoding (`%XX` and `+` → space) for query values.
fn percent_decode(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = b
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(v) => {
                        out.push(v);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(q: &str) -> HashMap<String, String> {
    q.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Read one request from the stream. Returns `Ok(None)` on a cleanly closed
/// connection with no bytes sent.
pub fn read_request(stream: &mut impl Read) -> io::Result<Option<Request>> {
    // Read blocks until the blank line terminating the header block shows
    // up; whatever a block holds beyond it is the start of the body.
    let mut buf = Vec::new();
    let mut chunk = [0u8; CHUNK];
    let head_len = loop {
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(bad("connection closed mid-headers"));
        }
        // The terminator may straddle two reads: rescan the last 3 bytes.
        let from = buf.len().saturating_sub(HEAD_END.len() - 1);
        buf.extend_from_slice(&chunk[..n]);
        let end = buf[from..]
            .windows(HEAD_END.len())
            .position(|w| w == HEAD_END)
            .map(|at| from + at + HEAD_END.len());
        match end {
            Some(end) if end <= MAX_HEAD => break end,
            None if buf.len() < MAX_HEAD => {}
            _ => return Err(bad("header block too large")),
        }
    };
    let head = &buf[..head_len];
    let text = std::str::from_utf8(head).map_err(|_| bad("non-UTF-8 headers"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_string();
    let target = parts.next().ok_or_else(|| bad("missing path"))?;
    if !target.starts_with('/') {
        return Err(bad("path must be absolute"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), HashMap::new()),
    };

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = buf.split_off(head_len);
    let carried = body.len().min(content_length);
    body.resize(content_length, 0);
    stream.read_exact(&mut body[carried..])?;
    Ok(Some(Request {
        method,
        path,
        query,
        body,
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete `Connection: close` response with a JSON body: formatted
/// once, handed to the stream in one `write_all`.
pub fn write_json(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        status,
        reason(status),
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /recommend HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"user\": 1}";
        let req = read_request(&mut Cursor::new(&raw[..]))
            .unwrap()
            .expect("request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/recommend");
        assert_eq!(req.body, b"{\"user\": 1}");
    }

    #[test]
    fn parses_query_string() {
        let raw = b"GET /recommend?user=3&seq=1%2C2,3&k=5 HTTP/1.1\r\n\r\n";
        let req = read_request(&mut Cursor::new(&raw[..]))
            .unwrap()
            .expect("request");
        assert_eq!(req.path, "/recommend");
        assert_eq!(req.query.get("user").map(String::as_str), Some("3"));
        assert_eq!(req.query.get("seq").map(String::as_str), Some("1,2,3"));
        assert_eq!(req.query.get("k").map(String::as_str), Some("5"));
    }

    #[test]
    fn empty_connection_is_none() {
        let req = read_request(&mut Cursor::new(&b""[..])).unwrap();
        assert!(req.is_none());
    }

    #[test]
    fn rejects_truncated_body() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        assert!(read_request(&mut Cursor::new(&raw[..])).is_err());
    }

    #[test]
    fn response_is_well_formed() {
        let mut out = Vec::new();
        write_json(&mut out, 200, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn a_response_is_one_write() {
        struct CountingSink {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CountingSink {
            writes: 0,
            bytes: Vec::new(),
        };
        let body = format!("{{\"items\":[{}]}}", "7,".repeat(3000));
        write_json(&mut sink, 503, &body).unwrap();
        assert_eq!(sink.writes, 1);
        let mut whole = Vec::new();
        write_json(&mut whole, 503, &body).unwrap();
        assert_eq!(sink.bytes, whole);
    }

    // ------------------------------------------------------------------
    // The reader wall: however the transport slices the bytes, a request
    // parses to the same thing, and anything short of or beyond a valid
    // request is a typed error — never a panic, a hang or an unbounded
    // buffer.
    // ------------------------------------------------------------------

    use ssdrec_testkit::{gens, property, Gen};

    /// A reader that hands out `data` in reads of the given sizes (cycled,
    /// each capped by what the caller asked for), then reports end of
    /// stream; `handed` counts the bytes given out.
    struct Sliced<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        reads: usize,
        handed: usize,
    }

    impl<'a> Sliced<'a> {
        fn new(data: &'a [u8], sizes: &'a [usize]) -> Self {
            Sliced {
                data,
                sizes,
                reads: 0,
                handed: 0,
            }
        }
    }

    impl Read for Sliced<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes[self.reads % self.sizes.len()];
            let n = want.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.reads += 1;
            self.handed += n;
            Ok(n)
        }
    }

    /// A valid request as the generator meant it, and as bytes.
    #[derive(Clone, Debug)]
    struct Wire {
        want: Request,
        /// Head + declared body: the request proper.
        bytes: Vec<u8>,
        /// Whatever the client sent after the declared body.
        trailing: Vec<u8>,
    }

    impl Wire {
        fn sent(&self) -> Vec<u8> {
            [&self.bytes[..], &self.trailing[..]].concat()
        }
    }

    /// `%XX`-escape everything but ASCII alphanumerics (space as `+`).
    fn escape(s: &str) -> String {
        s.bytes()
            .map(|b| match b {
                b' ' => "+".to_string(),
                b if b.is_ascii_alphanumeric() => (b as char).to_string(),
                b => format!("%{b:02X}"),
            })
            .collect()
    }

    fn arb_wire() -> Gen<Wire> {
        Gen::from_fn(|rng| {
            let word = |rng: &mut ssdrec_testkit::Rng, alphabet: &[u8], max: usize| -> String {
                (0..rng.between(1, max))
                    .map(|_| *rng.choice(alphabet) as char)
                    .collect()
            };
            let method = *rng.choice(&["GET", "POST"]);
            let path = format!("/{}", word(rng, b"abcxyz/_", 12));
            let query: Vec<(String, String)> = (0..rng.between(0, 3))
                .map(|i| {
                    (
                        format!("{}{i}", word(rng, b"kquser", 4)),
                        word(rng, b"0123456789, %&=+x", 9),
                    )
                })
                .collect();
            let body: Vec<u8> = match rng.between(0, 3) {
                0 => Vec::new(),
                1 => (0..rng.between(1, 40))
                    .map(|_| rng.below(256) as u8)
                    .collect(),
                // Larger than a read block, so the body spans several reads.
                _ => (0..rng.between(CHUNK, 3 * CHUNK))
                    .map(|_| rng.below(256) as u8)
                    .collect(),
            };
            let mut head = format!("{method} {path}");
            for (i, (k, v)) in query.iter().enumerate() {
                head += if i == 0 { "?" } else { "&" };
                head += &format!("{}={}", escape(k), escape(v));
            }
            head += " HTTP/1.1\r\n";
            for i in 0..rng.between(0, 4) {
                head += &format!("X-Pad-{i}: {}\r\n", word(rng, b"abc 123;=", 300));
            }
            if !body.is_empty() || rng.bernoulli(0.5) {
                let name = *rng.choice(&["Content-Length", "content-length", "CONTENT-LENGTH"]);
                head += &format!("{name}: {}\r\n", body.len());
            }
            head += "\r\n";
            let trailing = (0..rng.between(0, 1) * rng.between(1, 64))
                .map(|_| rng.below(256) as u8)
                .collect();
            Wire {
                bytes: [head.as_bytes(), &body[..]].concat(),
                trailing,
                want: Request {
                    method: method.to_string(),
                    path,
                    query: query.into_iter().collect(),
                    body,
                },
            }
        })
    }

    fn is_typed(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        )
    }

    property! {
        cases = 64;

        /// One byte per read, k bytes per read, or arbitrary slices: the
        /// request is the one the `Cursor` form parses, and the one meant.
        /// Bytes after the declared body change nothing.
        fn any_slicing_parses_to_the_same_request(
            wire in arb_wire(),
            k in gens::usizes(2, 64),
            slices in gens::vecs(gens::usizes(1, 2 * CHUNK), 1, 8)
        ) {
            let sent = wire.sent();
            let whole = read_request(&mut Cursor::new(&sent[..])).expect("valid").expect("a request");
            assert_eq!(whole, wire.want);
            for sizes in [&[1][..], &[k][..], &slices[..]] {
                let got = read_request(&mut Sliced::new(&sent, sizes)).expect("valid").expect("a request");
                assert_eq!(got, whole, "read sizes {sizes:?}");
            }
        }

        /// Every strict prefix of a request is nothing at all (`Ok(None)`)
        /// or a typed error, however it is sliced — the reader neither
        /// panics nor waits for bytes a closed stream will never send.
        fn every_strict_prefix_is_none_or_a_typed_error(
            wire in arb_wire(),
            k in gens::usizes(1, 64)
        ) {
            // Every cut up to a little into the body, then a sample.
            let step = (wire.bytes.len() / 256).max(1);
            for cut in (0..wire.bytes.len()).filter(|c| *c < 600 || c % step == 0) {
                for sizes in [&[usize::MAX][..], &[k][..]] {
                    match read_request(&mut Sliced::new(&wire.bytes[..cut], sizes)) {
                        Ok(None) => assert_eq!(cut, 0, "only an empty stream is no request"),
                        Ok(Some(req)) => panic!("prefix {cut} of {} parsed: {req:?}", wire.bytes.len()),
                        Err(e) => assert!(cut > 0 && is_typed(&e), "prefix {cut}: {e:?}"),
                    }
                }
            }
        }

        /// Corrupted requests may parse or may not; they never panic.
        fn mutated_requests_never_panic(
            wire in arb_wire(),
            flips in gens::vecs(gens::u64s(), 1, 6),
            k in gens::usizes(1, 64)
        ) {
            let mut sent = wire.sent();
            for f in flips {
                let at = (f >> 8) as usize % sent.len();
                sent[at] ^= (f as u8).max(1);
            }
            if let Err(e) = read_request(&mut Sliced::new(&sent, &[k])) {
                assert!(is_typed(&e), "{e:?}");
            }
        }

        /// A head that never ends is rejected once `MAX_HEAD` bytes hold no
        /// terminator, having taken at most one more block off the stream —
        /// even from a peer that would keep sending forever.
        fn an_endless_head_is_rejected_within_one_chunk(k in gens::usizes(1, 3 * CHUNK)) {
            let endless = vec![b'a'; 4 * MAX_HEAD];
            let mut stream = Sliced::new(&endless, std::slice::from_ref(&k));
            let err = read_request(&mut stream).expect_err("no terminator");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("too large"), "{err}");
            assert!(stream.handed <= MAX_HEAD + CHUNK, "took {} bytes", stream.handed);
        }
    }

    /// A request whose head (terminator included) is exactly `head_len`
    /// bytes, followed by a 5-byte body.
    fn padded_request(head_len: usize) -> Vec<u8> {
        let fixed = "POST /x HTTP/1.1\r\nContent-Length: 5\r\nX-Pad: \r\n\r\n".len();
        format!(
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\nX-Pad: {}\r\n\r\nhello",
            "p".repeat(head_len - fixed)
        )
        .into_bytes()
    }

    #[test]
    fn head_limit_is_exact() {
        let at_limit = padded_request(MAX_HEAD);
        let req = read_request(&mut Cursor::new(&at_limit[..]))
            .expect("a head of MAX_HEAD bytes is allowed")
            .expect("a request");
        assert_eq!(req.body, b"hello");
        for sizes in [&[usize::MAX][..], &[1][..], &[CHUNK - 1][..]] {
            let over = padded_request(MAX_HEAD + 1);
            let err = read_request(&mut Sliced::new(&over, sizes)).expect_err("one byte over");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{sizes:?}");
            // The same bytes without their terminator, then a closed stream.
            let unterminated = &over[..MAX_HEAD + 1];
            let err = read_request(&mut Sliced::new(unterminated, sizes)).expect_err("no end");
            assert!(err.to_string().contains("too large"), "{sizes:?}: {err}");
        }
    }

    #[test]
    fn terminator_straddling_two_reads_is_found() {
        // Across the reader's own block border (a `Cursor` fills each block)…
        for inside in 1..HEAD_END.len() {
            let raw = padded_request(CHUNK + inside);
            let req = read_request(&mut Cursor::new(&raw[..]))
                .expect("valid")
                .expect("a request");
            assert_eq!(req.body, b"hello", "{inside} terminator bytes in block 2");
        }
        // …and across a border the transport picked.
        let raw = padded_request(200);
        for inside in 1..HEAD_END.len() {
            let sizes = [200 - inside, usize::MAX];
            let req = read_request(&mut Sliced::new(&raw, &sizes))
                .expect("valid")
                .expect("a request");
            assert_eq!((req.path.as_str(), &req.body[..]), ("/x", &b"hello"[..]));
        }
    }

    #[test]
    fn rejects_oversized_declared_body() {
        // `usize::MAX` would abort in the allocator if it ever reached a
        // `Vec`; one digit more does not even parse.
        for (declared, why) in [
            ((MAX_BODY + 1).to_string(), "too large"),
            (usize::MAX.to_string(), "too large"),
            (format!("{}0", usize::MAX), "bad Content-Length"),
            ("-1".to_string(), "bad Content-Length"),
        ] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {declared}\r\n\r\nbody");
            let err = read_request(&mut Cursor::new(raw.as_bytes())).expect_err("rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(why), "{declared}: {err}");
        }
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n");
        let err = read_request(&mut Cursor::new(raw.as_bytes())).expect_err("no body follows");
        assert_eq!(
            err.kind(),
            io::ErrorKind::UnexpectedEof,
            "MAX_BODY itself is allowed"
        );
    }
}
