//! The HTTP/1.1 request parser and response writer.
//!
//! The parser is a pure, incremental state machine over an internal byte
//! buffer: callers [`RequestParser::feed`] raw socket reads in arbitrary
//! chunks and drain complete requests with [`RequestParser::next_request`].
//! Splitting the input at any byte boundary never changes the result — the
//! property tests assert incremental parse == one-shot parse for every
//! possible split — and bytes past the end of a request are retained, so
//! pipelined requests come out one [`next_request`] call at a time.
//!
//! [`next_request`]: RequestParser::next_request
//!
//! Grammar restrictions (deliberate — this fronts exactly one service):
//!
//! * origin-form targets, `HTTP/1.0` or `HTTP/1.1` only;
//! * `Content-Length` bodies only (`Transfer-Encoding` is rejected);
//! * header lines terminated by CRLF or bare LF (RFC 7230 §3.5 allows a
//!   recipient to accept the latter), no obs-fold continuations;
//! * `Host` is required on HTTP/1.1 requests, per RFC 7230 §5.4.
//!
//! Violations map to the smallest honest status code: `400` for malformed
//! syntax, `431` when the head outgrows [`ParserLimits::max_head_bytes`],
//! `413` when a declared body outgrows [`ParserLimits::max_body_bytes`].
//! Routing-level codes (`404`, `405`) live in [`crate::routes`].

/// Byte budgets the parser enforces before allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParserLimits {
    /// Maximum bytes of request line + headers (the head), including the
    /// terminating blank line.
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length` accepted.
    pub max_body_bytes: usize,
}

impl Default for ParserLimits {
    fn default() -> Self {
        ParserLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Request method. Only the two the gate routes get dedicated variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
    /// Anything else (syntactically valid token; routing decides 405).
    Other(String),
}

impl Method {
    fn parse(token: &str) -> Result<Method, ParseError> {
        if token.is_empty() || !token.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(ParseError::BadRequest("malformed method"));
        }
        Ok(match token {
            "GET" => Method::Get,
            "POST" => Method::Post,
            other => Method::Other(other.to_string()),
        })
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Raw origin-form target, e.g. `/v1/attainment?sla=0.05`.
    pub target: String,
    /// HTTP minor version: `0` or `1`.
    pub minor_version: u8,
    /// Headers in arrival order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (up to `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }

    /// The target's raw query string (after `?`, empty if absent).
    pub fn query(&self) -> &str {
        match self.target.split_once('?') {
            Some((_, query)) => query,
            None => "",
        }
    }

    /// Whether the connection persists after this exchange: HTTP/1.1
    /// defaults to keep-alive unless `Connection: close`; HTTP/1.0 only
    /// persists on an explicit `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        let wants_close = conn.eq_ignore_ascii_case("close");
        let wants_keep = conn.eq_ignore_ascii_case("keep-alive");
        if self.minor_version == 0 {
            wants_keep
        } else {
            !wants_close
        }
    }
}

/// Why a byte stream could not be parsed into a request. Each variant
/// carries the response status the connection must answer before closing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed syntax (status 400), with a short operator-facing reason.
    BadRequest(&'static str),
    /// The head exceeded [`ParserLimits::max_head_bytes`] (status 431).
    HeadTooLarge,
    /// The declared body exceeded [`ParserLimits::max_body_bytes`]
    /// (status 413).
    BodyTooLarge,
}

impl ParseError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
        }
    }

    /// Operator-facing reason string.
    pub fn reason(&self) -> &'static str {
        match self {
            ParseError::BadRequest(why) => why,
            ParseError::HeadTooLarge => "request head too large",
            ParseError::BodyTooLarge => "request body too large",
        }
    }
}

/// A parsed head waiting for its body bytes. The head stays at the front
/// of the buffer until the body is complete, so the body is copied once,
/// straight out of the buffer `feed` filled.
#[derive(Debug)]
struct PendingBody {
    request: Request,
    head_end: usize,
    content_length: usize,
}

/// The incremental parser. See the module docs for the contract.
#[derive(Debug)]
pub struct RequestParser {
    limits: ParserLimits,
    buf: Vec<u8>,
    /// Bytes of blank lines skipped before the next request line; they
    /// count toward its head's budget.
    blank: usize,
    pending: Option<PendingBody>,
    failed: bool,
}

impl RequestParser {
    /// Creates a parser enforcing `limits`.
    pub fn new(limits: ParserLimits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
            blank: 0,
            pending: None,
            failed: false,
        }
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a request is partially buffered (an EOF now would truncate
    /// it mid-head or mid-body).
    pub fn has_partial(&self) -> bool {
        self.pending.is_some() || !self.buf.is_empty()
    }

    /// Extracts the next complete request, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes". Errors are sticky: after the
    /// first error the stream has no trustworthy framing left, so every
    /// later call repeats an error and the connection must close.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        if self.failed {
            return Err(ParseError::BadRequest("parser already failed"));
        }
        match self.try_next() {
            Ok(out) => Ok(out),
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn try_next(&mut self) -> Result<Option<Request>, ParseError> {
        if self.pending.is_none() {
            // RFC 7230 §3.5: ignore blank line(s) received before the
            // request line (e.g. a client's stray CRLF after a POST body),
            // in one pass, counting them toward the head's budget so that
            // an endless run of them is refused like an endless head.
            let blank = blank_lines(&self.buf);
            if blank > 0 {
                self.buf.drain(..blank);
                self.blank += blank;
            }
            let Some(head_end) = find_head_end(&self.buf) else {
                if self.blank + self.buf.len() > self.limits.max_head_bytes {
                    return Err(ParseError::HeadTooLarge);
                }
                return Ok(None);
            };
            if self.blank + head_end > self.limits.max_head_bytes {
                return Err(ParseError::HeadTooLarge);
            }
            let (request, content_length) = parse_head(&self.buf[..head_end])?;
            if content_length > self.limits.max_body_bytes {
                return Err(ParseError::BodyTooLarge);
            }
            self.blank = 0;
            self.pending = Some(PendingBody {
                request,
                head_end,
                content_length,
            });
        }
        let pending = self.pending.as_ref().expect("pending set");
        let (start, end) = (pending.head_end, pending.head_end + pending.content_length);
        if self.buf.len() < end {
            return Ok(None);
        }
        let mut done = self.pending.take().expect("pending set").request;
        done.body = self.buf[start..end].to_vec();
        self.buf.drain(..end);
        Ok(Some(done))
    }
}

/// One-shot convenience: parse a single request from a complete byte
/// string. The reference the incremental property tests compare against.
pub fn parse_one(bytes: &[u8]) -> Result<Option<Request>, ParseError> {
    let mut parser = RequestParser::new(ParserLimits::default());
    parser.feed(bytes);
    parser.next_request()
}

/// Length of the blank lines (`\r\n` or bare `\n`) that `buf` starts with.
fn blank_lines(buf: &[u8]) -> usize {
    let mut i = 0;
    loop {
        match buf[i..] {
            [b'\n', ..] => i += 1,
            [b'\r', b'\n', ..] => i += 2,
            _ => return i,
        }
    }
}

/// Index one past the blank line ending the head: the first `\n` followed
/// by `\r\n` or `\n` (so both CRLF and bare-LF line endings terminate).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

fn parse_head(head: &[u8]) -> Result<(Request, usize), ParseError> {
    let text =
        std::str::from_utf8(head).map_err(|_| ParseError::BadRequest("head is not valid UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines
        .next()
        .ok_or(ParseError::BadRequest("empty request"))?;

    let mut parts = request_line.split(' ');
    let method = Method::parse(parts.next().unwrap_or(""))?;
    let target = parts
        .next()
        .ok_or(ParseError::BadRequest("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::BadRequest("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequest("extra fields in request line"));
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(ParseError::BadRequest("target must be origin-form"));
    }
    let minor_version = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        _ => return Err(ParseError::BadRequest("unsupported HTTP version")),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(ParseError::BadRequest("obsolete header folding"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::BadRequest("header line without a colon"))?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(ParseError::BadRequest("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method,
        target: target.to_string(),
        minor_version,
        headers,
        body: Vec::new(),
    };

    if request.minor_version == 1 && request.header("host").is_none() {
        return Err(ParseError::BadRequest("HTTP/1.1 request without Host"));
    }
    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::BadRequest("transfer-encoding not supported"));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| ParseError::BadRequest("malformed content-length"))?,
    };
    let mut lengths = request
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length");
    let first = lengths.next().map(|(_, v)| v.as_str());
    if lengths.any(|(_, v)| Some(v.as_str()) != first) {
        return Err(ParseError::BadRequest("conflicting content-length"));
    }
    Ok((request, content_length))
}

/// A response ready to serialize. Bodies are bytes so `/metrics` text and
/// JSON share one path.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Allow` on a 405).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Force `Connection: close` regardless of the request's preference.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A JSON error envelope: `{"error": ...}`, closing on protocol-level
    /// failures is the caller's decision via [`Response::close`].
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        crate::json::write_json_string(&mut body, message);
        body.push('}');
        Response::json(status, body)
    }

    /// Adds an extra header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }

    /// Serializes status line, headers, and body. `keep_alive` is the
    /// connection's decision after combining the request's preference with
    /// [`Response::close`] and the shutdown drain.
    pub fn write_to(&self, out: &mut Vec<u8>, keep_alive: bool) {
        self.write_head_to(out, keep_alive);
        out.extend_from_slice(&self.body);
    }

    /// Serializes the status line and headers (everything up to and
    /// including the blank line) without the body, so a caller batching
    /// responses for `writev(2)` can keep the body as its own segment.
    ///
    /// Deliberately allocation-free: every piece is appended directly to
    /// `out` (integers via `push_u64`), so serializing into a recycled
    /// buffer with capacity performs zero heap allocations — the property
    /// the reactor's steady-state "allocates nothing" bench cell measures.
    pub fn write_head_to(&self, out: &mut Vec<u8>, keep_alive: bool) {
        out.extend_from_slice(b"HTTP/1.1 ");
        push_u64(out, u64::from(self.status));
        out.push(b' ');
        out.extend_from_slice(reason(self.status).as_bytes());
        out.extend_from_slice(b"\r\nContent-Type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\nContent-Length: ");
        push_u64(out, self.body.len() as u64);
        out.extend_from_slice(b"\r\n");
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n\r\n".as_slice()
        } else {
            b"Connection: close\r\n\r\n".as_slice()
        });
    }
}

/// Appends `n`'s decimal digits to `out` without allocating (the
/// `format!`-free path under [`Response::write_head_to`]).
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    // u64::MAX is 20 digits.
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Reason phrase for the status codes the gate emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(bytes: &[u8]) -> Request {
        parse_one(bytes).expect("parse").expect("complete")
    }

    #[test]
    fn parses_a_plain_get() {
        let r = ok(b"GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path(), "/v1/status");
        assert_eq!(r.query(), "");
        assert!(r.keep_alive());
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_query_and_body() {
        let r = ok(b"POST /v1/telemetry?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.path(), "/v1/telemetry");
        assert_eq!(r.query(), "x=1");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let r = ok(b"GET / HTTP/1.1\nHost: x\n\n");
        assert_eq!(r.header("host"), Some("x"));
    }

    #[test]
    fn mixed_line_endings_are_accepted() {
        let r = ok(b"GET / HTTP/1.1\nHost: x\r\nAccept: */*\n\r\n");
        assert_eq!(r.header("accept"), Some("*/*"));
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive());
        let r = ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive());
    }

    #[test]
    fn http11_connection_close_is_honored() {
        let r = ok(b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive());
    }

    #[test]
    fn missing_host_on_http11_is_400() {
        let e = parse_one(b"GET / HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), 400);
        // HTTP/1.0 has no Host requirement.
        assert!(parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().is_some());
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for bad in [
            &b"GET\r\nHost: x\r\n\r\n"[..],
            b"GET / HTTP/1.1 extra\r\nHost: x\r\n\r\n",
            b"get / HTTP/1.1\r\nHost: x\r\n\r\n",
            b"GET / HTTP/2.0\r\nHost: x\r\n\r\n",
            b"GET example.com/x HTTP/1.1\r\nHost: x\r\n\r\n",
        ] {
            let e = parse_one(bad).unwrap_err();
            assert_eq!(e.status(), 400, "input {:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn malformed_headers_are_400() {
        for bad in [
            &b"GET / HTTP/1.1\r\nHost: x\r\nno-colon-here\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nHost: x\r\nbad name: v\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: x\r\n folded: v\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: ten\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let e = parse_one(bad).unwrap_err();
            assert_eq!(e.status(), 400, "input {:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn oversized_head_is_431_even_before_termination() {
        let limits = ParserLimits {
            max_head_bytes: 64,
            max_body_bytes: 1024,
        };
        let mut p = RequestParser::new(limits);
        p.feed(b"GET / HTTP/1.1\r\nHost: x\r\nX-Pad: ");
        p.feed(&[b'a'; 128]);
        assert_eq!(p.next_request().unwrap_err(), ParseError::HeadTooLarge);
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let limits = ParserLimits {
            max_head_bytes: 1024,
            max_body_bytes: 16,
        };
        let mut p = RequestParser::new(limits);
        p.feed(b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 17\r\n\r\n");
        assert_eq!(p.next_request().unwrap_err(), ParseError::BodyTooLarge);
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = RequestParser::new(ParserLimits::default());
        p.feed(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().target, "/a");
        assert_eq!(p.next_request().unwrap().unwrap().target, "/b");
        assert!(p.next_request().unwrap().is_none());
        assert!(!p.has_partial());
    }

    #[test]
    fn incremental_equals_one_shot_at_every_split() {
        let raw: &[u8] =
            b"POST /v1/telemetry HTTP/1.1\r\nHost: gate\r\nContent-Length: 11\r\n\r\n[1,2,3,4,5]";
        let reference = parse_one(raw).unwrap().unwrap();
        for cut in 0..=raw.len() {
            let mut p = RequestParser::new(ParserLimits::default());
            p.feed(&raw[..cut]);
            let early = p.next_request().expect("prefix never errors");
            p.feed(&raw[cut..]);
            let got = match early {
                Some(r) => r,
                None => p.next_request().unwrap().expect("complete after rest"),
            };
            assert_eq!(got, reference, "split at {cut}");
        }
    }

    #[test]
    fn stray_blank_lines_before_the_request_line_are_ignored() {
        let r = ok(b"\r\n\nGET / HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, Method::Get);
        // Blank lines alone are not a request (and not an error).
        assert!(parse_one(b"\r\n\r\n").unwrap().is_none());
    }

    #[test]
    fn errors_are_sticky() {
        let mut p = RequestParser::new(ParserLimits::default());
        p.feed(b"BROKEN\r\n\r\n");
        assert!(p.next_request().is_err());
        p.feed(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(p.next_request().is_err());
    }

    #[test]
    fn partial_detection_tracks_head_and_body() {
        let mut p = RequestParser::new(ParserLimits::default());
        assert!(!p.has_partial());
        p.feed(b"GET / HT");
        assert!(p.has_partial());
        p.feed(b"TP/1.1\r\nHost: x\r\n\r\n");
        assert!(p.next_request().unwrap().is_some());
        assert!(!p.has_partial());
        p.feed(b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nab");
        assert!(p.next_request().unwrap().is_none());
        assert!(p.has_partial());
    }

    #[test]
    fn response_serialization_has_framing_headers() {
        let mut out = Vec::new();
        Response::json(200, "{}".into()).write_to(&mut out, true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        Response::error(405, "nope")
            .with_header("Allow", "GET".into())
            .write_to(&mut out, false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Allow: GET\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    /// `write_head_to` + body is byte-identical to `write_to`, and the
    /// manual integer formatting matches `format!` across magnitudes —
    /// the two halves of the writev split must reassemble exactly.
    #[test]
    fn head_plus_body_reassembles_write_to_exactly() {
        let cases = vec![
            Response::json(200, "{\"x\":1}".into()),
            Response::text(404, "x".repeat(12345)),
            Response::error(429, "busy").with_header("Retry-After", "7".into()),
            Response::json(503, String::new()),
        ];
        for response in &cases {
            for keep_alive in [true, false] {
                let mut whole = Vec::new();
                response.write_to(&mut whole, keep_alive);
                let mut head = Vec::new();
                response.write_head_to(&mut head, keep_alive);
                head.extend_from_slice(&response.body);
                assert_eq!(whole, head, "status {}", response.status);
            }
        }
        for n in [0u64, 9, 10, 99, 1234567, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, n);
            assert_eq!(String::from_utf8(out).unwrap(), format!("{n}"));
        }
    }
}
