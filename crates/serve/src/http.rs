//! Minimal HTTP/1.1 on a blocking `TcpStream`: just enough of the
//! protocol for the job API — request line + headers + `Content-Length`
//! bodies in, fixed or chunked responses out. No TLS, no compression,
//! no HTTP/2; curl and any standard client speak this subset.
//!
//! Hard limits protect the server from hostile peers: headers are
//! capped at [`MAX_HEAD_BYTES`], bodies at the caller's `max_body`, and
//! a whole request — head and body — must arrive within the caller's
//! timeout, however slowly the peer trickles it.

use nmcs_core::metrics::monotonic_now;
use std::io::{Read, Write};
// nmcs-lint: allow(socket-discipline) reason="the HTTP edge: every socket read/write of the serve crate funnels through this module"
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Connection closed before a complete request arrived (clean EOF
    /// between keep-alive requests surfaces as `Eof` with no bytes).
    Eof,
    /// Socket error (including a request that missed its deadline).
    Io(std::io::Error),
    /// The peer sent something that is not HTTP/1.x, or exceeded a
    /// limit. The string is safe to echo in a 400 body.
    Malformed(&'static str),
    /// The declared body exceeds the configured cap; respond 413.
    BodyTooLarge,
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request. Header names are lowercased; the query string is
/// split into `key=value` pairs without percent-decoding (the API uses
/// only unreserved characters in queries).
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::Malformed("body is not UTF-8"))
    }
}

/// Reads one request. Blocks until a full head (and declared body)
/// arrives, `timeout` has passed since the call, or a limit trips. The
/// timeout bounds the whole request, not each `read`, so a peer sending
/// one byte at a time cannot hold the connection past it.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    timeout: Duration,
) -> Result<Request, HttpError> {
    let deadline = monotonic_now() + timeout;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("request head too large"));
        }
        let n = read_before(stream, &mut chunk, deadline)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(HttpError::Eof)
            } else {
                Err(HttpError::Malformed("connection closed mid-request"))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = split_target(target);

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge);
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_before(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// One `read` that cannot outlast `deadline`: the socket timeout is set
/// to the time remaining before every read.
fn read_before(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<usize, HttpError> {
    let left = deadline.saturating_duration_since(monotonic_now());
    if left.is_zero() {
        return Err(HttpError::Io(std::io::ErrorKind::TimedOut.into()));
    }
    stream.set_read_timeout(Some(left))?;
    Ok(stream.read(buf)?)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => (
            path.to_string(),
            query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect(),
        ),
    }
}

/// A response with a fixed body.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Emitted as a `Retry-After` header (seconds) when present — the
    /// contract of every 429/503 this server sends.
    pub retry_after_secs: Option<u64>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after_secs: None,
        }
    }

    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            retry_after_secs: None,
        }
    }

    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after_secs = Some(secs);
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Writes a fixed-length response.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after_secs {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// Starts a chunked (streaming) 200 response. Follow with
/// [`write_chunk`] per payload and [`finish_chunks`] to terminate. The
/// connection always closes after a stream.
pub fn start_chunked(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one chunk. A write error means the client went away — the
/// caller stops streaming.
pub fn write_chunk(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(format!("{:x}\r\n", payload.len()).as_bytes())?;
    stream.write_all(payload)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn finish_chunks(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_target_into_path_and_query() {
        let (path, query) = split_target("/jobs/7?stream=1&format=json&flag");
        assert_eq!(path, "/jobs/7");
        assert_eq!(
            query,
            vec![
                ("stream".to_string(), "1".to_string()),
                ("format".to_string(), "json".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        assert_eq!(split_target("/metrics").0, "/metrics");
    }

    #[test]
    fn finds_head_boundary() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
