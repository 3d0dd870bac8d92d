//! Property tests of the serve crate's request reader,
//! `http::read_request`, over a real loopback socket pair. Each case
//! runs one writer thread that sends its bytes in random splits (with a
//! short pause between them, so the reader sees partial heads and
//! bodies), then either closes its write half or holds the connection
//! open until the reader returns. Cases run one after another.
//!
//! * arbitrary bytes and HTTP-ish token soup never panic the reader,
//!   which returns within its timeout plus slack and never yields a
//!   body longer than `max_body`;
//! * a valid request parses the same however its bytes are split;
//! * a head over [`MAX_HEAD_BYTES`] and a non-numeric or overflowing
//!   `Content-Length` are `Malformed`; a `Content-Length` above
//!   `max_body` is `BodyTooLarge`.

use pnmcs::serve::http::{read_request, HttpError, Request, MAX_HEAD_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How long past its timeout a read may take before it counts as stuck.
const SLACK: Duration = Duration::from_secs(1);

/// Cuts `bytes` into chunks of the drawn sizes; the last chunk takes
/// whatever is left.
fn split(bytes: &[u8], sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let mut rest = bytes;
    for &size in sizes {
        let (head, tail) = rest.split_at(size.min(rest.len()));
        if !head.is_empty() {
            chunks.push(head.to_vec());
        }
        rest = tail;
    }
    if !rest.is_empty() {
        chunks.push(rest.to_vec());
    }
    chunks
}

/// Sends `chunks` from a writer thread and reads one request on the
/// accepting side. With `close`, the writer shuts its write half after
/// the last chunk; otherwise it holds the connection until the reader
/// returns. Returns the reader's result and how long it took.
fn read_chunks(
    chunks: Vec<Vec<u8>>,
    close: bool,
    max_body: usize,
    timeout: Duration,
) -> (Result<Request, HttpError>, Duration) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let writer = thread::spawn(move || {
        let mut client = TcpStream::connect(addr).expect("connect loopback");
        for chunk in &chunks {
            // The reader may give up (and close) before every byte is
            // sent; later writes failing is part of the scenario.
            if client.write_all(chunk).is_err() {
                break;
            }
            let _ = client.flush();
            thread::sleep(Duration::from_millis(1));
        }
        if close {
            let _ = client.shutdown(Shutdown::Write);
        }
        let _ = done_rx.recv();
    });
    let (mut server, _) = listener.accept().expect("accept loopback");
    let started = Instant::now();
    let result = read_request(&mut server, max_body, timeout);
    let elapsed = started.elapsed();
    drop(done_tx);
    writer.join().expect("writer thread");
    (result, elapsed)
}

/// A well-formed request with a `Content-Length` body.
fn valid_request(method: &str, path: &str, query: &[(u8, u8)], body: &[u8]) -> Vec<u8> {
    let mut target = path.to_string();
    for (i, (k, v)) in query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&format!("k{k}=v{v}"));
    }
    let mut bytes = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nX-Case: {}\r\nContent-Length: {}\r\n\r\n",
        query.len(),
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Fragments the soup strategy glues together: HTTP syntax, numbers
/// (some past `usize`) and raw bytes.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(b"GET /jobs HTTP/1.1\r\n".to_vec()),
        Just(b"POST /jobs?wait=1 HTTP/1.1\r\n".to_vec()),
        Just(b"Content-Length: ".to_vec()),
        Just(b"Connection: close".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"\r\n\r\n".to_vec()),
        Just(b":".to_vec()),
        Just(b"18446744073709551616".to_vec()),
        (0u64..1_000).prop_map(|n| n.to_string().into_bytes()),
        vec(0u8..255, 0..24),
    ]
}

fn body_of(result: &Result<Request, HttpError>) -> Option<&[u8]> {
    result.as_ref().ok().map(|r| r.body.as_slice())
}

/// A short failure description (a parsed head can be kilobytes long).
fn outcome(result: &Result<Request, HttpError>) -> String {
    match result {
        Ok(r) => format!("Ok({} {}, {}-byte body)", r.method, r.path, r.body.len()),
        Err(e) => format!("{e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_bytes_never_panic_and_respect_the_limits(
        bytes in vec(0u8..255, 0..512),
        sizes in vec(1usize..64, 0..6),
        close in 0u8..4,
        max_body in 0usize..256,
        timeout_ms in 50u64..200,
    ) {
        let timeout = Duration::from_millis(timeout_ms);
        let (result, elapsed) = read_chunks(split(&bytes, &sizes), close > 0, max_body, timeout);
        prop_assert!(elapsed <= timeout + SLACK, "took {:?}", elapsed);
        if let Some(body) = body_of(&result) {
            prop_assert!(body.len() <= max_body, "{} > {}", body.len(), max_body);
        }
    }

    #[test]
    fn token_soup_never_panics_and_respects_the_limits(
        parts in vec(fragment(), 0..16),
        sizes in vec(1usize..32, 0..6),
        close in 0u8..4,
        max_body in 0usize..64,
        timeout_ms in 50u64..200,
    ) {
        let bytes = parts.concat();
        let timeout = Duration::from_millis(timeout_ms);
        let (result, elapsed) = read_chunks(split(&bytes, &sizes), close > 0, max_body, timeout);
        prop_assert!(elapsed <= timeout + SLACK, "took {:?}", elapsed);
        if let Some(body) = body_of(&result) {
            prop_assert!(body.len() <= max_body, "{} > {}", body.len(), max_body);
        }
    }

    #[test]
    fn a_valid_request_parses_the_same_however_it_is_split(
        method in 0usize..3,
        segments in vec(0u8..20, 0..4),
        query in vec((0u8..10, 0u8..10), 0..4),
        body in vec(0u8..255, 0..200),
        sizes in vec(1usize..48, 1..8),
        close in 0u8..2,
    ) {
        let method = ["GET", "POST", "DELETE"][method];
        let path: String = segments.iter().map(|s| format!("/s{s}")).collect();
        let path = if path.is_empty() { "/".to_string() } else { path };
        let bytes = valid_request(method, &path, &query, &body);
        let timeout = Duration::from_secs(5);
        let (whole, _) = read_chunks(vec![bytes.clone()], close > 0, 256, timeout);
        let (pieces, _) = read_chunks(split(&bytes, &sizes), close > 0, 256, timeout);
        let (whole, pieces) = match (whole, pieces) {
            (Ok(w), Ok(p)) => (w, p),
            (w, p) => {
                return Err(TestCaseError::fail(format!("{} / {}", outcome(&w), outcome(&p))))
            }
        };
        prop_assert_eq!(&whole.method, method);
        prop_assert_eq!(&whole.path, &path);
        prop_assert_eq!(whole.query.len(), query.len());
        prop_assert_eq!(&whole.body, &body);
        prop_assert_eq!(&pieces.method, &whole.method);
        prop_assert_eq!(&pieces.path, &whole.path);
        prop_assert_eq!(&pieces.query, &whole.query);
        prop_assert_eq!(&pieces.headers, &whole.headers);
        prop_assert_eq!(&pieces.body, &whole.body);
    }

    #[test]
    fn the_head_cap_holds_however_the_head_is_split(
        pad in (MAX_HEAD_BYTES - 64)..(MAX_HEAD_BYTES + 2_048),
        sizes in vec(1usize..2_048, 0..6),
        terminated in 0u8..2,
    ) {
        let mut bytes = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        bytes.resize(pad, b'a');
        if terminated > 0 {
            bytes.extend_from_slice(b"\r\n\r\n");
        }
        let head_len = bytes.len();
        let timeout = Duration::from_secs(5);
        let (result, _) = read_chunks(split(&bytes, &sizes), true, 0, timeout);
        if head_len > MAX_HEAD_BYTES {
            prop_assert!(
                matches!(result, Err(HttpError::Malformed(_))),
                "{head_len}-byte head: {}",
                outcome(&result)
            );
        } else if terminated > 0 {
            prop_assert!(result.is_ok(), "{head_len}-byte head: {}", outcome(&result));
        }
    }

    #[test]
    fn a_bad_content_length_is_malformed(
        value in prop_oneof![
            Just("abc".to_string()),
            Just("-1".to_string()),
            Just("1e3".to_string()),
            Just("0x10".to_string()),
            Just(String::new()),
            Just("18446744073709551616".to_string()),
            (0u64..1_000).prop_map(|n| format!("{n}99999999999999999999")),
        ],
        sizes in vec(1usize..16, 0..4),
    ) {
        let bytes = format!("POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n").into_bytes();
        let (result, _) = read_chunks(split(&bytes, &sizes), true, 1 << 20, Duration::from_secs(5));
        prop_assert!(
            matches!(result, Err(HttpError::Malformed(_))),
            "Content-Length {value:?}: {}",
            outcome(&result)
        );
    }

    #[test]
    fn a_content_length_past_max_body_is_too_large(
        max_body in 0usize..4_096,
        over in 1u64..u64::MAX / 2,
        sizes in vec(1usize..16, 0..4),
    ) {
        let declared = max_body as u64 + over;
        let bytes =
            format!("POST /jobs HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
        let (result, _) = read_chunks(split(&bytes, &sizes), false, max_body, Duration::from_secs(5));
        prop_assert!(
            matches!(result, Err(HttpError::BodyTooLarge)),
            "Content-Length {declared} over {max_body}: {}",
            outcome(&result)
        );
    }
}
