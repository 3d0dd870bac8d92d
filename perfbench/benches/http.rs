//! A blocking keep-alive HTTP/1.1 client: one request at a time per
//! connection, `Content-Length` bodies only (the routes the benchmark
//! drives never stream).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    pub fn get(&mut self, path: &str) -> Result<Reply, String> {
        self.send(&format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n"))
    }

    pub fn delete(&mut self, path: &str) -> Result<Reply, String> {
        self.send(&format!(
            "DELETE {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n"
        ))
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<Reply, String> {
        self.send(&format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ))
    }

    fn send(&mut self, raw: &str) -> Result<Reply, String> {
        self.stream
            .write_all(raw.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.read_reply()
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 4096];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-reply".to_string());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> Result<Reply, String> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| format!("head: {e}"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("bad status line")?;
        let length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or("reply without content-length")?;
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
            .map_err(|e| format!("body: {e}"))?;
        self.buf.drain(..total);
        Ok(Reply { status, body })
    }
}
