//! The benchmark's own HTTP/1.1 keep-alive client.
//!
//! It does not reuse `fgbs_serve::loadgen`, which times any parsed
//! response (a 503 included) and never looks at bodies. Every reply
//! here is checked — status, `x-fgbs-source`, and for store hits a byte
//! comparison with the body primed for the key — and anything that
//! fails a check counts as a failed operation.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response head or body the client accepts.
const MAX_REPLY: usize = 64 << 20;

/// A misbehaving daemon must not hang the benchmark past its deadline.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub status: u16,
    /// The `x-fgbs-source` header (`store`, `computed`, `coalesced`).
    pub source: Option<String>,
    /// The server announced `connection: close`.
    pub close: bool,
    pub body: Vec<u8>,
}

/// Why an operation counts as failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    Transport(String),
    Status(u16),
    Source(Option<String>),
    Body(String),
}

/// What a reply must be to count as a success.
#[derive(Debug, Clone, Copy)]
pub enum Expect<'a> {
    /// A store hit replaying exactly the primed body.
    Hit(&'a [u8]),
    /// A fresh computation (the body is checked by the caller).
    Computed,
}

/// Classify one request's outcome.
pub fn check(reply: &io::Result<Reply>, expect: Expect<'_>) -> Result<(), Failure> {
    let r = reply
        .as_ref()
        .map_err(|e| Failure::Transport(e.to_string()))?;
    if r.status != 200 {
        return Err(Failure::Status(r.status));
    }
    let want = match expect {
        Expect::Hit(_) => "store",
        Expect::Computed => "computed",
    };
    if r.source.as_deref() != Some(want) {
        return Err(Failure::Source(r.source.clone()));
    }
    if let Expect::Hit(primed) = expect {
        if r.body != primed {
            return Err(Failure::Body(format!(
                "hit body differs from the primed body ({} vs {} bytes)",
                r.body.len(),
                primed.len()
            )));
        }
    }
    Ok(())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one content-length-framed response. `residue` carries bytes
/// read past the previous response (pipelining-safe); a stream that
/// ends before the announced body is an `UnexpectedEof` error.
pub fn read_reply(r: &mut impl Read, residue: &mut Vec<u8>) -> io::Result<Reply> {
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(i) = residue.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        if residue.len() > MAX_REPLY {
            return Err(bad("response head too large"));
        }
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        residue.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&residue[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    if !parts.next().unwrap_or_default().starts_with("HTTP/1.") {
        return Err(bad(format!("bad status line `{status_line}`")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
    let (mut len, mut source, mut close) = (None, None, false);
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            return Err(bad(format!("bad header `{line}`")));
        };
        let v = v.trim();
        match k.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let n: usize = v.parse().map_err(|_| bad("bad content-length"))?;
                if n > MAX_REPLY {
                    return Err(bad("response body too large"));
                }
                len = Some(n);
            }
            "connection" => close = v.eq_ignore_ascii_case("close"),
            "x-fgbs-source" => source = Some(v.to_string()),
            _ => {}
        }
    }
    let len = len.ok_or_else(|| bad("response without content-length"))?;
    let total = head_end + 4 + len;
    while residue.len() < total {
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        residue.extend_from_slice(&chunk[..n]);
    }
    let body = residue[head_end + 4..total].to_vec();
    residue.drain(..total);
    Ok(Reply {
        status,
        source,
        close,
        body,
    })
}

/// A keep-alive connection that reconnects when the server closes it.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    residue: Vec<u8>,
    /// Reconnects after the server announced `connection: close` (its
    /// per-connection request budget).
    pub reconnects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            residue: Vec::new(),
            reconnects: 0,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.residue.clear();
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// `GET target` and read the reply. A transport error drops the
    /// connection, so the next request starts on a fresh one.
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        let result = self.round_trip(target);
        match &result {
            Ok(r) if r.close => {
                self.stream = None;
                self.reconnects += 1;
            }
            Ok(_) => {}
            Err(_) => self.stream = None,
        }
        result
    }

    fn round_trip(&mut self, target: &str) -> io::Result<Reply> {
        let request = format!("GET {target} HTTP/1.1\r\nhost: e2ebench\r\n\r\n");
        self.stream()?.write_all(request.as_bytes())?;
        let mut residue = std::mem::take(&mut self.residue);
        let reply = read_reply(self.stream()?, &mut residue);
        self.residue = residue;
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame(status: &str, source: Option<&str>, close: bool, body: &[u8], len: usize) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {status}\r\ncontent-type: application/json\r\ncontent-length: {len}\r\nconnection: {}\r\n",
            if close { "close" } else { "keep-alive" }
        )
        .into_bytes();
        if let Some(s) = source {
            out.extend_from_slice(format!("x-fgbs-source: {s}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body);
        out
    }

    fn read_one(bytes: Vec<u8>) -> io::Result<Reply> {
        read_reply(&mut Cursor::new(bytes), &mut Vec::new())
    }

    #[test]
    fn good_hit_passes() {
        let body = br#"{"ok":1}"#;
        let r = read_one(frame("200 OK", Some("store"), false, body, body.len()));
        assert_eq!(check(&r, Expect::Hit(body)), Ok(()));
    }

    #[test]
    fn status_503_fails() {
        let body = br#"{"error":"deadline exceeded"}"#;
        let r = read_one(frame(
            "503 Service Unavailable",
            None,
            false,
            body,
            body.len(),
        ));
        assert_eq!(r.as_ref().unwrap().status, 503);
        assert_eq!(check(&r, Expect::Hit(body)), Err(Failure::Status(503)));
        assert_eq!(check(&r, Expect::Computed), Err(Failure::Status(503)));
    }

    #[test]
    fn truncated_body_fails() {
        let body = br#"{"ok":1}"#;
        let r = read_one(frame(
            "200 OK",
            Some("store"),
            false,
            &body[..4],
            body.len(),
        ));
        assert!(matches!(
            check(&r, Expect::Hit(body)),
            Err(Failure::Transport(_))
        ));
    }

    #[test]
    fn mismatched_hit_body_fails() {
        let primed = br#"{"ok":1}"#;
        let served = br#"{"ok":2}"#;
        let r = read_one(frame("200 OK", Some("store"), false, served, served.len()));
        assert!(matches!(
            check(&r, Expect::Hit(primed)),
            Err(Failure::Body(_))
        ));
    }

    #[test]
    fn wrong_source_fails() {
        let body = br#"{"ok":1}"#;
        let r = read_one(frame("200 OK", Some("computed"), false, body, body.len()));
        assert!(matches!(
            check(&r, Expect::Hit(body)),
            Err(Failure::Source(_))
        ));
        let r = read_one(frame("200 OK", Some("coalesced"), false, body, body.len()));
        assert!(matches!(
            check(&r, Expect::Computed),
            Err(Failure::Source(_))
        ));
    }

    #[test]
    fn pipelined_replies_split_on_content_length() {
        let mut bytes = frame("200 OK", Some("store"), false, b"abc", 3);
        bytes.extend(frame("200 OK", Some("store"), true, b"de", 2));
        let mut cursor = Cursor::new(bytes);
        let mut residue = Vec::new();
        let a = read_reply(&mut cursor, &mut residue).unwrap();
        let b = read_reply(&mut cursor, &mut residue).unwrap();
        assert_eq!((a.body.as_slice(), a.close), (&b"abc"[..], false));
        assert_eq!((b.body.as_slice(), b.close), (&b"de"[..], true));
        assert!(residue.is_empty());
    }
}
