//! Minimal HTTP/1.1 plumbing over `std::net` — just enough protocol for
//! the job API: request-line + headers + `Content-Length` bodies, one
//! request per connection (`Connection: close` semantics). No external
//! runtime: the container this repo builds in has no async stack, so each
//! connection is served start to finish by the blocking handler thread
//! that accepted it (reused across connections, see `Server::serve`),
//! under a read and write timeout, and the "async" part
//! of gc-serve is the job lifecycle (submit → id → poll/wait), not the
//! socket handling. Each side sends a message in one write.
//!
//! Bodies are read here as bytes only. The JSON endpoints parse them with
//! the crate's typed reader (`json.rs`, through `JobSpec::from_json` and
//! `MutationRequest::from_json`): one pass that fills the typed fields,
//! accepts only integers that fit each number field, and skips unknown
//! keys with a bounded loop, so a deeply nested body is a 400, never a
//! stack overflow.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A parsed request: method, path (query string split off), and body.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string ("" if absent).
    pub query: String,
    pub body: Vec<u8>,
}

impl Request {
    /// Value of `key` in the query string, if present (`?wait=1&x=y`).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Largest request body accepted. The body buffer is allocated from the
/// `Content-Length` header, so a larger claim is rejected before any
/// allocation.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Read one request from the stream. Bodies require `Content-Length`
/// (chunked encoding is not supported — nothing in the job API needs it).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line missing path")?;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad content-length: {e}"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "content-length {content_length} exceeds the {MAX_BODY_BYTES}-byte body cap"
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(Request {
        method,
        path: path.to_string(),
        query: query.to_string(),
        body,
    })
}

/// The bytes of a response with the given status and body, closing
/// semantics: head and body in one buffer, so that a small response goes
/// out in one write, as one segment.
pub fn response_bytes(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let mut msg = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    msg
}

/// Blocking client request (the load generator and `shutdown` use this).
/// Returns (status, body).
pub fn request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let body = body.unwrap_or("");
    let msg = format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(msg.as_bytes())
        .map_err(|e| format!("send request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = None;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|e| format!("non-utf8 body: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_round_trips_through_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert_eq!(req.query, "wait=1");
            assert_eq!(req.query_param("wait"), Some("1"));
            assert_eq!(req.query_param("missing"), None);
            assert_eq!(req.body, b"{\"x\":1}");
            let msg = response_bytes(200, "application/json", b"{\"ok\":true}");
            stream.write_all(&msg).unwrap();
        });
        let (status, body) =
            request(&addr.to_string(), "POST", "/jobs?wait=1", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn get_without_body_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.path, "/metrics");
            assert!(req.body.is_empty());
            stream
                .write_all(&response_bytes(404, "text/plain", b"nope"))
                .unwrap();
        });
        let (status, body) = request(&addr.to_string(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, "nope");
        server.join().unwrap();
    }
}
