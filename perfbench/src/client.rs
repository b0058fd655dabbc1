//! The load client: one keep-alive HTTP/1.1 connection, timed from before
//! the request write to the last body byte, that reconnects when the
//! server drops the connection.
//!
//! It is the benchmark's own code rather than the server crate's test
//! client, so a change to the program cannot change how it is measured.

use crate::stats::Outcome;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Socket timeout; a failed request is charged this as its latency.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A request as the bytes put on the wire.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: docql\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One decoded response.
#[derive(Debug, Default)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers and trailers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body with chunk framing removed.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header or trailer (`name` lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn closes(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// One open connection over any byte stream.
pub struct Conn<S: Read + Write> {
    writer: S,
    reader: BufReader<S>,
    line: String,
    /// Whether the current exchange has read its status line.
    answered: bool,
}

impl Conn<TcpStream> {
    /// Connect with [`TIMEOUT`] on both directions.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn<TcpStream>> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(Conn::new(stream, reader))
    }
}

impl<S: Read + Write> Conn<S> {
    /// A connection writing to `writer` and reading from `reader` (two
    /// handles on one socket).
    pub fn new(writer: S, reader: S) -> Conn<S> {
        Conn {
            writer,
            reader: BufReader::new(reader),
            line: String::new(),
            answered: false,
        }
    }

    /// Send `request` and read the whole response. The returned duration
    /// runs from before the first byte is written to after the last body
    /// byte is read.
    pub fn exchange(&mut self, request: &[u8]) -> (io::Result<Response>, Duration) {
        let start = Instant::now();
        self.answered = false;
        let result = self
            .writer
            .write_all(request)
            .and_then(|()| self.writer.flush())
            .and_then(|()| self.read_response());
        (result, start.elapsed())
    }

    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    fn read_headers(&mut self, into: &mut Vec<(String, String)>) -> io::Result<()> {
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                return Ok(());
            }
            if let Some((name, value)) = line.split_once(':') {
                into.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        self.answered = true;
        let mut resp = Response {
            status,
            ..Response::default()
        };
        self.read_headers(&mut resp.headers)?;
        if resp
            .header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            loop {
                let size_line = self.read_line()?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
                if size == 0 {
                    self.read_headers(&mut resp.headers)?;
                    break;
                }
                let at = resp.body.len();
                resp.body.resize(at + size, 0);
                self.reader.read_exact(&mut resp.body[at..])?;
                let mut crlf = [0u8; 2];
                self.reader.read_exact(&mut crlf)?;
            }
        } else if let Some(n) = resp.header("content-length") {
            let n: usize = n
                .parse()
                .map_err(|_| bad(format!("bad content-length {n:?}")))?;
            resp.body.resize(n, 0);
            self.reader.read_exact(&mut resp.body)?;
        }
        Ok(resp)
    }
}

/// Whether `e`, met before any byte of the answer on a connection that
/// had already served a request, means the server had closed it while it
/// sat idle, so the request was never read.
fn closed_while_idle(e: &io::Error) -> bool {
    use io::ErrorKind::*;
    matches!(
        e.kind(),
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe
    )
}

/// A closed-loop client: one request in flight, reconnecting after the
/// server closes the connection.
///
/// A client made with [`LoadClient::for_reads`] resends a request once on
/// a new connection when the server had closed the kept-alive one before
/// reading it, as HTTP clients do for idempotent requests. The request's
/// latency covers both attempts and the reconnect, and the reconnect is
/// counted, so a close is neither hidden nor turned into a spin. A client
/// made with [`LoadClient::new`] never resends: the request that met the
/// close is reported as a transport failure.
pub struct LoadClient {
    addr: SocketAddr,
    conn: Option<Conn<TcpStream>>,
    connects: u64,
    resend_idle: bool,
}

impl LoadClient {
    /// A client for `addr` that never resends; it connects on its first
    /// request.
    pub fn new(addr: SocketAddr) -> LoadClient {
        LoadClient {
            addr,
            conn: None,
            connects: 0,
            resend_idle: false,
        }
    }

    /// A client for idempotent requests, which resends a request once when
    /// the server had closed the idle connection before reading it.
    pub fn for_reads(addr: SocketAddr) -> LoadClient {
        LoadClient {
            resend_idle: true,
            ..LoadClient::new(addr)
        }
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Send one request. Latency includes a reconnect when the previous
    /// request left the connection closed, and a resend after an idle
    /// close: the user waits for them too.
    pub fn send(&mut self, request: &[u8]) -> (io::Result<Response>, Duration) {
        let start = Instant::now();
        let mut resends = u8::from(self.resend_idle);
        loop {
            let reused = self.conn.is_some();
            let (result, answered) = self.attempt(request);
            let idle_close =
                reused && !answered && result.as_ref().err().is_some_and(closed_while_idle);
            if idle_close && resends > 0 {
                resends -= 1;
                continue;
            }
            return (result, start.elapsed());
        }
    }

    /// One exchange on the open connection, connecting first if there is
    /// none, with whether the server began its answer.
    fn attempt(&mut self, request: &[u8]) -> (io::Result<Response>, bool) {
        if self.conn.is_none() {
            match Conn::connect(self.addr) {
                Ok(c) => {
                    self.conn = Some(c);
                    self.connects += 1;
                }
                Err(e) => return (Err(e), false),
            }
        }
        let Some(conn) = self.conn.as_mut() else {
            unreachable!("connected above");
        };
        let (result, _) = conn.exchange(request);
        let answered = conn.answered;
        if result.as_ref().map_or(true, Response::closes) {
            self.conn = None;
        }
        (result, answered)
    }

    /// Send a request and classify it against the expected status and, if
    /// given, the expected body bytes.
    pub fn check(
        &mut self,
        request: &[u8],
        status: u16,
        body: Option<&[u8]>,
    ) -> (Outcome, Option<Response>, Duration) {
        let (result, elapsed) = self.send(request);
        let outcome = match &result {
            Err(_) => Outcome::Transport,
            Ok(r) if r.status != status => Outcome::BadStatus,
            Ok(r) if body.is_some_and(|b| b != r.body.as_slice()) => Outcome::WrongBytes,
            Ok(_) => Outcome::Ok,
        };
        (outcome, result.ok(), elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};

    /// A stream whose writes take `write_delay` and whose reads serve a
    /// canned response.
    #[derive(Clone)]
    struct Slow {
        write_delay: Duration,
        to_read: Arc<Mutex<io::Cursor<Vec<u8>>>>,
    }

    impl Read for Slow {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.to_read.lock().expect("test lock").read(buf)
        }
    }

    impl Write for Slow {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            std::thread::sleep(self.write_delay);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn clock_starts_before_the_request_write() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     3\r\nabc\r\n2\r\nde\r\n0\r\nX-Docql-Rows: 1\r\n\r\n"
            .to_vec();
        let s = Slow {
            write_delay: Duration::from_millis(30),
            to_read: Arc::new(Mutex::new(io::Cursor::new(wire))),
        };
        let mut conn = Conn::new(s.clone(), s);
        let (resp, elapsed) = conn.exchange(&post("/query", b"q"));
        let resp = resp.expect("canned response parses");
        assert!(elapsed >= Duration::from_millis(30), "{elapsed:?}");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"abcde");
        assert_eq!(resp.header("x-docql-rows"), Some("1"));
    }

    /// A server that answers two requests per connection and then closes
    /// without saying so, like `max_requests_per_conn`.
    fn closing_server(connections: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let t = std::thread::spawn(move || {
            for stream in listener.incoming().take(connections) {
                let stream = stream.expect("accept");
                let mut conn = Conn::new(stream.try_clone().expect("clone"), stream);
                for _ in 0..2 {
                    let mut head = String::new();
                    loop {
                        let line = conn.read_line().expect("request line").to_string();
                        if line.is_empty() {
                            break;
                        }
                        head.push_str(&line);
                    }
                    let mut body = [0u8; 1];
                    conn.reader.read_exact(&mut body).expect("body");
                    conn.writer
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .expect("write");
                }
            }
        });
        (addr, t)
    }

    #[test]
    fn server_close_counts_one_failure_then_reconnects() {
        let (addr, server) = closing_server(2);
        let mut client = LoadClient::new(addr);
        let req = post("/ingest", b"q");
        let mut outcomes = Vec::new();
        for _ in 0..5 {
            outcomes.push(client.check(&req, 200, Some(b"ok")).0);
        }
        server.join().expect("server thread");
        use Outcome::*;
        assert_eq!(outcomes, [Ok, Ok, Transport, Ok, Ok]);
        assert_eq!(client.reconnects(), 1);
    }

    #[test]
    fn read_client_resends_once_after_an_idle_close() {
        let (addr, server) = closing_server(3);
        let mut client = LoadClient::for_reads(addr);
        let req = post("/query", b"q");
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(client.check(&req, 200, Some(b"ok")).0);
        }
        server.join().expect("server thread");
        assert_eq!(outcomes, [Outcome::Ok; 6]);
        assert_eq!(client.reconnects(), 2);
    }

    #[test]
    fn read_client_does_not_resend_to_a_server_that_is_gone() {
        let (addr, server) = closing_server(1);
        let mut client = LoadClient::for_reads(addr);
        let req = post("/query", b"q");
        for _ in 0..2 {
            assert_eq!(client.check(&req, 200, Some(b"ok")).0, Outcome::Ok);
        }
        server.join().expect("server thread");
        let (outcome, _, _) = client.check(&req, 200, Some(b"ok"));
        assert_eq!(outcome, Outcome::Transport);
    }

    #[test]
    fn wrong_bytes_and_status_are_failures() {
        let (addr, server) = closing_server(1);
        let mut client = LoadClient::new(addr);
        let req = post("/query", b"q");
        assert_eq!(client.check(&req, 200, Some(b"no")).0, Outcome::WrongBytes);
        assert_eq!(client.check(&req, 201, None).0, Outcome::BadStatus);
        server.join().expect("server thread");
    }
}
