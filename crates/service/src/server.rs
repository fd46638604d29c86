//! Serving the protocol over stdio and TCP.
//!
//! Both transports are line-delimited: the daemon reads one request per
//! line and writes exactly one response line, in order. TCP connections
//! are multiplexed onto a single epoll-based reactor thread
//! ([`crate::reactor`]): nonblocking accept plus per-connection
//! read/write state machines, with request handling on a dispatcher
//! pool feeding the same bounded compile queue as before. A `shutdown`
//! request stops the transport: stdio returns from [`serve_stdio`], TCP
//! flushes the response and stops the reactor.
//!
//! Request lines are bounded on both transports: a line longer than
//! [`MAX_REQUEST_LINE_BYTES`] is discarded as it streams in (the daemon
//! never buffers it whole), answered with an error line, and the
//! connection continues — an oversized or hostile client cannot balloon
//! daemon memory or poison its own connection. Invalid UTF-8 is replaced
//! rather than trusted, so arbitrary bytes at worst produce a JSON parse
//! error response.
//!
//! TCP reads also carry a per-line deadline
//! ([`ServerOptions::line_deadline`]): the clock arms when the first
//! byte of a request line arrives and resets at its newline, so a
//! slow-loris client trickling one byte at a time cannot pin a
//! connection slot forever — the daemon closes the connection when
//! the deadline lapses mid-line. Idle connections (no line in progress)
//! are not affected, except during a drain
//! ([`TcpServer::begin_drain`]), when an idle connection is treated as
//! end-of-stream after its buffered requests are answered.

use std::io::{self, BufRead, BufWriter, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::pool::Service;
use crate::protocol::{handle_line, render_error};
use crate::reactor::{ReactorOptions, ReactorServer};

/// Upper bound on one request line (bytes, newline excluded). Generous:
/// a 100-qubit, 1000-gate inline circuit is ~15 KB.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 * 1024 * 1024;

/// Tuning for [`TcpServer::spawn_with`].
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// A request line must arrive in full within this window of its
    /// first byte, or the connection is closed (slow-loris defence).
    pub line_deadline: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            line_deadline: Duration::from_secs(10),
        }
    }
}

/// One read-side event from the bounded line reader.
enum LineEvent {
    /// A complete line within the cap (may be empty).
    Line,
    /// A line that exceeded the cap; its bytes were discarded.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads one newline-terminated line into `buf` (cleared first), capped
/// at [`MAX_REQUEST_LINE_BYTES`]. On overflow the rest of the line is
/// consumed and discarded so the stream stays line-synchronised.
fn read_bounded_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<LineEvent> {
    buf.clear();
    let mut overflowed = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if overflowed {
                LineEvent::Oversized
            } else if buf.is_empty() {
                LineEvent::Eof
            } else {
                LineEvent::Line // final line without trailing newline
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if !overflowed {
            let body = &chunk[..newline.unwrap_or(take)];
            if buf.len() + body.len() > MAX_REQUEST_LINE_BYTES {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(body);
            }
        }
        input.consume(take);
        if newline.is_some() {
            return Ok(if overflowed {
                LineEvent::Oversized
            } else {
                LineEvent::Line
            });
        }
    }
}

/// The shared request loop behind both transports. Returns the number of
/// requests handled and whether a `shutdown` request ended the loop.
fn serve_loop(
    service: &Service,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<(u64, bool)> {
    let mut handled_count = 0u64;
    let mut buf = Vec::new();
    loop {
        match read_bounded_line(&mut input, &mut buf)? {
            LineEvent::Eof => return Ok((handled_count, false)),
            LineEvent::Oversized => {
                // The line never parsed, so no client id exists to echo;
                // a daemon-assigned one keeps the reply correlatable.
                let error = render_error(
                    &format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                    false,
                    &crate::protocol::next_request_id(),
                );
                output.write_all(error.as_bytes())?;
                output.write_all(b"\n")?;
                output.flush()?;
                handled_count += 1;
            }
            LineEvent::Line => {
                let line = String::from_utf8_lossy(&buf);
                if line.trim().is_empty() {
                    continue; // blank keep-alive lines are not requests
                }
                let handled = handle_line(service, &line);
                output.write_all(handled.response.as_bytes())?;
                output.write_all(b"\n")?;
                output.flush()?;
                handled_count += 1;
                if handled.shutdown {
                    return Ok((handled_count, true));
                }
            }
        }
    }
}

/// Serves requests from `input` to `output` until EOF or a `shutdown`
/// request. Returns the number of requests handled.
///
/// # Errors
///
/// Propagates I/O errors from the transport.
pub fn serve_lines(service: &Service, input: impl BufRead, output: impl Write) -> io::Result<u64> {
    serve_loop(service, input, output).map(|(count, _)| count)
}

/// Serves stdin → stdout (the `qpilotd --stdio` mode).
///
/// # Errors
///
/// See [`serve_lines`].
pub fn serve_stdio(service: &Service) -> io::Result<u64> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_lines(service, stdin.lock(), BufWriter::new(stdout.lock()))
}

/// A running TCP server: the protocol served through the epoll reactor
/// ([`crate::reactor::ReactorServer`]) with [`handle_line`] as its
/// request handler. Dropping the handle without calling
/// [`TcpServer::shutdown`] leaves the reactor thread running detached.
pub struct TcpServer {
    inner: ReactorServer,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving connections on the reactor thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(service: Service, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        TcpServer::spawn_with(service, addr, ServerOptions::default())
    }

    /// [`TcpServer::spawn`] with explicit [`ServerOptions`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_with(
        service: Service,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> io::Result<TcpServer> {
        let reactor_options = ReactorOptions {
            line_deadline: options.line_deadline,
            ..ReactorOptions::default()
        };
        let inner = ReactorServer::spawn(
            addr,
            reactor_options,
            Arc::new(move |line: &str| handle_line(&service, line)),
        )?;
        Ok(TcpServer { inner })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Starts a graceful drain: the reactor stops accepting and each
    /// live connection finishes the requests it has already received,
    /// then closes. Pair with [`TcpServer::drain_wait`].
    pub fn begin_drain(&self) {
        self.inner.begin_drain();
    }

    /// Waits up to `timeout` for every live connection to finish after
    /// [`TcpServer::begin_drain`]. Returns `true` when the server went
    /// idle in time.
    pub fn drain_wait(&self, timeout: Duration) -> bool {
        self.inner.drain_wait(timeout)
    }

    /// `true` once the reactor thread has exited (a client sent
    /// `shutdown`, or a drain/shutdown was requested locally).
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Stops the reactor and joins its thread. Live connections are
    /// closed after a best-effort flush of completed responses.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }

    /// Blocks until the server stops (a client sent `shutdown`).
    pub fn wait(self) {
        self.inner.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServiceConfig;
    use std::io::{BufReader, Cursor};
    use std::net::TcpStream;
    use std::time::Instant;

    fn service() -> Service {
        Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            cache_shards: 2,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn serve_lines_answers_each_request_in_order() {
        let svc = service();
        let input = "{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\nnot json\n";
        let mut output = Vec::new();
        let n = serve_lines(&svc, Cursor::new(input), &mut output).unwrap();
        assert_eq!(n, 3); // blank line skipped
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("pong"));
        assert!(lines[1].contains("\"op\":\"stats\""));
        assert!(lines[2].starts_with("{\"ok\":false"));
    }

    #[test]
    fn oversized_line_gets_error_and_stream_stays_synchronised() {
        let svc = service();
        let mut input = vec![b'x'; MAX_REQUEST_LINE_BYTES + 10];
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut output = Vec::new();
        let n = serve_lines(&svc, Cursor::new(input), &mut output).unwrap();
        assert_eq!(n, 2);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert!(lines[0].contains("exceeds"), "{}", lines[0]);
        assert!(lines[0].starts_with("{\"ok\":false"));
        assert!(lines[1].contains("pong"), "next request still served");
    }

    #[test]
    fn invalid_utf8_becomes_an_error_response_not_a_dead_connection() {
        let svc = service();
        let mut input: Vec<u8> = vec![0xFF, 0xFE, 0x80, b'\n'];
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut output = Vec::new();
        let n = serve_lines(&svc, Cursor::new(input), &mut output).unwrap();
        assert_eq!(n, 2);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert!(lines[0].starts_with("{\"ok\":false"));
        assert!(lines[1].contains("pong"));
    }

    #[test]
    fn serve_lines_stops_on_shutdown() {
        let svc = service();
        let input = "{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n";
        let mut output = Vec::new();
        let n = serve_lines(&svc, Cursor::new(input), &mut output).unwrap();
        assert_eq!(n, 1, "requests after shutdown are not served");
    }

    #[test]
    fn tcp_round_trip_and_explicit_shutdown() {
        let server = TcpServer::spawn(service(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("pong"));
        drop(writer);
        server.shutdown();
    }

    #[test]
    fn drain_answers_pipelined_requests_then_closes_the_connection() {
        // Each compile stalls 100 ms, so both are still in flight when
        // the drain begins.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            faults: crate::faults::FaultSpec::parse("worker-stall=100:2").unwrap(),
            ..ServiceConfig::default()
        });
        let server = TcpServer::spawn(svc.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(
                b"{\"op\":\"compile\",\"circuit\":{\"num_qubits\":2,\"gates\":[[\"cz\",0,1]]}}\n\
                  {\"op\":\"compile\",\"circuit\":{\"num_qubits\":3,\"gates\":[[\"cz\",1,2]]}}\n",
            )
            .unwrap();
        writer.flush().unwrap();
        // Drain only once the server holds both requests: bytes that
        // reach a connection after the drain closed it draw a reset.
        let give_up = Instant::now() + Duration::from_secs(10);
        while svc.stats().requests < 2 {
            assert!(Instant::now() < give_up, "requests never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        server.begin_drain();
        let mut line = String::new();
        for which in ["first", "second"] {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(
                line.starts_with("{\"ok\":true,\"op\":\"compile\""),
                "{which} pipelined request answered: {line}"
            );
        }
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "drained connection reaches end-of-stream");
        assert!(server.drain_wait(Duration::from_secs(5)), "server idles");
        assert!(server.is_finished(), "acceptor exits on drain");
    }

    #[test]
    fn a_trickling_request_line_is_cut_off_at_the_read_deadline() {
        let options = ServerOptions {
            line_deadline: Duration::from_millis(300),
        };
        let server = TcpServer::spawn_with(service(), "127.0.0.1:0", options).unwrap();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // Half a request, then silence: a slow-loris client.
        writer.write_all(b"{\"op\":\"pi").unwrap();
        writer.flush().unwrap();
        let started = Instant::now();
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "the daemon closes the connection, got {line:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "cut off near the deadline, not at some OS timeout"
        );
        // The server is still healthy for well-behaved clients.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("pong"));
        server.shutdown();
    }

    #[test]
    fn tcp_client_shutdown_request_stops_acceptor() {
        let server = TcpServer::spawn(service(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"op\":\"shutdown\""));
        // wait() must return because the client requested shutdown.
        server.wait();
    }
}
