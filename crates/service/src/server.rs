//! Serving the protocol over stdio and TCP.
//!
//! Both transports are line-delimited: the daemon reads one request per
//! line and writes exactly one response line, in order. [`serve_stdio`]
//! answers stdin on stdout from the calling thread; [`serve_tcp`] serves
//! TCP connections through the epoll reactor ([`crate::reactor`]). A
//! `shutdown` request stops the transport: stdio returns, TCP flushes
//! the response and stops the reactor.
//!
//! One framer splits the bytes of both transports into request lines,
//! so the line rules hold on both:
//!
//! * a line longer than [`MAX_REQUEST_LINE_BYTES`] is discarded as it
//!   streams in (the daemon never buffers it whole) and answered with an
//!   error line, and the stream continues — an oversized or hostile
//!   client cannot balloon daemon memory or poison its own connection;
//! * invalid UTF-8 is replaced rather than trusted, so arbitrary bytes at
//!   worst produce a JSON parse error response;
//! * blank lines are keep-alives, not requests;
//! * a final line without a newline is still a request.
//!
//! The framer also notes when the line in progress got its first byte.
//! TCP uses that for a per-line deadline
//! ([`ReactorOptions::line_deadline`]): the clock arms at a line's first
//! byte and disarms at its newline, so a slow-loris client trickling one
//! byte at a time cannot pin a connection slot forever.

use std::collections::VecDeque;
use std::io::{self, BufWriter, Read, Write};
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Instant;

use crate::pool::Service;
use crate::protocol::{next_request_id, render_error, reply_to, Reply};
use crate::reactor::{ReactorOptions, ReactorServer};

/// Upper bound on one request line (bytes, newline excluded). Generous:
/// a 100-qubit, 1000-gate inline circuit is ~15 KB.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 * 1024 * 1024;

/// One complete line out of a [`LineFramer`].
pub(crate) enum Frame {
    /// A request for the handler: newline stripped, invalid UTF-8
    /// replaced, never blank.
    Request(String),
    /// The error reply to a line over [`MAX_REQUEST_LINE_BYTES`].
    TooLong(String),
}

/// Splits a byte stream into request lines under the line rules of the
/// module docs. Feed bytes as they arrive to [`LineFramer::push`], call
/// [`LineFramer::finish`] at end of stream, and take the complete lines
/// from [`LineFramer::next_frame`].
#[derive(Default)]
pub(crate) struct LineFramer {
    /// The line in progress, while it is within the cap.
    line: Vec<u8>,
    /// The line in progress is over the cap; its bytes are discarded
    /// until its newline.
    too_long: bool,
    /// When the line in progress got its first byte.
    started: Option<Instant>,
    /// Complete frames not yet taken.
    ready: VecDeque<Frame>,
}

impl LineFramer {
    /// Takes the next bytes of the stream.
    pub(crate) fn push(&mut self, mut bytes: &[u8]) {
        while let Some(at) = bytes.iter().position(|&b| b == b'\n') {
            self.append(&bytes[..at]);
            self.end_line();
            bytes = &bytes[at + 1..];
        }
        if !bytes.is_empty() {
            self.started.get_or_insert_with(Instant::now);
            self.append(bytes);
        }
    }

    /// Ends the stream: a line in progress is complete without its
    /// newline.
    pub(crate) fn finish(&mut self) {
        if self.started.is_some() {
            self.end_line();
        }
    }

    /// The oldest complete frame not yet taken.
    pub(crate) fn next_frame(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// When the line in progress got its first byte; `None` between
    /// lines.
    pub(crate) fn line_started(&self) -> Option<Instant> {
        self.started
    }

    fn append(&mut self, bytes: &[u8]) {
        if self.too_long {
            return;
        }
        if self.line.len() + bytes.len() > MAX_REQUEST_LINE_BYTES {
            self.too_long = true;
            self.line = Vec::new();
        } else {
            self.line.extend_from_slice(bytes);
        }
    }

    fn end_line(&mut self) {
        self.started = None;
        if std::mem::take(&mut self.too_long) {
            // The line never parsed, so no client id exists to echo; a
            // daemon-assigned one keeps the reply correlatable.
            let message = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
            let reply = render_error(&message, false, &next_request_id());
            self.ready.push_back(Frame::TooLong(reply));
            return;
        }
        let line = match String::from_utf8(std::mem::take(&mut self.line)) {
            Ok(line) => line,
            Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
        };
        if !line.trim().is_empty() {
            self.ready.push_back(Frame::Request(line));
        }
    }
}

/// Serves requests from `input` to `output` until EOF or a `shutdown`
/// request. Returns the number of requests answered. A reply that
/// carries a cached schedule is written from the cache's shared text.
///
/// # Errors
///
/// Propagates I/O errors from the transport.
pub fn serve_lines(
    service: &Service,
    mut input: impl Read,
    mut output: impl Write,
) -> io::Result<u64> {
    let mut framer = LineFramer::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut answered = 0u64;
    loop {
        let n = match input.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            framer.finish();
        } else {
            framer.push(&chunk[..n]);
        }
        while let Some(frame) = framer.next_frame() {
            let reply = match frame {
                Frame::Request(line) => reply_to(service, &line),
                Frame::TooLong(response) => Reply::line(response),
            };
            reply.write_to(&mut output)?;
            output.flush()?;
            answered += 1;
            if reply.shutdown {
                return Ok(answered);
            }
        }
        if n == 0 {
            return Ok(answered);
        }
    }
}

/// Serves stdin → stdout (the `qpilotd --stdio` mode).
///
/// # Errors
///
/// See [`serve_lines`].
pub fn serve_stdio(service: &Service) -> io::Result<u64> {
    serve_lines(
        service,
        io::stdin().lock(),
        BufWriter::new(io::stdout().lock()),
    )
}

/// Serves the protocol over TCP: binds `addr` (e.g. `127.0.0.1:0` for an
/// ephemeral port) and answers every request line as
/// [`handle_line`](crate::protocol::handle_line) does against `service`
/// on the epoll reactor, writing a cached schedule to the socket from
/// the cache's shared text. The returned handle drains, stops or waits
/// for the server.
///
/// # Errors
///
/// Propagates bind and poller-creation failures.
pub fn serve_tcp(
    service: Service,
    addr: impl ToSocketAddrs,
    options: ReactorOptions,
) -> io::Result<ReactorServer> {
    ReactorServer::spawn_replies(
        addr,
        options,
        Arc::new(move |line: &str| reply_to(&service, line)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServiceConfig;
    use proptest::prelude::*;
    use proptest::test_runner::ProptestConfig;
    use std::io::{BufRead, BufReader, Cursor};
    use std::net::TcpStream;
    use std::time::Duration;

    fn service() -> Service {
        Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            cache_shards: 2,
            ..ServiceConfig::default()
        })
    }

    /// Feeds `pieces` in order, then ends the stream. Each frame comes
    /// back as its request line, or `None` for a too-long line.
    fn frames(pieces: &[&[u8]]) -> Vec<Option<String>> {
        let mut framer = LineFramer::default();
        for piece in pieces {
            framer.push(piece);
        }
        framer.finish();
        std::iter::from_fn(|| framer.next_frame())
            .map(|frame| match frame {
                Frame::Request(line) => Some(line),
                Frame::TooLong(reply) => {
                    assert!(reply.starts_with("{\"ok\":false"), "{reply}");
                    assert!(reply.contains("request line exceeds 4194304 bytes"));
                    None
                }
            })
            .collect()
    }

    /// Stream pieces, each with the frames it yields on its own.
    fn segments() -> Vec<(Vec<u8>, Vec<Option<String>>)> {
        let at_cap = "a".repeat(MAX_REQUEST_LINE_BYTES);
        let ping = r#"{"op":"ping"}"#;
        vec![
            (
                format!("{ping}\n").into_bytes(),
                vec![Some(ping.to_string())],
            ),
            (b"\n".to_vec(), vec![]),
            (b" \t\r\n".to_vec(), vec![]),
            (
                b"{\"op\":\"stats\"}\r\n".to_vec(),
                vec![Some("{\"op\":\"stats\"}\r".to_string())],
            ),
            (
                b"\xFF\xFEok\n".to_vec(),
                vec![Some("\u{FFFD}\u{FFFD}ok".to_string())],
            ),
            (format!("{at_cap}\n").into_bytes(), vec![Some(at_cap)]),
            (
                [vec![b'b'; MAX_REQUEST_LINE_BYTES + 1], b"\n".to_vec()].concat(),
                vec![None],
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any chunking of a stream yields the frames of the whole
        /// stream, and those are the frames of its lines taken one by
        /// one. Chunks may start or end at a newline, and the final line
        /// may lack its newline.
        #[test]
        fn every_chunking_yields_the_frames_of_the_whole_stream(
            picks in prop::collection::vec(0usize..7, 1..6),
            unterminated in 0u32..2,
            edges in prop::collection::vec(0u32..3, 8..9),
            cuts in prop::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let segments = segments();
            let mut stream = Vec::new();
            let mut expected = Vec::new();
            for &pick in &picks {
                stream.extend_from_slice(&segments[pick].0);
                expected.extend(segments[pick].1.iter().cloned());
            }
            if unterminated == 1 {
                stream.pop(); // every segment ends in a newline
            }
            // Split at random points, and just before or just after
            // newlines, so a newline opens or closes a chunk.
            let mut splits: Vec<usize> =
                cuts.iter().map(|f| (f * stream.len() as f64) as usize).collect();
            let newlines = stream.iter().enumerate().filter(|&(_, &b)| b == b'\n');
            for (k, (at, _)) in newlines.enumerate() {
                match edges[k % edges.len()] {
                    1 => splits.push(at),
                    2 => splits.push(at + 1),
                    _ => {}
                }
            }
            splits.push(stream.len());
            splits.sort_unstable();
            splits.dedup();
            let mut pieces: Vec<&[u8]> = Vec::new();
            let mut from = 0;
            for to in splits {
                pieces.push(&stream[from..to]);
                from = to;
            }
            let whole = frames(&[&stream]);
            prop_assert!(whole == expected, "whole stream: {} frames", whole.len());
            prop_assert!(frames(&pieces) == whole, "{} pieces", pieces.len());
        }
    }

    #[test]
    fn the_line_clock_runs_from_first_byte_to_newline() {
        let mut framer = LineFramer::default();
        framer.push(b"{\"op\":\"pi");
        let first = framer.line_started().expect("a line is in progress");
        framer.push(b"ng\"}");
        assert_eq!(framer.line_started(), Some(first), "same line, same clock");
        std::thread::sleep(Duration::from_millis(2));
        framer.push(b"\n{\"op\"");
        let second = framer.line_started().expect("the next line started");
        assert!(second > first, "a newline restarts the clock");
        framer.push(b":\"ping\"}\n");
        assert_eq!(framer.line_started(), None, "no line in progress");
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
        let server = serve_tcp(service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
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
        let server = serve_tcp(svc.clone(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
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
        let options = ReactorOptions {
            line_deadline: Duration::from_millis(300),
        };
        let server = serve_tcp(service(), "127.0.0.1:0", options).unwrap();
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
        let server = serve_tcp(service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
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
