//! A single-threaded readiness reactor for line-delimited protocols.
//!
//! One reactor thread owns the listener and every connection through a
//! [`netpoll::Poller`] (epoll on Linux), runs nonblocking per-connection
//! read/write state machines, and hands complete request lines to a
//! pool of *dispatcher* threads. Dispatchers call the pluggable
//! handler — for `qpilotd` ([`serve_tcp`](crate::server::serve_tcp))
//! the protocol's own handler against the worker-pool
//! [`Service`](crate::pool::Service), for other callers a
//! [`LineHandler`] — and push completions back over a channel, waking
//! the reactor through a pipe ([`netpoll::Waker`]).
//!
//! The dispatcher pool exists because the service API is deliberately
//! blocking: a compile miss parks its caller in the coalescing waiter
//! map until the schedule lands. The reactor thread must never block on
//! a request, so it only moves bytes; dispatchers absorb the blocking.
//!
//! Per connection:
//!
//! * the bytes read are split into request lines by the framer that
//!   also serves stdio, so the line rules of [`crate::server`] — the
//!   [`MAX_REQUEST_LINE_BYTES`](crate::server::MAX_REQUEST_LINE_BYTES)
//!   cap, UTF-8 replacement, blank keep-alives, a final line without a
//!   newline — hold on both transports;
//! * one response line per request line, in request order (completions
//!   may finish out of order; a sequence-numbered reorder buffer holds
//!   them until their turn);
//! * the per-line read deadline arms at the first byte of a line and
//!   disarms at its newline; a connection stalled mid-line past the
//!   deadline is closed (slow-loris defence);
//! * during a drain, a connection idle at a line boundary is closed
//!   after its already-received requests are answered;
//! * a `shutdown` response is flushed to its client, then the whole
//!   reactor stops;
//! * a handler that panics is answered with an `{"ok":false}` line
//!   naming the panic, and its dispatcher lives on.
//!
//! Replies wait in a per-connection queue of chunks: a reply's own
//! bytes, a cached schedule shared with the cache (a hit's reply holds
//! its schedule by reference), and a static tail. The queue is written
//! with vectored writes, and each chunk is dropped once it is written.
//!
//! Memory stays bounded without blocking the reactor: a connection with
//! 256 requests in flight or 4 MiB of unflushed replies, shared schedule
//! bytes included, has its read interest dropped (the bytes wait in the
//! kernel socket buffer) until the backlog clears — level-triggered
//! polling makes resumption free.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netpoll::{Interest, Poller, Waker};

use crate::pool::panic_message;
use crate::protocol::{next_request_id, render_error, Handled, Reply};
use crate::server::{Frame, LineFramer};

/// The per-request callback: one request line in (newline stripped,
/// never blank), one [`Handled`] out. Runs on a dispatcher thread, so
/// it may block. `qpilot-router` plugs in a forwarder that relays the
/// raw line to a shard; the reply string is written without a copy.
pub type LineHandler = Arc<dyn Fn(&str) -> Handled + Send + Sync>;

/// The daemon's handler: a [`LineHandler`] whose reply comes in the
/// parts the reactor writes, a cached schedule by reference
/// ([`protocol::reply_to`](crate::protocol::reply_to)).
pub(crate) type ReplyHandler = Arc<dyn Fn(&str) -> Reply + Send + Sync>;

/// Tuning for [`ReactorServer::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorOptions {
    /// A request line must arrive in full within this window of its
    /// first byte, or the connection is closed (slow-loris defence).
    pub line_deadline: Duration,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions {
            line_deadline: Duration::from_secs(10),
        }
    }
}

/// Per-connection cap on requests dispatched but not yet written back;
/// a connection at the cap stops being read until responses drain.
const PIPELINE_CAP: usize = 256;

/// Per-connection cap on unflushed response bytes, shared schedule
/// bytes included; reads pause above it.
const WRITE_BACKLOG_CAP: usize = 4 * 1024 * 1024;

/// The most chunks one vectored write passes to the kernel.
const WRITE_SLICES: usize = 64;

/// Dispatcher threads calling the [`LineHandler`]: 2× available
/// parallelism, clamped to [16, 64].
fn dispatcher_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get() * 2)
        .unwrap_or(16)
        .clamp(16, 64)
}

/// Flags and counters shared between the handle and the reactor thread.
struct Shared {
    stop: AtomicBool,
    drain: AtomicBool,
    active: AtomicUsize,
    waker: Waker,
}

/// A running reactor-based line server. Dropping the handle without
/// calling [`ReactorServer::shutdown`] leaves the reactor running
/// detached.
///
/// # Example
///
/// ```
/// use std::io::{BufRead, BufReader, Write};
/// use std::net::TcpStream;
/// use std::sync::Arc;
/// use qpilot_service::protocol::Handled;
/// use qpilot_service::reactor::{ReactorOptions, ReactorServer};
///
/// // A toy handler: shout the request back. qpilotd plugs in
/// // `protocol::handle_line`; qpilot-router plugs in a shard forwarder.
/// let handler: qpilot_service::reactor::LineHandler = Arc::new(|line: &str| Handled {
///     response: line.to_uppercase(),
///     shutdown: false,
/// });
/// let server =
///     ReactorServer::spawn("127.0.0.1:0", ReactorOptions::default(), handler).unwrap();
/// let stream = TcpStream::connect(server.local_addr()).unwrap();
/// let mut reader = BufReader::new(stream.try_clone().unwrap());
/// let mut writer = stream;
/// writer.write_all(b"hello\n").unwrap();
/// let mut line = String::new();
/// reader.read_line(&mut line).unwrap();
/// assert_eq!(line, "HELLO\n");
/// server.shutdown();
/// ```
pub struct ReactorServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), starts
    /// the reactor thread and its dispatcher pool, and returns the
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation failures.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        options: ReactorOptions,
        handler: LineHandler,
    ) -> io::Result<ReactorServer> {
        ReactorServer::spawn_replies(
            addr,
            options,
            Arc::new(move |line: &str| Reply::from(handler(line))),
        )
    }

    /// [`ReactorServer::spawn`] with a handler whose replies come in
    /// parts.
    pub(crate) fn spawn_replies(
        addr: impl ToSocketAddrs,
        options: ReactorOptions,
        handler: ReplyHandler,
    ) -> io::Result<ReactorServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        let waker = Waker::new(&poller, TOKEN_WAKER)?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            waker,
        });

        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Completion>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        for _ in 0..dispatcher_count() {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let handler = Arc::clone(&handler);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatcher_loop(&job_rx, &done_tx, &handler, &shared));
        }
        drop(done_tx);

        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                Reactor {
                    poller,
                    listener,
                    shared,
                    options,
                    job_tx,
                    done_rx,
                    conns: HashMap::new(),
                    next_token: TOKEN_FIRST_CONN,
                    drain_swept: false,
                }
                .run();
            })
        };
        Ok(ReactorServer {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain: the reactor stops accepting and each
    /// live connection finishes the requests it has already received,
    /// then closes. Pair with [`ReactorServer::drain_wait`].
    pub fn begin_drain(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.waker.wake();
    }

    /// Waits up to `timeout` for the reactor to close every connection
    /// and exit after [`ReactorServer::begin_drain`]. Returns `true`
    /// when the server went idle in time.
    pub fn drain_wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.active.load(Ordering::SeqCst) == 0 && self.is_finished() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// `true` once the reactor thread has exited (a client sent
    /// `shutdown`, or a drain/shutdown was requested locally).
    pub fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Stops the reactor and joins its thread. Live connections are
    /// closed; dispatcher threads finish their current request and
    /// exit.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.waker.wake();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the server stops (a client sent `shutdown`).
    pub fn wait(mut self) {
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// One request line headed for a dispatcher.
struct Job {
    token: u64,
    seq: u64,
    line: String,
}

/// One handled response headed back to the reactor.
struct Completion {
    token: u64,
    seq: u64,
    reply: Reply,
}

fn dispatcher_loop(
    job_rx: &Mutex<Receiver<Job>>,
    done_tx: &Sender<Completion>,
    handler: &ReplyHandler,
    shared: &Shared,
) {
    loop {
        // Hold the lock only for the recv, not for the handler call.
        let job = match job_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        // A panicking handler costs its line an error reply, not this
        // dispatcher: a lost dispatcher would leave the line unanswered,
        // stall every later reply on its connection behind it, and once
        // all dispatchers were gone no connection would be answered.
        let reply =
            catch_unwind(AssertUnwindSafe(|| handler(&job.line))).unwrap_or_else(|payload| {
                Reply::line(render_error(
                    &format!("internal error: {}", panic_message(&*payload)),
                    false,
                    &next_request_id(),
                ))
            });
        if done_tx
            .send(Completion {
                token: job.token,
                seq: job.seq,
                reply,
            })
            .is_err()
        {
            return; // reactor gone
        }
        let _ = shared.waker.wake();
    }
}

/// A piece of a connection's unwritten output.
enum Chunk {
    /// Bytes the connection owns: a reply's head, or a whole reply.
    Owned(Vec<u8>),
    /// A cached schedule, shared with the cache.
    Shared(Arc<str>),
    /// A reply's closing bytes.
    Static(&'static [u8]),
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shared(text) => text.as_bytes(),
            Chunk::Static(bytes) => bytes,
        }
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Splits the bytes read into request lines.
    framer: LineFramer,
    /// Read side finished: peer EOF, shutdown response queued, or a
    /// fatal socket error.
    eof: bool,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to write out (responses go in request
    /// order).
    next_write: u64,
    /// Requests dispatched and not yet completed.
    inflight: usize,
    /// Completions that arrived out of order, keyed by sequence.
    pending: BTreeMap<u64, Reply>,
    /// Replies in order, waiting to be written.
    out: VecDeque<Chunk>,
    /// Bytes of the front chunk already written.
    out_pos: usize,
    /// Unwritten bytes in `out`.
    backlog: usize,
    /// Flush the write queue, then close the connection and stop the
    /// whole reactor (a `shutdown` response is queued).
    shutdown_after_flush: bool,
    /// Fatal I/O error: close as soon as possible.
    dead: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            framer: LineFramer::default(),
            eof: false,
            next_seq: 0,
            next_write: 0,
            inflight: 0,
            pending: BTreeMap::new(),
            out: VecDeque::new(),
            out_pos: 0,
            backlog: 0,
            shutdown_after_flush: false,
            dead: false,
            registered: Interest::READABLE,
        }
    }

    fn write_backlog(&self) -> usize {
        self.backlog
    }

    /// Queues `reply` for writing: its head, its schedule by reference,
    /// and its tail.
    fn queue(&mut self, reply: Reply) {
        let tail = reply.tail();
        self.push(Chunk::Owned(reply.head.into_bytes()));
        if let Some(schedule) = reply.schedule {
            self.push(Chunk::Shared(schedule));
        }
        self.push(Chunk::Static(tail));
    }

    fn push(&mut self, chunk: Chunk) {
        self.backlog += chunk.bytes().len();
        self.out.push_back(chunk);
    }

    /// Drops the `n` bytes just written from the front of the queue.
    fn consume(&mut self, mut n: usize) {
        self.backlog -= n;
        while let Some(front) = self.out.front() {
            let left = front.bytes().len() - self.out_pos;
            if n < left {
                self.out_pos += n;
                return;
            }
            n -= left;
            self.out.pop_front();
            self.out_pos = 0;
        }
    }

    /// The connection has nothing queued in either direction.
    fn quiescent(&self) -> bool {
        self.inflight == 0 && self.pending.is_empty() && self.write_backlog() == 0
    }

    /// A line is partially received (which also means its deadline is
    /// armed).
    fn mid_line(&self) -> bool {
        self.framer.line_started().is_some()
    }
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<Shared>,
    options: ReactorOptions,
    job_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    drain_swept: bool,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let stop = self.shared.stop.load(Ordering::SeqCst);
            let drain = self.shared.drain.load(Ordering::SeqCst);
            if stop && !drain {
                break;
            }
            if drain && !self.drain_swept {
                self.drain_swept = true;
                // Consume whatever already sits in each kernel socket
                // buffer so "requests received before the drain" is
                // judged against the sockets, not just our userspace
                // buffers.
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.handle_readable(token);
                }
            }
            if drain && self.conns.is_empty() {
                break;
            }
            let timeout = self.wait_timeout(drain);
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            let mut touched: Vec<u64> = Vec::new();
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    token => {
                        if event.readable || event.hangup {
                            self.handle_readable(token);
                        }
                        if event.writable {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                flush_writes(conn);
                            }
                        }
                        touched.push(token);
                    }
                }
            }
            let stopping = self.apply_completions(&mut touched);
            self.sweep(&touched);
            if stopping {
                break;
            }
        }
        // Reactor exit closes the listener and every remaining
        // connection; dispatchers drain their queue and exit once the
        // job channel disconnects.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token);
        }
    }

    /// The poller timeout: the nearest armed line deadline, a modest
    /// tick while draining (so idle-closure cannot stall on a missed
    /// wake), or a coarse flag-check tick otherwise.
    fn wait_timeout(&self, drain: bool) -> Option<Duration> {
        let now = Instant::now();
        let nearest = self
            .conns
            .values()
            .filter_map(|c| c.framer.line_started())
            .min()
            .map(|started| (started + self.options.line_deadline).saturating_duration_since(now));
        let ceiling = if drain {
            Duration::from_millis(25)
        } else {
            Duration::from_secs(1)
        };
        Some(nearest.map_or(ceiling, |d| d.min(ceiling)))
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        drop(stream); // draining/stopping: no new work
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared.active.fetch_add(1, Ordering::SeqCst);
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Reads everything currently available on `token` and queues the
    /// complete lines in request order: requests go to the dispatchers,
    /// and a too-long line's error reply waits in the reorder buffer
    /// without a dispatcher round trip. Stops early (leaving bytes in
    /// the kernel buffer) when the connection hits its pipelining or
    /// write-buffer cap.
    fn handle_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 64 * 1024];
        while !conn.eof && !conn.dead && !paused(conn) {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    conn.framer.finish();
                }
                Ok(n) => conn.framer.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => conn.dead = true,
            }
            while let Some(frame) = conn.framer.next_frame() {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                match frame {
                    Frame::Request(line) => {
                        conn.inflight += 1;
                        let _ = self.job_tx.send(Job { token, seq, line });
                    }
                    Frame::TooLong(response) => {
                        conn.pending.insert(seq, Reply::line(response));
                    }
                }
            }
        }
    }

    /// Drains the completion channel into per-connection reorder
    /// buffers and promotes in-order responses to the write queues.
    /// Returns `true` when a `shutdown` response has fully flushed and
    /// the reactor must stop.
    fn apply_completions(&mut self, touched: &mut Vec<u64>) -> bool {
        while let Ok(done) = self.done_rx.try_recv() {
            // Completions for connections that were closed or reset in
            // the meantime miss the map (tokens are never reused) and
            // are dropped here — that is the normal
            // completion-after-reset path, not an error.
            if let Some(conn) = self.conns.get_mut(&done.token) {
                // A completion for a live connection with nothing in
                // flight would mean a dispatcher completed the same
                // job twice: folding it in would both underflow the
                // backpressure accounting (`paused` would read a wrong
                // `inflight` forever) and inject a stale response into
                // the reorder buffer. Fail loudly in debug builds and
                // drop the stray completion in release.
                debug_assert!(
                    conn.inflight > 0,
                    "duplicate completion for token {} seq {}",
                    done.token,
                    done.seq
                );
                if conn.inflight == 0 {
                    continue;
                }
                conn.inflight -= 1;
                conn.pending.insert(done.seq, done.reply);
                touched.push(done.token);
            }
        }
        let mut stopping = false;
        for &token in touched.iter() {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            while let Some(reply) = conn.pending.remove(&conn.next_write) {
                conn.next_write += 1;
                let shutdown = reply.shutdown;
                conn.queue(reply);
                if shutdown {
                    // Requests pipelined after a shutdown are not
                    // served; the response flushes, then the whole
                    // server stops.
                    conn.pending.clear();
                    conn.eof = true;
                    conn.shutdown_after_flush = true;
                    break;
                }
            }
            flush_writes(conn);
            if conn.shutdown_after_flush && conn.write_backlog() == 0 {
                stopping = true;
                self.shared.stop.store(true, Ordering::SeqCst);
            }
        }
        stopping
    }

    /// Closes connections that are finished (EOF, dead, past their
    /// line deadline, or idle during a drain) and refreshes poller
    /// interest for the rest.
    fn sweep(&mut self, touched: &[u64]) {
        let now = Instant::now();
        let drain = self.shared.drain.load(Ordering::SeqCst);
        let mut to_close: Vec<u64> = Vec::new();
        let line_deadline = self.options.line_deadline;
        for (&token, conn) in &mut self.conns {
            if conn.dead
                || conn
                    .framer
                    .line_started()
                    .is_some_and(|started| now >= started + line_deadline)
                || (conn.eof && conn.quiescent())
                || (drain && !conn.mid_line() && conn.quiescent())
            {
                to_close.push(token);
            }
        }
        for token in to_close {
            self.close(token);
        }
        for &token in touched {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let want = Interest {
                readable: !conn.eof && !conn.dead && !paused(conn),
                writable: conn.write_backlog() > 0,
            };
            if want != conn.registered
                && self
                    .poller
                    .modify(conn.stream.as_raw_fd(), token, want)
                    .is_ok()
            {
                conn.registered = want;
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            // One last best-effort flush before the descriptor closes
            // (e.g. responses queued behind a lapsed line deadline).
            if conn.write_backlog() > 0 && !conn.dead {
                let _ = write_queued(&mut conn);
            }
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A connection over its pipelining or write-buffer cap stops being
/// read until the backlog drains.
fn paused(conn: &Conn) -> bool {
    conn.inflight + conn.pending.len() >= PIPELINE_CAP || conn.write_backlog() >= WRITE_BACKLOG_CAP
}

/// Writes the queue until it is empty or the socket would block.
fn flush_writes(conn: &mut Conn) {
    while conn.write_backlog() > 0 {
        match write_queued(conn) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// One vectored write of the queue's first [`WRITE_SLICES`] chunks; the
/// bytes written leave the queue.
fn write_queued(conn: &mut Conn) -> io::Result<usize> {
    let mut slices = [IoSlice::new(&[]); WRITE_SLICES];
    let mut count = 0;
    for (slot, chunk) in slices.iter_mut().zip(&conn.out) {
        *slot = IoSlice::new(chunk.bytes());
        count += 1;
    }
    slices[0] = IoSlice::new(&conn.out[0].bytes()[conn.out_pos..]);
    let n = conn.stream.write_vectored(&slices[..count])?;
    conn.consume(n);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// Regression test (completion-after-connection-reset): a client
    /// that vanishes while requests are in flight must not corrupt the
    /// reactor's per-connection accounting. The first completion's
    /// response write provokes an RST from the closed peer, so the
    /// connection is torn down with one request still dispatched; the
    /// second completion then arrives for a token that no longer
    /// exists and must be dropped — after which the reactor serves
    /// fresh connections and drains to idle normally.
    #[test]
    fn completion_after_connection_reset_is_dropped() {
        let handler: LineHandler = Arc::new(|line: &str| {
            let ms = if line == "fast" { 30 } else { 400 };
            std::thread::sleep(Duration::from_millis(ms));
            Handled {
                response: format!("done {line}"),
                shutdown: false,
            }
        });
        let server =
            ReactorServer::spawn("127.0.0.1:0", ReactorOptions::default(), handler).unwrap();

        {
            let mut doomed = TcpStream::connect(server.local_addr()).unwrap();
            doomed.write_all(b"fast\nslow\n").unwrap();
            // Drop = close(2): once the reactor writes the "fast"
            // response, the peer kernel answers with RST and the
            // connection dies with "slow" still in flight.
        }

        // Wait out the slow completion; it lands after the teardown.
        std::thread::sleep(Duration::from_millis(700));

        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"fast\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "done fast\n");
        drop(writer);
        drop(reader);

        // No connection state is left behind by the reset.
        server.begin_drain();
        assert!(server.drain_wait(Duration::from_secs(5)));
    }

    /// More panicking lines than there are dispatchers, then a good
    /// line, on one connection: each panic must cost one error reply,
    /// in order, and leave every dispatcher alive for the good line and
    /// for a fresh connection.
    #[test]
    fn a_panicking_handler_costs_one_error_line_not_a_dispatcher() {
        let handler: LineHandler = Arc::new(|line: &str| {
            if line == "boom" {
                panic!("boom");
            }
            Handled {
                response: format!("done {line}"),
                shutdown: false,
            }
        });
        let server =
            ReactorServer::spawn("127.0.0.1:0", ReactorOptions::default(), handler).unwrap();
        let connect = || {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            (BufReader::new(stream.try_clone().unwrap()), stream)
        };

        let (mut reader, mut writer) = connect();
        let panics = dispatcher_count() + 1;
        writer
            .write_all(format!("{}ok\n", "boom\n".repeat(panics)).as_bytes())
            .unwrap();
        for i in 0..panics {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("{\"ok\":false"), "reply {i}: {line}");
            assert!(line.contains("internal error: "), "reply {i}: {line}");
        }
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "done ok\n");

        let (mut reader, mut writer) = connect();
        writer.write_all(b"ok\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "done ok\n");
        server.shutdown();
    }
}
