//! The daemon process and the closed-loop TCP client.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qpilot_core::json::{self, Value};

use crate::gen::Lines;

/// How long a daemon may take to print its readiness line or to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `qpilotd`. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    /// The bound loopback address from the readiness line.
    pub addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `qpilotd --listen 127.0.0.1:0 --store <store>` and waits for
    /// its readiness line. Returns the daemon and the time from spawn to
    /// that line.
    pub fn spawn(bin: &Path, store: &Path) -> Result<(Daemon, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut ready = String::new();
        let read = stdout.read_line(&mut ready);
        let elapsed = started.elapsed();
        let addr = read
            .ok()
            .and_then(|_| ready.trim().strip_prefix("qpilotd listening on "))
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("qpilotd did not become ready: {ready:?}"));
        };
        Ok((
            Daemon {
                child,
                addr,
                _stdout: stdout,
            },
            elapsed,
        ))
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `{"op":"shutdown"}` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        request(self.addr, "{\"op\":\"shutdown\"}")?;
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("qpilotd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("qpilotd did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for qpilotd: {e}")),
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request on a fresh connection; returns the reply line.
pub fn request(addr: SocketAddr, line: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(PROCESS_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = &stream;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    if reply.is_empty() {
        return Err("connection closed before a reply".into());
    }
    Ok(reply.trim_end().to_string())
}

/// Sends an op (`stats`, `store-stats`) and parses its reply.
pub fn op(addr: SocketAddr, name: &str) -> Result<Value, String> {
    let reply = request(addr, &format!("{{\"op\":\"{name}\"}}"))?;
    let doc = json::parse(&reply).map_err(|e| format!("{name} reply: {e}"))?;
    if doc.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{name} failed: {reply}"));
    }
    Ok(doc)
}

/// An integer field of an op reply.
pub fn field(doc: &Value, name: &str) -> Result<u64, String> {
    doc.get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("reply has no integer `{name}`"))
}

/// Vets the reply to request `i`; an error makes the request failed.
pub type CheckFn<'a> = dyn Fn(u64, &[u8]) -> Result<(), String> + Sync + 'a;

/// Back-to-back parts of a run's timed window, each with fresh client
/// threads and connections. On two cores the latency of a warm hit is
/// bimodal, about 2 ms when the two clients' requests miss each other and
/// about 3.3 ms when they overlap, and a loop can settle into either
/// pattern for seconds, which moves a median that lies between the modes.
/// Restarting the loop draws the pattern afresh, and the pooled samples
/// of twelve parts average over the draws.
pub const PARTS: u32 = 12;

/// Untimed load before a phase's timed parts: the first requests to a
/// freshly started daemon fault in its buffers and thread stacks. The
/// warm-up's replies are checked; its latencies are not kept.
pub const WARMUP: Duration = Duration::from_millis(500);

/// The shape of one closed-loop phase against one server.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// The timed window, run as `parts` back-to-back parts.
    pub window: Duration,
    /// Timed parts in the window.
    pub parts: u32,
    /// The index of the phase's first request.
    pub first: u64,
}

/// One request of a closed-loop phase.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request's index in its workload's input sequence.
    pub index: u64,
    /// From writing the request line to reading the whole reply line.
    pub latency_ns: u64,
    /// Reply bytes, newline excluded.
    pub reply_bytes: usize,
    /// Why the request failed, if it did.
    pub failure: Option<String>,
}

/// The result of one closed-loop phase.
pub struct LoopRun {
    /// Every request of the untimed warm-up.
    pub warmup: Vec<Sample>,
    /// Every request of the timed parts.
    pub samples: Vec<Sample>,
    /// Timed wall time: the sum of the parts, each from its start until
    /// its last reply.
    pub wall: Duration,
    /// The end of the indices sent: every index from the phase's `first`
    /// up to this one was attempted.
    pub sent: u64,
}

/// Drives `addr` as a closed loop: `connections` client threads, each on
/// its own connection, each sending its next request only after reading
/// the previous reply, first for the [`WARMUP`] and then for the window
/// in back-to-back parts. Request indices come from one shared counter, so
/// the indices sent are exactly `phase.first..sent`.
/// `check(i, reply)` vets the reply to request `i` after the latency
/// sample is taken.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    phase: Phase,
    lines: &Lines,
    check: &CheckFn<'_>,
) -> LoopRun {
    let next = AtomicU64::new(phase.first);
    let part = |length: Duration| {
        let samples = Mutex::new(Vec::new());
        let started = Instant::now();
        let deadline = started + length;
        std::thread::scope(|scope| {
            for _ in 0..connections {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    client_thread(addr, deadline, &next, lines, check, &mut local);
                    samples.lock().expect("sample lock").extend(local);
                });
            }
        });
        (
            samples.into_inner().expect("sample lock"),
            started.elapsed(),
        )
    };
    let mut warmup = part(WARMUP).0;
    let mut samples = Vec::new();
    let mut wall = Duration::ZERO;
    for _ in 0..phase.parts {
        let (timed, elapsed) = part(phase.window / phase.parts);
        samples.extend(timed);
        wall += elapsed;
    }
    warmup.sort_by_key(|s| s.index);
    samples.sort_by_key(|s| s.index);
    LoopRun {
        warmup,
        samples,
        wall,
        sent: next.load(Ordering::SeqCst),
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(PROCESS_TIMEOUT))?;
    let reader = BufReader::with_capacity(1 << 20, stream.try_clone()?);
    Ok((stream, reader))
}

fn client_thread(
    addr: SocketAddr,
    deadline: Instant,
    next: &AtomicU64,
    lines: &Lines,
    check: &CheckFn<'_>,
    out: &mut Vec<Sample>,
) {
    let mut conn = None;
    let mut reply = Vec::with_capacity(1 << 20);
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::SeqCst);
        let request = lines.line(index);
        let fail = |out: &mut Vec<Sample>, why: String| {
            out.push(Sample {
                index,
                latency_ns: 0,
                reply_bytes: 0,
                failure: Some(why),
            })
        };
        if conn.is_none() {
            match connect(addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    // Refused: count it, and stop this client; the
                    // daemon is gone.
                    fail(out, format!("connect: {e}"));
                    return;
                }
            }
        }
        let (writer, reader) = conn.as_mut().expect("connected above");
        reply.clear();
        let sent_at = Instant::now();
        let io = writer
            .write_all(&request)
            .and_then(|()| reader.read_until(b'\n', &mut reply));
        let latency_ns = sent_at.elapsed().as_nanos() as u64;
        match io {
            Ok(n) if n > 0 && reply.last() == Some(&b'\n') => {
                reply.pop();
                out.push(Sample {
                    index,
                    latency_ns,
                    reply_bytes: reply.len(),
                    failure: check(index, &reply).err(),
                });
            }
            Ok(_) => {
                conn = None;
                fail(out, "connection dropped".into());
            }
            Err(e) => {
                conn = None;
                fail(out, format!("connection error: {e}"));
            }
        }
    }
}

/// A successful compile reply, split into the fields the benchmark
/// checks.
pub struct Reply<'a> {
    /// `"path"`: `miss`, `hit`, `coalesced` or `hedged`.
    pub path: &'a str,
    /// The canonical schedule bytes.
    pub schedule: &'a [u8],
}

/// Parses the fixed-layout prefix of a compile reply rendered by
/// `protocol::render_compile_response`, without a JSON parse of the
/// (up to megabyte) schedule.
pub fn compile_reply<'a>(reply: &'a [u8], request_id: &str) -> Result<Reply<'a>, String> {
    let prefix =
        format!("{{\"ok\":true,\"op\":\"compile\",\"request_id\":\"{request_id}\",\"path\":\"");
    let Some(rest) = reply.strip_prefix(prefix.as_bytes()) else {
        let head = String::from_utf8_lossy(&reply[..reply.len().min(200)]);
        return Err(format!("not an ok reply to {request_id}: {head}"));
    };
    let end = rest
        .iter()
        .position(|&b| b == b'"')
        .ok_or("unterminated path")?;
    let path = std::str::from_utf8(&rest[..end]).map_err(|_| "path is not UTF-8")?;
    const MARKER: &[u8] = b",\"schedule\":";
    let at = find(rest, MARKER).ok_or("reply carries no schedule")?;
    let schedule = &rest[at + MARKER.len()..rest.len() - 1];
    Ok(Reply { path, schedule })
}

/// The first occurrence of `needle` in `haystack`.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Occurrences of `needle` in `haystack`.
pub fn count(haystack: &[u8], needle: &[u8]) -> usize {
    let mut n = 0;
    let mut at = 0;
    while let Some(i) = find(&haystack[at..], needle) {
        n += 1;
        at += i + needle.len();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Kind;

    /// Echoes each line back on every connection until a connection sends
    /// `stop`, then joins its connection threads.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        let server = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                let stream = stream.expect("accept");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut first = String::new();
                reader.read_line(&mut first).expect("first line");
                if first == "stop\n" {
                    break;
                }
                handlers.push(std::thread::spawn(move || {
                    let mut writer = stream;
                    let mut line = first;
                    while !line.is_empty() && writer.write_all(line.as_bytes()).is_ok() {
                        line.clear();
                        if reader.read_line(&mut line).is_err() {
                            break;
                        }
                    }
                }));
            }
            for handler in handlers {
                handler.join().expect("echo thread");
            }
        });
        (addr, server)
    }

    #[test]
    fn a_closed_loop_warms_up_sends_every_index_once_and_times_only_its_parts() {
        let (addr, server) = echo_server();
        let lines = Lines::new(Kind::ColdStructured, 1, 0);
        let window = Duration::from_millis(400);
        let echoed = |i: u64, reply: &[u8]| {
            let head = format!("{{\"request_id\":\"s{i}\",");
            if reply.starts_with(head.as_bytes()) {
                Ok(())
            } else {
                Err(format!("reply to {i} is not its echo"))
            }
        };
        let phase = Phase {
            window,
            parts: 4,
            first: 7,
        };
        let run = closed_loop(addr, 2, phase, &lines, &echoed);
        let mut stop = TcpStream::connect(addr).expect("connect");
        stop.write_all(b"stop\n").expect("stop");
        server.join().expect("echo server");
        // The warm-up comes first, and together the two send every index
        // from `first` exactly once.
        assert!(!run.warmup.is_empty() && !run.samples.is_empty());
        let indices: Vec<u64> = run
            .warmup
            .iter()
            .chain(&run.samples)
            .map(|s| s.index)
            .collect();
        assert_eq!(indices, (7..run.sent).collect::<Vec<_>>());
        let all = || run.warmup.iter().chain(&run.samples);
        assert!(all().all(|s| s.failure.is_none()));
        assert!(all().all(|s| s.reply_bytes > 0));
        // Only the parts are timed.
        assert!(run.wall >= window, "{:?}", run.wall);
        assert!(run.wall < window + WARMUP, "{:?}", run.wall);
    }

    #[test]
    fn compile_replies_split_without_a_json_parse() {
        let reply = br#"{"ok":true,"op":"compile","request_id":"c3","path":"miss","router":"generic","stats":{"moves":1},"schedule":{"stages":[{"kind":"rydberg","ops":[]},{"kind":"raman","gates":[]},{"kind":"rydberg","ops":[]}]}}"#;
        let parsed = compile_reply(reply, "c3").unwrap();
        assert_eq!(parsed.path, "miss");
        assert!(parsed.schedule.starts_with(b"{\"stages\""));
        assert!(parsed.schedule.ends_with(b"]}"));
        assert_eq!(count(parsed.schedule, b"{\"kind\":\"rydberg\""), 2);
        assert_eq!(count(parsed.schedule, b"{\"kind\":\""), 3);
        assert!(compile_reply(reply, "c4").is_err());
        assert!(compile_reply(br#"{"ok":false,"request_id":"c3"}"#, "c3").is_err());
    }
}
