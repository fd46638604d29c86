//! A cache hit's reply carries its schedule by reference: both
//! transports write the cache entry's shared text, so serving a hit
//! allocates little beside its request, however large the schedule.
//! A transport that rendered the reply into one string would allocate
//! the whole schedule again on every hit.
//!
//! The binary holds one test, so the process-wide count of the TCP half
//! sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};

use qpilot_service::protocol::{circuit_to_value_json, handle_line};
use qpilot_service::{serve_lines, serve_tcp, ReactorOptions, Service, ServiceConfig};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

/// Tracks the calling thread's live heap bytes and their peak, and the
/// bytes every thread of the process has allocated.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: isize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for a moment.
        grow(new_size as isize);
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        grow(-(layout.size() as isize));
        moved
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the peak live bytes it
/// allocated on the calling thread above what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

/// Hits served over TCP inside the counted window.
const TCP_HITS: usize = 8;

#[test]
fn a_hit_is_written_without_a_copy_of_its_schedule() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let circuit = random_circuit(&RandomCircuitConfig::paper(100, 10, 1));
    let line = format!(
        r#"{{"op":"compile","request_id":"hit","circuit":{}}}"#,
        circuit_to_value_json(&circuit)
    );
    let miss = handle_line(&service, &line).response;
    assert!(miss.contains(r#""cache":"miss""#), "{}", &miss[..200]);
    let expected = handle_line(&service, &line).response + "\n";
    assert!(
        expected.contains(r#""cache":"hit""#),
        "{}",
        &expected[..200]
    );
    let schedule = expected.len() - expected.find(r#""schedule":"#).expect("a schedule");
    assert!(schedule > 400_000, "a 100q schedule of {schedule} bytes");

    // stdio: the hit is parsed, probed and written on the calling thread.
    let mut out = Vec::with_capacity(expected.len() + 1024);
    let (served, peak) = peak_during(|| serve_lines(&service, line.as_bytes(), &mut out));
    assert_eq!(served.expect("serve_lines"), 1);
    assert_eq!(String::from_utf8(out).unwrap(), expected);
    assert!(
        peak < schedule / 2,
        "serving a hit of a {schedule} byte schedule on stdio peaked at {peak} bytes"
    );

    // TCP: the reactor, a dispatcher and the client together.
    let server = serve_tcp(service, "127.0.0.1:0", ReactorOptions::default()).expect("serve");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let request = format!("{line}\n");
    let mut buf = vec![0u8; 64 * 1024];
    let mut round_trip = |stream: &mut TcpStream| {
        stream.write_all(request.as_bytes()).expect("send");
        let mut got = 0;
        while got < expected.len() {
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "the reply ended after {got} bytes");
            assert_eq!(buf[..n], expected.as_bytes()[got..got + n], "at byte {got}");
            got += n;
        }
    };
    // The first hit on a connection sizes its buffers.
    round_trip(&mut stream);
    let before = ALLOCATED.load(Ordering::Relaxed);
    for _ in 0..TCP_HITS {
        round_trip(&mut stream);
    }
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    assert!(
        allocated < TCP_HITS * schedule / 2,
        "{TCP_HITS} hits of a {schedule} byte schedule over TCP allocated {allocated} bytes"
    );
    drop(stream);
    server.shutdown();
}
