//! Request lines and store blobs are untrusted, so decoding one must
//! hold memory in proportion to what it decodes, not to the size of a
//! JSON tree of it. A tree costs tens of bytes per JSON value: a 4 MiB
//! line of `[0,0,…]` in a key the decoder ignores held 64 MiB while it
//! parsed. Each check here measures the peak live heap that one decode
//! allocates on the calling thread, its result included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpilot_core::compile::{compile, Workload};
use qpilot_core::wire::{schedule_from_json, schedule_to_json};
use qpilot_core::FpqaConfig;
use qpilot_service::protocol::{parse_request, Request};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

/// Tracks the calling thread's live heap bytes and their peak, so other
/// test threads cannot disturb a measurement.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

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
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for a moment.
        grow(new_size as isize);
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        grow(-(layout.size() as isize));
        moved
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the peak live bytes it
/// allocated above what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

const LINE_BYTES: usize = 4 << 20;

/// A line of `head`, then `item,` repeated to about [`LINE_BYTES`],
/// then `last` and `tail`.
fn long_line(head: &str, item: &str, last: &str, tail: &str) -> String {
    let n = (LINE_BYTES - head.len() - tail.len()) / (item.len() + 1);
    let mut line = String::with_capacity(LINE_BYTES + 64);
    line.push_str(head);
    for _ in 0..n {
        line.push_str(item);
        line.push(',');
    }
    line.push_str(last);
    line.push_str(tail);
    line
}

#[test]
fn an_ignored_array_costs_no_more_than_the_line() {
    for item in ["0", "[]"] {
        let line = long_line(r#"{"op":"ping","pad":["#, item, item, "]}");
        let (request, peak) = peak_during(|| parse_request(&line));
        assert_eq!(request, Ok(Request::Ping));
        assert!(
            peak <= line.len(),
            "a {} byte line of `{item},` held {peak} bytes",
            line.len()
        );
    }
}

#[test]
fn a_line_of_gates_costs_at_most_eight_times_the_line() {
    let line = long_line(
        r#"{"op":"compile","circuit":{"num_qubits":1,"gates":["#,
        r#"["h",0]"#,
        r#"["h",0]"#,
        "]}}",
    );
    let (request, peak) = peak_during(|| parse_request(&line));
    let Ok(Request::Compile { request, .. }) = request else {
        panic!("the line decodes: {request:?}");
    };
    let Workload::Generic(circuit) = &request.workload else {
        panic!("a generic workload");
    };
    assert_eq!(circuit.len(), line.matches(r#"["h",0]"#).count());
    assert!(
        peak <= 8 * line.len(),
        "a {} byte line of gates held {peak} bytes",
        line.len()
    );
}

#[test]
fn a_routed_blob_costs_at_most_three_times_its_bytes() {
    let circuit = random_circuit(&RandomCircuitConfig::paper(100, 10, 1));
    let program =
        compile(&Workload::circuit(circuit), &FpqaConfig::square_for(100)).expect("routes");
    let blob = schedule_to_json(program.schedule());
    let (schedule, peak) = peak_during(|| schedule_from_json(&blob));
    assert_eq!(schedule.as_ref(), Ok(program.schedule()));
    assert!(
        peak <= 3 * blob.len(),
        "a {} byte blob held {peak} bytes",
        blob.len()
    );
}
