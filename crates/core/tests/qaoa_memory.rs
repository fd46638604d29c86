//! A QAOA route holds working state in proportion to its qubits and
//! edges. A legal request of 65,535 qubits with two edges once held four
//! `qubits²`-bit edge sets (537 MB each) and aborted a daemon under a
//! 1 GiB address-space limit. This check measures the peak live heap
//! that one route allocates on the calling thread, its schedule included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpilot_core::compile::Workload;
use qpilot_core::qaoa::QaoaRouter;

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

#[test]
fn widest_wire_route_holds_megabytes_not_gigabytes() {
    const QUBITS: u32 = 65_535;
    let edges = [(0, 1), (2, 3)];
    let config = Workload::qaoa_round(QUBITS, edges.to_vec(), 0.5, 0.5).config(None);
    let (program, peak) = peak_during(|| {
        QaoaRouter::new()
            .route_qaoa_round(QUBITS, &edges, 0.5, 0.5, &config)
            .expect("qaoa routes")
    });
    assert_eq!(program.stats().two_qubit_gates, 2 * QUBITS as usize + 2);
    assert!(
        peak <= 64 << 20,
        "a 65,535-qubit, 2-edge route peaked at {peak} live bytes"
    );
}
