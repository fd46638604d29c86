//! `schedule_to_json` writes a whole document into one pre-sized buffer:
//! integers and floats go straight into it, and a float's text is
//! formatted in place, so the allocation count does not grow with the
//! schedule. A writer that builds a `String` per number makes tens of
//! thousands of allocations for a 100-qubit schedule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpilot_core::compile::{compile, Workload};
use qpilot_core::wire::schedule_to_json;
use qpilot_core::FpqaConfig;
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

/// Counts the calling thread's heap allocations and reallocations, so
/// other test threads cannot disturb a count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn routed_random_schedules_serialise_in_at_most_three_allocations() {
    for n in [20, 100] {
        let circuit = random_circuit(&RandomCircuitConfig::paper(n, 10, 1));
        let program =
            compile(&Workload::circuit(circuit), &FpqaConfig::square_for(n)).expect("routes");
        let before = ALLOCS.with(Cell::get);
        let json = schedule_to_json(program.schedule());
        let made = ALLOCS.with(Cell::get) - before;
        assert!(
            made <= 3,
            "the {n}-qubit schedule ({} bytes) took {made} allocations",
            json.len()
        );
    }
}
