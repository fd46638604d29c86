//! A dependency-free data-parallel map over OS threads.
//!
//! `qpilot-bench` fans batches of independent compiles out with it. The
//! build environment cannot fetch `rayon`, so the fan-out uses
//! `std::thread::scope`: workers pull item indices from one atomic
//! counter (work-stealing-ish dynamic scheduling, so skewed per-item
//! costs still balance) and send results back tagged with their index.
//! Swap [`parallel_map`] for `par_iter().map()` if rayon ever becomes
//! available — call sites need no other change.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Number of worker threads to use by default: `QPILOT_THREADS` if set,
/// otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    std::env::var("QPILOT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Applies `f` to every item on up to `threads` worker threads, returning
/// results in input order. `threads <= 1` (or a single item) runs inline
/// with no thread overhead.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let (f, next) = (&f, &next);
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                if tx.send((i, f(&items[i]))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn unbalanced_items_all_complete() {
        // Skewed work per item: every item completes, still in order.
        let skewed = |&x: &u64| (0..(x % 7) * 1000).fold(x, |acc, _| acc.wrapping_mul(31));
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 4, skewed);
        assert_eq!(out, items.iter().map(skewed).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let items = [1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: [u32; 0] = [];
        assert!(parallel_map(&items, 4, |&x| x).is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
