//! The deterministic parallel sweep executor.
//!
//! This is the workspace's first parallel execution path, so the rules
//! that keep it reproducible are worth stating explicitly:
//!
//! 1. every cell's computation is a pure function of its index (callers
//!    derive a per-cell [`pvr_crypto::drbg::HmacDrbg`] seed from the
//!    campaign seed and the index, never from shared mutable state);
//! 2. workers pull indices from an atomic counter (work stealing, so a
//!    slow cell does not stall a whole stripe);
//! 3. results land in an index-addressed slot table and are returned in
//!    cell order — the output is byte-identical no matter how the
//!    scheduler interleaved the workers.
//!
//! `e12` and `tests/attack_campaigns.rs` assert property 3 by diffing a
//! single-threaded run against a multi-threaded one.

use pvr_bgp::CoreBudget;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `run(i)` for every `i` in `0..n` on up to `threads` scoped
/// worker threads and returns the results in index order.
///
/// With `threads <= 1` (or a single cell) the sweep degrades to a plain
/// sequential loop — the reference against which parallel runs are
/// compared. Panics in any cell propagate to the caller.
pub fn sweep<T, F>(n: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    // Each worker counts as busy in the process's core budget, so the
    // networks it converges run sign-ahead helpers only on cores the
    // sweep leaves free.
    let budget = CoreBudget::process();
    if threads <= 1 {
        let _worker = budget.occupy(1);
        return (0..n).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _worker = budget.occupy(1);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = run(i);
                    slots.lock().expect("sweep slot table poisoned")[i] = Some(result);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("sweep slot table poisoned")
        .into_iter()
        .map(|slot| slot.expect("every cell index visited"))
        .collect()
}

/// The executor's default thread count: the cores of the process's
/// budget (its available parallelism, floored at 1).
pub fn default_parallelism() -> usize {
    CoreBudget::process().cores()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e3779b97f4a7c15).to_be_bytes().to_vec();
        let serial = sweep(64, 1, f);
        for threads in [2, 4, 8] {
            assert_eq!(sweep(64, threads, f), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_cell() {
        assert!(sweep(0, 4, |i| i).is_empty());
        assert_eq!(sweep(1, 4, |i| i * 2), vec![0]);
    }

    #[test]
    fn oversubscribed_threads_clamp() {
        assert_eq!(sweep(3, 64, |i| i), vec![0, 1, 2]);
    }
}
