//! The process's core budget: which cores are free for sign-ahead
//! helpers.
//!
//! A helper ([`crate::sbgp`]'s sign queue) earns its keep only on a core
//! nothing else wants; on a busy one it just takes turns with the work
//! it was meant to speed up. So everything in this process that keeps a
//! core busy for a while counts itself here for as long as it runs:
//! each converging network's shard threads
//! ([`BgpNetwork::converge`](crate::BgpNetwork::converge)), each
//! parallel sweep worker (`pvr-attack`), each checkpoint writer
//! ([`CoreBudget::occupy`]). A helper signs only while it holds a core
//! that count leaves free, and gives it back as soon as the count
//! exceeds the cores. A sweep of `n` workers on `n` cores therefore runs
//! no helper at all, where a lone convergence gets every spare core.
//!
//! The budget divides this process's share of the host
//! ([`std::thread::available_parallelism`], which honours affinity
//! masks and cgroup quotas); other processes are not its business.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A count of busy threads against a number of cores.
#[derive(Debug)]
pub struct CoreBudget {
    cores: usize,
    /// Threads counted busy, spare cores held by helpers included. It
    /// publishes no other data, so every access is `Relaxed`.
    busy: AtomicUsize,
}

thread_local! {
    /// Whether a live [`Occupied`] guard already counts this thread.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

impl CoreBudget {
    /// A budget of `cores` cores (at least one) with nothing busy.
    pub(crate) const fn new(cores: usize) -> CoreBudget {
        let cores = if cores == 0 { 1 } else { cores };
        CoreBudget { cores, busy: AtomicUsize::new(0) }
    }

    /// The process-wide budget: the cores this process may use.
    pub fn process() -> &'static CoreBudget {
        static PROCESS: OnceLock<CoreBudget> = OnceLock::new();
        PROCESS.get_or_init(|| {
            CoreBudget::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
        })
    }

    /// The number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Threads counted busy right now.
    fn busy(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }

    /// Counts the calling thread, and `threads − 1` more that work for
    /// it, as busy until the guard drops. A thread an enclosing guard
    /// already counts is not counted again, so a sweep worker that
    /// converges a one-shard network counts once. Never refuses: the
    /// work runs whether or not a core is free.
    pub fn occupy(&self, threads: usize) -> Occupied<'_> {
        let counts_caller = !COUNTED.replace(true);
        let threads = threads.max(1) - usize::from(!counts_caller);
        self.busy.fetch_add(threads, Ordering::Relaxed);
        Occupied { budget: self, threads, counts_caller, _this_thread: PhantomData }
    }

    /// One core no counted thread uses, held until the guard drops;
    /// `None` when every core is counted.
    pub(crate) fn take_spare(&self) -> Option<Spare<'_>> {
        self.busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                (busy < self.cores).then_some(busy + 1)
            })
            .ok()
            .map(|_| Spare(self))
    }

    /// Whether more threads are counted than there are cores: a helper
    /// holding a spare core then gives it back.
    pub(crate) fn oversubscribed(&self) -> bool {
        self.busy() > self.cores
    }
}

/// Threads counted busy by [`CoreBudget::occupy`] until dropped. It
/// stays on the thread that made it, whose count it clears on drop.
#[must_use = "the threads count as busy only while the guard lives"]
#[derive(Debug)]
pub struct Occupied<'a> {
    budget: &'a CoreBudget,
    threads: usize,
    counts_caller: bool,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for Occupied<'_> {
    fn drop(&mut self) {
        self.budget.busy.fetch_sub(self.threads, Ordering::Relaxed);
        if self.counts_caller {
            COUNTED.set(false);
        }
    }
}

/// A spare core held by a helper thread ([`CoreBudget::take_spare`]).
#[derive(Debug)]
pub(crate) struct Spare<'a>(&'a CoreBudget);

impl Drop for Spare<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_guards_count_a_thread_once() {
        let budget = CoreBudget::new(4);
        let worker = budget.occupy(1);
        assert_eq!(budget.busy(), 1);
        {
            // A two-shard engine on an already counted thread adds one.
            let _engine = budget.occupy(2);
            assert_eq!(budget.busy(), 2);
        }
        assert_eq!(budget.busy(), 1);
        drop(worker);
        assert_eq!(budget.busy(), 0);
        // The thread is no longer counted, so a new guard counts it.
        let _again = budget.occupy(2);
        assert_eq!(budget.busy(), 2);
    }

    #[test]
    fn spares_are_what_the_count_leaves() {
        let budget = CoreBudget::new(2);
        let _engine = budget.occupy(1);
        let spare = budget.take_spare().expect("one core is free");
        assert!(budget.take_spare().is_none(), "both cores are counted");
        assert!(!budget.oversubscribed());
        // Another thread starts work: the helper's core is now wanted.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _worker = budget.occupy(1);
                assert!(budget.oversubscribed());
            });
        });
        assert!(!budget.oversubscribed());
        drop(spare);
        assert_eq!(budget.busy(), 1);
        assert!(CoreBudget::new(0).take_spare().is_some(), "a budget has at least one core");
    }
}
