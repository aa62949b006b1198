//! A dependency-free worker pool for the operator-compilation pipeline.
//!
//! Two executors share the same dynamic work-stealing idiom (a shared
//! `Mutex<VecDeque>` of jobs that idle workers pull from):
//!
//! * [`parallel_map`] — the scoped batch map introduced for the Table II
//!   pipeline (PR 1): maps a function over a slice on `n` threads and
//!   returns results in input order;
//! * [`WorkerPool`] — a persistent pool of the same shape for long-lived
//!   services (the `polyjectd` daemon): jobs are submitted one at a time,
//!   workers live until [`WorkerPool::shutdown`].
//!
//! This module used to live in `crates/bench/src/par.rs`;
//! `polyject-bench` re-exports it unchanged.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The number of workers to use by default: the machine's available
/// parallelism (1 if it cannot be determined).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on `workers` threads, returning results in input
/// order. With `workers <= 1` (or at most one item) this degenerates to a
/// plain serial map on the calling thread — no threads are spawned, so
/// thread-local state (e.g. solver counters) behaves exactly as in fully
/// serial code.
///
/// Jobs are distributed dynamically: each worker repeatedly pops the next
/// unclaimed index from a shared queue, so long-running items don't
/// serialize behind a static partition.
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated once all
/// workers have stopped).
///
/// # Examples
///
/// ```
/// let squares = polyject_serve::parallel_map(&[1u64, 2, 3, 4], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..items.len()).collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop_front();
                let Some(idx) = next else { break };
                let r = f(&items[idx]);
                results.lock().expect("results poisoned")[idx] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("every job ran to completion"))
        .collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    closing: AtomicBool,
    panics: AtomicU64,
    replacements: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// One worker's pull-run loop. A job that panics poisons the worker:
/// the panic is caught (so the daemon survives), counted, and the
/// poisoned thread is *replaced* by a freshly spawned one rather than
/// reused — thread-local state a mid-panic job left behind (solver
/// counters, caches) dies with the thread.
fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let mut q = shared.queue.lock().expect("pool queue poisoned");
        let job = loop {
            if let Some(job) = q.pop_front() {
                break Some(job);
            }
            if shared.closing.load(Ordering::SeqCst) {
                break None;
            }
            q = shared.available.wait(q).expect("pool queue poisoned");
        };
        drop(q);
        let Some(job) = job else { return };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::SeqCst);
            polyject_sets::counters::note_panic_recovered(1);
            if !shared.closing.load(Ordering::SeqCst) {
                let respawn = Arc::clone(&shared);
                let handle = std::thread::spawn(move || worker_loop(respawn));
                shared
                    .replacements
                    .lock()
                    .expect("pool replacements poisoned")
                    .push(handle);
            }
            return; // this worker is poisoned; its replacement took over
        }
    }
}

/// A persistent worker pool: `workers` threads pulling boxed jobs from a
/// shared queue, living until [`WorkerPool::shutdown`] (or drop). The
/// daemon dispatches compile requests here and bounds them itself, by
/// counting the requests it admits; the queue has no bound of its own.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = polyject_serve::WorkerPool::new(2);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..8 {
///     let hits = hits.clone();
///     pool.submit(move || {
///         hits.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// pool.shutdown();
/// assert_eq!(hits.load(Ordering::SeqCst), 8);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            closing: AtomicBool::new(false),
            panics: AtomicU64::new(0),
            replacements: Mutex::new(Vec::new()),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Enqueues a job. Jobs submitted after [`WorkerPool::shutdown`]
    /// began are silently dropped.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        if self.shared.closing.load(Ordering::SeqCst) {
            return;
        }
        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .push_back(Box::new(job));
        self.shared.available.notify_one();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs that panicked and were recovered (each one also replaced its
    /// poisoned worker thread).
    pub fn panics_recovered(&self) -> u64 {
        self.shared.panics.load(Ordering::SeqCst)
    }

    /// Drains the queue (already-submitted jobs still run), then joins
    /// every worker.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Replacement workers spawned after panics are tracked in the
        // shared state; drain until none remain (a replacement can itself
        // panic and spawn another while we join).
        loop {
            let next = self
                .shared
                .replacements
                .lock()
                .expect("pool replacements poisoned")
                .pop();
            match next {
                Some(h) => {
                    self.shared.available.notify_all();
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_fallback_matches() {
        let items: Vec<u32> = (0..17).collect();
        assert_eq!(
            parallel_map(&items, 1, |x| x + 1),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn order_is_stable_under_parallelism() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [2, 3, 8, 200] {
            let out = parallel_map(&items, workers, |&x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map(&items, 4, |&x| {
            calls.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(calls.load(Ordering::SeqCst), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = parallel_map(&[] as &[u8], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_exceeding_items_is_clamped() {
        let out = parallel_map(&[5u8, 6], 64, |&x| x as u32);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn persistent_pool_runs_all_jobs() {
        let pool = WorkerPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = done.clone();
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn panicking_jobs_are_recovered_and_workers_replaced() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let done = done.clone();
            pool.submit(move || {
                assert!(i % 5 != 0, "boom {i}");
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Every non-panicking job still completes: panics poison single
        // workers, not the pool.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while (done.load(Ordering::SeqCst) < 16 || pool.panics_recovered() < 4)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 16);
        assert_eq!(pool.panics_recovered(), 4);
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn persistent_pool_drop_joins() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..10 {
                let done = done.clone();
                pool.submit(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }
}
