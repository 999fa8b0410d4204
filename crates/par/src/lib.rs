//! # affinity-par
//!
//! A minimal work-stealing thread pool for the data-parallel hot paths of
//! the AFFINITY pipeline: the SYMEX pair-fitting phase and the batched MEC
//! measure sweeps. No external dependencies — `std::thread` plus the
//! workspace-local `parking_lot` shim.
//!
//! ## Scheduling model
//!
//! [`ThreadPool::parallel_for`] splits an index range `0..len` into one
//! contiguous block per *lane* (the calling thread is lane 0, each worker
//! thread is another lane). A lane pops small chunks off the **front** of
//! its own block; when its block is empty it **steals the back half** of
//! another lane's block and continues there. Both operations are a single
//! CAS on a packed `(start, end)` atomic, so an idle lane converges on the
//! busiest block without any locks in the steady state.
//!
//! ## The pivot-sharding invariant
//!
//! SYMEX and MEC shard their work **by pivot pair**: one parallel-for item
//! is one pivot group (every sequence pair anchored at that pivot). The
//! expensive per-pivot artifacts — the SYMEX+ pseudo-inverse, the MEC
//! β-matrix and α-vector — are therefore computed exactly once, by the one
//! lane that owns the group, and never cross a thread boundary. There is
//! no shared cache and no locking in the compute phase, and because every
//! item writes only its own pre-assigned output slots, results are merged
//! deterministically by index: the output is **bit-identical for any lane
//! count**, including 1.
//!
//! ```
//! use affinity_par::ThreadPool;
//!
//! let pool = ThreadPool::new(0); // 0 = available_parallelism
//! let squares = pool.parallel_map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use parking_lot::Mutex;
use std::any::Any;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Once};
use std::thread;

/// The number of lanes a `threads` knob resolves to: the value itself, or
/// [`std::thread::available_parallelism`] when it is `0` (the "auto"
/// setting every `threads` parameter in this workspace defaults to).
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// A pool of worker threads executing scoped data-parallel index loops.
///
/// The pool owns `lanes − 1` parked worker threads; the thread calling
/// [`parallel_for`](ThreadPool::parallel_for) acts as lane 0, so a pool
/// with one lane never spawns or synchronizes at all and runs the loop
/// inline — the `threads = 1` setting is exactly the serial code path.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Worker handles; spawned lazily by the first multi-lane job so
    /// engines that only ever run small/serial queries cost nothing.
    workers: StdMutex<Vec<thread::JoinHandle<()>>>,
    spawn_workers: Once,
    /// Serializes jobs: the pool broadcasts one job at a time, so
    /// concurrent submissions (the pool is `Sync` and lives inside `Sync`
    /// engines) queue here instead of clobbering each other's slot or
    /// draining each other's panic payloads. Poison-free so a panicking
    /// job does not wedge the pool.
    run_lock: Mutex<()>,
    lanes: usize,
}

/// Job broadcast slot + completion accounting, all guarded by one mutex.
struct Slot {
    /// Bumped once per published job so parked workers can tell a new job
    /// from a spurious wakeup.
    epoch: u64,
    /// The current job, type-erased; `None` once retired.
    job: Option<JobRef>,
    /// Lanes currently inside the job body.
    active: usize,
    /// Set once by `Drop` to terminate the workers.
    shutdown: bool,
}

struct Shared {
    slot: StdMutex<Slot>,
    /// Workers park here waiting for a new epoch.
    work_cv: Condvar,
    /// The caller parks here waiting for `active` to drain.
    done_cv: Condvar,
    /// First panic payload observed in a worker lane.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Type-erased pointer to the caller-stack job closure. Only dereferenced
/// by lanes registered in `Slot::active`, which the publishing caller
/// drains before returning — see the safety argument in `run_job`.
#[derive(Copy, Clone)]
struct JobRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is Sync (shared-called from many lanes) and the
// pointer itself is only a capability to call it; see `run_job`.
unsafe impl Send for JobRef {}

thread_local! {
    /// Set while this thread is executing a pool job body; reentrant
    /// pool calls check it and fall back to inline execution.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII flag for [`IN_POOL_JOB`]: restores the previous value even when
/// the job body panics.
struct JobScope {
    prev: bool,
}

impl JobScope {
    fn enter() -> Self {
        JobScope {
            prev: IN_POOL_JOB.with(|in_job| in_job.replace(true)),
        }
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL_JOB.with(|in_job| in_job.set(prev));
    }
}

impl ThreadPool {
    /// Create a pool with the given lane count; `0` means
    /// [`std::thread::available_parallelism`]. Worker threads are not
    /// spawned until the first job that can use them, so constructing a
    /// pool (e.g. inside every `MecEngine`) is essentially free.
    pub fn new(threads: usize) -> Self {
        let lanes = resolve_threads(threads).max(1);
        let shared = Arc::new(Shared {
            slot: StdMutex::new(Slot {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        ThreadPool {
            shared,
            workers: StdMutex::new(Vec::new()),
            spawn_workers: Once::new(),
            run_lock: Mutex::new(()),
            lanes,
        }
    }

    /// Spawn the `lanes − 1` worker threads on first use.
    fn ensure_workers(&self) {
        self.spawn_workers.call_once(|| {
            let handles: Vec<_> = (1..self.lanes)
                .map(|lane| {
                    let shared = Arc::clone(&self.shared);
                    thread::Builder::new()
                        .name(format!("affinity-par-{lane}"))
                        .spawn(move || worker_loop(&shared, lane))
                        .expect("spawn pool worker")
                })
                .collect();
            *self.workers.lock().expect("pool mutex") = handles;
        });
    }

    /// Number of lanes (calling thread included).
    pub fn threads(&self) -> usize {
        self.lanes
    }

    /// Run `f(lane)` exactly once on every lane — the caller is lane 0 —
    /// with no work stealing, returning when the last lane finishes. A
    /// panic in `f` is propagated like
    /// [`parallel_for`](ThreadPool::parallel_for)'s.
    ///
    /// This is the broadcast primitive for long-running cooperative lane
    /// loops (a server's worker lanes draining a queue until shutdown):
    /// unlike `parallel_for`, a lane owns its index for the job's whole
    /// lifetime, so no lane can end up running two loops back to back.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.lanes == 1 || IN_POOL_JOB.with(|in_job| in_job.get()) {
            f(0);
            return;
        }
        // Lane 0 holds the job published until every lane has taken it;
        // otherwise a fast caller body could retire the job before a
        // freshly woken worker ever sees the epoch.
        let started = AtomicU64::new(0);
        let lanes = self.lanes as u64;
        self.run_job(&|lane| {
            started.fetch_add(1, Ordering::AcqRel);
            f(lane);
            if lane == 0 {
                while started.load(Ordering::Acquire) < lanes {
                    thread::yield_now();
                }
            }
        });
    }

    /// Run `f(i)` for every `i in 0..len`, work-stealing across lanes.
    ///
    /// Every index is executed exactly once; the call returns after the
    /// last index finished. A panic in `f` is propagated to the caller
    /// (after all lanes have quiesced), like a serial loop would.
    pub fn parallel_for<F>(&self, len: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        assert!(
            len <= u32::MAX as usize,
            "parallel_for supports at most u32::MAX items"
        );
        if len == 0 {
            return;
        }
        let lanes = self.lanes.min(len);
        // Reentrant calls (a job body invoking the pool again, from any
        // lane) run inline: lane 0 would self-deadlock on run_lock and a
        // worker lane would wait on its own quiescence. Inline execution
        // is semantically identical — the outer job already owns the
        // parallelism.
        if lanes == 1 || IN_POOL_JOB.with(|in_job| in_job.get()) {
            // Inline serial path: identical semantics, zero synchronization.
            for i in 0..len {
                f(i);
            }
            return;
        }
        // One packed (start, end) block per lane.
        let blocks: Vec<AtomicU64> = (0..lanes)
            .map(|t| {
                let start = len * t / lanes;
                let end = len * (t + 1) / lanes;
                AtomicU64::new(pack(start as u32, end as u32))
            })
            .collect();
        let runner = |lane: usize| {
            if lane >= lanes {
                return; // more lanes than items: nothing assigned
            }
            loop {
                if let Some((s, e)) = pop_front(&blocks[lane], GRAIN) {
                    for i in s..e {
                        f(i as usize);
                    }
                    continue;
                }
                // Own block empty: steal the back half of a victim's block
                // and install it as our own.
                match steal(&blocks, lane) {
                    Some(range) => blocks[lane].store(range, Ordering::Release),
                    None => break,
                }
            }
        };
        self.run_job(&runner);
    }

    /// Run `f(i)` for every `i in 0..len` and collect the results in index
    /// order — the deterministic-merge primitive: the output order never
    /// depends on the execution schedule.
    pub fn parallel_map<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
        // SAFETY: MaybeUninit needs no initialization; every slot is
        // written below before the transmute.
        unsafe { out.set_len(len) };
        {
            let writer = DisjointWriter::new(&mut out);
            // SAFETY: each index is executed exactly once by parallel_for,
            // so each slot is written exactly once, without overlap.
            self.parallel_for(len, |i| unsafe {
                writer.write(i, MaybeUninit::new(f(i)));
            });
            // (On panic, `out` drops as Vec<MaybeUninit<T>>: initialized
            // elements leak, which is safe.)
        }
        // SAFETY: all len slots are initialized; MaybeUninit<T> has the
        // same layout as T.
        unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), len, out.capacity())
        }
    }

    /// Publish `runner` to all lanes, run lane 0 inline, and wait for the
    /// workers to quiesce.
    fn run_job(&self, runner: &(dyn Fn(usize) + Sync)) {
        // Erase the borrow lifetime. SAFETY: the pointer is dereferenced
        // only by lanes counted in `Slot::active`; a lane registers while
        // the job is still published and deregisters when done, and this
        // function retires the job and blocks until `active == 0` before
        // returning — so no lane can touch `runner` (or anything it
        // borrows from this stack frame) after we return.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                runner,
            )
        };
        let job = JobRef(erased);
        // One broadcast job at a time; a concurrent caller blocks here
        // until the current job fully quiesces (correct, just serialized).
        let _serialize = self.run_lock.lock();
        self.ensure_workers();
        {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            slot.epoch += 1;
            slot.job = Some(job);
            self.shared.work_cv.notify_all();
        }
        // Lane 0 is the caller. Catch a panic so we still quiesce the
        // workers before unwinding past the borrowed state.
        let caller_panic = catch_unwind(AssertUnwindSafe(|| {
            let _scope = JobScope::enter();
            runner(0)
        }))
        .err();
        {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            slot.job = None; // late wakers skip this epoch
            while slot.active > 0 {
                slot = self.shared.done_cv.wait(slot).expect("pool condvar");
            }
        }
        // Drain any worker payload unconditionally so a panic in this job
        // can never leak into (and spuriously fail) a later clean job.
        let worker_panic = self.shared.panic.lock().take();
        if let Some(payload) = caller_panic {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        let workers = std::mem::take(self.workers.get_mut().expect("pool mutex"));
        for w in workers {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("lanes", &self.lanes)
            .finish()
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("pool mutex");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen {
                    seen = slot.epoch;
                    if let Some(job) = slot.job {
                        // Register while the job is still published: the
                        // caller cannot return before we deregister.
                        slot.active += 1;
                        break job;
                    }
                    // Job already retired — wait for the next epoch.
                }
                slot = shared.work_cv.wait(slot).expect("pool condvar");
            }
        };
        // SAFETY: see `run_job` — we are counted in `active`.
        let runner = unsafe { &*job.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            let _scope = JobScope::enter();
            runner(lane)
        })) {
            let mut first = shared.panic.lock();
            first.get_or_insert(payload);
        }
        let mut slot = shared.slot.lock().expect("pool mutex");
        slot.active -= 1;
        if slot.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Chunk size a lane pops off the front of its own block. Items in this
/// workspace are chunky (a whole pivot group, a full least-squares fit),
/// so a small grain keeps the load balanced without measurable CAS cost.
const GRAIN: u32 = 1;

#[inline]
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Pop up to `grain` items off the front of a block.
fn pop_front(block: &AtomicU64, grain: u32) -> Option<(u32, u32)> {
    let mut cur = block.load(Ordering::Acquire);
    loop {
        let (s, e) = unpack(cur);
        if s >= e {
            return None;
        }
        let ns = e.min(s + grain);
        match block.compare_exchange_weak(cur, pack(ns, e), Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some((s, ns)),
            Err(now) => cur = now,
        }
    }
}

/// Steal the back half of the fullest victim block; returns the stolen
/// range still packed, ready to install as the thief's own block.
fn steal(blocks: &[AtomicU64], thief: usize) -> Option<u64> {
    let lanes = blocks.len();
    loop {
        // Pick the victim with the most remaining work (racy read is fine;
        // the CAS below revalidates).
        let mut best: Option<(usize, u64, u32)> = None;
        for off in 1..lanes {
            let v = (thief + off) % lanes;
            let cur = blocks[v].load(Ordering::Acquire);
            let (s, e) = unpack(cur);
            let remaining = e.saturating_sub(s);
            if remaining > 0 && best.is_none_or(|(_, _, r)| remaining > r) {
                best = Some((v, cur, remaining));
            }
        }
        let (victim, cur, _) = best?;
        let (s, e) = unpack(cur);
        // Round the victim's share down so every successful steal moves
        // at least one item: a lane that died in a panicking job never
        // pops its block again, so its last item must be stealable.
        let mid = s + (e - s) / 2;
        if blocks[victim]
            .compare_exchange(cur, pack(s, mid), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return Some(pack(mid, e));
        }
        // Lost the race — rescan.
    }
}

/// Shared-writable view over a slice for provably disjoint index writes —
/// the scatter half of a deterministic merge (each parallel item owns a
/// distinct set of output slots).
pub struct DisjointWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: writes are the caller's responsibility (see `write`); the
// wrapper itself only carries the pointer across lanes.
unsafe impl<T: Send> Send for DisjointWriter<'_, T> {}
// SAFETY: same invariant as Send — `write` requires every lane to
// target disjoint indices, so shared references never race on a slot.
unsafe impl<T: Send> Sync for DisjointWriter<'_, T> {}

impl<'a, T> DisjointWriter<'a, T> {
    /// Wrap a mutable slice; the borrow keeps the slice alive and
    /// exclusive for the writer's lifetime.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the slice has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Overwrite slot `i`.
    ///
    /// # Safety
    /// No two concurrent calls may target the same `i`, and the previous
    /// value is overwritten without being dropped (use only with `Copy`
    /// payloads or slots known to be uninitialized/trivial).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub unsafe fn write(&self, i: usize, value: T) {
        assert!(i < self.len, "DisjointWriter: index out of bounds");
        self.ptr.add(i).write(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn resolve_threads_auto_is_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let pool = ThreadPool::new(4);
        let out = pool.parallel_map(257, |i| i * 3);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn map_results_are_identical_across_lane_counts() {
        let serial = ThreadPool::new(1).parallel_map(500, |i| (i as f64).sqrt().sin());
        for threads in [2, 3, 8] {
            let par = ThreadPool::new(threads).parallel_map(500, |i| (i as f64).sqrt().sin());
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn skewed_work_is_stolen() {
        // Front-loaded work: lane 0 owns the heavy prefix; with stealing
        // the loop still terminates quickly and covers everything.
        let pool = ThreadPool::new(4);
        let done = AtomicUsize::new(0);
        pool.parallel_for(64, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let pool = ThreadPool::new(8);
        pool.parallel_for(0, |_| panic!("must not run"));
        let out = pool.parallel_map(3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::new(4);
        for round in 0..20 {
            let sum = AtomicUsize::new(0);
            pool.parallel_for(100, |i| {
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950 + 100 * round);
        }
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(32, |i| {
                if i == 17 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked job.
        let out = pool.parallel_map(4, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn a_panicking_lane_does_not_strand_its_last_item() {
        // Lane 1 owns items 8..16 and panics on the first. The other
        // lanes must steal all of 9..16, down to a one-item block, and the
        // panic must reach the caller. The job runs on a thread that is
        // never joined, so a hang fails the timeout instead of blocking.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = ThreadPool::new(4);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_for(32, |i| {
                    if i == 8 {
                        panic!("boom");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            }));
            let _ = tx.send(result.is_err());
        });
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(20)),
            Ok(true),
            "parallel_for must propagate the panic, not hang"
        );
    }

    #[test]
    fn reentrant_calls_run_inline_instead_of_deadlocking() {
        let pool = ThreadPool::new(4);
        let inner_sums = pool.parallel_map(8, |i| {
            // A job body using the pool again must not deadlock.
            pool.parallel_map(4, |j| i * 10 + j).iter().sum::<usize>()
        });
        for (i, s) in inner_sums.iter().enumerate() {
            assert_eq!(*s, 4 * (i * 10) + 6);
        }
    }

    #[test]
    fn concurrent_submissions_serialize_correctly() {
        let pool = ThreadPool::new(4);
        let totals: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        thread::scope(|s| {
            for (job, total) in totals.iter().enumerate() {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..10 {
                        pool.parallel_for(200, |i| {
                            total.fetch_add(i + job, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(totals[0].load(Ordering::Relaxed), 10 * 19900);
        assert_eq!(totals[1].load(Ordering::Relaxed), 10 * (19900 + 200));
    }

    #[test]
    fn stale_worker_panic_does_not_poison_the_next_job() {
        // Every index panics, so the caller lane AND worker lanes all
        // record payloads; the caller's is rethrown, the workers' must be
        // drained — a later clean job on the same pool must succeed.
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, |_| panic!("boom"));
        }));
        assert!(result.is_err());
        for _ in 0..3 {
            let out = pool.parallel_map(16, |i| i);
            assert_eq!(out, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_spawn_lazily() {
        let pool = ThreadPool::new(4);
        assert!(pool.workers.lock().unwrap().is_empty());
        pool.parallel_for(2, |_| {});
        // min(lanes, len) == 2 lanes used, but all workers spawn together
        // on first multi-lane use.
        assert_eq!(pool.workers.lock().unwrap().len(), 3);
        // Serial pools never spawn.
        let serial = ThreadPool::new(1);
        serial.parallel_for(100, |_| {});
        assert!(serial.workers.lock().unwrap().is_empty());
    }

    #[test]
    fn threads_reports_lanes() {
        assert_eq!(ThreadPool::new(5).threads(), 5);
        assert!(ThreadPool::new(0).threads() >= 1);
    }

    #[test]
    fn broadcast_runs_each_lane_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(|lane| {
            hits[lane].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
        // Serial pools run the caller lane inline.
        let serial = ThreadPool::new(1);
        let count = AtomicUsize::new(0);
        serial.broadcast(|lane| {
            assert_eq!(lane, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
