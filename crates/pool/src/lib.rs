//! The shared work pool: one set of persistent workers for every
//! parallel loop and every background job in the process.
//!
//! GA fitness evaluation, distance-matrix construction, per-target
//! pipeline evaluation and snippet replay all reduce to the same shape —
//! *map a pure function over an index range* — and the serve daemon
//! runs each request as a `'static` job. Both kinds of work run on the
//! same workers instead of each spawning raw threads.
//!
//! # Design
//!
//! [`WorkPool`] is a cheap handle holding only a thread count. The
//! workers behind it are process-wide: spawned on first parallel use,
//! grown to the largest thread count any handle asks for, and never
//! torn down. Idle workers sleep on one mutex + condvar queue that
//! carries two kinds of work:
//!
//! * **Maps.** [`WorkPool::map_indexed`] publishes the call as one
//!   shared atomic chunk cursor and asks up to `threads − 1` idle
//!   workers to help; the calling thread drains the cursor itself
//!   meanwhile, and claiming a chunk is one `fetch_add`. Once the cursor
//!   is spent the caller closes the map and waits on a latch, but only
//!   for the helpers that entered before it closed, so a map completes
//!   even when every worker is busy, and maps nest freely. Because that
//!   wait happens before the call returns (or unwinds), the mapped
//!   closure may borrow from the caller's stack.
//! * **Jobs.** [`WorkPool::submit`] queues a `'static` closure, run in
//!   FIFO order behind any calls to help a map.
//!
//! # Determinism contract
//!
//! Every result is written to the slot of its *index*, never to a
//! position dependent on scheduling, and the mapped function is required
//! to be pure (same index ⇒ same value). Under that contract the output
//! of [`WorkPool::map_indexed`] is **bitwise identical** for every thread
//! count, including the inline serial path — the property the determinism
//! test suite in `tests/properties.rs` enforces end-to-end.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod memo;

pub use memo::MemoCache;

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A handle onto the process-wide workers.
///
/// The handle holds only a thread count: how many threads, the caller
/// included, one map may use, and how many workers must exist before a
/// job is queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkPool {
    threads: usize,
}

/// Target number of chunks per participating thread: enough slack for
/// the shared cursor to even out imbalance, few enough to keep claim
/// overhead negligible.
const CHUNKS_PER_WORKER: usize = 8;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a worker takes off the queue.
enum Work {
    /// A submitted job and its enqueue time.
    Job(Job, Instant),
    /// A call to help with a map as helper number `seat`.
    Help(Arc<Map>, usize),
}

/// The queue every worker sleeps on, and the condvar that wakes them.
static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    work: VecDeque::new(),
    workers: 0,
    idle: 0,
    waking: false,
});
static WORK: Condvar = Condvar::new();

struct Queue {
    /// Calls to help a map at the front, jobs behind them in FIFO order.
    work: VecDeque<Work>,
    /// Workers spawned so far.
    workers: usize,
    /// Workers asleep on [`WORK`].
    idle: usize,
    /// A worker has been woken and has not taken the lock yet.
    waking: bool,
}

impl Queue {
    /// Spawn workers until there are at least `want`; returns how many
    /// were spawned. A new worker looks at the queue before it first
    /// sleeps, so it is as free to take work as an idle one.
    fn grow(&mut self, want: usize) -> usize {
        let before = self.workers;
        while self.workers < want {
            std::thread::Builder::new()
                .name(format!("fgbs-pool-{}", self.workers))
                .spawn(worker_loop)
                .expect("spawn pool worker");
            self.workers += 1;
        }
        self.workers - before
    }

    /// Wake a sleeping worker for newly queued work, unless one is
    /// already on its way. Wake-ups travel one at a time: the woken
    /// worker passes one on while work remains. Waking a sleeper per
    /// queued item instead floods the CPUs with workers that arrive
    /// after the work is gone.
    fn wake_one(&mut self) {
        if self.idle > 0 && !self.waking {
            self.waking = true;
            WORK.notify_one();
        }
    }
}

/// Lock ignoring poison: every update made under these locks leaves
/// the data valid, and a poisoned lock must not take the process-wide
/// workers down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop() {
    let mut queue = lock(&QUEUE);
    loop {
        let Some(work) = queue.work.pop_front() else {
            queue.idle += 1;
            queue = WORK.wait(queue).unwrap_or_else(PoisonError::into_inner);
            queue.idle -= 1;
            queue.waking = false;
            continue;
        };
        if !queue.work.is_empty() {
            queue.wake_one();
        }
        drop(queue);
        match work {
            Work::Job(job, queued) => run_job(job, queued),
            Work::Help(map, seat) => map.help(seat),
        }
        queue = lock(&QUEUE);
    }
}

fn run_job(job: Job, queued: Instant) {
    let started = Instant::now();
    // Chaos failpoint: a `delay` rule simulates a slow worker (queue
    // buildup, deadline pressure) without touching the job itself.
    fgbs_fault::maybe_delay("exec.job");
    // A panicking job must not take a shared worker down with it; the
    // panic hook has already reported it.
    let _ = panic::catch_unwind(AssertUnwindSafe(job));
    if fgbs_trace::enabled() {
        fgbs_trace::counter("exec.jobs", 1);
        fgbs_trace::stat(
            "exec.wait_us",
            started.duration_since(queued).as_micros() as u64,
        );
        fgbs_trace::stat("exec.run_us", started.elapsed().as_micros() as u64);
        // Workers are long-lived: publish the job's spans now so
        // `/trace` snapshots see completed requests.
        fgbs_trace::flush();
    }
}

/// One published [`WorkPool::map_indexed`] call.
struct Map {
    /// Runs `f(i)` and stores its result in slot `i`. Really borrowed
    /// from the caller's frame: see `WorkPool::run_indexed`.
    body: &'static (dyn Fn(usize) + Sync),
    n: usize,
    chunk: usize,
    /// Start of the next unclaimed chunk.
    cursor: AtomicUsize,
    /// The caller's open span and request id, re-entered by helpers so
    /// their spans and events graft where they would have run inline.
    span_parent: Option<u64>,
    request_id: u64,
    published: Instant,
    seats: Mutex<Seats>,
    /// Signalled when the last helper inside a closed map leaves.
    left: Condvar,
}

#[derive(Default)]
struct Seats {
    /// The caller has finished draining: no helper may enter any more,
    /// and the caller may be waiting on `left`.
    closed: bool,
    /// Helpers inside now: the latch the caller waits on.
    inside: usize,
    /// The first panic raised by `f` on a helper.
    panic: Option<Box<dyn Any + Send>>,
}

impl Map {
    /// Claim and run chunks until the cursor passes the end. Returns
    /// the nanoseconds spent running chunks (timed only while tracing)
    /// and the number of chunks run.
    fn drain(&self) -> (u64, u64) {
        let timed = fgbs_trace::enabled();
        let (mut run_ns, mut chunks) = (0, 0);
        loop {
            // Relaxed: a claim publishes nothing. Results reach the caller
            // through the `seats` mutex every helper takes on leaving.
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return (run_ns, chunks);
            }
            let t0 = timed.then(Instant::now);
            for i in start..(start + self.chunk).min(self.n) {
                (self.body)(i);
            }
            if let Some(t0) = t0 {
                run_ns += t0.elapsed().as_nanos() as u64;
            }
            chunks += 1;
        }
    }

    /// Enter as helper number `seat`, unless the caller has closed the
    /// map or no chunks remain; drain; leave. A panic in `f` is kept for
    /// the caller to re-raise and stops further claims.
    fn help(&self, seat: usize) {
        {
            let mut seats = lock(&self.seats);
            if seats.closed || self.cursor.load(Ordering::Relaxed) >= self.n {
                return;
            }
            seats.inside += 1;
        }
        let panicked = {
            let _trace = fgbs_trace::inherit_parent(self.span_parent);
            let _request = fgbs_trace::enter_request(self.request_id);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| self.drain()));
            // `_trace` drops at the end of this block and flushes this
            // worker's span buffer, so the caller sees the spans as soon
            // as the latch opens.
            outcome.map(|run| self.record(seat, run)).err()
        };
        let mut seats = lock(&self.seats);
        if let Some(payload) = panicked {
            self.cursor.fetch_max(self.n, Ordering::Relaxed);
            seats.panic.get_or_insert(payload);
        }
        seats.inside -= 1;
        if seats.inside == 0 && seats.closed {
            self.left.notify_one();
        }
    }

    /// Per-participant stats: time running chunks, and the rest of the
    /// time since the map was published (entry latency, claims, and for
    /// the caller the wait on the latch).
    fn record(&self, seat: usize, (run_ns, chunks): (u64, u64)) {
        if fgbs_trace::enabled() {
            let total_ns = self.published.elapsed().as_nanos() as u64;
            fgbs_trace::stat(&format!("pool.w{seat}.run_us"), run_ns / 1_000);
            fgbs_trace::stat(
                &format!("pool.w{seat}.wait_us"),
                total_ns.saturating_sub(run_ns) / 1_000,
            );
            fgbs_trace::stat(&format!("pool.w{seat}.chunks"), chunks);
        }
    }
}

/// The caller's side of a published map. Dropping it — on return or
/// while unwinding out of `f` — closes the map and waits for every
/// helper inside to leave, so nothing can call the borrowed body after
/// the caller's frame is gone.
struct Join<'a>(&'a Map);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let map = self.0;
        // A no-op after a full drain; when unwinding it stops helpers
        // from claiming further chunks.
        map.cursor.fetch_max(map.n, Ordering::Relaxed);
        let mut seats = lock(&map.seats);
        seats.closed = true;
        while seats.inside > 0 {
            seats = map.left.wait(seats).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Result slots written by index from several threads.
struct Slots<R>(*mut Option<R>);

// SAFETY: `Slots` only moves `R` values into distinct slots (see
// `put`), which needs `R: Send` and nothing else.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    /// # Safety
    ///
    /// `i` must be in bounds, no two calls may share an `i`, and the
    /// slots must not be read or moved until every call has returned.
    unsafe fn put(&self, i: usize, value: R) {
        *self.0.add(i) = Some(value);
    }
}

impl WorkPool {
    /// A pool running on `threads` workers. `0` selects the machine's
    /// available parallelism.
    pub fn new(threads: usize) -> WorkPool {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        WorkPool { threads }
    }

    /// A single-threaded pool: every map runs inline on the caller.
    pub fn serial() -> WorkPool {
        WorkPool { threads: 1 }
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `0..n`, returning results in index order.
    ///
    /// `f` must be pure: the determinism contract (identical output for
    /// every thread count) holds only when `f(i)` depends on `i` alone.
    /// A panic in `f`, on any thread, is re-raised here once every
    /// helper has left the map.
    ///
    /// Every call records a `pool.map` trace span; spans recorded inside
    /// `f` on worker threads inherit it as their parent, so the logical
    /// span tree is the same whether the map runs inline or fanned out.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut map_span = fgbs_trace::span("pool.map");
        map_span.arg_u64("items", n as u64);
        fgbs_trace::counter("pool.maps", 1);
        fgbs_trace::counter("pool.items", n as u64);
        // Chaos failpoint at the fan-out boundary: a `delay` rule here
        // stalls the whole map (e.g. to force a request deadline to
        // expire) without perturbing the per-item work or its ordering.
        fgbs_fault::maybe_delay("pool.map");

        self.run_indexed(n, f)
    }

    /// [`WorkPool::map_indexed`] without the `pool.map` span, counters
    /// or failpoint: the scheduling and determinism contract are the
    /// same, but the digested trace content (span tree + counters) is
    /// untouched. For inner loops whose callers
    /// own the trace shape — e.g. a path that pools only above one
    /// thread must not let the branch leak into the span tree, which is
    /// required to be identical at every thread count.
    fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let threads = self.threads.min(n);
        if threads <= 1 {
            return (0..n).map(f).collect();
        }
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let slots = Slots(out.as_mut_ptr());
        let body = |i: usize| {
            let value = f(i);
            // SAFETY: the cursor hands every index in `0..n` to exactly
            // one participant, and `out` is left alone until `Join` has
            // seen every helper leave.
            unsafe { slots.put(i, value) }
        };
        let body: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: only the lifetime is erased. A helper calls `body` only
        // between entering the map, which it does under the `seats` lock
        // while the map is open, and leaving it. `Join` closes the map
        // under that lock and then waits for every helper inside to
        // leave, before this frame returns or unwinds past `body`. A
        // late `Work::Help` may still hold the `Map` after that, but it
        // finds the map closed and never calls `body`.
        let body = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let map = Arc::new(Map {
            body,
            n,
            chunk: chunk_size(n, threads),
            cursor: AtomicUsize::new(0),
            span_parent: fgbs_trace::current_span_id(),
            request_id: fgbs_trace::current_request_id(),
            published: Instant::now(),
            seats: Mutex::default(),
            left: Condvar::new(),
        });
        // Ask only sleeping (or just spawned) workers that no queued work
        // has claimed: a busy one would arrive after the caller has
        // drained the map.
        {
            let mut queue = lock(&QUEUE);
            let free = queue.idle + queue.grow(self.threads);
            let helpers = free.saturating_sub(queue.work.len()).min(threads - 1);
            for seat in (1..=helpers).rev() {
                queue.work.push_front(Work::Help(Arc::clone(&map), seat));
            }
            if helpers > 0 {
                queue.wake_one();
            }
        }
        let join = Join(&map);
        let run = map.drain();
        drop(join);
        map.record(0, run);
        if let Some(payload) = lock(&map.seats).panic.take() {
            panic::resume_unwind(payload);
        }
        out.into_iter()
            .map(|r| r.expect("every index was run"))
            .collect()
    }

    /// Run `f` for every index in `0..n`, for side effects (e.g. tile
    /// reductions into disjoint spans of one shared buffer).
    ///
    /// Same scheduling and determinism contract as
    /// [`WorkPool::map_indexed`]: every index runs exactly once, and
    /// when `f(i)`'s effect is a pure function of `i` the combined
    /// effect is identical at every thread count.
    pub fn for_each_indexed<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let _ = self.map_indexed(n, &f);
    }

    /// [`WorkPool::for_each_indexed`] without the `pool.map` span,
    /// counters or failpoint (see [`WorkPool::run_indexed`]).
    pub fn for_each_indexed_untraced<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let _ = self.run_indexed(n, &f);
    }

    /// Map `f` over a slice, returning results in item order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_indexed(items.len(), |i| f(i, &items[i]))
    }

    /// Queue `job` to run on a worker, after every job submitted before
    /// it has been taken. Returns at once; results travel back through
    /// whatever the job captures (a channel, a shared queue). First
    /// makes sure at least [`WorkPool::threads`] workers exist.
    ///
    /// Each job passes the `exec.job` failpoint and records the
    /// `exec.jobs` counter and the `exec.wait_us` / `exec.run_us` stats.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = lock(&QUEUE);
        queue.grow(self.threads);
        queue
            .work
            .push_back(Work::Job(Box::new(job), Instant::now()));
        queue.wake_one();
    }
}

impl Default for WorkPool {
    fn default() -> Self {
        WorkPool::new(0)
    }
}

/// Chunk size giving each participant several chunks to claim.
fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * CHUNKS_PER_WORKER).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Barrier};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    const PATIENCE: Duration = Duration::from_secs(30);

    #[test]
    fn map_preserves_index_order() {
        let pool = WorkPool::new(4);
        let out = pool.map_indexed(1000, |i| i * i);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let reference: Vec<u64> = (0..511u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        for threads in [1, 2, 3, 8, 16] {
            let pool = WorkPool::new(threads);
            let got = pool.map_indexed(511, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkPool::new(8);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        pool.map_indexed(257, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn unbalanced_work_is_shared() {
        // Front-loaded cost: the heavy items all sit in the first chunks,
        // so whoever claims them is busy while the others drain the rest
        // of the shared cursor; the result must still be complete and in
        // index order.
        let pool = WorkPool::new(4);
        let out = pool.map_indexed(64, |i| {
            if i < 8 {
                // Simulate heavy items.
                (0..200_000u64).fold(i as u64, |a, x| a.wrapping_add(x))
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], (0..200_000u64).sum::<u64>());
        assert_eq!(out[63], 63);
    }

    #[test]
    fn repeated_small_maps_do_not_deadlock() {
        // Many tiny maps with more threads than chunks maximise the
        // races between helpers entering and the caller unpublishing.
        let pool = WorkPool::new(8);
        for round in 0..300 {
            let out = pool.map_indexed(5, |i| i + round);
            assert_eq!(out, vec![round, round + 1, round + 2, round + 3, round + 4]);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = WorkPool::new(8);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 7), vec![7]);
        assert_eq!(WorkPool::serial().map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_over_slice_borrows() {
        let pool = WorkPool::new(4);
        let items: Vec<String> = (0..100).map(|i| format!("item{i}")).collect();
        let lens = pool.map(&items, |i, s| s.len() + i);
        assert_eq!(lens[0], 5);
        assert_eq!(lens[99], "item99".len() + 99);
    }

    #[test]
    fn zero_requests_available_parallelism() {
        assert!(WorkPool::new(0).threads() >= 1);
        assert_eq!(WorkPool::new(5).threads(), 5);
        assert_eq!(WorkPool::serial().threads(), 1);
    }

    #[test]
    fn chunk_sizes_are_sane() {
        assert_eq!(chunk_size(1, 1), 1);
        assert!(chunk_size(1000, 8) >= 1);
        // Enough chunks to even out imbalance but not pathological.
        let c = chunk_size(1000, 8);
        let chunks = 1000usize.div_ceil(c);
        assert!((8..=1000).contains(&chunks), "chunks={chunks}");
    }

    #[test]
    fn maps_reuse_a_bounded_set_of_threads() {
        let pool = WorkPool::new(4);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..200 {
            pool.map_indexed(64, |i| {
                lock(&seen).insert(thread::current().id());
                i
            });
        }
        let workers = lock(&QUEUE).workers;
        let distinct = lock(&seen).len();
        assert!(
            distinct <= workers + 1,
            "{distinct} distinct threads ran f, but the pool has {workers} workers"
        );
    }

    #[test]
    fn nested_map_completes_while_every_worker_runs_a_long_job() {
        let pool = WorkPool::new(2);
        // Make sure the workers exist, then occupy every one of them.
        pool.submit(|| {});
        let workers = lock(&QUEUE).workers;
        let release = Arc::new(Barrier::new(workers + 1));
        let (started_tx, started_rx) = mpsc::channel();
        for _ in 0..workers {
            let (release, started) = (Arc::clone(&release), started_tx.clone());
            pool.submit(move || {
                started.send(()).unwrap();
                release.wait();
            });
        }
        for _ in 0..workers {
            started_rx
                .recv_timeout(PATIENCE)
                .expect("every worker took a job");
        }

        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            let pool = WorkPool::new(2);
            let sums = pool.map_indexed(4, |i| pool.map_indexed(8, |j| i * 8 + j).iter().sum());
            done_tx.send(sums).unwrap();
        });
        let sums: Vec<usize> = done_rx.recv_timeout(PATIENCE).expect("nested map finished");
        release.wait();
        assert_eq!(sums, vec![28, 92, 156, 220]);
    }

    #[test]
    fn helper_panic_reraises_on_the_caller_after_every_helper_left() {
        let pool = WorkPool::new(4);
        let caller = thread::current().id();
        let inside = AtomicUsize::new(0);
        // Helpers join only when idle; retry until one has. A helper's
        // item outlasts all of the caller's, so the caller finishes
        // first and must wait for the helper to panic and leave.
        for _ in 0..50 {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map_indexed(16, |i| {
                    let on_caller = thread::current().id() == caller;
                    inside.fetch_add(1, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(if on_caller { 1 } else { 100 }));
                    inside.fetch_sub(1, Ordering::SeqCst);
                    assert!(on_caller, "helper failed on item {i}");
                })
            }));
            assert_eq!(
                inside.load(Ordering::SeqCst),
                0,
                "a helper outlived the map"
            );
            if let Err(payload) = result {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(message.starts_with("helper failed"), "{message}");
                return;
            }
        }
        panic!("no helper ever joined a map");
    }

    #[test]
    fn jobs_run_and_send_results_through_channels() {
        let pool = WorkPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u64 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i * 2).unwrap());
        }
        let mut got: Vec<u64> = (0..100)
            .map(|_| rx.recv_timeout(PATIENCE).expect("job ran"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }
}
