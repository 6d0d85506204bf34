//! fgbs-trace — a cross-crate tracing subsystem for the fgbs pipeline.
//!
//! Every pipeline layer (core stages, the work pool, the artifact store,
//! clustering, the GA) records *spans* (named, nested, timed regions),
//! *counters* (deterministic event counts) and *stats* (nondeterministic
//! aggregates such as per-worker queue-wait time) into thread-local
//! shards. A global sink drains the shards into a [`Trace`] that can be
//! exported as Chrome `chrome://tracing` JSON ([`chrome::to_chrome`]),
//! aggregated into a per-stage summary table ([`summary`]), or folded
//! into `fgbs-serve`'s `/metrics` registry.
//!
//! # Determinism
//!
//! The pipeline's bitwise-determinism contract extends to traces: span
//! *content* — names, nesting, argument values and counter totals — is
//! identical for any `--threads N`, even though timestamps, durations
//! and thread ids vary run to run. Two mechanisms make this hold:
//!
//! 1. **Parent inheritance.** Work submitted to `fgbs-pool` runs on
//!    worker threads; the pool captures the submitting thread's open
//!    span id and installs it via [`inherit_parent`], so spans recorded
//!    inside workers graft under the same logical parent they would
//!    have had inline.
//! 2. **The counter/stat split.** Quantities that depend on scheduling
//!    (chunk counts, queue waits, cache races) are
//!    recorded as *stats* and excluded from [`Trace::digest`];
//!    deterministic counts (items processed, Ward merges, GA cache
//!    hits) are *counters* and included.
//!
//! [`Trace::digest`] renders the span forest canonically (children
//! sorted, ids/timestamps/tids ignored) so tests can assert tree
//! equality across thread counts.
//!
//! Recording is cheap enough to leave on (the barometer row
//! `trace/span/n1/t1` gates it at 200 ns per span): a span is one relaxed atomic load when disabled, and two
//! timestamps plus a thread-local push when enabled — records buffer in
//! unsynchronised thread-local storage and reach the shared shard in
//! batched flushes ([`flush`]), so the hot path takes no lock.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// The span clock: monotonic nanoseconds since the trace epoch.
///
/// `clock_gettime` costs ~45 ns per read on some kernels and VMs, and a
/// span needs two reads — that alone would blow the sub-100 ns span
/// budget. On x86-64 the invariant timestamp counter is read directly
/// (~10 ns) and converted to nanoseconds with a rate calibrated against
/// the OS clock once at startup; other architectures fall back to
/// [`std::time::Instant`].
#[cfg(target_arch = "x86_64")]
mod clock {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    struct Calib {
        base: u64,
        ns_per_tick: f64,
    }

    #[inline]
    fn tsc() -> u64 {
        // SAFETY: `_rdtsc` has no safety preconditions — it reads the
        // timestamp counter, present on every x86-64 CPU.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    static CALIB: OnceLock<Calib> = OnceLock::new();

    /// Measure the tick rate against the OS clock over a short spin.
    fn calibrate() -> Calib {
        let base = tsc();
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let ticks = tsc().wrapping_sub(base).max(1);
        Calib {
            base,
            ns_per_tick: t0.elapsed().as_nanos() as f64 / ticks as f64,
        }
    }

    /// Pin the trace epoch, paying the one-time calibration spin.
    pub fn init() {
        CALIB.get_or_init(calibrate);
    }

    /// Monotonic nanoseconds since [`init`]. Saturates (rather than
    /// wrapping) under the few-tick cross-core counter skew x86
    /// permits.
    #[inline]
    pub fn now_ns() -> u64 {
        let c = CALIB.get_or_init(calibrate);
        (tsc().saturating_sub(c.base) as f64 * c.ns_per_tick) as u64
    }
}

/// Portable fallback span clock (see the x86-64 variant above).
#[cfg(not(target_arch = "x86_64"))]
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    static EPOCH: OnceLock<Instant> = OnceLock::new();

    /// Pin the trace epoch.
    pub fn init() {
        EPOCH.get_or_init(Instant::now);
    }

    /// Monotonic nanoseconds since [`init`].
    #[inline]
    pub fn now_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

pub mod chrome;
pub mod flightrec;
pub mod hist;
pub mod json;
pub mod summary;

pub use json::Json;

/// Counter names every drain reports, even at zero, so batch traces
/// always carry the full pool/store/GA vocabulary.
pub const DECLARED_COUNTERS: &[&str] = &[
    "bench.cases",
    "cluster.merges",
    "cluster.pairs",
    "exec.jobs",
    "fault.injected",
    "fault.retries",
    "ga.cache_hits",
    "ga.cache_misses",
    "ga.evaluations",
    "ga.warm_entries",
    "pool.items",
    "pool.maps",
    "profile.codelets",
    "store.evictions",
    "store.hits",
    "store.misses",
    "store.puts",
    "store.quarantines",
];

/// A span or counter argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (counts, sizes, ids).
    U64(u64),
    /// A float (fitness values, errors); rendered with Rust's shortest
    /// round-trip `Display`, which is bitwise-deterministic.
    F64(f64),
    /// A string (target names, suite names).
    Str(String),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One span argument: a static key and its value.
pub type Arg = (&'static str, ArgValue);

/// Deterministic key/value span arguments, in insertion order. The
/// first lives inline in the record — the common instrumentation shape
/// costs no heap allocation and no extra record bytes on the span hot
/// path — and further arguments spill to the heap (only once-per-stage
/// spans carry more than one).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    inline: Option<Arg>,
    spill: Vec<Arg>,
}

impl Args {
    /// An empty argument list.
    pub const fn new() -> Args {
        Args {
            inline: None,
            spill: Vec::new(),
        }
    }

    /// Append an argument, preserving insertion order.
    #[inline]
    pub fn push(&mut self, key: &'static str, value: ArgValue) {
        if self.inline.is_none() {
            self.inline = Some((key, value));
        } else {
            self.spill.push((key, value));
        }
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        usize::from(self.inline.is_some()) + self.spill.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.inline.is_none()
    }

    /// Iterate the arguments in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Arg> {
        self.inline.iter().chain(self.spill.iter())
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Arg;
    type IntoIter = std::iter::Chain<std::option::Iter<'a, Arg>, std::slice::Iter<'a, Arg>>;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.iter().chain(self.spill.iter())
    }
}

impl From<Vec<Arg>> for Args {
    fn from(list: Vec<Arg>) -> Args {
        let mut args = Args::new();
        for (k, v) in list {
            args.push(k, v);
        }
        args
    }
}

/// One completed span: a named region with nesting (via `parent`),
/// monotonic timestamps and optional arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (`tid << 40 | per-thread sequence`).
    pub id: u64,
    /// Id of the enclosing span, if any. Spans recorded on pool workers
    /// point at the submitting thread's span via [`inherit_parent`].
    pub parent: Option<u64>,
    /// Span name (`stage.reduce`, `cluster.distance`, ...).
    pub name: &'static str,
    /// Trace-local thread id (not the OS tid).
    pub tid: u64,
    /// Start, in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Ambient request id when the span closed (0 = none). Contextual,
    /// like `tid`: excluded from [`Trace::digest`].
    pub request: u64,
    /// Deterministic key/value arguments, in insertion order.
    pub args: Args,
}

/// Cumulative per-span-name aggregate, maintained independently of the
/// rolling span buffer so capacity drops never lose totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    /// Span name.
    pub name: String,
    /// Completed spans with this name since the last drain.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

/// Everything the collector gathered between two drains.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Completed spans, ordered by start time.
    pub spans: Vec<SpanRecord>,
    /// Deterministic counters, sorted by name ([`DECLARED_COUNTERS`]
    /// are always present, others appear once bumped).
    pub counters: Vec<(String, u64)>,
    /// Nondeterministic aggregates (queue waits, coalesce counts),
    /// sorted by name. Excluded from [`Trace::digest`].
    pub stats: Vec<(String, u64)>,
    /// Cumulative per-name span aggregates, sorted by name.
    pub span_totals: Vec<SpanTotal>,
    /// Spans evicted from the rolling buffer (0 unless a capacity is
    /// set via [`set_capacity`]).
    pub dropped: u64,
}

impl Trace {
    /// Look up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// All spans with the given name, in start order.
    pub fn spans_named<'a>(&'a self, name: &str) -> Vec<&'a SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Canonical rendering of the span forest plus counters, invariant
    /// under thread count: ids, timestamps and tids are ignored,
    /// siblings are sorted by their canonical form, and roots are
    /// sorted. Two runs of the same pipeline produce equal digests for
    /// any `--threads N`.
    pub fn digest(&self) -> String {
        let index: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent.and_then(|p| index.get(&p)) {
                Some(&p) => children[p].push(i),
                None => roots.push(i),
            }
        }

        fn canon(i: usize, spans: &[SpanRecord], children: &[Vec<usize>]) -> String {
            let s = &spans[i];
            let mut out = String::from(s.name);
            if !s.args.is_empty() {
                out.push('{');
                for (j, (k, v)) in s.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                    out.push('=');
                    out.push_str(&v.to_string());
                }
                out.push('}');
            }
            if !children[i].is_empty() {
                let mut kids: Vec<String> = children[i]
                    .iter()
                    .map(|&c| canon(c, spans, children))
                    .collect();
                kids.sort();
                out.push('(');
                out.push_str(&kids.join(","));
                out.push(')');
            }
            out
        }

        let mut lines: Vec<String> = roots
            .iter()
            .map(|&r| canon(r, &self.spans, &children))
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        out.push_str("\n#counters\n");
        for (k, v) in &self.counters {
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// Collector internals
// ---------------------------------------------------------------------

#[derive(Default)]
struct Shard {
    events: VecDeque<SpanRecord>,
    counters: HashMap<&'static str, u64>,
    stats: HashMap<String, u64>,
    /// Aggregates of spans already evicted from `events` (capacity
    /// drops); live-span aggregates are computed at collect time so the
    /// record hot path never touches a map.
    totals: HashMap<&'static str, (u64, u64)>,
    dropped: u64,
}

/// Span records buffered per thread before one locked append into the
/// shard — keeps the mutex (and eviction bookkeeping) off the hot path.
const FLUSH_EVERY: usize = 64;

/// Move `pending` into the shard, evicting the oldest events beyond the
/// configured capacity (their aggregates fold into `Shard::totals`).
fn flush_pending(shard: &Mutex<Shard>, pending: &mut Vec<SpanRecord>) {
    if pending.is_empty() {
        return;
    }
    let cap = CAPACITY.load(Ordering::Relaxed);
    let mut s = shard.lock();
    s.events.extend(pending.drain(..));
    if cap > 0 && s.events.len() > cap {
        let Shard {
            events,
            totals,
            dropped,
            ..
        } = &mut *s;
        // Evict down to half capacity in one batch. The ring buffer
        // makes each eviction O(1), and consecutive evictions
        // overwhelmingly share a span name, so a last-name memo touches
        // the aggregate map once per run instead of once per record.
        let excess = events.len() - cap / 2;
        let mut memo: Option<(&'static str, u64, u64)> = None;
        let fold = |totals: &mut HashMap<&'static str, (u64, u64)>, (name, count, ns)| {
            let agg = totals.entry(name).or_insert((0, 0));
            agg.0 += count;
            agg.1 += ns;
        };
        for _ in 0..excess {
            let r = events.pop_front().expect("excess is at most len");
            match &mut memo {
                Some((name, count, ns)) if std::ptr::eq::<str>(*name, r.name) => {
                    *count += 1;
                    *ns += r.dur_ns;
                }
                _ => {
                    if let Some(run) = memo.take() {
                        fold(totals, run);
                    }
                    memo = Some((r.name, 1, r.dur_ns));
                }
            }
        }
        if let Some(run) = memo {
            fold(totals, run);
        }
        *dropped += excess as u64;
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Arc<Mutex<Shard>>>> = Mutex::new(Vec::new());

struct Tls {
    shard: Arc<Mutex<Shard>>,
    tid: u64,
    seq: u64,
    stack: Vec<u64>,
    inherit: Option<u64>,
    pending: Vec<SpanRecord>,
}

impl Drop for Tls {
    fn drop(&mut self) {
        // Thread exit: whatever is still buffered must reach the shard,
        // which outlives us via the registry.
        let shard = Arc::clone(&self.shard);
        flush_pending(&shard, &mut self.pending);
    }
}

thread_local! {
    static TLS: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

#[inline]
fn with_tls<R>(f: impl FnOnce(&mut Tls) -> R) -> R {
    TLS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let tls = slot.get_or_insert_with(|| {
            let shard = Arc::new(Mutex::new(Shard::default()));
            REGISTRY.lock().push(Arc::clone(&shard));
            Tls {
                shard,
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                seq: 0,
                stack: Vec::new(),
                inherit: None,
                pending: Vec::with_capacity(FLUSH_EVERY),
            }
        });
        f(tls)
    })
}

/// Globally enable or disable recording. Disabled (the default), every
/// entry point is a single relaxed atomic load. Enabling also arms the
/// [`flightrec`] recorder (the always-on diagnostic window); call
/// [`flightrec::arm`]`(false)` afterwards to trace without it.
pub fn set_enabled(on: bool) {
    clock::init(); // pin the epoch (and calibrate) before the first span
    ENABLED.store(on, Ordering::Relaxed);
    flightrec::arm(on);
}

// ---------------------------------------------------------------------
// Request-scoped context
// ---------------------------------------------------------------------

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_REQUEST: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Allocate a fresh process-unique request id (monotonic from 1). The
/// daemon calls this once per HTTP request; the CLI once per
/// invocation. 0 is reserved for "no request".
pub fn next_request_id() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// The request id installed on this thread (0 = none). Spans and
/// flight-recorder events stamp this at record time; works whether or
/// not tracing is enabled.
#[inline]
pub fn current_request_id() -> u64 {
    CURRENT_REQUEST.with(std::cell::Cell::get)
}

/// Install `id` as the ambient request id on this thread until the
/// guard drops (restoring the previous value). The pool captures the
/// submitting thread's request id and re-enters it on workers, so the
/// id follows the work wherever it runs — the propagation contract in
/// DESIGN.md §6h.
#[must_use = "the request id is uninstalled when the guard drops"]
pub fn enter_request(id: u64) -> RequestGuard {
    let prev = CURRENT_REQUEST.with(|c| c.replace(id));
    RequestGuard { prev }
}

/// Guard restoring the previous request id on drop. Obtain via
/// [`enter_request`].
#[derive(Debug)]
pub struct RequestGuard {
    prev: u64,
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_REQUEST.with(|c| c.set(prev));
    }
}

/// This thread's trace-local thread id (allocating one if the thread
/// has not recorded yet). Shared with [`flightrec`] so span `tid`s and
/// flight-recorder `tid`s agree.
pub(crate) fn thread_tid() -> u64 {
    with_tls(|t| t.tid)
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds on the calibrated span clock (TSC on x86-64,
/// `Instant` elsewhere). This is the clock every span timestamp uses;
/// exposing it lets external measurement harnesses (the benchmark
/// barometer) share one time source with the traces they emit. The
/// first call pays the one-time calibration spin.
#[inline]
pub fn now_ns() -> u64 {
    clock::now_ns()
}

/// Cap each thread's span buffer (oldest spans are evicted and counted
/// in [`Trace::dropped`]). `0` (the default) means unbounded — required
/// for digest comparisons. The daemon sets a cap so `/trace` serves a
/// rolling window.
pub fn set_capacity(per_thread_spans: usize) {
    CAPACITY.store(per_thread_spans, Ordering::Relaxed);
}

/// Begin a span. The returned guard records the span into the calling
/// thread's shard when dropped; nesting follows guard scopes (LIFO).
#[must_use = "a span measures the scope of its guard"]
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            id: 0,
            parent: None,
            name,
            live: false,
            start_ns: 0,
            args: Args::new(),
        };
    }
    let start_ns = clock::now_ns();
    with_tls(|t| {
        t.seq += 1;
        let id = (t.tid << 40) | t.seq;
        let parent = t.stack.last().copied().or(t.inherit);
        t.stack.push(id);
        Span {
            id,
            parent,
            name,
            live: true,
            start_ns,
            args: Args::new(),
        }
    })
}

/// An open span; recorded on drop. Obtain via [`span`].
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    live: bool,
    start_ns: u64,
    args: Args,
}

impl Span {
    /// Attach an unsigned-integer argument.
    #[inline]
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        if self.live {
            self.args.push(key, ArgValue::U64(value));
        }
    }

    /// Attach a float argument (must be a deterministic quantity).
    #[inline]
    pub fn arg_f64(&mut self, key: &'static str, value: f64) {
        if self.live {
            self.args.push(key, ArgValue::F64(value));
        }
    }

    /// Attach a string argument.
    pub fn arg_str(&mut self, key: &'static str, value: impl Into<String>) {
        if self.live {
            self.args.push(key, ArgValue::Str(value.into()));
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let dur_ns = clock::now_ns().saturating_sub(self.start_ns);
        let args = std::mem::take(&mut self.args);
        let (id, parent, name, start_ns) = (self.id, self.parent, self.name, self.start_ns);
        let request = current_request_id();
        let recorded = with_tls(|t| {
            // Close any children left open (a forgotten guard) so the
            // stack stays LIFO-consistent; a span already closed by its
            // parent records nothing.
            let Some(pos) = t.stack.iter().rposition(|&open| open == id) else {
                return false;
            };
            t.stack.truncate(pos);
            t.pending.push(SpanRecord {
                id,
                parent,
                name,
                tid: t.tid,
                start_ns,
                dur_ns,
                request,
                args,
            });
            if t.pending.len() >= FLUSH_EVERY {
                flush_pending(&t.shard, &mut t.pending);
            }
            true
        });
        if recorded {
            // Reuse the span's end timestamp — the recorder path pays
            // no second clock read.
            flightrec::record_at(
                start_ns.saturating_add(dur_ns),
                flightrec::EventKind::Span,
                name,
                dur_ns,
            );
        }
    }
}

/// Bump a deterministic counter. Counter totals must be invariant under
/// thread count — they are part of [`Trace::digest`]. For quantities
/// that depend on scheduling, use [`stat`].
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_tls(|t| {
        *t.shard.lock().counters.entry(name).or_insert(0) += delta;
    });
    if flightrec::armed() {
        flightrec::record_at(clock::now_ns(), flightrec::EventKind::Counter, name, delta);
    }
}

/// Bump a nondeterministic aggregate (per-worker run time, queue wait,
/// coalesce counts). Stats are reported but excluded from digests.
pub fn stat(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_tls(|t| {
        *t.shard.lock().stats.entry(name.to_string()).or_insert(0) += delta;
    });
}

/// The id of the innermost open span on this thread (or the inherited
/// parent), if recording is enabled. The pool captures this before
/// fanning work out to workers.
pub fn current_span_id() -> Option<u64> {
    if !enabled() {
        return None;
    }
    with_tls(|t| t.stack.last().copied().or(t.inherit))
}

/// Install `parent` as the logical parent for root spans recorded on
/// this thread until the guard drops (restoring the previous value).
/// Pool workers call this so their spans graft under the span that was
/// open on the submitting thread.
#[must_use = "the inherited parent is uninstalled when the guard drops"]
pub fn inherit_parent(parent: Option<u64>) -> InheritGuard {
    if !enabled() {
        return InheritGuard { prev: None, set: false };
    }
    let prev = with_tls(|t| std::mem::replace(&mut t.inherit, parent));
    InheritGuard { prev, set: true }
}

/// Guard restoring the previous inherited parent on drop. Obtain via
/// [`inherit_parent`].
#[derive(Debug)]
pub struct InheritGuard {
    prev: Option<u64>,
    set: bool,
}

impl Drop for InheritGuard {
    fn drop(&mut self) {
        if self.set {
            let prev = self.prev.take();
            with_tls(|t| {
                t.inherit = prev;
                // A worker closure is ending: publish its spans so a
                // drain after `map` returns sees them, however long the
                // worker thread itself lives.
                flush_pending(&t.shard, &mut t.pending);
            });
        }
    }
}

/// Flush this thread's buffered span records into its shard, making
/// them visible to [`drain`]/[`snapshot`] from other threads. Called
/// automatically every few dozen spans, when an [`InheritGuard`] drops,
/// at thread exit, and at the start of a drain on the calling thread;
/// long-lived worker threads should call it after finishing a unit of
/// work.
pub fn flush() {
    TLS.with(|cell| {
        if let Some(t) = cell.borrow_mut().as_mut() {
            flush_pending(&t.shard, &mut t.pending);
        }
    });
}

/// Drain every thread's shard: returns all completed spans, counters,
/// stats and aggregates recorded since the previous drain, and resets
/// the collector. Spans still open keep recording into the (now empty)
/// shards.
pub fn drain() -> Trace {
    collect(true)
}

/// Like [`drain`] but non-destructive: copies the current contents
/// without resetting, so a later `drain` still sees everything.
pub fn snapshot() -> Trace {
    collect(false)
}

fn collect(take: bool) -> Trace {
    flush(); // the caller's own buffered spans must be visible
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut counters: std::collections::BTreeMap<String, u64> = DECLARED_COUNTERS
        .iter()
        .map(|n| (n.to_string(), 0))
        .collect();
    let mut stats: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut totals: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut dropped = 0u64;

    let mut registry = REGISTRY.lock();
    for shard in registry.iter() {
        let mut s = shard.lock();
        // Live events contribute to the per-name aggregates alongside
        // whatever eviction already folded into `totals`.
        for r in &s.events {
            let agg = totals.entry(r.name.to_string()).or_insert((0, 0));
            agg.0 += 1;
            agg.1 += r.dur_ns;
        }
        if take {
            spans.extend(s.events.drain(..));
            for (k, v) in s.counters.drain() {
                *counters.entry(k.to_string()).or_insert(0) += v;
            }
            for (k, v) in s.stats.drain() {
                *stats.entry(k).or_insert(0) += v;
            }
            for (k, (c, t)) in s.totals.drain() {
                let agg = totals.entry(k.to_string()).or_insert((0, 0));
                agg.0 += c;
                agg.1 += t;
            }
            dropped += std::mem::take(&mut s.dropped);
        } else {
            spans.extend(s.events.iter().cloned());
            for (k, v) in &s.counters {
                *counters.entry(k.to_string()).or_insert(0) += v;
            }
            for (k, v) in &s.stats {
                *stats.entry(k.clone()).or_insert(0) += v;
            }
            for (k, (c, t)) in &s.totals {
                let agg = totals.entry(k.to_string()).or_insert((0, 0));
                agg.0 += c;
                agg.1 += t;
            }
            dropped += s.dropped;
        }
    }
    if take {
        // Shards whose thread has exited (only the registry holds them)
        // have been emptied above; prune them.
        registry.retain(|s| Arc::strong_count(s) > 1);
    }
    drop(registry);

    spans.sort_by_key(|s| (s.start_ns, s.id));
    Trace {
        spans,
        counters: counters.into_iter().collect(),
        stats: stats.into_iter().collect(),
        span_totals: totals
            .into_iter()
            .map(|(name, (count, total_ns))| SpanTotal {
                name,
                count,
                total_ns,
            })
            .collect(),
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector (and the flight recorder) are process-global;
    // tests that enable either serialize on this lock so they never
    // observe each other's events. Shared with `flightrec::tests`.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock();
        set_capacity(0);
        set_enabled(true);
        let _ = drain();
        guard
    }

    #[test]
    fn nested_spans_close_lifo_and_link_parents() {
        let _g = exclusive();
        {
            let mut outer = span("outer");
            outer.arg_u64("n", 3);
            {
                let _mid = span("mid");
                let _inner = span("inner");
                // _inner drops before _mid: LIFO.
            }
            let _sibling = span("sibling");
        }
        set_enabled(false);
        let trace = drain();
        assert_eq!(trace.spans.len(), 4);
        let by_name = |n: &str| {
            trace
                .spans
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("span {n} missing"))
        };
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("mid").parent, Some(outer.id));
        assert_eq!(by_name("inner").parent, Some(by_name("mid").id));
        assert_eq!(by_name("sibling").parent, Some(outer.id));
        assert_eq!(outer.args, Args::from(vec![("n", ArgValue::U64(3))]));
    }

    #[test]
    fn forgotten_child_guard_is_closed_by_its_parent() {
        let _g = exclusive();
        {
            let outer = span("outer");
            let inner = span("inner");
            // Drop out of order: outer first. `inner` is force-closed
            // when `outer` unwinds the stack, and its later drop is a
            // no-op rather than corrupting the stack.
            drop(outer);
            drop(inner);
        }
        {
            let _after = span("after");
        }
        set_enabled(false);
        let trace = drain();
        let after = trace.spans.iter().find(|s| s.name == "after").unwrap();
        assert_eq!(after.parent, None, "stack must be balanced after misuse");
        // `outer` recorded; `inner` was discarded by the forced close.
        assert!(trace.spans.iter().any(|s| s.name == "outer"));
        assert!(!trace.spans.iter().any(|s| s.name == "inner"));
    }

    #[test]
    fn counters_sum_across_threads() {
        let _g = exclusive();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        counter("cluster.pairs", 2);
                    }
                    stat("pool.test_stat", 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        counter("cluster.pairs", 1);
        set_enabled(false);
        let trace = drain();
        assert_eq!(trace.counter("cluster.pairs"), 801);
        assert_eq!(
            trace.stats.iter().find(|(n, _)| n == "pool.test_stat"),
            Some(&("pool.test_stat".to_string(), 4))
        );
        // Declared counters are present even at zero.
        assert!(trace.counters.iter().any(|(n, v)| n == "ga.cache_hits" && *v == 0));
    }

    #[test]
    fn inherited_parent_grafts_worker_spans() {
        let _g = exclusive();
        let parent_id;
        {
            let _outer = span("outer");
            parent_id = current_span_id();
            assert!(parent_id.is_some());
            let pid = parent_id;
            std::thread::spawn(move || {
                let _ctx = inherit_parent(pid);
                let _w = span("worker");
            })
            .join()
            .unwrap();
        }
        set_enabled(false);
        let trace = drain();
        let worker = trace.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, parent_id);
        // Digest renders the worker span as a child of `outer`.
        assert_eq!(trace.digest().lines().next(), Some("outer(worker)"));
    }

    #[test]
    fn digest_ignores_order_and_timing() {
        let _g = exclusive();
        {
            let _root = span("root");
            {
                let mut a = span("a");
                a.arg_f64("x", 0.5);
            }
            let _b = span("b");
        }
        set_enabled(false);
        let t1 = drain();

        set_enabled(true);
        {
            let _root = span("root");
            {
                let _b = span("b");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            let mut a = span("a");
            a.arg_f64("x", 0.5);
        }
        set_enabled(false);
        let t2 = drain();
        assert_eq!(t1.digest(), t2.digest());
        assert!(t1.digest().starts_with("root(a{x=0.5},b)"));
    }

    #[test]
    fn capacity_evicts_oldest_and_counts_drops() {
        let _g = exclusive();
        set_capacity(8);
        for _ in 0..20 {
            let _s = span("tick");
        }
        set_enabled(false);
        let trace = drain();
        set_capacity(0);
        assert!(trace.spans.len() <= 8, "buffer capped: {}", trace.spans.len());
        assert_eq!(trace.spans.len() as u64 + trace.dropped, 20);
        // Cumulative aggregates survive eviction.
        let total = trace.span_totals.iter().find(|t| t.name == "tick").unwrap();
        assert_eq!(total.count, 20);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = exclusive();
        set_enabled(false);
        {
            let mut s = span("ghost");
            s.arg_u64("n", 1);
            counter("cluster.pairs", 5);
        }
        let trace = drain();
        assert!(trace.spans.is_empty());
        assert_eq!(trace.counter("cluster.pairs"), 0);
    }

    #[test]
    fn digest_is_thread_invariant_with_the_recorder_armed() {
        let _g = exclusive();
        flightrec::arm(true);
        // Inline run: chunks nest directly under root.
        {
            let _root = span("root");
            for _ in 0..3 {
                let _c = span("chunk");
                counter("pool.items", 1);
            }
        }
        set_enabled(false);
        let t1 = drain();

        // Worker run: same forest via inherit_parent, each chunk under
        // a different request id — contextual fields (tid, request)
        // must not perturb the digest.
        set_enabled(true);
        {
            let _root = span("root");
            let pid = current_span_id();
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    std::thread::spawn(move || {
                        let _ctx = inherit_parent(pid);
                        let _rq = enter_request(70 + i);
                        let _c = span("chunk");
                        counter("pool.items", 1);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        set_enabled(false);
        let t2 = drain();
        assert_eq!(t1.digest(), t2.digest());
        // The recorder did observe the spans...
        assert!(flightrec::dump().iter().any(|e| e.name == "chunk"));
        // ...and stamped the worker ones with their request ids.
        assert!(flightrec::dump_for(71).iter().any(|e| e.name == "chunk"));
    }

    #[test]
    fn request_guard_nests_and_restores() {
        assert_eq!(current_request_id(), 0);
        let outer = enter_request(5);
        assert_eq!(current_request_id(), 5);
        {
            let _inner = enter_request(6);
            assert_eq!(current_request_id(), 6);
        }
        assert_eq!(current_request_id(), 5);
        drop(outer);
        assert_eq!(current_request_id(), 0);
        assert!(next_request_id() < next_request_id(), "monotonic ids");
    }

    #[test]
    fn snapshot_does_not_reset() {
        let _g = exclusive();
        {
            let _s = span("kept");
        }
        counter("pool.items", 3);
        let snap = snapshot();
        assert_eq!(snap.spans.len(), 1);
        set_enabled(false);
        let drained = drain();
        assert_eq!(drained.spans.len(), 1, "snapshot must not consume spans");
        assert_eq!(drained.counter("pool.items"), 3);
    }
}
