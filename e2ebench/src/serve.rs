//! `serve_hot` and `serve_mixed`: the `fgbs serve` daemon, in process,
//! over real HTTP on loopback.
//!
//! Set-up builds the daemon as `fgbs serve` does (event loop, one
//! executor thread per core, pipeline threads 1, tracer on as
//! `Service::new` leaves it) over a fresh store, and primes 24 keys:
//! {nr, bigdata, nas} test class × 4 targets × k ∈ {4, elbow}.
//!
//! * `serve_hot`: one keep-alive connection, closed loop, seeded picks
//!   from the primed keys. Every answer must be a store hit
//!   byte-identical to its primed body. With one connection the
//!   event loop never batches, so this workload bypasses the batch path.
//! * `serve_mixed`: one connection issues hits as above; a second
//!   issues, closed loop, never-seen keys (test suite × target ×
//!   k ∈ 2..=min(codelets, 24), k ≠ 4) in seeded rounds, each of which
//!   computes reduce + predict and writes to the store. A hit parsed in
//!   the same event-loop turn as a miss is batched with it, so this
//!   workload exercises the batch path.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fgbs_core::{KChoice, PipelineConfig};
use fgbs_serve::{install_diagnostic_sink, try_parse, Response, Server, Service, DEFAULT_MAX_BODY};
use fgbs_store::Store;
use fgbs_trace::Json;

use crate::client::{check, Conn, Expect, Failure};
use crate::layers::{pool_workers, self_ns_by_name, shares, stat, total_ns};
use crate::stats::{median, tail, LatencyHist, Rng, Skewed};
use crate::{host, Args, Report};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Hit traffic before timing starts, so timing starts from a steady state.
const WARMUP: Duration = Duration::from_millis(500);

const SUITES: [&str; 3] = ["nr", "bigdata", "nas"];
const TARGETS: [&str; 4] = ["atom", "core2", "sb", "nehalem"];
const PRIMED_K: [&str; 2] = ["4", "elbow"];
/// Largest fixed k a miss asks for (the daemon's elbow range).
const MAX_K: usize = 24;

/// Directory (under the working directory) for the daemons' stores.
const WORK_DIR: &str = ".e2ebench_work";

/// Hit throughput is the median of per-window rates: on `serve_mixed` a
/// hit batched with a miss stalls for the whole miss, and how many such
/// stalls a run catches is random, so the mean rate would vary far more
/// between runs than the rate outside stalls. Windows are short next to
/// a stall (0.3 s or more), so stalls cover well under half of them and
/// the median stays outside them. The stalls show in the hit tail and in
/// `serve.batch_share`.
const WINDOW: Duration = Duration::from_millis(100);

/// Upper end of the miss client's uniform think time before each miss.
/// Without it the miss client fires the moment its reply lands; a reply
/// batched with a hit lands together with that hit, so both clients send
/// together again and the next miss is batched too. The two connections
/// then phase-lock, and hit throughput swings between runs of one commit
/// by 30%.
const MISS_THINK: Duration = Duration::from_millis(50);

/// Iterations of the `try_parse` and `render` micro-measurements.
const MICRO_ITERS: u32 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Mixed,
}

fn predict_target(suite: &str, target: &str, k: &str) -> String {
    format!("/predict?suite={suite}&class=test&target={target}&k={k}")
}

/// A running daemon; dropping it shuts the server down and deletes its
/// store.
struct Daemon {
    server: Option<Server>,
    service: Arc<Service>,
    dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("running").addr()
    }
}

/// The primed key set, suite-major in [`SUITES`] order: request target
/// and primed body, and each suite's codelet count.
struct Primed {
    keys: Vec<(String, Vec<u8>)>,
    codelets: Vec<(&'static str, usize)>,
}

fn start_daemon(dir: PathBuf) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open_healing(dir.join("store"))
        .map(Arc::new)
        .map_err(|e| format!("cannot open store at {}: {e}", dir.display()))?;
    install_diagnostic_sink(Arc::clone(&store));
    let cfg = PipelineConfig::default()
        .with_k(KChoice::Elbow { max_k: MAX_K })
        .with_threads(1);
    let service = Arc::new(Service::new(cfg, store));
    let server = Server::start("127.0.0.1:0", 0, Arc::clone(&service))
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let daemon = Daemon {
        server: Some(server),
        service,
        dir,
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut conn = Conn::new(daemon.addr());
    loop {
        match conn.get("/health") {
            Ok(r) if r.status == 200 => return Ok(daemon),
            _ if Instant::now() > deadline => return Err("/health never answered 200".into()),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Check a computed `/predict` body: the k asked for, one prediction
/// per codelet, a finite error figure. Returns the codelet count.
fn check_computed_body(body: &[u8], k: &str) -> Result<usize, Failure> {
    let bad = |m: &str| Failure::Body(m.to_string());
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let doc = Json::parse(text).map_err(|e| Failure::Body(format!("body is not JSON: {e}")))?;
    if doc.get("k").and_then(Json::as_str) != Some(k) {
        return Err(bad("wrong k in body"));
    }
    let n = doc
        .get("codelets")
        .and_then(Json::as_u64)
        .filter(|&n| n > 0)
        .ok_or_else(|| bad("no codelets in body"))?;
    let predictions = doc
        .get("predictions")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("no predictions in body"))?;
    if predictions.len() as u64 != n {
        return Err(bad("prediction count differs from codelet count"));
    }
    match doc.get("median_error_pct").and_then(Json::as_f64) {
        Some(e) if e.is_finite() => Ok(n as usize),
        _ => Err(bad("median_error_pct is not finite")),
    }
}

/// One primed key: its index in the plan, the body, the suite's codelet
/// count, and the priming request's latency in ns.
type PrimedKey = (usize, Vec<u8>, usize, u64);

/// Prime every key over `host::nproc()` connections (at most 2).
/// Returns the primed set and each priming request's latency.
fn prime(addr: SocketAddr) -> Result<(Primed, Vec<u64>), String> {
    let mut plan: Vec<(&'static str, String, &'static str)> = Vec::new();
    for suite in SUITES {
        for target in TARGETS {
            for k in PRIMED_K {
                plan.push((suite, predict_target(suite, target, k), k));
            }
        }
    }
    let lanes = host::nproc().clamp(1, 2);
    let results: Vec<Result<Vec<PrimedKey>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let plan = &plan;
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    for i in (lane..plan.len()).step_by(lanes) {
                        let (_, target, k) = &plan[i];
                        let t0 = Instant::now();
                        let reply = conn.get(target);
                        let ns = t0.elapsed().as_nanos() as u64;
                        check(&reply, Expect::Computed)
                            .map_err(|f| format!("priming {target}: {f:?}"))?;
                        let body = reply.expect("checked").body;
                        let n = check_computed_body(&body, k)
                            .map_err(|f| format!("priming {target}: {f:?}"))?;
                        out.push((i, body, n, ns));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("priming thread panicked"))
            .collect()
    });
    let mut keyed: Vec<Option<(Vec<u8>, usize)>> = vec![None; plan.len()];
    let mut latencies = Vec::with_capacity(plan.len());
    for lane in results {
        for (i, body, n, ns) in lane? {
            keyed[i] = Some((body, n));
            latencies.push(ns);
        }
    }
    let mut codelets: Vec<(&'static str, usize)> = Vec::new();
    let mut keys = Vec::with_capacity(plan.len());
    for ((suite, target, _), slot) in plan.into_iter().zip(keyed) {
        let (body, n) = slot.expect("every planned key primed");
        if !codelets.iter().any(|(s, _)| *s == suite) {
            codelets.push((suite, n));
        }
        keys.push((target, body));
    }
    Ok((Primed { keys, codelets }, latencies))
}

/// Never-primed keys in rounds. Each round asks every (target, suite)
/// pair once, suites interleaved, so every run computes the same mix of
/// small and large suites; the seed orders the k values of each pair.
fn miss_keys(primed: &Primed, rng: &mut Rng) -> Vec<(String, String)> {
    let mut pairs: Vec<Vec<(String, String)>> = Vec::new();
    for target in TARGETS {
        for &(suite, n) in &primed.codelets {
            let mut ks: Vec<String> = (2..=n.min(MAX_K))
                .map(|k| k.to_string())
                .filter(|k| !PRIMED_K.contains(&k.as_str()))
                .collect();
            rng.shuffle(&mut ks);
            pairs.push(
                ks.into_iter()
                    .map(|k| (predict_target(suite, target, &k), k))
                    .collect(),
            );
        }
    }
    let rounds = pairs.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|r| pairs.iter().filter_map(move |keys| keys.get(r).cloned()))
        .collect()
}

/// What one client connection did in a pass.
#[derive(Debug, Default)]
struct Tally {
    lat: LatencyHist,
    attempted: u64,
    failed: u64,
    reconnects: u64,
    first_failure: Option<String>,
    /// Successes completed in each [`WINDOW`] since the pass started.
    per_window: Vec<u32>,
}

impl Tally {
    fn record(&mut self, ns: u64, verdict: Result<(), Failure>, what: &str, start: Instant) {
        self.attempted += 1;
        match verdict {
            Ok(()) => {
                self.lat.record(ns);
                let w = (start.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
                if self.per_window.len() <= w {
                    self.per_window.resize(w + 1, 0);
                }
                self.per_window[w] += 1;
            }
            Err(f) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("{what}: {f:?}"));
            }
        }
    }
}

fn hit_loop(
    addr: SocketAddr,
    primed: &Primed,
    seed: u64,
    start: Instant,
    until: Instant,
    traced: bool,
) -> Tally {
    // A suite is picked uniformly, then a key within it by Zipf: which
    // keys are hot depends on the seed, but the mix of response sizes
    // (set by the suite's codelet count) does not.
    let mut rng = Rng::new(seed);
    let per_suite = primed.keys.len() / SUITES.len();
    let picks: Vec<Skewed> = SUITES
        .iter()
        .map(|_| Skewed::new(per_suite, &mut rng))
        .collect();
    let mut conn = Conn::new(addr);
    let mut tally = Tally::default();
    while Instant::now() < until {
        let suite = (rng.next_u64() % SUITES.len() as u64) as usize;
        let (target, body) = &primed.keys[suite * per_suite + picks[suite].pick(&mut rng)];
        let span = traced.then(|| fgbs_trace::span("bench.hit"));
        let t0 = Instant::now();
        let reply = conn.get(target);
        let ns = t0.elapsed().as_nanos() as u64;
        drop(span);
        tally.record(ns, check(&reply, Expect::Hit(body)), target, start);
    }
    tally.reconnects = conn.reconnects;
    tally
}

fn miss_loop(
    addr: SocketAddr,
    keys: &mut std::slice::Iter<'_, (String, String)>,
    seed: u64,
    start: Instant,
    until: Instant,
    traced: bool,
) -> Tally {
    let mut rng = Rng::new(seed);
    let mut conn = Conn::new(addr);
    let mut tally = Tally::default();
    while Instant::now() < until {
        let Some((target, k)) = keys.next() else {
            break;
        };
        std::thread::sleep(MISS_THINK.mul_f64(rng.unit()));
        let span = traced.then(|| fgbs_trace::span("bench.miss"));
        let t0 = Instant::now();
        let reply = conn.get(target);
        let ns = t0.elapsed().as_nanos() as u64;
        drop(span);
        let verdict = check(&reply, Expect::Computed).and_then(|()| {
            check_computed_body(&reply.as_ref().expect("checked").body, k).map(|_| ())
        });
        tally.record(ns, verdict, target, start);
    }
    tally.reconnects = conn.reconnects;
    tally
}

/// One measured pass: hits (and misses) for `seconds`.
struct Pass {
    hits: Tally,
    misses: Tally,
    wall_s: f64,
    seconds: f64,
}

fn pass(
    mix: Mix,
    addr: SocketAddr,
    primed: &Primed,
    misses: &mut std::slice::Iter<'_, (String, String)>,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Pass {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let (hits, misses) = std::thread::scope(|scope| {
        let miss_client = (mix == Mix::Mixed)
            .then(|| scope.spawn(|| miss_loop(addr, misses, seed ^ 0x5eed, t0, until, traced)));
        let hits = hit_loop(addr, primed, seed, t0, until, traced);
        let misses =
            miss_client.map_or_else(Tally::default, |c| c.join().expect("miss client panicked"));
        (hits, misses)
    });
    Pass {
        hits,
        misses,
        wall_s: t0.elapsed().as_secs_f64(),
        seconds,
    }
}

impl Pass {
    fn hit_p50_us(&self) -> f64 {
        self.hits.lat.p50() / 1e3
    }

    /// Median hits per second over the pass's whole windows (the plain
    /// rate for a pass shorter than one window).
    fn hit_per_s(&self) -> f64 {
        let whole = (self.seconds / WINDOW.as_secs_f64()) as usize;
        if whole == 0 {
            return self.hits.lat.len() as f64 / self.wall_s;
        }
        let mut counts: Vec<f64> = self.hits.per_window.iter().map(|&c| f64::from(c)).collect();
        counts.resize(whole.max(counts.len()), 0.0);
        median(&counts[..whole]) / WINDOW.as_secs_f64()
    }
}

fn tally_into(report: &mut Report, t: &Tally, what: &str) {
    report.attempted += t.attempted;
    report.failed += t.failed;
    if let Some(f) = &t.first_failure {
        report.line(format!(
            "{what} FAILED {} of {}; first: {f}",
            t.failed, t.attempted
        ));
    }
}

/// Mean ns of `f` over [`MICRO_ITERS`] calls.
fn mean_ns(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..MICRO_ITERS {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(MICRO_ITERS)
}

pub fn run(args: &Args, mix: Mix) -> Result<Report, String> {
    let mut report = Report::default();
    let base_dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let result = run_in(args, mix, &base_dir, &mut report);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    result.map(|()| report)
}

fn run_in(
    args: &Args,
    mix: Mix,
    base_dir: &std::path::Path,
    report: &mut Report,
) -> Result<(), String> {
    // Set up several times; keep the last daemon.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut cold_ms: Vec<f64> = Vec::new();
    let mut ready = None;
    for i in 0..SETUP_REPEATS {
        drop(ready.take());
        let t0 = Instant::now();
        let daemon = start_daemon(base_dir.join(i.to_string()))?;
        let (primed, latencies) = prime(daemon.addr())?;
        setups.push(t0.elapsed().as_secs_f64());
        cold_ms.extend(latencies.iter().map(|&ns| ns as f64 / 1e6));
        ready = Some((daemon, primed));
    }
    let (daemon, primed) = ready.expect("at least one set-up");
    let addr = daemon.addr();
    let svc = Arc::clone(&daemon.service);
    let setup_s = median(&setups);

    let mut rng = Rng::new(args.seed);
    let miss_plan = miss_keys(&primed, &mut rng);
    let mut misses = miss_plan.iter();
    let hit_seed = rng.next_u64();

    let warm = pass(
        Mix::Hot,
        addr,
        &primed,
        &mut misses,
        hit_seed ^ 1,
        WARMUP.as_secs_f64(),
        false,
    );
    tally_into(report, &warm.hits, "warm-up hits");
    drop(warm);

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = pass(mix, addr, &primed, &mut misses, hit_seed, seconds, false);
    tally_into(report, &untraced.hits, "hits");
    tally_into(report, &untraced.misses, "misses");
    if mix == Mix::Mixed && untraced.misses.lat.len() == 0 {
        return Err("no miss completed".into());
    }

    if !args.trace {
        let p = &untraced;
        let hit_rps = p.hit_per_s();
        report.line(format!(
            "setup_s = {setup_s:.4} s (median of {SETUP_REPEATS})"
        ));
        report.line(format!(
            "cold_predict_p50_ms = {:.3} ms (priming, {} samples)",
            median(&cold_ms),
            cold_ms.len()
        ));
        report.line(format!(
            "hit_rps = {hit_rps:.1} 1/s (median of {} ms windows; {:.1} over the whole pass)",
            WINDOW.as_millis(),
            p.hits.lat.len() as f64 / p.wall_s
        ));
        report.line(format!(
            "hit_p50_us = {:.2} us ({} samples)",
            p.hit_p50_us(),
            p.hits.lat.len()
        ));
        match tail(|q| p.hits.lat.nearest_rank(q)) {
            Some(t) => report.line(format!(
                "hit_p{}_us = {:.2} us ({} samples beyond)",
                t.percentile,
                t.value as f64 / 1e3,
                t.beyond
            )),
            None => report.line("hit tail: too few samples".into()),
        }
        let compute_ms = match mix {
            Mix::Hot => median(&cold_ms),
            Mix::Mixed => {
                let m = p.misses.lat.p50() / 1e6;
                report.line(format!(
                    "miss_p50_ms = {m:.3} ms ({} samples)",
                    p.misses.lat.len()
                ));
                m
            }
        };
        let rss = host::peak_rss_mb()?;
        report.line(format!("peak_rss_mb = {rss:.1} MB"));
        report.set("setup_s", setup_s);
        report.set("op_p50_ms", p.hit_p50_us() / 1e3);
        report.set("op_per_s", hit_rps);
        report.set("compute_p50_ms", compute_ms);
        report.set("peak_rss_mb", rss);
        return Ok(());
    }

    // Traced pass: the daemon's tracer is already on; add benchmark
    // spans around each request and read what the program recorded.
    let before = (
        svc.computations(),
        svc.batched_requests(),
        svc.coalesced(),
        svc.shed(),
    );
    let _ = fgbs_trace::drain();
    let traced = pass(mix, addr, &primed, &mut misses, hit_seed ^ 2, seconds, true);
    let t = fgbs_trace::drain();
    tally_into(report, &traced.hits, "traced hits");
    tally_into(report, &traced.misses, "traced misses");

    let computed = traced.misses.lat.len() as f64;
    let requests = (traced.hits.attempted + traced.misses.attempted) as f64;
    let per_miss_s = |ns: u64| {
        if computed > 0.0 {
            ns as f64 / 1e9 / computed
        } else {
            0.0
        }
    };
    let measured = stat(&t, "micro.measured") as f64;
    let micro_hits = stat(&t, "micro.cache_hits") as f64;
    let jobs = t.counter("exec.jobs") as f64;
    let gets = (t.counter("store.hits") + t.counter("store.misses")) as f64;
    let metrics = svc.metrics();
    let handle_p50 = metrics.quantile("predict", 0.5) as f64;

    report.set("core.profile_s", per_miss_s(total_ns(&t, "stage.profile")));
    report.set("core.reduce_s", per_miss_s(total_ns(&t, "stage.reduce")));
    // The daemon never calls `evaluate_targets`.
    report.set("core.evaluate_s", 0.0);
    report.set("core.predict_s", per_miss_s(total_ns(&t, "stage.predict")));
    report.set("machine.ref_run_s", per_miss_s(total_ns(&t, "profile.run")));
    report.set(
        "machine.target_run_s",
        per_miss_s(total_ns(&t, "profile.target")),
    );
    // Simulator counters do not cross the HTTP boundary.
    report.set("machine.sim_accesses", 0.0);
    report.set("machine.ns_per_access", 0.0);
    report.set(
        "extract.wellness_s",
        per_miss_s(total_ns(&t, "reduce.wellness")),
    );
    report.set("extract.micro_measured", measured);
    report.set(
        "extract.micro_hit_ratio",
        micro_hits / (micro_hits + measured).max(1.0),
    );
    report.set(
        "analysis.detect_s",
        per_miss_s(total_ns(&t, "profile.detect")),
    );
    report.set(
        "clustering.distance_us",
        per_miss_s(total_ns(&t, "cluster.distance")) * 1e6,
    );
    report.set(
        "clustering.linkage_us",
        per_miss_s(total_ns(&t, "cluster.linkage")) * 1e6,
    );
    report.set(
        "clustering.elbow_us",
        per_miss_s(total_ns(&t, "cluster.elbow")) * 1e6,
    );
    report.set("clustering.pairs", t.counter("cluster.pairs") as f64);
    report.set("pool.maps", t.counter("pool.maps") as f64);
    report.set("pool.items", t.counter("pool.items") as f64);
    let map_us = total_ns(&t, "pool.map") as f64 / 1e3;
    report.set(
        "pool.busy_frac",
        pool_workers(&t, "run_us") as f64 / (host::nproc() as f64 * map_us).max(1.0),
    );
    report.set("pool.wait_us", pool_workers(&t, "wait_us") as f64);
    report.set("exec.jobs", jobs);
    report.set(
        "exec.wait_us",
        stat(&t, "exec.wait_us") as f64 / jobs.max(1.0),
    );
    report.set(
        "exec.run_us",
        stat(&t, "exec.run_us") as f64 / jobs.max(1.0),
    );
    report.set("service.handle_p50_us", handle_p50);
    report.set(
        "service.handle_p99_us",
        metrics.quantile("predict", 0.99) as f64,
    );
    report.set("serve.outside_p50_us", traced.hit_p50_us() - handle_p50);

    let (sample_target, sample_body) = &primed.keys[0];
    let request = format!("GET {sample_target} HTTP/1.1\r\nhost: e2ebench\r\n\r\n").into_bytes();
    let parsed = try_parse(&request, DEFAULT_MAX_BODY);
    if !matches!(parsed, Ok(Some(_))) {
        return Err(format!(
            "try_parse rejected the workload's request: {parsed:?}"
        ));
    }
    report.set(
        "http.parse_ns",
        mean_ns(|| {
            let _ =
                std::hint::black_box(try_parse(std::hint::black_box(&request), DEFAULT_MAX_BODY));
        }),
    );
    let response = Response::json_bytes(sample_body.clone())
        .with_source("store")
        .with_request_id(1);
    report.set(
        "http.render_ns",
        mean_ns(|| {
            std::hint::black_box(std::hint::black_box(&response).render(true));
        }),
    );
    report.set(
        "serve.batch_share",
        (svc.batched_requests() - before.1) as f64 / requests.max(1.0),
    );
    report.set(
        "serve.reconnects",
        (traced.hits.reconnects + traced.misses.reconnects) as f64,
    );
    report.set(
        "serve.computations_per_miss",
        if computed > 0.0 {
            (svc.computations() - before.0) as f64 / computed
        } else {
            0.0
        },
    );
    report.set(
        "service.reduce_ms",
        metrics.quantile("stage.reduce", 0.5) as f64 / 1e3,
    );
    report.set(
        "service.predict_ms",
        metrics.quantile("stage.predict", 0.5) as f64 / 1e3,
    );
    report.set("serve.coalesced", (svc.coalesced() - before.2) as f64);
    report.set("serve.shed", (svc.shed() - before.3) as f64);
    report.set(
        "store.get_us",
        stat(&t, "store.get_us") as f64 / gets.max(1.0),
    );
    report.set(
        "store.hit_ratio",
        t.counter("store.hits") as f64 / gets.max(1.0),
    );
    report.set("store.puts", t.counter("store.puts") as f64);
    let base = untraced.hit_p50_us();
    report.set("trace.overhead_frac", (traced.hit_p50_us() - base) / base);

    report.line(format!(
        "hit_p50_us untraced {base:.2} us, traced {:.2} us; {} hits, {} misses traced",
        traced.hit_p50_us(),
        traced.hits.lat.len(),
        traced.misses.lat.len()
    ));
    let hit_p50 = traced.hit_p50_us();
    report.line(format!(
        "hit p50 split: handler {:.4}, outside the handler {:.4}",
        handle_p50 / hit_p50,
        1.0 - handle_p50 / hit_p50
    ));
    // Server-side spans only: the client's `bench.*` spans overlap them
    // on other threads.
    let mut self_ns = self_ns_by_name(&t);
    self_ns.retain(|name, _| !name.starts_with("bench."));
    if self_ns.is_empty() {
        report.line("no pipeline spans: no layer below serve did work".into());
    }
    for (layer, share) in shares(&self_ns) {
        report.line(format!(
            "share {layer} = {share:.4} of summed server self time"
        ));
    }
    if t.dropped > 0 {
        report.line(format!(
            "{} spans evicted by the per-thread cap Service::new sets; per-name totals are unaffected",
            t.dropped
        ));
    }
    Ok(())
}
