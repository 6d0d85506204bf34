//! fgbs-serve — a concurrent system-selection service over the fgbs
//! pipeline.
//!
//! The daemon speaks minimal HTTP/1.1 + JSON over
//! [`std::net::TcpListener`]. On Linux it runs a readiness-driven
//! event loop (`fgbs-reactor` over epoll) with per-connection state
//! machines: HTTP/1.1 keep-alive and pipelining, per-connection request
//! budgets, and admission-controlled load shedding; every request runs
//! as its own job on the process-wide [`fgbs_pool::WorkPool`]. Elsewhere
//! (or with [`LoopOptions::event_loop`] off) it falls back to a blocking
//! accept loop submitting one job per one-shot connection to the same
//! pool. Either way, shutdown waits until every request already
//! dispatched has been answered. Endpoints:
//!
//! | endpoint         | purpose                                        |
//! |------------------|------------------------------------------------|
//! | `GET /predict`   | cross-architecture prediction for a suite/target (`suite`, `class`, `target`, `k`) |
//! | `GET /sweep`     | benchmark-reduction quality across `k` (`kmin`, `kmax`) |
//! | `POST /reduce`   | subset a suite into representatives (`suite`, `class`, `k`) |
//! | `POST /snippets` | ingest a portable snippet pack                 |
//! | `GET /snippets`  | list published snippet packs                   |
//! | `GET /artifacts` | list persisted store artifacts                  |
//! | `GET /metrics`   | counts, store hit/miss, latency quantiles (JSON; `?format=prom` for Prometheus text) |
//! | `GET /trace`     | Chrome-trace export of recent spans            |
//! | `GET /health`    | liveness probe                                 |
//!
//! Every cacheable handler consults the [`fgbs_store::Store`] first and
//! replays byte-identical bodies on a hit; concurrent identical misses
//! collapse into one computation via single-flight. See
//! [`Service`] for the full request lifecycle.
//!
//! Every request gets a monotonically increasing **request id**,
//! installed as the thread's ambient trace context and echoed as an
//! `x-fgbs-request-id` response header; spans, counters and
//! flight-recorder events carry it, so one failing request can be
//! picked out of `/trace` or a diagnostic dump
//! ([`install_diagnostic_sink`], `fgbs flightrec show`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fgbs_pool::WorkPool;

mod conn;
#[cfg(target_os = "linux")]
mod event;
mod http;
pub mod loadgen;
mod metrics;
mod service;

pub use fgbs_trace::Json;
pub use http::{
    parse_query, read_request, read_request_limited, try_parse, Parsed, Request, RequestError,
    Response, DEFAULT_MAX_BODY,
};
pub use metrics::{Metrics, N_BUCKETS, SERIES};
pub use service::{install_diagnostic_sink, Service};

/// Tunable per-connection behaviour: socket timeouts and request-size
/// limits. [`Server::start`] uses [`ServeOptions::default`]; tests and
/// hardened deployments pass their own via [`Server::start_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// How long a connection worker waits for request bytes before
    /// answering `408` to a stalled client.
    pub read_timeout: Duration,
    /// How long a blocked response write may stall before the worker
    /// abandons the connection (a client that stops reading cannot
    /// wedge a worker forever).
    pub write_timeout: Duration,
    /// Largest accepted request body; larger declared bodies get `413`.
    pub max_body: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: DEFAULT_MAX_BODY,
        }
    }
}

/// Event-loop tuning, kept separate from [`ServeOptions`] so that
/// struct stays literally constructible in existing callers. Defaults
/// apply under [`Server::start`] and [`Server::start_with`]; pass your
/// own via [`Server::start_tuned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopOptions {
    /// Use the readiness-driven event loop (keep-alive, pipelining,
    /// admission control) when the platform supports it;
    /// `false` forces the blocking one-request-per-connection path.
    pub event_loop: bool,
    /// How many requests one keep-alive connection may carry before the
    /// server closes it (`connection: close` on the last response); a
    /// rebalancing guard against permanently-pinned connections.
    pub max_requests_per_conn: u32,
    /// Shrink accepted sockets' kernel send buffer (`SO_SNDBUF`) to
    /// this many bytes. An ops/test knob: the stalled-reader suite uses
    /// it to hit [`ServeOptions::write_timeout`] deterministically.
    pub sndbuf: Option<usize>,
}

impl Default for LoopOptions {
    fn default() -> LoopOptions {
        LoopOptions {
            event_loop: true,
            max_requests_per_conn: 256,
            sndbuf: None,
        }
    }
}

/// A running server: a bound listener and a reactor (or accept) thread
/// handing requests to the shared worker pool. Dropping the server
/// shuts it down, waits for dispatched requests, and joins the thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// The event loop's wake fd — the explicit shutdown signal. `None`
    /// on the blocking path, which polls the flag instead; neither
    /// relies on the old self-connect poke (which could race, or
    /// silently fail on wildcard/IPv6 binds).
    wake: Option<fgbs_reactor::Waker>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:8422`; port 0 picks a free port) and
    /// serve `service` on `threads` connection workers (0 = one per
    /// core) with default timeouts and limits.
    pub fn start(addr: &str, threads: usize, service: Arc<Service>) -> io::Result<Server> {
        Server::start_with(addr, threads, service, ServeOptions::default())
    }

    /// [`Server::start`] with explicit timeouts and request limits and
    /// default [`LoopOptions`].
    pub fn start_with(
        addr: &str,
        threads: usize,
        service: Arc<Service>,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        Server::start_tuned(addr, threads, service, opts, LoopOptions::default())
    }

    /// [`Server::start_with`] plus explicit event-loop tuning.
    ///
    /// Prefers the event-driven loop (epoll reactor); where that is
    /// unsupported — or disabled via [`LoopOptions::event_loop`] — it
    /// falls back to a blocking accept loop with a non-blocking
    /// listener polled against the shutdown flag.
    pub fn start_tuned(
        addr: &str,
        threads: usize,
        service: Arc<Service>,
        opts: ServeOptions,
        tuning: LoopOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        #[cfg(not(target_os = "linux"))]
        let _ = tuning;

        #[cfg(target_os = "linux")]
        if tuning.event_loop {
            if let Ok(dup) = listener.try_clone() {
                if let Ok(handle) = event::spawn(
                    dup,
                    threads,
                    Arc::clone(&service),
                    opts,
                    tuning,
                    Arc::clone(&shutdown),
                ) {
                    return Ok(Server {
                        addr: local,
                        shutdown,
                        wake: Some(handle.waker),
                        accept: Some(handle.thread),
                    });
                }
            }
        }

        // Blocking fallback: one request per connection, one pool job
        // per connection. The listener is non-blocking so the accept
        // loop can observe the shutdown flag without being poked.
        listener.set_nonblocking(true)?;
        let flag = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name("fgbs-accept".to_string())
            .spawn(move || {
                let pool = WorkPool::new(threads);
                // Every connection job holds a sender until it is done.
                let (open, all_done) = std::sync::mpsc::channel::<()>();
                while !flag.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Chaos failpoint: a `delay` rule stalls the
                            // accept loop, simulating backpressure.
                            fgbs_fault::maybe_delay("serve.accept");
                            // Accepted sockets must block: the workers
                            // use plain timed reads/writes.
                            if stream.set_nonblocking(false).is_err() {
                                continue;
                            }
                            let (svc, open) = (Arc::clone(&service), open.clone());
                            pool.submit(move || {
                                let _open = open;
                                handle_connection(stream, &svc, opts);
                            });
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
                // In-flight connections finish before shutdown returns:
                // the receive fails once the last sender is gone.
                drop(open);
                let _ = all_done.recv();
            })?;
        Ok(Server {
            addr: local,
            shutdown,
            wake: None,
            accept: Some(accept),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight connections, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(handle) = self.accept.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::Release);
        // The event loop blocks in `wait()`: signal its wake fd. The
        // blocking fallback polls the flag on a short cadence, so
        // neither path needs (racy) self-connect trickery.
        if let Some(waker) = &self.wake {
            let _ = waker.wake();
        }
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serve one connection: parse, handle, respond, close. Failures that
/// leave no way to answer the client (timeout configuration, a write
/// that stalled past its deadline, injected socket faults) are counted
/// and the connection dropped — the worker moves on either way.
fn handle_connection(mut stream: TcpStream, service: &Service, opts: ServeOptions) {
    if serve_one(&mut stream, service, &opts).is_err() {
        fgbs_trace::stat("serve.conn_errors", 1);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The fallible body of [`handle_connection`]: configure socket
/// deadlines, parse, dispatch, respond. Parse failures still produce a
/// best-effort HTTP error response (400/408/413/501); only socket-level
/// failures propagate as `Err`.
fn serve_one(stream: &mut TcpStream, service: &Service, opts: &ServeOptions) -> io::Result<()> {
    stream.set_read_timeout(Some(opts.read_timeout))?;
    stream.set_write_timeout(Some(opts.write_timeout))?;
    fgbs_fault::maybe_io("serve.read")?;
    let response = match read_request_limited(stream, opts.max_body) {
        Ok(request) => guarded_handle(service, &request),
        Err(err) => {
            let status = err.status();
            if status == 408 {
                fgbs_trace::stat("serve.timeouts", 1);
            }
            Response::error(status, &format!("bad request: {err}"))
        }
    };
    fgbs_fault::maybe_io("serve.write")?;
    response.write_to(stream)
}

/// Dispatch into the service with a panic firewall: a handler bug takes
/// down one request (500 with a JSON body), never the worker thread.
pub(crate) fn guarded_handle(service: &Service, request: &Request) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.handle(request)))
        .unwrap_or_else(|_| {
            fgbs_trace::stat("serve.panics", 1);
            // The handler's RequestGuard unwound with it, so read the id
            // back from the global cursor is impossible — dump with the
            // ambient id (0 outside a request) and let the event window
            // carry the story.
            fgbs_trace::flightrec::trigger("panic", fgbs_trace::current_request_id());
            Response::error(500, "internal error: handler panicked")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbs_core::PipelineConfig;
    use fgbs_store::Store;
    use std::io::{Read as _, Write as _};

    fn test_service(dir: &std::path::Path) -> Arc<Service> {
        let store = Arc::new(Store::open(dir).unwrap());
        // Single-threaded pipeline: request-level concurrency comes from
        // the connection workers.
        Arc::new(Service::new(
            PipelineConfig::default().with_threads(1),
            store,
        ))
    }

    /// A parsed `GET` for `target` (path plus optional query).
    fn get_request(target: &str) -> Request {
        let (path, qs) = target.split_once('?').unwrap_or((target, ""));
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: parse_query(qs),
            body: Vec::new(),
        }
    }

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        // `read_to_string` needs the server to close the connection, so
        // opt out of keep-alive explicitly.
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_health_and_404_over_tcp() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-{}", std::process::id()));
        let service = test_service(&dir);
        let server = Server::start("127.0.0.1:0", 2, service).unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, r#"{"ok":true}"#);

        let (head, body) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert!(body.contains("no such endpoint"));

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_clients_time_out_without_wedging_the_worker() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-stall-{}", std::process::id()));
        let service = test_service(&dir);
        let opts = ServeOptions {
            read_timeout: Duration::from_millis(100),
            ..ServeOptions::default()
        };
        // One worker: a wedged connection would starve every later
        // request, so the health check below doubles as the liveness
        // assertion.
        let server = Server::start_with("127.0.0.1:0", 1, service, opts).unwrap();
        let addr = server.addr();

        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /health HT").unwrap();

        let t0 = std::time::Instant::now();
        let (head, _) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "worker stayed wedged for {:?}",
            t0.elapsed()
        );

        // The stalled client is told why before the connection closes.
        let mut raw = String::new();
        let _ = stalled.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_bodies_get_413_over_tcp() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-413-{}", std::process::id()));
        let service = test_service(&dir);
        let opts = ServeOptions {
            max_body: 64,
            ..ServeOptions::default()
        };
        let server = Server::start_with("127.0.0.1:0", 1, service, opts).unwrap();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // The declared length alone trips the limit — no body bytes sent.
        stream
            .write_all(b"POST /reduce HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
        assert!(raw.contains("4096 bytes exceeds the 64-byte limit"), "{raw}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_sheds_only_doomed_deadline_requests() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-adm-{}", std::process::id()));
        let service = test_service(&dir);
        let req = get_request;

        // No deadline, or no queue, or no latency history: never shed.
        assert!(service.admission_check(&req("/predict?suite=nr"), 9).is_none());
        assert!(service
            .admission_check(&req("/predict?suite=nr&deadline_ms=1"), 0)
            .is_none());
        assert!(service
            .admission_check(&req("/predict?suite=nr&deadline_ms=1"), 9)
            .is_none());

        // With history: 10 queued × ~5ms each cannot meet a 1ms budget…
        service.metrics().record("predict", 5_000);
        let shed = service
            .admission_check(&req("/predict?suite=nr&deadline_ms=1"), 10)
            .expect("predicted delay exceeds the deadline");
        assert_eq!(shed.status, 503);
        let body = String::from_utf8(shed.body.clone()).unwrap();
        assert!(body.contains(r#""stage":"admission""#), "{body}");
        assert_eq!(service.shed(), 1);

        // …but a roomy deadline sails through, as do endpoints outside
        // the admission contract even when doomed.
        assert!(service
            .admission_check(&req("/predict?suite=nr&deadline_ms=60000"), 10)
            .is_none());
        assert!(service
            .admission_check(&req("/health?deadline_ms=1"), 10)
            .is_none());
        assert_eq!(service.shed(), 1, "only the doomed /predict shed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_cold_endpoints_profile_a_suite_once() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-memo-{}", std::process::id()));
        let service = test_service(&dir);
        let start = std::sync::Barrier::new(2);
        let call = |target: &str| {
            start.wait();
            service.handle(&get_request(target)).status
        };
        let statuses = std::thread::scope(|s| {
            let predict = s.spawn(|| call("/predict?suite=nr&target=atom&k=3"));
            let sweep = s.spawn(|| call("/sweep?suite=nr&target=atom&kmax=3"));
            [predict.join().unwrap(), sweep.join().unwrap()]
        });
        assert_eq!(statuses, [200, 200]);
        assert_eq!(service.metrics().count("stage.profile"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_requests_get_400() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-bad-{}", std::process::id()));
        let service = test_service(&dir);
        let server = Server::start("127.0.0.1:0", 1, service).unwrap();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
