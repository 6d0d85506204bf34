//! The readiness-driven serve loop (Linux).
//!
//! One reactor thread owns the listener, every connection's
//! [`Conn`] state machine, and an epoll [`Poller`]; request handling
//! runs as jobs on the process-wide [`WorkPool`]. The cycle per reactor
//! turn:
//!
//! 1. `wait` for readiness (or the nearest connection deadline).
//! 2. Accept new connections; pump readable/writable connections
//!    through their state machines, collecting parsed requests.
//! 3. Drain handler completions (pushed by pool workers, who wake the
//!    reactor through the poller's wake fd) into response writes.
//! 4. Enforce read/write deadlines (`408`, idle close, poisoning).
//! 5. Submit the turn's requests: each passes **admission control**
//!    (shed with a `503` when `queue depth × EWMA endpoint latency`
//!    already exceeds its deadline, the depth being the loop's own
//!    count of dispatched, unanswered requests), then becomes one pool
//!    job. Requests never share a job, so a store hit never waits out
//!    another request's computation.
//!
//! Shutdown is an atomic flag plus a wake-fd signal — no self-connect.
//! The loop stops accepting and reading, waits until every dispatched
//! request is answered, and gives each response a best-effort final
//! flush.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fgbs_pool::WorkPool;
use fgbs_reactor::{Interest, Poller, Waker, WAKE_TOKEN};
use parking_lot::Mutex;

use crate::conn::{Conn, State, Step};
use crate::http::{Request, Response};
use crate::{guarded_handle, ServeOptions, Service};

const LISTENER_TOKEN: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 2;

/// A running event loop: its thread and the wake handle that makes
/// shutdown (or any cross-thread signal) immediate.
pub(crate) struct Handle {
    pub(crate) waker: Waker,
    pub(crate) thread: JoinHandle<()>,
}

/// Start the reactor thread over `listener`. Fails with
/// `ErrorKind::Unsupported` where epoll is unavailable — the caller
/// falls back to the blocking accept loop.
pub(crate) fn spawn(
    listener: TcpListener,
    threads: usize,
    service: Arc<Service>,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
) -> io::Result<Handle> {
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
    let waker = poller.waker();
    let state = Loop {
        poller,
        listener,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        pool: WorkPool::new(threads),
        dispatches: Vec::new(),
        pending: 0,
        completions: Arc::new(Mutex::new(Vec::new())),
        waker: waker.clone(),
        service,
        opts,
        shutdown,
    };
    let thread = std::thread::Builder::new()
        .name("fgbs-event".to_string())
        .spawn(move || state.run())?;
    Ok(Handle { waker, thread })
}

struct Registered {
    conn: Conn<TcpStream>,
    interest: Interest,
}

struct Loop {
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Registered>,
    next_token: u64,
    pool: WorkPool,
    /// Requests parsed this turn, waiting for admission and submission.
    dispatches: Vec<(u64, Request)>,
    /// Requests submitted to the pool whose responses have not been
    /// drained yet: the admission queue depth and the shutdown latch.
    pending: u64,
    completions: Arc<Mutex<Vec<(u64, Response)>>>,
    waker: Waker,
    service: Arc<Service>,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
}

impl Loop {
    fn run(mut self) {
        let mut events = Vec::new();
        while !self.shutdown.load(Ordering::Acquire) {
            if self.poller.wait(&mut events, self.next_timeout()).is_err()
                || self.shutdown.load(Ordering::Acquire)
            {
                break;
            }
            let now = Instant::now();
            for &ev in &events {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept(now),
                    token => self.on_conn_event(token, ev, now),
                }
            }
            for (token, response) in self.take_completions() {
                self.complete(token, response, now);
            }
            self.tick(now);
            self.submit(now);
        }
        self.finish();
    }

    /// The nearest connection deadline bounds the wait; with none, the
    /// wake fd is the only signal needed (completions, shutdown).
    fn next_timeout(&self) -> Option<Duration> {
        let next = self
            .conns
            .values()
            .filter_map(|r| r.conn.next_deadline())
            .min()?;
        Some(next.saturating_duration_since(Instant::now()))
    }

    fn accept(&mut self, now: Instant) {
        // Until `WouldBlock` (the backlog is drained) or an error, which
        // the next readiness turn retries.
        while let Ok((stream, _)) = self.listener.accept() {
            // Chaos failpoint: a `delay` rule stalls the accept path,
            // simulating listener backpressure.
            fgbs_fault::maybe_delay("serve.accept");
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if let Some(bytes) = self.opts.sndbuf {
                let _ = fgbs_reactor::set_send_buffer(stream.as_raw_fd(), bytes);
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            self.conns.insert(
                token,
                Registered {
                    conn: Conn::new(stream, now, self.opts),
                    interest: Interest::READABLE,
                },
            );
        }
    }

    fn on_conn_event(&mut self, token: u64, ev: fgbs_reactor::Event, now: Instant) {
        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        let step = match reg.conn.state() {
            State::Reading if ev.readable => {
                if fgbs_fault::maybe_io("serve.read").is_err() {
                    fgbs_trace::stat("serve.conn_errors", 1);
                    Step::Close
                } else {
                    let step = reg.conn.on_readable(now);
                    // A parse error / EOF verdict queues its response
                    // synchronously; push it out without another turn.
                    match step {
                        Step::Wait if reg.conn.state() == State::Writing => {
                            reg.conn.on_writable(now)
                        }
                        s => s,
                    }
                }
            }
            State::Writing if ev.writable => {
                if fgbs_fault::maybe_io("serve.write").is_err() {
                    fgbs_trace::stat("serve.conn_errors", 1);
                    Step::Close
                } else {
                    reg.conn.on_writable(now)
                }
            }
            // Hang-up while a request is dispatched: the response is
            // still owed; the write (or the post-response read) will
            // observe the close.
            _ => Step::Wait,
        };
        self.apply(token, step);
    }

    /// Responses posted by workers since the last call; each one
    /// answers a pending request.
    fn take_completions(&mut self) -> Vec<(u64, Response)> {
        let done = std::mem::take(&mut *self.completions.lock());
        self.pending -= done.len() as u64;
        done
    }

    /// Hand a finished response to its connection and start (or finish)
    /// writing it immediately.
    fn complete(&mut self, token: u64, response: Response, now: Instant) {
        let Some(reg) = self.conns.get_mut(&token) else {
            return; // connection died while the handler ran
        };
        reg.conn.on_response(response, now);
        let step = reg.conn.on_writable(now);
        self.apply(token, step);
    }

    fn tick(&mut self, now: Instant) {
        let due: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, r)| r.conn.next_deadline().is_some_and(|d| d <= now))
            .map(|(&t, _)| t)
            .collect();
        for token in due {
            let Some(reg) = self.conns.get_mut(&token) else {
                continue;
            };
            let step = match reg.conn.on_tick(now) {
                // A 408 was queued: push it out now.
                Step::Wait if reg.conn.state() == State::Writing => reg.conn.on_writable(now),
                s => s,
            };
            self.apply(token, step);
        }
    }

    fn apply(&mut self, token: u64, step: Step) {
        match step {
            Step::Wait => self.sync_interest(token),
            Step::Dispatch(request) => {
                self.dispatches.push((token, request));
                self.sync_interest(token);
            }
            Step::Close => self.close(token),
        }
    }

    fn sync_interest(&mut self, token: u64) {
        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = match reg.conn.state() {
            State::Reading => Interest::READABLE,
            // Backpressure: while a request is dispatched, stop reading
            // — pipelined bytes wait in the socket buffer.
            State::Dispatched => Interest::NONE,
            State::Writing => Interest::WRITABLE,
        };
        if reg.interest != desired {
            if self
                .poller
                .modify(reg.conn.stream().as_raw_fd(), token, desired)
                .is_err()
            {
                self.close(token);
                return;
            }
            if let Some(reg) = self.conns.get_mut(&token) {
                reg.interest = desired;
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(reg) = self.conns.remove(&token) {
            let _ = self.poller.deregister(reg.conn.stream().as_raw_fd());
        }
    }

    /// Submit the turn's parsed requests. Each is admission-checked
    /// against the requests already dispatched and unanswered; each
    /// survivor becomes one pool job.
    fn submit(&mut self, now: Instant) {
        while !self.dispatches.is_empty() {
            for (token, request) in std::mem::take(&mut self.dispatches) {
                if let Some(shed) = self.service.admission_check(&request, self.pending) {
                    // Answer right here — shedding must not consume the
                    // queue capacity it is protecting. Writing the 503
                    // may surface the connection's next pipelined
                    // request; it joins `dispatches` for the next round
                    // of this loop.
                    self.complete(token, shed, now);
                    continue;
                }
                self.pending += 1;
                let svc = Arc::clone(&self.service);
                let completions = Arc::clone(&self.completions);
                let waker = self.waker.clone();
                self.pool.submit(move || {
                    let response = guarded_handle(&svc, &request);
                    completions.lock().push((token, response));
                    let _ = waker.wake();
                });
            }
        }
    }

    /// Graceful shutdown: stop accepting and reading, wait until every
    /// dispatched request is answered, and give each response one
    /// best-effort write.
    fn finish(mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        for reg in self.conns.values() {
            let _ = self.poller.deregister(reg.conn.stream().as_raw_fd());
        }
        // Only the wake fd is left registered, so each wait below ends
        // when a worker posts a completion.
        let mut events = Vec::new();
        loop {
            let now = Instant::now();
            for (token, response) in self.take_completions() {
                if let Some(reg) = self.conns.get_mut(&token) {
                    reg.conn.on_response(response, now);
                    let _ = reg.conn.on_writable(now);
                }
            }
            if self.pending == 0 || self.poller.wait(&mut events, None).is_err() {
                break;
            }
        }
    }
}
