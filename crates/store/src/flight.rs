//! Single-flight deduplication of concurrent identical computations.
//!
//! When N requests for the same key arrive together, exactly one (the
//! *leader*) runs the computation; the other N−1 (the *followers*) block
//! until the leader finishes and then share its result. Combined with the
//! store this gives the serve daemon its "concurrent identical queries
//! compute once" guarantee: the leader computes and persists, followers
//! coalesce, and later requests hit the store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A slot the leader fills and followers wait on: `None` while the
/// flight is up, `Some(None)` if the leader unwound without a value,
/// `Some(Some(v))` once it landed.
#[derive(Debug)]
struct Slot<V> {
    value: Mutex<Option<Option<V>>>,
    ready: Condvar,
}

impl<V> Slot<V> {
    fn new() -> Slot<V> {
        Slot {
            value: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

/// The leader's hold on a flight. Dropping it — after `compute`
/// returns or while a panic unwinds out of it — removes the flight and
/// wakes the followers, so a failed leader never strands them.
struct Landing<'a, V> {
    group: &'a SingleFlight<V>,
    key: &'a str,
    slot: &'a Slot<V>,
    value: Option<V>,
}

impl<V> Drop for Landing<'_, V> {
    fn drop(&mut self) {
        self.group
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(self.key);
        *self.slot.value.lock().unwrap_or_else(|e| e.into_inner()) = Some(self.value.take());
        self.slot.ready.notify_all();
    }
}

/// Keyed single-flight group with flight/coalesce counters.
///
/// Values are cloned out to every follower, so `V` should be cheap to
/// clone (the serve daemon stores `Arc`'d response bodies).
#[derive(Debug, Default)]
pub struct SingleFlight<V> {
    inflight: Mutex<HashMap<String, Arc<Slot<V>>>>,
    flights: AtomicU64,
    coalesced: AtomicU64,
}

impl<V: Clone> SingleFlight<V> {
    /// An empty group.
    pub fn new() -> SingleFlight<V> {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
            flights: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Run `compute` for `key`, deduplicating concurrent callers.
    ///
    /// Returns `(value, led)`: `led` is true for the caller that actually
    /// executed `compute`. The flight entry is removed once the leader
    /// finishes, so a *later* call with the same key starts a fresh flight
    /// — persistent memoisation is the store's job, not this type's. If
    /// the leader panics, its panic propagates to it alone and each
    /// follower runs the key again, one of them as the new leader.
    pub fn run(&self, key: &str, compute: impl FnOnce() -> V) -> (V, bool) {
        loop {
            let (slot, leader) = {
                let mut m = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
                match m.get(key) {
                    Some(s) => (Arc::clone(s), false),
                    None => {
                        let s = Arc::new(Slot::new());
                        m.insert(key.to_string(), Arc::clone(&s));
                        (s, true)
                    }
                }
            };

            if leader {
                self.flights.fetch_add(1, Ordering::Relaxed);
                // Leadership depends on arrival timing, so these are stats,
                // not deterministic counters.
                fgbs_trace::stat("flight.flights", 1);
                let mut landing = Landing {
                    group: self,
                    key,
                    slot: &slot,
                    value: None,
                };
                let v = compute();
                landing.value = Some(v.clone());
                return (v, true);
            }
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            fgbs_trace::stat("flight.coalesced", 1);
            let mut g = slot.value.lock().unwrap_or_else(|e| e.into_inner());
            while g.is_none() {
                g = slot.ready.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            if let Some(Some(v)) = &*g {
                return (v.clone(), false);
            }
        }
    }

    /// Number of computations actually executed (leaders).
    pub fn flights(&self) -> u64 {
        self.flights.load(Ordering::Relaxed)
    }

    /// Number of callers that shared a leader's result instead of
    /// computing.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn serial_calls_each_fly() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let (a, led_a) = sf.run("k", || 1);
        let (b, led_b) = sf.run("k", || 2);
        assert_eq!((a, led_a), (1, true));
        assert_eq!((b, led_b), (2, true), "finished flights do not linger");
        assert_eq!(sf.flights(), 2);
        assert_eq!(sf.coalesced(), 0);
    }

    #[test]
    fn concurrent_identical_keys_compute_once() {
        let sf: SingleFlight<u64> = SingleFlight::new();
        let computed = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let results: Vec<(u64, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        sf.run("same", || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so followers pile up.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            99
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All callers that overlapped the leader coalesced; anyone who
        // arrived after it finished led a new flight. With a 30 ms hold
        // and a barrier start, overlap is overwhelmingly likely but each
        // flight still computes exactly once.
        assert!(results.iter().all(|&(v, _)| v == 99));
        let leaders = results.iter().filter(|&&(_, led)| led).count();
        assert_eq!(computed.load(Ordering::SeqCst), leaders);
        assert_eq!(sf.flights() as usize, leaders);
        assert_eq!(sf.coalesced() as usize, 8 - leaders);
    }

    #[test]
    fn a_panicking_leader_does_not_strand_its_key() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let started = Arc::new(Barrier::new(2));
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let (sf, started) = (Arc::clone(&sf), Arc::clone(&started));
            std::thread::spawn(move || {
                started.wait();
                tx.send(sf.run("k", || 7)).unwrap();
            });
        }
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sf.run("k", || {
                started.wait();
                // Let the follower join the flight before it fails.
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("leader failed")
            })
        }));
        assert!(failed.is_err());
        // Whether it coalesced onto the failed flight or arrived after
        // it, the follower ends up computing the value itself.
        let follower = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the follower was stranded");
        assert_eq!(follower, (7, true));
        assert_eq!(sf.run("k", || 8), (8, true), "the key is free again");
    }

    #[test]
    fn distinct_keys_do_not_block_each_other() {
        let sf: SingleFlight<&'static str> = SingleFlight::new();
        let (a, _) = sf.run("x", || "x-val");
        let (b, _) = sf.run("y", || "y-val");
        assert_eq!((a, b), ("x-val", "y-val"));
        assert_eq!(sf.flights(), 2);
    }
}
