//! The measured workloads behind each registry [`Stage`].
//!
//! Every stage builds its inputs *outside* the timed region, runs one
//! untimed warm-up operation, then records `samples` wall-clock samples
//! of `batch` operations each on the calibrated trace clock
//! (`fgbs_trace::now_ns` — the same time source the spans use). Sample
//! values are per-op nanoseconds.
//!
//! Stages that need the trace collector enabled (`trace_span`,
//! `pipeline_reduce_traced`) enable it for their duration and restore
//! the previous state — when a `--trace` run already has the collector
//! on, they leave it on and keep their (deterministic) spans in the
//! trace, so the bench runner honours the thread-invariant digest
//! contract.

use std::hint::black_box;

use fgbs_clustering::{linkage, medoid, normalize, DistanceMatrix, Linkage, MaskedDistanceCache};
use fgbs_clustering::naive_linkage;
use fgbs_core::{profile_reference, reduce_cached, select_features_ga, KChoice, MicroCache, PipelineConfig};
use fgbs_genetic::GaConfig;
use fgbs_isa::{
    compile, Binding, BindingBuilder, CodeletBuilder, CompileMode, CompiledKernel, Precision,
};
use fgbs_machine::{Arch, Machine, PARK_SCALE};
use fgbs_matrix::Matrix;
use fgbs_pool::WorkPool;
use fgbs_serve::{loadgen, ServeOptions, Server, Service};
use fgbs_snippet::{build_pack, encode_pack, parse_pack, replay_pack, snippet_digest, verify_pack};
use fgbs_store::{ArtifactKind, Store};
use fgbs_suites::{bigdata_suite, nas_suite, nr_suite, Class};

use super::registry::{BenchDef, Stage};

/// One splitmix64 step — the calibration spin and the synthetic data
/// generator share it.
#[inline]
fn splitmix(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Deterministic synthetic observation matrix: `n` codelets in 7 loose
/// blobs over `cols` features, rows in generic position (no exactly
/// tied distances). The same shape `bench_json` used, so the recorded
/// trajectory stays comparable with the old `BENCH_clustering.json`.
fn observations(n: usize, cols: usize) -> Matrix {
    let unit = |seed: u64| (splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..cols)
                .map(|j| (i % 7) as f64 * 10.0 + unit((i * cols + j) as u64))
                .collect()
        })
        .collect();
    normalize(&Matrix::from_rows(&rows))
}

/// Time one batch of `op` calls; returns per-op nanoseconds.
fn time_batch(batch: u64, op: &mut impl FnMut(u64)) -> f64 {
    let t0 = fgbs_trace::now_ns();
    for i in 0..batch {
        op(i);
    }
    let dt = fgbs_trace::now_ns().saturating_sub(t0);
    dt as f64 / batch as f64
}

/// One warm-up op, then `samples` timed batches.
fn run_samples(batch: u64, samples: usize, mut op: impl FnMut(u64)) -> Vec<f64> {
    op(0);
    (0..samples).map(|_| time_batch(batch, &mut op)).collect()
}

/// Enable the trace collector for a closure, restoring the previous
/// state afterwards. When the collector was off, the spans recorded
/// inside are drained away so a plain `fgbs bench` leaves no residue.
fn with_trace_enabled<T>(f: impl FnOnce() -> T) -> T {
    let was_on = fgbs_trace::enabled();
    if !was_on {
        fgbs_trace::set_enabled(true);
    }
    let out = f();
    if !was_on {
        fgbs_trace::set_enabled(false);
        let _ = fgbs_trace::drain();
    }
    out
}

/// Arm or disarm the flight recorder for a closure, restoring the
/// previous state afterwards. The traced-pipeline entries use it to
/// separate the span cost (recorder off) from the full production
/// posture (recorder on); `set_enabled(true)` arms it as a side
/// effect, so the disarm direction matters.
fn with_flightrec_armed<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let was = fgbs_trace::flightrec::armed();
    fgbs_trace::flightrec::arm(on);
    let out = f();
    fgbs_trace::flightrec::arm(was);
    out
}

/// Execute `def`'s workload and return `samples` per-op nanosecond
/// samples. `effective_threads` substitutes for `threads: 0` entries.
pub fn measure(def: &BenchDef, samples: usize, effective_threads: usize) -> Result<Vec<f64>, String> {
    let threads = if def.threads == 0 {
        effective_threads
    } else {
        def.threads
    };
    let batch = def.batch;
    let out = match def.stage {
        Stage::Calibrate => {
            let n = def.size as u64;
            run_samples(batch, samples, |i| {
                let mut acc = 0x243F_6A88_85A3_08D3u64 ^ i;
                for k in 0..n {
                    acc = acc.wrapping_add(splitmix(acc ^ k));
                }
                black_box(acc);
            })
        }
        Stage::Distance => {
            let data = observations(def.size, 14);
            let pool = WorkPool::new(threads);
            run_samples(batch, samples, |_| {
                black_box(DistanceMatrix::euclidean_with(&data, &pool));
            })
        }
        Stage::LinkageNnChain => {
            let d = DistanceMatrix::euclidean(&observations(def.size, 14));
            run_samples(batch, samples, |_| {
                black_box(linkage(&d, Linkage::Ward));
            })
        }
        Stage::LinkageNaive => {
            let d = DistanceMatrix::euclidean(&observations(def.size, 14));
            run_samples(batch, samples, |_| {
                black_box(naive_linkage(&d, Linkage::Ward));
            })
        }
        Stage::Medoid => {
            let data = observations(def.size, 14);
            let dend = linkage(&DistanceMatrix::euclidean(&data), Linkage::Ward);
            let k = 8.min(def.size);
            let part = dend.cut(k);
            run_samples(batch, samples, |_| {
                for c in 0..k {
                    black_box(medoid(&data, &part, c, &[]));
                }
            })
        }
        Stage::GaMaskedCold => {
            let z = observations(def.size, 76);
            let all: Vec<usize> = (0..64).collect();
            run_samples(batch, samples, |_| {
                black_box(MaskedDistanceCache::new(z.clone()).distances(&all));
            })
        }
        Stage::GaMaskedPatch => {
            let z = observations(def.size, 76);
            let all: Vec<usize> = (0..64).collect();
            let mut flipped = all.clone();
            flipped.remove(3);
            flipped.push(70);
            let pool = WorkPool::new(threads);
            let mut cache = MaskedDistanceCache::new(z);
            let _ = cache.distances_with(&all, &pool);
            let mut turn = false;
            run_samples(batch, samples, move |_| {
                // Alternate two masks two bits apart: every op patches.
                turn = !turn;
                black_box(cache.distances_with(if turn { &flipped } else { &all }, &pool));
            })
        }
        Stage::GaSelect => {
            let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(def.size).collect();
            let cfg = PipelineConfig::fast().with_threads(threads);
            let suite = profile_reference(&apps, &cfg);
            let targets = vec![Arch::atom().scaled(PARK_SCALE)];
            let ga = GaConfig {
                population: 12,
                generations: 4,
                ..GaConfig::default()
            };
            run_samples(batch, samples, |_| {
                black_box(select_features_ga(&suite, &targets, &ga, &cfg));
            })
        }
        Stage::StorePublish => {
            let root = bench_dir("publish");
            let store = Store::open(&root).map_err(|e| format!("bench store: {e}"))?;
            let payload = vec![0xA5u8; def.size];
            let mut next_key = 0u64;
            let out = run_samples(batch, samples, |_| {
                // A fresh key every op: each publish frames, checksums
                // and fsyncs a new object — no dedup short-circuit.
                next_key += 1;
                store
                    .put(ArtifactKind::Response, &format!("bench-{next_key}"), &payload)
                    .expect("bench store put");
            });
            let _ = std::fs::remove_dir_all(&root);
            out
        }
        Stage::StoreReplay => {
            let root = bench_dir("replay");
            let store = Store::open(&root).map_err(|e| format!("bench store: {e}"))?;
            let payload = vec![0x5Au8; def.size];
            let keys: Vec<String> = (0..16).map(|i| format!("bench-{i}")).collect();
            for k in &keys {
                store
                    .put(ArtifactKind::Response, k, &payload)
                    .map_err(|e| format!("bench store seed: {e}"))?;
            }
            let out = run_samples(batch, samples, |i| {
                let got = store
                    .get(ArtifactKind::Response, &keys[(i % 16) as usize])
                    .expect("bench store get");
                black_box(got);
            });
            let _ = std::fs::remove_dir_all(&root);
            out
        }
        Stage::TraceSpan => {
            // A bounded buffer keeps the span loops from accumulating
            // memory; eviction cost is part of the honest price. Under
            // `--trace` the collector is already on — leave its
            // capacity (and the user's spans) alone.
            let was_on = fgbs_trace::enabled();
            if !was_on {
                fgbs_trace::set_capacity(8192);
            }
            let out = with_trace_enabled(|| {
                run_samples(batch, samples, |i| {
                    let mut s = fgbs_trace::span("bench.span");
                    s.arg_u64("i", i);
                })
            });
            if !was_on {
                fgbs_trace::set_capacity(0);
            }
            out
        }
        Stage::FaultProbe => run_samples(batch, samples, |_| {
            black_box(fgbs_fault::maybe_io("bench.probe")).ok();
        }),
        Stage::PipelineReduce => {
            let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(def.size).collect();
            let cfg = PipelineConfig::fast()
                .with_k(KChoice::Fixed(4))
                .with_threads(threads);
            run_samples(batch, samples, |_| {
                let suite = profile_reference(&apps, &cfg);
                black_box(reduce_cached(&suite, &cfg, &MicroCache::new()));
            })
        }
        Stage::PipelineReduceTraced => {
            let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(def.size).collect();
            let cfg = PipelineConfig::fast()
                .with_k(KChoice::Fixed(4))
                .with_threads(threads);
            with_trace_enabled(|| {
                with_flightrec_armed(false, || {
                    run_samples(batch, samples, |_| {
                        let suite = profile_reference(&apps, &cfg);
                        black_box(reduce_cached(&suite, &cfg, &MicroCache::new()));
                    })
                })
            })
        }
        Stage::PipelineReduceTracedArmed => {
            let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(def.size).collect();
            let cfg = PipelineConfig::fast()
                .with_k(KChoice::Fixed(4))
                .with_threads(threads);
            with_trace_enabled(|| {
                with_flightrec_armed(true, || {
                    run_samples(batch, samples, |_| {
                        let suite = profile_reference(&apps, &cfg);
                        black_box(reduce_cached(&suite, &cfg, &MicroCache::new()));
                    })
                })
            })
        }
        Stage::ObsFlightrecRecord => {
            // The ring is bounded: a long batch overwrites the oldest
            // slot, which is the honest steady-state cost. The explicit
            // timestamp mirrors the span path (it reuses the span's end
            // time instead of reading the clock twice).
            with_flightrec_armed(true, || {
                run_samples(batch, samples, |i| {
                    fgbs_trace::flightrec::record_at(
                        i,
                        fgbs_trace::flightrec::EventKind::Note,
                        "bench.obs",
                        i,
                    );
                })
            })
        }
        Stage::ObsHistRecord => {
            let h = fgbs_trace::hist::Histogram::new();
            run_samples(batch, samples, |i| {
                h.record(i);
            })
        }
        Stage::SnippetPack => {
            let apps: Vec<_> = bigdata_suite(Class::Test)
                .into_iter()
                .take(def.size)
                .collect();
            let pool = WorkPool::new(threads);
            run_samples(batch, samples, |_| {
                let pack = build_pack("bench", "bigdata", "class=test", &apps, &pool)
                    .expect("bench pack builds");
                black_box(encode_pack(&pack));
            })
        }
        Stage::SnippetUnpackVerify => {
            let apps: Vec<_> = bigdata_suite(Class::Test)
                .into_iter()
                .take(def.size)
                .collect();
            let pool = WorkPool::new(threads);
            let bytes = encode_pack(
                &build_pack("bench", "bigdata", "class=test", &apps, &pool)
                    .map_err(|e| format!("bench pack: {e}"))?,
            );
            run_samples(batch, samples, |_| {
                black_box(verify_pack(&bytes).expect("bench pack verifies"));
            })
        }
        Stage::SnippetReplay => {
            let apps: Vec<_> = bigdata_suite(Class::Test)
                .into_iter()
                .take(def.size)
                .collect();
            let pool = WorkPool::new(threads);
            let bytes = encode_pack(
                &build_pack("bench", "bigdata", "class=test", &apps, &pool)
                    .map_err(|e| format!("bench pack: {e}"))?,
            );
            let pack = parse_pack(&bytes).map_err(|e| format!("bench pack parse: {e}"))?;
            run_samples(batch, samples, |_| {
                let report = replay_pack(&pack, &pool).expect("bench replay runs");
                assert!(report.all_ok(), "bench replay met its contract");
                black_box(report);
            })
        }
        Stage::ServeLoadEvent => serve_load(true, ServeStat::Mean, def.size, threads, samples)?,
        Stage::ServeLoadBlocking => {
            serve_load(false, ServeStat::Mean, def.size, threads, samples)?
        }
        Stage::ServeLoadEventP99 => serve_load(true, ServeStat::P99, def.size, threads, samples)?,
        Stage::ServeLoadBlockingP99 => {
            serve_load(false, ServeStat::P99, def.size, threads, samples)?
        }
        Stage::ServeLoadEventWall => serve_load(true, ServeStat::Wall, def.size, threads, samples)?,
        Stage::ServeLoadBlockingWall => {
            serve_load(false, ServeStat::Wall, def.size, threads, samples)?
        }
        Stage::PoolMapOverhead => {
            let pool = WorkPool::new(threads);
            run_samples(batch, samples, |_| {
                black_box(pool.map_indexed(def.size, black_box));
            })
        }
        Stage::ProfileRun => {
            let apps: Vec<_> = nas_suite(Class::Test).into_iter().take(def.size).collect();
            let cfg = PipelineConfig::default().with_threads(threads);
            run_samples(batch, samples, |_| {
                black_box(profile_reference(&apps, &cfg));
            })
        }
        Stage::SimulateMemory | Stage::SimulateCompute => {
            let (kernel, binding) = simulated_kernel(def.stage, def.size as u64);
            let mut machine = Machine::new(Arch::reference_scaled());
            run_samples(batch, samples, |_| {
                black_box(machine.run(&kernel, &binding));
            })
        }
        Stage::SnippetInproc => {
            // The replay gate's baseline: the same codelets and contexts
            // executed straight from the in-process suite, no pack in
            // between. `snippet/replay` must land within 5% of this.
            let apps: Vec<_> = bigdata_suite(Class::Test)
                .into_iter()
                .take(def.size)
                .collect();
            let pool = WorkPool::new(threads);
            run_samples(batch, samples, |_| {
                for app in &apps {
                    for ci in app.extractable() {
                        black_box(
                            snippet_digest(&app.codelets[ci], &app.contexts[ci], &pool)
                                .expect("bench inproc digest"),
                        );
                    }
                }
            })
        }
    };
    Ok(out)
}

/// Elements per array of the compute-bound kernel: two 2 KB arrays,
/// inside the scaled reference's 4 KB L1.
const COMPUTE_LANE: u64 = 256;

/// The simulator rows' kernels, compiled for the scaled reference.
/// `SimulateMemory` is a stream triad over three `n`-element arrays
/// (24·n bytes: 6 MB at n = 262144, four times the 1.5 MB L3);
/// `SimulateCompute` sweeps a divide and a square root over
/// [`COMPUTE_LANE`] elements `n / COMPUTE_LANE` times.
fn simulated_kernel(stage: Stage, n: u64) -> (CompiledKernel, Binding) {
    let (codelet, binding) = if stage == Stage::SimulateMemory {
        let c = CodeletBuilder::new("stream", "bench")
            .array("a", Precision::F64)
            .array("b", Precision::F64)
            .array("c", Precision::F64)
            .param_loop("n")
            .store("a", &[1], |e| e.load("b", &[1]) + e.load("c", &[1]) * 0.5)
            .build();
        let b = BindingBuilder::new(0)
            .vector(n, 8)
            .vector(n, 8)
            .vector(n, 8)
            .param(n)
            .build_for(&c);
        (c, b)
    } else {
        let c = CodeletBuilder::new("divide", "bench")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .fixed_loop((n / COMPUTE_LANE).max(1))
            .param_loop("n")
            .store("y", &[0, 1], |e| {
                e.load("x", &[0, 1]).sqrt() / (e.load("x", &[0, 1]) + 1.0)
            })
            .build();
        let b = BindingBuilder::new(0)
            .vector(COMPUTE_LANE, 8)
            .vector(COMPUTE_LANE, 8)
            .param(COMPUTE_LANE)
            .build_for(&c);
        (c, b)
    };
    let target = Arch::reference_scaled().target();
    (compile(&codelet, &target, CompileMode::InApp), binding)
}

/// A per-process scratch directory for store benchmarks.
fn bench_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fgbs-bench-{}-{tag}", std::process::id()))
}

/// Which statistic of a load run a serve stage samples.
#[derive(Debug, Clone, Copy)]
enum ServeStat {
    /// Mean per-request latency.
    Mean,
    /// 99th-percentile per-request latency.
    P99,
    /// Wall-clock nanoseconds per completed request — the reciprocal
    /// of throughput, kept in ns/op so gates and `cmp` read naturally
    /// (lower is better, like every other row).
    Wall,
}

/// Requests each loadgen connection issues per run. Fixed so the
/// `serve/*` row ids (keyed by connection count) stay comparable.
const SERVE_REQUESTS_PER_CONN: usize = 8;

/// One serve-load sample: spin up an in-process server (event loop or
/// blocking thread-per-connection), drive `conns` concurrent clients
/// through `fgbs_serve::loadgen`, and report the chosen statistic.
/// Keep-alive follows the server mode: the event loop is measured with
/// connection reuse (its strength), the blocking baseline with one
/// connection per request (its natural gait).
fn serve_load(
    event_loop: bool,
    stat: ServeStat,
    conns: usize,
    threads: usize,
    samples: usize,
) -> Result<Vec<f64>, String> {
    let dir = bench_dir(if event_loop { "serve-event" } else { "serve-blocking" });
    // `Service::new` switches the tracer on for the whole process, as
    // the daemon runs; switch it back off afterwards so the rows that
    // follow are measured untraced, as in a run filtered down to them.
    let was_traced = fgbs_trace::enabled();
    let store =
        std::sync::Arc::new(Store::open(&dir).map_err(|e| format!("bench serve store: {e}"))?);
    let service = std::sync::Arc::new(Service::new(
        PipelineConfig::fast().with_threads(1),
        store,
    ));
    let serve_opts = ServeOptions {
        event_loop,
        ..ServeOptions::default()
    };
    let server = Server::start_with("127.0.0.1:0", threads, service, serve_opts)
        .map_err(|e| format!("bench serve bind: {e}"))?;
    let opts = loadgen::LoadOptions {
        conns,
        requests: SERVE_REQUESTS_PER_CONN,
        keep_alive: event_loop,
        target: "/health".to_string(),
    };
    let _ = loadgen::run(server.addr(), &opts); // warm-up
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let report = loadgen::run(server.addr(), &opts);
        if report.ok == 0 {
            return Err("bench serve load: no request completed".to_string());
        }
        out.push(match stat {
            ServeStat::Mean => report.mean_ns(),
            ServeStat::P99 => report.p99_ns() as f64,
            ServeStat::Wall => report.elapsed.as_nanos() as f64 / report.ok as f64,
        });
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if !was_traced {
        fgbs_trace::set_enabled(false);
        let _ = fgbs_trace::drain();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barometer::registry::Registry;

    /// Every stage in the built-in registry must actually run. One
    /// sample each keeps this a smoke test, not a benchmark.
    #[test]
    fn every_builtin_stage_produces_finite_samples() {
        for def in &Registry::builtin().benchmarks {
            // The O(n³) scan at n=1024 is too slow for a unit test.
            if def.id.contains("n1024") || def.stage == Stage::GaSelect {
                continue;
            }
            let mut small = def.clone();
            small.batch = small.batch.min(64);
            // Serve rows spin real TCP servers: shrink the client fleet
            // so the smoke test stays a smoke test.
            if small.suite == "serve" {
                small.size = 4;
            }
            let samples = measure(&small, 1, 1).expect("workload runs");
            assert_eq!(samples.len(), 1);
            assert!(samples[0].is_finite() && samples[0] >= 0.0, "{}", def.id);
        }
    }

    #[test]
    fn simulator_rows_are_memory_and_compute_bound() {
        let arch = Arch::reference_scaled();
        let last = |stage| {
            let (kernel, binding) = simulated_kernel(stage, 262_144);
            let mut machine = Machine::new(arch.clone());
            machine.run(&kernel, &binding);
            machine.run(&kernel, &binding)
        };
        // Warm second runs: the stream still misses every cache level,
        // the divide loop never leaves L1.
        let memory = last(Stage::SimulateMemory);
        let compute = last(Stage::SimulateCompute);
        let misses = |m: &fgbs_machine::Measurement| *m.counters.cache_misses.last().unwrap();
        assert!(misses(&memory) > 10_000, "stream misses the L3: {memory:?}");
        assert_eq!(
            compute.counters.cache_misses[0], 0,
            "divide stays in L1: {compute:?}"
        );
    }

    #[test]
    fn observations_are_deterministic() {
        assert_eq!(
            observations(16, 14).row(3),
            observations(16, 14).row(3),
            "synthetic data must not depend on run order"
        );
    }
}
