//! `select_nas_b`: back-to-back cold `fgbs select` jobs on NAS class B.
//!
//! One caller, closed loop. Each job makes the calls `fgbs select`
//! makes — profile, reduce, evaluate every target, rank — with the
//! pipeline on all cores and no store. The simulator does most of the
//! work and the serve layers none.

use std::time::Instant;

use fgbs_core::{
    evaluate_targets, profile_reference, rank_targets, reduce_cached, KChoice, MicroCache,
    PipelineConfig, ProfiledSuite, ReducedSuite, TargetEvaluation,
};
use fgbs_extract::AppRun;
use fgbs_machine::Arch;
use fgbs_suites::{nas_suite, Class};

use crate::layers::{pool_workers, self_ns_by_name, shares, stat, total_ns};
use crate::stats::{median, Digest};
use crate::{host, Args, Report};

/// Set-ups per run; `setup_s` is their median. One set-up takes about
/// 0.1 ms and the first few in a process take 2-4 times longer, so the
/// median needs many.
const SETUP_REPEATS: usize = 51;

/// Everything a job needs, built by the timed set-up.
struct Setup {
    apps: Vec<fgbs_extract::Application>,
    cfg: PipelineConfig,
    targets: Vec<Arch>,
}

/// The inputs `fgbs select --suite nas --class b` builds; the seed only
/// sets the measurement-noise seed.
fn setup(seed: u64) -> Setup {
    let apps = nas_suite(Class::B);
    let mut cfg = PipelineConfig::default()
        .with_k(KChoice::Elbow { max_k: 24 })
        .with_threads(0);
    cfg.noise_seed = seed;
    std::hint::black_box(cfg.pool());
    Setup {
        apps,
        cfg,
        targets: Arch::targets_scaled(),
    }
}

/// One job's timings and outputs.
struct Job {
    select_s: f64,
    reduce_s: f64,
    errors: Vec<f64>,
    digest: String,
    accesses: u64,
    check: Result<(), String>,
}

fn job(s: &Setup) -> Job {
    let t0 = Instant::now();
    let top = fgbs_trace::span("bench.select");
    let suite = {
        let _span = fgbs_trace::span("bench.profile_reference");
        profile_reference(&s.apps, &s.cfg)
    };
    let reduced = {
        let _span = fgbs_trace::span("bench.reduce_cached");
        reduce_cached(&suite, &s.cfg, &MicroCache::new())
    };
    let reduce_s = t0.elapsed().as_secs_f64();
    let evals = {
        let _span = fgbs_trace::span("bench.evaluate_targets");
        evaluate_targets(&suite, &reduced, &s.targets, &MicroCache::new(), &s.cfg)
    };
    let rank = {
        let _span = fgbs_trace::span("bench.rank_targets");
        rank_targets(&evals)
    };
    drop(top);
    let select_s = t0.elapsed().as_secs_f64();

    let runs = suite
        .runs
        .iter()
        .chain(evals.iter().flat_map(|e| &e.outcome.target_runs));
    Job {
        select_s,
        reduce_s,
        errors: evals
            .iter()
            .flat_map(|e| e.outcome.predictions.iter().filter_map(|p| p.error_pct))
            .collect(),
        digest: digest(&suite, &reduced, &evals, &rank),
        accesses: runs.map(l1_accesses).sum(),
        check: check(&suite, &reduced, &evals, &rank, s.targets.len()),
    }
}

/// Simulated memory accesses of one application run: L1 hits plus L1
/// misses over its codelets.
fn l1_accesses(run: &AppRun) -> u64 {
    run.profiles
        .iter()
        .map(|p| {
            p.counters.cache_hits.first().copied().unwrap_or(0)
                + p.counters.cache_misses.first().copied().unwrap_or(0)
        })
        .sum()
}

/// The output checks a `select` result must pass.
fn check(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    evals: &[TargetEvaluation],
    rank: &[(String, f64, f64)],
    n_targets: usize,
) -> Result<(), String> {
    if suite.is_empty() {
        return Err("no codelets detected".into());
    }
    if reduced.assignment.len() != suite.len() {
        return Err("assignment does not cover the suite".into());
    }
    if let Some(i) = reduced.assignment.iter().position(Option::is_none) {
        return Err(format!("codelet {} is unassigned", suite.codelets[i].name));
    }
    if evals.len() != n_targets || rank.len() != n_targets {
        return Err(format!(
            "{} evaluations, {} ranked, {n_targets} targets",
            evals.len(),
            rank.len()
        ));
    }
    for e in evals {
        if e.outcome.predictions.len() != suite.len() {
            return Err(format!(
                "{}: {} predictions",
                e.target,
                e.outcome.predictions.len()
            ));
        }
        for p in &e.outcome.predictions {
            match p.predicted_seconds {
                Some(t) if t.is_finite() && t > 0.0 => {}
                other => {
                    return Err(format!(
                        "{}: codelet {} predicted {other:?}",
                        e.target, suite.codelets[p.codelet].name
                    ))
                }
            }
        }
        if !(e.geomean.1.is_finite() && e.geomean.1 > 0.0) {
            return Err(format!("{}: predicted geomean {}", e.target, e.geomean.1));
        }
    }
    let best = evals
        .iter()
        .max_by(|a, b| a.geomean.1.total_cmp(&b.geomean.1))
        .expect("targets checked non-empty");
    if rank[0].0 != best.target {
        return Err(format!(
            "recommended {} but {} predicts fastest",
            rank[0].0, best.target
        ));
    }
    Ok(())
}

fn digest(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    evals: &[TargetEvaluation],
    rank: &[(String, f64, f64)],
) -> String {
    let mut d = Digest::new();
    for (c, a) in suite.codelets.iter().zip(&reduced.assignment) {
        d.bytes(c.name.as_bytes())
            .u64(a.map_or(u64::MAX, |i| i as u64));
    }
    for e in evals {
        d.bytes(e.target.as_bytes());
        for p in &e.outcome.predictions {
            d.u64(p.predicted_seconds.map_or(0, f64::to_bits))
                .u64(p.real_seconds.to_bits());
        }
    }
    for (name, predicted, real) in rank {
        d.bytes(name.as_bytes())
            .u64(predicted.to_bits())
            .u64(real.to_bits());
    }
    d.hex()
}

/// Closed loop of jobs for `seconds` (at least one job).
struct Pass {
    jobs: Vec<Job>,
    wall_s: f64,
}

fn pass(s: &Setup, seconds: f64) -> Pass {
    let t0 = Instant::now();
    let mut jobs = Vec::new();
    while jobs.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        jobs.push(job(s));
    }
    Pass {
        jobs,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

impl Pass {
    fn select_s(&self) -> f64 {
        median(&self.jobs.iter().map(|j| j.select_s).collect::<Vec<_>>())
    }

    fn reduce_s(&self) -> f64 {
        median(&self.jobs.iter().map(|j| j.reduce_s).collect::<Vec<_>>())
    }
}

/// Count failed jobs: a failed output check, or a digest that differs
/// from the run's first job (the pipeline is deterministic per seed).
fn tally(report: &mut Report, pass: &Pass, reference: &str) {
    for (i, j) in pass.jobs.iter().enumerate() {
        report.attempted += 1;
        let verdict = match &j.check {
            Err(e) => Err(e.clone()),
            Ok(()) if j.digest != reference => Err(format!("digest {} != {reference}", j.digest)),
            Ok(()) => Ok(()),
        };
        if let Err(e) = verdict {
            report.failed += 1;
            report.line(format!("job {i} FAILED: {e}"));
        }
        report.line(format!(
            "job {i}: select_s = {:.4} s, reduce_s = {:.4} s, digest {}",
            j.select_s, j.reduce_s, j.digest
        ));
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let s = setup(args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let s = ready.expect("at least one set-up");
    let setup_s = median(&setups);

    if !args.trace {
        let p = pass(&s, args.seconds);
        let reference = p.jobs[0].digest.clone();
        tally(&mut report, &p, &reference);
        let errors: Vec<f64> = p.jobs[0].errors.clone();
        report.line(format!("seed {} digest {reference}", args.seed));
        report.line(format!(
            "setup_s = {setup_s:.6} s (median of {SETUP_REPEATS}; the first took {:.6} s)",
            setups[0]
        ));
        report.line(format!(
            "select_s = {:.4} s (median of {} jobs)",
            p.select_s(),
            p.jobs.len()
        ));
        report.line(format!("reduce_s = {:.4} s", p.reduce_s()));
        report.line(format!("err_median_pct = {:.4} %", median(&errors)));
        let rss = host::peak_rss_mb()?;
        report.line(format!("peak_rss_mb = {rss:.1} MB"));
        report.set("setup_s", setup_s);
        report.set("op_p50_ms", p.select_s() * 1e3);
        report.set("op_per_s", p.jobs.len() as f64 / p.wall_s);
        report.set("compute_p50_ms", p.reduce_s() * 1e3);
        report.set("peak_rss_mb", rss);
        return Ok(report);
    }

    // Per-layer run: an untraced pass for the baseline, then a traced
    // pass with benchmark spans around each public call.
    let untraced = pass(&s, args.seconds / 2.0);
    fgbs_trace::set_enabled(true);
    let _ = fgbs_trace::drain();
    let traced = pass(&s, args.seconds / 2.0);
    let t = fgbs_trace::drain();
    let reference = untraced.jobs[0].digest.clone();
    tally(&mut report, &untraced, &reference);
    tally(&mut report, &traced, &reference);

    let jobs = traced.jobs.len() as f64;
    let per_job_s = |ns: u64| ns as f64 / 1e9 / jobs;
    let self_ns = self_ns_by_name(&t);
    let own = |name: &str| self_ns.get(name).copied().unwrap_or(0);
    let accesses = traced.jobs[0].accesses;
    let sim_ns = own("profile.run") + own("profile.target");
    let measured = stat(&t, "micro.measured") as f64;
    let micro_hits = stat(&t, "micro.cache_hits") as f64;
    let map_us = total_ns(&t, "pool.map") as f64 / 1e3;

    report.set(
        "core.profile_s",
        per_job_s(total_ns(&t, "bench.profile_reference")),
    );
    report.set(
        "core.reduce_s",
        per_job_s(total_ns(&t, "bench.reduce_cached")),
    );
    report.set(
        "core.evaluate_s",
        per_job_s(total_ns(&t, "bench.evaluate_targets")),
    );
    report.set("core.predict_s", per_job_s(total_ns(&t, "stage.predict")));
    report.set("machine.ref_run_s", per_job_s(own("profile.run")));
    report.set("machine.target_run_s", per_job_s(own("profile.target")));
    report.set("machine.sim_accesses", accesses as f64);
    report.set(
        "machine.ns_per_access",
        sim_ns as f64 / jobs / accesses.max(1) as f64,
    );
    report.set("extract.wellness_s", per_job_s(own("reduce.wellness")));
    report.set("extract.micro_measured", measured / jobs);
    report.set(
        "extract.micro_hit_ratio",
        micro_hits / (micro_hits + measured).max(1.0),
    );
    report.set("analysis.detect_s", per_job_s(own("profile.detect")));
    report.set(
        "clustering.distance_us",
        per_job_s(total_ns(&t, "cluster.distance")) * 1e6,
    );
    report.set(
        "clustering.linkage_us",
        per_job_s(total_ns(&t, "cluster.linkage")) * 1e6,
    );
    report.set(
        "clustering.elbow_us",
        per_job_s(total_ns(&t, "cluster.elbow")) * 1e6,
    );
    report.set("clustering.pairs", t.counter("cluster.pairs") as f64 / jobs);
    report.set("pool.maps", t.counter("pool.maps") as f64 / jobs);
    report.set("pool.items", t.counter("pool.items") as f64 / jobs);
    report.set(
        "pool.busy_frac",
        pool_workers(&t, "run_us") as f64 / (host::nproc() as f64 * map_us).max(1.0),
    );
    report.set("pool.wait_us", pool_workers(&t, "wait_us") as f64 / jobs);
    for name in [
        "exec.jobs",
        "exec.wait_us",
        "exec.run_us",
        "service.handle_p50_us",
        "service.handle_p99_us",
        "serve.outside_p50_us",
        "http.parse_ns",
        "http.render_ns",
        "serve.batch_share",
        "serve.reconnects",
        "serve.computations_per_miss",
        "service.reduce_ms",
        "service.predict_ms",
        "serve.coalesced",
        "serve.shed",
        "store.get_us",
        "store.hit_ratio",
        "store.puts",
    ] {
        // No daemon, executor or store on this path.
        report.set(name, 0.0);
    }
    let base = untraced.select_s();
    report.set("trace.overhead_frac", (traced.select_s() - base) / base);

    let covered: u64 = [
        "bench.profile_reference",
        "bench.reduce_cached",
        "bench.evaluate_targets",
        "bench.rank_targets",
    ]
    .iter()
    .map(|n| total_ns(&t, n))
    .sum();
    report.line(format!(
        "select_s untraced {base:.4} s, traced {:.4} s ({} + {} jobs)",
        traced.select_s(),
        untraced.jobs.len(),
        traced.jobs.len()
    ));
    report.line(format!(
        "core spans cover {:.4} of traced select_s",
        covered as f64 / total_ns(&t, "bench.select").max(1) as f64
    ));
    for (layer, share) in shares(&self_ns) {
        report.line(format!("share {layer} = {share:.4} of summed self time"));
    }
    Ok(report)
}
