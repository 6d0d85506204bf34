//! The span shape of one `select` — profile, reduce, evaluate every
//! target, rank — at 1 and 4 threads: one `profile.run` span per
//! application under `stage.profile`, one `profile.target` span per
//! target × application under `stage.evaluate`, and the same canonical
//! digest at both thread counts. Per-layer readings that sum these spans
//! (simulator time on the reference and on the targets) rely on it.
//!
//! One `#[test]`, alone in this binary, because the trace collector is
//! process-global: a concurrent test would interleave its spans.

use fgbs::core::{
    evaluate_targets, profile_reference, rank_targets, reduce_cached, KChoice, MicroCache,
    PipelineConfig,
};
use fgbs::machine::Arch;
use fgbs::suites::{nr_suite, Class};
use fgbs::trace::{self, SpanRecord, Trace};

/// Run one select at `threads` workers and return the drained trace.
fn traced_select(threads: usize, apps: &[fgbs::extract::Application], targets: &[Arch]) -> Trace {
    trace::set_enabled(true);
    let _ = trace::drain();
    let cfg = PipelineConfig::fast()
        .with_k(KChoice::Fixed(4))
        .with_threads(threads);
    let suite = profile_reference(apps, &cfg);
    let cache = MicroCache::new();
    let reduced = reduce_cached(&suite, &cfg, &cache);
    let evals = evaluate_targets(&suite, &reduced, targets, &cache, &cfg);
    assert_eq!(rank_targets(&evals).len(), targets.len());
    trace::set_enabled(false);
    trace::drain()
}

/// The nearest ancestor of `span` that is not a `pool.map`.
fn stage_of<'a>(t: &'a Trace, span: &SpanRecord) -> Option<&'a SpanRecord> {
    let mut parent = span.parent;
    while let Some(id) = parent {
        let p = t.spans.iter().find(|s| s.id == id)?;
        if p.name != "pool.map" {
            return Some(p);
        }
        parent = p.parent;
    }
    None
}

/// The string argument `key` of `span`.
fn arg(span: &SpanRecord, key: &str) -> String {
    span.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
        .unwrap_or_else(|| panic!("{} has no `{key}` argument", span.name))
}

#[test]
fn select_records_one_simulator_span_per_run_under_its_stage() {
    let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(8).collect();
    let targets = Arch::targets_scaled();
    let mut digests = Vec::new();
    for threads in [1, 4] {
        let t = traced_select(threads, &apps, &targets);

        let runs = t.spans_named("profile.run");
        assert_eq!(
            runs.len(),
            apps.len(),
            "t{threads}: one profile.run per app"
        );
        for r in &runs {
            assert_eq!(stage_of(&t, r).map(|s| s.name), Some("stage.profile"));
        }
        let mut ran: Vec<String> = runs.iter().map(|r| arg(r, "app")).collect();
        ran.sort();
        let mut names: Vec<String> = apps.iter().map(|a| a.name.clone()).collect();
        names.sort();
        assert_eq!(ran, names, "t{threads}: every app profiled once");

        let target_runs = t.spans_named("profile.target");
        assert_eq!(
            target_runs.len(),
            targets.len() * apps.len(),
            "t{threads}: one profile.target per target × app"
        );
        for r in &target_runs {
            assert_eq!(stage_of(&t, r).map(|s| s.name), Some("stage.evaluate"));
        }
        let mut pairs: Vec<(String, String)> = target_runs
            .iter()
            .map(|r| (arg(r, "target"), arg(r, "app")))
            .collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(
            pairs.len(),
            targets.len() * apps.len(),
            "t{threads}: no pair run twice"
        );

        // The simulator spans sit directly under the map that fans them
        // out, so their time is not booked to the map itself.
        for s in runs.iter().chain(&target_runs) {
            let parent = t.spans.iter().find(|p| Some(p.id) == s.parent).unwrap();
            assert_eq!(parent.name, "pool.map");
        }
        digests.push(t.digest());
    }
    assert_eq!(
        digests[0], digests[1],
        "span tree must not depend on the thread count"
    );
}
