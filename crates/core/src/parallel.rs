//! Parallel evaluation over targets.
//!
//! System selection evaluates many candidate machines; every target's
//! ground-truth run, prediction and reduction factor are independent, so
//! they fan out over the shared work pool ([`fgbs_pool::WorkPool`], the
//! same executor the GA and the distance matrix use). The ground-truth
//! runs, which dominate, fan out one item per target × application; the
//! rest one item per target. Results come back in target order
//! regardless of scheduling.

use fgbs_extract::AppRun;
use fgbs_machine::Arch;
use parking_lot::Mutex;

use crate::appagg::{aggregate_apps, geometric_mean_speedup, AppPrediction};
use crate::config::PipelineConfig;
use crate::micras::MicroCache;
use crate::predict::{predict_owning_runs, PredictionOutcome};
use crate::profile::{profile_targets, ProfiledSuite};
use crate::reduce::ReducedSuite;
use crate::reduction::{reduction_factor, ReductionBreakdown};
use crate::stage;

/// Everything Step E produces for one target machine.
#[derive(Debug, Clone)]
pub struct TargetEvaluation {
    /// Target name.
    pub target: String,
    /// Per-codelet predictions and ground truth.
    pub outcome: PredictionOutcome,
    /// Benchmarking-cost comparison.
    pub reduction: ReductionBreakdown,
    /// Per-application aggregation.
    pub apps: Vec<AppPrediction>,
    /// Geometric-mean speedups `(real, predicted)`.
    pub geomean: (f64, f64),
}

/// Evaluate the reduced suite on every target, fanned out over the
/// configured work pool (`cfg.threads` caps the workers). The
/// microbenchmark cache is shared across threads. The deadline is
/// ignored; the `stage.evaluate` failpoint fires.
pub fn evaluate_targets(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    targets: &[Arch],
    cache: &MicroCache,
    cfg: &PipelineConfig,
) -> Vec<TargetEvaluation> {
    stage::infallible(cfg, |cfg| {
        cfg.gate("stage.evaluate")?;
        let (_request, _stage_span) =
            stage::span(cfg, "stage.evaluate", ("targets", targets.len()));
        // Each target's runs move into its outcome: the slot is emptied
        // by the one item that owns it, so no run is copied.
        let runs: Vec<Mutex<Vec<AppRun>>> = profile_targets(suite, targets, cfg)
            .into_iter()
            .map(Mutex::new)
            .collect();
        Ok(cfg.pool().map(targets, |t, target| {
            let runs = std::mem::take(&mut *runs[t].lock());
            let outcome = predict_owning_runs(suite, reduced, target, runs, cache, cfg);
            let reduction = reduction_factor(suite, reduced, &outcome, target, cache, cfg);
            let apps = aggregate_apps(suite, &outcome, target, cfg);
            let geomean = geometric_mean_speedup(&apps);
            TargetEvaluation {
                target: target.name.clone(),
                outcome,
                reduction,
                apps,
                geomean,
            }
        }))
    })
}

/// Rank targets by predicted geometric-mean speedup, best first.
/// Returns `(name, predicted, real)` triples.
pub fn rank_targets(evals: &[TargetEvaluation]) -> Vec<(String, f64, f64)> {
    let mut v: Vec<(String, f64, f64)> = evals
        .iter()
        .map(|e| (e.target.clone(), e.geomean.1, e.geomean.0))
        .collect();
    // NaN-safe descending order: a degenerate (zero-time) codelet can
    // make a geomean non-finite; it ranks last instead of panicking.
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KChoice;
    use crate::predict::predict_with_runs;
    use crate::profile::{profile_reference, profile_target};
    use crate::reduce::reduce_cached;
    use fgbs_machine::PARK_SCALE;
    use fgbs_suites::{nr_suite, Class};

    #[test]
    fn parallel_matches_sequential() {
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(4)).with_threads(4);
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(8).collect();
        let suite = profile_reference(&apps, &cfg);
        let cache = MicroCache::new();
        let reduced = reduce_cached(&suite, &cfg, &cache);
        let targets = Arch::targets_scaled();

        let evals = evaluate_targets(&suite, &reduced, &targets, &cache, &cfg);
        assert_eq!(evals.len(), 3);
        for (e, t) in evals.iter().zip(&targets) {
            assert_eq!(e.target, t.name);
            // Cross-check against a sequential run with the same seeds.
            let runs = profile_target(&suite, t, &cfg);
            let seq = predict_with_runs(&suite, &reduced, t, &runs, &cache, &cfg);
            assert_eq!(seq.predictions, e.outcome.predictions);
        }
    }

    #[test]
    fn ranking_is_descending_by_prediction() {
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(4));
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(6).collect();
        let suite = profile_reference(&apps, &cfg);
        let cache = MicroCache::new();
        let reduced = reduce_cached(&suite, &cfg, &cache);
        let targets = vec![
            Arch::atom().scaled(PARK_SCALE),
            Arch::sandy_bridge().scaled(PARK_SCALE),
        ];
        let evals = evaluate_targets(&suite, &reduced, &targets, &cache, &cfg);
        let rank = rank_targets(&evals);
        assert_eq!(rank.len(), 2);
        assert!(rank[0].1 >= rank[1].1);
        assert_eq!(rank[0].0, "Sandy Bridge", "SB must out-predict Atom");
    }
}
