//! The `stage.*` failpoints sit on the stage boundary itself, so they
//! fire for callers that never set a deadline: the CLI's
//! `--fault-spec 'stage.reduce=delay:…'` and the benches reach the
//! infallible entry points only.
//!
//! Alone in its binary because the failpoint registry is process-global.

use fgbs_core::{profile_reference, reduce, KChoice, PipelineConfig};
use fgbs_fault::FaultPlan;
use fgbs_suites::{nr_suite, Class};

#[test]
fn infallible_entry_points_fire_their_stage_failpoints() {
    let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(2));
    let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(4).collect();
    fgbs_fault::install(
        FaultPlan::parse("stage.profile=delay:1.0:1,stage.reduce=delay:1.0:1", 1)
            .expect("valid spec"),
    );
    let suite = profile_reference(&apps, &cfg);
    let reduced = reduce(&suite, &cfg);
    let (profile, reduce_fires) = (
        fgbs_fault::fires("stage.profile"),
        fgbs_fault::fires("stage.reduce"),
    );
    fgbs_fault::clear();
    assert_eq!(reduced.k_requested, 2);
    assert!(profile >= 1, "stage.profile fired {profile} times");
    assert!(reduce_fires >= 1, "stage.reduce fired {reduce_fires} times");
}
