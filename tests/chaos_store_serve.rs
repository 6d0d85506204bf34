//! Chaos suite: the pipeline + store + service under deterministic
//! fault injection.
//!
//! The resilience contract these tests pin down:
//!
//! 1. **Byte-identical results under faults.** Transient I/O errors,
//!    short writes and flipped bytes may cost retries and
//!    recomputation, but the artifacts and response bodies a faulted
//!    run ends with are bitwise equal to a fault-free run's.
//! 2. **Self-healing.** Corrupt objects are quarantined (never
//!    decoded), the entry drops from the manifest, and the next
//!    request recomputes and republishes clean bytes. A corrupt
//!    MANIFEST is quarantined wholesale and rebuilt from the objects.
//! 3. **Deadlines.** `deadline_ms` turns a slow stage into a prompt
//!    `503` with the losing stage named — never a cached error.
//! 4. **Observability.** Retry / quarantine / deadline counters show up
//!    in `/metrics` so operators can see the layer working.
//!
//! The failpoint registry is process-global, so every test takes
//! `fault_guard()` and clears the registry before and after its run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use fgbs::core::PipelineConfig;
use fgbs::fault::{self, FaultPlan};
use fgbs::serve::{Request, Service};
use fgbs::store::Store;

/// Serialize tests that install fault plans (the registry is global).
fn fault_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    g
}

/// A unique scratch directory per test (removed on success).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgbs-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn service_over(dir: &Path) -> (Arc<Store>, Arc<Service>) {
    let store = Arc::new(Store::open(dir).expect("open store"));
    let service = Arc::new(Service::new(
        PipelineConfig::default().with_threads(1),
        Arc::clone(&store),
    ));
    (store, service)
}

fn get(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: Vec::new(),
    }
}

fn predict_request() -> Request {
    get(
        "/predict",
        &[
            ("suite", "nr"),
            ("class", "test"),
            ("target", "atom"),
            ("k", "3"),
        ],
    )
}

/// Every artifact in a store, as `(kind, key) -> bytes`, read with
/// faults disarmed.
fn artifact_bytes(store: &Store) -> Vec<(String, String, Vec<u8>)> {
    let mut out: Vec<_> = store
        .list()
        .iter()
        .map(|m| {
            let bytes = store
                .get(m.kind, &m.key)
                .expect("artifact readable")
                .expect("artifact present");
            (m.kind.as_str().to_string(), m.key.clone(), bytes)
        })
        .collect();
    out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    out
}

/// Transient read/write errors, one short write and one flipped byte:
/// the warm run retries, quarantines and recomputes its way back to the
/// exact bytes a fault-free run produces.
#[test]
fn faulted_run_is_byte_identical_to_fault_free_run() {
    let _g = fault_guard();

    // Reference: a fault-free cold run.
    let clean_dir = scratch("clean");
    let (clean_store, clean_service) = service_over(&clean_dir);
    let clean_resp = clean_service.handle(&predict_request());
    assert_eq!(clean_resp.status, 200);
    let clean_artifacts = artifact_bytes(&clean_store);
    assert!(!clean_artifacts.is_empty());

    // Chaos target: same cold run (fault-free) to populate the store…
    let dir = scratch("chaos");
    {
        let (_, service) = service_over(&dir);
        assert_eq!(service.handle(&predict_request()).status, 200);
    }

    // …then a warm run through an armed minefield. Probability 1 plus
    // fire caps makes the schedule deterministic: the caps are consumed
    // by the first qualifying operations, retries absorb the rest.
    let plan = FaultPlan::parse(
        "store.manifest.read=err#1,store.read=err#2,store.read.bytes=corrupt#1,\
         store.write=err#1,store.write.short=short:1.0:8#1",
        0xC0FFEE,
    )
    .expect("valid spec");
    fault::install(plan);
    let (store, service) = service_over(&dir);
    let resp = service.handle(&predict_request());
    fault::clear();

    assert_eq!(resp.status, 200, "faulted run still answers");
    assert_eq!(
        resp.body, clean_resp.body,
        "response bytes identical to the fault-free run"
    );
    let counters = store.counters();
    assert!(counters.retries > 0, "transient faults were retried");
    assert!(
        counters.quarantines > 0,
        "the flipped byte was caught and quarantined"
    );
    let quarantine = dir.join("quarantine");
    assert!(
        quarantine.is_dir() && fs::read_dir(&quarantine).unwrap().count() > 0,
        "quarantined object parked on disk"
    );

    // The store healed completely: clean integrity sweep and artifacts
    // bitwise equal to the reference store's.
    assert!(store.verify().is_empty(), "store verifies clean after chaos");
    assert_eq!(
        artifact_bytes(&store),
        clean_artifacts,
        "every artifact byte-identical to the fault-free run"
    );

    // Observability: the injection/retry/quarantine counters surface in
    // /metrics for operators.
    let metrics = service.handle(&get("/metrics", &[]));
    let body = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(body.contains("\"fault.injected\""), "{body}");
    assert!(body.contains("\"fault.retries\""), "{body}");
    assert!(body.contains("\"quarantines\""), "{body}");

    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&dir);
}

/// An injected stage delay plus a tiny `deadline_ms` forces a `503`
/// naming the losing stage; the error is never cached, so the same
/// request succeeds once the budget is realistic.
#[test]
fn expired_deadline_is_a_503_that_is_never_cached() {
    let _g = fault_guard();
    let dir = scratch("deadline");
    let (_, service) = service_over(&dir);

    fault::install(
        FaultPlan::parse("stage.reduce=delay:1.0:60", 7).expect("valid spec"),
    );
    let mut req = predict_request();
    req.query.push(("deadline_ms".to_string(), "1".to_string()));
    let resp = service.handle(&req);
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(body.contains("deadline exceeded"), "{body}");
    assert!(body.contains("\"stage\""), "{body}");

    // Same query, generous budget, delay still armed: computes fine —
    // the 503 was not persisted.
    let mut req = predict_request();
    req.query.push(("deadline_ms".to_string(), "60000".to_string()));
    let resp = service.handle(&req);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    fault::clear();

    // The expiry is visible to operators.
    let metrics = service.handle(&get("/metrics", &[]));
    let body = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(body.contains("\"serve.deadline_expired\""), "{body}");

    let _ = fs::remove_dir_all(&dir);
}

/// A cold profile passes the `stage.profile` gate under the request's
/// own deadline before it joins the shared profile flight, so an
/// over-budget cold request answers `503` naming `profile` instead of
/// profiling for its whole run and failing at a later stage.
#[test]
fn cold_profile_honours_the_request_deadline() {
    let _g = fault_guard();
    let dir = scratch("profile-deadline");
    let (_, service) = service_over(&dir);

    fault::install(FaultPlan::parse("stage.profile=delay:1.0:60", 7).expect("valid spec"));
    let mut req = predict_request();
    req.query.push(("deadline_ms".to_string(), "1".to_string()));
    let resp = service.handle(&req);
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 503, "{body}");
    assert!(body.contains("\"stage\":\"profile\""), "{body}");

    // The refusal memoised nothing: a realistic budget profiles and
    // answers.
    let mut req = predict_request();
    req.query.push(("deadline_ms".to_string(), "60000".to_string()));
    let resp = service.handle(&req);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    fault::clear();

    let _ = fs::remove_dir_all(&dir);
}

/// A corrupt MANIFEST does not brick the daemon: healing open
/// quarantines it and rebuilds the index from the surviving objects.
#[test]
fn corrupt_manifest_heals_on_open_and_serves() {
    let _g = fault_guard();
    let dir = scratch("manifest");
    {
        let (_, service) = service_over(&dir);
        assert_eq!(service.handle(&predict_request()).status, 200);
    }
    let manifest = dir.join("MANIFEST");
    let mut bytes = fs::read(&manifest).expect("manifest exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&manifest, &bytes).expect("rewrite manifest");

    assert!(
        Store::open(&dir).is_err(),
        "strict open still refuses a corrupt manifest"
    );
    let store = Store::open_healing(&dir).expect("healing open succeeds");
    assert!(
        dir.join("quarantine").join("MANIFEST.corrupt").is_file(),
        "bad manifest parked for forensics"
    );
    assert!(
        !store.list().is_empty(),
        "index rebuilt from surviving objects"
    );
    assert!(store.verify().is_empty());

    // A service over the healed store replays the previous computation
    // from disk (byte-for-byte, no pipeline work).
    let service = Service::new(PipelineConfig::default().with_threads(1), Arc::new(store));
    let resp = service.handle(&predict_request());
    assert_eq!(resp.status, 200);
    assert_eq!(resp.source, Some("store"), "served from the healed store");

    let _ = fs::remove_dir_all(&dir);
}

/// Disarmed failpoints are inert: nothing is injected, nothing is
/// counted, results match an armed-but-empty plan.
#[test]
fn disarmed_failpoints_are_inert() {
    let _g = fault_guard();
    assert!(!fault::armed());
    let injected_before = fault::injected();

    let dir = scratch("inert");
    let (store, service) = service_over(&dir);
    assert_eq!(service.handle(&predict_request()).status, 200);

    assert_eq!(
        fault::injected(),
        injected_before,
        "no injections without a plan"
    );
    assert_eq!(store.counters().retries, 0);
    assert_eq!(store.counters().quarantines, 0);
    let _ = fs::remove_dir_all(&dir);
}
