//! The declarative benchmark registry.
//!
//! Benchmarks are *data*, not code: the built-in registry lives in
//! `registry.json` (embedded at compile time) and an alternate file can
//! be loaded with `fgbs bench --registry FILE`. Each entry names a
//! workload [`Stage`] the runner knows how to execute, keyed by
//! suite × stage × size × threads, with its sample counts, per-sample
//! batch size, and optional perf gates — either an absolute per-op
//! bound (`max_ns`) or a ratio bound against a sibling entry (`gate`).
//!
//! Adding a benchmark means adding a JSON object; the set of stages the
//! runner implements is the only code surface.

use fgbs_trace::Json;

/// Registry format version. Bump when the entry schema changes.
pub const REGISTRY_SCHEMA: u64 = 1;

/// The measured workloads the runner implements. The registry maps each
/// entry onto one of these by its `stage` string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Fixed splitmix spin: the machine-speed calibration anchor.
    Calibrate,
    /// Pairwise Euclidean distance construction over `size` codelets.
    Distance,
    /// O(n²) NN-chain Ward linkage over a prebuilt distance matrix.
    LinkageNnChain,
    /// O(n³) naive closest-pair scan (the oracle the chain replaced).
    LinkageNaive,
    /// Medoid selection over an 8-way cut of the dendrogram.
    Medoid,
    /// GA fitness, cold: masked distances from scratch (64 of 76 bits).
    GaMaskedCold,
    /// GA fitness, incremental: patch 2 flipped feature bits.
    GaMaskedPatch,
    /// Full GA feature selection on `size` Test-class NR codes.
    GaSelect,
    /// Artifact store publish: one fsynced put of a `size`-byte payload.
    StorePublish,
    /// Artifact store replay: one get of a stored `size`-byte payload.
    StoreReplay,
    /// One enabled trace span with a u64 argument.
    TraceSpan,
    /// One disarmed failpoint probe (a single relaxed atomic load).
    FaultProbe,
    /// Full profile+reduce pipeline on `size` Test-class NR codes.
    PipelineReduce,
    /// The same pipeline with the trace collector enabled (flight
    /// recorder explicitly disarmed: this isolates the span cost).
    PipelineReduceTraced,
    /// The traced pipeline with the flight recorder armed — the full
    /// production observability posture.
    PipelineReduceTracedArmed,
    /// One armed flight-recorder event (`record_at` into the ring).
    ObsFlightrecRecord,
    /// One value recorded into a log-linear quantile histogram.
    ObsHistRecord,
    /// Build + encode a snippet pack from `size` bigdata apps.
    SnippetPack,
    /// Parse + checksum + semantically validate an encoded pack.
    SnippetUnpackVerify,
    /// Replay a parsed pack against its bitwise contract.
    SnippetReplay,
    /// Execute the same codelets in-process (the replay baseline).
    SnippetInproc,
    /// Mean per-request latency of a keep-alive load run against the
    /// event-driven server (`size` concurrent connections).
    ServeLoadEvent,
    /// Mean per-request latency of a one-connection-per-request load
    /// run against the blocking thread-per-connection server.
    ServeLoadBlocking,
    /// p99 per-request latency, event-driven server.
    ServeLoadEventP99,
    /// p99 per-request latency, blocking server.
    ServeLoadBlockingP99,
    /// Wall-clock nanoseconds per completed request (inverse
    /// throughput), event-driven server.
    ServeLoadEventWall,
    /// Wall-clock nanoseconds per completed request, blocking server.
    ServeLoadBlockingWall,
    /// One `WorkPool::map_indexed` over `size` trivial items: the
    /// pool's fixed cost per map.
    PoolMapOverhead,
    /// Steps A + B (reference runs, detection, features) on the first
    /// `size` Test-class NAS applications.
    ProfileRun,
    /// One simulated invocation of a memory-bound stream over `size`
    /// elements that outgrow the reference's last-level cache.
    SimulateMemory,
    /// One simulated invocation of a compute-bound divide/sqrt loop of
    /// `size` iterations over L1-resident data.
    SimulateCompute,
}

impl Stage {
    /// Parse the registry's `stage` string.
    pub fn parse(s: &str) -> Option<Stage> {
        Some(match s {
            "calibrate" => Stage::Calibrate,
            "distance" => Stage::Distance,
            "linkage_nnchain" => Stage::LinkageNnChain,
            "linkage_naive" => Stage::LinkageNaive,
            "medoid" => Stage::Medoid,
            "ga_masked_cold" => Stage::GaMaskedCold,
            "ga_masked_patch" => Stage::GaMaskedPatch,
            "ga_select" => Stage::GaSelect,
            "store_publish" => Stage::StorePublish,
            "store_replay" => Stage::StoreReplay,
            "trace_span" => Stage::TraceSpan,
            "fault_probe" => Stage::FaultProbe,
            "pipeline_reduce" => Stage::PipelineReduce,
            "pipeline_reduce_traced" => Stage::PipelineReduceTraced,
            "pipeline_reduce_traced_armed" => Stage::PipelineReduceTracedArmed,
            "obs_flightrec_record" => Stage::ObsFlightrecRecord,
            "obs_hist_record" => Stage::ObsHistRecord,
            "snippet_pack" => Stage::SnippetPack,
            "snippet_unpack_verify" => Stage::SnippetUnpackVerify,
            "snippet_replay" => Stage::SnippetReplay,
            "snippet_inproc" => Stage::SnippetInproc,
            "serve_load_event" => Stage::ServeLoadEvent,
            "serve_load_blocking" => Stage::ServeLoadBlocking,
            "serve_load_event_p99" => Stage::ServeLoadEventP99,
            "serve_load_blocking_p99" => Stage::ServeLoadBlockingP99,
            "serve_load_event_wall" => Stage::ServeLoadEventWall,
            "serve_load_blocking_wall" => Stage::ServeLoadBlockingWall,
            "pool_map_overhead" => Stage::PoolMapOverhead,
            "profile_run" => Stage::ProfileRun,
            "simulate_memory" => Stage::SimulateMemory,
            "simulate_compute" => Stage::SimulateCompute,
            _ => return None,
        })
    }
}

/// A ratio gate: `median(self) <= max_ratio × median(vs)`, checked
/// within one run. `max_ratio < 1` asserts a speedup (the NN-chain must
/// be ≥5× faster than the naive scan ⇒ `max_ratio: 0.2`); `> 1` bounds
/// an overhead (the traced pipeline within 5% of the untraced one).
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The entry this one is measured against.
    pub vs: String,
    /// Largest acceptable `median(self) / median(vs)`.
    pub max_ratio: f64,
}

/// One benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDef {
    /// Stable identity, `suite/stage/n<size>/t<threads>` by convention.
    /// Records are aligned by this id in `fgbs bench cmp`.
    pub id: String,
    /// Grouping label (`clustering`, `store`, `calibration`, …).
    pub suite: String,
    /// The workload to run.
    pub stage: Stage,
    /// Problem-size knob, interpreted per stage (codelets, bytes, apps).
    pub size: usize,
    /// Worker threads; `0` means "use the runner's `--threads`".
    pub threads: usize,
    /// Samples recorded in a full run.
    pub iters: usize,
    /// Samples recorded under `--quick`.
    pub quick_iters: usize,
    /// Operations timed per sample (per-op cost = sample / batch).
    pub batch: u64,
    /// Run only in full mode (too slow for the CI quick gate).
    pub full_only: bool,
    /// Absolute per-op bound in nanoseconds, checked after the run.
    pub max_ns: Option<u64>,
    /// Ratio bound against a sibling entry, checked after the run.
    pub gate: Option<Gate>,
}

impl BenchDef {
    /// Sample count for the given mode.
    pub fn samples(&self, quick: bool) -> usize {
        if quick {
            self.quick_iters
        } else {
            self.iters
        }
    }
}

/// A validated set of benchmark definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    /// Format version of the source document.
    pub schema: u64,
    /// The benchmark definitions, in document order.
    pub benchmarks: Vec<BenchDef>,
}

impl Registry {
    /// The registry embedded in the binary (`registry.json`).
    pub fn builtin() -> Registry {
        Registry::parse(include_str!("registry.json"))
            .expect("the embedded registry must be valid")
    }

    /// Parse and validate a registry document.
    pub fn parse(src: &str) -> Result<Registry, String> {
        let doc = Json::parse(src).map_err(|e| format!("registry is not valid JSON: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("registry needs a numeric `schema`")?;
        if schema != REGISTRY_SCHEMA {
            return Err(format!(
                "unsupported registry schema {schema} (this build reads {REGISTRY_SCHEMA})"
            ));
        }
        let entries = doc
            .get("benchmarks")
            .and_then(Json::as_arr)
            .ok_or("registry needs a `benchmarks` array")?;
        let mut benchmarks = Vec::with_capacity(entries.len());
        for e in entries {
            benchmarks.push(parse_entry(e)?);
        }
        let reg = Registry { schema, benchmarks };
        reg.validate()?;
        Ok(reg)
    }

    /// Entry lookup by id.
    pub fn find(&self, id: &str) -> Option<&BenchDef> {
        self.benchmarks.iter().find(|b| b.id == id)
    }

    /// Cross-entry invariants: unique ids, resolvable gates.
    fn validate(&self) -> Result<(), String> {
        for (i, b) in self.benchmarks.iter().enumerate() {
            if self.benchmarks[..i].iter().any(|o| o.id == b.id) {
                return Err(format!("duplicate benchmark id `{}`", b.id));
            }
        }
        for b in &self.benchmarks {
            if let Some(g) = &b.gate {
                if g.vs == b.id {
                    return Err(format!("`{}` gates against itself", b.id));
                }
                if self.find(&g.vs).is_none() {
                    return Err(format!(
                        "`{}` gates against unknown benchmark `{}`",
                        b.id, g.vs
                    ));
                }
                if !(g.max_ratio.is_finite() && g.max_ratio > 0.0) {
                    return Err(format!("`{}` has a non-positive gate ratio", b.id));
                }
            }
        }
        Ok(())
    }
}

fn parse_entry(e: &Json) -> Result<BenchDef, String> {
    let str_field = |key: &str| -> Result<String, String> {
        e.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("benchmark entry needs a string `{key}`: {}", e.render()))
    };
    let num_field = |key: &str| -> Result<u64, String> {
        e.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("benchmark entry needs a numeric `{key}`: {}", e.render()))
    };
    let id = str_field("id")?;
    let stage_name = str_field("stage")?;
    let stage = Stage::parse(&stage_name)
        .ok_or_else(|| format!("`{id}`: unknown stage `{stage_name}`"))?;
    let iters = num_field("iters")? as usize;
    let quick_iters = num_field("quick_iters")? as usize;
    if iters == 0 || quick_iters == 0 {
        return Err(format!("`{id}`: iteration counts must be >= 1"));
    }
    let batch = match e.get("batch") {
        Some(v) => v
            .as_u64()
            .filter(|b| *b >= 1)
            .ok_or_else(|| format!("`{id}`: `batch` must be a positive integer"))?,
        None => 1,
    };
    let full_only = match e.get("full_only") {
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(format!("`{id}`: `full_only` must be a boolean")),
        None => false,
    };
    let max_ns = match e.get("max_ns") {
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| format!("`{id}`: `max_ns` must be an integer"))?,
        ),
        None => None,
    };
    let gate = match e.get("gate") {
        Some(g) => {
            let vs = g
                .get("vs")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("`{id}`: gate needs a string `vs`"))?;
            let max_ratio = g
                .get("max_ratio")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{id}`: gate needs a numeric `max_ratio`"))?;
            Some(Gate {
                vs: vs.to_string(),
                max_ratio,
            })
        }
        None => None,
    };
    Ok(BenchDef {
        id,
        suite: str_field("suite")?,
        stage,
        size: num_field("size")? as usize,
        threads: num_field("threads")? as usize,
        iters,
        quick_iters,
        batch,
        full_only,
        max_ns,
        gate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_valid_and_covers_every_subsystem() {
        let r = Registry::builtin();
        assert_eq!(r.schema, REGISTRY_SCHEMA);
        assert!(r.benchmarks.len() >= 15, "got {}", r.benchmarks.len());
        for suite in [
            "calibration",
            "clustering",
            "ga",
            "store",
            "trace",
            "fault",
            "pipeline",
            "snippet",
            "obs",
            "serve",
            "profile",
            "machine",
        ] {
            assert!(
                r.benchmarks.iter().any(|b| b.suite == suite),
                "no `{suite}` benchmarks in the built-in registry"
            );
        }
        // The folded gates survive the move into data: NN-chain ≥5×,
        // span ≤100 ns, disarmed probe ≤1 µs, traced pipeline ≤5%.
        let chain = r.find("clustering/linkage_nnchain/n1024/t1").unwrap();
        assert_eq!(chain.gate.as_ref().unwrap().max_ratio, 0.2);
        // The SIMD tile scheduler's pins: the absolute bound on the
        // single-thread n1024 build (4.7 ms before the kernel layer),
        // and pooled rows bounded against their serial siblings (the
        // ratio is tolerant — CI hosts may expose a single CPU, where
        // fanning out buys nothing and costs thread spawns).
        let d1 = r.find("clustering/distance/n1024/t1").unwrap();
        assert_eq!(d1.max_ns, Some(1_500_000));
        for id in ["clustering/distance/n1024/t4", "clustering/distance/n1024/t8"] {
            let dt = r.find(id).unwrap();
            assert_eq!(dt.gate.as_ref().unwrap().vs, "clustering/distance/n1024/t1");
        }
        let mp = r.find("ga/masked_patch/n128/t4").unwrap();
        assert_eq!(mp.gate.as_ref().unwrap().vs, "ga/masked_patch/n128/t1");
        assert_eq!(r.find("trace/span/n1/t1").unwrap().max_ns, Some(200));
        assert_eq!(r.find("fault/probe/n1/t1").unwrap().max_ns, Some(1000));
        let traced = r.find("pipeline/reduce_traced/n10/t0").unwrap();
        assert_eq!(traced.gate.as_ref().unwrap().vs, "pipeline/reduce/n10/t0");
        // The observability gates: armed recorder ≤50 ns/event, full
        // armed pipeline still within 5% of the untraced baseline.
        assert_eq!(r.find("obs/flightrec_record/n1/t1").unwrap().max_ns, Some(50));
        assert!(r.find("obs/hist_record/n1/t1").unwrap().max_ns.is_some());
        let armed = r.find("pipeline/reduce_traced_armed/n10/t0").unwrap();
        let armed_gate = armed.gate.as_ref().unwrap();
        assert_eq!(armed_gate.vs, "pipeline/reduce/n10/t0");
        assert_eq!(armed_gate.max_ratio, 1.05);
        // Profiling on two workers must be no slower than on one.
        let profile = r.find("profile/run/n7/t2").unwrap();
        let gate = profile.gate.as_ref().unwrap();
        assert_eq!(gate.vs, "profile/run/n7/t1");
        assert_eq!(gate.max_ratio, 1.05);
        // Replaying a pack must cost within 5% of in-process execution.
        let replay = r.find("snippet/replay/n3/t1").unwrap();
        let gate = replay.gate.as_ref().unwrap();
        assert_eq!(gate.vs, "snippet/inproc/n3/t1");
        assert_eq!(gate.max_ratio, 1.05);
        // The event-driven serve loop must beat the thread-per-
        // connection baseline on mean latency, p99, and throughput at
        // 64 concurrent connections.
        for (event, blocking) in [
            ("serve/hot_event/n64/t4", "serve/hot_blocking/n64/t4"),
            ("serve/p99_event/n64/t4", "serve/p99_blocking/n64/t4"),
            ("serve/wall_event/n64/t4", "serve/wall_blocking/n64/t4"),
        ] {
            let e = r.find(event).unwrap();
            let gate = e.gate.as_ref().unwrap();
            assert_eq!(gate.vs, blocking);
            assert_eq!(gate.max_ratio, 1.0);
        }
    }

    #[test]
    fn rejects_malformed_registries() {
        for (bad, why) in [
            ("{", "not JSON"),
            (r#"{"schema":2,"benchmarks":[]}"#, "wrong schema"),
            (r#"{"benchmarks":[]}"#, "missing schema"),
            (r#"{"schema":1}"#, "missing benchmarks"),
            (
                r#"{"schema":1,"benchmarks":[{"id":"a","suite":"s","stage":"warp","size":1,"threads":1,"iters":1,"quick_iters":1}]}"#,
                "unknown stage",
            ),
            (
                r#"{"schema":1,"benchmarks":[{"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":0,"quick_iters":1}]}"#,
                "zero iters",
            ),
            (
                r#"{"schema":1,"benchmarks":[
                    {"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":1,"quick_iters":1},
                    {"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":1,"quick_iters":1}]}"#,
                "duplicate id",
            ),
            (
                r#"{"schema":1,"benchmarks":[{"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":1,"quick_iters":1,"gate":{"vs":"ghost","max_ratio":1.0}}]}"#,
                "dangling gate",
            ),
            (
                r#"{"schema":1,"benchmarks":[{"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":1,"quick_iters":1,"gate":{"vs":"a","max_ratio":1.0}}]}"#,
                "self gate",
            ),
        ] {
            assert!(Registry::parse(bad).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn stage_names_round_trip() {
        for name in [
            "calibrate",
            "distance",
            "linkage_nnchain",
            "linkage_naive",
            "medoid",
            "ga_masked_cold",
            "ga_masked_patch",
            "ga_select",
            "store_publish",
            "store_replay",
            "trace_span",
            "fault_probe",
            "pipeline_reduce",
            "pipeline_reduce_traced",
            "pipeline_reduce_traced_armed",
            "obs_flightrec_record",
            "obs_hist_record",
            "snippet_pack",
            "snippet_unpack_verify",
            "snippet_replay",
            "snippet_inproc",
            "serve_load_event",
            "serve_load_blocking",
            "serve_load_event_p99",
            "serve_load_blocking_p99",
            "serve_load_event_wall",
            "serve_load_blocking_wall",
            "pool_map_overhead",
            "profile_run",
            "simulate_memory",
            "simulate_compute",
        ] {
            assert!(Stage::parse(name).is_some(), "stage `{name}` must parse");
        }
        assert!(Stage::parse("nope").is_none());
    }
}
