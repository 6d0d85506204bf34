//! End-to-end benchmark for fgbs.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload select_nas_b|serve_hot|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is driven through the public calls the `fgbs` CLI and
//! daemon make, timed from outside the program. With `--trace 0` the
//! run leaves the tracer as shipped and reports the end-to-end metrics;
//! with `--trace 1` it adds a traced pass and reports the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. See README.md for the workloads, the
//! metrics and what each layer metric is expected to move.

mod client;
mod host;
mod layers;
mod select;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_per_s", "1/s"),
    ("compute_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer that does no work in a workload reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("core.profile_s", "s"),
    ("core.reduce_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.predict_s", "s"),
    ("machine.ref_run_s", "s"),
    ("machine.target_run_s", "s"),
    ("machine.sim_accesses", "count"),
    ("machine.ns_per_access", "ns"),
    ("extract.wellness_s", "s"),
    ("extract.micro_measured", "count"),
    ("extract.micro_hit_ratio", "ratio"),
    ("analysis.detect_s", "s"),
    ("clustering.distance_us", "us"),
    ("clustering.linkage_us", "us"),
    ("clustering.elbow_us", "us"),
    ("clustering.pairs", "count"),
    ("pool.maps", "count"),
    ("pool.items", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.wait_us", "us"),
    ("exec.jobs", "count"),
    ("exec.wait_us", "us"),
    ("exec.run_us", "us"),
    ("service.handle_p50_us", "us"),
    ("service.handle_p99_us", "us"),
    ("serve.outside_p50_us", "us"),
    ("http.parse_ns", "ns"),
    ("http.render_ns", "ns"),
    ("serve.batch_share", "ratio"),
    ("serve.reconnects", "count"),
    ("serve.computations_per_miss", "ratio"),
    ("service.reduce_ms", "ms"),
    ("service.predict_ms", "ms"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("store.get_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.puts", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["select_nas_b", "serve_hot", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (select_nas_b|serve_hot|serve_mixed)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; the printed set is [`END_TO_END`] or
    /// [`PER_LAYER`], in that order.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The result line. Every metric of `wanted` must have been set to
    /// a finite value; a missing or non-finite one is a benchmark bug.
    fn json(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            fields.push(format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#));
        }
        Ok(format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // As `fgbs` main does: the whole invocation is one request, and the
    // flight recorder is armed for it.
    let _request_ctx = fgbs_trace::enter_request(fgbs_trace::next_request_id());
    fgbs_trace::flightrec::arm(true);

    let outcome = match args.workload.as_str() {
        "select_nas_b" => select::run(&args),
        "serve_hot" => serve::run(&args, serve::Mix::Hot),
        _ => serve::run(&args, serve::Mix::Mixed),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let json = match report.json(wanted) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("host {}", host::describe(args.workload != "select_nas_b"));
    println!(
        "failed_frac = {} ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names repeat");
        assert!(valid_name("select_nas_b") && valid_name("serve_mixed"));
        assert!(!valid_name("hit p50") && !valid_name("µs") && !valid_name(".x"));
    }

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = fgbs_trace::Json::parse(&text).expect("BENCHMARK.json parses");
        let table = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(fgbs_trace::Json::as_arr)
                .expect("metric table")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(fgbs_trace::Json::as_str)
                            .unwrap()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(table("end_to_end"), own(&END_TO_END));
        assert_eq!(table("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        assert!(r.json(&END_TO_END).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.json(&END_TO_END).unwrap();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}"#));
        r.set("setup_s", f64::NAN);
        assert!(r.json(&END_TO_END).is_err());
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve_hot --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 4 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload serve_hot --seed 4 --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--workload serve_hot --seed 4 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload serve_hot --seed x --seconds 10 --trace 0"
        ))
        .is_err());
    }
}
