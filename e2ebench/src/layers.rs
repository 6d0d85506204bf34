//! Reading the program's trace: span totals, self times, counters and
//! stats, grouped into the repository's layers.

use std::collections::{BTreeMap, HashMap};

use fgbs_trace::Trace;

/// Summed duration of every span named `name`, in ns. Read from the
/// collector's cumulative per-name totals, which survive the daemon's
/// bounded span buffer.
pub fn total_ns(t: &Trace, name: &str) -> u64 {
    t.span_totals
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.total_ns)
}

/// A nondeterministic stat (0 when never bumped).
pub fn stat(t: &Trace, name: &str) -> u64 {
    t.stats
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Sum of the per-worker pool stats `pool.w<N>.<field>`.
pub fn pool_workers(t: &Trace, field: &str) -> u64 {
    t.stats
        .iter()
        .filter(|(n, _)| {
            n.strip_prefix("pool.w")
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(w, f)| f == field && w.chars().all(|c| c.is_ascii_digit()))
        })
        .map(|(_, v)| *v)
        .sum()
}

/// Length of the union of half-open intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    covered + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span name, in ns: each span's duration minus the
/// part of its interval that its children cover. Children may run on
/// pool workers in parallel, so their overlap is counted once.
pub fn self_ns_by_name(t: &Trace) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &t.spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in &t.spans {
        let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
        let covered = children.get(&s.id).map_or(0, |kids| {
            union_len(
                kids.iter()
                    .map(|&(a, b)| (a.max(start), b.min(end)))
                    .filter(|(a, b)| a < b)
                    .collect(),
            )
        });
        *out.entry(s.name).or_insert(0) += s.dur_ns - covered;
    }
    out
}

/// The layer (repository crate) a span name belongs to.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "profile.run" | "profile.target" => "machine",
        "profile.detect" => "analysis",
        "reduce.wellness" => "extract",
        _ if span.starts_with("cluster.") => "clustering",
        _ if span.starts_with("pool.") => "pool",
        _ if span.starts_with("bench.") => "bench",
        _ => "core",
    }
}

/// Each layer's share of the summed self time, largest first.
pub fn shares(self_ns: &BTreeMap<&'static str, u64>) -> Vec<(&'static str, f64)> {
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, ns) in self_ns {
        *by_layer.entry(layer_of(name)).or_insert(0) += ns;
    }
    let total = by_layer.values().sum::<u64>().max(1) as f64;
    let mut v: Vec<(&'static str, f64)> = by_layer
        .into_iter()
        .map(|(l, ns)| (l, ns as f64 / total))
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbs_trace::{Args, SpanRecord, SpanTotal};

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            tid: 0,
            start_ns: start,
            dur_ns: dur,
            request: 0,
            args: Args::new(),
        }
    }

    fn trace(spans: Vec<SpanRecord>) -> Trace {
        Trace {
            spans,
            counters: Vec::new(),
            stats: vec![
                ("pool.w0.run_us".to_string(), 5),
                ("pool.w1.run_us".to_string(), 7),
                ("pool.w1.wait_us".to_string(), 3),
                ("pool.maps_extra".to_string(), 100),
            ],
            span_totals: vec![SpanTotal {
                name: "profile.run".to_string(),
                count: 2,
                total_ns: 42,
            }],
            dropped: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0,100); two overlapping children on workers cover
        // [10,60) ∪ [40,70) = 60 ns; a grandchild is not subtracted
        // from the parent; a child overhanging the parent is clipped.
        let t = trace(vec![
            rec(1, None, "stage.predict", 0, 100),
            rec(2, Some(1), "profile.target", 10, 50),
            rec(3, Some(1), "profile.target", 40, 30),
            rec(4, Some(2), "pool.map", 20, 10),
            rec(5, None, "bench.select", 200, 10),
            rec(6, Some(5), "bench.rank_targets", 205, 20),
        ]);
        let s = self_ns_by_name(&t);
        assert_eq!(s["stage.predict"], 40);
        assert_eq!(s["profile.target"], 40 + 30);
        assert_eq!(s["pool.map"], 10);
        assert_eq!(s["bench.select"], 5);
        let sh = shares(&s);
        let total: f64 = sh.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(sh[0].0, "machine");
    }

    #[test]
    fn totals_and_stats_lookups() {
        let t = trace(Vec::new());
        assert_eq!(total_ns(&t, "profile.run"), 42);
        assert_eq!(total_ns(&t, "absent"), 0);
        assert_eq!(pool_workers(&t, "run_us"), 12);
        assert_eq!(pool_workers(&t, "wait_us"), 3);
        assert_eq!(stat(&t, "pool.maps_extra"), 100);
    }

    #[test]
    fn layers_follow_the_crates() {
        assert_eq!(layer_of("profile.run"), "machine");
        assert_eq!(layer_of("cluster.tile"), "clustering");
        assert_eq!(layer_of("stage.reduce"), "core");
        assert_eq!(layer_of("reduce.wellness"), "extract");
        assert_eq!(layer_of("profile.detect"), "analysis");
    }
}
