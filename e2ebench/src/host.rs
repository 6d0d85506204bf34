//! The host a result was measured on, and the process's peak memory.
//!
//! SIMD kernel speed depends on the host's vector ISA, so results from
//! hosts that differ in any of these fields are not comparable.

/// Worker threads the program's `0 = all cores` settings resolve to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON object: `nproc`, CPU model, active SIMD path (after any
/// `FGBS_SIMD` override) and whether the daemon ran its event loop.
pub fn describe(event_loop: bool) -> String {
    fgbs_trace::Json::obj(vec![
        ("nproc", fgbs_trace::Json::U64(nproc() as u64)),
        ("cpu", fgbs_trace::Json::str(cpu_model())),
        (
            "simd",
            fgbs_trace::Json::str(fgbs_matrix::simd::active().name()),
        ),
        (
            "event_loop",
            fgbs_trace::Json::Bool(event_loop && cfg!(target_os = "linux")),
        ),
    ])
    .render()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
