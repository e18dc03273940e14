//! Process-level host measurements, read from Linux `/proc`.

use std::fs;

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

/// CPU time this (single-threaded) process has spent running, in ns
/// (first field of `/proc/self/schedstat`).
pub fn cpu_ns() -> Result<u64, String> {
    let s = fs::read_to_string("/proc/self/schedstat")
        .map_err(|e| format!("/proc/self/schedstat: {e}"))?;
    s.split_whitespace()
        .next()
        .ok_or("empty /proc/self/schedstat")?
        .parse()
        .map_err(|e| format!("/proc/self/schedstat: {e}"))
}
