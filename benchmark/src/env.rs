//! The environment block stamped on every result.

use crate::report::{json_number, json_string};

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// All CPUs' time counters from `/proc/stat`: `(steal, total)` ticks.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of CPU time the hypervisor took from this machine since
/// `since` (a [`cpu_ticks`] reading): a run taken while the host was
/// busy shows here.
pub fn steal_since(since: Option<(u64, u64)>) -> Option<f64> {
    let ((steal0, total0), (steal1, total1)) = (since?, cpu_ticks()?);
    let total = total1.checked_sub(total0).filter(|&t| t > 0)?;
    Some(steal1.saturating_sub(steal0) as f64 / total as f64)
}

/// The last-level cache size as the kernel reports it, e.g. `105M`.
fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            Some(format!("L{} {}", level.trim(), size.trim()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory;
/// a checkout without git metadata reports `none`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON object describing where the numbers were taken.
pub fn block(workload: &str, seed: u64, seconds: u64, traced: bool, steal: Option<f64>) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {traced}, \"threads\": {}, \"available_parallelism\": {cores}, \
         \"rustc\": {}, \"profile\": {}, \"git_rev\": {}, \"llc\": {}, \"peak_rss_mb\": {}, \"steal_frac\": {}}}}}",
        json_string(workload),
        cafemio::instrument::par::max_threads(),
        json_string(env!("BENCH_RUSTC_VERSION")),
        json_string(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_string(&git_rev()),
        json_string(&llc_size()),
        json_number(peak_rss_mib().unwrap_or(0.0)),
        steal.map_or("null".to_string(), json_number),
    )
}
