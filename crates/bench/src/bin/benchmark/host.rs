//! Host and build facts recorded with every run, and the two `/proc`
//! readings the harness reports (peak RSS, run-queue wait).

use std::fs;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restart the `VmHWM` high-water mark at the current RSS, so the next
/// reading is the peak since now. Where the kernel refuses, readings
/// stay process-wide peaks.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// `(on-cpu ns, run-queue wait ns)` of the main thread so far.
pub fn schedstat() -> (u64, u64) {
    let text = fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    let mut it = text
        .split_whitespace()
        .map(|w| w.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    }
}

/// `"key": "value"` pairs describing the host and the build, ready to
/// splice into a JSON object. Called after measurement: it forks `rustc`.
pub fn describe() -> Vec<(&'static str, String)> {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let or_unknown = |s: String| {
        if s.is_empty() {
            "unknown".to_string()
        } else {
            s
        }
    };
    vec![
        ("nproc", nproc().to_string()),
        (
            "cpu_model",
            or_unknown(proc_field("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        (
            "kernel",
            or_unknown(
                fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim()
                    .to_string(),
            ),
        ),
        ("rustc", or_unknown(rustc)),
        ("git_commit", or_unknown(git_commit())),
    ]
}
