//! Host readings from `/proc` and the run's fingerprint.

use std::time::Duration;

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:")
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Resident set size of this process now (VmRSS), in MB.
pub fn rss_mb() -> f64 {
    status_field("VmRSS:")
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// utime + stime from a `/proc/.../stat` file.
fn cpu_of(path: &str) -> Duration {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return Duration::ZERO;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// CPU time consumed by the whole process so far.
pub fn process_cpu() -> Duration {
    cpu_of("/proc/self/stat")
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_of("/proc/thread-self/stat")
}

/// Cumulative (steal, total) CPU ticks of the whole machine, from the
/// first line of `/proc/stat`. Steal is time the hypervisor gave this
/// machine's CPUs to someone else.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// The checkout's git revision; "unknown" outside a git checkout (the
/// benchmark may run from an exported tree inside some other repository).
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One line naming the host and build this run measured.
pub fn fingerprint() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={} rustc=\"{}\" profile={} git={} loadavg=\"{}\"",
        nproc(),
        env!("LOADBENCH_RUSTC"),
        profile,
        git_revision(),
        load_average()
    )
}

/// Removes every `KERA_*` variable from this process's environment and
/// returns their names. Must run before any thread starts: the program
/// reads some of them lazily (the bench-only copy data plane, the
/// watchdog, the flight recorder), and a stray one would change the
/// program under test.
pub fn scrub_kera_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("KERA_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}
