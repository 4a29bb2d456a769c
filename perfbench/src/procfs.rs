//! Process CPU time and peak memory from `/proc`, std only.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields. Linux
/// fixes `USER_HZ` at 100 in its user-space ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no ')'")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0], so utime (14) and stime (15) sit at
    // 11 and 12.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/self/stat: bad field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_cpu_and_rss() {
        let before = cpu_seconds().expect("cpu");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().expect("cpu") >= before);
        assert!(peak_rss_mb().expect("rss") > 0.0);
        assert!(nproc() >= 1);
    }
}
