//! Host facts read from `/proc` (Linux only; std only).

use commtm_lab::json::Json;

/// Clock ticks per second of `/proc/self/stat` times. Linux reports them
/// in USER_HZ, which is 100 on every architecture it exports to user
/// space.
const TICKS_PER_S: f64 = 100.0;

/// This process's user plus system CPU time, in seconds, summed over all
/// its threads (live and exited).
pub fn cpu_s() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis start at field 3, so utime (14) and stime (15) are the
    // 12th and 13th of them.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_S)
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// The 1, 5 and 15 minute load averages.
pub fn loadavg() -> Json {
    let text = read("/proc/loadavg").unwrap_or_default();
    Json::Arr(
        text.split_whitespace()
            .take(3)
            .filter_map(|v| v.parse().ok())
            .map(Json::F64)
            .collect(),
    )
}

/// Host identity: available CPUs and the CPU model.
pub fn identity() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = read("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", Json::U64(nproc as u64)),
        ("cpu_model", Json::Str(model)),
    ]
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}
