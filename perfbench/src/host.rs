//! The host stamp carried by every result.

use jsonio::Value;

fn first_line_with(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Cores, CPU model, kernel, rustc version and seed, as one object.
#[must_use]
pub fn stamp(seed: u64) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Value::object(vec![
        ("cores", Value::from(cores)),
        ("cpu", Value::from(cpu)),
        ("kernel", Value::from(kernel)),
        ("rustc", Value::from(rustc)),
        ("seed", Value::from(seed)),
    ])
}
