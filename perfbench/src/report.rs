//! Output: the result line, the provenance line, and the host readings
//! and cross-run records they draw on.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::workload::{RunResult, Workload};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Median of `xs` (the mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// This process's peak resident set (`VmHWM`), MiB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A number as JSON: finite values in full precision, anything else 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A string as a JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last stdout line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted(),
        r.failed(),
        metrics.join(", ")
    )
}

/// The provenance line: where and on what the numbers were measured,
/// and each cell's outcome.
pub fn provenance(wl: &Workload, seed: u64, trace: bool, r: &RunResult) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cells: Vec<String> = r
        .records
        .iter()
        .map(|rec| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"host_s\": {}, \"virtual_ms\": {}}}",
                string(rec.cell.name),
                rec.ok,
                num(median(&rec.host_s)),
                num(rec.virtual_ms())
            )
        })
        .collect();
    let probe = match &r.probe {
        Some(o) => string(&format!("{o:?}")),
        None => "null".to_string(),
    };
    format!(
        "{{\"provenance\": {{\"git_sha\": {}, \"seed\": {seed}, \"host_cores\": {cores}, \"cpu_model\": {}, \
         \"scale\": \"full\", \"workload\": {}, \"trace\": {}, \"probe\": {probe}, \"cells\": [{}]}}}}",
        string(&git_sha()),
        string(&cpu_model()),
        string(wl.name),
        u8::from(trace),
        cells.join(", ")
    )
}

/// The checkout's commit, or `unknown` outside a git checkout.
fn git_sha() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The host CPU's model string, or `unknown`.
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

/// Compare each cell's fingerprint with the one an earlier run of the
/// same build, workload and seed recorded (traced or not), recording
/// them if none did. Returns `(cell, identical)` for every cell an
/// earlier run recorded.
pub fn cross_run_check<'a>(
    workload: &str,
    seed: u64,
    fps: &[(&'a str, String)],
) -> Vec<(&'a str, bool)> {
    let Some(path) = record_path(workload, seed) else {
        return Vec::new();
    };
    let lines: Vec<String> = fps
        .iter()
        .map(|(name, fp)| format!("{name} {:016x}", fnv1a(fp)))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(earlier) => fps
            .iter()
            .zip(&lines)
            .filter_map(|((name, _), line)| {
                let prefix = format!("{name} ");
                let recorded = earlier.lines().find(|l| l.starts_with(&prefix))?;
                Some((*name, recorded == line))
            })
            .collect(),
        Err(_) => {
            // Recording is best effort: a read-only build directory only
            // loses the cross-run check.
            let _ = path.parent().map(std::fs::create_dir_all);
            let _ = std::fs::write(&path, lines.join("\n") + "\n");
            Vec::new()
        }
    }
}

/// Where runs of this build record fingerprints: under the Cargo target
/// directory, keyed by the binary's modification time so a rebuild
/// starts afresh.
fn record_path(workload: &str, seed: u64) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let built = exe.metadata().ok()?.modified().ok()?;
    let stamp = built.duration_since(std::time::UNIX_EPOCH).ok()?.as_nanos();
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    Some(
        dir.join("perfbench-fingerprints")
            .join(format!("{workload}-{seed}-{stamp}")),
    )
}

/// FNV-1a, 64-bit.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
