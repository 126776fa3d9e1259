//! Host-side measurements and the run manifest: CPU time from
//! `getrusage`, peak RSS from `/proc/self/status`, and the facts that say
//! what produced a result (revision, compiler, CPUs, load, parameters).

use serde_json::{json, Value};
use std::process::Command;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed by this process so far.
pub fn cpu_secs() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` for the duration of
    // the call, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Peak resident set size of this process (VmHWM) in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a: the digest of reports and parameter descriptions.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What produced a result: source revision (when built from a git
/// checkout), compiler, logical CPUs, 1-minute load average at start, the
/// workload seed and a hash of the workload's parameters.
pub fn manifest(workload: &str, seed: u64, params: &str) -> Value {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(-1.0);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "git_revision": command_line("git", &["rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["-V"]),
        "logical_cpus": cpus,
        "loadavg_1m": load,
        "workload": workload,
        "seed": seed,
        "params_hash": format!("{:016x}", fnv1a(params.as_bytes())),
    })
}
