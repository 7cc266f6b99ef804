//! Host facts recorded with every result, and process memory.

use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU features this binary was compiled for (set by the repository's
/// `.cargo/config.toml` as `-C target-cpu=x86-64-v3` on x86-64).
fn target_cpu() -> &'static str {
    if cfg!(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )) {
        "x86-64-v3 (avx2+fma)"
    } else if cfg!(target_arch = "x86_64") {
        "x86-64 baseline"
    } else {
        std::env::consts::ARCH
    }
}

/// `{"host": {...}}` as one JSON line.
pub fn facts_json(cores: usize) -> String {
    format!(
        "{{\"host\": {{\"nproc\": {cores}, \"cpu_model\": {:?}, \"rustc\": {:?}, \"target_cpu\": {:?}}}}}",
        cpu_model(),
        rustc_version(),
        target_cpu()
    )
}

/// CPU time the hypervisor has stolen from this machine's virtual CPUs,
/// summed over CPUs, in seconds (the `steal` column of `/proc/stat`, in
/// 10 ms ticks); 0 where it is not reported.
pub fn stolen_s() -> f64 {
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|stat| {
        stat.lines()
            .next()?
            .split_whitespace()
            .nth(8)?
            .parse::<u64>()
            .ok()
    });
    ticks.unwrap_or(0) as f64 / 100.0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, in seconds.
/// Time the hypervisor stole from a virtual CPU is not CPU time, so on a
/// shared host this clock is steadier than the wall clock; on a
/// dedicated host the two agree for single-threaded work.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
