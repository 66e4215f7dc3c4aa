//! Process and host counters read around a measured window: CPU time
//! (`getrusage`), resident set size and its peak (`/proc/self/status`,
//! `/proc/self/clear_refs`), host steal (`/proc/stat`), and run-queue wait
//! of this process's threads (`/proc/self/task/*/schedstat`).

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc files and the 64-bit Linux `struct rusage` layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail for a valid pointer"
    );
    usage
}

/// User + system CPU seconds of the whole process so far, including
/// threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&u.ru_utime) + secs(&u.ru_stime)
}

/// A `/proc/self/status` field in kiB, as MiB (`NaN` where missing).
fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Current resident set size (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Peak resident set size since the last [`reset_peak_rss`] (`VmHWM`),
/// in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Resets the peak resident set size to the current one (writes `5` to
/// `/proc/self/clear_refs`, Linux 4.0 and later).
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Host-wide CPU jiffies: `(steal, total)` from the first line of
/// `/proc/stat`. `None` where the file is unavailable.
pub fn host_steal() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Nanoseconds this process's live threads have spent runnable but
/// waiting for a CPU (second field of each thread's `schedstat`).
pub fn runqueue_wait_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Process counters at one instant, differenced around a window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    cpu_s: f64,
    runq_ns: u64,
}

impl Sample {
    /// Reads every counter now.
    pub fn now() -> Sample {
        Sample {
            cpu_s: cpu_seconds(),
            runq_ns: runqueue_wait_ns(),
        }
    }

    /// Process CPU seconds since `earlier`.
    pub fn cpu_since(&self, earlier: &Sample) -> f64 {
        self.cpu_s - earlier.cpu_s
    }

    /// Run-queue wait of the process's threads since `earlier` (threads
    /// that exited in between drop out of the sum, so this is a lower
    /// bound).
    pub fn runq_ns_since(&self, earlier: &Sample) -> u64 {
        self.runq_ns.saturating_sub(earlier.runq_ns)
    }
}
