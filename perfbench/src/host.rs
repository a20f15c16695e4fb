//! Measurements taken from outside the program: process CPU time, the
//! resident-set high-water mark, and the host/provenance stamp.

use crate::json::Obj;
use std::time::{SystemTime, UNIX_EPOCH};

mod sys {
    /// `struct timespec` (Linux x86-64/aarch64 ABI: both fields 64-bit).
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// CPU time of every thread of the process, living or exited.
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        pub fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
}

/// User + system CPU seconds the whole process has used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the kernel's layout,
    // and CLOCK_PROCESS_CPUTIME_ID exists on every Linux; the call writes
    // only that struct.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds the hypervisor has kept this machine's virtual CPUs from
/// running (the `steal` column of `/proc/stat`, summed over CPUs), or NaN
/// where the kernel does not report it. Only a diagnostic of host noise.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse::<u64>().ok()
        })
        // /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
        .map_or(f64::NAN, |ticks| ticks as f64 / 100.0)
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no {field}"))
}

/// Restart the resident-set high-water mark (VmHWM) at the current RSS,
/// so the next [`peak_rss_mb`] belongs to the run that follows only.
///
/// VmHWM otherwise holds the process-lifetime peak, which an earlier,
/// larger run would have set. Fails, rather than let a stale peak be
/// reported, when the kernel does not honour the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    let before = status_kb("VmHWM")?;
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the RSS high-water mark: {e}"))?;
    let (after, rss) = (status_kb("VmHWM")?, status_kb("VmRSS")?);
    // A reset mark restarts at the kernel's (approximate) RSS count, so it
    // may sit a little above VmRSS; an ignored reset leaves the old mark
    // untouched while it is above the current RSS.
    if after == before && before > rss + 4096 {
        return Err(format!(
            "RSS high-water mark did not reset (VmHWM {before} kB, VmRSS {rss} kB); \
             refusing to report a stale peak"
        ));
    }
    Ok(())
}

/// Return the allocator's free memory to the kernel, so that memory freed
/// on the set-up threads' arenas does not count in the jobs' resident set.
pub fn release_free_memory() {
    // SAFETY: malloc_trim takes no pointer from the caller; it only walks
    // and shrinks the C allocator's own arenas, under their locks.
    unsafe {
        sys::malloc_trim(0);
    }
}

/// Resident-set high-water mark since the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_kb("VmHWM")? as f64 / 1024.0)
}

/// Today's date (UTC) as `YYYY-MM-DD`.
fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    // Days since 1970-01-01 to a civil date (Howard Hinnant's algorithm).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The commit the checkout was made from, read from `.git` when the
/// working directory is a git checkout, else `"unknown"`.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and provenance descriptor stamped on every results record.
pub fn provenance(workload: &str, seed: u64, scale: f64, seconds: u64, traced: bool) -> Obj {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Obj::new()
        .str("date", &utc_date())
        .str("git_commit", &git_commit())
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .str("cpu", &cpu_model)
        .str("kernel", &kernel)
        .int("cores", cores as u64)
        .int("threads", gpf_support::par::max_threads() as u64)
        .str("workload", workload)
        .int("seed", seed)
        .num("scale", scale)
        .int("seconds", seconds)
        .bool("traced", traced)
}
