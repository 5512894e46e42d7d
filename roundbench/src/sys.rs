//! Process resource usage: CPU time, context switches, page faults and
//! resident set.
//!
//! `getrusage` is declared by hand (the C library is linked by `std`
//! already) because the workspace takes no external crates.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("roundbench reads getrusage and /proc with the 64-bit Linux layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the whole process's resource usage.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time, all threads, in nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
    /// Minor page faults, all threads.
    pub minor_faults: u64,
}

/// Reads the process's resource usage.
///
/// # Panics
///
/// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a valid
/// pointer.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the layout
    // the kernel fills on 64-bit Linux (checked by the cfg above).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
    Usage {
        cpu_ns: ns(&ru.utime) + ns(&ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        minor_faults: ru.minflt as u64,
    }
}

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0)
}

/// The current resident set in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// The peak resident set of this process image in bytes (`VmHWM`).
/// Unlike `ru_maxrss`, it does not carry over the parent's peak across
/// `exec`, so a large launcher (a shell, cargo) does not show in it.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}
