//! Process CPU time and peak memory.

/// User and system CPU seconds consumed by this process so far (all
/// threads, including ones that have exited).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl Cpu {
    /// Reads the process totals from `getrusage(RUSAGE_SELF)`, to the
    /// microsecond; zeros where that call is not available.
    pub fn now() -> Cpu {
        rusage_self().unwrap_or_default()
    }

    /// CPU consumed since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// The sum of two readings' usage.
    pub fn plus(self, other: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Runs `f` and returns its result with the process CPU seconds (user plus
/// system, every thread) spent while it ran.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let cpu0 = Cpu::now();
    let out = f();
    (out, Cpu::now().since(cpu0).total_s())
}

/// `struct timeval` and `struct rusage` as 64-bit Linux lays them out: two
/// timevals, then fourteen `long` counters this module does not read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage_self() -> Option<Cpu> {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the platform's
    // layout, and the C library writes nothing past it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0).then(|| Cpu {
        user_s: seconds(&usage.utime),
        sys_s: seconds(&usage.stime),
    })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage_self() -> Option<Cpu> {
    None
}

/// Peak resident set size (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_process_readings_are_sane() {
        let a = Cpu::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let used = Cpu::now().since(a);
        assert!(used.user_s > 0.0 && used.sys_s >= 0.0, "{used:?}");
        assert!(peak_rss_mb() > 0.0);
    }
}
