//! Pinning the benchmark to one CPU.
//!
//! A job of a `thr2` workload runs two engine threads. Whether the kernel
//! spreads them over two CPUs is not up to the engine: in the sandbox this
//! benchmark was built in, the cpuset's `sched_load_balance` flag is
//! switched on and off by a controller that watches CPU pressure, and
//! with it off a new thread stays on the CPU of the thread that spawned it.
//! The same binary on the same input then takes 40 ms per job in one spell
//! and 70 ms in the next (see README.md, "Why the process is pinned").
//! A benchmark cannot carry a bound over that, so every run confines itself
//! to one CPU: the two threads always share it, and what is measured is the
//! CPU cost of the threaded execution, not a parallel speed-up.

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Confine the calling thread — and every thread it spawns from here on —
/// to the highest-numbered CPU it is allowed on (the lowest ones carry the
/// system's own daemons). Returns that CPU, or why it could not be done.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable, properly aligned buffer of exactly
    // the size passed; pid 0 names the calling thread. The call writes at
    // most `size_of::<CpuSet>()` bytes into it and keeps no pointer.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if got != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = set
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + (63 - word.leading_zeros() as usize))
        .ok_or("empty affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live, readable buffer of exactly the size passed;
    // the call only reads it. The mask is a subset of the allowed mask
    // read above, so the kernel accepts it.
    let put = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if put != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("pinning is implemented for Linux only".into())
}
