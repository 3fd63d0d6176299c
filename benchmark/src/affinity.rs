//! CPU pinning. On a small shared VM only the pinned, single-client
//! load shape repeats run to run (see README.md, "Noise floor"), so
//! the gated passes run on one CPU; threads spawned afterwards (the
//! fan-out pool worker of `planned_quorum`) inherit the mask.

/// A thread's allowed-CPU mask (1024 CPUs, as glibc's `cpu_set_t`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// The calling thread's allowed CPUs, if the platform tells.
pub fn current() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `mask` points to a writable buffer of exactly the
        // `cpusetsize` bytes passed, and pid 0 names the calling thread.
        let rc =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Restricts the calling thread to `mask`; `false` if the platform
/// refused (the run then proceeds unpinned).
pub fn set(mask: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` points to a readable buffer of exactly the
        // `cpusetsize` bytes passed, and pid 0 names the calling thread.
        let rc =
            unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) };
        rc == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = mask;
        false
    }
}

/// Pins the calling thread to the highest-numbered CPU it is allowed
/// on (CPU 0 takes most interrupts) and returns the mask it had, so a
/// later probe can undo the pin. `None` when pinning is unavailable.
pub fn pin_to_one_cpu() -> Option<CpuSet> {
    let before = current()?;
    let (word, bits) = before.0.iter().enumerate().rfind(|(_, w)| **w != 0)?;
    let mut one = CpuSet([0; 16]);
    one.0[word] = 1 << (63 - bits.leading_zeros());
    set(&one).then_some(before)
}
