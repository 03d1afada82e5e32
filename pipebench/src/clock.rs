//! The process CPU clock, which times every end-to-end metric.
//!
//! Each workload keeps exactly one thread busy at a time, so the CPU time
//! the process spends over a call is the call's wall latency minus the
//! time the host did not run the process: preemption and, on a shared
//! virtual machine, the time the hypervisor gave to other guests (steal).
//! Work a call hands to another thread of the process is still counted.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds the process has used so far, over all its threads.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is a constant the kernel always accepts.
    #[allow(unsafe_code)]
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// CPU nanoseconds the process has used since `start`, a reading of
/// [`process_cpu_ns`].
pub fn cpu_since(start: u64) -> u64 {
    process_cpu_ns().saturating_sub(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_work_and_not_with_sleep() {
        let start = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let busy = cpu_since(start);
        assert!(busy > 1_000_000, "20M multiply-adds took {busy} ns of CPU");
        let before = process_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            cpu_since(before) < 25_000_000,
            "a 50 ms sleep was charged as CPU"
        );
    }
}
