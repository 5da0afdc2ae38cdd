//! CPU time, read through `clock_gettime`.
//!
//! On a shared virtual machine the hypervisor takes time slices from
//! the guest's cores — a few percent of the machine in one minute, a
//! quarter of it in the next — and a wall-clock timing carries every
//! slice taken while it ran. The kernel leaves that stolen time out of
//! the CPU time it charges a task (paravirtual steal accounting), so a
//! piece of work's CPU time is its own cost on any host, and the
//! benchmark's end-to-end timings are CPU times.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut tp = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `tp` is a valid, writable `timespec` for the call.
    let status = unsafe { clock_gettime(clock, &mut tp) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    Duration::new(tp.tv_sec as u64, tp.tv_nsec as u32)
}

/// CPU time of every thread of this process so far, threads that have
/// ended included.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn spin(iterations: u64) -> u64 {
        (0..iterations).fold(0u64, |acc, i| {
            black_box(acc.wrapping_mul(31).wrapping_add(i))
        })
    }

    #[test]
    fn cpu_time_counts_work_and_not_sleep() {
        let (p0, t0) = (process(), thread());
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread() - t0;
        assert!(slept < Duration::from_millis(10), "sleep charged {slept:?}");
        black_box(spin(20_000_000));
        let worked = thread() - t0;
        assert!(worked > slept);
        assert!(process() - p0 >= worked);
    }

    #[test]
    fn process_time_includes_other_threads() {
        let p0 = process();
        let worker = std::thread::spawn(|| {
            let t0 = thread();
            black_box(spin(20_000_000));
            thread() - t0
        })
        .join()
        .expect("the worker does not panic");
        assert!(process() - p0 >= worker);
    }
}
