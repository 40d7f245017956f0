//! CPU-time clocks.
//!
//! The sandbox this benchmark runs in is a small virtual machine whose
//! host takes the processor away in bursts of one to sixty milliseconds;
//! between a fifth and more than half of wall time was stolen while the
//! benchmark was written, and the share changed from minute to minute. A
//! wall-clock duration of anything longer than a burst measures the
//! neighbours. The kernel keeps stolen time out of a thread's CPU time, so
//! the in-process workloads time their own single thread with that clock:
//! user plus system time, which includes the copies `pread` makes out of the
//! page cache and excludes time the thread did not run at all.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which is valid, aligned and exclusively ours for the call; the struct
    // above has the C layout of `timespec` on 64-bit Linux.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time this thread has consumed so far, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time (user + system) of the whole process so far, seconds: every
/// thread, those that have ended too.
pub fn process_cpu_s() -> f64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e9
}

/// Wall and thread-CPU time since a point.
pub struct Tick {
    wall: std::time::Instant,
    cpu_ns: u64,
}

impl Tick {
    pub fn now() -> Self {
        Self { cpu_ns: thread_cpu_ns(), wall: std::time::Instant::now() }
    }

    /// `(wall, cpu)` milliseconds since [`Tick::now`].
    pub fn elapsed_ms(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64() * 1e3;
        (wall, (thread_cpu_ns() - self.cpu_ns) as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work_and_not_with_sleep() {
        let t = Tick::now();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let (wall, cpu) = t.elapsed_ms();
        assert!(wall >= 30.0);
        assert!(cpu < 15.0, "sleeping cost {cpu} ms of CPU");
        let t = Tick::now();
        let mut x = 0u64;
        while t.wall.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (_, cpu) = t.elapsed_ms();
        assert!(cpu > 1.0, "spinning 30 ms cost only {cpu} ms of CPU");
        // The process clock covers this thread's spin.
        assert!(process_cpu_s() * 1e3 >= cpu);
    }
}
