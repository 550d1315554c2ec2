//! Scheduler settings for `live_verbs`: one CPU, no wake-up preemption.
//!
//! Why: the generator and the daemon's event loop wake each other
//! thousands of times a second, and how the kernel schedules those
//! wake-ups decides the round-trip time more than any code does.
//!
//! * Left unpinned, the two threads run in one of two sticky modes —
//!   stacked on one CPU (14 µs round trips, 210k verbs/s) or spread
//!   over two, where every wake-up is a cross-CPU interrupt into a
//!   halted virtual CPU (55 µs, 115k verbs/s) — and which mode a run
//!   gets depends on what the machine did in the seconds before it
//!   started. Pinned to one CPU there are no cross-CPU wake-ups.
//! * On one CPU, a woken thread sometimes preempts its waker at once
//!   and sometimes waits for it to block; the two paths differ by 6 µs
//!   in a 10 µs round trip, and their mix moves from 10 % to 90 %
//!   between runs (a bare Python echo pair shows the same). Under
//!   `SCHED_BATCH` a wake-up never preempts, which leaves one path.
//!
//! Both settings are inherited by threads spawned afterwards, so they
//! are applied before the daemon starts. A run then measures the CPU
//! cost of both ends of a verb and nothing of the host's scheduling.

/// Words in the CPU mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// `SCHED_BATCH` from `<sched.h>`.
const SCHED_BATCH: i32 = 3;

/// `struct sched_param`: one `int`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread — and every thread it spawns from now
/// on — to the lowest-numbered CPU it is allowed to run on. Returns
/// that CPU's number.
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
    // bytes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .ok_or("no CPU in the affinity mask")?;
    let bit = bits.trailing_zeros();
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the
    // kernel only reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit as usize)
}

/// Move the calling thread — and every thread it spawns from now on —
/// to `SCHED_BATCH`, under which a wake-up never preempts the running
/// thread. Needs no privilege.
fn no_wakeup_preemption() -> Result<(), String> {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` the kernel only
    // reads; pid 0 names the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_BATCH, &param) } != 0 {
        return Err(format!(
            "sched_setscheduler: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Apply both settings to the calling thread and say so on standard
/// error. A refusal (a sandbox without these system calls) is reported
/// and survived: the run is then valid but its round trips come in
/// several modes.
pub fn settle() {
    match pin_to_one_cpu().and_then(|cpu| no_wakeup_preemption().map(|()| cpu)) {
        Ok(cpu) => eprintln!("gridd runs: generator and daemon on CPU {cpu}, SCHED_BATCH"),
        Err(e) => eprintln!(
            "gridd runs: scheduler settings refused ({e}); expect several round-trip modes"
        ),
    }
}
