//! A cycle counter for the simulator's phase timer (DESIGN.md §10,
//! "Where an event's cycles go"): cheap enough to read at every phase
//! boundary of every event.

/// A reading of the CPU's time-stamp counter: a count that only grows,
/// at a fixed rate on current x86_64 parts, whatever the core's clock.
/// Only differences between two readings on one thread mean anything.
/// On a target other than `x86_64` it counts nanoseconds of the
/// monotonic clock since the first reading in the process instead.
#[inline(always)]
pub fn cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` exists on every x86_64 CPU, reads no memory
        // and has no side effect.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::cycles;

    #[test]
    fn readings_never_go_backwards() {
        let mut last = cycles();
        for _ in 0..1000 {
            let now = cycles();
            assert!(now >= last);
            last = now;
        }
    }
}
