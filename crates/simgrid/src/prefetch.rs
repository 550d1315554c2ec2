//! A cache hint for the simulator's event loop (DESIGN.md §10, "One
//! event ahead"): load what the next event will read while the current
//! one runs.

/// Ask the CPU to start loading every cache line `r` occupies, from
/// the line of its first byte to the line of its last, into all cache
/// levels. A hint: it reads nothing into the program, changes nothing
/// and returns at once. Does nothing for a zero-sized value, and
/// nothing on a target other than `x86_64`.
///
/// It hints every 64th byte from the first, then the last byte: one of
/// those lies in each line, and how many there are depends on the
/// size alone, not on where the value starts. Counting lines from the
/// first byte's line makes the loop's length depend on alignment; at
/// 1 000 clients, where a client's lines are already cached, the
/// mispredicted loop exits cost more than the hints (DESIGN.md §10).
#[inline(always)]
pub fn prefetch<T: ?Sized>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let size = std::mem::size_of_val(r);
        if size == 0 {
            return;
        }
        let first = (r as *const T).cast::<u8>();
        // SAFETY: a prefetch never faults, whatever the address, and
        // reads nothing into the program.
        let hint =
            |at: usize| unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(at).cast()) };
        let mut at = 0;
        while at < size {
            hint(at);
            at += LINE;
        }
        hint(size - 1);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::prefetch;

    #[test]
    fn prefetching_changes_nothing() {
        let v: Vec<u64> = (0..1000).collect();
        prefetch(&v);
        prefetch(v.as_slice());
        prefetch(&v[3..5]);
        prefetch(&v[7..7]);
        prefetch(&());
        prefetch("a str");
        assert_eq!(v.iter().sum::<u64>(), 999 * 1000 / 2);
    }
}
