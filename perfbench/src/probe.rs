//! Process-wide resource probes read from `/proc/self`. Both count every
//! thread the process ever ran, including executor threads that have
//! already exited (per-thread `schedstat` files would miss those).

use std::io;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. The kernel
/// reports them in `USER_HZ`, which is fixed at 100 on Linux.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds the process has consumed so far, from the
/// `utime` and `stime` fields of `/proc/self/stat`.
pub fn process_cpu_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; the numeric fields
    // start after its closing parenthesis, at field 3 (`state`).
    let after_comm = stat
        .rfind(')')
        .map(|at| &stat[at + 1..])
        .ok_or_else(|| malformed("no command-name delimiter"))?;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // utime and stime are fields 14 and 15 overall: 11 and 12 after `)`.
    let tick = |idx: usize| -> io::Result<f64> {
        fields
            .get(idx)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|ticks| ticks as f64 / USER_HZ)
            .ok_or_else(|| malformed("missing CPU time field"))
    };
    Ok(tick(11)? + tick(12)?)
}

extern "C" {
    /// glibc: returns the free memory of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory the allocator holds but no longer uses back to the kernel,
/// so the next operation's peak RSS starts from live memory rather than
/// from whatever earlier operations left cached in the arenas.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only releases free pages of the allocator's own
    // arenas; it takes no pointers and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the peak resident set size (`VmHWM`) to the current resident set
/// size, so the next [`peak_rss_mb`] reports the peak since this call
/// (Linux 4.0 and later: `5` written to the process's own `clear_refs`).
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| malformed("no VmHWM line"))
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("/proc/self: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_threads_that_already_exited() {
        let before = process_cpu_s().expect("readable /proc/self/stat");
        let spin = || {
            let started = std::time::Instant::now();
            let mut x = 0u64;
            while started.elapsed().as_millis() < 300 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            x
        };
        std::thread::spawn(spin).join().expect("spinner");
        let after = process_cpu_s().expect("readable /proc/self/stat");
        assert!(after - before >= 0.2, "an exited thread's CPU must count: {before} -> {after}");
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_the_current_size() {
        let grown = std::hint::black_box(vec![1u8; 64 << 20]);
        drop(grown);
        let peak = peak_rss_mb().expect("VmHWM");
        reset_peak_rss().expect("writable clear_refs");
        let reset = peak_rss_mb().expect("VmHWM");
        assert!(reset < peak - 32.0, "peak {peak} MB should drop after a reset, read {reset} MB");
    }
}
