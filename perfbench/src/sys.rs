//! Process accounting read from `/proc` and the store directory.

use std::fs;
use std::path::Path;

/// `/proc/<...>/io` counters the benchmark uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoCounters {
    /// Bytes passed to `write`-family calls (files and sockets).
    pub wchar: u64,
    /// `read`-family calls.
    pub syscr: u64,
}

impl std::ops::Sub for IoCounters {
    type Output = IoCounters;
    fn sub(self, o: IoCounters) -> IoCounters {
        IoCounters {
            wchar: self.wchar.saturating_sub(o.wchar),
            syscr: self.syscr.saturating_sub(o.syscr),
        }
    }
}

fn field(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

fn io_at(path: &str) -> IoCounters {
    let text = fs::read_to_string(path).unwrap_or_default();
    IoCounters {
        wchar: field(&text, "wchar").unwrap_or(0),
        syscr: field(&text, "syscr").unwrap_or(0),
    }
}

/// Counters of the whole process (live and exited threads).
pub fn process_io() -> IoCounters {
    io_at("/proc/self/io")
}

/// Counters of the calling thread.
pub fn thread_io() -> IoCounters {
    io_at("/proc/thread-self/io")
}

/// Summed `wchar` of the live threads whose name starts with `prefix`.
pub fn threads_wchar(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix)))
        .map(|t| io_at(&t.path().join("io").to_string_lossy()).wchar)
        .sum()
}

/// Peak resident set (`VmHWM`) of this process since the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&text, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Restart `VmHWM` from the current resident set, so each round's peak
/// is its own rather than one left by an earlier round's allocator
/// state. Where the kernel refuses, `VmHWM` keeps the process peak.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to the `n`-th CPU (modulo their number) this
/// process may run on. Best effort: returns false where the kernel
/// refuses.
pub fn pin_thread(n: usize) -> bool {
    // A `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is writable for `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..size * 8)
        .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[n % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is readable for `size` bytes; pid 0 is the calling
    // thread.
    unsafe { sched_setaffinity(0, size, mask.as_ptr()) == 0 }
}

/// Apparent size of every file under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let io = "rchar: 10\nwchar: 2048\nsyscr: 7\n";
        assert_eq!(field(io, "wchar"), Some(2048));
        assert_eq!(field(io, "syscr"), Some(7));
        assert_eq!(field("VmHWM:\t  5120 kB\n", "VmHWM"), Some(5120));
        assert_eq!(field(io, "missing"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
    }
}
