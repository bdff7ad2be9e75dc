//! The few things the benchmark needs from the operating system: CPU
//! pinning, process counters, and a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `cpu_set_t` on Linux: 1024 bits.
type CpuSet = [u64; 16];

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Pin the calling thread — and every thread it later spawns, which
/// inherit the mask — to the highest-numbered CPU it may run on. Returns
/// that CPU, or `None` when the mask could not be read or set (the run
/// continues unpinned and the header says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable 128-byte buffer and the size
    // passed is its size; pid 0 addresses the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let word = set.iter().rposition(|&w| w != 0)?;
    let bit = 63 - set[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a valid 128-byte mask naming a CPU the kernel just
    // reported as allowed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return None;
    }
    PINNED.store(word * 64 + bit, Ordering::Relaxed);
    Some(word * 64 + bit)
}

/// The CPU `pin_to_one_cpu` pinned this process to, if it did.
pub fn pinned_cpu() -> Option<usize> {
    Some(PINNED.load(Ordering::Relaxed)).filter(|&cpu| cpu != usize::MAX)
}

static PINNED: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Steal and total clock ticks of CPU `cpu` since boot (`/proc/stat`):
/// time the hypervisor ran something else while this CPU had work.
pub fn steal_ticks(cpu: usize) -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let label = format!("cpu{cpu}");
    let Some(line) = stat.lines().find(|l| l.split(' ').next() == Some(&label)) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal (guest times repeat user's).
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// Connections opened from this network namespace since boot (`ActiveOpens`
/// in `/proc/net/snmp`); 0 when that cannot be read.
pub fn tcp_active_opens() -> u64 {
    let snmp = std::fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:")).map(str::split_whitespace);
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else { return 0 };
    names
        .zip(values)
        .find(|(n, _)| *n == "ActiveOpens")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Cumulative process counters (all threads, exited ones included).
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcStats {
    /// User + system CPU time, µs.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set, MiB.
    pub peak_rss_mib: f64,
}

/// Read the process counters (`getrusage(RUSAGE_SELF)`).
pub fn proc_stats() -> ProcStats {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable buffer with the layout of the
    // kernel's 64-bit `struct rusage`; 0 is RUSAGE_SELF.
    if unsafe { getrusage(0, &mut ru) } != 0 {
        return ProcStats::default();
    }
    let us = |tv: [i64; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
    ProcStats {
        cpu_us: us(ru.utime) + us(ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        peak_rss_mib: ru.maxrss_kib as f64 / 1024.0,
    }
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

/// Whether `path` lives on a tmpfs (longest matching mount point in
/// `/proc/self/mountinfo`). `false` when that cannot be told.
pub fn on_tmpfs(path: &std::path::Path) -> bool {
    let Ok(path) = path.canonicalize() else { return false };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else { return false };
    let mut best: Option<(usize, bool)> = None;
    for line in mounts.lines() {
        // "... <mount point> <options> ... - <fs type> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else { continue };
        let Some(mount) = left.split(' ').nth(4) else { continue };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), right.starts_with("tmpfs ")));
        }
    }
    best.is_some_and(|(_, tmpfs)| tmpfs)
}

/// Counting global allocator: calls, bytes requested, and live / peak
/// live heap.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(by as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Cumulative allocator counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct AllocStats {
    /// `alloc` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Live heap now, bytes.
    pub live: u64,
    /// Peak live heap since process start, bytes.
    pub peak: u64,
}

/// Read the allocator counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}
