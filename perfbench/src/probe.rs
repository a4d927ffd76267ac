//! Noise attribution: what the machine and the process were doing while
//! the benchmark measured, read from `/proc`.
//!
//! None of these readings feeds a timing; they explain one. Where `/proc`
//! is unavailable a reading is `0`, never an error.

use std::fs;

/// Kernel clock ticks per second of `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// A point-in-time reading of the process and machine counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Process user + system CPU seconds, every thread included.
    pub cpu_s: f64,
    /// Nanoseconds the calling thread spent runnable but waiting for a CPU.
    pub runqueue_wait_ns: u64,
    /// Machine-wide steal ticks (time a hypervisor gave this VM's CPUs away).
    pub steal_ticks: u64,
    /// One-minute load average.
    pub loadavg: f64,
    /// Minor page faults of the process (every thread).
    pub minor_faults: u64,
}

impl Snapshot {
    /// Reads the counters now. Call from the thread whose run-queue wait
    /// should be attributed (the benchmark's main thread).
    pub fn now() -> Self {
        Self {
            cpu_s: process_cpu_s(),
            minor_faults: process_minor_faults(),
            runqueue_wait_ns: thread_runqueue_wait_ns(),
            steal_ticks: steal_ticks(),
            loadavg: loadavg(),
        }
    }
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

fn process_cpu_s() -> f64 {
    let fields = self_stat_fields();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Fields of `/proc/self/stat` from field 3 (`state`) on: the command
/// name in field 2 may contain spaces, so fields resume after its closing
/// parenthesis.
fn self_stat_fields() -> Vec<String> {
    let stat = read("/proc/self/stat");
    stat.rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().map(String::from).collect())
        .unwrap_or_default()
}

fn process_minor_faults() -> u64 {
    // minflt is field 10, index 7 here.
    self_stat_fields()
        .get(7)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

fn thread_runqueue_wait_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

fn steal_ticks() -> u64 {
    // First line: "cpu user nice system idle iowait irq softirq steal ...".
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

fn loadavg() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The machine block every result carries, as a JSON object.
pub fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = read("/proc/sys/kernel/osrelease");
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"kernel\": \"{}\"}}",
        json_escape(env!("PERFBENCH_RUSTC")),
        json_escape(kernel.trim()),
    )
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
