//! What the benchmark reads from the host: resident memory, core count,
//! and a fixed calibration kernel that shares no code with the repository.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// A field of `/proc/self/status` in kB (`VmRSS`, `VmHWM`), or `None` off
/// Linux.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Resident set size now, in bytes.
pub fn rss_bytes() -> Option<u64> {
    status_kb("VmRSS").map(|kb| kb * 1024)
}

/// Peak resident set size so far, in MB (10^6 bytes).
pub fn rss_peak_mb() -> Option<f64> {
    status_kb("VmHWM").map(|kb| kb as f64 * 1024.0 / 1e6)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const CALIB_WORDS: usize = 8 << 20; // 64 MB of u64
const CALIB_STEPS: usize = 1_200_000;

/// Times a fixed kernel: a dependent pointer chase over 64 MB (far beyond
/// the last-level cache) with an integer mix between loads. Returns
/// milliseconds. Run before set-up and after the measured phase, it tells
/// a disturbed host from a slow program; it is reported and never used to
/// rescale a metric. The table is built and freed inside the call, so it
/// is not resident while the store is measured — but it does raise this
/// process's `VmHWM`: before the peak is read, use
/// [`calibrate_in_child_ms`].
pub fn calibrate_ms() -> f64 {
    // A full-period LCG over 2^23 slots: one cycle through every slot,
    // with jumps no prefetcher predicts, filled sequentially.
    let mask = CALIB_WORDS - 1;
    let table: Vec<u64> = (0..CALIB_WORDS)
        .map(|i| ((i.wrapping_mul(2_891_336_453) + 1_234_567) & mask) as u64)
        .collect();
    let began = Instant::now();
    let mut at = 0usize;
    let mut mix = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..CALIB_STEPS {
        at = table[at] as usize;
        mix = (mix ^ at as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        mix ^= mix >> 29;
    }
    black_box((at, mix));
    began.elapsed().as_secs_f64() * 1e3
}

/// Argument that makes the binary print [`calibrate_ms`] and exit.
pub const CALIBRATE_FLAG: &str = "--calibrate";

/// [`calibrate_ms`] in a child process that has ended before this returns,
/// so that the 64 MB table never counts towards this process's peak
/// resident set. `None` if the child could not be run.
pub fn calibrate_in_child_ms() -> Option<f64> {
    let output = Command::new(std::env::current_exe().ok()?)
        .arg(CALIBRATE_FLAG)
        .output()
        .ok()?;
    String::from_utf8(output.stdout).ok()?.trim().parse().ok()
}
