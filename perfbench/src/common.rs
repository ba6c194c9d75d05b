//! Shared pieces of the workloads: metrics, order statistics, the seeded
//! request generator, provenance and the run's scratch directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tsubasa_core::SeriesCollection;

use crate::trace::Tracer;

/// Online CPUs, recorded with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Worker count of every engine and pool the workloads build. One worker
/// runs each sweep and tick inline on its calling thread. On a shared
/// 2-vCPU machine, fanning a 1–10 ms operation out to two workers made its
/// median move by 12–32 % between runs of the same code (one vCPU stolen
/// or waking late stalls the whole operation); inline, the same medians
/// moved by 4–6 %.
pub const WORKERS: usize = 1;

/// The percentile of an operation's latencies that the bounded end-to-end
/// metrics (`op_p5_ms`, `aux_p5_ms`) take, per request shape. On the
/// shared 2-vCPU machine the benchmark was tuned on, the neighbours' load
/// came and went over tens of seconds and moved the run medians of queries
/// and ticks by 12–38 % between runs of the same code. Over ten runs, the
/// 5th percentiles of `historical` and `live` spread by 0.04–0.17 of their
/// median, the 10th by 0.06–0.21.
pub const FAST_QUANTILE: f64 = 0.05;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The name in `BENCHMARK.json`.
    pub name: &'static str,
    /// What this workload calls the same measurement.
    pub alias: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        alias: name,
        value,
        unit,
    }
}

impl Metric {
    pub fn alias(mut self, alias: &'static str) -> Self {
        self.alias = alias;
        self
    }
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (queries, served requests, ticks).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness-gate mismatches; empty when the run is correct.
    pub mismatches: Vec<String>,
    /// Correctness-gate comparisons made.
    pub checked: u64,
    /// The end-to-end metrics, under the shared names of `BENCHMARK.json`
    /// and this workload's own aliases.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the layers this workload calls (traced runs).
    pub layers: Vec<Metric>,
    /// Sizes and schedule of the run.
    pub config: Vec<(&'static str, String)>,
    /// The raw latencies (ms) behind the end-to-end metrics, in run order.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub tracer: Tracer,
}

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: the seeded generator of every request and schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Sleep until `due`; returns how late the caller woke (ms, never negative).
///
/// The last `SPIN` before `due` is spent spinning, not sleeping: an idle
/// vCPU that halts wakes up late by a host-dependent amount, which would
/// otherwise land in every open-loop latency.
pub fn sleep_until(due: Instant) -> f64 {
    const SPIN: Duration = Duration::from_millis(1);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    ms(Instant::now().saturating_duration_since(due))
}

/// Moves the calling thread round the CPUs it may run on, one CPU per
/// [`CpuRotation::step`], and gives the thread its own CPU set back when
/// dropped. A thread that never sleeps stays on one vCPU for the whole run,
/// and on a shared host a neighbour can slow one vCPU by 25–40 % for tens of
/// seconds while the other runs at full speed: which vCPU the thread
/// landed on decided the run. Rotating gives every request shape
/// repetitions on each vCPU, so `FAST_QUANTILE` sees the quiet one. (A
/// thread that sleeps between operations, as the open-loop generators do, is
/// moved by the scheduler already.) Where the CPU set cannot be read or
/// set, stepping does nothing.
#[derive(Debug)]
pub struct CpuRotation {
    own: CpuMask,
    cpus: Vec<usize>,
    next: usize,
}

/// A `cpu_set_t` of 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live `cpu_set_t`-sized buffer; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

impl CpuRotation {
    pub fn new() -> Self {
        let mut own: CpuMask = [0; 16];
        // SAFETY: as in `set_affinity`, with a writable buffer.
        let read =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), own.as_mut_ptr()) };
        let cpus = if read == 0 {
            (0..own.len() * 64)
                .filter(|&c| own[c / 64] & (1 << (c % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        Self { own, cpus, next: 0 }
    }

    /// Pin the calling thread to the next CPU of its own set.
    pub fn step(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask: CpuMask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        set_affinity(&mask);
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.next > 0 {
            set_affinity(&self.own);
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-RSS counter (`VmHWM`) from the current resident set,
/// so the peak reported at the end covers the timed phase only.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The points `[from, to)` of every series, one row per series.
pub fn chunk(data: &SeriesCollection, from: usize, to: usize) -> Vec<Vec<f64>> {
    data.iter().map(|s| s.values()[from..to].to_vec()).collect()
}

/// A JSON number with every digit Rust prints for the value (non-finite
/// values, which JSON cannot hold, become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A scratch directory removed with everything in it when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(parent: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = parent.join(format!("work-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
