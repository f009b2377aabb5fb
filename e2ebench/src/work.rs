//! What every workload shares: the run context, input sizes, the
//! end-to-end metrics, and a seeded RNG.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::check::Tally;
use crate::metrics::{peak_rss_mib, MetricSet, Samples};

/// The end-to-end metrics: name, unit, better, regression bound (share of
/// the parent's median).
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.tail", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    // Below 1/attempted on every workload (serve-mixed offers 770
    // requests in a 55 s run, corpus-churn runs 220-360 steps), so one
    // failed or wrong operation is a regression.
    ("ok_frac", "ratio", "higher", 0.001),
];

/// Input sizes of every workload; `FULL` is what the benchmark measures,
/// `SMOKE` runs every workload and check in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub name: &'static str,
    /// XMark-like scale factor (xmark-doc).
    pub xmark_scale: f64,
    /// `wide_relation` rows and width (deep-lattice; domain 4, no derived
    /// columns).
    pub wide_rows: usize,
    pub wide_width: usize,
    /// Cold runs (separate processes), corpus builds or server binds whose
    /// median is `setup_s`.
    pub setups: usize,
    pub corpus_setups: usize,
    pub serve_setups: usize,
    /// corpus-churn: scale of each base document and of each added one.
    pub corpus_base_scale: usize,
    pub corpus_step_scale: usize,
    /// serve-mixed: offered rate and result-cache budget (the budget sets
    /// the pool size and the Zipf exponent, see `serve::pool_size`).
    pub serve_rate: f64,
    pub serve_cache_budget: usize,
}

pub const FULL: Sizes = Sizes {
    name: "full",
    xmark_scale: 32.0,
    wide_rows: 4000,
    wide_width: 12,
    setups: 7,
    corpus_setups: 7,
    serve_setups: 31,
    corpus_base_scale: 30,
    corpus_step_scale: 1,
    serve_rate: 14.0,
    serve_cache_budget: 128 << 10,
};

pub const SMOKE: Sizes = Sizes {
    name: "smoke",
    xmark_scale: 1.0,
    wide_rows: 1500,
    wide_width: 10,
    setups: 2,
    corpus_setups: 2,
    serve_setups: 2,
    corpus_base_scale: 1,
    corpus_step_scale: 1,
    serve_rate: 40.0,
    serve_cache_budget: 32 << 10,
};

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
}

impl Ctx {
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Problems found by the output checks (empty = correct).
    pub problems: Vec<String>,
    pub metrics: MetricSet,
    /// Lines for people reading the log (sizes, tail percentiles, ...).
    pub notes: Vec<String>,
}

/// Timings every workload collects for the end-to-end metrics.
pub struct Timings {
    /// Percentile reported as `op_ms.tail`.
    pub op_tail_pct: f64,
    pub setup_s: Samples,
    pub op_ms: Samples,
    /// Length of the timed phase and primary operations completed in it.
    pub phase_s: f64,
    pub completed: u64,
    pub peak_rss_mb: f64,
}

impl Timings {
    pub fn new(op_tail_pct: f64) -> Timings {
        Timings {
            op_tail_pct,
            setup_s: Samples::default(),
            op_ms: Samples::default(),
            phase_s: 0.0,
            completed: 0,
            peak_rss_mb: 0.0,
        }
    }

    /// Mark the end of the timed phase: read the memory high-water mark
    /// before any off-clock check can raise it.
    pub fn end_phase(&mut self, started: Instant) {
        self.phase_s = started.elapsed().as_secs_f64();
        self.peak_rss_mb = peak_rss_mib();
    }

    pub fn metrics(&self, tally: &Tally, notes: &mut Vec<String>) -> MetricSet {
        let op = self.op_ms.summary(self.op_tail_pct);
        notes.push(format!("op_ms.tail is {}", op.describe_tail()));
        notes.push(format!(
            "setup_s is the median of {} set-ups (min {:.6} s, max {:.6} s)",
            self.setup_s.len(),
            self.setup_s.percentile(0.0),
            self.setup_s.percentile(100.0)
        ));
        let mut m = MetricSet::default();
        m.put("setup_s", self.setup_s.median(), "s");
        m.put("op_ms.p50", op.p50, "ms");
        m.put("op_ms.tail", op.tail, "ms");
        m.put(
            "ops_per_s",
            self.completed as f64 / self.phase_s.max(1e-9),
            "1/s",
        );
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.put("ok_frac", tally.ok_frac(), "ratio");
        m
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
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

/// SplitMix64: a small seeded generator for the harness's own choices
/// (which category a step touches, which document a request sends).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed for input `index` of a run seeded with `seed`.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(index)).next_u64()
}
