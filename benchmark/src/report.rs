//! Shared measurement helpers: quantiles, the timed pass loop, set-up timing,
//! output checks, quality accumulation and the JSON result line.

use std::time::Instant;

use afp_circuit::Circuit;
use afp_layout::{constraints, Floorplan, FloorplanMetrics};

/// One slice of set-up repetitions runs at least this many builds and for at
/// least [`SETUP_SLICE_S`]: millisecond set-ups need many repetitions.
const SETUP_REPS: usize = 5;
const SETUP_SLICE_S: f64 = 0.3;
/// The quantile of a slice's repetitions that stands for the slice.
const SETUP_QUANTILE: f64 = 0.1;

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A workload's set-up, timed over many repetitions.
///
/// The reference host switches between a fast speed and one up to ~1.7x
/// slower, each lasting seconds to minutes: building the two small agents
/// took 1.03 ms in one half-second window and 1.83 ms in the next, in one
/// process, with no page faults. A median or mean of the repetitions follows
/// the share of the run spent at each speed, and read 1.1-2.2 ms from run to
/// run. So repetitions are taken in slices spread over the run (one before
/// the first pass, one after each pass), and `setup_s` is the 10th percentile
/// of the fastest slice: the set-up time at the host's fast speed, which a
/// run of five or more slices almost always reaches. Every repetition of a
/// slower set-up is slower, so it still shows in full.
pub struct Setup<F> {
    build: F,
    /// [`SETUP_QUANTILE`] of each slice, in seconds.
    slices: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    pub fn new(build: F) -> Self {
        Setup {
            build,
            slices: Vec::new(),
        }
    }

    /// Runs one slice of repetitions and returns the last value built.
    pub fn slice(&mut self) -> T {
        let started = Instant::now();
        let mut times = Vec::new();
        let mut built = None;
        while times.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_SLICE_S {
            drop(built.take());
            let t = Instant::now();
            built = Some((self.build)());
            times.push(t.elapsed().as_secs_f64());
        }
        let q = percentile(&sorted(&times), SETUP_QUANTILE);
        eprintln!(
            "set-up slice: {} repetitions, p10 {:.3} ms",
            times.len(),
            q * 1e3
        );
        self.slices.push(q);
        built.expect("set-up ran at least once")
    }

    /// The fastest slice's [`SETUP_QUANTILE`], in seconds.
    pub fn seconds(&self) -> f64 {
        self.slices.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Runs timed passes over a fixed request list. `pass(k)` runs pass `k` and
/// returns its timed seconds; a set-up slice follows each pass. Passes repeat
/// while the next one is expected to end within `seconds` (give or take a
/// tenth); at least one runs. Returns the timed seconds and the number of
/// passes.
pub fn run_passes<T, F: FnMut() -> T>(
    seconds: f64,
    setup: &mut Setup<F>,
    mut pass: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(f64, usize), String> {
    let mut wall = 0.0;
    let mut passes = 0;
    loop {
        let t = pass(passes)?;
        eprintln!("pass {passes}: {t:.3} s timed");
        wall += t;
        passes += 1;
        drop(setup.slice());
        if wall + wall / passes as f64 > 1.1 * seconds {
            return Ok((wall, passes));
        }
    }
}

/// Pass 0's results; every later pass must reproduce them bit for bit.
#[derive(Debug)]
pub struct FirstPass<T> {
    pub results: Vec<Option<T>>,
    keys: Vec<Option<String>>,
    /// Requests over every pass, and those that panicked.
    pub requests: usize,
    pub failed: u64,
}

impl<T> Default for FirstPass<T> {
    fn default() -> Self {
        FirstPass {
            results: Vec::new(),
            keys: Vec::new(),
            requests: 0,
            failed: 0,
        }
    }
}

impl<T> FirstPass<T> {
    /// Keeps pass 0's results, or checks pass `k`'s against them by `key`
    /// (`None` marks a request that panicked).
    pub fn absorb(
        &mut self,
        k: usize,
        results: Vec<Option<T>>,
        key: impl Fn(&T) -> String,
        what: &str,
    ) -> Result<(), String> {
        self.requests += results.len();
        self.failed += results.iter().filter(|r| r.is_none()).count() as u64;
        let keys: Vec<Option<String>> = results.iter().map(|r| r.as_ref().map(&key)).collect();
        if k == 0 {
            self.results = results;
            self.keys = keys;
        } else if keys != self.keys {
            return Err(format!("{what}: pass {k} differs from pass 0"));
        }
        Ok(())
    }

    pub fn keys(&self) -> &[Option<String>] {
        &self.keys
    }
}

/// Bit-exact text form of a floorplan's placements (`{:?}` prints every
/// float in its shortest round-trip form, so equal text means equal bits).
pub fn placements(floorplan: &Floorplan) -> String {
    format!("{:?}", floorplan.placed())
}

/// No two placed rectangles overlap, and a floorplan its producer reports
/// as completed places every block.
pub fn check_floorplan(
    circuit: &Circuit,
    floorplan: &Floorplan,
    what: &str,
    completed: bool,
) -> Result<(), String> {
    if completed && floorplan.num_placed() != circuit.num_blocks() {
        return Err(format!(
            "{what}: {} of {} blocks placed in a completed floorplan",
            floorplan.num_placed(),
            circuit.num_blocks()
        ));
    }
    let placed = floorplan.placed();
    for (i, a) in placed.iter().enumerate() {
        for b in &placed[i + 1..] {
            if a.rect.overlaps(&b.rect) {
                return Err(format!(
                    "{what}: blocks {:?} and {:?} overlap",
                    a.block, b.block
                ));
            }
        }
    }
    Ok(())
}

/// Table I quality columns accumulated over a pass's results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    results: usize,
    completed: usize,
    reward_sum: f64,
    hpwl_sum: f64,
    dead_space_pct_sum: f64,
}

impl Quality {
    /// Adds one result. It counts as completed when it places every block
    /// with zero constraint violations.
    pub fn add(
        &mut self,
        circuit: &Circuit,
        floorplan: &Floorplan,
        reward: f64,
        m: &FloorplanMetrics,
    ) {
        self.results += 1;
        self.reward_sum += reward;
        self.hpwl_sum += m.hpwl_um;
        self.dead_space_pct_sum += m.dead_space * 100.0;
        if floorplan.num_placed() == circuit.num_blocks()
            && constraints::count_violations(circuit, floorplan) == 0
        {
            self.completed += 1;
        }
    }

    pub fn means(&self) -> QualityMeans {
        let n = self.results.max(1) as f64;
        QualityMeans {
            reward: self.reward_sum / n,
            hpwl_um: self.hpwl_sum / n,
            dead_space_pct: self.dead_space_pct_sum / n,
            completion_rate: self.completed as f64 / n,
        }
    }
}

/// The four quality metrics. They are exact functions of code and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QualityMeans {
    pub reward: f64,
    pub hpwl_um: f64,
    pub dead_space_pct: f64,
    pub completion_rate: f64,
}

/// Metrics in output order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What one workload's untraced run measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub requests: usize,
    pub wall_s: f64,
    /// Per-request latencies in seconds, over every timed pass.
    pub latencies_s: Vec<f64>,
    /// Quality of the first pass (every later pass must equal it).
    pub quality: QualityMeans,
}

impl EndToEnd {
    pub fn metrics(&self) -> Metrics {
        let lat = sorted(&self.latencies_s);
        let beyond_p95 = lat.len() - (0.95 * lat.len() as f64).ceil() as usize;
        eprintln!("latency samples: {} ({} beyond p95)", lat.len(), beyond_p95);
        let q = &self.quality;
        let mut m = Metrics::default();
        m.push("setup_s", self.setup_s, "s");
        m.push("requests_per_s", self.requests as f64 / self.wall_s, "1/s");
        m.push("latency_p50_ms", percentile(&lat, 0.50) * 1e3, "ms");
        m.push("latency_p95_ms", percentile(&lat, 0.95) * 1e3, "ms");
        m.push("reward_mean", q.reward, "reward");
        m.push("hpwl_um_mean", q.hpwl_um, "um");
        m.push("dead_space_pct_mean", q.dead_space_pct, "%");
        m.push("completion_rate", q.completion_rate, "ratio");
        m.push("peak_rss_mb", peak_rss_mb(), "MiB");
        m
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
