//! End-to-end and per-layer benchmark of the analog floorplanner.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `curriculum_train`, `table1_serve` (see README.md for why
//! each exists).
//! With `--trace 0` the last stdout line holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced replay, and the
//! spans are written to `benchmark/traces/`. Outputs are checked before any
//! number is printed: a failed check prints `"correct": false` with no
//! metrics and exits with code 1.

mod agent;
mod kernels;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;

use report::{result_line, EndToEnd, Metrics};
use trace::Tracer;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Layer counters the traced replays fill in beside their spans.
#[derive(Debug, Default)]
pub struct Counters {
    pub rollouts: usize,
    pub failed_rollouts: usize,
    pub solves: usize,
    /// Rollouts spent inside solves (a training episode is a rollout too).
    pub solve_rollouts: usize,
    pub embed_hits: usize,
    pub ppo_samples: usize,
    pub unrouted_nets: usize,
    pub mh_evaluations: usize,
    pub mh_solve_s: f64,
    pub par_batches: u64,
    pub par_threads_woken: u64,
    pub par_clamped_batches: u64,
    pub par_busy_share: f64,
    pub serve_hit_rate: f64,
    pub serve_warm_seed_rate: f64,
    pub serve_evictions: u64,
    pub serve_failed_jobs: usize,
    /// Requests per second of the untraced reference pass and of the traced
    /// replay, for `trace_overhead_pct`.
    pub untraced_rps: f64,
    pub traced_rps: f64,
}

/// A finished run: operation counts, and end-to-end metrics unless traced.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Option<Metrics>,
}

impl Run {
    pub fn end_to_end(e: &EndToEnd, failed: u64) -> Run {
        Run {
            attempted: e.requests as u64,
            failed,
            metrics: Some(e.metrics()),
        }
    }

    pub fn layers(attempted: u64, failed: u64) -> Run {
        Run {
            attempted,
            failed,
            metrics: None,
        }
    }
}

/// Span families with their unit, and the name of the call count where it
/// is not `<family>_calls` (decisions and encodes read better by name).
const FAMILIES: &[(&str, Unit, Option<&str>)] = &[
    ("rl.forward", Unit::Ms, Some("rl.decisions")),
    ("rl.observe", Unit::Us, None),
    ("rl.step", Unit::Us, None),
    ("rl.sample", Unit::Us, None),
    ("rl.ppo_update", Unit::Ms, None),
    ("layout.masks_build", Unit::Us, None),
    ("layout.wire_mask", Unit::Us, None),
    ("layout.positional_masks", Unit::Us, None),
    ("layout.dead_space_mask", Unit::Us, None),
    ("layout.metrics", Unit::Us, None),
    ("gnn.encode", Unit::Us, Some("gnn.encodes")),
    ("core.floorplan", Unit::Ms, None),
    ("route.complete_layout", Unit::Ms, None),
    ("serve.fingerprint", Unit::Us, None),
    ("serve.submit", Unit::Us, None),
    ("serve.round", Unit::Ms, None),
    ("serve.hit_round", Unit::Us, None),
];

/// Solver families of `table1_serve`: median ms per cold solve and calls.
const SOLVERS: &[&str] = &["sa", "ga", "pso", "rl_sa", "sp_rl"];

#[derive(Clone, Copy)]
enum Unit {
    Ms,
    Us,
}

impl Unit {
    fn scale(self) -> (f64, &'static str) {
        match self {
            Unit::Ms => (1e3, "ms"),
            Unit::Us => (1e6, "us"),
        }
    }
}

/// Every per-layer metric, on every workload. A family the workload never
/// calls reports zero calls and zero time.
fn layer_metrics(tr: &Tracer, c: &Counters) -> Metrics {
    let mut m = Metrics::default();
    for &(stem, unit, calls_name) in FAMILIES {
        let f = tr.family(stem);
        let (scale, u) = unit.scale();
        m.push(format!("{stem}_{u}"), f.p50_s * scale, u);
        m.push(format!("{stem}_p95_{u}"), f.p95_s * scale, u);
        m.push(
            calls_name.map_or(format!("{stem}_calls"), str::to_string),
            f.calls as f64,
            "count",
        );
        m.push(format!("{stem}_busy_s"), f.busy_s, "s");
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ppo = tr.family("rl.ppo_update");
    let encode = tr.family("gnn.encode");
    m.push("rl.rollouts", c.rollouts as f64, "count");
    m.push(
        "rl.rollouts_per_solve",
        ratio(c.solve_rollouts as f64, c.solves as f64),
        "ratio",
    );
    m.push(
        "rl.failed_rollout_rate",
        ratio(c.failed_rollouts as f64, c.rollouts as f64),
        "ratio",
    );
    m.push(
        "rl.ppo_us_per_sample",
        ratio(ppo.busy_s * 1e6, c.ppo_samples as f64),
        "us",
    );
    m.push(
        "gnn.embed_hit_rate",
        ratio(c.embed_hits as f64, (c.embed_hits + encode.calls) as f64),
        "ratio",
    );
    m.push("route.unrouted_nets", c.unrouted_nets as f64, "count");
    for solver in SOLVERS {
        let f = tr.family(&format!("mh.solve.{solver}"));
        m.push(format!("mh.solve_ms.{solver}"), f.p50_s * 1e3, "ms");
        m.push(format!("mh.solve_calls.{solver}"), f.calls as f64, "count");
    }
    m.push("mh.evaluations", c.mh_evaluations as f64, "count");
    m.push(
        "mh.evals_per_s",
        ratio(c.mh_evaluations as f64, c.mh_solve_s),
        "1/s",
    );
    m.push("par.batches", c.par_batches as f64, "count");
    m.push("par.threads_woken", c.par_threads_woken as f64, "count");
    m.push("par.clamped_batches", c.par_clamped_batches as f64, "count");
    m.push("par.busy_share", c.par_busy_share, "ratio");
    m.push("serve.hit_rate", c.serve_hit_rate, "ratio");
    m.push("serve.warm_seed_rate", c.serve_warm_seed_rate, "ratio");
    m.push("serve.evictions", c.serve_evictions as f64, "count");
    m.push("serve.failed_jobs", c.serve_failed_jobs as f64, "count");
    m.push(
        "trace_overhead_pct",
        (ratio(c.untraced_rps, c.traced_rps) - 1.0) * 100.0,
        "%",
    );
    kernels::measure(&mut m);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = match args.workload.as_str() {
        "curriculum_train" => agent::curriculum_train,
        "table1_serve" => serve::table1_serve,
        other => {
            eprintln!("unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = args.trace.then(Tracer::new);
    let mut counters = Counters::default();
    match workload(&args, tracer.as_mut(), &mut counters) {
        Ok(run) => {
            let metrics = match (&tracer, run.metrics) {
                (Some(tr), _) => {
                    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
                    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
                    if let Err(e) = std::fs::create_dir_all(&dir)
                        .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
                    {
                        eprintln!("could not write {}: {e}", path.display());
                    }
                    layer_metrics(tr, &counters)
                }
                (None, Some(m)) => m,
                (None, None) => unreachable!("untraced runs report end-to-end metrics"),
            };
            println!("{}", result_line(true, run.attempted, run.failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(check) => {
            eprintln!("output check failed: {check}");
            println!("{}", result_line(false, 0, 0, &Metrics::default()));
            ExitCode::from(1)
        }
    }
}
