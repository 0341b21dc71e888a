//! The `table1_serve` workload: the five Table I baselines served as a
//! seeded request stream through `ServeDaemon` on a 2-worker pool.
//!
//! One closed-loop client submits a round of jobs, waits for the daemon to
//! go idle, then reads every outcome, as a Table I-style caller waiting for
//! its replies does. A job's latency is its round's wall time. Each pass
//! starts a fresh daemon with an empty cache, as after a restart.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use afp_circuit::{generators, Circuit, ConstraintSet};
use afp_metaheuristics::{Baseline, BaselineResult, StopReason};
use afp_par::{PoolHandle, PoolStats};
use afp_serve::{
    JobEngine, JobId, JobOutcome, JobRequest, JobSpec, JobState, ServeConfig, ServeDaemon,
};

use crate::report::{check_floorplan, placements, run_passes, EndToEnd, FirstPass, Quality, Setup};
use crate::trace::Tracer;
use crate::{Args, Counters, Run};

/// Fresh problems per (circuit, constraints, baseline) combination; a pass
/// is 3 × 60 × this many requests.
const FRESH_PER_COMBO: usize = 7;
/// Jobs per closed-loop round.
const ROUND: usize = 8;
/// `nproc` on the reference host; one client thread plus the drain thread
/// share it with the pool.
const WORKERS: usize = 2;
/// The daemon's default cache capacity is 64 entries; short reuse distances
/// stay inside it, long ones reach past it, so repeats both hit and re-solve.
const SHORT_REUSE: std::ops::RangeInclusive<usize> = 1..=48;
const LONG_REUSE: std::ops::RangeInclusive<usize> = 96..=400;
/// Variants keep their base topology but move every block area by up to
/// this share, so they take the warm-start path.
const VARIANT_JITTER: f64 = 0.25;
/// Non-warm-started solves re-run directly through `Baseline::run` after the
/// timed passes, to check the served answer is the cold solve.
const COLD_CHECKS: usize = 12;
/// Rounds made only of resident fingerprints, timed in the traced run.
const HIT_PROBES: usize = 32;

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// The problems a pass serves: [`FRESH_PER_COMBO`] sized variants of every
/// (Table I circuit, constraints kept or stripped, baseline) combination,
/// each with one more same-topology size variant. The pool is the same for
/// every seed, so the quality columns measure the solvers, not the draw.
fn problem_pool() -> Vec<(JobSpec, JobSpec)> {
    let bases: Vec<Circuit> = generators::evaluation_set()
        .into_iter()
        .map(|b| b.circuit)
        .collect();
    let solvers = Baseline::all_table1();
    let mut rng = StdRng::seed_from_u64(0x7AB1E1);
    let sized = |base: &Circuit, constrained: bool, rng: &mut StdRng| {
        let mut c = generators::random_variant(base, VARIANT_JITTER, rng);
        c.constraints = if constrained {
            base.constraints.clone()
        } else {
            ConstraintSet::new()
        };
        c
    };
    let mut pool = Vec::new();
    for _ in 0..FRESH_PER_COMBO {
        for base in &bases {
            for constrained in [false, true] {
                for solver in &solvers {
                    let fresh = JobSpec::new(
                        sized(base, constrained, &mut rng),
                        solver.clone(),
                        rng.gen(),
                    );
                    let variant = JobSpec::new(
                        sized(base, constrained, &mut rng),
                        solver.clone(),
                        rng.gen(),
                    );
                    pool.push((fresh, variant));
                }
            }
        }
    }
    pool
}

/// The seeded stream: the pool in seeded order, as triples of a fresh
/// problem, its same-topology variant, and an exact repeat of an earlier
/// request at a seeded short or long reuse distance.
fn stream(seed: u64) -> Vec<JobSpec> {
    let mut pool = problem_pool();
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    let mut out: Vec<JobSpec> = Vec::with_capacity(3 * pool.len());
    for (fresh, variant) in pool {
        out.push(fresh);
        out.push(variant);
        let range = if rng.gen_bool(0.5) {
            SHORT_REUSE
        } else {
            LONG_REUSE
        };
        let back = rng.gen_range(range).min(out.len());
        out.push(out[out.len() - back].clone());
    }
    out
}

/// Bit-exact identity of a served answer. `runtime_s` is left out: a
/// re-solve of the same problem takes a different time.
fn result_key(r: &BaselineResult) -> String {
    format!(
        "{} {} {:x} {:?} {} {:?}",
        r.algorithm,
        placements(&r.floorplan),
        r.reward.to_bits(),
        r.metrics,
        r.evaluations,
        r.stop
    )
}

fn span_name(solver: &Baseline) -> &'static str {
    match solver {
        Baseline::Sa(_) => "mh.solve.sa",
        Baseline::Ga(_) => "mh.solve.ga",
        Baseline::Pso(_) => "mh.solve.pso",
        Baseline::RlSa(_) => "mh.solve.rl_sa",
        Baseline::SpRl(_) => "mh.solve.sp_rl",
    }
}

/// Submits a round so that the drain thread claims it whole: every job but
/// the last is queued on the engine without waking the daemon, and the last
/// goes through `ServeDaemon::submit`, which wakes it. Warm-start hints
/// depend on which jobs share a round, so round composition must not depend
/// on thread timing.
fn submit_round(
    daemon: &ServeDaemon,
    round: &[JobSpec],
    mut timed: impl FnMut(&'static str, &mut dyn FnMut()),
) -> Vec<Option<JobId>> {
    let last = round.len() - 1;
    round
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            timed("serve.fingerprint", &mut || {
                std::hint::black_box(spec.fingerprint());
            });
            let mut id = None;
            timed("serve.submit", &mut || {
                let request = JobRequest::new(spec.clone());
                id = if i == last {
                    daemon.submit(request).ok()
                } else {
                    daemon.engine().try_submit(request).ok()
                };
            });
            id
        })
        .collect()
}

/// One pass's answers, in stream order (`None` = failed, cancelled or
/// rejected), with the client-visible wall time of every round.
struct Pass {
    outcomes: Vec<Option<JobOutcome>>,
    round_walls: Vec<f64>,
}

/// Serves the whole stream through a fresh daemon. With a tracer, records
/// the serve, solver and pool spans and counters of the replay.
fn serve_pass(
    pool: &PoolHandle,
    specs: &[JobSpec],
    mut tr: Option<(&mut Tracer, &mut Counters)>,
) -> Result<(f64, Pass), String> {
    let daemon = ServeDaemon::spawn_with_engine(JobEngine::with_pool(&config(), pool.clone()));
    let pool_before = pool.stats();
    let mut pass = Pass {
        outcomes: Vec::with_capacity(specs.len()),
        round_walls: Vec::new(),
    };
    let mut solve_s = 0.0;
    for (r, round) in specs.chunks(ROUND).enumerate() {
        let first = (r * ROUND) as u64;
        let started = Instant::now();
        let mut span = None;
        let ids = match tr.as_mut() {
            Some((tr, _)) => {
                let id = tr.start("serve.round", None, first);
                span = Some(id);
                let ids = submit_round(&daemon, round, |name, f| tr.time(name, span, first, f));
                daemon.wait_idle();
                tr.end(id);
                ids
            }
            None => {
                let ids = submit_round(&daemon, round, |_, f| f());
                daemon.wait_idle();
                ids
            }
        };
        pass.round_walls.push(started.elapsed().as_secs_f64());
        for (spec, id) in round.iter().zip(ids) {
            let outcome = id.and_then(|id| match daemon.engine().state(id) {
                JobState::Done(o) => Some(o),
                _ => None,
            });
            if let (Some((tr, c)), Some(o)) = (tr.as_mut(), &outcome) {
                if !o.cache_hit {
                    tr.record(span_name(&spec.solver), span, first, o.result.runtime_s);
                    c.mh_evaluations += o.result.evaluations;
                    solve_s += o.result.runtime_s;
                }
            }
            pass.outcomes.push(outcome);
        }
    }
    let timed: f64 = pass.round_walls.iter().sum();
    if let Some((tr, c)) = tr {
        let stats = daemon.engine().cache_stats();
        c.serve_hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
        c.serve_warm_seed_rate = stats.warm_seeds as f64 / stats.misses.max(1) as f64;
        c.serve_evictions = stats.evictions;
        c.serve_failed_jobs = pass.outcomes.iter().filter(|o| o.is_none()).count();
        c.mh_solve_s = solve_s;
        let after: PoolStats = pool.stats();
        c.par_batches = after.batches - pool_before.batches;
        c.par_threads_woken = after.threads_woken - pool_before.threads_woken;
        c.par_clamped_batches = after.clamped_batches - pool_before.clamped_batches;
        c.par_busy_share = solve_s / (timed * pool.workers() as f64);
        probe_hits(&daemon, specs, &pass.outcomes, tr)?;
    }
    daemon.shutdown();
    Ok((timed, pass))
}

/// Times rounds made only of fingerprints still resident in the cache and
/// checks every answer is a hit equal to the one served in the stream.
fn probe_hits(
    daemon: &ServeDaemon,
    specs: &[JobSpec],
    outcomes: &[Option<JobOutcome>],
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut resident: Vec<(&JobSpec, &JobOutcome)> = Vec::new();
    for (spec, o) in specs.iter().zip(outcomes).rev() {
        let Some(o) = o else { continue };
        if resident.len() < ROUND
            && daemon.engine().cache().peek(o.fingerprint).is_some()
            && !resident.iter().any(|(_, r)| r.fingerprint == o.fingerprint)
        {
            resident.push((spec, o));
        }
    }
    let round: Vec<JobSpec> = resident.iter().map(|(s, _)| (*s).clone()).collect();
    for probe in 0..HIT_PROBES {
        let span = tr.start("serve.hit_round", None, probe as u64);
        let ids = submit_round(daemon, &round, |_, f| f());
        daemon.wait_idle();
        tr.end(span);
        for ((_, expected), id) in resident.iter().zip(ids) {
            let served = id.and_then(|id| daemon.outcome(id));
            if !served.is_some_and(|o| {
                o.cache_hit && result_key(&o.result) == result_key(&expected.result)
            }) {
                return Err(
                    "hit probe: a resident fingerprint was not served its cached answer".into(),
                );
            }
        }
    }
    Ok(())
}

/// Output checks on one pass: every hit equals the latest solve of its
/// fingerprint, and every floorplan is overlap-free (and complete when the
/// run completed).
fn check_pass(specs: &[JobSpec], outcomes: &[Option<JobOutcome>]) -> Result<(), String> {
    let mut memo: HashMap<afp_serve::fingerprint::Fingerprint, String> = HashMap::new();
    for (spec, outcome) in specs.iter().zip(outcomes) {
        let Some(o) = outcome else { continue };
        let key = result_key(&o.result);
        if o.cache_hit {
            if memo.get(&o.fingerprint) != Some(&key) {
                return Err(format!(
                    "serve hit on {} differs from its solve",
                    o.fingerprint
                ));
            }
        } else if o.result.stop == StopReason::Completed {
            memo.insert(o.fingerprint, key);
        }
        let completed = o.result.stop == StopReason::Completed;
        check_floorplan(
            &spec.circuit,
            &o.result.floorplan,
            &spec.circuit.name,
            completed,
        )?;
    }
    Ok(())
}

/// Re-runs the first [`COLD_CHECKS`] cold (not warm-started) solves through
/// `Baseline::run` and requires the served answer to match.
fn check_cold_solves(specs: &[JobSpec], outcomes: &[Option<JobOutcome>]) -> Result<(), String> {
    let cold = specs
        .iter()
        .zip(outcomes)
        .filter_map(|(s, o)| o.as_ref().map(|o| (s, o)))
        .filter(|(_, o)| !o.cache_hit && !o.warm_started)
        .take(COLD_CHECKS);
    for (spec, o) in cold {
        if result_key(&spec.solver.run(&spec.circuit, spec.seed)) != result_key(&o.result) {
            return Err(format!(
                "served {} differs from a cold Baseline::run",
                spec.solver.name()
            ));
        }
    }
    Ok(())
}

/// A served answer plus how it was served.
fn outcome_key(o: &JobOutcome) -> String {
    format!(
        "{} {} {}",
        o.cache_hit,
        o.warm_started,
        result_key(&o.result)
    )
}

pub fn table1_serve(args: &Args, tr: Option<&mut Tracer>, c: &mut Counters) -> Result<Run, String> {
    let mut setup = Setup::new(|| (stream(args.seed), PoolHandle::new(WORKERS)));
    let (specs, pool) = setup.slice();
    let seconds = if tr.is_some() { 0.0 } else { args.seconds };
    let mut first = FirstPass::default();
    let mut latencies = Vec::new();
    let (wall, _) = run_passes(seconds, &mut setup, |k| {
        let (t, pass) = serve_pass(&pool, &specs, None)?;
        check_pass(&specs, &pass.outcomes)?;
        for (&t, round) in pass.round_walls.iter().zip(specs.chunks(ROUND)) {
            latencies.extend(std::iter::repeat_n(t, round.len()));
        }
        first.absorb(k, pass.outcomes, outcome_key, "table1_serve")?;
        Ok(t)
    })?;
    check_cold_solves(&specs, &first.results)?;

    if let Some(tr) = tr {
        c.untraced_rps = first.requests as f64 / wall;
        let (traced_wall, replay) = serve_pass(&pool, &specs, Some((tr, c)))?;
        check_pass(&specs, &replay.outcomes)?;
        let keys: Vec<Option<String>> = replay
            .outcomes
            .iter()
            .map(|o| o.as_ref().map(outcome_key))
            .collect();
        if keys != first.keys() {
            return Err("table1_serve: traced replay differs from the untraced pass".into());
        }
        c.traced_rps = specs.len() as f64 / traced_wall;
        return Ok(Run::layers(specs.len() as u64, first.failed));
    }
    // Quality over the distinct problems (each one's first answer), so the
    // seeded repeats do not reweight the fixed problem mix.
    let mut quality = Quality::default();
    let mut seen = HashSet::new();
    for (spec, o) in specs.iter().zip(&first.results) {
        if let Some(o) = o.as_ref().filter(|o| seen.insert(o.fingerprint)) {
            quality.add(
                &spec.circuit,
                &o.result.floorplan,
                o.result.reward,
                &o.result.metrics,
            );
        }
    }
    Ok(Run::end_to_end(
        &EndToEnd {
            setup_s: setup.seconds(),
            requests: first.requests,
            wall_s: wall,
            latencies_s: latencies,
            quality: quality.means(),
        },
        first.failed,
    ))
}
