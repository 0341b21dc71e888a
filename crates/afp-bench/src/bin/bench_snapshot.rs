//! Reproducible perf snapshot: writes `BENCH_pack.json` with the packing
//! engines' median times, the grid-realization (`snap`), large-n cost
//! pipeline (`large_n`), positional-mask (`masks`), parallel
//! generation-evaluation (`eval_pool`), parked-pool dispatch
//! (`pool_overhead`) and locality-aware move mix (`sa_locality`) medians,
//! the serve layer's cache-hit latency and job
//! throughput (`serve`), the serve daemon's drain-loop throughput and
//! snapshot restore-then-hit latency (`serve_daemon`), the SA evaluation
//! throughput, and the agent's kernels, policy forward and PPO update
//! (`agent`), so every PR that touches the hot path has a trajectory to
//! compare against.
//!
//! Usage: `cargo run --release -p afp-bench --bin bench_snapshot`
//! (run from the repository root; the snapshot is written to
//! `BENCH_pack.json` in the current directory).

use std::time::Instant;

use afp_bench::perf::{
    interleaved_median_ns, masks_workload, median_ns, policy_layers, random_pair, seeded_rollouts,
    snap_workload, sparse_values, synthetic_circuit, LARGE_N_SIZES, PACK_SIZES,
};
use afp_circuit::generators;
use afp_layout::masks::positional_masks;
use afp_layout::sequence_pair::{realize_floorplan, PackedFloorplan};
use afp_layout::{Floorplan, PackScratch};
use afp_metaheuristics::{
    simulated_annealing, Baseline, Candidate, CostCache, EvalPool, GaConfig, MoveMix, Problem,
    SaConfig,
};
use afp_par::{PoolHandle, WorkerPool};
use afp_rl::{FloorplanAgent, PolicyConfig, PpoStats, PpoTrainer, RolloutBuffer};
use afp_serve::{CacheHandle, JobEngine, JobRequest, JobSpec, ServeConfig, ServeDaemon};
use afp_tensor::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // SA throughput is measured first, before the long pack/snap sweeps have
    // kept the shared container busy for minutes — the ~10 ms SA runs are the
    // most sensitive to scheduler/thermal contamination from earlier
    // sections. Results are printed in their usual place below.
    let sa_circuit = generators::bias19();
    let config = SaConfig::table1();
    // The untimed warm-up run (doubles as the fallback result value).
    let mut sa_result = simulated_annealing(&sa_circuit, &config);
    let mut sa_samples = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        sa_result = simulated_annealing(&sa_circuit, &config);
        sa_samples.push(started.elapsed().as_secs_f64());
    }

    // Parallel generation evaluation (EvalPool): a GA-style 40-candidate
    // generation on Bias-2 through the serial `cost_cached` loop and through
    // the pool at 1/2/4 workers — measured here, while the machine is still
    // quiet, for the same reason SA is. Bit-identity of the pool against the
    // serial loop is asserted outright: a divergence aborts the snapshot and
    // with it the CI smoke run.
    let pool_problem = Problem::new(&sa_circuit);
    const POPULATION: usize = 40;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rng = StdRng::seed_from_u64(0xE7A1);
    let initial_generation: Vec<Candidate> = (0..POPULATION)
        .map(|_| Candidate::random(pool_problem.num_blocks(), &mut rng))
        .collect();
    let bit_identical = {
        let mut check_cache = CostCache::new(&pool_problem);
        let serial_costs: Vec<f64> = initial_generation
            .iter()
            .map(|c| pool_problem.cost_cached(c, &mut check_cache))
            .collect();
        [1usize, 2, 4].into_iter().all(|workers| {
            let mut pool = EvalPool::new(&pool_problem, workers);
            pool.evaluate(&pool_problem, &initial_generation) == serial_costs
        })
    };
    // The recorded verdict is the computed one; a divergence still aborts the
    // snapshot (and with it the CI smoke run) rather than writing `false`.
    assert!(bit_identical, "EvalPool diverged from the serial loop");
    // Every timing row restarts from the same population and perturbation
    // stream, so serial and 1/2/4-worker rows time the identical candidate
    // workload and their ratio (speedup_workers4) is workload-matched.
    let time_row = |pool_workers: Option<usize>| -> f64 {
        let mut generation = initial_generation.clone();
        let mut rng = StdRng::seed_from_u64(0x6E21);
        let mut cache = CostCache::new(&pool_problem);
        let mut pool = pool_workers.map(|w| EvalPool::new(&pool_problem, w));
        median_ns(|| {
            for candidate in &mut generation {
                let _ = candidate.perturb(&mut rng);
            }
            match &mut pool {
                Some(pool) => {
                    let _ = pool.evaluate(&pool_problem, &generation);
                }
                None => {
                    for candidate in &generation {
                        let _ = pool_problem.cost_cached(candidate, &mut cache);
                    }
                }
            }
        })
    };
    let serial_generation_ns = time_row(None);
    let pool_generation_ns: Vec<(usize, f64)> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| (workers, time_row(Some(workers))))
        .collect();
    let workers4_ns = pool_generation_ns
        .iter()
        .find(|(w, _)| *w == 4)
        .map(|&(_, ns)| ns)
        .expect("4-worker row measured");
    let pool_speedup_4 = serial_generation_ns / workers4_ns.max(1e-9);

    // Per-batch dispatch overhead of the parked pool against a spawn-per-call
    // baseline (a transient pool built, used once and joined per batch), on
    // a trivial 8-item batch at 2 workers: the work is negligible, so each
    // median is the fixed cost per batch its model charges. The acceptance
    // bar for the persistent pool is that the parked dispatch (one epoch bump
    // + unpark per active worker) lands strictly below a thread
    // spawn-and-join, which holds even on a 1-hardware-thread host — both
    // models context-switch there, but only the baseline pays thread
    // creation and teardown too. The two models are sampled pair by pair,
    // so a host phase switch mid-section slows both rows alike instead of
    // only whichever block it fell into.
    const OVERHEAD_WORKERS: usize = 2;
    let overhead_items: Vec<u64> = (0..8).collect();
    let mut overhead_pool = WorkerPool::new(OVERHEAD_WORKERS);
    let mut spawn_states = vec![0u64; OVERHEAD_WORKERS];
    let mut parked_states = vec![0u64; OVERHEAD_WORKERS];
    let (spawn_batch_ns, parked_batch_ns) = interleaved_median_ns(
        || {
            let _ = WorkerPool::new(OVERHEAD_WORKERS).map_scoped(
                &overhead_items,
                &mut spawn_states,
                |_, &x| x,
            );
        },
        || {
            let _ = overhead_pool.map_scoped(&overhead_items, &mut parked_states, |_, &x| x);
        },
    );
    let overhead_stats = overhead_pool.stats();
    drop(overhead_pool);
    let spawn_over_parked = spawn_batch_ns / parked_batch_ns.max(1e-9);

    // Serve layer: cache-hit latency vs cold solve, and job throughput at
    // 1/2/4 pool workers on a batch of distinct-seed Table-I SA jobs.
    // Bit-identity of the memoized result against the cold solve is asserted
    // before any timing — a written `serve` section proves the check passed.
    let serve_spec = JobSpec::new(sa_circuit.clone(), Baseline::Sa(SaConfig::table1()), 0x5EED);
    let serve_pool = PoolHandle::new(1);
    let serve_bit_identical = {
        let engine = JobEngine::with_pool(&ServeConfig::default(), serve_pool.clone());
        let cold = engine.submit(JobRequest::new(serve_spec.clone()));
        engine.run_pending();
        let hot = engine.submit(JobRequest::new(serve_spec.clone()));
        engine.run_pending();
        let cold = engine.outcome(cold).expect("cold solve finished").clone();
        let hot = engine.outcome(hot).expect("hit resolved").clone();
        !cold.cache_hit
            && hot.cache_hit
            && cold.result.reward.to_bits() == hot.result.reward.to_bits()
            && cold.result.evaluations == hot.result.evaluations
            && cold.result.floorplan == hot.result.floorplan
            && engine.cache_stats().hits == 1
    };
    assert!(
        serve_bit_identical,
        "serve cache hit diverged from the cold solve"
    );
    let serve_cold_ns = median_ns(|| {
        let engine = JobEngine::with_pool(&ServeConfig::default(), serve_pool.clone());
        let id = engine.submit(JobRequest::new(serve_spec.clone()));
        engine.run_pending();
        assert!(!engine.outcome(id).expect("solved").cache_hit);
    });
    // Hit latency is measured on a warmed engine with a bounded submission
    // count per sample (not `median_ns`, whose calibration would enqueue
    // millions of job records): median of 5 samples of 200 hits.
    let serve_hit_ns = {
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let engine =
                    JobEngine::with_pool(&ServeConfig::default(), serve_pool.clone());
                engine.submit(JobRequest::new(serve_spec.clone()));
                engine.run_pending();
                const HITS: usize = 200;
                let started = Instant::now();
                for _ in 0..HITS {
                    let id = engine.submit(JobRequest::new(serve_spec.clone()));
                    engine.run_pending();
                    assert!(engine.outcome(id).expect("resolved").cache_hit);
                }
                started.elapsed().as_nanos() as f64 / HITS as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let serve_hit_speedup = serve_cold_ns / serve_hit_ns.max(1e-9);
    const SERVE_JOBS: u64 = 8;
    let mut serve_seed = 0u64;
    let mut serve_jobs_per_sec = |workers: usize| {
        let pool = PoolHandle::new(workers);
        let ns = median_ns(|| {
            // Fresh engine, fresh seeds: every job is a genuine solve, so
            // the number reflects sharded solve throughput, not cache hits.
            let engine = JobEngine::with_pool(&ServeConfig::default(), pool.clone());
            for _ in 0..SERVE_JOBS {
                serve_seed += 1;
                let mut spec = serve_spec.clone();
                spec.seed = 0x0DD5_0000 + serve_seed;
                engine.submit(JobRequest::new(spec));
            }
            assert_eq!(engine.run_pending(), SERVE_JOBS as usize);
        });
        SERVE_JOBS as f64 / (ns * 1e-9).max(1e-12)
    };
    let serve_jps_w1 = serve_jobs_per_sec(1);
    let serve_jps_w2 = serve_jobs_per_sec(2);
    let serve_jps_w4 = serve_jobs_per_sec(4);

    // Serve daemon: restore-then-hit latency against the cold solve, and
    // sustained throughput through the live drain loop on an 8-job mixed
    // SA/GA batch at 1/2/4 pool workers. The restored hit's bit-identity
    // against the cold outcome is asserted before any timing — a written
    // `serve_daemon` section proves a snapshotted cache answers exactly
    // what the cold engine solved.
    let (daemon_snapshot_bytes, daemon_bit_identical) = {
        let engine = JobEngine::with_pool(&ServeConfig::default(), serve_pool.clone());
        let id = engine.submit(JobRequest::new(serve_spec.clone()));
        engine.run_pending();
        let cold = engine.outcome(id).expect("cold solve finished");
        let bytes = engine.cache().snapshot_bytes();
        let restored = CacheHandle::new(64);
        restored
            .restore_bytes(&bytes)
            .expect("snapshot round-trips");
        let warm = JobEngine::with_cache(&ServeConfig::default(), serve_pool.clone(), restored);
        let id = warm.submit(JobRequest::new(serve_spec.clone()));
        warm.run_pending();
        let hit = warm.outcome(id).expect("restored hit resolved");
        let identical = hit.cache_hit
            && cold.result.reward.to_bits() == hit.result.reward.to_bits()
            && cold.result.evaluations == hit.result.evaluations
            && cold.result.floorplan == hit.result.floorplan;
        (bytes, identical)
    };
    assert!(
        daemon_bit_identical,
        "restored cache hit diverged from the cold solve"
    );
    // Restore-then-hit latency: each sample decodes the snapshot into a
    // fresh cache and serves 200 hits through a fresh engine, so the
    // per-hit figure carries its amortized share of the restore. Same
    // bounded-sample shape as `serve_hit_ns` (median_ns would calibrate to
    // millions of job records).
    let daemon_restored_hit_ns = {
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                const HITS: usize = 200;
                let started = Instant::now();
                let restored = CacheHandle::new(64);
                restored
                    .restore_bytes(&daemon_snapshot_bytes)
                    .expect("snapshot round-trips");
                let engine =
                    JobEngine::with_cache(&ServeConfig::default(), serve_pool.clone(), restored);
                for _ in 0..HITS {
                    let id = engine.submit(JobRequest::new(serve_spec.clone()));
                    engine.run_pending();
                    assert!(engine.outcome(id).expect("resolved").cache_hit);
                }
                started.elapsed().as_nanos() as f64 / HITS as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let daemon_restore_speedup = serve_cold_ns / daemon_restored_hit_ns.max(1e-9);
    const DAEMON_JOBS: u64 = 8;
    let mut daemon_seed = 0u64;
    let mut daemon_jobs_per_sec = |workers: usize| {
        // One persistent daemon per worker count; every sample streams 8
        // fresh-seed jobs through the live drain loop and blocks on
        // `wait_idle`, so the number is sustained submit-to-resolved
        // throughput, not cache hits.
        let daemon = ServeDaemon::spawn(&ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let ns = median_ns(|| {
            for _ in 0..DAEMON_JOBS {
                daemon_seed += 1;
                let solver = if daemon_seed % 2 == 0 {
                    Baseline::Ga(GaConfig::small())
                } else {
                    Baseline::Sa(SaConfig::table1())
                };
                let spec =
                    JobSpec::new(sa_circuit.clone(), solver, 0xDAE0_0000 + daemon_seed);
                daemon
                    .submit(JobRequest::new(spec))
                    .expect("daemon admits while draining");
            }
            daemon.wait_idle();
        });
        daemon.shutdown();
        DAEMON_JOBS as f64 / (ns * 1e-9).max(1e-12)
    };
    let daemon_jps_w1 = daemon_jobs_per_sec(1);
    let daemon_jps_w2 = daemon_jobs_per_sec(2);
    let daemon_jps_w4 = daemon_jobs_per_sec(4);

    // Locality-aware SA move mix: the end-to-end cost walk at bias 0 (the
    // historical uniform proposal stream) vs the Table I bias, per move.
    let locality_move_ns = |bias: f64| {
        let mix = MoveMix::local(bias);
        let mut cache = CostCache::new(&pool_problem);
        let mut rng = StdRng::seed_from_u64(0x10CA);
        let mut walk = Candidate::random(pool_problem.num_blocks(), &mut rng);
        median_ns(|| {
            let _ = walk.perturb_with(&mix, &mut rng);
            let _ = pool_problem.cost_cached(&walk, &mut cache);
        })
    };
    let uniform_move_ns = locality_move_ns(0.0);
    let local_move_ns = locality_move_ns(config.locality_bias);

    let mut pack_rows = Vec::new();
    for &n in &PACK_SIZES {
        let sp = random_pair(n, 0xBEEF ^ n as u64);
        let mut scratch = PackScratch::with_capacity(n);
        let mut out = PackedFloorplan::default();
        let fast_ns = median_ns(|| sp.pack_into(&mut scratch, &mut out));
        let legacy_ns = median_ns(|| {
            let _ = sp.pack_relaxation();
        });
        let speedup = legacy_ns / fast_ns.max(1e-9);
        println!(
            "pack n={n:>3}: fast_sp {fast_ns:>12.1} ns  legacy {legacy_ns:>14.1} ns  speedup {speedup:>8.1}x"
        );
        pack_rows.push(format!(
            "    {{\"blocks\": {n}, \"fast_sp_ns\": {fast_ns:.1}, \"legacy_relaxation_ns\": {legacy_ns:.1}, \"speedup\": {speedup:.2}}}"
        ));
    }

    // Grid realization (pack + scale + snap + bitboard nearest-fit): the
    // stage the BitGrid engine targets.
    let mut snap_rows = Vec::new();
    for &n in &PACK_SIZES {
        let (circuit, canvas, sp) = snap_workload(n, 0xBEEF ^ n as u64);
        let mut scratch = PackScratch::with_capacity(n);
        let mut fp = Floorplan::new(canvas);
        let snap_ns = median_ns(|| {
            realize_floorplan(
                &sp.positive,
                &sp.negative,
                &sp.shapes,
                &circuit,
                canvas,
                &mut scratch,
                &mut fp,
            )
        });
        println!("snap n={n:>3}: realize_floorplan {snap_ns:>12.1} ns");
        snap_rows.push(format!(
            "    {{\"blocks\": {n}, \"realize_floorplan_ns\": {snap_ns:.1}}}"
        ));
    }

    // Large-n workload tier: 200/500/1000-block synthetic circuits through
    // the cost pipeline on multi-word occupancy grids
    // (grid_side_for picks 64/96/128 cells per side). Each row records the
    // warm per-move SA cost and a 6-candidate EvalPool generation.
    let mut large_n_rows = Vec::new();
    for &n in &LARGE_N_SIZES {
        let circuit = synthetic_circuit(n);
        let problem = Problem::new(&circuit);
        let grid_side = problem.grid_side;
        let mut cache = CostCache::new(&problem);
        let mut rng = StdRng::seed_from_u64(0x1A26 ^ n as u64);
        let mut walk = Candidate::random(problem.num_blocks(), &mut rng);
        let sa_move_ns = median_ns(|| {
            let _ = walk.perturb(&mut rng);
            let _ = problem.cost_cached(&walk, &mut cache);
        });
        let generation: Vec<Candidate> = (0..6)
            .map(|_| Candidate::random(problem.num_blocks(), &mut rng))
            .collect();
        let mut pool = EvalPool::new(&problem, 2);
        let pool_generation_ns = median_ns(|| {
            let _ = pool.evaluate(&problem, &generation);
        });
        println!(
            "large_n n={n:>4}: grid {grid_side:>3}  sa {sa_move_ns:>10.1} ns/move  pool-gen {pool_generation_ns:>12.1} ns"
        );
        large_n_rows.push(format!(
            "    {{\"blocks\": {n}, \"grid_side\": {grid_side}, \"sa_move_ns\": {sa_move_ns:.1}, \"eval_pool_generation_ns\": {pool_generation_ns:.1}}}"
        ));
    }

    // Positional-mask (f_p) construction from the free-anchor bitmask — the
    // per-step cost of the RL env and mask-dataset builds.
    let (mcircuit, mfp, mblock, mshapes) = masks_workload();
    let masks_ns = median_ns(|| {
        let _ = positional_masks(&mcircuit, &mfp, mblock, &mshapes);
    });
    println!("masks bias19: positional_masks {masks_ns:>12.1} ns");

    println!(
        "eval_pool bias19: serial 40-gen {serial_generation_ns:>10.1} ns  pool {} (speedup x4 {pool_speedup_4:.2}, {hardware_threads} hw threads)",
        pool_generation_ns
            .iter()
            .map(|(w, ns)| format!("w{w} {ns:.0}"))
            .collect::<Vec<_>>()
            .join("  "),
    );
    println!(
        "pool_overhead: spawn-per-call {spawn_batch_ns:>10.1} ns/batch  parked {parked_batch_ns:>10.1} ns/batch ({spawn_over_parked:.1}x, {} batches, {} wakes)",
        overhead_stats.batches, overhead_stats.threads_woken,
    );
    println!(
        "serve bias19: cold {:.1} ms  hit {:.1} us ({serve_hit_speedup:.0}x)  {SERVE_JOBS} jobs  w1 {serve_jps_w1:.1}/s  w2 {serve_jps_w2:.1}/s  w4 {serve_jps_w4:.1}/s",
        serve_cold_ns / 1e6,
        serve_hit_ns / 1e3,
    );
    println!(
        "serve_daemon bias19: restored hit {:.1} us ({daemon_restore_speedup:.0}x vs cold, {} snapshot bytes)  {DAEMON_JOBS} jobs  w1 {daemon_jps_w1:.1}/s  w2 {daemon_jps_w2:.1}/s  w4 {daemon_jps_w4:.1}/s",
        daemon_restored_hit_ns / 1e3,
        daemon_snapshot_bytes.len(),
    );
    println!(
        "sa_locality bias19: uniform {uniform_move_ns:>8.1} ns/move  bias {:.2} {local_move_ns:>8.1} ns/move",
        config.locality_bias,
    );

    // SA throughput on the largest paper circuit (Bias-2, 19 blocks): full
    // cost evaluations (pack + grid realization + reward) per second,
    // measured at the top of `main` (before the long sweeps disturb the
    // machine) after one untimed warm-up run — the Table I budget is only
    // 4 000 moves, so a cold run is dominated by first-touch page faults and
    // branch training rather than the steady-state cost the trajectory
    // tracks. Each timed run lasts only ~10 ms, so a single sample is
    // dominated by scheduler noise on the shared container — the median of
    // 5 runs is reported, matching every other snapshot section.
    let result = sa_result;
    let mut samples = sa_samples;
    samples.sort_by(f64::total_cmp);
    let elapsed = samples[samples.len() / 2];
    let moves_per_sec = result.evaluations as f64 / elapsed.max(1e-9);
    println!(
        "sa bias19: {} evaluations in {elapsed:.3} s (median of {}) -> {moves_per_sec:.0} moves/s (reward {:.3})",
        result.evaluations,
        samples.len(),
        result.reward
    );

    // The EvalPool and locality-mix sections, assembled separately so the
    // top-level format string stays readable.
    let eval_pool_json = format!(
        "  \"eval_pool\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"population\": {POPULATION},\n    \"hardware_threads\": {hardware_threads},\n    \"serial_generation_ns\": {serial_generation_ns:.1},\n    \"workers1_generation_ns\": {:.1},\n    \"workers2_generation_ns\": {:.1},\n    \"workers4_generation_ns\": {:.1},\n    \"speedup_workers4\": {pool_speedup_4:.2},\n    \"bit_identical\": {bit_identical}\n  }}",
        sa_circuit.name,
        sa_circuit.num_blocks(),
        pool_generation_ns[0].1,
        pool_generation_ns[1].1,
        pool_generation_ns[2].1,
    );
    let sa_locality_json = format!(
        "  \"sa_locality\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"locality_bias\": {:.2},\n    \"uniform_move_ns\": {uniform_move_ns:.1},\n    \"local_move_ns\": {local_move_ns:.1}\n  }}",
        sa_circuit.name,
        sa_circuit.num_blocks(),
        config.locality_bias,
    );
    let pool_overhead_json = format!(
        "  \"pool_overhead\": {{\n    \"hardware_threads\": {hardware_threads},\n    \"workers\": {OVERHEAD_WORKERS},\n    \"batch_items\": {},\n    \"spawn_batch_ns\": {spawn_batch_ns:.1},\n    \"parked_batch_ns\": {parked_batch_ns:.1},\n    \"spawn_over_parked\": {spawn_over_parked:.2},\n    \"parked_batches\": {},\n    \"parked_threads_woken\": {}\n  }}",
        overhead_items.len(),
        overhead_stats.batches,
        overhead_stats.threads_woken,
    );
    let serve_json = format!(
        "  \"serve\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"hardware_threads\": {hardware_threads},\n    \"solver\": \"SA\",\n    \"cold_solve_ns\": {serve_cold_ns:.1},\n    \"cache_hit_ns\": {serve_hit_ns:.1},\n    \"hit_speedup\": {serve_hit_speedup:.1},\n    \"batch_jobs\": {SERVE_JOBS},\n    \"jobs_per_sec_workers1\": {serve_jps_w1:.2},\n    \"jobs_per_sec_workers2\": {serve_jps_w2:.2},\n    \"jobs_per_sec_workers4\": {serve_jps_w4:.2},\n    \"bit_identical\": {serve_bit_identical}\n  }}",
        sa_circuit.name,
        sa_circuit.num_blocks(),
    );
    let serve_daemon_json = format!(
        "  \"serve_daemon\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"hardware_threads\": {hardware_threads},\n    \"batch_jobs\": {DAEMON_JOBS},\n    \"drain_jobs_per_sec_workers1\": {daemon_jps_w1:.2},\n    \"drain_jobs_per_sec_workers2\": {daemon_jps_w2:.2},\n    \"drain_jobs_per_sec_workers4\": {daemon_jps_w4:.2},\n    \"restored_hit_ns\": {daemon_restored_hit_ns:.1},\n    \"restore_speedup\": {daemon_restore_speedup:.1},\n    \"snapshot_bytes\": {},\n    \"bit_identical\": {daemon_bit_identical}\n  }}",
        sa_circuit.name,
        sa_circuit.num_blocks(),
        daemon_snapshot_bytes.len(),
    );

    let agent_json = agent_json(hardware_threads);

    let json = format!(
        "{{\n  \"benchmark\": \"pack\",\n  \"description\": \"FAST-SP vs legacy relaxation packing; BitGrid grid realization (multi-word rows past 64 columns), the large-n workload tier, positional masks; parallel EvalPool generation evaluation, parked WorkerPool dispatch overhead, locality-aware SA move mix, the serve layer's result cache and job engine, the serve daemon's drain loop and snapshot restore, SA cost-evaluation throughput, and the RL agent's conv/deconv/dense kernels, policy forward and PPO update\",\n  \"pack\": [\n{}\n  ],\n  \"snap\": [\n{}\n  ],\n  \"large_n\": [\n{}\n  ],\n  \"masks\": {{\n    \"circuit\": \"{}\",\n    \"positional_masks_ns\": {:.1}\n  }},\n{eval_pool_json},\n{pool_overhead_json},\n{serve_json},\n{serve_daemon_json},\n{sa_locality_json},\n{agent_json},\n  \"sa\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"iterations\": {},\n    \"evaluations\": {},\n    \"locality_bias\": {:.2},\n    \"seconds\": {:.4},\n    \"moves_per_sec\": {:.0}\n  }}\n}}\n",
        pack_rows.join(",\n"),
        snap_rows.join(",\n"),
        large_n_rows.join(",\n"),
        mcircuit.name,
        masks_ns,
        sa_circuit.name,
        sa_circuit.num_blocks(),
        config.iterations,
        result.evaluations,
        config.locality_bias,
        elapsed,
        moves_per_sec,
    );
    std::fs::write("BENCH_pack.json", &json).expect("write BENCH_pack.json");
    println!("wrote BENCH_pack.json");
}

/// The `agent` section: per-kind kernel medians at the small and paper
/// policy shapes (the sum over that config's layers of each layer's median
/// forward and backward call), `ActorCritic::forward` on a real mid-episode
/// observation for both configs, and the small config's PPO update per
/// transition, whole and stage by stage.
fn agent_json(hardware_threads: usize) -> String {
    let (mut agent, buffer) = seeded_rollouts();
    let obs = &buffer.transitions()[buffer.len() / 2];
    let mut rows = Vec::new();
    for (label, config) in [
        ("small", PolicyConfig::small()),
        ("paper", PolicyConfig::paper()),
    ] {
        let mut fwd_ns = [0.0f64; 3];
        let mut bwd_ns = [0.0f64; 3];
        for (i, layer) in policy_layers(&config).into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xA6E7 + i as u64);
            let (mut net, input) = layer.build(&mut rng);
            let fwd = median_ns(|| {
                std::hint::black_box(net.forward(&input));
            });
            let out = net.forward(&input);
            let grad = Tensor::from_vec(sparse_values(&mut rng, out.len()), out.shape());
            let bwd = median_backward_ns(net.as_mut(), &input, &grad);
            fwd_ns[layer.kind as usize] += fwd;
            bwd_ns[layer.kind as usize] += bwd;
        }
        for (k, kind) in ["conv", "deconv", "dense"].into_iter().enumerate() {
            rows.push(format!("\"{kind}_fwd_ns_{label}\": {:.1}", fwd_ns[k]));
            rows.push(format!("\"{kind}_bwd_ns_{label}\": {:.1}", bwd_ns[k]));
        }
        let mut policy = afp_rl::ActorCritic::new(config, &mut StdRng::seed_from_u64(0));
        let forward_ns = median_ns(|| {
            std::hint::black_box(policy.forward(
                &obs.masks,
                &obs.graph_embedding,
                &obs.node_embedding,
            ));
        });
        rows.push(format!("\"policy_forward_ns_{label}\": {forward_ns:.1}"));
        println!(
            "agent {label}: conv fwd {:.1} / bwd {:.1} us  deconv fwd {:.1} / bwd {:.1} us  dense fwd {:.1} / bwd {:.1} us  policy forward {:.1} us",
            fwd_ns[0] / 1e3, bwd_ns[0] / 1e3, fwd_ns[1] / 1e3, bwd_ns[1] / 1e3,
            fwd_ns[2] / 1e3, bwd_ns[2] / 1e3, forward_ns / 1e3,
        );
    }
    // Each timed update keeps training the same policy on the same buffer;
    // the per-transition cost does not depend on the weights.
    let mut trainer = PpoTrainer::new(agent.config().ppo.clone());
    let mut rng = StdRng::seed_from_u64(0x990);
    let update_ns = median_ns(|| {
        std::hint::black_box(trainer.update(agent.policy_mut(), &buffer, &mut rng));
    });
    let samples = trainer.config.epochs * buffer.len();
    let ppo_us = update_ns / 1e3 / samples as f64;
    println!("agent small: PPO update {ppo_us:.1} us per transition ({samples} per update)");
    let stages = ppo_stage_us(&mut agent, &buffer, &mut trainer);
    for (name, us) in PPO_STAGES.iter().zip(stages) {
        println!("agent small: PPO {name} {us:.1} us per transition");
        rows.push(format!("\"ppo_{name}_us_per_transition_small\": {us:.1}"));
    }
    format!(
        "  \"agent\": {{\n    \"hardware_threads\": {hardware_threads},\n    \"ppo_transitions_per_update\": {samples},\n    \"ppo_update_us_per_transition_small\": {ppo_us:.1},\n    {}\n  }}",
        rows.join(",\n    ")
    )
}

/// Median nanoseconds of one `backward` call. Each backward consumes its
/// forward's cache, so every timed call follows an untimed forward; calls
/// are timed one by one for at least 100 ms (15 calls at least, 1000 at
/// most).
fn median_backward_ns(net: &mut dyn Layer, input: &Tensor, grad: &Tensor) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 15 || (samples.len() < 1000 && started.elapsed().as_millis() < 100) {
        net.forward(input);
        let call = Instant::now();
        std::hint::black_box(net.backward(grad));
        samples.push(call.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The stages of one PPO minibatch step, in `PpoTrainer::minibatch_step`
/// order.
const PPO_STAGES: [&str; 4] = ["batched_forward", "loss", "batched_backward", "clip_adam"];

/// Per-transition microseconds of each [`PPO_STAGES`] entry: one update's
/// minibatches through `PpoTrainer::minibatch_step`, each stage read off its
/// `lap` clock and summed over the update; the median of 15 updates.
fn ppo_stage_us(
    agent: &mut FloorplanAgent,
    buffer: &RolloutBuffer,
    trainer: &mut PpoTrainer,
) -> [f64; 4] {
    let mut rng = StdRng::seed_from_u64(0x5a9e);
    let mut passes: [Vec<f64>; 4] = Default::default();
    for _ in 0..15 {
        let mut ns = [0.0f64; 4];
        let mut samples = 0;
        let mut stats = PpoStats::default();
        for minibatch in trainer.minibatches(buffer, &mut rng) {
            let mut laps = Vec::with_capacity(PPO_STAGES.len() + 1);
            trainer.minibatch_step(agent.policy_mut(), &minibatch, &mut stats, || {
                laps.push(Instant::now())
            });
            for (acc, lap) in ns.iter_mut().zip(laps.windows(2)) {
                *acc += (lap[1] - lap[0]).as_nanos() as f64;
            }
            samples += minibatch.len();
        }
        for (pass, total) in passes.iter_mut().zip(ns) {
            pass.push(total / 1e3 / samples as f64);
        }
    }
    passes.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    })
}
