//! Reproducible perf snapshot: writes `BENCH_pack.json` with the packing
//! engines' median times, the grid-realization (`snap`), incremental
//! dirty-block realization (`incremental_realize`, per-move cost + replay
//! hit rate), positional-mask (`masks`), parallel generation-evaluation
//! (`eval_pool`), parked-pool dispatch (`pool_overhead`), multi-start SA
//! (`multistart`) and locality-aware move mix (`sa_locality`) medians, the
//! serve layer's cache-hit latency and job throughput (`serve`), the serve
//! daemon's drain-loop throughput and snapshot restore-then-hit latency
//! (`serve_daemon`), and the SA evaluation throughput, so every PR that
//! touches the hot path has a trajectory to compare against.
//!
//! Usage: `cargo run --release -p afp-bench --bin bench_snapshot`
//! (run from the repository root; the snapshot is written to
//! `BENCH_pack.json` in the current directory).

use std::time::Instant;

use afp_bench::perf::{
    masks_workload, median_ns, random_pair, snap_workload, synthetic_circuit, LARGE_N_SIZES,
    PACK_SIZES,
};
use afp_circuit::generators;
use afp_layout::masks::positional_masks;
use afp_layout::sequence_pair::{realize_floorplan, PackedFloorplan};
use afp_layout::{Floorplan, PackScratch};
use afp_metaheuristics::{
    chain_seed, multistart_sa, select_winner, simulated_annealing, simulated_annealing_on,
    Baseline, Candidate, CostCache, EvalPool, GaConfig, MoveMix, MultistartSaConfig, Problem,
    RunControl, SaConfig,
};
use afp_par::{PoolHandle, WorkerPool};
use afp_serve::{CacheHandle, JobEngine, JobRequest, JobSpec, ServeConfig, ServeDaemon};
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

    // Per-batch dispatch overhead of the parked pool against the
    // spawn-per-call shim, on a trivial 8-item batch at 2 workers: the work
    // is negligible, so each median is the fixed cost per batch its model
    // charges. The acceptance bar for the persistent pool is that the parked
    // dispatch (one epoch bump + unpark per active worker) lands strictly
    // below a thread spawn-and-join, which holds even on the 1-hardware-
    // thread CI container — both models context-switch there, but only the
    // shim pays thread creation and teardown too.
    const OVERHEAD_WORKERS: usize = 2;
    let overhead_items: Vec<u64> = (0..8).collect();
    let spawn_batch_ns = {
        let mut states = vec![0u64; OVERHEAD_WORKERS];
        median_ns(|| {
            let _ = afp_par::parallel_map_scoped(&overhead_items, &mut states, |_, &x| x);
        })
    };
    let mut overhead_pool = WorkerPool::new(OVERHEAD_WORKERS);
    let parked_batch_ns = {
        let mut states = vec![0u64; OVERHEAD_WORKERS];
        median_ns(|| {
            let _ = overhead_pool.map_scoped(&overhead_items, &mut states, |_, &x| x);
        })
    };
    let overhead_stats = overhead_pool.stats();
    drop(overhead_pool);
    let spawn_over_parked = spawn_batch_ns / parked_batch_ns.max(1e-9);

    // Multi-start SA: 4 Table-I-budget chains on Bias-2 over the persistent
    // pool. Chain bit-identity against the serial replay (and the winner
    // against the serial reduction) is asserted before any timing — a
    // divergence aborts the snapshot, so a written `multistart` section
    // proves the check ran and passed. Timed at 1 and 2 pool workers; on the
    // 1-thread container the 2-worker row just timeslices and is recorded
    // for trajectory purposes, not judged.
    let ms_cfg = MultistartSaConfig {
        base: SaConfig::table1(),
        chains: 4,
        workers: 2,
    };
    let ms_pooled = multistart_sa(&sa_circuit, &ms_cfg);
    let ms_bit_identical = {
        let serial_chains: Vec<_> = (0..ms_cfg.chains)
            .map(|chain| {
                let chain_cfg = SaConfig {
                    seed: chain_seed(ms_cfg.base.seed, chain),
                    ..ms_cfg.base.clone()
                };
                let mut cache = CostCache::new(&pool_problem);
                let unbounded = RunControl::unbounded();
                simulated_annealing_on(&pool_problem, &chain_cfg, None, &mut cache, &unbounded).0
            })
            .collect();
        ms_pooled
            .chains
            .iter()
            .zip(&serial_chains)
            .all(|(outcome, s)| {
                outcome.result().is_some_and(|p| {
                    p.reward == s.reward
                        && p.evaluations == s.evaluations
                        && p.floorplan == s.floorplan
                })
            })
            && ms_pooled.winner == Some(select_winner(&sa_circuit, &serial_chains))
    };
    assert!(
        ms_bit_identical,
        "multistart chains diverged from the serial replay"
    );
    let ms_time_ns = |workers: usize| {
        let cfg = MultistartSaConfig {
            workers,
            ..ms_cfg.clone()
        };
        median_ns(|| {
            let _ = multistart_sa(&sa_circuit, &cfg);
        })
    };
    let ms_workers1_ns = ms_time_ns(1);
    let ms_workers2_ns = ms_time_ns(2);
    let ms_chains_per_sec_w1 = ms_cfg.chains as f64 / (ms_workers1_ns * 1e-9).max(1e-12);
    let ms_chains_per_sec_w2 = ms_cfg.chains as f64 / (ms_workers2_ns * 1e-9).max(1e-12);

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
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
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
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    };
    let daemon_restore_speedup = serve_cold_ns / daemon_restored_hit_ns.max(1e-9);
    const DAEMON_JOBS: u64 = 8;
    let mut daemon_seed = 0u64;
    let mut daemon_jobs_per_sec = |workers: usize| {
        // One persistent daemon per worker count; every sample streams 8
        // fresh-seed jobs through the live drain loop and blocks on
        // `wait_idle`, so the number is sustained submit-to-resolved
        // throughput, not cache hits. Warm starts are off: the jobs share
        // a topology, and seeding later jobs from earlier winners would
        // shrink their work mid-measurement.
        let daemon = ServeDaemon::spawn(&ServeConfig {
            workers,
            warm_start: false,
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
    // historical uniform proposal stream) vs the Table I bias. The timing
    // comes from `median_ns` (wall-clock calibrated, so its move count — and
    // any counter read off the same caches — would vary run to run); the
    // replay counters CI asserts an ordering on are therefore measured
    // separately, on a fixed-length fixed-seed walk with fresh caches, which
    // makes them fully deterministic.
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
    let locality_counters = |bias: f64| {
        let mix = MoveMix::local(bias);
        let mut cache = CostCache::new(&pool_problem);
        let mut rng = StdRng::seed_from_u64(0x10CA);
        let mut walk = Candidate::random(pool_problem.num_blocks(), &mut rng);
        for _ in 0..4_000 {
            let _ = walk.perturb_with(&mix, &mut rng);
            let _ = pool_problem.cost_cached(&walk, &mut cache);
        }
        let stats = cache.realize_stats();
        (stats.hit_rate(), stats.pack_stats().replay_rate())
    };
    let uniform_move_ns = locality_move_ns(0.0);
    let local_move_ns = locality_move_ns(config.locality_bias);
    let (uniform_snap_hit, uniform_pack_replay) = locality_counters(0.0);
    let (local_snap_hit, local_pack_replay) = locality_counters(config.locality_bias);

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
    // the full incremental cost pipeline on multi-word occupancy grids
    // (grid_side_for picks 64/96/128 cells per side). Each row records the
    // warm per-move SA cost, a 6-candidate EvalPool generation and a 2-chain
    // multi-start run.
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
        let ms_cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 150,
                seed: 0x5EED ^ n as u64,
                ..SaConfig::small()
            },
            chains: 2,
            workers: 2,
        };
        let multistart_ns = median_ns(|| {
            let _ = multistart_sa(&circuit, &ms_cfg);
        });
        println!(
            "large_n n={n:>4}: grid {grid_side:>3}  sa {sa_move_ns:>10.1} ns/move  pool-gen {pool_generation_ns:>12.1} ns  multistart {:.1} ms",
            multistart_ns / 1e6,
        );
        large_n_rows.push(format!(
            "    {{\"blocks\": {n}, \"grid_side\": {grid_side}, \"sa_move_ns\": {sa_move_ns:.1}, \"eval_pool_generation_ns\": {pool_generation_ns:.1}, \"multistart_ns\": {multistart_ns:.1}}}"
        ));
    }

    // Positional-mask (f_p) construction from the free-anchor bitmask — the
    // per-step cost of the RL env and mask-dataset builds.
    let (mcircuit, mfp, mblock, mshapes) = masks_workload();
    let masks_ns = median_ns(|| {
        let _ = positional_masks(&mcircuit, &mfp, mblock, &mshapes);
    });
    println!("masks bias19: positional_masks {masks_ns:>12.1} ns");

    // The incremental cost pipeline vs the always-full oracle path, on an
    // SA-style perturbation walk over Bias-2: per-move cost of (a) the
    // default stack (dirty-block realization + dirty-set pack, full metrics
    // rescan) and (b) the full-rebuild realization oracle — plus the
    // engines' observability counters (snap-skip hit rate, FAST-SP
    // pass-position replay rate).
    let circuit = generators::bias19();
    let problem = Problem::new(&circuit);
    let mut rng = StdRng::seed_from_u64(0x1C4E);
    let mut walk = Candidate::random(problem.num_blocks(), &mut rng);
    let mut inc_cache = CostCache::new(&problem);
    inc_cache.set_incremental(true);
    let incremental_ns = median_ns(|| {
        let _ = walk.perturb(&mut rng);
        let _ = problem.cost_cached(&walk, &mut inc_cache);
    });
    let mut full_cache = CostCache::new(&problem);
    full_cache.set_incremental(false);
    let full_ns = median_ns(|| {
        let _ = walk.perturb(&mut rng);
        let _ = problem.cost_cached(&walk, &mut full_cache);
    });
    let stats = inc_cache.realize_stats();
    let hit_rate = stats.hit_rate();
    let pack_replay_rate = stats.pack_stats().replay_rate();
    let realize_speedup = full_ns / incremental_ns.max(1e-9);
    println!(
        "incremental bias19: {incremental_ns:>8.1} ns/move (full {full_ns:.1} ns, {realize_speedup:.2}x) snap hit {:.1}% pack replay {:.1}%",
        100.0 * hit_rate,
        100.0 * pack_replay_rate,
    );

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
        "multistart bias19: 4 chains  w1 {:.1} ms ({ms_chains_per_sec_w1:.1} chains/s)  w2 {:.1} ms ({ms_chains_per_sec_w2:.1} chains/s)",
        ms_workers1_ns / 1e6,
        ms_workers2_ns / 1e6,
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
        "sa_locality bias19: uniform {uniform_move_ns:>8.1} ns/move (pack replay {:.1}%, snap hit {:.1}%)  bias {:.2} {local_move_ns:>8.1} ns/move (pack replay {:.1}%, snap hit {:.1}%)",
        100.0 * uniform_pack_replay,
        100.0 * uniform_snap_hit,
        config.locality_bias,
        100.0 * local_pack_replay,
        100.0 * local_snap_hit,
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
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
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
        "  \"sa_locality\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"locality_bias\": {:.2},\n    \"uniform_move_ns\": {uniform_move_ns:.1},\n    \"local_move_ns\": {local_move_ns:.1},\n    \"uniform_pack_replay_rate\": {uniform_pack_replay:.3},\n    \"local_pack_replay_rate\": {local_pack_replay:.3},\n    \"uniform_snap_hit_rate\": {uniform_snap_hit:.3},\n    \"local_snap_hit_rate\": {local_snap_hit:.3}\n  }}",
        sa_circuit.name,
        sa_circuit.num_blocks(),
        config.locality_bias,
    );
    let pool_overhead_json = format!(
        "  \"pool_overhead\": {{\n    \"workers\": {OVERHEAD_WORKERS},\n    \"batch_items\": {},\n    \"spawn_batch_ns\": {spawn_batch_ns:.1},\n    \"parked_batch_ns\": {parked_batch_ns:.1},\n    \"spawn_over_parked\": {spawn_over_parked:.2},\n    \"parked_batches\": {},\n    \"parked_threads_woken\": {}\n  }}",
        overhead_items.len(),
        overhead_stats.batches,
        overhead_stats.threads_woken,
    );
    let multistart_json = format!(
        "  \"multistart\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"chains\": {},\n    \"chain_iterations\": {},\n    \"workers1_ns\": {ms_workers1_ns:.1},\n    \"workers2_ns\": {ms_workers2_ns:.1},\n    \"workers1_chains_per_sec\": {ms_chains_per_sec_w1:.2},\n    \"workers2_chains_per_sec\": {ms_chains_per_sec_w2:.2},\n    \"bit_identical\": {ms_bit_identical}\n  }}",
        sa_circuit.name,
        sa_circuit.num_blocks(),
        ms_cfg.chains,
        ms_cfg.base.iterations,
    );
    let serve_json = format!(
        "  \"serve\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"solver\": \"SA\",\n    \"cold_solve_ns\": {serve_cold_ns:.1},\n    \"cache_hit_ns\": {serve_hit_ns:.1},\n    \"hit_speedup\": {serve_hit_speedup:.1},\n    \"batch_jobs\": {SERVE_JOBS},\n    \"jobs_per_sec_workers1\": {serve_jps_w1:.2},\n    \"jobs_per_sec_workers2\": {serve_jps_w2:.2},\n    \"jobs_per_sec_workers4\": {serve_jps_w4:.2},\n    \"bit_identical\": {serve_bit_identical}\n  }}",
        sa_circuit.name,
        sa_circuit.num_blocks(),
    );
    let serve_daemon_json = format!(
        "  \"serve_daemon\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"batch_jobs\": {DAEMON_JOBS},\n    \"drain_jobs_per_sec_workers1\": {daemon_jps_w1:.2},\n    \"drain_jobs_per_sec_workers2\": {daemon_jps_w2:.2},\n    \"drain_jobs_per_sec_workers4\": {daemon_jps_w4:.2},\n    \"cold_solve_ns\": {serve_cold_ns:.1},\n    \"restored_hit_ns\": {daemon_restored_hit_ns:.1},\n    \"restore_speedup\": {daemon_restore_speedup:.1},\n    \"snapshot_bytes\": {},\n    \"bit_identical\": {daemon_bit_identical}\n  }}",
        sa_circuit.name,
        sa_circuit.num_blocks(),
        daemon_snapshot_bytes.len(),
    );

    let json = format!(
        "{{\n  \"benchmark\": \"pack\",\n  \"description\": \"FAST-SP vs legacy relaxation packing; BitGrid grid realization (multi-word rows past 64 columns), the large-n workload tier, incremental dirty-block realization + dirty-set pack, positional masks; parallel EvalPool generation evaluation, parked WorkerPool dispatch overhead, multi-start SA, locality-aware SA move mix, the serve layer's result cache and job engine, the serve daemon's drain loop and snapshot restore, and SA cost-evaluation throughput\",\n  \"pack\": [\n{}\n  ],\n  \"snap\": [\n{}\n  ],\n  \"large_n\": [\n{}\n  ],\n  \"masks\": {{\n    \"circuit\": \"{}\",\n    \"positional_masks_ns\": {:.1}\n  }},\n  \"incremental_realize\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"incremental_move_ns\": {:.1},\n    \"full_move_ns\": {:.1},\n    \"speedup\": {:.2},\n    \"replay_hit_rate\": {:.3},\n    \"pack_replay_rate\": {:.3}\n  }},\n{eval_pool_json},\n{pool_overhead_json},\n{multistart_json},\n{serve_json},\n{serve_daemon_json},\n{sa_locality_json},\n  \"sa\": {{\n    \"circuit\": \"{}\",\n    \"blocks\": {},\n    \"iterations\": {},\n    \"evaluations\": {},\n    \"locality_bias\": {:.2},\n    \"seconds\": {:.4},\n    \"moves_per_sec\": {:.0}\n  }}\n}}\n",
        pack_rows.join(",\n"),
        snap_rows.join(",\n"),
        large_n_rows.join(",\n"),
        mcircuit.name,
        masks_ns,
        circuit.name,
        circuit.num_blocks(),
        incremental_ns,
        full_ns,
        realize_speedup,
        hit_rate,
        pack_replay_rate,
        circuit.name,
        circuit.num_blocks(),
        config.iterations,
        result.evaluations,
        config.locality_bias,
        elapsed,
        moves_per_sec,
    );
    std::fs::write("BENCH_pack.json", &json).expect("write BENCH_pack.json");
    println!("wrote BENCH_pack.json");
}
