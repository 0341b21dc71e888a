//! Criterion bench of the floorplan hot path — the perf trajectory guard.
//!
//! Three groups cover the cost-function pipeline end to end:
//!
//! * `pack` — the FAST-SP O(n log n) LCS evaluation (`pack_into`, scratch
//!   reuse) against the legacy O(n³) relaxation packer, over block counts
//!   spanning the paper's circuits (10–19 blocks) up to the scaling regime
//!   the ROADMAP targets (200 blocks). The FAST-SP PR's acceptance bar was a
//!   ≥ 10× speedup at n = 100.
//! * `snap` — full grid realization (`realize_floorplan`: pack + scale +
//!   snap + bitboard nearest-fit placement), the stage that dominated SA
//!   cost evaluations after packing got fast.
//! * `incremental` — the incremental cost pipeline against the full paths on
//!   an SA-style perturbation walk (consecutive episodes differ by one
//!   move): dirty-block realization at n ∈ {19, 50, 100, 200}, the cached
//!   FAST-SP pack (`pack_coords_cached`) against the full sweep at the same
//!   sizes, and the end-to-end `cost_cached` evaluation on Bias-2 with the
//!   incremental layers on and off.
//! * `masks` — positional-mask (`f_p`) construction from the free-anchor
//!   bitmask, the per-step cost of the RL env and mask-dataset builds.
//! * `eval_pool` — a GA-style 40-candidate generation on Bias-2, evaluated
//!   through the serial `cost_cached` loop and through the `EvalPool` at
//!   1/2/4 workers. On a multi-core host the pool amortizes one scoped
//!   thread spawn per generation; on a single hardware thread (the CI
//!   container) the 1-worker row is the meaningful one — it must match the
//!   serial loop, the engine's zero-overhead contract.
//! * `sa_locality` — the end-to-end `cost_cached` SA walk under the
//!   locality-aware move mix at biases 0 / 0.5 / 0.9: how much adjacent
//!   swaps shrink the incremental pipeline's dirty sets per move.
//! * `pool_overhead` — per-batch dispatch cost of the persistent parked
//!   `WorkerPool` against the spawn-per-call `parallel_map_scoped` shim on a
//!   near-empty batch: the pure fixed cost an optimizer pays per generation
//!   under each model.
//! * `multistart` — 4 independent SA chains through `multistart_sa` at 1 and
//!   2 pool workers: whole optimizer runs as the unit of parallel work.
//!
//! Run with `cargo bench --bench pack`; `bench_snapshot` records the same
//! workloads into `BENCH_pack.json` for cross-PR comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use afp_bench::perf::{masks_workload, perturb_pair, random_pair, snap_workload, PACK_SIZES};
use afp_circuit::generators;
use afp_layout::lcs_pack::{pack_coords, pack_coords_cached};
use afp_layout::masks::positional_masks;
use afp_layout::sequence_pair::{realize_floorplan, realize_floorplan_incremental, PackedFloorplan};
use afp_layout::{Floorplan, PackCache, PackScratch, RealizeCache};
use afp_metaheuristics::{
    multistart_sa, Candidate, CostCache, EvalPool, MoveMix, MultistartSaConfig, Problem, SaConfig,
};
use afp_par::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack");
    group.sample_size(20);
    for n in PACK_SIZES {
        let sp = random_pair(n, 0xBEEF ^ n as u64);

        let mut scratch = PackScratch::with_capacity(n);
        let mut out = PackedFloorplan::default();
        group.bench_with_input(BenchmarkId::new("fast_sp", n), &sp, |b, sp| {
            b.iter(|| sp.pack_into(&mut scratch, &mut out))
        });

        group.bench_with_input(BenchmarkId::new("legacy_relaxation", n), &sp, |b, sp| {
            b.iter(|| sp.pack_relaxation())
        });
    }
    group.finish();
}

fn bench_snap(c: &mut Criterion) {
    let mut group = c.benchmark_group("snap");
    group.sample_size(20);
    for n in PACK_SIZES {
        let (circuit, canvas, sp) = snap_workload(n, 0xBEEF ^ n as u64);
        let mut scratch = PackScratch::with_capacity(n);
        let mut fp = Floorplan::new(canvas);
        group.bench_with_input(BenchmarkId::new("realize_floorplan", n), &sp, |b, sp| {
            b.iter(|| {
                realize_floorplan(
                    &sp.positive,
                    &sp.negative,
                    &sp.shapes,
                    &circuit,
                    canvas,
                    &mut scratch,
                    &mut fp,
                )
            })
        });
    }
    group.finish();
}

/// Full vs incremental realization along an SA-style perturbation walk: the
/// workload `cost_cached` sees, where consecutive episodes differ by one
/// move and the dirty-block engine can keep the unchanged placement-order
/// prefix.
fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    group.sample_size(20);
    for n in [19usize, 50, 100, 200] {
        let (circuit, canvas, sp0) = snap_workload(n, 0x1C4E ^ n as u64);

        let mut sp = sp0.clone();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut scratch = PackScratch::with_capacity(n);
        let mut fp = Floorplan::new(canvas);
        group.bench_function(BenchmarkId::new("full_walk", n), |b| {
            b.iter(|| {
                perturb_pair(&mut sp, &mut rng);
                realize_floorplan(
                    &sp.positive,
                    &sp.negative,
                    &sp.shapes,
                    &circuit,
                    canvas,
                    &mut scratch,
                    &mut fp,
                )
            })
        });

        let mut sp = sp0.clone();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut scratch = PackScratch::with_capacity(n);
        let mut fp = Floorplan::new(canvas);
        let mut cache = RealizeCache::new();
        group.bench_function(BenchmarkId::new("incremental_walk", n), |b| {
            b.iter(|| {
                perturb_pair(&mut sp, &mut rng);
                realize_floorplan_incremental(
                    &sp.positive,
                    &sp.negative,
                    &sp.shapes,
                    &circuit,
                    canvas,
                    &mut scratch,
                    &mut fp,
                    &mut cache,
                )
            })
        });

        // The FAST-SP pack alone, full sweep vs the per-position cache.
        let mut sp = sp0.clone();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut scratch = PackScratch::with_capacity(n);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        group.bench_function(BenchmarkId::new("pack_walk_full", n), |b| {
            b.iter(|| {
                perturb_pair(&mut sp, &mut rng);
                pack_coords(&sp.positive, &sp.negative, &sp.shapes, &mut scratch, &mut x, &mut y)
            })
        });
        let mut sp = sp0.clone();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut scratch = PackScratch::with_capacity(n);
        let mut pack_cache = PackCache::new();
        group.bench_function(BenchmarkId::new("pack_walk_cached", n), |b| {
            b.iter(|| {
                perturb_pair(&mut sp, &mut rng);
                pack_coords_cached(
                    &sp.positive,
                    &sp.negative,
                    &sp.shapes,
                    &mut scratch,
                    &mut pack_cache,
                    &mut x,
                    &mut y,
                )
            })
        });
    }

    // End-to-end cost evaluation (pack + realization + metrics + memo) on the
    // largest paper circuit, with incremental realization on and off.
    let circuit = generators::bias19();
    let problem = Problem::new(&circuit);
    for (label, realize) in [("cost_walk_incremental", true), ("cost_walk_full", false)] {
        let mut cache = CostCache::new(&problem);
        cache.set_incremental(realize);
        let mut rng = StdRng::seed_from_u64(0x1C4E);
        let mut walk = Candidate::random(problem.num_blocks(), &mut rng);
        group.bench_function(BenchmarkId::new(label, "bias19"), |b| {
            b.iter(|| {
                let _ = walk.perturb(&mut rng);
                problem.cost_cached(&walk, &mut cache)
            })
        });
    }
    group.finish();
}

fn bench_masks(c: &mut Criterion) {
    let mut group = c.benchmark_group("masks");
    group.sample_size(20);
    let (circuit, fp, block, shapes) = masks_workload();
    group.bench_function("positional_masks_bias19", |b| {
        b.iter(|| positional_masks(&circuit, &fp, block, &shapes))
    });
    group.finish();
}

/// One GA generation (40 candidates, Bias-2) through the serial loop and the
/// EvalPool. Every candidate is perturbed between iterations so the memo
/// cannot short-circuit the evaluations — the workload is the steady-state
/// generation-over-generation drift GA actually produces.
fn bench_eval_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_pool");
    group.sample_size(20);
    let circuit = generators::bias19();
    let problem = Problem::new(&circuit);
    const POPULATION: usize = 40;

    let mut rng = StdRng::seed_from_u64(0xE7A1);
    let mut generation: Vec<Candidate> = (0..POPULATION)
        .map(|_| Candidate::random(problem.num_blocks(), &mut rng))
        .collect();

    let mut cache = CostCache::new(&problem);
    group.bench_function(BenchmarkId::new("serial_generation", POPULATION), |b| {
        b.iter(|| {
            for candidate in &mut generation {
                let _ = candidate.perturb(&mut rng);
            }
            generation
                .iter()
                .map(|c| problem.cost_cached(c, &mut cache))
                .sum::<f64>()
        })
    });

    for workers in [1usize, 2, 4] {
        let mut pool = EvalPool::new(&problem, workers);
        let mut rng = StdRng::seed_from_u64(0xE7A1 ^ workers as u64);
        group.bench_function(BenchmarkId::new("pool_generation", workers), |b| {
            b.iter(|| {
                for candidate in &mut generation {
                    let _ = candidate.perturb(&mut rng);
                }
                pool.evaluate(&problem, &generation).iter().sum::<f64>()
            })
        });
    }
    group.finish();
}

/// The SA cost walk under the locality-aware move mix: identical machinery to
/// `incremental/cost_walk_incremental`, but with the proposal distribution
/// biased toward adjacent swaps — the knob that actually shrinks the
/// dirty sets the PR 3/4 engines diff against.
fn bench_sa_locality(c: &mut Criterion) {
    let mut group = c.benchmark_group("sa_locality");
    group.sample_size(20);
    let circuit = generators::bias19();
    let problem = Problem::new(&circuit);
    for (label, bias) in [("uniform", 0.0), ("bias_50", 0.5), ("bias_90", 0.9)] {
        let mix = MoveMix::local(bias);
        let mut cache = CostCache::new(&problem);
        let mut rng = StdRng::seed_from_u64(0x10CA);
        let mut walk = Candidate::random(problem.num_blocks(), &mut rng);
        group.bench_function(BenchmarkId::new("cost_walk", label), |b| {
            b.iter(|| {
                let _ = walk.perturb_with(&mix, &mut rng);
                problem.cost_cached(&walk, &mut cache)
            })
        });
    }
    group.finish();
}

/// Pure per-batch dispatch overhead: a trivial 8-item workload dispatched at
/// 2 workers through the spawn-per-call shim and through a persistent parked
/// pool. The work itself is negligible, so the measurement is the fixed cost
/// per batch each model charges — the number the parked pool exists to cut.
fn bench_pool_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_overhead");
    group.sample_size(20);
    const WORKERS: usize = 2;
    let items: Vec<u64> = (0..8).collect();

    let mut states = vec![0u64; WORKERS];
    group.bench_function("spawn_per_call", |b| {
        b.iter(|| afp_par::parallel_map_scoped(&items, &mut states, |_, &x| x))
    });

    let mut pool = WorkerPool::new(WORKERS);
    let mut states = vec![0u64; WORKERS];
    group.bench_function("parked_batch", |b| {
        b.iter(|| pool.map_scoped(&items, &mut states, |_, &x| x))
    });
    group.finish();
}

/// Multi-start SA: 4 chains on Bias-2 racing over the persistent pool, at 1
/// and 2 pool workers. Chains are whole SA runs, so this measures the
/// coarse-grained parallel shape (one warm cache per worker, zero cross-chain
/// coordination) rather than per-generation batching.
fn bench_multistart(c: &mut Criterion) {
    let mut group = c.benchmark_group("multistart");
    group.sample_size(10);
    let circuit = generators::bias19();
    for workers in [1usize, 2] {
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 400,
                ..SaConfig::table1()
            },
            chains: 4,
            workers,
        };
        group.bench_function(BenchmarkId::new("chains4_bias19", workers), |b| {
            b.iter(|| multistart_sa(&circuit, &cfg))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pack,
    bench_snap,
    bench_incremental,
    bench_masks,
    bench_eval_pool,
    bench_sa_locality,
    bench_pool_overhead,
    bench_multistart
);
criterion_main!(benches);
