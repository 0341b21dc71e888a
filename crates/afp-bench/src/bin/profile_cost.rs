//! Ad-hoc profile of the SA cost-evaluation pipeline on Bias-2 (19 blocks):
//! breaks one `cost_cached` evaluation into its stages so hot-path PRs can
//! see where the next order of magnitude lives.
//!
//! Usage: `cargo run --release -p afp-bench --bin profile_cost`

use afp_bench::perf::median_ns;
use afp_circuit::generators;
use afp_layout::sequence_pair::realize_floorplan;
use afp_layout::{metrics, Canvas, Floorplan, PackScratch, RewardWeights};
use afp_metaheuristics::{Candidate, CostCache, Problem};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let circuit = generators::bias19();
    let problem = Problem::new(&circuit);
    let mut rng = StdRng::seed_from_u64(7);
    let mut candidate = Candidate::random(problem.num_blocks(), &mut rng);
    let mut cache = CostCache::new(&problem);

    let full_ns = median_ns(|| {
        // Perturb like SA does, so the memo misses realistically.
        let _ = candidate.perturb(&mut rng);
        let _ = problem.cost_cached(&candidate, &mut cache);
    });
    println!("perturb + cost_cached:      {full_ns:>10.1} ns  (incremental realize)");
    {
        let s = cache.realize_stats();
        let episodes = s.episodes.max(1);
        println!(
            "  realize hit rate {:5.1}%  kept/ep {:.1}  replayed/ep {:.1}  searched/ep {:.1}  rebuilds {}",
            100.0 * s.hit_rate(),
            s.kept_blocks as f64 / episodes as f64,
            s.replayed_blocks as f64 / episodes as f64,
            s.searched_blocks as f64 / episodes as f64,
            s.full_rebuilds,
        );
        let p = s.pack_stats();
        println!(
            "  pack replay rate {:5.1}%  (x {:.1}%  y {:.1}%)",
            100.0 * p.replay_rate(),
            100.0 * p.x_replayed as f64 / (p.x_replayed + p.x_swept).max(1) as f64,
            100.0 * p.y_replayed as f64 / (p.y_replayed + p.y_swept).max(1) as f64,
        );
    }
    let mut full_cache = CostCache::new(&problem);
    full_cache.set_incremental(false);
    let oracle_ns = median_ns(|| {
        let _ = candidate.perturb(&mut rng);
        let _ = problem.cost_cached(&candidate, &mut full_cache);
    });
    println!("perturb + cost_cached:      {oracle_ns:>10.1} ns  (full realize)");

    let shapes = problem.shapes_for(&candidate);
    let sp = candidate.to_sequence_pair(&shapes);
    let canvas = Canvas::for_circuit(&circuit);
    let mut scratch = PackScratch::with_capacity(problem.num_blocks());
    let mut fp = Floorplan::new(canvas);
    let realize_ns = median_ns(|| {
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
    println!("  realize_floorplan:        {realize_ns:>10.1} ns");

    // In-walk realization (candidate changes each call, as SA sees it).
    let mut walk_shapes = Vec::new();
    let mut walk_fp = Floorplan::new(canvas);
    let mut walk_cache = afp_layout::RealizeCache::new();
    let walk_inc_ns = median_ns(|| {
        let _ = candidate.perturb(&mut rng);
        problem.shapes_for_into(&candidate, &mut walk_shapes);
        afp_layout::sequence_pair::realize_floorplan_incremental(
            &candidate.positive,
            &candidate.negative,
            &walk_shapes,
            &circuit,
            canvas,
            &mut scratch,
            &mut walk_fp,
            &mut walk_cache,
        );
    });
    println!("  walk realize (incr):      {walk_inc_ns:>10.1} ns");
    let walk_full_ns = median_ns(|| {
        let _ = candidate.perturb(&mut rng);
        problem.shapes_for_into(&candidate, &mut walk_shapes);
        realize_floorplan(
            &candidate.positive,
            &candidate.negative,
            &walk_shapes,
            &circuit,
            canvas,
            &mut scratch,
            &mut walk_fp,
        );
    });
    println!("  walk realize (full):      {walk_full_ns:>10.1} ns");

    let shapes_ns = median_ns(|| {
        let _ = problem.shapes_for(&candidate);
    });
    println!("  shapes_for (alloc):       {shapes_ns:>10.1} ns");

    let hpwl_min = metrics::hpwl_lower_bound(&circuit);
    let weights = RewardWeights::default();
    let reward_ns = median_ns(|| {
        let _ = metrics::episode_reward(&circuit, &fp, hpwl_min, &weights);
    });
    println!("  episode_reward (alloc):   {reward_ns:>10.1} ns");

    let mut warm_scratch = metrics::MetricsScratch::new();
    let reward_warm_ns = median_ns(|| {
        let _ = metrics::episode_reward_with(&circuit, &fp, hpwl_min, &weights, &mut warm_scratch);
    });
    println!("  episode_reward (warm):    {reward_warm_ns:>10.1} ns");

    let hpwl_ns = median_ns(|| {
        let _ = metrics::hpwl(&circuit, &fp);
    });
    println!("    hpwl (alloc):           {hpwl_ns:>10.1} ns");

    let violations_ns = median_ns(|| {
        let _ = afp_layout::constraints::count_violations(&circuit, &fp);
    });
    println!("    count_violations:       {violations_ns:>10.1} ns");

    let has_violations_ns = median_ns(|| {
        let _ = afp_layout::constraints::has_violations(&circuit, &fp);
    });
    println!("    has_violations:         {has_violations_ns:>10.1} ns");
}
