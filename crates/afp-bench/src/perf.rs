//! Shared helpers of the `bench_snapshot` perf harness: deterministic
//! workloads (random sequence pairs, synthetic `n`-block circuits, the
//! mid-episode mask state) and a small median timer.

use std::time::Instant;

use afp_circuit::{generators, BlockId, BlockKind, Circuit, NetClass, Shape, ShapeSet};
use afp_layout::{Canvas, Cell, Floorplan, SequencePair, GRID_SIZE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Block counts the `pack` and `snap` sections sweep: the paper's circuits are 10–19
/// blocks; 50–200 probe the scaling regime the ROADMAP targets.
pub const PACK_SIZES: [usize; 5] = [10, 19, 50, 100, 200];

/// Block counts of the large-n workload tier: synthetic circuits past every
/// historical 64-element ceiling, run end to end through the full incremental
/// cost pipeline (multi-word grids, spilled metric masks) by the
/// `bench_snapshot` `large_n` section and the CI gates.
pub const LARGE_N_SIZES: [usize; 3] = [200, 500, 1000];

/// Deterministic random sequence pair with `n` blocks.
pub fn random_pair(n: usize, seed: u64) -> SequencePair {
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes: Vec<Shape> = (0..n)
        .map(|_| Shape::new(rng.gen_range(1.0..25.0), rng.gen_range(1.0..25.0)))
        .collect();
    let mut sp = SequencePair::identity(shapes);
    sp.positive.shuffle(&mut rng);
    sp.negative.shuffle(&mut rng);
    sp
}

/// Deterministic synthetic circuit with exactly `n` blocks (chained by
/// two-pin nets), for workloads that need block counts beyond the paper's
/// 19-block ceiling — e.g. the `snap` (grid realization) section.
pub fn synthetic_circuit(n: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(0x51AB ^ n as u64);
    let names: Vec<String> = (0..n).map(|i| format!("B{i}")).collect();
    let mut builder = Circuit::builder(format!("synthetic-{n}"));
    for name in &names {
        builder = builder.block(
            name,
            BlockKind::CurrentMirror,
            rng.gen_range(4.0..64.0),
            3,
        );
    }
    for w in names.windows(2) {
        builder = builder.net(
            &format!("n_{}_{}", &w[0], &w[1]),
            &[(w[0].as_str(), "d"), (w[1].as_str(), "s")],
            NetClass::Signal,
        );
    }
    builder.build().expect("synthetic circuit is valid")
}

/// The grid-realization workload of the `snap` snapshot section: a synthetic
/// `n`-block circuit, its canvas and a deterministic random sequence pair.
pub fn snap_workload(n: usize, seed: u64) -> (Circuit, Canvas, SequencePair) {
    let circuit = synthetic_circuit(n);
    let canvas = Canvas::for_circuit(&circuit);
    (circuit, canvas, random_pair(n, seed))
}

/// The positional-mask workload of the `masks` snapshot section: the largest
/// paper circuit (Bias-2, 19 blocks) with the first half of its blocks
/// placed in rows, plus the next pending block and its candidate shapes —
/// the state an RL env step or mask-dataset build sees mid-episode.
pub fn masks_workload() -> (Circuit, Floorplan, BlockId, ShapeSet) {
    let circuit = generators::bias19();
    let canvas = Canvas::for_circuit(&circuit);
    let sets = afp_circuit::shapes::shape_sets(&circuit);
    let order = circuit.blocks_by_decreasing_area();
    let mut fp = Floorplan::new(canvas);
    let (mut x, mut y, mut row_h) = (0usize, 0usize, 0usize);
    for &id in order.iter().take(order.len() / 2) {
        let set = &sets[id.index()];
        let shape = set.shape(set.most_square());
        let (gw, gh) = fp.grid_footprint(&shape);
        if x + gw > GRID_SIZE {
            x = 0;
            y += row_h + 1;
            row_h = 0;
        }
        fp.place(id, set.most_square(), shape, Cell::new(x, y))
            .expect("row placement fits");
        x += gw + 1;
        row_h = row_h.max(gh);
    }
    let block = order[order.len() / 2];
    let shapes = sets[block.index()];
    (circuit, fp, block, shapes)
}

/// Median nanoseconds per call of `f`: calibrates a batch size targeting
/// ~10 ms, then reports the median of 15 timed batches.
pub fn median_ns<F: FnMut()>(mut f: F) -> f64 {
    // Calibrate.
    let mut iters = 1u64;
    let per_iter_ns = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 5 || iters >= 1 << 22 {
            break elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 4;
    };
    let batch = ((10_000_000.0 / per_iter_ns.max(1.0)).round() as u64).max(1);
    // Measure.
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_pair_is_a_permutation() {
        let sp = random_pair(32, 7);
        let mut pos = sp.positive.clone();
        pos.sort_unstable();
        assert_eq!(pos, (0..32).collect::<Vec<_>>());
        assert_eq!(sp.shapes.len(), 32);
        // Deterministic per seed.
        assert_eq!(sp, random_pair(32, 7));
    }

    #[test]
    fn median_ns_returns_positive_time() {
        let mut acc = 0u64;
        let ns = median_ns(|| acc = acc.wrapping_add(std::hint::black_box(1)));
        assert!(ns > 0.0);
    }
}
