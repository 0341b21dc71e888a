//! Shared helpers of the `bench_snapshot` perf harness: deterministic
//! workloads (random sequence pairs, synthetic `n`-block circuits, the
//! mid-episode mask state, the policy's layers and a seeded rollout buffer)
//! and a small median timer.

use std::time::Instant;

use afp_circuit::{
    generators, BlockId, BlockKind, Circuit, NetClass, Shape, ShapeSet, SHAPES_PER_BLOCK,
};
use afp_layout::{Canvas, Cell, Floorplan, SequencePair, GRID_SIZE, STATE_CHANNELS};
use afp_rl::{AgentConfig, FloorplanAgent, FloorplanEnv, PolicyConfig, RolloutBuffer};
use afp_tensor::layers::{Conv2d, ConvTranspose2d, Dense};
use afp_tensor::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Block counts the `pack` and `snap` sections sweep: the paper's circuits are 10–19
/// blocks; 50–200 probe the scaling regime the ROADMAP targets.
pub const PACK_SIZES: [usize; 5] = [10, 19, 50, 100, 200];

/// Block counts of the large-n workload tier: synthetic circuits past every
/// historical 64-element ceiling, run end to end through the full cost
/// pipeline on the 64×64 grid by the `bench_snapshot` `large_n` section and
/// the CI gates.
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

/// The kinds of `afp-tensor` kernel the actor-critic runs, in snapshot key
/// order: `kind as usize` indexes `["conv", "deconv", "dense"]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// `Conv2d` (the CNN extractor and the policy head's 1×1 conv).
    Conv,
    /// `ConvTranspose2d` (the policy head's upsampling stages).
    Deconv,
    /// `Dense` (projections and the value MLP).
    Dense,
}

/// One conv, deconv or dense layer of `ActorCritic::new(config)`, described
/// by its exact shape so it can be built standalone (one at a time: the
/// paper config's 65 536 → 512 dense layer alone holds 128 MiB of weights).
#[derive(Debug, Clone, Copy)]
pub struct PolicyLayer {
    /// Kernel kind.
    pub kind: KernelKind,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    /// Input height (= width); 1 for dense layers.
    size: usize,
}

impl PolicyLayer {
    /// Builds the layer with seeded weights and a deterministic input whose
    /// entries are a third zeros, like the ReLU activations and 0/1 masks
    /// the policy feeds its kernels.
    pub fn build(&self, rng: &mut StdRng) -> (Box<dyn Layer>, Tensor) {
        let (layer, shape): (Box<dyn Layer>, Vec<usize>) = match self.kind {
            KernelKind::Conv => (
                Box::new(Conv2d::new(
                    self.in_c,
                    self.out_c,
                    self.kernel,
                    1,
                    self.kernel / 2,
                    rng,
                )),
                vec![self.in_c, self.size, self.size],
            ),
            KernelKind::Deconv => (
                Box::new(ConvTranspose2d::new(self.in_c, self.out_c, 4, 2, 1, rng)),
                vec![self.in_c, self.size, self.size],
            ),
            KernelKind::Dense => (
                Box::new(Dense::new(self.in_c, self.out_c, rng)),
                vec![self.in_c],
            ),
        };
        let n = shape.iter().product();
        (layer, Tensor::from_vec(sparse_values(rng, n), &shape))
    }
}

/// `n` values in `[0, 1)`, a third of them exact zeros.
pub fn sparse_values(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0..3u32) == 0 {
                0.0
            } else {
                rng.gen()
            }
        })
        .collect()
}

/// Every conv, deconv and dense layer of `ActorCritic::new(config)`, in
/// forward order: CNN, policy head, value head.
pub fn policy_layers(config: &PolicyConfig) -> Vec<PolicyLayer> {
    let layer = |kind, in_c, out_c, kernel, size| PolicyLayer {
        kind,
        in_c,
        out_c,
        kernel,
        size,
    };
    let mut layers = Vec::new();
    let mut c_in = STATE_CHANNELS;
    for &c_out in &config.conv_channels {
        layers.push(layer(KernelKind::Conv, c_in, c_out, 3, GRID_SIZE));
        c_in = c_out;
    }
    let state = config.state_dim();
    let [d0, d1, d2] = config.deconv_channels;
    layers.extend([
        layer(
            KernelKind::Dense,
            c_in * GRID_SIZE * GRID_SIZE,
            config.cnn_feature_dim,
            1,
            1,
        ),
        layer(KernelKind::Dense, state, d0 * 4 * 4, 1, 1),
        layer(KernelKind::Deconv, d0, d0, 4, 4),
        layer(KernelKind::Deconv, d0, d1, 4, 8),
        layer(KernelKind::Deconv, d1, d2, 4, 16),
        layer(KernelKind::Conv, d2, SHAPES_PER_BLOCK, 1, GRID_SIZE),
        layer(KernelKind::Dense, state, config.value_hidden, 1, 1),
        layer(KernelKind::Dense, config.value_hidden, 1, 1, 1),
    ]);
    layers
}

/// A fresh small-config agent and the transitions of seeded exploring
/// episodes on OTA-5 and Bias-1: the PPO-update workload, and a source of
/// real mid-episode observations for timing `ActorCritic::forward`.
pub fn seeded_rollouts() -> (FloorplanAgent, RolloutBuffer) {
    let config = AgentConfig::small();
    let mut buffer = RolloutBuffer::new(config.ppo.gamma, config.ppo.gae_lambda);
    let mut agent = FloorplanAgent::new(config);
    let mut rng = StdRng::seed_from_u64(0xa9e7);
    for circuit in [generators::ota5(), generators::bias9()] {
        let mut env = FloorplanEnv::new(circuit);
        for _ in 0..2 {
            agent.run_episode(&mut env, true, Some(&mut buffer), &mut rng);
        }
    }
    (agent, buffer)
}

/// Median nanoseconds per call of `f`: calibrates a batch size targeting
/// ~10 ms, then reports the median of 15 timed batches.
pub fn median_ns<F: FnMut()>(mut f: F) -> f64 {
    let batch = calibrated_batch(&mut f);
    median((0..15).map(|_| batch_ns(&mut f, batch)).collect())
}

/// Calls per timed batch of `f`: the count that makes one batch last
/// ~10 ms, from a geometric calibration run.
fn calibrated_batch<F: FnMut()>(f: &mut F) -> u64 {
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
    ((10_000_000.0 / per_iter_ns.max(1.0)).round() as u64).max(1)
}

/// Nanoseconds per call over one batch of `batch` calls of `f`.
fn batch_ns<F: FnMut()>(f: &mut F, batch: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..batch {
        f();
    }
    start.elapsed().as_nanos() as f64 / batch as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
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
    fn paper_policy_layers_hold_the_papers_parameter_count() {
        let params: usize = policy_layers(&PolicyConfig::paper())
            .iter()
            .map(|l| l.in_c * l.out_c * l.kernel * l.kernel + l.out_c)
            .sum();
        // `ActorCritic::new(PolicyConfig::paper(), ..).num_parameters()`.
        assert_eq!(params, 34_095_236);
    }

    #[test]
    fn median_ns_returns_positive_time() {
        let mut acc = 0u64;
        let ns = median_ns(|| acc = acc.wrapping_add(std::hint::black_box(1)));
        assert!(ns > 0.0);
    }
}
