//! Bit-identity pins for the R-GCN + masked-PPO agent.
//!
//! Every kernel of the actor-critic (conv, deconv, dense, their backward
//! passes) keeps a fixed per-element summation order, so a seeded episode, a
//! seeded PPO update and a zero-shot `agent.solve` replay to the bit. These
//! tests pin FNV-1a fingerprints of all three, in the style of
//! `tests/historical_streams.rs`: any change that perturbs one ulp of one
//! logit, gradient or weight fails here with the stream named.
//!
//! The pinned values are platform-independent: the agent runs on one thread
//! with seeded RNGs and plain IEEE `f32`/`f64` arithmetic (no FMA, no
//! reassociation), and no wall-clock value enters a fingerprint.

use analog_floorplan::circuit::generators;
use analog_floorplan::layout::Floorplan;
use analog_floorplan::rl::{AgentConfig, FloorplanAgent, FloorplanEnv, PpoTrainer, RolloutBuffer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
}

/// Placed geometry, as in `tests/historical_streams.rs`.
fn floorplan_fingerprint(fp: &Floorplan) -> u64 {
    let mut h = Fnv::new();
    h.mix(fp.num_placed() as u64);
    for p in fp.placed() {
        for v in [p.block.index(), p.cell.x, p.cell.y, p.grid_w, p.grid_h] {
            h.mix(v as u64);
        }
        for v in [p.rect.x0, p.rect.y0, p.rect.x1, p.rect.y1] {
            h.mix(v.to_bits());
        }
    }
    h.0
}

/// A fresh small-config agent plus the transitions of seeded exploring
/// episodes on OTA-5 and Bias-1 (the masks hold zeros and nonzeros, so the
/// kernels see both).
fn seeded_rollouts() -> (FloorplanAgent, RolloutBuffer) {
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

fn buffer_fingerprint(buffer: &RolloutBuffer) -> u64 {
    let mut h = Fnv::new();
    h.mix(buffer.len() as u64);
    for t in buffer.transitions() {
        h.mix(t.action as u64);
        h.mix(t.log_prob.to_bits() as u64);
        h.mix(t.value.to_bits() as u64);
        h.mix(t.reward.to_bits() as u64);
        h.mix(t.done as u64);
    }
    h.0
}

/// Every parameter value of the policy, bit for bit.
fn params_fingerprint(agent: &FloorplanAgent) -> u64 {
    let mut h = Fnv::new();
    for p in agent.policy().params() {
        h.mix(p.value.len() as u64);
        for v in p.value.data() {
            h.mix(v.to_bits() as u64);
        }
    }
    h.0
}

#[test]
fn seeded_small_episode_is_bit_identical() {
    let (_, buffer) = seeded_rollouts();
    let actual = buffer_fingerprint(&buffer);
    assert_eq!(
        (buffer.len(), actual),
        (25, 0xa2a03422fc2fde44),
        "seeded small-config episode stream diverged: fingerprint=0x{actual:016x}"
    );
}

#[test]
fn seeded_ppo_update_is_bit_identical() {
    let (mut agent, buffer) = seeded_rollouts();
    let mut trainer = PpoTrainer::new(agent.config().ppo.clone());
    let mut rng = StdRng::seed_from_u64(0x990);
    let stats = trainer.update(agent.policy_mut(), &buffer, &mut rng);
    let actual = params_fingerprint(&agent);
    let losses = [
        stats.policy_loss,
        stats.value_loss,
        stats.entropy,
        stats.approx_kl,
    ]
    .map(f32::to_bits);
    assert_eq!(
        (actual, losses, stats.gradient_steps),
        (
            0x99e281b0eb1324b7,
            [0x3b197b4a, 0x4449537b, 0x40db1e8e, 0x3c89711c],
            8
        ),
        "seeded PPO update diverged: params=0x{actual:016x} losses={losses:#010x?}"
    );
}

#[test]
fn seeded_small_solve_is_bit_identical() {
    let mut agent = FloorplanAgent::new(AgentConfig::small());
    let result = agent.solve(&generators::ota8());
    let actual = floorplan_fingerprint(&result.floorplan);
    assert_eq!(
        (actual, result.reward.to_bits()),
        (0xe9c2db78946ec45e, 0xc03b49343e2d2877),
        "agent.solve diverged: fingerprint=0x{actual:016x} reward_bits=0x{:016x}",
        result.reward.to_bits()
    );
}
