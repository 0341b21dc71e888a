//! Canonical problem fingerprints.
//!
//! A [`Fingerprint`] is a 128-bit structural hash over everything that
//! determines a solve's outcome: the netlist topology (block inventory,
//! connectivity, constraint set), the derived shape tables and canvas, the
//! evaluation constants (the spacing parameters and the Eq. 5 reward
//! weights, identical for every job), the optimizer configuration, and the
//! seed. Two [`JobSpec`]s with equal fingerprints
//! produce bit-identical [`BaselineResult`]s — that is the contract that
//! makes the result cache safe — so the encoder must be *canonical*:
//! everything semantically irrelevant is normalized away before hashing.
//!
//! Canonicalization rules:
//!
//! * **Free-text names are excluded.** Circuit, block, and net names are
//!   labels for humans; renaming `vout` to `n17` changes nothing about the
//!   floorplanning problem. Pin terminal names *are* hashed — they identify
//!   distinct connection points on a block.
//! * **Field order cannot matter** because the encoder walks struct fields in
//!   one fixed order with a domain tag per section; there is no serialized
//!   text form (and hence no field-order or float-formatting ambiguity) in
//!   the first place. Floats are hashed by canonical bit pattern: `-0.0`
//!   folds onto `0.0` and every NaN folds onto one canonical NaN, so a value
//!   that round-trips through `Display`/`parse` (Rust's shortest round-trip
//!   formatting) fingerprints identically.
//! * **Unordered collections are sorted.** Pins within a net, nets within a
//!   circuit, pairs within a symmetry group, blocks within an alignment
//!   group, and constraints within the set are all order-normalized, because
//!   the evaluation stack treats them as sets.
//! * **Non-semantic knobs are excluded.** The config-embedded `seed` is
//!   ignored in favor of [`JobSpec::seed`], which is what
//!   [`Baseline::run_controlled`] actually uses.
//!
//! [`BaselineResult`]: afp_metaheuristics::BaselineResult
//! [`Baseline::run_controlled`]: afp_metaheuristics::Baseline::run_controlled

use std::fmt;

use afp_circuit::{Axis, Circuit, Constraint, InternalPlacement, RoutingDirection, ShapeSet};
use afp_layout::{metrics, spacing, Canvas};
use afp_metaheuristics::{Baseline, GaConfig, PsoConfig, SaConfig, SpRlConfig};

/// A 128-bit canonical problem fingerprint (the cache key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u64; 2]);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Streaming two-lane mixer behind [`Fingerprint`].
///
/// Each 64-bit word is folded into both lanes with lane-distinct odd
/// multipliers and a running position counter, so permuted input streams
/// hash differently while the two lanes stay decorrelated. This is a
/// structural-identity hash (like the evaluator's candidate keys), not a
/// cryptographic one: the threat model is accidental collision between
/// near-identical problem instances, not an adversary.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    lanes: [u64; 2],
    count: u64,
}

impl FingerprintHasher {
    const MULT: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f];

    /// Creates a hasher with fixed initial lane values.
    pub fn new() -> Self {
        FingerprintHasher {
            lanes: [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344],
            count: 0,
        }
    }

    /// Folds one 64-bit word into both lanes.
    pub fn write_u64(&mut self, value: u64) {
        self.count = self.count.wrapping_add(1);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let mut x = *lane ^ value.wrapping_add(self.count.wrapping_mul(0x9e37_79b9)) ;
            x = x.wrapping_mul(Self::MULT[i]);
            x ^= x >> 29;
            x = x.wrapping_mul(Self::MULT[1 - i]);
            x ^= x >> 32;
            *lane = x;
        }
    }

    /// Writes a one-byte domain tag separating encoder sections.
    pub fn write_tag(&mut self, tag: u8) {
        self.write_u64(0x7461_6700_0000_0000 | u64::from(tag));
    }

    /// Writes a `usize` (as `u64`).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Writes a float by canonical bit pattern: `-0.0` hashes as `0.0` and
    /// every NaN hashes as the one canonical NaN, so values that compare
    /// equal (or are equally undefined) fingerprint identically regardless
    /// of how they were produced or formatted.
    pub fn write_f64(&mut self, value: f64) {
        let bits = if value.is_nan() {
            f64::NAN.to_bits()
        } else if value == 0.0 {
            0f64.to_bits()
        } else {
            value.to_bits()
        };
        self.write_u64(bits);
    }

    /// Writes a semantically meaningful string (length-prefixed bytes).
    /// Only used where the text identifies structure — pin terminals —
    /// never for display names.
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        for chunk in value.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Finalizes the two lanes into a [`Fingerprint`].
    pub fn finish(mut self) -> Fingerprint {
        let count = self.count;
        self.write_u64(count ^ 0x5f5f_6669_6e5f_5f21);
        Fingerprint(self.lanes)
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

// Section tags. Gaps left between groups so new sections slot in without
// renumbering (renumbering would move every fingerprint).
const TAG_BLOCKS: u8 = 0x01;
const TAG_NETS: u8 = 0x02;
const TAG_CONSTRAINTS: u8 = 0x03;
const TAG_ASPECT: u8 = 0x04;
const TAG_SHAPES: u8 = 0x10;
const TAG_CANVAS: u8 = 0x11;
const TAG_SPACING: u8 = 0x12;
const TAG_WEIGHTS: u8 = 0x13;
const TAG_SOLVER: u8 = 0x20;
const TAG_SEED: u8 = 0x21;

fn axis_index(axis: Axis) -> u64 {
    match axis {
        Axis::Horizontal => 0,
        Axis::Vertical => 1,
    }
}

fn routing_index(dir: RoutingDirection) -> u64 {
    match dir {
        RoutingDirection::Horizontal => 0,
        RoutingDirection::Vertical => 1,
        RoutingDirection::Any => 2,
    }
}

fn placement_index(placement: InternalPlacement) -> u64 {
    match placement {
        InternalPlacement::CommonCentroid => 0,
        InternalPlacement::Interdigitated => 1,
        InternalPlacement::Row => 2,
        InternalPlacement::Single => 3,
    }
}

/// Hashes a sub-structure into a standalone digest, so unordered collections
/// can be canonicalized by sorting their element digests.
fn digest<F: FnOnce(&mut FingerprintHasher)>(encode: F) -> [u64; 2] {
    let mut hasher = FingerprintHasher::new();
    encode(&mut hasher);
    hasher.finish().0
}

/// Encodes the structure of a circuit: block inventory (kind, geometry
/// parameters, connectivity counts), nets as sorted pin sets, and
/// the order-normalized constraint set. Names are excluded (see module docs).
fn write_structure(hasher: &mut FingerprintHasher, circuit: &Circuit) {
    hasher.write_tag(TAG_BLOCKS);
    hasher.write_usize(circuit.blocks.len());
    for block in &circuit.blocks {
        hasher.write_usize(block.kind.index());
        hasher.write_u64(routing_index(block.routing_direction));
        hasher.write_u64(placement_index(block.internal_placement));
        hasher.write_u64(u64::from(block.pin_count));
        hasher.write_usize(block.devices.len());
        hasher.write_f64(block.area_um2);
        hasher.write_f64(block.stripe_width_um);
    }

    hasher.write_tag(TAG_NETS);
    hasher.write_usize(circuit.nets.len());
    let mut net_digests: Vec<[u64; 2]> = circuit
        .nets
        .iter()
        .map(|net| {
            let mut pins: Vec<(usize, &str)> = net
                .pins
                .iter()
                .map(|pin| (pin.block.index(), pin.terminal.as_str()))
                .collect();
            pins.sort();
            digest(|h| {
                h.write_u64(net.class as u64);
                h.write_usize(pins.len());
                for (block, terminal) in pins {
                    h.write_usize(block);
                    h.write_str(terminal);
                }
            })
        })
        .collect();
    net_digests.sort();
    for d in net_digests {
        hasher.write_u64(d[0]);
        hasher.write_u64(d[1]);
    }

    hasher.write_tag(TAG_CONSTRAINTS);
    let mut constraint_digests: Vec<[u64; 2]> = circuit
        .constraints
        .iter()
        .map(|constraint| match constraint {
            Constraint::Symmetry(group) => {
                let mut pairs: Vec<(usize, usize)> = group
                    .pairs
                    .iter()
                    .map(|&(a, b)| {
                        let (a, b) = (a.index(), b.index());
                        (a.min(b), a.max(b))
                    })
                    .collect();
                pairs.sort();
                let mut selfs: Vec<usize> =
                    group.self_symmetric.iter().map(|b| b.index()).collect();
                selfs.sort_unstable();
                digest(|h| {
                    h.write_tag(1);
                    h.write_u64(axis_index(group.axis));
                    h.write_usize(pairs.len());
                    for (a, b) in pairs {
                        h.write_usize(a);
                        h.write_usize(b);
                    }
                    h.write_usize(selfs.len());
                    for b in selfs {
                        h.write_usize(b);
                    }
                })
            }
            Constraint::Alignment(group) => {
                let mut blocks: Vec<usize> = group.blocks.iter().map(|b| b.index()).collect();
                blocks.sort_unstable();
                digest(|h| {
                    h.write_tag(2);
                    h.write_u64(axis_index(group.axis));
                    h.write_usize(blocks.len());
                    for b in blocks {
                        h.write_usize(b);
                    }
                })
            }
        })
        .collect();
    hasher.write_usize(constraint_digests.len());
    constraint_digests.sort();
    for d in constraint_digests {
        hasher.write_u64(d[0]);
        hasher.write_u64(d[1]);
    }

    hasher.write_tag(TAG_ASPECT);
    match circuit.target_aspect_ratio {
        Some(ratio) => {
            hasher.write_u64(1);
            hasher.write_f64(ratio);
        }
        None => hasher.write_u64(0),
    }
}

/// Encodes the evaluation context the solvers actually see: per-block shape
/// tables and canvas, derived exactly as
/// [`Problem::new`](afp_metaheuristics::Problem::new) derives them, then the
/// spacing and reward-weight constants. The constants cannot differ between
/// two jobs; they are hashed so that a build with other values keys its
/// results apart.
fn write_evaluation_context(hasher: &mut FingerprintHasher, circuit: &Circuit) {
    hasher.write_tag(TAG_SHAPES);
    for block in &circuit.blocks {
        for shape in ShapeSet::for_block(block).shapes() {
            hasher.write_f64(shape.width_um);
            hasher.write_f64(shape.height_um);
        }
    }

    hasher.write_tag(TAG_CANVAS);
    let canvas = Canvas::for_circuit(circuit);
    hasher.write_f64(canvas.width_um);
    hasher.write_f64(canvas.height_um);

    hasher.write_tag(TAG_SPACING);
    hasher.write_f64(spacing::TRACK_PITCH_UM);
    hasher.write_f64(spacing::TRACKS_PER_NET);
    hasher.write_f64(spacing::MAX_RELATIVE_MARGIN);

    hasher.write_tag(TAG_WEIGHTS);
    hasher.write_f64(metrics::ALPHA);
    hasher.write_f64(metrics::BETA);
    hasher.write_f64(metrics::GAMMA);
    hasher.write_f64(metrics::VIOLATION_PENALTY);
}

fn write_sa_config(hasher: &mut FingerprintHasher, cfg: &SaConfig) {
    hasher.write_usize(cfg.iterations);
    hasher.write_f64(cfg.initial_temperature);
    hasher.write_f64(cfg.cooling);
    hasher.write_usize(cfg.moves_per_temperature);
    hasher.write_f64(cfg.locality_bias);
}

fn write_ga_config(hasher: &mut FingerprintHasher, cfg: &GaConfig) {
    hasher.write_usize(cfg.population);
    hasher.write_usize(cfg.generations);
    hasher.write_f64(cfg.mutation_rate);
    hasher.write_usize(cfg.tournament);
    hasher.write_usize(cfg.elitism);
}

fn write_pso_config(hasher: &mut FingerprintHasher, cfg: &PsoConfig) {
    hasher.write_usize(cfg.particles);
    hasher.write_usize(cfg.iterations);
    hasher.write_f64(cfg.inertia);
    hasher.write_f64(cfg.cognitive);
    hasher.write_f64(cfg.social);
}

fn write_sp_rl_config(hasher: &mut FingerprintHasher, cfg: &SpRlConfig) {
    hasher.write_usize(cfg.episodes);
    hasher.write_usize(cfg.moves_per_episode);
    hasher.write_f64(cfg.learning_rate);
}

/// Encodes the solver choice and its semantic knobs. Worker counts and the
/// config-embedded seed are deliberately excluded (module docs).
fn write_solver(hasher: &mut FingerprintHasher, solver: &Baseline) {
    hasher.write_tag(TAG_SOLVER);
    match solver {
        Baseline::Sa(cfg) => {
            hasher.write_u64(1);
            write_sa_config(hasher, cfg);
        }
        Baseline::Ga(cfg) => {
            hasher.write_u64(2);
            write_ga_config(hasher, cfg);
        }
        Baseline::Pso(cfg) => {
            hasher.write_u64(3);
            write_pso_config(hasher, cfg);
        }
        Baseline::RlSa(cfg) => {
            hasher.write_u64(4);
            write_sp_rl_config(hasher, &cfg.warmup);
            write_sa_config(hasher, &cfg.refinement);
        }
        Baseline::SpRl(cfg) => {
            hasher.write_u64(5);
            write_sp_rl_config(hasher, cfg);
        }
    }
}

/// A complete, self-contained solve request: the circuit, which baseline to
/// run (with its configuration), and the seed.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The circuit to floorplan.
    pub circuit: Circuit,
    /// The baseline optimizer and its configuration.
    pub solver: Baseline,
    /// RNG seed passed to [`Baseline::run_controlled`]
    /// (overrides any seed embedded in the solver config).
    ///
    /// [`Baseline::run_controlled`]: afp_metaheuristics::Baseline::run_controlled
    pub seed: u64,
}

impl JobSpec {
    /// Creates a job spec.
    pub fn new(circuit: Circuit, solver: Baseline, seed: u64) -> Self {
        JobSpec {
            circuit,
            solver,
            seed,
        }
    }

    /// The exact cache key: structure + evaluation context + solver + seed.
    /// Equal fingerprints imply bit-identical solve results.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut hasher = FingerprintHasher::new();
        write_structure(&mut hasher, &self.circuit);
        write_evaluation_context(&mut hasher, &self.circuit);
        write_solver(&mut hasher, &self.solver);
        hasher.write_tag(TAG_SEED);
        hasher.write_u64(self.seed);
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    fn spec(circuit: Circuit) -> JobSpec {
        JobSpec::new(circuit, Baseline::Sa(SaConfig::small()), 7)
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = spec(generators::ota5()).fingerprint();
        let b = spec(generators::ota5()).fingerprint();
        assert_eq!(a, b);
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn distinct_inputs_get_distinct_fingerprints() {
        let base = spec(generators::ota5());
        let mut seen = vec![base.fingerprint()];
        let mut check = |s: &JobSpec| {
            let fp = s.fingerprint();
            assert!(!seen.contains(&fp), "collision: {fp}");
            seen.push(fp);
        };

        // Different circuit.
        check(&spec(generators::ota3()));
        // Different seed.
        check(&JobSpec { seed: 8, ..base.clone() });
        // Different solver family.
        check(&JobSpec {
            solver: Baseline::Ga(GaConfig::small()),
            ..base.clone()
        });
        // Different solver knob.
        let mut cfg = SaConfig::small();
        cfg.iterations += 1;
        check(&JobSpec {
            solver: Baseline::Sa(cfg),
            ..base.clone()
        });
        // Perturbed block sizing.
        let mut resized = base.clone();
        resized.circuit.blocks[0].area_um2 *= 1.01;
        check(&resized);
    }

    #[test]
    fn names_do_not_affect_the_fingerprint() {
        let base = spec(generators::ota5());
        let mut renamed = base.clone();
        renamed.circuit.name = "anything-else".into();
        for block in &mut renamed.circuit.blocks {
            block.name = format!("x{}", block.id.index());
        }
        for net in &mut renamed.circuit.nets {
            net.name = format!("n{}", net.id.index());
        }
        assert_eq!(base.fingerprint(), renamed.fingerprint());
    }

    #[test]
    fn collection_order_does_not_affect_the_fingerprint() {
        let base = spec(generators::ota5());
        let mut shuffled = base.clone();
        // Reverse the net list, each net's pin list, each symmetry group's
        // pair list (and the endpoints within a pair), and the constraint
        // list — all sets as far as evaluation is concerned.
        shuffled.circuit.nets.reverse();
        for net in &mut shuffled.circuit.nets {
            net.pins.reverse();
        }
        let mut constraints: Vec<Constraint> =
            shuffled.circuit.constraints.iter().cloned().collect();
        constraints.reverse();
        for constraint in &mut constraints {
            if let Constraint::Symmetry(group) = constraint {
                group.pairs.reverse();
                for pair in &mut group.pairs {
                    *pair = (pair.1, pair.0);
                }
                group.self_symmetric.reverse();
            }
        }
        shuffled.circuit.constraints = constraints.into_iter().collect();
        assert_eq!(base.fingerprint(), shuffled.fingerprint());
    }

    #[test]
    fn float_formatting_round_trip_is_canonical() {
        // Rust's f64 Display is shortest-round-trip: parsing the printed form
        // recovers the exact bits, so a spec that went through text (config
        // file, RPC payload) fingerprints identically.
        let base = spec(generators::ota5());
        let mut round_tripped = base.clone();
        for block in &mut round_tripped.circuit.blocks {
            block.area_um2 = block.area_um2.to_string().parse().unwrap();
            block.stripe_width_um = block.stripe_width_um.to_string().parse().unwrap();
        }
        assert_eq!(base.fingerprint(), round_tripped.fingerprint());

        // Negative zero and NaN fold onto their canonical forms.
        let mut h1 = FingerprintHasher::new();
        h1.write_f64(0.0);
        h1.write_f64(f64::NAN);
        let mut h2 = FingerprintHasher::new();
        h2.write_f64(-0.0);
        h2.write_f64(-f64::NAN);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn embedded_seed_is_not_part_of_the_key() {
        // The embedded seed is overridden by JobSpec::seed.
        let mut a_cfg = GaConfig::small();
        a_cfg.seed = 1;
        let mut b_cfg = a_cfg.clone();
        b_cfg.seed = 99;
        let a = JobSpec::new(generators::ota5(), Baseline::Ga(a_cfg), 7);
        let b = JobSpec::new(generators::ota5(), Baseline::Ga(b_cfg), 7);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Pins the key function itself: a change to the encoder that moves
        // any of these bits changes which requests share a cache entry, so
        // it must be deliberate and visible here.
        use afp_metaheuristics::RlSaConfig;
        let pins = [
            (
                JobSpec::new(generators::ota5(), Baseline::Sa(SaConfig::small()), 7),
                "fe5d4678951b3537fb0fcf46043c7e6b",
            ),
            (
                JobSpec::new(generators::bias9(), Baseline::Ga(GaConfig::table1()), 1),
                "082525e5e6ac9cb3f283186e97afc4d4",
            ),
            (
                JobSpec::new(generators::ota8(), Baseline::Pso(PsoConfig::small()), 3),
                "81230faa43031ab59ac8a22a029b671c",
            ),
            (
                JobSpec::new(generators::ota3(), Baseline::RlSa(RlSaConfig::small()), 11),
                "cb2977f514a9ca38e7f6ce8da7d7e5cc",
            ),
            (
                JobSpec::new(generators::ota3(), Baseline::SpRl(SpRlConfig::table1()), 0),
                "b93e48d615460f656afe1f9f0cc13a42",
            ),
        ];
        for (spec, pin) in pins {
            assert_eq!(spec.fingerprint().to_string(), pin, "{}", spec.circuit.name);
        }
    }

    #[test]
    fn permuted_streams_hash_differently() {
        let mut h1 = FingerprintHasher::new();
        h1.write_u64(1);
        h1.write_u64(2);
        let mut h2 = FingerprintHasher::new();
        h2.write_u64(2);
        h2.write_u64(1);
        assert_ne!(h1.finish(), h2.finish());

        // Empty-vs-empty prefix boundary: ["ab", ""] vs ["a", "b"].
        let mut h3 = FingerprintHasher::new();
        h3.write_str("ab");
        h3.write_str("");
        let mut h4 = FingerprintHasher::new();
        h4.write_str("a");
        h4.write_str("b");
        assert_ne!(h3.finish(), h4.finish());
    }
}
