//! Shared machinery of the baseline floorplanners: candidate encoding,
//! cost function, perturbation moves and result reporting.

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::Rng;

use afp_circuit::{shapes::shape_sets, Circuit, Shape, ShapeSet, SHAPES_PER_BLOCK};
use afp_layout::sequence_pair::realize_floorplan;
use afp_layout::{metrics, spacing, Canvas, Floorplan, PackScratch};

pub use afp_par::{CancelToken, RunControl, StopReason};

/// A candidate solution: a sequence pair plus the index of the chosen
/// candidate shape for every block.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Positive sequence (block indices).
    pub positive: Vec<usize>,
    /// Negative sequence (block indices).
    pub negative: Vec<usize>,
    /// Chosen shape index per block (0..SHAPES_PER_BLOCK).
    pub shape_choice: Vec<usize>,
}

impl Candidate {
    /// The identity candidate: natural order, most-square shapes.
    pub fn identity(num_blocks: usize, shape_sets: &[ShapeSet]) -> Self {
        Candidate {
            positive: (0..num_blocks).collect(),
            negative: (0..num_blocks).collect(),
            shape_choice: shape_sets.iter().map(|s| s.most_square()).collect(),
        }
    }

    /// A uniformly random candidate.
    pub fn random<R: Rng + ?Sized>(num_blocks: usize, rng: &mut R) -> Self {
        let mut positive: Vec<usize> = (0..num_blocks).collect();
        let mut negative: Vec<usize> = (0..num_blocks).collect();
        positive.shuffle(rng);
        negative.shuffle(rng);
        Candidate {
            positive,
            negative,
            shape_choice: (0..num_blocks)
                .map(|_| rng.gen_range(0..SHAPES_PER_BLOCK))
                .collect(),
        }
    }

    /// Applies a uniformly random perturbation move in place: swap two blocks
    /// in the positive sequence, in the negative sequence, in both, or change
    /// one block's shape.
    ///
    /// Returns an undo token; passing it to [`Candidate::undo`] restores the
    /// candidate exactly, which lets SA revert a rejected move without
    /// cloning the whole candidate on every proposal.
    ///
    /// Equivalent to [`Candidate::perturb_with`] under [`MoveMix::uniform`]
    /// (same moves, same RNG stream).
    pub fn perturb<R: Rng + ?Sized>(&mut self, rng: &mut R) -> PerturbUndo {
        self.perturb_with(&MoveMix::uniform(), rng)
    }

    /// [`Candidate::perturb`] with a configurable move mix: with probability
    /// `mix.locality_bias`, a sequence-swap move exchanges *adjacent*
    /// positions `(i, i + 1)` instead of two uniformly random positions.
    ///
    /// Adjacent swaps are the smallest sequence diff a swap can make; they
    /// narrow the search step without changing what a move costs to
    /// evaluate (see `ARCHITECTURE.md`, *The locality-aware move mix*, and
    /// `docs/TUNING.md` for how to pick the bias). At
    /// `locality_bias = 0.0` this is exactly [`Candidate::perturb`] —
    /// including the RNG stream, so existing seeds reproduce old walks.
    ///
    /// # Examples
    ///
    /// ```
    /// use afp_metaheuristics::{Candidate, MoveMix, PerturbUndo};
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = StdRng::seed_from_u64(9);
    /// let mut candidate = Candidate::random(12, &mut rng);
    /// let reference = candidate.clone();
    ///
    /// // A fully local mix: every sequence swap is adjacent.
    /// let mix = MoveMix::local(1.0);
    /// for _ in 0..100 {
    ///     let undo = candidate.perturb_with(&mix, &mut rng);
    ///     if let PerturbUndo::SwapPositive(i, j) = undo {
    ///         assert_eq!(j, i + 1, "biased swaps exchange neighbours");
    ///     }
    ///     candidate.undo(undo);
    ///     assert_eq!(candidate, reference, "undo reverts biased moves too");
    /// }
    /// ```
    pub fn perturb_with<R: Rng + ?Sized>(&mut self, mix: &MoveMix, rng: &mut R) -> PerturbUndo {
        let n = self.positive.len();
        if n < 2 {
            return PerturbUndo::Noop;
        }
        match rng.gen_range(0..4) {
            0 => {
                let (i, j) = swap_pair(n, mix, rng);
                self.positive.swap(i, j);
                PerturbUndo::SwapPositive(i, j)
            }
            1 => {
                let (i, j) = swap_pair(n, mix, rng);
                self.negative.swap(i, j);
                PerturbUndo::SwapNegative(i, j)
            }
            2 => {
                let (i, j) = swap_pair(n, mix, rng);
                self.positive.swap(i, j);
                let (k, l) = swap_pair(n, mix, rng);
                self.negative.swap(k, l);
                PerturbUndo::SwapBoth {
                    positive: (i, j),
                    negative: (k, l),
                }
            }
            _ => {
                let b = rng.gen_range(0..n);
                let previous = self.shape_choice[b];
                self.shape_choice[b] = rng.gen_range(0..SHAPES_PER_BLOCK);
                PerturbUndo::Shape { block: b, previous }
            }
        }
    }

    /// Reverts the move recorded by a [`Candidate::perturb`] call. Tokens
    /// must be applied in reverse order of the moves they record.
    pub fn undo(&mut self, token: PerturbUndo) {
        match token {
            PerturbUndo::Noop => {}
            PerturbUndo::SwapPositive(i, j) => self.positive.swap(i, j),
            PerturbUndo::SwapNegative(i, j) => self.negative.swap(i, j),
            PerturbUndo::SwapBoth { positive, negative } => {
                self.positive.swap(positive.0, positive.1);
                self.negative.swap(negative.0, negative.1);
            }
            PerturbUndo::Shape { block, previous } => self.shape_choice[block] = previous,
        }
    }
}

/// The inverse record of one [`Candidate::perturb`] move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbUndo {
    /// The candidate was too small to perturb; nothing to revert.
    Noop,
    /// Swap back positions `(i, j)` of the positive sequence.
    SwapPositive(usize, usize),
    /// Swap back positions `(i, j)` of the negative sequence.
    SwapNegative(usize, usize),
    /// Swap back one position pair in each sequence.
    SwapBoth {
        /// Positions swapped in `s⁺`.
        positive: (usize, usize),
        /// Positions swapped in `s⁻`.
        negative: (usize, usize),
    },
    /// Restore a block's previous shape choice.
    Shape {
        /// The perturbed block index.
        block: usize,
        /// Its shape index before the move.
        previous: usize,
    },
}

/// The perturbation move mix: how [`Candidate::perturb_with`] picks the two
/// sequence positions a swap move exchanges.
///
/// Uniform swaps move most packed coordinates per move; adjacent swaps make
/// the smallest sequence diff, a local refinement step. Every evaluation
/// realizes from scratch, so the bias changes which candidates are proposed,
/// not what one costs (`bench_snapshot`'s `sa_locality` section times both
/// walks). `docs/TUNING.md` discusses how the bias trades search reach
/// against refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveMix {
    /// Probability in `[0, 1]` that a sequence-swap move exchanges adjacent
    /// positions `(i, i + 1)` instead of two uniformly random positions.
    /// `0.0` reproduces the historical uniform mix bit-for-bit (no extra RNG
    /// draw is made, so seeds replay identically).
    pub locality_bias: f64,
}

impl MoveMix {
    /// The historical uniform mix: every swap picks two uniform positions.
    pub fn uniform() -> Self {
        MoveMix { locality_bias: 0.0 }
    }

    /// A locality-aware mix: with probability `bias` (clamped to `[0, 1]`), a
    /// swap exchanges adjacent positions.
    pub fn local(bias: f64) -> Self {
        MoveMix {
            locality_bias: bias.clamp(0.0, 1.0),
        }
    }
}

impl Default for MoveMix {
    fn default() -> Self {
        MoveMix::uniform()
    }
}

/// Picks the positions a swap move exchanges under the given mix. The biased
/// branch draws its coin only when the bias is positive, so the uniform mix
/// consumes exactly the RNG stream the historical `perturb` did.
fn swap_pair<R: Rng + ?Sized>(n: usize, mix: &MoveMix, rng: &mut R) -> (usize, usize) {
    if mix.locality_bias > 0.0 && rng.gen::<f64>() < mix.locality_bias {
        let i = rng.gen_range(0..n - 1);
        (i, i + 1)
    } else {
        two_distinct(n, rng)
    }
}

fn two_distinct<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (usize, usize) {
    let i = rng.gen_range(0..n);
    let mut j = rng.gen_range(0..n);
    while j == i {
        j = rng.gen_range(0..n);
    }
    (i, j)
}

/// Grid discretization for an `n`-block problem: the paper's 32×32 grid for
/// every circuit in its size class (n ≤ 64 — bit-identical to the historical
/// fixed grid), and the widest one-word grid,
/// [`MAX_GRID_SIDE`](afp_layout::bitgrid::MAX_GRID_SIDE)` = 64`, past it.
pub fn grid_side_for(n: usize) -> usize {
    if n <= 64 {
        afp_layout::GRID_SIZE
    } else {
        afp_layout::bitgrid::MAX_GRID_SIDE
    }
}

/// The shared evaluation context: circuit, canvas, per-block shape sets with
/// the congestion-aware spacing of every baseline (paper §V-B) and the reward
/// normalization.
#[derive(Debug)]
pub struct Problem {
    /// The circuit being floorplanned. Private because the effective-shape
    /// table is derived from its connectivity; read through
    /// [`Problem::circuit`].
    circuit: Circuit,
    /// The placement canvas.
    canvas: Canvas,
    /// Candidate shapes per block. Private so the precomputed
    /// effective-shape table cannot silently go stale; read through
    /// [`Problem::shape_sets`].
    shape_sets: Vec<ShapeSet>,
    /// `HPWL_min` estimate used by the reward (paper Eq. 5).
    hpwl_min: f64,
    /// Effective (spacing-inflated) candidate shape per `[block][shape
    /// index]`, precomputed once: the congestion margin depends only on the
    /// block's connectivity and the chosen shape, never on the candidate's
    /// sequences, so re-deriving it on every cost evaluation (a full
    /// `nets_of_block` scan per block) dominated the SA inner loop.
    effective_shapes: Vec<[Shape; SHAPES_PER_BLOCK]>,
}

impl Problem {
    /// Builds the evaluation context for a circuit: the paper's canvas,
    /// shape sets and `HPWL_min`, every shape inflated by
    /// [`spacing::inflate_shape`].
    pub fn new(circuit: &Circuit) -> Self {
        let shape_sets = shape_sets(circuit);
        let effective_shapes = circuit
            .blocks
            .iter()
            .zip(&shape_sets)
            .map(|(block, set)| {
                std::array::from_fn(|k| spacing::inflate_shape(circuit, block, &set.shape(k)))
            })
            .collect();
        Problem {
            canvas: Canvas::for_circuit(circuit),
            shape_sets,
            hpwl_min: metrics::hpwl_lower_bound(circuit),
            circuit: circuit.clone(),
            effective_shapes,
        }
    }

    /// The circuit being floorplanned.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Cells per side of the placement grid ([`grid_side_for`] the block
    /// count): every floorplan realized for this problem — `Problem::realize`,
    /// every `CostCache` — uses this discretization.
    pub fn grid_side(&self) -> usize {
        grid_side_for(self.circuit.num_blocks())
    }

    /// The candidate shapes per block.
    pub fn shape_sets(&self) -> &[ShapeSet] {
        &self.shape_sets
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.circuit.num_blocks()
    }

    /// Realizes a candidate as a floorplan on the shared canvas, at this
    /// problem's grid discretization.
    pub fn realize(&self, candidate: &Candidate) -> Floorplan {
        let mut fp = Floorplan::with_grid_side(self.canvas, self.grid_side());
        self.realize_into(
            candidate,
            &mut PackScratch::with_capacity(self.num_blocks()),
            &mut Vec::with_capacity(self.num_blocks()),
            &mut fp,
        );
        fp
    }

    /// [`Problem::realize`] into caller-held buffers: writes the candidate's
    /// effective shapes into `shapes`, then packs and snaps them with
    /// [`realize_floorplan`] into `fp`.
    fn realize_into(
        &self,
        candidate: &Candidate,
        pack: &mut PackScratch,
        shapes: &mut Vec<Shape>,
        fp: &mut Floorplan,
    ) {
        shapes.clear();
        shapes.extend(
            candidate
                .shape_choice
                .iter()
                .enumerate()
                .map(|(b, &s)| self.effective_shapes[b][s]),
        );
        realize_floorplan(
            &candidate.positive,
            &candidate.negative,
            shapes,
            &self.circuit,
            self.canvas,
            pack,
            fp,
        );
    }

    /// Cost of a candidate (lower is better): the negative episode reward of
    /// its floorplan, so that cost minimization and reward maximization agree.
    pub fn cost(&self, candidate: &Candidate) -> f64 {
        -metrics::episode_reward(&self.circuit, &self.realize(candidate), self.hpwl_min)
    }

    /// [`Problem::cost`] through a [`CostCache`]: identical values, but
    /// repeated evaluations reuse every buffer (pack scratch, shapes,
    /// floorplan) through one [`realize_floorplan`] pass (full FAST-SP sweep
    /// → snap every block) and one full metrics rescan, and candidates seen recently — e.g. the pre-move state SA
    /// returns to after a rejected move, or a GA elite carried into the next
    /// generation — are answered from the memo without re-packing.
    ///
    /// # Examples
    ///
    /// ```
    /// use afp_circuit::generators;
    /// use afp_metaheuristics::{Candidate, CostCache, Problem};
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let circuit = generators::ota5();
    /// let problem = Problem::new(&circuit);
    /// let mut cache = CostCache::new(&problem);
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let mut candidate = Candidate::random(problem.num_blocks(), &mut rng);
    ///
    /// let cost = problem.cost_cached(&candidate, &mut cache);
    /// assert_eq!(cost, problem.cost(&candidate), "bit-identical to the uncached path");
    ///
    /// // A rejected SA move: perturb, evaluate, undo — the revert is
    /// // answered from the memo without re-packing anything.
    /// let undo = candidate.perturb(&mut rng);
    /// let _ = problem.cost_cached(&candidate, &mut cache);
    /// candidate.undo(undo);
    /// assert_eq!(problem.cost_cached(&candidate, &mut cache), cost);
    /// assert!(cache.hits >= 1);
    /// ```
    pub fn cost_cached(&self, candidate: &Candidate, cache: &mut CostCache) -> f64 {
        let key = candidate_key(candidate);
        if let Some(cost) = cache.lookup(key) {
            cache.hits += 1;
            return cost;
        }
        cache.misses += 1;
        self.realize_into(
            candidate,
            &mut cache.pack,
            &mut cache.shapes,
            &mut cache.floorplan,
        );
        let cost = -metrics::episode_reward(&self.circuit, &cache.floorplan, self.hpwl_min);
        cache.insert(key, cost);
        cost
    }
}

/// Number of direct-mapped memo slots in a [`CostCache`] (power of two).
const MEMO_SLOTS: usize = 1024;

/// Reusable evaluation state for the metaheuristic inner loops: the FAST-SP
/// pack scratch, the shape and floorplan buffers (the floorplan's
/// [`BitGrid`](afp_layout::BitGrid) is the occupancy every snap searches),
/// and a small direct-mapped memo keyed on a candidate fingerprint.
///
/// This is the optimizer-facing handle on the cost pipeline (see
/// `ARCHITECTURE.md`): [`Problem::cost_cached`] realizes every missed
/// candidate from scratch into these buffers and scores the floorplan with
/// one full HPWL / violation rescan ([`metrics::episode_reward`]),
/// bit-identical to [`Problem::cost`].
///
/// One `CostCache` is owned per optimizer run (it is keyed to one
/// [`Problem`]'s canvas and circuit); sharing it across problems would mix
/// canvases.
///
/// # Examples
///
/// ```
/// use afp_circuit::generators;
/// use afp_metaheuristics::{Candidate, CostCache, Problem};
///
/// let circuit = generators::ota3();
/// let problem = Problem::new(&circuit);
/// let mut cache = CostCache::new(&problem);
/// let c = Candidate::identity(problem.num_blocks(), problem.shape_sets());
/// assert_eq!(problem.cost_cached(&c, &mut cache), problem.cost(&c));
/// // The cache exposes its memo counters for observability.
/// assert_eq!((cache.hits, cache.misses), (0, 1));
/// ```
#[derive(Debug)]
pub struct CostCache {
    pack: PackScratch,
    floorplan: Floorplan,
    shapes: Vec<Shape>,
    /// `(fingerprint, cost)` slots; fingerprint 0 marks an empty slot.
    memo: Vec<(u64, f64)>,
    /// Evaluations answered from the memo.
    pub hits: u64,
    /// Evaluations that re-packed the candidate.
    pub misses: u64,
}

impl CostCache {
    /// Creates a cache sized for one problem.
    pub fn new(problem: &Problem) -> Self {
        let n = problem.num_blocks();
        CostCache {
            pack: PackScratch::with_capacity(n),
            floorplan: Floorplan::with_grid_side(problem.canvas, problem.grid_side()),
            shapes: Vec::with_capacity(n),
            memo: vec![(0, 0.0); MEMO_SLOTS],
            hits: 0,
            misses: 0,
        }
    }

    fn lookup(&self, key: u64) -> Option<f64> {
        let (tag, cost) = self.memo[(key as usize) & (MEMO_SLOTS - 1)];
        (tag == key).then_some(cost)
    }

    fn insert(&mut self, key: u64, cost: f64) {
        self.memo[(key as usize) & (MEMO_SLOTS - 1)] = (key, cost);
    }
}

/// Fingerprint of a candidate (sequences + shape choices). Zero is reserved
/// as the empty-slot sentinel of the memo.
///
/// Four xor-multiply accumulator lanes fed round-robin: a single FNV chain
/// serializes one ~4-cycle multiply per element (~60 ns for 19 blocks),
/// whereas independent lanes pipeline. Position sensitivity comes from the
/// lane structure plus the per-element index salt; the section constants keep
/// `positive`/`negative`/`shape_choice` from aliasing.
fn candidate_key(candidate: &Candidate) -> u64 {
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lanes = [
        0x243f_6a88_85a3_08d3u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut idx = 0u64;
    let mut eat_section = |values: &[usize], salt: u64| {
        for &v in values {
            let lane = (idx & 3) as usize;
            lanes[lane] = (lanes[lane] ^ (v as u64 ^ salt).wrapping_add(idx)).wrapping_mul(M);
            idx += 1;
        }
    };
    eat_section(&candidate.positive, 0x51);
    eat_section(&candidate.negative, 0x52EC);
    eat_section(&candidate.shape_choice, 0x53A9_0000);
    // Cross-lane avalanche so every input bit reaches every output bit.
    let mut hash = lanes[0];
    hash = (hash ^ lanes[1].rotate_left(17)).wrapping_mul(M);
    hash = (hash ^ lanes[2].rotate_left(31)).wrapping_mul(M);
    hash = (hash ^ lanes[3].rotate_left(47)).wrapping_mul(M);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(M);
    hash ^= hash >> 32;
    hash.max(1)
}

/// The outcome of one baseline optimization run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Name of the algorithm that produced the result.
    pub algorithm: String,
    /// The final floorplan.
    pub floorplan: Floorplan,
    /// Metrics of the final floorplan.
    pub metrics: metrics::FloorplanMetrics,
    /// Episode reward (paper Eq. 5) of the final floorplan.
    pub reward: f64,
    /// Wall-clock optimization time in seconds.
    pub runtime_s: f64,
    /// Number of candidate evaluations performed.
    pub evaluations: usize,
    /// Why the run returned: [`StopReason::Completed`] for a full-budget run
    /// (the only value historical entry points ever produce), any other
    /// variant when a [`RunControl`] cut the run short — in which case
    /// `floorplan`/`reward` are the best *so far*, not the best of the full
    /// budget.
    pub stop: StopReason,
}

impl BaselineResult {
    /// Assembles a result from a problem and its best candidate (with
    /// [`StopReason::Completed`]; interrupted runs override via
    /// [`with_stop`](BaselineResult::with_stop)).
    pub fn from_candidate(
        algorithm: &str,
        problem: &Problem,
        candidate: &Candidate,
        started: Instant,
        evaluations: usize,
    ) -> Self {
        let floorplan = problem.realize(candidate);
        let m = metrics::metrics(&problem.circuit, &floorplan);
        let reward = metrics::episode_reward(&problem.circuit, &floorplan, problem.hpwl_min);
        BaselineResult {
            algorithm: algorithm.to_string(),
            floorplan,
            metrics: m,
            reward,
            runtime_s: started.elapsed().as_secs_f64(),
            evaluations,
            stop: StopReason::Completed,
        }
    }

    /// Replaces the stop reason (builder-style, used by the controlled
    /// entry points when a run is interrupted).
    pub fn with_stop(mut self, stop: StopReason) -> Self {
        self.stop = stop;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_candidate_is_well_formed() {
        let circuit = generators::ota5();
        let problem = Problem::new(&circuit);
        let c = Candidate::identity(problem.num_blocks(), problem.shape_sets());
        assert_eq!(c.positive.len(), 5);
        assert_eq!(c.shape_choice.len(), 5);
        let cost = problem.cost(&c);
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn random_candidates_are_permutations() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Candidate::random(8, &mut rng);
        let mut pos = c.positive.clone();
        pos.sort_unstable();
        assert_eq!(pos, (0..8).collect::<Vec<_>>());
        let mut neg = c.negative.clone();
        neg.sort_unstable();
        assert_eq!(neg, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn perturbation_preserves_permutation_property() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Candidate::random(10, &mut rng);
        for _ in 0..50 {
            c.perturb(&mut rng);
        }
        let mut pos = c.positive.clone();
        pos.sort_unstable();
        assert_eq!(pos, (0..10).collect::<Vec<_>>());
        assert!(c.shape_choice.iter().all(|&s| s < SHAPES_PER_BLOCK));
    }

    #[test]
    fn uniform_mix_replays_the_historical_rng_stream() {
        // `perturb` delegates to `perturb_with(MoveMix::uniform())`; a zero
        // bias must not draw the locality coin, so two RNGs with the same
        // seed stay in lockstep whichever entry point drives them.
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let mut a = Candidate::random(10, &mut rng_a);
        let mut b = Candidate::random(10, &mut rng_b);
        let mix = MoveMix::uniform();
        for _ in 0..300 {
            let ua = a.perturb(&mut rng_a);
            let ub = b.perturb_with(&mix, &mut rng_b);
            assert_eq!(ua, ub);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn fully_local_mix_only_swaps_neighbours() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut c = Candidate::random(16, &mut rng);
        let mix = MoveMix::local(1.0);
        let mut saw_swap = false;
        for _ in 0..400 {
            match c.perturb_with(&mix, &mut rng) {
                PerturbUndo::SwapPositive(i, j) | PerturbUndo::SwapNegative(i, j) => {
                    assert_eq!(j, i + 1);
                    saw_swap = true;
                }
                PerturbUndo::SwapBoth { positive, negative } => {
                    assert_eq!(positive.1, positive.0 + 1);
                    assert_eq!(negative.1, negative.0 + 1);
                    saw_swap = true;
                }
                PerturbUndo::Shape { .. } | PerturbUndo::Noop => {}
            }
        }
        assert!(saw_swap, "walk never proposed a swap move");
        let mut pos = c.positive.clone();
        pos.sort_unstable();
        assert_eq!(pos, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn move_mix_clamps_bias() {
        assert_eq!(MoveMix::local(7.0).locality_bias, 1.0);
        assert_eq!(MoveMix::local(-3.0).locality_bias, 0.0);
        assert_eq!(MoveMix::default(), MoveMix::uniform());
    }

    #[test]
    fn undo_reverts_any_perturbation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut c = Candidate::random(12, &mut rng);
        let reference = c.clone();
        for _ in 0..200 {
            let token = c.perturb(&mut rng);
            c.undo(token);
            assert_eq!(c, reference);
        }
    }

    #[test]
    fn cost_cached_matches_cost() {
        let circuit = generators::ota8();
        let problem = Problem::new(&circuit);
        let mut cache = CostCache::new(&problem);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let c = Candidate::random(problem.num_blocks(), &mut rng);
            let direct = problem.cost(&c);
            let cached = problem.cost_cached(&c, &mut cache);
            assert_eq!(direct, cached);
            // Second lookup is a memo hit with the identical value.
            assert_eq!(problem.cost_cached(&c, &mut cache), direct);
        }
        assert!(cache.hits >= 20, "repeat evaluations should hit the memo");
        assert!(cache.misses >= 1);
    }

    #[test]
    fn realize_places_all_blocks() {
        let circuit = generators::bias9();
        let problem = Problem::new(&circuit);
        let mut rng = StdRng::seed_from_u64(3);
        let c = Candidate::random(problem.num_blocks(), &mut rng);
        let fp = problem.realize(&c);
        assert_eq!(fp.num_placed(), circuit.num_blocks());
    }

    #[test]
    fn grid_side_tracks_block_count() {
        // Paper-class circuits keep the historical 32×32 grid bit-identical;
        // larger circuits get the widest one-word grid, 64×64.
        for n in [1, 19, 64] {
            assert_eq!(grid_side_for(n), afp_layout::GRID_SIZE, "n = {n}");
        }
        assert_eq!(grid_side_for(65), 64);
        assert_eq!(grid_side_for(200), 64);
        assert_eq!(grid_side_for(256), 64);
        assert_eq!(grid_side_for(257), 64);
        assert_eq!(grid_side_for(500), 64);
        assert_eq!(grid_side_for(1000), 64);
        assert_eq!(grid_side_for(10_000), 64, "cap holds");
    }

    /// A deterministic large chain circuit (no constraints — feasible
    /// episodes exercise the HPWL rescan, not just the penalty gate).
    fn chain_circuit(n: usize) -> afp_circuit::Circuit {
        use afp_circuit::{BlockKind, NetClass};
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ n as u64);
        let names: Vec<String> = (0..n).map(|i| format!("B{i}")).collect();
        let mut builder = afp_circuit::Circuit::builder(format!("chain-{n}"));
        for name in &names {
            builder = builder.block(name, BlockKind::CurrentMirror, rng.gen_range(4.0..40.0), 3);
        }
        for w in names.windows(2) {
            builder = builder.net(
                &format!("n_{}_{}", &w[0], &w[1]),
                &[(w[0].as_str(), "d"), (w[1].as_str(), "s")],
                NetClass::Signal,
            );
        }
        builder.build().expect("chain circuit is valid")
    }

    #[test]
    fn large_n_cost_pipeline_matches_uncached_cost() {
        // 200 blocks: the cached cost pipeline must stay bit-identical to the
        // uncached cost past every old 64-element ceiling.
        let circuit = chain_circuit(200);
        let problem = Problem::new(&circuit);
        assert_eq!(
            problem.grid_side(),
            64,
            "200 blocks realize on a 64×64 grid"
        );
        let mut cache = CostCache::new(&problem);
        let mut rng = StdRng::seed_from_u64(0x1A26);
        let mut c = Candidate::random(problem.num_blocks(), &mut rng);
        for step in 0..40 {
            let undo = c.perturb(&mut rng);
            assert_eq!(
                problem.cost_cached(&c, &mut cache),
                problem.cost(&c),
                "large-n cached cost diverged at step {step}"
            );
            if step % 2 == 0 {
                c.undo(undo);
            }
        }
    }

    #[test]
    fn large_n_rects_sit_on_their_cells() {
        // Past 64 blocks the grid is 64 cells a side; every rect must start
        // at its cell times canvas / 64 and stay on the canvas.
        for n in [65, 200] {
            let circuit = chain_circuit(n);
            let problem = Problem::new(&circuit);
            let side = problem.grid_side() as f64;
            let mut rng = StdRng::seed_from_u64(n as u64);
            let fp = problem.realize(&Candidate::random(n, &mut rng));
            let (width, height) = (fp.canvas().width_um, fp.canvas().height_um);
            assert!(fp.num_placed() > 0);
            for p in fp.placed() {
                assert_eq!(p.rect.x0, p.cell.x as f64 * (width / side), "n = {n}");
                assert_eq!(p.rect.y0, p.cell.y as f64 * (height / side), "n = {n}");
                assert!(p.rect.x1 <= width * (1.0 + 1e-12), "n = {n}");
                assert!(p.rect.y1 <= height * (1.0 + 1e-12), "n = {n}");
            }
        }
    }
}
