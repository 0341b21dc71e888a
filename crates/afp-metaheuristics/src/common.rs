//! Shared machinery of the baseline floorplanners: candidate encoding,
//! cost function, perturbation moves and result reporting.

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::Rng;

use afp_circuit::{shapes::shape_sets, Circuit, Shape, ShapeSet, SHAPES_PER_BLOCK};
use afp_layout::metrics::MetricsScratch;
use afp_layout::{
    constraints, metrics, Canvas, Floorplan, PackScratch, RealizeCache, RewardWeights,
    SequencePair, SpacingConfig,
};

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
    /// Adjacent swaps are the moves the incremental cost pipeline digests
    /// cheapest: a swap at sequence positions `i < j` forces the FAST-SP
    /// pack to re-sweep `(n − i) + (j + 1)` positions and dirties every block
    /// whose packed coordinates shift, so pulling `j − i` down to 1 shrinks
    /// both the pack re-sweep and the realization dirty set (see
    /// `ARCHITECTURE.md`, *Layer 5*, and `docs/TUNING.md` for how to pick the
    /// bias). At `locality_bias = 0.0` this is exactly [`Candidate::perturb`]
    /// — including the RNG stream, so existing seeds reproduce old walks.
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

    /// Converts the candidate to a packed [`SequencePair`] over the given
    /// shapes (one [`ShapeSet`] per block, optionally congestion-inflated).
    pub fn to_sequence_pair(&self, shapes: &[Shape]) -> SequencePair {
        SequencePair {
            positive: self.positive.clone(),
            negative: self.negative.clone(),
            shapes: shapes.to_vec(),
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
/// The bias exists for the incremental cost pipeline's benefit: uniform swaps
/// produce an expected re-sweep of roughly the whole sequence per move (the
/// pack cache's replay savings cancel against its bookkeeping — see the
/// `incremental/pack_walk_*` benches), while adjacent swaps keep dirty sets
/// minimal. `docs/TUNING.md` discusses how the bias trades search reach
/// against per-move cost.
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
/// fixed grid), then the next multiple of 32 that gives at least `4·√n` cells
/// per side, capped at 128 (the incremental realization engine stores cells
/// in a byte). 200 blocks → 64, 500 → 96, 1000 → 128.
pub fn grid_side_for(n: usize) -> usize {
    if n <= 64 {
        return afp_layout::GRID_SIZE;
    }
    let wanted = 4.0 * (n as f64).sqrt();
    let side = 32 * (wanted / 32.0).ceil() as usize;
    side.clamp(64, 128)
}

/// The shared evaluation context: circuit, canvas, per-block shape sets,
/// optional congestion-aware spacing and the reward normalization.
#[derive(Debug)]
pub struct Problem {
    /// The circuit being floorplanned. Private because the effective-shape
    /// table is derived from its connectivity; read through
    /// [`Problem::circuit`].
    circuit: Circuit,
    /// The placement canvas.
    pub canvas: Canvas,
    /// Cells per side of the placement grid ([`grid_side_for`] the block
    /// count): every floorplan realized for this problem — `Problem::realize`,
    /// `CostCache`, each `EvalPool` worker — uses this discretization.
    pub grid_side: usize,
    /// Candidate shapes per block. Private so the precomputed
    /// effective-shape table cannot silently go stale; read through
    /// [`Problem::shape_sets`].
    shape_sets: Vec<ShapeSet>,
    /// Congestion-aware spacing applied to baseline shapes (paper §V-B), or
    /// `None` to pack the raw shapes. Mutate through
    /// [`Problem::set_spacing`] / [`Problem::without_spacing`], which keep
    /// the effective-shape table in sync.
    spacing: Option<SpacingConfig>,
    /// `HPWL_min` estimate used by the reward (paper Eq. 5).
    pub hpwl_min: f64,
    /// Reward weights (α, β, γ, violation penalty).
    pub weights: RewardWeights,
    /// Effective (spacing-inflated) candidate shape per `[block][shape
    /// index]`, precomputed once: the congestion margin depends only on the
    /// block's connectivity and the chosen shape, never on the candidate's
    /// sequences, so re-deriving it on every cost evaluation (a full
    /// `nets_of_block` scan per block) dominated the SA inner loop.
    effective_shapes: Vec<[Shape; SHAPES_PER_BLOCK]>,
}

impl Problem {
    /// Builds the evaluation context for a circuit with the paper's defaults
    /// (congestion-aware spacing enabled for baselines).
    pub fn new(circuit: &Circuit) -> Self {
        let mut problem = Problem {
            canvas: Canvas::for_circuit(circuit),
            grid_side: grid_side_for(circuit.num_blocks()),
            shape_sets: shape_sets(circuit),
            spacing: Some(SpacingConfig::default()),
            hpwl_min: metrics::hpwl_lower_bound(circuit),
            weights: RewardWeights::default(),
            circuit: circuit.clone(),
            effective_shapes: Vec::new(),
        };
        problem.rebuild_effective_shapes();
        problem
    }

    /// The circuit being floorplanned.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The candidate shapes per block.
    pub fn shape_sets(&self) -> &[ShapeSet] {
        &self.shape_sets
    }

    /// The congestion-aware spacing decoration, if enabled.
    pub fn spacing(&self) -> Option<&SpacingConfig> {
        self.spacing.as_ref()
    }

    /// Replaces the spacing decoration and refreshes the effective shapes.
    pub fn set_spacing(&mut self, spacing: Option<SpacingConfig>) {
        self.spacing = spacing;
        self.rebuild_effective_shapes();
    }

    /// Disables the congestion-aware spacing decoration.
    pub fn without_spacing(mut self) -> Self {
        self.set_spacing(None);
        self
    }

    /// Recomputes the effective-shape table from `shape_sets` + `spacing`.
    fn rebuild_effective_shapes(&mut self) {
        self.effective_shapes = self
            .circuit
            .blocks
            .iter()
            .zip(&self.shape_sets)
            .map(|(block, set)| {
                std::array::from_fn(|k| {
                    let shape = set.shape(k);
                    match &self.spacing {
                        Some(cfg) => cfg.inflate_shape(&self.circuit, block, &shape),
                        None => shape,
                    }
                })
            })
            .collect();
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.circuit.num_blocks()
    }

    /// The (possibly inflated) shape of each block under a candidate's shape
    /// choices.
    pub fn shapes_for(&self, candidate: &Candidate) -> Vec<Shape> {
        candidate
            .shape_choice
            .iter()
            .enumerate()
            .map(|(b, &s)| self.effective_shapes[b][s])
            .collect()
    }

    /// The shapes of [`Problem::shapes_for`], written into a caller-held
    /// buffer instead of a fresh allocation.
    pub fn shapes_for_into(&self, candidate: &Candidate, out: &mut Vec<Shape>) {
        out.clear();
        out.extend(
            candidate
                .shape_choice
                .iter()
                .enumerate()
                .map(|(b, &s)| self.effective_shapes[b][s]),
        );
    }

    /// Realizes a candidate as a floorplan on the shared canvas, at this
    /// problem's grid discretization.
    pub fn realize(&self, candidate: &Candidate) -> Floorplan {
        let shapes = self.shapes_for(candidate);
        let mut scratch = PackScratch::with_capacity(shapes.len());
        let mut fp = Floorplan::with_grid_side(self.canvas, self.grid_side);
        candidate.to_sequence_pair(&shapes).to_floorplan_into(
            &self.circuit,
            self.canvas,
            &mut scratch,
            &mut fp,
        );
        fp
    }

    /// Cost of a candidate (lower is better): the negative episode reward of
    /// its floorplan, so that cost minimization and reward maximization agree.
    pub fn cost(&self, candidate: &Candidate) -> f64 {
        let floorplan = self.realize(candidate);
        -metrics::episode_reward(&self.circuit, &floorplan, self.hpwl_min, &self.weights)
    }

    /// [`Problem::cost`] through a [`CostCache`]: identical values, but
    /// repeated evaluations reuse every buffer (pack scratch, shapes,
    /// floorplan, HPWL centers), run the incremental cost pipeline
    /// (dirty-set pack → dirty-block realization → full metrics rescan), and
    /// candidates seen recently — e.g. the pre-move state SA returns to after
    /// a rejected move, or a GA elite carried into the next generation — are
    /// answered from the memo without re-packing.
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
        self.shapes_for_into(candidate, &mut cache.shapes);
        if cache.use_incremental {
            // Incremental engine: diff the packed positions against the
            // previous evaluation's snap decisions and only re-snap dirty
            // blocks. Perturb/undo/crossover need no explicit hook — the
            // candidate's sequences and shapes flow into the diff.
            afp_layout::sequence_pair::realize_floorplan_incremental(
                &candidate.positive,
                &candidate.negative,
                &cache.shapes,
                &self.circuit,
                self.canvas,
                &mut cache.pack,
                &mut cache.floorplan,
                &mut cache.realize,
            );
        } else {
            afp_layout::sequence_pair::realize_floorplan(
                &candidate.positive,
                &candidate.negative,
                &cache.shapes,
                &self.circuit,
                self.canvas,
                &mut cache.pack,
                &mut cache.floorplan,
            );
            // The full path bypasses the realize cache; drop its episode so a
            // later incremental call cannot pair stale decisions with a
            // floorplan it did not produce.
            cache.realize.invalidate();
        }
        let cost = -metrics::episode_reward_with(
            &self.circuit,
            &cache.floorplan,
            self.hpwl_min,
            &self.weights,
            &mut cache.metrics,
        );
        cache.insert(key, cost);
        cost
    }
}

/// Number of direct-mapped memo slots in a [`CostCache`] (power of two).
const MEMO_SLOTS: usize = 1024;

/// Reusable evaluation state for the metaheuristic inner loops: the FAST-SP
/// pack scratch, shape / floorplan / metric buffers, the incremental
/// realization engine, and a small direct-mapped memo keyed on a candidate
/// fingerprint.
///
/// This is the optimizer-facing handle on the cost pipeline (see
/// `ARCHITECTURE.md`): by default [`Problem::cost_cached`] realizes through
/// the dirty-block engine, bit-identical to the full path, and scores the
/// floorplan with one full HPWL / violation rescan
/// ([`metrics::episode_reward_with`]). The `full-realize` feature (or
/// [`CostCache::set_incremental`] at runtime) selects the retained
/// from-scratch realization oracle instead.
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
/// // The cache exposes its counters for observability (see also
/// // `CostCache::realize_stats` for the realization engine's).
/// assert_eq!((cache.hits, cache.misses), (0, 1));
/// ```
#[derive(Debug)]
pub struct CostCache {
    pack: PackScratch,
    metrics: MetricsScratch,
    floorplan: Floorplan,
    /// Previous evaluation's snap decisions — the incremental realization
    /// engine's state (see `afp_layout::sequence_pair` module docs).
    realize: RealizeCache,
    /// Whether `cost_cached` realizes incrementally (the default) or through
    /// the always-full oracle path (`full-realize` feature default, or
    /// [`CostCache::set_incremental`]). Both produce bit-identical costs.
    use_incremental: bool,
    shapes: Vec<Shape>,
    /// `(fingerprint, cost)` slots; fingerprint 0 marks an empty slot.
    memo: Vec<(u64, f64)>,
    /// Evaluations answered from the memo.
    pub hits: u64,
    /// Evaluations that re-packed the candidate.
    pub misses: u64,
}

impl CostCache {
    /// Creates a cache sized for one problem. Realization is incremental
    /// unless the crate is built with the `full-realize` feature, which keeps
    /// the from-scratch path as the retained oracle.
    pub fn new(problem: &Problem) -> Self {
        let n = problem.num_blocks();
        CostCache {
            pack: PackScratch::with_capacity(n),
            metrics: MetricsScratch::new(),
            floorplan: Floorplan::with_grid_side(problem.canvas, problem.grid_side),
            realize: RealizeCache::new(),
            use_incremental: !cfg!(feature = "full-realize"),
            shapes: Vec::with_capacity(n),
            memo: vec![(0, 0.0); MEMO_SLOTS],
            hits: 0,
            misses: 0,
        }
    }

    /// Selects the realization path at runtime (used by the differential
    /// tests and the perf snapshot to compare both engines in one build).
    pub fn set_incremental(&mut self, incremental: bool) {
        self.use_incremental = incremental;
    }

    /// Drops the incremental engine's cached episode. Candidate mutations
    /// (perturb/undo/crossover) never require this — it exists for callers
    /// that mutate the problem or floorplan state out of band.
    pub fn invalidate_realize(&mut self) {
        self.realize.invalidate();
    }

    /// Counters of the incremental realization engine (hit rate, kept /
    /// replayed / searched blocks, full rebuilds).
    pub fn realize_stats(&self) -> &RealizeCache {
        &self.realize
    }

    fn lookup(&self, key: u64) -> Option<f64> {
        let (tag, cost) = self.memo[(key as usize) & (MEMO_SLOTS - 1)];
        (tag == key).then_some(cost)
    }

    fn insert(&mut self, key: u64, cost: f64) {
        self.memo[(key as usize) & (MEMO_SLOTS - 1)] = (key, cost);
    }
}

/// The parallel batched evaluation engine of the population optimizers: one
/// [`CostCache`] — with its full `PackCache`/`RealizeCache`/`MetricsScratch`
/// stack — per worker, and a generation-at-a-time `evaluate` that fans the
/// candidates out over the workers through a persistent
/// [`afp_par::WorkerPool`].
///
/// This is layer 5 of the incremental stack (see `ARCHITECTURE.md`): where
/// layers 1–4 make one evaluation cheap, the pool makes a *generation* of
/// them concurrent. Worker caches are built once, at pool construction, and
/// the scoped map lends each worker `&mut` access to its own cache per batch
/// — so caches stay warm across generations and no locking happens on the
/// evaluation path. The worker *threads* are equally persistent: they are
/// spawned at pool construction and parked between generations, so an
/// optimizer pays one wake-up per generation per active worker instead of a
/// thread spawn-and-join (the pre-PR-6 cost). Generations smaller than the
/// worker complement wake only as many threads as there are candidates;
/// [`pool_stats`](EvalPool::pool_stats) exposes the dispatch counters.
///
/// # Determinism contract
///
/// * **Bit-identical at one worker.** With `workers = 1`, `evaluate` *is* the
///   serial `cost_cached` loop over one cache — the byte-for-byte code path
///   GA/PSO/SP-RL ran before the pool existed.
/// * **Seed-stable at any worker count.** Costs come out in candidate order
///   regardless of which worker computed them, and each individual cost is
///   bit-identical to `Problem::cost` by the layer 1–4 bit-identity contract
///   — *no matter what state the evaluating worker's cache is in*. Worker
///   count therefore changes scheduling only, never results: the optimizers'
///   whole trajectories are reproducible for a seed at any `workers`.
///
/// Like [`CostCache`], a pool is keyed to one [`Problem`]; build one pool per
/// problem.
///
/// # Examples
///
/// ```
/// use afp_circuit::generators;
/// use afp_metaheuristics::{Candidate, EvalPool, Problem};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let circuit = generators::ota8();
/// let problem = Problem::new(&circuit);
/// let mut rng = StdRng::seed_from_u64(3);
/// let generation: Vec<Candidate> = (0..12)
///     .map(|_| Candidate::random(problem.num_blocks(), &mut rng))
///     .collect();
///
/// let mut pool = EvalPool::new(&problem, 4);
/// let costs = pool.evaluate(&problem, &generation);
///
/// // Costs are in candidate order and bit-identical to the serial path.
/// for (candidate, &cost) in generation.iter().zip(&costs) {
///     assert_eq!(cost, problem.cost(candidate));
/// }
/// assert_eq!(pool.misses(), 12);
/// ```
#[derive(Debug)]
pub struct EvalPool {
    /// One warm evaluation stack per worker; `caches.len()` is the worker
    /// count handed to the scoped map.
    caches: Vec<CostCache>,
    /// The parked worker threads servicing `evaluate` batches. Sized to
    /// `caches.len()`, spawned once here, alive until the pool drops — a
    /// 1-worker pool spawns no thread at all.
    pool: afp_par::WorkerPool,
}

impl EvalPool {
    /// Creates a pool with `workers` worker caches (and `workers − 1` parked
    /// worker threads) for one problem. `workers = 0` means one per
    /// available hardware thread; any value is clamped to at least 1.
    pub fn new(problem: &Problem, workers: usize) -> Self {
        let pool = afp_par::WorkerPool::new(workers);
        EvalPool {
            caches: (0..pool.workers())
                .map(|_| CostCache::new(problem))
                .collect(),
            pool,
        }
    }

    /// Number of workers (and worker caches) the pool owns.
    pub fn workers(&self) -> usize {
        self.caches.len()
    }

    /// Evaluates a generation of candidates, returning their costs in
    /// candidate order. Values are bit-identical to [`Problem::cost`] for
    /// every candidate at every worker count (see the determinism contract
    /// above); with one worker no thread is woken and the batch runs inline.
    pub fn evaluate(&mut self, problem: &Problem, candidates: &[Candidate]) -> Vec<f64> {
        self.pool
            .map_scoped(candidates, &mut self.caches, |cache, candidate| {
                problem.cost_cached(candidate, cache)
            })
    }

    /// Evaluates a single candidate through worker 0's cache — the pool's
    /// serial entry point for recurrences (an SA chain, SP-RL's per-episode
    /// policy update) that only expose one candidate at a time.
    pub fn evaluate_one(&mut self, problem: &Problem, candidate: &Candidate) -> f64 {
        problem.cost_cached(candidate, &mut self.caches[0])
    }

    /// Total memo hits across all worker caches.
    pub fn hits(&self) -> u64 {
        self.caches.iter().map(|c| c.hits).sum()
    }

    /// Total memo misses (full evaluations) across all worker caches.
    pub fn misses(&self) -> u64 {
        self.caches.iter().map(|c| c.misses).sum()
    }

    /// Dispatch counters of the underlying [`afp_par::WorkerPool`]: batches
    /// served, inline (single-worker) batches, thread wake-ups, and batches
    /// clamped below the worker complement.
    pub fn pool_stats(&self) -> afp_par::PoolStats {
        self.pool.stats()
    }

    /// Selects the realization path on every worker cache (see
    /// [`CostCache::set_incremental`]).
    pub fn set_incremental(&mut self, incremental: bool) {
        for cache in &mut self.caches {
            cache.set_incremental(incremental);
        }
    }}

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
        let reward = metrics::episode_reward(
            &problem.circuit,
            &floorplan,
            problem.hpwl_min,
            &problem.weights,
        );
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

/// Whether a candidate realizes to a fully placed, violation-free floorplan
/// — the predicate `stop_on_first_feasible` races and
/// [`select_winner`](crate::select_winner) agree on.
pub fn candidate_is_feasible(problem: &Problem, candidate: &Candidate) -> bool {
    let floorplan = problem.realize(candidate);
    floorplan.num_placed() == problem.num_blocks()
        && !constraints::has_violations(problem.circuit(), &floorplan)
}

/// The control check of the generation-grained optimizers (GA once per
/// generation, SP-RL once per episode): budget / cancel / deadline first,
/// then — in race mode — the first-feasible predicate on the best candidate
/// so far, which also raises the shared cancel token so sibling racers stop.
/// A boundary is already many evaluations wide, so no stride gating applies.
pub(crate) fn boundary_stop(
    problem: &Problem,
    control: &RunControl,
    best: &Candidate,
    evaluations: usize,
) -> Option<StopReason> {
    if let Some(reason) = control.poll_now(evaluations as u64) {
        return Some(reason);
    }
    if control.stop_on_first_feasible() && candidate_is_feasible(problem, best) {
        control.cancel();
        return Some(StopReason::FirstFeasible);
    }
    None
}

/// One slot of a multistart / portfolio race: what became of the chain that
/// ran (or should have run) there.
///
/// Races isolate failure per slot — a panicking chain is caught, recorded
/// here and its worker's [`CostCache`] rebuilt, instead of unwinding the
/// whole race (see the "run control & failure domains" section of
/// `ARCHITECTURE.md`).
#[derive(Debug, Clone)]
pub enum ChainOutcome {
    /// The chain ran to a result (complete or control-interrupted — check
    /// [`BaselineResult::stop`]).
    Finished(BaselineResult),
    /// The chain panicked; the payload's message is retained. The worker's
    /// cache was treated as poisoned and rebuilt, so later chains on the
    /// same worker are unaffected.
    Panicked(String),
    /// The chain never started: cancellation (deadline, explicit cancel, or
    /// a sibling's first-feasible win) tripped at the pool's chunk-claim
    /// boundary before this slot was claimed.
    Skipped,
}

impl ChainOutcome {
    /// The result, if the chain finished.
    pub fn result(&self) -> Option<&BaselineResult> {
        match self {
            ChainOutcome::Finished(result) => Some(result),
            _ => None,
        }
    }

    /// Whether the chain panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, ChainOutcome::Panicked(_))
    }

    /// The panic message, if the chain panicked.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            ChainOutcome::Panicked(message) => Some(message),
            _ => None,
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
///
/// Public since PR 8: the serve-layer job engine isolates per-job panics with
/// the same `catch_unwind` + [`ChainOutcome`] machinery the chain races use,
/// and records the extracted message in its `Failed` job state.
pub fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
    fn spacing_increases_cost() {
        let circuit = generators::ota8();
        let with = Problem::new(&circuit);
        let without = Problem::new(&circuit).without_spacing();
        let c = Candidate::identity(with.num_blocks(), with.shape_sets());
        // Inflated shapes should not make the floorplan cheaper.
        assert!(with.cost(&c) >= without.cost(&c) * 0.99);
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
    fn eval_pool_matches_serial_loop_at_every_worker_count() {
        let circuit = generators::bias9();
        let problem = Problem::new(&circuit);
        let mut rng = StdRng::seed_from_u64(0xE7A1);
        let mut generation: Vec<Candidate> = (0..17)
            .map(|_| Candidate::random(problem.num_blocks(), &mut rng))
            .collect();
        let mut cache = CostCache::new(&problem);
        for workers in [1usize, 2, 3, 4] {
            let mut pool = EvalPool::new(&problem, workers);
            assert_eq!(pool.workers(), workers);
            // Two generations per pool so the second batch runs on warm
            // per-worker caches — the steady state the optimizers live in.
            for _ in 0..2 {
                let serial: Vec<f64> = generation
                    .iter()
                    .map(|c| problem.cost_cached(c, &mut cache))
                    .collect();
                let batch = pool.evaluate(&problem, &generation);
                assert_eq!(batch, serial, "diverged at {workers} workers");
                for c in &mut generation {
                    let _ = c.perturb(&mut rng);
                }
            }
            assert!(pool.misses() > 0);
        }
    }

    #[test]
    fn eval_pool_auto_worker_count_is_positive() {
        let circuit = generators::ota3();
        let problem = Problem::new(&circuit);
        let pool = EvalPool::new(&problem, 0);
        assert!(pool.workers() >= 1);
    }

    #[test]
    fn eval_pool_evaluate_one_matches_cost() {
        let circuit = generators::ota5();
        let problem = Problem::new(&circuit);
        let mut pool = EvalPool::new(&problem, 2);
        let c = Candidate::identity(problem.num_blocks(), problem.shape_sets());
        assert_eq!(pool.evaluate_one(&problem, &c), problem.cost(&c));
        // The repeat is a memo hit on worker 0.
        assert_eq!(pool.evaluate_one(&problem, &c), problem.cost(&c));
        assert!(pool.hits() >= 1);
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
    fn shapes_for_into_matches_shapes_for() {
        let circuit = generators::bias9();
        let problem = Problem::new(&circuit);
        let mut rng = StdRng::seed_from_u64(5);
        let c = Candidate::random(problem.num_blocks(), &mut rng);
        let mut buffer = Vec::new();
        problem.shapes_for_into(&c, &mut buffer);
        assert_eq!(buffer, problem.shapes_for(&c));
    }

    #[test]
    fn incremental_cost_matches_full_along_sa_walk() {
        // The guarantee SA/GA/PSO rely on: along a realistic perturb/undo
        // walk, dirty-block realization returns bit-identical costs to the
        // always-full oracle path, while actually hitting.
        let circuit = generators::bias19();
        let problem = Problem::new(&circuit);
        let mut incremental = CostCache::new(&problem);
        incremental.set_incremental(true);
        let mut full = CostCache::new(&problem);
        full.set_incremental(false);
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let mut c = Candidate::random(problem.num_blocks(), &mut rng);
        for step in 0..600 {
            let undo = c.perturb(&mut rng);
            let a = problem.cost_cached(&c, &mut incremental);
            let b = problem.cost_cached(&c, &mut full);
            assert_eq!(a, b, "cost diverged at step {step}");
            assert_eq!(a, problem.cost(&c), "cached cost diverged at step {step}");
            // Reject about half the moves, as SA would.
            if step % 2 == 0 {
                c.undo(undo);
            }
        }
        let stats = incremental.realize_stats();
        assert!(stats.hit_rate() > 0.0, "incremental engine never hit");
        assert!(
            stats.pack_stats().replay_rate() > 0.0,
            "incremental pack never replayed"
        );
        assert_eq!(full.realize_stats().episodes, 0, "oracle path must bypass the engine");
    }

    #[test]
    fn realize_path_can_be_toggled_mid_run() {
        // Switching between the incremental and full realization paths on a
        // warm cache must stay bit-identical: the full path bypasses the
        // realize cache, so `cost_cached` invalidates its episode, and the
        // next incremental call must rebuild rather than pair stale snap
        // decisions with a floorplan it did not produce. Run on circuits
        // that mix feasible and penalized episodes — on a penalty-only walk
        // both paths return the constant penalty and a stale-state bug would
        // be invisible.
        for circuit in [generators::ota3(), generators::ota8(), generators::bias19()] {
            let problem = Problem::new(&circuit);
            let mut cache = CostCache::new(&problem);
            let mut rng = StdRng::seed_from_u64(0x706);
            let mut c = Candidate::random(problem.num_blocks(), &mut rng);
            let mut feasible = 0u32;
            let mut full_path_ran = false;
            for step in 0..200 {
                let _ = c.perturb(&mut rng);
                let incremental = step % 3 != 2;
                cache.set_incremental(incremental);
                let (misses, rebuilds) = (cache.misses, cache.realize_stats().full_rebuilds);
                let cost = problem.cost_cached(&c, &mut cache);
                assert_eq!(
                    cost,
                    problem.cost(&c),
                    "toggled cost diverged at step {step} on {}",
                    circuit.name
                );
                if incremental && full_path_ran && cache.misses > misses {
                    // First incremental evaluation after a full-path one:
                    // the invalidated cache must have rebuilt from scratch.
                    assert_eq!(
                        cache.realize_stats().full_rebuilds,
                        rebuilds + 1,
                        "re-entry at step {step} on {} reused a stale episode",
                        circuit.name
                    );
                    full_path_ran = false;
                }
                if !incremental && cache.misses > misses {
                    full_path_ran = true;
                }
                feasible += (cost < 49.0) as u32;
            }
            if circuit.num_blocks() <= 5 {
                assert!(feasible > 0, "walk never feasible: the toggle test is vacuous");
            }
        }
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
        // larger circuits get the next 32-multiple ≥ 4·√n, capped at 128.
        for n in [1, 19, 64] {
            assert_eq!(grid_side_for(n), afp_layout::GRID_SIZE, "n = {n}");
        }
        assert_eq!(grid_side_for(65), 64);
        assert_eq!(grid_side_for(200), 64);
        assert_eq!(grid_side_for(256), 64);
        assert_eq!(grid_side_for(257), 96);
        assert_eq!(grid_side_for(500), 96);
        assert_eq!(grid_side_for(1000), 128);
        assert_eq!(grid_side_for(10_000), 128, "cap holds");
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
        // 200 blocks: the incremental realize pipeline must stay active (and
        // bit-identical to the uncached cost) past every old 64-element
        // ceiling, serially and through the pool.
        let circuit = chain_circuit(200);
        let problem = Problem::new(&circuit);
        assert_eq!(problem.grid_side, 64, "200 blocks realize on a 64×64 grid");
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
        // Under the `full-realize` oracle feature every realization is
        // deliberately full, so incremental episodes legitimately stay 0.
        if cfg!(not(feature = "full-realize")) {
            assert!(cache.realize_stats().episodes > 0);
        }

        let mut pool = EvalPool::new(&problem, 2);
        let generation: Vec<Candidate> = (0..6)
            .map(|_| Candidate::random(problem.num_blocks(), &mut rng))
            .collect();
        let costs = pool.evaluate(&problem, &generation);
        for (candidate, &cost) in generation.iter().zip(&costs) {
            assert_eq!(cost, problem.cost(candidate), "pool diverged at 200 blocks");
        }
    }
}
