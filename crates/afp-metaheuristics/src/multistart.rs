//! Multi-start SA and the heterogeneous optimizer portfolio — the first
//! consumers of the persistent parked [`afp_par::WorkerPool`].
//!
//! Both entry points run *whole optimizer runs* as the unit of parallel work
//! (where [`EvalPool`](crate::EvalPool) parallelizes within a generation):
//! [`multistart_sa`] races N independent SA chains whose seeds are derived
//! from one base seed, and [`Portfolio`] races heterogeneous members — SA at
//! different locality biases and cooling schedules, GA, PSO — on the same
//! problem. Each pool worker keeps one warm [`CostCache`] across the chains
//! it serves, so a worker's second chain starts with hot realization and
//! metrics scratch.
//!
//! # Determinism
//!
//! The worker count is a scheduling decision, never a results decision:
//!
//! * Chain `i` always runs with [`chain_seed`]`(base_seed, i)` and every
//!   chain is an independent `simulated_annealing_on` run — bit-identical
//!   to running the same config serially, because
//!   `cost_cached` returns the same bits regardless of cache state (the
//!   layer 1–3 contract) and chains share no mutable state.
//! * The winner is chosen by [`select_winner`]: feasible results beat
//!   infeasible ones, then strictly higher reward wins, and ties resolve to
//!   the lowest index — a pure function of the (ordered) results, so the
//!   same winner falls out at any worker count.
//!
//! The differential proptest `multistart_sa_matches_serial_replay` holds the
//! first property against N sequential replays; `portfolio_*` tests hold the
//! second.
//!
//! # Run control and failure domains
//!
//! [`multistart_sa_on`] threads a [`RunControl`] through every chain (and
//! [`Portfolio::run_controlled`] through every member): each chain polls the
//! shared deadline / budget / cancel token at its own stride, the pool
//! observes the control's cancel token at chunk-claim boundaries (chains
//! that never started come back as [`ChainOutcome::Skipped`]), and — with
//! [`RunControl::with_stop_on_first_feasible`] — the first chain to reach a
//! feasible floorplan raises the token so the rest of the race stands down.
//! Race mode is off by default; an uninterrupted controlled run is
//! bit-identical to an uncontrolled one.
//!
//! Each chain is additionally its own failure domain: a panicking chain is
//! caught per slot and recorded as [`ChainOutcome::Panicked`] instead of
//! unwinding the whole race, its worker's [`CostCache`] is rebuilt from
//! scratch (panics can leave scratch state mid-update), and the winner is
//! reduced deterministically over the survivors. The `fault-inject` feature
//! adds [`multistart_sa_injected`], which drives exactly this machinery with
//! a seeded [`FaultPlan`](afp_par::fault::FaultPlan) — the robustness
//! proptests' entry point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use afp_circuit::Circuit;
use afp_layout::constraints;
use afp_par::{resolve_workers, WorkerPool};

use crate::common::{
    panic_payload_message, BaselineResult, ChainOutcome, CostCache, Problem, RunControl, StopReason,
};
use crate::sa::{simulated_annealing_on, SaConfig};
use crate::{Baseline, GaConfig, PsoConfig};

/// Derives the seed of chain `chain` from a base seed: a splitmix64 finalizer
/// over `seed + chain · golden-ratio`, so consecutive chains get
/// well-separated RNG streams while chain 0 of two different base seeds never
/// collides with each other's chain 1.
///
/// This is the *only* seed rule multi-start uses — tests replay individual
/// chains by calling it directly.
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    let mut z = seed.wrapping_add((chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of [`multistart_sa`]: one base [`SaConfig`] cloned per chain
/// (with the seed rederived per chain), the number of chains, and the worker
/// count of the pool the chains run on.
#[derive(Debug, Clone, PartialEq)]
pub struct MultistartSaConfig {
    /// The per-chain SA configuration; `base.seed` is the *base* seed that
    /// [`chain_seed`] derives each chain's actual seed from.
    pub base: SaConfig,
    /// Number of independent chains (must be at least 1).
    pub chains: usize,
    /// Pool worker count: `0` means one per available hardware thread, and
    /// the effective count is clamped to `chains`. `1` runs the chains
    /// sequentially on the calling thread with no thread spawned.
    pub workers: usize,
}

impl MultistartSaConfig {
    /// A configuration small enough for unit tests.
    pub fn small() -> Self {
        MultistartSaConfig {
            base: SaConfig::small(),
            chains: 4,
            workers: 0,
        }
    }

    /// Table-I-scale chains with restarts on: each chain reheats twice, the
    /// multi-start layer on top covers the cross-basin diversity that
    /// restarts alone (which always resume from the incumbent best) cannot.
    pub fn table1() -> Self {
        MultistartSaConfig {
            base: SaConfig {
                restarts: 2,
                ..SaConfig::table1()
            },
            chains: 4,
            workers: 0,
        }
    }
}

/// The outcome of a [`multistart_sa`] run: every chain's outcome (in chain
/// order — chain `i` ran seed [`chain_seed`]`(base, i)`) plus the winner
/// index under [`select_winner`], reduced over the surviving chains.
#[derive(Debug, Clone)]
pub struct MultistartResult {
    /// Per-chain outcomes, indexed by chain number. A chain that ran to its
    /// own stop is [`ChainOutcome::Finished`] (inspect its
    /// [`BaselineResult::stop`] for *why* it stopped); a chain whose run
    /// panicked is [`ChainOutcome::Panicked`]; a chain cancelled before it
    /// ever started is [`ChainOutcome::Skipped`].
    pub chains: Vec<ChainOutcome>,
    /// Index into [`chains`](MultistartResult::chains) of the winning chain
    /// under [`select_winner`]'s rule, reduced over the finished chains
    /// only. `None` when no chain finished (all panicked or skipped).
    pub winner: Option<usize>,
    /// Wall-clock time of the whole multi-start run in seconds.
    pub runtime_s: f64,
    /// Why the run as a whole ended — the aggregate of the per-chain stop
    /// reasons: [`StopReason::FirstFeasible`] if any chain won the race,
    /// otherwise the first chain-reported interrupt in chain order,
    /// otherwise [`StopReason::Cancelled`] if any chain was skipped,
    /// otherwise [`StopReason::Completed`].
    pub stop: StopReason,
}

impl MultistartResult {
    /// The winning chain's result, if any chain finished.
    pub fn best(&self) -> Option<&BaselineResult> {
        self.winner.and_then(|w| self.chains[w].result())
    }
}

/// Runs `config.chains` independent SA chains on a circuit and returns every
/// chain's outcome plus the deterministic winner. See [`multistart_sa_on`].
pub fn multistart_sa(circuit: &Circuit, config: &MultistartSaConfig) -> MultistartResult {
    multistart_sa_on(&Problem::new(circuit), config, &RunControl::unbounded())
}

/// [`multistart_sa`] on an existing [`Problem`] under a [`RunControl`]: races
/// the chains over a persistent [`afp_par::WorkerPool`] with one warm
/// [`CostCache`] per worker.
///
/// Chain `i` is bit-identical to a serial
/// [`simulated_annealing_on`](crate::simulated_annealing_on) run of the base
/// config with seed [`chain_seed`]`(base.seed, i)` under the same control —
/// at any worker count. Only `runtime_s` (wall-clock) varies run to run.
/// Every chain polls the shared control, the pool observes its cancel token
/// at chunk-claim boundaries, and a panicking chain is isolated into
/// [`ChainOutcome::Panicked`] with its worker's cache rebuilt. An
/// uninterrupted run (no deadline hit, no cancellation, race mode off) is
/// bit-identical to one under [`RunControl::unbounded`].
///
/// # Panics
///
/// Panics if `config.chains` is zero.
pub fn multistart_sa_on(
    problem: &Problem,
    config: &MultistartSaConfig,
    control: &RunControl,
) -> MultistartResult {
    multistart_sa_core(problem, config, control, &|_| {})
}

/// [`multistart_sa_on`] with a deterministic [`FaultPlan`] injecting a panic
/// or a stall at the start of each planned chain — the entry point of the
/// robustness proptests. Injected panics exercise exactly the production
/// isolation path (per-slot catch, cache rebuild, surviving winner); stalls
/// only perturb scheduling, which results must not depend on.
///
/// [`FaultPlan`]: afp_par::fault::FaultPlan
///
/// # Panics
///
/// Panics if `config.chains` is zero.
#[cfg(feature = "fault-inject")]
pub fn multistart_sa_injected(
    problem: &Problem,
    config: &MultistartSaConfig,
    control: &RunControl,
    plan: &afp_par::fault::FaultPlan,
) -> MultistartResult {
    multistart_sa_core(problem, config, control, &|chain| plan.inject(chain as u64))
}

/// The shared chain-racing core: `inject` runs at the top of each chain's
/// closure (a no-op in production, a [`FaultPlan`] probe under
/// `fault-inject`) *inside* the per-slot panic catch, so injected panics
/// take the same isolation path real ones would.
fn multistart_sa_core<F>(
    problem: &Problem,
    config: &MultistartSaConfig,
    control: &RunControl,
    inject: &F,
) -> MultistartResult
where
    F: Fn(usize) + Sync,
{
    assert!(config.chains > 0, "multistart_sa needs at least one chain");
    let started = Instant::now();
    let workers = resolve_workers(config.workers).min(config.chains);
    let mut pool = WorkerPool::new(workers);
    // One warm cache per worker; each chain's result is bit-identical
    // whichever worker runs it — only cache warmth and wall-clock vary.
    let mut caches: Vec<CostCache> = (0..workers).map(|_| CostCache::new(problem)).collect();
    let chain_ids: Vec<usize> = (0..config.chains).collect();
    let slots = pool.map_scoped_cancellable(
        &chain_ids,
        &mut caches,
        control.cancel_token(),
        |cache, &chain| {
            let cfg = SaConfig {
                seed: chain_seed(config.base.seed, chain),
                ..config.base.clone()
            };
            // Each chain is its own failure domain: catch its panic here (the
            // pool would otherwise re-raise it after the batch drains) and
            // rebuild this worker's cache, which the unwind may have left
            // mid-update.
            match catch_unwind(AssertUnwindSafe(|| {
                inject(chain);
                simulated_annealing_on(problem, &cfg, None, cache, control).0
            })) {
                Ok(result) => ChainOutcome::Finished(result),
                Err(payload) => {
                    *cache = CostCache::new(problem);
                    ChainOutcome::Panicked(panic_payload_message(payload))
                }
            }
        },
    );
    let chains: Vec<ChainOutcome> = slots
        .into_iter()
        .map(|slot| slot.unwrap_or(ChainOutcome::Skipped))
        .collect();
    let winner = select_surviving_winner(problem.circuit(), &chains);
    let stop = aggregate_stop(&chains);
    MultistartResult {
        chains,
        winner,
        runtime_s: started.elapsed().as_secs_f64(),
        stop,
    }
}

/// The deterministic best-of reduction shared by [`multistart_sa`] and
/// [`Portfolio::run`]: feasible results (every block placed, no constraint
/// violations per [`afp_layout::constraints::has_violations`]) beat
/// infeasible ones; within a feasibility class, strictly higher reward wins;
/// ties keep the lowest index. A pure function of the ordered results — the
/// same winner falls out at any worker count.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn select_winner(circuit: &Circuit, results: &[BaselineResult]) -> usize {
    assert!(!results.is_empty(), "select_winner needs at least one result");
    let mut winner = 0;
    let mut best_key = (false, f64::NEG_INFINITY);
    for (index, result) in results.iter().enumerate() {
        let key = winner_key(circuit, result);
        // Strict comparisons throughout: equal keys keep the earlier index.
        if better_key(key, best_key) {
            winner = index;
            best_key = key;
        }
    }
    winner
}

/// [`select_winner`] over chain outcomes: panicked and skipped slots are
/// passed over, the reduction runs on the finished results only (same rule:
/// feasible > reward > lowest index). `None` when nothing finished.
pub fn select_surviving_winner(circuit: &Circuit, outcomes: &[ChainOutcome]) -> Option<usize> {
    let mut winner = None;
    let mut best_key = (false, f64::NEG_INFINITY);
    for (index, outcome) in outcomes.iter().enumerate() {
        let Some(result) = outcome.result() else { continue };
        let key = winner_key(circuit, result);
        if winner.is_none() || better_key(key, best_key) {
            winner = Some(index);
            best_key = key;
        }
    }
    winner
}

/// The (feasible, reward) ordering key of [`select_winner`].
fn winner_key(circuit: &Circuit, result: &BaselineResult) -> (bool, f64) {
    let feasible = result.floorplan.num_placed() == circuit.num_blocks()
        && !constraints::has_violations(circuit, &result.floorplan);
    (feasible, result.reward)
}

/// Strictly-better comparison on [`winner_key`]s (equal keys keep the
/// incumbent, i.e. the earlier index).
fn better_key(key: (bool, f64), best: (bool, f64)) -> bool {
    (key.0 && !best.0) || (key.0 == best.0 && key.1 > best.1)
}

/// The aggregate stop reason of a chain race, documented on
/// [`MultistartResult::stop`]: first-feasible beats everything, then the
/// first chain-reported interrupt in chain order, then `Cancelled` if any
/// chain was skipped (skips only happen when the token was raised), then
/// `Completed`. Panicked chains contribute nothing — a panic is an outcome,
/// not a stop reason.
fn aggregate_stop(outcomes: &[ChainOutcome]) -> StopReason {
    let mut reported: Option<StopReason> = None;
    let mut skipped = false;
    for outcome in outcomes {
        match outcome {
            ChainOutcome::Finished(result) => {
                if result.stop == StopReason::FirstFeasible {
                    return StopReason::FirstFeasible;
                }
                if result.stop.is_interrupted() && reported.is_none() {
                    reported = Some(result.stop);
                }
            }
            ChainOutcome::Skipped => skipped = true,
            ChainOutcome::Panicked(_) => {}
        }
    }
    match reported {
        Some(reason) => reason,
        None if skipped => StopReason::Cancelled,
        None => StopReason::Completed,
    }
}

/// A heterogeneous optimizer race: every member runs on the same circuit
/// (with member seeds derived by [`chain_seed`] from the portfolio seed) and
/// [`select_winner`] picks the result — the portfolio analogue of racing
/// many candidate solves against one shared engine.
///
/// Members run as whole, independent optimizer runs over a persistent
/// [`afp_par::WorkerPool`]. Population members (GA/PSO) are forced to `workers: 1`
/// for the duration of the race: they already occupy one portfolio worker
/// each, and a nested per-member pool would oversubscribe the machine
/// without changing any result (worker counts never change results).
///
/// [`Portfolio::run_controlled`] adds the same run-control and
/// failure-domain semantics as [`multistart_sa_on`]:
/// shared deadline/budget/cancel across members, per-member panic isolation,
/// and the optional first-feasible race mode.
///
/// # Examples
///
/// ```
/// use afp_circuit::generators;
/// use afp_metaheuristics::Portfolio;
///
/// let circuit = generators::ota5();
/// let portfolio = Portfolio::small_race();
/// let outcome = portfolio.run(&circuit);
/// assert_eq!(outcome.members.len(), portfolio.members.len());
/// assert!(outcome.best().expect("all members finished").reward.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Portfolio {
    /// The racing members; member `i` runs with seed
    /// [`chain_seed`]`(seed, i)`.
    pub members: Vec<Baseline>,
    /// Pool worker count: `0` means one per available hardware thread,
    /// clamped to the member count; `1` runs members sequentially.
    pub workers: usize,
    /// Base seed the member seeds are derived from.
    pub seed: u64,
}

impl Portfolio {
    /// A small race for unit tests: three SA chains at spread-out locality
    /// biases plus GA and PSO, all at unit-test scale.
    pub fn small_race() -> Self {
        Portfolio {
            members: vec![
                Baseline::Sa(SaConfig::small()),
                Baseline::Sa(SaConfig {
                    locality_bias: 0.9,
                    ..SaConfig::small()
                }),
                Baseline::Sa(SaConfig {
                    cooling: 0.99,
                    restarts: 2,
                    ..SaConfig::small()
                }),
                Baseline::Ga(GaConfig::small()),
                Baseline::Pso(PsoConfig::small()),
            ],
            workers: 0,
            seed: 0,
        }
    }

    /// The Table-I-scale race: SA at locality biases 0.0 / 0.5 / 0.9 (the
    /// 0.5 member with restarts, the 0.9 member with slower cooling — the
    /// spread `docs/TUNING.md` motivates) against GA and PSO.
    pub fn table1_race() -> Self {
        Portfolio {
            members: vec![
                Baseline::Sa(SaConfig {
                    locality_bias: 0.0,
                    ..SaConfig::table1()
                }),
                Baseline::Sa(SaConfig {
                    restarts: 2,
                    ..SaConfig::table1()
                }),
                Baseline::Sa(SaConfig {
                    locality_bias: 0.9,
                    cooling: 0.99,
                    ..SaConfig::table1()
                }),
                Baseline::Ga(GaConfig::table1()),
                Baseline::Pso(PsoConfig::table1()),
            ],
            workers: 0,
            seed: 0,
        }
    }

    /// Races the members on a circuit: member `i` runs with seed
    /// [`chain_seed`]`(self.seed, i)`, results come back in member order,
    /// and [`select_winner`] picks the winner — all bit-identical at any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if the portfolio has no members.
    pub fn run(&self, circuit: &Circuit) -> PortfolioResult {
        self.run_controlled(circuit, &RunControl::unbounded())
    }

    /// [`Portfolio::run`] under a [`RunControl`]: members poll the shared
    /// control, the pool observes its cancel token before dispatching each
    /// member (members cancelled before starting come back as
    /// [`ChainOutcome::Skipped`]), and a panicking member is isolated into
    /// [`ChainOutcome::Panicked`] instead of unwinding the race. An
    /// uninterrupted run is bit-identical to [`Portfolio::run`].
    ///
    /// # Panics
    ///
    /// Panics if the portfolio has no members.
    pub fn run_controlled(&self, circuit: &Circuit, control: &RunControl) -> PortfolioResult {
        assert!(!self.members.is_empty(), "portfolio needs at least one member");
        let started = Instant::now();
        // Nested pools would oversubscribe: each member already has a
        // portfolio worker, so population members evaluate serially inside
        // it. Results are unaffected (the layer-5 contract).
        let members: Vec<Baseline> = self
            .members
            .iter()
            .map(|member| match member {
                Baseline::Ga(cfg) => Baseline::Ga(GaConfig {
                    workers: 1,
                    ..cfg.clone()
                }),
                Baseline::Pso(cfg) => Baseline::Pso(PsoConfig {
                    workers: 1,
                    ..cfg.clone()
                }),
                other => other.clone(),
            })
            .collect();
        let workers = resolve_workers(self.workers).min(members.len());
        let mut pool = WorkerPool::new(workers);
        // Members build their own evaluation stacks (each `Baseline::run` is
        // a self-contained optimizer run), so the per-worker state is unit.
        let mut slots = vec![(); workers];
        let indexed: Vec<(usize, Baseline)> = members.into_iter().enumerate().collect();
        let raw = pool.map_scoped_cancellable(
            &indexed,
            &mut slots,
            control.cancel_token(),
            |_, (index, member)| {
                // Same failure-domain rule as multi-start chains; no cache to
                // rebuild here, members own their whole evaluation stack.
                match catch_unwind(AssertUnwindSafe(|| {
                    let seed = chain_seed(self.seed, *index);
                    member.run_controlled(circuit, seed, control, None).0
                })) {
                    Ok(result) => ChainOutcome::Finished(result),
                    Err(payload) => ChainOutcome::Panicked(panic_payload_message(payload)),
                }
            },
        );
        let results: Vec<ChainOutcome> = raw
            .into_iter()
            .map(|slot| slot.unwrap_or(ChainOutcome::Skipped))
            .collect();
        let winner = select_surviving_winner(circuit, &results);
        let stop = aggregate_stop(&results);
        PortfolioResult {
            members: results,
            winner,
            runtime_s: started.elapsed().as_secs_f64(),
            stop,
        }
    }
}

/// The outcome of a [`Portfolio::run`]: every member's outcome in member
/// order plus the winner index under [`select_winner`], reduced over the
/// surviving members.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// Per-member outcomes, indexed like [`Portfolio::members`].
    pub members: Vec<ChainOutcome>,
    /// Index into [`members`](PortfolioResult::members) of the winner among
    /// the finished members; `None` when no member finished.
    pub winner: Option<usize>,
    /// Wall-clock time of the whole race in seconds.
    pub runtime_s: f64,
    /// Aggregate stop reason of the race (same rule as
    /// [`MultistartResult::stop`]).
    pub stop: StopReason,
}

impl PortfolioResult {
    /// The winning member's result, if any member finished.
    pub fn best(&self) -> Option<&BaselineResult> {
        self.winner.and_then(|w| self.members[w].result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;
    use afp_par::CancelToken;

    fn finished(result: &MultistartResult, chain: usize) -> &BaselineResult {
        result.chains[chain]
            .result()
            .unwrap_or_else(|| panic!("chain {chain} did not finish"))
    }

    #[test]
    fn chain_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..16).map(|i| chain_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "chain seeds collided");
        assert_eq!(seeds, (0..16).map(|i| chain_seed(7, i)).collect::<Vec<_>>());
    }

    #[test]
    fn multistart_is_bit_identical_at_any_worker_count() {
        let circuit = generators::ota8();
        let base_cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 150,
                seed: 11,
                ..SaConfig::small()
            },
            chains: 4,
            workers: 1,
        };
        let serial = multistart_sa(&circuit, &base_cfg);
        assert_eq!(serial.stop, StopReason::Completed);
        for workers in [2usize, 3, 4, 8] {
            let parallel = multistart_sa(
                &circuit,
                &MultistartSaConfig {
                    workers,
                    ..base_cfg.clone()
                },
            );
            assert_eq!(parallel.winner, serial.winner, "{workers} workers");
            for chain in 0..base_cfg.chains {
                let p = finished(&parallel, chain);
                let s = finished(&serial, chain);
                assert_eq!(p.reward, s.reward, "chain {chain} at {workers} workers");
                assert_eq!(p.floorplan, s.floorplan, "chain {chain} at {workers} workers");
                assert_eq!(p.evaluations, s.evaluations, "chain {chain} at {workers} workers");
            }
        }
    }

    #[test]
    fn multistart_chains_replay_individually() {
        // Chain i of a multi-start run is exactly a serial SA run with the
        // derived seed — the contract the seed rule exists for.
        let circuit = generators::ota5();
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 120,
                seed: 3,
                ..SaConfig::small()
            },
            chains: 3,
            workers: 2,
        };
        let result = multistart_sa(&circuit, &cfg);
        let problem = Problem::new(&circuit);
        for chain in 0..cfg.chains {
            let pooled = finished(&result, chain);
            let chain_cfg = SaConfig {
                seed: chain_seed(cfg.base.seed, chain),
                ..cfg.base.clone()
            };
            let mut cache = CostCache::new(&problem);
            let unbounded = RunControl::unbounded();
            let (replay, _) =
                simulated_annealing_on(&problem, &chain_cfg, None, &mut cache, &unbounded);
            assert_eq!(pooled.reward, replay.reward, "chain {chain}");
            assert_eq!(pooled.floorplan, replay.floorplan, "chain {chain}");
        }
    }

    #[test]
    fn winner_rule_prefers_feasible_then_reward_then_index() {
        let circuit = generators::ota5();
        let problem = Problem::new(&circuit);
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 200,
                ..SaConfig::small()
            },
            chains: 5,
            workers: 1,
        };
        let result = multistart_sa_on(&problem, &cfg, &RunControl::unbounded());
        let winner_index = result.winner.expect("uncontrolled run always has a winner");
        let winner = finished(&result, winner_index);
        let winner_feasible = winner.floorplan.num_placed() == circuit.num_blocks()
            && !constraints::has_violations(&circuit, &winner.floorplan);
        for chain in 0..cfg.chains {
            let candidate = finished(&result, chain);
            let feasible = candidate.floorplan.num_placed() == circuit.num_blocks()
                && !constraints::has_violations(&circuit, &candidate.floorplan);
            assert!(
                !(feasible && !winner_feasible),
                "feasible chain {chain} lost to an infeasible winner"
            );
            if feasible == winner_feasible {
                assert!(
                    candidate.reward < winner.reward
                        || (candidate.reward == winner.reward && chain >= winner_index),
                    "chain {chain} should have beaten the winner"
                );
            }
        }
    }

    #[test]
    fn select_winner_breaks_reward_ties_by_lowest_index() {
        let circuit = generators::ota3();
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 50,
                ..SaConfig::small()
            },
            chains: 2,
            workers: 1,
        };
        let result = multistart_sa(&circuit, &cfg);
        let finished_chains: Vec<BaselineResult> = (0..cfg.chains)
            .map(|chain| finished(&result, chain).clone())
            .collect();
        // Duplicate the results: the duplicate of the winner ties it exactly
        // and must lose on index.
        let mut doubled = finished_chains.clone();
        doubled.extend(finished_chains.iter().cloned());
        let winner = select_winner(&circuit, &doubled);
        assert!(winner < finished_chains.len(), "tie must keep the lowest index");
        assert_eq!(Some(winner), result.winner);
    }

    #[test]
    fn controlled_multistart_with_generous_limits_is_bit_identical() {
        // An uninterrupted controlled run must replay the uncontrolled one
        // exactly — the determinism contract of the whole control layer.
        let circuit = generators::ota5();
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 120,
                seed: 9,
                ..SaConfig::small()
            },
            chains: 3,
            workers: 2,
        };
        let plain = multistart_sa(&circuit, &cfg);
        let control = RunControl::unbounded()
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_budget(u64::MAX);
        let controlled = multistart_sa_on(&Problem::new(&circuit), &cfg, &control);
        assert_eq!(controlled.winner, plain.winner);
        assert_eq!(controlled.stop, StopReason::Completed);
        for chain in 0..cfg.chains {
            assert_eq!(
                finished(&controlled, chain).reward,
                finished(&plain, chain).reward,
                "chain {chain}"
            );
            assert_eq!(
                finished(&controlled, chain).floorplan,
                finished(&plain, chain).floorplan,
                "chain {chain}"
            );
        }
    }

    #[test]
    fn pre_cancelled_multistart_skips_every_chain() {
        let circuit = generators::ota3();
        let token = CancelToken::new();
        token.cancel();
        let control = RunControl::unbounded().with_cancel_token(token);
        let problem = Problem::new(&circuit);
        let result = multistart_sa_on(&problem, &MultistartSaConfig::small(), &control);
        assert!(result.chains.iter().all(|c| matches!(c, ChainOutcome::Skipped)));
        assert_eq!(result.winner, None);
        assert!(result.best().is_none());
        assert_eq!(result.stop, StopReason::Cancelled);
    }

    #[test]
    fn budgeted_multistart_chains_stop_at_the_budget_and_still_pick_a_winner() {
        let circuit = generators::ota5();
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 400,
                ..SaConfig::small()
            },
            chains: 3,
            workers: 2,
        };
        let control = RunControl::unbounded().with_budget(40);
        let result = multistart_sa_on(&Problem::new(&circuit), &cfg, &control);
        assert_eq!(result.stop, StopReason::Budget);
        for chain in 0..cfg.chains {
            let r = finished(&result, chain);
            assert_eq!(r.evaluations, 40, "chain {chain} overshot its budget");
            assert_eq!(r.stop, StopReason::Budget);
        }
        assert!(result.best().is_some());
    }

    #[test]
    fn first_feasible_race_returns_a_feasible_winner_and_cancels_the_rest() {
        // ota3 at unit-test scale reaches feasibility quickly, so the race
        // must end with a feasible winner and the FirstFeasible stop. With
        // workers: 1 the chains run in order, so the outcome is fully
        // deterministic: chain 0 wins, later chains are cancelled or skipped.
        let circuit = generators::ota3();
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 4000,
                ..SaConfig::small()
            },
            chains: 3,
            workers: 1,
        };
        let control = RunControl::unbounded().with_stop_on_first_feasible(true);
        let result = multistart_sa_on(&Problem::new(&circuit), &cfg, &control);
        assert_eq!(result.stop, StopReason::FirstFeasible);
        let best = result.best().expect("race must produce a winner");
        assert_eq!(best.floorplan.num_placed(), circuit.num_blocks());
        assert!(!constraints::has_violations(&circuit, &best.floorplan));
        // Race mode is an explicit opt-in: the shared token is raised, so
        // the chains after the winner never ran to completion.
        assert!(control.cancel_token().is_cancelled());
    }

    #[test]
    fn surviving_winner_skips_panicked_and_skipped_slots() {
        let circuit = generators::ota3();
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 60,
                ..SaConfig::small()
            },
            chains: 2,
            workers: 1,
        };
        let result = multistart_sa(&circuit, &cfg);
        let real = finished(&result, 0).clone();
        let outcomes = vec![
            ChainOutcome::Panicked("boom".to_string()),
            ChainOutcome::Skipped,
            ChainOutcome::Finished(real.clone()),
            ChainOutcome::Finished(real),
        ];
        // Slot 2 and 3 tie exactly; panicked/skipped slots before them must
        // not shift the index rule.
        assert_eq!(select_surviving_winner(&circuit, &outcomes), Some(2));
        let nobody = vec![
            ChainOutcome::Panicked("boom".to_string()),
            ChainOutcome::Skipped,
        ];
        assert_eq!(select_surviving_winner(&circuit, &nobody), None);
    }

    #[test]
    fn aggregate_stop_orders_first_feasible_over_interrupts_over_skips() {
        let circuit = generators::ota3();
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 40,
                ..SaConfig::small()
            },
            chains: 1,
            workers: 1,
        };
        let done = finished(&multistart_sa(&circuit, &cfg), 0).clone();
        let feasible_stop = ChainOutcome::Finished(done.clone().with_stop(StopReason::FirstFeasible));
        let cancelled = ChainOutcome::Finished(done.clone().with_stop(StopReason::Cancelled));
        let completed = ChainOutcome::Finished(done);
        assert_eq!(
            aggregate_stop(&[cancelled.clone(), feasible_stop]),
            StopReason::FirstFeasible
        );
        assert_eq!(
            aggregate_stop(&[completed.clone(), cancelled]),
            StopReason::Cancelled
        );
        assert_eq!(
            aggregate_stop(&[completed.clone(), ChainOutcome::Skipped]),
            StopReason::Cancelled
        );
        assert_eq!(
            aggregate_stop(&[completed.clone(), ChainOutcome::Panicked("x".into())]),
            StopReason::Completed
        );
        assert_eq!(aggregate_stop(&[completed]), StopReason::Completed);
    }

    #[test]
    fn portfolio_is_bit_identical_at_any_worker_count() {
        let circuit = generators::ota5();
        let base = Portfolio {
            workers: 1,
            ..Portfolio::small_race()
        };
        let serial = base.run(&circuit);
        for workers in [2usize, 4] {
            let race = Portfolio { workers, ..base.clone() };
            let parallel = race.run(&circuit);
            assert_eq!(parallel.winner, serial.winner, "{workers} workers");
            for (index, (p, s)) in parallel.members.iter().zip(&serial.members).enumerate() {
                let p = p.result().expect("member finished");
                let s = s.result().expect("member finished");
                assert_eq!(p.reward, s.reward, "member {index} at {workers} workers");
                assert_eq!(p.floorplan, s.floorplan, "member {index} at {workers} workers");
            }
        }
    }

    #[test]
    fn portfolio_members_keep_their_algorithms() {
        let circuit = generators::ota3();
        let portfolio = Portfolio::small_race();
        let outcome = portfolio.run(&circuit);
        let names: Vec<&str> = outcome
            .members
            .iter()
            .map(|m| m.result().expect("member finished").algorithm.as_str())
            .collect();
        assert_eq!(names, vec!["SA", "SA", "SA", "GA", "PSO"]);
        assert_eq!(outcome.stop, StopReason::Completed);
        let best = outcome.best().expect("portfolio has a winner");
        assert_eq!(
            best.floorplan.num_placed(),
            circuit.num_blocks(),
            "portfolio winner left blocks unplaced"
        );
    }

    #[test]
    fn pre_cancelled_portfolio_skips_every_member() {
        let circuit = generators::ota3();
        let token = CancelToken::new();
        token.cancel();
        let control = RunControl::unbounded().with_cancel_token(token);
        let outcome = Portfolio::small_race().run_controlled(&circuit, &control);
        assert!(outcome.members.iter().all(|m| matches!(m, ChainOutcome::Skipped)));
        assert_eq!(outcome.winner, None);
        assert_eq!(outcome.stop, StopReason::Cancelled);
    }
}
