#!/usr/bin/env bash
# Tier-1 verification plus the repo's own extended checks.
#
#   tier-1:   cargo build --release && cargo test -q
#   extended: workspace-wide tests, the differential, pool-survival and
#             rustdoc checks below, and a smoke run of the perf snapshot (the
#             harness must never rot between perf PRs: the run fails the
#             build if bench_snapshot panics or emits malformed JSON).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The end-to-end benchmark is its own Cargo workspace over crates/*: build it
# here so a change that breaks its build fails CI, not the benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --workspace   # superset of tier-1's `cargo test -q`

# Differential safety net: the differential proptests (reused-buffer vs
# fresh realization, parallel EvalPool vs the serial cost_cached loop, FAST-SP
# vs legacy oracle, BitGrid vs scalar oracle, controlled vs unbounded runs of
# every baseline, the order-preserving conv/deconv/dense kernels vs their
# naive loops, the batch-innermost kernels and the batched PPO update vs the
# per-sample loops) and the hostile-SPICE and hostile-job-request no-panic
# properties run as part of the workspace tests above; run them once more by name so a filtered or
# partially-cached test run cannot silently skip them.
diff_tests=(
    incremental_realize_matches_full_after_perturbation_sequences
    incremental_realize_matches_full_beyond_64_blocks
    eval_pool_matches_serial_cost_cached
    sa_with_generous_deadline_replays_the_unbounded_run
    every_baseline_replays_under_generous_control_and_stops_on_budget
    serve_fingerprints_are_injective_and_canonical
    serve_cache_hit_replays_the_cold_solve_bit_for_bit
    serve_persist_round_trip_restores_bit_identical_hits
    serve_daemon_admits_while_draining_and_matches_cold_solves
    serve_daemon_stress_submitters_race_drain
    multiword_grid_fits_anchors_and_nearest_fit_match_scalar
    spice_text_never_panics_through_the_greedy_pipeline
    hostile_job_requests_are_rejected_or_served
    conv_kernels_match_naive_oracle_bitwise
    deconv_kernels_match_naive_oracle_bitwise
    dense_forward_matches_naive_oracle_bitwise
    policy_layer_shapes_match_naive_oracle_bitwise
    batched_kernels_match_per_sample_oracle_bitwise
    policy_layer_shapes_match_batched_oracle_bitwise
    batched_ppo_update_matches_per_transition_reference
)
run_diff_tests() {
    for diff_test in "${diff_tests[@]}"; do
        diff_out="$(cargo test --test properties "$diff_test" 2>&1)" \
            || { echo "$diff_out"; return 1; }
        echo "$diff_out" | grep -qE 'test result: ok\. [1-9][0-9]* passed' \
            || { echo "ci: differential proptest filter '$diff_test' matched no tests" >&2; return 1; }
    done
}
run_diff_tests
# The same loop under a rotating seed: the proptest stub mixes
# PROPTEST_RNG_SEED into every property's fixed per-name seed, so each CI run
# explores new cases. The seed is echoed first; exporting the same value
# replays a failing run exactly.
rotating_seed="$(date +%s)"
echo "ci: rotating-seed differential leg, PROPTEST_RNG_SEED=$rotating_seed"
export PROPTEST_RNG_SEED="$rotating_seed"
run_diff_tests \
    || { echo "ci: rotating-seed leg failed; replay with PROPTEST_RNG_SEED=$rotating_seed" >&2; exit 1; }
unset PROPTEST_RNG_SEED

# Large-n cost pipeline: the 200-block unit test pins the cached cost (serial
# and through the EvalPool) to the uncached one past every historical
# 64-element ceiling. Run it by name so a filtered run cannot silently skip
# it.
large_out="$(cargo test -p afp-metaheuristics large_n_cost_pipeline_matches_uncached_cost 2>&1)" \
    || { echo "$large_out"; exit 1; }
echo "$large_out" | grep -qE 'test result: ok\. [1-9][0-9]* passed' \
    || { echo "ci: large-n test filter matched no tests" >&2; exit 1; }

# Robustness safety net: the pool-survival proptest (planned panics and
# stalls propagate exactly, stats balance, the pool stays reusable) runs once
# more by name. `timeout` guards the no-deadlock claim itself: a hung pool
# must fail CI, not wedge it.
survival_out="$(timeout 600 cargo test -p afp-par pool_survives_injected_faults 2>&1)" \
    || { echo "$survival_out"; echo "ci: pool-survival test failed or timed out" >&2; exit 1; }
echo "$survival_out" | grep -qE 'test result: ok\. [1-9][0-9]* passed' \
    || { echo "ci: pool-survival test filter matched no tests" >&2; exit 1; }

# Rustdoc is part of the public API surface: build the workspace docs with
# warnings denied so broken intra-doc links or missing docs fail CI.
# `--workspace` is load-bearing: without it cargo documents only the root
# facade crate, which silently skipped every member crate's rustdoc.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Perf-harness smoke: run bench_snapshot into a scratch directory (so the
# committed BENCH_pack.json — the canonical perf trajectory — is not churned
# by every CI run) and validate the emitted JSON. Perf PRs refresh the real
# snapshot deliberately by running bench_snapshot from the repo root.
repo_root="$(pwd)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
# `timeout` bounds the smoke run: the snapshot binary drives every parallel
# subsystem, so a dispatch/cancellation regression that deadlocks the pool
# must fail CI here instead of hanging it.
(cd "$smoke_dir" && timeout 1800 cargo run --release --manifest-path "$repo_root/Cargo.toml" \
    -p afp-bench --bin bench_snapshot)
if command -v python3 > /dev/null; then
    python3 - "$smoke_dir/BENCH_pack.json" "$repo_root/BENCH_pack.json" <<'PY' \
        || { echo "ci: bench_snapshot snapshot invalid" >&2; exit 1; }
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
with open(sys.argv[2]) as f:
    committed = json.load(f)
for section in ("pack", "snap", "large_n", "masks", "eval_pool", "pool_overhead", "serve",
                "serve_daemon", "sa_locality", "agent", "sa"):
    assert section in snap, f"missing snapshot section: {section}"
# The large-n tier: one row per block count past the old 64-element ceilings,
# each run end to end through the cost pipeline on a multi-word grid.
large = snap["large_n"]
assert [row["blocks"] for row in large] == [200, 500, 1000], \
    "large_n tier does not cover the expected block counts"
assert [row["grid_side"] for row in large] == [64, 96, 128], \
    "large_n grid sides diverged from grid_side_for()"
for row in large:
    for key in ("sa_move_ns", "eval_pool_generation_ns"):
        assert row[key] > 0.0, f"nonsensical large_n timing: {key}"
pool = snap["eval_pool"]
for key in ("hardware_threads", "population", "serial_generation_ns",
            "workers1_generation_ns", "workers2_generation_ns",
            "workers4_generation_ns", "speedup_workers4", "bit_identical"):
    assert key in pool, f"missing eval_pool key: {key}"
# bench_snapshot computes the verdict by comparing pool output against the
# serial loop and aborts on divergence before writing any JSON, so a present
# section with a true verdict proves the check ran and passed. The speedup is
# machine-dependent (≈ hardware_threads-bounded), so only its presence and
# sign are gated.
assert pool["bit_identical"] is True, "EvalPool bit-identity check not recorded"
assert pool["speedup_workers4"] > 0.0, "nonsensical eval_pool speedup"
po = snap["pool_overhead"]
for key in ("workers", "batch_items", "spawn_batch_ns", "parked_batch_ns",
            "spawn_over_parked", "parked_batches", "parked_threads_woken"):
    assert key in po, f"missing pool_overhead key: {key}"
# The persistent pool's acceptance bar: a parked dispatch (epoch bump +
# unpark per active worker) must cost strictly less per batch than the
# spawn-per-call baseline's thread spawn-and-join — on any machine, including
# a 1-thread host (both models context-switch there; only the baseline also
# creates and tears down threads).
assert po["parked_batch_ns"] > 0.0, "nonsensical parked dispatch time"
assert po["parked_batch_ns"] < po["spawn_batch_ns"], \
    "parked pool dispatch is not cheaper than spawn-per-call"
serve = snap["serve"]
for key in ("cold_solve_ns", "cache_hit_ns", "hit_speedup", "batch_jobs",
            "jobs_per_sec_workers1", "jobs_per_sec_workers2",
            "jobs_per_sec_workers4", "bit_identical"):
    assert key in serve, f"missing serve key: {key}"
# Same convention again: bench_snapshot asserts the memoized result is
# bit-identical to the cold solve before timing anything, so a written
# section with a true verdict proves the check passed. A cache hit that is
# not dramatically cheaper than a cold solve means memoization is broken
# (the hit path re-solved); 10x is far below the observed ~200x but far
# above any plausible noise.
assert serve["bit_identical"] is True, "serve bit-identity check not recorded"
assert serve["cache_hit_ns"] > 0.0, "nonsensical serve hit latency"
assert serve["cache_hit_ns"] * 10.0 < serve["cold_solve_ns"], \
    "serve cache hit is not meaningfully cheaper than a cold solve"
for key in ("jobs_per_sec_workers1", "jobs_per_sec_workers2",
            "jobs_per_sec_workers4"):
    assert serve[key] > 0.0, f"nonsensical serve throughput: {key}"
daemon = snap["serve_daemon"]
for key in ("batch_jobs", "drain_jobs_per_sec_workers1",
            "drain_jobs_per_sec_workers2", "drain_jobs_per_sec_workers4",
            "restored_hit_ns", "restore_speedup",
            "snapshot_bytes", "bit_identical"):
    assert key in daemon, f"missing serve_daemon key: {key}"
# bench_snapshot restores the persisted cache into a fresh engine and asserts
# the repeat job is a bit-identical hit before timing anything — a written
# section with a true verdict proves restore preserved the memoized result
# exactly. The restored hit carries an amortized share of the snapshot decode,
# so the bar sits at 10x under the `serve` section's cold solve (observed far
# higher) rather than matching the in-memory hit's ~200x.
assert daemon["bit_identical"] is True, \
    "serve_daemon restore bit-identity check not recorded"
assert daemon["snapshot_bytes"] > 0, "empty cache snapshot"
assert daemon["restored_hit_ns"] > 0.0, "nonsensical restored-hit latency"
assert daemon["restored_hit_ns"] * 10.0 < serve["cold_solve_ns"], \
    "restored cache hit is not meaningfully cheaper than a cold solve"
for key in ("drain_jobs_per_sec_workers1", "drain_jobs_per_sec_workers2",
            "drain_jobs_per_sec_workers4"):
    assert daemon[key] > 0.0, f"nonsensical drain-loop throughput: {key}"
loc = snap["sa_locality"]
for key in ("locality_bias", "uniform_move_ns", "local_move_ns"):
    assert key in loc, f"missing sa_locality key: {key}"
    assert loc[key] >= 0.0, f"nonsensical sa_locality value: {key}"
# The agent section: every kernel kind's forward and backward median at both
# policy configs, the policy forward at both, and the small PPO update with its
# stage rows. Only
# presence and sign are gated per key (timings are machine-dependent), plus
# one ordering that holds on any machine: the paper config multiplies the
# small config's forward MACs by ~220, so its policy forward must be slower.
agent = snap["agent"]
agent_keys = ["hardware_threads", "ppo_transitions_per_update",
              "ppo_update_us_per_transition_small"]
agent_keys += [f"{kind}_{pass_}_ns_{cfg}" for kind in ("conv", "deconv", "dense")
               for pass_ in ("fwd", "bwd") for cfg in ("small", "paper")]
agent_keys += [f"policy_forward_ns_{cfg}" for cfg in ("small", "paper")]
# Stage rows of the small PPO update: batched forward, loss, batched backward,
# clip + Adam, each per transition.
agent_keys += [f"ppo_{stage}_us_per_transition_small" for stage in
               ("batched_forward", "loss", "batched_backward", "clip_adam")]
for key in agent_keys:
    assert key in agent, f"missing agent key: {key}"
    assert agent[key] > 0, f"nonsensical agent value: {key}"
assert agent["policy_forward_ns_paper"] > agent["policy_forward_ns_small"], \
    "paper-config policy forward is not slower than the small config's"
# Same 4x band as the SA throughput below, on the agent's training cost per
# transition. Like that band it is sized for machine noise and so only catches
# gross regressions (the per-tap kernels this snapshot replaced cost ~3.5x).
smoke_ppo = agent["ppo_update_us_per_transition_small"]
committed_ppo = committed["agent"]["ppo_update_us_per_transition_small"]
assert smoke_ppo <= committed_ppo * 4, (
    f"small PPO update fell out of band: smoke {smoke_ppo} us/transition "
    f"vs committed {committed_ppo} us/transition (ceiling committed*4)")
# Throughput band on the paper-scale workload: the smoke run's 19-block SA
# median must stay within 4x of the committed snapshot's. The committed value
# is the canonical perf trajectory refreshed deliberately by perf PRs; 4x is
# far beyond CI-machine noise (observed well under 2x run to run) but well
# inside any real regression from, e.g., the small-grid fast path losing its
# inline storage. Only the lower bound is gated — getting faster is fine.
smoke_sa = snap["sa"]["moves_per_sec"]
committed_sa = committed["sa"]["moves_per_sec"]
assert smoke_sa > 0 and committed_sa > 0, "nonsensical SA throughput"
assert smoke_sa * 4 >= committed_sa, (
    f"19-block SA throughput fell out of band: smoke {smoke_sa} moves/s "
    f"vs committed {committed_sa} moves/s (floor committed/4)")
PY
else
    echo "ci: python3 not found, skipping BENCH_pack.json JSON validation" >&2
fi

echo "ci: all checks passed"
