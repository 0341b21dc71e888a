//! [`PoolHandle::map`]'s failure-domain property under planned panics and
//! stalls (`scripts/ci.sh` also runs it by name under `timeout`).
//!
//! A splitmix64 roll of `(seed, job)` makes planned jobs panic or stall, and
//! 200 proptest cases assert the contract: planned panics propagate exactly
//! and never deadlock the caller, stalls only delay,
//! [`PoolStats`](afp_par::PoolStats) stays consistent through it all, and a
//! handle remains usable after arbitrarily many faulted batches.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use proptest::prelude::*;

use afp_par::PoolHandle;

#[derive(Debug, PartialEq)]
enum Fault {
    Panic,
    Stall(Duration),
}

/// The planned fault of job `job` under plan `seed`, if any: a splitmix64
/// roll that panics `panic_percent` of jobs and stalls (at most 600 µs)
/// `stall_percent` more. A pure function of its arguments, so a case
/// replays exactly at any worker count.
fn fault(seed: u64, job: u64, panic_percent: u8, stall_percent: u8) -> Option<Fault> {
    let mut z =
        (seed ^ job.wrapping_mul(0xD134_2543_DE82_EF95)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let h = z ^ (z >> 31);
    let roll = (h % 100) as u8;
    if roll < panic_percent {
        Some(Fault::Panic)
    } else if roll < panic_percent + stall_percent {
        Some(Fault::Stall(Duration::from_micros(100 + (h >> 8) % 500)))
    } else {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The pool-level survival property: across several batches with planned
    /// panics and stalls, every batch drains (no deadlock — the test
    /// completing is the evidence, and CI wraps the run in a `timeout`),
    /// panics propagate exactly when the plan contains one, surviving
    /// results match the serial loop bit-for-bit, stats counters balance,
    /// and a final clean batch runs as if nothing ever went wrong.
    #[test]
    fn pool_survives_injected_faults(
        seed in 0u64..1_000_000,
        workers in 1usize..5,
        items in 1usize..48,
        panic_percent in 0u8..40,
        stall_percent in 0u8..25,
        batches in 1usize..4,
    ) {
        let pool = PoolHandle::new(workers);
        let xs: Vec<u64> = (0..items as u64).collect();
        for batch in 0..batches as u64 {
            // Job ids advance across batches so each batch faults at
            // different (but planned) positions.
            let offset = batch * 1000;
            let planned_panic = xs
                .iter()
                .any(|&x| fault(seed, offset + x, panic_percent, stall_percent) == Some(Fault::Panic));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.map(&xs, |&x| {
                    match fault(seed, offset + x, panic_percent, stall_percent) {
                        Some(Fault::Panic) => {
                            panic!("injected fault: job {} (seed {seed})", offset + x)
                        }
                        Some(Fault::Stall(pause)) => std::thread::sleep(pause),
                        None => {}
                    }
                    x.wrapping_mul(0x9E37)
                })
            }));
            match outcome {
                Ok(results) => {
                    prop_assert!(!planned_panic, "planned panic was swallowed");
                    let serial: Vec<u64> =
                        xs.iter().map(|&x| x.wrapping_mul(0x9E37)).collect();
                    prop_assert_eq!(results, serial);
                }
                Err(payload) => {
                    prop_assert!(planned_panic, "unplanned panic escaped");
                    let message = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    prop_assert!(
                        message.contains("injected fault"),
                        "foreign panic payload: {}", message
                    );
                }
            }
        }
        // PoolStats consistency after repeated faulted batches: every call
        // spawned min(workers, items) − 1 helpers, panic or not.
        let stats = pool.stats();
        prop_assert_eq!(stats.batches, batches as u64);
        let helpers = (workers.min(items) - 1) as u64;
        prop_assert_eq!(stats.threads_woken, helpers * batches as u64);
        let clamped = if items < workers { batches as u64 } else { 0 };
        prop_assert_eq!(stats.clamped_batches, clamped);
        // Reusability: a clean batch runs to completion with exact results.
        let clean = pool.map(&xs, |&x| x + 1);
        prop_assert_eq!(clean, (1..=items as u64).collect::<Vec<_>>());
        prop_assert_eq!(pool.stats().batches, batches as u64 + 1);
    }
}
