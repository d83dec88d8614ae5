//! The checker must catch a seeded protocol bug — proof the state-space
//! search has teeth, not just green lights.
//!
//! The seeded defect (`FaultInjection::delta_base_bug`, compiled behind
//! the `check-faults` feature, off by default at runtime) makes the
//! server trust its delta-base bookkeeping blindly: it applies any
//! received ed script to whatever it has cached and skips the content
//! digest verification. That is exactly the §5.1 failure mode the
//! protocol's digest check exists to stop — a delta against version 1
//! applied to cached version 2 silently corrupts the shadow.

use shadow_check::scenario::scenario_by_name;
use shadow_check::{builtin_scenarios, explore, replay, Profile, Violation};
use shadow_server::FaultInjection;

fn buggy() -> FaultInjection {
    FaultInjection {
        delta_base_bug: true,
    }
}

/// The whole built-in scenario library explores clean on the real
/// protocol — the acceptance gate CI runs.
#[test]
fn all_scenarios_clean_without_faults() {
    let profile = Profile::ci();
    for scenario in builtin_scenarios() {
        let report = explore(&scenario, &profile, FaultInjection::default());
        assert!(
            report.violation.is_none(),
            "scenario {} found a violation on the real protocol: {:?}",
            scenario.name,
            report.violation
        );
        assert!(
            report.states > 100,
            "scenario {} barely explored",
            scenario.name
        );
    }
}

/// With the delta-base bug seeded, exploration of the delta-chain
/// scenario finds a cache-coherence violation within the CI depth, and
/// the minimized counterexample replays red deterministically.
#[test]
fn seeded_delta_base_bug_is_found_and_minimized() {
    let scenario = scenario_by_name("delta-chain").expect("built-in");
    // The defect needs reordering but no loss: with per-queue FIFO the
    // in-flight `Delta(1→2)` always lands before the `Notify(v3)` queued
    // behind it, so the server's `have` can never go stale. Letting the
    // notify overtake the delta yields two deltas built on base v1, the
    // second of which the buggy server applies to its v2 cache.
    let profile = Profile::reorder();
    let report = explore(&scenario, &profile, buggy());
    let cx = report
        .violation
        .expect("the seeded delta-base bug must be detected");
    assert!(
        matches!(cx.violation, Violation::CacheIncoherent { .. }),
        "expected cache incoherence, got: {}",
        cx.violation
    );
    assert!(
        cx.trace.len() <= cx.original_len,
        "minimization must never grow the trace"
    );

    // The minimized trace is a deterministic, replayable failing test…
    let replayed = replay(&scenario, &profile, buggy(), &cx.trace);
    assert!(
        matches!(replayed, Some(Violation::CacheIncoherent { .. })),
        "minimized counterexample must replay red, got {replayed:?}"
    );
    // …and the same trace is green on the un-seeded protocol: the trace
    // isolates the seeded defect, not some checker artefact.
    assert_eq!(
        replay(&scenario, &profile, FaultInjection::default(), &cx.trace),
        None,
        "minimized trace must pass on the real protocol"
    );
}

/// Every step of a minimized counterexample is necessary: dropping any
/// single choice makes the failure disappear (1-minimality, end to end).
#[test]
fn minimized_counterexample_is_one_minimal() {
    let scenario = scenario_by_name("delta-chain").expect("built-in");
    let profile = Profile::reorder();
    let report = explore(&scenario, &profile, buggy());
    let cx = report.violation.expect("bug found");
    for skip in 0..cx.trace.len() {
        let thinner: Vec<_> = cx
            .trace
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, c)| *c)
            .collect();
        assert!(
            replay(&scenario, &profile, buggy(), &thinner).is_none(),
            "trace still fails after removing step {} ({})",
            skip + 1,
            cx.trace[skip]
        );
    }
}
