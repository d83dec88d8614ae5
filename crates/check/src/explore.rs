//! Bounded exhaustive exploration of a [`World`]'s choice tree.
//!
//! Depth-first search over cloned world snapshots, deduplicating by
//! [`World::state_digest`]. Any [`Violation`] ends the run with a
//! [`Counterexample`] whose trace has been minimized by delta debugging
//! and replays deterministically — the failing trace a CI log prints is
//! the failing test.

use std::collections::HashSet;

use shadow_server::FaultInjection;

use crate::minimize::ddmin;
use crate::scenario::Scenario;
use crate::world::{Budgets, Choice, Violation, World};

/// Exploration bounds. `ci` is sized to finish a full built-in scenario
/// sweep comfortably inside a CI minute; `deep` is for overnight runs.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Profile name (reports).
    pub name: &'static str,
    /// Maximum trace length explored.
    pub max_depth: usize,
    /// Maximum distinct states visited before truncating.
    pub max_states: usize,
    /// Environment nondeterminism budgets.
    pub budgets: Budgets,
}

impl Profile {
    /// The CI profile: shallow reordering, one drop, one duplicate.
    pub fn ci() -> Self {
        Profile {
            name: "ci",
            max_depth: 40,
            max_states: 60_000,
            budgets: Budgets {
                drops: 1,
                dups: 1,
                reorder_window: 2,
                crashes: 1,
                compactions: 1,
                disconnects: 1,
            },
        }
    }

    /// The deep profile: wider reordering and budgets, large state cap.
    pub fn deep() -> Self {
        Profile {
            name: "deep",
            max_depth: 64,
            max_states: 1_500_000,
            budgets: Budgets {
                drops: 2,
                dups: 2,
                reorder_window: 3,
                crashes: 1,
                compactions: 1,
                disconnects: 2,
            },
        }
    }

    /// Reordering only, no loss or duplication: the smallest space that
    /// still exercises base-version confusion. The seeded delta-base bug
    /// lives here — with FIFO delivery a `Delta(1→2)` in flight always
    /// lands before the `Notify(v3)` queued behind it, so the server's
    /// `have` can never go stale; letting the notify overtake the delta
    /// is exactly what surfaces it.
    pub fn reorder() -> Self {
        Profile {
            name: "reorder",
            max_depth: 48,
            max_states: 400_000,
            budgets: Budgets {
                drops: 0,
                dups: 0,
                reorder_window: 2,
                crashes: 0,
                compactions: 0,
                disconnects: 0,
            },
        }
    }

    /// In-order delivery only, no loss: the per-queue FIFO semantics a
    /// healthy transport provides. Small enough to exhaust quickly.
    pub fn in_order() -> Self {
        Profile {
            name: "in-order",
            max_depth: 48,
            max_states: 200_000,
            budgets: Budgets {
                drops: 0,
                dups: 0,
                reorder_window: 1,
                crashes: 0,
                compactions: 0,
                disconnects: 0,
            },
        }
    }
}

/// A violation with the (minimized) choice trace reaching it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What broke.
    pub violation: Violation,
    /// Minimized trace from the initial world to the violation.
    pub trace: Vec<Choice>,
    /// Length of the trace as first discovered, before minimization.
    pub original_len: usize,
    /// Flight-recorder dump from replaying the minimized trace: the
    /// last choices applied before the violation, oldest first, as
    /// `#seq @at_ms label` lines (includes the deterministic handshake
    /// steps, which the trace itself omits).
    pub flight: Vec<String>,
}

/// The outcome of exploring one scenario.
#[derive(Debug, Clone)]
pub struct Report {
    /// The scenario explored.
    pub scenario: String,
    /// Profile used.
    pub profile: &'static str,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions applied.
    pub transitions: usize,
    /// Deepest trace reached.
    pub deepest: usize,
    /// True when the state cap stopped the search before exhaustion.
    pub truncated: bool,
    /// The violation found, if any.
    pub violation: Option<Counterexample>,
}

/// Exhaustively explores `scenario` under `profile`, returning the
/// first violation found (with a minimized trace) or the clean-sweep
/// statistics.
pub fn explore(scenario: &Scenario, profile: &Profile, faults: FaultInjection) -> Report {
    let mut report = Report {
        scenario: scenario.name.to_string(),
        profile: profile.name,
        states: 0,
        transitions: 0,
        deepest: 0,
        truncated: false,
        violation: None,
    };
    let root = World::new(scenario, profile.budgets, faults);
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(root.state_digest());
    let mut stack: Vec<(World, Vec<Choice>)> = vec![(root, Vec::new())];

    while let Some((world, trace)) = stack.pop() {
        report.deepest = report.deepest.max(trace.len());
        let choices = world.enabled();
        if choices.is_empty() {
            if let Some(v) = world.check_quiescent() {
                report.violation = Some(counterexample(scenario, profile, faults, trace, v));
                break;
            }
            continue;
        }
        if trace.len() >= profile.max_depth {
            continue;
        }
        let mut found = None;
        for &choice in choices.iter().rev() {
            let mut next = world.clone();
            report.transitions += 1;
            if let Err(v) = next.apply(choice) {
                let mut t = trace.clone();
                t.push(choice);
                found = Some(counterexample(scenario, profile, faults, t, v));
                break;
            }
            if visited.insert(next.state_digest()) {
                let mut t = trace.clone();
                t.push(choice);
                stack.push((next, t));
            }
        }
        if let Some(cx) = found {
            report.violation = Some(cx);
            break;
        }
        if visited.len() >= profile.max_states {
            report.truncated = true;
            break;
        }
    }
    report.states = visited.len();
    report
}

fn counterexample(
    scenario: &Scenario,
    profile: &Profile,
    faults: FaultInjection,
    trace: Vec<Choice>,
    violation: Violation,
) -> Counterexample {
    let original_len = trace.len();
    let minimized = minimize_trace(scenario, profile, faults, &trace);
    // Minimization preserves *a* violation, not necessarily the same
    // variant; report what the minimized trace actually produces.
    let (replayed, flight) = replay_recorded(scenario, profile, faults, &minimized);
    Counterexample {
        violation: replayed.unwrap_or(violation),
        trace: minimized,
        original_len,
        flight,
    }
}

/// Replays a choice trace from the initial world, returning the first
/// violation it produces (including quiescent-state violations when the
/// trace ends in quiescence).
///
/// Choices that are not enabled in the replayed state — possible once a
/// minimizer has removed earlier steps they depended on — are skipped
/// rather than treated as errors, keeping every subset of a trace
/// replayable.
pub fn replay(
    scenario: &Scenario,
    profile: &Profile,
    faults: FaultInjection,
    trace: &[Choice],
) -> Option<Violation> {
    replay_recorded(scenario, profile, faults, trace).0
}

/// Like [`replay`], additionally returning the flight-recorder dump of
/// the replayed world at the point the violation fired (or at the end
/// of the trace when none did).
fn replay_recorded(
    scenario: &Scenario,
    profile: &Profile,
    faults: FaultInjection,
    trace: &[Choice],
) -> (Option<Violation>, Vec<String>) {
    let mut world = World::new(scenario, profile.budgets, faults);
    for &choice in trace {
        if !world.enabled().contains(&choice) {
            continue;
        }
        if let Err(v) = world.apply(choice) {
            let flight = world.flight_lines();
            return (Some(v), flight);
        }
    }
    let violation = if world.quiescent() {
        world.check_quiescent()
    } else {
        None
    };
    let flight = world.flight_lines();
    (violation, flight)
}

/// Shrinks a violating trace to a minimal still-violating core via
/// delta debugging over [`replay`].
pub fn minimize_trace(
    scenario: &Scenario,
    profile: &Profile,
    faults: FaultInjection,
    trace: &[Choice],
) -> Vec<Choice> {
    if replay(scenario, profile, faults, trace).is_none() {
        // Not reproducible from scratch (should not happen: exploration
        // is deterministic) — return it untouched rather than shrink
        // against a vacuous oracle.
        return trace.to_vec();
    }
    ddmin(trace, &mut |t| {
        replay(scenario, profile, faults, t).is_some()
    })
}
