//! Every workload for 20 cycles through the library API, untraced and
//! traced: nothing fails, every update travels as a delta, the six
//! stages add up to each traced cycle exactly, and the wire bytes per
//! cycle equal the value pinned for the smoke seed (the protocol's bytes
//! are deterministic for a given input sequence).

use std::time::Duration;

use shadow_e2e::{run, RunConfig, RunResult, Workload};

const SMOKE_SEED: u64 = 7;
const CYCLES: usize = 20;

fn smoke(workload: Workload, wire_bytes_per_cycle: f64) -> RunResult {
    let config = RunConfig {
        workload,
        seed: SMOKE_SEED,
        duration: Duration::ZERO,
        min_cycles: CYCLES,
        setups: 1,
        trace: true,
    };
    let result = run(&config).expect("the run completes");
    assert_eq!(result.failed, 0, "{:?}", result.failure);
    assert!(result.correct());
    assert_eq!(result.cycles, CYCLES);
    assert_eq!(result.attempted, 2 * CYCLES);
    assert_eq!(result.metric("server.delta_ratio"), Some(1.0));
    // Notify, submit, update and output ack: the counters are exact.
    assert_eq!(result.metric("runtime.frames_per_cycle"), Some(4.0));
    assert_eq!(result.traced.len(), CYCLES);
    for sample in &result.traced {
        let bounds = sample
            .bounds
            .expect("traced cycles carry their stage bounds");
        let stages: Duration = bounds.windows(2).map(|w| w[1] - w[0]).sum();
        assert_eq!(stages, sample.elapsed, "the stages partition the cycle");
    }
    assert_eq!(
        result.metric("wire_bytes_per_cycle"),
        Some(wire_bytes_per_cycle),
        "{}",
        workload.name()
    );
    result
}

#[test]
fn text_edit() {
    smoke(Workload::TextEdit, 8586.05);
}

#[test]
fn binary_splice() {
    smoke(Workload::BinarySplice, 2438.45);
}

#[test]
fn tcp_idle_peer() {
    smoke(Workload::TcpIdlePeer, 545.2);
}

#[test]
fn durable_report() {
    let result = smoke(Workload::DurableReport, 8616.25);
    assert_eq!(result.metric("server.output_delta_ratio"), Some(1.0));
    assert_eq!(result.metric("store.appends_per_cycle"), Some(3.0));
}
