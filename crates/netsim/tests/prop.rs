//! Property tests for the discrete-event simulator: causality, FIFO link
//! order, conservation of traffic accounting.

use proptest::prelude::*;
use shadow_netsim::{LinkProfile, SimEvent, SimNet, SimTime};

#[derive(Debug, Clone)]
enum Op {
    Send {
        from: usize,
        to: usize,
        bytes: usize,
    },
    Timer {
        node: usize,
        delay_ms: u64,
        token: u64,
    },
}

fn arb_op(nodes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..nodes, 0..nodes, 0usize..4096).prop_filter_map(
            "distinct endpoints",
            |(from, to, bytes)| (from != to).then_some(Op::Send { from, to, bytes })
        ),
        1 => (0..nodes, 0u64..5000, any::<u64>())
            .prop_map(|(node, delay_ms, token)| Op::Timer { node, delay_ms, token }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn delivery_is_causal_and_complete(
        ops in prop::collection::vec(arb_op(3), 0..48),
        bandwidth in 1000u64..1_000_000,
        latency_ms in 0u64..500,
    ) {
        let mut net = SimNet::new();
        let nodes = [net.add_node("a"), net.add_node("b"), net.add_node("c")];
        let profile = LinkProfile::new("t", bandwidth, SimTime::from_millis(latency_ms));
        for i in 0..3 {
            for j in (i + 1)..3 {
                net.connect(nodes[i], nodes[j], profile.clone());
            }
        }
        let mut expected_messages = 0usize;
        let mut expected_timers = 0usize;
        let mut sent_bytes_per_pair = std::collections::HashMap::new();
        for op in &ops {
            match *op {
                Op::Send { from, to, bytes } => {
                    let arrival = net
                        .send(nodes[from], nodes[to], vec![0; bytes])
                        .unwrap();
                    prop_assert!(arrival >= net.now());
                    expected_messages += 1;
                    *sent_bytes_per_pair.entry((from, to)).or_insert(0u64) += bytes as u64;
                }
                Op::Timer { node, delay_ms, token } => {
                    net.schedule_timer(nodes[node], SimTime::from_millis(delay_ms), token);
                    expected_timers += 1;
                }
            }
        }

        // Drain: time never goes backwards, per-pair messages arrive in
        // send order (FIFO), everything arrives exactly once.
        let mut last = SimTime::ZERO;
        let mut got_messages = 0usize;
        let mut got_timers = 0usize;
        while let Some(d) = net.next() {
            prop_assert!(d.at >= last, "time went backwards");
            last = d.at;
            match d.event {
                SimEvent::Message { .. } => got_messages += 1,
                SimEvent::Timer { .. } => got_timers += 1,
            }
        }
        prop_assert_eq!(got_messages, expected_messages);
        prop_assert_eq!(got_timers, expected_timers);

        // Traffic accounting matches what we sent.
        for ((from, to), bytes) in sent_bytes_per_pair {
            let stats = net.stats(nodes[from], nodes[to]);
            prop_assert_eq!(stats.payload_bytes, bytes);
            prop_assert!(stats.wire_bytes >= stats.payload_bytes);
        }
    }

    #[test]
    fn same_direction_messages_preserve_order(
        sizes in prop::collection::vec(0usize..2048, 1..16),
    ) {
        let mut net = SimNet::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, LinkProfile::new("t", 9600, SimTime::from_millis(50)));
        for (i, &size) in sizes.iter().enumerate() {
            let mut payload = vec![0u8; size.max(8)];
            payload[..8].copy_from_slice(&(i as u64).to_le_bytes());
            net.send(a, b, payload).unwrap();
        }
        let mut next_expected = 0u64;
        while let Some(d) = net.next() {
            if let SimEvent::Message { payload, .. } = d.event {
                let mut idx = [0u8; 8];
                idx.copy_from_slice(&payload[..8]);
                prop_assert_eq!(u64::from_le_bytes(idx), next_expected);
                next_expected += 1;
            }
        }
        prop_assert_eq!(next_expected as usize, sizes.len());
    }

    #[test]
    fn transmit_time_is_monotone_in_size(
        bandwidth in 600u64..1_000_000,
        a in 0usize..100_000,
        b in 0usize..100_000,
    ) {
        let profile = LinkProfile::new("t", bandwidth, SimTime::ZERO);
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(profile.transmit_time(small) <= profile.transmit_time(large));
        prop_assert!(profile.wire_bytes(small) <= profile.wire_bytes(large));
    }
}
