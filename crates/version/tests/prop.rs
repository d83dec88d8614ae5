//! Property tests: version chains stay internally consistent under any
//! interleaving of edits, acknowledgements and delta requests.

use proptest::prelude::*;
use shadow_diff::{apply_chunk_delta, apply_delta};
use shadow_proto::{DeltaCodec, FileId, VersionNumber};
use shadow_version::VersionStore;

#[derive(Debug, Clone)]
enum Op {
    Edit { file: u64, content: Vec<u8> },
    Ack { file: u64, version: u64 },
    Delta { file: u64, base: u64 },
    Forget { file: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..3, prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(file, content)| Op::Edit { file, content }),
        2 => (0u64..3, 0u64..20).prop_map(|(file, version)| Op::Ack { file, version }),
        2 => (0u64..3, 0u64..20).prop_map(|(file, base)| Op::Delta { file, base }),
        1 => (0u64..3).prop_map(|file| Op::Forget { file }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chains_stay_consistent(
        retention in 0usize..6,
        ops in prop::collection::vec(arb_op(), 0..64),
    ) {
        let mut store = VersionStore::new(retention);
        // Shadow model: the latest content we wrote per file.
        let mut latest_content: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for op in ops {
            match op {
                Op::Edit { file, content } => {
                    let v = store.record_edit(FileId::new(file), content.clone());
                    latest_content.insert(file, content);
                    // The returned version is always retrievable and holds
                    // exactly what we stored.
                    prop_assert_eq!(
                        store.content_of(FileId::new(file), v).unwrap(),
                        latest_content[&file].as_slice()
                    );
                }
                Op::Ack { file, version } => {
                    store.acknowledge(FileId::new(file), VersionNumber::new(version));
                }
                Op::Delta { file, base } => {
                    if let Some((base_v, codec, script)) =
                        store.delta_payload_from(FileId::new(file), VersionNumber::new(base))
                    {
                        // Any delta the store hands out reconstructs the
                        // latest content from the named base.
                        let base_content = store
                            .content_of(FileId::new(file), base_v)
                            .expect("delta implies retained base");
                        let rebuilt = match codec {
                            DeltaCodec::Line => apply_delta(base_content, &script)
                                .expect("store-produced script applies"),
                            DeltaCodec::Chunk => apply_chunk_delta(base_content, &script)
                                .expect("store-produced chunk delta applies"),
                        };
                        prop_assert_eq!(rebuilt, latest_content[&file].clone());
                    }
                }
                Op::Forget { file } => {
                    store.forget(FileId::new(file));
                    latest_content.remove(&file);
                }
            }
            // Invariants after every operation:
            for (&file, content) in &latest_content {
                let (latest, stored) = store
                    .latest(FileId::new(file))
                    .expect("tracked file has a latest");
                prop_assert_eq!(stored, content.as_slice());
                // Retention bound: latest + at most `retention` older
                // versions, +1 slack for a protected acked base.
                let count = store.retained(FileId::new(file)).count();
                prop_assert!(count <= retention + 2, "count {count}");
                // Acked never exceeds latest.
                if let Some(acked) = store.acked(FileId::new(file)) {
                    prop_assert!(acked <= latest);
                }
            }
        }
    }
}
