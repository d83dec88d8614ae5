//! Robustness: the client state machine must never panic on arbitrary
//! (well-typed but bogus) server messages — update requests for unknown
//! files, completions of unknown jobs, output deltas against absent
//! bases, acks for versions never sent.

use bytes::Bytes;
use proptest::prelude::*;
use shadow_client::{ClientConfig, ClientEvent, ClientNode, ConnId, FileRef};
use shadow_proto::{
    ContentDigest, DeltaCodec, FileId, HostName, JobId, JobStats, JobStatus, JobStatusEntry,
    OutputPayload, RequestId, ServerMessage, SubmitOptions, TransferEncoding, VersionNumber,
    PROTOCOL_VERSION,
};

fn arb_encoding() -> impl Strategy<Value = TransferEncoding> {
    prop_oneof![
        Just(TransferEncoding::Identity),
        Just(TransferEncoding::Lzss),
    ]
}

fn arb_output() -> impl Strategy<Value = OutputPayload> {
    prop_oneof![
        (arb_encoding(), prop::collection::vec(any::<u8>(), 0..128)).prop_map(
            |(encoding, data)| OutputPayload::Full {
                encoding,
                data: Bytes::from(data),
            }
        ),
        (
            0u64..8,
            prop_oneof![Just(DeltaCodec::Line), Just(DeltaCodec::Chunk)],
            arb_encoding(),
            prop::collection::vec(any::<u8>(), 0..128),
            any::<u64>()
        )
            .prop_map(|(job, codec, encoding, data, d)| OutputPayload::Delta {
                base_job: JobId::new(job),
                codec,
                encoding,
                data: Bytes::from(data),
                digest: ContentDigest::from_raw(d),
            }),
    ]
}

fn arb_status() -> impl Strategy<Value = JobStatus> {
    prop_oneof![
        Just(JobStatus::Queued),
        Just(JobStatus::Running),
        Just(JobStatus::Completed),
        Just(JobStatus::Unknown),
    ]
}

fn arb_retained() -> impl Strategy<Value = Vec<(FileId, VersionNumber)>> {
    prop::collection::vec(
        (0u64..6, 0u64..5).prop_map(|(f, v)| (FileId::new(f), VersionNumber::new(v))),
        0..4,
    )
}

fn arb_message() -> impl Strategy<Value = ServerMessage> {
    prop_oneof![
        ("[a-z]{1,6}", any::<bool>(), arb_retained()).prop_map(|(s, resumed, retained)| {
            ServerMessage::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: HostName::new(s),
                resumed,
                retained,
            }
        }),
        any::<u64>().prop_map(|nonce| ServerMessage::Pong { nonce }),
        (0u64..6, prop::option::of(0u64..5)).prop_map(|(f, have)| ServerMessage::UpdateRequest {
            file: FileId::new(f),
            have: have.map(VersionNumber::new),
        }),
        (0u64..6, 0u64..8).prop_map(|(f, v)| ServerMessage::VersionAck {
            file: FileId::new(f),
            version: VersionNumber::new(v),
        }),
        (any::<u64>(), 0u64..8).prop_map(|(r, j)| ServerMessage::SubmitAck {
            request: RequestId::new(r),
            job: JobId::new(j),
        }),
        (any::<u64>(), "[ -~]{0,24}").prop_map(|(r, reason)| ServerMessage::SubmitError {
            request: RequestId::new(r),
            reason,
        }),
        (any::<u64>(), prop::collection::vec((0u64..8, arb_status()), 0..4)).prop_map(
            |(r, entries)| ServerMessage::StatusReport {
                request: RequestId::new(r),
                entries: entries
                    .into_iter()
                    .map(|(j, status)| JobStatusEntry {
                        job: JobId::new(j),
                        status,
                        submitted_at_ms: 0,
                    })
                    .collect(),
            }
        ),
        (0u64..8, arb_output(), prop::collection::vec(any::<u8>(), 0..32)).prop_map(
            |(j, output, errors)| ServerMessage::JobComplete {
                job: JobId::new(j),
                output,
                errors: Bytes::from(errors),
                stats: JobStats::default(),
            }
        ),
        Just(ServerMessage::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn client_survives_arbitrary_server_messages(
        messages in prop::collection::vec(arb_message(), 0..48),
        edits in prop::collection::vec((0u64..3, prop::collection::vec(any::<u8>(), 0..64)), 0..8),
    ) {
        let mut client = ClientNode::new(ClientConfig::new("ws", 1));
        let conn = ConnId::new(0);
        client.connect(conn);
        // Interleave some legitimate local activity so internal state is
        // non-trivial when the bogus messages land.
        let mut edits = edits.into_iter();
        for (i, message) in messages.into_iter().enumerate() {
            if i % 3 == 0 {
                if let Some((which, content)) = edits.next() {
                    let f = FileRef::new(FileId::new(which + 1), format!("ws:/f{which}"));
                    client.edit_finished(&f, content);
                    // A submit may legitimately fail before HelloAck.
                    let _ = client.submit(conn, &f, &[], SubmitOptions::default());
                }
            }
            if i % 7 == 6 {
                // Link churn at arbitrary points must never panic.
                client.handle(ClientEvent::LinkDown { conn, now_ms: i as u64 });
                client.handle(ClientEvent::Resume { conn, now_ms: i as u64 });
            }
            client.handle(ClientEvent::Message {
                conn,
                message,
                now_ms: i as u64,
            });
        }
    }

    #[test]
    fn client_survives_messages_on_unknown_connections(
        messages in prop::collection::vec((0u64..4, arb_message()), 0..32),
    ) {
        let mut client = ClientNode::new(ClientConfig::new("ws", 1));
        // No connect() at all: every message references an unknown conn.
        for (i, (conn, message)) in messages.into_iter().enumerate() {
            client.handle(ClientEvent::Message {
                conn: ConnId::new(conn),
                message,
                now_ms: i as u64,
            });
        }
    }
}
