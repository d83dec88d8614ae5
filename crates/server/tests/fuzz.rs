//! Robustness: the server state machine must never panic, whatever
//! (well-typed but arbitrarily bogus) message sequence a client throws at
//! it — wrong versions, random deltas against absent bases, submissions
//! of unknown files, acks for unknown jobs, messages before hello.

use bytes::Bytes;
use proptest::prelude::*;
use shadow_proto::{
    ClientMessage, ContentDigest, DeltaCodec, DomainId, FileId, HostName, JobId, RequestId,
    ResumeEntry, SubmitOptions, TransferEncoding, UpdatePayload, VersionNumber, PROTOCOL_VERSION,
};
use shadow_server::{CloseReason, ServerConfig, ServerEvent, ServerNode, SessionId};

fn arb_encoding() -> impl Strategy<Value = TransferEncoding> {
    prop_oneof![
        Just(TransferEncoding::Identity),
        Just(TransferEncoding::Lzss),
    ]
}

fn arb_payload() -> impl Strategy<Value = UpdatePayload> {
    prop_oneof![
        (
            arb_encoding(),
            prop::collection::vec(any::<u8>(), 0..128),
            any::<u64>()
        )
            .prop_map(|(encoding, data, d)| UpdatePayload::Full {
                encoding,
                data: Bytes::from(data),
                digest: ContentDigest::from_raw(d),
            }),
        (
            0u64..4,
            prop_oneof![Just(DeltaCodec::Line), Just(DeltaCodec::Chunk)],
            arb_encoding(),
            prop::collection::vec(any::<u8>(), 0..128),
            any::<u64>()
        )
            .prop_map(|(base, codec, encoding, data, d)| UpdatePayload::Delta {
                base: VersionNumber::new(base),
                codec,
                encoding,
                data: Bytes::from(data),
                digest: ContentDigest::from_raw(d),
            }),
    ]
}

fn arb_resume() -> impl Strategy<Value = Vec<ResumeEntry>> {
    prop::collection::vec(
        (0u64..6, 0u64..4, any::<u64>()).prop_map(|(f, v, d)| ResumeEntry {
            file: FileId::new(f),
            version: VersionNumber::new(v),
            digest: ContentDigest::from_raw(d),
        }),
        0..4,
    )
}

fn arb_message() -> impl Strategy<Value = ClientMessage> {
    prop_oneof![
        (0u64..3, "[a-z]{1,6}", 0u64..4, arb_resume()).prop_map(|(d, h, epoch, resume)| {
            ClientMessage::Hello {
                domain: DomainId::new(d),
                host: HostName::new(h),
                protocol: PROTOCOL_VERSION,
                epoch,
                resume,
            }
        }),
        any::<u64>().prop_map(|nonce| ClientMessage::Ping { nonce }),
        (0u64..6, "[ -~]{0,16}", 0u64..6, any::<u64>(), any::<u64>()).prop_map(
            |(f, name, v, size, dg)| ClientMessage::NotifyVersion {
                file: FileId::new(f),
                name,
                version: VersionNumber::new(v),
                size,
                digest: ContentDigest::from_raw(dg),
            }
        ),
        (0u64..6, 0u64..6, arb_payload()).prop_map(|(f, v, payload)| ClientMessage::Update {
            file: FileId::new(f),
            version: VersionNumber::new(v),
            payload,
        }),
        (
            any::<u64>(),
            0u64..6,
            0u64..4,
            prop::collection::vec((0u64..6, 0u64..4), 0..4),
            any::<u8>(),
            any::<bool>()
        )
            .prop_map(|(r, jf, jv, files, priority, shadow_output)| {
                ClientMessage::Submit {
                    request: RequestId::new(r),
                    job_file: FileId::new(jf),
                    job_version: VersionNumber::new(jv),
                    data_files: files
                        .into_iter()
                        .map(|(f, v)| (FileId::new(f), VersionNumber::new(v)))
                        .collect(),
                    options: SubmitOptions {
                        priority,
                        shadow_output,
                        ..SubmitOptions::default()
                    },
                }
            }),
        (any::<u64>(), prop::option::of(0u64..8)).prop_map(|(r, j)| ClientMessage::StatusQuery {
            request: RequestId::new(r),
            job: j.map(JobId::new),
        }),
        (0u64..8).prop_map(|j| ClientMessage::OutputAck { job: JobId::new(j) }),
        Just(ClientMessage::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn server_survives_arbitrary_message_sequences(
        messages in prop::collection::vec((0u64..3, arb_message()), 0..48),
        cache_budget in 1usize..10_000,
    ) {
        let mut server = ServerNode::new(
            ServerConfig::new("sc").with_cache_budget(cache_budget),
        );
        let mut pending_timers = Vec::new();
        let mut now_ms = 0u64;
        for (session, message) in messages {
            now_ms += 1;
            let actions = server.handle(ServerEvent::Message {
                session: SessionId::new(session),
                message,
                now_ms,
            });
            for a in actions {
                if let shadow_server::ServerAction::SetTimer { delay_ms, token } = a {
                    pending_timers.push((delay_ms, token));
                }
            }
            // Fire timers promptly so jobs progress mid-sequence.
            for (delay, token) in std::mem::take(&mut pending_timers) {
                now_ms += delay;
                let more = server.handle(ServerEvent::Timer { token, now_ms });
                for a in more {
                    if let shadow_server::ServerAction::SetTimer { delay_ms, token } = a {
                        pending_timers.push((delay_ms, token));
                    }
                }
            }
        }
        // Post-condition: counters are consistent.
        let m = server.report();
        let applied = m.counter("server", "full_updates") + m.counter("server", "delta_updates");
        let failures = m.counter("server", "update_failures");
        prop_assert!(applied >= failures.saturating_sub(failures));
    }

    #[test]
    fn server_survives_sessions_vanishing_at_any_point(
        script in prop::collection::vec((prop::option::of(0usize..5), arb_message()), 0..32),
    ) {
        let reasons = [
            CloseReason::Clean,
            CloseReason::Error,
            CloseReason::Decode,
            CloseReason::Idle,
            CloseReason::Shutdown,
        ];
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        let session = SessionId::new(1);
        for (now_ms, (disconnect, message)) in script.into_iter().enumerate() {
            let now_ms = now_ms as u64;
            if let Some(r) = disconnect {
                server.handle(ServerEvent::Disconnected {
                    session,
                    reason: reasons[r],
                    now_ms,
                });
            }
            server.handle(ServerEvent::Message {
                session,
                message,
                now_ms,
            });
        }
    }
}
