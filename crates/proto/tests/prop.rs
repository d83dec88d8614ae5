//! Property tests: every message round-trips through the wire codec, and
//! the decoder never panics on arbitrary input.

use bytes::Bytes;
use proptest::prelude::*;
use shadow_proto::{
    ClientMessage, ContentDigest, DeltaCodec, DomainId, FileId, Frame, HostName, JobId, JobStats,
    JobStatus, JobStatusEntry, OutputPayload, RequestId, ResumeEntry, ServerMessage,
    SubmitOptions, TransferEncoding, UpdatePayload, VersionNumber,
};

fn arb_encoding() -> impl Strategy<Value = TransferEncoding> {
    prop_oneof![
        Just(TransferEncoding::Identity),
        Just(TransferEncoding::Lzss),
    ]
}

fn arb_codec() -> impl Strategy<Value = DeltaCodec> {
    prop_oneof![Just(DeltaCodec::Line), Just(DeltaCodec::Chunk)]
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..256).prop_map(Bytes::from)
}

fn arb_update_payload() -> impl Strategy<Value = UpdatePayload> {
    prop_oneof![
        (arb_encoding(), arb_bytes(), any::<u64>()).prop_map(|(encoding, data, d)| {
            UpdatePayload::Full {
                encoding,
                data,
                digest: ContentDigest::from_raw(d),
            }
        }),
        (
            any::<u64>(),
            arb_codec(),
            arb_encoding(),
            arb_bytes(),
            any::<u64>()
        )
            .prop_map(|(base, codec, encoding, data, d)| UpdatePayload::Delta {
                base: VersionNumber::new(base),
                codec,
                encoding,
                data,
                digest: ContentDigest::from_raw(d),
            }),
    ]
}

fn arb_output_payload() -> impl Strategy<Value = OutputPayload> {
    prop_oneof![
        (arb_encoding(), arb_bytes())
            .prop_map(|(encoding, data)| OutputPayload::Full { encoding, data }),
        (
            any::<u64>(),
            arb_codec(),
            arb_encoding(),
            arb_bytes(),
            any::<u64>()
        )
            .prop_map(|(job, codec, encoding, data, d)| OutputPayload::Delta {
                base_job: JobId::new(job),
                codec,
                encoding,
                data,
                digest: ContentDigest::from_raw(d),
            }),
    ]
}

fn arb_options() -> impl Strategy<Value = SubmitOptions> {
    (
        prop::option::of("[a-z./]{0,16}"),
        prop::option::of("[a-z./]{0,16}"),
        prop::option::of("[a-z.]{1,12}"),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(
            |(output_file, error_file, deliver_to, priority, shadow_output)| SubmitOptions {
                output_file,
                error_file,
                deliver_to: deliver_to.map(HostName::new),
                priority,
                shadow_output,
            },
        )
}

fn arb_status() -> impl Strategy<Value = JobStatus> {
    prop_oneof![
        Just(JobStatus::Queued),
        Just(JobStatus::WaitingForFiles),
        Just(JobStatus::Running),
        Just(JobStatus::Completed),
        Just(JobStatus::Failed),
        Just(JobStatus::Unknown),
    ]
}

fn arb_client_message() -> impl Strategy<Value = ClientMessage> {
    prop_oneof![
        (
            any::<u64>(),
            "[a-z0-9.]{1,20}",
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..6)
        )
            .prop_map(|(d, h, p, epoch, resume)| ClientMessage::Hello {
                domain: DomainId::new(d),
                host: HostName::new(h),
                protocol: p,
                epoch,
                resume: resume
                    .into_iter()
                    .map(|(f, v, dg)| ResumeEntry {
                        file: FileId::new(f),
                        version: VersionNumber::new(v),
                        digest: ContentDigest::from_raw(dg),
                    })
                    .collect(),
            }),
        any::<u64>().prop_map(|nonce| ClientMessage::Ping { nonce }),
        (any::<u64>(), "[ -~]{0,40}", any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(f, name, v, size, dg)| ClientMessage::NotifyVersion {
                file: FileId::new(f),
                name,
                version: VersionNumber::new(v),
                size,
                digest: ContentDigest::from_raw(dg),
            }
        ),
        (any::<u64>(), any::<u64>(), arb_update_payload()).prop_map(|(f, v, payload)| {
            ClientMessage::Update {
                file: FileId::new(f),
                version: VersionNumber::new(v),
                payload,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
            arb_options()
        )
            .prop_map(|(r, jf, jv, files, options)| ClientMessage::Submit {
                request: RequestId::new(r),
                job_file: FileId::new(jf),
                job_version: VersionNumber::new(jv),
                data_files: files
                    .into_iter()
                    .map(|(f, v)| (FileId::new(f), VersionNumber::new(v)))
                    .collect(),
                options,
            }),
        (any::<u64>(), prop::option::of(any::<u64>())).prop_map(|(r, j)| {
            ClientMessage::StatusQuery {
                request: RequestId::new(r),
                job: j.map(JobId::new),
            }
        }),
        any::<u64>().prop_map(|j| ClientMessage::OutputAck { job: JobId::new(j) }),
        Just(ClientMessage::Bye),
    ]
}

fn arb_server_message() -> impl Strategy<Value = ServerMessage> {
    prop_oneof![
        (
            any::<u32>(),
            "[a-z0-9.]{1,20}",
            any::<bool>(),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..6)
        )
            .prop_map(|(p, s, resumed, retained)| ServerMessage::HelloAck {
                protocol: p,
                server: HostName::new(s),
                resumed,
                retained: retained
                    .into_iter()
                    .map(|(f, v)| (FileId::new(f), VersionNumber::new(v)))
                    .collect(),
            }),
        any::<u64>().prop_map(|nonce| ServerMessage::Pong { nonce }),
        (any::<u64>(), prop::option::of(any::<u64>())).prop_map(|(f, have)| {
            ServerMessage::UpdateRequest {
                file: FileId::new(f),
                have: have.map(VersionNumber::new),
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(f, v)| ServerMessage::VersionAck {
            file: FileId::new(f),
            version: VersionNumber::new(v),
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(r, j)| ServerMessage::SubmitAck {
            request: RequestId::new(r),
            job: JobId::new(j),
        }),
        (any::<u64>(), "[ -~]{0,60}").prop_map(|(r, reason)| ServerMessage::SubmitError {
            request: RequestId::new(r),
            reason,
        }),
        (
            any::<u64>(),
            prop::collection::vec((any::<u64>(), arb_status(), any::<u64>()), 0..8)
        )
            .prop_map(|(r, entries)| ServerMessage::StatusReport {
                request: RequestId::new(r),
                entries: entries
                    .into_iter()
                    .map(|(j, status, t)| JobStatusEntry {
                        job: JobId::new(j),
                        status,
                        submitted_at_ms: t,
                    })
                    .collect(),
            }),
        (
            any::<u64>(),
            arb_output_payload(),
            arb_bytes(),
            any::<[u64; 4]>(),
            any::<i32>()
        )
            .prop_map(|(j, output, errors, t, exit)| ServerMessage::JobComplete {
                job: JobId::new(j),
                output,
                errors,
                stats: JobStats {
                    queued_ms: t[0],
                    waiting_ms: t[1],
                    running_ms: t[2],
                    output_bytes: t[3],
                    exit_code: exit,
                },
            }),
        Just(ServerMessage::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn client_messages_round_trip(msg in arb_client_message()) {
        let bytes = Frame::encode(&msg);
        let (decoded, used) = Frame::decode::<ClientMessage>(&bytes).unwrap().unwrap();
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn server_messages_round_trip(msg in arb_server_message()) {
        let bytes = Frame::encode(&msg);
        let (decoded, used) = Frame::decode::<ServerMessage>(&bytes).unwrap().unwrap();
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn decoder_never_panics_on_junk(junk in prop::collection::vec(any::<u8>(), 0..128)) {
        // Any outcome (incomplete / decoded / error) is fine; a panic is not.
        let _ = Frame::decode::<ClientMessage>(&junk);
        let _ = Frame::decode::<ServerMessage>(&junk);
    }

    #[test]
    fn corrupted_valid_frame_never_panics(
        msg in arb_client_message(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        // Valid frames with a few bytes flipped exercise decode paths far
        // deeper than pure byte soup (tags and length fields are mostly
        // plausible). Any Result is fine; a panic is not.
        let mut bytes = Frame::encode(&msg);
        for (pos, val) in flips {
            let idx = pos % bytes.len();
            bytes[idx] = val;
        }
        let _ = Frame::decode::<ClientMessage>(&bytes);
        let _ = Frame::decode::<ServerMessage>(&bytes);
    }

    #[test]
    fn truncation_of_valid_frame_never_panics(msg in arb_client_message(), keep in 0usize..64) {
        let bytes = Frame::encode(&msg);
        let cut = keep.min(bytes.len());
        let result = Frame::decode::<ClientMessage>(&bytes[..cut]);
        if cut < bytes.len() {
            // A strict prefix either reports "incomplete" or a hard error
            // (never a bogus success).
            if let Ok(Some(_)) = result {
                prop_assert!(false, "decoded a message from a strict prefix");
            }
        }
    }
}
