//! Direct state-machine conversations (no transport at all) and the cache
//! coherence property: after any sequence of edits with the message queues
//! drained, the server's cached content for every shadowed file equals the
//! client's latest version.

use proptest::prelude::*;
use shadow::prelude::*;
use shadow::{ClientEvent, ClientNode, ConnId, ServerEvent, ServerNode, SessionId};
use shadow_client::ClientAction;
use shadow_proto::{ClientMessage, FileId, ServerMessage};
use shadow_server::ServerAction;

/// Ferries messages between one client and one server until both queues
/// are empty, firing server timers immediately. Returns the number of
/// messages exchanged.
fn drain(
    client: &mut ClientNode,
    server: &mut ServerNode,
    conn: ConnId,
    session: SessionId,
    seed_to_server: Vec<ClientMessage>,
) -> usize {
    let mut to_server: Vec<ClientMessage> = seed_to_server;
    let mut to_client: Vec<ServerMessage> = Vec::new();
    let mut timers = Vec::new();
    let mut now_ms = 0u64;
    let mut exchanged = 0;

    let handle_client_actions = |actions: Vec<ClientAction>, to_server: &mut Vec<ClientMessage>| {
        for a in actions {
            if let ClientAction::Send { message, .. } = a {
                to_server.push(message);
            }
        }
    };
    let handle_server_actions =
        |actions: Vec<ServerAction>, to_client: &mut Vec<ServerMessage>, timers: &mut Vec<_>| {
            for a in actions {
                match a {
                    ServerAction::Send { message, .. } => to_client.push(message),
                    ServerAction::SetTimer { delay_ms, token } => timers.push((delay_ms, token)),
                    // This harness exercises the wire conversation only;
                    // durability is covered by the store/runtime tests.
                    ServerAction::Persist(_) => {}
                }
            }
        };

    loop {
        let mut progressed = false;
        for msg in std::mem::take(&mut to_server) {
            exchanged += 1;
            progressed = true;
            let actions = server.handle(ServerEvent::Message {
                session,
                message: msg,
                now_ms,
            });
            handle_server_actions(actions, &mut to_client, &mut timers);
        }
        for msg in std::mem::take(&mut to_client) {
            exchanged += 1;
            progressed = true;
            let actions = client.handle(ClientEvent::Message {
                conn,
                message: msg,
                now_ms,
            });
            handle_client_actions(actions, &mut to_server);
        }
        // Fire any due timers (simulated instantly).
        for (delay, token) in std::mem::take(&mut timers) {
            progressed = true;
            now_ms += delay;
            let actions = server.handle(ServerEvent::Timer { token, now_ms });
            handle_server_actions(actions, &mut to_client, &mut timers);
        }
        if !progressed {
            return exchanged;
        }
    }
}

fn handshake() -> (ClientNode, ServerNode, ConnId, SessionId) {
    let mut client = ClientNode::new(ClientConfig::new("ws", 1));
    let mut server = ServerNode::new(ServerConfig::new("sc"));
    let conn = ConnId::new(0);
    let session = SessionId::new(1);
    server.handle(ServerEvent::Connected { session, now_ms: 0 });
    let actions = client.connect(conn);
    let mut to_server = Vec::new();
    for a in actions {
        if let ClientAction::Send { message, .. } = a {
            to_server.push(message);
        }
    }
    for msg in to_server {
        let actions = server.handle(ServerEvent::Message {
            session,
            message: msg,
            now_ms: 0,
        });
        for a in actions {
            if let ServerAction::Send { message, .. } = a {
                client.handle(ClientEvent::Message {
                    conn,
                    message,
                    now_ms: 0,
                });
            }
        }
    }
    (client, server, conn, session)
}

#[test]
fn minimal_conversation_completes_a_job() {
    let (mut client, mut server, conn, session) = handshake();
    let job = FileRef::new(FileId::new(1), "ws:/j");
    client.edit_finished(&job, b"echo conversational\n".to_vec());
    let (_, actions) = client
        .submit(conn, &job, &[], SubmitOptions::default())
        .unwrap();
    let mut to_server = Vec::new();
    for a in actions {
        if let ClientAction::Send { message, .. } = a {
            to_server.push(message);
        }
    }
    let exchanged = drain(&mut client, &mut server, conn, session, to_server);
    assert!(exchanged > 0);
    assert_eq!(server.report().counter("server", "jobs_completed"), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// THE coherence invariant (§6.4): whatever sequence of editing
    /// sessions happens, once the network drains, the server's cache for
    /// each shadowed file digests identically to the client's latest
    /// version.
    #[test]
    fn cache_coherence_under_arbitrary_edit_sequences(
        edits in prop::collection::vec((0u64..3, prop::collection::vec(any::<u8>(), 0..200)), 1..24)
    ) {
        let (mut client, mut server, conn, session) = handshake();
        // Register up to three files and submit once so the server has
        // interest in each (job references them as data files).
        let files: Vec<FileRef> = (0..3)
            .map(|i| FileRef::new(FileId::new(i + 1), format!("ws:/f{i}")))
            .collect();
        let job = FileRef::new(FileId::new(99), "ws:/job");
        for f in &files {
            client.edit_finished(f, b"initial\ncontent\n".to_vec());
        }
        client.edit_finished(&job, b"echo ok\n".to_vec());
        let (_, actions) = client.submit(conn, &job, &files, SubmitOptions::default()).unwrap();
        let seed: Vec<ClientMessage> = actions
            .into_iter()
            .filter_map(|a| match a {
                ClientAction::Send { message, .. } => Some(message),
                _ => None,
            })
            .collect();
        drain(&mut client, &mut server, conn, session, seed);

        // Arbitrary interleaved editing sessions. Note: line-oriented
        // content (arbitrary bytes are fine — DocBuf handles any bytes).
        for (which, content) in edits {
            let f = &files[which as usize];
            let (_, actions) = client.edit_finished(f, content);
            let seed: Vec<ClientMessage> = actions
                .into_iter()
                .filter_map(|a| match a {
                    ClientAction::Send { message, .. } => Some(message),
                    _ => None,
                })
                .collect();
            drain(&mut client, &mut server, conn, session, seed);
        }

        // Coherence: the server's cached content digests identically to
        // the client's latest version of every shadowed file.
        for (i, f) in files.iter().enumerate() {
            let key = shadow::FileKey::new(shadow::DomainId::new(1), f.id);
            let cached = server.cached_digest(key);
            prop_assert!(cached.is_some(), "file {i} should be cached");
            prop_assert_eq!(
                cached, client.latest_digest(f.id),
                "file {} cache must equal the client's latest content", i
            );
        }
    }
}
