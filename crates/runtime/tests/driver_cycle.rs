//! End-to-end exercise of the drivers with no deployment at all: frames
//! are ferried between a `ClientDriver` and a server `Shard` by hand, and
//! time is a virtual clock. If this passes, every transport adapter only
//! has to move bytes.

use shadow_client::{ClientConfig, ClientNode, ConnId, FileRef, Notification};
use shadow_proto::{FileId, SubmitOptions};
use shadow_runtime::{
    ClientDriver, Clock, DriverEvent, PersistSink, Shard, ShardEvent, VirtualClock,
};
use shadow_server::{ServerConfig, ServerNode, SessionId};

struct Harness {
    client: ClientDriver,
    server: Shard<VirtualClock, Vec<Vec<u8>>, Box<dyn PersistSink>>,
    conn: ConnId,
    session: SessionId,
}

impl Harness {
    fn new() -> Self {
        let node = ServerNode::new(ServerConfig::new("sc"));
        let mut h = Harness {
            client: ClientDriver::new(ClientNode::new(ClientConfig::new("ws", 1))),
            server: Shard::new(node, None, VirtualClock::new()),
            conn: ConnId::new(0),
            session: SessionId::new(1),
        };
        let now = h.now();
        let out = h.client.connect(h.conn, now);
        assert!(
            h.server.writer_mut(h.session).is_none(),
            "connect is client-initiated: the session opens on its Hello"
        );
        h.ferry(out);
        h
    }

    fn now(&mut self) -> u64 {
        self.server.clock_mut().now_ms()
    }

    /// Moves frames back and forth (and fires due timers, advancing the
    /// virtual clock to each deadline) until the system quiesces.
    fn ferry(&mut self, mut client_out: Vec<shadow_runtime::ClientOutbound>) {
        loop {
            for o in client_out.drain(..) {
                let event = match self.server.writer_mut(self.session) {
                    Some(_) => ShardEvent::Frame(self.session, o.frame),
                    None => ShardEvent::Open(self.session, Vec::new(), o.frame),
                };
                self.server.step(Some(event), |_| 0);
                assert!(
                    self.server.writer_mut(self.session).is_some(),
                    "client frames decode"
                );
            }
            while let Some(deadline) = self.server.next_deadline() {
                self.server.clock_mut().advance_to(deadline);
                self.server.step(None, |_| 0);
            }
            let wire = self
                .server
                .writer_mut(self.session)
                .expect("session is live");
            let server_out = std::mem::take(wire);
            if server_out.is_empty() {
                return;
            }
            let now = self.now();
            for frame in server_out {
                let out = self
                    .client
                    .feed_frame(self.conn, &frame, now)
                    .expect("server frames decode");
                client_out.extend(out);
            }
            if client_out.is_empty() {
                return;
            }
        }
    }

    fn edit(&mut self, file: &FileRef, content: &[u8]) {
        let now = self.now();
        let (_, out) = self.client.edit_finished(file, content.to_vec(), now);
        self.ferry(out);
    }

    fn submit(&mut self, job: &FileRef, data: &[FileRef]) {
        let now = self.now();
        let (_, out) = self
            .client
            .submit(self.conn, job, data, SubmitOptions::default(), now)
            .expect("submit accepted");
        self.ferry(out);
    }
}

#[test]
fn handshake_then_job_completes() {
    let mut h = Harness::new();
    assert!(h
        .client
        .take_notification_matching(|n| matches!(n, Notification::SessionReady { .. }))
        .is_some());

    let job = FileRef::new(FileId::new(1), "ws:/hello.job");
    h.edit(&job, b"echo runtime\n");
    h.submit(&job, &[]);

    let done = h.client.take_finished();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].output, b"runtime\n");
    assert_eq!(done[0].stats.exit_code, 0);
    assert_eq!(h.server.report().counter("server", "jobs_completed"), 1);

    // The timer that ran the job went through the shard's queue.
    let s = h.server.report();
    assert!(s.counter("driver", "timers_armed") >= 1);
    assert_eq!(
        s.counter("driver", "timers_armed"),
        s.counter("driver", "timers_fired")
    );
    assert!(h.server.next_deadline().is_none());
}

#[test]
fn resubmission_travels_as_delta_and_stats_count_frames() {
    let mut h = Harness::new();
    let data = FileRef::new(FileId::new(2), "ws:/data");
    let job = FileRef::new(FileId::new(1), "ws:/job");
    let content: Vec<u8> = (0..500)
        .flat_map(|i| format!("row {i}\n").into_bytes())
        .collect();
    h.edit(&data, &content);
    h.edit(&job, b"wc ws:/data\n");
    h.submit(&job, std::slice::from_ref(&data));

    let mut edited = content;
    edited.extend_from_slice(b"one more\n");
    h.edit(&data, &edited);
    h.submit(&job, std::slice::from_ref(&data));

    assert_eq!(h.client.take_finished().len(), 2);
    let cs = h.client.report();
    assert_eq!(
        cs.counter("client", "deltas_sent"),
        1,
        "second upload is a delta: {cs:?}"
    );
    assert!(
        cs.counter("client", "fulls_sent") >= 2,
        "initial uploads were full: {cs:?}"
    );
    // Both sides agree about how many frames crossed each way.
    let ss = h.server.report();
    assert_eq!(
        cs.counter("driver", "frames_sent"),
        ss.counter("driver", "frames_received")
    );
    assert_eq!(
        cs.counter("driver", "bytes_sent"),
        ss.counter("driver", "bytes_received")
    );
    assert_eq!(
        ss.counter("driver", "frames_sent"),
        cs.counter("driver", "frames_received")
    );
}

#[test]
fn event_hook_sees_every_sent_frame() {
    use std::sync::{Arc, Mutex};

    let mut h = Harness::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&seen);
    h.client.set_event_hook(Box::new(move |e| {
        if let DriverEvent::FrameSent { frame, .. } = e {
            tap.lock().unwrap().push(frame.to_vec());
        }
    }));

    let job = FileRef::new(FileId::new(1), "ws:/j");
    h.edit(&job, b"echo tap\n");
    h.submit(&job, &[]);

    let frames = seen.lock().unwrap();
    let stats = h.client.report();
    // The hook was installed after the Hello, so it saw everything since.
    assert_eq!(
        frames.len() as u64 + 1,
        stats.counter("driver", "frames_sent")
    );
    assert!(frames.iter().all(|f| !f.is_empty()));
}

#[test]
fn notification_drain_accounting_agrees_across_both_paths() {
    // Regression: `take_notification_matching` once skipped the
    // `notifications_drained` bump that `take_notifications` performed,
    // so `notifications_pending()` never returned to zero after a
    // selective drain.
    let mut h = Harness::new();
    let job = FileRef::new(FileId::new(1), "ws:/n.job");
    h.edit(&job, b"echo notify\n");
    h.submit(&job, &[]);

    let r = h.client.report();
    let received = r.counter("driver", "notifications");
    assert!(
        received >= 2,
        "handshake + job should notify, got {received}"
    );
    assert_eq!(r.counter("driver", "notifications_drained"), 0);

    // A predicate that matches nothing is not a drain.
    assert!(h
        .client
        .take_notification_matching(|n| matches!(n, Notification::JobRejected { .. }))
        .is_none());
    assert_eq!(
        h.client.report().counter("driver", "notifications_drained"),
        0
    );

    // A selective drain counts exactly one...
    assert!(h
        .client
        .take_notification_matching(|n| matches!(n, Notification::SessionReady { .. }))
        .is_some());
    assert_eq!(
        h.client.report().counter("driver", "notifications_drained"),
        1
    );

    // ...and the bulk drain accounts for the rest, so the two paths agree
    // and nothing is left pending.
    let rest = h.client.take_notifications();
    let r = h.client.report();
    assert_eq!(
        r.counter("driver", "notifications_drained"),
        1 + rest.len() as u64
    );
    assert_eq!(
        r.counter("driver", "notifications"),
        r.counter("driver", "notifications_drained")
    );
}
