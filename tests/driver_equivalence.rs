//! Property-based transport equivalence: a randomly generated
//! edit/submit/resubmit script replayed through the [`Simulation`] and
//! through a pipes [`Deployment`] (one shard) must put the *identical
//! byte sequence* of client→server frames on the wire and produce
//! identical job outputs.
//!
//! Both are adapters over the same `shadow-runtime` drivers, so any
//! divergence here means an adapter is reordering, dropping, or
//! re-encoding traffic. Client→server frames carry no timestamps, which
//! makes byte equality meaningful; server→client frames embed job stats
//! and are compared only through the outputs they deliver.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use shadow::prelude::*;
use shadow::DriverEvent;

/// One step of the script: mutate `/data` this way, then submit.
#[derive(Debug, Clone, Copy)]
struct EditOp {
    replace: bool,
    idx: u64,
}

const LINES: u64 = 200;

fn base_content() -> Vec<u8> {
    (0..LINES)
        .map(|i| format!("entry {i} = {}\n", i * 31 % 1000))
        .collect::<String>()
        .into_bytes()
}

fn apply(cur: &mut Vec<u8>, op: EditOp) {
    let text = String::from_utf8(cur.clone()).unwrap();
    let idx = op.idx % LINES;
    let next = if op.replace {
        text.replace(&format!("entry {idx} ="), &format!("ENTRY {idx} ="))
    } else {
        format!("{text}entry {} = appended\n", LINES + idx)
    };
    *cur = next.into_bytes();
}

/// Captures the bytes of every frame a client driver sends.
fn tap() -> (Arc<Mutex<Vec<Vec<u8>>>>, shadow::EventHook) {
    let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let hook: shadow::EventHook = Box::new(move |e| {
        if let DriverEvent::FrameSent { frame, .. } = e {
            sink.lock().unwrap().push(frame.to_vec());
        }
    });
    (seen, hook)
}

/// What one deployment produced: the wire bytes, the job outputs, and
/// the observability reports of both endpoints.
struct WorldResult {
    frames: Vec<Vec<u8>>,
    outputs: Vec<Vec<u8>>,
    client_report: NodeReport,
    server_report: NodeReport,
}

fn run_sim(script: &[EditOp]) -> WorldResult {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("sc", ServerConfig::new("sc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::cypress()).unwrap();
    // Installed after connect so that, like the live client (whose Hello
    // is sent inside the constructor), the tap starts after the Hello.
    let (frames, hook) = tap();
    sim.set_client_event_hook(client, hook);

    let mut content = base_content();
    let v0 = content.clone();
    sim.edit_file(client, "/data", move |_| v0.clone()).unwrap();
    let name = sim.canonical_name(client, "/data").unwrap();
    sim.edit_file(client, "/run.job", move |_| {
        format!("grep ENTRY {name}\n").into_bytes()
    })
    .unwrap();

    for op in script {
        apply(&mut content, *op);
        let v = content.clone();
        sim.edit_file(client, "/data", move |_| v.clone()).unwrap();
        sim.submit(
            client,
            conn,
            "/run.job",
            &["/data"],
            SubmitOptions::default(),
        )
        .unwrap();
        sim.run_until_quiet();
    }
    let outputs = sim
        .finished_jobs(client)
        .iter()
        .map(|j| j.output.clone())
        .collect();
    let client_report = sim.client_report(client);
    // Mirror the live run's teardown (client drop → orderly hang-up)
    // so close-reason accounting matches world to world.
    sim.close_connection(client, server);
    let server_report = sim.server_report(server);
    let frames = frames.lock().unwrap().clone();
    WorldResult {
        frames,
        outputs,
        client_report,
        server_report,
    }
}

fn run_live(script: &[EditOp]) -> WorldResult {
    let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
    let mut client = system.connect_client(ClientConfig::new("ws", 1));
    let (frames, hook) = tap();
    client.set_event_hook(hook);
    client.wait_ready(Duration::from_secs(5)).unwrap();

    // Mirror the simulation's vfs-derived file ids so both worlds name
    // identical files on the wire.
    let data = FileRef::new(id_for("ws", "/data"), "ws:/data");
    let job = FileRef::new(id_for("ws", "/run.job"), "ws:/run.job");
    let mut content = base_content();
    client.edit_finished(&data, content.clone());
    client.edit_finished(&job, b"grep ENTRY ws:/data\n".to_vec());

    let mut outputs = Vec::new();
    for op in script {
        apply(&mut content, *op);
        client.edit_finished(&data, content.clone());
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .unwrap();
        let (_, output, _, _) = client.wait_job(Duration::from_secs(10)).unwrap();
        outputs.push(output);
    }
    let client_report = client.report();
    drop(client);
    let server_report = system.shutdown().remove(0).report();
    let frames = frames.lock().unwrap().clone();
    WorldResult {
        frames,
        outputs,
        client_report,
        server_report,
    }
}

fn id_for(host: &str, path: &str) -> FileId {
    let digest = ContentDigest::of(format!("{host}\u{0}{path}").as_bytes());
    FileId::new(digest.as_u64())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sim_and_live_put_identical_frames_on_the_wire(
        script in prop::collection::vec(
            (any::<bool>(), 0u64..LINES).prop_map(|(replace, idx)| EditOp { replace, idx }),
            1..4,
        ),
    ) {
        let sim_world = run_sim(&script);
        let live_world = run_live(&script);
        prop_assert_eq!(
            sim_world.frames.len(),
            live_world.frames.len(),
            "frame count diverged for {:?}",
            script
        );
        for (i, (s, l)) in sim_world.frames.iter().zip(&live_world.frames).enumerate() {
            prop_assert_eq!(s, l, "frame {} diverged for {:?}", i, script);
        }
        prop_assert_eq!(&sim_world.outputs, &live_world.outputs);

        // The unified NodeReport surface must tell the same story in both
        // worlds: identical protocol behaviour section by section. (The
        // "driver" section is deployment mechanics — notification drain
        // order and server->client frame sizes legitimately differ — so
        // only the protocol-level sections are compared.)
        for section in ["client", "versions"] {
            prop_assert_eq!(
                sim_world.client_report.section(section),
                live_world.client_report.section(section),
                "client report section {:?} diverged for {:?}",
                section,
                script
            );
        }
        for section in ["server", "cache"] {
            prop_assert_eq!(
                sim_world.server_report.section(section),
                live_world.server_report.section(section),
                "server report section {:?} diverged for {:?}",
                section,
                script
            );
        }
    }
}
