//! Layer replay: after the traced pass, re-time each layer's public
//! function on that pass's exact inputs, one call per cycle, reporting
//! mean µs per call and heap allocations per call.
//!
//! A layer the workload's cycle never calls (the chunk codec on text,
//! the store on a diskless deployment) reads 0.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use shadow::{
    apply_chunk_delta, apply_delta, choose_chunk_codec, chunk_delta_into, diff_docs, ClientMessage,
    ContentDigest, DeltaCodec, DiffAlgorithm, DiffScratch, DocBuf, DomainId, DurableStore, FileId,
    FileKey, Frame, JobId, PersistRecord, PersistSink, TransferEncoding, UpdatePayload,
    VersionNumber,
};

use crate::run::Metric;
use crate::workload::{Inputs, Workload, DATA_NAME};
use crate::{allocs, count_allocs, Error, ScratchDir};

/// The data file's id on the wire and in the store.
const DATA_FILE: FileId = FileId::new(2);
/// The job command file's id.
const JOB_FILE: FileId = FileId::new(1);

/// Time and allocations spent in one layer function.
#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    time: Duration,
    allocs: u64,
    calls: u64,
}

impl Layer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let allocs_before = allocs();
        let start = Instant::now();
        let result = black_box(f());
        self.time += start.elapsed();
        self.allocs += allocs() - allocs_before;
        self.calls += 1;
        result
    }

    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.time.as_secs_f64() * 1e6 / self.calls as f64
    }

    fn allocs_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.allocs as f64 / self.calls as f64
    }
}

/// The replayed layers, by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    line_delta: Layer,
    chunk_delta: Layer,
    line_apply: Layer,
    chunk_apply: Layer,
    output_delta: Layer,
    digest: Layer,
    frame: Layer,
    exec: Layer,
    persist: Layer,
}

impl Layers {
    fn named(&self) -> [(&'static str, &Layer); 9] {
        [
            ("diff.line_delta", &self.line_delta),
            ("diff.chunk_delta", &self.chunk_delta),
            ("diff.line_apply", &self.line_apply),
            ("diff.chunk_apply", &self.chunk_apply),
            ("diff.output_delta", &self.output_delta),
            ("proto.digest", &self.digest),
            ("proto.frame", &self.frame),
            ("server.exec", &self.exec),
            ("store.persist", &self.persist),
        ]
    }

    /// Mean µs per cycle of the work the server does between receiving
    /// the update and sending the job's completion: apply, digest check,
    /// exec, persist, output delta, and the update frame's codec.
    pub fn server_work_us(&self) -> f64 {
        [
            &self.line_apply,
            &self.chunk_apply,
            &self.digest,
            &self.exec,
            &self.persist,
            &self.output_delta,
            &self.frame,
        ]
        .iter()
        .map(|l| l.mean_us())
        .sum()
    }

    /// `<layer>_us` and `<layer>.allocs` for every layer.
    pub fn metrics(&self) -> Vec<Metric> {
        self.named()
            .into_iter()
            .flat_map(|(name, layer)| {
                [
                    Metric::new(format!("{name}_us"), layer.mean_us(), "us"),
                    Metric::new(format!("{name}.allocs"), layer.allocs_per_call(), "count"),
                ]
            })
            .collect()
    }
}

/// Re-times every layer over `cycles` cycles starting from `inputs`
/// (the generator as it stood before the traced pass's first cycle).
///
/// # Errors
///
/// A layer reproduced the wrong bytes, or the scratch store failed.
pub fn replay(workload: Workload, mut inputs: Inputs, cycles: usize) -> Result<Layers, Error> {
    let mut layers = Layers::default();
    let key = FileKey::new(DomainId::new(1), DATA_FILE);
    let mut store = None;
    if workload.durable() {
        let dir = ScratchDir::new("replay-store")?;
        let mut journal = DurableStore::open(dir.path())?;
        // The chain the cycle's delta records extend.
        journal.persist(&PersistRecord::CacheFull {
            key,
            version: VersionNumber::new(inputs.index() + 1),
            content: Bytes::copy_from_slice(inputs.current()),
        });
        store = Some((journal, dir));
    }
    let mut line_scratch = DiffScratch::new();
    let mut chunk_scratch = DiffScratch::new();
    let mut output_scratch = DiffScratch::new();
    let mut frame = Vec::new();
    let mut delta = Vec::new();
    count_allocs(true);
    for _ in 0..cycles {
        let base = inputs.current().to_vec();
        let base_version = VersionNumber::new(inputs.index() + 1);
        inputs.advance();
        let target = inputs.current();
        let version = VersionNumber::new(inputs.index() + 1);
        let base_doc = DocBuf::from_bytes(base.clone());
        let target_doc = DocBuf::from_bytes(target.to_vec());

        // The client's delta build and the server's apply, with the
        // codec the client's classifier picks.
        let codec = if choose_chunk_codec(&base_doc, &target_doc) {
            if layers.chunk_delta.calls == 0 {
                chunk_delta_into(&base, target, &mut chunk_scratch, &mut delta);
            }
            layers
                .chunk_delta
                .time(|| chunk_delta_into(&base, target, &mut chunk_scratch, &mut delta));
            let rebuilt = layers
                .chunk_apply
                .time(|| apply_chunk_delta(&base, &delta))?;
            check(rebuilt == target, "chunk delta")?;
            DeltaCodec::Chunk
        } else {
            if layers.line_delta.calls == 0 {
                diff_docs(
                    DiffAlgorithm::HuntMcIlroy,
                    &base_doc,
                    &target_doc,
                    &mut line_scratch,
                );
            }
            delta = layers.line_delta.time(|| {
                diff_docs(
                    DiffAlgorithm::HuntMcIlroy,
                    &base_doc,
                    &target_doc,
                    &mut line_scratch,
                )
                .to_text()
            });
            let rebuilt = layers.line_apply.time(|| apply_delta(&base, &delta))?;
            check(rebuilt == target, "line delta")?;
            DeltaCodec::Line
        };
        let digest = layers.digest.time(|| ContentDigest::of(target));

        let update = ClientMessage::Update {
            file: DATA_FILE,
            version,
            payload: UpdatePayload::Delta {
                base: base_version,
                codec,
                encoding: TransferEncoding::Identity,
                data: Bytes::copy_from_slice(&delta),
                digest,
            },
        };
        let decoded = layers.frame.time(|| {
            frame.clear();
            Frame::encode_into(&update, &mut frame);
            Frame::decode::<ClientMessage>(&frame)
        })?;
        check(decoded.is_some_and(|(m, _)| m == update), "update frame")?;

        let resolve = |name: &str| (name == DATA_NAME).then(|| target.to_vec());
        let outcome = layers
            .exec
            .time(|| shadow::exec::run_job(workload.job(), &resolve));
        check(
            outcome.output == workload.expected_output(target),
            "job output",
        )?;

        if workload.shadow_output() {
            let old_output = DocBuf::from_bytes(workload.expected_output(&base));
            let new_output = DocBuf::from_bytes(outcome.output.clone());
            if layers.output_delta.calls == 0 {
                diff_docs(
                    DiffAlgorithm::HuntMcIlroy,
                    &old_output,
                    &new_output,
                    &mut output_scratch,
                );
            }
            layers.output_delta.time(|| {
                diff_docs(
                    DiffAlgorithm::HuntMcIlroy,
                    &old_output,
                    &new_output,
                    &mut output_scratch,
                )
                .to_text()
            });
        }
        if let Some((store, _)) = &mut store {
            let records = [
                PersistRecord::CacheDelta {
                    key,
                    version,
                    base: base_version,
                    codec,
                    script: Bytes::copy_from_slice(&delta),
                    digest,
                },
                PersistRecord::Output {
                    domain: key.domain,
                    job_file: JOB_FILE,
                    job: JobId::new(inputs.index()),
                    content: Bytes::from(outcome.output),
                },
            ];
            layers.persist.time(|| {
                for record in &records {
                    store.persist(record);
                }
            });
        }
    }
    count_allocs(false);
    if let Some((store, _)) = &store {
        let io_errors = store.section().get("io_errors").and_then(|v| v.as_u64());
        check(io_errors == Some(0), "scratch store writes")?;
    }
    Ok(layers)
}

fn check(ok: bool, what: &str) -> Result<(), Error> {
    if ok {
        Ok(())
    } else {
        Err(format!("layer replay: {what} did not reproduce the cycle's bytes").into())
    }
}
