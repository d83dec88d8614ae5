//! Micro-benchmarks (Criterion, real CPU time): the hot paths a production
//! deployment cares about — wire codec, compressor, content digest, the
//! diff pipeline, and the end-to-end in-memory protocol round trip.
//!
//! The JSON export re-times the headline operations with a plain timer
//! **and a counting global allocator**, so every row carries
//! `allocs_per_op` next to `ns_per_op` — the diff rows must stay
//! allocation-light, not only fast.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, Criterion, Throughput};
use shadow::{
    apply_chunk_delta, apply_delta, chunk_delta_into, diff_docs, ClientMessage, ContentDigest,
    DiffAlgorithm, DiffScratch, DocBuf, DomainId, EditModel, FileId, FileSpec, Frame, HostName,
    TransferEncoding, UpdatePayload, VersionNumber, VersionStore,
};

/// Pass-through allocator that counts every allocation (and growth
/// realloc), so the exported rows can report `allocs_per_op` — the number
/// the zero-copy pipeline is designed to drive to zero in steady state.
#[derive(Debug)]
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let payload = shadow::generate_file(&FileSpec::new(100_000, 1));
    let digest = ContentDigest::of(&payload);
    let msg = ClientMessage::Update {
        file: FileId::new(7),
        version: VersionNumber::new(3),
        payload: UpdatePayload::Full {
            encoding: TransferEncoding::Identity,
            data: bytes::Bytes::from(payload.clone()),
            digest,
        },
    };
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("encode_update_100k", |b| b.iter(|| Frame::encode(&msg)));
    let frame = Frame::encode(&msg);
    group.bench_function("decode_update_100k", |b| {
        b.iter(|| Frame::decode::<ClientMessage>(&frame).unwrap().unwrap())
    });
    let hello = ClientMessage::Hello {
        domain: DomainId::new(1),
        host: HostName::new("ws1"),
        protocol: 1,
        epoch: 0,
        resume: Vec::new(),
    };
    group.bench_function("encode_hello", |b| b.iter(|| Frame::encode(&hello)));
    group.finish();
}

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress");
    let text = shadow::generate_file(&FileSpec::new(100_000, 2));
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("lzss_compress_100k", |b| {
        b.iter(|| shadow::compress(&text))
    });
    let packed = shadow::compress(&text);
    group.bench_function("lzss_decompress_100k", |b| {
        b.iter(|| shadow::decompress(&packed).unwrap())
    });
    group.finish();
}

fn bench_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("digest");
    let data = shadow::generate_file(&FileSpec::new(500_000, 3));
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("fnv_500k", |b| b.iter(|| ContentDigest::of(&data)));
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    use shadow::{profiles, ClientConfig, CpuModel, ServerConfig, Simulation, SubmitOptions};
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("sim_cycle_20k_lan", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1).with_cpu(CpuModel::instant());
            let server = sim.add_server("sc", ServerConfig::new("sc"));
            let client = sim.add_client("ws", ClientConfig::new("ws", 1));
            let conn = sim.connect(client, server, profiles::lan()).unwrap();
            let content = shadow::generate_file(&FileSpec::new(20_000, 4));
            sim.edit_file(client, "/d", move |_| content.clone()).unwrap();
            let name = sim.canonical_name(client, "/d").unwrap();
            sim.edit_file(client, "/j", move |_| format!("wc {name}\n").into_bytes())
                .unwrap();
            sim.submit(client, conn, "/j", &["/d"], SubmitOptions::default())
                .unwrap();
            sim.run_until_quiet();
            assert_eq!(sim.finished_jobs(client).len(), 1);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_compress, bench_digest, bench_end_to_end);

/// Times `f` over `iters` calls, returning mean nanoseconds per call and
/// mean heap allocations per call. Every result must flow through
/// [`black_box`] inside `f`, or the optimizer deletes the work and the
/// row reports constant-fold time (as the digest row once famously did).
fn measure(iters: u32, mut f: impl FnMut()) -> (f64, f64) {
    let alloc_start = ALLOCS.load(Ordering::Relaxed);
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(iters.max(1));
    let allocs = ALLOCS.load(Ordering::Relaxed) - alloc_start;
    (ns, allocs as f64 / f64::from(iters.max(1)))
}

/// A 100 KB file with one small edit in the middle: the steady-state
/// resubmission shape the zero-copy pipeline optimizes for.
fn small_edit_pair() -> (Vec<u8>, Vec<u8>) {
    let base = shadow::generate_file(&FileSpec::new(100_000, 7));
    let edited = EditModel::fraction(0.001, 8).apply(&base);
    assert_ne!(base, edited, "edit model produced no change");
    (base, edited)
}

/// A 10 MB blob with a 1 KB splice in the middle — the shape that defeats
/// the line differ (one giant line, or binary data) and that the chunk
/// codec exists for. See [`shadow_bench::blob_pair`].
fn big_blob_pair(binary: bool, seed: u64) -> (Vec<u8>, Vec<u8>) {
    shadow_bench::blob_pair(10 * 1024 * 1024, binary, seed)
}

fn main() {
    benches();
    // Re-measure the headline operations with a plain timer and export
    // them machine-readably alongside the Criterion report.
    let iters = if shadow_bench::quick_mode() { 20 } else { 200 };
    let payload = shadow::generate_file(&FileSpec::new(100_000, 1));
    let digest = ContentDigest::of(&payload);
    let msg = ClientMessage::Update {
        file: FileId::new(7),
        version: VersionNumber::new(3),
        payload: UpdatePayload::Full {
            encoding: TransferEncoding::Identity,
            data: bytes::Bytes::from(payload.clone()),
            digest,
        },
    };
    let frame = Frame::encode(&msg);
    let big = shadow::generate_file(&FileSpec::new(500_000, 3));
    let row = |name: &str, bytes: usize, (ns, allocs): (f64, f64)| {
        shadow_obs::Json::object()
            .with("op", name)
            .with("bytes", bytes)
            .with("ns_per_op", ns)
            .with("allocs_per_op", allocs)
            .with("mb_per_sec", bytes as f64 * 1000.0 / ns.max(1.0))
    };
    let mut rows = vec![
        row(
            "encode_update_100k",
            payload.len(),
            measure(iters, || {
                black_box(Frame::encode(black_box(&msg)));
            }),
        ),
        row(
            "decode_update_100k",
            payload.len(),
            measure(iters, || {
                black_box(Frame::decode::<ClientMessage>(black_box(&frame)).unwrap());
            }),
        ),
        row(
            "fnv_digest_500k",
            big.len(),
            measure(iters, || {
                black_box(ContentDigest::of(black_box(&big)));
            }),
        ),
    ];

    // The client's whole-file work per binary edit: digesting a 4 MiB
    // binary, and recording it as a new version. Each `record_edit` call
    // takes a fresh copy of one of two versions a 1 KiB splice apart, as
    // an editor hands over its buffer, so the row includes that copy.
    let (bin_a, bin_b) = shadow_bench::blob_pair(4 * 1024 * 1024, true, 13);
    rows.push(row(
        "digest_4m_binary",
        bin_a.len(),
        measure(iters, || {
            black_box(ContentDigest::of(black_box(&bin_a)));
        }),
    ));
    let mut versions = VersionStore::new(0);
    let bin_file = FileId::new(1);
    let mut flip = false;
    rows.push(row(
        "record_edit_4m_binary",
        bin_a.len(),
        measure(iters, || {
            flip = !flip;
            let content = if flip { &bin_b } else { &bin_a };
            black_box(versions.record_edit(bin_file, black_box(content.clone())));
        }),
    ));

    // The line diff with a fresh scratch vs reusing one scratch across
    // calls (the steady-state resubmission path).
    let (base, edited) = small_edit_pair();
    let old_buf = DocBuf::from_bytes(base.clone());
    let new_buf = DocBuf::from_bytes(edited.clone());
    rows.push(row(
        "diff_zerocopy_small_edit_100k",
        base.len(),
        measure(iters, || {
            let mut scratch = DiffScratch::new();
            black_box(diff_docs(
                DiffAlgorithm::HuntMcIlroy,
                black_box(&old_buf),
                black_box(&new_buf),
                &mut scratch,
            ));
        }),
    ));
    let mut scratch = DiffScratch::new();
    diff_docs(DiffAlgorithm::HuntMcIlroy, &old_buf, &new_buf, &mut scratch); // warm
    rows.push(row(
        "diff_zerocopy_reuse_100k",
        base.len(),
        measure(iters, || {
            black_box(diff_docs(
                DiffAlgorithm::HuntMcIlroy,
                black_box(&old_buf),
                black_box(&new_buf),
                &mut scratch,
            ));
        }),
    ));

    // Applying the resulting script to the base bytes.
    let script_text = diff_docs(
        DiffAlgorithm::HuntMcIlroy,
        &old_buf,
        &new_buf,
        &mut scratch,
    )
    .to_text();
    rows.push(row(
        "apply_delta_small_edit_100k",
        base.len(),
        measure(iters, || {
            black_box(apply_delta(black_box(&base), black_box(&script_text)).unwrap());
        }),
    ));

    // Frame encode with a caller-held scratch buffer: once the buffer has
    // grown to frame size, re-encoding must not touch the heap at all.
    let mut encode_buf = Vec::new();
    Frame::encode_into(&msg, &mut encode_buf); // warm to full frame size
    let encode_reuse = measure(iters, || {
        encode_buf.clear();
        Frame::encode_into(black_box(&msg), &mut encode_buf);
        black_box(encode_buf.as_slice());
    });
    assert_eq!(
        encode_reuse.1, 0.0,
        "warmed Frame::encode_into must be allocation-free"
    );
    rows.push(row("encode_update_reuse_100k", payload.len(), encode_reuse));

    // The chunk codec over the inputs the line differ cannot handle: a
    // 10 MB single-line file and a 10 MB binary blob, each with a 1 KB
    // splice. The reuse rows are the steady-state path and must be
    // allocation-free; wire size must stay proportional to the edit.
    let chunk_iters = if shadow_bench::quick_mode() { 5 } else { 40 };
    for (label, binary) in [("single_line", false), ("binary", true)] {
        let (cbase, cedit) = big_blob_pair(binary, if binary { 11 } else { 9 });
        let mut delta = Vec::new();
        rows.push(row(
            &format!("chunk_diff_10m_{label}"),
            cbase.len(),
            measure(chunk_iters, || {
                let mut scratch = DiffScratch::new();
                let mut out = Vec::new();
                black_box(chunk_delta_into(
                    black_box(&cbase),
                    black_box(&cedit),
                    &mut scratch,
                    &mut out,
                ));
                black_box(out.as_slice());
            }),
        ));
        let mut cscratch = DiffScratch::new();
        chunk_delta_into(&cbase, &cedit, &mut cscratch, &mut delta); // warm
        let reuse = measure(chunk_iters, || {
            black_box(chunk_delta_into(
                black_box(&cbase),
                black_box(&cedit),
                &mut cscratch,
                &mut delta,
            ));
            black_box(delta.as_slice());
        });
        assert_eq!(
            reuse.1, 0.0,
            "warmed chunk_delta_into must be allocation-free ({label})"
        );
        rows.push(row(
            &format!("chunk_diff_reuse_10m_{label}"),
            cbase.len(),
            reuse,
        ));
        assert!(
            delta.len() <= 10 * 1024,
            "10 MB {label} with a 1 KB edit must ship <= 10x the edit ({} bytes)",
            delta.len()
        );
        rows.push(row(
            &format!("chunk_apply_10m_{label}"),
            cbase.len(),
            measure(chunk_iters, || {
                black_box(apply_chunk_delta(black_box(&cbase), black_box(&delta)).unwrap());
            }),
        ));
    }

    shadow_bench::export_rows("micro", rows);
}
