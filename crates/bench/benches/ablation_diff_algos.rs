//! **Ablation B (§8.3)** — differential-comparison algorithm choice.
//!
//! "There are different algorithms proposed to compute the differences
//! between two files [MM85, Tic84]. We will study these algorithms and
//! adopt the one that offers better performance." This Criterion bench
//! measures real CPU time and delta size for:
//!
//! * Hunt–McIlroy (the prototype's `diff`(1) algorithm),
//! * Myers O(ND) linear-space (Miller–Myers [MM85] family),
//! * the content-defined chunk codec (byte-level copy/insert, the role
//!   Tichy's block moves [Tic84] were proposed for).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use shadow::{
    apply_chunk_delta, apply_delta, chunk_delta_into, diff_docs, DiffAlgorithm, DiffScratch,
    DocBuf, EditModel, FileSpec,
};

fn bench_diff_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("diff_algorithms");
    for &size in &[10_000usize, 100_000] {
        for &fraction in &[0.01f64, 0.20] {
            let base = shadow::generate_file(&FileSpec::new(size, 42));
            let edited = EditModel::fraction(fraction, 43).apply(&base);
            let old_buf = DocBuf::from_bytes(base.clone());
            let new_buf = DocBuf::from_bytes(edited.clone());
            group.throughput(Throughput::Bytes(size as u64));
            let label = format!("{}b_{}pct", size, (fraction * 100.0) as u32);

            // Each engine with a reused scratch — the steady-state
            // production path.
            let mut scratch = DiffScratch::new();
            group.bench_with_input(
                BenchmarkId::new("hunt_mcilroy", &label),
                &(&old_buf, &new_buf),
                |b, (o, n)| b.iter(|| diff_docs(DiffAlgorithm::HuntMcIlroy, o, n, &mut scratch)),
            );
            group.bench_with_input(
                BenchmarkId::new("myers", &label),
                &(&old_buf, &new_buf),
                |b, (o, n)| b.iter(|| diff_docs(DiffAlgorithm::Myers, o, n, &mut scratch)),
            );
            let mut delta = Vec::new();
            group.bench_with_input(
                BenchmarkId::new("chunk", &label),
                &(&base, &edited),
                |b, (o, n)| {
                    b.iter(|| {
                        delta.clear();
                        chunk_delta_into(o, n, &mut scratch, &mut delta)
                    })
                },
            );

            // Report delta sizes once per configuration (the wire cost the
            // service actually pays).
            let [hm, my, chunk] = wire_costs(&base, &edited, &mut scratch);
            println!(
                "delta sizes {label}: hunt-mcilroy={hm}B myers={my}B chunk={chunk}B (file {size}B)"
            );
        }
    }
    group.finish();
}

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_delta");
    let base = shadow::generate_file(&FileSpec::new(100_000, 42));
    let edited = EditModel::fraction(0.05, 43).apply(&base);
    let script = diff_docs(
        DiffAlgorithm::HuntMcIlroy,
        &DocBuf::from_bytes(base.clone()),
        &DocBuf::from_bytes(edited),
        &mut DiffScratch::new(),
    )
    .to_text();
    group.throughput(Throughput::Bytes(base.len() as u64));
    group.bench_function("apply_delta_100k_5pct", |b| {
        b.iter(|| apply_delta(&base, &script).unwrap())
    });
    group.finish();
}

/// Wire bytes of the Hunt–McIlroy script, the Myers script and the chunk
/// delta for one edit.
fn wire_costs(base: &[u8], edited: &[u8], scratch: &mut DiffScratch) -> [usize; 3] {
    let old_buf = DocBuf::from_bytes(base.to_vec());
    let new_buf = DocBuf::from_bytes(edited.to_vec());
    let hm = diff_docs(DiffAlgorithm::HuntMcIlroy, &old_buf, &new_buf, scratch).wire_len();
    let my = diff_docs(DiffAlgorithm::Myers, &old_buf, &new_buf, scratch).wire_len();
    let mut delta = Vec::new();
    chunk_delta_into(base, edited, scratch, &mut delta);
    [hm, my, delta.len()]
}

criterion_group!(benches, bench_diff_algorithms, bench_apply);

fn main() {
    benches();
    // Export the deterministic wire-cost comparison (the figure the
    // service actually pays per codec) machine-readably.
    let mut rows = Vec::new();
    let mut scratch = DiffScratch::new();
    for &size in &[10_000usize, 100_000] {
        for &fraction in &[0.01f64, 0.20] {
            let base = shadow::generate_file(&FileSpec::new(size, 42));
            let edited = EditModel::fraction(fraction, 43).apply(&base);
            let [hm, my, chunk] = wire_costs(&base, &edited, &mut scratch);
            rows.push(
                shadow_obs::Json::object()
                    .with("file_bytes", size)
                    .with("fraction", fraction)
                    .with("hunt_mcilroy_bytes", hm)
                    .with("myers_bytes", my)
                    .with("chunk_bytes", chunk),
            );
        }
    }
    // Large and binary files (§8.3 extension): on a 10 MB single-line
    // file the line differ's wire cost collapses to a full transfer,
    // while the chunk codec ships bytes proportional to the 1 KB edit.
    // Random binary data happens to contain accidental newlines, so the
    // line differ's *wire* cost can stay small there — the classifier
    // still routes NUL-bearing files to the chunk codec because nothing
    // guarantees that structure (a blob with few/no newlines degenerates
    // exactly like the single-line row). One row per shape, with the
    // three candidate transfer strategies side by side against the edit.
    let big_len = if shadow_bench::quick_mode() {
        2 * 1024 * 1024
    } else {
        10 * 1024 * 1024
    };
    for (shape, binary) in [("single_line", false), ("binary", true)] {
        let (base, edited) = shadow_bench::blob_pair(big_len, binary, if binary { 11 } else { 9 });
        let old_buf = DocBuf::from_bytes(base.clone());
        let new_buf = DocBuf::from_bytes(edited.clone());
        let line_bytes = diff_docs(DiffAlgorithm::HuntMcIlroy, &old_buf, &new_buf, &mut scratch)
            .to_text()
            .len();
        let mut delta = Vec::new();
        let stats = chunk_delta_into(&base, &edited, &mut scratch, &mut delta);
        assert_eq!(
            apply_chunk_delta(&base, &delta).unwrap(),
            edited,
            "chunk delta must reproduce the edited {shape} blob"
        );
        let edit_bytes = 1024usize;
        println!(
            "large-file wire cost {shape} ({big_len}B, {edit_bytes}B edit): \
             line={line_bytes}B chunk={}B full={}B ({} chunk ops)",
            delta.len(),
            edited.len(),
            stats.ops
        );
        rows.push(
            shadow_obs::Json::object()
                .with("file_bytes", big_len)
                .with("shape", shape)
                .with("edit_bytes", edit_bytes)
                .with("line_bytes", line_bytes)
                .with("chunk_bytes", delta.len())
                .with("full_transfer_bytes", edited.len()),
        );
    }
    shadow_bench::export_rows("ablation_diff_algos", rows);
}
