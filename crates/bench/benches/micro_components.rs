//! Criterion micro-benchmarks for the hot components: quantizer
//! assignment/growth, CQC encode/decode, Huffman ID-list compression,
//! least-squares predictor fitting, and the CRC-32 every page-in
//! verifies.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ppq_cqc::CqcTemplate;
use ppq_geo::Point;
use ppq_predict::linear::{fit_predictor, TrainingRow};
use ppq_quantize::IncrementalQuantizer;
use ppq_sindex::CompressedIdList;
use ppq_storage::{crc32, payload_capacity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn points(n: usize, spread: f64, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(-spread..spread),
                rng.gen_range(-spread..spread),
            )
        })
        .collect()
}

fn bench_quantizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("quantizer");
    g.sample_size(10);
    // ε = 0.2 over a ±1 spread ≈ 80 codewords — the regime PPQ's
    // prediction errors actually live in (errors concentrate near zero).
    let batch = points(2000, 1.0, 1);
    g.bench_function("assign_2k_warm", |b| {
        let mut q = IncrementalQuantizer::new(0.2);
        q.quantize_batch(&batch); // warm the codebook
        b.iter(|| {
            let mut qq = q.clone();
            black_box(qq.quantize_batch(black_box(&batch)))
        })
    });
    g.bench_function("grow_2k_cold", |b| {
        b.iter_batched(
            || IncrementalQuantizer::new(0.2),
            |mut q| black_box(q.quantize_batch(black_box(&batch))),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_cqc(c: &mut Criterion) {
    let mut g = c.benchmark_group("cqc");
    g.sample_size(15);
    let tpl = CqcTemplate::new(0.001, 0.001 / 11.0);
    let devs = points(1000, 0.001, 2);
    g.bench_function("encode_1k", |b| {
        b.iter(|| {
            for d in &devs {
                black_box(tpl.encode(black_box(*d)));
            }
        })
    });
    let codes: Vec<_> = devs.iter().map(|d| tpl.encode(*d)).collect();
    g.bench_function("decode_1k", |b| {
        b.iter(|| {
            for code in &codes {
                black_box(tpl.decode(black_box(*code)));
            }
        })
    });
    g.finish();
}

fn bench_sindex(c: &mut Criterion) {
    let mut g = c.benchmark_group("sindex");
    g.sample_size(10);
    let ids: Vec<u32> = (0..2000u32).map(|i| i * 3 + (i % 7)).collect();
    g.bench_function("idlist_compress_2k", |b| {
        b.iter(|| black_box(CompressedIdList::compress(black_box(&ids))))
    });
    let compressed = CompressedIdList::compress(&ids);
    g.bench_function("idlist_decompress_2k", |b| {
        b.iter(|| black_box(compressed.decompress()))
    });
    g.finish();
}

fn bench_predict(c: &mut Criterion) {
    let mut g = c.benchmark_group("predict");
    g.sample_size(15);
    let mut rng = StdRng::seed_from_u64(4);
    let histories: Vec<[Point; 3]> = (0..500)
        .map(|_| {
            [
                Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
            ]
        })
        .collect();
    let rows: Vec<TrainingRow> = histories
        .iter()
        .map(|h| TrainingRow {
            target: h[0] * 2.0 - h[1] + h[2] * 0.1,
            history: &h[..],
        })
        .collect();
    g.bench_function("fit_k3_500rows", |b| {
        b.iter(|| black_box(fit_predictor(black_box(&rows), 3)))
    });
    g.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    g.sample_size(20);
    let mut rng = StdRng::seed_from_u64(5);
    let mib: Vec<u8> = (0..1 << 20)
        .map(|_| rng.gen_range(0u32..256) as u8)
        .collect();
    // A 4 KiB page's payload (4,092 B): what `page::read_page` checks on
    // every pool miss of a repository written with that page size.
    let page = &mib[..payload_capacity(4096)];
    g.bench_function("page_payload_4092", |b| {
        b.iter(|| black_box(crc32(black_box(page))))
    });
    g.bench_function("1mib", |b| b.iter(|| black_box(crc32(black_box(&mib)))));
    g.finish();
}

criterion_group!(
    benches,
    bench_quantizer,
    bench_cqc,
    bench_sindex,
    bench_predict,
    bench_crc32
);
criterion_main!(benches);
