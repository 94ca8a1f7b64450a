//! Criterion micro-benchmarks of the reproduction's software components:
//! the scheduler (the paper's "Pre." cost), its three coloring algorithms,
//! the load balancer, the execution engines (seed array-of-structs layout
//! vs. the structure-of-arrays fast path, single and batched) and the
//! reference SpMV kernels (seed scalar chain vs. the unrolled ones), the
//! Matrix Market reader, the registry's content hash (word lanes vs. the
//! former byte-wise FNV-1a) and width-1 panels against the single-vector
//! walk — so every speedup this repo claims is measured, not asserted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gust::hw::GustPipeline;
use gust::schedule::windows::WindowPlan;
use gust::serve::ScheduleRegistry;
use gust::{ColoringAlgorithm, Gust, GustConfig, SchedulingPolicy};
use gust_bench::legacy;
use gust_bench::workloads::{synthetic, test_vector, SyntheticKind};
use gust_sparse::io::{read_matrix_market, write_matrix_market};
use gust_sparse::{gen, CscMatrix, CsrMatrix};
use std::hint::black_box;

fn bench_matrix() -> CsrMatrix {
    synthetic(SyntheticKind::Uniform, 4096, 1.0e-3, 7)
}

fn scheduling(c: &mut Criterion) {
    let m = bench_matrix();
    let mut group = c.benchmark_group("schedule-4096x4096-d1e-3-l256");
    group.sample_size(10);
    for (name, algo) in [
        ("greedy-grouped", ColoringAlgorithm::Grouped),
        ("greedy-verbatim", ColoringAlgorithm::Verbatim),
        ("konig-optimal", ColoringAlgorithm::Konig),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let gust = Gust::new(GustConfig::new(256).with_coloring(algo));
            b.iter(|| black_box(gust.schedule(black_box(&m))));
        });
    }
    group.bench_function(BenchmarkId::from_parameter("naive-arbitration"), |b| {
        let gust = Gust::new(GustConfig::new(256).with_policy(SchedulingPolicy::Naive));
        b.iter(|| black_box(gust.schedule(black_box(&m))));
    });
    group.finish();
}

fn load_balancing(c: &mut Criterion) {
    let m = synthetic(SyntheticKind::PowerLaw, 4096, 1.0e-3, 8);
    let mut group = c.benchmark_group("load-balance-plan");
    group.sample_size(20);
    for lb in [false, true] {
        group.bench_function(
            BenchmarkId::from_parameter(if lb { "sorted" } else { "natural" }),
            |b| {
                b.iter(|| black_box(WindowPlan::new(black_box(&m), 256, lb)));
            },
        );
    }
    group.finish();
}

fn execution(c: &mut Criterion) {
    let m = bench_matrix();
    let gust = Gust::new(GustConfig::new(256));
    let schedule = gust.schedule(&m);
    let x = test_vector(m.cols());
    let legacy_windows = legacy::legacy_slot_windows(&schedule);
    // One register block of the engine's selected backend (a backend
    // property, currently 8 on both): the pure one-pass batching shape.
    let batch = gust.reg_block();
    let panel = gust_bench::workloads::shifted_panel(&x, batch, 0.125);
    let mut group = c.benchmark_group("execute-4096x4096-d1e-3-l256");
    group.sample_size(20);
    group.bench_function("legacy-aos-engine", |b| {
        b.iter(|| {
            black_box(legacy::legacy_execute(
                black_box(&schedule),
                black_box(&legacy_windows),
                black_box(&x),
            ))
        });
    });
    group.bench_function("fast-engine", |b| {
        b.iter(|| black_box(gust.execute(black_box(&schedule), black_box(&x))));
    });
    group.bench_function("fast-engine-batch-block", |b| {
        let seq = Gust::new(GustConfig::new(256).with_parallelism(Some(1)));
        b.iter(|| black_box(seq.execute_batch(black_box(&schedule), black_box(&panel), batch)));
    });
    group.bench_function("structural-pipeline", |b| {
        b.iter(|| {
            black_box(GustPipeline::run(
                black_box(&schedule),
                black_box(&x),
                96.0e6,
            ))
        });
    });
    group.finish();
}

fn reference_spmv(c: &mut Criterion) {
    let m = bench_matrix();
    let csc = CscMatrix::from(&m);
    let x = test_vector(m.cols());
    let mut group = c.benchmark_group("reference-spmv-4096");
    group.bench_function("csr-legacy-scalar", |b| {
        b.iter(|| black_box(legacy::legacy_csr_spmv(black_box(&m), black_box(&x))));
    });
    group.bench_function("csr-unrolled", |b| {
        b.iter(|| black_box(black_box(&m).spmv(black_box(&x))));
    });
    group.bench_function("csr-f64-legacy-scalar", |b| {
        b.iter(|| black_box(legacy::legacy_csr_spmv_f64(black_box(&m), black_box(&x))));
    });
    group.bench_function("csr-f64-unrolled", |b| {
        b.iter(|| black_box(black_box(&m).spmv_f64(black_box(&x))));
    });
    group.bench_function("csc-unrolled", |b| {
        b.iter(|| black_box(black_box(&csc).spmv(black_box(&x))));
    });
    group.finish();
}

fn matrix_market_parse(c: &mut Criterion) {
    // ~100k entries in the two value forms real files use: small integers
    // (the reader's hand-parsed path) and reals (std's float parser).
    let coo = gen::uniform(8192, 8192, 100_000, 9);
    let mut integer = String::from("%%MatrixMarket matrix coordinate integer general\n");
    integer.push_str(&format!("{} {} {}\n", coo.rows(), coo.cols(), coo.nnz()));
    for (k, (r, c, _)) in coo.iter().enumerate() {
        integer.push_str(&format!("{} {} {}\n", r + 1, c + 1, k % 9 + 1));
    }
    let mut real = Vec::new();
    write_matrix_market(&coo, &mut real).expect("write to vec");
    let mut group = c.benchmark_group("matrix-market-parse");
    group.sample_size(10);
    for (name, text) in [("integer", integer.as_bytes()), ("real", real.as_slice())] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(read_matrix_market(black_box(text)).expect("valid text")));
        });
    }
    group.finish();
}

fn register_hash(c: &mut Criterion) {
    // The cold-registration shape of the serving benchmark: 8192² with
    // 500k non-zeros. Re-inserting a registered matrix costs the content
    // hash plus one uncontended lock (no clone, no plan build).
    let m = CsrMatrix::from(&gen::uniform(8192, 8192, 500_000, 5));
    let registry = ScheduleRegistry::new(Gust::new(GustConfig::new(256)));
    registry.insert(&m);
    let mut group = c.benchmark_group("register-hash");
    group.sample_size(10);
    group.bench_function("insert-word-lanes", |b| {
        b.iter(|| black_box(registry.insert(black_box(&m))));
    });
    group.bench_function("fnv1a-bytes-legacy", |b| {
        b.iter(|| black_box(legacy::legacy_fnv1a_content_hash(black_box(&m))));
    });
    group.finish();
}

fn width1_panel_vs_single(c: &mut Criterion) {
    // A width-1 panel takes the single-vector walk, so each pair below
    // should time alike; the width-2 panel is what one more vector costs
    // in the register-block kernel.
    let m = CsrMatrix::from(&gen::uniform(4096, 4096, 100_000, 6));
    let gust = Gust::new(GustConfig::new(256).with_parallelism(Some(1)));
    let flat = gust.schedule(&m);
    let tiled = gust.schedule_tiled(&m);
    let x = test_vector(m.cols());
    let panel2 = gust_bench::workloads::shifted_panel(&x, 2, 0.125);
    let mut group = c.benchmark_group("width1-panel-vs-single");
    group.sample_size(20);
    group.bench_function("flat-single", |b| {
        b.iter(|| black_box(gust.execute(black_box(&flat), black_box(&x))));
    });
    group.bench_function("flat-width1-panel", |b| {
        b.iter(|| black_box(gust.execute_batch(black_box(&flat), black_box(&x), 1)));
    });
    group.bench_function("flat-width2-panel", |b| {
        b.iter(|| black_box(gust.execute_batch(black_box(&flat), black_box(&panel2), 2)));
    });
    group.bench_function("tiled-single", |b| {
        b.iter(|| black_box(gust.execute_tiled(black_box(&tiled), black_box(&x))));
    });
    group.bench_function("tiled-width1-panel", |b| {
        b.iter(|| black_box(gust.execute_batch_tiled(black_box(&tiled), black_box(&x), 1)));
    });
    group.finish();
}

criterion_group!(
    benches,
    scheduling,
    load_balancing,
    execution,
    reference_spmv,
    matrix_market_parse,
    register_hash,
    width1_panel_vs_single
);
criterion_main!(benches);
