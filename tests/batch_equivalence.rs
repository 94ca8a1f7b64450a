//! Property tests pinning the batched structure-of-arrays engine to the
//! per-vector scalar path, bit for bit — under the **scalar backend**.
//!
//! The batched kernel walks the schedule once for a whole panel of
//! right-hand sides, staging/interleaving operands into register blocks
//! and optionally fanning blocks out over threads. Under
//! `Backend::Scalar`, none of that is allowed to change a single bit: per
//! output column, products and per-adder accumulation order must equal
//! the scalar `Gust::execute` walk. (SIMD backends fuse the batched
//! accumulates into FMAs; their agreement-within-ULPs contract is pinned
//! by `tests/backend_equivalence.rs`.) These properties sweep the three
//! matrix generators (uniform, power-law, R-MAT), all three scheduling
//! policies, and batch sizes around the register-block width (1, 3, 8,
//! 17), so every remainder-block and multi-block shape is exercised —
//! including ragged final windows whenever `rows % l != 0`.

use gust::prelude::*;
use gust_repro::prelude::*;
use proptest::prelude::*;

/// Column-major panel of `batch` deterministic, distinct vectors.
fn panel(cols: usize, batch: usize, seed: u64) -> Vec<f32> {
    (0..batch)
        .flat_map(|j| {
            (0..cols).map(move |i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(seed ^ (j as u64) << 17)
                    .rotate_left(23);
                ((h % 2000) as f32) / 500.0 - 2.0
            })
        })
        .collect()
}

/// The three generator families the acceptance numbers are quoted on.
fn generate(kind: usize, rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let coo = match kind {
        0 => gen::uniform(rows, cols, nnz, seed),
        1 => gen::power_law(rows, cols, nnz, 1.9, seed),
        _ => gen::rmat(rows, cols, nnz, seed),
    };
    CsrMatrix::from(&coo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched execution is bit-identical to per-vector scalar execution
    /// across generators, policies and batch sizes.
    #[test]
    fn batched_execution_is_bit_identical_to_scalar(
        seed in 0u64..512,
        rows in 20usize..90,
        l in 3usize..12,
    ) {
        let nnz = rows * 6;
        for kind in 0..3usize {
            let matrix = generate(kind, rows, rows + 5, nnz, seed);
            for policy in [
                SchedulingPolicy::Naive,
                SchedulingPolicy::EdgeColoring,
                SchedulingPolicy::EdgeColoringLb,
            ] {
                let gust = Gust::new(GustConfig::new(l).with_policy(policy));
                let schedule = gust.schedule(&matrix);
                for batch in [1usize, 3, 8, 17] {
                    // Exercise the thread fan-out on the multi-block size,
                    // the sequential path elsewhere.
                    let workers = if batch > 8 { Some(2) } else { Some(1) };
                    let engine = Gust::new(
                        GustConfig::new(l)
                            .with_policy(policy)
                            .with_parallelism(workers)
                            .with_backend(Some(Backend::Scalar)),
                    );
                    let b = panel(matrix.cols(), batch, seed);
                    let (y, report) = engine.execute_batch(&schedule, &b, batch);
                    prop_assert_eq!(y.len(), matrix.rows() * batch);
                    for j in 0..batch {
                        let x = &b[j * matrix.cols()..(j + 1) * matrix.cols()];
                        let single = engine.execute(&schedule, x);
                        prop_assert_eq!(
                            &y[j * matrix.rows()..(j + 1) * matrix.rows()],
                            single.output.as_slice(),
                            "kind {} policy {:?} batch {} column {}",
                            kind, policy, batch, j
                        );
                        // The folded report is the per-vector report × batch.
                        prop_assert_eq!(
                            report.cycles,
                            single.report.cycles * batch as u64
                        );
                    }
                }
            }
        }
    }

    /// The batched panel also agrees with the f64 reference, column by
    /// column (numerical sanity on top of bit-identity).
    #[test]
    fn batched_execution_matches_reference_panel(
        seed in 0u64..512,
        rows in 20usize..70,
    ) {
        let matrix = generate(seed as usize % 3, rows, rows, rows * 5, seed);
        let gust = Gust::new(GustConfig::new(8));
        let schedule = gust.schedule(&matrix);
        let batch = 5usize;
        let b = panel(matrix.cols(), batch, seed);
        let (y, _) = gust.execute_batch(&schedule, &b, batch);
        let expected = reference_spmm_panel(&matrix, &b, batch);
        prop_assert!(max_relative_error(&y, &expected) < 1e-3);
    }
}

/// The backends runnable on this host, scalar always included.
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if Backend::Avx2.is_available() {
        v.push(Backend::Avx2);
    }
    if Backend::Avx512.is_available() {
        v.push(Backend::Avx512);
    }
    v
}

/// 44 rows × 140 000 columns whose non-zeros all fall on 40 hub columns:
/// every window reuses its columns and the single-vector operand block
/// exceeds the staging footprint, so the width-1 walks stage.
fn staged_matrix() -> CsrMatrix {
    let cols = 140_000;
    let triplets = (0..44u32).flat_map(|r| {
        (0..12u32).map(move |k| {
            let hub = (r * 7 + k * 13) % 40;
            (
                r as usize,
                (hub * 3499) as usize,
                0.5 + (r + k) as f32 * 0.25,
            )
        })
    });
    CsrMatrix::from(&CooMatrix::from_triplets(44, cols, triplets).expect("in range"))
}

/// A width-1 panel is the single-vector walk: `execute_batch*(s, x, 1)`
/// equals `execute*(s, x).output` bit for bit on every available backend
/// — flat plans, single-band and forced multi-band banded plans, and
/// tiled plans with several tiles — for ragged, empty-window-heavy and
/// staged shapes alike.
#[test]
fn width1_panels_are_bit_identical_to_single_vector_runs() {
    let tall = {
        // Rows 8..72 are empty: whole windows without a non-zero.
        let coo = gen::uniform(100, 50, 300, 41);
        let kept = coo.iter().filter(|&(r, _, _)| !(8..72).contains(&r));
        CsrMatrix::from(&CooMatrix::from_triplets(100, 50, kept).expect("in range"))
    };
    for (name, matrix) in [
        ("uniform-ragged", generate(0, 61, 70, 420, 3)),
        ("power-law", generate(1, 64, 64, 500, 5)),
        ("empty-windows", tall),
        ("staged", staged_matrix()),
    ] {
        let cols = matrix.cols();
        let x = panel(cols, 1, 9);
        for backend in backends() {
            let gust = Gust::new(
                GustConfig::new(8)
                    .with_backend(Some(backend))
                    .with_cache_budget(Some(1 << 30)),
            );
            let scheduler = gust::schedule::Scheduler::new(gust.config().clone());
            let tag = format!("{name} / {}", backend.name());

            let flat = gust.schedule(&matrix);
            if name == "empty-windows" {
                assert!(flat.windows().iter().any(|w| w.nnz() == 0), "{tag}");
            }
            let single = gust.execute(&flat, &x);
            let (y, report) = gust.execute_batch(&flat, &x, 1);
            assert_eq!(y, single.output, "{tag}: flat");
            assert_eq!(report, single.report, "{tag}: flat report");

            let one_band = gust.schedule_banded(&matrix);
            assert_eq!(one_band.bands().count(), 1);
            let multi_band =
                scheduler.schedule_banded_with(&matrix, ColumnBands::with_count(cols, 5));
            for (bands, banded) in [("1 band", &one_band), ("5 bands", &multi_band)] {
                let single = gust.execute_banded(banded, &x);
                let (y, report) = gust.execute_batch_banded(banded, &x, 1);
                assert_eq!(y, single.output, "{tag}: banded, {bands}");
                assert_eq!(report, single.report, "{tag}: banded report, {bands}");
            }

            let tiled = scheduler.schedule_tiled_with(&matrix, 3, ColumnBands::with_count(cols, 4));
            assert!(tiled.tile_count() > 1, "{tag}: tiling must be forced");
            let single = gust.execute_tiled(&tiled, &x);
            let (y, report) = gust.execute_batch_tiled(&tiled, &x, 1);
            assert_eq!(y, single.output, "{tag}: tiled");
            assert_eq!(report, single.report, "{tag}: tiled report");
        }
    }
}
