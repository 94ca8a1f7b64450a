//! `offline-spmv`: one caller in a closed loop over three shapes.
//!
//! Each matrix loads from its `.mtx` file, gets the tiled plan the library
//! picks by default, and is audited and round-tripped through the plan
//! file format; then the timed phase cycles single-vector SpMVs, one
//! register-block panel, and reference CSR SpMVs over the matrices. The
//! serving layers are not on this path.

use crate::adapter::{self, Plan};
use crate::gen::{self, Rng, Values};
use crate::oracle::Case;
use crate::serve::write_inputs;
use crate::stats::{self, percentile};
use crate::trace::{Tracer, ROOT};
use crate::{layers, Ctx, Run};
use std::path::PathBuf;
use std::time::Instant;

/// Input vectors per matrix.
const POOL: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Per round: single-vector passes (one SpMV on each matrix in turn, the
/// latency sample), CSR calls per matrix, and one register-block panel per
/// matrix every `PANEL_EVERY` rounds.
const PASSES: usize = 32;
const CSRS: usize = 8;
const PANEL_EVERY: usize = 4;
/// Window of the windowed p99 (about 100 passes each).
const WINDOW_S: f64 = 2.0;

/// Operand-heavy power-law (x = 16 MiB), output-heavy tall (y = 16 MiB),
/// and hub-wide. 16 MiB is 4x the summed L2 of the 2 x 2 MiB reference
/// host; the sizes are fixed, not derived from the host.
fn cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ 0x0ff1);
    let v = Values::Real;
    vec![
        Case::new(
            "power-law",
            gen::power_law(65_536, 1 << 22, 400_000, v, seed),
            v,
            POOL,
            &mut rng,
        ),
        Case::new(
            "tall",
            gen::uniform(1 << 22, 16_384, 400_000, v, seed + 1),
            v,
            POOL,
            &mut rng,
        ),
        Case::new(
            "hub-wide",
            gen::hub(4096, 1 << 18, 300_000, 1024, v, seed + 2),
            v,
            POOL,
            &mut rng,
        ),
    ]
}

/// One set-up: load, plan, audit, write and read back the plan, answer
/// once. Returns the plans and the serialized plan sizes.
fn setup_once(
    ctx: &mut Ctx,
    fleet: &[Case],
    paths: &[PathBuf],
    rep: usize,
) -> Run<Vec<(Plan, u64)>> {
    let tr = &ctx.tracer;
    let g = adapter::engine(None);
    let start = Instant::now();
    let root = tr.reserve();
    let mut plans = Vec::new();
    for (i, case) in fleet.iter().enumerate() {
        let (m, _) = tr.time("io.load", root, || adapter::load_mtx(&paths[i]));
        let m = m?;
        if ctx.traced() {
            let bytes = std::fs::metadata(&paths[i]).map_or(0, |md| md.len());
            ctx.layers.add("_io.bytes", bytes as f64);
        }
        let (built, t) = tr.time("schedule.build", root, || Plan::build_tiled(&g, &m));
        if ctx.traced() {
            ctx.layers.add("_schedule.nnz", m.nnz() as f64);
            ctx.layers.add("_schedule.us", t.as_secs_f64() * 1e6);
        }
        let (audit, _) = tr.time("verify.audit", root, || built.view().audit(&m));
        audit?;
        let path = ctx.work.join(format!("{i}-{rep}.gutl"));
        let (w, _) = tr.time("serialize.write", root, || built.view().write(&path));
        w.map_err(|e| e.to_string())?;
        let (plan, _) = tr.time("serialize.read_verified", root, || {
            built.read_verified(&path)
        });
        let plan = plan?;
        let (y, _) = tr.time("engine.first_answer", root, || {
            plan.view().execute(&g, &case.probes[0].x)
        });
        case.check32(0, &y.0)?;
        let size = std::fs::metadata(&path).map_or(0, |md| md.len());
        let _ = std::fs::remove_file(&path);
        plans.push((plan, size));
        ctx.attempted += 6;
    }
    tr.record_as(root, "setup", ROOT, rep as u64, start, Instant::now());
    tr.snapshot(format!("setup.{rep}.end"), adapter::pool_counters());
    Ok(plans)
}

/// Per-op timings of the timed phase.
#[derive(Default)]
struct Timed {
    /// One single-vector SpMV on each matrix, summed (checks excluded).
    pass_ms: Vec<f64>,
    /// Start of each pass, seconds into the phase.
    pass_at: Vec<f64>,
    single_by_case: Vec<Vec<f64>>,
    single_nnz_s: (f64, f64),
    panel_nnz_s: (f64, f64),
    csr_nnz_s: (f64, f64),
    rounds: usize,
    wall_s: f64,
    /// Time inside the phase's spans (SpMVs, panels, CSR calls, checks).
    covered_s: f64,
}

/// How long a timed phase runs.
#[derive(Clone, Copy)]
enum Until {
    Secs(f64),
    Rounds(usize),
}

/// Runs rounds until `until`; each answer is checked outside its span.
fn timed(
    tr: &Tracer,
    g: &gust::Gust,
    fleet: &[Case],
    plans: &[(Plan, u64)],
    until: Until,
    rb: usize,
) -> Run<(Timed, u64)> {
    let mut t = Timed {
        single_by_case: vec![Vec::new(); fleet.len()],
        ..Timed::default()
    };
    let panels: Vec<Vec<f32>> = fleet
        .iter()
        .map(|c| {
            (0..rb)
                .flat_map(|j| c.probes[j % POOL].x.iter().copied())
                .collect()
        })
        .collect();
    let mut ops = 0u64;
    let start = Instant::now();
    let root = tr.reserve();
    while match until {
        Until::Secs(secs) => start.elapsed().as_secs_f64() < secs,
        Until::Rounds(n) => t.rounds < n,
    } {
        for k in 0..PASSES {
            let p = k % POOL;
            t.pass_at.push(start.elapsed().as_secs_f64());
            let mut pass = 0.0;
            for (c, case) in fleet.iter().enumerate() {
                let view = plans[c].0.view();
                let ((y, _), d) =
                    tr.time("engine.single", root, || view.execute(g, &case.probes[p].x));
                let (checked, dc) = tr.time("bench.check", root, || case.check32(p, &y));
                checked?;
                t.covered_s += (d + dc).as_secs_f64();
                let ms = d.as_secs_f64() * 1e3;
                pass += ms;
                t.single_by_case[c].push(ms);
                t.single_nnz_s.0 += case.nnz() as f64;
                t.single_nnz_s.1 += d.as_secs_f64();
            }
            t.pass_ms.push(pass);
            ops += fleet.len() as u64;
        }
        for (c, case) in fleet.iter().enumerate() {
            let nnz = case.nnz() as f64;
            if t.rounds.is_multiple_of(PANEL_EVERY) {
                let view = plans[c].0.view();
                let ((y, _), d) = tr.time("engine.panel.wrb", root, || {
                    view.execute_batch(g, &panels[c], rb)
                });
                let (checked, dc) = tr.time("bench.check", root, || {
                    let rows = case.m.rows();
                    (0..rb).try_for_each(|j| case.check32(j % POOL, &y[j * rows..(j + 1) * rows]))
                });
                checked?;
                t.covered_s += (d + dc).as_secs_f64();
                t.panel_nnz_s.0 += nnz * rb as f64;
                t.panel_nnz_s.1 += d.as_secs_f64();
                ops += 1;
            }
            for k in 0..CSRS {
                let p = k % POOL;
                let (y, d) = tr.time("csr.spmv", root, || {
                    adapter::csr_spmv(&case.m, &case.probes[p].x)
                });
                let (checked, dc) = tr.time("bench.check", root, || case.check32(p, &y));
                checked?;
                t.covered_s += (d + dc).as_secs_f64();
                t.csr_nnz_s.0 += nnz;
                t.csr_nnz_s.1 += d.as_secs_f64();
            }
            ops += CSRS as u64;
        }
        t.rounds += 1;
    }
    let end = Instant::now();
    tr.record_as(root, "phase.offline", ROOT, 0, start, end);
    t.wall_s = (end - start).as_secs_f64();
    Ok((t, ops))
}

pub fn run(ctx: &mut Ctx) -> Run<()> {
    let fleet = cases(ctx.seed);
    let paths = write_inputs(&ctx.work, &fleet)?;
    let mut times = Vec::new();
    let mut plans = Vec::new();
    for rep in 0..SETUPS {
        plans.clear();
        let t = Instant::now();
        plans = setup_once(ctx, &fleet, &paths, rep)?;
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&times);
    ctx.say(format!(
        "setup_s {setup_s:.4} s (median of {SETUPS}: {})",
        times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    ctx.e2e.put("setup_s", setup_s, "s");
    for (c, (plan, bytes)) in fleet.iter().zip(&plans) {
        let st = plan.view().stats();
        ctx.say(format!(
            "matrix {}: {} x {}, nnz {}; x {:.1} MiB, y {:.1} MiB against {:.1} MiB summed L2; \
             plan {} tiles, {} bands, {} colors, {:.1} MiB on disk",
            c.name,
            c.m.rows(),
            c.m.cols(),
            c.nnz(),
            (4 * c.m.cols()) as f64 / (1 << 20) as f64,
            (4 * c.m.rows()) as f64 / (1 << 20) as f64,
            ctx.host.summed_l2() as f64 / (1 << 20) as f64,
            st.tiles,
            st.bands,
            st.colors,
            *bytes as f64 / (1 << 20) as f64
        ));
    }

    let g = adapter::engine(None);
    let rb = ctx.host.picked.reg_block;
    // Modelled utilization, nnz-weighted over the plans that run.
    let (mut num, mut den) = (0.0, 0.0);
    for (c, (plan, bytes)) in fleet.iter().zip(&plans) {
        let (y, model) = plan.view().execute(&g, &c.probes[0].x);
        c.check32(0, &y)?;
        num += model.utilization * c.nnz() as f64;
        den += c.nnz() as f64;
        if ctx.traced() {
            layers::note_plan(ctx, plan.view(), &model, c.nnz(), c.m.rows());
            ctx.layers.add("_plan.bytes", *bytes as f64);
        }
    }
    let util = 100.0 * num / den;

    let secs = ctx.seconds;
    if ctx.traced() {
        // The phase untraced, then the same rounds traced, for the tracing
        // overhead and the blocking path's accounted share.
        let off = Tracer::new(false);
        let (untraced, ops) = timed(&off, &g, &fleet, &plans, Until::Secs(0.5 * secs), rb)?;
        ctx.attempted += ops;
        let rounds = Until::Rounds(untraced.rounds);
        let (traced, ops) = timed(&ctx.tracer, &g, &fleet, &plans, rounds, rb)?;
        ctx.attempted += ops;
        let (a, b) = (
            stats::median(&untraced.pass_ms),
            stats::median(&traced.pass_ms),
        );
        ctx.layers.set("trace.overhead_pct", 100.0 * (b - a) / a);
        // Blocking path: span time of the traced rounds against the
        // untraced wall time of the same rounds.
        let (covered, wall) = (traced.covered_s, untraced.wall_s);
        ctx.layers
            .set("trace.accounted_pct", 100.0 * covered / wall);
        ctx.say(format!(
            "tracing overhead: pass p50 {a:.4} ms untraced vs {b:.4} ms traced ({:+.1}%); \
             spans of the {} traced rounds cover {covered:.3} s against {wall:.3} s of wall time for the same rounds untraced ({:.1}%)",
            100.0 * (b - a) / a,
            traced.rounds,
            100.0 * covered / wall
        ));
        ctx.layers.set(
            "_single.nnz_per_s",
            traced.single_nnz_s.0 / traced.single_nnz_s.1,
        );
        ctx.layers
            .set("csr.gnnz_s", traced.csr_nnz_s.0 / traced.csr_nnz_s.1 / 1e9);
        report(ctx, &fleet, &traced, util);
        return layers::probe(ctx, &fleet, Plan::build_tiled);
    }
    let (t, ops) = timed(&ctx.tracer, &g, &fleet, &plans, Until::Secs(secs), rb)?;
    ctx.attempted += ops;
    report(ctx, &fleet, &t, util);
    Ok(())
}

fn report(ctx: &mut Ctx, fleet: &[Case], t: &Timed, util: f64) {
    for (c, v) in fleet.iter().zip(&t.single_by_case) {
        let line = format!(
            "single-vector {}: p50 {:.4} ms (n = {})",
            c.name,
            stats::median(v),
            v.len()
        );
        ctx.say(line);
    }
    let gn = |p: (f64, f64)| p.0 / p.1 / 1e9;
    ctx.say(format!(
        "spmv_gnnz_s {:.4}, panel_gnnz_s {:.4} (width {}), csr_gnnz_s {:.4} Gnnz/s over {} rounds in {:.2} s",
        gn(t.single_nnz_s),
        gn(t.panel_nnz_s),
        ctx.host.picked.reg_block,
        gn(t.csr_nnz_s),
        t.rounds,
        t.wall_s
    ));
    let p50 = stats::median(&t.pass_ms);
    let p99 = stats::windowed(&t.pass_at, &t.pass_ms, t.wall_s, WINDOW_S, 99.0, 50.0);
    let windows = (t.wall_s / WINDOW_S).floor().max(1.0);
    ctx.say(format!(
        "lat_p50_ms {p50:.4} ms over {} passes (one single-vector SpMV on each matrix); lat_p99_ms {p99:.4} ms = \
         median of {:.0} {}-second windows' p99, about {:.0} passes each (whole-phase p99 {:.4} ms)",
        t.pass_ms.len(),
        windows,
        WINDOW_S,
        t.pass_ms.len() as f64 / windows,
        percentile(&mut t.pass_ms.clone(), 99.0)
    ));
    ctx.e2e.put("lat_p99_ms", p99, "ms");
    let rss = stats::peak_rss_mb();
    ctx.say(format!(
        "peak_rss_mb {rss:.1} MiB; model_util_pct {util:.3} %"
    ));
    ctx.e2e.put("peak_rss_mb", rss, "MiB");
    ctx.e2e.put("model_util_pct", util, "%");
    ctx.say(format!(
        "fail_frac {:.6} ({} failed of {} attempted)",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
        ctx.failed,
        ctx.attempted
    ));
}
