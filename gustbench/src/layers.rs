//! Per-layer metrics of the traced run.
//!
//! Layer times come from spans the benchmark records around its own calls
//! into the library (see `adapter.rs`). A workload's timed path skips some
//! layers (the offline loop never submits a request; the served loop never
//! calls the engine directly), so a short probe after the timed phase calls
//! the layers directly on the same matrices and every workload reports
//! every layer (see LAYERS.md).

use crate::adapter::{self, PlanRef};
use crate::host;
use crate::oracle::Case;
use crate::serve::{self, Arrival, Event};
use crate::stats::{self, Metrics};
use crate::trace::{self, Span, ROOT};
use crate::{Args, Ctx, Run};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.load_s", "s"),
    ("io.mb_per_s", "MB/s"),
    ("schedule.build_s", "s"),
    ("schedule.nnz_per_s", "1/s"),
    ("schedule.colors", "count"),
    ("schedule.colors_over_vizing", "ratio"),
    ("schedule.plan_mb", "MiB"),
    ("schedule.tiles", "count"),
    ("schedule.bands", "count"),
    ("verify.audit_s", "s"),
    ("serialize.write_s", "s"),
    ("serialize.read_verified_s", "s"),
    ("model.cycles", "count"),
    ("model.stall_cycles", "count"),
    ("registry.acquire_hit_us", "us"),
    ("registry.acquire_build_ms", "ms"),
    ("registry.acquire_disk_ms", "ms"),
    ("registry.hits", "count"),
    ("registry.misses", "count"),
    ("registry.rebuilds", "count"),
    ("registry.disk_loads", "count"),
    ("registry.audit_rejects", "count"),
    ("server.submit_us", "us"),
    ("server.residence_ms", "ms"),
    ("server.delivery_us", "us"),
    ("server.agg_factor", "ratio"),
    ("server.queue_depth.p99", "count"),
    ("server.backlog_slope", "1/s"),
    ("server.shed", "count"),
    ("server.deadline_missed", "count"),
    ("server.degraded", "count"),
    ("server.exec_retries", "count"),
    ("gen.late_ms.p99", "ms"),
    ("engine.single_ms", "ms"),
    ("engine.panel_ms_per_vec.w1", "ms"),
    ("engine.panel_ms_per_vec.wrb", "ms"),
    ("csr.gnnz_s", "Gnnz/s"),
    ("kernels.bytes_per_nnz", "B"),
    ("kernels.frac_of_bw", "ratio"),
    ("host.triad_gb_s", "GB/s"),
    ("parallel.panel_speedup", "ratio"),
    ("pool.threads_spawned", "count"),
    ("pool.panics_observed", "count"),
    ("self_s.io", "s"),
    ("self_s.schedule", "s"),
    ("self_s.verify", "s"),
    ("self_s.serialize", "s"),
    ("self_s.registry", "s"),
    ("self_s.server", "s"),
    ("self_s.gen", "s"),
    ("self_s.engine", "s"),
    ("self_s.csr", "s"),
    ("self_s.bench", "s"),
    ("trace.accounted_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Layer values by name; names starting with `_` are accumulators that
/// feed a reported metric.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, k: &str, v: f64) {
        self.0.insert(k.to_string(), v);
    }

    pub fn add(&mut self, k: &str, v: f64) {
        *self.0.entry(k.to_string()).or_default() += v;
    }

    pub fn get(&self, k: &str) -> Option<f64> {
        self.0.get(k).copied()
    }

    /// The reported metrics, in `PER_LAYER` order. A metric no phase set
    /// is a bug in this benchmark.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in PER_LAYER {
            m.put(name, self.get(name).unwrap_or(f64::NAN), unit);
        }
        m
    }
}

/// Plan shape, model figures and computed bytes of one plan that runs.
pub fn note_plan(
    ctx: &mut Ctx,
    plan: PlanRef<'_>,
    model: &adapter::Model,
    nnz: usize,
    rows: usize,
) {
    let st = plan.stats();
    let l = &mut ctx.layers;
    l.add("schedule.colors", st.colors as f64);
    l.add("_schedule.vizing", st.vizing as f64);
    l.add("schedule.tiles", st.tiles as f64);
    l.add("schedule.bands", st.bands as f64);
    l.add("model.cycles", model.cycles as f64);
    l.add("model.stall_cycles", model.stall_cycles as f64);
    // Computed traffic of one single-vector walk, ignoring cache reuse:
    // per slot a value, a column index and a row id (4 B each) plus one
    // operand gather (4 B); per row one output read and write (8 B).
    l.add("_bytes", 16.0 * nnz as f64 + 8.0 * rows as f64);
    l.add("_bytes.nnz", nnz as f64);
}

pub fn serve_counts(ctx: &mut Ctx, c: &[(&'static str, u64)]) {
    for &(k, v) in c {
        if matches!(
            k,
            "server.shed" | "server.deadline_missed" | "server.degraded" | "server.exec_retries"
        ) {
            ctx.layers.set(k, v as f64);
        }
    }
}

pub fn registry_counts(ctx: &mut Ctx, c: &[(&'static str, u64)]) {
    for &(k, v) in c {
        ctx.layers.set(k, v as f64);
    }
}

fn has(spans: &[Span], name: &str) -> bool {
    spans.iter().any(|s| s.name == name)
}

/// Calls the layers directly on the workload's matrices: plan build,
/// audit, plan write and verified read, engine single / width-1 /
/// register-block panels (default pool and one worker), CSR, registry
/// build / hit / disk load, and (when nothing was served) a short
/// open-loop leg through a server.
pub fn probe(
    ctx: &mut Ctx,
    fleet: &[Case],
    build: fn(&gust::Gust, &adapter::CsrMatrix) -> adapter::Plan,
) -> Run<()> {
    const REPS: usize = 3;
    let g = adapter::engine(None);
    let g1 = adapter::engine(Some(1));
    let rb = ctx.host.picked.reg_block;
    let served_before = has(&ctx.tracer.spans(), "server.submit");
    let probe_plan_bytes = ctx.layers.get("_plan.bytes").is_none();
    let dir = ctx.work.join("probe-cache");
    let reg = adapter::registry(&dir);
    let start = Instant::now();
    let root = ctx.tracer.reserve();
    for (c, case) in fleet.iter().enumerate() {
        let tr = &ctx.tracer;
        let m = &case.m;
        let (plan, t) = tr.time("schedule.build", root, || build(&g, m));
        ctx.layers.add("_schedule.nnz", m.nnz() as f64);
        ctx.layers.add("_schedule.us", t.as_secs_f64() * 1e6);
        let tr = &ctx.tracer;
        tr.time("verify.audit", root, || plan.view().audit(m)).0?;
        let path = ctx.work.join(format!("probe-{c}.plan"));
        tr.time("serialize.write", root, || plan.view().write(&path))
            .0
            .map_err(|e| e.to_string())?;
        let back = tr
            .time("serialize.read_verified", root, || {
                plan.read_verified(&path)
            })
            .0?;
        if probe_plan_bytes {
            let bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
            ctx.layers.add("_plan.bytes", bytes as f64);
        }
        let _ = std::fs::remove_file(&path);
        let view = back.view();
        let x = &case.probes[0].x;
        let panel: Vec<f32> = (0..rb)
            .flat_map(|j| case.probes[j % case.probes.len()].x.iter().copied())
            .collect();
        let rows = m.rows();
        let tr = &ctx.tracer;
        for _ in 0..REPS {
            let ((y, _), d) = tr.time("engine.single", root, || view.execute(&g, x));
            case.check32(0, &y)?;
            ctx.layers.add("_probe.single.nnz", m.nnz() as f64);
            ctx.layers.add("_probe.single.us", d.as_secs_f64() * 1e6);
            let ((y, _), _) = tr.time("engine.panel.w1", root, || view.execute_batch(&g, x, 1));
            case.check32(0, &y)?;
            let check_panel = |y: &[f32]| {
                (0..rb).try_for_each(|j| {
                    case.check32(j % case.probes.len(), &y[j * rows..(j + 1) * rows])
                })
            };
            let ((y, _), par) = tr.time("engine.panel.wrb", root, || {
                view.execute_batch(&g, &panel, rb)
            });
            check_panel(&y)?;
            let ((y, _), seq) = tr.time("engine.panel.wrb.seq", root, || {
                view.execute_batch(&g1, &panel, rb)
            });
            check_panel(&y)?;
            ctx.layers.add("_par.us", par.as_secs_f64() * 1e6);
            ctx.layers.add("_seq.us", seq.as_secs_f64() * 1e6);
            let (y, d) = tr.time("csr.spmv", root, || adapter::csr_spmv(m, x));
            case.check32(0, &y)?;
            ctx.layers.add("_probe.csr.nnz", m.nnz() as f64);
            ctx.layers.add("_probe.csr.us", d.as_secs_f64() * 1e6);
            ctx.attempted += 5;
        }
        // Registry: build (miss), hits, then a disk load in a fresh registry.
        let tr = &ctx.tracer;
        let key = tr
            .time("registry.insert", root, || {
                adapter::registry_insert(&reg, m)
            })
            .0;
        tr.time("registry.acquire.build", root, || {
            adapter::registry_acquire(&reg, key)
        })
        .0?;
        for _ in 0..20 {
            tr.time("registry.acquire.hit", root, || {
                adapter::registry_acquire(&reg, key)
            })
            .0?;
        }
        let fresh = adapter::registry(&dir);
        let key2 = adapter::registry_insert(&fresh, m);
        let served = tr
            .time("registry.acquire.disk", root, || {
                adapter::registry_acquire(&fresh, key2)
            })
            .0?;
        tr.time("verify.audit", root, || {
            adapter::served_view(&served).audit(m)
        })
        .0?;
        if ctx.layers.get("registry.hits").is_none() {
            // Offline: the counts are the probe registries'.
            for (k, v) in adapter::registry_counters(&fresh) {
                ctx.layers.add(&format!("_fresh.{k}"), v as f64);
            }
        }
        ctx.attempted += 24;
    }
    if ctx.layers.get("registry.hits").is_none() {
        let mut counts = adapter::registry_counters(&reg);
        for (k, v) in counts.iter_mut() {
            *v += ctx.layers.get(&format!("_fresh.{k}")).unwrap_or(0.0) as u64;
        }
        registry_counts(ctx, &counts);
    }
    if !served_before {
        probe_serve(ctx, fleet, &reg)?;
    }
    ctx.tracer
        .record_as(root, "probe", ROOT, 0, start, Instant::now());
    let mut snap = adapter::registry_counters(&reg);
    snap.extend(adapter::pool_counters());
    ctx.tracer.snapshot("probe.end", snap);
    Ok(())
}

/// A short open-loop leg through a server over `fleet` (f32 requests).
fn probe_serve(
    ctx: &mut Ctx,
    fleet: &[Case],
    reg: &std::sync::Arc<adapter::ScheduleRegistry>,
) -> Run<()> {
    const RATE: f64 = 20.0;
    let secs = (0.05 * ctx.seconds).max(1.0);
    let server = adapter::server_start(reg.clone());
    let keys: Vec<_> = fleet
        .iter()
        .map(|c| adapter::server_register(&server, &c.m))
        .collect();
    let mut rng = crate::gen::Rng::new(ctx.seed ^ 0x9b0be);
    let cases: Vec<usize> = (0..fleet.len()).collect();
    let events: Vec<Event> = serve::poisson(RATE, secs, &cases, fleet, &mut rng)
        .into_iter()
        .map(|a| Event::Req(Arrival { f64: false, ..a }))
        .collect();
    let leg = serve::run_leg(
        &ctx.tracer,
        &server,
        fleet,
        &keys,
        events,
        &[],
        |_| true,
        RATE,
        secs,
    );
    serve::tally(ctx, &leg)?;
    serve::note_leg(ctx, &leg, &server);
    serve::note_requests(ctx, &[&leg]);
    Ok(())
}

fn median_of(spans: &[Span], name: &str) -> f64 {
    stats::median(&trace::durations(spans, name))
}

/// Derives the span-based metrics, measures host bandwidth, reports self
/// times, and writes spans and snapshots to `.bench_out/`.
pub fn finish(ctx: &mut Ctx, args: &Args) -> Run<()> {
    let spans = ctx.tracer.spans();
    let rb = ctx.host.picked.reg_block as f64;
    let l = &mut ctx.layers;
    let ratio = |l: &Layers, a: &str, b: &str| match (l.get(a), l.get(b)) {
        (Some(x), Some(y)) if y > 0.0 => x / y,
        _ => f64::NAN,
    };
    l.set("io.load_s", median_of(&spans, "io.load") / 1e6);
    let io_us: f64 = trace::durations(&spans, "io.load").iter().sum();
    l.set(
        "io.mb_per_s",
        l.get("_io.bytes").unwrap_or(f64::NAN) / io_us,
    );
    l.set(
        "schedule.build_s",
        median_of(&spans, "schedule.build") / 1e6,
    );
    l.set(
        "schedule.nnz_per_s",
        1e6 * ratio(l, "_schedule.nnz", "_schedule.us"),
    );
    l.set(
        "schedule.colors_over_vizing",
        ratio(l, "schedule.colors", "_schedule.vizing"),
    );
    l.set(
        "schedule.plan_mb",
        l.get("_plan.bytes").unwrap_or(f64::NAN) / (1u64 << 20) as f64,
    );
    l.set("verify.audit_s", median_of(&spans, "verify.audit") / 1e6);
    l.set(
        "serialize.write_s",
        median_of(&spans, "serialize.write") / 1e6,
    );
    l.set(
        "serialize.read_verified_s",
        median_of(&spans, "serialize.read_verified") / 1e6,
    );
    l.set(
        "registry.acquire_hit_us",
        median_of(&spans, "registry.acquire.hit"),
    );
    l.set(
        "registry.acquire_build_ms",
        median_of(&spans, "registry.acquire.build") / 1e3,
    );
    l.set(
        "registry.acquire_disk_ms",
        median_of(&spans, "registry.acquire.disk") / 1e3,
    );
    l.set("engine.single_ms", median_of(&spans, "engine.single") / 1e3);
    l.set(
        "engine.panel_ms_per_vec.w1",
        median_of(&spans, "engine.panel.w1") / 1e3,
    );
    l.set(
        "engine.panel_ms_per_vec.wrb",
        median_of(&spans, "engine.panel.wrb") / 1e3 / rb,
    );
    if l.get("csr.gnnz_s").is_none() {
        l.set(
            "csr.gnnz_s",
            ratio(l, "_probe.csr.nnz", "_probe.csr.us") / 1e3,
        );
    }
    if l.get("_single.nnz_per_s").is_none() {
        l.set(
            "_single.nnz_per_s",
            1e6 * ratio(l, "_probe.single.nnz", "_probe.single.us"),
        );
    }
    l.set("kernels.bytes_per_nnz", ratio(l, "_bytes", "_bytes.nnz"));
    l.set("parallel.panel_speedup", ratio(l, "_seq.us", "_par.us"));
    for (k, v) in adapter::pool_counters() {
        l.set(k, v as f64);
    }

    // Bandwidth bound: STREAM triad over arrays 4x the reported LLC.
    let array_bytes = 4 * ctx.host.llc_bytes.max(1 << 20);
    let triad = host::triad_gb_s(array_bytes, 3);
    l.set("host.triad_gb_s", triad);
    let achieved = l.get("kernels.bytes_per_nnz").unwrap_or(f64::NAN)
        * l.get("_single.nnz_per_s").unwrap_or(f64::NAN);
    l.set("kernels.frac_of_bw", achieved / (triad * 1e9));
    let triad_line = format!(
        "bandwidth: STREAM triad {triad:.2} GB/s, single thread, 3 arrays of {} MiB each (4x the {} MiB LLC); \
         single-vector walk moves {:.1} B/nnz (computed) = {:.3} of it",
        array_bytes >> 20,
        ctx.host.llc_bytes >> 20,
        l.get("kernels.bytes_per_nnz").unwrap_or(f64::NAN),
        l.get("kernels.frac_of_bw").unwrap_or(f64::NAN)
    );

    // Self times, by span name and by layer.
    let selfs = trace::self_times(&spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, &(_, _, self_us)) in &selfs {
        let layer = name.split('.').next().unwrap_or(name);
        *by_layer.entry(layer).or_default() += self_us;
    }
    for &(name, _) in PER_LAYER {
        if let Some(layer) = name.strip_prefix("self_s.") {
            l.set(name, by_layer.get(layer).copied().unwrap_or(0.0) / 1e6);
        }
    }
    // Root coverage of the traced spans alone (the accounted share against
    // untraced wall time is set by each workload's overhead measurement).
    let coverage = |names: &[&str]| {
        let roots: BTreeMap<u64, f64> = spans
            .iter()
            .filter(|s| s.parent == ROOT && names.contains(&s.name))
            .map(|s| (s.id, s.dur_us()))
            .collect();
        let covered: f64 = spans
            .iter()
            .filter(|s| roots.contains_key(&s.parent))
            .map(Span::dur_us)
            .sum();
        let wall: f64 = roots.values().sum();
        (covered, wall)
    };
    let (covered, wall) = coverage(&["request", "phase.offline"]);
    let (setup_cov, setup_wall) = coverage(&["setup"]);

    ctx.say(triad_line);
    ctx.say(format!(
        "traced roots: child spans cover {:.2}% of the timed phase's {:.3} s of root time (served requests: 100% by construction) \
         and {:.2}% of set-up's {:.3} s; the rest is benchmark glue between calls",
        100.0 * covered / wall,
        wall / 1e6,
        100.0 * setup_cov / setup_wall,
        setup_wall / 1e6
    ));
    ctx.say("self time by span (count, total ms, self ms):".to_string());
    for (name, (n, total, own)) in &selfs {
        ctx.say(format!(
            "  {name:<28} {n:>7} {:>12.3} {:>12.3}",
            total / 1e3,
            own / 1e3
        ));
    }
    write_trace(ctx, args, &spans, &selfs)
}

fn write_trace(
    ctx: &mut Ctx,
    args: &Args,
    spans: &[Span],
    selfs: &BTreeMap<&'static str, (u64, f64, f64)>,
) -> Run<()> {
    use std::io::Write;
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| e.to_string();
    write!(
        w,
        "{{\"workload\": {}, \"seed\": {}, \"host\": {},",
        stats::string(&args.workload),
        args.seed,
        ctx.host.json()
    )
    .map_err(io)?;
    write!(w, "\n\"self_times_us\": {{").map_err(io)?;
    let body: Vec<String> = selfs
        .iter()
        .map(|(k, (n, t, s))| {
            format!(
                "{}: {{\"count\": {n}, \"total\": {}, \"self\": {}}}",
                stats::string(k),
                stats::num(*t),
                stats::num(*s)
            )
        })
        .collect();
    write!(w, "{}}},\n\"snapshots\": [", body.join(", ")).map_err(io)?;
    for (i, s) in ctx.tracer.snapshots().iter().enumerate() {
        let counters: Vec<String> = s
            .counters
            .iter()
            .map(|(k, v)| format!("{}: {v}", stats::string(k)))
            .collect();
        write!(
            w,
            "{}\n{{\"at_us\": {}, \"label\": {}, \"counters\": {{{}}}}}",
            if i == 0 { "" } else { "," },
            stats::num(s.at_us),
            stats::string(&s.label),
            counters.join(", ")
        )
        .map_err(io)?;
    }
    write!(w, "],\n\"spans\": [").map_err(io)?;
    for (i, s) in spans.iter().enumerate() {
        write!(
            w,
            "{}\n[{}, {}, {}, {}, {:.3}, {:.3}]",
            if i == 0 { "" } else { "," },
            s.id,
            s.parent,
            s.request,
            stats::string(s.name),
            s.start_us,
            s.end_us
        )
        .map_err(io)?;
    }
    writeln!(w, "]}}").map_err(io)?;
    w.flush().map_err(io)?;
    ctx.say(format!(
        "trace: {} spans ([id, parent, request, name, start_us, end_us]) and counter snapshots in {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}
