//! The served workload: an open loop over the serving runtime.
//!
//! Load comes from this process alone: the calling thread generates
//! Poisson arrivals on a precomputed timetable and one collector thread
//! waits for the answers, so the benchmark adds at most two busy threads
//! next to the server's dispatcher. Latency is timed from each request's
//! due time to its completion (the submit call's start plus the
//! dispatcher-observed `Response.latency`), so a stall also charges the
//! requests that queue up behind it.

use crate::adapter::{self, MatrixKey, SpmvServer};
use crate::gen::{self, Rng, Values};
use crate::oracle::{Case, Check};
use crate::stats::{self, percentile};
use crate::trace::{Tracer, ROOT};
use crate::{layers, Ctx, Run};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Tenants sending requests; tenant `t` sends f64 when `t % 4 == 3`.
pub const TENANTS: usize = 8;
/// Capacity of the served fleet (req/s): the lowest `max_rps` that seed-1
/// runs read on the reference host (see LAYERS.md). Frozen there; never
/// measured on the build under test.
pub const CAPACITY: f64 = 1600.0;
/// The fixed legs offer fixed shares of that capacity: low 10%, mid 25%
/// (warm requests queue up mainly behind cold builds, so queueing does not
/// amplify host noise into the headline latencies), high 75% (requests
/// aggregate).
pub const RATE_LOW: f64 = 0.10 * CAPACITY;
pub const RATE_MID: f64 = 0.25 * CAPACITY;
pub const RATE_HIGH: f64 = 0.75 * CAPACITY;
/// Capacity search: p99 limit and search bracket.
pub const P99_LIMIT_MS: f64 = 25.0;
const SEARCH_HI: f64 = 4000.0;
/// Per-request deadline (the serving runtime's default).
const DEADLINE: Duration = Duration::from_secs(2);
/// Input vectors per matrix (answers precomputed).
const POOL: usize = 8;

/// The served matrices: uniform, power-law, and hub-wide, integer-valued,
/// each with a plan small enough (about 16 B per non-zero) to stay in one
/// core's 2 MiB L2.
fn warm_cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let v = Values::Integer;
    vec![
        Case::new(
            "uniform",
            gen::uniform(4096, 4096, 100_000, v, seed),
            v,
            POOL,
            &mut rng,
        ),
        Case::new(
            "power-law",
            gen::power_law(4096, 4096, 100_000, v, seed + 1),
            v,
            POOL,
            &mut rng,
        ),
        Case::new(
            "hub-wide",
            gen::hub(2048, 65536, 60_000, 512, v, seed + 2),
            v,
            POOL,
            &mut rng,
        ),
    ]
}

/// A request on the timetable.
#[derive(Clone, Copy)]
pub struct Arrival {
    /// Seconds after the leg starts.
    pub at: f64,
    pub tenant: usize,
    pub case: usize,
    pub probe: usize,
    pub f64: bool,
}

/// Timetable events: a request, or a matrix joining the server.
#[derive(Clone, Copy)]
pub enum Event {
    Req(Arrival),
    Register(usize),
}

impl Event {
    fn at(&self, registers: &[f64]) -> f64 {
        match self {
            Self::Req(a) => a.at,
            Self::Register(c) => registers[*c],
        }
    }
}

/// Poisson arrivals at `rate` over `secs` across `cases` (indices into the
/// fleet). Only the arrival times are random: the `k`-th request comes
/// from tenant `k % TENANTS` for case `cases[k % cases.len()]`, so every
/// run offers the same tenant, matrix and precision mix and the latency
/// percentiles do not move with the draw of that mix.
pub fn poisson(
    rate: f64,
    secs: f64,
    cases: &[usize],
    fleet: &[Case],
    rng: &mut Rng,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = rng.exp(1.0 / rate);
    while t < secs {
        let k = out.len();
        let tenant = k % TENANTS;
        let case = cases[k % cases.len()];
        out.push(Arrival {
            at: t,
            tenant,
            case,
            probe: rng.below(fleet[case].probes.len()),
            f64: tenant % 4 == 3 && fleet[case].check == Check::Exact,
        });
        t += rng.exp(1.0 / rate);
    }
    out
}

/// What one leg measured.
#[derive(Default)]
pub struct Leg {
    pub rate: f64,
    pub secs: f64,
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub missed: u64,
    /// Latency from due time (ms) of answered requests to counted cases.
    pub lat_ms: Vec<f64>,
    /// The same, to the collector's observation of the answer.
    pub obs_ms: Vec<f64>,
    /// Due time (seconds into the leg) of each `lat_ms` sample.
    pub lat_at: Vec<f64>,
    /// The same, per case.
    pub lat_by_case: Vec<Vec<f64>>,
    /// Per cold case: due → completion of its first request (ms).
    pub first_ms: Vec<(usize, f64)>,
    pub late_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub residence_ms: Vec<f64>,
    pub delivery_us: Vec<f64>,
    /// (seconds, requests sent but not yet answered).
    pub backlog: Vec<(f64, f64)>,
    pub depth: Vec<f64>,
    /// Requests per batch the dispatcher ran during the leg.
    pub agg: f64,
    pub wrong: Option<String>,
}

impl Leg {
    pub fn failed(&self) -> u64 {
        self.shed + self.missed + u64::from(self.wrong.is_some())
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&mut self.lat_ms.clone(), q)
    }

    /// See [`stats::windowed`].
    pub fn windowed(&self, window_s: f64, within: f64, across: f64) -> f64 {
        stats::windowed(
            &self.lat_at,
            &self.lat_ms,
            self.secs,
            window_s,
            within,
            across,
        )
    }

    /// Backlog growth in requests per second over the leg.
    pub fn backlog_slope(&self) -> f64 {
        let xs: Vec<f64> = self.backlog.iter().map(|b| b.0).collect();
        let ys: Vec<f64> = self.backlog.iter().map(|b| b.1).collect();
        stats::slope(&xs, &ys)
    }

    /// Meets the latency limit with no failures and no growing backlog
    /// (backlog growth over the leg under 2% of the requests sent).
    pub fn sustainable(&self) -> bool {
        self.failed() == 0
            && self.p(99.0) <= P99_LIMIT_MS
            && self.backlog_slope() * self.secs <= 0.02 * self.sent as f64 + 2.0
    }
}

/// Runs one open-loop leg. `counted(case)` selects whose latencies enter
/// `lat_ms`; `registers[c]` is when case `c` joins the server (events of
/// kind `Register` only).
#[allow(clippy::too_many_arguments)]
pub fn run_leg(
    tr: &Tracer,
    server: &SpmvServer,
    fleet: &[Case],
    keys: &[MatrixKey],
    mut events: Vec<Event>,
    registers: &[f64],
    counted: impl Fn(usize) -> bool + Sync,
    rate: f64,
    secs: f64,
) -> Leg {
    events.sort_by(|a, b| a.at(registers).total_cmp(&b.at(registers)));
    let before = adapter::server_counters(server);
    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let out = Mutex::new(Leg {
        rate,
        secs,
        lat_by_case: vec![Vec::new(); fleet.len()],
        ..Leg::default()
    });
    let (tx, rx) = mpsc::channel::<(Arrival, Instant, Instant, Instant, u64, adapter::Pending)>();
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut first_seen = vec![false; fleet.len()];
            for (a, due, t_call, t_ret, rid, pending) in rx {
                let res = adapter::ticket_wait(pending);
                let t_obs = Instant::now();
                done.fetch_add(1, Ordering::Relaxed);
                let mut leg = out.lock().expect("leg lock");
                let (answer, residence) = match res {
                    Ok((answer, residence, _degraded)) => (answer, residence),
                    Err(_) => {
                        leg.missed += 1;
                        continue;
                    }
                };
                let verdict = match &answer {
                    adapter::Answer::F32(y) => fleet[a.case].check32(a.probe, y),
                    adapter::Answer::F64(y) => fleet[a.case].check64(a.probe, y),
                };
                if let Err(e) = verdict {
                    leg.wrong.get_or_insert(e);
                    stop.store(true, Ordering::Relaxed);
                    continue;
                }
                leg.ok += 1;
                let done_at = t_call + residence;
                let lat = done_at.saturating_duration_since(due).as_secs_f64() * 1e3;
                if counted(a.case) {
                    leg.lat_ms.push(lat);
                    leg.obs_ms
                        .push(t_obs.saturating_duration_since(due).as_secs_f64() * 1e3);
                    leg.lat_at.push(a.at);
                    leg.lat_by_case[a.case].push(lat);
                }
                if !first_seen[a.case] {
                    first_seen[a.case] = true;
                    if !counted(a.case) {
                        leg.first_ms.push((a.case, lat));
                    }
                }
                if tr.enabled {
                    leg.late_ms
                        .push(t_call.saturating_duration_since(due).as_secs_f64() * 1e3);
                    leg.submit_us.push((t_ret - t_call).as_secs_f64() * 1e6);
                    leg.residence_ms.push(residence.as_secs_f64() * 1e3);
                    leg.delivery_us
                        .push(t_obs.saturating_duration_since(done_at).as_secs_f64() * 1e6);
                    let root = tr.reserve();
                    tr.record("gen.late", root, rid, due.min(t_call), t_call);
                    tr.record("server.submit", root, rid, t_call, t_ret);
                    tr.record("server.residence", root, rid, t_ret, done_at.max(t_ret));
                    tr.record(
                        "server.delivery",
                        root,
                        rid,
                        done_at.max(t_ret),
                        t_obs.max(t_ret),
                    );
                    tr.record_as(
                        root,
                        "request",
                        ROOT,
                        rid,
                        due.min(t_call),
                        t_obs.max(t_ret),
                    );
                }
            }
        });

        let mut sent = 0u64;
        let mut shed = 0u64;
        let mut next_sample = 0.0f64;
        for (rid, ev) in events.iter().enumerate() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let due = t0 + Duration::from_secs_f64(ev.at(registers));
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let a = match *ev {
                Event::Register(c) => {
                    let t = Instant::now();
                    adapter::server_register(server, &fleet[c].m);
                    tr.record("server.register", ROOT, 0, t, Instant::now());
                    continue;
                }
                Event::Req(a) => a,
            };
            let case = &fleet[a.case];
            let probe = &case.probes[a.probe];
            let key = keys[a.case];
            let (x32, x64) = if a.f64 {
                (Vec::new(), probe.x64.clone())
            } else {
                (probe.x.clone(), Vec::new())
            };
            let t_call = Instant::now();
            let submitted = if a.f64 {
                adapter::server_submit_f64(server, a.tenant, key, x64, DEADLINE)
            } else {
                adapter::server_submit(server, a.tenant, key, x32, DEADLINE)
            };
            let t_ret = Instant::now();
            sent += 1;
            match submitted {
                Ok(p) => {
                    let _ = tx.send((a, due, t_call, t_ret, rid as u64, p));
                }
                Err(_) => shed += 1,
            }
            let elapsed = t_ret.saturating_duration_since(t0).as_secs_f64();
            if elapsed >= next_sample {
                next_sample = elapsed + 0.01;
                let backlog = sent - shed - done.load(Ordering::Relaxed);
                let mut leg = out.lock().expect("leg lock");
                leg.backlog.push((elapsed, backlog as f64));
                if tr.enabled {
                    leg.depth.push(adapter::server_queue_depth(server) as f64);
                }
            }
        }
        drop(tx);
        let mut leg = out.lock().expect("leg lock");
        leg.sent = sent;
        leg.shed = shed;
    });
    let after = adapter::server_counters(server);
    let delta = |k: &str| {
        let get = |c: &[(&str, u64)]| c.iter().find(|p| p.0 == k).map_or(0, |p| p.1);
        get(&after).saturating_sub(get(&before)) as f64
    };
    let mut leg = out.into_inner().expect("leg lock");
    leg.agg = delta("server.batched_requests") / delta("server.batches").max(1.0);
    leg
}

/// The server with its fleet registered, planned, audited and answered.
pub struct Setup {
    pub server: SpmvServer,
    pub keys: Vec<MatrixKey>,
}

/// Writes every case as Matrix Market text; returns paths.
pub fn write_inputs(dir: &Path, fleet: &[Case]) -> Run<Vec<PathBuf>> {
    fleet
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let path = dir.join(format!("{i}-{}.mtx", c.name));
            gen::write_mtx(&c.m, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Loads and registers `warm` (served from the start) and loads `cold`
/// (joining later), pre-building and caching plans for the cold cases
/// flagged in `precache`. Each warm matrix is acquired (plan built and
/// written back), audited, and answered once through the server.
fn setup_once(
    ctx: &mut Ctx,
    fleet: &[Case],
    paths: &[PathBuf],
    warm: usize,
    precache: &[bool],
    rep: usize,
) -> Run<Setup> {
    let tr = &ctx.tracer;
    let cache = ctx.work.join(format!("cache-{rep}"));
    let _ = std::fs::remove_dir_all(&cache);
    let start = Instant::now();
    let root = tr.reserve();
    let server = adapter::server_start(adapter::registry(&cache));
    let mut keys = Vec::new();
    for (i, case) in fleet.iter().enumerate() {
        let (m, _) = tr.time("io.load", root, || adapter::load_mtx(&paths[i]));
        let m = m?;
        ctx.attempted += 1;
        if ctx.traced() {
            let bytes = std::fs::metadata(&paths[i]).map_or(0, |md| md.len());
            ctx.layers.add("_io.bytes", bytes as f64);
        }
        let tr = &ctx.tracer;
        if i < warm {
            let (key, _) = tr.time("server.register", root, || {
                adapter::server_register(&server, &m)
            });
            let (served, _) = tr.time("registry.acquire.build", root, || {
                adapter::registry_acquire(server.registry(), key)
            });
            let served = served?;
            let (audit, _) = tr.time("verify.audit", root, || {
                adapter::served_view(&served).audit(&m)
            });
            audit?;
            let (answer, _) = tr.time("server.first_answer", root, || {
                adapter::server_submit(&server, 0, key, case.probes[0].x.clone(), DEADLINE)
                    .and_then(adapter::ticket_wait)
            });
            match answer? {
                (adapter::Answer::F32(y), _, _) => case.check32(0, &y)?,
                (adapter::Answer::F64(_), _, _) => return Err("f32 request answered in f64".into()),
            }
            keys.push(key);
            ctx.attempted += 3;
        } else {
            let key = adapter::content_key(&m);
            if precache[i - warm] {
                let g = adapter::engine(None);
                let (plan, t) =
                    tr.time("schedule.build", root, || adapter::Plan::build_flat(&g, &m));
                ctx.layers.add("_schedule.nnz", m.nnz() as f64);
                ctx.layers.add("_schedule.us", t.as_secs_f64() * 1e6);
                let tr = &ctx.tracer;
                let (audit, _) = tr.time("verify.audit", root, || plan.view().audit(&m));
                audit?;
                let path = adapter::registry_cache_path(&cache, key);
                std::fs::create_dir_all(&cache).map_err(|e| e.to_string())?;
                let (written, _) = tr.time("serialize.write", root, || plan.view().write(&path));
                written.map_err(|e| e.to_string())?;
                ctx.attempted += 3;
            }
            keys.push(key);
        }
    }
    tr.record_as(root, "setup", ROOT, rep as u64, start, Instant::now());
    let mut snap = adapter::registry_counters(server.registry());
    snap.extend(adapter::server_counters(&server));
    snap.extend(adapter::pool_counters());
    tr.snapshot(format!("setup.{rep}.end"), snap);
    Ok(Setup { server, keys })
}

/// What a set-up starts from.
struct Inputs<'a> {
    fleet: &'a [Case],
    paths: &'a [PathBuf],
    warm: usize,
    precache: &'a [bool],
}

/// `reps` set-ups, timed into `times`; returns the last. Workloads spread
/// their set-ups over the run (before and between legs), so a slow spell
/// of the host shifts a few of them, not the median.
fn setups(ctx: &mut Ctx, inp: &Inputs<'_>, reps: usize, times: &mut Vec<f64>) -> Run<Setup> {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let s = setup_once(
            ctx,
            inp.fleet,
            inp.paths,
            inp.warm,
            inp.precache,
            times.len(),
        )?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Records `setup_s`, the median of every set-up of the run.
fn report_setups(ctx: &mut Ctx, times: &[f64]) {
    let setup_s = stats::median(times);
    ctx.say(format!(
        "setup_s {setup_s:.4} s (median of {}: {})",
        times.len(),
        times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    ctx.e2e.put("setup_s", setup_s, "s");
}

/// Modelled utilization (%) of the plans the server holds, nnz-weighted.
fn model_util(ctx: &mut Ctx, fleet: &[Case], s: &Setup, which: &[usize]) -> Run<f64> {
    let g = adapter::engine(None);
    let (mut num, mut den) = (0.0, 0.0);
    for &c in which {
        let served = adapter::registry_acquire(s.server.registry(), s.keys[c])?;
        let view = adapter::served_view(&served);
        let (y, model) = view.execute(&g, &fleet[c].probes[0].x);
        fleet[c].check32(0, &y)?;
        num += model.utilization * fleet[c].nnz() as f64;
        den += fleet[c].nnz() as f64;
        if ctx.traced() {
            layers::note_plan(ctx, view, &model, fleet[c].nnz(), fleet[c].m.rows());
        }
    }
    Ok(100.0 * num / den)
}

fn leg_line(name: &str, leg: &Leg, fleet: &[Case]) -> String {
    let by_case: Vec<String> = fleet
        .iter()
        .zip(&leg.lat_by_case)
        .filter(|(_, v)| !v.is_empty())
        .map(|(c, v)| format!("{} {:.3}", c.name, stats::median(v)))
        .collect();
    format!(
        "leg {name}: offered {:.0} req/s for {:.1} s; sent {}, ok {}, shed {}, deadline-missed {}; \
         latency from due p50 {:.3} ms, p99 {:.3} ms (n = {}); backlog slope {:.2} req/s; {:.3} requests per batch; \
         p50 by matrix (ms): {}",
        leg.rate,
        leg.secs,
        leg.sent,
        leg.ok,
        leg.shed,
        leg.missed,
        leg.p(50.0),
        leg.p(99.0),
        leg.lat_ms.len(),
        leg.backlog_slope(),
        leg.agg,
        by_case.join(", ")
    )
}

/// Counts a leg's operations into the run's totals and fails the run on a
/// wrong answer.
pub fn tally(ctx: &mut Ctx, leg: &Leg) -> Run<()> {
    ctx.attempted += leg.sent;
    ctx.failed += leg.failed();
    probe_verdict(leg)
}

/// A capacity-search step is meant to overload the server, so what it sheds
/// or lets miss a deadline is its measurement, not a failed operation of
/// the workload; a wrong answer still fails the run.
fn probe_verdict(leg: &Leg) -> Run<()> {
    match &leg.wrong {
        Some(e) => Err(format!("wrong answer: {e}")),
        None => Ok(()),
    }
}

fn all(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Tracing overhead: three pairs of short mid-rate legs, untraced then
/// traced, so host noise falls on both sides alike. The four spans of a
/// traced request cover it from due time to the collector's observation by
/// construction, so the blocking path's accounted share is their mean
/// against an untraced request's mean time: its distance from 100% is
/// tracing cost plus the noise left between the two sides.
fn overhead(ctx: &mut Ctx, fleet: &[Case], s: &Setup, warm: usize, rng: &mut Rng) -> Run<()> {
    let secs = 0.05 * ctx.seconds;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let leg = warm_leg(&Tracer::new(false), s, fleet, warm, RATE_MID, secs, rng);
        tally(ctx, &leg)?;
        untraced.push(leg);
        let leg = warm_leg(&ctx.tracer, s, fleet, warm, RATE_MID, secs, rng);
        tally(ctx, &leg)?;
        traced.push(leg);
    }
    let cat = |legs: &[Leg], f: fn(&Leg) -> &Vec<f64>| {
        legs.iter()
            .flat_map(|l| f(l).iter().copied())
            .collect::<Vec<f64>>()
    };
    let (a, b) = (
        stats::median(&cat(&untraced, |l| &l.lat_ms)),
        stats::median(&cat(&traced, |l| &l.lat_ms)),
    );
    ctx.layers.set("trace.overhead_pct", 100.0 * (b - a) / a);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let spans_ms: Vec<f64> = traced
        .iter()
        .flat_map(|l| {
            (0..l.late_ms.len()).map(move |i| {
                l.late_ms[i] + l.submit_us[i] / 1e3 + l.residence_ms[i] + l.delivery_us[i] / 1e3
            })
        })
        .collect();
    let (wall, covered) = (mean(&cat(&untraced, |l| &l.obs_ms)), mean(&spans_ms));
    ctx.layers
        .set("trace.accounted_pct", 100.0 * covered / wall);
    ctx.say(format!(
        "tracing overhead: mid-rate p50 {a:.3} ms untraced vs {b:.3} ms traced ({:+.1}%), three alternating pairs of legs; \
         request spans (gen.late + server.submit + server.residence + server.delivery) average {covered:.4} ms \
         against an untraced request's {wall:.4} ms from due time to observed answer ({:.1}%)",
        100.0 * (b - a) / a,
        100.0 * covered / wall
    ));
    Ok(())
}

/// Per-layer figures of a served leg.
pub fn note_leg(ctx: &mut Ctx, leg: &Leg, server: &SpmvServer) {
    let after = adapter::server_counters(server);
    ctx.layers.set("server.agg_factor", leg.agg);
    ctx.layers.set(
        "server.queue_depth.p99",
        percentile(&mut leg.depth.clone(), 99.0),
    );
    ctx.layers.set("server.backlog_slope", leg.backlog_slope());
    layers::serve_counts(ctx, &after);
    ctx.tracer.snapshot("leg.end", after);
}

/// Request-span figures over `legs`: generator lateness p99 and the
/// submit, residence and delivery medians.
pub fn note_requests(ctx: &mut Ctx, legs: &[&Leg]) {
    let cat = |f: fn(&Leg) -> &Vec<f64>| {
        legs.iter()
            .flat_map(|l| f(l).iter().copied())
            .collect::<Vec<f64>>()
    };
    let l = &mut ctx.layers;
    l.set(
        "gen.late_ms.p99",
        percentile(&mut cat(|l| &l.late_ms), 99.0),
    );
    l.set("server.submit_us", stats::median(&cat(|l| &l.submit_us)));
    l.set(
        "server.residence_ms",
        stats::median(&cat(|l| &l.residence_ms)),
    );
    l.set(
        "server.delivery_us",
        stats::median(&cat(|l| &l.delivery_us)),
    );
}

/// A warm-only leg at `rate` for `secs` over cases `0..warm`.
fn warm_leg(
    tr: &Tracer,
    s: &Setup,
    fleet: &[Case],
    warm: usize,
    rate: f64,
    secs: f64,
    rng: &mut Rng,
) -> Leg {
    let ev = poisson(rate, secs, &all(warm), fleet, rng)
        .into_iter()
        .map(Event::Req)
        .collect();
    run_leg(tr, &s.server, fleet, &s.keys, ev, &[], |_| true, rate, secs)
}

/// Capacity of the warm fleet: geometric bisection between the highest
/// sustainable and the lowest unsustainable of the warm-only `fixed` legs
/// (or the search ceiling) until the bracket is within 5%, in steps of 5% of
/// `--seconds` each. Reports `max_rps`.
fn capacity(
    ctx: &mut Ctx,
    s: &Setup,
    fleet: &[Case],
    warm: usize,
    fixed: &[&Leg],
    rng: &mut Rng,
) -> Run<()> {
    let (mut lo, mut hi) = (0.0f64, SEARCH_HI);
    for leg in fixed {
        if leg.sustainable() {
            lo = lo.max(leg.rate);
        } else {
            hi = hi.min(leg.rate);
        }
    }
    let step_secs = 0.05 * ctx.seconds;
    let mut steps = 0;
    let (mut search_sent, mut search_failed) = (0, 0);
    while lo > 0.0 && hi / lo > 1.05 {
        let rate = (lo * hi).sqrt();
        let leg = warm_leg(&ctx.tracer, s, fleet, warm, rate, step_secs, rng);
        probe_verdict(&leg)?;
        search_sent += leg.sent;
        search_failed += leg.failed();
        steps += 1;
        ctx.say(format!(
            "capacity step {steps}: {}",
            leg_line("search", &leg, fleet)
        ));
        if leg.sustainable() {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    ctx.say(format!(
        "max_rps {lo:.1} req/s (p99 <= {P99_LIMIT_MS} ms, no failures, flat backlog; bracket [{lo:.1}, {hi:.1}] after {steps} steps; \
         the steps sent {search_sent} requests, {search_failed} shed or past deadline, not counted as failed operations)"
    ));
    let mean_nnz = fleet[..warm].iter().map(|c| c.nnz() as f64).sum::<f64>() / warm as f64;
    ctx.say(format!(
        "capacity_gnnz_s {:.4} Gnnz/s (max_rps x mean nnz per request)",
        lo * mean_nnz / 1e9
    ));
    Ok(())
}

/// The report's `lat_p50_ms` (the lower quartile of one-second windows'
/// p50) and the result line's `lat_p99_ms` (the median of two-second
/// windows' p99, so each window holds one cached and one built arrival),
/// `peak_rss_mb` (read by the caller before any overload leg) and
/// `model_util_pct`.
fn put_common(ctx: &mut Ctx, leg: &Leg, util: f64, rss: f64, what: &str) {
    let (p50, p99) = (leg.windowed(1.0, 50.0, 25.0), leg.windowed(2.0, 99.0, 50.0));
    ctx.say(format!(
        "lat_p50_ms {p50:.4} ms = lower quartile of {} one-second windows' p50; lat_p99_ms {p99:.4} ms = median of \
         {} two-second windows' p99; over {} {what} (from due time); whole-leg p50 {:.4} ms, p99 {:.4} ms",
        leg.secs.floor().max(1.0),
        (leg.secs / 2.0).floor().max(1.0),
        leg.lat_ms.len(),
        leg.p(50.0),
        leg.p(99.0)
    ));
    ctx.e2e.put("lat_p99_ms", p99, "ms");
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

/// `serve-churn`: warm traffic at the low rate; then at the mid rate while
/// new matrices join on a fixed timetable, half with a valid plan already
/// in the cache; then at the high rate; then a capacity search.
pub fn churn(ctx: &mut Ctx) -> Run<()> {
    const COLD: usize = 16;
    let mut fleet = warm_cases(ctx.seed);
    let warm = fleet.len();
    let mut rng = Rng::new(ctx.seed ^ 0xc01d);
    let v = Values::Integer;
    for k in 0..COLD {
        let seed = ctx.seed.wrapping_mul(31).wrapping_add(100 + k as u64);
        let m = if k % 2 == 0 {
            gen::uniform(8192, 8192, 500_000, v, seed)
        } else {
            gen::power_law(8192, 8192, 500_000, v, seed)
        };
        let name = if k % 2 == 0 {
            "cold-uniform"
        } else {
            "cold-power-law"
        };
        fleet.push(Case::new(name, m, v, POOL, &mut rng));
    }
    // Cached and built arrivals alternate, so every two-second window of
    // the churn leg holds one of each: uniform cached, uniform built,
    // power-law cached, power-law built, and so on.
    let precache: Vec<bool> = (0..COLD).map(|k| k % 2 == 0).collect();
    let paths = write_inputs(&ctx.work, &fleet)?;
    let inputs = Inputs {
        fleet: &fleet,
        paths: &paths,
        warm,
        precache: &precache,
    };
    // Three set-ups (each loads all 19 matrices): two before the first leg,
    // one after the churn leg. The legs take 15%, 50% and 10% of
    // `--seconds`, and each capacity-search step 5%.
    let mut setup_times = Vec::new();
    let s = setups(ctx, &inputs, 2, &mut setup_times)?;
    let sec = ctx.seconds;
    let low = warm_leg(
        &ctx.tracer,
        &s,
        &fleet,
        warm,
        RATE_LOW,
        0.15 * sec,
        &mut rng,
    );
    tally(ctx, &low)?;

    let secs = 0.5 * sec;
    let mut events: Vec<Event> = poisson(RATE_MID, secs, &all(warm), &fleet, &mut rng)
        .into_iter()
        .map(Event::Req)
        .collect();
    let mut registers = vec![0.0; fleet.len()];
    // Each new matrix gets a burst of requests from its own tenant, so
    // the offered load stays at the mid rate plus one small burst.
    const COLD_RATE: f64 = 40.0;
    const COLD_REQUESTS: usize = 10;
    for k in 0..COLD {
        let c = warm + k;
        let at = secs * (k as f64 + 0.5) / COLD as f64;
        registers[c] = at;
        events.push(Event::Register(c));
        let mut t = at + 0.001;
        for _ in 0..COLD_REQUESTS {
            events.push(Event::Req(Arrival {
                at: t,
                tenant: TENANTS + k,
                case: c,
                probe: rng.below(POOL),
                f64: false,
            }));
            t += rng.exp(1.0 / COLD_RATE);
        }
    }
    let mid = run_leg(
        &ctx.tracer,
        &s.server,
        &fleet,
        &s.keys,
        events,
        &registers,
        |c| c < warm,
        RATE_MID,
        secs,
    );
    if ctx.traced() {
        note_leg(ctx, &mid, &s.server);
    }
    tally(ctx, &mid)?;
    let mut firsts: Vec<(usize, f64)> = mid.first_ms.clone();
    firsts.sort_by_key(|f| f.0);
    let cold_first: Vec<f64> = firsts.iter().map(|f| f.1).collect();
    if cold_first.len() != COLD {
        return Err(format!(
            "only {} of {COLD} cold matrices answered",
            cold_first.len()
        ));
    }
    // Peak memory before any leg that can overload the server and queue
    // up request vectors.
    let rss = stats::peak_rss_mb();
    let util = model_util(ctx, &fleet, &s, &all(fleet.len()))?;
    setups(ctx, &inputs, 1, &mut setup_times)?;
    report_setups(ctx, &setup_times);
    let high = warm_leg(
        &ctx.tracer,
        &s,
        &fleet,
        warm,
        RATE_HIGH,
        0.1 * sec,
        &mut rng,
    );
    tally(ctx, &high)?;
    for (name, leg) in [
        ("low", &low),
        ("mid+churn (warm tenants)", &mid),
        ("high", &high),
    ] {
        let line = leg_line(name, leg, &fleet);
        ctx.say(line);
    }
    let split = |cached: bool| {
        firsts
            .iter()
            .filter(|f| precache[f.0 - warm] == cached)
            .map(|f| format!("{:.2}", f.1))
            .collect::<Vec<_>>()
            .join(", ")
    };
    ctx.say(format!(
        "cold_first_ms {:.4} ms (median of {} cold arrivals; cached: [{}] ms, built: [{}] ms)",
        stats::median(&cold_first),
        cold_first.len(),
        split(true),
        split(false)
    ));
    // The churn leg's tail is set by cold builds, so only the warm-only
    // legs bracket the search.
    capacity(ctx, &s, &fleet, warm, &[&low, &high], &mut rng)?;
    put_common(ctx, &mid, util, rss, "warm-tenant requests during churn");
    if ctx.traced() {
        note_requests(ctx, &[&low, &mid, &high]);
        layers::serve_counts(ctx, &adapter::server_counters(&s.server));
        layers::registry_counts(ctx, &adapter::registry_counters(s.server.registry()));
        overhead(ctx, &fleet, &s, warm, &mut rng)?;
        layers::probe(ctx, &fleet, adapter::Plan::build_flat)?;
    }
    Ok(())
}
