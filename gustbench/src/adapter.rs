//! Every call the benchmark makes into the library goes through this file,
//! so an API change (for example merging the schedule families) edits only
//! here. Nothing in this file times anything: callers wrap these calls in
//! spans.

use gust::schedule::serialize;
use gust::serve::{Acquired, PreparedSchedule};
use gust::{
    verify, BandedSchedule, Gust, GustConfig, ScheduledMatrix, TiledSchedule, VerifiedSchedule,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub use gust::serve::{MatrixKey, RegistryStats, ScheduleRegistry, ServeStats, Ticket};
pub use gust::{ServeConfig, SpmvServer};
pub use gust_sparse::CsrMatrix;

/// GUST length `l` for every engine in the benchmark.
pub const LENGTH: usize = 64;

/// The engine with the library's defaults (backend, budgets, workers),
/// optionally pinned to a worker count.
pub fn engine(parallelism: Option<usize>) -> Gust {
    Gust::new(GustConfig::new(LENGTH).with_parallelism(parallelism))
}

// ---- io -------------------------------------------------------------------

/// Matrix Market file → CSR.
pub fn load_mtx(path: &Path) -> Result<CsrMatrix, String> {
    let coo = gust_sparse::io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
    Ok(CsrMatrix::from(&coo))
}

// ---- plans ----------------------------------------------------------------

/// A plan the benchmark built itself. Offline callers use the tiled family
/// (the library's cache-blocked default); a default registry serves flat
/// plans.
pub enum Plan {
    Flat(ScheduledMatrix),
    Tiled(TiledSchedule),
}

/// A borrowed plan of any family: one the benchmark built, or one the
/// registry serves.
#[derive(Clone, Copy)]
pub enum PlanRef<'a> {
    Flat(&'a ScheduledMatrix),
    Banded(&'a BandedSchedule),
    Tiled(&'a TiledSchedule),
}

/// Shape and model figures of a plan.
pub struct PlanStats {
    pub colors: u64,
    pub vizing: u64,
    pub tiles: usize,
    pub bands: usize,
}

impl Plan {
    pub fn build_tiled(g: &Gust, m: &CsrMatrix) -> Self {
        Self::Tiled(g.schedule_tiled(m))
    }

    /// The flat family, which a default registry builds on a miss, so
    /// probes time the same plan build the dispatcher runs.
    pub fn build_flat(g: &Gust, m: &CsrMatrix) -> Self {
        Self::Flat(g.schedule(m))
    }

    pub fn view(&self) -> PlanRef<'_> {
        match self {
            Self::Flat(s) => PlanRef::Flat(s),
            Self::Tiled(s) => PlanRef::Tiled(s),
        }
    }

    /// Reads a plan of the same family back through the auditing reader.
    pub fn read_verified(&self, path: &Path) -> Result<Self, String> {
        match self {
            Self::Flat(_) => serialize::read_schedule_file_verified(path)
                .map(|v| Self::Flat(v.into_inner()))
                .map_err(|e| e.to_string()),
            Self::Tiled(_) => serialize::read_tiled_schedule_file_verified(path)
                .map(|v| Self::Tiled(v.into_inner()))
                .map_err(|e| e.to_string()),
        }
    }
}

fn windows_vizing(b: &BandedSchedule) -> u64 {
    b.windows()
        .iter()
        .map(|w| u64::from(w.window().vizing_bound()))
        .sum()
}

impl PlanRef<'_> {
    /// The safety audit including exact CSR coverage.
    pub fn audit(self, m: &CsrMatrix) -> Result<(), String> {
        let report = match self {
            Self::Flat(s) => verify::audit_schedule_against(s, m),
            Self::Banded(s) => verify::audit_banded_against(s, m),
            Self::Tiled(s) => verify::audit_tiled_against(s, m),
        };
        if report.is_clean() {
            Ok(())
        } else {
            Err(format!("{} audit violations", report.violations().len()))
        }
    }

    pub fn write(self, path: &Path) -> std::io::Result<()> {
        match self {
            Self::Flat(s) => serialize::write_schedule_file(s, path),
            Self::Banded(s) => serialize::write_banded_schedule_file(s, path),
            Self::Tiled(s) => serialize::write_tiled_schedule_file(s, path),
        }
    }

    pub fn stats(self) -> PlanStats {
        match self {
            Self::Flat(s) => PlanStats {
                colors: s.total_colors(),
                vizing: s.total_vizing_bound(),
                tiles: 1,
                bands: 1,
            },
            Self::Banded(s) => PlanStats {
                colors: s.total_colors(),
                vizing: windows_vizing(s),
                tiles: 1,
                bands: s.bands().count(),
            },
            Self::Tiled(s) => PlanStats {
                colors: s.total_colors(),
                vizing: s.tiles().iter().map(windows_vizing).sum(),
                tiles: s.tile_count(),
                bands: s.tiles().iter().map(|t| t.bands().count()).sum(),
            },
        }
    }

    /// Single-vector SpMV; returns the output and the modelled figures.
    pub fn execute(self, g: &Gust, x: &[f32]) -> (Vec<f32>, Model) {
        let run = match self {
            Self::Flat(s) => g.execute(s, x),
            Self::Banded(s) => g.execute_banded(s, x),
            Self::Tiled(s) => g.execute_tiled(s, x),
        };
        (run.output, Model::of(&run.report))
    }

    /// Column-major panel of `width` vectors.
    pub fn execute_batch(self, g: &Gust, panel: &[f32], width: usize) -> (Vec<f32>, Model) {
        let (y, report) = match self {
            Self::Flat(s) => g.execute_batch(s, panel, width),
            Self::Banded(s) => g.execute_batch_banded(s, panel, width),
            Self::Tiled(s) => g.execute_batch_tiled(s, panel, width),
        };
        (y, Model::of(&report))
    }
}

/// The paper's modelled figures from one execution report.
#[derive(Clone, Copy, Default)]
pub struct Model {
    pub utilization: f64,
    pub cycles: u64,
    pub stall_cycles: u64,
}

impl Model {
    fn of(r: &gust_sim::report::ExecutionReport) -> Self {
        Self {
            utilization: r.utilization(),
            cycles: r.cycles,
            stall_cycles: r.stall_cycles,
        }
    }
}

// ---- reference kernel -------------------------------------------------------

pub fn csr_spmv(m: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    m.spmv(x)
}

/// f64 oracle with f64 inputs (exact for the small integers served here).
pub fn csr_spmv_f64(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    gust::serve::reference_spmv_f64(m, x)
}

// ---- registry ---------------------------------------------------------------

/// A registry with the library's default plan family, backed by `dir`.
pub fn registry(dir: &Path) -> Arc<ScheduleRegistry> {
    Arc::new(ScheduleRegistry::new(engine(None)).with_cache_dir(dir))
}

pub fn registry_insert(r: &ScheduleRegistry, m: &CsrMatrix) -> MatrixKey {
    r.insert(m)
}

/// The key every registry gives `m` (a content hash), without registering
/// it anywhere that serves.
pub fn content_key(m: &CsrMatrix) -> MatrixKey {
    ScheduleRegistry::new(engine(Some(1))).insert(m)
}

/// A served plan; `Err` when the registry degraded the matrix instead.
pub type Served = Arc<VerifiedSchedule<PreparedSchedule>>;

pub fn registry_acquire(r: &ScheduleRegistry, key: MatrixKey) -> Result<Served, String> {
    match r.acquire(key).map_err(|e| e.to_string())? {
        Acquired::Scheduled(s) => Ok(s),
        Acquired::Degraded => Err("registry degraded the matrix to the reference kernel".into()),
    }
}

/// The plan inside a served handle.
pub fn served_view(s: &Served) -> PlanRef<'_> {
    match &***s {
        PreparedSchedule::Flat(p) => PlanRef::Flat(p),
        PreparedSchedule::Banded(p) => PlanRef::Banded(p),
        PreparedSchedule::Tiled(p) => PlanRef::Tiled(p),
    }
}

/// Where a default (flat-plan) registry backed by `dir` keeps `key`'s plan
/// (the documented `<key>.gust` naming).
pub fn registry_cache_path(dir: &Path, key: MatrixKey) -> PathBuf {
    dir.join(format!("{:016x}.gust", key.as_u64()))
}

pub fn registry_counters(r: &ScheduleRegistry) -> Vec<(&'static str, u64)> {
    let s: RegistryStats = r.stats();
    vec![
        ("registry.hits", s.hits),
        ("registry.misses", s.misses),
        ("registry.rebuilds", s.rebuilds),
        ("registry.disk_loads", s.disk_loads),
        ("registry.audit_rejects", s.audit_rejects),
        ("registry.quarantined", s.quarantined),
        ("registry.build_failures", s.build_failures),
    ]
}

// ---- server -----------------------------------------------------------------

pub fn server_start(r: Arc<ScheduleRegistry>) -> SpmvServer {
    SpmvServer::start(r, ServeConfig::default())
}

pub fn server_register(s: &SpmvServer, m: &CsrMatrix) -> MatrixKey {
    s.register(m)
}

/// A submitted request of either precision.
pub enum Pending {
    F32(Ticket<f32>),
    F64(Ticket<f64>),
}

/// A finished request: output, dispatcher-observed residence, degraded.
pub enum Answer {
    F32(Vec<f32>),
    F64(Vec<f64>),
}

pub fn server_submit(
    s: &SpmvServer,
    tenant: usize,
    key: MatrixKey,
    x: Vec<f32>,
    deadline: Duration,
) -> Result<Pending, String> {
    s.submit(tenant, key, x, Some(deadline))
        .map(Pending::F32)
        .map_err(|e| e.to_string())
}

pub fn server_submit_f64(
    s: &SpmvServer,
    tenant: usize,
    key: MatrixKey,
    x: Vec<f64>,
    deadline: Duration,
) -> Result<Pending, String> {
    s.submit_f64(tenant, key, x, Some(deadline))
        .map(Pending::F64)
        .map_err(|e| e.to_string())
}

/// Waits for a ticket: `(answer, residence, degraded)`.
pub fn ticket_wait(p: Pending) -> Result<(Answer, Duration, bool), String> {
    match p {
        Pending::F32(t) => t
            .wait()
            .map(|r| (Answer::F32(r.output), r.latency, r.degraded))
            .map_err(|e| e.to_string()),
        Pending::F64(t) => t
            .wait()
            .map(|r| (Answer::F64(r.output), r.latency, r.degraded))
            .map_err(|e| e.to_string()),
    }
}

pub fn server_queue_depth(s: &SpmvServer) -> usize {
    s.queue_depth()
}

pub fn server_counters(s: &SpmvServer) -> Vec<(&'static str, u64)> {
    let st: ServeStats = s.stats();
    vec![
        ("server.submitted", st.submitted),
        ("server.admitted", st.admitted),
        ("server.shed", st.shed),
        ("server.completed", st.completed),
        ("server.deadline_missed", st.deadline_missed),
        ("server.late_results", st.late_results),
        ("server.degraded", st.degraded_responses),
        ("server.batches", st.batches),
        ("server.batched_requests", st.batched_requests),
        ("server.exec_retries", st.exec_retries),
        ("server.exec_fallbacks", st.exec_fallbacks),
    ]
}

// ---- pool and host ------------------------------------------------------------

pub fn pool_counters() -> Vec<(&'static str, u64)> {
    let p = gust::Pool::global();
    vec![
        ("pool.threads_spawned", p.threads_spawned() as u64),
        ("pool.panics_observed", p.panics_observed() as u64),
    ]
}

/// What the library picked on this host.
pub struct Picked {
    pub backend: &'static str,
    pub reg_block: usize,
    pub reg_block_f64: usize,
    pub cache_budget: usize,
    pub row_budget: usize,
    pub workers: usize,
    pub features: String,
}

pub fn picked() -> Picked {
    let g = engine(None);
    Picked {
        backend: g.backend().name(),
        reg_block: g.reg_block(),
        reg_block_f64: g.reg_block_f64(),
        cache_budget: g.config().effective_cache_budget(),
        row_budget: g.config().effective_row_budget(),
        workers: g.config().effective_workers(usize::MAX),
        features: gust::kernels::cpu_features(),
    }
}
