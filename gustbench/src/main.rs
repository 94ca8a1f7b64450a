//! GUST benchmark: served, cold-path and offline SpMV workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path gustbench/Cargo.toml -- \
//!     --workload <serve-churn|offline-spmv> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` and written as Matrix Market files
//! under `.bench_work/` before any clock starts. Every answer is checked
//! (bit-identical to the reference CSR kernel for the integer-valued served
//! matrices, within the backend's documented rounding bound of an f64 oracle
//! offline); a wrong answer stops timing and the process exits 1. The last
//! stdout line is one JSON object: with `--trace 0` the end-to-end metrics,
//! with `--trace 1` the per-layer ones (spans and counter snapshots go to
//! `.bench_out/`). See `gustbench/LAYERS.md` for what each metric means.

mod adapter;
mod gen;
mod host;
mod layers;
mod offline;
mod oracle;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// State shared by every workload of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: trace::Tracer,
    pub work: PathBuf,
    pub host: host::Host,
    /// Operations attempted and failed (shed, deadline-missed, errored or
    /// wrong), over every phase.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable report lines, printed before the result line.
    pub report: Vec<String>,
    pub e2e: stats::Metrics,
    pub layers: layers::Layers,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled
    }

    pub fn say(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }
}

/// A wrong answer or a failed operation that makes the run invalid.
pub type Run<T> = Result<T, String>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gustbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !matches!(args.workload.as_str(), "serve-churn" | "offline-spmv") {
        eprintln!("gustbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("gustbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        work: work.clone(),
        host: host::fingerprint(),
        attempted: 0,
        failed: 0,
        report: Vec::new(),
        e2e: stats::Metrics::default(),
        layers: layers::Layers::default(),
    };
    let host_line = format!("host: {}", ctx.host.describe());
    ctx.say(host_line);
    let outcome = match args.workload.as_str() {
        "serve-churn" => serve::churn(&mut ctx),
        _ => offline::run(&mut ctx),
    };
    let outcome = outcome.and_then(|()| {
        if ctx.traced() {
            layers::finish(&mut ctx, &args)
        } else {
            Ok(())
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let correct = outcome.is_ok();
    if let Err(e) = &outcome {
        ctx.say(format!("FAILED: {e}"));
    }
    ctx.say(format!(
        "run: {} seed {} took {:.1} s; ops attempted {}, failed {}",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64(),
        ctx.attempted,
        ctx.failed
    ));
    for line in &ctx.report {
        println!("{line}");
    }
    let metrics = if args.trace {
        ctx.layers.metrics()
    } else {
        std::mem::take(&mut ctx.e2e)
    };
    println!(
        "{}",
        stats::result_line(correct, ctx.attempted.max(1), ctx.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
