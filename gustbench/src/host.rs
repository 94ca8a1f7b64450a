//! Host fingerprint and a STREAM-triad bandwidth probe.

use crate::adapter;
use crate::stats;
use std::time::Instant;

pub struct Host {
    pub cpu: String,
    pub cores: usize,
    pub l2_bytes: usize,
    pub l2_instances: usize,
    pub llc_bytes: usize,
    pub picked: adapter::Picked,
}

/// Reads a sysfs cache size like `2048K` / `300M`.
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Size of the cache at `level` seen by cpu0, and how many distinct
/// instances of it the online CPUs share (by `shared_cpu_list`).
fn cache_at(level: &str, cores: usize) -> (usize, usize) {
    let mut size = 0;
    let mut lists = std::collections::BTreeSet::new();
    for cpu in 0..cores {
        for idx in 0..8 {
            let base = format!("/sys/devices/system/cpu/cpu{cpu}/cache/index{idx}");
            let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}")).ok();
            let (Some(lvl), Some(kind)) = (read("level"), read("type")) else {
                continue;
            };
            if lvl.trim() == level && kind.trim() != "Instruction" {
                if cpu == 0 {
                    size = read("size").and_then(|s| parse_size(&s)).unwrap_or(0);
                }
                lists.insert(read("shared_cpu_list").unwrap_or_default());
            }
        }
    }
    (size, lists.len().max(1))
}

pub fn fingerprint() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (l2_bytes, l2_instances) = cache_at("2", cores);
    let (llc_bytes, _) = cache_at("3", cores);
    Host {
        cpu,
        cores,
        l2_bytes,
        l2_instances,
        llc_bytes: if llc_bytes == 0 { l2_bytes } else { llc_bytes },
        picked: adapter::picked(),
    }
}

impl Host {
    pub fn summed_l2(&self) -> usize {
        self.l2_bytes * self.l2_instances
    }

    pub fn describe(&self) -> String {
        let p = &self.picked;
        format!(
            "cpu {:?}; cores {}; L2 {} KiB x {}; LLC {} MiB; backend {} (reg block f32 {} / f64 {}); \
             cache budget {} MiB; row budget {} MiB; workers {}; features {}",
            self.cpu,
            self.cores,
            self.l2_bytes >> 10,
            self.l2_instances,
            self.llc_bytes >> 20,
            p.backend,
            p.reg_block,
            p.reg_block_f64,
            p.cache_budget >> 20,
            p.row_budget >> 20,
            p.workers,
            p.features
        )
    }

    pub fn json(&self) -> String {
        let p = &self.picked;
        format!(
            "{{\"cpu\": {}, \"cores\": {}, \"l2_bytes\": {}, \"l2_instances\": {}, \"llc_bytes\": {}, \
             \"backend\": {}, \"reg_block\": {}, \"reg_block_f64\": {}, \"cache_budget\": {}, \
             \"row_budget\": {}, \"workers\": {}, \"features\": {}}}",
            stats::string(&self.cpu),
            self.cores,
            self.l2_bytes,
            self.l2_instances,
            self.llc_bytes,
            stats::string(p.backend),
            p.reg_block,
            p.reg_block_f64,
            p.cache_budget,
            p.row_budget,
            p.workers,
            stats::string(&p.features)
        )
    }
}

/// Single-threaded STREAM triad `a = b + s·c` over f64 arrays of
/// `array_bytes` each; best of `reps` passes, in GB/s counting 3 arrays of
/// traffic per pass (write-allocate not counted, as in STREAM).
pub fn triad_gb_s(array_bytes: usize, reps: usize) -> f64 {
    let n = array_bytes / 8;
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut a = vec![0.0f64; n];
    let s = std::hint::black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(
        a[n / 2] == 1.5 + 3.0 * 2.5,
        "triad probe computed a wrong value"
    );
    (3 * array_bytes) as f64 / best / 1e9
}
