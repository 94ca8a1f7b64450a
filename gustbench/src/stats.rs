//! Percentiles, process memory, and the result line.

/// Nearest-rank percentile of `v` (`p` in 0..=100). Sorts `v`.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    percentile(&mut v, 50.0)
}

/// The `across`-th percentile, over `window_s`-second windows (by sample
/// time `at`, seconds from the phase start, over `secs`), of each window's
/// `within`-th percentile. Host noise only adds time, and it comes in
/// bursts and spells shorter than a run, so a statistic over windows
/// describes the stretches of a run the host left alone better than one
/// pooled over the whole run. Nearest rank throughout: a window of fewer
/// than 100 samples has its slowest as its p99.
pub fn windowed(at: &[f64], v: &[f64], secs: f64, window_s: f64, within: f64, across: f64) -> f64 {
    let windows = (secs / window_s).floor().max(1.0) as usize;
    let mut by: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&t, &x) in at.iter().zip(v) {
        by[((t / secs * windows as f64) as usize).min(windows - 1)].push(x);
    }
    let mut per_window: Vec<f64> = by
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, within))
        .collect();
    percentile(&mut per_window, across)
}

/// Least-squares slope of `ys` over `xs`.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let num: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in the order they are reported.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// JSON number: finite values as Rust prints them (all digits), anything
/// else as `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
