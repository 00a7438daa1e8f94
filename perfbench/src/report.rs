//! Operation accounting, timing summaries, digests and the one-line JSON
//! result every run ends with.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts operations attempted and failed across every thread of a run.
/// The first few failures are kept verbatim for the human summary.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: AtomicU64,
    failed: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Ledger {
    pub fn new() -> Self {
        Self::default()
    }

    /// One operation that succeeded.
    pub fn ok(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// One operation that failed, with the reason.
    pub fn fail(&self, what: impl Into<String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut failures = self.failures.lock().expect("ledger lock poisoned");
        if failures.len() < 8 {
            failures.push(what.into());
        }
    }

    /// One operation that succeeded iff `ok`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(what());
        }
    }

    /// Runs one operation, counting an `Err` or a panic as a failure.
    pub fn run<T>(&self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(value)) => {
                self.ok();
                Some(value)
            }
            Ok(Err(e)) => {
                self.fail(format!("{what}: {e}"));
                None
            }
            Err(panic) => {
                self.fail(format!("{what}: panicked: {}", panic_message(&*panic)));
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn failures(&self) -> Vec<String> {
        self.failures.lock().expect("ledger lock poisoned").clone()
    }
}

/// The text of a caught panic payload.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A run's result: the JSON last line plus human context printed before it.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line. `correct` holds when something was attempted,
    /// nothing failed and every metric is a finite number; a metric that
    /// could not be measured is written as `null`, never as a number.
    pub fn json(&self, ledger: &Ledger) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = ledger.failed() == 0 && ledger.attempted() > 0 && finite;
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            ledger.attempted(),
            ledger.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile, at most `cap`, that still has at least ten
/// samples beyond it: `(percentile, value)`. NaN for both when there are
/// ten samples or fewer, so an unsupported tail is never reported.
pub fn tail(values: &[f64], cap: f64) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n <= 10 {
        return (f64::NAN, f64::NAN);
    }
    let q = ((n - 10) as f64 / n as f64).min(cap);
    (q, percentile(&v, q))
}

/// A timing's human summary: sample count, median and the supported tail.
pub fn describe(label: &str, unit: &str, values: &[f64]) -> String {
    let head = format!(
        "{label}: n {}, median {:.4} {unit}",
        values.len(),
        median(values)
    );
    match tail(values, 0.99) {
        (q, value) if q.is_finite() => format!(
            "{head}, p{:.2} {value:.4} {unit} (highest percentile up to p99 with >= 10 samples beyond it)",
            q * 100.0
        ),
        _ => {
            let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            format!("{head}; each: {}", each.join(" "))
        }
    }
}

/// FNV-1a over a byte stream, continuing from `h` (start from [`FNV_SEED`]).
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest over fitted models: every parameter's bits and the objective's,
/// in the given order — the formula of `cpistack bench`'s `params_digest`.
pub fn params_digest<'a>(models: impl IntoIterator<Item = &'a memodel::InferredModel>) -> u64 {
    let mut h = FNV_SEED;
    for model in models {
        for b in &model.params().b {
            fnv(&mut h, &b.to_bits().to_le_bytes());
        }
        fnv(&mut h, &model.objective().to_bits().to_le_bytes());
    }
    h
}

/// Digest over records: FNV-1a of their counters CSV.
pub fn records_digest(records: &[pmu::RunRecord]) -> u64 {
    let mut h = FNV_SEED;
    fnv(&mut h, pmu::csv::to_csv(records).as_bytes());
    h
}

/// High-water resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, v) = tail(&values, 0.99);
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(v, 90.0, "samples 91..=100 lie beyond");
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99), (0.99, 1980.0));
        assert!(tail(&values[..10], 0.99).1.is_nan());
    }

    #[test]
    fn unmeasured_metric_is_null_and_incorrect() {
        let ledger = Ledger::new();
        ledger.ok();
        let mut report = Report::default();
        report.metric("p99_ms", "ms", f64::NAN);
        let json = report.json(&ledger);
        assert!(json.contains("\"value\": null"), "{json}");
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 1"));
    }
}
