//! Sampling, percentiles, spreads, the environment record and the JSON
//! writer: the one place the benchmark turns timings into numbers and
//! numbers into output.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Repeat `rep` until `budget` is spent, with at least `min_reps` and at
/// most `max_reps` repetitions, after `warmup` discarded ones. Each call of
/// `rep` performs one repetition and returns the time it measured itself,
/// so untimed preparation (for example building a population that the run
/// consumes) can sit inside the closure.
pub fn sample(
    budget: Duration,
    warmup: usize,
    min_reps: usize,
    max_reps: usize,
    mut rep: impl FnMut() -> Duration,
) -> Vec<Duration> {
    for _ in 0..warmup {
        rep();
    }
    let begin = Instant::now();
    let mut out = Vec::new();
    while out.len() < max_reps.max(1) && (out.len() < min_reps || begin.elapsed() < budget) {
        out.push(rep());
    }
    out
}

/// Time one call of `f`, returning its result and duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between closest ranks. NaN for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p`-quantile of integer samples (virtual-time nanoseconds), reading
/// each integer `v` as the bin `[v − ½, v + ½)` and interpolating inside
/// the bin that holds rank `p · n` — the grouped-data quantile. Virtual
/// times are whole nanoseconds with many ties; interpolating inside the
/// tied bin keeps the estimate moving with the sample instead of sticking
/// to a bin edge. NaN for an empty slice.
pub fn quantile_i64(values: &[i64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = p.clamp(0.0, 1.0) * v.len() as f64;
    let at = (rank.floor() as usize).min(v.len() - 1);
    let x = v[at];
    let below = v.partition_point(|&y| y < x);
    let tied = v.partition_point(|&y| y <= x) - below;
    x as f64 - 0.5 + (rank - below as f64) / tied as f64
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how the acceptance check
/// computes spreads. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The distance between the quartiles as a share of the median: the
/// run-to-run spread a metric's bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The shortest of `samples` (zero for none).
pub fn fastest(samples: &[Duration]) -> Duration {
    samples.iter().copied().min().unwrap_or_default()
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name` reading `value` in `unit`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Where and how a result was produced.
#[derive(Clone, Debug)]
pub struct Env {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time per run, in seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Cores the process may use.
    pub nproc: usize,
    /// Commit the checkout was made from, or `unknown` outside git.
    pub git_rev: String,
    /// Cargo build profile of this binary.
    pub profile: &'static str,
    /// Compiler that built this binary.
    pub rustc: &'static str,
}

impl Env {
    /// Capture the environment of a run.
    pub fn capture(workload: &str, seed: u64, seconds: u64, trace: bool) -> Env {
        Env {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: nproc(),
            git_rev: git_rev(std::path::Path::new(".")),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: env!("SQM_BENCH_RUSTC"),
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("workload", &self.workload);
        o.uint("seed", self.seed);
        o.uint("seconds", self.seconds);
        o.uint("trace", u64::from(self.trace));
        o.uint("nproc", self.nproc as u64);
        o.str("git_rev", &self.git_rev);
        o.str("profile", self.profile);
        o.str("rustc", self.rustc);
        o.finish()
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the git repository rooted at `root`, read from
/// its `.git` directory without running git (and without looking above
/// `root`); `unknown` when `root` is not a git checkout.
pub fn git_rev(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A minimal JSON object writer (keys in insertion order).
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&quote(key));
        self.body.push_str(": ");
    }

    /// Add a string member.
    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.body.push_str(&quote(value));
    }

    /// Add an unsigned integer member.
    pub fn uint(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.body, "{value}");
    }

    /// Add a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
    }

    /// Add a number member, with every digit Rust's shortest round-trip
    /// formatting gives (non-finite values become `null`).
    pub fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        self.body.push_str(&number(value));
    }

    /// Add a member whose value is already JSON.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.body.push_str(json);
    }

    /// The finished object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON number for `value` (`null` when not finite).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// `s` as a quoted, escaped JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, …}` for a metric list.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut o = JsonObject::new();
    for m in metrics {
        let mut inner = JsonObject::new();
        inner.num("value", m.value);
        inner.str("unit", m.unit);
        o.raw(m.name, &inner.finish());
    }
    o.finish()
}

/// The result line the benchmark prints last.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut o = JsonObject::new();
    o.bool("correct", failed == 0);
    o.uint("attempted", attempted);
    o.uint("failed", failed);
    o.raw("metrics", &metrics_json(metrics));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0 / 3.0), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn integer_quantiles_interpolate_inside_tied_bins() {
        // Distinct values: the rank lands inside one unit-wide bin.
        let v: Vec<i64> = (1..=100).collect();
        assert_eq!(quantile_i64(&v, 0.5), 50.5);
        assert!((quantile_i64(&v, 0.99) - 99.5).abs() < 1e-9);
        // Ties: the estimate moves inside the tied bin as the share of
        // samples below it changes; a rank on a bin boundary reads the
        // lower edge of the bin above.
        let v = [10, 10, 10, 20, 30, 40];
        assert_eq!(quantile_i64(&v, 0.5), 19.5);
        assert!((quantile_i64(&[10, 10, 10, 10, 20, 30], 0.5) - 10.25).abs() < 1e-12);
        assert_eq!(quantile_i64(&[7], 0.99), 7.49);
        assert_eq!(quantile_i64(&[5, 5], 0.0), 4.5);
        assert_eq!(quantile_i64(&[5, 5], 1.0), 5.5);
        assert!(quantile_i64(&[], 0.5).is_nan());
    }

    /// Reference values from Python:
    /// `statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]` and
    /// `statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]`.
    #[test]
    fn quartiles_follow_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 7.0)));
        assert_eq!(quartiles(&[3.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn sample_respects_min_and_max_reps() {
        let mut calls = 0;
        let s = sample(Duration::ZERO, 2, 3, 10, || {
            calls += 1;
            Duration::from_nanos(1)
        });
        assert_eq!(s.len(), 3);
        assert_eq!(calls, 5, "warm-up repetitions run but are not kept");
        let s = sample(Duration::from_secs(60), 0, 1, 4, || Duration::ZERO);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn json_is_escaped_and_keeps_every_digit() {
        let line = result_line(3, 0, &[Metric::new("a.b", 0.1 + 0.2, "ms")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a.b": {"value": 0.30000000000000004, "unit": "ms"}}}"#
        );
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(2.0), "2.0");
    }

    #[test]
    fn git_rev_is_unknown_outside_a_checkout() {
        let dir = std::path::Path::new("no-such-directory-for-git-rev");
        assert_eq!(git_rev(dir), "unknown");
    }
}
