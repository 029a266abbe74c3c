//! Order statistics, memory and metrics-text helpers.

use std::collections::BTreeMap;
use std::time::Duration;

/// Median (mean of the two middle values for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in (0, 1]; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The fastest run of each step over repeats of identical work: step `i`
/// of the result is the least time any profile spent on its step `i`.
/// Every unit of a workload at one seed performs the same steps, so the
/// minimum reads each step at the host's faster speed whenever any unit
/// ran it there. `None` when the profiles differ in length (then the units
/// did not repeat each other) or there are none.
pub fn fastest_steps(profiles: &[Vec<f64>]) -> Option<Vec<f64>> {
    let (first, rest) = profiles.split_first()?;
    if rest.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| rest.iter().map(|p| p[i]).fold(first[i], f64::min))
            .collect(),
    )
}

/// Quantile `q` of the wait until the next round boundary, for a poll that
/// arrives at a uniformly random instant during rounds of the given
/// durations. An in-process caller sees progress only when `round`
/// returns, so this is its status latency. The wait distribution has CDF
/// `F(w) = Σ min(w, d_i) / Σ d_i`, inverted here by bisection.
pub fn residual_quantile(durations: &[f64], q: f64) -> f64 {
    let total: f64 = durations.iter().sum();
    let mut lo = 0.0;
    let mut hi = durations.iter().copied().fold(0.0, f64::max);
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        let f = durations.iter().map(|d| d.min(mid)).sum::<f64>() / total;
        if f < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Parses Prometheus text exposition into `series name -> value`
/// (labels stay part of the name, comments are skipped).
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The in-process metrics registry, parsed.
pub fn registry() -> BTreeMap<String, f64> {
    parse_prometheus(&harl_repro::obs::global().render())
}

/// `after[name] - before[name]`, treating a missing series as 0.
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}
