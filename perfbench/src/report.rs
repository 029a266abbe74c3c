//! Metric tables, operation accounting and the result line.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::checks::Checks;
use crate::spans::SpanTotals;
use crate::stats::median;

/// End-to-end metrics, reported by untraced runs (`--trace 0`). The names
/// and units match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("tuned_latency_ms", "ms"),
    ("sim_search_s", "sim_s"),
    ("peak_rss_mb", "MB"),
    ("job_latency_p50_s", "s"),
    ("status_p50_ms", "ms"),
    ("status_p90_ms", "ms"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`). Counts and
/// times are per unit of the workload; a layer a workload never enters
/// reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("harl.round_ms_p50", "ms"),
    ("harl.rounds", "count"),
    ("harl.self_s", "s"),
    ("bandit.self_s", "s"),
    ("nnet.policy_self_s", "s"),
    ("simd.gemm_calls", "count"),
    ("simd.gemm_self_s", "s"),
    ("gbt.scored", "count"),
    ("gbt.cache_hit_ratio", "ratio"),
    ("gbt.retrains", "count"),
    ("gbt.retrain_s", "s"),
    ("gbt.self_s", "s"),
    ("tensor-ir.features_cached", "count"),
    ("tensor-sim.trials", "count"),
    ("tensor-sim.sim_s_per_trial", "s"),
    ("tensor-sim.measure_self_s", "s"),
    ("verify.checked", "count"),
    ("verify.reject_ratio", "ratio"),
    ("ansor.round_ms_p50", "ms"),
    ("flextensor.round_ms_p50", "ms"),
    ("mcts.round_ms_p50", "ms"),
    ("cd.round_ms_p50", "ms"),
    ("searchers.self_s", "s"),
    ("finetune.trials", "count"),
    ("finetune.s", "s"),
    ("store.open_s", "s"),
    ("store.appends", "count"),
    ("store.checkpoint_writes", "count"),
    ("store.checkpoint_s", "s"),
    ("session.launch_s", "s"),
    ("session.resume_s", "s"),
    ("session.warm_records", "count"),
    ("serve.start_s", "s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.run_s_p50", "s"),
    ("serve.warm_records", "count"),
    ("serve.self_s", "s"),
    ("net.submit_ms_p50", "ms"),
    ("net.list_ms_p50", "ms"),
    ("net.result_ms_p50", "ms"),
    ("net.wakeups", "count"),
    ("net.dispatch_s", "s"),
    ("net.self_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.span_coverage", "ratio"),
    ("obs.unmapped_self_s", "s"),
    ("bench.units", "count"),
];

/// Operations of one kind: how many were attempted and how many failed.
#[derive(Debug, Default, Clone)]
pub struct Ops(pub BTreeMap<String, (u64, u64)>);

impl Ops {
    pub fn add(&mut self, kind: &str, attempted: u64, failed: u64) {
        let e = self.0.entry(kind.to_string()).or_insert((0, 0));
        e.0 += attempted;
        e.1 += failed;
    }

    pub fn merge(&mut self, other: &Ops) {
        for (k, (a, f)) in &other.0 {
            self.add(k, *a, *f);
        }
    }

    fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(a, f), (da, df)| (a + da, f + df))
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Self seconds per unit of spans the layer table does not name.
    pub unmapped: BTreeMap<String, f64>,
    pub ops: Ops,
    pub checks: Checks,
    /// Facts about the run worth a line of their own (sample counts, ...).
    pub facts: Vec<String>,
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl Report {
    /// Prints the human-readable report, then the one-line JSON result
    /// as the last line of stdout. The exit code is 1 when a check failed.
    pub fn print(mut self, workload: &str, seed: u64, trace: bool) -> ExitCode {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        println!(
            "host: nproc={nproc} simd={} rustc={} rev={}",
            harl_simd::backend_name(),
            env_or_unknown("PERFBENCH_RUSTC"),
            env_or_unknown("PERFBENCH_REV"),
        );
        println!("run: workload={workload} seed={seed} trace={}", trace as u8);
        for f in &self.facts {
            println!("fact: {f}");
        }
        for (kind, (a, f)) in &self.ops.0 {
            println!("ops: {kind:<24} attempted={a:<8} failed={f}");
        }
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let values = if trace { &self.layer } else { &self.e2e };
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let v = values.get(name).copied();
            let v = match v {
                Some(v) if v.is_finite() && (trace || v > 0.0) => v,
                // a layer the workload never enters, or a ratio over
                // nothing (0/0), reads as 0
                _ if trace => 0.0,
                other => {
                    self.checks.check(false, || {
                        format!("metric {name} missing or not positive: {other:?}")
                    });
                    0.0
                }
            };
            println!("metric: {name:<28} {v:>16.6} {unit}");
            metrics.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        for (name, s) in &self.unmapped {
            println!("span: {name:<30} self {s:.6} s per unit (not in the layer table)");
        }
        println!(
            "checks: passed={} failed={} coverage_walked={} gemm_executed={}",
            self.checks.passed,
            self.checks.failed.len(),
            self.checks.coverage_walked,
            self.checks.gemm_executed
        );
        for f in &self.checks.failed {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.checks.failed.is_empty();
        let (attempted, failed) = self.ops.totals();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

/// Fills the per-layer metrics of a traced run: `counts` are per-unit
/// counters from one unit; `traced` holds each traced unit's spans and wall
/// seconds; `plain_unit_s` is the median wall seconds of an untraced unit.
pub fn fill_layers(
    report: &mut Report,
    counts: &[(&'static str, f64)],
    traced: &[(SpanTotals, f64)],
    plain_unit_s: f64,
) {
    for (k, v) in counts {
        report.layer.insert(k, *v);
    }
    let mut total = SpanTotals::default();
    for (s, _) in traced {
        total.merge(s);
    }
    let n = traced.len().max(1) as f64;
    let wall: Vec<f64> = traced.iter().map(|(_, w)| *w).collect();
    let (layers, unmapped) = total.by_layer();
    let per = |l: &str| layers.get(l).copied().unwrap_or(0.0) / n;
    report.layer.insert("harl.self_s", per("harl"));
    report.layer.insert("bandit.self_s", per("bandit"));
    report.layer.insert("nnet.policy_self_s", per("nnet"));
    report.layer.insert("simd.gemm_self_s", per("simd"));
    report.layer.insert("gbt.self_s", per("gbt"));
    report
        .layer
        .insert("tensor-sim.measure_self_s", per("tensor-sim"));
    report.layer.insert(
        "searchers.self_s",
        per("ansor") + per("flextensor") + per("mcts") + per("cd"),
    );
    report.layer.insert("serve.self_s", per("serve"));
    report.layer.insert("net.self_s", per("net"));
    report
        .layer
        .insert("obs.span_coverage", total.root_s / wall.iter().sum::<f64>());
    report
        .layer
        .insert("obs.trace_overhead", median(&wall) / plain_unit_s);
    report.layer.insert(
        "obs.unmapped_self_s",
        unmapped.values().fold(0.0, |a, b| a + b) / n,
    );
    report.unmapped = unmapped.into_iter().map(|(k, v)| (k, v / n)).collect();
}
