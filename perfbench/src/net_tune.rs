//! `net-tune`: the paper's end-to-end scenario.
//!
//! One unit builds a `HarlNetworkTuner` over ResNet-50's 24 distinct
//! subgraphs (batch 1, CPU model, `fast` preset) and drives the public
//! `round` loop that `tune` runs until a fixed trial budget is spent. No
//! store, daemon or other searcher runs. The tuner keeps its preset
//! configuration; the seed picks the simulated testbed's noise stream.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use harl_repro::prelude::*;
use harl_repro::sim::{MeasureEvent, RecordSink};

use crate::checks::{check_budget, check_tuned, Checks, Measured};
use crate::report::Report;
use crate::spans::{MemTrace, SpanTotals};
use crate::stats::{
    delta, fastest_steps, median, ms, peak_rss_mb, quantile, registry, residual_quantile, secs,
};
use crate::{Ctx, RunResult};

/// Trial budget of one network tuning: 30 rounds of 16 trials.
const BUDGET: u64 = 480;
/// Extra tuner constructions timed before the first unit and again after
/// every unit, so `setup_s` draws on many samples taken across the whole
/// run.
const SETUP_REPS: usize = 16;
/// The quantile of the construction times reported as `setup_s`. On a
/// shared host construction time is bimodal (two speeds that switch every
/// few seconds), so a run's median lands on whichever mode held longer and
/// flips between runs; a low quantile reads the uncontended cost.
const SETUP_QUANTILE: f64 = 0.1;

/// Every measurement the measurer makes, kept by the benchmark so the
/// best of each subgraph can be recomputed independently.
#[derive(Default)]
struct MeasureLog(Mutex<Vec<(String, Schedule, f64)>>);

impl RecordSink for MeasureLog {
    fn record(&self, ev: &MeasureEvent<'_>) {
        self.0.lock().expect("measure log poisoned").push((
            ev.workload.to_string(),
            ev.schedule.clone(),
            ev.time,
        ));
    }
}

struct Unit {
    setup: Duration,
    tuning: Duration,
    trials: u64,
    latency: f64,
    sim_s: f64,
    round_ms: Vec<f64>,
    spans: Option<SpanTotals>,
    layer: Vec<(&'static str, f64)>,
    /// Every measurement and each subgraph's reported best, kept from the
    /// checked unit until the window has closed.
    log: Vec<(String, Schedule, f64)>,
    bests: Vec<f64>,
}

fn unit(
    subgraphs: &[Subgraph],
    mcfg: &MeasureConfig,
    hcfg: &HarlConfig,
    traced: bool,
    check: bool,
) -> Unit {
    let hw = Hardware::cpu();
    let measurer = Measurer::new(hw.clone(), mcfg.clone());
    let log = Arc::new(MeasureLog::default());
    measurer.set_sink(log.clone());
    let trace = MemTrace::new(traced);
    let tracer = trace.tracer().clone();
    let reg0 = registry();
    let simd0 = harl_simd::stats().gemm_calls;

    let graphs = subgraphs.to_vec();
    let t0 = Instant::now();
    let mut tuner = {
        let _s = tracer.span("bench.net_tuner_new");
        HarlNetworkTuner::new(graphs, &measurer, hcfg.clone())
    };
    let setup = t0.elapsed();
    tuner.set_tracer(tracer.clone());

    let t1 = Instant::now();
    let mut round_ms = Vec::new();
    while tuner.trials_used() < BUDGET {
        let t = Instant::now();
        let used = {
            let _s = tracer.span("bench.net_round");
            tuner.round(BUDGET - tuner.trials_used())
        };
        round_ms.push(ms(t.elapsed()));
        if used == 0 {
            break;
        }
    }
    let tuning = t1.elapsed();

    let latency = tuner.network_latency();
    let sim_s = measurer.sim_seconds();
    let trials = tuner.trials_used();
    measurer.clear_sink();

    let mut layer = Vec::new();
    if traced || check {
        let reg1 = registry();
        let mut scored = 0u64;
        let mut hits = 0u64;
        let mut cached = 0u64;
        let mut checked = 0u64;
        let mut rejected = 0u64;
        for t in &tuner.tuners {
            let s = t.score_stats();
            scored += s.scored;
            hits += s.cache_hits;
            cached += s.features_cached;
            checked += t.lint_stats.checked;
            rejected += t.lint_stats.rejected;
        }
        layer = vec![
            ("harl.rounds", round_ms.len() as f64),
            (
                "simd.gemm_calls",
                (harl_simd::stats().gemm_calls - simd0) as f64,
            ),
            ("gbt.scored", scored as f64),
            ("gbt.cache_hit_ratio", hits as f64 / scored as f64),
            (
                "gbt.retrains",
                delta(&reg0, &reg1, "harl_gbt_retrains_total"),
            ),
            (
                "gbt.retrain_s",
                delta(&reg0, &reg1, "harl_gbt_retrain_seconds_sum"),
            ),
            ("tensor-ir.features_cached", cached as f64),
            ("tensor-sim.trials", measurer.trials() as f64),
            (
                "tensor-sim.sim_s_per_trial",
                sim_s / measurer.trials() as f64,
            ),
            ("verify.checked", checked as f64),
            ("verify.reject_ratio", rejected as f64 / checked as f64),
        ];
    }

    let (log, bests) = if check {
        let log = std::mem::take(&mut *log.0.lock().expect("measure log poisoned"));
        (log, tuner.tuners.iter().map(|t| t.best_time).collect())
    } else {
        (Vec::new(), Vec::new())
    };

    Unit {
        setup,
        tuning,
        trials,
        latency,
        sim_s,
        round_ms,
        spans: traced.then(|| trace.finish()),
        layer,
        log,
        bests,
    }
}

/// Checks the recorded unit. Runs after the measurement window, so the
/// checks' memory stays out of `peak_rss_mb`.
fn check_unit(c: &mut Checks, u: &Unit, subgraphs: &[Subgraph], mcfg: &MeasureConfig) {
    check_budget(c, "net-tune", mcfg, u.trials, BUDGET, u.log.len(), u.sim_s);
    let mut weighted = 0.0;
    for (g, best) in subgraphs.iter().zip(&u.bests) {
        let recs: Vec<Measured<'_>> = u
            .log
            .iter()
            .filter(|(w, _, _)| *w == g.name)
            .map(|(_, schedule, time)| Measured {
                schedule,
                time: *time,
            })
            .collect();
        let label = format!("net-tune {}", g.name);
        let r = check_tuned(c, &label, mcfg, g, &recs, best * 1e3, recs.len());
        weighted += g.weight * r.best;
    }
    let latency = u.latency;
    c.check(((weighted - latency) / latency).abs() <= 1e-12, || {
        format!(
            "net-tune: network latency {latency:e} s != recomputed sum of w*best {weighted:e} s"
        )
    });
}

pub fn run(ctx: &Ctx) -> RunResult {
    let subgraphs = Network::ResNet50.subgraphs(1);
    if subgraphs.len() != 24 {
        return Err(format!(
            "ResNet-50 has {} distinct subgraphs, expected 24",
            subgraphs.len()
        ));
    }
    let mcfg = MeasureConfig::builder()
        .seed(ctx.derive(1))
        .build()
        .map_err(|e| e.to_string())?;
    let hcfg = HarlConfig::fast();

    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let time_setups = |setup_s: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS {
            let measurer = Measurer::new(Hardware::cpu(), mcfg.clone());
            let graphs = subgraphs.clone();
            let t = Instant::now();
            let tuner = HarlNetworkTuner::new(graphs, &measurer, hcfg.clone());
            setup_s.push(secs(t.elapsed()));
            std::hint::black_box(&tuner);
        }
    };
    time_setups(&mut setup_s);

    let started = Instant::now();
    let mut units: Vec<(bool, Unit)> = Vec::new();
    let mut last = Duration::ZERO;
    while ctx.another_unit(started, units.len(), last) || (ctx.trace && units.len() < 2) {
        // in a traced run, units alternate untraced and traced
        let traced = ctx.trace && units.len() % 2 == 1;
        let u = unit(&subgraphs, &mcfg, &hcfg, traced, units.is_empty());
        last = u.setup + u.tuning;
        units.push((traced, u));
        time_setups(&mut setup_s);
    }
    let rss = peak_rss_mb("self").ok_or("cannot read VmHWM")?;

    let first = &units[0].1;
    check_unit(&mut report.checks, first, &subgraphs, &mcfg);
    for (i, (_, u)) in units.iter().enumerate().skip(1) {
        report.checks.check(
            u.latency.to_bits() == first.latency.to_bits()
                && u.sim_s.to_bits() == first.sim_s.to_bits(),
            || format!("net-tune: unit {i} differs from unit 0 at the same seed"),
        );
    }
    for (_, u) in &units {
        report.ops.add("tunings", 1, 0);
        report.ops.add("trials", u.trials, 0);
        report.ops.add("rounds", u.round_ms.len() as u64, 0);
    }

    let plain: Vec<&Unit> = units.iter().filter(|(t, _)| !t).map(|(_, u)| u).collect();
    // a unit's steps: the tuner's construction, then its rounds in order
    let profiles: Vec<Vec<f64>> = plain
        .iter()
        .map(|u| std::iter::once(ms(u.setup)).chain(u.round_ms.iter().copied()).collect())
        .collect();
    let fastest = fastest_steps(&profiles);
    report.checks.check(fastest.is_some(), || {
        "net-tune: untraced units ran different numbers of rounds".to_string()
    });
    let fastest = fastest.unwrap_or_default();
    let rounds = fastest.get(1..).unwrap_or_default();
    let tuning_s = rounds.iter().sum::<f64>() / 1e3;
    let jobs_s: Vec<f64> = plain.iter().map(|u| secs(u.setup + u.tuning)).collect();
    setup_s.extend(units.iter().map(|(_, u)| secs(u.setup)));
    report.facts.push(format!(
        "units={} (untraced {}), budget={BUDGET} trials/unit, setup samples={}, rounds/unit={}",
        units.len(),
        plain.len(),
        setup_s.len(),
        rounds.len()
    ));
    report.facts.push(format!(
        "tuning wall: fastest steps {tuning_s:.3} s, untraced units {}",
        plain
            .iter()
            .map(|u| format!("{:.3} s", secs(u.tuning)))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    report
        .e2e
        .insert("setup_s", quantile(&setup_s, SETUP_QUANTILE));
    report
        .e2e
        .insert("trials_per_s", first.trials as f64 / tuning_s);
    report.e2e.insert("tuned_latency_ms", first.latency * 1e3);
    report.e2e.insert("sim_search_s", first.sim_s);
    report.e2e.insert("peak_rss_mb", rss);
    report
        .e2e
        .insert("job_latency_p50_s", fastest.iter().sum::<f64>() / 1e3);
    report
        .e2e
        .insert("status_p50_ms", residual_quantile(rounds, 0.5));
    report
        .e2e
        .insert("status_p90_ms", residual_quantile(rounds, 0.9));

    if ctx.trace {
        let traced: Vec<&Unit> = units.iter().filter(|(t, _)| *t).map(|(_, u)| u).collect();
        crate::report::fill_layers(
            &mut report,
            &first.layer,
            &traced
                .iter()
                .map(|u| {
                    (
                        u.spans.clone().unwrap_or_default(),
                        secs(u.setup + u.tuning),
                    )
                })
                .collect::<Vec<_>>(),
            median(&jobs_s),
        );
        report.layer.insert("harl.round_ms_p50", median(rounds));
        report.layer.insert("bench.units", units.len() as f64);
    }
    Ok(report)
}
