//! Output checks, computed apart from the searchers.
//!
//! Every tuner reports as its best the noise-free time of the best schedule
//! it measured. The checks recompute that from the measurement records alone
//! with the analytical model (`Hardware::execution_time`), then check the
//! winning schedule itself: legality, exact coverage of its iteration space,
//! and, for GEMMs, bit-equal output against the reference loop nest.

use harl_repro::ir::exec::{coverage_counts, gemm_reference, gemm_scheduled, Tensor};
use harl_repro::prelude::*;

/// Noise band for a measured time around its noise-free value, in standard
/// deviations of the measurer's lognormal noise.
const NOISE_SIGMAS: f64 = 6.0;
/// Largest iteration space walked point by point by the coverage check.
const COVERAGE_MAX_POINTS: u64 = 1 << 24;
/// Largest GEMM (m·k·n) executed against the reference.
const GEMM_MAX_MACS: u64 = 1 << 24;

/// Pass/fail tally of every check a run made.
#[derive(Debug, Default)]
pub struct Checks {
    pub passed: u64,
    pub failed: Vec<String>,
    /// Best schedules whose iteration space was walked point by point.
    pub coverage_walked: u64,
    /// GEMM bests executed against the reference.
    pub gemm_executed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what());
        }
    }
}

/// One measurement as the records hold it: the schedule and its noisy time.
pub struct Measured<'a> {
    pub schedule: &'a Schedule,
    pub time: f64,
}

/// What the recomputation found for one tuned subgraph.
pub struct Recomputed {
    /// Minimum noise-free time over the records (seconds).
    pub best: f64,
    /// Minimum noise-free time over the first `prefix` records.
    pub prefix_best: f64,
}

/// Recomputes the best of one tuning on the CPU model from its records and
/// checks it against the reported best, compared bit for bit in
/// milliseconds (the unit the daemon reports in). The records include a
/// fine-tuning phase appended after the search, so this equality is also
/// the check that fine-tuning never raised the best. `prefix` splits off
/// the search phase, whose minimum is returned for the caller to compare
/// with what the tuner reported before fine-tuning.
pub fn check_tuned(
    c: &mut Checks,
    label: &str,
    mcfg: &MeasureConfig,
    graph: &Subgraph,
    records: &[Measured<'_>],
    reported_best_ms: f64,
    prefix: usize,
) -> Recomputed {
    let hw = Hardware::cpu();
    let target = hw.target();
    let sketches = generate_sketches(graph, target);
    let mut best = f64::INFINITY;
    let mut prefix_best = f64::INFINITY;
    let mut arg: Option<usize> = None;
    for (i, r) in records.iter().enumerate() {
        let Some(sk) = sketches.get(r.schedule.sketch_id) else {
            c.check(false, || {
                format!("{label}: record {i} names sketch {}", r.schedule.sketch_id)
            });
            continue;
        };
        let truth = hw.execution_time(graph, sk, r.schedule);
        if truth < best {
            best = truth;
            arg = Some(i);
        }
        if i < prefix {
            prefix_best = prefix_best.min(truth);
        }
    }
    c.check(reported_best_ms.to_bits() == (best * 1e3).to_bits(), || {
        format!(
            "{label}: reported best {reported_best_ms:e} ms != recomputed minimum {:e} ms over {} records",
            best * 1e3,
            records.len()
        )
    });
    let Some(arg) = arg else {
        c.check(false, || format!("{label}: no usable records"));
        return Recomputed { best, prefix_best };
    };
    let rec = &records[arg];
    let band = (rec.time / best).ln().abs();
    c.check(band <= NOISE_SIGMAS * mcfg.noise, || {
        format!(
            "{label}: measured {:e} s is outside the noise band of the model's {best:e} s",
            rec.time
        )
    });
    check_schedule(
        c,
        label,
        &hw,
        graph,
        &sketches[rec.schedule.sketch_id],
        rec.schedule,
    );
    Recomputed { best, prefix_best }
}

/// Legality, coverage and (for GEMMs) exact execution of one schedule.
fn check_schedule(
    c: &mut Checks,
    label: &str,
    hw: &Hardware,
    graph: &Subgraph,
    sketch: &Sketch,
    schedule: &Schedule,
) {
    let target = hw.target();
    let valid = schedule.validate(sketch, target);
    c.check(valid.is_ok(), || {
        format!("{label}: best schedule invalid: {valid:?}")
    });
    if valid.is_err() {
        return;
    }
    let analyzer = Analyzer::for_hardware(hw);
    let err = analyzer.first_error(graph, sketch, target, schedule);
    c.check(err.is_none(), || {
        format!("{label}: analyzer rejects the best schedule: {err:?}")
    });
    let anchor = graph.anchor_stage();
    let points: u64 = anchor.iters.iter().map(|i| i.extent as u64).product();
    if points <= COVERAGE_MAX_POINTS {
        let counts = coverage_counts(sketch, schedule, anchor);
        c.check(counts.iter().all(|&n| n == 1), || {
            format!("{label}: best schedule does not visit every point exactly once")
        });
        c.coverage_walked += 1;
    }
    let names: Vec<&str> = anchor.iters.iter().map(|i| i.name.as_str()).collect();
    if graph.stages.len() == 1 && names == ["m", "n", "k"] {
        let (m, n, k) = (
            anchor.iters[0].extent as usize,
            anchor.iters[1].extent as usize,
            anchor.iters[2].extent as usize,
        );
        if (m * n * k) as u64 <= GEMM_MAX_MACS {
            let a = Tensor::iota_mod(&[m, k], 7);
            let b = Tensor::iota_mod(&[k, n], 5);
            let got = gemm_scheduled(sketch, schedule, m, k, n, &a, &b);
            let want = gemm_reference(m, k, n, &a, &b);
            c.check(got == want, || {
                format!("{label}: scheduled GEMM output differs from the reference")
            });
            c.gemm_executed += 1;
        }
    }
}

/// Trial accounting of one tuning: the budget is spent exactly and the
/// simulated clock charged at least the fixed cost of every trial.
pub fn check_budget(
    c: &mut Checks,
    label: &str,
    mcfg: &MeasureConfig,
    trials: u64,
    want_trials: u64,
    records: usize,
    sim_s: f64,
) {
    c.check(trials == want_trials, || {
        format!("{label}: used {trials} trials, budget {want_trials}")
    });
    c.check(records as u64 == trials, || {
        format!("{label}: {records} records for {trials} trials")
    });
    let floor = trials as f64 * (mcfg.r_min + mcfg.build_overhead);
    c.check(sim_s >= floor, || {
        format!("{label}: simulated {sim_s} s below the floor {floor} s")
    });
}
