//! `zoo-ops`: all five searchers over every Table-6 operator class.
//!
//! One unit runs `harl`, `ansor`, `flextensor`, `mcts` and `cd` on the
//! first shape of each of the seven operator classes at the tournament's
//! configurations. Every run is a `TuningSession` with its own
//! `RecordStore` (record appends, a checkpoint every round). It stops at
//! half its budget, resumes from the checkpoint in a fresh session and
//! store handle, finishes the budget, then runs `then_finetune`. Sessions
//! of every other class warm-start from a history store the benchmark
//! generates from the seed before timing starts. The searchers keep the
//! tournament's configurations; the seed also picks each session's
//! measurement-noise stream.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use harl_repro::gbt::ScoreStats;
use harl_repro::obs::Tracer;
use harl_repro::prelude::*;
use harl_repro::store::read_records;

use crate::checks::{check_budget, check_tuned, Checks, Measured};
use crate::inputs::append_random;
use crate::report::Report;
use crate::spans::{MemTrace, SpanTotals};
use crate::stats::{
    delta, fastest_steps, geomean, median, ms, peak_rss_mb, registry, residual_quantile, secs,
};
use crate::{Ctx, RunResult};

const SEARCHERS: [&str; 5] = ["harl", "ansor", "flextensor", "mcts", "cd"];
/// Search budget of every session: four 16-trial rounds.
const TRIALS: u64 = 64;
/// Records in each seeded history store.
const HISTORY_RECORDS: usize = 256;

/// Classes at even positions warm-start from a history store.
fn warm_class(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// The concrete searchers, kept owned so their counters stay readable
/// after the session that drove them is gone.
enum AnyTuner<'m> {
    Harl(Box<HarlOperatorTuner<'m>>),
    Ansor(AnsorTuner<'m>),
    Flextensor(FlextensorTuner<'m>),
    Mcts(MctsTuner<'m>),
    Cd(CdTuner<'m>),
}

impl<'m> AnyTuner<'m> {
    /// The tournament's configuration of each searcher.
    fn new(searcher: &str, g: Subgraph, m: &'m Measurer) -> Result<Self, String> {
        let err = |e: ConfigError| e.to_string();
        Ok(match searcher {
            "harl" => AnyTuner::Harl(Box::new(HarlOperatorTuner::new(
                g,
                m,
                harl_repro::harl::HarlConfigBuilder::from(HarlConfig::tiny())
                    .measure_per_round(16)
                    .build()
                    .map_err(err)?,
            ))),
            "ansor" => AnyTuner::Ansor(AnsorTuner::new(
                g,
                m,
                AnsorConfig::builder()
                    .measure_per_round(16)
                    .build()
                    .map_err(err)?,
            )),
            "flextensor" => AnyTuner::Flextensor(FlextensorTuner::new(g, m, Default::default())),
            "mcts" => AnyTuner::Mcts(MctsTuner::new(
                g,
                m,
                MctsConfig::builder()
                    .measure_per_round(16)
                    .playouts_per_round(48)
                    .build()
                    .map_err(err)?,
            )),
            "cd" => AnyTuner::Cd(CdTuner::new(
                g,
                m,
                CdConfig::builder()
                    .measure_per_round(16)
                    .build()
                    .map_err(err)?,
            )),
            other => return Err(format!("unknown searcher {other}")),
        })
    }

    fn as_dyn(&mut self) -> &mut dyn Tuner {
        match self {
            AnyTuner::Harl(t) => t.as_mut(),
            AnyTuner::Ansor(t) => t,
            AnyTuner::Flextensor(t) => t,
            AnyTuner::Mcts(t) => t,
            AnyTuner::Cd(t) => t,
        }
    }

    fn lint_stats(&self) -> &LintStats {
        match self {
            AnyTuner::Harl(t) => &t.lint_stats,
            AnyTuner::Ansor(t) => &t.lint_stats,
            AnyTuner::Flextensor(t) => &t.lint_stats,
            AnyTuner::Mcts(t) => &t.lint_stats,
            AnyTuner::Cd(t) => &t.lint_stats,
        }
    }
}

/// Builds the seeded history store of one operator: random schedules of
/// its sketches, measured and appended through the public API.
fn make_history(dir: &Path, g: &Subgraph, seed: u64) -> Result<(), String> {
    let cfg = MeasureConfig::builder()
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let measurer = Measurer::new(Hardware::cpu(), cfg);
    let store = RecordStore::open(dir).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    append_random(&store, g, HISTORY_RECORDS, &measurer, &mut rng)
}

/// What one session did.
#[derive(Default)]
struct SessionOut {
    best: f64,
    trials: u64,
    finetune_trials: u64,
    sim_s: f64,
    warm_records: usize,
    open: Duration,
    launch: Duration,
    resume: Duration,
    finetune: Duration,
    wall: Duration,
    round_ms: Vec<f64>,
    score: ScoreStats,
    lint: LintStats,
    /// What the record checks need once the window has closed.
    ft_before: f64,
    dir: PathBuf,
    mcfg: MeasureConfig,
}

impl SessionOut {
    fn setup(&self) -> Duration {
        self.open + self.launch + self.resume
    }
}

struct Plan<'a> {
    ctx: &'a Ctx,
    class: usize,
    searcher: usize,
    graph: &'a Subgraph,
    history: Option<&'a Path>,
    dir: PathBuf,
    tracer: &'a Tracer,
}

impl Plan<'_> {
    /// The session's measurement-noise seed.
    fn noise_seed(&self) -> u64 {
        self.ctx
            .derive(1 << 16 | (self.class as u64) << 8 | self.searcher as u64)
    }
}

fn store_err(e: harl_repro::store::StoreError) -> String {
    e.to_string()
}

/// Runs one session end to end: open, launch (warm-start), first half,
/// drop, reopen, resume, second half, fine-tune, finish.
fn session(p: &Plan<'_>, c: &mut Checks, check: bool) -> Result<SessionOut, String> {
    let name = SEARCHERS[p.searcher];
    let label = format!("zoo-ops {} {name}", p.graph.name);
    let hw = Hardware::cpu();
    let mcfg = MeasureConfig::builder()
        .seed(p.noise_seed())
        .build()
        .map_err(|e| e.to_string())?;
    let round_span = format!("bench.round.{name}");
    let mut out = SessionOut::default();
    let wall = Instant::now();

    let half = |session: &mut TuningSession<'_>, upto: u64, out: &mut SessionOut| {
        let mut last = Instant::now();
        while session.trials_used() < upto {
            let used = {
                let _s = p.tracer.span(&round_span);
                session.round((upto - session.trials_used()) as usize)
            }
            .map_err(store_err)?;
            let now = Instant::now();
            out.round_ms.push(ms(now - last));
            last = now;
            if used == 0 {
                return Err(format!("{label}: round made no progress"));
            }
        }
        Ok::<(), String>(())
    };

    // first half, then the session is dropped without finishing, as a
    // killed process would leave it
    {
        let t = Instant::now();
        let store = {
            let _s = p.tracer.span("bench.store_open");
            Arc::new(RecordStore::open(&p.dir).map_err(store_err)?)
        };
        let warm = match p.history {
            Some(h) => {
                let _s = p.tracer.span("bench.store_open");
                read_records(h).map_err(store_err)?
            }
            None => Vec::new(),
        };
        out.open += t.elapsed();
        let m1 = Measurer::new(hw.clone(), mcfg.clone());
        let mut t1 = AnyTuner::new(name, p.graph.clone(), &m1)?;
        t1.as_dyn().set_tracer(p.tracer.clone());
        let t = Instant::now();
        let mut s1 = {
            let _s = p.tracer.span("bench.launch");
            TuningSession::builder()
                .warm_pool(warm)
                .launch(Box::new(t1.as_dyn()), &m1, Some(store))
                .map_err(store_err)?
        };
        out.launch = t.elapsed();
        out.warm_records = s1.warm_records();
        half(&mut s1, TRIALS / 2, &mut out)?;
    }

    // resume in a fresh store handle, measurer and tuner
    let t = Instant::now();
    let store = {
        let _s = p.tracer.span("bench.store_open");
        Arc::new(RecordStore::open(&p.dir).map_err(store_err)?)
    };
    out.open += t.elapsed();
    let m2 = Measurer::new(hw.clone(), mcfg.clone());
    let mut t2 = AnyTuner::new(name, p.graph.clone(), &m2)?;
    t2.as_dyn().set_tracer(p.tracer.clone());
    let t = Instant::now();
    let mut s2 = {
        let _s = p.tracer.span("bench.resume");
        TuningSession::builder()
            .launch(Box::new(t2.as_dyn()), &m2, Some(store.clone()))
            .map_err(store_err)?
    };
    out.resume = t.elapsed();
    c.check(s2.resumed(), || {
        format!("{label}: did not resume its checkpoint")
    });
    half(&mut s2, TRIALS, &mut out)?;
    let search_trials = s2.trials_used();

    let ft_cfg = FinetuneConfig::builder()
        .max_trials((TRIALS / 4).max(8) as usize)
        .build()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let ft = {
        let _s = p.tracer.span("bench.finetune");
        s2.then_finetune(&ft_cfg).map_err(store_err)?
    };
    out.finetune = t.elapsed();
    out.best = s2.best_latency();
    out.trials = s2.trials_used();
    out.finetune_trials = ft.trials;
    out.sim_s = m2.sim_seconds();
    {
        let _s = p.tracer.span("bench.finish");
        s2.finish().map_err(store_err)?;
        drop(store);
    }
    out.wall = wall.elapsed();
    if let Some(s) = t2.as_dyn().score_stats() {
        out.score = *s;
    }
    out.lint = t2.lint_stats().clone();
    out.ft_before = ft.before;
    out.dir = p.dir.clone();
    out.mcfg = mcfg;

    if check {
        c.check(search_trials == TRIALS, || {
            format!("{label}: search used {search_trials} trials, budget {TRIALS}")
        });
        c.check(
            ft.after <= ft.before && ft.after.to_bits() == out.best.to_bits(),
            || {
                format!(
                    "{label}: fine-tune went from {} to {} (best {})",
                    ft.before, ft.after, out.best
                )
            },
        );
        if p.history.is_some() && name != "flextensor" {
            c.check(out.warm_records > 0, || {
                format!("{label}: warm-started from 0 history records")
            });
        }
    }
    Ok(out)
}

/// Checks one session against its own store records. Runs after the
/// measurement window, so the checks' memory stays out of `peak_rss_mb`.
fn check_records(c: &mut Checks, out: &SessionOut, graph: &Subgraph, label: &str) {
    let records = match read_records(&out.dir) {
        Ok(r) => r,
        Err(e) => {
            c.check(false, || format!("{label}: cannot read its store: {e}"));
            return;
        }
    };
    check_budget(
        c,
        label,
        &out.mcfg,
        out.trials,
        TRIALS + out.finetune_trials,
        records.len(),
        out.sim_s,
    );
    let measured: Vec<Measured<'_>> = records
        .iter()
        .map(|r| Measured {
            schedule: &r.schedule,
            time: r.time,
        })
        .collect();
    let r = check_tuned(
        c,
        label,
        &out.mcfg,
        graph,
        &measured,
        out.best * 1e3,
        TRIALS as usize,
    );
    c.check(r.prefix_best.to_bits() == out.ft_before.to_bits(), || {
        format!(
            "{label}: best before fine-tune {} != recomputed {}",
            out.ft_before, r.prefix_best
        )
    });
}

struct Unit {
    sessions: Vec<SessionOut>,
    failed: u64,
    wall: Duration,
    spans: Option<SpanTotals>,
    counters: Vec<(&'static str, f64)>,
}

fn unit(
    ctx: &Ctx,
    c: &mut Checks,
    classes: &[Subgraph],
    histories: &[Option<PathBuf>],
    index: usize,
    traced: bool,
) -> Result<Unit, String> {
    let check = index == 0;
    let root = ctx.work.join(format!("unit{index}"));
    let trace = MemTrace::new(traced);
    let reg0 = registry();
    let simd0 = harl_simd::stats().gemm_calls;
    let started = Instant::now();
    let mut sessions = Vec::new();
    let mut failed = 0;
    for (ci, g) in classes.iter().enumerate() {
        for (si, name) in SEARCHERS.iter().enumerate() {
            let plan = Plan {
                ctx,
                class: ci,
                searcher: si,
                graph: g,
                history: histories[ci].as_deref(),
                dir: root.join(format!("c{ci}-{name}")),
                tracer: trace.tracer(),
            };
            match session(&plan, c, check) {
                Ok(s) => sessions.push(s),
                Err(e) => {
                    failed += 1;
                    c.check(false, || format!("zoo-ops session failed: {e}"));
                }
            }
        }
    }
    let wall = started.elapsed();
    let reg1 = registry();
    // unit 0's stores stay until the record checks have read them
    if !check {
        let _ = std::fs::remove_dir_all(&root);
    }

    let mut counters = Vec::new();
    if traced || check {
        let mut score = ScoreStats::default();
        let mut lint = LintStats::new();
        for s in &sessions {
            score.merge(&s.score);
            lint.merge(&s.lint);
        }
        let mut per_searcher: Vec<Vec<f64>> = vec![Vec::new(); SEARCHERS.len()];
        for (i, s) in sessions.iter().enumerate() {
            per_searcher[i % SEARCHERS.len()].extend(&s.round_ms);
        }
        let sum = |f: &dyn Fn(&SessionOut) -> f64| sessions.iter().map(f).sum::<f64>();
        counters = vec![
            ("harl.round_ms_p50", median(&per_searcher[0])),
            ("ansor.round_ms_p50", median(&per_searcher[1])),
            ("flextensor.round_ms_p50", median(&per_searcher[2])),
            ("mcts.round_ms_p50", median(&per_searcher[3])),
            ("cd.round_ms_p50", median(&per_searcher[4])),
            ("harl.rounds", per_searcher[0].len() as f64),
            (
                "simd.gemm_calls",
                (harl_simd::stats().gemm_calls - simd0) as f64,
            ),
            ("gbt.scored", score.scored as f64),
            (
                "gbt.cache_hit_ratio",
                score.cache_hits as f64 / score.scored as f64,
            ),
            (
                "gbt.retrains",
                delta(&reg0, &reg1, "harl_gbt_retrains_total"),
            ),
            (
                "gbt.retrain_s",
                delta(&reg0, &reg1, "harl_gbt_retrain_seconds_sum"),
            ),
            ("tensor-ir.features_cached", score.features_cached as f64),
            ("tensor-sim.trials", sum(&|s| s.trials as f64)),
            (
                "tensor-sim.sim_s_per_trial",
                sum(&|s| s.sim_s) / sum(&|s| s.trials as f64),
            ),
            ("verify.checked", lint.checked as f64),
            (
                "verify.reject_ratio",
                lint.rejected as f64 / lint.checked as f64,
            ),
            ("finetune.trials", sum(&|s| s.finetune_trials as f64)),
            ("finetune.s", sum(&|s| secs(s.finetune))),
            ("store.open_s", sum(&|s| secs(s.open))),
            (
                "store.appends",
                delta(&reg0, &reg1, "harl_store_records_appended_total"),
            ),
            (
                "store.checkpoint_writes",
                delta(&reg0, &reg1, "harl_store_checkpoint_writes_total"),
            ),
            (
                "store.checkpoint_s",
                delta(&reg0, &reg1, "harl_store_checkpoint_write_seconds_sum"),
            ),
            ("session.launch_s", sum(&|s| secs(s.launch))),
            ("session.resume_s", sum(&|s| secs(s.resume))),
            ("session.warm_records", sum(&|s| s.warm_records as f64)),
        ];
    }
    Ok(Unit {
        sessions,
        failed,
        wall,
        spans: traced.then(|| trace.finish()),
        counters,
    })
}

pub fn run(ctx: &Ctx) -> RunResult {
    let classes: Vec<Subgraph> = OperatorClass::ALL
        .iter()
        .map(|c| {
            operator_suite(*c, 1)
                .into_iter()
                .next()
                .expect("every operator class has a shape")
        })
        .collect();
    let mut histories = Vec::new();
    for (i, g) in classes.iter().enumerate() {
        histories.push(if warm_class(i) {
            let dir = ctx.work.join(format!("history-{i}"));
            make_history(&dir, g, ctx.derive(0x100 + i as u64))?;
            Some(dir)
        } else {
            None
        });
    }

    let mut report = Report::default();
    let started = Instant::now();
    let mut units: Vec<(bool, Unit)> = Vec::new();
    let mut last = Duration::ZERO;
    while ctx.another_unit(started, units.len(), last) || (ctx.trace && units.len() < 2) {
        let traced = ctx.trace && units.len() % 2 == 1;
        let u = unit(
            ctx,
            &mut report.checks,
            &classes,
            &histories,
            units.len(),
            traced,
        )?;
        last = u.wall;
        units.push((traced, u));
    }
    let rss = peak_rss_mb("self").ok_or("cannot read VmHWM")?;

    let first = &units[0].1;
    for (i, out) in first.sessions.iter().enumerate() {
        let g = &classes[i / SEARCHERS.len()];
        let label = format!("zoo-ops {} {}", g.name, SEARCHERS[i % SEARCHERS.len()]);
        check_records(&mut report.checks, out, g, &label);
    }
    let _ = std::fs::remove_dir_all(ctx.work.join("unit0"));
    for (i, (_, u)) in units.iter().enumerate().skip(1) {
        let same = u.sessions.len() == first.sessions.len()
            && u.sessions.iter().zip(&first.sessions).all(|(a, b)| {
                a.best.to_bits() == b.best.to_bits()
                    && a.sim_s.to_bits() == b.sim_s.to_bits()
                    && a.trials == b.trials
            });
        report.checks.check(same, || {
            format!("zoo-ops: unit {i} differs from unit 0 at the same seed")
        });
    }
    for (_, u) in &units {
        let n = u.sessions.len() as u64 + u.failed;
        report.ops.add("sessions", n, u.failed);
        report.ops.add("resumes", u.sessions.len() as u64, 0);
        report.ops.add("finetunes", u.sessions.len() as u64, 0);
        report
            .ops
            .add("trials", u.sessions.iter().map(|s| s.trials).sum(), 0);
    }

    let plain: Vec<&Unit> = units.iter().filter(|(t, _)| !t).map(|(_, u)| u).collect();
    // each step's fastest run over the untraced units, steps being the
    // sessions (or their rounds) in order
    let mut repeated = true;
    let mut fastest = |f: &dyn Fn(&SessionOut) -> Vec<f64>| -> Vec<f64> {
        let profiles: Vec<Vec<f64>> = plain
            .iter()
            .map(|u| u.sessions.iter().flat_map(f).collect())
            .collect();
        fastest_steps(&profiles).unwrap_or_else(|| {
            repeated = false;
            Vec::new()
        })
    };
    let setups = fastest(&|s| vec![secs(s.setup())]);
    let work = fastest(&|s| vec![secs(s.wall.saturating_sub(s.setup()))]);
    let walls = fastest(&|s| vec![secs(s.wall)]);
    let round_ms = fastest(&|s| s.round_ms.clone());
    report.checks.check(repeated, || {
        "zoo-ops: untraced units ran different sessions or rounds".to_string()
    });
    let trials: u64 = first.sessions.iter().map(|s| s.trials).sum();
    // a job is one operator's five-searcher tournament
    let job_s: Vec<f64> = walls
        .chunks(SEARCHERS.len())
        .map(|class| class.iter().sum())
        .collect();
    report.facts.push(format!(
        "units={} (untraced {}), sessions/unit={}, budget={TRIALS}+fine-tune trials/session, \
         jobs (one class, five sessions)={}, rounds/unit={}",
        units.len(),
        plain.len(),
        first.sessions.len(),
        job_s.len(),
        round_ms.len()
    ));
    report.facts.push(format!(
        "unit wall: fastest steps {:.3} s, untraced units {}",
        walls.iter().sum::<f64>(),
        plain
            .iter()
            .map(|u| format!("{:.3} s", secs(u.wall)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let by_searcher: Vec<String> = SEARCHERS
        .iter()
        .enumerate()
        .map(|(si, name)| {
            let pick = |f: &dyn Fn(&SessionOut) -> Duration| -> f64 {
                first
                    .sessions
                    .iter()
                    .skip(si)
                    .step_by(SEARCHERS.len())
                    .map(|s| ms(f(s)))
                    .sum()
            };
            format!(
                "{name}: launch {:.1} ms, resume {:.1} ms",
                pick(&|s| s.launch),
                pick(&|s| s.resume)
            )
        })
        .collect();
    report.facts.push(format!(
        "set-up of unit 0 by searcher: {}",
        by_searcher.join("; ")
    ));
    report.e2e.insert("setup_s", setups.iter().sum());
    report
        .e2e
        .insert("trials_per_s", trials as f64 / work.iter().sum::<f64>());
    report.e2e.insert(
        "tuned_latency_ms",
        geomean(
            &first
                .sessions
                .iter()
                .map(|s| s.best * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    report
        .e2e
        .insert("sim_search_s", first.sessions.iter().map(|s| s.sim_s).sum());
    report.e2e.insert("peak_rss_mb", rss);
    report.e2e.insert("job_latency_p50_s", median(&job_s));
    report
        .e2e
        .insert("status_p50_ms", residual_quantile(&round_ms, 0.5));
    report
        .e2e
        .insert("status_p90_ms", residual_quantile(&round_ms, 0.9));

    if ctx.trace {
        let traced: Vec<(SpanTotals, f64)> = units
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, u)| (u.spans.clone().unwrap_or_default(), secs(u.wall)))
            .collect();
        let plain_s = median(&plain.iter().map(|u| secs(u.wall)).collect::<Vec<_>>());
        crate::report::fill_layers(&mut report, &first.counters, &traced, plain_s);
        report.layer.insert("bench.units", units.len() as f64);
    }
    Ok(report)
}
