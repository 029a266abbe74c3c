//! `serve-mix`: a tuning daemon on loopback under two closed-loop clients.
//!
//! One unit is one daemon lifetime. The daemon runs in a child process of
//! this binary (so its peak memory is its own) on a fresh state root whose
//! shared pool already holds about 20k seeded records. Two client threads,
//! one connection each, own disjoint similarity keys. Each submits a batch
//! of HARL `fast`-preset jobs with fine-tuning on, watches it with `status`
//! polls at a fixed pace plus an occasional `list`, fetches every `result`,
//! and only then submits its next batch. Because no two jobs that can run
//! at once share a key, each job's warm pool, and so its result, does not
//! depend on timing; every unit at one seed must repeat bit for bit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use harl_repro::prelude::*;
use harl_repro::serve::{
    Client, Daemon, JobOutcome, JobSpec, JobState, Preset, ServeConfig, TunerKind, WorkloadSpec,
};
use harl_repro::store::read_records;

use crate::checks::{check_budget, check_tuned, Checks, Measured};
use crate::inputs::append_random;
use crate::report::{Ops, Report};
use crate::spans::{MemTrace, SpanTotals};
use crate::stats::{
    fastest_steps, geomean, median, ms, parse_prometheus, peak_rss_mb, quantile, secs,
};
use crate::{Ctx, RunResult};

/// Search budget of every job; fine-tuning adds `max(trials/4, 8)`.
const JOB_TRIALS: u64 = 32;
/// Records in the seeded pool.
const POOL_RECORDS: usize = 20_000;
/// Pool records of each seeded job shape.
const SEEDED_PER_SHAPE: usize = 200;
/// Distinct filler shapes per operator family.
const FILLER_SHAPES: usize = 12;
/// Pace of the `status` polls.
const POLL: Duration = Duration::from_millis(5);
/// A `list` every this many poll ticks.
const LIST_EVERY: u64 = 20;
/// Longest a batch may take before its jobs count as failed.
const BATCH_DEADLINE: Duration = Duration::from_secs(60);
const DAEMON_WORKERS: usize = 2;
/// The quantile of daemon lifetimes whose start and busy time are
/// reported: the lower quartile reads the host's faster speed whenever
/// a quarter of the run had it.
const FAST_QUANTILE: f64 = 0.25;

/// Operator families; client 0 owns the first two, client 1 the others.
const FAMILIES: [&str; 4] = ["gemm", "softmax", "bgemm", "conv2d"];

/// The job shapes of each family, fixed so every seed tunes the same
/// operators. Every iteration space stays under 2^24 points, so the
/// coverage check walks each best schedule. The seed decides which of a
/// family's two shapes is seeded in the pool.
fn job_shapes(family: &str) -> [WorkloadSpec; 2] {
    match family {
        "gemm" => [
            WorkloadSpec::Gemm {
                m: 128,
                k: 256,
                n: 128,
            },
            WorkloadSpec::Gemm {
                m: 256,
                k: 128,
                n: 256,
            },
        ],
        "bgemm" => [
            WorkloadSpec::BatchGemm {
                b: 4,
                m: 64,
                k: 128,
                n: 64,
            },
            WorkloadSpec::BatchGemm {
                b: 4,
                m: 128,
                k: 64,
                n: 128,
            },
        ],
        "conv2d" => {
            let conv = |hw, ch| WorkloadSpec::Conv2d {
                batch: 1,
                height: hw,
                width: hw,
                ci: ch,
                co: ch,
                kernel: 3,
                stride: 1,
                pad: 1,
            };
            [conv(14, 32), conv(28, 16)]
        }
        _ => [
            WorkloadSpec::Softmax {
                rows: 256,
                cols: 512,
            },
            WorkloadSpec::Softmax {
                rows: 512,
                cols: 256,
            },
        ],
    }
}

/// A random shape of `family` for the pool's filler records, from a grid
/// wider than the job shapes.
fn filler_shape(family: &str, rng: &mut StdRng) -> WorkloadSpec {
    let pick = |rng: &mut StdRng, xs: &[u32]| *xs.choose(rng).expect("non-empty grid");
    let g = [32, 64, 128, 256, 512];
    match family {
        "gemm" => WorkloadSpec::Gemm {
            m: pick(rng, &g),
            k: pick(rng, &g),
            n: pick(rng, &g),
        },
        "bgemm" => WorkloadSpec::BatchGemm {
            b: pick(rng, &[2, 4, 8]),
            m: pick(rng, &g[..4]),
            k: pick(rng, &g[..4]),
            n: pick(rng, &g[..4]),
        },
        "conv2d" => {
            let hw = pick(rng, &[7, 14, 28, 56]);
            WorkloadSpec::Conv2d {
                batch: 1,
                height: hw,
                width: hw,
                ci: pick(rng, &[16, 32, 64, 128]),
                co: pick(rng, &[16, 32, 64, 128]),
                kernel: 3,
                stride: 1,
                pad: 1,
            }
        }
        _ => WorkloadSpec::Softmax {
            rows: pick(rng, &[64, 128, 256, 512, 1024]),
            cols: pick(rng, &[128, 256, 512, 1024]),
        },
    }
}

/// One job of the stream, and whether the seeded pool holds its shape.
#[derive(Clone)]
struct JobPlan {
    spec: JobSpec,
    seeded: bool,
    /// The same shape ran in an earlier batch of this client.
    repeat: bool,
}

/// The seeded inputs: each client's batches and the pool's shapes.
struct Inputs {
    /// `clients[c][batch]` = jobs submitted together.
    clients: Vec<Vec<Vec<JobPlan>>>,
    /// Seeded job shapes (one per family).
    seeded: Vec<WorkloadSpec>,
}

fn job_spec(workload: WorkloadSpec) -> JobSpec {
    JobSpec {
        workload,
        tuner: TunerKind::Harl,
        preset: Preset::Fast,
        hardware: "cpu".into(),
        trials: JOB_TRIALS,
        priority: 0,
        target_ms: None,
        parallelism: None,
        finetune: true,
    }
}

/// Per client and family, the seed orders the family's two shapes into
/// `a` (seeded in the pool) and `b`. Batch 0 runs `a` of both families;
/// batch 1 runs the first family's unseeded `b` and repeats the second
/// family's `a`, which then also warm-starts from batch 0's donated
/// records.
fn make_inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clients = vec![Vec::new(), Vec::new()];
    let mut seeded = Vec::new();
    for (c, batches) in clients.iter_mut().enumerate() {
        let mut fams = [FAMILIES[2 * c], FAMILIES[2 * c + 1]].map(job_shapes);
        for shapes in &mut fams {
            shapes.shuffle(&mut rng);
        }
        let [[a0, b0], [a1, _]] = fams;
        seeded.push(a0.clone());
        seeded.push(a1.clone());
        let plan = |w: &WorkloadSpec, seeded, repeat| JobPlan {
            spec: job_spec(w.clone()),
            seeded,
            repeat,
        };
        batches.push(vec![plan(&a0, true, false), plan(&a1, true, false)]);
        batches.push(vec![plan(&b0, false, false), plan(&a1, true, true)]);
    }
    Inputs { clients, seeded }
}

/// Writes the seeded pool: `SEEDED_PER_SHAPE` records for every seeded job
/// shape, and filler records over other shapes of the same families (so a
/// job's key matches thousands of records of which few fit its shape).
/// No filler shape is a job shape.
fn make_pool(dir: &Path, inputs: &Inputs, seed: u64) -> Result<usize, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let job: BTreeSet<String> = FAMILIES
        .iter()
        .flat_map(|f| job_shapes(f))
        .map(|w| w.summary())
        .collect();
    let mut shapes: Vec<(WorkloadSpec, usize)> = inputs
        .seeded
        .iter()
        .map(|w| (w.clone(), SEEDED_PER_SHAPE))
        .collect();
    let filler =
        (POOL_RECORDS - shapes.len() * SEEDED_PER_SHAPE) / (FAMILIES.len() * FILLER_SHAPES);
    for fam in FAMILIES {
        let mut drawn = BTreeSet::new();
        while drawn.len() < FILLER_SHAPES {
            let w = filler_shape(fam, &mut rng);
            if !job.contains(&w.summary()) && drawn.insert(w.summary()) {
                shapes.push((w, filler));
            }
        }
    }
    let mcfg = MeasureConfig::builder()
        .seed(rng.gen())
        .build()
        .map_err(|e| e.to_string())?;
    let measurer = Measurer::new(Hardware::cpu(), mcfg);
    let store = RecordStore::open(dir).map_err(|e| e.to_string())?;
    for (w, n) in &shapes {
        append_random(&store, &w.build(), *n, &measurer, &mut rng)?;
    }
    Ok(store.len())
}

/// Entry point of the daemon child: `daemon --root DIR`.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let [flag, root] = args else {
        eprintln!("perfbench daemon: usage: daemon --root DIR");
        return ExitCode::from(2);
    };
    if flag != "--root" {
        eprintln!("perfbench daemon: usage: daemon --root DIR");
        return ExitCode::from(2);
    }
    let mut cfg = ServeConfig::new(root);
    cfg.workers = DAEMON_WORKERS;
    match Daemon::start(cfg) {
        Ok(d) => {
            d.wait();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::from(1)
        }
    }
}

/// What one client saw of one job.
struct JobSeen {
    client: usize,
    batch: usize,
    slot: usize,
    id: String,
    outcome: Option<JobOutcome>,
    latency: Duration,
    queue_wait: Option<Duration>,
    run: Option<Duration>,
}

/// Everything one client thread measured.
#[derive(Default)]
struct ClientLog {
    jobs: Vec<JobSeen>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    list_ms: Vec<f64>,
    result_ms: Vec<f64>,
    ops: Ops,
    errors: Vec<String>,
    spans: Option<SpanTotals>,
}

fn timed<T>(out: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    out.push(ms(t.elapsed()));
    r
}

fn run_client(addr: &str, client: usize, batches: &[Vec<JobPlan>], traced: bool) -> ClientLog {
    let conn = Client::new(addr);
    let trace = MemTrace::new(traced);
    let tracer = trace.tracer().clone();
    let mut log = ClientLog::default();
    for (b, batch) in batches.iter().enumerate() {
        // (slot, id, submitted at, first seen running)
        let mut pending: Vec<(usize, String, Instant, Option<Instant>)> = Vec::new();
        for (slot, job) in batch.iter().enumerate() {
            let t = Instant::now();
            let r = {
                let _s = tracer.span("bench.submit");
                timed(&mut log.submit_ms, || conn.submit(&job.spec))
            };
            log.ops.add("submit", 1, r.is_err() as u64);
            match r {
                Ok(id) => pending.push((slot, id, t, None)),
                Err(e) => log.errors.push(format!("client {client} submit: {e}")),
            }
        }
        let start = Instant::now();
        let mut tick = 0u64;
        while !pending.is_empty() {
            if start.elapsed() > BATCH_DEADLINE {
                for (_, id, _, _) in pending.drain(..) {
                    log.errors
                        .push(format!("client {client}: job {id} missed the deadline"));
                }
                break;
            }
            tick += 1;
            let due = start + POLL * tick as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let mut still = Vec::new();
            for (slot, id, submitted, running) in pending.drain(..) {
                let r = {
                    let _s = tracer.span("bench.status");
                    timed(&mut log.status_ms, || conn.status(&id))
                };
                log.ops.add("status", 1, r.is_err() as u64);
                let view = match r {
                    Ok(v) => v,
                    Err(e) => {
                        log.errors.push(format!("client {client} status {id}: {e}"));
                        still.push((slot, id, submitted, running));
                        continue;
                    }
                };
                let now = Instant::now();
                let running = match (running, view.state) {
                    (None, JobState::Running | JobState::Done) => Some(now),
                    (r, _) => r,
                };
                match view.state {
                    JobState::Queued | JobState::Running => {
                        still.push((slot, id, submitted, running));
                    }
                    JobState::Done => {
                        let r = {
                            let _s = tracer.span("bench.result");
                            timed(&mut log.result_ms, || conn.result(&id))
                        };
                        log.ops.add("result", 1, r.is_err() as u64);
                        let done = Instant::now();
                        let outcome = match r {
                            Ok(o) => Some(o),
                            Err(e) => {
                                log.errors.push(format!("client {client} result {id}: {e}"));
                                None
                            }
                        };
                        log.jobs.push(JobSeen {
                            client,
                            batch: b,
                            slot,
                            id,
                            outcome,
                            latency: done - submitted,
                            queue_wait: running.map(|r| r - submitted),
                            run: running.map(|r| now - r),
                        });
                    }
                    other => {
                        log.errors
                            .push(format!("client {client}: job {id} ended {}", other.name()));
                    }
                }
            }
            pending = still;
            if tick.is_multiple_of(LIST_EVERY) {
                let r = {
                    let _s = tracer.span("bench.list");
                    timed(&mut log.list_ms, || conn.list())
                };
                log.ops.add("list", 1, r.is_err() as u64);
                if let Err(e) = r {
                    log.errors.push(format!("client {client} list: {e}"));
                }
            }
        }
    }
    log.spans = traced.then(|| trace.finish());
    log
}

/// One daemon lifetime.
struct Unit {
    start: Duration,
    busy: Duration,
    rss_mb: f64,
    clients: Vec<ClientLog>,
    counters: BTreeMap<String, f64>,
    daemon_spans: Option<SpanTotals>,
}

impl Unit {
    fn jobs(&self) -> impl Iterator<Item = &JobSeen> {
        self.clients.iter().flat_map(|c| c.jobs.iter())
    }

    fn outcomes(&self) -> Vec<((usize, usize, usize), &JobOutcome)> {
        let mut v: Vec<_> = self
            .jobs()
            .filter_map(|j| j.outcome.as_ref().map(|o| ((j.client, j.batch, j.slot), o)))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }
}

/// The daemon child process; dropping it kills and reaps the process, so
/// no exit path of a unit leaves a daemon running.
struct DaemonProc(Child);

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

fn wait_for_addr(root: &Path, child: &mut DaemonProc) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(s) = std::fs::read_to_string(root.join("serve.addr")) {
            if s.ends_with('\n') {
                return Ok(s.trim().to_string());
            }
        }
        if let Ok(Some(status)) = child.0.try_wait() {
            return Err(format!("daemon exited before serving: {status}"));
        }
        if Instant::now() > deadline {
            return Err("daemon did not start within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Stops the daemon with `shutdown` and waits up to 30 s for it to exit
/// (after that, dropping the handle kills it).
fn stop_daemon(addr: &str, mut child: DaemonProc, ops: &mut Ops) -> Result<(), String> {
    let r = Client::new(addr).shutdown();
    ops.add("shutdown", 1, r.is_err() as u64);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.0.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            _ => return Err("daemon did not stop within 30 s; killed".into()),
        }
    }
}

/// Runs one daemon lifetime in `<work>/unit<index>`; returns that root.
fn unit(
    ctx: &Ctx,
    inputs: &Inputs,
    pool: &Path,
    index: usize,
    traced: bool,
    ops: &mut Ops,
) -> Result<(Unit, PathBuf), String> {
    let root = ctx.work.join(format!("unit{index}"));
    std::fs::create_dir_all(root.join("pool")).map_err(|e| e.to_string())?;
    // a fresh copy of the seeded pool's record file (the store's on-disk
    // format), so every unit starts from the same pool
    std::fs::copy(pool.join("records.jsonl"), root.join("pool/records.jsonl"))
        .map_err(|e| format!("copy pool: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("daemon")
        .arg("--root")
        .arg(&root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .env_remove("HARL_TRACE_FILE")
        .env_remove("HARL_SCORE_THREADS")
        .env_remove("HARL_PPO_THREADS");
    if traced {
        cmd.env("HARL_TRACE", "1");
    } else {
        cmd.env_remove("HARL_TRACE");
    }
    let t0 = Instant::now();
    let mut child = DaemonProc(cmd.spawn().map_err(|e| format!("spawn daemon: {e}"))?);
    let addr = wait_for_addr(&root, &mut child)?;
    let first = Client::new(addr.as_str()).list();
    ops.add("list", 1, first.is_err() as u64);
    let start = t0.elapsed();
    if let Err(e) = first {
        let _ = stop_daemon(&addr, child, ops);
        return Err(format!("first request failed: {e}"));
    }

    let busy_from = Instant::now();
    let clients: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .clients
            .iter()
            .enumerate()
            .map(|(c, batches)| {
                let addr = addr.as_str();
                s.spawn(move || run_client(addr, c, batches, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let busy = busy_from.elapsed();

    let rss_mb = peak_rss_mb(&child.0.id().to_string()).unwrap_or(f64::NAN);
    let metrics = Client::new(addr.as_str()).metrics();
    ops.add("metrics", 1, metrics.is_err() as u64);
    let counters = metrics.map(|m| parse_prometheus(&m)).unwrap_or_default();
    stop_daemon(&addr, child, ops)?;

    let daemon_spans = if traced {
        let mut totals = SpanTotals::default();
        if let Ok(dirs) = std::fs::read_dir(root.join("jobs")) {
            for d in dirs.flatten() {
                if let Ok(text) = std::fs::read_to_string(d.path().join("trace.jsonl")) {
                    totals.add_jsonl(&text);
                }
            }
        }
        Some(totals)
    } else {
        None
    };
    Ok((
        Unit {
            start,
            busy,
            rss_mb,
            clients,
            counters,
            daemon_spans,
        },
        root,
    ))
}

/// Checks every job of the first unit against its own store records.
fn check_jobs(c: &mut Checks, u: &Unit, inputs: &Inputs, root: &Path) {
    let mcfg = MeasureConfig::default();
    let want: usize = inputs.clients.iter().flatten().map(Vec::len).sum();
    c.check(u.jobs().count() == want, || {
        format!(
            "serve-mix: {} of {want} jobs reached Done",
            u.jobs().count()
        )
    });
    for j in u.jobs() {
        let plan = &inputs.clients[j.client][j.batch][j.slot];
        let label = format!("serve-mix {} {}", j.id, plan.spec.workload.summary());
        let Some(o) = &j.outcome else {
            c.check(false, || format!("{label}: no result"));
            continue;
        };
        if plan.seeded {
            c.check(o.warm_records > 0, || {
                format!("{label}: seeded shape but warm_records=0")
            });
        } else if !plan.repeat {
            c.check(o.warm_records == 0, || {
                format!(
                    "{label}: unseeded shape but warm_records={}",
                    o.warm_records
                )
            });
        }
        let ft = o.finetune_trials.unwrap_or(0);
        c.check(o.finetune_trials.is_some(), || {
            format!("{label}: fine-tune did not run")
        });
        let records = match read_records(root.join("jobs").join(&j.id).join("store")) {
            Ok(r) => r,
            Err(e) => {
                c.check(false, || format!("{label}: cannot read its store: {e}"));
                continue;
            }
        };
        check_budget(
            c,
            &label,
            &mcfg,
            o.trials,
            JOB_TRIALS + ft,
            records.len(),
            o.sim_seconds,
        );
        let measured: Vec<Measured<'_>> = records
            .iter()
            .map(|r| Measured {
                schedule: &r.schedule,
                time: r.time,
            })
            .collect();
        let g = plan.spec.workload.build();
        check_tuned(
            c,
            &label,
            &mcfg,
            &g,
            &measured,
            o.best_ms,
            JOB_TRIALS as usize,
        );
    }
}

pub fn run(ctx: &Ctx) -> RunResult {
    let inputs = make_inputs(ctx.derive(0x5e));
    let pool = ctx.work.join("pool-seed");
    let pool_len = make_pool(&pool, &inputs, ctx.derive(0x9001))?;

    let mut report = Report::default();
    let started = Instant::now();
    let mut units: Vec<(bool, Unit)> = Vec::new();
    let mut last = Duration::ZERO;
    while ctx.another_unit(started, units.len(), last) || (ctx.trace && units.len() < 2) {
        let traced = ctx.trace && units.len() % 2 == 1;
        let (u, root) = unit(ctx, &inputs, &pool, units.len(), traced, &mut report.ops)?;
        // unit 0's job stores stay until the checks have read them
        if !units.is_empty() {
            let _ = std::fs::remove_dir_all(&root);
        }
        last = u.start + u.busy;
        units.push((traced, u));
    }
    let root0 = ctx.work.join("unit0");
    check_jobs(&mut report.checks, &units[0].1, &inputs, &root0);
    let _ = std::fs::remove_dir_all(&root0);

    let first = &units[0].1;
    let base = first.outcomes();
    for (i, (_, u)) in units.iter().enumerate() {
        for cl in &u.clients {
            report.ops.merge(&cl.ops);
            for e in &cl.errors {
                report
                    .checks
                    .check(false, || format!("serve-mix unit {i}: {e}"));
            }
        }
        let want: u64 = inputs
            .clients
            .iter()
            .flatten()
            .map(|b| b.len() as u64)
            .sum();
        let done = u.outcomes().len() as u64;
        report.ops.add("jobs", want, want - done);
        report.ops.add(
            "trials",
            u.outcomes().iter().map(|(_, o)| o.trials).sum(),
            0,
        );
        let same = u.outcomes().len() == base.len()
            && u.outcomes().iter().zip(&base).all(|((ka, a), (kb, b))| {
                ka == kb
                    && a.best_ms.to_bits() == b.best_ms.to_bits()
                    && a.sim_seconds.to_bits() == b.sim_seconds.to_bits()
                    && a.trials == b.trials
                    && a.warm_records == b.warm_records
            });
        report.checks.check(same, || {
            format!("serve-mix: unit {i} results differ from unit 0 at the same seed")
        });
    }

    let plain: Vec<&Unit> = units.iter().filter(|(t, _)| !t).map(|(_, u)| u).collect();
    let collect = |f: &dyn Fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        plain
            .iter()
            .flat_map(|u| u.clients.iter())
            .flat_map(|c| f(c).iter().copied())
            .collect()
    };
    let status_ms = collect(&|c| &c.status_ms);
    let jobs: Vec<&JobSeen> = plain.iter().flat_map(|u| u.jobs()).collect();
    // each job's fastest submit-to-result latency over the untraced units
    let profiles: Vec<Vec<f64>> = plain
        .iter()
        .map(|u| {
            let mut js: Vec<&JobSeen> = u.jobs().collect();
            js.sort_by_key(|j| (j.client, j.batch, j.slot));
            js.iter().map(|j| secs(j.latency)).collect()
        })
        .collect();
    let job_s = fastest_steps(&profiles);
    report.checks.check(job_s.is_some(), || {
        "serve-mix: untraced units completed different jobs".to_string()
    });
    let job_s = job_s.unwrap_or_default();
    let setup_s: Vec<f64> = plain.iter().map(|u| secs(u.start)).collect();
    let busy_s: Vec<f64> = plain.iter().map(|u| secs(u.busy)).collect();
    let trials: u64 = base.iter().map(|(_, o)| o.trials).sum();
    report.facts.push(format!(
        "units={} (untraced {}), pool={pool_len} records, jobs/unit={}, \
         status samples={}, daemon starts={}",
        units.len(),
        plain.len(),
        base.len(),
        status_ms.len(),
        setup_s.len()
    ));
    report.facts.push(format!(
        "untraced daemon lifetimes: start {}; busy {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        busy_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report
        .e2e
        .insert("setup_s", quantile(&setup_s, FAST_QUANTILE));
    report.e2e.insert(
        "trials_per_s",
        trials as f64 / quantile(&busy_s, FAST_QUANTILE),
    );
    report.e2e.insert(
        "tuned_latency_ms",
        geomean(&base.iter().map(|(_, o)| o.best_ms).collect::<Vec<_>>()),
    );
    report.e2e.insert(
        "sim_search_s",
        base.iter().map(|(_, o)| o.sim_seconds).sum(),
    );
    report.e2e.insert(
        "peak_rss_mb",
        plain.iter().map(|u| u.rss_mb).fold(f64::NAN, f64::max),
    );
    report.e2e.insert("job_latency_p50_s", median(&job_s));
    report.e2e.insert("status_p50_ms", median(&status_ms));
    report
        .e2e
        .insert("status_p90_ms", quantile(&status_ms, 0.9));

    if ctx.trace {
        let traced: Vec<&Unit> = units.iter().filter(|(t, _)| *t).map(|(_, u)| u).collect();
        let mut spans = Vec::new();
        for u in &traced {
            let mut s = u.daemon_spans.clone().unwrap_or_default();
            for c in &u.clients {
                if let Some(cs) = &c.spans {
                    s.merge(cs);
                }
            }
            spans.push((s, secs(u.start + u.busy)));
        }
        let n = |k: &str| first.counters.get(k).copied().unwrap_or(0.0);
        let mut score = harl_repro::gbt::ScoreStats::default();
        for (_, o) in &base {
            if let Some(s) = &o.score_stats {
                score.merge(s);
            }
        }
        let rounds: Vec<f64> = spans
            .iter()
            .flat_map(|(s, _)| s.durations.get("harl_round").cloned().unwrap_or_default())
            .map(|d| d * 1e3)
            .collect();
        let counts = vec![
            ("harl.round_ms_p50", median(&rounds)),
            (
                "harl.rounds",
                rounds.len() as f64 / traced.len().max(1) as f64,
            ),
            ("simd.gemm_calls", n("harl_simd_gemm_calls")),
            ("gbt.scored", score.scored as f64),
            (
                "gbt.cache_hit_ratio",
                score.cache_hits as f64 / score.scored as f64,
            ),
            ("gbt.retrains", n("harl_gbt_retrains_total")),
            ("gbt.retrain_s", n("harl_gbt_retrain_seconds_sum")),
            ("tensor-ir.features_cached", score.features_cached as f64),
            ("tensor-sim.trials", n("harl_measure_trials_total")),
            (
                "tensor-sim.sim_s_per_trial",
                base.iter().map(|(_, o)| o.sim_seconds).sum::<f64>()
                    / base.iter().map(|(_, o)| o.trials as f64).sum::<f64>(),
            ),
            (
                "finetune.trials",
                base.iter()
                    .map(|(_, o)| o.finetune_trials.unwrap_or(0) as f64)
                    .sum(),
            ),
            ("store.appends", n("harl_store_records_appended_total")),
            (
                "store.checkpoint_writes",
                n("harl_store_checkpoint_writes_total"),
            ),
            (
                "store.checkpoint_s",
                n("harl_store_checkpoint_write_seconds_sum"),
            ),
            ("serve.start_s", median(&setup_s)),
            (
                "serve.queue_wait_ms_p50",
                median(
                    &jobs
                        .iter()
                        .filter_map(|j| j.queue_wait)
                        .map(ms)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "serve.run_s_p50",
                median(
                    &jobs
                        .iter()
                        .filter_map(|j| j.run)
                        .map(secs)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "serve.warm_records",
                base.iter().map(|(_, o)| o.warm_records as f64).sum(),
            ),
            ("net.submit_ms_p50", median(&collect(&|c| &c.submit_ms))),
            ("net.list_ms_p50", median(&collect(&|c| &c.list_ms))),
            ("net.result_ms_p50", median(&collect(&|c| &c.result_ms))),
            ("net.wakeups", n("harl_net_wakeups_total")),
            ("net.dispatch_s", n("harl_net_dispatch_seconds_sum")),
        ];
        let plain_s = median(
            &plain
                .iter()
                .map(|u| secs(u.start + u.busy))
                .collect::<Vec<_>>(),
        );
        crate::report::fill_layers(&mut report, &counts, &spans, plain_s);
        report.layer.insert("bench.units", units.len() as f64);
    }
    Ok(report)
}
