//! Seeded end-to-end benchmark of the HARL reproduction.
//!
//! ```text
//! perfbench --workload <net-tune|zoo-ops|serve-mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed` before any timing starts,
//! then repeats one fixed *unit* of work (a whole network tuning, a whole
//! five-searcher zoo pass, or a whole daemon lifetime) until `--seconds`
//! are used up. Every unit at one seed performs the same operations and
//! must produce bit-identical results, which the benchmark checks. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` units alternate untraced and traced and the line carries
//! the per-layer metrics. See `README.md`.

mod checks;
mod inputs;
mod net_tune;
mod report;
mod serve_mix;
mod spans;
mod stats;
mod zoo_ops;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// Settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Scratch directory inside the working directory, removed on exit.
    pub work: PathBuf,
}

impl Ctx {
    /// A sub-seed for one named input stream (SplitMix64 over the run seed
    /// and the stream tag), so adding a stream never shifts another.
    pub fn derive(&self, tag: u64) -> u64 {
        splitmix(self.seed ^ splitmix(tag))
    }

    /// True while another unit may start: at least one unit always runs,
    /// and a further unit starts only when the last unit's duration still
    /// fits in the window.
    pub fn another_unit(&self, started: Instant, units: usize, last: Duration) -> bool {
        units == 0 || started.elapsed() + last <= self.window
    }
}

pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // internal entry point: the serve-mix workload runs its daemon in a
    // child process of this binary, so its memory is measured on its own
    if argv.first().map(String::as_str) == Some("daemon") {
        return serve_mix::daemon_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <net-tune|zoo-ops|serve-mix> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.clone(),
    };
    let report = match args.workload.as_str() {
        "net-tune" => net_tune::run(&ctx),
        "zoo-ops" => zoo_ops::run(&ctx),
        "serve-mix" => serve_mix::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other} (net-tune, zoo-ops, serve-mix)");
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    // drop the parent too when no concurrent run still uses it
    let _ = std::fs::remove_dir(".bench_work");
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    report.print(&args.workload, args.seed, args.trace)
}

/// Result type of a workload run: an abort is an error the benchmark could
/// not count as a failed operation (a broken environment, not a result).
pub type RunResult = Result<Report, String>;
