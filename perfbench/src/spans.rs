//! In-memory span collection and per-layer self time.
//!
//! The program's own `harl-obs` tracer is pointed at an in-memory buffer;
//! the benchmark opens its own spans (`bench.*`) on the same tracer around
//! each public call it makes, so program spans nest under them. The buffer
//! is parsed once a unit has ended. A span's self time is its duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use harl_repro::obs::Tracer;

/// Span name -> layer (crate). Names missing here are reported under
/// their own name, so renaming a span in the program never breaks a run.
const LAYERS: &[(&str, &str)] = &[
    // harl-core: network and operator rounds, episodes, top-k
    ("net_round", "harl"),
    ("harl_round", "harl"),
    ("episode", "harl"),
    ("topk_select", "harl"),
    ("bench.net_tuner_new", "harl"),
    ("bench.net_round", "harl"),
    ("bench.round.harl", "harl"),
    // harl-bandit
    ("sketch_pick", "bandit"),
    // harl-nnet (policy)
    ("ppo_act", "nnet"),
    ("ppo_act_batch", "nnet"),
    ("ppo_update", "nnet"),
    ("ppo_train", "nnet"),
    ("ppo_backward", "nnet"),
    // harl-simd
    ("gemm", "simd"),
    // harl-gbt (scoring includes tensor-ir feature extraction)
    ("score", "gbt"),
    ("gbt_retrain", "gbt"),
    // harl-tensor-sim (measurement, including record-sink appends)
    ("measure", "tensor-sim"),
    // baselines
    ("ansor_round", "ansor"),
    ("evolve", "ansor"),
    ("bench.round.ansor", "ansor"),
    ("flex_episode", "flextensor"),
    ("bench.round.flextensor", "flextensor"),
    ("mcts_round", "mcts"),
    ("playouts", "mcts"),
    ("bench.round.mcts", "mcts"),
    ("cd_round", "cd"),
    ("bench.round.cd", "cd"),
    // coordinate-descent fine-tuning after any searcher
    ("harl_finetune", "finetune"),
    ("ansor_finetune", "finetune"),
    ("flextensor_finetune", "finetune"),
    ("mcts_finetune", "finetune"),
    ("cd_finetune", "finetune"),
    ("bench.finetune", "finetune"),
    // harl-store and the session layer (checkpoints, launches)
    ("bench.store_open", "store"),
    ("bench.launch", "session"),
    ("bench.resume", "session"),
    ("bench.finish", "session"),
    // harl-serve (daemon job) and harl-net (client calls)
    ("job", "serve"),
    ("bench.daemon_start", "serve"),
    ("bench.submit", "net"),
    ("bench.status", "net"),
    ("bench.list", "net"),
    ("bench.result", "net"),
];

pub fn layer_of(name: &str) -> Option<&'static str> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, l)| *l)
}

/// Self time summed by span name, plus the total time root spans cover.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    pub self_s: BTreeMap<String, f64>,
    /// Every span's full duration in seconds, by name.
    pub durations: BTreeMap<String, Vec<f64>>,
    pub root_s: f64,
    pub spans: u64,
}

impl SpanTotals {
    pub fn merge(&mut self, other: &SpanTotals) {
        for (k, v) in &other.self_s {
            *self.self_s.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.durations {
            self.durations.entry(k.clone()).or_default().extend(v);
        }
        self.root_s += other.root_s;
        self.spans += other.spans;
    }

    /// Self seconds grouped by layer; unmapped names keep their own name.
    pub fn by_layer(&self) -> (BTreeMap<&'static str, f64>, BTreeMap<String, f64>) {
        let mut layers = BTreeMap::new();
        let mut unmapped = BTreeMap::new();
        for (name, s) in &self.self_s {
            match layer_of(name) {
                Some(l) => *layers.entry(l).or_insert(0.0) += s,
                None => *unmapped.entry(name.clone()).or_insert(0.0) += s,
            }
        }
        (layers, unmapped)
    }

    /// Adds the spans of one JSONL trace (the `harl-obs` format).
    pub fn add_jsonl(&mut self, text: &str) {
        // id -> (name, start µs, parent id, µs covered by children)
        let mut open: BTreeMap<u64, (String, u64, Option<u64>, u64)> = BTreeMap::new();
        for line in text.lines() {
            match field_str(line, "t") {
                Some("span_start") => {
                    let (Some(id), Some(ts), Some(name)) = (
                        field_u64(line, "id"),
                        field_u64(line, "ts_us"),
                        field_str(line, "name"),
                    ) else {
                        continue;
                    };
                    open.insert(id, (name.to_string(), ts, field_u64(line, "parent"), 0));
                }
                Some("span_end") => {
                    let (Some(id), Some(ts)) = (field_u64(line, "id"), field_u64(line, "ts_us"))
                    else {
                        continue;
                    };
                    let Some((name, start, parent, child)) = open.remove(&id) else {
                        continue;
                    };
                    let dur = ts.saturating_sub(start);
                    *self.self_s.entry(name.clone()).or_insert(0.0) +=
                        dur.saturating_sub(child) as f64 * 1e-6;
                    self.durations
                        .entry(name)
                        .or_default()
                        .push(dur as f64 * 1e-6);
                    self.spans += 1;
                    match parent.and_then(|p| open.get_mut(&p)) {
                        Some(p) => p.3 += dur,
                        None => self.root_s += dur as f64 * 1e-6,
                    }
                }
                _ => {}
            }
        }
    }
}

fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    Some(&line[at..])
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = raw_field(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = raw_field(line, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A tracer whose output stays in memory until [`MemTrace::finish`].
pub struct MemTrace {
    buf: SharedBuf,
    tracer: Tracer,
}

impl MemTrace {
    /// An enabled in-memory tracer, or a disabled one when `on` is false.
    pub fn new(on: bool) -> MemTrace {
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let tracer = if on {
            Tracer::to_writer(Box::new(buf.clone()))
        } else {
            Tracer::disabled()
        };
        MemTrace { buf, tracer }
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Flushes the tracer and parses everything it recorded.
    pub fn finish(self) -> SpanTotals {
        self.tracer.flush();
        let bytes = std::mem::take(&mut *self.buf.0.lock().expect("trace buffer poisoned"));
        let mut totals = SpanTotals::default();
        totals.add_jsonl(&String::from_utf8_lossy(&bytes));
        totals
    }
}
