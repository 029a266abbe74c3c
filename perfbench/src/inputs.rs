//! Seeded input records, generated through the public API only.

use rand::rngs::StdRng;
use rand::Rng;

use harl_repro::prelude::*;

/// Appends `n` records to `store`: each a random schedule of one of
/// `g`'s sketches (both drawn from `rng`), measured by `measurer`.
pub fn append_random(
    store: &RecordStore,
    g: &Subgraph,
    n: usize,
    measurer: &Measurer,
    rng: &mut StdRng,
) -> Result<(), String> {
    let target = measurer.hardware().target();
    let sketches = generate_sketches(g, target);
    for _ in 0..n {
        let sk = &sketches[rng.gen_range(0..sketches.len())];
        let schedule = Schedule::random(sk, target, rng);
        let m = measurer.measure(g, sk, &schedule);
        store
            .append(MeasureRecord {
                workload: g.name.clone(),
                similarity_key: g.similarity_key(),
                sketch_id: sk.id,
                schedule,
                time: m.time,
                flops_per_sec: m.flops_per_sec,
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
