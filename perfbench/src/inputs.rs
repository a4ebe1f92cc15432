//! Seeded inputs and the served state.
//!
//! Everything a run sends to the server is generated here from `--seed`:
//! the framed ingest streams, and for the preloaded workloads the
//! checkpoint envelope the server boots from.  The server receives only
//! these bytes.  Each input also gets its single-threaded replica — a
//! registry that absorbed exactly the same updates — which the
//! correctness gate compares the server's answers against.

use gsum_core::GSumConfig;
use gsum_gfunc::library::{CappedLinear, OscillatingQuadratic, PowerFunction};
use gsum_gfunc::{DynG, GFunction};
use gsum_serve::SketchRegistry;
use gsum_streams::wire::encode_updates;
use gsum_streams::{
    coalesce_updates, MergeableSketch, StreamConfig, StreamGenerator, StreamSink, Update,
    ZipfStreamGenerator,
};

/// Zipf skew of every generated stream.
pub const ZIPF_ALPHA: f64 = 1.2;
/// Share of updates that are deletions (turnstile streams).
pub const DELETIONS: f64 = 0.1;
/// Updates per framed ingest stream.
pub const STREAM_UPDATES: usize = 1 << 14;
/// The server's dispatch granularity (`PipelinedIngest`'s default batch):
/// replicas absorb in batches of this size, as the fold workers do.
pub const DISPATCH: usize = 1024;
/// Target accuracy and CountSketch columns of the served configuration.
pub const EPSILON: f64 = 0.2;
pub const COLUMNS: usize = 512;
/// Short labels of the registered functions, in registration order.
pub const LABELS: [&str; 3] = ["x2", "cap100", "osclog"];

/// The three served functions: `x^2`, `min(x, 100)` and the non-monotone
/// but one-pass tractable `(2+sin ln(1+x))x^2`.
pub fn functions() -> Vec<DynG> {
    vec![
        DynG::new(PowerFunction::new(2.0)),
        DynG::new(CappedLinear::new(100)),
        DynG::new(OscillatingQuadratic::log()),
    ]
}

/// The sketch's hash seed: server configuration, fixed like the rest of
/// it, so every input seed meets the same level layout.  At domain 2^12
/// it routes 4096/2044/1023/511/… items to levels 0, 1, 2, 3, …: levels
/// 0–2 exceed the hint cap and scan the whole domain on a query, deeper
/// levels scan only their observed items.
pub const SKETCH_SEED: u64 = 11;

/// The served registry: every function on one shared substrate.
pub fn prototype(domain: u64) -> SketchRegistry {
    let config = GSumConfig::with_space_budget(domain, EPSILON, COLUMNS, SKETCH_SEED);
    let mut registry = SketchRegistry::new();
    for g in functions() {
        registry
            .register_dyn(g, &config)
            .expect("distinct functions on one domain register");
    }
    registry
}

/// Absorb `updates` in dispatch-sized batches.
pub fn absorb(registry: &mut SketchRegistry, updates: &[Update]) {
    for batch in updates.chunks(DISPATCH) {
        registry.update_batch(batch);
    }
}

/// One framed ingest stream of the pool.
pub struct Chunk {
    pub updates: Vec<Update>,
    /// The wire bytes the client sends.
    pub bytes: Vec<u8>,
    /// A prototype clone that absorbed exactly this stream.
    pub replica: SketchRegistry,
}

/// A workload's generated inputs.
pub struct Inputs {
    pub domain: u64,
    /// The preloaded stream and its replica (`query`).
    pub preload: Option<(Vec<Update>, SketchRegistry)>,
    /// Streams the clients cycle through (`ingest`).
    pub pool: Vec<Chunk>,
}

impl Inputs {
    /// `preload` updates followed by `pool` streams of [`STREAM_UPDATES`],
    /// all cut from one Zipf turnstile stream so the pool continues the
    /// preload's item distribution.
    pub fn generate(domain: u64, seed: u64, preload: usize, pool: usize) -> Self {
        let total = preload + pool * STREAM_UPDATES;
        let stream = ZipfStreamGenerator::new(
            StreamConfig::turnstile(domain, total, DELETIONS),
            ZIPF_ALPHA,
            gsum_hash::derive_seeds(seed, 1)[0],
        )
        .generate();
        let (head, tail) = stream.updates().split_at(preload);
        let proto = prototype(domain);
        let preload = (preload > 0).then(|| {
            let mut replica = proto.clone();
            absorb(&mut replica, head);
            (head.to_vec(), replica)
        });
        let pool = tail
            .chunks(STREAM_UPDATES)
            .map(|updates| {
                let mut replica = proto.clone();
                absorb(&mut replica, updates);
                Chunk {
                    updates: updates.to_vec(),
                    bytes: encode_updates(domain, updates).expect("in-domain updates encode"),
                    replica,
                }
            })
            .collect();
        Self {
            domain,
            preload,
            pool,
        }
    }

    /// The served state after the preload plus `acks[i]` copies of pool
    /// stream `i`.  Linearity makes any order bit-identical, so the pool
    /// replicas are merged instead of replaying their updates.
    pub fn replica_after(&self, acks: &[u64]) -> SketchRegistry {
        let mut state = match &self.preload {
            Some((_, replica)) => replica.clone(),
            None => prototype(self.domain),
        };
        for (chunk, &n) in self.pool.iter().zip(acks) {
            for _ in 0..n {
                state
                    .merge(&chunk.replica)
                    .expect("clones of one prototype merge");
            }
        }
        state
    }

    /// The exact frequency vector after the preload plus `acks[i]` copies
    /// of pool stream `i`, as `(item, frequency)` pairs.
    pub fn frequencies_after(&self, acks: &[u64]) -> Vec<(u64, i64)> {
        let mut freq = vec![0i64; self.domain as usize];
        let mut add = |updates: &[Update], times: i64| {
            for u in coalesce_updates(updates) {
                freq[u.item as usize] += u.delta * times;
            }
        };
        if let Some((updates, _)) = &self.preload {
            add(updates, 1);
        }
        for (chunk, &n) in self.pool.iter().zip(acks) {
            add(&chunk.updates, n as i64);
        }
        freq.into_iter()
            .enumerate()
            .filter(|&(_, f)| f != 0)
            .map(|(i, f)| (i as u64, f))
            .collect()
    }

    /// Distinct items the state after `acks` has observed, in item order:
    /// the reverse hints record every item an update touched, net zero or
    /// not.
    pub fn observed_items(&self, acks: &[u64]) -> Vec<u64> {
        let mut seen = vec![false; self.domain as usize];
        let mut mark = |updates: &[Update]| {
            for u in updates {
                seen[u.item as usize] = true;
            }
        };
        if let Some((updates, _)) = &self.preload {
            mark(updates);
        }
        for (chunk, &n) in self.pool.iter().zip(acks) {
            if n > 0 {
                mark(&chunk.updates);
            }
        }
        (0..self.domain).filter(|&i| seen[i as usize]).collect()
    }
}

/// `Σ g(|f_i|)` over an exact frequency vector.
pub fn exact_gsum(g: &DynG, frequencies: &[(u64, i64)]) -> f64 {
    frequencies.iter().map(|&(_, f)| g.eval_signed(f)).sum()
}
