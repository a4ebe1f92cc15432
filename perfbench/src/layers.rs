//! Input descriptors and the traced per-layer replay.
//!
//! The traced run replays the workload's inputs through the public entry
//! point of each layer, one span per call, on the same bytes and the same
//! final state the server held:
//!
//! | span                          | public call                                      |
//! |-------------------------------|--------------------------------------------------|
//! | `streams.wire.decode`         | `FrameDecoder::feed` + `drain_into`, 64 KiB reads |
//! | `core.ingest.absorb`          | `SketchRegistry::update_batch`, 1024 per batch    |
//! | `hash.row` / `hash.sign`      | `RowHasher::column_sign_batch` / `SignHashBank::eval_block` over a batch's distinct keys |
//! | `sketch.countsketch` / `sketch.ams` | `CountSketch` / `AmsF2Sketch::update_batch`  |
//! | `serve.coordinator.*`         | `SketchRegistry::clone`, `MergeCoordinator::fold` and `snapshot` |
//! | `serve.envelope.restore`      | `CheckpointEnvelope::load` + `restore_state`      |
//! | `serve.registry.estimate_for` | `SketchRegistry::estimate_for`                    |
//! | `core.query.*`                | `OnePassHeavyHitter::cover_with` per level and `RecursiveSketch::estimate_from_covers` on a bit-equal replica |
//!
//! Spans inside the server (decode → dispatch → fold on the reactor and
//! workers) are not recorded: the server exposes no hook for them.
//!
//! What the spans cost is measured, not assumed: the time one open/close
//! pair takes on a scratch trace, times the spans the replay recorded,
//! over the replay's wall time, is `trace.overhead_frac`.

use crate::inputs::{prototype, Inputs, COLUMNS, DISPATCH, LABELS, SKETCH_SEED};
use crate::stats::{median, median_us};
use crate::trace::Trace;
use gsum_core::heavy_hitters::{GCover, OnePassHeavyHitter};
use gsum_core::{RecursiveSketch, DEFAULT_HINT_CAP};
use gsum_gfunc::DynG;
use gsum_hash::{HashBackend, RowHasher, SignHashBank};
use gsum_serve::{CheckpointEnvelope, MergeCoordinator, SketchRegistry};
use gsum_sketch::{AmsF2Sketch, CountSketch, CountSketchConfig};
use gsum_streams::checkpoint::{self, kind};
use gsum_streams::wire::encode_updates;
use gsum_streams::{coalesce_updates, Checkpoint, FrameDecoder, StreamSink, Update};
use std::borrow::Cow;
use std::path::Path;
use std::time::Instant;

type Levels = RecursiveSketch<OnePassHeavyHitter<DynG>>;

/// Bytes the reactor reads per socket read.
const READ_CHUNK: usize = 64 * 1024;
/// Counters of the AMS sketch inside each heavy-hitter level (64 × 5).
const AMS_COUNTERS: usize = 320;

/// The workload's update streams with their wire bytes: the preload (as a
/// stream, though the server restores it from an envelope) and each pool
/// stream once.
fn streams(inputs: &Inputs) -> Vec<(Cow<'_, [u8]>, &[Update])> {
    let preload = inputs.preload.iter().map(|(updates, _)| {
        let bytes = encode_updates(inputs.domain, updates).expect("in-domain updates encode");
        (Cow::Owned(bytes), updates.as_slice())
    });
    let pool = inputs
        .pool
        .iter()
        .map(|c| (Cow::Borrowed(c.bytes.as_slice()), c.updates.as_slice()));
    preload.chain(pool).collect()
}

/// Input properties recorded with every result.
pub struct Facts {
    pub distinct_items: usize,
    /// Distinct items ÷ updates, per dispatch batch, over the workload's
    /// streams.
    pub distinct_frac: f64,
    pub bytes_per_update: f64,
    /// Observed items routed to each level of the final state.
    pub routed: Vec<usize>,
    /// Levels whose routed items exceed the hint cap: their queries scan
    /// the whole domain.
    pub levels_saturated: usize,
}

pub fn facts(inputs: &Inputs, acks: &[u64], state: &SketchRegistry, names: &[String]) -> Facts {
    let (mut updates, mut distinct, mut bytes) = (0usize, 0usize, 0usize);
    for (wire, stream) in streams(inputs) {
        bytes += wire.len();
        updates += stream.len();
        distinct += stream
            .chunks(DISPATCH)
            .map(|b| coalesce_updates(b).len())
            .sum::<usize>();
    }
    let observed = inputs.observed_items(acks);
    let levels = bit_equal_levels(state, &names[0]);
    let mut routed = vec![0usize; levels.levels()];
    for &item in &observed {
        for r in &mut routed[..=levels.deepest_level(item)] {
            *r += 1;
        }
    }
    Facts {
        distinct_items: observed.len(),
        distinct_frac: distinct as f64 / updates as f64,
        bytes_per_update: bytes as f64 / updates as f64,
        levels_saturated: routed.iter().filter(|&&r| r > DEFAULT_HINT_CAP).count(),
        routed,
    }
}

/// The served substrate as a bare recursive sketch, restored from the
/// registry's per-function checkpoint: bit-equal state whose levels can be
/// queried one by one.
fn bit_equal_levels(state: &SketchRegistry, name: &str) -> Levels {
    let bytes = state
        .checkpoint_for(name)
        .expect("registered function")
        .expect("registry state serializes");
    let mut r = bytes.as_slice();
    checkpoint::read_header(&mut r, kind::ONE_PASS_GSUM).expect("one-pass checkpoint header");
    Levels::restore(&mut r).expect("one-pass checkpoint restores")
}

/// Per-layer figures of the replay.
pub struct LayerFigures {
    pub rows: Vec<(String, f64, &'static str)>,
    /// Median `estimate_for` time over every function, µs.
    pub registry_us: f64,
    /// Median of `estimate_for` minus its replica's cover and assemble
    /// spans, µs.
    pub registry_self_us: f64,
}

/// Replay the workload through every layer under spans.  `state` is the
/// server's final state (bit-equal replica), `dir` a scratch directory.
pub fn replay(
    trace: &mut Trace,
    inputs: &Inputs,
    state: &SketchRegistry,
    names: &[String],
    facts: &Facts,
    dir: &Path,
) -> LayerFigures {
    let mut rows = Vec::new();
    let mut row =
        |name: &str, value: f64, unit: &'static str| rows.push((name.to_string(), value, unit));
    let seed = SKETCH_SEED;
    let proto = prototype(inputs.domain);
    let (started, spans_before) = (Instant::now(), trace.spans.len());

    // Ingest layers, batch by batch.
    let mut registry = proto.clone();
    let row_hasher = RowHasher::new(HashBackend::default(), COLUMNS as u64, seed);
    let bank = SignHashBank::from_seeds(&gsum_hash::derive_seeds(seed, AMS_COUNTERS));
    let mut countsketch = CountSketch::new(CountSketchConfig::new(5, COLUMNS), seed);
    let mut ams = AmsF2Sketch::new(64, 5, seed).expect("valid AMS shape");
    let (mut updates, mut keys_total) = (0usize, 0usize);
    let (mut cols, mut signs, mut sign_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (req, (wire, stream)) in streams(inputs).into_iter().enumerate() {
        let req = req as u64;
        let decoded = trace.time("streams.wire.decode", None, req, || {
            let mut decoder = FrameDecoder::new().with_expected_domain(inputs.domain);
            let mut out = Vec::with_capacity(stream.len());
            for chunk in wire.chunks(READ_CHUNK) {
                decoder.feed(chunk);
                decoder.drain_into(&mut out);
            }
            out
        });
        assert_eq!(decoded, stream, "the wire round-trips the stream");
        updates += stream.len();
        for batch in stream.chunks(DISPATCH) {
            trace.time("core.ingest.absorb", None, req, || {
                registry.update_batch(batch)
            });
            let keys: Vec<u64> = coalesce_updates(batch).iter().map(|u| u.item).collect();
            keys_total += keys.len();
            trace.time("hash.row", None, req, || {
                row_hasher.column_sign_batch(&keys, &mut cols, &mut signs)
            });
            let powers: Vec<_> = keys.iter().map(|&k| SignHashBank::key_powers(k)).collect();
            let x1: Vec<u64> = powers.iter().map(|p| p.0).collect();
            let x2: Vec<u64> = powers.iter().map(|p| p.1).collect();
            let x3: Vec<u64> = powers.iter().map(|p| p.2).collect();
            trace.time("hash.sign", None, req, || {
                bank.eval_block(&x1, &x2, &x3, &mut sign_bytes)
            });
            trace.time("sketch.countsketch", None, req, || {
                countsketch.update_batch(batch)
            });
            trace.time("sketch.ams", None, req, || ams.update_batch(batch));
        }
    }
    let per = |name: &str, n: usize| total_ns(trace, name) / n as f64;
    row(
        "streams.wire.decode_ns_per_update",
        per("streams.wire.decode", updates),
        "ns",
    );
    row("streams.wire.bytes_per_update", facts.bytes_per_update, "B");
    row(
        "core.ingest.absorb_ns_per_update",
        per("core.ingest.absorb", updates),
        "ns",
    );
    row("core.ingest.distinct_frac", facts.distinct_frac, "ratio");
    row("hash.row_ns_per_key", per("hash.row", keys_total), "ns");
    row("hash.sign_ns_per_key", per("hash.sign", keys_total), "ns");
    row(
        "sketch.countsketch_ns_per_update",
        per("sketch.countsketch", updates),
        "ns",
    );
    row("sketch.ams_ns_per_update", per("sketch.ams", updates), "ns");

    // Coordinator: fresh clones, folds of one accumulator each, snapshots
    // and restores of the final state.
    for i in 0..21 {
        let fresh = trace.time("serve.coordinator.fresh_clone", None, i, || proto.clone());
        std::hint::black_box(fresh);
    }
    let folds = MergeCoordinator::new(proto.clone(), 0, usize::MAX, None, None)
        .expect("coordinator builds");
    let accumulators: Vec<(&SketchRegistry, u64)> = if inputs.pool.is_empty() {
        let (updates, replica) = inputs.preload.as_ref().expect("a workload has inputs");
        vec![(replica, updates.len() as u64); 5]
    } else {
        inputs
            .pool
            .iter()
            .map(|c| (&c.replica, c.updates.len() as u64))
            .collect()
    };
    for (i, (acc, n)) in accumulators.into_iter().enumerate() {
        trace.time("serve.coordinator.fold", None, i as u64, || {
            folds.fold(acc, n).expect("fold succeeds")
        });
    }
    let path = dir.join("replay.ckpt");
    let snapshots = MergeCoordinator::new(state.clone(), 0, usize::MAX, Some(path.clone()), None)
        .expect("coordinator builds");
    for i in 0..5 {
        trace.time("serve.coordinator.snapshot", None, i, || {
            snapshots.snapshot().expect("snapshot publishes")
        });
        let restored = trace.time("serve.envelope.restore", None, i, || {
            CheckpointEnvelope::load(&path)
                .expect("envelope loads")
                .expect("envelope exists")
                .restore_state::<SketchRegistry>()
                .expect("envelope restores")
        });
        std::hint::black_box(restored);
    }
    row(
        "serve.coordinator.fold_us",
        median_us(&trace.durations_ns("serve.coordinator.fold")),
        "us",
    );
    row(
        "serve.coordinator.fresh_clone_us",
        median_us(&trace.durations_ns("serve.coordinator.fresh_clone")),
        "us",
    );
    row(
        "serve.coordinator.snapshot_ms",
        median_us(&trace.durations_ns("serve.coordinator.snapshot")) / 1e3,
        "ms",
    );
    row(
        "serve.envelope.restore_ms",
        median_us(&trace.durations_ns("serve.envelope.restore")) / 1e3,
        "ms",
    );

    // Query path: the registry call, then the same estimate level by level
    // on the bit-equal replica.
    let levels = bit_equal_levels(state, &names[0]);
    let functions = crate::inputs::functions();
    let saturated: Vec<bool> = facts.routed.iter().map(|&r| r > DEFAULT_HINT_CAP).collect();
    let reps = if inputs.domain > 1 << 12 { 3 } else { 9 };
    let (mut cover_sat, mut cover_unsat, mut assemble, mut registry_self) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut per_function = vec![Vec::new(); functions.len()];
    // Functions interleave within each repetition, so warm-up and drift
    // fall on all of them alike.
    for _ in 0..reps {
        for (f, g) in functions.iter().enumerate() {
            let id = trace.open("serve.registry.estimate_for", None, f as u64);
            let served = state.estimate_for(&names[f]).expect("registered function");
            trace.close(id);
            let registry_ns = trace.spans[id].duration_ns() as f64;

            let parent = trace.open("core.query.estimate", None, f as u64);
            let (mut sat_ns, mut unsat_ns) = (0.0, 0.0);
            let covers: Vec<GCover> = levels
                .level_sketches()
                .iter()
                .zip(&saturated)
                .map(|(level, &sat)| {
                    let name = if sat {
                        "core.query.cover_saturated"
                    } else {
                        "core.query.cover_unsaturated"
                    };
                    let id = trace.open(name, Some(parent), f as u64);
                    let cover = level.cover_with(g, inputs.domain);
                    trace.close(id);
                    let ns = trace.spans[id].duration_ns() as f64;
                    if sat {
                        sat_ns += ns;
                    } else {
                        unsat_ns += ns;
                    }
                    cover
                })
                .collect();
            let id = trace.open("core.query.assemble", Some(parent), f as u64);
            let estimate = levels.estimate_from_covers(&covers).max(0.0);
            trace.close(id);
            trace.close(parent);
            let assemble_ns = trace.spans[id].duration_ns() as f64;
            assert_eq!(
                estimate.to_bits(),
                served.to_bits(),
                "the level-by-level replica answers {} bit-exactly",
                names[f]
            );
            cover_sat.push(sat_ns / 1e3);
            cover_unsat.push(unsat_ns / 1e3);
            assemble.push(assemble_ns / 1e3);
            registry_self.push((registry_ns - sat_ns - unsat_ns - assemble_ns) / 1e3);
            per_function[f].push(registry_ns / 1e3);
        }
    }
    for (label, samples) in LABELS.iter().zip(&per_function) {
        row(
            &format!("serve.registry.estimate_us.{label}"),
            median(samples),
            "us",
        );
    }
    row("core.query.cover_saturated_us", median(&cover_sat), "us");
    row(
        "core.query.cover_unsaturated_us",
        median(&cover_unsat),
        "us",
    );
    row(
        "core.query.levels_saturated",
        facts.levels_saturated as f64,
        "count",
    );
    row("core.query.assemble_us", median(&assemble), "us");
    let spans = trace.spans.len() - spans_before;
    let wall_ns = started.elapsed().as_nanos() as f64;
    row(
        "trace.overhead_frac",
        spans as f64 * span_cost_ns() / wall_ns,
        "ratio",
    );
    LayerFigures {
        rows,
        registry_us: median(&per_function.concat()),
        registry_self_us: median(&registry_self),
    }
}

/// What recording one span costs: the median over batches of open/close
/// pairs on a scratch trace, in ns per span.
fn span_cost_ns() -> f64 {
    const PAIRS: usize = 10_000;
    let mut scratch = Trace::new(Instant::now());
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            scratch.spans.clear();
            let start = Instant::now();
            for i in 0..PAIRS {
                let id = scratch.open("trace.calibrate", None, i as u64);
                scratch.close(id);
            }
            start.elapsed().as_nanos() as f64 / PAIRS as f64
        })
        .collect();
    median(&batches)
}

fn total_ns(trace: &Trace, name: &str) -> f64 {
    trace.durations_ns(name).iter().sum::<u64>() as f64
}
