//! The correctness gate: the server's answers against a single-threaded
//! replica holding the preload plus every acknowledged stream.
//!
//! No workload interleaves streams with queries — `ingest` sends only
//! streams in its timed window, `query` only queries — so every query
//! sees that final state:
//!
//! * every `EST` reply, in the window or among the final replies taken
//!   after it, must carry exactly the bits `estimate_for` gives on the
//!   replica, and every `COUNT` must equal its update count;
//! * the envelope the server publishes on shutdown must restore to the
//!   replica's checkpoint bytes, with its update count.
//!
//! Any mismatch fails the run; a failed run reports no metrics.

use crate::drive::{Op, OpKind};
use crate::inputs::{Inputs, STREAM_UPDATES};
use gsum_serve::{CheckpointEnvelope, Response, SketchRegistry};
use gsum_streams::Checkpoint;
use std::collections::BTreeMap;
use std::path::Path;

pub struct Verdict {
    pub failures: Vec<String>,
    /// Replies compared against the replica.
    pub verified: usize,
}

/// Check the window's operations (`ops`, from every connection), the
/// final replies (`finals`) and the envelope at `envelope`.  `acks[i]`
/// counts the acknowledged copies of pool stream `i`; `state` is the
/// replica holding all of them.
pub fn check(
    inputs: &Inputs,
    names: &[String],
    ops: &[Op],
    finals: &[Op],
    acks: &[u64],
    state: &SketchRegistry,
    envelope: &Path,
) -> Verdict {
    let mut failures = Vec::new();
    let is_stream = |op: &&Op| matches!(op.kind, OpKind::Stream(_));
    if ops.iter().any(|op| is_stream(&op)) && !ops.iter().all(|op| is_stream(&op)) {
        failures.push("the window interleaves streams with queries: no single state to check".into());
    }
    let preload = inputs.preload.as_ref().map_or(0, |(u, _)| u.len() as u64);
    let total = preload + acks.iter().sum::<u64>() * STREAM_UPDATES as u64;
    let mut expected = BTreeMap::new();
    let mut verified = 0;
    // A refused or dropped query is counted as failed, not as a wrong answer.
    let window = ops.iter().filter(|op| !is_stream(op) && op.ok());
    for (i, op) in window.chain(finals).enumerate() {
        verified += 1;
        if let Some(why) = mismatch(op, state, names, total, &mut expected) {
            failures.push(format!("reply {i} at {:.3}s: {why}", op.sent));
        }
    }

    match CheckpointEnvelope::load(envelope) {
        Ok(Some(env)) => {
            if env.durable_count() != total {
                failures.push(format!(
                    "envelope durable count {} != {total} acknowledged updates",
                    env.durable_count()
                ));
            }
            let restored = env
                .restore_state::<SketchRegistry>()
                .map_err(|e| e.to_string())
                .and_then(|s| checkpoint_bytes(&s));
            if restored != checkpoint_bytes(state) {
                failures.push("envelope does not restore to the replica's checkpoint bytes".into());
            }
        }
        Ok(None) => failures.push("server published no envelope".into()),
        Err(e) => failures.push(format!("envelope unreadable: {e}")),
    }

    Verdict { failures, verified }
}

fn checkpoint_bytes(state: &SketchRegistry) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    state.save(&mut bytes).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// Why a query's reply differs from `replica`, if it does.  `expected`
/// caches the replica's estimate bits per function.
fn mismatch(
    op: &Op,
    replica: &SketchRegistry,
    names: &[String],
    count: u64,
    expected: &mut BTreeMap<usize, u64>,
) -> Option<String> {
    match (op.kind, &op.reply) {
        (OpKind::Est(f), Some(Response::Est { bits })) => {
            let f = f.unwrap_or(0);
            let want = *expected.entry(f).or_insert_with(|| {
                replica
                    .estimate_for(&names[f])
                    .expect("registered function")
                    .to_bits()
            });
            (*bits != want).then(|| {
                format!(
                    "EST {} = {} but the replica gives {}",
                    names[f],
                    f64::from_bits(*bits),
                    f64::from_bits(want)
                )
            })
        }
        (OpKind::Count, Some(Response::Count(n))) => {
            (*n != count).then(|| format!("COUNT = {n} but {count} updates were acknowledged"))
        }
        (kind, reply) => Some(format!("{kind:?} answered {reply:?}")),
    }
}
