//! Sharded parallel ingestion.
//!
//! Linear sketches make parallel ingestion trivial: clone one prototype
//! sketch per worker (identical hash seeds), split the update stream across
//! the workers, and [`merge`](crate::MergeableSketch::merge) the per-worker
//! states at the end.  Because every sketch in this workspace is a linear
//! function of the frequency vector — and its counters are wrapping `i64`,
//! exact mod 2⁶⁴ — the merged result is *identical* to single-threaded
//! ingestion of the same updates, in any order.
//!
//! This is the ingestion topology a production deployment uses: N ingest
//! workers behind a load balancer, each absorbing a shard of the traffic,
//! with a periodic merge producing the queryable global sketch.
//!
//! Long-running ingestions are also *checkpointable*: [`ShardedIngest::ingest_limited`]
//! stops after a bounded number of updates so the merged state can be
//! [saved](crate::Checkpoint::save) to bytes, and [`ShardedIngest::resume`]
//! rehydrates that state and continues with the rest of the source — the
//! final state is bit-identical to an uninterrupted run.
//!
//! Configuration is validated, not asserted: zero shards, a zero batch size
//! and a zero channel depth are rejected with a typed [`IngestConfigError`]
//! by the `try_*` constructors (the infallible builders panic with the same
//! messages).

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::sink::{MergeError, MergeableSketch, StreamSink};
use crate::source::{TakeSource, UpdateSource};
use crate::update::Update;
use std::fmt;
use std::sync::mpsc;

/// A rejected [`ShardedIngest`] configuration value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestConfigError {
    /// `shards == 0`: there must be at least one state absorbing updates.
    NoWorkers,
    /// `batch == 0`: an empty handoff batch can never drain a source.
    ZeroBatch,
    /// `depth == 0`: a `sync_channel` of depth zero would rendezvous every
    /// handoff, serializing the producer with the workers it feeds.
    ZeroDepth,
}

impl fmt::Display for IngestConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestConfigError::NoWorkers => write!(f, "need at least one shard worker"),
            IngestConfigError::ZeroBatch => write!(f, "batch size must be positive"),
            IngestConfigError::ZeroDepth => write!(f, "channel depth must be positive"),
        }
    }
}

impl std::error::Error for IngestConfigError {}

/// Validate a shard count.
fn validate_workers(workers: usize) -> Result<usize, IngestConfigError> {
    if workers == 0 {
        return Err(IngestConfigError::NoWorkers);
    }
    Ok(workers)
}

/// Validate a handoff batch size.
fn validate_batch(batch: usize) -> Result<usize, IngestConfigError> {
    if batch == 0 {
        return Err(IngestConfigError::ZeroBatch);
    }
    Ok(batch)
}

/// Validate a bounded-channel depth.
fn validate_depth(depth: usize) -> Result<usize, IngestConfigError> {
    if depth == 0 {
        return Err(IngestConfigError::ZeroDepth);
    }
    Ok(depth)
}

/// Configuration for sharded ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedIngest {
    shards: usize,
    batch: usize,
    depth: usize,
}

impl ShardedIngest {
    /// Ingest with `shards` worker threads.
    ///
    /// # Panics
    /// Panics if `shards == 0`; use [`try_new`](Self::try_new) for a
    /// fallible constructor.
    pub fn new(shards: usize) -> Self {
        Self::try_new(shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects `shards == 0` with a typed error.
    pub fn try_new(shards: usize) -> Result<Self, IngestConfigError> {
        Ok(Self {
            shards: validate_workers(shards)?,
            batch: 1024,
            depth: 4,
        })
    }

    /// Override the number of updates per message handed to a worker
    /// (larger batches amortize channel overhead).
    ///
    /// # Panics
    /// Panics if `batch == 0`; use
    /// [`try_with_batch_size`](Self::try_with_batch_size) for a fallible
    /// builder.
    pub fn with_batch_size(self, batch: usize) -> Self {
        self.try_with_batch_size(batch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `batch == 0`.
    pub fn try_with_batch_size(mut self, batch: usize) -> Result<Self, IngestConfigError> {
        self.batch = validate_batch(batch)?;
        Ok(self)
    }

    /// Override the bounded per-worker channel depth (the backpressure knob:
    /// at most `shards · depth · batch` updates are in flight before the
    /// producer blocks).
    ///
    /// # Panics
    /// Panics if `depth == 0`; use
    /// [`try_with_channel_depth`](Self::try_with_channel_depth) for a
    /// fallible builder.
    pub fn with_channel_depth(self, depth: usize) -> Self {
        self.try_with_channel_depth(depth)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `depth == 0`.
    pub fn try_with_channel_depth(mut self, depth: usize) -> Result<Self, IngestConfigError> {
        self.depth = validate_depth(depth)?;
        Ok(self)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Bounded per-worker channel depth.
    pub fn channel_depth(&self) -> usize {
        self.depth
    }

    /// Split `source` across the shards round-robin (in batches), feed each
    /// shard's updates into a clone of `prototype` on its own thread, and
    /// merge the shard sketches back into one.
    ///
    /// The clones share the prototype's hash seeds, so the merge is exact:
    /// the result answers every query identically to a single sketch that
    /// absorbed the whole stream.
    pub fn ingest<Src, S>(&self, source: &mut Src, prototype: &S) -> Result<S, MergeError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Clone + Send,
    {
        let states = vec![prototype.clone(); self.shards];
        self.ingest_states(source, states)
    }

    /// Like [`ingest`](Self::ingest), but stop pulling from the source after
    /// at most `limit` updates.  Returns the merged sketch and the number of
    /// updates actually consumed (less than `limit` when the source ran dry).
    ///
    /// This is the "stop" half of checkpointed ingestion: serialize the
    /// returned sketch with [`Checkpoint::save`], park the bytes, and later
    /// continue from them with [`resume`](Self::resume).
    pub fn ingest_limited<Src, S>(
        &self,
        source: &mut Src,
        prototype: &S,
        limit: usize,
    ) -> Result<(S, usize), MergeError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Clone + Send,
    {
        let mut take = TakeSource::new(source, limit);
        let merged = self.ingest(&mut take, prototype)?;
        let consumed = limit - take.left();
        Ok((merged, consumed))
    }

    /// Continue a checkpointed ingestion: restore the saved state from `r`,
    /// shard-ingest the (remaining) `source` into clones of `prototype`, and
    /// fold the new mass into the restored state.
    ///
    /// `prototype` must be a *fresh* sketch built with the same configuration
    /// and seed as the one the checkpoint was taken from (the merge refuses
    /// anything else); a prototype that has already absorbed updates would
    /// double-count them.  For a two-pass sketch resumed mid-second-pass, the
    /// prototype must be a just-transitioned state with empty tabulations —
    /// phase-aware merging then folds only the new exact counts.
    ///
    /// The result is bit-identical to a single sketch that absorbed the whole
    /// stream without interruption.
    pub fn resume<Src, S>(
        &self,
        source: &mut Src,
        prototype: &S,
        r: &mut impl std::io::Read,
    ) -> Result<S, CheckpointError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Checkpoint + Clone + Send,
    {
        let mut restored = S::restore(r)?;
        let delta = self.ingest(source, prototype)?;
        restored.merge(&delta)?;
        Ok(restored)
    }

    /// Shard-ingest `source` into explicitly provided worker states (one per
    /// shard), then merge them left to right.  This is the primitive behind
    /// [`ingest`](Self::ingest) (clones of a prototype) and the two-pass
    /// coordinator's phase-2 fan-out (states rehydrated from checkpoint
    /// bytes).
    ///
    /// # Panics
    /// Panics if `states.len() != self.shards()`.
    pub fn ingest_states<Src, S>(&self, source: &mut Src, states: Vec<S>) -> Result<S, MergeError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Send,
    {
        assert_eq!(states.len(), self.shards, "one worker state per shard");
        if self.shards == 1 {
            let mut sketch = states.into_iter().next().expect("one state");
            source.feed_batched(&mut sketch, self.batch);
            return Ok(sketch);
        }

        let shard_results = std::thread::scope(|scope| {
            let mut senders: Vec<mpsc::SyncSender<Vec<Update>>> = Vec::with_capacity(self.shards);
            let mut handles = Vec::with_capacity(self.shards);
            for mut sketch in states {
                // A bounded queue keeps memory flat when the producer
                // outpaces the workers; its depth is the backpressure knob.
                let (tx, rx) = mpsc::sync_channel::<Vec<Update>>(self.depth);
                senders.push(tx);
                handles.push(scope.spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        sketch.update_batch(&batch);
                    }
                    sketch
                }));
            }

            // Round-robin batches over the shards.
            let mut shard = 0usize;
            let mut buf: Vec<Update> = Vec::with_capacity(self.batch);
            loop {
                buf.clear();
                while buf.len() < self.batch {
                    match source.next_update() {
                        Some(u) => buf.push(u),
                        None => break,
                    }
                }
                if buf.is_empty() {
                    break;
                }
                senders[shard]
                    .send(std::mem::replace(&mut buf, Vec::with_capacity(self.batch)))
                    .expect("worker alive while its sender is held");
                shard = (shard + 1) % self.shards;
            }
            drop(senders);

            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect::<Vec<S>>()
        });

        let mut iter = shard_results.into_iter();
        let mut merged = iter.next().expect("at least one shard");
        for other in iter {
            merged.merge(&other)?;
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        kind, read_header, read_i64, read_u64, write_header, write_i64, write_u64, Checkpoint,
        CheckpointError,
    };
    use crate::frequency::FrequencyVector;
    use crate::generator::{StreamConfig, StreamGenerator, UniformStreamGenerator};
    use crate::stream::TurnstileStream;

    /// A frequency vector is itself a (trivially mergeable) linear sketch.
    #[derive(Debug, Clone)]
    struct ExactSink {
        fv: FrequencyVector,
    }

    impl StreamSink for ExactSink {
        fn update(&mut self, u: Update) {
            self.fv.apply(u.item, u.delta);
        }
    }

    impl MergeableSketch for ExactSink {
        fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
            if self.fv.domain() != other.fv.domain() {
                return Err(MergeError::new("domain mismatch"));
            }
            for (item, v) in other.fv.iter() {
                self.fv.apply(item, v);
            }
            Ok(())
        }
    }

    impl Checkpoint for ExactSink {
        fn save(&self, w: &mut impl std::io::Write) -> Result<(), CheckpointError> {
            write_header(w, kind::EXACT_FREQUENCIES)?;
            write_u64(w, self.fv.domain())?;
            let entries = self.fv.sorted_entries();
            write_u64(w, entries.len() as u64)?;
            for (item, v) in entries {
                write_u64(w, item)?;
                write_i64(w, v)?;
            }
            Ok(())
        }

        fn restore(r: &mut impl std::io::Read) -> Result<Self, CheckpointError> {
            read_header(r, kind::EXACT_FREQUENCIES)?;
            let domain = read_u64(r)?;
            let mut fv = FrequencyVector::new(domain);
            let n = read_u64(r)?;
            for _ in 0..n {
                let item = read_u64(r)?;
                let v = read_i64(r)?;
                fv.apply(item, v);
            }
            Ok(ExactSink { fv })
        }
    }

    fn exact(domain: u64) -> ExactSink {
        ExactSink {
            fv: FrequencyVector::new(domain),
        }
    }

    #[test]
    fn sharded_equals_single_threaded() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(128, 20_000, 0.2), 7);
        let reference = gen.generate();

        for shards in [1usize, 2, 4, 8] {
            gen.reset();
            let merged = ShardedIngest::new(shards)
                .with_batch_size(256)
                .ingest(&mut gen, &exact(128))
                .unwrap();
            assert_eq!(
                merged.fv,
                reference.frequency_vector(),
                "sharded ({shards}) ingestion must agree with the exact frequency vector"
            );
        }
    }

    #[test]
    fn merge_failure_propagates() {
        // Two-shard ingest of a source whose updates are fine, but the
        // prototype is rigged to fail merges via a domain mismatch is not
        // constructible here (clones agree); instead check the error path
        // directly.
        let mut a = exact(8);
        let b = exact(9);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn single_shard_short_circuits() {
        let mut s = TurnstileStream::new(16);
        s.push_delta(3, 5);
        let merged = ShardedIngest::new(1)
            .ingest(&mut s.source(), &exact(16))
            .unwrap();
        assert_eq!(merged.fv.get(3), 5);
    }

    #[test]
    fn ingest_limited_consumes_exactly_the_limit_and_resume_finishes() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(64, 5_000, 0.2), 11);
        let reference = gen.generate();

        for shards in [1usize, 3] {
            for limit in [0usize, 1, 1_000, 4_999, 5_000, 9_999] {
                gen.reset();
                let ingest = ShardedIngest::new(shards).with_batch_size(64);
                let (partial, consumed) =
                    ingest.ingest_limited(&mut gen, &exact(64), limit).unwrap();
                assert_eq!(consumed, limit.min(5_000));

                // Stop: serialize the partial state; continue from bytes.
                let bytes = partial.to_checkpoint_bytes().unwrap();
                let resumed = ingest
                    .resume(&mut gen, &exact(64), &mut bytes.as_slice())
                    .unwrap();
                assert_eq!(
                    resumed.fv,
                    reference.frequency_vector(),
                    "resume after {consumed}/{} updates ({shards} shards) must match",
                    reference.len()
                );
            }
        }
    }

    #[test]
    fn resume_propagates_restore_errors() {
        let mut s = TurnstileStream::new(16);
        s.push_delta(3, 5);
        let err =
            ShardedIngest::new(2).resume(&mut s.source(), &exact(16), &mut [0u8; 3].as_slice());
        assert!(err.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedIngest::new(0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let _ = ShardedIngest::new(1).with_batch_size(0);
    }

    #[test]
    #[should_panic(expected = "channel depth must be positive")]
    fn zero_depth_panics() {
        let _ = ShardedIngest::new(1).with_channel_depth(0);
    }

    #[test]
    fn try_constructors_reject_zeros_with_typed_errors() {
        assert_eq!(ShardedIngest::try_new(0), Err(IngestConfigError::NoWorkers));
        assert_eq!(
            ShardedIngest::try_new(2).unwrap().try_with_batch_size(0),
            Err(IngestConfigError::ZeroBatch)
        );
        assert_eq!(
            ShardedIngest::try_new(2).unwrap().try_with_channel_depth(0),
            Err(IngestConfigError::ZeroDepth)
        );
        let ok = ShardedIngest::try_new(2)
            .unwrap()
            .try_with_batch_size(512)
            .unwrap()
            .try_with_channel_depth(8)
            .unwrap();
        assert_eq!((ok.shards(), ok.channel_depth()), (2, 8));
    }

    #[test]
    fn config_error_display_is_informative() {
        assert!(IngestConfigError::NoWorkers
            .to_string()
            .contains("at least one"));
        assert!(IngestConfigError::ZeroBatch.to_string().contains("batch"));
        assert!(IngestConfigError::ZeroDepth.to_string().contains("depth"));
    }

    #[test]
    fn channel_depth_does_not_change_the_result() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(64, 4_000, 0.2), 3);
        let reference = gen.generate();
        for depth in [1usize, 2, 16] {
            gen.reset();
            let merged = ShardedIngest::new(3)
                .with_batch_size(128)
                .with_channel_depth(depth)
                .ingest(&mut gen, &exact(64))
                .unwrap();
            assert_eq!(merged.fv, reference.frequency_vector(), "depth {depth}");
        }
    }

    #[test]
    #[should_panic(expected = "one worker state per shard")]
    fn ingest_states_requires_one_state_per_shard() {
        let s = TurnstileStream::new(16);
        let _ = ShardedIngest::new(2).ingest_states(&mut s.source(), vec![exact(16)]);
    }
}
