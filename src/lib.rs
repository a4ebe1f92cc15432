//! # zerolaw — umbrella crate
//!
//! `zerolaw` is a from-scratch Rust reproduction of
//! *"Streaming Space Complexity of Nearly All Functions of One Variable on
//! Frequency Vectors"* (Braverman, Chestnut, Woodruff, Yang — PODS 2016).
//!
//! The workspace is split into focused crates; this umbrella crate re-exports
//! their public APIs so that downstream users (and the examples and
//! integration tests in this repository) can depend on a single crate.
//!
//! * [`hash`] — k-wise independent hashing, sign/bucket hashes, seeded RNG.
//! * [`streams`] — the turnstile stream model, frequency vectors and
//!   workload generators.
//! * [`sketch`] — CountSketch, Count-Min, the AMS F₂ sketch and exact
//!   baselines.
//! * [`gfunc`] — the function class `G`, the slow-jumping / slow-dropping /
//!   predictable analyzers and the zero-one-law classifier.
//! * [`core`] — the g-SUM algorithms (recursive sketch, 1-pass and 2-pass
//!   heavy hitters, the nearly-periodic special case, the DIST counter
//!   algorithm) and the paper's applications.
//! * [`comm`] — communication-problem instances (INDEX, DISJ, DISJ+IND,
//!   ShortLinearCombination) and their stream reductions, used to exercise
//!   the lower-bound side of the zero-one laws.
//! * [`serve`] — the serving layer: a concurrent multi-client TCP server
//!   with merge-on-ingest fan-in, failure policies for partial streams,
//!   durable checkpoint envelopes, and a multi-function estimator registry
//!   answering `EST <function>` for any registered G over one shared
//!   ingest path.
//!
//! ## Quickstart — push-based ingestion
//!
//! Estimators are long-lived [`StreamSink`](prelude::StreamSink) state
//! objects: push updates as they arrive (no materialized stream needed) and
//! query the estimate at any prefix.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! // Approximate Σ g(|v_i|) for g(x) = x^1.5 with a one-pass universal sketch.
//! let g = PowerFunction::new(1.5);
//! let cfg = GSumConfig::with_space_budget(1 << 10, 0.2, 4096, 11);
//! let mut sketch = OnePassGSumSketch::new(g.clone(), &cfg);
//!
//! // A lazy Zipf workload over a universe of 1024 items: updates are pulled
//! // one at a time and pushed straight into the sketch.
//! let mut source = ZipfStreamGenerator::new(StreamConfig::new(1 << 10, 20_000), 1.2, 7);
//! while let Some(update) = source.next_update() {
//!     sketch.update(update);
//! }
//! let est = sketch.estimate();
//!
//! // Ground truth from a materialized copy of the same stream.
//! source.reset();
//! let stream = source.collect_stream();
//! let exact = exact_gsum(&g, &stream.frequency_vector());
//! let rel = (est - exact).abs() / exact.max(1.0);
//! assert!(rel < 0.5, "relative error {rel} too large");
//! ```
//!
//! ### Batched ingestion and hash backends
//!
//! The per-update hot path is tunable on two axes:
//!
//! * **Batching.** [`StreamSink::update_batch`](prelude::StreamSink::update_batch)
//!   is overridden by every linear sketch to *coalesce* duplicate items
//!   in `i64` before touching the counters: a Zipf head item appearing
//!   thousands of times in a batch is hashed once per row instead of
//!   thousands of times, and counters are walked row-major for cache
//!   locality.  CountSketch, Count-Min and AMS counters are wrapping `i64`
//!   (exact mod 2⁶⁴, converted to `f64` only when a query reads them), so
//!   the result is bit-for-bit identical to per-update ingestion for every
//!   input — and per-update ingestion *is* a batch of one, so each sketch
//!   has a single counter-apply loop.  The `batch_equivalence` property
//!   tests check this, with deltas up to `±2⁶³`.  The batch paths are
//!   **allocation-free in steady state**: every sketch owns a reusable
//!   ingestion scratch (coalesce buffers, per-row column indices, routing
//!   depths) that is working memory only — it is excluded from clones,
//!   merges and checkpoints, so checkpoint bytes are identical whichever
//!   ingestion path filled the sketch.
//! * **Batched hash kernels.** Under the batch paths the hash stage itself
//!   is batch-shaped: [`RowHasher`](prelude::RowHasher) exposes
//!   `column_sign_batch` / `column_batch` kernels that take a slice of keys
//!   and fill structure-of-arrays column/sign buffers.  The polynomial
//!   backend hoists the row's coefficients out of the key loop and
//!   accumulates each degree-3 dot product lazily in `u128` with a single
//!   reduction; the tabulation backend walks keys in blocks of 16 so table
//!   lookups pipeline.  Both are bit-identical to the per-key calls they
//!   replace (proptested in `tests/batch_equivalence.rs`), so checkpoint
//!   bytes never depend on which path ran.  These kernels are plain
//!   autovectorizable scalar loops — `RUSTFLAGS="-C target-cpu=native"` is
//!   the build floor for the throughput numbers quoted in `ROADMAP.md`.
//! * **Item-outer AMS sign kernels.** The AMS tug-of-war sketch inside the
//!   one-pass heavy hitter evaluates *hundreds* of sign hashes per item, so
//!   its hot loop is shaped differently: the sign bank
//!   ([`SignBank`](prelude::SignBank)) fills a packed `items × counters`
//!   sign matrix once per coalesced batch — key powers amortize across
//!   counters, coefficient loads amortize across items, and an AVX-512
//!   limb-decomposed lowering is dispatched at runtime where the CPU has it
//!   — and the counters then stream their packed bit rows with fused
//!   whole-block ± accumulation.  Every lowering is bit-identical to
//!   per-item evaluation (proptested in `tests/batch_equivalence.rs`), and
//!   the per-update path is literally the block kernel at length 1.
//! * **Hash backend.** Sketch rows draw their bucket and sign hashes from a
//!   pluggable [`HashBackend`](prelude::HashBackend): `Polynomial` (the
//!   provable default — pairwise/4-wise independent polynomials over
//!   `GF(2^61 − 1)`) or `Tabulation` (Pătraşcu–Thorup simple tabulation —
//!   3-wise independent, multiplication-free, measurably faster).  Both use
//!   division-free multiply-shift bucket reduction.  Select it with
//!   `CountSketchConfig::with_backend` / `CountMinConfig::with_backend`, or
//!   for the whole estimator stack with `GSumConfig::with_hash_backend`;
//!   merges refuse sketches built with different backends.
//! * **Sign family.** The AMS sign source has the analogous knob,
//!   [`SignFamily`](prelude::SignFamily): `Polynomial4` (the default —
//!   4-wise independent, exactly the independence the `Var[Z²] ≤ 2F₂²`
//!   variance bound consumes) or `Tabulation` (3-wise independent and
//!   faster; the mean `E[Z²] = F₂` stays exact but the variance constant
//!   becomes heuristic).  Select it with `GSumConfig::with_sign_family`;
//!   checkpoints carry the family tag and merges refuse mismatched
//!   families.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 256, 3)
//!     .with_hash_backend(HashBackend::Tabulation);
//! let mut sketch = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! let batch: Vec<Update> = (0..1000).map(|i| Update::new(i % 17, 1)).collect();
//! sketch.update_batch(&batch); // 17 distinct items hashed, not 1000
//! assert!(sketch.estimate() > 0.0);
//! ```
//!
//! ### Merging clones
//!
//! Every sketch is linear ([`MergeableSketch`](prelude::MergeableSketch)):
//! clones of one prototype that absorb disjoint pieces of a stream merge
//! into exactly the state of one sketch that absorbed the whole stream, in
//! any merge order.  The law needs no threads; multi-core ingest runs
//! through the serving layer's fold workers (below), which rely on it.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 256, 3);
//! let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! let stream = ZipfStreamGenerator::new(StreamConfig::new(1 << 8, 10_000), 1.2, 5).generate();
//!
//! let mut whole = prototype.clone();
//! stream.source().feed_batched(&mut whole, 1024);
//!
//! // Two clones take disjoint pieces; merging either way round is exact.
//! let (head, tail) = stream.updates().split_at(6_000);
//! let mut left = prototype.clone();
//! left.update_batch(head);
//! let mut right = prototype.clone();
//! right.update_batch(tail);
//! right.merge(&left).expect("clones always merge");
//! assert_eq!(
//!     right.to_checkpoint_bytes().expect("save"),
//!     whole.to_checkpoint_bytes().expect("save")
//! );
//! ```
//!
//! ### Checkpoint lifecycle — stop, snapshot, resume
//!
//! A linear sketch's entire state is *seeds + counters + phase*, so every
//! estimator implements [`Checkpoint`](prelude::Checkpoint): `save` writes a
//! compact, versioned little-endian byte string (hash functions as their
//! seeds, counters verbatim, two-pass phase tags and frozen candidate sets
//! explicitly) and `restore` rehydrates it **bit-for-bit** — saving at an
//! arbitrary stream prefix, restoring, and replaying the suffix lands in
//! exactly the state an uninterrupted run reaches.  Malformed bytes
//! (truncation, wrong version, wrong state kind, unknown hash backend) are
//! [`CheckpointError`](prelude::CheckpointError)s, never panics.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 256, 3);
//! let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//!
//! // Ingest a bounded slice of the stream, then stop and snapshot.
//! let mut source = ZipfStreamGenerator::new(StreamConfig::new(1 << 8, 10_000), 1.2, 5);
//! let mut partial = prototype.clone();
//! for update in source.updates().take(4_000) {
//!     partial.update(update);
//! }
//! let bytes = partial.to_checkpoint_bytes().expect("serialize");
//!
//! // ...later (possibly elsewhere): restore and continue with the rest.
//! let mut resumed =
//!     OnePassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&bytes).expect("restore");
//! source.feed_batched(&mut resumed, 1024);
//!
//! // Bit-identical to an uninterrupted run.
//! source.reset();
//! let mut uninterrupted = prototype.clone();
//! source.feed_batched(&mut uninterrupted, 1024);
//! assert_eq!(
//!     resumed.to_checkpoint_bytes().expect("save"),
//!     uninterrupted.to_checkpoint_bytes().expect("save")
//! );
//! ```
//!
//! ### The two-pass protocol
//!
//! Two-pass estimators are a three-step state machine: pass 1, then one
//! `begin_second_pass()` that freezes each level's candidate set, then
//! pass 2 (a replay of the same stream).  The state saved right after the
//! transition carries the frozen candidate sets and empty tabulations, so
//! those bytes restart pass 2 from scratch — after a crash, or on another
//! machine — and land on the same bits.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 128, 3);
//! let stream = ZipfStreamGenerator::new(StreamConfig::new(1 << 8, 8_000), 1.2, 5).generate();
//! let mut sketch = TwoPassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! stream.source().feed_batched(&mut sketch, 1024); // pass 1
//! sketch.begin_second_pass();
//! let frozen_bytes = sketch.to_checkpoint_bytes().expect("save");
//! stream.source().feed_batched(&mut sketch, 1024); // pass 2
//!
//! // Restart pass 2 from the frozen between-pass bytes.
//! let mut restarted =
//!     TwoPassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&frozen_bytes).expect("restore");
//! assert!(restarted.in_second_pass());
//! stream.source().feed_batched(&mut restarted, 1024);
//! assert_eq!(restarted.estimate().to_bits(), sketch.estimate().to_bits());
//! ```
//!
//! ### Wire ingestion — framed streams into a sketch
//!
//! Updates arriving from the outside world travel as a **framed wire
//! stream** ([`FrameWriter`](prelude::FrameWriter) writes it): a versioned
//! little-endian header, length-prefixed frames of `(item, delta)` batches,
//! and an explicit end-of-stream frame, so truncation is always
//! distinguishable from clean completion and malformed bytes are typed
//! [`WireError`](prelude::WireError)s.  A
//! [`FrameDecoder`](prelude::FrameDecoder) — the decoder the server runs —
//! takes the bytes in whatever slices the socket delivers and resumes
//! mid-frame; its drained batches feed any sink's `update_batch`,
//! bit-identically to per-update ingestion.  `finished()` then separates a
//! clean end-of-stream frame from a stream that just stopped.
//! `examples/ingest_server.rs` serves the same framing over TCP, with a
//! checkpoint every K updates and a bit-exact resume after a kill.
//!
//! ```
//! use zerolaw::prelude::*;
//! use zerolaw::streams::wire::encode_updates;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 128, 3);
//! let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//!
//! // Producer side: frame a batch of updates (any Write works — here a Vec,
//! // in production a socket).
//! let updates: Vec<Update> = (0..4_000).map(|i| Update::new(i % 97, 1)).collect();
//! let bytes = encode_updates(1 << 8, &updates).expect("encode");
//!
//! // Consumer side: feed the bytes as they arrive (here in 512-byte socket
//! // reads), ingest each drained batch, then require the end-of-stream frame.
//! let mut decoder = FrameDecoder::new().with_expected_domain(1 << 8);
//! let mut sketch = prototype.clone();
//! let mut batch = Vec::new();
//! for read in bytes.chunks(512) {
//!     decoder.feed(read);
//!     decoder.drain_into(&mut batch);
//!     sketch.update_batch(&batch);
//!     batch.clear();
//! }
//! assert!(decoder.finished(), "stream decodes cleanly");
//! assert!(decoder.take_error().is_none());
//!
//! // Bit-identical to per-update ingestion.
//! let mut single = prototype.clone();
//! for &u in &updates {
//!     single.update(u);
//! }
//! assert_eq!(sketch.estimate().to_bits(), single.estimate().to_bits());
//! ```
//!
//! ### The serving layer — reactor-multiplexed multi-client merge-on-ingest
//!
//! [`GsumServer`](prelude::GsumServer) is the long-lived process the wire
//! and checkpoint layers feed: a single reactor thread multiplexes
//! every TCP connection over a non-blocking listener, decoding framed
//! streams incrementally ([`FrameDecoder`](prelude::FrameDecoder) resumes
//! mid-frame across readiness events), and a **bounded pool of fold
//! workers** absorbs decoded batches into per-worker shard sketches that a
//! [`MergeCoordinator`](prelude::MergeCoordinator) folds into the serving
//! state on query, checkpoint cadence, or stream completion.  Linearity
//! makes the sharded fan-in exact: any number of concurrent clients, folded
//! in any order, land in a state **bit-identical** to a single-threaded
//! replay of the concatenated streams (`examples/multi_client.rs` proves
//! this over real sockets; `tests/serve_reactor.rs` proptests it under
//! load shedding).  The knobs live on [`ServeConfig`](prelude::ServeConfig):
//! `with_workers` sizes the fold pool, `with_max_connections` caps
//! concurrent connections — excess clients get a typed `BUSY <max>` refusal
//! to retry on, never a silently growing accept queue — and
//! `with_observer` routes serving-loop events
//! ([`ServeEvent`](prelude::ServeEvent): sheds, timeouts, stream failures)
//! into telemetry instead of stderr.  A stream that dies mid-frame is
//! resolved by the configured [`ServePolicy`](prelude::ServePolicy) —
//! discarded whole, or merged up to its decoded prefix — and the serving
//! state snapshots to a
//! [`CheckpointEnvelope`](prelude::CheckpointEnvelope) (state bytes bound to
//! the durable update count, published atomically) every K merged updates.
//! Serving throughput numbers live in `BENCH_serve.json` (see
//! `crates/bench/benches/bench_serve.rs`): connections/sec, concurrent
//! ingest throughput, and p99 `EST`/`COUNT` latency — including, since
//! serve schema v2, per-function `EST <function>` latency rows against a
//! served registry.
//!
//! The coordinator is transport-free, so fan-in does not require sockets —
//! or even one machine: parked checkpoint bytes fold too.
//!
//! ```
//! use zerolaw::prelude::*;
//! use zerolaw::streams::wire::encode_updates;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 128, 3);
//! let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! let coordinator =
//!     MergeCoordinator::new(prototype.clone(), 0, 256, None, None).expect("config");
//!
//! let a: Vec<Update> = (0..900).map(|i| Update::new(i % 97, 1)).collect();
//! let b: Vec<Update> = (0..700).map(|i| Update::new(i % 31, -1)).collect();
//!
//! // Client A: a framed stream (in production: a socket) fed into its own
//! // clone, folded once its end-of-stream frame has arrived.
//! let bytes = encode_updates(1 << 8, &a).expect("encode");
//! let mut decoder = FrameDecoder::new().with_expected_domain(1 << 8);
//! let mut decoded = Vec::new();
//! decoder.feed(&bytes);
//! decoder.drain_into(&mut decoded);
//! assert!(decoder.finished(), "complete stream");
//! let mut client = prototype.clone();
//! client.update_batch(&decoded);
//! coordinator.fold(&client, a.len() as u64).expect("fold");
//!
//! // Client B: ingested on another machine, shipped as checkpoint bytes.
//! let mut remote = prototype.clone();
//! remote.update_batch(&b);
//! let parked = ParkedState::park(&remote, b.len() as u64).expect("park");
//! coordinator.fold_parked(&parked).expect("fold parked");
//!
//! // Bit-identical to one sketch absorbing both streams back to back.
//! let mut single = prototype.clone();
//! for &u in a.iter().chain(&b) {
//!     single.update(u);
//! }
//! assert_eq!(
//!     coordinator.snapshot().expect("snapshot").state_bytes(),
//!     single.to_checkpoint_bytes().expect("save").as_slice()
//! );
//! ```
//!
//! ### Multi-statistic serving — one ingest stream, many estimators
//!
//! The one-pass sketch's ingest path never evaluates its G function: the
//! absorbed state is pure frequency structure, and `g` enters only at
//! query time (per-level covers) and checkpoint time (encoded
//! parameters).  [`SketchRegistry`](prelude::SketchRegistry) exploits
//! that to turn one server into a multi-statistic analytics service:
//! register any number of named G functions
//! ([`DynG`](prelude::DynG)-erased, so the set is chosen at runtime),
//! ingest the stream **once**, and answer every registered function at
//! any prefix.  Estimators registered with an identical
//! [`GSumConfig`](prelude::GSumConfig) (dimensions, backend, *and* seed —
//! the substrate key) share a single CountSketch/heavy-hitter substrate,
//! so ingest cost scales with distinct configurations, never with
//! registered functions.  The registry implements the full
//! [`ServableSketch`](prelude::ServableSketch) contract — a
//! [`GsumServer`](prelude::GsumServer) serves it unchanged, answering
//! `EST` (the default function), `EST <function>` (any registered name;
//! unknown names get a typed `ERR` without closing the connection) and
//! `FUNCS` (the registered names), and checkpoints it as one versioned
//! composite.  Per-function answers and per-function checkpoint bytes
//! are **bit-identical** to a single-function sketch of the same
//! configuration replaying the same stream (`tests/serve_registry.rs`
//! proptests this over real sockets under both hash backends and both
//! failure policies; `examples/multi_client.rs` demonstrates it).
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 128, 3);
//! let mut registry = SketchRegistry::new();
//! registry.register(PowerFunction::new(2.0), &cfg).expect("register");
//! registry.register(CappedLinear::new(100), &cfg).expect("register");
//! registry.register(PolylogFunction::new(2.0), &cfg).expect("register");
//! assert_eq!(registry.substrate_count(), 1); // one shared ingest substrate
//!
//! // Ingest once; every registered function answers at any prefix.
//! let updates: Vec<Update> = (0..2_000).map(|i| Update::new(i % 97, 1)).collect();
//! registry.update_batch(&updates);
//! assert_eq!(registry.function_names()[0], "x^2"); // bare-EST default
//! for name in registry.function_names() {
//!     assert!(registry.estimate_for(&name).is_some());
//! }
//!
//! // Bit-identical to a single-function sketch replaying the same stream.
//! let mut single =
//!     OnePassGSumSketch::with_seed(DynG::new(CappedLinear::new(100)), &cfg, cfg.seed);
//! single.update_batch(&updates);
//! assert_eq!(
//!     registry.estimate_for("min(x, 100)").map(f64::to_bits),
//!     Some(single.estimate().to_bits())
//! );
//! assert_eq!(
//!     registry.checkpoint_for("min(x, 100)").expect("registered").expect("save"),
//!     single.to_checkpoint_bytes().expect("save")
//! );
//! ```

pub use gsum_comm as comm;
pub use gsum_core as core;
pub use gsum_gfunc as gfunc;
pub use gsum_hash as hash;
pub use gsum_serve as serve;
pub use gsum_sketch as sketch;
pub use gsum_streams as streams;

/// A convenience prelude re-exporting the most commonly used types.
pub mod prelude {
    pub use gsum_comm::{
        DisjIndInstance, DisjInstance, DistInstance, IndexInstance, SketchDistinguisher,
    };
    pub use gsum_core::{
        exact_gsum, DistCounter, GSumConfig, GSumEstimator, NearlyPeriodicGSum, OnePassGSum,
        OnePassGSumSketch, RecursiveSketch, TwoPassGSum, TwoPassGSumSketch, DEFAULT_HINT_CAP,
    };
    pub use gsum_gfunc::{
        classify::{OnePassVerdict, TractabilityReport, TwoPassVerdict},
        decode_function,
        library::{
            CappedLinear, GnpFunction, OscillatingQuadratic, PoissonMixtureNll, PolylogFunction,
            PowerFunction, SpamDiscountUtility,
        },
        properties::PropertyConfig,
        registry::FunctionRegistry,
        DynFunction, DynG, FunctionCodec, GFunction,
    };
    pub use gsum_hash::{HashBackend, RowHasher, SignBank, SignFamily, SignHashBank, TabSignBank};
    pub use gsum_serve::{
        protocol, CheckpointEnvelope, Command, FoldOutcome, GsumServer, MergeCoordinator,
        ProtocolError, RegistryError, Response, ServableSketch, ServableSubstrate, ServeConfig,
        ServeConfigError, ServeError, ServeEvent, ServeObserver, ServePolicy, ServeStats,
        ServeSummary, SketchRegistry,
    };
    pub use gsum_sketch::{
        AmsF2Sketch, CountMinConfig, CountMinSketch, CountSketch, CountSketchConfig,
        ExactFrequencies, FrequencySketch,
    };
    pub use gsum_streams::{
        coalesce_updates, Checkpoint, CheckpointError, FrameDecoder, FrameWriter, FrequencyVector,
        IterSource, MergeError, MergeableSketch, ParkedState, PlantedStreamGenerator, StreamConfig,
        StreamGenerator, StreamSink, TurnstileStream, UniformStreamGenerator, Update, UpdateSource,
        WireError, ZipfStreamGenerator,
    };
}
