//! # gsum-streams
//!
//! The data-stream model of the paper (§1.2) and the workload generators used
//! by the experiment suite.
//!
//! A *turnstile stream* of length `m` over the domain `[n]` is a list of
//! updates `(i, δ)` with `i ∈ [n]` and `δ ∈ Z`; the *frequency vector*
//! `V(D) ∈ Z^n` has `v_i = Σ_{j : i_j = i} δ_j`.  The model promises
//! `|v_i| ≤ M` for every prefix.  The paper's algorithms run in the turnstile
//! model; its lower bounds already hold for insertion-only streams (`δ = 1`).
//!
//! This crate provides:
//! * [`Update`] / [`TurnstileStream`] — the stream representation, with
//!   prefix-bound (`M`) tracking and insertion-only detection.
//! * [`StreamSink`] / [`MergeableSketch`] — the push-based ingestion
//!   contract every sketch and estimator state object implements: constant
//!   work per [`StreamSink::update`], queryable at any prefix, and (for
//!   linear sketches) mergeable across shards.
//! * [`UpdateSource`] — the lazy, pull-based dual: workload generators yield
//!   updates one at a time without materializing a `Vec<Update>`.
//! * [`wire`] — the framed wire format for update streams in motion: a
//!   versioned little-endian magic/length-prefixed framing with an explicit
//!   end-of-stream frame.  [`FrameWriter`] produces it; [`FrameDecoder`]
//!   decodes it from whatever byte slices a socket delivers, its drained
//!   batches feed any sink, and malformed bytes are typed [`WireError`]s.
//! * [`checkpoint`] — the versioned snapshot/restore layer: the
//!   [`Checkpoint`] trait, its little-endian binary format, and the
//!   [`CheckpointError`] taxonomy.  A linear sketch's whole state is
//!   seeds + counters + phase, so every estimator in the workspace
//!   serializes to a compact byte string and rehydrates bit-for-bit.
//! * [`FrequencyVector`] — the exact frequency vector with the norms and
//!   order statistics the analyses refer to (`F_2`, tail mass, heavy-hitter
//!   queries).
//! * [`generator`] — workload generators: uniform and Zipf item popularity,
//!   planted heavy-hitter streams, frequency-prescribed streams (used by the
//!   communication reductions), and adversarial collision workloads.
//! * [`multipass`] — a tiny driver that feeds a stream to a `p`-pass
//!   algorithm, pass by pass, so that 2-pass algorithms are exercised through
//!   the same interface as 1-pass ones.

pub mod checkpoint;
pub mod error;
pub mod frequency;
pub mod generator;
pub mod multipass;
pub mod scratch;
pub mod sink;
pub mod source;
pub mod stream;
pub mod update;
pub mod wire;

pub use checkpoint::{Checkpoint, CheckpointError, ParkedState};
pub use error::StreamError;
pub use frequency::FrequencyVector;
pub use generator::{
    AdversarialCollisionGenerator, FrequencyPrescribedGenerator, PlantedStreamGenerator,
    StreamConfig, StreamGenerator, UniformStreamGenerator, ZipfStreamGenerator,
};
pub use multipass::{run_multi_pass, run_one_pass, MultiPassAlgorithm, OnePassAlgorithm};
pub use scratch::IngestScratch;
pub use sink::{
    coalesce_into, coalesce_updates, is_coalesced, MergeError, MergeableSketch, StreamSink,
};
pub use source::{IterSource, StreamSource, UpdateSource};
pub use stream::TurnstileStream;
pub use update::Update;
pub use wire::{FrameDecoder, FrameWriter, WireError};
