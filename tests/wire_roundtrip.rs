//! Property tests for the framed wire format, decoded by the server's
//! [`FrameDecoder`], and batched ingest over it.
//!
//! The wire contract mirrors the checkpoint contract, but for data in
//! motion: encode a stream of updates as length-prefixed frames, push the
//! bytes into a decoder in arbitrarily small pseudo-random slices — the
//! shape readiness events cut a congested socket into — and the decoded
//! update sequence is *identical*.  Decoding stops exactly at the
//! end-of-stream frame, leaving the next command on a persistent connection
//! unconsumed.  A stream cut short anywhere leaves the decoder unfinished,
//! with no error, holding exactly the frames that arrived whole — the
//! prefix `ServePolicy::MergeCompleted` folds.  Corrupt bytes (a wrong
//! magic, version or domain, an oversized length prefix) surface as typed
//! [`WireError`]s, never panics.
//!
//! On top of the codec, the acceptance criteria for the ingest service are
//! proven here:
//!
//! * Batched ingestion of a decoded wire stream, at any batch size, is
//!   **bit-identical** to per-update ingestion of the same updates, for both
//!   hash backends (compared via checkpoint bytes — the strongest equality
//!   the workspace has).
//! * The kill/resume cycle — absorb K decoded updates into a fresh clone,
//!   merge and checkpoint, crash at an arbitrary point, restore from the
//!   checkpoint and replay the non-durable suffix over the wire — reproduces
//!   the uninterrupted sketch state bit-for-bit.

mod common;

use common::{encode_frames, BACKENDS, DOMAIN};
use proptest::prelude::*;
use zerolaw::prelude::*;
use zerolaw::streams::wire::{encode_updates, WIRE_UPDATE_BYTES, WIRE_VERSION};

/// Bytes of the stream header (magic + version + domain) and of a frame
/// header (tag + length prefix).
const STREAM_HEADER_BYTES: usize = 14;
const FRAME_HEADER_BYTES: usize = 5;

/// A command the client sends after its end-of-stream frame.
const TRAILER: &[u8] = b"EST 0\n";

/// Strategy: a batch of turnstile updates as (item, delta) pairs.
fn updates_strategy(domain: u64, max_len: usize) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec((0..domain, -50i64..50), 0..max_len)
        .prop_map(|pairs| pairs.into_iter().map(Update::from).collect())
}

/// What a decoder made of a byte stream that arrived in pseudo-random slices.
struct Decoded {
    decoder: FrameDecoder,
    /// Bytes the decoder consumed.
    consumed: usize,
    /// What each `drain_into` after a slice yielded, empty drains skipped.
    batches: Vec<Vec<Update>>,
}

impl Decoded {
    fn updates(&self) -> Vec<Update> {
        self.batches.concat()
    }

    /// The decoded updates of a stream that must have ended cleanly.
    fn finished_updates(mut self) -> Vec<Update> {
        assert!(
            self.decoder.finished(),
            "clean stream must reach its end frame"
        );
        assert!(self.decoder.take_error().is_none());
        self.updates()
    }
}

/// Deliver `bytes` to a decoder serving `DOMAIN` the way a reactor does:
/// slices of 1..=`max_chunk` bytes (sized by a seeded LCG) append to a
/// receive buffer, and the decoder is fed whatever of it is unconsumed,
/// then drained.
fn decode_sliced(bytes: &[u8], seed: u64, max_chunk: usize) -> Decoded {
    let mut decoder = FrameDecoder::new().with_expected_domain(DOMAIN);
    let (mut state, mut received, mut consumed) = (seed | 1, 0, 0);
    let mut batches = Vec::new();
    while received < bytes.len() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let chunk = 1 + (state >> 33) as usize % max_chunk;
        received = (received + chunk).min(bytes.len());
        consumed += decoder.feed(&bytes[consumed..received]);
        let mut batch = Vec::new();
        if decoder.drain_into(&mut batch) > 0 {
            batches.push(batch);
        }
    }
    Decoded {
        decoder,
        consumed,
        batches,
    }
}

/// Decode a stream that must park an error; returns where decoding stopped
/// and the error.
fn parked_error(bytes: &[u8]) -> (usize, WireError) {
    let mut decoded = decode_sliced(bytes, 0x5EED, 7);
    assert!(!decoded.decoder.finished() && decoded.batches.is_empty());
    let err = decoded.decoder.take_error().expect("a parked error");
    (decoded.consumed, err)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write frames → decode from random slices → identical update
    /// sequence, under random frame sizes; the command that follows the end
    /// frame is left unconsumed under every slicing.
    #[test]
    fn roundtrip_identical_under_chunked_reads(
        updates in updates_strategy(DOMAIN, 300),
        frame_updates in 1usize..64,
        chunk_seed in 0u64..u64::MAX,
        max_chunk in 1usize..40,
    ) {
        let stream = encode_frames(&updates, frame_updates, true);
        let mut wire = stream.clone();
        wire.extend_from_slice(TRAILER);
        let decoded = decode_sliced(&wire, chunk_seed, max_chunk);
        prop_assert_eq!(decoded.consumed, stream.len(), "decoding stops at the end frame");
        prop_assert_eq!(&wire[decoded.consumed..], TRAILER);
        prop_assert_eq!(decoded.finished_updates(), updates);
    }

    /// Truncating the encoded stream anywhere — mid-header, mid-frame,
    /// before the end frame — never panics, never parks an error and never
    /// looks like a clean end: every byte is consumed and exactly the
    /// frames that arrived whole are decoded.
    #[test]
    fn truncation_leaves_an_unfinished_frame_aligned_prefix(
        updates in updates_strategy(DOMAIN, 120),
        frame_updates in 1usize..16,
        cut_fraction in 0u64..10_000,
        chunk_seed in 0u64..u64::MAX,
        max_chunk in 1usize..40,
    ) {
        let stream = encode_frames(&updates, frame_updates, true);
        // Cut strictly before the final byte so the end frame is lost.
        let cut = (cut_fraction as usize * (stream.len() - 1)) / 10_000;
        let mut decoded = decode_sliced(&stream[..cut], chunk_seed, max_chunk);
        prop_assert!(!decoded.decoder.finished(), "cut at {} cannot be a clean end", cut);
        prop_assert!(decoded.decoder.take_error().is_none(), "cut at {} is no decode error", cut);
        prop_assert_eq!(decoded.consumed, cut);

        let (mut frame_end, mut complete) = (STREAM_HEADER_BYTES, 0);
        for frame in updates.chunks(frame_updates) {
            frame_end += FRAME_HEADER_BYTES + frame.len() * WIRE_UPDATE_BYTES;
            if frame_end > cut {
                break;
            }
            complete += frame.len();
        }
        prop_assert_eq!(decoded.updates(), &updates[..complete], "cut at {}", cut);
    }

    /// A batched ingest of a decoded wire stream lands in exactly the state
    /// of per-update ingestion — checkpoint bytes equal, for both hash
    /// backends, across batch sizes and across the batches the slicing
    /// happens to drain.
    #[test]
    fn batched_wire_ingest_is_bit_identical(
        updates in updates_strategy(DOMAIN, 400),
        batch in 1usize..200,
        chunk_seed in 0u64..u64::MAX,
        max_chunk in 1usize..600,
    ) {
        let bytes = encode_updates(DOMAIN, &updates).expect("encode");
        let decoded = decode_sliced(&bytes, chunk_seed, max_chunk);
        let drained = decoded.batches.clone();
        let decoded = decoded.finished_updates();
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 11)
                .with_hash_backend(backend);
            let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);

            let mut single = prototype.clone();
            for &u in &updates {
                single.update(u);
            }
            let expected = single.to_checkpoint_bytes().expect("save single");

            let mut batched = prototype.clone();
            for chunk in decoded.chunks(batch) {
                batched.update_batch(chunk);
            }
            let mut per_drain = prototype.clone();
            for chunk in &drained {
                per_drain.update_batch(chunk);
            }
            prop_assert_eq!(
                batched.to_checkpoint_bytes().expect("save batched"),
                expected.clone(),
                "backend {:?}: batched wire ingest must be bit-identical",
                backend
            );
            prop_assert_eq!(
                per_drain.to_checkpoint_bytes().expect("save per drain"),
                expected,
                "backend {:?}: ingest per drained batch must be bit-identical",
                backend
            );
        }
    }

    /// The checkpointing ingest lifecycle: merge + checkpoint every K updates,
    /// crash at an arbitrary kill point (losing everything since the last
    /// checkpoint), restore, replay the suffix from the durable offset —
    /// bit-for-bit the uninterrupted state.  Both hash backends.
    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_state(
        updates in updates_strategy(DOMAIN, 300),
        checkpoint_every in 1usize..60,
        kill_fraction in 0u64..10_000,
        chunk_seed in 0u64..u64::MAX,
        max_chunk in 1usize..40,
    ) {
        let bytes = encode_updates(DOMAIN, &updates).expect("encode");
        let decoded = decode_sliced(&bytes, chunk_seed, max_chunk).finished_updates();
        prop_assert_eq!(&decoded, &updates);
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 5)
                .with_hash_backend(backend);
            let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            // One slice: the next `checkpoint_every` decoded updates,
            // absorbed by a fresh clone.
            let absorb = |slice: &[Update]| {
                let mut sketch = prototype.clone();
                sketch.update_batch(slice);
                sketch
            };

            let mut uninterrupted = prototype.clone();
            for &u in &updates {
                uninterrupted.update(u);
            }

            // Incarnation 1: serve K-sized slices off the wire, checkpoint
            // after each merge, and crash once the kill point passes —
            // without merging the in-flight slice, like a real SIGKILL.
            let kill_after = (kill_fraction as usize * updates.len()) / 10_000;
            let mut serving = prototype.clone();
            let mut durable = 0usize;
            let mut checkpoint = (serving.to_checkpoint_bytes().expect("save"), durable);
            for slice in decoded.chunks(checkpoint_every) {
                if durable + slice.len() > kill_after {
                    break; // crash: the slice never becomes durable
                }
                serving.merge(&absorb(slice)).expect("merge slice");
                durable += slice.len();
                checkpoint = (serving.to_checkpoint_bytes().expect("save"), durable);
            }

            // Incarnation 2: restore and replay everything after the
            // durable offset.
            let (saved_bytes, saved_count) = checkpoint;
            let mut restored =
                OnePassGSumSketch::from_checkpoint_bytes(&saved_bytes).expect("restore");
            let replay = encode_updates(DOMAIN, &updates[saved_count..]).expect("encode suffix");
            let replayed = decode_sliced(&replay, chunk_seed ^ 1, max_chunk).finished_updates();
            for slice in replayed.chunks(checkpoint_every) {
                restored.merge(&absorb(slice)).expect("merge slice");
            }

            prop_assert_eq!(
                restored.to_checkpoint_bytes().expect("save restored"),
                uninterrupted.to_checkpoint_bytes().expect("save uninterrupted"),
                "backend {:?}: kill at {} / checkpoint every {} must resume bit-exactly",
                backend,
                kill_after,
                checkpoint_every
            );
        }
    }
}

#[test]
fn frame_decoder_feeds_existing_sinks_unchanged() {
    // Drained batches go straight into any sink's `update_batch`: a wire
    // stream needs no adapter code.
    let updates: Vec<Update> = (0..500u64).map(|i| Update::new(i % DOMAIN, 1)).collect();
    let bytes = encode_updates(DOMAIN, &updates).unwrap();
    let decoded = decode_sliced(&bytes, 9, 97);
    assert!(decoded.decoder.finished());

    for backend in BACKENDS {
        let cs_config = CountSketchConfig::new(3, 32).with_backend(backend);
        let mut from_wire = CountSketch::new(cs_config, 9);
        let mut direct = CountSketch::new(cs_config, 9);
        for batch in &decoded.batches {
            from_wire.update_batch(batch);
        }
        for &u in &updates {
            direct.update(u);
        }
        assert_eq!(
            from_wire.to_checkpoint_bytes().unwrap(),
            direct.to_checkpoint_bytes().unwrap(),
            "backend {backend:?}: wire-fed CountSketch must equal direct ingestion"
        );
    }
}

#[test]
fn wrong_magic_version_and_oversized_prefix_are_typed_errors() {
    let good = encode_updates(DOMAIN, &[Update::insert(1), Update::delete(2)]).unwrap();
    let frame_start = STREAM_HEADER_BYTES;
    let payload_start = frame_start + FRAME_HEADER_BYTES;

    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"ZLCK"); // checkpoint magic is not wire magic
    let (consumed, e) = parked_error(&bad_magic);
    assert!(matches!(e, WireError::BadMagic));
    assert_eq!(consumed, STREAM_HEADER_BYTES);

    let mut bad_version = good.clone();
    bad_version[4..6].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
    let (_, e) = parked_error(&bad_version);
    assert!(matches!(
        e,
        WireError::UnsupportedVersion { found } if found == WIRE_VERSION + 1
    ));

    let wrong_domain = encode_updates(2 * DOMAIN, &[Update::insert(1)]).unwrap();
    let (consumed, e) = parked_error(&wrong_domain);
    assert!(matches!(
        e,
        WireError::DomainMismatch { declared, expected } if declared == 2 * DOMAIN && expected == DOMAIN
    ));
    assert_eq!(consumed, STREAM_HEADER_BYTES);

    // Forge a length prefix far beyond the frame bound: rejected before
    // allocation, with the offending length in the error.
    let mut oversized = good.clone();
    oversized[frame_start + 1..payload_start].copy_from_slice(&(u32::MAX - 7).to_le_bytes());
    let (consumed, e) = parked_error(&oversized);
    assert!(matches!(
        e,
        WireError::OversizedFrame { len, .. } if len == u32::MAX - 7
    ));
    assert_eq!(consumed, payload_start, "no payload byte is read");
}
