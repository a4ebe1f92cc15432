//! Property tests for the versioned snapshot/restore layer.
//!
//! The checkpoint contract is *bit-exactness*: for every estimator state
//! object, `save` at an arbitrary stream prefix + `restore` + replay of the
//! suffix must yield the identical estimate (and identical counters) to the
//! uninterrupted run.  These tests drive every `StreamSink` in the workspace
//! through that interruption, under both hash backends and — for the
//! two-pass states — in both phases.  Corruption tests check that truncated
//! bytes, a wrong format version, a wrong state kind and a mangled
//! hash-backend tag surface as errors instead of panics.
//!
//! The split two-pass protocol is also proven here: pass-1 clones merged,
//! one transition on the merged state, pass-2 workers restored from the
//! frozen state's checkpoint bytes, each pass split at random and merged in
//! shuffled order — bit-identical to the single-stream two-pass run on
//! Zipf and adversarial workloads under both hash backends.

mod common;

use common::deal_and_merge;
use proptest::prelude::*;
use zerolaw::core::{
    Checkpoint, DistCounter, GnpHeavyHitter, HeavyHitterSketch, NearlyPeriodicGSum,
    OnePassHeavyHitter, OnePassHeavyHitterConfig, RecursiveSketch, TwoPassHeavyHitter,
    TwoPassHeavyHitterConfig,
};
use zerolaw::hash::SplitMix64;
use zerolaw::prelude::*;
use zerolaw::sketch::{CountMinConfig, CountMinSketch, CountSketchConfig, SamplingEstimator};
use zerolaw::streams::checkpoint::CheckpointError;
use zerolaw::streams::AdversarialCollisionGenerator;

const DOMAIN: u64 = 64;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
const SIGN_FAMILIES: [SignFamily; 2] = [SignFamily::Polynomial4, SignFamily::Tabulation];

/// Strategy: a small turnstile stream described as (item, delta) pairs.
fn stream_strategy(domain: u64, max_len: usize) -> impl Strategy<Value = TurnstileStream> {
    prop::collection::vec((0..domain, -50i64..50), 2..max_len).prop_map(move |pairs| {
        let mut s = TurnstileStream::new(domain);
        for (item, delta) in pairs {
            if delta != 0 {
                s.push_delta(item, delta);
            }
        }
        s
    })
}

/// Interrupt ingestion at `cut`: feed the prefix, checkpoint, restore,
/// feed the suffix to the restored copy — while an uninterrupted clone of
/// `proto` absorbs the whole stream.  `check` compares the two bitwise.
fn assert_roundtrip_continues<S>(
    proto: &S,
    s: &TurnstileStream,
    cut: usize,
    check: impl Fn(&S, &S) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError>
where
    S: StreamSink + Checkpoint + Clone,
{
    let cut = cut.min(s.len());
    let (prefix, suffix) = s.updates().split_at(cut);

    let mut uninterrupted = proto.clone();
    for &u in s.iter() {
        uninterrupted.update(u);
    }

    let mut partial = proto.clone();
    for &u in prefix {
        partial.update(u);
    }
    let bytes = partial
        .to_checkpoint_bytes()
        .map_err(|e| TestCaseError::fail(format!("save failed: {e}")))?;
    let mut restored = S::from_checkpoint_bytes(&bytes)
        .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
    for &u in suffix {
        restored.update(u);
    }
    check(&uninterrupted, &restored)?;

    // Truncations of the checkpoint must fail cleanly, never panic.
    // Probing every prefix would make the suite quadratic in checkpoint
    // size, so sample a spread of cut points plus the boundaries.
    let len = bytes.len();
    for frac in 0..=16usize {
        let cut = (len - 1) * frac / 16;
        if S::from_checkpoint_bytes(&bytes[..cut]).is_ok() {
            return Err(TestCaseError::fail(format!(
                "truncation at {cut}/{len} bytes restored successfully"
            )));
        }
    }
    Ok(())
}

fn check_estimates<S: FrequencySketch>(a: &S, b: &S) -> Result<(), TestCaseError> {
    for item in 0..DOMAIN {
        prop_assert_eq!(
            a.estimate(item).to_bits(),
            b.estimate(item).to_bits(),
            "estimates diverge on item {}",
            item
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CountSketch: save → restore → continue is bit-for-bit, both backends.
    #[test]
    fn countsketch_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        for backend in BACKENDS {
            let proto = CountSketch::new(
                CountSketchConfig::new(3, 32).with_backend(backend),
                seed,
            );
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                check_estimates(a, b)?;
                prop_assert_eq!(
                    a.residual_f2_excluding(&[1, 5]).to_bits(),
                    b.residual_f2_excluding(&[1, 5]).to_bits()
                );
                Ok(())
            })?;
        }
    }

    /// Count-Min: same contract, both backends.
    #[test]
    fn countmin_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        for backend in BACKENDS {
            let proto = CountMinSketch::with_config(
                CountMinConfig::new(3, 32).with_backend(backend),
                seed,
            );
            assert_roundtrip_continues(&proto, &s, cut, check_estimates)?;
        }
    }

    /// AMS (both sign families), exact tracker and sampling baseline.
    #[test]
    fn ams_exact_sampling_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        for family in SIGN_FAMILIES {
            let proto = AmsF2Sketch::with_sign_family(8, 3, seed, family).unwrap();
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                prop_assert_eq!(a.sign_family(), family);
                prop_assert_eq!(b.sign_family(), family);
                prop_assert_eq!(a.estimate_f2().to_bits(), b.estimate_f2().to_bits());
                Ok(())
            })?;
        }

        let proto = ExactFrequencies::new(DOMAIN);
        assert_roundtrip_continues(&proto, &s, cut, |a, b| {
            prop_assert_eq!(a.vector(), b.vector());
            Ok(())
        })?;

        let proto = SamplingEstimator::new(DOMAIN, 16, seed);
        assert_roundtrip_continues(&proto, &s, cut, check_estimates)?;
    }

    /// DIST counter: verdict state is preserved across the interruption.
    #[test]
    fn dist_counter_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        let proto = DistCounter::new(DOMAIN, 11, 9, 1, seed);
        assert_roundtrip_continues(&proto, &s, cut, |a, b| {
            prop_assert_eq!(a.verdict(), b.verdict());
            prop_assert_eq!(a.space_words(), b.space_words());
            Ok(())
        })?;
    }

    /// g_np heavy hitter: counters *and* reverse hints survive (covers
    /// depend on both).  A tight hint cap exercises the saturated branch.
    #[test]
    fn gnp_heavy_hitter_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        for hint_cap in [4usize, 512] {
            let proto = GnpHeavyHitter::with_hint_cap(16, 12, hint_cap, seed);
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                prop_assert_eq!(a.cover(DOMAIN), b.cover(DOMAIN));
                prop_assert_eq!(a.space_words(), b.space_words());
                Ok(())
            })?;
        }
    }

    /// Algorithm-2 heavy hitter (CountSketch + AMS + hints), every
    /// backend × sign-family combination: the sign-family tag must ride the
    /// checkpoint and reconstruct the identical bank.
    #[test]
    fn one_pass_heavy_hitter_roundtrip(
        s in stream_strategy(DOMAIN, 80),
        seed in 0u64..100,
        cut in 0usize..80,
    ) {
        for backend in BACKENDS {
            for sign_family in SIGN_FAMILIES {
                let config = OnePassHeavyHitterConfig {
                    rows: 3,
                    columns: 32,
                    candidates: 8,
                    epsilon: 0.2,
                    envelope_factor: 1.0,
                    backend,
                    sign_family,
                    hint_cap: 24,
                };
                let proto = OnePassHeavyHitter::new(PowerFunction::new(2.0), config, seed);
                assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                    prop_assert_eq!(b.config().sign_family, sign_family);
                    prop_assert_eq!(a.cover(DOMAIN), b.cover(DOMAIN));
                    prop_assert_eq!(
                        a.frequency_error_bound().to_bits(),
                        b.frequency_error_bound().to_bits()
                    );
                    prop_assert_eq!(a.space_words(), b.space_words());
                    Ok(())
                })?;
            }
        }
    }

    /// The full one-pass g-SUM stack (recursive sketch of Algorithm-2
    /// levels), both backends.
    #[test]
    fn one_pass_gsum_roundtrip(s in stream_strategy(DOMAIN, 80), seed in 0u64..100, cut in 0usize..80) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                prop_assert_eq!(a.estimate().to_bits(), b.estimate().to_bits());
                prop_assert_eq!(a.space_words(), b.space_words());
                Ok(())
            })?;
        }
    }

    /// The recursive g_np stack (Proposition 54 per level).
    #[test]
    fn nearly_periodic_roundtrip(s in stream_strategy(DOMAIN, 80), seed in 0u64..100, cut in 0usize..80) {
        let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed));
        let proto = est.sketch();
        assert_roundtrip_continues(&proto, &s, cut, |a, b| {
            prop_assert_eq!(a.estimate().to_bits(), b.estimate().to_bits());
            Ok(())
        })?;
    }

    /// Two-pass heavy hitter: interrupted in the FIRST pass — the restored
    /// state finishes pass 1, transitions and tabulates identically.
    #[test]
    fn two_pass_heavy_hitter_roundtrip_first_phase(
        s in stream_strategy(DOMAIN, 80),
        seed in 0u64..100,
        cut in 0usize..80,
    ) {
        for backend in BACKENDS {
            let config = TwoPassHeavyHitterConfig {
                rows: 3,
                columns: 32,
                candidates: 8,
                backend,
                hint_cap: 24,
            };
            let proto = TwoPassHeavyHitter::new(PowerFunction::new(2.0), config, seed);
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                prop_assert_eq!(a.candidates(), b.candidates());
                Ok(())
            })?;
        }
    }

    /// The full two-pass g-SUM stack, interrupted in BOTH phases: once
    /// mid-pass-1 and once mid-pass-2 (after the frozen candidate sets
    /// exist).  The final estimate matches the uninterrupted protocol
    /// bit for bit.
    #[test]
    fn two_pass_gsum_roundtrip_both_phases(
        s in stream_strategy(DOMAIN, 60),
        seed in 0u64..100,
        cut in 0usize..60,
    ) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let g = PowerFunction::new(2.0);

            // Uninterrupted reference run.
            let mut reference = TwoPassGSumSketch::new(g, &config);
            reference.process_stream(&s);
            reference.begin_second_pass();
            reference.process_stream(&s);

            let cut = cut.min(s.len());
            let (prefix, suffix) = s.updates().split_at(cut);

            // Interrupt mid-pass-1.
            let mut sketch = TwoPassGSumSketch::new(g, &config);
            sketch.update_batch(prefix);
            let bytes = sketch.to_checkpoint_bytes().unwrap();
            let mut sketch = TwoPassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&bytes).unwrap();
            prop_assert!(!sketch.in_second_pass());
            sketch.update_batch(suffix);
            sketch.begin_second_pass();

            // Interrupt mid-pass-2 as well.
            sketch.update_batch(prefix);
            let bytes = sketch.to_checkpoint_bytes().unwrap();
            let mut sketch = TwoPassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&bytes).unwrap();
            prop_assert!(sketch.in_second_pass());
            sketch.update_batch(suffix);

            prop_assert_eq!(sketch.estimate().to_bits(), reference.estimate().to_bits());
        }
    }

    /// Clone-and-merge ingestion stopped after `cut` updates, saved,
    /// restored from the bytes and merged with clone-and-merge ingestion of
    /// the rest is bit-identical to the uninterrupted stream.
    #[test]
    fn sharded_resume_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..50, cut in 0usize..100) {
        let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed);
        let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);

        let mut reference = proto.clone();
        reference.process_stream(&s);

        let mut source = s.source();
        let head: Vec<Update> = source.updates().take(cut).collect();
        prop_assert_eq!(head.len(), cut.min(s.len()));
        let partial = deal_and_merge(head, &proto, 2, 16);
        let bytes = partial.to_checkpoint_bytes().unwrap();

        // Continue from the bytes with the rest of the stream.
        let mut resumed =
            OnePassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&bytes).expect("restore own checkpoint");
        resumed
            .merge(&deal_and_merge(source.updates(), &proto, 2, 16))
            .expect("restored state merges with its prototype's clones");
        prop_assert_eq!(resumed.estimate().to_bits(), reference.estimate().to_bits());
    }

    /// The estimator registry's composite checkpoint: three functions over
    /// two substrates (two share a configuration, one has its own seed),
    /// interrupted mid-stream.  Save → restore → replay must land every
    /// registered function's estimate *and* its per-function checkpoint
    /// bytes ([`SketchRegistry::checkpoint_for`]) bit-identical to the
    /// uninterrupted run, under both backends.
    #[test]
    fn sketch_registry_roundtrip(s in stream_strategy(DOMAIN, 80), seed in 0u64..100, cut in 0usize..80) {
        for backend in BACKENDS {
            let shared = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let mut lone = shared.clone();
            lone.seed = seed.wrapping_add(1);

            let mut proto = SketchRegistry::new();
            proto.register(PowerFunction::new(2.0), &shared).unwrap();
            proto.register(CappedLinear::new(100), &shared).unwrap();
            proto.register(PolylogFunction::new(2.0), &lone).unwrap();
            prop_assert_eq!(proto.substrate_count(), 2);
            let names = proto.function_names();

            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                for name in &names {
                    prop_assert_eq!(
                        a.estimate_for(name).map(f64::to_bits),
                        b.estimate_for(name).map(f64::to_bits),
                        "estimate for {} diverges after restore + replay",
                        name
                    );
                    let saved = a.checkpoint_for(name).unwrap().unwrap();
                    let restored = b.checkpoint_for(name).unwrap().unwrap();
                    prop_assert_eq!(
                        saved, restored,
                        "per-function checkpoint bytes for {} diverge",
                        name
                    );
                }
                prop_assert_eq!(
                    a.to_checkpoint_bytes().unwrap(),
                    b.to_checkpoint_bytes().unwrap(),
                    "the composite checkpoint diverges"
                );
                Ok(())
            })?;
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption: malformed bytes are errors, never panics.
// ---------------------------------------------------------------------------

#[test]
fn wrong_version_wrong_kind_and_bad_backend_are_errors() {
    let cs = CountSketch::new(CountSketchConfig::new(3, 32), 7);
    let bytes = cs.to_checkpoint_bytes().unwrap();

    // Wrong format version (byte 4 is the version LSB).
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xFE;
    assert!(matches!(
        CountSketch::from_checkpoint_bytes(&wrong_version),
        Err(CheckpointError::UnsupportedVersion { .. })
    ));

    // CountSketch bytes handed to a Count-Min restore: wrong kind.
    assert!(matches!(
        CountMinSketch::from_checkpoint_bytes(&bytes),
        Err(CheckpointError::WrongKind { .. })
    ));

    // A mangled hash-backend tag (first payload byte after rows+columns).
    let mut bad_backend = bytes.clone();
    bad_backend[8 + 16] = 0x7F;
    assert!(matches!(
        CountSketch::from_checkpoint_bytes(&bad_backend),
        Err(CheckpointError::Corrupt(_))
    ));

    // Not a checkpoint at all.
    assert!(matches!(
        CountSketch::from_checkpoint_bytes(b"definitely not a checkpoint"),
        Err(CheckpointError::BadMagic)
    ));
    assert!(CountSketch::from_checkpoint_bytes(&[]).is_err());
}

/// Version 1 held CountSketch, Count-Min and AMS counters as `f64`; its
/// bytes restore to a typed version error, never to misread counters.
#[test]
fn version_1_checkpoints_are_rejected() {
    fn as_v1(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        bytes
    }
    let cs = CountSketch::new(CountSketchConfig::new(3, 32), 7);
    let cm = CountMinSketch::new(3, 32, 7);
    let ams = AmsF2Sketch::new(8, 3, 7).unwrap();
    let cs_v1 = as_v1(cs.to_checkpoint_bytes().unwrap());
    let cm_v1 = as_v1(cm.to_checkpoint_bytes().unwrap());
    let ams_v1 = as_v1(ams.to_checkpoint_bytes().unwrap());
    assert!(matches!(
        CountSketch::from_checkpoint_bytes(&cs_v1),
        Err(CheckpointError::UnsupportedVersion { found: 1 })
    ));
    assert!(matches!(
        CountMinSketch::from_checkpoint_bytes(&cm_v1),
        Err(CheckpointError::UnsupportedVersion { found: 1 })
    ));
    assert!(matches!(
        AmsF2Sketch::from_checkpoint_bytes(&ams_v1),
        Err(CheckpointError::UnsupportedVersion { found: 1 })
    ));
}

#[test]
fn mismatched_backend_checkpoint_refuses_to_merge_not_panic() {
    // Restore is self-describing (the backend rides in the bytes), so a
    // tabulation checkpoint restores fine — but folding it into a polynomial
    // pipeline is a merge error, exactly like live sketches.
    let mut tab = CountSketch::new(
        CountSketchConfig::new(3, 32).with_backend(HashBackend::Tabulation),
        7,
    );
    tab.update(Update::new(3, 5));
    let bytes = tab.to_checkpoint_bytes().unwrap();
    let restored = CountSketch::from_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(restored.config().backend, HashBackend::Tabulation);

    let mut poly = CountSketch::new(CountSketchConfig::new(3, 32), 7);
    assert!(poly.merge(&restored).is_err());

    // The same at the estimator layer: a restored polynomial checkpoint
    // refuses new mass ingested by a tabulation pipeline.
    let proto = OnePassGSumSketch::new(
        PowerFunction::new(2.0),
        &GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 1),
    );
    let mut tab_delta = OnePassGSumSketch::new(
        PowerFunction::new(2.0),
        &GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 1)
            .with_hash_backend(HashBackend::Tabulation),
    );
    tab_delta.update(Update::new(3, 5));
    let bytes = proto.to_checkpoint_bytes().unwrap();
    let mut restored = OnePassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&bytes).unwrap();
    assert!(restored.merge(&tab_delta).is_err());
}

#[test]
fn mismatched_sign_family_checkpoint_refuses_to_merge_not_panic() {
    // A tabulation-family AMS checkpoint restores fine (the tag rides in the
    // bytes) — but folding it into a polynomial-family sketch is a merge
    // error, exactly like live sketches and like hash-backend mismatches.
    let mut tab = AmsF2Sketch::with_sign_family(8, 3, 7, SignFamily::Tabulation).unwrap();
    tab.update(Update::new(3, 5));
    let bytes = tab.to_checkpoint_bytes().unwrap();
    let restored = AmsF2Sketch::from_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(restored.sign_family(), SignFamily::Tabulation);

    let mut poly = AmsF2Sketch::new(8, 3, 7).unwrap();
    assert!(poly.merge(&restored).is_err());

    // A mangled sign-family tag is a corruption error, never a panic or a
    // silently-guessed family.  Layout: 8-byte header, then
    // averages/medians/seed (8 bytes each), then the tag.
    let mut bad_tag = bytes.clone();
    bad_tag[8 + 24] = 0x7F;
    assert!(matches!(
        AmsF2Sketch::from_checkpoint_bytes(&bad_tag),
        Err(CheckpointError::Corrupt(_))
    ));

    // The same at the estimator layer: a restored tabulation-family one-pass
    // g-SUM checkpoint refuses new mass ingested by a polynomial-family
    // pipeline.
    let tab_config =
        GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 1).with_sign_family(SignFamily::Tabulation);
    let mut tab_gsum = OnePassGSumSketch::new(PowerFunction::new(2.0), &tab_config);
    tab_gsum.update(Update::new(3, 5));
    let bytes = tab_gsum.to_checkpoint_bytes().unwrap();
    let mut poly_delta = OnePassGSumSketch::new(
        PowerFunction::new(2.0),
        &GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 1),
    );
    poly_delta.update(Update::new(3, 5));
    let mut restored = OnePassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&bytes).unwrap();
    assert!(restored.merge(&poly_delta).is_err());
}

#[test]
fn recursive_sketch_restore_validates_structure() {
    let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 3));
    let sketch = est.sketch();
    let bytes = sketch.to_checkpoint_bytes().unwrap();
    // Zero the level count (bytes 8..16 are the domain, 16..24 the seed,
    // 24..32 the level count).
    let mut no_levels = bytes.clone();
    no_levels[24..32].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(
        RecursiveSketch::<GnpHeavyHitter>::from_checkpoint_bytes(&no_levels),
        Err(CheckpointError::Corrupt(_) | CheckpointError::Io(_))
    ));
}

// ---------------------------------------------------------------------------
// The two-pass protocol split across clones: bit-identical to one sketch.
// ---------------------------------------------------------------------------

fn single_threaded_two_pass(
    g: PowerFunction,
    config: &GSumConfig,
    stream: &TurnstileStream,
) -> TwoPassGSumSketch<PowerFunction> {
    let mut sketch = TwoPassGSumSketch::new(g, config);
    sketch.process_stream(stream);
    sketch.begin_second_pass();
    sketch.process_stream(stream);
    sketch
}

/// Feed `stream` to `states`, each update to a seeded random state, then
/// merge the states in a seeded random order.
fn split_and_merge<S: StreamSink + MergeableSketch>(
    mut states: Vec<S>,
    stream: &TurnstileStream,
    rng: &mut SplitMix64,
) -> S {
    let mut pieces = vec![Vec::new(); states.len()];
    for &u in stream.iter() {
        pieces[rng.next_below(states.len() as u64) as usize].push(u);
    }
    for (state, piece) in states.iter_mut().zip(&pieces) {
        state.update_batch(piece);
    }
    for i in (1..states.len()).rev() {
        let j = rng.next_below((i + 1) as u64) as usize;
        states.swap(i, j);
    }
    let mut states = states.into_iter();
    let mut merged = states.next().expect("at least one state");
    for other in states {
        merged
            .merge(&other)
            .expect("identically seeded states merge");
    }
    merged
}

/// Pass 1 split across clones of the prototype and merged, one transition
/// on the merged state, pass 2 split across workers restored from the
/// frozen bytes and merged: the single-stream two-pass bits.
fn assert_split_two_pass_matches(stream: &TurnstileStream, config: &GSumConfig, label: &str) {
    let g = PowerFunction::new(2.0);
    let reference = single_threaded_two_pass(g, config, stream);
    let mut rng = SplitMix64::new(0x2_9A55);
    for workers in [1usize, 2, 4] {
        let prototype = TwoPassGSumSketch::new(g, config);
        let mut merged = split_and_merge(vec![prototype; workers], stream, &mut rng);
        merged.begin_second_pass();
        let frozen = merged.to_checkpoint_bytes().expect("save frozen state");
        let restored: Vec<_> = (0..workers)
            .map(|_| {
                TwoPassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&frozen)
                    .expect("restore frozen state")
            })
            .collect();
        assert!(restored[0].in_second_pass(), "{label}: frozen state phase");
        let result = split_and_merge(restored, stream, &mut rng);
        assert_eq!(
            result.estimate().to_bits(),
            reference.estimate().to_bits(),
            "{label}: {workers} split workers must match the single-stream two-pass run"
        );
    }
}

#[test]
fn split_two_pass_matches_single_threaded_on_zipf() {
    let domain = 1u64 << 8;
    let stream = ZipfStreamGenerator::new(StreamConfig::new(domain, 12_000), 1.2, 7).generate();
    let config = GSumConfig::with_space_budget(domain, 0.2, 64, 23);
    assert_split_two_pass_matches(&stream, &config, "zipf");
    let config = config.with_hash_backend(HashBackend::Tabulation);
    assert_split_two_pass_matches(&stream, &config, "zipf/tabulation");
}

#[test]
fn split_two_pass_matches_single_threaded_on_adversarial_workload() {
    let domain = 1u64 << 8;
    let stream = AdversarialCollisionGenerator::new(domain, 6, 40, 900, true, 11).generate();
    let config = GSumConfig::with_space_budget(domain, 0.2, 64, 31);
    assert_split_two_pass_matches(&stream, &config, "adversarial");
    let config = config.with_hash_backend(HashBackend::Tabulation);
    assert_split_two_pass_matches(&stream, &config, "adversarial/tabulation");
}
