//! Property tests for the batched-ingestion fast paths.
//!
//! The contract of `StreamSink::update_batch` — including the coalescing
//! overrides introduced by the hot-path overhaul — is that it is
//! *semantically identical* to updating one at a time, in order.  The
//! linear sketches' counters are wrapping `i64`, exact mod 2⁶⁴ for every
//! input, so the agreement must be **bit-for-bit**:
//! these tests drive every `StreamSink` in the workspace three ways
//! (per-update, one whole-stream batch, small chunked batches) and compare
//! every query down to the bits, under both the polynomial and the
//! tabulation hash backends.  The merge laws are re-checked under the
//! tabulation backend too.

mod common;

use common::deal_and_merge;
use proptest::prelude::*;
use zerolaw::core::{
    DistCounter, GnpHeavyHitter, HeavyHitterSketch, NearlyPeriodicGSum, OnePassHeavyHitter,
    OnePassHeavyHitterConfig, RecursiveSketch, TwoPassHeavyHitter, TwoPassHeavyHitterConfig,
};
use zerolaw::prelude::*;
use zerolaw::sketch::{
    CountMinConfig, CountMinSketch, CountSketchConfig, HashBackend, SamplingEstimator,
};

const DOMAIN: u64 = 64;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
const SIGN_FAMILIES: [SignFamily; 2] = [SignFamily::Polynomial4, SignFamily::Tabulation];

/// Strategy: a small turnstile stream described as (item, delta) pairs
/// (delta 0 allowed — sinks must tolerate it).
fn stream_strategy(domain: u64, max_len: usize) -> impl Strategy<Value = TurnstileStream> {
    prop::collection::vec((0..domain, -50i64..50), 1..max_len).prop_map(move |pairs| {
        let mut s = TurnstileStream::new(domain);
        for (item, delta) in pairs {
            if delta != 0 {
                s.push_delta(item, delta);
            }
        }
        s
    })
}

/// Drive a fresh clone of `proto` three ways over `s` and hand each result
/// to `check` for bitwise query comparison against the per-update reference.
fn assert_batch_equivalent<S: StreamSink + Clone>(
    proto: &S,
    s: &TurnstileStream,
    check: impl Fn(&S, &S) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let mut per_update = proto.clone();
    for &u in s.iter() {
        per_update.update(u);
    }

    let mut whole_batch = proto.clone();
    whole_batch.update_batch(s.updates());
    check(&per_update, &whole_batch)?;

    let mut chunked = proto.clone();
    for chunk in s.updates().chunks(7) {
        chunked.update_batch(chunk);
    }
    check(&per_update, &chunked)
}

/// Drive a fresh clone of `proto` three ways over `s` — per-update,
/// one whole-stream batch, and *interleaved* (alternating single updates
/// and batched chunks) — and require the checkpoint byte streams to be
/// identical.  This is the strongest form of the batching contract: the
/// reusable ingestion scratch and the i64/branchless fast paths must not
/// leak one bit into serialized state.
fn assert_checkpoint_byte_equivalent<S: StreamSink + Checkpoint + Clone>(
    proto: &S,
    s: &TurnstileStream,
) -> Result<(), TestCaseError> {
    let mut per_update = proto.clone();
    for &u in s.iter() {
        per_update.update(u);
    }
    let reference = per_update.to_checkpoint_bytes().expect("checkpoint");

    let mut whole_batch = proto.clone();
    whole_batch.update_batch(s.updates());
    prop_assert_eq!(
        &reference,
        &whole_batch.to_checkpoint_bytes().expect("checkpoint"),
        "whole-batch checkpoint bytes diverge from per-update"
    );

    let mut interleaved = proto.clone();
    for (i, chunk) in s.updates().chunks(5).enumerate() {
        if i % 2 == 0 {
            for &u in chunk {
                interleaved.update(u);
            }
        } else {
            interleaved.update_batch(chunk);
        }
    }
    prop_assert_eq!(
        &reference,
        &interleaved.to_checkpoint_bytes().expect("checkpoint"),
        "interleaved update/update_batch checkpoint bytes diverge from per-update"
    );
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CountSketch: coalesced batches agree bit-for-bit under both backends,
    /// including the residual-F2 query (which exercises the scratch buffer).
    #[test]
    fn countsketch_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        for backend in BACKENDS {
            let proto = CountSketch::new(
                CountSketchConfig::new(3, 32).with_backend(backend),
                seed,
            );
            assert_batch_equivalent(&proto, &s, |a, b| {
                check_estimates(a, b)?;
                prop_assert_eq!(
                    a.residual_f2_excluding(&[]).to_bits(),
                    b.residual_f2_excluding(&[]).to_bits()
                );
                prop_assert_eq!(
                    a.residual_f2_excluding(&[1, 5, 9]).to_bits(),
                    b.residual_f2_excluding(&[1, 5, 9]).to_bits()
                );
                Ok(())
            })?;
        }
    }

    /// Count-Min: same agreement under both backends.
    #[test]
    fn countmin_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        for backend in BACKENDS {
            let proto = CountMinSketch::with_config(
                CountMinConfig::new(3, 32).with_backend(backend),
                seed,
            );
            assert_batch_equivalent(&proto, &s, check_estimates)?;
        }
    }

    /// AMS: the F2 estimate agrees bit-for-bit, under both sign families.
    #[test]
    fn ams_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        for family in SIGN_FAMILIES {
            let proto = AmsF2Sketch::with_sign_family(8, 3, seed, family).unwrap();
            assert_batch_equivalent(&proto, &s, |a, b| {
                prop_assert_eq!(a.estimate_f2().to_bits(), b.estimate_f2().to_bits());
                Ok(())
            })?;
        }
    }

    /// Exact tracker and sampling estimator (default batch path).
    #[test]
    fn exact_and_sampling_batch_equals_single(s in stream_strategy(DOMAIN, 120)) {
        let proto = ExactFrequencies::new(DOMAIN);
        assert_batch_equivalent(&proto, &s, |a, b| {
            prop_assert_eq!(a.vector(), b.vector());
            Ok(())
        })?;

        let proto = SamplingEstimator::new(DOMAIN, 16, 3);
        assert_batch_equivalent(&proto, &s, check_estimates)?;
    }

    /// DIST counter: coalesced batches give the same verdict state.
    #[test]
    fn dist_counter_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        let proto = DistCounter::new(DOMAIN, 1, 4, 2, seed);
        assert_batch_equivalent(&proto, &s, |a, b| {
            prop_assert_eq!(a.verdict(), b.verdict());
            Ok(())
        })?;
    }

    /// g_np heavy hitter: the cover (which depends on the update-time
    /// reverse hints as well as the counters) agrees exactly.
    #[test]
    fn gnp_heavy_hitter_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        let proto = GnpHeavyHitter::new(16, 12, seed);
        assert_batch_equivalent(&proto, &s, |a, b| {
            prop_assert_eq!(a.cover(DOMAIN), b.cover(DOMAIN));
            prop_assert_eq!(a.space_words(), b.space_words());
            Ok(())
        })?;
    }

    /// Algorithm-2 heavy hitter (CountSketch + AMS pair), both backends.
    #[test]
    fn one_pass_heavy_hitter_batch_equals_single(
        s in stream_strategy(DOMAIN, 120),
        seed in 0u64..200,
    ) {
        for backend in BACKENDS {
            let config = OnePassHeavyHitterConfig {
                rows: 3,
                columns: 32,
                candidates: 8,
                epsilon: 0.2,
                envelope_factor: 1.0,
                backend,
                sign_family: SignFamily::default(),
                hint_cap: 512,
            };
            let proto = OnePassHeavyHitter::new(PowerFunction::new(2.0), config, seed);
            assert_batch_equivalent(&proto, &s, |a, b| {
                prop_assert_eq!(a.cover(DOMAIN), b.cover(DOMAIN));
                prop_assert_eq!(
                    a.frequency_error_bound().to_bits(),
                    b.frequency_error_bound().to_bits()
                );
                Ok(())
            })?;
        }
    }

    /// The full one-pass g-SUM stack: recursive-sketch level routing plus
    /// per-level coalescing, both backends.
    #[test]
    fn one_pass_gsum_batch_equals_single(s in stream_strategy(DOMAIN, 100), seed in 0u64..100) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            assert_batch_equivalent(&proto, &s, |a, b| {
                prop_assert_eq!(a.estimate().to_bits(), b.estimate().to_bits());
                Ok(())
            })?;
        }
    }

    /// Recursive sketch: checkpoint bytes are identical whichever ingestion
    /// path filled it — the routing scratch (depth partitioning, memoized
    /// selector hashes) is pure working memory.
    #[test]
    fn recursive_sketch_checkpoint_bytes_agree(
        s in stream_strategy(DOMAIN, 100),
        seed in 0u64..100,
    ) {
        let proto = RecursiveSketch::new(DOMAIN, 4, seed, |_, level_seed| {
            GnpHeavyHitter::new(16, 12, level_seed)
        });
        assert_checkpoint_byte_equivalent(&proto, &s)?;
    }

    /// Full one-pass g-SUM stack: checkpoint bytes are identical whichever
    /// ingestion path filled it, under both hash backends — the per-level
    /// coalesce buffers, the CountSketch column scratch and the AMS
    /// i64/branchless fast path all stay out of serialized state.
    #[test]
    fn one_pass_gsum_checkpoint_bytes_agree(
        s in stream_strategy(DOMAIN, 100),
        seed in 0u64..100,
    ) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            assert_checkpoint_byte_equivalent(&proto, &s)?;
        }
    }

    /// The recursive g_np stack (Proposition 54 per level).
    #[test]
    fn nearly_periodic_sketch_batch_equals_single(
        s in stream_strategy(DOMAIN, 100),
        seed in 0u64..100,
    ) {
        let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed));
        let proto = est.sketch();
        assert_batch_equivalent(&proto, &s, |a, b| {
            prop_assert_eq!(a.estimate().to_bits(), b.estimate().to_bits());
            Ok(())
        })?;
    }

    /// Two-pass heavy hitter: batch equivalence holds in both phases, and
    /// the phase transition picks identical candidate sets.
    #[test]
    fn two_pass_heavy_hitter_batch_equals_single(
        s in stream_strategy(DOMAIN, 100),
        seed in 0u64..100,
    ) {
        for backend in BACKENDS {
            let config = TwoPassHeavyHitterConfig {
                rows: 3,
                columns: 32,
                candidates: 8,
                backend,
                hint_cap: 512,
            };
            let build = || TwoPassHeavyHitter::new(PowerFunction::new(2.0), config, seed);

            let mut per_update = build();
            for &u in s.iter() {
                per_update.update(u);
            }
            per_update.begin_second_pass(DOMAIN);
            for &u in s.iter() {
                per_update.update(u);
            }

            let mut batched = build();
            batched.update_batch(s.updates());
            batched.begin_second_pass(DOMAIN);
            batched.update_batch(s.updates());

            prop_assert_eq!(per_update.candidates(), batched.candidates());
            prop_assert_eq!(per_update.cover(DOMAIN), batched.cover(DOMAIN));
        }
    }

    /// The fused hash-stage kernels themselves: batched `(column, sign)` and
    /// column-only evaluation are bit-identical to the per-key
    /// `column_sign` / `column` calls they replace, under both backends,
    /// over key slices that mix duplicates, key 0, the domain boundary and
    /// arbitrary 64-bit keys (exercising the reduction folds), at column
    /// counts spanning the Lemire bucketing range the sketches use.
    #[test]
    fn row_hasher_batch_kernels_equal_per_key(
        keys in prop::collection::vec((0u64..DOMAIN, 0u64..8), 0..80).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(key, variant)| match variant {
                    // Boundary keys and a fixed key (forcing duplicates)
                    // are interleaved with in-domain and arbitrary 64-bit
                    // keys so one slice exercises every reduction path.
                    0 => 0u64,
                    1 => DOMAIN - 1,
                    2 => 7,
                    3 => key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | (1 << 63),
                    _ => key,
                })
                .collect::<Vec<u64>>()
        }),
        columns in 1u64..2048,
        seed in 0u64..200,
    ) {
        for backend in BACKENDS {
            let hasher = RowHasher::new(backend, columns, seed);
            let mut cols = Vec::new();
            let mut signs = Vec::new();
            hasher.column_sign_batch(&keys, &mut cols, &mut signs);
            prop_assert_eq!(cols.len(), keys.len());
            prop_assert_eq!(signs.len(), keys.len());
            for (i, &key) in keys.iter().enumerate() {
                let (col, sign) = hasher.column_sign(key);
                prop_assert_eq!(
                    (cols[i] as u64, signs[i]),
                    (col, sign),
                    "fused batch kernel diverges at key {} under {:?}",
                    key,
                    backend
                );
            }
            let mut only_cols = Vec::new();
            hasher.column_batch(&keys, &mut only_cols);
            for (i, &key) in keys.iter().enumerate() {
                prop_assert_eq!(
                    only_cols[i] as u64,
                    hasher.column(key),
                    "column-only batch kernel diverges at key {} under {:?}",
                    key,
                    backend
                );
            }
        }
    }

    /// The item-outer sign block kernels themselves: for both sign families,
    /// the packed `items × counters` sign matrix is bit-identical to per-item
    /// evaluation (`SignHashBank::eval_with` for the polynomial family,
    /// `TabSignBank::sign_at` for tabulation) over adversarial key slices —
    /// key 0, the domain boundary, high-bit patterns and forced duplicates —
    /// at bank sizes off the 8-wide block boundary and batch lengths from 1
    /// through odd non-powers-of-two.
    #[test]
    fn sign_block_kernels_equal_per_item(
        keys in prop::collection::vec((0u64..DOMAIN, 0u64..8), 1..81).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(key, variant)| match variant {
                    // Boundary keys and a fixed key (forcing duplicates)
                    // interleaved with in-domain and arbitrary high-bit
                    // 64-bit keys, so one slice stresses every fold path.
                    0 => 0u64,
                    1 => DOMAIN - 1,
                    2 => 7,
                    3 => key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | (1 << 63),
                    4 => u64::MAX - key,
                    _ => key,
                })
                .collect::<Vec<u64>>()
        }),
        bank_len in 1usize..40,
        seed in 0u64..200,
    ) {
        use zerolaw::hash::SIGN_BLOCK;
        let n = keys.len();
        for family in SIGN_FAMILIES {
            let bank = SignBank::from_seed(family, seed, bank_len);
            let mut sign_bytes = Vec::new();
            match &bank {
                SignBank::Polynomial(poly) => {
                    let (mut x1, mut x2, mut x3) = (Vec::new(), Vec::new(), Vec::new());
                    for &k in &keys {
                        let (a, b, c) = SignHashBank::key_powers(k);
                        x1.push(a);
                        x2.push(b);
                        x3.push(c);
                    }
                    poly.eval_block(&x1, &x2, &x3, &mut sign_bytes);
                    // The packed bits must be the parity of the exact field
                    // element `eval_with` computes, not merely sign-equal.
                    for i in 0..bank_len {
                        let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
                        for (t, &key) in keys.iter().enumerate() {
                            let value = SignHashBank::eval_with(
                                poly.coefficients_at(i),
                                SignHashBank::key_powers(key),
                            );
                            prop_assert_eq!(
                                u64::from((row[t] >> (i % SIGN_BLOCK)) & 1),
                                value & 1,
                                "polynomial block bit diverges at hash {}, key {}",
                                i,
                                key
                            );
                        }
                    }
                }
                SignBank::Tabulation(tab) => {
                    let mut hv = Vec::new();
                    tab.eval_block(&keys, &mut hv, &mut sign_bytes);
                    for i in 0..bank_len {
                        let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
                        for (t, &key) in keys.iter().enumerate() {
                            let got = (((row[t] >> (i % SIGN_BLOCK)) & 1) as i64) * 2 - 1;
                            prop_assert_eq!(
                                got,
                                tab.sign_at(i, key),
                                "tabulation block bit diverges at hash {}, key {}",
                                i,
                                key
                            );
                        }
                    }
                }
            }
            prop_assert_eq!(sign_bytes.len(), bank.blocks() * n);
            // Every bank-level query agrees with the packed matrix too.
            for i in [0, bank_len - 1] {
                let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
                for (t, &key) in keys.iter().enumerate() {
                    let got = (((row[t] >> (i % SIGN_BLOCK)) & 1) as i64) * 2 - 1;
                    prop_assert_eq!(got, bank.sign_at_key(i, key));
                }
            }
        }
    }

    /// The merge laws hold under the tabulation backend too: merging shard
    /// sketches equals the sketch of the concatenated stream, and the full
    /// g-SUM sketch merges to the single-threaded state.
    #[test]
    fn tabulation_merge_laws(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        let mid = s.len() / 2;
        let (front, back) = s.updates().split_at(mid);

        let cfg = CountSketchConfig::new(3, 32)
            .with_backend(HashBackend::Tabulation);
        let mut whole = CountSketch::new(cfg, seed);
        whole.process_stream(&s);
        let mut a = CountSketch::new(cfg, seed);
        a.update_batch(front);
        let mut b = CountSketch::new(cfg, seed);
        b.update_batch(back);
        a.merge(&b).unwrap();
        check_estimates(&whole, &a)?;

        let gs_config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
            .with_hash_backend(HashBackend::Tabulation);
        let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &gs_config);
        let mut single = proto.clone();
        single.process_stream(&s);
        let mut left = proto.clone();
        left.update_batch(front);
        let mut right = proto.clone();
        right.update_batch(back);
        left.merge(&right).unwrap();
        prop_assert_eq!(left.estimate().to_bits(), single.estimate().to_bits());
    }
}

/// Number of shards a [`wrapping_updates`] draw is split across.
const SHARDS: usize = 4;

/// Strategy: updates over a few items (so duplicates are common), in random
/// order, with deltas near `±2⁶³` — `i64::MIN` and `i64::MAX` included —
/// mixed with small ones, each tagged with the shard that ingests it.
fn wrapping_updates() -> impl Strategy<Value = Vec<(Update, usize)>> {
    prop::collection::vec((0..12u64, 0u8..3, 0i64..64, 0..SHARDS), 1..48).prop_map(|raw| {
        raw.into_iter()
            .map(|(item, kind, offset, shard)| {
                let delta = match kind {
                    0 => i64::MIN + offset / 8,
                    1 => i64::MAX - offset / 8,
                    _ => offset - 32,
                };
                (Update::new(item, delta), shard)
            })
            .collect()
    })
}

/// Ingest `updates` once per-update on one thread, and once split across
/// [`SHARDS`] clones of `proto` (each fed its own updates in batches of
/// `chunk`) that are then merged in the order that sorts `merge_keys`.  The
/// merged checkpoint bytes must equal the per-update reference: wrapping
/// counters are exact mod 2⁶⁴, so no delta magnitude, coalescing, shard
/// split or merge order can change a bit.
fn assert_shards_merge_to_per_update<S: MergeableSketch + Checkpoint + Clone>(
    proto: &S,
    updates: &[(Update, usize)],
    chunk: usize,
    merge_keys: &[u64],
) -> Result<(), TestCaseError> {
    let mut single = proto.clone();
    for &(u, _) in updates {
        single.update(u);
    }
    let mut shards = vec![proto.clone(); SHARDS];
    for (shard, sketch) in shards.iter_mut().enumerate() {
        let mine: Vec<Update> = updates
            .iter()
            .filter(|&&(_, s)| s == shard)
            .map(|&(u, _)| u)
            .collect();
        for batch in mine.chunks(chunk) {
            sketch.update_batch(batch);
        }
    }
    let mut order: Vec<usize> = (0..SHARDS).collect();
    order.sort_by_key(|&i| merge_keys[i]);
    let mut merged = shards[order[0]].clone();
    for &i in &order[1..] {
        merged
            .merge(&shards[i])
            .expect("identically seeded shards merge");
    }
    prop_assert_eq!(
        single.to_checkpoint_bytes().expect("checkpoint"),
        merged.to_checkpoint_bytes().expect("checkpoint"),
        "shards merged in order {:?} diverge from per-update ingestion",
        order
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every linear counter in the workspace wraps mod 2⁶⁴: with deltas near
    /// `±2⁶³`, duplicates and random order, random shard splits merged in
    /// random order give the per-update checkpoint bytes — CountSketch,
    /// Count-Min and the full one-pass g-SUM stack under both backends, AMS
    /// under both sign families, the DIST counter and the g_np heavy hitter.
    #[test]
    fn wrapping_counters_merge_in_any_order_to_per_update_bytes(
        updates in wrapping_updates(),
        chunk in 1usize..6,
        merge_keys in prop::collection::vec(0u64..1 << 32, SHARDS..SHARDS + 1),
        seed in 0u64..200,
    ) {
        for backend in BACKENDS {
            let cs = CountSketch::new(CountSketchConfig::new(3, 8).with_backend(backend), seed);
            assert_shards_merge_to_per_update(&cs, &updates, chunk, &merge_keys)?;
            let cm =
                CountMinSketch::with_config(CountMinConfig::new(3, 8).with_backend(backend), seed);
            assert_shards_merge_to_per_update(&cm, &updates, chunk, &merge_keys)?;
            let config =
                GSumConfig::with_space_budget(DOMAIN, 0.25, 16, seed).with_hash_backend(backend);
            let gsum = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            assert_shards_merge_to_per_update(&gsum, &updates, chunk, &merge_keys)?;
        }
        for family in SIGN_FAMILIES {
            let ams = AmsF2Sketch::with_sign_family(7, 3, seed, family).unwrap();
            assert_shards_merge_to_per_update(&ams, &updates, chunk, &merge_keys)?;
        }
        let dist = DistCounter::new(DOMAIN, 1, 4, 2, seed);
        assert_shards_merge_to_per_update(&dist, &updates, chunk, &merge_keys)?;
        let gnp = GnpHeavyHitter::new(4, 6, seed);
        assert_shards_merge_to_per_update(&gnp, &updates, chunk, &merge_keys)?;
    }
}

/// Backend mismatches are merge errors: a polynomial sketch must refuse a
/// tabulation sketch even when shape and seed agree.
#[test]
fn merge_rejects_backend_mismatch() {
    let poly = CountSketch::new(CountSketchConfig::new(3, 32), 7);
    let tab = CountSketch::new(
        CountSketchConfig::new(3, 32).with_backend(HashBackend::Tabulation),
        7,
    );
    let mut a = poly.clone();
    assert!(a.merge(&tab).is_err());

    let cm_poly = CountMinSketch::with_config(CountMinConfig::new(2, 16), 5);
    let cm_tab = CountMinSketch::with_config(
        CountMinConfig::new(2, 16).with_backend(HashBackend::Tabulation),
        5,
    );
    let mut c = cm_poly.clone();
    assert!(c.merge(&cm_tab).is_err());
}

/// Sign-family mismatches are merge errors too, at every layer that embeds
/// an AMS bank: the raw sketch and the one-pass heavy hitter (whose config
/// inequality catches it) must both refuse, even with identical shapes and
/// seeds.
#[test]
fn merge_rejects_sign_family_mismatch() {
    let mut ams_poly = AmsF2Sketch::with_sign_family(8, 3, 7, SignFamily::Polynomial4).unwrap();
    let ams_tab = AmsF2Sketch::with_sign_family(8, 3, 7, SignFamily::Tabulation).unwrap();
    assert!(ams_poly.merge(&ams_tab).is_err());

    let config = OnePassHeavyHitterConfig::new(3, 32, 8, 0.2, 1.0);
    let mut hh_poly = OnePassHeavyHitter::new(PowerFunction::new(2.0), config, 7);
    let hh_tab = OnePassHeavyHitter::new(
        PowerFunction::new(2.0),
        config.with_sign_family(SignFamily::Tabulation),
        7,
    );
    assert!(hh_poly.merge(&hh_tab).is_err());
}

/// Clone-and-merge ingestion stays exact under the tabulation backend end
/// to end.
#[test]
fn sharded_tabulation_ingest_matches_single_threaded() {
    let domain = 1u64 << 8;
    let config = GSumConfig::with_space_budget(domain, 0.2, 64, 29)
        .with_hash_backend(HashBackend::Tabulation);
    let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);

    let mut gen = ZipfStreamGenerator::new(StreamConfig::new(domain, 20_000), 1.2, 3);
    let mut single = prototype.clone();
    gen.feed(&mut single);

    for shard_count in [2usize, 4] {
        gen.reset();
        let merged = deal_and_merge(gen.updates(), &prototype, shard_count, 512);
        assert_eq!(
            merged.estimate().to_bits(),
            single.estimate().to_bits(),
            "sharded ({shard_count}) tabulation ingestion must match single-threaded"
        );
    }
}
