//! The bespoke 1-pass algorithm for the nearly periodic function `g_np`
//! (Proposition 54 / Appendix D.1).
//!
//! `g_np(x) = 2^{-i_x}` with `i_x` the index of the lowest set bit of `x`.
//! The function escapes the normal zero-one law (it is S-nearly periodic),
//! yet it is 1-pass tractable because the *lowest set bit of a sum* can be
//! tracked through linear counters:
//!
//! * split the stream into `C = O(λ^{-2})` substreams with a uniform hash, so
//!   that with constant probability the `≤ 2/λ` items of largest `g_np`-value
//!   land in distinct substreams;
//! * in each substream run `D = O(log n)` independent trials; trial `ℓ` keeps
//!   the counter `m_ℓ = Σ_j X_ℓ(j) · v_j` for pairwise-independent Bernoulli
//!   variables `X_ℓ(j)`;
//! * the value `2^{-i_{m_ℓ}}` equals `g_np` of the substream's heaviest item
//!   whenever that item is sampled (adding values with strictly higher
//!   trailing-zero count cannot change the lowest set bit), so the maximum
//!   over trials recovers `g_np(v_{j*})` and the sampling pattern of the
//!   maximizing trials identifies `j*` itself.
//!
//! Wrapping this heavy-hitter routine in the recursive sketch gives a 1-pass
//! `g_np`-SUM algorithm in `poly(λ^{-1} log n)` space.

use crate::config::{GSumConfig, DEFAULT_HINT_CAP};
use crate::gsum::{median_over_repetitions, GSumEstimator};
use crate::heavy_hitters::{GCover, HeavyHitterSketch};
use crate::hints::ReverseHints;
use crate::recursive_sketch::RecursiveSketch;
use gsum_gfunc::library::GnpFunction;
use gsum_gfunc::GFunction;
use gsum_hash::{derive_seeds, BucketHash, KWiseHash};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{
    coalesce_into, IngestScratch, MergeError, MergeableSketch, StreamSink, TurnstileStream, Update,
};
use std::io::{Read, Write};

/// Reusable working memory for [`GnpHeavyHitter::update_batch`]: the
/// coalesce buffer plus the structure-of-arrays columns the batched pass
/// fills — distinct keys, their deltas, their substream indices, and the
/// per-trial sampler hash values.  Transient — never part of
/// checkpoint/merge/clone identity.
#[derive(Debug, Default)]
pub struct GnpScratch {
    coalesce: Vec<Update>,
    keys: Vec<u64>,
    deltas: Vec<i64>,
    subs: Vec<u64>,
    values: Vec<u64>,
}

/// The Proposition-54 heavy-hitter sketch for `g_np`.
#[derive(Debug, Clone)]
pub struct GnpHeavyHitter {
    substreams: usize,
    trials: usize,
    /// Per-substream reverse-hint cap.  A substream whose distinct observed
    /// items exceed the cap discards its hints ("saturates") and falls back
    /// to the original domain scan at query time, so the sketch's space
    /// stays bounded by `substreams × hint_cap` words regardless of the
    /// stream's support size — the sublinearity of Proposition 54 is
    /// preserved.
    hint_cap: usize,
    /// Counters `m[c][ℓ]`, stored row-major.
    counters: Vec<i64>,
    split: BucketHash,
    /// Trial sampling hashes (pairwise independent Bernoulli(1/2)).
    samplers: Vec<KWiseHash>,
    /// Reverse hints recorded at update time: the distinct items observed in
    /// each substream (up to `hint_cap`).  Identification at query time
    /// scans only these instead of the whole `n`-sized domain.
    hints: Vec<ReverseHints>,
    /// Construction seed, kept so merges can verify hash compatibility.
    seed: u64,
    /// Reused batch-ingestion scratch for `update_batch`.
    scratch: IngestScratch<GnpScratch>,
}

impl GnpHeavyHitter {
    /// Create the sketch with `substreams` hash buckets and `trials`
    /// independent trials per bucket, with the default reverse-hint cap
    /// ([`DEFAULT_HINT_CAP`] per substream).
    pub fn new(substreams: usize, trials: usize, seed: u64) -> Self {
        Self::with_hint_cap(substreams, trials, DEFAULT_HINT_CAP, seed)
    }

    /// Create the sketch with an explicit reverse-hint cap per substream —
    /// the space / identification-speed tradeoff knob (threaded from
    /// [`GSumConfig::hint_cap`] by [`NearlyPeriodicGSum`]).
    pub fn with_hint_cap(substreams: usize, trials: usize, hint_cap: usize, seed: u64) -> Self {
        assert!(substreams >= 1 && trials >= 1, "degenerate dimensions");
        assert!(hint_cap >= 1, "hint cap must be at least 1");
        let seeds = derive_seeds(seed ^ 0x6e9_0a16, trials + 1);
        Self {
            substreams,
            trials,
            hint_cap,
            counters: vec![0i64; substreams * trials],
            split: BucketHash::new(substreams as u64, seeds[trials]),
            samplers: seeds[..trials]
                .iter()
                .map(|&s| KWiseHash::new(2, s))
                .collect(),
            hints: vec![ReverseHints::new(hint_cap); substreams],
            seed,
            scratch: IngestScratch::default(),
        }
    }

    /// The reverse-hint cap per substream.
    pub fn hint_cap(&self) -> usize {
        self.hint_cap
    }

    #[inline]
    fn cell(&self, substream: usize, trial: usize) -> usize {
        substream * self.trials + trial
    }

    /// Recover the single candidate heavy hitter of a substream, if the
    /// trial pattern identifies one unambiguously.
    fn recover_substream(&self, substream: usize, domain: u64) -> Option<(u64, f64)> {
        // The best (largest) g_np value observed across trials.
        let mut best_value = 0.0f64;
        for trial in 0..self.trials {
            let m = self.counters[self.cell(substream, trial)];
            if m != 0 {
                let v = GnpFunction::new().eval(m.unsigned_abs());
                if v > best_value {
                    best_value = v;
                }
            }
        }
        if best_value <= 0.0 {
            return None;
        }
        // Trials achieving the maximum are exactly those that sampled the
        // heaviest item (when the hashing isolated it).
        let maximizing: Vec<bool> = (0..self.trials)
            .map(|trial| {
                let m = self.counters[self.cell(substream, trial)];
                m != 0 && (GnpFunction::new().eval(m.unsigned_abs()) - best_value).abs() < 1e-12
            })
            .collect();
        // A genuine single heavy hitter is sampled in about half the trials.
        let count = maximizing.iter().filter(|&&b| b).count();
        if count == 0 || count == self.trials {
            return None;
        }
        // Identify the unique item in this substream whose sampling pattern
        // matches the maximizing trials.  Only the items actually observed in
        // this substream (the reverse hints stored at update time) can carry
        // mass, so the scan is over the substream's support — not the whole
        // `n`-sized domain — unless the substream saturated its hint budget,
        // in which case we fall back to the domain scan.  The two scans are
        // deliberately not identical on noise cases: an *unobserved* item
        // whose sampling pattern happens to match (probability ~2^-trials)
        // can create a spurious ambiguity (or a spurious identification) in
        // the domain scan, while the hint scan correctly ignores it — a
        // genuinely heavy item is always observed, so the hint path only ever
        // improves identification.
        let pattern_matches = |item: u64| {
            (0..self.trials).all(|trial| {
                let sampled = self.samplers[trial].hash_to_bool(item);
                sampled == maximizing[trial]
            })
        };
        let mut found: Option<u64> = None;
        if self.hints[substream].is_saturated() {
            for item in 0..domain {
                if self.split.bucket(item) as usize != substream {
                    continue;
                }
                if pattern_matches(item) {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some(item);
                }
            }
        } else {
            for item in self.hints[substream].iter() {
                if item >= domain {
                    continue;
                }
                debug_assert_eq!(self.split.bucket(item) as usize, substream);
                if pattern_matches(item) {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some(item);
                }
            }
        }
        found.map(|item| (item, best_value))
    }
}

impl StreamSink for GnpHeavyHitter {
    fn update(&mut self, update: Update) {
        let substream = self.split.bucket(update.item) as usize;
        self.hints[substream].record(update.item);
        for trial in 0..self.trials {
            if self.samplers[trial].hash_to_bool(update.item) {
                let idx = self.cell(substream, trial);
                self.counters[idx] = self.counters[idx].wrapping_add(update.delta);
            }
        }
    }

    /// Batched fast path: duplicate items coalesce exactly mod 2⁶⁴ (the
    /// counters are linear), then the whole batch runs in structure-of-arrays
    /// passes instead of a per-item loop — the split hash maps every distinct
    /// key to its substream in one hoisted-coefficient pass
    /// ([`BucketHash::bucket_many`]), hint recording is skipped outright once
    /// every substream has saturated (the steady state of over-cap streams),
    /// and each trial's pairwise sampler polynomial is evaluated over the
    /// whole key slice with coefficients hoisted ([`KWiseHash::hash_many`]).
    /// Counter adds are exact mod 2⁶⁴ and hint saturation is a function of
    /// the distinct-item set, so reordering item-major work into trial-major
    /// passes is bit-identical to a per-update replay (`coalesce_updates`
    /// keeps net-zero items, so the observed support matches too).
    fn update_batch(&mut self, updates: &[Update]) {
        let GnpScratch {
            coalesce,
            keys,
            deltas,
            subs,
            values,
        } = &mut self.scratch.buf;
        let coalesced = coalesce_into(updates, coalesce);
        if coalesced.is_empty() {
            return;
        }
        keys.clear();
        deltas.clear();
        for u in coalesced {
            keys.push(u.item);
            deltas.push(u.delta);
        }
        self.split.bucket_many(keys, subs);
        if self.hints.iter().any(|h| !h.is_saturated()) {
            for (&sub, &item) in subs.iter().zip(keys.iter()) {
                self.hints[sub as usize].record(item);
            }
        }
        let trials = self.trials;
        for (trial, sampler) in self.samplers.iter().enumerate() {
            sampler.hash_many(keys, values);
            for t in 0..keys.len() {
                if values[t] & 1 == 1 {
                    let counter = &mut self.counters[subs[t] as usize * trials + trial];
                    *counter = counter.wrapping_add(deltas[t]);
                }
            }
        }
    }
}

/// The low-bit counters are linear in the frequency vector, so identically
/// seeded sketches merge by adding counters (and uniting the reverse hints).
impl MergeableSketch for GnpHeavyHitter {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.substreams != other.substreams
            || self.trials != other.trials
            || self.hint_cap != other.hint_cap
            || self.seed != other.seed
        {
            return Err(MergeError::new(
                "g_np heavy-hitter merge requires identical shape, hint cap and seed",
            ));
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.wrapping_add(*b);
        }
        // Unite the reverse hints.  Saturation is a function of the union of
        // distinct items, so the merged state matches what single-threaded
        // ingestion of the concatenated stream would have produced.
        for (mine, theirs) in self.hints.iter_mut().zip(other.hints.iter()) {
            mine.merge_from(theirs);
        }
        Ok(())
    }
}

impl HeavyHitterSketch for GnpHeavyHitter {
    fn cover(&self, domain: u64) -> GCover {
        let pairs = (0..self.substreams)
            .filter_map(|c| self.recover_substream(c, domain))
            .collect();
        GCover::from_pairs(pairs)
    }

    fn space_words(&self) -> usize {
        // Counters, hash descriptions, and the reverse hints (one word per
        // stored hint, capped at `hint_cap` per substream — the bounded
        // price of O(support) identification).
        self.counters.len()
            + 4 * (self.samplers.len() + 1)
            + self.hints.iter().map(ReverseHints::len).sum::<usize>()
    }
}

/// The g_np sketch's state is its linear low-bit counters, the seeds the
/// split/sampling hashes re-derive from, and the reverse hints.
impl Checkpoint for GnpHeavyHitter {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::GNP_HEAVY_HITTER)?;
        checkpoint::write_u64(w, self.substreams as u64)?;
        checkpoint::write_u64(w, self.trials as u64)?;
        checkpoint::write_u64(w, self.hint_cap as u64)?;
        checkpoint::write_u64(w, self.seed)?;
        checkpoint::write_i64_slice(w, &self.counters)?;
        for hints in &self.hints {
            hints.save_body(w)?;
        }
        Ok(())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::GNP_HEAVY_HITTER)?;
        let substreams = checkpoint::read_len(r)?;
        let trials = checkpoint::read_len(r)?;
        let hint_cap = checkpoint::read_len(r)?;
        let seed = checkpoint::read_u64(r)?;
        if substreams == 0 || trials == 0 || hint_cap == 0 {
            return Err(CheckpointError::Corrupt(
                "g_np sketch needs positive substreams, trials and hint cap".into(),
            ));
        }
        let cells = substreams
            .checked_mul(trials)
            .ok_or_else(|| CheckpointError::Corrupt("substreams × trials overflows".into()))?;
        let counters = checkpoint::read_i64_counters(r, cells, "g_np counters")?;
        let mut hints = Vec::with_capacity(substreams.min(1 << 16));
        for _ in 0..substreams {
            hints.push(ReverseHints::restore_body(r, hint_cap)?);
        }
        let mut sketch = Self::with_hint_cap(substreams, trials, hint_cap, seed);
        sketch.counters = counters;
        sketch.hints = hints;
        Ok(sketch)
    }
}

/// The 1-pass `g_np`-SUM estimator: the Proposition-54 heavy-hitter routine
/// inside the recursive sketch.
#[derive(Debug, Clone)]
pub struct NearlyPeriodicGSum {
    config: GSumConfig,
    substreams: usize,
    trials: usize,
}

impl NearlyPeriodicGSum {
    /// Create the estimator.  The number of substreams and trials per level
    /// are derived from the configured candidate budget.
    pub fn new(config: GSumConfig) -> Self {
        let substreams =
            (config.candidates_per_level * config.candidates_per_level).clamp(16, 4096);
        let trials = (2 * GSumConfig::default_levels(config.domain)).clamp(12, 40);
        Self {
            config,
            substreams,
            trials,
        }
    }

    /// Substreams per level.
    pub fn substreams(&self) -> usize {
        self.substreams
    }

    /// Trials per substream.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// A fresh long-lived push-based sketch state with an explicit seed: the
    /// Proposition-54 routine per level of the recursive reduction.  The
    /// returned sketch is a [`StreamSink`] and a
    /// [`MergeableSketch`], so it can absorb live updates and participate in
    /// sharded ingestion.
    pub fn sketch_with_seed(&self, seed: u64) -> RecursiveSketch<GnpHeavyHitter> {
        let substreams = self.substreams;
        let trials = self.trials;
        let hint_cap = self.config.hint_cap;
        RecursiveSketch::new(
            self.config.domain,
            self.config.levels,
            seed,
            move |_level, level_seed| {
                GnpHeavyHitter::with_hint_cap(substreams, trials, hint_cap, level_seed)
            },
        )
    }

    /// A fresh long-lived sketch state with the configured seed.
    pub fn sketch(&self) -> RecursiveSketch<GnpHeavyHitter> {
        self.sketch_with_seed(self.config.seed)
    }

    /// Estimate with an explicit seed override.
    pub fn estimate_with_seed(&self, stream: &TurnstileStream, seed: u64) -> f64 {
        let mut sketch = self.sketch_with_seed(seed);
        sketch.process_stream(stream);
        sketch.estimate().max(0.0)
    }
}

impl GSumEstimator for NearlyPeriodicGSum {
    fn estimate(&self, stream: &TurnstileStream) -> f64 {
        self.estimate_with_seed(stream, self.config.seed)
    }

    fn passes(&self) -> usize {
        1
    }

    fn space_words(&self) -> usize {
        self.sketch().space_words()
    }

    fn estimate_median(&self, stream: &TurnstileStream, repetitions: usize) -> f64 {
        median_over_repetitions(repetitions, |r| {
            self.estimate_with_seed(stream, self.config.seed.wrapping_add(r as u64 * 31))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsum::{exact_gsum, relative_error};
    use gsum_streams::{FrequencyPrescribedGenerator, StreamGenerator};

    /// A stream whose frequencies are powers of two and odd values — the
    /// regime where g_np actually varies.
    fn gnp_stream(domain: u64, seed: u64) -> TurnstileStream {
        FrequencyPrescribedGenerator::new(
            domain,
            vec![(1024, 1), (64, 3), (8, 10), (3, 40), (1, 100)],
            seed,
        )
        .with_bulk_updates()
        .generate()
    }

    #[test]
    fn heavy_hitter_routine_finds_the_gnp_heavy_item() {
        // One item with an odd frequency (g_np = 1) among items whose
        // frequencies are multiples of 64 (g_np ≤ 1/64): the odd item is a
        // strong g_np-heavy hitter.
        let domain = 256u64;
        let mut stream = TurnstileStream::new(domain);
        stream.push_delta(17, 5); // odd: g_np = 1
        for item in 30..40u64 {
            stream.push_delta(item, 64 * (item as i64 - 28));
        }
        let mut hh = GnpHeavyHitter::new(64, 20, 9);
        for &u in stream.iter() {
            hh.update(u);
        }
        let cover = hh.cover(domain);
        assert!(cover.contains(17), "cover {:?}", cover);
        assert!((cover.weight(17).unwrap() - 1.0).abs() < 1e-12);
        assert!(hh.space_words() >= 64 * 20);
    }

    #[test]
    fn hint_saturation_keeps_space_bounded_and_falls_back_to_domain_scan() {
        // One substream, far more distinct items than the hint cap: the
        // substream must saturate (hints freed, space bounded) and queries
        // must still work through the domain-scan fallback.
        let domain = 4096u64;
        let trials = 16usize;
        let mut hh = GnpHeavyHitter::new(1, trials, 3);
        for item in 0..2000u64 {
            hh.update(Update::new(item, 2)); // even: g_np ≤ 1/2 everywhere
        }
        let baseline = hh.space_words();
        assert!(
            baseline < trials + 4 * (trials + 1) + 600,
            "hints must stay capped: {baseline} words"
        );
        // More distinct items must not grow the hint storage further.
        for item in 2000..3000u64 {
            hh.update(Update::new(item, 2));
        }
        assert_eq!(hh.space_words(), baseline);
        // The cover query still runs (domain-scan fallback), no panic.
        let _ = hh.cover(domain);
    }

    #[test]
    fn hint_cap_is_tunable_and_checked_by_merge() {
        let mut tight = GnpHeavyHitter::with_hint_cap(1, 8, 4, 3);
        assert_eq!(tight.hint_cap(), 4);
        for item in 0..16u64 {
            tight.update(Update::new(item, 2));
        }
        // A cap of 4 saturates immediately on 16 distinct items...
        let saturated_space = tight.space_words();
        for item in 16..32u64 {
            tight.update(Update::new(item, 2));
        }
        assert_eq!(tight.space_words(), saturated_space);
        // ...and merges refuse a differently-capped sketch.
        let default_cap = GnpHeavyHitter::new(1, 8, 3);
        assert_eq!(default_cap.hint_cap(), DEFAULT_HINT_CAP);
        assert!(tight.merge(&default_cap).is_err());
    }

    #[test]
    fn checkpoint_roundtrip_preserves_cover_and_hints() {
        let domain = 256u64;
        let mut stream = TurnstileStream::new(domain);
        stream.push_delta(17, 5);
        for item in 30..40u64 {
            stream.push_delta(item, 64 * (item as i64 - 28));
        }
        let mut hh = GnpHeavyHitter::new(64, 20, 9);
        hh.process_stream(&stream);
        let bytes = hh.to_checkpoint_bytes().unwrap();
        let restored = GnpHeavyHitter::from_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(restored.cover(domain), hh.cover(domain));
        assert_eq!(restored.space_words(), hh.space_words());
        assert_eq!(restored.hint_cap(), hh.hint_cap());
        // Truncations fail instead of panicking.
        assert!(GnpHeavyHitter::from_checkpoint_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn gnp_sum_estimate_tracks_truth() {
        let domain = 1u64 << 10;
        let stream = gnp_stream(domain, 5);
        let truth = exact_gsum(&GnpFunction::new(), &stream.frequency_vector());
        let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(domain, 0.2, 256, 7));
        let approx = est.estimate_median(&stream, 5);
        let rel = relative_error(approx, truth);
        assert!(
            rel < 0.4,
            "estimate {approx} vs truth {truth} (relative error {rel})"
        );
    }

    #[test]
    fn estimator_metadata() {
        let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(256, 0.2, 64, 1));
        assert_eq!(est.passes(), 1);
        assert!(est.substreams() >= 16);
        assert!(est.trials() >= 12);
        assert!(est.space_words() > est.substreams() * est.trials());
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(64, 0.2, 64, 1));
        assert_eq!(est.estimate(&TurnstileStream::new(64)), 0.0);
    }
}
