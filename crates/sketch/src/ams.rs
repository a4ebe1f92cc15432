//! The AMS "tug of war" sketch for `F₂ = Σ v_i²` (Alon–Matias–Szegedy 1996).
//!
//! Each basic estimator keeps `Z = Σ_i σ(i) v_i` for a 4-wise independent
//! sign hash `σ`; `Z²` is an unbiased estimator of `F₂` with variance at most
//! `2 F₂²`.  Averaging `k₁` copies and taking the median of `k₂` averages
//! gives a `(1±ε)` approximation with probability `1 − δ` for
//! `k₁ = O(1/ε²)`, `k₂ = O(log 1/δ)`.
//!
//! Algorithm 2 (the paper's 1-pass heavy-hitter algorithm) uses this sketch
//! to estimate `√F₂`, which calibrates the CountSketch error when pruning
//! candidate heavy hitters.
//!
//! # Ingestion shape
//!
//! All ingestion routes through the item-outer block kernels: the sign bank
//! fills a packed `items × counters` sign matrix once per batch
//! ([`gsum_hash::SignBank`]), and the counters then stream their packed bit
//! rows with branchless ± accumulation.  The per-update path is literally
//! the batch path at block length 1, so there is one sign-evaluation
//! implementation to keep bit-exact rather than two kept aligned by hand.
//!
//! # Sign families
//!
//! The sign source is selectable via [`SignFamily`]: 4-wise polynomials by
//! default (the independence the `Var[Z²] ≤ 2F₂²` proof consumes), or simple
//! tabulation (3-wise, faster, heuristic variance constant — see
//! [`gsum_hash::sign`] for the full trade-off).  Sketches of different
//! families refuse to merge and checkpoints carry the family tag.

use crate::error::SketchError;
use crate::util::median_in_place;
use crate::FrequencySketch;
use gsum_hash::{signed_sums_block_i64, SignBank, SignFamily, SignHashBank, SIGN_BLOCK};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{coalesce_into, IngestScratch, MergeError, MergeableSketch, StreamSink, Update};
use std::io::{Read, Write};

/// Reusable working memory for [`AmsF2Sketch`] ingestion: the coalesce
/// buffer, the per-item key/power/delta columns, and the packed sign matrix
/// shared by every counter's apply loop.  Transient — never part of
/// checkpoint/merge/clone identity.
#[derive(Debug, Default)]
pub struct AmsScratch {
    coalesce: Vec<Update>,
    keys: Vec<u64>,
    x1: Vec<u64>,
    x2: Vec<u64>,
    x3: Vec<u64>,
    deltas: Vec<i64>,
    /// Tabulation word values (unused by the polynomial family).
    hv: Vec<u64>,
    /// The packed sign matrix: `sign_bytes[b * n + t]` bit `j` is the sign
    /// of counter `b * SIGN_BLOCK + j` on item `t`.
    sign_bytes: Vec<u8>,
}

/// The AMS F₂ estimator: `averages × medians` independent tug-of-war counters.
#[derive(Debug, Clone)]
pub struct AmsF2Sketch {
    /// Number of basic estimators averaged inside each group (`k₁`).
    averages: usize,
    /// Number of groups whose averages are median-combined (`k₂`).
    medians: usize,
    /// Counters, length `averages * medians`: wrapping `i64`, exact mod
    /// 2⁶⁴, converted to `f64` only by [`estimate_f2`](Self::estimate_f2).
    counters: Vec<i64>,
    signs: SignBank,
    /// Construction seed, kept so merges can verify hash compatibility.
    seed: u64,
    scratch: IngestScratch<AmsScratch>,
}

impl AmsF2Sketch {
    /// Create a sketch with explicit `(averages, medians)` shape and the
    /// default (4-wise polynomial) sign family.
    pub fn new(averages: usize, medians: usize, seed: u64) -> Result<Self, SketchError> {
        Self::with_sign_family(averages, medians, seed, SignFamily::default())
    }

    /// Create a sketch with an explicit sign family.  The polynomial family
    /// derives per-counter seeds exactly as before this knob existed, so
    /// default-family sketches are bit-compatible across versions.
    pub fn with_sign_family(
        averages: usize,
        medians: usize,
        seed: u64,
        family: SignFamily,
    ) -> Result<Self, SketchError> {
        if averages == 0 {
            return Err(SketchError::EmptyDimension {
                parameter: "averages",
            });
        }
        if medians == 0 {
            return Err(SketchError::EmptyDimension {
                parameter: "medians",
            });
        }
        let total = averages * medians;
        let signs = SignBank::from_seed(family, seed ^ 0xA115_F2F2, total);
        Ok(Self {
            averages,
            medians,
            counters: vec![0; total],
            signs,
            seed,
            scratch: IngestScratch::default(),
        })
    }

    /// The `(ε, δ)` parameterization: `averages = ceil(8/ε²)`,
    /// `medians = ceil(4 ln(1/δ))`.
    pub fn with_guarantee(epsilon: f64, delta: f64, seed: u64) -> Result<Self, SketchError> {
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(SketchError::InvalidProbability {
                parameter: "epsilon",
                value: epsilon,
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(SketchError::InvalidProbability {
                parameter: "delta",
                value: delta,
            });
        }
        let averages = (8.0 / (epsilon * epsilon)).ceil() as usize;
        let medians = (4.0 * (1.0 / delta).ln()).ceil().max(1.0) as usize;
        Self::new(averages, medians, seed)
    }

    /// The sign family this sketch draws its tug-of-war signs from.
    pub fn sign_family(&self) -> SignFamily {
        self.signs.family()
    }

    /// Current estimate of `F₂`.
    pub fn estimate_f2(&self) -> f64 {
        let mut group_means: Vec<f64> = (0..self.medians)
            .map(|g| {
                let start = g * self.averages;
                let sum: f64 = self.counters[start..start + self.averages]
                    .iter()
                    .map(|&z| (z as f64) * (z as f64))
                    .sum();
                sum / self.averages as f64
            })
            .collect();
        median_in_place(&mut group_means)
    }

    /// Current estimate of the L2 norm `√F₂`.
    pub fn estimate_l2(&self) -> f64 {
        self.estimate_f2().max(0.0).sqrt()
    }
}

impl StreamSink for AmsF2Sketch {
    /// Per-update path: the batch kernel at block length 1, so there is a
    /// single sign-evaluation and counter-apply implementation.
    fn update(&mut self, update: Update) {
        self.update_batch(std::slice::from_ref(&update));
    }

    /// Batched ingestion, item-outer: duplicates coalesce in `i64`, then the
    /// sign bank fills the packed `items × counters` sign matrix in one
    /// block-kernel sweep — the three key-power multiplications amortize
    /// over every counter *and* each counter block's coefficient loads
    /// amortize over the whole item block (AVX-512 when the host has it).
    /// The eight counters of each block then share one contiguous byte row
    /// and the same deltas, so one fused pass ([`signed_sums_block_i64`])
    /// produces all eight branchless ± sums.  Sums and counters wrap, so
    /// the counters are exact mod 2⁶⁴ and independent of accumulation
    /// order, batching, shard split and merge order.
    fn update_batch(&mut self, updates: &[Update]) {
        let AmsScratch {
            coalesce,
            keys,
            x1,
            x2,
            x3,
            deltas,
            hv,
            sign_bytes,
        } = &mut self.scratch.buf;
        let coalesced = coalesce_into(updates, coalesce);
        let n = coalesced.len();
        if n == 0 {
            return;
        }
        keys.clear();
        deltas.clear();
        for u in coalesced {
            keys.push(u.item);
            deltas.push(u.delta);
        }
        // Fill the packed sign matrix for the whole batch.
        match &self.signs {
            SignBank::Polynomial(bank) => {
                x1.clear();
                x2.clear();
                x3.clear();
                for &key in keys.iter() {
                    let (a, b, c) = SignHashBank::key_powers(key);
                    x1.push(a);
                    x2.push(b);
                    x3.push(c);
                }
                bank.eval_block(x1, x2, x3, sign_bytes);
            }
            SignBank::Tabulation(bank) => bank.eval_block(keys, hv, sign_bytes),
        }
        for (b, row) in sign_bytes.chunks_exact(n).enumerate() {
            let sums = signed_sums_block_i64(row, deltas);
            let base = b * SIGN_BLOCK;
            for (counter, &sum) in self.counters[base..].iter_mut().zip(sums.iter()) {
                *counter = counter.wrapping_add(sum);
            }
        }
    }
}

/// The tug-of-war counters are linear in the frequency vector, so two
/// sketches with the same shape, seed and sign family merge by adding
/// counters.
impl MergeableSketch for AmsF2Sketch {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.averages != other.averages
            || self.medians != other.medians
            || self.seed != other.seed
        {
            return Err(MergeError::new(
                "AMS merge requires identical shape and seed",
            ));
        }
        if self.signs.family() != other.signs.family() {
            return Err(MergeError::new(
                "AMS merge requires identical sign families",
            ));
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.wrapping_add(*b);
        }
        Ok(())
    }
}

/// The tug-of-war counters plus `(averages, medians, seed, sign family)`
/// are the whole state: restore re-derives the sign bank through
/// [`AmsF2Sketch::with_sign_family`].
impl Checkpoint for AmsF2Sketch {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::AMS_F2)?;
        checkpoint::write_u64(w, self.averages as u64)?;
        checkpoint::write_u64(w, self.medians as u64)?;
        checkpoint::write_u64(w, self.seed)?;
        checkpoint::write_sign_family(w, self.signs.family())?;
        checkpoint::write_i64_slice(w, &self.counters)?;
        Ok(())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::AMS_F2)?;
        let averages = checkpoint::read_len(r)?;
        let medians = checkpoint::read_len(r)?;
        let seed = checkpoint::read_u64(r)?;
        let family = checkpoint::read_sign_family(r)?;
        let total = averages
            .checked_mul(medians)
            .ok_or_else(|| CheckpointError::Corrupt("averages × medians overflows".into()))?;
        let counters = checkpoint::read_i64_counters(r, total, "AMS counters")?;
        let mut sketch = Self::with_sign_family(averages, medians, seed, family)
            .map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        sketch.counters = counters;
        Ok(sketch)
    }
}

impl FrequencySketch for AmsF2Sketch {
    /// The AMS sketch does not estimate individual frequencies; per-item
    /// estimates are reported as 0.  (It implements the trait so the generic
    /// stream-processing plumbing can drive it.)
    fn estimate(&self, _item: u64) -> f64 {
        0.0
    }

    fn space_words(&self) -> usize {
        self.counters.len() + self.signs.space_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_streams::{
        StreamConfig, StreamGenerator, TurnstileStream, UniformStreamGenerator, ZipfStreamGenerator,
    };

    #[test]
    fn construction_validation() {
        assert!(AmsF2Sketch::new(0, 3, 0).is_err());
        assert!(AmsF2Sketch::new(3, 0, 0).is_err());
        assert!(AmsF2Sketch::with_guarantee(0.0, 0.1, 0).is_err());
        assert!(AmsF2Sketch::with_guarantee(0.2, 0.0, 0).is_err());
        let s = AmsF2Sketch::with_guarantee(0.1, 0.05, 0).unwrap();
        assert!(s.averages >= 800);
        assert_eq!(s.sign_family(), SignFamily::Polynomial4);
    }

    #[test]
    fn exact_on_single_item() {
        // With one non-zero coordinate, Z = ±v so Z² = v² exactly — for
        // either sign family.
        for family in [SignFamily::Polynomial4, SignFamily::Tabulation] {
            let mut s = TurnstileStream::new(100);
            s.push_delta(3, 25);
            let mut ams = AmsF2Sketch::with_sign_family(4, 3, 7, family).unwrap();
            ams.process_stream(&s);
            assert!((ams.estimate_f2() - 625.0).abs() < 1e-9);
            assert!((ams.estimate_l2() - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn approximates_f2_on_uniform_stream() {
        let stream = UniformStreamGenerator::new(StreamConfig::new(512, 30_000), 11).generate();
        let truth = stream.frequency_vector().f2();
        for family in [SignFamily::Polynomial4, SignFamily::Tabulation] {
            let mut ams = AmsF2Sketch::with_sign_family(356, 12, 21, family).unwrap();
            ams.process_stream(&stream);
            let est = ams.estimate_f2();
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.2, "{}: relative error {rel}", family.name());
        }
    }

    #[test]
    fn approximates_f2_on_skewed_stream() {
        let stream =
            ZipfStreamGenerator::new(StreamConfig::new(1 << 12, 40_000), 1.3, 5).generate();
        let truth = stream.frequency_vector().f2();
        let mut ams = AmsF2Sketch::with_guarantee(0.15, 0.05, 33).unwrap();
        ams.process_stream(&stream);
        let rel = (ams.estimate_f2() - truth).abs() / truth;
        assert!(rel < 0.25, "relative error {rel} exceeds tolerance");
    }

    #[test]
    fn order_insensitive() {
        let stream = UniformStreamGenerator::new(StreamConfig::new(64, 5_000), 3).generate();
        let mut a = AmsF2Sketch::new(16, 3, 1).unwrap();
        let mut b = AmsF2Sketch::new(16, 3, 1).unwrap();
        a.process_stream(&stream);
        b.process_stream(&stream.shuffled(9));
        assert!((a.estimate_f2() - b.estimate_f2()).abs() < 1e-6);
    }

    #[test]
    fn deletions_cancel() {
        let mut s = TurnstileStream::new(10);
        s.push_delta(1, 50);
        s.push_delta(1, -50);
        s.push_delta(2, 7);
        let mut ams = AmsF2Sketch::new(8, 3, 2).unwrap();
        ams.process_stream(&s);
        assert!((ams.estimate_f2() - 49.0).abs() < 1e-9);
    }

    #[test]
    fn per_item_estimate_is_zero() {
        let ams = AmsF2Sketch::new(2, 2, 0).unwrap();
        assert_eq!(ams.estimate(5), 0.0);
    }

    #[test]
    fn merge_rejects_sign_family_mismatch() {
        let mut poly = AmsF2Sketch::with_sign_family(4, 3, 9, SignFamily::Polynomial4).unwrap();
        let tab = AmsF2Sketch::with_sign_family(4, 3, 9, SignFamily::Tabulation).unwrap();
        assert!(poly.merge(&tab).is_err());
        let poly2 = AmsF2Sketch::with_sign_family(4, 3, 9, SignFamily::Polynomial4).unwrap();
        assert!(poly.merge(&poly2).is_ok());
    }

    #[test]
    fn tabulation_family_checkpoint_roundtrips() {
        let mut ams = AmsF2Sketch::with_sign_family(8, 3, 5, SignFamily::Tabulation).unwrap();
        let mut s = TurnstileStream::new(50);
        for i in 0..50 {
            s.push_delta(i, (i as i64 % 11) - 5);
        }
        ams.process_stream(&s);
        let bytes = ams.to_checkpoint_bytes().unwrap();
        let restored = AmsF2Sketch::from_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(restored.sign_family(), SignFamily::Tabulation);
        assert_eq!(restored.counters, ams.counters);
        assert_eq!(restored.to_checkpoint_bytes().unwrap(), bytes);
    }
}
