//! The `(a, b, c)`-DIST counter algorithm (Proposition 49).
//!
//! ShortLinearCombination asks: the frequency vector is promised to take
//! values only in `{0, ±a, ±b}`, except possibly one coordinate that takes
//! the value `±c`; decide whether such a coordinate exists.  Writing
//! `c = p·a + q·b` with `q` of minimum total magnitude, Theorem 48 proves an
//! `Ω(n/q²)` space lower bound and Proposition 49 matches it:
//!
//! * partition the universe into `t = Θ̃(n / q²)` pieces;
//! * for each piece keep the signed counter `C_i = Σ_{h(l)=i} ξ_l v_l` with
//!   4-wise independent signs `ξ`;
//! * with high probability each piece's signed multiplicity of `b`-valued
//!   coordinates stays below `|q|/4`, in which case the residue `C_i mod a`
//!   lands in a set that is disjoint between the "no `c`" and "some `c`"
//!   cases (by the minimality of `q`), so reading the residues decides the
//!   problem.

use gsum_hash::{derive_seeds, BucketHash, SignHash};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{IngestScratch, MergeError, MergeableSketch, StreamSink, Update};
use std::collections::BTreeSet;
use std::io::{Read, Write};

/// The verdict of the DIST decision procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistVerdict {
    /// Some coordinate has frequency `±c`.
    HasTargetFrequency,
    /// All coordinates have frequencies in `{0, ±a, ±b}`.
    NoTargetFrequency,
}

/// The streaming counter structure of Proposition 49.
#[derive(Debug, Clone)]
pub struct DistCounter {
    a: i64,
    b: i64,
    c: i64,
    /// Minimal-coefficient `q` with `p·a + q·b = c`.
    q: i64,
    pieces: usize,
    counters: Vec<i64>,
    split: BucketHash,
    signs: SignHash,
    /// Construction seed, kept so merges can verify hash compatibility.
    seed: u64,
    /// Residues of `z·b (mod a)` for `|z| ≤ |q|/4` — the values compatible
    /// with "no `c` present".
    allowed_residues: BTreeSet<i64>,
    /// Reused coalesce scratch for `update_batch`.
    scratch: IngestScratch<Vec<Update>>,
}

impl DistCounter {
    /// Create the structure for the `(a, b, c)`-DIST problem over a domain of
    /// size `domain`, with the number of pieces chosen as
    /// `t = min(domain, ⌈κ · domain · ln(domain+2) / q²⌉)` for the given
    /// oversampling constant `κ` (use [`DistCounter::new`] for the default).
    ///
    /// # Panics
    /// Panics if `a, b, c` are not positive and distinct, or if `c` is not an
    /// integer combination of `a` and `b` (i.e. `gcd(a, b) ∤ c`).
    pub fn with_oversampling(domain: u64, a: u64, b: u64, c: u64, kappa: f64, seed: u64) -> Self {
        assert!(a > 0 && b > 0 && c > 0, "frequencies must be positive");
        assert!(c != a && c != b, "c must differ from a and b");
        assert!(domain > 0, "domain must be positive");
        let (a, b, c) = (a as i64, b as i64, c as i64);
        let q = Self::minimal_q(a, b, c)
            .expect("c must be an integer combination of a and b (gcd(a,b) divides c)");
        let q_abs = q.unsigned_abs().max(1);
        let pieces = ((kappa * domain as f64 * ((domain + 2) as f64).ln()
            / (q_abs as f64 * q_abs as f64))
            .ceil() as u64)
            .clamp(1, domain) as usize;
        Self::from_parts(a, b, c, pieces, seed).expect("q already verified to exist")
    }

    /// Assemble the structure from `(a, b, c)`, an explicit piece count and
    /// the seed, re-deriving `q`, the residue set and the hash functions —
    /// the single code path shared by [`with_oversampling`](Self::with_oversampling)
    /// and checkpoint rehydration.  `None` when `c` is not an integer
    /// combination of `a` and `b`.
    fn from_parts(a: i64, b: i64, c: i64, pieces: usize, seed: u64) -> Option<Self> {
        let q = Self::minimal_q(a, b, c)?;
        let seeds = derive_seeds(seed ^ 0xd157_c047, 2);
        let allowed_residues = Self::residue_set(a, b, q);
        Some(Self {
            a,
            b,
            c,
            q,
            pieces,
            counters: vec![0i64; pieces],
            split: BucketHash::new(pieces as u64, seeds[0]),
            signs: SignHash::new(seeds[1]),
            seed,
            allowed_residues,
            scratch: IngestScratch::default(),
        })
    }

    /// Create the structure with the default oversampling constant (32).
    pub fn new(domain: u64, a: u64, b: u64, c: u64, seed: u64) -> Self {
        Self::with_oversampling(domain, a, b, c, 32.0, seed)
    }

    /// The minimal-|q| integer with `p·a + q·b = c` for some integer `p`
    /// (ties broken towards positive `q`), or `None` if no combination
    /// exists.
    pub fn minimal_q(a: i64, b: i64, c: i64) -> Option<i64> {
        // Search |q| = 0, 1, 2, ... and check whether (c − q b) is divisible
        // by a.  The minimal |q| is at most a (Lemma 47), so the search is
        // bounded.
        for mag in 0..=a.unsigned_abs() {
            for &q in &[mag as i64, -(mag as i64)] {
                if (c - q * b).rem_euclid(a) == 0 {
                    return Some(q);
                }
            }
        }
        None
    }

    /// Residues `z·b mod a` compatible with "no c present".
    ///
    /// Disjointness of the two cases needs the signed per-piece multiplicity
    /// of `b`-valued coordinates to stay within a margin `B` with
    /// `2B < |q|` (two multiplicities differing by less than `|q|` cannot
    /// bridge the residue `c`, by the minimality of `q`); the largest such
    /// margin is `B = ⌊(|q| − 1)/2⌋`.  For `|q| ≤ 2` the margin is zero and
    /// the problem genuinely requires near-linear space, exactly as the
    /// Ω(n/q²) lower bound of Theorem 48 says.
    fn residue_set(a: i64, b: i64, q: i64) -> BTreeSet<i64> {
        let bound = (q.abs() - 1) / 2;
        (-bound..=bound).map(|z| (z * b).rem_euclid(a)).collect()
    }

    /// The minimal coefficient `q` (its square is the space lower bound's
    /// denominator).
    pub fn q(&self) -> i64 {
        self.q
    }

    /// The number of pieces (counters) — the algorithm's space, up to the two
    /// hash functions.
    pub fn pieces(&self) -> usize {
        self.pieces
    }

    /// Number of 64-bit words of state.
    pub fn space_words(&self) -> usize {
        self.counters.len() + 8 + self.allowed_residues.len()
    }

    /// Decide whether a `±c` coordinate is present.
    pub fn verdict(&self) -> DistVerdict {
        for &counter in &self.counters {
            let residue = counter.rem_euclid(self.a);
            if !self.allowed_residues.contains(&residue) {
                return DistVerdict::HasTargetFrequency;
            }
        }
        DistVerdict::NoTargetFrequency
    }

    /// The `(a, b, c)` triple.
    pub fn frequencies(&self) -> (i64, i64, i64) {
        (self.a, self.b, self.c)
    }
}

impl StreamSink for DistCounter {
    fn update(&mut self, update: Update) {
        let piece = self.split.bucket(update.item) as usize;
        let signed = self.signs.sign(update.item).wrapping_mul(update.delta);
        self.counters[piece] = self.counters[piece].wrapping_add(signed);
    }

    /// Batched fast path: the signed piece counters are linear and wrap
    /// (exact mod 2⁶⁴), so duplicate items coalesce exactly and are hashed
    /// once per batch.
    fn update_batch(&mut self, updates: &[Update]) {
        // Detach the reusable buffer so `self.update` can borrow all of
        // `self` inside the loop; put it back (capacity intact) when done.
        let mut buf = std::mem::take(&mut self.scratch.buf);
        for &u in gsum_streams::coalesce_into(updates, &mut buf) {
            self.update(u);
        }
        self.scratch.buf = buf;
    }
}

/// The signed piece counters are linear in the frequency vector, so
/// identically configured counters merge by addition.
impl MergeableSketch for DistCounter {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if (self.a, self.b, self.c) != (other.a, other.b, other.c)
            || self.pieces != other.pieces
            || self.seed != other.seed
        {
            return Err(MergeError::new(
                "DIST-counter merge requires identical (a, b, c), pieces and seed",
            ));
        }
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine = mine.wrapping_add(*theirs);
        }
        Ok(())
    }
}

/// The DIST counter's state is its signed piece counters plus the
/// `(a, b, c, pieces, seed)` tuple everything else (`q`, the residue set,
/// both hash functions) re-derives from.
impl Checkpoint for DistCounter {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::DIST_COUNTER)?;
        checkpoint::write_i64(w, self.a)?;
        checkpoint::write_i64(w, self.b)?;
        checkpoint::write_i64(w, self.c)?;
        checkpoint::write_u64(w, self.pieces as u64)?;
        checkpoint::write_u64(w, self.seed)?;
        checkpoint::write_i64_slice(w, &self.counters)?;
        Ok(())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::DIST_COUNTER)?;
        let a = checkpoint::read_i64(r)?;
        let b = checkpoint::read_i64(r)?;
        let c = checkpoint::read_i64(r)?;
        let pieces = checkpoint::read_len(r)?;
        let seed = checkpoint::read_u64(r)?;
        if a <= 0 || b <= 0 || c <= 0 || c == a || c == b || pieces == 0 {
            return Err(CheckpointError::Corrupt(
                "invalid (a, b, c) or piece count".into(),
            ));
        }
        let counters = checkpoint::read_i64_counters(r, pieces, "DIST counters")?;
        let mut counter = Self::from_parts(a, b, c, pieces, seed).ok_or_else(|| {
            CheckpointError::Corrupt("c is not an integer combination of a and b".into())
        })?;
        counter.counters = counters;
        Ok(counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_hash::Xoshiro256;
    use gsum_streams::TurnstileStream;

    /// Build a V0 / V1 instance: `count_a` coordinates at ±a, `count_b` at
    /// ±b, and optionally one coordinate at ±c.
    #[allow(clippy::too_many_arguments)]
    fn instance(
        domain: u64,
        a: i64,
        b: i64,
        c: i64,
        count_a: u64,
        count_b: u64,
        plant_c: bool,
        seed: u64,
    ) -> TurnstileStream {
        let mut rng = Xoshiro256::new(seed);
        let mut stream = TurnstileStream::new(domain);
        let mut used = std::collections::HashSet::new();
        let fresh_item = |rng: &mut Xoshiro256, used: &mut std::collections::HashSet<u64>| loop {
            let i = rng.next_below(domain);
            if used.insert(i) {
                return i;
            }
        };
        for _ in 0..count_a {
            let item = fresh_item(&mut rng, &mut used);
            let sign = if rng.next_bool() { 1 } else { -1 };
            stream.push_delta(item, sign * a);
        }
        for _ in 0..count_b {
            let item = fresh_item(&mut rng, &mut used);
            let sign = if rng.next_bool() { 1 } else { -1 };
            stream.push_delta(item, sign * b);
        }
        if plant_c {
            let item = fresh_item(&mut rng, &mut used);
            let sign = if rng.next_bool() { 1 } else { -1 };
            stream.push_delta(item, sign * c);
        }
        stream
    }

    #[test]
    fn minimal_q_examples() {
        // gcd(5,3)=1: 1 = 2*3 - 1*5 → c=1: q = 2 (p = -1) or q=-1? check:
        // (1 - q*3) % 5 == 0: q=2 → 1-6=-5 ✓; q=-3 → 10 ✓; smallest |q| among
        // {..}: q = 2? also q = -1 → 4 % 5 ≠ 0; q = 1 → -2 % 5 ≠ 0. So 2.
        assert_eq!(DistCounter::minimal_q(5, 3, 1), Some(2));
        // c = 8 = 1*5 + 1*3: q = 1.
        assert_eq!(DistCounter::minimal_q(5, 3, 8), Some(1));
        // a = 6, b = 4: gcd 2; c = 7 odd → impossible.
        assert_eq!(DistCounter::minimal_q(6, 4, 7), None);
        // a = 6, b = 4, c = 2: 2 = 1*6 - 1*4 → |q| = 1.
        assert_eq!(DistCounter::minimal_q(6, 4, 2).map(i64::abs), Some(1));
        // a = 100, b = 99, c = 1: 1 = 1*100 - 1*99 → q = -1.
        assert_eq!(DistCounter::minimal_q(100, 99, 1).map(i64::abs), Some(1));
    }

    #[test]
    #[should_panic(expected = "combination")]
    fn impossible_target_panics() {
        let _ = DistCounter::new(100, 6, 4, 7, 1);
    }

    #[test]
    fn detects_planted_target_frequency() {
        // (a, b, c) = (11, 9, 1): 9·5 = 45 ≡ 1 (mod 11), so q = 5 and the
        // residue margin is 2 — comfortably achievable with n/q² pieces.
        let domain = 1u64 << 12;
        let (a, b, c) = (11u64, 9u64, 1u64);
        assert_eq!(DistCounter::minimal_q(11, 9, 1).map(i64::abs), Some(5));
        let mut errors = 0;
        for seed in 0..10u64 {
            let with_c = instance(domain, 11, 9, 1, 200, 200, true, seed);
            let without_c = instance(domain, 11, 9, 1, 200, 200, false, seed + 100);

            let mut d1 = DistCounter::new(domain, a, b, c, seed * 3 + 1);
            d1.process_stream(&with_c);
            if d1.verdict() != DistVerdict::HasTargetFrequency {
                errors += 1;
            }

            let mut d0 = DistCounter::new(domain, a, b, c, seed * 3 + 2);
            d0.process_stream(&without_c);
            if d0.verdict() != DistVerdict::NoTargetFrequency {
                errors += 1;
            }
        }
        // The algorithm succeeds with probability ≥ 2/3 per instance; over 20
        // decisions a handful of errors would already be suspicious.
        assert!(errors <= 3, "too many DIST errors: {errors}/20");
    }

    #[test]
    fn space_scales_inversely_with_q_squared() {
        let domain = 1u64 << 14;
        // Smaller minimal coefficient ⇒ more pieces (more space), matching
        // the Θ(n/q²) bound: (5, 3, 1) has q = 2, (11, 9, 1) has q = 5.
        let d_small_q = DistCounter::new(domain, 5, 3, 1, 3); // q = 2
        let d_large_q = DistCounter::new(domain, 11, 9, 1, 3); // q = 5
        assert_eq!(d_small_q.q().abs(), 2);
        assert_eq!(d_large_q.q().abs(), 5);
        assert!(d_small_q.pieces() >= d_large_q.pieces());
        // Pieces never exceed the domain (exact counting fallback).
        assert!(d_small_q.pieces() as u64 <= domain);
        assert!(d_small_q.space_words() >= d_small_q.pieces());
    }

    #[test]
    fn empty_stream_reports_no_target() {
        let d = DistCounter::new(256, 5, 3, 1, 9);
        assert_eq!(d.verdict(), DistVerdict::NoTargetFrequency);
        assert_eq!(d.frequencies(), (5, 3, 1));
    }

    #[test]
    fn sharded_halves_merge_to_the_same_verdict_state() {
        let domain = 1u64 << 10;
        let stream = instance(domain, 11, 9, 1, 100, 100, true, 33);
        let mut whole = DistCounter::new(domain, 11, 9, 1, 5);
        whole.process_stream(&stream);

        let (front, back) = stream.updates().split_at(stream.len() / 2);
        let mut a = DistCounter::new(domain, 11, 9, 1, 5);
        a.update_batch(front);
        let mut b = DistCounter::new(domain, 11, 9, 1, 5);
        b.update_batch(back);
        a.merge(&b).unwrap();

        assert_eq!(a.counters, whole.counters);
        assert_eq!(a.verdict(), whole.verdict());

        // Seed or parameter mismatches are rejected.
        let other_seed = DistCounter::new(domain, 11, 9, 1, 6);
        assert!(a.merge(&other_seed).is_err());
    }

    #[test]
    fn single_c_coordinate_alone_is_detected() {
        let mut d = DistCounter::new(256, 11, 9, 1, 4);
        d.update(Update::new(42, 1));
        assert_eq!(d.verdict(), DistVerdict::HasTargetFrequency);
    }

    #[test]
    fn larger_coefficient_targets_still_detected_with_enough_pieces() {
        // (a, b, c) = (7, 5, 1): 1 = 3*5 - 2*7 → q = 3.
        assert_eq!(DistCounter::minimal_q(7, 5, 1).map(i64::abs), Some(3));
        let domain = 1u64 << 12;
        let with_c = instance(domain, 7, 5, 1, 150, 150, true, 11);
        let mut d = DistCounter::new(domain, 7, 5, 1, 21);
        d.process_stream(&with_c);
        assert_eq!(d.verdict(), DistVerdict::HasTargetFrequency);
    }
}
