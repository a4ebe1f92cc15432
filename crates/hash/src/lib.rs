//! # gsum-hash
//!
//! Hashing and pseudo-randomness substrate for the `zerolaw` workspace.
//!
//! Every sketch in the paper (CountSketch, the AMS F₂ sketch, the recursive
//! sketch, the `g_np` low-bit algorithm and the `(a,b,c)`-DIST counter
//! algorithm) needs limited-independence hash functions:
//!
//! * **k-wise independent hash families** evaluated as degree-`(k-1)`
//!   polynomials over the Mersenne-prime field `GF(2^61 - 1)`
//!   ([`KWiseHash`], [`prime`]).
//! * **Sign hashes** mapping items to `{-1, +1}` with 4-wise independence
//!   ([`SignHash`]), as required by CountSketch and AMS.
//! * **Bucket hashes** mapping items to `[b]` ([`BucketHash`]), used to split
//!   a stream into substreams (recursive sketch levels, the `g_np` algorithm,
//!   the DIST counter algorithm).
//! * **Pluggable row backends** ([`HashBackend`], [`RowHasher`]): the fused
//!   per-row `(bucket, sign)` evaluation the sketches' ingestion hot path is
//!   written against, selectable between the polynomial family and
//!   [`TabulationHash`], both with division-free multiply-shift reduction.
//! * A small, fully deterministic PRNG ([`rng::SplitMix64`] /
//!   [`rng::Xoshiro256`]) used to derive seeds, so that every sketch in the
//!   workspace is reproducible from a single `u64` seed without depending on
//!   the `rand` crate.
//!
//! The crate is `no_std`-friendly in spirit (no allocation beyond small
//! `Vec`s of coefficients) and has no external dependencies.

pub mod backend;
pub mod bucket;
pub mod kwise;
pub mod prime;
pub mod rng;
pub mod sign;
pub mod tabulation;

pub use backend::{HashBackend, RowHasher};
pub use bucket::BucketHash;
pub use kwise::KWiseHash;
pub use prime::MERSENNE_PRIME_61;
pub use rng::{SeedSequence, SplitMix64, Xoshiro256};
pub use sign::{
    signed_sum_i64_packed, signed_sums_block_i64, SignBank, SignFamily, SignHash, SignHashBank,
    TabSignBank, SIGN_BLOCK,
};
pub use tabulation::TabulationHash;

/// Convenience: derive a family of `count` independent seeds from a master
/// seed. Used throughout the workspace when a data structure needs several
/// internal hash functions ("rows" of a CountSketch, levels of a recursive
/// sketch, ...).
pub fn derive_seeds(master: u64, count: usize) -> Vec<u64> {
    let mut seq = SeedSequence::new(master);
    (0..count).map(|_| seq.next_seed()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seeds_distinct_and_deterministic() {
        let a = derive_seeds(42, 16);
        let b = derive_seeds(42, 16);
        assert_eq!(a, b);
        for i in 0..a.len() {
            for j in 0..i {
                assert_ne!(a[i], a[j], "seeds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn derive_seeds_depends_on_master() {
        assert_ne!(derive_seeds(1, 8), derive_seeds(2, 8));
    }

    #[test]
    fn derive_seeds_zero_count() {
        assert!(derive_seeds(7, 0).is_empty());
    }
}
