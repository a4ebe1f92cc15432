//! The turnstile stream representation.

use crate::error::StreamError;
use crate::frequency::FrequencyVector;
use crate::sink::StreamSink;
use crate::source::StreamSource;
use crate::update::Update;

/// A turnstile stream `D ∈ D(n, m)`: a domain size `n` together with an
/// ordered list of updates.
///
/// The structure also records the magnitude bound `M` actually attained over
/// all prefixes, which the paper's model promises is `poly(n)`; algorithms use
/// [`TurnstileStream::magnitude_bound`] where the analyses refer to `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurnstileStream {
    domain: u64,
    updates: Vec<Update>,
}

impl TurnstileStream {
    /// Create an empty stream over the domain `[0, n)`.
    ///
    /// # Panics
    /// Panics if `domain == 0`.
    pub fn new(domain: u64) -> Self {
        assert!(domain > 0, "stream domain size must be positive");
        Self {
            domain,
            updates: Vec::new(),
        }
    }

    /// Create a stream from a list of updates.
    pub fn from_updates(domain: u64, updates: Vec<Update>) -> Self {
        let mut s = Self::new(domain);
        s.updates = updates;
        s
    }

    /// Domain size `n`.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Stream length `m` (number of updates).
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the stream has no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Append an update.
    pub fn push(&mut self, update: Update) {
        self.updates.push(update);
    }

    /// Append `count` unit insertions of `item` — `count` separate `(item, +1)`
    /// updates, so the stream stays valid in the *insertion-only* model that
    /// the paper's lower bounds are stated in (and that
    /// [`TurnstileStream::is_insertion_only`] detects).
    ///
    /// Callers that only care about the final frequency vector should prefer
    /// [`TurnstileStream::push_delta`], which records one bulk update and
    /// keeps the stream length — and every per-update cost downstream —
    /// independent of `count`.
    pub fn push_insertions(&mut self, item: u64, count: u64) {
        self.updates.reserve(count as usize);
        for _ in 0..count {
            self.updates.push(Update::insert(item));
        }
    }

    /// Append a single bulk update `(item, delta)`.
    pub fn push_delta(&mut self, item: u64, delta: i64) {
        if delta != 0 {
            self.updates.push(Update::new(item, delta));
        }
    }

    /// Concatenate another stream's updates onto this one (used by the
    /// communication reductions, where Alice's and Bob's portions are
    /// concatenated).
    ///
    /// # Panics
    /// Panics if the domains differ.
    pub fn extend_from(&mut self, other: &TurnstileStream) {
        assert_eq!(self.domain, other.domain, "domain mismatch");
        self.updates.extend_from_slice(&other.updates);
    }

    /// The updates, in order.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Iterate over the updates in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &Update> + '_ {
        self.updates.iter()
    }

    /// Replay the stream as a lazy [`UpdateSource`](crate::UpdateSource) —
    /// e.g. to feed a materialized stream into a sink in batches.
    pub fn source(&self) -> StreamSource<'_> {
        StreamSource::new(self)
    }

    /// Whether every update is a unit insertion (`δ = 1`), i.e. the stream is
    /// valid in the insertion-only model used by the lower bounds.
    pub fn is_insertion_only(&self) -> bool {
        self.updates.iter().all(Update::is_unit_insertion)
    }

    /// Exact frequency vector `V(D)`.
    pub fn frequency_vector(&self) -> FrequencyVector {
        let mut fv = FrequencyVector::new(self.domain);
        for u in &self.updates {
            fv.apply(u.item, u.delta);
        }
        fv
    }

    /// One shared accumulation pass over the prefix frequencies: returns the
    /// largest `|v_i|` any prefix reaches, checking items against the domain
    /// and (when given) the magnitude bound along the way.  Both
    /// [`TurnstileStream::magnitude_bound`] and [`TurnstileStream::validate`]
    /// are thin wrappers over this pass.
    fn scan_prefix_magnitudes(&self, bound: Option<i64>) -> Result<i64, StreamError> {
        if self.domain == 0 {
            return Err(StreamError::EmptyDomain);
        }
        let mut fv = FrequencyVector::new(self.domain);
        let mut max_abs = 0i64;
        for u in &self.updates {
            if u.item >= self.domain {
                return Err(StreamError::ItemOutOfDomain {
                    item: u.item,
                    domain: self.domain,
                });
            }
            fv.apply(u.item, u.delta);
            let f = fv.get(u.item);
            max_abs = max_abs.max(f.abs());
            if let Some(bound) = bound {
                if f.abs() > bound {
                    return Err(StreamError::MagnitudeBoundViolated {
                        item: u.item,
                        frequency: f,
                        bound,
                    });
                }
            }
        }
        Ok(max_abs)
    }

    /// The largest `|v_i|` reached by any prefix of the stream — the smallest
    /// `M` for which the turnstile promise holds.
    ///
    /// # Panics
    /// Panics if the stream contains items outside the domain (use
    /// [`TurnstileStream::validate`] for a fallible check).
    pub fn magnitude_bound(&self) -> i64 {
        self.scan_prefix_magnitudes(None)
            .expect("stream items inside the domain")
    }

    /// Validate the stream against the model: all items inside the domain and
    /// no prefix frequency exceeding `bound` in absolute value.
    pub fn validate(&self, bound: i64) -> Result<(), StreamError> {
        self.scan_prefix_magnitudes(Some(bound)).map(|_| ())
    }

    /// A deterministically shuffled copy of the stream (Fisher–Yates driven by
    /// the given seed).  The frequency vector is invariant under shuffling;
    /// this is used to check that sketches are order-insensitive in tests.
    pub fn shuffled(&self, seed: u64) -> TurnstileStream {
        let mut rng = gsum_hash::SplitMix64::new(seed);
        let mut updates = self.updates.clone();
        let len = updates.len();
        if len > 1 {
            for i in (1..len).rev() {
                let j = rng.next_below((i + 1) as u64) as usize;
                updates.swap(i, j);
            }
        }
        TurnstileStream {
            domain: self.domain,
            updates,
        }
    }
}

/// A materialized stream is itself a (space-unbounded) sink: pushing updates
/// appends them.  This lets recording taps share the push-based plumbing.
impl StreamSink for TurnstileStream {
    fn update(&mut self, update: Update) {
        self.push(update);
    }

    fn update_batch(&mut self, updates: &[Update]) {
        self.updates.extend_from_slice(updates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_stream() -> TurnstileStream {
        let mut s = TurnstileStream::new(8);
        s.push_insertions(1, 3);
        s.push_delta(2, -4);
        s.push(Update::new(1, 2));
        s
    }

    #[test]
    fn basic_accessors() {
        let s = small_stream();
        assert_eq!(s.domain(), 8);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert!(!s.is_insertion_only());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn empty_domain_panics() {
        let _ = TurnstileStream::new(0);
    }

    #[test]
    fn frequency_vector_accumulates() {
        let fv = small_stream().frequency_vector();
        assert_eq!(fv.get(1), 5);
        assert_eq!(fv.get(2), -4);
        assert_eq!(fv.support_size(), 2);
    }

    #[test]
    fn insertion_only_detection() {
        let mut s = TurnstileStream::new(4);
        s.push_insertions(0, 5);
        assert!(s.is_insertion_only());
        s.push(Update::delete(0));
        assert!(!s.is_insertion_only());
    }

    #[test]
    fn magnitude_bound_tracks_prefixes() {
        let mut s = TurnstileStream::new(4);
        s.push_delta(0, 10);
        s.push_delta(0, -7);
        // Final frequency is 3, but a prefix reached 10.
        assert_eq!(s.frequency_vector().get(0), 3);
        assert_eq!(s.magnitude_bound(), 10);
    }

    #[test]
    fn push_delta_zero_is_noop() {
        let mut s = TurnstileStream::new(4);
        s.push_delta(0, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn validate_accepts_valid_stream() {
        let s = small_stream();
        assert!(s.validate(100).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_domain() {
        let mut s = TurnstileStream::new(4);
        s.push(Update::insert(4));
        assert_eq!(
            s.validate(10),
            Err(StreamError::ItemOutOfDomain { item: 4, domain: 4 })
        );
    }

    #[test]
    fn validate_rejects_bound_violation() {
        let mut s = TurnstileStream::new(4);
        s.push_delta(2, 11);
        assert!(matches!(
            s.validate(10),
            Err(StreamError::MagnitudeBoundViolated { item: 2, .. })
        ));
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = TurnstileStream::new(8);
        a.push_insertions(0, 2);
        let mut b = TurnstileStream::new(8);
        b.push_insertions(1, 3);
        a.extend_from(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.frequency_vector().get(1), 3);
    }

    #[test]
    fn shuffle_preserves_frequency_vector() {
        let s = small_stream();
        let shuffled = s.shuffled(99);
        assert_eq!(s.frequency_vector(), shuffled.frequency_vector());
        assert_eq!(s.len(), shuffled.len());
    }

    #[test]
    fn shuffle_is_deterministic() {
        let s = small_stream();
        assert_eq!(s.shuffled(7), s.shuffled(7));
    }
}
