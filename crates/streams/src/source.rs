//! Lazy update sources: streams of updates that are *pulled* one at a time,
//! without materializing a `Vec<Update>`.
//!
//! [`UpdateSource`] is the input-side dual of [`StreamSink`]:
//! a source yields updates, a sink absorbs them, and [`UpdateSource::feed`]
//! connects the two.  Workload generators implement `UpdateSource` so that a
//! billion-update benchmark run needs O(1) memory for the stream itself.

use crate::sink::StreamSink;
use crate::stream::TurnstileStream;
use crate::update::Update;

/// A lazy, pull-based producer of turnstile updates over a fixed domain.
pub trait UpdateSource {
    /// Domain size `n` the updates are drawn from.
    fn domain(&self) -> u64;

    /// Produce the next update, or `None` when the source is exhausted.
    fn next_update(&mut self) -> Option<Update>;

    /// Bounds on the number of updates still to come, mirroring
    /// [`Iterator::size_hint`].
    fn remaining_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Drain the source into a sink, one update at a time.  Returns the
    /// number of updates fed.
    fn feed<S: StreamSink + ?Sized>(&mut self, sink: &mut S) -> usize
    where
        Self: Sized,
    {
        let mut fed = 0;
        while let Some(u) = self.next_update() {
            sink.update(u);
            fed += 1;
        }
        fed
    }

    /// Drain the source into a sink in batches of up to `batch` updates
    /// (uses [`StreamSink::update_batch`], amortizing per-update dispatch).
    /// Returns the number of updates fed.
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    fn feed_batched<S: StreamSink + ?Sized>(&mut self, sink: &mut S, batch: usize) -> usize
    where
        Self: Sized,
    {
        assert!(batch > 0, "batch size must be positive");
        let mut buf = Vec::with_capacity(batch);
        let mut fed = 0;
        loop {
            buf.clear();
            while buf.len() < batch {
                match self.next_update() {
                    Some(u) => buf.push(u),
                    None => break,
                }
            }
            if buf.is_empty() {
                return fed;
            }
            fed += buf.len();
            sink.update_batch(&buf);
        }
    }

    /// Materialize the remaining updates as a [`TurnstileStream`] (the
    /// batch-world escape hatch; prefer [`feed`](UpdateSource::feed)).
    fn collect_stream(&mut self) -> TurnstileStream
    where
        Self: Sized,
    {
        let mut stream = TurnstileStream::new(self.domain());
        while let Some(u) = self.next_update() {
            stream.push(u);
        }
        stream
    }

    /// Borrow the source as an [`Iterator`] over updates.
    fn updates(&mut self) -> Updates<'_, Self>
    where
        Self: Sized,
    {
        Updates { source: self }
    }
}

/// Iterator adapter returned by [`UpdateSource::updates`].
#[derive(Debug)]
pub struct Updates<'a, S> {
    source: &'a mut S,
}

impl<S: UpdateSource> Iterator for Updates<'_, S> {
    type Item = Update;

    fn next(&mut self) -> Option<Update> {
        self.source.next_update()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.source.remaining_hint()
    }
}

/// Adapt any iterator of updates into an [`UpdateSource`] over a domain.
#[derive(Debug, Clone)]
pub struct IterSource<I> {
    domain: u64,
    iter: I,
}

impl<I: Iterator<Item = Update>> IterSource<I> {
    /// Wrap `iter` as a source over the domain `[0, domain)`.
    ///
    /// # Panics
    /// Panics if `domain == 0`.
    pub fn new(domain: u64, iter: I) -> Self {
        assert!(domain > 0, "source domain size must be positive");
        Self { domain, iter }
    }
}

impl<I: Iterator<Item = Update>> UpdateSource for IterSource<I> {
    fn domain(&self) -> u64 {
        self.domain
    }

    fn next_update(&mut self) -> Option<Update> {
        self.iter.next()
    }

    fn remaining_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

/// Replay of a materialized [`TurnstileStream`] as an [`UpdateSource`]
/// (created by [`TurnstileStream::source`]).
#[derive(Debug, Clone)]
pub struct StreamSource<'a> {
    stream: &'a TurnstileStream,
    position: usize,
}

impl<'a> StreamSource<'a> {
    pub(crate) fn new(stream: &'a TurnstileStream) -> Self {
        Self {
            stream,
            position: 0,
        }
    }
}

impl UpdateSource for StreamSource<'_> {
    fn domain(&self) -> u64 {
        self.stream.domain()
    }

    fn next_update(&mut self) -> Option<Update> {
        let u = self.stream.updates().get(self.position).copied();
        if u.is_some() {
            self.position += 1;
        }
        u
    }

    fn remaining_hint(&self) -> (usize, Option<usize>) {
        let left = self.stream.len() - self.position;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingSink {
        updates: Vec<Update>,
        batches: usize,
    }

    impl StreamSink for CountingSink {
        fn update(&mut self, u: Update) {
            self.updates.push(u);
        }
        fn update_batch(&mut self, updates: &[Update]) {
            self.batches += 1;
            self.updates.extend_from_slice(updates);
        }
    }

    fn sink() -> CountingSink {
        CountingSink {
            updates: Vec::new(),
            batches: 0,
        }
    }

    #[test]
    fn iter_source_feeds_in_order() {
        let mut src = IterSource::new(8, (0..5u64).map(Update::insert));
        let mut s = sink();
        assert_eq!(src.feed(&mut s), 5);
        assert_eq!(s.updates.len(), 5);
        assert_eq!(s.updates[3], Update::insert(3));
        // Exhausted.
        assert_eq!(src.next_update(), None);
    }

    #[test]
    fn feed_batched_groups_updates() {
        let mut src = IterSource::new(8, (0..10u64).map(Update::insert));
        let mut s = sink();
        assert_eq!(src.feed_batched(&mut s, 4), 10);
        assert_eq!(s.updates.len(), 10);
        assert_eq!(s.batches, 3, "10 updates in batches of 4 = 3 batches");
    }

    #[test]
    fn collect_stream_materializes() {
        let mut src = IterSource::new(8, (0..5u64).map(Update::insert));
        let stream = src.collect_stream();
        assert_eq!(stream.len(), 5);
        assert_eq!(stream.domain(), 8);
    }

    #[test]
    fn stream_source_replays() {
        let mut s = TurnstileStream::new(8);
        s.push_delta(1, 3);
        s.push_delta(2, -1);
        let mut src = s.source();
        assert_eq!(src.remaining_hint(), (2, Some(2)));
        let collected: Vec<Update> = src.updates().collect();
        assert_eq!(collected, s.updates().to_vec());
    }

    #[test]
    fn updates_iterator_adapts() {
        let mut src = IterSource::new(4, (0..3u64).map(Update::insert));
        let doubled: Vec<i64> = src.updates().map(|u| u.delta * 2).collect();
        assert_eq!(doubled, vec![2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let mut src = IterSource::new(4, std::iter::empty());
        let mut s = sink();
        src.feed_batched(&mut s, 0);
    }
}
