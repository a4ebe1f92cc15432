//! Count-Min sketch (Cormode–Muthukrishnan).
//!
//! Included as a baseline.  Count-Min's error guarantee is additive
//! `ε·F₁` (and it needs non-negative frequencies for its one-sided
//! guarantee), whereas the paper's algorithms need the `√F₂`-type error that
//! CountSketch provides.  Experiment E9 contrasts the two substrates inside
//! the recursive sketch.

use crate::error::SketchError;
use crate::FrequencySketch;
use gsum_hash::{derive_seeds, HashBackend, RowHasher};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{coalesce_into, IngestScratch, MergeError, MergeableSketch, StreamSink, Update};
use std::io::{Read, Write};

/// Reusable working memory for [`CountMinSketch::update_batch`]: the coalesce
/// buffer, the distinct-key slice handed to the batched hash kernel, and the
/// per-row column indices.  Transient — never part of checkpoint/merge/clone
/// identity.
#[derive(Debug, Default)]
pub struct CountMinScratch {
    coalesce: Vec<Update>,
    keys: Vec<u64>,
    cols: Vec<u32>,
}

/// Configuration for a [`CountMinSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountMinConfig {
    /// Number of rows (the estimate is the minimum across rows).
    pub rows: usize,
    /// Number of columns (buckets per row).
    pub columns: usize,
    /// Hash family the per-row bucket hashes are drawn from.
    pub backend: HashBackend,
}

impl CountMinConfig {
    /// Direct `(rows, columns)` configuration with the default
    /// ([`HashBackend::Polynomial`]) backend.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `columns == 0`; use
    /// [`try_new`](Self::try_new) for a fallible constructor.
    pub fn new(rows: usize, columns: usize) -> Self {
        Self::try_new(rows, columns).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects zero rows or columns with a typed
    /// [`SketchError`].
    pub fn try_new(rows: usize, columns: usize) -> Result<Self, SketchError> {
        if rows == 0 {
            return Err(SketchError::EmptyDimension { parameter: "rows" });
        }
        if columns == 0 {
            return Err(SketchError::EmptyDimension {
                parameter: "columns",
            });
        }
        Ok(Self {
            rows,
            columns,
            backend: HashBackend::default(),
        })
    }

    /// Select the hash backend (sketches merge only with matching backends).
    pub fn with_backend(mut self, backend: HashBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// A Count-Min sketch: `rows × columns` non-negative counters, estimate is the
/// minimum over rows.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    config: CountMinConfig,
    /// Row-major counters, length `rows * columns`: wrapping `i64`, exact
    /// mod 2⁶⁴, converted to `f64` only when a query reads them.
    counters: Vec<i64>,
    /// Per-row bucket hash state (the sign half of the row state is unused).
    hashes: Vec<RowHasher>,
    /// Construction seed, kept so merges can verify hash compatibility.
    seed: u64,
    /// Reused ingestion scratch for `update_batch`.
    scratch: IngestScratch<CountMinScratch>,
}

impl CountMinSketch {
    /// Create a Count-Min sketch from a configuration.
    pub fn with_config(config: CountMinConfig, seed: u64) -> Self {
        let seeds = derive_seeds(seed, config.rows);
        let hashes = seeds
            .iter()
            .map(|&s| RowHasher::new(config.backend, config.columns as u64, s))
            .collect();
        Self {
            config,
            counters: vec![0; config.rows * config.columns],
            hashes,
            seed,
            scratch: IngestScratch::default(),
        }
    }

    /// Create a Count-Min sketch with the given shape and the default
    /// polynomial backend.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `columns == 0`; use
    /// [`try_new`](Self::try_new) for a fallible constructor.
    pub fn new(rows: usize, columns: usize, seed: u64) -> Self {
        Self::try_new(rows, columns, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects zero rows or columns with a typed
    /// [`SketchError`].
    pub fn try_new(rows: usize, columns: usize, seed: u64) -> Result<Self, SketchError> {
        Ok(Self::with_config(
            CountMinConfig::try_new(rows, columns)?,
            seed,
        ))
    }

    /// The configuration this sketch was built with.
    pub fn config(&self) -> CountMinConfig {
        self.config
    }

    /// The `(ε, δ)` parameterization: `columns = ceil(e/ε)`,
    /// `rows = ceil(ln(1/δ))`.
    pub fn with_guarantee(epsilon: f64, delta: f64, seed: u64) -> Result<Self, SketchError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
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
        let columns = (std::f64::consts::E / epsilon).ceil() as usize;
        let rows = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::try_new(rows, columns, seed)
    }

    #[inline]
    fn cell(&self, row: usize, col: usize) -> usize {
        row * self.config.columns + col
    }
}

impl StreamSink for CountMinSketch {
    /// Per-update path: [`update_batch`](Self::update_batch) on a batch of
    /// one, so there is a single counter-apply loop.
    fn update(&mut self, update: Update) {
        self.update_batch(std::slice::from_ref(&update));
    }

    /// Batched ingestion: coalesce duplicate items in `i64`, hash each
    /// distinct item once per row, walk the counters row-major.  Each row
    /// precomputes its column indices and then applies them in a hash-free
    /// scatter loop.  Counters add with wrapping, so they are exact mod 2⁶⁴
    /// and every batching, shard split or merge order gives the same bits.
    fn update_batch(&mut self, updates: &[Update]) {
        let CountMinScratch {
            coalesce,
            keys,
            cols,
        } = &mut self.scratch.buf;
        let coalesced = coalesce_into(updates, coalesce);
        if coalesced.is_empty() {
            return;
        }
        // One gather of the distinct keys feeds the hash kernel of every row.
        keys.clear();
        keys.extend(coalesced.iter().map(|u| u.item));
        let columns = self.config.columns;
        for (row_counters, hasher) in self
            .counters
            .chunks_exact_mut(columns)
            .zip(self.hashes.iter())
        {
            // Batched column-only hash kernel: coefficients hoisted for the
            // polynomial family, blocked pipelined lookups for tabulation —
            // bit-identical to per-key `hasher.column`.
            hasher.column_batch(keys, cols);
            for (&col, u) in cols.iter().zip(coalesced) {
                let counter = &mut row_counters[col as usize];
                *counter = counter.wrapping_add(u.delta);
            }
        }
    }
}

/// Count-Min counters are linear in the frequency vector, so identically
/// configured sketches merge by adding counters.
impl MergeableSketch for CountMinSketch {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.config != other.config || self.seed != other.seed {
            return Err(MergeError::new(
                "Count-Min merge requires identical shape, backend and seed",
            ));
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.wrapping_add(*b);
        }
        Ok(())
    }
}

/// Count-Min state is seeds + counters, exactly like CountSketch: the
/// checkpoint stores the shape, backend, master seed and raw counters, and
/// restore re-derives the row hashers through [`CountMinSketch::with_config`].
impl Checkpoint for CountMinSketch {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::COUNT_MIN)?;
        checkpoint::write_u64(w, self.config.rows as u64)?;
        checkpoint::write_u64(w, self.config.columns as u64)?;
        checkpoint::write_backend(w, self.config.backend)?;
        checkpoint::write_u64(w, self.seed)?;
        checkpoint::write_i64_slice(w, &self.counters)?;
        Ok(())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::COUNT_MIN)?;
        let rows = checkpoint::read_len(r)?;
        let columns = checkpoint::read_len(r)?;
        let backend = checkpoint::read_backend(r)?;
        let seed = checkpoint::read_u64(r)?;
        let config = CountMinConfig::try_new(rows, columns)
            .map_err(|e| CheckpointError::Corrupt(e.to_string()))?
            .with_backend(backend);
        let cells = rows
            .checked_mul(columns)
            .ok_or_else(|| CheckpointError::Corrupt("rows × columns overflows".into()))?;
        let counters = checkpoint::read_i64_counters(r, cells, "Count-Min counters")?;
        let mut sketch = Self::with_config(config, seed);
        sketch.counters = counters;
        Ok(sketch)
    }
}

impl FrequencySketch for CountMinSketch {
    fn estimate(&self, item: u64) -> f64 {
        self.hashes
            .iter()
            .enumerate()
            .map(|(row, hasher)| self.counters[self.cell(row, hasher.column(item) as usize)] as f64)
            .fold(f64::INFINITY, f64::min)
    }

    fn space_words(&self) -> usize {
        self.counters.len() + self.hashes.iter().map(|h| h.space_words()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_streams::{StreamConfig, StreamGenerator, TurnstileStream, UniformStreamGenerator};

    #[test]
    fn construction_validation() {
        assert!(CountMinSketch::try_new(0, 4, 0).is_err());
        assert!(CountMinSketch::try_new(4, 0, 0).is_err());
        assert!(CountMinSketch::with_guarantee(0.0, 0.1, 0).is_err());
        assert!(CountMinSketch::with_guarantee(0.1, 0.0, 0).is_err());
        let cm = CountMinSketch::with_guarantee(0.01, 0.05, 0).unwrap();
        assert!(cm.config().columns >= 271);
        assert!(cm.config().rows >= 3);
    }

    #[test]
    fn never_underestimates_on_insertion_only_streams() {
        let stream = UniformStreamGenerator::new(StreamConfig::new(512, 20_000), 3).generate();
        let fv = stream.frequency_vector();
        let mut cm = CountMinSketch::new(4, 128, 7);
        cm.process_stream(&stream);
        for (item, v) in fv.iter() {
            assert!(
                cm.estimate(item) + 1e-9 >= v as f64,
                "Count-Min underestimated item {item}"
            );
        }
    }

    #[test]
    fn error_bounded_by_epsilon_f1() {
        let stream = UniformStreamGenerator::new(StreamConfig::new(256, 30_000), 5).generate();
        let fv = stream.frequency_vector();
        let f1 = fv.f1();
        let epsilon = 0.02;
        let mut cm = CountMinSketch::with_guarantee(epsilon, 0.01, 9).unwrap();
        cm.process_stream(&stream);
        let mut violations = 0;
        for (item, v) in fv.iter() {
            if cm.estimate(item) - v as f64 > epsilon * f1 {
                violations += 1;
            }
        }
        assert!(
            violations <= 2,
            "too many error-bound violations: {violations}"
        );
    }

    #[test]
    fn exact_for_isolated_item() {
        let mut s = TurnstileStream::new(1024);
        s.push_delta(77, 500);
        let mut cm = CountMinSketch::new(3, 64, 1);
        cm.process_stream(&s);
        assert!((cm.estimate(77) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn space_words_positive() {
        let cm = CountMinSketch::new(2, 32, 0);
        assert!(cm.space_words() >= 64);
    }

    #[test]
    fn tabulation_backend_exact_for_isolated_item() {
        let cfg = CountMinConfig::new(3, 64).with_backend(HashBackend::Tabulation);
        let mut cm = CountMinSketch::with_config(cfg, 1);
        let mut s = TurnstileStream::new(1024);
        s.push_delta(77, 500);
        cm.process_stream(&s);
        assert!((cm.estimate(77) - 500.0).abs() < 1e-9);
        assert_eq!(cm.config().backend, HashBackend::Tabulation);
    }
}
