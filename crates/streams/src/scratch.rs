//! Reusable per-sketch ingestion scratch, excluded from sketch identity.
//!
//! Every sketch's `update_batch` needs working memory — a coalesce buffer, a
//! per-row column array, a depth partition.  Allocating it fresh per batch
//! dominated the `onepass_gsum` ingest profile (a recursive sketch calls
//! `update_batch` once per level per heavy-hitter structure), so sketches now
//! carry their scratch with them and reuse it across batches.
//!
//! Scratch is *not* part of a sketch's observable state: it holds no
//! information once `update_batch` returns, so it must never influence
//! checkpoint bytes, merge compatibility, or equality.  [`IngestScratch`]
//! enforces the one subtle case — `Clone`.  Sketches derive `Clone` for
//! clone-and-merge ingestion, and a derived clone of a raw scratch buffer would copy
//! stale capacity (harmless) but more importantly would make "clone then
//! compare checkpoint bytes" tests sensitive to incidental buffer contents if
//! a sketch ever serialized its whole struct.  `IngestScratch::clone` returns
//! an empty default instead: a cloned sketch starts with fresh scratch,
//! exactly as if it had been rebuilt from a checkpoint.
use std::fmt;

/// Transparent wrapper marking a field as reusable ingestion scratch.
///
/// `Clone` yields `Self::default()` — scratch never travels with a clone —
/// so `#[derive(Clone)]` on the owning sketch keeps its derived semantics
/// for every *identity* field while the scratch resets.  The buffer is a
/// public field: hot paths destructure it to split borrows across sibling
/// fields.
#[derive(Default)]
pub struct IngestScratch<T> {
    /// The scratch buffer itself; contents are meaningless between batches.
    pub buf: T,
}

impl<T: Default> Clone for IngestScratch<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> fmt::Debug for IngestScratch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Contents are transient working memory — identify the field, don't
        // dump it (it can hold thousands of stale entries).
        f.write_str("IngestScratch {{ .. }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_resets_to_default() {
        let mut s: IngestScratch<Vec<u32>> = IngestScratch::default();
        s.buf.extend([1, 2, 3]);
        let c = s.clone();
        assert!(c.buf.is_empty());
        assert_eq!(s.buf, vec![1, 2, 3]);
    }

    #[test]
    fn debug_does_not_dump_contents() {
        let mut s: IngestScratch<Vec<u32>> = IngestScratch::default();
        s.buf.extend([7; 100]);
        let rendered = format!("{s:?}");
        assert!(rendered.contains("IngestScratch"));
        assert!(!rendered.contains('7'));
    }
}
