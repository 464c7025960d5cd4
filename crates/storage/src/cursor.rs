//! Typed per-chunk column cursors: the flat, branch-light view the
//! vectorized executor reads through.
//!
//! [`ChunkCursors`] resolves every materialized segment of a chunk **once**
//! into three parallel arrays — the packed code words, the chunk-code→gid
//! LUT (string segments), and the chunk minimum (integer segments) — so a
//! scan's inner loop indexes a slice instead of re-matching the
//! [`ChunkColumn`] enum and re-unwrapping the `Option` per tuple. The
//! cursors borrow the chunk; they are built per chunk at scan open and cost
//! three small `Vec`s.
//!
//! Cursors always read [`BitPacked`] words: the v4 entropy codecs (delta,
//! rANS — interleaved or single-state) are decoded back to `BitPacked` at
//! chunk materialization, and the segment LRU caches that decoded form, so
//! the per-tuple path never touches a compressed stream. The decoders pack
//! as they decode (see `codec::decode_array`), so the cached form is also
//! the only form a fetched value is ever written in; it is what
//! `unpack_range` reads directly.

use crate::bitpack::BitPacked;
use crate::chunk::Chunk;
use crate::column::ChunkColumn;

/// Per-attribute cursors over one chunk's materialized segments, indexed by
/// schema attribute position (like [`Chunk::column`]).
#[derive(Debug)]
pub struct ChunkCursors<'a> {
    /// The packed per-row words of each segment: chunk codes for string
    /// segments, deltas for integer segments; `None` where the chunk holds
    /// no segment (the user column, unprojected columns).
    packs: Vec<Option<&'a BitPacked>>,
    /// Chunk-code → global-id LUT of string segments (empty otherwise).
    luts: Vec<&'a [u32]>,
    /// Chunk minimum of integer segments (0 otherwise).
    mins: Vec<i64>,
}

impl<'a> ChunkCursors<'a> {
    /// Resolve every materialized column of `chunk` into typed cursors.
    pub fn new(chunk: &'a Chunk) -> ChunkCursors<'a> {
        let n = chunk.columns().len();
        let mut packs = Vec::with_capacity(n);
        let mut luts = Vec::with_capacity(n);
        let mut mins = Vec::with_capacity(n);
        for col in chunk.columns() {
            match col.as_deref() {
                Some(ChunkColumn::Str { dict, codes }) => {
                    packs.push(Some(codes));
                    luts.push(dict.global_ids());
                    mins.push(0);
                }
                Some(ChunkColumn::Int { min, deltas, .. }) => {
                    packs.push(Some(deltas));
                    luts.push(&[][..]);
                    mins.push(*min);
                }
                None => {
                    packs.push(None);
                    luts.push(&[][..]);
                    mins.push(0);
                }
            }
        }
        ChunkCursors { packs, luts, mins }
    }

    /// Whether attribute `idx` has a materialized segment.
    #[inline]
    pub fn has(&self, idx: usize) -> bool {
        self.packs.get(idx).is_some_and(Option::is_some)
    }

    /// The packed words of attribute `idx`. Panics on an unmaterialized
    /// column — the executor projects every attribute it touches, so a miss
    /// here is a planner bug (same contract as [`Chunk::column_required`]).
    #[inline]
    pub fn pack(&self, idx: usize) -> &'a BitPacked {
        self.packs[idx].expect("attribute has a materialized column segment")
    }

    /// Raw code at a row: the chunk id for strings, the delta for integers.
    #[inline]
    pub fn code(&self, idx: usize, row: usize) -> u64 {
        self.pack(idx).get(row)
    }

    /// Global id at a row (string segments).
    #[inline]
    pub fn gid(&self, idx: usize, row: usize) -> u32 {
        self.luts[idx][self.pack(idx).get(row) as usize]
    }

    /// Decoded integer value at a row (integer segments).
    #[inline]
    pub fn int(&self, idx: usize, row: usize) -> i64 {
        self.mins[idx] + self.pack(idx).get(row) as i64
    }

    /// Block-decode raw codes of rows `start..end` into `out` (length
    /// `end - start`) through [`BitPacked::unpack_range`]. Integer callers
    /// add [`ChunkCursors::int_min`] themselves; this keeps one decode
    /// primitive for both segment kinds.
    #[inline]
    pub fn unpack(&self, idx: usize, start: usize, end: usize, out: &mut [u64]) {
        self.pack(idx).unpack_range(start, end, out);
    }

    /// Chunk minimum of an integer segment.
    #[inline]
    pub fn int_min(&self, idx: usize) -> i64 {
        self.mins[idx]
    }

    /// The chunk-code → gid LUT of a string segment.
    #[inline]
    pub fn lut(&self, idx: usize) -> &'a [u32] {
        self.luts[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rle::UserRle;
    use std::sync::Arc;

    fn chunk() -> Chunk {
        Chunk::new(
            UserRle::from_rows(&[1, 1, 2]),
            vec![
                None,
                Some(ChunkColumn::from_ints(&[-5, 10, 3])),
                Some(ChunkColumn::from_gids(&[7, 2, 7])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn cursors_mirror_column_accessors() {
        let c = chunk();
        let cur = ChunkCursors::new(&c);
        assert!(!cur.has(0));
        assert!(cur.has(1) && cur.has(2));
        for row in 0..3 {
            assert_eq!(cur.int(1, row), c.column_required(1).int_value(row));
            assert_eq!(cur.gid(2, row), c.column_required(2).gid_at(row));
            assert_eq!(cur.code(2, row), c.column_required(2).code(row));
        }
        assert_eq!(cur.int_min(1), -5);
        assert_eq!(cur.lut(2), &[2, 7]);
    }

    #[test]
    fn partial_chunks_expose_missing_columns() {
        let partial = Chunk::from_shared(
            Arc::new(UserRle::from_rows(&[1, 1, 2])),
            vec![None, None, Some(Arc::new(ChunkColumn::from_gids(&[0, 1, 0])))],
        )
        .unwrap();
        let cur = ChunkCursors::new(&partial);
        assert!(!cur.has(1));
        assert_eq!(cur.gid(2, 1), 1);
    }
}
