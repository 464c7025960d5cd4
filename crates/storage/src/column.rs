//! Per-chunk compressed column segments.

use crate::bitpack::BitPacked;
use crate::dict::ChunkDict;

/// One compressed column segment inside a chunk (the user column is stored
/// separately as [`crate::UserRle`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkColumn {
    /// A dictionary-encoded string column: chunk dictionary + bit-packed
    /// chunk ids, one per row.
    Str {
        /// Sorted global ids present in this chunk.
        dict: ChunkDict,
        /// Per-row chunk ids.
        codes: BitPacked,
    },
    /// A delta-encoded integer column: chunk `[min, max]` range + bit-packed
    /// deltas from `min`, one per row.
    Int {
        /// Minimum value in the chunk.
        min: i64,
        /// Maximum value in the chunk.
        max: i64,
        /// Per-row `value - min` deltas.
        deltas: BitPacked,
    },
}

impl ChunkColumn {
    /// Build a string segment from per-row global ids.
    pub fn from_gids(gids: &[u32]) -> Self {
        let dict = ChunkDict::build(gids.to_vec());
        let codes: Vec<u64> =
            gids.iter().map(|g| dict.find(*g).expect("gid present in chunk dict") as u64).collect();
        ChunkColumn::Str { dict, codes: BitPacked::from_slice(&codes) }
    }

    /// Build an integer segment from per-row values.
    pub fn from_ints(values: &[i64]) -> Self {
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        let deltas: Vec<u64> = values.iter().map(|v| (v - min) as u64).collect();
        ChunkColumn::Int { min, max, deltas: BitPacked::from_slice(&deltas) }
    }

    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        match self {
            ChunkColumn::Str { codes, .. } => codes.len(),
            ChunkColumn::Int { deltas, .. } => deltas.len(),
        }
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw code at a row: the chunk id for strings, the delta for integers.
    /// Random access without decompression.
    #[inline]
    pub fn code(&self, row: usize) -> u64 {
        match self {
            ChunkColumn::Str { codes, .. } => codes.get(row),
            ChunkColumn::Int { deltas, .. } => deltas.get(row),
        }
    }

    /// Decode the integer value at a row (integer segments only).
    #[inline]
    pub fn int_value(&self, row: usize) -> i64 {
        match self {
            ChunkColumn::Int { min, deltas, .. } => min + deltas.get(row) as i64,
            ChunkColumn::Str { .. } => panic!("int_value on string segment"),
        }
    }

    /// The global id of the string value at a row (string segments only).
    #[inline]
    pub fn gid_at(&self, row: usize) -> u32 {
        match self {
            ChunkColumn::Str { dict, codes } => dict.global_id(codes.get(row) as u32),
            ChunkColumn::Int { .. } => panic!("gid_at on integer segment"),
        }
    }

    /// The packed per-row code words: chunk ids for string segments, deltas
    /// for integer segments — the array [`ChunkColumn::code`] reads one
    /// element of, exposed whole for cursor construction and block decode.
    #[inline]
    pub fn packed(&self) -> &BitPacked {
        match self {
            ChunkColumn::Str { codes, .. } => codes,
            ChunkColumn::Int { deltas, .. } => deltas,
        }
    }

    /// The chunk dictionary, if a string segment.
    pub fn dict(&self) -> Option<&ChunkDict> {
        match self {
            ChunkColumn::Str { dict, .. } => Some(dict),
            ChunkColumn::Int { .. } => None,
        }
    }

    /// The chunk `[min, max]` range, if an integer segment.
    pub fn int_range(&self) -> Option<(i64, i64)> {
        match self {
            ChunkColumn::Int { min, max, .. } => Some((*min, *max)),
            ChunkColumn::Str { .. } => None,
        }
    }

    /// The per-value bound of a segment, stated against its own header:
    /// every chunk id must index the chunk dictionary, every delta must lie
    /// within `max − min`. `max_code` is the largest code in the segment —
    /// a decoder's running maximum on the read path, one
    /// [`BitPacked::max_value`] pass anywhere else — so the whole check is
    /// one comparison.
    pub(crate) fn check_code_range(&self, max_code: u64) -> crate::Result<()> {
        let out_of_range = match self {
            ChunkColumn::Str { dict, codes } => {
                (!codes.is_empty() && max_code >= dict.len() as u64).then_some("code")
            }
            ChunkColumn::Int { min, max, deltas } => {
                if min > max {
                    return Err(crate::StorageError::Corrupt("min > max".into()));
                }
                (!deltas.is_empty() && max_code > max.wrapping_sub(*min) as u64).then_some("delta")
            }
        };
        match out_of_range {
            Some(what) => Err(crate::StorageError::Corrupt(format!("{what} out of range"))),
            None => Ok(()),
        }
    }

    /// Re-base a string segment's chunk dictionary onto a merged global
    /// dictionary: each stored global id is replaced by `remap[gid]` (the
    /// decode path for chunks written under an older dictionary epoch). The
    /// per-row codes are untouched — a strictly increasing remap preserves
    /// both the sortedness of the chunk dictionary and every value's
    /// position in it, and they move into the result uncopied.
    pub(crate) fn remap_gids(self, remap: &[u32]) -> crate::Result<ChunkColumn> {
        match self {
            ChunkColumn::Str { dict, codes } => {
                let mapped: crate::Result<Vec<u32>> = dict
                    .global_ids()
                    .iter()
                    .map(|&g| {
                        remap.get(g as usize).copied().ok_or_else(|| {
                            crate::StorageError::Corrupt(format!(
                                "chunk dict gid {g} outside its dictionary epoch (size {})",
                                remap.len()
                            ))
                        })
                    })
                    .collect();
                Ok(ChunkColumn::Str { dict: ChunkDict::from_sorted(mapped?)?, codes })
            }
            ChunkColumn::Int { .. } => Err(crate::StorageError::Corrupt(
                "dictionary remap addressed to an integer segment".into(),
            )),
        }
    }

    /// Compressed payload size in bytes (dictionary + codes).
    pub fn packed_bytes(&self) -> usize {
        match self {
            ChunkColumn::Str { dict, codes } => dict.heap_bytes() + codes.packed_bytes(),
            ChunkColumn::Int { deltas, .. } => 16 + deltas.packed_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn str_segment_roundtrip() {
        let gids = [10u32, 3, 10, 99, 3];
        let col = ChunkColumn::from_gids(&gids);
        assert_eq!(col.len(), 5);
        for (i, g) in gids.iter().enumerate() {
            assert_eq!(col.gid_at(i), *g);
        }
        let dict = col.dict().unwrap();
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.find(10), Some(1));
        assert_eq!(dict.find(4), None);
    }

    #[test]
    fn int_segment_roundtrip_with_negatives() {
        let vals = [-5i64, 100, 0, -5, 37];
        let col = ChunkColumn::from_ints(&vals);
        assert_eq!(col.int_range(), Some((-5, 100)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.int_value(i), *v);
        }
    }

    #[test]
    fn constant_int_column_packs_to_zero_bits() {
        let col = ChunkColumn::from_ints(&[7, 7, 7]);
        assert_eq!(col.int_range(), Some((7, 7)));
        match &col {
            ChunkColumn::Int { deltas, .. } => assert_eq!(deltas.width(), 0),
            _ => unreachable!(),
        }
        assert_eq!(col.int_value(2), 7);
    }

    proptest! {
        #[test]
        fn prop_int_roundtrip(vals in proptest::collection::vec(-1_000_000i64..1_000_000, 1..300)) {
            let col = ChunkColumn::from_ints(&vals);
            for (i, v) in vals.iter().enumerate() {
                prop_assert_eq!(col.int_value(i), *v);
            }
            let (min, max) = col.int_range().unwrap();
            prop_assert_eq!(min, *vals.iter().min().unwrap());
            prop_assert_eq!(max, *vals.iter().max().unwrap());
        }

        #[test]
        fn prop_str_roundtrip(gids in proptest::collection::vec(0u32..40, 1..300)) {
            let col = ChunkColumn::from_gids(&gids);
            for (i, g) in gids.iter().enumerate() {
                prop_assert_eq!(col.gid_at(i), *g);
            }
        }
    }
}
