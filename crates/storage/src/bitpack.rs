//! Fixed-width bit-packing with random access (§4.1).
//!
//! Values are packed into 64-bit words at the minimum width `n` that
//! represents the maximum value, fitting `⌊64 / n⌋` values per word so that
//! **no value spans a word boundary**. This is not the most space-efficient
//! scheme, but — as the paper stresses — it allows any position to be read
//! without decompressing its neighbours, which the cohort operators rely on
//! for user skipping.

use std::fmt;

/// Exponent of the fixed-point reciprocal used to divide indexes by
/// `per_word` without a hardware division (see [`BitPacked::get`]). With
/// `per_word ≤ 64` the magic-multiply `⌊i·m / 2^57⌋` equals `⌊i / per_word⌋`
/// exactly for every `i < 2^51` — far beyond any array this format can
/// address (row positions are `u32` on disk).
const RECIP_SHIFT: u32 = 57;

/// Values per block of the whole-array walks ([`BitPacked::iter`],
/// [`BitPacked::max_value`]): an 8 KiB stack buffer that stays in L1.
const BLOCK: usize = 1024;

/// A bit-packed array of `u64` values.
#[derive(Clone)]
pub struct BitPacked {
    width: u8,
    /// `⌊64 / width⌋`, cached at construction so neither random access nor
    /// block decode pays a `64 / width` recompute (`1` when `width == 0`, a
    /// value the accessors never reach — they short-circuit to zero).
    per_word: u8,
    /// `⌊2^RECIP_SHIFT / per_word⌋ + 1`: the fixed-point reciprocal that
    /// turns the index→word division of random access into a multiply.
    recip: u64,
    len: usize,
    words: Vec<u64>,
}

impl PartialEq for BitPacked {
    fn eq(&self, other: &Self) -> bool {
        // `per_word` is derived from `width`; comparing it would be
        // redundant.
        self.width == other.width && self.len == other.len && self.words == other.words
    }
}

impl Eq for BitPacked {}

impl BitPacked {
    /// Pack a slice. The width is the minimum number of bits representing
    /// the maximum value (`width == 0` iff every value is zero, in which
    /// case no words are stored at all).
    pub fn from_slice(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = bits_for(max);
        Self::from_slice_with_width(values, width)
    }

    /// Pack with an explicit width (must cover every value).
    pub fn from_slice_with_width(values: &[u64], width: u8) -> Self {
        assert!(width <= 64, "width must be <= 64");
        if width == 0 {
            debug_assert!(values.iter().all(|&v| v == 0));
            return BitPacked {
                width: 0,
                per_word: 1,
                recip: recip_for(1),
                len: values.len(),
                words: Vec::new(),
            };
        }
        let per_word = (64 / width as usize).max(1);
        let num_words = values.len().div_ceil(per_word);
        let mut words = Vec::with_capacity(num_words);
        for chunk in values.chunks(per_word) {
            let mut word = 0u64;
            let mut shift = 0u32;
            for &v in chunk {
                debug_assert!(
                    width == 64 || v < (1u64 << width),
                    "value {v} exceeds width {width}"
                );
                word |= v << shift;
                shift += width as u32;
            }
            words.push(word);
        }
        BitPacked {
            width,
            per_word: per_word as u8,
            recip: recip_for(per_word),
            len: values.len(),
            words,
        }
    }

    /// Number of packed values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit width per value.
    #[inline]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Random access without decompression. Panics if out of range (all
    /// call sites index within `len`, checked by the chunk layer).
    /// **Division-free**: the index→word split uses the reciprocal cached
    /// at construction (one widening multiply + shift), not a hardware
    /// division — this path runs once per tuple in predicate evaluation and
    /// birth-row search.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if self.width == 0 {
            return 0;
        }
        let width = self.width as usize;
        let per_word = self.per_word as usize;
        let word_idx = (((i as u128) * (self.recip as u128)) >> RECIP_SHIFT) as usize;
        debug_assert_eq!(word_idx, i / per_word);
        let word = self.words[word_idx];
        let shift = (i - word_idx * per_word) * width;
        if width == 64 {
            word
        } else {
            (word >> shift) & ((1u64 << width) - 1)
        }
    }

    /// Block decode: write values `start..end` into `out` (whose length must
    /// be `end - start`). Unlike repeated [`BitPacked::get`], no per-element
    /// div/mod is performed: widths 0 and 64 fill or copy, every other width
    /// walks the packed words with a running shift.
    pub fn unpack_range(&self, start: usize, end: usize, out: &mut [u64]) {
        assert!(start <= end && end <= self.len, "range {start}..{end} out of bounds");
        assert_eq!(out.len(), end - start, "output buffer length mismatch");
        if start == end {
            return;
        }
        if self.width == 0 {
            out.fill(0);
            return;
        }
        if self.width == 64 {
            out.copy_from_slice(&self.words[start..end]);
            return;
        }
        self.unpack_range_scalar(start, out);
    }

    /// The scalar block-decode loop: walk each word's lanes with a running
    /// shift, the standard word-at-a-time unpacking idiom. Callers have
    /// validated the range and excluded widths 0 and 64.
    fn unpack_range_scalar(&self, start: usize, out: &mut [u64]) {
        let width = self.width as usize;
        let per_word = self.per_word as usize;
        let mask = (1u64 << width) - 1;
        // One div/mod pair for the whole block, not one per element.
        let mut word_idx = start / per_word;
        let mut lane = start % per_word;
        let mut word = self.words[word_idx] >> (lane * width);
        for slot in out.iter_mut() {
            *slot = word & mask;
            lane += 1;
            if lane == per_word {
                lane = 0;
                word_idx += 1;
                // The last word may be past the end when the block finishes
                // exactly on a word boundary.
                word = self.words.get(word_idx).copied().unwrap_or(0);
            } else {
                word >>= width;
            }
        }
    }

    /// First position in `start..end` holding `value`, scanning packed words
    /// with a running shift instead of per-element [`BitPacked::get`]
    /// probes: one word load serves every lane it packs, and the index→word
    /// division happens once per call, not once per element. This is the
    /// birth-row search primitive (`find_birth_row` in `cohana-core`
    /// resolves the dictionary code once and scans raw codes through here).
    pub fn find_first(&self, start: usize, end: usize, value: u64) -> Option<usize> {
        assert!(start <= end && end <= self.len, "range {start}..{end} out of bounds");
        if start == end {
            return None;
        }
        if self.width == 0 {
            return (value == 0).then_some(start);
        }
        let width = self.width as usize;
        if width == 64 {
            return self.words[start..end].iter().position(|&w| w == value).map(|p| p + start);
        }
        let mask = (1u64 << width) - 1;
        if value > mask {
            return None; // wider than any packed value
        }
        let per_word = self.per_word as usize;
        let mut word_idx = start / per_word;
        let mut lane = start % per_word;
        let mut word = self.words[word_idx] >> (lane * width);
        for i in start..end {
            if word & mask == value {
                return Some(i);
            }
            lane += 1;
            if lane == per_word {
                lane = 0;
                word_idx += 1;
                word = self.words.get(word_idx).copied().unwrap_or(0);
            } else {
                word >>= width;
            }
        }
        None
    }

    /// First position in `start..end` whose value fails `pred` (`end` when
    /// none does), for a range partitioned like
    /// [`slice::partition_point`]'s: every value passing `pred` sits before
    /// every value failing it — a sorted range under a `<= bound` test.
    /// Binary search over [`BitPacked::get`]: `⌈log2(end − start)⌉ + 1` random
    /// probes and nothing decoded. The executor uses it to turn an `AGE`
    /// bound into a row bound on a user block's sorted time column before
    /// unpacking any of it.
    pub fn partition_point(&self, start: usize, end: usize, pred: impl Fn(u64) -> bool) -> usize {
        assert!(start <= end && end <= self.len, "range {start}..{end} out of bounds");
        if start == end {
            return start;
        }
        // `base` is the last position known to pass (or `start`, untested);
        // each step halves what is left with a select, not a branch: which
        // way a probe falls is a coin flip no predictor learns.
        let (mut base, mut size) = (start, end - start);
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            base = if pred(self.get(mid)) { mid } else { base };
            size -= half;
        }
        base + pred(self.get(base)) as usize
    }

    /// Iterate over all values in order. Values are block-decoded 1 Ki at a
    /// time through [`BitPacked::unpack_range`]; no position is probed with
    /// [`BitPacked::get`].
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut block = [0u64; BLOCK];
        let mut next = 0usize;
        std::iter::from_fn(move || {
            if next == self.len {
                return None;
            }
            let at = next % BLOCK;
            if at == 0 {
                let n = BLOCK.min(self.len - next);
                self.unpack_range(next, next + n, &mut block[..n]);
            }
            next += 1;
            Some(block[at])
        })
    }

    /// Decode to a vector (one [`BitPacked::unpack_range`] sweep).
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.len];
        self.unpack_range(0, self.len, &mut out);
        out
    }

    /// The largest packed value (0 when empty), from one block-decode pass
    /// through a stack buffer — the kernel behind every per-value range
    /// check on an array that did not arrive with a decoder's running
    /// maximum.
    pub fn max_value(&self) -> u64 {
        if self.width == 0 {
            return 0;
        }
        let mut block = [0u64; BLOCK];
        let mut max = 0u64;
        for start in (0..self.len).step_by(BLOCK) {
            let n = BLOCK.min(self.len - start);
            self.unpack_range(start, start + n, &mut block[..n]);
            max = block[..n].iter().copied().fold(max, u64::max);
        }
        max
    }

    /// Bytes consumed by the packed words (excluding the struct header).
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Raw words (for persistence).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from raw parts (for persistence). Validates word count.
    pub(crate) fn from_raw(width: u8, len: usize, words: Vec<u64>) -> crate::Result<Self> {
        let expected = words_for(width, len);
        if words.len() != expected {
            return Err(crate::StorageError::Corrupt(format!(
                "bitpack expects {expected} words, found {}",
                words.len()
            )));
        }
        let per_word = if width == 0 { 1 } else { (64 / width as usize).max(1) as u8 };
        Ok(BitPacked { width, per_word, recip: recip_for(per_word as usize), len, words })
    }
}

impl fmt::Debug for BitPacked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitPacked(width={}, len={})", self.width, self.len)
    }
}

/// Words that `len` values packed at `width` bits occupy (none at width 0).
pub(crate) fn words_for(width: u8, len: usize) -> usize {
    match width {
        0 => 0,
        w => len.div_ceil((64 / w as usize).max(1)),
    }
}

/// Minimum number of bits needed to represent `v` (0 for 0).
#[inline]
pub fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// The fixed-point reciprocal of `per_word`: `⌊2^RECIP_SHIFT/d⌋ + 1`.
///
/// Exactness: write `2^p = d·Q + R` (`0 ≤ R < d`, `m = Q + 1`) and
/// `i = d·a + b` (`b < d`); then `m·i = a·2^p + a·(d−R) + b·(Q+1)`, so
/// `⌊m·i/2^p⌋ = a = ⌊i/d⌋` exactly when `a·(d−R) + b·(Q+1) < 2^p`, which
/// with `d ≤ 64` and `p = 57` holds for every `i < 2^51`.
#[inline]
fn recip_for(per_word: usize) -> u64 {
    debug_assert!((1..=64).contains(&per_word));
    ((1u64 << RECIP_SHIFT) / per_word as u64) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn roundtrip_simple() {
        let vals = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let p = BitPacked::from_slice(&vals);
        assert_eq!(p.width(), 4);
        assert_eq!(p.to_vec(), vals);
    }

    #[test]
    fn all_zero_uses_no_words() {
        let p = BitPacked::from_slice(&[0, 0, 0, 0]);
        assert_eq!(p.width(), 0);
        assert_eq!(p.packed_bytes(), 0);
        assert_eq!(p.to_vec(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn width_64_values() {
        let vals = [u64::MAX, 0, 42];
        let p = BitPacked::from_slice(&vals);
        assert_eq!(p.width(), 64);
        assert_eq!(p.to_vec(), vals);
    }

    #[test]
    fn values_never_span_words() {
        // width 7 -> 9 values per word; the 10th value starts a new word.
        let vals: Vec<u64> = (0..20).map(|i| (i * 7) % 128).collect();
        let p = BitPacked::from_slice_with_width(&vals, 7);
        assert_eq!(p.words().len(), 20usize.div_ceil(9));
        assert_eq!(p.to_vec(), vals);
    }

    #[test]
    fn empty_input() {
        let p = BitPacked::from_slice(&[]);
        assert!(p.is_empty());
        assert_eq!(p.to_vec(), Vec::<u64>::new());
    }

    #[test]
    fn from_raw_validates() {
        assert!(BitPacked::from_raw(8, 10, vec![0; 2]).is_ok());
        assert!(BitPacked::from_raw(8, 10, vec![0; 3]).is_err());
        assert!(BitPacked::from_raw(0, 10, vec![]).is_ok());
        assert!(BitPacked::from_raw(0, 10, vec![0]).is_err());
    }

    /// `unpack_range` ≡ repeated `get` for every width 0–64, with ranges
    /// chosen to hit word-boundary starts, mid-word starts, and the tail.
    #[test]
    fn unpack_range_matches_get_all_widths() {
        for width in 0u8..=64 {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let vals: Vec<u64> =
                (0..137u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask).collect();
            let p = BitPacked::from_slice_with_width(&vals, width);
            let per_word = (64 / width.max(1) as usize).max(1);
            // Word-aligned, mid-word, empty, and full ranges.
            let starts = [0, 1, per_word, per_word + 1, 2 * per_word, vals.len() - 1, vals.len()];
            for &start in &starts {
                for &end in &[start, vals.len().min(start + per_word), vals.len()] {
                    if end < start {
                        continue;
                    }
                    let mut out = vec![u64::MAX; end - start];
                    p.unpack_range(start, end, &mut out);
                    let expect: Vec<u64> = (start..end).map(|i| p.get(i)).collect();
                    assert_eq!(out, expect, "width {width}, range {start}..{end}");
                    assert_eq!(&out[..], &vals[start..end], "width {width} roundtrip");
                }
            }
        }
    }

    /// The whole-array walks are built on `unpack_range` blocks: they must
    /// agree with `get` across block boundaries at every width.
    #[test]
    fn iter_to_vec_and_max_value_match_get_all_widths() {
        for width in 0u8..=64 {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            for len in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37] {
                let vals: Vec<u64> =
                    (0..len as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask).collect();
                let p = BitPacked::from_slice_with_width(&vals, width);
                let by_get: Vec<u64> = (0..len).map(|i| p.get(i)).collect();
                assert_eq!(by_get, vals, "width {width}, len {len}");
                assert_eq!(p.to_vec(), vals, "width {width}, len {len}");
                assert_eq!(p.iter().collect::<Vec<_>>(), vals, "width {width}, len {len}");
                assert_eq!(p.max_value(), vals.iter().copied().max().unwrap_or(0));
            }
        }
    }

    /// The reciprocal index→word split must equal true division for every
    /// divisor 1–64 across representative and adversarial indexes.
    #[test]
    fn reciprocal_division_is_exact() {
        for d in 1usize..=64 {
            let m = recip_for(d) as u128;
            let mut probes: Vec<usize> = vec![0, 1, d - 1, d, d + 1, 1 << 20, (1 << 32) - 1];
            probes.extend((0..1000).map(|k| k * 7919 + d));
            // Near multiples of d at the top of the supported range.
            let top = (1usize << 51) - 1;
            probes.extend([top, top - 1, (top / d) * d, (top / d) * d - 1]);
            for i in probes {
                let q = ((i as u128 * m) >> RECIP_SHIFT) as usize;
                assert_eq!(q, i / d, "i={i}, d={d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_range_rejects_out_of_bounds() {
        let p = BitPacked::from_slice(&[1, 2, 3]);
        let mut out = vec![0; 2];
        p.unpack_range(2, 4, &mut out);
    }

    /// `unpack_range` ≡ the scalar loop for every width 0–64, exercising
    /// word-boundary starts, mid-word starts, and short tails.
    #[test]
    fn unpack_range_matches_scalar_all_widths() {
        for width in 0u8..=64 {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width).wrapping_sub(1) };
            let vals: Vec<u64> =
                (0..301u64).map(|i| i.wrapping_mul(0x5851_F42D_4C95_7F2D) & mask).collect();
            let p = BitPacked::from_slice_with_width(&vals, width);
            let per_word = (64 / width.max(1) as usize).max(1);
            let starts = [0, 1, per_word - 1, per_word, per_word + 1, 4 * per_word, vals.len() - 1];
            for &start in &starts {
                for &end in
                    &[start, start + 1, (start + 4 * per_word + 3).min(vals.len()), vals.len()]
                {
                    if end < start || end > vals.len() {
                        continue;
                    }
                    let mut got = vec![u64::MAX; end - start];
                    p.unpack_range(start, end, &mut got);
                    if width != 0 && width != 64 {
                        let mut scalar = vec![u64::MAX; end - start];
                        p.unpack_range_scalar(start, &mut scalar);
                        assert_eq!(got, scalar, "width {width}, range {start}..{end}");
                    }
                    assert_eq!(&got[..], &vals[start..end], "width {width}, range {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn find_first_matches_linear_probe() {
        for width in [0u8, 1, 3, 4, 13, 22, 31, 64] {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width).wrapping_sub(1) };
            let vals: Vec<u64> = (0..97u64).map(|i| (i * 37 + 11) & mask & 0xF).collect();
            let p = BitPacked::from_slice_with_width(&vals, width);
            for start in [0usize, 1, 17, 96, 97] {
                for value in 0u64..16 {
                    let expect = (start..vals.len()).find(|&i| vals[i] == value);
                    assert_eq!(
                        p.find_first(start, vals.len(), value),
                        expect,
                        "width {width}, start {start}, value {value}"
                    );
                }
            }
            // A value wider than the packing can never match.
            if width < 60 {
                assert_eq!(p.find_first(0, vals.len(), mask.wrapping_add(10)), None);
            }
        }
    }

    #[test]
    fn find_first_respects_range_end() {
        let p = BitPacked::from_slice(&[5, 1, 5, 2]);
        assert_eq!(p.find_first(0, 4, 5), Some(0));
        assert_eq!(p.find_first(1, 4, 5), Some(2));
        assert_eq!(p.find_first(1, 2, 5), None);
        assert_eq!(p.find_first(3, 3, 2), None);
    }

    /// `partition_point` ≡ the slice's on the decoded range, for sorted
    /// values at every width 0–64: ranges starting on, before and after a
    /// word boundary, empty and one-element ranges, every bound that falls
    /// below, between, on and above the values, and all-equal ranges.
    #[test]
    fn partition_point_matches_slice_all_widths() {
        for width in 0u8..=64 {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let per_word = (64 / width.max(1) as usize).max(1);
            let len = (3 * per_word + 5).max(67);
            // Sorted, with repeats, spread over the whole width.
            let step = (mask / len as u64).max(1);
            let sorted: Vec<u64> = (0..len as u64).map(|i| ((i / 2) * step).min(mask)).collect();
            let equal = vec![mask / 2; len];
            for vals in [&sorted, &equal] {
                let p = BitPacked::from_slice_with_width(vals, width);
                let starts = [0, 1, per_word - 1, per_word, per_word + 1, 2 * per_word, len - 1];
                for &start in &starts {
                    for end in [start, start + 1, (start + per_word + 1).min(len), len] {
                        let slice = &vals[start..end];
                        let mut bounds = vec![0, mask];
                        for &v in slice.iter().take(3).chain(slice.last()) {
                            bounds.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
                        }
                        for bound in bounds {
                            assert_eq!(
                                p.partition_point(start, end, |v| v <= bound),
                                start + slice.partition_point(|&v| v <= bound),
                                "width {width}, range {start}..{end}, bound {bound}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn partition_point_rejects_out_of_bounds() {
        BitPacked::from_slice(&[1, 2, 3]).partition_point(2, 4, |v| v < 2);
    }

    proptest! {
        #[test]
        fn prop_unpack_range_matches_get(
            vals in proptest::collection::vec(0u64..u64::MAX, 1..300),
            cut in 0usize..300,
            width_extra in 0u8..3,
        ) {
            // Vary the width beyond the minimum so lanes include slack bits.
            let min_width = bits_for(vals.iter().copied().max().unwrap_or(0));
            let width = (min_width + width_extra).min(64);
            let p = BitPacked::from_slice_with_width(&vals, width);
            let start = cut % vals.len();
            let end = start + (cut * 7 + 1) % (vals.len() - start + 1);
            let mut out = vec![0u64; end - start];
            p.unpack_range(start, end, &mut out);
            for (off, v) in out.iter().enumerate() {
                prop_assert_eq!(*v, p.get(start + off));
                prop_assert_eq!(*v, vals[start + off]);
            }
        }

        /// The dispatched `unpack_range` must agree with the scalar loop for
        /// arbitrary widths and ranges — including the word-boundary starts
        /// `word_sel` forces below.
        #[test]
        fn prop_unpack_range_matches_scalar(
            vals in proptest::collection::vec(0u64..u64::MAX, 1..400),
            width in 1u8..64,
            cut in 0usize..400,
            word_sel in 0usize..8,
            aligned in proptest::prop::bool::ANY,
        ) {
            let mask = (1u64 << width) - 1;
            let masked: Vec<u64> = vals.iter().map(|v| v & mask).collect();
            let p = BitPacked::from_slice_with_width(&masked, width);
            let per_word = (64 / width as usize).max(1);
            let start = if aligned {
                // Force a word-boundary start.
                (word_sel * per_word).min(masked.len())
            } else {
                cut % masked.len()
            };
            let end = start + (cut * 13 + 1) % (masked.len() - start + 1);
            let mut got = vec![u64::MAX; end - start];
            p.unpack_range(start, end, &mut got);
            let mut scalar = vec![u64::MAX; end - start];
            if start < end {
                p.unpack_range_scalar(start, &mut scalar);
            }
            prop_assert_eq!(&got, &scalar);
            prop_assert_eq!(&got[..], &masked[start..end]);
        }

        #[test]
        fn prop_find_first_matches_scan(
            vals in proptest::collection::vec(0u64..32, 1..300),
            start in 0usize..300,
            value in 0u64..40,
        ) {
            let p = BitPacked::from_slice(&vals);
            let start = start % (vals.len() + 1);
            let expect = (start..vals.len()).find(|&i| vals[i] == value);
            prop_assert_eq!(p.find_first(start, vals.len(), value), expect);
        }

        #[test]
        fn prop_partition_point_matches_slice(
            vals in proptest::collection::vec(0u64..u64::MAX, 1..300),
            shift in 0u32..64,
            cut in 0usize..300,
            pick in 0usize..300,
            nudge in 0u64..3,
        ) {
            // Any width: shifting keeps the order and narrows the values.
            let mut vals: Vec<u64> = vals.iter().map(|v| v >> shift).collect();
            vals.sort_unstable();
            let p = BitPacked::from_slice(&vals);
            let start = cut % vals.len();
            let end = start + (cut * 7 + 1) % (vals.len() - start + 1);
            // A bound just below, on or just above one of the values.
            let bound = vals[pick % vals.len()].saturating_add(nudge).saturating_sub(1);
            prop_assert_eq!(
                p.partition_point(start, end, |v| v <= bound),
                start + p.to_vec()[start..end].partition_point(|&v| v <= bound)
            );
            prop_assert_eq!(
                p.partition_point(start, end, |v| v < bound),
                start + p.to_vec()[start..end].partition_point(|&v| v < bound)
            );
        }

        #[test]
        fn prop_roundtrip(vals in proptest::collection::vec(0u64..u64::MAX, 0..300)) {
            let p = BitPacked::from_slice(&vals);
            prop_assert_eq!(p.to_vec(), vals);
        }

        #[test]
        fn prop_roundtrip_small_domain(vals in proptest::collection::vec(0u64..1000, 0..500)) {
            let p = BitPacked::from_slice(&vals);
            prop_assert!(p.width() <= 10);
            for (i, &v) in vals.iter().enumerate() {
                prop_assert_eq!(p.get(i), v);
            }
        }

        #[test]
        fn prop_random_access_matches_iter(vals in proptest::collection::vec(0u64..1_000_000, 1..200), idx in 0usize..199) {
            let p = BitPacked::from_slice(&vals);
            let i = idx % vals.len();
            prop_assert_eq!(p.get(i), vals[i]);
        }
    }
}
