//! Per-blob compression codecs for the v4 on-disk format.
//!
//! A v3 blob stores every packed array raw: `width u8 | len u64 | words…`.
//! v4 keeps that byte layout as the [`Codec::Raw`] case and adds two
//! entropy-coded alternatives for the packed-array section of a column
//! blob (the blob header — tag byte, dictionary gids, int min/max — is
//! never transformed, so a `Raw` v4 blob is byte-identical to its v3
//! counterpart):
//!
//! * [`Codec::Delta`] — delta-then-pack for the per-user-sorted time
//!   column: consecutive differences are zigzag-mapped, their *bit class*
//!   (minimal bit length) is range-ANS coded against the measured class
//!   distribution, and each value's low `class - 1` bits follow in an
//!   LSB-first bit stream (the top bit of a `k`-bit value is implied).
//!   This is the classic Elias-gamma-style split — cheap to decode, and
//!   the class stream soaks up the skew that fixed-width packing wastes.
//! * [`Codec::Ans`] — a table-driven range-ANS stage applied directly to
//!   the packed values, applicable when the alphabet fits the 12-bit
//!   table (`max value < 4096`); it collapses skewed low-cardinality
//!   columns (action codes, demographics) toward their empirical entropy.
//!
//! Selection happens at write time in `encode_array`: every applicable
//! candidate is actually encoded and the smallest wins, with the
//! deterministic tie-break `Raw < Delta < Ans` so identical inputs always
//! produce identical files (the append/compact byte-parity invariant
//! depends on this).
//!
//! The rANS core is the standard 32-bit/byte-renormalizing construction:
//! state in `[L, L << 8)` with `L = 1 << 23`, frequencies normalized to
//! sum to `1 << SCALE_BITS = 4096`, symbols encoded in reverse so the
//! decoder streams forward. The final encoder state leads the stream (4
//! bytes LE); decoding checks the state returns to `L` with every byte
//! consumed, which makes truncation and bit-flips detectable without a
//! checksum.
//!
//! ## Interleaved streams
//!
//! A single rANS state is a serial dependency chain: symbol `i+1`'s table
//! lookup needs symbol `i`'s renormalized state, so the decoder runs at
//! one `mul + shift + table load` latency per symbol no matter how wide
//! the machine is. Large sections therefore interleave
//! `INTERLEAVE_WAYS` independent states round-robin (symbol `i` belongs
//! to state `i % ways`) over **one shared renorm stream**: the per-group
//! state updates carry no cross-dependency and issue in parallel, and
//! only the stream cursor stays serial. Interleaved lanes also widen to
//! 64-bit states renormalized in 32-bit words (`RANS64_L`), so each
//! symbol pays at most one predictable renorm branch and one 4-byte load
//! instead of a byte-at-a-time loop. On disk the layouts are
//! distinguished by the section's first byte — a legacy single-state
//! section leads with its width byte (`<= 64`), an interleaved one with
//! the sub-tag `0x80 | ways` followed by the width byte, then the `ways`
//! final 64-bit states (8 bytes LE each) and the shared 32-bit renorm
//! words (see `docs/FORMAT.md`). Old files decode unchanged; new files
//! fall back to single-state below `INTERLEAVE_MIN_SYMBOLS` where the
//! extra initial states would not amortize.
//!
//! ## One pass per value
//!
//! Both entropy decoders are one loop body, generic over where a decoded
//! group goes: the caller's `Vec<u64>` ([`decode_section_into`]) or
//! `width`-bit lanes assembled into `u64` words in a register and stored
//! once (`PackSink`, the column read path). Neither destination is a
//! staging area for the other: a value fetched from a file is written once,
//! packed, and never revisited before the scan reads it. The decoders also
//! hand back an upper bound on what they produced — the delta loop's
//! running maximum (it needs one anyway for the width check), the ANS
//! table's top symbol — which is what lets `persist` prove a column's codes
//! within its dictionary or range without a walk of its own.

use crate::bitpack::{bits_for, words_for, BitPacked};
use crate::error::StorageError;
use crate::Result;

/// How the packed-array section of one v4 blob is encoded on disk.
///
/// The tag byte is recorded per blob in the v4 footer (see
/// `docs/FORMAT.md`); `Raw` blobs are byte-identical to their v3 form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// v3 layout: `width u8 | len u64 | packed words…`.
    Raw = 0,
    /// Zigzag deltas, rANS-coded bit classes + explicit low bits.
    Delta = 1,
    /// rANS over the values themselves (alphabet < 4096).
    Ans = 2,
}

impl Codec {
    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parse a footer tag byte.
    pub fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::Raw),
            1 => Some(Codec::Delta),
            2 => Some(Codec::Ans),
            _ => None,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Delta => "delta",
            Codec::Ans => "ans",
        }
    }
}

// ------------------------------------------------------------------ rANS

/// Frequencies are normalized to sum to `1 << SCALE_BITS`.
const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS;
/// Lower bound of the normalized state interval.
const RANS_L: u32 = 1 << 23;

/// First-byte marker of an interleaved section: `0x80 | ways`. Width
/// bytes are `<= 64`, so the two layouts never collide.
const INTERLEAVE_TAG: u8 = 0x80;
/// Most lockstep states the format admits (`ways` in `2..=MAX_WAYS`).
const MAX_WAYS: usize = 4;
/// States the encoder writes when it interleaves.
const INTERLEAVE_WAYS: usize = 4;
/// Minimum entropy-coded symbol count before the encoder interleaves: the
/// extra initial states cost `4 * (ways - 1) + 1` bytes, which tiny
/// sections cannot amortize. Deterministic, so append/compact byte parity
/// is preserved.
const INTERLEAVE_MIN_SYMBOLS: usize = 64;

/// Cap on the eager output reservation of the decoders. Every length a
/// section declares is cross-checked against the footer's sizes *before*
/// any allocation, but both come from the same (untrusted) file — so the
/// decoders reserve at most this many values up front and let the vector
/// grow geometrically past it, tying large allocations to symbols
/// actually decoded from bytes actually present. Default chunks hold 16 K
/// rows; real sections never exceed this.
const MAX_EAGER_RESERVE: usize = 1 << 16;

/// A normalized symbol table: sorted distinct symbols with frequencies
/// summing to exactly [`SCALE`].
struct FreqTable {
    syms: Vec<u16>,
    freqs: Vec<u16>,
    /// Exclusive prefix sums of `freqs`.
    cum: Vec<u32>,
}

impl FreqTable {
    /// Build from per-symbol counts (parallel to `syms`, all non-zero).
    fn build(syms: Vec<u16>, counts: &[u64]) -> FreqTable {
        debug_assert_eq!(syms.len(), counts.len());
        let freqs = normalize_freqs(counts);
        let cum = prefix_sums(&freqs);
        FreqTable { syms, freqs, cum }
    }

    /// Serialized size: `n_syms u16 | (sym u16, freq u16) * n`.
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.syms.len() as u16).to_le_bytes());
        for (&s, &f) in self.syms.iter().zip(&self.freqs) {
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&f.to_le_bytes());
        }
    }

    /// Parse and validate a table whose symbols must be `<= max_sym`.
    fn read(buf: &mut &[u8], max_sym: u16) -> Result<FreqTable> {
        let n = take_u16(buf)? as usize;
        if n == 0 || n > SCALE as usize {
            return Err(StorageError::Corrupt(format!("bad codec table size {n}")));
        }
        let mut syms = Vec::with_capacity(n);
        let mut freqs = Vec::with_capacity(n);
        let mut total: u32 = 0;
        for i in 0..n {
            let s = take_u16(buf)?;
            let f = take_u16(buf)?;
            if s > max_sym {
                return Err(StorageError::Corrupt(format!(
                    "codec table symbol {s} exceeds maximum {max_sym}"
                )));
            }
            if i > 0 && s <= syms[i - 1] {
                return Err(StorageError::Corrupt("codec table symbols not increasing".into()));
            }
            if f == 0 {
                return Err(StorageError::Corrupt("codec table frequency is zero".into()));
            }
            total += f as u32;
            syms.push(s);
            freqs.push(f);
        }
        if total != SCALE {
            return Err(StorageError::Corrupt(format!(
                "codec table frequencies sum to {total}, want {SCALE}"
            )));
        }
        let cum = prefix_sums(&freqs);
        Ok(FreqTable { syms, freqs, cum })
    }

    /// Slot → symbol-index lookup covering all [`SCALE`] slots. Returned
    /// as a fixed-size array so `lut[state & (SCALE - 1)]` indexes without
    /// a bounds check in the hot loop.
    fn slot_lut(&self) -> Box<SlotLut> {
        let mut lut = vec![SlotEntry::default(); SCALE as usize].into_boxed_slice();
        for ((&sym, &freq), &cum) in self.syms.iter().zip(&self.freqs).zip(&self.cum) {
            for slot in cum..cum + freq as u32 {
                lut[slot as usize] = SlotEntry { sym, freq, cum };
            }
        }
        lut.try_into().ok().expect("lut has SCALE entries")
    }
}

/// One slot of the flattened decode table: everything the hot loop needs
/// in a single 8-byte load.
#[derive(Clone, Copy, Default)]
struct SlotEntry {
    sym: u16,
    freq: u16,
    cum: u32,
}

type SlotLut = [SlotEntry; SCALE as usize];

fn prefix_sums(freqs: &[u16]) -> Vec<u32> {
    let mut cum = Vec::with_capacity(freqs.len());
    let mut acc = 0u32;
    for &f in freqs {
        cum.push(acc);
        acc += f as u32;
    }
    cum
}

/// Scale raw counts to frequencies summing to exactly [`SCALE`], every
/// symbol keeping at least 1. Deterministic (pure integer arithmetic with
/// index tie-breaks) so that identical inputs always serialize
/// identically — append/compact byte-parity depends on it.
fn normalize_freqs(counts: &[u64]) -> Vec<u16> {
    let n = counts.len();
    debug_assert!(n >= 1 && n <= SCALE as usize);
    let total: u64 = counts.iter().sum();
    debug_assert!(total > 0);
    let mut freqs: Vec<u32> = counts
        .iter()
        .map(|&c| ((c as u128 * SCALE as u128 / total as u128) as u32).max(1))
        .collect();
    let mut sum: i64 = freqs.iter().map(|&f| f as i64).sum();
    if sum < SCALE as i64 {
        // Hand the rounding deficit to the heaviest symbols first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(counts[i]), i));
        let mut k = 0usize;
        while sum < SCALE as i64 {
            freqs[order[k % n]] += 1;
            sum += 1;
            k += 1;
        }
    }
    while sum > SCALE as i64 {
        // The minimum-1 clamp oversubscribed; shave the largest frequency
        // (lowest index on ties) without dropping anyone to zero.
        let i = (0..n)
            .filter(|&i| freqs[i] > 1)
            .max_by_key(|&i| (freqs[i], std::cmp::Reverse(i)))
            .expect("sum > SCALE implies some freq > 1");
        let cut = ((sum - SCALE as i64) as u32).min(freqs[i] - 1);
        freqs[i] -= cut;
        sum -= cut as i64;
    }
    freqs.iter().map(|&f| f as u16).collect()
}

/// Lower bound of the widened state interval used by *interleaved* lanes:
/// 64-bit states renormalized in 32-bit words. One renorm check per
/// symbol with a predictable branch and a 4-byte load replaces the legacy
/// byte-at-a-time loop — the byte-renorm interleaved variant measured
/// only ~1.3–1.6x over single-state because its renorm branches
/// mispredict; the word-renorm one clears 2x.
const RANS64_L: u64 = 1 << 31;

/// rANS-encode `indices` (positions into `table`) with `ways` interleaved
/// states, symbol `i` on state `i % ways`.
///
/// `ways == 1` is the legacy single-state construction, byte for byte:
/// 32-bit state, byte renorm, final state leading the stream as 4 bytes
/// LE. `ways > 1` writes the interleaved layout: `ways` 64-bit states (8
/// bytes LE each, state 0 first) followed by the shared renormalization
/// stream of 32-bit words in decode order. Encoding runs in reverse; the
/// decoder, running forward, then meets each state's renorm words in
/// exactly push order reversed — the same argument as single-state,
/// because states share one stream but each word still belongs to exactly
/// one symbol position.
fn rans_encode(indices: &[usize], table: &FreqTable, ways: usize) -> Vec<u8> {
    debug_assert!(ways == 1 || (2..=MAX_WAYS).contains(&ways));
    if ways == 1 {
        let mut renorm: Vec<u8> = Vec::new();
        let mut x = RANS_L;
        for &s in indices.iter().rev() {
            let f = table.freqs[s] as u32;
            // Renormalize so the state transition below stays in range.
            let x_max = f << (23 - SCALE_BITS + 8);
            while x >= x_max {
                renorm.push(x as u8);
                x >>= 8;
            }
            x = ((x / f) << SCALE_BITS) + (x % f) + table.cum[s];
        }
        let mut stream = Vec::with_capacity(4 + renorm.len());
        stream.extend_from_slice(&x.to_le_bytes());
        stream.extend(renorm.iter().rev());
        return stream;
    }
    let mut renorm: Vec<u32> = Vec::new();
    let mut states = [RANS64_L; MAX_WAYS];
    for i in (0..indices.len()).rev() {
        let s = indices[i];
        let f = table.freqs[s] as u64;
        // 64-bit interval [L, L << 32): renormalize in 32-bit words.
        let x_max = f << (31 - SCALE_BITS as u64 + 32);
        let mut x = states[i % ways];
        while x >= x_max {
            renorm.push(x as u32);
            x >>= 32;
        }
        states[i % ways] = ((x / f) << SCALE_BITS) + (x % f) + table.cum[s] as u64;
    }
    let mut stream = Vec::with_capacity(8 * ways + 4 * renorm.len());
    for &x in &states[..ways] {
        stream.extend_from_slice(&x.to_le_bytes());
    }
    for &w in renorm.iter().rev() {
        stream.extend_from_slice(&w.to_le_bytes());
    }
    stream
}

/// `WAYS` lockstep rANS decoder states over one shared renorm stream.
///
/// `WIDE = false` is the legacy single-state construction (32-bit states,
/// byte renorm — only ever instantiated with `WAYS = 1`); `WIDE = true`
/// is the interleaved one (64-bit states, 32-bit-word renorm). Each group
/// decodes in two passes: `WAYS` table lookups + state updates (mutually
/// independent — this is where the ILP over the single-state chain comes
/// from), then `WAYS` renormalizations in symbol order (serial only on
/// the stream cursor, matching the encoder's word order exactly).
struct RansLanes<'a, const WAYS: usize, const WIDE: bool> {
    states: [u64; WAYS],
    stream: &'a [u8],
    pos: usize,
}

impl<'a, const WAYS: usize, const WIDE: bool> RansLanes<'a, WAYS, WIDE> {
    /// Bytes of one serialized state in the stream prefix.
    const STATE_BYTES: usize = if WIDE { 8 } else { 4 };
    /// Worst-case renorm bytes one *normalized* state consumes per step:
    /// one 32-bit word wide (post-update `x >= L >> SCALE_BITS = 2^19`,
    /// one word lifts it past `2^51`), two bytes legacy (post-update
    /// `x >= 2^11`, two bytes reach `2^27 > L`).
    const STEP_BYTES: usize = if WIDE { 4 } else { 2 };
    /// Lower bound of the normalized interval.
    const L: u64 = if WIDE { RANS64_L } else { RANS_L as u64 };

    /// Validates the state prefix is present — called before the output
    /// allocation, so a truncated stream never balloons memory.
    fn new(stream: &'a [u8]) -> Result<Self> {
        let prefix = Self::STATE_BYTES * WAYS;
        if stream.len() < prefix {
            return Err(StorageError::Corrupt("rANS stream shorter than its states".into()));
        }
        let mut states = [0u64; WAYS];
        for (j, st) in states.iter_mut().enumerate() {
            let at = Self::STATE_BYTES * j;
            *st = if WIDE {
                u64::from_le_bytes(stream[at..at + 8].try_into().expect("8-byte slice"))
            } else {
                u32::from_le_bytes(stream[at..at + 4].try_into().expect("4-byte slice")) as u64
            };
        }
        Ok(RansLanes { states, stream, pos: prefix })
    }

    /// The highest `pos` at which [`Self::step_group_fast`]'s worst-case
    /// byte consumption is certainly in bounds.
    fn fast_limit(&self) -> usize {
        self.stream.len().saturating_sub(Self::STEP_BYTES * WAYS)
    }

    /// The independent half of one step: table lookup + state update for
    /// every lane. No stream access, so lanes carry no cross-dependency.
    #[inline(always)]
    fn update_group(&mut self, lut: &SlotLut) -> [u16; WAYS] {
        let mut syms = [0u16; WAYS];
        for (sym, state) in syms.iter_mut().zip(self.states.iter_mut()) {
            let x = *state;
            let slot = x & (SCALE as u64 - 1);
            let e = lut[slot as usize];
            *state = (e.freq as u64) * (x >> SCALE_BITS) + slot - e.cum as u64;
            *sym = e.sym;
        }
        syms
    }

    /// Decode the next `WAYS` symbols, one per state, in symbol order.
    /// Caller must ensure `pos <= fast_limit()`, which lets the renorm
    /// run without per-access bounds checks. Crafted streams with
    /// denormalized states may leave a state below `L`; `finish` rejects
    /// them.
    ///
    /// `CMOV` picks the renorm style per call site: `true` loads the next
    /// word unconditionally and selects with a cmov — no mispredict flush,
    /// right when renorms fire often and erratically (ANS over values,
    /// ~every third symbol); `false` branches — cheaper when renorms are
    /// rare and predictable (delta classes, low entropy), where the
    /// unconditional load and select latency would only tax the common
    /// no-renorm path. Legacy byte renorm always branches.
    #[inline(always)]
    fn step_group_fast<const CMOV: bool>(&mut self, lut: &SlotLut) -> [u16; WAYS] {
        debug_assert!(self.pos <= self.fast_limit());
        let syms = self.update_group(lut);
        for j in 0..WAYS {
            let mut x = self.states[j];
            if WIDE && CMOV {
                let w = u32::from_le_bytes(
                    self.stream[self.pos..self.pos + 4].try_into().expect("4-byte slice"),
                );
                let need = x < Self::L;
                x = if need { (x << 32) | w as u64 } else { x };
                self.pos += 4 * need as usize;
            } else if WIDE {
                if x < Self::L {
                    let w = u32::from_le_bytes(
                        self.stream[self.pos..self.pos + 4].try_into().expect("4-byte slice"),
                    );
                    x = (x << 32) | w as u64;
                    self.pos += 4;
                }
            } else if x < Self::L {
                x = (x << 8) | self.stream[self.pos] as u64;
                self.pos += 1;
                if x < Self::L {
                    x = (x << 8) | self.stream[self.pos] as u64;
                    self.pos += 1;
                }
            }
            self.states[j] = x;
        }
        syms
    }

    /// [`Self::step_group_fast`] without the headroom requirement: exact
    /// bounds checks, for the last few groups of a stream.
    fn step_group(&mut self, lut: &SlotLut) -> Result<[u16; WAYS]> {
        let syms = self.update_group(lut);
        for j in 0..WAYS {
            self.renorm_checked(j)?;
        }
        Ok(syms)
    }

    /// Decode one symbol on state `j` (the trailing partial group).
    fn step_one(&mut self, j: usize, lut: &SlotLut) -> Result<u16> {
        let x = self.states[j];
        let slot = x & (SCALE as u64 - 1);
        let e = lut[slot as usize];
        self.states[j] = (e.freq as u64) * (x >> SCALE_BITS) + slot - e.cum as u64;
        self.renorm_checked(j)?;
        Ok(e.sym)
    }

    /// Renormalize lane `j` with exact truncation checks. The loop (not
    /// an `if`) also bounds crafted denormalized states.
    fn renorm_checked(&mut self, j: usize) -> Result<()> {
        let mut x = self.states[j];
        while x < Self::L {
            if WIDE {
                let Some(w) = self.stream.get(self.pos..self.pos + 4) else {
                    return Err(StorageError::Corrupt("rANS stream truncated".into()));
                };
                x = (x << 32) | u32::from_le_bytes(w.try_into().expect("4-byte slice")) as u64;
                self.pos += 4;
            } else {
                let Some(&b) = self.stream.get(self.pos) else {
                    return Err(StorageError::Corrupt("rANS stream truncated".into()));
                };
                x = (x << 8) | b as u64;
                self.pos += 1;
            }
        }
        self.states[j] = x;
        Ok(())
    }

    /// Every state must return to `L` with the stream fully consumed —
    /// the same truncation/tamper detection as single-state.
    fn finish(&self) -> Result<()> {
        if self.states.iter().any(|&x| x != Self::L) || self.pos != self.stream.len() {
            return Err(StorageError::Corrupt("rANS stream does not round-trip".into()));
        }
        Ok(())
    }
}

// ------------------------------------------------------- bit stream

/// LSB-first bit writer for the delta offset stream.
#[derive(Default)]
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn put(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 64 && (n == 64 || bits < (1u64 << n)));
        let lo = n.min(32);
        self.put_small(bits & low_mask(lo), lo);
        if n > 32 {
            self.put_small(bits >> 32, n - 32);
        }
    }

    fn put_small(&mut self, bits: u64, n: u32) {
        self.acc |= bits << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

/// LSB-first bit cursor over the delta offset stream. Position is a plain
/// bit index (no shifting accumulator), so group decode can pull several
/// lanes' bits out of a single loaded window — see [`take_offsets`].
struct BitCursor<'a> {
    buf: &'a [u8],
    bitpos: usize,
}

impl<'a> BitCursor<'a> {
    fn new(buf: &'a [u8]) -> BitCursor<'a> {
        BitCursor { buf, bitpos: 0 }
    }

    /// Take `n <= 63` bits (offsets carry at most `width - 1`).
    #[inline(always)]
    fn take(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 63);
        let byte = self.bitpos >> 3;
        let sh = (self.bitpos & 7) as u32;
        if byte + 8 <= self.buf.len() && sh + n <= 64 {
            let w = u64::from_le_bytes(self.buf[byte..byte + 8].try_into().expect("8-byte slice"));
            self.bitpos += n as usize;
            Ok((w >> sh) & low_mask(n))
        } else {
            self.take_slow(n)
        }
    }

    /// Byte-at-a-time fallback: reads near the end of the stream, or ones
    /// whose bits span nine bytes.
    #[cold]
    fn take_slow(&mut self, n: u32) -> Result<u64> {
        let end = self.bitpos + n as usize;
        if end > self.buf.len() * 8 {
            return Err(StorageError::Corrupt("codec bit stream truncated".into()));
        }
        let mut v = 0u64;
        let mut got = 0u32;
        while got < n {
            let b = self.buf[self.bitpos >> 3] as u64;
            let sh = (self.bitpos & 7) as u32;
            let take = (8 - sh).min(n - got);
            v |= ((b >> sh) & low_mask(take)) << got;
            got += take;
            self.bitpos += take as usize;
        }
        Ok(v)
    }

    /// The stream must end exactly at the cursor's last byte, with any
    /// padding bits in that byte zero — the truncation/tamper detection
    /// the accumulator-style reader enforced.
    fn finish(self) -> Result<()> {
        let pad_zero = match self.bitpos % 8 {
            0 => true,
            r => self.buf[self.bitpos / 8] >> r == 0,
        };
        if self.bitpos.div_ceil(8) != self.buf.len() || !pad_zero {
            return Err(StorageError::Corrupt("codec bit stream has trailing data".into()));
        }
        Ok(())
    }
}

fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

// ------------------------------------------------------- array codecs

/// Where a decoder's values go. The entropy decoders are written once
/// against this trait and monomorphized per destination: a caller's
/// `Vec<u64>` ([`decode_section_into`]) or packed words ([`PackSink`],
/// [`decode_array`]).
trait Sink {
    /// Called once, after every header check has passed and before the
    /// first value: exactly `len` values of at most `width` bits follow.
    fn begin(&mut self, width: u8, len: usize);
    fn push(&mut self, v: u64);
    /// One interleave group, in symbol order.
    fn push_group<const N: usize>(&mut self, vs: &[u64; N]);
}

impl Sink for Vec<u64> {
    fn begin(&mut self, _width: u8, len: usize) {
        self.reserve(len.min(MAX_EAGER_RESERVE));
    }

    #[inline(always)]
    fn push(&mut self, v: u64) {
        Vec::push(self, v);
    }

    #[inline(always)]
    fn push_group<const N: usize>(&mut self, vs: &[u64; N]) {
        // One grow check per group instead of one per value.
        self.extend_from_slice(vs);
    }
}

/// Packs values into [`BitPacked`] words as they arrive: the current word
/// is built in a register (`acc`, next free bit `shift`) and stored once
/// when no further lane fits, so a decoded value is written exactly once,
/// in its final form. A value wider than `width` would bleed into its
/// neighbours; the decoders bound what they produce by the width's mask
/// (delta: its running maximum; ANS: the table's top symbol) and fail the
/// whole section before the words are used.
#[derive(Default)]
struct PackSink {
    width: u32,
    /// `64 - width`: a `shift` above this leaves no room for another lane.
    limit: u32,
    shift: u32,
    acc: u64,
    len: usize,
    words: Vec<u64>,
}

impl PackSink {
    #[inline(always)]
    fn flush_if_full(&mut self) {
        if self.shift > self.limit {
            self.words.push(self.acc);
            self.acc = 0;
            self.shift = 0;
        }
    }

    /// The packed array. `from_raw` re-checks the word count against
    /// `len` and `width`.
    fn finish(mut self) -> Result<BitPacked> {
        if self.shift > 0 {
            self.words.push(self.acc);
        }
        BitPacked::from_raw(self.width as u8, self.len, self.words)
    }
}

impl Sink for PackSink {
    fn begin(&mut self, width: u8, len: usize) {
        self.width = width as u32;
        self.limit = 64 - width as u32;
        self.len = len;
        self.words.reserve(words_for(width, len).min(MAX_EAGER_RESERVE));
    }

    #[inline(always)]
    fn push(&mut self, v: u64) {
        // `shift <= limit` here, so the shift amount is below 64 (at
        // width 0 it stays 0 and no word is ever stored).
        self.acc |= v << self.shift;
        self.shift += self.width;
        self.flush_if_full();
    }

    #[inline(always)]
    fn push_group<const N: usize>(&mut self, vs: &[u64; N]) {
        if self.shift + N as u32 * self.width > 64 {
            // The group straddles a word boundary.
            for &v in vs {
                self.push(v);
            }
            return;
        }
        for &v in vs {
            self.acc |= v << self.shift;
            self.shift += self.width;
        }
        self.flush_if_full();
    }
}

/// Exact on-disk size of a raw (v3) packed-array section. Saturates on
/// absurd lengths (only reachable from crafted input — decoders compare
/// this against the footer's bounded `uncompressed`, so a saturated value
/// simply fails that comparison).
pub fn raw_section_len(width: u8, len: u64) -> u64 {
    let words = if width == 0 { 0 } else { len.div_ceil((64 / width as u64).max(1)) };
    words.saturating_mul(8).saturating_add(9)
}

fn raw_section(packed: &BitPacked) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + packed.packed_bytes());
    out.push(packed.width());
    out.extend_from_slice(&(packed.len() as u64).to_le_bytes());
    for w in packed.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// The stream layout `encode_array` picks for a section of `n_symbols`
/// entropy-coded symbols.
fn auto_ways(n_symbols: usize) -> usize {
    if n_symbols >= INTERLEAVE_MIN_SYMBOLS {
        INTERLEAVE_WAYS
    } else {
        1
    }
}

/// Encode a packed array with the smallest applicable codec. Ties prefer
/// `Raw < Delta < Ans`, so a codec is only ever chosen when it is
/// *strictly* smaller than raw — which the v4 footer validation relies on.
pub(crate) fn encode_array(packed: &BitPacked) -> (Codec, Vec<u8>) {
    let mut best = (Codec::Raw, raw_section(packed));
    // Block-decode the candidate input in one sweep instead of a
    // per-element packed-word probe.
    let mut values = vec![0u64; packed.len()];
    packed.unpack_range(0, packed.len(), &mut values);
    if let Some(d) =
        encode_delta(&values, packed.width(), auto_ways(values.len().saturating_sub(1)))
    {
        if d.len() < best.1.len() {
            best = (Codec::Delta, d);
        }
    }
    if let Some(a) = encode_ans(&values, packed.width(), auto_ways(values.len())) {
        if a.len() < best.1.len() {
            best = (Codec::Ans, a);
        }
    }
    best
}

/// Decode a codec-transformed array section (the whole of `buf`) into a
/// [`BitPacked`], given the raw section size the footer promised. Values
/// are packed as they are decoded — no intermediate `Vec<u64>` of values —
/// and an upper bound on them comes back with the array (the delta
/// decoder's running maximum, exact; the ANS table's top symbol, exact for
/// any stream the encoder wrote), so the caller can prove the column's own
/// bound (dictionary size, `max − min`) without walking the result again.
pub(crate) fn decode_array(
    codec: Codec,
    buf: &[u8],
    expected_raw: u64,
) -> Result<(BitPacked, u64)> {
    let mut sink = PackSink::default();
    let (_, bound) = match codec {
        Codec::Raw => {
            return Err(StorageError::Corrupt("raw sections decode on the v3 path".into()))
        }
        Codec::Delta => decode_delta(buf, expected_raw, None, &mut sink)?,
        Codec::Ans => decode_ans(buf, expected_raw, None, &mut sink)?,
    };
    Ok((sink.finish()?, bound))
}

/// Decode an array section straight into a caller-provided scratch vector
/// (cleared first), returning the section's declared width — the
/// decode-into-scratch path for consumers that want plain values (the
/// decode bench, the repo benchmark's replay probes). Same decoders as
/// `decode_array`, writing values instead of packed words. Unlike
/// `decode_array` this also accepts [`Codec::Raw`] sections
/// (`width u8 | len u64 | words…`).
///
/// All size checks — the declared length against the footer's
/// `expected_raw` (and against `expected_len`, when the caller knows the
/// row count), the symbol table, and the stream's state prefix — run
/// *before* the output allocation, so truncated or crafted sections never
/// allocate their full declared size.
pub fn decode_section_into(
    codec: Codec,
    buf: &[u8],
    expected_raw: u64,
    expected_len: Option<u64>,
    out: &mut Vec<u64>,
) -> Result<u8> {
    out.clear();
    match codec {
        Codec::Raw => decode_raw_into(buf, expected_raw, expected_len, out),
        Codec::Delta => decode_delta(buf, expected_raw, expected_len, out).map(|(w, _)| w),
        Codec::Ans => decode_ans(buf, expected_raw, expected_len, out).map(|(w, _)| w),
    }
}

/// Encode `values` as a `codec` section at `width`, forcing the stream
/// layout: `ways == 1` writes the legacy single-state layout, `2..=4` an
/// interleaved one (`Raw` ignores `ways`). `None` when the codec does not
/// apply. Bench / differential-test entry point; `encode_array` picks the
/// codec and layout itself.
pub fn encode_section(values: &[u64], width: u8, codec: Codec, ways: usize) -> Option<Vec<u8>> {
    match codec {
        Codec::Raw => Some(raw_section(&BitPacked::from_slice_with_width(values, width))),
        Codec::Delta => encode_delta(values, width, ways),
        Codec::Ans => encode_ans(values, width, ways),
    }
}

/// Check a section's declared element count against what the caller's
/// footer metadata says it must be (one value per row).
fn check_expected_len(len: u64, expected_len: Option<u64>) -> Result<()> {
    match expected_len {
        Some(e) if e != len => Err(StorageError::Corrupt(format!(
            "section declares {len} values, footer promises {e}"
        ))),
        _ => Ok(()),
    }
}

/// Decode a raw (v3-layout) section into `out`. Word presence is checked
/// against the actual buffer before any allocation.
fn decode_raw_into(
    buf: &[u8],
    expected_raw: u64,
    expected_len: Option<u64>,
    out: &mut Vec<u64>,
) -> Result<u8> {
    let mut buf = buf;
    let width = take_u8(&mut buf)?;
    if width > 64 {
        return Err(StorageError::Corrupt(format!("bad bit width {width}")));
    }
    let len = take_u64(&mut buf)?;
    if raw_section_len(width, len) != expected_raw {
        return Err(StorageError::Corrupt(format!(
            "raw section declares {len} x {width}-bit values, which contradicts the footer's \
             uncompressed size"
        )));
    }
    check_expected_len(len, expected_len)?;
    let len = len as usize;
    let words = words_for(width, len);
    if buf.len() != words * 8 {
        return Err(StorageError::Corrupt("raw section word count disagrees with input".into()));
    }
    let mut ws = Vec::with_capacity(words);
    for chunk in buf.chunks_exact(8) {
        ws.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let packed = BitPacked::from_raw(width, len, ws)?;
    out.resize(len, 0);
    packed.unpack_range(0, len, out);
    Ok(width)
}

/// Read the section's stream layout from its first byte(s): a legacy
/// single-state section leads with its width byte (`<= 64`), an
/// interleaved one with `0x80 | ways` followed by the width byte.
fn take_layout(buf: &mut &[u8]) -> Result<(usize, u8)> {
    let b = take_u8(buf)?;
    if b < INTERLEAVE_TAG {
        if b > 64 {
            return Err(StorageError::Corrupt(format!("bad bit width {b}")));
        }
        return Ok((1, b));
    }
    let ways = (b & 0x7f) as usize;
    if !(2..=MAX_WAYS).contains(&ways) {
        return Err(StorageError::Corrupt(format!("bad interleave sub-tag {b:#04x}")));
    }
    let width = take_u8(buf)?;
    if width > 64 {
        return Err(StorageError::Corrupt(format!("bad bit width {width}")));
    }
    Ok((ways, width))
}

/// Class symbol for one delta: `2 * bits(|d|) + sign`. Carrying the sign
/// in the rANS alphabet instead of a zigzag bit lets the entropy coder
/// learn sign skew — on a sorted-per-user time column nearly every delta
/// is non-negative, so the sign costs ~0 bits instead of 1 per value.
fn delta_sym(d: i64) -> (u16, u64) {
    let mag = d.unsigned_abs();
    ((bits_for(mag) as u16) << 1 | (d < 0) as u16, mag)
}

const DELTA_MAX_SYM: u16 = 64 << 1 | 1;

/// Per-class decode tables, indexed by class symbol: explicit offset-bit
/// count (`k - 1` for magnitude bit-length `k >= 1`), the low-bit mask of
/// that count, and the magnitude's implicit top bit (`2^(k-1)`, or 0 for
/// class 0). One L1 load each replaces the compare / saturating-subtract
/// / variable-shift chains in the hot loop — the offset side of delta
/// decode is instruction-throughput-bound, not latency-bound, so trading
/// ALU ops for tiny table loads is a direct win. Indexed `sym & 0xff`:
/// the frequency-table reader bounds symbols to [`DELTA_MAX_SYM`], so the
/// mask never changes a valid index, it only keeps crafted input in
/// bounds without a checked branch. Entries past `DELTA_MAX_SYM` are
/// zero and unreachable.
const DELTA_MS: [u8; 256] = build_delta_tables().0;
const DELTA_MASK: [u64; 256] = build_delta_tables().1;
const DELTA_TOP: [u64; 256] = build_delta_tables().2;

const fn build_delta_tables() -> ([u8; 256], [u64; 256], [u64; 256]) {
    let mut ms = [0u8; 256];
    let mut mask = [0u64; 256];
    let mut top = [0u64; 256];
    let mut sym = 0usize;
    while sym <= DELTA_MAX_SYM as usize {
        let k = sym >> 1;
        if k >= 1 {
            let m = k - 1;
            ms[sym] = m as u8;
            mask[sym] = if m == 0 { 0 } else { u64::MAX >> (64 - m) };
            top[sym] = 1u64 << m;
        }
        sym += 1;
    }
    (ms, mask, top)
}

/// Delta codec: `[0x80|ways u8]? | width u8 | len u64 | first u64 | class
/// table | class_stream_len u32 | class stream | offset bits`. The `first`
/// field is present for `len >= 1`, everything after it for `len >= 2`.
/// The class alphabet is `(magnitude bit-length, sign)` pairs; a
/// magnitude's sub-top bits go to the offset stream verbatim.
pub(crate) fn encode_delta(values: &[u64], width: u8, ways: usize) -> Option<Vec<u8>> {
    debug_assert!(ways == 1 || (2..=MAX_WAYS).contains(&ways));
    let mut out = Vec::new();
    if ways > 1 {
        out.push(INTERLEAVE_TAG | ways as u8);
    }
    out.push(width);
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    let Some((&first, rest)) = values.split_first() else { return Some(out) };
    out.extend_from_slice(&first.to_le_bytes());
    if rest.is_empty() {
        return Some(out);
    }
    let mut mags = Vec::with_capacity(rest.len());
    let mut class_counts = [0u64; DELTA_MAX_SYM as usize + 1];
    let mut prev = first;
    for &v in rest {
        let (sym, mag) = delta_sym(v.wrapping_sub(prev) as i64);
        class_counts[sym as usize] += 1;
        mags.push((sym, mag));
        prev = v;
    }
    let syms: Vec<u16> = (0..=DELTA_MAX_SYM).filter(|&c| class_counts[c as usize] > 0).collect();
    let counts: Vec<u64> = syms.iter().map(|&c| class_counts[c as usize]).collect();
    let table = FreqTable::build(syms, &counts);
    let index_of = |sym: u16| table.syms.binary_search(&sym).unwrap();
    let indices: Vec<usize> = mags.iter().map(|&(sym, _)| index_of(sym)).collect();
    let class_stream = rans_encode(&indices, &table, ways);

    table.write(&mut out);
    out.extend_from_slice(&(class_stream.len() as u32).to_le_bytes());
    out.extend_from_slice(&class_stream);
    let mut bits = BitWriter::default();
    for &(sym, mag) in &mags {
        let k = (sym >> 1) as u32;
        if k >= 2 {
            bits.put(mag & low_mask(k - 1), k - 1);
        }
    }
    out.extend_from_slice(&bits.finish());
    Some(out)
}

/// Decode a delta section into `out`, returning the declared width and
/// the largest value produced (0 for an empty section).
fn decode_delta<S: Sink>(
    buf: &[u8],
    expected_raw: u64,
    expected_len: Option<u64>,
    out: &mut S,
) -> Result<(u8, u64)> {
    let mut buf = buf;
    let (ways, width) = take_layout(&mut buf)?;
    let len = take_u64(&mut buf)?;
    if raw_section_len(width, len) != expected_raw {
        return Err(StorageError::Corrupt(format!(
            "delta section declares {len} x {width}-bit values, which contradicts the footer's \
             uncompressed size"
        )));
    }
    check_expected_len(len, expected_len)?;
    if len == 0 {
        expect_consumed(buf)?;
        out.begin(width, 0);
        return Ok((width, 0));
    }
    let first = take_u64(&mut buf)?;
    if first > low_mask(width as u32) {
        return Err(StorageError::Corrupt("delta first value exceeds declared width".into()));
    }
    if len == 1 {
        expect_consumed(buf)?;
        out.begin(width, 1);
        out.push(first);
        return Ok((width, first));
    }
    let table = FreqTable::read(&mut buf, DELTA_MAX_SYM)?;
    let class_stream_len = take_u32(&mut buf)? as usize;
    if class_stream_len > buf.len() {
        return Err(StorageError::Corrupt("delta class stream overruns blob".into()));
    }
    let (class_stream, offset_bytes) = buf.split_at(class_stream_len);
    let n = len as usize - 1;
    let max = match ways {
        1 => delta_body::<1, false, S>(class_stream, offset_bytes, n, first, width, &table, out),
        2 => delta_body::<2, true, S>(class_stream, offset_bytes, n, first, width, &table, out),
        3 => delta_body::<3, true, S>(class_stream, offset_bytes, n, first, width, &table, out),
        4 => delta_body::<4, true, S>(class_stream, offset_bytes, n, first, width, &table, out),
        _ => unreachable!("take_layout bounds ways"),
    }?;
    Ok((width, max))
}

/// Fused rANS + offset-bit delta decode loop, monomorphized per stream
/// width (so the group loops unroll) and per destination. Decoding the
/// class and its offset bits in one pass avoids materializing the class
/// array (measurably faster on the time column, the largest blob in every
/// file). Returns the largest value produced.
fn delta_body<const WAYS: usize, const WIDE: bool, S: Sink>(
    class_stream: &[u8],
    offset_bytes: &[u8],
    n: usize,
    first: u64,
    width: u8,
    table: &FreqTable,
    out: &mut S,
) -> Result<u64> {
    let lut = table.slot_lut();
    let mut lanes = RansLanes::<WAYS, WIDE>::new(class_stream)?;
    let fast_limit = lanes.fast_limit();
    let mut bits = BitCursor::new(offset_bytes);
    out.begin(width, n + 1);
    out.push(first);
    let mut prev = first;
    // Width violations are caught through the running maximum instead of a
    // branch per value; one check at the end fails the whole decode either
    // way.
    let mut max = first;
    for _ in 0..n / WAYS {
        let syms = if lanes.pos <= fast_limit {
            lanes.step_group_fast::<false>(&lut)
        } else {
            lanes.step_group(&lut)?
        };
        let offs = take_offsets::<WAYS>(&mut bits, &syms)?;
        let mut vs = [0u64; WAYS];
        for j in 0..WAYS {
            let mag = DELTA_TOP[(syms[j] & 0xff) as usize] | offs[j];
            let s = (syms[j] & 1) as u64;
            let d = (mag ^ s.wrapping_neg()).wrapping_add(s);
            prev = prev.wrapping_add(d);
            vs[j] = prev;
        }
        // The group's own maximum first: the chain through `max` is then
        // one op per group, not one per value.
        max = max.max(vs.iter().copied().fold(0, u64::max));
        out.push_group(&vs);
    }
    for j in 0..n % WAYS {
        let sym = lanes.step_one(j, &lut)?;
        let m = DELTA_MS[(sym & 0xff) as usize] as u32;
        let off = if m > 0 { bits.take(m)? } else { 0 };
        let mag = DELTA_TOP[(sym & 0xff) as usize] | off;
        let s = (sym & 1) as u64;
        let d = (mag ^ s.wrapping_neg()).wrapping_add(s);
        let v = prev.wrapping_add(d);
        max = max.max(v);
        out.push(v);
        prev = v;
    }
    if max > low_mask(width as u32) {
        return Err(StorageError::Corrupt("delta value exceeds declared width".into()));
    }
    lanes.finish()?;
    bits.finish()?;
    Ok(max)
}

/// The 64-bit little-endian window whose bit 0 is stream bit `bitpos`.
/// Caller ensures `(bitpos >> 3) + 8 <= buf.len()`; the top `bitpos & 7`
/// bits of the result are zero fill, not stream bits.
#[inline(always)]
fn bit_window(buf: &[u8], bitpos: usize) -> u64 {
    let byte = bitpos >> 3;
    u64::from_le_bytes(buf[byte..byte + 8].try_into().expect("8-byte slice")) >> (bitpos & 7)
}

/// Split a window into consecutive lanes' offsets: each lane masks its
/// bits off the bottom and shifts the window down ([`DELTA_MASK`] makes
/// that an `and` + `shr` per lane, no per-lane shift-amount prefix sums).
/// Caller ensures the lanes' bits total at most 63.
#[inline(always)]
fn split_window(mut w: u64, syms: &[u16], ms: &[u32], out: &mut [u64]) {
    for ((o, &sym), &m) in out.iter_mut().zip(syms).zip(ms) {
        *o = w & DELTA_MASK[(sym & 0xff) as usize];
        w >>= m;
    }
}

/// Pull one group's verbatim offset bits: lane `j` takes
/// `DELTA_MS[syms[j]]` bits (none for classes 0 and 1). Three tiers:
///
/// 1. the whole group's bits fit one 64-bit window — a single unaligned
///    load feeds every lane;
/// 2. each *half* of the group fits a window of its own — two loads, which
///    covers offsets up to 28 bits per lane and keeps wide-delta columns
///    (the time column) off the checked path;
/// 3. otherwise, and within 16 bytes of the stream's end, one checked
///    [`BitCursor::take`] per lane.
#[inline(always)]
fn take_offsets<const WAYS: usize>(
    bits: &mut BitCursor,
    syms: &[u16; WAYS],
) -> Result<[u64; WAYS]> {
    let mut ms = [0u32; WAYS];
    for j in 0..WAYS {
        ms[j] = DELTA_MS[(syms[j] & 0xff) as usize] as u32;
    }
    let half = WAYS / 2;
    let lo: u32 = ms[..half].iter().sum();
    let hi: u32 = ms[half..].iter().sum();
    let total = lo + hi;
    let byte = bits.bitpos >> 3;
    let sh = (bits.bitpos & 7) as u32;
    let mut out = [0u64; WAYS];
    // `<= 63` (not 64) keeps every shift below strictly in range with no
    // per-lane clamping; the skipped exactly-64-bit case falls through.
    if sh + total <= 63 && byte + 8 <= bits.buf.len() {
        let w = bit_window(bits.buf, bits.bitpos);
        bits.bitpos += total as usize;
        split_window(w, syms, &ms, &mut out);
        return Ok(out);
    }
    // A half's bits start at most 7 bits into its window, so 56 bits per
    // half is the `<= 63` rule again; the second window starts at most 7
    // bytes after the first, so 16 readable bytes cover both loads.
    if WAYS >= 2 && lo <= 56 && hi <= 56 && byte + 16 <= bits.buf.len() {
        let w = bit_window(bits.buf, bits.bitpos);
        split_window(w, &syms[..half], &ms[..half], &mut out[..half]);
        bits.bitpos += lo as usize;
        let w = bit_window(bits.buf, bits.bitpos);
        split_window(w, &syms[half..], &ms[half..], &mut out[half..]);
        bits.bitpos += hi as usize;
        return Ok(out);
    }
    for j in 0..WAYS {
        if ms[j] > 0 {
            out[j] = bits.take(ms[j])?;
        }
    }
    Ok(out)
}

/// ANS codec: `[0x80|ways u8]? | width u8 | len u64 | value table | rANS
/// stream`. Applicable when every value fits the 12-bit table alphabet.
pub(crate) fn encode_ans(values: &[u64], width: u8, ways: usize) -> Option<Vec<u8>> {
    if values.is_empty() || values.iter().any(|&v| v >= SCALE as u64) {
        return None;
    }
    let mut counts = [0u64; SCALE as usize];
    for &v in values {
        counts[v as usize] += 1;
    }
    Some(encode_ans_with_counts(values, width, ways, &counts))
}

/// [`encode_ans`] against given symbol counts, which must be non-zero for
/// every value that occurs. The table lists exactly the symbols with a
/// non-zero count — the seam through which tests list a symbol the stream
/// never produces.
fn encode_ans_with_counts(
    values: &[u64],
    width: u8,
    ways: usize,
    counts: &[u64; SCALE as usize],
) -> Vec<u8> {
    debug_assert!(ways == 1 || (2..=MAX_WAYS).contains(&ways));
    let syms: Vec<u16> = (0..SCALE as u16).filter(|&v| counts[v as usize] > 0).collect();
    let sym_counts: Vec<u64> = syms.iter().map(|&v| counts[v as usize]).collect();
    let mut index_of = [0u16; SCALE as usize];
    for (i, &v) in syms.iter().enumerate() {
        index_of[v as usize] = i as u16;
    }
    let table = FreqTable::build(syms, &sym_counts);
    let indices: Vec<usize> = values.iter().map(|&v| index_of[v as usize] as usize).collect();
    let stream = rans_encode(&indices, &table, ways);

    let mut out = Vec::with_capacity(10 + 2 + 4 * table.syms.len() + stream.len());
    if ways > 1 {
        out.push(INTERLEAVE_TAG | ways as u8);
    }
    out.push(width);
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    table.write(&mut out);
    out.extend_from_slice(&stream);
    out
}

/// Test support: an ANS section over `values` whose table additionally
/// lists `unused` (with the minimum frequency) although no value equals it.
#[cfg(test)]
pub(crate) fn encode_ans_listing_unused(
    values: &[u64],
    width: u8,
    ways: usize,
    unused: u16,
) -> Vec<u8> {
    let mut counts = [0u64; SCALE as usize];
    for &v in values {
        counts[v as usize] += 1;
    }
    assert_eq!(counts[unused as usize], 0, "symbol {unused} does occur");
    counts[unused as usize] = 1;
    encode_ans_with_counts(values, width, ways, &counts)
}

/// Decode an ANS section into `out`, returning the declared width and an
/// upper bound on every value produced: the table's top symbol. Streams
/// the encoder wrote list exactly the symbols that occur, so the bound is
/// the maximum itself; a crafted table may list a symbol its stream never
/// produces, in which case the bound overshoots (callers that care take
/// the exact maximum from the decoded array — see `persist`).
fn decode_ans<S: Sink>(
    buf: &[u8],
    expected_raw: u64,
    expected_len: Option<u64>,
    out: &mut S,
) -> Result<(u8, u64)> {
    let mut buf = buf;
    let (ways, width) = take_layout(&mut buf)?;
    let len = take_u64(&mut buf)?;
    if len == 0 || raw_section_len(width, len) != expected_raw {
        return Err(StorageError::Corrupt(format!(
            "ANS section declares {len} x {width}-bit values, which contradicts the footer's \
             uncompressed size"
        )));
    }
    check_expected_len(len, expected_len)?;
    let table = FreqTable::read(&mut buf, SCALE as u16 - 1)?;
    let top = *table.syms.last().expect("FreqTable::read rejects empty tables") as u64;
    // No decoded value can exceed `top`, so this also keeps every lane the
    // packing sink writes inside its `width` bits.
    if top > low_mask(width as u32) {
        return Err(StorageError::Corrupt("ANS symbol exceeds declared width".into()));
    }
    let n = len as usize;
    match ways {
        1 => ans_body::<1, false, S>(buf, n, width, &table, out),
        2 => ans_body::<2, true, S>(buf, n, width, &table, out),
        3 => ans_body::<3, true, S>(buf, n, width, &table, out),
        4 => ans_body::<4, true, S>(buf, n, width, &table, out),
        _ => unreachable!("take_layout bounds ways"),
    }?;
    Ok((width, top))
}

fn ans_body<const WAYS: usize, const WIDE: bool, S: Sink>(
    stream: &[u8],
    n: usize,
    width: u8,
    table: &FreqTable,
    out: &mut S,
) -> Result<()> {
    let lut = table.slot_lut();
    let mut lanes = RansLanes::<WAYS, WIDE>::new(stream)?;
    let fast_limit = lanes.fast_limit();
    out.begin(width, n);
    for _ in 0..n / WAYS {
        let syms = if lanes.pos <= fast_limit {
            lanes.step_group_fast::<true>(&lut)
        } else {
            lanes.step_group(&lut)?
        };
        out.push_group(&syms.map(u64::from));
    }
    for j in 0..n % WAYS {
        out.push(lanes.step_one(j, &lut)? as u64);
    }
    lanes.finish()
}

// ------------------------------------------------------- byte readers

fn take_u8(buf: &mut &[u8]) -> Result<u8> {
    let (&b, rest) =
        buf.split_first().ok_or_else(|| StorageError::Corrupt("codec section truncated".into()))?;
    *buf = rest;
    Ok(b)
}

fn take_bytes<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    if buf.len() < N {
        return Err(StorageError::Corrupt("codec section truncated".into()));
    }
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    Ok(head.try_into().expect("split_at guarantees N bytes"))
}

fn take_u16(buf: &mut &[u8]) -> Result<u16> {
    Ok(u16::from_le_bytes(take_bytes::<2>(buf)?))
}

fn take_u32(buf: &mut &[u8]) -> Result<u32> {
    Ok(u32::from_le_bytes(take_bytes::<4>(buf)?))
}

fn take_u64(buf: &mut &[u8]) -> Result<u64> {
    Ok(u64::from_le_bytes(take_bytes::<8>(buf)?))
}

fn expect_consumed(buf: &[u8]) -> Result<()> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(StorageError::Corrupt(format!("codec section has {} trailing bytes", buf.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn packed(values: &[u64]) -> BitPacked {
        BitPacked::from_slice(values)
    }

    fn delta_array(buf: &[u8], expected_raw: u64) -> Result<BitPacked> {
        decode_array(Codec::Delta, buf, expected_raw).map(|(packed, _)| packed)
    }

    fn ans_array(buf: &[u8], expected_raw: u64) -> Result<BitPacked> {
        decode_array(Codec::Ans, buf, expected_raw).map(|(packed, _)| packed)
    }

    fn roundtrip_delta(values: &[u64], width: u8) {
        let raw = raw_section_len(width, values.len() as u64);
        for ways in [1, 2, 4] {
            let enc = encode_delta(values, width, ways).expect("delta always encodes");
            let dec = delta_array(&enc, raw).expect("decodes");
            assert_eq!(dec.to_vec(), values, "ways={ways}");
            assert_eq!(dec.width(), width);
            // The scratch path must agree with the BitPacked path.
            let mut scratch = vec![0xdead; 3];
            let w = decode_section_into(
                Codec::Delta,
                &enc,
                raw,
                Some(values.len() as u64),
                &mut scratch,
            )
            .expect("scratch decodes");
            assert_eq!(w, width);
            assert_eq!(scratch, values, "ways={ways} scratch");
        }
    }

    fn roundtrip_ans(values: &[u64], width: u8) -> bool {
        let raw = raw_section_len(width, values.len() as u64);
        for ways in [1, 2, 4] {
            let Some(enc) = encode_ans(values, width, ways) else { return false };
            let dec = ans_array(&enc, raw).expect("decodes");
            assert_eq!(dec.to_vec(), values, "ways={ways}");
            assert_eq!(dec.width(), width);
            let mut scratch = Vec::new();
            let w =
                decode_section_into(Codec::Ans, &enc, raw, Some(values.len() as u64), &mut scratch)
                    .expect("scratch decodes");
            assert_eq!(w, width);
            assert_eq!(scratch, values, "ways={ways} scratch");
        }
        true
    }

    #[test]
    fn delta_roundtrips_edge_shapes() {
        roundtrip_delta(&[], 7);
        roundtrip_delta(&[], 0);
        roundtrip_delta(&[42], 6);
        roundtrip_delta(&[0, 0, 0], 0);
        roundtrip_delta(&[5, 5, 5, 5], 3);
        roundtrip_delta(&[u64::MAX, 0, u64::MAX, 1], 64);
        roundtrip_delta(&(0..1000u64).collect::<Vec<_>>(), 10);
        let sawtooth: Vec<u64> = (0..500u64).map(|i| (i % 97) * 31).collect();
        roundtrip_delta(&sawtooth, 12);
    }

    #[test]
    fn ans_roundtrips_edge_shapes() {
        assert!(!roundtrip_ans(&[], 1), "empty arrays are not ANS-applicable");
        assert!(roundtrip_ans(&[3], 2));
        assert!(roundtrip_ans(&[0, 0, 0, 0], 0));
        assert!(roundtrip_ans(&[4095; 10], 12));
        assert!(!roundtrip_ans(&[4096], 13), "alphabet must stay below the table size");
        let skewed: Vec<u64> = (0..2000u64).map(|i| if i % 17 == 0 { i % 7 } else { 0 }).collect();
        assert!(roundtrip_ans(&skewed, 3));
    }

    #[test]
    fn interleaved_streams_carry_the_sub_tag() {
        let values: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let single = encode_delta(&values, 11, 1).unwrap();
        let four = encode_delta(&values, 11, 4).unwrap();
        assert_eq!(single[0], 11, "legacy sections lead with the width byte");
        assert_eq!(four[0], 0x84, "interleaved sections lead with 0x80 | ways");
        assert_eq!(four[1], 11);
        // Large arrays auto-select the interleaved layout.
        let (codec, bytes) = encode_array(&packed(&values));
        assert_eq!(codec, Codec::Delta);
        assert_eq!(bytes[0], 0x84);
        // Tiny arrays stay single-state when a codec wins at all.
        let tiny: Vec<u64> = (0..INTERLEAVE_MIN_SYMBOLS as u64).collect(); // 64 values = 63 deltas
        let (_, bytes) = encode_array(&packed(&tiny));
        assert!(bytes[0] < INTERLEAVE_TAG);
    }

    #[test]
    fn ans_beats_raw_on_skewed_data() {
        // 10K values, 95% zeros: rANS should land near the ~0.3-bit
        // entropy, far below the 3-bit packed representation.
        let values: Vec<u64> =
            (0..10_000u64).map(|i| if i % 20 == 0 { 1 + i % 7 } else { 0 }).collect();
        let p = packed(&values);
        let (codec, bytes) = encode_array(&p);
        assert_eq!(codec, Codec::Ans);
        assert!(
            bytes.len() * 4 < raw_section_len(p.width(), p.len() as u64) as usize,
            "expected >=4x on 95%-constant data, got {} of {}",
            bytes.len(),
            raw_section_len(p.width(), p.len() as u64)
        );
    }

    #[test]
    fn delta_beats_raw_on_sorted_data() {
        let values: Vec<u64> = (0..5_000u64).map(|i| 1_700_000_000 + i * 13 + (i % 5)).collect();
        let p = packed(&values);
        let (codec, bytes) = encode_array(&p);
        assert_eq!(codec, Codec::Delta);
        assert!(bytes.len() * 2 < raw_section_len(p.width(), p.len() as u64) as usize);
    }

    #[test]
    fn selection_prefers_raw_on_ties_and_tiny_arrays() {
        // Tiny arrays: the table + state overhead always loses to raw.
        let (codec, bytes) = encode_array(&packed(&[9, 3]));
        assert_eq!(codec, Codec::Raw);
        assert_eq!(bytes, raw_section(&packed(&[9, 3])));
    }

    #[test]
    fn selection_is_deterministic() {
        let values: Vec<u64> = (0..3_000u64).map(|i| (i * 2654435761) % 4096).collect();
        let p = packed(&values);
        let a = encode_array(&p);
        let b = encode_array(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_truncation_and_tampering() {
        let values: Vec<u64> = (0..400u64).map(|i| i * 3).collect();
        let raw = raw_section_len(11, 400);
        for ways in [1usize, 4] {
            let enc = encode_delta(&values, 11, ways).unwrap();
            for cut in [1, 4, 9, 12, enc.len() / 2, enc.len() - 1] {
                assert!(
                    delta_array(&enc[..cut], raw).is_err(),
                    "ways={ways}: truncation at {cut} accepted"
                );
            }
            // Flip a byte in every region (sub-tag, header, table,
            // streams): decode must either reject it or at minimum never
            // panic.
            for i in 0..enc.len() {
                let mut bad = enc.clone();
                bad[i] ^= 0x5a;
                let _ = delta_array(&bad, raw);
            }
            // A declared length that disagrees with the footer's raw size.
            assert!(delta_array(&enc, raw + 8).is_err());
            // A declared length that disagrees with the caller's row count.
            let mut scratch = Vec::new();
            assert!(decode_section_into(Codec::Delta, &enc, raw, Some(401), &mut scratch).is_err());

            let ans = encode_ans(&values, 11, ways).unwrap();
            for cut in [1, 4, 9, 11, ans.len() - 1] {
                assert!(ans_array(&ans[..cut], raw).is_err(), "ways={ways}: cut {cut}");
            }
            for i in 0..ans.len() {
                let mut bad = ans.clone();
                bad[i] ^= 0x5a;
                let _ = ans_array(&bad, raw);
            }
        }
    }

    #[test]
    fn decode_rejects_bad_sub_tags() {
        let values: Vec<u64> = (0..400u64).map(|i| i * 3).collect();
        let raw = raw_section_len(11, 400);
        let enc = encode_delta(&values, 11, 4).unwrap();
        // ways outside 2..=4 (0x80, 0x81, 0x85, 0xff) must be rejected.
        for tag in [0x80u8, 0x81, 0x85, 0xff] {
            let mut bad = enc.clone();
            bad[0] = tag;
            assert!(delta_array(&bad, raw).is_err(), "sub-tag {tag:#04x} accepted");
        }
        // Claiming fewer states than the encoder wrote leaves trailing
        // stream bytes (and wrong states) — must not round-trip.
        let mut fewer = enc.clone();
        fewer[0] = 0x82;
        assert!(delta_array(&fewer, raw).is_err());
    }

    #[test]
    fn truncated_streams_do_not_reserve_declared_capacity() {
        // A section whose header declares many values but whose stream is
        // cut before the state prefix must fail before the output
        // allocation. Observable cheaply: the scratch vector's capacity
        // stays untouched.
        let values: Vec<u64> = (0..50_000u64).map(|i| i * 3).collect();
        let raw = raw_section_len(17, values.len() as u64);
        let enc = encode_delta(&values, 17, 4).unwrap();
        // Cut inside the class table, well past the `len` field.
        let cut = &enc[..24];
        let mut scratch: Vec<u64> = Vec::new();
        assert!(decode_section_into(Codec::Delta, cut, raw, None, &mut scratch).is_err());
        assert_eq!(scratch.capacity(), 0, "truncated header must not allocate output");
    }

    /// Packing as it decodes must leave exactly the words a repack of the
    /// decoded values would, and the bound that comes back must be their
    /// maximum.
    fn assert_packing_equals_repack(values: &[u64], width: u8, codec: Codec, ways: usize) {
        let Some(enc) = encode_section(values, width, codec, ways) else { return };
        let raw = raw_section_len(width, values.len() as u64);
        let mut scratch = Vec::new();
        let w = decode_section_into(codec, &enc, raw, Some(values.len() as u64), &mut scratch)
            .expect("scratch decodes");
        assert_eq!((w, &scratch[..]), (width, values), "{codec:?} ways={ways} width={width}");
        let (packed, bound) = decode_array(codec, &enc, raw).expect("packs");
        let repacked = BitPacked::from_slice_with_width(&scratch, width);
        assert_eq!(packed.words(), repacked.words(), "{codec:?} ways={ways} width={width}");
        assert_eq!(packed, repacked);
        assert_eq!(bound, values.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn packing_sink_equals_repack_every_width_and_boundary() {
        // Lengths straddling the interleave threshold, group remainders
        // (len % ways) and, through `per_word` below, packed-word
        // boundaries at every width.
        for width in 0u8..=64 {
            let per_word = (64 / width.max(1) as usize).max(1);
            let mask = low_mask(width as u32);
            let mut lens = vec![1, 2, 3, 4, 5, 63, 64, 65, 66, 67, 68];
            lens.extend([per_word - 1, per_word, per_word + 1, 4 * per_word + 3, 257]);
            lens.retain(|&n| n > 0);
            for len in lens {
                let values: Vec<u64> = (0..len as u64)
                    .map(|i| {
                        i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32 % 64) & mask
                    })
                    .collect();
                for ways in 1..=MAX_WAYS {
                    assert_packing_equals_repack(&values, width, Codec::Delta, ways);
                    // Silently skipped where the alphabet exceeds the table.
                    assert_packing_equals_repack(&values, width, Codec::Ans, ways);
                }
            }
        }
    }

    #[test]
    fn delta_offsets_take_every_tier() {
        // Offsets of ~24 bits per lane overflow the single 64-bit window
        // (tier 1) on every group and land on the two-window tier; the
        // last groups, within 16 bytes of the stream's end, fall through
        // to the checked per-lane path. 40-bit offsets skip tier 2 too.
        for (bits, width) in [(3u32, 30u8), (24, 30), (28, 34), (29, 34), (40, 46)] {
            let step = (1u64 << bits) - 1;
            let values: Vec<u64> = (0..500u64)
                .map(|i| (1u64 << (width - 1)) + if i % 2 == 0 { step - i % 4 } else { i % 3 })
                .collect();
            roundtrip_delta(&values, width);
            for ways in 1..=MAX_WAYS {
                assert_packing_equals_repack(&values, width, Codec::Delta, ways);
            }
        }
    }

    #[test]
    fn ans_bound_is_the_tables_top_symbol() {
        let values: Vec<u64> = (0..300u64).map(|i| i % 3).collect();
        let raw = raw_section_len(3, values.len() as u64);
        for ways in [1usize, 4] {
            // Honest stream: the bound is the maximum.
            let enc = encode_ans(&values, 3, ways).unwrap();
            let (packed, bound) = decode_array(Codec::Ans, &enc, raw).unwrap();
            assert_eq!((packed.to_vec(), bound), (values.clone(), 2));
            // A listed symbol that never occurs lifts the bound, not the
            // values: callers must fall back to the exact maximum.
            let enc = encode_ans_listing_unused(&values, 3, ways, 6);
            let (packed, bound) = decode_array(Codec::Ans, &enc, raw).unwrap();
            assert_eq!((packed.to_vec(), bound), (values.clone(), 6));
            assert_eq!(packed.max_value(), 2);
            // Past the declared width it is rejected outright.
            let enc = encode_ans_listing_unused(&values, 2, ways, 6);
            assert!(decode_array(Codec::Ans, &enc, raw_section_len(2, 300)).is_err());
        }
    }

    #[test]
    fn over_wide_delta_values_fail_without_yielding_words() {
        // Values that do not fit the declared width would bleed across
        // packed lanes; the running maximum rejects the section.
        let values: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        for ways in [1usize, 4] {
            let enc = encode_delta(&values, 9, ways).unwrap(); // 995 needs 10 bits
            let raw = raw_section_len(9, 200);
            assert!(delta_array(&enc, raw).is_err(), "ways={ways}");
            let mut scratch = Vec::new();
            assert!(decode_section_into(Codec::Delta, &enc, raw, None, &mut scratch).is_err());
        }
    }

    #[test]
    fn freq_normalization_is_exact_and_minimum_one() {
        for counts in [
            vec![1u64],
            vec![1, 1],
            vec![1_000_000, 1],
            vec![1; 4096],
            (1..=100u64).collect::<Vec<_>>(),
        ] {
            let freqs = normalize_freqs(&counts);
            assert_eq!(freqs.iter().map(|&f| f as u32).sum::<u32>(), SCALE);
            assert!(freqs.iter().all(|&f| f >= 1));
        }
    }

    proptest! {
        #[test]
        fn prop_delta_roundtrips(values in prop::collection::vec(any::<u64>(), 0..300)) {
            let max = values.iter().copied().max().unwrap_or(0);
            roundtrip_delta(&values, bits_for(max));
        }

        #[test]
        fn prop_delta_roundtrips_small_widths(
            raw in prop::collection::vec(0u64..64, 0..300),
            width in 6u8..=12,
        ) {
            roundtrip_delta(&raw, width);
        }

        #[test]
        fn prop_ans_roundtrips(values in prop::collection::vec(0u64..4096, 1..300)) {
            let max = values.iter().copied().max().unwrap_or(0);
            prop_assert!(roundtrip_ans(&values, bits_for(max).max(1)));
        }

        #[test]
        fn prop_interleaved_equals_single_state(
            values in prop::collection::vec(0u64..4096, 2..300),
            ways in 2usize..=4,
        ) {
            // Same decoded values from every stream layout, through both
            // the BitPacked and the scratch path, for both codecs.
            let width = bits_for(values.iter().copied().max().unwrap_or(0)).max(1);
            let raw = raw_section_len(width, values.len() as u64);
            for codec in [Codec::Delta, Codec::Ans] {
                let single = encode_section(&values, width, codec, 1).unwrap();
                let multi = encode_section(&values, width, codec, ways).unwrap();
                let a = decode_array(codec, &single, raw).unwrap();
                let b = decode_array(codec, &multi, raw).unwrap();
                prop_assert_eq!(&a, &b);
                let mut scratch = Vec::new();
                decode_section_into(codec, &multi, raw, Some(values.len() as u64), &mut scratch)
                    .unwrap();
                prop_assert_eq!(&scratch, &values);
            }
        }

        #[test]
        fn prop_packing_sink_equals_repack(
            raw in prop::collection::vec(any::<u64>(), 1..400),
            width in 0u8..=64,
            ways in 1usize..=4,
            smooth in prop::bool::ANY,
        ) {
            // `smooth` keeps consecutive values close (small deltas, the
            // single-window offset tier); otherwise deltas are as wide as
            // the width allows (the two-window and per-lane tiers).
            let mask = low_mask(width as u32);
            let values: Vec<u64> = if smooth {
                let mut acc = raw[0] & mask;
                raw.iter().map(|r| { acc = acc.wrapping_add(r % 7) & mask; acc }).collect()
            } else {
                raw.iter().map(|r| r & mask).collect()
            };
            assert_packing_equals_repack(&values, width, Codec::Delta, ways);
            assert_packing_equals_repack(&values, width, Codec::Ans, ways);
        }

        #[test]
        fn prop_raw_section_roundtrips_through_scratch(
            values in prop::collection::vec(any::<u64>(), 0..300),
        ) {
            let p = packed(&values);
            let enc = encode_section(&values, p.width(), Codec::Raw, 1).unwrap();
            let raw = raw_section_len(p.width(), values.len() as u64);
            let mut scratch = Vec::new();
            let w = decode_section_into(Codec::Raw, &enc, raw, Some(values.len() as u64),
                &mut scratch).unwrap();
            prop_assert_eq!(w, p.width());
            prop_assert_eq!(&scratch, &values);
        }

        #[test]
        fn prop_selection_roundtrips_through_chosen_codec(
            values in prop::collection::vec(0u64..5000, 0..400),
        ) {
            let p = packed(&values);
            let (codec, bytes) = encode_array(&p);
            let raw = raw_section_len(p.width(), p.len() as u64);
            prop_assert!(bytes.len() as u64 <= raw);
            match codec {
                Codec::Raw => prop_assert_eq!(&bytes, &raw_section(&p)),
                _ => {
                    let (dec, max) = decode_array(codec, &bytes, raw).unwrap();
                    prop_assert_eq!(max, values.iter().copied().max().unwrap_or(0));
                    prop_assert_eq!(dec, p);
                }
            }
        }

        #[test]
        fn prop_decode_never_panics_on_garbage(
            bytes in prop::collection::vec(any::<u8>(), 0..200),
            raw in 0u64..100_000,
            lead in 0x7fu8..=0x87,
        ) {
            // With (0x80..=0x87) and without a crafted interleave sub-tag
            // up front.
            let mut buf = bytes;
            if lead >= 0x80 {
                buf.insert(0, lead);
            }
            let mut scratch = Vec::new();
            let _ = delta_array(&buf, raw);
            let _ = ans_array(&buf, raw);
            let _ = decode_section_into(Codec::Raw, &buf, raw, None, &mut scratch);
            let _ = decode_section_into(Codec::Delta, &buf, raw, Some(42), &mut scratch);
            let _ = decode_section_into(Codec::Ans, &buf, raw, Some(42), &mut scratch);
        }
    }
}
