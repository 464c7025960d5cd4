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
//! Selection happens at write time in `SectionEncoder`: the strictly
//! smallest applicable codec wins, with the deterministic tie-break
//! `Raw < Delta < Ans`, so identical inputs always produce identical files
//! (the append/compact byte-parity invariant depends on this). That is the
//! outcome of encoding every candidate, but the encoder gets there from one
//! pass over the values: the pass yields the delta class histogram with its
//! exact offset-bit total and the value histogram, which fix every length
//! except the rANS streams', and those are bounded to within a few bytes by
//! their information content (see `rans_len_bounds`). Only the predicted
//! winner is encoded; a rival is encoded too only when its proven lower
//! bound does not already lose to the winner's *actual* length — so an
//! estimate can cost time, never bytes.
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
/// actually decoded from bytes actually present. Real sections can exceed
/// it — the default chunk holds 256 Ki rows, and a chunk may overshoot its
/// size by one user's block — and then pay a few geometric regrowths.
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

/// One symbol's encoder constants for one stream layout.
///
/// The state update `x' = ⌊x/f⌋·SCALE + x mod f + cum` is computed as
/// `x + q·(SCALE − f) + cum` with `q = ⌊x/f⌋` taken from a reciprocal:
/// `m = ⌈2^s/f⌉` with `s = 63 + k`, `k = ⌈log2 f⌉`, so `m < 2^64`.
/// **Exactness**: write `m = 2^s/f + e` with `0 ≤ e < 1` and `x = q·f + r`.
/// Then `x·m/2^s = q + r/f + x·e/2^s`, where `r/f ≤ 1 − 1/f` and, for
/// `x < 2^63`, `x·e/2^s < 2^-k ≤ 1/f`; so the floor is exactly `q`. Both
/// layouts keep the state that reaches the division below `x_max ≤ f·2^51`
/// (wide) or `f·2^19` (legacy), far inside that bound. Because `x < 2^63`,
/// `2x` fits a word and `q` is the high half of `2x·m` shifted by `k`: one
/// multiply where the old encoder paid a 64-bit divide and a remainder.
#[derive(Clone, Copy, Default)]
struct EncSym {
    /// A state at or above this sheds one renorm unit before the update.
    x_max: u64,
    rcp: u64,
    /// `k = ⌈log2 f⌉`.
    shift: u32,
    /// `SCALE − f`.
    cmpl: u32,
    cum: u32,
}

impl EncSym {
    fn new(freq: u16, cum: u32, wide: bool) -> EncSym {
        let f = freq as u64;
        debug_assert!(f >= 1 && f <= SCALE as u64);
        let k = f.next_power_of_two().trailing_zeros();
        let rcp = (1u128 << (63 + k)).div_ceil(f as u128) as u64;
        // The state interval is [L, L·b): a state at or above
        // (L >> SCALE_BITS)·b·f would leave it after the update.
        let x_max = if wide { f << (31 - SCALE_BITS + 32) } else { f << (23 - SCALE_BITS + 8) };
        EncSym { x_max, rcp, shift: k, cmpl: SCALE - freq as u32, cum }
    }

    /// `⌊x / f⌋` for `x < 2^63`.
    #[inline(always)]
    fn quot(&self, x: u64) -> u64 {
        ((((x << 1) as u128 * self.rcp as u128) >> 64) as u64) >> self.shift
    }

    /// The state after encoding this symbol from (renormalized) `x`.
    #[inline(always)]
    fn update(&self, x: u64) -> u64 {
        x + self.quot(x) * self.cmpl as u64 + self.cum as u64
    }
}

/// rANS-encode `n` symbols — symbol `i` is `enc[sym(i)]` — onto `out` with
/// `ways` interleaved states, symbol `i` on state `i % ways`. `units` is
/// scratch for the renorm units.
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
fn rans_encode(
    n: usize,
    sym: impl Fn(usize) -> usize,
    enc: &[EncSym],
    ways: usize,
    out: &mut Vec<u8>,
    units: &mut Vec<u32>,
) {
    units.clear();
    match ways {
        1 => {
            let mut x = RANS_L as u64;
            for i in (0..n).rev() {
                let e = &enc[sym(i)];
                // A state below 2^31 can need two bytes when `f < 16`.
                while x >= e.x_max {
                    units.push(x as u8 as u32);
                    x >>= 8;
                }
                x = e.update(x);
            }
            out.extend_from_slice(&(x as u32).to_le_bytes());
            out.extend(units.iter().rev().map(|&b| b as u8));
            return;
        }
        2 => put_states(out, &encode_lanes::<2>(n, sym, enc, units)),
        3 => put_states(out, &encode_lanes::<3>(n, sym, enc, units)),
        4 => put_states(out, &encode_lanes::<4>(n, sym, enc, units)),
        _ => unreachable!("the format admits 1..=MAX_WAYS states"),
    }
    out.reserve(4 * units.len());
    for &w in units.iter().rev() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn put_states(out: &mut Vec<u8>, states: &[u64]) {
    for x in states {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// The wide lanes of [`rans_encode`], a whole group per iteration so the
/// states live in registers. A wide state sheds at most one word per
/// symbol: it is below `2^63` and sheds only at `x_max ≥ 2^51`, leaving
/// `x >> 32 < 2^31 ≤ x_max`.
fn encode_lanes<const WAYS: usize>(
    n: usize,
    sym: impl Fn(usize) -> usize,
    enc: &[EncSym],
    units: &mut Vec<u32>,
) -> [u64; WAYS] {
    let mut states = [RANS64_L; WAYS];
    let mut step = |x: u64, e: &EncSym| {
        let x = if x >= e.x_max {
            units.push(x as u32);
            x >> 32
        } else {
            x
        };
        e.update(x)
    };
    let full = n / WAYS * WAYS;
    for i in (full..n).rev() {
        states[i - full] = step(states[i - full], &enc[sym(i)]);
    }
    for group in (0..full).step_by(WAYS).rev() {
        for j in (0..WAYS).rev() {
            states[j] = step(states[j], &enc[sym(group + j)]);
        }
    }
    states
}

/// Lower and upper bounds on the length of the stream [`rans_encode`]
/// writes for `n` symbols with these per-symbol `counts` (indexed by
/// symbol) under `table` — without encoding.
///
/// **Proof.** Follow one lane with `Φ = log2 x + (bits shed so far)`. It
/// starts at `log2 L`. A state update multiplies `x` by `SCALE/f` up to a
/// factor in `(q/(q+1), (q+1)/q)`, since both `x'` and `x·SCALE/f` lie in
/// `[q·SCALE, (q+1)·SCALE)`; the state reaching it has `q = ⌊x/f⌋ ≥ 2^19`
/// wide, `≥ 2^11` legacy. Shedding a unit of `b` bits from `x ≥ 2^51`
/// (wide; `2^19` legacy) lowers `Φ` by less than `−log2(1 − 2^-19)`
/// (`2^-11`). So each symbol moves `Φ` by `log2(SCALE/f)` up to `ε` = 6e-6
/// bits wide, 1.5e-3 legacy. At the end `log2 x` lies in `[log2 L,
/// log2 L + b)`, so the units a lane sheds satisfy `b·W ∈ (I + δ − b,
/// I + δ]`, `I` its information content and `|δ| ≤ n·ε`. Summed over the
/// lanes, the units are within `((I − slack)/b − ways, (I + slack)/b]`.
/// `slack` adds `n·1e-9 + 1` bits for the `f64` sum of `I` over at most
/// 4096 terms, whose error is below `2^-40·I ≤ 12n·2^-40`.
fn rans_len_bounds(table: &FreqTable, counts: &[u64], n: usize, ways: usize) -> (u64, u64) {
    let info: f64 = table
        .syms
        .iter()
        .zip(&table.freqs)
        .map(|(&s, &f)| counts[s as usize] as f64 * (SCALE_BITS as f64 - (f as f64).log2()))
        .sum();
    let (state_bytes, unit_bits, eps) = if ways == 1 { (4, 8, 1.5e-3) } else { (8, 32, 6e-6) };
    let slack = n as f64 * (eps + 1e-9) + 1.0;
    let units_lo = ((info - slack) / unit_bits as f64 - ways as f64).ceil().max(0.0) as u64;
    let units_hi = ((info + slack) / unit_bits as f64).floor().max(0.0) as u64;
    let fixed = (state_bytes * ways) as u64;
    let unit_bytes = unit_bits / 8;
    (fixed + unit_bytes * units_lo, fixed + unit_bytes * units_hi)
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

/// LSB-first bit writer for the delta offset stream: bits gather in a
/// 64-bit accumulator that is stored whole when it fills.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> BitWriter<'a> {
        BitWriter { out, acc: 0, nbits: 0 }
    }

    /// Append the low `n <= 63` bits of `bits` (the rest must be zero).
    #[inline(always)]
    fn put(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 63 && bits >> n == 0);
        self.acc |= bits << self.nbits;
        let total = self.nbits + n;
        if total >= 64 {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            // `nbits > 0` here (as `n < 64`), so the shift is in range.
            self.acc = bits >> (64 - self.nbits);
            self.nbits = total - 64;
        } else {
            self.nbits = total;
        }
    }

    fn finish(self) {
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..self.nbits.div_ceil(8) as usize]);
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

fn write_raw(packed: &BitPacked, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(9 + packed.packed_bytes());
    out.push(packed.width());
    out.extend_from_slice(&(packed.len() as u64).to_le_bytes());
    for w in packed.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// The stream layout the writer picks for a section of `n_symbols`
/// entropy-coded symbols.
fn auto_ways(n_symbols: usize) -> usize {
    if n_symbols >= INTERLEAVE_MIN_SYMBOLS {
        INTERLEAVE_WAYS
    } else {
        1
    }
}

/// What one pass over a section's values learns: everything that fixes
/// the delta and ANS section lengths, up to their rANS streams.
struct Stats {
    /// Delta class counts, indexed by class symbol.
    classes: [u64; DELTA_SYMS],
    /// Explicit offset bits the delta section carries.
    offset_bits: u64,
    /// Value counts, valid over `..alphabet` (cleared there per section).
    counts: Box<[u64; SCALE as usize]>,
    alphabet: usize,
    /// The section is non-empty and every value is below [`SCALE`].
    ans: bool,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            classes: [0; DELTA_SYMS],
            offset_bits: 0,
            counts: Box::new([0; SCALE as usize]),
            alphabet: 0,
            ans: false,
        }
    }
}

impl Stats {
    /// One pass over `values` (at most `width` bits each): the delta class
    /// histogram and, when the width already bounds the values below
    /// [`SCALE`], the value histogram; a wider section whose maximum turns
    /// out below [`SCALE`] gets its value histogram from a second pass.
    fn collect(&mut self, values: &[u64], width: u8) {
        self.classes = [0; DELTA_SYMS];
        self.offset_bits = 0;
        let direct = width as u32 <= SCALE_BITS;
        self.alphabet = if direct { 1 << width } else { 0 };
        self.counts[..self.alphabet].fill(0);
        let max = if direct { self.pass::<true>(values) } else { self.pass::<false>(values) };
        self.ans = !values.is_empty() && max < SCALE as u64;
        if self.ans && max as usize >= self.alphabet {
            self.alphabet = max as usize + 1;
            self.counts[..self.alphabet].fill(0);
            for &v in values {
                self.counts[v as usize] += 1;
            }
        }
    }

    /// The fused loop; returns the maximum value.
    fn pass<const COUNT: bool>(&mut self, values: &[u64]) -> u64 {
        let Some((&first, rest)) = values.split_first() else { return 0 };
        let mask = SCALE as u64 - 1;
        if COUNT {
            self.counts[(first & mask) as usize] += 1;
        }
        let (mut prev, mut max, mut offset_bits) = (first, first, 0u64);
        for &v in rest {
            let (sym, _) = delta_sym(v.wrapping_sub(prev) as i64);
            self.classes[sym as usize] += 1;
            offset_bits += DELTA_MS[sym as usize] as u64;
            if COUNT {
                // Masked only to stay in bounds: a value past the width
                // shows in `max`, which then recounts exactly.
                self.counts[(v & mask) as usize] += 1;
            }
            max = max.max(v);
            prev = v;
        }
        self.offset_bits = offset_bits;
        max
    }

    /// The class table of a delta section; `None` below two values, where
    /// the section has no class stream.
    fn delta_table(&self) -> Option<FreqTable> {
        let syms: Vec<u16> =
            (0..=DELTA_MAX_SYM).filter(|&c| self.classes[c as usize] > 0).collect();
        if syms.is_empty() {
            return None;
        }
        let counts: Vec<u64> = syms.iter().map(|&c| self.classes[c as usize]).collect();
        Some(FreqTable::build(syms, &counts))
    }

    /// The value table of an ANS section; `None` where ANS does not apply.
    fn ans_table(&self) -> Option<FreqTable> {
        self.ans.then(|| table_of_counts(&self.counts[..self.alphabet]))
    }
}

/// The table listing every symbol with a non-zero count.
fn table_of_counts(counts: &[u64]) -> FreqTable {
    let syms: Vec<u16> = (0..counts.len() as u16).filter(|&v| counts[v as usize] > 0).collect();
    let sym_counts: Vec<u64> = syms.iter().map(|&v| counts[v as usize]).collect();
    FreqTable::build(syms, &sym_counts)
}

/// Exact length of a delta section of `n` values, less its class stream.
fn delta_len(n: usize, ways: usize, table: Option<&FreqTable>, offset_bits: u64) -> u64 {
    let head = (ways > 1) as u64 + 9;
    match (n, table) {
        (0, _) => head,
        (_, None) => head + 8,
        (_, Some(t)) => head + 8 + 2 + 4 * t.syms.len() as u64 + 4 + offset_bits.div_ceil(8),
    }
}

/// Exact length of an ANS section, less its stream.
fn ans_len(ways: usize, table: &FreqTable) -> u64 {
    (ways > 1) as u64 + 9 + 2 + 4 * table.syms.len() as u64
}

/// Buffers the section encoders reuse from section to section.
#[derive(Default)]
struct Scratch {
    /// Encoder constants of the table being encoded, indexed by symbol.
    enc: Vec<EncSym>,
    /// Renorm units of the stream being encoded, in push order.
    units: Vec<u32>,
}

impl Scratch {
    fn load(&mut self, table: &FreqTable, wide: bool) {
        let top = *table.syms.last().expect("tables list at least one symbol") as usize;
        self.enc.clear();
        self.enc.resize(top + 1, EncSym::default());
        for ((&s, &f), &c) in table.syms.iter().zip(&table.freqs).zip(&table.cum) {
            self.enc[s as usize] = EncSym::new(f, c, wide);
        }
    }
}

/// A section length: exact for raw, bounded for the entropy codecs.
#[derive(Clone, Copy)]
struct Candidate {
    codec: Codec,
    lo: u64,
    hi: u64,
}

#[cfg(test)]
thread_local! {
    /// Sections on this thread whose predicted winner did not settle the
    /// choice by itself, so a rival was encoded too.
    static FALLBACKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The v4 section writer. It owns the unpacked values, the histograms and
/// one output buffer per codec, and reuses them across sections.
///
/// Its choice is the strictly smallest applicable codec, ties preferring
/// `Raw < Delta < Ans` — so a codec is only ever chosen when it is
/// *strictly* smaller than raw, which the v4 footer validation relies on.
/// It reaches that choice by encoding the candidate with the smallest
/// estimated length, then any rival whose proven lower bound could still
/// beat the winner's actual length (ranked by `(length, codec)`). A rival
/// left unencoded is therefore no smaller than the winner.
#[derive(Default)]
pub(crate) struct SectionEncoder {
    values: Vec<u64>,
    stats: Stats,
    scratch: Scratch,
    /// Indexed by codec tag.
    out: [Vec<u8>; 3],
}

impl SectionEncoder {
    /// Encode `packed` with the chosen codec; the section is valid until the
    /// next call.
    pub(crate) fn encode(&mut self, packed: &BitPacked) -> (Codec, &[u8]) {
        let (width, n) = (packed.width(), packed.len());
        self.values.clear();
        self.values.resize(n, 0);
        packed.unpack_range(0, n, &mut self.values);
        self.stats.collect(&self.values, width);
        let delta_table = self.stats.delta_table();
        let ans_table = self.stats.ans_table();
        let (delta_ways, ans_ways) = (auto_ways(n.saturating_sub(1)), auto_ways(n));

        let raw = raw_section_len(width, n as u64);
        let delta_fixed = delta_len(n, delta_ways, delta_table.as_ref(), self.stats.offset_bits);
        let (delta_lo, delta_hi) = delta_table
            .as_ref()
            .map_or((0, 0), |t| rans_len_bounds(t, &self.stats.classes, n - 1, delta_ways));
        let candidates = [
            Some(Candidate { codec: Codec::Raw, lo: raw, hi: raw }),
            Some(Candidate {
                codec: Codec::Delta,
                lo: delta_fixed + delta_lo,
                hi: delta_fixed + delta_hi,
            }),
            ans_table.as_ref().map(|t| {
                let fixed = ans_len(ans_ways, t);
                let (lo, hi) = rans_len_bounds(t, &self.stats.counts[..], n, ans_ways);
                Candidate { codec: Codec::Ans, lo: fixed + lo, hi: fixed + hi }
            }),
        ];

        let Self { values, scratch, out, .. } = self;
        let mut encode = |c: &Candidate| -> u64 {
            let buf = &mut out[c.codec.tag() as usize];
            match c.codec {
                Codec::Raw => write_raw(packed, buf),
                Codec::Delta => {
                    write_delta(values, width, delta_ways, delta_table.as_ref(), scratch, buf)
                }
                Codec::Ans => {
                    let table = ans_table.as_ref().expect("ANS is a candidate only with a table");
                    write_ans(values, width, ans_ways, table, scratch, buf)
                }
            }
            let len = buf.len() as u64;
            debug_assert!((c.lo..=c.hi).contains(&len), "{:?}: {len} outside its bounds", c.codec);
            len
        };
        let rank = |c: &Candidate, len: u64| (len, c.codec.tag());
        let candidates = candidates.iter().flatten();
        let predicted =
            candidates.clone().min_by_key(|c| rank(c, c.lo + c.hi)).expect("raw always applies");
        let mut best = rank(predicted, encode(predicted));
        for c in candidates.filter(|c| c.codec != predicted.codec) {
            if rank(c, c.lo) < best {
                #[cfg(test)]
                FALLBACKS.with(|f| f.set(f.get() + 1));
                best = best.min(rank(c, encode(c)));
            }
        }
        let codec = Codec::from_tag(best.1).expect("the tag of a candidate");
        (codec, &self.out[best.1 as usize])
    }
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
/// apply. Bench / differential-test entry point; the file writer picks the
/// codec and layout itself.
pub fn encode_section(values: &[u64], width: u8, codec: Codec, ways: usize) -> Option<Vec<u8>> {
    match codec {
        Codec::Raw => {
            let mut out = Vec::new();
            write_raw(&BitPacked::from_slice_with_width(values, width), &mut out);
            Some(out)
        }
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
const DELTA_SYMS: usize = DELTA_MAX_SYM as usize + 1;

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
    let mut stats = Stats::default();
    stats.collect(values, width);
    let mut out = Vec::new();
    write_delta(
        values,
        width,
        ways,
        stats.delta_table().as_ref(),
        &mut Scratch::default(),
        &mut out,
    );
    Some(out)
}

/// Write a delta section over `values` into `out` (cleared first), given
/// its class table (`None` exactly when there are fewer than two values).
/// The classes are rANS-coded in reverse and the offset bits written
/// forward, each pass recomputing the deltas from `values`.
fn write_delta(
    values: &[u64],
    width: u8,
    ways: usize,
    table: Option<&FreqTable>,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) {
    debug_assert!(ways == 1 || (2..=MAX_WAYS).contains(&ways));
    debug_assert_eq!(table.is_some(), values.len() >= 2);
    out.clear();
    if ways > 1 {
        out.push(INTERLEAVE_TAG | ways as u8);
    }
    out.push(width);
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    let Some(&first) = values.first() else { return };
    out.extend_from_slice(&first.to_le_bytes());
    let Some(table) = table else { return };
    table.write(out);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    scratch.load(table, ways > 1);
    let class = |i: usize| delta_sym(values[i + 1].wrapping_sub(values[i]) as i64).0 as usize;
    rans_encode(values.len() - 1, class, &scratch.enc, ways, out, &mut scratch.units);
    let class_stream_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&class_stream_len.to_le_bytes());
    let mut bits = BitWriter::new(out);
    for pair in values.windows(2) {
        let (sym, mag) = delta_sym(pair[1].wrapping_sub(pair[0]) as i64);
        bits.put(mag & DELTA_MASK[sym as usize], DELTA_MS[sym as usize] as u32);
    }
    bits.finish();
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
    let mut out = Vec::new();
    write_ans(values, width, ways, &table_of_counts(counts), &mut Scratch::default(), &mut out);
    out
}

/// Write an ANS section over `values` into `out` (cleared first) under
/// `table`, which lists every value that occurs.
fn write_ans(
    values: &[u64],
    width: u8,
    ways: usize,
    table: &FreqTable,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) {
    debug_assert!(ways == 1 || (2..=MAX_WAYS).contains(&ways));
    out.clear();
    if ways > 1 {
        out.push(INTERLEAVE_TAG | ways as u8);
    }
    out.push(width);
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    table.write(out);
    scratch.load(table, ways > 1);
    rans_encode(values.len(), |i| values[i] as usize, &scratch.enc, ways, out, &mut scratch.units);
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

    /// The writer's choice for one section.
    fn encode_array(packed: &BitPacked) -> (Codec, Vec<u8>) {
        let mut encoder = SectionEncoder::default();
        let (codec, bytes) = encoder.encode(packed);
        (codec, bytes.to_vec())
    }

    fn raw_section(packed: &BitPacked) -> Vec<u8> {
        let mut out = Vec::new();
        write_raw(packed, &mut out);
        out
    }

    /// The writer before it chose from one stats pass: every applicable
    /// codec fully encoded by the division-based encoder, and the strictly
    /// smallest kept. The oracle for the choice and for the bytes.
    mod trial {
        use super::super::*;

        pub(super) fn encode_by_trial(packed: &BitPacked) -> (Codec, Vec<u8>) {
            let mut best = (Codec::Raw, super::raw_section(packed));
            let mut values = vec![0u64; packed.len()];
            packed.unpack_range(0, packed.len(), &mut values);
            let d =
                encode_delta(&values, packed.width(), auto_ways(values.len().saturating_sub(1)));
            if d.len() < best.1.len() {
                best = (Codec::Delta, d);
            }
            if let Some(a) = encode_ans(&values, packed.width(), auto_ways(values.len())) {
                if a.len() < best.1.len() {
                    best = (Codec::Ans, a);
                }
            }
            best
        }

        fn rans_encode(indices: &[usize], table: &FreqTable, ways: usize) -> Vec<u8> {
            if ways == 1 {
                let mut renorm: Vec<u8> = Vec::new();
                let mut x = RANS_L;
                for &s in indices.iter().rev() {
                    let f = table.freqs[s] as u32;
                    while x >= f << (23 - SCALE_BITS + 8) {
                        renorm.push(x as u8);
                        x >>= 8;
                    }
                    x = ((x / f) << SCALE_BITS) + (x % f) + table.cum[s];
                }
                let mut stream = x.to_le_bytes().to_vec();
                stream.extend(renorm.iter().rev());
                return stream;
            }
            let mut renorm: Vec<u32> = Vec::new();
            let mut states = [RANS64_L; MAX_WAYS];
            for i in (0..indices.len()).rev() {
                let s = indices[i];
                let f = table.freqs[s] as u64;
                let mut x = states[i % ways];
                while x >= f << (31 - SCALE_BITS as u64 + 32) {
                    renorm.push(x as u32);
                    x >>= 32;
                }
                states[i % ways] = ((x / f) << SCALE_BITS) + (x % f) + table.cum[s] as u64;
            }
            let mut stream: Vec<u8> = states[..ways].iter().flat_map(|x| x.to_le_bytes()).collect();
            stream.extend(renorm.iter().rev().flat_map(|w| w.to_le_bytes()));
            stream
        }

        fn header(values: &[u64], width: u8, ways: usize) -> Vec<u8> {
            let mut out = Vec::new();
            if ways > 1 {
                out.push(INTERLEAVE_TAG | ways as u8);
            }
            out.push(width);
            out.extend_from_slice(&(values.len() as u64).to_le_bytes());
            out
        }

        pub(super) fn encode_delta(values: &[u64], width: u8, ways: usize) -> Vec<u8> {
            let mut out = header(values, width, ways);
            let Some((&first, rest)) = values.split_first() else { return out };
            out.extend_from_slice(&first.to_le_bytes());
            if rest.is_empty() {
                return out;
            }
            let mut prev = first;
            let mags: Vec<(u16, u64)> = rest
                .iter()
                .map(|&v| {
                    let d = v.wrapping_sub(prev) as i64;
                    prev = v;
                    delta_sym(d)
                })
                .collect();
            let mut class_counts = [0u64; DELTA_SYMS];
            for &(sym, _) in &mags {
                class_counts[sym as usize] += 1;
            }
            let syms: Vec<u16> =
                (0..=DELTA_MAX_SYM).filter(|&c| class_counts[c as usize] > 0).collect();
            let counts: Vec<u64> = syms.iter().map(|&c| class_counts[c as usize]).collect();
            let table = FreqTable::build(syms, &counts);
            let indices: Vec<usize> =
                mags.iter().map(|&(sym, _)| table.syms.binary_search(&sym).unwrap()).collect();
            let class_stream = rans_encode(&indices, &table, ways);
            table.write(&mut out);
            out.extend_from_slice(&(class_stream.len() as u32).to_le_bytes());
            out.extend_from_slice(&class_stream);
            // Byte-at-a-time LSB-first bit writer.
            let (mut acc, mut nbits) = (0u64, 0u32);
            for &(sym, mag) in &mags {
                let m = DELTA_MS[sym as usize] as u32;
                let bits = mag & low_mask(m);
                for (part, n) in
                    [(bits & low_mask(m.min(32)), m.min(32)), (bits >> 32, m.max(32) - 32)]
                {
                    acc |= part << nbits;
                    nbits += n;
                    while nbits >= 8 {
                        out.push(acc as u8);
                        acc >>= 8;
                        nbits -= 8;
                    }
                }
            }
            if nbits > 0 {
                out.push(acc as u8);
            }
            out
        }

        pub(super) fn encode_ans(values: &[u64], width: u8, ways: usize) -> Option<Vec<u8>> {
            if values.is_empty() || values.iter().any(|&v| v >= SCALE as u64) {
                return None;
            }
            let mut counts = [0u64; SCALE as usize];
            for &v in values {
                counts[v as usize] += 1;
            }
            let syms: Vec<u16> = (0..SCALE as u16).filter(|&v| counts[v as usize] > 0).collect();
            let sym_counts: Vec<u64> = syms.iter().map(|&v| counts[v as usize]).collect();
            let table = FreqTable::build(syms, &sym_counts);
            let indices: Vec<usize> =
                values.iter().map(|&v| table.syms.binary_search(&(v as u16)).unwrap()).collect();
            let mut out = header(values, width, ways);
            table.write(&mut out);
            out.extend_from_slice(&rans_encode(&indices, &table, ways));
            Some(out)
        }
    }

    /// A little xorshift stream for shaping test arrays from one seed.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// Arrays in the shapes real columns take: uniform, smooth (small
    /// deltas), skewed over a small alphabet, and per-user ascending runs.
    fn shaped(seed: u64, len: usize, width: u8, shape: u8) -> Vec<u64> {
        let mask = low_mask(width as u32);
        let mut next = xorshift(seed);
        let mut acc = next() & mask;
        let mut run = 0u64;
        (0..len)
            .map(|_| match shape {
                0 => next() & mask,
                1 => {
                    acc = acc.wrapping_add(next() % 7) & mask;
                    acc
                }
                2 => (if next().is_multiple_of(8) { next() % 16 } else { next() % 2 }) & mask,
                _ => {
                    if run == 0 {
                        run = 1 + next() % 50;
                        acc = next() & mask;
                    }
                    run -= 1;
                    acc = acc.wrapping_add(next() % 1000) & mask;
                    acc
                }
            })
            .collect()
    }

    /// The three section lengths the race compares.
    fn race_lengths(values: &[u64], width: u8) -> [Option<usize>; 3] {
        let n = values.len();
        [
            Some(raw_section_len(width, n as u64) as usize),
            Some(trial::encode_delta(values, width, auto_ways(n.saturating_sub(1))).len()),
            trial::encode_ans(values, width, auto_ways(n)).map(|a| a.len()),
        ]
    }

    /// An array from a one-knob family (`knob` in `0..=1024`) in which two
    /// candidates trade places: `kind` 0 puts ANS against raw (noise into
    /// zeros), 1 delta against ANS (sorting a prefix of a skewed array,
    /// which leaves its histogram alone), 2 delta against raw (sorting a
    /// prefix of wide uniform values).
    fn knob_family(seed: u64, len: usize, kind: u8) -> (u8, impl Fn(u32) -> Vec<u64>) {
        let mut next = xorshift(seed);
        let width = match kind {
            0 => 1 + (next() % 8) as u8,
            1 => 2 + (next() % 11) as u8,
            _ => 13 + (next() % 40) as u8,
        };
        let mask = low_mask(width as u32);
        let base: Vec<(u64, u64)> = (0..len).map(|_| (next(), next())).collect();
        let family = move |knob: u32| -> Vec<u64> {
            let mut values: Vec<u64> = base
                .iter()
                .map(|&(r, s)| match kind {
                    0 => (if (r % 1024) < knob as u64 { s } else { 0 }) & mask,
                    1 => (r & mask).min(s & mask),
                    _ => r & mask,
                })
                .collect();
            if kind != 0 {
                values[..len * knob as usize / 1024].sort_unstable();
            }
            values
        };
        (width, family)
    }

    /// Bisect the family for the knob where the pair `kind` names crosses,
    /// and check the chooser against the race on the arrays around it.
    fn check_near_tie(seed: u64, len: usize, kind: u8) {
        let (width, family) = knob_family(seed, len, kind);
        let (a, b) = match kind {
            0 => (2, 0),
            1 => (1, 2),
            _ => (1, 0),
        };
        let gap = |knob: u32| {
            let lens = race_lengths(&family(knob), width);
            lens[a].zip(lens[b]).map_or(0, |(x, y)| x as i64 - y as i64)
        };
        // Find a knob whose gap has the sign of the far end while its
        // neighbour's does not.
        let (mut lo, mut hi) = (0u32, 1024u32);
        let rising = gap(hi) >= gap(lo);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if (gap(mid) >= 0) == rising {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        for knob in lo.saturating_sub(2)..=(hi + 2).min(1024) {
            let p = BitPacked::from_slice_with_width(&family(knob), width);
            assert_eq!(
                encode_array(&p),
                trial::encode_by_trial(&p),
                "seed {seed} len {len} kind {kind} knob {knob}: lengths {:?}",
                race_lengths(&p.to_vec(), width)
            );
        }
    }

    #[test]
    fn reciprocal_quotients_are_exact() {
        let mut next = xorshift(0x5eed);
        for f in 1..=SCALE as u64 {
            let e = EncSym::new(f as u16, 0, true);
            // The legacy and wide state intervals from `L` up to `x_max`,
            // and the wider ones a renormalized state reaches below `L`.
            for (lo, hi) in [
                (1u64 << 23, f << 19),
                (1u64 << 31, f << 51),
                (f << 11, f << 19),
                (f << 19, f << 51),
            ] {
                if lo >= hi {
                    continue;
                }
                let random = (0..1000).map(|_| lo + next() % (hi - lo));
                for x in [lo, hi - 1].into_iter().chain(random) {
                    let q = e.quot(x);
                    assert_eq!((q, x.wrapping_sub(q * f)), (x / f, x % f), "f {f}, x {x}");
                }
            }
        }
    }

    #[test]
    fn the_suite_takes_the_fallback() {
        // Near-ties are where an estimate cannot settle the choice: the
        // chooser must encode a rival and still agree with the race.
        FALLBACKS.with(|f| f.set(0));
        for seed in 1..=6u64 {
            for kind in 0..3 {
                check_near_tie(seed, 300 + 700 * seed as usize, kind);
            }
        }
        assert!(FALLBACKS.with(|f| f.get()) > 0, "no section took the fallback");
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

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 32 } else { 512 },
            ..ProptestConfig::default()
        })]

        #[test]
        fn prop_chooser_equals_the_race(
            seed in any::<u64>(),
            len in prop_oneof![
                0usize..5000,
                prop::sample::select(vec![0usize, 1, 2, 63, 64, 65, 66]),
            ],
            width in 0u8..=64,
            shape in 0u8..4,
        ) {
            let p = BitPacked::from_slice_with_width(&shaped(seed, len, width, shape), width);
            prop_assert_eq!(encode_array(&p), trial::encode_by_trial(&p));
        }

        #[test]
        fn prop_chooser_equals_the_race_on_near_ties(
            seed in any::<u64>(),
            len in 2usize..3000,
            kind in 0u8..3,
        ) {
            check_near_tie(seed, len, kind);
        }

        #[test]
        fn prop_encoders_equal_the_division_encoders(
            raw in prop::collection::vec(any::<u64>(), 0..300),
            modulus in prop::sample::select(vec![2u64, 37, 4096, u64::MAX]),
            ways in 1usize..=4,
        ) {
            let values: Vec<u64> = raw.iter().map(|v| v % modulus).collect();
            let width = bits_for(values.iter().copied().max().unwrap_or(0));
            let delta = encode_section(&values, width, Codec::Delta, ways);
            prop_assert_eq!(delta, Some(trial::encode_delta(&values, width, ways)));
            let ans = encode_section(&values, width, Codec::Ans, ways);
            prop_assert_eq!(ans, trial::encode_ans(&values, width, ways));
        }
    }
}
