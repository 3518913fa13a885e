//! Physical storage for quantised integer codes.
//!
//! The paper's central resource claim is that training a layer at `k` bits
//! costs `k` bits per weight of training memory (§III-B, Table I, Fig. 5).
//! Holding every code in an `i64` would only *simulate* that saving: a
//! "6-bit" layer would physically occupy 64 bits per element. This module
//! is the one place that decides how a `k`-bit code is held in RAM:
//!
//! * [`PackedCodes`] — `k`-bit **signed** codes packed end-to-end into
//!   little-endian `u64` words, with branch-free two-word extract/insert
//!   and sign extension. Works for every `k` in `[2, 32]` and doubles as
//!   the canonical (tier-independent) serialisation of a store.
//! * [`CodeStore`] — the tiered container the rest of the crate holds
//!   codes in, chosen from `k` alone: an `i8` fast tier for `k ≤ 8`, an
//!   `i16` tier for `k ≤ 16`, [`PackedCodes`] above that.
//!
//! ## Representation
//!
//! The affine grid code `q` is unsigned, `q ∈ [0, 2^k − 1]`. The packed
//! tiers store the **centered** code `c = q − 2^(k−1)` as a `k`-bit
//! two's-complement field. The two encodings differ only in an inverted
//! most-significant bit (`pattern(c) = q XOR 2^(k−1)`, offset-binary vs.
//! two's complement), so flipping *any* physical stored bit `b` — a
//! single-event upset in real memory — changes the logical code by exactly
//! `q ^= 1 << b`, matching the SEU model the fault-injection campaign
//! documents. Bits above `k` in the `i8`/`i16` tiers are sign copies; the
//! SEU model targets the `k` payload bits in every tier.
//!
//! ## Bulk kernels
//!
//! Anything that walks a whole store once per training step goes through
//! an operation that resolves the tier **once per call**:
//! [`CodeStore::for_each`] (in-order read of a range),
//! [`CodeStore::rewrite_blocks`] (in-place `q ← f(i, q)` over the elements
//! a per-block mask selects, with the rail count of what it leaves behind
//! — a range so that a per-channel tensor walks one channel at a time with
//! that channel's quantiser loop-invariant),
//! [`CodeStore::for_each_word_block`] (resident words, `N` at a time, for
//! digests), [`CodeStore::for_each_packed_word`] /
//! [`CodeStore::write_packed_le`] (the canonical serialisation, streamed
//! from a bit accumulator) and [`CodeStore::from_code_iter`] (build
//! straight into the tier). No `Vec<i64>` of the codes exists on any of
//! them. [`CodeStore::set`] and [`CodeStore::to_vec`] remain for single
//! elements, fault injection and tests.
//!
//! ## The canonical layout without a store
//!
//! A gradient exchange has codes that never live in a store: `i32` sums on
//! one side, borrowed frame words on the other. The layout still has one
//! writer (`pack_words`, below) and its readers still make the same two
//! checks (`check_data_words`): [`PackedCodes::append_words`] packs a
//! `&[i32]` onto the end of a `Vec<u64>` through that writer, and
//! [`PackedCodes::read_words`] walks borrowed `&[u64]` words with one bit
//! accumulator, handing each sign-extended code to the caller as it is
//! decoded — the writer run backwards.

use crate::{Bitwidth, QuantError};
use std::ops::Range;

/// Lays `k`-bit `fields` (higher bits zero) end to end, LSB first, and
/// hands every `u64` word to `emit` as it fills, the zero-padded partial
/// last one included — the one writer of the canonical packed layout.
#[inline]
fn pack_words(fields: impl Iterator<Item = u64>, bits: Bitwidth, mut emit: impl FnMut(u64)) {
    let k = bits.get();
    let (mut acc, mut fill) = (0u64, 0u32);
    for field in fields {
        acc |= field << fill;
        fill += k;
        if fill >= 64 {
            emit(acc);
            fill -= 64;
            // The bits of `field` that did not fit the emitted word; zero
            // when the field ended exactly on the boundary.
            acc = field >> (k - fill);
        }
    }
    if fill > 0 {
        emit(acc);
    }
}

/// The two checks every reader of the canonical layout makes before it
/// trusts a word: the count is `⌈len·k / 64⌉`, and no bit past `len·k` is
/// set (so equal logical content means equal words).
fn check_data_words(words: &[u64], len: usize, bits: Bitwidth) -> crate::Result<()> {
    if words.len() != PackedCodes::data_word_count(len, bits) {
        return Err(QuantError::CorruptStore {
            reason: "packed word count disagrees with the logical length",
        });
    }
    let rem = (len * bits.get() as usize) % 64;
    if rem != 0 && words.last().is_some_and(|&last| last >> rem != 0) {
        return Err(QuantError::CorruptStore {
            reason: "nonzero padding bits in packed payload",
        });
    }
    Ok(())
}

/// `k`-bit signed codes packed end-to-end into little-endian `u64` words.
///
/// Element `i` occupies bits `[i·k, i·k + k)` of the word stream; the
/// field holds the `k`-bit two's-complement pattern of a signed code in
/// `[−2^(k−1), 2^(k−1) − 1]`. One always-zero word is kept past the data
/// words so extract/insert can read an aligned two-word window without
/// branching on word boundaries. Trailing bits beyond `len·k` are kept
/// zero at all times, so equal logical content means equal words — the
/// property checkpoint byte-determinism and integrity digests rely on.
///
/// ```
/// use apt_quant::{Bitwidth, PackedCodes};
/// let k = Bitwidth::new(3)?;
/// let mut words = Vec::new();
/// PackedCodes::append_words(&[-4, -1, 0, 3], k, &mut words)?;
/// let p = PackedCodes::from_data_words(words, 4, k)?;
/// assert_eq!(p.to_signed_vec(), vec![-4, -1, 0, 3]);
/// assert_eq!(p.resident_bytes(), 16); // 1 data word + 1 padding word
/// # Ok::<(), apt_quant::QuantError>(())
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct PackedCodes {
    /// Data words followed by one always-zero padding word.
    words: Vec<u64>,
    len: usize,
    bits: Bitwidth,
}

impl Clone for PackedCodes {
    fn clone(&self) -> Self {
        PackedCodes {
            words: self.words.clone(),
            len: self.len,
            bits: self.bits,
        }
    }

    /// Into the words `self` already owns.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
        self.bits = source.bits;
    }
}

impl PackedCodes {
    /// Low-`k` bitmask (valid for `k ≤ 32`).
    fn mask(bits: Bitwidth) -> u64 {
        (1u64 << bits.get()) - 1
    }

    /// Number of `u64` data words needed for `len` codes at `k` bits
    /// (excludes the padding word).
    fn data_word_count(len: usize, bits: Bitwidth) -> usize {
        (len * bits.get() as usize).div_ceil(64)
    }

    /// Packs a stream of in-range signed codes (no validation: only the
    /// low `k` bits of each are kept).
    fn pack(signed: impl Iterator<Item = i64>, bits: Bitwidth) -> Self {
        let mask = Self::mask(bits);
        let mut words = Vec::with_capacity(Self::data_word_count(signed.size_hint().0, bits) + 1);
        let mut len = 0usize;
        let fields = signed.inspect(|_| len += 1).map(|c| c as u64 & mask);
        pack_words(fields, bits, |w| words.push(w));
        words.push(0);
        PackedCodes { words, len, bits }
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Extracts element `i`, sign-extended to `i64`.
    ///
    /// Branch-free: reads the two words the field can straddle as one
    /// `u128` window (the padding word makes `words[w + 1]` always valid),
    /// shifts the field down, and sign-extends via a left/right shift
    /// pair.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.len);
        let k = self.bits.get();
        let bit = i * k as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let pair = self.words[w] as u128 | ((self.words[w + 1] as u128) << 64);
        let field = (pair >> off) as u64 & Self::mask(self.bits);
        let shift = 64 - k;
        ((field << shift) as i64) >> shift
    }

    /// Stores signed code `c` into element `i` (low `k` bits of `c`).
    #[inline]
    pub fn set(&mut self, i: usize, c: i64) {
        debug_assert!(i < self.len);
        let k = self.bits.get();
        debug_assert!({
            let half = 1i64 << (k - 1);
            (-half..half).contains(&c)
        });
        let mask = Self::mask(self.bits);
        let field = (c as u64) & mask;
        let bit = i * k as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let pair = self.words[w] as u128 | ((self.words[w + 1] as u128) << 64);
        let merged = (pair & !((mask as u128) << off)) | ((field as u128) << off);
        self.words[w] = merged as u64;
        self.words[w + 1] = (merged >> 64) as u64;
    }

    /// Flips physical bit `bit` (`< k`) of element `i` — one XOR on the
    /// stored word, exactly what a single-event upset does to the RAM cell
    /// holding that bit. Returns the new signed value of the element.
    pub fn flip_bit(&mut self, i: usize, bit: u32) -> i64 {
        debug_assert!(i < self.len && bit < self.bits.get());
        let pos = i * self.bits.get() as usize + bit as usize;
        self.words[pos / 64] ^= 1u64 << (pos % 64);
        self.get(i)
    }

    /// Unpacks every element, sign-extended.
    pub fn to_signed_vec(&self) -> Vec<i64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// The data words (padding word excluded) — the canonical serialised
    /// form used by checkpoint format v3.
    pub fn data_words(&self) -> &[u64] {
        &self.words[..self.words.len() - 1]
    }

    /// Rebuilds a store from serialised data words (checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptStore`] if the word count disagrees
    /// with `len · k` or any trailing bit beyond `len · k` is set. Every
    /// in-range bit pattern decodes to a valid field, so no per-element
    /// validation is needed.
    pub fn from_data_words(words: Vec<u64>, len: usize, bits: Bitwidth) -> crate::Result<Self> {
        check_data_words(&words, len, bits)?;
        let mut words = words;
        words.push(0);
        Ok(PackedCodes { words, len, bits })
    }

    /// Appends the canonical words of `codes` to `out` — the layout
    /// [`data_words`](Self::data_words) holds, written where the caller
    /// wants it (a wire frame) with no store in between. A `k ≤ 32`-bit
    /// field is an `i32`, so that is what the streaming pair speaks.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptStore`] if any code is outside
    /// `[−2^(k−1), 2^(k−1) − 1]`; `out` is untouched then.
    pub fn append_words(codes: &[i32], bits: Bitwidth, out: &mut Vec<u64>) -> crate::Result<()> {
        // Both ends fit an `i32` at every `k ≤ 32`. A fold, not `any`: no
        // early exit, so the pass is a vector compare.
        let half = 1i64 << (bits.get() - 1);
        let (lo, hi) = ((-half) as i32, (half - 1) as i32);
        let off_range = |bad: bool, &c: &i32| bad | (c < lo) | (c > hi);
        if codes.iter().fold(false, off_range) {
            return Err(QuantError::CorruptStore {
                reason: "signed code outside the k-bit two's-complement range",
            });
        }
        let mask = Self::mask(bits);
        out.reserve(Self::data_word_count(codes.len(), bits));
        pack_words(codes.iter().map(|&c| c as u64 & mask), bits, |w| {
            out.push(w)
        });
        Ok(())
    }

    /// Reads `len` codes back out of borrowed canonical `words`, calling
    /// `f(i, c)` in element order with each field sign-extended — the
    /// inverse of [`append_words`](Self::append_words), decoding where the
    /// codes are consumed. One bit accumulator walks the words once; no
    /// field is looked up by index.
    ///
    /// # Errors
    ///
    /// The two checks of [`from_data_words`](Self::from_data_words), made
    /// before `f` sees anything.
    #[inline]
    pub fn read_words(
        words: &[u64],
        len: usize,
        bits: Bitwidth,
        mut f: impl FnMut(usize, i32),
    ) -> crate::Result<()> {
        check_data_words(words, len, bits)?;
        let k = bits.get();
        let mask = Self::mask(bits);
        let sign = 64 - k;
        let (mut acc, mut avail) = (0u64, 0u32);
        let mut next = words.iter();
        for i in 0..len {
            let field = if avail >= k {
                let field = acc & mask;
                acc >>= k;
                avail -= k;
                field
            } else {
                // The field straddles into (or starts) the next word; the
                // count was checked, so there is one.
                let w = next.next().copied().unwrap_or(0);
                let field = (acc | w << avail) & mask;
                let taken = k - avail;
                acc = w >> taken;
                avail = 64 - taken;
                field
            };
            f(i, (((field << sign) as i64) >> sign) as i32);
        }
        Ok(())
    }

    /// Physical bytes held by this store (data words plus the one padding
    /// word).
    pub fn resident_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

/// Private representation behind [`CodeStore`].
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// `k ≤ 8`: centered code `c = q − 2^(k−1)` as one byte.
    I8(Vec<i8>),
    /// `k ≤ 16`: centered code as one `i16`.
    I16(Vec<i16>),
    /// `k > 16`: centered codes bit-packed into `u64` words.
    Packed(PackedCodes),
}

/// The physical container for a tensor's quantised codes.
///
/// The public API speaks raw affine grid codes `q ∈ [0, 2^k − 1]` — the
/// same values [`crate::AffineQuantizer`] produces — while the tiered
/// representations store the centered signed form internally (see the
/// module docs for the encoding and its SEU property).
///
/// ```
/// use apt_quant::{Bitwidth, CodeStore};
/// let s = CodeStore::from_codes(&[0, 31, 63], Bitwidth::new(6)?);
/// assert_eq!(s.to_vec(), vec![0, 31, 63]);
/// assert_eq!(s.resident_bytes(), 3); // i8 tier: one byte per code
/// # Ok::<(), apt_quant::QuantError>(())
/// ```
#[derive(Debug, PartialEq)]
pub struct CodeStore {
    repr: Repr,
    bits: Bitwidth,
}

impl Clone for CodeStore {
    fn clone(&self) -> Self {
        CodeStore {
            repr: self.repr.clone(),
            bits: self.bits,
        }
    }

    /// Into the buffer `self` already owns when the tier is the same one;
    /// a store that crossed a tier boundary is cloned afresh.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.repr, &source.repr) {
            (Repr::I8(to), Repr::I8(from)) => to.clone_from(from),
            (Repr::I16(to), Repr::I16(from)) => to.clone_from(from),
            (Repr::Packed(to), Repr::Packed(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
        self.bits = source.bits;
    }
}

/// A resident element of the `i8` / `i16` tiers: the centred code at the
/// tier's width. What lets the block kernels be written once for both.
trait Centred: Copy + PartialEq {
    fn widen(self) -> i64;
    /// Keeps the low bits; callers pass a code the tier holds.
    fn narrow(c: i64) -> Self;
}

impl Centred for i8 {
    #[inline(always)]
    fn widen(self) -> i64 {
        i64::from(self)
    }
    #[inline(always)]
    fn narrow(c: i64) -> Self {
        c as i8
    }
}

impl Centred for i16 {
    #[inline(always)]
    fn widen(self) -> i64 {
        i64::from(self)
    }
    #[inline(always)]
    fn narrow(c: i64) -> Self {
        c as i16
    }
}

/// How many of `codes` equal `lo` or `hi`: compares summed per
/// [`RAIL_BLOCK`] in byte lanes, so the pass is a vector compare and add
/// with no branch per element.
#[inline]
fn rails_in<T: Centred>(codes: &[T], lo: T, hi: T) -> usize {
    let block_sum = |block: &[T]| {
        let on_rail = |n: u8, &c: &T| n + u8::from((c == lo) | (c == hi));
        usize::from(block.iter().fold(0u8, on_rail))
    };
    codes.chunks(RAIL_BLOCK).map(block_sum).sum()
}

/// [`rails_in`] for the packed tier: each field extracted and compared.
fn rails_packed(p: &PackedCodes, range: Range<usize>, lo: i64, hi: i64) -> usize {
    let on_rail = |&i: &usize| {
        let c = p.get(i);
        c == lo || c == hi
    };
    range.filter(on_rail).count()
}

/// Codes per byte-lane rail sum; under 256, so a lane cannot overflow.
const RAIL_BLOCK: usize = 128;

/// [`CodeStore::rewrite_blocks`] over one tier's slice, `start` the store
/// index of `codes[0]`.
#[inline(always)]
fn rewrite_blocks_in<T: Centred>(
    codes: &mut [T],
    mut start: usize,
    half: i64,
    (lo, hi): (T, T),
    mut select: impl FnMut(Range<usize>) -> u64,
    mut f: impl FnMut(usize, i64) -> i64,
) -> usize {
    let mut rails = 0;
    for block in codes.chunks_mut(CodeStore::BLOCK) {
        let mut mask = select(start..start + block.len()) & low_bits(block.len());
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            block[j] = T::narrow(f(start + j, block[j].widen() + half) - half);
        }
        rails += rails_in(block, lo, hi);
        start += block.len();
    }
    rails
}

/// A mask of the low `n ≤ 64` bits.
#[inline(always)]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl CodeStore {
    /// Elements per block of [`rewrite_blocks`](Self::rewrite_blocks): one
    /// bit each of its `u64` mask.
    pub const BLOCK: usize = 64;

    /// `2^(k−1)`, the offset between raw and centered codes.
    fn half(bits: Bitwidth) -> i64 {
        1i64 << (bits.get() - 1)
    }

    /// Builds a store from raw grid codes, in the narrowest tier that
    /// holds `bits`. Codes must already be on the `[0, 2^k − 1]` grid;
    /// callers validate (debug builds assert).
    pub fn from_codes(codes: &[i64], bits: Bitwidth) -> Self {
        Self::from_code_iter(codes.iter().copied(), bits)
    }

    /// Builds a store straight from a stream of raw grid codes: each code
    /// is narrowed into the tier as it arrives, so a quantiser mapped over
    /// an f32 slice fills the store with nothing in between. Same
    /// contract as [`from_codes`](Self::from_codes).
    pub fn from_code_iter(codes: impl Iterator<Item = i64>, bits: Bitwidth) -> Self {
        let half = Self::half(bits);
        let max = bits.num_steps() as i64;
        let centred = codes.map(|q| {
            debug_assert!((0..=max).contains(&q), "code {q} off the {bits} grid");
            q - half
        });
        let repr = match bits.get() {
            ..=8 => Repr::I8(centred.map(|c| c as i8).collect()),
            9..=16 => Repr::I16(centred.map(|c| c as i16).collect()),
            _ => Repr::Packed(PackedCodes::pack(centred, bits)),
        };
        CodeStore { repr, bits }
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::I8(v) => v.len(),
            Repr::I16(v) => v.len(),
            Repr::Packed(p) => p.len(),
        }
    }

    /// `true` if no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical precision of the stored codes.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Writes raw grid code `q` (must be on the grid) into element `i`.
    #[inline]
    pub fn set(&mut self, i: usize, q: i64) {
        debug_assert!((0..=self.bits.num_steps() as i64).contains(&q));
        let half = Self::half(self.bits);
        match &mut self.repr {
            Repr::I8(v) => v[i] = (q - half) as i8,
            Repr::I16(v) => v[i] = (q - half) as i16,
            Repr::Packed(p) => p.set(i, q - half),
        }
    }

    /// Materialises every raw grid code (tests and diagnostics; per-step
    /// code uses [`for_each`](Self::for_each)).
    pub fn to_vec(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(0..self.len(), |_, q| out.push(q));
        out
    }

    /// Calls `f(i, q)` for every raw grid code of `range`, in element order
    /// (`0..len` walks the store; a per-channel tensor walks one channel at
    /// a time, its quantiser loop-invariant). The tier is resolved once,
    /// outside the loop, so a simple `f` (dequantise into `out[i]`,
    /// accumulate) compiles to a vector loop over the `i8`/`i16` tiers. `f`
    /// is instantiated once per tier: mark a large closure
    /// `#[inline(always)]` at the call site, or the optimiser may leave it
    /// out of line and pay a call per element.
    ///
    /// # Panics
    ///
    /// If `range` reaches past the end of the store.
    #[inline]
    pub fn for_each(&self, range: Range<usize>, mut f: impl FnMut(usize, i64)) {
        let half = Self::half(self.bits);
        match &self.repr {
            Repr::I8(v) => {
                for (i, &c) in range.clone().zip(&v[range]) {
                    f(i, i64::from(c) + half);
                }
            }
            Repr::I16(v) => {
                for (i, &c) in range.clone().zip(&v[range]) {
                    f(i, i64::from(c) + half);
                }
            }
            Repr::Packed(p) => {
                assert!(range.end <= p.len(), "range past the end of the store");
                for i in range {
                    f(i, p.get(i) + half);
                }
            }
        }
    }

    /// The sparse in-place rewrite Eq. 3 runs on: `range` is walked in
    /// blocks of at most [`BLOCK`](Self::BLOCK) elements; per block,
    /// `select(block_range)` returns a mask — bit `j` set if element
    /// `block_range.start + j` may change — and `f(i, q)` is then called for
    /// the set bits only, in ascending element order, its result (a code on
    /// the grid; return `q` to leave the element alone) written back.
    /// Returns how many codes of `range` sit on a grid rail (`q == 0` or
    /// `q == 2^k − 1`) afterwards, summed per block in the tier's native
    /// width.
    ///
    /// `select` sees a whole block's range at once, so it can be a
    /// branch-free pass over whatever decides the mask; the only
    /// data-dependent branches left are one per *set* bit. An all-ones mask
    /// makes it the dense in-order rewrite. The tier is resolved once per
    /// call; a large `f` wants `#[inline(always)]` at the call site.
    ///
    /// # Panics
    ///
    /// If `range` reaches past the end of the store.
    #[inline]
    pub fn rewrite_blocks(
        &mut self,
        range: Range<usize>,
        mut select: impl FnMut(Range<usize>) -> u64,
        mut f: impl FnMut(usize, i64) -> i64,
    ) -> usize {
        let half = Self::half(self.bits);
        let max = self.bits.num_steps() as i64;
        let mut checked = |i: usize, q: i64| {
            let new = f(i, q);
            debug_assert!((0..=max).contains(&new), "code {new} off the grid");
            new
        };
        let start = range.start;
        match &mut self.repr {
            Repr::I8(v) => {
                let rails = ((-half) as i8, (max - half) as i8);
                rewrite_blocks_in(&mut v[range], start, half, rails, select, checked)
            }
            Repr::I16(v) => {
                let rails = ((-half) as i16, (max - half) as i16);
                rewrite_blocks_in(&mut v[range], start, half, rails, select, checked)
            }
            Repr::Packed(p) => {
                assert!(range.end <= p.len(), "range past the end of the store");
                let mut rails = 0;
                let mut start = range.start;
                while start < range.end {
                    let end = range.end.min(start + Self::BLOCK);
                    let mut mask = select(start..end) & low_bits(end - start);
                    while mask != 0 {
                        let i = start + mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let old = p.get(i) + half;
                        let new = checked(i, old);
                        if new != old {
                            p.set(i, new - half);
                        }
                    }
                    rails += rails_packed(p, start..end, -half, max - half);
                    start = end;
                }
                rails
            }
        }
    }

    /// Counts codes sitting on a grid rail (`q == 0` or `q == max_code`),
    /// compared in each tier's native domain.
    pub fn count_rails(&self, max_code: i64) -> usize {
        let half = Self::half(self.bits);
        match &self.repr {
            Repr::I8(v) => rails_in(v, (-half) as i8, (max_code - half) as i8),
            Repr::I16(v) => rails_in(v, (-half) as i16, (max_code - half) as i16),
            Repr::Packed(p) => rails_packed(p, 0..p.len(), -half, max_code - half),
        }
    }

    /// Flips bit `bit` (`< k`) of element `elem`'s stored pattern and
    /// returns the new raw grid code.
    ///
    /// In every tier the logical effect is `q ^= 1 << bit` (the centered
    /// pattern is `q XOR 2^(k−1)`, so pattern-bit flips and raw-code bit
    /// flips coincide); in the packed tier this is literally one XOR on
    /// the resident `u64` word.
    pub fn flip_bit(&mut self, elem: usize, bit: u32) -> i64 {
        let k = self.bits.get();
        debug_assert!(bit < k);
        let half = Self::half(self.bits);
        match &mut self.repr {
            Repr::I8(v) => {
                // Flip the pattern bit, then re-sign-extend the byte from
                // bit k−1 so the tier invariant (sign-copied high bits)
                // holds.
                let sh = 8 - k;
                let flipped = (v[elem] as u8) ^ (1u8 << bit);
                v[elem] = ((flipped << sh) as i8) >> sh;
                i64::from(v[elem]) + half
            }
            Repr::I16(v) => {
                let sh = 16 - k;
                let flipped = (v[elem] as u16) ^ (1u16 << bit);
                v[elem] = ((flipped << sh) as i16) >> sh;
                i64::from(v[elem]) + half
            }
            Repr::Packed(p) => p.flip_bit(elem, bit) + half,
        }
    }

    /// Physical bytes resident in this store: `N`/`2N` for `i8`/`i16`, and
    /// the word count (padding included) for the packed tier.
    pub fn resident_bytes(&self) -> u64 {
        match &self.repr {
            Repr::I8(v) => v.len() as u64,
            Repr::I16(v) => v.len() as u64 * 2,
            Repr::Packed(p) => p.resident_bytes(),
        }
    }

    /// Physical bits occupied per code, rounded up — what a memory-energy
    /// model should charge for traffic, as opposed to the logical `k`.
    /// Empty stores report the tier's element width.
    pub fn resident_bits_per_code(&self) -> u32 {
        match &self.repr {
            Repr::I8(_) => 8,
            Repr::I16(_) => 16,
            Repr::Packed(p) => {
                if p.is_empty() {
                    64
                } else {
                    (p.resident_bytes() * 8).div_ceil(p.len() as u64) as u32
                }
            }
        }
    }

    /// Feeds the physical representation out a word at a time — the basis
    /// of integrity digests, which must change when any resident bit
    /// flips. `i8`/`i16` chunk their bytes little-endian, the last word
    /// zero-padded; the packed tier emits its data words. The words go to
    /// `block`, `N` consecutive ones per call, while `N` whole ones are
    /// left, and the rest (fewer than `N` whole words and the padded last
    /// one) to `tail` one by one: a caller that keeps `N` independent
    /// accumulators gets them `N` at a time, from one load each, with the
    /// tier resolved once.
    #[inline]
    pub fn for_each_word_block<const N: usize>(
        &self,
        mut block: impl FnMut([u64; N]),
        mut tail: impl FnMut(u64),
    ) {
        /// A chunk of at most one word's elements as one zero-padded
        /// little-endian word.
        #[inline(always)]
        fn word<T: Copy>(chunk: &[T], lane: impl Fn(T) -> u64) -> u64 {
            let width = 8 * std::mem::size_of::<T>();
            chunk
                .iter()
                .enumerate()
                .fold(0, |w, (j, &x)| w | lane(x) << (width * j))
        }
        /// `per_word` elements to the word, `N` words to the block.
        #[inline(always)]
        fn walk<T: Copy, const N: usize>(
            v: &[T],
            lane: impl Fn(T) -> u64 + Copy,
            mut block: impl FnMut([u64; N]),
            mut tail: impl FnMut(u64),
        ) {
            let per_word = 8 / std::mem::size_of::<T>();
            let mut blocks = v.chunks_exact(per_word * N);
            for b in &mut blocks {
                block(std::array::from_fn(|j| {
                    word(&b[per_word * j..per_word * (j + 1)], lane)
                }));
            }
            for chunk in blocks.remainder().chunks(per_word) {
                tail(word(chunk, lane));
            }
        }
        match &self.repr {
            Repr::I8(v) => walk(v, |c| u64::from(c as u8), block, tail),
            Repr::I16(v) => walk(v, |c| u64::from(c as u16), block, tail),
            Repr::Packed(p) => {
                let mut blocks = p.data_words().chunks_exact(N);
                for b in &mut blocks {
                    block(std::array::from_fn(|j| b[j]));
                }
                blocks.remainder().iter().for_each(|&w| tail(w));
            }
        }
    }

    /// Feeds the canonical bit-packed form to `f` word by word: the words a
    /// [`PackedCodes`] of the same codes would hold, identical for identical
    /// logical content whatever the tier, streamed from a bit accumulator
    /// with no intermediate store.
    #[inline]
    pub fn for_each_packed_word(&self, mut f: impl FnMut(u64)) {
        let mask = PackedCodes::mask(self.bits);
        match &self.repr {
            Repr::I8(v) => pack_words(v.iter().map(|&c| c as u64 & mask), self.bits, f),
            Repr::I16(v) => pack_words(v.iter().map(|&c| c as u64 & mask), self.bits, f),
            Repr::Packed(p) => p.data_words().iter().for_each(|&w| f(w)),
        }
    }

    /// Appends the canonical packed words, little-endian — the code
    /// section of checkpoint format v3.
    pub fn write_packed_le(&self, out: &mut Vec<u8>) {
        out.reserve(PackedCodes::data_word_count(self.len(), self.bits) * 8);
        self.for_each_packed_word(|w| out.extend_from_slice(&w.to_le_bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng;
    use rand::Rng;

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    /// Random grid codes at `k` bits with the rails always present.
    fn grid_codes(k: u32, n: usize, seed: u64) -> Vec<i64> {
        let max = b(k).num_steps() as i64;
        let mut r = rng::seeded(seed);
        let mut v: Vec<i64> = (0..n).map(|_| r.gen_range(0..=max)).collect();
        if n >= 2 {
            v[0] = 0;
            v[1] = max;
        }
        v
    }

    /// Lengths around every boundary the bulk kernels have: empty, one,
    /// either side of a `u64` of `i8`s and of 64 codes, and one code past
    /// the first and the second packed-word boundary at this `k`.
    fn edge_lengths(k: u32) -> Vec<usize> {
        let mut lens = vec![0, 1, 7, 8, 9, 63, 64, 65];
        lens.extend([64 / k as usize + 1, 128 / k as usize + 1]);
        lens
    }

    /// Element `i`'s code, through the range visitor.
    fn code_at(store: &CodeStore, i: usize) -> i64 {
        let mut code = None;
        store.for_each(i..i + 1, |_, q| code = Some(q));
        code.expect("i < len")
    }

    /// The canonical packed words, as the streaming packer emits them.
    fn packed_words(store: &CodeStore) -> Vec<u64> {
        let mut words = Vec::new();
        store.for_each_packed_word(|w| words.push(w));
        words
    }

    /// [`packed_by_set`] of two's-complement codes.
    fn packed_signed(signed: &[i64], k: u32) -> PackedCodes {
        let half = 1i64 << (k - 1);
        packed_by_set(&signed.iter().map(|&c| c + half).collect::<Vec<_>>(), k)
    }

    /// The canonical packing built one `set` at a time — the per-element
    /// path the streaming packer must agree with.
    fn packed_by_set(codes: &[i64], k: u32) -> PackedCodes {
        let mut p = PackedCodes {
            words: vec![0; PackedCodes::data_word_count(codes.len(), b(k)) + 1],
            len: codes.len(),
            bits: b(k),
        };
        let half = 1i64 << (k - 1);
        for (i, &q) in codes.iter().enumerate() {
            p.set(i, q - half);
        }
        p
    }

    #[test]
    fn direct_constructor_and_read_visitor_agree_with_get() {
        for k in 2..=32u32 {
            for n in edge_lengths(k) {
                let codes = grid_codes(k, n, u64::from(k) * 131 + n as u64);
                let store = CodeStore::from_code_iter(codes.iter().copied(), b(k));
                assert_eq!(store.len(), n, "k={k}");
                assert_eq!(store.bits(), b(k));
                // In two ranges, as a per-channel tensor walks its groups.
                let mut seen = Vec::new();
                for range in [0..n / 3, n / 3..n] {
                    store.for_each(range, |i, q| {
                        assert_eq!(i, seen.len(), "in order, k={k} n={n}");
                        assert_eq!(q, code_at(&store, i), "k={k} n={n} i={i}");
                        seen.push(q);
                    });
                }
                assert_eq!(seen, codes, "k={k} n={n}");
                assert_eq!(store, CodeStore::from_codes(&codes, b(k)));
                if let Repr::Packed(p) = &store.repr {
                    assert_eq!(*p, packed_by_set(&codes, k), "k={k} n={n}");
                }
            }
        }
    }

    /// The per-element loop `count_rails` was before it summed by block.
    fn rails_one_by_one(store: &CodeStore, range: Range<usize>) -> usize {
        let max = store.bits().num_steps() as i64;
        range
            .filter(|&i| code_at(store, i) == 0 || code_at(store, i) == max)
            .count()
    }

    #[test]
    fn block_rewrite_agrees_with_set_for_dense_and_sparse_masks() {
        for k in 2..=32u32 {
            let levels = b(k).num_steps() as i64 + 1;
            let mut lens = edge_lengths(k);
            lens.extend([127, 128, 129, 200]);
            for n in lens {
                let codes = grid_codes(k, n, u64::from(k) * 137 + n as u64);
                let f = |i: usize, q: i64| (q * 5 + i as i64 + 1) % levels;
                // Dense, every third element, and nothing at all.
                for keep in [|_| true, |i: usize| i.is_multiple_of(3), |_| false] {
                    let mut bulk = CodeStore::from_codes(&codes, b(k));
                    let (mut visited, mut rails) = (Vec::new(), 0);
                    // In two ranges, as a per-channel tensor walks its groups.
                    for range in [0..n / 3, n / 3..n] {
                        let mut blocks = range.start;
                        rails += bulk.rewrite_blocks(
                            range.clone(),
                            |block| {
                                // Consecutive, full but for the last.
                                assert_eq!(block.start, blocks, "k={k} n={n}");
                                assert!(block.end <= range.end && !block.is_empty());
                                let full = block.len() == CodeStore::BLOCK;
                                assert!(full || block.end == range.end);
                                blocks = block.end;
                                // Bits past the block's end are ignored.
                                !low_bits(block.len())
                                    | block
                                        .clone()
                                        .filter(|&i| keep(i))
                                        .fold(0, |m, i| m | 1 << (i - block.start))
                            },
                            |i, q| {
                                assert_eq!(q, codes[i], "k={k} n={n}");
                                visited.push(i);
                                f(i, q)
                            },
                        );
                        assert_eq!(blocks, range.end);
                    }
                    let expect: Vec<usize> = (0..n).filter(|&i| keep(i)).collect();
                    assert_eq!(visited, expect, "ascending, selected only: k={k} n={n}");
                    let mut one_by_one = CodeStore::from_codes(&codes, b(k));
                    for &i in &expect {
                        one_by_one.set(i, f(i, code_at(&one_by_one, i)));
                    }
                    assert_eq!(bulk, one_by_one, "k={k} n={n}");
                    assert_eq!(rails, rails_one_by_one(&bulk, 0..n), "k={k} n={n}");
                    // Equal stores, padding bits included.
                    let by_set = packed_by_set(&bulk.to_vec(), k);
                    assert_eq!(packed_words(&bulk), by_set.data_words());
                }
            }
        }
    }

    #[test]
    fn rail_sums_agree_with_the_per_element_count_at_every_block_edge() {
        // Both rail codes planted at the first, the last and either side of
        // every sum-block boundary, over a store with no rail code
        // elsewhere; lengths around one block and around two.
        let c = RAIL_BLOCK;
        for k in [2u32, 6, 8, 9, 16, 20] {
            let max = b(k).num_steps() as i64;
            for n in [0, 1, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1] {
                let inner = |i: usize| if max > 1 { 1 + i as i64 % (max - 1) } else { 1 };
                let plain: Vec<i64> = (0..n).map(inner).collect();
                let store = |codes: &[i64]| CodeStore::from_codes(codes, b(k));
                assert_eq!(store(&plain).count_rails(max), if max > 1 { 0 } else { n });
                let edges = [0, c - 1, c, c + 1, 2 * c - 1, 2 * c, n.saturating_sub(1)];
                for at in edges.into_iter().filter(|&at| at < n) {
                    for rail in [0, max] {
                        let mut codes = plain.clone();
                        codes[at] = rail;
                        let s = store(&codes);
                        assert_eq!(
                            s.count_rails(max),
                            rails_one_by_one(&s, 0..n),
                            "k={k} n={n} rail {rail} at {at}"
                        );
                    }
                }
                // Every element on a rail: the byte lanes do not overflow.
                let all: Vec<i64> = (0..n).map(|i| if i % 2 == 0 { 0 } else { max }).collect();
                assert_eq!(store(&all).count_rails(max), n, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn streaming_packer_agrees_with_per_element_packing() {
        for k in 2..=32u32 {
            for n in edge_lengths(k) {
                let codes = grid_codes(k, n, u64::from(k) * 139 + n as u64);
                let store = CodeStore::from_codes(&codes, b(k));
                let reference = packed_by_set(&codes, k);
                let mut words = Vec::new();
                store.for_each_packed_word(|w| words.push(w));
                assert_eq!(words, reference.data_words(), "k={k} n={n}");
                let mut bytes = vec![0xAB]; // appends, does not overwrite
                store.write_packed_le(&mut bytes);
                let expect: Vec<u8> = std::iter::once(0xAB)
                    .chain(reference.data_words().iter().flat_map(|w| w.to_le_bytes()))
                    .collect();
                assert_eq!(bytes, expect, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn resident_words_are_the_little_endian_bytes_zero_padded() {
        for k in [2u32, 6, 8, 9, 12, 16, 17, 32] {
            for n in edge_lengths(k) {
                let codes = grid_codes(k, n, u64::from(k) * 149 + n as u64);
                let store = CodeStore::from_codes(&codes, b(k));
                // The resident bytes, as a byte-at-a-time reading has them.
                let bytes: Vec<u8> = match &store.repr {
                    Repr::I8(v) => v.iter().map(|&c| c as u8).collect(),
                    Repr::I16(v) => v.iter().flat_map(|&c| c.to_le_bytes()).collect(),
                    Repr::Packed(p) => p
                        .data_words()
                        .iter()
                        .flat_map(|w| w.to_le_bytes())
                        .collect(),
                };
                let expect: Vec<u64> = bytes
                    .chunks(8)
                    .map(|c| {
                        c.iter()
                            .enumerate()
                            .fold(0u64, |w, (j, &x)| w | u64::from(x) << (8 * j))
                    })
                    .collect();
                assert_eq!(resident_words::<1>(&store), expect, "k={k} n={n}");
                assert_eq!(resident_words::<4>(&store), expect, "k={k} n={n}");
                assert_eq!(resident_words::<8>(&store), expect, "k={k} n={n}");
            }
        }
    }

    /// Every resident word in order, through `for_each_word_block::<N>`:
    /// whole blocks first, then at most `N` tail words.
    fn resident_words<const N: usize>(store: &CodeStore) -> Vec<u64> {
        let (mut blocks, mut tail) = (Vec::new(), Vec::new());
        store.for_each_word_block::<N>(|block| blocks.extend(block), |w| tail.push(w));
        assert!(tail.len() <= N, "{} tail words at N = {N}", tail.len());
        blocks.extend(tail);
        blocks
    }

    #[test]
    fn packed_roundtrips_every_bitwidth() {
        for k in 2..=32u32 {
            let half = 1i64 << (k - 1);
            let mut r = rng::seeded(u64::from(k));
            let mut signed: Vec<i64> = (0..257).map(|_| r.gen_range(-half..half)).collect();
            signed[0] = -half;
            signed[1] = half - 1;
            signed[2] = 0;
            let p = packed_signed(&signed, k);
            assert_eq!(p.to_signed_vec(), signed, "k={k}");
            assert_eq!(p.len(), 257);
            // Exactly ceil(257k/64) data words plus one padding word.
            assert_eq!(
                p.resident_bytes(),
                ((257 * k as u64).div_ceil(64) + 1) * 8,
                "k={k}"
            );
        }
    }

    #[test]
    fn packed_rejects_out_of_range_and_corrupt_words() {
        let p = packed_signed(&[1, -2, 3], 5);
        // Wrong word count.
        assert!(PackedCodes::from_data_words(vec![0, 0], 3, b(5)).is_err());
        // Nonzero padding bit beyond 15 used bits.
        let mut words = p.data_words().to_vec();
        words[0] |= 1u64 << 40;
        assert!(PackedCodes::from_data_words(words, 3, b(5)).is_err());
        // Clean words round-trip.
        let re = PackedCodes::from_data_words(p.data_words().to_vec(), 3, b(5)).unwrap();
        assert_eq!(re, p);
    }

    #[test]
    fn streaming_writer_and_reader_agree_with_packed_codes() {
        for k in 2..=32u32 {
            let half = 1i64 << (k - 1);
            for n in edge_lengths(k) {
                let mut r = rng::seeded(u64::from(k) * 151 + n as u64);
                let mut signed: Vec<i64> = (0..n).map(|_| r.gen_range(-half..half)).collect();
                if n >= 2 {
                    signed[0] = -half;
                    signed[n - 1] = half - 1;
                }
                let narrow: Vec<i32> = signed.iter().map(|&c| c as i32).collect();
                let reference = packed_signed(&signed, k);
                let mut words = vec![7]; // appends, does not overwrite
                PackedCodes::append_words(&narrow, b(k), &mut words).unwrap();
                assert_eq!(words[0], 7);
                assert_eq!(&words[1..], reference.data_words(), "k={k} n={n}");
                let mut back = Vec::new();
                PackedCodes::read_words(&words[1..], n, b(k), |i, c| {
                    assert_eq!(i, back.len(), "in order, k={k} n={n}");
                    back.push(c);
                })
                .unwrap();
                assert_eq!(back, narrow, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn streaming_pair_makes_the_checks_of_the_owning_constructors() {
        let mut words = vec![9];
        for bad in [4, -5] {
            assert!(PackedCodes::append_words(&[0, bad], b(3), &mut words).is_err());
            assert_eq!(words, [9], "a refused append leaves `out` alone");
        }
        let seen = |words: &[u64], len| {
            let mut n = 0;
            PackedCodes::read_words(words, len, b(5), |_, _| n += 1).map(|()| n)
        };
        PackedCodes::append_words(&[1, -2, 3], b(5), &mut words).unwrap();
        assert_eq!(seen(&words[1..], 3), Ok(3));
        // Wrong word count, either way; then a set bit past the 15 used.
        assert!(seen(&words, 3).is_err());
        assert!(seen(&[], 3).is_err());
        assert!(seen(&[words[1] | 1 << 40], 3).is_err());
    }

    #[test]
    fn packed_set_keeps_neighbours_and_padding_intact() {
        for k in [3u32, 7, 13, 17, 31] {
            let half = 1i64 << (k - 1);
            let mut r = rng::seeded(100 + u64::from(k));
            let signed: Vec<i64> = (0..100).map(|_| r.gen_range(-half..half)).collect();
            let mut p = packed_signed(&signed, k);
            for _ in 0..500 {
                let i = r.gen_range(0..100usize);
                let c = r.gen_range(-half..half);
                p.set(i, c);
                assert_eq!(p.get(i), c);
            }
            // Trailing/padding bits never became nonzero.
            let rem = (100 * k as usize) % 64;
            if rem != 0 {
                let last = *p.data_words().last().unwrap();
                assert_eq!(last >> rem, 0, "k={k}");
            }
            assert_eq!(*p.words.last().unwrap(), 0, "padding word k={k}");
        }
    }

    #[test]
    fn tiering_matches_bitwidth() {
        let s = |k: u32| CodeStore::from_codes(&grid_codes(k, 16, 1), b(k)).repr;
        assert!(matches!(s(2), Repr::I8(_)));
        assert!(matches!(s(8), Repr::I8(_)));
        assert!(matches!(s(9), Repr::I16(_)));
        assert!(matches!(s(16), Repr::I16(_)));
        assert!(matches!(s(17), Repr::Packed(_)));
        assert!(matches!(s(32), Repr::Packed(_)));
    }

    #[test]
    fn every_tier_holds_the_codes_it_was_built_from() {
        // The reference is the plain code vector itself.
        for k in 2..=32u32 {
            let codes = grid_codes(k, 129, 7 + u64::from(k));
            let store = CodeStore::from_codes(&codes, b(k));
            assert_eq!(store.to_vec(), codes, "k={k}");
            for (i, &q) in codes.iter().enumerate() {
                assert_eq!(code_at(&store, i), q, "k={k} i={i}");
            }
            let max = b(k).num_steps() as i64;
            let rails = codes.iter().filter(|&&q| q == 0 || q == max).count();
            assert_eq!(store.count_rails(max), rails, "k={k}");
            let half = 1i64 << (k - 1);
            let centered: Vec<i64> = codes.iter().map(|&q| q - half).collect();
            assert_eq!(
                packed_words(&store),
                packed_signed(&centered, k).data_words(),
                "canonical packing must not depend on the tier (k={k})"
            );
        }
    }

    #[test]
    fn canonical_word_layout_matches_a_hand_computed_golden() {
        // Grid codes [0, 31, 63] at k = 6 centre to [−32, −1, 31], i.e. the
        // 6-bit fields 0x20, 0x3F, 0x1F laid LSB-first:
        // 0x20 | 0x3F << 6 | 0x1F << 12 = 0x1FFE0.
        let store = CodeStore::from_codes(&[0, 31, 63], b(6));
        assert_eq!(packed_words(&store), [0x1FFE0]);
    }

    #[test]
    fn set_and_get_roundtrip_across_tiers() {
        for k in [2u32, 8, 9, 16, 17, 32] {
            let codes = grid_codes(k, 65, 11);
            let max = b(k).num_steps() as i64;
            let mut s = CodeStore::from_codes(&codes, b(k));
            let mut r = rng::seeded(13);
            for _ in 0..200 {
                let i = r.gen_range(0..65usize);
                let q = r.gen_range(0..=max);
                s.set(i, q);
                assert_eq!(code_at(&s, i), q, "k={k}");
            }
        }
    }

    #[test]
    fn flip_bit_matches_logical_xor_in_every_tier() {
        for k in [2u32, 5, 8, 11, 16, 21, 32] {
            let codes = grid_codes(k, 33, 17 + u64::from(k));
            let mut s = CodeStore::from_codes(&codes, b(k));
            let mut expect = codes.clone();
            let mut r = rng::seeded(19);
            for _ in 0..300 {
                let i = r.gen_range(0..33usize);
                let bit = r.gen_range(0..k);
                let got = s.flip_bit(i, bit);
                expect[i] ^= 1i64 << bit;
                assert_eq!(got, expect[i], "k={k}");
                assert!((0..=b(k).num_steps() as i64).contains(&got));
            }
            assert_eq!(s.to_vec(), expect);
        }
    }

    #[test]
    fn packed_flip_is_physically_one_word_bit() {
        let k = 21u32; // fields straddle word boundaries
        let codes = grid_codes(k, 40, 23);
        let mut s = CodeStore::from_codes(&codes, b(k));
        let before = packed_words(&s);
        let elem = 3usize; // bits [63, 84): straddles words 0 and 1
        let bit = 2u32;
        s.flip_bit(elem, bit);
        let after = packed_words(&s);
        let pos = elem * k as usize + bit as usize;
        let mut diff_bits = 0u32;
        for (i, (a, b_)) in before.iter().zip(&after).enumerate() {
            let d = a ^ b_;
            diff_bits += d.count_ones();
            if d != 0 {
                assert_eq!(i, pos / 64);
                assert_eq!(d, 1u64 << (pos % 64));
            }
        }
        assert_eq!(diff_bits, 1, "exactly one physical bit must change");
    }

    #[test]
    fn resident_bytes_shrink_with_the_tier() {
        let n = 1000usize;
        let k6 = CodeStore::from_codes(&grid_codes(6, n, 29), b(6));
        let k12 = CodeStore::from_codes(&grid_codes(12, n, 29), b(12));
        let k20 = CodeStore::from_codes(&grid_codes(20, n, 29), b(20));
        assert_eq!(k6.resident_bytes(), 1000);
        assert_eq!(k12.resident_bytes(), 2000);
        assert_eq!(k20.resident_bytes(), (((1000 * 20) / 64) + 1 + 1) * 8);
        assert_eq!(k6.resident_bits_per_code(), 8);
        assert_eq!(k12.resident_bits_per_code(), 16);
        // Packed: 20 logical bits cost ~20.2 physical (padding amortised).
        assert!(k20.resident_bits_per_code() >= 20 && k20.resident_bits_per_code() <= 22);
    }

    #[test]
    fn for_each_word_covers_every_resident_bit() {
        // A digest built on the resident words must see any single stored-bit
        // change; spot-check by flipping one code bit per tier.
        for k in [6u32, 12, 24] {
            let codes = grid_codes(k, 50, 31);
            let mut s = CodeStore::from_codes(&codes, b(k));
            let collect = resident_words::<4>;
            let before = collect(&s);
            s.flip_bit(49, k - 1); // sign bit of the last element
            let after = collect(&s);
            assert_ne!(before, after, "k={k}");
            assert_eq!(before.len(), after.len());
        }
    }

    #[test]
    fn empty_store_is_well_behaved() {
        let s = CodeStore::from_codes(&[], b(6));
        assert!(s.is_empty());
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.to_vec(), Vec::<i64>::new());
        assert_eq!(s.count_rails(63), 0);
        assert_eq!(packed_words(&s).len(), 0);
        assert_eq!(packed_signed(&[], 20).resident_bytes(), 8); // just the padding word
    }
}
