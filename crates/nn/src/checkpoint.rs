//! Model checkpointing: serialise a trained network's parameters (in their
//! native representation — integer codes stay integer codes) and batch-norm
//! running statistics to a compact binary blob, and load it back into an
//! architecturally identical network.
//!
//! This is the deployment path the paper's edge scenario needs: a model
//! trained with APT is shipped *at its adapted per-layer bitwidths*, so the
//! on-flash footprint matches the training-memory footprint Figure 5
//! reports. On-device flash is also where power cuts corrupt bytes, so the
//! format frames the payload with its length and a CRC32: a truncated or
//! bit-flipped blob is detected and rejected with a typed error instead of
//! being half-applied to the network.
//!
//! ## Format v3 (little-endian)
//!
//! ```text
//! magic "APTC" | version u16 = 3 | payload_len u32 | crc32 u32 | payload
//! payload:
//!   param_count u32 | buffer_count u32
//!   per param : name (u32 len + utf8) | tag u8 | dims (u32 count + u32s) | data
//!     tag 0 Float      : f32 × volume
//!     tag 1 Quantized, : bits u8 | scale f32 | zero i64 |
//!           per tensor   ⌈volume·bits/64⌉ u64 words — the canonical
//!                        [`apt_quant::PackedCodes`] data words (centred
//!                        codes `q − 2^{k−1}`, LSB-first within each word)
//!     tag 2 MasterCopy : bits u8 | f32 × volume
//!     tag 3 Projected  : proj u8 (0=binary, 1=ternary) | f32 × volume
//!     tag 4 Quantized, : bits u8 | channels u32 |
//!           per channel  (scale f32, zero i64) × channels | packed words
//!   per buffer: name (u32 len + utf8) | dims | f32 × volume
//! ```
//!
//! Tags 1 and 4 are the two calibrations of the one
//! [`apt_quant::QuantizedTensor`] ([`ParamStore::Quantized`]); a per-channel
//! tensor stays tag 4 even when its axis 0 has a single channel. The word
//! payload is exactly what a packed-tier [`apt_quant::CodeStore`]
//! holds in RAM, so saving a quantised layer is a plain copy of its
//! physical storage, and loading validates the words (padding bits must be
//! zero) before any code reaches the grid.
//!
//! [`save_full`] is the only writer; [`load`] and [`verify`]
//! read version 3 only and refuse any other, 1 and 2 included, with
//! [`NnError::UnsupportedVersion`]. The CRC is the IEEE 802.3 polynomial.
//!
//! ## The one on-flash codec
//!
//! The trainer's state file (`APTS`, `apt_core::state`) is written and read
//! through the pieces here, so both formats share one codec: the frame
//! ([`HEADER`], [`frame`] / [`frame_head`] to write it, [`unframe`] to
//! check it), one payload writer interface ([`Sink`], whose counting impl
//! sizes a blob before it is allocated) and one bounds-checked [`Reader`].
//! Each format checks its own magic and accepts only its current version.
//!
//! Quantised payloads are bit-packed, so a 6-bit layer costs about 6 bits
//! per weight on flash — the checkpoint size *is* the Figure 5 memory
//! story.

use crate::{Network, NnError, ParamStore, Projection};
use apt_quant::{AffineQuantizer, Bitwidth, CodeStore, PackedCodes, QuantizedTensor};
use apt_tensor::Tensor;

const MAGIC: &[u8; 4] = b"APTC";
const VERSION: u16 = 3;

/// Smallest possible per-parameter encoding (name len + tag + rank), used
/// to sanity-check counts against the bytes actually present before any
/// allocation is sized from them.
const MIN_PARAM_BYTES: usize = 4 + 1 + 4;
/// Smallest possible per-buffer encoding (name len + rank).
const MIN_BUFFER_BYTES: usize = 4 + 4;
/// Rank cap for serialised tensors.
const MAX_RANK: usize = 8;

/// `CRC_TABLES[0]` is the classic byte-at-a-time table of the reflected
/// polynomial `0xEDB88320`; `CRC_TABLES[n][b]` is the CRC of byte `b`
/// followed by `n` zero bytes, which is what lets eight input bytes be
/// folded with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`,
/// computed by slicing-by-8: eight table lookups per eight bytes instead
/// of a dependent lookup chain per byte. Same polynomial, same values.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues a CRC-32: `crc32_update(crc32(a), b) == crc32(a ++ b)`, and
/// `crc32_update(0, b) == crc32(b)` — for a checksum computed as the bytes
/// stream out.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------- frame

/// Frame header size: magic, version u16, payload length u32, CRC-32 u32.
pub const HEADER: usize = 4 + 2 + 4 + 4;

/// The header of a frame around a `len`-byte payload whose CRC-32 is `crc`.
pub fn frame_head(magic: &[u8; 4], version: u16, len: usize, crc: u32) -> [u8; HEADER] {
    let mut h = [0u8; HEADER];
    h[..4].copy_from_slice(magic);
    h[4..6].copy_from_slice(&version.to_le_bytes());
    h[6..10].copy_from_slice(&(len as u32).to_le_bytes());
    h[10..14].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Frames the payload `write` puts into a [`Sink`]: a counting pass sizes
/// it, so the blob is allocated once at its final size, and the payload is
/// checksummed where it was written, not copied behind a header.
pub fn frame(magic: &[u8; 4], version: u16, mut write: impl FnMut(&mut dyn Sink)) -> Vec<u8> {
    let mut len = Count(0);
    write(&mut len);
    let mut out = Vec::with_capacity(HEADER + len.0);
    out.extend_from_slice(&[0; HEADER]);
    write(&mut out);
    debug_assert_eq!(out.len(), HEADER + len.0, "the frame was sized exactly");
    let (head, payload) = out.split_at_mut(HEADER);
    head.copy_from_slice(&frame_head(magic, version, payload.len(), crc32(payload)));
    out
}

/// Checks a frame — magic, version, declared length, CRC — and returns the
/// payload it carries. A version other than `version` is
/// [`NnError::UnsupportedVersion`], any other failure [`NnError::Corrupt`].
pub fn unframe<'a>(blob: &'a [u8], magic: &[u8; 4], version: u16) -> crate::Result<&'a [u8]> {
    let mut r = Reader::new(blob);
    if r.take(4)? != magic {
        return Err(corrupt(format!(
            "bad magic (not an {} blob)",
            String::from_utf8_lossy(magic)
        )));
    }
    let found = u16::from_le_bytes(r.array()?);
    if found != version {
        return Err(NnError::UnsupportedVersion { version: found });
    }
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after the framed payload"));
    }
    if crc32(payload) != crc {
        return Err(corrupt("CRC32 mismatch (truncated or bit-flipped blob)"));
    }
    Ok(payload)
}

/// Where a payload writer puts its bytes: a `Vec`, a stream, or only their
/// count — the sizing pass that lets [`frame`] allocate once.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
    /// Appends `vals` little-endian.
    fn put_f32s(&mut self, vals: &[f32]);

    /// Appends the canonical packed words of `codes`, little-endian.
    fn put_codes(&mut self, codes: &CodeStore) {
        codes.for_each_packed_word(|w| self.u64(w));
    }
    /// Appends `v` little-endian.
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    /// Appends `v` little-endian.
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    /// Appends `v` little-endian.
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    /// Appends `v` little-endian.
    fn f32(&mut self, v: f32) {
        self.put(&v.to_le_bytes());
    }
    /// Appends `v` little-endian.
    fn f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }
    /// Length-prefixed UTF-8.
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }
    /// Rank-prefixed dims.
    fn dims(&mut self, dims: &[usize]) {
        self.u32(dims.len() as u32);
        for &d in dims {
            self.u32(d as u32);
        }
    }
    /// Dims, then `f32 × volume`.
    fn tensor(&mut self, t: &Tensor) {
        self.dims(t.dims());
        self.put_f32s(t.data());
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    /// A block at a time rather than four bytes at a time.
    fn put_f32s(&mut self, vals: &[f32]) {
        const BLOCK: usize = 64;
        self.reserve(4 * vals.len());
        let mut bytes = [0u8; 4 * BLOCK];
        for block in vals.chunks(BLOCK) {
            for (dst, v) in bytes.chunks_exact_mut(4).zip(block) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.extend_from_slice(&bytes[..4 * block.len()]);
        }
    }
    fn put_codes(&mut self, codes: &CodeStore) {
        codes.write_packed_le(self);
    }
}

/// A [`Sink`] that only counts.
struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    fn put_f32s(&mut self, vals: &[f32]) {
        self.0 += 4 * vals.len();
    }
    fn put_codes(&mut self, codes: &CodeStore) {
        self.0 += (codes.len() * codes.bits().get() as usize).div_ceil(64) * 8;
    }
}

/// Bounds-checked little-endian reader over a payload: every length is
/// checked against the bytes left before anything is sliced or sized from
/// it, so damaged input is a typed [`NnError::Corrupt`], never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        // `remaining` cannot overflow (pos ≤ len); `pos + n` could.
        if n > self.remaining() {
            return Err(corrupt(format!(
                "need {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> crate::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }
    /// The next byte.
    pub fn u8(&mut self) -> crate::Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> crate::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> crate::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> crate::Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    /// The next little-endian `f32`.
    pub fn f32(&mut self) -> crate::Result<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }
    /// The next little-endian `f64`.
    pub fn f64(&mut self) -> crate::Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }
    /// Reads an element count and bounds-checks it against the remaining
    /// bytes, assuming each element occupies at least `min_elem` bytes:
    /// absurd counts are rejected before any allocation is sized from them.
    pub fn count(&mut self, min_elem: usize) -> crate::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(corrupt(format!(
                "count {n} cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
    /// A length-prefixed UTF-8 string ([`Sink::str`]).
    pub fn str(&mut self) -> crate::Result<&'a str> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| corrupt("string field is not UTF-8"))
    }
    fn dims(&mut self) -> crate::Result<Vec<usize>> {
        let rank = self.u32()? as usize;
        if rank > MAX_RANK {
            return Err(corrupt(format!("tensor rank {rank} exceeds {MAX_RANK}")));
        }
        (0..rank).map(|_| Ok(self.u32()? as usize)).collect()
    }
    /// The bytes of an `f32 × n` section.
    fn f32s(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        let byte_len = n
            .checked_mul(4)
            .ok_or_else(|| corrupt("f32 section length overflows"))?;
        self.take(byte_len)
    }
    /// Dims, then `f32 × volume` ([`Sink::tensor`]).
    pub fn tensor(&mut self) -> crate::Result<Tensor> {
        let dims = self.dims()?;
        let data = self.f32s(checked_volume(&dims)?)?;
        Ok(Tensor::from_vec(decode_f32s(data), &dims)?)
    }
    /// The bytes of a section of `n` packed codes at `bits`.
    fn codes(&mut self, n: usize, bits: Bitwidth) -> crate::Result<&'a [u8]> {
        let total_bits = n
            .checked_mul(bits.get() as usize)
            .ok_or_else(|| corrupt("packed code section length overflows"))?;
        self.take(total_bits.div_ceil(64) * 8)
    }
}

// ---------------------------------------------------------------- .aptc

/// Serialises `net` including batch-norm running statistics (requires
/// `&mut` because buffer visitation is mutable by trait design).
pub fn save_full(net: &mut Network) -> Vec<u8> {
    frame(MAGIC, VERSION, |w| write_full(w, net))
}

/// [`save_full`]'s payload.
fn write_full(w: &mut dyn Sink, net: &mut Network) {
    let mut buffers = 0u32;
    net.visit_buffers(&mut |_, _| buffers += 1);
    write_params(w, net, buffers);
    net.visit_buffers(&mut |name, t| {
        w.str(name);
        w.tensor(t);
    });
}

/// The two section counts, then every parameter's section. Each store is
/// serialised where it lives: code sections stream out of the tier
/// ([`Sink::put_codes`]), nothing is cloned first.
fn write_params(w: &mut dyn Sink, net: &Network, buffers: u32) {
    let mut params = 0u32;
    net.visit_params_ref(&mut |_| params += 1);
    w.u32(params);
    w.u32(buffers);
    net.visit_params_ref(&mut |p| {
        w.str(p.name());
        match p.store() {
            ParamStore::Float(t) => {
                w.u8(0);
                w.dims(p.dims());
                w.put_f32s(t.data());
            }
            ParamStore::Quantized(q) => {
                w.u8(if q.is_per_channel() { 4 } else { 1 });
                w.dims(p.dims());
                w.u8(q.bits().get() as u8);
                if q.is_per_channel() {
                    w.u32(q.quantizers().len() as u32);
                }
                for quantizer in q.quantizers() {
                    w.f32(quantizer.eps());
                    w.put(&quantizer.zero_point().to_le_bytes());
                }
                w.put_codes(q.store());
            }
            ParamStore::MasterCopy { master, bits } => {
                w.u8(2);
                w.dims(p.dims());
                w.u8(bits.get() as u8);
                w.put_f32s(master.data());
            }
            ParamStore::Projected { master, projection } => {
                w.u8(3);
                w.dims(p.dims());
                w.u8(match projection {
                    Projection::Binary => 0,
                    Projection::Ternary => 1,
                });
                w.put_f32s(master.data());
            }
        }
    });
}

/// Restores a checkpoint produced by [`save_full`] into an
/// architecturally identical network: parameters are matched by name and
/// replaced with their stored representation; buffers likewise.
///
/// # Errors
///
/// Returns [`NnError::Corrupt`] for a truncated, bit-flipped, or otherwise
/// structurally invalid blob, [`NnError::UnsupportedVersion`] for any
/// version but 3, and [`NnError::BadConfig`] for a valid blob that does not
/// match the network (unknown parameter names, shape mismatches).
pub fn load(net: &mut Network, blob: &[u8]) -> crate::Result<()> {
    load_payload(net, unframe(blob, MAGIC, VERSION)?)
}

/// The data of one parameter section as [`walk`] hands it over, by store
/// tag: header fields parsed and bounded, data as the bytes it occupies —
/// [`verify`] drops them, [`load`] decodes them.
enum StoreBytes<'a> {
    /// Tag 0: `f32 × volume`.
    Float(&'a [u8]),
    /// Tags 1 and 4: `(scale f32, zero i64)` pairs, then the packed words.
    Quantized {
        per_channel: bool,
        bits: Bitwidth,
        quantizers: &'a [u8],
        codes: &'a [u8],
    },
    /// Tag 2.
    MasterCopy { bits: Bitwidth, master: &'a [u8] },
    /// Tag 3.
    Projected {
        projection: Projection,
        master: &'a [u8],
    },
}

/// Walks an (already integrity-checked) payload once: counts, then every
/// name, tag, dims, bitwidth and the exact byte extent of every data
/// section, each handed to `param(name, dims, store)` or `buffer(name, dims,
/// f32 bytes)` as it is delimited. The only parser of the section layout —
/// a tag or a bound added here is one both [`verify`] and [`load`] know.
/// Returns `(params, buffers)`.
fn walk<'a>(
    payload: &'a [u8],
    mut param: impl FnMut(&'a str, Vec<usize>, StoreBytes<'a>) -> crate::Result<()>,
    mut buffer: impl FnMut(&'a str, Vec<usize>, &'a [u8]) -> crate::Result<()>,
) -> crate::Result<(usize, usize)> {
    let mut r = Reader::new(payload);
    // Callers size allocations from the counts, so bound them by what the
    // bytes could possibly encode before trusting them.
    let param_count = r.count(MIN_PARAM_BYTES)?;
    let buffer_count = r.count(MIN_BUFFER_BYTES)?;
    for _ in 0..param_count {
        let name = r.str()?;
        let tag = r.u8()?;
        let dims = r.dims()?;
        let volume = checked_volume(&dims)?;
        let store = match tag {
            0 => StoreBytes::Float(r.f32s(volume)?),
            1 | 4 => {
                let bits = Bitwidth::new(u32::from(r.u8()?))?;
                let groups = if tag == 4 {
                    r.count(QUANTIZER_BYTES)?
                } else {
                    1
                };
                StoreBytes::Quantized {
                    per_channel: tag == 4,
                    bits,
                    quantizers: r.take(groups * QUANTIZER_BYTES)?,
                    codes: r.codes(volume, bits)?,
                }
            }
            2 => StoreBytes::MasterCopy {
                bits: Bitwidth::new(u32::from(r.u8()?))?,
                master: r.f32s(volume)?,
            },
            3 => StoreBytes::Projected {
                projection: match r.u8()? {
                    0 => Projection::Binary,
                    1 => Projection::Ternary,
                    other => return Err(corrupt(format!("unknown projection {other}"))),
                },
                master: r.f32s(volume)?,
            },
            other => return Err(corrupt(format!("unknown store tag {other}"))),
        };
        param(name, dims, store)?;
    }
    for _ in 0..buffer_count {
        let name = r.str()?;
        let dims = r.dims()?;
        let data = r.f32s(checked_volume(&dims)?)?;
        buffer(name, dims, data)?;
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after checkpoint sections"));
    }
    Ok((param_count, buffer_count))
}

/// Decodes and applies the (already integrity-checked) payload section.
fn load_payload(net: &mut Network, payload: &[u8]) -> crate::Result<()> {
    let mut stores: Vec<(String, ParamStore)> = Vec::new();
    let mut buffers: Vec<(String, Tensor)> = Vec::new();
    let tensor = |bytes: &[u8], dims: &[usize]| Tensor::from_vec(decode_f32s(bytes), dims);
    let param = |name: &str, dims: Vec<usize>, store| {
        let store = match store {
            StoreBytes::Float(data) => ParamStore::Float(tensor(data, &dims)?),
            StoreBytes::Quantized {
                per_channel,
                bits,
                quantizers,
                codes,
            } => {
                let mut pairs = Reader::new(quantizers);
                let quantizers = (0..quantizers.len() / QUANTIZER_BYTES)
                    .map(|_| {
                        let (scale, zero) = (pairs.f32()?, pairs.i64()?);
                        Ok(AffineQuantizer::from_parts(scale, zero, bits)?)
                    })
                    .collect::<crate::Result<Vec<_>>>()?;
                let codes = decode_packed_words(codes, dims.iter().product(), bits)?;
                ParamStore::Quantized(if per_channel {
                    QuantizedTensor::from_parts_per_channel(codes, dims, quantizers)?
                } else {
                    QuantizedTensor::from_parts(codes, dims, quantizers[0])?
                })
            }
            StoreBytes::MasterCopy { bits, master } => ParamStore::MasterCopy {
                master: tensor(master, &dims)?,
                bits,
            },
            StoreBytes::Projected { projection, master } => ParamStore::Projected {
                master: tensor(master, &dims)?,
                projection,
            },
        };
        stores.push((name.to_string(), store));
        Ok(())
    };
    let buffer = |name: &str, dims: Vec<usize>, data| {
        buffers.push((name.to_string(), tensor(data, &dims)?));
        Ok(())
    };
    walk(payload, param, buffer)?;

    // Apply parameters by name.
    let mut store_map: std::collections::HashMap<String, ParamStore> = stores.into_iter().collect();
    let mut first_err: Option<NnError> = None;
    let mut applied = 0usize;
    net.visit_params(&mut |p| {
        if first_err.is_some() {
            return;
        }
        match store_map.remove(p.name()) {
            Some(store) => match p.set_store(store) {
                Ok(()) => applied += 1,
                Err(e) => first_err = Some(e),
            },
            None => first_err = Some(bad(format!("checkpoint missing parameter `{}`", p.name()))),
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    if let Some(extra) = store_map.keys().next() {
        return Err(bad(format!("checkpoint has unknown parameter `{extra}`")));
    }
    // Apply buffers by name (missing buffers are an error; extra too).
    let mut buffer_map: std::collections::HashMap<String, Tensor> = buffers.into_iter().collect();
    let mut buf_err: Option<NnError> = None;
    net.visit_buffers(&mut |name, t| {
        if buf_err.is_some() {
            return;
        }
        match buffer_map.remove(name) {
            Some(saved) if saved.dims() == t.dims() => *t = saved,
            Some(saved) => {
                buf_err = Some(bad(format!(
                    "buffer `{name}` shape {:?} != {:?}",
                    saved.dims(),
                    t.dims()
                )))
            }
            // Buffers are optional: a params-only checkpoint leaves the
            // network's current statistics in place.
            None => {}
        }
    });
    if let Some(e) = buf_err {
        return Err(e);
    }
    if let Some(extra) = buffer_map.keys().next() {
        return Err(bad(format!("checkpoint has unknown buffer `{extra}`")));
    }
    Ok(())
}

/// What a structurally valid checkpoint blob claims to contain, as
/// reported by [`verify`] — framing facts only; no network is consulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Payload bytes (everything after the framed header).
    pub payload_len: usize,
    /// Parameter entries in the payload.
    pub params: usize,
    /// Buffer entries in the payload.
    pub buffers: usize,
}

/// Structurally validates a checkpoint blob **without a network**: framing
/// (magic, version, length, CRC) plus a full walk of every section
/// boundary — names, tags, dims, bitwidths, and the exact byte extent of
/// every data section — with nothing materialised into tensors.
///
/// This is the cheap first rung of an ingestion ladder: a server can
/// reject a truncated or bit-flipped upload before spending a network
/// construction on it. Passing [`verify`] does **not** guarantee [`load`]
/// succeeds (the blob may not match the target architecture, and value-
/// level checks like quantizer parameters and packed-word padding run at
/// load time); failing it guarantees `load` would fail too.
///
/// # Errors
///
/// Returns [`NnError::Corrupt`] for structural damage and
/// [`NnError::UnsupportedVersion`] for any version but 3 — the same typed
/// errors [`load`] produces, never a panic.
pub fn verify(blob: &[u8]) -> crate::Result<CheckpointSummary> {
    let payload = unframe(blob, MAGIC, VERSION)?;
    let (params, buffers) = walk(payload, |_, _, _| Ok(()), |_, _, _| Ok(()))?;
    Ok(CheckpointSummary {
        payload_len: payload.len(),
        params,
        buffers,
    })
}

fn bad(reason: impl Into<String>) -> NnError {
    NnError::BadConfig {
        reason: reason.into(),
    }
}

fn corrupt(reason: impl Into<String>) -> NnError {
    NnError::Corrupt {
        reason: reason.into(),
    }
}

/// Element count of `dims`, rejecting products that overflow `usize` (a
/// corrupt length field, not a real tensor).
fn checked_volume(dims: &[usize]) -> crate::Result<usize> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| corrupt("tensor volume overflows"))
}

/// One `(scale f32, zero i64)` pair of a quantised section.
const QUANTIZER_BYTES: usize = 12;

fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

/// Decodes a packed-word section: `⌈n·bits/64⌉` little-endian `u64` words,
/// validated (word count, zero padding, in-range codes) before any code is
/// trusted, then lifted back to the raw `q` grid domain.
fn decode_packed_words(bytes: &[u8], n: usize, bits: Bitwidth) -> crate::Result<Vec<i64>> {
    let data: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let packed = PackedCodes::from_data_words(data, n, bits)
        .map_err(|e| corrupt(format!("invalid packed code payload: {e}")))?;
    let half = 1i64 << (bits.get() - 1);
    Ok(packed
        .to_signed_vec()
        .into_iter()
        .map(|c| c + half)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, Mode, QuantScheme};
    use apt_tensor::rng::{normal, seeded};

    fn trained_net(scheme: &QuantScheme) -> Network {
        let mut net = models::cifarnet(4, 8, 0.25, scheme, &mut seeded(1)).unwrap();
        // Run a forward in train mode so BN statistics move off defaults.
        let x = normal(&[4, 3, 8, 8], 1.0, &mut seeded(2));
        let _ = net.forward(&x, Mode::Train).unwrap();
        net
    }

    fn outputs(net: &mut Network) -> Vec<f32> {
        let x = normal(&[2, 3, 8, 8], 1.0, &mut seeded(3));
        net.forward(&x, Mode::Eval).unwrap().into_vec()
    }

    /// The frame header as a literal — magic(4) + version(2) +
    /// payload_len(4) + crc(4) — independent of [`HEADER`], so a change to
    /// either shows.
    const V2_HEADER: usize = 14;

    /// A frozen v3 blob (`tests/fixtures/README.md` records the commit that
    /// wrote it, the constructor calls and the seeds), with the
    /// `integrity_digests()` this build gives the net it loads to. Digests
    /// identify content within one build; no format carries them.
    struct Fixture {
        name: &'static str,
        blob: &'static [u8],
        /// An architecturally identical net with different weights.
        fresh: fn() -> Network,
        digests: &'static [(&'static str, u64)],
        /// CRC-32 and length of the blob, and of `save_full` of the net it
        /// loads to, first recorded at 6aa81c8 — independent of the digest
        /// function, so re-pinning `digests` for a new hash cannot hide a
        /// reader or writer that moved.
        resaved: (u32, usize),
    }

    fn fresh_cifarnet() -> Network {
        models::cifarnet(4, 8, 0.25, &QuantScheme::float32(), &mut seeded(9)).unwrap()
    }

    fn fresh_mlp() -> Network {
        models::mlp("mlp", &[6, 10, 4], &QuantScheme::float32(), &mut seeded(9)).unwrap()
    }

    const FIXTURES: [Fixture; 4] = [
        // `trained_net(&QuantScheme::paper_apt())`: tags 0 and 1, BN buffers.
        Fixture {
            name: "cifarnet_apt",
            blob: include_bytes!("../tests/fixtures/cifarnet_apt.aptc"),
            fresh: fresh_cifarnet,
            digests: &[
                ("conv1.weight", 0xA2A709A839866713),
                ("bn1.gamma", 0xF9D20814D2F2E9D7),
                ("bn1.beta", 0x272735630FACA8ED),
                ("conv2.weight", 0x0F360667F99B21A1),
                ("bn2.gamma", 0x6B63BC2F4D4FF088),
                ("bn2.beta", 0xDAA2E999417FFA29),
                ("fc1.weight", 0x11E5E3816AEA20B1),
                ("fc1.bias", 0xA94F70934C55CB4D),
                ("fc2.weight", 0x6289BAADAD796BF2),
                ("fc2.bias", 0x844B4C0EAC959847),
            ],
            resaved: (0xDC85E470, 3632),
        },
        // Fully quantised, every parameter at its own width (2…32 bits), so
        // packed words are decoded at ten widths across all three tiers.
        Fixture {
            name: "cifarnet_mixed",
            blob: include_bytes!("../tests/fixtures/cifarnet_mixed.aptc"),
            fresh: fresh_cifarnet,
            digests: &[
                ("conv1.weight", 0x8DD0F1F084431D11),
                ("bn1.gamma", 0x68C91E733867801C),
                ("bn1.beta", 0xEC756840AEEA5F61),
                ("conv2.weight", 0x9CD309788288AC59),
                ("bn2.gamma", 0xC431FB99B8086A07),
                ("bn2.beta", 0x10C5A750B5F99E9B),
                ("fc1.weight", 0x3F1BDBEDB21E712B),
                ("fc1.bias", 0x621165C24ABD04A5),
                ("fc2.weight", 0x95ABB395B0A9C8D2),
                ("fc2.bias", 0x35A044D45463D722),
            ],
            resaved: (0x280AF85F, 2910),
        },
        // `trained_net(&QuantScheme::per_channel(6))`: tag 4.
        Fixture {
            name: "cifarnet_pc6",
            blob: include_bytes!("../tests/fixtures/cifarnet_pc6.aptc"),
            fresh: fresh_cifarnet,
            digests: &[
                ("conv1.weight", 0xDC5C4B9E3BFE05B4),
                ("bn1.gamma", 0xF9D20814D2F2E9D7),
                ("bn1.beta", 0x272735630FACA8ED),
                ("conv2.weight", 0x95396822965436C3),
                ("bn2.gamma", 0x6B63BC2F4D4FF088),
                ("bn2.beta", 0xDAA2E999417FFA29),
                ("fc1.weight", 0xEDF411AC74C311E9),
                ("fc1.bias", 0xA94F70934C55CB4D),
                ("fc2.weight", 0x7EF9824585806CBE),
                ("fc2.bias", 0x844B4C0EAC959847),
            ],
            resaved: (0xB232600C, 4320),
        },
        // The BN-free MLP the serve ingestion sweeps mutate.
        Fixture {
            name: "mlp_apt",
            blob: include_bytes!("../tests/fixtures/mlp_apt.aptc"),
            fresh: fresh_mlp,
            digests: &[
                ("fc0.weight", 0x59E72C331A3A74FA),
                ("fc0.bias", 0x29A9F8C514FE3C5A),
                ("fc1.weight", 0x18A07FADD4A04F98),
                ("fc1.bias", 0x844B4C0EAC959847),
            ],
            resaved: (0x2566E395, 280),
        },
    ];

    fn pinned(f: &Fixture) -> Vec<(String, u64)> {
        f.digests.iter().map(|&(n, d)| (n.to_string(), d)).collect()
    }

    /// The byte-at-a-time CRC-32 that [`crc32`] computed before it sliced
    /// by eight: the definition the fast one is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let crc = bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
            CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
        });
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_slicing_equals_the_bytewise_definition() {
        // Every length that leaves 0–7 tail bytes after 0–8 full blocks, at
        // every alignment of the slice's start.
        use rand::Rng;
        let mut r = seeded(17);
        let data: Vec<u8> = (0..64 + 8).map(|_| r.gen()).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
        let big: Vec<u8> = (0..100_003).map(|_| r.gen()).collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn crc32_continues_across_any_split() {
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = crc32(&bytes);
        for at in 0..=bytes.len() {
            let (a, b) = bytes.split_at(at);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {at}");
        }
    }

    #[test]
    fn roundtrip_preserves_eval_outputs_quantized() {
        let mut net = trained_net(&QuantScheme::paper_apt());
        let expected = outputs(&mut net);
        let blob = save_full(&mut net);
        let mut fresh =
            models::cifarnet(4, 8, 0.25, &QuantScheme::paper_apt(), &mut seeded(9)).unwrap();
        assert_ne!(outputs(&mut fresh), expected, "fresh net must differ");
        load(&mut fresh, &blob).unwrap();
        assert_eq!(
            outputs(&mut fresh),
            expected,
            "loaded net must match exactly"
        );
    }

    #[test]
    fn roundtrip_preserves_adapted_bitwidths() {
        let mut net = trained_net(&QuantScheme::paper_apt());
        // Simulate APT having adapted one layer to 11 bits.
        net.visit_params(&mut |p| {
            if p.name() == "conv1.weight" {
                p.set_bits(apt_quant::Bitwidth::new(11).unwrap()).unwrap();
            }
        });
        let blob = save_full(&mut net);
        let mut fresh =
            models::cifarnet(4, 8, 0.25, &QuantScheme::paper_apt(), &mut seeded(9)).unwrap();
        load(&mut fresh, &blob).unwrap();
        let mut bits = None;
        fresh.visit_params_ref(&mut |p| {
            if p.name() == "conv1.weight" {
                bits = p.bits();
            }
        });
        assert_eq!(bits.unwrap().get(), 11);
    }

    #[test]
    fn roundtrip_all_store_kinds() {
        for scheme in [
            QuantScheme::float32(),
            QuantScheme::master_copy(apt_quant::Bitwidth::new(5).unwrap()),
            QuantScheme::projected(Projection::Binary),
            QuantScheme::projected(Projection::Ternary),
        ] {
            let mut net = trained_net(&scheme);
            let expected = outputs(&mut net);
            let blob = save_full(&mut net);
            let mut fresh = models::cifarnet(4, 8, 0.25, &scheme, &mut seeded(7)).unwrap();
            load(&mut fresh, &blob).unwrap();
            assert_eq!(outputs(&mut fresh), expected);
        }
    }

    #[test]
    fn checkpoint_size_tracks_bitwidth_representation() {
        // Quantised checkpoints bit-pack codes, so a 6-bit model's blob is
        // far smaller than the fp32 one — the Figure 5 memory story on
        // flash.
        let mut q = trained_net(&QuantScheme::paper_apt());
        let mut f = trained_net(&QuantScheme::float32());
        let (bq, bf) = (save_full(&mut q), save_full(&mut f));
        assert!(
            bq.len() * 2 < bf.len(),
            "6-bit blob {} should be well under half the fp32 blob {}",
            bq.len(),
            bf.len()
        );
    }

    #[test]
    fn malformed_blobs_are_rejected() {
        let mut net = trained_net(&QuantScheme::float32());
        assert!(load(&mut net, b"nope").is_err());
        assert!(load(&mut net, b"APTC").is_err()); // truncated
        let mut blob = save_full(&mut net);
        blob[4] = 99; // bad version
        assert!(matches!(
            load(&mut net, &blob),
            Err(NnError::UnsupportedVersion { version: 99 })
        ));
        let mut blob2 = save_full(&mut net);
        let cut = blob2.len() / 2;
        blob2.truncate(cut);
        assert!(load(&mut net, &blob2).is_err());
    }

    #[test]
    fn frozen_fixture_is_the_net_it_records() {
        // The fixture is `trained_net(paper_apt)` as an earlier commit saved
        // it; rebuilding that net here must give the same eval outputs.
        let expected = outputs(&mut trained_net(&QuantScheme::paper_apt()));
        let mut fresh =
            models::cifarnet(4, 8, 0.25, &QuantScheme::paper_apt(), &mut seeded(9)).unwrap();
        load(&mut fresh, FIXTURES[0].blob).unwrap();
        assert_eq!(outputs(&mut fresh), expected);
    }

    #[test]
    fn frozen_fixtures_load_to_their_pinned_content() {
        // The compatibility regression: every frozen blob is the bytes its
        // README records, loads to the digests it was saved with, and
        // `save_full` of the loaded net writes it again byte for byte (BN
        // buffers included, which the digests skip).
        for f in &FIXTURES {
            assert_eq!((crc32(f.blob), f.blob.len()), f.resaved, "{}", f.name);
            let mut loaded = (f.fresh)();
            load(&mut loaded, f.blob).unwrap();
            assert_eq!(loaded.integrity_digests(), pinned(f), "{}", f.name);
            assert_eq!(save_full(&mut loaded), f.blob, "{}", f.name);
        }
    }

    #[test]
    fn fixtures_cover_float_quantized_and_per_channel_stores() {
        // What the fixtures are relied on to exercise in the reader: store
        // tags 0, 1 and 4, BN buffers, and a spread of code widths.
        let mut tags = std::collections::BTreeSet::new();
        let mut widths = std::collections::BTreeSet::new();
        let mut buffers = 0;
        for f in &FIXTURES {
            let mut net = (f.fresh)();
            load(&mut net, f.blob).unwrap();
            net.visit_params_ref(&mut |p| {
                tags.insert(match p.store() {
                    ParamStore::Float(_) => 0,
                    ParamStore::Quantized(q) if q.is_per_channel() => 4,
                    ParamStore::Quantized(_) => 1,
                    ParamStore::MasterCopy { .. } => 2,
                    ParamStore::Projected { .. } => 3,
                });
                widths.extend(p.bits().map(|b| b.get()));
            });
            buffers += verify(f.blob).unwrap().buffers;
            assert!(f.blob.len() <= 8192, "{}", f.name);
        }
        assert_eq!(tags.into_iter().collect::<Vec<_>>(), [0, 1, 4]);
        assert_eq!(
            widths.into_iter().collect::<Vec<_>>(),
            [2, 3, 5, 6, 7, 8, 11, 16, 17, 24, 32]
        );
        assert_eq!(buffers, 3 * 4, "three cifarnets, two BNs each");
    }

    #[test]
    fn older_versions_are_refused_by_version() {
        // What a v1 and a v2 blob begin with — `APTC`, then the version —
        // in front of a v3 payload: v1 had no length or CRC, v2 had v3's
        // frame. Both readers refuse them by version.
        let blob = FIXTURES[3].blob;
        let v1 = [&b"APTC\x01\x00"[..], &blob[V2_HEADER..]].concat();
        let mut v2 = blob.to_vec();
        v2[4] = 2;
        let mut net = (FIXTURES[3].fresh)();
        for (version, old) in [(1u16, v1), (2, v2)] {
            assert!(matches!(
                verify(&old),
                Err(NnError::UnsupportedVersion { version: v }) if v == version
            ));
            assert_eq!(
                load(&mut net, &old),
                Err(NnError::UnsupportedVersion { version })
            );
        }
    }

    /// A [`Sink`] that keeps the bytes and where each `u8` / `u32` field —
    /// every count, length, rank, dim, tag and bitwidth — lies.
    #[derive(Default)]
    struct Fields {
        bytes: Vec<u8>,
        sites: Vec<(usize, usize)>,
    }

    impl Sink for Fields {
        fn put(&mut self, bytes: &[u8]) {
            self.bytes.put(bytes);
        }
        fn put_f32s(&mut self, vals: &[f32]) {
            self.bytes.put_f32s(vals);
        }
        fn u8(&mut self, v: u8) {
            self.sites.push((self.bytes.len(), 1));
            self.bytes.u8(v);
        }
        fn u32(&mut self, v: u32) {
            self.sites.push((self.bytes.len(), 4));
            self.bytes.u32(v);
        }
    }

    #[test]
    fn structured_mutations_past_the_crc_never_panic() {
        // Each case rewrites one or two count, length, rank, dim, tag or
        // bitwidth fields of a fixture's payload as a hostile writer would,
        // and frames the result with a correct CRC: it reaches the section
        // walker, which the flip and truncation sweeps (stopped by the CRC)
        // never do. Every case is refused typed or loads, never panics, and
        // a blob `verify` refuses never loads.
        use rand::Rng;
        let mut r = seeded(36);
        let (mut refused, mut loaded) = (0, 0);
        for f in &FIXTURES {
            let mut net = (f.fresh)();
            load(&mut net, f.blob).unwrap();
            let mut fields = Fields::default();
            write_full(&mut fields, &mut net);
            assert_eq!(fields.bytes, f.blob[HEADER..], "{}", f.name);
            for _ in 0..400 {
                let mut payload = fields.bytes.clone();
                for _ in 0..r.gen_range(1..=2) {
                    let (at, width) = fields.sites[r.gen_range(0..fields.sites.len())];
                    let mut old = [0u8; 4];
                    old[..width].copy_from_slice(&payload[at..at + width]);
                    let old = u32::from_le_bytes(old);
                    let new = match r.gen_range(0..7) {
                        0 => 0,
                        1 => 1,
                        2 => old.wrapping_add(1),
                        3 => old.wrapping_sub(1),
                        4 => old.wrapping_mul(2),
                        5 => u32::MAX,
                        _ => r.gen(),
                    };
                    payload[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
                }
                let head = frame_head(MAGIC, VERSION, payload.len(), crc32(&payload));
                let blob = [&head[..], &payload].concat();
                let walked = verify(&blob);
                match load(&mut net, &blob) {
                    Ok(()) => {
                        assert!(walked.is_ok(), "{}: loaded what verify refused", f.name);
                        loaded += 1;
                    }
                    Err(e) => {
                        assert!(!e.to_string().contains("CRC"), "{}: {e}", f.name);
                        refused += 1;
                    }
                }
            }
        }
        assert!(
            refused > 1000 && loaded > 0,
            "{refused} refused, {loaded} loaded"
        );
    }

    fn b6() -> apt_quant::Bitwidth {
        apt_quant::Bitwidth::new(6).unwrap()
    }

    #[test]
    fn v3_quantized_payload_is_word_packed() {
        // Every byte of a v3 blob is accounted for: a `k`-bit tensor of `N`
        // codes costs exactly ⌈N·k/64⌉ words on flash.
        let mut net = trained_net(&QuantScheme::paper_apt());
        let mut expect = V2_HEADER + 8;
        net.visit_params_ref(&mut |p| {
            expect += 4 + p.name().len() + 1 + 4 + 4 * p.dims().len();
            expect += match p.store() {
                ParamStore::Float(t) => 4 * t.len(),
                ParamStore::Quantized(q) => {
                    1 + 4 + 8 + (q.store().len() * q.bits().get() as usize).div_ceil(64) * 8
                }
                other => panic!("paper_apt has no {other:?} store"),
            };
        });
        net.visit_buffers(&mut |name, t| {
            expect += 4 + name.len() + 4 + 4 * t.dims().len() + 4 * t.len();
        });
        assert_eq!(save_full(&mut net).len(), expect);
    }

    #[test]
    fn v3_code_section_matches_a_hand_computed_golden() {
        // Grid codes [0, 31, 63] at k = 6 centre to [−32, −1, 31]: fields
        // 0x20 | 0x3F << 6 | 0x1F << 12 = 0x1FFE0, one little-endian word.
        let mut net = models::mlp("m", &[3, 1], &QuantScheme::paper_apt(), &mut seeded(0)).unwrap();
        let quantizer = AffineQuantizer::from_range(-1.0, 1.0, b6()).unwrap();
        net.visit_params(&mut |p| {
            if p.name() == "fc0.weight" {
                let q = QuantizedTensor::from_parts(vec![0, 31, 63], vec![1, 3], quantizer);
                p.set_store(ParamStore::Quantized(q.unwrap())).unwrap();
            }
        });
        let blob = save_full(&mut net);
        // header | counts | name | tag | rank + 2 dims | bits | scale | zero
        let at = V2_HEADER + 8 + (4 + "fc0.weight".len()) + 1 + 12 + 1 + 4 + 8;
        assert_eq!(blob[at..at + 8], [0xE0, 0xFF, 0x01, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        // The v3 framing must catch any single corrupted byte: header
        // damage breaks the magic/version/length checks, payload damage
        // breaks the CRC. Errors only — never a panic, never a silent
        // half-load.
        let mut net = trained_net(&QuantScheme::paper_apt());
        let blob = save_full(&mut net);
        let mut target =
            models::cifarnet(4, 8, 0.25, &QuantScheme::paper_apt(), &mut seeded(9)).unwrap();
        for i in 0..blob.len() {
            let mut hurt = blob.clone();
            hurt[i] ^= 0x10;
            assert!(
                load(&mut target, &hurt).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let mut net = trained_net(&QuantScheme::paper_apt());
        let blob = save_full(&mut net);
        let mut target =
            models::cifarnet(4, 8, 0.25, &QuantScheme::paper_apt(), &mut seeded(9)).unwrap();
        for cut in 0..blob.len() {
            assert!(
                load(&mut target, &blob[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn verify_counts_every_fixture_and_walks_every_store_kind() {
        for f in &FIXTURES {
            let mut buffers = 0usize;
            (f.fresh)().visit_buffers(&mut |_, _| buffers += 1);
            let s = verify(f.blob).unwrap();
            assert_eq!(s.params, f.digests.len(), "{}", f.name);
            assert_eq!(s.buffers, buffers, "{}", f.name);
            assert_eq!(s.payload_len, f.blob.len() - V2_HEADER, "{}", f.name);
        }
        // Every store kind walks cleanly.
        for scheme in [
            QuantScheme::float32(),
            QuantScheme::master_copy(b6()),
            QuantScheme::projected(Projection::Binary),
            QuantScheme::fully_quantized(b6()),
        ] {
            let mut net = trained_net(&scheme);
            verify(&save_full(&mut net)).unwrap();
        }
    }

    #[test]
    fn verify_rejects_what_load_rejects() {
        let mut net = trained_net(&QuantScheme::paper_apt());
        let blob = save_full(&mut net);
        assert!(verify(b"nope").is_err());
        assert!(verify(b"APTC").is_err());
        let mut vbad = blob.clone();
        vbad[4] = 99;
        assert!(matches!(
            verify(&vbad),
            Err(NnError::UnsupportedVersion { version: 99 })
        ));
        // Any single byte flip breaks the v3 framing for verify too.
        for i in 0..blob.len() {
            let mut hurt = blob.clone();
            hurt[i] ^= 0x10;
            assert!(verify(&hurt).is_err(), "flip at byte {i}");
        }
        for cut in 0..blob.len() {
            assert!(verify(&blob[..cut]).is_err(), "truncation to {cut}");
        }
        // Bytes after the last section, correctly framed: a payload grown
        // by a few bytes with its length and CRC fields to match. It may
        // pass neither function.
        let mlp = &FIXTURES[3];
        let payload = [&mlp.blob[V2_HEADER..], &[7u8; 3]].concat();
        let mut grown = mlp.blob[..6].to_vec();
        grown.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        grown.extend_from_slice(&crc32(&payload).to_le_bytes());
        grown.extend_from_slice(&payload);
        let mut net = (mlp.fresh)();
        for result in [verify(&grown).map(drop), load(&mut net, &grown)] {
            assert!(
                matches!(&result, Err(NnError::Corrupt { reason }) if reason.contains("trailing")),
                "{result:?}"
            );
        }
    }

    #[test]
    fn a_one_channel_per_channel_store_keeps_tag_4_and_its_digest_word() {
        // `fc0.weight` is `[1, 3]`: it calibrates to the same codes and
        // `(S, Z)` either way, and the form is still a recorded fact of the
        // blob and of the digest.
        let (mut tags, mut digests) = (Vec::new(), Vec::new());
        for scheme in [QuantScheme::paper_apt(), QuantScheme::per_channel(b6())] {
            let mut net = models::mlp("m", &[3, 1], &scheme, &mut seeded(0)).unwrap();
            let blob = save_full(&mut net);
            tags.push(blob[V2_HEADER + 8 + 4 + "fc0.weight".len()]);
            digests.push(net.integrity_digests()[0].1);
            let mut back = models::mlp("m", &[3, 1], &scheme, &mut seeded(1)).unwrap();
            load(&mut back, &blob).unwrap();
            assert_eq!(save_full(&mut back), blob);
        }
        assert_eq!(tags, [1, 4]);
        assert_ne!(digests[0], digests[1]);
    }

    #[test]
    fn a_store_of_the_right_length_and_the_wrong_shape_is_refused() {
        // `fc0.weight` is `[8, 4]` in the blob and `[4, 8]` in the target:
        // 32 elements either way, and under per-channel calibration 8
        // groups of 4 against 4 groups of 8.
        for scheme in [QuantScheme::float32(), QuantScheme::per_channel(b6())] {
            let mut source = models::mlp("m", &[4, 8], &scheme, &mut seeded(0)).unwrap();
            let mut target = models::mlp("m", &[8, 4], &scheme, &mut seeded(0)).unwrap();
            let err = load(&mut target, &save_full(&mut source)).unwrap_err();
            assert!(
                matches!(&err, NnError::BadConfig { reason } if reason.contains("fc0.weight")
                    && reason.contains("[8, 4]") && reason.contains("[4, 8]")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn architecture_mismatch_is_detected() {
        let mut net = trained_net(&QuantScheme::float32());
        let blob = save_full(&mut net);
        // Different architecture: MLP has different parameter names.
        let mut other =
            models::mlp("m", &[4, 4, 2], &QuantScheme::float32(), &mut seeded(5)).unwrap();
        assert!(load(&mut other, &blob).is_err());
        // Same layer names but different widths ⇒ shape error.
        let mut wider =
            models::cifarnet(4, 8, 0.5, &QuantScheme::float32(), &mut seeded(6)).unwrap();
        assert!(load(&mut wider, &blob).is_err());
    }

    #[test]
    fn bn_running_stats_are_restored() {
        let mut net = trained_net(&QuantScheme::float32());
        let mut saved_means = Vec::new();
        net.visit_buffers(&mut |name, t| {
            if name.ends_with("running_mean") {
                saved_means.push((name.to_string(), t.clone()));
            }
        });
        assert!(!saved_means.is_empty());
        let blob = save_full(&mut net);
        let mut fresh =
            models::cifarnet(4, 8, 0.25, &QuantScheme::float32(), &mut seeded(8)).unwrap();
        load(&mut fresh, &blob).unwrap();
        fresh.visit_buffers(&mut |name, t| {
            if let Some((_, expected)) = saved_means.iter().find(|(n, _)| n == name) {
                assert_eq!(t.data(), expected.data(), "{name}");
            }
        });
    }
}
