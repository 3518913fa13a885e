//! Model checkpointing: serialise a trained network's parameters (in their
//! native representation — integer codes stay integer codes) and batch-norm
//! running statistics to a compact binary blob, and load it back into an
//! architecturally identical network.
//!
//! This is the deployment path the paper's edge scenario needs: a model
//! trained with APT is shipped *at its adapted per-layer bitwidths*, so the
//! on-flash footprint matches the training-memory footprint Figure 5
//! reports. On-device flash is also where power cuts corrupt bytes, so the
//! current format (v3) frames the payload with its length and a CRC32: a
//! truncated or bit-flipped blob is detected and rejected with a typed
//! error instead of being half-applied to the network.
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
//! [`save`] and [`save_full`] are the only writers and write v3 only.
//! Version 2 blobs (same framing, codes bit-packed at byte granularity in
//! the raw `q` domain) and version 1 blobs (v2's payload with no
//! `payload_len`/`crc32` fields) are read-only: [`load`] and [`verify`]
//! still accept them, pinned by the frozen files under `tests/fixtures/`.
//! Versions newer than 3 yield [`NnError::UnsupportedVersion`]. The CRC is
//! the IEEE 802.3 polynomial, exposed as [`crc32`] so other on-flash
//! formats (the trainer's state file) can share it.
//!
//! Quantised payloads are bit-packed, so a 6-bit layer costs about 6 bits
//! per weight on flash — the checkpoint size *is* the Figure 5 memory
//! story.

use crate::{Network, NnError, ParamStore, Projection};
use apt_quant::{AffineQuantizer, Bitwidth, PackedCodes, QuantizedTensor};
use apt_tensor::Tensor;

const MAGIC: &[u8; 4] = b"APTC";
const VERSION: u16 = 3;

/// Smallest possible per-parameter encoding (name len + tag + rank), used
/// to sanity-check counts against the bytes actually present before any
/// allocation is sized from them.
const MIN_PARAM_BYTES: usize = 4 + 1 + 4;
/// Smallest possible per-buffer encoding (name len + rank).
const MIN_BUFFER_BYTES: usize = 4 + 4;

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
///
/// Shared by the model checkpoint and the trainer-state file so a single
/// integrity scheme covers everything written to flash.
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

/// Framed header: magic, version, payload length, CRC32.
const HEADER: usize = MAGIC.len() + 2 + 4 + 4;

/// Starts a frame in `out` (emptied, its capacity kept): room for the
/// header and `payload_len` bytes reserved in one step, the header written
/// with its length and CRC fields blank, then the two section counts.
fn begin_frame(out: &mut Vec<u8>, payload_len: usize) {
    out.clear();
    out.reserve(HEADER + payload_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    // Payload length and CRC, then param count and buffer count: all
    // patched once known.
    out.extend_from_slice(&[0u8; 8 + 8]);
}

/// Closes the frame [`begin_frame`] opened: the section counts, then the
/// payload's length and CRC32 into the header in front of it — the payload
/// is checksummed where it was written, not copied behind a header.
fn end_frame(out: &mut [u8], params: u32, buffers: u32) {
    out[HEADER..HEADER + 4].copy_from_slice(&params.to_le_bytes());
    out[HEADER + 4..HEADER + 8].copy_from_slice(&buffers.to_le_bytes());
    let (header, payload) = out.split_at_mut(HEADER);
    header[6..10].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[10..14].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Serialises `net`'s parameters (no buffers) to a checkpoint blob.
pub fn save(net: &Network) -> Vec<u8> {
    let mut out = Vec::new();
    let len = 8 + params_len(net);
    begin_frame(&mut out, len);
    let params = write_params(net, &mut out);
    debug_assert_eq!(out.len(), HEADER + len, "the blob was sized exactly");
    end_frame(&mut out, params, 0);
    out
}

/// Bytes [`write_params`] appends for `net` — computed, not written, so
/// the blob is allocated once at its final size.
fn params_len(net: &Network) -> usize {
    let mut len = 0;
    net.visit_params_ref(&mut |p| {
        let n = p.len();
        len += section_head_len(p.name(), p.dims())
            + 1
            + match p.store() {
                ParamStore::Float(_) => 4 * n,
                ParamStore::Quantized(q) => {
                    let groups = q.quantizers().len();
                    let count = if q.is_per_channel() { 4 } else { 0 };
                    let words = (n * q.bits().get() as usize).div_ceil(64);
                    1 + count + QUANTIZER_BYTES * groups + 8 * words
                }
                ParamStore::MasterCopy { .. } | ParamStore::Projected { .. } => 1 + 4 * n,
            };
    });
    len
}

/// Name (length-prefixed) and dims (rank-prefixed) of a section.
fn section_head_len(name: &str, dims: &[usize]) -> usize {
    4 + name.len() + 4 + 4 * dims.len()
}

/// Appends every parameter's section and returns how many there were. Each
/// store is serialised where it lives: code sections stream out of the tier
/// ([`apt_quant::CodeStore::write_packed_le`]), nothing is cloned first.
fn write_params(net: &Network, out: &mut Vec<u8>) -> u32 {
    let mut count = 0u32;
    net.visit_params_ref(&mut |p| {
        count += 1;
        let out = &mut *out;
        write_str(out, p.name());
        match p.store() {
            ParamStore::Float(t) => {
                out.push(0);
                write_dims(out, p.dims());
                write_f32s(out, t.data());
            }
            ParamStore::Quantized(q) => {
                out.push(if q.is_per_channel() { 4 } else { 1 });
                write_dims(out, p.dims());
                out.push(q.bits().get() as u8);
                if q.is_per_channel() {
                    out.extend_from_slice(&(q.quantizers().len() as u32).to_le_bytes());
                }
                for quantizer in q.quantizers() {
                    out.extend_from_slice(&quantizer.eps().to_le_bytes());
                    out.extend_from_slice(&quantizer.zero_point().to_le_bytes());
                }
                q.store().write_packed_le(out);
            }
            ParamStore::MasterCopy { master, bits } => {
                out.push(2);
                write_dims(out, p.dims());
                out.push(bits.get() as u8);
                write_f32s(out, master.data());
            }
            ParamStore::Projected { master, projection } => {
                out.push(3);
                write_dims(out, p.dims());
                out.push(match projection {
                    Projection::Binary => 0,
                    Projection::Ternary => 1,
                });
                write_f32s(out, master.data());
            }
        }
    });
    count
}

/// Serialises `net` including batch-norm running statistics (requires
/// `&mut` because buffer visitation is mutable by trait design).
pub fn save_full(net: &mut Network) -> Vec<u8> {
    let mut out = Vec::new();
    save_full_into(net, &mut out);
    out
}

/// [`save_full`] into a buffer the caller keeps: `out` is emptied and
/// refilled, so a trainer snapshotting every step reuses one allocation.
pub fn save_full_into(net: &mut Network, out: &mut Vec<u8>) {
    let mut len = 8 + params_len(net);
    net.visit_buffers(&mut |name, t| len += section_head_len(name, t.dims()) + 4 * t.len());
    begin_frame(out, len);
    let params = write_params(net, out);
    let mut buffers = 0u32;
    net.visit_buffers(&mut |name, t| {
        buffers += 1;
        write_str(out, name);
        write_dims(out, t.dims());
        write_f32s(out, t.data());
    });
    debug_assert_eq!(out.len(), HEADER + len, "the blob was sized exactly");
    end_frame(out, params, buffers);
}

/// Restores a checkpoint produced by [`save_full`] (or [`save`]) into an
/// architecturally identical network: parameters are matched by name and
/// replaced with their stored representation; buffers likewise. The
/// current v3 format and legacy v1/v2 blobs are all accepted.
///
/// # Errors
///
/// Returns [`NnError::Corrupt`] for a truncated, bit-flipped, or otherwise
/// structurally invalid blob, [`NnError::UnsupportedVersion`] for a version
/// newer than this build writes, and [`NnError::BadConfig`] for a valid
/// blob that does not match the network (unknown parameter names, shape
/// mismatches).
pub fn load(net: &mut Network, blob: &[u8]) -> crate::Result<()> {
    let (version, payload) = unframe(blob)?;
    load_payload(net, payload, version)
}

/// Checks the framing — magic, version, and for v2/v3 the declared length
/// and CRC — and returns the version with the payload it frames. [`load`]
/// and [`verify`] both start here, so neither can accept a frame the other
/// refuses.
fn unframe(blob: &[u8]) -> crate::Result<(u16, &[u8])> {
    let mut r = Reader { blob, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(corrupt("not an APTC checkpoint"));
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
    match version {
        // v1: the payload follows the version directly, unprotected.
        1 => Ok((version, &blob[r.pos..])),
        2 | 3 => {
            let len = r.read_u32()? as usize;
            let expected_crc = r.read_u32()?;
            let payload = r.take(len)?;
            if r.remaining() != 0 {
                return Err(corrupt("trailing bytes after checkpoint payload"));
            }
            if crc32(payload) != expected_crc {
                return Err(corrupt("CRC32 mismatch (truncated or bit-flipped blob)"));
            }
            Ok((version, payload))
        }
        other => Err(NnError::UnsupportedVersion { version: other }),
    }
}

/// The data of one parameter section as [`walk`] hands it over, by store
/// tag: header fields parsed and bounded, data as the bytes it occupies —
/// [`verify`] drops them, [`load`] decodes them.
enum StoreBytes<'a> {
    /// Tag 0: `f32 × volume`.
    Float(&'a [u8]),
    /// Tags 1 and 4: `(scale f32, zero i64)` pairs, then the code section
    /// in the layout of the blob's version.
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
    version: u16,
    mut param: impl FnMut(&'a str, Vec<usize>, StoreBytes<'a>) -> crate::Result<()>,
    mut buffer: impl FnMut(&'a str, Vec<usize>, &'a [u8]) -> crate::Result<()>,
) -> crate::Result<(usize, usize)> {
    let mut r = Reader {
        blob: payload,
        pos: 0,
    };
    let param_count = r.read_u32()? as usize;
    let buffer_count = r.read_u32()? as usize;
    // Callers size allocations from the counts, so bound them by what the
    // bytes could possibly encode before trusting them.
    if param_count > r.remaining() / MIN_PARAM_BYTES
        || buffer_count > r.remaining() / MIN_BUFFER_BYTES
    {
        return Err(corrupt("section count exceeds available bytes"));
    }
    for _ in 0..param_count {
        let name = r.read_str()?;
        let tag = r.read_u8()?;
        let dims = r.read_dims()?;
        let volume = checked_volume(&dims)?;
        let store = match tag {
            0 => StoreBytes::Float(r.take_f32s(volume)?),
            1 | 4 => {
                let bits = Bitwidth::new(u32::from(r.read_u8()?))?;
                let groups = if tag == 4 { r.read_u32()? as usize } else { 1 };
                // The pairs must exist before anything is sized from
                // their count.
                if groups > r.remaining() / QUANTIZER_BYTES {
                    return Err(corrupt("quantiser count exceeds available bytes"));
                }
                StoreBytes::Quantized {
                    per_channel: tag == 4,
                    bits,
                    quantizers: r.take(groups * QUANTIZER_BYTES)?,
                    codes: r.take_codes(volume, bits, version)?,
                }
            }
            2 => StoreBytes::MasterCopy {
                bits: Bitwidth::new(u32::from(r.read_u8()?))?,
                master: r.take_f32s(volume)?,
            },
            3 => StoreBytes::Projected {
                projection: match r.read_u8()? {
                    0 => Projection::Binary,
                    1 => Projection::Ternary,
                    other => return Err(corrupt(&format!("unknown projection {other}"))),
                },
                master: r.take_f32s(volume)?,
            },
            other => return Err(corrupt(&format!("unknown store tag {other}"))),
        };
        param(name, dims, store)?;
    }
    for _ in 0..buffer_count {
        let name = r.read_str()?;
        let dims = r.read_dims()?;
        let data = r.take_f32s(checked_volume(&dims)?)?;
        buffer(name, dims, data)?;
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after checkpoint sections"));
    }
    Ok((param_count, buffer_count))
}

/// Decodes and applies the (already integrity-checked) payload section.
/// `version` selects the quantised-code layout (≥3: packed words).
fn load_payload(net: &mut Network, payload: &[u8], version: u16) -> crate::Result<()> {
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
                let mut pairs = Reader {
                    blob: quantizers,
                    pos: 0,
                };
                let quantizers = (0..quantizers.len() / QUANTIZER_BYTES)
                    .map(|_| {
                        let (scale, zero) = (pairs.read_f32()?, pairs.read_i64()?);
                        Ok(AffineQuantizer::from_parts(scale, zero, bits)?)
                    })
                    .collect::<crate::Result<Vec<_>>>()?;
                let volume = dims.iter().product();
                let codes = if version >= 3 {
                    decode_packed_words(codes, volume, bits)?
                } else {
                    decode_legacy_codes(codes, volume, bits.get())
                };
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
    walk(payload, version, param, buffer)?;

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
            None => first_err = Some(bad(&format!("checkpoint missing parameter `{}`", p.name()))),
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    if let Some(extra) = store_map.keys().next() {
        return Err(bad(&format!("checkpoint has unknown parameter `{extra}`")));
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
                buf_err = Some(bad(&format!(
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
        return Err(bad(&format!("checkpoint has unknown buffer `{extra}`")));
    }
    Ok(())
}

/// What a structurally valid checkpoint blob claims to contain, as
/// reported by [`verify`] — framing facts only; no network is consulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Format version the blob declares: 3 for anything this build wrote,
    /// 1 or 2 for a legacy blob (read-only).
    pub version: u16,
    /// Payload bytes (everything after the framed header).
    pub payload_len: usize,
    /// Parameter entries in the payload.
    pub params: usize,
    /// Buffer entries in the payload.
    pub buffers: usize,
}

/// Structurally validates a checkpoint blob **without a network**: framing
/// (magic, version, length, CRC for v2/v3) plus a full walk of every
/// section boundary — names, tags, dims, bitwidths, and the exact byte
/// extent of every data section — with nothing materialised into tensors.
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
/// [`NnError::UnsupportedVersion`] for unknown versions — the same typed
/// errors [`load`] produces, never a panic.
pub fn verify(blob: &[u8]) -> crate::Result<CheckpointSummary> {
    let (version, payload) = unframe(blob)?;
    let (params, buffers) = walk(payload, version, |_, _, _| Ok(()), |_, _, _| Ok(()))?;
    Ok(CheckpointSummary {
        version,
        payload_len: payload.len(),
        params,
        buffers,
    })
}

fn bad(reason: &str) -> NnError {
    NnError::BadConfig {
        reason: reason.to_string(),
    }
}

fn corrupt(reason: &str) -> NnError {
    NnError::Corrupt {
        reason: reason.to_string(),
    }
}

/// Element count of `dims`, rejecting products that overflow `usize` (a
/// corrupt length field, not a real tensor).
fn checked_volume(dims: &[usize]) -> crate::Result<usize> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| corrupt("tensor volume overflows"))
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn write_dims(out: &mut Vec<u8>, dims: &[usize]) {
    out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
}

/// Appends `vals` little-endian, a block at a time rather than four bytes
/// at a time. Shared, like [`crc32`], with the trainer-state writer.
pub fn write_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    const BLOCK: usize = 64;
    out.reserve(4 * vals.len());
    let mut bytes = [0u8; 4 * BLOCK];
    for block in vals.chunks(BLOCK) {
        for (dst, v) in bytes.chunks_exact_mut(4).zip(block) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&bytes[..4 * block.len()]);
    }
}

struct Reader<'a> {
    blob: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.blob.len() - self.pos
    }
    fn take(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        // `remaining` cannot overflow (pos ≤ len); `pos + n` could.
        if n > self.remaining() {
            return Err(corrupt("truncated checkpoint"));
        }
        let s = &self.blob[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn read_u8(&mut self) -> crate::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn read_u32(&mut self) -> crate::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn read_i64(&mut self) -> crate::Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn read_f32(&mut self) -> crate::Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn read_str(&mut self) -> crate::Result<&'a str> {
        let len = self.read_u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("invalid utf8 in checkpoint"))
    }
    fn read_dims(&mut self) -> crate::Result<Vec<usize>> {
        let rank = self.read_u32()? as usize;
        if rank > 8 {
            return Err(corrupt("implausible tensor rank in checkpoint"));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.read_u32()? as usize);
        }
        Ok(dims)
    }
    /// The bytes of an `f32 × n` section.
    fn take_f32s(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        let byte_len = n
            .checked_mul(4)
            .ok_or_else(|| corrupt("f32 section length overflows"))?;
        self.take(byte_len)
    }
    /// The bytes of a section of `n` codes at `bits`: v3 packed words or
    /// the legacy byte-granular bitstream.
    fn take_codes(&mut self, n: usize, bits: Bitwidth, version: u16) -> crate::Result<&'a [u8]> {
        let total_bits = n
            .checked_mul(bits.get() as usize)
            .ok_or_else(|| corrupt("packed code section length overflows"))?;
        self.take(if version >= 3 {
            total_bits.div_ceil(64) * 8
        } else {
            total_bits.div_ceil(8)
        })
    }
}

/// One `(scale f32, zero i64)` pair of a quantised section.
const QUANTIZER_BYTES: usize = 12;

fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

/// Decodes a legacy v1/v2 code section: `n` raw grid codes of `bits` bits
/// each, LSB-first in a byte-granular bitstream (nothing writes this layout
/// any more). `bytes` is exactly the section ([`Reader::take_codes`]).
fn decode_legacy_codes(bytes: &[u8], n: usize, bits: u32) -> Vec<i64> {
    let mut codes = Vec::with_capacity(n);
    let mut bit_pos = 0usize;
    for _ in 0..n {
        let mut value = 0u64;
        let mut filled = 0usize;
        let mut remaining = bits as usize;
        while remaining > 0 {
            let byte = bit_pos / 8;
            let offset = bit_pos % 8;
            let take = remaining.min(8 - offset);
            let chunk = (u64::from(bytes[byte]) >> offset) & ((1u64 << take) - 1);
            value |= chunk << filled;
            filled += take;
            bit_pos += take;
            remaining -= take;
        }
        codes.push(value as i64);
    }
    codes
}

/// Decodes a v3 packed-word section: `⌈n·bits/64⌉` little-endian `u64`
/// words, validated (word count, zero padding, in-range codes) before any
/// code is trusted, then lifted back to the raw `q` grid domain.
fn decode_packed_words(bytes: &[u8], n: usize, bits: Bitwidth) -> crate::Result<Vec<i64>> {
    let data: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let packed = PackedCodes::from_data_words(data, n, bits)
        .map_err(|e| corrupt(&format!("invalid packed code payload: {e}")))?;
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

    /// Framed header (v2 and v3) is magic(4) + version(2) + payload_len(4)
    /// + crc(4).
    const V2_HEADER: usize = 14;

    /// A net saved as v1 and v2 by the last commit that could write them
    /// (`tests/fixtures/README.md` records the commit, constructor calls
    /// and seeds), with the `integrity_digests()` this build gives it.
    /// Digests identify content within one build; no format carries them.
    struct Fixture {
        name: &'static str,
        v1: &'static [u8],
        v2: &'static [u8],
        /// An architecturally identical net with different weights.
        fresh: fn() -> Network,
        /// Input batch the net takes.
        input: &'static [usize],
        digests: &'static [(&'static str, u64)],
        /// CRC-32 and length of `save_full` of the loaded net, computed at
        /// 6aa81c8 (PR 17) — a record of what the legacy readers load that
        /// does not pass through the digest, so re-pinning `digests` for a
        /// new hash cannot hide a reader or writer that moved.
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
            v1: include_bytes!("../tests/fixtures/cifarnet_apt.v1.aptc"),
            v2: include_bytes!("../tests/fixtures/cifarnet_apt.v2.aptc"),
            fresh: fresh_cifarnet,
            input: &[2, 3, 8, 8],
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
        // the byte-granular v2 bitstream is decoded at ten widths.
        Fixture {
            name: "cifarnet_mixed",
            v1: include_bytes!("../tests/fixtures/cifarnet_mixed.v1.aptc"),
            v2: include_bytes!("../tests/fixtures/cifarnet_mixed.v2.aptc"),
            fresh: fresh_cifarnet,
            input: &[2, 3, 8, 8],
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
        // `trained_net(&QuantScheme::per_channel(6))`: tag 4 under v1/v2.
        Fixture {
            name: "cifarnet_pc6",
            v1: include_bytes!("../tests/fixtures/cifarnet_pc6.v1.aptc"),
            v2: include_bytes!("../tests/fixtures/cifarnet_pc6.v2.aptc"),
            fresh: fresh_cifarnet,
            input: &[2, 3, 8, 8],
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
            v1: include_bytes!("../tests/fixtures/mlp_apt.v1.aptc"),
            v2: include_bytes!("../tests/fixtures/mlp_apt.v2.aptc"),
            fresh: fresh_mlp,
            input: &[2, 6],
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
    fn legacy_v1_blobs_still_load() {
        // The fixture is `trained_net(paper_apt)` as the parent commit saved
        // it; rebuilding that net here must give the same eval outputs.
        let expected = outputs(&mut trained_net(&QuantScheme::paper_apt()));
        let mut fresh =
            models::cifarnet(4, 8, 0.25, &QuantScheme::paper_apt(), &mut seeded(9)).unwrap();
        load(&mut fresh, FIXTURES[0].v1).unwrap();
        assert_eq!(outputs(&mut fresh), expected);
    }

    #[test]
    fn legacy_v1_and_v2_blobs_match_v3_exactly() {
        // The upgrade regression: every frozen legacy blob loads to the
        // digests it was saved with, and a `save_full` → `load` of that net
        // (now v3) keeps them. Once `load` returns, the version is gone.
        // Digests skip BN buffers; the eval forward covers them.
        for f in &FIXTURES {
            let x = normal(f.input, 1.0, &mut seeded(3));
            let eval = |net: &mut Network| net.forward(&x, Mode::Eval).unwrap().into_vec();
            let mut per_version = Vec::new();
            for blob in [f.v1, f.v2] {
                let mut loaded = (f.fresh)();
                load(&mut loaded, blob).unwrap();
                assert_eq!(loaded.integrity_digests(), pinned(f), "{}", f.name);
                let v3 = save_full(&mut loaded);
                assert_eq!((crc32(&v3), v3.len()), f.resaved, "{}", f.name);
                assert_eq!(verify(&v3).unwrap().version, VERSION);
                let mut resaved = (f.fresh)();
                load(&mut resaved, &v3).unwrap();
                assert_eq!(resaved.integrity_digests(), pinned(f), "{}", f.name);
                let out = eval(&mut loaded);
                assert_eq!(eval(&mut resaved), out, "{}", f.name);
                per_version.push((out, v3));
            }
            assert_eq!(per_version[0], per_version[1], "{}: v1 vs v2", f.name);
        }
    }

    #[test]
    fn fixtures_cover_float_quantized_and_per_channel_stores() {
        // What the fixtures are relied on to exercise in the legacy reader:
        // store tags 0, 1 and 4, BN buffers, and a spread of code widths.
        let mut tags = std::collections::BTreeSet::new();
        let mut widths = std::collections::BTreeSet::new();
        let mut buffers = 0;
        for f in &FIXTURES {
            let mut net = (f.fresh)();
            load(&mut net, f.v2).unwrap();
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
            buffers += verify(f.v2).unwrap().buffers;
            assert!(f.v1.len() <= 8192 && f.v2.len() <= 8192, "{}", f.name);
        }
        assert_eq!(tags.into_iter().collect::<Vec<_>>(), [0, 1, 4]);
        assert_eq!(
            widths.into_iter().collect::<Vec<_>>(),
            [2, 3, 5, 6, 7, 8, 11, 16, 17, 24, 32]
        );
        assert_eq!(buffers, 3 * 4, "three cifarnets, two BNs each");
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
                    1 + 4 + 8 + (q.len() * q.bits().get() as usize).div_ceil(64) * 8
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
        let blob = save(&net);
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
    fn v1_mutations_error_but_never_panic() {
        // v1 has no CRC, so some mutations may load "successfully" with
        // altered values — the guarantee is merely that no length-field
        // damage can cause a slice panic or runaway allocation.
        for f in &FIXTURES {
            let mut target = (f.fresh)();
            for i in 0..f.v1.len() {
                for flip in [0x01u8, 0xFF] {
                    let mut hurt = f.v1.to_vec();
                    hurt[i] ^= flip;
                    let _ = load(&mut target, &hurt);
                }
            }
            for cut in 0..f.v1.len() {
                let _ = load(&mut target, &f.v1[..cut]);
            }
        }
    }

    #[test]
    fn verify_accepts_every_readable_version() {
        for f in &FIXTURES {
            let mut net = (f.fresh)();
            load(&mut net, f.v2).unwrap();
            let mut buffers = 0usize;
            net.visit_buffers(&mut |_, _| buffers += 1);
            let v3 = save_full(&mut net);
            for (version, blob) in [(1u16, f.v1), (2, f.v2), (3, &v3[..])] {
                let s = verify(blob).unwrap();
                assert_eq!(s.version, version, "{}", f.name);
                assert_eq!(s.params, f.digests.len(), "{}", f.name);
                assert_eq!(s.buffers, buffers, "{}", f.name);
                assert!(s.payload_len > 0);
            }
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
        // v1 (no CRC): structural damage still never panics.
        for f in &FIXTURES {
            for i in 0..f.v1.len() {
                let mut hurt = f.v1.to_vec();
                hurt[i] ^= 0xFF;
                let _ = verify(&hurt);
            }
            for cut in 0..f.v1.len() {
                let _ = verify(&f.v1[..cut]);
            }
        }
        // Bytes after the last section, correctly framed: garbage appended
        // to an unframed v1 blob, and a v2 / v3 payload grown by a few bytes
        // with its length and CRC fields to match. Neither may pass either
        // function.
        let mlp = &FIXTURES[3];
        let mut padded = vec![[mlp.v1, &[7u8; 5]].concat()];
        let mut net = (mlp.fresh)();
        load(&mut net, mlp.v2).unwrap();
        for framed in [mlp.v2.to_vec(), save_full(&mut net)] {
            let payload = [&framed[V2_HEADER..], &[7u8; 3]].concat();
            let mut grown = framed[..6].to_vec();
            grown.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            grown.extend_from_slice(&crc32(&payload).to_le_bytes());
            grown.extend_from_slice(&payload);
            padded.push(grown);
        }
        for (version, blob) in padded.iter().enumerate() {
            for result in [verify(blob).map(drop), load(&mut net, blob)] {
                assert!(
                    matches!(&result, Err(NnError::Corrupt { reason }) if reason.contains("trailing")),
                    "v{}: {result:?}",
                    version + 1
                );
            }
        }
    }

    #[test]
    fn a_one_channel_per_channel_store_keeps_tag_4_and_its_digest_word() {
        // `fc0.weight` is `[1, 3]`: it calibrates to the same codes and
        // `(S, Z)` either way, and the form is still a recorded fact of the
        // blob and of the digest.
        let (mut tags, mut digests) = (Vec::new(), Vec::new());
        for scheme in [QuantScheme::paper_apt(), QuantScheme::per_channel(b6())] {
            let net = models::mlp("m", &[3, 1], &scheme, &mut seeded(0)).unwrap();
            let blob = save(&net);
            tags.push(blob[V2_HEADER + 8 + 4 + "fc0.weight".len()]);
            digests.push(net.integrity_digests()[0].1);
            let mut back = models::mlp("m", &[3, 1], &scheme, &mut seeded(1)).unwrap();
            load(&mut back, &blob).unwrap();
            assert_eq!(save(&back), blob);
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
            let source = models::mlp("m", &[4, 8], &scheme, &mut seeded(0)).unwrap();
            let mut target = models::mlp("m", &[8, 4], &scheme, &mut seeded(0)).unwrap();
            let err = load(&mut target, &save(&source)).unwrap_err();
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

    #[test]
    fn params_only_params_count_matches() {
        let net = trained_net(&QuantScheme::paper_apt());
        let blob = save(&net);
        assert_eq!(&blob[..4], MAGIC);
        let count = u32::from_le_bytes(blob[V2_HEADER..V2_HEADER + 4].try_into().unwrap());
        let mut expected = 0u32;
        net.visit_params_ref(&mut |_| expected += 1);
        assert_eq!(count, expected);
    }
}
