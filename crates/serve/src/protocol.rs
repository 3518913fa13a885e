//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! tag: u8 | len: u32 LE | payload: len bytes
//! ```
//!
//! For requests the tag is the **op** ([`OP_INFER`], [`OP_STATS`],
//! [`OP_HEALTH`], [`OP_INFER_MODEL`], [`OP_RELOAD`]); for responses it is
//! the **status** ([`STATUS_OK`] and the error statuses, which mirror the
//! [`ServeError`] backpressure ladder). Infer payloads are a
//! `count: u32 LE` followed by `count` little-endian `f32`s; named-model
//! infer payloads prepend a versioned model-id header
//! ([`MODEL_INFER_V1`]); stats/health/reload payloads are UTF-8 JSON.
//! Error responses carry the rendered error message as UTF-8.
//!
//! Frames are capped at [`MAX_FRAME`] so a corrupt or hostile length
//! prefix cannot make the server allocate unboundedly.

use crate::ServeError;
use std::io::{Read, Write};

/// Run one sample through the default model; payload is `count + f32s`.
pub const OP_INFER: u8 = 1;
/// Fetch the serving counters as JSON; empty payload.
pub const OP_STATS: u8 = 2;
/// Liveness/identity check; empty payload.
pub const OP_HEALTH: u8 = 3;
/// Run one sample through a **named** model; payload is the versioned
/// model-infer encoding ([`MODEL_INFER_V1`]). Servers predating the
/// model fleet answer `STATUS_BAD_REQUEST` (unknown op) — the original
/// [`OP_INFER`] frame layout is untouched, so old clients keep working.
pub const OP_INFER_MODEL: u8 = 4;
/// Rescan the server's model directory, ingesting new or changed
/// checkpoints; empty payload, JSON report response.
pub const OP_RELOAD: u8 = 5;

/// Success; payload depends on the op.
pub const STATUS_OK: u8 = 0;
/// Shed by admission control ([`ServeError::Overloaded`]).
pub const STATUS_OVERLOADED: u8 = 1;
/// Malformed request ([`ServeError::BadRequest`] / protocol errors).
pub const STATUS_BAD_REQUEST: u8 = 2;
/// Server is draining ([`ServeError::ShuttingDown`]).
pub const STATUS_SHUTTING_DOWN: u8 = 3;
/// Anything else ([`ServeError::Internal`], model or I/O failures).
pub const STATUS_INTERNAL: u8 = 4;
/// The request's deadline expired while it was queued
/// ([`ServeError::DeadlineExceeded`]); the work was shed, never executed.
pub const STATUS_DEADLINE_EXCEEDED: u8 = 5;
/// The named model is not resident — unknown, evicted under the
/// resident-bytes budget, or rejected at ingestion
/// ([`ServeError::ModelUnavailable`]).
pub const STATUS_MODEL_UNAVAILABLE: u8 = 6;

/// Largest accepted frame payload (16 MiB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Maps a runtime error onto its wire status byte.
pub fn status_for(err: &ServeError) -> u8 {
    match err {
        ServeError::Overloaded { .. } => STATUS_OVERLOADED,
        ServeError::BadRequest { .. } | ServeError::Protocol { .. } => STATUS_BAD_REQUEST,
        ServeError::ShuttingDown => STATUS_SHUTTING_DOWN,
        ServeError::DeadlineExceeded { .. } => STATUS_DEADLINE_EXCEEDED,
        ServeError::ModelUnavailable { .. } => STATUS_MODEL_UNAVAILABLE,
        // `UnrecognizedStatus` only exists on the client side (a response
        // was already received); a server never produces it, so it folds
        // into the internal bucket defensively.
        ServeError::Io(_)
        | ServeError::Nn(_)
        | ServeError::Internal { .. }
        | ServeError::UnrecognizedStatus { .. } => STATUS_INTERNAL,
    }
}

/// Writes one frame.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for an oversized payload and I/O
/// errors from the writer.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() > MAX_FRAME {
        return Err(ServeError::Protocol {
            reason: format!("outgoing frame of {} bytes exceeds cap", payload.len()),
        });
    }
    // One header write: on a `TCP_NODELAY` socket every `write_all` is a
    // segment of its own.
    w.write_all(&frame_header(tag, payload.len()))?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// The 5-byte frame header: tag, then the payload length little-endian.
fn frame_header(tag: u8, len: usize) -> [u8; 5] {
    let l = (len as u32).to_le_bytes();
    [tag, l[0], l[1], l[2], l[3]]
}

/// Starts a frame in `out` (tag plus a length placeholder) so the payload
/// can be appended in place; [`end_frame`] patches the length. Returns the
/// mark `end_frame` needs.
pub(crate) fn begin_frame(out: &mut Vec<u8>, tag: u8) -> usize {
    out.extend_from_slice(&frame_header(tag, 0));
    out.len()
}

/// Closes the frame whose payload starts at `mark`, truncating it to
/// [`MAX_FRAME`] defensively like [`encode_frame`].
pub(crate) fn end_frame(out: &mut Vec<u8>, mark: usize) {
    out.truncate(out.len().min(mark + MAX_FRAME));
    let len = ((out.len() - mark) as u32).to_le_bytes();
    out[mark - 4..mark].copy_from_slice(&len);
}

/// Encodes one frame into a byte vector (for buffered, non-blocking
/// writers that flush incrementally). The payload is truncated to
/// [`MAX_FRAME`] defensively; runtime responses are orders of magnitude
/// smaller.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let payload = &payload[..payload.len().min(MAX_FRAME)];
    let mut out = Vec::with_capacity(5 + payload.len());
    out.extend_from_slice(&frame_header(tag, payload.len()));
    out.extend_from_slice(payload);
    out
}

/// Reads one frame, enforcing [`MAX_FRAME`].
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for an oversized length prefix and
/// I/O errors (including clean EOF) from the reader.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ServeError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let tag = header[0];
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME {
        return Err(ServeError::Protocol {
            reason: format!("incoming frame claims {len} bytes, cap is {MAX_FRAME}"),
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((tag, payload))
}

/// An incremental, non-blocking frame decoder for the event-loop server.
///
/// Bytes arrive in whatever fragments the kernel hands out — a hostile or
/// slow client may deliver one byte at a time, or three frames glued
/// together. [`feed`](FrameDecoder::feed) appends raw bytes;
/// [`try_frame`](FrameDecoder::try_frame) yields complete frames without
/// ever blocking, returning `Ok(None)` (*need more bytes*) on a torn read.
///
/// An oversized length prefix is rejected the moment the 5-byte header is
/// visible — **before** any payload is buffered — and the decoder latches
/// the error: the stream offset can no longer be trusted, so every
/// subsequent call reports the same violation and the connection must be
/// closed.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: Option<String>,
}

/// Consumed-prefix threshold past which the decoder compacts its buffer.
const COMPACT_AT: usize = 64 * 1024;

impl FrameDecoder {
    /// A fresh decoder with nothing buffered.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the socket. Cheap; no parsing happens here.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` while a frame has started arriving but is not yet complete —
    /// the condition a slowloris read-deadline watches.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Tries to extract the next complete frame.
    ///
    /// Returns `Ok(Some((tag, payload)))` for a complete frame,
    /// `Ok(None)` when more bytes are needed (torn/short read).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] as soon as a header claims more
    /// than [`MAX_FRAME`] bytes; the error is latched and re-reported on
    /// every subsequent call.
    pub fn try_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
        Ok(self
            .try_frame_ref()?
            .map(|(tag, payload)| (tag, payload.to_vec())))
    }

    /// [`try_frame`](Self::try_frame) without the copy: the payload is a
    /// slice of the decoder's own buffer, valid until the next call that
    /// takes `&mut self`.
    ///
    /// # Errors
    ///
    /// As [`try_frame`](Self::try_frame).
    pub fn try_frame_ref(&mut self) -> Result<Option<(u8, &[u8])>, ServeError> {
        if let Some(reason) = &self.poisoned {
            return Err(ServeError::Protocol {
                reason: reason.clone(),
            });
        }
        // The previous frame's bytes were still on loan when it was
        // returned; they are reclaimed here.
        self.compact();
        if self.buffered() < 5 {
            return Ok(None);
        }
        let h = &self.buf[self.pos..self.pos + 5];
        let tag = h[0];
        let len = u32::from_le_bytes([h[1], h[2], h[3], h[4]]) as usize;
        if len > MAX_FRAME {
            let reason = format!("incoming frame claims {len} bytes, cap is {MAX_FRAME}");
            self.poisoned = Some(reason.clone());
            return Err(ServeError::Protocol { reason });
        }
        if self.buffered() < 5 + len {
            return Ok(None);
        }
        let start = self.pos + 5;
        self.pos = start + len;
        Ok(Some((tag, &self.buf[start..start + len])))
    }

    /// Reclaims the consumed prefix once it is large (or the buffer is
    /// fully drained) so long-lived connections do not accrete memory.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Encodes a float vector as `count: u32 LE` + little-endian `f32`s.
pub fn encode_f32s(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 * values.len());
    put_f32s(&mut out, values);
    out
}

/// Appends the [`encode_f32s`] encoding of `values` to `out`.
pub(crate) fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(4 + 4 * values.len());
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a float vector written by [`encode_f32s`].
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] when the count disagrees with the
/// payload length.
pub fn decode_f32s(payload: &[u8]) -> Result<Vec<f32>, ServeError> {
    let mut out = Vec::new();
    decode_f32s_into(payload, &mut out)?;
    Ok(out)
}

/// [`decode_f32s`] into a caller-owned buffer, which is cleared first and
/// left empty on error.
pub(crate) fn decode_f32s_into(payload: &[u8], out: &mut Vec<f32>) -> Result<(), ServeError> {
    out.clear();
    if payload.len() < 4 {
        return Err(ServeError::Protocol {
            reason: format!("float payload of {} bytes has no count", payload.len()),
        });
    }
    let count = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
    let body = &payload[4..];
    if body.len() != count * 4 {
        return Err(ServeError::Protocol {
            reason: format!(
                "float payload count {count} disagrees with {} body bytes",
                body.len()
            ),
        });
    }
    out.extend(
        body.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    Ok(())
}

/// Version byte of the current [`OP_INFER_MODEL`] payload encoding:
///
/// ```text
/// ver: u8 = 1 | id_len: u8 | id: utf8 | count: u32 LE | f32 × count
/// ```
///
/// The version leads the payload so the layout can evolve without a new
/// op: decoders reject versions they do not know with a typed error instead
/// of misparsing.
pub const MODEL_INFER_V1: u8 = 1;

/// Longest accepted model id on the wire (also bounds registry keys).
pub const MAX_MODEL_ID: usize = 255;

/// Appends a named-model inference request ([`MODEL_INFER_V1`]) to `out`.
/// An over-long model id is truncated at [`MAX_MODEL_ID`] bytes
/// defensively; the server validates ids at publish time, so a truncated
/// id simply fails lookup with a typed status.
pub(crate) fn put_model_infer(out: &mut Vec<u8>, model: &str, sample: &[f32]) {
    let id = &model.as_bytes()[..model.len().min(MAX_MODEL_ID)];
    out.push(MODEL_INFER_V1);
    out.push(id.len() as u8);
    out.extend_from_slice(id);
    put_f32s(out, sample);
}

/// Splits an [`OP_INFER_MODEL`] payload into the model id and the float
/// section ([`encode_f32s`] layout, not yet validated), both borrowed.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for an unknown payload version, a
/// truncated id section or a non-UTF-8 id.
pub(crate) fn split_model_infer(payload: &[u8]) -> Result<(&str, &[u8]), ServeError> {
    if payload.len() < 2 {
        return Err(ServeError::Protocol {
            reason: format!(
                "model-infer payload of {} bytes has no header",
                payload.len()
            ),
        });
    }
    let ver = payload[0];
    if ver != MODEL_INFER_V1 {
        return Err(ServeError::Protocol {
            reason: format!("unknown model-infer payload version {ver} (this build speaks 1)"),
        });
    }
    let id_len = payload[1] as usize;
    if payload.len() < 2 + id_len {
        return Err(ServeError::Protocol {
            reason: format!(
                "model-infer id claims {id_len} bytes, only {} present",
                payload.len() - 2
            ),
        });
    }
    let id = std::str::from_utf8(&payload[2..2 + id_len]).map_err(|_| ServeError::Protocol {
        reason: "model id is not UTF-8".to_string(),
    })?;
    Ok((id, &payload[2 + id_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_INFER, &[1, 2, 3]).unwrap();
        let (tag, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(tag, OP_INFER);
        assert_eq!(payload, vec![1, 2, 3]);
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        let values = vec![0.0f32, -1.5, f32::MIN_POSITIVE, 1e20, -0.0];
        let decoded = decode_f32s(&encode_f32s(&values)).unwrap();
        assert_eq!(values.len(), decoded.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_f32s(&encode_f32s(&[])).unwrap().is_empty());
    }

    #[test]
    fn corrupt_payloads_are_protocol_errors() {
        assert!(matches!(
            decode_f32s(&[1, 0]),
            Err(ServeError::Protocol { .. })
        ));
        let mut bad = encode_f32s(&[1.0, 2.0]);
        bad.truncate(bad.len() - 1);
        assert!(decode_f32s(&bad).is_err());
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let mut hdr = vec![OP_INFER];
        hdr.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut hdr.as_slice()),
            Err(ServeError::Protocol { .. })
        ));
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, OP_INFER, &huge).is_err());
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_STATS, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn incremental_decoder_handles_torn_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_INFER, &encode_f32s(&[1.0, -2.5])).unwrap();
        write_frame(&mut wire, OP_STATS, &[]).unwrap();

        // Byte at a time: NeedMore until each frame completes.
        let mut d = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in &wire {
            d.feed(&[b]);
            while let Some(f) = d.try_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, OP_INFER);
        assert_eq!(decode_f32s(&frames[0].1).unwrap(), vec![1.0, -2.5]);
        assert_eq!(frames[1], (OP_STATS, Vec::new()));
        assert!(!d.mid_frame());

        // All at once: identical result.
        let mut d2 = FrameDecoder::new();
        d2.feed(&wire);
        assert_eq!(d2.try_frame().unwrap().unwrap().0, OP_INFER);
        assert_eq!(d2.try_frame().unwrap().unwrap().0, OP_STATS);
        assert!(d2.try_frame().unwrap().is_none());
    }

    #[test]
    fn decoder_rejects_oversized_header_before_buffering() {
        let mut d = FrameDecoder::new();
        let mut hdr = vec![OP_INFER];
        hdr.extend_from_slice(&(u32::MAX).to_le_bytes());
        d.feed(&hdr);
        assert!(matches!(d.try_frame(), Err(ServeError::Protocol { .. })));
        // Latched: the stream offset is untrusted from here on.
        d.feed(&[0; 16]);
        assert!(matches!(d.try_frame(), Err(ServeError::Protocol { .. })));
    }

    #[test]
    fn decoder_mid_frame_tracks_partial_input() {
        let mut d = FrameDecoder::new();
        assert!(!d.mid_frame());
        d.feed(&[OP_INFER, 8, 0, 0]); // 4 of 5 header bytes
        assert!(d.try_frame().unwrap().is_none());
        assert!(d.mid_frame());
        d.feed(&[0]); // header complete, claims 8 payload bytes
        assert!(d.try_frame().unwrap().is_none());
        d.feed(&[0; 8]);
        let (tag, payload) = d.try_frame().unwrap().unwrap();
        assert_eq!((tag, payload.len()), (OP_INFER, 8));
        assert!(!d.mid_frame());
    }

    #[test]
    fn status_mapping_covers_ladder() {
        assert_eq!(
            status_for(&ServeError::Overloaded { queue_depth: 1 }),
            STATUS_OVERLOADED
        );
        assert_eq!(status_for(&ServeError::ShuttingDown), STATUS_SHUTTING_DOWN);
        assert_eq!(
            status_for(&ServeError::DeadlineExceeded { waited_us: 9 }),
            STATUS_DEADLINE_EXCEEDED
        );
        assert_eq!(
            status_for(&ServeError::BadRequest { reason: "x".into() }),
            STATUS_BAD_REQUEST
        );
        assert_eq!(
            status_for(&ServeError::Internal { reason: "x".into() }),
            STATUS_INTERNAL
        );
        assert_eq!(
            status_for(&ServeError::ModelUnavailable {
                model: "m".into(),
                reason: "evicted".into()
            }),
            STATUS_MODEL_UNAVAILABLE
        );
        assert_eq!(
            status_for(&ServeError::UnrecognizedStatus {
                status: 200,
                reason: "x".into()
            }),
            STATUS_INTERNAL
        );
    }

    /// The two halves as the client and the server use them.
    fn encode_model_infer(model: &str, sample: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        put_model_infer(&mut out, model, sample);
        out
    }

    fn decode_model_infer(payload: &[u8]) -> Result<(String, Vec<f32>), ServeError> {
        let (id, floats) = split_model_infer(payload)?;
        Ok((id.to_string(), decode_f32s(floats)?))
    }

    #[test]
    fn model_infer_round_trip() {
        let sample = vec![1.5f32, -0.25, 0.0, f32::MIN_POSITIVE];
        let payload = encode_model_infer("edge-07", &sample);
        let (id, decoded) = decode_model_infer(&payload).unwrap();
        assert_eq!(id, "edge-07");
        assert_eq!(
            decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            sample.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Empty id and empty sample are legal encodings.
        let (id, decoded) = decode_model_infer(&encode_model_infer("", &[])).unwrap();
        assert!(id.is_empty() && decoded.is_empty());
    }

    #[test]
    fn model_infer_rejects_malformed_payloads_typed() {
        // No header.
        assert!(matches!(
            decode_model_infer(&[]),
            Err(ServeError::Protocol { .. })
        ));
        // Unknown payload version.
        assert!(matches!(
            decode_model_infer(&[9, 0, 0, 0, 0, 0]),
            Err(ServeError::Protocol { .. })
        ));
        // Id length overruns the payload.
        assert!(matches!(
            decode_model_infer(&[MODEL_INFER_V1, 10, b'a']),
            Err(ServeError::Protocol { .. })
        ));
        // Non-UTF-8 id.
        assert!(matches!(
            decode_model_infer(&[MODEL_INFER_V1, 1, 0xFF, 0, 0, 0, 0]),
            Err(ServeError::Protocol { .. })
        ));
        // Torn float section.
        let mut torn = encode_model_infer("m", &[1.0, 2.0]);
        torn.truncate(torn.len() - 3);
        assert!(matches!(
            decode_model_infer(&torn),
            Err(ServeError::Protocol { .. })
        ));
        // Over-long id truncates instead of panicking.
        let long = "x".repeat(4000);
        let (id, _) = decode_model_infer(&encode_model_infer(&long, &[])).unwrap();
        assert_eq!(id.len(), MAX_MODEL_ID);
    }
}
