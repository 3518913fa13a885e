//! Fuzz-style property tests for the incremental frame decoder: however a
//! byte stream is fragmented — byte-at-a-time, random chunking, frames
//! glued together, or truncated mid-frame — the decoder must recover
//! exactly the frames a blocking reader would, never block, and reject an
//! oversized length prefix the instant the header is visible.

use apt_serve::protocol::{self, FrameDecoder, MAX_FRAME};
use apt_serve::ServeError;
use proptest::prelude::*;

/// Collects every complete frame a decoder finds in `wire` when fed in the
/// given chunk sizes.
fn decode_chunked(wire: &[u8], chunks: &[usize]) -> Result<Vec<(u8, Vec<u8>)>, ServeError> {
    let mut d = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut pos = 0;
    let mut ci = 0;
    while pos < wire.len() {
        let step = chunks[ci % chunks.len()].clamp(1, wire.len() - pos);
        ci += 1;
        d.feed(&wire[pos..pos + step]);
        pos += step;
        while let Some(f) = d.try_frame()? {
            frames.push(f);
        }
    }
    Ok(frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any fragmentation of a valid multi-frame stream yields exactly the
    /// frames that were written, in order.
    #[test]
    fn any_fragmentation_decodes_identically(
        payload_lens in prop::collection::vec(0usize..200, 1..6),
        tags in prop::collection::vec(0u8..8, 6..7),
        chunks in prop::collection::vec(1usize..17, 1..8),
        fill in 0u8..255,
    ) {
        let mut wire = Vec::new();
        let mut want = Vec::new();
        for (i, &len) in payload_lens.iter().enumerate() {
            let tag = tags[i.min(tags.len() - 1)];
            let payload = vec![fill.wrapping_add(i as u8); len];
            wire.extend(protocol::encode_frame(tag, &payload));
            want.push((tag, payload));
        }

        let got = decode_chunked(&wire, &chunks).unwrap();
        prop_assert_eq!(got, want.clone());

        // Byte-at-a-time is the degenerate slow-client case.
        let got1 = decode_chunked(&wire, &[1]).unwrap();
        prop_assert_eq!(got1, want);
    }

    /// Truncating a stream anywhere mid-frame yields the complete frames
    /// before the cut and `NeedMore` (never a block, never a bogus frame).
    #[test]
    fn truncated_streams_need_more(
        len in 0usize..200,
        cut in 0usize..100,
        chunk in 1usize..9,
    ) {
        let mut wire = Vec::new();
        wire.extend(protocol::encode_frame(1, &vec![0xAB; len]));
        let cut = cut % wire.len().max(1);
        let truncated = &wire[..cut];

        let mut d = FrameDecoder::new();
        for piece in truncated.chunks(chunk) {
            d.feed(piece);
        }
        // cut < full frame, so no complete frame may appear.
        prop_assert!(d.try_frame().unwrap().is_none());
        prop_assert_eq!(d.mid_frame(), cut > 0);

        // Feeding the remainder completes the frame bit-exactly.
        d.feed(&wire[cut..]);
        let (tag, payload) = d.try_frame().unwrap().unwrap();
        prop_assert_eq!(tag, 1);
        prop_assert_eq!(payload, vec![0xAB; len]);
    }

    /// An oversized length prefix is rejected as soon as the 5-byte header
    /// is complete — before any payload is buffered — and the error
    /// latches.
    #[test]
    fn oversized_prefix_rejected_at_header(
        over in 1u64..u64::from(u32::MAX) - MAX_FRAME as u64,
        tag in 0u8..255,
        chunk in 1usize..6,
    ) {
        let len = (MAX_FRAME as u64 + over) as u32;
        let mut header = vec![tag];
        header.extend_from_slice(&len.to_le_bytes());

        let mut d = FrameDecoder::new();
        for piece in header.chunks(chunk) {
            d.feed(piece);
        }
        let rejected = matches!(d.try_frame(), Err(ServeError::Protocol { .. }));
        prop_assert!(rejected);
        prop_assert_eq!(d.buffered(), 5, "no payload may be buffered");
        // Latched: more bytes don't resurrect the stream.
        d.feed(&[0; 64]);
        let still_rejected = matches!(d.try_frame(), Err(ServeError::Protocol { .. }));
        prop_assert!(still_rejected);
    }
}
