//! Stream framing: length-prefixed, checksummed message envelopes and
//! an incremental reader that reassembles them across partial reads.
//!
//! The simulator hands whole [`Message`] values between machines, so
//! nothing in the repo ever had to cope with how messages actually
//! arrive off a socket: in arbitrary chunks, split anywhere — in the
//! middle of the length prefix, the header, the payload — and, on a
//! bad day, with flipped bits. This module is the wire envelope the
//! real multi-process backend (`jade-net`) uses:
//!
//! ```text
//! [magic u16][len u32][crc32 u32][header 18 bytes][payload len-18 bytes]
//! ```
//!
//! All envelope fields are big-endian regardless of either machine's
//! [`crate::DataLayout`] — the payload inside is still encoded in the
//! *sender's* layout and converted by the receiver via
//! [`Message::try_unpack`], exactly as in the simulator. The CRC-32
//! covers header plus payload, so a flipped bit anywhere in the frame
//! surfaces as a typed [`DecodeError`] instead of a garbage message.
//!
//! [`FrameReader`] is deliberately *incremental*: feed it whatever
//! `read()` returned and ask for complete frames. A short read leaves
//! the partial frame buffered; a corrupt frame poisons the reader
//! (stream framing is lost — the only safe recovery on a stream
//! transport is to drop the connection; `jade-net`'s coordinator then
//! declares the worker at its other end dead).

use bytes::Bytes;

use crate::error::{DecodeError, DecodeResult};
use crate::message::{Message, HEADER_WIRE_BYTES};

/// Sentinel that starts every frame; a desynchronized or corrupted
/// stream is detected here first.
pub const FRAME_MAGIC: u16 = 0x4A46; // "JF"

/// Envelope bytes preceding the header: magic + length + checksum.
pub const FRAME_PREFIX_BYTES: usize = 2 + 4 + 4;

/// Upper bound on `len` (header + payload). A corrupted length prefix
/// must not drive an absurd buffer reservation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Serialize `msg` into one self-delimiting wire frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let header = msg.header_bytes();
    let len = HEADER_WIRE_BYTES + msg.payload.len();
    let mut out = Vec::with_capacity(FRAME_PREFIX_BYTES + len);
    out.extend_from_slice(&FRAME_MAGIC.to_be_bytes());
    out.extend_from_slice(&(len as u32).to_be_bytes());
    let mut crc = 0xFFFF_FFFFu32;
    for &b in header.iter().chain(msg.payload.iter()) {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    out.extend_from_slice(&(crc ^ 0xFFFF_FFFF).to_be_bytes());
    out.extend_from_slice(&header);
    out.extend_from_slice(&msg.payload);
    out
}

/// Incremental frame reassembly: buffers arbitrary byte chunks and
/// yields complete [`Message`]s as they form.
///
/// ```
/// use jade_transport::{frame::{encode_frame, FrameReader}, DataLayout, Message, MsgKind};
/// let msg = Message::pack(MsgKind::Control, 0, 1, 7, DataLayout::sparc(), &42u64);
/// let wire = encode_frame(&msg);
/// let mut rd = FrameReader::new();
/// // Feed the frame one byte at a time: no message until the last byte.
/// for &b in &wire[..wire.len() - 1] {
///     rd.push(&[b]);
///     assert!(rd.next_frame().unwrap().is_none());
/// }
/// rd.push(&wire[wire.len() - 1..]);
/// let got = rd.next_frame().unwrap().expect("complete frame");
/// assert_eq!(got.try_unpack::<u64>().unwrap(), 42);
/// ```
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    /// First decode error encountered; sticky, because a stream that
    /// has lost framing cannot be re-synchronized safely.
    poisoned: Option<DecodeError>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extract the next complete frame, if one has fully arrived.
    ///
    /// * `Ok(Some(msg))` — a complete, checksum-valid frame.
    /// * `Ok(None)` — the buffered bytes form only a partial frame.
    /// * `Err(_)` — the stream is corrupt (bad magic, absurd length,
    ///   checksum mismatch). The error is sticky: every later call
    ///   returns it again.
    pub fn next_frame(&mut self) -> DecodeResult<Option<Message>> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        match self.try_next() {
            Ok(m) => Ok(m),
            Err(e) => {
                self.poisoned = Some(e);
                Err(e)
            }
        }
    }

    /// Called at end-of-stream: a cleanly closed connection must not
    /// end mid-frame. Returns [`DecodeError::Truncated`] when bytes of
    /// an incomplete frame remain buffered.
    pub fn finish(&self) -> DecodeResult<()> {
        let rem = self.pending_bytes();
        if rem == 0 || self.poisoned.is_some() {
            Ok(())
        } else {
            let needed = if rem < FRAME_PREFIX_BYTES {
                FRAME_PREFIX_BYTES
            } else {
                let avail = &self.buf[self.pos..];
                let len = u32::from_be_bytes([avail[2], avail[3], avail[4], avail[5]]) as usize;
                FRAME_PREFIX_BYTES + len
            };
            Err(DecodeError::Truncated { needed, remaining: rem })
        }
    }

    fn try_next(&mut self) -> DecodeResult<Option<Message>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_PREFIX_BYTES {
            return Ok(None);
        }
        let magic = u16::from_be_bytes([avail[0], avail[1]]);
        if magic != FRAME_MAGIC {
            return Err(DecodeError::BadMagic { got: magic });
        }
        let len = u32::from_be_bytes([avail[2], avail[3], avail[4], avail[5]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(DecodeError::LengthOverflow { len });
        }
        if len < HEADER_WIRE_BYTES {
            return Err(DecodeError::BadHeader { got: len, want: HEADER_WIRE_BYTES });
        }
        if avail.len() < FRAME_PREFIX_BYTES + len {
            return Ok(None);
        }
        let want_crc = u32::from_be_bytes([avail[6], avail[7], avail[8], avail[9]]);
        let body = &avail[FRAME_PREFIX_BYTES..FRAME_PREFIX_BYTES + len];
        let got_crc = crc32(body);
        if got_crc != want_crc {
            return Err(DecodeError::CorruptFrame { want: want_crc, got: got_crc });
        }
        let header = Message::parse_header(&body[..HEADER_WIRE_BYTES])?;
        let payload = Bytes::copy_from_slice(&body[HEADER_WIRE_BYTES..]);
        self.pos += FRAME_PREFIX_BYTES + len;
        // Compact once the consumed prefix dominates the buffer, so a
        // long-lived connection does not grow its buffer unboundedly.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(Message { header, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;
    use crate::message::MsgKind;

    fn msg(seq: u64, v: u64) -> Message {
        Message::pack(MsgKind::TaskShip, 0, 1, seq, DataLayout::sparc(), &v)
    }

    #[test]
    fn crc_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn whole_frame_roundtrips() {
        let m = msg(3, 99);
        let wire = encode_frame(&m);
        let mut rd = FrameReader::new();
        rd.push(&wire);
        let got = rd.next_frame().unwrap().expect("one frame");
        assert_eq!(got.header, m.header);
        assert_eq!(got.try_unpack::<u64>().unwrap(), 99);
        assert!(rd.next_frame().unwrap().is_none());
        rd.finish().expect("clean eof");
    }

    #[test]
    fn frames_reassemble_across_any_split() {
        let wire: Vec<u8> = (0..4).flat_map(|i| encode_frame(&msg(i, i * 10))).collect();
        for chunk in [1usize, 2, 3, 7, 11, wire.len()] {
            let mut rd = FrameReader::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                rd.push(piece);
                while let Some(m) = rd.next_frame().unwrap() {
                    got.push(m.try_unpack::<u64>().unwrap());
                }
            }
            assert_eq!(got, vec![0, 10, 20, 30], "chunk size {chunk}");
            rd.finish().expect("clean eof");
        }
    }

    #[test]
    fn truncated_stream_is_reported_at_eof() {
        let wire = encode_frame(&msg(1, 5));
        let mut rd = FrameReader::new();
        rd.push(&wire[..wire.len() - 2]);
        assert!(rd.next_frame().unwrap().is_none(), "partial frame yields nothing");
        let err = rd.finish().unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }), "{err}");
    }

    #[test]
    fn bad_magic_poisons_the_reader() {
        let mut wire = encode_frame(&msg(1, 5));
        wire[0] ^= 0xFF;
        let mut rd = FrameReader::new();
        rd.push(&wire);
        let err = rd.next_frame().unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }), "{err}");
        // Sticky: the reader does not pretend to resynchronize.
        assert_eq!(rd.next_frame().unwrap_err(), err);
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let mut wire = encode_frame(&msg(1, 5));
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let mut rd = FrameReader::new();
        rd.push(&wire);
        let err = rd.next_frame().unwrap_err();
        assert!(matches!(err, DecodeError::CorruptFrame { .. }), "{err}");
    }

    #[test]
    fn absurd_length_is_an_overflow_not_an_allocation() {
        let mut wire = encode_frame(&msg(1, 5));
        wire[2] = 0xFF; // high byte of len
        let mut rd = FrameReader::new();
        rd.push(&wire);
        let err = rd.next_frame().unwrap_err();
        assert!(matches!(err, DecodeError::LengthOverflow { .. }), "{err}");
    }

    #[test]
    fn under_length_frame_is_a_bad_header() {
        let m = msg(1, 5);
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC.to_be_bytes());
        wire.extend_from_slice(&4u32.to_be_bytes()); // < HEADER_WIRE_BYTES
        wire.extend_from_slice(&crc32(&m.header_bytes()[..4]).to_be_bytes());
        wire.extend_from_slice(&m.header_bytes()[..4]);
        let mut rd = FrameReader::new();
        rd.push(&wire);
        let err = rd.next_frame().unwrap_err();
        assert!(matches!(err, DecodeError::BadHeader { .. }), "{err}");
    }

    #[test]
    fn long_lived_reader_compacts_its_buffer() {
        let mut rd = FrameReader::new();
        let wire = encode_frame(&msg(0, 1));
        for _ in 0..10_000 {
            rd.push(&wire);
            rd.next_frame().unwrap().expect("frame per push");
        }
        // Without compaction the buffer would hold all 10k frames
        // (~460 KiB); with it, it stays near the 4 KiB watermark.
        assert!(rd.buf.len() < 3 * 4096, "buffer grew to {}", rd.buf.len());
        assert_eq!(rd.pending_bytes(), 0);
    }
}
