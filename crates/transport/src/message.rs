//! Wire messages exchanged by simulated machines.
//!
//! The Jade message-passing implementation exchanges a small set of
//! message kinds: object data being moved or copied, requests for
//! remote objects, task descriptors migrating to idle machines, and
//! completion/control notifications (paper §3.3 and Figure 7). Each
//! message carries the sender's [`LayoutId`] so the receiving machine
//! can convert the payload to its native format.

use bytes::Bytes;

use crate::encode::{PortDecoder, PortEncoder};
use crate::error::{DecodeError, DecodeResult};
use crate::layout::{DataLayout, LayoutId};
use crate::portable::Portable;

/// Discriminates the protocol role of a [`Message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A shared object's data moving to a new owner (write access);
    /// the sender invalidates its local version.
    ObjectMove,
    /// A shared object's data being replicated for read access; the
    /// sender keeps its version.
    ObjectCopy,
    /// A request that the owner send an object to the requester.
    ObjectRequest,
    /// A task descriptor migrating to another machine for execution.
    TaskShip,
    /// A notification that a task has completed (releases queue
    /// positions on the coordinating machine).
    TaskDone,
    /// Runtime control traffic (throttling, load reports, shutdown).
    Control,
}

impl MsgKind {
    fn to_u8(self) -> u8 {
        match self {
            MsgKind::ObjectMove => 0,
            MsgKind::ObjectCopy => 1,
            MsgKind::ObjectRequest => 2,
            MsgKind::TaskShip => 3,
            MsgKind::TaskDone => 4,
            MsgKind::Control => 5,
        }
    }

    fn from_u8(v: u8) -> MsgKind {
        match v {
            0 => MsgKind::ObjectMove,
            1 => MsgKind::ObjectCopy,
            2 => MsgKind::ObjectRequest,
            3 => MsgKind::TaskShip,
            4 => MsgKind::TaskDone,
            _ => MsgKind::Control,
        }
    }
}

/// Fixed-size message header. On a real network this precedes the
/// payload; in the simulator it also drives byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgHeader {
    /// Protocol role of this message.
    pub kind: MsgKind,
    /// Sending machine index.
    pub src: u32,
    /// Receiving machine index.
    pub dst: u32,
    /// Sequence number, chosen by the sender. `jade-net` writes 0:
    /// its stream sockets deliver in order, and nothing reads it.
    pub seq: u64,
    /// Layout the payload was encoded with.
    pub layout: LayoutId,
}

/// Size in bytes the header occupies on the wire.
pub const HEADER_WIRE_BYTES: usize = 1 + 4 + 4 + 8 + 1;

/// A typed message: header plus an opaque payload encoded in the
/// sender's layout.
#[derive(Debug, Clone)]
pub struct Message {
    /// Routing and format metadata.
    pub header: MsgHeader,
    /// Payload bytes in the sender's layout.
    pub payload: Bytes,
}

impl Message {
    /// Marshal `value` on a machine with layout `src_layout` into a
    /// message addressed to `dst`.
    pub fn pack<T: Portable>(
        kind: MsgKind,
        src: u32,
        dst: u32,
        seq: u64,
        src_layout: DataLayout,
        value: &T,
    ) -> Message {
        let mut enc = PortEncoder::with_capacity(src_layout, value.size_hint());
        value.encode(&mut enc);
        Message {
            header: MsgHeader { kind, src, dst, seq, layout: src_layout.id },
            payload: enc.finish(),
        }
    }

    /// Unmarshal the payload on the receiving machine, converting from
    /// the sender's data format. A truncated or corrupted payload (or
    /// an unknown layout id) is a [`DecodeError`], not a panic — the
    /// receiver decides what a malformed message means (`jade-net`'s
    /// coordinator declares the sending worker dead).
    pub fn try_unpack<T: Portable>(&self) -> DecodeResult<T> {
        let layout = DataLayout::try_from_id(self.header.layout)
            .ok_or(DecodeError::UnknownLayout(self.header.layout))?;
        let mut dec = PortDecoder::new(&self.payload, layout);
        T::decode(&mut dec)
    }

    /// Unmarshal the payload, panicking on malformed bytes. Convenience
    /// for callers that just packed the message themselves (tests,
    /// benchmarks); transports receiving foreign bytes should use
    /// [`Message::try_unpack`].
    pub fn unpack<T: Portable>(&self) -> T {
        self.try_unpack().unwrap_or_else(|e| panic!("malformed message payload: {e}"))
    }

    /// Total bytes this message occupies on the wire (header plus
    /// payload); the network models charge transfer time from this.
    pub fn wire_bytes(&self) -> usize {
        HEADER_WIRE_BYTES + self.payload.len()
    }

    /// Serialize the header itself (used by tests to validate the wire
    /// format; the simulator keeps headers structured).
    pub fn header_bytes(&self) -> [u8; HEADER_WIRE_BYTES] {
        let mut out = [0u8; HEADER_WIRE_BYTES];
        out[0] = self.header.kind.to_u8();
        out[1..5].copy_from_slice(&self.header.src.to_be_bytes());
        out[5..9].copy_from_slice(&self.header.dst.to_be_bytes());
        out[9..17].copy_from_slice(&self.header.seq.to_be_bytes());
        out[17] = self.header.layout.0;
        out
    }

    /// Parse a header serialized by [`Message::header_bytes`]. Accepts
    /// any byte slice so a short read off the wire is an error rather
    /// than a panic.
    pub fn parse_header(raw: &[u8]) -> DecodeResult<MsgHeader> {
        if raw.len() != HEADER_WIRE_BYTES {
            return Err(DecodeError::BadHeader { got: raw.len(), want: HEADER_WIRE_BYTES });
        }
        let mut src = [0u8; 4];
        src.copy_from_slice(&raw[1..5]);
        let mut dst = [0u8; 4];
        dst.copy_from_slice(&raw[5..9]);
        let mut seq = [0u8; 8];
        seq.copy_from_slice(&raw[9..17]);
        Ok(MsgHeader {
            kind: MsgKind::from_u8(raw[0]),
            src: u32::from_be_bytes(src),
            dst: u32::from_be_bytes(dst),
            seq: u64::from_be_bytes(seq),
            layout: LayoutId(raw[17]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_across_architectures() {
        let column: Vec<f64> = (0..64).map(|i| 1.0 / (1.0 + i as f64)).collect();
        // SPARC (big endian) sends a column to an i860 accelerator.
        let msg = Message::pack(MsgKind::ObjectMove, 0, 1, 42, DataLayout::sparc(), &column);
        assert_eq!(msg.header.layout, DataLayout::sparc().id);
        let got: Vec<f64> = msg.unpack();
        assert_eq!(got, column);
    }

    #[test]
    fn header_wire_roundtrip() {
        let msg = Message::pack(MsgKind::TaskShip, 3, 7, 99, DataLayout::i860(), &123u64);
        let raw = msg.header_bytes();
        let parsed = Message::parse_header(&raw).unwrap();
        assert_eq!(parsed, msg.header);
    }

    #[test]
    fn short_header_is_an_error() {
        let msg = Message::pack(MsgKind::TaskShip, 3, 7, 99, DataLayout::i860(), &123u64);
        let raw = msg.header_bytes();
        let err = Message::parse_header(&raw[..raw.len() - 1]).unwrap_err();
        assert!(matches!(err, crate::error::DecodeError::BadHeader { .. }));
    }

    #[test]
    fn truncated_payload_unpacks_to_an_error() {
        let column: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut msg = Message::pack(MsgKind::ObjectMove, 0, 1, 1, DataLayout::sparc(), &column);
        msg.payload = Bytes::copy_from_slice(&msg.payload[..msg.payload.len() - 3]);
        assert!(msg.try_unpack::<Vec<f64>>().is_err());
    }

    #[test]
    fn unknown_layout_id_unpacks_to_an_error() {
        let mut msg = Message::pack(MsgKind::ObjectCopy, 0, 1, 1, DataLayout::sparc(), &1u64);
        msg.header.layout = LayoutId(250);
        assert!(matches!(
            msg.try_unpack::<u64>(),
            Err(crate::error::DecodeError::UnknownLayout(LayoutId(250)))
        ));
    }

    #[test]
    fn wire_bytes_counts_header_and_payload() {
        let msg = Message::pack(MsgKind::Control, 0, 0, 0, DataLayout::x86_64(), &());
        assert_eq!(msg.wire_bytes(), HEADER_WIRE_BYTES);
        let msg2 = Message::pack(MsgKind::ObjectCopy, 0, 1, 1, DataLayout::x86_64(), &1u64);
        assert!(msg2.wire_bytes() > HEADER_WIRE_BYTES);
    }

    #[test]
    fn all_kinds_roundtrip_through_u8() {
        for k in [
            MsgKind::ObjectMove,
            MsgKind::ObjectCopy,
            MsgKind::ObjectRequest,
            MsgKind::TaskShip,
            MsgKind::TaskDone,
            MsgKind::Control,
        ] {
            assert_eq!(MsgKind::from_u8(k.to_u8()), k);
        }
    }
}
