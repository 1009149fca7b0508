//! Decode failures.
//!
//! Wire bytes arrive from another machine; a transport cannot assume
//! they are well formed. Every [`crate::PortDecoder`] read therefore
//! returns a [`DecodeError`] instead of panicking when the buffer is
//! truncated, a length prefix is absurd, or an embedded string is not
//! UTF-8 — the conditions a lossy or faulty network can produce.

use crate::layout::LayoutId;

/// Why a decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A length prefix requests more than the address space can hold
    /// (or more than any sane message: a corrupted count).
    LengthOverflow {
        /// The decoded element count.
        len: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// A tagged union carried a discriminant this build does not know
    /// (never assigned, or retired and not reused).
    UnknownTag {
        /// The discriminant byte.
        tag: u8,
    },
    /// A message header carried a layout id no machine family uses.
    UnknownLayout(LayoutId),
    /// A serialized header blob had the wrong size.
    BadHeader {
        /// Bytes supplied.
        got: usize,
        /// Bytes a header occupies.
        want: usize,
    },
    /// A stream frame did not start with [`crate::frame::FRAME_MAGIC`]:
    /// the connection has lost framing (or was never speaking this
    /// protocol) and must be dropped.
    BadMagic {
        /// The two bytes actually seen.
        got: u16,
    },
    /// A frame's CRC-32 did not match its contents — bits were flipped
    /// in transit.
    CorruptFrame {
        /// Checksum the frame claimed.
        want: u32,
        /// Checksum computed over the received bytes.
        got: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, remaining } => {
                write!(f, "truncated payload: read of {needed} bytes with {remaining} remaining")
            }
            DecodeError::LengthOverflow { len } => {
                write!(f, "corrupt length prefix: {len} elements overflows the buffer arithmetic")
            }
            DecodeError::InvalidUtf8 => write!(f, "portable string was not valid UTF-8"),
            DecodeError::UnknownTag { tag } => write!(f, "unknown message tag {tag}"),
            DecodeError::UnknownLayout(id) => {
                write!(f, "message header names unknown data layout id {}", id.0)
            }
            DecodeError::BadHeader { got, want } => {
                write!(f, "serialized header is {got} bytes, expected {want}")
            }
            DecodeError::BadMagic { got } => {
                write!(f, "stream lost framing: expected frame magic, saw {got:#06x}")
            }
            DecodeError::CorruptFrame { want, got } => {
                write!(f, "frame checksum mismatch: header claims {want:#010x}, contents hash to {got:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Shorthand for decode results.
pub type DecodeResult<T> = std::result::Result<T, DecodeError>;
