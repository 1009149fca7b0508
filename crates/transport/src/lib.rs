//! # jade-transport — portable typed transport with data-format conversion
//!
//! The Jade paper (SC '92) runs a single parallel program across a
//! *heterogeneous* collection of machines — big-endian SPARCs,
//! little-endian MIPS DECstations and i860 accelerators — and relies on
//! a reliable, *typed* transport protocol (PVM in the original
//! implementation) to move shared objects between machines:
//!
//! > "In moving or copying objects between machines, the implementation
//! > (or the transport protocol it uses) also performs any data format
//! > conversion required because of different representations of data
//! > items on the two machines."
//!
//! This crate is that substrate. It provides:
//!
//! * [`DataLayout`] — a description of a machine's native data
//!   representation (byte order, preferred scalar alignment), with
//!   presets for the machine families the paper names;
//! * [`PortEncoder`] / [`PortDecoder`] — schema-driven scalar encoders
//!   that write and read values *in a specific layout*, so a value
//!   encoded on a big-endian SPARC is decoded correctly on a
//!   little-endian i860;
//! * [`Portable`] — the trait shared objects implement so the Jade
//!   object manager can move them between simulated machines. Encoding
//!   is guaranteed lossless: `decode(encode(x)) == x` for every layout
//!   pair, which is what lets the runtime preserve Jade's deterministic
//!   serial semantics across heterogeneous machines;
//! * [`Message`] / [`MsgHeader`] — the wire unit exchanged by simulated
//!   machines, carrying the sender's layout id so the receiver knows
//!   how to interpret the payload.
//!
//! The crate is deliberately independent of the simulator: it knows
//! nothing about time, machines or networks, only about bytes and
//! layouts.

pub mod encode;
pub mod error;
pub mod frame;
pub mod layout;
pub mod message;
pub mod portable;

pub use encode::{PortDecoder, PortEncoder};
pub use error::{DecodeError, DecodeResult};
pub use frame::{encode_frame, FrameReader, FRAME_PREFIX_BYTES, MAX_FRAME_BYTES};
pub use layout::{Align, ByteOrder, DataLayout, LayoutId};
pub use message::{Message, MsgHeader, MsgKind};
pub use portable::Portable;

// Re-export the payload buffer type so downstream crates can build
// `Message`s without naming the (vendored) `bytes` crate directly.
pub use bytes::Bytes;

/// Encode a value in the given layout and decode it back with the same
/// layout. Useful for simulating a same-architecture copy and in tests.
///
/// # Panics
///
/// The bytes being decoded were just produced by `encode`, so a decode
/// failure is a broken `Portable` implementation and panics.
pub fn roundtrip_same<T: Portable>(value: &T, layout: DataLayout) -> T {
    let mut enc = PortEncoder::new(layout);
    value.encode(&mut enc);
    let bytes = enc.finish();
    let mut dec = PortDecoder::new(&bytes, layout);
    T::decode(&mut dec).unwrap_or_else(|e| panic!("just-encoded value failed to decode: {e}"))
}

/// Encode a value in `src` layout and decode it under the *same* layout
/// description on the receiving side (the receiver learns the sender's
/// layout from the message header). This models a cross-architecture
/// transfer: the wire bytes differ between layouts but the decoded
/// value is identical.
///
/// # Panics
///
/// Like [`roundtrip_same`], panics if the `Portable` implementation
/// cannot decode what it just encoded.
pub fn convert<T: Portable>(value: &T, src: DataLayout) -> (usize, T) {
    let mut enc = PortEncoder::new(src);
    value.encode(&mut enc);
    let bytes = enc.finish();
    let wire = bytes.len();
    let mut dec = PortDecoder::new(&bytes, src);
    let v =
        T::decode(&mut dec).unwrap_or_else(|e| panic!("just-encoded value failed to decode: {e}"));
    (wire, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_layout_roundtrip_preserves_value() {
        let v: Vec<f64> = vec![1.5, -2.25, std::f64::consts::PI, f64::MIN_POSITIVE];
        for src in DataLayout::all_presets() {
            let (_, back) = convert(&v, src);
            assert_eq!(v, back, "layout {:?}", src);
        }
    }

    #[test]
    fn wire_size_differs_between_layouts_with_padding() {
        // A struct-ish tuple with a u8 followed by an f64 pads
        // differently under 4- vs 8-byte alignment.
        let v = (7u8, 1.25f64);
        let mut a = PortEncoder::new(DataLayout::sparc());
        v.encode(&mut a);
        let mut b = PortEncoder::new(DataLayout::x86_64());
        v.encode(&mut b);
        assert!(a.finish().len() <= b.finish().len());
    }
}
