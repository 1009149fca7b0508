//! The [`Portable`] trait: typed marshalling for shared objects.
//!
//! Every Jade shared object must be `Portable` so the object manager
//! can move or copy it between machines with different data formats.
//! This mirrors the paper's observation that, unlike page-based
//! distributed shared memory, "the Jade implementation can do the
//! necessary conversions in a heterogeneous environment because it
//! knows the types of all shared objects" (§6.1).

use crate::encode::{PortDecoder, PortEncoder};
use crate::error::DecodeResult;

/// A value that can be marshalled into any machine layout and
/// unmarshalled back without loss.
///
/// Implementations must guarantee `decode(encode(x)) == x` for every
/// [`crate::DataLayout`]; the Jade runtime's determinism proof relies
/// on object transfers being exact.
pub trait Portable: Sized {
    /// Write `self` into the encoder using its layout.
    fn encode(&self, enc: &mut PortEncoder);
    /// Read a value back, consuming the same bytes `encode` produced.
    /// Truncated or corrupted wire bytes surface as a
    /// [`crate::DecodeError`], never a panic.
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self>;
    /// Approximate encoded size in bytes (used by the simulator to
    /// reserve buffers and account message sizes cheaply).
    fn size_hint(&self) -> usize {
        16
    }
}

macro_rules! portable_scalar {
    ($t:ty, $put:ident, $get:ident, $sz:expr) => {
        impl Portable for $t {
            #[inline]
            fn encode(&self, enc: &mut PortEncoder) {
                enc.$put(*self);
            }
            #[inline]
            fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
                dec.$get()
            }
            #[inline]
            fn size_hint(&self) -> usize {
                $sz
            }
        }
    };
}

portable_scalar!(u8, put_u8, get_u8, 1);
portable_scalar!(u16, put_u16, get_u16, 2);
portable_scalar!(u32, put_u32, get_u32, 4);
portable_scalar!(u64, put_u64, get_u64, 8);
portable_scalar!(i32, put_i32, get_i32, 4);
portable_scalar!(i64, put_i64, get_i64, 8);
portable_scalar!(f32, put_f32, get_f32, 4);
portable_scalar!(f64, put_f64, get_f64, 8);
portable_scalar!(bool, put_bool, get_bool, 1);
portable_scalar!(usize, put_usize, get_usize, 8);

impl Portable for String {
    fn encode(&self, enc: &mut PortEncoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        dec.get_str()
    }
    fn size_hint(&self) -> usize {
        8 + self.len()
    }
}

impl Portable for () {
    fn encode(&self, _enc: &mut PortEncoder) {}
    fn decode(_dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        Ok(())
    }
    fn size_hint(&self) -> usize {
        0
    }
}

impl<T: Portable> Portable for Vec<T> {
    fn encode(&self, enc: &mut PortEncoder) {
        enc.put_usize(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        let n = dec.get_usize()?;
        // A corrupted count must not drive a huge allocation: cap the
        // reservation by what the buffer could possibly still hold.
        let mut out = Vec::with_capacity(n.min(dec.remaining()));
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
    fn size_hint(&self) -> usize {
        8 + self.iter().map(Portable::size_hint).sum::<usize>()
    }
}

impl<T: Portable> Portable for Option<T> {
    fn encode(&self, enc: &mut PortEncoder) {
        match self {
            None => enc.put_bool(false),
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        Ok(if dec.get_bool()? { Some(T::decode(dec)?) } else { None })
    }
    fn size_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, Portable::size_hint)
    }
}

impl<T: Portable, const N: usize> Portable for [T; N] {
    fn encode(&self, enc: &mut PortEncoder) {
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        // Build through a Vec to avoid requiring T: Default/Copy; the
        // conversion cannot fail because exactly N elements were pushed.
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(dec)?);
        }
        Ok(out.try_into().unwrap_or_else(|_| unreachable!("array length is fixed")))
    }
    fn size_hint(&self) -> usize {
        self.iter().map(Portable::size_hint).sum()
    }
}

impl<A: Portable, B: Portable> Portable for (A, B) {
    fn encode(&self, enc: &mut PortEncoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        let a = A::decode(dec)?;
        let b = B::decode(dec)?;
        Ok((a, b))
    }
    fn size_hint(&self) -> usize {
        self.0.size_hint() + self.1.size_hint()
    }
}

impl<A: Portable, B: Portable, C: Portable> Portable for (A, B, C) {
    fn encode(&self, enc: &mut PortEncoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        let a = A::decode(dec)?;
        let b = B::decode(dec)?;
        let c = C::decode(dec)?;
        Ok((a, b, c))
    }
    fn size_hint(&self) -> usize {
        self.0.size_hint() + self.1.size_hint() + self.2.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;
    use crate::roundtrip_same;

    #[test]
    fn nested_containers_roundtrip() {
        let v: Vec<Option<(u32, f64)>> = vec![Some((1, 2.5)), None, Some((7, -0.125))];
        for l in DataLayout::all_presets() {
            assert_eq!(roundtrip_same(&v, l), v);
        }
    }

    #[test]
    fn fixed_arrays_roundtrip() {
        let a: [f64; 3] = [1.0, -2.0, 3.5];
        for l in DataLayout::all_presets() {
            assert_eq!(roundtrip_same(&a, l), a);
        }
    }

    #[test]
    fn size_hint_close_to_actual_for_doubles() {
        let v: Vec<f64> = vec![0.0; 1000];
        let hint = v.size_hint();
        let mut e = PortEncoder::new(DataLayout::x86_64());
        v.encode(&mut e);
        let actual = e.finish().len();
        assert!(hint >= actual / 2 && hint <= actual * 2, "hint {hint} vs actual {actual}");
    }

    #[test]
    fn empty_vec_roundtrips() {
        let v: Vec<f64> = vec![];
        for l in DataLayout::all_presets() {
            assert_eq!(roundtrip_same(&v, l), v);
        }
    }

    #[test]
    fn unit_roundtrips() {
        for l in DataLayout::all_presets() {
            roundtrip_same(&(), l);
        }
    }
}
