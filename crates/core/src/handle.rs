//! Typed handles to shared objects.
//!
//! A [`Shared<T>`] plays the role of the paper's `shared`-qualified
//! pointer: a globally valid, machine-independent reference to a
//! shared object. Handles are `Copy`, freely movable into task bodies,
//! and themselves [`Portable`] so that shared objects may *contain*
//! handles to other shared objects — exactly like the paper's
//! `column_vector` (a shared array of references to shared columns).

use std::fmt;
use std::marker::PhantomData;

use jade_transport::{PortDecoder, PortEncoder, Portable};

use crate::ids::ObjectId;

/// The bound every shared object type must satisfy: it can be moved
/// between heterogeneous machines ([`Portable`]) and between threads.
pub trait Object: Portable + Send + Sync + 'static {}

impl<T: Portable + Send + Sync + 'static> Object for T {}

/// A typed, globally valid reference to a shared object of type `T`.
///
/// The handle carries no data; executors translate it to the local
/// version of the object when the owning task performs a checked
/// access (`ctx.rd(&h)` / `ctx.wr(&h)`).
pub struct Shared<T: Object> {
    id: ObjectId,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Object> Shared<T> {
    /// Construct a handle from a raw object id. Intended for executor
    /// implementations; application code obtains handles from
    /// `ctx.create`.
    pub fn from_raw(id: ObjectId) -> Self {
        Shared { id, _marker: PhantomData }
    }

    /// The underlying globally valid object identifier.
    #[inline]
    pub fn id(&self) -> ObjectId {
        self.id
    }
}

impl<T: Object> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Object> Copy for Shared<T> {}

impl<T: Object> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl<T: Object> Eq for Shared<T> {}

impl<T: Object> std::hash::Hash for Shared<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl<T: Object> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared<{}>({})", std::any::type_name::<T>(), self.id)
    }
}

impl<T: Object> From<Shared<T>> for ObjectId {
    fn from(h: Shared<T>) -> ObjectId {
        h.id
    }
}

impl<T: Object> From<&Shared<T>> for ObjectId {
    fn from(h: &Shared<T>) -> ObjectId {
        h.id
    }
}

impl<T: Object> Portable for Shared<T> {
    fn encode(&self, enc: &mut PortEncoder) {
        self.id.encode(enc);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> jade_transport::DecodeResult<Self> {
        Ok(Shared::from_raw(ObjectId::decode(dec)?))
    }
    fn size_hint(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_transport::{roundtrip_same, DataLayout};

    #[test]
    fn handles_are_copy_and_comparable() {
        let a: Shared<Vec<f64>> = Shared::from_raw(ObjectId(3));
        let b = a;
        assert_eq!(a, b);
        assert_eq!(a.id(), ObjectId(3));
    }

    #[test]
    fn handles_inside_objects_are_portable() {
        // A shared "column vector": a vector of handles to columns,
        // mirroring Figure 5 of the paper.
        let cols: Vec<Shared<Vec<f64>>> = (0..4).map(|i| Shared::from_raw(ObjectId(i))).collect();
        for l in DataLayout::all_presets() {
            assert_eq!(roundtrip_same(&cols, l), cols);
        }
    }

    #[test]
    fn debug_format_names_type() {
        let h: Shared<f64> = Shared::from_raw(ObjectId(1));
        assert!(format!("{h:?}").contains("f64"));
    }
}
