//! Type-erased storage of shared-object versions.
//!
//! Each executor keeps one or more [`ObjectStore`]s: the shared-memory
//! executor keeps a single store (the hardware provides the shared
//! address space); the message-passing simulator keeps one store per
//! machine and moves *versions* of objects between them through the
//! typed transport. A [`Slot`] pairs the type-erased value with a
//! vtable of marshalling functions captured at creation time, so the
//! object manager can encode/decode/measure objects it does not know
//! the type of — this is how the runtime "knows the types of all
//! shared objects" (§6.1).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use jade_transport::{DecodeResult, PortDecoder, PortEncoder};

use crate::error::{JadeError, Result};
use crate::handle::{Object, Shared};
use crate::ids::ObjectId;
use crate::sync::{OwnedRwLock, RwLock};

/// Type-erased pointer to an object version: an `Arc<OwnedRwLock<T>>`
/// hidden behind `dyn Any`.
pub type ErasedValue = Arc<dyn Any + Send + Sync>;

/// The typed cell behind an erased value, if it holds a `T`.
fn cell<T: Object>(v: &ErasedValue) -> Option<Arc<OwnedRwLock<T>>> {
    Arc::clone(v).downcast().ok()
}

/// Marshalling vtable captured when an object is created.
#[derive(Clone, Copy)]
pub struct ObjVtable {
    /// Encode the current value into the encoder's layout.
    pub encode: fn(&ErasedValue, &mut PortEncoder),
    /// Decode a fresh version from wire bytes; corrupt or truncated
    /// bytes are an error, not a panic.
    pub decode: fn(&mut PortDecoder<'_>) -> DecodeResult<ErasedValue>,
    /// Approximate encoded size (drives simulated message sizes).
    pub size: fn(&ErasedValue) -> usize,
    /// The Rust type name, for traces and errors.
    pub type_name: &'static str,
}

impl std::fmt::Debug for ObjVtable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjVtable({})", self.type_name)
    }
}

fn encode_impl<T: Object>(v: &ErasedValue, enc: &mut PortEncoder) {
    let lock = cell::<T>(v).expect("object store type confusion");
    lock.read_owned().encode(enc);
}

fn decode_impl<T: Object>(dec: &mut PortDecoder<'_>) -> DecodeResult<ErasedValue> {
    Ok(Arc::new(OwnedRwLock::new(T::decode(dec)?)))
}

fn size_impl<T: Object>(v: &ErasedValue) -> usize {
    let lock = cell::<T>(v).expect("object store type confusion");
    jade_transport::Portable::size_hint(&*lock.read_owned())
}

/// Build the marshalling vtable for a concrete object type.
pub fn vtable_of<T: Object>() -> ObjVtable {
    ObjVtable {
        encode: encode_impl::<T>,
        decode: decode_impl::<T>,
        size: size_impl::<T>,
        type_name: std::any::type_name::<T>(),
    }
}

/// Type-erased projection of an object into the IR's `f64` domain.
type LowerFn = Arc<dyn Fn(&ErasedValue) -> Option<Vec<f64>> + Send + Sync>;
/// Type-erased replacement of an object from a projection.
type LiftFn = Arc<dyn Fn(&ErasedValue, &[f64]) -> bool + Send + Sync>;

/// Lowering functions projecting a typed object into the task-body
/// IR's flat `f64` value domain and back (see [`crate::ir`]).
#[derive(Clone)]
struct LowerOps {
    lower: LowerFn,
    lift: LiftFn,
}

impl LowerOps {
    /// Erase a typed projection pair; a value of another type lowers
    /// to `None` and refuses the lift.
    fn of<T: Object>(
        lower: impl Fn(&T) -> Vec<f64> + Send + Sync + 'static,
        lift: impl Fn(&mut T, &[f64]) -> bool + Send + Sync + 'static,
    ) -> Self {
        LowerOps {
            lower: Arc::new(move |v| cell::<T>(v).map(|lock| lower(&lock.read_owned()))),
            lift: Arc::new(move |v, data| {
                cell::<T>(v).is_some_and(|lock| lift(&mut lock.write_owned(), data))
            }),
        }
    }
}

/// The type-keyed lowering registry. Global and idempotent: an entry
/// is a pure projection decided by the *type*, so concurrent jobs
/// cannot conflict through it (unlike a kernel registry, which is
/// per-executor state).
fn lowerings() -> &'static RwLock<HashMap<TypeId, LowerOps>> {
    static REG: OnceLock<RwLock<HashMap<TypeId, LowerOps>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Register how a concrete object type lowers to the IR's `Vec<f64>`
/// domain. `lower` projects the value; `lift` replaces the value from
/// a projection, returning `false` on a shape mismatch (which aborts
/// the remote path for that task, never corrupts the object).
///
/// Idempotent: re-registering a type replaces its entry. The std
/// scalar/vector types are pre-registered; applications add their own
/// (e.g. `pmake`'s `FileState`).
pub fn register_lowering<T: Object>(
    lower: impl Fn(&T) -> Vec<f64> + Send + Sync + 'static,
    lift: impl Fn(&mut T, &[f64]) -> bool + Send + Sync + 'static,
) {
    let ops = LowerOps::of(lower, lift);
    ensure_std_lowerings();
    lowerings().write().insert(TypeId::of::<OwnedRwLock<T>>(), ops);
}

fn insert_lowering_if_absent<T: Object>(
    map: &mut HashMap<TypeId, LowerOps>,
    lower: fn(&T) -> Vec<f64>,
    lift: fn(&mut T, &[f64]) -> bool,
) {
    map.entry(TypeId::of::<OwnedRwLock<T>>()).or_insert_with(|| LowerOps::of(lower, lift));
}

/// Pre-register the lowerings for the std object types the example
/// programs ship: `f64`, `Vec<f64>`, `Vec<[f64; 3]>`.
fn ensure_std_lowerings() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let mut map = lowerings().write();
        insert_lowering_if_absent::<f64>(
            &mut map,
            |v| vec![*v],
            |v, data| {
                if data.len() != 1 {
                    return false;
                }
                *v = data[0];
                true
            },
        );
        insert_lowering_if_absent::<Vec<f64>>(
            &mut map,
            |v| v.clone(),
            |v, data| {
                *v = data.to_vec();
                true
            },
        );
        insert_lowering_if_absent::<Vec<[f64; 3]>>(
            &mut map,
            |v| v.iter().flatten().copied().collect(),
            |v, data| {
                if data.len() % 3 != 0 {
                    return false;
                }
                *v = data.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
                true
            },
        );
    });
}

/// One local version of a shared object.
#[derive(Clone, Debug)]
pub struct Slot {
    /// The value, type-erased.
    pub value: ErasedValue,
    /// Marshalling functions for the value's concrete type.
    pub vtable: ObjVtable,
    /// Debug name given at creation.
    pub name: Arc<str>,
}

impl Slot {
    /// Wrap a typed value into a slot.
    pub fn new<T: Object>(name: &str, value: T) -> Slot {
        Slot {
            value: Arc::new(OwnedRwLock::new(value)),
            vtable: vtable_of::<T>(),
            name: Arc::from(name),
        }
    }

    /// Encode this version for transfer in the given encoder.
    pub fn encode(&self, enc: &mut PortEncoder) {
        (self.vtable.encode)(&self.value, enc)
    }

    /// Decode a transferred version, producing a slot with the same
    /// vtable and name. Errors if the wire bytes are truncated or
    /// corrupted.
    pub fn decode_version(&self, dec: &mut PortDecoder<'_>) -> DecodeResult<Slot> {
        Ok(Slot { value: (self.vtable.decode)(dec)?, vtable: self.vtable, name: self.name.clone() })
    }

    /// Approximate wire size of the current value.
    pub fn wire_size(&self) -> usize {
        (self.vtable.size)(&self.value)
    }

    /// Project the current value into the IR's flat `f64` domain, or
    /// `None` when no lowering is registered for the value's type
    /// (the task then stays on the closure path).
    pub fn lower(&self) -> Option<Vec<f64>> {
        ensure_std_lowerings();
        let ops = lowerings().read().get(&(*self.value).type_id())?.clone();
        (ops.lower)(&self.value)
    }

    /// Replace the current value from an IR projection. Returns
    /// `false` (leaving the value untouched) when no lowering is
    /// registered or the projection's shape does not fit the type.
    pub fn lift(&self, data: &[f64]) -> bool {
        ensure_std_lowerings();
        let Some(ops) = lowerings().read().get(&(*self.value).type_id()).cloned() else {
            return false;
        };
        (ops.lift)(&self.value, data)
    }

    /// Downcast to the typed lock. Panics on type confusion (which
    /// would indicate a forged handle).
    pub fn typed<T: Object>(&self) -> Arc<OwnedRwLock<T>> {
        cell::<T>(&self.value).unwrap_or_else(|| {
            panic!(
                "shared object '{}' holds {} but was accessed as {}",
                self.name,
                self.vtable.type_name,
                std::any::type_name::<T>()
            )
        })
    }
}

/// A map from object ids to local versions.
#[derive(Default, Debug)]
pub struct ObjectStore {
    slots: HashMap<ObjectId, Slot>,
}

impl ObjectStore {
    /// Create an empty store.
    pub fn new() -> Self {
        ObjectStore { slots: HashMap::new() }
    }

    /// Insert (or replace) the local version of an object.
    pub fn insert(&mut self, id: ObjectId, slot: Slot) {
        self.slots.insert(id, slot);
    }

    /// Remove the local version (object moved away / invalidated).
    pub fn remove(&mut self, id: ObjectId) -> Option<Slot> {
        self.slots.remove(&id)
    }

    /// Whether a local version is present.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.slots.contains_key(&id)
    }

    /// Borrow the local version.
    pub fn get(&self, id: ObjectId) -> Result<&Slot> {
        self.slots.get(&id).ok_or(JadeError::UnknownObject(id))
    }

    /// Typed access to the local version.
    pub fn typed<T: Object>(&self, h: &Shared<T>) -> Result<Arc<OwnedRwLock<T>>> {
        Ok(self.get(h.id())?.typed::<T>())
    }

    /// Number of resident versions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no versions.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate over resident object ids.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_transport::DataLayout;

    #[test]
    fn slot_roundtrip_through_wire() {
        let slot = Slot::new("column", vec![1.0f64, 2.0, 3.0]);
        let mut enc = PortEncoder::new(DataLayout::sparc());
        slot.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = PortDecoder::new(&bytes, DataLayout::sparc());
        let slot2 = slot.decode_version(&mut dec).unwrap();
        let v = slot2.typed::<Vec<f64>>();
        assert_eq!(*v.read_owned(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn truncated_version_bytes_are_an_error() {
        let slot = Slot::new("column", vec![1.0f64, 2.0, 3.0]);
        let mut enc = PortEncoder::new(DataLayout::sparc());
        slot.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = PortDecoder::new(&bytes[..bytes.len() - 4], DataLayout::sparc());
        assert!(slot.decode_version(&mut dec).is_err());
    }

    #[test]
    fn typed_access_and_mutation() {
        let mut store = ObjectStore::new();
        store.insert(ObjectId(1), Slot::new("x", 41.0f64));
        let h: Shared<f64> = Shared::from_raw(ObjectId(1));
        {
            let lock = store.typed(&h).unwrap();
            *lock.clone().write_owned() += 1.0;
        }
        let lock = store.typed(&h).unwrap();
        assert_eq!(*lock.read_owned(), 42.0);
    }

    #[test]
    #[should_panic(expected = "was accessed as")]
    fn type_confusion_panics() {
        let mut store = ObjectStore::new();
        store.insert(ObjectId(1), Slot::new("x", 1.0f64));
        let h: Shared<u32> = Shared::from_raw(ObjectId(1));
        let _ = store.typed(&h).unwrap();
    }

    #[test]
    fn missing_object_is_an_error() {
        let store = ObjectStore::new();
        let h: Shared<f64> = Shared::from_raw(ObjectId(9));
        assert!(matches!(store.typed(&h), Err(JadeError::UnknownObject(_))));
    }

    #[test]
    fn wire_size_reflects_payload() {
        let small = Slot::new("s", vec![0.0f64; 4]);
        let big = Slot::new("b", vec![0.0f64; 4096]);
        assert!(big.wire_size() > small.wire_size() * 100);
    }

    #[test]
    fn std_lowerings_round_trip() {
        let scalar = Slot::new("e", 2.5f64);
        assert_eq!(scalar.lower().unwrap(), vec![2.5]);
        assert!(scalar.lift(&[7.0]));
        assert_eq!(*scalar.typed::<f64>().read_owned(), 7.0);
        assert!(!scalar.lift(&[1.0, 2.0]), "a scalar rejects a vector shape");

        let col = Slot::new("col", vec![1.0f64, 2.0]);
        assert_eq!(col.lower().unwrap(), vec![1.0, 2.0]);
        assert!(col.lift(&[9.0, 8.0, 7.0]), "vectors may change length");
        assert_eq!(*col.typed::<Vec<f64>>().read_owned(), vec![9.0, 8.0, 7.0]);

        let pts = Slot::new("pos", vec![[1.0f64, 2.0, 3.0]]);
        assert_eq!(pts.lower().unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(pts.lift(&[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]));
        assert_eq!(
            *pts.typed::<Vec<[f64; 3]>>().read_owned(),
            vec![[4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        );
        assert!(!pts.lift(&[1.0, 2.0]), "length must be a multiple of 3");
    }

    #[test]
    fn unregistered_type_does_not_lower() {
        let slot = Slot::new("s", "hello".to_string());
        assert!(slot.lower().is_none());
        assert!(!slot.lift(&[1.0]));
        assert_eq!(*slot.typed::<String>().read_owned(), "hello", "lift must not corrupt");
    }

    #[test]
    fn app_types_register_their_own_lowering() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Pair(f64, f64);
        impl jade_transport::Portable for Pair {
            fn encode(&self, enc: &mut PortEncoder) {
                enc.put_f64(self.0);
                enc.put_f64(self.1);
            }
            fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
                Ok(Pair(dec.get_f64()?, dec.get_f64()?))
            }
        }
        super::register_lowering::<Pair>(
            |p| vec![p.0, p.1],
            |p, d| {
                if d.len() != 2 {
                    return false;
                }
                *p = Pair(d[0], d[1]);
                true
            },
        );
        let slot = Slot::new("p", Pair(1.0, 2.0));
        assert_eq!(slot.lower().unwrap(), vec![1.0, 2.0]);
        assert!(slot.lift(&[3.0, 4.0]));
        assert_eq!(*slot.typed::<Pair>().read_owned(), Pair(3.0, 4.0));
    }

    #[test]
    fn remove_and_reinsert_models_migration() {
        let mut a = ObjectStore::new();
        let mut b = ObjectStore::new();
        a.insert(ObjectId(1), Slot::new("col", vec![5.0f64]));
        let slot = a.remove(ObjectId(1)).unwrap();
        // encode on machine A (sparc), decode on machine B reading
        // sparc-format bytes — the heterogeneous transfer path.
        let mut enc = PortEncoder::new(DataLayout::sparc());
        slot.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = PortDecoder::new(&bytes, DataLayout::sparc());
        b.insert(ObjectId(1), slot.decode_version(&mut dec).unwrap());
        assert!(!a.contains(ObjectId(1)));
        let h: Shared<Vec<f64>> = Shared::from_raw(ObjectId(1));
        assert_eq!(*b.typed(&h).unwrap().read_owned(), vec![5.0]);
    }
}
