//! Machine data-layout descriptions.
//!
//! A [`DataLayout`] captures the properties of a machine's native data
//! representation that matter when shared objects move between
//! machines: byte order and the alignment the machine's compiler gives
//! to scalar fields. The presets correspond to the machine families
//! the Jade paper reports running on (§7): SPARC Suns, MIPS
//! DECstations and SGI workstations, the Intel iPSC/860 nodes and the
//! i860 accelerators of the HRV workstation.

/// Byte order of multi-byte scalars on the wire / in machine memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Least-significant byte first (MIPS DECstation, i860, x86).
    Little,
    /// Most-significant byte first (SPARC, SGI MIPS).
    Big,
}

/// Maximum alignment (in bytes) applied to scalar fields when a
/// composite value is marshalled. Mirrors the struct padding a native
/// compiler would emit, and makes wire sizes architecture-dependent
/// the way real heterogeneous transports are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Align {
    /// Scalars aligned to at most 4 bytes (classic 32-bit ABIs).
    Word4,
    /// Scalars aligned to at most 8 bytes (64-bit ABIs).
    Word8,
}

impl Align {
    /// The numeric alignment bound in bytes.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Align::Word4 => 4,
            Align::Word8 => 8,
        }
    }
}

/// Compact identifier for a layout, carried in message headers so the
/// receiver knows how to interpret the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayoutId(pub u8);

/// A machine's native data representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataLayout {
    /// Byte order for integers and IEEE-754 floats.
    pub byte_order: ByteOrder,
    /// Scalar alignment bound used when marshalling composites.
    pub align: Align,
    /// Stable identifier used on the wire.
    pub id: LayoutId,
    /// Human-readable architecture name (for traces and logs).
    pub name: &'static str,
}

impl DataLayout {
    /// Big-endian, 4-byte-aligned: SPARC workstations (Sun-4, ELC).
    pub const fn sparc() -> Self {
        DataLayout {
            byte_order: ByteOrder::Big,
            align: Align::Word4,
            id: LayoutId(1),
            name: "sparc",
        }
    }

    /// Little-endian, 4-byte-aligned: MIPS DECstation 3100/5000.
    pub const fn mips_le() -> Self {
        DataLayout {
            byte_order: ByteOrder::Little,
            align: Align::Word4,
            id: LayoutId(2),
            name: "mips-le",
        }
    }

    /// Big-endian, 4-byte-aligned: SGI MIPS workstations and DASH nodes.
    pub const fn mips_be() -> Self {
        DataLayout {
            byte_order: ByteOrder::Big,
            align: Align::Word4,
            id: LayoutId(3),
            name: "mips-be",
        }
    }

    /// Little-endian, 4-byte-aligned: Intel i860 (iPSC/860 nodes and
    /// HRV accelerator boards).
    pub const fn i860() -> Self {
        DataLayout {
            byte_order: ByteOrder::Little,
            align: Align::Word4,
            id: LayoutId(4),
            name: "i860",
        }
    }

    /// Little-endian, 8-byte-aligned: a modern 64-bit host, used as
    /// the "native" layout for same-architecture clusters.
    pub const fn x86_64() -> Self {
        DataLayout {
            byte_order: ByteOrder::Little,
            align: Align::Word8,
            id: LayoutId(5),
            name: "x86-64",
        }
    }

    /// All preset layouts (useful for exhaustive conversion tests).
    pub fn all_presets() -> [DataLayout; 5] {
        [Self::sparc(), Self::mips_le(), Self::mips_be(), Self::i860(), Self::x86_64()]
    }

    /// Look a preset up by wire id, or `None` for ids no machine
    /// family uses (a corrupted header). Decode paths turn this into
    /// [`crate::DecodeError::UnknownLayout`].
    pub fn try_from_id(id: LayoutId) -> Option<DataLayout> {
        Self::all_presets().into_iter().find(|l| l.id == id)
    }

    /// Look a preset up by wire id. Unknown ids fall back to
    /// [`DataLayout::x86_64`]; use [`DataLayout::try_from_id`] when a
    /// corrupted id should be an error instead.
    pub fn from_id(id: LayoutId) -> DataLayout {
        Self::try_from_id(id).unwrap_or(Self::x86_64())
    }

    /// Whether moving data between `self` and `other` requires any
    /// byte-level conversion (byte swap or re-padding).
    pub fn conversion_required(&self, other: &DataLayout) -> bool {
        self.byte_order != other.byte_order || self.align != other.align
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_ids_are_unique() {
        let presets = DataLayout::all_presets();
        for (i, a) in presets.iter().enumerate() {
            for b in presets.iter().skip(i + 1) {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn from_id_roundtrips() {
        for l in DataLayout::all_presets() {
            assert_eq!(DataLayout::from_id(l.id), l);
        }
    }

    #[test]
    fn sparc_to_i860_requires_conversion() {
        assert!(DataLayout::sparc().conversion_required(&DataLayout::i860()));
        assert!(!DataLayout::sparc().conversion_required(&DataLayout::mips_be()));
    }

    #[test]
    fn unknown_id_falls_back_to_native() {
        assert_eq!(DataLayout::from_id(LayoutId(200)), DataLayout::x86_64());
        assert_eq!(DataLayout::try_from_id(LayoutId(200)), None);
    }
}
