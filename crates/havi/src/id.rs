//! HAVi-style identifiers: GUIDs for devices and SEIDs for software
//! elements.

/// Globally unique identifier of a physical device on the home network
/// (HAVi derives these from IEEE-1394 EUI-64s; we use an opaque u64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Guid(pub u64);

impl Guid {
    /// Creates a GUID from its raw value.
    pub const fn new(raw: u64) -> Guid {
        Guid(raw)
    }
}

impl core::fmt::Display for Guid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "guid:{:016x}", self.0)
    }
}

/// Software element identifier: the GUID of the hosting device plus a
/// device-local handle, exactly HAVi's SEID structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Seid {
    /// Hosting device.
    pub guid: Guid,
    /// Handle unique within the device.
    pub handle: u32,
}

impl Seid {
    /// Creates a SEID.
    pub const fn new(guid: Guid, handle: u32) -> Seid {
        Seid { guid, handle }
    }
}

impl core::fmt::Display for Seid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.guid, self.handle)
    }
}

/// Monotonic GUID allocator for simulated devices.
#[derive(Debug, Default)]
pub struct GuidAllocator {
    next: u64,
}

impl GuidAllocator {
    /// Creates an allocator starting at 1.
    pub fn new() -> GuidAllocator {
        GuidAllocator { next: 1 }
    }

    /// Returns a fresh GUID.
    pub fn allocate(&mut self) -> Guid {
        let g = Guid(self.next);
        self.next += 1;
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guid_display() {
        assert_eq!(Guid(0xab).to_string(), "guid:00000000000000ab");
    }

    #[test]
    fn seid_identity() {
        let a = Seid::new(Guid(1), 2);
        let b = Seid::new(Guid(1), 2);
        let c = Seid::new(Guid(1), 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn allocator_is_monotonic_and_unique() {
        let mut alloc = GuidAllocator::new();
        let a = alloc.allocate();
        let b = alloc.allocate();
        assert_ne!(a, b);
        assert!(b.0 > a.0);
    }
}
