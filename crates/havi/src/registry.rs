//! The HAVi registry: attribute-based discovery of software elements.
//!
//! Applications never hold device references directly; they query the
//! registry ("all FCMs of class Vcr in zone living-room") and talk to the
//! resulting SEIDs through the network's messaging.

use crate::fcm::FcmClass;
use crate::id::{Guid, Seid};

/// What kind of software element a registration describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// Device control module (one per device).
    Dcm,
    /// Functional component module.
    Fcm,
    /// A havlet/application element.
    Application,
    /// A user-interface service (e.g. the UniInt proxy registers as one).
    UiService,
}

/// One registry entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// The element's SEID.
    pub seid: Seid,
    /// Element kind.
    pub kind: ElementKind,
    /// Functional class, for FCM entries.
    pub class: Option<FcmClass>,
    /// Human-readable element name.
    pub name: String,
    /// The room/zone the hosting device lives in.
    pub zone: String,
}

/// An attribute query; unset fields match anything.
///
/// ```
/// use uniint_havi::registry::Query;
/// use uniint_havi::fcm::FcmClass;
/// let q = Query::new().class(FcmClass::Vcr).zone("living-room");
/// # let _ = q;
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    kind: Option<ElementKind>,
    class: Option<FcmClass>,
    zone: Option<String>,
    guid: Option<Guid>,
    name_contains: Option<String>,
}

impl Query {
    /// Matches everything.
    pub fn new() -> Query {
        Query::default()
    }

    /// Restricts to one element kind.
    pub fn kind(mut self, kind: ElementKind) -> Query {
        self.kind = Some(kind);
        self
    }

    /// Restricts to one FCM class (implies FCM kind in practice).
    pub fn class(mut self, class: FcmClass) -> Query {
        self.class = Some(class);
        self
    }

    /// Restricts to one zone.
    pub fn zone(mut self, zone: impl Into<String>) -> Query {
        self.zone = Some(zone.into());
        self
    }

    /// Restricts to elements hosted by one device.
    pub fn guid(mut self, guid: Guid) -> Query {
        self.guid = Some(guid);
        self
    }

    /// Restricts to names containing a substring (case-sensitive).
    pub fn name_contains(mut self, s: impl Into<String>) -> Query {
        self.name_contains = Some(s.into());
        self
    }

    /// Whether `r` satisfies every set constraint.
    pub fn matches(&self, r: &Registration) -> bool {
        self.kind.is_none_or(|k| r.kind == k)
            && self.class.is_none_or(|c| r.class == Some(c))
            && self.zone.as_deref().is_none_or(|z| r.zone == z)
            && self.guid.is_none_or(|g| r.seid.guid == g)
            && self
                .name_contains
                .as_deref()
                .is_none_or(|s| r.name.contains(s))
    }
}

/// The software-element registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: Vec<Registration>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers an element. Replaces any previous entry with the same
    /// SEID and returns true when a replacement happened.
    pub fn register(&mut self, reg: Registration) -> bool {
        let replaced = self.unregister(reg.seid);
        self.entries.push(reg);
        replaced
    }

    /// Removes an element. Returns true when it existed.
    pub fn unregister(&mut self, seid: Seid) -> bool {
        let before = self.entries.len();
        self.entries.retain(|r| r.seid != seid);
        before != self.entries.len()
    }

    /// Removes every element hosted by `guid`, returning how many.
    pub fn unregister_device(&mut self, guid: Guid) -> usize {
        let before = self.entries.len();
        self.entries.retain(|r| r.seid.guid != guid);
        before - self.entries.len()
    }

    /// All entries matching `query`, in registration order.
    pub fn query(&self, query: &Query) -> Vec<&Registration> {
        self.entries.iter().filter(|r| query.matches(r)).collect()
    }

    /// First match for `query`.
    pub fn find(&self, query: &Query) -> Option<&Registration> {
        self.entries.iter().find(|r| query.matches(r))
    }

    /// Entry for an exact SEID.
    pub fn lookup(&self, seid: Seid) -> Option<&Registration> {
        self.entries.iter().find(|r| r.seid == seid)
    }

    /// Number of registered elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> core::slice::Iter<'_, Registration> {
        self.entries.iter()
    }
}

impl<'a> IntoIterator for &'a Registry {
    type Item = &'a Registration;
    type IntoIter = core::slice::Iter<'a, Registration>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(
        guid: u64,
        handle: u32,
        kind: ElementKind,
        class: Option<FcmClass>,
        name: &str,
        zone: &str,
    ) -> Registration {
        Registration {
            seid: Seid::new(Guid(guid), handle),
            kind,
            class,
            name: name.into(),
            zone: zone.into(),
        }
    }

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.register(reg(1, 0, ElementKind::Dcm, None, "TV", "living-room"));
        r.register(reg(
            1,
            1,
            ElementKind::Fcm,
            Some(FcmClass::Tuner),
            "TV Tuner",
            "living-room",
        ));
        r.register(reg(
            1,
            2,
            ElementKind::Fcm,
            Some(FcmClass::Display),
            "TV Display",
            "living-room",
        ));
        r.register(reg(2, 0, ElementKind::Dcm, None, "VCR", "living-room"));
        r.register(reg(
            2,
            1,
            ElementKind::Fcm,
            Some(FcmClass::Vcr),
            "VCR Deck",
            "living-room",
        ));
        r.register(reg(
            3,
            1,
            ElementKind::Fcm,
            Some(FcmClass::Light),
            "Kitchen Light",
            "kitchen",
        ));
        r
    }

    #[test]
    fn query_by_class() {
        let r = sample();
        let hits = r.query(&Query::new().class(FcmClass::Vcr));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "VCR Deck");
    }

    #[test]
    fn query_by_zone() {
        let r = sample();
        assert_eq!(r.query(&Query::new().zone("living-room")).len(), 5);
        assert_eq!(r.query(&Query::new().zone("kitchen")).len(), 1);
        assert_eq!(r.query(&Query::new().zone("attic")).len(), 0);
    }

    #[test]
    fn query_compound() {
        let r = sample();
        let hits = r.query(
            &Query::new()
                .kind(ElementKind::Fcm)
                .zone("living-room")
                .guid(Guid(1)),
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn query_name_substring() {
        let r = sample();
        assert_eq!(r.query(&Query::new().name_contains("Tuner")).len(), 1);
    }

    #[test]
    fn empty_query_matches_all() {
        let r = sample();
        assert_eq!(r.query(&Query::new()).len(), r.len());
    }

    #[test]
    fn register_replaces_same_seid() {
        let mut r = sample();
        let n = r.len();
        let replaced = r.register(reg(
            1,
            1,
            ElementKind::Fcm,
            Some(FcmClass::Tuner),
            "New Tuner",
            "living-room",
        ));
        assert!(replaced);
        assert_eq!(r.len(), n);
        assert_eq!(r.lookup(Seid::new(Guid(1), 1)).unwrap().name, "New Tuner");
    }

    #[test]
    fn unregister_device_removes_all_elements() {
        let mut r = sample();
        assert_eq!(r.unregister_device(Guid(1)), 3);
        assert!(r.query(&Query::new().guid(Guid(1))).is_empty());
        assert_eq!(r.unregister_device(Guid(1)), 0);
    }

    #[test]
    fn find_and_lookup() {
        let r = sample();
        assert!(r.find(&Query::new().class(FcmClass::Light)).is_some());
        assert!(r.lookup(Seid::new(Guid(9), 9)).is_none());
    }
}
