//! The simulated home network: device attachment (DCMs with their FCMs),
//! command routing, event posting and simulated time.

use crate::events::{EventManager, HaviEvent};
use crate::fcm::{Fcm, FcmCommand, FcmResponse, StateChange};
use crate::id::{Guid, GuidAllocator, Seid};
use crate::messaging::MessagingSystem;
use crate::registry::{ElementKind, Query, Registration, Registry};
use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;

/// Errors from network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// No element with that SEID.
    UnknownSeid(Seid),
    /// The SEID names a DCM, not a commandable FCM.
    NotAnFcm(Seid),
}

impl core::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetworkError::UnknownSeid(s) => write!(f, "unknown software element {s}"),
            NetworkError::NotAnFcm(s) => write!(f, "element {s} is not an fcm"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Description of a device to attach: a DCM hosting one or more FCMs.
#[derive(Debug)]
pub struct DeviceSpec {
    name: String,
    zone: String,
    fcms: Vec<Box<dyn Fcm>>,
}

impl DeviceSpec {
    /// Starts a device description.
    pub fn new(name: impl Into<String>, zone: impl Into<String>) -> DeviceSpec {
        DeviceSpec {
            name: name.into(),
            zone: zone.into(),
            fcms: Vec::new(),
        }
    }

    /// Adds an FCM to the device.
    pub fn with_fcm(mut self, fcm: impl Fcm + 'static) -> DeviceSpec {
        self.fcms.push(Box::new(fcm));
        self
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[derive(Debug)]
struct DeviceEntry {
    fcms: BTreeMap<u32, Box<dyn Fcm>>,
}

/// The home network: registry + event manager + attached devices.
///
/// ```
/// use uniint_havi::prelude::*;
/// let mut net = HomeNetwork::new();
/// let tv = net.attach(
///     DeviceSpec::new("TV", "living-room")
///         .with_fcm(TunerFcm::new("TV Tuner", 12))
///         .with_fcm(DisplayFcm::new("TV Display", 3)),
/// );
/// let tuner = net
///     .registry()
///     .find(&Query::new().class(FcmClass::Tuner))
///     .unwrap()
///     .seid;
/// net.send(tuner, &FcmCommand::SetPower(true)).unwrap();
/// # let _ = tv;
/// ```
#[derive(Debug, Default)]
pub struct HomeNetwork {
    alloc: GuidAllocator,
    devices: BTreeMap<Guid, DeviceEntry>,
    registry: Registry,
    events: EventManager,
    messaging: MessagingSystem,
    /// Count of control messages routed (for the E8 bench).
    messages_routed: u64,
}

impl HomeNetwork {
    /// Creates an empty network.
    pub fn new() -> HomeNetwork {
        HomeNetwork {
            alloc: GuidAllocator::new(),
            ..Default::default()
        }
    }

    /// Attaches a device, registering its DCM (handle 0) and FCMs
    /// (handles 1..). Posts [`HaviEvent::DeviceAdded`].
    pub fn attach(&mut self, spec: DeviceSpec) -> Guid {
        let guid = self.alloc.allocate();
        self.registry.register(Registration {
            seid: Seid::new(guid, 0),
            kind: ElementKind::Dcm,
            class: None,
            name: spec.name,
            zone: spec.zone.clone(),
        });
        self.messaging.open(Seid::new(guid, 0));
        let mut fcms = BTreeMap::new();
        for (i, fcm) in spec.fcms.into_iter().enumerate() {
            let handle = i as u32 + 1;
            self.messaging.open(Seid::new(guid, handle));
            self.registry.register(Registration {
                seid: Seid::new(guid, handle),
                kind: ElementKind::Fcm,
                class: Some(fcm.class()),
                name: fcm.name().to_owned(),
                zone: spec.zone.clone(),
            });
            fcms.insert(handle, fcm);
        }
        self.devices.insert(guid, DeviceEntry { fcms });
        self.events.post(HaviEvent::DeviceAdded(guid));
        guid
    }

    /// Detaches a device (power unplugged). Posts
    /// [`HaviEvent::DeviceRemoved`]. Returns false when unknown.
    pub fn detach(&mut self, guid: Guid) -> bool {
        let Some(entry) = self.devices.remove(&guid) else {
            return false;
        };
        self.messaging.close(Seid::new(guid, 0));
        for &handle in entry.fcms.keys() {
            self.messaging.close(Seid::new(guid, handle));
        }
        self.registry.unregister_device(guid);
        self.events.post(HaviEvent::DeviceRemoved(guid));
        true
    }

    /// The discovery registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The element-to-element messaging system. Mailboxes for attached
    /// elements are opened and closed automatically; havlets and UI
    /// services register their own with [`MessagingSystem::open`].
    pub fn messaging(&mut self) -> &mut MessagingSystem {
        &mut self.messaging
    }

    /// Subscribes to network events.
    pub fn subscribe(&mut self) -> Receiver<HaviEvent> {
        self.events.subscribe()
    }

    /// Attached device GUIDs.
    pub fn device_guids(&self) -> Vec<Guid> {
        self.devices.keys().copied().collect()
    }

    /// Sends a control command to an FCM, posting state-change events for
    /// any mutated variables.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownSeid`] when no such element exists,
    /// [`NetworkError::NotAnFcm`] when addressing a DCM (handle 0).
    pub fn send(&mut self, seid: Seid, cmd: &FcmCommand) -> Result<FcmResponse, NetworkError> {
        if seid.handle == 0 {
            return if self.devices.contains_key(&seid.guid) {
                Err(NetworkError::NotAnFcm(seid))
            } else {
                Err(NetworkError::UnknownSeid(seid))
            };
        }
        let dev = self
            .devices
            .get_mut(&seid.guid)
            .ok_or(NetworkError::UnknownSeid(seid))?;
        let fcm = dev
            .fcms
            .get_mut(&seid.handle)
            .ok_or(NetworkError::UnknownSeid(seid))?;
        self.messages_routed += 1;
        let resp = fcm.handle(cmd);
        if let FcmResponse::Ok(vars) = &resp {
            if !vars.is_empty() {
                let change = StateChange {
                    seid,
                    class: fcm.class(),
                    vars: vars.clone(),
                };
                self.events.post(HaviEvent::StateChanged(change));
            }
        }
        Ok(resp)
    }

    /// Reads an FCM's status snapshot without posting events.
    pub fn status(&self, seid: Seid) -> Result<Vec<crate::fcm::StateVar>, NetworkError> {
        let dev = self
            .devices
            .get(&seid.guid)
            .ok_or(NetworkError::UnknownSeid(seid))?;
        let fcm = dev
            .fcms
            .get(&seid.handle)
            .ok_or(NetworkError::UnknownSeid(seid))?;
        Ok(fcm.status())
    }

    /// Advances simulated time for every FCM, posting state changes
    /// (tape motion, clock ticks, room temperature drift).
    pub fn tick(&mut self, dt_ms: u64) {
        let mut changes = Vec::new();
        for (&guid, dev) in &mut self.devices {
            for (&handle, fcm) in &mut dev.fcms {
                let vars = fcm.tick(dt_ms);
                if !vars.is_empty() {
                    changes.push(StateChange {
                        seid: Seid::new(guid, handle),
                        class: fcm.class(),
                        vars,
                    });
                }
            }
        }
        for c in changes {
            self.events.post(HaviEvent::StateChanged(c));
        }
    }

    /// Total control messages routed since creation.
    pub fn messages_routed(&self) -> u64 {
        self.messages_routed
    }

    /// Convenience: the SEIDs of every FCM matching `query`.
    pub fn find_fcms(&self, query: &Query) -> Vec<Seid> {
        self.registry
            .query(&query.clone().kind(ElementKind::Fcm))
            .into_iter()
            .map(|r| r.seid)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcm::{FcmClass, StateVar, Transport};
    use crate::fcms::{AmplifierFcm, TunerFcm, VcrFcm};

    fn tv_and_vcr() -> (HomeNetwork, Guid, Guid) {
        let mut net = HomeNetwork::new();
        let tv = net
            .attach(DeviceSpec::new("TV", "living-room").with_fcm(TunerFcm::new("TV Tuner", 12)));
        let vcr = net
            .attach(DeviceSpec::new("VCR", "living-room").with_fcm(VcrFcm::new("VCR Deck", 3600)));
        (net, tv, vcr)
    }

    #[test]
    fn attach_registers_dcm_and_fcms() {
        let (net, tv, _) = tv_and_vcr();
        assert_eq!(net.registry().len(), 4);
        let dcm = net.registry().lookup(Seid::new(tv, 0)).unwrap();
        assert_eq!(dcm.kind, ElementKind::Dcm);
        let fcm = net.registry().lookup(Seid::new(tv, 1)).unwrap();
        assert_eq!(fcm.class, Some(FcmClass::Tuner));
    }

    #[test]
    fn attach_posts_event() {
        let mut net = HomeNetwork::new();
        let rx = net.subscribe();
        let g = net.attach(DeviceSpec::new("Amp", "den").with_fcm(AmplifierFcm::new("Amp")));
        assert_eq!(rx.try_recv().unwrap(), HaviEvent::DeviceAdded(g));
    }

    #[test]
    fn detach_unregisters_and_posts() {
        let (mut net, tv, _) = tv_and_vcr();
        let rx = net.subscribe();
        assert!(net.detach(tv));
        assert!(!net.detach(tv));
        assert_eq!(rx.try_recv().unwrap(), HaviEvent::DeviceRemoved(tv));
        assert!(net.registry().lookup(Seid::new(tv, 1)).is_none());
    }

    #[test]
    fn send_routes_and_posts_state_change() {
        let (mut net, tv, _) = tv_and_vcr();
        let rx = net.subscribe();
        let seid = Seid::new(tv, 1);
        let resp = net.send(seid, &FcmCommand::SetPower(true)).unwrap();
        assert!(resp.is_ok());
        match rx.try_recv().unwrap() {
            HaviEvent::StateChanged(c) => {
                assert_eq!(c.seid, seid);
                assert_eq!(c.vars, vec![StateVar::Power(true)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failed_command_posts_nothing() {
        let (mut net, tv, _) = tv_and_vcr();
        let rx = net.subscribe();
        let seid = Seid::new(tv, 1);
        let resp = net.send(seid, &FcmCommand::SetChannel(5)).unwrap();
        assert!(!resp.is_ok(), "tuner is off");
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn send_to_unknown_or_dcm_errors() {
        let (mut net, tv, _) = tv_and_vcr();
        assert_eq!(
            net.send(Seid::new(Guid(99), 1), &FcmCommand::GetStatus),
            Err(NetworkError::UnknownSeid(Seid::new(Guid(99), 1)))
        );
        assert_eq!(
            net.send(Seid::new(tv, 0), &FcmCommand::GetStatus),
            Err(NetworkError::NotAnFcm(Seid::new(tv, 0)))
        );
        assert_eq!(
            net.send(Seid::new(tv, 9), &FcmCommand::GetStatus),
            Err(NetworkError::UnknownSeid(Seid::new(tv, 9)))
        );
    }

    #[test]
    fn tick_moves_tape_and_posts() {
        let (mut net, _, vcr) = tv_and_vcr();
        let seid = Seid::new(vcr, 1);
        net.send(seid, &FcmCommand::SetPower(true)).unwrap();
        net.send(seid, &FcmCommand::Transport(Transport::Play))
            .unwrap();
        let rx = net.subscribe();
        net.tick(2_000);
        match rx.try_recv().unwrap() {
            HaviEvent::StateChanged(c) => assert!(c.vars.contains(&StateVar::TapePos(2))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn find_fcms_by_class() {
        let (net, _, vcr) = tv_and_vcr();
        let seids = net.find_fcms(&Query::new().class(FcmClass::Vcr));
        assert_eq!(seids, vec![Seid::new(vcr, 1)]);
    }

    #[test]
    fn status_reads_without_events() {
        let (mut net, tv, _) = tv_and_vcr();
        let rx = net.subscribe();
        let seid = Seid::new(tv, 1);
        net.send(seid, &FcmCommand::SetPower(true)).unwrap();
        let _ = rx.try_recv();
        let vars = net.status(seid).unwrap();
        assert!(vars.contains(&StateVar::Power(true)));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn messages_counted() {
        let (mut net, tv, _) = tv_and_vcr();
        let seid = Seid::new(tv, 1);
        net.send(seid, &FcmCommand::SetPower(true)).unwrap();
        net.send(seid, &FcmCommand::SetChannel(2)).unwrap();
        assert_eq!(net.messages_routed(), 2);
    }

    #[test]
    fn hotplug_same_name_gets_new_guid() {
        let mut net = HomeNetwork::new();
        let a = net.attach(DeviceSpec::new("Amp", "den").with_fcm(AmplifierFcm::new("Amp")));
        net.detach(a);
        let b = net.attach(DeviceSpec::new("Amp", "den").with_fcm(AmplifierFcm::new("Amp")));
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod messaging_integration_tests {
    use super::*;
    use crate::fcms::TunerFcm;

    #[test]
    fn attach_opens_mailboxes_detach_closes_with_watch() {
        let mut net = HomeNetwork::new();
        let g = net.attach(DeviceSpec::new("TV", "lr").with_fcm(TunerFcm::new("t", 5)));
        let dcm = Seid::new(g, 0);
        let fcm = Seid::new(g, 1);
        assert!(net.messaging().is_open(dcm));
        assert!(net.messaging().is_open(fcm));

        // A UI service watches the FCM and hears about its departure.
        let ui_service = Seid::new(Guid(0xffff), 1);
        net.messaging().open(ui_service);
        net.messaging().watch(ui_service, fcm).unwrap();
        net.detach(g);
        assert!(!net.messaging().is_open(fcm));
        let note = net.messaging().recv(ui_service).expect("watch-on fired");
        assert_eq!(note.from, fcm);
    }

    #[test]
    fn elements_can_exchange_messages() {
        let mut net = HomeNetwork::new();
        let a = net.attach(DeviceSpec::new("A", "z").with_fcm(TunerFcm::new("t", 5)));
        let b = net.attach(DeviceSpec::new("B", "z").with_fcm(TunerFcm::new("t", 5)));
        let (sa, sb) = (Seid::new(a, 1), Seid::new(b, 1));
        net.messaging().send(sa, sb, b"hello".to_vec()).unwrap();
        let msg = net.messaging().recv(sb).unwrap();
        assert_eq!(msg.from, sa);
        assert_eq!(msg.payload, b"hello");
    }
}
