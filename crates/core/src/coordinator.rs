//! The interaction coordinator: tracks which interaction devices are
//! available, applies [`crate::context::select`] to each [`Role`]
//! whenever the situation changes, and performs the dynamic plug-in
//! switches on the proxy. An output switch's renegotiation waits in the
//! proxy's outbox for the session to send; a [`SwitchReport`] only says
//! what changed.

use std::borrow::Borrow;
use std::collections::BTreeSet;

use crate::context::{select, DeviceDescriptor, Role, Situation, UserProfile};
use crate::plugin::{InputPlugin, OutputPlugin};
use crate::proxy::UniIntProxy;

/// Factory producing a fresh input plug-in (the "module the device
/// transmits to the proxy" in the paper).
pub type InputFactory = Box<dyn Fn() -> Box<dyn InputPlugin> + Send>;
/// Factory producing a fresh output plug-in.
pub type OutputFactory = Box<dyn Fn() -> Box<dyn OutputPlugin> + Send>;

/// An interaction device as registered with the coordinator: a
/// capability descriptor plus the plug-ins it can upload.
pub struct InteractionDevice {
    descriptor: DeviceDescriptor,
    input_factory: Option<InputFactory>,
    output_factory: Option<OutputFactory>,
}

impl core::fmt::Debug for InteractionDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InteractionDevice")
            .field("descriptor", &self.descriptor)
            .field("has_input", &self.input_factory.is_some())
            .field("has_output", &self.output_factory.is_some())
            .finish()
    }
}

impl InteractionDevice {
    /// Creates a device from its descriptor.
    pub fn new(descriptor: DeviceDescriptor) -> InteractionDevice {
        InteractionDevice {
            descriptor,
            input_factory: None,
            output_factory: None,
        }
    }

    /// Attaches the input plug-in factory.
    pub fn with_input_factory(mut self, f: InputFactory) -> InteractionDevice {
        self.input_factory = Some(f);
        self
    }

    /// Attaches the output plug-in factory.
    pub fn with_output_factory(mut self, f: OutputFactory) -> InteractionDevice {
        self.output_factory = Some(f);
        self
    }

    /// The descriptor.
    pub fn descriptor(&self) -> &DeviceDescriptor {
        &self.descriptor
    }

    /// Rewrites the input factory through `wrap` (no-op when the device
    /// has none). This is how supervisors and chaos harnesses interpose
    /// shims without access to the private factory field.
    pub fn map_input_factory(
        mut self,
        wrap: impl FnOnce(InputFactory) -> InputFactory,
    ) -> InteractionDevice {
        self.input_factory = self.input_factory.take().map(wrap);
        self
    }

    /// Rewrites the output factory through `wrap` (no-op when absent).
    pub fn map_output_factory(
        mut self,
        wrap: impl FnOnce(OutputFactory) -> OutputFactory,
    ) -> InteractionDevice {
        self.output_factory = self.output_factory.take().map(wrap);
        self
    }

    /// This device as a candidate for `role`; `None` when it uploads no
    /// plug-in for that role.
    fn candidate(&self, role: Role) -> Option<Candidate<'_>> {
        let factory = match role {
            Role::Input => RoleFactory::Input(self.input_factory.as_ref()?),
            Role::Output => RoleFactory::Output(self.output_factory.as_ref()?),
        };
        Some(Candidate {
            descriptor: &self.descriptor,
            factory,
        })
    }
}

/// A registered device competing for one role, holding the factory of
/// the plug-in it uploads if it wins.
struct Candidate<'a> {
    descriptor: &'a DeviceDescriptor,
    factory: RoleFactory<'a>,
}

enum RoleFactory<'a> {
    Input(&'a InputFactory),
    Output(&'a OutputFactory),
}

impl Borrow<DeviceDescriptor> for Candidate<'_> {
    fn borrow(&self) -> &DeviceDescriptor {
        self.descriptor
    }
}

impl Candidate<'_> {
    /// Uploads a fresh plug-in to the proxy.
    fn attach(&self, proxy: &mut UniIntProxy) {
        match self.factory {
            RoleFactory::Input(f) => proxy.attach_input(f()),
            RoleFactory::Output(f) => proxy.attach_output(f()),
        }
    }
}

/// Removes the proxy's plug-in for `role`.
fn detach(role: Role, proxy: &mut UniIntProxy) {
    match role {
        Role::Input => proxy.detach_input(),
        Role::Output => proxy.detach_output(),
    }
}

/// What a reselection changed.
#[derive(Debug, Default, PartialEq)]
pub struct SwitchReport {
    /// New active input device id, when it changed.
    pub input_switched_to: Option<String>,
    /// New active output device id, when it changed.
    pub output_switched_to: Option<String>,
}

impl SwitchReport {
    /// Whether anything changed.
    pub fn changed(&self) -> bool {
        self.input_switched_to.is_some() || self.output_switched_to.is_some()
    }

    /// The field naming `role`'s new device.
    fn switched_to(&mut self, role: Role) -> &mut Option<String> {
        match role {
            Role::Input => &mut self.input_switched_to,
            Role::Output => &mut self.output_switched_to,
        }
    }
}

/// Tracks devices and the user's situation, switching proxy plug-ins.
pub struct Coordinator {
    devices: Vec<InteractionDevice>,
    profile: UserProfile,
    situation: Situation,
    /// The active device id per role, indexed by `Role as usize`.
    active: [Option<String>; 2],
    /// Device ids excluded from selection (quarantined/dead, as told by
    /// the supervisor). Orthogonal to registration: an excluded device
    /// stays registered and resumes competing once readmitted.
    excluded: BTreeSet<String>,
}

impl core::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Coordinator")
            .field("devices", &self.devices.len())
            .field("situation", &self.situation)
            .field("active_input", &self.active_input())
            .field("active_output", &self.active_output())
            .finish()
    }
}

impl Coordinator {
    /// Creates a coordinator with no devices.
    pub fn new(profile: UserProfile, situation: Situation) -> Coordinator {
        Coordinator {
            devices: Vec::new(),
            profile,
            situation,
            active: [None, None],
            excluded: BTreeSet::new(),
        }
    }

    /// Current situation.
    pub fn situation(&self) -> &Situation {
        &self.situation
    }

    /// Active input device id.
    pub fn active_input(&self) -> Option<&str> {
        self.active(Role::Input)
    }

    /// Active output device id.
    pub fn active_output(&self) -> Option<&str> {
        self.active(Role::Output)
    }

    /// Active device id for `role`.
    pub(crate) fn active(&self, role: Role) -> Option<&str> {
        self.active[role as usize].as_deref()
    }

    /// Registered device descriptors.
    pub fn descriptors(&self) -> Vec<&DeviceDescriptor> {
        self.devices.iter().map(|d| &d.descriptor).collect()
    }

    /// Registers a device (it became reachable) and reselects.
    pub fn register(&mut self, device: InteractionDevice, proxy: &mut UniIntProxy) -> SwitchReport {
        // Re-registering the active device replaces its factories, so the
        // currently attached plug-ins are stale: `remove` detaches them and
        // reselect uploads fresh ones. Without this, a churned device keeps
        // serving through plug-ins from a registration that no longer exists.
        self.remove(&device.descriptor.id, proxy);
        self.devices.push(device);
        self.reselect(proxy)
    }

    /// Unregisters a device (battery died, user left it behind) and
    /// reselects. Returns the report; `false` changes mean it was not the
    /// active device.
    pub fn unregister(&mut self, id: &str, proxy: &mut UniIntProxy) -> SwitchReport {
        if !self.remove(id, proxy) {
            return SwitchReport::default();
        }
        self.reselect(proxy)
    }

    /// Drops `id`'s registration and detaches the plug-ins it serves.
    /// Returns whether it was registered.
    fn remove(&mut self, id: &str, proxy: &mut UniIntProxy) -> bool {
        let before = self.devices.len();
        self.devices.retain(|d| d.descriptor.id != id);
        for role in Role::BOTH {
            if self.active(role) == Some(id) {
                self.active[role as usize] = None;
                detach(role, proxy);
            }
        }
        self.devices.len() < before
    }

    /// Updates the user's situation and reselects devices — the paper's
    /// dynamic switch (cooking → voice, sofa → remote + TV).
    pub fn set_situation(&mut self, situation: Situation, proxy: &mut UniIntProxy) -> SwitchReport {
        self.situation = situation;
        self.reselect(proxy)
    }

    /// Updates the user profile and reselects.
    pub fn set_profile(&mut self, profile: UserProfile, proxy: &mut UniIntProxy) -> SwitchReport {
        self.profile = profile;
        self.reselect(proxy)
    }

    /// Marks a device as (un)available for selection without touching its
    /// registration. The supervisor calls this when health transitions
    /// quarantine or readmit a device; it does *not* reselect — callers
    /// batch availability changes and then [`Coordinator::reselect`].
    pub fn set_available(&mut self, id: &str, available: bool) -> bool {
        if available {
            self.excluded.remove(id)
        } else {
            self.excluded.insert(id.to_owned())
        }
    }

    /// Applies the policy to each role, switching plug-ins where the best
    /// device differs from the active one. Only devices that carry the
    /// role's plug-in factory and are not excluded compete for it.
    pub fn reselect(&mut self, proxy: &mut UniIntProxy) -> SwitchReport {
        let mut report = SwitchReport::default();
        for role in Role::BOTH {
            let candidates: Vec<Candidate<'_>> = self
                .devices
                .iter()
                .filter(|d| !self.excluded.contains(&d.descriptor.id))
                .filter_map(|d| d.candidate(role))
                .collect();
            let best = select(role, &candidates, &self.situation, &self.profile);
            let active = &mut self.active[role as usize];
            let to = best.map(|c| c.descriptor.id.as_str());
            if to == active.as_deref() {
                continue;
            }
            match best {
                Some(winner) => {
                    winner.attach(proxy);
                    let switches = format!("coordinator.{}_switches", role.name());
                    proxy.telemetry().counter(&switches).inc();
                }
                None => detach(role, proxy),
            }
            let from = active.as_deref().map_or("-", |id| id);
            let line = format!("{}: {from} -> {}", role.name(), to.map_or("-", |id| id));
            proxy
                .telemetry()
                .journal()
                .record("coordinator.switch", line);
            *active = to.map(str::to_owned);
            *report.switched_to(role) = active.clone();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Activity, InputModality, Noise, OutputProfile};
    use crate::plugin::{DeviceEvent, DeviceFrame, InputContext, OutputCaps};
    use uniint_protocol::input::InputEvent;
    use uniint_raster::dither::DitherMode;
    use uniint_raster::framebuffer::Framebuffer;
    use uniint_raster::geom::Size;
    use uniint_raster::pixel::PixelFormat;
    use uniint_raster::scale::{scale_to_fit, ScaleFilter};

    #[derive(Debug)]
    struct NullInput(&'static str);
    impl InputPlugin for NullInput {
        fn kind(&self) -> &'static str {
            self.0
        }
        fn translate(&mut self, _ev: &DeviceEvent, _ctx: &InputContext) -> Vec<InputEvent> {
            Vec::new()
        }
    }

    #[derive(Debug)]
    struct NullOutput(&'static str);
    impl OutputPlugin for NullOutput {
        fn kind(&self) -> &'static str {
            self.0
        }
        fn caps(&self) -> OutputCaps {
            OutputCaps {
                size: Size::new(64, 64),
                format: PixelFormat::Rgb888,
                dither: DitherMode::None,
                scale: ScaleFilter::Nearest,
            }
        }
        fn adapt(&mut self, fb: &Framebuffer) -> DeviceFrame {
            DeviceFrame::new(
                scale_to_fit(fb, Size::new(64, 64), ScaleFilter::Nearest),
                PixelFormat::Rgb888,
                0,
            )
        }
    }

    /// A proxy without a session and a coordinator for user `u` in `sit`.
    fn rig(sit: Situation) -> (UniIntProxy, Coordinator) {
        let coord = Coordinator::new(UserProfile::neutral("u"), sit);
        (UniIntProxy::new("p"), coord)
    }

    fn phone() -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::carried("phone-1", "Phone").with_input(InputModality::Keypad),
        )
        .with_input_factory(Box::new(|| Box::new(NullInput("keypad"))))
    }

    fn kitchen_mic() -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::fixed("mic-1", "Mic", "kitchen").with_input(InputModality::Voice),
        )
        .with_input_factory(Box::new(|| Box::new(NullInput("voice"))))
    }

    fn pda_screen() -> InteractionDevice {
        InteractionDevice::new(DeviceDescriptor::carried("pda-1", "PDA").with_output(
            OutputProfile {
                size: Size::new(240, 320),
                depth_bits: 12,
                far_readable: false,
            },
        ))
        .with_output_factory(Box::new(|| Box::new(NullOutput("pda-screen"))))
    }

    fn cooking() -> Situation {
        Situation {
            zone: "kitchen".into(),
            activity: Activity::Cooking,
            hands_busy: true,
            noise: Noise::Moderate,
        }
    }

    /// Idle in the kitchen with normal background noise: the carried
    /// phone outranks the fixed mic here, so tests can observe the
    /// switch when the situation changes.
    fn idle_kitchen() -> Situation {
        Situation {
            zone: "kitchen".into(),
            activity: Activity::Idle,
            hands_busy: false,
            noise: Noise::Moderate,
        }
    }

    #[test]
    fn register_selects_first_device() {
        let (mut proxy, mut coord) = rig(Situation::idle("kitchen"));
        let report = coord.register(phone(), &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad"));
    }

    #[test]
    fn situation_change_switches_to_voice() {
        let (mut proxy, mut coord) = rig(idle_kitchen());
        coord.register(phone(), &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        // Idle: keypad still fine (carried). Now hands get busy:
        let report = coord.set_situation(cooking(), &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("mic-1"));
        assert_eq!(proxy.attached().0, Some("voice"));
    }

    #[test]
    fn no_switch_when_best_unchanged() {
        let (mut proxy, mut coord) = rig(cooking());
        coord.register(kitchen_mic(), &mut proxy);
        let report = coord.set_situation(cooking(), &mut proxy);
        assert!(!report.changed());
    }

    #[test]
    fn unregister_active_device_falls_back() {
        let (mut proxy, mut coord) = rig(cooking());
        coord.register(phone(), &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        assert_eq!(coord.active_input(), Some("mic-1"));
        let report = coord.unregister("mic-1", &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad"));
    }

    #[test]
    fn unregister_unknown_is_noop() {
        let (mut proxy, mut coord) = rig(cooking());
        coord.register(phone(), &mut proxy);
        let report = coord.unregister("nope", &mut proxy);
        assert!(!report.changed());
    }

    #[test]
    fn unregister_last_input_detaches() {
        let (mut proxy, mut coord) = rig(cooking());
        coord.register(kitchen_mic(), &mut proxy);
        coord.unregister("mic-1", &mut proxy);
        assert_eq!(coord.active_input(), None);
        assert_eq!(proxy.attached().0, None);
    }

    #[test]
    fn output_registration_queues_the_renegotiation_when_connected() {
        let mut proxy = UniIntProxy::new("p");
        proxy
            .handle_server(&uniint_protocol::message::ServerMessage::Init {
                version: 1,
                width: 100,
                height: 100,
                format: PixelFormat::Rgb888,
                name: "x".into(),
            })
            .unwrap();
        let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("kitchen"));
        let report = coord.register(pda_screen(), &mut proxy);
        assert_eq!(report.output_switched_to.as_deref(), Some("pda-1"));
        let queued = proxy.take_outbox();
        assert!(!queued.is_empty(), "output switch renegotiates");
    }

    #[test]
    fn re_register_same_id_replaces() {
        let (mut proxy, mut coord) = rig(Situation::idle("kitchen"));
        coord.register(phone(), &mut proxy);
        coord.register(phone(), &mut proxy);
        assert_eq!(coord.descriptors().len(), 1);
    }

    #[test]
    fn re_register_active_device_reattaches_fresh_plugin() {
        let (mut proxy, mut coord) = rig(Situation::idle("kitchen"));
        coord.register(phone(), &mut proxy);
        assert_eq!(proxy.attached().0, Some("keypad"));
        // Same id returns with a *different* plug-in: the proxy must not
        // keep serving through the stale one.
        let v2 = InteractionDevice::new(
            DeviceDescriptor::carried("phone-1", "Phone").with_input(InputModality::Keypad),
        )
        .with_input_factory(Box::new(|| Box::new(NullInput("keypad-v2"))));
        let report = coord.register(v2, &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad-v2"));
    }

    #[test]
    fn excluded_device_loses_selection_and_readmission_restores_it() {
        let (mut proxy, mut coord) = rig(cooking());
        coord.register(phone(), &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        assert_eq!(coord.active_input(), Some("mic-1"));
        coord.set_available("mic-1", false);
        let report = coord.reselect(&mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad"));
        coord.set_available("mic-1", true);
        let report = coord.reselect(&mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("mic-1"));
    }

    #[test]
    fn exclusion_survives_reregistration() {
        // Exclusion is orthogonal to registration: a quarantined or dead
        // device that is unplugged and plugged back in stays excluded.
        let (mut proxy, mut coord) = rig(cooking());
        coord.register(kitchen_mic(), &mut proxy);
        coord.set_available("mic-1", false);
        coord.reselect(&mut proxy);
        coord.unregister("mic-1", &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        assert_eq!(coord.active_input(), None);
        assert_eq!(proxy.attached().0, None);
    }

    #[test]
    fn excluding_every_device_detaches() {
        let (mut proxy, mut coord) = rig(cooking());
        coord.register(kitchen_mic(), &mut proxy);
        coord.set_available("mic-1", false);
        coord.reselect(&mut proxy);
        assert_eq!(coord.active_input(), None);
        assert_eq!(proxy.attached().0, None);
    }

    #[test]
    fn factory_less_descriptor_is_not_a_candidate() {
        // A device advertising input modality but uploading no plug-in
        // must never win selection (previously it won and the attach was
        // silently skipped, wedging the active slot).
        let (mut proxy, mut coord) = rig(cooking());
        let ghost = InteractionDevice::new(
            DeviceDescriptor::fixed("ghost", "Ghost", "kitchen").with_input(InputModality::Voice),
        );
        coord.register(ghost, &mut proxy);
        coord.register(phone(), &mut proxy);
        assert_eq!(coord.active_input(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad"));
    }

    #[test]
    fn profile_change_reselects() {
        let (mut proxy, mut coord) = rig(idle_kitchen());
        coord.register(phone(), &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        let mut profile = UserProfile::neutral("u");
        profile.input_ranking = vec![InputModality::Voice];
        let report = coord.set_profile(profile, &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("mic-1"));
    }
}
