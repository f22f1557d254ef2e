//! # uniint-core
//!
//! The paper's primary contribution: **universal interaction** for
//! networked home appliances (Nakajima & Hasegawa, ICDCS 2002).
//!
//! Universal interaction fixes a tiny, device-independent vocabulary —
//! bitmap images out, keyboard/mouse events in — and places a proxy
//! between appliance GUIs and whatever interaction devices the user
//! currently prefers:
//!
//! - [`multi::MultiServer`] exports an unmodified toolkit window
//!   (crate `uniint-wsys`) over the universal interaction protocol
//!   (crate `uniint-protocol`) to one proxy or many; [`server`] holds
//!   each client's protocol state, and `pump_all` is the one place an
//!   update is built;
//! - [`proxy::UniIntProxy`] replaces the thin-client viewer: it hosts the
//!   per-device **plug-in modules** ([`plugin`]) that adapt bitmaps to
//!   each output device and translate device events to universal input;
//! - [`context`] models the user's situation and preferences, and
//!   [`coordinator::Coordinator`] switches plug-ins dynamically as the
//!   situation changes — cooking selects voice, the sofa selects the
//!   remote and the TV;
//! - [`host::SessionHost`] is the server side of every connection's
//!   lifecycle, with no socket and no clock: name-keyed sessions,
//!   adoption on reconnect, displacement and expiry over one
//!   [`multi::MultiServer`]. The gateway's `poll(2)` loop runs it over
//!   TCP, [`session::SimSession`] over the network simulator, and
//!   [`session::LocalSession`] in memory;
//! - [`session`] wires the pieces end-to-end, in memory or across the
//!   network simulator;
//! - [`resume`] is the one proxy-side driver both transports move bytes
//!   for: frame decode, retransmission log, and the reconnect/resume
//!   state machine that recovers a broken connection;
//! - [`supervisor`] hardens the device boundary: plug-in calls run in
//!   fault-isolating shims, per-device health drives quarantine and
//!   automatic failover, and a built-in fallback terminal keeps the
//!   interaction alive when every real output device has died.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod coordinator;
pub mod host;
pub mod multi;
pub mod plugin;
pub mod proxy;
pub mod resume;
pub mod sensors;
pub mod server;
pub mod session;
pub mod supervisor;
pub mod tap;

/// Convenient re-exports of the core surface.
pub mod prelude {
    pub use crate::context::{
        Activity, DeviceDescriptor, InputModality, Noise, OutputProfile, Role, Situation,
        UserProfile,
    };
    pub use crate::coordinator::{Coordinator, InteractionDevice, SwitchReport};
    pub use crate::multi::{ClientId, MultiServer};
    pub use crate::plugin::{
        DeviceEvent, DeviceFrame, Gesture, InputContext, InputPlugin, Nav, OutputCaps,
        OutputPlugin, RemoteKey,
    };
    pub use crate::proxy::{ProxyOutput, ProxyStats, UniIntProxy};
    pub use crate::resume::SessionError;
    pub use crate::sensors::{SensorReading, SituationTracker};
    pub use crate::server::ServerStats;
    pub use crate::session::{LocalSession, SimSession};
    pub use crate::supervisor::{
        FallbackTerminal, HealthEvent, Supervisor, SupervisorReport, SupervisorStats,
        TransitionCause,
    };
    pub use crate::tap::{Direction, SessionTap, SharedTap};
    pub use uniint_protocol::message::DeviceHealthState;
}
