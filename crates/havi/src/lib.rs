//! # uniint-havi
//!
//! An in-process reproduction of the HAVi-style home middleware the
//! paper's prototype runs on (the authors' Middleware 2001 home computing
//! system implementing the HAVi specification).
//!
//! The pieces mirror HAVi's architecture: devices are **DCMs** hosting
//! **FCMs** (functional components — tuner, display, VCR deck, amplifier,
//! light, air conditioner, clock); a **registry** supports attribute-based
//! discovery; an **event manager** fans out hot-plug and state-change
//! events; and the [`network::HomeNetwork`] routes typed control messages
//! to FCM command handlers.
//!
//! Only the surface the applications and the proxy consume is reproduced:
//! discovery, events and synchronous FCM control. HAVi's asynchronous
//! element-to-element messaging system has no user here and is left out.
//!
//! Appliance *applications* (crate `uniint-apps`) discover FCMs here and
//! generate control panels for whatever is currently attached — the
//! paper's "composed GUI for TV and VCR if both are available".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod fcm;
pub mod fcms;
pub mod id;
pub mod network;
pub mod registry;

/// Convenient re-exports of the middleware surface.
pub mod prelude {
    pub use crate::events::{EventManager, HaviEvent};
    pub use crate::fcm::{
        AirconMode, Fcm, FcmClass, FcmCommand, FcmError, FcmResponse, StateChange, StateVar,
        Transport,
    };
    pub use crate::fcms::{
        AirconFcm, AmplifierFcm, CameraFcm, ClockFcm, DisplayFcm, LightFcm, TunerFcm, VcrFcm,
    };
    pub use crate::id::{Guid, Seid};
    pub use crate::network::{DeviceSpec, HomeNetwork, NetworkError};
    pub use crate::registry::{ElementKind, Query, Registration, Registry};
}
