//! # uniint-netsim
//!
//! Network substrate for the universal-interaction reproduction: a
//! deterministic discrete-event [`sim::Simulator`] of point-to-point home
//! links (Ethernet, 802.11b, Bluetooth, GPRS — the media a 2002 PDA or
//! cellular phone actually had), with scripted link faults
//! ([`fault::FaultSchedule`]).
//!
//! The benchmarks use the simulator so link sweeps are exactly
//! reproducible: all jitter and loss derives from an explicit seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod link;
pub mod sim;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::fault::{
        DropCause, FaultSchedule, GilbertElliott, LatencySpike, Reorder, TraceEvent, TraceKind,
    };
    pub use crate::link::LinkProfile;
    pub use crate::sim::{Endpoint, Simulator};
}
