//! # uniint-gateway
//!
//! The real-network deployment boundary the paper assumes: UniInt
//! server and proxies as **separate OS processes** on an actual home
//! network, talking over TCP sockets instead of in-process pipes or the
//! discrete-event simulator.
//!
//! Four layers, bottom up:
//!
//! - [`codec`] — the length-prefixed frame codec shared by both ends:
//!   a hard max-frame-size bound enforced before allocation, the one
//!   read and the one write of a non-blocking socket that both ends
//!   call, and the protocol-version check applied to every `Hello`
//!   (re-exported from `uniint_protocol::message`);
//! - [`host`] — the connection host ([`host::Gateway`]): one thread
//!   that waits in `poll(2)` on the listener and every non-blocking
//!   connection, keeps each connection's unwritten frames bounded in
//!   bytes (a client that falls too far behind is dropped), encodes
//!   each message once, and moves the bytes of a
//!   [`uniint_core::host::SessionHost`], which owns the sessions over
//!   one shared [`uniint_core::multi::MultiServer`], so a TV proxy and a
//!   phone proxy on real sockets watch one panel concurrently;
//! - [`client`] — the connection lifecycle ([`client::GatewayClient`]):
//!   stall detection, seeded exponential backoff on reconnect kept as a
//!   deadline, and incremental `Resume` so a proxy that loses TCP
//!   mid-update comes back without a full refresh. The client never
//!   sleeps, so [`client::pump_clients`] drives any number of them from
//!   one thread, in one `poll(2)` as the host waits;
//! - telemetry — every layer registers counters/gauges in a
//!   [`uniint_telemetry::registry::Registry`], so one snapshot covers
//!   the network edge too.
//!
//! ```no_run
//! use uniint_gateway::prelude::*;
//! use uniint_telemetry::registry::Registry;
//! use uniint_wsys::prelude::{Button, Theme, Ui};
//! use uniint_raster::geom::Rect;
//!
//! let mut ui = Ui::new(160, 120, Theme::classic(), "panel");
//! ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
//! let gw = Gateway::spawn(ui, GatewayConfig::default(), Registry::new()).unwrap();
//! let mut client = GatewayClient::connect(gw.local_addr(), "phone-proxy", 7).unwrap();
//! assert!(client.proxy.is_connected());
//! let _panel = gw.shutdown();
//! ```

// Only the `poll` module may use unsafe code, for its one FFI call.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod host;
mod poll;

/// Convenient re-exports of the gateway surface.
pub mod prelude {
    pub use crate::client::{pump_clients, GatewayClient};
    pub use crate::codec::check_hello_version;
    pub use crate::host::{Gateway, GatewayConfig};
    pub use uniint_core::resume::SessionError;
}
