//! Device supervision: plug-in fault isolation, health tracking and
//! automatic failover.
//!
//! The paper's proxy hosts plug-in modules *uploaded by the interaction
//! devices themselves* — which only works in practice if the proxy
//! survives misbehaving plug-ins and silently-dead devices. This module
//! is the device-boundary dual of `uniint_netsim::fault` (which hardens
//! the *link*): every supervised plug-in call runs inside a fault
//! isolating shim, and a per-device health state machine drives
//! quarantine, probation and failover.
//!
//! # Health state machine
//!
//! ```text
//!               fault / missed heartbeat
//!   Healthy ──────────────────────────────► Degraded
//!      ▲                                     │  │  ▲
//!      │     clean streak after a fault,     │  │  │ probation expires
//!      └──── heartbeat after silence ────────┘  │  │ (seeded backoff)
//!                                               │  │
//!             consecutive faults, or any fault  │  │
//!             on probation                      ▼  │
//!                                            Quarantined ──────────► Dead
//!                                                 quarantined too often,
//!                                                 or heartbeats stop
//! ```
//!
//! - **Healthy** — calls flow through the shim unimpeded.
//! - **Degraded** — recent faults or a missed heartbeat; the device is
//!   still selectable but one more burst away from quarantine. It owes
//!   a heartbeat if it fell silent, a clean streak if a call faulted, or
//!   both; each complaint heals only by its own remedy.
//! - **Quarantined** — excluded from selection; readmitted on probation
//!   after an escalating, seeded backoff (mirroring the reconnect
//!   backoff of [`crate::resume::BackoffPolicy`]).
//! - **Dead** — terminal: too many quarantines, or heartbeats stopped
//!   long enough to declare the hardware gone (from any state).
//!
//! Heartbeats join the call outcomes in one ordered ledger and apply at
//! the next [`Supervisor::tick`], the only place health changes. Every
//! transition is reported: in [`SupervisorReport::events`], as a
//! `DeviceHealth` notice queued in the proxy's outbox, and as a
//! `supervisor.transition` journal line.
//!
//! When the *active* device is quarantined or dies, [`Supervisor::tick`]
//! drives [`Coordinator::reselect`] to fail over to the best remaining
//! device without touching session state — the server never notices, so
//! the session's resume machinery ([`crate::resume`]) keeps working
//! underneath. If no output device remains at all, a built-in
//! [`FallbackTerminal`] keeps the interaction alive on an 80×24 text
//! screen. A failover's renegotiation is queued in the proxy's outbox
//! behind the tick's health notices, and the session sends both at its
//! next pump or settle.
//!
//! # Fault isolation
//!
//! [`Supervisor::supervise`] wraps a device's plug-in factories so every
//! produced plug-in is shimmed:
//!
//! - `catch_unwind` contains panics (the panic hook is silenced around
//!   supervised calls so injected panics do not spam test output);
//! - a per-call **step budget** bounds runaway work: cooperative plug-in
//!   loops call [`consume_fuel`] and abort when it returns `false`, and
//!   a call that drains its whole budget is recorded as a timeout;
//! - returned values are validated: out-of-range pointer events and
//!   oversized frames count as garbage faults and are dropped/replaced.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Once};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::{ClientMessage, DeviceHealthState};
use uniint_raster::color::Color;
use uniint_raster::dither::{dither_to_format, DitherMode};
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::Size;
use uniint_raster::pixel::PixelFormat;
use uniint_raster::scale::{scale_to_fit, ScaleFilter};
use uniint_telemetry::registry::{Counter, Gauge, Registry};

use crate::context::Role;
use crate::coordinator::{Coordinator, InteractionDevice};
use crate::plugin::{DeviceFrame, InputContext, InputPlugin, OutputCaps, OutputPlugin};
use crate::proxy::UniIntProxy;

// ---------------------------------------------------------------------------
// Step budget ("fuel") for supervised calls.
// ---------------------------------------------------------------------------

thread_local! {
    /// Remaining step budget of the supervised call running on this
    /// thread; `None` outside supervised calls.
    static FUEL: Cell<Option<u64>> = const { Cell::new(None) };
    /// Silences the panic hook while a supervised call is in flight.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Burns `units` from the supervised call's step budget.
///
/// Long-running plug-in work should call this periodically and abort
/// when it returns `false`. Outside a supervised call there is no budget
/// and the function returns `false` immediately — unsupervised code must
/// not spin on it.
pub fn consume_fuel(units: u64) -> bool {
    FUEL.with(|f| match f.get() {
        None => false,
        Some(rem) if rem > 0 && rem >= units => {
            f.set(Some(rem - units));
            true
        }
        Some(_) => {
            f.set(Some(0));
            false
        }
    })
}

fn arm_fuel(budget: u64) {
    FUEL.with(|f| f.set(Some(budget)));
}

/// Clears the budget; returns true when the call drained it completely.
fn disarm_fuel() -> bool {
    FUEL.with(|f| {
        let exhausted = f.get() == Some(0);
        f.set(None);
        exhausted
    })
}

/// Installs (once per process) a panic hook that stays silent while a
/// supervised call is unwinding — contained plug-in panics are expected
/// events, not diagnostics.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------------
// Health model.
// ---------------------------------------------------------------------------

/// One entry of the supervisor's ledger: what a supervised call did, as
/// recorded by the shims, or a heartbeat the device sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallOutcome {
    /// Completed and returned sane data.
    Clean,
    /// Unwound with a panic.
    Panic,
    /// Drained its whole step budget (stall / runaway loop).
    Timeout,
    /// Returned out-of-range events or an oversized frame.
    Garbage,
    /// The device said it is alive at this virtual time, microseconds.
    Heartbeat(u64),
}

/// Why a health transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionCause {
    /// A plug-in call panicked.
    Panic,
    /// A plug-in call exhausted its step budget.
    Timeout,
    /// A plug-in call returned invalid data.
    Garbage,
    /// Heartbeats stopped arriving.
    HeartbeatSilence,
    /// Probation backoff expired; the device gets another chance.
    Probation,
    /// A streak of clean calls restored full health.
    CleanStreak,
    /// A heartbeat after silence restored full health.
    HeartbeatResumed,
}

impl core::fmt::Display for TransitionCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            TransitionCause::Panic => "panic",
            TransitionCause::Timeout => "timeout",
            TransitionCause::Garbage => "garbage",
            TransitionCause::HeartbeatSilence => "heartbeat silence",
            TransitionCause::Probation => "probation",
            TransitionCause::CleanStreak => "clean streak",
            TransitionCause::HeartbeatResumed => "heartbeat resumed",
        };
        f.write_str(s)
    }
}

/// One health transition observed during a [`Supervisor::tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEvent {
    /// The device whose health changed.
    pub device: String,
    /// State before the transition.
    pub from: DeviceHealthState,
    /// State after the transition.
    pub to: DeviceHealthState,
    /// What drove the transition.
    pub cause: TransitionCause,
}

// The supervision policy.

/// Step budget per supervised plug-in call.
const CALL_FUEL: u64 = 1_000_000;
/// Consecutive faults before `Healthy` drops to `Degraded`.
const DEGRADE_AFTER: u32 = 1;
/// Consecutive faults before the device is quarantined.
const QUARANTINE_AFTER: u32 = 3;
/// Quarantines before the device is declared `Dead`.
const MAX_QUARANTINES: u32 = 3;
/// First probation backoff, microseconds (doubles per quarantine).
const PROBATION_BASE_US: u64 = 200_000;
/// Probation backoff ceiling, microseconds.
const PROBATION_CAP_US: u64 = 5_000_000;
/// Clean calls on probation before the device is `Healthy` again.
const PROBATION_SUCCESSES: u32 = 8;
/// Heartbeat silence counting as one miss, microseconds.
const HEARTBEAT_TIMEOUT_US: u64 = 500_000;
/// Missed heartbeats before the device is declared `Dead`.
const HEARTBEAT_DEAD_MISSES: u32 = 3;

/// The supervisor's counters at one instant, as [`Supervisor::stats`]
/// reads them from its `supervisor.*` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Plug-in calls that panicked (contained by the shim).
    pub plugin_panics: u64,
    /// Plug-in calls that exhausted their step budget.
    pub plugin_timeouts: u64,
    /// Plug-in calls that returned out-of-range events or frames.
    pub garbage_events: u64,
    /// Heartbeat misses observed.
    pub heartbeat_misses: u64,
    /// Devices placed in quarantine (counted per transition).
    pub quarantines: u64,
    /// Active input/output roles failed over to another device.
    pub failovers: u64,
    /// Quarantined devices readmitted on probation.
    pub readmissions: u64,
    /// Devices declared dead.
    pub deaths: u64,
    /// Times the built-in fallback terminal was attached.
    pub fallback_activations: u64,
}

/// Pre-registered metric handles for one supervisor.
#[derive(Debug)]
struct SupervisorMetrics {
    registry: Registry,
    plugin_panics: Counter,
    plugin_timeouts: Counter,
    garbage_events: Counter,
    heartbeat_misses: Counter,
    quarantines: Counter,
    failovers: Counter,
    readmissions: Counter,
    deaths: Counter,
    fallback_activations: Counter,
    quarantined_now: Gauge,
    dead_now: Gauge,
}

impl SupervisorMetrics {
    fn new(registry: Registry) -> SupervisorMetrics {
        SupervisorMetrics {
            plugin_panics: registry.counter("supervisor.plugin_panics"),
            plugin_timeouts: registry.counter("supervisor.plugin_timeouts"),
            garbage_events: registry.counter("supervisor.garbage_events"),
            heartbeat_misses: registry.counter("supervisor.heartbeat_misses"),
            quarantines: registry.counter("supervisor.quarantines"),
            failovers: registry.counter("supervisor.failovers"),
            readmissions: registry.counter("supervisor.readmissions"),
            deaths: registry.counter("supervisor.deaths"),
            fallback_activations: registry.counter("supervisor.fallback_activations"),
            quarantined_now: registry.gauge("supervisor.devices_quarantined"),
            dead_now: registry.gauge("supervisor.devices_dead"),
            registry,
        }
    }
}

/// A device's health together with what it takes to leave that state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Health {
    #[default]
    Healthy,
    Degraded(Owed),
    /// Readmitted on probation at `until_us`.
    Quarantined {
        until_us: u64,
    },
    Dead,
}

/// What a degraded device still owes before it is healthy again. Each
/// complaint heals only by its own remedy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Owed {
    /// Heartbeats went silent: one must arrive.
    heartbeat: bool,
    /// Clean calls still due after a fault.
    clean_calls: u32,
    /// Readmitted from quarantine: any fault quarantines it again.
    probation: bool,
}

impl Health {
    fn state(self) -> DeviceHealthState {
        match self {
            Health::Healthy => DeviceHealthState::Healthy,
            Health::Degraded(_) => DeviceHealthState::Degraded,
            Health::Quarantined { .. } => DeviceHealthState::Quarantined,
            Health::Dead => DeviceHealthState::Dead,
        }
    }

    /// Whether a device in this state may be selected.
    fn is_usable(self) -> bool {
        !matches!(self, Health::Quarantined { .. } | Health::Dead)
    }

    /// A selectable device's health once `change` has been applied to
    /// what it owes: `Healthy` when nothing is left, else `Degraded`.
    /// Quarantined and dead devices owe nothing and stay as they are.
    fn owing(self, change: impl FnOnce(&mut Owed)) -> Health {
        let mut owed = match self {
            Health::Healthy => Owed::default(),
            Health::Degraded(owed) => owed,
            _ => return self,
        };
        change(&mut owed);
        if owed.heartbeat || owed.clean_calls > 0 {
            Health::Degraded(owed)
        } else {
            Health::Healthy
        }
    }
}

#[derive(Debug, Default)]
struct DeviceRecord {
    health: Health,
    consecutive_faults: u32,
    quarantine_count: u32,
    last_heartbeat_us: Option<u64>,
    hb_misses_seen: u32,
}

impl DeviceRecord {
    /// The one place a device's health changes. A new
    /// [`DeviceHealthState`] is reported (event and journal line; the
    /// tick queues the event's `DeviceHealth` notice) and counted; a
    /// degraded device whose debts change reports nothing.
    fn set_health(
        &mut self,
        id: &str,
        to: Health,
        cause: TransitionCause,
        m: &SupervisorMetrics,
        report: &mut SupervisorReport,
    ) {
        use DeviceHealthState::{Dead, Degraded, Healthy, Quarantined};
        let from = self.health.state();
        self.health = to;
        let to = to.state();
        if from == to {
            return;
        }
        match to {
            Dead => m.deaths.inc(),
            Quarantined => {
                m.quarantines.inc();
                self.consecutive_faults = 0;
            }
            Degraded if from == Quarantined => m.readmissions.inc(),
            Degraded => {}
            // A full recovery wipes the quarantine history: the device
            // earned a fresh backoff schedule.
            Healthy => self.quarantine_count = 0,
        }
        m.quarantined_now
            .add(i64::from(to == Quarantined) - i64::from(from == Quarantined));
        m.dead_now.add(i64::from(to == Dead));
        m.registry.journal().record(
            "supervisor.transition",
            format!("{id}: {from} -> {to} ({cause})"),
        );
        report.events.push(HealthEvent {
            device: id.to_owned(),
            from,
            to,
            cause,
        });
    }
}

/// The ledger, shared with the shims. Each entry names its device by a
/// shared id, so a shim records a call without allocating.
type SharedLedger = Arc<Mutex<Vec<(Arc<str>, CallOutcome)>>>;

fn record_outcome(ledger: &SharedLedger, id: &Arc<str>, outcome: CallOutcome) {
    if let Ok(mut l) = ledger.lock() {
        l.push((Arc::clone(id), outcome));
    }
}

/// What one [`Supervisor::tick`] did.
#[derive(Debug, Default)]
pub struct SupervisorReport {
    /// Health transitions applied this tick, in order. Each one's
    /// `DeviceHealth` notice is queued in the proxy's outbox, ahead of any
    /// renegotiation a failover queues.
    pub events: Vec<HealthEvent>,
    /// New active input device id, when a failover switched it.
    pub input_switched_to: Option<String>,
    /// New active output device id, when a failover switched it.
    pub output_switched_to: Option<String>,
    /// The built-in fallback terminal was attached this tick.
    pub fallback_attached: bool,
}

impl SupervisorReport {
    /// Whether this tick changed anything observable.
    pub fn changed(&self) -> bool {
        !self.events.is_empty()
            || self.input_switched_to.is_some()
            || self.output_switched_to.is_some()
            || self.fallback_attached
    }
}

// ---------------------------------------------------------------------------
// The fault-isolating shims.
// ---------------------------------------------------------------------------

/// Runs hostile plug-in code with its panics contained and the panic
/// hook silenced.
fn contained<T>(call: impl FnOnce() -> T) -> std::thread::Result<T> {
    install_quiet_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(call));
    QUIET_PANICS.with(|q| q.set(false));
    result
}

/// Runs one plug-in call under panic containment and a step budget.
/// `Err` means the call failed (already recorded); `Ok` still needs
/// result validation by the caller.
fn guarded_call<T>(
    id: &Arc<str>,
    ledger: &SharedLedger,
    call: impl FnOnce() -> T,
) -> Result<T, ()> {
    arm_fuel(CALL_FUEL);
    let result = contained(call);
    let exhausted = disarm_fuel();
    match result {
        Err(_) => {
            record_outcome(ledger, id, CallOutcome::Panic);
            Err(())
        }
        Ok(_) if exhausted => {
            // The call returned only because its budget ran dry; its
            // result is not trustworthy.
            record_outcome(ledger, id, CallOutcome::Timeout);
            Err(())
        }
        Ok(v) => Ok(v),
    }
}

#[derive(Debug)]
struct IsolatedInput {
    device: Arc<str>,
    kind: &'static str,
    ledger: SharedLedger,
    inner: Box<dyn InputPlugin>,
}

impl InputPlugin for IsolatedInput {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn translate(
        &mut self,
        ev: &crate::plugin::DeviceEvent,
        ctx: &InputContext,
    ) -> Vec<InputEvent> {
        let inner = &mut self.inner;
        let Ok(mut events) = guarded_call(&self.device, &self.ledger, || inner.translate(ev, ctx))
        else {
            return Vec::new();
        };
        // Validate: pointer events must land inside the server space the
        // plug-in was handed. Out-of-range events are garbage — dropped,
        // with the fault recorded; valid events still pass through.
        let (max_x, max_y) = (ctx.server_size.w.max(1), ctx.server_size.h.max(1));
        let before = events.len();
        events.retain(|e| match e {
            InputEvent::Pointer { x, y, .. } => (*x as u32) < max_x && (*y as u32) < max_y,
            InputEvent::Key { .. } => true,
        });
        let outcome = if events.len() < before {
            CallOutcome::Garbage
        } else {
            CallOutcome::Clean
        };
        record_outcome(&self.ledger, &self.device, outcome);
        events
    }
}

#[derive(Debug)]
struct IsolatedOutput {
    device: Arc<str>,
    kind: &'static str,
    caps: OutputCaps,
    ledger: SharedLedger,
    inner: Box<dyn OutputPlugin>,
    last_good: Option<DeviceFrame>,
}

impl IsolatedOutput {
    /// A frame that is always safe to hand the device: the last good one,
    /// or a black frame at device resolution.
    fn safe_frame(&self) -> DeviceFrame {
        if let Some(f) = &self.last_good {
            return f.clone();
        }
        let size = Size::new(self.caps.size.w.max(1), self.caps.size.h.max(1));
        let fb = Framebuffer::new(size.w, size.h, Color::BLACK);
        let wire = self.caps.format.buffer_bytes(size.w, size.h);
        DeviceFrame::new(fb, self.caps.format, wire)
    }
}

impl OutputPlugin for IsolatedOutput {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn caps(&self) -> OutputCaps {
        self.caps
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        let inner = &mut self.inner;
        let Ok(frame) = guarded_call(&self.device, &self.ledger, || inner.adapt(server_frame))
        else {
            return self.safe_frame();
        };
        // Validate: the frame must fit the declared device screen.
        let s = frame.frame.size();
        if s.is_empty() || s.w > self.caps.size.w || s.h > self.caps.size.h {
            record_outcome(&self.ledger, &self.device, CallOutcome::Garbage);
            return self.safe_frame();
        }
        record_outcome(&self.ledger, &self.device, CallOutcome::Clean);
        self.last_good = Some(frame.clone());
        frame
    }
}

// ---------------------------------------------------------------------------
// The built-in fallback output device.
// ---------------------------------------------------------------------------

/// Columns of the built-in fallback terminal.
pub const FALLBACK_COLS: u32 = 80;
/// Rows of the built-in fallback terminal.
pub const FALLBACK_ROWS: u32 = 24;

/// The output device of last resort: an 80×24 grayscale text terminal
/// the proxy itself provides, attached when a failover leaves no real
/// output device. The paper's interaction must *continue*, however
/// degraded, when every screen in the room has died.
#[derive(Debug, Default)]
pub struct FallbackTerminal;

impl OutputPlugin for FallbackTerminal {
    fn kind(&self) -> &'static str {
        "fallback-terminal"
    }

    fn caps(&self) -> OutputCaps {
        OutputCaps {
            size: Size::new(FALLBACK_COLS, FALLBACK_ROWS),
            format: PixelFormat::Gray8,
            dither: DitherMode::None,
            scale: ScaleFilter::Nearest,
        }
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        let caps = self.caps();
        let scaled = scale_to_fit(server_frame, caps.size, caps.scale);
        let frame = dither_to_format(&scaled, caps.format, caps.dither);
        let wire = caps.format.buffer_bytes(frame.width(), frame.height());
        DeviceFrame::new(frame, caps.format, wire)
    }
}

// ---------------------------------------------------------------------------
// The supervisor.
// ---------------------------------------------------------------------------

/// Tracks per-device health from shim fault records and heartbeats, and
/// fails the session over when the active device goes bad. See the
/// module docs for the state machine.
pub struct Supervisor {
    ledger: SharedLedger,
    records: BTreeMap<String, DeviceRecord>,
    metrics: SupervisorMetrics,
    /// Seeded jitter for probation backoff, so recovery timelines are
    /// exactly reproducible (mirrors the session backoff RNG).
    rng: StdRng,
}

impl core::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Supervisor")
            .field("devices", &self.records.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Supervisor {
    /// Creates a supervisor recording into a private registry; `seed`
    /// drives the probation backoff jitter.
    pub fn new(seed: u64) -> Supervisor {
        install_quiet_hook();
        Supervisor {
            ledger: Arc::new(Mutex::new(Vec::new())),
            records: BTreeMap::new(),
            metrics: SupervisorMetrics::new(Registry::new()),
            rng: StdRng::seed_from_u64(seed ^ 0x5afe_0de7_ec70_ca11),
        }
    }

    /// The registry this supervisor records into.
    pub fn telemetry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Accumulated counters, reconstructed from the registry.
    pub fn stats(&self) -> SupervisorStats {
        let m = &self.metrics;
        SupervisorStats {
            plugin_panics: m.plugin_panics.get(),
            plugin_timeouts: m.plugin_timeouts.get(),
            garbage_events: m.garbage_events.get(),
            heartbeat_misses: m.heartbeat_misses.get(),
            quarantines: m.quarantines.get(),
            failovers: m.failovers.get(),
            readmissions: m.readmissions.get(),
            deaths: m.deaths.get(),
            fallback_activations: m.fallback_activations.get(),
        }
    }

    /// Current health of a device, when it is tracked.
    pub fn health(&self, id: &str) -> Option<DeviceHealthState> {
        self.records.get(id).map(|r| r.health.state())
    }

    /// Wraps a device registration so every plug-in it uploads runs
    /// inside the fault-isolating shim, and starts tracking its health.
    pub fn supervise(&mut self, device: InteractionDevice) -> InteractionDevice {
        let id = device.descriptor().id.clone();
        self.records.entry(id.clone()).or_default();
        let (in_id, in_ledger) = (id.clone(), self.ledger.clone());
        let device =
            device.map_input_factory(|f| Box::new(move || isolate_input(&in_id, &in_ledger, f())));
        let out_ledger = self.ledger.clone();
        device.map_output_factory(|f| Box::new(move || isolate_output(&id, &out_ledger, f())))
    }

    /// Shims a bare input plug-in under `id` (for sessions that attach
    /// plug-ins directly, without a coordinator).
    pub fn wrap_input(&mut self, id: &str, plugin: Box<dyn InputPlugin>) -> Box<dyn InputPlugin> {
        self.records.entry(id.to_owned()).or_default();
        isolate_input(id, &self.ledger, plugin)
    }

    /// Shims a bare output plug-in under `id`.
    pub fn wrap_output(
        &mut self,
        id: &str,
        plugin: Box<dyn OutputPlugin>,
    ) -> Box<dyn OutputPlugin> {
        self.records.entry(id.to_owned()).or_default();
        isolate_output(id, &self.ledger, plugin)
    }

    /// Records a liveness heartbeat from `id` at virtual time `now_us`.
    /// The first heartbeat opts the device into silence tracking. Like a
    /// plug-in call's outcome, it takes effect at the next [`tick`];
    /// heartbeats from untracked devices are ignored there.
    ///
    /// [`tick`]: Supervisor::tick
    pub fn heartbeat(&mut self, id: &str, now_us: u64) {
        record_outcome(&self.ledger, &Arc::from(id), CallOutcome::Heartbeat(now_us));
    }

    /// Applies pending call outcomes, heartbeats and heartbeat deadlines,
    /// transitions device health, updates the coordinator's availability
    /// view, and fails over when the active device went bad. Queues a
    /// `DeviceHealth` notice per transition, then any failover's
    /// renegotiation, in `proxy`'s outbox. Call after every interaction
    /// step (the tick is cheap when nothing happened).
    pub fn tick(
        &mut self,
        now_us: u64,
        coord: &mut Coordinator,
        proxy: &mut UniIntProxy,
    ) -> SupervisorReport {
        let mut report = SupervisorReport::default();

        // 1. Drain the ledger: call outcomes and heartbeats, in order.
        // Every transition below lands in `report`.
        let entries = match self.ledger.lock() {
            Ok(mut l) => std::mem::take(&mut *l),
            Err(_) => Vec::new(),
        };
        for (id, entry) in entries {
            self.apply(&id, entry, now_us, &mut report);
        }

        // 2. Deadlines, device by device: heartbeat silence (only for
        // devices that ever heartbeated), then probation, which readmits
        // a quarantined device degraded, owing a heartbeat too if it fell
        // silent meanwhile.
        let mut readmitted = false;
        for (id, rec) in self.records.iter_mut() {
            let misses = match rec.last_heartbeat_us {
                Some(last) if rec.health != Health::Dead => {
                    (now_us.saturating_sub(last) / HEARTBEAT_TIMEOUT_US) as u32
                }
                _ => 0,
            };
            if misses > rec.hb_misses_seen {
                self.metrics
                    .heartbeat_misses
                    .add((misses - rec.hb_misses_seen) as u64);
                rec.hb_misses_seen = misses;
            }
            let silence = TransitionCause::HeartbeatSilence;
            let (to, cause) = match rec.health {
                Health::Dead => continue,
                _ if misses >= HEARTBEAT_DEAD_MISSES => (Health::Dead, silence),
                Health::Quarantined { until_us } if now_us >= until_us => {
                    readmitted = true;
                    let owed = Owed {
                        heartbeat: misses > 0,
                        clean_calls: PROBATION_SUCCESSES,
                        probation: true,
                    };
                    (Health::Degraded(owed), TransitionCause::Probation)
                }
                health if misses >= 1 => (health.owing(|o| o.heartbeat = true), silence),
                _ => continue,
            };
            rec.set_health(id, to, cause, &self.metrics, &mut report);
        }
        // The health notices lead any renegotiation traffic.
        for e in &report.events {
            proxy.queue(ClientMessage::DeviceHealth {
                device: e.device.clone(),
                state: e.to,
            });
        }

        // 3. Push availability into the coordinator. Re-asserted fully on
        // every tick so a re-registered device cannot sneak out of an
        // unexpired quarantine.
        for (id, rec) in &self.records {
            coord.set_available(id, rec.health.is_usable());
        }

        // 4. Failover: each role whose active device went bad counts one,
        // and a readmission may have produced a better candidate.
        let lost = Role::BOTH
            .into_iter()
            .filter_map(|role| self.records.get(coord.active(role)?))
            .filter(|rec| !rec.health.is_usable())
            .count();
        let had_output = proxy.attached().1.is_some();
        if lost > 0 || readmitted {
            let sw = coord.reselect(proxy);
            self.metrics.failovers.add(lost as u64);
            report.input_switched_to = sw.input_switched_to;
            report.output_switched_to = sw.output_switched_to;
        }

        // 5. Last resort: the session had a screen and now has none.
        if had_output && proxy.attached().1.is_none() {
            self.metrics.fallback_activations.inc();
            report.fallback_attached = true;
            self.metrics
                .registry
                .journal()
                .record("supervisor.fallback", "attached built-in terminal");
            proxy.attach_output(Box::new(FallbackTerminal));
        }

        report
    }

    /// Applies one ledger entry to its device's health.
    fn apply(&mut self, id: &str, entry: CallOutcome, now_us: u64, report: &mut SupervisorReport) {
        let Some(rec) = self.records.get_mut(id) else {
            return;
        };
        let health = rec.health;
        let m = &self.metrics;
        let (to, cause) = match entry {
            _ if health == Health::Dead => return,
            CallOutcome::Heartbeat(at_us) => {
                rec.last_heartbeat_us = Some(at_us);
                rec.hb_misses_seen = 0;
                let heard = |o: &mut Owed| o.heartbeat = false;
                (health.owing(heard), TransitionCause::HeartbeatResumed)
            }
            CallOutcome::Clean => {
                rec.consecutive_faults = 0;
                let paid = |o: &mut Owed| o.clean_calls = o.clean_calls.saturating_sub(1);
                (health.owing(paid), TransitionCause::CleanStreak)
            }
            fault => {
                let (counter, cause) = match fault {
                    CallOutcome::Panic => (&m.plugin_panics, TransitionCause::Panic),
                    CallOutcome::Timeout => (&m.plugin_timeouts, TransitionCause::Timeout),
                    _ => (&m.garbage_events, TransitionCause::Garbage),
                };
                counter.inc();
                if let Health::Quarantined { .. } = health {
                    return; // Stale record from before the exclusion took.
                }
                rec.consecutive_faults += 1;
                // Any fault on probation quarantines again.
                let probation = matches!(health, Health::Degraded(o) if o.probation);
                if probation || rec.consecutive_faults >= QUARANTINE_AFTER {
                    rec.quarantine_count += 1;
                    if rec.quarantine_count > MAX_QUARANTINES {
                        (Health::Dead, cause)
                    } else {
                        let shift = rec.quarantine_count.saturating_sub(1).min(20);
                        let backoff = PROBATION_BASE_US
                            .saturating_mul(1u64 << shift)
                            .min(PROBATION_CAP_US);
                        let jitter = self.rng.gen_range(0..=backoff / 4);
                        let until_us = now_us + backoff + jitter;
                        (Health::Quarantined { until_us }, cause)
                    }
                } else if rec.consecutive_faults >= DEGRADE_AFTER {
                    (health.owing(|o| o.clean_calls = PROBATION_SUCCESSES), cause)
                } else {
                    return;
                }
            }
        };
        rec.set_health(id, to, cause, m, report);
    }
}

fn isolate_input(
    id: &str,
    ledger: &SharedLedger,
    inner: Box<dyn InputPlugin>,
) -> Box<dyn InputPlugin> {
    // Even `kind()` runs hostile code: probe it once, contained.
    let kind = contained(|| inner.kind()).unwrap_or("unknown-plugin");
    Box::new(IsolatedInput {
        device: Arc::from(id),
        kind,
        ledger: ledger.clone(),
        inner,
    })
}

fn isolate_output(
    id: &str,
    ledger: &SharedLedger,
    inner: Box<dyn OutputPlugin>,
) -> Box<dyn OutputPlugin> {
    let kind = contained(|| inner.kind()).unwrap_or("unknown-plugin");
    // Caps too large for a frame are as useless as a panicking `caps()`:
    // `safe_frame` could not build its blank at that size.
    let caps = contained(|| inner.caps())
        .ok()
        .filter(|c| Framebuffer::fits(c.size.w.max(1), c.size.h.max(1)))
        .unwrap_or_else(|| FallbackTerminal.caps());
    Box::new(IsolatedOutput {
        device: Arc::from(id),
        kind,
        caps,
        ledger: ledger.clone(),
        inner,
        last_good: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{DeviceDescriptor, InputModality, Situation, UserProfile};
    use crate::plugin::DeviceEvent;
    use uniint_protocol::input::ButtonMask;
    use uniint_raster::geom::Rect;

    #[derive(Debug)]
    struct PanicInput;
    impl InputPlugin for PanicInput {
        fn kind(&self) -> &'static str {
            "panic-input"
        }
        fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
            panic!("injected");
        }
    }

    #[derive(Debug)]
    struct StallInput;
    impl InputPlugin for StallInput {
        fn kind(&self) -> &'static str {
            "stall-input"
        }
        fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
            while consume_fuel(64) {}
            Vec::new()
        }
    }

    #[derive(Debug)]
    struct GarbageInput;
    impl InputPlugin for GarbageInput {
        fn kind(&self) -> &'static str {
            "garbage-input"
        }
        fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
            vec![
                InputEvent::Pointer {
                    x: u16::MAX,
                    y: u16::MAX,
                    buttons: ButtonMask::NONE,
                },
                InputEvent::Key {
                    down: true,
                    sym: 'a'.into(),
                },
            ]
        }
    }

    #[derive(Debug)]
    struct GoodInput;
    impl InputPlugin for GoodInput {
        fn kind(&self) -> &'static str {
            "good-input"
        }
        fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
            InputEvent::key_tap('x'.into()).to_vec()
        }
    }

    /// Panics on its first call, then translates cleanly.
    #[derive(Debug)]
    struct PanicOnceInput(bool);
    impl InputPlugin for PanicOnceInput {
        fn kind(&self) -> &'static str {
            "panic-once"
        }
        fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
            assert!(std::mem::replace(&mut self.0, true), "first call only");
            InputEvent::key_tap('x'.into()).to_vec()
        }
    }

    /// A supervisor seeded with `seed`, a proxy with a 64×48 session and
    /// an empty coordinator.
    fn rig(seed: u64) -> (Supervisor, UniIntProxy, Coordinator) {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&uniint_protocol::message::ServerMessage::Init {
            version: 1,
            width: 64,
            height: 48,
            format: PixelFormat::Rgb888,
            name: "t".into(),
        })
        .unwrap();
        let coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("kitchen"));
        (Supervisor::new(seed), p, coord)
    }

    fn device(
        id: &str,
        plugin: impl Fn() -> Box<dyn InputPlugin> + Send + 'static,
    ) -> InteractionDevice {
        InteractionDevice::new(DeviceDescriptor::carried(id, id).with_input(InputModality::Keypad))
            .with_input_factory(Box::new(plugin))
    }

    #[test]
    fn panic_is_contained_and_counted() {
        let (mut sup, mut proxy, mut c) = rig(1);
        proxy.attach_input(sup.wrap_input("bad", Box::new(PanicInput)));
        let msgs = proxy.device_input(&DeviceEvent::KeypadSelect);
        assert!(msgs.is_empty(), "panic yields no events");
        sup.tick(0, &mut c, &mut proxy);
        assert_eq!(sup.stats().plugin_panics, 1);
        assert_eq!(sup.health("bad"), Some(DeviceHealthState::Degraded));
    }

    #[test]
    fn stall_burns_budget_and_counts_timeout() {
        let (mut sup, mut proxy, mut c) = rig(2);
        proxy.attach_input(sup.wrap_input("slow", Box::new(StallInput)));
        assert!(proxy.device_input(&DeviceEvent::KeypadSelect).is_empty());
        sup.tick(0, &mut c, &mut proxy);
        assert_eq!(sup.stats().plugin_timeouts, 1);
    }

    #[test]
    fn consume_fuel_without_budget_is_false() {
        assert!(!consume_fuel(1), "no budget outside supervised calls");
    }

    #[test]
    fn garbage_events_filtered_but_valid_pass() {
        let (mut sup, mut proxy, mut c) = rig(3);
        proxy.attach_input(sup.wrap_input("junk", Box::new(GarbageInput)));
        let msgs = proxy.device_input(&DeviceEvent::KeypadSelect);
        assert_eq!(msgs.len(), 1, "in-range key event passes; pointer dropped");
        sup.tick(0, &mut c, &mut proxy);
        assert_eq!(sup.stats().garbage_events, 1);
    }

    #[test]
    fn consecutive_faults_quarantine_then_probation_readmits() {
        let (mut sup, mut proxy, mut c) = rig(4);
        c.register(
            sup.supervise(device("flaky", || Box::new(PanicInput))),
            &mut proxy,
        );
        assert_eq!(proxy.attached().0, Some("panic-input"));
        for _ in 0..QUARANTINE_AFTER {
            let _ = proxy.device_input(&DeviceEvent::KeypadSelect);
        }
        let report = sup.tick(1_000, &mut c, &mut proxy);
        assert_eq!(sup.health("flaky"), Some(DeviceHealthState::Quarantined));
        assert_eq!(sup.stats().quarantines, 1);
        assert_eq!(sup.stats().failovers, 1, "active input role was lost");
        assert_eq!(proxy.attached().0, None, "no other device to select");
        assert!(report
            .events
            .iter()
            .any(|e| e.to == DeviceHealthState::Quarantined));
        // Well past the probation backoff the device is readmitted and,
        // being the only candidate, reselected.
        let report = sup.tick(60_000_000, &mut c, &mut proxy);
        assert_eq!(sup.stats().readmissions, 1);
        assert_eq!(sup.health("flaky"), Some(DeviceHealthState::Degraded));
        assert_eq!(report.input_switched_to.as_deref(), Some("flaky"));
    }

    #[test]
    fn probation_relapse_requarantines_with_longer_backoff() {
        let (mut sup, mut proxy, mut c) = rig(5);
        c.register(
            sup.supervise(device("flaky", || Box::new(PanicInput))),
            &mut proxy,
        );
        let mut now = 0u64;
        let mut windows = Vec::new();
        for _ in 0..2 {
            for _ in 0..QUARANTINE_AFTER {
                let _ = proxy.device_input(&DeviceEvent::KeypadSelect);
            }
            sup.tick(now, &mut c, &mut proxy);
            let Health::Quarantined { until_us: until } = sup.records["flaky"].health else {
                panic!("quarantined");
            };
            windows.push(until - now);
            now = until + 1;
            sup.tick(now, &mut c, &mut proxy); // readmission
        }
        assert!(windows[1] > windows[0], "backoff escalates: {windows:?}");
    }

    #[test]
    fn clean_streak_restores_health() {
        let (mut sup, mut proxy, mut c) = rig(6);
        let flip = Arc::new(Mutex::new(0u32));
        let flip2 = flip.clone();
        // One panic, then clean forever.
        #[derive(Debug)]
        struct FlipInput(Arc<Mutex<u32>>);
        impl InputPlugin for FlipInput {
            fn kind(&self) -> &'static str {
                "flip"
            }
            fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
                let first = {
                    // Drop the guard before panicking or the mutex poisons.
                    let mut n = self.0.lock().unwrap();
                    *n += 1;
                    *n == 1
                };
                if first {
                    panic!("first call only");
                }
                InputEvent::key_tap('x'.into()).to_vec()
            }
        }
        proxy.attach_input(sup.wrap_input("flip", Box::new(FlipInput(flip2))));
        let _ = proxy.device_input(&DeviceEvent::KeypadSelect);
        sup.tick(0, &mut c, &mut proxy);
        assert_eq!(sup.health("flip"), Some(DeviceHealthState::Degraded));
        for _ in 0..PROBATION_SUCCESSES {
            let _ = proxy.device_input(&DeviceEvent::KeypadSelect);
        }
        sup.tick(1, &mut c, &mut proxy);
        assert_eq!(sup.health("flip"), Some(DeviceHealthState::Healthy));
        drop(flip);
    }

    #[test]
    fn heartbeat_silence_degrades_then_kills() {
        let (mut sup, mut proxy, mut c) = rig(7);
        c.register(
            sup.supervise(device("hb", || Box::new(GoodInput))),
            &mut proxy,
        );
        sup.heartbeat("hb", 0);
        let to = HEARTBEAT_TIMEOUT_US;
        sup.tick(to + 1, &mut c, &mut proxy);
        assert_eq!(sup.health("hb"), Some(DeviceHealthState::Degraded));
        // Heartbeat resumes: healthy again at the next tick.
        sup.heartbeat("hb", to + 2);
        sup.tick(to + 2, &mut c, &mut proxy);
        assert_eq!(sup.health("hb"), Some(DeviceHealthState::Healthy));
        // Then silence long enough to die.
        let deadline = to + 2 + to * HEARTBEAT_DEAD_MISSES as u64 + 1;
        let report = sup.tick(deadline, &mut c, &mut proxy);
        assert_eq!(sup.health("hb"), Some(DeviceHealthState::Dead));
        assert_eq!(sup.stats().deaths, 1);
        assert!(sup.stats().heartbeat_misses >= 1);
        assert!(report
            .events
            .iter()
            .any(|e| e.to == DeviceHealthState::Dead));
        assert!(proxy
            .take_outbox()
            .iter()
            .any(|m| matches!(m, ClientMessage::DeviceHealth { state, .. }
                if *state == DeviceHealthState::Dead)));
    }

    #[test]
    fn a_panic_is_healed_by_clean_calls_not_by_heartbeats() {
        let (mut sup, mut proxy, mut c) = rig(12);
        proxy.attach_input(sup.wrap_input("pda", Box::new(PanicOnceInput(false))));
        let mut events = Vec::new();
        for now in 0..=PROBATION_SUCCESSES as u64 {
            let _ = proxy.device_input(&DeviceEvent::KeypadSelect);
            sup.heartbeat("pda", now);
            events.extend(sup.tick(now, &mut c, &mut proxy).events);
            let want = if now < PROBATION_SUCCESSES as u64 {
                DeviceHealthState::Degraded
            } else {
                DeviceHealthState::Healthy
            };
            assert_eq!(sup.health("pda"), Some(want), "after {now} clean calls");
        }
        let causes: Vec<_> = events.iter().map(|e| e.cause).collect();
        assert_eq!(
            causes,
            [TransitionCause::Panic, TransitionCause::CleanStreak]
        );
    }

    #[test]
    fn a_silent_device_with_clean_calls_degrades_once() {
        let (mut sup, mut proxy, mut c) = rig(13);
        c.register(
            sup.supervise(device("hb", || Box::new(GoodInput))),
            &mut proxy,
        );
        sup.heartbeat("hb", 0);
        let to = HEARTBEAT_TIMEOUT_US;
        let mut events = Vec::new();
        // Silent for just under the death deadline, calls clean throughout.
        for now in (to..to * HEARTBEAT_DEAD_MISSES as u64).step_by(100_000) {
            for _ in 0..PROBATION_SUCCESSES {
                let _ = proxy.device_input(&DeviceEvent::KeypadSelect);
            }
            events.extend(sup.tick(now, &mut c, &mut proxy).events);
        }
        let silence = HealthEvent {
            device: "hb".into(),
            from: DeviceHealthState::Healthy,
            to: DeviceHealthState::Degraded,
            cause: TransitionCause::HeartbeatSilence,
        };
        assert_eq!(events, [silence]);
        assert_eq!(sup.health("hb"), Some(DeviceHealthState::Degraded));
    }

    #[test]
    fn a_heal_by_heartbeat_is_reported_like_any_transition() {
        let (mut sup, mut proxy, mut c) = rig(14);
        c.register(
            sup.supervise(device("hb", || Box::new(GoodInput))),
            &mut proxy,
        );
        sup.heartbeat("hb", 0);
        let to = HEARTBEAT_TIMEOUT_US;
        sup.tick(to, &mut c, &mut proxy);
        assert_eq!(sup.health("hb"), Some(DeviceHealthState::Degraded));
        proxy.take_outbox();
        sup.heartbeat("hb", to + 1);
        let report = sup.tick(to + 1, &mut c, &mut proxy);
        let heal = HealthEvent {
            device: "hb".into(),
            from: DeviceHealthState::Degraded,
            to: DeviceHealthState::Healthy,
            cause: TransitionCause::HeartbeatResumed,
        };
        assert_eq!(report.events, [heal]);
        assert_eq!(
            proxy.take_outbox(),
            [ClientMessage::DeviceHealth {
                device: "hb".into(),
                state: DeviceHealthState::Healthy,
            }]
        );
        let journal = sup.telemetry().journal().events();
        let last = journal.last().expect("journalled");
        assert_eq!(last.name, "supervisor.transition");
        assert_eq!(last.detail, "hb: degraded -> healthy (heartbeat resumed)");
    }

    #[test]
    fn dead_devices_stay_dead() {
        let (mut sup, mut proxy, mut c) = rig(8);
        c.register(
            sup.supervise(device("d", || Box::new(GoodInput))),
            &mut proxy,
        );
        sup.heartbeat("d", 0);
        let to = HEARTBEAT_TIMEOUT_US;
        sup.tick(to * 10, &mut c, &mut proxy);
        assert_eq!(sup.health("d"), Some(DeviceHealthState::Dead));
        sup.heartbeat("d", to * 10 + 1); // Ignored.
        sup.tick(to * 20, &mut c, &mut proxy);
        assert_eq!(sup.health("d"), Some(DeviceHealthState::Dead));
        assert_eq!(sup.stats().deaths, 1, "death counted once");
    }

    #[test]
    fn fallback_terminal_attaches_when_output_dies() {
        #[derive(Debug)]
        struct PanicScreen;
        impl OutputPlugin for PanicScreen {
            fn kind(&self) -> &'static str {
                "panic-screen"
            }
            fn caps(&self) -> OutputCaps {
                OutputCaps {
                    size: Size::new(32, 32),
                    format: PixelFormat::Rgb888,
                    dither: DitherMode::None,
                    scale: ScaleFilter::Nearest,
                }
            }
            fn adapt(&mut self, _: &Framebuffer) -> DeviceFrame {
                panic!("screen controller crashed");
            }
        }
        let (mut sup, mut proxy, mut c) = rig(9);
        let dev =
            InteractionDevice::new(DeviceDescriptor::carried("screen", "Screen").with_output(
                crate::context::OutputProfile {
                    size: Size::new(32, 32),
                    depth_bits: 24,
                    far_readable: false,
                },
            ))
            .with_output_factory(Box::new(|| Box::new(PanicScreen)));
        c.register(sup.supervise(dev), &mut proxy);
        assert_eq!(proxy.attached().1, Some("panic-screen"));
        proxy.take_outbox();
        // Three faulting adapts → quarantine; frames were safe blanks.
        for _ in 0..QUARANTINE_AFTER {
            let f = proxy.adapt_current().expect("safe frame substituted");
            assert_eq!(f.frame.size(), Size::new(32, 32));
        }
        let report = sup.tick(0, &mut c, &mut proxy);
        assert!(report.fallback_attached);
        assert_eq!(proxy.attached().1, Some("fallback-terminal"));
        assert_eq!(sup.stats().fallback_activations, 1);
        // The fallback produces a real frame.
        let f = proxy.adapt_current().expect("fallback frame");
        assert!(f.frame.width() <= FALLBACK_COLS && f.frame.height() <= FALLBACK_ROWS);
        // The health notices, then the renegotiation, exactly once.
        let queued = proxy.take_outbox();
        let notice = |state| ClientMessage::DeviceHealth {
            device: "screen".into(),
            state,
        };
        let degraded = notice(DeviceHealthState::Degraded);
        let quarantined = notice(DeviceHealthState::Quarantined);
        assert_eq!(queued[..2], [degraded, quarantined], "{queued:?}");
        assert_eq!(queued[2], ClientMessage::SetPixelFormat(PixelFormat::Gray8));
        let full = ClientMessage::UpdateRequest {
            incremental: false,
            rect: Rect::new(0, 0, 64, 48),
        };
        assert_eq!(queued.iter().filter(|&m| *m == full).count(), 1);
    }

    #[test]
    fn same_seed_same_stats() {
        let run = |seed: u64| {
            let (mut sup, mut proxy, mut c) = rig(seed);
            c.register(
                sup.supervise(device("flaky", || Box::new(PanicInput))),
                &mut proxy,
            );
            let mut now = 0;
            for round in 0..30 {
                let _ = proxy.device_input(&DeviceEvent::KeypadSelect);
                now += 100_000 * (round % 3 + 1);
                sup.tick(now, &mut c, &mut proxy);
            }
            sup.stats()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn oversized_frame_is_garbage_and_substituted() {
        #[derive(Debug)]
        struct HugeScreen;
        impl OutputPlugin for HugeScreen {
            fn kind(&self) -> &'static str {
                "huge"
            }
            fn caps(&self) -> OutputCaps {
                OutputCaps {
                    size: Size::new(16, 16),
                    format: PixelFormat::Rgb888,
                    dither: DitherMode::None,
                    scale: ScaleFilter::Nearest,
                }
            }
            fn adapt(&mut self, _: &Framebuffer) -> DeviceFrame {
                // Twice the declared size: must be rejected.
                DeviceFrame::new(
                    Framebuffer::new(32, 32, Color::WHITE),
                    PixelFormat::Rgb888,
                    0,
                )
            }
        }
        let (mut sup, mut proxy, mut c) = rig(10);
        proxy.attach_output(sup.wrap_output("huge", Box::new(HugeScreen)));
        let f = proxy.adapt_current().expect("substitute");
        assert_eq!(f.frame.size(), Size::new(16, 16), "safe frame at caps size");
        sup.tick(0, &mut c, &mut proxy);
        assert_eq!(sup.stats().garbage_events, 1);
    }

    #[test]
    fn caps_too_large_for_a_frame_fall_back_to_the_terminal() {
        #[derive(Debug)]
        struct VastScreen;
        impl OutputPlugin for VastScreen {
            fn kind(&self) -> &'static str {
                "vast"
            }
            fn caps(&self) -> OutputCaps {
                OutputCaps {
                    size: Size::new(100_000, 100_000),
                    format: PixelFormat::Rgb888,
                    dither: DitherMode::None,
                    scale: ScaleFilter::Nearest,
                }
            }
            fn adapt(&mut self, _: &Framebuffer) -> DeviceFrame {
                panic!("vast screen crashed");
            }
        }
        let mut sup = Supervisor::new(11);
        let mut out = sup.wrap_output("vast", Box::new(VastScreen));
        let f = out.adapt(&Framebuffer::new(32, 32, Color::BLACK));
        assert_eq!(f.frame.size(), Size::new(FALLBACK_COLS, FALLBACK_ROWS));
        assert_eq!(out.caps(), FallbackTerminal.caps());
    }

    #[test]
    fn last_good_shares_the_returned_frame() {
        #[derive(Debug)]
        struct OnceScreen(bool);
        impl OutputPlugin for OnceScreen {
            fn kind(&self) -> &'static str {
                "once-screen"
            }
            fn caps(&self) -> OutputCaps {
                OutputCaps {
                    size: Size::new(16, 16),
                    format: PixelFormat::Rgb888,
                    dither: DitherMode::None,
                    scale: ScaleFilter::Nearest,
                }
            }
            fn adapt(&mut self, _: &Framebuffer) -> DeviceFrame {
                assert!(!std::mem::replace(&mut self.0, true), "crashed");
                let fb = Framebuffer::new(16, 16, Color::WHITE);
                DeviceFrame::new(fb, PixelFormat::Rgb888, 768)
            }
        }
        let mut out = IsolatedOutput {
            device: "once".into(),
            kind: "once-screen",
            caps: OnceScreen(false).caps(),
            ledger: SharedLedger::default(),
            inner: Box::new(OnceScreen(false)),
            last_good: None,
        };
        let server = Framebuffer::new(32, 32, Color::BLACK);
        let good = out.adapt(&server);
        let kept = out.last_good.as_ref().expect("clean adapt kept");
        assert!(Arc::ptr_eq(&kept.frame, &good.frame));
        let substitute = out.adapt(&server);
        assert!(Arc::ptr_eq(&substitute.frame, &good.frame));
        let ledger = out.ledger.lock().unwrap();
        assert_eq!(ledger.last().map(|(_, o)| *o), Some(CallOutcome::Panic));
    }

    #[test]
    fn fallback_terminal_adapts_any_size() {
        let mut t = FallbackTerminal;
        for (w, h) in [(1, 1), (640, 480), (3, 200)] {
            let fb = Framebuffer::new(w, h, Color::WHITE);
            let f = t.adapt(&fb);
            assert!(f.frame.width() <= FALLBACK_COLS);
            assert!(f.frame.height() <= FALLBACK_ROWS);
            assert_eq!(f.format, PixelFormat::Gray8);
        }
        let _ = Rect::EMPTY; // silence unused import on some cfgs
    }
}
