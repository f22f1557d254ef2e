//! Functional component modules (FCMs): the controllable units of an
//! appliance, and the command/status vocabulary used to drive them.
//!
//! HAVi models each device as a DCM hosting one FCM per controllable
//! function (tuner, VCR deck, display, amplifier...). Applications send
//! typed commands to FCMs and observe typed state changes.

use crate::id::Seid;

/// The functional class of an FCM (HAVi's FCM type codes, extended with
/// the white-goods classes the paper's home needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcmClass {
    /// Broadcast tuner (TV front end).
    Tuner,
    /// Video display (TV panel).
    Display,
    /// VCR transport deck.
    Vcr,
    /// Audio amplifier.
    Amplifier,
    /// Room light.
    Light,
    /// Air conditioner.
    AirConditioner,
    /// Wall clock / timer.
    Clock,
    /// Still/video camera.
    Camera,
}

impl FcmClass {
    /// All classes, for discovery tests and generators.
    pub const ALL: [FcmClass; 8] = [
        FcmClass::Tuner,
        FcmClass::Display,
        FcmClass::Vcr,
        FcmClass::Amplifier,
        FcmClass::Light,
        FcmClass::AirConditioner,
        FcmClass::Clock,
        FcmClass::Camera,
    ];

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            FcmClass::Tuner => "tuner",
            FcmClass::Display => "display",
            FcmClass::Vcr => "vcr",
            FcmClass::Amplifier => "amplifier",
            FcmClass::Light => "light",
            FcmClass::AirConditioner => "aircon",
            FcmClass::Clock => "clock",
            FcmClass::Camera => "camera",
        }
    }
}

impl core::fmt::Display for FcmClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// VCR transport requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Stop the tape.
    Stop,
    /// Play forward.
    Play,
    /// Pause playback/recording.
    Pause,
    /// Record.
    Record,
    /// Fast-forward.
    FastForward,
    /// Rewind.
    Rewind,
}

impl core::fmt::Display for Transport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Transport::Stop => "stop",
            Transport::Play => "play",
            Transport::Pause => "pause",
            Transport::Record => "record",
            Transport::FastForward => "ff",
            Transport::Rewind => "rew",
        };
        f.write_str(s)
    }
}

/// Commands an application can send to an FCM.
#[derive(Debug, Clone, PartialEq)]
pub enum FcmCommand {
    /// Power the function on or off.
    SetPower(bool),
    /// Absolute volume `0..=100` (amplifier).
    SetVolume(i32),
    /// Relative volume step (amplifier).
    StepVolume(i32),
    /// Mute or unmute (amplifier).
    SetMute(bool),
    /// Absolute channel (tuner).
    SetChannel(u32),
    /// Relative channel step (tuner).
    StepChannel(i32),
    /// VCR transport control.
    Transport(Transport),
    /// Display brightness `0..=100`.
    SetBrightness(i32),
    /// Display input source index.
    SetInput(u32),
    /// Light dim level `0..=100`.
    SetDimmer(i32),
    /// Target temperature in tenths of °C (aircon).
    SetTargetTemp(i32),
    /// Aircon mode.
    SetAirconMode(AirconMode),
    /// Read the full state snapshot.
    GetStatus,
}

/// Air conditioner operating modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AirconMode {
    /// Cooling.
    Cool,
    /// Heating.
    Heat,
    /// Dehumidify.
    Dry,
    /// Fan only.
    Fan,
}

impl core::fmt::Display for AirconMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            AirconMode::Cool => "cool",
            AirconMode::Heat => "heat",
            AirconMode::Dry => "dry",
            AirconMode::Fan => "fan",
        };
        f.write_str(s)
    }
}

/// One observable state variable of an FCM.
#[derive(Debug, Clone, PartialEq)]
pub enum StateVar {
    /// Power state.
    Power(bool),
    /// Volume `0..=100`.
    Volume(i32),
    /// Mute state.
    Mute(bool),
    /// Tuned channel.
    Channel(u32),
    /// Transport state.
    Transport(Transport),
    /// Tape position in seconds.
    TapePos(u32),
    /// Brightness `0..=100`.
    Brightness(i32),
    /// Selected input.
    Input(u32),
    /// Dim level `0..=100`.
    Dimmer(i32),
    /// Target temperature, tenths of °C.
    TargetTemp(i32),
    /// Measured temperature, tenths of °C.
    RoomTemp(i32),
    /// Aircon mode.
    AirconMode(AirconMode),
    /// Clock time, seconds since midnight.
    TimeOfDay(u32),
    /// Camera frame counter (monotonic while streaming).
    FrameCounter(u32),
}

/// Reply to an [`FcmCommand`].
#[derive(Debug, Clone, PartialEq)]
pub enum FcmResponse {
    /// Command applied; the new values of any changed state variables.
    Ok(Vec<StateVar>),
    /// Full state snapshot (reply to `GetStatus`).
    Status(Vec<StateVar>),
    /// Command refused.
    Error(FcmError),
}

impl FcmResponse {
    /// The changed/reported state variables, empty on error.
    pub fn vars(&self) -> &[StateVar] {
        match self {
            FcmResponse::Ok(v) | FcmResponse::Status(v) => v,
            FcmResponse::Error(_) => &[],
        }
    }

    /// Whether the command succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(self, FcmResponse::Error(_))
    }
}

/// Why an FCM refused a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FcmError {
    /// The command does not apply to this FCM class.
    UnsupportedCommand,
    /// A parameter was out of range.
    InvalidParameter(String),
    /// The function is powered off and cannot execute the command.
    PoweredOff,
    /// The mechanism is busy (e.g. VCR mid-eject).
    Busy,
}

impl core::fmt::Display for FcmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FcmError::UnsupportedCommand => f.write_str("unsupported command for this fcm"),
            FcmError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
            FcmError::PoweredOff => f.write_str("function is powered off"),
            FcmError::Busy => f.write_str("function is busy"),
        }
    }
}

impl std::error::Error for FcmError {}

/// A functional component: typed state plus a command handler.
///
/// Implementations are pure state machines so they can run inside the
/// simulated home network and inside unit tests unchanged.
pub trait Fcm: std::fmt::Debug + Send {
    /// The functional class.
    fn class(&self) -> FcmClass;

    /// Human-readable name ("Living Room TV Tuner").
    fn name(&self) -> &str;

    /// Executes a command, returning changed state or an error.
    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse;

    /// Current full state snapshot.
    fn status(&self) -> Vec<StateVar>;

    /// Advances internal time by `dt_ms` (tape motion, clock ticks).
    /// Returns state variables that changed, if any.
    fn tick(&mut self, _dt_ms: u64) -> Vec<StateVar> {
        Vec::new()
    }
}

/// A state-change notification posted by the network when an FCM mutates.
#[derive(Debug, Clone, PartialEq)]
pub struct StateChange {
    /// The FCM that changed.
    pub seid: Seid,
    /// Its class.
    pub class: FcmClass,
    /// The changed variables.
    pub vars: Vec<StateVar>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_unique() {
        let mut names: Vec<_> = FcmClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FcmClass::ALL.len());
    }

    #[test]
    fn response_vars_accessor() {
        let r = FcmResponse::Ok(vec![StateVar::Power(true)]);
        assert!(r.is_ok());
        assert_eq!(r.vars().len(), 1);
        let e = FcmResponse::Error(FcmError::Busy);
        assert!(!e.is_ok());
        assert!(e.vars().is_empty());
    }

    #[test]
    fn errors_display() {
        assert!(FcmError::PoweredOff.to_string().contains("powered off"));
        assert!(FcmError::InvalidParameter("volume 999".into())
            .to_string()
            .contains("volume 999"));
    }
}
