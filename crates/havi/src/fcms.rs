//! Concrete FCM implementations for the simulated appliances.

use crate::fcm::{
    AirconMode, Fcm, FcmClass, FcmCommand, FcmError, FcmResponse, StateVar, Transport,
};

fn unsupported() -> FcmResponse {
    FcmResponse::Error(FcmError::UnsupportedCommand)
}

fn bad(param: impl Into<String>) -> FcmResponse {
    FcmResponse::Error(FcmError::InvalidParameter(param.into()))
}

/// Broadcast tuner: power + channel.
#[derive(Debug, Clone)]
pub struct TunerFcm {
    name: String,
    power: bool,
    channel: u32,
    max_channel: u32,
}

impl TunerFcm {
    /// Creates a tuner with channels `1..=max_channel`, powered off.
    pub fn new(name: impl Into<String>, max_channel: u32) -> TunerFcm {
        TunerFcm {
            name: name.into(),
            power: false,
            channel: 1,
            max_channel: max_channel.max(1),
        }
    }

    /// Current channel.
    pub fn channel(&self) -> u32 {
        self.channel
    }

    /// Power state.
    pub fn power(&self) -> bool {
        self.power
    }
}

impl Fcm for TunerFcm {
    fn class(&self) -> FcmClass {
        FcmClass::Tuner
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse {
        match *cmd {
            FcmCommand::SetPower(on) => {
                self.power = on;
                FcmResponse::Ok(vec![StateVar::Power(on)])
            }
            FcmCommand::SetChannel(ch) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                if ch == 0 || ch > self.max_channel {
                    return bad(format!("channel {ch}"));
                }
                self.channel = ch;
                FcmResponse::Ok(vec![StateVar::Channel(ch)])
            }
            FcmCommand::StepChannel(d) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                // Wrap around the dial, like a real tuner's up/down keys.
                let n = self.max_channel as i64;
                let cur = self.channel as i64 - 1;
                self.channel = ((cur + d as i64).rem_euclid(n) + 1) as u32;
                FcmResponse::Ok(vec![StateVar::Channel(self.channel)])
            }
            FcmCommand::GetStatus => FcmResponse::Status(self.status()),
            _ => unsupported(),
        }
    }

    fn status(&self) -> Vec<StateVar> {
        vec![StateVar::Power(self.power), StateVar::Channel(self.channel)]
    }
}

/// Video display: power, brightness, input selection.
#[derive(Debug, Clone)]
pub struct DisplayFcm {
    name: String,
    power: bool,
    brightness: i32,
    input: u32,
    inputs: u32,
}

impl DisplayFcm {
    /// Creates a display with `inputs` selectable sources.
    pub fn new(name: impl Into<String>, inputs: u32) -> DisplayFcm {
        DisplayFcm {
            name: name.into(),
            power: false,
            brightness: 70,
            input: 0,
            inputs: inputs.max(1),
        }
    }
}

impl Fcm for DisplayFcm {
    fn class(&self) -> FcmClass {
        FcmClass::Display
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse {
        match *cmd {
            FcmCommand::SetPower(on) => {
                self.power = on;
                FcmResponse::Ok(vec![StateVar::Power(on)])
            }
            FcmCommand::SetBrightness(b) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                if !(0..=100).contains(&b) {
                    return bad(format!("brightness {b}"));
                }
                self.brightness = b;
                FcmResponse::Ok(vec![StateVar::Brightness(b)])
            }
            FcmCommand::SetInput(i) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                if i >= self.inputs {
                    return bad(format!("input {i}"));
                }
                self.input = i;
                FcmResponse::Ok(vec![StateVar::Input(i)])
            }
            FcmCommand::GetStatus => FcmResponse::Status(self.status()),
            _ => unsupported(),
        }
    }

    fn status(&self) -> Vec<StateVar> {
        vec![
            StateVar::Power(self.power),
            StateVar::Brightness(self.brightness),
            StateVar::Input(self.input),
        ]
    }
}

/// VCR deck: transport state machine plus simulated tape position.
#[derive(Debug, Clone)]
pub struct VcrFcm {
    name: String,
    power: bool,
    transport: Transport,
    /// Tape position in milliseconds.
    pos_ms: u64,
    /// Tape length in milliseconds.
    len_ms: u64,
}

impl VcrFcm {
    /// Creates a VCR with a `len_s`-second tape loaded, stopped.
    pub fn new(name: impl Into<String>, len_s: u32) -> VcrFcm {
        VcrFcm {
            name: name.into(),
            power: false,
            transport: Transport::Stop,
            pos_ms: 0,
            len_ms: len_s as u64 * 1000,
        }
    }

    /// Current transport state.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Tape position in seconds.
    pub fn position_s(&self) -> u32 {
        (self.pos_ms / 1000) as u32
    }
}

impl Fcm for VcrFcm {
    fn class(&self) -> FcmClass {
        FcmClass::Vcr
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse {
        match *cmd {
            FcmCommand::SetPower(on) => {
                self.power = on;
                if !on {
                    self.transport = Transport::Stop;
                }
                FcmResponse::Ok(vec![
                    StateVar::Power(on),
                    StateVar::Transport(self.transport),
                ])
            }
            FcmCommand::Transport(t) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                self.transport = t;
                FcmResponse::Ok(vec![StateVar::Transport(t)])
            }
            FcmCommand::GetStatus => FcmResponse::Status(self.status()),
            _ => unsupported(),
        }
    }

    fn status(&self) -> Vec<StateVar> {
        vec![
            StateVar::Power(self.power),
            StateVar::Transport(self.transport),
            StateVar::TapePos(self.position_s()),
        ]
    }

    fn tick(&mut self, dt_ms: u64) -> Vec<StateVar> {
        if !self.power {
            return Vec::new();
        }
        let rate: i64 = match self.transport {
            Transport::Play | Transport::Record => 1,
            Transport::FastForward => 8,
            Transport::Rewind => -8,
            Transport::Stop | Transport::Pause => 0,
        };
        if rate == 0 {
            return Vec::new();
        }
        let before = self.position_s();
        let delta = rate * dt_ms as i64;
        let pos = (self.pos_ms as i64 + delta).clamp(0, self.len_ms as i64);
        self.pos_ms = pos as u64;
        let mut changed = Vec::new();
        // Auto-stop at either end of the tape.
        if (self.pos_ms == 0 && rate < 0) || (self.pos_ms == self.len_ms && rate > 0) {
            self.transport = Transport::Stop;
            changed.push(StateVar::Transport(Transport::Stop));
        }
        if self.position_s() != before {
            changed.push(StateVar::TapePos(self.position_s()));
        }
        changed
    }
}

/// Audio amplifier: volume, mute, power.
#[derive(Debug, Clone)]
pub struct AmplifierFcm {
    name: String,
    power: bool,
    volume: i32,
    mute: bool,
}

impl AmplifierFcm {
    /// Creates an amplifier at volume 30, powered off.
    pub fn new(name: impl Into<String>) -> AmplifierFcm {
        AmplifierFcm {
            name: name.into(),
            power: false,
            volume: 30,
            mute: false,
        }
    }

    /// Current volume.
    pub fn volume(&self) -> i32 {
        self.volume
    }

    /// Mute state.
    pub fn muted(&self) -> bool {
        self.mute
    }
}

impl Fcm for AmplifierFcm {
    fn class(&self) -> FcmClass {
        FcmClass::Amplifier
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse {
        match *cmd {
            FcmCommand::SetPower(on) => {
                self.power = on;
                FcmResponse::Ok(vec![StateVar::Power(on)])
            }
            FcmCommand::SetVolume(v) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                if !(0..=100).contains(&v) {
                    return bad(format!("volume {v}"));
                }
                self.volume = v;
                FcmResponse::Ok(vec![StateVar::Volume(v)])
            }
            FcmCommand::StepVolume(d) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                self.volume = (self.volume + d).clamp(0, 100);
                FcmResponse::Ok(vec![StateVar::Volume(self.volume)])
            }
            FcmCommand::SetMute(m) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                self.mute = m;
                FcmResponse::Ok(vec![StateVar::Mute(m)])
            }
            FcmCommand::GetStatus => FcmResponse::Status(self.status()),
            _ => unsupported(),
        }
    }

    fn status(&self) -> Vec<StateVar> {
        vec![
            StateVar::Power(self.power),
            StateVar::Volume(self.volume),
            StateVar::Mute(self.mute),
        ]
    }
}

/// Room light with a dimmer.
#[derive(Debug, Clone)]
pub struct LightFcm {
    name: String,
    power: bool,
    dimmer: i32,
}

impl LightFcm {
    /// Creates a light, off, dimmer at 100%.
    pub fn new(name: impl Into<String>) -> LightFcm {
        LightFcm {
            name: name.into(),
            power: false,
            dimmer: 100,
        }
    }
}

impl Fcm for LightFcm {
    fn class(&self) -> FcmClass {
        FcmClass::Light
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse {
        match *cmd {
            FcmCommand::SetPower(on) => {
                self.power = on;
                FcmResponse::Ok(vec![StateVar::Power(on)])
            }
            FcmCommand::SetDimmer(d) => {
                if !(0..=100).contains(&d) {
                    return bad(format!("dimmer {d}"));
                }
                self.dimmer = d;
                FcmResponse::Ok(vec![StateVar::Dimmer(d)])
            }
            FcmCommand::GetStatus => FcmResponse::Status(self.status()),
            _ => unsupported(),
        }
    }

    fn status(&self) -> Vec<StateVar> {
        vec![StateVar::Power(self.power), StateVar::Dimmer(self.dimmer)]
    }
}

/// Air conditioner: mode, target temperature, simulated room temperature
/// drifting towards the target while powered.
#[derive(Debug, Clone)]
pub struct AirconFcm {
    name: String,
    power: bool,
    mode: AirconMode,
    /// Tenths of °C.
    target: i32,
    /// Tenths of °C.
    room: i32,
}

impl AirconFcm {
    /// Creates an aircon with the room at `room_tenths` (tenths of °C).
    pub fn new(name: impl Into<String>, room_tenths: i32) -> AirconFcm {
        AirconFcm {
            name: name.into(),
            power: false,
            mode: AirconMode::Cool,
            target: 250,
            room: room_tenths,
        }
    }

    /// Measured room temperature, tenths of °C.
    pub fn room_temp(&self) -> i32 {
        self.room
    }
}

impl Fcm for AirconFcm {
    fn class(&self) -> FcmClass {
        FcmClass::AirConditioner
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse {
        match *cmd {
            FcmCommand::SetPower(on) => {
                self.power = on;
                FcmResponse::Ok(vec![StateVar::Power(on)])
            }
            FcmCommand::SetTargetTemp(t) => {
                if !(100..=350).contains(&t) {
                    return bad(format!("target temp {t}"));
                }
                self.target = t;
                FcmResponse::Ok(vec![StateVar::TargetTemp(t)])
            }
            FcmCommand::SetAirconMode(m) => {
                if !self.power {
                    return FcmResponse::Error(FcmError::PoweredOff);
                }
                self.mode = m;
                FcmResponse::Ok(vec![StateVar::AirconMode(m)])
            }
            FcmCommand::GetStatus => FcmResponse::Status(self.status()),
            _ => unsupported(),
        }
    }

    fn status(&self) -> Vec<StateVar> {
        vec![
            StateVar::Power(self.power),
            StateVar::AirconMode(self.mode),
            StateVar::TargetTemp(self.target),
            StateVar::RoomTemp(self.room),
        ]
    }

    fn tick(&mut self, dt_ms: u64) -> Vec<StateVar> {
        if !self.power {
            return Vec::new();
        }
        let before = self.room;
        // 0.1 °C per simulated second towards the target.
        let step = (dt_ms / 1000) as i32;
        if step == 0 {
            return Vec::new();
        }
        if self.room < self.target {
            self.room = (self.room + step).min(self.target);
        } else if self.room > self.target {
            self.room = (self.room - step).max(self.target);
        }
        if self.room != before {
            vec![StateVar::RoomTemp(self.room)]
        } else {
            Vec::new()
        }
    }
}

/// Wall clock: time of day advancing with ticks.
#[derive(Debug, Clone)]
pub struct ClockFcm {
    name: String,
    /// Milliseconds since midnight.
    ms: u64,
}

impl ClockFcm {
    /// Creates a clock at `seconds` past midnight.
    pub fn new(name: impl Into<String>, seconds: u32) -> ClockFcm {
        ClockFcm {
            name: name.into(),
            ms: seconds as u64 * 1000,
        }
    }

    /// Seconds since midnight.
    pub fn seconds(&self) -> u32 {
        ((self.ms / 1000) % 86_400) as u32
    }
}

impl Fcm for ClockFcm {
    fn class(&self) -> FcmClass {
        FcmClass::Clock
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse {
        match cmd {
            FcmCommand::GetStatus => FcmResponse::Status(self.status()),
            _ => unsupported(),
        }
    }

    fn status(&self) -> Vec<StateVar> {
        vec![StateVar::TimeOfDay(self.seconds())]
    }

    fn tick(&mut self, dt_ms: u64) -> Vec<StateVar> {
        let before = self.seconds();
        self.ms += dt_ms;
        if self.seconds() != before {
            vec![StateVar::TimeOfDay(self.seconds())]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_power_gate() {
        let mut t = TunerFcm::new("tuner", 12);
        assert_eq!(
            t.handle(&FcmCommand::SetChannel(3)),
            FcmResponse::Error(FcmError::PoweredOff)
        );
        t.handle(&FcmCommand::SetPower(true));
        assert!(t.handle(&FcmCommand::SetChannel(3)).is_ok());
        assert_eq!(t.channel(), 3);
    }

    #[test]
    fn tuner_channel_bounds_and_wrap() {
        let mut t = TunerFcm::new("tuner", 5);
        t.handle(&FcmCommand::SetPower(true));
        assert!(!t.handle(&FcmCommand::SetChannel(0)).is_ok());
        assert!(!t.handle(&FcmCommand::SetChannel(6)).is_ok());
        t.handle(&FcmCommand::SetChannel(5));
        t.handle(&FcmCommand::StepChannel(1));
        assert_eq!(t.channel(), 1, "wraps past the top");
        t.handle(&FcmCommand::StepChannel(-1));
        assert_eq!(t.channel(), 5, "wraps below the bottom");
    }

    #[test]
    fn tuner_rejects_foreign_commands() {
        let mut t = TunerFcm::new("tuner", 5);
        t.handle(&FcmCommand::SetPower(true));
        assert_eq!(t.handle(&FcmCommand::SetVolume(10)), unsupported());
    }

    #[test]
    fn display_input_and_brightness() {
        let mut d = DisplayFcm::new("panel", 3);
        d.handle(&FcmCommand::SetPower(true));
        assert!(d.handle(&FcmCommand::SetInput(2)).is_ok());
        assert!(!d.handle(&FcmCommand::SetInput(3)).is_ok());
        assert!(d.handle(&FcmCommand::SetBrightness(0)).is_ok());
        assert!(!d.handle(&FcmCommand::SetBrightness(101)).is_ok());
    }

    #[test]
    fn vcr_transport_and_tape_motion() {
        let mut v = VcrFcm::new("deck", 60);
        v.handle(&FcmCommand::SetPower(true));
        v.handle(&FcmCommand::Transport(Transport::Play));
        let changed = v.tick(5_000);
        assert!(changed.contains(&StateVar::TapePos(5)));
        v.handle(&FcmCommand::Transport(Transport::FastForward));
        v.tick(4_000); // 8x -> +32s = 37s
        assert_eq!(v.position_s(), 37);
    }

    #[test]
    fn vcr_autostops_at_tape_end() {
        let mut v = VcrFcm::new("deck", 10);
        v.handle(&FcmCommand::SetPower(true));
        v.handle(&FcmCommand::Transport(Transport::Play));
        let changed = v.tick(20_000);
        assert_eq!(v.transport(), Transport::Stop);
        assert!(changed.contains(&StateVar::Transport(Transport::Stop)));
        assert_eq!(v.position_s(), 10);
    }

    #[test]
    fn vcr_rewind_stops_at_zero() {
        let mut v = VcrFcm::new("deck", 10);
        v.handle(&FcmCommand::SetPower(true));
        v.handle(&FcmCommand::Transport(Transport::Play));
        v.tick(3_000);
        v.handle(&FcmCommand::Transport(Transport::Rewind));
        v.tick(10_000);
        assert_eq!(v.position_s(), 0);
        assert_eq!(v.transport(), Transport::Stop);
    }

    #[test]
    fn vcr_power_off_stops_transport() {
        let mut v = VcrFcm::new("deck", 10);
        v.handle(&FcmCommand::SetPower(true));
        v.handle(&FcmCommand::Transport(Transport::Play));
        v.handle(&FcmCommand::SetPower(false));
        assert_eq!(v.transport(), Transport::Stop);
        assert!(v.tick(1000).is_empty(), "no motion while off");
    }

    #[test]
    fn amplifier_volume_clamp_and_mute() {
        let mut a = AmplifierFcm::new("amp");
        a.handle(&FcmCommand::SetPower(true));
        a.handle(&FcmCommand::StepVolume(100));
        assert_eq!(a.volume(), 100);
        a.handle(&FcmCommand::StepVolume(-300));
        assert_eq!(a.volume(), 0);
        assert!(!a.handle(&FcmCommand::SetVolume(101)).is_ok());
        a.handle(&FcmCommand::SetMute(true));
        assert!(a.muted());
    }

    #[test]
    fn light_dimmer_works_even_off() {
        let mut l = LightFcm::new("lamp");
        assert!(l.handle(&FcmCommand::SetDimmer(40)).is_ok());
        assert!(!l.handle(&FcmCommand::SetDimmer(-1)).is_ok());
    }

    #[test]
    fn aircon_converges_to_target() {
        let mut ac = AirconFcm::new("ac", 300);
        ac.handle(&FcmCommand::SetPower(true));
        ac.handle(&FcmCommand::SetTargetTemp(250)).vars();
        for _ in 0..100 {
            ac.tick(1000);
        }
        assert_eq!(ac.room_temp(), 250);
    }

    #[test]
    fn aircon_target_range() {
        let mut ac = AirconFcm::new("ac", 300);
        assert!(!ac.handle(&FcmCommand::SetTargetTemp(900)).is_ok());
        assert!(!ac.handle(&FcmCommand::SetTargetTemp(50)).is_ok());
    }

    #[test]
    fn clock_ticks_and_wraps() {
        let mut c = ClockFcm::new("clock", 86_399);
        assert!(c.tick(500).is_empty(), "sub-second tick silent");
        let changed = c.tick(500);
        assert_eq!(changed, vec![StateVar::TimeOfDay(0)], "wraps at midnight");
    }

    #[test]
    fn status_snapshots_complete() {
        let t = TunerFcm::new("t", 10);
        assert_eq!(t.status().len(), 2);
        let v = VcrFcm::new("v", 10);
        assert_eq!(v.status().len(), 3);
        let a = AmplifierFcm::new("a");
        assert_eq!(a.status().len(), 3);
    }
}

/// A surveillance/door camera: while powered it streams frames at a
/// fixed rate, advertised as a monotonically increasing frame counter.
/// (The actual pixels are synthesized by the viewer from the counter —
/// the middleware carries control state, not video payloads, matching
/// HAVi's separation of control and isochronous streams.)
#[derive(Debug, Clone)]
pub struct CameraFcm {
    name: String,
    power: bool,
    /// Frames produced so far.
    counter: u32,
    /// Stream rate in frames per second.
    fps: u32,
    /// Accumulated sub-frame time, milliseconds.
    residue_ms: u64,
}

impl CameraFcm {
    /// Creates a camera streaming at `fps` when powered.
    pub fn new(name: impl Into<String>, fps: u32) -> CameraFcm {
        CameraFcm {
            name: name.into(),
            power: false,
            counter: 0,
            fps: fps.clamp(1, 60),
            residue_ms: 0,
        }
    }
}

impl Fcm for CameraFcm {
    fn class(&self) -> FcmClass {
        FcmClass::Camera
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, cmd: &FcmCommand) -> FcmResponse {
        match cmd {
            FcmCommand::SetPower(on) => {
                self.power = *on;
                FcmResponse::Ok(vec![StateVar::Power(*on)])
            }
            FcmCommand::GetStatus => FcmResponse::Status(self.status()),
            _ => unsupported(),
        }
    }

    fn status(&self) -> Vec<StateVar> {
        vec![
            StateVar::Power(self.power),
            StateVar::FrameCounter(self.counter),
        ]
    }

    fn tick(&mut self, dt_ms: u64) -> Vec<StateVar> {
        if !self.power {
            return Vec::new();
        }
        self.residue_ms += dt_ms;
        let frame_ms = (1000 / self.fps) as u64;
        let new_frames = self.residue_ms / frame_ms;
        if new_frames == 0 {
            return Vec::new();
        }
        self.residue_ms %= frame_ms;
        self.counter = self.counter.wrapping_add(new_frames as u32);
        vec![StateVar::FrameCounter(self.counter)]
    }
}

#[cfg(test)]
mod camera_tests {
    use super::*;

    #[test]
    fn camera_streams_only_when_powered() {
        let mut cam = CameraFcm::new("door cam", 10);
        assert!(cam.tick(1000).is_empty());
        cam.handle(&FcmCommand::SetPower(true));
        let changed = cam.tick(1000);
        assert_eq!(changed, vec![StateVar::FrameCounter(10)]);
    }

    #[test]
    fn camera_accumulates_subframe_time() {
        let mut cam = CameraFcm::new("cam", 10); // 100ms per frame
        cam.handle(&FcmCommand::SetPower(true));
        assert!(cam.tick(60).is_empty());
        assert_eq!(cam.tick(60), vec![StateVar::FrameCounter(1)], "120ms total");
    }

    #[test]
    fn camera_rejects_foreign_commands() {
        let mut cam = CameraFcm::new("cam", 10);
        assert!(!cam.handle(&FcmCommand::SetVolume(3)).is_ok());
    }

    #[test]
    fn camera_fps_clamped() {
        let cam = CameraFcm::new("cam", 100_000);
        assert_eq!(cam.fps, 60);
        let cam = CameraFcm::new("cam", 0);
        assert_eq!(cam.fps, 1);
    }
}
