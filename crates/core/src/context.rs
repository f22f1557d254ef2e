//! Situation model, user preferences and the device-selection policy.
//!
//! The paper's second key characteristic: "suitable input/output
//! interaction devices are chosen according to a user's preference, and
//! dynamically changed according to the user's current situation" — a
//! user cooking with both hands busy is switched to voice input; a user
//! on the sofa gets the remote and the TV display. This module encodes
//! that policy as an explicit, testable scoring function.

use std::borrow::Borrow;

use uniint_raster::geom::Size;

/// Input modalities an interaction device can offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputModality {
    /// Pen/touch pointing (PDA).
    Stylus,
    /// Phone-style 12-key pad.
    Keypad,
    /// Speech commands.
    Voice,
    /// Wearable gesture recognition.
    Gesture,
    /// Infrared remote-controller buttons.
    RemoteButtons,
    /// A full keyboard+mouse (desktop viewer).
    Keyboard,
}

impl InputModality {
    /// All modalities.
    pub const ALL: [InputModality; 6] = [
        InputModality::Stylus,
        InputModality::Keypad,
        InputModality::Voice,
        InputModality::Gesture,
        InputModality::RemoteButtons,
        InputModality::Keyboard,
    ];

    /// How many hands the modality occupies.
    pub const fn hands_needed(self) -> u8 {
        match self {
            InputModality::Voice => 0,
            InputModality::Gesture => 1,
            InputModality::Stylus => 2, // hold + pen
            InputModality::Keypad | InputModality::RemoteButtons => 1,
            InputModality::Keyboard => 2,
        }
    }
}

impl core::fmt::Display for InputModality {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            InputModality::Stylus => "stylus",
            InputModality::Keypad => "keypad",
            InputModality::Voice => "voice",
            InputModality::Gesture => "gesture",
            InputModality::RemoteButtons => "remote",
            InputModality::Keyboard => "keyboard",
        };
        f.write_str(s)
    }
}

/// Display hardware offered by an output-capable device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputProfile {
    /// Native resolution.
    pub size: Size,
    /// Color depth in bits per pixel.
    pub depth_bits: u32,
    /// Whether the screen is readable from across a room.
    pub far_readable: bool,
}

/// A device available for interaction, as advertised to the proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDescriptor {
    /// Stable identifier ("pda-1", "kitchen-tv").
    pub id: String,
    /// Human-readable name.
    pub name: String,
    /// The zone the device is fixed in; `None` for devices carried by the
    /// user (PDA, phone, wearable) which are usable everywhere.
    pub zone: Option<String>,
    /// Input capability, if any.
    pub input: Option<InputModality>,
    /// Output capability, if any.
    pub output: Option<OutputProfile>,
}

impl DeviceDescriptor {
    /// A carried (zone-free) device.
    pub fn carried(id: impl Into<String>, name: impl Into<String>) -> DeviceDescriptor {
        DeviceDescriptor {
            id: id.into(),
            name: name.into(),
            zone: None,
            input: None,
            output: None,
        }
    }

    /// A device fixed in `zone`.
    pub fn fixed(
        id: impl Into<String>,
        name: impl Into<String>,
        zone: impl Into<String>,
    ) -> DeviceDescriptor {
        DeviceDescriptor {
            id: id.into(),
            name: name.into(),
            zone: Some(zone.into()),
            input: None,
            output: None,
        }
    }

    /// Adds an input modality.
    pub fn with_input(mut self, m: InputModality) -> DeviceDescriptor {
        self.input = Some(m);
        self
    }

    /// Adds an output profile.
    pub fn with_output(mut self, o: OutputProfile) -> DeviceDescriptor {
        self.output = Some(o);
        self
    }
}

/// What the user is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Nothing in particular.
    Idle,
    /// Cooking: hands busy, eyes on the stove.
    Cooking,
    /// On the sofa watching TV.
    WatchingTv,
    /// Working at a desk.
    Working,
    /// Moving between rooms.
    Walking,
    /// In bed.
    Sleeping,
}

/// Ambient noise level, which gates voice input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Noise {
    /// Quiet room.
    Quiet,
    /// Normal conversation/music.
    Moderate,
    /// Loud environment; speech recognition unreliable.
    Loud,
}

/// A snapshot of the user's situation, as a context system would provide.
#[derive(Debug, Clone, PartialEq)]
pub struct Situation {
    /// The zone (room) the user is in.
    pub zone: String,
    /// Current activity.
    pub activity: Activity,
    /// Whether the user's hands are occupied.
    pub hands_busy: bool,
    /// Ambient noise.
    pub noise: Noise,
}

impl Situation {
    /// An idle, quiet situation in `zone`.
    pub fn idle(zone: impl Into<String>) -> Situation {
        Situation {
            zone: zone.into(),
            activity: Activity::Idle,
            hands_busy: false,
            noise: Noise::Quiet,
        }
    }
}

/// Per-user preferences: an ordered ranking of input modalities (first is
/// most preferred) and a taste for large screens.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// User name.
    pub name: String,
    /// Most-preferred first. Unlisted modalities get no bonus.
    pub input_ranking: Vec<InputModality>,
    /// Extra weight on screen area when choosing outputs (0 = indifferent).
    pub prefers_large_screen: bool,
}

impl UserProfile {
    /// A profile with no particular preferences.
    pub fn neutral(name: impl Into<String>) -> UserProfile {
        UserProfile {
            name: name.into(),
            input_ranking: Vec::new(),
            prefers_large_screen: false,
        }
    }

    fn ranking_bonus(&self, m: InputModality) -> i32 {
        match self.input_ranking.iter().position(|&x| x == m) {
            Some(i) => 30 * (self.input_ranking.len() as i32 - i as i32),
            None => 0,
        }
    }
}

/// The two parts a device can play in an interaction; each is chosen
/// separately by [`select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Turning the user's actions into input events.
    Input,
    /// Showing the appliance panel.
    Output,
}

impl Role {
    /// Both roles, input first.
    pub(crate) const BOTH: [Role; 2] = [Role::Input, Role::Output];

    /// "input" or "output", as used in counter names and journal lines.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Role::Input => "input",
            Role::Output => "output",
        }
    }
}

/// Scores below this mean "do not use even if it is the only device".
pub const MIN_USABLE: i32 = -500;

/// A scored candidate device.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked<'a, D = DeviceDescriptor> {
    /// The device.
    pub device: &'a D,
    /// Its score; higher is better. Candidates at or below
    /// [`MIN_USABLE`] are unusable in this situation.
    pub score: i32,
}

/// Ranks the usable candidates for `role`, best first (ties broken by id
/// for determinism). Devices without the role's capability are left
/// out. A candidate is anything that borrows as a descriptor, so callers
/// can rank their own device records.
pub fn rank<'a, D: Borrow<DeviceDescriptor>>(
    role: Role,
    devices: &'a [D],
    sit: &Situation,
    user: &UserProfile,
) -> Vec<Ranked<'a, D>> {
    let score = match role {
        Role::Input => score_input,
        Role::Output => score_output,
    };
    let mut out: Vec<Ranked<'a, D>> = devices
        .iter()
        .filter_map(|d| {
            let score = score(d.borrow(), sit, user)?;
            (score > MIN_USABLE).then_some(Ranked { device: d, score })
        })
        .collect();
    out.sort_by(|a, b| {
        let id = |r: &Ranked<'a, D>| &r.device.borrow().id;
        b.score.cmp(&a.score).then(id(a).cmp(id(b)))
    });
    out
}

/// The best candidate for `role`, if any is usable.
pub fn select<'a, D: Borrow<DeviceDescriptor>>(
    role: Role,
    devices: &'a [D],
    sit: &Situation,
    user: &UserProfile,
) -> Option<&'a D> {
    rank(role, devices, sit, user).first().map(|r| r.device)
}

/// Reachability: carried devices work everywhere, fixed devices only in
/// their own room.
fn reach_score(dev: &DeviceDescriptor, sit: &Situation) -> i32 {
    match &dev.zone {
        None => 40,
        Some(z) if *z == sit.zone => 60,
        Some(_) => -1000,
    }
}

/// Scores an input-capable device; `None` when it has no input.
fn score_input(dev: &DeviceDescriptor, sit: &Situation, user: &UserProfile) -> Option<i32> {
    let m = dev.input?;
    let mut score = reach_score(dev, sit);
    // Hands.
    if sit.hands_busy {
        score += match m.hands_needed() {
            0 => 120,
            1 => -150,
            _ => -250,
        };
    }
    // Noise gates voice.
    if m == InputModality::Voice {
        score += match sit.noise {
            Noise::Quiet => 20,
            Noise::Moderate => -30,
            Noise::Loud => -400,
        };
        if sit.activity == Activity::Sleeping {
            score -= 100; // do not wake the household
        }
    }
    // Activity affinities.
    score += match (sit.activity, m) {
        (Activity::WatchingTv, InputModality::RemoteButtons) => 70,
        (Activity::Cooking, InputModality::Voice) => 60,
        (Activity::Working, InputModality::Keyboard) => 70,
        (Activity::Walking, InputModality::Keypad) => 30,
        (Activity::Walking, InputModality::Gesture) => 20,
        _ => 0,
    };
    score += user.ranking_bonus(m);
    Some(score)
}

/// Scores an output-capable device; `None` when it has no output.
fn score_output(dev: &DeviceDescriptor, sit: &Situation, user: &UserProfile) -> Option<i32> {
    let o = dev.output?;
    let mut score = reach_score(dev, sit);
    // Screen area, log-ish: bigger is better, with diminishing returns.
    let area = o.size.area().max(1);
    let mut area_w = 64 - area.leading_zeros() as i32; // ~log2(area)
    if user.prefers_large_screen {
        area_w *= 2;
    }
    score += area_w * 3;
    // Depth helps legibility.
    score += o.depth_bits as i32;
    // Watching TV from the sofa: must be far-readable.
    if sit.activity == Activity::WatchingTv {
        score += if o.far_readable { 80 } else { -60 };
    }
    // Cooking: a handheld screen is useless with busy hands; a fixed
    // panel in the kitchen is fine.
    if sit.hands_busy && dev.zone.is_none() {
        score -= 120;
    }
    Some(score)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home_devices() -> Vec<DeviceDescriptor> {
        vec![
            DeviceDescriptor::carried("pda-1", "PDA")
                .with_input(InputModality::Stylus)
                .with_output(OutputProfile {
                    size: Size::new(240, 320),
                    depth_bits: 12,
                    far_readable: false,
                }),
            DeviceDescriptor::carried("phone-1", "Cell Phone")
                .with_input(InputModality::Keypad)
                .with_output(OutputProfile {
                    size: Size::new(128, 128),
                    depth_bits: 1,
                    far_readable: false,
                }),
            DeviceDescriptor::fixed("mic-kitchen", "Kitchen Mic", "kitchen")
                .with_input(InputModality::Voice),
            DeviceDescriptor::fixed("remote-lr", "IR Remote", "living-room")
                .with_input(InputModality::RemoteButtons),
            DeviceDescriptor::fixed("tv-lr", "Living Room TV", "living-room").with_output(
                OutputProfile {
                    size: Size::new(640, 480),
                    depth_bits: 24,
                    far_readable: true,
                },
            ),
        ]
    }

    #[test]
    fn cooking_hands_busy_selects_voice() {
        let devices = home_devices();
        let sit = Situation {
            zone: "kitchen".into(),
            activity: Activity::Cooking,
            hands_busy: true,
            noise: Noise::Moderate,
        };
        let user = UserProfile::neutral("u");
        let best = select(Role::Input, &devices, &sit, &user).unwrap();
        assert_eq!(best.id, "mic-kitchen");
    }

    #[test]
    fn watching_tv_selects_remote_and_tv() {
        let devices = home_devices();
        let sit = Situation {
            zone: "living-room".into(),
            activity: Activity::WatchingTv,
            hands_busy: false,
            noise: Noise::Moderate,
        };
        let user = UserProfile::neutral("u");
        assert_eq!(
            select(Role::Input, &devices, &sit, &user).unwrap().id,
            "remote-lr"
        );
        assert_eq!(
            select(Role::Output, &devices, &sit, &user).unwrap().id,
            "tv-lr"
        );
    }

    #[test]
    fn wrong_room_fixed_devices_excluded() {
        let devices = home_devices();
        let sit = Situation::idle("bedroom");
        let user = UserProfile::neutral("u");
        let ranked = rank(Role::Input, &devices, &sit, &user);
        assert!(
            ranked.iter().all(|r| r.device.zone.is_none()),
            "only carried devices usable in a room with no fixed devices: {ranked:?}"
        );
    }

    #[test]
    fn loud_noise_disables_voice() {
        let devices = home_devices();
        let sit = Situation {
            zone: "kitchen".into(),
            activity: Activity::Cooking,
            hands_busy: true,
            noise: Noise::Loud,
        };
        let user = UserProfile::neutral("u");
        let best = select(Role::Input, &devices, &sit, &user).unwrap();
        assert_ne!(best.id, "mic-kitchen", "voice unusable in loud kitchen");
    }

    #[test]
    fn preference_ranking_breaks_ties() {
        let devices = home_devices();
        let sit = Situation::idle("hallway");
        let mut user = UserProfile::neutral("u");
        // Both carried devices are usable; prefer the phone keypad.
        user.input_ranking = vec![InputModality::Keypad, InputModality::Stylus];
        assert_eq!(
            select(Role::Input, &devices, &sit, &user).unwrap().id,
            "phone-1"
        );
        user.input_ranking = vec![InputModality::Stylus, InputModality::Keypad];
        assert_eq!(
            select(Role::Input, &devices, &sit, &user).unwrap().id,
            "pda-1"
        );
    }

    #[test]
    fn large_screen_preference_matters_in_room() {
        let devices = home_devices();
        let sit = Situation::idle("living-room");
        let user = UserProfile::neutral("u");
        // Even neutral users get the TV in its own room (zone + area).
        assert_eq!(
            select(Role::Output, &devices, &sit, &user).unwrap().id,
            "tv-lr"
        );
        // Outside the room, carried PDA wins.
        let sit2 = Situation::idle("garden");
        assert_eq!(
            select(Role::Output, &devices, &sit2, &user).unwrap().id,
            "pda-1"
        );
    }

    #[test]
    fn no_devices_no_selection() {
        let user = UserProfile::neutral("u");
        assert!(
            select::<DeviceDescriptor>(Role::Input, &[], &Situation::idle("x"), &user).is_none()
        );
    }

    #[test]
    fn input_only_devices_never_rank_as_outputs() {
        let devices = home_devices();
        let sit = Situation::idle("living-room");
        let user = UserProfile::neutral("u");
        let outs = rank(Role::Output, &devices, &sit, &user);
        assert!(outs.iter().all(|r| r.device.output.is_some()));
    }

    #[test]
    fn ranking_is_deterministic() {
        let devices = home_devices();
        let sit = Situation::idle("living-room");
        let user = UserProfile::neutral("u");
        let a: Vec<String> = rank(Role::Input, &devices, &sit, &user)
            .iter()
            .map(|r| r.device.id.clone())
            .collect();
        let b: Vec<String> = rank(Role::Input, &devices, &sit, &user)
            .iter()
            .map(|r| r.device.id.clone())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sleeping_penalizes_voice() {
        let mic = DeviceDescriptor::fixed("mic", "Mic", "bedroom").with_input(InputModality::Voice);
        let remote = DeviceDescriptor::fixed("rem", "Remote", "bedroom")
            .with_input(InputModality::RemoteButtons);
        let sit = Situation {
            zone: "bedroom".into(),
            activity: Activity::Sleeping,
            hands_busy: false,
            noise: Noise::Quiet,
        };
        let user = UserProfile::neutral("u");
        let devices = [mic, remote];
        let best = select(Role::Input, &devices, &sit, &user).unwrap();
        assert_eq!(best.id, "rem");
    }
}
