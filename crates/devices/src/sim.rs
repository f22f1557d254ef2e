//! Simulated interaction devices: front-ends that emit [`DeviceEvent`]s
//! the way real hardware would, plus ready-made
//! [`uniint_core::coordinator::InteractionDevice`] registrations bundling
//! descriptor + plug-in factories.

use crate::input::{GesturePlugin, KeypadPlugin, RemotePlugin, StylusPlugin, VoicePlugin};
use crate::output::{ScreenPlugin, TerminalPlugin};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniint_core::context::{DeviceDescriptor, InputModality, OutputProfile};
use uniint_core::coordinator::InteractionDevice;
use uniint_core::plugin::{DeviceEvent, Gesture, Nav, RemoteKey};
use uniint_raster::geom::Size;

/// A simulated PDA: stylus input + QVGA screen.
#[derive(Debug, Default)]
pub struct SimPda;

impl SimPda {
    /// Event sequence for a stylus tap at `(x, y)` (device coordinates).
    pub fn tap(x: u16, y: u16) -> Vec<DeviceEvent> {
        vec![
            DeviceEvent::StylusDown { x, y },
            DeviceEvent::StylusUp { x, y },
        ]
    }

    /// Event sequence for a drag from `from` to `to` with `steps`
    /// intermediate moves.
    pub fn drag(from: (u16, u16), to: (u16, u16), steps: u16) -> Vec<DeviceEvent> {
        let mut out = vec![DeviceEvent::StylusDown {
            x: from.0,
            y: from.1,
        }];
        for i in 1..=steps {
            let x = from.0 as i32 + (to.0 as i32 - from.0 as i32) * i as i32 / steps.max(1) as i32;
            let y = from.1 as i32 + (to.1 as i32 - from.1 as i32) * i as i32 / steps.max(1) as i32;
            out.push(DeviceEvent::StylusMove {
                x: x as u16,
                y: y as u16,
            });
        }
        out.push(DeviceEvent::StylusUp { x: to.0, y: to.1 });
        out
    }

    /// The coordinator registration for this PDA.
    pub fn interaction_device(id: &str) -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::carried(id, "PDA")
                .with_input(InputModality::Stylus)
                .with_output(OutputProfile {
                    size: Size::new(240, 320),
                    depth_bits: 12,
                    far_readable: false,
                }),
        )
        .with_input_factory(Box::new(|| Box::new(StylusPlugin::new())))
        .with_output_factory(Box::new(|| Box::new(ScreenPlugin::pda())))
    }
}

/// A simulated cellular phone: 12-key pad + tiny mono LCD.
#[derive(Debug, Default)]
pub struct SimPhone;

impl SimPhone {
    /// Maps a physical key label to its device event, mirroring 2002
    /// phone conventions: `2/4/6/8` double as a D-pad, `5` selects, `C`
    /// clears, digits type through when a text field has focus.
    pub fn press(label: char) -> Option<DeviceEvent> {
        match label {
            '2' => Some(DeviceEvent::KeypadNav(Nav::Up)),
            '4' => Some(DeviceEvent::KeypadNav(Nav::Left)),
            '6' => Some(DeviceEvent::KeypadNav(Nav::Right)),
            '8' => Some(DeviceEvent::KeypadNav(Nav::Down)),
            '5' => Some(DeviceEvent::KeypadSelect),
            'C' | 'c' => Some(DeviceEvent::KeypadBack),
            d @ '0'..='9' => Some(DeviceEvent::KeypadDigit(d as u8 - b'0')),
            _ => None,
        }
    }

    /// The coordinator registration for this phone.
    pub fn interaction_device(id: &str) -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::carried(id, "Cell Phone")
                .with_input(InputModality::Keypad)
                .with_output(OutputProfile {
                    size: Size::new(128, 128),
                    depth_bits: 1,
                    far_readable: false,
                }),
        )
        .with_input_factory(Box::new(|| Box::new(KeypadPlugin::new())))
        .with_output_factory(Box::new(|| Box::new(ScreenPlugin::phone_lcd())))
    }
}

/// A simulated speech recognizer with noise-dependent word accuracy.
/// Deterministic for a given seed, so failure-injection tests are
/// reproducible.
#[derive(Debug)]
pub struct VoiceRecognizer {
    rng: StdRng,
    /// Per-word recognition probability in `0..=1`.
    accuracy: f64,
}

impl VoiceRecognizer {
    /// Creates a recognizer; `accuracy` is the per-word probability of
    /// correct recognition (clamped to `0..=1`).
    pub fn new(seed: u64, accuracy: f64) -> VoiceRecognizer {
        VoiceRecognizer {
            rng: StdRng::seed_from_u64(seed),
            accuracy: accuracy.clamp(0.0, 1.0),
        }
    }

    /// A studio-quality recognizer that never misses.
    pub fn perfect() -> VoiceRecognizer {
        VoiceRecognizer::new(0, 1.0)
    }

    /// "Hears" an utterance: each word survives with the configured
    /// accuracy, otherwise it is dropped (the dominant 2002 failure mode).
    /// Returns the device event, or `None` when nothing survived.
    pub fn hear(&mut self, utterance: &str) -> Option<DeviceEvent> {
        let kept: Vec<&str> = utterance
            .split_whitespace()
            .filter(|_| self.accuracy >= 1.0 || self.rng.gen_bool(self.accuracy))
            .collect();
        if kept.is_empty() {
            None
        } else {
            Some(DeviceEvent::Voice(kept.join(" ")))
        }
    }

    /// The coordinator registration for a fixed microphone in `zone`.
    pub fn interaction_device(id: &str, zone: &str) -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::fixed(id, "Microphone", zone).with_input(InputModality::Voice),
        )
        .with_input_factory(Box::new(|| Box::new(VoicePlugin::new())))
    }
}

/// A simulated infrared remote controller.
#[derive(Debug, Default)]
pub struct SimRemote;

impl SimRemote {
    /// A button press.
    pub fn press(key: RemoteKey) -> DeviceEvent {
        DeviceEvent::Remote(key)
    }

    /// The coordinator registration for a remote living in `zone`.
    pub fn interaction_device(id: &str, zone: &str) -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::fixed(id, "IR Remote", zone).with_input(InputModality::RemoteButtons),
        )
        .with_input_factory(Box::new(|| Box::new(RemotePlugin::new())))
    }
}

/// A simulated gesture wearable (ring/wristband).
#[derive(Debug, Default)]
pub struct SimWearable;

impl SimWearable {
    /// A recognized gesture.
    pub fn gesture(g: Gesture) -> DeviceEvent {
        DeviceEvent::Gesture(g)
    }

    /// The coordinator registration (carried, input + tiny eyepiece).
    pub fn interaction_device(id: &str) -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::carried(id, "Gesture Wearable")
                .with_input(InputModality::Gesture)
                .with_output(OutputProfile {
                    size: Size::new(160, 120),
                    depth_bits: 4,
                    far_readable: false,
                }),
        )
        .with_input_factory(Box::new(|| Box::new(GesturePlugin::new())))
        .with_output_factory(Box::new(|| Box::new(ScreenPlugin::eyepiece())))
    }
}

/// A television registered as an output-only interaction device in `zone`.
pub fn tv_interaction_device(id: &str, zone: &str) -> InteractionDevice {
    InteractionDevice::new(DeviceDescriptor::fixed(id, "Television", zone).with_output(
        OutputProfile {
            size: Size::new(640, 480),
            depth_bits: 24,
            far_readable: true,
        },
    ))
    .with_output_factory(Box::new(|| Box::new(ScreenPlugin::tv())))
}

/// A text terminal registered as an output-only device in `zone`.
pub fn terminal_interaction_device(id: &str, zone: &str) -> InteractionDevice {
    InteractionDevice::new(DeviceDescriptor::fixed(id, "Terminal", zone).with_output(
        OutputProfile {
            size: Size::new(80, 24),
            depth_bits: 8,
            far_readable: false,
        },
    ))
    .with_output_factory(Box::new(|| Box::new(TerminalPlugin::standard())))
}

/// Every simulated device in one home, for examples and benches:
/// PDA + phone + wearable carried; mic, remote and TV in the zones given.
pub fn standard_home(kitchen: &str, living_room: &str) -> Vec<InteractionDevice> {
    vec![
        SimPda::interaction_device("pda-1"),
        SimPhone::interaction_device("phone-1"),
        SimWearable::interaction_device("wearable-1"),
        VoiceRecognizer::interaction_device("mic-kitchen", kitchen),
        SimRemote::interaction_device("remote-lr", living_room),
        tv_interaction_device("tv-lr", living_room),
        terminal_interaction_device("term-kitchen", kitchen),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pda_tap_is_down_up() {
        let evs = SimPda::tap(10, 20);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0], DeviceEvent::StylusDown { x: 10, y: 20 });
        assert_eq!(evs[1], DeviceEvent::StylusUp { x: 10, y: 20 });
    }

    #[test]
    fn pda_drag_monotone() {
        let evs = SimPda::drag((0, 0), (10, 10), 5);
        assert_eq!(evs.len(), 7);
        assert!(matches!(evs[0], DeviceEvent::StylusDown { .. }));
        assert!(matches!(evs[6], DeviceEvent::StylusUp { x: 10, y: 10 }));
    }

    #[test]
    fn phone_keymap() {
        assert_eq!(SimPhone::press('2'), Some(DeviceEvent::KeypadNav(Nav::Up)));
        assert_eq!(SimPhone::press('5'), Some(DeviceEvent::KeypadSelect));
        assert_eq!(SimPhone::press('1'), Some(DeviceEvent::KeypadDigit(1)));
        assert_eq!(SimPhone::press('C'), Some(DeviceEvent::KeypadBack));
        assert_eq!(SimPhone::press('x'), None);
    }

    #[test]
    fn perfect_recognizer_keeps_everything() {
        let mut r = VoiceRecognizer::perfect();
        assert_eq!(
            r.hear("volume up"),
            Some(DeviceEvent::Voice("volume up".into()))
        );
    }

    #[test]
    fn zero_accuracy_hears_nothing() {
        let mut r = VoiceRecognizer::new(1, 0.0);
        assert_eq!(r.hear("select"), None);
    }

    #[test]
    fn noisy_recognizer_deterministic_per_seed() {
        let hear_all = |seed| {
            let mut r = VoiceRecognizer::new(seed, 0.5);
            (0..20).map(|_| r.hear("next select")).collect::<Vec<_>>()
        };
        assert_eq!(hear_all(7), hear_all(7));
    }

    #[test]
    fn standard_home_ids_unique() {
        let home = standard_home("kitchen", "living-room");
        let mut ids: Vec<_> = home.iter().map(|d| d.descriptor().id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), home.len());
    }

    #[test]
    fn registrations_have_expected_factories() {
        let pda = SimPda::interaction_device("p");
        assert!(pda.descriptor().input.is_some());
        assert!(pda.descriptor().output.is_some());
        let mic = VoiceRecognizer::interaction_device("m", "kitchen");
        assert!(mic.descriptor().input.is_some());
        assert!(mic.descriptor().output.is_none());
        let tv = tv_interaction_device("tv", "lr");
        assert!(tv.descriptor().input.is_none());
        assert!(tv.descriptor().output.is_some());
    }
}
