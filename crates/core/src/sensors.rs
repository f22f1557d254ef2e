//! Situation inference from home sensors.
//!
//! The paper assumes "the most appropriate interaction device should be
//! dynamically chosen according to a user's current situation" but leaves
//! situation sensing to context-aware systems (its reference \[2\], the
//! AT&T Active Bat work). This module supplies that missing piece: a
//! [`SituationTracker`] fusing discrete sensor readings — location
//! beacons, noise level, activity heuristics — into the
//! [`crate::context::Situation`] the selection policy consumes, with
//! hysteresis so momentary sensor blips do not thrash device switches.

use crate::context::{Activity, Noise, Situation};

/// A discrete sensor reading, timestamped by the caller's clock (ms).
#[derive(Debug, Clone, PartialEq)]
pub enum SensorReading {
    /// A location beacon saw the user's badge in a zone.
    Badge {
        /// Zone the badge was seen in.
        zone: String,
    },
    /// Ambient microphone noise estimate.
    NoiseLevel(Noise),
    /// The stove is on/off (kitchen activity cue).
    StoveActive(bool),
    /// A pressure sensor in the sofa.
    SofaOccupied(bool),
    /// The bedroom light master switch.
    BedroomDark(bool),
    /// Wearable accelerometer says the user is walking.
    Walking(bool),
    /// Both of the user's hands grip something instrumented (cooking
    /// tools, cleaning gear).
    HandsBusy(bool),
}

/// Fuses sensor readings into a stable [`Situation`].
///
/// Readings are applied with [`observe`](Self::observe); the derived
/// situation only *commits* after the same derivation has been stable
/// for `hysteresis_ms`, preventing device-switch thrash.
#[derive(Debug, Clone)]
pub struct SituationTracker {
    zone: String,
    noise: Noise,
    stove: bool,
    sofa: bool,
    dark: bool,
    walking: bool,
    hands_busy: bool,
    hysteresis_ms: u64,
    committed: Situation,
    candidate: Situation,
    candidate_since_ms: u64,
    now_ms: u64,
}

impl SituationTracker {
    /// Creates a tracker starting idle in `zone` with the given
    /// commitment delay.
    pub fn new(zone: impl Into<String>, hysteresis_ms: u64) -> SituationTracker {
        let zone = zone.into();
        let initial = Situation::idle(zone.clone());
        SituationTracker {
            zone,
            noise: Noise::Quiet,
            stove: false,
            sofa: false,
            dark: false,
            walking: false,
            hands_busy: false,
            hysteresis_ms,
            committed: initial.clone(),
            candidate: initial,
            candidate_since_ms: 0,
            now_ms: 0,
        }
    }

    /// The currently committed situation.
    pub fn situation(&self) -> &Situation {
        &self.committed
    }

    /// The derivation that will commit once stable (may equal the
    /// committed situation).
    pub fn pending(&self) -> &Situation {
        &self.candidate
    }

    /// Applies one reading at time `now_ms`. Returns `Some(situation)`
    /// when the committed situation changed.
    pub fn observe(&mut self, now_ms: u64, reading: SensorReading) -> Option<Situation> {
        self.now_ms = now_ms;
        match reading {
            SensorReading::Badge { zone } => self.zone = zone,
            SensorReading::NoiseLevel(n) => self.noise = n,
            SensorReading::StoveActive(b) => self.stove = b,
            SensorReading::SofaOccupied(b) => self.sofa = b,
            SensorReading::BedroomDark(b) => self.dark = b,
            SensorReading::Walking(b) => self.walking = b,
            SensorReading::HandsBusy(b) => self.hands_busy = b,
        }
        self.reconsider()
    }

    /// Advances time without a reading (lets pending situations commit).
    pub fn tick(&mut self, now_ms: u64) -> Option<Situation> {
        self.now_ms = now_ms;
        self.reconsider()
    }

    /// Derives the activity from the current sensor state. Priority
    /// order matters: hard cues (stove, bed) beat soft ones (walking).
    fn derive(&self) -> Situation {
        let activity = if self.stove && self.zone == "kitchen" {
            Activity::Cooking
        } else if self.dark && self.zone == "bedroom" {
            Activity::Sleeping
        } else if self.sofa {
            Activity::WatchingTv
        } else if self.walking {
            Activity::Walking
        } else {
            Activity::Idle
        };
        Situation {
            zone: self.zone.clone(),
            activity,
            hands_busy: self.hands_busy || (self.stove && self.zone == "kitchen"),
            noise: self.noise,
        }
    }

    fn reconsider(&mut self) -> Option<Situation> {
        let derived = self.derive();
        if derived != self.candidate {
            self.candidate = derived;
            self.candidate_since_ms = self.now_ms;
        }
        if self.candidate != self.committed
            && self.now_ms.saturating_sub(self.candidate_since_ms) >= self.hysteresis_ms
        {
            self.committed = self.candidate.clone();
            return Some(self.committed.clone());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn badge_moves_zone_after_hysteresis() {
        let mut t = SituationTracker::new("hall", 1000);
        assert!(t
            .observe(
                0,
                SensorReading::Badge {
                    zone: "kitchen".into()
                }
            )
            .is_none());
        assert_eq!(t.situation().zone, "hall", "not committed yet");
        let s = t.tick(1000).expect("commits after hysteresis");
        assert_eq!(s.zone, "kitchen");
    }

    #[test]
    fn zero_hysteresis_commits_immediately() {
        let mut t = SituationTracker::new("hall", 0);
        let s = t
            .observe(5, SensorReading::Badge { zone: "den".into() })
            .expect("immediate commit");
        assert_eq!(s.zone, "den");
    }

    #[test]
    fn blip_does_not_commit() {
        let mut t = SituationTracker::new("hall", 1000);
        t.observe(0, SensorReading::SofaOccupied(true));
        // The user stands up again before the hysteresis elapses.
        t.observe(500, SensorReading::SofaOccupied(false));
        assert!(t.tick(5000).is_none(), "blip filtered");
        assert_eq!(t.situation().activity, Activity::Idle);
    }

    #[test]
    fn stove_in_kitchen_means_cooking_hands_busy() {
        let mut t = SituationTracker::new("hall", 0);
        t.observe(
            0,
            SensorReading::Badge {
                zone: "kitchen".into(),
            },
        );
        let s = t
            .observe(1, SensorReading::StoveActive(true))
            .expect("commit");
        assert_eq!(s.activity, Activity::Cooking);
        assert!(s.hands_busy, "cooking implies busy hands");
    }

    #[test]
    fn stove_elsewhere_is_not_cooking() {
        let mut t = SituationTracker::new("living-room", 0);
        t.observe(0, SensorReading::StoveActive(true));
        assert_eq!(t.situation().activity, Activity::Idle);
    }

    #[test]
    fn priority_stove_beats_sofa() {
        let mut t = SituationTracker::new("kitchen", 0);
        t.observe(0, SensorReading::SofaOccupied(true));
        t.observe(1, SensorReading::StoveActive(true));
        assert_eq!(t.situation().activity, Activity::Cooking);
        t.observe(2, SensorReading::StoveActive(false));
        assert_eq!(t.situation().activity, Activity::WatchingTv);
    }

    #[test]
    fn dark_bedroom_is_sleeping() {
        let mut t = SituationTracker::new("bedroom", 0);
        t.observe(0, SensorReading::BedroomDark(true));
        assert_eq!(t.situation().activity, Activity::Sleeping);
    }

    #[test]
    fn walking_and_noise_tracked() {
        let mut t = SituationTracker::new("hall", 0);
        t.observe(0, SensorReading::Walking(true));
        assert_eq!(t.situation().activity, Activity::Walking);
        t.observe(1, SensorReading::NoiseLevel(Noise::Loud));
        assert_eq!(t.situation().noise, Noise::Loud);
    }

    #[test]
    fn pending_visible_before_commit() {
        let mut t = SituationTracker::new("hall", 10_000);
        t.observe(0, SensorReading::Walking(true));
        assert_eq!(t.pending().activity, Activity::Walking);
        assert_eq!(t.situation().activity, Activity::Idle);
    }

    #[test]
    fn candidate_timer_resets_on_change() {
        let mut t = SituationTracker::new("hall", 1000);
        t.observe(0, SensorReading::SofaOccupied(true));
        t.observe(900, SensorReading::Walking(true)); // sofa still occupied → still WatchingTv
                                                      // Same candidate (sofa wins over walking), so commit at 1000.
        assert!(t.tick(1000).is_some());
        assert_eq!(t.situation().activity, Activity::WatchingTv);
    }
}
