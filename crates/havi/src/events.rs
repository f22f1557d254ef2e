//! The HAVi event manager: fan-out of system and state-change events to
//! subscribers.

use crate::fcm::StateChange;
use crate::id::Guid;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Events posted on the home network.
#[derive(Debug, Clone, PartialEq)]
pub enum HaviEvent {
    /// A device joined (hot-plug).
    DeviceAdded(Guid),
    /// A device left.
    DeviceRemoved(Guid),
    /// An FCM's observable state changed.
    StateChanged(StateChange),
    /// The whole network reset (bus reset in real HAVi).
    NetworkReset,
}

/// Fan-out event distribution. Subscribers receive every event posted
/// after they subscribe; disconnected subscribers are pruned lazily.
#[derive(Debug, Default)]
pub struct EventManager {
    subscribers: Vec<Sender<HaviEvent>>,
}

impl EventManager {
    /// Creates an event manager with no subscribers.
    pub fn new() -> EventManager {
        EventManager::default()
    }

    /// Subscribes; the returned receiver sees all subsequent events.
    pub fn subscribe(&mut self) -> Receiver<HaviEvent> {
        let (tx, rx) = channel();
        self.subscribers.push(tx);
        rx
    }

    /// Posts an event to every live subscriber.
    pub fn post(&mut self, event: HaviEvent) {
        self.subscribers.retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Number of live subscribers (after pruning on last post).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribers_receive_events() {
        let mut em = EventManager::new();
        let rx1 = em.subscribe();
        let rx2 = em.subscribe();
        em.post(HaviEvent::DeviceAdded(Guid(7)));
        assert_eq!(rx1.try_recv().unwrap(), HaviEvent::DeviceAdded(Guid(7)));
        assert_eq!(rx2.try_recv().unwrap(), HaviEvent::DeviceAdded(Guid(7)));
    }

    #[test]
    fn late_subscriber_misses_earlier_events() {
        let mut em = EventManager::new();
        em.post(HaviEvent::NetworkReset);
        let rx = em.subscribe();
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn dropped_subscribers_pruned() {
        let mut em = EventManager::new();
        let rx = em.subscribe();
        drop(rx);
        let rx2 = em.subscribe();
        em.post(HaviEvent::NetworkReset);
        assert_eq!(em.subscriber_count(), 1);
        assert_eq!(rx2.try_recv().unwrap(), HaviEvent::NetworkReset);
    }

    #[test]
    fn events_are_ordered() {
        let mut em = EventManager::new();
        let rx = em.subscribe();
        em.post(HaviEvent::DeviceAdded(Guid(1)));
        em.post(HaviEvent::DeviceRemoved(Guid(1)));
        assert_eq!(rx.try_recv().unwrap(), HaviEvent::DeviceAdded(Guid(1)));
        assert_eq!(rx.try_recv().unwrap(), HaviEvent::DeviceRemoved(Guid(1)));
    }
}
