//! Model test of the session host: random interleavings of connections
//! opening, saying `Hello` (sometimes in a bad version), resuming,
//! clicking, requesting updates, closing, and time passing. No socket
//! and no sleep: the host runs on a clock the test advances.

use std::collections::HashSet;

use proptest::prelude::*;
use uniint_core::host::{ConnId, Link, Output, SessionHost};
use uniint_core::multi::MultiServer;
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::{ClientMessage, PROTOCOL_VERSION};
use uniint_raster::geom::Rect;
use uniint_telemetry::registry::Registry;
use uniint_wsys::prelude::{Button, Theme};
use uniint_wsys::ui::Ui;

/// Connections the model holds open at once.
const SLOTS: usize = 4;
/// Session grace of the host under test, microseconds.
const GRACE_US: u64 = 1_000_000;

#[derive(Debug, Clone)]
enum Op {
    Open(usize),
    Hello { slot: usize, name: usize, bad: bool },
    Resume(usize),
    Click(usize),
    Request(usize),
    Close(usize),
    Tick,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let slot = 0..SLOTS;
    prop_oneof![
        2 => slot.clone().prop_map(Op::Open),
        4 => (slot.clone(), 0usize..3, 0u32..10)
            .prop_map(|(slot, name, v)| Op::Hello { slot, name, bad: v == 0 }),
        2 => slot.clone().prop_map(Op::Resume),
        3 => slot.clone().prop_map(Op::Click),
        1 => slot.clone().prop_map(Op::Request),
        1 => slot.prop_map(Op::Close),
        2 => Just(Op::Tick),
    ]
}

/// How far the clock moves before an operation.
fn arb_step_us() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => Just(0u64),
        3 => 0u64..300_000,
        1 => Just(GRACE_US),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Open on both sides.
    Open,
    /// The host closed it; its peer may still send late messages.
    ClosedByHost,
    /// The transport closed it; nothing more arrives on it.
    Gone,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    conn: ConnId,
    state: State,
    said_hello: bool,
}

struct Model {
    host: SessionHost,
    ui: Ui,
    now_us: u64,
    slots: [Option<Slot>; SLOTS],
    names: usize,
}

impl Model {
    fn new(names: usize) -> Model {
        let mut ui = Ui::new(160, 120, Theme::classic(), "model");
        ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
        Model {
            host: SessionHost::new(MultiServer::new(), &Registry::new(), GRACE_US),
            ui,
            now_us: 0,
            slots: Default::default(),
            names,
        }
    }

    fn slot_of(&mut self, conn: ConnId) -> Option<&mut Slot> {
        self.slots.iter_mut().flatten().find(|s| s.conn == conn)
    }

    /// Checks and applies what the host asked of the transport.
    fn apply(&mut self, out: Vec<Output>) -> Result<(), TestCaseError> {
        for o in out {
            match o {
                Output::Send(conn, msgs) => {
                    let state = self.slot_of(conn).map(|s| s.state);
                    prop_assert_eq!(state, Some(State::Open), "sent to {}", conn);
                    prop_assert!(!msgs.is_empty());
                }
                Output::Close(conn) => {
                    let slot = self.slot_of(conn);
                    prop_assert!(slot.is_some(), "closed unknown {}", conn);
                    let slot = slot.unwrap();
                    prop_assert_eq!(slot.state, State::Open, "closed twice");
                    slot.state = State::ClosedByHost;
                }
            }
        }
        Ok(())
    }

    /// Sends `msgs` on the connection in `slot`, if its peer can still
    /// send. Returns the state it was in.
    fn send(
        &mut self,
        slot: usize,
        msgs: Vec<ClientMessage>,
    ) -> Result<Option<Slot>, TestCaseError> {
        let Some(before) = self.slots[slot].filter(|s| s.state != State::Gone) else {
            return Ok(None);
        };
        for msg in msgs {
            let out = self
                .host
                .receive(&mut self.ui, before.conn, msg, self.now_us);
            let out = out.collect();
            self.apply(out)?;
        }
        Ok(Some(before))
    }

    fn step(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Open(slot) => {
                if self.slots[slot]
                    .as_ref()
                    .is_none_or(|s| s.state != State::Open)
                {
                    let conn = self.host.open();
                    self.slots[slot] = Some(Slot {
                        conn,
                        state: State::Open,
                        said_hello: false,
                    });
                }
            }
            Op::Hello { slot, name, bad } => {
                let version = if bad {
                    PROTOCOL_VERSION + 1
                } else {
                    PROTOCOL_VERSION
                };
                let name = format!("name-{}", name % self.names);
                let hello = ClientMessage::Hello { version, name };
                let before = self.send(slot, vec![hello])?;
                if let (Some(before), Some(s)) = (before, self.slots[slot].as_mut()) {
                    s.said_hello = true;
                    if bad && before.state == State::Open {
                        prop_assert_eq!(s.state, State::ClosedByHost, "a bad version stays open");
                    }
                }
            }
            Op::Resume(slot) => {
                self.speak(slot, vec![ClientMessage::Resume { last_update_seq: 0 }])?
            }
            Op::Click(slot) => {
                let click = InputEvent::click(40, 30).map(ClientMessage::Input).to_vec();
                self.speak(slot, click)?;
            }
            Op::Request(slot) => {
                let request = ClientMessage::UpdateRequest {
                    incremental: true,
                    rect: Rect::new(0, 0, 160, 120),
                };
                self.speak(slot, vec![request])?;
            }
            Op::Close(slot) => {
                if let Some(s) = self.slots[slot].as_mut().filter(|s| s.state != State::Gone) {
                    if s.state == State::Open {
                        self.host.close(s.conn, self.now_us);
                    }
                    s.state = State::Gone;
                }
            }
            Op::Tick => {
                let out = self.host.tick(&mut self.ui, self.now_us).collect();
                self.apply(out)?;
            }
        }
        Ok(())
    }

    /// Sends messages other than `Hello` on the connection in `slot`.
    fn speak(&mut self, slot: usize, msgs: Vec<ClientMessage>) -> Result<(), TestCaseError> {
        let _ = self.ui.take_actions();
        let Some(before) = self.send(slot, msgs)? else {
            return Ok(());
        };
        let actions = self.ui.take_actions();
        if before.state == State::ClosedByHost {
            prop_assert!(
                actions.is_empty(),
                "a displaced connection reached the panel"
            );
        }
        if before.state == State::Open && !before.said_hello {
            let state = self.slots[slot].as_ref().map(|s| s.state);
            prop_assert_eq!(
                state,
                Some(State::ClosedByHost),
                "spoke before Hello, still open"
            );
            prop_assert!(actions.is_empty(), "spoke before Hello, reached the panel");
        }
        Ok(())
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let sessions: Vec<_> = self.host.sessions().collect();
        let names: HashSet<&str> = sessions.iter().map(|(_, name, _)| *name).collect();
        prop_assert_eq!(names.len(), sessions.len(), "a name with two sessions");
        prop_assert_eq!(self.host.multi().client_count(), sessions.len());

        let open: Vec<ConnId> = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.state == State::Open)
            .map(|s| s.conn)
            .collect();
        let mut attached = HashSet::new();
        for (sid, name, link) in &sessions {
            if let Link::Attached(conn) = link {
                prop_assert!(open.contains(conn), "{} attached to closed {}", name, conn);
                prop_assert!(attached.insert(*conn), "{} attached twice", conn);
                prop_assert_eq!(
                    self.host.bound(*conn),
                    Some(*sid),
                    "{} not bound to {}",
                    conn,
                    name
                );
            }
        }
        for conn in open {
            if let Some(sid) = self.host.bound(conn) {
                let link = sessions
                    .iter()
                    .find(|(s, _, _)| *s == sid)
                    .map(|(_, _, l)| *l);
                prop_assert_eq!(
                    link,
                    Some(Link::Attached(conn)),
                    "{} bound to a session elsewhere",
                    conn
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_host_keeps_one_session_per_name_and_one_connection_per_session(
        names in 2usize..=3,
        ops in proptest::collection::vec((arb_step_us(), arb_op()), 1..80),
    ) {
        let mut m = Model::new(names);
        for (step_us, op) in ops {
            m.now_us += step_us;
            m.step(op)?;
            m.check()?;
        }
    }
}
