//! Model tests of the session host: random interleavings of connections
//! opening, saying `Hello` (sometimes in a bad version), resuming,
//! clicking, requesting updates, closing, and time passing; and viewers
//! of the narrowed damage the pump sends, which must converge to the
//! panel. No socket and no sleep: the host runs on a clock the test
//! advances.

use std::collections::HashSet;

use proptest::prelude::*;
use uniint_core::host::{ConnId, Link, Output, SessionHost};
use uniint_core::multi::MultiServer;
use uniint_core::proxy::UniIntProxy;
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use uniint_raster::color::Color;
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;
use uniint_telemetry::registry::Registry;
use uniint_wsys::prelude::{Button, Theme, Toggle};
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

// Viewers of narrowed damage: the server sends only the pixels a repaint
// changed, answers a repaint that changed none with an update of no
// rects, and every viewer still converges to the panel.

/// The area the clipped viewer (viewer 1) asks about.
const CLIP: Rect = Rect::new(60, 40, 70, 50);

#[derive(Debug, Clone)]
enum Act {
    /// A viewer clicks at a point of the panel.
    Click(usize, (i32, i32)),
    /// The application rewrites a rect with the pixels it holds.
    Rewrite(Rect),
    /// The application paints a rect.
    Paint(Rect, u8),
    /// A viewer switches its pixel format mid-stream.
    Format(usize, PixelFormat),
    /// What the server sends a viewer is lost until it resumes.
    Lose(usize),
    /// A viewer reattaches on a new connection and resumes.
    Resume(usize),
}

fn arb_act() -> impl Strategy<Value = Act> {
    let viewer = 0..3usize;
    let rect =
        (0i32..150, 0i32..110, 1u32..60, 1u32..40).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h));
    let format = prop_oneof![
        Just(PixelFormat::Rgb888),
        Just(PixelFormat::Rgb565),
        Just(PixelFormat::Gray4),
        Just(PixelFormat::Mono1),
    ];
    prop_oneof![
        4 => (viewer.clone(), prop_oneof![Just((40, 30)), Just((100, 70)), Just((80, 100))])
            .prop_map(|(v, at)| Act::Click(v, at)),
        3 => rect.clone().prop_map(Act::Rewrite),
        2 => (rect, 0u8..4).prop_map(|(r, c)| Act::Paint(r, c)),
        1 => (viewer.clone(), format).prop_map(|(v, f)| Act::Format(v, f)),
        1 => viewer.clone().prop_map(Act::Lose),
        1 => viewer.prop_map(Act::Resume),
    ]
}

/// One viewer: its proxy, connection and what the test knows of it.
struct Viewer {
    proxy: UniIntProxy,
    conn: ConnId,
    format: PixelFormat,
    /// Whether what the server sends it is being lost.
    losing: bool,
    /// The sequence number of the last update the server sent it.
    last_seq: u64,
    /// The updates it received in the last settle, by their rect counts.
    received: Vec<usize>,
}

struct Viewers {
    host: SessionHost,
    ui: Ui,
    viewers: Vec<Viewer>,
}

impl Viewers {
    fn new() -> Result<Viewers, TestCaseError> {
        let mut ui = Ui::new(160, 120, Theme::classic(), "narrowed");
        ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
        ui.add(Toggle::new("Mute", false), Rect::new(70, 60, 80, 24));
        ui.add(Button::new("Mode"), Rect::new(40, 92, 80, 20));
        let mut m = Viewers {
            host: SessionHost::new(MultiServer::new(), &Registry::new(), GRACE_US),
            ui,
            viewers: Vec::new(),
        };
        for v in 0..3 {
            let mut proxy = UniIntProxy::new(format!("viewer-{v}"));
            let conn = m.host.open();
            let hello = proxy.connect();
            m.viewers.push(Viewer {
                proxy,
                conn,
                format: PixelFormat::Rgb888,
                losing: false,
                last_seq: 0,
                received: Vec::new(),
            });
            m.settle(v, hello)?;
        }
        Ok(m)
    }

    /// The area viewer `v` asks about.
    fn asks(v: usize) -> Rect {
        if v == 1 {
            CLIP
        } else {
            Rect::new(0, 0, 160, 120)
        }
    }

    /// Hands `msgs` from viewer `v` to the host, what the host sends to
    /// the proxies and their answers back, until none is left.
    fn settle(&mut self, v: usize, msgs: Vec<ClientMessage>) -> Result<(), TestCaseError> {
        for viewer in &mut self.viewers {
            viewer.received.clear();
        }
        let mut inbound = vec![(v, msgs)];
        loop {
            let mut out = Vec::new();
            for (i, msgs) in inbound.drain(..) {
                for mut msg in msgs {
                    // The clipped viewer asks about its area only.
                    if let ClientMessage::UpdateRequest { rect, .. } = &mut msg {
                        *rect = rect.intersect(Self::asks(i)).unwrap_or(Rect::EMPTY);
                    }
                    let conn = self.viewers[i].conn;
                    out.extend(self.host.receive(&mut self.ui, conn, msg, 0));
                }
            }
            out.extend(self.host.tick(&mut self.ui, 0));
            if out.is_empty() {
                return Ok(());
            }
            for o in out {
                let Output::Send(conn, msgs) = o else {
                    continue;
                };
                let i = self.viewers.iter().position(|w| w.conn == conn);
                prop_assert!(i.is_some(), "sent to a connection no viewer holds");
                let i = i.unwrap();
                let viewer = &mut self.viewers[i];
                for msg in msgs {
                    if let ServerMessage::Update { seq, rects, .. } = &msg {
                        prop_assert_eq!(*seq, viewer.last_seq + 1, "update seqs skip");
                        viewer.last_seq = *seq;
                        viewer.received.push(rects.len());
                    }
                    if !viewer.losing {
                        let out = viewer.proxy.handle_server(&msg);
                        inbound.push((i, out.expect("the server's messages apply").messages));
                    }
                }
            }
        }
    }

    fn act(&mut self, act: &Act) -> Result<(), TestCaseError> {
        match *act {
            Act::Click(v, (x, y)) if !self.viewers[v].losing => {
                let click = InputEvent::click(x as u16, y as u16);
                self.settle(v, click.map(ClientMessage::Input).to_vec())?;
            }
            Act::Rewrite(rect) => {
                let (rect, px) = self.ui.framebuffer().read_rect(rect);
                self.ui.framebuffer_mut().write_rect(rect, &px);
                self.settle(0, Vec::new())?;
                // Every viewer whose request the repaint met is answered
                // once, with no rects; the others are not answered. (A
                // losing viewer may have a request the server still
                // answers.)
                for (v, viewer) in self.viewers.iter().enumerate() {
                    if viewer.losing {
                        continue;
                    }
                    let met = Self::asks(v).intersects(rect);
                    let want = if met { vec![0] } else { Vec::new() };
                    prop_assert_eq!(&viewer.received, &want, "viewer {} after {:?}", v, rect);
                }
            }
            Act::Paint(rect, c) => {
                let color = [Color::BLACK, Color::WHITE, Color::RED, Color::BLUE][c as usize];
                self.ui.framebuffer_mut().fill_rect(rect, color);
                self.settle(0, Vec::new())?;
            }
            Act::Format(v, format) if !self.viewers[v].losing => {
                self.viewers[v].format = format;
                self.settle(v, vec![ClientMessage::SetPixelFormat(format)])?;
            }
            Act::Lose(v) => self.viewers[v].losing = true,
            Act::Resume(v) if self.viewers[v].losing => {
                let viewer = &mut self.viewers[v];
                self.host.close(viewer.conn, 0);
                viewer.conn = self.host.open();
                viewer.losing = false;
                let reattach = vec![
                    ClientMessage::Hello {
                        version: PROTOCOL_VERSION,
                        name: format!("viewer-{v}"),
                    },
                    ClientMessage::Resume {
                        last_update_seq: viewer.proxy.last_update_seq(),
                    },
                ];
                self.settle(v, reattach)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Every viewer that is not losing shows the panel, in its format,
    /// in the area it asks about.
    fn check(&self) -> Result<(), TestCaseError> {
        for (v, viewer) in self.viewers.iter().enumerate() {
            if viewer.losing {
                continue;
            }
            let fb = viewer.proxy.server_frame().expect("a running viewer");
            let (_, mut want) = self.ui.framebuffer().read_rect(Self::asks(v));
            want.iter_mut().for_each(|c| *c = viewer.format.reduce(*c));
            let (_, shown) = fb.read_rect(Self::asks(v));
            prop_assert!(shown == want, "viewer {} does not show the panel", v);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Clicks, repaints that change nothing, paints, pixel-format
    /// switches mid-stream and resumes after lost updates, watched by two
    /// whole-frame viewers and one that asks about a corner only.
    #[test]
    fn viewers_of_narrowed_damage_converge_to_the_panel(
        acts in proptest::collection::vec(arb_act(), 1..40),
    ) {
        let mut m = Viewers::new()?;
        m.check()?;
        for (k, act) in acts.iter().enumerate() {
            m.act(act).and_then(|()| m.check()).map_err(|e| {
                TestCaseError::fail(format!("{e:?} after {:?}", &acts[..=k]))
            })?;
        }
        // Whatever was lost is resumed.
        for v in 0..3 {
            m.act(&Act::Resume(v))?;
        }
        m.check()?;
    }
}
