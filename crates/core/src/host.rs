//! The session host: the server side of every connection's lifecycle,
//! with no socket and no clock.
//!
//! A [`SessionHost`] owns the [`MultiServer`] and the table of
//! name-keyed sessions. Its caller owns the transport: it accepts
//! connections, reads and decodes frames, and writes and closes them
//! (the gateway's `poll(2)` loop over TCP, [`crate::session::SimSession`]
//! over the network simulator). The caller hands the host one event at
//! a time, stamped with its own clock in microseconds:
//!
//! - [`open`](SessionHost::open): a connection arrived, and the host
//!   names it;
//! - [`receive`](SessionHost::receive): one decoded client message;
//! - [`close`](SessionHost::close): the transport lost a connection;
//! - [`tick`](SessionHost::tick): housekeeping, then the damage pump.
//!
//! `receive` and `tick` return what the host asks of the transport, in
//! order ([`Output`]): messages for a connection, whether replies or a
//! share of the pump, and connections the host has closed. The host
//! forgets a connection once it closes it, and ignores what the
//! connection sends after that.
//!
//! Reconnects are handled by *session adoption*: sessions are keyed by
//! the client name from `Hello`. A `Hello` for a known name followed by
//! `Resume` re-binds the existing server session, with its damage
//! account and send log intact, to the new connection, so the resume is
//! incremental instead of a full refresh. Anything else after that
//! `Hello` means a fresh client reusing the name: it replaces the old
//! session. A client that sends nothing after its `Hello` is resolved
//! the same way once `HELLO_GRACE` has passed, so name reuse never hangs
//! a handshake. A `Hello` on a connection already bound to that name's
//! session is not held: the session starts over at once, as on a bare
//! [`MultiServer`].
//!
//! Each session has one record: its name, and whether it is attached to
//! a connection or detached since some instant. Each connection is
//! `New`, holding a `Hello`, or bound to the one session attached to
//! it. Every lifecycle path goes through one `attach`/`detach`/`retire`
//! set: a session adopted or replaced on another connection closes the
//! connection it had, so a displaced connection's late messages reach
//! no session. A session detached for the session grace is retired:
//! its name and its [`MultiServer`] slot are freed, and the next
//! session reuses the slot.

use std::collections::HashMap;
use std::vec::Drain;

use uniint_protocol::message::{check_hello_version, ClientMessage, ServerMessage};
use uniint_telemetry::journal::Journal;
use uniint_telemetry::registry::{Counter, Registry};
use uniint_wsys::ui::Ui;

use crate::multi::{ClientId, MultiServer};

/// Identifies one connection. Not the same as a session: a session
/// survives reconnects, a connection does not.
pub type ConnId = usize;

/// How long, in microseconds, a `Hello` for an already-known name is
/// held back waiting for a `Resume` to tell a reconnect from name
/// reuse. A fresh client (crashed and restarted) sends only the Hello,
/// so once this grace has passed the Hello is resolved as a replacement
/// and the handshake completes.
const HELLO_GRACE: u64 = 250_000;

/// What the host asks of its transport.
#[derive(Debug)]
pub enum Output {
    /// Write these messages to the connection, in order.
    Send(ConnId, Vec<ServerMessage>),
    /// Close the connection once it has written what it holds. The host
    /// has forgotten it.
    Close(ConnId),
}

/// Where a session's output goes: to exactly one connection or to none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Bound to this open connection.
    Attached(ConnId),
    /// No connection since this time, in microseconds; retired once the
    /// session grace has passed.
    Detached(u64),
}

/// One name-keyed session; it survives its connections.
#[derive(Debug)]
struct Session {
    name: String,
    link: Link,
}

/// An open connection.
#[derive(Debug)]
enum Conn {
    /// No `Hello` yet.
    New,
    /// Holding a version-checked `Hello` for a known name, received at
    /// `since_us`, until the next message or `HELLO_GRACE`.
    Held {
        name: String,
        version: u16,
        since_us: u64,
    },
    /// Speaking for this session, which is attached to it.
    Bound(ClientId),
}

/// Name-keyed sessions over a [`MultiServer`]; see the module docs.
#[derive(Debug)]
pub struct SessionHost {
    multi: MultiServer,
    conns: HashMap<ConnId, Conn>,
    next_conn: ConnId,
    /// One record per live `MultiServer` client.
    sessions: HashMap<ClientId, Session>,
    session_grace_us: u64,
    reconnects: Counter,
    resumes: Counter,
    rejected_version: Counter,
    decode_errors: Counter,
    expired_sessions: Counter,
    journal: Journal,
    out: Vec<Output>,
}

impl SessionHost {
    /// A host serving through `multi` that retires a session detached
    /// for `session_grace_us`. Its `gateway.*` counters and journal
    /// lines go to `registry`.
    pub fn new(multi: MultiServer, registry: &Registry, session_grace_us: u64) -> SessionHost {
        SessionHost {
            multi,
            conns: HashMap::new(),
            next_conn: 0,
            sessions: HashMap::new(),
            session_grace_us,
            reconnects: registry.counter("gateway.reconnects"),
            resumes: registry.counter("gateway.resumes"),
            rejected_version: registry.counter("gateway.rejected_version"),
            decode_errors: registry.counter("gateway.decode_errors"),
            expired_sessions: registry.counter("gateway.expired_sessions"),
            journal: registry.journal().clone(),
            out: Vec::new(),
        }
    }

    /// The server all sessions share.
    pub fn multi(&self) -> &MultiServer {
        &self.multi
    }

    /// Every session: its server id, name and link.
    pub fn sessions(&self) -> impl Iterator<Item = (ClientId, &str, Link)> + '_ {
        self.sessions
            .iter()
            .map(|(&sid, s)| (sid, s.name.as_str(), s.link))
    }

    /// The session open connection `conn` speaks for, if it is bound.
    pub fn bound(&self, conn: ConnId) -> Option<ClientId> {
        match self.conns.get(&conn) {
            Some(Conn::Bound(sid)) => Some(*sid),
            _ => None,
        }
    }

    /// Takes on a new connection and names it. Ids are never reused.
    pub fn open(&mut self) -> ConnId {
        let conn = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(conn, Conn::New);
        conn
    }

    /// The transport lost connection `conn`: the host forgets it, and
    /// the session it was bound to stays, detached since `now_us`, so the
    /// name can come back and resume incrementally.
    pub fn close(&mut self, conn: ConnId, now_us: u64) {
        if let Some(Conn::Bound(sid)) = self.conns.remove(&conn) {
            self.detach(sid, conn, now_us);
        }
    }

    /// Applies one client message from connection `conn`: version
    /// policy, name-keyed session adoption, then the session's own
    /// protocol handling in the [`MultiServer`].
    pub fn receive(
        &mut self,
        ui: &mut Ui,
        conn: ConnId,
        msg: ClientMessage,
        now_us: u64,
    ) -> Drain<'_, Output> {
        if let Some((name, version)) = self.take_held(conn) {
            // Adopt the named session only on Resume. The name may also
            // have expired while held, leaving a fresh session.
            match (&msg, self.find(&name)) {
                (ClientMessage::Resume { .. }, Some(sid)) => {
                    // The Hello is not forwarded: it would reset the
                    // server session an incremental resume relies on.
                    self.attach(sid, conn, now_us);
                    self.reconnects.inc();
                    self.journal.record("gateway.reconnect", name);
                }
                _ => self.open_session(ui, conn, name, version, now_us),
            }
        }
        let bound = match self.conns.get(&conn) {
            // Closed: its late messages reach no session.
            None => return self.out.drain(..),
            Some(Conn::Bound(sid)) => self.sessions.get(sid).map(|s| (*sid, s)),
            Some(_) => None,
        };
        match (msg, bound) {
            (ClientMessage::Hello { version, name }, _)
                if check_hello_version(version).is_err() =>
            {
                self.rejected_version.inc();
                let detail = format!("{name}: v{version}");
                self.journal.record("gateway.rejected_version", detail);
                self.hang_up(conn, now_us);
            }
            // A Hello for the connection's own session goes to it below,
            // as on a bare `MultiServer`: no connection can be displaced.
            (ClientMessage::Hello { version, name }, bound)
                if bound.is_none_or(|(_, s)| s.name != name) =>
            {
                if let Some((sid, _)) = bound {
                    // Only one session may write to a connection.
                    self.detach(sid, conn, now_us);
                }
                if self.find(&name).is_none() {
                    self.open_session(ui, conn, name, version, now_us);
                } else {
                    // Reconnect or collision? The next message tells.
                    let held = Conn::Held {
                        name,
                        version,
                        since_us: now_us,
                    };
                    self.conns.insert(conn, held);
                }
            }
            (msg, Some((sid, _))) => {
                if matches!(msg, ClientMessage::Resume { .. }) {
                    self.resumes.inc();
                }
                let replies = self.multi.handle_message(ui, sid, msg);
                self.send(conn, replies);
            }
            // A message before any Hello: the peer is broken or hostile.
            (_, None) => {
                self.decode_errors.inc();
                self.hang_up(conn, now_us);
            }
        }
        self.out.drain(..)
    }

    /// Housekeeping at `now_us`, then the pump: resolves held `Hello`s
    /// whose grace has passed, retires sessions detached for the session
    /// grace, and routes each attached session's share of
    /// [`MultiServer::pump_all`] to its connection.
    pub fn tick(&mut self, ui: &mut Ui, now_us: u64) -> Drain<'_, Output> {
        // A reconnecting client sends `Resume` right after its Hello, so
        // a silent one is a fresh client reusing the name.
        let waited = |since: u64, grace: u64| now_us.saturating_sub(since) >= grace;
        let stale = keys_where(
            &self.conns,
            |c| matches!(c, Conn::Held { since_us, .. } if waited(*since_us, HELLO_GRACE)),
        );
        for conn in stale {
            if let Some((name, version)) = self.take_held(conn) {
                self.open_session(ui, conn, name, version, now_us);
            }
        }
        let grace = self.session_grace_us;
        let expired = keys_where(
            &self.sessions,
            |s| matches!(s.link, Link::Detached(since) if waited(since, grace)),
        );
        for sid in expired {
            if let Some(name) = self.retire(sid, now_us) {
                self.expired_sessions.inc();
                self.journal.record("gateway.session_expired", name);
            }
        }
        for (sid, msgs) in self.multi.pump_all(ui) {
            // A detached session's share is dropped: the damage it
            // carried is replayed when the name resumes.
            if let Some(&Link::Attached(conn)) = self.sessions.get(&sid).map(|s| &s.link) {
                self.send(conn, msgs);
            }
        }
        self.out.drain(..)
    }

    /// Takes the name and version of the `Hello` connection `conn` holds,
    /// leaving it `New`.
    fn take_held(&mut self, conn: ConnId) -> Option<(String, u16)> {
        let state = self.conns.get_mut(&conn)?;
        match std::mem::replace(state, Conn::New) {
            Conn::Held { name, version, .. } => Some((name, version)),
            other => {
                *state = other;
                None
            }
        }
    }

    /// The session named `name`, if one is live.
    fn find(&self, name: &str) -> Option<ClientId> {
        self.sessions
            .iter()
            .find(|(_, s)| s.name == name)
            .map(|(&sid, _)| sid)
    }

    /// Binds connection `conn` to a new session for `name`, replacing any
    /// session under that name, and forwards the Hello so the handshake
    /// replies flow.
    fn open_session(&mut self, ui: &mut Ui, conn: ConnId, name: String, version: u16, now_us: u64) {
        if let Some(old) = self.find(&name) {
            self.retire(old, now_us);
        }
        let sid = self.multi.accept(ui);
        let session = Session {
            name: name.clone(),
            link: Link::Attached(conn),
        };
        self.sessions.insert(sid, session);
        self.conns.insert(conn, Conn::Bound(sid));
        let replies = self
            .multi
            .handle_message(ui, sid, ClientMessage::Hello { version, name });
        self.send(conn, replies);
    }

    /// Points session `sid` at connection `conn`, closing the connection
    /// it was attached to.
    fn attach(&mut self, sid: ClientId, conn: ConnId, now_us: u64) {
        let Some(session) = self.sessions.get_mut(&sid) else {
            return;
        };
        if let Link::Attached(old) = std::mem::replace(&mut session.link, Link::Attached(conn)) {
            self.hang_up(old, now_us);
        }
        self.conns.insert(conn, Conn::Bound(sid));
    }

    /// Detaches session `sid` from connection `conn` if it is attached
    /// there. The server session keeps its damage account, bounded by
    /// the screen area, until the name resumes or the grace retires it.
    fn detach(&mut self, sid: ClientId, conn: ConnId, now_us: u64) {
        if let Some(s) = self.sessions.get_mut(&sid) {
            if s.link == Link::Attached(conn) {
                s.link = Link::Detached(now_us);
            }
        }
    }

    /// Ends session `sid`: frees its name and its server slot, and closes
    /// the connection it was attached to. Returns its name.
    fn retire(&mut self, sid: ClientId, now_us: u64) -> Option<String> {
        let session = self.sessions.remove(&sid)?;
        if let Link::Attached(conn) = session.link {
            self.hang_up(conn, now_us);
        }
        self.multi.disconnect(sid);
        Some(session.name)
    }

    /// Closes open connection `conn` from the host's side.
    fn hang_up(&mut self, conn: ConnId, now_us: u64) {
        if self.conns.contains_key(&conn) {
            self.close(conn, now_us);
            self.out.push(Output::Close(conn));
        }
    }

    fn send(&mut self, conn: ConnId, msgs: Vec<ServerMessage>) {
        if !msgs.is_empty() {
            self.out.push(Output::Send(conn, msgs));
        }
    }
}

/// The keys of the entries of `map` that `pick` selects.
fn keys_where<K: Copy, V>(map: &HashMap<K, V>, pick: impl Fn(&V) -> bool) -> Vec<K> {
    map.iter()
        .filter(|(_, v)| pick(v))
        .map(|(&k, _)| k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_protocol::input::InputEvent;
    use uniint_protocol::message::PROTOCOL_VERSION;
    use uniint_raster::geom::Rect;
    use uniint_wsys::prelude::{Button, Theme};

    const GRACE_US: u64 = 60_000_000;

    /// A host on virtual time, and what it asked of its transport.
    struct Rig {
        host: SessionHost,
        ui: Ui,
        registry: Registry,
        now_us: u64,
        sent: HashMap<ConnId, Vec<ServerMessage>>,
        closed: Vec<ConnId>,
    }

    impl Rig {
        fn new() -> Rig {
            let mut ui = Ui::new(160, 120, Theme::classic(), "host");
            ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
            let registry = Registry::new();
            Rig {
                host: SessionHost::new(MultiServer::new(), &registry, GRACE_US),
                ui,
                registry,
                now_us: 0,
                sent: HashMap::new(),
                closed: Vec::new(),
            }
        }

        fn take(&mut self, out: Vec<Output>) {
            for o in out {
                match o {
                    Output::Send(conn, msgs) => self.sent.entry(conn).or_default().extend(msgs),
                    Output::Close(conn) => self.closed.push(conn),
                }
            }
        }

        fn send(&mut self, conn: ConnId, msgs: impl IntoIterator<Item = ClientMessage>) {
            for msg in msgs {
                let out = self.host.receive(&mut self.ui, conn, msg, self.now_us);
                let out = out.collect();
                self.take(out);
            }
        }

        /// Advances virtual time to `now_us` and ticks.
        fn tick_at(&mut self, now_us: u64) {
            self.now_us = now_us;
            let out = self.host.tick(&mut self.ui, now_us).collect();
            self.take(out);
        }

        fn closed(&self, conn: ConnId) -> bool {
            self.closed.contains(&conn)
        }

        /// Whether connection `conn` was sent an `Init` since the last call.
        fn took_init(&mut self, conn: ConnId) -> bool {
            let msgs = self.sent.remove(&conn).unwrap_or_default();
            msgs.iter().any(|m| matches!(m, ServerMessage::Init { .. }))
        }

        /// Clicks the panel fired since the last call.
        fn clicks(&mut self) -> usize {
            self.ui.take_actions().len()
        }

        fn counter(&self, name: &str) -> u64 {
            self.registry.counter(name).get()
        }

        fn journal(&self, name: &str) -> Vec<String> {
            let events = self.registry.journal().events();
            events
                .into_iter()
                .filter(|e| e.name == name)
                .map(|e| e.detail)
                .collect()
        }

        fn session_named(&self, name: &str) -> Option<(ClientId, Link)> {
            self.host
                .sessions()
                .find(|(_, n, _)| *n == name)
                .map(|(sid, _, link)| (sid, link))
        }
    }

    fn hello(name: &str) -> ClientMessage {
        ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            name: name.into(),
        }
    }

    fn resume() -> ClientMessage {
        ClientMessage::Resume { last_update_seq: 0 }
    }

    fn click() -> Vec<ClientMessage> {
        InputEvent::click(40, 30)
            .into_iter()
            .map(ClientMessage::Input)
            .collect()
    }

    #[test]
    fn a_connection_displaced_by_resume_no_longer_speaks_for_the_session() {
        let mut h = Rig::new();
        let first = h.host.open();
        h.send(first, [hello("x")]);
        let second = h.host.open();
        h.send(second, [hello("x"), resume()]);
        assert!(h.closed(first), "the adopting socket displaces the first");

        h.send(first, click());
        assert_eq!(h.clicks(), 0, "a late click from the displaced socket");
        h.send(second, click());
        assert_eq!(h.clicks(), 1, "the adopting socket's click");
        assert!(!h.closed(second));
    }

    #[test]
    fn a_replaced_connection_does_not_reach_the_session_in_its_freed_slot() {
        let mut h = Rig::new();
        let first = h.host.open();
        h.send(first, [hello("x")]);
        let replaced = h.host.bound(first).expect("bound");
        // A fresh client reusing the name: anything but Resume after the
        // Hello replaces the old session instead of adopting it.
        let second = h.host.open();
        h.send(second, [hello("x"), ClientMessage::SetEncodings(vec![])]);
        assert!(h.closed(first), "the replacing socket displaces the first");
        assert_eq!(
            h.host.bound(second),
            Some(replaced),
            "the new session reuses the freed slot"
        );

        h.send(first, click());
        assert_eq!(h.clicks(), 0, "a late click from the replaced socket");
        h.send(second, click());
        assert_eq!(h.clicks(), 1, "the new session's click");
    }

    #[test]
    fn a_held_hello_resolves_as_a_replacement_at_exactly_the_grace() {
        let mut h = Rig::new();
        let first = h.host.open();
        h.send(first, [hello("x")]);
        assert!(h.took_init(first));
        h.tick_at(1_000);
        let second = h.host.open();
        h.send(second, [hello("x")]);
        assert_eq!(h.host.bound(second), None, "held");

        h.tick_at(1_000 + HELLO_GRACE - 1);
        assert_eq!(h.host.bound(second), None, "still held one µs before");
        assert!(!h.closed(first));
        assert!(!h.took_init(second));

        h.tick_at(1_000 + HELLO_GRACE);
        assert!(h.took_init(second), "the handshake completes");
        assert!(h.host.bound(second).is_some());
        assert!(h.closed(first), "the replaced session's connection");
        assert_eq!(h.host.sessions().count(), 1);
        assert_eq!(h.counter("gateway.reconnects"), 0);
    }

    #[test]
    fn hello_and_resume_adopt_the_session_and_displace_the_old_connection() {
        let mut h = Rig::new();
        let first = h.host.open();
        h.send(first, [hello("x")]);
        let sid = h.host.bound(first).expect("bound");
        let second = h.host.open();
        h.send(second, [hello("x"), resume()]);
        assert_eq!(h.host.bound(second), Some(sid), "the same session");
        assert_eq!(h.session_named("x"), Some((sid, Link::Attached(second))));
        assert!(h.closed(first));
        assert_eq!(h.host.bound(first), None, "forgotten");
        let acked = h.sent[&second]
            .iter()
            .any(|m| matches!(m, ServerMessage::ResumeAck { .. }));
        assert!(acked, "the Resume is answered");
        assert!(!h.took_init(second), "the Hello is not forwarded");
        assert_eq!(h.counter("gateway.reconnects"), 1);
        assert_eq!(h.counter("gateway.resumes"), 1);
        assert_eq!(h.journal("gateway.reconnect"), ["x"]);
    }

    #[test]
    fn hello_and_anything_else_replace_the_session_in_its_slot() {
        let mut h = Rig::new();
        let first = h.host.open();
        h.send(first, [hello("x")]);
        let sid = h.host.bound(first).expect("bound");
        let second = h.host.open();
        h.send(second, [hello("x")]);
        h.send(second, click());
        assert!(h.took_init(second), "a new handshake");
        assert_eq!(h.host.bound(second), Some(sid), "the freed slot");
        assert!(h.closed(first));
        assert_eq!(h.clicks(), 1, "the message that resolved the hold");
        assert_eq!(h.host.multi().client_count(), 1);
        assert_eq!(h.counter("gateway.reconnects"), 0);
    }

    #[test]
    fn a_second_held_hello_resolves_the_hold_as_a_replacement() {
        let mut h = Rig::new();
        let first = h.host.open();
        h.send(first, [hello("x")]);
        let second = h.host.open();
        h.send(second, [hello("x"), hello("x"), resume()]);
        assert!(h.took_init(second), "a new handshake");
        assert!(h.closed(first));
        assert_eq!(h.host.multi().client_count(), 1);
        assert_eq!(h.counter("gateway.reconnects"), 0);
    }

    #[test]
    fn a_detached_session_expires_at_the_grace_and_frees_its_name() {
        let mut h = Rig::new();
        let conn = h.host.open();
        h.send(conn, [hello("x")]);
        h.now_us = 5_000;
        h.host.close(conn, h.now_us);
        assert_eq!(
            h.session_named("x").map(|s| s.1),
            Some(Link::Detached(5_000))
        );

        h.tick_at(5_000 + GRACE_US - 1);
        assert!(h.session_named("x").is_some(), "one µs before the grace");
        h.tick_at(5_000 + GRACE_US);
        assert_eq!(h.session_named("x"), None);
        assert_eq!(h.host.multi().client_count(), 0);
        assert_eq!(h.counter("gateway.expired_sessions"), 1);
        assert_eq!(h.journal("gateway.session_expired"), ["x"]);
    }

    #[test]
    fn a_name_is_reused_after_expiry_without_a_hold() {
        let mut h = Rig::new();
        let first = h.host.open();
        h.send(first, [hello("x")]);
        h.host.close(first, 0);
        h.tick_at(GRACE_US);
        let second = h.host.open();
        h.send(second, [hello("x")]);
        assert!(h.took_init(second), "answered at once");
        assert!(h.host.bound(second).is_some());
    }

    #[test]
    fn a_re_hello_under_a_new_name_detaches_the_old_session() {
        let mut h = Rig::new();
        let conn = h.host.open();
        h.send(conn, [hello("a")]);
        h.now_us = 7;
        h.send(conn, [hello("b")]);
        assert_eq!(h.session_named("a").map(|s| s.1), Some(Link::Detached(7)));
        let (b, link) = h.session_named("b").expect("opened");
        assert_eq!(link, Link::Attached(conn));
        assert_eq!(h.host.bound(conn), Some(b));
        assert!(!h.closed(conn));

        h.tick_at(7 + GRACE_US);
        assert_eq!(h.session_named("a"), None, "the detached one expires");
        assert!(h.session_named("b").is_some(), "the bound one stays");
    }

    #[test]
    fn a_version_rejected_hello_closes_its_connection() {
        let mut h = Rig::new();
        let conn = h.host.open();
        let bad = ClientMessage::Hello {
            version: PROTOCOL_VERSION + 1,
            name: "future".into(),
        };
        h.send(conn, [bad]);
        assert!(h.closed(conn));
        assert_eq!(h.host.sessions().count(), 0);
        assert_eq!(h.counter("gateway.rejected_version"), 1);
        assert_eq!(h.journal("gateway.rejected_version"), ["future: v2"]);
        h.send(conn, [hello("late")]);
        assert_eq!(h.host.sessions().count(), 0, "a closed connection");
    }

    #[test]
    fn a_message_before_hello_is_rejected_and_counted() {
        let mut h = Rig::new();
        let conn = h.host.open();
        h.send(conn, click());
        assert_eq!(h.clicks(), 0);
        assert_eq!(h.closed, [conn], "closed once");
        assert_eq!(h.counter("gateway.decode_errors"), 1);
    }

    #[test]
    fn a_hello_on_a_connection_bound_to_its_name_is_answered_at_once() {
        let mut h = Rig::new();
        let conn = h.host.open();
        h.send(conn, [hello("x")]);
        let sid = h.host.bound(conn).expect("bound");
        assert!(h.took_init(conn));
        h.send(conn, [hello("x")]);
        assert!(h.took_init(conn), "not held");
        assert_eq!(h.host.bound(conn), Some(sid), "the same session");
        assert!(!h.closed(conn));
        assert_eq!(h.host.multi().client_count(), 1);
    }

    #[test]
    fn a_thousand_churning_clients_leave_nothing_behind() {
        const CLIENTS: u64 = 1_000;
        const SPAN_US: u64 = 600_000_000;
        let mut h = Rig::new();
        let (mut live, mut peak) = (0usize, 0usize);
        for i in 0..CLIENTS {
            h.tick_at(i * SPAN_US / CLIENTS);
            let conn = h.host.open();
            h.send(conn, [hello(&format!("churn-{i}"))]);
            h.send(conn, click());
            h.host.close(conn, h.now_us);
            live = h.host.multi().client_count();
            peak = peak.max(live);
        }
        assert!(live > 0);
        assert_eq!(h.clicks(), CLIENTS as usize);
        h.tick_at(SPAN_US + GRACE_US);
        assert_eq!(h.host.sessions().count(), 0);
        assert_eq!(h.host.multi().client_count(), 0);
        assert_eq!(h.counter("gateway.expired_sessions"), CLIENTS);
        assert!(
            h.host.multi().slots() <= peak,
            "{} slots for {peak} concurrent sessions",
            h.host.multi().slots()
        );
        assert!(
            peak < CLIENTS as usize / 2,
            "sessions expired along the way"
        );
    }
}
