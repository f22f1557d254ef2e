//! Property test for the proxy side of a connection: random scripts of
//! sends, link breaks, failed reconnect attempts, lost resumes, traffic
//! sent while the link is down or a resume is unacked, and acks, checked
//! against a model of the server's received stream.

use proptest::prelude::*;
use uniint_core::proxy::UniIntProxy;
use uniint_core::resume::{
    BackoffPolicy, Reattach, ResumeMachine, SessionError, MAX_FAILED_RESUMES,
};
use uniint_protocol::error::ProtocolError;
use uniint_protocol::message::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;

/// One loss of the connection.
#[derive(Debug, Clone)]
struct Break {
    /// How many in-flight messages reach the server before the break
    /// (taken modulo the number in flight).
    delivered: usize,
    /// Reconnect attempts that fail before one succeeds. At the policy's
    /// limit or above, the recovery stalls out and is run again.
    failures: u32,
    /// Messages sent during the backoff, before the reconnect.
    down: usize,
    /// Messages sent after the reconnect, while its `Resume` is unacked.
    held: usize,
}

/// Messages sent on a healthy link, then breaks until an ack lands.
#[derive(Debug, Clone)]
struct Round {
    sends: usize,
    /// The first entry breaks the link; each later one kills the resume
    /// sent after the previous reconnect before its ack arrives.
    breaks: Vec<Break>,
}

/// Everything the machine hands back to the transport.
#[derive(Debug, Clone, PartialEq)]
enum Out {
    Delay(u64),
    Stalled(u32),
    Reattach(Reattach),
    Written(Vec<ClientMessage>),
}

/// The machine plus a FIFO wire and the server's received stream.
struct Model {
    policy: BackoffPolicy,
    proxy: UniIntProxy,
    machine: ResumeMachine,
    /// Every logged message in send order: what the server must hold.
    logged: Vec<ClientMessage>,
    /// Messages the server counted (`Resume` is never counted).
    server: Vec<ClientMessage>,
    /// Written on the current connection and not yet delivered.
    in_flight: Vec<ClientMessage>,
    /// Server count when it last handled a `Resume`.
    resume_count: Option<u64>,
    next_id: u64,
    delays: u64,
    recoveries: u64,
    out: Vec<Out>,
}

impl Model {
    /// A model whose proxy has completed its handshake.
    fn connected(policy: BackoffPolicy, seed: u64) -> Result<Model, TestCaseError> {
        let mut m = Model {
            policy,
            proxy: UniIntProxy::new("prop-proxy"),
            machine: ResumeMachine::new(policy, seed),
            logged: Vec::new(),
            server: Vec::new(),
            in_flight: Vec::new(),
            resume_count: None,
            next_id: 0,
            delays: 0,
            recoveries: 0,
            out: Vec::new(),
        };
        let hello = m.proxy.connect();
        m.send(hello);
        m.deliver(m.in_flight.len());
        let init = ServerMessage::Init {
            version: PROTOCOL_VERSION,
            width: 16,
            height: 16,
            format: PixelFormat::Rgb888,
            name: "panel".into(),
        };
        let (retransmits, _) = m.receive(&init)?;
        prop_assert_eq!(retransmits, 0);
        m.deliver(m.in_flight.len());
        prop_assert_eq!(&m.server, &m.logged);
        Ok(m)
    }

    /// Sends `n` distinct regular messages through the machine.
    fn send_fresh(&mut self, n: usize) {
        let msgs = (self.next_id..self.next_id + n as u64)
            .map(|id| ClientMessage::CutText(format!("m{id}")))
            .collect();
        self.next_id += n as u64;
        self.send(msgs);
    }

    fn send(&mut self, msgs: Vec<ClientMessage>) {
        self.logged.extend_from_slice(&msgs);
        let in_flight = &mut self.in_flight;
        self.machine.send(msgs, |m| in_flight.push(m.clone()));
    }

    /// Feeds a server message to the machine. Returns how many of the
    /// messages it wrote were retransmissions, and all of them; the rest
    /// are newly logged.
    fn receive(
        &mut self,
        msg: &ServerMessage,
    ) -> Result<(usize, Vec<ClientMessage>), TestCaseError> {
        let before = self.proxy.stats().retransmits;
        let mut written = Vec::new();
        self.machine
            .receive(&mut self.proxy, msg, |m| written.push(m.clone()))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let retransmits = (self.proxy.stats().retransmits - before) as usize;
        prop_assert!(retransmits <= written.len());
        self.logged.extend_from_slice(&written[retransmits..]);
        self.in_flight.extend_from_slice(&written);
        self.out.push(Out::Written(written.clone()));
        Ok((retransmits, written))
    }

    /// The server receives the first `n` messages in flight.
    fn deliver(&mut self, n: usize) {
        for m in self.in_flight.drain(..n) {
            if matches!(m, ClientMessage::Resume { .. }) {
                self.resume_count = Some(self.server.len() as u64);
            } else {
                self.server.push(m);
            }
        }
    }

    fn run_break(&mut self, b: &Break) -> TestCaseResult {
        let n = b.delivered % (self.in_flight.len() + 1);
        self.deliver(n);
        // The rest dies with the connection.
        self.in_flight.clear();
        self.recover(b.failures, b.down)?;
        self.send_fresh(b.held);
        prop_assert!(
            matches!(self.in_flight.as_slice(), [ClientMessage::Resume { .. }]),
            "only the Resume may be written before its ack, got {:?}",
            self.in_flight
        );
        Ok(())
    }

    /// Runs one recovery in which `failures` attempts fail, with `down`
    /// messages sent while the first delay runs.
    fn recover(&mut self, failures: u32, down: usize) -> TestCaseResult {
        self.recoveries += 1;
        let mut delays = Vec::new();
        let result = loop {
            match self.machine.retry(&mut self.proxy) {
                Ok(delay) => delays.push(delay),
                Err(e) => break Err(e),
            }
            if delays.len() == 1 {
                self.send_fresh(down);
                prop_assert!(
                    self.in_flight.is_empty(),
                    "nothing may be written while the link is down, got {:?}",
                    self.in_flight
                );
            }
            if delays.len() as u32 > failures {
                break Ok(self.machine.reconnected(&mut self.proxy));
            }
        };
        let mut d = self.policy.base_us;
        for (i, &delay) in delays.iter().enumerate() {
            prop_assert!(
                delay >= d && delay <= d + d / 4,
                "attempt {}: delay {delay} outside [{d}, {}]",
                i + 1,
                d + d / 4
            );
            d = (d * 2).min(self.policy.cap_us);
            self.out.push(Out::Delay(delay));
        }
        self.delays += delays.len() as u64;
        let max = self.policy.max_attempts;
        match result {
            Err(SessionError::Stalled { attempts }) => {
                prop_assert!(failures >= max, "stalled with a budget left");
                prop_assert_eq!(attempts, max);
                prop_assert_eq!(delays.len(), max as usize);
                self.out.push(Out::Stalled(attempts));
                // The link is still down: the next operation runs a new
                // recovery, which here succeeds at once.
                self.recover(0, 0)
            }
            Ok(reattach) => {
                prop_assert!(failures < max, "reconnected past the budget");
                prop_assert_eq!(delays.len(), failures as usize + 1);
                self.out.push(Out::Reattach(reattach.clone()));
                match reattach {
                    // The host takes the `Hello` to find the session and
                    // counts neither message.
                    Reattach::Resume(msgs) => match <[_; 2]>::try_from(msgs) {
                        Ok([ClientMessage::Hello { .. }, m @ ClientMessage::Resume { .. }]) => {
                            self.in_flight.push(m)
                        }
                        other => prop_assert!(false, "expected Hello then Resume, got {other:?}"),
                    },
                    other => prop_assert!(false, "connected proxy must resume, got {other:?}"),
                }
                Ok(())
            }
            Err(other) => Err(TestCaseError::fail(other.to_string())),
        }
    }

    /// The link holds until the resume's ack and everything written in
    /// answer to it have all reached the server.
    fn ack(&mut self, lost_resumes: usize) -> TestCaseResult {
        self.resume_count = None;
        self.deliver(self.in_flight.len());
        let Some(count) = self.resume_count else {
            return Err(TestCaseError::fail("no resume reached the server"));
        };
        let before = self.proxy.stats();
        let (retransmits, written) = self.receive(&ServerMessage::ResumeAck {
            client_msgs_received: count,
            replayed: true,
        })?;
        let after = self.proxy.stats();

        prop_assert!(
            !written
                .iter()
                .any(|m| matches!(m, ClientMessage::Resume { .. })),
            "a Resume was logged"
        );
        let logged_before = self.logged.len() - (written.len() - retransmits);
        prop_assert_eq!(
            &written[..retransmits],
            &self.logged[count as usize..logged_before]
        );
        let escalated = lost_resumes >= MAX_FAILED_RESUMES as usize;
        prop_assert_eq!(after.full_resyncs - before.full_resyncs, escalated as u64);
        let fetch = ClientMessage::UpdateRequest {
            incremental: true,
            rect: Rect::new(0, 0, 16, 16),
        };
        // The proxy answers every ack with an incremental fetch, sent
        // after the retransmissions and any full refresh.
        let Some((last, refresh)) = written[retransmits..].split_last() else {
            return Err(TestCaseError::fail("the ack's fetch was not sent"));
        };
        prop_assert_eq!(last, &fetch);
        if escalated {
            prop_assert!(
                matches!(
                    refresh,
                    [
                        ClientMessage::SetPixelFormat(_),
                        ClientMessage::SetEncodings(_),
                        ClientMessage::UpdateRequest {
                            incremental: false,
                            ..
                        }
                    ]
                ),
                "expected a full refresh after the retransmissions, got {refresh:?}"
            );
        } else {
            prop_assert!(refresh.is_empty(), "unexpected messages {refresh:?}");
        }
        self.deliver(self.in_flight.len());
        prop_assert_eq!(&self.server, &self.logged);
        Ok(())
    }
}

fn run(policy: BackoffPolicy, seed: u64, rounds: &[Round]) -> Result<Vec<Out>, TestCaseError> {
    let mut model = Model::connected(policy, seed)?;
    for round in rounds {
        model.send_fresh(round.sends);
        for b in &round.breaks {
            model.run_break(b)?;
        }
        model.ack(round.breaks.len() - 1)?;
    }
    prop_assert_eq!(model.proxy.stats().backoff_attempts, model.delays);
    prop_assert_eq!(model.proxy.stats().stalls, model.recoveries);
    Ok(model.out)
}

fn arb_policy() -> impl Strategy<Value = BackoffPolicy> {
    (1u64..50_000, 0u32..6, 1u32..6).prop_map(|(base_us, shift, max_attempts)| BackoffPolicy {
        base_us,
        cap_us: base_us << shift,
        max_attempts,
    })
}

fn arb_round() -> impl Strategy<Value = Round> {
    let arb_break =
        (0usize..8, 0u32..8, 0usize..3, 0usize..4).prop_map(|(delivered, failures, down, held)| {
            Break {
                delivered,
                failures,
                down,
                held,
            }
        });
    (0usize..5, proptest::collection::vec(arb_break, 1..6))
        .prop_map(|(sends, breaks)| Round { sends, breaks })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn resume_machine_delivers_every_logged_message_once(
        policy in arb_policy(),
        seed in any::<u64>(),
        rounds in proptest::collection::vec(arb_round(), 1..6),
    ) {
        let first = run(policy, seed, &rounds)?;
        let again = run(policy, seed, &rounds)?;
        prop_assert_eq!(first, again, "same seed, same outputs");
    }
}

#[test]
fn break_before_handshake_starts_over() {
    let policy = BackoffPolicy {
        base_us: 10,
        cap_us: 40,
        max_attempts: 2,
    };
    let mut proxy = UniIntProxy::new("early");
    let mut machine = ResumeMachine::new(policy, 1);
    let mut lost = proxy.connect();
    lost.push(ClientMessage::CutText("lost with the old session".into()));
    machine.send(lost, |_| {});
    machine.retry(&mut proxy).expect("a first attempt");
    let Reattach::Fresh(hello) = machine.reconnected(&mut proxy) else {
        panic!("a proxy without a handshake must start over");
    };
    assert!(matches!(hello.as_slice(), [ClientMessage::Hello { .. }]));
    let mut written = Vec::new();
    let ack = |client_msgs_received| ServerMessage::ResumeAck {
        client_msgs_received,
        replayed: false,
    };
    // An ack before `Init` is refused before the machine acts on it: it
    // resends nothing and counts no retransmission.
    let err = machine
        .receive(&mut proxy, &ack(0), |m| written.push(m.clone()))
        .expect_err("an ack before init is malformed");
    assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");
    assert_eq!(proxy.stats().retransmits, 0);
    assert!(written.is_empty(), "{written:?}");
    // Once the session exists, a valid ack resends the log, which
    // restarted with the new Hello: nothing older is resent.
    let init = ServerMessage::Init {
        version: PROTOCOL_VERSION,
        width: 16,
        height: 16,
        format: PixelFormat::Rgb888,
        name: "panel".into(),
    };
    machine
        .receive(&mut proxy, &init, |_| {})
        .expect("init is accepted");
    machine
        .receive(&mut proxy, &ack(0), |m| written.push(m.clone()))
        .expect("an ack after init is accepted");
    assert_eq!(&written[..1], hello.as_slice());
    assert!(
        !written[1..]
            .iter()
            .any(|m| matches!(m, ClientMessage::CutText(_) | ClientMessage::Hello { .. })),
        "{written:?}"
    );
}
