//! Property test for the reconnect/resume state machine: random scripts
//! of sends, link breaks, failed reconnect attempts, lost resumes and
//! acks, checked against a model of the server's received stream.

use proptest::prelude::*;
use uniint_core::proxy::UniIntProxy;
use uniint_core::resume::{BackoffPolicy, Reattach, ResumeMachine, Stalled, MAX_FAILED_RESUMES};
use uniint_protocol::message::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
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
    Resend(Vec<ClientMessage>),
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
    /// Sent on the current connection and not yet delivered.
    in_flight: Vec<ClientMessage>,
    /// Server count when it last handled a `Resume`.
    resume_count: Option<u64>,
    delays: u64,
    out: Vec<Out>,
}

impl Model {
    /// A model whose proxy has completed its handshake.
    fn connected(policy: BackoffPolicy, seed: u64) -> Model {
        let mut m = Model {
            policy,
            proxy: UniIntProxy::new("prop-proxy"),
            machine: ResumeMachine::new(policy, seed),
            logged: Vec::new(),
            server: Vec::new(),
            in_flight: Vec::new(),
            resume_count: None,
            delays: 0,
            out: Vec::new(),
        };
        for hello in m.proxy.connect() {
            m.send_logged(hello);
        }
        m.deliver(m.in_flight.len());
        m.proxy
            .handle_server(&ServerMessage::Init {
                version: PROTOCOL_VERSION,
                width: 16,
                height: 16,
                format: PixelFormat::Rgb888,
                name: "panel".into(),
            })
            .expect("init applies");
        m
    }

    fn send_logged(&mut self, m: ClientMessage) {
        self.in_flight.push(m.clone());
        self.logged.push(m.clone());
        self.machine.sent(m);
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
        self.recover(b.failures)
    }

    /// Runs one recovery in which `failures` attempts fail.
    fn recover(&mut self, failures: u32) -> TestCaseResult {
        let max = self.policy.max_attempts;
        let mut d = self.policy.base_us;
        let mut attempt = 1;
        let mut step = self.machine.link_broke(&mut self.proxy);
        loop {
            match step {
                Ok(delay) => {
                    prop_assert!(attempt <= max, "attempt {attempt} past the budget");
                    prop_assert!(
                        delay >= d && delay <= d + d / 4,
                        "attempt {attempt}: delay {delay} outside [{d}, {}]",
                        d + d / 4
                    );
                    self.delays += 1;
                    self.out.push(Out::Delay(delay));
                }
                Err(Stalled { attempts }) => {
                    prop_assert_eq!(attempts, max);
                    prop_assert_eq!(attempt, max + 1);
                    self.out.push(Out::Stalled(attempts));
                    // The link is still down: the next operation runs a
                    // new recovery, which here succeeds at once.
                    return self.recover(0);
                }
            }
            if attempt > failures {
                break;
            }
            attempt += 1;
            d = (d * 2).min(self.policy.cap_us);
            step = self.machine.attempt_failed(&mut self.proxy);
        }
        let reattach = self.machine.reconnected(&mut self.proxy);
        self.out.push(Out::Reattach(reattach.clone()));
        match reattach {
            Reattach::Resume(m @ ClientMessage::Resume { .. }) => self.in_flight.push(m),
            other => prop_assert!(false, "connected proxy must resume, got {other:?}"),
        }
        Ok(())
    }

    /// The link holds until the resume's ack and the resent messages
    /// have all reached the server.
    fn ack(&mut self, lost_resumes: usize) -> TestCaseResult {
        self.resume_count = None;
        self.deliver(self.in_flight.len());
        let Some(count) = self.resume_count else {
            return Err(TestCaseError::fail("no resume reached the server"));
        };
        let before = self.proxy.stats();
        let resend = self.machine.resume_acked(&mut self.proxy, count).to_vec();
        let after = self.proxy.stats();
        self.out.push(Out::Resend(resend.clone()));

        prop_assert!(
            !resend
                .iter()
                .any(|m| matches!(m, ClientMessage::Resume { .. })),
            "a Resume was logged"
        );
        let retransmits = (after.retransmits - before.retransmits) as usize;
        prop_assert_eq!(&resend[..retransmits], &self.logged[count as usize..]);
        let escalated = lost_resumes >= MAX_FAILED_RESUMES as usize;
        prop_assert_eq!(after.full_resyncs - before.full_resyncs, escalated as u64);
        let fresh = &resend[retransmits..];
        if escalated {
            prop_assert!(
                matches!(
                    fresh,
                    [
                        ClientMessage::SetPixelFormat(_),
                        ClientMessage::SetEncodings(_),
                        ClientMessage::UpdateRequest {
                            incremental: false,
                            ..
                        }
                    ]
                ),
                "expected a full refresh after the retransmissions, got {fresh:?}"
            );
        } else {
            prop_assert!(fresh.is_empty(), "unexpected messages {fresh:?}");
        }
        self.logged.extend_from_slice(fresh);
        self.in_flight = resend;
        self.deliver(self.in_flight.len());
        prop_assert_eq!(&self.server, &self.logged);
        Ok(())
    }
}

fn run(policy: BackoffPolicy, seed: u64, rounds: &[Round]) -> Result<Vec<Out>, TestCaseError> {
    let mut model = Model::connected(policy, seed);
    let mut next_id = 0u64;
    for round in rounds {
        for _ in 0..round.sends {
            model.send_logged(ClientMessage::CutText(format!("m{next_id}")));
            next_id += 1;
        }
        for b in &round.breaks {
            model.run_break(b)?;
        }
        model.ack(round.breaks.len() - 1)?;
    }
    prop_assert_eq!(model.proxy.stats().backoff_attempts, model.delays);
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
    let arb_break = (0usize..8, 0u32..8).prop_map(|(delivered, failures)| Break {
        delivered,
        failures,
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
    for m in proxy.connect() {
        machine.sent(m);
    }
    machine.sent(ClientMessage::CutText("lost with the old session".into()));
    machine.link_broke(&mut proxy).expect("first attempt");
    let Reattach::Fresh(hello) = machine.reconnected(&mut proxy) else {
        panic!("a proxy without a handshake must start over");
    };
    assert!(matches!(hello.as_slice(), [ClientMessage::Hello { .. }]));
    for m in hello.clone() {
        machine.sent(m);
    }
    // The log restarted with the new Hello: nothing older is resent.
    assert_eq!(machine.resume_acked(&mut proxy, 0), hello.as_slice());
}
