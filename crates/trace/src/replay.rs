//! Deterministic trace replay and divergence checking.
//!
//! Traces are recorded server-side ([`uniint_core::tap`]): the
//! `ToServer` half is the exact sequence of client messages the server
//! consumed, the `ToClient` half the exact sequence it produced. That
//! gives two replay modes:
//!
//! - [`Replayer::replay`] drives a **fresh proxy alone** from the
//!   `ToClient` half: every recorded server message is applied in
//!   order on the telemetry [`VirtualClock`](uniint_telemetry::clock::VirtualClock), rebuilding the remote
//!   framebuffer bit-for-bit and yielding the
//!   [`Framebuffer::digest`](uniint_raster::framebuffer::Framebuffer::digest)
//!   after every update. Two replays of one trace are byte-identical
//!   (digest sequence and telemetry snapshot), which is what the CI
//!   record/replay job checks.
//! - [`Replayer::verify`] additionally drives a **fresh session host**
//!   (a [`SessionHost`], as the recorded run had) over a caller-provided
//!   [`Ui`] (in the same initial state as the recorded run). Each trace
//!   channel is one host connection, opened when the channel first
//!   speaks, so a reconnect's `Hello` and `Resume` on a new channel adopt
//!   the session as they did live; a trace all on channel 0 is one
//!   connection. The `ToServer` half is fed in on its channels, and
//!   every message the host regenerates is byte-compared against the
//!   recorded `ToClient` record at the same position. A recorded message
//!   that no reply accounts for came from a pump, so the fresh host ticks
//!   there too, at the record's time. The first mismatch is reported as a
//!   [`Divergence`] carrying the record index, timestamp and reason —
//!   pinpointing exactly where a mutated trace (or a behaviour change
//!   in the server) departs from the recording.
//!
//! Verification requires the recorded run's UI to have changed only
//! through the protocol (inputs, resumes, repaints) — the rule every
//! session in this workspace follows; application-side mutations made
//! between messages would need their own journal to reproduce.

use std::collections::{HashMap, VecDeque};
use std::vec::Drain;

use uniint_core::host::{ConnId, Output, SessionHost};
use uniint_core::multi::MultiServer;
use uniint_core::plugin::OutputPlugin;
use uniint_core::proxy::UniIntProxy;
use uniint_core::tap::Direction;
use uniint_protocol::error::ProtocolError;
use uniint_protocol::message::{encode_server, ClientMessage, ServerMessage};
use uniint_telemetry::registry::Registry;
use uniint_telemetry::snapshot::Snapshot;
use uniint_wsys::ui::Ui;

use crate::format::{TraceError, TraceReader};

/// The first point where a replay departed from the recorded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based index of the first diverging record (== total record
    /// count when the server produced *extra* trailing messages).
    pub record_index: usize,
    /// Timestamp of that record, microseconds.
    pub t_us: u64,
    /// Human-readable explanation of the mismatch.
    pub reason: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "diverged at record {} (t={}us): {}",
            self.record_index, self.t_us, self.reason
        )
    }
}

/// Why a replay failed.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace itself could not be read.
    Trace(TraceError),
    /// A recorded message body failed protocol decoding.
    Protocol {
        /// Index of the undecodable record.
        record_index: usize,
        /// The decode error.
        error: ProtocolError,
    },
    /// The regenerated stream departed from the recording.
    Diverged(Divergence),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "replay: {e}"),
            ReplayError::Protocol {
                record_index,
                error,
            } => write!(f, "replay: record {record_index} undecodable: {error}"),
            ReplayError::Diverged(d) => write!(f, "replay {d}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            ReplayError::Protocol { error, .. } => Some(error),
            ReplayError::Diverged(_) => None,
        }
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> ReplayError {
        ReplayError::Trace(e)
    }
}

/// Everything a replay produced, for determinism checks and benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Total records consumed.
    pub records: u64,
    /// Client→server records seen.
    pub to_server: u64,
    /// Server→client records seen (applied to the replay proxy).
    pub to_client: u64,
    /// `ServerMessage::Update`s applied.
    pub updates_applied: u64,
    /// Sum of recorded message body bytes.
    pub payload_bytes: u64,
    /// Virtual time between first and last record, microseconds.
    pub virtual_elapsed_us: u64,
    /// `(record index, framebuffer digest)` after every applied update.
    pub digests: Vec<(usize, u64)>,
    /// Final telemetry snapshot of the replay registry (virtual-clocked,
    /// so byte-identical across replays of one trace).
    pub snapshot: Snapshot,
}

impl ReplayOutcome {
    /// The framebuffer digest after the last applied update.
    pub fn final_digest(&self) -> Option<u64> {
        self.digests.last().map(|&(_, d)| d)
    }

    /// Compares two replays of (nominally) the same trace: the first
    /// differing per-update digest wins, then the telemetry snapshots.
    /// `None` means the replays are identical.
    pub fn diff(&self, other: &ReplayOutcome) -> Option<Divergence> {
        for (i, (a, b)) in self.digests.iter().zip(&other.digests).enumerate() {
            if a != b {
                return Some(Divergence {
                    record_index: a.0,
                    t_us: 0,
                    reason: format!(
                        "update #{i} digest {:016x} vs {:016x} (records {} vs {})",
                        a.1, b.1, a.0, b.0
                    ),
                });
            }
        }
        if self.digests.len() != other.digests.len() {
            let longer = if self.digests.len() > other.digests.len() {
                &self.digests
            } else {
                &other.digests
            };
            let extra = longer[self.digests.len().min(other.digests.len())];
            return Some(Divergence {
                record_index: extra.0,
                t_us: 0,
                reason: format!(
                    "update counts differ: {} vs {}",
                    self.digests.len(),
                    other.digests.len()
                ),
            });
        }
        if self.snapshot != other.snapshot {
            return Some(Divergence {
                record_index: self.records.min(other.records) as usize,
                t_us: 0,
                reason: "final telemetry snapshots differ".into(),
            });
        }
        None
    }
}

/// Replays a trace onto fresh protocol endpoints driven by the
/// telemetry virtual clock.
pub struct Replayer {
    registry: Registry,
    output: Option<Box<dyn OutputPlugin>>,
}

impl std::fmt::Debug for Replayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer")
            .field("output", &self.output.as_ref().map(|p| p.kind()))
            .finish_non_exhaustive()
    }
}

impl Default for Replayer {
    fn default() -> Replayer {
        Replayer::new()
    }
}

impl Replayer {
    /// A replayer with a fresh telemetry registry and no output device.
    pub fn new() -> Replayer {
        Replayer {
            registry: Registry::new(),
            output: None,
        }
    }

    /// Attaches an output plug-in to the replay proxy, so frame
    /// adaptation runs during replay too (used by the replay bench to
    /// measure decode+adapt throughput on recorded traffic).
    pub fn with_output(plugin: Box<dyn OutputPlugin>) -> Replayer {
        Replayer {
            registry: Registry::new(),
            output: Some(plugin),
        }
    }

    /// The registry the replayed endpoints are instrumented into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Drives a fresh proxy from the trace's server→client half,
    /// collecting the digest after every applied update. `ToServer`
    /// records are counted but not interpreted (there is no server).
    pub fn replay(self, reader: &TraceReader) -> Result<ReplayOutcome, ReplayError> {
        self.run(reader, None)
    }

    /// Full divergence check: drives a fresh session host over `ui`
    /// (which must be in the recorded run's *initial* state) with the
    /// client→server half, one host connection per channel, comparing
    /// every regenerated message byte-for-byte against the recorded
    /// server→client half, while a shadow proxy applies the recorded
    /// updates for digests. Returns [`ReplayError::Diverged`] at the
    /// first mismatch.
    pub fn verify(self, reader: &TraceReader, ui: &mut Ui) -> Result<ReplayOutcome, ReplayError> {
        self.run(reader, Some(ui))
    }

    fn run(
        self,
        reader: &TraceReader,
        mut ui: Option<&mut Ui>,
    ) -> Result<ReplayOutcome, ReplayError> {
        let registry = self.registry;
        let mut proxy = UniIntProxy::with_telemetry("replay-proxy", registry.clone());
        if let Some(plugin) = self.output {
            // Without a session the proxy queues no renegotiation: that
            // is already part of the recorded conversation.
            proxy.attach_output(plugin);
        }
        // A fresh host; its `gateway.*` counters stay out of the replay
        // registry, as they stayed out of a simulated session's.
        let mut host = ui.is_some().then(|| {
            let multi = MultiServer::with_telemetry(registry.clone());
            SessionHost::new(multi, &Registry::new(), u64::MAX)
        });
        // The host connection of each recorded channel.
        let mut conns: HashMap<u32, ConnId> = HashMap::new();
        // Server messages regenerated by `host` but not yet matched
        // against a recorded ToClient record (bodies, no length prefix).
        let mut pending: VecDeque<Vec<u8>> = VecDeque::new();

        let mut outcome = ReplayOutcome {
            records: 0,
            to_server: 0,
            to_client: 0,
            updates_applied: 0,
            payload_bytes: 0,
            virtual_elapsed_us: 0,
            digests: Vec::new(),
            snapshot: registry.snapshot(),
        };
        let mut first_t = None;
        let mut last_t = 0;

        for (index, record) in reader.records().enumerate() {
            let record = record?;
            registry.clock().set_us(record.t_us);
            first_t.get_or_insert(record.t_us);
            last_t = record.t_us;
            outcome.records += 1;
            outcome.payload_bytes += record.payload.len() as u64;
            match record.dir {
                Direction::ToServer => {
                    outcome.to_server += 1;
                    if let (Some(host), Some(ui)) = (host.as_mut(), ui.as_deref_mut()) {
                        let msg = ClientMessage::decode_body(&mut record.payload.as_slice())
                            .map_err(undecodable(index))?;
                        let conn = *conns.entry(record.channel).or_insert_with(|| host.open());
                        pending.extend(bodies(host.receive(ui, conn, msg, record.t_us)));
                    }
                }
                Direction::ToClient => {
                    outcome.to_client += 1;
                    if let (Some(host), Some(ui)) = (host.as_mut(), ui.as_deref_mut()) {
                        if pending.is_empty() {
                            // The recorded message came from a pump (a
                            // parked update request answered, or
                            // application damage flushed), not a reply:
                            // tick the fresh host at the same point.
                            pending.extend(bodies(host.tick(ui, record.t_us)));
                        }
                        match pending.pop_front() {
                            None => {
                                return Err(ReplayError::Diverged(Divergence {
                                    record_index: index,
                                    t_us: record.t_us,
                                    reason: "server regenerated no message here".into(),
                                }))
                            }
                            Some(expected) if expected != record.payload => {
                                return Err(ReplayError::Diverged(Divergence {
                                    record_index: index,
                                    t_us: record.t_us,
                                    reason: mismatch_reason(&expected, &record.payload),
                                }))
                            }
                            Some(_) => {}
                        }
                    }
                    let msg = ServerMessage::decode_body(&mut record.payload.as_slice())
                        .map_err(undecodable(index))?;
                    let is_update = matches!(msg, ServerMessage::Update { .. });
                    let _ = proxy.handle_server(&msg).map_err(undecodable(index))?;
                    if is_update {
                        outcome.updates_applied += 1;
                        if let Some(fb) = proxy.server_frame() {
                            outcome.digests.push((index, fb.digest()));
                        }
                    }
                }
            }
        }

        if !pending.is_empty() {
            return Err(ReplayError::Diverged(Divergence {
                record_index: outcome.records as usize,
                t_us: last_t,
                reason: format!(
                    "server regenerated {} message(s) past the end of the trace",
                    pending.len()
                ),
            }));
        }

        outcome.virtual_elapsed_us = last_t - first_t.unwrap_or(last_t);
        outcome.snapshot = registry.snapshot();
        Ok(outcome)
    }
}

/// The bodies (no length prefix) of the messages the host asks to send,
/// as recorded; a `Close` sends none.
fn bodies(out: Drain<'_, Output>) -> impl Iterator<Item = Vec<u8>> + '_ {
    out.flat_map(|o| match o {
        Output::Send(_, msgs) => msgs,
        Output::Close(_) => Vec::new(),
    })
    .map(|m| encode_server(&m)[4..].to_vec())
}

/// Tags a protocol error with the index of the record it came from.
fn undecodable(record_index: usize) -> impl FnOnce(ProtocolError) -> ReplayError {
    move |error| ReplayError::Protocol {
        record_index,
        error,
    }
}

/// Describes the first differing byte between a regenerated and a
/// recorded message body.
fn mismatch_reason(expected: &[u8], recorded: &[u8]) -> String {
    let at = expected
        .iter()
        .zip(recorded)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.len().min(recorded.len()));
    format!(
        "regenerated message differs from recording at byte {at} \
         (regenerated {} bytes, recorded {} bytes)",
        expected.len(),
        recorded.len()
    )
}
