//! The binary trace format: chunked and CRC-protected.
//!
//! # Layout
//!
//! ```text
//! header   "UITRACE1" | format version u16 | protocol version u16
//!          | pixel format wire id u8 | reserved u8 | seed u64
//! chunk*   "CHNK" | payload_len u32 | record_count u32
//!          | first_t_us u64 | crc32(payload) u32 | payload
//! index    "INDX" | entry_count u32 | dropped_chunks u64
//!          | (chunk offset u64, first_t_us u64, record_count u32)*
//!          | crc32(block) u32 | index_len u32 | "UITRIDX1"
//! ```
//!
//! All integers are big-endian. Each chunk payload is a dense run of
//! records:
//!
//! ```text
//! record   t_us u64 | channel u32 | direction u8 | len u32 | bytes
//! ```
//!
//! where `bytes` is one protocol message **body** (tag + payload,
//! without the 4-byte wire length prefix) and `direction` is 0 for
//! client→server, 1 for server→client.
//!
//! The tail index repeats each chunk's file offset, first timestamp and
//! record count, which [`TraceReader::parse`] checks against the chunks
//! it scanned, and doubles as an end-of-trace marker: a file that stops mid-chunk
//! (recorder crashed) is rejected with [`TraceError::Truncated`]. The
//! `index_len` field sits just before the trailing magic so the whole
//! index is parseable backwards from EOF.
//!
//! [`TraceWriter`] keeps bounded memory: records accumulate into one
//! open chunk (sealed at [`TraceConfig::chunk_bytes`]), and sealed
//! chunks live in a ring capped at [`TraceConfig::max_trace_bytes`] —
//! when full, the *oldest* chunk is evicted flight-recorder style and
//! counted in `dropped_chunks` (and the `trace.dropped_chunks`
//! telemetry counter when attached).
//!
//! [`TraceReader`] reads every field through the checked getters of
//! [`uniint_protocol::wire`], so a short or corrupt file is a
//! [`TraceError`], never a panic.

use std::collections::VecDeque;
use std::path::Path;

use uniint_core::tap::Direction;
use uniint_protocol::error::ProtocolError;
use uniint_protocol::wire;
use uniint_raster::pixel::PixelFormat;
use uniint_telemetry::registry::{Counter, Registry};

/// Leading file magic.
pub const TRACE_MAGIC: &[u8; 8] = b"UITRACE1";
/// Chunk magic.
pub const CHUNK_MAGIC: &[u8; 4] = b"CHNK";
/// Index block magic.
pub const INDEX_MAGIC: &[u8; 4] = b"INDX";
/// Trailing file magic (after the index).
pub const TRAILER_MAGIC: &[u8; 8] = b"UITRIDX1";
/// Trace format version written by this crate.
pub const FORMAT_VERSION: u16 = 1;

const HEADER_LEN: usize = 8 + 2 + 2 + 1 + 1 + 8;
const CHUNK_HEADER_LEN: usize = 4 + 4 + 4 + 8 + 4;
const RECORD_HEADER_LEN: usize = 8 + 4 + 1 + 4;
const INDEX_ENTRY_LEN: usize = 8 + 8 + 4;

/// Why a trace could not be written or parsed.
#[derive(Debug)]
pub enum TraceError {
    /// Reading or writing the trace file failed.
    Io(std::io::Error),
    /// The file does not start with the trace magic.
    BadMagic,
    /// The trace was written by a newer format version.
    UnsupportedVersion(u16),
    /// The file ends in the middle of a structure.
    Truncated {
        /// Byte offset where parsing stopped.
        offset: usize,
        /// The structure that was cut short.
        what: &'static str,
    },
    /// A chunk's payload does not match its checksum.
    CrcMismatch {
        /// Zero-based index of the bad chunk.
        chunk: usize,
    },
    /// A structurally invalid field (bad magic mid-file, unknown pixel
    /// format or direction, inconsistent counts…).
    Malformed {
        /// Byte offset of the offending structure.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a UniInt trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceError::Truncated { offset, what } => {
                write!(f, "trace truncated at byte {offset} (inside {what})")
            }
            TraceError::CrcMismatch { chunk } => {
                write!(f, "crc mismatch in chunk {chunk}")
            }
            TraceError::Malformed { offset, what } => {
                write!(f, "malformed trace at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data`, as used for chunk and index checksums.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Metadata identifying the run a trace was captured from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// The seed of the recorded run (simulator seed, or 0 for wall-clock
    /// gateway captures).
    pub seed: u64,
    /// Protocol version spoken during the run.
    pub protocol_version: u16,
    /// Transport pixel format at recording time (informational; updates
    /// carry their own format per message).
    pub pixel_format: PixelFormat,
}

/// One recorded protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Timestamp, microseconds (virtual time for simulated sessions,
    /// time since gateway start for socket sessions).
    pub t_us: u64,
    /// Session/link id (0 for `SimSession`, connection id for the
    /// gateway).
    pub channel: u32,
    /// Which way the message travelled.
    pub dir: Direction,
    /// The message body: tag byte + payload, no length prefix.
    pub payload: Vec<u8>,
}

impl TraceRecord {
    /// Encoded size of this record inside a chunk payload.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER_LEN + self.payload.len()
    }
}

/// Writer tuning knobs.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Target chunk payload size; a chunk is sealed once it reaches
    /// this many bytes. Default 64 KiB.
    pub chunk_bytes: usize,
    /// Retained-trace bound across sealed chunks. When exceeded the
    /// oldest sealed chunk is evicted (ring behaviour) and counted as
    /// dropped. Default 64 MiB.
    pub max_trace_bytes: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            chunk_bytes: 64 * 1024,
            max_trace_bytes: 64 * 1024 * 1024,
        }
    }
}

#[derive(Debug)]
struct SealedChunk {
    payload: Vec<u8>,
    records: u32,
    first_t_us: u64,
}

/// Accumulates records into the chunked binary format with bounded
/// memory, then emits the complete trace with [`TraceWriter::finish`].
#[derive(Debug)]
pub struct TraceWriter {
    header: TraceHeader,
    config: TraceConfig,
    open: Vec<u8>,
    open_records: u32,
    open_first_t: u64,
    sealed: VecDeque<SealedChunk>,
    sealed_bytes: usize,
    records_written: u64,
    dropped_chunks: u64,
    dropped_counter: Option<Counter>,
    records_counter: Option<Counter>,
}

impl TraceWriter {
    /// Creates a writer with default [`TraceConfig`].
    pub fn new(header: TraceHeader) -> TraceWriter {
        TraceWriter::with_config(header, TraceConfig::default())
    }

    /// Creates a writer with explicit chunking/retention bounds.
    pub fn with_config(header: TraceHeader, config: TraceConfig) -> TraceWriter {
        TraceWriter {
            header,
            config,
            open: Vec::new(),
            open_records: 0,
            open_first_t: 0,
            sealed: VecDeque::new(),
            sealed_bytes: 0,
            records_written: 0,
            dropped_chunks: 0,
            dropped_counter: None,
            records_counter: None,
        }
    }

    /// Mirrors writer activity into `registry`: `trace.records` counts
    /// recorded messages, `trace.dropped_chunks` counts ring evictions.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.dropped_counter = Some(registry.counter("trace.dropped_chunks"));
        self.records_counter = Some(registry.counter("trace.records"));
    }

    /// The header this writer stamps on the trace.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Records written so far (including any since evicted).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Chunks evicted to stay under
    /// [`max_trace_bytes`](TraceConfig::max_trace_bytes).
    pub fn dropped_chunks(&self) -> u64 {
        self.dropped_chunks
    }

    /// Appends one record.
    pub fn record(&mut self, t_us: u64, channel: u32, dir: Direction, payload: &[u8]) {
        if self.open.is_empty() {
            self.open_first_t = t_us;
        }
        self.open.extend_from_slice(&t_us.to_be_bytes());
        self.open.extend_from_slice(&channel.to_be_bytes());
        self.open.push(match dir {
            Direction::ToServer => 0,
            Direction::ToClient => 1,
        });
        self.open
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.open.extend_from_slice(payload);
        self.open_records += 1;
        self.records_written += 1;
        if let Some(c) = &self.records_counter {
            c.inc();
        }
        if self.open.len() >= self.config.chunk_bytes {
            self.seal();
        }
    }

    /// Moves the open chunk into the sealed ring, evicting from the
    /// front if the retention bound is exceeded.
    fn seal(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let payload = std::mem::take(&mut self.open);
        self.sealed_bytes += payload.len();
        self.sealed.push_back(SealedChunk {
            payload,
            records: self.open_records,
            first_t_us: self.open_first_t,
        });
        self.open_records = 0;
        while self.sealed_bytes > self.config.max_trace_bytes && self.sealed.len() > 1 {
            let Some(evicted) = self.sealed.pop_front() else {
                break;
            };
            self.sealed_bytes -= evicted.payload.len();
            self.dropped_chunks += 1;
            if let Some(c) = &self.dropped_counter {
                c.inc();
            }
        }
    }

    /// Seals the open chunk and serializes header, chunks and tail
    /// index into one buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.seal();
        let total: usize = HEADER_LEN
            + self
                .sealed
                .iter()
                .map(|c| CHUNK_HEADER_LEN + c.payload.len())
                .sum::<usize>();
        let mut out = Vec::with_capacity(total + 64);
        out.extend_from_slice(TRACE_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_be_bytes());
        out.extend_from_slice(&self.header.protocol_version.to_be_bytes());
        out.push(self.header.pixel_format.wire_id());
        out.push(0);
        out.extend_from_slice(&self.header.seed.to_be_bytes());

        let mut entries: Vec<(u64, u64, u32)> = Vec::with_capacity(self.sealed.len());
        for chunk in &self.sealed {
            entries.push((out.len() as u64, chunk.first_t_us, chunk.records));
            out.extend_from_slice(CHUNK_MAGIC);
            out.extend_from_slice(&(chunk.payload.len() as u32).to_be_bytes());
            out.extend_from_slice(&chunk.records.to_be_bytes());
            out.extend_from_slice(&chunk.first_t_us.to_be_bytes());
            out.extend_from_slice(&crc32(&chunk.payload).to_be_bytes());
            out.extend_from_slice(&chunk.payload);
        }

        let index_start = out.len();
        out.extend_from_slice(INDEX_MAGIC);
        out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.dropped_chunks.to_be_bytes());
        for (offset, first_t, records) in &entries {
            out.extend_from_slice(&offset.to_be_bytes());
            out.extend_from_slice(&first_t.to_be_bytes());
            out.extend_from_slice(&records.to_be_bytes());
        }
        let crc = crc32(&out[index_start..]);
        out.extend_from_slice(&crc.to_be_bytes());
        let index_len = (out.len() - index_start) as u32;
        out.extend_from_slice(&index_len.to_be_bytes());
        out.extend_from_slice(TRAILER_MAGIC);
        out
    }
}

#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    payload_start: usize,
    payload_len: usize,
    records: u32,
    first_t_us: u64,
}

/// Parses and iterates a complete trace held in memory.
///
/// Chunk structure and checksums are validated eagerly in
/// [`TraceReader::parse`]; record decoding is lazy (one record at a
/// time while iterating), so memory stays bounded by the input buffer.
#[derive(Debug)]
pub struct TraceReader {
    header: TraceHeader,
    data: Vec<u8>,
    chunks: Vec<ChunkMeta>,
    dropped_chunks: u64,
    has_index: bool,
}

impl TraceReader {
    /// Reads and parses a trace file.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceReader, TraceError> {
        TraceReader::parse(std::fs::read(path)?)
    }

    /// Parses a serialized trace, validating header, chunk framing and
    /// every chunk CRC (and the tail index when present).
    pub fn parse(data: Vec<u8>) -> Result<TraceReader, TraceError> {
        let mut cur = data.as_slice();
        let short = truncated(data.len(), "file header");
        if wire::get_bytes(&mut cur, 8).map_err(short)? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = wire::get_u16(&mut cur).map_err(short)?;
        let protocol_version = wire::get_u16(&mut cur).map_err(short)?;
        let pixel_format_id = wire::get_u8(&mut cur).map_err(short)?;
        let _reserved = wire::get_u8(&mut cur).map_err(short)?;
        let seed = wire::get_u64(&mut cur).map_err(short)?;
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let pixel_format =
            PixelFormat::from_wire_id(pixel_format_id).ok_or(TraceError::Malformed {
                offset: 12,
                what: "unknown pixel format id",
            })?;
        let header = TraceHeader {
            seed,
            protocol_version,
            pixel_format,
        };

        let mut chunks = Vec::new();
        let mut dropped_chunks = 0u64;
        let mut has_index = false;
        // An unfinished but chunk-aligned trace ends after a chunk: usable.
        while !cur.is_empty() {
            let pos = data.len() - cur.len();
            let magic = wire::get_bytes(&mut cur, 4).map_err(truncated(pos, "chunk magic"))?;
            if magic == INDEX_MAGIC {
                Self::parse_index(&data, pos, &chunks, &mut dropped_chunks)?;
                has_index = true;
                break;
            }
            if magic != CHUNK_MAGIC {
                return Err(TraceError::Malformed {
                    offset: pos,
                    what: "expected chunk or index magic",
                });
            }
            let short = truncated(pos, "chunk header");
            let payload_len = wire::get_u32(&mut cur).map_err(short)? as usize;
            let records = wire::get_u32(&mut cur).map_err(short)?;
            let first_t_us = wire::get_u64(&mut cur).map_err(short)?;
            let crc = wire::get_u32(&mut cur).map_err(short)?;
            let payload =
                wire::get_bytes(&mut cur, payload_len).map_err(truncated(pos, "chunk payload"))?;
            if crc32(payload) != crc {
                return Err(TraceError::CrcMismatch {
                    chunk: chunks.len(),
                });
            }
            chunks.push(ChunkMeta {
                payload_start: pos + CHUNK_HEADER_LEN,
                payload_len,
                records,
                first_t_us,
            });
        }

        Ok(TraceReader {
            header,
            data,
            chunks,
            dropped_chunks,
            has_index,
        })
    }

    /// Validates the tail index at `pos` against the chunks scanned so
    /// far and extracts `dropped_chunks`.
    fn parse_index(
        data: &[u8],
        pos: usize,
        chunks: &[ChunkMeta],
        dropped_chunks: &mut u64,
    ) -> Result<(), TraceError> {
        // The caller has read the index magic.
        let mut cur = &data[pos + 4..];
        let short = truncated(pos, "index header");
        let entry_count = wire::get_u32(&mut cur).map_err(short)? as usize;
        let dropped = wire::get_u64(&mut cur).map_err(short)?;
        let entries_start = pos + 16;
        let Some(entries_len) = entry_count.checked_mul(INDEX_ENTRY_LEN) else {
            return Err(TraceError::Malformed {
                offset: pos + 4,
                what: "index entry count overflows",
            });
        };
        let short_entries = truncated(entries_start, "index entries");
        let mut entries = wire::get_bytes(&mut cur, entries_len).map_err(short_entries)?;
        let crc = wire::get_u32(&mut cur).map_err(short_entries)?;
        let crc_at = entries_start + entries_len;
        if crc32(&data[pos..crc_at]) != crc {
            return Err(TraceError::Malformed {
                offset: pos,
                what: "index checksum mismatch",
            });
        }
        let short = truncated(crc_at + 4, "index trailer");
        let index_len = wire::get_u32(&mut cur).map_err(short)? as usize;
        let trailer = wire::get_bytes(&mut cur, 8).map_err(short)?;
        if index_len != crc_at + 4 - pos {
            return Err(TraceError::Malformed {
                offset: crc_at + 4,
                what: "index length disagrees with layout",
            });
        }
        if trailer != TRAILER_MAGIC {
            return Err(TraceError::Malformed {
                offset: crc_at + 8,
                what: "bad trailer magic",
            });
        }
        if !cur.is_empty() {
            return Err(TraceError::Malformed {
                offset: crc_at + 16,
                what: "bytes after trailer",
            });
        }
        if entry_count != chunks.len() {
            return Err(TraceError::Malformed {
                offset: pos + 4,
                what: "index entry count disagrees with chunks",
            });
        }
        for chunk in chunks {
            let at = crc_at - entries.len();
            let offset = wire::get_u64(&mut entries).map_err(short_entries)?;
            let first_t = wire::get_u64(&mut entries).map_err(short_entries)?;
            let records = wire::get_u32(&mut entries).map_err(short_entries)?;
            if offset as usize != chunk.payload_start - CHUNK_HEADER_LEN
                || first_t != chunk.first_t_us
                || records != chunk.records
            {
                return Err(TraceError::Malformed {
                    offset: at,
                    what: "index entry disagrees with chunk",
                });
            }
        }
        *dropped_chunks = dropped;
        Ok(())
    }

    /// The trace's identifying header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Number of chunks in the trace.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total records across all chunks (from chunk headers).
    pub fn record_count(&self) -> u64 {
        self.chunks.iter().map(|c| c.records as u64).sum()
    }

    /// Chunks the writer evicted before `finish` (flight-recorder ring
    /// overflow); 0 for complete traces.
    pub fn dropped_chunks(&self) -> u64 {
        self.dropped_chunks
    }

    /// Whether the trace carries a valid tail index (i.e. was cleanly
    /// finished).
    pub fn has_index(&self) -> bool {
        self.has_index
    }

    /// Iterates every record in order. Each item re-validates record
    /// framing, so a corrupt (but CRC-consistent) payload yields an
    /// `Err` item and then stops.
    pub fn records(&self) -> Records<'_> {
        Records {
            reader: self,
            chunk: 0,
            pos: 0,
            emitted: 0,
            done: false,
        }
    }
}

/// Iterator over [`TraceRecord`]s; fuses after the first error.
#[derive(Debug)]
pub struct Records<'a> {
    reader: &'a TraceReader,
    chunk: usize,
    pos: usize,
    emitted: u32,
    done: bool,
}

impl Records<'_> {
    /// The next record, or `None` after the last chunk.
    fn read(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        loop {
            let Some(&meta) = self.reader.chunks.get(self.chunk) else {
                return Ok(None);
            };
            if self.pos == meta.payload_len {
                if self.emitted != meta.records {
                    return Err(TraceError::Malformed {
                        offset: meta.payload_start + self.pos,
                        what: "chunk record count disagrees with payload",
                    });
                }
                self.chunk += 1;
                self.pos = 0;
                self.emitted = 0;
                continue;
            }
            let payload =
                &self.reader.data[meta.payload_start..meta.payload_start + meta.payload_len];
            let abs = meta.payload_start + self.pos;
            let mut cur = &payload[self.pos..];
            let short = malformed(abs, "record header past chunk end");
            let t_us = wire::get_u64(&mut cur).map_err(short)?;
            let channel = wire::get_u32(&mut cur).map_err(short)?;
            let dir = wire::get_u8(&mut cur).map_err(short)?;
            let len = wire::get_u32(&mut cur).map_err(short)? as usize;
            let dir = match dir {
                0 => Direction::ToServer,
                1 => Direction::ToClient,
                _ => {
                    return Err(TraceError::Malformed {
                        offset: abs + 12,
                        what: "unknown direction",
                    })
                }
            };
            let bytes = wire::get_bytes(&mut cur, len)
                .map_err(malformed(abs, "record payload past chunk end"))?;
            if self.emitted == meta.records {
                return Err(TraceError::Malformed {
                    offset: abs,
                    what: "more records than chunk header claims",
                });
            }
            self.pos = meta.payload_len - cur.len();
            self.emitted += 1;
            return Ok(Some(TraceRecord {
                t_us,
                channel,
                dir,
                payload: bytes.to_vec(),
            }));
        }
    }
}

impl Iterator for Records<'_> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.read().transpose();
        self.done = matches!(item, Some(Err(_)));
        item
    }
}

/// Maps a short read inside the structure `what` at `offset` to
/// [`TraceError::Truncated`].
fn truncated(offset: usize, what: &'static str) -> impl Fn(ProtocolError) -> TraceError + Copy {
    move |_| TraceError::Truncated { offset, what }
}

/// Maps a short read inside the record structure `what` at `offset` to
/// [`TraceError::Malformed`]: a record that passes its chunk's end.
fn malformed(offset: usize, what: &'static str) -> impl Fn(ProtocolError) -> TraceError + Copy {
    move |_| TraceError::Malformed { offset, what }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> TraceHeader {
        TraceHeader {
            seed: 42,
            protocol_version: 1,
            pixel_format: PixelFormat::Rgb888,
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                t_us: 10,
                channel: 0,
                dir: Direction::ToServer,
                payload: vec![1, 2, 3],
            },
            TraceRecord {
                t_us: 20,
                channel: 0,
                dir: Direction::ToClient,
                payload: vec![],
            },
            TraceRecord {
                t_us: 30,
                channel: 7,
                dir: Direction::ToClient,
                payload: vec![0xFF; 100],
            },
        ]
    }

    fn write(records: &[TraceRecord], config: TraceConfig) -> Vec<u8> {
        let mut w = TraceWriter::with_config(header(), config);
        for r in records {
            w.record(r.t_us, r.channel, r.dir, &r.payload);
        }
        w.finish()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_records_and_header() {
        let records = sample_records();
        let bytes = write(&records, TraceConfig::default());
        let reader = TraceReader::parse(bytes).unwrap();
        assert_eq!(reader.header(), &header());
        assert!(reader.has_index());
        assert_eq!(reader.record_count(), 3);
        assert_eq!(reader.dropped_chunks(), 0);
        let back: Vec<TraceRecord> = reader.records().map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = write(&sample_records(), TraceConfig::default());
        let b = write(&sample_records(), TraceConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn chunking_splits_and_preserves_order() {
        let records: Vec<TraceRecord> = (0..50)
            .map(|i| TraceRecord {
                t_us: i as u64 * 5,
                channel: 0,
                dir: Direction::ToClient,
                payload: vec![i as u8; 40],
            })
            .collect();
        let bytes = write(
            &records,
            TraceConfig {
                chunk_bytes: 128,
                ..TraceConfig::default()
            },
        );
        let reader = TraceReader::parse(bytes).unwrap();
        assert!(reader.chunk_count() > 5, "{} chunks", reader.chunk_count());
        let back: Vec<TraceRecord> = reader.records().map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
    }

    #[test]
    fn ring_evicts_oldest_chunks() {
        let mut w = TraceWriter::with_config(
            header(),
            TraceConfig {
                chunk_bytes: 128,
                max_trace_bytes: 512,
            },
        );
        for i in 0..200u64 {
            w.record(i, 0, Direction::ToClient, &[0xAB; 40]);
        }
        assert!(w.dropped_chunks() > 0);
        let dropped = w.dropped_chunks();
        let written = w.records_written();
        let reader = TraceReader::parse(w.finish()).unwrap();
        assert_eq!(reader.dropped_chunks(), dropped);
        assert!(reader.record_count() < written);
        // The *newest* records survive; the first remaining timestamp
        // is late in the run.
        let first = reader.records().next().unwrap().unwrap();
        assert!(first.t_us > 0);
        let last = reader.records().last().unwrap().unwrap();
        assert_eq!(last.t_us, 199);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = write(&sample_records(), TraceConfig::default());
        for cut in [3, HEADER_LEN + 2, bytes.len() - 5] {
            let err = TraceReader::parse(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::Malformed { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_chunk_payload_is_rejected() {
        let mut bytes = write(&sample_records(), TraceConfig::default());
        // Flip a byte inside the first chunk payload.
        let at = HEADER_LEN + CHUNK_HEADER_LEN + 9;
        bytes[at] ^= 0x40;
        let err = TraceReader::parse(bytes).unwrap_err();
        assert!(matches!(err, TraceError::CrcMismatch { chunk: 0 }), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = write(&sample_records(), TraceConfig::default());
        bytes[0] = b'X';
        assert!(matches!(
            TraceReader::parse(bytes).unwrap_err(),
            TraceError::BadMagic
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = write(&sample_records(), TraceConfig::default());
        bytes[9] = 99;
        assert!(matches!(
            TraceReader::parse(bytes).unwrap_err(),
            TraceError::UnsupportedVersion(_)
        ));
    }
}
