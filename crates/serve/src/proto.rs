//! The `tlrd` wire protocol: framed request/reply messages over a
//! byte stream (in practice a Unix-domain socket).
//!
//! Everything here is transport-agnostic `Read`/`Write` code so the
//! fuzz tests can drive the codec over in-memory buffers. The layout is
//! documented normatively in `docs/PROTOCOL.md`, which a test in this
//! module checks against the constants below — change one, change both.
//!
//! ## Framing
//!
//! Every message travels in one frame (integers little-endian, like the
//! `tlr-persist` file formats whose wire helpers this module reuses):
//!
//! | field | size |
//! |---|---|
//! | payload length | u32 |
//! | payload | `length` bytes |
//! | checksum (FxHash64 of the payload) | u64 |
//!
//! A zero or over-[`MAX_MESSAGE`] length and a checksum mismatch are
//! framing errors: the peer's stream can no longer be trusted, so the
//! connection is closed rather than resynchronized.
//!
//! ## Messages
//!
//! The payload's first byte is the message tag; requests use the low
//! tag space, replies the high one. A session starts with
//! [`Request::Hello`] (magic + the client's protocol version); the
//! server answers [`Reply::HelloOk`] with the version it will speak or
//! a [`Reply::Error`] with [`ErrorCode::UnsupportedVersion`]. Snapshots
//! travel inside [`Request::Publish`] / [`Reply::Snapshot`] as a
//! complete `tlr-persist` snapshot file image, so both checked headers
//! and both validation layers (geometry bounds, per-record I/O caps)
//! protect the daemon exactly as they protect an on-disk load.

use crate::registry::RegistryStats;
use std::io::{Read, Write};
use tlr_core::RtmSnapshot;
use tlr_persist::snapshot::{read_snapshot, write_snapshot};
use tlr_persist::{wire, PersistError};
use tlr_util::fxhash::FxHasher64;

/// Magic the Hello request opens with, rejecting non-`tlrd` peers.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"TLRD";

/// The protocol version this build speaks. Version 2 widened the
/// `StatsOk` reply to nine counters (image-cache hits/builds/
/// invalidations) and `RefreshOk` to four (stamp-unchanged files).
/// Version 3 added the `GetShape` request (fingerprint + shape
/// fingerprint, answered with the existing `Snapshot` reply) and
/// widened `StatsOk` to eleven counters (shape hits/rejects).
pub const PROTOCOL_VERSION: u16 = 3;

/// Cap on one message payload (64 MiB): larger than any snapshot the
/// persist layer's geometry bounds admit, small enough that a corrupt
/// length prefix can never trigger a huge allocation.
pub const MAX_MESSAGE: u32 = 1 << 26;

/// Request tag: Hello (magic + u16 client protocol version).
pub const TAG_HELLO: u8 = 0x01;
/// Request tag: Get (u64 fingerprint).
pub const TAG_GET: u8 = 0x02;
/// Request tag: Publish (snapshot file image).
pub const TAG_PUBLISH: u8 = 0x03;
/// Request tag: Stats (empty body).
pub const TAG_STATS: u8 = 0x04;
/// Request tag: Refresh (empty body).
pub const TAG_REFRESH: u8 = 0x05;
/// Request tag: GetShape (u64 fingerprint + u64 shape fingerprint; v3+).
pub const TAG_GET_SHAPE: u8 = 0x06;
/// Reply tag: HelloOk (u16 negotiated version + u64 indexed programs).
pub const TAG_HELLO_OK: u8 = 0x81;
/// Reply tag: Snapshot (u8 present flag + snapshot file image).
pub const TAG_SNAPSHOT: u8 = 0x82;
/// Reply tag: PublishOk (empty body).
pub const TAG_PUBLISH_OK: u8 = 0x83;
/// Reply tag: Stats (eleven u64 registry counters).
pub const TAG_STATS_OK: u8 = 0x84;
/// Reply tag: RefreshOk (u64 new files + u64 refreshed + u64 skipped +
/// u64 unchanged).
pub const TAG_REFRESH_OK: u8 = 0x85;
/// Reply tag: Error (u16 code + UTF-8 message).
pub const TAG_ERROR: u8 = 0xff;

/// Why the server refused a request (the numeric value is the wire
/// encoding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The client's protocol version is not supported.
    UnsupportedVersion = 1,
    /// The request was malformed (unknown tag, short or trailing
    /// bytes).
    BadRequest = 2,
    /// The first message of a session was not a Hello.
    HelloRequired = 3,
    /// A snapshot failed to decode or a disk load failed.
    Persist = 4,
    /// A published snapshot's geometry disagrees with resident state.
    Merge = 5,
    /// The server failed internally.
    Internal = 6,
}

impl ErrorCode {
    /// Decode a wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::UnsupportedVersion),
            2 => Some(ErrorCode::BadRequest),
            3 => Some(ErrorCode::HelloRequired),
            4 => Some(ErrorCode::Persist),
            5 => Some(ErrorCode::Merge),
            6 => Some(ErrorCode::Internal),
            _ => None,
        }
    }

    /// Stable name, as used in `docs/PROTOCOL.md`.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ErrorCode::BadRequest => "BAD_REQUEST",
            ErrorCode::HelloRequired => "HELLO_REQUIRED",
            ErrorCode::Persist => "PERSIST",
            ErrorCode::Merge => "MERGE",
            ErrorCode::Internal => "INTERNAL",
        }
    }

    /// Every defined code, in wire-value order.
    pub const ALL: [ErrorCode; 6] = [
        ErrorCode::UnsupportedVersion,
        ErrorCode::BadRequest,
        ErrorCode::HelloRequired,
        ErrorCode::Persist,
        ErrorCode::Merge,
        ErrorCode::Internal,
    ];
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.name(), *self as u16)
    }
}

/// Why a protocol exchange failed.
#[derive(Debug)]
pub enum ProtoError {
    /// The transport failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not parse as a protocol message.
    Corrupt(String),
    /// An embedded snapshot failed to encode or decode.
    Persist(PersistError),
    /// Hello negotiation failed: the peer speaks a version this build
    /// does not.
    UnsupportedVersion {
        /// Version the peer offered.
        peer: u16,
        /// Version this build speaks.
        ours: u16,
    },
    /// The server answered with a named error reply.
    Remote {
        /// The server's error code.
        code: ErrorCode,
        /// The server's human-readable message.
        message: String,
    },
    /// The server sent a reply of the wrong kind for the request.
    UnexpectedReply {
        /// Tag of the reply that arrived.
        found: u8,
        /// What the request called for.
        expected: &'static str,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol transport error: {e}"),
            ProtoError::Corrupt(msg) => write!(f, "corrupt protocol frame: {msg}"),
            ProtoError::Persist(e) => write!(f, "embedded snapshot: {e}"),
            ProtoError::UnsupportedVersion { peer, ours } => write!(
                f,
                "peer speaks protocol version {peer}, this build speaks {ours}"
            ),
            ProtoError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ProtoError::UnexpectedReply { found, expected } => {
                write!(f, "expected a {expected} reply, got tag {found:#04x}")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<PersistError> for ProtoError {
    fn from(e: PersistError) -> Self {
        ProtoError::Persist(e)
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session: protocol magic plus the client's version.
    Hello {
        /// The client's protocol version.
        version: u16,
    },
    /// Fetch the pooled warm state for a program.
    Get {
        /// Program fingerprint
        /// ([`tlr_persist::program_fingerprint`]).
        fingerprint: u64,
    },
    /// Contribute a finished run's RTM export back to the registry.
    Publish {
        /// The program the snapshot belongs to.
        fingerprint: u64,
        /// The run's exported reuse state.
        snapshot: RtmSnapshot,
    },
    /// Read registry-wide counters.
    Stats,
    /// Rescan the snapshot directory for new files now.
    Refresh,
    /// Fetch the pooled warm state for a program, falling back to
    /// *shape resolution* (v3+): when the exact fingerprint is unknown,
    /// the server pools the published state of programs sharing the
    /// same nonzero shape fingerprint (same code, different data) and
    /// serves that. Answered with [`Reply::Snapshot`].
    GetShape {
        /// Program fingerprint
        /// ([`tlr_persist::program_fingerprint`]).
        fingerprint: u64,
        /// Program shape fingerprint
        /// ([`tlr_persist::program_shape_fingerprint`]); 0 disables
        /// the fallback.
        shape: u64,
    },
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The session is open.
    HelloOk {
        /// The version the server will speak (= the client's, today).
        version: u16,
        /// Programs the server's snapshot index knows.
        programs: u64,
    },
    /// Answer to [`Request::Get`]: the pooled state, or `None` when
    /// the program is neither resident nor on disk.
    Snapshot {
        /// The fingerprint the state belongs to.
        fingerprint: u64,
        /// The pooled warm state, if any.
        snapshot: Option<RtmSnapshot>,
    },
    /// Answer to [`Request::Publish`].
    PublishOk,
    /// Answer to [`Request::Stats`].
    Stats(RegistryStats),
    /// Answer to [`Request::Refresh`].
    RefreshOk {
        /// Snapshot files discovered and indexed.
        new_files: u64,
        /// Resident entries that absorbed new or changed files.
        refreshed: u64,
        /// Files skipped as unreadable/mid-write.
        skipped: u64,
        /// Known files skipped because their (mtime, length) stamp
        /// matched the previous scan.
        unchanged: u64,
    },
    /// The request failed; the session stays open unless the failure
    /// was a framing error.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---- framing --------------------------------------------------------------

/// Write one checksummed frame around `payload`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.is_empty() || payload.len() > MAX_MESSAGE as usize {
        return Err(ProtoError::Corrupt(format!(
            "refusing to send a {}-byte payload (cap {MAX_MESSAGE})",
            payload.len()
        )));
    }
    let mut h = FxHasher64::new();
    std::hash::Hasher::write(&mut h, payload);
    let mut out = Vec::with_capacity(payload.len() + 12);
    wire::put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    wire::put_u64(&mut out, std::hash::Hasher::finish(&h));
    w.write_all(&out)?;
    w.flush()?;
    Ok(())
}

/// Read one checksummed frame. `Ok(None)` on clean EOF *before* the
/// length prefix (the peer hung up between messages); EOF anywhere else
/// is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_buf[n..])?,
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_MESSAGE {
        return Err(ProtoError::Corrupt(format!(
            "frame length {len} outside (0, {MAX_MESSAGE}]"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut h = FxHasher64::new();
    std::hash::Hasher::write(&mut h, &payload);
    let mut sum_buf = [0u8; 8];
    r.read_exact(&mut sum_buf)?;
    if u64::from_le_bytes(sum_buf) != std::hash::Hasher::finish(&h) {
        return Err(ProtoError::Corrupt("frame checksum mismatch".into()));
    }
    Ok(Some(payload))
}

// ---- codecs ---------------------------------------------------------------

fn snapshot_bytes(fingerprint: u64, snapshot: &RtmSnapshot) -> Result<Vec<u8>, ProtoError> {
    let mut bytes = Vec::with_capacity(64 + snapshot.len() * 64);
    write_snapshot(&mut bytes, fingerprint, snapshot)?;
    Ok(bytes)
}

fn decode_snapshot(
    slice: &mut &[u8],
    expected_fingerprint: Option<u64>,
) -> Result<(u64, RtmSnapshot), ProtoError> {
    let (fingerprint, snapshot) = read_snapshot(slice, expected_fingerprint)?;
    Ok((fingerprint, snapshot))
}

fn expect_drained(slice: &[u8], what: &str) -> Result<(), ProtoError> {
    if slice.is_empty() {
        Ok(())
    } else {
        Err(ProtoError::Corrupt(format!(
            "{} stray bytes after {what}",
            slice.len()
        )))
    }
}

/// Encode a request into a frame payload.
pub fn encode_request(request: &Request) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    match request {
        Request::Hello { version } => {
            wire::put_u8(&mut out, TAG_HELLO);
            out.extend_from_slice(&PROTOCOL_MAGIC);
            wire::put_u16(&mut out, *version);
        }
        Request::Get { fingerprint } => {
            wire::put_u8(&mut out, TAG_GET);
            wire::put_u64(&mut out, *fingerprint);
        }
        Request::Publish {
            fingerprint,
            snapshot,
        } => return encode_publish(*fingerprint, snapshot),
        Request::Stats => wire::put_u8(&mut out, TAG_STATS),
        Request::Refresh => wire::put_u8(&mut out, TAG_REFRESH),
        Request::GetShape { fingerprint, shape } => {
            wire::put_u8(&mut out, TAG_GET_SHAPE);
            wire::put_u64(&mut out, *fingerprint);
            wire::put_u64(&mut out, *shape);
        }
    }
    Ok(out)
}

/// Encode a [`Request::Publish`] payload directly from a borrowed
/// snapshot, as [`encode_snapshot_reply`] does for replies: a client
/// publishes its run's export without first deep-cloning it into an
/// owned [`Request`].
pub(crate) fn encode_publish(
    fingerprint: u64,
    snapshot: &RtmSnapshot,
) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    wire::put_u8(&mut out, TAG_PUBLISH);
    out.extend_from_slice(&snapshot_bytes(fingerprint, snapshot)?);
    Ok(out)
}

/// Decode a request from a frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut slice = payload;
    let tag = wire::get_u8(&mut slice).map_err(|_| ProtoError::Corrupt("empty payload".into()))?;
    let short = |what: &str| ProtoError::Corrupt(format!("short {what} request"));
    match tag {
        TAG_HELLO => {
            let mut magic = [0u8; 4];
            slice.read_exact(&mut magic).map_err(|_| short("Hello"))?;
            if magic != PROTOCOL_MAGIC {
                return Err(ProtoError::Corrupt(format!(
                    "Hello magic {magic:02x?} is not {PROTOCOL_MAGIC:02x?}"
                )));
            }
            let version = wire::get_u16(&mut slice).map_err(|_| short("Hello"))?;
            expect_drained(slice, "Hello")?;
            Ok(Request::Hello { version })
        }
        TAG_GET => {
            let fingerprint = wire::get_u64(&mut slice).map_err(|_| short("Get"))?;
            expect_drained(slice, "Get")?;
            Ok(Request::Get { fingerprint })
        }
        TAG_PUBLISH => {
            let (fingerprint, snapshot) = decode_snapshot(&mut slice, None)?;
            expect_drained(slice, "Publish")?;
            Ok(Request::Publish {
                fingerprint,
                snapshot,
            })
        }
        TAG_STATS => {
            expect_drained(slice, "Stats")?;
            Ok(Request::Stats)
        }
        TAG_REFRESH => {
            expect_drained(slice, "Refresh")?;
            Ok(Request::Refresh)
        }
        TAG_GET_SHAPE => {
            let fingerprint = wire::get_u64(&mut slice).map_err(|_| short("GetShape"))?;
            let shape = wire::get_u64(&mut slice).map_err(|_| short("GetShape"))?;
            expect_drained(slice, "GetShape")?;
            Ok(Request::GetShape { fingerprint, shape })
        }
        other => Err(ProtoError::Corrupt(format!(
            "unknown request tag {other:#04x}"
        ))),
    }
}

/// Encode a [`Reply::Snapshot`] payload directly from a borrowed
/// snapshot. The daemon answers `Get` from shared (`Arc`) resident
/// state; this path serializes it without first deep-cloning the
/// snapshot into an owned [`Reply`].
pub fn encode_snapshot_reply(
    fingerprint: u64,
    snapshot: Option<&RtmSnapshot>,
) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    wire::put_u8(&mut out, TAG_SNAPSHOT);
    match snapshot {
        Some(snapshot) => {
            wire::put_u8(&mut out, 1);
            out.extend_from_slice(&snapshot_bytes(fingerprint, snapshot)?);
        }
        None => {
            wire::put_u8(&mut out, 0);
            wire::put_u64(&mut out, fingerprint);
        }
    }
    Ok(out)
}

/// Encode a [`Reply::Snapshot`] payload from an already-serialized
/// snapshot file image — the zero-copy `Get` path: the daemon serves
/// the registry's cached image bytes without touching the snapshot
/// structure at all. `image` must be a complete snapshot file image
/// (as [`SnapshotRegistry::get_image`](crate::SnapshotRegistry::get_image)
/// returns); only the 2-byte tag/present prefix is prepended.
pub fn encode_snapshot_reply_image(fingerprint: u64, image: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + image.map_or(8, <[u8]>::len));
    wire::put_u8(&mut out, TAG_SNAPSHOT);
    match image {
        Some(image) => {
            wire::put_u8(&mut out, 1);
            out.extend_from_slice(image);
        }
        None => {
            wire::put_u8(&mut out, 0);
            wire::put_u64(&mut out, fingerprint);
        }
    }
    out
}

/// Encode a reply into a frame payload.
pub fn encode_reply(reply: &Reply) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    match reply {
        Reply::HelloOk { version, programs } => {
            wire::put_u8(&mut out, TAG_HELLO_OK);
            wire::put_u16(&mut out, *version);
            wire::put_u64(&mut out, *programs);
        }
        Reply::Snapshot {
            fingerprint,
            snapshot,
        } => return encode_snapshot_reply(*fingerprint, snapshot.as_ref()),
        Reply::PublishOk => wire::put_u8(&mut out, TAG_PUBLISH_OK),
        Reply::Stats(stats) => {
            wire::put_u8(&mut out, TAG_STATS_OK);
            for v in [
                stats.resident,
                stats.hits,
                stats.misses,
                stats.refreshes,
                stats.evicted,
                stats.unknown,
                stats.image_hits,
                stats.image_builds,
                stats.image_invalidations,
                stats.shape_hits,
                stats.shape_rejects,
            ] {
                wire::put_u64(&mut out, v);
            }
        }
        Reply::RefreshOk {
            new_files,
            refreshed,
            skipped,
            unchanged,
        } => {
            wire::put_u8(&mut out, TAG_REFRESH_OK);
            wire::put_u64(&mut out, *new_files);
            wire::put_u64(&mut out, *refreshed);
            wire::put_u64(&mut out, *skipped);
            wire::put_u64(&mut out, *unchanged);
        }
        Reply::Error { code, message } => {
            wire::put_u8(&mut out, TAG_ERROR);
            wire::put_u16(&mut out, *code as u16);
            out.extend_from_slice(message.as_bytes());
        }
    }
    Ok(out)
}

/// Decode a reply from a frame payload.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtoError> {
    let mut slice = payload;
    let tag = wire::get_u8(&mut slice).map_err(|_| ProtoError::Corrupt("empty payload".into()))?;
    let short = |what: &str| ProtoError::Corrupt(format!("short {what} reply"));
    match tag {
        TAG_HELLO_OK => {
            let version = wire::get_u16(&mut slice).map_err(|_| short("HelloOk"))?;
            let programs = wire::get_u64(&mut slice).map_err(|_| short("HelloOk"))?;
            expect_drained(slice, "HelloOk")?;
            Ok(Reply::HelloOk { version, programs })
        }
        TAG_SNAPSHOT => {
            let present = wire::get_u8(&mut slice).map_err(|_| short("Snapshot"))?;
            let (fingerprint, snapshot) = match present {
                0 => (
                    wire::get_u64(&mut slice).map_err(|_| short("Snapshot"))?,
                    None,
                ),
                1 => {
                    let (fp, snap) = decode_snapshot(&mut slice, None)?;
                    (fp, Some(snap))
                }
                other => {
                    return Err(ProtoError::Corrupt(format!(
                        "Snapshot present flag is {other}, expected 0 or 1"
                    )))
                }
            };
            expect_drained(slice, "Snapshot")?;
            Ok(Reply::Snapshot {
                fingerprint,
                snapshot,
            })
        }
        TAG_PUBLISH_OK => {
            expect_drained(slice, "PublishOk")?;
            Ok(Reply::PublishOk)
        }
        TAG_STATS_OK => {
            let mut get = || wire::get_u64(&mut slice).map_err(|_| short("Stats"));
            let stats = RegistryStats {
                resident: get()?,
                hits: get()?,
                misses: get()?,
                refreshes: get()?,
                evicted: get()?,
                unknown: get()?,
                image_hits: get()?,
                image_builds: get()?,
                image_invalidations: get()?,
                shape_hits: get()?,
                shape_rejects: get()?,
            };
            expect_drained(slice, "Stats")?;
            Ok(Reply::Stats(stats))
        }
        TAG_REFRESH_OK => {
            let mut get = || wire::get_u64(&mut slice).map_err(|_| short("RefreshOk"));
            let (new_files, refreshed, skipped, unchanged) = (get()?, get()?, get()?, get()?);
            expect_drained(slice, "RefreshOk")?;
            Ok(Reply::RefreshOk {
                new_files,
                refreshed,
                skipped,
                unchanged,
            })
        }
        TAG_ERROR => {
            let raw = wire::get_u16(&mut slice).map_err(|_| short("Error"))?;
            let code = ErrorCode::from_u16(raw)
                .ok_or_else(|| ProtoError::Corrupt(format!("unknown error code {raw}")))?;
            let message = String::from_utf8(slice.to_vec())
                .map_err(|_| ProtoError::Corrupt("error message is not UTF-8".into()))?;
            Ok(Reply::Error { code, message })
        }
        other => Err(ProtoError::Corrupt(format!(
            "unknown reply tag {other:#04x}"
        ))),
    }
}

/// Send one request as a frame.
pub fn write_request(w: &mut impl Write, request: &Request) -> Result<(), ProtoError> {
    write_frame(w, &encode_request(request)?)
}

/// Receive one request; `Ok(None)` on clean EOF.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ProtoError> {
    match read_frame(r)? {
        Some(payload) => Ok(Some(decode_request(&payload)?)),
        None => Ok(None),
    }
}

/// Send one reply as a frame.
pub fn write_reply(w: &mut impl Write, reply: &Reply) -> Result<(), ProtoError> {
    write_frame(w, &encode_reply(reply)?)
}

/// Receive one reply; `Ok(None)` on clean EOF.
pub fn read_reply(r: &mut impl Read) -> Result<Option<Reply>, ProtoError> {
    match read_frame(r)? {
        Some(payload) => Ok(Some(decode_reply(&payload)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_core::{RtmConfig, TraceRecord};
    use tlr_isa::Loc;

    fn sample_snapshot() -> RtmSnapshot {
        let mut rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        for v in 0..5u64 {
            rtm.insert(TraceRecord {
                start_pc: 8 + v as u32 * 4,
                next_pc: 16 + v as u32 * 4,
                len: 2,
                ins: vec![(Loc::IntReg(1), v)].into_boxed_slice(),
                outs: vec![(Loc::IntReg(2), v * 3)].into_boxed_slice(),
                mix: Default::default(),
            });
        }
        rtm.export()
    }

    #[test]
    fn requests_roundtrip() {
        for request in [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Get {
                fingerprint: 0xfeed,
            },
            Request::Publish {
                fingerprint: 7,
                snapshot: sample_snapshot(),
            },
            Request::Stats,
            Request::Refresh,
            Request::GetShape {
                fingerprint: 0xfeed,
                shape: 0xbeef,
            },
        ] {
            let mut buf = Vec::new();
            write_request(&mut buf, &request).unwrap();
            let again = read_request(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(again, request);
        }
    }

    #[test]
    fn borrowed_publish_encoding_matches_owned_request() {
        let snapshot = sample_snapshot();
        let borrowed = encode_publish(7, &snapshot).unwrap();
        let owned = encode_request(&Request::Publish {
            fingerprint: 7,
            snapshot: snapshot.clone(),
        })
        .unwrap();
        assert_eq!(borrowed, owned);
        // The wire bytes are the tag followed by the snapshot file image.
        let mut image = Vec::new();
        write_snapshot(&mut image, 7, &snapshot).unwrap();
        assert_eq!(borrowed[0], TAG_PUBLISH);
        assert_eq!(&borrowed[1..], &image[..]);
    }

    #[test]
    fn replies_roundtrip() {
        for reply in [
            Reply::HelloOk {
                version: 1,
                programs: 14,
            },
            Reply::Snapshot {
                fingerprint: 9,
                snapshot: Some(sample_snapshot()),
            },
            Reply::Snapshot {
                fingerprint: 9,
                snapshot: None,
            },
            Reply::PublishOk,
            Reply::Stats(RegistryStats {
                resident: 1,
                hits: 2,
                misses: 3,
                refreshes: 4,
                evicted: 5,
                unknown: 6,
                image_hits: 7,
                image_builds: 8,
                image_invalidations: 9,
                shape_hits: 10,
                shape_rejects: 11,
            }),
            Reply::RefreshOk {
                new_files: 2,
                refreshed: 1,
                skipped: 0,
                unchanged: 3,
            },
            Reply::Error {
                code: ErrorCode::Merge,
                message: "geometry mismatch".into(),
            },
        ] {
            let mut buf = Vec::new();
            write_reply(&mut buf, &reply).unwrap();
            let again = read_reply(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(again, reply);
        }
    }

    #[test]
    fn clean_eof_is_none_midframe_eof_is_error() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Stats).unwrap();
        for cut in 1..buf.len() {
            assert!(
                read_frame(&mut &buf[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut pristine = Vec::new();
        write_request(
            &mut pristine,
            &Request::Publish {
                fingerprint: 3,
                snapshot: sample_snapshot(),
            },
        )
        .unwrap();
        // Flip one bit at a spread of positions: every damaged frame
        // must fail framing, decoding, or snapshot validation — never
        // decode to the original.
        for pos in (0..pristine.len()).step_by(7) {
            let mut buf = pristine.clone();
            buf[pos] ^= 0x10;
            match read_request(&mut buf.as_slice()) {
                Err(_) => {}
                Ok(decoded) => assert_ne!(
                    decoded,
                    Some(Request::Publish {
                        fingerprint: 3,
                        snapshot: sample_snapshot(),
                    }),
                    "bit flip at {pos} went unnoticed"
                ),
            }
        }
    }

    #[test]
    fn unknown_tags_and_bad_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0x42]).unwrap();
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(ProtoError::Corrupt(_))
        ));

        let mut payload = vec![TAG_HELLO];
        payload.extend_from_slice(b"NOPE");
        payload.extend_from_slice(&1u16.to_le_bytes());
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        wire::put_u32(&mut buf, u32::MAX);
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn error_codes_roundtrip_and_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
            assert!(seen.insert(code as u16), "duplicate wire value");
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    /// The normative protocol document must stay in sync with the wire
    /// constants: every tag, error code, the version, and the caps are
    /// checked against `docs/PROTOCOL.md` verbatim.
    #[test]
    fn protocol_doc_matches_wire_constants() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/PROTOCOL.md");
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let mut expect = vec![
            format!("version is **{PROTOCOL_VERSION}**"),
            format!("`\"TLRD\"`"),
            format!("{} MiB", MAX_MESSAGE >> 20),
        ];
        for (tag, name) in [
            (TAG_HELLO, "Hello"),
            (TAG_GET, "Get"),
            (TAG_PUBLISH, "Publish"),
            (TAG_STATS, "Stats"),
            (TAG_REFRESH, "Refresh"),
            (TAG_GET_SHAPE, "GetShape"),
            (TAG_HELLO_OK, "HelloOk"),
            (TAG_SNAPSHOT, "Snapshot"),
            (TAG_PUBLISH_OK, "PublishOk"),
            (TAG_STATS_OK, "StatsOk"),
            (TAG_REFRESH_OK, "RefreshOk"),
            (TAG_ERROR, "Error"),
        ] {
            expect.push(format!("| `0x{tag:02x}` | `{name}`"));
        }
        for code in ErrorCode::ALL {
            expect.push(format!("| {} | `{}`", code as u16, code.name()));
        }
        for needle in expect {
            assert!(
                doc.contains(&needle),
                "docs/PROTOCOL.md is out of sync with the wire constants: \
                 missing {needle:?}"
            );
        }
    }
}
