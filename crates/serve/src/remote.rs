//! `RemoteRegistry` — the client side of the `tlrd` protocol.
//!
//! Mirrors the in-process [`SnapshotRegistry`](crate::SnapshotRegistry) API (`get` / `publish` /
//! `stats` / `refresh`, same signatures modulo the transport) so a
//! simulator warms up from a daemon with the same three lines it would
//! use against a local snapshot directory:
//!
//! ```no_run
//! use tlr_serve::RemoteRegistry;
//! let remote = RemoteRegistry::connect(std::path::Path::new("/tmp/tlrd.sock")).unwrap();
//! if let Some(snapshot) = remote.get(0xfeed).unwrap() {
//!     // TraceReuseEngine::new_warm(&program, config, &snapshot)
//! }
//! ```
//!
//! One connection, one session: requests are serialized over an
//! internal mutex, so a `RemoteRegistry` can be shared across threads
//! (they queue rather than interleave frames). The server answers
//! request errors with named [`crate::proto::ErrorCode`]s, surfaced
//! here as [`crate::proto::ProtoError::Remote`] inside
//! [`ServeError::Proto`].

use crate::proto::{self, ProtoError, Reply, Request, PROTOCOL_VERSION};
use crate::registry::{RefreshOutcome, RegistryStats, ServeError};
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use tlr_core::RtmSnapshot;

struct Session {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Session {
    fn exchange(&mut self, request: &Request) -> Result<Reply, ProtoError> {
        self.exchange_payload(&proto::encode_request(request)?)
    }

    /// Send one already-encoded request payload and read the reply.
    fn exchange_payload(&mut self, payload: &[u8]) -> Result<Reply, ProtoError> {
        proto::write_frame(&mut self.writer, payload)?;
        match proto::read_reply(&mut self.reader)? {
            Some(Reply::Error { code, message }) => Err(ProtoError::Remote { code, message }),
            Some(reply) => Ok(reply),
            None => Err(ProtoError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server hung up mid-request",
            ))),
        }
    }
}

/// A connection to a `tlrd` daemon, API-compatible with the in-process
/// [`SnapshotRegistry`](crate::SnapshotRegistry). See the module docs.
pub struct RemoteRegistry {
    session: Mutex<Session>,
    /// Program count the server reported at Hello.
    programs: u64,
}

impl RemoteRegistry {
    /// Connect to the daemon listening on `path` and negotiate the
    /// protocol version.
    pub fn connect(path: &Path) -> Result<RemoteRegistry, ServeError> {
        let stream = UnixStream::connect(path).map_err(|e| {
            ServeError::Proto(ProtoError::Io(std::io::Error::new(
                e.kind(),
                format!("cannot connect to {}: {e}", path.display()),
            )))
        })?;
        let reader = BufReader::new(stream.try_clone().map_err(ProtoError::Io)?);
        let mut session = Session {
            reader,
            writer: stream,
        };
        let reply = session.exchange(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        let programs = match reply {
            Reply::HelloOk { version, programs } if version == PROTOCOL_VERSION => programs,
            Reply::HelloOk { version, .. } => {
                return Err(ProtoError::UnsupportedVersion {
                    peer: version,
                    ours: PROTOCOL_VERSION,
                }
                .into())
            }
            other => return Err(unexpected(&other, "HelloOk").into()),
        };
        Ok(RemoteRegistry {
            session: Mutex::new(session),
            programs,
        })
    }

    /// Programs the daemon's snapshot index knew at connect time.
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// The warm reuse state for `fingerprint`, as
    /// [`SnapshotRegistry::get`](crate::SnapshotRegistry::get): `Ok(None)` when the daemon has
    /// nothing for the program and the caller runs cold.
    pub fn get(&self, fingerprint: u64) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        self.fetch(fingerprint, &Request::Get { fingerprint })
    }

    /// The warm reuse state for `fingerprint`, falling back to shape
    /// resolution on the daemon side, as
    /// [`SnapshotRegistry::get_by_shape`](crate::SnapshotRegistry::get_by_shape):
    /// a data-varied client passes its program's shape fingerprint and
    /// warm-starts from another seed's published RTM when its exact
    /// fingerprint is unknown. `Ok(None)` when neither resolves.
    pub fn get_by_shape(
        &self,
        fingerprint: u64,
        shape: u64,
    ) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        self.fetch(fingerprint, &Request::GetShape { fingerprint, shape })
    }

    /// Send a snapshot `request` for `fingerprint` and check that the
    /// `Snapshot` reply answers for that fingerprint.
    fn fetch(
        &self,
        fingerprint: u64,
        request: &Request,
    ) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        let reply = self.session.lock().unwrap().exchange(request)?;
        match reply {
            Reply::Snapshot {
                fingerprint: fp,
                snapshot,
            } => {
                if fp != fingerprint {
                    return Err(ProtoError::Corrupt(format!(
                        "asked for fingerprint {fingerprint:#x}, server answered for {fp:#x}"
                    ))
                    .into());
                }
                Ok(snapshot.map(Arc::new))
            }
            other => Err(unexpected(&other, "Snapshot").into()),
        }
    }

    /// Contribute a finished run's RTM export, as
    /// [`SnapshotRegistry::publish`](crate::SnapshotRegistry::publish).
    pub fn publish(&self, fingerprint: u64, snapshot: &RtmSnapshot) -> Result<(), ServeError> {
        let payload = proto::encode_publish(fingerprint, snapshot)?;
        let reply = self.session.lock().unwrap().exchange_payload(&payload)?;
        match reply {
            Reply::PublishOk => Ok(()),
            other => Err(unexpected(&other, "PublishOk").into()),
        }
    }

    /// Registry-wide aggregates, as [`SnapshotRegistry::stats`](crate::SnapshotRegistry::stats).
    pub fn stats(&self) -> Result<RegistryStats, ServeError> {
        let reply = self.session.lock().unwrap().exchange(&Request::Stats)?;
        match reply {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other, "Stats").into()),
        }
    }

    /// Ask the daemon to rescan its snapshot directory now, as
    /// [`SnapshotRegistry::refresh`](crate::SnapshotRegistry::refresh).
    pub fn refresh(&self) -> Result<RefreshOutcome, ServeError> {
        let reply = self.session.lock().unwrap().exchange(&Request::Refresh)?;
        match reply {
            Reply::RefreshOk {
                new_files,
                refreshed,
                skipped,
                unchanged,
            } => Ok(RefreshOutcome {
                new_files,
                refreshed,
                skipped,
                unchanged,
            }),
            other => Err(unexpected(&other, "RefreshOk").into()),
        }
    }
}

fn unexpected(reply: &Reply, expected: &'static str) -> ProtoError {
    let found = match reply {
        Reply::HelloOk { .. } => proto::TAG_HELLO_OK,
        Reply::Snapshot { .. } => proto::TAG_SNAPSHOT,
        Reply::PublishOk => proto::TAG_PUBLISH_OK,
        Reply::Stats(_) => proto::TAG_STATS_OK,
        Reply::RefreshOk { .. } => proto::TAG_REFRESH_OK,
        Reply::Error { .. } => proto::TAG_ERROR,
    };
    ProtoError::UnexpectedReply { found, expected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::Daemon;
    use crate::registry::{RegistryConfig, SnapshotRegistry};
    use std::path::PathBuf;
    use tlr_core::{RtmConfig, TraceRecord};
    use tlr_isa::Loc;
    use tlr_persist::save_snapshot;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tlr-remote-unit").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot_of(v: u64) -> RtmSnapshot {
        let mut rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(TraceRecord {
            start_pc: 8,
            next_pc: 10,
            len: 2,
            ins: vec![(Loc::IntReg(1), v)].into_boxed_slice(),
            outs: vec![(Loc::IntReg(2), v * 3)].into_boxed_slice(),
            mix: Default::default(),
        });
        rtm.export()
    }

    #[test]
    fn remote_mirrors_in_process_registry() {
        let dir = temp_dir("mirror");
        save_snapshot(&dir.join("p.tlrsnap"), 1, &snapshot_of(5)).unwrap();
        let registry = Arc::new(SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap());
        let sock = dir.join("tlrd.sock");
        let daemon = Daemon::bind(&sock, Arc::clone(&registry)).unwrap();
        let handle = daemon.handle();
        let server = std::thread::spawn(move || daemon.run());

        let remote = RemoteRegistry::connect(&sock).unwrap();
        assert_eq!(remote.programs(), 1);

        // get: served state is byte-identical to the in-process path.
        let via_socket = remote.get(1).unwrap().expect("snapshot on disk");
        let in_process = registry.get(1).unwrap().unwrap();
        assert_eq!(*via_socket, *in_process);
        assert!(remote.get(999).unwrap().is_none());

        // publish round-trips and refreshes the resident entry.
        remote.publish(1, &snapshot_of(6)).unwrap();
        assert_eq!(remote.get(1).unwrap().unwrap().len(), 2);

        // publish with mismatched geometry: named remote error, session
        // survives.
        let bad = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_4K).export();
        match remote.publish(1, &bad) {
            Err(ServeError::Proto(ProtoError::Remote { code, .. })) => {
                assert_eq!(code, crate::proto::ErrorCode::Merge);
            }
            other => panic!("expected a remote Merge error, got {other:?}"),
        }

        // stats and refresh still answer on the same session. The Get
        // requests above were served from the image cache, and those
        // counters travel the wire too.
        let stats = remote.stats().unwrap();
        assert!(stats.hits + stats.misses >= 3);
        assert!(
            stats.image_builds >= 1,
            "daemon Get skipped the image cache"
        );
        let outcome = remote.refresh().unwrap();
        assert_eq!(
            (outcome.new_files, outcome.refreshed, outcome.skipped),
            (0, 0, 0)
        );
        assert_eq!(outcome.unchanged, 1, "known file not stamp-skipped");

        drop(remote);
        handle.shutdown();
        server.join().unwrap().unwrap();
    }
}
