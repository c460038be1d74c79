#![warn(missing_docs)]
//! # tlr-serve — a sharded registry of warm RTMs
//!
//! The paper's Reuse Trace Memory is per-run state; `tlr-persist` made
//! it durable. This crate makes it **servable**: a long-lived process
//! hosting many programs' reuse state at once keeps a
//! [`SnapshotRegistry`] — an in-process cache mapping *program
//! fingerprint → one resident pooled [`tlr_core::RtmSnapshot`]* (shared
//! by `Arc`, always a merge's output), sharded across worker threads by
//! fingerprint so concurrent fetches for different programs do not
//! contend on one lock.
//!
//! Capabilities:
//!
//! * **get-or-warm-load** — [`SnapshotRegistry::get`] returns the
//!   resident reuse state for a fingerprint, loading (and pooling — see
//!   below) the snapshot files of that program from the registry's
//!   snapshot directory on first touch;
//! * **snapshot merging** — a directory may hold *several* runs'
//!   snapshots of the same program; the registry merges them on load
//!   ([`tlr_core::RtmSnapshot::merge`]), so a fleet of runs pools its
//!   reuse state instead of each run warming alone;
//! * **publish-back** — a finished run contributes its RTM export back
//!   via [`SnapshotRegistry::publish`], refreshing the resident entry
//!   in place for the next run of that program;
//! * **LRU bounding** — each shard keeps at most a configured number of
//!   resident programs, evicting the least recently fetched entry, so a
//!   registry serving thousands of programs stays within memory budget;
//! * **replacement policy** — [`RegistryConfig::policy`] selects the
//!   [`tlr_core::ReplacementPolicy`] every pooling merge (load-time and
//!   publish-back) resolves capacity contention under, ranking traces
//!   by their persisted provenance for the non-recency policies;
//! * **per-entry stats** — hits, misses, and refreshes per fingerprint
//!   ([`EntryStats`]), plus hit-weighted residency gauges
//!   ([`EntryStats::resident_hits`]: how much *observed* reuse the
//!   resident state represents) and registry-wide aggregates
//!   ([`RegistryStats`]);
//! * **zero-copy image serving** — [`SnapshotRegistry::get_image`]
//!   returns the serialized snapshot file image from a per-entry cache
//!   (`Arc<[u8]>` built once, invalidated whenever publish/refresh
//!   replaces the resident state), so the daemon's `Get` hot path and
//!   in-process byte fetches never re-serialize nor hold a shard lock
//!   through serialization; hit/build/invalidation counters ride in
//!   [`EntryStats`] and [`RegistryStats`];
//! * **incremental spills** — [`SnapshotRegistry::spill`] persists a
//!   resident entry as an append-only **delta segment** next to its
//!   base file (only PC groups that changed since the last spill, plus
//!   tombstones, numbered after the highest delta the index holds),
//!   then folds base + deltas into a fresh base once
//!   [`RegistryConfig::compact_threshold`] deltas accumulate;
//!   [`SnapshotRegistry::compact`] runs the same fold on demand (it is
//!   all `tlrsim compact` does), and because a fold covers only state
//!   already on disk, a crash at any point of it loads as the old state
//!   or the new one. A publish for a program that is not resident loads
//!   its files first, so it never hides or overwrites them;
//! * **background refresh** — [`SnapshotRegistry::refresh`] rescans the
//!   snapshot directory for files that appeared (or changed) after
//!   `open`, indexing them and folding them into resident entries,
//!   skipping files whose (mtime, length) stamp is unchanged since the
//!   last scan; [`RefreshTicker`] runs that on an interval in the
//!   background;
//! * **cross-process serving** — the [`daemon`] module is `tlrd`: a
//!   blocking, thread-per-connection server exposing the registry over
//!   a Unix-domain socket with the framed, checksummed, versioned
//!   [`proto`] protocol (`Hello`/`Get`/`Publish`/`Stats`/`Refresh`),
//!   and [`RemoteRegistry`] is the client that mirrors the in-process
//!   API, so `TraceReuseEngine::new_warm` warm-starts from a daemon
//!   exactly as it would from a local snapshot directory. The wire
//!   format is documented normatively in `docs/PROTOCOL.md`.
//!
//! The `tlrsim serve --snapshots DIR` subcommand drives a registry over
//! every built-in workload in parallel, or hosts it as a daemon with
//! `--listen SOCK`; `tlrsim run --remote SOCK` is the client side;
//! `reproduce fleet` measures the solo-warm vs merged-warm reuse gap
//! the pooling buys, and `reproduce daemon` checks that N concurrent
//! client processes warm-started from one daemon finish with
//! architectural-state digests identical to the in-process path.

pub mod daemon;
pub mod proto;
pub mod registry;
pub mod remote;

pub use daemon::{Daemon, DaemonHandle, RefreshTicker};
pub use proto::{ErrorCode, ProtoError, PROTOCOL_VERSION};
pub use registry::{
    EntryStats, RefreshOutcome, RegistryConfig, RegistryStats, ServeError, SnapshotRegistry,
    SpillKind, SpillOutcome, SNAPSHOT_FILE_EXT,
};
pub use remote::RemoteRegistry;
