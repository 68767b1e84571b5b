//! The fleet client: warm-booting a tenant *process* from a long-lived
//! derivation daemon (`hb-fleetd`) over a Unix-domain socket.
//!
//! PR 2 shares derivations between tenants of one process; PR 4 carries
//! them across processes as a file-at-boot snapshot. This module closes
//! ROADMAP item 1's remaining gap: a fleet of N app-server processes
//! warm-boots from — and continuously feeds — one daemon-owned
//! [`SharedCache`] tier, over the versioned, length-prefixed `HBFLEET1`
//! protocol (see `docs/HBFLEET1.md`). The payloads reuse the `HBSNAP02`
//! snapshot encoding ([`crate::snapshot`]) wholesale: a fetch response
//! *is* a snapshot, restricted to the entries past the client's
//! watermark when the daemon can prove the delta.
//!
//! # Soundness
//!
//! The daemon is never trusted. Every fetched derivation lands in the
//! tenant's shared tier as a *candidate* and passes the existing
//! adoption funnel — the O(1) epoch fast path or per-witness replay
//! ([`crate::engine`]) — before anything skips a check. A divergent,
//! stale, or actively wrong daemon therefore costs latency (the tenant
//! re-checks locally), never soundness. Connection or protocol failures
//! degrade the same way: the session detaches and the tenant falls back
//! to purely local checking.
//!
//! # Watermarks and deltas
//!
//! Fetch responses carry an opaque watermark — the daemon's publication
//! sequence number plus the `(table, hierarchy, var)` epoch-fingerprint
//! triple of its current world. A delta fetch echoes the watermark back;
//! the daemon serves only entries published after it (plus tombstones
//! for evicted families) when the watermark is genuine and recent enough
//! to enumerate, and silently widens to a full snapshot otherwise. The
//! client treats both shapes identically, so a restarted or compacted
//! daemon is indistinguishable from a slow one.

use crate::engine::Engine;
use crate::shared_cache::{CacheEventHook, SharedCache};
use crate::snapshot::{CacheSnapshot, SnapshotError};
use hb_interp::Interp;
use hb_rdl::MethodKey;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The `HBFLEET1` framing layer, shared verbatim by the client (here)
/// and the daemon (`hb-fleetd`): an 8-byte magic handshake in each
/// direction, then length-prefixed frames `u32 LE len | u8 opcode |
/// payload` where `len` counts the opcode byte plus the payload.
/// Method keys travel as strings (symbols are process-local) and are
/// re-interned on receipt.
pub mod wire {
    use super::FleetError;
    use hb_intern::Sym;
    use hb_rdl::MethodKey;
    use std::io::{Read, Write};

    /// Protocol magic, exchanged by both sides immediately after
    /// connect. A mismatch is [`FleetError::BadHandshake`].
    pub const MAGIC: &[u8; 8] = b"HBFLEET1";

    /// Upper bound on a frame's declared length (opcode + payload).
    /// Anything larger is [`FleetError::FrameTooLarge`] — a corrupt or
    /// hostile length prefix must not turn into an allocation.
    pub const MAX_FRAME: u32 = 64 << 20;

    // ----- request opcodes ---------------------------------------------------

    /// Full snapshot fetch. Empty payload; answered with
    /// [`RESP_SNAPSHOT`].
    pub const FETCH_FULL: u8 = 0x01;
    /// Delta fetch: payload is a watermark (`u64` seq + three `u64`
    /// epoch fingerprints). Answered with [`RESP_SNAPSHOT`] — a delta
    /// when the daemon can prove one, a full snapshot otherwise.
    pub const FETCH_DELTA: u8 = 0x02;
    /// Publish-back: payload is three `u64` epoch fingerprints (the
    /// publisher's current world) followed by `HBSNAP02` snapshot bytes
    /// of the locally derived entries. Answered with [`RESP_ACK`]
    /// carrying the count of genuinely new entries.
    pub const PUBLISH: u8 = 0x03;
    /// Eviction notice: payload is a `u32` count of method keys. The
    /// daemon drops each family plus its dependents, tombstoning every
    /// removal. Answered with [`RESP_ACK`] carrying the dropped count.
    pub const EVICT: u8 = 0x04;
    /// Daemon statistics. Empty payload; answered with [`RESP_STATS`].
    pub const STATS: u8 = 0x05;
    /// Liveness probe. Empty payload; answered with [`RESP_ACK`].
    pub const PING: u8 = 0x06;
    /// Orderly shutdown (test and CI harness use). Answered with
    /// [`RESP_ACK`] before the daemon exits its accept loop.
    pub const SHUTDOWN: u8 = 0x07;
    /// Extended daemon metrics. Empty payload; answered with
    /// [`RESP_STATS_V2`] carrying the daemon's full metrics registry
    /// (request counters and latency histograms) rendered in the
    /// Prometheus text exposition format. Unlike the fixed-layout
    /// [`STATS`], the payload is self-describing, so the daemon can add
    /// series without a protocol revision; a pre-`STATS_V2` daemon
    /// answers [`RESP_ERR`], which clients surface as
    /// [`FleetError::Daemon`] and treat as "not supported".
    pub const STATS_V2: u8 = 0x08;

    // ----- response opcodes --------------------------------------------------

    /// Snapshot response (see [`SnapshotResp`]).
    pub const RESP_SNAPSHOT: u8 = 0x81;
    /// Acknowledgement carrying one `u64` value.
    pub const RESP_ACK: u8 = 0x82;
    /// Daemon statistics (see [`DaemonStats`]).
    pub const RESP_STATS: u8 = 0x83;
    /// Extended daemon metrics: the payload is UTF-8 Prometheus text.
    pub const RESP_STATS_V2: u8 = 0x84;
    /// Typed daemon-side failure: payload is a UTF-8 message. The
    /// connection stays usable.
    pub const RESP_ERR: u8 = 0x7F;

    /// Writes one frame.
    pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> std::io::Result<()> {
        let len = (payload.len() + 1) as u32;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&[opcode])?;
        w.write_all(payload)?;
        w.flush()
    }

    /// Reads one frame, enforcing [`MAX_FRAME`].
    pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), FleetError> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len).map_err(FleetError::Io)?;
        let len = u32::from_le_bytes(len);
        if len == 0 {
            return Err(FleetError::BadFrame("zero-length frame"));
        }
        if len > MAX_FRAME {
            return Err(FleetError::FrameTooLarge(len));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body).map_err(FleetError::Io)?;
        let opcode = body[0];
        body.drain(..1);
        Ok((opcode, body))
    }

    // ----- payload encoding --------------------------------------------------

    /// Appends a `u32` (little-endian).
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a method key as strings (`u8` class-level flag, then
    /// length-prefixed class and method names).
    pub fn put_key(out: &mut Vec<u8>, key: &MethodKey) {
        out.push(u8::from(key.class_level));
        let class = key.class.as_str();
        put_u32(out, class.len() as u32);
        out.extend_from_slice(class.as_bytes());
        let method = key.method.as_str();
        put_u32(out, method.len() as u32);
        out.extend_from_slice(method.as_bytes());
    }

    /// Bounds-checked reader over a frame payload. Every overrun is the
    /// typed [`FleetError::BadFrame`], never a panic or a misparse.
    pub struct PayloadCursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> PayloadCursor<'a> {
        /// A cursor over `buf`.
        pub fn new(buf: &'a [u8]) -> PayloadCursor<'a> {
            PayloadCursor { buf, pos: 0 }
        }

        /// Bytes remaining past the cursor.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Takes `n` raw bytes.
        pub fn take(&mut self, n: usize) -> Result<&'a [u8], FleetError> {
            let end = self
                .pos
                .checked_add(n)
                .ok_or(FleetError::BadFrame("length overflow"))?;
            let s = self
                .buf
                .get(self.pos..end)
                .ok_or(FleetError::BadFrame("payload truncated"))?;
            self.pos = end;
            Ok(s)
        }

        /// Reads one byte.
        pub fn u8(&mut self) -> Result<u8, FleetError> {
            Ok(self.take(1)?[0])
        }

        /// Reads a `u32` (little-endian).
        pub fn u32(&mut self) -> Result<u32, FleetError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }

        /// Reads a `u64` (little-endian).
        pub fn u64(&mut self) -> Result<u64, FleetError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn string(&mut self) -> Result<&'a str, FleetError> {
            let len = self.u32()? as usize;
            std::str::from_utf8(self.take(len)?)
                .map_err(|_| FleetError::BadFrame("string is not UTF-8"))
        }

        /// Reads a method key ([`put_key`]'s inverse), interning its
        /// symbols into this process.
        pub fn key(&mut self) -> Result<MethodKey, FleetError> {
            let class_level = self.u8()? != 0;
            let class = Sym::intern(self.string()?);
            let method = Sym::intern(self.string()?);
            Ok(MethodKey {
                class,
                class_level,
                method,
            })
        }
    }

    /// A decoded [`RESP_SNAPSHOT`] payload: the new watermark, the
    /// tombstoned families, and the (possibly delta-restricted)
    /// `HBSNAP02` snapshot bytes.
    #[derive(Debug, Clone)]
    pub struct SnapshotResp {
        /// True when the snapshot holds only entries past the client's
        /// watermark; false when the daemon served the full tier.
        pub delta: bool,
        /// The daemon's publication sequence number — the `seq` half of
        /// the next watermark.
        pub seq: u64,
        /// The daemon's current world epoch triple — the other half.
        pub epochs: (u64, u64, u64),
        /// Families evicted since the watermark (delta only; a full
        /// snapshot carries none — the client replaces wholesale).
        pub tombstones: Vec<MethodKey>,
        /// `HBSNAP02` bytes ([`crate::CacheSnapshot::from_bytes`]).
        pub snapshot: Vec<u8>,
    }

    /// Encodes a [`SnapshotResp`] payload.
    pub fn encode_snapshot_resp(resp: &SnapshotResp) -> Vec<u8> {
        let mut out = Vec::with_capacity(resp.snapshot.len() + 64);
        out.push(u8::from(resp.delta));
        put_u64(&mut out, resp.seq);
        put_u64(&mut out, resp.epochs.0);
        put_u64(&mut out, resp.epochs.1);
        put_u64(&mut out, resp.epochs.2);
        put_u32(&mut out, resp.tombstones.len() as u32);
        for key in &resp.tombstones {
            put_key(&mut out, key);
        }
        put_u32(&mut out, resp.snapshot.len() as u32);
        out.extend_from_slice(&resp.snapshot);
        out
    }

    /// Decodes a [`RESP_SNAPSHOT`] payload.
    pub fn decode_snapshot_resp(payload: &[u8]) -> Result<SnapshotResp, FleetError> {
        let mut c = PayloadCursor::new(payload);
        let delta = c.u8()? != 0;
        let seq = c.u64()?;
        let epochs = (c.u64()?, c.u64()?, c.u64()?);
        let ntombs = c.u32()? as usize;
        let mut tombstones = Vec::with_capacity(ntombs.min(1 << 16));
        for _ in 0..ntombs {
            tombstones.push(c.key()?);
        }
        let snap_len = c.u32()? as usize;
        let snapshot = c.take(snap_len)?.to_vec();
        if c.remaining() != 0 {
            return Err(FleetError::BadFrame("trailing bytes after snapshot"));
        }
        Ok(SnapshotResp {
            delta,
            seq,
            epochs,
            tombstones,
            snapshot,
        })
    }

    /// Daemon-side counters carried by [`RESP_STATS`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DaemonStats {
        /// Live derivations in the daemon's tier.
        pub entries: u64,
        /// Current publication sequence number.
        pub seq: u64,
        /// Full snapshot fetches served.
        pub fetches: u64,
        /// Delta fetches served (not widened to full).
        pub deltas: u64,
        /// Genuinely new entries accepted from publish-backs.
        pub publishes: u64,
        /// Families dropped by eviction notices (dependents included).
        pub evictions: u64,
        /// Families dropped by the LRU compaction pass.
        pub compactions: u64,
        /// Background snapshot writebacks completed.
        pub writebacks: u64,
    }

    /// Encodes a [`RESP_STATS`] payload.
    pub fn encode_stats(s: &DaemonStats) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        for v in [
            s.entries,
            s.seq,
            s.fetches,
            s.deltas,
            s.publishes,
            s.evictions,
            s.compactions,
            s.writebacks,
        ] {
            put_u64(&mut out, v);
        }
        out
    }

    /// Decodes a [`RESP_STATS`] payload.
    pub fn decode_stats(payload: &[u8]) -> Result<DaemonStats, FleetError> {
        let mut c = PayloadCursor::new(payload);
        let s = DaemonStats {
            entries: c.u64()?,
            seq: c.u64()?,
            fetches: c.u64()?,
            deltas: c.u64()?,
            publishes: c.u64()?,
            evictions: c.u64()?,
            compactions: c.u64()?,
            writebacks: c.u64()?,
        };
        if c.remaining() != 0 {
            return Err(FleetError::BadFrame("trailing bytes after stats"));
        }
        Ok(s)
    }
}

/// Why a fleet operation failed. Every failure is typed and every
/// failure is survivable: the tenant detaches from the daemon and
/// degrades to local checking — a fleet error never poisons the live
/// tier or the engine.
#[derive(Debug)]
pub enum FleetError {
    /// Socket-level failure (connect, read, write, unexpected EOF).
    Io(std::io::Error),
    /// The peer did not present the `HBFLEET1` magic.
    BadHandshake,
    /// A structurally malformed frame payload (truncated field, bad
    /// UTF-8, trailing bytes). The static message names the defect.
    BadFrame(&'static str),
    /// A frame declared a length above [`wire::MAX_FRAME`].
    FrameTooLarge(u32),
    /// The daemon answered with a typed error ([`wire::RESP_ERR`]).
    Daemon(String),
    /// The response payload embedded a snapshot that failed to parse or
    /// load ([`SnapshotError`]).
    Snapshot(SnapshotError),
    /// The peer answered with an opcode the request cannot accept.
    UnexpectedOpcode(u8),
    /// The session was detached by an earlier error (rendered here);
    /// the tenant is running on purely local checking.
    Detached(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet socket error: {e}"),
            FleetError::BadHandshake => write!(f, "peer is not an HBFLEET1 endpoint"),
            FleetError::BadFrame(what) => write!(f, "malformed HBFLEET1 frame: {what}"),
            FleetError::FrameTooLarge(len) => {
                write!(f, "HBFLEET1 frame of {len} bytes exceeds the 64 MiB bound")
            }
            FleetError::Daemon(msg) => write!(f, "fleet daemon refused: {msg}"),
            FleetError::Snapshot(e) => write!(f, "fleet response snapshot: {e}"),
            FleetError::UnexpectedOpcode(op) => {
                write!(f, "unexpected HBFLEET1 response opcode {op:#04x}")
            }
            FleetError::Detached(why) => {
                write!(f, "fleet session detached (local checking only): {why}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            FleetError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

/// The client's position in the daemon's publication stream: the
/// sequence number and world epoch triple the daemon reported on the
/// last fetch, echoed back verbatim on the next delta fetch. Opaque by
/// design — only the daemon interprets it, and an unrecognizable
/// watermark simply widens the response to a full snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetWatermark {
    /// The daemon's publication sequence number at fetch time.
    pub seq: u64,
    /// The daemon's world epoch triple at fetch time.
    pub epochs: (u64, u64, u64),
}

/// A connected `HBFLEET1` client: one framed request/response exchange
/// at a time over a Unix-domain socket. [`FleetSession`] drives it for
/// an embedded tenant; probes and tests use it directly.
pub struct FleetClient {
    stream: UnixStream,
}

impl FleetClient {
    /// Connects and performs the magic handshake.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] on socket failure, [`FleetError::BadHandshake`]
    /// when the peer is not an `HBFLEET1` endpoint.
    pub fn connect(path: &Path) -> Result<FleetClient, FleetError> {
        let mut stream = UnixStream::connect(path)?;
        stream.write_all(wire::MAGIC)?;
        stream.flush()?;
        let mut echo = [0u8; 8];
        stream.read_exact(&mut echo)?;
        if &echo != wire::MAGIC {
            return Err(FleetError::BadHandshake);
        }
        Ok(FleetClient { stream })
    }

    /// One request/response exchange; [`wire::RESP_ERR`] becomes
    /// [`FleetError::Daemon`].
    fn call(&mut self, opcode: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), FleetError> {
        wire::write_frame(&mut self.stream, opcode, payload)?;
        let (op, body) = wire::read_frame(&mut self.stream)?;
        if op == wire::RESP_ERR {
            return Err(FleetError::Daemon(
                String::from_utf8_lossy(&body).into_owned(),
            ));
        }
        Ok((op, body))
    }

    fn expect_snapshot(
        &mut self,
        opcode: u8,
        payload: &[u8],
    ) -> Result<wire::SnapshotResp, FleetError> {
        let (op, body) = self.call(opcode, payload)?;
        if op != wire::RESP_SNAPSHOT {
            return Err(FleetError::UnexpectedOpcode(op));
        }
        wire::decode_snapshot_resp(&body)
    }

    fn expect_ack(&mut self, opcode: u8, payload: &[u8]) -> Result<u64, FleetError> {
        let (op, body) = self.call(opcode, payload)?;
        if op != wire::RESP_ACK {
            return Err(FleetError::UnexpectedOpcode(op));
        }
        let mut c = wire::PayloadCursor::new(&body);
        let v = c.u64()?;
        if c.remaining() != 0 {
            return Err(FleetError::BadFrame("trailing bytes after ack"));
        }
        Ok(v)
    }

    /// Fetches the daemon's full tier.
    pub fn fetch_full(&mut self) -> Result<wire::SnapshotResp, FleetError> {
        self.expect_snapshot(wire::FETCH_FULL, &[])
    }

    /// Fetches entries past `watermark` (the daemon may widen to a full
    /// snapshot; check [`wire::SnapshotResp::delta`]).
    pub fn fetch_delta(
        &mut self,
        watermark: FleetWatermark,
    ) -> Result<wire::SnapshotResp, FleetError> {
        let mut payload = Vec::with_capacity(32);
        wire::put_u64(&mut payload, watermark.seq);
        wire::put_u64(&mut payload, watermark.epochs.0);
        wire::put_u64(&mut payload, watermark.epochs.1);
        wire::put_u64(&mut payload, watermark.epochs.2);
        self.expect_snapshot(wire::FETCH_DELTA, &payload)
    }

    /// Publishes locally derived entries (as `HBSNAP02` bytes) stamped
    /// with the publisher's current epoch triple. Returns the count of
    /// entries the daemon had not seen before.
    pub fn publish(
        &mut self,
        epochs: (u64, u64, u64),
        snapshot_bytes: &[u8],
    ) -> Result<u64, FleetError> {
        let mut payload = Vec::with_capacity(snapshot_bytes.len() + 24);
        wire::put_u64(&mut payload, epochs.0);
        wire::put_u64(&mut payload, epochs.1);
        wire::put_u64(&mut payload, epochs.2);
        payload.extend_from_slice(snapshot_bytes);
        self.expect_ack(wire::PUBLISH, &payload)
    }

    /// Sends eviction notices for `keys`. Returns the number of
    /// families the daemon dropped (dependents included).
    pub fn evict(&mut self, keys: &[MethodKey]) -> Result<u64, FleetError> {
        let mut payload = Vec::with_capacity(keys.len() * 24 + 4);
        wire::put_u32(&mut payload, keys.len() as u32);
        for key in keys {
            wire::put_key(&mut payload, key);
        }
        self.expect_ack(wire::EVICT, &payload)
    }

    /// Fetches the daemon's counters.
    pub fn daemon_stats(&mut self) -> Result<wire::DaemonStats, FleetError> {
        let (op, body) = self.call(wire::STATS, &[])?;
        if op != wire::RESP_STATS {
            return Err(FleetError::UnexpectedOpcode(op));
        }
        wire::decode_stats(&body)
    }

    /// Fetches the daemon's extended metrics (request counters and
    /// latency histograms) as Prometheus text — the `STATS_V2` exchange.
    /// A daemon predating the opcode answers [`wire::RESP_ERR`], which
    /// surfaces here as [`FleetError::Daemon`]; callers degrade to
    /// [`daemon_stats`](FleetClient::daemon_stats).
    pub fn daemon_stats_v2(&mut self) -> Result<String, FleetError> {
        let (op, body) = self.call(wire::STATS_V2, &[])?;
        if op != wire::RESP_STATS_V2 {
            return Err(FleetError::UnexpectedOpcode(op));
        }
        String::from_utf8(body).map_err(|_| FleetError::BadFrame("stats text is not UTF-8"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), FleetError> {
        self.expect_ack(wire::PING, &[]).map(|_| ())
    }

    /// Asks the daemon to exit its accept loop (test/CI harness use).
    pub fn shutdown(&mut self) -> Result<(), FleetError> {
        self.expect_ack(wire::SHUTDOWN, &[]).map(|_| ())
    }
}

/// The tier-mutation observer a fleet-attached tenant registers on its
/// [`SharedCache`]: inserts become pending publications, family
/// evictions become pending eviction notices, both drained by the next
/// [`FleetSession::sync`]. The `suppress` latch masks the echo while
/// the session itself applies daemon-fetched entries — without it every
/// fetch would immediately republish.
#[derive(Default)]
pub(crate) struct FleetTracker {
    pending_pubs: Mutex<HashSet<MethodKey>>,
    pending_evicts: Mutex<HashSet<MethodKey>>,
    suppress: AtomicBool,
}

impl FleetTracker {
    fn take_pubs(&self) -> HashSet<MethodKey> {
        std::mem::take(&mut self.pending_pubs.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn take_evicts(&self) -> Vec<MethodKey> {
        let mut set = self
            .pending_evicts
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut keys: Vec<MethodKey> = std::mem::take(&mut *set).into_iter().collect();
        keys.sort();
        keys
    }

    fn restore_pubs(&self, keys: HashSet<MethodKey>) {
        self.pending_pubs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(keys);
    }

    fn restore_evicts(&self, keys: &[MethodKey]) {
        self.pending_evicts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(keys.iter().copied());
    }

    /// Masks tracking until the guard drops (daemon-fetch application).
    fn suppressed(self: &Arc<Self>) -> SuppressGuard {
        self.suppress.store(true, Ordering::Release);
        SuppressGuard {
            tracker: self.clone(),
        }
    }
}

struct SuppressGuard {
    tracker: Arc<FleetTracker>,
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        self.tracker.suppress.store(false, Ordering::Release);
    }
}

impl CacheEventHook for FleetTracker {
    fn on_insert(&self, key: &MethodKey) {
        if self.suppress.load(Ordering::Acquire) {
            return;
        }
        self.pending_pubs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(*key);
    }

    fn on_evict(&self, key: &MethodKey) {
        if self.suppress.load(Ordering::Acquire) {
            return;
        }
        self.pending_evicts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(*key);
    }
}

/// What one fleet sync round ([`crate::Hummingbird::fleet_sync`]) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSyncReport {
    /// Locally derived entries published back to the daemon.
    pub published: usize,
    /// Eviction notices sent (families this tenant's type-table
    /// mutations retired).
    pub evict_notices: usize,
    /// Entries in the fetched snapshot (zero when the fleet is quiet —
    /// the steady-state delta).
    pub fetched_entries: usize,
    /// Tombstoned families applied from the fetch.
    pub tombstones: usize,
    /// True when the fetch was served as a delta (false: full snapshot,
    /// including the watermark-invalid fallback).
    pub delta: bool,
}

/// A tenant's live attachment to the fleet daemon: the connected
/// client, the mutation tracker, and the current watermark. Created by
/// `HummingbirdBuilder::fleet_socket`, driven by
/// `Hummingbird::fleet_sync`.
pub struct FleetSession {
    client: FleetClient,
    tracker: Arc<FleetTracker>,
    shared: Arc<SharedCache>,
    watermark: Option<FleetWatermark>,
}

impl FleetSession {
    /// Connects to the daemon at `path`, registers the mutation tracker
    /// on `shared`, and warm-boots the tier with a full snapshot fetch.
    /// Returns the session and the number of candidate derivations
    /// loaded.
    ///
    /// # Errors
    ///
    /// Any [`FleetError`]; on `Err` the tier holds whatever the fetch
    /// managed to validate (snapshot loads are all-or-nothing, so in
    /// practice: nothing) and the caller degrades to local checking.
    pub(crate) fn attach(
        path: &Path,
        shared: Arc<SharedCache>,
    ) -> Result<(FleetSession, usize), FleetError> {
        let mut client = FleetClient::connect(path)?;
        let tracker = Arc::new(FleetTracker::default());
        shared.add_event_hook(tracker.clone());
        let resp = client.fetch_full()?;
        let snap = CacheSnapshot::from_bytes(&resp.snapshot).map_err(FleetError::Snapshot)?;
        let loaded = {
            let _mask = tracker.suppressed();
            shared.load_snapshot(&snap).map_err(FleetError::Snapshot)?
        };
        Ok((
            FleetSession {
                client,
                tracker,
                shared,
                watermark: Some(FleetWatermark {
                    seq: resp.seq,
                    epochs: resp.epochs,
                }),
            },
            loaded,
        ))
    }

    /// The watermark of the last successful fetch.
    pub fn watermark(&self) -> Option<FleetWatermark> {
        self.watermark
    }

    /// One synchronization round: drain pending eviction notices and
    /// publications to the daemon, then fetch the delta past the
    /// current watermark and apply it (tombstones evicted, entries
    /// loaded as candidates, covered local derivations retired so the
    /// next dispatch re-validates). Failed sends restore their pending
    /// state, so a transient error loses nothing.
    pub(crate) fn sync(
        &mut self,
        engine: &Engine,
        interp: &mut Interp,
    ) -> Result<FleetSyncReport, FleetError> {
        // Land queued scheduler results and type-table events first so
        // the tracker has seen every local mutation up to "now".
        engine.process_events(interp);

        let obs = engine.obs();
        let mut report = FleetSyncReport::default();

        let evicts = self.tracker.take_evicts();
        if !evicts.is_empty() {
            if let Err(e) = self.client.evict(&evicts) {
                self.tracker.restore_evicts(&evicts);
                return Err(e);
            }
            report.evict_notices = evicts.len();
            if let Some(obs) = &obs {
                obs.record(hb_obs::EventKind::FleetEvict, crate::obs::fleet_key());
            }
        }

        let pubs = self.tracker.take_pubs();
        if !pubs.is_empty() {
            let snap = self.shared.snapshot_filtered(|k| pubs.contains(k));
            // Keys whose families were since evicted serialize nothing;
            // only a non-empty snapshot is worth a frame.
            if snap.entry_count() > 0 {
                let epochs = crate::sched::world_epochs(interp, &engine.rdl);
                let t_pub = std::time::Instant::now();
                if let Err(e) = self.client.publish(epochs, &snap.to_bytes()) {
                    self.tracker.restore_pubs(pubs);
                    return Err(e);
                }
                if let Some(obs) = &obs {
                    let ns = t_pub.elapsed().as_nanos() as u64;
                    obs.fleet_publish.record(ns);
                    obs.record_span(hb_obs::EventKind::FleetPublish, crate::obs::fleet_key(), ns);
                }
                report.published = snap.entry_count();
            }
        }

        let t_fetch = std::time::Instant::now();
        let resp = match self.watermark {
            Some(w) => self.client.fetch_delta(w)?,
            None => self.client.fetch_full()?,
        };
        if let Some(obs) = &obs {
            let ns = t_fetch.elapsed().as_nanos() as u64;
            obs.fleet_fetch.record(ns);
            let kind = if resp.delta {
                hb_obs::EventKind::FleetDelta
            } else {
                hb_obs::EventKind::FleetFetch
            };
            obs.record_span(kind, crate::obs::fleet_key(), ns);
        }
        let snap = CacheSnapshot::from_bytes(&resp.snapshot).map_err(FleetError::Snapshot)?;
        report.fetched_entries = snap.entry_count();
        report.tombstones = resp.tombstones.len();
        report.delta = resp.delta;
        {
            // Applying the daemon's view must not echo back as pending
            // publications/evictions next round.
            let _mask = self.tracker.suppressed();
            for key in &resp.tombstones {
                self.shared.evict_method(key);
            }
            if report.fetched_entries > 0 {
                // Loads into the shared tier and retires covered local
                // derivations (fast entries deoptimized) so the next
                // dispatch re-validates against the fresh entries.
                engine.load_snapshot(&snap).map_err(FleetError::Snapshot)?;
            }
        }
        // Tombstoned families must re-validate locally too.
        engine.retire_methods(&resp.tombstones);
        self.watermark = Some(FleetWatermark {
            seq: resp.seq,
            epochs: resp.epochs,
        });
        let (fetches, deltas) = if resp.delta { (0, 1) } else { (1, 0) };
        engine.add_fleet_counters(
            fetches,
            deltas,
            report.published as u64,
            report.evict_notices as u64,
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(c: &str, m: &str) -> MethodKey {
        MethodKey::instance(c, m)
    }

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        wire::write_frame(&mut buf, wire::PUBLISH, b"payload").unwrap();
        let (op, body) = wire::read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(op, wire::PUBLISH);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn read_frame_rejects_zero_and_oversized_lengths() {
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            wire::read_frame(&mut zero.as_slice()),
            Err(FleetError::BadFrame(_))
        ));
        let huge = (wire::MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            wire::read_frame(&mut huge.as_slice()),
            Err(FleetError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn snapshot_resp_round_trips_with_string_keys() {
        let resp = wire::SnapshotResp {
            delta: true,
            seq: 42,
            epochs: (1, 2, 3),
            tombstones: vec![k("Talk", "owner?"), MethodKey::class_level("Talk", "find")],
            snapshot: vec![9, 9, 9],
        };
        let payload = wire::encode_snapshot_resp(&resp);
        let back = wire::decode_snapshot_resp(&payload).unwrap();
        assert_eq!(back.delta, resp.delta);
        assert_eq!(back.seq, resp.seq);
        assert_eq!(back.epochs, resp.epochs);
        assert_eq!(back.tombstones, resp.tombstones);
        assert_eq!(back.snapshot, resp.snapshot);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let resp = wire::SnapshotResp {
            delta: false,
            seq: 7,
            epochs: (0, 0, 0),
            tombstones: vec![k("Talk", "title")],
            snapshot: vec![1, 2, 3, 4],
        };
        let payload = wire::encode_snapshot_resp(&resp);
        for cut in 1..payload.len() {
            assert!(
                wire::decode_snapshot_resp(&payload[..cut]).is_err(),
                "truncation at {cut} must be a typed error"
            );
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(matches!(
            wire::decode_snapshot_resp(&long),
            Err(FleetError::BadFrame(_))
        ));
    }

    #[test]
    fn stats_round_trip() {
        let s = wire::DaemonStats {
            entries: 1,
            seq: 2,
            fetches: 3,
            deltas: 4,
            publishes: 5,
            evictions: 6,
            compactions: 7,
            writebacks: 8,
        };
        assert_eq!(wire::decode_stats(&wire::encode_stats(&s)).unwrap(), s);
    }

    #[test]
    fn tracker_records_and_suppresses() {
        let tracker = Arc::new(FleetTracker::default());
        tracker.on_insert(&k("Talk", "title"));
        tracker.on_evict(&k("Talk", "owner?"));
        {
            let _mask = tracker.suppressed();
            tracker.on_insert(&k("User", "name"));
            tracker.on_evict(&k("User", "name"));
        }
        tracker.on_insert(&k("Talk", "slug"));
        let pubs = tracker.take_pubs();
        assert!(pubs.contains(&k("Talk", "title")));
        assert!(pubs.contains(&k("Talk", "slug")));
        assert!(!pubs.contains(&k("User", "name")), "suppressed");
        assert_eq!(tracker.take_evicts(), vec![k("Talk", "owner?")]);
    }
}
