//! Serializable snapshots of the shared derivation tier — PR 2's
//! warm-start win, carried *across processes*.
//!
//! Within one process, the second tenant to boot adopts the first tenant's
//! derivations from the [`SharedCache`] and never runs the checker. A
//! rolling deploy starts *new processes*, though, and each one used to pay
//! the full first-call check storm again. A [`CacheSnapshot`] closes that
//! gap: `Hummingbird::snapshot()` serializes every shared derivation —
//! version keys, (TApp) resolution witnesses, signature fingerprints and
//! the epoch (table/hierarchy/variable-type) fingerprints — and
//! [`SharedCache::load_snapshot`] rebuilds the tier in a freshly booted
//! process, which then resolves its first calls by adoption straight from
//! disk.
//!
//! # Symbol portability
//!
//! [`hb_intern::Sym`] indices are assigned in process-local interning
//! order and are meaningless in any other process. A snapshot therefore
//! carries a *symbol dictionary* ([`hb_intern::SymDictWriter`]): every
//! serialized symbol is a dense dictionary id, and loading re-interns the
//! dictionary strings in the consuming process
//! ([`hb_intern::SymDictReader`]). Nothing else in a derivation is
//! index-based — fingerprints hash string contents via
//! [`hb_intern::fingerprint64`], whose unkeyed hasher is stable across
//! processes of the same build.
//!
//! # Soundness
//!
//! Loading a snapshot adds *candidate* derivations; nothing is trusted
//! until the normal adoption gate passes. A tenant that looks one up still
//! validates it exactly as it would a live publisher's entry: the O(1)
//! epoch fast path when the mutation-sequence fingerprints match, witness
//! replay against the tenant's own table otherwise. A snapshot taken from
//! a divergent (e.g. shadowing) world fails that validation and the tenant
//! re-checks — stale snapshots cost latency, never soundness. A snapshot
//! from a *different build* of the engine simply misses (its fingerprints
//! match nothing) for the same reason.
//!
//! # Wire format
//!
//! A version-tagged, length-prefixed little-endian binary layout (magic
//! `HBSNAP02`), hand-rolled like the rest of the workspace's
//! serialization; [`CacheSnapshot::from_bytes`] validates structure and
//! every dictionary reference before anything reaches the cache. The v2
//! format appends a trailing content checksum ([`hb_intern::fingerprint64`]
//! over everything before it), verified before any parsing, so a
//! bit-flipped artifact fails loudly with
//! [`SnapshotError::BadChecksum`] instead of desynchronizing the cursor
//! into garbage entries. The pre-checksum `HBSNAP01` layout is no longer
//! read: its bytes fail with [`SnapshotError::BadMagic`].

use crate::shared_cache::{SharedCache, SharedDep};
use hb_intern::{fingerprint64, MethodKey, SymDictReader, SymDictWriter};
use hb_rdl::Resolution;

/// Magic + format version (v2: trailing content checksum). Bump when the
/// layout changes; `from_bytes` rejects unknown versions instead of
/// misparsing them.
const MAGIC: &[u8; 8] = b"HBSNAP02";

/// A method key with its symbols replaced by dictionary ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnapKey {
    pub class: u32,
    pub class_level: bool,
    pub method: u32,
}

/// A [`SharedDep`] with its symbols replaced by dictionary ids.
#[derive(Debug, Clone)]
pub(crate) struct SnapDep {
    pub start: u32,
    pub skip_receiver: bool,
    pub class_level: bool,
    pub method: u32,
    pub target: Option<SnapKey>,
    pub sig_version: u64,
    pub sig_fingerprint: u64,
}

/// One serialized shared derivation.
#[derive(Debug, Clone)]
pub(crate) struct SnapEntry {
    pub key: SnapKey,
    pub method_entry_id: u64,
    pub sig_version: u64,
    pub body_fp: u64,
    pub own_sig_fp: u64,
    pub table_fp: u64,
    pub hier_fp: u64,
    pub var_fp: u64,
    pub deps: Vec<SnapDep>,
    pub cast_sites: Vec<(u32, u32, u32)>,
}

/// A serializable image of a [`SharedCache`]: the derivations plus the
/// symbol dictionary that makes them portable. Obtain one from
/// [`SharedCache::snapshot`] (or `Hummingbird::snapshot()`), persist it
/// with [`CacheSnapshot::to_bytes`], and rebuild a tier in another process
/// with [`CacheSnapshot::from_bytes`] + [`SharedCache::load_snapshot`].
#[derive(Debug, Clone, Default)]
pub struct CacheSnapshot {
    pub(crate) symbols: Vec<String>,
    pub(crate) entries: Vec<SnapEntry>,
}

/// Why a snapshot failed to parse or load. Malformed bytes are reported,
/// never partially applied past the point of detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `HBSNAP02` magic — wrong file
    /// or an incompatible format version.
    BadMagic,
    /// The buffer ended mid-structure.
    Truncated,
    /// The trailing content checksum did not match the body: the artifact
    /// was corrupted (bit flip, torn write) after it was written. Nothing
    /// past the magic was parsed.
    BadChecksum,
    /// A dictionary string was not valid UTF-8.
    BadUtf8,
    /// A symbol reference pointed outside the dictionary.
    BadSymbol(u32),
    /// [`crate::Hummingbird::load_snapshot`] was called on a system with
    /// no attached shared tier — there is nowhere for the entries to go.
    NoSharedTier,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a Hummingbird cache snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadChecksum => {
                write!(f, "snapshot content checksum mismatch (corrupted artifact)")
            }
            SnapshotError::BadUtf8 => write!(f, "snapshot symbol dictionary is not UTF-8"),
            SnapshotError::BadSymbol(id) => {
                write!(f, "snapshot references unknown symbol id {id}")
            }
            SnapshotError::NoSharedTier => {
                write!(f, "no shared cache attached to load the snapshot into")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ----- encoding --------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, k: &SnapKey) {
    put_u32(out, k.class);
    out.push(u8::from(k.class_level));
    put_u32(out, k.method);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        Ok(self.u8()? != 0)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn key(&mut self) -> Result<SnapKey, SnapshotError> {
        Ok(SnapKey {
            class: self.u32()?,
            class_level: self.bool()?,
            method: self.u32()?,
        })
    }
}

impl CacheSnapshot {
    /// Number of serialized derivations.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of dictionary symbols.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// The method keys this snapshot carries derivations for, interned
    /// into the live process. This is the coverage set a live-system load
    /// ([`crate::Hummingbird::load_snapshot`]) retires locally: every
    /// listed method re-validates against the fresh artifact on its next
    /// call instead of trusting a derivation the artifact may supersede.
    pub fn method_keys(&self) -> Result<Vec<MethodKey>, SnapshotError> {
        let dict = SymDictReader::new(self.symbols.iter().map(String::as_str));
        let sym = |id: u32| dict.sym(id).ok_or(SnapshotError::BadSymbol(id));
        let mut keys = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            keys.push(MethodKey {
                class: sym(e.key.class)?,
                class_level: e.key.class_level,
                method: sym(e.key.method)?,
            });
        }
        Ok(keys)
    }

    /// Every entry's `(method key, entry id, sig version, body
    /// fingerprint)` version tuple, interned into the live process — the
    /// identity a [`SharedCache::contains`] probe takes. The fleet daemon
    /// uses this to distinguish genuinely new publications from re-sends
    /// of derivations it already serves.
    pub fn entry_versions(&self) -> Result<Vec<(MethodKey, u64, u64, u64)>, SnapshotError> {
        let dict = SymDictReader::new(self.symbols.iter().map(String::as_str));
        let sym = |id: u32| dict.sym(id).ok_or(SnapshotError::BadSymbol(id));
        let mut out = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let key = MethodKey {
                class: sym(e.key.class)?,
                class_level: e.key.class_level,
                method: sym(e.key.method)?,
            };
            out.push((key, e.method_entry_id, e.sig_version, e.body_fp));
        }
        Ok(out)
    }

    /// Serializes to the `HBSNAP02` wire format (trailing content
    /// checksum included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, self.symbols.len() as u32);
        for s in &self.symbols {
            put_u32(&mut out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        put_u32(&mut out, self.entries.len() as u32);
        for e in &self.entries {
            put_key(&mut out, &e.key);
            for v in [
                e.method_entry_id,
                e.sig_version,
                e.body_fp,
                e.own_sig_fp,
                e.table_fp,
                e.hier_fp,
                e.var_fp,
            ] {
                put_u64(&mut out, v);
            }
            put_u32(&mut out, e.deps.len() as u32);
            for d in &e.deps {
                put_u32(&mut out, d.start);
                out.push(u8::from(d.skip_receiver));
                out.push(u8::from(d.class_level));
                put_u32(&mut out, d.method);
                match &d.target {
                    Some(t) => {
                        out.push(1);
                        put_key(&mut out, t);
                    }
                    None => out.push(0),
                }
                put_u64(&mut out, d.sig_version);
                put_u64(&mut out, d.sig_fingerprint);
            }
            put_u32(&mut out, e.cast_sites.len() as u32);
            for (f, lo, hi) in &e.cast_sites {
                put_u32(&mut out, *f);
                put_u32(&mut out, *lo);
                put_u32(&mut out, *hi);
            }
        }
        // Trailing content checksum over everything before it (magic
        // included): bit flips and torn writes fail loudly at parse time
        // instead of desynchronizing the cursor into garbage entries.
        let sum = fingerprint64(&out[..]);
        put_u64(&mut out, sum);
        out
    }

    /// Parses the `HBSNAP02` wire format, verifying the checksum before
    /// any structure is read.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on bad magic, checksum mismatch, truncation, or
    /// invalid UTF-8 in the symbol dictionary. (Dangling symbol references
    /// surface later, from [`SharedCache::load_snapshot`].)
    pub fn from_bytes(bytes: &[u8]) -> Result<CacheSnapshot, SnapshotError> {
        let magic = bytes.get(..MAGIC.len()).ok_or(SnapshotError::Truncated)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        // Split off and verify the trailing checksum first.
        if bytes.len() < MAGIC.len() + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().unwrap());
        if fingerprint64(body) != expected {
            return Err(SnapshotError::BadChecksum);
        }
        let mut c = Cursor {
            buf: body,
            pos: MAGIC.len(),
        };
        let nsyms = c.u32()? as usize;
        let mut symbols = Vec::with_capacity(nsyms.min(1 << 16));
        for _ in 0..nsyms {
            let len = c.u32()? as usize;
            let s = std::str::from_utf8(c.take(len)?).map_err(|_| SnapshotError::BadUtf8)?;
            symbols.push(s.to_string());
        }
        let nentries = c.u32()? as usize;
        let mut entries = Vec::with_capacity(nentries.min(1 << 16));
        for _ in 0..nentries {
            let key = c.key()?;
            let method_entry_id = c.u64()?;
            let sig_version = c.u64()?;
            let body_fp = c.u64()?;
            let own_sig_fp = c.u64()?;
            let table_fp = c.u64()?;
            let hier_fp = c.u64()?;
            let var_fp = c.u64()?;
            let ndeps = c.u32()? as usize;
            let mut deps = Vec::with_capacity(ndeps.min(1 << 12));
            for _ in 0..ndeps {
                let start = c.u32()?;
                let skip_receiver = c.bool()?;
                let class_level = c.bool()?;
                let method = c.u32()?;
                let target = if c.bool()? { Some(c.key()?) } else { None };
                deps.push(SnapDep {
                    start,
                    skip_receiver,
                    class_level,
                    method,
                    target,
                    sig_version: c.u64()?,
                    sig_fingerprint: c.u64()?,
                });
            }
            let ncasts = c.u32()? as usize;
            let mut cast_sites = Vec::with_capacity(ncasts.min(1 << 12));
            for _ in 0..ncasts {
                cast_sites.push((c.u32()?, c.u32()?, c.u32()?));
            }
            entries.push(SnapEntry {
                key,
                method_entry_id,
                sig_version,
                body_fp,
                own_sig_fp,
                table_fp,
                hier_fp,
                var_fp,
                deps,
                cast_sites,
            });
        }
        Ok(CacheSnapshot { symbols, entries })
    }
}

// ----- capture / restore -----------------------------------------------------

fn key_id(dict: &mut SymDictWriter, k: &MethodKey) -> SnapKey {
    SnapKey {
        class: dict.id(k.class),
        class_level: k.class_level,
        method: dict.id(k.method),
    }
}

pub(crate) fn snapshot_of(cache: &SharedCache) -> CacheSnapshot {
    snapshot_of_filtered(cache, &|_| true)
}

/// [`snapshot_of`] restricted to methods `keep` accepts — the delta
/// encoder: the fleet daemon serializes only the entries past a client's
/// watermark, and a fleet client serializes only its pending
/// publications.
pub(crate) fn snapshot_of_filtered(
    cache: &SharedCache,
    keep: &dyn Fn(&MethodKey) -> bool,
) -> CacheSnapshot {
    let mut dict = SymDictWriter::new();
    let mut entries = Vec::new();
    for (key, version, d) in cache.iter_derivations() {
        if !keep(&key) {
            continue;
        }
        let skey = key_id(&mut dict, &key);
        let deps = d
            .deps
            .iter()
            .map(|dep| SnapDep {
                start: dict.id(dep.resolution.start),
                skip_receiver: dep.resolution.skip_receiver,
                class_level: dep.resolution.class_level,
                method: dict.id(dep.resolution.method),
                target: dep.resolution.target.map(|t| key_id(&mut dict, &t)),
                sig_version: dep.sig_version,
                sig_fingerprint: dep.sig_fingerprint,
            })
            .collect();
        entries.push(SnapEntry {
            key: skey,
            method_entry_id: version.0,
            sig_version: version.1,
            body_fp: version.2,
            own_sig_fp: d.own_sig_fingerprint,
            table_fp: d.table_fp,
            hier_fp: d.hier_fp,
            var_fp: d.var_fp,
            deps,
            cast_sites: d.cast_sites.to_vec(),
        });
    }
    CacheSnapshot {
        symbols: dict.strings().iter().map(|s| s.to_string()).collect(),
        entries,
    }
}

pub(crate) fn load_into(cache: &SharedCache, snap: &CacheSnapshot) -> Result<usize, SnapshotError> {
    let dict = SymDictReader::new(snap.symbols.iter().map(String::as_str));
    let sym = |id: u32| dict.sym(id).ok_or(SnapshotError::BadSymbol(id));
    let key = |k: &SnapKey| -> Result<MethodKey, SnapshotError> {
        Ok(MethodKey {
            class: sym(k.class)?,
            class_level: k.class_level,
            method: sym(k.method)?,
        })
    };
    // Two-phase: translate (and thereby validate) EVERY entry before
    // inserting ANY, so a malformed snapshot leaves the live tier exactly
    // as it was — an embedder can treat Err as "nothing happened" and
    // retry with a corrected artifact.
    let mut translated = Vec::with_capacity(snap.entries.len());
    for e in &snap.entries {
        let k = key(&e.key)?;
        let mut deps = Vec::with_capacity(e.deps.len());
        for d in &e.deps {
            deps.push(SharedDep {
                resolution: Resolution {
                    start: sym(d.start)?,
                    skip_receiver: d.skip_receiver,
                    class_level: d.class_level,
                    method: sym(d.method)?,
                    target: d.target.as_ref().map(&key).transpose()?,
                },
                sig_version: d.sig_version,
                sig_fingerprint: d.sig_fingerprint,
            });
        }
        translated.push((k, e, deps));
    }
    let loaded = translated.len();
    for (k, e, deps) in translated {
        cache.insert(
            k,
            e.method_entry_id,
            e.sig_version,
            e.body_fp,
            e.own_sig_fp,
            (e.table_fp, e.hier_fp, e.var_fp),
            deps,
            e.cast_sites.clone(),
        );
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(c: &str, m: &str) -> MethodKey {
        MethodKey::instance(c, m)
    }

    fn sample_cache() -> SharedCache {
        let c = SharedCache::new();
        c.insert(
            k("Talk", "owner?"),
            7,
            3,
            0xB0D7,
            0x5167,
            (11, 22, 33),
            vec![SharedDep {
                resolution: Resolution::of("User", false, "name", Some(k("User", "name"))),
                sig_version: 2,
                sig_fingerprint: 0xF00D,
            }],
            vec![(1, 10, 20)],
        );
        c.insert(
            k("Talk", "title"),
            9,
            1,
            0xCAFE,
            0x7777,
            (11, 22, 33),
            vec![SharedDep {
                // Negative witness: no target.
                resolution: Resolution::of("Talk", false, "missing", None),
                sig_version: 0,
                sig_fingerprint: 0,
            }],
            vec![],
        );
        c
    }

    #[test]
    fn snapshot_round_trips_bytes_and_cache() {
        let c = sample_cache();
        let snap = c.snapshot();
        assert_eq!(snap.entry_count(), 2);
        let bytes = snap.to_bytes();
        let parsed = CacheSnapshot::from_bytes(&bytes).expect("parses");
        assert_eq!(parsed.entry_count(), 2);
        assert_eq!(parsed.symbol_count(), snap.symbol_count());

        let fresh = SharedCache::new();
        assert_eq!(fresh.load_snapshot(&parsed).expect("loads"), 2);
        assert_eq!(fresh.len(), 2);
        let d = fresh
            .lookup(&k("Talk", "owner?"), 7, 3, 0xB0D7)
            .expect("restored derivation hits under the original version key");
        assert_eq!(d.own_sig_fingerprint, 0x5167);
        assert_eq!((d.table_fp, d.hier_fp, d.var_fp), (11, 22, 33));
        assert_eq!(d.deps.len(), 1);
        assert_eq!(d.deps[0].resolution.target, Some(k("User", "name")));
        assert_eq!(d.cast_sites.as_ref(), &[(1, 10, 20)]);
        // Negative witnesses survive too.
        let d2 = fresh.lookup(&k("Talk", "title"), 9, 1, 0xCAFE).unwrap();
        assert_eq!(d2.deps[0].resolution.target, None);
        // Dependency edges were rebuilt: evicting the dep key drops the
        // dependent derivation.
        assert_eq!(fresh.evict_with_dependents(&k("User", "name")), 1);
    }

    /// Rewrites v2 bytes into the retired HBSNAP01 layout: v1 magic, no
    /// trailing checksum. What an artifact written by a pre-checksum
    /// build looks like.
    fn as_hbsnap01(bytes: &[u8]) -> Vec<u8> {
        let mut v1 = bytes[..bytes.len() - 8].to_vec();
        v1[..8].copy_from_slice(b"HBSNAP01");
        v1
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert_eq!(
            CacheSnapshot::from_bytes(b"not a snapshot").unwrap_err(),
            SnapshotError::BadMagic
        );
        // v2 truncation is caught by the checksum (verified before any
        // structure is read).
        let bytes = sample_cache().snapshot().to_bytes();
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 3);
        assert_eq!(
            CacheSnapshot::from_bytes(&short).unwrap_err(),
            SnapshotError::BadChecksum
        );
        // A bit flip anywhere in the body is likewise a checksum failure.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            CacheSnapshot::from_bytes(&flipped).unwrap_err(),
            SnapshotError::BadChecksum
        );
    }

    #[test]
    fn hbsnap01_artifacts_are_rejected_as_bad_magic() {
        let snap = sample_cache().snapshot();
        let fresh = SharedCache::new();
        let v1 = as_hbsnap01(&snap.to_bytes());
        // However the bytes end, the magic is refused before any
        // structure is read, so nothing can reach the tier.
        for len in [v1.len(), v1.len() - 3, 8] {
            assert_eq!(
                CacheSnapshot::from_bytes(&v1[..len]).unwrap_err(),
                SnapshotError::BadMagic
            );
        }
        assert!(fresh.is_empty());
        assert_eq!(fresh.stats(), crate::SharedCacheStats::default());
    }

    #[test]
    fn filtered_snapshot_serializes_only_kept_methods() {
        let c = sample_cache();
        let keep = k("Talk", "owner?");
        let snap = c.snapshot_filtered(|key| *key == keep);
        assert_eq!(snap.entry_count(), 1);
        let versions = snap.entry_versions().unwrap();
        assert_eq!(versions, vec![(keep, 7, 3, 0xB0D7)]);
        assert!(
            c.contains(&keep, 7, 3, 0xB0D7),
            "contains probes the same version tuple"
        );
        assert!(!c.contains(&keep, 7, 3, 0xDEAD));
    }

    #[test]
    fn load_rejects_dangling_symbol_ids_without_partial_application() {
        let entry = |method: u32| SnapEntry {
            key: SnapKey {
                class: 0,
                class_level: false,
                method,
            },
            method_entry_id: 1,
            sig_version: 1,
            body_fp: 1,
            own_sig_fp: 1,
            table_fp: 1,
            hier_fp: 1,
            var_fp: 1,
            deps: vec![],
            cast_sites: vec![],
        };
        let snap = CacheSnapshot {
            symbols: vec!["Talk".into(), "title".into()],
            entries: vec![
                entry(1), // valid
                entry(9), // dangling
            ],
        };
        let fresh = SharedCache::new();
        assert_eq!(
            fresh.load_snapshot(&snap).unwrap_err(),
            SnapshotError::BadSymbol(9)
        );
        assert!(
            fresh.is_empty(),
            "nothing half-loaded — the valid entry before the malformed \
             one was not applied either"
        );
    }
}
