//! A string interner providing [`Sym`]: cheap, `Copy`, hash-friendly keys
//! for the dispatch hot path.
//!
//! The Hummingbird engine intercepts *every* call to a checkable method; on
//! the steady-state (cache-hit) path the only work should be a couple of
//! hash probes. Interning class and method names once turns the former
//! String-keyed cache lookups into `u32` comparisons and removes all
//! per-call allocation.
//!
//! The interner is **process-global and thread-safe**: `Sym` indices are
//! stable across every thread in the process, so symbols (and the
//! `MethodKey`s built from them) can key process-wide shared structures —
//! the multi-tenant shared derivation cache in particular — and cross
//! thread boundaries freely (`Sym` is `Send + Sync`). Three tiers keep the
//! hot paths cheap:
//!
//! 1. **Lock-free fast path.** Each thread keeps a private map of the
//!    strings it has already interned; a repeat `intern` takes no lock at
//!    all (this is the dispatch hot path: one thread-local hash probe).
//! 2. **Sharded read path.** A miss in the thread cache probes one of
//!    `NUM_SHARDS` `RwLock`-protected maps under a read lock, so threads
//!    interning disjoint (or even overlapping, already-known) names never
//!    serialise.
//! 3. **Serialised slow path.** Only a genuinely new string takes the
//!    global insertion lock, which assigns the next index and publishes
//!    the string.
//!
//! Resolution (`as_str`) is lock-free: indices address an append-only
//! segmented table of atomic slots, published with release/acquire
//! ordering, so readers never contend with writers.
//!
//! Interned strings are leaked, which bounds memory by the number of
//! *distinct* names ever seen: exactly the class/method names of the
//! program, the same order of memory the method tables themselves retain.
//!
//! # Example
//!
//! ```
//! use hb_intern::Sym;
//!
//! let a = Sym::intern("Talk");
//! let b = Sym::intern("Talk");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "Talk");
//! // Ordering is by string content, so sorted reports stay alphabetical.
//! assert!(Sym::intern("Apple") < Sym::intern("Banana"));
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Number of shards in the global string→index map.
const NUM_SHARDS: usize = 16;

/// Capacity of segment 0 of the index→string table; segment `k` holds
/// `FIRST_SEG_CAP << k` slots, so capacity doubles per segment and no slot
/// ever moves once published (resolution stays lock-free).
const FIRST_SEG_CAP: usize = 1 << 10;

/// Number of segments (total capacity ≈ 4 billion symbols — `u32::MAX`).
const NUM_SEGMENTS: usize = 22;

/// A slot holds a pointer to a leaked `&'static str` (a thin pointer to a
/// fat one, so it fits a single atomic word).
type Slot = AtomicPtr<&'static str>;

struct Global {
    /// str → index, sharded by string hash. Reads (already-interned
    /// strings from a thread that hasn't cached them yet) take a read
    /// lock only.
    shards: [RwLock<HashMap<&'static str, u32>>; NUM_SHARDS],
    /// Segment table for index → str. Segments are allocated on demand
    /// under `write` and published with a release store.
    segments: [AtomicPtr<Slot>; NUM_SEGMENTS],
    /// Number of published symbols (diagnostics only).
    len: AtomicUsize,
    /// Serialises insertions: index assignment + slot publication +
    /// shard-map insert happen under this lock, keeping indices dense.
    write: Mutex<()>,
    /// All shard maps and thread caches must agree on the hash, so shard
    /// selection uses one shared `RandomState`.
    hasher: RandomState,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        len: AtomicUsize::new(0),
        write: Mutex::new(()),
        hasher: RandomState::new(),
    })
}

impl Global {
    fn shard_of(&self, s: &str) -> usize {
        (self.hasher.hash_one(s) as usize) % NUM_SHARDS
    }

    /// Splits an index into (segment, offset). Segment `k` covers indices
    /// `[FIRST_SEG_CAP * (2^k - 1), FIRST_SEG_CAP * (2^(k+1) - 1))`.
    fn locate(id: u32) -> (usize, usize) {
        let q = id as usize / FIRST_SEG_CAP + 1;
        let seg = (usize::BITS - 1 - q.leading_zeros()) as usize;
        let seg_start = FIRST_SEG_CAP * ((1 << seg) - 1);
        (seg, id as usize - seg_start)
    }

    fn seg_cap(seg: usize) -> usize {
        FIRST_SEG_CAP << seg
    }

    /// Lock-free resolve. Sound because an index only escapes after its
    /// slot (and segment) were published with release stores, and any
    /// mechanism that carried the index to this thread established the
    /// happens-before edge.
    fn resolve(&self, id: u32) -> &'static str {
        let (seg, off) = Self::locate(id);
        let base = self.segments[seg].load(Ordering::Acquire);
        assert!(!base.is_null(), "Sym index {id} out of range");
        unsafe {
            let slot = &*base.add(off);
            let p = slot.load(Ordering::Acquire);
            assert!(!p.is_null(), "Sym index {id} not yet published");
            *p
        }
    }

    fn intern(&self, s: &str) -> u32 {
        let shard = self.shard_of(s);
        if let Some(&id) = self.shards[shard].read().unwrap().get(s) {
            return id;
        }
        let _guard = self.write.lock().unwrap();
        // Re-check: another thread may have interned `s` between the read
        // probe and acquiring the insertion lock.
        if let Some(&id) = self.shards[shard].read().unwrap().get(s) {
            return id;
        }
        let id = self.len.load(Ordering::Relaxed);
        assert!(id <= u32::MAX as usize, "interner full");
        let (seg, off) = Self::locate(id as u32);
        assert!(seg < NUM_SEGMENTS, "interner full");
        let mut base = self.segments[seg].load(Ordering::Acquire);
        if base.is_null() {
            let slots: Vec<Slot> = (0..Self::seg_cap(seg))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            base = Box::leak(slots.into_boxed_slice()).as_mut_ptr();
            self.segments[seg].store(base, Ordering::Release);
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        let cell: &'static mut &'static str = Box::leak(Box::new(leaked));
        unsafe { (*base.add(off)).store(cell, Ordering::Release) };
        self.len.store(id + 1, Ordering::Release);
        self.shards[shard]
            .write()
            .unwrap()
            .insert(leaked, id as u32);
        id as u32
    }
}

thread_local! {
    /// Per-thread cache of already-interned strings: the lock-free fast
    /// path. Entries are never invalidated (symbols are append-only).
    static LOCAL: RefCell<HashMap<&'static str, u32>> = RefCell::new(HashMap::new());
}

/// An interned string. Equality and hashing are `u32` operations; ordering
/// compares the underlying strings so sorted collections read
/// alphabetically. Indices are process-global: a `Sym` is `Send + Sync`
/// and resolves to the same string on every thread.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Interns `s`, returning its symbol. Repeated calls with the same
    /// content return the same symbol, allocate nothing after the first,
    /// and — once a thread has seen the string — take no lock.
    pub fn intern(s: &str) -> Sym {
        let cached = LOCAL.with(|c| c.borrow().get(s).copied());
        if let Some(id) = cached {
            return Sym(id);
        }
        let g = global();
        let id = g.intern(s);
        LOCAL.with(|c| c.borrow_mut().insert(g.resolve(id), id));
        Sym(id)
    }

    /// The interned string. `'static` because interned strings live for the
    /// process (see module docs). Lock-free.
    pub fn as_str(self) -> &'static str {
        global().resolve(self.0)
    }

    /// The raw interner index (process-globally stable for the process
    /// lifetime; useful for dense side tables shared across threads).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Number of distinct symbols interned so far (diagnostics).
pub fn interned_count() -> usize {
    global().len.load(Ordering::Acquire)
}

/// Identifies a method: class name, instance/class level, method name.
/// Interned and `Copy` — the engine's cache key, the type table's index,
/// and the identity that structured diagnostics blame. Lives in the
/// interner crate (the workspace's root) so every layer — including the
/// diagnostics machinery in `hb-syntax` — can name methods without
/// depending on the annotation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodKey {
    pub class: Sym,
    pub class_level: bool,
    pub method: Sym,
}

impl MethodKey {
    /// An instance-method key.
    pub fn instance(class: impl AsRef<str>, method: impl AsRef<str>) -> MethodKey {
        MethodKey {
            class: Sym::intern(class.as_ref()),
            class_level: false,
            method: Sym::intern(method.as_ref()),
        }
    }

    /// A class-level-method key.
    pub fn class_level(class: impl AsRef<str>, method: impl AsRef<str>) -> MethodKey {
        MethodKey {
            class: Sym::intern(class.as_ref()),
            class_level: true,
            method: Sym::intern(method.as_ref()),
        }
    }

    /// Renders as `Class#method` / `Class.method` (the `Display` form).
    pub fn display(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for MethodKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.class_level {
            write!(f, "{}.{}", self.class, self.method)
        } else {
            write!(f, "{}#{}", self.class, self.method)
        }
    }
}

/// One-shot 64-bit structural fingerprint with a fixed, process-stable
/// hasher. Every fingerprint that feeds the multi-tenant shared derivation
/// tier (signature contents, body identity, table/hierarchy epochs) MUST
/// come through this single helper: adoption compares fingerprints
/// produced at different sites, so a site switching to a differently
/// seeded hasher would silently break the cross-tenant fast path.
///
/// The hasher is additionally stable across *processes of the same build*
/// (`DefaultHasher::new()` is unkeyed), which is what lets serialized
/// cache snapshots carry fingerprints between processes. Inputs must not
/// include [`Sym::index`] values — raw indices depend on process-local
/// interning order; hash the string contents instead.
pub fn fingerprint64(x: impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ----- fast hashing for interned keys ----------------------------------------

/// FNV-1a with a splitmix64 finalizer — a fast, non-cryptographic hasher
/// for maps keyed by interned values ([`Sym`], [`MethodKey`]): the keys
/// are tiny (a few machine words of already-uniqued indices), attacker-
/// controlled collisions are not a concern for in-process caches, and the
/// steady-state dispatch path performs several such lookups per call, so
/// SipHash's per-lookup setup cost is measurable. Not process-stable:
/// never use it for fingerprints (see [`fingerprint64`]).
#[derive(Default)]
pub struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x0100_0000_01b3);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x0100_0000_01b3);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: FNV alone mixes low bits poorly and
        // `HashMap` indexes by the low bits of the hash.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = std::hash::BuildHasherDefault<FastHasher>;

/// A `HashMap` over interned keys using [`FastHasher`] — the container
/// for every map on the steady-state dispatch path.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

// ----- stable symbol serialization -------------------------------------------
//
// `Sym` indices are assigned in process-local interning order, so they can
// NEVER be written to disk raw: a fresh process that interned anything
// else first would resolve them to different strings. Snapshots instead
// ship a *dictionary* — the distinct strings, densely numbered in first-use
// order — and every serialized `Sym` becomes a dictionary id. Loading
// re-interns each dictionary string in the consuming process, mapping
// dictionary ids back to that process's own (possibly different) indices.

/// Builds the symbol dictionary for a serialized artifact: maps each
/// distinct [`Sym`] to a dense, process-independent dictionary id and
/// collects the backing strings in id order.
#[derive(Default)]
pub struct SymDictWriter {
    ids: HashMap<Sym, u32>,
    strings: Vec<&'static str>,
}

impl SymDictWriter {
    /// An empty dictionary.
    pub fn new() -> SymDictWriter {
        SymDictWriter::default()
    }

    /// The dictionary id for `sym`, assigning the next dense id on first
    /// use.
    pub fn id(&mut self, sym: Sym) -> u32 {
        if let Some(&id) = self.ids.get(&sym) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(sym.as_str());
        self.ids.insert(sym, id);
        id
    }

    /// The collected strings, indexed by dictionary id.
    pub fn strings(&self) -> &[&'static str] {
        &self.strings
    }
}

/// Resolves dictionary ids back to [`Sym`]s in the consuming process,
/// re-interning every dictionary string once up front.
pub struct SymDictReader {
    syms: Vec<Sym>,
}

impl SymDictReader {
    /// Interns every dictionary string, in id order.
    pub fn new<'a>(strings: impl IntoIterator<Item = &'a str>) -> SymDictReader {
        SymDictReader {
            syms: strings.into_iter().map(Sym::intern).collect(),
        }
    }

    /// The symbol for dictionary id `id`, or `None` when the id is out of
    /// range (a malformed artifact).
    pub fn sym(&self, id: u32) -> Option<Sym> {
        self.syms.get(id as usize).copied()
    }

    /// Number of dictionary entries.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

// Both Display and Debug render the interned text (Debug without quotes —
// symbols are identifiers, not data).
impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let a = Sym::intern("hello");
        let b = Sym::intern("hello");
        let c = Sym::intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn ordering_is_by_content() {
        let z = Sym::intern("zzz");
        let a = Sym::intern("aaa");
        assert!(a < z, "content order, not interning order");
        let mut v = [z, a, Sym::intern("mmm")];
        v.sort();
        let strs: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(strs, vec!["aaa", "mmm", "zzz"]);
    }

    #[test]
    fn display_and_debug() {
        let s = Sym::intern("Talk#owner?");
        assert_eq!(format!("{s}"), "Talk#owner?");
        assert_eq!(format!("{s:?}"), "Talk#owner?");
    }

    #[test]
    fn conversions() {
        let a: Sym = "abc".into();
        let b: Sym = String::from("abc").into();
        assert_eq!(a, b);
        assert_eq!(a, "abc");
        assert_eq!(a.as_ref(), "abc");
    }

    #[test]
    fn segment_arithmetic_is_dense_and_in_bounds() {
        // Every index maps to a unique (segment, offset) with offset in
        // range, and boundaries land at the start of the next segment.
        let mut expected_start = 0usize;
        for seg in 0..6 {
            let cap = Global::seg_cap(seg);
            assert_eq!(Global::locate(expected_start as u32), (seg, 0));
            assert_eq!(
                Global::locate((expected_start + cap - 1) as u32),
                (seg, cap - 1)
            );
            expected_start += cap;
        }
    }

    #[test]
    fn sym_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sym>();
    }

    #[test]
    fn sym_dict_round_trips_in_first_use_order() {
        let a = Sym::intern("Talk");
        let b = Sym::intern("owner?");
        let mut w = SymDictWriter::new();
        assert_eq!(w.id(a), 0);
        assert_eq!(w.id(b), 1);
        assert_eq!(w.id(a), 0, "repeat syms reuse their id");
        assert_eq!(w.strings(), &["Talk", "owner?"]);
        let r = SymDictReader::new(w.strings().iter().copied());
        assert_eq!(r.sym(0), Some(a));
        assert_eq!(r.sym(1), Some(b));
        assert_eq!(r.sym(2), None, "out-of-range ids are malformed, not UB");
        assert_eq!(r.len(), 2);
    }
}
