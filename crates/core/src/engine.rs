//! The Hummingbird engine: just-in-time static type checking at method
//! entry, with a memoised derivation cache (paper §3's 𝒳) and Definition-1
//! invalidation.
//!
//! The engine is the one dispatch hook ([`CallHook`]): when a checkable
//! method is called it (a) runs the `pre` contracts that apply, (b) runs
//! any needed dynamic argument checks (rules (EApp*), minimised per §4
//! "Eliminating Dynamic Checks"), and (c) if the method is marked for
//! checking, statically checks its body against the *current* type table —
//! once, caching the outcome keyed by the receiver's class.

use crate::info::RegistryInfo;
use crate::obs::EngineObs;
use crate::sched::{capture_world, sort_diagnostics, world_epochs};
use crate::shared_cache::{SharedCache, SharedEvictionSink};
use crate::stats::{CheckLogItem, CheckVerdict, EngineStats, PhaseTracker};
use hb_check::{check_sig, CheckOptions, CheckPolicy, CheckRequest};
use hb_il::{lower_block_body, lower_method, MethodCfg};
use hb_intern::Sym;
use hb_interp::{
    CallHook, ClassId, DispatchInfo, ErrorKind, ExecTierState, HbError, HookOutcome, Interp,
    InterpEvent, MethodBody, Value,
};
use hb_rdl::{
    type_of, value_conforms, AnnotationSource, MethodKey, PreHook, RdlEvent, RdlEventSink,
    RdlState, Resolution, TableEntry,
};
use hb_sched::{
    CheckTask, CompletionQueue, DepFact, Scheduler, TaskCompletion, TaskVerdict, WorldSnapshot,
};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, Span, TypeDiagnostic};
use hb_types::TypeEnv;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// Engine configuration — the evaluation's three modes are built from
/// these switches.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Master switch: when false the hook does nothing (used with cleared
    /// hooks for the "Orig" column).
    pub enabled: bool,
    /// Memoise static checks (off for the "No$" column).
    pub caching: bool,
    /// Dynamically check arguments from unchecked callers.
    pub dyn_arg_checks: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            enabled: true,
            caching: true,
            dyn_arg_checks: true,
        }
    }
}

/// A memoised check: the paper's cache entry `(DM, D≤)`, represented by
/// what must stay unchanged for the derivation to remain valid.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// The method-table entry id the body was lowered from ((EDef)
    /// invalidation: redefinition changes the id).
    method_entry_id: u64,
    /// The annotation version the body was checked against ((EType)
    /// invalidation: type changes bump it).
    sig_version: u64,
    /// The (TApp) dependency set of Definition 1(2); surfaced through
    /// [`Engine::cache_dump`] so cached derivations are inspectable.
    deps: BTreeSet<MethodKey>,
    /// Negative (TApp) facts the derivation relied on: `(method,
    /// class_level)` lookups that resolved to *no* annotation (an
    /// unannotated `initialize` behind `C.new`, a class-level miss that
    /// fell back to the `Class` chain). A first-ever annotation for such
    /// a name is a resolution change with no shadowed entry to hang
    /// Definition 1(2) on, so these get their own edges.
    neg_deps: BTreeSet<(Sym, bool)>,
}

impl CacheEntry {
    /// The entry for a derivation described by dependency facts — a
    /// scheduler worker's, or another tenant's from the shared tier.
    fn from_facts(method_entry_id: u64, sig_version: u64, facts: &[DepFact]) -> CacheEntry {
        CacheEntry {
            method_entry_id,
            sig_version,
            deps: facts.iter().filter_map(|d| d.resolution.target).collect(),
            neg_deps: neg_deps(facts.iter().map(|d| &d.resolution)),
        }
    }
}

/// The negative (TApp) facts among `resolutions`: the `(method,
/// class_level)` lookups that resolved to no annotation.
fn neg_deps<'r>(resolutions: impl Iterator<Item = &'r Resolution>) -> BTreeSet<(Sym, bool)> {
    resolutions
        .filter(|r| r.target.is_none())
        .map(|r| (r.method, r.class_level))
        .collect()
}

/// A derivation's shared-tier publication: what another tenant needs to
/// validate it without re-deriving (see [`crate::SharedDerivation`]).
struct Publication {
    shared: Arc<SharedCache>,
    body_fp: u64,
    own_sig_fp: u64,
    epochs: (u64, u64, u64),
    deps: Vec<DepFact>,
    cast_sites: Vec<(u32, u32, u32)>,
}

/// One cached derivation as reported by [`Engine::cache_dump`]: the cache
/// key plus everything its validity depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDumpEntry {
    /// The receiver-class cache key (paper §4 "Modules": module methods
    /// appear once per mix-in class).
    pub key: MethodKey,
    /// The method-table entry id the derivation was checked against.
    pub method_entry_id: u64,
    /// The annotation version the derivation was checked against.
    pub sig_version: u64,
    /// The annotation keys rule (TApp) consulted — Definition 1(2)'s
    /// dependency set; replacing any of these invalidates this entry.
    pub deps: Vec<MethodKey>,
}

/// One entry of the whole-program check set (see
/// `Engine::eligible_methods`): an annotated, checkable method resolved
/// against the current registry, with its effective policy.
struct EligibleMethod {
    key: MethodKey,
    entry: Rc<TableEntry>,
    cid: ClassId,
    owner: ClassId,
    mentry: hb_interp::MethodEntry,
    policy: CheckPolicy,
}

/// Memo key for witness replay: (start, skip_receiver, class_level, method).
type ReplayKey = (Sym, bool, bool, Sym);
/// A replayed lookup's answer: (resolved key, its version, its sig fingerprint).
type ReplayResult = (MethodKey, u64, u64);

/// Memo key for a dispatch resolution: (receiver class, owner,
/// class_level, method). The owner is part of the key because the `pre`
/// walk consults it, and a method defined later on a subclass changes the
/// owner without changing the hierarchy.
type DispatchKey = (ClassId, ClassId, bool, Sym);

/// What the call hook derives from a dispatch's identity alone — the
/// ancestor walks every intercepted call would otherwise repeat. Valid for
/// one (type-table, pre-contract, class-hierarchy) generation triple.
struct DispatchResolution {
    /// The `pre` contracts that apply ([`hb_rdl::pre::applicable_pres`]).
    pres: Vec<PreHook>,
    /// The annotation the receiver's chain resolves to, if any.
    annotation: Option<(MethodKey, Rc<TableEntry>)>,
    /// The derivation cache key: the *receiver's* class (module methods
    /// cache per mix-in class, paper §4 "Modules").
    cache_key: MethodKey,
    /// No `pre` contract is registered under this method name on any
    /// class, and the annotation is not flagged always-dynamic-check: the
    /// resolution-level half of the fast-entry patch gate. Name-wide,
    /// because a class rename or superclass rewire moves the stamp without
    /// flushing patches; a later `pre`, `type` or `include` flushes them.
    patchable: bool,
}

/// A set of cache keys, with the same fixed hasher as the maps below.
type KeySet = HashSet<MethodKey, hb_intern::FastBuildHasher>;

/// The maps that reloads churn (the cache, its edge maps, the CFGs and
/// the fingerprint memo) use the fixed-seed [`hb_intern::FastMap`]
/// hasher: with a per-process random seed their table layout, and so the
/// point at which they grow, varied between runs, and a reload's
/// allocation count did not repeat.
#[derive(Default)]
struct EngineState {
    /// Keyed with [`hb_intern::FastMap`]: `ensure_checked` probes this
    /// map on every intercepted call of a check-flagged method.
    cache: hb_intern::FastMap<MethodKey, CacheEntry>,
    /// dep (annotation key) → cache keys whose derivations used it.
    dependents: hb_intern::FastMap<MethodKey, KeySet>,
    /// `(method, class_level)` → cache keys whose derivations relied on
    /// that lookup resolving to *nothing* (see [`CacheEntry::neg_deps`]).
    /// Conservative — keyed by name, not receiver chain — so a first-ever
    /// annotation may re-check a method whose chain never sees it; a
    /// re-check is cheap and the edge map stays receiver-independent.
    neg_dependents: hb_intern::FastMap<(Sym, bool), KeySet>,
    /// Lowered bodies by method-entry id (also used for reload diffing).
    /// `Arc` so a scheduler `CheckTask` captures the CFG without a deep
    /// clone — lowering is cold-path either way.
    cfgs: hb_intern::FastMap<u64, Arc<MethodCfg>>,
    /// Memoised signature-content fingerprints by (key, version).
    sig_fps: hb_intern::FastMap<(MethodKey, u64), u64>,
    /// Memoised replay results per resolution witness, valid for one
    /// (type-table, class-hierarchy) generation pair — the warm tenants'
    /// adoption fast path validates whole dependency sets from this map.
    dep_memo: HashMap<ReplayKey, Option<ReplayResult>>,
    /// The (table, hierarchy) generations `dep_memo` was built at.
    dep_memo_gen: (u64, u64),
    /// Memoised dispatch resolutions, so a steady-state intercepted call
    /// probes one map instead of walking the receiver's ancestors for
    /// `pre` contracts and again for its annotation.
    dispatch_memo: hb_intern::FastMap<DispatchKey, Rc<DispatchResolution>>,
    /// The (table, pre, hierarchy) generations `dispatch_memo` is valid
    /// at; any move clears the memo.
    dispatch_memo_gen: (u64, u64, u64),
    /// Cache keys with a scheduled check task in flight (enqueued, not
    /// yet harvested) — deduplicates deferred admissions so a hot cold
    /// method enqueues one task, not one per call.
    in_flight: HashSet<MethodKey>,
    /// Memoised world snapshot for task extraction, keyed by the epoch
    /// fingerprints it was captured at — a burst of extractions against a
    /// quiescent table pays for one capture.
    world_memo: Option<((u64, u64, u64), Arc<WorldSnapshot>)>,
    /// The interpreter's execution-tier state, when the bytecode tier is
    /// attached. Every path that retires a cached derivation deoptimizes
    /// its fast entry here — the patch table must never outlive the
    /// derivation it was admitted under (Definition 1).
    tier: Option<Rc<ExecTierState>>,
    /// The observability collector, when the embedding asked for one
    /// ([`crate::HummingbirdBuilder::observability`]). `None` is the off
    /// state: no registry, no ring, no recording anywhere.
    obs: Option<Rc<EngineObs>>,
    stats: EngineStats,
    phase: PhaseTracker,
}

impl EngineState {
    /// Deoptimizes one fast entry (no-op without the bytecode tier).
    fn depatch(&self, key: &MethodKey) {
        if let Some(t) = &self.tier {
            t.depatch(key);
        }
    }

    /// Deoptimizes every fast entry (no-op without the bytecode tier).
    fn flush_fast_entries(&self) {
        if let Some(t) = &self.tier {
            t.flush_all();
        }
    }

    fn sig_fp(&mut self, key: MethodKey, entry: &TableEntry) -> u64 {
        *self
            .sig_fps
            .entry((key, entry.version))
            .or_insert_with(|| sig_fingerprint(entry))
    }

    /// Replays a (TApp) resolution witness against the *current* table and
    /// class hierarchy, memoised per generation pair: what does looking
    /// `res.method` up along `res.start`'s chain resolve to right now?
    /// Uses the same chain the checker uses ([`RegistryInfo::ancestors`]),
    /// so replay answers exactly match a hypothetical re-check.
    fn replay(
        &mut self,
        interp: &Interp,
        rdl: &RdlState,
        res: &Resolution,
    ) -> Option<ReplayResult> {
        let memo_key: ReplayKey = (res.start, res.skip_receiver, res.class_level, res.method);
        if let Some(c) = self.dep_memo.get(&memo_key) {
            return *c;
        }
        // Same chain the checker walks (`RegistryInfo::ancestors`), built
        // from interned syms with no string allocation: registry chain if
        // the class exists (plus trailing Object for module chains),
        // `[start, Object]` otherwise.
        let object = Sym::intern("Object");
        let mut chain: Vec<Sym> = match interp.registry.lookup(res.start.as_str()) {
            Some(cid) => interp.registry.ancestor_syms(cid).map(|(_, s)| s).collect(),
            None => vec![res.start],
        };
        if chain.last() != Some(&object) {
            chain.push(object);
        }
        let skip = usize::from(res.skip_receiver);
        let cur = rdl
            .lookup_along(chain.into_iter().skip(skip), res.class_level, res.method)
            .map(|(k, e)| {
                let fp = self.sig_fp(k, &e);
                (k, e.version, fp)
            });
        self.dep_memo.insert(memo_key, cur);
        cur
    }
}

/// The engine. Shared between the interpreter hook registration and the
/// host application through `Rc`.
pub struct Engine {
    pub rdl: Rc<RdlState>,
    config: RefCell<Config>,
    state: RefCell<EngineState>,
    check_opts: CheckOptions,
    /// Retention bound for the check log between drains (see
    /// [`crate::stats::DEFAULT_CHECK_LOG_CAP`]; builder-configured).
    check_log_cap: std::cell::Cell<usize>,
    /// High-water cap on in-flight deferred admissions (see
    /// [`crate::stats::DEFAULT_DEFERRED_CAP`]; builder-configured). At the
    /// cap, a cold `Deferred` call sheds to a synchronous Enforce check.
    deferred_cap: std::cell::Cell<usize>,
    /// The process-wide shared derivation tier, when this engine is one
    /// tenant of many (see [`crate::shared_cache`]). `None` keeps the
    /// engine purely per-process, exactly as before.
    shared: RefCell<Option<Arc<SharedCache>>>,
    /// The concurrent check scheduler, when attached (deferred JIT
    /// admission and parallel `check_all`). Pools may be shared by many
    /// tenants; completions route back through `completions`.
    sched: RefCell<Option<Arc<Scheduler>>>,
    /// This engine's completion channel: every task it extracts carries a
    /// clone, and results are harvested on the interpreter thread.
    completions: Arc<CompletionQueue>,
    /// One-`Cell`-load hot-path test: true once a scheduler is attached,
    /// so the default (scheduler-less) dispatch path never probes the
    /// completion queue.
    sched_active: Cell<bool>,
    /// One-`Cell`-load hot-path test for observability, same discipline
    /// as `sched_active`: the default (off) dispatch path pays exactly
    /// this load and the recording calls are outlined behind it.
    obs_active: Cell<bool>,
}

impl Engine {
    /// Creates an engine over the given RDL state.
    pub fn new(rdl: Rc<RdlState>) -> Engine {
        Engine {
            rdl,
            config: RefCell::new(Config::default()),
            state: RefCell::new(EngineState::default()),
            check_opts: CheckOptions::default(),
            check_log_cap: std::cell::Cell::new(crate::stats::DEFAULT_CHECK_LOG_CAP),
            deferred_cap: std::cell::Cell::new(crate::stats::DEFAULT_DEFERRED_CAP),
            shared: RefCell::new(None),
            sched: RefCell::new(None),
            completions: Arc::new(CompletionQueue::new()),
            sched_active: Cell::new(false),
            obs_active: Cell::new(false),
        }
    }

    /// Turns on observability at `level`, allocating the collector
    /// (registry, metric handles, and — at [`hb_obs::ObsLevel::Trace`] —
    /// the event ring). [`hb_obs::ObsLevel::Off`] drops the collector and
    /// returns the hot paths to their single-`Cell`-load cost.
    pub fn set_observability(&self, level: hb_obs::ObsLevel) {
        let mut st = self.state.borrow_mut();
        if level == hb_obs::ObsLevel::Off {
            st.obs = None;
            self.obs_active.set(false);
        } else {
            st.obs = Some(Rc::new(EngineObs::new(level)));
            self.obs_active.set(true);
        }
    }

    /// The observability collector, when one is active.
    pub fn obs(&self) -> Option<Rc<EngineObs>> {
        self.state.borrow().obs.clone()
    }

    /// Sets the retention bound of the check log (zero disables logging;
    /// shrinking below the current length drops oldest entries at the
    /// next push).
    pub fn set_check_log_cap(&self, cap: usize) {
        self.check_log_cap.set(cap);
    }

    /// Sets the high-water cap on in-flight deferred admissions. At the
    /// cap, further cold `Deferred` calls fall back to a synchronous
    /// Enforce check (counted in `EngineStats::deferred_shed`) instead of
    /// growing the queue without bound.
    pub fn set_deferred_cap(&self, cap: usize) {
        self.deferred_cap.set(cap);
    }

    /// Retires local derivations for the given methods: each key's cached
    /// entry is invalidated along with its dependents, and any patched
    /// fast entry is deoptimized back to the guarded prologue. The fleet
    /// client calls this after applying a daemon delta (covered or
    /// tombstoned families must be re-validated, not trusted).
    pub fn retire_methods(&self, keys: &[MethodKey]) {
        let mut st = self.state.borrow_mut();
        for key in keys {
            Self::invalidate(&mut st, key, true);
        }
    }

    /// Folds one fleet-sync round's counters into the engine statistics
    /// (the fleet session runs outside the engine borrow).
    pub(crate) fn add_fleet_counters(
        &self,
        fetches: u64,
        deltas: u64,
        publishes: u64,
        evictions: u64,
    ) {
        let mut st = self.state.borrow_mut();
        st.stats.fleet_fetches += fetches;
        st.stats.fleet_deltas += deltas;
        st.stats.fleet_publishes += publishes;
        st.stats.fleet_evictions += evictions;
    }

    /// Attaches the interpreter's execution-tier state so derivation
    /// invalidation deoptimizes patched fast entries, and registers an
    /// emission-time flush: any type-table mutation or enforcement change
    /// drops every fast entry *synchronously*, before the mutating call
    /// returns — a patched entry skips the hook probe entirely, so it
    /// cannot be left to notice staleness lazily.
    pub fn attach_exec_tier(&self, tier: Rc<ExecTierState>) {
        self.state.borrow_mut().tier = Some(tier.clone());
        self.rdl.add_event_sink(Rc::new(FastFlushSink { tier }));
    }

    /// The generations a dispatch resolution depends on: the type table,
    /// the `pre` contracts and the class hierarchy.
    fn dispatch_stamp(&self, interp: &Interp) -> (u64, u64, u64) {
        (
            self.rdl.table_generation(),
            self.rdl.pre_generation(),
            interp.registry.hierarchy_generation(),
        )
    }

    /// `info`'s dispatch resolution under `stamp`, from the memo when it
    /// is still valid there (same pattern as `dep_memo`).
    fn resolve_dispatch(
        &self,
        interp: &Interp,
        info: &DispatchInfo,
        stamp: (u64, u64, u64),
    ) -> Rc<DispatchResolution> {
        let key: DispatchKey = (info.recv_class, info.owner, info.class_level, info.name);
        let mut st = self.state.borrow_mut();
        if st.dispatch_memo_gen != stamp {
            st.dispatch_memo.clear();
            st.dispatch_memo_gen = stamp;
        }
        if let Some(res) = st.dispatch_memo.get(&key) {
            return res.clone();
        }
        st.stats.dispatch_resolutions += 1;
        let res = Rc::new(self.compute_resolution(interp, info));
        st.dispatch_memo.insert(key, res.clone());
        res
    }

    /// A memo miss: walks the receiver's ancestors for the `pre`
    /// contracts and the annotation. Outlined so the hit path stays small.
    #[cold]
    #[inline(never)]
    fn compute_resolution(&self, interp: &Interp, info: &DispatchInfo) -> DispatchResolution {
        let pres = hb_rdl::pre::applicable_pres(&self.rdl, interp, info);
        let annotation = self.rdl.lookup_along(
            interp
                .registry
                .ancestor_syms(info.recv_class)
                .map(|(_, sym)| sym),
            info.class_level,
            info.name,
        );
        let patchable = !self.rdl.any_pre_named(info.name, info.class_level)
            && annotation
                .as_ref()
                .is_some_and(|(_, e)| !e.always_dyn_check);
        DispatchResolution {
            pres,
            annotation,
            cache_key: MethodKey {
                class: interp.registry.name_sym(info.recv_class),
                class_level: info.class_level,
                method: info.name,
            },
            patchable,
        }
    }

    /// Resolves the enforcement policy for a dispatch. Outlined and cold:
    /// the Enforce-everywhere default never takes this path, and keeping
    /// the map probes out of `before_call`'s body keeps the steady-state
    /// cache-hit path at its pre-policy register layout (measured: the
    /// inlined version cost ~8% on dispatch_probe).
    #[cold]
    #[inline(never)]
    fn resolve_policy(&self, cache_key: &MethodKey, annotation_key: &MethodKey) -> CheckPolicy {
        self.rdl.policy_for(cache_key, annotation_key)
    }

    /// Flight-recorder note for a cache hit. Outlined and cold for the
    /// same reason as [`Engine::resolve_policy`]: the observability-off
    /// dispatch path pays one `Cell` load and none of this body.
    #[cold]
    #[inline(never)]
    fn obs_note_cache_hit(&self, key: &MethodKey) {
        if let Some(obs) = &self.state.borrow().obs {
            obs.record(hb_obs::EventKind::CacheHit, *key);
        }
    }

    /// Counts one performed check (passed or blamed, with its duration)
    /// and appends it to the bounded check log: failures recur on every
    /// call (never cached), so the log is a window, not a ledger.
    ///
    /// Every logged duration also feeds the observability check-duration
    /// histogram (when collecting), so the log's retention cap bounds
    /// only the per-item records — timing data is aggregated before the
    /// window can discard it.
    fn log_check(&self, st: &mut EngineState, key: MethodKey, outcome: CheckVerdict, ns: u64) {
        if outcome.passed() {
            st.stats.checks_performed += 1;
            st.stats.check_ns += ns;
        } else {
            st.stats.checks_failed += 1;
            st.stats.failed_check_ns += ns;
        }
        let item = CheckLogItem {
            key,
            outcome,
            duration_ns: ns,
        };
        if let Some(obs) = &st.obs {
            obs.checks_observed.inc();
            obs.check_duration.record(item.duration_ns);
            let kind = if item.outcome.passed() {
                hb_obs::EventKind::CheckPass
            } else {
                hb_obs::EventKind::CheckFail
            };
            obs.record_span(kind, item.key, item.duration_ns);
        }
        let cap = self.check_log_cap.get();
        while st.stats.check_log.len() >= cap.max(1) {
            st.stats.check_log.pop_front();
        }
        if cap > 0 {
            st.stats.check_log.push_back(item);
        }
    }

    /// Attaches the process-wide shared derivation tier, making this
    /// engine a tenant: local cache misses probe the shared tier before
    /// running the checker, performed checks publish to it, and this
    /// tenant's type-table mutations fan out evictions to it. Call once
    /// per engine, ideally before app code loads.
    pub fn set_shared_cache(&self, shared: Arc<SharedCache>) {
        self.rdl.add_event_sink(Rc::new(SharedEvictionSink {
            shared: shared.clone(),
        }));
        *self.shared.borrow_mut() = Some(shared);
    }

    /// The attached shared tier, if any.
    pub fn shared_cache(&self) -> Option<Arc<SharedCache>> {
        self.shared.borrow().clone()
    }

    /// Loads a snapshot into the attached shared tier of a *live* system —
    /// the rolling-deploy artifact push, as opposed to the fresh-process
    /// warm boot ([`SharedCache::load_snapshot`]). The entries land in the
    /// shared tier through the normal load path; in addition, every local
    /// cached derivation for a method the snapshot covers is retired —
    /// with its dependents, and with its patched fast entry deoptimized
    /// back to the guarded prologue — so the tenant's next dispatch
    /// re-validates against the fresh artifact (adopting it when the
    /// worlds agree, re-checking when they don't) instead of trusting a
    /// derivation the artifact may supersede. Re-validation re-patches:
    /// steady state returns one guarded call later.
    ///
    /// Eviction before re-validation is the conservative direction, so
    /// this is sound for any snapshot the shared tier would accept; a
    /// malformed snapshot returns `Err` with nothing applied.
    pub fn load_snapshot(
        &self,
        snap: &crate::snapshot::CacheSnapshot,
    ) -> Result<usize, crate::snapshot::SnapshotError> {
        let shared = self
            .shared
            .borrow()
            .clone()
            .ok_or(crate::snapshot::SnapshotError::NoSharedTier)?;
        // Translate (and thereby validate) the coverage set before
        // touching either tier, mirroring the shared loader's two-phase
        // contract: Err means nothing happened.
        let keys = snap.method_keys()?;
        let loaded = shared.load_snapshot(snap)?;
        let mut st = self.state.borrow_mut();
        for key in &keys {
            Self::invalidate(&mut st, key, true);
        }
        Ok(loaded)
    }

    // ----- the concurrent check scheduler ------------------------------------

    /// Attaches a check scheduler. Pools are process-wide resources: many
    /// tenants may share one (each engine's results route back through
    /// its own completion queue).
    pub fn set_scheduler(&self, sched: Arc<Scheduler>) {
        *self.sched.borrow_mut() = Some(sched);
        self.sched_active.set(true);
    }

    /// The attached scheduler, if any.
    pub fn scheduler(&self) -> Option<Arc<Scheduler>> {
        self.sched.borrow().clone()
    }

    /// The attached scheduler, creating a default-sized pool on first use
    /// (a cold call under [`CheckPolicy::Deferred`] must always have
    /// somewhere to enqueue).
    fn ensure_scheduler(&self) -> Arc<Scheduler> {
        if let Some(s) = self.sched.borrow().as_ref() {
            return s.clone();
        }
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(1, 4);
        let s = Arc::new(Scheduler::new(jobs));
        self.set_scheduler(s.clone());
        s
    }

    /// The world snapshot for task extraction at the current epochs,
    /// memoised so extraction bursts against a quiescent table capture
    /// once.
    fn world_for(&self, st: &mut EngineState, interp: &Interp) -> Arc<WorldSnapshot> {
        let epochs = world_epochs(interp, &self.rdl);
        if let Some((at, world)) = &st.world_memo {
            if *at == epochs {
                return world.clone();
            }
        }
        let world = Arc::new(capture_world(interp, &self.rdl));
        st.world_memo = Some((epochs, world.clone()));
        world
    }

    /// Blocks until every task this engine enqueued has completed, then
    /// harvests the completions — the barrier after which asynchronously
    /// produced blame is guaranteed visible in [`Engine::diagnostics`].
    /// Loops because landing a stale deferred completion can re-enqueue a
    /// fresh task (see `land_completion`); with the table quiescent the
    /// retry lands on the next pass. (A paused scheduler must be resumed
    /// first or this will not return.)
    pub fn sched_quiesce(&self, interp: &Interp) {
        loop {
            self.completions.wait_idle();
            self.sched_harvest(interp);
            if self.completions.pending() == 0 && !self.completions.has_ready() {
                return;
            }
        }
    }

    /// The dispatch hook's completion poll. Outlined and cold for the
    /// same reason as [`Engine::resolve_policy`]: the scheduler-less
    /// default pays one `Cell` load, and keeping the queue probe (and the
    /// harvest machinery behind it) out of `before_call`'s body keeps the
    /// steady-state cache-hit path at its pre-scheduler layout.
    #[cold]
    #[inline(never)]
    fn poll_completions(&self, interp: &Interp) {
        if self.completions.has_ready() {
            self.sched_harvest(interp);
        }
    }

    /// Drains and lands every delivered completion: valid passes are
    /// adopted, valid blames recorded, stale results discarded (see
    /// `land_completion`). Called opportunistically from the dispatch
    /// hook and from [`Engine::sched_quiesce`].
    pub fn sched_harvest(&self, interp: &Interp) {
        if !self.completions.has_ready() {
            return;
        }
        for c in self.completions.drain() {
            self.land_completion(interp, c);
        }
    }

    /// Lands one worker completion on the interpreter thread, where the
    /// live table and registry are reachable for staleness validation:
    ///
    /// * the method-table entry, the annotation resolution and its
    ///   version must still match what the task captured, and a passing
    ///   derivation's epochs must match the current fingerprints (or its
    ///   witnesses must replay) — otherwise the result is **stale**:
    ///   counted in `sched_tasks_stale` and discarded, never adopted.
    ///   A stale *deferred* result whose method identity is still current
    ///   (the world moved around it while it was in flight) re-enqueues a
    ///   fresh task against the current world, so its outcome — pass or
    ///   blame — is re-established rather than silently lost; a result
    ///   whose method was redefined outright is dropped (the next call
    ///   re-defers naturally);
    /// * a valid pass is adopted exactly like a synchronous derivation
    ///   (local cache, dependency edges, shared-tier publication);
    /// * a valid blame records its diagnostic (deferred admissions only —
    ///   parallel linting leaves reporting to the deterministic serial
    ///   sweep);
    /// * a contained worker panic records an `HB0011` diagnostic.
    fn land_completion(&self, interp: &Interp, c: TaskCompletion) {
        {
            let mut st = self.state.borrow_mut();
            st.in_flight.remove(&c.cache_key);
            st.stats.sched_tasks_completed += 1;
            if let Some(obs) = &st.obs {
                if c.queue_ns > 0 {
                    obs.sched_queue.record(c.queue_ns);
                }
            }
        }
        // Identity validation, common to every verdict: the body and the
        // signature the worker checked must still be the current ones.
        let current = (|| {
            let cid = interp.registry.lookup(c.cache_key.class.as_str())?;
            let (_, mentry) = if c.cache_key.class_level {
                interp
                    .registry
                    .find_smethod(cid, c.cache_key.method.as_str())
            } else {
                interp
                    .registry
                    .find_method(cid, c.cache_key.method.as_str())
            }?;
            if mentry.id != c.entry_id {
                return None;
            }
            let (ann_key, entry) = self.rdl.lookup_along(
                interp.registry.ancestor_syms(cid).map(|(_, sym)| sym),
                c.cache_key.class_level,
                c.cache_key.method,
            )?;
            if ann_key != c.ann_key || entry.version != c.sig_version {
                return None;
            }
            Some((mentry, entry))
        })();
        let Some((mentry, entry)) = current else {
            let mut st = self.state.borrow_mut();
            st.stats.sched_tasks_stale += 1;
            if let Some(obs) = &st.obs {
                obs.record(hb_obs::EventKind::TaskStale, c.cache_key);
                // The method was redefined outright; the admission is
                // over (the next call re-defers naturally).
                obs.drop_admitted(c.cache_key);
            }
            return;
        };
        match &c.verdict {
            TaskVerdict::Pass { deps, cast_sites } => {
                let mut st = self.state.borrow_mut();
                // Same validity test as shared-tier adoption: benign
                // divergence (e.g. an unrelated annotation landed while
                // the task was in flight) still adopts; anything the
                // derivation actually depends on rejects.
                if !self.derivation_valid(
                    &mut st,
                    interp,
                    c.epochs,
                    c.own_sig_fp,
                    c.ann_key,
                    &entry,
                    deps,
                ) {
                    st.stats.sched_tasks_stale += 1;
                    if let Some(obs) = &st.obs {
                        // The admission stays stamped: a requeue is the
                        // same caller still waiting.
                        obs.record(hb_obs::EventKind::TaskStale, c.cache_key);
                    }
                    drop(st);
                    if c.record_blame {
                        self.requeue_deferred(interp, &c, &entry, &mentry);
                    }
                    return;
                }
                self.rdl.mark_used(&c.ann_key);
                self.log_check(&mut st, c.cache_key, CheckVerdict::Pass, c.duration_ns);
                st.stats.checked_methods.insert(c.cache_key.display());
                st.stats.cast_sites.extend(cast_sites.iter().copied());
                st.phase.note_check();
                if let Some(obs) = &st.obs {
                    obs.record_span(hb_obs::EventKind::TaskHarvest, c.cache_key, c.duration_ns);
                    if c.record_blame {
                        obs.note_adopted(c.cache_key);
                    }
                }
                if !self.config.borrow().caching {
                    return;
                }
                // Publish onward so other tenants adopt the worker's
                // derivation exactly as they adopt a tenant-published one.
                let publish =
                    self.shared_cache()
                        .zip(c.body_fp)
                        .map(|(shared, body_fp)| Publication {
                            shared,
                            body_fp,
                            own_sig_fp: c.own_sig_fp,
                            epochs: c.epochs,
                            deps: deps.clone(),
                            cast_sites: cast_sites.clone(),
                        });
                let derived = CacheEntry::from_facts(c.entry_id, c.sig_version, deps);
                self.install(&mut st, c.cache_key, derived, publish);
            }
            TaskVerdict::Blame(diag) => {
                if !c.record_blame {
                    // Parallel linting: the deterministic serial sweep
                    // re-derives and reports this failure (failures are
                    // never cached, so nothing is lost).
                    return;
                }
                if c.epochs != world_epochs(interp, &self.rdl) {
                    // The world moved while the blame was in flight: the
                    // judgement may no longer hold (e.g. the blamed callee
                    // annotation was fixed meanwhile). A failed check
                    // leaves no witnesses to replay, so the blame is
                    // discarded as stale and the method re-checks against
                    // the *current* world — a still-real error re-lands at
                    // the next harvest instead of an obsolete one landing
                    // now.
                    let mut st = self.state.borrow_mut();
                    st.stats.sched_tasks_stale += 1;
                    if let Some(obs) = &st.obs {
                        obs.record(hb_obs::EventKind::TaskStale, c.cache_key);
                    }
                    drop(st);
                    self.requeue_deferred(interp, &c, &entry, &mentry);
                    return;
                }
                let mut diag = diag.clone();
                anchor_blame(&mut diag, c.trigger, entry.span);
                diag.labels.push(CheckPolicy::deferred_note());
                let mut st = self.state.borrow_mut();
                self.log_check(
                    &mut st,
                    c.cache_key,
                    CheckVerdict::Blame(diag.code),
                    c.duration_ns,
                );
                st.phase.note_check();
                if let Some(obs) = &st.obs {
                    obs.record_span(hb_obs::EventKind::TaskHarvest, c.cache_key, c.duration_ns);
                    obs.drop_admitted(c.cache_key);
                }
                drop(st);
                self.rdl.record_diagnostic(diag);
            }
            TaskVerdict::Panicked(msg) => {
                let message = format!(
                    "check task for {} panicked on a scheduler worker: {}",
                    c.cache_key.display(),
                    msg
                );
                let mut diag = TypeDiagnostic::error(
                    DiagCode::CheckerPanic,
                    message,
                    c.trigger.unwrap_or(entry.span),
                    BlameTarget::Annotation(c.ann_key),
                )
                .with_method(c.cache_key)
                .with_label(DiagLabel::new(
                    LabelRole::Note,
                    "the panic was contained to this task; the worker pool and every other queued check survived",
                    Span::dummy(),
                ));
                anchor_blame(&mut diag, c.trigger, entry.span);
                let mut st = self.state.borrow_mut();
                self.log_check(
                    &mut st,
                    c.cache_key,
                    CheckVerdict::Blame(DiagCode::CheckerPanic),
                    c.duration_ns,
                );
                if let Some(obs) = &st.obs {
                    obs.record_span(hb_obs::EventKind::TaskHarvest, c.cache_key, c.duration_ns);
                    obs.drop_admitted(c.cache_key);
                }
                drop(st);
                self.rdl.record_diagnostic(diag);
            }
        }
    }

    /// Re-enqueues a deferred check whose completion was discarded as
    /// stale while its method identity stayed current: the fresh task
    /// captures the *current* world, so the method's real status (pass or
    /// blame) is re-established at the next harvest instead of being
    /// silently lost. No-op when a task for the key is already in flight.
    fn requeue_deferred(
        &self,
        interp: &Interp,
        c: &TaskCompletion,
        entry: &TableEntry,
        mentry: &hb_interp::MethodEntry,
    ) {
        if !self.state.borrow().in_flight.contains(&c.cache_key) {
            self.defer(
                interp,
                c.cache_key,
                c.ann_key,
                entry,
                mentry,
                c.policy,
                c.trigger,
            );
        }
    }

    /// Enqueues a deferred admission's check, latching its key in flight
    /// until the completion is harvested — a hot cold method enqueues one
    /// task, not one per call.
    #[allow(clippy::too_many_arguments)]
    fn defer(
        &self,
        interp: &Interp,
        cache_key: MethodKey,
        ann_key: MethodKey,
        entry: &TableEntry,
        mentry: &hb_interp::MethodEntry,
        policy: CheckPolicy,
        trigger: Option<Span>,
    ) {
        self.state.borrow_mut().in_flight.insert(cache_key);
        let sched = self.ensure_scheduler();
        let accepted = self.submit_check(
            interp, &sched, cache_key, ann_key, entry, mentry, policy, trigger, true,
        );
        if !accepted {
            // The pool is shutting down: the task will never run, so the
            // key must not stay latched in flight (the next call
            // re-attempts the admission).
            self.state.borrow_mut().in_flight.remove(&cache_key);
        }
    }

    /// Extracts one check as an owned [`CheckTask`] — body CFG, captured
    /// locals, signature, and the world snapshot with its epoch
    /// fingerprints — and submits it to `sched`. Returns whether the task
    /// will run: false when the body cannot be lowered or the pool is
    /// shutting down.
    #[allow(clippy::too_many_arguments)]
    fn submit_check(
        &self,
        interp: &Interp,
        sched: &Scheduler,
        cache_key: MethodKey,
        ann_key: MethodKey,
        entry: &TableEntry,
        mentry: &hb_interp::MethodEntry,
        policy: CheckPolicy,
        trigger: Option<Span>,
        record_blame: bool,
    ) -> bool {
        let captured = captured_env(interp, mentry);
        let Some(cfg) = self.cfg_for(mentry) else {
            return false;
        };
        let body_fp = body_fingerprint(interp, mentry, captured.as_ref());
        let mut st = self.state.borrow_mut();
        let world = self.world_for(&mut st, interp);
        let own_sig_fp = st.sig_fp(ann_key, entry);
        st.stats.sched_tasks_enqueued += 1;
        let submitted_at = st.obs.as_ref().map(|obs| {
            obs.record(hb_obs::EventKind::TaskEnqueue, cache_key);
            std::time::Instant::now()
        });
        drop(st);
        sched.submit(CheckTask {
            cache_key,
            ann_key,
            ann_span: entry.span,
            sig: entry.sig.clone(),
            entry_id: mentry.id,
            sig_version: entry.version,
            body_fp,
            own_sig_fp,
            cfg,
            captured,
            world,
            policy,
            trigger,
            record_blame,
            opts: self.check_opts,
            completions: self.completions.clone(),
            submitted_at,
        })
    }

    /// `mentry`'s lowered body, lowering (and memoising) it on first use;
    /// `None` for builtins.
    fn cfg_for(&self, mentry: &hb_interp::MethodEntry) -> Option<Arc<MethodCfg>> {
        if let Some(cfg) = self.state.borrow().cfgs.get(&mentry.id) {
            return Some(cfg.clone());
        }
        let cfg = Arc::new(lower_entry(mentry)?);
        self.state.borrow_mut().cfgs.insert(mentry.id, cfg.clone());
        Some(cfg)
    }

    /// Current configuration.
    pub fn config(&self) -> Config {
        *self.config.borrow()
    }

    /// Replaces the configuration.
    pub fn set_config(&self, c: Config) {
        *self.config.borrow_mut() = c;
        // A mode change (caching off, checks off, dynamic checks off)
        // alters what the guarded prologue would do — fast entries were
        // admitted under the old configuration, so drop them all.
        self.state.borrow().flush_fast_entries();
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> EngineStats {
        let st = self.state.borrow();
        let mut s = st.stats.clone();
        s.phases = st.phase.phases();
        s.cache_entries = st.cache.len();
        if let Some(t) = &st.tier {
            s.bytecode_compiled = t.bytecode_compiled();
            s.fast_entries_patched = t.fast_entries_patched();
            s.deopts = t.deopts();
            // A checked fast-prologue dispatch is a cache hit whose hook
            // probe was compiled out — fold it into the counters the
            // guarded path would have bumped, so `cache_hits` and
            // `intercepted_calls` stay comparable across tiers.
            let fast = t.fast_hits();
            s.cache_hits += fast;
            s.intercepted_calls += fast;
        }
        drop(st);
        // Shadowed blames are counted on the RDL state so the pre-hook
        // layer (which has no engine statistics) contributes too.
        s.shadowed_blames = self.rdl.shadowed_blames();
        s
    }

    /// Credits one inference run's outcome counters. The adoption path
    /// (`crate::infer`) runs outside the engine — it verifies against a
    /// hypothesis [`WorldSnapshot`], not the live table — but its results
    /// are engine-level facts, so they report through the same snapshot.
    pub fn note_inference(&self, verified: u64, adopted: u64, rejected: u64) {
        let mut st = self.state.borrow_mut();
        st.stats.inferred_verified += verified;
        st.stats.inferred_adopted += adopted;
        st.stats.inferred_rejected += rejected;
    }

    /// Clears statistics counters and collected diagnostics (not the
    /// cache).
    pub fn reset_stats(&self) {
        let mut st = self.state.borrow_mut();
        st.stats = EngineStats::default();
        st.phase = PhaseTracker::default();
        if let Some(t) = &st.tier {
            t.reset_counters();
        }
        drop(st);
        self.rdl.clear_diagnostics();
        self.rdl.reset_shadowed_blames();
    }

    /// Every blame diagnostic produced so far — just-in-time and eager
    /// check failures, dynamic argument checks, casts and preconditions —
    /// in emission order, from the type table's shared bounded store.
    pub fn diagnostics(&self) -> Vec<TypeDiagnostic> {
        self.rdl.diagnostics()
    }

    /// Takes the log of static checks performed since the last call (used
    /// by the Table 2 update experiment).
    pub fn take_check_log(&self) -> Vec<CheckLogItem> {
        self.state.borrow_mut().stats.check_log.drain(..).collect()
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.state.borrow().cache.len()
    }

    /// A debug dump of every cached derivation with its dependency set,
    /// sorted by key — what the paper's cache 𝒳 currently holds and why
    /// each entry is still valid.
    pub fn cache_dump(&self) -> Vec<CacheDumpEntry> {
        let st = self.state.borrow();
        let mut out: Vec<CacheDumpEntry> = st
            .cache
            .iter()
            .map(|(key, e)| CacheDumpEntry {
                key: *key,
                method_entry_id: e.method_entry_id,
                sig_version: e.sig_version,
                deps: e.deps.iter().copied().collect(),
            })
            .collect();
        out.sort_by_key(|a| a.key);
        out
    }

    /// Drops the whole cache (tests / ablation).
    pub fn clear_cache(&self) {
        let mut st = self.state.borrow_mut();
        st.cache.clear();
        st.dependents.clear();
        st.flush_fast_entries();
    }

    // ----- invalidation ------------------------------------------------------

    /// Processes pending interpreter and RDL events, performing
    /// Definition 1 invalidation.
    pub fn process_events(&self, interp: &mut Interp) {
        let ievents = interp.drain_events();
        let revents = self.rdl.drain_events();
        if ievents.is_empty() && revents.is_empty() {
            return;
        }
        let mut st = self.state.borrow_mut();
        // Inferred annotations on methods whose body just changed: the
        // signature was derived from the *old* body, so it is retracted
        // (not enforced) once the main borrow ends — see below.
        let mut retract: Vec<MethodKey> = Vec::new();
        for ev in ievents {
            st.phase.note_annotation(); // method creation happens in the
                                        // annotate/metaprogramming phase
            match ev {
                InterpEvent::MethodRedefined {
                    class,
                    name,
                    class_level,
                    old_id,
                    new_id,
                } => {
                    let unchanged = Self::redefinition_unchanged(
                        &st,
                        interp,
                        class,
                        &name,
                        class_level,
                        old_id,
                    );
                    if let Some(new_cfg) = unchanged {
                        // Same body: re-point cached derivations at the new
                        // entry id instead of invalidating (dev-mode reload
                        // CFG diffing, paper §4). Store the *freshly lowered*
                        // CFG under the new id — the shape is identical but
                        // its spans are current, so a later recheck blames
                        // post-reload source locations.
                        st.cfgs.insert(new_id, Arc::new(new_cfg));
                        let mut repointed: Vec<MethodKey> = Vec::new();
                        for (key, entry) in st.cache.iter_mut() {
                            if entry.method_entry_id == old_id {
                                entry.method_entry_id = new_id;
                                repointed.push(*key);
                            }
                        }
                        // The derivation survives the reload, but any fast
                        // entry was patched against the retired entry id:
                        // deoptimize, and let the next guarded dispatch
                        // re-admit it against the new id.
                        for key in &repointed {
                            st.depatch(key);
                        }
                    } else {
                        let key = MethodKey {
                            class: interp.registry.name_sym(class),
                            class_level,
                            method: Sym::intern(&name),
                        };
                        Self::invalidate(&mut st, &key, true);
                        if let Some(shared) = self.shared.borrow().as_ref() {
                            shared.evict_with_dependents(&key);
                        }
                        // An inferred signature was evidence about the
                        // old body, not user intent about the new one:
                        // retract it rather than enforce it against a
                        // body it never saw.
                        if self
                            .rdl
                            .entry(&key)
                            .is_some_and(|e| e.source == AnnotationSource::Inferred)
                        {
                            retract.push(key);
                        }
                    }
                    // The retired entry id can never be dispatched again;
                    // dropping its CFG keeps long reload sessions bounded.
                    st.cfgs.remove(&old_id);
                }
                InterpEvent::MethodRemoved {
                    class,
                    name,
                    class_level,
                } => {
                    let key = MethodKey {
                        class: interp.registry.name_sym(class),
                        class_level,
                        method: Sym::intern(&name),
                    };
                    Self::invalidate(&mut st, &key, true);
                    if let Some(shared) = self.shared.borrow().as_ref() {
                        shared.evict_with_dependents(&key);
                    }
                }
                InterpEvent::ModuleIncluded { class, module } => {
                    // A post-first-call include changes annotation
                    // resolution for the including class's chain: module
                    // annotations may shadow ancestor annotations.
                    self.invalidate_module_shadowed(&mut st, interp, class, module);
                    // Directly cached derivations self-heal lazily (version
                    // mismatch at the next check) — a patched fast entry
                    // skips that check, so deoptimize everything.
                    st.flush_fast_entries();
                }
                InterpEvent::MethodAdded { .. } => {
                    // New methods have no cached derivations, and directly
                    // cached overridees self-heal via the entry-id check.
                }
            }
        }
        for ev in revents {
            st.phase.note_annotation();
            match ev {
                // Adding a new arm re-checks the method itself (version
                // mismatch at next hit) but leaves dependents valid —
                // the §4 "Cache Invalidation" intersection subtlety.
                // (Shared-tier eviction fans out via the RdlEventSink.)
                RdlEvent::ArmAdded(key) => {
                    if let Some(old) = st.cache.remove(&key) {
                        st.depatch(&key);
                        Self::unlink(&mut st, &key, &old);
                    }
                    // Version bumped: the memoised fingerprints of this
                    // key's retired versions can never be probed again —
                    // drop them so long reload sessions stay bounded.
                    st.sig_fps.retain(|(k, _), _| *k != key);
                }
                RdlEvent::TypeReplaced(key) => {
                    Self::invalidate(&mut st, &key, true);
                    st.sig_fps.retain(|(k, _), _| *k != key);
                }
                // A brand-new annotation can shadow an ancestor's along
                // some receiver chain — a resolution change, not a
                // signature change, so it needs its own invalidation.
                RdlEvent::TypeAdded(key) => {
                    self.invalidate_shadowed(&mut st, interp, &key);
                }
            }
        }
        // Retraction mutates the type table and fans out through the
        // event sinks (fast-entry flush, shared-tier eviction), which
        // must not run under the state borrow. The retractions' own
        // events are then drained by re-entering — guaranteed to
        // terminate because retracted entries are gone.
        drop(st);
        let mut retracted = false;
        for key in &retract {
            retracted |= self.rdl.retract_inferred(key);
        }
        if retracted {
            self.process_events(interp);
        }
    }

    /// If the redefinition is body-identical (per CFG shape), returns the
    /// freshly lowered CFG of the new body (same shape, current spans).
    fn redefinition_unchanged(
        st: &EngineState,
        interp: &Interp,
        class: ClassId,
        name: &str,
        class_level: bool,
        old_id: u64,
    ) -> Option<MethodCfg> {
        let old_cfg = st.cfgs.get(&old_id)?;
        let found = if class_level {
            interp.registry.find_smethod(class, name)
        } else {
            interp.registry.find_method(class, name)
        };
        let (_, entry) = found?;
        let new_cfg = lower_entry(&entry)?;
        if new_cfg.same_shape(old_cfg) {
            Some(new_cfg)
        } else {
            None
        }
    }

    /// Removes the reverse-dependency edges (dep → `key`) a retired cache
    /// entry had registered. Without this, edges from superseded
    /// derivations accumulate across reload sessions — the map grows
    /// without bound and a later change to a long-gone dependency
    /// spuriously invalidates (and re-checks) methods whose *current*
    /// derivation never consulted it.
    fn unlink(st: &mut EngineState, key: &MethodKey, entry: &CacheEntry) {
        for dep in &entry.deps {
            if let Some(set) = st.dependents.get_mut(dep) {
                set.remove(key);
                if set.is_empty() {
                    st.dependents.remove(dep);
                }
            }
        }
        for nd in &entry.neg_deps {
            if let Some(set) = st.neg_dependents.get_mut(nd) {
                set.remove(key);
                if set.is_empty() {
                    st.neg_dependents.remove(nd);
                }
            }
        }
    }

    /// Removes a cache entry and (optionally) every entry that depends on
    /// it — Definition 1. Counts only actual removals: invalidating a key
    /// that was never cached (or already invalidated) is a no-op, not a
    /// statistic.
    fn invalidate(st: &mut EngineState, key: &MethodKey, with_dependents: bool) {
        if let Some(old) = st.cache.remove(key) {
            st.stats.invalidations += 1;
            st.depatch(key);
            Self::note_invalidated(st, key);
            Self::unlink(st, key, &old);
        }
        if with_dependents {
            Self::invalidate_dependents_of(st, key);
        }
    }

    /// Records an invalidation in the flight recorder (and, when the
    /// bytecode tier holds a fast entry for the key, the matching deopt).
    fn note_invalidated(st: &EngineState, key: &MethodKey) {
        if let Some(obs) = &st.obs {
            obs.record(hb_obs::EventKind::Invalidate, *key);
            if st.tier.is_some() {
                obs.record(hb_obs::EventKind::Deopt, *key);
            }
        }
    }

    /// Removes every cache entry whose derivation consulted `key` —
    /// Definition 1(2).
    fn invalidate_dependents_of(st: &mut EngineState, key: &MethodKey) {
        if let Some(deps) = st.dependents.remove(key) {
            Self::invalidate_all(st, deps);
        }
    }

    /// Removes the cache entries of `dependents`, counting each actual
    /// removal as a dependent invalidation.
    fn invalidate_all(st: &mut EngineState, dependents: KeySet) {
        for d in dependents {
            if let Some(old) = st.cache.remove(&d) {
                st.stats.dependent_invalidations += 1;
                st.depatch(&d);
                Self::note_invalidated(st, &d);
                Self::unlink(st, &d, &old);
            }
        }
    }

    /// Removes every cache entry whose derivation relied on a `(method,
    /// class_level)` lookup resolving to nothing — the None→Some half of
    /// resolution-change invalidation, where there is no shadowed entry
    /// for [`Engine::invalidate_shadowed`]'s walk to find.
    fn invalidate_neg_dependents(st: &mut EngineState, method: Sym, class_level: bool) {
        if let Some(deps) = st.neg_dependents.remove(&(method, class_level)) {
            Self::invalidate_all(st, deps);
        }
    }

    /// Handles a resolution change: a new annotation at `key` (or a
    /// module annotation newly mixed into a chain) can *shadow* an
    /// ancestor's annotation — receivers that used to resolve
    /// `key.method` to the ancestor's signature now resolve to `key`'s,
    /// so derivations that consulted the shadowed signature are stale
    /// even though that signature itself never changed. This is
    /// Definition 1 validity about what (TApp) *resolves to*, not merely
    /// the entries it read. Directly cached methods self-heal (their
    /// stored `sig_version` no longer matches the newly resolved entry),
    /// but dependents must be invalidated here.
    fn invalidate_shadowed(&self, st: &mut EngineState, interp: &Interp, key: &MethodKey) {
        // None→Some: derivations that relied on this name having *no*
        // annotation anywhere (unannotated-constructor `new`, class-level
        // fallback misses) have no shadowed entry to find below — their
        // negative edges carry the invalidation.
        Self::invalidate_neg_dependents(st, key.method, key.class_level);
        let Some(cid) = interp.registry.lookup(key.class.as_str()) else {
            return;
        };
        // Chains through `key.class` itself.
        self.invalidate_shadowed_along(st, interp, cid, key.class, key);
        // A module annotation also shadows along the chain of every class
        // that mixed the module in.
        if interp.registry.class(cid).is_module {
            for i in 0..interp.registry.class_count() as u32 {
                let c = ClassId(i);
                if c != cid && interp.registry.ancestors(c).contains(&cid) {
                    self.invalidate_shadowed_along(st, interp, c, key.class, key);
                }
            }
        }
        // A new class-level annotation also shadows the checker's
        // fallback resolution of class-level calls through `Class`'s
        // *instance* chain (see the checker's main lookup).
        if key.class_level {
            if let Some(class_cid) = interp.registry.lookup("Class") {
                for (_, ancestor) in interp.registry.ancestor_syms(class_cid) {
                    let shadowed = MethodKey {
                        class: ancestor,
                        class_level: false,
                        method: key.method,
                    };
                    if self.rdl.entry(&shadowed).is_some() {
                        Self::invalidate_dependents_of(st, &shadowed);
                        break;
                    }
                }
            }
        }
    }

    /// Walks `start`'s ancestor chain past `new_class` and invalidates the
    /// dependents of the first annotation the new key now shadows along
    /// that chain. Local tier only: shared entries carry resolution
    /// witnesses, and replay at adoption rejects anything the new key
    /// shadows — evicting there would punish *other* tenants whose
    /// identical boot sequence emits this same event.
    fn invalidate_shadowed_along(
        &self,
        st: &mut EngineState,
        interp: &Interp,
        start: ClassId,
        new_class: Sym,
        key: &MethodKey,
    ) {
        let mut past_new = false;
        for (_, ancestor) in interp.registry.ancestor_syms(start) {
            if ancestor == new_class {
                past_new = true;
                continue;
            }
            if !past_new {
                continue;
            }
            let shadowed = MethodKey {
                class: ancestor,
                class_level: key.class_level,
                method: key.method,
            };
            if self.rdl.entry(&shadowed).is_some() {
                Self::invalidate_dependents_of(st, &shadowed);
                // The first match after `new_class` is what resolution
                // through this chain previously returned; deeper entries
                // were already shadowed by it.
                break;
            }
        }
    }

    /// [`Engine::invalidate_shadowed`] for a post-first-call `include`:
    /// every annotation keyed on the module may now shadow an annotation
    /// further along the including class's chain.
    fn invalidate_module_shadowed(
        &self,
        st: &mut EngineState,
        interp: &Interp,
        class: ClassId,
        module: ClassId,
    ) {
        let module_sym = interp.registry.name_sym(module);
        let module_keys: Vec<MethodKey> = self
            .rdl
            .keys()
            .into_iter()
            .filter(|k| k.class == module_sym)
            .collect();
        for mk in module_keys {
            // The include may make a previously-missing lookup resolve to
            // this module annotation (None→Some along the new chain).
            Self::invalidate_neg_dependents(st, mk.method, mk.class_level);
            self.invalidate_shadowed_along(st, interp, class, module_sym, &mk);
        }
    }

    /// Whether a derivation made elsewhere — by another tenant, or on a
    /// scheduler worker — against the world whose epoch fingerprints were
    /// `at` is valid here, now: Definition 1, validated structurally
    /// instead of by re-derivation.
    ///
    /// Equal epochs mean this tenant performed the identical
    /// table/hierarchy mutation sequence, so every dependency (witnesses
    /// *and* ivar/cvar/gvar types) holds by construction. Otherwise the
    /// class hierarchy and variable types, which have no per-use
    /// witnesses (check_sig makes is_subtype judgements straight off the
    /// hierarchy), must match exactly; the method's own signature must
    /// match by content; and every (TApp) resolution witness must replay
    /// against the current table to the same key, version and content
    /// fingerprint.
    #[allow(clippy::too_many_arguments)]
    fn derivation_valid(
        &self,
        st: &mut EngineState,
        interp: &Interp,
        at: (u64, u64, u64),
        own_sig_fp: u64,
        ann_key: MethodKey,
        entry: &TableEntry,
        deps: &[DepFact],
    ) -> bool {
        let now = world_epochs(interp, &self.rdl);
        if at == now {
            return true;
        }
        if at.1 != now.1 || at.2 != now.2 || own_sig_fp != st.sig_fp(ann_key, entry) {
            return false;
        }
        let gen = (
            self.rdl.table_generation(),
            interp.registry.hierarchy_generation(),
        );
        if st.dep_memo_gen != gen {
            st.dep_memo.clear();
            st.dep_memo_gen = gen;
        }
        deps.iter().all(|d| {
            match (
                d.resolution.target,
                st.replay(interp, &self.rdl, &d.resolution),
            ) {
                (None, None) => true,
                (Some(t), Some((k, v, fp))) => {
                    k == t && v == d.sig_version && fp == d.sig_fingerprint
                }
                _ => false,
            }
        })
    }

    /// Installs a derivation in the local cache — the one place every
    /// derivation lands, whether checked here, adopted from the shared
    /// tier or harvested from a worker: retires any stale entry under the
    /// key (old entry id or sig version), marks each dependency used,
    /// registers the Definition-1 dependency edges, publishes to the
    /// shared tier when asked, and inserts the entry.
    fn install(
        &self,
        st: &mut EngineState,
        key: MethodKey,
        entry: CacheEntry,
        publish: Option<Publication>,
    ) {
        if let Some(old) = st.cache.remove(&key) {
            st.depatch(&key);
            Self::unlink(st, &key, &old);
        }
        for dep in &entry.deps {
            // A real check marks every consulted annotation used; adoption
            // and harvest stand in for the check, so the Used statistic
            // must not diverge between warm and cold tenants.
            self.rdl.mark_used(dep);
            st.dependents.entry(*dep).or_default().insert(key);
        }
        for nd in &entry.neg_deps {
            st.neg_dependents.entry(*nd).or_default().insert(key);
        }
        if let Some(p) = publish {
            p.shared.insert(
                key,
                entry.method_entry_id,
                entry.sig_version,
                p.body_fp,
                p.own_sig_fp,
                p.epochs,
                p.deps,
                p.cast_sites,
            );
        }
        st.cache.insert(key, entry);
    }

    // ----- the just-in-time check ---------------------------------------------

    /// Ensures `cache_key`'s derivation is valid, running the static check
    /// if needed. `trigger` is the triggering call site for just-in-time
    /// checks, `None` when checking eagerly (`check_all`/`hb_lint`, where
    /// no call exists). `policy` is the already-resolved enforcement
    /// policy — it does not change the judgement, only the failure
    /// diagnostic's shadow note (the caller decides raise-vs-continue) —
    /// except [`CheckPolicy::Deferred`], where a just-in-time miss in
    /// both cache tiers enqueues the check onto the scheduler and returns
    /// `Ok(false)`: the call is admitted, the body is *not* marked
    /// checked. `Ok(true)` means the derivation is valid right now.
    #[allow(clippy::too_many_arguments)]
    fn ensure_checked(
        &self,
        interp: &mut Interp,
        info: &DispatchInfo,
        cache_key: &MethodKey,
        annotation_key: &MethodKey,
        table_entry: &TableEntry,
        trigger: Option<Span>,
        mut policy: CheckPolicy,
    ) -> Result<bool, HbError> {
        let caching = self.config.borrow().caching;
        {
            let st = self.state.borrow();
            if caching {
                if let Some(c) = st.cache.get(cache_key) {
                    if c.method_entry_id == info.entry.id && c.sig_version == table_entry.version {
                        drop(st);
                        self.state.borrow_mut().stats.cache_hits += 1;
                        if self.obs_active.get() {
                            self.obs_note_cache_hit(cache_key);
                        }
                        return Ok(true);
                    }
                }
            }
        }
        // Hot-tier miss: the first-call path. Everything below is either
        // a derivation (check_ns) or a shared-tier adoption
        // (shared_adopt_ns); the split feeds the multi-tenant probe.
        let t_first = std::time::Instant::now();
        // Computed up front because the shared-tier body fingerprint
        // covers the captured locals.
        let captured = captured_env(interp, &info.entry);
        // Probe the process-wide shared tier before doing any real work.
        // The body fingerprint (file content hash + definition span) is
        // O(1), so a warm tenant resolves its first call with a couple of
        // hash probes and never lowers, let alone checks. Another tenant's
        // derivation is valid for *this* tenant iff the body text matches
        // and `derivation_valid` holds.
        let body_fp = body_fingerprint(interp, &info.entry, captured.as_ref());
        let shared_fp: Option<(Arc<SharedCache>, u64)> = if caching {
            self.shared_cache().zip(body_fp)
        } else {
            None
        };
        if let Some((shared, body_fp)) = &shared_fp {
            if let Some(d) = shared.lookup(cache_key, info.entry.id, table_entry.version, *body_fp)
            {
                let mut st = self.state.borrow_mut();
                if self.derivation_valid(
                    &mut st,
                    interp,
                    (d.table_fp, d.hier_fp, d.var_fp),
                    d.own_sig_fingerprint,
                    *annotation_key,
                    table_entry,
                    &d.deps,
                ) {
                    self.rdl.mark_used(annotation_key);
                    st.stats.shared_hits += 1;
                    let adopt_ns = t_first.elapsed().as_nanos() as u64;
                    st.stats.shared_adopt_ns += adopt_ns;
                    if let Some(obs) = &st.obs {
                        obs.first_request.record(adopt_ns);
                        obs.record_span(hb_obs::EventKind::SharedAdopt, *cache_key, adopt_ns);
                    }
                    // Cast sites are facts about the derivation, not about
                    // who ran the checker — replicate them so warm tenants
                    // report Table-1 Casts identically to cold ones.
                    st.stats.cast_sites.extend(d.cast_sites.iter().copied());
                    let adopted =
                        CacheEntry::from_facts(info.entry.id, table_entry.version, &d.deps);
                    self.install(&mut st, *cache_key, adopted, None);
                    return Ok(true);
                }
            }
        }
        // Miss in both tiers: lower (or fetch) the body CFG.
        let cfg = self.cfg_for(&info.entry).ok_or_else(|| {
            HbError::new(
                ErrorKind::Internal,
                format!("cannot lower body of {}", cache_key.display()),
                info.span,
            )
        })?;
        // Deferred admission: a just-in-time miss in both tiers does not
        // run the checker on the caller's thread. The engine extracts an
        // owned `CheckTask` (body CFG, signature, world snapshot with its
        // epoch fingerprints), enqueues it, and admits the call under
        // full dynamic checks — Shadow semantics, so soundness is
        // unchanged: the body is only marked checked once the worker's
        // derivation lands at harvest and its fingerprints still match.
        if policy == CheckPolicy::Deferred {
            if let Some(call) = trigger {
                let mut st = self.state.borrow_mut();
                let latched = st.in_flight.contains(cache_key);
                // Backpressure: at the high-water cap, admitting another
                // *new* key would grow the scheduler queue without bound
                // (e.g. while the pool is paused or saturated). Shed this
                // call to a synchronous Enforce check instead — already
                // latched keys still admit, since they add no queue depth.
                if !latched && st.in_flight.len() >= self.deferred_cap.get() {
                    st.stats.deferred_shed += 1;
                    if let Some(obs) = &st.obs {
                        obs.record(hb_obs::EventKind::TaskShed, *cache_key);
                    }
                    drop(st);
                    policy = CheckPolicy::Enforce;
                } else {
                    st.stats.deferred_admissions += 1;
                    if !latched {
                        if let Some(obs) = &st.obs {
                            obs.note_admitted(*cache_key);
                            obs.first_request
                                .record(t_first.elapsed().as_nanos() as u64);
                        }
                        drop(st);
                        self.defer(
                            interp,
                            *cache_key,
                            *annotation_key,
                            table_entry,
                            &info.entry,
                            policy,
                            Some(call),
                        );
                    }
                    return Ok(false);
                }
            }
        }
        if self.obs_active.get() {
            if let Some(obs) = &self.state.borrow().obs {
                obs.record(hb_obs::EventKind::CheckStart, *cache_key);
            }
        }
        let reg_info = RegistryInfo(&interp.registry);
        let result = check_sig(&CheckRequest {
            cfg: &cfg,
            self_class: cache_key.class.as_str(),
            class_level: cache_key.class_level,
            sig: &table_entry.sig,
            ann_key: *annotation_key,
            ann_span: table_entry.span,
            info: &reg_info,
            rdl: self.rdl.as_ref(),
            captured: captured.as_ref(),
            opts: &self.check_opts,
            policy,
        });
        let check_ns = t_first.elapsed().as_nanos() as u64;
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                let code = e.code();
                let mut diag = e.into_diagnostic();
                anchor_blame(&mut diag, trigger, table_entry.span);
                let message = format!(
                    "type error in {} (checked at call): {}",
                    cache_key.display(),
                    diag.message
                );
                let mut st = self.state.borrow_mut();
                if let Some(obs) = &st.obs {
                    obs.first_request.record(check_ns);
                }
                self.log_check(&mut st, *cache_key, CheckVerdict::Blame(code), check_ns);
                st.phase.note_check();
                drop(st);
                self.rdl.record_diagnostic(diag.clone());
                let span = diag.span;
                return Err(HbError::with_diagnostic(
                    ErrorKind::TypeBlame,
                    message,
                    span,
                    diag,
                ));
            }
        };
        // The signature itself is "used during type checking" (Table 1's
        // Used column counts generated annotations consulted either as a
        // callee type or as the checked method's own signature).
        self.rdl.mark_used(annotation_key);
        let mut st = self.state.borrow_mut();
        if let Some(obs) = &st.obs {
            obs.first_request.record(check_ns);
        }
        self.log_check(&mut st, *cache_key, CheckVerdict::Pass, check_ns);
        st.stats.checked_methods.insert(cache_key.display());
        st.stats
            .cast_sites
            .extend(outcome.cast_sites.iter().copied());
        st.phase.note_check();
        if caching {
            // Publish to the shared tier with each dependency's current
            // signature version and content fingerprint, so foreign
            // tenants can validate without re-deriving. (Proc-backed
            // bodies publish too: their captured type environment is
            // folded into the body fingerprint, so only tenants whose
            // captured locals have identical types can adopt.)
            let publish = shared_fp.map(|(shared, body_fp)| {
                let deps = outcome
                    .resolutions
                    .iter()
                    .map(|res| {
                        let (v, fp) = res
                            .target
                            .and_then(|t| self.rdl.entry(&t).map(|e| (t, e)))
                            .map_or((0, 0), |(t, e)| (e.version, st.sig_fp(t, &e)));
                        DepFact {
                            resolution: *res,
                            sig_version: v,
                            sig_fingerprint: fp,
                        }
                    })
                    .collect();
                Publication {
                    shared,
                    body_fp,
                    own_sig_fp: st.sig_fp(*annotation_key, table_entry),
                    epochs: world_epochs(interp, &self.rdl),
                    deps,
                    cast_sites: outcome.cast_sites.iter().copied().collect(),
                }
            });
            let derived = CacheEntry {
                method_entry_id: info.entry.id,
                sig_version: table_entry.version,
                neg_deps: neg_deps(outcome.resolutions.iter()),
                deps: outcome.deps,
            };
            self.install(&mut st, *cache_key, derived, publish);
        }
        Ok(true)
    }

    #[allow(clippy::too_many_arguments)]
    fn dynamic_arg_check(
        &self,
        interp: &Interp,
        info: &DispatchInfo,
        entry: &TableEntry,
        args: &[Value],
        key: &MethodKey,
        annotation_key: &MethodKey,
        policy: CheckPolicy,
    ) -> Result<(), HbError> {
        self.state.borrow_mut().stats.dyn_arg_checks += 1;
        self.rdl.inner.borrow_mut().dyn_checks_run += 1;
        let mut arity_ok = false;
        for arm in &entry.sig.arms {
            if !arm.accepts_arity(args.len()) {
                continue;
            }
            arity_ok = true;
            let all = args.iter().enumerate().all(|(i, a)| match arm.param_at(i) {
                // Var-free params (the common case) are checked in place;
                // only polymorphic annotations pay the erase-and-rebuild.
                Some(pt) if pt.has_vars() => value_conforms(interp, a, &pt.erase_vars()),
                Some(pt) => value_conforms(interp, a, pt),
                None => false,
            });
            if all {
                return Ok(());
            }
        }
        let got: Vec<String> = args.iter().map(|a| interp.class_name_of(a)).collect();
        let message = if arity_ok {
            format!(
                "dynamic type check failed calling {}: arguments ({}) do not match {}",
                key.display(),
                got.join(", "),
                entry.sig
            )
        } else {
            format!(
                "dynamic type check failed calling {}: wrong number of arguments ({})",
                key.display(),
                args.len()
            )
        };
        let mut diag = TypeDiagnostic::error(
            DiagCode::DynamicArgCheck,
            message.clone(),
            info.span,
            BlameTarget::Annotation(*annotation_key),
        )
        .with_method(*key)
        .with_label(
            DiagLabel::new(
                LabelRole::BlamedAnnotation,
                format!("annotation `{}` declared here", entry.sig),
                entry.span,
            )
            .with_method(*annotation_key),
        )
        .with_label(DiagLabel::new(
            LabelRole::CallSite,
            "rejected call made here",
            info.span,
        ));
        if policy == CheckPolicy::Shadow {
            diag.labels.push(CheckPolicy::shadow_note());
        }
        self.rdl.record_diagnostic(diag.clone());
        Err(HbError::with_diagnostic(
            ErrorKind::ContractBlame,
            message,
            info.span,
            diag,
        ))
    }

    /// Eager whole-program checking: walks every annotated, checkable
    /// method and checks it *now*, without waiting for a triggering call
    /// — the CI-linter mode behind `hb_lint`. Successful derivations are
    /// cached (and published to the shared tier) exactly as just-in-time
    /// checks are, so an eager pass also warms the caches; failures are
    /// returned as structured diagnostics, one per failing method, in
    /// deterministic key order.
    ///
    /// Note the semantic difference from the just-in-time mode: methods
    /// whose annotation class is a module are checked against the module
    /// itself (there may be no instantiating call to name a mix-in
    /// class), and methods never defined (annotation without a body) are
    /// skipped.
    /// Enumerates the whole-program check set — every annotated,
    /// checkable, non-`Off` method with its resolved policy — in
    /// deterministic key order. The single source of eligibility truth
    /// for the serial and parallel `check_all` paths: a rule added here
    /// cannot diverge between them (their byte-identical output is a CI
    /// gate).
    fn eligible_methods(&self, interp: &Interp) -> Vec<EligibleMethod> {
        let trivial = self.rdl.policies_trivial();
        let mut out = Vec::new();
        for (key, entry) in self.rdl.entries() {
            if !entry.check {
                continue;
            }
            // Eager checking never raises, so Enforce, Shadow and
            // Deferred behave identically here; Off skips the method
            // entirely.
            let policy = if trivial {
                CheckPolicy::Enforce
            } else {
                self.rdl.policy_for(&key, &key)
            };
            if policy == CheckPolicy::Off {
                continue;
            }
            let Some(cid) = interp.registry.lookup(key.class.as_str()) else {
                continue;
            };
            let found = if key.class_level {
                interp.registry.find_smethod(cid, key.method.as_str())
            } else {
                interp.registry.find_method(cid, key.method.as_str())
            };
            let Some((owner, mentry)) = found else {
                continue;
            };
            if !mentry.is_checkable() {
                continue;
            }
            out.push(EligibleMethod {
                key,
                entry,
                cid,
                owner,
                mentry,
                policy,
            });
        }
        out
    }

    pub fn check_all(&self, interp: &mut Interp) -> Vec<TypeDiagnostic> {
        self.process_events(interp);
        let mut out = Vec::new();
        for m in self.eligible_methods(interp) {
            let info = DispatchInfo {
                recv_class: m.cid,
                class_level: m.key.class_level,
                owner: m.owner,
                name: m.key.method,
                entry: m.mentry,
                span: m.entry.span,
            };
            if let Err(e) =
                self.ensure_checked(interp, &info, &m.key, &m.key, &m.entry, None, m.policy)
            {
                if let Some(d) = e.diagnostic() {
                    out.push(d.clone());
                }
            }
        }
        // Stable reporting order, shared with the parallel path: golden
        // tests and `hb_lint --json` byte-compare this, so it must not
        // depend on interning order (the historical `entries()` order) or
        // worker interleaving.
        sort_diagnostics(&mut out);
        out
    }

    /// [`Engine::check_all`] fanned across the concurrent scheduler:
    /// every annotated, checkable method is captured as a [`CheckTask`]
    /// against one shared world snapshot and checked on `jobs` workers;
    /// passing derivations are validated and adopted at harvest (caching
    /// and publishing exactly as synchronous checks do); then a serial
    /// sweep — now running against warm caches — re-derives only the
    /// failures, guaranteeing diagnostics byte-identical to the serial
    /// path in the same sorted order.
    ///
    /// Uses the attached scheduler if any; otherwise an ephemeral
    /// `jobs`-worker pool that is torn down before returning. `jobs <= 1`
    /// is exactly [`Engine::check_all`].
    pub fn check_all_parallel(&self, interp: &mut Interp, jobs: usize) -> Vec<TypeDiagnostic> {
        self.process_events(interp);
        // Land anything already in flight so deferred-admission results
        // do not interleave with the lint fan-out below.
        self.sched_harvest(interp);
        if jobs <= 1 {
            return self.check_all(interp);
        }
        let sched = match self.scheduler() {
            Some(s) => s,
            None => Arc::new(Scheduler::new(jobs)),
        };
        let caching = self.config.borrow().caching;
        for m in self.eligible_methods(interp) {
            // Already valid in the hot tier: the sweep will hit it; no
            // task needed.
            if caching {
                let st = self.state.borrow();
                if st.cache.get(&m.key).is_some_and(|c| {
                    c.method_entry_id == m.mentry.id && c.sig_version == m.entry.version
                }) {
                    continue;
                }
            }
            // A rejected submission (shut-down pool) simply leaves the
            // method for the serial sweep below.
            self.submit_check(
                interp, &sched, m.key, m.key, &m.entry, &m.mentry, m.policy, None, false,
            );
        }
        self.completions.wait_idle();
        self.sched_harvest(interp);
        // The deterministic sweep: adopted derivations are hot-tier hits;
        // only failures (never cached) re-derive, serially, producing the
        // exact diagnostics the serial path produces, already sorted.
        self.check_all(interp)
    }
}

/// Content fingerprint of an annotation's signature, used by the shared
/// tier to validate that a dependency means the *same thing* in the
/// adopting tenant's table (version counters alone are per-tenant and can
/// coincide across different codebases).
fn sig_fingerprint(entry: &TableEntry) -> u64 {
    hb_intern::fingerprint64(&entry.sig)
}

/// The captured locals of a `define_method` proc body, typed from their
/// runtime values — the just-in-time analogue of Fig. 2. `None` for other
/// bodies.
fn captured_env(interp: &Interp, entry: &hb_interp::MethodEntry) -> Option<TypeEnv> {
    match &entry.body {
        MethodBody::FromProc(p) => Some(
            p.env
                .collect_bindings()
                .into_iter()
                .map(|(k, v)| (k, type_of(interp, &v)))
                .collect(),
        ),
        _ => None,
    }
}

/// Anchors a checker diagnostic at the check that produced it: labels
/// the triggering call, and positions blame on code with no source span
/// (synthesized or core-library definitions). With a call site, the call
/// becomes the primary span and the spanless blame stays as an explicit
/// note; in eager mode no call exists, so the annotation under check
/// (`ann_span`) anchors it.
fn anchor_blame(diag: &mut TypeDiagnostic, trigger: Option<Span>, ann_span: Span) {
    let spanless = diag.span == Span::dummy();
    if let Some(call) = trigger {
        diag.labels.push(DiagLabel::new(
            LabelRole::CallSite,
            "checked just-in-time at this call",
            call,
        ));
        if spanless {
            diag.labels.push(DiagLabel::new(
                LabelRole::Note,
                "blamed code has no source span (synthesized or core-library definition)",
                Span::dummy(),
            ));
            diag.span = call;
        }
    } else if spanless {
        diag.span = ann_span;
    }
}

/// Cross-process body fingerprint: identifies the exact source text of a
/// definition by (file content hash, span range) in O(1) — no lowering, no
/// tree walk. Proc-backed bodies (`define_method`) additionally fold in
/// the captured type environment, because their derivations are judged
/// under those types (Fig. 2): two tenants share a proc derivation only
/// when the captured locals have identical types. `None` for builtins and
/// synthesised nodes without a stable source identity.
fn body_fingerprint(
    interp: &Interp,
    entry: &hb_interp::MethodEntry,
    captured: Option<&TypeEnv>,
) -> Option<u64> {
    let span = match &entry.body {
        MethodBody::Ast(def) => def.span,
        MethodBody::FromProc(p) => p.span,
        MethodBody::Builtin(_) => return None,
    };
    if span.lo == span.hi {
        return None;
    }
    let file = interp.source_map.file(span.file)?;
    // TypeEnv is a BTreeMap: iteration order is deterministic across
    // tenants.
    let captured: Vec<(&String, &hb_types::Type)> =
        captured.map(|env| env.iter().collect()).unwrap_or_default();
    Some(hb_intern::fingerprint64((
        file.content_hash(),
        span.lo,
        span.hi,
        captured,
    )))
}

/// Deoptimizes the whole fast-entry patch table the moment any RDL event
/// is emitted or enforcement configuration changes. Interpreter events are
/// handled differently (the dispatch fast path refuses to fire while
/// registry events are pending), but RDL mutations happen inside builtins
/// with no pending-event guard on the dispatch probe — so the flush must be
/// synchronous with the mutation.
struct FastFlushSink {
    tier: Rc<ExecTierState>,
}

impl RdlEventSink for FastFlushSink {
    fn on_rdl_event(&self, _ev: &RdlEvent) {
        self.tier.flush_all();
    }

    fn on_enforcement_changed(&self) {
        self.tier.flush_all();
    }
}

/// Lowers a checkable method entry to a CFG.
fn lower_entry(entry: &hb_interp::MethodEntry) -> Option<MethodCfg> {
    match &entry.body {
        MethodBody::Ast(def) => Some(lower_method(def)),
        MethodBody::FromProc(p) => Some(lower_block_body(&p.params, &p.body, p.span)),
        MethodBody::Builtin(_) => None,
    }
}

impl CallHook for Engine {
    fn before_call(
        &self,
        interp: &mut Interp,
        info: &DispatchInfo,
        recv: &Value,
        args: &[Value],
    ) -> Result<HookOutcome, HbError> {
        let stamp = self.dispatch_stamp(interp);
        let mut res = self.resolve_dispatch(interp, info, stamp);
        // Pre contracts run first, and even with checking disabled: they
        // are where metaprogramming libraries generate types (Fig. 1), so
        // skipping them would change program behaviour.
        if !res.pres.is_empty() {
            hb_rdl::pre::run_pres(
                &self.rdl,
                interp,
                info,
                res.cache_key,
                recv,
                args,
                &res.pres,
            )?;
        }
        if !self.config.borrow().enabled {
            return Ok(HookOutcome::default());
        }
        self.process_events(interp);
        // Scheduler completions land here, on the interpreter thread —
        // the default (scheduler-less) configuration pays one `Cell`
        // load, keeping the steady-state dispatch path untouched.
        if self.sched_active.get() {
            self.poll_completions(interp);
        }
        self.state.borrow_mut().stats.intercepted_calls += 1;
        // A pre that added a type (Fig. 1/Fig. 2), or an inferred
        // annotation retracted above, moves the stamp: re-resolve so this
        // very call sees the current annotation.
        let now = self.dispatch_stamp(interp);
        if now != stamp {
            res = self.resolve_dispatch(interp, info, now);
        }
        let Some((annotation_key, table_entry)) = &res.annotation else {
            return Ok(HookOutcome::default());
        };
        let (annotation_key, cache_key) = (*annotation_key, res.cache_key);

        // Enforcement policy. The trivial-configuration fast test is one
        // `Cell` load, so the Enforce-everywhere default (and with it the
        // steady-state cache-hit path) never probes the policy maps.
        let policy = if self.rdl.policies_trivial() {
            CheckPolicy::Enforce
        } else {
            self.resolve_policy(&cache_key, &annotation_key)
        };
        if policy == CheckPolicy::Off {
            // Type enforcement disabled for this method: no dynamic
            // argument check, no static check, and the body runs
            // unchecked (its own callees fall back to dynamic checks).
            return Ok(HookOutcome::default());
        }

        // Dynamic argument checks: only from unchecked callers, unless the
        // method is flagged always-check (the Rails params exception).
        let cfg = self.config.borrow();
        let need_dyn = cfg.dyn_arg_checks
            && (!interp.current_caller_checked() || table_entry.always_dyn_check);
        drop(cfg);
        let mut dyn_shadowed = false;
        if need_dyn {
            let dyn_result = self.dynamic_arg_check(
                interp,
                info,
                table_entry,
                args,
                &cache_key,
                &annotation_key,
                policy,
            );
            if let Err(e) = dyn_result {
                if policy != CheckPolicy::Shadow {
                    return Err(e);
                }
                // Shadow: the rejection is recorded (the diagnostic is
                // already in the store); the call proceeds.
                self.rdl.note_shadowed_blame();
                dyn_shadowed = true;
            }
        }

        if table_entry.check {
            return match self.ensure_checked(
                interp,
                info,
                &cache_key,
                &annotation_key,
                table_entry,
                Some(info.span),
                policy,
            ) {
                // A static pass normally marks the frame checked so callees
                // skip their dynamic checks — but the derivation assumed
                // the declared argument types, and a shadowed dynamic
                // rejection means this call's actual arguments violate
                // them. The frame stays unchecked: shadowing must not
                // extend static trust past a known-ill-typed boundary (and
                // the callees' own dynamic checks are what surfaces the
                // downstream blames the canary is there to observe).
                // `checked == false` is a deferred admission: the check is
                // in flight on the scheduler, so the frame likewise stays
                // unchecked until the derivation lands.
                Ok(checked) => {
                    let mark_checked = checked && !dyn_shadowed;
                    // Patch the checked fast prologue: subsequent dispatches
                    // of this `(receiver class, entry)` from checked callers
                    // skip the hook probe entirely. Sound only while every
                    // per-call decision this hook could make is statically
                    // known to be a no-op: derivation cached (`checked`),
                    // caching on, enforcement trivially Enforce, and the
                    // resolution patchable (no `pre` contract under this
                    // name anywhere, not flagged always-dynamic-check).
                    // Pres match along the whole chain, and a rename or
                    // rewire can change the chain without a flush, so the
                    // pre half is name-wide. Any event that could
                    // change one of these flushes or depatches the table.
                    if mark_checked
                        && interp.tier.elision_enabled()
                        && self.config.borrow().caching
                        && self.rdl.policies_trivial()
                        && res.patchable
                    {
                        interp.tier.patch(cache_key, info.recv_class, info.entry.id);
                    }
                    Ok(HookOutcome { mark_checked })
                }
                Err(e) if policy == CheckPolicy::Shadow && e.kind == ErrorKind::TypeBlame => {
                    // Shadow: the full check ran and blamed; its
                    // diagnostic is recorded. Execution continues, but the
                    // body is NOT marked checked — it failed, so its
                    // callees keep their dynamic argument checks.
                    self.rdl.note_shadowed_blame();
                    Ok(HookOutcome::default())
                }
                Err(e) => Err(e),
            };
        }
        Ok(HookOutcome::default())
    }
}
