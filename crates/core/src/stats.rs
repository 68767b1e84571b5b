//! Engine statistics feeding the evaluation tables.

use hb_rdl::MethodKey;
use hb_syntax::DiagCode;
use std::collections::{BTreeSet, VecDeque};

/// How a logged static check ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckVerdict {
    /// The derivation succeeded (and was cached).
    Pass,
    /// The check blamed, with the diagnostic's stable code. Blamed first
    /// calls used to be invisible in the log; now they are first-class
    /// entries.
    Blame(DiagCode),
}

impl CheckVerdict {
    /// True when the check passed.
    pub fn passed(self) -> bool {
        matches!(self, CheckVerdict::Pass)
    }
}

/// One static check performed (Table 2's "Chk'd" column counts these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckLogItem {
    pub key: MethodKey,
    /// Pass, or blame with its diagnostic code.
    pub outcome: CheckVerdict,
    /// Wall-clock nanoseconds the check took (lowering + `check_sig`,
    /// or the failed portion thereof).
    pub duration_ns: u64,
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Static checks that ran to a successful derivation (misses in both
    /// cache tiers). Blamed runs are counted separately in
    /// `checks_failed`, keeping first-call accounting (`shared_hits +
    /// checks_performed`) and per-derivation cost (`check_ns /
    /// checks_performed`) stable even when failures recur.
    pub checks_performed: u64,
    /// Static checks that ended in blame (the failures are also in
    /// `check_log` with their codes — a blamed first call is no longer
    /// invisible). Failures are never cached, so a repeatedly-called
    /// blamed method increments this on every call.
    pub checks_failed: u64,
    /// Blames swallowed by [`hb_rdl::CheckPolicy::Shadow`]: the check (or
    /// dynamic argument check) failed, the diagnostic was recorded, and
    /// the call proceeded anyway. A canary deploy watches this counter.
    pub shadowed_blames: u64,
    /// Calls answered from the per-engine derivation cache (hot tier).
    pub cache_hits: u64,
    /// First calls answered by adopting another tenant's derivation from
    /// the process-wide shared tier (no check run).
    pub shared_hits: u64,
    /// Nanoseconds spent on *successful* derivations (lowering +
    /// `check_sig`) — the numerator matching `checks_performed`.
    pub check_ns: u64,
    /// Nanoseconds spent on check runs that ended in blame — the
    /// numerator matching `checks_failed` (per-entry durations are in
    /// `check_log`).
    pub failed_check_ns: u64,
    /// Nanoseconds spent adopting shared derivations (lookup + structural
    /// validation) instead of deriving.
    pub shared_adopt_ns: u64,
    /// Calls that went through the engine hook.
    pub intercepted_calls: u64,
    /// Dispatch resolutions computed: misses of the engine's per-dispatch
    /// memo (receiver chain walked for `pre` contracts and the
    /// annotation). Zero in steady state; any type-table, `pre` or class
    /// hierarchy change clears the memo.
    pub dispatch_resolutions: u64,
    /// Check tasks this engine enqueued onto the concurrent scheduler
    /// (deferred JIT admissions and parallel `check_all` fan-out).
    pub sched_tasks_enqueued: u64,
    /// Scheduled tasks whose completions this engine harvested (pass,
    /// blame or contained panic).
    pub sched_tasks_completed: u64,
    /// Harvested completions discarded because their capture-time
    /// fingerprints no longer matched the engine's state at publication
    /// (entry id, signature version, or epoch/witness validation) — the
    /// stale results that are *never* adopted.
    pub sched_tasks_stale: u64,
    /// Cold calls admitted immediately under
    /// [`hb_rdl::CheckPolicy::Deferred`]: the static check was enqueued
    /// and the call proceeded under full dynamic checks.
    pub deferred_admissions: u64,
    /// Deferred admissions *shed* to a synchronous Enforce check because
    /// the in-flight queue hit its high-water cap
    /// (`HummingbirdBuilder::deferred_queue_cap`): under overload the
    /// engine stops deferring and pays the check inline rather than
    /// growing the queue without bound.
    pub deferred_shed: u64,
    /// Full snapshot fetches from the fleet daemon (boot-time warm fetch
    /// plus any delta fetch the daemon widened to a full one).
    pub fleet_fetches: u64,
    /// Delta fetches from the fleet daemon (entries past this tenant's
    /// watermark only).
    pub fleet_deltas: u64,
    /// Locally derived entries published back to the fleet daemon.
    pub fleet_publishes: u64,
    /// Eviction notices sent to the fleet daemon (families this tenant's
    /// type-table mutations retired).
    pub fleet_evictions: u64,
    /// Dynamic argument checks executed.
    pub dyn_arg_checks: u64,
    /// Cache invalidations of the method itself.
    pub invalidations: u64,
    /// Cache invalidations of dependents (Definition 1(2)).
    pub dependent_invalidations: u64,
    /// Method bodies compiled to register bytecode (bytecode tier only;
    /// bodies outside the compilable subset tree-walk and never count).
    pub bytecode_compiled: u64,
    /// Fast-entry patch events: a cached derivation admitted a
    /// `(receiver class, method entry)` pair onto its checked fast
    /// prologue (hook probe and dynamic argument checks compiled out).
    pub fast_entries_patched: u64,
    /// Deoptimizations: fast entries patched back to the guarded
    /// prologue because their derivation was invalidated (reload,
    /// annotation change, enforcement change, cache flush).
    pub deopts: u64,
    /// Candidate signatures the whole-program inference pass verified
    /// through the real checker (`Hummingbird::infer`): every candidate
    /// that survived the hypothesis-world fixpoint, whether or not its
    /// registration was new.
    pub inferred_verified: u64,
    /// Verified candidates actually registered as
    /// [`hb_rdl::AnnotationSource::Inferred`] annotations (a re-run that
    /// re-derives an identical signature verifies but does not re-adopt,
    /// so adoption stays idempotent and the epoch stream quiet).
    pub inferred_adopted: u64,
    /// Candidate signatures the checker refuted (each becomes an HB2001
    /// suggestion instead of an annotation).
    pub inferred_rejected: u64,
    /// Distinct `rdl_cast` sites seen by the checker (Table 1 "Casts").
    pub cast_sites: BTreeSet<(u32, u32, u32)>,
    /// Distinct methods statically checked.
    pub checked_methods: BTreeSet<String>,
    /// Annotate→check alternation groups (Table 1 "Phs").
    pub phases: u64,
    /// Live cache entries at snapshot time.
    pub cache_entries: usize,
    /// Log of checks performed (drained by the update experiment).
    /// Bounded: passes are naturally capped by the cache (one per
    /// method), but failures are never cached and recur on every call to
    /// a buggy endpoint, so the engine retains only the most recent
    /// [`DEFAULT_CHECK_LOG_CAP`] entries between drains (oldest first).
    pub check_log: VecDeque<CheckLogItem>,
}

/// Default retention bound for [`EngineStats::check_log`] between
/// `take_check_log` drains — same rationale as the diagnostics store's
/// bound: a long-running tenant re-hitting a blamed method must not grow
/// the log without limit. Embedders size the window via
/// `HummingbirdBuilder::check_log_cap`.
pub const DEFAULT_CHECK_LOG_CAP: usize = 4096;

/// Default high-water cap on in-flight deferred admissions
/// (`EngineStats::deferred_admissions` currently enqueued but not yet
/// harvested). At the cap, a cold call under
/// [`hb_rdl::CheckPolicy::Deferred`] sheds to a synchronous Enforce check
/// (`EngineStats::deferred_shed`) rather than growing the scheduler queue
/// without bound. Embedders size it via
/// `HummingbirdBuilder::deferred_queue_cap`.
pub const DEFAULT_DEFERRED_CAP: usize = 1024;

/// Tracks the paper's §5 "phases": a phase is a run of annotation events
/// followed by a run of static checks.
#[derive(Debug, Clone, Default)]
pub struct PhaseTracker {
    pending_annotations: bool,
    phases: u64,
    any_check: bool,
}

impl PhaseTracker {
    /// Notes that a type annotation (or method definition) executed.
    pub fn note_annotation(&mut self) {
        self.pending_annotations = true;
    }

    /// Notes that a static check ran; opens a new phase if annotations
    /// happened since the previous check.
    pub fn note_check(&mut self) {
        if self.pending_annotations || !self.any_check {
            self.phases += 1;
            self.pending_annotations = false;
        }
        self.any_check = true;
    }

    /// The number of completed phases.
    pub fn phases(&self) -> u64 {
        self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_phase_when_annotations_precede_all_checks() {
        let mut p = PhaseTracker::default();
        p.note_annotation();
        p.note_annotation();
        p.note_check();
        p.note_check();
        p.note_check();
        assert_eq!(p.phases(), 1);
    }

    #[test]
    fn interleaving_counts_phases() {
        // Rolify-style: define → check → define → check.
        let mut p = PhaseTracker::default();
        p.note_annotation();
        p.note_check();
        p.note_annotation();
        p.note_check();
        p.note_annotation();
        p.note_check();
        assert_eq!(p.phases(), 3);
    }

    #[test]
    fn checks_without_annotations_stay_in_phase() {
        let mut p = PhaseTracker::default();
        p.note_annotation();
        p.note_check();
        p.note_check();
        p.note_annotation();
        p.note_check();
        assert_eq!(p.phases(), 2);
    }
}
