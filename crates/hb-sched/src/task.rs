//! The `Send` check-task capture and its completion channel.
//!
//! A [`CheckTask`] is an owned snapshot of everything one `check_sig`
//! invocation needs — the lowered CFG, the signature under check, the
//! blame metadata of the triggering `CheckRequest`, the captured-local
//! type environment, and an `Arc`'d [`WorldSnapshot`] of the table and
//! hierarchy with its epoch fingerprints. Extraction happens at the
//! engine layer on the interpreter thread; execution happens on any
//! worker; the result travels back through the submitting engine's
//! [`CompletionQueue`] and is validated against the engine's *current*
//! state before anything lands (stale results are discarded, never
//! adopted).

use crate::world::WorldSnapshot;
use hb_check::{check_sig, CheckOptions, CheckRequest};
use hb_il::MethodCfg;
use hb_rdl::{CheckPolicy, MethodKey, Resolution};
use hb_syntax::{Span, TypeDiagnostic};
use hb_types::{MethodSig, TypeEnv};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One dependency fact of a derivation: the (TApp) resolution witness
/// plus the signature version and content fingerprint the target had
/// when the derivation was made (for a worker, *in the task's world
/// snapshot*). The engine validates these by replay against its current
/// table, and the shared tier carries them so other tenants adopt a
/// derivation the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepFact {
    pub resolution: Resolution,
    /// Version of the target's entry at capture time (0 when `target` is
    /// `None` — a negative witness has no entry).
    pub sig_version: u64,
    /// Content fingerprint of the target's signature at capture time.
    pub sig_fingerprint: u64,
}

/// How a scheduled check ended on the worker.
#[derive(Debug, Clone)]
pub enum TaskVerdict {
    /// The derivation succeeded against the task's world snapshot.
    Pass {
        /// Dependency facts (witnesses + at-capture versions/fingerprints).
        deps: Vec<DepFact>,
        /// Distinct `rdl_cast` sites the derivation encountered.
        cast_sites: Vec<(u32, u32, u32)>,
    },
    /// The check blamed; the structured diagnostic is exactly what a
    /// synchronous check would have produced.
    Blame(TypeDiagnostic),
    /// The check panicked. The panic is contained to this task — the
    /// worker thread and the pool survive — and surfaced as the payload
    /// message for the engine to turn into an `HB0011` diagnostic.
    Panicked(String),
}

/// A completed task travelling back to the submitting engine: the task's
/// identity and capture-time fingerprints (what staleness is judged
/// against) plus the verdict.
#[derive(Debug, Clone)]
pub struct TaskCompletion {
    pub cache_key: MethodKey,
    pub ann_key: MethodKey,
    /// Method-table entry id the checked CFG was lowered from.
    pub entry_id: u64,
    /// Annotation version the body was checked against.
    pub sig_version: u64,
    /// Cross-process body fingerprint (`None` for bodies without a stable
    /// source identity — those check fine but are not published to the
    /// shared tier).
    pub body_fp: Option<u64>,
    /// Content fingerprint of the checked method's own signature.
    pub own_sig_fp: u64,
    /// The world snapshot's `(table_fp, hier_fp, var_fp)` at capture.
    pub epochs: (u64, u64, u64),
    /// The triggering call site for deferred JIT admissions (`None` for
    /// eager parallel linting).
    pub trigger: Option<Span>,
    /// Whether the engine should record a blame diagnostic from this
    /// task (deferred admissions record; parallel-lint tasks leave blame
    /// reporting to the deterministic serial sweep).
    pub record_blame: bool,
    /// The policy the task ran under.
    pub policy: CheckPolicy,
    pub verdict: TaskVerdict,
    /// Wall-clock nanoseconds the worker spent on the check.
    pub duration_ns: u64,
    /// Nanoseconds the task sat queued between submission and a worker
    /// picking it up (0 when the submitter did not stamp
    /// [`CheckTask::submitted_at`]).
    pub queue_ns: u64,
}

/// An owned, `Send` capture of one static check (see the module docs).
pub struct CheckTask {
    /// The receiver-class cache key the derivation will be stored under.
    pub cache_key: MethodKey,
    /// The annotation providing the signature (may sit on an ancestor).
    pub ann_key: MethodKey,
    /// Where that annotation was registered.
    pub ann_span: Span,
    /// The (possibly intersection) signature under check.
    pub sig: MethodSig,
    /// Method-table entry id of the captured body.
    pub entry_id: u64,
    /// Annotation version under check.
    pub sig_version: u64,
    /// Cross-process body fingerprint, when the body has one.
    pub body_fp: Option<u64>,
    /// Content fingerprint of the annotation's signature.
    pub own_sig_fp: u64,
    /// The lowered body.
    pub cfg: Arc<MethodCfg>,
    /// Captured-local types for `define_method` proc bodies.
    pub captured: Option<TypeEnv>,
    /// The table/hierarchy world the check runs against.
    pub world: Arc<WorldSnapshot>,
    /// The enforcement policy the check runs under.
    pub policy: CheckPolicy,
    /// The triggering call site (deferred JIT admission) or `None`
    /// (parallel eager linting).
    pub trigger: Option<Span>,
    /// See [`TaskCompletion::record_blame`].
    pub record_blame: bool,
    /// Checker tunables.
    pub opts: CheckOptions,
    /// The submitting engine's completion channel.
    pub completions: Arc<CompletionQueue>,
    /// When the submitter enqueued the task. Stamped only when the
    /// submitting engine collects observability metrics; the worker
    /// turns it into [`TaskCompletion::queue_ns`].
    pub submitted_at: Option<Instant>,
}

impl CheckTask {
    /// Runs the check against the task's world snapshot and folds the
    /// outcome into a [`TaskVerdict`]. Pure with respect to the snapshot —
    /// callable from any thread.
    pub fn run(&self) -> TaskVerdict {
        let req = CheckRequest {
            cfg: &self.cfg,
            self_class: self.cache_key.class.as_str(),
            class_level: self.cache_key.class_level,
            sig: &self.sig,
            ann_key: self.ann_key,
            ann_span: self.ann_span,
            info: self.world.as_ref(),
            rdl: self.world.as_ref(),
            captured: self.captured.as_ref(),
            opts: &self.opts,
            policy: self.policy,
        };
        match check_sig(&req) {
            Ok(outcome) => {
                // Attach each dependency's at-capture version/fingerprint,
                // exactly as a tenant publishing to the shared tier does.
                let deps = outcome
                    .resolutions
                    .iter()
                    .map(|res| {
                        let (v, fp) = res
                            .target
                            .and_then(|t| self.world.table_entry(&t))
                            .map_or((0, 0), |e| (e.version, hb_intern::fingerprint64(&e.sig)));
                        DepFact {
                            resolution: *res,
                            sig_version: v,
                            sig_fingerprint: fp,
                        }
                    })
                    .collect();
                TaskVerdict::Pass {
                    deps,
                    cast_sites: outcome.cast_sites.iter().copied().collect(),
                }
            }
            Err(e) => TaskVerdict::Blame(e.into_diagnostic()),
        }
    }

    /// Folds this task and a verdict into the completion record sent back
    /// to the submitting engine.
    pub fn into_completion(
        self,
        verdict: TaskVerdict,
        duration_ns: u64,
        queue_ns: u64,
    ) -> TaskCompletion {
        TaskCompletion {
            cache_key: self.cache_key,
            ann_key: self.ann_key,
            entry_id: self.entry_id,
            sig_version: self.sig_version,
            body_fp: self.body_fp,
            own_sig_fp: self.own_sig_fp,
            epochs: self.world.epochs,
            trigger: self.trigger,
            record_blame: self.record_blame,
            policy: self.policy,
            verdict,
            duration_ns,
            queue_ns,
        }
    }
}

#[derive(Default)]
struct QueueState {
    done: Vec<TaskCompletion>,
    /// Tasks submitted but not yet completed (or abandoned).
    pending: usize,
}

/// The per-engine completion channel: workers push [`TaskCompletion`]s,
/// the owning engine drains them on its own thread (where the live table
/// and registry are reachable for staleness validation).
///
/// `has_ready` is a single relaxed atomic load, cheap enough for the
/// dispatch hot path to poll every intercepted call.
#[derive(Default)]
pub struct CompletionQueue {
    state: Mutex<QueueState>,
    idle: Condvar,
    ready: AtomicUsize,
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> CompletionQueue {
        CompletionQueue::default()
    }

    /// Registers one submitted task (balanced by [`complete`] or
    /// [`abandon`]).
    ///
    /// [`complete`]: CompletionQueue::complete
    /// [`abandon`]: CompletionQueue::abandon
    pub fn register(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).pending += 1;
    }

    /// Delivers a completed task and wakes quiescing waiters.
    pub fn complete(&self, c: TaskCompletion) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.done.push(c);
        st.pending = st.pending.saturating_sub(1);
        self.ready.fetch_add(1, Ordering::Release);
        drop(st);
        self.idle.notify_all();
    }

    /// Un-registers a task that will never run (scheduler shut down with
    /// the task still queued) so quiescing callers do not hang.
    pub fn abandon(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.pending = st.pending.saturating_sub(1);
        drop(st);
        self.idle.notify_all();
    }

    /// True when completions are waiting to be drained (one atomic load).
    pub fn has_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire) > 0
    }

    /// Takes every delivered completion, in delivery order.
    pub fn drain(&self) -> Vec<TaskCompletion> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.ready.store(0, Ordering::Release);
        std::mem::take(&mut st.done)
    }

    /// Blocks until every registered task has completed (or been
    /// abandoned). Completions delivered meanwhile stay queued for the
    /// caller's next [`drain`](CompletionQueue::drain).
    pub fn wait_idle(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.pending > 0 {
            st = self.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Tasks submitted but not yet completed.
    pub fn pending(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_and_completion_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CheckTask>();
        assert_send::<TaskCompletion>();
        assert_send::<Arc<CompletionQueue>>();
    }

    #[test]
    fn queue_tracks_pending_and_ready() {
        let q = CompletionQueue::new();
        q.register();
        q.register();
        assert_eq!(q.pending(), 2);
        assert!(!q.has_ready());
        q.abandon();
        assert_eq!(q.pending(), 1);
        let c = TaskCompletion {
            cache_key: MethodKey::instance("A", "m"),
            ann_key: MethodKey::instance("A", "m"),
            entry_id: 1,
            sig_version: 1,
            body_fp: None,
            own_sig_fp: 0,
            epochs: (0, 0, 0),
            trigger: None,
            record_blame: false,
            policy: CheckPolicy::Deferred,
            verdict: TaskVerdict::Panicked("x".into()),
            duration_ns: 1,
            queue_ns: 0,
        };
        q.complete(c);
        assert!(q.has_ready());
        q.wait_idle(); // returns immediately: nothing pending
        assert_eq!(q.drain().len(), 1);
        assert!(!q.has_ready());
    }
}
