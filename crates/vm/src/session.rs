//! A stateful VM session: translator + code cache + statistics.

use crate::cache::{CacheStats, CodeCache};
use crate::hints::StaticHints;
use crate::memo::{MemoBackend, MemoEntry, MemoKey, MemoizedOutcome, TranslationMemo};
use crate::translator::{TranslatedLoop, TranslationOutcome, Translator};
use crate::verify::DegradeReason;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use veal_accel::AcceleratorFamily;
use veal_ir::meter::ALL_PHASES;
use veal_ir::{CostMeter, LoopBody, Phase, PhaseBreakdown};
use veal_obs::{metrics, Event, HintKind, Histogram, Trace, TranslateStatus};

fn invoke_wall_ns() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| metrics::histogram("vm.invoke.wall_ns"))
}

/// Consecutive hint-validation failures before a loop's hints are
/// quarantined (the session stops consuming them and translates the loop
/// hint-less, sparing the per-invocation validation cost).
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Aggregated statistics of a VM session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Translation attempts actually performed (cache misses).
    pub translations: u64,
    /// Attempts that aborted (loop runs on the CPU).
    pub failures: u64,
    /// Total abstract instructions spent translating.
    pub translation_units: u64,
    /// Aggregated per-phase breakdown across all translations.
    pub breakdown: PhaseBreakdown,
    /// Hint validations performed (one per hint kind per translation).
    pub hint_validations: u64,
    /// Translations where at least one hint was rejected.
    pub degraded_translations: u64,
    /// Priority hints rejected (degraded to dynamic Swing/Height).
    pub priority_degradations: u64,
    /// CCA hints rejected (degraded to dynamic identification).
    pub cca_degradations: u64,
    /// Loops whose hints were quarantined after repeated failures.
    pub quarantined_loops: u64,
    /// Quarantines lifted because the caller supplied new hints (a fixed
    /// binary changes the hints fingerprint).
    pub quarantine_lifts: u64,
    /// Translations aborted by the budget watchdog (loop runs on the CPU).
    pub watchdog_aborts: u64,
}

impl VmStats {
    /// Average translation cost per performed translation.
    #[must_use]
    pub fn avg_cost(&self) -> f64 {
        if self.translations == 0 {
            0.0
        } else {
            self.translation_units as f64 / self.translations as f64
        }
    }
}

/// Host-side cost of family-mode dispatch, metered separately from
/// [`VmStats`]: concretization is real work this process does, but the
/// *simulated* machine's translation story must stay bit-identical to the
/// point-keyed path (point translations have no concretize step), so these
/// units never enter a session's breakdown or translation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcretizeStats {
    /// Family entries instantiated at this session's configuration.
    pub concretizations: u64,
    /// Abstract [`Phase::Concretize`] units charged for them.
    pub units: u64,
}

/// One loop invocation's outcome as seen by the VM.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The resident translation, if the loop runs on the accelerator.
    pub translated: Option<Arc<TranslatedLoop>>,
    /// Host cycles spent translating *on this invocation* (0 on a cache
    /// hit; one abstract meter unit ≈ one host cycle, matching the paper's
    /// instruction-count measurement).
    pub translation_cycles: u64,
}

/// A running co-designed VM: monitors invocations, translates on miss,
/// caches accelerator control, and remembers permanently unsupported loops
/// (the VM patches those call sites back to native code, so they are never
/// re-attempted).
#[derive(Debug)]
pub struct VmSession {
    translator: Translator,
    /// Cached [`Translator::fingerprint`] (the translator is immutable for
    /// the session's lifetime, so this is computed once).
    translator_fp: u64,
    cache: CodeCache<Arc<TranslatedLoop>>,
    rejected: HashSet<u64>,
    stats: VmStats,
    /// Optional cross-session translation memo (sweep engine, serving
    /// path). `None` keeps the session fully self-contained.
    memo: Option<Arc<dyn MemoBackend>>,
    /// Family mode: when set (and a memo is attached), misses are keyed on
    /// [`Translator::family_fingerprint`] and store one symbolic
    /// translation per `(loop, family, hints)`, concretized locally at this
    /// session's configuration.
    family: Option<Arc<AcceleratorFamily>>,
    /// Cached family fingerprint for the attached family.
    family_fp: u64,
    /// Session-level concretize meter (see [`ConcretizeStats`]).
    concretize: ConcretizeStats,
    /// Optional translation budget: a translation whose total cost exceeds
    /// this many abstract units is abandoned and the loop pinned to the CPU
    /// (watchdog against adversarial hints that inflate validation or
    /// scheduling work).
    budget: Option<u64>,
    /// Consecutive hint-validation failures per loop key, together with the
    /// fingerprint of the hints the streak was built on — different hints
    /// start a fresh streak.
    hint_failures: HashMap<u64, (u64, u32)>,
    /// Loops whose hints are no longer consulted (see
    /// [`QUARANTINE_THRESHOLD`]), mapped to the fingerprint of the hints
    /// that were quarantined. A caller supplying *different* hints (a fixed
    /// binary) lifts the quarantine.
    quarantined: HashMap<u64, u64>,
    /// Observability handle; disabled by default. Events mirror the stat
    /// updates exactly (see [`fold_vm_stats`]) and never alter them.
    trace: Trace,
}

impl VmSession {
    /// Creates a session with the paper's 16-entry code cache.
    #[must_use]
    pub fn new(translator: Translator) -> Self {
        Self::with_cache(translator, CodeCache::paper_default())
    }

    /// Creates a session with a custom code cache.
    #[must_use]
    pub fn with_cache(translator: Translator, cache: CodeCache<Arc<TranslatedLoop>>) -> Self {
        VmSession {
            translator_fp: translator.fingerprint(),
            translator,
            cache,
            rejected: HashSet::new(),
            stats: VmStats::default(),
            memo: None,
            family: None,
            family_fp: 0,
            concretize: ConcretizeStats::default(),
            budget: None,
            hint_failures: HashMap::new(),
            quarantined: HashMap::new(),
            trace: Trace::null(),
        }
    }

    /// Attaches a trace handle: the session emits the structured events
    /// documented in [`veal_obs::event`], and the translator gains its
    /// wall-clock profile. Statistics and all abstract-cost numbers are
    /// bit-identical with and without a trace.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.translator.set_trace(trace.clone());
        self.trace = trace;
        self
    }

    /// Caps any single translation at `units` abstract instructions. Past
    /// the cap the watchdog abandons the translation, pins the loop to the
    /// CPU, and the session charges only the work done up to the cap.
    #[must_use]
    pub fn with_translation_budget(mut self, units: u64) -> Self {
        self.budget = Some(units);
        self
    }

    /// Attaches a shared translation memo: on a code-cache miss the session
    /// consults `memo` before translating, and publishes fresh translations
    /// into it.
    ///
    /// Statistics stay **bit-identical** with or without a memo: a memo hit
    /// charges the stored outcome's full phase breakdown exactly as the
    /// fresh translation would (the simulated machine still pays for the
    /// translation — only this process's wall clock is spared).
    #[must_use]
    pub fn with_memo(self, memo: Arc<TranslationMemo>) -> Self {
        self.with_memo_backend(memo)
    }

    /// Like [`VmSession::with_memo`], for any [`MemoBackend`] — the serving
    /// path attaches a [`crate::ShardedMemo`] here. The bit-identity
    /// guarantee is the backend's responsibility: stored outcomes replay
    /// their full breakdown regardless of which thread computed them.
    #[must_use]
    pub fn with_memo_backend(mut self, memo: Arc<dyn MemoBackend>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Switches the memo path to **family mode**: misses store one
    /// symbolic translation under the family fingerprint, and every lookup
    /// (hit or miss) concretizes it at this session's configuration —
    /// so N member configurations share one memo entry instead of N.
    ///
    /// Outcomes and [`VmStats`] stay bit-identical to the point-keyed path;
    /// the real host cost of concretization is metered separately in
    /// [`VmSession::concretize_stats`]. A translator whose configuration is
    /// not a member of `family` (different latency model, out-of-range
    /// axis) keeps the point-keyed path — a symbolic translation would not
    /// be valid for it.
    #[must_use]
    pub fn with_family(mut self, family: Arc<AcceleratorFamily>) -> Self {
        if family.contains(self.translator.config()) {
            self.family_fp = self.translator.family_fingerprint(&family);
            self.family = Some(family);
        }
        self
    }

    /// The translator in use.
    #[must_use]
    pub fn translator(&self) -> &Translator {
        &self.translator
    }

    /// Family-mode concretization telemetry (zero outside family mode).
    #[must_use]
    pub fn concretize_stats(&self) -> ConcretizeStats {
        self.concretize
    }

    /// Handles one invocation of the loop identified by `key`.
    ///
    /// On a cache hit the stored translation is returned at zero cost; on a
    /// miss the loop is translated (and the cost charged); permanently
    /// rejected loops return a baseline disposition at zero cost after the
    /// first attempt.
    pub fn invoke(&mut self, key: u64, body: &LoopBody, hints: &StaticHints) -> Invocation {
        let _wall = self.trace.timer(invoke_wall_ns());
        if self.rejected.contains(&key) {
            self.trace.emit(|| Event::PinnedSkip { key });
            return Invocation {
                translated: None,
                translation_cycles: 0,
            };
        }
        // A quarantined loop whose caller now supplies *different* hints —
        // a rebuilt binary with the hints fixed — gets a fresh chance: the
        // quarantine and its failure streak reset, and the resident
        // hint-less translation is dropped. This runs *before* the cache
        // lookup: while quarantined, the translation cached under this key
        // was produced hint-less, so a cache hit would keep serving it and
        // the corrected hints would only take effect once the entry
        // happened to be evicted. Only quarantined keys pay the
        // fingerprint hash here, keeping the hot hit path untouched.
        if let Some(&quarantined_fp) = self.quarantined.get(&key) {
            if quarantined_fp != hints.fingerprint() {
                self.quarantined.remove(&key);
                self.hint_failures.remove(&key);
                self.cache.remove(key);
                self.stats.quarantine_lifts += 1;
                self.trace.emit(|| Event::QuarantineLift { key });
            }
        }
        if let Some(t) = self.cache.get(key) {
            let hit = Invocation {
                translated: Some(Arc::clone(t)),
                translation_cycles: 0,
            };
            self.trace.emit(|| Event::CacheHit { key });
            return hit;
        }
        let supplied_fp = hints.fingerprint();
        // Quarantined hints are not consulted (nor re-validated): the loop
        // translates as a hint-less binary would. The substitution happens
        // before the memo key is formed, so replays stay consistent.
        let hintless = StaticHints::none();
        let (hints, hints_fp) = if self.quarantined.contains_key(&key) {
            let fp = hintless.fingerprint();
            (&hintless, fp)
        } else {
            (hints, supplied_fp)
        };
        self.trace.emit(|| Event::TranslateStart {
            key,
            loop_hash: body.content_hash(),
        });
        // Code-cache miss: consult the shared memo when attached, translate
        // otherwise; fresh results are published back into the memo. The
        // backend may coalesce concurrent misses onto one translation
        // (single-flight); the stored outcome replays identically either
        // way.
        let outcome: MemoizedOutcome = match self.memo.clone() {
            Some(memo) => {
                let translator = &self.translator;
                let family_mode = self.family.is_some();
                let mkey = MemoKey {
                    loop_hash: body.content_hash(),
                    translator_fp: if family_mode {
                        self.family_fp
                    } else {
                        self.translator_fp
                    },
                    hints_fp,
                };
                let mut computed_here = false;
                let (entry, hit) = memo.get_or_insert_with(&mkey, &mut || {
                    computed_here = true;
                    if family_mode {
                        // One symbolic translation per (loop, family,
                        // hints); every member configuration concretizes
                        // it below.
                        MemoEntry::Family(Arc::new(translator.translate_symbolic(body, hints)))
                    } else {
                        let fresh: TranslationOutcome = translator.translate(body, hints);
                        MemoEntry::Point(MemoizedOutcome {
                            result: fresh.result.map(Arc::new),
                            breakdown: fresh.breakdown,
                            verdict: fresh.verdict,
                        })
                    }
                });
                // `hit` answers "did the table answer directly"; a coalesced
                // outcome computed by another thread also arrives without a
                // local translation and traces as a hit.
                if hit || !computed_here {
                    self.trace.emit(|| Event::MemoHit { key });
                } else {
                    self.trace.emit(|| Event::MemoMiss { key });
                }
                match entry {
                    MemoEntry::Point(m) => m,
                    MemoEntry::Family(sym) => {
                        // Hit or miss, the family entry is instantiated at
                        // this session's configuration. The outcome is
                        // bit-identical to a direct translation; the real
                        // host work lands on the concretize meter only.
                        let mut cm = CostMeter::new();
                        let fresh = self.translator.concretize(&sym, &mut cm);
                        self.concretize.concretizations += 1;
                        self.concretize.units += cm.breakdown().get(Phase::Concretize);
                        MemoizedOutcome {
                            result: fresh.result.map(Arc::new),
                            breakdown: fresh.breakdown,
                            verdict: fresh.verdict,
                        }
                    }
                }
            }
            None => {
                let fresh: TranslationOutcome = self.translator.translate(body, hints);
                MemoizedOutcome {
                    result: fresh.result.map(Arc::new),
                    breakdown: fresh.breakdown,
                    verdict: fresh.verdict,
                }
            }
        };
        // From here on, memo hits and fresh translations are
        // indistinguishable: the simulated machine pays the stored breakdown
        // either way, so memoized sweeps stay bit-identical.
        self.stats.hint_validations += outcome.verdict.checks();
        if outcome.verdict.is_degraded() {
            self.stats.degraded_translations += 1;
            for reason in outcome.verdict.degradations() {
                let kind = match &reason {
                    DegradeReason::PriorityHint(_) => {
                        self.stats.priority_degradations += 1;
                        HintKind::Priority
                    }
                    DegradeReason::CcaHint(_) => {
                        self.stats.cca_degradations += 1;
                        HintKind::Cca
                    }
                };
                self.trace.emit(|| Event::HintDegrade {
                    key,
                    kind,
                    reason: reason.to_string(),
                });
            }
            let streak = self.hint_failures.entry(key).or_insert((hints_fp, 0));
            if streak.0 != hints_fp {
                // Different hints than the streak was built on: the old
                // failures say nothing about these, so start over.
                *streak = (hints_fp, 0);
            }
            streak.1 += 1;
            if streak.1 >= QUARANTINE_THRESHOLD && self.quarantined.insert(key, hints_fp).is_none()
            {
                self.stats.quarantined_loops += 1;
                self.trace.emit(|| Event::Quarantine { key });
            }
        } else if outcome.verdict.checks() > 0 {
            // A clean validation resets the failure streak.
            self.hint_failures.remove(&key);
        }
        // Watchdog: a translation that blows the budget is abandoned — the
        // machine stops at the cap, charges only the work done so far, and
        // the loop is pinned to the CPU like any other rejection.
        if let Some(cap) = self.budget {
            if outcome.breakdown.total() > cap {
                let paid = truncate_breakdown(&outcome.breakdown, cap);
                self.stats.translations += 1;
                self.stats.failures += 1;
                self.stats.watchdog_aborts += 1;
                self.stats.translation_units += paid.total();
                self.stats.breakdown.merge(&paid);
                self.rejected.insert(key);
                self.trace.emit(|| Event::WatchdogAbort {
                    key,
                    cap,
                    paid: paid.total(),
                });
                self.trace.emit(|| Event::TranslateEnd {
                    key,
                    status: TranslateStatus::WatchdogAbort,
                    units: paid.total(),
                    checks: outcome.verdict.checks(),
                    degraded: outcome.verdict.is_degraded(),
                    breakdown: paid,
                });
                return Invocation {
                    translated: None,
                    translation_cycles: paid.total(),
                };
            }
        }
        self.stats.translations += 1;
        self.stats.translation_units += outcome.breakdown.total();
        self.stats.breakdown.merge(&outcome.breakdown);
        self.trace.emit(|| Event::TranslateEnd {
            key,
            status: if outcome.result.is_ok() {
                TranslateStatus::Mapped
            } else {
                TranslateStatus::Failed
            },
            units: outcome.breakdown.total(),
            checks: outcome.verdict.checks(),
            degraded: outcome.verdict.is_degraded(),
            breakdown: outcome.breakdown,
        });
        match outcome.result {
            Ok(arc) => {
                // Control storage: 32-bit words (paper §4.3 sizes 16 loops
                // at ~48 KB of it).
                let bytes = arc.control_words * 4;
                self.cache.insert_sized(key, Arc::clone(&arc), bytes);
                Invocation {
                    translated: Some(arc),
                    translation_cycles: outcome.breakdown.total(),
                }
            }
            Err(_) => {
                self.stats.failures += 1;
                self.rejected.insert(key);
                Invocation {
                    translated: None,
                    translation_cycles: outcome.breakdown.total(),
                }
            }
        }
    }

    /// Whether `key`'s hints are quarantined (no longer consulted).
    #[must_use]
    pub fn is_quarantined(&self, key: u64) -> bool {
        self.quarantined.contains_key(&key)
    }

    /// Session statistics.
    #[must_use]
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Code-cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Serializes this session's warm state — every memo entry (if a memo
    /// is attached) and every resident code-cache translation — into a
    /// snapshot byte stream (see [`crate::snapshot`]).
    ///
    /// # Errors
    ///
    /// [`crate::snapshot::EncodeError`] when a count or id overflows the
    /// format's fixed-width fields (implausibly oversized state; never
    /// silently truncated).
    pub fn save_warm_state(&self) -> Result<Vec<u8>, crate::snapshot::EncodeError> {
        let memo_entries = self
            .memo
            .as_deref()
            .map(MemoBackend::export_entries)
            .unwrap_or_default();
        crate::snapshot::encode_warm_state(
            self.translator_fp,
            self.family.is_some().then_some(self.family_fp),
            &memo_entries,
            &self.cache.export_entries(),
        )
    }

    /// Restores warm state from untrusted snapshot bytes into this
    /// session's memo and code cache. Never fails: corrupt or stale
    /// entries are salvaged per entry, and a wholly bad snapshot leaves
    /// the session cold (see [`crate::snapshot::restore_warm_state`]).
    pub fn restore_warm_state(&mut self, bytes: &[u8]) -> crate::snapshot::RestoreReport {
        let report = crate::snapshot::restore_warm_state(
            bytes,
            &self.translator,
            self.family.is_some().then_some(self.family_fp),
            self.memo.as_deref(),
            Some(&mut self.cache),
        );
        self.trace.emit(|| Event::SnapshotRestore {
            restored: report.restored(),
            salvaged: report.salvaged,
            rejected: report.rejected,
        });
        report
    }
}

/// Reconstructs a [`VmStats`] by folding a session's event stream.
///
/// This is the coherence contract between the trace and the counters: for
/// any sequence of invocations, folding the events a session emitted must
/// equal the [`VmSession::stats`] it reports directly. The obs-coherence
/// tests drive both over a fuzz corpus and assert equality.
#[must_use]
pub fn fold_vm_stats(events: &[Event]) -> VmStats {
    let mut stats = VmStats::default();
    for e in events {
        match e {
            Event::TranslateEnd {
                status,
                units,
                checks,
                degraded,
                breakdown,
                ..
            } => {
                stats.translations += 1;
                stats.translation_units += units;
                stats.breakdown.merge(breakdown);
                stats.hint_validations += checks;
                stats.degraded_translations += u64::from(*degraded);
                match status {
                    TranslateStatus::Mapped => {}
                    TranslateStatus::Failed => stats.failures += 1,
                    TranslateStatus::WatchdogAbort => {
                        stats.failures += 1;
                        stats.watchdog_aborts += 1;
                    }
                }
            }
            Event::HintDegrade { kind, .. } => match kind {
                HintKind::Priority => stats.priority_degradations += 1,
                HintKind::Cca => stats.cca_degradations += 1,
            },
            Event::Quarantine { .. } => stats.quarantined_loops += 1,
            Event::QuarantineLift { .. } => stats.quarantine_lifts += 1,
            _ => {}
        }
    }
    stats
}

/// The prefix of `full` the watchdog lets the machine pay for: phases in
/// pipeline order, accumulated until `cap` units, the interrupting phase
/// charged partially. Keeps `translation_units == breakdown.total()`
/// coherent for aborted translations.
fn truncate_breakdown(full: &PhaseBreakdown, cap: u64) -> PhaseBreakdown {
    let mut meter = CostMeter::new();
    let mut remaining = cap;
    for &p in ALL_PHASES {
        let c = full.get(p).min(remaining);
        meter.charge(p, c);
        remaining -= c;
        if remaining == 0 {
            break;
        }
    }
    *meter.breakdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::TranslationMemo;
    use crate::translator::TranslationPolicy;
    use veal_accel::AcceleratorConfig;
    use veal_cca::CcaSpec;
    use veal_ir::{DfgBuilder, Opcode};

    fn session() -> VmSession {
        VmSession::new(Translator::new(
            AcceleratorConfig::paper_design(),
            Some(CcaSpec::paper()),
            TranslationPolicy::fully_dynamic(),
        ))
    }

    fn simple_loop(name: &str) -> LoopBody {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Add, &[x, x]);
        b.store_stream(1, y);
        LoopBody::new(name, b.finish())
    }

    fn call_loop() -> LoopBody {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        b.op(Opcode::Call, &[x]);
        LoopBody::new("call", b.finish())
    }

    #[test]
    fn first_invocation_pays_then_hits() {
        let mut s = session();
        let body = simple_loop("l");
        let first = s.invoke(1, &body, &StaticHints::none());
        assert!(first.translated.is_some());
        assert!(first.translation_cycles > 0);
        let second = s.invoke(1, &body, &StaticHints::none());
        assert!(second.translated.is_some());
        assert_eq!(second.translation_cycles, 0);
        assert_eq!(s.stats().translations, 1);
    }

    #[test]
    fn rejected_loop_charged_once() {
        let mut s = session();
        let body = call_loop();
        let first = s.invoke(7, &body, &StaticHints::none());
        assert!(first.translated.is_none());
        assert!(first.translation_cycles > 0);
        let second = s.invoke(7, &body, &StaticHints::none());
        assert!(second.translated.is_none());
        assert_eq!(second.translation_cycles, 0);
        assert_eq!(s.stats().failures, 1);
    }

    #[test]
    fn eviction_forces_retranslation() {
        let cache = CodeCache::new(2);
        let mut s = VmSession::with_cache(
            Translator::new(
                AcceleratorConfig::paper_design(),
                None,
                TranslationPolicy::fully_dynamic(),
            ),
            cache,
        );
        let bodies: Vec<LoopBody> = (0..3).map(|i| simple_loop(&format!("l{i}"))).collect();
        for (i, b) in bodies.iter().enumerate() {
            s.invoke(i as u64, b, &StaticHints::none());
        }
        // Loop 0 was evicted; invoking it again re-pays translation.
        let again = s.invoke(0, &bodies[0], &StaticHints::none());
        assert!(again.translation_cycles > 0);
        assert_eq!(s.stats().translations, 4);
        assert!(s.cache_stats().evictions >= 1);
    }

    #[test]
    fn memo_replays_identical_stats() {
        let body = simple_loop("l");
        // Reference: two independent sessions, no memo.
        let mut plain_a = session();
        plain_a.invoke(1, &body, &StaticHints::none());
        let mut plain_b = session();
        plain_b.invoke(1, &body, &StaticHints::none());

        // Memoized: second session replays the first's translation.
        let memo = Arc::new(TranslationMemo::new());
        let mut memo_a = session().with_memo(Arc::clone(&memo));
        memo_a.invoke(1, &body, &StaticHints::none());
        let mut memo_b = session().with_memo(Arc::clone(&memo));
        memo_b.invoke(1, &body, &StaticHints::none());

        assert_eq!(memo.stats().hits, 1);
        assert_eq!(memo.stats().misses, 1);
        for (plain, memoized) in [(&plain_a, &memo_a), (&plain_b, &memo_b)] {
            assert_eq!(plain.stats().translations, memoized.stats().translations);
            assert_eq!(
                plain.stats().translation_units,
                memoized.stats().translation_units
            );
            assert_eq!(plain.stats().breakdown, memoized.stats().breakdown);
        }
    }

    #[test]
    fn memo_keyed_on_content_not_key() {
        // Two different invocation keys with byte-identical bodies share one
        // memoized translation.
        let memo = Arc::new(TranslationMemo::new());
        let mut s = session().with_memo(Arc::clone(&memo));
        s.invoke(1, &simple_loop("l"), &StaticHints::none());
        s.invoke(2, &simple_loop("l"), &StaticHints::none());
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(memo.stats().entries, 1);
        // Session stats still count both as translations (the simulated
        // machine translated twice; only host work was shared).
        assert_eq!(s.stats().translations, 2);
    }

    #[test]
    fn memoized_failures_replay() {
        let memo = Arc::new(TranslationMemo::new());
        let mut a = session().with_memo(Arc::clone(&memo));
        let first = a.invoke(7, &call_loop(), &StaticHints::none());
        assert!(first.translated.is_none());
        let mut b = session().with_memo(Arc::clone(&memo));
        let replay = b.invoke(7, &call_loop(), &StaticHints::none());
        assert!(replay.translated.is_none());
        assert_eq!(first.translation_cycles, replay.translation_cycles);
        assert_eq!(b.stats().failures, 1);
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn stats_aggregate_breakdowns() {
        let mut s = session();
        s.invoke(1, &simple_loop("a"), &StaticHints::none());
        s.invoke(2, &simple_loop("b"), &StaticHints::none());
        assert_eq!(s.stats().translations, 2);
        assert!(s.stats().avg_cost() > 0.0);
        assert_eq!(s.stats().breakdown.total(), s.stats().translation_units);
    }

    /// A hint that can never validate: wrong length for any non-trivial
    /// loop.
    fn bad_hints() -> StaticHints {
        StaticHints {
            priority: Some(vec![veal_ir::OpId::new(0)]),
            cca_groups: None,
        }
    }

    fn static_session_with_cache(capacity: usize) -> VmSession {
        VmSession::with_cache(
            Translator::new(
                AcceleratorConfig::paper_design(),
                None,
                TranslationPolicy::static_hints(),
            ),
            CodeCache::new(capacity),
        )
    }

    #[test]
    fn degradations_are_counted_per_reason() {
        let mut s = static_session_with_cache(16);
        let inv = s.invoke(1, &simple_loop("l"), &bad_hints());
        assert!(inv.translated.is_some(), "degraded, not failed");
        let st = s.stats();
        assert_eq!(st.hint_validations, 1);
        assert_eq!(st.degraded_translations, 1);
        assert_eq!(st.priority_degradations, 1);
        assert_eq!(st.cca_degradations, 0);
        assert_eq!(st.quarantined_loops, 0);
    }

    #[test]
    fn repeated_hint_failures_quarantine_the_loop() {
        // Capacity-1 cache with two alternating loops: every invocation is
        // a cache miss, so the bad hints are re-validated each time until
        // the quarantine trips.
        let mut s = static_session_with_cache(1);
        let a = simple_loop("a");
        let b = simple_loop("b");
        for _ in 0..QUARANTINE_THRESHOLD {
            s.invoke(1, &a, &bad_hints());
            s.invoke(2, &b, &bad_hints());
        }
        assert!(s.is_quarantined(1));
        assert!(s.is_quarantined(2));
        let st = s.stats().clone();
        assert_eq!(st.quarantined_loops, 2);
        assert_eq!(
            st.degraded_translations,
            2 * u64::from(QUARANTINE_THRESHOLD)
        );
        // Post-quarantine invocations skip validation entirely.
        s.invoke(1, &a, &bad_hints());
        assert_eq!(s.stats().hint_validations, st.hint_validations);
        assert!(
            s.invoke(1, &a, &bad_hints()).translated.is_some()
                || s.invoke(1, &a, &bad_hints()).translation_cycles > 0,
            "quarantined loop still translates hint-less"
        );
    }

    #[test]
    fn corrected_hints_lift_the_quarantine() {
        // Quarantine a loop under bad hints, then supply corrected hints
        // (a different fingerprint, as a fixed binary would): the session
        // must lift the quarantine and consult them again.
        let config = AcceleratorConfig::paper_design();
        let mut s = VmSession::with_cache(
            Translator::new(config.clone(), None, TranslationPolicy::static_hints()),
            CodeCache::new(1),
        );
        let a = simple_loop("a");
        let other = simple_loop("other");
        for _ in 0..QUARANTINE_THRESHOLD {
            s.invoke(1, &a, &bad_hints());
            s.invoke(2, &other, &StaticHints::none()); // evict key 1
        }
        assert!(s.is_quarantined(1));
        let validations_before = s.stats().hint_validations;

        let good = crate::hints::compute_hints(&a, &config, None);
        assert_ne!(good.fingerprint(), bad_hints().fingerprint());
        s.invoke(1, &a, &good);
        assert!(
            !s.is_quarantined(1),
            "new hints fingerprint lifts quarantine"
        );
        assert_eq!(s.stats().quarantine_lifts, 1);
        assert!(
            s.stats().hint_validations > validations_before,
            "corrected hints are validated again"
        );
        assert_eq!(s.stats().quarantined_loops, 1);
    }

    #[test]
    fn corrected_hints_lift_even_while_the_stale_translation_is_resident() {
        // Regression: the lift check used to run after the code-cache
        // early return, so while the quarantined loop's hint-less
        // translation sat in the cache, corrected hints hit the cache and
        // were ignored until the entry happened to be evicted (the other
        // lift tests mask this by forcing eviction with a 1-entry cache).
        let config = AcceleratorConfig::paper_design();
        let mut s = VmSession::with_cache(
            Translator::new(config.clone(), None, TranslationPolicy::static_hints()),
            CodeCache::new(1),
        );
        let a = simple_loop("a");
        let other = simple_loop("other");
        for _ in 0..QUARANTINE_THRESHOLD {
            s.invoke(1, &a, &bad_hints());
            s.invoke(2, &other, &StaticHints::none()); // evict key 1
        }
        assert!(s.is_quarantined(1));
        // Make the hint-less translation resident under key 1; nothing
        // evicts it between here and the corrected hints.
        s.invoke(1, &a, &bad_hints());
        let validations_before = s.stats().hint_validations;
        let translations_before = s.stats().translations;

        let good = crate::hints::compute_hints(&a, &config, None);
        assert_ne!(good.fingerprint(), bad_hints().fingerprint());
        s.invoke(1, &a, &good);
        assert!(
            !s.is_quarantined(1),
            "the lift must not wait for an eviction"
        );
        assert_eq!(s.stats().quarantine_lifts, 1);
        assert_eq!(
            s.stats().translations,
            translations_before + 1,
            "the stale hint-less translation was dropped and replaced"
        );
        assert!(
            s.stats().hint_validations > validations_before,
            "corrected hints are validated, not served from the stale cache"
        );
    }

    #[test]
    fn resupplying_the_quarantined_hints_does_not_lift() {
        let mut s = static_session_with_cache(1);
        let a = simple_loop("a");
        let other = simple_loop("other");
        for _ in 0..QUARANTINE_THRESHOLD {
            s.invoke(1, &a, &bad_hints());
            s.invoke(2, &other, &StaticHints::none());
        }
        assert!(s.is_quarantined(1));
        let validations = s.stats().hint_validations;
        s.invoke(1, &a, &bad_hints());
        assert!(s.is_quarantined(1));
        assert_eq!(s.stats().quarantine_lifts, 0);
        assert_eq!(s.stats().hint_validations, validations);
    }

    #[test]
    fn relapsed_hints_requarantine_after_a_fresh_streak() {
        // After a lift, the *new* hints must fail QUARANTINE_THRESHOLD
        // times on their own before quarantining again — the old streak is
        // gone.
        let mut s = static_session_with_cache(1);
        let a = simple_loop("a");
        let other = simple_loop("other");
        for _ in 0..QUARANTINE_THRESHOLD {
            s.invoke(1, &a, &bad_hints());
            s.invoke(2, &other, &StaticHints::none());
        }
        assert!(s.is_quarantined(1));
        // "Fixed" binary still ships bad hints, just different ones.
        let still_bad = StaticHints {
            priority: Some(vec![veal_ir::OpId::new(0), veal_ir::OpId::new(0)]),
            cca_groups: None,
        };
        for round in 0..QUARANTINE_THRESHOLD {
            s.invoke(1, &a, &still_bad);
            assert_eq!(
                s.is_quarantined(1),
                round + 1 == QUARANTINE_THRESHOLD,
                "quarantine only after a full fresh streak"
            );
            s.invoke(2, &other, &StaticHints::none());
        }
        assert_eq!(s.stats().quarantine_lifts, 1);
        assert_eq!(s.stats().quarantined_loops, 2);
    }

    #[test]
    fn clean_validation_resets_the_failure_streak() {
        let la = AcceleratorConfig::paper_design();
        let t = Translator::new(la.clone(), None, TranslationPolicy::static_hints());
        let body = simple_loop("l");
        let good = crate::hints::compute_hints(&body, &la, None);
        let mut s = VmSession::with_cache(t, CodeCache::new(1));
        let other = simple_loop("other");
        for _ in 0..QUARANTINE_THRESHOLD {
            // One failure, then a clean validation: the streak never
            // reaches the threshold.
            s.invoke(1, &body, &bad_hints());
            s.invoke(2, &other, &StaticHints::none()); // evict key 1
            s.invoke(1, &body, &good);
            s.invoke(2, &other, &StaticHints::none());
        }
        assert!(!s.is_quarantined(1));
        assert_eq!(s.stats().quarantined_loops, 0);
    }

    #[test]
    fn watchdog_aborts_past_the_budget_and_charges_the_prefix() {
        let mut s = session().with_translation_budget(5);
        let inv = s.invoke(1, &simple_loop("l"), &StaticHints::none());
        assert!(inv.translated.is_none(), "aborted to CPU");
        assert_eq!(inv.translation_cycles, 5, "pays exactly the cap");
        let st = s.stats();
        assert_eq!(st.watchdog_aborts, 1);
        assert_eq!(st.failures, 1);
        assert_eq!(st.breakdown.total(), st.translation_units);
        // The abort pins the loop to the CPU: no re-attempt, no new cost.
        let again = s.invoke(1, &simple_loop("l"), &StaticHints::none());
        assert!(again.translated.is_none());
        assert_eq!(again.translation_cycles, 0);
        assert_eq!(s.stats().watchdog_aborts, 1);
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let body = simple_loop("l");
        let mut plain = session();
        let a = plain.invoke(1, &body, &StaticHints::none());
        let mut capped = session().with_translation_budget(u64::MAX);
        let b = capped.invoke(1, &body, &StaticHints::none());
        assert_eq!(a.translation_cycles, b.translation_cycles);
        assert_eq!(plain.stats().breakdown, capped.stats().breakdown);
        assert_eq!(capped.stats().watchdog_aborts, 0);
    }

    #[test]
    fn memo_replays_degradation_counters_identically() {
        let memo = Arc::new(TranslationMemo::new());
        let body = simple_loop("l");
        let mk = || {
            VmSession::new(Translator::new(
                AcceleratorConfig::paper_design(),
                Some(CcaSpec::paper()),
                TranslationPolicy::static_hints(),
            ))
        };
        let mut fresh = mk().with_memo(Arc::clone(&memo));
        fresh.invoke(1, &body, &bad_hints());
        let mut replay = mk().with_memo(Arc::clone(&memo));
        replay.invoke(1, &body, &bad_hints());
        assert_eq!(memo.stats().hits, 1);
        let (a, b) = (fresh.stats(), replay.stats());
        assert_eq!(a.hint_validations, b.hint_validations);
        assert_eq!(a.degraded_translations, b.degraded_translations);
        assert_eq!(a.priority_degradations, b.priority_degradations);
        assert_eq!(a.cca_degradations, b.cca_degradations);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn restored_session_is_indistinguishable_from_a_continuing_one() {
        // Warm up a memoized session, snapshot it, restore into a fresh
        // process-alike session, then drive both through the same second
        // window. The differential contract: identical stat deltas and
        // bit-identical schedules, with the restored side recomputing
        // nothing.
        let bodies: Vec<LoopBody> = (0..4).map(|i| simple_loop(&format!("w{i}"))).collect();
        let memo_a = Arc::new(TranslationMemo::new());
        let mut warm = session().with_memo(Arc::clone(&memo_a));
        for (i, b) in bodies.iter().enumerate() {
            warm.invoke(i as u64, b, &StaticHints::none());
        }
        let bytes = warm.save_warm_state().expect("warm state encodes");

        let memo_b = Arc::new(TranslationMemo::new());
        let mut restored = session().with_memo(Arc::clone(&memo_b));
        let report = restored.restore_warm_state(&bytes);
        assert_eq!(report.restored() as usize, bodies.len() * 2);
        assert_eq!(report.rejected, 0);

        let before_warm = warm.stats().clone();
        let before_restored = restored.stats().clone();
        let misses_before = memo_b.stats().misses;
        for (i, b) in bodies.iter().enumerate() {
            let a = warm.invoke(i as u64, b, &StaticHints::none());
            let r = restored.invoke(i as u64, b, &StaticHints::none());
            // The warm session hits its code cache at zero cost; the
            // restored one restored that cache too, so both do.
            assert_eq!(a.translation_cycles, r.translation_cycles);
            let (at, rt) = (a.translated.unwrap(), r.translated.unwrap());
            assert_eq!(at.dfg.content_hash(), rt.dfg.content_hash());
            assert_eq!(at.scheduled.schedule.ii, rt.scheduled.schedule.ii);
            assert_eq!(
                at.scheduled.schedule.raw_parts().1,
                rt.scheduled.schedule.raw_parts().1
            );
            assert_eq!(at.control_words, rt.control_words);
            assert_eq!(at.accel_ops, rt.accel_ops);
        }
        let delta = |after: &VmStats, before: &VmStats| {
            (
                after.translations - before.translations,
                after.translation_units - before.translation_units,
                after.failures - before.failures,
            )
        };
        assert_eq!(
            delta(warm.stats(), &before_warm),
            delta(restored.stats(), &before_restored)
        );
        // Nothing was recomputed on the restored side: no new memo misses.
        assert_eq!(memo_b.stats().misses, misses_before);
    }

    #[test]
    fn restore_without_memo_still_warms_the_code_cache() {
        let mut warm = session();
        let body = simple_loop("solo");
        warm.invoke(1, &body, &StaticHints::none());
        let bytes = warm.save_warm_state().expect("warm state encodes");

        let mut restored = session();
        let report = restored.restore_warm_state(&bytes);
        assert_eq!(report.cache_entries, 1);
        let inv = restored.invoke(1, &body, &StaticHints::none());
        assert!(inv.translated.is_some());
        assert_eq!(inv.translation_cycles, 0, "cache hit, nothing recomputed");
        assert_eq!(restored.stats().translations, 0);
    }

    #[test]
    fn restoring_garbage_leaves_a_session_cold_but_working() {
        let mut s = session();
        let report = s.restore_warm_state(b"definitely not a snapshot");
        assert!(report.is_cold());
        let inv = s.invoke(1, &simple_loop("l"), &StaticHints::none());
        assert!(inv.translated.is_some());
        assert!(inv.translation_cycles > 0);
    }
}
