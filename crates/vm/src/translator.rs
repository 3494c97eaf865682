//! The dynamic translation pipeline (paper §4.1 / §4.2).

use crate::hints::StaticHints;
use crate::verify::{verify_and_apply_cca, verify_priority, HintVerdict};
use std::fmt;
use std::sync::OnceLock;
use veal_accel::{AcceleratorConfig, AcceleratorFamily};
use veal_cca::{map_cca, CcaSpec};
use veal_ir::dfg::Dfg;
use veal_ir::meter::ALL_PHASES;
use veal_ir::streams::{separate, SeparationError, StreamSummary};
use veal_ir::{CostMeter, LoopBody, OpId, Phase, PhaseBreakdown};
use veal_obs::{metrics, Counter, Histogram, Trace};
use veal_sched::{
    modulo_schedule, PriorityKind, ScheduleError, ScheduleOptions, ScheduledLoop, SymbolicSchedule,
};

/// Wall-clock per [`Translator::translate`] call. Wall time lives only in
/// the metrics registry — never in trace events — and is only measured
/// when a sink is installed.
fn translate_wall_ns() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| metrics::histogram("vm.translate.wall_ns"))
}

/// Abstract units per translation (total across phases).
fn translate_units_hist() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| metrics::histogram("vm.translate.units"))
}

/// Cumulative abstract units per phase, in [`ALL_PHASES`] order. These are
/// always on (one relaxed add per non-zero phase per translation); they
/// read the finished meter and never feed it.
fn phase_unit_counters() -> &'static [&'static Counter; 10] {
    static C: OnceLock<[&'static Counter; 10]> = OnceLock::new();
    C.get_or_init(|| {
        [
            metrics::counter("vm.translate.units.loop-ident"),
            metrics::counter("vm.translate.units.stream-sep"),
            metrics::counter("vm.translate.units.cca-mapping"),
            metrics::counter("vm.translate.units.res-mii"),
            metrics::counter("vm.translate.units.rec-mii"),
            metrics::counter("vm.translate.units.priority"),
            metrics::counter("vm.translate.units.scheduling"),
            metrics::counter("vm.translate.units.reg-assign"),
            metrics::counter("vm.translate.units.hint-decode"),
            metrics::counter("vm.translate.units.concretize"),
        ]
    })
}

/// Wall-clock per [`Translator::concretize`] call (family-mode dispatch).
fn concretize_wall_ns() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| metrics::histogram("vm.concretize.wall_ns"))
}

/// Process-global count of [`Translator::concretize`] calls, always on
/// (benchmarks read the delta around a family-mode arm).
fn concretize_calls() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("vm.translate.concretizations"))
}

fn record_phase_units(breakdown: &PhaseBreakdown) {
    let counters = phase_unit_counters();
    debug_assert_eq!(counters.len(), ALL_PHASES.len());
    for (i, &p) in ALL_PHASES.iter().enumerate() {
        let units = breakdown.get(p);
        if units != 0 {
            counters[i].add(units);
        }
    }
    translate_units_hist().record(breakdown.total());
}

/// Which translation steps use statically encoded results (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationPolicy {
    /// Use CCA subgraphs from the binary's procedural-abstraction hints.
    pub static_cca: bool,
    /// Use the scheduling order from the binary's priority data section.
    pub static_priority: bool,
    /// Priority function when computing dynamically.
    pub priority: PriorityKind,
}

impl TranslationPolicy {
    /// Everything computed at runtime with the Swing priority — the paper's
    /// "Fully Dynamic" configuration.
    #[must_use]
    pub fn fully_dynamic() -> Self {
        TranslationPolicy {
            static_cca: false,
            static_priority: false,
            priority: PriorityKind::Swing,
        }
    }

    /// Fully dynamic with the cheaper height-based priority — the paper's
    /// "Fully Dynamic Height Priority" configuration.
    #[must_use]
    pub fn fully_dynamic_height() -> Self {
        TranslationPolicy {
            static_cca: false,
            static_priority: false,
            priority: PriorityKind::Height,
        }
    }

    /// CCA mapping and priority decoded from the binary — the paper's
    /// "Static CCA/Priority" configuration.
    #[must_use]
    pub fn static_hints() -> Self {
        TranslationPolicy {
            static_cca: true,
            static_priority: true,
            priority: PriorityKind::Swing,
        }
    }
}

impl Default for TranslationPolicy {
    fn default() -> Self {
        Self::fully_dynamic()
    }
}

/// A loop successfully mapped onto the accelerator.
#[derive(Debug, Clone)]
pub struct TranslatedLoop {
    /// The separated (and possibly CCA-collapsed) graph the schedule was
    /// built over — what an independent checker or differential oracle
    /// needs to audit the mapping.
    pub dfg: Dfg,
    /// The schedule and register assignment.
    pub scheduled: ScheduledLoop,
    /// Stream requirements.
    pub streams: StreamSummary,
    /// Size of the generated accelerator control, in 32-bit words.
    pub control_words: usize,
    /// Number of CCA subgraphs in use.
    pub cca_groups: usize,
    /// Ops executing on the accelerator (post-collapse).
    pub accel_ops: usize,
}

impl TranslatedLoop {
    /// Accelerator cycles to run `trips` iterations, excluding invocation
    /// overhead: `(SC + trips − 1) · II`.
    #[must_use]
    pub fn kernel_cycles(&self, trips: u64) -> u64 {
        self.scheduled.cycles(trips)
    }
}

/// Why translation aborted (the loop then runs on the baseline CPU).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslationError {
    /// Control/address separation failed.
    Unsupported(SeparationError),
    /// Modulo scheduling or register assignment failed.
    Schedule(ScheduleError),
}

impl fmt::Display for TranslationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslationError::Unsupported(e) => write!(f, "unsupported loop: {e}"),
            TranslationError::Schedule(e) => write!(f, "scheduling failed: {e}"),
        }
    }
}

impl std::error::Error for TranslationError {}

/// The result of one translation attempt plus its measured cost.
#[derive(Debug, Clone)]
pub struct TranslationOutcome {
    /// Mapped loop or abort reason.
    pub result: Result<TranslatedLoop, TranslationError>,
    /// Per-phase abstract instruction counts (Figure 8's measurement).
    pub breakdown: PhaseBreakdown,
    /// What hint validation concluded (see [`crate::verify`]).
    pub verdict: HintVerdict,
}

impl TranslationOutcome {
    /// Total translation cost in abstract instructions (≈ host cycles).
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.breakdown.total()
    }
}

/// The configuration-independent prefix of one loop's translation, valid
/// for every member of an [`AcceleratorFamily`]: the separated (and
/// CCA-collapsed) graph, the hint verdict, the verified static order, the
/// exact charges the prefix made, and the [`SymbolicSchedule`] whose caches
/// answer RecMII and priority per concretization.
///
/// Built once per `(loop, family, hints)` by
/// [`Translator::translate_symbolic`] and stored in the family-keyed memo
/// ([`crate::memo::MemoEntry::Family`]); every session dispatching on a
/// member configuration turns it into a concrete [`TranslationOutcome`]
/// with [`Translator::concretize`], bit-identical to what
/// [`Translator::translate`] would have produced directly.
#[derive(Debug)]
pub struct SymbolicTranslation {
    /// Ops in the original (pre-separation) body; drives the deterministic
    /// concretize charge.
    pub(crate) loop_len: usize,
    /// Exact charges of the shared prefix (loop identification through
    /// hint verification) — replayed verbatim into every concretization.
    pub(crate) prefix: PhaseBreakdown,
    /// The original hint verdict (hint validation is config-independent).
    pub(crate) verdict: HintVerdict,
    /// Prefix products, or the separation error that ended translation.
    pub(crate) body: Result<SymbolicBody, SeparationError>,
}

#[derive(Debug)]
pub(crate) struct SymbolicBody {
    pub(crate) dfg: Dfg,
    pub(crate) summary: StreamSummary,
    pub(crate) cca_groups: usize,
    pub(crate) static_order: Option<Vec<OpId>>,
    pub(crate) sym: SymbolicSchedule,
}

impl SymbolicTranslation {
    /// Distinct priority orders cached so far (one per MII observed across
    /// concretizations; telemetry).
    #[must_use]
    pub fn cached_orders(&self) -> usize {
        self.body.as_ref().map_or(0, |b| b.sym.cached_orders())
    }
}

/// Everything the configuration-independent prefix produces: the separated
/// compute graph, its stream summary, the CCA group count, the hint-decoded
/// priority order (when the policy accepted one), and the hint verdict.
type PrefixParts = (Dfg, StreamSummary, usize, Option<Vec<OpId>>, HintVerdict);

/// The VM's loop translator for one accelerator configuration.
#[derive(Debug, Clone)]
pub struct Translator {
    config: AcceleratorConfig,
    cca: Option<CcaSpec>,
    policy: TranslationPolicy,
    /// Observability handle; disabled by default. Deliberately excluded
    /// from [`Translator::fingerprint`] — tracing can never change what a
    /// translator produces, so it must not split memo keys.
    trace: Trace,
}

impl Translator {
    /// Creates a translator targeting `config`, with `cca` describing the
    /// accelerator's CCA (if any), under `policy`.
    #[must_use]
    pub fn new(config: AcceleratorConfig, cca: Option<CcaSpec>, policy: TranslationPolicy) -> Self {
        Translator {
            config,
            cca,
            policy,
            trace: Trace::null(),
        }
    }

    /// Attaches a trace handle (wall-clock profiling of `translate`).
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    pub(crate) fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The target configuration.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The accelerator's CCA spec, if it has one.
    #[must_use]
    pub fn cca(&self) -> Option<&CcaSpec> {
        self.cca.as_ref()
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> TranslationPolicy {
        self.policy
    }

    /// Stable fingerprint over everything that determines this translator's
    /// output for a given `(body, hints)` pair: the accelerator
    /// configuration, the CCA shape (or its absence), and the policy bits.
    /// Combined with [`veal_ir::LoopBody::content_hash`] and
    /// [`crate::StaticHints::fingerprint`], it keys memoized translations.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = veal_ir::rng::Fnv64::new();
        h.write_u64(self.config.fingerprint());
        match &self.cca {
            None => h.write_u8(0),
            Some(spec) => {
                h.write_u8(1);
                h.write_u64(spec.fingerprint());
            }
        }
        h.write_u8(u8::from(self.policy.static_cca));
        h.write_u8(u8::from(self.policy.static_priority));
        h.write_u8(match self.policy.priority {
            PriorityKind::Swing => 0,
            PriorityKind::Height => 1,
        });
        h.finish()
    }

    /// Runs the configuration-independent prefix of the pipeline: loop
    /// identification, control/stream separation, CCA mapping (decoded from
    /// hints when the policy and binary allow, recomputed otherwise), and
    /// static-priority verification. Within a family fixing the latency
    /// model and CCA presence, nothing here reads unit/register/II counts —
    /// which is what makes [`Translator::translate_symbolic`] sound.
    fn prefix(
        &self,
        body: &LoopBody,
        hints: &StaticHints,
        meter: &mut CostMeter,
    ) -> Result<PrefixParts, SeparationError> {
        // Loop identification: linear scan of the loop's instructions
        // (region formation already found the backward branch).
        meter.charge(Phase::LoopIdent, body.dfg.len() as u64 + 8);

        let sep = separate(&body.dfg, meter)?;
        let summary = sep.summary();
        let mut dfg = sep.dfg;
        let mut verdict = HintVerdict::default();

        // --- CCA mapping -------------------------------------------------
        let mut cca_groups = 0usize;
        if let Some(spec) = &self.cca {
            if self.policy.static_cca {
                if let Some(groups) = &hints.cca_groups {
                    // Untrusted procedural abstraction: validate every group
                    // on the current spec before any of them collapses
                    // (vm::verify). A hint that fails — stale, corrupted,
                    // hostile — degrades this step to the dynamic
                    // identifier, exactly the fully-dynamic path (paper
                    // §4.2's compatibility story), and is recorded in the
                    // verdict.
                    match verify_and_apply_cca(&mut dfg, spec, groups, meter) {
                        Ok(n) => {
                            cca_groups = n;
                            verdict.cca = Some(Ok(()));
                        }
                        Err(e) => {
                            verdict.cca = Some(Err(e));
                            cca_groups = map_cca(&mut dfg, spec, meter).len();
                        }
                    }
                }
                // No hints in the binary: a legacy binary under a static
                // policy leaves the CCA idle for this loop.
            } else {
                let groups = map_cca(&mut dfg, spec, meter);
                cca_groups = groups.len();
            }
        }

        // --- Static priority ---------------------------------------------
        let static_order = if self.policy.static_priority {
            match &hints.priority {
                Some(order) => match verify_priority(&dfg, order, meter) {
                    Ok(()) => {
                        verdict.priority = Some(Ok(()));
                        Some(order.clone())
                    }
                    Err(e) => {
                        // Not a permutation of this graph's ops (different
                        // CCA decisions, evolved hardware, corruption):
                        // degrade to dynamic priority.
                        verdict.priority = Some(Err(e));
                        None
                    }
                },
                None => None,
            }
        } else {
            None
        };

        Ok((dfg, summary, cca_groups, static_order, verdict))
    }

    /// Translates one loop body, charging every phase to a fresh meter.
    ///
    /// The pipeline mirrors Figure 5's walkthrough: loop identification,
    /// control/stream separation, CCA mapping (decoded from hints when the
    /// policy and binary allow, recomputed otherwise), MII, priority
    /// (likewise), scheduling, register assignment.
    #[must_use]
    pub fn translate(&self, body: &LoopBody, hints: &StaticHints) -> TranslationOutcome {
        let _wall = self.trace.timer(translate_wall_ns());
        let mut meter = CostMeter::new();
        let (dfg, summary, cca_groups, static_order, verdict) =
            match self.prefix(body, hints, &mut meter) {
                Ok(p) => p,
                Err(e) => {
                    record_phase_units(meter.breakdown());
                    return TranslationOutcome {
                        result: Err(TranslationError::Unsupported(e)),
                        breakdown: *meter.breakdown(),
                        verdict: HintVerdict::default(),
                    };
                }
            };

        let options = ScheduleOptions {
            priority: self.policy.priority,
            static_order,
            streams: Some(summary),
        };
        let result = match modulo_schedule(&dfg, &self.config, &options, &mut meter) {
            Ok(scheduled) => {
                let control_words = scheduled.schedule.control_words(&self.config);
                Ok(TranslatedLoop {
                    accel_ops: dfg.schedulable_ops().count(),
                    scheduled,
                    streams: summary,
                    control_words,
                    cca_groups,
                    dfg,
                })
            }
            Err(e) => Err(TranslationError::Schedule(e)),
        };
        record_phase_units(meter.breakdown());
        TranslationOutcome {
            result,
            breakdown: *meter.breakdown(),
            verdict,
        }
    }

    /// Lowers `body` all the way to a host-executable LoopVM artifact
    /// (see [`veal_exec`]): translate, then compile the **original**
    /// graph in schedule order. The original graph is what the golden
    /// semantics are stated over — the separated/collapsed view
    /// re-annotates streams and may hold opaque `Cca` nodes — while the
    /// schedule shares its id space, so it can still order the bytecode.
    ///
    /// Loops the accelerator rejects compile anyway (topological order):
    /// the host backend executes everything the reference interpreter
    /// can, whether or not the LA maps it.
    ///
    /// # Errors
    ///
    /// [`veal_exec::CompileError`] when the body itself is not
    /// executable (opaque call, cyclic distance-0 subgraph, or an
    /// arity-malformed op).
    pub fn compile_executable(
        &self,
        body: &LoopBody,
        hints: &StaticHints,
    ) -> Result<veal_exec::ExecutableLoop, veal_exec::CompileError> {
        let schedule = match self.translate(body, hints).result {
            Ok(t) => Some(t.scheduled.schedule),
            Err(_) => None,
        };
        veal_exec::ExecutableLoop::compile(&body.dfg, schedule.as_ref())
    }

    /// Runs the configuration-independent prefix once and packages it as a
    /// [`SymbolicTranslation`], reusable across every configuration of a
    /// family that shares this translator's latency model and CCA presence.
    ///
    /// The suffix (ResMII, scheduling, register assignment) is *not* run —
    /// [`Translator::concretize`] runs it per member configuration, and the
    /// combined outcome is bit-identical to [`Translator::translate`].
    #[must_use]
    pub fn translate_symbolic(&self, body: &LoopBody, hints: &StaticHints) -> SymbolicTranslation {
        let mut meter = CostMeter::new();
        match self.prefix(body, hints, &mut meter) {
            Ok((dfg, summary, cca_groups, static_order, verdict)) => SymbolicTranslation {
                loop_len: body.dfg.len(),
                prefix: *meter.breakdown(),
                verdict,
                body: Ok(SymbolicBody {
                    dfg,
                    summary,
                    cca_groups,
                    static_order,
                    sym: SymbolicSchedule::new(),
                }),
            },
            Err(e) => SymbolicTranslation {
                loop_len: body.dfg.len(),
                prefix: *meter.breakdown(),
                verdict: HintVerdict::default(),
                body: Err(e),
            },
        }
    }

    /// Instantiates a symbolic translation at this translator's concrete
    /// configuration: replays the prefix charges verbatim, answers RecMII
    /// and priority from the symbolic caches, and runs only the
    /// configuration-dependent suffix for real (O(ops), on the scheduler's
    /// thread-local scratch pool).
    ///
    /// The returned outcome — result, breakdown, verdict — is bit-identical
    /// to [`Translator::translate`] on the same `(body, hints)`. The real
    /// host work of concretization is charged as [`Phase::Concretize`] to
    /// `concretize_meter` (the session-level meter), never into the
    /// outcome's own breakdown: point translations have no such step, and
    /// family-mode statistics must replay exactly.
    #[must_use]
    pub fn concretize(
        &self,
        sym: &SymbolicTranslation,
        concretize_meter: &mut CostMeter,
    ) -> TranslationOutcome {
        let _wall = self.trace.timer(concretize_wall_ns());
        // Deterministic concretize charge: one pass over the loop plus
        // fixed per-phase bookkeeping.
        let units = sym.loop_len as u64 + ALL_PHASES.len() as u64;
        concretize_meter.charge(Phase::Concretize, units);
        phase_unit_counters()[ALL_PHASES.len() - 1].add(units);
        concretize_calls().inc();

        let mut meter = CostMeter::new();
        for &p in ALL_PHASES {
            let c = sym.prefix.get(p);
            if c != 0 {
                meter.charge(p, c);
            }
        }
        let result = match &sym.body {
            Err(e) => Err(TranslationError::Unsupported(e.clone())),
            Ok(b) => {
                let options = ScheduleOptions {
                    priority: self.policy.priority,
                    static_order: b.static_order.clone(),
                    streams: Some(b.summary),
                };
                match veal_sched::concretize(&b.sym, &b.dfg, &self.config, &options, &mut meter) {
                    Ok(scheduled) => {
                        let control_words = scheduled.schedule.control_words(&self.config);
                        Ok(TranslatedLoop {
                            accel_ops: b.dfg.schedulable_ops().count(),
                            scheduled,
                            streams: b.summary,
                            control_words,
                            cca_groups: b.cca_groups,
                            dfg: b.dfg.clone(),
                        })
                    }
                    Err(e) => Err(TranslationError::Schedule(e)),
                }
            }
        };
        TranslationOutcome {
            result,
            breakdown: *meter.breakdown(),
            verdict: sym.verdict.clone(),
        }
    }

    /// Family analogue of [`Translator::fingerprint`]: stable over
    /// everything that determines a *symbolic* translation for a given
    /// `(body, hints)` pair — the family's axis ranges and latency model,
    /// the CCA shape, and the policy bits. A leading domain tag keeps
    /// family keys disjoint from point keys even for a degenerate
    /// single-point family, so the two entry kinds can never coalesce in a
    /// shared memo.
    #[must_use]
    pub fn family_fingerprint(&self, family: &AcceleratorFamily) -> u64 {
        let mut h = veal_ir::rng::Fnv64::new();
        h.write_u8(0xFA);
        h.write_u64(family.fingerprint());
        match &self.cca {
            None => h.write_u8(0),
            Some(spec) => {
                h.write_u8(1);
                h.write_u64(spec.fingerprint());
            }
        }
        h.write_u8(u8::from(self.policy.static_cca));
        h.write_u8(u8::from(self.policy.static_priority));
        h.write_u8(match self.policy.priority {
            PriorityKind::Swing => 0,
            PriorityKind::Height => 1,
        });
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::compute_hints;
    use veal_ir::{DfgBuilder, Opcode};

    /// A loop with CCA-friendly logic, a mul, and streams.
    fn media_loop() -> LoopBody {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let k = b.live_in();
        let m = b.op(Opcode::Mul, &[x, k]);
        let a = b.op(Opcode::And, &[m, k]);
        let s = b.op(Opcode::Sub, &[a, x]);
        let o = b.op(Opcode::Xor, &[s, a]);
        b.store_stream(1, o);
        LoopBody::new("media", b.finish())
    }

    #[test]
    fn fully_dynamic_translates_and_charges_cca_and_priority() {
        let t = Translator::new(
            AcceleratorConfig::paper_design(),
            Some(CcaSpec::paper()),
            TranslationPolicy::fully_dynamic(),
        );
        let out = t.translate(&media_loop(), &StaticHints::none());
        let tl = out.result.expect("translates");
        assert_eq!(tl.cca_groups, 1);
        assert!(out.breakdown.get(Phase::CcaMapping) > 0);
        assert!(out.breakdown.get(Phase::Priority) > 0);
        assert_eq!(out.breakdown.get(Phase::HintDecode), 0);
    }

    #[test]
    fn static_hints_shift_cost_to_decode() {
        let la = AcceleratorConfig::paper_design();
        let spec = CcaSpec::paper();
        let body = media_loop();
        let hints = compute_hints(&body, &la, Some(&spec));
        let t = Translator::new(la, Some(spec), TranslationPolicy::static_hints());
        let out = t.translate(&body, &hints);
        let tl = out.result.expect("translates");
        assert_eq!(tl.cca_groups, 1);
        assert_eq!(out.breakdown.get(Phase::CcaMapping), 0);
        assert_eq!(out.breakdown.get(Phase::Priority), 0);
        assert!(out.breakdown.get(Phase::HintDecode) > 0);
    }

    #[test]
    fn static_hints_much_cheaper_than_dynamic() {
        let la = AcceleratorConfig::paper_design();
        let spec = CcaSpec::paper();
        let body = media_loop();
        let hints = compute_hints(&body, &la, Some(&spec));
        let dyn_t = Translator::new(
            la.clone(),
            Some(spec.clone()),
            TranslationPolicy::fully_dynamic(),
        );
        let sta_t = Translator::new(la, Some(spec), TranslationPolicy::static_hints());
        let dyn_cost = dyn_t.translate(&body, &StaticHints::none()).cost();
        let sta_cost = sta_t.translate(&body, &hints).cost();
        assert!(
            sta_cost * 2 < dyn_cost,
            "static {sta_cost} vs dynamic {dyn_cost}"
        );
    }

    #[test]
    fn legacy_binary_without_hints_still_translates_under_static_policy() {
        let t = Translator::new(
            AcceleratorConfig::paper_design(),
            Some(CcaSpec::paper()),
            TranslationPolicy::static_hints(),
        );
        let out = t.translate(&media_loop(), &StaticHints::none());
        let tl = out.result.expect("translates without hints");
        assert_eq!(tl.cca_groups, 0); // CCA idle, ops run individually
    }

    #[test]
    fn hints_for_wide_cca_degrade_gracefully_on_narrow_cca() {
        // Hints computed for the paper CCA; hardware has the narrow CCA.
        let la = AcceleratorConfig::paper_design();
        let body = media_loop();
        let hints = compute_hints(&body, &la, Some(&CcaSpec::paper()));
        let t = Translator::new(
            la.clone(),
            Some(CcaSpec::narrow()),
            TranslationPolicy::static_hints(),
        );
        let out = t.translate(&body, &hints);
        assert!(out.result.is_ok(), "must still run: {:?}", out.result);
        // The cross-spec CCA hint is rejected as a whole and the step
        // degrades to dynamic identification; the schedule must equal what
        // the dynamic identifier produces on this hardware.
        assert!(matches!(out.verdict.cca, Some(Err(_))));
        let dynamic = Translator::new(
            la,
            Some(CcaSpec::narrow()),
            TranslationPolicy::fully_dynamic(),
        )
        .translate(&body, &StaticHints::none());
        let a = out.result.unwrap();
        let b = dynamic.result.unwrap();
        assert_eq!(a.cca_groups, b.cca_groups);
        assert_eq!(a.scheduled.schedule.ii, b.scheduled.schedule.ii);
    }

    #[test]
    fn bad_priority_hint_degrades_and_matches_dynamic_schedule() {
        let la = AcceleratorConfig::paper_design();
        let body = media_loop();
        let t = Translator::new(la, None, TranslationPolicy::static_hints());
        // Duplicate entry: covers every op id yet is not a permutation —
        // the scheduler would visit one op twice.
        let mut order: Vec<veal_ir::OpId> = {
            let mut meter = CostMeter::new();
            separate(&body.dfg, &mut meter)
                .expect("separable")
                .dfg
                .schedulable_ops()
                .collect()
        };
        let n = order.len();
        order[n - 1] = order[0];
        let bad = StaticHints {
            priority: Some(order),
            cca_groups: None,
        };
        let degraded = t.translate(&body, &bad);
        assert!(matches!(degraded.verdict.priority, Some(Err(_))));
        let dynamic = t.translate(&body, &StaticHints::none());
        assert!(!dynamic.verdict.is_degraded());
        let a = degraded.result.expect("degraded path translates");
        let b = dynamic.result.expect("dynamic path translates");
        assert_eq!(
            a.scheduled.schedule.entries(),
            b.scheduled.schedule.entries(),
            "degraded schedule must equal the fully dynamic one"
        );
        // Degradation costs: the failed validation is on the meter, plus
        // the dynamic priority it fell back to.
        assert!(degraded.breakdown.get(Phase::HintDecode) > 0);
        assert!(degraded.breakdown.get(Phase::Priority) > 0);
    }

    #[test]
    fn valid_hint_verdict_records_two_clean_checks() {
        let la = AcceleratorConfig::paper_design();
        let spec = CcaSpec::paper();
        let body = media_loop();
        let hints = compute_hints(&body, &la, Some(&spec));
        let t = Translator::new(la, Some(spec), TranslationPolicy::static_hints());
        let out = t.translate(&body, &hints);
        assert_eq!(out.verdict.checks(), 2);
        assert!(!out.verdict.is_degraded());
    }

    #[test]
    fn no_cca_in_system_skips_mapping_cost() {
        let t = Translator::new(
            AcceleratorConfig::builder().cca_units(0).build(),
            None,
            TranslationPolicy::fully_dynamic(),
        );
        let out = t.translate(&media_loop(), &StaticHints::none());
        assert!(out.result.is_ok());
        assert_eq!(out.breakdown.get(Phase::CcaMapping), 0);
    }

    #[test]
    fn unsupported_loop_reports_unsupported() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        b.op(Opcode::Call, &[x]);
        let body = LoopBody::new("caller", b.finish());
        let t = Translator::new(
            AcceleratorConfig::paper_design(),
            None,
            TranslationPolicy::fully_dynamic(),
        );
        let out = t.translate(&body, &StaticHints::none());
        assert!(matches!(
            out.result,
            Err(TranslationError::Unsupported(SeparationError::CallInLoop))
        ));
    }

    #[test]
    fn too_many_streams_rejected() {
        let mut b = DfgBuilder::new();
        let mut acc = b.load_stream(0);
        for i in 1..20 {
            let x = b.load_stream(i);
            acc = b.op(Opcode::Add, &[acc, x]);
        }
        b.mark_live_out(acc);
        let body = LoopBody::new("wide", b.finish());
        let t = Translator::new(
            AcceleratorConfig::paper_design(),
            None,
            TranslationPolicy::fully_dynamic(),
        );
        let out = t.translate(&body, &StaticHints::none());
        assert!(matches!(
            out.result,
            Err(TranslationError::Schedule(ScheduleError::Capability(_)))
        ));
    }

    #[test]
    fn height_priority_cheaper_than_swing() {
        let body = media_loop();
        let swing = Translator::new(
            AcceleratorConfig::paper_design(),
            None,
            TranslationPolicy::fully_dynamic(),
        );
        let height = Translator::new(
            AcceleratorConfig::paper_design(),
            None,
            TranslationPolicy::fully_dynamic_height(),
        );
        let cs = swing.translate(&body, &StaticHints::none()).cost();
        let ch = height.translate(&body, &StaticHints::none()).cost();
        assert!(ch < cs, "height {ch} vs swing {cs}");
    }
}
