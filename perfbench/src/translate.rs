//! `translate-cold`: the paper's runtime-translation path with every loop
//! a miss.
//!
//! Each legalized suite loop is packed at set-up as a single-loop binary
//! module carrying its static hints. One timed operation is
//! `decode_module` → `Translator::translate` (paper design,
//! `TranslationPolicy::static_hints`) → `encode_translated_loop`, closed
//! loop on one thread. Loops run in suite order every pass, so a loop
//! recurs only after every other loop has run — beyond the scheduler's
//! 64-entry per-thread parameter cache, which keeps every pass cold.

use std::sync::Arc;
use std::time::Instant;

use veal::ir::meter::ALL_PHASES;
use veal::ir::rng::Fnv64;
use veal::obs::metrics;
use veal::vm::{BinaryModule, EncodedLoop};
use veal::{
    compute_hints, decode_module, decode_translated_loop, encode_module, encode_translated_loop,
    legalize, AcceleratorConfig, CcaSpec, NullSink, Trace, TransformLimits, TranslationPolicy,
    Translator,
};

use crate::spans::Spans;
use crate::stats::median;
use crate::{band_rows, Args, Attribution, Report, SETUP_REPS, TRACE_SLICES};

/// One suite loop as a module byte string.
struct Module {
    name: String,
    bytes: Vec<u8>,
}

/// Legalizes every suite loop and packs each as a one-loop module.
fn setup() -> Vec<Module> {
    let config = AcceleratorConfig::paper_design();
    let spec = CcaSpec::paper();
    let limits = TransformLimits::default();
    let mut out = Vec::new();
    for app in veal::workloads::full_suite() {
        for (i, l) in app.loops.iter().enumerate() {
            for part in legalize(&l.raw, &limits) {
                let hints = compute_hints(&part.body, &config, Some(&spec));
                let name = format!("{}#{i} {}", app.name, part.body.name);
                let bytes = encode_module(&BinaryModule {
                    loops: vec![EncodedLoop {
                        body: part.body,
                        priority_hint: hints.priority,
                        cca_hint: hints.cca_groups,
                        family_hint: None,
                    }],
                });
                out.push(Module { name, bytes });
            }
        }
    }
    out
}

/// The always-on counters whose per-pass deltas the traced run reports.
const PASS_COUNTERS: [&str; 5] = [
    "sched.param_cache.hits",
    "sched.param_cache.misses",
    "sched.dist_pool.reuses",
    "sched.dist_pool.allocs",
    "sched.ii_escalations",
];

fn counter_values() -> Vec<u64> {
    let mut v: Vec<u64> = ALL_PHASES
        .iter()
        .map(|p| metrics::counter(phase_counter(p.name())).get())
        .collect();
    v.extend(PASS_COUNTERS.iter().map(|c| metrics::counter(c).get()));
    v
}

/// The registry name of a phase's unit counter.
fn phase_counter(phase: &str) -> &'static str {
    match phase {
        "loop-ident" => "vm.translate.units.loop-ident",
        "stream-sep" => "vm.translate.units.stream-sep",
        "cca-mapping" => "vm.translate.units.cca-mapping",
        "res-mii" => "vm.translate.units.res-mii",
        "rec-mii" => "vm.translate.units.rec-mii",
        "priority" => "vm.translate.units.priority",
        "scheduling" => "vm.translate.units.scheduling",
        "reg-assign" => "vm.translate.units.reg-assign",
        "hint-decode" => "vm.translate.units.hint-decode",
        "concretize" => "vm.translate.units.concretize",
        other => panic!("unknown phase {other}"),
    }
}

/// One measured phase.
#[derive(Default)]
struct Phase {
    /// Per-op samples (end to end, then each layer, µs), kept only when
    /// asked: traced runs need them, and an untraced run's peak RSS must
    /// not grow with how many operations it fitted in.
    op_us: Vec<f64>,
    decode_us: Vec<f64>,
    translate_us: Vec<f64>,
    encode_us: Vec<f64>,
    /// Each module's fastest operation, µs.
    best: Vec<f64>,
    ops: u64,
    /// Counter deltas over one whole pass.
    pass_deltas: Option<Vec<u64>>,
    failed: u64,
    mismatches: Vec<String>,
}

impl Phase {
    /// Appends a later slice; the first slice's pass deltas are kept.
    fn extend(&mut self, later: Phase) {
        self.op_us.extend(later.op_us);
        self.decode_us.extend(later.decode_us);
        self.translate_us.extend(later.translate_us);
        self.encode_us.extend(later.encode_us);
        if self.best.is_empty() {
            self.best = later.best;
        } else {
            for (b, l) in self.best.iter_mut().zip(later.best) {
                *b = b.min(l);
            }
        }
        self.ops += later.ops;
        self.pass_deltas = self.pass_deltas.take().or(later.pass_deltas);
        self.failed += later.failed;
        self.mismatches.extend(later.mismatches);
    }
}

/// Runs whole passes over `modules` (at least three) for `seconds`,
/// starting at loop `offset`; `keep` retains every operation's samples.
/// `folds` holds each loop's (schedule, units, response bytes) fold from
/// the first pass ever run; every later pass must reproduce it.
fn measure(
    modules: &[Module],
    translator: &Translator,
    offset: usize,
    seconds: f64,
    keep: bool,
    folds: &mut [Option<u64>],
    spans: &mut Spans,
) -> Phase {
    let config = translator.config().clone();
    let n = modules.len();
    let mut p = Phase {
        best: vec![f64::INFINITY; n],
        ..Phase::default()
    };
    let start = spans.now();
    let budget = (seconds * 1e9) as u64;
    let mut boundary: Option<Vec<u64>> = None;
    let mut k = 0usize;
    loop {
        if k.is_multiple_of(n) {
            // Pass boundary: the second boundary opens the pass whose
            // counter deltas are reported (the first may still be warm
            // from set-up).
            let passes = k / n;
            if passes == 1 {
                boundary = Some(counter_values());
            } else if passes == 2 {
                let before = boundary.take().expect("set at the previous boundary");
                let now = counter_values();
                p.pass_deltas = Some(now.iter().zip(before).map(|(a, b)| a - b).collect());
            }
            if spans.now() - start >= budget && passes >= 3 {
                break;
            }
        }
        let idx = (offset + k) % n;
        let m = &modules[idx];
        let t0 = spans.now();
        let decoded = decode_module(&m.bytes);
        let t1 = spans.now();
        let Ok(decoded) = decoded else {
            p.failed += 1;
            p.mismatches
                .push(format!("{}: module failed to decode", m.name));
            k += 1;
            continue;
        };
        let one = &decoded.loops[0];
        let outcome = translator.translate(&one.body, &one.hints());
        let t2 = spans.now();
        let encoded = outcome.result.as_ref().ok().map(encode_translated_loop);
        let t3 = spans.now();

        let op_us = (t3 - t0) as f64 / 1e3;
        p.best[idx] = p.best[idx].min(op_us);
        p.ops += 1;
        if keep {
            p.op_us.push(op_us);
            p.decode_us.push((t1 - t0) as f64 / 1e3);
            p.translate_us.push((t2 - t1) as f64 / 1e3);
            p.encode_us.push((t3 - t2) as f64 / 1e3);
        }
        if spans.is_on() {
            let req = k as u64;
            let op = spans.record("bench.translate.op", t0, t3, None, req);
            spans.record("vm.binfmt.decode", t0, t1, Some(op), req);
            spans.record("vm.translator.translate", t1, t2, Some(op), req);
            spans.record("vm.codec.encode", t2, t3, Some(op), req);
        }

        // Correctness, off the clock: the fold of schedule shape, phase
        // units and response bytes repeats in every pass, and each loop's
        // first response round-trips through client-side verification.
        let mut h = Fnv64::new();
        for phase in ALL_PHASES {
            h.write_u64(outcome.breakdown.get(*phase));
        }
        let bytes = match encoded {
            Some(Ok(bytes)) => {
                let s = &outcome
                    .result
                    .as_ref()
                    .expect("encoded implies mapped")
                    .scheduled;
                h.write_u64(u64::from(s.schedule.ii));
                h.write_u64(u64::from(s.schedule.stage_count()));
                h.write_bytes(&bytes);
                Some(bytes)
            }
            Some(Err(e)) => {
                p.failed += 1;
                p.mismatches
                    .push(format!("{}: response encode failed: {e}", m.name));
                k += 1;
                continue;
            }
            None => None,
        };
        let fold = h.finish();
        match folds[idx] {
            Some(want) if want != fold => {
                p.failed += 1;
                p.mismatches
                    .push(format!("{}: pass {} fold differs", m.name, k / n));
            }
            Some(_) => {}
            None => {
                if let Some(bytes) = &bytes {
                    let round = decode_translated_loop(bytes, &config)
                        .map_err(|e| e.to_string())
                        .and_then(|t| encode_translated_loop(&t).map_err(|e| e.to_string()));
                    if round.as_deref() != Ok(bytes.as_slice()) {
                        p.failed += 1;
                        p.mismatches
                            .push(format!("{}: schedule does not round-trip", m.name));
                    }
                }
                folds[idx] = Some(fold);
            }
        }
        k += 1;
    }
    p
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let t = Instant::now();
    let modules = setup();
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let translator = Translator::new(
        AcceleratorConfig::paper_design(),
        Some(CcaSpec::paper()),
        TranslationPolicy::static_hints(),
    );
    let offset = (args.seed % modules.len() as u64) as usize;
    let mut folds = vec![None; modules.len()];
    let mut report = Report::new(format!(
        "{} legalized suite loops, one-loop modules with static hints, start offset {offset}",
        modules.len()
    ));

    // Untimed passes first; they also run every loop's round-trip check.
    let warm = measure(
        &modules,
        &translator,
        offset,
        0.0,
        false,
        &mut folds,
        &mut Spans::disabled(),
    );
    report.absorb(warm.failed, warm.ops, &warm.mismatches);
    if !args.trace {
        // The other set-ups run between slices of the measurement, so
        // `setup_s` samples the host across the whole run.
        let mut plain = Phase::default();
        for _ in 1..SETUP_REPS {
            let slice = args.seconds / (SETUP_REPS - 1) as f64;
            let mut off = Spans::disabled();
            plain.extend(measure(
                &modules,
                &translator,
                offset,
                slice,
                false,
                &mut folds,
                &mut off,
            ));
            let t = Instant::now();
            drop(setup());
            setup_s.push(t.elapsed().as_secs_f64());
            // Set-up's hint pass leaves the scheduler's parameter cache
            // warm with the last loops it saw; untimed passes restore the
            // cyclic cold state before timing resumes.
            let rewarm = measure(
                &modules,
                &translator,
                offset,
                0.0,
                false,
                &mut folds,
                &mut Spans::disabled(),
            );
            report.absorb(rewarm.failed, rewarm.ops, &rewarm.mismatches);
        }
        report.absorb(plain.failed, plain.ops, &plain.mismatches);
        // Each loop at its best pass.
        let busy_s = plain.best.iter().sum::<f64>() / 1e6;
        report.e2e("throughput_per_s", plain.best.len() as f64 / busy_s);
        report.e2e("p50_us", median(&plain.best));
        let p90 = report.checked_p90(&plain.best);
        report.e2e("p90_us", p90);
        report.e2e("setup_s", median(&setup_s));
        return report;
    }

    // Traced slices alternate with untraced ones, so host drift hits both
    // alike. In a traced slice an enabled (discarding) trace switches the
    // translator's wall histogram on, and the benchmark records its spans.
    let traced = translator
        .clone()
        .with_trace(Trace::new(Arc::new(NullSink)));
    let wall = metrics::histogram("vm.translate.wall_ns");
    let mut wall_ns = (0, 0);
    let mut spans = Spans::enabled();
    let slice = args.seconds / (2 * TRACE_SLICES) as f64;
    let mut plain = Phase::default();
    let mut t = Phase::default();
    for _ in 0..TRACE_SLICES {
        let mut off = Spans::disabled();
        plain.extend(measure(
            &modules,
            &translator,
            offset,
            slice,
            true,
            &mut folds,
            &mut off,
        ));
        let (n0, s0) = (wall.count(), wall.sum());
        t.extend(measure(
            &modules, &traced, offset, slice, true, &mut folds, &mut spans,
        ));
        wall_ns = (wall_ns.0 + wall.count() - n0, wall_ns.1 + wall.sum() - s0);
    }
    for p in [&plain, &t] {
        report.absorb(p.failed, p.ops, &p.mismatches);
    }
    let wall_us = wall_ns.1 as f64 / 1e3 / wall_ns.0.max(1) as f64;

    // Windows of whole passes, at least 1000 operations each.
    let window = modules.len() * 1000usize.div_ceil(modules.len());
    let p99 = report.checked_p99(&plain.op_us, window);
    report.layer("bench.p99_us", p99);
    let layers = spans.layer_times();
    report.layer("vm.binfmt.decode_us", layers["vm.binfmt.decode"].self_us());
    report.layer(
        "vm.translator.translate_us",
        layers["vm.translator.translate"].self_us(),
    );
    report.layer("vm.translator.wall_us", wall_us);
    report.layer("vm.codec.encode_us", layers["vm.codec.encode"].self_us());
    if let Some(deltas) = &t.pass_deltas {
        for (phase, d) in ALL_PHASES.iter().zip(deltas) {
            report.layer(phase_counter(phase.name()), *d as f64);
        }
        for (name, d) in PASS_COUNTERS.iter().zip(&deltas[ALL_PHASES.len()..]) {
            report.layer(name, *d as f64);
        }
    }
    let best_sum = |p: &Phase| p.best.iter().sum::<f64>();
    report.layer("trace.overhead_ratio", best_sum(&t) / best_sum(&plain));
    report.spans = Some(spans);

    report.table = Some(Attribution {
        op: "translate one loop (decode → translate → encode)",
        median_us: median(&t.op_us),
        rows: band_rows(
            &t.op_us,
            &[
                ("vm.binfmt.decode", &t.decode_us),
                ("vm.translator.translate", &t.translate_us),
                ("vm.codec.encode", &t.encode_us),
            ],
        ),
        residual_name: "bench.translate.op (self)",
    });
    report
}
