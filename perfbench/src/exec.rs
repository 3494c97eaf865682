//! `exec-suite`: native loop execution through LoopVM lanes.
//!
//! Every executable legalized suite loop is translated at set-up and
//! compiled once with `ExecutableLoop::compile(&dfg, schedule)`; its
//! checksum at its profiled trip count must equal the reference
//! interpreter's on the same seeded inputs before anything is timed. One
//! timed operation is one `run_lanes(trip_count, inputs, DEFAULT_LANES)`
//! call. A pass runs each loop back to back for its profiled invocation
//! count scaled by one common factor (at least once), closed loop on one
//! thread, so short-trip and long-trip loops weigh in as the application
//! profiles say.

use std::time::Instant;

use veal::exec::CompileError;
use veal::ir::interp::{interpret, Inputs, InterpError, Value};
use veal::ir::rng::Rng64;
use veal::workloads::fold_checksum;
use veal::{
    compute_hints, legalize, AcceleratorConfig, CcaSpec, ExecutableLoop, LoopBody, Opcode,
    TransformLimits, TranslationPolicy, Translator, DEFAULT_LANES,
};

use crate::spans::Spans;
use crate::stats::median;
use crate::{band_rows, Args, Attribution, Report, SETUP_REPS, TRACE_SLICES};

/// Iterations one pass runs across the whole suite (before the at-least-
/// once floor): about a quarter of a second of LoopVM work.
const PASS_ITERATIONS: f64 = 2.0e6;
/// Trip counts at or below this are "short" (set-up dominated).
const SHORT_TRIPS: u64 = 64;
/// Trip counts at or above this are "long" (steady state).
const LONG_TRIPS: u64 = 1024;
/// Longest seeded input stream; loads past the end read 0.
const STREAM_LEN: u64 = 256;

/// One loop readied for timing.
struct Prepped {
    exe: ExecutableLoop,
    inputs: Inputs,
    trips: u64,
    invocations: u64,
}

/// What set-up built and measured.
struct Setup {
    loops: Vec<Prepped>,
    legalized: usize,
    opaque: usize,
    compile_ns: Vec<u64>,
    interp_ns: u64,
    interp_iters: u64,
    mismatches: Vec<String>,
}

/// Seeded inputs for `body`: every stream it loads and every live-in.
fn seeded_inputs(body: &LoopBody, trips: u64, rng: &mut Rng64) -> Inputs {
    let mut inputs = Inputs::default();
    let len = trips.min(STREAM_LEN) as usize;
    for v in body.dfg.live_ids() {
        let node = body.dfg.node(v);
        if node.opcode() == Some(Opcode::Load) {
            if let Some(s) = node.stream {
                inputs.streams.entry(s).or_insert_with(|| {
                    (0..len)
                        .map(|_| Value::Int(rng.gen_range(0, 101) as i64 - 50))
                        .collect()
                });
            }
        }
    }
    for id in body.dfg.live_in_ids() {
        inputs
            .live_ins
            .insert(id, Value::Int(rng.gen_range(1, 17) as i64));
    }
    inputs
}

fn setup(seed: u64) -> Setup {
    let config = AcceleratorConfig::paper_design();
    let spec = CcaSpec::paper();
    let translator = Translator::new(
        config.clone(),
        Some(spec.clone()),
        TranslationPolicy::static_hints(),
    );
    let limits = TransformLimits::default();
    let mut rng = Rng64::new(seed);
    let mut s = Setup {
        loops: Vec::new(),
        legalized: 0,
        opaque: 0,
        compile_ns: Vec::new(),
        interp_ns: 0,
        interp_iters: 0,
        mismatches: Vec::new(),
    };
    for app in veal::workloads::full_suite() {
        for (i, l) in app.loops.iter().enumerate() {
            for part in legalize(&l.raw, &limits) {
                s.legalized += 1;
                let name = format!("{}#{i} {}", app.name, part.body.name);
                let hints = compute_hints(&part.body, &config, Some(&spec));
                let schedule = translator
                    .translate(&part.body, &hints)
                    .result
                    .ok()
                    .map(|t| t.scheduled.schedule);
                let t = Instant::now();
                let exe = ExecutableLoop::compile(&part.body.dfg, schedule.as_ref());
                let compile_ns = t.elapsed().as_nanos() as u64;
                let trips = l.profile.trip_count;
                let inputs = seeded_inputs(&part.body, trips, &mut rng);
                let t = Instant::now();
                let golden = interpret(&part.body.dfg, trips, &inputs);
                let interp_ns = t.elapsed().as_nanos() as u64;
                match (golden, exe) {
                    (Ok(golden), Ok(exe)) => {
                        s.interp_ns += interp_ns;
                        s.interp_iters += trips;
                        s.compile_ns.push(compile_ns);
                        let want = fold_checksum(&golden);
                        let got = fold_checksum(&exe.run_lanes(trips, &inputs, DEFAULT_LANES));
                        if got != want {
                            s.mismatches.push(format!(
                                "{name}: {trips} trips: lanes {got:#018x} vs interp {want:#018x}"
                            ));
                        }
                        s.loops.push(Prepped {
                            exe,
                            inputs,
                            trips,
                            invocations: l.profile.invocations,
                        });
                    }
                    (Err(InterpError::Opaque(a)), Err(CompileError::Opaque(b))) if a == b => {
                        s.opaque += 1;
                    }
                    (golden, exe) => s.mismatches.push(format!(
                        "{name}: interpreter {:?} but compiler {:?}",
                        golden.err(),
                        exe.err()
                    )),
                }
            }
        }
    }
    s
}

/// One measured phase.
#[derive(Default)]
struct Phase {
    /// Per-invocation samples (bench span, `run_lanes` call, loop index),
    /// kept only when asked: traced runs need them, and an untraced run's
    /// peak RSS must not grow with how many invocations it fitted in.
    op_us: Vec<f64>,
    run_us: Vec<f64>,
    loop_idx: Vec<u32>,
    /// Each loop's fastest invocation, µs.
    best: Vec<f64>,
    invocations: u64,
    run_us_total: f64,
    iters: u64,
    short_ns: (u64, u64),
    long_ns: (u64, u64),
}

impl Phase {
    /// Appends a later slice.
    fn extend(&mut self, later: Phase) {
        self.op_us.extend(later.op_us);
        self.run_us.extend(later.run_us);
        self.loop_idx.extend(later.loop_idx);
        if self.best.is_empty() {
            self.best = later.best;
        } else {
            for (b, l) in self.best.iter_mut().zip(later.best) {
                *b = b.min(l);
            }
        }
        self.invocations += later.invocations;
        self.run_us_total += later.run_us_total;
        self.iters += later.iters;
        self.short_ns = (
            self.short_ns.0 + later.short_ns.0,
            self.short_ns.1 + later.short_ns.1,
        );
        self.long_ns = (
            self.long_ns.0 + later.long_ns.0,
            self.long_ns.1 + later.long_ns.1,
        );
    }
}

/// Runs whole passes (scaled invocation counts, loops in suite order from
/// `offset`), at least one, until `seconds` have elapsed. `keep` retains
/// every invocation's samples.
fn measure(
    loops: &[Prepped],
    counts: &[u64],
    offset: usize,
    seconds: f64,
    keep: bool,
    spans: &mut Spans,
) -> Phase {
    let mut p = Phase {
        best: vec![f64::INFINITY; loops.len()],
        ..Phase::default()
    };
    let budget = (seconds * 1e9) as u64;
    let start = spans.now();
    loop {
        for k in 0..loops.len() {
            let idx = (offset + k) % loops.len();
            let l = &loops[idx];
            for _ in 0..counts[idx] {
                let t0 = spans.now();
                let t1 = spans.now();
                let out = l.exe.run_lanes(l.trips, &l.inputs, DEFAULT_LANES);
                std::hint::black_box(&out);
                drop(out);
                let t2 = spans.now();
                let t3 = spans.now();
                let run_us = (t2 - t1) as f64 / 1e3;
                p.best[idx] = p.best[idx].min(run_us);
                p.run_us_total += run_us;
                p.iters += l.trips;
                if l.trips <= SHORT_TRIPS {
                    p.short_ns.0 += t2 - t1;
                    p.short_ns.1 += l.trips;
                } else if l.trips >= LONG_TRIPS {
                    p.long_ns.0 += t2 - t1;
                    p.long_ns.1 += l.trips;
                }
                if keep {
                    p.op_us.push((t3 - t0) as f64 / 1e3);
                    p.run_us.push(run_us);
                    p.loop_idx.push(idx as u32);
                }
                if spans.is_on() {
                    let op = spans.record("bench.exec.invoke", t0, t3, None, p.invocations);
                    spans.record("exec.run_lanes", t1, t2, Some(op), p.invocations);
                }
                p.invocations += 1;
            }
        }
        if spans.now() - start >= budget {
            return p;
        }
    }
}

/// Nanoseconds per iteration of one pass, each loop timed at its best
/// invocation (`best`, µs) and weighted by its invocations per pass.
fn ns_per_iter_best(loops: &[Prepped], counts: &[u64], best: &[f64]) -> f64 {
    let (us, iters) = loops
        .iter()
        .zip(counts)
        .zip(best)
        .fold((0.0, 0u64), |(us, it), ((l, &c), &b)| {
            (us + c as f64 * b, it + c * l.trips)
        });
    us * 1e3 / iters as f64
}

fn ns_per_iter((ns, iters): (u64, u64)) -> f64 {
    ns as f64 / iters.max(1) as f64
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let t = Instant::now();
    let s = setup(args.seed);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let weight: f64 = s
        .loops
        .iter()
        .map(|l| l.invocations as f64 * l.trips as f64)
        .sum();
    let scale = PASS_ITERATIONS / weight;
    let counts: Vec<u64> = s
        .loops
        .iter()
        .map(|l| ((l.invocations as f64 * scale).round() as u64).max(1))
        .collect();
    let offset = (args.seed % s.loops.len() as u64) as usize;
    let mut report = Report::new(format!(
        "{} executable of {} legalized suite loops ({} opaque), seeded inputs, \
         {} invocations per pass (scale {scale:.3e}), W={DEFAULT_LANES}",
        s.loops.len(),
        s.legalized,
        s.opaque,
        counts.iter().sum::<u64>()
    ));
    report.absorb(
        s.mismatches.len() as u64,
        s.loops.len() as u64,
        &s.mismatches,
    );
    let run =
        |seconds, keep, spans: &mut Spans| measure(&s.loops, &counts, offset, seconds, keep, spans);
    // One untimed pass first: output buffers and caches warm up.
    report.attempted += run(0.0, false, &mut Spans::disabled()).invocations;

    if !args.trace {
        // The other set-ups run between slices of the measurement, so
        // `setup_s` samples the host across the whole run.
        let mut plain = Phase::default();
        for _ in 1..SETUP_REPS {
            let slice = args.seconds / (SETUP_REPS - 1) as f64;
            plain.extend(run(slice, false, &mut Spans::disabled()));
            let t = Instant::now();
            drop(setup(args.seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        report.attempted += plain.invocations;
        // Each loop at its best invocation, weighted by its invocations.
        report.e2e(
            "throughput_per_s",
            1e9 / ns_per_iter_best(&s.loops, &counts, &plain.best),
        );
        let weighted: Vec<f64> = plain
            .best
            .iter()
            .zip(&counts)
            .flat_map(|(&us, &c)| std::iter::repeat_n(us, c as usize))
            .collect();
        report.e2e("p50_us", median(&weighted));
        let p90 = report.checked_p90(&weighted);
        report.e2e("p90_us", p90);
        report.context.push(format!(
            "all invocations: {:.0} iterations/s over {} invocations",
            plain.iters as f64 / (plain.run_us_total / 1e6),
            plain.invocations
        ));
        report.e2e("setup_s", median(&setup_s));
        return report;
    }

    // Traced slices alternate with untraced ones, so host drift hits both
    // alike.
    let slice = args.seconds / (2 * TRACE_SLICES) as f64;
    let mut spans = Spans::enabled();
    let mut plain = Phase::default();
    let mut t = Phase::default();
    for _ in 0..TRACE_SLICES {
        plain.extend(run(slice, true, &mut Spans::disabled()));
        t.extend(run(slice, true, &mut spans));
    }
    report.attempted += plain.invocations + t.invocations;
    // One window per pass.
    let p99 = report.checked_p99(&plain.run_us, counts.iter().sum::<u64>() as usize);
    report.layer("bench.p99_us", p99);
    let (serial, vector) = s
        .loops
        .iter()
        .map(|l| l.exe.lane_stats())
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    let compile_total: u64 = s.compile_ns.iter().sum();
    report.layer(
        "exec.compile_us",
        compile_total as f64 / 1e3 / s.compile_ns.len() as f64,
    );
    report.layer("exec.compile_suite_ms", compile_total as f64 / 1e6);
    report.layer("exec.run_short_ns_per_iter", ns_per_iter(t.short_ns));
    report.layer("exec.run_long_ns_per_iter", ns_per_iter(t.long_ns));
    report.layer(
        "exec.run_ns_per_iter",
        t.run_us_total * 1e3 / t.iters as f64,
    );
    report.layer(
        "exec.lane.serial_share",
        serial as f64 / (serial + vector).max(1) as f64,
    );
    report.layer(
        "exec.code_bytes",
        s.loops.iter().map(|l| l.exe.code_bytes()).sum::<usize>() as f64,
    );
    report.layer(
        "ir.interp_ns_per_iter",
        s.interp_ns as f64 / s.interp_iters.max(1) as f64,
    );
    report.layer(
        "trace.overhead_ratio",
        ns_per_iter_best(&s.loops, &counts, &t.best)
            / ns_per_iter_best(&s.loops, &counts, &plain.best),
    );
    report.table = Some(Attribution {
        op: "one run_lanes invocation",
        median_us: median(&t.op_us),
        rows: band_rows(&t.op_us, &[("exec.run_lanes", &t.run_us)]),
        residual_name: "bench.exec.invoke (self)",
    });
    report.spans = Some(spans);
    report
}
