//! Benchmarks native loop execution: the [`veal::ir::interp`] reference
//! interpreter vs the LoopVM bytecode backend ([`veal::exec`]), scalar and
//! lane-vectorized, over every loop of the full workload suite.
//!
//! Each raw suite loop is legalized exactly as the system simulator does
//! (`legalize` + `TransformLimits::default()`), given its static hints,
//! and compiled through [`veal::vm::Translator::compile_executable`] — so
//! a mapped loop executes in modulo-schedule order and a rejected one in
//! topological order, the same artifacts a `VmSession` caches. Three arms
//! per loop, all driven by the shared deterministic fixture inputs:
//!
//! * **interp** — `veal::ir::interp::interpret`, the golden semantics.
//! * **loopvm** — `ExecutableLoop::run`, the scalar bytecode dispatch.
//! * **lanes**  — `ExecutableLoop::run_lanes` at `DEFAULT_LANES` (8)
//!   iterations per inner step with a masked tail.
//!
//! Correctness is gated differentially before anything is timed: the
//! FNV-folded checksum ([`veal::workloads::fold_checksum`]) of each arm's
//! full `ExecResult` must be bit-identical, and a body the interpreter
//! refuses (opaque calls) must be refused by the compiler at the same
//! node. Any divergence fails the run.
//!
//! Results are printed and written to `BENCH_exec.json`, with lane-mode
//! nanoseconds per iteration for each app. Environment knobs for the CI
//! smoke job: `VEAL_BENCH_APPS` truncates the suite, `VEAL_BENCH_TRIPS`
//! sets iterations per timed run (default 4096), `VEAL_BENCH_REPS` the
//! repetitions per pass (default 3), `VEAL_BENCH_PASSES` the best-of pass
//! count (default 3), and `VEAL_BENCH_MAX_LANES_SLOWDOWN` (a float) is a
//! regression floor on lane mode's own time: the run exits non-zero when
//! its lanes time exceeds that multiple of the time predicted by the
//! per-app nanoseconds per iteration in the `BENCH_exec.json` already in
//! the working directory (read before this run overwrites it). The
//! floor never divides by the interpreter's time, so a faster
//! interpreter cannot trip it.

use std::time::Instant;
use veal::exec::CompileError;
use veal::ir::interp::{interpret, Inputs, InterpError};
use veal::workloads::{fixture_inputs, fold_checksum};
use veal::{
    compute_hints, legalize, AcceleratorConfig, CcaSpec, ExecutableLoop, LoopBody, TransformLimits,
    TranslationPolicy, Translator, DEFAULT_LANES,
};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Minimum wall-clock nanos over `passes` runs of `f`. Best-of-N filters
/// scheduler/frequency noise; applied identically to every arm so the
/// speedup ratios stay unbiased.
fn min_ns(passes: usize, mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..passes {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

/// The per-app lane-mode figures a `BENCH_exec.json` records, as
/// `(app, ns per iteration)` pairs.
fn baseline_lanes(json: &str) -> Option<Vec<(String, f64)>> {
    let key = "\"lanes_ns_per_iter_by_app\": {";
    let body = &json[json.find(key)? + key.len()..];
    let body = &body[..body.find('}')?];
    body.split(',')
        .filter(|entry| !entry.trim().is_empty())
        .map(|entry| {
            let (name, value) = entry.split_once(':')?;
            let name = name.trim().strip_prefix('"')?.strip_suffix('"')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// One legalized loop readied for the executors: body, fixture inputs,
/// compiled artifact, and whether translation mapped it (schedule order)
/// or it fell back to topological order.
struct Prepped {
    app: usize,
    body: LoopBody,
    inputs: Inputs,
    exe: ExecutableLoop,
    mapped: bool,
}

fn main() {
    let mut apps = veal::workloads::full_suite();
    let max_apps = env_usize("VEAL_BENCH_APPS", usize::MAX);
    apps.truncate(max_apps);
    let trips = env_usize("VEAL_BENCH_TRIPS", 4096).max(1) as u64;
    let reps = env_usize("VEAL_BENCH_REPS", 3).max(1);
    let passes = env_usize("VEAL_BENCH_PASSES", 3).max(1);
    let lanes = env_usize("VEAL_BENCH_LANES", DEFAULT_LANES).max(1);
    let max_slowdown = std::env::var("VEAL_BENCH_MAX_LANES_SLOWDOWN")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    // The committed report is the baseline; read it before this run
    // overwrites it.
    let baseline = max_slowdown.map(|_| {
        std::fs::read_to_string("BENCH_exec.json")
            .ok()
            .and_then(|json| baseline_lanes(&json))
            .unwrap_or_else(|| {
                eprintln!("bench_exec: no per-app lanes baseline in BENCH_exec.json");
                std::process::exit(1);
            })
    });

    let config = AcceleratorConfig::paper_design();
    let spec = CcaSpec::paper();
    let translator = Translator::new(
        config.clone(),
        Some(spec.clone()),
        TranslationPolicy::static_hints(),
    );
    let limits = TransformLimits::default();

    // --- legalize, compile, and differentially verify every loop ---------
    let mut prepped = Vec::new();
    let mut loops_total = 0usize;
    let mut refused = 0usize;
    for (a, app) in apps.iter().enumerate() {
        for (i, l) in app.loops.iter().enumerate() {
            for part in legalize(&l.raw, &limits) {
                loops_total += 1;
                let name = format!("{}#{i} {}", app.name, part.body.name);
                let hints = compute_hints(&part.body, &config, Some(&spec));
                let inputs = fixture_inputs(&part.body);
                let exe = translator.compile_executable(&part.body, &hints);
                match interpret(&part.body.dfg, trips, &inputs) {
                    Ok(golden) => {
                        let exe = match exe {
                            Ok(exe) => exe,
                            Err(e) => {
                                eprintln!(
                                    "bench_exec: {name}: interp runs but LoopVM refused: {e}"
                                );
                                std::process::exit(1);
                            }
                        };
                        // Differential gate: full-result checksums must be
                        // bit-identical across all three arms before any
                        // arm is timed.
                        let want = fold_checksum(&golden);
                        let scalar = fold_checksum(&exe.run(trips, &inputs));
                        let lane = fold_checksum(&exe.run_lanes(trips, &inputs, lanes));
                        if scalar != want || lane != want {
                            eprintln!(
                                "bench_exec: {name}: checksum mismatch \
                                 (interp {want:#018x} loopvm {scalar:#018x} lanes {lane:#018x})"
                            );
                            std::process::exit(1);
                        }
                        let mapped = translator.translate(&part.body, &hints).result.is_ok();
                        prepped.push(Prepped {
                            app: a,
                            body: part.body,
                            inputs,
                            exe,
                            mapped,
                        });
                    }
                    Err(InterpError::Opaque(op)) => {
                        // The interpreter refuses opaque bodies; LoopVM
                        // must refuse identically, at the same node.
                        refused += 1;
                        match exe {
                            Err(CompileError::Opaque(o)) if o == op => {}
                            other => {
                                eprintln!(
                                    "bench_exec: {name}: interp refused at {op} but LoopVM \
                                     returned {other:?}"
                                );
                                std::process::exit(1);
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("bench_exec: {name}: interpreter error: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }
    let mapped = prepped.iter().filter(|p| p.mapped).count();
    let (serial, vector) = prepped
        .iter()
        .map(|p| p.exe.lane_stats())
        .fold((0, 0), |(s, v), (ps, pv)| (s + ps, v + pv));
    println!(
        "bench_exec: {} apps, {loops_total} legalized loops ({} executable, {refused} opaque, \
         {mapped} mapped), {trips} trips, {reps} reps, best of {passes} passes, W={lanes}, \
         lane plan {vector} vector / {serial} serial instrs",
        apps.len(),
        prepped.len(),
    );

    // --- timed arms ------------------------------------------------------
    let mut interp_ns = 0u128;
    let mut loopvm_ns = 0u128;
    let mut lanes_ns = 0u128;
    let mut app_lanes_ns = vec![0u128; apps.len()];
    let mut app_loops = vec![0u128; apps.len()];
    for p in &prepped {
        interp_ns += min_ns(passes, || {
            for _ in 0..reps {
                std::hint::black_box(interpret(&p.body.dfg, trips, &p.inputs).unwrap());
            }
        });
        loopvm_ns += min_ns(passes, || {
            for _ in 0..reps {
                std::hint::black_box(p.exe.run(trips, &p.inputs));
            }
        });
        let ns = min_ns(passes, || {
            for _ in 0..reps {
                std::hint::black_box(p.exe.run_lanes(trips, &p.inputs, lanes));
            }
        });
        lanes_ns += ns;
        app_lanes_ns[p.app] += ns;
        app_loops[p.app] += 1;
    }
    // Lane-mode ns per iteration for each app that has executable loops.
    let iters_per_loop = u128::from(trips) * reps as u128;
    let by_app: Vec<(&str, f64, u128)> = apps
        .iter()
        .enumerate()
        .filter(|&(a, _)| app_loops[a] > 0)
        .map(|(a, app)| {
            let iters = app_loops[a] * iters_per_loop;
            (
                app.name.as_str(),
                app_lanes_ns[a] as f64 / iters as f64,
                iters,
            )
        })
        .collect();

    let ms = |ns: u128| ns as f64 / 1e6;
    let loopvm_speedup = ms(interp_ns) / ms(loopvm_ns).max(1e-9);
    let lanes_speedup = ms(interp_ns) / ms(lanes_ns).max(1e-9);
    println!(
        "interp  : {:>9.1} ms\nloopvm  : {:>9.1} ms  ({loopvm_speedup:.2}x)\n\
         lanes(W={lanes}): {:>9.1} ms  ({lanes_speedup:.2}x)",
        ms(interp_ns),
        ms(loopvm_ns),
        ms(lanes_ns)
    );
    println!("outputs : checksums bit-identical across all three arms");

    let json = format!(
        "{{\n  \"suite\": \"full\",\n  \"apps\": {},\n  \"loops_legalized\": {loops_total},\n  \
         \"loops_executable\": {},\n  \"loops_opaque\": {refused},\n  \"loops_mapped\": {mapped},\n  \
         \"trips\": {trips},\n  \"reps\": {reps},\n  \"passes\": {passes},\n  \
         \"lane_width\": {lanes},\n  \"interp_ms\": {:.3},\n  \"loopvm_ms\": {:.3},\n  \
         \"lanes_ms\": {:.3},\n  \"loopvm_speedup\": {loopvm_speedup:.3},\n  \
         \"lanes_speedup\": {lanes_speedup:.3},\n  \"lanes_ns_per_iter_by_app\": {{{}\n  }},\n  \
         \"checksums_identical\": true\n}}\n",
        apps.len(),
        prepped.len(),
        ms(interp_ns),
        ms(loopvm_ns),
        ms(lanes_ns),
        by_app
            .iter()
            .map(|(name, ns, _)| format!("\n    \"{name}\": {ns:.3}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    if let Err(e) = std::fs::write("BENCH_exec.json", json) {
        eprintln!("bench_exec: failed to write BENCH_exec.json: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_exec.json");
    if let (Some(floor), Some(baseline)) = (max_slowdown, baseline) {
        // The committed per-app rates, weighted by this run's iterations:
        // what these apps' lanes time was when the baseline was taken.
        let mut expected_ns = 0.0;
        for &(name, _, iters) in &by_app {
            let Some(&(_, ns)) = baseline.iter().find(|(b, _)| b == name) else {
                eprintln!("bench_exec: app {name} missing from the BENCH_exec.json baseline");
                std::process::exit(1);
            };
            expected_ns += ns * iters as f64;
        }
        let slowdown = lanes_ns as f64 / expected_ns.max(1.0);
        if slowdown > floor {
            eprintln!(
                "bench_exec: lanes {:.1} ms is {slowdown:.2}x the baseline's {:.1} ms, \
                 above the {floor:.2}x floor",
                ms(lanes_ns),
                expected_ns / 1e6
            );
            std::process::exit(1);
        }
        println!("lanes slowdown {slowdown:.3}x <= floor {floor:.3}x");
    }
}
