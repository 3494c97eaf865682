//! Seeded 200-case differential corpus.
//!
//! Random schedulable loops (`Rng64`-parameterized `synth_loop` specs)
//! run through the reference interpreter, LoopVM scalar, and lane mode
//! at W ∈ {1, 4, 8}; every executor must produce the identical checksum
//! on the shared golden fixture, at full, partial and zero trip counts.
//! Loop-carried reads start from seeded initial values, integer and
//! float, including reads of constants and live-ins. Bodies poisoned
//! with an opaque call must be refused by all three, matching
//! `semantic_checksum`'s `None`.

use veal_accel::AcceleratorConfig;
use veal_exec::{CompileError, ExecutableLoop};
use veal_ir::dfg::{EdgeKind, NodeKind};
use veal_ir::interp::{interpret, Inputs, InterpError, Value};
use veal_ir::rng::Rng64;
use veal_ir::{CostMeter, LoopBody, Opcode};
use veal_sched::{modulo_schedule, ScheduleOptions};
use veal_workloads::{fixture_inputs, fold_checksum, synth_loop, SynthSpec};

const CASES: u64 = 200;

fn spec_for(seed: u64, rng: &mut Rng64) -> SynthSpec {
    SynthSpec {
        seed,
        compute_ops: 4 + rng.gen_range(0, 44),
        fp_frac: if rng.gen_bool(0.3) { 0.6 } else { 0.0 },
        loads: 1 + rng.gen_range(0, 6),
        stores: 1 + rng.gen_range(0, 3),
        recurrences: rng.gen_range(0, 3),
        rec_distance: 1 + rng.gen_range(0, 4) as u32,
    }
}

/// A random initial value: an integer or a float.
fn initial(rng: &mut Rng64) -> Value {
    let v = rng.gen_range(0, 201) as i64 - 100;
    if rng.gen_bool(0.5) {
        Value::Fp(v as f64 / 8.0)
    } else {
        Value::Int(v)
    }
}

/// Makes some reads reach before iteration 0 with something to find:
/// adds a live-out op reading a constant and a live-in across
/// iterations, then seeds initials on those two and on about half the
/// other loop-carried sources.
fn seed_initials(body: &mut LoopBody, rng: &mut Rng64) -> Inputs {
    let dfg = &mut body.dfg;
    let k = dfg.add_node(NodeKind::Const(rng.gen_range(1, 9) as i64));
    let existing = dfg.live_in_ids().next();
    let live_in = existing.unwrap_or_else(|| dfg.add_node(NodeKind::LiveIn));
    let op = if rng.gen_bool(0.5) {
        Opcode::FAdd
    } else {
        Opcode::Sub
    };
    let probe = dfg.add_node(NodeKind::Op(op));
    dfg.add_edge(k, probe, 1 + rng.gen_range(0, 3) as u32, EdgeKind::Data);
    dfg.add_edge(
        live_in,
        probe,
        1 + rng.gen_range(0, 3) as u32,
        EdgeKind::Data,
    );
    dfg.node_mut(probe).live_out = true;

    let mut inputs = fixture_inputs(body);
    inputs.initials.insert(k, initial(rng));
    inputs.initials.insert(live_in, initial(rng));
    let carried: Vec<_> = body
        .dfg
        .edges()
        .iter()
        .filter(|e| e.distance > 0)
        .map(|e| e.src)
        .collect();
    for src in carried {
        if rng.gen_bool(0.5) {
            inputs.initials.insert(src, initial(rng));
        }
    }
    inputs
}

#[test]
fn corpus_checksums_are_identical_across_executors() {
    let mut rng = Rng64::new(0xD1FF_2026);
    let config = AcceleratorConfig::paper_design();
    let mut scheduled = 0usize;
    for case in 0..CASES {
        let spec = spec_for(case, &mut rng);
        let mut body = synth_loop(&spec);
        let inputs = seed_initials(&mut body, &mut rng);
        // Vary the trip count so batch tails (iterations % W ≠ 0),
        // sub-width and empty runs are exercised, not just the full
        // fixture.
        let iterations = [24u64, 1, 5, 8, 23, 0][case as usize % 6];
        let golden = interpret(&body.dfg, iterations, &inputs)
            .unwrap_or_else(|e| panic!("case {case}: interp failed: {e}"));
        assert_eq!(golden.live_outs.is_empty(), iterations == 0);
        let want = fold_checksum(&golden);

        // Mirror the translator pipeline: separate streams, then modulo
        // schedule the compute view. The separated graph shares the
        // original's id space, so its schedule orders the original's ops.
        let mut meter = CostMeter::new();
        let schedule = veal_ir::streams::separate(&body.dfg, &mut meter)
            .ok()
            .and_then(|sep| {
                modulo_schedule(&sep.dfg, &config, &ScheduleOptions::default(), &mut meter).ok()
            })
            .map(|s| s.schedule);
        scheduled += usize::from(schedule.is_some());

        let exe = ExecutableLoop::compile(&body.dfg, schedule.as_ref())
            .unwrap_or_else(|e| panic!("case {case}: compile failed: {e}"));
        assert_eq!(
            fold_checksum(&exe.run(iterations, &inputs)),
            want,
            "case {case} (seed {}): scalar checksum diverged",
            spec.seed
        );
        for width in [1usize, 4, 8] {
            assert_eq!(
                fold_checksum(&exe.run_lanes(iterations, &inputs, width)),
                want,
                "case {case} (seed {}): lane checksum diverged at W={width}",
                spec.seed
            );
        }
    }
    // The corpus is only meaningful if a healthy share of it actually
    // exercises schedule-ordered bytecode.
    assert!(
        scheduled * 2 > CASES as usize,
        "only {scheduled}/{CASES} cases were schedulable"
    );
}

#[test]
fn opaque_bodies_are_refused_by_all_executors() {
    let mut rng = Rng64::new(0x0BAD_CA11);
    for case in 0..20u64 {
        let body = synth_loop(&spec_for(case, &mut rng));
        // Poison the body with an opaque call consuming a live value.
        let mut poisoned = body.dfg.clone();
        let feed = veal_ir::OpId::new(rng.gen_range(0, poisoned.len()));
        let call = poisoned.add_node(NodeKind::Op(Opcode::Call));
        poisoned.add_edge(feed, call, 0, EdgeKind::Data);
        poisoned.node_mut(call).live_out = true;

        let inputs = fixture_inputs(&body);
        let ierr = interpret(&poisoned, 4, &inputs).unwrap_err();
        let InterpError::Opaque(iop) = ierr else {
            panic!("case {case}: interp refused with {ierr}, expected Opaque");
        };
        let cerr = ExecutableLoop::compile(&poisoned, None).unwrap_err();
        assert_eq!(
            cerr,
            CompileError::Opaque(iop),
            "case {case}: LoopVM must refuse the same op"
        );
    }
}
