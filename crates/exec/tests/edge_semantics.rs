//! Pins for divergence-prone executor edge semantics.
//!
//! These are the corners where a host-native backend most plausibly
//! drifts from the reference interpreter — shift-amount masking, the one
//! undefined case of two's-complement division, and float→int casts of
//! non-finite values. Each case pins the *exact* expected value and
//! asserts the interpreter, LoopVM scalar, and both lane widths all
//! produce it, so agreement is by test, not by accident.

use veal_exec::ExecutableLoop;
use veal_ir::interp::{interpret, Inputs, Value};
use veal_ir::{DfgBuilder, Opcode};

/// Runs a two-input op over paired streams through all four executors
/// and returns the stored outputs after checking they are identical.
fn run_binop(op: Opcode, lhs: &[Value], rhs: &[Value]) -> Vec<Value> {
    let mut b = DfgBuilder::new();
    let x = b.load_stream(0);
    let y = b.load_stream(1);
    let r = b.op(op, &[x, y]);
    b.store_stream(2, r);
    let dfg = b.finish();
    let mut inputs = Inputs::default();
    inputs.streams.insert(0, lhs.to_vec());
    inputs.streams.insert(1, rhs.to_vec());
    let n = lhs.len() as u64;
    let golden = interpret(&dfg, n, &inputs).expect("interp");
    let exe = ExecutableLoop::compile(&dfg, None).expect("compiles");
    assert_eq!(exe.run(n, &inputs), golden, "{op:?}: scalar diverged");
    for width in [4usize, 8] {
        assert_eq!(
            exe.run_lanes(n, &inputs, width),
            golden,
            "{op:?}: lanes W={width} diverged"
        );
    }
    golden.stores[&2].clone()
}

fn ints(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

#[test]
fn shifts_mask_amounts_like_hardware() {
    // Shift amounts are taken mod 64 (`& 63`), including for negative
    // values being shifted: a shift of 64 is a shift of 0, 65 is 1, and
    // a negative amount masks to its low six bits (-1 & 63 == 63).
    let x = ints(&[-8, -8, -8, -8, -1]);
    let sh = ints(&[63, 64, 65, 1, -1]);
    assert_eq!(
        run_binop(Opcode::Sra, &x, &sh),
        // Arithmetic: sign fills in.
        ints(&[-1, -8, -4, -4, -1])
    );
    assert_eq!(
        run_binop(Opcode::Shr, &x, &sh),
        // Logical: -8 as u64 >> 63 is 1; >> 64 masks to >> 0.
        ints(&[1, -8, 0x7FFF_FFFF_FFFF_FFFC, 0x7FFF_FFFF_FFFF_FFFC, 1])
    );
    assert_eq!(
        run_binop(Opcode::Shl, &x, &sh),
        // -8 << 63 keeps only bit 0 of -8 (which is 0); -1 << 63 is MIN.
        ints(&[0, -8, -16, -16, i64::MIN])
    );
}

#[test]
fn division_overflow_and_zero_are_zero() {
    // i64::MIN / -1 overflows two's complement; the checked semantics
    // define it (and anything / 0) as 0 rather than trapping.
    let x = ints(&[i64::MIN, i64::MIN, 7, -7, i64::MAX]);
    let y = ints(&[-1, 1, 0, 2, -1]);
    assert_eq!(
        run_binop(Opcode::Div, &x, &y),
        ints(&[0, i64::MIN, 0, -3, -i64::MAX])
    );
    assert_eq!(run_binop(Opcode::Rem, &x, &y), ints(&[0, 0, 0, -1, 0]));
}

#[test]
fn float_to_int_saturates_on_non_finite() {
    // Rust's `as` cast: NaN → 0, ±∞ and out-of-range saturate to the
    // integer extremes. The backend must inherit exactly this.
    let mut b = DfgBuilder::new();
    let x = b.load_stream(0);
    let r = b.op(Opcode::FtoI, &[x]);
    b.store_stream(1, r);
    let dfg = b.finish();
    let mut inputs = Inputs::default();
    inputs.streams.insert(
        0,
        vec![
            Value::Fp(f64::NAN),
            Value::Fp(f64::INFINITY),
            Value::Fp(f64::NEG_INFINITY),
            Value::Fp(1e300),
            Value::Fp(-1e300),
            Value::Fp(-2.9),
        ],
    );
    let golden = interpret(&dfg, 6, &inputs).expect("interp");
    assert_eq!(
        golden.stores[&1],
        ints(&[0, i64::MAX, i64::MIN, i64::MAX, i64::MIN, -2])
    );
    let exe = ExecutableLoop::compile(&dfg, None).expect("compiles");
    assert_eq!(exe.run(6, &inputs), golden);
    assert_eq!(exe.run_lanes(6, &inputs, 8), golden);
    assert_eq!(exe.run_lanes(6, &inputs, 4), golden);
}

#[test]
fn initials_naming_no_node_are_ignored() {
    // An `initials` entry (or live-in) whose id lies outside the graph
    // names no value: every executor ignores it, and the result equals a
    // run without it.
    let mut b = DfgBuilder::new();
    let k = b.live_in();
    let x = b.load_stream(0);
    let m = b.op(Opcode::Mul, &[x, k]);
    let acc = b.op(Opcode::Add, &[m]);
    b.loop_carried(acc, acc, 2);
    b.store_stream(1, acc);
    b.mark_live_out(acc);
    let dfg = b.finish();
    let mut clean = Inputs::default();
    clean.streams.insert(0, ints(&[1, 2, 3, 4, 5]));
    clean.live_ins.insert(k, Value::Int(3));
    clean.initials.insert(acc, Value::Int(100));
    let mut stray = clean.clone();
    let outside = veal_ir::OpId::new(dfg.len() + 7);
    stray.initials.insert(outside, Value::Int(-1));
    stray.live_ins.insert(outside, Value::Int(-1));

    let golden = interpret(&dfg, 5, &clean).expect("interp");
    assert_eq!(golden.stores[&1], ints(&[103, 106, 112, 118, 127]));
    assert_eq!(interpret(&dfg, 5, &stray).expect("interp"), golden);
    let exe = ExecutableLoop::compile(&dfg, None).expect("compiles");
    assert_eq!(exe.run(5, &stray), golden, "scalar diverged");
    for width in [4usize, 8] {
        assert_eq!(
            exe.run_lanes(5, &stray, width),
            golden,
            "lanes W={width} diverged"
        );
    }
}

#[test]
fn huge_lane_widths_are_clamped() {
    // A width past the trip count or the lane ceiling must neither
    // overflow the ring-depth arithmetic nor size the ring by the width:
    // the result is the same as at the default width.
    let mut b = DfgBuilder::new();
    let x = b.load_stream(0);
    let acc = b.op(Opcode::Add, &[x]);
    b.loop_carried(acc, acc, 2);
    b.store_stream(1, acc);
    b.mark_live_out(acc);
    let dfg = b.finish();
    let mut inputs = Inputs::default();
    inputs.streams.insert(0, ints(&[1, 2, 3]));
    inputs.initials.insert(acc, Value::Int(10));
    let exe = ExecutableLoop::compile(&dfg, None).expect("compiles");
    for trips in [0u64, 3, 5000] {
        let golden = interpret(&dfg, trips, &inputs).expect("interp");
        for width in [usize::MAX, 4_000_000_000, 1 << 40] {
            assert_eq!(
                exe.run_lanes(trips, &inputs, width),
                golden,
                "{trips} trips at W={width}"
            );
        }
    }
}
