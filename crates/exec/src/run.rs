//! The LoopVM executors: scalar and lane-vectorized.
//!
//! Both share one value-semantics core ([`eval`]) that mirrors
//! `veal_ir::interp::eval` op for op — wrapping integer arithmetic,
//! hardware-masked shifts, checked division to zero, saturating
//! float-to-int casts, trailing operands defaulting to `Int(0)`.
//!
//! The ring bank is one flat `depth × n_slots` allocation per run, with
//! `depth` a power of two so the `(iter − distance) % depth` row lookup
//! is a mask. The scalar executor needs `depth > max_dist`; the lane
//! executor needs `depth ≥ width + max_dist` so a batch's writes never
//! alias the rows its own loop-carried reads still need.
//!
//! Stores are *staged*: execution order follows the schedule, but the
//! interpreter pushes same-stream stores in `dfg.topo_order()` position,
//! so each iteration's store values are parked per site and committed in
//! the compiler-recorded order — per lane, iteration-major, in the lane
//! executor.

use std::collections::BTreeMap;

use veal_ir::interp::{ExecResult, Inputs, Value};

use crate::{ExecOp, ExecutableLoop};

/// Per-run state: the ring bank, dense initial/input views, and store
/// staging. Allocation happens once per run, never per iteration.
struct Frame<'a> {
    ring: Vec<Value>,
    /// Dense `inputs.initials`, read by loop-carried edges that reach
    /// before iteration 0.
    init: Vec<Value>,
    /// Input slice per load cursor (missing streams read as empty).
    loads: Vec<&'a [Value]>,
    /// Staged store values, `site * width + lane`.
    staged: Vec<Value>,
    /// Output vector per distinct store stream.
    outs: Vec<Vec<Value>>,
    /// Ring depth (power of two) and its row mask.
    depth: usize,
    mask: usize,
}

impl<'a> Frame<'a> {
    fn new(exe: &ExecutableLoop, inputs: &'a Inputs, width: usize, iterations: u64) -> Self {
        let n = exe.n_slots;
        let depth = exe
            .max_dist
            .checked_add(width)
            .and_then(usize::checked_next_power_of_two)
            .expect("ring depth overflows usize");
        let mut init = vec![Value::Int(0); n];
        for (&id, &v) in &inputs.initials {
            if id.index() < n {
                init[id.index()] = v;
            }
        }
        let mut ring = Vec::with_capacity(depth * n);
        for _ in 0..depth {
            ring.extend_from_slice(&init);
        }
        // Constants and live-ins are iteration-invariant: seeding every
        // row once is equivalent to the interpreter refreshing the
        // current row each iteration.
        for row in 0..depth {
            for &(slot, c) in &exe.consts {
                ring[row * n + slot as usize] = Value::Int(c);
            }
            for &id in &exe.live_ins {
                ring[row * n + id.index()] =
                    inputs.live_ins.get(&id).copied().unwrap_or(Value::Int(0));
            }
        }
        let loads = exe
            .load_streams
            .iter()
            .map(|s| inputs.streams.get(s).map_or(&[] as &[Value], Vec::as_slice))
            .collect();
        // Every store site pushes once per iteration; reserving the exact
        // final length (capped to keep a huge trip count from
        // preallocating unboundedly) keeps the commit loop free of
        // reallocation copies.
        let reserve = usize::try_from(iterations.min(1 << 20)).unwrap_or(usize::MAX);
        let mut sites_per_slot = vec![0usize; exe.out_streams.len()];
        for &slot in &exe.store_slot {
            sites_per_slot[slot as usize] += 1;
        }
        let outs = sites_per_slot
            .iter()
            .map(|&sites| Vec::with_capacity(sites.saturating_mul(reserve)))
            .collect();
        Frame {
            ring,
            init,
            loads,
            staged: vec![Value::Int(0); exe.store_streams.len() * width],
            outs,
            depth,
            mask: depth - 1,
        }
    }

    /// Commits one iteration's staged stores in interpreter order.
    #[inline]
    fn commit(&mut self, exe: &ExecutableLoop, width: usize, lane: usize) {
        for &site in &exe.store_commit {
            let slot = exe.store_slot[site as usize] as usize;
            self.outs[slot].push(self.staged[site as usize * width + lane]);
        }
    }

    /// Packages stores and live-outs exactly as the interpreter does.
    fn finish(mut self, exe: &ExecutableLoop, iterations: u64) -> ExecResult {
        let mut result = ExecResult::default();
        if iterations > 0 {
            // The interpreter creates a stream entry on first push, so a
            // zero-iteration run has no entries at all.
            for (i, &s) in exe.out_streams.iter().enumerate() {
                result.stores.insert(s, std::mem::take(&mut self.outs[i]));
            }
            let row = ((iterations - 1) as usize & self.mask) * exe.n_slots;
            let mut live_outs = BTreeMap::new();
            for &id in &exe.live_outs {
                live_outs.insert(id, self.ring[row + id.index()]);
            }
            result.live_outs = live_outs;
        }
        result
    }
}

/// Reads ring slot `src` at loop-carried distance `d` for iteration
/// `iter`: the dense initials before iteration 0, the ring otherwise.
#[inline(always)]
fn read(
    init: &[Value],
    ring: &[Value],
    mask: usize,
    n: usize,
    src: usize,
    d: u64,
    iter: u64,
) -> Value {
    if d > iter {
        init[src]
    } else {
        ring[((iter - d) as usize & mask) * n + src]
    }
}

/// Reads operand `j` of instruction `i` for iteration `iter`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn arg(
    exe: &ExecutableLoop,
    frame_init: &[Value],
    ring: &[Value],
    mask: usize,
    n: usize,
    base: usize,
    cnt: usize,
    j: usize,
    iter: u64,
) -> Value {
    if j >= cnt {
        return Value::Int(0);
    }
    let src = exe.arg_src[base + j] as usize;
    let d = u64::from(exe.arg_dist[base + j]);
    if d > iter {
        frame_init[src]
    } else {
        ring[((iter - d) as usize & mask) * n + src]
    }
}

/// Evaluates instruction `i` at iteration `iter` against the ring,
/// mirroring `veal_ir::interp::eval`. Returns the value to write to the
/// destination slot (stores also return their value, like the
/// interpreter writing it to history).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn eval(
    exe: &ExecutableLoop,
    frame_init: &[Value],
    loads: &[&[Value]],
    staged: &mut [Value],
    ring: &[Value],
    mask: usize,
    i: usize,
    iter: u64,
    width: usize,
    lane: usize,
) -> Value {
    let n = exe.n_slots;
    let base = exe.arg_base[i] as usize;
    let cnt = exe.arg_base[i + 1] as usize - base;
    let a = |j: usize| arg(exe, frame_init, ring, mask, n, base, cnt, j, iter);
    let ai = |j: usize| a(j).as_int();
    let af = |j: usize| a(j).as_fp();
    let sh = |j: usize| (ai(j) & 63) as u32;
    match exe.ops[i] {
        ExecOp::Add => Value::Int(ai(0).wrapping_add(ai(1))),
        ExecOp::Sub => Value::Int(ai(0).wrapping_sub(ai(1))),
        ExecOp::And => Value::Int(ai(0) & ai(1)),
        ExecOp::Or => Value::Int(ai(0) | ai(1)),
        ExecOp::Xor => Value::Int(ai(0) ^ ai(1)),
        ExecOp::Not => Value::Int(!ai(0)),
        ExecOp::Neg => Value::Int(ai(0).wrapping_neg()),
        ExecOp::Min => Value::Int(ai(0).min(ai(1))),
        ExecOp::Max => Value::Int(ai(0).max(ai(1))),
        ExecOp::Abs => Value::Int(ai(0).wrapping_abs()),
        ExecOp::CmpEq => Value::Int(i64::from(ai(0) == ai(1))),
        ExecOp::CmpNe => Value::Int(i64::from(ai(0) != ai(1))),
        ExecOp::CmpLt => Value::Int(i64::from(ai(0) < ai(1))),
        ExecOp::CmpLe => Value::Int(i64::from(ai(0) <= ai(1))),
        ExecOp::Select => {
            if ai(0) != 0 {
                a(1)
            } else {
                a(2)
            }
        }
        ExecOp::Mov => a(0),
        ExecOp::Shl => Value::Int(ai(0).wrapping_shl(sh(1))),
        ExecOp::Shr => Value::Int((ai(0) as u64).wrapping_shr(sh(1)) as i64),
        ExecOp::Sra => Value::Int(ai(0).wrapping_shr(sh(1))),
        ExecOp::Mul => Value::Int(ai(0).wrapping_mul(ai(1))),
        ExecOp::Div => Value::Int(ai(0).checked_div(ai(1)).unwrap_or(0)),
        ExecOp::Rem => Value::Int(ai(0).checked_rem(ai(1)).unwrap_or(0)),
        ExecOp::FAdd => Value::Fp(af(0) + af(1)),
        ExecOp::FSub => Value::Fp(af(0) - af(1)),
        ExecOp::FMul => Value::Fp(af(0) * af(1)),
        ExecOp::FDiv => Value::Fp(af(0) / af(1)),
        ExecOp::FNeg => Value::Fp(-af(0)),
        ExecOp::FAbs => Value::Fp(af(0).abs()),
        ExecOp::FMin => Value::Fp(af(0).min(af(1))),
        ExecOp::FMax => Value::Fp(af(0).max(af(1))),
        ExecOp::FCmpLt => Value::Int(i64::from(af(0) < af(1))),
        ExecOp::ItoF => Value::Fp(ai(0) as f64),
        ExecOp::FtoI => Value::Int(af(0) as i64),
        ExecOp::FMac => Value::Fp(af(0) * af(1) + af(2)),
        ExecOp::FSqrt => Value::Fp(af(0).abs().sqrt()),
        ExecOp::LoadStream => {
            let cursor = exe.payload[i] as usize;
            loads[cursor]
                .get(iter as usize)
                .copied()
                .unwrap_or(Value::Int(0))
        }
        ExecOp::LoadAddr => Value::Int(
            ai(0)
                .wrapping_mul(31)
                .wrapping_add(7)
                .wrapping_add(exe.load_salts[exe.payload[i] as usize]),
        ),
        ExecOp::Store => {
            let value = a(0);
            staged[exe.payload[i] as usize * width + lane] = value;
            value
        }
        ExecOp::Zero => Value::Int(0),
    }
}

/// Evaluates one vector-group instruction across a whole batch with the
/// opcode dispatch hoisted out of the lane loop: one `match` per
/// instruction per batch, then a tight sweep over the `active` lanes in
/// each arm. The sweep visits lanes in ascending iteration order and
/// writes each lane's destination row before the next lane reads, so it
/// is valid both for recurrence-free instructions and for self-recurrences
/// (a distance-d self read finds lane−d already written).
#[inline(always)]
fn sweep(
    exe: &ExecutableLoop,
    frame: &mut Frame,
    i: usize,
    base: u64,
    active: usize,
    width: usize,
) {
    let n = exe.n_slots;
    let mask = frame.mask;
    let dest = exe.dest[i] as usize;
    let ab = exe.arg_base[i] as usize;
    let cnt = exe.arg_base[i + 1] as usize - ab;

    // The lane loop shared by every arm: bind `iter` and the operand
    // reader `a`, compute the arm's value, write the destination slot.
    macro_rules! lanes {
        (|$iter:ident, $a:ident| $value:expr) => {
            for lane in 0..active {
                let $iter = base + lane as u64;
                let value = {
                    let ring = &frame.ring[..];
                    let $a = |j: usize| arg(exe, &frame.init, ring, mask, n, ab, cnt, j, $iter);
                    $value
                };
                frame.ring[(($iter as usize) & mask) * n + dest] = value;
            }
        };
    }
    // Fixed-arity arms preload each operand's (slot, distance) pair once
    // per batch and run a tight sweep with direct `read`s — no per-lane
    // CSR lookups or operand-count checks. A short operand list (trailing
    // operands read `Int(0)`, like the interpreter) falls back to the
    // generic loop.
    macro_rules! t1 {
        (($v0:ident) => $value:expr) => {
            if cnt >= 1 {
                let s0 = exe.arg_src[ab] as usize;
                let d0 = u64::from(exe.arg_dist[ab]);
                for lane in 0..active {
                    let iter = base + lane as u64;
                    let value = {
                        let $v0 = read(&frame.init, &frame.ring, mask, n, s0, d0, iter);
                        $value
                    };
                    frame.ring[((iter as usize) & mask) * n + dest] = value;
                }
            } else {
                lanes!(|iter, a| {
                    let $v0 = a(0);
                    $value
                });
            }
        };
    }
    macro_rules! t2 {
        (($v0:ident, $v1:ident) => $value:expr) => {
            if cnt >= 2 {
                let s0 = exe.arg_src[ab] as usize;
                let d0 = u64::from(exe.arg_dist[ab]);
                let s1 = exe.arg_src[ab + 1] as usize;
                let d1 = u64::from(exe.arg_dist[ab + 1]);
                for lane in 0..active {
                    let iter = base + lane as u64;
                    let value = {
                        let $v0 = read(&frame.init, &frame.ring, mask, n, s0, d0, iter);
                        let $v1 = read(&frame.init, &frame.ring, mask, n, s1, d1, iter);
                        $value
                    };
                    frame.ring[((iter as usize) & mask) * n + dest] = value;
                }
            } else {
                lanes!(|iter, a| {
                    let $v0 = a(0);
                    let $v1 = a(1);
                    $value
                });
            }
        };
    }
    macro_rules! t3 {
        (($v0:ident, $v1:ident, $v2:ident) => $value:expr) => {
            if cnt >= 3 {
                let s0 = exe.arg_src[ab] as usize;
                let d0 = u64::from(exe.arg_dist[ab]);
                let s1 = exe.arg_src[ab + 1] as usize;
                let d1 = u64::from(exe.arg_dist[ab + 1]);
                let s2 = exe.arg_src[ab + 2] as usize;
                let d2 = u64::from(exe.arg_dist[ab + 2]);
                for lane in 0..active {
                    let iter = base + lane as u64;
                    let value = {
                        let $v0 = read(&frame.init, &frame.ring, mask, n, s0, d0, iter);
                        let $v1 = read(&frame.init, &frame.ring, mask, n, s1, d1, iter);
                        let $v2 = read(&frame.init, &frame.ring, mask, n, s2, d2, iter);
                        $value
                    };
                    frame.ring[((iter as usize) & mask) * n + dest] = value;
                }
            } else {
                lanes!(|iter, a| {
                    let $v0 = a(0);
                    let $v1 = a(1);
                    let $v2 = a(2);
                    $value
                });
            }
        };
    }
    macro_rules! i1 {
        (($x:ident) => $e:expr) => {
            t1!((v) => {
                let $x = v.as_int();
                Value::Int($e)
            })
        };
    }
    macro_rules! i2 {
        (($x:ident, $y:ident) => $e:expr) => {
            t2!((v, w) => {
                let $x = v.as_int();
                let $y = w.as_int();
                Value::Int($e)
            })
        };
    }
    macro_rules! f1 {
        (($x:ident) => $e:expr) => {
            t1!((v) => {
                let $x = v.as_fp();
                Value::Fp($e)
            })
        };
    }
    macro_rules! f2 {
        (($x:ident, $y:ident) => $e:expr) => {
            t2!((v, w) => {
                let $x = v.as_fp();
                let $y = w.as_fp();
                Value::Fp($e)
            })
        };
    }

    match exe.ops[i] {
        ExecOp::Add => i2!((x, y) => x.wrapping_add(y)),
        ExecOp::Sub => i2!((x, y) => x.wrapping_sub(y)),
        ExecOp::And => i2!((x, y) => x & y),
        ExecOp::Or => i2!((x, y) => x | y),
        ExecOp::Xor => i2!((x, y) => x ^ y),
        ExecOp::Not => i1!((x) => !x),
        ExecOp::Neg => i1!((x) => x.wrapping_neg()),
        ExecOp::Min => i2!((x, y) => x.min(y)),
        ExecOp::Max => i2!((x, y) => x.max(y)),
        ExecOp::Abs => i1!((x) => x.wrapping_abs()),
        ExecOp::CmpEq => i2!((x, y) => i64::from(x == y)),
        ExecOp::CmpNe => i2!((x, y) => i64::from(x != y)),
        ExecOp::CmpLt => i2!((x, y) => i64::from(x < y)),
        ExecOp::CmpLe => i2!((x, y) => i64::from(x <= y)),
        ExecOp::Select => t3!((c, t, f) => if c.as_int() != 0 { t } else { f }),
        ExecOp::Mov => t1!((v) => v),
        ExecOp::Shl => i2!((x, y) => x.wrapping_shl((y & 63) as u32)),
        ExecOp::Shr => i2!((x, y) => (x as u64).wrapping_shr((y & 63) as u32) as i64),
        ExecOp::Sra => i2!((x, y) => x.wrapping_shr((y & 63) as u32)),
        ExecOp::Mul => i2!((x, y) => x.wrapping_mul(y)),
        ExecOp::Div => i2!((x, y) => x.checked_div(y).unwrap_or(0)),
        ExecOp::Rem => i2!((x, y) => x.checked_rem(y).unwrap_or(0)),
        ExecOp::FAdd => f2!((x, y) => x + y),
        ExecOp::FSub => f2!((x, y) => x - y),
        ExecOp::FMul => f2!((x, y) => x * y),
        ExecOp::FDiv => f2!((x, y) => x / y),
        ExecOp::FNeg => f1!((x) => -x),
        ExecOp::FAbs => f1!((x) => x.abs()),
        ExecOp::FMin => f2!((x, y) => x.min(y)),
        ExecOp::FMax => f2!((x, y) => x.max(y)),
        ExecOp::FCmpLt => t2!((v, w) => Value::Int(i64::from(v.as_fp() < w.as_fp()))),
        ExecOp::ItoF => t1!((v) => Value::Fp(v.as_int() as f64)),
        ExecOp::FtoI => t1!((v) => Value::Int(v.as_fp() as i64)),
        ExecOp::FMac => t3!((x, y, z) => Value::Fp(x.as_fp() * y.as_fp() + z.as_fp())),
        ExecOp::FSqrt => f1!((x) => x.abs().sqrt()),
        ExecOp::LoadStream => {
            // The cursor slice is loop-invariant across the batch; its
            // lifetime comes from `inputs`, not the frame, so the ring
            // write below does not conflict.
            let s: &[Value] = frame.loads[exe.payload[i] as usize];
            for lane in 0..active {
                let iter = base + lane as u64;
                let value = s.get(iter as usize).copied().unwrap_or(Value::Int(0));
                frame.ring[((iter as usize) & mask) * n + dest] = value;
            }
        }
        ExecOp::LoadAddr => {
            let salt = exe.load_salts[exe.payload[i] as usize];
            i1!((x) => x.wrapping_mul(31).wrapping_add(7).wrapping_add(salt))
        }
        ExecOp::Store => {
            // Arity refusal at compile time guarantees a store has an
            // operand; the generic `arg` fallback stays for safety.
            let site = exe.payload[i] as usize;
            if cnt >= 1 {
                let s0 = exe.arg_src[ab] as usize;
                let d0 = u64::from(exe.arg_dist[ab]);
                for lane in 0..active {
                    let iter = base + lane as u64;
                    let value = read(&frame.init, &frame.ring, mask, n, s0, d0, iter);
                    frame.staged[site * width + lane] = value;
                    frame.ring[((iter as usize) & mask) * n + dest] = value;
                }
            } else {
                for lane in 0..active {
                    let iter = base + lane as u64;
                    let value = {
                        let ring = &frame.ring[..];
                        arg(exe, &frame.init, ring, mask, n, ab, cnt, 0, iter)
                    };
                    frame.staged[site * width + lane] = value;
                    frame.ring[((iter as usize) & mask) * n + dest] = value;
                }
            }
        }
        ExecOp::Zero => {
            for lane in 0..active {
                let iter = (base + lane as u64) as usize;
                frame.ring[(iter & mask) * n + dest] = Value::Int(0);
            }
        }
    }
}

/// One iteration at a time: the straight-line instruction stream, then
/// the staged-store commit.
pub(crate) fn run_scalar(exe: &ExecutableLoop, iterations: u64, inputs: &Inputs) -> ExecResult {
    let mut frame = Frame::new(exe, inputs, 1, iterations);
    let n = exe.n_slots;
    let (mask, depth) = (frame.mask, frame.depth);
    debug_assert!(depth > exe.max_dist);
    for iter in 0..iterations {
        let cur = (iter as usize & mask) * n;
        for i in 0..exe.ops.len() {
            let value = eval(
                exe,
                &frame.init,
                &frame.loads,
                &mut frame.staged,
                &frame.ring,
                mask,
                i,
                iter,
                1,
                0,
            );
            frame.ring[cur + exe.dest[i] as usize] = value;
        }
        frame.commit(exe, 1, 0);
    }
    frame.finish(exe, iterations)
}

/// Lane-vectorized batches: `width` iterations per step. Acyclic plan
/// groups dispatch each instruction once and sweep the lanes in the
/// inner loop; recurrence groups run lane-serially. The commit replays
/// lanes iteration-major so store streams match the scalar order.
pub(crate) fn run_lanes(
    exe: &ExecutableLoop,
    iterations: u64,
    inputs: &Inputs,
    width: usize,
) -> ExecResult {
    let mut frame = Frame::new(exe, inputs, width, iterations);
    let n = exe.n_slots;
    let mask = frame.mask;
    debug_assert!(frame.depth >= width + exe.max_dist);
    let mut base = 0u64;
    while base < iterations {
        let active = usize::try_from(iterations - base)
            .unwrap_or(usize::MAX)
            .min(width);
        for group in &exe.lane_plan {
            if group.serial {
                for lane in 0..active {
                    let iter = base + lane as u64;
                    let cur = (iter as usize & mask) * n;
                    for &i in &group.members {
                        let i = i as usize;
                        let value = eval(
                            exe,
                            &frame.init,
                            &frame.loads,
                            &mut frame.staged,
                            &frame.ring,
                            mask,
                            i,
                            iter,
                            width,
                            lane,
                        );
                        frame.ring[cur + exe.dest[i] as usize] = value;
                    }
                }
            } else {
                for &i in &group.members {
                    sweep(exe, &mut frame, i as usize, base, active, width);
                }
            }
        }
        for lane in 0..active {
            frame.commit(exe, width, lane);
        }
        base += active as u64;
    }
    frame.finish(exe, iterations)
}
