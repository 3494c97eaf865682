//! A functional interpreter for loop-body dataflow graphs.
//!
//! Executes the *semantics* of a loop (as opposed to its timing): each
//! iteration evaluates the compute nodes in dependence order, loop-carried
//! operands read values produced `distance` iterations earlier, loads pull
//! from per-stream input vectors and stores push to per-stream output
//! vectors. The transformation passes use this to prove semantic
//! equivalence (an inlined/re-rolled/unrolled loop must compute the same
//! values), and the kernel library uses it for golden-value tests.
//!
//! Control ops (`br`, `brc`, `cmp` feeding them) are evaluated like any
//! other value op but have no side effects; trip counts come from the
//! caller, exactly as the accelerator's loop-control hardware would drive
//! them.
//!
//! It is a topological-order walker over a graph resolved once per run,
//! and the oracle the executable backend (`veal-exec`) is checked
//! against, so it shares no code with that backend.

use crate::dfg::{Dfg, NodeKind};
use crate::opcode::Opcode;
use crate::types::OpId;
use std::collections::BTreeMap;
use std::fmt;

/// A runtime value: integers and doubles, coerced per consuming op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// A double-precision float.
    Fp(f64),
}

impl Value {
    /// The value as an integer (floats truncate).
    #[must_use]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Fp(v) => v as i64,
        }
    }

    /// The value as a double (integers convert exactly when possible).
    #[must_use]
    pub fn as_fp(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Fp(v) => v,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Fp(v)
    }
}

/// Inputs to an interpretation run.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    /// Per-stream input data for `Load` ops (indexed by iteration; an
    /// exhausted or missing stream reads as `Int(0)`).
    pub streams: BTreeMap<u16, Vec<Value>>,
    /// Values of `LiveIn` nodes (missing live-ins read as `Int(0)`).
    pub live_ins: BTreeMap<OpId, Value>,
    /// Initial values for loop-carried reads that reach before iteration 0
    /// (missing entries read as `Int(0)`).
    pub initials: BTreeMap<OpId, Value>,
}

/// The observable results of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecResult {
    /// Values written per store stream, in iteration order.
    pub stores: BTreeMap<u16, Vec<Value>>,
    /// Final value of every live-out node.
    pub live_outs: BTreeMap<OpId, Value>,
}

/// Why interpretation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The distance-0 subgraph is cyclic.
    CyclicGraph,
    /// The graph contains an op with no executable semantics here
    /// (`Call` into an unknown callee, or a collapsed `Cca` whose member
    /// subgraph no longer exists).
    Opaque(OpId),
    /// An op that reads operands has none: the DFG is arity-malformed.
    /// Trailing operands still default to `Int(0)` (compare-against-zero
    /// and accumulate-from-zero idioms rely on it), but an op with *no*
    /// inputs at all can only be a broken graph, and silently evaluating
    /// it would produce a plausible-but-wrong result.
    Arity(OpId),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::CyclicGraph => write!(f, "distance-0 subgraph is cyclic"),
            InterpError::Opaque(op) => write!(f, "{op} has no interpretable semantics"),
            InterpError::Arity(op) => write!(f, "{op} reads operands but has none"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Whether `op` at node `v` reads its operand list at all. Ops that
/// ignore operands (immediates, control transfers, stream-engine loads
/// whose address comes from the hardware cursor) may legitimately have
/// none; anything else with an empty operand list is a malformed graph.
/// `Call`/`Cca` are excluded so [`InterpError::Opaque`] keeps precedence.
///
/// Public so executable backends (`veal-exec`) reject arity-malformed
/// graphs with exactly the same rule instead of a drifting copy.
#[must_use]
pub fn reads_operands(dfg: &Dfg, v: OpId, op: Opcode) -> bool {
    match op {
        Opcode::LoadImm
        | Opcode::Br
        | Opcode::BrCond
        | Opcode::Ret
        | Opcode::Call
        | Opcode::Cca => false,
        Opcode::Load => dfg.node(v).stream.is_none(),
        _ => true,
    }
}

/// The most operands any opcode's semantics read (`Select`, `FMac`);
/// operands past these are never looked at.
const MAX_ARGS: usize = 3;

/// What an op does besides computing a value from its operands.
#[derive(Clone, Copy)]
enum Io {
    /// A pure function of the operands (see [`eval`]).
    Compute,
    /// A stream load: index into the run's input slices.
    Load(usize),
    /// A store: index into the run's output vectors.
    Store(usize),
}

/// One op of the topological order, resolved before the first
/// iteration.
struct Step {
    /// Node slot written (the op's id).
    node: usize,
    op: Opcode,
    io: Io,
    /// This op's operands, `operands[args.0 .. args.1]`.
    args: (usize, usize),
}

/// Interprets `dfg` for `iterations` iterations.
///
/// The graph is resolved once per run, before the first iteration: the
/// topological order with each op's opcode, its operands as flat
/// `(source slot, distance)` pairs in edge-insertion order, one input
/// slice per stream load and one output vector per store stream. The
/// history is one flat ring of `depth × n` values. An iteration then
/// reads operands into a fixed buffer, with no allocation and no map
/// lookup.
///
/// # Errors
///
/// See [`InterpError`]. `Opaque` and `Arity` report the first offender
/// in topological order, and only once an iteration runs: zero
/// iterations of any acyclic graph return `Ok` with an empty result.
///
/// # Example
///
/// ```
/// use veal_ir::interp::{interpret, Inputs, Value};
/// use veal_ir::{DfgBuilder, Opcode};
///
/// # fn main() -> Result<(), veal_ir::interp::InterpError> {
/// // acc += x[i] * 2
/// let mut b = DfgBuilder::new();
/// let x = b.load_stream(0);
/// let two = b.constant(2);
/// let p = b.op(Opcode::Mul, &[x, two]);
/// let acc = b.op(Opcode::Add, &[p]);
/// b.loop_carried(acc, acc, 1);
/// b.mark_live_out(acc);
/// let dfg = b.finish();
///
/// let mut inputs = Inputs::default();
/// inputs.streams.insert(0, vec![1i64.into(), 2i64.into(), 3i64.into()]);
/// let out = interpret(&dfg, 3, &inputs)?;
/// assert_eq!(out.live_outs[&acc], Value::Int(12)); // 2 + 4 + 6
/// # Ok(())
/// # }
/// ```
pub fn interpret(dfg: &Dfg, iterations: u64, inputs: &Inputs) -> Result<ExecResult, InterpError> {
    let order = dfg.topo_order().map_err(|_| InterpError::CyclicGraph)?;

    // --- resolve the graph -------------------------------------------
    let mut steps = Vec::with_capacity(order.len());
    let mut operands: Vec<(usize, u64)> = Vec::new();
    let mut loads: Vec<&[Value]> = Vec::new();
    let mut out_index: BTreeMap<u16, usize> = BTreeMap::new();
    let mut fault = None;
    for &v in &order {
        let Some(op) = dfg.node(v).opcode() else {
            continue;
        };
        let start = operands.len();
        operands.extend(
            dfg.pred_edges(v)
                .take(MAX_ARGS)
                .map(|e| (e.src.index(), u64::from(e.distance))),
        );
        if fault.is_none() {
            if matches!(op, Opcode::Call | Opcode::Cca) {
                fault = Some(InterpError::Opaque(v));
            } else if operands.len() == start && reads_operands(dfg, v, op) {
                fault = Some(InterpError::Arity(v));
            }
        }
        let stream = dfg.node(v).stream;
        let io = match (op, stream) {
            (Opcode::Load, Some(s)) => {
                loads.push(inputs.streams.get(&s).map_or(&[], Vec::as_slice));
                Io::Load(loads.len() - 1)
            }
            (Opcode::Store, s) => {
                let next = out_index.len();
                Io::Store(*out_index.entry(s.unwrap_or(u16::MAX)).or_insert(next))
            }
            _ => Io::Compute,
        };
        steps.push(Step {
            node: v.index(),
            op,
            io,
            args: (start, operands.len()),
        });
    }
    if iterations == 0 {
        return Ok(ExecResult::default());
    }
    if let Some(fault) = fault {
        return Err(fault);
    }

    // --- the history ring --------------------------------------------
    // Row `iter & mask` holds iteration `iter`'s values; `depth` exceeds
    // every loop-carried distance, so a read never finds a row that was
    // overwritten since.
    let max_dist = dfg.edges().iter().map(|e| e.distance).max().unwrap_or(0) as usize;
    let depth = (max_dist + 1).next_power_of_two();
    let mask = depth - 1;
    let n = dfg.len();
    // Reads that reach before iteration 0 take the initial value.
    // Entries naming no node of the graph are ignored, like unknown
    // live-ins.
    let mut init = vec![Value::Int(0); n];
    for (&id, &v) in &inputs.initials {
        if let Some(cell) = init.get_mut(id.index()) {
            *cell = v;
        }
    }
    let mut history = Vec::with_capacity(depth * n);
    for _ in 0..depth {
        history.extend_from_slice(&init);
    }
    // Constants and live-ins never change, so their column holds their
    // value in every row from the start.
    for id in dfg.live_ids() {
        let value = match &dfg.node(id).kind {
            NodeKind::Const(c) => Value::Int(*c),
            NodeKind::LiveIn => inputs.live_ins.get(&id).copied().unwrap_or(Value::Int(0)),
            NodeKind::Op(_) => continue,
        };
        for row in 0..depth {
            history[row * n + id.index()] = value;
        }
    }
    let mut outs: Vec<Vec<Value>> = vec![Vec::new(); out_index.len()];

    // --- iterate -----------------------------------------------------
    for iter in 0..iterations {
        let cur = (iter as usize & mask) * n;
        for step in &steps {
            let mut args = [Value::Int(0); MAX_ARGS];
            for (arg, &(src, d)) in args.iter_mut().zip(&operands[step.args.0..step.args.1]) {
                *arg = if d > iter {
                    init[src]
                } else {
                    history[((iter - d) as usize & mask) * n + src]
                };
            }
            let value = match step.io {
                Io::Compute => eval(step.op, step.node, &args),
                Io::Load(k) => loads[k]
                    .get(iter as usize)
                    .copied()
                    .unwrap_or(Value::Int(0)),
                Io::Store(k) => {
                    outs[k].push(args[0]);
                    args[0]
                }
            };
            history[cur + step.node] = value;
        }
    }

    // --- package -----------------------------------------------------
    // Every store pushes once per iteration, so each store stream has an
    // entry; live-outs are the last iteration's row.
    let last = ((iterations - 1) as usize & mask) * n;
    Ok(ExecResult {
        stores: out_index
            .into_iter()
            .map(|(s, k)| (s, std::mem::take(&mut outs[k])))
            .collect(),
        live_outs: dfg
            .live_out_ids()
            .map(|id| (id, history[last + id.index()]))
            .collect(),
    })
}

/// The value of op `op` at node slot `v` from its operands (trailing
/// ones already `Int(0)`). Stream loads and stores are handled by the
/// caller.
fn eval(op: Opcode, v: usize, args: &[Value; MAX_ARGS]) -> Value {
    let a = |i: usize| args[i];
    let ai = |i: usize| a(i).as_int();
    let af = |i: usize| a(i).as_fp();
    // Shift amounts are masked like real hardware.
    let sh = |i: usize| (ai(i) & 63) as u32;
    use Opcode::*;
    match op {
        Add => Value::Int(ai(0).wrapping_add(ai(1))),
        Sub => Value::Int(ai(0).wrapping_sub(ai(1))),
        And => Value::Int(ai(0) & ai(1)),
        Or => Value::Int(ai(0) | ai(1)),
        Xor => Value::Int(ai(0) ^ ai(1)),
        Not => Value::Int(!ai(0)),
        Neg => Value::Int(ai(0).wrapping_neg()),
        Min => Value::Int(ai(0).min(ai(1))),
        Max => Value::Int(ai(0).max(ai(1))),
        Abs => Value::Int(ai(0).wrapping_abs()),
        CmpEq => Value::Int(i64::from(ai(0) == ai(1))),
        CmpNe => Value::Int(i64::from(ai(0) != ai(1))),
        CmpLt => Value::Int(i64::from(ai(0) < ai(1))),
        CmpLe => Value::Int(i64::from(ai(0) <= ai(1))),
        Select => {
            if ai(0) != 0 {
                a(1)
            } else {
                a(2)
            }
        }
        Mov => a(0),
        LoadImm => Value::Int(0),
        Shl => Value::Int(ai(0).wrapping_shl(sh(1))),
        Shr => Value::Int((ai(0) as u64).wrapping_shr(sh(1)) as i64),
        Sra => Value::Int(ai(0).wrapping_shr(sh(1))),
        Mul => Value::Int(ai(0).wrapping_mul(ai(1))),
        Div => Value::Int(ai(0).checked_div(ai(1)).unwrap_or(0)),
        Rem => Value::Int(ai(0).checked_rem(ai(1)).unwrap_or(0)),
        FAdd => Value::Fp(af(0) + af(1)),
        FSub => Value::Fp(af(0) - af(1)),
        FMul => Value::Fp(af(0) * af(1)),
        FDiv => Value::Fp(af(0) / af(1)),
        FNeg => Value::Fp(-af(0)),
        FAbs => Value::Fp(af(0).abs()),
        FMin => Value::Fp(af(0).min(af(1))),
        FMax => Value::Fp(af(0).max(af(1))),
        FCmpLt => Value::Int(i64::from(af(0) < af(1))),
        ItoF => Value::Fp(ai(0) as f64),
        FtoI => Value::Int(af(0) as i64),
        FMac => Value::Fp(af(0) * af(1) + af(2)),
        FSqrt => Value::Fp(af(0).abs().sqrt()),
        // A full-form load addressed by a generator: model a simple
        // content function of the address *and* the load site, so
        // distinct arrays hold distinct data even when their address
        // sequences coincide.
        Load => Value::Int(
            ai(0)
                .wrapping_mul(31)
                .wrapping_add(7)
                .wrapping_add(v as i64 * 17),
        ),
        Br | BrCond | Ret => Value::Int(0),
        Store => unreachable!("stores are evaluated by the caller"),
        Call | Cca => unreachable!("opaque ops are refused before the first iteration"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn streaming_copy() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        b.store_stream(1, x);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[4, 5, 6]));
        let out = interpret(&dfg, 3, &inputs).unwrap();
        assert_eq!(out.stores[&1], ints(&[4, 5, 6]));
    }

    #[test]
    fn accumulator_with_initial_value() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let acc = b.op(Opcode::Add, &[x]);
        b.loop_carried(acc, acc, 1);
        b.mark_live_out(acc);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[1, 2, 3, 4]));
        inputs.initials.insert(acc, Value::Int(100));
        let out = interpret(&dfg, 4, &inputs).unwrap();
        assert_eq!(out.live_outs[&acc], Value::Int(110));
    }

    #[test]
    fn distance_two_reads_two_back() {
        // y_i = x_i + y_{i-2}: two interleaved sums.
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Add, &[x]);
        b.loop_carried(y, y, 2);
        b.store_stream(1, y);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[1, 10, 2, 20]));
        let out = interpret(&dfg, 4, &inputs).unwrap();
        assert_eq!(out.stores[&1], ints(&[1, 10, 3, 30]));
    }

    #[test]
    fn select_and_clamp_semantics() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let hi = b.constant(10);
        let c = b.op(Opcode::CmpLt, &[x, hi]);
        let sel = b.op(Opcode::Select, &[c, x, hi]);
        b.store_stream(1, sel);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[3, 30, 10]));
        let out = interpret(&dfg, 3, &inputs).unwrap();
        assert_eq!(out.stores[&1], ints(&[3, 10, 10]));
    }

    #[test]
    fn fp_dot_product_golden() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.load_stream(1);
        let p = b.op(Opcode::FMul, &[x, y]);
        let acc = b.op(Opcode::FAdd, &[p]);
        b.loop_carried(acc, acc, 1);
        b.mark_live_out(acc);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs
            .streams
            .insert(0, vec![1.0f64.into(), 2.0f64.into(), 3.0f64.into()]);
        inputs
            .streams
            .insert(1, vec![4.0f64.into(), 5.0f64.into(), 6.0f64.into()]);
        let out = interpret(&dfg, 3, &inputs).unwrap();
        assert_eq!(out.live_outs[&acc], Value::Fp(32.0));
    }

    #[test]
    fn live_in_values_flow() {
        let mut b = DfgBuilder::new();
        let k = b.live_in();
        let x = b.load_stream(0);
        let m = b.op(Opcode::Mul, &[x, k]);
        b.store_stream(1, m);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[1, 2]));
        inputs.live_ins.insert(k, Value::Int(7));
        let out = interpret(&dfg, 2, &inputs).unwrap();
        assert_eq!(out.stores[&1], ints(&[7, 14]));
    }

    #[test]
    fn call_is_opaque() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        let c = b.op(Opcode::Call, &[x]);
        b.mark_live_out(c);
        let dfg = b.finish();
        assert_eq!(
            interpret(&dfg, 1, &Inputs::default()).unwrap_err(),
            InterpError::Opaque(c)
        );
    }

    #[test]
    fn truncated_operands_are_an_arity_error() {
        // An `Add` with no inputs at all used to evaluate as 0 + 0 and
        // fold into a plausible checksum; now it is a typed error.
        let mut b = DfgBuilder::new();
        let a = b.op(Opcode::Add, &[]);
        b.mark_live_out(a);
        let dfg = b.finish();
        assert_eq!(
            interpret(&dfg, 1, &Inputs::default()).unwrap_err(),
            InterpError::Arity(a)
        );
    }

    #[test]
    fn trailing_operand_defaults_still_apply() {
        // One operand present, second defaults to zero: cmp-against-zero
        // idiom used by the kernel library must keep working.
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let c = b.op(Opcode::CmpLt, &[x]);
        b.mark_live_out(c);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[-3]));
        let out = interpret(&dfg, 1, &inputs).unwrap();
        assert_eq!(out.live_outs[&c], Value::Int(1));
    }

    #[test]
    fn operand_free_ops_are_not_arity_errors() {
        // Stream loads, immediates and control ops legitimately read no
        // operands; they must not trip the arity check.
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let imm = b.op(Opcode::LoadImm, &[]);
        let s = b.op(Opcode::Add, &[x, imm]);
        b.mark_live_out(s);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[41]));
        let out = interpret(&dfg, 1, &inputs).unwrap();
        assert_eq!(out.live_outs[&s], Value::Int(41));
    }

    #[test]
    fn zero_iterations_run_nothing_even_on_a_defective_graph() {
        // Opaque and arity errors surface only once an iteration runs.
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let call = b.op(Opcode::Call, &[x]);
        let bad = b.op(Opcode::Add, &[]);
        b.store_stream(1, x);
        b.mark_live_out(call);
        b.mark_live_out(bad);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[1, 2]));
        let out = interpret(&dfg, 0, &inputs).unwrap();
        assert!(out.stores.is_empty());
        assert!(out.live_outs.is_empty());
        assert!(interpret(&dfg, 1, &inputs).is_err());
    }

    #[test]
    fn first_defect_in_topo_order_is_reported() {
        // `Call` consumes the operand-free `Add`, so the arity error comes
        // first by dependence.
        let mut b = DfgBuilder::new();
        let bad = b.op(Opcode::Add, &[]);
        let call = b.op(Opcode::Call, &[bad]);
        b.mark_live_out(call);
        let dfg = b.finish();
        assert_eq!(
            interpret(&dfg, 3, &Inputs::default()).unwrap_err(),
            InterpError::Arity(bad)
        );

        // Two unrelated defects: whichever the topological order visits
        // first is named. Building them in both orders reaches both.
        let mut named = Vec::new();
        for call_first in [false, true] {
            let mut b = DfgBuilder::new();
            let (bad, call) = if call_first {
                let call = b.op(Opcode::Call, &[]);
                (b.op(Opcode::Add, &[]), call)
            } else {
                let bad = b.op(Opcode::Add, &[]);
                (bad, b.op(Opcode::Call, &[]))
            };
            b.mark_live_out(bad);
            b.mark_live_out(call);
            let dfg = b.finish();
            let order = dfg.topo_order().unwrap();
            let first = *order.iter().find(|&&v| v == bad || v == call).unwrap();
            let want = if first == bad {
                InterpError::Arity(bad)
            } else {
                InterpError::Opaque(call)
            };
            let got = interpret(&dfg, 2, &Inputs::default()).unwrap_err();
            assert_eq!(got, want);
            named.push(matches!(got, InterpError::Opaque(_)));
        }
        assert_eq!(named, [true, false]);
    }

    #[test]
    fn carried_reads_of_consts_and_live_ins_start_from_initials() {
        // y_i = k_{i-1} + n_{i-2}: before a read reaches iteration 0 it
        // takes the initial (or 0), not the constant or live-in value.
        let mut b = DfgBuilder::new();
        let k = b.constant(5);
        let n = b.live_in();
        let y = b.op(Opcode::Add, &[]);
        b.loop_carried(k, y, 1);
        b.loop_carried(n, y, 2);
        b.store_stream(0, y);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.live_ins.insert(n, Value::Int(7));
        inputs.initials.insert(k, Value::Int(100));
        let out = interpret(&dfg, 3, &inputs).unwrap();
        assert_eq!(out.stores[&0], ints(&[100, 5, 12]));
        inputs.initials.insert(n, Value::Int(1000));
        let out = interpret(&dfg, 3, &inputs).unwrap();
        assert_eq!(out.stores[&0], ints(&[1100, 1005, 12]));
    }

    #[test]
    fn division_by_zero_is_zero() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let z = b.constant(0);
        let d = b.op(Opcode::Div, &[x, z]);
        b.mark_live_out(d);
        let dfg = b.finish();
        let mut inputs = Inputs::default();
        inputs.streams.insert(0, ints(&[9]));
        let out = interpret(&dfg, 1, &inputs).unwrap();
        assert_eq!(out.live_outs[&d], Value::Int(0));
    }
}
