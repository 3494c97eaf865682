//! II-parametric MinDist: compute the all-pairs longest-path structure
//! once, evaluate it at any initiation interval in O(n²·k).
//!
//! `MinDist[u][v]` at interval `II` is `max (Σlatency − II·Σdistance)`
//! over dependence paths `u → v`. The path set does not depend on II —
//! only the *evaluation* does — so each pair can be summarized once as a
//! small Pareto frontier of `(Σlatency, Σdistance)` lines and every
//! later II becomes an upper-envelope evaluation instead of a fresh
//! Θ(n³) Floyd–Warshall. This mirrors how symbolic/parametric modulo
//! scheduling precomputes schedule artifacts once per loop and
//! specializes them per configuration.
//!
//! The structure is SCC-shaped (paper §4.1: recurrences are the SCCs):
//!
//! * **Inside each non-trivial SCC** a Floyd–Warshall pass runs over the
//!   frontier semiring (concatenate = pointwise sum, merge = union +
//!   dominance pruning). SCCs are tiny in practice, so the cubic factor
//!   applies to `s³`, not `n³`.
//! * **Across SCCs** the condensation is a DAG, so a per-source
//!   topological dynamic program extends frontiers along cross-component
//!   edges in O(n·e·k̄).
//!
//! **Exactness.** Frontier entries are genuine walk weights and the set
//! retained for a pair dominates every simple path between the pair. At
//! any `II ≥ RecMII` (of the schedulable subgraph) cycles weigh `≤ 0`,
//! so the best walk equals the best simple path and the envelope equals
//! the converged Floyd–Warshall value for **every** pair — including the
//! diagonal, where the critical recurrence reaches exactly 0. Below
//! RecMII positive cycles exist, single-pass Floyd–Warshall is not even
//! internally converged, and [`crate::MinDist::compute`] falls back to
//! the naive kernel (the pipeline never schedules below RecMII, so the
//! fallback only serves direct API callers).
//!
//! **Pruning rule.** For one pair, a line `(L, D)` evaluates to
//! `L − II·D`. Sorted by `D` ascending, a steeper line (larger `D`) can
//! only beat flatter ones *below* some II; therefore any line that is
//! already ≤ the running maximum at the smallest II we will ever
//! evaluate (`prune_ii`) is dominated for all `II ≥ prune_ii` and is
//! dropped. This keeps frontiers to a handful of entries — in particular
//! cycle-padded walks die immediately because padding adds a cycle worth
//! `≤ 0` at `prune_ii`.
//!
//! Nothing here is metered: the paper's VM runs Floyd–Warshall per
//! translation, and [`crate::MinDist::compute`] keeps charging exactly
//! that (`3n³ + 1` to `Phase::Priority`). This module only changes host
//! time.

use std::cell::RefCell;
use std::sync::Arc;
use veal_accel::LatencyModel;
use veal_ir::{Dfg, OpId};

/// One path/walk summary: `(Σ latency, Σ distance)`; evaluates to
/// `L − II·D`.
type Line = (i64, i64);

const NO_OP: u32 = u32::MAX;

/// The II-parametric all-pairs longest-path structure of one graph
/// (schedulable ops only), as Pareto frontiers in CSR layout.
#[derive(Debug, Clone)]
pub struct MinDistParam {
    ops: Vec<OpId>,
    n: usize,
    /// RecMII of the schedulable subgraph: the envelope is exact for any
    /// `II ≥ rec_mii`. `u32::MAX` marks an ill-formed body (a positive
    /// zero-distance cycle) for which no II is safe.
    rec_mii: u32,
    /// `n·n + 1` CSR offsets into `pairs`; cell `(i, j)` is row-major.
    offsets: Vec<u32>,
    pairs: Vec<Line>,
}

/// Dominance pruning at `prune_ii` (see module docs): dedupe by `D`
/// keeping the largest `L`, then keep a line only when it strictly beats
/// every flatter line at `prune_ii`.
fn prune(front: &mut Vec<Line>, prune_ii: i64) {
    if front.len() <= 1 {
        return;
    }
    front.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
    front.dedup_by_key(|e| e.1);
    let mut kept = 0;
    let mut best = i64::MIN;
    for i in 0..front.len() {
        let (l, d) = front[i];
        let v = l - prune_ii * d;
        if v > best {
            front[kept] = (l, d);
            kept += 1;
            best = v;
        }
    }
    front.truncate(kept);
}

/// Appends every concatenation `a ⊗ b` (pointwise sums) to `dst`.
fn cross_into(dst: &mut Vec<Line>, a: &[Line], b: &[Line]) {
    for &(la, da) in a {
        for &(lb, db) in b {
            dst.push((la + lb, da + db));
        }
    }
}

impl MinDistParam {
    /// Builds the parametric structure for `dfg` under `lat`. Prefer
    /// [`cached`], which amortizes this across candidate IIs, sweep
    /// points, and scheduler retries.
    #[must_use]
    pub fn compute(dfg: &Dfg, lat: &LatencyModel) -> Self {
        let ops: Vec<OpId> = dfg.schedulable_ops().collect();
        let n = ops.len();
        let mut op_index = vec![NO_OP; dfg.len()];
        for (i, &o) in ops.iter().enumerate() {
            op_index[o.index()] = i as u32;
        }
        let latency =
            |i: usize| i64::from(dfg.node(ops[i]).opcode().map_or(0, |op| lat.latency(op)));

        // Components restricted to schedulable members, in the cached
        // condensation's reverse topological order. Paths between
        // schedulable ops only ever traverse schedulable ops (exactly the
        // node set the naive kernel walks), so the restriction is lossless.
        let cond = dfg.condensation();
        let comps: Vec<Vec<u32>> = cond
            .comps()
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&m| op_index[m.index()])
                    .filter(|&i| i != NO_OP)
                    .collect()
            })
            .collect();
        let mut comp_of_op = vec![0u32; n];
        for (ci, comp) in comps.iter().enumerate() {
            for &m in comp {
                comp_of_op[m as usize] = ci as u32;
            }
        }

        // Within-component all-pairs frontiers: Floyd–Warshall over the
        // frontier semiring, pruned conservatively at II = 1 (valid for
        // every II ≥ 1) until the real RecMII is known.
        let mut within: Vec<Vec<Vec<Line>>> = Vec::with_capacity(comps.len());
        for comp in &comps {
            let s = comp.len();
            let mut f: Vec<Vec<Line>> = vec![Vec::new(); s * s];
            for (li, &gi) in comp.iter().enumerate() {
                let l = latency(gi as usize);
                for e in dfg.succ_edges(ops[gi as usize]) {
                    let j = op_index[e.dst.index()];
                    if j == NO_OP
                        || comp_of_op[j as usize] as usize != comp_of_op[gi as usize] as usize
                    {
                        continue;
                    }
                    let lj = comp.iter().position(|&m| m == j).expect("member");
                    f[li * s + lj].push((l, i64::from(e.distance)));
                }
            }
            for cell in &mut f {
                prune(cell, 1);
            }
            for k in 0..s {
                // Snapshot row/column k (textbook FW uses the pre-k values).
                let rowk: Vec<Vec<Line>> = (0..s).map(|j| f[k * s + j].clone()).collect();
                let colk: Vec<Vec<Line>> = (0..s).map(|i| f[i * s + k].clone()).collect();
                for i in 0..s {
                    if colk[i].is_empty() {
                        continue;
                    }
                    for j in 0..s {
                        if rowk[j].is_empty() {
                            continue;
                        }
                        let cell = &mut f[i * s + j];
                        cross_into(cell, &colk[i], &rowk[j]);
                        prune(cell, 1);
                    }
                }
            }
            within.push(f);
        }

        // RecMII from the frontier diagonals: a cycle entry `(L, D)` stops
        // being positive at II = ⌈L/D⌉; the component's RecMII is the max
        // over its retained diagonal entries (pruning at 1 preserves the
        // envelope for all II ≥ 1, hence this maximum).
        let mut rec_mii = 1u32;
        let mut well_formed = true;
        for (comp, f) in comps.iter().zip(&within) {
            let s = comp.len();
            for i in 0..s {
                for &(l, d) in &f[i * s + i] {
                    if l <= 0 {
                        continue;
                    }
                    if d == 0 {
                        // Positive zero-distance cycle: ill-formed body, no
                        // II makes the naive kernel converge.
                        well_formed = false;
                    } else {
                        // Ceiling division; `l > 0` and `d > 0` here.
                        rec_mii = rec_mii.max(((l + d - 1) / d) as u32);
                    }
                }
            }
        }
        if !well_formed {
            return MinDistParam {
                ops,
                n,
                rec_mii: u32::MAX,
                offsets: vec![0; n * n + 1],
                pairs: Vec::new(),
            };
        }
        // Re-prune at the real floor: every evaluation happens at
        // II ≥ rec_mii, so tighter dominance applies.
        let at = i64::from(rec_mii);
        for f in &mut within {
            for cell in f.iter_mut() {
                prune(cell, at);
            }
        }

        // Cross-component DP, one source at a time. `comps` is in reverse
        // topological order, so walking indices downward follows the edges.
        let mut offsets: Vec<u32> = Vec::with_capacity(n * n + 1);
        offsets.push(0);
        let mut pairs: Vec<Line> = Vec::new();
        let mut cur: Vec<Vec<Line>> = vec![Vec::new(); n];
        for u in 0..n {
            for c in &mut cur {
                c.clear();
            }
            let pu = comp_of_op[u] as usize;
            for ci in (0..=pu).rev() {
                let comp = &comps[ci];
                let s = comp.len();
                if s == 0 {
                    continue;
                }
                if ci == pu {
                    // Seed: walks from u that stay inside its component.
                    let ul = comp.iter().position(|&m| m as usize == u).expect("source");
                    for j in 0..s {
                        let cell = &within[ci][ul * s + j];
                        if !cell.is_empty() {
                            let t = &mut cur[comp[j] as usize];
                            t.extend_from_slice(cell);
                            prune(t, at);
                        }
                    }
                } else if comp.iter().any(|&m| !cur[m as usize].is_empty()) {
                    // Close arrivals over the component: a walk may enter at
                    // x, wander within, and leave at y.
                    let arrivals: Vec<Vec<Line>> =
                        comp.iter().map(|&m| cur[m as usize].clone()).collect();
                    for (xl, ax) in arrivals.iter().enumerate() {
                        if ax.is_empty() {
                            continue;
                        }
                        for j in 0..s {
                            let cell = &within[ci][xl * s + j];
                            if cell.is_empty() {
                                continue;
                            }
                            let t = &mut cur[comp[j] as usize];
                            cross_into(t, ax, cell);
                            prune(t, at);
                        }
                    }
                }
                // Relax cross-component edges out of this component.
                for &xm in comp {
                    let x = xm as usize;
                    let starts_here = x == u;
                    if cur[x].is_empty() && !starts_here {
                        continue;
                    }
                    let lx = latency(x);
                    for e in dfg.succ_edges(ops[x]) {
                        let j = op_index[e.dst.index()];
                        if j == NO_OP || comp_of_op[j as usize] as usize == ci {
                            continue;
                        }
                        let d = i64::from(e.distance);
                        let mut add: Vec<Line> =
                            cur[x].iter().map(|&(l, dd)| (l + lx, dd + d)).collect();
                        if starts_here {
                            add.push((lx, d));
                        }
                        let t = &mut cur[j as usize];
                        t.extend_from_slice(&add);
                        prune(t, at);
                    }
                }
            }
            for c in &cur {
                pairs.extend_from_slice(c);
                offsets.push(pairs.len() as u32);
            }
        }

        MinDistParam {
            ops,
            n,
            rec_mii,
            offsets,
            pairs,
        }
    }

    /// The schedulable ops covered, sorted by id (same list the dense
    /// [`crate::MinDist`] carries).
    #[must_use]
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// RecMII of the schedulable subgraph — the smallest II at which the
    /// envelope is exact (and, equivalently, at which no recurrence cycle
    /// is positive). Matches [`crate::rec_mii`] on well-formed bodies,
    /// whose recurrences never pass through live-in/constant pseudo-nodes.
    #[must_use]
    pub fn rec_mii(&self) -> u32 {
        self.rec_mii
    }

    /// Whether the envelope may be evaluated at `ii`.
    #[must_use]
    pub fn valid_at(&self, ii: u32) -> bool {
        self.rec_mii != u32::MAX && ii >= self.rec_mii
    }

    /// Evaluates the envelope for a single `(u, v)` pair at `ii`: the
    /// MinDist entry, or `None` when `v` is unreachable from `u` (or
    /// either id is not a schedulable op). O(log n + k).
    #[must_use]
    pub fn eval_pair(&self, u: OpId, v: OpId, ii: u32) -> Option<i64> {
        let iu = self.ops.binary_search(&u).ok()?;
        let iv = self.ops.binary_search(&v).ok()?;
        let cell = iu * self.n + iv;
        let (a, b) = (self.offsets[cell] as usize, self.offsets[cell + 1] as usize);
        if a == b {
            return None;
        }
        let ii = i64::from(ii);
        self.pairs[a..b].iter().map(|&(l, d)| l - ii * d).max()
    }

    /// Evaluates the envelope at `ii` into a row-major `n·n` matrix whose
    /// cells are pre-filled with the caller's "no path" sentinel
    /// (unreachable pairs are left untouched).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly `n·n` cells.
    pub fn eval_into(&self, ii: u32, out: &mut [i64]) {
        assert_eq!(out.len(), self.n * self.n, "matrix size mismatch");
        let ii = i64::from(ii);
        for (cell, w) in out.iter_mut().zip(self.offsets.windows(2)) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            if a == b {
                continue;
            }
            let mut best = i64::MIN;
            for &(l, d) in &self.pairs[a..b] {
                let v = l - ii * d;
                if v > best {
                    best = v;
                }
            }
            *cell = best;
        }
    }
}

const PARAM_CACHE_CAP: usize = 64;

/// `(hits, misses)` of the frontier-structure cache, summed across all
/// threads. Handles cached so the hot path skips the registry lock.
fn param_cache_counters() -> (&'static veal_obs::Counter, &'static veal_obs::Counter) {
    static C: std::sync::OnceLock<(&'static veal_obs::Counter, &'static veal_obs::Counter)> =
        std::sync::OnceLock::new();
    *C.get_or_init(|| {
        (
            veal_obs::counter("sched.param_cache.hits"),
            veal_obs::counter("sched.param_cache.misses"),
        )
    })
}

thread_local! {
    // Small move-to-front LRU keyed on (graph content hash, latency-model
    // fingerprint) — the same identity the sweep engine's translation memo
    // trusts. Thread-local so worker threads never contend.
    static PARAM_CACHE: RefCell<Vec<(u64, u64, Arc<MinDistParam>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The cached parametric structure for `(dfg, lat)`, built on first use.
/// Per-thread LRU of [`PARAM_CACHE_CAP`] entries; repeated scheduling of
/// the same loop under the same latency model (II escalation, register
/// retries, sweep points) reuses one structure.
#[must_use]
pub fn cached(dfg: &Dfg, lat: &LatencyModel) -> Arc<MinDistParam> {
    let key = (dfg.content_hash(), lat.fingerprint());
    PARAM_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if let Some(pos) = cache.iter().position(|e| (e.0, e.1) == key) {
            let entry = cache.remove(pos);
            let param = Arc::clone(&entry.2);
            cache.insert(0, entry);
            param_cache_counters().0.inc();
            return param;
        }
        param_cache_counters().1.inc();
        let param = Arc::new(MinDistParam::compute(dfg, lat));
        cache.insert(0, (key.0, key.1, Arc::clone(&param)));
        cache.truncate(PARAM_CACHE_CAP);
        param
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_ir::{DfgBuilder, Opcode};

    #[test]
    fn prune_keeps_upper_envelope() {
        // (10, 0) flat, (14, 1) wins below II 4, (12, 1) dominated by it,
        // (20, 10) already loses at II 2.
        let mut f = vec![(10, 0), (12, 1), (14, 1), (20, 10)];
        prune(&mut f, 2);
        assert_eq!(f, vec![(10, 0), (14, 1)]);
        // At II 2 the steeper line wins; by II 4 the flat one has caught up.
        let best = |ii: i64| f.iter().map(|&(l, d)| l - ii * d).max().unwrap();
        assert_eq!(best(2), 12);
        assert_eq!(best(4), 10);
    }

    #[test]
    fn chain_frontier_matches_direct_values() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Mul, &[]); // 3 cycles
        let y = b.op(Opcode::Add, &[x]);
        let z = b.op(Opcode::Add, &[y]);
        let dfg = b.finish();
        let p = MinDistParam::compute(&dfg, &LatencyModel::default());
        assert_eq!(p.rec_mii(), 1);
        let n = p.ops().len();
        let mut out = vec![i64::MIN; n * n];
        p.eval_into(3, &mut out);
        let idx = |a: OpId, b: OpId| {
            p.ops().binary_search(&a).unwrap() * n + p.ops().binary_search(&b).unwrap()
        };
        assert_eq!(out[idx(x, y)], 3);
        assert_eq!(out[idx(x, z)], 4);
        assert_eq!(out[idx(z, x)], i64::MIN);
    }

    #[test]
    fn recurrence_rec_mii_and_zero_diagonal() {
        // mul(3) -> or(1) -> back at distance 1: RecMII 4, and at II 4 the
        // critical cycle weighs exactly 0.
        let mut b = DfgBuilder::new();
        let m = b.op(Opcode::Mul, &[]);
        let o = b.op(Opcode::Or, &[m]);
        b.loop_carried(o, m, 1);
        let dfg = b.finish();
        let p = MinDistParam::compute(&dfg, &LatencyModel::default());
        assert_eq!(p.rec_mii(), 4);
        assert!(p.valid_at(4) && !p.valid_at(3));
        let mut out = vec![i64::MIN; 4];
        p.eval_into(4, &mut out);
        let i = p.ops().binary_search(&m).unwrap();
        assert_eq!(out[i * 2 + i], 0);
    }

    #[test]
    fn ill_formed_distance0_cycle_is_marked_invalid() {
        use veal_ir::dfg::{EdgeKind, NodeKind};
        let mut dfg = Dfg::new();
        let a = dfg.add_node(NodeKind::Op(Opcode::Add));
        let b = dfg.add_node(NodeKind::Op(Opcode::Sub));
        dfg.add_edge(a, b, 0, EdgeKind::Data);
        dfg.add_edge(b, a, 0, EdgeKind::Data);
        let p = MinDistParam::compute(&dfg, &LatencyModel::default());
        assert_eq!(p.rec_mii(), u32::MAX);
        assert!(!p.valid_at(u32::MAX - 1));
    }

    #[test]
    fn cached_returns_same_structure_for_same_key() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let _ = b.op(Opcode::Add, &[x]);
        let dfg = b.finish();
        let lat = LatencyModel::default();
        let a = cached(&dfg, &lat);
        let b2 = cached(&dfg, &lat);
        assert!(Arc::ptr_eq(&a, &b2));
    }
}
