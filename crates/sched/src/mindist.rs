//! All-pairs longest-path (MinDist) matrix.
//!
//! `MinDist[u][v]` is the largest value of `Σ latency − II·Σ distance` over
//! all paths from `u` to `v`; scheduling must satisfy
//! `t(v) ≥ t(u) + MinDist[u][v]`. The Swing ordering derives earliest/latest
//! start times and node mobility from this matrix; this implementation's
//! ordering ranks recurrences by the diagonal alone, which
//! [`max_self_distance`] reads per recurrence set without the full matrix.
//!
//! Computing it is Θ(n³) (Floyd–Warshall) — this is, by design, the
//! dominant cost of translation, matching the paper's finding that priority
//! computation consumes 69% of the ~100k-instruction average translation
//! penalty (Figure 8), and motivating its static precomputation (§4.2).

use veal_accel::LatencyModel;
use veal_ir::{CostMeter, Dfg, OpId, Phase};

/// The MinDist matrix over the schedulable ops of a graph.
#[derive(Debug, Clone)]
pub struct MinDist {
    ops: Vec<OpId>,
    // Row-major; i64::MIN encodes "no path".
    dist: Vec<i64>,
    n: usize,
}

const NEG_INF: i64 = i64::MIN / 4;

/// The one Floyd–Warshall kernel: longest-path weights at `ii` among
/// `ops` (ascending ids), over the edges whose both ends are in `ops`,
/// written row-major into `dist`, which the caller pre-fills with
/// [`NEG_INF`] ("no path"). Unmetered; callers charge the cost model.
///
/// Pivots run in id order, so for an SCC's members this yields exactly
/// the cells the whole-graph run computes for them, at any II: a cell
/// between two members is only ever improved through a pivot that both
/// reaches and is reached from them, i.e. another member.
pub(crate) fn floyd_warshall(
    dfg: &Dfg,
    lat: &LatencyModel,
    ii: u32,
    ops: &[OpId],
    dist: &mut [i64],
) {
    debug_assert!(ops.windows(2).all(|w| w[0] < w[1]), "ops must ascend");
    let n = ops.len();
    assert_eq!(dist.len(), n * n, "matrix size mismatch");
    for (i, &u) in ops.iter().enumerate() {
        let l = i64::from(dfg.node(u).opcode().map_or(0, |op| lat.latency(op)));
        for e in dfg.succ_edges(u) {
            let Ok(j) = ops.binary_search(&e.dst) else {
                continue;
            };
            let w = l - i64::from(ii) * i64::from(e.distance);
            let cell = &mut dist[i * n + j];
            if w > *cell {
                *cell = w;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik == NEG_INF {
                continue;
            }
            for j in 0..n {
                let through = dik + dist[k * n + j];
                if dist[k * n + j] != NEG_INF && through > dist[i * n + j] {
                    dist[i * n + j] = through;
                }
            }
        }
    }
}

/// The largest MinDist self-distance at `ii` among `set`'s members (its
/// longest cycle weight), or `i64::MIN` when none lies on a cycle.
/// `set` must be an SCC's members in ascending id order; Floyd–Warshall
/// then runs over the set alone and returns what the diagonal of
/// [`MinDist::compute_naive`] holds for those members. Unmetered.
#[must_use]
pub fn max_self_distance(dfg: &Dfg, lat: &LatencyModel, ii: u32, set: &[OpId]) -> i64 {
    let s = set.len();
    let mut dist = vec![NEG_INF; s * s];
    floyd_warshall(dfg, lat, ii, set, &mut dist);
    (0..s)
        .map(|i| dist[i * s + i])
        .filter(|&d| d != NEG_INF)
        .max()
        .unwrap_or(i64::MIN)
}

// Dropped matrices park their Θ(n²) buffers here (per thread) and the next
// `compute` on the thread reclaims them, so sweeps that translate thousands
// of loops stop round-tripping the allocator for every matrix.
thread_local! {
    static DIST_POOL: std::cell::RefCell<Vec<Vec<i64>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

const DIST_POOL_DEPTH: usize = 8;

/// `(reuses, allocs)` of pooled matrix buffers, summed across threads.
fn dist_pool_counters() -> (&'static veal_obs::Counter, &'static veal_obs::Counter) {
    static C: std::sync::OnceLock<(&'static veal_obs::Counter, &'static veal_obs::Counter)> =
        std::sync::OnceLock::new();
    *C.get_or_init(|| {
        (
            veal_obs::counter("sched.dist_pool.reuses"),
            veal_obs::counter("sched.dist_pool.allocs"),
        )
    })
}

fn pooled_matrix(len: usize) -> Vec<i64> {
    let recycled = DIST_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        // Evict buffers grossly oversized for this request instead of
        // resurrecting them: a thread that once scheduled a huge DFG must
        // not park Θ(n_max²) memory forever.
        while let Some(v) = pool.pop() {
            if v.capacity() <= 4 * len.max(1) {
                return Some(v);
            }
        }
        None
    });
    match recycled {
        Some(mut v) => {
            dist_pool_counters().0.inc();
            v.clear();
            v.resize(len, NEG_INF);
            v
        }
        None => {
            dist_pool_counters().1.inc();
            vec![NEG_INF; len]
        }
    }
}

thread_local! {
    static PARAMETRIC: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Whether [`MinDist::compute`] may answer from the cached II-parametric
/// structure (the default). Per thread.
#[must_use]
pub fn parametric_enabled() -> bool {
    PARAMETRIC.with(std::cell::Cell::get)
}

/// Enables/disables the parametric fast path on this thread, returning
/// the previous setting. Benchmarks and property tests use this to pit
/// the naive and parametric kernels against each other; results are
/// bit-identical either way. It no longer affects
/// [`crate::swing_order`], which never reads the parametric structure.
pub fn set_parametric_enabled(on: bool) -> bool {
    PARAMETRIC.with(|c| c.replace(on))
}

impl Drop for MinDist {
    fn drop(&mut self) {
        let v = std::mem::take(&mut self.dist);
        if v.capacity() > 0 {
            DIST_POOL.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < DIST_POOL_DEPTH {
                    pool.push(v);
                }
            });
        }
    }
}

impl MinDist {
    /// Computes the matrix at initiation interval `ii`.
    ///
    /// Costs are charged to [`Phase::Priority`] because VEAL computes this
    /// matrix as part of priority calculation. The charge models the VM's
    /// Floyd–Warshall (`3n³ + 1`) regardless of how the host arrives at
    /// the values: when `ii` is at or above the graph's RecMII (always
    /// true inside the scheduling pipeline, where `II ≥ max(ResMII,
    /// RecMII)`), the matrix is evaluated in O(n²·k) from the cached
    /// II-parametric structure ([`crate::MinDistParam`]); otherwise — and
    /// whenever [`set_parametric_enabled`]`(false)` is in effect — the
    /// naive kernel runs. Both paths produce bit-identical matrices and
    /// charges.
    #[must_use]
    pub fn compute(dfg: &Dfg, lat: &LatencyModel, ii: u32, meter: &mut CostMeter) -> Self {
        if parametric_enabled() {
            let param = crate::param::cached(dfg, lat);
            if param.valid_at(ii) {
                let ops = param.ops().to_vec();
                let n = ops.len();
                meter.charge(
                    Phase::Priority,
                    3 * (n as u64) * (n as u64) * (n as u64) + 1,
                );
                // Unreachable pairs keep the pool's NEG_INF prefill.
                let mut dist = pooled_matrix(n * n);
                param.eval_into(ii, &mut dist);
                return MinDist { ops, dist, n };
            }
        }
        Self::compute_naive(dfg, lat, ii, meter)
    }

    /// The original Θ(n³) Floyd–Warshall kernel, retained as the reference
    /// implementation (property tests and `bench_translate` compare the
    /// parametric path against it) and as the fallback for `ii` below the
    /// graph's RecMII.
    #[must_use]
    pub fn compute_naive(dfg: &Dfg, lat: &LatencyModel, ii: u32, meter: &mut CostMeter) -> Self {
        let ops: Vec<OpId> = dfg.schedulable_ops().collect();
        let n = ops.len();
        let mut dist = pooled_matrix(n * n);
        // Each Floyd–Warshall inner step is several host instructions
        // (two loads, compare, add, conditional store): charge 3 abstract
        // instructions per step, calibrated against the paper's x86
        // instruction counts.
        meter.charge(
            Phase::Priority,
            3 * (n as u64) * (n as u64) * (n as u64) + 1,
        );
        floyd_warshall(dfg, lat, ii, &ops, &mut dist);
        MinDist { ops, dist, n }
    }

    /// The schedulable ops this matrix covers, sorted by id.
    #[must_use]
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// Longest-path weight from `u` to `v`, or `None` when no path exists.
    #[must_use]
    pub fn get(&self, u: OpId, v: OpId) -> Option<i64> {
        let i = self.ops.binary_search(&u).ok()?;
        let j = self.ops.binary_search(&v).ok()?;
        let d = self.dist[i * self.n + j];
        (d != NEG_INF).then_some(d)
    }

    /// Whether `u` and `v` lie on a common cycle (mutually reachable).
    #[must_use]
    pub fn on_common_cycle(&self, u: OpId, v: OpId) -> bool {
        self.get(u, v).is_some() && self.get(v, u).is_some()
    }

    /// Earliest start of `v` relative to the graph's sources:
    /// `max(0, max_u MinDist[u][v])` over source ops `u` (no predecessors
    /// among schedulable ops).
    #[must_use]
    pub fn earliest(&self, dfg: &Dfg, v: OpId) -> i64 {
        let mut e = 0i64;
        for &u in &self.ops {
            let is_source = dfg
                .pred_edges(u)
                .all(|edge| edge.distance > 0 || !dfg.node(edge.src).is_schedulable());
            if !is_source {
                continue;
            }
            if let Some(d) = self.get(u, v) {
                e = e.max(d);
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_ir::{DfgBuilder, Opcode};

    #[test]
    fn chain_distances() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Mul, &[]); // 3 cycles
        let y = b.op(Opcode::Add, &[x]); // 1 cycle
        let z = b.op(Opcode::Add, &[y]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let d = MinDist::compute(&dfg, &LatencyModel::default(), 2, &mut m);
        assert_eq!(d.get(x, y), Some(3));
        assert_eq!(d.get(x, z), Some(4));
        assert_eq!(d.get(z, x), None);
    }

    #[test]
    fn loop_carried_edge_subtracts_ii() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let y = b.op(Opcode::Add, &[x]);
        b.loop_carried(y, x, 1);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let d = MinDist::compute(&dfg, &LatencyModel::default(), 2, &mut m);
        // y -> x: 1 - 2*1 = -1.
        assert_eq!(d.get(y, x), Some(-1));
        assert!(d.on_common_cycle(x, y));
    }

    #[test]
    fn self_distance_zero_at_rec_mii() {
        // At II = RecMII the critical cycle has weight exactly 0.
        let mut b = DfgBuilder::new();
        let m1 = b.op(Opcode::Mul, &[]);
        let o = b.op(Opcode::Or, &[m1]);
        b.loop_carried(o, m1, 1);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let d = MinDist::compute(&dfg, &LatencyModel::default(), 4, &mut m);
        assert_eq!(d.get(m1, m1), Some(0));
    }

    #[test]
    fn cost_charged_cubically() {
        let mut b = DfgBuilder::new();
        let mut prev = b.op(Opcode::Add, &[]);
        for _ in 0..9 {
            prev = b.op(Opcode::Add, &[prev]);
        }
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let _ = MinDist::compute(&dfg, &LatencyModel::default(), 1, &mut m);
        assert!(m.breakdown().get(Phase::Priority) >= 1000);
    }

    #[test]
    fn earliest_tracks_critical_path() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Mul, &[]); // source, 3 cycles
        let y = b.op(Opcode::Add, &[x]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let d = MinDist::compute(&dfg, &LatencyModel::default(), 1, &mut m);
        assert_eq!(d.earliest(&dfg, y), 3);
        assert_eq!(d.earliest(&dfg, x), 0);
    }
}
