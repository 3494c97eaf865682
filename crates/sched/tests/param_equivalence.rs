//! Seeded-corpus equivalence of the II-parametric MinDist against the
//! naive Floyd–Warshall kernel (ISSUE: ~200 random DFGs).
//!
//! Three properties, each over the same deterministic [`Rng64`] corpus:
//!
//! 1. `MinDistParam::eval_pair` equals `MinDist::compute_naive` for every
//!    op pair at every II in 1..=16 where the parametric structure is
//!    valid (and validity begins exactly at its RecMII).
//! 2. `swing_order` and `list_schedule` produce identical orders,
//!    schedules, *and abstract cost breakdowns* with the parametric path
//!    toggled on or off — the paper's measured translation cost must not
//!    depend on the host algorithm. `swing_order` reads no frontier, so
//!    the same prong also pins it against `reference::swing_order`, which
//!    ranks recurrences from the naive matrix's diagonal.
//! 3. `rec_mii_from_frontier` equals the metered Bellman–Ford `rec_mii`.

use veal_accel::{AcceleratorConfig, LatencyModel};
use veal_ir::rng::Rng64;
use veal_ir::streams::{separate, StreamSummary};
use veal_ir::{CostMeter, Dfg};
use veal_sched::{
    list_schedule, rec_mii, rec_mii_from_frontier, set_parametric_enabled, swing_order, MinDist,
    MinDistParam,
};
use veal_workloads::{synth_loop, SynthSpec};

const CASES: u64 = 200;

/// One corpus graph: a synthetic loop pushed through the same pipeline the
/// translator uses (stream separation, then greedy CCA mapping), so the
/// graphs carry stream ops, CCA pseudo-nodes, and loop-carried edges.
fn corpus_dfg(case: u64) -> Option<(Dfg, StreamSummary)> {
    let mut rng = Rng64::new(case.wrapping_mul(0x517C_C1B7_2722_0A95) ^ 0x5EED);
    let body = synth_loop(&SynthSpec {
        seed: rng.next_u64(),
        compute_ops: rng.gen_range(3, 24),
        fp_frac: if case.is_multiple_of(4) { 0.3 } else { 0.0 },
        loads: rng.gen_range(0, 4),
        stores: rng.gen_range(0, 2),
        recurrences: rng.gen_range(0, 3),
        rec_distance: 1 + (case as u32 % 3),
    });
    let mut meter = CostMeter::new();
    let sep = separate(&body.dfg, &mut meter).ok()?;
    let summary = sep.summary();
    let mut dfg = sep.dfg;
    veal_cca::map_cca(&mut dfg, &veal_cca::CcaSpec::paper(), &mut meter);
    Some((dfg, summary))
}

#[test]
fn parametric_matches_naive_for_all_pairs_at_every_ii() {
    let lat = LatencyModel::default();
    let mut pairs_checked = 0u64;
    for case in 0..CASES {
        let Some((dfg, _)) = corpus_dfg(case) else {
            continue;
        };
        let param = MinDistParam::compute(&dfg, &lat);
        for ii in 1..=16u32 {
            assert_eq!(
                param.valid_at(ii),
                ii >= param.rec_mii(),
                "case {case}: validity must begin exactly at RecMII"
            );
            if !param.valid_at(ii) {
                // Below RecMII the naive matrix has a positive diagonal
                // and the pruned frontiers are not comparable by design.
                continue;
            }
            let naive = MinDist::compute_naive(&dfg, &lat, ii, &mut CostMeter::new());
            for &u in param.ops() {
                for &v in param.ops() {
                    assert_eq!(
                        param.eval_pair(u, v, ii),
                        naive.get(u, v),
                        "case {case} ii {ii}: MinDist({u}, {v}) diverged"
                    );
                    pairs_checked += 1;
                }
            }
        }
    }
    assert!(
        pairs_checked > 100_000,
        "corpus degenerated: only {pairs_checked} pairs compared"
    );
}

#[test]
fn swing_and_schedule_identical_across_kernels() {
    let config = AcceleratorConfig::paper_design();
    let lat = &config.latencies;
    let mut scheduled = 0u32;
    for case in 0..CASES {
        let Some((dfg, summary)) = corpus_dfg(case) else {
            continue;
        };
        let mii = rec_mii(&dfg, lat, &mut CostMeter::new());

        let was = set_parametric_enabled(false);
        let mut m_naive = CostMeter::new();
        let order_naive = swing_order(&dfg, lat, mii, &mut m_naive);
        let sched_naive = list_schedule(&dfg, &config, &order_naive, mii, summary, &mut m_naive);
        set_parametric_enabled(true);
        let mut m_param = CostMeter::new();
        let order_param = swing_order(&dfg, lat, mii, &mut m_param);
        let sched_param = list_schedule(&dfg, &config, &order_param, mii, summary, &mut m_param);
        set_parametric_enabled(was);
        let mut m_matrix = CostMeter::new();
        let order_matrix = veal_sched::reference::swing_order(&dfg, lat, mii, &mut m_matrix);
        let _ = list_schedule(&dfg, &config, &order_matrix, mii, summary, &mut m_matrix);

        assert_eq!(order_naive, order_param, "case {case}: order diverged");
        assert_eq!(
            order_matrix, order_param,
            "case {case}: order diverged from the naive diagonal"
        );
        assert_eq!(
            m_naive.breakdown(),
            m_param.breakdown(),
            "case {case}: abstract cost diverged"
        );
        assert_eq!(
            m_matrix.breakdown(),
            m_param.breakdown(),
            "case {case}: abstract cost diverged from the naive diagonal"
        );
        match (sched_naive, sched_param) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.ii, b.ii, "case {case}: II diverged");
                assert_eq!(a.entries(), b.entries(), "case {case}: times diverged");
                for (op, _) in a.entries() {
                    assert_eq!(a.unit(op), b.unit(op), "case {case}: unit of {op} diverged");
                }
                scheduled += 1;
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "case {case}: error diverged"),
            (a, b) => panic!("case {case}: feasibility diverged: {a:?} vs {b:?}"),
        }
    }
    assert!(
        scheduled > 50,
        "corpus degenerated: {scheduled} schedulable"
    );
}

#[test]
fn frontier_rec_mii_matches_bellman_ford() {
    let lat = LatencyModel::default();
    for case in 0..CASES {
        let Some((dfg, _)) = corpus_dfg(case) else {
            continue;
        };
        assert_eq!(
            rec_mii_from_frontier(&dfg, &lat),
            rec_mii(&dfg, &lat, &mut CostMeter::new()),
            "case {case}: RecMII diverged"
        );
    }
}
