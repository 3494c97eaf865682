//! The Swing ordering never builds the II-parametric MinDist frontier.
//!
//! `swing_order` ranks recurrence sets by their largest MinDist
//! self-distance, computed by a Floyd–Warshall over each set alone, and
//! takes depths and heights from direct passes. Two pins:
//!
//! 1. Offline hint generation over the suite and a fully dynamic Swing
//!    translation leave the frontier cache (`sched::param::cached`)
//!    untouched. This file is its own test binary because the cache
//!    counters are process-global.
//! 2. On a 200-case seeded corpus at every II in 1..=16 — below RecMII
//!    too, where some cycles are positive — each recurrence set's
//!    criticality equals the largest diagonal entry of
//!    `MinDist::compute_naive` over its members, and `swing_order`'s
//!    order and abstract charges equal those of `reference::swing_order`,
//!    which ranks the sets from that full matrix.

use veal::accel::LatencyModel;
use veal::ir::rng::Rng64;
use veal::ir::streams::separate;
use veal::ir::{CostMeter, Dfg, OpId};
use veal::obs::metrics;
use veal::sched::mindist::max_self_distance;
use veal::sched::{reference, swing_order, MinDist};
use veal::workloads::{synth_loop, SynthSpec};
use veal::{
    compute_hints, legalize, AcceleratorConfig, CcaSpec, StaticHints, TransformLimits,
    TranslationPolicy, Translator,
};

const CASES: u64 = 200;

fn cache_counters() -> (u64, u64) {
    (
        metrics::counter("sched.param_cache.hits").get(),
        metrics::counter("sched.param_cache.misses").get(),
    )
}

#[test]
fn hint_pass_and_dynamic_swing_translation_skip_the_frontier_cache() {
    let config = AcceleratorConfig::paper_design();
    let spec = CcaSpec::paper();
    let limits = TransformLimits::default();
    let translator = Translator::new(
        config.clone(),
        Some(spec.clone()),
        TranslationPolicy::fully_dynamic(),
    );
    let before = cache_counters();
    let (mut hinted, mut mapped) = (0usize, 0usize);
    for app in veal::workloads::full_suite() {
        for l in &app.loops {
            for part in legalize(&l.raw, &limits) {
                hinted += usize::from(
                    compute_hints(&part.body, &config, Some(&spec))
                        .priority
                        .is_some(),
                );
                let outcome = translator.translate(&part.body, &StaticHints::none());
                mapped += usize::from(outcome.result.is_ok());
            }
        }
    }
    assert_eq!(
        cache_counters(),
        before,
        "the hint pass or a Swing translation touched the frontier cache"
    );
    assert!(
        hinted > 150 && mapped > 100,
        "suite degenerated: {hinted} hinted, {mapped} mapped"
    );
}

/// One corpus graph: a synthetic loop pushed through stream separation
/// and greedy CCA mapping, as the translator would see it.
fn corpus_dfg(case: u64) -> Option<Dfg> {
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
    let mut dfg = separate(&body.dfg, &mut meter).ok()?.dfg;
    veal::cca::map_cca(&mut dfg, &CcaSpec::paper(), &mut meter);
    Some(dfg)
}

#[test]
fn set_criticality_and_order_match_the_naive_matrix_at_every_ii() {
    let lat = LatencyModel::default();
    let (mut sets_checked, mut positive) = (0u64, 0u64);
    for case in 0..CASES {
        let Some(dfg) = corpus_dfg(case) else {
            continue;
        };
        let sets: Vec<Vec<OpId>> = dfg
            .recurrences()
            .into_iter()
            .filter(|s| s.iter().all(|&v| dfg.node(v).is_schedulable()))
            .collect();
        for ii in 1..=16u32 {
            let md = MinDist::compute_naive(&dfg, &lat, ii, &mut CostMeter::new());
            let mut has_positive = false;
            for set in &sets {
                let want = set
                    .iter()
                    .filter_map(|&v| md.get(v, v))
                    .max()
                    .unwrap_or(i64::MIN);
                assert_eq!(
                    max_self_distance(&dfg, &lat, ii, set),
                    want,
                    "case {case} ii {ii}: criticality of {set:?} diverged"
                );
                has_positive |= want > 0;
                sets_checked += 1;
            }
            let mut m_naive = CostMeter::new();
            let want = reference::swing_order(&dfg, &lat, ii, &mut m_naive);
            let mut m = CostMeter::new();
            let got = swing_order(&dfg, &lat, ii, &mut m);
            assert_eq!(got, want, "case {case} ii {ii}: order diverged");
            assert_eq!(
                m.breakdown(),
                m_naive.breakdown(),
                "case {case} ii {ii}: abstract cost diverged"
            );
            positive += u64::from(has_positive);
        }
    }
    assert!(
        sets_checked > 1_000 && positive > 100,
        "corpus degenerated: {sets_checked} sets, {positive} orders with a positive cycle"
    );
}
