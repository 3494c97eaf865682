//! Static-hint translation never builds the II-parametric MinDist
//! structure.
//!
//! With a priority hint the translator skips the Swing ordering, and the
//! list scheduler computes its distance-0 depths in one direct pass, so
//! the all-pairs frontier cache (`sched::param::cached`) is neither
//! consulted nor filled. This file is its own test binary because the
//! cache counters are process-global: no other test may translate while
//! the deltas are read.

use veal::ir::LoopBody;
use veal::obs::metrics;
use veal::sched::param;
use veal::vm::TranslationOutcome;
use veal::{
    compute_hints, encode_translated_loop, legalize, AcceleratorConfig, CcaSpec, StaticHints,
    TransformLimits, TranslationPolicy, Translator,
};

/// Every legalized suite loop with its offline static hints.
fn suite() -> Vec<(LoopBody, StaticHints)> {
    let config = AcceleratorConfig::paper_design();
    let spec = CcaSpec::paper();
    let limits = TransformLimits::default();
    let mut out = Vec::new();
    for app in veal::workloads::full_suite() {
        for l in &app.loops {
            for part in legalize(&l.raw, &limits) {
                let hints = compute_hints(&part.body, &config, Some(&spec));
                out.push((part.body, hints));
            }
        }
    }
    out
}

/// Everything a translation hands back, as comparable text and bytes:
/// the mapped graph (by content hash: its debug form shows lazily filled
/// caches), schedule and registers (assignment sorted by op, as the map's
/// iteration order is not part of the outcome), the phase breakdown, the
/// hint verdict, and the response bytes a server would send.
fn fingerprint(outcome: &TranslationOutcome) -> (String, Option<Vec<u8>>) {
    let mapped = match &outcome.result {
        Ok(t) => {
            let s = &t.scheduled;
            let mut regs: Vec<_> = s.registers.assignment.iter().collect();
            regs.sort_unstable();
            format!(
                "{:#x} {:?} mii={} {:?} pinned={}/{} {regs:?} {:?} words={} cca={} ops={}",
                t.dfg.content_hash(),
                s.schedule.raw_parts(),
                s.mii,
                s.registers.pressure,
                s.registers.pinned_int,
                s.registers.pinned_fp,
                t.streams,
                t.control_words,
                t.cca_groups,
                t.accel_ops,
            )
        }
        Err(e) => format!("{e:?}"),
    };
    let text = format!("{mapped} {:?} {:?}", outcome.breakdown, outcome.verdict);
    let bytes = outcome
        .result
        .as_ref()
        .ok()
        .map(|t| encode_translated_loop(t).expect("a mapped loop encodes"));
    (text, bytes)
}

fn cache_counters() -> (u64, u64) {
    (
        metrics::counter("sched.param_cache.hits").get(),
        metrics::counter("sched.param_cache.misses").get(),
    )
}

#[test]
fn static_hint_translation_skips_the_frontier_cache_and_matches_a_warm_run() {
    let loops = suite();
    let translator = Translator::new(
        AcceleratorConfig::paper_design(),
        Some(CcaSpec::paper()),
        TranslationPolicy::static_hints(),
    );
    let lat = translator.config().latencies.clone();

    let before = cache_counters();
    let cold: Vec<TranslationOutcome> = loops
        .iter()
        .map(|(body, hints)| translator.translate(body, hints))
        .collect();
    assert_eq!(
        cache_counters(),
        before,
        "a static-hint translation touched the parametric MinDist cache"
    );
    assert!(
        cold.iter().filter(|o| o.result.is_ok()).count() > loops.len() / 2,
        "most suite loops map"
    );

    // Second run: before each translation, warm the cache for every graph
    // the scheduler could see (the body and, when it mapped, the separated
    // graph). The outcome must not depend on what the cache holds.
    for ((body, hints), first) in loops.iter().zip(&cold) {
        let _ = param::cached(&body.dfg, &lat);
        if let Ok(t) = &first.result {
            let _ = param::cached(&t.dfg, &lat);
        }
        let before = cache_counters();
        let warm = translator.translate(body, hints);
        assert_eq!(cache_counters(), before, "{}: cache touched", body.name);
        assert_eq!(
            fingerprint(&warm),
            fingerprint(first),
            "{}: translation differs with a warm frontier cache",
            body.name
        );
    }
}
