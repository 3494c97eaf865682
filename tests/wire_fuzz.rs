//! Seeded fuzzing of the serving wire decoder (DESIGN.md §15) — the only
//! byte format network peers can reach.
//!
//! Four `WireFuzzer` prongs, each drawn from the fuzzer core the module
//! and snapshot harnesses share: transport faults, truncation or splitting
//! at a random byte, resealed payload forgeries, and boundary-value
//! counts. Every case goes through `check_frame_stream`, which feeds it to
//! `decode_frame` the way the reactor reads a connection and checks that
//! nothing panics, that `consumed` stays inside the buffer, that corrupted
//! bytes never decode as a frame unless they were resealed, and that
//! `Fatal` comes only from a length over the cap. The live counterpart,
//! with a server and a bystander connection, is in `tests/serve_net.rs`.
//!
//! `VEAL_FUZZ_CASES` scales each prong's corpus (default 600; CI smoke
//! runs 200).

use veal::serve::wire::{ErrorCode, WireFrame, MAX_FRAME_LEN, WIRE_VERSION};
use veal::serve::{check_frame_stream, frame_map, StreamReport, WireCase, WireFuzzer};
use veal::{encode_module, encode_translated_loop, exposed_translator, BinaryModule, EncodedLoop};
use veal_ir::rng::Rng64;
use veal_workloads::{synth_loop, SynthSpec};

fn fuzz_cases() -> u64 {
    std::env::var("VEAL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600)
}

/// Every frame kind, carrying real module and schedule bytes.
fn pool() -> Vec<WireFrame> {
    let t = exposed_translator();
    let mut rng = Rng64::new(0x3A7E);
    let mut frames = vec![
        WireFrame::Hello {
            version: WIRE_VERSION,
            tenant: 1,
            family_fp: None,
        },
        WireFrame::Hello {
            version: WIRE_VERSION,
            tenant: 2,
            family_fp: Some(0xFA31),
        },
        WireFrame::Shutdown,
        WireFrame::Bye,
        WireFrame::Error {
            seq: u32::MAX,
            code: ErrorCode::Malformed,
            message: "decoded graph is malformed".into(),
        },
    ];
    for seq in 0..3u32 {
        let body = synth_loop(&SynthSpec {
            seed: rng.next_u64(),
            compute_ops: rng.gen_range(4, 20),
            ..SynthSpec::default()
        });
        let outcome = t.translate(&body, &veal::StaticHints::none());
        frames.push(WireFrame::Outcome {
            seq,
            key: u64::from(seq),
            translation_cycles: outcome.breakdown.total(),
            translated: outcome
                .result
                .ok()
                .map(|tl| encode_translated_loop(&tl).expect("schedule encodes")),
        });
        frames.push(WireFrame::ReqHash {
            seq,
            key: u64::from(seq),
            loop_hash: body.dfg.content_hash(),
            hints_fp: 0,
        });
        let module = encode_module(&BinaryModule {
            loops: vec![EncodedLoop {
                body,
                priority_hint: None,
                cca_hint: None,
                family_hint: None,
            }],
        });
        frames.push(WireFrame::ReqModule {
            seq,
            key: u64::from(seq),
            module,
        });
    }
    frames
}

/// Runs `prong` over the corpus and returns the summed reports.
fn run(seed: u64, mut prong: impl FnMut(&mut WireFuzzer, &[u8]) -> Option<WireCase>) -> Totals {
    let pool = pool();
    let mut fuzzer = WireFuzzer::new(seed);
    let mut totals = Totals::default();
    for case in 0..fuzz_cases() {
        let clean = fuzzer.stream(&pool, 5);
        let Some(c) = prong(&mut fuzzer, &clean) else {
            continue;
        };
        let report = check_frame_stream(&c, &clean, MAX_FRAME_LEN)
            .unwrap_or_else(|e| panic!("seed {seed:#x} case {case}: {e}"));
        totals.add(&c, &clean, report);
    }
    totals
}

#[derive(Debug, Default)]
struct Totals {
    cases: u64,
    frames: u64,
    rejects: u64,
    fatal: u64,
    /// Cases whose bytes equal the clean stream and decoded exactly like it.
    intact: u64,
}

impl Totals {
    fn add(&mut self, case: &WireCase, clean: &[u8], r: StreamReport) {
        self.cases += 1;
        self.frames += r.frames;
        self.rejects += r.rejects;
        self.fatal += u64::from(r.fatal);
        if case.bytes == clean {
            let whole = StreamReport {
                frames: frame_map(clean).len() as u64,
                ..StreamReport::default()
            };
            assert_eq!(
                r, whole,
                "untouched bytes must decode like the clean stream"
            );
            self.intact += 1;
        }
    }
}

#[test]
fn transport_faults_never_pass_as_frames() {
    let t = run(0x7A45, |f, s| Some(f.corrupt_bytes(s)));
    assert!(t.rejects > 0 && t.fatal > 0, "{t:?}");
    assert!(t.frames > 0, "undamaged frames still decode: {t:?}");
}

#[test]
fn truncated_or_split_streams_lose_only_their_tail() {
    let pool = pool();
    let mut fuzzer = WireFuzzer::new(0x5917);
    let (mut truncated, mut split) = (0, 0);
    for case in 0..fuzz_cases() {
        let clean = fuzzer.stream(&pool, 5);
        let c = fuzzer.split(&clean);
        let r = check_frame_stream(&c, &clean, MAX_FRAME_LEN)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!((r.rejects, r.fatal), (0, false), "case {case}: {r:?}");
        // Every whole frame in the bytes that arrived is decoded; only a
        // partial tail waits.
        assert_eq!(r.frames, frame_map(&c.bytes).len() as u64, "case {case}");
        if c.cuts.is_empty() {
            truncated += 1;
        } else {
            assert_eq!(r.pending, 0, "case {case}: a split stream decodes whole");
            split += 1;
        }
    }
    assert!(truncated > 0 && split > 0);
}

#[test]
fn resealed_forgeries_are_frames_or_per_frame_rejects() {
    let t = run(0xF049, |f, s| f.reseal_forgery(s));
    assert_eq!(t.fatal, 0, "a forged payload cannot move a length: {t:?}");
    assert!(t.rejects > 0, "some forgeries fail to parse: {t:?}");
    assert!(t.frames > 0, "{t:?}");
}

#[test]
fn boundary_counts_are_fatal_only_past_the_cap() {
    let t = run(0xB0D5, |f, s| f.boundary_counts(s));
    assert!(t.fatal > 0, "u32::MAX lengths must be fatal: {t:?}");
    assert!(t.rejects > 0, "{t:?}");
}
