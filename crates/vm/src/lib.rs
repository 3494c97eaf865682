//! The co-designed virtual machine (paper §4.2).
//!
//! This crate implements the software side of VEAL's virtualization story:
//!
//! * [`binfmt`] — a binary module format for applications expressed in the
//!   baseline ISA, including the two *binary-compatible* hint encodings of
//!   Figure 9: scheduling priorities in a data section preceding each loop
//!   (9c) and CCA subgraphs as branch-and-link procedural abstraction (9b).
//!   A binary with hints still runs correctly on any system — hints are
//!   advisory.
//! * [`hints`] — the static compiler pass that produces those hints.
//! * [`cache`] — the VM's software code cache for translated accelerator
//!   control (16-entry LRU in the paper's evaluation, ~48 KB).
//! * [`translator`] — the dynamic translation pipeline: loop
//!   identification, stream separation, CCA mapping (dynamic or decoded
//!   from hints), MII, priority (dynamic Swing, dynamic height-based, or
//!   decoded), scheduling, and register assignment, each charged to the
//!   [`veal_ir::CostMeter`].
//! * [`verify`] — the semantic trust boundary for hints: permutation and
//!   legality validation, metered, with per-step degradation verdicts.
//! * [`session`] — a stateful VM session combining translator and cache,
//!   tracking per-benchmark translation statistics, hint quarantine, and a
//!   translation-budget watchdog.
//! * [`faults`] — a seeded fault-injection harness (byte corruption,
//!   structural hint mutation) with a differential oracle against the
//!   [`veal_ir::interp`] reference semantics.
//! * [`snapshot`] — crash-safe persistence of warm state (memo + code
//!   cache) with untrusted-snapshot re-validation and per-entry salvage.
//!
//! # Example
//!
//! ```
//! use veal_accel::AcceleratorConfig;
//! use veal_cca::CcaSpec;
//! use veal_ir::{DfgBuilder, LoopBody, Opcode};
//! use veal_vm::{StaticHints, TranslationPolicy, Translator};
//!
//! let mut b = DfgBuilder::new();
//! let x = b.load_stream(0);
//! let y = b.op(Opcode::Add, &[x, x]);
//! b.store_stream(1, y);
//! let body = LoopBody::new("double", b.finish());
//!
//! let t = Translator::new(
//!     AcceleratorConfig::paper_design(),
//!     Some(CcaSpec::paper()),
//!     TranslationPolicy::fully_dynamic(),
//! );
//! let outcome = t.translate(&body, &StaticHints::none());
//! assert!(outcome.result.is_ok());
//! assert!(outcome.breakdown.total() > 0);
//! ```

pub mod binfmt;
pub mod cache;
pub mod disasm;
pub mod faults;
pub mod hints;
pub mod memo;
pub mod session;
pub mod snapshot;
pub mod translator;
pub mod verify;

pub use binfmt::{
    decode_module, encode_module, read_section, reseal_section, section_checksum, section_ranges,
    BinaryModule, DecodeError, EncodedLoop, Reader, SectionRange, SectionRead, Writer,
};
pub use cache::{CacheStats, CodeCache};
pub use disasm::disassemble;
pub use faults::{
    check_degradation, check_restore, exposed_translator, FaultVerdict, HintFuzzer, SnapshotFuzzer,
};
pub use hints::{compute_hints, StaticHints};
pub use memo::{
    MemoBackend, MemoEntry, MemoKey, MemoStats, MemoizedOutcome, ShardedMemo, TranslationMemo,
};
pub use session::{fold_vm_stats, ConcretizeStats, VmSession, VmStats};
pub use snapshot::{
    decode_translated_loop, encode_translated_loop, encode_warm_state, inspect_snapshot,
    restore_warm_state, save_atomic, snapshot_section_ranges, EncodeError, EntryReject,
    RestoreReport, SnapshotInfo, SnapshotMeta,
};
pub use translator::{
    SymbolicTranslation, TranslatedLoop, TranslationError, TranslationOutcome, TranslationPolicy,
    Translator,
};
pub use verify::{DegradeReason, HintError, HintVerdict};
// The host execution backend, re-exported so VM users reach the artifact
// type `Translator::compile_executable` hands out.
pub use veal_exec::{CompileError as ExecCompileError, ExecutableLoop, DEFAULT_LANES};
