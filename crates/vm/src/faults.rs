//! Seeded fault injection for the hint trust boundary (DESIGN.md §9).
//!
//! The hardening claim is behavioral: *no* byte-level corruption of a
//! module and *no* structural mutation of its hints may panic the VM,
//! mis-schedule a loop, or change what a correct translation computes.
//! This module supplies the two halves of that proof:
//!
//! * [`HintFuzzer`] — a deterministic ([`Rng64`]-seeded) corruption engine
//!   operating at three levels: raw bytes (transport faults: bit flips,
//!   truncation, duplication, splices), *resealed* hint payloads (semantic
//!   faults that forge the section checksum, so they pass transport
//!   integrity and must be caught by [`crate::verify`]), and decoded
//!   [`StaticHints`] structures (the mutations a hostile or stale compiler
//!   could emit: permute, truncate, duplicate, cross-loop splice,
//!   out-of-range injection);
//! * [`check_degradation`] — a differential oracle: whatever a translation
//!   under suspect hints produces must be *exactly* what the same
//!   translator produces with every rejected hint replaced by its dynamic
//!   fallback, and any surviving schedule must pass the independent
//!   checker [`veal_sched::verify_schedule`]. End-to-end execution
//!   fidelity (the [`veal_ir::interp`] golden checksums) is asserted by
//!   the integration harness in `tests/fault_injection.rs`, which owns the
//!   workload fixtures.
//!
//! The same discipline extends to warm-state persistence: [`SnapshotFuzzer`]
//! corrupts snapshot streams (transport faults, truncations, resealed
//! forgeries, cross-version and cross-fingerprint splices) and
//! [`check_restore`] is the restore-side oracle — whatever a hostile
//! snapshot smuggles past the checksums must still re-verify as valid
//! state, or the restore must have refused it.
//!
//! Every byte-format fuzzer — these two and the serving wire's
//! `WireFuzzer` in `veal-serve` — draws its corruptions from one
//! [`FuzzCore`]: transport faults, truncation, and reseal forgeries inside
//! one section of a section map.

use crate::binfmt::{reseal_section, section_ranges, SectionRange, SEC_CCA, SEC_PRIORITY};
use crate::cache::CodeCache;
use crate::hints::StaticHints;
use crate::memo::{MemoEntry, TranslationMemo};
use crate::snapshot::{restore_warm_state, snapshot_section_ranges, RestoreReport};
use crate::translator::{TranslationError, TranslationPolicy, Translator};
use crate::verify::{verify_priority, HintVerdict};
use std::ops::Range;
use veal_ir::rng::Rng64;
use veal_ir::{verify_dfg, CostMeter, LoopBody, OpId};
use veal_sched::verify_schedule;

/// How a corrupted module's loop was ultimately disposed of. Every fuzz
/// case must land in one of these — anything else (a panic, a schedule
/// differing from the dynamic fallback's) is a harness failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultVerdict {
    /// The loop translated and passed the differential and schedule
    /// checks; `degradations` hints were rejected along the way.
    Accelerated {
        /// How many hint kinds degraded to their dynamic fallback.
        degradations: u64,
    },
    /// Translation aborted (same abort the dynamic fallback produces);
    /// the loop runs on the baseline CPU.
    CpuFallback(TranslationError),
}

/// Deterministic corruption engine for encoded modules and decoded hints.
///
/// Same seed, same corruption sequence — a failing fuzz case is
/// reproducible from its (seed, case index) pair alone.
#[derive(Debug)]
pub struct HintFuzzer {
    core: FuzzCore,
}

impl HintFuzzer {
    /// Creates a fuzzer from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        HintFuzzer {
            core: FuzzCore::new(seed),
        }
    }

    /// Byte-level transport fault: returns a corrupted copy of `bytes`
    /// (see [`FuzzCore::transport_fault`]).
    pub fn corrupt_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.core.transport_fault(bytes)
    }

    /// Semantic fault that forges transport integrity: corrupts bytes
    /// inside a hint section's payload, then reseals that section's
    /// checksum so the module still *decodes*. Returns `None` when the
    /// module's framing is unwalkable or it carries no hint section.
    pub fn corrupt_hint_payload(&mut self, bytes: &[u8]) -> Option<Vec<u8>> {
        let map = section_ranges(bytes).ok()?;
        let eligible =
            |s: &SectionRange| (s.tag == SEC_PRIORITY || s.tag == SEC_CCA) && s.payload.len() > 4;
        self.core.forge(bytes, &map, eligible, |rng, out, p| {
            // Id words start past the leading count word.
            let ids = p.start + 4;
            let nwords = (p.end - ids) / 4;
            match rng.gen_range(0, 5) {
                // Id-level splice: copy one 4-byte id word over another.
                // The result stays in the decoder's accepted range, so it
                // *must* travel all the way to the semantic validator (a
                // duplicated priority entry breaks the permutation; a
                // duplicated CCA member breaks group disjointness).
                0 | 1 if nwords >= 2 => {
                    let src = ids + 4 * rng.gen_range(0, nwords);
                    let dst = ids + 4 * rng.gen_range(0, nwords);
                    out.copy_within(src..src + 4, dst);
                }
                // Byte-level faults: corrupt past the count word 75% of
                // the time so the mutation lands on ids more often than on
                // framing (both are valid targets; ids exercise the
                // decoder's range checks, counts its sub-decoders).
                m => {
                    let lo = p.start + usize::from(rng.gen_bool(0.75)) * 4;
                    let i = lo + rng.gen_range(0, p.end - lo);
                    match m {
                        0..=2 => out[i] ^= 1 << rng.gen_range(0, 8),
                        3 => out[i] = (rng.next_u64() & 0xFF) as u8,
                        _ => {
                            let end = (i + rng.gen_range(1, 5)).min(p.end);
                            out[i..end].fill(0xFF);
                        }
                    }
                }
            }
        })
    }

    /// Structural mutation of decoded hints: the faults a stale or hostile
    /// *compiler* produces. `donor` supplies foreign material for the
    /// cross-loop splice (hints that were valid — for a different loop).
    pub fn mutate_hints(
        &mut self,
        hints: &StaticHints,
        donor: Option<&StaticHints>,
    ) -> StaticHints {
        let mut out = hints.clone();
        let rng = &mut self.core.rng;
        match rng.gen_range(0, 8) {
            // Permute the priority order (stays a permutation — must pass
            // validation; the scheduler just gets a worse order).
            0 => {
                if let Some(order) = &mut out.priority {
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0, i + 1));
                    }
                }
            }
            // Truncate the priority order.
            1 => {
                if let Some(order) = &mut out.priority {
                    let keep = rng.gen_range(0, order.len().max(1));
                    order.truncate(keep);
                }
            }
            // Duplicate one priority entry over another.
            2 => {
                if let Some(order) = &mut out.priority {
                    if order.len() >= 2 {
                        let src = rng.gen_range(0, order.len());
                        let dst = rng.gen_range(0, order.len());
                        order[dst] = order[src];
                    }
                }
            }
            // Inject an out-of-range op id.
            3 => {
                if let Some(order) = &mut out.priority {
                    if !order.is_empty() {
                        let i = rng.gen_range(0, order.len());
                        order[i] = OpId::new(1000 + rng.gen_range(0, 9000));
                    }
                }
            }
            // Cross-loop splice: replace a hint kind wholesale with the
            // donor loop's.
            4 => {
                if let Some(d) = donor {
                    if rng.gen_bool(0.5) {
                        out.priority = d.priority.clone();
                    } else {
                        out.cca_groups = d.cca_groups.clone();
                    }
                }
            }
            // Duplicate a CCA group, or a member within one.
            5 => {
                if let Some(groups) = &mut out.cca_groups {
                    if !groups.is_empty() {
                        let g = rng.gen_range(0, groups.len());
                        if rng.gen_bool(0.5) {
                            let dup = groups[g].clone();
                            groups.push(dup);
                        } else if !groups[g].is_empty() {
                            let m = groups[g][rng.gen_range(0, groups[g].len())];
                            groups[g].push(m);
                        }
                    }
                }
            }
            // Corrupt a CCA member id (out of range or collided).
            6 => {
                if let Some(groups) = &mut out.cca_groups {
                    if let Some(g) = groups.iter_mut().find(|g| !g.is_empty()) {
                        let i = rng.gen_range(0, g.len());
                        g[i] = OpId::new(rng.gen_range(0, 2000));
                    }
                }
            }
            // Drop a hint kind entirely (the legacy-binary path).
            _ => {
                if rng.gen_bool(0.5) {
                    out.priority = None;
                } else {
                    out.cca_groups = None;
                }
            }
        }
        out
    }
}

/// The corruption steps every byte-format fuzzer shares, over one seeded
/// generator: transport faults anywhere in a stream, truncation, and
/// reseal forgeries inside one section of a caller-supplied section map
/// ([`section_ranges`], [`snapshot_section_ranges`], or a map of wire
/// frames built with [`crate::binfmt::read_section`]).
///
/// Same seed, same corruption sequence.
#[derive(Debug)]
pub struct FuzzCore {
    /// The generator; format fuzzers draw their own choices from it too.
    pub rng: Rng64,
}

/// Boundary values for count fields: all-ones, a sign-bit pattern for
/// `as usize`/`as i32` confusion, plausible-looking but unpayable sizes,
/// and zero.
const BOUNDARIES: [u32; 6] = [
    u32::MAX,
    u32::MAX - 1,
    0x8000_0000,
    0x0100_0000,
    0x0001_0000,
    0,
];

impl FuzzCore {
    /// Creates a core from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FuzzCore {
            rng: Rng64::new(seed),
        }
    }

    /// Returns a corrupted copy of `bytes`, one of six transport-fault
    /// modes: single-bit flip, byte overwrite, range zeroing, truncation,
    /// range duplication, or a splice of one random range over another.
    pub fn transport_fault(&mut self, bytes: &[u8]) -> Vec<u8> {
        let rng = &mut self.rng;
        let mut out = bytes.to_vec();
        if out.is_empty() {
            return out;
        }
        match rng.gen_range(0, 6) {
            0 => {
                let i = rng.gen_range(0, out.len());
                out[i] ^= 1 << rng.gen_range(0, 8);
            }
            1 => {
                let i = rng.gen_range(0, out.len());
                out[i] = (rng.next_u64() & 0xFF) as u8;
            }
            2 => {
                let start = rng.gen_range(0, out.len());
                let end = (start + rng.gen_range(1, 9)).min(out.len());
                out[start..end].fill(0);
            }
            3 => {
                out.truncate(rng.gen_range(0, out.len()));
            }
            4 => {
                let start = rng.gen_range(0, out.len());
                let end = (start + rng.gen_range(1, 17)).min(out.len());
                let dup: Vec<u8> = out[start..end].to_vec();
                out.splice(end..end, dup);
            }
            _ => {
                let a = rng.gen_range(0, out.len());
                let b = rng.gen_range(0, out.len());
                let n = rng.gen_range(1, 9).min(out.len() - a.max(b));
                let src: Vec<u8> = out[b..b + n].to_vec();
                out[a..a + n].copy_from_slice(&src);
            }
        }
        out
    }

    /// A crash mid-write or a peer hanging up: some prefix of `bytes`.
    pub fn truncate(&mut self, bytes: &[u8]) -> Vec<u8> {
        bytes[..self.rng.gen_range(0, bytes.len() + 1)].to_vec()
    }

    /// Reseal forgery: picks one section of `map` that `eligible` admits,
    /// lets `stamp` edit a copy of `bytes` (it is handed the section's
    /// payload range), and reseals that section's checksum so the damage
    /// passes transport integrity. `None` if no section is eligible.
    pub fn forge(
        &mut self,
        bytes: &[u8],
        map: &[SectionRange],
        eligible: impl Fn(&SectionRange) -> bool,
        stamp: impl FnOnce(&mut Rng64, &mut [u8], Range<usize>),
    ) -> Option<Vec<u8>> {
        let n = map.iter().filter(|s| eligible(s)).count();
        if n == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0, n);
        let target = map.iter().filter(|s| eligible(s)).nth(pick)?;
        let mut out = bytes.to_vec();
        stamp(&mut self.rng, &mut out, target.payload.clone());
        reseal_section(&mut out, target);
        Some(out)
    }

    /// A boundary value for a count field (`u32::MAX`, a sign-bit
    /// pattern, an unpayable size, zero), drawn from `rng`.
    pub fn boundary_value(rng: &mut Rng64) -> u32 {
        BOUNDARIES[rng.gen_range(0, BOUNDARIES.len())]
    }

    /// Boundary-count forgery: stamps a [`FuzzCore::boundary_value`] over a
    /// 4-byte window, starting at a multiple of `align` inside one
    /// section's payload, and reseals the checksum. A count field forged
    /// this way is vouched for by transport integrity, so only the
    /// decoder's bounds checks stand between it and an unchecked
    /// allocation. `None` if no section has room for the window.
    pub fn boundary_count(
        &mut self,
        bytes: &[u8],
        map: &[SectionRange],
        align: usize,
    ) -> Option<Vec<u8>> {
        self.forge(
            bytes,
            map,
            |s| s.payload.len() >= 4,
            |rng, out, p| {
                let value = Self::boundary_value(rng);
                let at = p.start + align * rng.gen_range(0, (p.len() - 4) / align + 1);
                out[at..at + 4].copy_from_slice(&value.to_le_bytes());
            },
        )
    }
}

/// Deterministic corruption engine for warm-state snapshots
/// ([`crate::snapshot`]). Five prongs, mirroring what disks, crashes, and
/// adversaries actually do to a checkpoint file:
///
/// * [`SnapshotFuzzer::corrupt_bytes`] — transport faults anywhere in the
///   stream (the checksums must catch these);
/// * [`SnapshotFuzzer::truncate`] — a crash mid-write (the restore must
///   salvage the intact prefix and flag the tear);
/// * [`SnapshotFuzzer::reseal_forgery`] — payload corruption with the
///   section checksum recomputed, so it *passes* transport integrity and
///   the semantic re-validators must hold the line;
/// * [`SnapshotFuzzer::splice`] — cross-version and cross-snapshot
///   surgery: a stamped-over version, or a section frame transplanted from
///   a snapshot taken under a different translator (the fingerprint gate's
///   job);
/// * [`SnapshotFuzzer::boundary_counts`] — a resealed 32-bit count/id field
///   stamped to a boundary value (`u32::MAX`, a sign-bit pattern, a huge
///   length), probing for unchecked-allocation and cast-aliasing holes in
///   the decoders.
#[derive(Debug)]
pub struct SnapshotFuzzer {
    core: FuzzCore,
}

impl SnapshotFuzzer {
    /// Creates a fuzzer from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SnapshotFuzzer {
            core: FuzzCore::new(seed),
        }
    }

    /// Arbitrary transport fault (same six modes as [`HintFuzzer`]).
    pub fn corrupt_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.core.transport_fault(bytes)
    }

    /// A crash mid-write: some prefix of the stream.
    pub fn truncate(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.core.truncate(bytes)
    }

    /// Corrupts bytes inside one section's payload, then reseals that
    /// section's checksum so the damage passes transport integrity and
    /// reaches the semantic re-validators. `None` if the framing is
    /// unwalkable or there is no non-empty section.
    pub fn reseal_forgery(&mut self, bytes: &[u8]) -> Option<Vec<u8>> {
        let map = snapshot_section_ranges(bytes).ok()?;
        self.core.forge(
            bytes,
            &map,
            |s| !s.payload.is_empty(),
            |rng, out, p| {
                for _ in 0..rng.gen_range(1, 4) {
                    let i = p.start + rng.gen_range(0, p.len());
                    match rng.gen_range(0, 3) {
                        0 => out[i] ^= 1 << rng.gen_range(0, 8),
                        1 => out[i] = (rng.next_u64() & 0xFF) as u8,
                        _ => out[i] = 0,
                    }
                }
            },
        )
    }

    /// Cross-version / cross-snapshot surgery. Half the time the version
    /// stamp is rewritten (the restore must treat the file as not-a-
    /// snapshot); otherwise a whole section frame from `donor` — a
    /// snapshot taken under a *different* translator — replaces one of
    /// ours, checksums intact, so only the fingerprint gate stands between
    /// it and the memo. `None` if either framing is unwalkable.
    pub fn splice(&mut self, bytes: &[u8], donor: &[u8]) -> Option<Vec<u8>> {
        if self.core.rng.gen_bool(0.5) {
            let mut out = bytes.to_vec();
            if out.len() < 6 {
                return None;
            }
            out[4] = out[4].wrapping_add(1 + (self.core.rng.next_u64() & 0x7F) as u8);
            return Some(out);
        }
        let ours = snapshot_section_ranges(bytes).ok()?;
        let theirs: Vec<SectionRange> = snapshot_section_ranges(donor)
            .ok()?
            .into_iter()
            .filter(|s| !s.payload.is_empty())
            .collect();
        if ours.is_empty() || theirs.is_empty() {
            return None;
        }
        let dst = &ours[self.core.rng.gen_range(0, ours.len())];
        let src = &theirs[self.core.rng.gen_range(0, theirs.len())];
        let mut out = Vec::with_capacity(bytes.len());
        out.extend_from_slice(&bytes[..dst.frame.start]);
        out.extend_from_slice(&donor[src.frame.clone()]);
        out.extend_from_slice(&bytes[dst.frame.end..]);
        Some(out)
    }

    /// Stamps a boundary value over an aligned 4-byte window inside one
    /// section's payload and reseals the checksum. Counts and ids in the
    /// snapshot codec are 32-bit little-endian words, so word-aligned
    /// stamps reliably land on one and forge `u32::MAX`-element graphs,
    /// sign-bit op ids, and megabyte string lengths that transport
    /// integrity will vouch for (see [`FuzzCore::boundary_count`]). `None`
    /// if the framing is unwalkable or no section has room for a window.
    pub fn boundary_counts(&mut self, bytes: &[u8]) -> Option<Vec<u8>> {
        let map = snapshot_section_ranges(bytes).ok()?;
        self.core.boundary_count(bytes, &map, 4)
    }
}

/// Differential oracle for one corrupted-snapshot fuzz case: restores
/// `bytes` into fresh stores and audits **everything** that got through.
/// Every restored point/cache translation must re-pass [`verify_dfg`] and
/// [`verify_schedule`] with zero defects and carry accounting recomputed
/// from its own structure; every restored family body must re-pass
/// [`verify_dfg`] and [`verify_priority`]; every entry must sit behind the
/// right fingerprint gate. The restore path already enforces all of this —
/// the oracle re-derives it independently so a regression cannot hide.
///
/// # Errors
///
/// A human-readable description of the first accepted forgery — any `Err`
/// is a hole in the snapshot trust boundary, and fuzz harnesses treat it
/// as fatal.
pub fn check_restore(
    bytes: &[u8],
    t: &Translator,
    family_fp: Option<u64>,
) -> Result<RestoreReport, String> {
    let memo = TranslationMemo::new();
    let mut cache = CodeCache::with_byte_budget(16, 48 * 1024);
    let report = restore_warm_state(bytes, t, family_fp, Some(&memo), Some(&mut cache));

    let audit_translated = |tl: &crate::translator::TranslatedLoop| -> Result<(), String> {
        verify_dfg(&tl.dfg).map_err(|e| format!("restored graph fails verify_dfg: {e:?}"))?;
        let defects = verify_schedule(&tl.dfg, &tl.scheduled.schedule, t.config());
        if !defects.is_empty() {
            return Err(format!("restored schedule has defects: {defects:?}"));
        }
        if tl.control_words != tl.scheduled.schedule.control_words(t.config()) {
            return Err("restored control_words not recomputed from schedule".into());
        }
        if tl.accel_ops != tl.dfg.schedulable_ops().count() {
            return Err("restored accel_ops not recomputed from graph".into());
        }
        Ok(())
    };

    for (key, entry) in memo.export_entries() {
        match entry {
            MemoEntry::Point(m) => {
                if key.translator_fp != t.fingerprint() {
                    return Err("point entry breached the translator fingerprint gate".into());
                }
                if let Ok(tl) = &m.result {
                    audit_translated(tl)?;
                }
            }
            MemoEntry::Family(f) => {
                if key.translator_fp != family_fp.unwrap_or(0) {
                    return Err("family entry breached the family fingerprint gate".into());
                }
                if let Ok(b) = &f.body {
                    verify_dfg(&b.dfg)
                        .map_err(|e| format!("restored family graph fails verify_dfg: {e:?}"))?;
                    if let Some(order) = &b.static_order {
                        verify_priority(&b.dfg, order, &mut CostMeter::new())
                            .map_err(|e| format!("restored static order invalid: {e}"))?;
                    }
                }
            }
        }
    }
    let mut cached_bytes = 0;
    for (_, tl, charged) in cache.export_entries() {
        audit_translated(tl)?;
        if charged != tl.control_words * 4 {
            return Err("restored cache entry charged bytes it does not occupy".into());
        }
        cached_bytes += charged;
    }
    if cached_bytes > 48 * 1024 {
        return Err(format!("cache budget overcommitted: {cached_bytes} bytes"));
    }
    Ok(report)
}

/// The reference translation a degraded one must match: same translator,
/// with each *rejected* hint kind replaced by its dynamic fallback (CCA
/// re-identification, dynamic priority) and each accepted hint kept.
fn reference_translator(t: &Translator, verdict: &HintVerdict) -> Translator {
    let mut policy = t.policy();
    if matches!(verdict.cca, Some(Err(_))) {
        policy.static_cca = false;
    }
    if matches!(verdict.priority, Some(Err(_))) {
        policy.static_priority = false;
    }
    Translator::new(t.config().clone(), t.cca().cloned(), policy)
}

/// Differential oracle for one `(body, hints)` fuzz case.
///
/// Translates under the suspect hints, then re-translates with every
/// rejected hint step switched to its dynamic fallback, and demands the
/// two agree exactly: same abort, or same II / op times / unit
/// assignments / CCA group count. A surviving schedule must additionally
/// pass the independent constraint checker. When *both* hint kinds
/// degrade, the reference is precisely the fully-dynamic policy — the
/// paper's compatibility baseline.
///
/// # Errors
///
/// A human-readable description of the first divergence — any `Err` is a
/// bug in the trust boundary, and fuzz harnesses treat it as fatal.
pub fn check_degradation(
    t: &Translator,
    body: &LoopBody,
    hints: &StaticHints,
) -> Result<FaultVerdict, String> {
    let out = t.translate(body, hints);
    if !out.verdict.is_degraded() {
        // Nothing was rejected: either the hints validated (mutations like
        // a pure permutation are *supposed* to pass) or none were
        // consumed. The schedule check below still applies.
        return match out.result {
            Ok(tl) => {
                let defects = verify_schedule(&tl.dfg, &tl.scheduled.schedule, t.config());
                if defects.is_empty() {
                    Ok(FaultVerdict::Accelerated { degradations: 0 })
                } else {
                    Err(format!("accepted-hint schedule has defects: {defects:?}"))
                }
            }
            Err(e) => Ok(FaultVerdict::CpuFallback(e)),
        };
    }

    let degradations = out.verdict.degradations().len() as u64;
    let reference = reference_translator(t, &out.verdict);
    let ref_out = reference.translate(body, hints);
    match (out.result, ref_out.result) {
        (Err(a), Err(b)) => {
            if a == b {
                Ok(FaultVerdict::CpuFallback(a))
            } else {
                Err(format!("degraded abort {a:?} != dynamic abort {b:?}"))
            }
        }
        (Ok(a), Ok(b)) => {
            if a.scheduled.schedule.ii != b.scheduled.schedule.ii {
                return Err(format!(
                    "degraded II {} != dynamic II {}",
                    a.scheduled.schedule.ii, b.scheduled.schedule.ii
                ));
            }
            if a.scheduled.schedule.entries() != b.scheduled.schedule.entries() {
                return Err("degraded op times differ from dynamic fallback".into());
            }
            if a.cca_groups != b.cca_groups {
                return Err(format!(
                    "degraded CCA groups {} != dynamic {}",
                    a.cca_groups, b.cca_groups
                ));
            }
            let defects = verify_schedule(&a.dfg, &a.scheduled.schedule, t.config());
            if !defects.is_empty() {
                return Err(format!("degraded schedule has defects: {defects:?}"));
            }
            Ok(FaultVerdict::Accelerated { degradations })
        }
        (a, b) => Err(format!(
            "degraded result {:?} disagrees with dynamic fallback {:?}",
            a.map(|t| t.scheduled.schedule.ii),
            b.map(|t| t.scheduled.schedule.ii),
        )),
    }
}

/// Convenience: the translator most exposed to hints (static CCA and
/// priority, paper CCA) — what the fuzz harness drives by default.
#[must_use]
pub fn exposed_translator() -> Translator {
    Translator::new(
        veal_accel::AcceleratorConfig::paper_design(),
        Some(veal_cca::CcaSpec::paper()),
        TranslationPolicy::static_hints(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::{decode_module, encode_module, BinaryModule, EncodedLoop};
    use crate::hints::compute_hints;
    use veal_ir::{DfgBuilder, Opcode};

    fn media_loop(name: &str) -> LoopBody {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let k = b.live_in();
        let m = b.op(Opcode::Mul, &[x, k]);
        let a = b.op(Opcode::And, &[m, k]);
        let s = b.op(Opcode::Sub, &[a, x]);
        let o = b.op(Opcode::Xor, &[s, a]);
        b.store_stream(1, o);
        LoopBody::new(name, b.finish())
    }

    fn hinted_bytes() -> Vec<u8> {
        let body = media_loop("m");
        let hints = compute_hints(
            &body,
            &veal_accel::AcceleratorConfig::paper_design(),
            Some(&veal_cca::CcaSpec::paper()),
        );
        encode_module(&BinaryModule {
            loops: vec![EncodedLoop {
                priority_hint: hints.priority,
                cca_hint: hints.cca_groups,
                family_hint: None,
                body,
            }],
        })
    }

    #[test]
    fn fuzzer_is_deterministic() {
        let bytes = hinted_bytes();
        let a: Vec<Vec<u8>> = {
            let mut f = HintFuzzer::new(42);
            (0..16).map(|_| f.corrupt_bytes(&bytes)).collect()
        };
        let b: Vec<Vec<u8>> = {
            let mut f = HintFuzzer::new(42);
            (0..16).map(|_| f.corrupt_bytes(&bytes)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().any(|c| c != &bytes), "some corruption happened");
    }

    #[test]
    fn resealed_corruptions_decode() {
        let bytes = hinted_bytes();
        let mut f = HintFuzzer::new(7);
        let mut decoded = 0;
        for _ in 0..64 {
            if let Some(forged) = f.corrupt_hint_payload(&bytes) {
                // Transport accepts a resealed module unless the mutation
                // hit framing inside the payload (counts, lengths).
                if decode_module(&forged).is_ok() {
                    decoded += 1;
                }
            }
        }
        assert!(decoded > 0, "some forged modules must reach the validator");
    }

    #[test]
    fn oracle_accepts_valid_hints_and_rejects_nothing() {
        let body = media_loop("m");
        let t = exposed_translator();
        let hints = compute_hints(&body, t.config(), t.cca());
        let v = check_degradation(&t, &body, &hints).expect("oracle holds");
        assert_eq!(v, FaultVerdict::Accelerated { degradations: 0 });
    }

    #[test]
    fn oracle_matches_dynamic_fallback_for_mutated_hints() {
        let body = media_loop("m");
        let donor_body = media_loop("d");
        let t = exposed_translator();
        let hints = compute_hints(&body, t.config(), t.cca());
        let donor = compute_hints(&donor_body, t.config(), t.cca());
        let mut f = HintFuzzer::new(3);
        for i in 0..200 {
            let mutated = f.mutate_hints(&hints, Some(&donor));
            check_degradation(&t, &body, &mutated).unwrap_or_else(|e| panic!("case {i}: {e}"));
        }
    }

    fn warm_snapshot(t: &Translator) -> Vec<u8> {
        let memo = TranslationMemo::new();
        let mut cache = CodeCache::new(16);
        let body = media_loop("snap");
        let hints = StaticHints::none();
        let out = t.translate(&body, &hints);
        let key = crate::memo::MemoKey {
            loop_hash: body.dfg.content_hash(),
            translator_fp: t.fingerprint(),
            hints_fp: hints.fingerprint(),
        };
        if let Ok(tl) = &out.result {
            let arc = std::sync::Arc::new(tl.clone());
            let bytes = arc.control_words * 4;
            cache.insert_sized(key.loop_hash, arc, bytes);
        }
        memo.insert(
            key,
            MemoEntry::Point(crate::memo::MemoizedOutcome {
                result: out.result.map(std::sync::Arc::new),
                breakdown: out.breakdown,
                verdict: out.verdict,
            }),
        );
        crate::snapshot::encode_warm_state(
            t.fingerprint(),
            None,
            &memo.export_entries(),
            &cache.export_entries(),
        )
        .expect("warm state encodes")
    }

    #[test]
    fn snapshot_fuzzer_is_deterministic() {
        let t = exposed_translator();
        let bytes = warm_snapshot(&t);
        let run = |seed| -> Vec<Vec<u8>> {
            let mut f = SnapshotFuzzer::new(seed);
            (0..16)
                .flat_map(|_| {
                    [
                        f.corrupt_bytes(&bytes),
                        f.truncate(&bytes),
                        f.reseal_forgery(&bytes).unwrap_or_default(),
                        f.boundary_counts(&bytes).unwrap_or_default(),
                    ]
                })
                .collect()
        };
        assert_eq!(run(11), run(11));
        assert!(run(11).iter().any(|c| c != &bytes));
    }

    #[test]
    fn restore_oracle_holds_under_every_prong() {
        let t = exposed_translator();
        let stale = Translator::new(
            t.config().clone(),
            t.cca().cloned(),
            TranslationPolicy::fully_dynamic(),
        );
        let bytes = warm_snapshot(&t);
        let donor = warm_snapshot(&stale);
        let mut f = SnapshotFuzzer::new(5);
        for i in 0..64 {
            for corrupted in [
                Some(f.corrupt_bytes(&bytes)),
                Some(f.truncate(&bytes)),
                f.reseal_forgery(&bytes),
                f.splice(&bytes, &donor),
                f.boundary_counts(&bytes),
            ]
            .into_iter()
            .flatten()
            {
                check_restore(&corrupted, &t, None).unwrap_or_else(|e| panic!("case {i}: {e}"));
            }
        }
    }

    #[test]
    fn spliced_stale_sections_are_rejected_by_the_fingerprint_gate() {
        let t = exposed_translator();
        let stale = Translator::new(
            t.config().clone(),
            t.cca().cloned(),
            TranslationPolicy::fully_dynamic(),
        );
        assert_ne!(t.fingerprint(), stale.fingerprint());
        // A donor snapshot restored wholesale under the wrong translator:
        // every entry is stale, none may land.
        let donor = warm_snapshot(&stale);
        let report = check_restore(&donor, &t, None).expect("oracle holds");
        assert!(report.is_cold());
        assert_eq!(report.rejected, 2, "point + cache entry, both stale");
    }
}
