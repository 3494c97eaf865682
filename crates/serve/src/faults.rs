//! Seeded fault injection for the serving wire (DESIGN.md §15).
//!
//! The wire decoder is the one byte format network peers can reach.
//! [`WireFuzzer`] corrupts encoded frame streams with the same
//! [`FuzzCore`] the module and snapshot fuzzers use (`veal_vm::faults`),
//! and [`check_frame_stream`] feeds each case to [`decode_frame`] the way
//! the reactor reads a connection, checking the decoder's promises on
//! every call.

use crate::wire::{decode_frame, encode_frame, FrameStatus, WireFrame, FRAME_HEADER_LEN};
use veal_vm::faults::FuzzCore;
use veal_vm::{read_section, SectionRange, SectionRead};

/// One fuzz case: the bytes a peer sends, and where its writes end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCase {
    /// The bytes, in order.
    pub bytes: Vec<u8>,
    /// Ascending offsets into `bytes` at which one write ends and the next
    /// begins; empty when the bytes arrive in one write.
    pub cuts: Vec<usize>,
    /// Whether a frame checksum was recomputed over forged bytes.
    pub resealed: bool,
}

impl WireCase {
    fn whole(bytes: Vec<u8>, resealed: bool) -> Self {
        WireCase {
            bytes,
            cuts: Vec::new(),
            resealed,
        }
    }
}

/// Deterministic corruption engine for wire frame streams. Four prongs:
///
/// * [`WireFuzzer::corrupt_bytes`] — transport faults anywhere in the
///   stream ([`FuzzCore::transport_fault`]);
/// * [`WireFuzzer::split`] — a peer that hangs up mid-stream, or a stream
///   that arrives in two writes cut at a random byte;
/// * [`WireFuzzer::reseal_forgery`] — bytes inside one frame's payload
///   corrupted and the checksum recomputed, so the damage reaches the
///   payload parser;
/// * [`WireFuzzer::boundary_counts`] — a boundary value stamped over one
///   frame's length field, or over a payload window and resealed.
///
/// Same seed, same cases.
#[derive(Debug)]
pub struct WireFuzzer {
    core: FuzzCore,
}

impl WireFuzzer {
    /// Creates a fuzzer from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WireFuzzer {
            core: FuzzCore::new(seed),
        }
    }

    /// A clean stream of one to `max_frames` frames drawn from `pool`.
    pub fn stream(&mut self, pool: &[WireFrame], max_frames: usize) -> Vec<u8> {
        let rng = &mut self.core.rng;
        let n = rng.gen_range(1, max_frames.max(1) + 1);
        (0..n)
            .flat_map(|_| encode_frame(&pool[rng.gen_range(0, pool.len())]))
            .collect()
    }

    /// Transport fault: bit flip, byte overwrite, zeroing, truncation,
    /// duplication, or splice.
    pub fn corrupt_bytes(&mut self, stream: &[u8]) -> WireCase {
        WireCase::whole(self.core.transport_fault(stream), false)
    }

    /// Half the time a prefix of the stream (the peer hangs up), otherwise
    /// the whole stream in two writes cut at a random byte.
    pub fn split(&mut self, stream: &[u8]) -> WireCase {
        if self.core.rng.gen_bool(0.5) {
            return WireCase::whole(self.core.truncate(stream), false);
        }
        WireCase {
            bytes: stream.to_vec(),
            cuts: vec![self.core.rng.gen_range(0, stream.len() + 1)],
            resealed: false,
        }
    }

    /// One to three bytes of one frame's payload corrupted, then the
    /// frame resealed. `None` if no frame has a payload.
    pub fn reseal_forgery(&mut self, stream: &[u8]) -> Option<WireCase> {
        let map = frame_map(stream);
        let forged = self.core.forge(
            stream,
            &map,
            |s| !s.payload.is_empty(),
            |rng, out, p| {
                for _ in 0..rng.gen_range(1, 4) {
                    let i = p.start + rng.gen_range(0, p.len());
                    out[i] ^= 1 << rng.gen_range(0, 8);
                }
            },
        )?;
        Some(WireCase::whole(forged, true))
    }

    /// Half the time a boundary value (`u32::MAX`, a sign-bit pattern, an
    /// unpayable size, zero) over one frame's length field — not covered by
    /// the checksum, so nothing is resealed; otherwise over any 4-byte
    /// window of one frame's payload (string lengths sit at odd offsets),
    /// resealed. `None` if the stream has no frame to stamp.
    pub fn boundary_counts(&mut self, stream: &[u8]) -> Option<WireCase> {
        let map = frame_map(stream);
        if self.core.rng.gen_bool(0.5) {
            let rng = &mut self.core.rng;
            let at = map.get(rng.gen_range(0, map.len().max(1)))?.frame.start + 1;
            let mut bytes = stream.to_vec();
            bytes[at..at + 4].copy_from_slice(&FuzzCore::boundary_value(rng).to_le_bytes());
            return Some(WireCase::whole(bytes, false));
        }
        let stamped = self.core.boundary_count(stream, &map, 1)?;
        Some(WireCase::whole(stamped, true))
    }
}

/// The intact frames at the head of `stream`, in order, as the section
/// reader locates them.
#[must_use]
pub fn frame_map(stream: &[u8]) -> Vec<SectionRange> {
    let mut map: Vec<SectionRange> = Vec::new();
    let next = |map: &[SectionRange]| map.last().map_or(0, |s| s.frame.end);
    while let SectionRead::Ok(s) = read_section(stream, next(&map), usize::MAX) {
        map.push(s);
    }
    map
}

/// What one fuzz case did to the decoder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Frames decoded.
    pub frames: u64,
    /// Frames rejected (skipped, connection kept).
    pub rejects: u64,
    /// The stream ended in a `Fatal` (connection closed).
    pub fatal: bool,
    /// Bytes left undecoded when the stream ended without a `Fatal`.
    pub pending: usize,
}

/// Feeds `case` to [`decode_frame`] the way the reactor reads a
/// connection: each write is appended to one buffer, the frames at its
/// head are decoded until `Incomplete`, the consumed prefix is drained,
/// and the first `Fatal` closes the stream. `clean` is the stream the case
/// was made from. On every call it checks that:
///
/// * `consumed` covers at least a header and never exceeds the buffer;
/// * `Incomplete` comes only while the head frame is really partial;
/// * a `Fatal` comes only from a length field over `cap`;
/// * a decoded frame re-encodes to exactly the bytes it consumed, and,
///   unless the case was resealed, carries the payload of one of the
///   clean frames — corrupted bytes never pass the checksum.
///
/// A panic in the decoder propagates to the caller.
///
/// # Errors
///
/// A description of the first broken promise.
pub fn check_frame_stream(
    case: &WireCase,
    clean: &[u8],
    cap: usize,
) -> Result<StreamReport, String> {
    let clean_payloads: Vec<&[u8]> = frame_map(clean)
        .into_iter()
        .map(|s| &clean[s.payload])
        .collect();
    let mut report = StreamReport::default();
    let mut buf = Vec::new();
    let mut start = 0;
    for end in case.cuts.iter().copied().chain([case.bytes.len()]) {
        buf.extend_from_slice(&case.bytes[start..end]);
        start = end;
        let mut at = 0;
        loop {
            let head = &buf[at..];
            let claimed = head
                .get(1..5)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize);
            let (consumed, frame) = match decode_frame(head, cap) {
                FrameStatus::Incomplete => {
                    let whole = |len| len <= cap && head.len() >= FRAME_HEADER_LEN + len;
                    if claimed.is_some_and(whole) {
                        return Err(format!("Incomplete on a complete frame at {at}"));
                    }
                    break;
                }
                FrameStatus::Fatal { reason } => {
                    if claimed.is_none_or(|len| len <= cap) {
                        return Err(format!("Fatal without an over-cap length: {reason}"));
                    }
                    report.fatal = true;
                    return Ok(report);
                }
                FrameStatus::Reject { consumed, .. } => {
                    report.rejects += 1;
                    (consumed, None)
                }
                FrameStatus::Frame { frame, consumed } => (consumed, Some(frame)),
            };
            if consumed < FRAME_HEADER_LEN || consumed > head.len() {
                return Err(format!(
                    "consumed {consumed} of a {}-byte buffer",
                    head.len()
                ));
            }
            if let Some(frame) = frame {
                if encode_frame(&frame) != head[..consumed] {
                    return Err(format!("{frame:?} does not re-encode to its bytes"));
                }
                let payload = &head[FRAME_HEADER_LEN..consumed];
                if !case.resealed && !clean_payloads.contains(&payload) {
                    return Err(format!("corrupted {frame:?} passed its checksum"));
                }
                report.frames += 1;
            }
            at += consumed;
        }
        buf.drain(..at);
    }
    report.pending = buf.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ErrorCode, MAX_FRAME_LEN, WIRE_VERSION};

    fn pool() -> Vec<WireFrame> {
        vec![
            WireFrame::Hello {
                version: WIRE_VERSION,
                tenant: 1,
                family_fp: Some(9),
            },
            WireFrame::ReqHash {
                seq: 1,
                key: 2,
                loop_hash: 3,
                hints_fp: 4,
            },
            WireFrame::Error {
                seq: 5,
                code: ErrorCode::Shed,
                message: "queue full".into(),
            },
            WireFrame::Bye,
        ]
    }

    #[test]
    fn fuzzer_is_deterministic() {
        let run = |seed| {
            let mut f = WireFuzzer::new(seed);
            (0..32)
                .map(|_| {
                    let s = f.stream(&pool(), 4);
                    (
                        f.corrupt_bytes(&s),
                        f.split(&s),
                        f.reseal_forgery(&s),
                        f.boundary_counts(&s),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn a_clean_stream_decodes_whole_in_any_split() {
        let mut f = WireFuzzer::new(1);
        let s = f.stream(&pool(), 4);
        let n = frame_map(&s).len() as u64;
        for cut in 0..=s.len() {
            let case = WireCase {
                bytes: s.clone(),
                cuts: vec![cut],
                resealed: false,
            };
            let report = check_frame_stream(&case, &s, MAX_FRAME_LEN).expect("promises hold");
            assert_eq!(report.frames, n);
            assert_eq!(
                (report.rejects, report.fatal, report.pending),
                (0, false, 0)
            );
        }
    }

    #[test]
    fn the_oracle_catches_a_forgery_it_was_not_told_about() {
        // Every bit of a ReqHash payload is a fixed-width field, so any
        // forgery of it parses: the checksum alone must have stopped it.
        let clean = encode_frame(&pool()[1]);
        for seed in 0..16 {
            let mut forged = WireFuzzer::new(seed)
                .reseal_forgery(&clean)
                .expect("frame has a payload");
            let told = check_frame_stream(&forged, &clean, MAX_FRAME_LEN).expect("resealed");
            assert_eq!(told.frames, 1);
            forged.resealed = false;
            let untold = check_frame_stream(&forged, &clean, MAX_FRAME_LEN);
            assert_eq!(untold.is_err(), forged.bytes != clean, "seed {seed}");
        }
    }
}
