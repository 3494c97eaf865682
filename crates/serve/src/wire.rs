//! The serving wire protocol (DESIGN.md §15).
//!
//! A frame is one binfmt section frame, written by
//! `veal_vm::Writer::section` and read by `veal_vm::binfmt::read_section`
//! — the reader modules and snapshots use too — so a network capture, a
//! module file, and a snapshot all read with the same tools. There is no
//! stream-level handshake magic; the first frame on a connection must be
//! [`WireFrame::Hello`], which carries the protocol version.
//!
//! # Trust model
//!
//! Everything that arrives on a socket is **untrusted**, exactly like a
//! module file or a snapshot (DESIGN.md §9). [`decode_frame`] maps the
//! section reader's verdict to one of three severities:
//!
//! * [`FrameStatus::Incomplete`] — more bytes may still arrive; keep
//!   reading.
//! * [`FrameStatus::Reject`] — this frame is bad (checksum mismatch,
//!   unknown tag, malformed payload) but its length field framed it, so
//!   the stream resynchronizes at the next frame boundary. The connection
//!   survives; the reject is counted.
//! * [`FrameStatus::Fatal`] — the stream cannot be resynchronized (a
//!   length claim past the frame cap); the connection must close.
//!
//! A request's *module payload* is a further trust layer: the reactor
//! hands it to `veal_vm::decode_module`, which runs the full module
//! verification gauntlet (DESIGN.md §9) before any graph reaches a
//! session. Response payloads get the symmetric treatment client-side via
//! `veal_vm::decode_translated_loop`. `crate::faults::WireFuzzer` fuzzes
//! this decoder.

use veal_vm::binfmt::{read_section, SectionRead, SECTION_HEADER_LEN};
use veal_vm::{Reader, Writer};

/// Wire protocol version, carried in every [`WireFrame::Hello`].
pub const WIRE_VERSION: u16 = 1;

/// Default per-frame length cap. A length claim past the cap is
/// unresynchronizable ([`FrameStatus::Fatal`]): the claimed payload may
/// never arrive, and skipping it would desynchronize honest streams.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Frame header bytes: the binfmt section header.
pub const FRAME_HEADER_LEN: usize = SECTION_HEADER_LEN;

/// Connection handshake (client → server, first frame).
pub const FRAME_HELLO: u8 = 1;
/// Translation request carrying a packed single-loop module.
pub const FRAME_REQ_MODULE: u8 = 2;
/// Translation request carrying only a loop hash (memo-hit fast path).
pub const FRAME_REQ_HASH: u8 = 3;
/// Graceful-shutdown request (client → server).
pub const FRAME_SHUTDOWN: u8 = 4;
/// Completed translation (server → client).
pub const FRAME_OUTCOME: u8 = 5;
/// Typed per-request or per-connection error (server → client).
pub const FRAME_ERROR: u8 = 6;
/// Shutdown acknowledgment after the final checkpoint (server → client).
pub const FRAME_BYE: u8 = 7;

/// Typed error codes carried by [`WireFrame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame decoded but its module payload failed
    /// verification.
    Malformed,
    /// A [`WireFrame::ReqHash`] named a loop this server has no body for;
    /// the client must resend as [`WireFrame::ReqModule`].
    NeedBody,
    /// Admission control shed the request (queue over bound).
    Shed,
    /// The connection's hello was invalid (bad version, or not first).
    BadHello,
    /// The hello named a family fingerprint this server is not serving.
    FamilyMismatch,
    /// The server is at its connection cap.
    Overloaded,
}

impl ErrorCode {
    /// Wire byte of the code.
    #[must_use]
    pub fn encode(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0,
            ErrorCode::NeedBody => 1,
            ErrorCode::Shed => 2,
            ErrorCode::BadHello => 3,
            ErrorCode::FamilyMismatch => 4,
            ErrorCode::Overloaded => 5,
        }
    }

    fn decode(b: u8) -> Option<Self> {
        Some(match b {
            0 => ErrorCode::Malformed,
            1 => ErrorCode::NeedBody,
            2 => ErrorCode::Shed,
            3 => ErrorCode::BadHello,
            4 => ErrorCode::FamilyMismatch,
            5 => ErrorCode::Overloaded,
            _ => return None,
        })
    }
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFrame {
    /// First frame on a connection: protocol version, the client's tenant
    /// id, and the family fingerprint its hints were computed under
    /// (`None` for point-tuned clients).
    Hello {
        /// Protocol version ([`WIRE_VERSION`]).
        version: u16,
        /// Dense tenant index the connection serves.
        tenant: u32,
        /// Family fingerprint of the client's hints, if any.
        family_fp: Option<u64>,
    },
    /// A translation request carrying the loop as a packed single-loop
    /// binary module (hints ride in the module's own hint sections). The
    /// module bytes are opaque at this layer — the consumer must pass them
    /// through `veal_vm::decode_module`, the untrusted-bytes gauntlet.
    ReqModule {
        /// Client-chosen sequence number, echoed in the response.
        seq: u32,
        /// The tenant's invocation key for the loop.
        key: u64,
        /// Packed module bytes (unverified).
        module: Vec<u8>,
    },
    /// A body-less request naming a loop by content hash: the memo-hit
    /// fast path. Only valid when this server has already decoded the same
    /// `(loop_hash, hints_fp)` body on some connection; otherwise it earns
    /// [`ErrorCode::NeedBody`] and the client falls back to
    /// [`WireFrame::ReqModule`].
    ReqHash {
        /// Client-chosen sequence number, echoed in the response.
        seq: u32,
        /// The tenant's invocation key for the loop.
        key: u64,
        /// `LoopBody::content_hash` of the loop.
        loop_hash: u64,
        /// `StaticHints::fingerprint` of the hints to apply.
        hints_fp: u64,
    },
    /// Ask the server to drain, checkpoint, and exit its accept loop.
    Shutdown,
    /// A completed request. `translated` holds the schedule in the
    /// snapshot's full-fidelity codec (`veal_vm::encode_translated_loop`)
    /// when the loop mapped; `None` means the loop runs on the CPU.
    Outcome {
        /// The request's sequence number.
        seq: u32,
        /// The request's invocation key.
        key: u64,
        /// Simulated translation cycles charged (0 on a cache hit).
        translation_cycles: u64,
        /// Encoded `TranslatedLoop`, when the loop mapped.
        translated: Option<Vec<u8>>,
    },
    /// A typed error. `seq` is the offending request's sequence number, or
    /// `u32::MAX` for connection-level errors (bad hello, overload).
    Error {
        /// Offending request, or `u32::MAX`.
        seq: u32,
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail (validator verdicts, &c.).
        message: String,
    },
    /// Shutdown acknowledgment: the final checkpoint (if a policy is
    /// attached) has been written.
    Bye,
}

impl WireFrame {
    /// The frame's wire tag.
    #[must_use]
    pub fn tag(&self) -> u8 {
        match self {
            WireFrame::Hello { .. } => FRAME_HELLO,
            WireFrame::ReqModule { .. } => FRAME_REQ_MODULE,
            WireFrame::ReqHash { .. } => FRAME_REQ_HASH,
            WireFrame::Shutdown => FRAME_SHUTDOWN,
            WireFrame::Outcome { .. } => FRAME_OUTCOME,
            WireFrame::Error { .. } => FRAME_ERROR,
            WireFrame::Bye => FRAME_BYE,
        }
    }
}

/// Serializes one frame as a binfmt section frame.
#[must_use]
pub fn encode_frame(frame: &WireFrame) -> Vec<u8> {
    let mut p = Writer::new();
    match frame {
        WireFrame::Hello {
            version,
            tenant,
            family_fp,
        } => {
            p.u16(*version);
            p.u32(*tenant);
            match family_fp {
                None => p.u8(0),
                Some(fp) => {
                    p.u8(1);
                    p.u64(*fp);
                }
            }
        }
        WireFrame::ReqModule { seq, key, module } => {
            p.u32(*seq);
            p.u64(*key);
            p.bytes(module);
        }
        WireFrame::ReqHash {
            seq,
            key,
            loop_hash,
            hints_fp,
        } => {
            p.u32(*seq);
            p.u64(*key);
            p.u64(*loop_hash);
            p.u64(*hints_fp);
        }
        WireFrame::Shutdown | WireFrame::Bye => {}
        WireFrame::Outcome {
            seq,
            key,
            translation_cycles,
            translated,
        } => {
            p.u32(*seq);
            p.u64(*key);
            p.u64(*translation_cycles);
            match translated {
                None => p.u8(0),
                Some(bytes) => {
                    p.u8(1);
                    p.bytes(bytes);
                }
            }
        }
        WireFrame::Error { seq, code, message } => {
            p.u32(*seq);
            p.u8(code.encode());
            p.str(message);
        }
    }
    let mut w = Writer::new();
    w.section(frame.tag(), p.as_bytes());
    w.into_bytes()
}

/// What [`decode_frame`] found at the head of a connection's read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStatus {
    /// A complete, checksum-valid, well-formed frame; consume `consumed`
    /// bytes from the buffer.
    Frame {
        /// The decoded frame.
        frame: WireFrame,
        /// Bytes the frame occupied.
        consumed: usize,
    },
    /// The buffer holds only part of a frame; read more bytes.
    Incomplete,
    /// The frame is bad, but its length field framed it: skip `consumed`
    /// bytes, count the reject, keep the connection.
    Reject {
        /// Why the frame was rejected.
        reason: String,
        /// Bytes to skip to reach the next frame boundary.
        consumed: usize,
    },
    /// The stream cannot be resynchronized; close the connection.
    Fatal {
        /// Why the stream is unrecoverable.
        reason: String,
    },
}

/// Decodes the frame at the head of `buf`, if one is complete.
///
/// Never panics and never trusts a length: the payload length is checked
/// against `max_frame_len` *before* waiting for (or allocating) that many
/// bytes, the checksum is verified before the payload is parsed, and every
/// parse failure is a per-frame [`FrameStatus::Reject`] that leaves the
/// stream aligned on the next frame.
#[must_use]
pub fn decode_frame(buf: &[u8], max_frame_len: usize) -> FrameStatus {
    match read_section(buf, 0, max_frame_len) {
        SectionRead::Short => FrameStatus::Incomplete,
        SectionRead::OverCap { len, .. } => FrameStatus::Fatal {
            reason: format!("frame length {len} exceeds cap {max_frame_len}"),
        },
        SectionRead::BadChecksum(s) => FrameStatus::Reject {
            reason: format!("frame {:#x} payload fails its checksum", s.tag),
            consumed: s.frame.end,
        },
        SectionRead::Ok(s) => match parse_payload(s.tag, &buf[s.payload]) {
            Ok(frame) => FrameStatus::Frame {
                frame,
                consumed: s.frame.end,
            },
            Err(reason) => FrameStatus::Reject {
                reason,
                consumed: s.frame.end,
            },
        },
    }
}

/// Parses one checksum-verified payload. Any error is a per-frame reject.
fn parse_payload(tag: u8, payload: &[u8]) -> Result<WireFrame, String> {
    let mut r = Reader::new(payload);
    let frame = match tag {
        FRAME_HELLO => {
            let version = r.u16().map_err(|e| e.to_string())?;
            let tenant = r.u32().map_err(|e| e.to_string())?;
            let family_fp = match r.u8().map_err(|e| e.to_string())? {
                0 => None,
                1 => Some(r.u64().map_err(|e| e.to_string())?),
                b => return Err(format!("bad family flag {b:#x}")),
            };
            WireFrame::Hello {
                version,
                tenant,
                family_fp,
            }
        }
        FRAME_REQ_MODULE => {
            let seq = r.u32().map_err(|e| e.to_string())?;
            let key = r.u64().map_err(|e| e.to_string())?;
            let module = r.take(r.remaining()).map_err(|e| e.to_string())?.to_vec();
            WireFrame::ReqModule { seq, key, module }
        }
        FRAME_REQ_HASH => WireFrame::ReqHash {
            seq: r.u32().map_err(|e| e.to_string())?,
            key: r.u64().map_err(|e| e.to_string())?,
            loop_hash: r.u64().map_err(|e| e.to_string())?,
            hints_fp: r.u64().map_err(|e| e.to_string())?,
        },
        FRAME_SHUTDOWN => WireFrame::Shutdown,
        FRAME_BYE => WireFrame::Bye,
        FRAME_OUTCOME => {
            let seq = r.u32().map_err(|e| e.to_string())?;
            let key = r.u64().map_err(|e| e.to_string())?;
            let translation_cycles = r.u64().map_err(|e| e.to_string())?;
            let translated = match r.u8().map_err(|e| e.to_string())? {
                0 => None,
                1 => Some(r.take(r.remaining()).map_err(|e| e.to_string())?.to_vec()),
                b => return Err(format!("bad outcome flag {b:#x}")),
            };
            WireFrame::Outcome {
                seq,
                key,
                translation_cycles,
                translated,
            }
        }
        FRAME_ERROR => {
            let seq = r.u32().map_err(|e| e.to_string())?;
            let code_byte = r.u8().map_err(|e| e.to_string())?;
            let code = ErrorCode::decode(code_byte)
                .ok_or_else(|| format!("bad error code {code_byte}"))?;
            let message = r.str().map_err(|e| e.to_string())?;
            WireFrame::Error { seq, code, message }
        }
        other => return Err(format!("unknown frame tag {other:#x}")),
    };
    if !r.is_done() {
        return Err(format!("frame {tag:#x} has trailing bytes"));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_frame() -> Vec<WireFrame> {
        vec![
            WireFrame::Hello {
                version: WIRE_VERSION,
                tenant: 3,
                family_fp: None,
            },
            WireFrame::Hello {
                version: WIRE_VERSION,
                tenant: 0,
                family_fp: Some(0xDEAD_BEEF),
            },
            WireFrame::ReqModule {
                seq: 7,
                key: 42,
                module: b"opaque module bytes".to_vec(),
            },
            WireFrame::ReqHash {
                seq: 8,
                key: 42,
                loop_hash: u64::MAX,
                hints_fp: 1,
            },
            WireFrame::Shutdown,
            WireFrame::Outcome {
                seq: 7,
                key: 42,
                translation_cycles: 157,
                translated: Some(vec![1, 2, 3]),
            },
            WireFrame::Outcome {
                seq: 9,
                key: 43,
                translation_cycles: 0,
                translated: None,
            },
            WireFrame::Error {
                seq: 7,
                code: ErrorCode::Malformed,
                message: "decoded graph is malformed: cycle".into(),
            },
            WireFrame::Bye,
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in every_frame() {
            let bytes = encode_frame(&f);
            match decode_frame(&bytes, MAX_FRAME_LEN) {
                FrameStatus::Frame { frame, consumed } => {
                    assert_eq!(frame, f);
                    assert_eq!(consumed, bytes.len());
                }
                other => panic!("{f:?} did not decode: {other:?}"),
            }
        }
    }

    #[test]
    fn a_stream_of_frames_decodes_in_order() {
        let frames = every_frame();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut at = 0;
        let mut got = Vec::new();
        while at < stream.len() {
            match decode_frame(&stream[at..], MAX_FRAME_LEN) {
                FrameStatus::Frame { frame, consumed } => {
                    got.push(frame);
                    at += consumed;
                }
                other => panic!("stream broke at {at}: {other:?}"),
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn every_prefix_is_incomplete_never_a_panic() {
        let bytes = encode_frame(&every_frame()[2]);
        for len in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..len], MAX_FRAME_LEN),
                FrameStatus::Incomplete,
                "prefix {len}"
            );
        }
    }

    #[test]
    fn a_flipped_payload_byte_rejects_the_frame_and_resynchronizes() {
        let good = encode_frame(&WireFrame::ReqHash {
            seq: 1,
            key: 2,
            loop_hash: 3,
            hints_fp: 4,
        });
        for i in FRAME_HEADER_LEN..good.len() {
            let mut dirty = good.clone();
            dirty[i] ^= 0x10;
            // A second, intact frame follows the damaged one.
            dirty.extend_from_slice(&good);
            match decode_frame(&dirty, MAX_FRAME_LEN) {
                FrameStatus::Reject { consumed, .. } => {
                    assert_eq!(consumed, good.len(), "resync lands on the next frame");
                    match decode_frame(&dirty[consumed..], MAX_FRAME_LEN) {
                        FrameStatus::Frame { frame, .. } => {
                            assert_eq!(frame.tag(), FRAME_REQ_HASH);
                        }
                        other => panic!("next frame unreadable: {other:?}"),
                    }
                }
                other => panic!("byte {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_tags_and_bad_codes_are_per_frame_rejects() {
        let mut w = Writer::new();
        w.section(0x7F, b"from the future");
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_frame(&bytes, MAX_FRAME_LEN),
            FrameStatus::Reject { .. }
        ));

        // A structurally valid error frame with an unknown code byte.
        let mut p = Writer::new();
        p.u32(1);
        p.u8(200);
        p.str("?");
        let mut w = Writer::new();
        w.section(FRAME_ERROR, p.as_bytes());
        assert!(matches!(
            decode_frame(&w.into_bytes(), MAX_FRAME_LEN),
            FrameStatus::Reject { .. }
        ));

        // Trailing bytes past a fixed-size payload.
        let mut p = Writer::new();
        p.u32(1);
        p.u64(2);
        p.u64(3);
        p.u64(4);
        p.u8(0xEE);
        let mut w = Writer::new();
        w.section(FRAME_REQ_HASH, p.as_bytes());
        assert!(matches!(
            decode_frame(&w.into_bytes(), MAX_FRAME_LEN),
            FrameStatus::Reject { .. }
        ));
    }

    #[test]
    fn oversized_length_claims_are_fatal_before_any_allocation() {
        // A 13-byte header claiming a 4 GiB payload: the stream is
        // unrecoverable (the bytes will never come), and the decoder must
        // say so from the header alone.
        let mut header = vec![FRAME_REQ_MODULE];
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_frame(&header, MAX_FRAME_LEN),
            FrameStatus::Fatal { .. }
        ));
        // At exactly the cap the decoder just waits for bytes.
        let mut header = vec![FRAME_REQ_MODULE];
        header.extend_from_slice(&u32::try_from(MAX_FRAME_LEN).unwrap().to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            decode_frame(&header, MAX_FRAME_LEN),
            FrameStatus::Incomplete
        );
    }
}
