//! The binary module format.
//!
//! Applications are shipped as modules of loop bodies expressed in the
//! baseline instruction set. Three optional, *advisory* hint sections
//! encode the statically computed translation results the paper recommends
//! off-loading (§4.2):
//!
//! * **priority** — "placing a single number for each operation in a data
//!   section before the loop itself" (Figure 9c): here a permutation of the
//!   loop's op ids;
//! * **CCA groups** — procedural abstraction (Figure 9b): each statically
//!   identified subgraph recorded as a member list (standing in for the
//!   `Brl`-delimited mini-function);
//! * **family** — the fingerprint of the accelerator family
//!   (`veal_accel::AcceleratorFamily::fingerprint`) the producer computed
//!   the hints under. A VM serving symbolic family-keyed translations
//!   compares it against its own family to decide whether the shipped
//!   payload keys straight into its memo; any mismatch simply means the
//!   hints are re-derived, never that the loop fails to load.
//!
//! A decoder that ignores both sections still reconstructs exactly the same
//! loop — that is the binary-compatibility property the paper's abstraction
//! relies on, and it is tested below.
//!
//! # Trust boundary
//!
//! The bytes of a module are **untrusted**: they may come from a stale
//! binary, a different compiler, a truncated download, or an adversary
//! (DESIGN.md §9). The decoder therefore
//!
//! * frames every per-loop payload as a *tagged section* carrying its own
//!   FNV-1a checksum, so silent corruption is caught before any structure
//!   is built;
//! * skips unknown section tags (forward compatibility: a newer compiler
//!   can ship new hint kinds without breaking old VMs);
//! * rejects duplicate known sections, out-of-range op references, and
//!   counts that cannot fit in their section;
//! * never panics on malformed input — every failure is a typed
//!   [`DecodeError`].
//!
//! Layout (little endian): magic `VEAL`, version u16, loop count u32, then
//! per loop: name, and a section stream `tag u8, len u32, checksum u64,
//! payload` terminated by [`SEC_END`]. Known tags are [`SEC_NODES`],
//! [`SEC_EDGES`], [`SEC_PRIORITY`], [`SEC_CCA`], [`SEC_FAMILY`].
//!
//! Snapshots (`crate::snapshot`) and serving wire frames (`veal-serve`) use
//! the same section frame. [`read_section`] is the one reader of it; each
//! format maps its [`SectionRead`] verdict to its own policy.

use std::fmt;
use std::ops::Range;
use veal_ir::dfg::{Dfg, EdgeKind, NodeKind};
use veal_ir::rng::Fnv64;
use veal_ir::{LoopBody, OpId, Opcode};

/// Format magic bytes.
pub const MAGIC: &[u8; 4] = b"VEAL";
/// Format version (2: checksummed tagged sections).
pub const VERSION: u16 = 2;

/// Section-stream terminator.
pub const SEC_END: u8 = 0;
/// Node table section (required).
pub const SEC_NODES: u8 = 1;
/// Edge table section (required).
pub const SEC_EDGES: u8 = 2;
/// Priority hint section (Figure 9c, optional).
pub const SEC_PRIORITY: u8 = 3;
/// CCA subgraph hint section (Figure 9b, optional).
pub const SEC_CCA: u8 = 4;
/// Accelerator-family fingerprint hint section (optional): the family the
/// static hints were computed under, for symbolic-memo key matching.
pub const SEC_FAMILY: u8 = 5;

/// One loop as it appears in a binary module.
#[derive(Debug, Clone)]
pub struct EncodedLoop {
    /// The loop body (full graph, control ops included).
    pub body: LoopBody,
    /// Static priority hint: op ids in scheduling order.
    pub priority_hint: Option<Vec<OpId>>,
    /// Static CCA subgraph hint: member lists.
    pub cca_hint: Option<Vec<Vec<OpId>>>,
    /// Advisory fingerprint of the accelerator family
    /// (`veal_accel::AcceleratorFamily::fingerprint`) the producer computed
    /// the hints under; `None` for point-tuned or legacy modules. Not part
    /// of [`StaticHints`](crate::hints::StaticHints), so its presence or
    /// absence never changes a hint fingerprint or a translation.
    pub family_hint: Option<u64>,
}

impl EncodedLoop {
    /// The loop's hint sections as the translator consumes them.
    #[must_use]
    pub fn hints(&self) -> crate::hints::StaticHints {
        crate::hints::StaticHints {
            priority: self.priority_hint.clone(),
            cca_groups: self.cca_hint.clone(),
        }
    }

    /// Whether the shipped family hint matches `family` — i.e. whether
    /// this loop's static hints were produced under exactly the family a
    /// symbolic-memo consumer is about to key them with. `false` when no
    /// hint was shipped.
    #[must_use]
    pub fn family_hint_matches(&self, family: &veal_accel::AcceleratorFamily) -> bool {
        self.family_hint == Some(family.fingerprint())
    }
}

/// A decoded binary module.
#[derive(Debug, Clone, Default)]
pub struct BinaryModule {
    /// The loops, in program order.
    pub loops: Vec<EncodedLoop>,
}

/// Errors produced by [`decode_module`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic bytes are wrong.
    BadMagic,
    /// The version is unsupported.
    BadVersion(u16),
    /// The byte stream ended early.
    Truncated,
    /// An opcode byte is invalid.
    BadOpcode(u8),
    /// A node kind tag is invalid.
    BadNodeKind(u8),
    /// An edge references a node out of range, or its kind byte is invalid.
    BadEdge,
    /// A hint references a node out of range.
    BadHint,
    /// A string is not valid UTF-8.
    BadString,
    /// A section's payload does not match its stored checksum.
    SectionChecksum(u8),
    /// A known section tag appears twice in one loop.
    DuplicateSection(u8),
    /// A required section (nodes or edges) is absent.
    MissingSection(u8),
    /// A section payload has bytes left over after its declared contents.
    SectionTrailing(u8),
    /// A declared element count cannot fit in its section.
    BadCount,
    /// The decoded graph violates structural invariants (distance-0 cycle,
    /// edge to a dead node, …) — bytes that frame correctly can still
    /// describe a program that cannot execute, and the scheduler must
    /// never see one.
    BadGraph(veal_ir::VerifyError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a VEAL module (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported module version {v}"),
            DecodeError::Truncated => write!(f, "module truncated"),
            DecodeError::BadOpcode(b) => write!(f, "invalid opcode byte {b:#x}"),
            DecodeError::BadNodeKind(b) => write!(f, "invalid node kind {b:#x}"),
            DecodeError::BadEdge => write!(f, "edge references missing node"),
            DecodeError::BadHint => write!(f, "hint references missing node"),
            DecodeError::BadString => write!(f, "invalid UTF-8 string"),
            DecodeError::SectionChecksum(t) => {
                write!(f, "section {t:#x} payload fails its checksum")
            }
            DecodeError::DuplicateSection(t) => write!(f, "duplicate section {t:#x}"),
            DecodeError::MissingSection(t) => write!(f, "required section {t:#x} missing"),
            DecodeError::SectionTrailing(t) => {
                write!(f, "section {t:#x} has trailing bytes")
            }
            DecodeError::BadCount => write!(f, "declared count exceeds section size"),
            DecodeError::BadGraph(e) => write!(f, "decoded graph is malformed: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bytes in a section header: tag u8, len u32, checksum u64.
pub const SECTION_HEADER_LEN: usize = 13;

/// FNV-1a checksum of one section payload, as stored in the section header.
#[must_use]
pub fn section_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(payload);
    h.finish()
}

/// Little-endian byte-stream writer shared by the module encoder, the
/// warm-state snapshot encoder (`crate::snapshot`), and the serving wire
/// protocol (`veal-serve`), so every on-disk and on-wire artifact speaks
/// the same framing dialect.
pub struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a u32-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// Appends a checksummed section frame: `tag u8, len u32,
    /// checksum u64, payload`.
    pub fn section(&mut self, tag: u8, payload: &[u8]) {
        self.u8(tag);
        self.u32(payload.len() as u32);
        self.u64(section_checksum(payload));
        self.buf.extend_from_slice(payload);
    }
    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
    /// Consumes the writer, yielding its bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader; every over-read is a typed
/// [`DecodeError::Truncated`], never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a little-endian u16.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    /// Reads a little-endian i64.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }
    /// Reads a u32-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] or [`DecodeError::BadString`].
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadString)
    }
    /// Reads a u32 element count and rejects it with
    /// [`DecodeError::BadCount`] when that many elements of at least
    /// `min_bytes` each cannot fit in the bytes that remain — the bound
    /// every decoder checks before it allocates for the elements.
    #[inline]
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_bytes {
            return Err(DecodeError::BadCount);
        }
        Ok(n)
    }
    /// [`DecodeError::SectionTrailing`] naming `tag` unless every byte was
    /// consumed.
    pub(crate) fn finish(&self, tag: u8) -> Result<(), DecodeError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(DecodeError::SectionTrailing(tag))
        }
    }
    /// Reads the next frame of a section stream terminated by the one-byte
    /// `end` tag. `None` once the end tag is consumed; otherwise the
    /// frame's [`read_section`] verdict (no length cap beyond the buffer),
    /// with the reader moved past the frame when it is complete.
    #[inline]
    pub(crate) fn section(&mut self, end: u8) -> Option<SectionRead> {
        if self.buf.get(self.pos) == Some(&end) {
            self.pos += 1;
            return None;
        }
        let read = read_section(self.buf, self.pos, usize::MAX);
        if let SectionRead::Ok(s) | SectionRead::BadChecksum(s) = &read {
            self.pos = s.frame.end;
        }
        Some(read)
    }
    /// Appends the location of every frame up to the `end` tag to `out`,
    /// checksums unverified — the map a patcher uses before resealing.
    /// [`DecodeError::Truncated`] if the stream ends before the end tag.
    pub(crate) fn map_sections(
        &mut self,
        end: u8,
        loop_index: usize,
        out: &mut Vec<SectionRange>,
    ) -> Result<(), DecodeError> {
        while let Some(read) = self.section(end) {
            match read {
                SectionRead::Ok(s) | SectionRead::BadChecksum(s) => {
                    out.push(SectionRange { loop_index, ..s });
                }
                SectionRead::Short | SectionRead::OverCap { .. } => {
                    return Err(DecodeError::Truncated)
                }
            }
        }
        Ok(())
    }
}

/// What [`read_section`] found at one position of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionRead {
    /// The buffer ends inside the header or the payload.
    Short,
    /// The header claims a payload longer than the caller's cap (or one
    /// that cannot be addressed); the payload was not touched.
    OverCap {
        /// The section tag.
        tag: u8,
        /// The claimed payload length.
        len: usize,
    },
    /// The frame is complete, but its payload fails the stored checksum.
    BadChecksum(SectionRange),
    /// The frame is complete and its payload matches the stored checksum.
    Ok(SectionRange),
}

/// Reads the section frame that starts at `buf[at]` — the only parser of
/// a section header. The claimed length is checked against `cap` before
/// the payload is touched, and the checksum before any caller parses the
/// payload. Never allocates, never panics. The returned [`SectionRange`]
/// has `loop_index` 0; module walkers fill it in.
#[must_use]
#[inline]
pub fn read_section(buf: &[u8], at: usize, cap: usize) -> SectionRead {
    let Some(h) = buf.get(at..).and_then(|b| b.get(..SECTION_HEADER_LEN)) else {
        return SectionRead::Short;
    };
    let tag = h[0];
    let len = u32::from_le_bytes([h[1], h[2], h[3], h[4]]) as usize;
    let payload_start = at + SECTION_HEADER_LEN;
    let Some(end) = payload_start.checked_add(len).filter(|_| len <= cap) else {
        return SectionRead::OverCap { tag, len };
    };
    if end > buf.len() {
        return SectionRead::Short;
    }
    let stored = u64::from_le_bytes([h[5], h[6], h[7], h[8], h[9], h[10], h[11], h[12]]);
    let range = SectionRange {
        loop_index: 0,
        tag,
        frame: at..end,
        checksum: at + 5..payload_start,
        payload: payload_start..end,
    };
    if section_checksum(&buf[payload_start..end]) == stored {
        SectionRead::Ok(range)
    } else {
        SectionRead::BadChecksum(range)
    }
}

const KIND_OP: u8 = 0;
const KIND_LIVE_IN: u8 = 1;
const KIND_CONST: u8 = 2;
const KIND_DEAD: u8 = 3;

/// Bytes one encoded edge occupies (src, dst, distance u32s + kind byte).
const EDGE_BYTES: usize = 13;

fn encode_nodes(dfg: &Dfg) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(dfg.len() as u32);
    for i in 0..dfg.len() {
        let id = OpId::new(i);
        let node = dfg.node(id);
        if node.is_dead() {
            w.u8(KIND_DEAD);
            continue;
        }
        match &node.kind {
            NodeKind::Op(op) => {
                w.u8(KIND_OP);
                w.u8(op.encode());
                w.u16(node.stream.map_or(u16::MAX, |s| s));
                w.u8(u8::from(node.live_out));
            }
            NodeKind::LiveIn => w.u8(KIND_LIVE_IN),
            NodeKind::Const(v) => {
                w.u8(KIND_CONST);
                w.i64(*v);
            }
        }
    }
    w.buf
}

fn encode_edges(dfg: &Dfg) -> Vec<u8> {
    let mut w = Writer::new();
    let edges = dfg.edges();
    w.u32(edges.len() as u32);
    for e in edges {
        w.u32(e.src.index() as u32);
        w.u32(e.dst.index() as u32);
        w.u32(e.distance);
        w.u8(match e.kind {
            EdgeKind::Data => 0,
            EdgeKind::Mem => 1,
        });
    }
    w.buf
}

/// Serializes a module.
///
/// # Example
///
/// ```
/// use veal_ir::{DfgBuilder, LoopBody, Opcode};
/// use veal_vm::{decode_module, encode_module, EncodedLoop};
///
/// # fn main() -> Result<(), veal_vm::DecodeError> {
/// let mut b = DfgBuilder::new();
/// let x = b.load_stream(0);
/// b.store_stream(1, x);
/// let module = veal_vm::BinaryModule {
///     loops: vec![EncodedLoop {
///         body: LoopBody::new("copy", b.finish()),
///         priority_hint: None,
///         cca_hint: None,
///         family_hint: None,
///     }],
/// };
/// let bytes = encode_module(&module);
/// let back = decode_module(&bytes)?;
/// assert_eq!(back.loops.len(), 1);
/// assert_eq!(back.loops[0].body.name, "copy");
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn encode_module(module: &BinaryModule) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);
    w.u32(module.loops.len() as u32);
    for l in &module.loops {
        w.str(&l.body.name);
        let dfg = &l.body.dfg;
        w.section(SEC_NODES, &encode_nodes(dfg));
        w.section(SEC_EDGES, &encode_edges(dfg));
        if let Some(order) = &l.priority_hint {
            let mut p = Writer::new();
            p.u32(order.len() as u32);
            for &op in order {
                p.u32(op.index() as u32);
            }
            w.section(SEC_PRIORITY, &p.buf);
        }
        if let Some(groups) = &l.cca_hint {
            let mut p = Writer::new();
            p.u32(groups.len() as u32);
            for g in groups {
                p.u32(g.len() as u32);
                for &m in g {
                    p.u32(m.index() as u32);
                }
            }
            w.section(SEC_CCA, &p.buf);
        }
        if let Some(fp) = l.family_hint {
            let mut p = Writer::new();
            p.u64(fp);
            w.section(SEC_FAMILY, &p.buf);
        }
        w.u8(SEC_END);
    }
    w.buf
}

fn decode_nodes(payload: &[u8]) -> Result<(Dfg, usize, Vec<OpId>), DecodeError> {
    let mut r = Reader::new(payload);
    // Every node occupies at least one byte; a count beyond that is lying.
    let nnodes = r.count(1)?;
    let mut dfg = Dfg::new();
    let mut dead_nodes = Vec::new();
    for _ in 0..nnodes {
        match r.u8()? {
            KIND_OP => {
                let op_byte = r.u8()?;
                let stream = r.u16()?;
                let live_out = r.u8()? != 0;
                let op = Opcode::decode(op_byte).ok_or(DecodeError::BadOpcode(op_byte))?;
                let id = dfg.add_node(NodeKind::Op(op));
                if stream != u16::MAX {
                    dfg.node_mut(id).stream = Some(stream);
                }
                dfg.node_mut(id).live_out = live_out;
            }
            KIND_LIVE_IN => {
                dfg.add_node(NodeKind::LiveIn);
            }
            KIND_CONST => {
                let v = r.i64()?;
                dfg.add_node(NodeKind::Const(v));
            }
            KIND_DEAD => {
                // Preserve the slot so ids stay stable.
                let id = dfg.add_node(NodeKind::LiveIn);
                dead_nodes.push(id);
            }
            b => return Err(DecodeError::BadNodeKind(b)),
        }
    }
    r.finish(SEC_NODES)?;
    Ok((dfg, nnodes, dead_nodes))
}

fn decode_edges(payload: &[u8], dfg: &mut Dfg, nnodes: usize) -> Result<(), DecodeError> {
    let mut r = Reader::new(payload);
    let nedges = r.count(EDGE_BYTES)?;
    for _ in 0..nedges {
        let src = r.u32()? as usize;
        let dst = r.u32()? as usize;
        let distance = r.u32()?;
        let kind = match r.u8()? {
            0 => EdgeKind::Data,
            1 => EdgeKind::Mem,
            _ => return Err(DecodeError::BadEdge),
        };
        if src >= nnodes || dst >= nnodes {
            return Err(DecodeError::BadEdge);
        }
        dfg.add_edge(OpId::new(src), OpId::new(dst), distance, kind);
    }
    r.finish(SEC_EDGES)
}

fn decode_priority(payload: &[u8]) -> Result<Vec<OpId>, DecodeError> {
    let mut r = Reader::new(payload);
    let n = r.count(4)?;
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        order.push(OpId::new(r.u32()? as usize));
    }
    r.finish(SEC_PRIORITY)?;
    Ok(order)
}

fn decode_family(payload: &[u8]) -> Result<u64, DecodeError> {
    let mut r = Reader::new(payload);
    let fp = r.u64()?;
    r.finish(SEC_FAMILY)?;
    Ok(fp)
}

fn decode_cca(payload: &[u8], nnodes: usize) -> Result<Vec<Vec<OpId>>, DecodeError> {
    let mut r = Reader::new(payload);
    let g = r.count(4)?;
    let mut groups = Vec::with_capacity(g);
    for _ in 0..g {
        let n = r.count(4)?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.u32()? as usize;
            if idx >= nnodes {
                return Err(DecodeError::BadHint);
            }
            members.push(OpId::new(idx));
        }
        groups.push(members);
    }
    r.finish(SEC_CCA)?;
    Ok(groups)
}

/// Reads a module's magic and version; returns its declared loop count.
fn module_header(r: &mut Reader) -> Result<usize, DecodeError> {
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    Ok(r.u32()? as usize)
}

/// Deserializes a module.
///
/// # Errors
///
/// Returns a [`DecodeError`] for malformed input — never panics, whatever
/// the bytes.
pub fn decode_module(bytes: &[u8]) -> Result<BinaryModule, DecodeError> {
    let mut r = Reader::new(bytes);
    let nloops = module_header(&mut r)?;
    // Each loop needs at least a name length, two section frames, and an
    // end tag; one byte per loop is a safe lower bound.
    if nloops > r.remaining() {
        return Err(DecodeError::BadCount);
    }
    let mut loops = Vec::with_capacity(nloops.min(1 << 16));
    for _ in 0..nloops {
        let name = r.str()?;
        // Scan the section stream: any damage rejects the module; known
        // tags are slotted, unknown ones skipped once their checksum holds
        // (forward compatibility).
        let mut slots: [Option<&[u8]>; 5] = [None; 5];
        while let Some(read) = r.section(SEC_END) {
            let s = match read {
                SectionRead::Ok(s) => s,
                SectionRead::BadChecksum(s) => return Err(DecodeError::SectionChecksum(s.tag)),
                SectionRead::Short | SectionRead::OverCap { .. } => {
                    return Err(DecodeError::Truncated)
                }
            };
            if (SEC_NODES..=SEC_FAMILY).contains(&s.tag) {
                let slot = &mut slots[(s.tag - 1) as usize];
                if slot.is_some() {
                    return Err(DecodeError::DuplicateSection(s.tag));
                }
                *slot = Some(&bytes[s.payload]);
            }
        }
        let nodes_payload = slots[0].ok_or(DecodeError::MissingSection(SEC_NODES))?;
        let edges_payload = slots[1].ok_or(DecodeError::MissingSection(SEC_EDGES))?;

        let (mut dfg, nnodes, dead_nodes) = decode_nodes(nodes_payload)?;
        decode_edges(edges_payload, &mut dfg, nnodes)?;
        if !dead_nodes.is_empty() {
            dfg.remove_nodes(&dead_nodes);
        }
        // Structural invariants: a byte stream can frame correctly yet
        // describe an unexecutable graph (a distance-0 cycle would hang
        // RecMII). Reject it here, before the translator can touch it.
        veal_ir::verify_dfg(&dfg).map_err(DecodeError::BadGraph)?;
        let priority_hint = slots[2].map(decode_priority).transpose()?;
        let cca_hint = slots[3].map(|p| decode_cca(p, nnodes)).transpose()?;
        let family_hint = slots[4].map(decode_family).transpose()?;

        // A priority order may reference the pseudo-ops created by
        // collapsing the CCA hint groups: each group adds exactly one node
        // beyond the loop body (paper Figure 9's `Brl CCA` entries appear
        // in the priority data section too).
        let n_groups = cca_hint.as_ref().map_or(0, Vec::len);
        if let Some(order) = &priority_hint {
            if order.iter().any(|o| o.index() >= nnodes + n_groups) {
                return Err(DecodeError::BadHint);
            }
        }
        loops.push(EncodedLoop {
            body: LoopBody::new(name, dfg),
            priority_hint,
            cca_hint,
            family_hint,
        });
    }
    Ok(BinaryModule { loops })
}

/// Location of one section within an encoded module, as byte ranges.
///
/// Used by the fault-injection harness ([`crate::faults`]) to corrupt
/// specific sections and by tooling that patches modules in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionRange {
    /// Index of the loop this section belongs to.
    pub loop_index: usize,
    /// The section tag.
    pub tag: u8,
    /// The whole frame: tag byte through the end of the payload.
    pub frame: Range<usize>,
    /// The 8 stored checksum bytes (little endian).
    pub checksum: Range<usize>,
    /// The payload bytes.
    pub payload: Range<usize>,
}

/// Walks an encoded module's framing and returns every section's location
/// without building any loop structure. Checksums are *not* verified here —
/// this is the map a patcher uses before resealing.
///
/// # Errors
///
/// Returns [`DecodeError`] if the framing itself is malformed.
pub fn section_ranges(bytes: &[u8]) -> Result<Vec<SectionRange>, DecodeError> {
    let mut r = Reader::new(bytes);
    let nloops = module_header(&mut r)?;
    let mut out = Vec::new();
    for loop_index in 0..nloops {
        r.str()?;
        r.map_sections(SEC_END, loop_index, &mut out)?;
    }
    Ok(out)
}

/// Recomputes and stores the checksum of `section` over its (possibly
/// edited) payload bytes, so a patched module decodes again. This is the
/// adversary's tool: the fault harness uses it to prove the *validator*
/// holds even when the transport checksum has been forged.
pub fn reseal_section(bytes: &mut [u8], section: &SectionRange) {
    let sum = section_checksum(&bytes[section.payload.clone()]);
    bytes[section.checksum.clone()].copy_from_slice(&sum.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_accel::{AcceleratorConfig, AcceleratorFamily};
    use veal_ir::DfgBuilder;

    fn paper_family() -> AcceleratorFamily {
        AcceleratorFamily::point(&AcceleratorConfig::paper_design())
    }

    fn sample_loop() -> LoopBody {
        let mut b = DfgBuilder::new();
        let k = b.constant(7);
        let li = b.live_in();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Mul, &[x, k]);
        let z = b.op(Opcode::Add, &[y, li]);
        b.loop_carried(z, z, 1);
        b.mark_live_out(z);
        b.store_stream(1, z);
        LoopBody::new("sample", b.finish())
    }

    fn hinted_module() -> BinaryModule {
        BinaryModule {
            loops: vec![EncodedLoop {
                body: sample_loop(),
                priority_hint: Some(vec![OpId::new(4), OpId::new(3)]),
                cca_hint: Some(vec![vec![OpId::new(3), OpId::new(4)]]),
                family_hint: Some(paper_family().fingerprint()),
            }],
        }
    }

    fn round_trip(m: &BinaryModule) -> BinaryModule {
        decode_module(&encode_module(m)).expect("round trip")
    }

    #[test]
    fn round_trip_preserves_structure() {
        let m = BinaryModule {
            loops: vec![EncodedLoop {
                body: sample_loop(),
                priority_hint: None,
                cca_hint: None,
                family_hint: None,
            }],
        };
        let back = round_trip(&m);
        let a = &m.loops[0].body.dfg;
        let b = &back.loops[0].body.dfg;
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edges(), b.edges());
        for i in 0..a.len() {
            let id = OpId::new(i);
            assert_eq!(a.node(id).kind, b.node(id).kind);
            assert_eq!(a.node(id).stream, b.node(id).stream);
            assert_eq!(a.node(id).live_out, b.node(id).live_out);
        }
    }

    #[test]
    fn round_trip_preserves_hints() {
        let back = round_trip(&hinted_module());
        assert_eq!(
            back.loops[0].priority_hint,
            Some(vec![OpId::new(4), OpId::new(3)])
        );
        assert_eq!(back.loops[0].cca_hint.as_ref().unwrap()[0].len(), 2);
        assert_eq!(
            back.loops[0].family_hint,
            Some(paper_family().fingerprint())
        );
        assert!(back.loops[0].family_hint_matches(&paper_family()));
    }

    #[test]
    fn family_hint_is_optional_and_outside_static_hints() {
        // A module without the family section decodes with family_hint
        // None, emits no SEC_FAMILY frame, and produces the same
        // StaticHints as one that ships the section: the fingerprint is
        // advisory memo metadata, never translation input.
        let mut with = hinted_module();
        let mut without = hinted_module();
        without.loops[0].family_hint = None;
        let bytes = encode_module(&without);
        let sections = section_ranges(&bytes).expect("framing walks");
        assert!(sections.iter().all(|s| s.tag != SEC_FAMILY));
        let back = decode_module(&bytes).expect("decodes");
        assert_eq!(back.loops[0].family_hint, None);
        assert!(!back.loops[0].family_hint_matches(&paper_family()));
        let a = round_trip(&with).loops[0].hints();
        let b = back.loops[0].hints();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Mismatched families do not "match" either.
        let other = AcceleratorFamily::point(&AcceleratorConfig::infinite());
        with.loops[0].family_hint = Some(other.fingerprint());
        let mismatched = round_trip(&with);
        assert!(!mismatched.loops[0].family_hint_matches(&paper_family()));
        assert!(mismatched.loops[0].family_hint_matches(&other));
    }

    #[test]
    fn family_section_corruption_detected() {
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let fam = sections
            .iter()
            .find(|s| s.tag == SEC_FAMILY)
            .expect("family section present")
            .clone();
        bytes[fam.payload.start] ^= 0x01;
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::SectionChecksum(SEC_FAMILY)
        );
        // Resealed wrong-size payload: transport passes, the sub-decoder
        // refuses the trailing bytes.
        let mut bytes = encode_module(&hinted_module());
        let mut sections = section_ranges(&bytes).expect("framing walks");
        let fam = sections
            .iter_mut()
            .find(|s| s.tag == SEC_FAMILY)
            .expect("family section present")
            .clone();
        bytes.insert(fam.payload.end, 0xAB);
        let len_at = fam.frame.start + 1;
        bytes[len_at..len_at + 4].copy_from_slice(&9u32.to_le_bytes());
        let mut grown = fam.clone();
        grown.payload = fam.payload.start..fam.payload.end + 1;
        reseal_section(&mut bytes, &grown);
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::SectionTrailing(SEC_FAMILY)
        );
    }

    #[test]
    fn hints_are_optional_and_ignorable() {
        // The same loop with and without hints decodes to the same graph:
        // binary compatibility of the hint encoding.
        let with = BinaryModule {
            loops: vec![EncodedLoop {
                body: sample_loop(),
                priority_hint: Some(vec![OpId::new(0)]),
                cca_hint: None,
                family_hint: None,
            }],
        };
        let without = BinaryModule {
            loops: vec![EncodedLoop {
                body: sample_loop(),
                priority_hint: None,
                cca_hint: None,
                family_hint: None,
            }],
        };
        let a = round_trip(&with);
        let b = round_trip(&without);
        assert_eq!(a.loops[0].body.dfg.edges(), b.loops[0].body.dfg.edges());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(decode_module(b"NOPE"), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_module(&hinted_module());
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_module(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_truncation_prefix_yields_a_clean_error() {
        let bytes = encode_module(&hinted_module());
        for k in 0..bytes.len() {
            let err = decode_module(&bytes[..k]).expect_err("prefix must not decode");
            // The error is a typed DecodeError by construction; the common
            // case for a clean cut is Truncated.
            let _ = err.to_string();
        }
    }

    #[test]
    fn bad_hint_index_rejected() {
        let m = BinaryModule {
            loops: vec![EncodedLoop {
                body: sample_loop(),
                priority_hint: Some(vec![OpId::new(9999)]),
                cca_hint: None,
                family_hint: None,
            }],
        };
        let bytes = encode_module(&m);
        assert_eq!(decode_module(&bytes).unwrap_err(), DecodeError::BadHint);
    }

    #[test]
    fn cca_member_out_of_range_rejected() {
        let m = BinaryModule {
            loops: vec![EncodedLoop {
                body: sample_loop(),
                priority_hint: None,
                cca_hint: Some(vec![vec![OpId::new(9999)]]),
                family_hint: None,
            }],
        };
        let bytes = encode_module(&m);
        assert_eq!(decode_module(&bytes).unwrap_err(), DecodeError::BadHint);
    }

    #[test]
    fn empty_module_round_trips() {
        let back = round_trip(&BinaryModule::default());
        assert!(back.loops.is_empty());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_module(&BinaryModule::default());
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::BadVersion(0xFFFF)
        );
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let prio = sections
            .iter()
            .find(|s| s.tag == SEC_PRIORITY)
            .expect("priority section present");
        bytes[prio.payload.start + 4] ^= 0x40;
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::SectionChecksum(SEC_PRIORITY)
        );
    }

    #[test]
    fn resealed_corruption_passes_transport_and_reaches_the_validator() {
        // Forge: corrupt a priority id inside bounds, then recompute the
        // checksum. The *decoder* must accept it (transport integrity says
        // nothing about semantic validity) — catching it is vm::verify's
        // job, tested there and in the fault harness.
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let prio = sections
            .iter()
            .find(|s| s.tag == SEC_PRIORITY)
            .expect("priority section present")
            .clone();
        // First entry (offset 4 skips the count): point it at op 0.
        bytes[prio.payload.start + 4..prio.payload.start + 8].copy_from_slice(&0u32.to_le_bytes());
        reseal_section(&mut bytes, &prio);
        let back = decode_module(&bytes).expect("forged module decodes");
        assert_eq!(
            back.loops[0].priority_hint,
            Some(vec![OpId::new(0), OpId::new(3)])
        );
    }

    #[test]
    fn duplicate_hint_section_rejected() {
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let prio = sections
            .iter()
            .find(|s| s.tag == SEC_PRIORITY)
            .expect("priority section present")
            .clone();
        // Splice a second copy of the whole priority frame right after the
        // first one.
        let frame: Vec<u8> = bytes[prio.frame.clone()].to_vec();
        bytes.splice(prio.frame.end..prio.frame.end, frame);
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::DuplicateSection(SEC_PRIORITY)
        );
    }

    #[test]
    fn unknown_section_skipped_for_forward_compat() {
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let last = sections.last().expect("sections present").clone();
        // A future compiler appends a section this VM has never heard of.
        let payload = b"future hint kind";
        let mut frame = vec![0xEEu8];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&section_checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        bytes.splice(last.frame.end..last.frame.end, frame);
        let back = decode_module(&bytes).expect("unknown section is skipped");
        assert_eq!(
            back.loops[0].priority_hint,
            Some(vec![OpId::new(4), OpId::new(3)])
        );
        assert!(back.loops[0].cca_hint.is_some());
    }

    #[test]
    fn unknown_section_corruption_still_detected() {
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let last = sections.last().expect("sections present").clone();
        let payload = b"future hint kind";
        let mut frame = vec![0xEEu8];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&section_checksum(payload).to_le_bytes());
        frame.extend_from_slice(b"corrupted bytes!");
        bytes.splice(last.frame.end..last.frame.end, frame);
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::SectionChecksum(0xEE)
        );
    }

    #[test]
    fn missing_required_section_rejected() {
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let edges = sections
            .iter()
            .find(|s| s.tag == SEC_EDGES)
            .expect("edges present")
            .clone();
        bytes.drain(edges.frame);
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::MissingSection(SEC_EDGES)
        );
    }

    #[test]
    fn lying_count_rejected_without_allocation() {
        // A node count of u32::MAX in a tiny payload must fail fast with
        // BadCount, not attempt a huge decode.
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let nodes = sections
            .iter()
            .find(|s| s.tag == SEC_NODES)
            .expect("nodes present")
            .clone();
        bytes[nodes.payload.start..nodes.payload.start + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        reseal_section(&mut bytes, &nodes);
        assert_eq!(decode_module(&bytes).unwrap_err(), DecodeError::BadCount);
    }

    #[test]
    fn trailing_section_bytes_rejected() {
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let prio = sections
            .iter()
            .find(|s| s.tag == SEC_PRIORITY)
            .expect("priority present")
            .clone();
        // Shrink the declared entry count by one: the last id becomes a
        // trailing byte the sub-decoder must refuse.
        let count_at = prio.payload.start;
        let old = u32::from_le_bytes([
            bytes[count_at],
            bytes[count_at + 1],
            bytes[count_at + 2],
            bytes[count_at + 3],
        ]);
        bytes[count_at..count_at + 4].copy_from_slice(&(old - 1).to_le_bytes());
        reseal_section(&mut bytes, &prio);
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::SectionTrailing(SEC_PRIORITY)
        );
    }

    #[test]
    fn unexecutable_graph_rejected_at_decode() {
        // Frame-valid bytes describing a distance-0 cycle: the scheduler
        // must never see this graph.
        let mut dfg = Dfg::new();
        let a = dfg.add_node(NodeKind::Op(Opcode::Add));
        let b = dfg.add_node(NodeKind::Op(Opcode::Sub));
        dfg.add_edge(a, b, 0, EdgeKind::Data);
        dfg.add_edge(b, a, 0, EdgeKind::Data);
        let m = BinaryModule {
            loops: vec![EncodedLoop {
                body: LoopBody::new("cyclic", dfg),
                priority_hint: None,
                cca_hint: None,
                family_hint: None,
            }],
        };
        let bytes = encode_module(&m);
        assert!(matches!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::BadGraph(veal_ir::VerifyError::IntraIterationCycle(_))
        ));
    }

    #[test]
    fn bad_opcode_reports_the_byte() {
        let mut bytes = encode_module(&hinted_module());
        let sections = section_ranges(&bytes).expect("framing walks");
        let nodes = sections
            .iter()
            .find(|s| s.tag == SEC_NODES)
            .expect("nodes present")
            .clone();
        // Node 0 of sample_loop is a Const; node payload starts with the
        // u32 count, then kind bytes. Overwrite the first kind byte with an
        // invalid kind tag.
        bytes[nodes.payload.start + 4] = 0x7F;
        reseal_section(&mut bytes, &nodes);
        assert_eq!(
            decode_module(&bytes).unwrap_err(),
            DecodeError::BadNodeKind(0x7F)
        );
    }
}
