//! Hand-built inner-loop kernels.
//!
//! Each kernel is a faithful dataflow rendition of a real media/FP inner
//! loop, in the *full binary form*: compute ops, `Load`/`Store` ops fed by
//! affine address generators, and the counted-control pattern (induction
//! increment, compare, back branch) — the shape the VM's stream separator
//! expects (paper Figure 5).

use veal_ir::dfg::Dfg;
use veal_ir::{DfgBuilder, LoopBody, OpId, Opcode};

/// Builder wrapper that adds the stream/control idioms kernels share.
#[derive(Debug, Default)]
pub struct KernelCtx {
    b: DfgBuilder,
}

impl KernelCtx {
    /// Creates an empty kernel context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a compute op.
    pub fn op(&mut self, opcode: Opcode, inputs: &[OpId]) -> OpId {
        self.b.op(opcode, inputs)
    }

    /// Adds a constant.
    pub fn constant(&mut self, v: i64) -> OpId {
        self.b.constant(v)
    }

    /// Adds a scalar live-in.
    pub fn live_in(&mut self) -> OpId {
        self.b.live_in()
    }

    /// Adds a loop-carried dependence.
    pub fn loop_carried(&mut self, src: OpId, dst: OpId, distance: u32) {
        self.b.loop_carried(src, dst, distance);
    }

    /// Marks a live-out value.
    pub fn mark_live_out(&mut self, id: OpId) {
        self.b.mark_live_out(id);
    }

    /// Adds a streaming load: an affine address generator (`addr += stride`)
    /// feeding a `Load`.
    pub fn load(&mut self, stride: i64) -> OpId {
        let step = self.b.constant(stride);
        let addr = self.b.op(Opcode::Add, &[step]);
        self.b.loop_carried(addr, addr, 1);
        self.b.op(Opcode::Load, &[addr])
    }

    /// Adds a streaming store of `value`.
    pub fn store(&mut self, stride: i64, value: OpId) -> OpId {
        let step = self.b.constant(stride);
        let addr = self.b.op(Opcode::Add, &[step]);
        self.b.loop_carried(addr, addr, 1);
        self.b.op(Opcode::Store, &[value, addr])
    }

    /// Appends the counted-control pattern (`i += 1; cmp i, n; brc`) and
    /// finishes the graph.
    #[must_use]
    pub fn finish_counted(mut self) -> Dfg {
        let one = self.b.constant(1);
        let i = self.b.op(Opcode::Add, &[one]);
        self.b.loop_carried(i, i, 1);
        let n = self.b.live_in();
        let c = self.b.op(Opcode::CmpLt, &[i, n]);
        self.b.op(Opcode::BrCond, &[c]);
        self.b.finish()
    }
}

/// `acc += x[i] * y[i]` — double-precision dot product (every BLAS-1 user).
#[must_use]
pub fn dot_product() -> LoopBody {
    let mut k = KernelCtx::new();
    let x = k.load(8);
    let y = k.load(8);
    let p = k.op(Opcode::FMul, &[x, y]);
    let acc = k.op(Opcode::FAdd, &[p]);
    k.loop_carried(acc, acc, 1);
    k.mark_live_out(acc);
    LoopBody::new("dot_product", k.finish_counted())
}

/// `y[i] = a*x[i] + y[i]` — daxpy.
#[must_use]
pub fn daxpy() -> LoopBody {
    let mut k = KernelCtx::new();
    let a = k.live_in();
    let x = k.load(8);
    let y = k.load(8);
    let p = k.op(Opcode::FMul, &[a, x]);
    let s = k.op(Opcode::FAdd, &[p, y]);
    k.store(8, s);
    LoopBody::new("daxpy", k.finish_counted())
}

/// `y[i] = Σ_j h[j]·x[i+j]` — integer FIR filter with `taps` taps; each
/// shifted input window is its own memory stream, which is why FIR-heavy
/// apps drove the paper's 16-load-stream requirement.
#[must_use]
pub fn fir(taps: usize) -> LoopBody {
    let mut k = KernelCtx::new();
    let mut sum: Option<OpId> = None;
    for _ in 0..taps {
        let x = k.load(4);
        let h = k.live_in();
        let p = k.op(Opcode::Mul, &[x, h]);
        sum = Some(match sum {
            Some(s) => k.op(Opcode::Add, &[s, p]),
            None => p,
        });
    }
    let scaled = {
        let s = sum.expect("taps >= 1");
        let sh = k.constant(15);
        k.op(Opcode::Sra, &[s, sh])
    };
    k.store(4, scaled);
    LoopBody::new(format!("fir{taps}"), k.finish_counted())
}

/// One ADPCM predictor step (rawcaudio's hot loop): shifts, masks,
/// saturation, two predictor recurrences. CCA-rich integer code.
#[must_use]
pub fn adpcm_step() -> LoopBody {
    let mut k = KernelCtx::new();
    let x = k.load(2);
    // Predictor state (valpred) recurrence.
    let step_tab = k.load(4);
    let diff = k.op(Opcode::Sub, &[x]);
    let sign = k.op(Opcode::CmpLt, &[diff]);
    let mag = k.op(Opcode::Abs, &[diff]);
    let sh3 = k.constant(3);
    let d3 = k.op(Opcode::Shr, &[mag, sh3]);
    let masked = k.op(Opcode::And, &[d3]);
    let delta = k.op(Opcode::Or, &[masked, sign]);
    let scaled = k.op(Opcode::Mul, &[delta, step_tab]);
    let valpred = k.op(Opcode::Add, &[scaled]);
    k.loop_carried(valpred, diff, 1); // diff = x - valpred(prev)
    k.loop_carried(valpred, valpred, 1);
    // Saturate.
    let hi = k.constant(32767);
    let lo = k.constant(-32768);
    let clip1 = k.op(Opcode::Min, &[valpred, hi]);
    let clip2 = k.op(Opcode::Max, &[clip1, lo]);
    // Step-size index recurrence.
    let idx_adj = k.op(Opcode::Add, &[delta]);
    let idx_hi = k.constant(88);
    let idx = k.op(Opcode::Min, &[idx_adj, idx_hi]);
    let zero = k.constant(0);
    let idx2 = k.op(Opcode::Max, &[idx, zero]);
    k.loop_carried(idx2, idx_adj, 1);
    k.store(1, delta);
    k.mark_live_out(clip2);
    LoopBody::new("adpcm_step", k.finish_counted())
}

/// An 8-point IDCT butterfly row (mpeg2dec / djpeg): 8 loads, constant
/// multiplies, add/sub butterflies, 8 stores.
#[must_use]
pub fn idct_row() -> LoopBody {
    let mut k = KernelCtx::new();
    let ins: Vec<OpId> = (0..8).map(|_| k.load(16)).collect();
    // Stage 1: constant multiplies on odd coefficients.
    let mut stage1 = Vec::new();
    for (j, &x) in ins.iter().enumerate() {
        if j % 2 == 1 {
            let c = k.live_in();
            let m = k.op(Opcode::Mul, &[x, c]);
            let sh = k.constant(11);
            stage1.push(k.op(Opcode::Sra, &[m, sh]));
        } else {
            stage1.push(x);
        }
    }
    // Stage 2: butterflies.
    let mut outs = Vec::new();
    for j in 0..4 {
        let a = stage1[j];
        let b2 = stage1[7 - j];
        let s = k.op(Opcode::Add, &[a, b2]);
        let d = k.op(Opcode::Sub, &[a, b2]);
        outs.push(s);
        outs.push(d);
    }
    for v in outs {
        let hi = k.constant(255);
        let zero = k.constant(0);
        let c1 = k.op(Opcode::Min, &[v, hi]);
        let c2 = k.op(Opcode::Max, &[c1, zero]);
        k.store(16, c2);
    }
    LoopBody::new("idct_row", k.finish_counted())
}

/// `acc += x[i] * x[i+lag]` — autocorrelation (gsm, g721).
#[must_use]
pub fn autocorr() -> LoopBody {
    let mut k = KernelCtx::new();
    let a = k.load(2);
    let b2 = k.load(2);
    let p = k.op(Opcode::Mul, &[a, b2]);
    let sh = k.constant(1);
    let ps = k.op(Opcode::Sra, &[p, sh]);
    let acc = k.op(Opcode::Add, &[ps]);
    k.loop_carried(acc, acc, 1);
    k.mark_live_out(acc);
    LoopBody::new("autocorr", k.finish_counted())
}

/// Viterbi add-compare-select (g721/gsm decoders): pure CCA food.
#[must_use]
pub fn viterbi_acs() -> LoopBody {
    let mut k = KernelCtx::new();
    let m0 = k.load(4);
    let m1 = k.load(4);
    let bm0 = k.load(4);
    let bm1 = k.load(4);
    let p0 = k.op(Opcode::Add, &[m0, bm0]);
    let p1 = k.op(Opcode::Add, &[m1, bm1]);
    let best = k.op(Opcode::Min, &[p0, p1]);
    let c = k.op(Opcode::CmpLt, &[p0, p1]);
    let sel = k.op(Opcode::Select, &[c, p0, p1]);
    let norm = k.op(Opcode::Sub, &[sel, best]);
    k.store(4, best);
    k.store(1, norm);
    LoopBody::new("viterbi_acs", k.finish_counted())
}

/// Quantization with saturation (cjpeg/mpeg2enc).
#[must_use]
pub fn quantize() -> LoopBody {
    let mut k = KernelCtx::new();
    let x = k.load(2);
    let q = k.load(2);
    let m = k.op(Opcode::Mul, &[x, q]);
    let sh = k.constant(16);
    let s = k.op(Opcode::Sra, &[m, sh]);
    let hi = k.constant(2047);
    let lo = k.constant(-2048);
    let c1 = k.op(Opcode::Min, &[s, hi]);
    let c2 = k.op(Opcode::Max, &[c1, lo]);
    k.store(2, c2);
    LoopBody::new("quantize", k.finish_counted())
}

/// 3-point integer stencil (epic wavelet lifting).
#[must_use]
pub fn stencil3() -> LoopBody {
    let mut k = KernelCtx::new();
    let a = k.load(4);
    let b2 = k.load(4);
    let c = k.load(4);
    let w = k.live_in();
    let s1 = k.op(Opcode::Add, &[a, c]);
    let m = k.op(Opcode::Mul, &[b2, w]);
    let sh = k.constant(2);
    let s2 = k.op(Opcode::Sra, &[s1, sh]);
    let o = k.op(Opcode::Sub, &[m, s2]);
    k.store(4, o);
    LoopBody::new("stencil3", k.finish_counted())
}

/// One round of a software cipher (pegwit): a deep chain of xor/add/or
/// mixing with rotations, several long integer recurrences. Large loops of
/// this shape are what made pegwit's dynamic translation so expensive.
///
/// `rounds` controls the depth (ops ≈ 8 · rounds).
#[must_use]
pub fn crypto_round(rounds: usize) -> LoopBody {
    let mut k = KernelCtx::new();
    let x = k.load(4);
    let key = k.live_in();
    let mut s0 = k.op(Opcode::Xor, &[x, key]);
    let first0 = s0;
    let mut s1 = k.op(Opcode::Add, &[x, key]);
    let first1 = s1;
    for r in 0..rounds {
        // Real ciphers rotate by a small set of fixed amounts; distinct
        // constants would each pin a register.
        let rot = k.constant(if r % 2 == 0 { 3 } else { 5 });
        let rot2 = k.constant(7);
        let hi = k.op(Opcode::Shl, &[s0, rot]);
        let lo = k.op(Opcode::Shr, &[s0, rot]);
        let rotv = k.op(Opcode::Or, &[hi, lo]);
        let hi2 = k.op(Opcode::Shl, &[s1, rot2]);
        let lo2 = k.op(Opcode::Shr, &[s1, rot2]);
        let rotw = k.op(Opcode::Or, &[hi2, lo2]);
        let mix = k.op(Opcode::Xor, &[rotv, rotw]);
        let sum = k.op(Opcode::Add, &[mix, key]);
        let and = k.op(Opcode::And, &[sum, rotv]);
        s1 = k.op(Opcode::Sub, &[rotw, and]);
        s0 = k.op(Opcode::Xor, &[mix, sum]);
    }
    // Ciphertext chaining across interleaved blocks: the feedback spans
    // `rounds` iterations, so the recurrence-constrained II stays ~5-6 even
    // for deep loops (the cipher processes independent lanes in between).
    let feedback_distance = (rounds as u32).max(2);
    k.loop_carried(s0, first0, feedback_distance);
    // Only one state word chains across blocks (CBC-style); chaining both
    // would double the cross-iteration register lanes.
    let _ = first1;
    k.store(4, s0);
    k.store(4, s1);
    LoopBody::new(format!("crypto{rounds}"), k.finish_counted())
}

/// 5-point double-precision stencil (171.swim's shallow-water update).
#[must_use]
pub fn swim_stencil() -> LoopBody {
    let mut k = KernelCtx::new();
    let c = k.load(8);
    let n = k.load(8);
    let s = k.load(8);
    let e = k.load(8);
    let w = k.load(8);
    let cw = k.live_in();
    let sum_ns = k.op(Opcode::FAdd, &[n, s]);
    let sum_ew = k.op(Opcode::FAdd, &[e, w]);
    let sum = k.op(Opcode::FAdd, &[sum_ns, sum_ew]);
    let scaled = k.op(Opcode::FMul, &[sum, cw]);
    let out = k.op(Opcode::FSub, &[scaled, c]);
    k.store(8, out);
    LoopBody::new("swim_stencil", k.finish_counted())
}

/// A large multigrid residual expression (172.mgrid): the fourth-order
/// 27-point stencil in its shared-coefficient form — neighbours at the same
/// distance share one coefficient, so `points` loads feed group sums that
/// are scaled by only four live-in weights. `points = 27` yields a ~90-op
/// loop with 27 load streams: more streams than the design point supports,
/// so the static compiler must fission it (paper §3.1), and its Θ(n³)
/// priority computation dominates mgrid's translation time.
#[must_use]
pub fn mgrid_resid(points: usize) -> LoopBody {
    let mut k = KernelCtx::new();
    // Distance groups of the 27-point stencil: centre, faces, edges,
    // corners (1 + 6 + 12 + 8). Smaller `points` truncate the tail.
    let group_sizes = [1usize, 6, 12, 8];
    let mut remaining = points;
    let mut scaled_groups = Vec::new();
    for &g in &group_sizes {
        if remaining == 0 {
            break;
        }
        let take = g.min(remaining);
        remaining -= take;
        let mut sum: Option<OpId> = None;
        for _ in 0..take {
            let x = k.load(8);
            sum = Some(match sum {
                Some(s) => k.op(Opcode::FAdd, &[s, x]),
                None => x,
            });
        }
        let coeff = k.live_in();
        let scaled = k.op(Opcode::FMul, &[sum.expect("take >= 1"), coeff]);
        scaled_groups.push(scaled);
    }
    let mut total = scaled_groups[0];
    for &g in &scaled_groups[1..] {
        total = k.op(Opcode::FAdd, &[total, g]);
    }
    let r = k.load(8);
    let resid = k.op(Opcode::FSub, &[r, total]);
    k.store(8, resid);
    LoopBody::new(format!("mgrid_resid{points}"), k.finish_counted())
}

/// Newton–Raphson reciprocal-sqrt iteration: a long FP recurrence that
/// bounds II from below (RecMII-dominated loop).
#[must_use]
pub fn fp_recurrence() -> LoopBody {
    let mut k = KernelCtx::new();
    let x = k.load(8);
    let half = k.live_in();
    let y = k.op(Opcode::FMul, &[x]);
    let first = y;
    let sq = k.op(Opcode::FMul, &[y, y]);
    let prod = k.op(Opcode::FMul, &[sq, half]);
    let upd = k.op(Opcode::FSub, &[prod]);
    let next = k.op(Opcode::FMul, &[y, upd]);
    // Two interleaved Newton streams: the value feeds back two iterations
    // later, halving the recurrence-constrained II.
    k.loop_carried(next, first, 2);
    k.store(8, next);
    LoopBody::new("fp_recurrence", k.finish_counted())
}

/// Color-space conversion (djpeg): 3 loads, constant muls, adds, clamps,
/// 3 stores.
#[must_use]
pub fn color_convert() -> LoopBody {
    let mut k = KernelCtx::new();
    let y = k.load(1);
    let cb = k.load(1);
    let cr = k.load(1);
    for plane in 0..3 {
        let c1 = k.live_in();
        let c2 = k.live_in();
        let a = if plane == 0 { cb } else { cr };
        let m1 = k.op(Opcode::Mul, &[a, c1]);
        let m2 = k.op(Opcode::Mul, &[if plane == 2 { cb } else { cr }, c2]);
        let sum = k.op(Opcode::Add, &[m1, m2]);
        let sh = k.constant(16);
        let scaled = k.op(Opcode::Sra, &[sum, sh]);
        let with_y = k.op(Opcode::Add, &[scaled, y]);
        let hi = k.constant(255);
        let zero = k.constant(0);
        let cl = k.op(Opcode::Min, &[with_y, hi]);
        let cl2 = k.op(Opcode::Max, &[cl, zero]);
        k.store(1, cl2);
    }
    LoopBody::new("color_convert", k.finish_counted())
}

/// Bit unpacking (gsm/g721 decode): shifts and masks from one stream into
/// two.
#[must_use]
pub fn bit_unpack() -> LoopBody {
    let mut k = KernelCtx::new();
    let x = k.load(1);
    let sh4 = k.constant(4);
    let mask = k.constant(0xF);
    let hi = k.op(Opcode::Shr, &[x, sh4]);
    let lo = k.op(Opcode::And, &[x, mask]);
    let bias = k.live_in();
    let hi2 = k.op(Opcode::Sub, &[hi, bias]);
    let lo2 = k.op(Opcode::Sub, &[lo, bias]);
    k.store(2, hi2);
    k.store(2, lo2);
    LoopBody::new("bit_unpack", k.finish_counted())
}

/// 3x3 Sobel edge detection (epic/image kernels): 6 loads (two stencil
/// rows reused via shifted streams), weighted sums, absolute values,
/// saturation.
#[must_use]
pub fn sobel3() -> LoopBody {
    let mut k = KernelCtx::new();
    let rows: Vec<OpId> = (0..6).map(|_| k.load(1)).collect();
    let two = k.constant(2);
    // Horizontal gradient.
    let l = k.op(Opcode::Add, &[rows[0], rows[3]]);
    let lm = k.op(Opcode::Mul, &[rows[1], two]);
    let left = k.op(Opcode::Add, &[l, lm]);
    let r = k.op(Opcode::Add, &[rows[2], rows[5]]);
    let rm = k.op(Opcode::Mul, &[rows[4], two]);
    let right = k.op(Opcode::Add, &[r, rm]);
    let gx = k.op(Opcode::Sub, &[left, right]);
    let mag = k.op(Opcode::Abs, &[gx]);
    let hi = k.constant(255);
    let clip = k.op(Opcode::Min, &[mag, hi]);
    k.store(1, clip);
    LoopBody::new("sobel3", k.finish_counted())
}

/// Alpha blending (compositing inner loop): two pixel streams mixed by a
/// live-in alpha; pure CCA-friendly integer arithmetic plus one multiply
/// pair.
#[must_use]
pub fn alpha_blend() -> LoopBody {
    let mut k = KernelCtx::new();
    let fg = k.load(1);
    let bg = k.load(1);
    let alpha = k.live_in();
    let inv = k.constant(256);
    let ia = k.op(Opcode::Sub, &[inv, alpha]);
    let a = k.op(Opcode::Mul, &[fg, alpha]);
    let b2 = k.op(Opcode::Mul, &[bg, ia]);
    let sum = k.op(Opcode::Add, &[a, b2]);
    let sh = k.constant(8);
    let out = k.op(Opcode::Shr, &[sum, sh]);
    k.store(1, out);
    LoopBody::new("alpha_blend", k.finish_counted())
}

/// RGB-to-grayscale conversion: three plane streams, constant weights.
#[must_use]
pub fn rgb_to_gray() -> LoopBody {
    let mut k = KernelCtx::new();
    let r = k.load(1);
    let g = k.load(1);
    let b2 = k.load(1);
    let wr = k.constant(77);
    let wg = k.constant(150);
    let wb = k.constant(29);
    let mr = k.op(Opcode::Mul, &[r, wr]);
    let mg = k.op(Opcode::Mul, &[g, wg]);
    let mb = k.op(Opcode::Mul, &[b2, wb]);
    let s1 = k.op(Opcode::Add, &[mr, mg]);
    let s2 = k.op(Opcode::Add, &[s1, mb]);
    let sh = k.constant(8);
    let gray = k.op(Opcode::Shr, &[s2, sh]);
    k.store(1, gray);
    LoopBody::new("rgb_to_gray", k.finish_counted())
}

/// Fixed-width bit packing (entropy coder back end): accumulate two
/// fields into a word stream with shifts and masks, carrying the bit
/// buffer across iterations.
#[must_use]
pub fn bit_pack() -> LoopBody {
    let mut k = KernelCtx::new();
    let sym = k.load(2);
    let len = k.load(2);
    let buf = k.op(Opcode::Shl, &[sym]);
    let merged = k.op(Opcode::Or, &[buf, len]);
    let mask = k.constant(0xFFFF);
    let low = k.op(Opcode::And, &[merged, mask]);
    k.loop_carried(merged, buf, 1); // bit buffer carries over
    k.store(2, low);
    LoopBody::new("bit_pack", k.finish_counted())
}

/// The inner loop of a tiled double-precision matrix multiply: two loads,
/// an FP multiply-accumulate chain over a distance-2 unrolled accumulator
/// pair (classic FP-pipelining shape).
#[must_use]
pub fn matmul_tile() -> LoopBody {
    let mut k = KernelCtx::new();
    let a = k.load(8);
    let b2 = k.load(8);
    let p = k.op(Opcode::FMul, &[a, b2]);
    let acc = k.op(Opcode::FAdd, &[p]);
    k.loop_carried(acc, acc, 2); // two interleaved partial sums
    k.mark_live_out(acc);
    LoopBody::new("matmul_tile", k.finish_counted())
}

/// LMS adaptive-filter update (056.ear-style): the coefficient update
/// feeds back with distance 1, bounding II by the FP recurrence.
#[must_use]
pub fn lms_adapt() -> LoopBody {
    let mut k = KernelCtx::new();
    let x = k.load(8);
    let w = k.load(8);
    let mu_e = k.live_in();
    let grad = k.op(Opcode::FMul, &[x, mu_e]);
    let w_new = k.op(Opcode::FAdd, &[w, grad]);
    k.store(8, w_new);
    let y = k.op(Opcode::FMul, &[x, w_new]);
    let acc = k.op(Opcode::FAdd, &[y]);
    k.loop_carried(acc, acc, 1);
    k.mark_live_out(acc);
    LoopBody::new("lms_adapt", k.finish_counted())
}

/// 3-tap median filter via a min/max network — entirely CCA-supported
/// compute.
#[must_use]
pub fn median3() -> LoopBody {
    let mut k = KernelCtx::new();
    let a = k.load(1);
    let b2 = k.load(1);
    let c = k.load(1);
    let hi_ab = k.op(Opcode::Max, &[a, b2]);
    let lo_ab = k.op(Opcode::Min, &[a, b2]);
    let hi2 = k.op(Opcode::Min, &[hi_ab, c]);
    let med = k.op(Opcode::Max, &[lo_ab, hi2]);
    k.store(1, med);
    LoopBody::new("median3", k.finish_counted())
}

/// A while-loop shape (data-dependent exit): classified as needing
/// speculation support, never accelerated (paper Figure 2's gray segment).
#[must_use]
pub fn while_scan() -> LoopBody {
    let mut b = DfgBuilder::new();
    let step = b.constant(1);
    let addr = b.op(Opcode::Add, &[step]);
    b.loop_carried(addr, addr, 1);
    let x = b.op(Opcode::Load, &[addr]);
    let zero = b.constant(0);
    let c = b.op(Opcode::CmpNe, &[x, zero]);
    b.op(Opcode::BrCond, &[c]);
    LoopBody::new("while_scan", b.finish())
}

/// A loop around an opaque library call (paper Figure 2's "Subroutine"
/// segment).
#[must_use]
pub fn call_loop() -> LoopBody {
    let mut k = KernelCtx::new();
    let x = k.load(8);
    let r = k.op(Opcode::Call, &[x]);
    k.store(8, r);
    LoopBody::new("call_loop", k.finish_counted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_ir::{classify_loop, verify_dfg, LoopClass};

    fn schedulable_kernels() -> Vec<LoopBody> {
        vec![
            dot_product(),
            daxpy(),
            fir(8),
            adpcm_step(),
            idct_row(),
            autocorr(),
            viterbi_acs(),
            quantize(),
            stencil3(),
            crypto_round(6),
            swim_stencil(),
            mgrid_resid(27),
            fp_recurrence(),
            color_convert(),
            bit_unpack(),
            sobel3(),
            alpha_blend(),
            rgb_to_gray(),
            bit_pack(),
            matmul_tile(),
            lms_adapt(),
            median3(),
        ]
    }

    #[test]
    fn all_kernels_are_well_formed() {
        for k in schedulable_kernels() {
            assert_eq!(verify_dfg(&k.dfg), Ok(()), "kernel {}", k.name);
        }
        assert!(verify_dfg(&while_scan().dfg).is_ok());
        assert!(verify_dfg(&call_loop().dfg).is_ok());
    }

    #[test]
    fn compute_kernels_are_modulo_schedulable() {
        for k in schedulable_kernels() {
            assert_eq!(
                classify_loop(&k.dfg),
                LoopClass::ModuloSchedulable,
                "kernel {}",
                k.name
            );
        }
    }

    #[test]
    fn special_kernels_classify_correctly() {
        assert_eq!(
            classify_loop(&while_scan().dfg),
            LoopClass::NeedsSpeculation
        );
        assert_eq!(classify_loop(&call_loop().dfg), LoopClass::Subroutine);
    }

    #[test]
    fn mgrid_is_large() {
        assert!(mgrid_resid(27).len() > 80);
    }

    #[test]
    fn crypto_depth_scales() {
        assert!(crypto_round(12).len() > crypto_round(4).len());
    }

    #[test]
    fn fir_stream_count_matches_taps() {
        use veal_ir::streams::separate;
        use veal_ir::CostMeter;
        let body = fir(8);
        let sep = separate(&body.dfg, &mut CostMeter::new()).expect("fir separates");
        assert_eq!(sep.summary().loads, 8);
        assert_eq!(sep.summary().stores, 1);
    }

    #[test]
    fn dot_product_has_fp_accumulator_recurrence() {
        let body = dot_product();
        assert!(!body.dfg.recurrences().is_empty());
    }
}
