//! Quantized inference primitives: IEEE-754 binary16 storage conversion,
//! symmetric int8 scale quantization, and the int8 GEMM with a
//! dequantize-fused bias/activation epilogue.
//!
//! # Quantization math
//!
//! Both reduced-precision tiers are *symmetric scale* schemes with no zero
//! point:
//!
//! * **f16 storage** keeps IEEE semantics: each f32 weight is rounded to
//!   the nearest binary16 (ties to even), stored as its 16 bits, and
//!   widened back to f32 at load time. Compute stays on the f32 kernels.
//! * **int8 compute** stores `q = round(x / s)` clamped to `[-127, 127]`
//!   with one scale per output channel (the last axis of a rank ≥ 2
//!   weight) chosen as `s = max|x| / 127`, so the representable range
//!   exactly covers the channel. An all-zero channel takes `s = 1` and
//!   round-trips to zeros. Activations are quantized dynamically per GEMM
//!   row with the same rule.
//!
//! # Determinism contract
//!
//! The int8 GEMM accumulates in `i32` — exact integer arithmetic — so its
//! accumulator value is independent of summation order by construction.
//! The dequantize epilogue (`acc as f32 * (s_row * s_col)`, then bias,
//! then optional GELU) is a fixed per-element scalar sequence. Results are
//! therefore bit-identical across every SIMD tier, and the differential
//! suite pins the dispatched kernels against [`linear_i8_oracle`] anyway,
//! exactly like the f32 kernels.

use super::Tier;

/// Converts an `f32` to IEEE binary16 bits with round-to-nearest-even.
///
/// Overflow goes to ±inf, underflow rounds into the subnormal range and
/// then to (signed) zero, and NaN stays NaN (payload truncated, quiet bit
/// forced so the payload never silently becomes inf).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf or NaN. Keep the top mantissa bits and force the quiet bit
        // for NaN so a payload of only-low-bits cannot collapse to inf.
        if man != 0 {
            return sign | 0x7e00 | ((man >> 13) as u16 & 0x03ff);
        }
        return sign | 0x7c00;
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow → inf
    }
    if e <= 0 {
        // Subnormal (or zero) in f16. Value = M · 2^(e-14) / 2^10 with the
        // implicit bit restored; shift out `14 - e` bits with RNE.
        if e < -10 {
            return sign; // below half the smallest subnormal → ±0
        }
        let m24 = man | 0x0080_0000;
        let shift = (14 - e) as u32;
        let kept = m24 >> shift;
        let rem = m24 & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let round_up = rem > halfway || (rem == halfway && (kept & 1) != 0);
        return sign | (kept + round_up as u32) as u16;
    }
    // Normal: drop 13 mantissa bits with RNE. A mantissa carry bumps the
    // exponent, and a carry out of the top exponent lands exactly on the
    // inf encoding — both are the correct IEEE results.
    let kept = ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    let round_up = rem > 0x1000 || (rem == 0x1000 && (kept & 1) != 0);
    sign | (kept + round_up as u32) as u16
}

/// Widens IEEE binary16 bits back to `f32`. Exact: every f16 value
/// (including subnormals, ±0, ±inf) has an exact f32 representation.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    if exp == 0 {
        // Subnormal: man · 2^-24, computed exactly (power-of-two scale).
        let v = man as f32 * (1.0 / 16_777_216.0);
        return f32::from_bits(sign | v.to_bits());
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Why a tensor could not be quantized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuantError {
    /// A NaN at the given flat index — unrepresentable at any tier.
    Nan {
        /// Flat index of the offending element.
        index: usize,
    },
    /// An infinity at the given flat index. f16 storage represents it, but
    /// an int8 scale derived from an infinite magnitude would collapse the
    /// whole channel to zeros, so int8 rejects it.
    Infinite {
        /// Flat index of the offending element.
        index: usize,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Nan { index } => write!(f, "NaN weight at flat index {index}"),
            QuantError::Infinite { index } => {
                write!(
                    f,
                    "infinite weight at flat index {index} (int8 needs a finite scale)"
                )
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Encodes a weight slice as f16 bits, rejecting NaN (a NaN weight is a
/// corrupted artifact, not a precision choice). ±inf passes through.
pub fn encode_f16(xs: &[f32]) -> Result<Vec<u16>, QuantError> {
    if let Some(index) = xs.iter().position(|v| v.is_nan()) {
        return Err(QuantError::Nan { index });
    }
    Ok(xs.iter().map(|&v| f32_to_f16_bits(v)).collect())
}

/// Decodes f16 bits back to f32 values.
pub fn decode_f16(hs: &[u16]) -> Vec<f32> {
    hs.iter().map(|&h| f16_bits_to_f32(h)).collect()
}

/// A symmetrically quantized int8 tensor: `data[i] ≈ value[i] / scale(i)`.
///
/// Scales are per output channel — one per element of the **last axis**
/// for rank ≥ 2 tensors (the output-feature axis of a `[in, out]` linear
/// weight), one for the whole tensor otherwise.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantTensor {
    /// Quantized values in `[-127, 127]`, row-major, same layout as the
    /// source tensor.
    pub data: Vec<i8>,
    /// One positive finite scale per channel (`shape.last()` entries for
    /// rank ≥ 2, exactly one otherwise).
    pub scales: Vec<f32>,
    /// Source tensor shape.
    pub shape: Vec<usize>,
}

impl QuantTensor {
    /// Quantizes `values` (shaped `shape`) with per-channel symmetric
    /// scales. Typed errors for NaN or ±inf inputs; never panics on data.
    pub fn quantize(values: &[f32], shape: &[usize]) -> Result<QuantTensor, QuantError> {
        assert_eq!(
            values.len(),
            shape.iter().product::<usize>(),
            "quantize: data/shape mismatch"
        );
        for (i, v) in values.iter().enumerate() {
            if v.is_nan() {
                return Err(QuantError::Nan { index: i });
            }
            if v.is_infinite() {
                return Err(QuantError::Infinite { index: i });
            }
        }
        let channels = if shape.len() >= 2 {
            *shape.last().unwrap()
        } else {
            1
        };
        let mut scales = vec![0.0f32; channels.max(1)];
        if channels > 0 {
            for (i, v) in values.iter().enumerate() {
                let c = i % channels.max(1);
                scales[c] = scales[c].max(v.abs());
            }
        }
        for s in &mut scales {
            *s = if *s == 0.0 { 1.0 } else { *s / 127.0 };
        }
        let data = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let s = scales[i % scales.len()];
                (v / s).round().clamp(-127.0, 127.0) as i8
            })
            .collect();
        Ok(QuantTensor {
            data,
            scales,
            shape: shape.to_vec(),
        })
    }

    /// Dequantizes back to f32 values (`data[i] as f32 * scale(i)`).
    pub fn dequantize(&self) -> Vec<f32> {
        self.data
            .iter()
            .enumerate()
            .map(|(i, &q)| q as f32 * self.scales[i % self.scales.len()])
            .collect()
    }

    /// Heap bytes of the quantized representation (data + scales), the
    /// number the bytes-per-model benchmark reports.
    pub fn encoded_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }
}

/// A borrowed view of a [`QuantTensor`], handed across the
/// `ParamSource` trait without cloning.
#[derive(Clone, Copy, Debug)]
pub struct QuantView<'a> {
    /// Quantized values, row-major.
    pub data: &'a [i8],
    /// Per-channel scales.
    pub scales: &'a [f32],
    /// Source tensor shape.
    pub shape: &'a [usize],
}

impl QuantTensor {
    /// A borrowed view of this tensor.
    pub fn view(&self) -> QuantView<'_> {
        QuantView {
            data: &self.data,
            scales: &self.scales,
            shape: &self.shape,
        }
    }
}

/// Largest `in_dim` the int8 GEMM accepts: |q| ≤ 127 on both sides, so i32
/// accumulation is exact as long as `in_dim · 127² < 2³¹`. Every model in
/// this workspace is orders of magnitude below the bound; plan lowering
/// checks it and keeps oversized matmuls on the f32 path.
pub const I8_MAX_IN_DIM: usize = (i32::MAX / (127 * 127)) as usize;

/// Dynamically quantizes `rows` rows of `k` activations each: per-row
/// symmetric scale `max|x| / 127` (1 for an all-zero row), values rounded
/// half-away and clamped. Non-finite activations saturate to ±127 under a
/// scale from the largest *finite* magnitude — inference inputs are not
/// validated at save time, so the kernel must stay total.
pub fn quantize_rows_i8(x: &[f32], rows: usize, k: usize, q: &mut [i8], scales: &mut [f32]) {
    assert_eq!(x.len(), rows * k, "quantize_rows_i8: input length mismatch");
    assert_eq!(
        q.len(),
        rows * k,
        "quantize_rows_i8: output length mismatch"
    );
    assert_eq!(
        scales.len(),
        rows,
        "quantize_rows_i8: scales length mismatch"
    );
    for r in 0..rows {
        let row = &x[r * k..(r + 1) * k];
        let mut maxabs = 0.0f32;
        for &v in row {
            if v.is_finite() {
                maxabs = maxabs.max(v.abs());
            }
        }
        let s = if maxabs == 0.0 { 1.0 } else { maxabs / 127.0 };
        scales[r] = s;
        for (o, &v) in q[r * k..(r + 1) * k].iter_mut().zip(row) {
            *o = (v / s).round().clamp(-127.0, 127.0) as i8;
        }
    }
}

/// The fused epilogue applied to one dequantized row: bias add then
/// optional GELU, as plain scalar per-element sequences (identical on
/// every tier by construction).
#[inline]
fn epilogue_row(row: &mut [f32], bias: Option<&[f32]>, gelu: bool) {
    if let Some(b) = bias {
        for (o, &bv) in row.iter_mut().zip(b) {
            *o += bv;
        }
    }
    if gelu {
        for o in row.iter_mut() {
            *o = crate::ops::gelu_scalar(*o);
        }
    }
}

/// Reference transcription of the int8 linear spec: quantize activations
/// per row, accumulate `i32` products naively, dequantize with
/// `s_row · s_col`, add bias, apply GELU. The differential suite pins
/// [`linear_i8_into`] against this bit-for-bit.
pub fn linear_i8_oracle(
    x: &[f32],
    rows: usize,
    in_dim: usize,
    w: QuantView<'_>,
    bias: Option<&[f32]>,
    gelu: bool,
    out: &mut [f32],
) {
    let out_dim = *w.shape.last().expect("int8 weight needs a shape");
    assert_eq!(w.shape, &[in_dim, out_dim], "int8 weight shape mismatch");
    assert_eq!(w.scales.len(), out_dim, "int8 weight scales mismatch");
    assert_eq!(out.len(), rows * out_dim, "int8 output length mismatch");
    let mut xq = vec![0i8; rows * in_dim];
    let mut sx = vec![0.0f32; rows];
    quantize_rows_i8(x, rows, in_dim, &mut xq, &mut sx);
    for r in 0..rows {
        for c in 0..out_dim {
            let mut acc = 0i32;
            for i in 0..in_dim {
                acc += xq[r * in_dim + i] as i32 * w.data[i * out_dim + c] as i32;
            }
            out[r * out_dim + c] = acc as f32 * (sx[r] * w.scales[c]);
        }
        epilogue_row(&mut out[r * out_dim..(r + 1) * out_dim], bias, gelu);
    }
}

/// int8 linear with dequantize-fused epilogue, tier-dispatched, one row
/// at a time: `out = dequant(quant(x) · Wq) + b`, optionally through GELU.
/// Bit-identical to [`linear_i8_oracle`] on every tier (integer
/// accumulation is order-exact; the epilogue is a fixed scalar sequence).
///
/// # Panics
/// Panics on shape mismatches, and if `in_dim` exceeds the overflow-safe
/// accumulation bound (`i32::MAX / 127²` ≈ 133k elements).
pub fn linear_i8_into(
    x: &[f32],
    rows: usize,
    in_dim: usize,
    w: QuantView<'_>,
    bias: Option<&[f32]>,
    gelu: bool,
    out: &mut [f32],
) {
    let out_dim = *w.shape.last().expect("int8 weight needs a shape");
    assert_eq!(w.shape, &[in_dim, out_dim], "int8 weight shape mismatch");
    assert_eq!(w.scales.len(), out_dim, "int8 weight scales mismatch");
    assert_eq!(x.len(), rows * in_dim, "int8 input length mismatch");
    assert_eq!(out.len(), rows * out_dim, "int8 output length mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), out_dim, "int8 bias length mismatch");
    }
    assert!(
        in_dim <= I8_MAX_IN_DIM,
        "int8 linear: in_dim {in_dim} exceeds the exact-accumulation bound"
    );
    if rows == 0 || out_dim == 0 {
        return;
    }
    let mut xq = vec![0i8; rows * in_dim];
    let mut sx = vec![0.0f32; rows];
    quantize_rows_i8(x, rows, in_dim, &mut xq, &mut sx);
    let t = super::tier();
    for (r, row_out) in out.chunks_exact_mut(out_dim).enumerate() {
        let xrow = &xq[r * in_dim..(r + 1) * in_dim];
        row_kernel(t, xrow, w.data, out_dim, sx[r], w.scales, row_out);
        epilogue_row(row_out, bias, gelu);
    }
}

/// One output row of the int8 GEMM: `out[c] = (Σ_i x[i]·w[i,c]) · sx·sw[c]`.
#[inline]
fn row_kernel(
    t: Tier,
    xrow: &[i8],
    w: &[i8],
    out_dim: usize,
    sx: f32,
    sw: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        match t {
            // SAFETY: dispatch only selects a tier the CPU supports.
            Tier::Avx512 => return unsafe { row_avx512(xrow, w, out_dim, sx, sw, out) },
            Tier::Fma => return unsafe { row_avx2(xrow, w, out_dim, sx, sw, out) },
            Tier::Scalar => {}
        }
    }
    let _ = t;
    row_scalar(xrow, w, out_dim, sx, sw, out);
}

fn row_scalar(xrow: &[i8], w: &[i8], out_dim: usize, sx: f32, sw: &[f32], out: &mut [f32]) {
    for (c, o) in out.iter_mut().enumerate() {
        let mut acc = 0i32;
        for (i, &xv) in xrow.iter().enumerate() {
            acc += xv as i32 * w[i * out_dim + c] as i32;
        }
        *o = acc as f32 * (sx * sw[c]);
    }
}

/// AVX2 row kernel: 8 output columns per vector, widening `i8 → i32` and
/// accumulating with `mullo/add` — the same exact integer sums as scalar.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_avx2(xrow: &[i8], w: &[i8], out_dim: usize, sx: f32, sw: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut c = 0;
    while c + 8 <= out_dim {
        let mut acc = _mm256_setzero_si256();
        for (i, &xv) in xrow.iter().enumerate() {
            let wv = _mm_loadl_epi64(w.as_ptr().add(i * out_dim + c) as *const __m128i);
            let wv32 = _mm256_cvtepi8_epi32(wv);
            let xv32 = _mm256_set1_epi32(xv as i32);
            acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(wv32, xv32));
        }
        let accf = _mm256_cvtepi32_ps(acc);
        let scale = _mm256_mul_ps(_mm256_set1_ps(sx), _mm256_loadu_ps(sw.as_ptr().add(c)));
        _mm256_storeu_ps(out.as_mut_ptr().add(c), _mm256_mul_ps(accf, scale));
        c += 8;
    }
    if c < out_dim {
        row_scalar_tail(xrow, w, out_dim, sx, sw, out, c);
    }
}

/// AVX-512 row kernel: 16 output columns per vector, same exact sums.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw")]
unsafe fn row_avx512(xrow: &[i8], w: &[i8], out_dim: usize, sx: f32, sw: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut c = 0;
    while c + 16 <= out_dim {
        let mut acc = _mm512_setzero_si512();
        for (i, &xv) in xrow.iter().enumerate() {
            let wv = _mm_loadu_si128(w.as_ptr().add(i * out_dim + c) as *const __m128i);
            let wv32 = _mm512_cvtepi8_epi32(wv);
            let xv32 = _mm512_set1_epi32(xv as i32);
            acc = _mm512_add_epi32(acc, _mm512_mullo_epi32(wv32, xv32));
        }
        let accf = _mm512_cvtepi32_ps(acc);
        let scale = _mm512_mul_ps(_mm512_set1_ps(sx), _mm512_loadu_ps(sw.as_ptr().add(c)));
        _mm512_storeu_ps(out.as_mut_ptr().add(c), _mm512_mul_ps(accf, scale));
        c += 16;
    }
    if c < out_dim {
        row_scalar_tail(xrow, w, out_dim, sx, sw, out, c);
    }
}

#[cfg(target_arch = "x86_64")]
fn row_scalar_tail(
    xrow: &[i8],
    w: &[i8],
    out_dim: usize,
    sx: f32,
    sw: &[f32],
    out: &mut [f32],
    from: usize,
) {
    for c in from..out_dim {
        let mut acc = 0i32;
        for (i, &xv) in xrow.iter().enumerate() {
            acc += xv as i32 * w[i * out_dim + c] as i32;
        }
        out[c] = acc as f32 * (sx * sw[c]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_known_answers() {
        // Normals.
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(0.5), 0x3800);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16 max
                                                      // Overflow → inf; inf stays inf.
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        // NaN stays NaN (quiet bit set, never collapses to inf).
        let nan = f32_to_f16_bits(f32::NAN);
        assert_eq!(nan & 0x7c00, 0x7c00);
        assert_ne!(nan & 0x03ff, 0);
        // Smallest f16 subnormal is 2^-24; half of it ties to even (zero).
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x3380_0000)), 0x0001); // 2^-24
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x3300_0000)), 0x0000); // 2^-25: tie → even
        assert_eq!(f32_to_f16_bits(1.5 * f32::from_bits(0x3300_0000)), 0x0001);
        // An f32 subnormal is far below half the smallest f16 subnormal.
        assert_eq!(f32_to_f16_bits(f32::from_bits(1)), 0x0000);
        assert_eq!(f32_to_f16_bits(-f32::from_bits(1)), 0x8000);
        // RNE on normals: 1 + 2^-11 is exactly halfway to the next f16 and
        // ties to even (mantissa stays 0); 1 + 3·2^-12 is 0.75 of a step
        // and rounds up to the next representable value.
        assert_eq!(f32_to_f16_bits(1.0 + 2.0f32.powi(-11)), 0x3c00);
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 2.0f32.powi(-12)), 0x3c01);
    }

    #[test]
    fn f16_widen_known_answers() {
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0xc000), -2.0);
        assert_eq!(f16_bits_to_f32(0x7bff), 65504.0);
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f16_bits_to_f32(0x03ff), 1023.0 * 2.0f32.powi(-24));
        assert_eq!(f16_bits_to_f32(0x0400), 2.0f32.powi(-14)); // smallest normal
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0xfc00), f32::NEG_INFINITY);
        assert!(f16_bits_to_f32(0x7e00).is_nan());
        assert_eq!(f16_bits_to_f32(0x0000).to_bits(), 0.0f32.to_bits());
        assert_eq!(f16_bits_to_f32(0x8000).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn f16_round_trips_every_bit_pattern() {
        // Every f16 value widens exactly and narrows back to itself; NaNs
        // keep NaN-ness (payload may move into the quiet form).
        for h in 0..=u16::MAX {
            let f = f16_bits_to_f32(h);
            let back = f32_to_f16_bits(f);
            if f.is_nan() {
                assert_eq!(back & 0x7c00, 0x7c00, "h={h:#06x}");
                assert_ne!(back & 0x03ff, 0, "h={h:#06x} NaN collapsed to inf");
                assert_eq!(back & 0x8000, h & 0x8000, "h={h:#06x} sign lost");
            } else {
                assert_eq!(back, h, "h={h:#06x} f={f}");
            }
        }
    }

    #[test]
    fn encode_f16_rejects_nan_with_a_typed_error() {
        let err = encode_f16(&[1.0, f32::NAN, 3.0]).unwrap_err();
        assert_eq!(err, QuantError::Nan { index: 1 });
        // ±inf is representable and passes through.
        let hs = encode_f16(&[f32::INFINITY, f32::NEG_INFINITY]).unwrap();
        assert_eq!(decode_f16(&hs), vec![f32::INFINITY, f32::NEG_INFINITY]);
    }

    #[test]
    fn int8_quantize_known_answers_and_edge_tensors() {
        // Per-tensor (rank 1): scale = max|x|/127.
        let q = QuantTensor::quantize(&[0.0, 63.5, -127.0], &[3]).unwrap();
        assert_eq!(q.scales, vec![1.0]);
        assert_eq!(q.data, vec![0, 64, -127]); // 63.5 rounds half-away to 64
        assert_eq!(q.dequantize(), vec![0.0, 64.0, -127.0]);
        // Per-channel (rank 2, shape [2, 3]): one scale per column.
        let vals = [1.0, 10.0, 0.0, -2.0, -5.0, 0.0];
        let q = QuantTensor::quantize(&vals, &[2, 3]).unwrap();
        assert_eq!(q.scales.len(), 3);
        assert!((q.scales[0] - 2.0 / 127.0).abs() < 1e-9);
        assert!((q.scales[1] - 10.0 / 127.0).abs() < 1e-9);
        assert_eq!(q.scales[2], 1.0); // all-zero channel
        let dq = q.dequantize();
        // Channel maxima are exactly representable (q = ±127).
        assert_eq!(dq[1], 10.0);
        assert_eq!(dq[3], -2.0);
        assert_eq!(dq[2], 0.0);
        assert_eq!(dq[5], 0.0);
        // All-zero tensor round-trips exactly.
        let q = QuantTensor::quantize(&[0.0; 4], &[4]).unwrap();
        assert_eq!(q.dequantize(), vec![0.0; 4]);
        // Single-element tensor round-trips exactly (q = ±127).
        let q = QuantTensor::quantize(&[-3.75], &[1]).unwrap();
        assert_eq!(q.dequantize(), vec![-3.75]);
        // Subnormal weights survive: scale is subnormal-range but finite.
        let tiny = f32::from_bits(1);
        let q = QuantTensor::quantize(&[tiny, -tiny], &[2]).unwrap();
        let dq = q.dequantize();
        assert!(dq[0] >= 0.0 && dq[1] <= 0.0);
        // ±0.0 quantizes to 0 and dequantizes to +0.0.
        let q = QuantTensor::quantize(&[0.0, -0.0], &[2]).unwrap();
        assert_eq!(q.data, vec![0, 0]);
        // Typed errors for NaN and ±inf.
        assert_eq!(
            QuantTensor::quantize(&[0.0, f32::NAN], &[2]).unwrap_err(),
            QuantError::Nan { index: 1 }
        );
        assert_eq!(
            QuantTensor::quantize(&[f32::INFINITY], &[1]).unwrap_err(),
            QuantError::Infinite { index: 0 }
        );
    }

    #[test]
    fn int8_max_magnitude_is_exact() {
        // The channel maximum always maps to ±127 exactly, so the largest
        // weight in every channel round-trips bit-exactly.
        let vals = [3.0e37, -3.0e37, 1.5e37];
        let q = QuantTensor::quantize(&vals, &[3]).unwrap();
        let dq = q.dequantize();
        assert_eq!(dq[0], 3.0e37);
        assert_eq!(dq[1], -3.0e37);
    }

    #[test]
    fn linear_i8_matches_oracle_and_handles_bias_gelu() {
        let mut rng = crate::rng::Rng::seed_from(71_100);
        for &(rows, k, n) in &[
            (1usize, 5usize, 3usize),
            (4, 16, 8),
            (3, 33, 17),
            (2, 8, 16),
        ] {
            let x = Tensor::randn(&[rows, k], 1.0, &mut rng);
            let wt = Tensor::randn(&[k, n], 0.5, &mut rng);
            let b = Tensor::randn(&[n], 0.1, &mut rng);
            let w = QuantTensor::quantize(wt.data(), &[k, n]).unwrap();
            for &gelu in &[false, true] {
                for bias in [None, Some(b.data())] {
                    let mut want = vec![0.0f32; rows * n];
                    let mut got = vec![0.0f32; rows * n];
                    linear_i8_oracle(x.data(), rows, k, w.view(), bias, gelu, &mut want);
                    linear_i8_into(x.data(), rows, k, w.view(), bias, gelu, &mut got);
                    assert!(
                        want.iter()
                            .zip(&got)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "rows={rows} k={k} n={n} gelu={gelu} bias={}",
                        bias.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn linear_i8_is_batch_composition_invariant() {
        // Row r of a batched call must equal the single-row call on row r:
        // activation scales are per row, so batch packing changes nothing.
        let mut rng = crate::rng::Rng::seed_from(71_101);
        let (rows, k, n) = (5usize, 12usize, 9usize);
        let x = Tensor::randn(&[rows, k], 1.0, &mut rng);
        let wt = Tensor::randn(&[k, n], 0.5, &mut rng);
        let w = QuantTensor::quantize(wt.data(), &[k, n]).unwrap();
        let mut batched = vec![0.0f32; rows * n];
        linear_i8_into(x.data(), rows, k, w.view(), None, false, &mut batched);
        for r in 0..rows {
            let mut single = vec![0.0f32; n];
            linear_i8_into(
                &x.data()[r * k..(r + 1) * k],
                1,
                k,
                w.view(),
                None,
                false,
                &mut single,
            );
            assert!(
                single
                    .iter()
                    .zip(&batched[r * n..(r + 1) * n])
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "row {r} differs between batch sizes"
            );
        }
    }

    #[test]
    fn int8_accuracy_is_within_the_symmetric_scheme_bound() {
        // Weight round-trip error is at most scale/2 per element.
        let mut rng = crate::rng::Rng::seed_from(71_102);
        let wt = Tensor::randn(&[32, 24], 1.0, &mut rng);
        let q = QuantTensor::quantize(wt.data(), &[32, 24]).unwrap();
        let dq = q.dequantize();
        for (i, (&a, &b)) in wt.data().iter().zip(&dq).enumerate() {
            let s = q.scales[i % q.scales.len()];
            assert!((a - b).abs() <= 0.5 * s + 1e-12, "i={i} a={a} b={b} s={s}");
        }
    }

    use crate::Tensor;
}
