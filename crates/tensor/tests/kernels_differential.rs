//! Differential test suite for the kernel dispatch layer.
//!
//! Every dispatched kernel, GEMM included, must produce results
//! **bit-identical** to its naive oracle in
//! `msd_tensor::ops::kernels::oracle`, for every SIMD tier (each a
//! `kernels::with_tier` scope on the test's own thread), over seeded random
//! shapes seeded with NaN and ±inf.
//!
//! Comparison is on raw bits with ONE carve-out: NaN payload/sign is
//! canonicalised before comparing. When both operands of `x + y` are NaN,
//! IEEE 754 lets the implementation pick either payload, x86 `addss`
//! returns the first operand's, and LLVM freely commutes `fadd` — so two
//! correct compilations of the *same* accumulation order can surface
//! different NaN bits. Whether a value IS NaN, and every non-NaN bit
//! (including ±inf and signed zeros), is still exact.

use msd_tensor::ops::gemm::{path_for, sgemm_strided, GemmPath, MR, NR};
use msd_tensor::ops::kernels::{self, ew, norm, oracle, quant, reduce, Tier};
use msd_tensor::rng::Rng;

/// Raw bits, with every NaN collapsed to the canonical quiet NaN.
fn canon(x: f32) -> u32 {
    if x.is_nan() {
        0x7fc0_0000
    } else {
        x.to_bits()
    }
}

fn assert_bits(label: &str, got: f32, want: f32, ctx: &str) {
    assert!(
        canon(got) == canon(want),
        "{label}: {got:?} ({:#010x}) != oracle {want:?} ({:#010x}) [{ctx}]",
        got.to_bits(),
        want.to_bits()
    );
}

fn assert_slice_bits(label: &str, got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{label} length [{ctx}]");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            canon(*g) == canon(*w),
            "{label}[{i}]: {g:?} ({:#010x}) != oracle {w:?} ({:#010x}) [{ctx}]",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Random data with NaN and ±inf sprinkled in (when `specials` is set).
fn gen(rng: &mut Rng, n: usize, specials: bool) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if specials {
                match rng.below(64) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    _ => rng.normal() * 3.0,
                }
            } else {
                rng.normal()
            }
        })
        .collect()
}

/// 0/1 mask with roughly 30% zeros.
fn gen_mask(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.below(10) < 3 { 0.0 } else { 1.0 })
        .collect()
}

/// Lengths that exercise empty input, sub-lane tails, exact lane groups,
/// block boundaries, and multi-block parallel splits.
const LENS: &[usize] = &[0, 1, 7, 16, 17, 255, 1024, 4096, 4097, 12_288, 70_001];

fn check_reductions(rng: &mut Rng, ctx: &str) {
    for &n in LENS {
        for specials in [false, true] {
            let a = gen(rng, n, specials);
            let b = gen(rng, n, specials);
            let m = gen_mask(rng, n);
            let c = ctx.to_string() + &format!(" n={n} specials={specials}");
            assert_bits("sum", reduce::sum(&a), oracle::sum(&a), &c);
            assert_bits("sumsq", reduce::sumsq(&a), oracle::sumsq(&a), &c);
            assert_bits("dot", reduce::dot(&a, &b), oracle::dot(&a, &b), &c);
            assert_bits("sse", reduce::sse(&a, &b), oracle::sse(&a, &b), &c);
            assert_bits("sad", reduce::sad(&a, &b), oracle::sad(&a, &b), &c);
            assert_bits(
                "centered_sumsq",
                reduce::centered_sumsq(&a, 0.37),
                oracle::centered_sumsq(&a, 0.37),
                &c,
            );
            let (gl, gc) = reduce::masked_sse(&a, &b, &m);
            let (wl, wc) = oracle::masked_sse(&a, &b, &m);
            assert_bits("masked_sse.loss", gl, wl, &c);
            assert_bits("masked_sse.count", gc, wc, &c);
            assert_bits("maxv", reduce::maxv(&a), oracle::maxv(&a), &c);
            assert_bits("minv", reduce::minv(&a), oracle::minv(&a), &c);
        }
    }
}

fn check_elementwise(rng: &mut Rng, ctx: &str) {
    for &n in LENS {
        for specials in [false, true] {
            let a = gen(rng, n, specials);
            let b = gen(rng, n, specials);
            let m = gen_mask(rng, n);
            let c = ctx.to_string() + &format!(" n={n} specials={specials}");
            let mut got = vec![0.0f32; n];
            let mut want = vec![0.0f32; n];
            for op in [ew::Bin::Add, ew::Bin::Sub, ew::Bin::Mul, ew::Bin::Div] {
                ew::binary(op, &a, &b, &mut got);
                oracle::binary(op, &a, &b, &mut want);
                assert_slice_bits("binary", &got, &want, &c);
            }
            got.copy_from_slice(&a);
            want.copy_from_slice(&a);
            ew::axpy(0.5, &b, &mut got);
            oracle::axpy(0.5, &b, &mut want);
            assert_slice_bits("axpy", &got, &want, &c);

            ew::scaled_diff(&a, &b, 1.7, &mut got);
            oracle::scaled_diff(&a, &b, 1.7, &mut want);
            assert_slice_bits("scaled_diff", &got, &want, &c);

            ew::masked_scaled_diff(&a, &b, &m, 1.7, &mut got);
            oracle::masked_scaled_diff(&a, &b, &m, 1.7, &mut want);
            assert_slice_bits("masked_scaled_diff", &got, &want, &c);

            ew::sign_scaled(&a, &b, 0.25, &mut got);
            oracle::sign_scaled(&a, &b, 0.25, &mut want);
            assert_slice_bits("sign_scaled", &got, &want, &c);

            ew::gelu(&a, &mut got);
            oracle::gelu(&a, &mut want);
            assert_slice_bits("gelu", &got, &want, &c);

            ew::gelu_bwd(&a, &b, &mut got);
            oracle::gelu_bwd(&a, &b, &mut want);
            assert_slice_bits("gelu_bwd", &got, &want, &c);
        }
    }
    // add_bias over rows.
    for &(rows, d) in &[(1usize, 8usize), (3, 33), (64, 128), (257, 96)] {
        let base = gen(rng, rows * d, true);
        let bias = gen(rng, d, true);
        let c = ctx.to_string() + &format!(" rows={rows} d={d}");
        let mut got = base.clone();
        let mut want = base.clone();
        ew::add_bias(&mut got, &bias);
        oracle::add_bias(&mut want, &bias);
        assert_slice_bits("add_bias", &got, &want, &c);
    }
    // add_bias of short rows (the 16-row stack pattern) and of rows at and
    // past its width, whole patterns plus every tail length.
    for d in [1usize, 2, 4, 7, 8, 14, 15, 16, 17, 96] {
        for rows in [1usize, 5, 16, 97, 768] {
            let base = gen(rng, rows * d, true);
            let bias = gen(rng, d, true);
            let c = ctx.to_string() + &format!(" rows={rows} d={d}");
            let mut got = base.clone();
            let mut want = base;
            ew::add_bias(&mut got, &bias);
            oracle::add_bias(&mut want, &bias);
            assert_slice_bits("add_bias", &got, &want, &c);
        }
    }
}

fn check_norms(rng: &mut Rng, ctx: &str) {
    for &(rows, d) in &[(1usize, 4usize), (2, 16), (5, 33), (64, 128), (300, 96)] {
        let c = ctx.to_string() + &format!(" rows={rows} d={d}");
        let x = gen(rng, rows * d, false);
        let gamma = gen(rng, d, false);
        let beta = gen(rng, d, false);
        let dy = gen(rng, rows * d, false);

        let (mut out_g, mut mean_g, mut rstd_g) = (
            vec![0.0f32; rows * d],
            vec![0.0f32; rows],
            vec![0.0f32; rows],
        );
        let (mut out_w, mut mean_w, mut rstd_w) = (
            vec![0.0f32; rows * d],
            vec![0.0f32; rows],
            vec![0.0f32; rows],
        );
        norm::layernorm_fwd(
            &x,
            d,
            &gamma,
            &beta,
            1e-5,
            &mut out_g,
            &mut mean_g,
            &mut rstd_g,
        );
        oracle::layernorm_fwd(
            &x,
            d,
            &gamma,
            &beta,
            1e-5,
            &mut out_w,
            &mut mean_w,
            &mut rstd_w,
        );
        assert_slice_bits("layernorm_fwd.out", &out_g, &out_w, &c);
        assert_slice_bits("layernorm_fwd.mean", &mean_g, &mean_w, &c);
        assert_slice_bits("layernorm_fwd.rstd", &rstd_g, &rstd_w, &c);

        let (mut dx_g, mut dg_g, mut db_g) =
            (vec![0.0f32; rows * d], vec![0.0f32; d], vec![0.0f32; d]);
        let (mut dx_w, mut dg_w, mut db_w) =
            (vec![0.0f32; rows * d], vec![0.0f32; d], vec![0.0f32; d]);
        norm::layernorm_bwd(
            &x, d, &gamma, &mean_g, &rstd_g, &dy, &mut dx_g, &mut dg_g, &mut db_g,
        );
        oracle::layernorm_bwd(
            &x, d, &gamma, &mean_w, &rstd_w, &dy, &mut dx_w, &mut dg_w, &mut db_w,
        );
        assert_slice_bits("layernorm_bwd.dx", &dx_g, &dx_w, &c);
        assert_slice_bits("layernorm_bwd.dgamma", &dg_g, &dg_w, &c);
        assert_slice_bits("layernorm_bwd.dbeta", &db_g, &db_w, &c);

        let mut sm_g = vec![0.0f32; rows * d];
        let mut sm_w = vec![0.0f32; rows * d];
        norm::softmax_rows(&x, d, &mut sm_g);
        oracle::softmax_rows(&x, d, &mut sm_w);
        assert_slice_bits("softmax_rows", &sm_g, &sm_w, &c);
    }
}

fn check_quant(rng: &mut Rng, ctx: &str) {
    for &(rows, k, n) in &[
        (1usize, 4usize, 3usize),
        (2, 16, 8),
        (7, 33, 17),
        (64, 96, 40),
    ] {
        let c = ctx.to_string() + &format!(" rows={rows} k={k} n={n}");
        let x = gen(rng, rows * k, false);
        let wv = gen(rng, k * n, false);
        let bias = gen(rng, n, false);
        let w = quant::QuantTensor::quantize(&wv, &[k, n]).expect("finite weights");
        for &gelu in &[false, true] {
            for b in [None, Some(bias.as_slice())] {
                let mut got = vec![0.0f32; rows * n];
                let mut want = vec![0.0f32; rows * n];
                quant::linear_i8_into(&x, rows, k, w.view(), b, gelu, &mut got);
                quant::linear_i8_oracle(&x, rows, k, w.view(), b, gelu, &mut want);
                assert_slice_bits(
                    &format!("linear_i8 gelu={gelu} bias={}", b.is_some()),
                    &got,
                    &want,
                    &c,
                );
            }
        }
    }
}

/// An `m×k · k×n` product as (m, k, n).
type Shape = (usize, usize, usize);
/// How a layout passes a product: (A row/col stride, A length, B row/col
/// stride, B length).
type Layout = ((usize, usize), usize, (usize, usize), usize);

/// The GEMM sweep, in order: (m, k, n) and the layouts it runs in. First
/// shapes that straddle the small-n path's choice (n < 16 with m ≥ 16) and
/// the packed kernel's tile and slab edges, in all four layouts; then
/// pack-free products with a ragged row panel (m = 56, 112), ragged and
/// multiple column panels (n = 24, 33, 96) and a slab that continues from C
/// (k = 257), in the three layouts whose B columns are adjacent.
fn gemm_cases() -> Vec<(Shape, &'static [&'static str])> {
    let mut cases = Vec::new();
    for &m in &[1usize, 5, 6, 15, 16, 17, 97] {
        for &n in &[1usize, 2, 4, 7, 8, 14, 15, 16, 17] {
            for &k in &[1usize, 2, 16, 255, 256, 257] {
                cases.push(((m, k, n), &["nn", "nt", "tn", "padded"][..]));
            }
        }
    }
    for &m in &[56usize, 112] {
        for &n in &[24usize, 33, 96] {
            for &k in &[1usize, 96, 257] {
                cases.push(((m, k, n), &["nn", "tn", "padded"][..]));
            }
        }
    }
    cases
}

/// A product's layout, the way `matmul`, `matmul_nt`, `matmul_tn` and a
/// padded view pass it.
fn gemm_layout(name: &str, (m, k, n): Shape) -> Layout {
    match name {
        "nn" => ((k, 1), m * k, (n, 1), k * n),
        "nt" => ((k, 1), m * k, (1, k), n * k),
        "tn" => ((1, m), k * m, (n, 1), k * n),
        "padded" => ((k + 3, 1), m * (k + 3), (n + 2, 1), k * (n + 2)),
        _ => unreachable!("unknown layout {name}"),
    }
}

/// GEMM against its contract oracle over [`gemm_cases`]. Some rows of A
/// carry NaN, ±inf and ±0.
fn check_gemm(rng: &mut Rng, ctx: &str) {
    for ((m, k, n), layouts) in gemm_cases() {
        for &name in layouts {
            let ((a_rs, a_cs), a_len, (b_rs, b_cs), b_len) = gemm_layout(name, (m, k, n));
            let mut a = gen(rng, a_len, false);
            for i in (1..m).step_by(4) {
                for p in 0..k {
                    a[i * a_rs + p * a_cs] = gen(rng, 1, true)[0];
                }
            }
            let b = gen(rng, b_len, false);
            let mut got = vec![f32::NAN; m * n];
            let mut want = vec![0.0f32; m * n];
            sgemm_strided(m, k, n, &a, a_rs, a_cs, &b, b_rs, b_cs, &mut got);
            oracle::gemm(m, k, n, &a, a_rs, a_cs, &b, b_rs, b_cs, &mut want);
            let c = ctx.to_string() + &format!(" gemm {name} {m}x{k}x{n}");
            assert_slice_bits("gemm", &got, &want, &c);
        }
    }
}

/// Every path of `sgemm_strided` is in the sweep, and the pack-free
/// products hit each of their edges: a change to the path rule cannot
/// silently stop testing one of them.
#[test]
fn gemm_sweep_covers_every_path_and_pack_free_edge() {
    let mut paths = Vec::new();
    let mut pack_free = Vec::new();
    for (shape @ (m, k, n), layouts) in gemm_cases() {
        for &name in layouts {
            let ((a_rs, _), _, (_, b_cs), _) = gemm_layout(name, shape);
            let path = path_for(m, k, n, a_rs, b_cs);
            paths.push(path);
            if path == GemmPath::PackFree {
                pack_free.push(shape);
            }
        }
    }
    for path in [GemmPath::SmallN, GemmPath::PackFree, GemmPath::Packed] {
        assert!(paths.contains(&path), "no {path:?} product in the sweep");
    }
    let any = |hit: fn(Shape) -> bool| pack_free.iter().any(|&shape| hit(shape));
    assert!(
        any(|(m, _, _)| m % MR != 0 && m > MR),
        "no pack-free ragged row panel"
    );
    assert!(
        any(|(_, _, n)| n % NR != 0),
        "no pack-free ragged column panel"
    );
    assert!(
        any(|(_, _, n)| n > NR),
        "no pack-free product with several column panels"
    );
    assert!(
        any(|(_, k, _)| k > 256),
        "no pack-free slab continuing from C"
    );
}

/// Capture whole-run outputs under the CURRENT tier so the
/// sweep can assert cross-config bit-identity (oracle equality alone is
/// per-config; this pins every config to the exact same bits).
fn fingerprint(rng: &mut Rng) -> Vec<u32> {
    let mut fp = Vec::new();
    let a = gen(rng, 12_345, true);
    let b = gen(rng, 12_345, true);
    let m = gen_mask(rng, 12_345);
    fp.push(canon(reduce::sum(&a)));
    fp.push(canon(reduce::dot(&a, &b)));
    fp.push(canon(reduce::maxv(&a)));
    let (l, c) = reduce::masked_sse(&a, &b, &m);
    fp.push(canon(l));
    fp.push(canon(c));
    let mut out = vec![0.0f32; a.len()];
    ew::gelu(&a, &mut out);
    fp.extend(out.iter().map(|v| canon(*v)));
    let (rows, d) = (96usize, 128usize);
    let x = gen(rng, rows * d, false);
    let gamma = gen(rng, d, false);
    let beta = gen(rng, d, false);
    let (mut o, mut mean, mut rstd) = (
        vec![0.0f32; rows * d],
        vec![0.0f32; rows],
        vec![0.0f32; rows],
    );
    norm::layernorm_fwd(&x, d, &gamma, &beta, 1e-5, &mut o, &mut mean, &mut rstd);
    fp.extend(o.iter().map(|v| canon(*v)));
    // int8 linear: exact integer accumulation means every config must land
    // on identical bits, with no NaN carve-out needed for finite inputs.
    let (rows, k, n) = (48usize, 64usize, 32usize);
    let xa = gen(rng, rows * k, false);
    let wv = gen(rng, k * n, false);
    let bias = gen(rng, n, false);
    let w = quant::QuantTensor::quantize(&wv, &[k, n]).expect("finite weights");
    let mut qo = vec![0.0f32; rows * n];
    quant::linear_i8_into(&xa, rows, k, w.view(), Some(&bias), true, &mut qo);
    fp.extend(qo.iter().map(|v| canon(*v)));
    // A small-n product (n < 16, m ≥ 16), as `Tensor::linear` passes it.
    let (m, k, n) = (97usize, 40usize, 7usize);
    let a = gen(rng, m * k, false);
    let b = gen(rng, k * n, false);
    let mut go = vec![0.0f32; m * n];
    sgemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut go);
    fp.extend(go.iter().map(|v| canon(*v)));
    // A pack-free product with a ragged row and column panel and two KC
    // slabs.
    let (m, k, n) = (56usize, 300usize, 33usize);
    let a = gen(rng, m * k, false);
    let b = gen(rng, k * n, false);
    let mut go = vec![0.0f32; m * n];
    sgemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut go);
    fp.extend(go.iter().map(|v| canon(*v)));
    fp
}

#[test]
fn kernels_match_oracle_across_tiers_and_threads() {
    let mut reference_fp: Option<Vec<u32>> = None;
    let detected = kernels::detected_tier();
    for (leg, asked) in [
        ("scalar", Tier::Scalar),
        ("fma", Tier::Fma),
        ("avx512", Tier::Avx512),
        ("auto", detected),
    ] {
        let want = asked.min(detected);
        kernels::with_tier(asked, || {
            // A leg that ran on another tier would turn the sweep into a
            // silent auto-vs-auto comparison.
            assert_eq!(kernels::tier(), want, "{leg} must take effect");
            let ctx = format!("leg={leg} tier={}", want.name());
            // Same seed for every config: every config sees identical inputs,
            // so the oracle (and the fingerprint) must agree bit for bit.
            let mut rng = Rng::seed_from(0xC0FFEE);
            check_reductions(&mut rng, &ctx);
            check_elementwise(&mut rng, &ctx);
            check_norms(&mut rng, &ctx);
            check_quant(&mut rng, &ctx);
            check_gemm(&mut rng, &ctx);
            let fp = fingerprint(&mut rng);
            match &reference_fp {
                None => reference_fp = Some(fp),
                Some(want) => {
                    assert_eq!(
                        &fp, want,
                        "cross-config fingerprint diverged at {ctx} vs scalar"
                    );
                }
            }
        });
    }
}
