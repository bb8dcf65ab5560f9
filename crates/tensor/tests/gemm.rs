//! Integration tests for the blocked SGEMM: equality (within one FMA
//! rounding per term) against the naive reference across tile-boundary
//! shapes, and IEEE special-value propagation (the old kernel's zero-skip masked NaN/inf —
//! these are the regression tests for that fix).

use msd_tensor::ops::gemm::{naive_gemm, sgemm_strided, MR, NR};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

fn random(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len).map(|_| rng.normal()).collect()
}

/// Comparison against the naive mul-then-add loop: the blocked kernel fuses
/// each multiply-add (FMA), which differs by at most one rounding per term,
/// so the reference match is toleranced.
fn assert_close(c: &[f32], reference: &[f32], label: &str) {
    assert_eq!(c.len(), reference.len(), "{label}: length");
    for (i, (&x, &y)) in c.iter().zip(reference).enumerate() {
        let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
        assert!((x - y).abs() <= tol, "{label}: element {i}: {x} vs {y}");
    }
}

/// Shapes chosen to hit every packing edge case: unit dims, sub-tile sizes,
/// exact microkernel/tile multiples, one-off-the-boundary sizes, ragged
/// everything, and a k crossing multiple KC slabs.
fn boundary_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (1, 1, 1),
        (1, 1, 2),
        (2, 1, 1),
        (1, 5, 1),
        (3, 2, 5),
        (7, 11, 13),
    ];
    for &m in &[MR - 1, MR, MR + 1, 2 * MR, 96, 97] {
        for &n in &[NR - 1, NR, NR + 1, 2 * NR + 3] {
            shapes.push((m, 9, n));
        }
    }
    // k crossing the KC=256 slab boundary exercises the accumulate path.
    shapes.push((10, 255, 18));
    shapes.push((10, 256, 18));
    shapes.push((10, 257, 18));
    shapes.push((10, 600, 18));
    shapes
}

#[test]
fn matmul_matches_naive_reference() {
    let mut rng = Rng::seed_from(100);
    for (m, k, n) in boundary_shapes() {
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let c = Tensor::from_vec(&[m, k], a.clone())
            .matmul(&Tensor::from_vec(&[k, n], b.clone()));
        assert_close(
            c.data(),
            &naive_gemm(m, k, n, &a, &b),
            &format!("shape {m}x{k}x{n}"),
        );
    }
}

#[test]
fn batched_and_broadcast_matmul_match_per_batch_naive() {
    let mut rng = Rng::seed_from(101);
    let (bsz, m, k, n) = (5, 7, 9, 11);
    let a = random(bsz * m * k, &mut rng);
    let b2 = random(k * n, &mut rng);
    let bb = random(bsz * k * n, &mut rng);
    let ta = Tensor::from_vec(&[bsz, m, k], a.clone());

    let broadcast = ta.matmul(&Tensor::from_vec(&[k, n], b2.clone()));
    let batched = ta.matmul(&Tensor::from_vec(&[bsz, k, n], bb.clone()));
    for bi in 0..bsz {
        let a_bi = &a[bi * m * k..(bi + 1) * m * k];
        assert_close(
            &broadcast.data()[bi * m * n..(bi + 1) * m * n],
            &naive_gemm(m, k, n, a_bi, &b2),
            &format!("broadcast batch {bi}"),
        );
        assert_close(
            &batched.data()[bi * m * n..(bi + 1) * m * n],
            &naive_gemm(m, k, n, a_bi, &bb[bi * k * n..(bi + 1) * k * n]),
            &format!("batched batch {bi}"),
        );
    }
}

#[test]
fn nan_propagates_through_matmul() {
    // Regression: the old kernel skipped a[i][k] == 0.0 terms, so a NaN/inf
    // in B could be silently dropped. IEEE says 0·NaN = NaN and the product
    // must reflect it.
    let a = Tensor::from_vec(&[2, 2], vec![0.0, 1.0, 2.0, 3.0]);
    let b = Tensor::from_vec(&[2, 2], vec![f32::NAN, 1.0, 1.0, 1.0]);
    let c = a.matmul(&b);
    // Row 0: 0·NaN + 1·1 = NaN; row 1: 2·NaN + 3·1 = NaN.
    assert!(c.data()[0].is_nan(), "0·NaN must propagate, got {}", c.data()[0]);
    assert!(c.data()[2].is_nan());
    assert_eq!(c.data()[1], 1.0);
    assert_eq!(c.data()[3], 5.0);
}

#[test]
fn infinity_propagates_through_matmul() {
    let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
    let b = Tensor::from_vec(&[2, 1], vec![f32::INFINITY, 2.0]);
    let c = a.matmul(&b);
    // 0·inf = NaN, NaN + 2 = NaN.
    assert!(c.data()[0].is_nan());
}

#[test]
fn nan_propagates_through_linear() {
    let x = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
    let w = Tensor::from_vec(&[2, 2], vec![f32::NAN, 1.0, 1.0, 1.0]);
    let b = Tensor::from_vec(&[2], vec![0.5, 0.5]);
    let y = x.linear(&w, Some(&b));
    assert!(y.data()[0].is_nan(), "0·NaN must propagate through linear");
    assert_eq!(y.data()[1], 1.5);
}

#[test]
fn nan_lhs_propagates_too() {
    let a = Tensor::from_vec(&[1, 2], vec![f32::NAN, 0.0]);
    let b = Tensor::from_vec(&[2, 1], vec![0.0, 5.0]);
    assert!(a.matmul(&b).data()[0].is_nan());
}

#[test]
fn strided_gemm_handles_degenerate_dims() {
    // m == 0 and n == 0 products are legal no-ops; k == 0 zero-fills.
    let mut c: Vec<f32> = vec![];
    sgemm_strided(0, 3, 4, &[], 3, 1, &[0.0; 12], 4, 1, &mut c);
    let mut c2 = vec![7.0f32; 4];
    sgemm_strided(2, 0, 2, &[], 0, 0, &[], 0, 0, &mut c2);
    assert_eq!(c2, vec![0.0; 4]);
}

#[test]
fn large_square_matches_naive() {
    // One "real" size (crosses MC, KC and NR boundaries simultaneously).
    let mut rng = Rng::seed_from(103);
    let (m, k, n) = (200, 300, 100);
    let a = random(m * k, &mut rng);
    let b = random(k * n, &mut rng);
    let c = Tensor::from_vec(&[m, k], a.clone()).matmul(&Tensor::from_vec(&[k, n], b.clone()));
    assert_close(c.data(), &naive_gemm(m, k, n, &a, &b), "200x300x100");
}
