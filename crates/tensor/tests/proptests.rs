//! Property-based tests for the tensor substrate.
//!
//! Cases are generated from the in-tree [`msd_tensor::rng::Rng`] by looping
//! over deterministic seeds, so the properties run fully offline with no
//! external property-testing dependency.

use msd_tensor::ops::permute_into;
use msd_tensor::{allclose, rng::Rng, strides_for, Tensor};

/// A deterministic small shape of rank 1..=4 with dims in 1..6.
fn small_shape(rng: &mut Rng) -> Vec<usize> {
    let rank = 1 + rng.below(4);
    (0..rank).map(|_| 1 + rng.below(5)).collect()
}

fn any_tensor(rng: &mut Rng) -> Tensor {
    let shape = small_shape(rng);
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| 200.0 * rng.uniform() - 100.0).collect();
    Tensor::from_vec(&shape, data)
}

#[test]
fn reshape_flatten_round_trip() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let t = any_tensor(&mut rng);
        let flat = t.reshape(&[t.len()]);
        let back = flat.reshape(t.shape());
        assert_eq!(back, t);
    }
}

#[test]
fn permute_then_inverse_is_identity() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let t = any_tensor(&mut rng);
        let nd = t.ndim();
        let mut perm: Vec<usize> = (0..nd).collect();
        rng.shuffle(&mut perm);
        let mut inv = vec![0usize; nd];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        let round = t.permute(&perm).permute(&inv);
        assert_eq!(round, t);
    }
}

#[test]
fn permute_preserves_multiset() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let t = any_tensor(&mut rng);
        let nd = t.ndim();
        let perm: Vec<usize> = (0..nd).rev().collect();
        let p = t.permute(&perm);
        let mut a = t.data().to_vec();
        let mut b = p.data().to_vec();
        a.sort_by(f32::total_cmp);
        b.sort_by(f32::total_cmp);
        assert_eq!(a, b);
    }
}

/// `permute_into` places every element by the index formula: the element
/// at input coordinates `c` lands at output coordinates
/// `(c[perm[0]], c[perm[1]], …)`. Ranks 0–6 with about a third of the
/// axes of extent 1 (the kernel drops those and merges axes that stay
/// adjacent), plus ranks 9–10, which take the kernel's heap fallback.
/// Unlike the round-trip and multiset properties above, this one fails for
/// a kernel that returns its input unchanged.
#[test]
fn permute_places_every_element_by_index_formula() {
    for seed in 0..512 {
        let mut rng = Rng::seed_from(seed);
        let rank = if seed % 64 == 63 {
            9 + rng.below(2)
        } else {
            rng.below(7)
        };
        let shape: Vec<usize> = (0..rank)
            .map(|_| {
                if rng.below(3) == 0 {
                    1
                } else {
                    2 + rng.below(3)
                }
            })
            .collect();
        let mut perm: Vec<usize> = (0..rank).collect();
        rng.shuffle(&mut perm);
        let n: usize = shape.iter().product();
        let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut out = vec![f32::NAN; n];
        permute_into(&shape, &src, &perm, &mut out);

        let in_strides = strides_for(&shape);
        let out_shape: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
        let out_strides = strides_for(&out_shape);
        for (i, &v) in src.iter().enumerate() {
            let coords: Vec<usize> = in_strides
                .iter()
                .zip(&shape)
                .map(|(&st, &e)| (i / st) % e)
                .collect();
            let o: usize = perm
                .iter()
                .zip(&out_strides)
                .map(|(&p, &st)| coords[p] * st)
                .sum();
            assert_eq!(
                out[o].to_bits(),
                v.to_bits(),
                "shape {shape:?} perm {perm:?}: input {coords:?} misplaced"
            );
        }
    }
}

#[test]
fn add_commutes() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let shape = small_shape(&mut rng);
        let a = Tensor::randn(&shape, 1.0, &mut rng);
        let b = Tensor::randn(&shape, 1.0, &mut rng);
        assert!(allclose(&a.add(&b), &b.add(&a), 1e-6));
    }
}

#[test]
fn sub_then_add_round_trips() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let shape = small_shape(&mut rng);
        let a = Tensor::randn(&shape, 1.0, &mut rng);
        let b = Tensor::randn(&shape, 1.0, &mut rng);
        assert!(allclose(&a.sub(&b).add(&b), &a, 1e-4));
    }
}

#[test]
fn matmul_matches_naive() {
    for seed in 0..128 {
        let mut rng = Rng::seed_from(seed);
        let (m, k, n) = (1 + rng.below(4), 1 + rng.below(4), 1 + rng.below(4));
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let c = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                assert!((c.at(&[i, j]) - acc).abs() < 1e-3);
            }
        }
    }
}

#[test]
fn matmul_distributes_over_add() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 2], 1.0, &mut rng);
        let c = Tensor::randn(&[4, 2], 1.0, &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        assert!(allclose(&lhs, &rhs, 1e-3));
    }
}

#[test]
fn linear_equals_matmul_on_2d() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 4], 1.0, &mut rng);
        assert!(allclose(&x.linear(&w, None), &x.matmul(&w), 1e-4));
    }
}

#[test]
fn pad_then_narrow_identity() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let t = any_tensor(&mut rng);
        let (before, after) = (rng.below(4), rng.below(4));
        let axis = t.ndim() - 1;
        let padded = t.pad_axis(axis, before, after);
        assert_eq!(padded.narrow(axis, before, t.shape()[axis]), t);
    }
}

#[test]
fn sum_axis_conserves_total() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let t = any_tensor(&mut rng);
        for axis in 0..t.ndim() {
            let s = t.sum_axis(axis);
            assert!((s.sum_all() - t.sum_all()).abs() <= 1e-2 + 1e-4 * t.sum_all().abs());
        }
    }
}

#[test]
fn concat_then_narrow_recovers_parts() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let (n1, n2) = (1 + rng.below(3), 1 + rng.below(3));
        let a = Tensor::randn(&[2, n1], 1.0, &mut rng);
        let b = Tensor::randn(&[2, n2], 1.0, &mut rng);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.narrow(1, 0, n1), a);
        assert_eq!(c.narrow(1, n1, n2), b);
    }
}

#[test]
fn strides_match_linear_layout() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let shape = small_shape(&mut rng);
        let strides = strides_for(&shape);
        // Walking the last axis moves by 1; walking axis i moves by the
        // product of inner extents.
        assert_eq!(*strides.last().unwrap(), 1);
        for i in 0..shape.len() - 1 {
            assert_eq!(strides[i], strides[i + 1] * shape[i + 1]);
        }
    }
}

#[test]
fn gelu_between_relu_and_identity_for_positive() {
    for seed in 0..256 {
        let mut rng = Rng::seed_from(seed);
        let x = 10.0 * rng.uniform();
        let t = Tensor::scalar(x);
        let g = t.gelu().item();
        assert!(g <= x + 1e-5);
        assert!(g >= 0.5 * x - 1e-5 || x < 1.0);
    }
}
