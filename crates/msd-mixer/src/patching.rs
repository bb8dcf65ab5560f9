//! Multi-scale temporal patching (Sec. III-C, Fig. 2).
//!
//! A series `[B, C, L]` is zero-padded *at the beginning* of the time axis
//! until its length divides the patch size `p`, then segmented into
//! non-overlapping patches, yielding `[B, C, L', p]` with `L' = ⌈L/p⌉`.
//! Unpatching reverses both steps.

use msd_autograd::{Graph, Var};

/// The padded length `⌈L/p⌉·p`.
pub fn padded_len(len: usize, p: usize) -> usize {
    len.div_ceil(p) * p
}

/// Patches `x` of shape `[B, C, L]` into `[B, C, L', p]` with left zero
/// padding (Sec. III-C).
pub fn patch(g: &Graph, x: Var, p: usize) -> Var {
    let shape = g.shape_of(x);
    assert_eq!(shape.len(), 3, "patch expects [B, C, L], got {shape:?}");
    let (b, c, l) = (shape[0], shape[1], shape[2]);
    let l_star = padded_len(l, p);
    let padded = if l_star == l {
        x
    } else {
        g.pad_axis(x, 2, l_star - l, 0)
    };
    g.reshape(padded, &[b, c, l_star / p, p])
}

/// Unpatches `s` of shape `[B, C, L', p]` back to `[B, C, len]`, dropping
/// the left padding that [`patch`] added.
pub fn unpatch(g: &Graph, s: Var, len: usize) -> Var {
    let shape = g.shape_of(s);
    assert_eq!(
        shape.len(),
        4,
        "unpatch expects [B, C, L', p], got {shape:?}"
    );
    let (b, c, lp, p) = (shape[0], shape[1], shape[2], shape[3]);
    let l_star = lp * p;
    assert!(
        l_star >= len,
        "unpatch target length {len} exceeds padded {l_star}"
    );
    let flat = g.reshape(s, &[b, c, l_star]);
    if l_star == len {
        flat
    } else {
        g.narrow(flat, 2, l_star - len, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_autograd::Graph;
    use msd_tensor::rng::Rng;
    use msd_tensor::Tensor;

    #[test]
    fn padded_len_rounds_up() {
        assert_eq!(padded_len(96, 24), 96);
        assert_eq!(padded_len(96, 5), 100);
        assert_eq!(padded_len(1, 4), 4);
    }

    #[test]
    fn patch_shape_divisible() {
        let g = Graph::new();
        let x = g.input(Tensor::zeros(&[2, 3, 12]));
        let p = patch(&g, x, 4);
        assert_eq!(g.shape_of(p), vec![2, 3, 3, 4]);
    }

    #[test]
    fn patch_shape_with_padding() {
        let g = Graph::new();
        let x = g.input(Tensor::zeros(&[1, 2, 10]));
        let p = patch(&g, x, 4);
        assert_eq!(g.shape_of(p), vec![1, 2, 3, 4]);
    }

    #[test]
    fn patch_places_padding_at_front() {
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(&[1, 1, 3], vec![1.0, 2.0, 3.0]));
        let p = patch(&g, x, 2);
        // padded to [0, 1, 2, 3] → patches [[0,1],[2,3]]
        assert_eq!(g.value(p).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn unpatch_round_trips_exactly() {
        let mut rng = Rng::seed_from(8);
        for (l, p) in [(12usize, 4usize), (10, 4), (7, 3), (96, 24), (5, 5)] {
            let g = Graph::new();
            let x0 = Tensor::randn(&[2, 3, l], 1.0, &mut rng);
            let x = g.input(x0.clone());
            let patched = patch(&g, x, p);
            let back = unpatch(&g, patched, l);
            assert_eq!(g.value(back), x0, "round trip failed for L={l}, p={p}");
        }
    }

    #[test]
    fn gradients_flow_through_patching() {
        let g = Graph::new();
        let mut rng = Rng::seed_from(9);
        let x0 = Tensor::randn(&[1, 2, 10], 1.0, &mut rng);
        let x = g.param(0, x0);
        let patched = patch(&g, x, 4);
        let back = unpatch(&g, patched, 10);
        let loss = g.mean_all(g.square(back));
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().shape(), &[1, 2, 10]);
        // The round trip is the identity, so d mean(x²)/dx = 2x/n must be
        // nonzero wherever x is.
        assert!(grads.get(0).unwrap().sq_norm() > 0.0);
    }
}
