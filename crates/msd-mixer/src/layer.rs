//! One decomposition layer: patching → encode → decode → unpatch
//! (Sec. III-B, Alg. 1 lines 6–10).

use crate::encdec::{MixerDims, PatchDecoder, PatchEncoder};
use crate::patching::{padded_len, patch, unpatch};
use msd_autograd::Var;
use msd_nn::{Ctx, ParamStore};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// How a layer turns the running residual into patches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchMode {
    /// The paper's temporal patching at the given patch size (Sec. III-C).
    Patch(usize),
    /// The MSD-Mixer-N ablation: N-HiTS-style max pooling at the given
    /// factor on the way in and linear interpolation on the way out
    /// (Sec. IV-G), i.e. no sub-series patches.
    Pool(usize),
}

impl PatchMode {
    fn factor(&self) -> usize {
        match *self {
            PatchMode::Patch(p) | PatchMode::Pool(p) => p,
        }
    }
}

/// A single MSD-Mixer layer producing a component `S_i` and its
/// representation `E_i` from the running residual `Z_{i-1}`.
pub struct MsdLayer {
    mode: PatchMode,
    input_len: usize,
    num_patches: usize,
    encoder: PatchEncoder,
    decoder: PatchDecoder,
    /// Constant `[L', L]` linear-interpolation matrix for [`PatchMode::Pool`].
    interp: Option<Tensor>,
}

impl MsdLayer {
    /// Builds a layer for input `[B, channels, input_len]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        channels: usize,
        input_len: usize,
        mode: PatchMode,
        d_model: usize,
        hidden_ratio: usize,
        drop_path: f32,
    ) -> Self {
        let p = mode.factor();
        let num_patches = padded_len(input_len, p) / p;
        let patch_size = match mode {
            PatchMode::Patch(p) => p,
            PatchMode::Pool(_) => 1,
        };
        let dims = MixerDims {
            channels,
            num_patches,
            patch_size,
            d_model,
            hidden_ratio,
            drop_path,
        };
        let interp =
            matches!(mode, PatchMode::Pool(_)).then(|| interp_matrix(num_patches, input_len));
        Self {
            mode,
            input_len,
            num_patches,
            encoder: PatchEncoder::new(store, rng, &format!("{name}.enc"), &dims),
            decoder: PatchDecoder::new(store, rng, &format!("{name}.dec"), &dims),
            interp,
        }
    }

    /// Patch count `L'` of this layer.
    pub fn num_patches(&self) -> usize {
        self.num_patches
    }

    /// The layer's patch mode.
    pub fn mode(&self) -> PatchMode {
        self.mode
    }

    /// Runs the layer on `z_prev` of shape `[B, C, L]`, returning
    /// `(E_i of [B, C, L', d], S_i of [B, C, L])`.
    pub fn forward(&self, ctx: &Ctx, z_prev: Var) -> (Var, Var) {
        let g = ctx.g;
        let shape = g.shape_of(z_prev);
        let (b, c, l) = (shape[0], shape[1], shape[2]);
        debug_assert_eq!(l, self.input_len, "layer built for L={}", self.input_len);
        match self.mode {
            PatchMode::Patch(p) => {
                let patched = patch(g, z_prev, p);
                let e = self.encoder.forward(ctx, patched);
                let s_patched = self.decoder.forward(ctx, e);
                let s = unpatch(g, s_patched, l);
                (e, s)
            }
            PatchMode::Pool(p) => {
                // Max-pool downsample, mix at patch size 1, interpolate back.
                let l_star = padded_len(l, p);
                let padded = if l_star == l {
                    z_prev
                } else {
                    g.pad_axis(z_prev, 2, l_star - l, 0)
                };
                let pooled = g.maxpool_last(padded, p); // [B, C, L']
                let patched = g.reshape(pooled, &[b, c, self.num_patches, 1]);
                let e = self.encoder.forward(ctx, patched);
                let s_patched = self.decoder.forward(ctx, e); // [B, C, L', 1]
                let coarse = g.reshape(s_patched, &[b * c, self.num_patches]);
                let w = g.input(self.interp.clone().expect("interp matrix"));
                let fine = g.matmul(coarse, w); // [B*C, L]
                let s = g.reshape(fine, &[b, c, l]);
                (e, s)
            }
        }
    }
}

/// Linear-interpolation upsampling matrix `[coarse, fine]`: row `i` carries
/// the weight of coarse sample `i` for each fine output position.
fn interp_matrix(coarse: usize, fine: usize) -> Tensor {
    let mut w = Tensor::zeros(&[coarse, fine]);
    if coarse == 1 {
        for t in 0..fine {
            w.data_mut()[t] = 1.0;
        }
        return w;
    }
    let scale = (coarse - 1) as f32 / (fine - 1).max(1) as f32;
    for t in 0..fine {
        let u = t as f32 * scale;
        let lo = (u.floor() as usize).min(coarse - 1);
        let hi = (lo + 1).min(coarse - 1);
        let frac = u - lo as f32;
        w.data_mut()[lo * fine + t] += 1.0 - frac;
        if hi != lo {
            w.data_mut()[hi * fine + t] += frac;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_autograd::Graph;

    fn layer_fixture(mode: PatchMode) -> (ParamStore, MsdLayer) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(10);
        let layer = MsdLayer::new(&mut store, &mut rng, "l0", 2, 12, mode, 4, 2, 0.0);
        (store, layer)
    }

    #[test]
    fn patch_layer_shapes() {
        let (store, layer) = layer_fixture(PatchMode::Patch(4));
        assert_eq!(layer.num_patches(), 3);
        let g = Graph::new();
        let mut rng = Rng::seed_from(11);
        let mut rng2 = Rng::seed_from(12);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let z = g.input(Tensor::randn(&[2, 2, 12], 1.0, &mut rng));
        let (e, s) = layer.forward(&ctx, z);
        assert_eq!(g.shape_of(e), vec![2, 2, 3, 4]);
        assert_eq!(g.shape_of(s), vec![2, 2, 12]);
    }

    #[test]
    fn pool_layer_shapes() {
        let (store, layer) = layer_fixture(PatchMode::Pool(4));
        let g = Graph::new();
        let mut rng = Rng::seed_from(13);
        let mut rng2 = Rng::seed_from(14);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let z = g.input(Tensor::randn(&[1, 2, 12], 1.0, &mut rng));
        let (e, s) = layer.forward(&ctx, z);
        assert_eq!(g.shape_of(e), vec![1, 2, 3, 4]);
        assert_eq!(g.shape_of(s), vec![1, 2, 12]);
    }

    #[test]
    fn gradients_reach_all_layer_params() {
        for mode in [PatchMode::Patch(4), PatchMode::Pool(4)] {
            let (store, layer) = layer_fixture(mode);
            let g = Graph::new();
            let mut rng = Rng::seed_from(15);
            let mut rng2 = Rng::seed_from(16);
            let ctx = Ctx::new(&g, &store, &mut rng2);
            let z = g.input(Tensor::randn(&[1, 2, 12], 1.0, &mut rng));
            let (e, s) = layer.forward(&ctx, z);
            let le = g.mean_all(g.square(e));
            let ls = g.mean_all(g.square(s));
            let loss = g.add(le, ls);
            let grads = g.backward(loss);
            assert_eq!(grads.len(), store.len(), "mode {mode:?}");
        }
    }

    #[test]
    fn interp_matrix_rows_are_convex_weights() {
        let w = interp_matrix(3, 9);
        // Each output column's weights sum to 1.
        for t in 0..9 {
            let sum: f32 = (0..3).map(|i| w.data()[i * 9 + t]).sum();
            assert!((sum - 1.0).abs() < 1e-6, "column {t} sums to {sum}");
        }
        // Endpoints map exactly.
        assert_eq!(w.data()[0], 1.0);
        assert_eq!(w.data()[2 * 9 + 8], 1.0);
    }

    #[test]
    fn interp_matrix_single_coarse_is_constant() {
        let w = interp_matrix(1, 5);
        assert_eq!(w.data(), &[1.0; 5]);
    }
}
