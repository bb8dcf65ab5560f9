//! Patch Encoder and Patch Decoder (Sec. III-D, Fig. 3).
//!
//! Both modules operate on patched tensors `[B, C, L', p]` and are built
//! from three axis-specific MLP blocks plus a linear projection:
//!
//! * **channel-wise** block — mixes along `C` (inter-channel correlations);
//! * **inter-patch** block — mixes along `L'` (global context);
//! * **intra-patch** block — mixes along `p` (sub-series variations).
//!
//! Mixing along an axis is realised by permuting that axis into last
//! position, applying the shared [`MlpBlock`], and permuting back. The
//! encoder ends with a linear `p → d` producing `E_i ∈ [B, C, L', d]`; the
//! decoder applies the same blocks in reverse order after a linear `d → p`.

use msd_autograd::Var;
use msd_nn::{Ctx, Linear, MlpBlock, ParamStore};
use msd_tensor::rng::Rng;

/// Applies `block` along axis 1 (`C`) of a `[B, C, L', p]` tensor.
fn mix_channels(ctx: &Ctx, block: &MlpBlock, x: Var) -> Var {
    let y = ctx.g.permute(x, &[0, 2, 3, 1]); // [B, L', p, C]
    let y = block.forward(ctx, y);
    ctx.g.permute(y, &[0, 3, 1, 2])
}

/// Applies `block` along axis 2 (`L'`) of a `[B, C, L', p]` tensor.
fn mix_patches(ctx: &Ctx, block: &MlpBlock, x: Var) -> Var {
    let y = ctx.g.permute(x, &[0, 1, 3, 2]); // [B, C, p, L']
    let y = block.forward(ctx, y);
    ctx.g.permute(y, &[0, 1, 3, 2])
}

/// Parameters shared by encoder and decoder construction.
pub(crate) struct MixerDims {
    /// Channel count `C`.
    pub channels: usize,
    /// Patch count `L'`.
    pub num_patches: usize,
    /// Patch size `p`.
    pub patch_size: usize,
    /// Representation width `d`.
    pub d_model: usize,
    /// Hidden multiplier for the MLP blocks.
    pub hidden_ratio: usize,
    /// DropPath rate.
    pub drop_path: f32,
}

impl MixerDims {
    fn hidden(&self, dim: usize) -> usize {
        (dim * self.hidden_ratio).max(1)
    }
}

/// The Patch Encoder (Fig. 3b): channel-wise → inter-patch → intra-patch MLP
/// blocks, then a linear `p → d` producing the component representation.
pub struct PatchEncoder {
    channel_block: MlpBlock,
    inter_block: MlpBlock,
    intra_block: MlpBlock,
    proj: Linear,
}

impl PatchEncoder {
    pub(crate) fn new(store: &mut ParamStore, rng: &mut Rng, name: &str, dims: &MixerDims) -> Self {
        Self {
            channel_block: MlpBlock::new(
                store,
                rng,
                &format!("{name}.channel"),
                dims.channels,
                dims.hidden(dims.channels),
                dims.drop_path,
            ),
            inter_block: MlpBlock::new(
                store,
                rng,
                &format!("{name}.inter"),
                dims.num_patches,
                dims.hidden(dims.num_patches),
                dims.drop_path,
            ),
            intra_block: MlpBlock::new(
                store,
                rng,
                &format!("{name}.intra"),
                dims.patch_size,
                dims.hidden(dims.patch_size),
                dims.drop_path,
            ),
            proj: Linear::new(
                store,
                rng,
                &format!("{name}.proj"),
                dims.patch_size,
                dims.d_model,
            ),
        }
    }

    /// Encodes patched input `[B, C, L', p]` into `E_i = [B, C, L', d]`.
    pub fn forward(&self, ctx: &Ctx, x: Var) -> Var {
        let x = mix_channels(ctx, &self.channel_block, x);
        let x = mix_patches(ctx, &self.inter_block, x);
        let x = self.intra_block.forward(ctx, x);
        self.proj.forward(ctx, x)
    }
}

/// The Patch Decoder (Fig. 3c): linear `d → p`, then intra-patch →
/// inter-patch → channel-wise MLP blocks (the encoder in reverse).
pub struct PatchDecoder {
    proj: Linear,
    intra_block: MlpBlock,
    inter_block: MlpBlock,
    channel_block: MlpBlock,
}

impl PatchDecoder {
    pub(crate) fn new(store: &mut ParamStore, rng: &mut Rng, name: &str, dims: &MixerDims) -> Self {
        Self {
            // Zero-initialised so each layer's component starts at exactly
            // zero (Z_i = X at init), which stabilises the doubly-residual
            // stack and speeds convergence markedly.
            proj: Linear::zeroed(
                store,
                &format!("{name}.proj"),
                dims.d_model,
                dims.patch_size,
            ),
            intra_block: MlpBlock::new(
                store,
                rng,
                &format!("{name}.intra"),
                dims.patch_size,
                dims.hidden(dims.patch_size),
                dims.drop_path,
            ),
            inter_block: MlpBlock::new(
                store,
                rng,
                &format!("{name}.inter"),
                dims.num_patches,
                dims.hidden(dims.num_patches),
                dims.drop_path,
            ),
            channel_block: MlpBlock::new(
                store,
                rng,
                &format!("{name}.channel"),
                dims.channels,
                dims.hidden(dims.channels),
                dims.drop_path,
            ),
        }
    }

    /// Decodes `E_i = [B, C, L', d]` back into a patched component
    /// `[B, C, L', p]`.
    pub fn forward(&self, ctx: &Ctx, e: Var) -> Var {
        let x = self.proj.forward(ctx, e);
        let x = self.intra_block.forward(ctx, x);
        let x = mix_patches(ctx, &self.inter_block, x);
        mix_channels(ctx, &self.channel_block, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_autograd::Graph;
    use msd_tensor::Tensor;

    fn dims() -> MixerDims {
        MixerDims {
            channels: 3,
            num_patches: 4,
            patch_size: 6,
            d_model: 5,
            hidden_ratio: 2,
            drop_path: 0.0,
        }
    }

    #[test]
    fn encoder_produces_representation_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let enc = PatchEncoder::new(&mut store, &mut rng, "enc", &dims());
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(1);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let x = g.input(Tensor::randn(&[2, 3, 4, 6], 1.0, &mut rng));
        let e = enc.forward(&ctx, x);
        assert_eq!(g.shape_of(e), vec![2, 3, 4, 5]);
    }

    #[test]
    fn decoder_reconstructs_patched_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let dec = PatchDecoder::new(&mut store, &mut rng, "dec", &dims());
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(3);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let e = g.input(Tensor::randn(&[2, 3, 4, 5], 1.0, &mut rng));
        let s = dec.forward(&ctx, e);
        assert_eq!(g.shape_of(s), vec![2, 3, 4, 6]);
    }

    #[test]
    fn encoder_decoder_gradients_reach_every_parameter() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        let d = dims();
        let enc = PatchEncoder::new(&mut store, &mut rng, "enc", &d);
        let dec = PatchDecoder::new(&mut store, &mut rng, "dec", &d);
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(5);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let x = g.input(Tensor::randn(&[1, 3, 4, 6], 1.0, &mut rng));
        let e = enc.forward(&ctx, x);
        let s = dec.forward(&ctx, e);
        let loss = g.mean_all(g.square(s));
        let grads = g.backward(loss);
        assert_eq!(grads.len(), store.len());
    }

    #[test]
    fn channel_mixing_actually_mixes_channels() {
        // With a single (channel) axis differing between two inputs, the
        // channel block must change outputs on other channels too.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(6);
        let d = dims();
        let enc = PatchEncoder::new(&mut store, &mut rng, "enc", &d);

        let base = Tensor::zeros(&[1, 3, 4, 6]);
        let mut bumped = base.clone();
        bumped.data_mut()[0] = 5.0; // channel 0, patch 0, pos 0

        let run = |input: Tensor| {
            let g = Graph::eval();
            let mut r = Rng::seed_from(7);
            let ctx = Ctx::new(&g, &store, &mut r);
            let x = g.input(input);
            g.value(enc.forward(&ctx, x))
        };
        let out_base = run(base);
        let out_bumped = run(bumped);
        // Compare channel 2's representation — it must differ because the
        // channel-wise block propagates information across channels.
        let n = 4 * 5;
        let a = &out_base.data()[2 * n..3 * n];
        let b = &out_bumped.data()[2 * n..3 * n];
        assert!(
            a.iter().zip(b).any(|(x, y)| (x - y).abs() > 1e-6),
            "channel mixing failed to propagate information"
        );
    }
}
