//! PatchTST-lite (Nie et al., "A Time Series is Worth 64 Words", ICLR
//! 2023): channel-independent patch tokens fed to a small pre-norm
//! Transformer encoder. Scaled down (2 layers, d=32 by default) but
//! architecturally faithful: patching, learned positional embeddings,
//! multi-head self-attention, GELU feed-forward, residual connections and
//! layer norm.

use crate::{task_output_len, Baseline};
use msd_autograd::{ParamId, Var};
use msd_nn::{Ctx, LayerNorm, Linear, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

struct EncoderLayer {
    ln1: LayerNorm,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    ln2: LayerNorm,
    ff1: Linear,
    ff2: Linear,
}

/// The PatchTST-lite model.
pub struct PatchTst {
    task: Task,
    input_len: usize,
    channels: usize,
    patch_len: usize,
    num_patches: usize,
    d_model: usize,
    heads: usize,
    embed: Linear,
    pos: ParamId,
    layers: Vec<EncoderLayer>,
    head_fc: Linear,
    classify_fc: Option<Linear>,
}

impl PatchTst {
    /// Builds PatchTST-lite with explicit architecture knobs.
    #[allow(clippy::too_many_arguments)]
    pub fn with_arch(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
        patch_len: usize,
        d_model: usize,
        heads: usize,
        depth: usize,
    ) -> Self {
        assert!(
            d_model.is_multiple_of(heads),
            "d_model must divide into heads"
        );
        let patch_len = patch_len.clamp(1, input_len);
        let num_patches = input_len.div_ceil(patch_len);
        let out_len = match &task {
            Task::Classify { .. } => input_len,
            t => task_output_len(t, input_len),
        };
        let embed = Linear::new(store, rng, "ptst.embed", patch_len, d_model);
        let pos = store.register(
            "ptst.pos",
            Tensor::randn(&[num_patches * d_model], 0.02, rng),
        );
        let layers = (0..depth)
            .map(|i| EncoderLayer {
                ln1: LayerNorm::new(store, &format!("ptst.l{i}.ln1"), d_model),
                wq: Linear::new(store, rng, &format!("ptst.l{i}.wq"), d_model, d_model),
                wk: Linear::new(store, rng, &format!("ptst.l{i}.wk"), d_model, d_model),
                wv: Linear::new(store, rng, &format!("ptst.l{i}.wv"), d_model, d_model),
                wo: Linear::new(store, rng, &format!("ptst.l{i}.wo"), d_model, d_model),
                ln2: LayerNorm::new(store, &format!("ptst.l{i}.ln2"), d_model),
                ff1: Linear::new(store, rng, &format!("ptst.l{i}.ff1"), d_model, 2 * d_model),
                ff2: Linear::new(store, rng, &format!("ptst.l{i}.ff2"), 2 * d_model, d_model),
            })
            .collect();
        let head_fc = Linear::new(store, rng, "ptst.head", num_patches * d_model, out_len);
        let classify_fc = match &task {
            Task::Classify { classes } => Some(Linear::new(
                store,
                rng,
                "ptst.classify",
                channels * d_model,
                *classes,
            )),
            _ => None,
        };
        Self {
            task,
            input_len,
            channels,
            patch_len,
            num_patches,
            d_model,
            heads,
            embed,
            pos,
            layers,
            head_fc,
            classify_fc,
        }
    }

    /// Default architecture: patch length `max(L/6, 4)`, d=32, 4 heads,
    /// 2 encoder layers.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
    ) -> Self {
        let patch_len = (input_len / 6).max(4).min(input_len);
        Self::with_arch(store, rng, channels, input_len, task, patch_len, 32, 4, 2)
    }

    /// Multi-head self-attention over tokens `[B', N, d]`.
    fn attention(&self, ctx: &Ctx, layer: &EncoderLayer, x: Var, bprime: usize) -> Var {
        let g = ctx.g;
        let (n, d, h) = (self.num_patches, self.d_model, self.heads);
        let dh = d / h;
        let split = |v: Var| -> Var {
            // [B', N, d] → [B'*h, N, dh]
            let v = g.reshape(v, &[bprime, n, h, dh]);
            let v = g.permute(v, &[0, 2, 1, 3]);
            g.reshape(v, &[bprime * h, n, dh])
        };
        let q = split(layer.wq.forward(ctx, x));
        let k = split(layer.wk.forward(ctx, x));
        let v = split(layer.wv.forward(ctx, x));
        let kt = g.permute(k, &[0, 2, 1]); // [B'*h, dh, N]
        let scores = g.scale(g.matmul(q, kt), 1.0 / (dh as f32).sqrt());
        let attn = g.softmax_last(scores);
        let mixed = g.matmul(attn, v); // [B'*h, N, dh]
                                       // Back to [B', N, d].
        let mixed = g.reshape(mixed, &[bprime, h, n, dh]);
        let mixed = g.permute(mixed, &[0, 2, 1, 3]);
        let mixed = g.reshape(mixed, &[bprime, n, d]);
        layer.wo.forward(ctx, mixed)
    }
}

impl Baseline for PatchTst {
    fn name(&self) -> &'static str {
        "PatchTST"
    }

    fn task(&self) -> &Task {
        &self.task
    }

    fn forward(&self, ctx: &Ctx, x: &Tensor) -> Var {
        let g = ctx.g;
        let (b, c, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        debug_assert_eq!(l, self.input_len);
        let bprime = b * c;
        let padded_len = self.num_patches * self.patch_len;

        // Channel-independent patch tokens.
        let mut tokens = g.reshape(g.input(x.clone()), &[bprime, l]);
        if padded_len != l {
            tokens = g.pad_axis(tokens, 1, padded_len - l, 0);
        }
        let tokens = g.reshape(tokens, &[bprime, self.num_patches, self.patch_len]);
        let mut hidden = self.embed.forward(ctx, tokens); // [B', N, d]

        // Learned positional embedding, broadcast over the batch by adding
        // along the flattened (N·d) trailing axis.
        let flat = g.reshape(hidden, &[bprime, self.num_patches * self.d_model]);
        let flat = g.add_bcast_last(flat, ctx.p(self.pos));
        hidden = g.reshape(flat, &[bprime, self.num_patches, self.d_model]);

        // Pre-norm Transformer encoder.
        for layer in &self.layers {
            let normed = layer.ln1.forward(ctx, hidden);
            let attn = self.attention(ctx, layer, normed, bprime);
            hidden = g.add(hidden, attn);
            let normed = layer.ln2.forward(ctx, hidden);
            let ff = layer
                .ff2
                .forward(ctx, g.gelu(layer.ff1.forward(ctx, normed)));
            hidden = g.add(hidden, ff);
        }

        match &self.task {
            Task::Classify { .. } => {
                // Mean-pool tokens, concat channels, project.
                let pooled = g.mean_axis(hidden, 1); // [B', d]
                let flat = g.reshape(pooled, &[b, self.channels * self.d_model]);
                self.classify_fc
                    .as_ref()
                    .expect("classify head")
                    .forward(ctx, flat)
            }
            _ => {
                let flat = g.reshape(hidden, &[bprime, self.num_patches * self.d_model]);
                let out = self.head_fc.forward(ctx, flat); // [B', out_len]
                let out_len = g.shape_of(out)[1];
                g.reshape(out, &[b, c, out_len])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_learns, exercise_baseline};

    #[test]
    fn patchtst_all_tasks() {
        exercise_baseline(|store, rng, c, l, task| Box::new(PatchTst::new(store, rng, c, l, task)));
    }

    #[test]
    fn patchtst_learns_sine_continuation() {
        check_learns(
            |store, rng, c, l, task| Box::new(PatchTst::new(store, rng, c, l, task)),
            150,
            2e-3,
        );
    }

    #[test]
    fn attention_is_permutation_sensitive_via_positions() {
        // With positional embeddings, reversing the input sequence must
        // change the forecast (the model is not order-blind).
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        let model = PatchTst::new(&mut store, &mut rng, 1, 24, Task::Forecast { horizon: 6 });
        let x: Vec<f32> = (0..24).map(|i| (i as f32 / 3.0).sin()).collect();
        let fwd = Tensor::from_vec(&[1, 1, 24], x.clone());
        let rev = Tensor::from_vec(&[1, 1, 24], x.into_iter().rev().collect());
        let run = |input: &Tensor| {
            let g = msd_autograd::Graph::eval();
            let mut r = Rng::seed_from(0);
            let ctx = Ctx::new(&g, &store, &mut r);
            g.value(model.forward(&ctx, input))
        };
        let a = run(&fwd);
        let b = run(&rev);
        assert!(
            !msd_tensor::allclose(&a, &b, 1e-4),
            "order-blind transformer"
        );
    }

    #[test]
    fn handles_non_divisible_lengths() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(5);
        // L=25, patch 4 → 7 patches with padding.
        let model = PatchTst::with_arch(
            &mut store,
            &mut rng,
            2,
            25,
            Task::Forecast { horizon: 5 },
            4,
            16,
            2,
            1,
        );
        let x = Tensor::randn(&[2, 2, 25], 1.0, &mut rng);
        let g = msd_autograd::Graph::eval();
        let mut r = Rng::seed_from(0);
        let ctx = Ctx::new(&g, &store, &mut r);
        let y = model.forward(&ctx, &x);
        assert_eq!(g.shape_of(y), vec![2, 2, 5]);
    }
}
