//! Per-layer task heads `f_i(E_i)` (Eq. 2).
//!
//! Training targets ([`msd_nn::Target`]) moved to `msd-nn` with the unified
//! [`msd_nn::Model`] trait; `msd_mixer::Target` remains as a re-export.

use crate::config::Task;
use msd_autograd::Var;
use msd_nn::{Ctx, Linear, ParamStore};

/// One layer's head: a linear projection of the flattened representation.
pub(crate) struct Head {
    task: Task,
    proj: Linear,
    channels: usize,
    num_patches: usize,
    d_model: usize,
}

impl Head {
    /// Builds the head for a layer with `num_patches` patches.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        task: &Task,
        channels: usize,
        input_len: usize,
        num_patches: usize,
        d_model: usize,
    ) -> Self {
        let flat = num_patches * d_model;
        // Heads are zero-initialised so the summed prediction (Eq. 2)
        // starts at zero and each layer learns its own additive
        // contribution — the same stabilisation as the decoder output.
        let proj = match task {
            // Forecast / reconstruct: shared across channels, per-channel
            // projection of [L'·d] to the output length.
            Task::Forecast { horizon } => Linear::zeroed(store, name, flat, *horizon),
            Task::Reconstruct => Linear::zeroed(store, name, flat, input_len),
            // Classification mean-pools the patch axis first (see
            // `forward`), then consumes all channels at once; pooling keeps
            // the head small enough to generalise from the archive's small
            // training sets.
            Task::Classify { classes } => Linear::zeroed(store, name, channels * d_model, *classes),
        };
        Self {
            task: task.clone(),
            proj,
            channels,
            num_patches,
            d_model,
        }
    }

    /// Projects `E_i` of `[B, C, L', d]` to the task output
    /// (`[B, C, H]` / `[B, C, L]` / `[B, classes]`).
    pub fn forward(&self, ctx: &Ctx, e: Var) -> Var {
        let g = ctx.g;
        let shape = g.shape_of(e);
        let b = shape[0];
        debug_assert_eq!(shape[1], self.channels);
        debug_assert_eq!(shape[2], self.num_patches);
        debug_assert_eq!(shape[3], self.d_model);
        match self.task {
            Task::Forecast { .. } | Task::Reconstruct => {
                let flat = g.reshape(e, &[b, self.channels, self.num_patches * self.d_model]);
                self.proj.forward(ctx, flat)
            }
            Task::Classify { .. } => {
                // Mean-pool the patch axis: [B, C, L', d] → [B, C, d].
                let pooled = g.mean_axis(e, 2);
                let flat = g.reshape(pooled, &[b, self.channels * self.d_model]);
                let flat = ctx.dropout(flat, 0.1);
                self.proj.forward(ctx, flat)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_autograd::Graph;
    use msd_tensor::Tensor;

    fn run_head(task: Task) -> Vec<usize> {
        use msd_tensor::rng::Rng;
        let mut store = ParamStore::new();
        let head = Head::new(&mut store, "h", &task, 3, 24, 4, 8);
        let g = Graph::new();
        let mut rng = Rng::seed_from(20);
        let mut rng2 = Rng::seed_from(21);
        let e_t = Tensor::randn(&[2, 3, 4, 8], 1.0, &mut rng);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let e = g.input(e_t);
        g.shape_of(head.forward(&ctx, e))
    }

    #[test]
    fn forecast_head_shape() {
        assert_eq!(run_head(Task::Forecast { horizon: 12 }), vec![2, 3, 12]);
    }

    #[test]
    fn reconstruct_head_shape() {
        assert_eq!(run_head(Task::Reconstruct), vec![2, 3, 24]);
    }

    #[test]
    fn classify_head_shape() {
        assert_eq!(run_head(Task::Classify { classes: 5 }), vec![2, 5]);
    }
}
