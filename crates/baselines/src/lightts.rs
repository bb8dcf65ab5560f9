//! LightTS-lite (Zhang et al., "Less Is More: Fast Multivariate Time Series
//! Forecasting with Light Sampling-oriented MLP Structures", 2022).
//!
//! Two sampling views of the input are mixed with small MLPs:
//!
//! * **continuous sampling** — non-overlapping chunks `[L/c, c]`, an MLP
//!   over the within-chunk axis captures local detail;
//! * **interval sampling** — the transposed view `[c, L/c]`, an MLP over
//!   the strided axis captures periodic structure.
//!
//! The two views are merged and projected to the task output per channel.

use crate::{task_output_len, Baseline};
use msd_autograd::Var;
use msd_nn::{Ctx, Linear, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// The light sampling MLP baseline.
pub struct LightTs {
    task: Task,
    input_len: usize,
    channels: usize,
    chunk: usize,
    continuous_fc: Linear,
    interval_fc: Linear,
    merge_fc: Linear,
    classify_fc: Option<Linear>,
}

impl LightTs {
    /// Builds LightTS for `[B, channels, input_len]` inputs; the chunk size
    /// is `⌊√L⌋` clipped to divide `L` (falling back to 1).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
    ) -> Self {
        // Largest divisor of L not exceeding √L keeps both views balanced.
        let target = (input_len as f32).sqrt() as usize;
        let chunk = (1..=target.max(1))
            .rev()
            .find(|c| input_len.is_multiple_of(*c))
            .unwrap_or(1);
        let out_len = match &task {
            Task::Classify { .. } => input_len,
            t => task_output_len(t, input_len),
        };
        let continuous_fc = Linear::new(store, rng, "lightts.cont", chunk, chunk);
        let interval_fc = Linear::new(
            store,
            rng,
            "lightts.interval",
            input_len / chunk,
            input_len / chunk,
        );
        let merge_fc = Linear::new(store, rng, "lightts.merge", 2 * input_len, out_len);
        let classify_fc = match &task {
            Task::Classify { classes } => Some(Linear::new(
                store,
                rng,
                "lightts.classify",
                channels * out_len,
                *classes,
            )),
            _ => None,
        };
        Self {
            task,
            input_len,
            channels,
            chunk,
            continuous_fc,
            interval_fc,
            merge_fc,
            classify_fc,
        }
    }
}

impl Baseline for LightTs {
    fn name(&self) -> &'static str {
        "LightTS"
    }

    fn task(&self) -> &Task {
        &self.task
    }

    fn forward(&self, ctx: &Ctx, x: &Tensor) -> Var {
        let g = ctx.g;
        let (b, c, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        debug_assert_eq!(c, self.channels);
        debug_assert_eq!(l, self.input_len);
        let n = l / self.chunk;
        let xin = g.input(x.clone());

        // Continuous view: [B, C, n, chunk], MLP over chunk.
        let cont = g.reshape(xin, &[b, c, n, self.chunk]);
        let cont = self.continuous_fc.forward(ctx, cont);
        let cont = g.gelu(cont);
        let cont = g.reshape(cont, &[b, c, l]);

        // Interval view: [B, C, chunk, n], MLP over n (strided samples).
        let intv = g.reshape(xin, &[b, c, n, self.chunk]);
        let intv = g.permute(intv, &[0, 1, 3, 2]);
        let intv = self.interval_fc.forward(ctx, intv);
        let intv = g.gelu(intv);
        let intv = g.permute(intv, &[0, 1, 3, 2]);
        let intv = g.reshape(intv, &[b, c, l]);

        // Merge both views and project.
        let both = g.concat(&[cont, intv], 2); // [B, C, 2L]
        let out = self.merge_fc.forward(ctx, both);
        match &self.task {
            Task::Classify { .. } => {
                let flat = g.reshape(out, &[b, self.channels * self.input_len]);
                self.classify_fc
                    .as_ref()
                    .expect("classify head")
                    .forward(ctx, flat)
            }
            _ => out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_learns, exercise_baseline};

    #[test]
    fn lightts_all_tasks() {
        exercise_baseline(|store, rng, c, l, task| Box::new(LightTs::new(store, rng, c, l, task)));
    }

    #[test]
    fn lightts_learns_sine_continuation() {
        check_learns(
            |store, rng, c, l, task| Box::new(LightTs::new(store, rng, c, l, task)),
            120,
            5e-3,
        );
    }

    #[test]
    fn chunk_divides_input_len() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        for l in [24usize, 25, 30, 96, 7] {
            let m = LightTs::new(&mut store, &mut rng, 1, l, Task::Reconstruct);
            assert_eq!(l % m.chunk, 0, "chunk {} does not divide {l}", m.chunk);
            assert!(m.chunk * m.chunk <= l || m.chunk == 1);
        }
    }
}
