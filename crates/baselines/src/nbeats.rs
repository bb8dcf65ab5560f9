//! N-BEATS, generic architecture (Oreshkin et al., ICLR 2020): a stack of
//! fully-connected blocks with *doubly residual* connections — each block
//! sees the backcast residual of the previous one and contributes an
//! additive forecast. Channel-independent: channels fold into the batch and
//! share weights, as in the original univariate design.
//!
//! This is the decomposition lineage MSD-Mixer advances (Sec. II): like
//! MSD-Mixer it subtracts per-layer reconstructions from a running
//! residual, but with plain time-axis MLPs and no residual-whiteness
//! constraint.

use crate::{task_output_len, Baseline};
use msd_autograd::Var;
use msd_nn::{Ctx, Linear, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

struct Block {
    hidden: Vec<Linear>,
    backcast_fc: Linear,
    forecast_fc: Linear,
}

/// The generic N-BEATS stack.
pub struct NBeats {
    task: Task,
    input_len: usize,
    channels: usize,
    blocks: Vec<Block>,
    classify_fc: Option<Linear>,
}

impl NBeats {
    /// Builds an N-BEATS stack of `num_blocks` blocks with `hidden`-wide
    /// 3-layer MLPs.
    pub fn with_arch(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
        num_blocks: usize,
        hidden: usize,
    ) -> Self {
        let out_len = match &task {
            Task::Classify { .. } => input_len,
            t => task_output_len(t, input_len),
        };
        let blocks = (0..num_blocks)
            .map(|i| {
                let mut layers = Vec::new();
                let mut dim = input_len;
                for j in 0..3 {
                    layers.push(Linear::new(
                        store,
                        rng,
                        &format!("nbeats.b{i}.fc{j}"),
                        dim,
                        hidden,
                    ));
                    dim = hidden;
                }
                Block {
                    hidden: layers,
                    backcast_fc: Linear::new(
                        store,
                        rng,
                        &format!("nbeats.b{i}.backcast"),
                        hidden,
                        input_len,
                    ),
                    forecast_fc: Linear::new(
                        store,
                        rng,
                        &format!("nbeats.b{i}.forecast"),
                        hidden,
                        out_len,
                    ),
                }
            })
            .collect();
        let classify_fc = match &task {
            Task::Classify { classes } => Some(Linear::new(
                store,
                rng,
                "nbeats.classify",
                channels * out_len,
                *classes,
            )),
            _ => None,
        };
        Self {
            task,
            input_len,
            channels,
            blocks,
            classify_fc,
        }
    }

    /// Default architecture: 3 blocks, hidden width `4 × input_len` capped
    /// at 256.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
    ) -> Self {
        let hidden = (4 * input_len).clamp(32, 256);
        Self::with_arch(store, rng, channels, input_len, task, 3, hidden)
    }
}

impl Baseline for NBeats {
    fn name(&self) -> &'static str {
        "N-BEATS"
    }

    fn task(&self) -> &Task {
        &self.task
    }

    fn forward(&self, ctx: &Ctx, x: &Tensor) -> Var {
        let g = ctx.g;
        let (b, c, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        debug_assert_eq!(l, self.input_len);
        // Channel independence: fold channels into the batch.
        let mut residual = g.reshape(g.input(x.clone()), &[b * c, l]);
        let mut forecast: Option<Var> = None;
        for block in &self.blocks {
            let mut h = residual;
            for fc in &block.hidden {
                h = g.relu(fc.forward(ctx, h));
            }
            let backcast = block.backcast_fc.forward(ctx, h);
            let f = block.forecast_fc.forward(ctx, h);
            residual = g.sub(residual, backcast);
            forecast = Some(match forecast {
                Some(acc) => g.add(acc, f),
                None => f,
            });
        }
        let out_len = g.shape_of(forecast.unwrap())[1];
        let out = g.reshape(forecast.unwrap(), &[b, c, out_len]);
        match &self.task {
            Task::Classify { .. } => {
                let flat = g.reshape(out, &[b, self.channels * out_len]);
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
    fn nbeats_all_tasks() {
        exercise_baseline(|store, rng, c, l, task| Box::new(NBeats::new(store, rng, c, l, task)));
    }

    #[test]
    fn nbeats_learns_sine_continuation() {
        check_learns(
            |store, rng, c, l, task| Box::new(NBeats::new(store, rng, c, l, task)),
            120,
            2e-3,
        );
    }

    #[test]
    fn channel_independence_shares_weights() {
        // Permuting the channels of the input must permute the output the
        // same way (no cross-channel mixing).
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let model = NBeats::new(&mut store, &mut rng, 2, 16, Task::Forecast { horizon: 4 });
        let mut a = Tensor::randn(&[1, 2, 16], 1.0, &mut rng);
        let run = |m: &NBeats, x: &Tensor, store: &ParamStore| {
            let g = msd_autograd::Graph::eval();
            let mut r = Rng::seed_from(0);
            let ctx = Ctx::new(&g, store, &mut r);
            g.value(m.forward(&ctx, x))
        };
        let out_a = run(&model, &a, &store);
        // Swap the two channels.
        let data = a.data_mut();
        for t in 0..16 {
            data.swap(t, 16 + t);
        }
        let out_b = run(&model, &a, &store);
        for t in 0..4 {
            assert!((out_a.at(&[0, 0, t]) - out_b.at(&[0, 1, t])).abs() < 1e-5);
            assert!((out_a.at(&[0, 1, t]) - out_b.at(&[0, 0, t])).abs() < 1e-5);
        }
    }
}
