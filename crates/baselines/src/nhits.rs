//! N-HiTS (Challu et al., AAAI 2023): N-BEATS-style doubly-residual blocks
//! where each block (i) max-pools its input at a block-specific rate before
//! the MLP and (ii) predicts low-resolution basis coefficients that are
//! linearly interpolated up to the backcast/forecast lengths — hierarchical
//! multi-rate decomposition. Channel-independent like [`crate::NBeats`].

use crate::{task_output_len, Baseline};
use msd_autograd::Var;
use msd_nn::{Ctx, Linear, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

struct Block {
    pool: usize,
    hidden: Vec<Linear>,
    backcast_fc: Linear,
    forecast_fc: Linear,
    /// Constant interpolation matrices `[coarse, fine]`.
    backcast_interp: Tensor,
    forecast_interp: Tensor,
}

/// The N-HiTS stack.
pub struct NHits {
    task: Task,
    input_len: usize,
    channels: usize,
    blocks: Vec<Block>,
    classify_fc: Option<Linear>,
}

impl NHits {
    /// Builds N-HiTS with pooling rates `pools` (one block per rate; rates
    /// must not exceed `input_len`).
    pub fn with_pools(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
        pools: &[usize],
        hidden: usize,
    ) -> Self {
        let out_len = match &task {
            Task::Classify { .. } => input_len,
            t => task_output_len(t, input_len),
        };
        let blocks = pools
            .iter()
            .enumerate()
            .map(|(i, &pool)| {
                let pool = pool.clamp(1, input_len);
                let pooled_len = input_len.div_ceil(pool);
                // Coefficient counts shrink with the pooling rate
                // (hierarchical resolution).
                let back_coarse = (input_len / pool).max(1);
                let fore_coarse = (out_len / pool).max(1);
                let mut layers = Vec::new();
                let mut dim = pooled_len;
                for j in 0..2 {
                    layers.push(Linear::new(
                        store,
                        rng,
                        &format!("nhits.b{i}.fc{j}"),
                        dim,
                        hidden,
                    ));
                    dim = hidden;
                }
                Block {
                    pool,
                    hidden: layers,
                    backcast_fc: Linear::new(
                        store,
                        rng,
                        &format!("nhits.b{i}.backcast"),
                        hidden,
                        back_coarse,
                    ),
                    forecast_fc: Linear::new(
                        store,
                        rng,
                        &format!("nhits.b{i}.forecast"),
                        hidden,
                        fore_coarse,
                    ),
                    backcast_interp: interp_matrix(back_coarse, input_len),
                    forecast_interp: interp_matrix(fore_coarse, out_len),
                }
            })
            .collect();
        let classify_fc = match &task {
            Task::Classify { classes } => Some(Linear::new(
                store,
                rng,
                "nhits.classify",
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

    /// Default: three blocks at pooling rates 4 / 2 / 1, hidden width 128.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
    ) -> Self {
        Self::with_pools(store, rng, channels, input_len, task, &[4, 2, 1], 128)
    }
}

impl Baseline for NHits {
    fn name(&self) -> &'static str {
        "N-HiTS"
    }

    fn task(&self) -> &Task {
        &self.task
    }

    fn forward(&self, ctx: &Ctx, x: &Tensor) -> Var {
        let g = ctx.g;
        let (b, c, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        debug_assert_eq!(l, self.input_len);
        let mut residual = g.reshape(g.input(x.clone()), &[b * c, l]);
        let mut forecast: Option<Var> = None;
        for block in &self.blocks {
            // Multi-rate input: pad to a multiple of the pool, then max-pool.
            let padded_len = l.div_ceil(block.pool) * block.pool;
            let padded = if padded_len == l {
                residual
            } else {
                g.pad_axis(residual, 1, padded_len - l, 0)
            };
            let pooled = g.maxpool_last(padded, block.pool);
            let mut h = pooled;
            for fc in &block.hidden {
                h = g.relu(fc.forward(ctx, h));
            }
            let back_coef = block.backcast_fc.forward(ctx, h);
            let fore_coef = block.forecast_fc.forward(ctx, h);
            let backcast = g.matmul(back_coef, g.input(block.backcast_interp.clone()));
            let f = g.matmul(fore_coef, g.input(block.forecast_interp.clone()));
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

/// Linear-interpolation upsampling matrix `[coarse, fine]` (convex rows).
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
    use crate::testutil::{check_learns, exercise_baseline};

    #[test]
    fn nhits_all_tasks() {
        exercise_baseline(|store, rng, c, l, task| Box::new(NHits::new(store, rng, c, l, task)));
    }

    #[test]
    fn nhits_learns_sine_continuation() {
        check_learns(
            |store, rng, c, l, task| Box::new(NHits::new(store, rng, c, l, task)),
            120,
            2e-3,
        );
    }

    #[test]
    fn pools_are_clamped_to_input() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        // Oversized pool is clamped rather than panicking.
        let m = NHits::with_pools(
            &mut store,
            &mut rng,
            1,
            8,
            Task::Forecast { horizon: 4 },
            &[64, 2],
            16,
        );
        assert_eq!(m.blocks[0].pool, 8);
        assert_eq!(m.blocks[1].pool, 2);
    }

    #[test]
    fn interp_rows_convex() {
        let w = interp_matrix(4, 12);
        for t in 0..12 {
            let s: f32 = (0..4).map(|i| w.data()[i * 12 + t]).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }
}
