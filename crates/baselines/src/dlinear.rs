//! DLinear (Zeng et al., "Are Transformers Effective for Time Series
//! Forecasting?", AAAI 2023): decompose the input into a moving-average
//! trend and a remainder, map each with a single linear layer over the time
//! axis, and sum. The strongest simple baseline in the paper's tables.

use crate::{task_output_len, Baseline};
use msd_autograd::Var;
use msd_data::decomp::trend_remainder;
use msd_nn::{Ctx, Linear, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// DLinear with a shared (channel-independent) pair of linear maps.
pub struct DLinear {
    task: Task,
    input_len: usize,
    ma_window: usize,
    trend_fc: Linear,
    season_fc: Linear,
    /// Classification head over the concatenated per-channel outputs.
    classify_fc: Option<Linear>,
    channels: usize,
}

impl DLinear {
    /// Builds DLinear for `[B, channels, input_len]` inputs. The moving
    /// average window follows the reference implementation's default of 25.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
    ) -> Self {
        let out_len = match &task {
            Task::Classify { .. } => input_len,
            t => task_output_len(t, input_len),
        };
        // Averaging init, as in the reference implementation: both branches
        // start at the window-mean forecast rather than a random projection,
        // which a small step budget would largely spend unlearning.
        let trend_fc = Linear::averaging(store, "dlinear.trend", input_len, out_len);
        let season_fc = Linear::averaging(store, "dlinear.season", input_len, out_len);
        let classify_fc = match &task {
            Task::Classify { classes } => Some(Linear::new(
                store,
                rng,
                "dlinear.classify",
                channels * out_len,
                *classes,
            )),
            _ => None,
        };
        Self {
            task,
            input_len,
            ma_window: 25.min(input_len.max(3)),
            trend_fc,
            season_fc,
            classify_fc,
            channels,
        }
    }

    /// Splits a batch `[B, C, L]` into (trend, remainder) tensors using the
    /// (parameter-free) moving-average decomposition.
    fn decompose_batch(&self, x: &Tensor) -> (Tensor, Tensor) {
        let l = self.input_len;
        let rows = x.len() / l;
        let mut trend = Vec::with_capacity(x.len());
        let mut season = Vec::with_capacity(x.len());
        for r in 0..rows {
            let row = &x.data()[r * l..(r + 1) * l];
            let (t, s) = trend_remainder(row, self.ma_window);
            trend.extend_from_slice(&t);
            season.extend_from_slice(&s);
        }
        (
            Tensor::from_vec(x.shape(), trend),
            Tensor::from_vec(x.shape(), season),
        )
    }
}

impl Baseline for DLinear {
    fn name(&self) -> &'static str {
        "DLinear"
    }

    fn task(&self) -> &Task {
        &self.task
    }

    fn forward(&self, ctx: &Ctx, x: &Tensor) -> Var {
        let g = ctx.g;
        let (trend, season) = self.decompose_batch(x);
        let t = self.trend_fc.forward(ctx, g.input(trend));
        let s = self.season_fc.forward(ctx, g.input(season));
        let combined = g.add(t, s);
        match &self.task {
            Task::Classify { .. } => {
                let b = x.shape()[0];
                let flat = g.reshape(combined, &[b, self.channels * self.input_len]);
                self.classify_fc
                    .as_ref()
                    .expect("classify head")
                    .forward(ctx, flat)
            }
            _ => combined,
        }
    }

    fn plan_prelude(&self, x: &Tensor) -> Vec<Tensor> {
        let (trend, season) = self.decompose_batch(x);
        vec![trend, season]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_learns, exercise_baseline};

    #[test]
    fn dlinear_all_tasks() {
        exercise_baseline(|store, rng, c, l, task| Box::new(DLinear::new(store, rng, c, l, task)));
    }

    #[test]
    fn dlinear_learns_sine_continuation() {
        check_learns(
            |store, rng, c, l, task| Box::new(DLinear::new(store, rng, c, l, task)),
            80,
            5e-3,
        );
    }

    #[test]
    fn decomposition_feeds_both_branches() {
        // A pure-trend input should be reconstructed mostly by the trend
        // branch: zeroing the seasonal branch weights barely changes output.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(5);
        let model = DLinear::new(&mut store, &mut rng, 1, 16, Task::Forecast { horizon: 4 });
        let ramp = Tensor::from_vec(&[1, 1, 16], (0..16).map(|i| i as f32).collect());
        let (trend, season) = model.decompose_batch(&ramp);
        // The moving average of a ramp is close to the ramp in the interior.
        assert!(trend.data()[8] > 6.0 && trend.data()[8] < 10.0);
        assert!(season.abs().max_all() < trend.abs().max_all());
    }
}
