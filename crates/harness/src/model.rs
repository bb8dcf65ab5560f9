//! A uniform wrapper over MSD-Mixer (and its ablation variants) and every
//! baseline, so the training driver and experiment runners are
//! model-agnostic.

use msd_autograd::Var;
use msd_baselines::{DLinear, LightTs, NBeats, NHits, NLinear, PatchTst, TimesNet};
use msd_mixer::variants::{build_variant, Variant};
use msd_mixer::{MsdMixer, MsdMixerConfig, Target};
use msd_nn::{Ctx, DynModel, Model, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Which model to build. The string forms used in tables come from
/// [`ModelSpec::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelSpec {
    /// MSD-Mixer or one of its ablation variants.
    MsdMixer(Variant),
    /// DLinear baseline.
    DLinear,
    /// NLinear baseline.
    NLinear,
    /// LightTS baseline.
    LightTs,
    /// N-BEATS baseline.
    NBeats,
    /// N-HiTS baseline.
    NHits,
    /// PatchTST-lite baseline.
    PatchTst,
    /// TimesNet-lite baseline (FFT period folding). Not part of
    /// [`ModelSpec::TASK_GENERAL`] because it joined the suite after the
    /// cached table runs; the `extra_timesnet_comparison` bench covers it.
    TimesNet,
}

impl ModelSpec {
    /// The task-general comparison set used across tables (paper Sec. IV-A;
    /// the transformers we did not reproduce are documented in DESIGN.md §2).
    pub const TASK_GENERAL: [ModelSpec; 6] = [
        ModelSpec::MsdMixer(Variant::Full),
        ModelSpec::PatchTst,
        ModelSpec::DLinear,
        ModelSpec::NLinear,
        ModelSpec::LightTs,
        ModelSpec::NHits,
    ];

    /// Training learning rate used by the experiment harness. The paper
    /// searches per-dataset hyperparameters (Sec. IV-A); these were
    /// calibrated per architecture on held-out validation splits: linear
    /// maps tolerate large steps, deep stacks need smaller ones.
    pub fn default_lr(&self) -> f32 {
        match self {
            ModelSpec::MsdMixer(_) => 5e-3,
            ModelSpec::DLinear | ModelSpec::NLinear | ModelSpec::LightTs => 1e-2,
            ModelSpec::NBeats | ModelSpec::NHits | ModelSpec::PatchTst => 2e-3,
            ModelSpec::TimesNet => 2e-3,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::MsdMixer(v) => v.name(),
            ModelSpec::DLinear => "DLinear",
            ModelSpec::NLinear => "NLinear",
            ModelSpec::LightTs => "LightTS",
            ModelSpec::NBeats => "N-BEATS",
            ModelSpec::NHits => "N-HiTS",
            ModelSpec::PatchTst => "PatchTST",
            ModelSpec::TimesNet => "TimesNet",
        }
    }

    /// Builds the model for `[B, channels, input_len]` inputs on `task`.
    /// `d_model` scales MSD-Mixer's representation width.
    pub fn build(
        &self,
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
        d_model: usize,
    ) -> AnyModel {
        self.build_with(store, rng, channels, input_len, task, d_model, false)
    }

    /// Like [`ModelSpec::build`], with MSD-Mixer's `magnitude_only` flag
    /// exposed — set it for imputation, where the residual ACF is
    /// ill-defined (Sec. IV-D).
    #[allow(clippy::too_many_arguments)]
    pub fn build_with(
        &self,
        store: &mut ParamStore,
        rng: &mut Rng,
        channels: usize,
        input_len: usize,
        task: Task,
        d_model: usize,
        mixer_magnitude_only: bool,
    ) -> AnyModel {
        match self {
            ModelSpec::MsdMixer(variant) => {
                let cfg = MsdMixerConfig {
                    in_channels: channels,
                    input_len,
                    patch_sizes: default_patch_sizes(input_len),
                    d_model,
                    hidden_ratio: 2,
                    drop_path: 0.05,
                    alpha: 2.0,
                    lambda: 0.5,
                    magnitude_only: mixer_magnitude_only,
                    task,
                };
                AnyModel::Mixer(build_variant(store, rng, &cfg, *variant))
            }
            ModelSpec::DLinear => AnyModel::Baseline(Box::new(DLinear::new(
                store, rng, channels, input_len, task,
            ))),
            ModelSpec::NLinear => AnyModel::Baseline(Box::new(NLinear::new(
                store, rng, channels, input_len, task,
            ))),
            ModelSpec::LightTs => AnyModel::Baseline(Box::new(LightTs::new(
                store, rng, channels, input_len, task,
            ))),
            ModelSpec::NBeats => {
                AnyModel::Baseline(Box::new(NBeats::new(store, rng, channels, input_len, task)))
            }
            ModelSpec::NHits => {
                AnyModel::Baseline(Box::new(NHits::new(store, rng, channels, input_len, task)))
            }
            ModelSpec::PatchTst => AnyModel::Baseline(Box::new(PatchTst::new(
                store, rng, channels, input_len, task,
            ))),
            ModelSpec::TimesNet => AnyModel::Baseline(Box::new(TimesNet::new(
                store, rng, channels, input_len, task,
            ))),
        }
    }
}

/// The paper's patch-size recipe (Sec. IV-A): sizes descending from roughly
/// `L/4` down to 1, five layers where the length allows, chosen to align
/// with the dominant sub-series scales.
pub fn default_patch_sizes(input_len: usize) -> Vec<usize> {
    if input_len >= 96 {
        vec![24, 12, 4, 2, 1]
    } else if input_len >= 32 {
        vec![input_len / 4, input_len / 8, 2, 1]
            .into_iter()
            .filter(|&p| p >= 1)
            .collect()
    } else if input_len >= 8 {
        vec![(input_len / 4).max(2), 2, 1]
    } else {
        vec![2.min(input_len), 1]
    }
}

/// A model that the harness can train and evaluate on any task.
///
/// Both arms implement the unified [`Model`] trait, so every method here is
/// plain trait dispatch via [`AnyModel::as_model`] — the per-family `match`
/// zoo this enum used to carry lives on only as the `Mixer` arm, which some
/// experiments destructure for decomposition-specific analysis.
pub enum AnyModel {
    /// The paper's model (or an ablation variant).
    Mixer(MsdMixer),
    /// One of the baselines.
    Baseline(DynModel),
}

impl AnyModel {
    /// The unified trait view of whichever model this is.
    pub fn as_model(&self) -> &(dyn Model + Send + Sync) {
        match self {
            AnyModel::Mixer(m) => m,
            AnyModel::Baseline(b) => &**b,
        }
    }

    /// Display name for tables.
    pub fn name(&self) -> &str {
        self.as_model().name()
    }

    /// Builds the forward pass and total training loss for one batch,
    /// returning `(prediction, loss)`.
    pub fn forward_loss(&self, ctx: &Ctx, x: &Tensor, target: &Target) -> (Var, Var) {
        let m = self.as_model();
        let out = m.forward(ctx, x);
        let loss = m.loss(ctx, &out, target);
        (out.pred, loss)
    }

    /// Eval-mode inference on a batch.
    pub fn predict(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        self.as_model().predict(store, x)
    }
}

impl Model for AnyModel {
    fn name(&self) -> &str {
        self.as_model().name()
    }
    fn task(&self) -> &Task {
        self.as_model().task()
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> msd_nn::ModelOutput {
        self.as_model().forward(ctx, x)
    }
    fn loss(&self, ctx: &Ctx, out: &msd_nn::ModelOutput, target: &Target) -> Var {
        self.as_model().loss(ctx, out, target)
    }
    fn plan_prelude(&self, x: &Tensor) -> Vec<Tensor> {
        self.as_model().plan_prelude(x)
    }
    fn compile_plan(
        &self,
        store: &ParamStore,
        x_shape: &[usize],
    ) -> Result<msd_autograd::CompiledPlan, msd_autograd::PlanError> {
        self.as_model().compile_plan(store, x_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_autograd::Graph;

    #[test]
    fn default_patch_sizes_are_descending_and_end_at_one() {
        for l in [96usize, 336, 48, 36, 16, 12, 8, 6, 4] {
            let ps = default_patch_sizes(l);
            assert!(!ps.is_empty(), "L={l}");
            assert_eq!(*ps.last().unwrap(), 1, "L={l}: {ps:?}");
            for w in ps.windows(2) {
                assert!(w[0] >= w[1], "L={l}: {ps:?} not descending");
            }
            assert!(ps[0] <= l, "L={l}: {ps:?}");
        }
    }

    #[test]
    fn every_spec_builds_and_predicts() {
        let specs = [
            ModelSpec::MsdMixer(Variant::Full),
            ModelSpec::DLinear,
            ModelSpec::NLinear,
            ModelSpec::LightTs,
            ModelSpec::NBeats,
            ModelSpec::NHits,
            ModelSpec::PatchTst,
            ModelSpec::TimesNet,
        ];
        for spec in specs {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from(1);
            let model = spec.build(
                &mut store,
                &mut rng,
                2,
                24,
                Task::Forecast { horizon: 8 },
                8,
            );
            let x = Tensor::randn(&[2, 2, 24], 1.0, &mut rng);
            let y = model.predict(&store, &x);
            assert_eq!(y.shape(), &[2, 2, 8], "{}", spec.name());
        }
    }

    #[test]
    fn forward_loss_matches_task_for_all_target_kinds() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let model = ModelSpec::DLinear.build(&mut store, &mut rng, 2, 16, Task::Reconstruct, 8);
        let x = Tensor::randn(&[2, 2, 16], 1.0, &mut rng);
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(3);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let mask = Tensor::ones(&[2, 2, 16]);
        let (_, loss) = model.forward_loss(
            &ctx,
            &x,
            &Target::MaskedSeries {
                series: x.clone(),
                observed_mask: mask,
            },
        );
        assert!(g.value(loss).item().is_finite());
    }
}
