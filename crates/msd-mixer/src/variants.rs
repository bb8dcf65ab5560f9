//! Ablation variants of MSD-Mixer (Sec. IV-G, Table XII).
//!
//! * **MSD-Mixer-I** — layers arranged with patch sizes ascending instead of
//!   descending;
//! * **MSD-Mixer-N** — patching replaced by N-HiTS-style max pooling +
//!   linear interpolation;
//! * **MSD-Mixer-U** — a single uniform patch size `round(√L)` in every
//!   layer;
//! * **MSD-Mixer-L** — trained without the Residual Loss (`λ = 0`).

use crate::config::MsdMixerConfig;
use crate::layer::PatchMode;
use crate::model::MsdMixer;
use msd_nn::ParamStore;
use msd_tensor::rng::Rng;

/// Which model variant to build; `Full` is the paper's MSD-Mixer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The full model.
    Full,
    /// Inverted patch-size order (`-I`).
    Inverted,
    /// No patching: max-pool + interpolation (`-N`).
    NoPatching,
    /// Uniform patch size `round(√L)` (`-U`).
    UniformPatch,
    /// No residual loss (`-L`).
    NoResidualLoss,
}

impl Variant {
    /// All five variants in the order of Table XII.
    pub const ALL: [Variant; 5] = [
        Variant::Full,
        Variant::Inverted,
        Variant::NoPatching,
        Variant::UniformPatch,
        Variant::NoResidualLoss,
    ];

    /// The paper's display name for this variant.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Full => "MSD-Mixer",
            Variant::Inverted => "MSD-Mixer-I",
            Variant::NoPatching => "MSD-Mixer-N",
            Variant::UniformPatch => "MSD-Mixer-U",
            Variant::NoResidualLoss => "MSD-Mixer-L",
        }
    }
}

/// Builds the requested variant from a base configuration, adjusting patch
/// arrangement and loss weighting as the ablation prescribes.
pub fn build_variant(
    store: &mut ParamStore,
    rng: &mut Rng,
    base: &MsdMixerConfig,
    variant: Variant,
) -> MsdMixer {
    let mut cfg = base.clone();
    match variant {
        Variant::Full => MsdMixer::new(store, rng, &cfg),
        Variant::Inverted => {
            let mut sizes = cfg.patch_sizes.clone();
            sizes.sort_unstable(); // ascending
            cfg.patch_sizes = sizes;
            MsdMixer::new(store, rng, &cfg)
        }
        Variant::NoPatching => {
            let modes: Vec<PatchMode> = cfg
                .patch_sizes
                .iter()
                .map(|&p| PatchMode::Pool(p))
                .collect();
            MsdMixer::with_modes(store, rng, &cfg, &modes)
        }
        Variant::UniformPatch => {
            let p = ((cfg.input_len as f32).sqrt().round() as usize).clamp(1, cfg.input_len);
            cfg.patch_sizes = vec![p; base.patch_sizes.len()];
            MsdMixer::new(store, rng, &cfg)
        }
        Variant::NoResidualLoss => {
            cfg.lambda = 0.0;
            MsdMixer::new(store, rng, &cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Task;
    use msd_tensor::Tensor;

    fn base() -> MsdMixerConfig {
        MsdMixerConfig {
            in_channels: 2,
            input_len: 16,
            patch_sizes: vec![8, 4, 1],
            d_model: 4,
            hidden_ratio: 1,
            drop_path: 0.0,
            task: Task::Forecast { horizon: 4 },
            ..MsdMixerConfig::default()
        }
    }

    #[test]
    fn every_variant_builds_and_predicts() {
        for v in Variant::ALL {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from(60);
            let model = build_variant(&mut store, &mut rng, &base(), v);
            let x = Tensor::randn(&[2, 2, 16], 1.0, &mut rng);
            let y = model.predict(&store, &x);
            assert_eq!(y.shape(), &[2, 2, 4], "variant {v:?}");
        }
    }

    #[test]
    fn inverted_variant_sorts_ascending() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(61);
        let model = build_variant(&mut store, &mut rng, &base(), Variant::Inverted);
        assert_eq!(model.config().patch_sizes, vec![1, 4, 8]);
    }

    #[test]
    fn uniform_variant_uses_sqrt_len() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(62);
        let model = build_variant(&mut store, &mut rng, &base(), Variant::UniformPatch);
        assert_eq!(model.config().patch_sizes, vec![4, 4, 4]);
    }

    #[test]
    fn no_residual_loss_variant_zeroes_lambda() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(63);
        let model = build_variant(&mut store, &mut rng, &base(), Variant::NoResidualLoss);
        assert_eq!(model.config().lambda, 0.0);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Variant::Full.name(), "MSD-Mixer");
        assert_eq!(Variant::NoPatching.name(), "MSD-Mixer-N");
    }
}
