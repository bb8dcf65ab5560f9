//! Model inspection: a human-readable summary of an MSD-Mixer instance.

use crate::MsdMixer;
use msd_nn::ParamStore;
use std::fmt::Write as _;

/// Per-module parameter statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ModuleSummary {
    /// Module prefix (e.g. `layer0.enc`).
    pub module: String,
    /// Number of parameter tensors.
    pub tensors: usize,
    /// Total scalar parameters.
    pub scalars: usize,
}

/// Summarises parameter counts grouped by top-two-level module prefix
/// (`layer0.enc`, `layer0.dec`, `head0`, …).
pub fn summarize(store: &ParamStore) -> Vec<ModuleSummary> {
    let mut groups: Vec<ModuleSummary> = Vec::new();
    for (_, name, value) in store.iter() {
        let prefix: String = name.splitn(3, '.').take(2).collect::<Vec<_>>().join(".");
        // Heads have a single-level prefix.
        let prefix = if prefix.contains('.') && prefix.starts_with("head") {
            prefix.split('.').next().unwrap().to_string()
        } else {
            prefix
        };
        match groups.iter_mut().find(|g| g.module == prefix) {
            Some(g) => {
                g.tensors += 1;
                g.scalars += value.len();
            }
            None => groups.push(ModuleSummary {
                module: prefix,
                tensors: 1,
                scalars: value.len(),
            }),
        }
    }
    groups
}

/// Renders a text description of the model: configuration, per-layer patch
/// sizes, and parameter counts per module.
pub fn describe(model: &MsdMixer, store: &ParamStore) -> String {
    let cfg = model.config();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "MSD-Mixer: {} layers, task {:?}",
        model.num_layers(),
        cfg.task
    );
    let _ = writeln!(
        out,
        "  input: {} channels x {} steps; d_model {}; hidden_ratio {}; drop_path {}",
        cfg.in_channels, cfg.input_len, cfg.d_model, cfg.hidden_ratio, cfg.drop_path
    );
    let _ = writeln!(
        out,
        "  patch sizes: {:?}; residual loss: lambda {} alpha {}{}",
        cfg.patch_sizes,
        cfg.lambda,
        cfg.alpha,
        if cfg.magnitude_only {
            " (magnitude only)"
        } else {
            ""
        }
    );
    let _ = writeln!(out, "  parameters: {} total", store.num_scalars());
    for g in summarize(store) {
        let _ = writeln!(
            out,
            "    {:<14} {:>4} tensors {:>9} scalars",
            g.module, g.tensors, g.scalars
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsdMixerConfig, Task};
    use msd_tensor::rng::Rng;

    fn fixture() -> (ParamStore, MsdMixer) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(71);
        let cfg = MsdMixerConfig {
            in_channels: 2,
            input_len: 16,
            patch_sizes: vec![4, 1],
            d_model: 4,
            hidden_ratio: 1,
            drop_path: 0.0,
            task: Task::Forecast { horizon: 4 },
            ..MsdMixerConfig::default()
        };
        let model = MsdMixer::new(&mut store, &mut rng, &cfg);
        (store, model)
    }

    #[test]
    fn summary_accounts_for_every_scalar() {
        let (store, _) = fixture();
        let groups = summarize(&store);
        let total: usize = groups.iter().map(|g| g.scalars).sum();
        assert_eq!(total, store.num_scalars());
        let tensors: usize = groups.iter().map(|g| g.tensors).sum();
        assert_eq!(tensors, store.len());
    }

    #[test]
    fn summary_groups_by_module() {
        let (store, _) = fixture();
        let groups = summarize(&store);
        let names: Vec<&str> = groups.iter().map(|g| g.module.as_str()).collect();
        assert!(names.contains(&"layer0.enc"), "{names:?}");
        assert!(names.contains(&"layer1.dec"), "{names:?}");
        assert!(names.contains(&"head0"), "{names:?}");
    }

    #[test]
    fn describe_mentions_the_key_facts() {
        let (store, model) = fixture();
        let text = describe(&model, &store);
        assert!(text.contains("2 layers"));
        assert!(text.contains("patch sizes: [4, 1]"));
        assert!(text.contains(&format!("{} total", store.num_scalars())));
    }
}
