//! Parameter storage shared by all models in the workspace.

use msd_autograd::ParamId;
use msd_tensor::{QuantTensor, QuantView, Tensor};

use crate::artifact::PrecisionTier;

/// Owns the values of every trainable parameter of a model.
///
/// Layers register parameters at construction time and keep the returned
/// [`ParamId`]s; optimisers mutate the stored values in place between steps.
///
/// A store also remembers the [`PrecisionTier`] of the artifact it was
/// loaded from. Values are *always* f32 — a reduced-precision artifact
/// dequantizes on load — but an int8-tier store additionally carries the
/// quantized weights so compiled plans can lower matching steps onto the
/// int8 kernels ([`msd_autograd::plan::ParamSource::quant_param`]).
pub struct ParamStore {
    values: Vec<Tensor>,
    names: Vec<String>,
    tier: PrecisionTier,
    quant: Vec<Option<QuantTensor>>,
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            names: Vec::new(),
            tier: PrecisionTier::F32,
            quant: Vec::new(),
        }
    }

    /// Registers a parameter, returning its id. `name` is used by
    /// checkpointing and debugging output.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = self.values.len();
        self.values.push(value);
        self.names.push(name.into());
        self.quant.push(None);
        id
    }

    /// The precision tier of the artifact these parameters came from
    /// ([`PrecisionTier::F32`] for a freshly initialised or trained store).
    pub fn tier(&self) -> PrecisionTier {
        self.tier
    }

    /// The quantized form of a parameter, when the store was loaded from an
    /// int8-tier artifact.
    pub fn quant(&self, id: ParamId) -> Option<&QuantTensor> {
        self.quant.get(id).and_then(|q| q.as_ref())
    }

    /// Installs a tier and its quantized weights (one slot per parameter,
    /// `None` for params served from their dequantized f32 values).
    /// Crate-internal: only the artifact loader transitions tiers.
    pub(crate) fn install_tier(&mut self, tier: PrecisionTier, quant: Vec<Option<QuantTensor>>) {
        assert_eq!(
            quant.len(),
            self.values.len(),
            "quant table length mismatch"
        );
        self.tier = tier;
        self.quant = quant;
    }

    /// Resets the store to the plain-f32 tier (dropping any quant table).
    pub(crate) fn reset_tier(&mut self) {
        self.tier = PrecisionTier::F32;
        for q in &mut self.quant {
            *q = None;
        }
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Read access to a parameter value.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id]
    }

    /// Mutable access to a parameter value (used by optimisers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id]
    }

    /// The registration name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id]
    }

    /// Iterates `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (i, self.names[i].as_str(), v))
    }

    /// Replaces every parameter value from `other`, matching by registration
    /// order and shape. Used to restore the best checkpoint after early
    /// stopping.
    ///
    /// # Panics
    /// Panics on length or shape mismatch.
    pub fn load_values(&mut self, other: &[Tensor]) {
        assert_eq!(self.values.len(), other.len(), "parameter count mismatch");
        for (dst, src) in self.values.iter_mut().zip(other) {
            assert_eq!(dst.shape(), src.shape(), "parameter shape mismatch");
            *dst = src.clone();
        }
    }

    /// Clones all parameter values in registration order (a checkpoint).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.values.clone()
    }
}

/// Compiled inference plans read parameters straight from the store, so a
/// plan stays valid across optimiser steps without recompilation.
impl msd_autograd::plan::ParamSource for ParamStore {
    fn param_value(&self, id: ParamId) -> &Tensor {
        self.get(id)
    }

    fn quant_param(&self, id: ParamId) -> Option<QuantView<'_>> {
        self.quant(id).map(|q| q.view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(&[2, 3]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 6);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.get(id).shape(), &[2, 3]);
    }

    #[test]
    fn snapshot_restores_exactly() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(&[4]));
        let snap = store.snapshot();
        store.get_mut(id).data_mut()[0] = 99.0;
        store.load_values(&snap);
        assert_eq!(store.get(id).data(), &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn load_rejects_shape_change() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::ones(&[4]));
        store.load_values(&[Tensor::ones(&[5])]);
    }
}
