//! The demo model fleet for the gateway binaries.
//!
//! The gateway process and the load-generator process share no memory and
//! no files, yet the load generator byte-compares every response against a
//! sequential [`Model::predict`] reference it computes itself. That only
//! works if both processes can rebuild *identical* models from nothing but
//! this module: every architecture, seed, and input here is fixed, and the
//! repo's kernels are deterministic under a fixed environment, so the two
//! processes agree to the bit.
//!
//! Two models keep the demo honest about multi-model routing: a 2-channel
//! NLinear forecaster and a 1-channel LightTS forecaster. Each has a fixed
//! *v1* initialisation seed and a fixed *v2* parameter seed for hot-swap
//! drills; [`DemoModel::reference`] answers "what must version `v` predict
//! for input `i`" in any process.

use msd_autograd::PlanArena;
use msd_gateway::ModelFactory;
use msd_nn::{ArtifactReader, ArtifactWriter, DynModel, Model, ParamStore, PrecisionTier, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

use crate::ModelSpec;

/// One fixed demo model: architecture plus every seed needed to rebuild it.
pub struct DemoModel {
    /// Registry name (also the URL path segment).
    pub name: &'static str,
    /// Architecture to build.
    pub spec: ModelSpec,
    /// Input channels.
    pub channels: usize,
    /// Input window length.
    pub input_len: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Width hint passed to [`ModelSpec::build`].
    pub d_model: usize,
    /// Parameter init seed for version 1.
    pub seed_v1: u64,
    /// Parameter init seed for the hot-swap (version 2) blob.
    pub seed_v2: u64,
    /// Base seed for the deterministic input stream.
    pub input_seed: u64,
}

/// The fleet every gateway demo process serves, in registration order.
pub const DEMO_MODELS: &[DemoModel] = &[
    DemoModel {
        name: "nlinear",
        spec: ModelSpec::NLinear,
        channels: 2,
        input_len: 24,
        horizon: 8,
        d_model: 8,
        seed_v1: 11,
        seed_v2: 1011,
        input_seed: 70_000,
    },
    DemoModel {
        name: "lightts",
        spec: ModelSpec::LightTs,
        channels: 1,
        input_len: 16,
        horizon: 4,
        d_model: 8,
        seed_v1: 21,
        seed_v2: 1021,
        input_seed: 80_000,
    },
];

impl DemoModel {
    /// Builds the architecture with parameters initialised from `seed`.
    pub fn build(&self, seed: u64) -> (crate::AnyModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(seed);
        let model = self.spec.build(
            &mut store,
            &mut rng,
            self.channels,
            self.input_len,
            Task::Forecast {
                horizon: self.horizon,
            },
            self.d_model,
        );
        (model, store)
    }

    /// The registry factory: version-1 architecture and init.
    pub fn factory(&'static self) -> ModelFactory {
        Box::new(move || {
            let (model, store) = self.build(self.seed_v1);
            (Box::new(model) as DynModel, store)
        })
    }

    /// The encoded parameter blob for `version` (1 or 2) at `tier`.
    pub fn params(&self, version: u32, tier: PrecisionTier) -> Vec<u8> {
        let (_, store) = self.build(self.seed(version));
        ArtifactWriter::new(tier)
            .encode(&store)
            .expect("demo weights are finite, so every tier encodes")
    }

    /// The encoded version-2 parameter blob for f32 hot-swap drills.
    pub fn params_v2(&self) -> Vec<u8> {
        self.params(2, PrecisionTier::F32)
    }

    fn seed(&self, version: u32) -> u64 {
        match version {
            1 => self.seed_v1,
            2 => self.seed_v2,
            v => panic!("demo models only have versions 1 and 2, asked for {v}"),
        }
    }

    /// The `i`-th deterministic input sample, shaped `[1, C, L]`.
    pub fn input(&self, i: u64) -> Tensor {
        let mut rng = Rng::seed_from(self.input_seed + i);
        Tensor::randn(&[1, self.channels, self.input_len], 1.0, &mut rng)
    }

    /// Sequential single-sample reference for `version` (1 or 2) on `x` —
    /// the bits every gateway response must reproduce when serving f32.
    pub fn reference(&self, version: u32, x: &Tensor) -> Tensor {
        let (model, store) = self.build(self.seed(version));
        model.predict(&store, x)
    }

    /// [`DemoModel::reference`] for a gateway serving `tier`: the store is
    /// round-tripped through a real artifact at that tier — exactly the
    /// bytes [`DemoModel::params`] produces — so both processes dequantize
    /// identically. For f32/f16 the reference is plain `predict` (compiled
    /// plans are bit-identical to it); for int8 it is the compiled plan,
    /// which `compile_plan` lowers onto the int8 kernels — valid
    /// cross-process because the int8 path is bit-identical across kernel
    /// tiers, thread counts, and batch compositions (integer accumulation).
    pub fn reference_tiered(&self, version: u32, tier: PrecisionTier, x: &Tensor) -> Tensor {
        let bytes = self.params(version, tier);
        let (model, mut store) = self.build(self.seed(version));
        ArtifactReader::decode(&bytes)
            .and_then(|r| r.load_into(&mut store))
            .expect("demo artifact round-trips");
        match tier {
            PrecisionTier::F32 | PrecisionTier::F16 => model.predict(&store, x),
            PrecisionTier::Int8 => {
                let plan = model
                    .compile_plan(&store, x.shape())
                    .expect("demo models compile");
                model.predict_plan(&plan, &store, x, &mut PlanArena::new())
            }
        }
    }
}

/// The demo model registered under `name`, if any.
pub fn find(name: &str) -> Option<&'static DemoModel> {
    DEMO_MODELS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_models_rebuild_bit_identically_and_versions_differ() {
        for m in DEMO_MODELS {
            let x = m.input(3);
            // Rebuilding in a "different process" (here: a second build) is
            // bit-identical.
            let a = m.reference(1, &x);
            let b = m.reference(1, &x);
            assert_eq!(a.shape(), b.shape());
            assert!(a
                .data()
                .iter()
                .zip(b.data())
                .all(|(p, q)| p.to_bits() == q.to_bits()));
            // v2 is a genuinely different model.
            let v2 = m.reference(2, &x);
            assert!(
                a.data()
                    .iter()
                    .zip(v2.data())
                    .any(|(p, q)| p.to_bits() != q.to_bits()),
                "{}: v1 and v2 predict identically",
                m.name
            );
            // The v2 blob decodes cleanly into the factory architecture.
            let (_, mut store) = m.build(m.seed_v1);
            msd_nn::store::decode(&mut store, &m.params_v2()).unwrap();
        }
    }

    #[test]
    fn tiered_references_are_deterministic_and_blobs_carry_their_tier() {
        for m in DEMO_MODELS {
            let x = m.input(5);
            for tier in [PrecisionTier::F32, PrecisionTier::F16, PrecisionTier::Int8] {
                // The blob really is published at the requested tier.
                let reader = ArtifactReader::decode(&m.params(1, tier)).unwrap();
                assert_eq!(reader.tier(), tier, "{}", m.name);
                // Two independent rebuilds (standing in for two processes)
                // agree to the bit.
                let a = m.reference_tiered(1, tier, &x);
                let b = m.reference_tiered(1, tier, &x);
                assert!(
                    a.data()
                        .iter()
                        .zip(b.data())
                        .all(|(p, q)| p.to_bits() == q.to_bits()),
                    "{} {tier}: tiered reference not reproducible",
                    m.name
                );
            }
            // The f32 tiered reference is the plain reference.
            let plain = m.reference(1, &x);
            let f32t = m.reference_tiered(1, PrecisionTier::F32, &x);
            assert!(plain
                .data()
                .iter()
                .zip(f32t.data())
                .all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }
}
