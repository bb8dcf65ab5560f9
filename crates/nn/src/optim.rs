//! Optimisers: plain SGD and Adam/AdamW with optional gradient clipping.

use crate::ParamStore;
use msd_autograd::Gradients;
use msd_tensor::Tensor;
use std::io;

/// What one optimiser step actually did — consumed by training telemetry
/// and the divergence-recovery policy in the harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepOutcome {
    /// Whether the update was applied. `false` means the gradients were
    /// non-finite and the step was skipped without touching any state.
    pub applied: bool,
    /// Global L2 gradient norm observed before clipping (NaN/inf when the
    /// step was skipped).
    pub grad_norm: f32,
    /// Scale applied by gradient clipping (1.0 = clipping inactive).
    pub clip_scale: f32,
}

impl StepOutcome {
    /// A step rejected because of non-finite gradients.
    fn skipped(grad_norm: f32) -> Self {
        Self {
            applied: false,
            grad_norm,
            clip_scale: 1.0,
        }
    }
}

/// The complete accumulated state of an optimiser, in a form that survives
/// checkpointing: per-parameter step counts plus named banks of optional
/// slot tensors (Adam's `m`/`v`, SGD's `velocity`). `None` entries are
/// parameters that have not received a gradient yet.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimState {
    /// Which optimiser family produced this state (`"sgd"` / `"adam"`).
    pub kind: String,
    /// Per-parameter update counts (empty for optimisers without bias
    /// correction).
    pub steps: Vec<u64>,
    /// Named slot banks; each bank holds one optional tensor per parameter.
    pub slots: Vec<(String, Vec<Option<Tensor>>)>,
}

impl OptimState {
    fn bank<'a>(&'a self, name: &str) -> io::Result<&'a [Option<Tensor>]> {
        self.slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bank)| bank.as_slice())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("optimizer state missing slot bank '{name}'"),
                )
            })
    }
}

/// A first-order optimiser updating a [`ParamStore`] in place.
pub trait Optimizer {
    /// Applies one update from `grads`, reporting what happened.
    ///
    /// Implementations must reject non-finite gradients (returning
    /// `applied: false`) rather than letting NaN/inf contaminate any
    /// internal accumulator state.
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) -> StepOutcome;

    /// Current learning rate (after any schedule).
    fn lr(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_lr(&mut self, lr: f32);

    /// Discards all accumulated state (moments, velocities, step counts),
    /// as if freshly constructed. The divergence-recovery policy calls this
    /// after rolling parameters back, so state computed from poisoned
    /// gradients can never leak into future updates.
    fn reset_state(&mut self);

    /// Exports the optimiser's full accumulated state for checkpointing.
    /// Importing the result into a fresh optimiser of the same kind must
    /// continue the update stream bit-identically.
    fn export_state(&self) -> OptimState;

    /// Restores state previously captured by [`Optimizer::export_state`].
    /// Rejects state from a different optimiser kind with `InvalidData`;
    /// on error the optimiser is left in its reset (fresh) configuration,
    /// never half-loaded.
    fn import_state(&mut self, state: &OptimState) -> io::Result<()>;
}

/// Stochastic gradient descent with optional momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr` and momentum coefficient
    /// `momentum` (0 disables momentum).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) -> StepOutcome {
        let norm = grads.global_norm();
        if !norm.is_finite() {
            return StepOutcome::skipped(norm);
        }
        if self.velocity.len() < store.len() {
            self.velocity.resize(store.len(), None);
        }
        for (id, grad) in grads.iter() {
            if self.momentum > 0.0 {
                let v = self.velocity[id].get_or_insert_with(|| Tensor::zeros(grad.shape()));
                // v = momentum * v + grad
                for (vv, &gv) in v.data_mut().iter_mut().zip(grad.data()) {
                    *vv = self.momentum * *vv + gv;
                }
                let v = self.velocity[id].as_ref().unwrap();
                store.get_mut(id).axpy(-self.lr, v);
            } else {
                store.get_mut(id).axpy(-self.lr, grad);
            }
        }
        StepOutcome {
            applied: true,
            grad_norm: norm,
            clip_scale: 1.0,
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset_state(&mut self) {
        self.velocity.clear();
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            kind: "sgd".into(),
            steps: Vec::new(),
            slots: vec![("velocity".into(), self.velocity.clone())],
        }
    }

    fn import_state(&mut self, state: &OptimState) -> io::Result<()> {
        self.reset_state();
        if state.kind != "sgd" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cannot import '{}' state into Sgd", state.kind),
            ));
        }
        self.velocity = state.bank("velocity")?.to_vec();
        Ok(())
    }
}

/// Configuration for [`Adam`].
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor inside the denominator.
    pub eps: f32,
    /// Decoupled weight decay (AdamW); 0 recovers plain Adam.
    pub weight_decay: f32,
    /// Clip gradients to this global L2 norm before the update; `None`
    /// disables clipping.
    pub clip_norm: Option<f32>,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            clip_norm: Some(5.0),
        }
    }
}

/// Adam / AdamW — the optimiser used for all experiments, matching the
/// paper's PyTorch training setup.
pub struct Adam {
    cfg: AdamConfig,
    /// Per-parameter update counts: bias correction must reflect how many
    /// times *this* parameter's moments were updated, not the global step —
    /// a parameter whose first gradient arrives late (e.g. a task head that
    /// only enters the loss in a later phase) would otherwise be
    /// under-corrected on its first updates.
    steps: Vec<u64>,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates Adam with the given configuration.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            steps: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with default hyperparameters at learning rate `lr`.
    pub fn with_lr(lr: f32) -> Self {
        Self::new(AdamConfig {
            lr,
            ..AdamConfig::default()
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) -> StepOutcome {
        // A non-finite global norm means at least one gradient element is
        // NaN/inf (or the squared sum overflowed): either way the update is
        // garbage. Reject it *before* touching the moments — `norm > max`
        // is false for NaN, so the old clipping path silently let poisoned
        // gradients through at clip_scale 1.0 and corrupted m/v forever.
        let norm = grads.global_norm();
        if !norm.is_finite() || !grads.all_finite() {
            return StepOutcome::skipped(norm);
        }
        if self.m.len() < store.len() {
            self.m.resize(store.len(), None);
            self.v.resize(store.len(), None);
            self.steps.resize(store.len(), 0);
        }
        let clip_scale = match self.cfg.clip_norm {
            Some(max) if norm > max => max / norm,
            _ => 1.0,
        };
        for (id, grad) in grads.iter() {
            self.steps[id] += 1;
            let bc1 = 1.0 - (self.cfg.beta1 as f64).powi(self.steps[id] as i32) as f32;
            let bc2 = 1.0 - (self.cfg.beta2 as f64).powi(self.steps[id] as i32) as f32;
            let m = self.m[id].get_or_insert_with(|| Tensor::zeros(grad.shape()));
            let v = self.v[id].get_or_insert_with(|| Tensor::zeros(grad.shape()));
            let p = store.get_mut(id);
            let (b1, b2, eps) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps);
            let lr = self.cfg.lr;
            let wd = self.cfg.weight_decay;
            for (((pv, mv), vv), &graw) in p
                .data_mut()
                .iter_mut()
                .zip(m.data_mut())
                .zip(v.data_mut())
                .zip(grad.data())
            {
                let gv = graw * clip_scale;
                *mv = b1 * *mv + (1.0 - b1) * gv;
                *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                // Decoupled weight decay (AdamW).
                *pv -= lr * (mhat / (vhat.sqrt() + eps) + wd * *pv);
            }
        }
        StepOutcome {
            applied: true,
            grad_norm: norm,
            clip_scale,
        }
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    fn reset_state(&mut self) {
        self.steps.clear();
        self.m.clear();
        self.v.clear();
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            kind: "adam".into(),
            steps: self.steps.clone(),
            slots: vec![("m".into(), self.m.clone()), ("v".into(), self.v.clone())],
        }
    }

    fn import_state(&mut self, state: &OptimState) -> io::Result<()> {
        self.reset_state();
        if state.kind != "adam" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cannot import '{}' state into Adam", state.kind),
            ));
        }
        let m = state.bank("m")?.to_vec();
        let v = state.bank("v")?.to_vec();
        if m.len() != v.len() || state.steps.len() != m.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "inconsistent adam state: {} steps, {} m, {} v",
                    state.steps.len(),
                    m.len(),
                    v.len()
                ),
            ));
        }
        for (id, (mm, vv)) in m.iter().zip(&v).enumerate() {
            let shapes_agree = match (mm, vv) {
                (Some(a), Some(b)) => a.shape() == b.shape(),
                (None, None) => true,
                _ => false,
            };
            if !shapes_agree {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("adam state param {id}: m/v slots disagree"),
                ));
            }
        }
        self.steps = state.steps.clone();
        self.m = m;
        self.v = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_autograd::Graph;
    use msd_tensor::Tensor;

    /// Minimises f(x) = ||x - target||^2 with the given optimiser.
    fn minimise(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::from_vec(&[3], vec![5.0, -4.0, 2.0]));
        let target = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        for _ in 0..steps {
            let g = Graph::new();
            let x = g.param(id, store.get(id).clone());
            let loss = g.mse_loss(x, &target);
            let grads = g.backward(loss);
            opt.step(&mut store, &grads);
        }
        store.get(id).sub(&target).abs().max_all()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        assert!(minimise(&mut opt, 200) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9);
        assert!(minimise(&mut opt, 200) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::with_lr(0.1);
        assert!(minimise(&mut opt, 400) < 1e-2);
    }

    #[test]
    fn adam_weight_decay_shrinks_unused_params() {
        let mut store = ParamStore::new();
        let used = store.register("used", Tensor::ones(&[1]));
        let idle = store.register("idle", Tensor::ones(&[1]));
        let mut opt = Adam::new(AdamConfig {
            lr: 0.01,
            weight_decay: 0.1,
            ..AdamConfig::default()
        });
        for _ in 0..50 {
            let g = Graph::new();
            let x = g.param(used, store.get(used).clone());
            // idle never enters the graph → keeps its value (no decay applied
            // to parameters without gradients, matching AdamW-on-step).
            let loss = g.mse_loss(x, &Tensor::zeros(&[1]));
            let grads = g.backward(loss);
            opt.step(&mut store, &grads);
        }
        assert!(store.get(used).data()[0] < 1.0);
        assert_eq!(store.get(idle).data()[0], 1.0);
    }

    #[test]
    fn clipping_bounds_update_size() {
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::zeros(&[1]));
        let mut opt = Adam::new(AdamConfig {
            lr: 1.0,
            clip_norm: Some(1.0),
            ..AdamConfig::default()
        });
        // A huge gradient: the first Adam step size is bounded by lr regardless,
        // but clipping must not blow up either.
        let g = Graph::new();
        let x = g.param(id, store.get(id).clone());
        let scaled = g.scale(x, 1e6);
        let loss = g.mse_loss(scaled, &Tensor::full(&[1], 1e6));
        let grads = g.backward(loss);
        opt.step(&mut store, &grads);
        assert!(store.get(id).data()[0].abs() <= 1.5);
    }

    #[test]
    fn set_lr_round_trips() {
        let mut opt = Adam::with_lr(0.5);
        assert_eq!(opt.lr(), 0.5);
        opt.set_lr(0.25);
        assert_eq!(opt.lr(), 0.25);
    }

    /// Backward pass over `loss = mse(scale * x, target)`; `scale = NaN`
    /// produces an all-NaN gradient.
    fn grads_for(store: &ParamStore, id: usize, scale: f32) -> msd_autograd::Gradients {
        let g = Graph::new();
        let x = g.param(id, store.get(id).clone());
        let y = g.scale(x, scale);
        let loss = g.mse_loss(y, &Tensor::zeros(store.get(id).shape()));
        g.backward(loss)
    }

    #[test]
    fn nan_gradient_is_skipped_and_never_poisons_moments() {
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::from_vec(&[2], vec![1.0, -2.0]));
        let mut opt = Adam::with_lr(0.1);
        // A clean step builds finite moment state.
        let grads = grads_for(&store, id, 1.0);
        let out = opt.step(&mut store, &grads);
        assert!(out.applied && out.grad_norm.is_finite());
        let after_clean = store.get(id).clone();

        // A poisoned step must be rejected outright: parameters untouched,
        // and the *next* clean step still behaves (moments stayed finite).
        let grads = grads_for(&store, id, f32::NAN);
        let out = opt.step(&mut store, &grads);
        assert!(!out.applied, "NaN gradient must not be applied");
        assert!(!out.grad_norm.is_finite());
        assert_eq!(
            store.get(id).data(),
            after_clean.data(),
            "params touched by skipped step"
        );

        let grads = grads_for(&store, id, 1.0);
        let out = opt.step(&mut store, &grads);
        assert!(out.applied);
        assert!(
            store.get(id).data().iter().all(|v| v.is_finite()),
            "moments were poisoned"
        );
    }

    #[test]
    fn sgd_also_rejects_nan_gradients() {
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::ones(&[2]));
        let mut opt = Sgd::new(0.1, 0.9);
        let grads = grads_for(&store, id, 1.0);
        assert!(opt.step(&mut store, &grads).applied);
        let grads = grads_for(&store, id, f32::NAN);
        assert!(!opt.step(&mut store, &grads).applied);
        assert!(store.get(id).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bias_correction_counts_per_parameter() {
        // Parameter `late` receives its first gradient at step 10. Adam's
        // first update for any parameter has magnitude ≈ lr (mhat/√vhat = ±1
        // up to eps) — but only if bias correction uses *its own* step
        // count. A global count of 10 would shrink the update ~3×.
        let mut store = ParamStore::new();
        let early = store.register("early", Tensor::ones(&[1]));
        let late = store.register("late", Tensor::ones(&[1]));
        let lr = 0.01;
        let mut opt = Adam::with_lr(lr);
        for step in 0..12 {
            let g = Graph::new();
            let e = g.param(early, store.get(early).clone());
            let mut loss = g.mse_loss(e, &Tensor::zeros(&[1]));
            if step >= 10 {
                let l = g.param(late, store.get(late).clone());
                loss = g.add(loss, g.mse_loss(l, &Tensor::zeros(&[1])));
            }
            let before_late = store.get(late).data()[0];
            let grads = g.backward(loss);
            assert!(opt.step(&mut store, &grads).applied);
            if step == 10 {
                let delta = (store.get(late).data()[0] - before_late).abs();
                assert!(
                    (delta - lr).abs() < lr * 0.02,
                    "late param first update {delta} should be ≈ lr {lr}"
                );
            }
        }
    }

    #[test]
    fn reset_state_restores_first_step_behaviour() {
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::full(&[1], 5.0));
        let lr = 0.01;
        let mut opt = Adam::with_lr(lr);
        for _ in 0..20 {
            let grads = grads_for(&store, id, 1.0);
            opt.step(&mut store, &grads);
        }
        opt.reset_state();
        let before = store.get(id).data()[0];
        let grads = grads_for(&store, id, 1.0);
        opt.step(&mut store, &grads);
        let delta = (store.get(id).data()[0] - before).abs();
        assert!(
            (delta - lr).abs() < lr * 0.02,
            "post-reset first update {delta} should be ≈ lr {lr}"
        );
    }

    #[test]
    fn adam_state_round_trip_continues_bit_identically() {
        // Two optimisers: one runs 30 steps straight; the other runs 10,
        // exports, imports into a *fresh* Adam, and runs the remaining 20.
        // Parameters must agree bit-for-bit at the end.
        let run = |split: Option<usize>| {
            let mut store = ParamStore::new();
            let id = store.register("x", Tensor::from_vec(&[3], vec![5.0, -4.0, 2.0]));
            let mut opt = Adam::with_lr(0.05);
            for step in 0..30 {
                if split == Some(step) {
                    let state = opt.export_state();
                    opt = Adam::with_lr(0.05);
                    opt.import_state(&state).unwrap();
                }
                let grads = grads_for(&store, id, 1.0);
                assert!(opt.step(&mut store, &grads).applied);
            }
            store
                .get(id)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(10)));
    }

    #[test]
    fn sgd_state_round_trip_continues_bit_identically() {
        let run = |split: Option<usize>| {
            let mut store = ParamStore::new();
            let id = store.register("x", Tensor::from_vec(&[2], vec![3.0, -1.0]));
            let mut opt = Sgd::new(0.05, 0.9);
            for step in 0..20 {
                if split == Some(step) {
                    let state = opt.export_state();
                    opt = Sgd::new(0.05, 0.9);
                    opt.import_state(&state).unwrap();
                }
                let grads = grads_for(&store, id, 1.0);
                assert!(opt.step(&mut store, &grads).applied);
            }
            store
                .get(id)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(7)));
    }

    #[test]
    fn import_rejects_kind_mismatch_and_inconsistency() {
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::ones(&[2]));
        let mut adam = Adam::with_lr(0.1);
        let grads = grads_for(&store, id, 1.0);
        adam.step(&mut store, &grads);

        let mut sgd = Sgd::new(0.1, 0.9);
        let err = sgd.import_state(&adam.export_state()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = Adam::with_lr(0.1)
            .import_state(&sgd.export_state())
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Inconsistent bank lengths are rejected, and the target stays reset.
        let mut bad = adam.export_state();
        bad.steps.push(99);
        let mut fresh = Adam::with_lr(0.1);
        assert!(fresh.import_state(&bad).is_err());
        assert!(fresh.export_state().steps.is_empty(), "half-loaded state");
    }

    #[test]
    fn clip_activation_is_reported() {
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::zeros(&[1]));
        let mut opt = Adam::new(AdamConfig {
            clip_norm: Some(1.0),
            ..AdamConfig::default()
        });
        let g = Graph::new();
        let x = g.param(id, store.get(id).clone());
        let loss = g.mse_loss(g.scale(x, 1e3), &Tensor::full(&[1], 1e3));
        let out = opt.step(&mut store, &g.backward(loss));
        assert!(out.applied);
        assert!(
            out.clip_scale < 1.0,
            "huge gradient should activate clipping"
        );
        assert!(out.grad_norm > 1.0);
    }
}
