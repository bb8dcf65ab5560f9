//! NLinear (Zeng et al., AAAI 2023): subtract the last observed value,
//! apply one linear map over the time axis, add the value back. The
//! last-value normalisation makes it robust to level shifts, which is why
//! it is strong on nonstationary data such as Exchange.

use crate::{task_output_len, Baseline};
use msd_autograd::Var;
use msd_nn::{Ctx, Linear, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// The NLinear model.
pub struct NLinear {
    task: Task,
    input_len: usize,
    out_len: usize,
    channels: usize,
    fc: Linear,
    classify_fc: Option<Linear>,
}

impl NLinear {
    /// Builds NLinear for `[B, channels, input_len]` inputs.
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
        let fc = Linear::new(store, rng, "nlinear.fc", input_len, out_len);
        let classify_fc = match &task {
            Task::Classify { classes } => Some(Linear::new(
                store,
                rng,
                "nlinear.classify",
                channels * out_len,
                *classes,
            )),
            _ => None,
        };
        Self {
            task,
            input_len,
            out_len,
            channels,
            fc,
            classify_fc,
        }
    }

    /// Last-value decomposition (parameter-free, outside the tape):
    /// `centered = x - last` and the per-row last value broadcast to the
    /// output length, shaped `[B, C, out_len]`.
    fn centered_and_offset(&self, x: &Tensor) -> (Tensor, Tensor) {
        let l = self.input_len;
        let rows = x.len() / l;
        let mut centered = x.clone();
        let mut offset = Tensor::zeros(&[x.shape()[0], x.shape()[1], self.out_len]);
        for r in 0..rows {
            let lv = x.data()[r * l + l - 1];
            for v in &mut centered.data_mut()[r * l..(r + 1) * l] {
                *v -= lv;
            }
            for v in &mut offset.data_mut()[r * self.out_len..(r + 1) * self.out_len] {
                *v = lv;
            }
        }
        (centered, offset)
    }
}

impl Baseline for NLinear {
    fn name(&self) -> &'static str {
        "NLinear"
    }

    fn task(&self) -> &Task {
        &self.task
    }

    fn forward(&self, ctx: &Ctx, x: &Tensor) -> Var {
        let g = ctx.g;
        let b = x.shape()[0];
        debug_assert_eq!(x.shape()[2], self.input_len);
        let (centered, offset) = self.centered_and_offset(x);
        let out = self.fc.forward(ctx, g.input(centered));
        // Add the last value back (except for classification logits). The
        // offset enters as an input leaf — not an op payload — so compiled
        // plans can rebind it per batch; `add` on a no-grad leaf runs the
        // exact kernel `add_const` did.
        let restored = g.add(out, g.input(offset));
        match &self.task {
            Task::Classify { .. } => {
                let flat = g.reshape(restored, &[b, self.channels * self.out_len]);
                self.classify_fc
                    .as_ref()
                    .expect("classify head")
                    .forward(ctx, flat)
            }
            _ => restored,
        }
    }

    fn plan_prelude(&self, x: &Tensor) -> Vec<Tensor> {
        let (centered, offset) = self.centered_and_offset(x);
        vec![centered, offset]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_learns, exercise_baseline};

    #[test]
    fn nlinear_all_tasks() {
        exercise_baseline(|store, rng, c, l, task| Box::new(NLinear::new(store, rng, c, l, task)));
    }

    #[test]
    fn nlinear_learns_sine_continuation() {
        check_learns(
            |store, rng, c, l, task| Box::new(NLinear::new(store, rng, c, l, task)),
            100,
            5e-3,
        );
    }

    #[test]
    fn level_shift_invariance_at_init() {
        // With zero weights the model predicts exactly the last value, so a
        // level shift moves predictions by the same amount.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(6);
        let model = NLinear::new(&mut store, &mut rng, 1, 8, Task::Forecast { horizon: 3 });
        // Zero out the weights to isolate the offset path.
        for i in 0..store.len() {
            let t = store.get_mut(i);
            let z = Tensor::zeros(t.shape());
            *t = z;
        }
        let x1 = Tensor::from_vec(&[1, 1, 8], (0..8).map(|i| i as f32).collect());
        let x2 = x1.add_scalar(100.0);
        let run = |x: &Tensor| {
            let g = msd_autograd::Graph::eval();
            let mut r = Rng::seed_from(0);
            let ctx = Ctx::new(&g, &store, &mut r);
            g.value(model.forward(&ctx, x))
        };
        let y1 = run(&x1);
        let y2 = run(&x2);
        assert_eq!(y1.data()[0], 7.0);
        assert_eq!(y2.data()[0], 107.0);
    }
}
