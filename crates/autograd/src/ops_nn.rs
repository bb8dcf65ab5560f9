//! Neural-network graph ops: activations, stochastic regularisation,
//! normalisation, softmax, and fused losses.
//!
//! The fused losses and [`Graph::layer_norm`] route through the kernel
//! dispatch layer (`msd_tensor::ops::kernels`), computing loss and input
//! gradient in single fused sweeps.

use crate::graph::{Graph, Node, Op, Var};
use msd_tensor::ops::kernels as k;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

impl Graph {
    /// GELU activation (tanh approximation), the nonlinearity of the paper's
    /// MLP block (Fig. 3a).
    pub fn gelu(&self, a: Var) -> Var {
        let value = self.with_value(a, Tensor::gelu);
        self.push_unary(a, value, Op::Gelu)
    }

    /// ReLU activation.
    pub fn relu(&self, a: Var) -> Var {
        let value = self.with_value(a, Tensor::relu);
        self.push_unary(a, value, Op::Relu)
    }

    /// Hyperbolic tangent activation.
    pub fn tanh(&self, a: Var) -> Var {
        let value = self.with_value(a, Tensor::tanh);
        self.push_unary(a, value, Op::Tanh)
    }

    /// Inverted dropout: in training mode zeroes each element with
    /// probability `p` and rescales survivors by `1/(1-p)`; identity in eval
    /// mode or when `p == 0`.
    pub fn dropout(&self, a: Var, p: f32, rng: &mut Rng) -> Var {
        if !self.is_train() || p <= 0.0 {
            return a;
        }
        assert!(p < 1.0, "dropout p must be < 1");
        let keep = 1.0 - p;
        let mask = self.with_value(a, |t| {
            let data = (0..t.len())
                .map(|_| {
                    if rng.uniform() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                })
                .collect();
            Tensor::from_vec(t.shape(), data)
        });
        self.mul_const(a, &mask)
    }

    /// DropPath / stochastic depth (the regulariser of the paper's MLP
    /// block, after FractalNet): in training mode zeroes the *entire* tensor
    /// of each sample along the leading batch axis with probability `p`,
    /// rescaling survivors by `1/(1-p)`. Identity in eval mode.
    pub fn drop_path(&self, a: Var, p: f32, rng: &mut Rng) -> Var {
        if !self.is_train() || p <= 0.0 {
            return a;
        }
        assert!(p < 1.0, "drop_path p must be < 1");
        let keep = 1.0 - p;
        let mask = self.with_value(a, |t| {
            let batch = t.shape()[0];
            let per = t.len() / batch;
            let mut data = Vec::with_capacity(t.len());
            for _ in 0..batch {
                let v = if rng.uniform() < keep {
                    1.0 / keep
                } else {
                    0.0
                };
                data.extend(std::iter::repeat_n(v, per));
            }
            Tensor::from_vec(t.shape(), data)
        });
        self.mul_const(a, &mask)
    }

    /// Non-overlapping max pooling with kernel = stride = `k` over the last
    /// axis. The input's last extent must be divisible by `k` (pad first if
    /// necessary). Used by the MSD-Mixer-N ablation variant, which replaces
    /// patching with N-HiTS-style max pooling.
    pub fn maxpool_last(&self, a: Var, k: usize) -> Var {
        assert!(k >= 1, "pool kernel must be >= 1");
        let (value, argmax) = self.with_value(a, |t| {
            let last = *t.shape().last().expect("maxpool on scalar");
            assert_eq!(
                last % k,
                0,
                "maxpool_last: extent {last} not divisible by {k}"
            );
            let out_last = last / k;
            let rows = t.len() / last;
            let mut out = Vec::with_capacity(rows * out_last);
            let mut argmax = Vec::with_capacity(rows * out_last);
            for r in 0..rows {
                let row = &t.data()[r * last..(r + 1) * last];
                for w in 0..out_last {
                    let base = w * k;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for (i, &v) in row[base..base + k].iter().enumerate() {
                        if v > best {
                            best = v;
                            best_i = base + i;
                        }
                    }
                    out.push(best);
                    argmax.push((r * last + best_i) as u32);
                }
            }
            let mut shape = t.shape().to_vec();
            *shape.last_mut().unwrap() = out_last;
            (Tensor::from_vec(&shape, out), argmax)
        });
        self.push_unary(a, value, Op::MaxPoolLast { argmax })
    }

    /// Fused LayerNorm over the last axis with affine parameters:
    /// `y = (x - mean) * rstd * gamma + beta`, one tape node instead of the
    /// ~10 primitive ops of a composed implementation. Forward and backward
    /// run through the parallel kernels in `msd_tensor::ops::kernels::norm`;
    /// the per-row statistics are saved for the adjoint.
    ///
    /// # Panics
    /// Panics if `gamma`/`beta` are not 1-D of the last-axis extent.
    pub fn layer_norm(&self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let (value, mean, rstd) = self.with_value(x, |tx| {
            self.with_value(gamma, |tg| {
                self.with_value(beta, |tb| {
                    let d = *tx.shape().last().expect("layer_norm on scalar");
                    assert_eq!(tg.shape(), &[d], "layer_norm gamma shape");
                    assert_eq!(tb.shape(), &[d], "layer_norm beta shape");
                    let rows = tx.len() / d;
                    let mut out = vec![0.0f32; tx.len()];
                    let mut mean = vec![0.0f32; rows];
                    let mut rstd = vec![0.0f32; rows];
                    k::norm::layernorm_fwd(
                        tx.data(),
                        d,
                        tg.data(),
                        tb.data(),
                        eps,
                        &mut out,
                        &mut mean,
                        &mut rstd,
                    );
                    (
                        Tensor::from_vec(tx.shape(), out),
                        Tensor::from_vec(&[rows], mean),
                        Tensor::from_vec(&[rows], rstd),
                    )
                })
            })
        });
        let parents = vec![x, gamma, beta];
        let needs_grad = {
            let nodes = self.nodes.borrow();
            parents.iter().any(|p| nodes[p.0 as usize].needs_grad)
        };
        self.push(Node {
            value,
            op: Op::LayerNorm { mean, rstd, eps },
            parents,
            needs_grad,
            param: None,
        })
    }

    /// Numerically-stable softmax over the last axis.
    pub fn softmax_last(&self, a: Var) -> Var {
        let value = self.with_value(a, softmax_last_tensor);
        self.push_unary(a, value, Op::SoftmaxLast)
    }

    /// Fused softmax + cross-entropy over `[batch, classes]` logits against
    /// integer labels, returning the mean negative log-likelihood as a
    /// scalar node.
    ///
    /// # Panics
    /// Panics if `logits` is not 2-D or `labels` length mismatches the batch.
    pub fn softmax_cross_entropy(&self, logits: Var, labels: &[usize]) -> Var {
        let (loss, probs) = self.with_value(logits, |t| {
            assert_eq!(
                t.ndim(),
                2,
                "softmax_cross_entropy expects [batch, classes]"
            );
            let batch = t.shape()[0];
            let classes = t.shape()[1];
            assert_eq!(labels.len(), batch, "label count mismatch");
            let probs = softmax_last_tensor(t);
            let mut nll = 0.0f64;
            for (i, &lbl) in labels.iter().enumerate() {
                assert!(lbl < classes, "label {lbl} out of range");
                nll -= (probs.data()[i * classes + lbl].max(1e-12) as f64).ln();
            }
            (Tensor::scalar((nll / batch as f64) as f32), probs)
        });
        self.push_unary(
            logits,
            loss,
            Op::SoftmaxCe {
                probs,
                labels: labels.to_vec(),
            },
        )
    }

    /// Mean-squared-error against a constant target, fused into one node:
    /// `mean((a - target)^2)`. Loss (sum of squared errors) and input
    /// gradient each run as one fused kernel sweep.
    pub fn mse_loss(&self, a: Var, target: &Tensor) -> Var {
        let (loss, grad) = self.with_value(a, |t| {
            assert_eq!(t.shape(), target.shape(), "mse_loss shape mismatch");
            let n = t.len() as f32;
            let loss = k::reduce::sse(t.data(), target.data()) / n;
            let mut gd = vec![0.0f32; t.len()];
            k::ew::scaled_diff(t.data(), target.data(), 2.0 / n, &mut gd);
            (Tensor::scalar(loss), Tensor::from_vec(t.shape(), gd))
        });
        self.push_unary(a, loss, Op::FusedLoss { input_grad: grad })
    }

    /// Mean-absolute-error against a constant target, fused:
    /// `mean(|a - target|)` with sign subgradient.
    pub fn mae_loss(&self, a: Var, target: &Tensor) -> Var {
        let (loss, grad) = self.with_value(a, |t| {
            assert_eq!(t.shape(), target.shape(), "mae_loss shape mismatch");
            let n = t.len() as f32;
            let loss = k::reduce::sad(t.data(), target.data()) / n;
            let mut gd = vec![0.0f32; t.len()];
            k::ew::sign_scaled(t.data(), target.data(), 1.0 / n, &mut gd);
            (Tensor::scalar(loss), Tensor::from_vec(t.shape(), gd))
        });
        self.push_unary(a, loss, Op::FusedLoss { input_grad: grad })
    }

    /// Masked MSE: `sum(mask * (a - target)^2) / max(sum(mask), 1)`. Used by
    /// the imputation task, where the loss is computed on masked positions
    /// only. The masked sum of squares and the mask count come from ONE
    /// fused sweep over the inputs ([`k::reduce::masked_sse`]).
    pub fn masked_mse_loss(&self, a: Var, target: &Tensor, mask: &Tensor) -> Var {
        let (loss, grad) = self.with_value(a, |t| {
            assert_eq!(t.shape(), target.shape(), "masked_mse shape mismatch");
            assert_eq!(t.shape(), mask.shape(), "masked_mse mask shape mismatch");
            let (sse, count) = k::reduce::masked_sse(t.data(), target.data(), mask.data());
            let denom = count.max(1.0);
            let loss = sse / denom;
            let mut gd = vec![0.0f32; t.len()];
            k::ew::masked_scaled_diff(t.data(), target.data(), mask.data(), 2.0 / denom, &mut gd);
            (Tensor::scalar(loss), Tensor::from_vec(t.shape(), gd))
        });
        self.push_unary(a, loss, Op::FusedLoss { input_grad: grad })
    }
}

/// Stable softmax over the last axis of a plain tensor, via the row
/// softmax kernel.
pub(crate) fn softmax_last_tensor(t: &Tensor) -> Tensor {
    let last = *t.shape().last().expect("softmax on scalar");
    let mut out = vec![0.0f32; t.len()];
    k::norm::softmax_rows(t.data(), last, &mut out);
    Tensor::from_vec(t.shape(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn softmax_rows_sum_to_one() {
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(
            &[2, 3],
            vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0],
        ));
        let s = g.value(g.softmax_last(x));
        for row in s.data().chunks_exact(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax_last_tensor(&Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]));
        let b = softmax_last_tensor(&Tensor::from_vec(&[1, 3], vec![101.0, 102.0, 103.0]));
        assert!(msd_tensor::allclose(&a, &b, 1e-5));
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let g = Graph::new();
        let logits = g.input(Tensor::from_vec(&[2, 2], vec![20.0, 0.0, 0.0, 20.0]));
        let loss = g.softmax_cross_entropy(logits, &[0, 1]);
        assert!(g.value(loss).item() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let g = Graph::new();
        let logits = g.input(Tensor::zeros(&[1, 4]));
        let loss = g.softmax_cross_entropy(logits, &[2]);
        assert!((g.value(loss).item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_is_probs_minus_onehot() {
        let g = Graph::new();
        let logits = g.param(0, Tensor::zeros(&[1, 2]));
        let loss = g.softmax_cross_entropy(logits, &[1]);
        let grads = g.backward(loss);
        let gl = grads.get(0).unwrap();
        assert!((gl.data()[0] - 0.5).abs() < 1e-5);
        assert!((gl.data()[1] + 0.5).abs() < 1e-5);
    }

    #[test]
    fn mse_loss_value_and_grad() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![1.0, 3.0]));
        let target = Tensor::from_vec(&[2], vec![0.0, 0.0]);
        let loss = g.mse_loss(x, &target);
        assert!((g.value(loss).item() - 5.0).abs() < 1e-5);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[1.0, 3.0]);
    }

    #[test]
    fn mae_loss_value_and_sign_grad() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![2.0, -4.0]));
        let target = Tensor::zeros(&[2]);
        let loss = g.mae_loss(x, &target);
        assert!((g.value(loss).item() - 3.0).abs() < 1e-5);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[0.5, -0.5]);
    }

    #[test]
    fn masked_mse_ignores_unmasked() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![10.0, 2.0]));
        let target = Tensor::zeros(&[2]);
        let mask = Tensor::from_vec(&[2], vec![0.0, 1.0]);
        let loss = g.masked_mse_loss(x, &target, &mask);
        assert!((g.value(loss).item() - 4.0).abs() < 1e-5);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data()[0], 0.0);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let g = Graph::eval();
        let mut rng = Rng::seed_from(0);
        let x = g.input(Tensor::ones(&[8]));
        let y = g.dropout(x, 0.5, &mut rng);
        assert_eq!(g.value(y).data(), &[1.0; 8]);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let g = Graph::new();
        let mut rng = Rng::seed_from(0);
        let x = g.input(Tensor::ones(&[10_000]));
        let y = g.dropout(x, 0.3, &mut rng);
        let mean = g.value(y).mean_all();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn drop_path_zeroes_whole_samples() {
        let g = Graph::new();
        let mut rng = Rng::seed_from(1);
        let x = g.input(Tensor::ones(&[64, 4]));
        let y = g.value(g.drop_path(x, 0.5, &mut rng));
        for row in y.data().chunks_exact(4) {
            let all_zero = row.iter().all(|&v| v == 0.0);
            let all_two = row.iter().all(|&v| (v - 2.0).abs() < 1e-6);
            assert!(all_zero || all_two, "row {row:?}");
        }
    }
}
