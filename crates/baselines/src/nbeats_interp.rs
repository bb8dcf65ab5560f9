//! N-BEATS *interpretable* architecture (Oreshkin et al., ICLR 2020,
//! Sec. 3.3): a trend stack whose blocks project onto a low-order
//! polynomial basis, followed by a seasonality stack projecting onto a
//! Fourier basis. Backcast/forecast are constrained to those bases, so the
//! stack outputs are directly readable as "trend" and "seasonality" — the
//! hand-designed counterpart of MSD-Mixer's *learned* multi-scale
//! decomposition (Sec. II of the paper).
//!
//! Univariate forecasting only (the configuration the original paper
//! evaluates); channels fold into the batch with shared weights.

use msd_autograd::{Graph, Var};
use msd_nn::{Ctx, Linear, ParamStore};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Basis kind of one stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BasisKind {
    /// Polynomial `t^0..t^degree` over normalised time.
    Trend,
    /// Fourier pairs `sin/cos(2π k t)` for `k = 1..=harmonics`.
    Seasonality,
}

/// Evaluates the basis matrix `[n_coeffs, len]` over normalised time
/// `t ∈ [0, 1)` (backcast) or the forecast continuation.
fn basis_matrix(
    kind: BasisKind,
    n_coeffs: usize,
    len: usize,
    forecast: bool,
    input_len: usize,
) -> Tensor {
    let mut m = Tensor::zeros(&[n_coeffs, len]);
    for j in 0..len {
        // Time continues past the input for the forecast side.
        let t = if forecast {
            (input_len + j) as f32 / input_len as f32
        } else {
            j as f32 / input_len as f32
        };
        for i in 0..n_coeffs {
            let v = match kind {
                BasisKind::Trend => t.powi(i as i32),
                BasisKind::Seasonality => {
                    let k = (i / 2 + 1) as f32;
                    let phase = std::f32::consts::TAU * k * t;
                    if i % 2 == 0 {
                        phase.sin()
                    } else {
                        phase.cos()
                    }
                }
            };
            m.data_mut()[i * len + j] = v;
        }
    }
    m
}

struct BasisBlock {
    hidden: Vec<Linear>,
    coeff_fc: Linear,
    /// Constant `[n_coeffs, input_len]` backcast basis.
    backcast_basis: Tensor,
    /// Constant `[n_coeffs, horizon]` forecast basis.
    forecast_basis: Tensor,
}

/// The interpretable N-BEATS model: trend stack then seasonality stack.
pub struct NBeatsInterpretable {
    input_len: usize,
    horizon: usize,
    trend_blocks: Vec<BasisBlock>,
    season_blocks: Vec<BasisBlock>,
}

/// Outputs of one forward pass: total forecast plus the per-stack parts.
pub struct InterpretableForecast {
    /// Total forecast `[B, C, H]`.
    pub forecast: Var,
    /// The trend stack's share `[B, C, H]`.
    pub trend: Var,
    /// The seasonality stack's share `[B, C, H]`.
    pub seasonality: Var,
}

impl NBeatsInterpretable {
    /// Builds the interpretable stack: `blocks_per_stack` blocks each in the
    /// trend (polynomial degree `degree`) and seasonality (`harmonics`
    /// Fourier pairs) stacks.
    // The hyperparameters are independent knobs; a config struct would just
    // rename the same eight fields.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        input_len: usize,
        horizon: usize,
        degree: usize,
        harmonics: usize,
        blocks_per_stack: usize,
        hidden: usize,
    ) -> Self {
        let mut build_stack = |kind: BasisKind, n_coeffs: usize, tag: &str| -> Vec<BasisBlock> {
            (0..blocks_per_stack)
                .map(|i| {
                    let mut layers = Vec::new();
                    let mut dim = input_len;
                    for j in 0..2 {
                        layers.push(Linear::new(
                            store,
                            rng,
                            &format!("nbeats_i.{tag}{i}.fc{j}"),
                            dim,
                            hidden,
                        ));
                        dim = hidden;
                    }
                    BasisBlock {
                        hidden: layers,
                        // Coefficients for backcast and forecast jointly.
                        coeff_fc: Linear::new(
                            store,
                            rng,
                            &format!("nbeats_i.{tag}{i}.coeff"),
                            hidden,
                            2 * n_coeffs,
                        ),
                        backcast_basis: basis_matrix(kind, n_coeffs, input_len, false, input_len),
                        forecast_basis: basis_matrix(kind, n_coeffs, horizon, true, input_len),
                    }
                })
                .collect()
        };
        let trend_blocks = build_stack(BasisKind::Trend, degree + 1, "trend");
        let season_blocks = build_stack(BasisKind::Seasonality, 2 * harmonics, "season");
        Self {
            input_len,
            horizon,
            trend_blocks,
            season_blocks,
        }
    }

    fn run_stack(&self, ctx: &Ctx, blocks: &[BasisBlock], mut residual: Var) -> (Var, Option<Var>) {
        let g = ctx.g;
        let mut forecast: Option<Var> = None;
        for block in blocks {
            let mut h = residual;
            for fc in &block.hidden {
                h = g.relu(fc.forward(ctx, h));
            }
            let coeffs = block.coeff_fc.forward(ctx, h); // [R, 2·n]
            let n = block.backcast_basis.shape()[0];
            let back_coef = g.narrow(coeffs, 1, 0, n);
            let fore_coef = g.narrow(coeffs, 1, n, n);
            let backcast = g.matmul(back_coef, g.input(block.backcast_basis.clone()));
            let f = g.matmul(fore_coef, g.input(block.forecast_basis.clone()));
            residual = g.sub(residual, backcast);
            forecast = Some(match forecast {
                Some(acc) => g.add(acc, f),
                None => f,
            });
        }
        (residual, forecast)
    }

    /// Forecasts a batch `[B, C, L]`, returning the total plus the
    /// per-stack (trend / seasonality) contributions.
    pub fn forward(&self, ctx: &Ctx, x: &Tensor) -> InterpretableForecast {
        let g = ctx.g;
        let (b, c, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        assert_eq!(l, self.input_len, "built for L={}", self.input_len);
        let flat = g.reshape(g.input(x.clone()), &[b * c, l]);
        let (residual, trend) = self.run_stack(ctx, &self.trend_blocks, flat);
        let (_, season) = self.run_stack(ctx, &self.season_blocks, residual);
        let trend = trend.expect("trend stack nonempty");
        let season = season.expect("season stack nonempty");
        let total = g.add(trend, season);
        let reshape3 = |v: Var| g.reshape(v, &[b, c, self.horizon]);
        InterpretableForecast {
            forecast: reshape3(total),
            trend: reshape3(trend),
            seasonality: reshape3(season),
        }
    }

    /// Convenience inference returning `(forecast, trend, seasonality)`
    /// tensors.
    pub fn predict(&self, store: &ParamStore, x: &Tensor) -> (Tensor, Tensor, Tensor) {
        let g = Graph::eval();
        let mut rng = Rng::seed_from(0);
        let ctx = Ctx::new(&g, store, &mut rng);
        let out = self.forward(&ctx, x);
        (
            g.value(out.forecast),
            g.value(out.trend),
            g.value(out.seasonality),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_nn::{Adam, Optimizer};

    fn fixture() -> (ParamStore, NBeatsInterpretable) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(21);
        let model = NBeatsInterpretable::new(&mut store, &mut rng, 24, 8, 2, 3, 2, 32);
        (store, model)
    }

    #[test]
    fn shapes_and_additivity() {
        let (store, model) = fixture();
        let mut rng = Rng::seed_from(22);
        let x = Tensor::randn(&[3, 2, 24], 1.0, &mut rng);
        let (total, trend, season) = model.predict(&store, &x);
        assert_eq!(total.shape(), &[3, 2, 8]);
        // forecast = trend + seasonality exactly.
        assert!(msd_tensor::allclose(&total, &trend.add(&season), 1e-5));
    }

    #[test]
    fn trend_stack_output_is_smooth_polynomial() {
        // With degree 2, each row of the trend forecast lies on a parabola:
        // third differences vanish.
        let (store, model) = fixture();
        let mut rng = Rng::seed_from(23);
        let x = Tensor::randn(&[1, 1, 24], 1.0, &mut rng);
        let (_, trend, _) = model.predict(&store, &x);
        let row: Vec<f32> = (0..8).map(|t| trend.at(&[0, 0, t])).collect();
        for w in row.windows(4) {
            let d3 = w[3] - 3.0 * w[2] + 3.0 * w[1] - w[0];
            assert!(d3.abs() < 1e-2, "third difference {d3}");
        }
    }

    #[test]
    fn learns_trend_plus_seasonality_and_separates_them() {
        let (mut store, model) = fixture();
        let mut opt = Adam::with_lr(3e-3);
        let mk = |offset: f32| {
            let series: Vec<f32> = (0..32)
                .map(|t| {
                    0.05 * (t as f32 + offset)
                        + (std::f32::consts::TAU * (t as f32 + offset) / 8.0).sin()
                })
                .collect();
            (
                Tensor::from_vec(&[1, 1, 24], series[..24].to_vec()),
                Tensor::from_vec(&[1, 1, 8], series[24..].to_vec()),
            )
        };
        let mut rng = Rng::seed_from(24);
        let mut last = f32::INFINITY;
        for step in 0..250 {
            let (x, y) = mk((step % 8) as f32);
            let g = Graph::new();
            let ctx = Ctx::new(&g, &store, &mut rng);
            let out = model.forward(&ctx, &x);
            let loss = g.mse_loss(out.forecast, &y);
            last = g.value(loss).item();
            let grads = g.backward(loss);
            opt.step(&mut store, &grads);
        }
        assert!(last < 0.1, "training loss {last}");
        // The seasonality stack should carry the oscillation: its forecast
        // variance exceeds the trend stack's on this signal.
        let (x, _) = mk(0.0);
        let (_, trend, season) = model.predict(&store, &x);
        assert!(
            season.var_all() > trend.var_all() * 0.5,
            "seasonality variance {} vs trend {}",
            season.var_all(),
            trend.var_all()
        );
    }

    #[test]
    fn basis_matrices_have_expected_structure() {
        let b = basis_matrix(BasisKind::Trend, 3, 10, false, 10);
        // Row 0 is constant 1.
        assert!(b.data()[..10].iter().all(|&v| (v - 1.0).abs() < 1e-6));
        // Row 1 is linear from 0.
        assert_eq!(b.at(&[1, 0]), 0.0);
        assert!((b.at(&[1, 9]) - 0.9).abs() < 1e-6);

        let s = basis_matrix(BasisKind::Seasonality, 2, 8, false, 8);
        // sin row starts at 0; cos row starts at 1.
        assert!(s.at(&[0, 0]).abs() < 1e-6);
        assert!((s.at(&[1, 0]) - 1.0).abs() < 1e-6);
    }
}
