//! Classical autoregressive forecasting: AR(p) fit by ordinary least
//! squares on lagged windows. The kind of statistical method the paper's
//! related work contrasts with learned decomposition (Sec. II) — a useful
//! sanity baseline and a reference point for the examples.

/// An AR(p) model `x_t = c + Σ_i φ_i x_{t−i}` fit by least squares.
#[derive(Clone, Debug)]
pub struct ArModel {
    /// Lag coefficients `φ_1..φ_p`.
    pub coeffs: Vec<f32>,
    /// Intercept `c`.
    pub intercept: f32,
}

impl ArModel {
    /// Fits AR(p) to `series` by solving the normal equations of the OLS
    /// regression of `x_t` on `(1, x_{t−1}, …, x_{t−p})`. Returns `None`
    /// when the series is too short or the normal matrix is singular.
    pub fn fit(series: &[f32], p: usize) -> Option<ArModel> {
        let n = series.len();
        if p == 0 || n < 2 * p + 2 {
            return None;
        }
        let rows = n - p;
        let dim = p + 1; // intercept + p lags
                         // Accumulate XᵀX and Xᵀy in f64.
        let mut xtx = vec![0.0f64; dim * dim];
        let mut xty = vec![0.0f64; dim];
        for t in p..n {
            // Feature vector: [1, x_{t-1}, ..., x_{t-p}].
            let mut feat = Vec::with_capacity(dim);
            feat.push(1.0f64);
            for i in 1..=p {
                feat.push(series[t - i] as f64);
            }
            let y = series[t] as f64;
            for a in 0..dim {
                for b in 0..dim {
                    xtx[a * dim + b] += feat[a] * feat[b];
                }
                xty[a] += feat[a] * y;
            }
        }
        let _ = rows;
        // Ridge jitter for stability, then Gaussian elimination.
        for a in 0..dim {
            xtx[a * dim + a] += 1e-6;
        }
        let sol = solve(&mut xtx, &mut xty, dim)?;
        Some(ArModel {
            intercept: sol[0] as f32,
            coeffs: sol[1..].iter().map(|&v| v as f32).collect(),
        })
    }

    /// Order `p`.
    pub fn order(&self) -> usize {
        self.coeffs.len()
    }

    /// Iterated multi-step forecast from the end of `history`.
    pub fn forecast(&self, history: &[f32], horizon: usize) -> Vec<f32> {
        let p = self.coeffs.len();
        assert!(history.len() >= p, "history shorter than AR order");
        let mut buf: Vec<f32> = history[history.len() - p..].to_vec();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let mut v = self.intercept;
            for (i, &phi) in self.coeffs.iter().enumerate() {
                v += phi * buf[buf.len() - 1 - i];
            }
            out.push(v);
            buf.push(v);
        }
        out
    }
}

/// Solves `A x = b` (dense, `dim × dim`) by Gaussian elimination with
/// partial pivoting. Returns `None` on singular systems.
fn solve(a: &mut [f64], b: &mut [f64], dim: usize) -> Option<Vec<f64>> {
    for col in 0..dim {
        // Pivot.
        let mut pivot = col;
        for r in col + 1..dim {
            if a[r * dim + col].abs() > a[pivot * dim + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * dim + col].abs() < 1e-12 {
            return None;
        }
        if pivot != col {
            for k in 0..dim {
                a.swap(col * dim + k, pivot * dim + k);
            }
            b.swap(col, pivot);
        }
        // Eliminate below.
        let diag = a[col * dim + col];
        for r in col + 1..dim {
            let f = a[r * dim + col] / diag;
            if f == 0.0 {
                continue;
            }
            for k in col..dim {
                a[r * dim + k] -= f * a[col * dim + k];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; dim];
    for col in (0..dim).rev() {
        let mut v = b[col];
        for k in col + 1..dim {
            v -= a[col * dim + k] * x[k];
        }
        x[col] = v / a[col * dim + col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_a_known_ar1_process() {
        // x_t = 2 + 0.8 x_{t-1} + tiny noise.
        let mut rng = msd_tensor::rng::Rng::seed_from(5);
        let mut series = vec![10.0f32];
        for _ in 0..500 {
            let last = *series.last().unwrap();
            series.push(2.0 + 0.8 * last + 0.01 * rng.normal());
        }
        let model = ArModel::fit(&series, 1).unwrap();
        assert!(
            (model.coeffs[0] - 0.8).abs() < 0.02,
            "phi {}",
            model.coeffs[0]
        );
        assert!(
            (model.intercept - 2.0).abs() < 0.25,
            "c {}",
            model.intercept
        );
    }

    #[test]
    fn ar2_fits_a_sinusoid_exactly() {
        // A pure sinusoid satisfies x_t = 2cos(ω) x_{t-1} − x_{t-2}.
        let omega = 2.0 * std::f32::consts::PI / 12.0;
        let series: Vec<f32> = (0..200).map(|t| (omega * t as f32).sin()).collect();
        let model = ArModel::fit(&series, 2).unwrap();
        assert!(
            (model.coeffs[0] - 2.0 * omega.cos()).abs() < 1e-3,
            "phi1 {}",
            model.coeffs[0]
        );
        assert!(
            (model.coeffs[1] + 1.0).abs() < 1e-3,
            "phi2 {}",
            model.coeffs[1]
        );
        // And the forecast continues the sinusoid.
        let fcst = model.forecast(&series, 12);
        for (h, &v) in fcst.iter().enumerate() {
            let truth = (omega * (200 + h) as f32).sin();
            assert!((v - truth).abs() < 1e-2, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn refuses_degenerate_inputs() {
        assert!(ArModel::fit(&[1.0, 2.0, 3.0], 5).is_none());
        assert!(ArModel::fit(&[], 1).is_none());
        assert!(ArModel::fit(&[1.0; 10], 0).is_none());
    }

    #[test]
    fn constant_series_forecasts_the_constant() {
        let series = vec![4.2f32; 64];
        // Ridge jitter keeps the system solvable; forecast ≈ the constant.
        let model = ArModel::fit(&series, 3).unwrap();
        let fcst = model.forecast(&series, 5);
        for v in fcst {
            assert!((v - 4.2).abs() < 0.05, "forecast {v}");
        }
    }

    #[test]
    fn forecast_length_matches_horizon() {
        let series: Vec<f32> = (0..60).map(|t| (t as f32 * 0.3).sin()).collect();
        let model = ArModel::fit(&series, 4).unwrap();
        assert_eq!(model.forecast(&series, 17).len(), 17);
        assert_eq!(model.order(), 4);
    }
}
