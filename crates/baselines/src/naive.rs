//! Non-learned reference forecasters, including the M4 competition's
//! **Naive2** — the normalisation constant of the OWA metric (Eq. 8).

/// Repeats the last observed value over the horizon (Naive / Naive1).
pub fn naive_last(history: &[f32], horizon: usize) -> Vec<f32> {
    assert!(!history.is_empty(), "naive forecast of empty history");
    vec![*history.last().unwrap(); horizon]
}

/// Seasonal naive: repeats the last observed seasonal cycle of period `m`.
pub fn seasonal_naive(history: &[f32], horizon: usize, m: usize) -> Vec<f32> {
    assert!(!history.is_empty(), "seasonal naive of empty history");
    let m = m.max(1).min(history.len());
    (0..horizon)
        .map(|h| history[history.len() - m + (h % m)])
        .collect()
}

/// Mean of the last `window` observations, held constant over the horizon.
pub fn moving_average_forecast(history: &[f32], horizon: usize, window: usize) -> Vec<f32> {
    assert!(!history.is_empty(), "moving average of empty history");
    let w = window.clamp(1, history.len());
    let mean = history[history.len() - w..].iter().sum::<f32>() / w as f32;
    vec![mean; horizon]
}

/// Classical multiplicative seasonal indices of period `m` via the
/// ratio-to-moving-average method, normalised to mean 1. Returns `None`
/// when the series is too short or non-positive (the multiplicative model
/// needs positive data).
fn seasonal_indices(history: &[f32], m: usize) -> Option<Vec<f32>> {
    if m < 2 || history.len() < 2 * m || history.iter().any(|&x| x <= 0.0) {
        return None;
    }
    let trend = msd_data::decomp::moving_average(history, m);
    let mut sums = vec![0.0f64; m];
    let mut counts = vec![0usize; m];
    for (t, (&x, &tr)) in history.iter().zip(&trend).enumerate() {
        if tr.abs() > 1e-9 {
            sums[t % m] += (x / tr) as f64;
            counts[t % m] += 1;
        }
    }
    let mut idx: Vec<f32> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 1.0 } else { (s / c as f64) as f32 })
        .collect();
    let mean = idx.iter().sum::<f32>() / m as f32;
    if mean <= 0.0 {
        return None;
    }
    for v in &mut idx {
        *v /= mean;
    }
    Some(idx)
}

/// Whether the series is "seasonal enough" for deseasonalisation — the M4
/// 90 % autocorrelation significance test at lag `m`.
fn is_seasonal(history: &[f32], m: usize) -> bool {
    if m < 2 || history.len() <= m + 2 {
        return false;
    }
    let coeffs = msd_tensor::stats::acf(history, m);
    let limit = 1.645
        * (1.0 / history.len() as f32).sqrt()
        * (1.0 + 2.0 * coeffs[..m - 1].iter().map(|a| a * a).sum::<f32>()).sqrt();
    coeffs[m - 1].abs() > limit
}

/// The M4 **Naive2** benchmark: seasonally adjust when the seasonality test
/// fires, forecast with the naive method on the adjusted series, and
/// re-apply the seasonal pattern.
pub fn naive2(history: &[f32], horizon: usize, m: usize) -> Vec<f32> {
    assert!(!history.is_empty(), "naive2 of empty history");
    if !is_seasonal(history, m) {
        return naive_last(history, horizon);
    }
    match seasonal_indices(history, m) {
        None => naive_last(history, horizon),
        Some(idx) => {
            let n = history.len();
            let deseason_last = history[n - 1] / idx[(n - 1) % m];
            (0..horizon)
                .map(|h| deseason_last * idx[(n + h) % m])
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_repeats_last() {
        assert_eq!(naive_last(&[1.0, 2.0, 3.0], 3), vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn seasonal_naive_repeats_cycle() {
        let h = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(seasonal_naive(&h, 4, 3), vec![4.0, 5.0, 6.0, 4.0]);
    }

    #[test]
    fn moving_average_forecast_is_tail_mean() {
        let h = [0.0, 0.0, 3.0, 5.0];
        assert_eq!(moving_average_forecast(&h, 2, 2), vec![4.0, 4.0]);
    }

    #[test]
    fn naive2_on_nonseasonal_equals_naive() {
        // A noisy trend with no seasonality: the test must not fire.
        let h: Vec<f32> = (0..40)
            .map(|i| 10.0 + 0.1 * i as f32 + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let n2 = naive2(&h, 4, 12);
        let n1 = naive_last(&h, 4);
        assert_eq!(n2, n1);
    }

    #[test]
    fn naive2_tracks_seasonal_pattern() {
        // Strongly seasonal positive data: Naive2's forecast must move with
        // the seasonal cycle rather than stay flat.
        let m = 12;
        let h: Vec<f32> = (0..96)
            .map(|i| 50.0 + 20.0 * (std::f32::consts::TAU * i as f32 / m as f32).sin())
            .collect();
        let fcst = naive2(&h, m, m);
        let range = fcst.iter().copied().fold(f32::NEG_INFINITY, f32::max)
            - fcst.iter().copied().fold(f32::INFINITY, f32::min);
        assert!(range > 10.0, "naive2 forecast flat (range {range})");
        // And its SMAPE against the true continuation beats the flat naive.
        let truth: Vec<f32> = (96..96 + m)
            .map(|i| 50.0 + 20.0 * (std::f32::consts::TAU * i as f32 / m as f32).sin())
            .collect();
        let s2 = msd_metrics::smape(&fcst, &truth);
        let s1 = msd_metrics::smape(&naive_last(&h, m), &truth);
        assert!(s2 < s1, "naive2 {s2} should beat naive {s1}");
    }

    #[test]
    fn seasonal_indices_normalised() {
        let m = 4;
        let h: Vec<f32> = (0..48)
            .map(|i| 10.0 + 3.0 * ((i % m) as f32 - 1.5))
            .collect();
        let idx = seasonal_indices(&h, m).unwrap();
        let mean = idx.iter().sum::<f32>() / m as f32;
        assert!((mean - 1.0).abs() < 1e-4);
    }
}
