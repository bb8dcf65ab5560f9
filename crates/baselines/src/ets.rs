//! Classical exponential smoothing forecasters — the Holt/Winters lineage
//! the paper's related work builds on ([26], [27] in its bibliography):
//! simple exponential smoothing, Holt's linear trend, and additive
//! Holt–Winters with a seasonal component.

/// Simple exponential smoothing: level-only, flat forecast.
pub fn ses_forecast(history: &[f32], horizon: usize, alpha: f32) -> Vec<f32> {
    assert!(!history.is_empty(), "ses of empty history");
    assert!((0.0..=1.0).contains(&alpha), "alpha in [0,1]");
    let mut level = history[0];
    for &x in &history[1..] {
        level = alpha * x + (1.0 - alpha) * level;
    }
    vec![level; horizon]
}

/// Holt's linear method: level + trend, linear forecast.
pub fn holt_forecast(history: &[f32], horizon: usize, alpha: f32, beta: f32) -> Vec<f32> {
    assert!(history.len() >= 2, "holt needs at least two observations");
    let mut level = history[0];
    let mut trend = history[1] - history[0];
    for &x in &history[1..] {
        let prev_level = level;
        level = alpha * x + (1.0 - alpha) * (level + trend);
        trend = beta * (level - prev_level) + (1.0 - beta) * trend;
    }
    (1..=horizon).map(|h| level + h as f32 * trend).collect()
}

/// Additive Holt–Winters: level + trend + seasonal indices of period `m`.
///
/// Falls back to [`holt_forecast`] when the history is shorter than two
/// full seasons.
pub fn holt_winters_forecast(
    history: &[f32],
    horizon: usize,
    m: usize,
    alpha: f32,
    beta: f32,
    gamma: f32,
) -> Vec<f32> {
    let m = m.max(1);
    if m < 2 || history.len() < 2 * m {
        return holt_forecast(history, horizon, alpha, beta);
    }
    // Initialise from the first two seasons.
    let season1_mean: f32 = history[..m].iter().sum::<f32>() / m as f32;
    let season2_mean: f32 = history[m..2 * m].iter().sum::<f32>() / m as f32;
    let mut level = season1_mean;
    let mut trend = (season2_mean - season1_mean) / m as f32;
    let mut seasonal: Vec<f32> = (0..m).map(|i| history[i] - season1_mean).collect();

    for (t, &x) in history.iter().enumerate().skip(m) {
        let s_idx = t % m;
        let prev_level = level;
        level = alpha * (x - seasonal[s_idx]) + (1.0 - alpha) * (level + trend);
        trend = beta * (level - prev_level) + (1.0 - beta) * trend;
        seasonal[s_idx] = gamma * (x - level) + (1.0 - gamma) * seasonal[s_idx];
    }
    let n = history.len();
    (1..=horizon)
        .map(|h| level + h as f32 * trend + seasonal[(n + h - 1) % m])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ses_of_constant_is_the_constant() {
        let fcst = ses_forecast(&[5.0; 30], 4, 0.3);
        assert!(fcst.iter().all(|&v| (v - 5.0).abs() < 1e-5));
    }

    #[test]
    fn holt_extrapolates_a_line() {
        let h: Vec<f32> = (0..40).map(|t| 2.0 + 0.5 * t as f32).collect();
        let fcst = holt_forecast(&h, 5, 0.5, 0.3);
        for (i, &v) in fcst.iter().enumerate() {
            let truth = 2.0 + 0.5 * (40 + i) as f32;
            assert!((v - truth).abs() < 0.2, "h={i}: {v} vs {truth}");
        }
    }

    #[test]
    fn holt_winters_continues_the_seasonal_pattern() {
        let m = 8;
        let h: Vec<f32> = (0..80)
            .map(|t| 10.0 + 3.0 * (std::f32::consts::TAU * t as f32 / m as f32).sin())
            .collect();
        let fcst = holt_winters_forecast(&h, m, m, 0.3, 0.05, 0.3);
        for (i, &v) in fcst.iter().enumerate() {
            let truth = 10.0 + 3.0 * (std::f32::consts::TAU * (80 + i) as f32 / m as f32).sin();
            assert!((v - truth).abs() < 0.8, "h={i}: {v} vs {truth}");
        }
        // And it clearly beats a flat SES forecast on this signal.
        let ses = ses_forecast(&h, m, 0.3);
        let hw_err: f32 = fcst
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                (v - (10.0 + 3.0 * (std::f32::consts::TAU * (80 + i) as f32 / m as f32).sin()))
                    .abs()
            })
            .sum();
        let ses_err: f32 = ses
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                (v - (10.0 + 3.0 * (std::f32::consts::TAU * (80 + i) as f32 / m as f32).sin()))
                    .abs()
            })
            .sum();
        assert!(hw_err < ses_err * 0.6, "hw {hw_err} vs ses {ses_err}");
    }

    #[test]
    fn holt_winters_falls_back_without_two_seasons() {
        let h: Vec<f32> = (0..10).map(|t| t as f32).collect();
        let a = holt_winters_forecast(&h, 3, 8, 0.3, 0.1, 0.2);
        let b = holt_forecast(&h, 3, 0.3, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn forecast_lengths_match() {
        let h: Vec<f32> = (0..30).map(|t| (t as f32 * 0.7).cos()).collect();
        assert_eq!(ses_forecast(&h, 7, 0.2).len(), 7);
        assert_eq!(holt_forecast(&h, 7, 0.2, 0.1).len(), 7);
        assert_eq!(holt_winters_forecast(&h, 7, 6, 0.2, 0.1, 0.1).len(), 7);
    }
}
