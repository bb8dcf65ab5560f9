//! Classical moving-average series decomposition — the trend/seasonal
//! baseline the paper contrasts with learned decomposition (Sec. IV-H), and
//! the building block of the DLinear baseline.

/// Centred moving average of `series` with the given (odd or even) window;
/// edges are padded by repeating the boundary values, matching the padding
/// convention of the Autoformer/DLinear series-decomposition block.
pub fn moving_average(series: &[f32], window: usize) -> Vec<f32> {
    assert!(window >= 1, "window must be >= 1");
    let n = series.len();
    if n == 0 {
        return vec![];
    }
    let front = (window - 1) / 2;
    let back = window - 1 - front;
    // Padded view: front copies of the first value, back copies of the last.
    let get = |i: isize| -> f32 {
        if i < 0 {
            series[0]
        } else if i as usize >= n {
            series[n - 1]
        } else {
            series[i as usize]
        }
    };
    let mut out = Vec::with_capacity(n);
    // Running-sum sliding window over the padded sequence.
    let mut sum = 0.0f64;
    for k in -(front as isize)..=(back as isize) {
        sum += get(k) as f64;
    }
    out.push((sum / window as f64) as f32);
    for t in 1..n {
        sum += get(t as isize + back as isize) as f64;
        sum -= get(t as isize - 1 - front as isize) as f64;
        out.push((sum / window as f64) as f32);
    }
    out
}

/// Splits a series into `(trend, remainder)` with a moving average — the
/// "series decomposition" of DLinear/Autoformer.
pub fn trend_remainder(series: &[f32], window: usize) -> (Vec<f32>, Vec<f32>) {
    let trend = moving_average(series, window);
    let remainder = series.iter().zip(&trend).map(|(&x, &t)| x - t).collect();
    (trend, remainder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_one_is_identity() {
        let s = vec![1.0, 5.0, 2.0];
        assert_eq!(moving_average(&s, 1), s);
    }

    #[test]
    fn constant_series_unchanged() {
        let s = vec![3.0; 10];
        let t = moving_average(&s, 5);
        assert!(t.iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn smooths_an_alternating_series() {
        let s: Vec<f32> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let t = moving_average(&s, 4);
        // Interior values average to 0.
        assert!(t[10].abs() < 0.3, "t[10]={}", t[10]);
    }

    #[test]
    fn running_sum_matches_naive() {
        let s: Vec<f32> = (0..30).map(|i| ((i * 37) % 11) as f32).collect();
        let fast = moving_average(&s, 7);
        // Naive recomputation.
        let n = s.len();
        let front = 3isize;
        #[allow(clippy::needless_range_loop)]
        for t in 0..n {
            let mut sum = 0.0f32;
            for k in -front..=3 {
                let idx = (t as isize + k).clamp(0, n as isize - 1) as usize;
                sum += s[idx];
            }
            assert!((fast[t] - sum / 7.0).abs() < 1e-4, "t={t}");
        }
    }

    #[test]
    fn trend_plus_remainder_reconstructs() {
        let s: Vec<f32> = (0..50)
            .map(|i| (i as f32 * 0.3).sin() + 0.1 * i as f32)
            .collect();
        let (trend, rem) = trend_remainder(&s, 9);
        for ((&x, &t), &r) in s.iter().zip(&trend).zip(&rem) {
            assert!((x - (t + r)).abs() < 1e-5);
        }
    }

    #[test]
    fn trend_captures_slow_component() {
        // trend of (linear + fast sine) stays close to the linear part.
        let s: Vec<f32> = (0..100)
            .map(|i| 0.1 * i as f32 + (i as f32 * 2.0).sin())
            .collect();
        let (trend, _) = trend_remainder(&s, 25);
        let mid_err: f32 = (30..70)
            .map(|i| (trend[i] - 0.1 * i as f32).abs())
            .sum::<f32>()
            / 40.0;
        assert!(mid_err < 0.3, "trend error {mid_err}");
    }
}
