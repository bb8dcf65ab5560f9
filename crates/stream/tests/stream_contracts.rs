//! Contract tests for the streaming primitives:
//!
//! * a property test pitting [`RingWindower`] against the obvious
//!   materialize-everything-and-slice reference across random shapes,
//!   including stride > window (gaps) and stride = 1 (every step) — the
//!   ring's wrap-around reassembly must be bit-identical to slicing;
//! * a differential test pitting the incremental Welford accumulator
//!   against the batch two-pass mean/variance, including the constant
//!   series and the one-element window.

use msd_stream::RingWindower;
use msd_tensor::rng::Rng;
use msd_tensor::stats::Welford;
use msd_tensor::Tensor;

/// Reference: keep every sample, then emit `[C, L]` windows starting at
/// multiples of `stride` by slicing the materialized stream.
fn reference_windows(
    samples: &[Vec<f32>],
    channels: usize,
    window: usize,
    stride: usize,
) -> Vec<Tensor> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while start + window <= samples.len() {
        let mut data = vec![0.0f32; channels * window];
        for (k, s) in samples[start..start + window].iter().enumerate() {
            for ch in 0..channels {
                data[ch * window + k] = s[ch];
            }
        }
        out.push(Tensor::from_vec(&[channels, window], data));
        start += stride;
    }
    out
}

fn check_config(channels: usize, window: usize, stride: usize, len: usize, rng: &mut Rng) {
    let samples: Vec<Vec<f32>> = (0..len)
        .map(|_| (0..channels).map(|_| rng.normal()).collect())
        .collect();
    let mut ring = RingWindower::new(channels, window, stride);
    let mut got = Vec::new();
    for s in &samples {
        if let Some(w) = ring.push(s) {
            got.push(w);
        }
    }
    let want = reference_windows(&samples, channels, window, stride);
    assert_eq!(
        got.len(),
        want.len(),
        "window count mismatch at C={channels} L={window} stride={stride} len={len}"
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.shape(), w.shape());
        let same = g
            .data()
            .iter()
            .zip(w.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "window {i} diverged at C={channels} L={window} stride={stride} len={len}"
        );
    }
}

#[test]
fn ring_windowing_matches_materialize_and_slice() {
    let mut rng = Rng::seed_from(11);
    // Random shapes, biased to force many wrap-arounds (len >> window).
    for _ in 0..40 {
        let channels = 1 + (rng.uniform() * 3.0) as usize;
        let window = 2 + (rng.uniform() * 14.0) as usize;
        let stride = 1 + (rng.uniform() * 20.0) as usize; // often > window
        let len = window + (rng.uniform() * 120.0) as usize;
        check_config(channels, window, stride, len, &mut rng);
    }
    // Pinned corners: every-step emission, gap strides, exact-fit stream,
    // and a stream shorter than one window (no emission at all).
    check_config(2, 8, 1, 65, &mut rng);
    check_config(3, 5, 11, 80, &mut rng);
    check_config(1, 16, 16, 64, &mut rng);
    check_config(2, 9, 2, 8, &mut rng);
}

/// Batch two-pass reference: exact mean first, then centered moments.
fn two_pass(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var)
}

#[test]
fn welford_matches_batch_two_pass_within_tolerance() {
    let mut rng = Rng::seed_from(23);
    for len in [1usize, 2, 3, 7, 64, 501, 4096] {
        // Offset the data so cancellation actually stresses the update.
        let xs: Vec<f64> = (0..len).map(|_| 1e3 + rng.normal() as f64 * 2.5).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (mean, var) = two_pass(&xs);
        assert_eq!(w.count(), len as u64);
        assert!(
            (w.mean() - mean).abs() <= 1e-9 * mean.abs().max(1.0),
            "mean diverged at len {len}: {} vs {mean}",
            w.mean()
        );
        assert!(
            (w.variance() - var).abs() <= 1e-9 * var.abs().max(1.0),
            "variance diverged at len {len}: {} vs {var}",
            w.variance()
        );
    }
}

#[test]
fn welford_constant_series_and_single_element() {
    // A constant series must read exactly zero variance — catastrophic
    // cancellation in a naive sum-of-squares accumulator breaks this.
    let mut w = Welford::new();
    for _ in 0..1000 {
        w.push(3.25e6);
    }
    assert_eq!(w.mean(), 3.25e6);
    assert_eq!(w.variance(), 0.0);
    assert_eq!(w.std(), 0.0);

    // One element: defined mean, zero variance, never NaN.
    let mut one = Welford::new();
    one.push(-7.5);
    assert_eq!(one.count(), 1);
    assert_eq!(one.mean(), -7.5);
    assert_eq!(one.variance(), 0.0);

    // Empty: zeros, never NaN.
    let empty = Welford::new();
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.mean(), 0.0);
    assert_eq!(empty.variance(), 0.0);
}
