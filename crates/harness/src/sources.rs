//! Batch sources: adapters from the dataset crate's structures to
//! `(input, Target)` training batches.

use msd_data::{random_observed_mask, SlidingWindows};
use msd_mixer::Target;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;
use std::cell::RefCell;

/// Anything that can serve index-addressable training batches.
pub trait BatchSource {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises the samples at `indices` as a batch.
    fn batch(&self, indices: &[usize]) -> (Tensor, Target);
}

/// Forecasting: sliding windows → `(x, Series(y))`.
pub struct ForecastSource<'a> {
    windows: SlidingWindows<'a>,
    /// Optional cap on how many windows are used (taken evenly).
    selected: Vec<usize>,
}

impl<'a> ForecastSource<'a> {
    /// Wraps a window set, optionally subsampling to at most `cap` windows
    /// spread evenly across the split (keeps coverage chronological).
    pub fn new(windows: SlidingWindows<'a>, cap: usize) -> Self {
        let n = windows.len();
        let selected = evenly_spaced(n, cap);
        Self { windows, selected }
    }
}

impl BatchSource for ForecastSource<'_> {
    fn len(&self) -> usize {
        self.selected.len()
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let mapped: Vec<usize> = indices.iter().map(|&i| self.selected[i]).collect();
        let (x, y) = self.windows.batch(&mapped);
        (x, Target::Series(y))
    }
}

/// Imputation: windows with a fresh random observation mask per batch;
/// the input is the masked series, the target the unmasked one.
pub struct ImputationSource<'a> {
    windows: SlidingWindows<'a>,
    selected: Vec<usize>,
    missing_ratio: f32,
    rng: RefCell<Rng>,
}

impl<'a> ImputationSource<'a> {
    /// Wraps windows with the given missing ratio; `seed` fixes the mask
    /// stream.
    pub fn new(windows: SlidingWindows<'a>, cap: usize, missing_ratio: f32, seed: u64) -> Self {
        let n = windows.len();
        Self {
            windows,
            selected: evenly_spaced(n, cap),
            missing_ratio,
            rng: RefCell::new(Rng::seed_from(seed)),
        }
    }
}

impl BatchSource for ImputationSource<'_> {
    fn len(&self) -> usize {
        self.selected.len()
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let mapped: Vec<usize> = indices.iter().map(|&i| self.selected[i]).collect();
        let (x, _) = self.windows.batch(&mapped);
        let mask = random_observed_mask(x.shape(), self.missing_ratio, &mut self.rng.borrow_mut());
        let masked = x.mul(&mask);
        (
            masked,
            Target::MaskedSeries {
                series: x,
                observed_mask: mask,
            },
        )
    }
}

/// Reconstruction (anomaly detection): the target is the input itself.
pub struct ReconstructSource<'a> {
    windows: SlidingWindows<'a>,
    selected: Vec<usize>,
}

impl<'a> ReconstructSource<'a> {
    /// Wraps windows for plain reconstruction.
    pub fn new(windows: SlidingWindows<'a>, cap: usize) -> Self {
        let n = windows.len();
        Self {
            windows,
            selected: evenly_spaced(n, cap),
        }
    }
}

impl BatchSource for ReconstructSource<'_> {
    fn len(&self) -> usize {
        self.selected.len()
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let mapped: Vec<usize> = indices.iter().map(|&i| self.selected[i]).collect();
        let (x, _) = self.windows.batch(&mapped);
        (x.clone(), Target::Series(x))
    }
}

/// Denoising reconstruction (anomaly detection): the input is randomly
/// corrupted (a fraction of positions zeroed) while the target is the
/// clean window. Plain reconstruction lets a high-capacity model learn the
/// identity map — which then reconstructs *anomalies* just as well and
/// kills detection contrast; denoising forces the model to project onto
/// the normal-data manifold instead.
pub struct DenoisingSource<'a> {
    windows: SlidingWindows<'a>,
    selected: Vec<usize>,
    corrupt_ratio: f32,
    rng: RefCell<Rng>,
}

impl<'a> DenoisingSource<'a> {
    /// Wraps windows; `corrupt_ratio` of positions are zeroed per batch.
    pub fn new(windows: SlidingWindows<'a>, cap: usize, corrupt_ratio: f32, seed: u64) -> Self {
        let n = windows.len();
        Self {
            windows,
            selected: evenly_spaced(n, cap),
            corrupt_ratio,
            rng: RefCell::new(Rng::seed_from(seed)),
        }
    }
}

impl BatchSource for DenoisingSource<'_> {
    fn len(&self) -> usize {
        self.selected.len()
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let mapped: Vec<usize> = indices.iter().map(|&i| self.selected[i]).collect();
        let (x, _) = self.windows.batch(&mapped);
        let mask = random_observed_mask(x.shape(), self.corrupt_ratio, &mut self.rng.borrow_mut());
        (x.mul(&mask), Target::Series(x))
    }
}

/// Classification: stacked labelled series.
pub struct ClassifySource {
    x: Tensor,
    y: Vec<usize>,
}

impl ClassifySource {
    /// Wraps `[N, C, L]` series and their labels.
    pub fn new(x: Tensor, y: Vec<usize>) -> Self {
        assert_eq!(x.shape()[0], y.len(), "sample/label count mismatch");
        Self { x, y }
    }
}

impl BatchSource for ClassifySource {
    fn len(&self) -> usize {
        self.y.len()
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let (c, l) = (self.x.shape()[1], self.x.shape()[2]);
        let mut xs = Vec::with_capacity(indices.len() * c * l);
        let mut ys = Vec::with_capacity(indices.len());
        for &i in indices {
            xs.extend_from_slice(&self.x.data()[i * c * l..(i + 1) * c * l]);
            ys.push(self.y[i]);
        }
        (
            Tensor::from_vec(&[indices.len(), c, l], xs),
            Target::Labels(ys),
        )
    }
}

/// Picks at most `cap` indices from `0..n`, evenly spaced.
fn evenly_spaced(n: usize, cap: usize) -> Vec<usize> {
    if n <= cap {
        return (0..n).collect();
    }
    (0..cap).map(|i| i * n / cap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_data::Split;

    fn series(t: usize) -> Tensor {
        Tensor::from_vec(&[1, t], (0..t).map(|i| i as f32).collect())
    }

    #[test]
    fn evenly_spaced_covers_range() {
        let idx = evenly_spaced(100, 10);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx[0], 0);
        assert!(*idx.last().unwrap() >= 89);
        let idx = evenly_spaced(5, 10);
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn forecast_source_batches() {
        let data = series(100);
        let w = SlidingWindows::new(&data, 10, 5, Split::Train);
        let src = ForecastSource::new(w, 16);
        assert_eq!(src.len(), 16);
        let (x, t) = src.batch(&[0, 1]);
        assert_eq!(x.shape(), &[2, 1, 10]);
        match t {
            Target::Series(y) => assert_eq!(y.shape(), &[2, 1, 5]),
            _ => panic!("wrong target kind"),
        }
    }

    #[test]
    fn imputation_source_masks_input() {
        let data = series(100);
        let w = SlidingWindows::new(&data, 10, 0, Split::Train);
        let src = ImputationSource::new(w, 8, 0.5, 42);
        let (x, t) = src.batch(&[0]);
        match t {
            Target::MaskedSeries {
                series,
                observed_mask,
            } => {
                // Masked input equals series * mask.
                assert_eq!(x, series.mul(&observed_mask));
                assert!(observed_mask.data().contains(&0.0));
            }
            _ => panic!("wrong target kind"),
        }
    }

    #[test]
    fn classify_source_batches_labels() {
        let x = Tensor::zeros(&[4, 2, 8]);
        let src = ClassifySource::new(x, vec![0, 1, 2, 3]);
        let (bx, t) = src.batch(&[3, 1]);
        assert_eq!(bx.shape(), &[2, 2, 8]);
        match t {
            Target::Labels(y) => assert_eq!(y, vec![3, 1]),
            _ => panic!("wrong target kind"),
        }
    }
}
