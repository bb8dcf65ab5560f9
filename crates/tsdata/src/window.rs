//! Sliding-window sampling and mini-batch iteration.

use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// A chronological split of one long series, in the 70/10/20
/// train/validation/test convention of the benchmark suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// First 70 % of windows.
    Train,
    /// Next 10 %.
    Val,
    /// Final 20 %.
    Test,
}

/// Enumerates `(input, target)` sliding windows over a long series
/// `[C, T]`: inputs of length `input_len`, targets of the following
/// `horizon` steps, at stride 1, split chronologically.
pub struct SlidingWindows<'a> {
    data: &'a Tensor,
    input_len: usize,
    horizon: usize,
    /// Start offsets of the windows belonging to the selected split.
    starts: Vec<usize>,
}

impl<'a> SlidingWindows<'a> {
    /// Builds the window index for `split` over `data` of shape `[C, T]`.
    ///
    /// # Panics
    /// Panics if the series is too short for even one window.
    pub fn new(data: &'a Tensor, input_len: usize, horizon: usize, split: Split) -> Self {
        assert_eq!(data.ndim(), 2, "expected [C, T]");
        let t_total = data.shape()[1];
        assert!(
            t_total >= input_len + horizon,
            "series of length {t_total} too short for {input_len}+{horizon} windows"
        );
        let num_windows = t_total - input_len - horizon + 1;
        let train_end = (num_windows as f32 * 0.7) as usize;
        let val_end = (num_windows as f32 * 0.8) as usize;
        let range = match split {
            Split::Train => 0..train_end,
            Split::Val => train_end..val_end,
            Split::Test => val_end..num_windows,
        };
        Self {
            data,
            input_len,
            horizon,
            starts: range.collect(),
        }
    }

    /// Number of windows in this split.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Materialises window `i` as `(x of [C, input_len], y of [C, horizon])`.
    pub fn get(&self, i: usize) -> (Tensor, Tensor) {
        let start = self.starts[i];
        let x = self.data.narrow(1, start, self.input_len);
        let y = self.data.narrow(1, start + self.input_len, self.horizon);
        (x, y)
    }

    /// Stacks the windows at `indices` into batched `([B, C, L], [B, C, H])`.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        let c = self.data.shape()[0];
        let mut xs = Vec::with_capacity(indices.len() * c * self.input_len);
        let mut ys = Vec::with_capacity(indices.len() * c * self.horizon);
        for &i in indices {
            let (x, y) = self.get(i);
            xs.extend_from_slice(x.data());
            ys.extend_from_slice(y.data());
        }
        (
            Tensor::from_vec(&[indices.len(), c, self.input_len], xs),
            Tensor::from_vec(&[indices.len(), c, self.horizon], ys),
        )
    }
}

/// Shuffled mini-batch index iterator (one epoch).
pub struct Batcher {
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl Batcher {
    /// Creates an epoch over `n` samples with the given batch size,
    /// shuffled when `rng` is provided.
    pub fn new(n: usize, batch_size: usize, rng: Option<&mut Rng>) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..n).collect();
        if let Some(rng) = rng {
            rng.shuffle(&mut order);
        }
        Self {
            order,
            batch_size,
            cursor: 0,
        }
    }

    /// Resumes a partially consumed epoch from a checkpointed shuffle
    /// `order`, skipping the first `next_batch` batches. The remaining
    /// batches are exactly those an uninterrupted iteration would have
    /// produced, which is what makes mid-epoch training resume
    /// bit-identical.
    pub fn resume(order: Vec<usize>, batch_size: usize, next_batch: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let cursor = (next_batch * batch_size).min(order.len());
        Self {
            order,
            batch_size,
            cursor,
        }
    }

    /// The epoch's (possibly shuffled) sample order, for checkpointing.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Index of the next batch this iterator will yield.
    pub fn next_batch_index(&self) -> usize {
        self.cursor / self.batch_size
    }
}

impl Iterator for Batcher {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let batch = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(t: usize) -> Tensor {
        Tensor::from_vec(&[2, t], (0..2 * t).map(|i| i as f32).collect())
    }

    #[test]
    fn batcher_resume_yields_exactly_the_remaining_batches() {
        let mut rng = Rng::seed_from(17);
        let full = Batcher::new(23, 4, Some(&mut rng));
        let order = full.order().to_vec();
        let all: Vec<Vec<usize>> = full.collect();
        for skip in 0..=all.len() {
            let resumed: Vec<Vec<usize>> = Batcher::resume(order.clone(), 4, skip).collect();
            assert_eq!(resumed, all[skip..].to_vec(), "skip {skip}");
        }
        // A cursor past the end yields nothing rather than panicking.
        assert_eq!(Batcher::resume(order, 4, 99).count(), 0);
    }

    #[test]
    fn split_sizes_partition_windows() {
        let data = series(120);
        let n_total = 120 - 24 - 12 + 1;
        let train = SlidingWindows::new(&data, 24, 12, Split::Train);
        let val = SlidingWindows::new(&data, 24, 12, Split::Val);
        let test = SlidingWindows::new(&data, 24, 12, Split::Test);
        assert_eq!(train.len() + val.len() + test.len(), n_total);
        assert!(train.len() > val.len());
        assert!(test.len() > val.len());
    }

    #[test]
    fn windows_are_chronological_and_contiguous() {
        let data = series(60);
        let w = SlidingWindows::new(&data, 10, 5, Split::Train);
        let (x, y) = w.get(0);
        // Channel 0 starts at value 0; window 0 covers steps 0..10 then 10..15.
        assert_eq!(x.at(&[0, 0]), 0.0);
        assert_eq!(x.at(&[0, 9]), 9.0);
        assert_eq!(y.at(&[0, 0]), 10.0);
        let (x1, _) = w.get(1);
        assert_eq!(x1.at(&[0, 0]), 1.0);
    }

    #[test]
    fn test_split_comes_after_train() {
        let data = series(100);
        let train = SlidingWindows::new(&data, 10, 5, Split::Train);
        let test = SlidingWindows::new(&data, 10, 5, Split::Test);
        let (x_last_train, _) = train.get(train.len() - 1);
        let (x_first_test, _) = test.get(0);
        assert!(x_first_test.at(&[0, 0]) > x_last_train.at(&[0, 0]));
    }

    #[test]
    fn batch_stacks_windows() {
        let data = series(60);
        let w = SlidingWindows::new(&data, 10, 5, Split::Train);
        let (x, y) = w.batch(&[0, 2]);
        assert_eq!(x.shape(), &[2, 2, 10]);
        assert_eq!(y.shape(), &[2, 2, 5]);
        assert_eq!(x.at(&[1, 0, 0]), 2.0);
    }

    #[test]
    fn batcher_covers_every_index_once() {
        let mut rng = Rng::seed_from(5);
        let batches: Vec<Vec<usize>> = Batcher::new(10, 3, Some(&mut rng)).collect();
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batcher_unshuffled_is_ordered() {
        let batches: Vec<Vec<usize>> = Batcher::new(5, 2, None).collect();
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn rejects_too_short_series() {
        let data = series(10);
        let _ = SlidingWindows::new(&data, 10, 5, Split::Train);
    }
}
