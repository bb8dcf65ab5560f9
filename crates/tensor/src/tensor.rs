//! The dense row-major tensor type.

use crate::rng::Rng;
use crate::shape::{numel, strides_for, Shape};

/// A dense, contiguous, row-major `f32` tensor.
///
/// The data buffer always has exactly `shape.iter().product()` elements.
/// All ops that change layout produce new contiguous tensors; there are no
/// views, which keeps the op implementations simple and the memory behaviour
/// predictable (one allocation per produced tensor).
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Builds a tensor from a shape and an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the number of elements of
    /// `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            numel(shape),
            data.len(),
            "shape {:?} needs {} elements, got {}",
            shape,
            numel(shape),
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel(shape)],
        }
    }

    /// A zero tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Standard-normal samples, shape `shape`, scaled by `std`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut Rng) -> Self {
        let data = (0..numel(shape)).map(|_| rng.normal() * std).collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let data = (0..numel(shape))
            .map(|_| lo + (hi - lo) * rng.uniform())
            .collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape (outermost axis first).
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major order).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major order).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row-major strides for the current shape.
    pub fn strides(&self) -> Vec<usize> {
        strides_for(&self.shape)
    }

    /// The single value of a rank-0 / one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Value at the given multi-axis coordinates.
    pub fn at(&self, coords: &[usize]) -> f32 {
        let strides = self.strides();
        debug_assert_eq!(coords.len(), self.shape.len());
        let mut idx = 0;
        for (i, (&c, &s)) in coords.iter().zip(&strides).enumerate() {
            debug_assert!(c < self.shape[i], "coord {} out of bounds on axis {}", c, i);
            idx += c * s;
        }
        self.data[idx]
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise against `other` (same shape), producing a new
    /// tensor.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place elementwise update against `other` (same shape).
    pub fn zip_mut(&mut self, other: &Self, f: impl Fn(&mut f32, f32)) {
        assert_eq!(
            self.shape, other.shape,
            "zip_mut shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            f(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));

        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&x| x == 1.0));

        let s = Tensor::scalar(3.5);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn at_indexes_row_major() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![10.0, 20.0, 30.0]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng::seed_from(7);
        let mut r2 = Rng::seed_from(7);
        let a = Tensor::randn(&[16], 1.0, &mut r1);
        let b = Tensor::randn(&[16], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_statistics_are_plausible() {
        let mut rng = Rng::seed_from(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean = t.data().iter().sum::<f32>() / t.len() as f32;
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
