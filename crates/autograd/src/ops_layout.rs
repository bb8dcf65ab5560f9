//! Layout graph ops: permute, reshape, pad, narrow, concat.

use crate::graph::{Graph, Node, Op, Var};

impl Graph {
    /// Axis reorder; output axis `i` is input axis `perm[i]`.
    pub fn permute(&self, a: Var, perm: &[usize]) -> Var {
        let value = self.with_value(a, |t| t.permute(perm));
        self.push_unary(a, value, Op::Permute(perm.to_vec()))
    }

    /// Shape reinterpretation with unchanged element count.
    pub fn reshape(&self, a: Var, shape: &[usize]) -> Var {
        let value = self.with_value(a, |t| t.reshape(shape));
        self.push_unary(a, value, Op::Reshape)
    }

    /// Zero-pads `axis` with `before`/`after` positions (the paper pads the
    /// time axis at the beginning before patching, Sec. III-C).
    pub fn pad_axis(&self, a: Var, axis: usize, before: usize, after: usize) -> Var {
        let orig_len = self.with_value(a, |t| t.shape()[axis]);
        let value = self.with_value(a, |t| t.pad_axis(axis, before, after));
        self.push_unary(
            a,
            value,
            Op::PadAxis {
                axis,
                before,
                orig_len,
            },
        )
    }

    /// Slices `len` positions starting at `start` along `axis`.
    pub fn narrow(&self, a: Var, axis: usize, start: usize, len: usize) -> Var {
        let orig_len = self.with_value(a, |t| t.shape()[axis]);
        let value = self.with_value(a, |t| t.narrow(axis, start, len));
        self.push_unary(
            a,
            value,
            Op::Narrow {
                axis,
                start,
                orig_len,
            },
        )
    }

    /// Concatenates along `axis`. All non-axis extents must match.
    pub fn concat(&self, parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let (value, extents) = {
            let nodes = self.nodes.borrow();
            let tensors: Vec<&msd_tensor::Tensor> =
                parts.iter().map(|v| &nodes[v.0 as usize].value).collect();
            let extents: Vec<usize> = tensors.iter().map(|t| t.shape()[axis]).collect();
            (msd_tensor::Tensor::concat(&tensors, axis), extents)
        };
        let needs_grad = {
            let nodes = self.nodes.borrow();
            parts.iter().any(|p| nodes[p.0 as usize].needs_grad)
        };
        self.push(Node {
            value,
            op: Op::Concat { axis, extents },
            parents: parts.to_vec(),
            needs_grad,
            param: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::Graph;
    use msd_tensor::Tensor;

    #[test]
    fn permute_grad_is_inverse_permute() {
        let g = Graph::new();
        let x = g.param(
            0,
            Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect()),
        );
        let y = g.permute(x, &[1, 0]);
        // Weight the loss so the gradient is position-dependent.
        let w = Tensor::from_vec(&[3, 2], (0..6).map(|i| i as f32).collect());
        let yw = g.mul_const(y, &w);
        let loss = g.sum_all(yw);
        let grads = g.backward(loss);
        let gx = grads.get(0).unwrap();
        assert_eq!(gx.shape(), &[2, 3]);
        // grad at x[i][j] = w[j][i]
        assert_eq!(gx.at(&[0, 1]), w.at(&[1, 0]));
        assert_eq!(gx.at(&[1, 2]), w.at(&[2, 1]));
    }

    #[test]
    fn pad_grad_strips_padding() {
        let g = Graph::new();
        let x = g.param(0, Tensor::ones(&[1, 3]));
        let p = g.pad_axis(x, 1, 2, 1);
        assert_eq!(g.shape_of(p), vec![1, 6]);
        let loss = g.sum_all(p);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn narrow_grad_scatters_back() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]));
        let n = g.narrow(x, 1, 1, 2);
        let loss = g.sum_all(n);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_grad_splits() {
        let g = Graph::new();
        let a = g.param(0, Tensor::ones(&[2, 1]));
        let b = g.param(1, Tensor::ones(&[2, 2]));
        let c = g.concat(&[a, b], 1);
        assert_eq!(g.shape_of(c), vec![2, 3]);
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let cw = g.mul_const(c, &w);
        let loss = g.sum_all(cw);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[1.0, 4.0]);
        assert_eq!(grads.get(1).unwrap().data(), &[2.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_grad_restores_shape() {
        let g = Graph::new();
        let x = g.param(0, Tensor::ones(&[2, 3]));
        let r = g.reshape(x, &[3, 2]);
        let loss = g.sum_all(r);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().shape(), &[2, 3]);
    }
}
