//! Layout transformations: reshape, permute, padding, narrowing, concat.
//!
//! MSD-Mixer's temporal patching (Sec. III-C) is built entirely from these:
//! zero left-padding so the length divides the patch size, a reshape into
//! `[C, L', p]`, and permutes that rotate the mixing axis into last position
//! for the MLP blocks. The `*_into` forms write into a caller's buffer and
//! are shared with the compiled-plan executor; [`permute_into`] allocates
//! nothing up to rank 8, so a plan's permute steps cost no heap traffic.

use crate::shape::numel;
use crate::Tensor;

/// Ranks up to this size keep [`permute_into`]'s working state on the
/// stack; a larger rank (none occurs in this workspace) falls back to one
/// heap buffer.
const INLINE_RANK: usize = 8;

/// Writes the permutation of `src` (shape `in_shape`, axes reordered by
/// `perm`) into `out`, which must hold exactly `numel(in_shape)` elements.
///
/// This is the single implementation behind [`Tensor::permute`] and the
/// compiled-plan executor, so both paths produce identical bytes.
///
/// The permutation is reduced first: unit axes are dropped, and input axes
/// that stay adjacent (in order) in the output merge into one. What is left
/// is either a plain copy or a walk over the reduced output axes whose two
/// innermost axes run as a tight double loop. Every MSD-Mixer permute
/// reduces to a copy or a batched 2-D transpose. Nothing is heap-allocated
/// for ranks up to 8.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..ndim` or `out` has the wrong
/// length.
pub fn permute_into(in_shape: &[usize], src: &[f32], perm: &[usize], out: &mut [f32]) {
    let nd = in_shape.len();
    assert_eq!(perm.len(), nd, "permute rank mismatch");
    for (i, &p) in perm.iter().enumerate() {
        assert!(
            p < nd && !perm[..i].contains(&p),
            "invalid permutation {:?}",
            perm
        );
    }
    let len = numel(in_shape);
    assert_eq!(out.len(), len, "permute_into output length");
    if len == 0 {
        return;
    }

    let mut inline = [0usize; 5 * INLINE_RANK];
    let mut heap = Vec::new();
    let work: &mut [usize] = if nd <= INLINE_RANK {
        &mut inline[..5 * nd]
    } else {
        heap.resize(5 * nd, 0);
        &mut heap
    };
    let (compact, work) = work.split_at_mut(nd);
    let (first, work) = work.split_at_mut(nd);
    let (extent, work) = work.split_at_mut(nd);
    let (stride, coords) = work.split_at_mut(nd);

    // Number the non-unit input axes 0, 1, ... in input order.
    let mut kept = 0;
    for (c, &e) in compact.iter_mut().zip(in_shape) {
        if e != 1 {
            *c = kept;
            kept += 1;
        }
    }
    // Group the non-unit axes in output order: an axis whose compact
    // number follows the previous one's extends that group.
    let mut groups = 0;
    let mut prev = usize::MAX;
    for &p in perm {
        if in_shape[p] == 1 {
            continue;
        }
        let c = compact[p];
        if groups == 0 || prev + 1 != c {
            first[groups] = c;
            extent[groups] = 1;
            groups += 1;
        }
        extent[groups - 1] *= in_shape[p];
        prev = c;
    }
    if groups <= 1 {
        out.copy_from_slice(&src[..len]);
        return;
    }
    // Each group's stride in the input: the product of the extents of the
    // groups that come after it in input order.
    for g in 0..groups {
        stride[g] = (0..groups)
            .filter(|&h| first[h] > first[g])
            .map(|h| extent[h])
            .product();
    }

    // Odometer over the outer reduced axes; the last two run as one 2-D
    // block per step.
    let (rows, row_stride) = (extent[groups - 2], stride[groups - 2]);
    let (cols, col_stride) = (extent[groups - 1], stride[groups - 1]);
    let outer = groups - 2;
    let mut offset = 0usize;
    for block in out.chunks_exact_mut(rows * cols) {
        copy_block(&src[offset..], rows, row_stride, cols, col_stride, block);
        // Advance the outer coordinates, innermost first, with carry.
        for axis in (0..outer).rev() {
            coords[axis] += 1;
            offset += stride[axis];
            if coords[axis] < extent[axis] {
                break;
            }
            offset -= stride[axis] * extent[axis];
            coords[axis] = 0;
        }
    }
}

/// Writes the `rows × cols` block `block[r·cols + c] = src[r·rs + c·cs]`.
/// Contiguous rows copy as runs; otherwise the longer of the two axes is
/// the inner loop, so the per-loop overhead is paid on the shorter one.
fn copy_block(src: &[f32], rows: usize, rs: usize, cols: usize, cs: usize, block: &mut [f32]) {
    if cs == 1 {
        for (r, dst) in block.chunks_exact_mut(cols).enumerate() {
            dst.copy_from_slice(&src[r * rs..r * rs + cols]);
        }
        return;
    }
    assert_eq!(block.len(), rows * cols, "permute block length");
    assert!(
        (rows - 1) * rs + (cols - 1) * cs < src.len(),
        "permute block out of range"
    );
    let (s, d) = (src.as_ptr(), block.as_mut_ptr());
    // SAFETY: the largest index read is (rows-1)·rs + (cols-1)·cs, which
    // the assert above bounds by src.len(); the largest written is
    // rows·cols - 1 < block.len().
    unsafe {
        if rows >= cols {
            for c in 0..cols {
                for r in 0..rows {
                    *d.add(r * cols + c) = *s.add(r * rs + c * cs);
                }
            }
        } else {
            for r in 0..rows {
                for c in 0..cols {
                    *d.add(r * cols + c) = *s.add(r * rs + c * cs);
                }
            }
        }
    }
}

/// Zero-pads `src` (shape `in_shape`) along `axis` into `out`, which must be
/// sized for the padded shape. Shared by [`Tensor::pad_axis`] and the plan
/// executor.
pub fn pad_axis_into(
    in_shape: &[usize],
    src: &[f32],
    axis: usize,
    before: usize,
    after: usize,
    out: &mut [f32],
) {
    assert!(axis < in_shape.len(), "pad axis out of range");
    let inner: usize = in_shape[axis + 1..].iter().product();
    let outer: usize = in_shape[..axis].iter().product();
    let in_block = in_shape[axis] * inner;
    let out_block = (in_shape[axis] + before + after) * inner;
    assert_eq!(out.len(), outer * out_block, "pad_axis_into output length");
    out.fill(0.0);
    for o in 0..outer {
        let s = &src[o * in_block..(o + 1) * in_block];
        let dst =
            &mut out[o * out_block + before * inner..o * out_block + before * inner + in_block];
        dst.copy_from_slice(s);
    }
}

/// Copies the `len`-wide slice starting at `start` along `axis` of `src`
/// (shape `in_shape`) into `out`. Shared by [`Tensor::narrow`] and the plan
/// executor.
pub fn narrow_into(
    in_shape: &[usize],
    src: &[f32],
    axis: usize,
    start: usize,
    len: usize,
    out: &mut [f32],
) {
    assert!(axis < in_shape.len(), "narrow axis out of range");
    assert!(
        start + len <= in_shape[axis],
        "narrow range {}..{} exceeds axis {} of extent {}",
        start,
        start + len,
        axis,
        in_shape[axis]
    );
    let inner: usize = in_shape[axis + 1..].iter().product();
    let outer: usize = in_shape[..axis].iter().product();
    let in_block = in_shape[axis] * inner;
    let out_block = len * inner;
    assert_eq!(out.len(), outer * out_block, "narrow_into output length");
    for o in 0..outer {
        let base = o * in_block + start * inner;
        out[o * out_block..(o + 1) * out_block].copy_from_slice(&src[base..base + out_block]);
    }
}

/// Concatenates `(shape, data)` parts along `axis` into `out`. All non-axis
/// extents must match. Shared by [`Tensor::concat`] and the plan executor.
pub fn concat_into<S: AsRef<[usize]>>(parts: &[(S, &[f32])], axis: usize, out: &mut [f32]) {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let first = parts[0].0.as_ref();
    assert!(axis < first.len(), "concat axis out of range");
    let mut total = 0usize;
    for (s, _) in parts {
        let s = s.as_ref();
        assert_eq!(s.len(), first.len(), "concat rank mismatch");
        for (i, (&a, &b)) in s.iter().zip(first).enumerate() {
            if i != axis {
                assert_eq!(a, b, "concat non-axis extent mismatch on axis {i}");
            }
        }
        total += s[axis];
    }
    let outer: usize = first[..axis].iter().product();
    let inner: usize = first[axis + 1..].iter().product();
    assert_eq!(
        out.len(),
        outer * total * inner,
        "concat_into output length"
    );
    let mut idx = 0usize;
    for o in 0..outer {
        for (s, d) in parts {
            let block = s.as_ref()[axis] * inner;
            out[idx..idx + block].copy_from_slice(&d[o * block..(o + 1) * block]);
            idx += block;
        }
    }
}

impl Tensor {
    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.len(),
            numel(shape),
            "reshape {:?} -> {:?} changes element count",
            self.shape(),
            shape
        );
        Tensor::from_vec(shape, self.data().to_vec())
    }

    /// Reorders axes: output axis `i` is input axis `perm[i]`. Materialises a
    /// contiguous result.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..ndim`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        if self.ndim() == 0 {
            assert!(perm.is_empty(), "permute rank mismatch");
            return self.clone();
        }
        let in_shape = self.shape();
        let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
        let mut out = vec![0.0f32; self.len()];
        permute_into(in_shape, self.data(), perm, &mut out);
        Tensor::from_vec(&out_shape, out)
    }

    /// Zero-pads axis `axis` with `before` leading and `after` trailing
    /// positions. The paper pads at the *beginning* of the time axis before
    /// patching (Sec. III-C).
    pub fn pad_axis(&self, axis: usize, before: usize, after: usize) -> Tensor {
        assert!(axis < self.ndim(), "pad axis out of range");
        if before == 0 && after == 0 {
            return self.clone();
        }
        let in_shape = self.shape();
        let mut out_shape = in_shape.to_vec();
        out_shape[axis] += before + after;
        let mut out = vec![0.0f32; numel(&out_shape)];
        pad_axis_into(in_shape, self.data(), axis, before, after, &mut out);
        Tensor::from_vec(&out_shape, out)
    }

    /// Slices `len` positions starting at `start` along `axis`.
    ///
    /// # Panics
    /// Panics if the requested range exceeds the axis extent.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        assert!(axis < self.ndim(), "narrow axis out of range");
        let in_shape = self.shape();
        let mut out_shape = in_shape.to_vec();
        out_shape[axis] = len;
        let mut out = vec![0.0f32; numel(&out_shape)];
        narrow_into(in_shape, self.data(), axis, start, len, &mut out);
        Tensor::from_vec(&out_shape, out)
    }

    /// Scatters `self` back into a zero tensor of extent `full_len` along
    /// `axis` starting at `start` — the adjoint of [`Tensor::narrow`].
    pub fn widen(&self, axis: usize, start: usize, full_len: usize) -> Tensor {
        assert!(axis < self.ndim(), "widen axis out of range");
        let in_shape = self.shape();
        assert!(
            start + in_shape[axis] <= full_len,
            "widen range exceeds target"
        );
        let mut out_shape = in_shape.to_vec();
        out_shape[axis] = full_len;
        let mut out = Tensor::zeros(&out_shape);
        let inner: usize = in_shape[axis + 1..].iter().product();
        let outer: usize = in_shape[..axis].iter().product();
        let in_block = in_shape[axis] * inner;
        let out_block = full_len * inner;
        for o in 0..outer {
            let src = &self.data()[o * in_block..(o + 1) * in_block];
            let dst_base = o * out_block + start * inner;
            out.data_mut()[dst_base..dst_base + in_block].copy_from_slice(src);
        }
        out
    }

    /// Concatenates tensors along `axis`. All other axes must match.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let first = parts[0].shape();
        assert!(axis < first.len(), "concat axis out of range");
        let total: usize = parts.iter().map(|p| p.shape()[axis]).sum();
        let mut out_shape = first.to_vec();
        out_shape[axis] = total;
        let mut out = vec![0.0f32; numel(&out_shape)];
        let views: Vec<(&[usize], &[f32])> = parts.iter().map(|p| (p.shape(), p.data())).collect();
        concat_into(&views, axis, &mut out);
        Tensor::from_vec(&out_shape, out)
    }

    /// Stacks same-shape tensors along a new leading axis: `n` tensors of
    /// shape `[d0, d1, ..]` become one `[n, d0, d1, ..]` tensor.
    ///
    /// # Panics
    /// Panics on zero tensors or a shape mismatch.
    pub fn stack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack of zero tensors");
        let first = parts[0].shape();
        let mut out_shape = Vec::with_capacity(first.len() + 1);
        out_shape.push(parts.len());
        out_shape.extend_from_slice(first);
        let mut out = Vec::with_capacity(numel(&out_shape));
        for p in parts {
            assert_eq!(p.shape(), first, "stack shape mismatch");
            out.extend_from_slice(p.data());
        }
        Tensor::from_vec(&out_shape, out)
    }

    /// Splits the leading axis into its slices, dropping it: a
    /// `[n, d0, d1, ..]` tensor becomes `n` tensors of shape `[d0, d1, ..]`.
    /// Inverse of [`Tensor::stack`].
    ///
    /// # Panics
    /// Panics on a rank-0 tensor.
    pub fn unstack_leading(&self) -> Vec<Tensor> {
        assert!(self.ndim() >= 1, "unstack_leading on rank-0 tensor");
        let n = self.shape()[0];
        let rest = &self.shape()[1..];
        let block: usize = rest.iter().product();
        (0..n)
            .map(|i| Tensor::from_vec(rest, self.data()[i * block..(i + 1) * block].to_vec()))
            .collect()
    }

    /// Repeats the tensor `reps` times along a new leading axis.
    pub fn tile_leading(&self, reps: usize) -> Tensor {
        let mut out_shape = Vec::with_capacity(self.ndim() + 1);
        out_shape.push(reps);
        out_shape.extend_from_slice(self.shape());
        let mut out = Vec::with_capacity(self.len() * reps);
        for _ in 0..reps {
            out.extend_from_slice(self.data());
        }
        Tensor::from_vec(&out_shape, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_preserves_order() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "element count")]
    fn reshape_rejects_bad_count() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn permute_2d_is_transpose() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let p = t.permute(&[1, 0]);
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn permute_3d_known_values() {
        // shape [2,2,2]: value = 4a + 2b + c
        let t = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
        let p = t.permute(&[2, 0, 1]); // out[c][a][b] = in[a][b][c]
        assert_eq!(p.shape(), &[2, 2, 2]);
        assert_eq!(p.at(&[1, 0, 1]), t.at(&[0, 1, 1]));
        assert_eq!(p.at(&[0, 1, 0]), t.at(&[1, 0, 0]));
    }

    #[test]
    fn permute_inverse_round_trips() {
        let t = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32).collect());
        let p = t.permute(&[2, 0, 1]);
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, t);
    }

    #[test]
    fn pad_axis_leading_zeros() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let p = t.pad_axis(1, 2, 0);
        assert_eq!(p.shape(), &[2, 4]);
        assert_eq!(p.data(), &[0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn pad_then_narrow_round_trips() {
        let t = Tensor::from_vec(&[2, 3], (1..=6).map(|i| i as f32).collect());
        let p = t.pad_axis(1, 2, 1);
        assert_eq!(p.shape(), &[2, 6]);
        assert_eq!(p.narrow(1, 2, 3), t);
    }

    #[test]
    fn narrow_axis0() {
        let t = Tensor::from_vec(&[3, 2], (0..6).map(|i| i as f32).collect());
        let n = t.narrow(0, 1, 2);
        assert_eq!(n.shape(), &[2, 2]);
        assert_eq!(n.data(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn widen_is_adjoint_of_narrow() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = t.widen(1, 1, 4);
        assert_eq!(w.shape(), &[2, 4]);
        assert_eq!(w.data(), &[0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0]);
        assert_eq!(w.narrow(1, 1, 2), t);
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_vec(&[2, 1], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2, 2], vec![3.0, 4.0, 5.0, 6.0]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn tile_leading_repeats() {
        let t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let r = t.tile_leading(3);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn stack_unstack_round_trips() {
        let a = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let b = Tensor::from_vec(&[2, 3], (6..12).map(|i| i as f32).collect());
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2, 3]);
        assert_eq!(&s.data()[..6], a.data());
        assert_eq!(&s.data()[6..], b.data());
        let parts = s.unstack_leading();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn stack_matches_concat_of_unsqueezed() {
        let a = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[1, 2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let via_concat = Tensor::concat(&[&a, &b], 0);
        let via_stack = Tensor::stack(&[&a.reshape(&[2, 2]), &b.reshape(&[2, 2])]);
        assert_eq!(via_stack, via_concat);
    }

    #[test]
    #[should_panic(expected = "stack shape mismatch")]
    fn stack_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let _ = Tensor::stack(&[&a, &b]);
    }
}
