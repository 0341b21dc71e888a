//! Dense, row-major, `f32` tensors.
//!
//! [`Tensor`] is the numeric workhorse of the whole workspace: the R-GCN
//! encoder, the CNN feature extractor, the deconvolutional policy head and the
//! PPO losses are all expressed in terms of the operations defined here.
//!
//! The representation is deliberately simple — a flat `Vec<f32>` plus a shape
//! vector. Speed comes from the loop order of the kernels, never from their
//! arithmetic: the matmul and the conv, deconv and dense layers vectorize
//! only across independent accumulators, so every output element receives
//! exactly the terms of the naive per-element loop, in the same order, as
//! plain `acc += a * b` (no FMA, no reassociation, no split reductions). A
//! seeded forward, backward or PPO update therefore replays to the bit.

use std::fmt;

use crate::kernel::axpy;

/// Block size of the matmul k-loop: 64 × 64 `f32` ≈ 16 KiB of the right-hand
/// operand per slab, comfortably inside L1/L2 for the matrix sizes the
/// networks use.
const MATMUL_BLOCK: usize = 64;

/// `f32::exp` of any argument below this is exactly `+0.0` (the true value
/// is far below half the smallest subnormal).
const EXP_UNDERFLOW: f32 = -200.0;

/// `exp(x)`, skipping the call where the result is `+0.0` anyway.
fn exp_or_zero(x: f32) -> f32 {
    if x < EXP_UNDERFLOW {
        0.0
    } else {
        x.exp()
    }
}

/// A dense, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use afp_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?}", self.data)?;
        } else {
            write!(f, ", data=[{} elements]", self.data.len())?;
        }
        write!(f, ")")
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use afp_tensor::Tensor;
    /// let t = Tensor::zeros(&[2, 3]);
    /// assert_eq!(t.len(), 6);
    /// assert!(t.data().iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Builds a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// Builds a 2-D tensor from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Tensor::zeros(&[0, 0]);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Tensor::from_vec(data, &[rows.len(), cols])
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Borrow the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy with a new shape (same number of elements).
    ///
    /// # Panics
    ///
    /// Panics if the number of elements differs.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape to incompatible size");
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// [`Tensor::reshape`] without the copy: takes the buffer over.
    ///
    /// # Panics
    ///
    /// Panics if the number of elements differs.
    pub fn into_shape(self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(self.data, shape)
    }

    /// Lays equally shaped samples out batch-innermost: the result has shape
    /// `[sample shape…, B]` and element `e` of sample `b` sits at `e·B + b`.
    /// This is the layout every [`crate::Layer`] batch kernel takes.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or shapes differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use afp_tensor::Tensor;
    /// let a = Tensor::from_slice(&[1.0, 2.0]);
    /// let b = Tensor::from_slice(&[3.0, 4.0]);
    /// let batch = Tensor::interleave(&[&a, &b]);
    /// assert_eq!(batch.shape(), &[2, 2]);
    /// assert_eq!(batch.data(), &[1.0, 3.0, 2.0, 4.0]);
    /// assert_eq!(batch.lane(1), b);
    /// ```
    pub fn interleave(samples: &[&Tensor]) -> Tensor {
        assert!(!samples.is_empty(), "interleave of zero tensors");
        let nb = samples.len();
        let shape = &samples[0].shape;
        let mut batched = shape.clone();
        batched.push(nb);
        if let [sample] = samples {
            // A batch of one has the sample's own layout.
            return Tensor::from_vec(sample.data.clone(), &batched);
        }
        let mut data = vec![0.0f32; samples[0].len() * nb];
        for (b, s) in samples.iter().enumerate() {
            assert_eq!(&s.shape, shape, "interleave shape mismatch");
            for (d, &v) in data[b..].iter_mut().step_by(nb).zip(&s.data) {
                *d = v;
            }
        }
        Tensor::from_vec(data, &batched)
    }

    /// Sample `b` of a batch-innermost tensor (see [`Tensor::interleave`]):
    /// the last dimension is the batch.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is 0-dimensional or `b` is out of range.
    pub fn lane(&self, b: usize) -> Tensor {
        let (&nb, sample) = self.shape.split_last().expect("lane of a 0-d tensor");
        assert!(b < nb, "lane {b} out of range for batch {nb}");
        let data = self.data[b..].iter().step_by(nb).copied().collect();
        Tensor::from_vec(data, sample)
    }

    /// Scalar access for a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    pub fn at(&self, i: usize, j: usize) -> f32 {
        assert_eq!(self.ndim(), 2, "at() requires a 2-D tensor");
        self.data[i * self.shape[1] + j]
    }

    /// Mutable scalar access for a 2-D tensor.
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        assert_eq!(self.ndim(), 2, "at_mut() requires a 2-D tensor");
        let cols = self.shape[1];
        &mut self.data[i * cols + j]
    }

    /// Scalar access for a 1-D tensor.
    pub fn get(&self, i: usize) -> f32 {
        self.data[i]
    }

    /// Element-wise application of a function, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise application of a function.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary operation.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Multiplication by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place accumulate: `self += other * scale`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled_inplace");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * scale;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// L2 norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "length mismatch in dot");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Matrix multiplication of two 2-D tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Uses i-k-j loop ordering (the inner loop streams a row of `other`
    /// and a row of the output, both contiguous) with blocking over the
    /// shared dimension so the active `MATMUL_BLOCK × n` slab of `other`
    /// stays cache-resident across output rows. Zero entries of `self` skip
    /// their row entirely — the R-GCN adjacency operands are sparse.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {} vs {}", k, k2);
        let mut out = vec![0.0f32; m * n];
        for kb in (0..k).step_by(MATMUL_BLOCK) {
            let kb_end = (kb + MATMUL_BLOCK).min(k);
            for i in 0..m {
                let a_row = &self.data[i * k + kb..i * k + kb_end];
                let o_row = &mut out[i * n..(i + 1) * n];
                for (p, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = &other.data[(kb + p) * n..(kb + p + 1) * n];
                    axpy(a, b_row, o_row);
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Row `i` of a 2-D tensor as a new 1-D tensor.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let n = self.shape[1];
        Tensor::from_slice(&self.data[i * n..(i + 1) * n])
    }

    /// Mean over rows of a 2-D tensor, producing a 1-D tensor of length `cols`.
    pub fn mean_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "mean_rows() requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for (o, &v) in out.iter_mut().zip(&self.data[i * n..(i + 1) * n]) {
                *o += v;
            }
        }
        if m > 0 {
            for v in &mut out {
                *v /= m as f32;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Stacks equally shaped tensors along a new leading dimension.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes differ.
    pub fn stack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack of zero tensors");
        let shape = parts[0].shape.clone();
        let mut data = Vec::with_capacity(parts.len() * parts[0].len());
        for p in parts {
            assert_eq!(p.shape, shape, "stack shape mismatch");
            data.extend_from_slice(&p.data);
        }
        let mut new_shape = vec![parts.len()];
        new_shape.extend_from_slice(&shape);
        Tensor::from_vec(data, &new_shape)
    }

    /// Numerically stable softmax over a flat vector.
    pub fn softmax(&self) -> Tensor {
        let m = self.max();
        let exps: Vec<f32> = self.data.iter().map(|&x| (x - m).exp()).collect();
        let s: f32 = exps.iter().sum();
        Tensor {
            shape: self.shape.clone(),
            data: exps.iter().map(|&e| e / s.max(1e-12)).collect(),
        }
    }

    /// Numerically stable log-softmax over a flat vector. Elements far below
    /// the maximum (masked logits) skip their `exp`, which is `+0.0` anyway.
    pub fn log_softmax(&self) -> Tensor {
        let m = self.max();
        let log_sum: f32 = self
            .data
            .iter()
            .map(|&x| exp_or_zero(x - m))
            .sum::<f32>()
            .ln()
            + m;
        self.map(|x| x - log_sum)
    }

    /// Element-wise `exp`, bit for bit, skipping the call where the result
    /// is `+0.0` anyway (e.g. probabilities from a masked log-softmax).
    pub fn exp(&self) -> Tensor {
        self.map(exp_or_zero)
    }

    /// Index of the maximum element.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.max(lo).min(hi))
    }

    /// Returns `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.sum(), 0.0);
        let o = Tensor::ones(&[4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(&[2, 2], 2.5);
        assert_eq!(f.sum(), 10.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        let c = a.matmul(&i);
        assert_eq!(c.data(), a.data());
        assert_eq!(c.shape(), &[2, 3]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    /// Reference matmul in the textbook i-j-p ordering (the pre-blocking
    /// implementation's semantics), used to pin down the blocked version.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(i, p) * b.at(p, j);
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    #[test]
    fn blocked_matmul_matches_reference_ordering() {
        // Sizes straddling the block boundary, including sparse inputs.
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / u32::MAX as f32) - 0.25
        };
        for &(m, k, n) in &[(3, 5, 4), (17, 64, 9), (8, 65, 130), (1, 200, 1)] {
            let a = Tensor::from_vec(
                (0..m * k).map(|i| if i % 7 == 0 { 0.0 } else { next() }).collect(),
                &[m, k],
            );
            let b = Tensor::from_vec((0..k * n).map(|_| next()).collect(), &[k, n]);
            let fast = a.matmul(&b);
            let reference = matmul_reference(&a, &b);
            for (x, y) in fast.data().iter().zip(reference.data().iter()) {
                assert!(
                    (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                    "blocked matmul diverged: {x} vs {y} ({m}x{k}x{n})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn softmax_sums_to_one() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let s = a.softmax();
        assert!((s.sum() - 1.0).abs() < 1e-5);
        assert_eq!(s.argmax(), 3);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let a = Tensor::from_slice(&[0.5, -1.0, 2.0]);
        let ls = a.log_softmax();
        let s = a.softmax();
        for i in 0..3 {
            assert!((ls.get(i).exp() - s.get(i)).abs() < 1e-5);
        }
    }

    #[test]
    fn exp_skip_is_bit_identical_to_exp() {
        let specials = [f32::NEG_INFINITY, f32::MIN, -1e9, -200.0, -199.99, -104.0, -87.5];
        let sweep = (0..40_000).map(|i| -400.0 + i as f32 * 0.01);
        for x in specials.into_iter().chain(sweep) {
            assert_eq!(exp_or_zero(x).to_bits(), x.exp().to_bits(), "x = {x}");
        }
        assert!(exp_or_zero(f32::NAN).is_nan());
    }

    #[test]
    fn mean_rows_basic() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let m = a.mean_rows();
        assert_eq!(m.data(), &[2.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let b = a.reshape(&[2, 2]);
        assert_eq!(b.at(1, 0), 3.0);
    }

    #[test]
    fn stack_and_row() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.row(1).data(), &[3.0, 4.0]);
    }

    #[test]
    fn clamp_limits() {
        let a = Tensor::from_slice(&[-2.0, 0.5, 3.0]);
        let c = a.clamp(-1.0, 1.0);
        assert_eq!(c.data(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn add_scaled_inplace_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.add_scaled_inplace(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }
}
