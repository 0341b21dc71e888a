//! Order-preserving inner loops shared by the matmul and the conv, deconv and
//! dense layers.
//!
//! Every helper here vectorizes across *independent* accumulators only: each
//! output element still receives its terms one at a time, in a fixed order,
//! as a plain `acc += a * b` (no FMA, no reassociation, no split reduction).
//! That is what lets the layers promise bit-identical results to the naive
//! per-element loops they replaced.

use std::ops::Range;

/// `out[i] += alpha * xs[i]` over equal-length rows. Kept as a named
/// `#[inline]` function so the compiler vectorizes one obvious loop instead
/// of re-deriving it per call site.
#[inline]
pub(crate) fn axpy(alpha: f32, xs: &[f32], out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(xs.iter()) {
        *o += alpha * x;
    }
}

/// `out[i] += alpha * xs[i * step]`: a gather-side axpy for strided taps.
#[inline]
pub(crate) fn axpy_gather(alpha: f32, xs: &[f32], step: usize, out: &mut [f32]) {
    if step == 1 {
        axpy(alpha, xs, out);
    } else {
        for (o, &x) in out.iter_mut().zip(xs.iter().step_by(step)) {
            *o += alpha * x;
        }
    }
}

/// `out[i * step] += alpha * xs[i]`: a scatter-side axpy for strided taps.
#[inline]
pub(crate) fn axpy_scatter(alpha: f32, xs: &[f32], step: usize, out: &mut [f32]) {
    if step == 1 {
        axpy(alpha, xs, out);
    } else {
        for (o, &x) in out.iter_mut().step_by(step).zip(xs.iter()) {
            *o += alpha * x;
        }
    }
}

/// The positions `o ∈ [0, out_len)` whose tap `tap` lands inside the other
/// side of a strided window, i.e. `o * stride + tap - padding ∈ [0, in_len)`.
///
/// With `(in_len, out_len)` = (input, output) sizes this is a convolution
/// tap's valid output range; swapped, it is a transposed convolution tap's
/// valid input range.
pub(crate) fn valid_range(
    tap: usize,
    stride: usize,
    padding: usize,
    in_len: usize,
    out_len: usize,
) -> Range<usize> {
    let lo = padding.saturating_sub(tap).div_ceil(stride);
    let hi = if in_len + padding > tap {
        ((in_len + padding - tap - 1) / stride + 1).min(out_len)
    } else {
        0
    };
    lo..hi.max(lo)
}

/// `out[r] += Σ_i rows[r·n + i] · v[i]` with `n = v.len()`, each row summed
/// serially in `i` order starting from its current `out[r]`. Four rows run
/// per pass so their four independent chains overlap in time; no row's own
/// summation order changes.
pub(crate) fn dot_rows(rows: &[f32], v: &[f32], out: &mut [f32]) {
    let n = v.len();
    let mut quads = rows.chunks_exact(4 * n).zip(out.chunks_exact_mut(4));
    for (quad, acc) in quads.by_ref() {
        let (r0, rest) = quad.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let mut a = [acc[0], acc[1], acc[2], acc[3]];
        for ((((&w0, &w1), &w2), &w3), &x) in r0.iter().zip(r1).zip(r2).zip(r3).zip(v) {
            a[0] += w0 * x;
            a[1] += w1 * x;
            a[2] += w2 * x;
            a[3] += w3 * x;
        }
        acc.copy_from_slice(&a);
    }
    let done = out.len() / 4 * 4;
    for (row, acc) in rows[done * n..].chunks_exact(n).zip(&mut out[done..]) {
        for (&w, &x) in row.iter().zip(v) {
            *acc += w * x;
        }
    }
}

/// A reusable `f32` buffer owned by a layer (patch rows, parity planes), so
/// the hot path allocates once per layer instead of once per call.
#[derive(Default)]
pub(crate) struct Scratch(Vec<f32>);

impl Scratch {
    /// The buffer resized to `len` and filled with `value`.
    pub(crate) fn filled(&mut self, len: usize, value: f32) -> &mut [f32] {
        self.0.clear();
        self.0.resize(len, value);
        &mut self.0
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scratch({} floats)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_range_matches_brute_force() {
        for stride in 1..4 {
            for padding in 0..3 {
                for tap in 0..5 {
                    for in_len in 1..7 {
                        for out_len in 0..9 {
                            let brute: Vec<usize> = (0..out_len)
                                .filter(|&o| {
                                    let i = o * stride + tap;
                                    i >= padding && i - padding < in_len
                                })
                                .collect();
                            let r = valid_range(tap, stride, padding, in_len, out_len);
                            assert_eq!(r.collect::<Vec<_>>(), brute);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_rows_keeps_each_rows_serial_sum() {
        let v: Vec<f32> = (0..7).map(|i| 0.1 + i as f32 * 0.37).collect();
        for rows_n in 0..10 {
            let rows: Vec<f32> = (0..rows_n * 7).map(|i| (i as f32 * 0.73).sin()).collect();
            let mut out: Vec<f32> = (0..rows_n).map(|r| r as f32 - 2.5).collect();
            let mut expect = out.clone();
            for (r, e) in expect.iter_mut().enumerate() {
                for i in 0..7 {
                    *e += rows[r * 7 + i] * v[i];
                }
            }
            dot_rows(&rows, &v, &mut out);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&expect));
        }
    }
}
