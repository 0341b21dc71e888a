//! Order-preserving inner loops shared by the matmul and the conv, deconv and
//! dense layers.
//!
//! Every helper here vectorizes across *independent* accumulators only: each
//! output element still receives its terms one at a time, in a fixed order,
//! as a plain `acc += a * b` (no FMA, no reassociation, no split reduction).
//! That is what lets the layers promise bit-identical results to the naive
//! per-element loops they replaced.

use std::cell::RefCell;
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

/// `out[j·L..][..L] += alpha · xs[j·step·L..][..L]` for every pixel `j` of
/// `out`, with `L = lanes`: a gather-side axpy for strided taps over
/// batch-innermost rows.
#[inline]
pub(crate) fn axpy_gather(alpha: f32, xs: &[f32], step: usize, lanes: usize, out: &mut [f32]) {
    if step == 1 {
        axpy(alpha, xs, out);
    } else {
        for (o, x) in out
            .chunks_exact_mut(lanes)
            .zip(xs.chunks(lanes).step_by(step))
        {
            axpy(alpha, x, o);
        }
    }
}

/// `out[j·step·L..][..L] += alpha · xs[j·L..][..L]`: the scatter-side
/// counterpart of [`axpy_gather`].
#[inline]
pub(crate) fn axpy_scatter(alpha: f32, xs: &[f32], step: usize, lanes: usize, out: &mut [f32]) {
    if step == 1 {
        axpy(alpha, xs, out);
    } else {
        for (o, x) in out
            .chunks_mut(lanes)
            .step_by(step)
            .zip(xs.chunks_exact(lanes))
        {
            axpy(alpha, x, o);
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

/// `out[r·L + b] += Σ_i rows[r·n + i] · v[i·L + b]` with `L = lanes` and
/// `n = v.len() / L`: every `(row, lane)` accumulator sums its row serially
/// in `i` order starting from its current value. Blocks of four rows by
/// eight lanes run per pass, or eight (then four) rows of one lane, so
/// independent chains overlap in time; no accumulator's own summation order
/// changes.
pub(crate) fn dot_rows(rows: &[f32], v: &[f32], lanes: usize, out: &mut [f32]) {
    let n_rows = out.len() / lanes;
    let mut lane = 0;
    while lane < lanes {
        let mut r = 0;
        if lane + 8 <= lanes {
            while r + 4 <= n_rows {
                dot_rows_block::<4, 8>(rows, v, lanes, lane, r, out);
                r += 4;
            }
            for r in r..n_rows {
                dot_rows_block::<1, 8>(rows, v, lanes, lane, r, out);
            }
            lane += 8;
        } else {
            while r + 8 <= n_rows {
                dot_rows_block::<8, 1>(rows, v, lanes, lane, r, out);
                r += 8;
            }
            if r + 4 <= n_rows {
                dot_rows_block::<4, 1>(rows, v, lanes, lane, r, out);
                r += 4;
            }
            for r in r..n_rows {
                dot_rows_block::<1, 1>(rows, v, lanes, lane, r, out);
            }
            lane += 1;
        }
    }
}

/// [`dot_rows`] on rows `r0..r0 + R` and lanes `lane..lane + W`.
#[inline(always)]
fn dot_rows_block<const R: usize, const W: usize>(
    rows: &[f32],
    v: &[f32],
    lanes: usize,
    lane: usize,
    r0: usize,
    out: &mut [f32],
) {
    let n = v.len() / lanes;
    let block: [&[f32]; R] = std::array::from_fn(|j| &rows[(r0 + j) * n..(r0 + j + 1) * n]);
    let mut a = [[0.0f32; W]; R];
    for (j, acc) in a.iter_mut().enumerate() {
        *acc = out[(r0 + j) * lanes + lane..][..W]
            .try_into()
            .expect("W lanes");
    }
    for (i, x) in v.chunks_exact(lanes).enumerate() {
        let x: &[f32; W] = x[lane..lane + W].try_into().expect("W lanes");
        for j in 0..R {
            let w = block[j][i];
            for l in 0..W {
                a[j][l] += w * x[l];
            }
        }
    }
    for (j, acc) in a.iter().enumerate() {
        out[(r0 + j) * lanes + lane..][..W].copy_from_slice(acc);
    }
}

/// A (transposed) convolution read as a gather: destination plane `r` at
/// pixel `(y, x)` takes tap `(c, ky, kx)` from source plane `c` at
/// `(y·stride + ky − padding, x·stride + kx − padding)` when that lies
/// inside the source. Weights are `[dst planes, src planes, k, k]`.
///
/// A convolution's forward pass and weight gradient read its input this way
/// (source = input, destination = output), and so do a transposed
/// convolution's input gradient and weight gradient (source = output
/// gradient, destination = input).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    /// Source `[planes, height, width]`.
    pub src: [usize; 3],
    /// Destination `[planes, height, width]`.
    pub dst: [usize; 3],
    pub k: usize,
    pub stride: usize,
    pub padding: usize,
}

impl Window {
    /// Patch-row length: `src planes · k · k`.
    fn taps(&self) -> usize {
        self.src[0] * self.k * self.k
    }

    /// `dst[r, y, x, :] += Σ w[r, c, ky, kx] · src[c, …, :]` over
    /// batch-innermost planes of `lanes` samples, tap-major: each plane takes
    /// its taps in `(c, ky, kx)` order, one axpy per valid destination row, so
    /// every destination element sums its taps in that order.
    pub(crate) fn gather_taps(&self, wgt: &[f32], src: &[f32], lanes: usize, dst: &mut [f32]) {
        let [sc, sh, sw] = self.src;
        let [_, dh, dw] = self.dst;
        let (k, s, p) = (self.k, self.stride, self.padding);
        for (r, plane) in dst.chunks_exact_mut(dh * dw * lanes).enumerate() {
            for (c, sp) in src.chunks_exact(sh * sw * lanes).enumerate() {
                for ky in 0..k {
                    let rows = valid_range(ky, s, p, sh, dh);
                    for kx in 0..k {
                        let cols = valid_range(kx, s, p, sw, dw);
                        if cols.is_empty() {
                            continue;
                        }
                        let wv = wgt[((r * sc + c) * k + ky) * k + kx];
                        let x0 = cols.start * s + kx - p;
                        for y in rows.clone() {
                            let sy = y * s + ky - p;
                            let out = &mut plane
                                [(y * dw + cols.start) * lanes..(y * dw + cols.end) * lanes];
                            axpy_gather(wv, &sp[(sy * sw + x0) * lanes..], s, lanes, out);
                        }
                    }
                }
            }
        }
    }

    /// Transition-major weight gradient `gw[r, c, ky, kx] += Σ_pix coef[r,
    /// pix, t] · src[c, y·s + ky − p, x·s + kx − p, t]`: transitions outer,
    /// destination pixels inner, so every weight sums one transition's
    /// pixels in order before the next transition's, exactly as one backward
    /// call per transition would. Per transition the source sample is copied
    /// into a zero-padded buffer and the coefficients are transposed to
    /// pixel-major groups of four rows (eight when there are that many);
    /// then each pass keeps a block of taps × one group of `gw` rows in
    /// registers across all pixels. Zero coefficients add `±0.0`, which
    /// leaves every (never `−0.0`) accumulator unchanged, so they need no
    /// skip.
    pub(crate) fn weight_grads(
        &self,
        src: &[f32],
        coef: &[f32],
        lanes: usize,
        gw: &mut [f32],
        bufs: &mut [Scratch; 2],
    ) {
        if self.dst[0] >= 8 {
            self.weight_grads_rows::<8>(src, coef, lanes, gw, bufs);
        } else {
            self.weight_grads_rows::<4>(src, coef, lanes, gw, bufs);
        }
    }

    /// [`Window::weight_grads`] with the coefficient rows in groups of `R`.
    fn weight_grads_rows<const R: usize>(
        &self,
        src: &[f32],
        coef: &[f32],
        lanes: usize,
        gw: &mut [f32],
        bufs: &mut [Scratch; 2],
    ) {
        let [sc, sh, sw] = self.src;
        let [dc, dh, dw] = self.dst;
        let (k, s, p) = (self.k, self.stride, self.padding);
        // Padded extent: every tap position y·s + ky of every pixel.
        let (ph, pw) = ((dh - 1) * s + k, (dw - 1) * s + k);
        let (taps, pixels, groups) = (self.taps(), dh * dw, dc.div_ceil(R));
        let [pad_buf, coef_buf] = bufs;
        for t in 0..lanes {
            let padded = pad_buf.filled(sc * ph * pw, 0.0);
            for (c, plane) in padded.chunks_exact_mut(ph * pw).enumerate() {
                for (y, row) in plane.chunks_exact_mut(pw).skip(p).take(sh).enumerate() {
                    let src_row = &src[(c * sh + y) * sw * lanes..(c * sh + y + 1) * sw * lanes];
                    for (v, &x) in row
                        .iter_mut()
                        .skip(p)
                        .zip(src_row[t..].iter().step_by(lanes))
                    {
                        *v = x;
                    }
                }
            }
            let coef_t = coef_buf.filled(pixels * groups * R, 0.0);
            for (r, plane) in coef.chunks_exact(pixels * lanes).enumerate() {
                for (pix, &v) in plane[t..].iter().step_by(lanes).enumerate() {
                    coef_t[(pix * groups + r / R) * R + r % R] = v;
                }
            }
            let pass = TapPass {
                window: self,
                padded,
                pw,
                coef_t,
                groups,
            };
            // Eight accumulator vectors per pass: 8 taps × 4 rows or
            // 4 taps × 8 rows.
            for g in 0..groups {
                let mut j = 0;
                while R == 4 && j + 8 <= taps {
                    pass.run::<8, R>(g, j, gw);
                    j += 8;
                }
                while j + 4 <= taps {
                    pass.run::<4, R>(g, j, gw);
                    j += 4;
                }
                for j in j..taps {
                    pass.run::<1, R>(g, j, gw);
                }
            }
        }
    }

    /// `dst[r, pix, :] = Σ_(c, ky, kx) w[r, c, ky, kx] · patch(pix)[…, :]`,
    /// pixel by pixel: each pixel's batch-innermost patch (`taps × lanes`,
    /// zero where a tap leaves the source) meets every weight row in one
    /// [`dot_rows`], so each destination element sums all its taps in
    /// `(c, ky, kx)` order from `+0.0`, as a per-pixel dot product would.
    pub(crate) fn patch_dots(
        &self,
        wgt: &[f32],
        src: &[f32],
        lanes: usize,
        dst: &mut [f32],
        bufs: &mut [Scratch; 2],
    ) {
        match (self.k, lanes) {
            (4, 1) => self.patch_dots_k::<4, 1>(wgt, src, lanes, dst, bufs),
            (4, 8) => self.patch_dots_k::<4, 8>(wgt, src, lanes, dst, bufs),
            (4, _) => self.patch_dots_k::<4, 0>(wgt, src, lanes, dst, bufs),
            (_, 1) => self.patch_dots_k::<0, 1>(wgt, src, lanes, dst, bufs),
            _ => self.patch_dots_k::<0, 0>(wgt, src, lanes, dst, bufs),
        }
    }

    fn patch_dots_k<const K: usize, const L: usize>(
        &self,
        wgt: &[f32],
        src: &[f32],
        lanes: usize,
        dst: &mut [f32],
        bufs: &mut [Scratch; 2],
    ) {
        let [dc, dh, dw] = self.dst;
        let [patch_buf, acc_buf] = bufs;
        let patch = patch_buf.filled(self.taps() * lanes, 0.0);
        for pix in 0..dh * dw {
            self.patch::<K, L>(src, lanes, pix, patch);
            let acc = acc_buf.filled(dc * lanes, 0.0);
            dot_rows(wgt, patch, lanes, acc);
            for (plane, a) in dst
                .chunks_exact_mut(dh * dw * lanes)
                .zip(acc.chunks_exact(lanes))
            {
                plane[pix * lanes..(pix + 1) * lanes].copy_from_slice(a);
            }
        }
    }

    /// The patch of destination pixel `pix` over batch-innermost `src` of
    /// `lanes` samples: `patch[((c·k + ky)·k + kx)·lanes + b]` is source plane
    /// `c` at the tap's position, or `0.0` where that leaves the source. The
    /// kernel sizes and lane counts the networks use are compiled in as `K`
    /// and `L` (`0`: `self.k` or `lanes` at run time), so each window is a
    /// fixed-length copy rather than a `memcpy` call.
    #[inline(always)]
    fn patch<const K: usize, const L: usize>(
        &self,
        src: &[f32],
        lanes: usize,
        pix: usize,
        patch: &mut [f32],
    ) {
        let [_, sh, sw] = self.src;
        let k = if K == 0 { self.k } else { K };
        let lanes = if L == 0 { lanes } else { L };
        let (s, p) = (self.stride, self.padding);
        let (y, x) = (pix / self.dst[2], pix % self.dst[2]);
        let row_len = sw * lanes;
        let seg_len = k * lanes;
        // The window's first column, and whether all k columns are inside.
        let x0 = (x * s).wrapping_sub(p);
        let inside = x * s >= p && x * s - p + k <= sw;
        for (plane, segs) in src
            .chunks_exact(sh * row_len)
            .zip(patch.chunks_exact_mut(k * seg_len))
        {
            for (ky, seg) in segs.chunks_exact_mut(seg_len).enumerate() {
                let sy = (y * s + ky).wrapping_sub(p);
                if sy >= sh {
                    seg.fill(0.0);
                    continue;
                }
                let row = &plane[sy * row_len..(sy + 1) * row_len];
                if inside {
                    seg.copy_from_slice(&row[x0 * lanes..x0 * lanes + seg_len]);
                } else {
                    for (kx, tap) in seg.chunks_exact_mut(lanes).enumerate() {
                        let sx = x0.wrapping_add(kx);
                        if sx < sw {
                            tap.copy_from_slice(&row[sx * lanes..(sx + 1) * lanes]);
                        } else {
                            tap.fill(0.0);
                        }
                    }
                }
            }
        }
    }
}

/// One transition's inputs to [`Window::weight_grads`]: the zero-padded
/// source sample (`[src planes, ph, pw]`) and the coefficients transposed to
/// `[pixel, group, R]`.
struct TapPass<'a> {
    window: &'a Window,
    padded: &'a [f32],
    pw: usize,
    coef_t: &'a [f32],
    groups: usize,
}

impl TapPass<'_> {
    /// Taps `j0..j0 + T` of the coefficient rows in group `g` of `R`:
    /// `T × R` accumulators, loaded from `gw`, take every pixel's term in
    /// pixel order, then are stored back.
    #[inline(always)]
    fn run<const T: usize, const R: usize>(&self, g: usize, j0: usize, gw: &mut [f32]) {
        let Window { k, stride: s, .. } = *self.window;
        let [dc, dh, dw] = self.window.dst;
        let ph = self.padded.len() / (self.window.src[0] * self.pw);
        let taps = self.window.taps();
        let rows = (dc - R * g).min(R);
        // Offset of each tap in the padded source, relative to a pixel's
        // window origin.
        let offset: [usize; T] = std::array::from_fn(|i| {
            let (c, kk) = ((j0 + i) / (k * k), (j0 + i) % (k * k));
            (c * ph + kk / k) * self.pw + kk % k
        });
        let mut acc = [[0.0f32; R]; T];
        for (i, a) in acc.iter_mut().enumerate() {
            for (r, v) in a.iter_mut().take(rows).enumerate() {
                *v = gw[(R * g + r) * taps + j0 + i];
            }
        }
        for y in 0..dh {
            for x in 0..dw {
                let pix = y * dw + x;
                let cv: &[f32; R] = self.coef_t[(pix * self.groups + g) * R..][..R]
                    .try_into()
                    .expect("a group of R rows");
                let origin = y * s * self.pw + x * s;
                for (a, &off) in acc.iter_mut().zip(&offset) {
                    let v = self.padded[origin + off];
                    for r in 0..R {
                        a[r] += v * cv[r];
                    }
                }
            }
        }
        for (i, a) in acc.iter().enumerate() {
            for (r, &v) in a.iter().take(rows).enumerate() {
                gw[(R * g + r) * taps + j0 + i] = v;
            }
        }
    }
}

/// Transition-major bias gradient: `gb[r] += g[r, pix, t]` with transitions
/// outer and pixels inner, over a batch-innermost gradient of `lanes`
/// samples. Four planes' serial sums run side by side.
pub(crate) fn bias_grads(g: &[f32], lanes: usize, gb: &mut [f32]) {
    let plane = g.len() / gb.len().max(1);
    for (gb, g) in gb.chunks_mut(4).zip(g.chunks(4 * plane)) {
        let mut acc = [0.0f32; 4];
        acc[..gb.len()].copy_from_slice(gb);
        for t in 0..lanes {
            for pix in (t..plane).step_by(lanes) {
                for (a, gp) in acc.iter_mut().zip(g.chunks_exact(plane)) {
                    *a += gp[pix];
                }
            }
        }
        gb.copy_from_slice(&acc[..gb.len()]);
    }
}

/// A reusable `f32` buffer (padded samples, transposed coefficients, patch
/// rows, parity planes).
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

thread_local! {
    static SCRATCH: RefCell<[Scratch; 2]> = RefCell::new(Default::default());
}

/// Runs `f` on this thread's two scratch buffers. Every layer shares them, so
/// they are reused across calls, minibatches and layers, and only the
/// largest single kernel's scratch stays allocated. Kernels run one at a
/// time, so calls never nest.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut [Scratch; 2]) -> R) -> R {
    SCRATCH.with(|bufs| f(&mut bufs.borrow_mut()))
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
            dot_rows(&rows, &v, 1, &mut out);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&expect));
        }
    }
}
