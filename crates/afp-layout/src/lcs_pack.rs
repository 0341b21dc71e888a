//! FAST-SP: O(n log n) sequence-pair evaluation via weighted longest common
//! subsequences (Tang–Wong).
//!
//! # Algorithm
//!
//! A sequence pair `(s⁺, s⁻)` encodes the horizontal/vertical relations of
//! `n` blocks: `a` is **left of** `b` iff `a` precedes `b` in both sequences,
//! and `a` is **below** `b` iff `a` follows `b` in `s⁺` but precedes it in
//! `s⁻`. Packing the pair means computing, for every block, the longest
//! weighted path of predecessors under each relation:
//!
//! ```text
//! x[b] = max { x[a] + w[a] : a left of b }        (0 when no predecessor)
//! y[b] = max { y[a] + h[a] : a below  b }
//! ```
//!
//! Tang and Wong observed that these longest paths are *weighted longest
//! common subsequence* computations over the two sequences and can be
//! evaluated in a single sweep with a prefix-max structure:
//!
//! * **x-pass** — visit blocks in `s⁺` order. When block `b` (at position
//!   `p = s⁻(b)`) is visited, every already-visited block `a` satisfies
//!   `s⁺(a) < s⁺(b)`, so `a` is left of `b` exactly when `s⁻(a) < p`.
//!   Hence `x[b]` is the maximum of `x[a] + w[a]` over `s⁻` positions
//!   `< p` — a prefix-max query — after which `x[b] + w[b]` is inserted at
//!   position `p`.
//! * **y-pass** — identical, but visiting blocks in *reverse* `s⁺` order so
//!   that already-visited blocks satisfy `s⁺(a) > s⁺(b)`, making the prefix
//!   condition `s⁻(a) < p` equivalent to "`a` below `b`".
//!
//! With a Fenwick (binary-indexed) tree over `s⁻` positions both passes cost
//! O(n log n) total, replacing the seed's O(n³) repeated-relaxation solver.
//! Because each coordinate is produced by the *same* recurrence (`f64` max
//! over `x[a] + w[a]` terms) that the relaxation solver iterates to a fixed
//! point, the computed positions are bit-identical to the legacy packer's —
//! property-tested in `tests/properties.rs` against that oracle
//! (`SequencePair::pack_relaxation`).
//!
//! # Scratch reuse
//!
//! Metaheuristic inner loops evaluate millions of candidate packings;
//! [`PackScratch`] owns every buffer the sweep needs so repeated calls
//! allocate nothing once warm. [`SequencePair::pack`] remains the
//! allocation-per-call convenience entry point; hot paths should hold a
//! `PackScratch` and call [`SequencePair::pack_into`].
//!
//! [`SequencePair::pack`]: crate::SequencePair::pack
//! [`SequencePair::pack_into`]: crate::SequencePair::pack_into

use afp_circuit::Shape;

/// Reusable buffers for FAST-SP packing sweeps.
///
/// Holding one `PackScratch` per optimizer run makes every pack evaluation
/// allocation-free after the first call at a given problem size.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    /// `neg_index[b]` = position of block `b` in `s⁻`.
    neg_index: Vec<usize>,
    /// Fenwick tree over `s⁻` positions holding prefix maxima (1-indexed).
    tree: Vec<f64>,
    /// Coordinate buffers loaned out to [`SequencePair::pack_into`].
    ///
    /// [`SequencePair::pack_into`]: crate::SequencePair::pack_into
    coords: (Vec<f64>, Vec<f64>),
    /// Placement-order buffer loaned out to `realize_floorplan`.
    order: Vec<usize>,
}

impl PackScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        PackScratch::default()
    }

    /// Creates a scratch pre-sized for `n` blocks.
    pub fn with_capacity(n: usize) -> Self {
        PackScratch {
            neg_index: Vec::with_capacity(n),
            tree: Vec::with_capacity(n + 1),
            coords: (Vec::with_capacity(n), Vec::with_capacity(n)),
            order: Vec::with_capacity(n),
        }
    }

    /// Loans the coordinate buffers out so `pack_coords` can borrow the
    /// scratch mutably at the same time.
    pub(crate) fn take_coords(&mut self) -> (Vec<f64>, Vec<f64>) {
        std::mem::take(&mut self.coords)
    }

    /// Returns loaned coordinate buffers for reuse by the next pack.
    pub(crate) fn store_coords(&mut self, xs: Vec<f64>, ys: Vec<f64>) {
        self.coords = (xs, ys);
    }

    /// Loans the placement-order buffer out.
    pub(crate) fn take_order(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.order)
    }

    /// Returns the loaned placement-order buffer.
    pub(crate) fn store_order(&mut self, order: Vec<usize>) {
        self.order = order;
    }

    fn prepare(&mut self, n: usize) {
        self.neg_index.clear();
        self.neg_index.resize(n, 0);
        self.tree.clear();
        self.tree.resize(n + 1, 0.0);
    }

    /// Resets the Fenwick tree between the x- and y-passes.
    fn reset_tree(&mut self) {
        for v in &mut self.tree {
            *v = 0.0;
        }
    }

    /// Maximum of the values inserted at tree positions `< upto` (0-indexed
    /// exclusive bound), or `0.0` when none.
    #[inline]
    fn prefix_max(&self, upto: usize) -> f64 {
        let mut i = upto; // 1-indexed prefix [1, upto]
        let mut best = 0.0f64;
        while i > 0 {
            best = best.max(self.tree[i]);
            i &= i - 1;
        }
        best
    }

    /// Raises the value at 0-indexed position `at` to at least `value`.
    #[inline]
    fn insert(&mut self, at: usize, value: f64) {
        let n = self.tree.len() - 1;
        let mut i = at + 1;
        while i <= n {
            if self.tree[i] < value {
                self.tree[i] = value;
            }
            i += i & i.wrapping_neg();
        }
    }
}

/// Computes packed lower-left coordinates for a sequence pair.
///
/// Writes `x`/`y` (resized to `n`) and returns the enclosing `(width,
/// height)`. This is the allocation-free core shared by every public packing
/// entry point.
///
/// # Panics
///
/// Panics if `positive`, `negative` and `shapes` have different lengths or if
/// the sequences are not permutations of `0..n` (debug assertions).
pub fn pack_coords(
    positive: &[usize],
    negative: &[usize],
    shapes: &[Shape],
    scratch: &mut PackScratch,
    x: &mut Vec<f64>,
    y: &mut Vec<f64>,
) -> (f64, f64) {
    let n = shapes.len();
    assert_eq!(positive.len(), n, "positive sequence length mismatch");
    assert_eq!(negative.len(), n, "negative sequence length mismatch");
    x.clear();
    x.resize(n, 0.0);
    y.clear();
    y.resize(n, 0.0);
    if n == 0 {
        return (0.0, 0.0);
    }
    scratch.prepare(n);
    debug_assert!(
        positive.iter().all(|&b| b < n),
        "block index out of range in s+"
    );
    for (i, &b) in negative.iter().enumerate() {
        debug_assert!(b < n, "block index out of range in s-");
        scratch.neg_index[b] = i;
    }

    // Every prefix max is a max over non-negative finite f64s — a commutative
    // and associative reduction — so the Fenwick tree and a linear scan
    // produce bit-identical coordinates; below `LINEAR_SCAN_MAX` blocks the
    // branch-free scan over a flat array wins on constants (the paper's
    // circuits are ≤ 19 blocks).
    if n <= LINEAR_SCAN_MAX {
        // x-pass: s⁺ order; aux[p] holds x[a] + w[a] of the visited block at
        // s⁻ position p (0.0 while unvisited, which never changes a max of
        // non-negative values).
        for &b in positive {
            let p = scratch.neg_index[b];
            let xb = linear_prefix_max(&scratch.tree[..p]);
            x[b] = xb;
            scratch.tree[p] = xb + shapes[b].width_um;
        }
        let width = linear_prefix_max(&scratch.tree[..n]);

        // y-pass: reverse s⁺ order.
        scratch.reset_tree();
        for &b in positive.iter().rev() {
            let p = scratch.neg_index[b];
            let yb = linear_prefix_max(&scratch.tree[..p]);
            y[b] = yb;
            scratch.tree[p] = yb + shapes[b].height_um;
        }
        let height = linear_prefix_max(&scratch.tree[..n]);
        return (width, height);
    }

    // x-pass: s⁺ order, prefix over s⁻ positions.
    for &b in positive {
        let p = scratch.neg_index[b];
        let xb = scratch.prefix_max(p);
        x[b] = xb;
        scratch.insert(p, xb + shapes[b].width_um);
    }
    let width = scratch.prefix_max(n);

    // y-pass: reverse s⁺ order, prefix over s⁻ positions.
    scratch.reset_tree();
    for &b in positive.iter().rev() {
        let p = scratch.neg_index[b];
        let yb = scratch.prefix_max(p);
        y[b] = yb;
        scratch.insert(p, yb + shapes[b].height_um);
    }
    let height = scratch.prefix_max(n);

    (width, height)
}

/// Block count below which the linear prefix-max scan replaces the Fenwick
/// tree (same values bit-for-bit; better constants and vectorizable). The
/// crossover sits between the paper's circuits (≤ 19 blocks, scan wins) and
/// the 50-block scaling tier (Fenwick wins).
const LINEAR_SCAN_MAX: usize = 32;

/// Maximum of a slice of non-negative f64s, 0.0 when empty.
#[inline]
fn linear_prefix_max(values: &[f64]) -> f64 {
    let mut best = 0.0f64;
    for &v in values {
        if v > best {
            best = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(w: f64, h: f64) -> Shape {
        Shape::new(w, h)
    }

    #[test]
    fn empty_input() {
        let mut scratch = PackScratch::new();
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let (w, h) = pack_coords(&[], &[], &[], &mut scratch, &mut x, &mut y);
        assert_eq!((w, h), (0.0, 0.0));
        assert!(x.is_empty() && y.is_empty());
    }

    #[test]
    fn row_packing() {
        let shapes = vec![shape(2.0, 3.0), shape(3.0, 3.0), shape(4.0, 3.0)];
        let mut scratch = PackScratch::new();
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let (w, h) = pack_coords(&[0, 1, 2], &[0, 1, 2], &shapes, &mut scratch, &mut x, &mut y);
        assert_eq!(x, vec![0.0, 2.0, 5.0]);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
        assert_eq!((w, h), (9.0, 3.0));
    }

    #[test]
    fn column_packing() {
        let shapes = vec![shape(2.0, 3.0), shape(3.0, 4.0), shape(4.0, 5.0)];
        let mut scratch = PackScratch::new();
        let (mut x, mut y) = (Vec::new(), Vec::new());
        // Reversed negative sequence stacks blocks bottom-to-top.
        let (w, h) = pack_coords(&[0, 1, 2], &[2, 1, 0], &shapes, &mut scratch, &mut x, &mut y);
        assert_eq!(y, vec![9.0, 5.0, 0.0]);
        assert_eq!(x, vec![0.0, 0.0, 0.0]);
        assert_eq!((w, h), (4.0, 12.0));
    }

    #[test]
    fn scratch_reuse_across_sizes() {
        let mut scratch = PackScratch::with_capacity(8);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let big: Vec<Shape> = (0..8).map(|i| shape(1.0 + i as f64, 2.0)).collect();
        let perm: Vec<usize> = (0..8).collect();
        pack_coords(&perm, &perm, &big, &mut scratch, &mut x, &mut y);
        // Shrinking afterwards must not read stale state.
        let small = vec![shape(2.0, 3.0), shape(3.0, 3.0)];
        let (w, h) = pack_coords(&[1, 0], &[1, 0], &small, &mut scratch, &mut x, &mut y);
        assert_eq!(x, vec![3.0, 0.0]);
        assert_eq!((w, h), (5.0, 3.0));
    }
}
